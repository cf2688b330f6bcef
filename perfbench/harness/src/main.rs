//! Benchmark harness for the ringjoin CLI and server.
//!
//! `ringjoin_perfbench --workload W --seed S --seconds T --trace 0|1
//! --ringjoin BIN --work DIR` runs one workload against the release
//! `ringjoin` binary, checks every answer, and prints its metrics with
//! the JSON result as the last line of standard output. `run.py` builds
//! both binaries and is the command to run; see `../README.md`.

mod batch;
mod data;
mod proc;
mod replay;
mod report;
mod serve;
mod stats;
mod trace;

use report::{Report, WORKLOADS};
use std::path::PathBuf;
use std::time::Duration;

/// Everything a workload needs to know about its run.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    /// The release `ringjoin` binary.
    pub bin: PathBuf,
    /// Scratch directory of this run (inputs, outputs, page files).
    pub work: PathBuf,
    /// Where the traced run writes its spans.
    pub traces: PathBuf,
}

fn parse_args() -> Result<Ctx, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut bin, mut work) =
        (None, None, None, None, None, None);
    while let Some(key) = args.next() {
        let value = args.next().ok_or(format!("missing value for {key}"))?;
        match key.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            "--ringjoin" => bin = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {key}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seed = seed.ok_or("missing --seed")?;
    let seconds = seconds.ok_or("missing --seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let work = work.ok_or("missing --work")?;
    Ok(Ctx {
        traces: work.join("traces"),
        work: work.join(format!("{workload}-{seed}-{}", std::process::id())),
        workload,
        seed,
        seconds: Duration::from_secs(seconds),
        trace: trace.ok_or("missing --trace")?,
        bin: bin.ok_or("missing --ringjoin")?,
    })
}

/// Adds the self-time table of the traced run to the report and writes
/// the spans.
pub fn finish_trace(ctx: &Ctx, tr: &trace::Tracer, report: &mut Report) -> std::io::Result<()> {
    report.note(format!(
        "self time by layer ({}, seed {}): span | spans | total ms | median ms per request",
        ctx.workload, ctx.seed
    ));
    for (name, row) in tr.self_times() {
        report.note(format!(
            "  {name:<32} {:>6} {:>12.3} {:>12.3}",
            row.spans, row.total_ms, row.per_request_ms
        ));
    }
    let path = ctx
        .traces
        .join(format!("{}-seed{}.tsv", ctx.workload, ctx.seed));
    std::fs::write(&path, tr.to_tsv())?;
    report.note(format!("spans written to {}", path.display()));
    Ok(())
}

fn run(ctx: &Ctx) -> std::io::Result<Report> {
    std::fs::create_dir_all(&ctx.work)?;
    std::fs::create_dir_all(&ctx.traces)?;
    match ctx.workload.as_str() {
        "batch-join" => batch::run(ctx, batch::Kind::Resident),
        "batch-ooc" => batch::run(ctx, batch::Kind::OutOfCore),
        "serve-read" => serve::read(ctx),
        "serve-write" => serve::write(ctx),
        other => unreachable!("workload {other} was validated"),
    }
}

fn main() {
    let ctx = match parse_args() {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let outcome = run(&ctx);
    let _ = std::fs::remove_dir_all(&ctx.work);
    match outcome {
        Ok(report) if report.attempted == 0 => {
            eprintln!("error: {} attempted no operation", ctx.workload);
            std::process::exit(1);
        }
        Ok(report) => {
            report.print(&ctx.workload, ctx.trace);
            if !report.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {}: {e}", ctx.workload);
            std::process::exit(1);
        }
    }
}
