//! `batch-join` and `batch-ooc`: the one-shot CLI path, run as a child
//! process one join at a time in a closed loop, each join followed by a
//! CLI `top-k --k 10` on the same files.

use crate::data::{self, Reference, TOP_K};
use crate::proc::{ringjoin, run_to_exit};
use crate::replay::{self, Buffer, Config};
use crate::report::{Report, Tail};
use crate::stats::{median, ratio};
use crate::trace::Tracer;
use crate::Ctx;
use ringjoin_geom::Item;
use std::io;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

pub enum Kind {
    /// The CLI defaults: sequential executor and the paper's exact-LRU
    /// buffer at 1% of both trees.
    Resident,
    /// `--threads 2 --on-disk FILE --buffer-pages B`, B a quarter of
    /// both trees' pages: the work-stealing executor over the clock
    /// buffer pool and real page-file reads.
    OutOfCore,
}

/// Timed writes of the inputs before each join; `setup_s` is the median
/// of all of them. One write of both files takes well under a
/// millisecond, and the machine's speed changes from one second to the
/// next: writes spread over the whole run average that out, where a
/// burst of writes before the first join would catch one moment of it.
const WRITES_PER_ROUND: usize = 5;

/// Writes the inputs afresh `WRITES_PER_ROUND` times, adding the time,
/// in seconds, of each write to `times`.
fn write_inputs_timed(ctx: &Ctx, p: &[Item], q: &[Item], times: &mut Vec<f64>) -> io::Result<()> {
    for _ in 0..WRITES_PER_ROUND {
        data::remove_inputs(&ctx.work);
        let t = Instant::now();
        data::write_inputs(&ctx.work, p, q)?;
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(())
}

struct Cli<'a> {
    ctx: &'a Ctx,
    extra: Vec<String>,
    reference: &'a Reference,
}

impl Cli<'_> {
    fn command(&self, verb: &str, out: &Path) -> Command {
        let dir = &self.ctx.work;
        let mut cmd = ringjoin(&self.ctx.bin);
        cmd.arg(verb)
            .arg("--p")
            .arg(dir.join("pp.bin"))
            .arg("--q")
            .arg(dir.join("sc.bin"))
            .arg("--out")
            .arg(out);
        if verb == "join" {
            cmd.args(["--algo", "obj"]);
        } else {
            cmd.args(["--k", &TOP_K.to_string()]);
        }
        cmd.args(&self.extra);
        cmd
    }

    /// Runs one CLI command and checks its output. Returns the wall
    /// time and peak RSS of a successful run; a failed run counts as
    /// failed, a wrong answer marks the report wrong.
    fn run(&self, verb: &str, report: &mut Report) -> io::Result<Option<(Instant, Duration, u64)>> {
        let out = self.ctx.work.join(format!("{verb}.csv"));
        let _ = std::fs::remove_file(&out);
        let start = Instant::now();
        let exit = run_to_exit(&mut self.command(verb, &out))?;
        report.attempted += 1;
        if !exit.ok {
            report.failed += 1;
            return Ok(None);
        }
        let keys = data::csv_keys(&out)?;
        if verb == "join" {
            let got = data::digest(keys);
            if got != self.reference.join {
                report.wrong(format!(
                    "CLI join gave {got:?}, reference {:?}",
                    self.reference.join
                ));
            }
        } else if keys != self.reference.topk {
            report.wrong(format!(
                "CLI top-k gave {keys:?}, reference {:?}",
                self.reference.topk
            ));
        }
        Ok(Some((start, exit.wall, exit.max_rss_kb)))
    }
}

pub fn run(ctx: &Ctx, kind: Kind) -> io::Result<Report> {
    let mut report = Report::new();
    // Making the inputs is the benchmark's own work and is not timed.
    let (p, q) = data::inputs(ctx.seed);
    let mut setup = Vec::new();
    write_inputs_timed(ctx, &p, &q, &mut setup)?;
    let reference = data::reference(&p, &q);
    let pages = reference.tree_pages;
    let pages_file = ctx.work.join("pages.bin");
    let (cfg, extra) = match kind {
        Kind::Resident => (
            Config {
                buffer: Buffer::Frac(0.01),
                on_disk: None,
                threads: 1,
            },
            Vec::new(),
        ),
        Kind::OutOfCore => {
            let budget = pages.div_ceil(4) as usize;
            (
                Config {
                    buffer: Buffer::Pages(budget),
                    on_disk: Some(ctx.work.join("replay-pages.bin")),
                    threads: 2,
                },
                vec![
                    "--threads".into(),
                    "2".into(),
                    "--on-disk".into(),
                    pages_file.display().to_string(),
                    "--buffer-pages".into(),
                    budget.to_string(),
                ],
            )
        }
    };
    let budget = match cfg.buffer {
        Buffer::Frac(f) => ((pages as f64 * f).ceil() as u64).max(1),
        Buffer::Pages(n) => n as u64,
        Buffer::Unbounded => pages,
    };
    report.note(format!(
        "inputs: |Q| = {} schools (outer), |P| = {} populated places (inner), {} result pairs; \
         trees {pages} pages, buffer {budget} pages: larger than the cache",
        q.len(),
        p.len(),
        reference.join.pairs
    ));
    let cli = Cli {
        ctx,
        extra,
        reference: &reference,
    };
    if ctx.trace {
        traced(ctx, &cli, &cfg, &reference, report)
    } else {
        let (mut joins, mut topks, mut rss) = (Vec::new(), Vec::new(), Vec::new());
        let deadline = Instant::now() + ctx.seconds;
        while Instant::now() < deadline && report.correct {
            write_inputs_timed(ctx, &p, &q, &mut setup)?;
            if let Some((_, wall, kb)) = cli.run("join", &mut report)? {
                joins.push(wall.as_secs_f64() * 1e3);
                rss.push(kb as f64 / 1024.0);
            }
            if let Some((_, wall, _)) = cli.run("top-k", &mut report)? {
                topks.push(wall.as_secs_f64() * 1e3);
            }
        }
        report.put("setup_s", median(&setup));
        report.timing("op_ms", "CLI join (process wall)", &joins, Tail::Pooled);
        report.timing(
            "topk_ms",
            "CLI top-k k=10 (process wall)",
            &topks,
            Tail::Pooled,
        );
        report.put("peak_rss_mb", median(&rss));
        Ok(report)
    }
}

/// The traced run: CLI joins timed from outside for the wall clock,
/// then in-process replays of the same sequence, alternately with and
/// without spans.
fn traced(
    ctx: &Ctx,
    cli: &Cli,
    cfg: &Config,
    reference: &Reference,
    mut report: Report,
) -> io::Result<Report> {
    let mut tr = Tracer::new();
    let start = Instant::now();
    let mut req = 0u64;
    let mut cli_walls = Vec::new();
    while start.elapsed() < ctx.seconds.mul_f64(0.4) && report.correct {
        req += 1;
        if let Some((t0, wall, _)) = cli.run("join", &mut report)? {
            tr.record("cli.process", req, (t0, t0 + wall), &[]);
            cli_walls.push(wall.as_secs_f64() * 1e3);
        }
    }
    let untraced = replay::measure_layers(
        &mut tr,
        &mut req,
        &ctx.work,
        cfg,
        reference,
        &mut report,
        |n| start.elapsed() < ctx.seconds || n < 2,
    );
    let layer = |name: &str| median(&tr.per_request_self_ms(name));
    let in_process = [
        "datagen.io.parse",
        "core.engine.index_build",
        "core.planner.plan",
        "core.join.kernel",
    ]
    .map(layer)
    .iter()
    .sum::<f64>();
    let cli_wall = median(&cli_walls);
    report.put("cli.residual_ms", cli_wall - in_process);
    report.put("trace.accounted_frac", ratio(in_process, cli_wall));
    report.put(
        "trace.overhead_frac",
        ratio(median(&tr.durations_ms("request")), median(&untraced)) - 1.0,
    );
    report.put(
        "failed_frac",
        ratio(report.failed as f64, report.attempted as f64),
    );
    report.note(format!(
        "wall: CLI join {cli_wall:.3} ms ({} runs); in-process layers {in_process:.3} ms; \
         the residual holds process start and CSV output",
        cli_walls.len()
    ));
    crate::finish_trace(ctx, &tr, &mut report)?;
    Ok(report)
}
