//! In-process replay of the CLI's one-shot join, timed layer by layer.
//!
//! The sequence is the one `ringjoin join` runs: `load_bin` for both
//! files, `Engine::load().index()` for both trees (the second load spills
//! the page space when the run is on disk), the buffer budget, then
//! `QueryBuilder::plan` and `Plan::collect`. Every step is wrapped in a
//! span named after the layer whose public function it calls.

use crate::data::Reference;
use crate::report::Report;
use crate::stats::{median, ratio};
use crate::trace::Tracer;
use ringjoin_core::{Engine, Executor, IndexKind, RcjAlgorithm, RcjStats};
use ringjoin_storage::IoStats;
use std::path::{Path, PathBuf};
use std::time::Instant;

#[derive(Clone, Copy)]
pub enum Buffer {
    /// The paper's rule: a share of both trees' pages.
    Frac(f64),
    /// An absolute page budget.
    Pages(usize),
    /// Everything resident (the serving default).
    Unbounded,
}

#[derive(Clone)]
pub struct Config {
    pub buffer: Buffer,
    pub on_disk: Option<PathBuf>,
    pub threads: usize,
}

struct Replay {
    engine: Engine,
    stats: RcjStats,
    io: IoStats,
    wall_ms: f64,
}

/// Runs `f` in a span when tracing, bare otherwise.
fn step<T>(tr: &mut Option<&mut Tracer>, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
    match tr {
        Some(t) => t.span(name, req, f),
        None => f(),
    }
}

fn set_buffer(engine: &mut Engine, buffer: Buffer) {
    match buffer {
        Buffer::Frac(f) => engine.set_buffer_frac(f),
        Buffer::Pages(n) => engine.set_buffer_pages(n),
        Buffer::Unbounded => engine.set_buffer_pages(usize::MAX / 2),
    }
}

/// One full replay as request `req`; `tr` is `None` for the untraced
/// runs that the tracing overhead is measured against.
fn run(mut tr: Option<&mut Tracer>, req: u64, dir: &Path, cfg: &Config) -> Replay {
    let start = Instant::now();
    let root = tr.as_mut().map(|t| t.begin("request", req));
    let load = |file: &str| {
        ringjoin_datagen::io::load_bin(dir.join(file)).expect("benchmark inputs are readable")
    };
    let p = step(&mut tr, "datagen.io.parse", req, || load("pp.bin"));
    let q = step(&mut tr, "datagen.io.parse", req, || load("sc.bin"));
    let engine = step(&mut tr, "core.engine.index_build", req, || {
        let mut engine = Engine::new();
        engine.load("p", p).index(IndexKind::Rtree);
        let load = engine.load("q", q);
        match &cfg.on_disk {
            Some(path) => load.on_disk(path).index(IndexKind::Rtree),
            None => load.index(IndexKind::Rtree),
        };
        set_buffer(&mut engine, cfg.buffer);
        engine
    });
    let out = {
        let plan = step(&mut tr, "core.planner.plan", req, || {
            engine
                .query()
                .join("q", "p")
                .algorithm(RcjAlgorithm::Obj)
                .executor(Executor::threads(cfg.threads))
                .plan()
                .expect("both datasets are loaded")
        });
        step(&mut tr, "core.join.kernel", req, || plan.collect())
    };
    let io = engine.pager().borrow().stats();
    if let (Some(t), Some(id)) = (tr.as_mut(), root) {
        t.end(id);
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(&out.pairs);
    Replay {
        engine,
        stats: out.stats,
        io,
        wall_ms,
    }
}

/// Times the kernel again on the replay's engine from a cold buffer,
/// as its own root span: with `skip_verification` (the filter step
/// alone) or with `threads` workers.
fn kernel_variant(
    tr: &mut Tracer,
    name: &'static str,
    req: u64,
    replay: &mut Replay,
    cfg: &Config,
    threads: usize,
    filter_only: bool,
) {
    set_buffer(&mut replay.engine, cfg.buffer);
    let mut query = replay
        .engine
        .query()
        .join("q", "p")
        .algorithm(RcjAlgorithm::Obj)
        .executor(Executor::threads(threads));
    if filter_only {
        query = query.skip_verification();
    }
    let plan = query.plan().expect("both datasets are loaded");
    let out = tr.span(name, req, || plan.collect());
    std::hint::black_box(&out.pairs);
}

/// Replays the join while `more(replays so far)` holds, each time also
/// timing the filter step alone and the kernel at 1 and at 2 threads,
/// then reports the core and storage layers. Every traced replay is
/// followed by one without spans; their wall times are returned, for the
/// tracing overhead.
pub fn measure_layers(
    tr: &mut Tracer,
    req: &mut u64,
    dir: &Path,
    cfg: &Config,
    reference: &Reference,
    report: &mut Report,
    more: impl Fn(usize) -> bool,
) -> Vec<f64> {
    let mut plain = Vec::new();
    let mut last = None;
    let mut n = 0;
    while (n == 0 || more(n)) && report.correct {
        n += 1;
        *req += 1;
        let mut r = run(Some(tr), *req, dir, cfg);
        if r.stats.result_pairs != reference.join.pairs as u64 {
            report.wrong(format!(
                "replayed join found {} pairs",
                r.stats.result_pairs
            ));
        }
        for (name, threads, filter_only) in [
            ("core.filter.filter_only", cfg.threads, true),
            ("core.join.kernel_1t", 1, false),
            ("core.join.kernel_2t", 2, false),
        ] {
            *req += 1;
            kernel_variant(tr, name, *req, &mut r, cfg, threads, filter_only);
        }
        *req += 1;
        plain.push(run(None, *req, dir, cfg).wall_ms);
        last = Some(r);
    }
    let r = last.expect("replayed at least once");
    let layer = |name: &str| median(&tr.per_request_self_ms(name));
    let kernel = layer("core.join.kernel");
    let filter = median(&tr.durations_ms("core.filter.filter_only"));
    report.put("datagen.io.parse_ms", layer("datagen.io.parse"));
    report.put(
        "core.engine.index_build_ms",
        layer("core.engine.index_build"),
    );
    report.put("core.planner.plan_us", layer("core.planner.plan") * 1e3);
    report.put("core.join.kernel_ms", kernel);
    report.put("core.filter.filter_ms", filter);
    report.put("core.verify.verify_ms", kernel - filter);
    report.put(
        "core.executor.speedup_2t",
        ratio(
            median(&tr.durations_ms("core.join.kernel_1t")),
            median(&tr.durations_ms("core.join.kernel_2t")),
        ),
    );
    let s = &r.stats;
    report.put("core.engine.index_pages", reference.tree_pages as f64);
    report.put("core.join.candidate_pairs", s.candidate_pairs as f64);
    report.put("core.join.result_pairs", s.result_pairs as f64);
    report.put(
        "core.join.verify_yield",
        ratio(s.result_pairs as f64, s.candidate_pairs as f64),
    );
    report.put("core.filter.heap_pops", s.filter_heap_pops as f64);
    report.put("core.filter.node_reads", s.filter_node_reads as f64);
    report.put("core.verify.node_visits", s.verify_node_visits as f64);
    let io = &r.io;
    report.put("storage.pager.logical_reads", io.logical_reads as f64);
    report.put("storage.pager.read_faults", io.read_faults as f64);
    report.put("storage.pager.hit_rate", io.read_hit_rate());
    report.put("storage.pager.prefetch_hits", io.prefetch_hits as f64);
    plain
}
