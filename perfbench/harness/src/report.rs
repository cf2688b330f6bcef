//! The metric catalogue and the result a run prints.
//!
//! `BENCHMARK.json` names the same metrics; `run.py` checks that a run
//! reports exactly the set the mode asks for.

use crate::stats::{summarize, windowed_tail, TAIL_WINDOW, WINDOW_PCT};
use std::collections::BTreeMap;
use std::fmt::Write as _;

pub const WORKLOADS: [&str; 4] = ["batch-join", "batch-ooc", "serve-read", "serve-write"];

/// How a timing's `_tail` metric is taken from its samples.
#[derive(Clone, Copy)]
pub enum Tail {
    /// Over the whole run: the highest percentile with at least ten
    /// samples beyond it (`stats::summarize`).
    Pooled,
    /// The median over windows of the run of each window's 90th
    /// percentile (`stats::windowed_tail`), for closed loops of short
    /// operations with many samples.
    Windowed,
}

/// End-to-end metrics, reported by every workload with tracing off.
/// `op_ms_*` times the workload's own closed-loop operation: a CLI join
/// (batch-*), a client `JOIN` including decode (serve-read) or a durable
/// mutation batch until acknowledged (serve-write).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("topk_ms_p50", "ms"),
    ("topk_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
];

const BATCH: &[&str] = &["batch-join", "batch-ooc"];
const SERVE: &[&str] = &["serve-read", "serve-write"];
const ALL: &[&str] = &WORKLOADS;
const READ: &[&str] = &["serve-read"];
const WRITE: &[&str] = &["serve-write"];

/// Per-layer metrics of the traced run: name, unit, and the workloads
/// whose path goes through that layer. A workload that bypasses a layer
/// reports 0 for it: it spent no time there and did no work there.
pub const PER_LAYER: [(&str, &str, &[&str]); 49] = [
    ("datagen.io.parse_ms", "ms", ALL),
    ("core.engine.index_build_ms", "ms", ALL),
    ("core.engine.index_pages", "count", ALL),
    ("core.planner.plan_us", "us", ALL),
    ("core.join.kernel_ms", "ms", ALL),
    ("core.filter.filter_ms", "ms", ALL),
    ("core.verify.verify_ms", "ms", ALL),
    ("core.join.candidate_pairs", "count", ALL),
    ("core.join.result_pairs", "count", ALL),
    ("core.join.verify_yield", "frac", ALL),
    ("core.filter.heap_pops", "count", ALL),
    ("core.filter.node_reads", "count", ALL),
    ("core.verify.node_visits", "count", ALL),
    ("core.executor.speedup_2t", "x", ALL),
    ("storage.pager.logical_reads", "count", ALL),
    ("storage.pager.read_faults", "count", ALL),
    ("storage.pager.hit_rate", "frac", ALL),
    ("storage.pager.prefetch_hits", "count", ALL),
    ("cli.residual_ms", "ms", BATCH),
    ("server.plan_cache.hit_frac", "frac", SERVE),
    ("server.pool.hit_rate", "frac", SERVE),
    ("server.pool.faults", "count", SERVE),
    ("server.proto.encode_pairs_ms", "ms", SERVE),
    ("server.proto.parse_pairs_ms", "ms", SERVE),
    ("server.proto.reply_bytes", "bytes", SERVE),
    ("server.sharded.join_ms", "ms", SERVE),
    ("server.sharded.topk_ms", "ms", SERVE),
    ("server.sharded.load_ms", "ms", SERVE),
    ("server.client.request_ms", "ms", SERVE),
    ("server.client.decode_ms", "ms", SERVE),
    ("server.transport_ms", "ms", SERVE),
    ("server.admission.admitted", "count", SERVE),
    ("server.admission.rejected_busy", "count", SERVE),
    ("loadgen.lag_ms", "ms", READ),
    ("storage.wal.append_us", "us", WRITE),
    ("storage.wal.sync_us", "us", WRITE),
    ("storage.wal.bytes_per_batch", "bytes", WRITE),
    ("core.engine.update_ms", "ms", WRITE),
    ("server.sharded.update_ms", "ms", WRITE),
    ("storage.wal.replay_ms", "ms", WRITE),
    ("server.recovery.redrive_ms", "ms", WRITE),
    ("server.stats.wal_records", "count", WRITE),
    ("server.stats.wal_bytes", "bytes", WRITE),
    ("trace.accounted_frac", "frac", ALL),
    ("trace.overhead_frac", "frac", ALL),
    ("recovery_s", "s", WRITE),
    ("disk_bytes_per_live_byte", "ratio", WRITE),
    ("failed_frac", "frac", ALL),
    ("topk_slo_miss_frac", "frac", READ),
];

/// What one run found: answer status, operation accounting, metrics,
/// and human-readable lines printed ahead of the JSON result.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    metrics: BTreeMap<String, f64>,
    lines: Vec<String>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            lines: Vec::new(),
        }
    }

    pub fn put(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.insert(name.to_string(), value);
    }

    pub fn note(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Marks the run wrong; the first mismatch is named in the output.
    pub fn wrong(&mut self, what: String) {
        if self.correct {
            self.note(format!("WRONG ANSWER: {what}"));
        }
        self.correct = false;
    }

    /// Records `<prefix>_p50` and `<prefix>_tail` from `samples` (ms) and
    /// states how the tail was taken and from how many samples. `samples`
    /// are in the order they were taken.
    pub fn timing(&mut self, prefix: &str, label: &str, samples: &[f64], tail: Tail) {
        let Some(s) = summarize(samples) else {
            return;
        };
        self.put(&format!("{prefix}_p50"), s.p50);
        let pooled = format!(
            "tail p{:.1} {:.3} ms ({} samples, {} beyond the tail)",
            s.tail_pct, s.tail, s.n, s.beyond
        );
        match tail {
            Tail::Pooled => {
                self.put(&format!("{prefix}_tail"), s.tail);
                self.note(format!("{label}: p50 {:.3} ms, {pooled}", s.p50));
            }
            Tail::Windowed => {
                let (t, windows) = windowed_tail(samples).expect("samples are not empty");
                self.put(&format!("{prefix}_tail"), t);
                self.note(format!(
                    "{label}: p50 {:.3} ms, tail {t:.3} ms: median over {windows} windows of \
                     {TAIL_WINDOW} samples of each window's p{WINDOW_PCT}; over the whole run the {pooled}",
                    s.p50
                ));
            }
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Prints the human lines, one `name = value unit` line per metric of
    /// the mode, and the JSON result as the last line.
    pub fn print(&self, workload: &str, trace: bool) {
        let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
        if trace {
            for (name, unit, touched) in PER_LAYER {
                let value = match self.get(name) {
                    Some(v) => v,
                    None if !touched.contains(&workload) => 0.0,
                    None => panic!("{workload} measured no value for {name}"),
                };
                metrics.push((name, unit, value));
            }
        } else {
            for (name, unit) in END_TO_END {
                let value = self
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload} measured no value for {name}"));
                metrics.push((name, unit, value));
            }
        }
        for line in &self.lines {
            println!("{line}");
        }
        for (name, unit, value) in &metrics {
            println!("{name} = {value} {unit}");
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, unit, value)) in metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}
