//! In-memory span recorder for the traced run.
//!
//! Spans are taken in the benchmark's own code, around calls into each
//! layer's public functions; the program itself carries no tracing. Each
//! span has a name, a start and an end (offsets from the recorder's
//! origin), the span open around it (its parent) and a request id shared
//! by every span of one request. Nothing is written until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    request: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// One row of the self-time table.
pub struct SelfTime {
    pub spans: usize,
    pub total_ms: f64,
    /// Median over requests of the layer's summed self time per request.
    pub per_request_ms: f64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: &'static str, request: u64) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            request,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end = self.origin.elapsed();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, request);
        let out = f();
        self.end(id);
        out
    }

    /// Records a span measured elsewhere (a child process, a reply
    /// timed by the caller) under the currently open span, with
    /// `children` recorded inside it.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        (start, end): (Instant, Instant),
        children: &[(&'static str, Instant, Instant)],
    ) {
        let at = |t: Instant| t.saturating_duration_since(self.origin);
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start: at(start),
            end: at(end),
            parent,
            request,
        });
        let id = self.spans.len() - 1;
        for &(child, start, end) in children {
            self.spans.push(Span {
                name: child,
                start: at(start),
                end: at(end),
                parent: Some(id),
                request,
            });
        }
    }

    fn self_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self
            .spans
            .iter()
            .map(|s| (s.end - s.start).as_secs_f64() * 1e3)
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= (s.end - s.start).as_secs_f64() * 1e3;
            }
        }
        own
    }

    /// Per-request sums of the self time of spans named `name`, one
    /// entry per request that has such a span.
    pub fn per_request_self_ms(&self, name: &str) -> Vec<f64> {
        let own = self.self_ms();
        let mut by_request: BTreeMap<u64, f64> = BTreeMap::new();
        for (s, ms) in self.spans.iter().zip(own) {
            if s.name == name {
                *by_request.entry(s.request).or_default() += ms;
            }
        }
        by_request.into_values().collect()
    }

    /// Durations (not self times) of every span named `name`, in ms.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64() * 1e3)
            .collect()
    }

    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let own = self.self_ms();
        let mut table: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, ms) in self.spans.iter().zip(&own) {
            let row = table.entry(s.name).or_insert(SelfTime {
                spans: 0,
                total_ms: 0.0,
                per_request_ms: 0.0,
            });
            row.spans += 1;
            row.total_ms += ms;
        }
        for (name, row) in table.iter_mut() {
            row.per_request_ms = crate::stats::median(&self.per_request_self_ms(name));
        }
        table
    }

    /// Tab-separated span dump: id, parent, request, name, start_us, end_us.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tparent\trequest\tname\tstart_us\tend_us\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.request,
                s.name,
                s.start.as_micros(),
                s.end.as_micros()
            );
        }
        out
    }
}
