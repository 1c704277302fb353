//! The benchmark's own span tracer. Spans are opened around calls into
//! the program's layers by the wrappers in `seams.rs` and by the
//! workloads themselves — the program is measured from outside.
//!
//! One generator thread drives every workload, so the tracer is a
//! thread-local: the wrappers the program calls back into (`Backend`,
//! `TelemetrySink`, `Vfs`) reach it without any shared state. With no
//! tracer installed nothing here runs; untraced passes do not even
//! install the wrappers.

use crate::json::Json;
use std::cell::RefCell;
use std::time::Instant;

/// Full spans are kept for this many requests; later requests only feed
/// the per-layer aggregates.
pub const FULL_SPAN_REQUESTS: u64 = 4_096;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one; `None` for a request root.
    pub parent: Option<usize>,
    pub request: u64,
}

/// Per-layer aggregate over every span, kept or not.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerStats {
    pub layer: &'static str,
    pub count: u64,
    /// Sum of span durations.
    pub busy_ns: u64,
    /// Busy time minus the part covered by child spans.
    pub self_ns: u64,
    /// `hist[k]` counts spans whose duration has bit length `k`
    /// (`2^(k-1) <= ns < 2^k`; zero-length spans land in bucket 0).
    pub hist: [u64; 40],
}

struct Open {
    layer: &'static str,
    start_ns: u64,
    child_ns: u64,
    index: Option<usize>,
}

pub struct Tracer {
    epoch: Instant,
    stack: Vec<Open>,
    spans: Vec<Span>,
    layers: Vec<LayerStats>,
    request: u64,
}

/// What a traced pass leaves behind.
#[derive(Debug, Clone)]
pub struct TraceReport {
    pub spans: Vec<Span>,
    pub layers: Vec<LayerStats>,
    pub requests: u64,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            stack: Vec::with_capacity(8),
            spans: Vec::new(),
            layers: Vec::new(),
            request: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, layer: &'static str) {
        let start_ns = self.now_ns();
        if self.stack.is_empty() {
            self.request += 1;
        }
        let index = (self.request <= FULL_SPAN_REQUESTS).then(|| {
            self.spans.push(Span {
                layer,
                start_ns,
                end_ns: start_ns,
                parent: self.stack.last().and_then(|o| o.index),
                request: self.request,
            });
            self.spans.len() - 1
        });
        self.stack.push(Open {
            layer,
            start_ns,
            child_ns: 0,
            index,
        });
    }

    fn exit(&mut self) {
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("exit without enter");
        self.close(open, end_ns);
    }

    fn close(&mut self, open: Open, end_ns: u64) {
        let dur = end_ns.saturating_sub(open.start_ns);
        if let Some(i) = open.index {
            self.spans[i].end_ns = end_ns;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let at = match self.layers.iter().position(|l| l.layer == open.layer) {
            Some(at) => at,
            None => {
                self.layers.push(LayerStats {
                    layer: open.layer,
                    count: 0,
                    busy_ns: 0,
                    self_ns: 0,
                    hist: [0; 40],
                });
                self.layers.len() - 1
            }
        };
        let stats = &mut self.layers[at];
        stats.count += 1;
        stats.busy_ns += dur;
        stats.self_ns += self_time(dur, open.child_ns);
        stats.hist[log2_bucket(dur)] += 1;
    }

    fn finish(self) -> TraceReport {
        assert!(self.stack.is_empty(), "trace ended inside a span");
        TraceReport {
            spans: self.spans,
            layers: self.layers,
            requests: self.request,
        }
    }
}

/// A span's self time: its duration minus what its children cover.
/// Children are sequential and nested inside the parent, so they can
/// never cover more than the parent — clock granularity can still make
/// the sum a few ns larger, hence the saturation.
pub fn self_time(dur_ns: u64, children_ns: u64) -> u64 {
    dur_ns.saturating_sub(children_ns)
}

pub fn log2_bucket(ns: u64) -> usize {
    ((u64::BITS - ns.leading_zeros()) as usize).min(39)
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Installs a fresh tracer on this thread.
pub fn start() {
    TRACER.with(|t| *t.borrow_mut() = Some(Tracer::new()));
}

/// Removes this thread's tracer and returns what it collected.
pub fn finish() -> TraceReport {
    TRACER
        .with(|t| t.borrow_mut().take())
        .expect("trace::finish without trace::start")
        .finish()
}

/// Runs `f` inside a span of `layer`. The outermost span on the stack is
/// a request root: its spans share a request id.
pub fn span<R>(layer: &'static str, f: impl FnOnce() -> R) -> R {
    TRACER.with(|t| {
        if let Some(tracer) = t.borrow_mut().as_mut() {
            tracer.enter(layer);
        }
    });
    let out = f();
    TRACER.with(|t| {
        if let Some(tracer) = t.borrow_mut().as_mut() {
            tracer.exit();
        }
    });
    out
}

impl TraceReport {
    pub fn layer(&self, name: &str) -> Option<&LayerStats> {
        self.layers.iter().find(|l| l.layer == name)
    }

    /// Sum of every layer's self time — equal to the time covered by
    /// request roots, since each root's duration is exactly partitioned
    /// into the self times beneath it.
    pub fn covered_ns(&self) -> u64 {
        self.layers.iter().map(|l| l.self_ns).sum()
    }

    pub fn to_json(&self, workload: &str, wall_ns: u64) -> Json {
        let layers = self.layers.iter().map(|l| {
            let last = l.hist.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
            Json::obj([
                ("layer", Json::str(l.layer)),
                ("count", Json::Num(l.count as f64)),
                ("busy_ns", Json::Num(l.busy_ns as f64)),
                ("self_ns", Json::Num(l.self_ns as f64)),
                (
                    "log2_hist",
                    Json::Arr(
                        l.hist[..last]
                            .iter()
                            .map(|&c| Json::Num(c as f64))
                            .collect(),
                    ),
                ),
            ])
        });
        let spans = self.spans.iter().map(|s| {
            Json::Arr(vec![
                Json::str(s.layer),
                Json::Num(s.start_ns as f64),
                Json::Num(s.end_ns as f64),
                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                Json::Num(s.request as f64),
            ])
        });
        Json::obj([
            ("workload", Json::str(workload)),
            ("wall_ns", Json::Num(wall_ns as f64)),
            ("requests", Json::Num(self.requests as f64)),
            ("layers", Json::Arr(layers.collect())),
            (
                "span_fields",
                Json::Arr(
                    ["layer", "start_ns", "end_ns", "parent", "request"]
                        .map(Json::str)
                        .into(),
                ),
            ),
            ("spans", Json::Arr(spans.collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open(layer: &'static str, start_ns: u64) -> Open {
        Open {
            layer,
            start_ns,
            child_ns: 0,
            index: None,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        assert_eq!(self_time(1_000, 0), 1_000);
        assert_eq!(self_time(1_000, 400), 600);
        assert_eq!(self_time(1_000, 1_003), 0, "clock jitter saturates");
    }

    #[test]
    fn nested_spans_partition_the_root() {
        // root 0..1000 { a 100..400 { b 150..250 }, a 500..700 }
        let mut t = Tracer::new();
        t.request = 1;
        t.stack.push(open("root", 0));
        t.stack.push(open("a", 100));
        let b = open("b", 150);
        t.close(b, 250);
        let a = t.stack.pop().unwrap();
        t.close(a, 400);
        let a2 = open("a", 500);
        t.close(a2, 700);
        let root = t.stack.pop().unwrap();
        t.close(root, 1_000);
        let report = t.finish();

        let get = |n| report.layer(n).unwrap();
        assert_eq!(
            (get("b").count, get("b").busy_ns, get("b").self_ns),
            (1, 100, 100)
        );
        assert_eq!(
            (get("a").count, get("a").busy_ns, get("a").self_ns),
            (2, 500, 400)
        );
        assert_eq!((get("root").busy_ns, get("root").self_ns), (1_000, 500));
        assert_eq!(report.covered_ns(), 1_000, "self times sum to the root");
    }

    #[test]
    fn log2_buckets() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 2);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(1_024), 11);
        assert_eq!(log2_bucket(u64::MAX), 39);
    }

    #[test]
    fn live_spans_carry_parent_and_request() {
        start();
        for _ in 0..2 {
            span("request", || {
                span("inner", || std::hint::black_box(1 + 1));
            });
        }
        let report = finish();
        assert_eq!(report.requests, 2);
        assert_eq!(report.spans.len(), 4);
        assert_eq!(report.spans[0].parent, None);
        assert_eq!(report.spans[1].parent, Some(0));
        assert_eq!(report.spans[3].parent, Some(2));
        assert_eq!(report.spans[3].request, 2);
        assert!(report.spans[1].start_ns >= report.spans[0].start_ns);
        assert!(report.spans[1].end_ns <= report.spans[0].end_ns);
        let doc = Json::parse(&report.to_json("t", 1).render()).unwrap();
        assert_eq!(doc.get("spans").unwrap().as_arr().unwrap().len(), 4);
    }

    #[test]
    fn span_without_a_tracer_just_runs() {
        assert_eq!(span("x", || 41 + 1), 42);
    }

    #[test]
    fn full_spans_stop_after_the_first_requests() {
        start();
        for _ in 0..FULL_SPAN_REQUESTS + 10 {
            span("r", || ());
        }
        let report = finish();
        assert_eq!(report.spans.len() as u64, FULL_SPAN_REQUESTS);
        assert_eq!(report.layer("r").unwrap().count, FULL_SPAN_REQUESTS + 10);
    }
}
