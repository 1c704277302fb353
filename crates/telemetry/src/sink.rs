//! The sink abstraction the scheduler reports through, and the standard
//! lock-free ring-backed implementation.
//!
//! Frontends hold an `Option<Arc<dyn TelemetrySink>>`. With `None`
//! (the default) the scheduler runs the same loop and drops its summary —
//! no timing, no record construction; the per-phase totals it keeps
//! either way are a few float adds per backend call. With a sink
//! attached, one [`DecisionRecord`] per invocation flows in on the
//! scheduling thread, so implementations must be cheap, lock-free, and
//! must never panic.
//!
//! The sink is also the scheduler's only decision history: each
//! profiling round's α arrives as a [`ControlEvent::Decided`], which the
//! metrics and run-log sinks ignore and a [`DecisionCsvSink`] collects
//! (the one sink here that locks — it is for dumping short runs, not for
//! serving). That is the only control event: a sink is never told what
//! the scheduler, its kernel table, its store, the admission controller
//! or the SLO tracker already keep (DESIGN.md §10).

use crate::metrics::MetricsRegistry;
use crate::record::DecisionRecord;
use crate::ring::AtomicRing;
use crate::span::{Span, SpanSink};
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

/// An out-of-band event from the scheduling loop: each profiling round's
/// α decision (DESIGN.md §10). Unlike [`DecisionRecord`]s these are not
/// one-per-invocation, and they never enter the record ring. What the
/// loop's owners keep themselves — health counters, drift EWMAs in the
/// kernel table, SLO breaches in the tracker — is not an event: `/metrics`
/// reads it from those owners at scrape time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ControlEvent {
    /// A profiling round decided an offload ratio (Fig 7 steps 15–20):
    /// the scheduler's only per-round history. It keeps none itself, so
    /// a run that wants the rounds attaches a [`DecisionCsvSink`].
    Decided {
        /// The kernel the decision was made for.
        kernel: u64,
        /// Measured combined-mode CPU throughput, items/s.
        r_c: f64,
        /// Measured combined-mode GPU throughput, items/s.
        r_g: f64,
        /// Index of the workload class the observation mapped to.
        class: u8,
        /// Iterations remaining when the decision was made.
        n_remaining: u64,
        /// The chosen offload ratio.
        alpha: f64,
    },
}

/// Receives one structured event per kernel invocation.
///
/// Implementations must be thread-safe: the shared frontend calls
/// [`record`](TelemetrySink::record) from every stream concurrently.
pub trait TelemetrySink: Send + Sync + fmt::Debug {
    /// Called once per invocation, after the remainder has executed.
    fn record(&self, record: &DecisionRecord);

    /// Called when the loop decides a round's α (DESIGN.md §10).
    /// Default is a no-op so sinks that only implement `record` keep
    /// compiling; like [`record`](TelemetrySink::record), implementations
    /// must be cheap and must never panic.
    fn control(&self, event: &ControlEvent) {
        let _ = event;
    }

    /// Whether this sink wants causal spans (DESIGN.md §14). Emitters
    /// gate *all* span construction on this, so a sink that answers
    /// `false` — the default — pays nothing.
    fn wants_spans(&self) -> bool {
        false
    }

    /// Allocates the next deterministic trace id (0 when the sink does
    /// not trace).
    fn next_trace(&self) -> u64 {
        0
    }

    /// Publishes one batch of spans for `trace`. Ids and starts are
    /// batch-relative (see [`SpanSink::push_batch`]); the spans are
    /// rebased in place so the caller observes the published values.
    /// Default is a no-op.
    fn span_batch(&self, trace: u64, spans: &mut [Span]) {
        let _ = (trace, spans);
    }

    /// The sink's current replay-log offset (events recorded so far), or
    /// 0 when the sink keeps no log. SLO exemplars are read from here at
    /// observation time.
    fn offset(&self) -> u64 {
        0
    }
}

/// A sink that collects every [`ControlEvent::Decided`] as one CSV row —
/// what `easched run --decisions` and `figures
/// trace-eas` attach to dump the per-round α history of a short run. It
/// grows with the run and takes a lock per round, which is why the
/// scheduler does not keep this history itself.
#[derive(Debug, Default)]
pub struct DecisionCsvSink {
    rows: Mutex<String>,
}

impl DecisionCsvSink {
    /// The decisions collected so far, under a header line, in arrival
    /// order (one stream's rounds stay in that stream's order).
    pub fn csv(&self) -> String {
        let rows = self.rows.lock().unwrap_or_else(PoisonError::into_inner);
        format!("kernel,r_c,r_g,class,n_remaining,alpha\n{rows}")
    }
}

impl TelemetrySink for DecisionCsvSink {
    fn record(&self, _record: &DecisionRecord) {}

    fn control(&self, event: &ControlEvent) {
        let ControlEvent::Decided {
            kernel,
            r_c,
            r_g,
            class,
            n_remaining,
            alpha,
        } = *event;
        let row = format!("{kernel},{r_c:.3},{r_g:.3},{class},{n_remaining},{alpha:.3}\n");
        // A sink must not panic, and the only write is a whole-row
        // append, so a poisoned lock still guards well-formed rows.
        self.rows
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_str(&row);
    }
}

/// The standard sink: a bounded lock-free ring of the most recent
/// records, plus a [`MetricsRegistry`] folded up front (so metrics cover
/// *every* invocation even after the ring wraps), plus — when enabled —
/// a [`SpanSink`] for causal request traces.
#[derive(Debug)]
pub struct RingSink {
    ring: AtomicRing<{ DecisionRecord::WORDS }>,
    metrics: MetricsRegistry,
    spans: Option<SpanSink>,
}

/// Default ring capacity: enough for every invocation of the benchmark
/// suites with room to spare, ~3.4 MB resident.
const DEFAULT_CAPACITY: usize = 1 << 15;

impl Default for RingSink {
    fn default() -> RingSink {
        RingSink::with_capacity(DEFAULT_CAPACITY)
    }
}

impl RingSink {
    /// A sink retaining the last `capacity` records (rounded up to a
    /// power of two).
    pub fn with_capacity(capacity: usize) -> RingSink {
        RingSink {
            ring: AtomicRing::new(capacity),
            metrics: MetricsRegistry::default(),
            spans: None,
        }
    }

    /// Enables causal span tracing (builder form): retains the last
    /// `capacity` spans, allocating trace ids from `trace_root` — pass
    /// `RunSeed::derive("trace")` for replay-stable ids.
    pub fn with_span_tracing(mut self, capacity: usize, trace_root: u64) -> RingSink {
        self.spans = Some(SpanSink::new(capacity, trace_root));
        self
    }

    /// The span ring, when tracing is enabled.
    pub fn span_sink(&self) -> Option<&SpanSink> {
        self.spans.as_ref()
    }

    /// Snapshot of the retained spans (empty when tracing is disabled).
    pub fn span_snapshot(&self) -> Vec<Span> {
        self.spans
            .as_ref()
            .map(SpanSink::snapshot)
            .unwrap_or_default()
    }

    /// Records the ring can hold.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Records ever recorded (including any the ring has since
    /// overwritten).
    pub fn recorded(&self) -> u64 {
        self.ring.pushed()
    }

    /// Records dropped under same-slot wrap contention (zero unless
    /// writers lap each other; see [`AtomicRing::dropped`]).
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// The metrics registry fed by this sink.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// A non-destructive snapshot of the retained records, in sequence
    /// order, each stamped with its global sequence number.
    pub fn snapshot(&self) -> Vec<DecisionRecord> {
        self.ring
            .snapshot()
            .into_iter()
            .map(|(seq, words)| DecisionRecord::decode(seq, &words))
            .collect()
    }
}

impl TelemetrySink for RingSink {
    fn record(&self, record: &DecisionRecord) {
        self.metrics.update(record);
        self.ring.push(record.encode());
    }

    fn wants_spans(&self) -> bool {
        self.spans.is_some()
    }

    fn next_trace(&self) -> u64 {
        self.spans.as_ref().map(SpanSink::next_trace).unwrap_or(0)
    }

    fn span_batch(&self, trace: u64, spans: &mut [Span]) {
        if let Some(sink) = &self.spans {
            sink.push_batch(trace, spans);
        }
    }
}

/// A sink that tees every event to several children — the serve CLI uses
/// it to drive a [`Recorder`](../easched-replay) (run log + exemplar
/// offsets) and a [`RingSink`] (metrics + spans) from one scheduler.
///
/// Span allocation must stay deterministic, so exactly one child — the
/// first that [`wants_spans`](TelemetrySink::wants_spans) — owns trace
/// ids and span batches; [`offset`](TelemetrySink::offset) likewise
/// reports the first child with a log.
#[derive(Debug)]
pub struct FanoutSink {
    children: Vec<Arc<dyn TelemetrySink>>,
}

impl FanoutSink {
    /// A sink fanning out to `children`, in order.
    pub fn new(children: Vec<Arc<dyn TelemetrySink>>) -> FanoutSink {
        FanoutSink { children }
    }
}

impl TelemetrySink for FanoutSink {
    fn record(&self, record: &DecisionRecord) {
        for child in &self.children {
            child.record(record);
        }
    }

    fn control(&self, event: &ControlEvent) {
        for child in &self.children {
            child.control(event);
        }
    }

    fn wants_spans(&self) -> bool {
        self.children.iter().any(|c| c.wants_spans())
    }

    fn next_trace(&self) -> u64 {
        self.children
            .iter()
            .find(|c| c.wants_spans())
            .map(|c| c.next_trace())
            .unwrap_or(0)
    }

    fn span_batch(&self, trace: u64, spans: &mut [Span]) {
        if let Some(owner) = self.children.iter().find(|c| c.wants_spans()) {
            owner.span_batch(trace, spans);
        }
    }

    fn offset(&self) -> u64 {
        self.children
            .iter()
            .map(|c| c.offset())
            .find(|&o| o > 0)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::InvocationPath;

    #[test]
    fn sink_roundtrips_records_with_sequence_numbers() {
        let sink = RingSink::with_capacity(8);
        for i in 0..3u64 {
            sink.record(&DecisionRecord {
                kernel: 100 + i,
                path: InvocationPath::Profiled,
                alpha: 0.1 * i as f64,
                items: 1000 * (i + 1),
                ..DecisionRecord::default()
            });
        }
        let snap = sink.snapshot();
        assert_eq!(snap.len(), 3);
        for (i, r) in snap.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
            assert_eq!(r.kernel, 100 + i as u64);
            assert_eq!(r.items, 1000 * (i as u64 + 1));
        }
        assert_eq!(sink.recorded(), 3);
        assert_eq!(sink.dropped(), 0);
        assert_eq!(sink.metrics().invocations.get(), 3);
    }

    #[test]
    fn span_tracing_is_opt_in_and_flows_through_the_sink() {
        use crate::span::SpanKind;
        let plain = RingSink::with_capacity(8);
        assert!(!plain.wants_spans());
        assert_eq!(plain.next_trace(), 0);
        assert!(plain.span_snapshot().is_empty());

        let traced = RingSink::with_capacity(8).with_span_tracing(16, 99);
        assert!(traced.wants_spans());
        let trace = traced.next_trace();
        assert_ne!(trace, 0);
        let mut batch = vec![Span {
            id: 1,
            kind: SpanKind::Decide,
            dur: 0.25,
            ..Span::default()
        }];
        traced.span_batch(trace, &mut batch);
        let snap = traced.span_snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].trace, trace);
    }

    #[test]
    fn fanout_tees_records_and_gives_spans_one_owner() {
        let a = Arc::new(RingSink::with_capacity(8));
        let b = Arc::new(RingSink::with_capacity(8).with_span_tracing(16, 7));
        let fan = FanoutSink::new(vec![
            Arc::clone(&a) as Arc<dyn TelemetrySink>,
            Arc::clone(&b) as Arc<dyn TelemetrySink>,
        ]);
        fan.record(&DecisionRecord::default());
        assert_eq!(a.recorded(), 1);
        assert_eq!(b.recorded(), 1);
        assert!(fan.wants_spans());
        let trace = fan.next_trace();
        let mut batch = vec![Span::default()];
        fan.span_batch(trace, &mut batch);
        assert_eq!(b.span_snapshot().len(), 1, "span owner is the traced child");
        assert!(a.span_snapshot().is_empty());
        assert_eq!(fan.offset(), 0, "no log-keeping child attached");
    }

    #[test]
    fn decided_reaches_the_collector_and_moves_no_metric() {
        let rounds = Arc::new(DecisionCsvSink::default());
        let ring = Arc::new(RingSink::with_capacity(8));
        let fan = FanoutSink::new(vec![rounds.clone() as Arc<dyn TelemetrySink>, ring.clone()]);
        let page = ring.metrics().expose();
        fan.control(&ControlEvent::Decided {
            kernel: 7,
            r_c: 1.0e6,
            r_g: 2.5e6,
            class: 3,
            n_remaining: 97_952,
            alpha: 0.7,
        });
        assert_eq!(
            rounds.csv(),
            "kernel,r_c,r_g,class,n_remaining,alpha\n\
             7,1000000.000,2500000.000,3,97952,0.700\n"
        );
        assert_eq!(ring.metrics().expose(), page, "/metrics did not move");
        assert!(ring.snapshot().is_empty(), "events never enter the ring");
    }

    #[test]
    fn metrics_survive_ring_wrap() {
        let sink = RingSink::with_capacity(4);
        for _ in 0..100 {
            sink.record(&DecisionRecord::default());
        }
        assert_eq!(sink.snapshot().len(), 4, "ring retains only the newest");
        assert_eq!(
            sink.metrics().invocations.get(),
            100,
            "metrics cover every invocation regardless of wrap"
        );
    }
}
