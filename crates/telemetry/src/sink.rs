//! The sink abstraction the scheduler reports through, and the standard
//! ring-backed implementation.
//!
//! Frontends hold an `Option<Arc<dyn TelemetrySink>>`. With `None`
//! (the default) the scheduler runs the same loop and drops its summary —
//! no timing, no record construction; the per-phase totals it keeps
//! either way are a few float adds per backend call. With a sink
//! attached, one [`DecisionRecord`] per invocation flows in on the
//! scheduling thread, so implementations must be cheap, must not wait in
//! the common case, and must never panic. A [`RingSink`] records with a
//! ring write; its metrics are folded from the ring a batch at a time,
//! and the fold's lock is taken per few dozen records, not per record.
//!
//! The sink is also the scheduler's only decision history: each
//! profiling round's α arrives as a [`ControlEvent::Decided`], which the
//! metrics and run-log sinks ignore and a [`DecisionCsvSink`] collects
//! (the one sink here that locks — it is for dumping short runs, not for
//! serving). That is the only control event: a sink is never told what
//! the scheduler, its kernel table, its store, the admission controller
//! or the SLO tracker already keep (DESIGN.md §10).

use crate::metrics::{Fold, MetricsRegistry};
use crate::record::{DecisionRecord, MetricFields};
use crate::ring::AtomicRing;
use crate::span::{Span, SpanSink};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

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

/// The standard sink: a bounded ring of the most recent records, a
/// [`MetricsRegistry`] derived from the ring (so metrics cover *every*
/// invocation even after the ring wraps), and — when enabled — a
/// [`SpanSink`] for causal request traces.
///
/// Recording is a ring write: the registry is not touched per record.
/// Records are folded into it in sequence order from a cursor, a batch at
/// a time, in three places: by the recording thread every
/// `FOLD_EVERY` (32) records while the slots are still hot, by
/// [`metrics`](RingSink::metrics) before any read, and by a writer whose
/// slot still holds a record the cursor has not passed. So every record
/// is counted exactly once, none is lapped unfolded, and the ring never
/// drops one. The fold holds a lock but never waits under it: it stops at
/// the first record whose writer has not published yet. The price is
/// that a writer can wait — only on a full ring, for the record a lap
/// behind its own, whose writer stalled between claim and publish
/// (DESIGN.md §10).
#[derive(Debug)]
pub struct RingSink {
    ring: AtomicRing<{ DecisionRecord::WORDS }>,
    metrics: MetricsRegistry,
    /// Records with a lower sequence number are in `metrics`. Stored
    /// (`Release`) only under `fold`, after the batch's words were read;
    /// a writer's `Acquire` load of it orders those reads before it
    /// overwrites the slot.
    folded: AtomicU64,
    /// Held while a batch is folded and flushed.
    fold: Mutex<()>,
    spans: Option<SpanSink>,
}

/// Default ring capacity: enough for every invocation of the benchmark
/// suites with room to spare, ~3.4 MB resident.
const DEFAULT_CAPACITY: usize = 1 << 15;

/// Records between the recording thread's folds: few enough that the
/// batch's slots are still in cache, enough that the fold's lock and its
/// one add per touched cell are paid once per few dozen records.
const FOLD_EVERY: u64 = 32;

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
            folded: AtomicU64::new(0),
            fold: Mutex::new(()),
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

    /// Records the ring dropped: always zero, since a writer never laps
    /// an unfolded record.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// The metrics registry derived from this sink's records, after
    /// folding every record published so far.
    pub fn metrics(&self) -> &MetricsRegistry {
        self.fold_published(self.fold.lock().unwrap_or_else(PoisonError::into_inner));
        &self.metrics
    }

    /// Folds the published records from the cursor on, in sequence order,
    /// and returns the new cursor. Stops at the first record not yet
    /// published, so it never waits while it holds `held`. One pass folds
    /// at most a ring's worth: no writer gets more than a lap ahead of the
    /// cursor it holds still.
    fn fold_published(&self, held: MutexGuard<'_, ()>) -> u64 {
        let mut next = self.folded.load(Ordering::Relaxed);
        let mut batch = Fold::new(&self.metrics);
        while let Some(words) = self.ring.published(next) {
            batch.add(MetricFields::read(|i| words[i].load(Ordering::Relaxed)));
            next += 1;
        }
        batch.flush(&self.metrics);
        self.folded.store(next, Ordering::Release);
        drop(held);
        next
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
        let words = record.encode();
        let seq = self.ring.claim();
        // The slot's previous record is a lap behind: it must be in the
        // registry before it is overwritten. Fold it here if no one has;
        // if its writer (or one before it) has not published yet, wait.
        if let Some(previous) = seq.checked_sub(self.ring.capacity() as u64) {
            while self.folded.load(Ordering::Acquire) <= previous {
                let held = self.fold.lock().unwrap_or_else(PoisonError::into_inner);
                if self.fold_published(held) <= previous {
                    std::thread::yield_now();
                }
            }
        }
        let written = self.ring.write(seq, words);
        debug_assert!(written, "a writer never laps an unfolded record");
        if (seq + 1).is_multiple_of(FOLD_EVERY) {
            if let Ok(held) = self.fold.try_lock() {
                self.fold_published(held);
            }
        }
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
    use crate::record::{InvocationPath, NANOS_MAX};
    use proptest::prelude::*;

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

    /// Times as chaos leaves them: NaN, ±inf, negative, zero of both
    /// signs, ordinary, and any bit pattern at all.
    fn arb_f64() -> impl Strategy<Value = f64> {
        prop_oneof![
            prop_oneof![Just(f64::NAN), Just(f64::INFINITY), Just(f64::NEG_INFINITY)],
            prop_oneof![Just(0.0), Just(-0.0), Just(f64::MIN_POSITIVE)],
            -1.0..0.0f64,
            0.0..2.0f64,
            any::<u64>().prop_map(f64::from_bits),
        ]
    }

    fn arb_record() -> impl Strategy<Value = DecisionRecord> {
        (
            (0u8..8).prop_map(|c| InvocationPath::from_code(c).expect("codes 0..8 are paths")),
            prop_oneof![0u8..3, any::<u8>()],
            prop_oneof![
                (0u32..=10).prop_map(|i| f64::from(i) / 10.0),
                -1.0..2.0f64,
                arb_f64()
            ],
            (arb_f64(), arb_f64()),
            prop_oneof![0u64..5_000, (1u64 << 24) - 2..(1 << 24) + 2, any::<u64>()],
        )
            .prop_map(
                |(path, breaker, alpha, (profile_time, split_time), decide_nanos)| DecisionRecord {
                    path,
                    breaker,
                    alpha,
                    profile_time,
                    split_time,
                    decide_nanos,
                    ..DecisionRecord::default()
                },
            )
    }

    proptest! {
        /// The fold is the per-record update, batched: whatever the ring's
        /// size (writers folding a lap behind) and wherever a read cuts a
        /// batch, the page equals the oracle's fed the same records, up to
        /// the ring's 24-bit `decide_nanos`.
        #[test]
        fn folded_metrics_equal_the_per_record_oracle(
            records in prop::collection::vec(arb_record(), 0..160),
            capacity in 1usize..80,
            reads in prop::collection::vec(0usize..6, 160),
        ) {
            let sink = RingSink::with_capacity(capacity);
            let oracle = MetricsRegistry::default();
            for (r, &read) in records.iter().zip(&reads) {
                sink.record(r);
                oracle.update(&DecisionRecord {
                    decide_nanos: r.decide_nanos.min(NANOS_MAX),
                    ..*r
                });
                if read == 0 {
                    prop_assert_eq!(sink.metrics().expose(), oracle.expose());
                }
            }
            prop_assert_eq!(sink.metrics().expose(), oracle.expose());
            prop_assert_eq!(sink.dropped(), 0);
        }
    }

    #[test]
    fn decide_nanos_saturate_at_the_ring_word() {
        let sink = RingSink::with_capacity(8);
        for decide_nanos in [NANOS_MAX - 1, NANOS_MAX, NANOS_MAX + 1, 1 << 30, u64::MAX] {
            sink.record(&DecisionRecord {
                decide_nanos,
                ..DecisionRecord::default()
            });
        }
        let h = &sink.metrics().decide_latency_ns;
        assert_eq!(NANOS_MAX, (1 << 24) - 1, "≈16.8 ms");
        // Everything at or past 2²⁴ − 1 lands on it: bucket 24, the sum
        // of five saturated-or-below values.
        assert_eq!(h.counts()[24], 5);
        assert_eq!(h.sum(), NANOS_MAX - 1 + 4 * NANOS_MAX);
    }

    #[test]
    fn a_read_folds_what_the_recording_thread_has_not() {
        let sink = RingSink::with_capacity(1024);
        for i in 0..FOLD_EVERY - 1 {
            sink.record(&DecisionRecord {
                breaker: (i % 2) as u8,
                ..DecisionRecord::default()
            });
        }
        assert_eq!(sink.folded.load(Ordering::Relaxed), 0, "no batch yet");
        assert_eq!(sink.metrics().invocations.get(), FOLD_EVERY - 1);
        assert_eq!(sink.metrics().breaker_transitions.get(), FOLD_EVERY - 2);
        sink.record(&DecisionRecord::default());
        sink.record(&DecisionRecord::default());
        assert_eq!(
            sink.folded.load(Ordering::Relaxed),
            FOLD_EVERY,
            "a batch at 32"
        );
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
