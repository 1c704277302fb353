//! Causal span tracing: per-request hierarchical spans flowing through
//! the same seqlock ring idiom as [`DecisionRecord`](crate::DecisionRecord)s.
//!
//! A *trace* groups every span of one admitted request: the admission
//! subtree (`admit` → `queue-wait`, emitted by the tenant frontend at
//! drain time) and one execution subtree per invocation the request ran
//! (`decide` → `cpu-phase` / `gpu-phase` → `fold`, emitted by the
//! profile loop). Trace ids derive from the run's root seed exactly the
//! way `RunSeed::derive_indexed("trace", ordinal)` would — same
//! splitmix64 finalizer, same golden-ratio index stride — so a replayed
//! run regenerates byte-identical ids without the log ever carrying
//! them: spans are derived state, like control events.
//!
//! Emitters build spans with *batch-relative* ids and starts (ids from 1,
//! starts from 0); [`SpanSink::push_batch`] rebases each batch onto the
//! trace's id counter and time cursor, so concurrent traces interleave
//! freely while every span of one trace lands with stable ids and
//! sequential, nest-able timing. All durations are virtual seconds from
//! the deterministic observation stream — never wall clock — which is
//! what makes a span stream a replayable artifact rather than a
//! profile of the host machine.

use crate::ring::AtomicRing;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

/// What one span measures. The taxonomy is fixed (DESIGN.md §14): the
/// admission subtree is rooted at [`Admit`](SpanKind::Admit), each
/// execution subtree at [`Decide`](SpanKind::Decide).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpanKind {
    /// A request survived admission (root of the admission subtree;
    /// payload: admission verdict code).
    #[default]
    Admit,
    /// Ticks the request waited in its tenant queue before a drain slot
    /// (payload: ticks waited).
    QueueWait,
    /// The scheduler's decide step for one invocation (root of an
    /// execution subtree; payload: chosen α).
    Decide,
    /// CPU-side execution of the invocation, profiling and split phases
    /// combined (payload: CPU items).
    CpuPhase,
    /// GPU-side execution of the invocation (payload: GPU items).
    GpuPhase,
    /// Folding the observed rates back into the kernel table
    /// (payload: chosen α).
    Fold,
    /// One fleet anti-entropy application pass on a node (payload:
    /// replica entries applied this pass; the `tenant` field carries the
    /// node id). Emitted by `easched-fleet`, DESIGN.md §15.
    Replication,
}

impl SpanKind {
    /// Stable wire code (0..=6).
    pub(crate) fn code(self) -> u8 {
        match self {
            SpanKind::Admit => 0,
            SpanKind::QueueWait => 1,
            SpanKind::Decide => 2,
            SpanKind::CpuPhase => 3,
            SpanKind::GpuPhase => 4,
            SpanKind::Fold => 5,
            SpanKind::Replication => 6,
        }
    }

    /// Decodes a span kind's stable numeric code; unknown codes map to
    /// `None`.
    pub fn from_code(code: u8) -> Option<SpanKind> {
        Some(match code {
            0 => SpanKind::Admit,
            1 => SpanKind::QueueWait,
            2 => SpanKind::Decide,
            3 => SpanKind::CpuPhase,
            4 => SpanKind::GpuPhase,
            5 => SpanKind::Fold,
            6 => SpanKind::Replication,
            _ => return None,
        })
    }

    /// The span's display name (used as the Chrome-trace event name).
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            SpanKind::Admit => "admit",
            SpanKind::QueueWait => "queue-wait",
            SpanKind::Decide => "decide",
            SpanKind::CpuPhase => "cpu-phase",
            SpanKind::GpuPhase => "gpu-phase",
            SpanKind::Fold => "fold",
            SpanKind::Replication => "replication",
        }
    }
}

/// One span of a request trace. Fixed-width like a
/// [`DecisionRecord`](crate::DecisionRecord): floats are carried as raw
/// bits through the ring and the trace file, so NaN payloads from
/// chaos-corrupted observations survive round-trips bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Span {
    /// Global sequence number, stamped by the ring at push time.
    pub seq: u64,
    /// The owning trace's id (`RunSeed`-derived; see module docs).
    pub trace: u64,
    /// Kernel the span concerns (0 for admission-subtree spans).
    pub kernel: u64,
    /// Span id, unique within the trace (assigned by the sink).
    pub id: u16,
    /// Parent span id within the trace; 0 marks a subtree root.
    pub parent: u16,
    /// What the span measures.
    pub kind: SpanKind,
    /// Owning tenant's registry index, or `u16::MAX` for a span outside
    /// any tenant frontend.
    pub tenant: u16,
    /// Start offset from the trace origin, virtual seconds.
    pub start: f64,
    /// Duration, virtual seconds (kept bit-exact even when a corrupted
    /// observation makes it NaN or negative).
    pub dur: f64,
    /// Kind-specific payload (see [`SpanKind`] variants).
    pub payload: f64,
}

impl Span {
    /// Ring/wire width in 64-bit words (excluding the sequence number,
    /// which the ring carries).
    pub(crate) const WORDS: usize = 6;

    /// Packs the span into its wire words.
    pub fn encode(&self) -> [u64; Self::WORDS] {
        let packed = u64::from(self.id)
            | u64::from(self.parent) << 16
            | u64::from(self.kind.code()) << 32
            | u64::from(self.tenant) << 40;
        [
            self.trace,
            self.kernel,
            packed,
            self.start.to_bits(),
            self.dur.to_bits(),
            self.payload.to_bits(),
        ]
    }

    /// Inverse of [`encode`](Span::encode); unknown kind codes decode as
    /// the default kind (forward compatibility over panics).
    pub fn decode(seq: u64, words: &[u64; Self::WORDS]) -> Span {
        let packed = words[2];
        Span {
            seq,
            trace: words[0],
            kernel: words[1],
            id: (packed & 0xFFFF) as u16,
            parent: (packed >> 16 & 0xFFFF) as u16,
            kind: SpanKind::from_code((packed >> 32 & 0xFF) as u8).unwrap_or_default(),
            tenant: (packed >> 40 & 0xFFFF) as u16,
            start: f64::from_bits(words[3]),
            dur: f64::from_bits(words[4]),
            payload: f64::from_bits(words[5]),
        }
    }

    /// Bit-level equality: NaN payloads with identical bit patterns
    /// compare equal (the round-trip tests' definition of identity).
    pub fn bitwise_eq(&self, other: &Span) -> bool {
        self.seq == other.seq && self.encode() == other.encode()
    }
}

/// Per-trace rebase state: the next free span id and the time cursor
/// batches append at.
#[derive(Debug, Clone, Copy)]
struct TraceCursor {
    next_id: u16,
    at: f64,
}

/// Bound on live trace cursors. Cursors are only needed while a trace is
/// still receiving batches; evicting the whole map at the bound keeps
/// memory flat on long-serving daemons and is deterministic (a replayed
/// run fills and evicts the map at the exact same points).
const MAX_TRACE_CURSORS: usize = 1 << 16;

/// The span ring: seqlock-published spans plus the deterministic
/// trace-id allocator and per-trace rebase cursors.
///
/// Like the record ring, readers never block writers: a scrape
/// snapshotting mid-storm sees only fully published spans.
#[derive(Debug)]
pub struct SpanSink {
    ring: AtomicRing<{ Span::WORDS }>,
    root: u64,
    traces: AtomicU64,
    cursors: Mutex<BTreeMap<u64, TraceCursor>>,
}

/// Default span-ring capacity (each request emits a handful of spans, so
/// this retains several thousand recent requests, ~3 MB resident).
pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 16;

impl SpanSink {
    /// A sink retaining the last `capacity` spans (rounded up to a power
    /// of two), allocating trace ids from `root` — pass
    /// `RunSeed::derive("trace")` so ids are replay-stable.
    pub fn new(capacity: usize, root: u64) -> SpanSink {
        SpanSink {
            ring: AtomicRing::new(capacity),
            root,
            traces: AtomicU64::new(0),
            cursors: Mutex::new(BTreeMap::new()),
        }
    }

    /// The trace-id root this sink allocates from.
    pub fn root(&self) -> u64 {
        self.root
    }

    /// Allocates the next trace id: `mix(root ^ ordinal · φ)` — the same
    /// construction as `RunSeed::derive_indexed("trace", ordinal)`, so a
    /// replay allocating traces in the same order regenerates the same
    /// ids (a cross-crate test in `easched-replay` pins the equality).
    pub fn next_trace(&self) -> u64 {
        let ordinal = self.traces.fetch_add(1, Ordering::Relaxed);
        mix(self.root ^ ordinal.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Trace ids allocated so far.
    pub fn traces_started(&self) -> u64 {
        self.traces.load(Ordering::Relaxed)
    }

    /// Rebases one batch of spans onto `trace` and publishes it: ids and
    /// parent links shift onto the trace's id counter, starts shift onto
    /// its time cursor, and the cursor advances past the batch. Emitters
    /// therefore use ids from 1 and starts from 0; batches of one trace
    /// must arrive in causal order (they do — a request executes
    /// sequentially).
    pub fn push_batch(&self, trace: u64, spans: &mut [Span]) {
        if spans.is_empty() {
            return;
        }
        let (base_id, origin) = {
            let mut cursors = self.cursors.lock().unwrap_or_else(PoisonError::into_inner);
            if cursors.len() >= MAX_TRACE_CURSORS && !cursors.contains_key(&trace) {
                cursors.clear();
            }
            let cursor = cursors.entry(trace).or_insert(TraceCursor {
                next_id: 1,
                at: 0.0,
            });
            let base_id = cursor.next_id;
            let origin = cursor.at;
            let extent = spans
                .iter()
                .map(|s| {
                    s.start
                        + if s.dur.is_finite() && s.dur > 0.0 {
                            s.dur
                        } else {
                            0.0
                        }
                })
                .filter(|e| e.is_finite() && *e > 0.0)
                .fold(0.0, f64::max);
            cursor.next_id = cursor.next_id.saturating_add(spans.len() as u16);
            cursor.at += extent;
            (base_id, origin)
        };
        for span in spans.iter_mut() {
            span.trace = trace;
            span.id = base_id.saturating_add(span.id.saturating_sub(1));
            if span.parent != 0 {
                span.parent = base_id.saturating_add(span.parent.saturating_sub(1));
            }
            span.start += origin;
            span.seq = self.ring.push(span.encode());
        }
    }

    /// A non-destructive snapshot of the retained spans, in publish
    /// order, each stamped with its global sequence number.
    pub fn snapshot(&self) -> Vec<Span> {
        self.ring
            .snapshot()
            .into_iter()
            .map(|(seq, words)| Span::decode(seq, &words))
            .collect()
    }
}

/// splitmix64-style finalizer — kept identical to `RunSeed`'s mix (and
/// the chaos injector's) so trace ids equal `derive_indexed` output.
/// A copy of `easched_sim::splitmix64`: this crate has no
/// dependencies, by design.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_roundtrip() {
        for code in 0..7 {
            let kind = SpanKind::from_code(code).unwrap();
            assert_eq!(kind.code(), code);
        }
        assert_eq!(SpanKind::from_code(7), None);
    }

    #[test]
    fn encoding_roundtrips_bit_for_bit() {
        let span = Span {
            seq: 9,
            trace: 0xDEAD_BEEF_1234_5678,
            kernel: 42,
            id: 3,
            parent: 1,
            kind: SpanKind::GpuPhase,
            tenant: 5,
            start: 1.25,
            dur: f64::from_bits(0x7FF8_0000_0000_1234), // a payload-carrying NaN
            payload: f64::NEG_INFINITY,
        };
        let decoded = Span::decode(span.seq, &span.encode());
        assert!(span.bitwise_eq(&decoded));
        assert!(decoded.dur.is_nan());
        assert_eq!(decoded.dur.to_bits(), span.dur.to_bits());
    }

    #[test]
    fn trace_ids_match_derive_indexed_construction() {
        let root = 0xABCD;
        let sink = SpanSink::new(16, root);
        for i in 0..4u64 {
            let expect = mix(root ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            assert_eq!(sink.next_trace(), expect);
        }
        assert_eq!(sink.traces_started(), 4);
    }

    #[test]
    fn batches_rebase_ids_and_cursor_sequentially() {
        let sink = SpanSink::new(64, 1);
        let trace = sink.next_trace();
        // Frontend batch: admit + queue-wait.
        let mut first = vec![
            Span {
                id: 1,
                kind: SpanKind::Admit,
                tenant: 2,
                ..Span::default()
            },
            Span {
                id: 2,
                parent: 1,
                kind: SpanKind::QueueWait,
                tenant: 2,
                dur: 3.0,
                ..Span::default()
            },
        ];
        sink.push_batch(trace, &mut first);
        // Execution batch: decide + cpu + fold.
        let mut second = vec![
            Span {
                id: 1,
                kind: SpanKind::Decide,
                dur: 0.5,
                ..Span::default()
            },
            Span {
                id: 2,
                parent: 1,
                kind: SpanKind::CpuPhase,
                start: 0.5,
                dur: 2.0,
                ..Span::default()
            },
            Span {
                id: 3,
                parent: 1,
                kind: SpanKind::Fold,
                start: 2.5,
                ..Span::default()
            },
        ];
        sink.push_batch(trace, &mut second);

        let snap = sink.snapshot();
        assert_eq!(snap.len(), 5);
        assert!(snap.iter().all(|s| s.trace == trace));
        let ids: Vec<(u16, u16)> = snap.iter().map(|s| (s.id, s.parent)).collect();
        assert_eq!(ids, vec![(1, 0), (2, 1), (3, 0), (4, 3), (5, 3)]);
        // The execution batch starts where the admission batch ended.
        assert_eq!(snap[2].start, 3.0);
        assert_eq!(snap[3].start, 3.5);
        assert_eq!(snap[4].start, 5.5);
        // Seq numbers are the ring's publish order.
        assert_eq!(
            snap.iter().map(|s| s.seq).collect::<Vec<_>>(),
            vec![0, 1, 2, 3, 4]
        );
    }

    #[test]
    fn corrupted_durations_do_not_poison_the_cursor() {
        let sink = SpanSink::new(16, 1);
        let trace = sink.next_trace();
        let mut batch = vec![Span {
            id: 1,
            kind: SpanKind::Decide,
            dur: f64::NAN,
            ..Span::default()
        }];
        sink.push_batch(trace, &mut batch);
        let mut next = vec![Span {
            id: 1,
            kind: SpanKind::Decide,
            dur: 1.0,
            ..Span::default()
        }];
        sink.push_batch(trace, &mut next);
        let snap = sink.snapshot();
        assert!(snap[0].dur.is_nan(), "raw bits preserved");
        assert_eq!(snap[1].start, 0.0, "NaN batch advanced the cursor by 0");
    }

    #[test]
    fn distinct_traces_do_not_share_cursors() {
        let sink = SpanSink::new(16, 1);
        let (a, b) = (sink.next_trace(), sink.next_trace());
        assert_ne!(a, b);
        let mut batch_a = vec![Span {
            id: 1,
            kind: SpanKind::Decide,
            dur: 5.0,
            ..Span::default()
        }];
        sink.push_batch(a, &mut batch_a);
        let mut batch_b = vec![Span {
            id: 1,
            kind: SpanKind::Decide,
            dur: 1.0,
            ..Span::default()
        }];
        sink.push_batch(b, &mut batch_b);
        assert_eq!(batch_b[0].start, 0.0);
        assert_eq!(batch_b[0].id, 1);
    }
}
