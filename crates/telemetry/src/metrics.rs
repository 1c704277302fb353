//! Metric primitives (counters, gauges, log-scale histograms) and the
//! registry that derives scheduler metrics from
//! [`DecisionRecord`](crate::DecisionRecord)s.
//!
//! The registry is derived state of a [`RingSink`]'s ring: the sink folds
//! its records in sequence order, a batch at a time, into a plain-integer
//! `Fold` that reads six fields of each record's ring words and rounds
//! in integer arithmetic (`round_u64`), then adds the batch to the
//! registry's relaxed atomics, one operation per touched cell. Nothing
//! here locks or allocates on the recording path. The fold reads the
//! ring's 24-bit `decide_nanos`, so `easched_decide_latency_nanoseconds`
//! saturates at 2²⁴ − 1 ns (≈16.8 ms) where the record held more; that is
//! the registry's one difference from folding the records themselves
//! (DESIGN.md §10).
//!
//! [`MetricsRegistry::expose`] renders the registry's fragment of the
//! Prometheus `/metrics` page; what the scheduler, its kernel table, its
//! store, the admission controller and the SLO tracker already keep is
//! rendered from those owners at scrape time and appended beside it
//! (DESIGN.md §10), never re-counted here.
//!
//! [`RingSink`]: crate::RingSink

use crate::counters::{expose_rows, push_meta};
#[cfg(test)]
use crate::record::DecisionRecord;
use crate::record::{InvocationPath, MetricFields};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A clone starts from the value read at the moment of cloning.
impl Clone for Counter {
    fn clone(&self) -> Counter {
        Counter(AtomicU64::new(self.get()))
    }
}

/// A last-value-wins gauge.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the gauge, returning the previous value.
    pub fn swap(&self, v: u64) -> u64 {
        self.0.swap(v, Ordering::Relaxed)
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A clone starts from the value read at the moment of cloning.
impl Clone for Gauge {
    fn clone(&self) -> Gauge {
        Gauge(AtomicU64::new(self.get()))
    }
}

/// Histogram buckets: one per bit length, so bucket `i` (for `i ≥ 1`)
/// holds values whose binary representation is `i` bits wide — i.e. the
/// range `[2^(i-1), 2^i)` — and bucket 0 holds exactly the value 0.
pub(crate) const HISTOGRAM_BUCKETS: usize = 65;

/// A log₂-scale histogram over `u64` values.
///
/// Bucketing by bit length makes `record` two instructions of math plus
/// one relaxed `fetch_add`, while still resolving the distribution to a
/// factor of two everywhere from 1 to `u64::MAX`.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> LogHistogram {
        LogHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

impl LogHistogram {
    /// The bucket index a value lands in: 0 for 0, otherwise the value's
    /// bit length (1..=64).
    pub(crate) fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// The largest value bucket `i` can hold (the inclusive upper bound
    /// used as the Prometheus `le` label).
    pub(crate) fn bucket_bound(i: usize) -> u64 {
        if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one observation (the per-record oracle's path; the ring
    /// fold adds whole batches).
    #[cfg(test)]
    pub(crate) fn record(&self, v: u64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Per-bucket observation counts.
    pub(crate) fn counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.counts().iter().sum()
    }

    /// Sum of all observed values (wrapping beyond `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean observed value, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }
}

/// Number of α distribution buckets: the paper's grid {0, 0.1, …, 1}.
pub const ALPHA_BUCKETS: usize = 11;

crate::counter_table! {
    /// Scheduler metrics derived from the decision stream: invocation-path
    /// counters, breaker activity, decision latency, profiling overhead
    /// and the α distribution. A [`RingSink`](crate::RingSink) folds its
    /// records in, in sequence order, and hands the registry out through
    /// [`metrics`](crate::RingSink::metrics) only after folding; rendered
    /// with [`expose`](MetricsRegistry::expose), which opens with the rows
    /// below in declaration order.
    #[derive(Debug, Default)]
    pub bank MetricsRegistry(pub) {
        /// Wall-clock vet+decide latency per invocation, nanoseconds.
        pub decide_latency_ns: LogHistogram,
        /// Profiling overhead per profiled invocation, basis points of the
        /// invocation's realized time (profile / total × 10⁴).
        pub overhead_bp: LogHistogram,
        /// Executed α, bucketed on the paper's 0.1 grid.
        pub alpha: [Counter; ALPHA_BUCKETS],
        /// Build identity rendered as `easched_build_info` (version, commit);
        /// empty strings fall back to this crate's version / "unknown".
        build_info: RwLock<(String, String)>,
        /// Virtual-clock timestamp the registry was armed at, `f64` bits.
        started_s: AtomicU64,
        /// Latest virtual-clock timestamp observed, `f64` bits.
        now_s: AtomicU64,
    }
    /// Invocations seen, in total.
    invocations: counter = "easched_invocations_total", "Kernel invocations scheduled",
    /// Invocations that reused a learned α from the table.
    table_hits: counter = "easched_table_hits_total", "Invocations that reused a learned alpha",
    /// Invocations too small to fill the GPU (ran CPU-only).
    small_n: counter = "easched_small_n_total", "Invocations too small for the GPU (CPU-only)",
    /// First-seen invocations that profiled online.
    profiled: counter = "easched_profiled_total", "First-seen invocations that profiled online",
    /// Known kernels that re-profiled (periodic or tainted).
    reprofiled: counter = "easched_reprofiled_total", "Known kernels that re-profiled",
    /// Recovery-probe invocations (half-open breaker).
    probes: counter = "easched_probe_total", "Recovery-probe invocations",
    /// Breaker state changes observed between consecutive records.
    breaker_transitions: counter = "easched_breaker_transitions_total",
        "Circuit-breaker state changes",
    /// Realized profiling-phase time, microseconds, summed.
    profile_time_us: counter = "easched_profile_time_microseconds_total",
        "Realized profiling-phase time",
    /// Realized total invocation time, microseconds, summed.
    invocation_time_us: counter = "easched_invocation_time_microseconds_total",
        "Realized total invocation time",
    /// Most recent breaker state (0 closed, 1 open, 2 half-open).
    breaker_state: gauge = "easched_breaker_state", "Breaker state (0 closed, 1 open, 2 half-open)",
}

/// Escapes a string for use as a Prometheus label value: backslashes,
/// double quotes, and newlines become `\\`, `\"`, and `\n` per the text
/// exposition format, so a hostile tenant name cannot break the page.
pub(crate) fn escape_label_value(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len());
    for c in raw.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            // Carriage returns have no escape in the format; drop them
            // rather than emit a bare control character.
            '\r' => {}
            c => out.push(c),
        }
    }
    out
}

impl MetricsRegistry {
    /// Folds one record into every derived metric, one atomic operation
    /// per cell and libm rounding: the per-record fold a [`Fold`] batch
    /// must equal, kept as its test oracle.
    #[cfg(test)]
    pub(crate) fn update(&self, r: &DecisionRecord) {
        self.invocations.inc();
        match r.path {
            InvocationPath::TableHit => self.table_hits.inc(),
            InvocationPath::SmallN => self.small_n.inc(),
            InvocationPath::Profiled => self.profiled.inc(),
            InvocationPath::Reprofiled => self.reprofiled.inc(),
            InvocationPath::Probe => self.probes.inc(),
            // The scheduler's health counters own these three, and the
            // profiling rounds accepted and rejected (DESIGN.md §10).
            InvocationPath::Degraded | InvocationPath::Quarantined | InvocationPath::Throttled => {}
        }
        let previous = self.breaker_state.swap(u64::from(r.breaker));
        if previous != u64::from(r.breaker) {
            self.breaker_transitions.inc();
        }
        self.profile_time_us.add(seconds_to_us(r.profile_time));
        self.invocation_time_us.add(seconds_to_us(r.total_time()));
        self.decide_latency_ns.record(r.decide_nanos);
        let total = r.total_time();
        if r.path.has_prediction() && total > 0.0 {
            self.overhead_bp
                .record((r.profile_time / total * 1e4).round() as u64);
        }
        let bucket = (r.alpha.clamp(0.0, 1.0) * 10.0).round() as usize;
        self.alpha[bucket.min(ALPHA_BUCKETS - 1)].inc();
    }

    /// Sets the version/commit pair rendered in `easched_build_info`.
    pub fn set_build_info(&self, version: &str, commit: &str) {
        *self
            .build_info
            .write()
            .unwrap_or_else(PoisonError::into_inner) = (version.to_string(), commit.to_string());
    }

    /// Arms the uptime clock: records `now` (virtual seconds, from the
    /// caller's Clock seam) as the process start.
    pub fn mark_started(&self, now: f64) {
        self.started_s.store(now.to_bits(), Ordering::Relaxed);
        self.observe_now(now);
    }

    /// Advances the uptime clock to `now` (monotonic: earlier samples are
    /// ignored, so out-of-order observers cannot roll uptime back).
    pub fn observe_now(&self, now: f64) {
        let mut seen = f64::from_bits(self.now_s.load(Ordering::Relaxed));
        while now > seen {
            match self.now_s.compare_exchange_weak(
                seen.to_bits(),
                now.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(bits) => seen = f64::from_bits(bits),
            }
        }
    }

    /// Seconds between [`mark_started`](MetricsRegistry::mark_started)
    /// and the latest [`observe_now`](MetricsRegistry::observe_now),
    /// clamped non-negative.
    pub(crate) fn uptime_seconds(&self) -> f64 {
        let started = f64::from_bits(self.started_s.load(Ordering::Relaxed));
        let now = f64::from_bits(self.now_s.load(Ordering::Relaxed));
        (now - started).max(0.0)
    }

    /// Fraction of invocations served straight from the kernel table.
    pub fn hit_rate(&self) -> f64 {
        ratio(self.table_hits.get(), self.invocations.get())
    }

    /// Fraction of realized run time spent profiling.
    pub fn overhead_fraction(&self) -> f64 {
        ratio(self.profile_time_us.get(), self.invocation_time_us.get())
    }

    /// Renders the registry as a Prometheus-style text exposition page
    /// (`# HELP`/`# TYPE` preambles, `easched_`-prefixed series): the
    /// `/metrics` fragment this registry owns.
    pub fn expose(&self) -> String {
        let mut out = String::with_capacity(4096);
        expose_rows(&mut out, &Self::ROWS, &self.values());
        push_histogram(
            &mut out,
            "easched_decide_latency_nanoseconds",
            "Wall-clock vet+decide latency per invocation",
            &self.decide_latency_ns,
        );
        push_histogram(
            &mut out,
            "easched_profile_overhead_basis_points",
            "Profiling share of realized invocation time (1e4 = all)",
            &self.overhead_bp,
        );
        push_meta(
            &mut out,
            "easched_alpha_decisions_total",
            "Executed offload ratio on the paper's 0.1 grid",
            "counter",
        );
        for (i, c) in self.alpha.iter().enumerate() {
            out.push_str(&format!(
                "easched_alpha_decisions_total{{alpha=\"{:.1}\"}} {}\n",
                i as f64 / 10.0,
                c.get()
            ));
        }
        let (version, commit) = self
            .build_info
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let version = if version.is_empty() {
            env!("CARGO_PKG_VERSION").to_string()
        } else {
            version
        };
        let commit = if commit.is_empty() {
            "unknown".to_string()
        } else {
            commit
        };
        push_meta(
            &mut out,
            "easched_build_info",
            "Build identity; always 1, the info rides in the labels",
            "gauge",
        );
        out.push_str(&format!(
            "easched_build_info{{version=\"{}\",commit=\"{}\"}} 1\n",
            escape_label_value(&version),
            escape_label_value(&commit),
        ));
        push_meta(
            &mut out,
            "easched_uptime_seconds",
            "Virtual seconds since the registry was armed",
            "counter",
        );
        out.push_str(&format!(
            "easched_uptime_seconds {}\n",
            self.uptime_seconds()
        ));
        out
    }
}

#[cfg(test)]
fn seconds_to_us(s: f64) -> u64 {
    (s * 1e6).round().max(0.0) as u64
}

/// `x.round().max(0.0) as u64`, exactly, in integer arithmetic — no libm
/// call on the fold's path. Halves round away from zero; NaN and anything
/// below one half give 0, anything from 2⁶⁴ up gives `u64::MAX`.
pub(crate) fn round_u64(x: f64) -> u64 {
    if x.is_nan() || x < 0.5 {
        return 0;
    }
    // Truncates, saturating at u64::MAX. Below 2⁵³ the truncation is
    // exactly representable and `x - whole` is exact (Sterbenz); from
    // 2⁵³ up every double is whole, so the fraction is 0 — or, past
    // u64::MAX, whatever it is, and the add saturates.
    let whole = x as u64;
    whole.saturating_add(u64::from(x - whole as f64 >= 0.5))
}

/// A [`LogHistogram`]'s worth of plain counts: one batch's observations
/// before they reach the shared histogram.
#[derive(Debug)]
struct Tally {
    counts: [u64; HISTOGRAM_BUCKETS],
    sum: u64,
}

impl Tally {
    fn new() -> Tally {
        Tally {
            counts: [0; HISTOGRAM_BUCKETS],
            sum: 0,
        }
    }

    fn record(&mut self, v: u64) {
        self.counts[LogHistogram::bucket_index(v)] += 1;
        self.sum = self.sum.wrapping_add(v);
    }

    fn add_to(&self, h: &LogHistogram) {
        for (cell, &n) in h.buckets.iter().zip(&self.counts) {
            if n > 0 {
                cell.fetch_add(n, Ordering::Relaxed);
            }
        }
        if self.sum > 0 {
            h.sum.fetch_add(self.sum, Ordering::Relaxed);
        }
    }
}

/// One batch of records folded into plain integers, in sequence order,
/// then [`flush`](Fold::flush)ed into a [`MetricsRegistry`] with one
/// atomic operation per touched cell. Sums wrap, as the registry's
/// `fetch_add`s do, so a batch adds exactly what its records would have
/// one by one.
#[derive(Debug)]
pub(crate) struct Fold {
    /// Records per [`InvocationPath::code`].
    paths: [u64; 8],
    /// The breaker state of the latest record folded.
    breaker: u8,
    transitions: u64,
    profile_us: u64,
    invocation_us: u64,
    decide: Tally,
    overhead: Tally,
    alpha: [u64; ALPHA_BUCKETS],
}

impl Fold {
    /// An empty batch continuing `reg`'s stream: a transition is counted
    /// against the breaker state the registry last saw.
    pub(crate) fn new(reg: &MetricsRegistry) -> Fold {
        Fold {
            paths: [0; 8],
            breaker: reg.breaker_state.get() as u8,
            transitions: 0,
            profile_us: 0,
            invocation_us: 0,
            decide: Tally::new(),
            overhead: Tally::new(),
            alpha: [0; ALPHA_BUCKETS],
        }
    }

    /// Folds the next record of the stream.
    pub(crate) fn add(&mut self, r: MetricFields) {
        self.paths[usize::from(r.path.code())] += 1;
        if r.breaker != self.breaker {
            self.transitions += 1;
            self.breaker = r.breaker;
        }
        let total = r.profile_time + r.split_time;
        self.profile_us = self
            .profile_us
            .wrapping_add(round_u64(r.profile_time * 1e6));
        self.invocation_us = self.invocation_us.wrapping_add(round_u64(total * 1e6));
        self.decide.record(r.decide_nanos);
        if r.path.has_prediction() && total > 0.0 {
            self.overhead
                .record(round_u64(r.profile_time / total * 1e4));
        }
        let bucket = round_u64(r.alpha.clamp(0.0, 1.0) * 10.0) as usize;
        self.alpha[bucket.min(ALPHA_BUCKETS - 1)] += 1;
    }

    /// Adds the batch to `reg`. The paths the scheduler's health counters
    /// own (degraded, quarantined, throttled) count as invocations only
    /// (DESIGN.md §10).
    pub(crate) fn flush(&self, reg: &MetricsRegistry) {
        let add = |counter: &Counter, n: u64| {
            if n > 0 {
                counter.add(n);
            }
        };
        let on = |path: InvocationPath| self.paths[usize::from(path.code())];
        add(&reg.invocations, self.paths.iter().sum());
        add(&reg.table_hits, on(InvocationPath::TableHit));
        add(&reg.small_n, on(InvocationPath::SmallN));
        add(&reg.profiled, on(InvocationPath::Profiled));
        add(&reg.reprofiled, on(InvocationPath::Reprofiled));
        add(&reg.probes, on(InvocationPath::Probe));
        if self.transitions > 0 {
            add(&reg.breaker_transitions, self.transitions);
            reg.breaker_state.swap(u64::from(self.breaker));
        }
        add(&reg.profile_time_us, self.profile_us);
        add(&reg.invocation_time_us, self.invocation_us);
        self.decide.add_to(&reg.decide_latency_ns);
        self.overhead.add_to(&reg.overhead_bp);
        for (counter, &n) in reg.alpha.iter().zip(&self.alpha) {
            add(counter, n);
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Renders a histogram in the Prometheus cumulative-bucket convention,
/// truncated after the highest non-empty bucket (the `+Inf` bucket always
/// closes the series). Buckets, `+Inf` and `_count` come from one read of
/// the buckets, so a record landing mid-render cannot set them apart.
fn push_histogram(out: &mut String, name: &str, help: &str, h: &LogHistogram) {
    push_meta(out, name, help, "histogram");
    let counts = h.counts();
    let last = counts.iter().rposition(|&c| c > 0).unwrap_or(0);
    let mut cumulative = 0u64;
    for (i, &c) in counts.iter().enumerate().take(last + 1) {
        cumulative += c;
        out.push_str(&format!(
            "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
            LogHistogram::bucket_bound(i)
        ));
    }
    let count: u64 = counts.iter().sum();
    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {count}\n"));
    out.push_str(&format!("{name}_sum {}\n", h.sum()));
    out.push_str(&format!("{name}_count {count}\n"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn libm_round(x: f64) -> u64 {
        x.round().max(0.0) as u64
    }

    #[test]
    fn round_u64_is_libm_round_at_the_edges() {
        let two = |e: i32| 2f64.powi(e);
        let mut edges = vec![
            0.49999999999999994,
            0.5,
            0.5000000000000001,
            two(52) - 1.0,
            two(52),
            two(52) + 1.0,
            two(51) + 0.5,
            two(52) - 0.5,
            two(53),
            two(53) + 2.0,
            two(63),
            two(64),
            two(64) - 2048.0,
            f64::MAX,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.4,
            -0.5,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            5e-324,
        ];
        // Every x.5 boundary a fold can meet, and its neighbours.
        for whole in 0..=20_000u32 {
            let half = f64::from(whole) + 0.5;
            edges.extend([half, half.next_down(), half.next_up()]);
        }
        for x in edges {
            assert_eq!(
                round_u64(x),
                libm_round(x),
                "x = {x:e} ({:#x})",
                x.to_bits()
            );
        }
    }

    proptest! {
        #[test]
        fn round_u64_is_libm_round_on_finite_doubles(bits in any::<u64>(), small in -4.0..1e7f64) {
            let x = f64::from_bits(bits);
            if x.is_finite() {
                prop_assert_eq!(round_u64(x), libm_round(x), "x = {:e}", x);
            }
            prop_assert_eq!(round_u64(small), libm_round(small), "x = {:e}", small);
        }
    }

    #[test]
    fn histogram_bucket_math_at_the_edges() {
        // Bucket 0 is exactly zero; bucket i is the bit-length-i range.
        assert_eq!(LogHistogram::bucket_index(0), 0);
        assert_eq!(LogHistogram::bucket_index(1), 1);
        assert_eq!(LogHistogram::bucket_index(2), 2);
        assert_eq!(LogHistogram::bucket_index(3), 2);
        assert_eq!(LogHistogram::bucket_index(4), 3);
        assert_eq!(LogHistogram::bucket_index((1 << 62) - 1), 62);
        assert_eq!(LogHistogram::bucket_index(1 << 62), 63);
        assert_eq!(LogHistogram::bucket_index(u64::MAX / 2), 63);
        assert_eq!(LogHistogram::bucket_index(u64::MAX / 2 + 1), 64);
        assert_eq!(LogHistogram::bucket_index(u64::MAX), 64);
        // Bounds are inclusive upper edges; the top bucket caps at MAX.
        assert_eq!(LogHistogram::bucket_bound(0), 0);
        assert_eq!(LogHistogram::bucket_bound(1), 1);
        assert_eq!(LogHistogram::bucket_bound(2), 3);
        assert_eq!(LogHistogram::bucket_bound(64), u64::MAX);
        // Boundary values land within their bound.
        for i in 1..HISTOGRAM_BUCKETS {
            assert_eq!(LogHistogram::bucket_index(LogHistogram::bucket_bound(i)), i);
        }
    }

    #[test]
    fn histogram_records_extremes_without_overflow() {
        let h = LogHistogram::default();
        h.record(0);
        h.record(u64::MAX);
        h.record(u64::MAX);
        let counts = h.counts();
        assert_eq!(counts[0], 1);
        assert_eq!(counts[64], 2);
        assert_eq!(h.count(), 3);
        // The sum wraps (documented); the count stays exact.
        assert_eq!(h.sum(), u64::MAX.wrapping_add(u64::MAX));
    }

    #[test]
    fn registry_update_classifies_paths() {
        let reg = MetricsRegistry::default();
        let mut r = DecisionRecord {
            path: InvocationPath::Profiled,
            rounds: 3,
            fault_rounds: 1,
            alpha: 0.7,
            profile_time: 0.5,
            split_time: 0.5,
            decide_nanos: 1200,
            ..DecisionRecord::default()
        };
        reg.update(&r);
        r.path = InvocationPath::TableHit;
        r.breaker = 1;
        reg.update(&r);
        assert_eq!(reg.invocations.get(), 2);
        assert_eq!(reg.profiled.get(), 1);
        assert_eq!(reg.table_hits.get(), 1);
        assert_eq!(reg.breaker_transitions.get(), 1);
        assert_eq!(reg.breaker_state.get(), 1);
        assert!((reg.hit_rate() - 0.5).abs() < 1e-12);
        // Only the profiled record contributes an overhead sample: 50%.
        assert_eq!(reg.overhead_bp.count(), 1);
        assert_eq!(reg.overhead_bp.sum(), 5000);
        assert_eq!(reg.alpha[7].get(), 2);
        // A throttled invocation is counted here as an invocation only:
        // its path is the scheduler's health counter.
        reg.update(&DecisionRecord {
            path: InvocationPath::Throttled,
            ..DecisionRecord::default()
        });
        assert_eq!(reg.invocations.get(), 3);
        assert!(!reg.expose().contains("throttled"));
    }

    #[test]
    fn build_info_and_uptime_ride_the_exposition() {
        let reg = MetricsRegistry::default();
        let page = reg.expose();
        // Defaults: crate version, unknown commit, zero uptime.
        assert!(
            page.contains(&format!(
                "easched_build_info{{version=\"{}\",commit=\"unknown\"}} 1",
                env!("CARGO_PKG_VERSION")
            )),
            "{page}"
        );
        assert!(page.contains("easched_uptime_seconds 0\n"), "{page}");
        reg.set_build_info("1.2.3", "abc1234");
        reg.mark_started(100.0);
        reg.observe_now(107.5);
        reg.observe_now(103.0); // out-of-order sample must not roll back
        let page = reg.expose();
        assert!(
            page.contains("easched_build_info{version=\"1.2.3\",commit=\"abc1234\"} 1"),
            "{page}"
        );
        assert!(page.contains("easched_uptime_seconds 7.5\n"), "{page}");
    }
}
