//! Fault-handling state and telemetry: retry policy, the GPU circuit
//! breaker, and health counters.
//!
//! The profile loop consults one [`Health`] per scheduling frontend. Its
//! [`CircuitBreaker`] implements the degradation state machine (DESIGN.md
//! §9): **Closed** (normal scheduling) → after `breaker_threshold`
//! consecutive GPU-implicating faults → **Open** (the GPU is quarantined:
//! invocations run CPU-only, α = 0) → after `quarantine` invocations →
//! **HalfOpen** (one probe invocation re-profiles through the GPU) → a
//! clean probe closes the breaker (recovery), a faulty one re-opens it for
//! another quarantine period. [`HealthStats`] counts every event with
//! relaxed atomics so both the exclusive and the shared frontend can
//! report telemetry without locks.

use crate::selfheal::{DriftMonitor, DriftPolicy, Watchdog, WatchdogPolicy};
use easched_telemetry as counters;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};

/// Tunable fault-handling policy, carried by
/// [`EasConfig`](crate::EasConfig).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FaultPolicy {
    /// Consecutive rejected profiling rounds tolerated per invocation
    /// before the invocation degrades (runs its remainder without further
    /// profiling).
    pub(crate) max_retries: u32,
    /// Consecutive GPU-implicating faults that trip the circuit breaker.
    pub(crate) breaker_threshold: u32,
    /// Invocations the GPU stays quarantined (CPU-only) after a trip; the
    /// K-th invocation after the trip is the recovery probe.
    pub(crate) quarantine: u64,
}

impl Default for FaultPolicy {
    fn default() -> FaultPolicy {
        FaultPolicy {
            max_retries: 3,
            breaker_threshold: 3,
            quarantine: 8,
        }
    }
}

easched_telemetry::counter_table! {
    /// Lock-free event counters for the fault pipeline: one relaxed-atomic
    /// cell per [`HealthReport`] field, bumped in place
    /// (`health.stats.retries.inc()`).
    #[derive(Debug, Default, Clone)]
    pub bank HealthStats(pub(crate));
    /// Snapshot of [`HealthStats`] — the telemetry surfaced by
    /// [`EasScheduler::health`](crate::EasScheduler::health) and
    /// [`SharedEas::health`](crate::SharedEas::health): what the Figure 7
    /// loop counts, and nothing else. Rows marked `fault` are the ones
    /// [`fault_free`](HealthReport::fault_free) reads; the rest are
    /// adaptation or overload protection. Rows with a series name are this
    /// report's `/metrics` fragment ([`expose`](HealthReport::expose));
    /// every row is on `/health`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub report HealthReport;
    /// Profiling observations that passed the guard.
    observations_accepted: counter = "easched_profile_rounds_total", "Accepted profiling rounds",
    /// Profiling observations rejected as faults.
    observations_rejected: counter fault = "easched_fault_rounds_total", "Rejected profiling rounds",
    /// Rejected rounds that were retried (with a backed-off chunk).
    retries: counter fault,
    /// Invocations that gave up profiling and ran degraded.
    degraded_invocations: counter fault = "easched_degraded_total",
        "Invocations degraded after sustained faults",
    /// Times the GPU circuit breaker tripped open.
    breaker_trips: counter fault,
    /// Recovery probes attempted while half-open.
    probes: counter fault,
    /// Probes that found the GPU healthy again (breaker re-closed).
    recoveries: counter,
    /// Kernel-table entries marked suspect after a faulty invocation.
    taints: counter fault,
    /// Invocations forced to CPU-only by an open breaker.
    quarantined_invocations: counter fault = "easched_quarantined_total",
        "Invocations quarantined CPU-only by the breaker",
    /// Re-profiles scheduled by the drift monitor (DESIGN.md §11).
    /// Adaptation, not a fault: it does not disturb
    /// [`fault_free`](HealthReport::fault_free).
    drift_reprofiles: counter = "easched_drift_reprofiles_total",
        "Re-profiles scheduled by the drift monitor",
    /// Drift re-profiles deferred because the global token bucket was
    /// empty.
    reprofiles_suppressed: counter = "easched_reprofiles_suppressed_total",
        "Due re-profiles deferred by an empty token bucket",
    /// Profiling rounds cancelled by the watchdog deadline.
    watchdog_trips: counter fault = "easched_watchdog_trips_total",
        "Profiling rounds cancelled by the watchdog deadline",
    /// Chunk executions that overran the watchdog's split deadline.
    split_overruns: counter fault = "easched_split_overruns_total",
        "Chunk executions past the watchdog split deadline",
    /// Invocations forced CPU-only by their admission context (brownout
    /// or a denied GPU policy). Overload protection, not a fault: does
    /// not disturb [`fault_free`](HealthReport::fault_free).
    throttled_invocations: counter = "easched_throttled_total",
        "Invocations GPU-gated by the brownout ladder",
}

impl HealthReport {
    /// True when no fault was ever observed (the clean-path invariant):
    /// every row declared `fault` reads zero.
    pub fn fault_free(&self) -> bool {
        counters::fault_free(&Self::ROWS, &self.values())
    }

    /// The `/health` page: `fault_free` first, then every row as
    /// `"field":value`.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        counters::push_json_field(&mut out, "fault_free", self.fault_free());
        counters::push_json_rows(&mut out, &Self::ROWS, &self.values());
        out.push('}');
        out
    }

    /// This report's `/metrics` fragment: every row that declares a
    /// series name, read at scrape time rather than re-counted by a sink.
    pub fn expose(&self) -> String {
        let mut out = String::new();
        counters::expose_rows(&mut out, &Self::ROWS, &self.values());
        out
    }
}

const CLOSED: u8 = 0;
const OPEN: u8 = 1;
const HALF_OPEN: u8 = 2;

/// Current position in the breaker state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Normal operation; faults are being counted.
    Closed,
    /// GPU quarantined: invocations run CPU-only.
    Open,
    /// Quarantine served: the next invocation probes the GPU.
    HalfOpen,
}

impl BreakerState {
    /// Stable numeric code used in telemetry records (0 closed, 1 open,
    /// 2 half-open — the internal encoding, made public for exports).
    pub fn code(self) -> u8 {
        match self {
            BreakerState::Closed => CLOSED,
            BreakerState::Open => OPEN,
            BreakerState::HalfOpen => HALF_OPEN,
        }
    }

    /// Inverse of [`code`](BreakerState::code); `None` for unknown codes
    /// (used when recovering persisted state).
    pub(crate) fn from_code(code: u8) -> Option<BreakerState> {
        match code {
            CLOSED => Some(BreakerState::Closed),
            OPEN => Some(BreakerState::Open),
            HALF_OPEN => Some(BreakerState::HalfOpen),
            _ => None,
        }
    }
}

/// What the breaker allows the current invocation to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BreakerGate {
    /// Schedule normally.
    Normal,
    /// GPU quarantined: run everything at α = 0, touch nothing else.
    CpuOnly,
    /// Probe: profile through the GPU (skipping table reuse) so a clean
    /// observation can close the breaker.
    Probe,
}

/// The GPU circuit breaker (state machine in `health.rs`'s module docs).
///
/// All state is atomic: many streams of an `Arc<SharedEas>` consult one
/// breaker concurrently. Races are benign — at worst two streams both run
/// the recovery probe.
#[derive(Debug)]
pub struct CircuitBreaker {
    threshold: u32,
    quarantine: u64,
    state: AtomicU8,
    consecutive: AtomicU32,
    quarantine_left: AtomicU64,
}

impl CircuitBreaker {
    /// A closed breaker with the given policy.
    pub(crate) fn new(policy: &FaultPolicy) -> CircuitBreaker {
        CircuitBreaker {
            threshold: policy.breaker_threshold.max(1),
            quarantine: policy.quarantine.max(1),
            state: AtomicU8::new(CLOSED),
            consecutive: AtomicU32::new(0),
            quarantine_left: AtomicU64::new(0),
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        match self.state.load(Ordering::Acquire) {
            OPEN => BreakerState::Open,
            HALF_OPEN => BreakerState::HalfOpen,
            _ => BreakerState::Closed,
        }
    }

    /// Whether the breaker is open (GPU quarantined).
    pub(crate) fn is_open(&self) -> bool {
        self.state.load(Ordering::Acquire) == OPEN
    }

    /// Consulted once per invocation, before any scheduling work.
    pub(crate) fn gate(&self) -> BreakerGate {
        match self.state.load(Ordering::Acquire) {
            CLOSED => BreakerGate::Normal,
            HALF_OPEN => BreakerGate::Probe,
            _ => {
                let before = self
                    .quarantine_left
                    .fetch_update(Ordering::AcqRel, Ordering::Acquire, |v| {
                        Some(v.saturating_sub(1))
                    })
                    .unwrap_or(0);
                if before <= 1 {
                    self.state.store(HALF_OPEN, Ordering::Release);
                    BreakerGate::Probe
                } else {
                    BreakerGate::CpuOnly
                }
            }
        }
    }

    /// Records a GPU-implicating fault; returns `true` if this fault
    /// tripped the breaker open (from closed or from a failed probe).
    pub(crate) fn record_gpu_fault(&self) -> bool {
        match self.state.load(Ordering::Acquire) {
            OPEN => false,
            HALF_OPEN => {
                self.trip();
                true
            }
            _ => {
                let seen = self.consecutive.fetch_add(1, Ordering::AcqRel) + 1;
                if seen >= self.threshold {
                    self.trip();
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a clean GPU observation; returns `true` if it closed a
    /// half-open breaker (a recovery).
    pub(crate) fn record_clean_gpu(&self) -> bool {
        self.consecutive.store(0, Ordering::Release);
        let was_half_open = self.state.load(Ordering::Acquire) == HALF_OPEN;
        if was_half_open {
            self.state.store(CLOSED, Ordering::Release);
        }
        was_half_open
    }

    fn trip(&self) {
        self.consecutive.store(0, Ordering::Release);
        self.quarantine_left
            .store(self.quarantine, Ordering::Release);
        self.state.store(OPEN, Ordering::Release);
    }

    /// Forces the breaker into a recovered state (crash recovery): an
    /// `Open` restore starts a full quarantine period, exactly as if the
    /// trip had just happened.
    pub(crate) fn restore(&self, state: BreakerState) {
        self.consecutive.store(0, Ordering::Release);
        match state {
            BreakerState::Open => {
                self.quarantine_left
                    .store(self.quarantine, Ordering::Release);
                self.state.store(OPEN, Ordering::Release);
            }
            BreakerState::HalfOpen => self.state.store(HALF_OPEN, Ordering::Release),
            BreakerState::Closed => self.state.store(CLOSED, Ordering::Release),
        }
    }
}

impl Clone for CircuitBreaker {
    fn clone(&self) -> CircuitBreaker {
        CircuitBreaker {
            threshold: self.threshold,
            quarantine: self.quarantine,
            state: AtomicU8::new(self.state.load(Ordering::Acquire)),
            consecutive: AtomicU32::new(self.consecutive.load(Ordering::Acquire)),
            quarantine_left: AtomicU64::new(self.quarantine_left.load(Ordering::Acquire)),
        }
    }
}

/// Per-frontend fault-handling state: counters, the GPU breaker, and the
/// self-healing control loop's drift monitor and watchdog (DESIGN.md
/// §11).
#[derive(Debug, Clone)]
pub struct Health {
    pub(crate) stats: HealthStats,
    pub(crate) breaker: CircuitBreaker,
    pub(crate) drift: DriftMonitor,
    pub(crate) watchdog: Watchdog,
}

impl Health {
    /// Fresh healthy state under the given policies.
    pub(crate) fn new(
        policy: &FaultPolicy,
        drift: DriftPolicy,
        watchdog: WatchdogPolicy,
    ) -> Health {
        Health {
            stats: HealthStats::default(),
            breaker: CircuitBreaker::new(policy),
            drift: DriftMonitor::new(drift),
            watchdog: Watchdog::new(watchdog),
        }
    }

    /// Snapshot of the counters, in the user-facing reporting shape.
    pub(crate) fn report(&self) -> HealthReport {
        self.stats.report()
    }

    /// The GPU circuit breaker.
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// The drift monitor feeding the self-healing loop.
    pub(crate) fn drift(&self) -> &DriftMonitor {
        &self.drift
    }

    /// The watchdog bounding round/chunk durations.
    pub(crate) fn watchdog(&self) -> &Watchdog {
        &self.watchdog
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> FaultPolicy {
        FaultPolicy {
            max_retries: 3,
            breaker_threshold: 3,
            quarantine: 4,
        }
    }

    fn health() -> Health {
        Health::new(&policy(), DriftPolicy::default(), WatchdogPolicy::default())
    }

    #[test]
    fn breaker_trips_after_threshold_consecutive_faults() {
        let b = CircuitBreaker::new(&policy());
        assert!(!b.record_gpu_fault());
        assert!(!b.record_gpu_fault());
        // A clean observation resets the streak.
        assert!(!b.record_clean_gpu());
        assert!(!b.record_gpu_fault());
        assert!(!b.record_gpu_fault());
        assert!(b.record_gpu_fault());
        assert_eq!(b.state(), BreakerState::Open);
    }

    #[test]
    fn open_breaker_quarantines_then_probes() {
        let b = CircuitBreaker::new(&policy());
        for _ in 0..3 {
            b.record_gpu_fault();
        }
        // quarantine = 4: three CPU-only invocations, the fourth probes.
        assert_eq!(b.gate(), BreakerGate::CpuOnly);
        assert_eq!(b.gate(), BreakerGate::CpuOnly);
        assert_eq!(b.gate(), BreakerGate::CpuOnly);
        assert_eq!(b.gate(), BreakerGate::Probe);
        assert_eq!(b.state(), BreakerState::HalfOpen);
    }

    #[test]
    fn clean_probe_closes_failed_probe_reopens() {
        let b = CircuitBreaker::new(&policy());
        for _ in 0..3 {
            b.record_gpu_fault();
        }
        for _ in 0..4 {
            b.gate();
        }
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Failed probe: straight back to open for a full quarantine.
        assert!(b.record_gpu_fault());
        assert_eq!(b.state(), BreakerState::Open);
        for _ in 0..4 {
            b.gate();
        }
        // Clean probe: recovery.
        assert!(b.record_clean_gpu());
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.gate(), BreakerGate::Normal);
    }

    #[test]
    fn closed_breaker_gates_normal_without_side_effects() {
        let b = CircuitBreaker::new(&policy());
        for _ in 0..100 {
            assert_eq!(b.gate(), BreakerGate::Normal);
        }
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn health_report_roundtrips_counters() {
        let h = health();
        h.stats.observations_accepted.inc();
        h.stats.observations_rejected.inc();
        h.stats.observations_rejected.inc();
        h.stats.degraded_invocations.inc();
        let r = h.report();
        assert_eq!(r.observations_accepted, 1);
        assert_eq!(r.observations_rejected, 2);
        assert_eq!(r.degraded_invocations, 1);
        assert!(!r.fault_free());
        assert!(HealthReport::default().fault_free());
        // Clone carries the counts.
        assert_eq!(h.clone().report(), r);
    }

    #[test]
    fn fault_free_reads_exactly_the_rows_declared_fault() {
        let faults: Vec<&str> = HealthReport::ROWS
            .iter()
            .filter(|r| r.fault)
            .map(|r| r.field)
            .collect();
        assert_eq!(
            faults,
            [
                "observations_rejected",
                "retries",
                "degraded_invocations",
                "breaker_trips",
                "probes",
                "taints",
                "quarantined_invocations",
                "watchdog_trips",
                "split_overruns",
            ]
        );
        // One row at a time: a lone non-zero value breaks `fault_free`
        // exactly when its row is declared a fault. Adaptation and
        // overload protection never do.
        for (i, row) in HealthReport::ROWS.iter().enumerate() {
            let mut values = [0; HealthReport::N];
            values[i] = 1;
            let report = HealthReport::from_values(values);
            assert_eq!(report.values(), values);
            assert_eq!(report.fault_free(), !row.fault, "{}", row.field);
        }
    }

    #[test]
    fn breaker_state_codes_are_stable() {
        assert_eq!(BreakerState::Closed.code(), 0);
        assert_eq!(BreakerState::Open.code(), 1);
        assert_eq!(BreakerState::HalfOpen.code(), 2);
    }
}
