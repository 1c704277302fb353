//! The self-healing control loop's sensing half: per-kernel drift
//! monitoring with hysteresis and a global reprofile budget, plus the
//! watchdog that bounds how long a profiling round or chunk execution may
//! run (DESIGN.md §11).
//!
//! The paper memoizes α per kernel forever (Fig 7, step 26) — correct on
//! a machine whose thermal envelope and co-runners never change, wrong
//! everywhere else. PR 3's drift study showed realized EDP wandering from
//! the model's prediction by up to ≈0.56 mean relative error in perfectly
//! fault-free runs; this module is what *acts* on that signal. Deadline-
//! aware GPU schedulers (Ilager et al.) and low-overhead heterogeneous
//! schedulers (Corbera et al.) both warn that adaptive re-decision eats
//! its own energy win unless it is bounded, so every reaction here is
//! guarded three ways:
//!
//! * **Hysteresis**: the EWMA must stay above the bound for
//!   [`breach_invocations`](DriftPolicy::breach_invocations) *consecutive*
//!   folds before anything happens, and after a reprofile the kernel is
//!   disarmed until its EWMA falls back below `bound · rearm_ratio`.
//! * **Per-kernel cooldown**: after a reprofile fires, that kernel cannot
//!   fire again for [`cooldown`](DriftPolicy::cooldown) observations.
//! * **Global token bucket**: reprofiles across *all* kernels drain a
//!   shared bucket that refills at [`bucket_refill`](DriftPolicy::bucket_refill)
//!   tokens per observation — a noisy workload cannot trigger a reprofile
//!   storm that serializes the pipeline on profiling.
//!
//! The monitor is deliberately black-box, like everything else in this
//! reproduction: it sees only predicted and realized energy-delay product,
//! never kernel internals.
//!
//! The monitor owns the policy and the global bucket, nothing per kernel:
//! a kernel's EWMA, reference, breach count, cooldown and latch are its
//! [`DriftCell`], which lives in the kernel's entry of G
//! ([`KernelTable::drift`](crate::KernelTable::drift)) and is not
//! persisted. The cells are also the only copy of the EWMAs that
//! `/metrics` shows: [`expose_drift`] renders them at scrape time.

use easched_runtime::KernelId;
use easched_telemetry::{push_meta, relative_error, Kind, Row};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

/// Tokens are stored in integer milli-tokens so the bucket can be a plain
/// atomic (no float CAS loops over bit patterns needed for refill math).
const MILLI: u64 = 1000;

/// Tuning for the [`DriftMonitor`]. The defaults are deliberately
/// conservative: with the PR 3 ceiling for *fault-free* mean drift at
/// 0.75, a bound of 2.0 only fires on sustained, several-fold
/// mispredictions — never on model noise.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftPolicy {
    /// Master switch; `false` makes [`DriftMonitor::observe`] return
    /// `None` unconditionally (the fault-free fast path).
    pub enabled: bool,
    /// EWMA relative-error threshold above which an invocation counts as
    /// a breach.
    pub bound: f64,
    /// Consecutive breaching observations required before a reprofile is
    /// scheduled (the K of the issue).
    pub breach_invocations: u32,
    /// Weight of the newest sample when folding into the EWMA
    /// (`ewma ← w·sample + (1−w)·ewma`).
    pub ewma_weight: f64,
    /// Observations a kernel must sit out after triggering a reprofile
    /// before its breach counter may grow again.
    pub cooldown: u64,
    /// Hysteresis: once a reprofile fires, the kernel stays disarmed
    /// until its EWMA drops below `bound * rearm_ratio`.
    pub rearm_ratio: f64,
    /// Capacity of the global reprofile token bucket, in tokens.
    pub bucket_capacity: f64,
    /// Tokens added to the global bucket per drift observation.
    pub bucket_refill: f64,
}

impl Default for DriftPolicy {
    fn default() -> DriftPolicy {
        DriftPolicy {
            enabled: true,
            bound: 2.0,
            breach_invocations: 4,
            ewma_weight: 0.25,
            cooldown: 16,
            rearm_ratio: 0.5,
            bucket_capacity: 4.0,
            bucket_refill: 1.0 / 64.0,
        }
    }
}

impl DriftPolicy {
    /// A policy with drift response switched off entirely.
    pub fn disabled() -> DriftPolicy {
        DriftPolicy {
            enabled: false,
            ..DriftPolicy::default()
        }
    }
}

/// What the monitor decided after folding one observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DriftAction {
    /// Sample folded; no threshold action.
    Observed,
    /// Sustained drift crossed the bound and a token was available: the
    /// caller should taint the kernel's entry so the next invocation
    /// re-profiles.
    Reprofile,
    /// Sustained drift crossed the bound but the global budget was
    /// exhausted; the breach counter was reset so the kernel re-earns
    /// its reprofile rather than firing the instant a token refills.
    Suppressed,
}

/// One drift observation's outcome: the EWMA after folding, and the
/// action the monitor took.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftOutcome {
    /// Per-kernel EWMA of relative EDP error after this sample.
    pub(crate) ewma: f64,
    /// What the monitor decided.
    pub(crate) action: DriftAction,
}

/// One kernel's monitoring state: the cell of its G entry that
/// [`DriftMonitor::observe`] folds into. All fields are atomics flipped
/// under a shard *read* lock, so concurrent streams folding different
/// kernels — or even the same kernel — never take a write lock.
#[derive(Debug)]
pub struct DriftCell {
    /// EWMA of relative EDP error, as f64 bits; NAN bits mean "no sample
    /// folded yet".
    ewma_bits: AtomicU64,
    /// Reference EDP per item² from the last prediction-carrying
    /// invocation, as f64 bits; NAN bits mean "no reference yet". Lets
    /// table-hit invocations (which carry no fresh prediction) still be
    /// judged against the model that learned their α.
    reference_bits: AtomicU64,
    /// Consecutive breaching observations.
    breaches: AtomicU32,
    /// Observations left before the kernel may breach again.
    cooldown_left: AtomicU64,
    /// Hysteresis latch: set when a reprofile fires, cleared when the
    /// EWMA falls below `bound * rearm_ratio`.
    disarmed: AtomicBool,
}

impl Default for DriftCell {
    fn default() -> DriftCell {
        DriftCell {
            ewma_bits: AtomicU64::new(f64::NAN.to_bits()),
            reference_bits: AtomicU64::new(f64::NAN.to_bits()),
            breaches: AtomicU32::new(0),
            cooldown_left: AtomicU64::new(0),
            disarmed: AtomicBool::new(false),
        }
    }
}

impl Clone for DriftCell {
    fn clone(&self) -> DriftCell {
        DriftCell {
            ewma_bits: AtomicU64::new(self.ewma_bits.load(Ordering::Relaxed)),
            reference_bits: AtomicU64::new(self.reference_bits.load(Ordering::Relaxed)),
            breaches: AtomicU32::new(self.breaches.load(Ordering::Relaxed)),
            cooldown_left: AtomicU64::new(self.cooldown_left.load(Ordering::Relaxed)),
            disarmed: AtomicBool::new(self.disarmed.load(Ordering::Relaxed)),
        }
    }
}

impl DriftCell {
    /// Current EWMA of relative EDP error, if any sample has been folded.
    pub fn ewma(&self) -> Option<f64> {
        let v = f64::from_bits(self.ewma_bits.load(Ordering::Relaxed));
        v.is_finite().then_some(v)
    }
}

/// The drift gauge's declaration on a `/metrics` page.
pub const DRIFT_SERIES: Row = Row {
    field: "ewma",
    name: "easched_kernel_drift_ewma",
    help: "Latest per-kernel EDP drift EWMA from the control loop",
    kind: Kind::Gauge,
    fault: false,
};

/// Renders the kernel table's `/metrics` fragment: one `kernel="<id>"`
/// sample of [`DRIFT_SERIES`] per `(kernel, ewma)` — read from the cells
/// by [`KernelTable::drifts`](crate::KernelTable::drifts) — and nothing
/// before any kernel has folded a sample.
pub fn expose_drift(drifts: &[(KernelId, f64)]) -> String {
    let mut out = String::new();
    if drifts.is_empty() {
        return out;
    }
    let (name, help) = (DRIFT_SERIES.name, DRIFT_SERIES.help);
    push_meta(&mut out, name, help, DRIFT_SERIES.kind.as_str());
    for (kernel, ewma) in drifts {
        let _ = writeln!(out, "{name}{{kernel=\"{kernel}\"}} {ewma:e}");
    }
    out
}

/// Folds predicted-vs-realized EDP into a kernel's [`DriftCell`] and
/// decides when sustained drift warrants re-profiling, under the triple
/// guard described in the module docs.
#[derive(Debug)]
pub struct DriftMonitor {
    policy: DriftPolicy,
    /// Global reprofile budget in milli-tokens.
    bucket_milli: AtomicU64,
}

impl Clone for DriftMonitor {
    fn clone(&self) -> DriftMonitor {
        DriftMonitor {
            policy: self.policy,
            bucket_milli: AtomicU64::new(self.bucket_milli.load(Ordering::Relaxed)),
        }
    }
}

impl Default for DriftMonitor {
    fn default() -> DriftMonitor {
        DriftMonitor::new(DriftPolicy::default())
    }
}

impl DriftMonitor {
    /// A monitor with the given policy; the token bucket starts full.
    pub fn new(policy: DriftPolicy) -> DriftMonitor {
        DriftMonitor {
            policy,
            bucket_milli: AtomicU64::new(to_milli(policy.bucket_capacity)),
        }
    }

    /// Tokens currently in the global reprofile bucket.
    pub fn tokens(&self) -> f64 {
        self.bucket_milli.load(Ordering::Relaxed) as f64 / MILLI as f64
    }

    /// Folds one invocation's EDP into the kernel's EWMA — `state`, the
    /// cell of its table entry — and applies the breach/cooldown/budget
    /// machinery.
    ///
    /// `predicted_edp` is `Some` on invocations that carried a fresh model
    /// prediction (profiling finishes); those also refresh the kernel's
    /// per-item² EDP reference. Table hits pass `None` and are judged
    /// against the stored reference scaled by `items²` (EDP grows
    /// quadratically in problem size for a fixed split, so the reference
    /// must be normalized before it can score a different N).
    ///
    /// Returns `None` when the monitor is disabled, inputs are unusable,
    /// or a table hit arrives before any reference exists.
    pub fn observe(
        &self,
        state: &DriftCell,
        predicted_edp: Option<f64>,
        realized_edp: f64,
        items: u64,
    ) -> Option<DriftOutcome> {
        if !self.policy.enabled || !realized_edp.is_finite() || realized_edp <= 0.0 || items == 0 {
            return None;
        }
        self.refill();

        let items_sq = (items as f64) * (items as f64);
        let expected = match predicted_edp {
            Some(p) if p.is_finite() && p > 0.0 => {
                // Prediction-carrying invocations also refresh the
                // reference that future table hits are scored against.
                state
                    .reference_bits
                    .store((realized_edp / items_sq).to_bits(), Ordering::Relaxed);
                p
            }
            Some(_) => return None,
            None => {
                let per_item_sq = f64::from_bits(state.reference_bits.load(Ordering::Relaxed));
                if !per_item_sq.is_finite() {
                    return None;
                }
                per_item_sq * items_sq
            }
        };

        let sample = relative_error(expected, realized_edp);
        let w = self.policy.ewma_weight;
        let prev = f64::from_bits(state.ewma_bits.load(Ordering::Relaxed));
        let ewma = if prev.is_finite() {
            w * sample + (1.0 - w) * prev
        } else {
            sample
        };
        state.ewma_bits.store(ewma.to_bits(), Ordering::Relaxed);

        // Cooldown: the kernel sits out; breaches cannot grow.
        let cooling = state
            .cooldown_left
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {
                (c > 0).then(|| c - 1)
            })
            .is_ok();
        if cooling {
            state.breaches.store(0, Ordering::Relaxed);
            return Some(DriftOutcome {
                ewma,
                action: DriftAction::Observed,
            });
        }

        // Hysteresis: after a reprofile the kernel stays disarmed until
        // its EWMA falls well below the bound again.
        if state.disarmed.load(Ordering::Relaxed) {
            if ewma < self.policy.bound * self.policy.rearm_ratio {
                state.disarmed.store(false, Ordering::Relaxed);
            }
            state.breaches.store(0, Ordering::Relaxed);
            return Some(DriftOutcome {
                ewma,
                action: DriftAction::Observed,
            });
        }

        if ewma <= self.policy.bound {
            state.breaches.store(0, Ordering::Relaxed);
            return Some(DriftOutcome {
                ewma,
                action: DriftAction::Observed,
            });
        }

        let breaches = state.breaches.fetch_add(1, Ordering::Relaxed) + 1;
        if breaches < self.policy.breach_invocations {
            return Some(DriftOutcome {
                ewma,
                action: DriftAction::Observed,
            });
        }

        state.breaches.store(0, Ordering::Relaxed);
        if self.take_token() {
            state.disarmed.store(true, Ordering::Relaxed);
            state
                .cooldown_left
                .store(self.policy.cooldown, Ordering::Relaxed);
            Some(DriftOutcome {
                ewma,
                action: DriftAction::Reprofile,
            })
        } else {
            Some(DriftOutcome {
                ewma,
                action: DriftAction::Suppressed,
            })
        }
    }

    /// Adds one observation's worth of refill to the bucket, capped at
    /// capacity.
    fn refill(&self) {
        let add = to_milli(self.policy.bucket_refill);
        let cap = to_milli(self.policy.bucket_capacity);
        let _ = self
            .bucket_milli
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| {
                (b < cap).then(|| (b + add).min(cap))
            });
    }

    /// Takes one whole token if available.
    fn take_token(&self) -> bool {
        self.bucket_milli
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| {
                (b >= MILLI).then(|| b - MILLI)
            })
            .is_ok()
    }
}

/// Converts whole tokens to the integer milli-token representation,
/// saturating at zero for non-finite or negative policy values.
fn to_milli(tokens: f64) -> u64 {
    if tokens.is_finite() && tokens > 0.0 {
        (tokens * MILLI as f64) as u64
    } else {
        0
    }
}

/// Tuning for the watchdog. Both deadlines default far above the
/// chaos layer's `GPU_HANG_TIMEOUT` (10 s), so the watchdog never
/// interferes with the guard/breaker pipeline's existing handling of
/// recoverable hangs — it exists for the pathological case where a round
/// runs orders of magnitude past plausible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WatchdogPolicy {
    /// Master switch; `false` disables both deadlines.
    pub(crate) enabled: bool,
    /// Hard deadline on one GPU-proxy profiling round, seconds.
    pub(crate) profile_deadline: f64,
    /// Hard deadline on one chunk (split) execution, seconds.
    pub(crate) split_deadline: f64,
}

impl Default for WatchdogPolicy {
    fn default() -> WatchdogPolicy {
        WatchdogPolicy {
            enabled: true,
            profile_deadline: 60.0,
            split_deadline: 600.0,
        }
    }
}

impl WatchdogPolicy {
    /// A policy with both deadlines switched off.
    pub fn disabled() -> WatchdogPolicy {
        WatchdogPolicy {
            enabled: false,
            ..WatchdogPolicy::default()
        }
    }

    /// An enabled policy with explicit deadlines (seconds) — the
    /// previously hardcoded 60 s round / 600 s chunk values remain the
    /// [`Default`].
    ///
    /// # Panics
    ///
    /// Panics if either deadline is not positive.
    pub fn with_deadlines(profile_deadline: f64, split_deadline: f64) -> WatchdogPolicy {
        assert!(
            profile_deadline > 0.0 && split_deadline > 0.0,
            "watchdog deadlines must be positive"
        );
        WatchdogPolicy {
            enabled: true,
            profile_deadline,
            split_deadline,
        }
    }
}

/// Judges observed round/chunk durations against hard deadlines. The
/// backends in this reproduction are synchronous, so the watchdog cannot
/// preempt a running call — it *cancels* the round after the fact: the
/// observation is discarded as a typed fault
/// ([`FaultKind::DeadlineExceeded`](crate::FaultKind::DeadlineExceeded))
/// and escalation flows through the existing retry → degrade →
/// circuit-breaker pipeline instead of blocking the worker pool on an
/// answer that already proved untrustworthy.
#[derive(Debug, Clone, Default)]
pub(crate) struct Watchdog {
    policy: WatchdogPolicy,
}

impl Watchdog {
    /// A watchdog with the given deadlines.
    pub(crate) fn new(policy: WatchdogPolicy) -> Watchdog {
        Watchdog { policy }
    }

    /// Whether a profiling round's elapsed time busts the policy's
    /// profiling deadline or an optional per-request deadline budget from
    /// the admission layer, whichever is tighter. Non-finite readings are
    /// *not* overruns: a NaN elapsed is a broken clock, not a hung GPU, and
    /// it must stay a sensor fault (§9 `NonFinite`, retry-only). A budget applies even when
    /// the policy's own deadlines are disabled — a tenant's contract is
    /// not voided by a lax scheduler configuration. `None` is exactly
    /// the policy-only check (the single-tenant fast path).
    pub(crate) fn profile_overrun_within(&self, elapsed: f64, budget: Option<f64>) -> bool {
        self.overrun_within(elapsed, self.policy.profile_deadline, budget)
    }

    /// The same check against the split-execution deadline (see
    /// [`profile_overrun_within`](Watchdog::profile_overrun_within)).
    pub(crate) fn split_overrun_within(&self, elapsed: f64, budget: Option<f64>) -> bool {
        self.overrun_within(elapsed, self.policy.split_deadline, budget)
    }

    fn overrun_within(&self, elapsed: f64, policy_deadline: f64, budget: Option<f64>) -> bool {
        if !elapsed.is_finite() {
            return false;
        }
        let policy_bound = self.policy.enabled.then_some(policy_deadline);
        let effective = match (policy_bound, budget) {
            (Some(p), Some(b)) => Some(p.min(b)),
            (Some(p), None) => Some(p),
            (None, b) => b,
        };
        effective.is_some_and(|bound| elapsed > bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight_policy() -> DriftPolicy {
        DriftPolicy {
            enabled: true,
            bound: 1.0,
            breach_invocations: 3,
            ewma_weight: 1.0, // EWMA == latest sample: easy to reason about
            cooldown: 4,
            rearm_ratio: 0.5,
            bucket_capacity: 2.0,
            bucket_refill: 0.0,
        }
    }

    #[test]
    fn no_action_below_the_bound() {
        let m = DriftMonitor::new(tight_policy());
        let cell = DriftCell::default();
        for _ in 0..50 {
            let out = m.observe(&cell, Some(100.0), 150.0, 10).unwrap();
            assert_eq!(out.action, DriftAction::Observed);
            assert!((out.ewma - 0.5 / 1.5).abs() < 1e-12);
        }
        assert_eq!(m.tokens(), 2.0, "no token spent below the bound");
    }

    #[test]
    fn sustained_breach_triggers_reprofile_after_k() {
        let m = DriftMonitor::new(tight_policy());
        let cell = DriftCell::default();
        // Prediction 100, realized 25: relative error 3.0 > bound 1.0.
        for i in 1..=2 {
            let out = m.observe(&cell, Some(100.0), 25.0, 10).unwrap();
            assert_eq!(out.action, DriftAction::Observed, "breach {i} under K");
        }
        let out = m.observe(&cell, Some(100.0), 25.0, 10).unwrap();
        assert_eq!(out.action, DriftAction::Reprofile);
        assert_eq!(m.tokens(), 1.0);
    }

    #[test]
    fn single_spike_does_not_fire() {
        let m = DriftMonitor::new(tight_policy());
        let cell = DriftCell::default();
        m.observe(&cell, Some(100.0), 25.0, 10).unwrap();
        m.observe(&cell, Some(100.0), 25.0, 10).unwrap();
        // A clean sample between breaches resets the consecutive count.
        let out = m.observe(&cell, Some(100.0), 100.0, 10).unwrap();
        assert_eq!(out.action, DriftAction::Observed);
        for _ in 0..2 {
            m.observe(&cell, Some(100.0), 25.0, 10).unwrap();
        }
        let out = m.observe(&cell, Some(100.0), 25.0, 10).unwrap();
        assert_eq!(
            out.action,
            DriftAction::Reprofile,
            "counter restarted after the clean sample"
        );
    }

    #[test]
    fn cooldown_and_hysteresis_gate_refiring() {
        let m = DriftMonitor::new(tight_policy());
        let cell = DriftCell::default();
        for _ in 0..3 {
            m.observe(&cell, Some(100.0), 25.0, 10).unwrap();
        }
        // Fired once; stays quiet through the cooldown even under
        // continued breach.
        for _ in 0..4 {
            let out = m.observe(&cell, Some(100.0), 25.0, 10).unwrap();
            assert_eq!(out.action, DriftAction::Observed, "cooling down");
        }
        // Cooldown over but still disarmed: breaching samples do nothing.
        for _ in 0..6 {
            let out = m.observe(&cell, Some(100.0), 25.0, 10).unwrap();
            assert_eq!(out.action, DriftAction::Observed, "disarmed");
        }
        // Drop below bound*rearm_ratio to re-arm, then breach again.
        m.observe(&cell, Some(100.0), 100.0, 10).unwrap();
        for _ in 0..2 {
            m.observe(&cell, Some(100.0), 25.0, 10).unwrap();
        }
        let out = m.observe(&cell, Some(100.0), 25.0, 10).unwrap();
        assert_eq!(
            out.action,
            DriftAction::Reprofile,
            "re-armed after recovery"
        );
    }

    #[test]
    fn empty_bucket_suppresses_and_refill_restores() {
        let mut p = tight_policy();
        p.bucket_capacity = 1.0;
        p.cooldown = 0;
        p.rearm_ratio = 10.0; // re-arm immediately (ewma always < 10·bound)
        let m = DriftMonitor::new(p);
        let (cell, other) = (DriftCell::default(), DriftCell::default());
        for _ in 0..3 {
            m.observe(&cell, Some(100.0), 25.0, 10).unwrap();
        }
        assert_eq!(m.tokens(), 0.0);
        for _ in 0..2 {
            m.observe(&other, Some(100.0), 25.0, 10).unwrap();
        }
        let out = m.observe(&other, Some(100.0), 25.0, 10).unwrap();
        assert_eq!(
            out.action,
            DriftAction::Suppressed,
            "kernel 2's reprofile starved by kernel 1"
        );
        // With refill enabled, the budget recovers and the next sustained
        // breach fires.
        let m = DriftMonitor::new(DriftPolicy {
            bucket_refill: 0.5,
            ..p
        });
        let (cell, other) = (DriftCell::default(), DriftCell::default());
        for _ in 0..3 {
            m.observe(&cell, Some(100.0), 25.0, 10).unwrap();
        }
        for _ in 0..2 {
            m.observe(&other, Some(100.0), 25.0, 10).unwrap();
        }
        assert_eq!(
            m.observe(&other, Some(100.0), 25.0, 10).unwrap().action,
            DriftAction::Reprofile,
            "refill restored the budget"
        );
    }

    #[test]
    fn table_hits_scored_against_scaled_reference() {
        let m = DriftMonitor::new(tight_policy());
        let cell = DriftCell::default();
        // No reference yet: table hits are unscorable.
        assert_eq!(m.observe(&cell, None, 50.0, 10), None);
        // A prediction-carrying invocation sets reference = 400/100 = 4
        // per item².
        m.observe(&cell, Some(400.0), 400.0, 10).unwrap();
        // Table hit at N=20: expected 4·400 = 1600. Realized matches.
        let out = m.observe(&cell, None, 1600.0, 20).unwrap();
        assert!((out.ewma - 0.0).abs() < 1e-12);
        // Realized collapses to a quarter of expected: error 3.0.
        let out = m.observe(&cell, None, 400.0, 20).unwrap();
        assert!((out.ewma - 3.0).abs() < 1e-12);
    }

    #[test]
    fn disabled_monitor_and_bad_inputs_return_none() {
        let m = DriftMonitor::new(DriftPolicy::disabled());
        let cell = DriftCell::default();
        assert_eq!(m.observe(&cell, Some(100.0), 25.0, 10), None);
        let m = DriftMonitor::new(tight_policy());
        let cell = DriftCell::default();
        assert_eq!(m.observe(&cell, Some(100.0), f64::NAN, 10), None);
        assert_eq!(m.observe(&cell, Some(100.0), -1.0, 10), None);
        assert_eq!(m.observe(&cell, Some(100.0), 25.0, 0), None);
        assert_eq!(m.observe(&cell, Some(f64::INFINITY), 25.0, 10), None);
        assert_eq!(cell.ewma(), None, "rejected inputs fold nothing");
    }

    #[test]
    fn clone_is_deep() {
        let m = DriftMonitor::new(tight_policy());
        let cell = DriftCell::default();
        m.observe(&cell, Some(100.0), 25.0, 10).unwrap();
        let c = cell.clone();
        m.observe(&cell, Some(100.0), 100.0, 10).unwrap();
        assert!((c.ewma().unwrap() - 3.0).abs() < 1e-12);
        assert!((cell.ewma().unwrap() - 0.0).abs() < 1e-12);
        // The monitor's clone carries the bucket's level, not the bucket.
        let fork = m.clone();
        for _ in 0..3 {
            m.observe(&cell, Some(100.0), 25.0, 10).unwrap();
        }
        assert_eq!((m.tokens(), fork.tokens()), (1.0, 2.0));
    }

    #[test]
    fn watchdog_deadlines() {
        let w = Watchdog::new(WatchdogPolicy {
            enabled: true,
            profile_deadline: 1.0,
            split_deadline: 10.0,
        });
        assert!(!w.profile_overrun_within(0.5, None));
        assert!(w.profile_overrun_within(1.5, None));
        assert!(!w.split_overrun_within(5.0, None));
        assert!(w.split_overrun_within(11.0, None));
        // Non-finite elapsed is a broken sensor, not a hang: vetting's
        // NonFinite (retry-only) territory, never the breaker's.
        assert!(!w.profile_overrun_within(f64::NAN, None));
        assert!(!w.split_overrun_within(f64::INFINITY, None));
        let off = Watchdog::new(WatchdogPolicy::disabled());
        assert!(!off.profile_overrun_within(f64::INFINITY, None));
        assert!(!off.split_overrun_within(f64::INFINITY, None));
    }

    #[test]
    fn watchdog_budget_composes_with_policy_deadlines() {
        let w = Watchdog::new(WatchdogPolicy::with_deadlines(1.0, 10.0));
        // No budget: exactly the policy-only check.
        assert!(!w.profile_overrun_within(0.5, None));
        assert!(w.profile_overrun_within(1.5, None));
        assert!(w.split_overrun_within(11.0, None));
        // A tighter budget wins over the policy deadline...
        assert!(w.profile_overrun_within(0.5, Some(0.2)));
        assert!(w.split_overrun_within(5.0, Some(1.0)));
        // ...a looser one is inert.
        assert!(!w.profile_overrun_within(0.5, Some(100.0)));
        assert!(w.profile_overrun_within(1.5, Some(100.0)));
        // Non-finite elapsed stays a broken-sensor non-event.
        assert!(!w.profile_overrun_within(f64::NAN, Some(0.1)));
        // A budget binds even with the policy disabled: the tenant's
        // contract outranks a lax scheduler configuration.
        let off = Watchdog::new(WatchdogPolicy::disabled());
        assert!(off.profile_overrun_within(2.0, Some(1.0)));
        assert!(!off.profile_overrun_within(0.5, Some(1.0)));
        assert!(!off.split_overrun_within(f64::INFINITY, None));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn watchdog_with_deadlines_rejects_nonpositive() {
        let _ = WatchdogPolicy::with_deadlines(0.0, 10.0);
    }

    #[test]
    fn default_deadlines_sit_above_the_chaos_hang_timeout() {
        // The chaos layer clamps a recoverable GpuHang at 10 s; the
        // watchdog must not preempt the guard/breaker pipeline for those.
        let w = Watchdog::default();
        assert!(!w.profile_overrun_within(10.0, None));
        assert!(!w.split_overrun_within(10.0, None));
    }
}
