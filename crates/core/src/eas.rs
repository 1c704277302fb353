//! The energy-aware scheduler — the paper's Figure 7 algorithm.
//!
//! Per kernel invocation:
//!
//! 1. If the kernel's offload ratio α is already in the global table G,
//!    reuse it (steps 2–4).
//! 2. If N is smaller than `GPU_PROFILE_SIZE`, run everything on the CPU
//!    (steps 6–10).
//! 3. Otherwise **repeat online profiling for half the iterations** (the
//!    size-based strategy from Kaleem et al.): each round offloads
//!    `GPU_PROFILE_SIZE` items to the GPU while CPU workers drain the pool,
//!    yielding combined-mode throughputs R_C, R_G and hardware counters;
//!    classify the workload, pick the matching power curve P(α), build
//!    T(α) from Equations 1–4, and grid-minimize the objective
//!    OBJ(P(α), T(α)) over α ∈ {0, 0.1, …, 1} (steps 13–22).
//! 4. Run the remaining iterations at the chosen α (steps 23–25) and fold α
//!    into G with sample-weighted accumulation (step 26).
//!
//! The policy observes nothing but times, the energy register, and two
//! hardware counters — black-box end to end.
//!
//! This module is a thin *composition*: the pure per-observation policy
//! lives in [`DecisionEngine`](crate::DecisionEngine), the global table G
//! in [`KernelTable`](crate::KernelTable), the Figure 7 control flow in
//! `profile_loop`, and the state that ties them together in one struct,
//! [`SharedEas`]. [`EasScheduler`] is that struct's exclusive face — the
//! classic `&mut self` [`Scheduler`] API single-stream drivers and the
//! figures use — and derefs to it for every accessor; an `Arc<SharedEas>`
//! is the `&self` face tenants, fleet nodes and threads share.

use crate::classify::{Classifier, WorkloadClass};
use crate::health::FaultPolicy;
use crate::journal::{StoreError, TableStore};
use crate::objective::Objective;
use crate::power_model::PowerModel;
use crate::seed::RunSeed;
use crate::selfheal::{DriftPolicy, WatchdogPolicy};
use crate::shared::SharedEas;
use easched_runtime::{
    Backend, Clock, InvocationCtx, KernelId, Observation, Scheduler, StdFs, Vfs,
};
use easched_telemetry::TelemetrySink;
use std::ops::Deref;
use std::path::Path;
use std::sync::Arc;

/// How the objective is minimized over the offload ratio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AlphaSearch {
    /// The paper's method: evaluate the objective at `steps + 1` grid
    /// points over [0, 1] (paper: 10 → 0.1 increments).
    Grid(usize),
    /// Continuous golden-section search to the given bracket tolerance —
    /// a future-work-style refinement; OBJ(P(α), T(α)) is unimodal for the
    /// built-in objectives, so this converges to the same optimum with
    /// fewer evaluations at high precision (ablation §5.2).
    GoldenSection {
        /// Final bracket width.
        tol: f64,
    },
}

/// EAS configuration.
#[derive(Debug, Clone)]
pub struct EasConfig {
    /// The energy metric to minimize.
    pub objective: Objective,
    /// Minimization strategy over α.
    pub alpha_search: AlphaSearch,
    /// Fraction of a first-seen invocation spent in repeated profiling
    /// (paper: 1/2, the size-based strategy).
    pub profile_fraction: f64,
    /// Classifier thresholds.
    pub classifier: Classifier,
    /// How profiling-round α decisions fold into the kernel table G.
    pub accumulation: Accumulation,
    /// Stop the repeated-profiling loop early once this many *consecutive*
    /// rounds decide the same α (the estimate has converged); the N/2 bound
    /// still caps the loop. This keeps the paper's near-zero-overhead claim
    /// honest on single-invocation kernels, where profiling to N/2 at
    /// combined-mode power would otherwise cost measurable energy.
    pub profile_stable_rounds: usize,
    /// Re-profile a known kernel every `k`-th invocation instead of blindly
    /// reusing G — the paper's "for workloads where the same kernel behaves
    /// differently over time, we repeat profiling step since our online
    /// profiling has low overhead" (§3.1). Re-profiled ratios fold into G
    /// with sample weighting, averaging out per-invocation noise on
    /// irregular kernels. `None` disables (pure Figure 7 reuse).
    pub reprofile_every: Option<u64>,
    /// Fault-handling policy: retry budget for rejected profiling rounds
    /// and the GPU circuit breaker's trip/quarantine parameters (see
    /// [`FaultPolicy`]).
    pub(crate) fault: FaultPolicy,
    /// Drift-response policy: when sustained predicted-vs-realized EDP
    /// drift re-profiles a kernel (see [`DriftPolicy`]; DESIGN.md §11).
    pub drift: DriftPolicy,
    /// Watchdog deadlines on profiling rounds and chunk executions (see
    /// [`WatchdogPolicy`]).
    pub watchdog: WatchdogPolicy,
    /// The run's root seed: every stochastic input of a run built from
    /// this config (chaos plans, sim backends, workload generation)
    /// should derive from it by name (see [`RunSeed`]). Recorded in a
    /// `RunLog`'s header, and part of the config fingerprint a replay
    /// checks.
    pub(crate) seed: RunSeed,
}

impl EasConfig {
    /// The paper's configuration for a given objective.
    pub fn new(objective: Objective) -> EasConfig {
        EasConfig {
            objective,
            alpha_search: AlphaSearch::Grid(10),
            profile_fraction: 0.5,
            classifier: Classifier::default(),
            accumulation: Accumulation::SampleWeighted,
            profile_stable_rounds: 3,
            reprofile_every: Some(32),
            fault: FaultPolicy::default(),
            drift: DriftPolicy::default(),
            watchdog: WatchdogPolicy::default(),
            seed: RunSeed::default(),
        }
    }

    /// The same configuration with a different root seed (builder style).
    pub fn with_seed(mut self, seed: RunSeed) -> EasConfig {
        self.seed = seed;
        self
    }
}

/// Strategy for folding newly computed offload ratios into the kernel
/// table G.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Accumulation {
    /// The paper's choice: weight each α by the number of iterations it was
    /// computed from (the sample-weighted technique from Kaleem et al.).
    SampleWeighted,
    /// Keep only the most recent α (ablation baseline).
    LastValue,
}

/// One α decision (the paper's Fig 7 steps 15–20). The scheduler keeps
/// none of these: each is counted, reported to the telemetry sink as a
/// [`ControlEvent::Decided`](easched_telemetry::ControlEvent), and the
/// invocation's last one is summarized in its `DecisionRecord`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Decision {
    /// The kernel the decision was made for.
    pub kernel: KernelId,
    /// Measured combined-mode CPU throughput, items/s.
    pub r_c: f64,
    /// Measured combined-mode GPU throughput, items/s.
    pub r_g: f64,
    /// The workload class the observation mapped to.
    pub class: WorkloadClass,
    /// Iterations remaining when the decision was made.
    pub n_remaining: u64,
    /// The chosen offload ratio.
    pub alpha: f64,
}

/// The energy-aware scheduler behind the classic exclusive (`&mut self`)
/// [`Scheduler`] API: one workload stream, one scheduler.
///
/// This is the exclusive face of [`SharedEas`], the one struct that owns
/// scheduler state: it holds a `SharedEas` by value and derefs to it, so
/// `health`, `table`, `decisions`, `learned_alpha`, `store`, `checkpoint`
/// and the rest are the same methods both faces answer, and scheduling
/// runs the same invocation path. For N concurrent
/// workload streams sharing one learned table, build a [`SharedEas`]
/// directly or convert with [`into_shared`](EasScheduler::into_shared).
///
/// `Clone` forks: the copy learns into its own table, health state and
/// decision counter.
#[derive(Debug, Clone)]
pub struct EasScheduler {
    pub(crate) state: SharedEas,
    current_kernel: KernelId,
}

impl Deref for EasScheduler {
    type Target = SharedEas;

    fn deref(&self) -> &SharedEas {
        &self.state
    }
}

impl EasScheduler {
    /// Creates the scheduler from a platform's characterized power model.
    ///
    /// # Panics
    ///
    /// Panics if `config.profile_fraction` is outside (0, 1] — a zero
    /// fraction would silently disable profiling and degenerate every
    /// first-seen kernel to CPU-only execution.
    pub fn new(model: PowerModel, config: EasConfig) -> EasScheduler {
        EasScheduler {
            state: SharedEas::build(model, config, "EAS", None, None),
            current_kernel: 0,
        }
    }

    /// Like [`new`](EasScheduler::new), but with crash-safe persistence
    /// rooted at `dir`: the kernel table — including taint and breaker
    /// state — is recovered from the store's snapshot + journal, and every
    /// subsequent table mutation is journaled so a `kill -9` at any point
    /// loses at most the invocation in flight (DESIGN.md §11).
    pub fn with_persistence(
        model: PowerModel,
        config: EasConfig,
        dir: impl AsRef<Path>,
    ) -> Result<EasScheduler, StoreError> {
        EasScheduler::with_persistence_vfs(model, config, dir, Arc::new(StdFs))
    }

    /// [`with_persistence`](EasScheduler::with_persistence) with an
    /// explicit [`Vfs`], so storage-chaos runs can inject I/O faults
    /// into the journal without touching the scheduling path
    /// (DESIGN.md §16).
    pub fn with_persistence_vfs(
        model: PowerModel,
        config: EasConfig,
        dir: impl AsRef<Path>,
        vfs: Arc<dyn Vfs>,
    ) -> Result<EasScheduler, StoreError> {
        let opened = TableStore::open_with(dir, vfs)?;
        Ok(EasScheduler {
            state: SharedEas::build(model, config, "EAS", None, Some(opened)),
            current_kernel: 0,
        })
    }

    /// Attaches a telemetry sink: every subsequent invocation emits one
    /// [`DecisionRecord`](easched_telemetry::DecisionRecord) describing
    /// which Figure 7 path ran, what the model predicted, and what the
    /// platform realized (DESIGN.md §10). Pass `None` to detach; the
    /// scheduling path is the same with or without a sink.
    pub fn set_telemetry(&mut self, sink: Option<Arc<dyn TelemetrySink>>) {
        self.state.telemetry = sink;
    }

    /// Replaces the scheduler's time source. The clock only times the
    /// vet+decide path for telemetry (`DecisionRecord::decide_nanos`), so
    /// with a deterministic clock — e.g.
    /// [`TickClock`](easched_runtime::TickClock) — a simulated run's
    /// telemetry stream is bit-reproducible; record/replay installs one
    /// on both sides. Defaults to
    /// [`WallClock`](easched_runtime::WallClock).
    pub fn set_clock(&mut self, clock: Arc<dyn Clock>) {
        self.state.clock = clock;
    }

    /// One α decision from a profiling observation (Fig 7 steps 15–20):
    /// derive R_C/R_G, classify, pick the power curve, and grid-minimize the
    /// objective over the remaining iterations, then count and report the
    /// decision as a profiling round does. Public so the benchmark's
    /// `core.eas.log_push_ns` lane can time the report against a bare
    /// [`DecisionEngine::decide`](crate::DecisionEngine::decide).
    pub fn decide_alpha(&mut self, obs: &Observation, n_remaining: u64) -> f64 {
        let engine = &self.state.engine;
        let decision = engine.decide(self.current_kernel, obs, n_remaining);
        self.state.note_decision(&decision);
        decision.alpha
    }
}

impl Scheduler for EasScheduler {
    fn name(&self) -> &str {
        &self.state.name
    }

    fn schedule(&mut self, kernel: KernelId, backend: &mut dyn Backend) {
        self.current_kernel = kernel;
        self.state
            .schedule(kernel, backend, InvocationCtx::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::WorkloadClass;
    use crate::power_model::PowerCurve;
    use easched_num::Polynomial;
    use easched_runtime::test_support::FakeBackend;

    /// A flat power model: every class draws `watts` at any α, except that
    /// CPU-heavier mixes can be made pricier via `slope` (power =
    /// watts − slope·α).
    fn linear_model(watts: f64, slope: f64) -> PowerModel {
        let curves = WorkloadClass::all()
            .into_iter()
            .map(|c| PowerCurve::new(c, Polynomial::new(vec![watts, -slope]), 0.0, 11))
            .collect();
        PowerModel::new("fake", curves)
    }

    #[test]
    fn small_n_goes_cpu_only() {
        let mut eas = EasScheduler::new(linear_model(50.0, 0.0), EasConfig::new(Objective::Energy));
        let mut b = FakeBackend::new(100, 1000.0, 1000.0);
        eas.schedule(1, &mut b);
        assert_eq!(b.remaining(), 0);
        assert_eq!(b.log, vec!["split(0.00)"]);
        assert_eq!(eas.learned_alpha(1), Some(0.0));
    }

    #[test]
    fn profiles_then_splits_first_invocation() {
        let mut eas = EasScheduler::new(linear_model(50.0, 0.0), EasConfig::new(Objective::Time));
        let mut b = FakeBackend::new(100_000, 1.0e6, 2.0e6);
        eas.schedule(7, &mut b);
        assert_eq!(b.remaining(), 0);
        assert!(
            b.log.iter().any(|l| l.starts_with("profile")),
            "{:?}",
            b.log
        );
        assert!(b.log.last().unwrap().starts_with("split"), "{:?}", b.log);
        // Time objective on a 1:2 machine → α_PERF ≈ 0.667, grid → 0.7.
        let a = eas.learned_alpha(7).unwrap();
        assert!((a - 0.7).abs() < 0.01, "alpha {a}");
    }

    #[test]
    fn reuses_learned_alpha_without_reprofiling() {
        let mut eas = EasScheduler::new(linear_model(50.0, 0.0), EasConfig::new(Objective::Time));
        let mut b = FakeBackend::new(100_000, 1.0e6, 2.0e6);
        eas.schedule(7, &mut b);
        let mut b2 = FakeBackend::new(100_000, 1.0e6, 2.0e6);
        eas.schedule(7, &mut b2);
        assert_eq!(b2.log.len(), 1, "second invocation reuses G: {:?}", b2.log);
        assert!(b2.log[0].starts_with("split"));
    }

    #[test]
    fn energy_objective_prefers_cheaper_device() {
        // Power falls steeply with α (P(0)=80 W, P(1)=20 W) while rates are
        // equal: energy minimization should pick a GPU-heavy split even
        // though it is slower than the balanced one (E(1)=20·T < E(0.5)=25·T).
        let mut eas =
            EasScheduler::new(linear_model(80.0, 60.0), EasConfig::new(Objective::Energy));
        let mut b = FakeBackend::new(100_000, 1.0e6, 1.0e6);
        eas.schedule(3, &mut b);
        let a = eas.learned_alpha(3).unwrap();
        assert!(a > 0.6, "energy objective should go GPU-heavy, got {a}");

        // Same machine, time objective: balanced split.
        let mut perf = EasScheduler::new(linear_model(80.0, 60.0), EasConfig::new(Objective::Time));
        let mut b = FakeBackend::new(100_000, 1.0e6, 1.0e6);
        perf.schedule(3, &mut b);
        let a = perf.learned_alpha(3).unwrap();
        assert!(
            (a - 0.5).abs() < 0.01,
            "time objective balances equal devices, got {a}"
        );
    }

    #[test]
    fn dead_gpu_routes_everything_to_cpu() {
        let mut eas = EasScheduler::new(linear_model(50.0, 0.0), EasConfig::new(Objective::Energy));
        let mut b = FakeBackend::new(100_000, 1.0e6, 1.0e6);
        // Simulate a dead GPU by zeroing the observed rate post-hoc: use a
        // backend with a GPU so slow it contributes nothing measurable.
        b.gpu_rate = 1e-9;
        eas.schedule(9, &mut b);
        assert_eq!(b.remaining(), 0);
        let a = eas.learned_alpha(9).unwrap();
        assert!(a < 0.05, "dead GPU → CPU alone, got {a}");
    }

    #[test]
    fn sample_weighted_accumulation_converges() {
        let eas = EasScheduler::new(linear_model(50.0, 0.0), EasConfig::new(Objective::Time));
        // Step 26 as the loop performs it, under the configured strategy.
        let accumulate = |kernel, alpha, weight| {
            let strategy = eas.state.engine.config().accumulation;
            eas.table().accumulate(kernel, alpha, weight, strategy);
        };
        accumulate(5, 1.0, 100.0);
        accumulate(5, 0.0, 100.0);
        assert!((eas.learned_alpha(5).unwrap() - 0.5).abs() < 1e-9);
        accumulate(5, 0.5, 200.0);
        assert!((eas.learned_alpha(5).unwrap() - 0.5).abs() < 1e-9);
        // Weighting matters: a heavy sample dominates.
        accumulate(6, 0.0, 1.0);
        accumulate(6, 1.0, 999.0);
        assert!(eas.learned_alpha(6).unwrap() > 0.99);
    }

    #[test]
    fn reprofile_every_triggers_new_profiling() {
        let mut cfg = EasConfig::new(Objective::Time);
        cfg.reprofile_every = Some(2);
        let mut eas = EasScheduler::new(linear_model(50.0, 0.0), cfg);
        let run = |eas: &mut EasScheduler| {
            let mut b = FakeBackend::new(100_000, 1.0e6, 2.0e6);
            eas.schedule(1, &mut b);
            b.log
        };
        run(&mut eas); // first: profiles
        let second = run(&mut eas); // seen=1: reuse
        assert_eq!(second.len(), 1);
        let third = run(&mut eas); // seen=2: re-profile
        assert!(third.len() > 1, "expected re-profiling: {third:?}");
    }

    #[test]
    fn empty_invocation_is_noop() {
        let mut eas = EasScheduler::new(linear_model(50.0, 0.0), EasConfig::new(Objective::Energy));
        let mut b = FakeBackend::new(0, 1.0e6, 1.0e6);
        eas.schedule(1, &mut b);
        assert!(b.log.is_empty());
        assert_eq!(eas.learned_alpha(1), None);
    }

    #[test]
    fn decisions_counted() {
        let mut eas = EasScheduler::new(linear_model(50.0, 0.0), EasConfig::new(Objective::Time));
        assert_eq!(eas.decisions(), 0);
        let mut b = FakeBackend::new(100_000, 1.0e6, 2.0e6);
        eas.schedule(1, &mut b);
        assert!(eas.decisions() > 0);
    }

    #[test]
    fn cloned_scheduler_forks_the_table() {
        let mut eas = EasScheduler::new(linear_model(50.0, 0.0), EasConfig::new(Objective::Time));
        let mut b = FakeBackend::new(100_000, 1.0e6, 2.0e6);
        eas.schedule(7, &mut b);
        let mut fork = eas.clone();
        let mut b2 = FakeBackend::new(100_000, 1.0e6, 2.0e6);
        eas.schedule(8, &mut b2);
        assert!(eas.learned_alpha(8).is_some());
        assert_eq!(fork.learned_alpha(8), None, "clone must be independent");
        assert_eq!(fork.learned_alpha(7), eas.learned_alpha(7));

        // The fork owns its decision counter too: `bisect` clones a
        // pristine scheduler per candidate and replays each one alone.
        let (decisions, forked) = (eas.decisions(), fork.decisions());
        let mut b3 = FakeBackend::new(100_000, 1.0e6, 2.0e6);
        fork.schedule(9, &mut b3);
        assert!(fork.learned_alpha(9).is_some());
        assert_eq!(eas.learned_alpha(9), None);
        assert_eq!(eas.decisions(), decisions);
        assert!(fork.decisions() > forked, "the fork counts alone");
    }
}
