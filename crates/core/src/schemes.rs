//! The five comparison schemes of the evaluation (paper §5) and the
//! machinery to score a workload under each.
//!
//! * **CPU** — multi-core CPU alone (fixed α = 0);
//! * **GPU** — GPU alone (fixed α = 1);
//! * **Oracle** — the best fixed α found by exhaustive search over
//!   {0, 0.1, …, 1.0}, re-running the whole workload per point (the paper's
//!   near-ideal baseline);
//! * **PERF** — "the workload distribution which yields the best execution
//!   time *by using both CPU and GPU simultaneously*" (§5): the fixed
//!   interior α ∈ {0.1, …, 0.9} minimizing execution time, with no energy
//!   awareness;
//! * **EAS** — the energy-aware scheduler.
//!
//! Evaluation is trace-driven: the workload executes functionally once to
//! record its invocation sizes (and verify its output), then each scheme
//! replays the trace on a fresh machine.
//!
//! Four of the five are fixed-α replays on the same grid, and a replay's
//! [`RunMetrics`] do not depend on the objective that later scores them,
//! so they are all reads of one [`FixedSweep`]: CPU is its first point,
//! GPU its last, PERF the interior arg-min of time, Oracle the arg-min of
//! the objective. A comparison replays the trace `ORACLE_STEPS + 2` = 12
//! times — the sweep plus EAS.
//!
//! Each replay owns a fresh machine and its own scheduler, so the twelve
//! are independent jobs: they run on the work-stealing pool
//! ([`in_index_order`]) on up to `available_parallelism()` workers, EAS
//! first because it is the longest. Every result lands in the slot of its
//! job's index, so the sweep's order, the first-minimum tie rule and every
//! number read off them do not depend on the worker count.

use crate::eas::{EasConfig, EasScheduler};
use crate::objective::Objective;
use crate::power_model::PowerModel;
use easched_kernels::{in_index_order, record_trace, InvocationTrace, Workload};
use easched_runtime::{replay_trace, FixedAlpha, RunMetrics, Scheduler};
use easched_sim::{Machine, Platform};

/// Oracle sweep resolution: the paper's 0.1 grid, {0, 0.1, …, 1}.
const ORACLE_STEPS: usize = 10;

/// The α of grid point `i`.
fn grid_alpha(i: usize) -> f64 {
    i as f64 / ORACLE_STEPS as f64
}

/// Results of one scheme on one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchemeResult {
    /// Run totals.
    pub(crate) metrics: RunMetrics,
    /// Objective value (lower is better).
    pub score: f64,
}

/// All five schemes on one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadComparison {
    /// Table 1 abbreviation.
    pub abbrev: String,
    /// The metric being optimized.
    pub objective_name: String,
    /// CPU-alone result.
    pub cpu: SchemeResult,
    /// GPU-alone result.
    pub gpu: SchemeResult,
    /// Best-performance strategy result.
    pub perf: SchemeResult,
    /// Energy-aware scheduler result.
    pub eas: SchemeResult,
    /// Oracle result (best fixed α).
    pub oracle: SchemeResult,
    /// The α the Oracle chose.
    pub oracle_alpha: f64,
    /// The α EAS learned for this kernel.
    pub eas_alpha: Option<f64>,
}

impl WorkloadComparison {
    /// Efficiency of a scheme relative to Oracle, as the paper plots it:
    /// `oracle_score / scheme_score` (Oracle = 1.0, higher is better).
    pub fn efficiency(&self, scheme: SchemeResult) -> f64 {
        if scheme.score > 0.0 {
            self.oracle.score / scheme.score
        } else {
            0.0
        }
    }
}

fn scored(metrics: RunMetrics, objective: &Objective) -> SchemeResult {
    SchemeResult {
        metrics,
        score: objective.of_totals(metrics.energy_joules, metrics.time),
    }
}

/// The first point minimizing `select`, scored under `objective`.
fn best(
    points: &[(f64, RunMetrics)],
    select: &Objective,
    objective: &Objective,
) -> (f64, SchemeResult) {
    let key = |m: &RunMetrics| select.of_totals(m.energy_joules, m.time);
    let mut best = points.first().expect("fixed-alpha sweep is non-empty");
    for point in points {
        if key(&point.1) < key(&best.1) {
            best = point;
        }
    }
    (best.0, scored(best.1, objective))
}

/// One replay of a trace per point of the α grid, `(α, totals)` in grid
/// order (see [`Evaluator::fixed_sweep`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FixedSweep(Vec<(f64, RunMetrics)>);

impl FixedSweep {
    /// Oracle: the grid point with the best objective value.
    pub fn oracle(&self, objective: &Objective) -> (f64, SchemeResult) {
        best(&self.0, objective, objective)
    }
}

/// The evaluation driver: a platform plus its characterized power model.
#[derive(Debug, Clone)]
pub struct Evaluator {
    platform: Platform,
    model: PowerModel,
    /// Machine noise seed (same for every scheme → fair comparison).
    pub seed: u64,
}

impl Evaluator {
    /// Creates an evaluator.
    pub fn new(platform: Platform, model: PowerModel) -> Evaluator {
        Evaluator {
            platform,
            model,
            seed: 0,
        }
    }

    /// The platform under evaluation.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Scores one scheduler on a recorded trace (fresh machine).
    pub fn score_trace<S: Scheduler>(
        &self,
        traits: &easched_sim::KernelTraits,
        trace: &InvocationTrace,
        scheduler: &mut S,
        objective: &Objective,
    ) -> SchemeResult {
        scored(self.replay(traits, trace, scheduler), objective)
    }

    fn replay<S: Scheduler>(
        &self,
        traits: &easched_sim::KernelTraits,
        trace: &InvocationTrace,
        scheduler: &mut S,
    ) -> RunMetrics {
        let mut machine = Machine::with_seed(self.platform.clone(), self.seed);
        replay_trace(&mut machine, traits, 1, trace, scheduler)
    }

    /// Exhaustive Oracle search: best fixed α for the objective.
    pub fn oracle(
        &self,
        traits: &easched_sim::KernelTraits,
        trace: &InvocationTrace,
        objective: &Objective,
    ) -> (f64, SchemeResult) {
        self.fixed_sweep(traits, trace).oracle(objective)
    }

    /// The PERF scheme: the fixed distribution with the best *execution
    /// time* that keeps both devices busy (interior grid points only),
    /// scored under `objective`.
    pub fn perf_scheme(
        &self,
        traits: &easched_sim::KernelTraits,
        trace: &InvocationTrace,
        objective: &Objective,
    ) -> (f64, SchemeResult) {
        let interior = self.replay_grid(traits, trace, 1..=ORACLE_STEPS - 1);
        best(&interior, &Objective::Time, objective)
    }

    /// Replays the trace once per point of the whole α grid
    /// {0, 0.1, …, 1}; every fixed-α scheme is read off the result.
    pub fn fixed_sweep(
        &self,
        traits: &easched_sim::KernelTraits,
        trace: &InvocationTrace,
    ) -> FixedSweep {
        FixedSweep(self.replay_grid(traits, trace, 0..=ORACLE_STEPS))
    }

    /// One fixed-α replay per grid point, run as pool jobs, `(α, totals)`
    /// in grid order.
    fn replay_grid(
        &self,
        traits: &easched_sim::KernelTraits,
        trace: &InvocationTrace,
        grid: std::ops::RangeInclusive<usize>,
    ) -> Vec<(f64, RunMetrics)> {
        let first = *grid.start();
        in_index_order(grid.count(), |job| {
            let alpha = grid_alpha(first + job);
            (
                alpha,
                self.replay(traits, trace, &mut FixedAlpha::new(alpha)),
            )
        })
    }

    /// Runs the full five-scheme comparison for one workload.
    ///
    /// # Panics
    ///
    /// Panics if the workload fails functional verification — a scheduling
    /// evaluation on top of wrong outputs would be meaningless.
    pub fn compare(&self, workload: &dyn Workload, objective: &Objective) -> WorkloadComparison {
        let (trace, verification) = record_trace(workload);
        assert!(
            verification.is_passed(),
            "workload {} failed verification: {verification:?}",
            workload.spec().abbrev
        );
        self.compare_trace(workload, &trace, objective)
    }

    /// Like [`compare`](Self::compare) with a pre-recorded trace (lets the
    /// harness reuse one functional run across objectives).
    pub fn compare_trace(
        &self,
        workload: &dyn Workload,
        trace: &InvocationTrace,
        objective: &Objective,
    ) -> WorkloadComparison {
        let traits = workload.traits_for(&self.platform);
        // Job 0 is EAS, the longest replay, with the α it learned; job
        // `1 + i` is grid point `i`.
        let mut replays = in_index_order(ORACLE_STEPS + 2, |job| match job {
            0 => {
                let mut eas_sched =
                    EasScheduler::new(self.model.clone(), EasConfig::new(objective.clone()));
                let eas = self.replay(&traits, trace, &mut eas_sched);
                (eas, eas_sched.learned_alpha(1))
            }
            point => {
                let alpha = grid_alpha(point - 1);
                (
                    self.replay(&traits, trace, &mut FixedAlpha::new(alpha)),
                    None,
                )
            }
        });
        let (eas, eas_alpha) = replays.remove(0);
        let sweep = FixedSweep(
            replays
                .into_iter()
                .enumerate()
                .map(|(i, (metrics, _))| (grid_alpha(i), metrics))
                .collect(),
        );
        let points = &sweep.0;
        let (oracle_alpha, oracle) = sweep.oracle(objective);

        WorkloadComparison {
            abbrev: workload.spec().abbrev.to_string(),
            objective_name: objective.name().to_string(),
            cpu: scored(points[0].1, objective),
            gpu: scored(points[ORACLE_STEPS].1, objective),
            perf: best(&points[1..ORACLE_STEPS], &Objective::Time, objective).1,
            eas: scored(eas, objective),
            oracle,
            oracle_alpha,
            eas_alpha,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::{characterize, CharacterizationConfig};
    use easched_kernels::suite;

    fn quiet_desktop() -> Platform {
        let mut p = Platform::haswell_desktop();
        p.pcu.measurement_noise = 0.0;
        p
    }

    fn evaluator() -> Evaluator {
        evaluator_on(quiet_desktop())
    }

    fn evaluator_on(platform: Platform) -> Evaluator {
        let model = characterize(
            &platform,
            &CharacterizationConfig {
                alpha_steps: 10,
                ..Default::default()
            },
        );
        Evaluator::new(platform, model)
    }

    #[test]
    fn oracle_at_least_as_good_as_every_scheme() {
        let ev = evaluator();
        let w = suite::blackscholes_small();
        for objective in [Objective::Energy, Objective::EnergyDelay] {
            let c = ev.compare(w.as_ref(), &objective);
            for (name, s) in [
                ("cpu", c.cpu),
                ("gpu", c.gpu),
                ("perf", c.perf),
                ("eas", c.eas),
            ] {
                assert!(
                    c.oracle.score <= s.score * 1.0001,
                    "{objective:?}: oracle {} vs {name} {}",
                    c.oracle.score,
                    s.score
                );
                let eff = c.efficiency(s);
                assert!(eff > 0.0 && eff <= 1.0001, "{name} efficiency {eff}");
            }
        }
    }

    #[test]
    fn comparison_carries_metadata() {
        let ev = evaluator();
        let w = suite::mandelbrot_small();
        let c = ev.compare(w.as_ref(), &Objective::EnergyDelay);
        assert_eq!(c.abbrev, "MB");
        assert_eq!(c.objective_name, "EDP");
        assert!((0.0..=1.0).contains(&c.oracle_alpha));
        assert!(c.cpu.metrics.time > 0.0);
        // CPU-alone scheme really is α=0: no GPU time anywhere... verified
        // indirectly: its run is slower or equal to oracle's.
        assert!(c.cpu.metrics.time >= c.oracle.metrics.time * 0.999);
    }

    #[test]
    fn comparison_equals_the_one_assembled_replay_by_replay() {
        // The reference: every scheme from its own `score_trace` replays,
        // PERF's time arg-min re-scored by one more — 24 serial replays
        // for the 12 pool jobs of `compare_trace`. `==` on the whole
        // comparison, first-minimum tie rule included. The noisy seed-7
        // desktop is the configuration `paper_suite` times: a machine
        // shared between jobs, or seeded differently, draws other noise;
        // BFS brings many small, irregular invocations.
        let mut noisy = evaluator_on(Platform::haswell_desktop());
        noisy.seed = 7;
        for ev in [evaluator(), noisy] {
            for w in [
                suite::blackscholes_small(),
                suite::mandelbrot_small(),
                suite::bfs_small(),
            ] {
                let (trace, _) = record_trace(w.as_ref());
                let traits = w.traits_for(ev.platform());
                for objective in [Objective::EnergyDelay, Objective::Energy] {
                    let fixed = |alpha: f64, objective: &Objective| {
                        ev.score_trace(&traits, &trace, &mut FixedAlpha::new(alpha), objective)
                    };
                    let best = |grid: std::ops::RangeInclusive<usize>, objective: &Objective| {
                        let mut best: Option<(f64, SchemeResult)> = None;
                        for i in grid {
                            let alpha = grid_alpha(i);
                            let result = fixed(alpha, objective);
                            if best.as_ref().is_none_or(|(_, b)| result.score < b.score) {
                                best = Some((alpha, result));
                            }
                        }
                        best.unwrap()
                    };
                    let (perf_alpha, _) = best(1..=ORACLE_STEPS - 1, &Objective::Time);
                    let perf = fixed(perf_alpha, &objective);
                    let (oracle_alpha, oracle) = best(0..=ORACLE_STEPS, &objective);
                    assert_eq!(
                        ev.perf_scheme(&traits, &trace, &objective),
                        (perf_alpha, perf)
                    );
                    assert_eq!(
                        ev.oracle(&traits, &trace, &objective),
                        (oracle_alpha, oracle)
                    );

                    let mut eas_sched =
                        EasScheduler::new(ev.model.clone(), EasConfig::new(objective.clone()));
                    let eas = ev.score_trace(&traits, &trace, &mut eas_sched, &objective);
                    let reference = WorkloadComparison {
                        abbrev: w.spec().abbrev.to_string(),
                        objective_name: objective.name().to_string(),
                        cpu: fixed(0.0, &objective),
                        gpu: fixed(1.0, &objective),
                        perf,
                        eas,
                        oracle,
                        oracle_alpha,
                        eas_alpha: eas_sched.learned_alpha(1),
                    };
                    assert_eq!(ev.compare_trace(w.as_ref(), &trace, &objective), reference);
                }
            }
        }
    }

    #[test]
    fn scores_are_deterministic() {
        let ev = evaluator();
        let w = suite::blackscholes_small();
        let a = ev.compare(w.as_ref(), &Objective::Energy);
        let b = ev.compare(w.as_ref(), &Objective::Energy);
        assert_eq!(a, b);
    }
}
