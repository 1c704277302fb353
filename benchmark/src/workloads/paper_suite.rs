//! `paper_suite`: fig9's computation — CPU, GPU, PERF, EAS and Oracle
//! under EDP — over recorded traces of desktop workloads. Recording the
//! traces is functional kernel execution (seconds per workload, none of
//! it scheduling), so it is this workload's set-up and shows in
//! `setup_s`; the timed unit is `Evaluator::compare_trace` over every
//! recorded trace: simulator host time plus the scheduler.
//!
//! Only the five desktop workloads whose traces record in under ~0.6 s
//! are used (all twelve take over 20 s to record, more than a run may
//! spend on set-up); their fig9 rows do not depend on the other seven.

use super::{Checks, Unit, Workload};
use crate::seams::TracedScheduler;
use crate::trace;
use easched_core::{
    characterize, CharacterizationConfig, EasConfig, EasScheduler, Evaluator, Objective,
    PowerModel, WorkloadComparison,
};
use easched_kernels::{record_trace, suite, InvocationTrace, Workload as Kernel};
use easched_runtime::scheduler::FixedAlpha;
use easched_sim::Platform;
use std::time::Instant;

/// The committed figure the rows are checked against.
const FIG9_CSV: &str = include_str!("../../../results/fig9.csv");

/// Trace replays per `compare_trace`: CPU, GPU, nine PERF candidates and
/// the PERF re-score, EAS, eleven Oracle candidates.
const REPLAYS_PER_COMPARE: u64 = 24;

pub fn subset() -> Vec<Box<dyn Kernel>> {
    vec![
        suite::barnes_hut_desktop(),
        suite::bfs_desktop(),
        suite::face_detect_desktop(),
        suite::mandelbrot_desktop(),
        suite::matmul_desktop(),
    ]
}

pub struct PaperSuite {
    platform: Platform,
    model: PowerModel,
    seed: u64,
    pub kernels: Vec<(Box<dyn Kernel>, InvocationTrace)>,
    /// Seconds set-up spent in `record_trace`.
    pub record_s: f64,
    /// Rows of the first unit; later units must reproduce them.
    first_rows: Option<Vec<String>>,
    /// The last unit's comparisons.
    pub last: Vec<WorkloadComparison>,
    setup_checks: Checks,
}

impl PaperSuite {
    pub fn build(seed: u64) -> PaperSuite {
        let platform = Platform::haswell_desktop();
        let model = characterize(&platform, &CharacterizationConfig::default());
        let mut setup_checks = Checks::default();
        let recording = Instant::now();
        let kernels: Vec<_> = subset()
            .into_iter()
            .map(|k| {
                let (trace, verification) = record_trace(k.as_ref());
                setup_checks.check(verification.is_passed(), || {
                    format!("{} failed verification: {verification:?}", k.spec().abbrev)
                });
                (k, trace)
            })
            .collect();
        let record_s = recording.elapsed().as_secs_f64();
        PaperSuite {
            record_s,
            platform,
            model,
            seed,
            kernels,
            first_rows: None,
            last: Vec::new(),
            setup_checks,
        }
    }

    pub fn evaluator(&self, seed: u64) -> Evaluator {
        let mut ev = Evaluator::new(self.platform.clone(), self.model.clone());
        ev.seed = seed;
        ev
    }

    /// `Evaluator::compare_trace` taken apart along its public pieces so
    /// each scheme gets a span and EAS runs behind the scheduler seam.
    fn compare_traced(
        &self,
        ev: &Evaluator,
        kernel: &dyn Kernel,
        trace: &InvocationTrace,
    ) -> WorkloadComparison {
        let objective = Objective::EnergyDelay;
        let traits = kernel.traits_for(ev.platform());
        let fixed = |alpha: f64| {
            trace::span("scheme.fixed", || {
                ev.score_trace(&traits, trace, &mut FixedAlpha::new(alpha), &objective)
            })
        };
        let cpu = fixed(0.0);
        let gpu = fixed(1.0);
        let (_, perf) = trace::span("scheme.perf", || ev.perf_scheme(&traits, trace, &objective));
        let mut eas_sched = TracedScheduler(EasScheduler::new(
            self.model.clone(),
            EasConfig::new(objective.clone()),
        ));
        let eas = trace::span("scheme.eas", || {
            ev.score_trace(&traits, trace, &mut eas_sched, &objective)
        });
        let (oracle_alpha, oracle) =
            trace::span("scheme.oracle", || ev.oracle(&traits, trace, &objective));
        WorkloadComparison {
            abbrev: kernel.spec().abbrev.to_string(),
            objective_name: objective.name().to_string(),
            cpu,
            gpu,
            perf,
            eas,
            oracle,
            oracle_alpha,
            eas_alpha: eas_sched.0.learned_alpha(1),
        }
    }

    fn compare_all(&self, ev: &Evaluator, traced: bool) -> Vec<WorkloadComparison> {
        self.kernels
            .iter()
            .map(|(kernel, trace)| {
                if traced {
                    self.compare_traced(ev, kernel.as_ref(), trace)
                } else {
                    ev.compare_trace(kernel.as_ref(), trace, &Objective::EnergyDelay)
                }
            })
            .collect()
    }
}

/// One fig9 CSV row, formatted as `easched-bench`'s `efficiency_figure`
/// formats it.
fn fig9_row(c: &WorkloadComparison) -> String {
    let pct = |x: f64| format!("{:.1}%", x * 100.0);
    format!(
        "{},{},{},{},{},{:.1},{}",
        c.abbrev,
        pct(c.efficiency(c.cpu)),
        pct(c.efficiency(c.gpu)),
        pct(c.efficiency(c.perf)),
        pct(c.efficiency(c.eas)),
        c.oracle_alpha,
        c.eas_alpha.map_or("-".into(), |a| format!("{a:.2}")),
    )
}

impl Workload for PaperSuite {
    fn unit(&mut self, traced: bool) -> Unit {
        let ev = self.evaluator(self.seed);
        let start = Instant::now();
        let comparisons = self.compare_all(&ev, traced);
        let wall = start.elapsed();

        let invocations = self
            .kernels
            .iter()
            .map(|(_, t)| t.invocations() as u64 * REPLAYS_PER_COMPARE)
            .sum();
        let mut checks = Checks {
            attempted: invocations,
            failed: 0,
        };
        for c in &comparisons {
            // Oracle is the best fixed α, so it can lose to no fixed-α
            // scheme (EAS is adaptive and may beat it: FD does).
            checks.check(
                [c.cpu, c.gpu, c.perf]
                    .iter()
                    .all(|s| c.oracle.score <= s.score * 1.0001),
                || format!("{}: Oracle lost to a fixed-alpha scheme", c.abbrev),
            );
        }
        let rows: Vec<String> = comparisons.iter().map(fig9_row).collect();
        let first = self.first_rows.get_or_insert_with(|| rows.clone());
        checks.check(&rows == first, || {
            format!("rows changed between units (traced={traced}): {rows:?} vs {first:?}")
        });
        self.last = comparisons;
        Unit {
            invocations,
            wall,
            batch_ns: Vec::new(),
            checks,
        }
    }

    fn verify(&mut self) -> Checks {
        // fig9.csv was generated with the evaluator's default machine
        // seed (0), whatever --seed the timed units used.
        let mut checks = self.setup_checks;
        let ev = self.evaluator(0);
        for c in self.compare_all(&ev, false) {
            let row = fig9_row(&c);
            checks.check(FIG9_CSV.lines().any(|line| line == row), || {
                format!("row {row:?} is not in the committed results/fig9.csv")
            });
        }
        checks
    }
}
