//! High-level user-facing runtime: characterize once, then run workloads
//! under the energy-aware scheduler.
//!
//! A runtime drives one workload stream through a handle onto the one
//! scheduler state, [`SharedEas`]. The state is either the runtime's own
//! ([`EasRuntime::new`], [`EasRuntime::with_scheduler`]) or an
//! [`Arc<SharedEas>`] the caller keeps ([`EasRuntime::with_shared`]), in
//! which case any number of runtimes — typically one per thread — learn
//! into and reuse one global kernel table G.

use crate::eas::{EasConfig, EasScheduler};
use crate::power_model::PowerModel;
use crate::shared::{EasHandle, SharedEas, SharedEasExt};
use easched_kernels::{Verification, Workload};
use easched_runtime::{run_workload, RunMetrics};
use easched_sim::{Machine, Platform};
use std::sync::Arc;

/// Outcome of running one workload under the energy-aware runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// End-to-end execution time, seconds.
    pub time: f64,
    /// Package energy, joules.
    pub energy_joules: f64,
    /// Energy-delay product, joule-seconds.
    pub edp: f64,
    /// Functional verification of the workload's output.
    pub verification: Verification,
    /// Raw totals.
    pub metrics: RunMetrics,
}

/// The user-facing energy-aware runtime: a machine plus a scheduler
/// with its cross-workload kernel table.
///
/// # Examples
///
/// ```
/// use easched_core::{characterize, CharacterizationConfig, EasConfig, EasRuntime, Objective};
/// use easched_kernels::suite;
/// use easched_sim::Platform;
///
/// let platform = Platform::haswell_desktop();
/// let model = characterize(&platform, &CharacterizationConfig::default());
/// let mut runtime = EasRuntime::new(platform, model, EasConfig::new(Objective::EnergyDelay));
/// let outcome = runtime.run(suite::blackscholes_small().as_ref());
/// assert!(outcome.verification.is_passed());
/// assert!(outcome.edp > 0.0);
/// ```
#[derive(Debug)]
pub struct EasRuntime {
    machine: Machine,
    driver: EasHandle,
}

impl EasRuntime {
    /// Creates a runtime for `platform` from its characterized `model`,
    /// with a scheduler of its own.
    pub fn new(platform: Platform, model: PowerModel, config: EasConfig) -> EasRuntime {
        EasRuntime::with_scheduler(platform, EasScheduler::new(model, config))
    }

    /// Creates a runtime driving a *shared* scheduler: every runtime
    /// constructed from the same `Arc<SharedEas>` reads and writes one
    /// kernel table, so a ratio learned by one workload stream is
    /// immediately reused by the others.
    ///
    /// ```
    /// use easched_core::{characterize, CharacterizationConfig, EasConfig, EasRuntime,
    ///                    Objective, SharedEas};
    /// use easched_kernels::suite;
    /// use easched_sim::Platform;
    /// use std::sync::Arc;
    ///
    /// let platform = Platform::haswell_desktop();
    /// let model = characterize(&platform, &CharacterizationConfig::default());
    /// let eas = SharedEas::new(model, EasConfig::new(Objective::EnergyDelay));
    /// std::thread::scope(|s| {
    ///     for _ in 0..2 {
    ///         let eas = Arc::clone(&eas);
    ///         s.spawn(move || {
    ///             let mut rt = EasRuntime::with_shared(Platform::haswell_desktop(), eas);
    ///             assert!(rt.run(suite::blackscholes_small().as_ref()).verification.is_passed());
    ///         });
    ///     }
    /// });
    /// ```
    pub fn with_shared(platform: Platform, scheduler: Arc<SharedEas>) -> EasRuntime {
        EasRuntime {
            machine: Machine::new(platform),
            driver: scheduler.handle(),
        }
    }

    /// Creates a runtime around an already-built exclusive scheduler —
    /// for callers that configured the scheduler first (e.g. attached a
    /// telemetry sink with [`EasScheduler::set_telemetry`], or warmed its
    /// table) before handing it to a runtime.
    pub fn with_scheduler(platform: Platform, scheduler: EasScheduler) -> EasRuntime {
        EasRuntime {
            machine: Machine::new(platform),
            driver: Arc::new(scheduler.state).handle(),
        }
    }

    /// Runs a workload to completion (functional execution + verification),
    /// partitioning every kernel invocation with EAS.
    pub fn run(&mut self, workload: &dyn Workload) -> RunOutcome {
        let (metrics, verification) = run_workload(&mut self.machine, workload, &mut self.driver);
        RunOutcome {
            time: metrics.time,
            energy_joules: metrics.energy_joules,
            edp: metrics.edp(),
            verification,
            metrics,
        }
    }

    /// Access to the scheduler state (e.g. to inspect learned ratios or
    /// the decision count) — the runtime's own, or for a shared runtime
    /// ([`EasRuntime::with_shared`]) the one every stream drives.
    pub fn scheduler(&self) -> &SharedEas {
        self.driver.shared()
    }

    /// Fault-pipeline telemetry from the underlying scheduler (for a
    /// shared runtime the report aggregates every stream driving the same
    /// `Arc<SharedEas>`).
    pub fn health(&self) -> crate::health::HealthReport {
        self.scheduler().health()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::{characterize, CharacterizationConfig};
    use crate::objective::Objective;
    use easched_kernels::suite;

    fn model_for(platform: &Platform) -> PowerModel {
        characterize(
            platform,
            &CharacterizationConfig {
                alpha_steps: 10,
                ..Default::default()
            },
        )
    }

    fn quiet_platform() -> Platform {
        let mut platform = Platform::haswell_desktop();
        platform.pcu.measurement_noise = 0.0;
        platform
    }

    fn runtime() -> EasRuntime {
        let platform = quiet_platform();
        let model = model_for(&platform);
        EasRuntime::new(platform, model, EasConfig::new(Objective::EnergyDelay))
    }

    #[test]
    fn runs_and_verifies_workloads() {
        let mut rt = runtime();
        let out = rt.run(suite::blackscholes_small().as_ref());
        assert!(out.verification.is_passed());
        assert!(out.time > 0.0 && out.energy_joules > 0.0);
        assert!((out.edp - out.energy_joules * out.time).abs() < 1e-9);
    }

    #[test]
    fn kernel_table_persists_across_workload_runs() {
        let mut rt = runtime();
        rt.run(suite::mandelbrot_small().as_ref());
        let first_decisions = rt.scheduler().decisions();
        rt.run(suite::mandelbrot_small().as_ref());
        // Second run of the same kernel reuses G: no new decisions.
        assert_eq!(rt.scheduler().decisions(), first_decisions);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut rt = runtime();
        let t0 = rt.machine.now();
        rt.run(suite::blackscholes_small().as_ref());
        assert!(rt.machine.now() > t0);
    }

    #[test]
    fn shared_runtime_matches_exclusive() {
        let platform = quiet_platform();
        let model = model_for(&platform);

        let mut exclusive = EasRuntime::new(
            platform.clone(),
            model.clone(),
            EasConfig::new(Objective::EnergyDelay),
        );
        let a = exclusive.run(suite::blackscholes_small().as_ref());

        let eas = SharedEas::new(model, EasConfig::new(Objective::EnergyDelay));
        let mut shared = EasRuntime::with_shared(platform, Arc::clone(&eas));
        let b = shared.run(suite::blackscholes_small().as_ref());

        // Same machine, same policy, same workload → identical outcome.
        assert_eq!(a, b);
        assert_eq!(
            exclusive
                .scheduler()
                .learned_alpha(easched_runtime::kernel_id_of(
                    suite::blackscholes_small().as_ref()
                )),
            shared
                .scheduler()
                .learned_alpha(easched_runtime::kernel_id_of(
                    suite::blackscholes_small().as_ref()
                )),
        );
    }

    #[test]
    fn shared_runtimes_reuse_each_others_learning() {
        let platform = quiet_platform();
        let model = model_for(&platform);
        let eas = SharedEas::new(model, EasConfig::new(Objective::EnergyDelay));

        let mut first = EasRuntime::with_shared(platform.clone(), Arc::clone(&eas));
        first.run(suite::mandelbrot_small().as_ref());
        let decisions_after_first = eas.decisions();
        assert!(decisions_after_first > 0);

        // A *different* runtime sharing the table needs no new decisions.
        let mut second = EasRuntime::with_shared(platform, Arc::clone(&eas));
        second.run(suite::mandelbrot_small().as_ref());
        assert_eq!(eas.decisions(), decisions_after_first);
    }

    #[test]
    fn scheduler_is_inspectable_on_both_kinds_of_runtime() {
        let platform = quiet_platform();
        let model = model_for(&platform);
        let cfg = EasConfig::new(Objective::EnergyDelay);
        let mut own = EasRuntime::new(platform.clone(), model.clone(), cfg.clone());
        let mut shared = EasRuntime::with_shared(platform, SharedEas::new(model, cfg));
        for rt in [&mut own, &mut shared] {
            rt.run(suite::mandelbrot_small().as_ref());
        }
        assert!(own.scheduler().decisions() > 0);
        assert_eq!(own.scheduler().decisions(), shared.scheduler().decisions());
        assert_eq!(own.scheduler().health(), shared.scheduler().health());
    }
}
