//! Observation validation: classify each profiling [`Observation`] as
//! clean or as a typed fault before it can reach the decision engine.
//!
//! On real hardware every observable EAS consumes is flaky — the energy
//! MSR drops samples and wraps, PCM counters glitch, iGPU drivers hang —
//! and one absurd reading folded into the kernel table poisons every
//! future reuse of that entry. [`ObservationGuard`] sits between the
//! backend and [`DecisionEngine`](crate::DecisionEngine): it applies
//! plausibility bounds (partly derived from the characterized platform
//! model) and rejects readings that no healthy machine could produce,
//! labelling each rejection with a [`FaultKind`] so the profile loop can
//! react differently to a hung GPU than to a dropped energy sample.
//!
//! The bounds are deliberately generous: a noisy-but-real observation must
//! never be rejected, because the fault-free path has to stay
//! behavior-identical to an unguarded scheduler. Only physically
//! impossible readings (non-finite times, throughput beyond any device,
//! more L3 misses than loads, power far above the platform ceiling) are
//! classified as faults.

use crate::power_model::PowerModel;
use easched_runtime::Observation;
use std::fmt;

/// Throughput no integrated device can reach, items/second. Real rates in
/// the calibrated platforms top out far below 1e9; anything past this is a
/// corrupted counter, not a fast GPU.
const MAX_PLAUSIBLE_RATE: f64 = 1.0e15;

/// Multiple of the model's maximum predicted package power tolerated
/// before an energy reading counts as implausible. Covers transients,
/// measurement noise, and model error with room to spare.
const POWER_SLACK: f64 = 20.0;

/// Observation windows shorter than this (seconds) skip the energy checks:
/// the register's 2⁻¹⁶ J granularity makes tiny windows legitimately read
/// zero.
const MIN_ENERGY_WINDOW: f64 = 1.0e-6;

/// L3 misses per load beyond which the counters are corrupt (every miss
/// is a load, so the physical ceiling is 1; slack for rounding).
const MAX_MISS_PER_LOAD: f64 = 1.5;

/// Why an observation was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A time/energy/counter field is NaN, infinite, or negative.
    NonFinite,
    /// The GPU was busy but completed zero items: a hang/timeout.
    GpuSilent,
    /// CPU throughput beyond anything physical (corrupted counter).
    ImplausibleCpuRate,
    /// GPU throughput beyond anything physical (corrupted counter or
    /// phantom completions from a wedged driver).
    ImplausibleGpuRate,
    /// A busy window measured zero energy: the register dropped samples
    /// or read stuck.
    EnergyDropout,
    /// Implied package power far above the platform's ceiling: a spurious
    /// register wrap or torn read.
    EnergyImplausible,
    /// Hardware counters are internally inconsistent (more L3 misses than
    /// loads).
    CounterCorrupt,
    /// The watchdog cancelled the round: it ran past the hard deadline on
    /// a profiling observation (DESIGN.md §11). Never produced by
    /// the observation guard itself — the profile loop synthesizes it
    /// when a round overruns — but it flows through the same rejection
    /// path: retry with a backed-off chunk, degrade past the budget.
    DeadlineExceeded,
}

impl FaultKind {
    /// Whether this fault implicates the GPU itself (rather than a
    /// sensor): these drive the circuit breaker toward CPU-only
    /// degradation, while sensor faults only trigger retries.
    pub(crate) fn implicates_gpu(self) -> bool {
        matches!(
            self,
            FaultKind::GpuSilent | FaultKind::ImplausibleGpuRate | FaultKind::DeadlineExceeded
        )
    }

    /// Stable numeric code used in telemetry records and trace exports.
    pub(crate) fn code(self) -> u8 {
        match self {
            FaultKind::NonFinite => 0,
            FaultKind::GpuSilent => 1,
            FaultKind::ImplausibleCpuRate => 2,
            FaultKind::ImplausibleGpuRate => 3,
            FaultKind::EnergyDropout => 4,
            FaultKind::EnergyImplausible => 5,
            FaultKind::CounterCorrupt => 6,
            FaultKind::DeadlineExceeded => 7,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultKind::NonFinite => "non-finite or negative field",
            FaultKind::GpuSilent => "GPU busy but silent (hang/timeout)",
            FaultKind::ImplausibleCpuRate => "implausible CPU throughput",
            FaultKind::ImplausibleGpuRate => "implausible GPU throughput",
            FaultKind::EnergyDropout => "energy register dropout",
            FaultKind::EnergyImplausible => "implausible package power",
            FaultKind::CounterCorrupt => "inconsistent hardware counters",
            FaultKind::DeadlineExceeded => "watchdog deadline exceeded",
        };
        f.write_str(s)
    }
}

/// Plausibility bounds for observations on one platform.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ObservationGuard {
    max_rate: f64,
    power_ceiling: f64,
}

impl ObservationGuard {
    /// Derives bounds from a characterized power model: the power ceiling
    /// is the model's maximum prediction over every workload class and α,
    /// times a generous slack factor.
    pub(crate) fn from_model(model: &PowerModel) -> ObservationGuard {
        let mut max_watts: f64 = 1.0;
        for curve in model.curves() {
            for step in 0..=20 {
                let alpha = f64::from(step) / 20.0;
                let w = curve.predict(alpha);
                if w.is_finite() {
                    max_watts = max_watts.max(w);
                }
            }
        }
        ObservationGuard {
            max_rate: MAX_PLAUSIBLE_RATE,
            power_ceiling: max_watts * POWER_SLACK,
        }
    }

    /// Classifies an observation: `Ok(())` if it is plausible, or the
    /// [`FaultKind`] describing why no healthy platform could have
    /// produced it.
    pub(crate) fn vet(&self, obs: &Observation) -> Result<(), FaultKind> {
        let times = [obs.elapsed, obs.cpu_time, obs.gpu_time];
        if times.iter().any(|t| !t.is_finite() || *t < 0.0) {
            return Err(FaultKind::NonFinite);
        }
        let extras = [
            obs.energy_joules,
            obs.counters.instructions,
            obs.counters.loads,
            obs.counters.l3_misses,
        ];
        if extras.iter().any(|v| !v.is_finite() || *v < 0.0) {
            return Err(FaultKind::NonFinite);
        }
        // A busy GPU that completed nothing is a hang, not a slow device:
        // a slow device still reports its chunk done (late).
        if obs.gpu_time > 0.0 && obs.gpu_items == 0 {
            return Err(FaultKind::GpuSilent);
        }
        if obs.gpu_rate() > self.max_rate || (obs.gpu_items > 0 && obs.gpu_time == 0.0) {
            return Err(FaultKind::ImplausibleGpuRate);
        }
        if obs.cpu_rate() > self.max_rate || (obs.cpu_items > 0 && obs.cpu_time == 0.0) {
            return Err(FaultKind::ImplausibleCpuRate);
        }
        if obs.elapsed > MIN_ENERGY_WINDOW {
            if obs.energy_joules <= 0.0 {
                return Err(FaultKind::EnergyDropout);
            }
            if obs.energy_joules / obs.elapsed > self.power_ceiling {
                return Err(FaultKind::EnergyImplausible);
            }
        }
        if obs.counters.loads >= 0.0
            && obs.counters.l3_misses > obs.counters.loads * MAX_MISS_PER_LOAD + 10.0
        {
            return Err(FaultKind::CounterCorrupt);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::WorkloadClass;
    use crate::power_model::PowerCurve;
    use easched_num::Polynomial;
    use easched_sim::CounterSnapshot;

    #[test]
    fn a_megawatt_reading_is_implausible() {
        let guard = guard();
        let mut obs = Observation {
            elapsed: 0.001,
            cpu_items: 1_000,
            gpu_items: 2_000,
            cpu_time: 0.001,
            gpu_time: 0.001,
            energy_joules: 0.05,
            ..Default::default()
        };
        assert_eq!(guard.vet(&obs), Ok(()));
        obs.energy_joules = 1.0e9; // a megawatt-scale reading
        assert_eq!(guard.vet(&obs), Err(FaultKind::EnergyImplausible));
    }

    fn guard() -> ObservationGuard {
        let curves = WorkloadClass::all()
            .into_iter()
            .map(|c| PowerCurve::new(c, Polynomial::constant(50.0), 0.0, 11))
            .collect();
        ObservationGuard::from_model(&PowerModel::new("flat", curves))
    }

    fn clean_obs() -> Observation {
        Observation {
            elapsed: 0.001,
            cpu_items: 1_000,
            gpu_items: 2_000,
            cpu_time: 0.001,
            gpu_time: 0.001,
            energy_joules: 0.05,
            counters: CounterSnapshot {
                instructions: 1.0e6,
                loads: 4.0e5,
                l3_misses: 1.0e5,
            },
        }
    }

    #[test]
    fn clean_observation_passes() {
        assert_eq!(guard().vet(&clean_obs()), Ok(()));
    }

    #[test]
    fn empty_observation_passes() {
        // run_split on an empty pool returns all-zero observations; they
        // carry no information but are not faults.
        assert_eq!(guard().vet(&Observation::default()), Ok(()));
    }

    #[test]
    fn nan_fields_rejected() {
        for mutate in [
            (|o: &mut Observation| o.elapsed = f64::NAN) as fn(&mut Observation),
            |o| o.cpu_time = f64::INFINITY,
            |o| o.gpu_time = -1.0,
            |o| o.energy_joules = f64::NAN,
            |o| o.counters.l3_misses = f64::NAN,
        ] {
            let mut o = clean_obs();
            mutate(&mut o);
            assert_eq!(guard().vet(&o), Err(FaultKind::NonFinite));
        }
    }

    #[test]
    fn hung_gpu_rejected_but_slow_gpu_accepted() {
        let mut hung = clean_obs();
        hung.gpu_items = 0;
        hung.gpu_time = 10.0;
        hung.elapsed = 10.0;
        assert_eq!(guard().vet(&hung), Err(FaultKind::GpuSilent));

        let mut slow = clean_obs();
        slow.gpu_items = 3; // pathologically slow, but alive
        slow.gpu_time = 7.0;
        slow.elapsed = 7.0;
        slow.energy_joules = 300.0;
        assert_eq!(guard().vet(&slow), Ok(()));
    }

    #[test]
    fn implausible_rates_rejected() {
        let mut o = clean_obs();
        o.gpu_items = 1 << 50;
        o.gpu_time = 1.0e-12;
        assert_eq!(guard().vet(&o), Err(FaultKind::ImplausibleGpuRate));

        let mut o = clean_obs();
        o.cpu_items = 1 << 50;
        o.cpu_time = 1.0e-12;
        assert_eq!(guard().vet(&o), Err(FaultKind::ImplausibleCpuRate));
    }

    #[test]
    fn energy_faults_classified() {
        let mut dropout = clean_obs();
        dropout.energy_joules = 0.0;
        assert_eq!(guard().vet(&dropout), Err(FaultKind::EnergyDropout));

        let mut wrap = clean_obs();
        wrap.energy_joules = 65_536.0;
        assert_eq!(guard().vet(&wrap), Err(FaultKind::EnergyImplausible));
    }

    #[test]
    fn tiny_windows_skip_energy_checks() {
        let mut o = clean_obs();
        o.elapsed = 1.0e-8;
        o.energy_joules = 0.0;
        assert_eq!(guard().vet(&o), Ok(()));
    }

    #[test]
    fn counter_corruption_rejected() {
        let mut o = clean_obs();
        o.counters.l3_misses = o.counters.loads * 1.0e6;
        assert_eq!(guard().vet(&o), Err(FaultKind::CounterCorrupt));
    }

    #[test]
    fn gpu_faults_implicate_gpu_sensor_faults_do_not() {
        assert!(FaultKind::GpuSilent.implicates_gpu());
        assert!(FaultKind::ImplausibleGpuRate.implicates_gpu());
        assert!(!FaultKind::EnergyDropout.implicates_gpu());
        assert!(!FaultKind::EnergyImplausible.implicates_gpu());
        assert!(!FaultKind::CounterCorrupt.implicates_gpu());
        assert!(!FaultKind::NonFinite.implicates_gpu());
        // A hung round is a GPU-side stall, not a sensor glitch.
        assert!(FaultKind::DeadlineExceeded.implicates_gpu());
    }

    #[test]
    fn fault_codes_are_dense_and_named() {
        let kinds = [
            FaultKind::NonFinite,
            FaultKind::GpuSilent,
            FaultKind::ImplausibleCpuRate,
            FaultKind::ImplausibleGpuRate,
            FaultKind::EnergyDropout,
            FaultKind::EnergyImplausible,
            FaultKind::CounterCorrupt,
            FaultKind::DeadlineExceeded,
        ];
        for (code, kind) in kinds.into_iter().enumerate() {
            assert_eq!(usize::from(kind.code()), code);
            assert!(!kind.to_string().is_empty());
        }
    }

    #[test]
    fn power_ceiling_scales_with_model() {
        assert!(guard().power_ceiling >= 50.0 * 10.0);
    }
}
