//! One-time black-box power characterization of a platform (paper §2).
//!
//! For each of the eight micro-benchmarks, the GPU offload ratio is swept
//! over a grid; at each point the micro-benchmark runs on a fresh machine
//! and **average package power is measured exactly as the paper measures
//! it**: two reads of the (wrapping) energy register divided by elapsed
//! time. A sixth-order polynomial is then fit per category (Figures 5–6).
//!
//! The sweep needs no knowledge of the PCU, the power tables, or the
//! bandwidth model — it drives the machine through the same black-box
//! surface the scheduler uses.

use crate::classify::WorkloadClass;
use crate::power_model::{PowerCurve, PowerModel};
use easched_kernels::{characterization_suite, MicroBenchmark};
use easched_num::polyfit;
use easched_sim::{EnergyCounter, Machine, PhasePlan, Platform};
use std::error::Error;
use std::fmt;

/// Error from a characterization attempt that cannot produce a model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CharacterizeError {
    /// A category sweep could not be fit — too few points for the
    /// polynomial order, or degenerate measurements.
    DegenerateSweep {
        /// Label of the micro-benchmark whose sweep failed.
        label: String,
        /// What the fitting routine objected to.
        reason: String,
    },
}

impl fmt::Display for CharacterizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CharacterizeError::DegenerateSweep { label, reason } => {
                write!(f, "sweep {label:?} is unfittable: {reason}")
            }
        }
    }
}

impl Error for CharacterizeError {}

/// Parameters of the characterization sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CharacterizationConfig {
    /// Offload-ratio sweep points (grid over [0, 1]); the paper samples
    /// every 5–10 %.
    pub alpha_steps: usize,
    /// Polynomial order of the fit (paper: 6).
    pub poly_order: usize,
    /// Times each (benchmark, α) point is repeated; powers are averaged.
    pub repetitions: usize,
}

impl Default for CharacterizationConfig {
    fn default() -> Self {
        CharacterizationConfig {
            alpha_steps: 20, // 5% increments: 21 sweep points
            poly_order: 6,
            repetitions: 1,
        }
    }
}

/// A single sweep point: measured average package power at one offload
/// ratio.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// GPU offload ratio.
    pub alpha: f64,
    /// Measured average package power, watts.
    pub watts: f64,
    /// Run duration, seconds.
    pub(crate) seconds: f64,
}

/// The raw sweep for one micro-benchmark, kept for figure regeneration.
#[derive(Debug, Clone, PartialEq)]
pub struct CategorySweep {
    /// The class this sweep characterizes.
    pub class: WorkloadClass,
    /// Human-readable label.
    pub label: String,
    /// Measured points in α order.
    pub points: Vec<SweepPoint>,
}

/// Runs one micro-benchmark at one offload ratio on a fresh machine and
/// measures average package power through the energy register.
pub(crate) fn measure_point(
    platform: &Platform,
    micro: &MicroBenchmark,
    alpha: f64,
    seed: u64,
) -> SweepPoint {
    let mut machine = Machine::with_seed(platform.clone(), seed);
    let t0 = machine.now();
    let e0 = machine.read_energy_raw();
    machine.run_phase(
        micro.traits(),
        &PhasePlan::split(micro.items, alpha).with_seed(seed),
    );
    let seconds = machine.now() - t0;
    let joules = EnergyCounter::delta_joules(e0, machine.read_energy_raw());
    SweepPoint {
        alpha,
        watts: if seconds > 0.0 { joules / seconds } else { 0.0 },
        seconds,
    }
}

/// Sweeps one micro-benchmark over the α grid.
pub(crate) fn sweep_category(
    platform: &Platform,
    micro: &MicroBenchmark,
    config: &CharacterizationConfig,
) -> CategorySweep {
    let class = WorkloadClass {
        memory_bound: micro.memory_bound,
        cpu_short: micro.cpu_short,
        gpu_short: micro.gpu_short,
    };
    let mut points = Vec::with_capacity(config.alpha_steps + 1);
    for i in 0..=config.alpha_steps {
        let alpha = i as f64 / config.alpha_steps as f64;
        let mut watts = 0.0;
        let mut seconds = 0.0;
        for rep in 0..config.repetitions.max(1) {
            let p = measure_point(platform, micro, alpha, (i as u64) << 8 | rep as u64);
            watts += p.watts;
            seconds += p.seconds;
        }
        let reps = config.repetitions.max(1) as f64;
        points.push(SweepPoint {
            alpha,
            watts: watts / reps,
            seconds: seconds / reps,
        });
    }
    CategorySweep {
        class,
        label: micro.label(),
        points,
    }
}

/// Fits the sweep's power curve and reports its R², returning a
/// degenerate sweep as an error instead of panicking.
///
/// # Errors
///
/// [`CharacterizeError::DegenerateSweep`] when the sweep has fewer points
/// than `poly_order + 1` or the measurements cannot be fit.
pub fn try_fit_curve_with_r2(
    sweep: &CategorySweep,
    poly_order: usize,
) -> Result<(PowerCurve, f64), CharacterizeError> {
    let xs: Vec<f64> = sweep.points.iter().map(|p| p.alpha).collect();
    let ys: Vec<f64> = sweep.points.iter().map(|p| p.watts).collect();
    let fit = polyfit(&xs, &ys, poly_order).map_err(|e| CharacterizeError::DegenerateSweep {
        label: sweep.label.clone(),
        reason: e.to_string(),
    })?;
    let rmse = fit.rmse();
    let samples = fit.samples();
    let r2 = fit.r_squared();
    Ok((
        PowerCurve::new(sweep.class, fit.into_poly(), rmse, samples),
        r2,
    ))
}

/// Full black-box characterization: sweeps all eight micro-benchmarks and
/// fits one curve per class.
///
/// This is the one-time-per-platform step; the returned [`PowerModel`] is
/// reused for every workload on that platform.
///
/// # Examples
///
/// ```
/// use easched_core::{characterize, CharacterizationConfig};
/// use easched_sim::Platform;
///
/// let model = characterize(&Platform::haswell_desktop(), &CharacterizationConfig {
///     alpha_steps: 10,
///     ..Default::default()
/// });
/// assert_eq!(model.curves().len(), 8);
/// ```
///
/// # Panics
///
/// Panics on an unfittable sweep (a configuration with fewer than
/// `poly_order + 1` sweep points).
pub fn characterize(platform: &Platform, config: &CharacterizationConfig) -> PowerModel {
    try_characterize(platform, config).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible core of [`characterize`]: reports a degenerate sweep as an
/// error instead of panicking.
///
/// # Errors
///
/// [`CharacterizeError::DegenerateSweep`] for the first category whose
/// sweep cannot be fit.
pub(crate) fn try_characterize(
    platform: &Platform,
    config: &CharacterizationConfig,
) -> Result<PowerModel, CharacterizeError> {
    Ok(try_characterize_with_sweeps(platform, config)?.0)
}

/// Characterization including the raw sweeps (for regenerating Figures
/// 5–6).
///
/// # Panics
///
/// Panics on an unfittable sweep.
pub fn characterize_with_sweeps(
    platform: &Platform,
    config: &CharacterizationConfig,
) -> (PowerModel, Vec<CategorySweep>) {
    try_characterize_with_sweeps(platform, config).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible core of [`characterize_with_sweeps`].
///
/// # Errors
///
/// [`CharacterizeError::DegenerateSweep`] for the first category whose
/// sweep cannot be fit.
pub(crate) fn try_characterize_with_sweeps(
    platform: &Platform,
    config: &CharacterizationConfig,
) -> Result<(PowerModel, Vec<CategorySweep>), CharacterizeError> {
    let sweeps: Vec<CategorySweep> = characterization_suite(platform)
        .iter()
        .map(|micro| sweep_category(platform, micro, config))
        .collect();
    let curves = sweeps
        .iter()
        .map(|s| Ok(try_fit_curve_with_r2(s, config.poly_order)?.0))
        .collect::<Result<Vec<_>, CharacterizeError>>()?;
    Ok((PowerModel::new(platform.name, curves), sweeps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use easched_kernels::MicroBenchmark;

    fn quiet(mut p: Platform) -> Platform {
        p.pcu.measurement_noise = 0.0;
        p
    }

    #[test]
    fn measure_point_endpoints_match_operating_points() {
        let p = quiet(Platform::haswell_desktop());
        // Long-running compute benchmark: steady-state powers dominate.
        let micro = MicroBenchmark::new(false, false, false);
        let cpu_alone = measure_point(&p, &micro, 0.0, 1);
        let gpu_alone = measure_point(&p, &micro, 1.0, 1);
        assert!(
            (cpu_alone.watts - 45.0).abs() < 2.0,
            "CPU alone: {}",
            cpu_alone.watts
        );
        assert!(
            (gpu_alone.watts - 30.0).abs() < 2.0,
            "GPU alone: {}",
            gpu_alone.watts
        );
    }

    #[test]
    fn memory_long_combined_draws_63w() {
        let p = quiet(Platform::haswell_desktop());
        let micro = MicroBenchmark::new(true, false, false);
        // Mid-sweep: both devices busy for a long stretch.
        let mid = measure_point(&p, &micro, 0.5, 1);
        assert!(
            mid.watts > 55.0 && mid.watts < 65.0,
            "combined memory: {}",
            mid.watts
        );
    }

    #[test]
    fn sweep_has_grid_points_in_order() {
        let p = quiet(Platform::haswell_desktop());
        let micro = MicroBenchmark::new(false, true, true);
        let sweep = sweep_category(
            &p,
            &micro,
            &CharacterizationConfig {
                alpha_steps: 10,
                ..Default::default()
            },
        );
        assert_eq!(sweep.points.len(), 11);
        assert_eq!(sweep.points[0].alpha, 0.0);
        assert_eq!(sweep.points[10].alpha, 1.0);
        assert!(sweep.points.iter().all(|pt| pt.watts > 0.0));
    }

    #[test]
    fn fit_interpolates_sweep_closely() {
        let p = quiet(Platform::haswell_desktop());
        let micro = MicroBenchmark::new(true, false, false);
        let config = CharacterizationConfig::default();
        let sweep = sweep_category(&p, &micro, &config);
        let (curve, _) = try_fit_curve_with_r2(&sweep, 6).unwrap();
        // Noise-free sweep: the fit should track within a couple of watts.
        for pt in &sweep.points {
            assert!(
                (curve.predict(pt.alpha) - pt.watts).abs() < 3.0,
                "alpha {}: fit {} vs measured {}",
                pt.alpha,
                curve.predict(pt.alpha),
                pt.watts
            );
        }
    }

    #[test]
    fn characterize_produces_distinct_memory_and_compute_levels() {
        let p = quiet(Platform::haswell_desktop());
        let model = characterize(
            &p,
            &CharacterizationConfig {
                alpha_steps: 10,
                ..Default::default()
            },
        );
        let comp = model.predict(
            WorkloadClass {
                memory_bound: false,
                cpu_short: false,
                gpu_short: false,
            },
            0.5,
        );
        let mem = model.predict(
            WorkloadClass {
                memory_bound: true,
                cpu_short: false,
                gpu_short: false,
            },
            0.5,
        );
        assert!(
            mem > comp + 3.0,
            "memory-bound combined power ({mem}) should exceed compute ({comp})"
        );
    }

    #[test]
    fn baytrail_memory_cheaper_than_compute() {
        // The paper's §2 surprise: on Bay Trail memory-bound work draws
        // LESS power than compute-bound.
        let p = quiet(Platform::baytrail_tablet());
        let model = characterize(
            &p,
            &CharacterizationConfig {
                alpha_steps: 10,
                ..Default::default()
            },
        );
        let long = |mb| WorkloadClass {
            memory_bound: mb,
            cpu_short: false,
            gpu_short: false,
        };
        assert!(model.predict(long(true), 0.5) < model.predict(long(false), 0.5));
    }

    #[test]
    fn degenerate_sweep_is_an_error_not_a_panic() {
        let p = quiet(Platform::haswell_desktop());
        // 3 sweep points cannot support a sixth-order fit (needs 7).
        let cfg = CharacterizationConfig {
            alpha_steps: 2,
            ..Default::default()
        };
        let micro = MicroBenchmark::new(false, false, false);
        let sweep = sweep_category(&p, &micro, &cfg);
        let err = try_fit_curve_with_r2(&sweep, cfg.poly_order).unwrap_err();
        let CharacterizeError::DegenerateSweep { label, reason } = &err;
        assert_eq!(*label, micro.label());
        assert!(!reason.is_empty());
        assert!(err.to_string().contains("unfittable"), "{err}");
        assert!(try_characterize(&p, &cfg).is_err());
        assert!(try_characterize_with_sweeps(&p, &cfg).is_err());
    }

    #[test]
    #[should_panic(expected = "unfittable")]
    fn infallible_wrapper_panics_with_the_error_message() {
        let p = quiet(Platform::haswell_desktop());
        characterize(
            &p,
            &CharacterizationConfig {
                alpha_steps: 2,
                ..Default::default()
            },
        );
    }

    #[test]
    fn try_characterize_matches_characterize() {
        let p = quiet(Platform::haswell_desktop());
        let cfg = CharacterizationConfig {
            alpha_steps: 8,
            ..Default::default()
        };
        assert_eq!(try_characterize(&p, &cfg).unwrap(), characterize(&p, &cfg));
    }

    #[test]
    fn characterization_deterministic() {
        let p = quiet(Platform::haswell_desktop());
        let cfg = CharacterizationConfig {
            alpha_steps: 8,
            ..Default::default()
        };
        assert_eq!(characterize(&p, &cfg), characterize(&p, &cfg));
    }
}
