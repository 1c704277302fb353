//! Package power model: calibrated operating points with bilinear
//! interpolation over device utilization and memory intensity.
//!
//! The paper's black-box premise is that package power at a given CPU-GPU
//! work split is *not* additive — the PCU redistributes the shared budget.
//! We capture that with six calibrated steady-state operating points per
//! platform (compute/memory × CPU-alone/GPU-alone/both) plus idle, and
//! interpolate:
//!
//! * linearly in memory intensity `m` between the compute and memory points;
//! * bilinearly in the device utilizations `u_c`, `u_g`, with an interaction
//!   term chosen so that all four corners (idle, CPU-alone, GPU-alone, both)
//!   reproduce the calibrated wattages exactly.

/// Calibrated steady-state package power operating points, in watts.
///
/// All values are *package* power (cores + GPU slice + ring + LLC + uncore),
/// matching what `MSR_PKG_ENERGY_STATUS` measures.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerTable {
    /// Idle package power.
    pub idle: f64,
    /// CPU fully busy alone, compute-bound kernel.
    pub cpu_compute: f64,
    /// CPU fully busy alone, memory-bound kernel.
    pub cpu_memory: f64,
    /// GPU fully busy alone, compute-bound kernel.
    pub gpu_compute: f64,
    /// GPU fully busy alone, memory-bound kernel.
    pub gpu_memory: f64,
    /// Both devices fully busy, compute-bound kernel.
    pub both_compute: f64,
    /// Both devices fully busy, memory-bound kernel.
    pub both_memory: f64,
}

/// Exponent relating frequency scale to dynamic power (≈ f·V² with voltage
/// tracking frequency).
const FREQ_POWER_EXP: f64 = 2.5;

impl PowerTable {
    /// CPU-alone operating point at memory intensity `m`.
    fn cpu_point(&self, m: f64) -> f64 {
        lerp(self.cpu_compute, self.cpu_memory, m)
    }

    /// GPU-alone operating point at memory intensity `m`.
    fn gpu_point(&self, m: f64) -> f64 {
        lerp(self.gpu_compute, self.gpu_memory, m)
    }

    /// Combined operating point at memory intensity `m`.
    fn both_point(&self, m: f64) -> f64 {
        lerp(self.both_compute, self.both_memory, m)
    }

    /// Steady-state package power target.
    ///
    /// * `cpu_util`, `gpu_util` — device utilizations in [0, 1];
    /// * `mem_intensity` — kernel memory intensity in [0, 1];
    /// * `cpu_freq_factor`, `gpu_freq_factor` — ratio of the device's current
    ///   frequency scale to the scale at which the table was calibrated
    ///   (1.0 except during PCU transients such as the activation dip).
    ///
    /// The four corners `(u_c, u_g) ∈ {0,1}²` at unit frequency factors
    /// reproduce `idle`, the CPU point, the GPU point, and the combined point
    /// exactly.
    ///
    /// # Examples
    ///
    /// ```
    /// use easched_sim::Platform;
    /// let t = &Platform::haswell_desktop().power;
    /// let p = t.target_power(1.0, 1.0, 0.0, 1.0, 1.0);
    /// assert!((p - 55.0).abs() < 1e-9); // both devices, compute-bound
    /// ```
    pub fn target_power(
        &self,
        cpu_util: f64,
        gpu_util: f64,
        mem_intensity: f64,
        cpu_freq_factor: f64,
        gpu_freq_factor: f64,
    ) -> f64 {
        let uc = cpu_util.clamp(0.0, 1.0);
        let ug = gpu_util.clamp(0.0, 1.0);
        let m = mem_intensity.clamp(0.0, 1.0);
        let fc = freq_power(cpu_freq_factor);
        let fg = freq_power(gpu_freq_factor);

        let cpu_excess = (self.cpu_point(m) - self.idle) * uc * fc;
        let gpu_excess = (self.gpu_point(m) - self.idle) * ug * fg;
        // Interaction makes the (1,1) corner land on the calibrated combined
        // point instead of the additive sum. It is attenuated by the smaller
        // frequency factor: during a transient the budget interplay has not
        // settled yet.
        let interaction = (self.both_point(m) - self.cpu_point(m) - self.gpu_point(m) + self.idle)
            * uc
            * ug
            * fc.min(fg);
        (self.idle + cpu_excess + gpu_excess + interaction).max(0.0)
    }
}

/// Dynamic-power scale `max(f, 0)^2.5` of a frequency factor `f`.
///
/// A factor of exactly 1 skips `powf`: IEEE 754 `pow(1, y)` is exactly 1,
/// so the answer is the same bits. Every table read outside a dip or a TDP
/// throttle passes 1 for both devices.
fn freq_power(factor: f64) -> f64 {
    if factor == 1.0 {
        1.0
    } else {
        factor.max(0.0).powf(FREQ_POWER_EXP)
    }
}

fn lerp(a: f64, b: f64, t: f64) -> f64 {
    a + (b - a) * t
}

/// [`PowerTable::target_power`] as it stood before it skipped `powf` for a
/// factor of 1, kept as the oracle the simulator's tick is held to.
#[cfg(test)]
pub(crate) mod parent {
    use super::*;

    pub(crate) fn target_power(
        table: &PowerTable,
        cpu_util: f64,
        gpu_util: f64,
        mem_intensity: f64,
        cpu_freq_factor: f64,
        gpu_freq_factor: f64,
    ) -> f64 {
        let uc = cpu_util.clamp(0.0, 1.0);
        let ug = gpu_util.clamp(0.0, 1.0);
        let m = mem_intensity.clamp(0.0, 1.0);
        let fc = cpu_freq_factor.max(0.0).powf(FREQ_POWER_EXP);
        let fg = gpu_freq_factor.max(0.0).powf(FREQ_POWER_EXP);

        let cpu_excess = (table.cpu_point(m) - table.idle) * uc * fc;
        let gpu_excess = (table.gpu_point(m) - table.idle) * ug * fg;
        let interaction = (table.both_point(m) - table.cpu_point(m) - table.gpu_point(m)
            + table.idle)
            * uc
            * ug
            * fc.min(fg);
        (table.idle + cpu_excess + gpu_excess + interaction).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Platform;
    use proptest::prelude::*;

    fn haswell() -> PowerTable {
        PowerTable {
            idle: 5.0,
            cpu_compute: 45.0,
            cpu_memory: 60.0,
            gpu_compute: 30.0,
            gpu_memory: 38.0,
            both_compute: 55.0,
            both_memory: 63.0,
        }
    }

    #[test]
    fn corners_reproduce_calibration_compute() {
        let t = haswell();
        assert!((t.target_power(0.0, 0.0, 0.0, 1.0, 1.0) - 5.0).abs() < 1e-12);
        assert!((t.target_power(1.0, 0.0, 0.0, 1.0, 1.0) - 45.0).abs() < 1e-12);
        assert!((t.target_power(0.0, 1.0, 0.0, 1.0, 1.0) - 30.0).abs() < 1e-12);
        assert!((t.target_power(1.0, 1.0, 0.0, 1.0, 1.0) - 55.0).abs() < 1e-12);
    }

    #[test]
    fn corners_reproduce_calibration_memory() {
        let t = haswell();
        assert!((t.target_power(1.0, 0.0, 1.0, 1.0, 1.0) - 60.0).abs() < 1e-12);
        assert!((t.target_power(0.0, 1.0, 1.0, 1.0, 1.0) - 38.0).abs() < 1e-12);
        assert!((t.target_power(1.0, 1.0, 1.0, 1.0, 1.0) - 63.0).abs() < 1e-12);
    }

    #[test]
    fn memory_intensity_interpolates() {
        let t = haswell();
        let p = t.target_power(1.0, 0.0, 0.5, 1.0, 1.0);
        assert!((p - 52.5).abs() < 1e-12); // midway between 45 and 60
    }

    #[test]
    fn partial_utilization_between_idle_and_full() {
        let t = haswell();
        let p = t.target_power(0.5, 0.0, 0.0, 1.0, 1.0);
        assert!(p > 5.0 && p < 45.0);
        assert!((p - 25.0).abs() < 1e-12); // linear in utilization
    }

    #[test]
    fn frequency_dip_reduces_cpu_contribution() {
        let t = haswell();
        let full = t.target_power(1.0, 0.0, 1.0, 1.0, 1.0);
        let dipped = t.target_power(1.0, 0.0, 1.0, 0.5, 1.0);
        assert!(dipped < full);
        // Idle floor is preserved.
        assert!(dipped > t.idle);
    }

    #[test]
    fn power_never_negative() {
        let t = PowerTable {
            idle: 1.0,
            cpu_compute: 2.0,
            cpu_memory: 2.0,
            gpu_compute: 2.0,
            gpu_memory: 2.0,
            both_compute: 1.5, // pathological: large negative interaction
            both_memory: 1.5,
        };
        for uc in [0.0, 0.5, 1.0] {
            for ug in [0.0, 0.5, 1.0] {
                assert!(t.target_power(uc, ug, 0.5, 1.0, 1.0) >= 0.0);
            }
        }
    }

    #[test]
    fn out_of_range_inputs_clamped() {
        let t = haswell();
        let p = t.target_power(5.0, -1.0, 2.0, 1.0, 1.0);
        assert!((p - 60.0).abs() < 1e-12); // clamps to cpu-alone memory point
    }

    #[test]
    fn baytrail_memory_cheaper_than_compute() {
        let t = PowerTable {
            idle: 0.2,
            cpu_compute: 1.5,
            cpu_memory: 0.7,
            gpu_compute: 2.0,
            gpu_memory: 1.3,
            both_compute: 2.6,
            both_memory: 1.7,
        };
        let mem = t.target_power(1.0, 1.0, 1.0, 1.0, 1.0);
        let comp = t.target_power(1.0, 1.0, 0.0, 1.0, 1.0);
        assert!(mem < comp, "paper: Bay Trail memory-bound draws less power");
    }

    /// Frequency factors on both sides of 1, exactly 1, and the values
    /// `max(f, 0)` folds.
    fn factor() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(1.0),
            Just(f64::from_bits(1.0f64.to_bits() + 1)),
            Just(f64::from_bits(1.0f64.to_bits() - 1)),
            Just(0.0),
            Just(-0.0),
            Just(-1.0),
            Just(f64::INFINITY),
            Just(f64::NAN),
            0.0..2.0f64,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Skipping `powf` for a factor of 1 changes no bit of any target.
        #[test]
        fn target_power_equals_the_parent_to_the_bit(
            platform in prop_oneof![
                Just(Platform::haswell_desktop()),
                Just(Platform::baytrail_tablet()),
                Just(Platform::skylake_minipc()),
            ],
            uc in -0.5..1.5f64,
            ug in prop_oneof![Just(0.0), Just(1.0), 0.0..1.0f64],
            m in prop_oneof![Just(0.0), Just(1.0), 0.0..1.0f64],
            fc in factor(),
            fg in factor(),
        ) {
            let t = &platform.power;
            prop_assert_eq!(
                t.target_power(uc, ug, m, fc, fg).to_bits(),
                parent::target_power(t, uc, ug, m, fc, fg).to_bits()
            );
        }
    }
}
