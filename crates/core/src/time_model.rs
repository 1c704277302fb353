//! The analytical execution-time model T(α) — paper Equations 1–4.
//!
//! Given the combined-mode throughputs R_C and R_G measured by online
//! profiling, the model predicts total execution time for any GPU offload
//! ratio α: a combined phase where both devices run (Eq. 1), then a
//! single-device tail for the leftover iterations (Eqs. 3–4). The
//! performance-optimal ratio α_PERF = R_G/(R_C+R_G) (Eq. 2) makes both
//! devices finish simultaneously.

/// The T(α) model for one kernel, parameterized by measured throughputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimeModel {
    /// Combined-mode CPU throughput R_C, items/second.
    pub(crate) r_c: f64,
    /// Combined-mode GPU throughput R_G, items/second.
    pub(crate) r_g: f64,
}

impl TimeModel {
    /// Creates a model from measured rates. Non-finite or negative rates
    /// are clamped to zero (a device that showed no throughput).
    pub fn new(r_c: f64, r_g: f64) -> TimeModel {
        let clean = |r: f64| if r.is_finite() && r > 0.0 { r } else { 0.0 };
        TimeModel {
            r_c: clean(r_c),
            r_g: clean(r_g),
        }
    }

    /// Equation 2: the offload ratio at which both devices finish together
    /// (the performance-optimal split). 0 if only the CPU works, 1 if only
    /// the GPU works; 0 when neither does (degenerate, caller handles).
    ///
    /// ```
    /// use easched_core::TimeModel;
    /// let m = TimeModel::new(1.0e6, 3.0e6);
    /// assert!((m.alpha_perf() - 0.75).abs() < 1e-12);
    /// ```
    pub fn alpha_perf(&self) -> f64 {
        let total = self.r_c + self.r_g;
        if total > 0.0 {
            self.r_g / total
        } else {
            0.0
        }
    }

    /// Sanitizes a caller-supplied ratio: out-of-range values clamp to
    /// [0, 1] and NaN becomes 0 (all-CPU, the conservative split). A bad
    /// α here means a bug upstream, so debug builds still assert — but a
    /// release deployment mid-fault-storm degrades instead of dying
    /// (DESIGN.md §9).
    fn clamp_alpha(alpha: f64) -> f64 {
        debug_assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0, 1]");
        if alpha.is_nan() {
            0.0
        } else {
            alpha.clamp(0.0, 1.0)
        }
    }

    /// Equation 1: time both devices spend in combined mode at ratio
    /// `alpha` over `n` iterations.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `alpha` is outside [0, 1]; release builds
    /// clamp it.
    pub fn combined_time(&self, alpha: f64, n: u64) -> f64 {
        let alpha = Self::clamp_alpha(alpha);
        let n = n as f64;
        let t_cpu = if self.r_c > 0.0 {
            (1.0 - alpha) * n / self.r_c
        } else if alpha == 1.0 {
            0.0
        } else {
            f64::INFINITY
        };
        let t_gpu = if self.r_g > 0.0 {
            alpha * n / self.r_g
        } else if alpha == 0.0 {
            0.0
        } else {
            f64::INFINITY
        };
        t_cpu.min(t_gpu)
    }

    /// Equation 4: predicted total time to process `n` iterations at ratio
    /// `alpha`. Returns `f64::INFINITY` when the assigned work cannot
    /// complete (e.g. α < 1 with a dead CPU).
    ///
    /// ```
    /// use easched_core::TimeModel;
    /// let m = TimeModel::new(1.0e6, 1.0e6);
    /// // Perfect split of 1M items on two 1M-items/s devices: 0.5 s.
    /// assert!((m.total_time(0.5, 1_000_000) - 0.5).abs() < 1e-9);
    /// // All on one device: 1 s.
    /// assert!((m.total_time(1.0, 1_000_000) - 1.0).abs() < 1e-9);
    /// ```
    ///
    /// # Panics
    ///
    /// Debug builds panic if `alpha` is outside [0, 1]; release builds
    /// clamp it.
    pub fn total_time(&self, alpha: f64, n: u64) -> f64 {
        let alpha = Self::clamp_alpha(alpha);
        let nf = n as f64;
        if nf == 0.0 {
            return 0.0;
        }
        // Degenerate devices.
        if self.r_c == 0.0 && self.r_g == 0.0 {
            return f64::INFINITY;
        }
        if self.r_c == 0.0 {
            return if alpha < 1.0 {
                f64::INFINITY
            } else {
                nf / self.r_g
            };
        }
        if self.r_g == 0.0 {
            return if alpha > 0.0 {
                f64::INFINITY
            } else {
                nf / self.r_c
            };
        }

        let t_cg = self.combined_time(alpha, n);
        // Equation 3: iterations left for the single-device tail.
        let n_rem = (nf - t_cg * (self.r_c + self.r_g)).max(0.0);
        // Equation 4: the tail runs on whichever device still has work.
        let tail_rate = if alpha >= self.alpha_perf() {
            self.r_g
        } else {
            self.r_c
        };
        t_cg + n_rem / tail_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_perf_balances() {
        let m = TimeModel::new(2.0, 6.0);
        assert!((m.alpha_perf() - 0.75).abs() < 1e-12);
        // At α_perf both devices finish together: combined time equals
        // total time.
        let a = m.alpha_perf();
        assert!((m.combined_time(a, 800) - m.total_time(a, 800)).abs() < 1e-9);
    }

    #[test]
    fn total_time_minimized_at_alpha_perf() {
        let m = TimeModel::new(1.0e6, 2.5e6);
        let a_perf = m.alpha_perf();
        let t_perf = m.total_time(a_perf, 1_000_000);
        for i in 0..=20 {
            let a = i as f64 / 20.0;
            assert!(
                m.total_time(a, 1_000_000) >= t_perf - 1e-9,
                "T({a}) below T(alpha_perf)"
            );
        }
    }

    #[test]
    fn endpoints_are_single_device_times() {
        let m = TimeModel::new(1000.0, 4000.0);
        assert!((m.total_time(0.0, 10_000) - 10.0).abs() < 1e-9);
        assert!((m.total_time(1.0, 10_000) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn cpu_heavy_side_tail_on_cpu() {
        let m = TimeModel::new(1000.0, 1000.0);
        // α=0.25: GPU finishes its 2500 in 2.5 s, CPU has 7500: total 7.5 s.
        assert!((m.total_time(0.25, 10_000) - 7.5).abs() < 1e-9);
        // Combined phase = 2.5 s.
        assert!((m.combined_time(0.25, 10_000) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn dead_devices() {
        let dead = TimeModel::new(0.0, 0.0);
        assert_eq!(dead.total_time(0.5, 10), f64::INFINITY);
        let cpu_only = TimeModel::new(100.0, 0.0);
        assert_eq!(cpu_only.total_time(0.5, 10), f64::INFINITY);
        assert!((cpu_only.total_time(0.0, 1000) - 10.0).abs() < 1e-9);
        assert_eq!(cpu_only.alpha_perf(), 0.0);
        let gpu_only = TimeModel::new(0.0, 100.0);
        assert!((gpu_only.total_time(1.0, 1000) - 10.0).abs() < 1e-9);
        assert_eq!(gpu_only.alpha_perf(), 1.0);
    }

    #[test]
    fn new_sanitizes_rates() {
        let m = TimeModel::new(f64::NAN, -5.0);
        assert_eq!(m.r_c, 0.0);
        assert_eq!(m.r_g, 0.0);
    }

    #[test]
    fn zero_items_zero_time() {
        let m = TimeModel::new(100.0, 100.0);
        assert_eq!(m.total_time(0.7, 0), 0.0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "alpha must be in [0, 1]")]
    fn rejects_bad_alpha_in_debug() {
        TimeModel::new(1.0, 1.0).total_time(-0.1, 10);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn clamps_bad_alpha_in_release() {
        let m = TimeModel::new(1000.0, 1000.0);
        assert_eq!(m.total_time(-0.1, 10_000), m.total_time(0.0, 10_000));
        assert_eq!(m.total_time(1.7, 10_000), m.total_time(1.0, 10_000));
        assert_eq!(m.total_time(f64::NAN, 10_000), m.total_time(0.0, 10_000));
        assert_eq!(m.combined_time(2.0, 10_000), m.combined_time(1.0, 10_000));
    }
}
