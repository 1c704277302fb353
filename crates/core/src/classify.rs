//! Online workload classification (paper §3.1, §5).
//!
//! Profiling observations are mapped to one of the **eight power
//! characterization categories**: {memory, compute} × {CPU short, long} ×
//! {GPU short, long}. The classifier uses only black-box measurements:
//!
//! * memory intensity = L3 misses / load-store instructions, threshold
//!   **0.33** (§5);
//! * short vs long = estimated execution time of the *remaining* iterations
//!   on each device, threshold **100 ms** (§2, §5).

use easched_runtime::Observation;

/// One of the eight characterization categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkloadClass {
    /// Memory-bound (miss/load ratio above threshold).
    pub memory_bound: bool,
    /// Remaining work finishes under the short/long threshold on the CPU.
    pub cpu_short: bool,
    /// Remaining work finishes under the short/long threshold on the GPU.
    pub gpu_short: bool,
}

impl WorkloadClass {
    /// Dense index in `0..8` (memory bit high, then CPU, then GPU), used to
    /// index the power model's curve table.
    ///
    /// ```
    /// use easched_core::WorkloadClass;
    /// let c = WorkloadClass { memory_bound: true, cpu_short: false, gpu_short: true };
    /// assert_eq!(c.index(), 0b101);
    /// assert_eq!(WorkloadClass::from_index(0b101), c);
    /// ```
    pub fn index(&self) -> usize {
        (usize::from(self.memory_bound) << 2)
            | (usize::from(self.cpu_short) << 1)
            | usize::from(self.gpu_short)
    }

    /// Inverse of [`index`](Self::index).
    ///
    /// # Panics
    ///
    /// Panics if `i >= 8`.
    pub fn from_index(i: usize) -> WorkloadClass {
        assert!(i < 8, "class index out of range");
        WorkloadClass {
            memory_bound: i & 0b100 != 0,
            cpu_short: i & 0b010 != 0,
            gpu_short: i & 0b001 != 0,
        }
    }

    /// All eight classes in index order.
    pub fn all() -> [WorkloadClass; 8] {
        std::array::from_fn(WorkloadClass::from_index)
    }

    /// Figure 5/6-style label, e.g. `"Memory, CPU Short, GPU Long"`.
    pub fn label(&self) -> String {
        format!(
            "{}, CPU {}, GPU {}",
            if self.memory_bound {
                "Memory"
            } else {
                "Compute"
            },
            if self.cpu_short { "Short" } else { "Long" },
            if self.gpu_short { "Short" } else { "Long" },
        )
    }
}

/// The classifier with its two thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Classifier {
    /// L3-miss-per-load threshold above which a workload is memory-bound
    /// (paper: 0.33).
    pub memory_threshold: f64,
    /// Execution-time threshold below which a device run counts as short,
    /// seconds (paper: 100 ms).
    pub short_threshold: f64,
}

impl Default for Classifier {
    fn default() -> Self {
        Classifier {
            memory_threshold: 0.33,
            short_threshold: 0.100,
        }
    }
}

impl Classifier {
    /// Classifies from a profiling observation and the remaining iteration
    /// count.
    ///
    /// The device times are estimated as `n_remaining / rate` with the
    /// combined-mode rates from the observation; a device that showed no
    /// throughput is classified long (conservative: prefers the
    /// steadier-state power curve).
    ///
    /// # Examples
    ///
    /// ```
    /// use easched_core::Classifier;
    /// use easched_runtime::Observation;
    /// use easched_sim::CounterSnapshot;
    ///
    /// let obs = Observation {
    ///     cpu_items: 1000,
    ///     gpu_items: 2000,
    ///     cpu_time: 0.01,
    ///     gpu_time: 0.01,
    ///     counters: CounterSnapshot { instructions: 1e6, loads: 1e5, l3_misses: 5e4 },
    ///     ..Default::default()
    /// };
    /// let class = Classifier::default().classify(&obs, 10_000);
    /// assert!(class.memory_bound); // 0.5 misses per load
    /// assert!(class.cpu_short); // 10k items at 100k items/s = 0.1s... just at threshold
    /// ```
    pub fn classify(&self, obs: &Observation, n_remaining: u64) -> WorkloadClass {
        self.classify_rates(
            obs.counters.miss_per_load(),
            obs.cpu_rate(),
            obs.gpu_rate(),
            n_remaining,
        )
    }

    /// [`classify`](Self::classify) for a caller that already holds the
    /// observation's miss ratio and device rates (the decision engine
    /// derives both rates itself).
    pub(crate) fn classify_rates(
        &self,
        miss_per_load: f64,
        r_c: f64,
        r_g: f64,
        n_remaining: u64,
    ) -> WorkloadClass {
        let est = |rate: f64| {
            if rate > 0.0 {
                n_remaining as f64 / rate
            } else {
                f64::INFINITY
            }
        };
        WorkloadClass {
            memory_bound: miss_per_load > self.memory_threshold,
            cpu_short: est(r_c) <= self.short_threshold,
            gpu_short: est(r_g) <= self.short_threshold,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easched_sim::CounterSnapshot;

    fn obs(miss_per_load: f64, cpu_rate: f64, gpu_rate: f64) -> Observation {
        Observation {
            cpu_items: (cpu_rate * 0.01) as u64,
            gpu_items: (gpu_rate * 0.01) as u64,
            cpu_time: 0.01,
            gpu_time: 0.01,
            counters: CounterSnapshot {
                instructions: 1e6,
                loads: 1e5,
                l3_misses: 1e5 * miss_per_load,
            },
            ..Default::default()
        }
    }

    #[test]
    fn index_roundtrip() {
        for i in 0..8 {
            assert_eq!(WorkloadClass::from_index(i).index(), i);
        }
    }

    #[test]
    fn all_has_eight_distinct() {
        let all = WorkloadClass::all();
        let set: std::collections::HashSet<usize> = all.iter().map(|c| c.index()).collect();
        assert_eq!(set.len(), 8);
    }

    #[test]
    fn memory_threshold_boundary() {
        let c = Classifier::default();
        assert!(!c.classify(&obs(0.33, 1e6, 1e6), 1000).memory_bound);
        assert!(c.classify(&obs(0.34, 1e6, 1e6), 1000).memory_bound);
    }

    #[test]
    fn short_long_by_remaining_items() {
        let c = Classifier::default();
        // 1e6 items/s: 50k items → 50 ms (short); 500k → 0.5 s (long).
        let class = c.classify(&obs(0.0, 1e6, 1e5), 50_000);
        assert!(class.cpu_short);
        assert!(!class.gpu_short); // GPU at 1e5: 0.5 s
        let class = c.classify(&obs(0.0, 1e6, 1e5), 500_000);
        assert!(!class.cpu_short);
    }

    #[test]
    fn zero_rate_is_long() {
        let c = Classifier::default();
        let o = Observation {
            counters: CounterSnapshot::default(),
            ..Default::default()
        };
        let class = c.classify(&o, 100);
        assert!(!class.cpu_short);
        assert!(!class.gpu_short);
        assert!(!class.memory_bound, "no loads → compute-bound default");
    }

    #[test]
    fn labels_are_unique_and_descriptive() {
        let labels: std::collections::HashSet<String> =
            WorkloadClass::all().iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), 8);
        assert!(labels.iter().any(|l| l == "Memory, CPU Short, GPU Long"));
    }

    #[test]
    #[should_panic(expected = "class index out of range")]
    fn from_index_rejects_out_of_range() {
        WorkloadClass::from_index(8);
    }
}
