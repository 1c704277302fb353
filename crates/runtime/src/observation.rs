//! Measurements a scheduler can observe — the black-box interface.
//!
//! Everything here is obtainable on real hardware from wall-clock timers,
//! the `MSR_PKG_ENERGY_STATUS` register, and PCM hardware counters; nothing
//! leaks simulator internals.

use easched_sim::CounterSnapshot;

/// What a scheduler learns from one execution step (a profiling step or a
/// split run).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Observation {
    /// Elapsed time of the step, seconds (virtual or wall, by backend).
    pub elapsed: f64,
    /// Items the CPU workers completed.
    pub cpu_items: u64,
    /// Items the GPU completed.
    pub gpu_items: u64,
    /// Time the CPU spent executing, seconds.
    pub cpu_time: f64,
    /// Time the GPU spent executing, seconds.
    pub gpu_time: f64,
    /// Package energy consumed during the step, joules (from the energy
    /// register, wraparound-corrected).
    pub energy_joules: f64,
    /// Hardware-counter delta over the step (CPU side).
    pub counters: CounterSnapshot,
}

impl Observation {
    /// CPU throughput observed in this step, items/second (0 if the CPU
    /// did not run).
    pub fn cpu_rate(&self) -> f64 {
        if self.cpu_time > 0.0 && self.cpu_items > 0 {
            self.cpu_items as f64 / self.cpu_time
        } else {
            0.0
        }
    }

    /// GPU throughput observed in this step, items/second (0 if the GPU
    /// did not run).
    pub fn gpu_rate(&self) -> f64 {
        if self.gpu_time > 0.0 && self.gpu_items > 0 {
            self.gpu_items as f64 / self.gpu_time
        } else {
            0.0
        }
    }

    /// Accumulates another observation (used to total a whole invocation).
    pub fn accumulate(&mut self, other: &Observation) {
        self.elapsed += other.elapsed;
        self.cpu_items += other.cpu_items;
        self.gpu_items += other.gpu_items;
        self.cpu_time += other.cpu_time;
        self.gpu_time += other.gpu_time;
        self.energy_joules += other.energy_joules;
        self.counters.instructions += other.counters.instructions;
        self.counters.loads += other.counters.loads;
        self.counters.l3_misses += other.counters.l3_misses;
    }
}

/// Totals over a complete workload run under one scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunMetrics {
    /// End-to-end execution time, seconds.
    pub time: f64,
    /// Total package energy, joules.
    pub energy_joules: f64,
    /// Number of kernel invocations executed.
    pub(crate) invocations: u64,
    /// Total items processed.
    pub items: u64,
}

impl RunMetrics {
    /// Energy-delay product E·T, in joule-seconds.
    pub fn edp(&self) -> f64 {
        self.energy_joules * self.time
    }

    /// Average package power over the run, watts (0 for zero-time runs).
    pub fn mean_power(&self) -> f64 {
        if self.time > 0.0 {
            self.energy_joules / self.time
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edp_is_energy_times_time() {
        let m = RunMetrics {
            time: 2.0,
            energy_joules: 10.0,
            invocations: 1,
            items: 1,
        };
        assert_eq!(m.edp(), 20.0);
    }

    #[test]
    fn rates_guard_zero_time() {
        let o = Observation::default();
        assert_eq!(o.cpu_rate(), 0.0);
        assert_eq!(o.gpu_rate(), 0.0);
    }

    #[test]
    fn rates_compute() {
        let o = Observation {
            elapsed: 2.0,
            cpu_items: 100,
            gpu_items: 300,
            cpu_time: 2.0,
            gpu_time: 1.5,
            ..Default::default()
        };
        assert_eq!(o.cpu_rate(), 50.0);
        assert_eq!(o.gpu_rate(), 200.0);
    }

    #[test]
    fn accumulate_sums_fields() {
        let mut a = Observation {
            elapsed: 1.0,
            cpu_items: 10,
            gpu_items: 20,
            cpu_time: 1.0,
            gpu_time: 0.5,
            energy_joules: 5.0,
            ..Default::default()
        };
        a.accumulate(&a.clone());
        assert_eq!(a.elapsed, 2.0);
        assert_eq!(a.cpu_items, 20);
        assert_eq!(a.energy_joules, 10.0);
    }

    #[test]
    fn metrics_products() {
        let m = RunMetrics {
            time: 3.0,
            energy_joules: 4.0,
            invocations: 2,
            items: 100,
        };
        assert_eq!(m.edp(), 12.0);
        assert!((m.mean_power() - 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(RunMetrics::default().mean_power(), 0.0);
    }
}
