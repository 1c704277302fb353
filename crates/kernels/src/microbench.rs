//! The eight power-characterization micro-benchmarks (paper §2).
//!
//! The paper probes each platform's PCU with a cross-product of execution
//! characteristics: {memory-bound, compute-bound} × {short, long CPU-alone
//! execution} × {short, long GPU-alone execution}, sweeping the GPU offload
//! ratio and fitting a sixth-order polynomial to average package power
//! (Figures 5 and 6). This module defines those eight benchmarks — both
//! their simulation profiles (used by the characterization sweep) and real
//! functional kernels (an FMA loop and random memory updates, as described
//! in the paper) for the thread-runtime demos.

use crate::profiles::{kind_of, Calib, PlatformKind};
use easched_sim::{AccessPattern, KernelTraits, Platform};

/// Items per micro-benchmark run; rates are chosen relative to this.
pub(crate) const MICRO_ITEMS: u64 = 1_000_000;

/// Duration targets: "short" solo runs finish well under the paper's 100 ms
/// threshold, "long" runs take on the order of a second. Within each
/// duration class the GPU:CPU rate ratio is set to the platform's typical
/// device-throughput ratio for that power class (≈1.5× for bandwidth-bound
/// work, ≈2.8× for compute-bound work), so each category's power curve
/// reflects the phase structure of real workloads in the category rather
/// than an artificial 1:1 split.
const CPU_SHORT_RATE: f64 = 1.3e7; // 1e6 items → 77 ms
const CPU_LONG_RATE: f64 = 8.0e5; // 1e6 items → 1.25 s

/// GPU:CPU rate tilt per power class and platform — the platform's typical
/// device-throughput ratio (the desktop's HD 4600 is a much stronger
/// accelerator than the tablet's 4-EU part).
fn gpu_tilt(kind: PlatformKind, memory_bound: bool) -> f64 {
    match (kind, memory_bound) {
        (PlatformKind::Desktop, true) => 1.5,
        (PlatformKind::Desktop, false) => 2.8,
        (PlatformKind::Tablet, true) => 1.7,
        (PlatformKind::Tablet, false) => 1.45,
    }
}

/// One of the eight characterization micro-benchmarks.
#[derive(Debug, Clone, PartialEq)]
pub struct MicroBenchmark {
    /// Memory-bound (true) or compute-bound.
    pub memory_bound: bool,
    /// CPU-alone execution finishes under the 100 ms threshold.
    pub cpu_short: bool,
    /// GPU-alone execution finishes under the 100 ms threshold.
    pub gpu_short: bool,
    /// Number of parallel iterations per run.
    pub items: u64,
    traits: KernelTraits,
}

impl MicroBenchmark {
    /// Builds the micro-benchmark for one corner of the cross-product,
    /// calibrated for `platform`.
    pub fn for_platform(
        platform: &Platform,
        memory_bound: bool,
        cpu_short: bool,
        gpu_short: bool,
    ) -> MicroBenchmark {
        Self::with_tilt(
            gpu_tilt(kind_of(platform), memory_bound),
            memory_bound,
            cpu_short,
            gpu_short,
        )
    }

    /// Builds the micro-benchmark with the desktop's calibration (see
    /// [`MicroBenchmark::for_platform`]).
    pub fn new(memory_bound: bool, cpu_short: bool, gpu_short: bool) -> MicroBenchmark {
        Self::with_tilt(
            gpu_tilt(PlatformKind::Desktop, memory_bound),
            memory_bound,
            cpu_short,
            gpu_short,
        )
    }

    fn with_tilt(
        tilt: f64,
        memory_bound: bool,
        cpu_short: bool,
        gpu_short: bool,
    ) -> MicroBenchmark {
        let name = format!(
            "micro-{}-cpu{}-gpu{}",
            if memory_bound { "mem" } else { "comp" },
            if cpu_short { "S" } else { "L" },
            if gpu_short { "S" } else { "L" },
        );
        let calib = Calib {
            cpu_rate: if cpu_short {
                CPU_SHORT_RATE
            } else {
                CPU_LONG_RATE
            },
            gpu_rate: tilt
                * if gpu_short {
                    CPU_SHORT_RATE
                } else {
                    CPU_LONG_RATE
                },
            mem_intensity: if memory_bound { 1.0 } else { 0.0 },
            access: if memory_bound {
                AccessPattern::Random
            } else {
                AccessPattern::Streaming
            },
            working_set: if memory_bound { 512 << 20 } else { 256 << 10 },
            bus_fraction: if memory_bound { 1.05 } else { 0.10 },
            irregularity: 0.0,
            instr_per_item: if memory_bound { 120.0 } else { 400.0 },
            loads_per_item: if memory_bound { 60.0 } else { 30.0 },
        };
        // The micro-benchmarks are duration-calibrated, so both platforms
        // use the same profile.
        let traits = calib.traits(&name, &Platform::haswell_desktop());
        MicroBenchmark {
            memory_bound,
            cpu_short,
            gpu_short,
            items: MICRO_ITEMS,
            traits,
        }
    }

    /// Simulation profile (identical on both platforms: the benchmarks are
    /// defined by their solo durations, not absolute rates).
    pub fn traits(&self) -> &KernelTraits {
        &self.traits
    }

    /// Category label in Figure 5/6 style, e.g. `"Memory, CPU Short, GPU
    /// Long"`.
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

/// All eight micro-benchmarks for a platform, in Figure 5's order: compute
/// before memory, then (CPU S/L) × (GPU S/L).
///
/// # Examples
///
/// ```
/// use easched_kernels::characterization_suite;
/// use easched_sim::Platform;
/// let suite = characterization_suite(&Platform::haswell_desktop());
/// assert_eq!(suite.len(), 8);
/// assert!(!suite[0].memory_bound && suite[0].cpu_short && suite[0].gpu_short);
/// ```
pub fn characterization_suite(platform: &Platform) -> Vec<MicroBenchmark> {
    let mut out = Vec::with_capacity(8);
    for memory_bound in [false, true] {
        for cpu_short in [true, false] {
            for gpu_short in [true, false] {
                out.push(MicroBenchmark::for_platform(
                    platform,
                    memory_bound,
                    cpu_short,
                    gpu_short,
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_covers_all_corners() {
        let suite = characterization_suite(&Platform::haswell_desktop());
        let mut seen = std::collections::HashSet::new();
        for m in &suite {
            seen.insert((m.memory_bound, m.cpu_short, m.gpu_short));
        }
        assert_eq!(seen.len(), 8);
    }

    #[test]
    fn durations_straddle_threshold() {
        for m in characterization_suite(&Platform::haswell_desktop()) {
            let cpu_t = m.items as f64 / m.traits().cpu_rate();
            let gpu_t = m.items as f64 / m.traits().gpu_rate();
            assert_eq!(cpu_t < 0.1, m.cpu_short, "{}", m.label());
            assert_eq!(gpu_t < 0.1, m.gpu_short, "{}", m.label());
        }
    }

    #[test]
    fn memory_benchmarks_classify_memory_bound() {
        let p = Platform::haswell_desktop();
        for m in characterization_suite(&Platform::haswell_desktop()) {
            let ratio = m.traits().l3_miss_ratio(p.memory.llc_bytes);
            assert_eq!(ratio > 0.33, m.memory_bound, "{}", m.label());
        }
    }

    #[test]
    fn labels_unique() {
        let labels: std::collections::HashSet<String> =
            characterization_suite(&Platform::baytrail_tablet())
                .iter()
                .map(|m| m.label())
                .collect();
        assert_eq!(labels.len(), 8);
    }
}
