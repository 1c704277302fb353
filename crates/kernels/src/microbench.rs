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

use crate::profiles::{kind_of, Calib, PlatformKind, Profile};
use crate::workload::{Invoker, Verification, Workload, WorkloadSpec};
use easched_sim::{AccessPattern, KernelTraits, Platform};
use std::sync::atomic::{AtomicU64, Ordering};

/// Items per micro-benchmark run; rates are chosen relative to this.
pub const MICRO_ITEMS: u64 = 1_000_000;

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
/// use easched_kernels::microbench::characterization_suite;
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

/// Functional compute-bound kernel body: `iters` fused multiply-adds, as in
/// the paper's compute micro-benchmark. Returns the accumulator so the work
/// cannot be optimized away.
///
/// ```
/// use easched_kernels::microbench::fma_loop;
/// assert!(fma_loop(1000, 3).is_finite());
/// ```
pub fn fma_loop(iters: u32, seed: u64) -> f64 {
    let mut acc = seed as f64 * 1e-9 + 1.0;
    let mut x = 1.000_000_1f64;
    for _ in 0..iters {
        acc = acc.mul_add(x, 0.5);
        x = -x;
        if acc.abs() > 1e12 {
            acc *= 1e-12;
        }
    }
    acc
}

/// A functional micro-workload usable with the heterogeneous runtime: each
/// item either runs an FMA loop (compute-bound) or performs scattered
/// updates into a shared table (memory-bound random updates, as in §2).
#[derive(Debug)]
pub struct MicroWorkload {
    memory_bound: bool,
    items: u64,
    table_mask: usize,
    profile: Profile,
}

impl MicroWorkload {
    /// Creates a functional micro-workload of `items` iterations.
    ///
    /// # Panics
    ///
    /// Panics if `items` is zero.
    pub fn new(memory_bound: bool, items: u64) -> MicroWorkload {
        assert!(items > 0, "items must be positive");
        let micro = MicroBenchmark::new(memory_bound, true, true);
        let calib = Calib {
            cpu_rate: micro.traits.cpu_rate(),
            gpu_rate: micro.traits.gpu_rate(),
            mem_intensity: micro.traits.memory_intensity(),
            access: micro.traits.access(),
            working_set: micro.traits.working_set_bytes(),
            bus_fraction: 0.5,
            irregularity: 0.0,
            instr_per_item: micro.traits.instr_per_item(),
            loads_per_item: micro.traits.loads_per_item(),
        };
        MicroWorkload {
            memory_bound,
            items,
            table_mask: (1 << 16) - 1,
            profile: Profile {
                desktop: calib,
                tablet: calib,
            },
        }
    }
}

impl Workload for MicroWorkload {
    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            name: if self.memory_bound {
                "Memory micro-benchmark"
            } else {
                "Compute micro-benchmark"
            },
            abbrev: "MICRO",
            regular: true,
            runs_on_tablet: true,
        }
    }

    fn traits_for(&self, platform: &Platform) -> KernelTraits {
        self.profile.traits_for("MICRO", platform)
    }

    fn drive(&self, invoker: &mut dyn Invoker) -> Verification {
        let table: Vec<AtomicU64> = (0..=self.table_mask).map(|_| AtomicU64::new(0)).collect();
        let checksum = AtomicU64::new(0);
        let memory_bound = self.memory_bound;
        let mask = self.table_mask;
        invoker.invoke(self.items, &|items| {
            for i in items {
                if memory_bound {
                    // Random updates at hashed indices (paper §2).
                    let mut h = i as u64;
                    for _ in 0..8 {
                        h = easched_sim::noise::splitmix64(h);
                        table[(h as usize) & mask].fetch_add(1, Ordering::Relaxed);
                    }
                } else {
                    let v = fma_loop(64, i as u64);
                    checksum.fetch_add(v.to_bits() & 0xFF, Ordering::Relaxed);
                }
            }
        });
        if memory_bound {
            let total: u64 = table.iter().map(|a| a.load(Ordering::Relaxed)).sum();
            if total == self.items * 8 {
                Verification::Passed
            } else {
                Verification::Failed(format!("update count {total} != {}", self.items * 8))
            }
        } else if self.items == 0 || checksum.load(Ordering::Relaxed) > 0 {
            Verification::Passed
        } else {
            Verification::Failed("checksum degenerate".into())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{record_trace, SerialInvoker};

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

    #[test]
    fn fma_loop_deterministic_and_finite() {
        assert_eq!(fma_loop(100, 7), fma_loop(100, 7));
        assert!(fma_loop(1_000_000, 1).is_finite());
    }

    #[test]
    fn micro_workloads_verify() {
        for mb in [false, true] {
            let w = MicroWorkload::new(mb, 2_000);
            assert!(w.drive(&mut SerialInvoker).is_passed(), "memory={mb}");
        }
    }

    #[test]
    fn micro_workload_single_invocation() {
        let w = MicroWorkload::new(true, 500);
        let (trace, v) = record_trace(&w);
        assert!(v.is_passed());
        assert_eq!(trace.sizes, vec![500]);
    }

    #[test]
    #[should_panic(expected = "items must be positive")]
    fn micro_workload_rejects_zero() {
        MicroWorkload::new(false, 0);
    }
}
