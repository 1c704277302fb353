//! The benchmark-owned scripted [`Backend`]: answers every call from a
//! precomputed [`Shape`] in a handful of flops, so what the `sched_*`
//! workloads time is the scheduler stack and nothing else.

use crate::stats::Rng;
use easched_runtime::{Backend, Observation};
use easched_sim::CounterSnapshot;

/// `GPU_PROFILE_SIZE` of the scripted platform.
pub const PROFILE_SIZE: u64 = 2_048;

/// Pool size: 2 memory-boundedness × 4 CPU-time targets × 64 ρ × 8 N.
pub const POOL: usize = 4_096;

/// Package power every scripted observation reports, watts. Any constant
/// inside the guard's plausibility ceiling does; energy is never the
/// thing being measured here.
const WATTS: f64 = 40.0;

/// One kernel's scripted behaviour: what each profiling round observes
/// and the device rates a split runs at.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Iterations per invocation.
    pub n: u64,
    pub r_c: f64,
    pub r_g: f64,
    /// What every profiling round reports.
    pub profile: Observation,
}

/// The observation pool, seed-shuffled. Shapes span all eight workload
/// classes (memory-bound × CPU-short × GPU-short), 64 log-spaced rate
/// ratios ρ = R_G/R_C in [1/16, 16] and eight invocation sizes.
///
/// Estimated device times are kept a factor 1.4 clear of the
/// classifier's 0.1 s short/long threshold: profiling rounds shrink
/// `n_remaining` by up to a fifth, and a shape straddling the threshold
/// would change class — and with it α — between rounds, so the number of
/// decides per invocation would no longer be the closed form the output
/// check asserts (three: `profile_stable_rounds`).
pub fn pool(seed: u64) -> Vec<Shape> {
    let mut shapes = Vec::with_capacity(POOL);
    for memory_bound in [false, true] {
        for cpu_seconds in [0.004, 0.02, 0.5, 3.0] {
            for rho_step in 0..64 {
                let rho = 2f64.powf(-4.0 + 8.0 * f64::from(rho_step) / 63.0);
                for size_step in 0..8 {
                    let n = 1u64 << (19 + size_step);
                    shapes.push(shape(memory_bound, cpu_seconds, rho, n));
                }
            }
        }
    }
    assert_eq!(shapes.len(), POOL);
    Rng::new(seed, "pool").shuffle(&mut shapes);
    shapes
}

fn shape(memory_bound: bool, mut cpu_seconds: f64, rho: f64, n: u64) -> Shape {
    let near_threshold = |t: f64| (0.07..=0.15).contains(&t);
    if near_threshold(cpu_seconds / rho) {
        // The band's edges are a factor 2.14 apart, so one 2.5× step
        // clears it; none of the four targets lands inside it either.
        cpu_seconds *= 2.5;
    }
    debug_assert!(!near_threshold(cpu_seconds) && !near_threshold(cpu_seconds / rho));
    let r_c = n as f64 / cpu_seconds;
    let r_g = r_c * rho;
    let gpu_time = PROFILE_SIZE as f64 / r_g;
    let loads = 2.0e5;
    Shape {
        n,
        r_c,
        r_g,
        profile: Observation {
            elapsed: gpu_time,
            cpu_items: ((r_c * gpu_time) as u64).max(1),
            gpu_items: PROFILE_SIZE,
            cpu_time: gpu_time,
            gpu_time,
            energy_joules: WATTS * gpu_time,
            counters: CounterSnapshot {
                instructions: 1.0e6,
                loads,
                l3_misses: loads * if memory_bound { 0.6 } else { 0.05 },
            },
        },
    }
}

/// One invocation over a [`Shape`].
#[derive(Debug)]
pub struct ScriptedBackend<'a> {
    remaining: u64,
    shape: &'a Shape,
}

impl<'a> ScriptedBackend<'a> {
    pub fn new(shape: &'a Shape) -> ScriptedBackend<'a> {
        ScriptedBackend {
            remaining: shape.n,
            shape,
        }
    }
}

impl Backend for ScriptedBackend<'_> {
    fn remaining(&self) -> u64 {
        self.remaining
    }

    fn gpu_profile_size(&self) -> u64 {
        PROFILE_SIZE
    }

    fn profile_step(&mut self, _gpu_chunk: u64) -> Observation {
        let obs = self.shape.profile;
        self.remaining = self.remaining.saturating_sub(obs.cpu_items + obs.gpu_items);
        obs
    }

    fn run_split(&mut self, alpha: f64) -> Observation {
        let n = std::mem::take(&mut self.remaining);
        let gpu_items = (n as f64 * alpha) as u64;
        let cpu_items = n - gpu_items;
        let cpu_time = cpu_items as f64 / self.shape.r_c;
        let gpu_time = gpu_items as f64 / self.shape.r_g;
        let elapsed = cpu_time.max(gpu_time);
        Observation {
            elapsed,
            cpu_items,
            gpu_items,
            cpu_time,
            gpu_time,
            energy_joules: WATTS * elapsed,
            counters: self.shape.profile.counters,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_is_seeded_and_leaves_room_for_three_rounds() {
        let a = pool(7);
        let b = pool(7);
        let c = pool(8);
        assert!(a.iter().zip(&b).all(|(x, y)| x.n == y.n && x.r_c == y.r_c));
        assert!(a.iter().zip(&c).any(|(x, y)| x.n != y.n || x.r_c != y.r_c));
        for s in &a {
            let per_round = s.profile.cpu_items + s.profile.gpu_items;
            assert!(s.n / 2 > 3 * per_round, "{s:?}");
        }
    }

    #[test]
    fn backend_consumes_every_item() {
        let shapes = pool(1);
        let mut b = ScriptedBackend::new(&shapes[0]);
        let before = b.remaining();
        let obs = b.profile_step(PROFILE_SIZE);
        assert_eq!(before - b.remaining(), obs.cpu_items + obs.gpu_items);
        let left = b.remaining();
        let split = b.run_split(0.3);
        assert_eq!(split.cpu_items + split.gpu_items, left);
        assert_eq!(b.remaining(), 0);
    }
}
