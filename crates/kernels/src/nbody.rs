//! All-pairs N-Body simulation (Table 1 "NB").
//!
//! Regular, compute-bound; the kernel (one timestep of force computation +
//! integration) is invoked once per step (101 in the paper). Table 1 marks
//! it *CPU Long / GPU Short*: the all-pairs force kernel is so GPU-friendly
//! that the same step crosses the 100 ms threshold on the CPU but not on the
//! GPU.
//!
//! Verification: total momentum is conserved by symmetric forces, and a full
//! serial reference of the first two steps must match bitwise.

use crate::profiles::{Calib, Profile};
use crate::workload::{Invoker, Verification, Workload, WorkloadSpec};
use easched_sim::{AccessPattern, KernelTraits, Platform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

const DT: f64 = 0.001;
const SOFTENING: f64 = 1e-3;

/// Double-buffered body state: positions, velocities, masses.
#[derive(Debug, Clone, PartialEq)]
struct Bodies {
    pos: Vec<[f64; 3]>,
    vel: Vec<[f64; 3]>,
    mass: Vec<f64>,
}

impl Bodies {
    fn random(n: usize, seed: u64) -> Bodies {
        let mut rng = StdRng::seed_from_u64(seed);
        Bodies {
            pos: (0..n)
                .map(|_| {
                    [
                        rng.gen_range(-1.0..1.0),
                        rng.gen_range(-1.0..1.0),
                        rng.gen_range(-1.0..1.0),
                    ]
                })
                .collect(),
            vel: (0..n)
                .map(|_| {
                    [
                        rng.gen_range(-0.1..0.1),
                        rng.gen_range(-0.1..0.1),
                        rng.gen_range(-0.1..0.1),
                    ]
                })
                .collect(),
            mass: (0..n).map(|_| rng.gen_range(0.5..2.0)).collect(),
        }
    }

    fn momentum(&self) -> [f64; 3] {
        let mut p = [0.0; 3];
        for (v, &m) in self.vel.iter().zip(&self.mass) {
            for d in 0..3 {
                p[d] += v[d] * m;
            }
        }
        p
    }
}

/// Acceleration on body `i` from all others (softened gravity, G = 1).
#[allow(clippy::needless_range_loop)] // k indexes three parallel arrays
fn accel(bodies: &Bodies, i: usize) -> [f64; 3] {
    let pi = bodies.pos[i];
    let mut a = [0.0; 3];
    for j in 0..bodies.pos.len() {
        if j == i {
            continue;
        }
        let pj = bodies.pos[j];
        let d = [pj[0] - pi[0], pj[1] - pi[1], pj[2] - pi[2]];
        let r2 = d[0] * d[0] + d[1] * d[1] + d[2] * d[2] + SOFTENING;
        let inv_r3 = 1.0 / (r2 * r2.sqrt());
        let s = bodies.mass[j] * inv_r3;
        for k in 0..3 {
            a[k] += s * d[k];
        }
    }
    a
}

/// One serial leapfrog-Euler step (reference).
#[allow(clippy::needless_range_loop)] // k indexes parallel vel/pos arrays
fn serial_step(bodies: &Bodies) -> Bodies {
    let n = bodies.pos.len();
    let mut out = bodies.clone();
    for i in 0..n {
        let a = accel(bodies, i);
        for k in 0..3 {
            out.vel[i][k] = bodies.vel[i][k] + a[k] * DT;
            out.pos[i][k] = bodies.pos[i][k] + out.vel[i][k] * DT;
        }
    }
    out
}

/// The N-Body workload: `steps` timesteps over `n` bodies.
#[derive(Debug)]
pub struct NBody {
    initial: Bodies,
    steps: u32,
    profile: Profile,
    /// The serial state after two steps, computed on the first drive that
    /// reaches step two and compared against on every such drive.
    serial_after_two: OnceLock<Bodies>,
}

impl NBody {
    /// Creates an `n`-body system advanced `steps` timesteps.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2` or `steps == 0`.
    pub fn new(n: usize, steps: u32, seed: u64, profile: Profile) -> Self {
        assert!(n >= 2 && steps > 0, "need at least 2 bodies and 1 step");
        NBody {
            initial: Bodies::random(n, seed),
            steps,
            profile,
            serial_after_two: OnceLock::new(),
        }
    }

    /// Default calibration: GPU ≈ 15× CPU on the desktop (all-pairs forces
    /// are embarrassingly SIMD), putting the same step on opposite sides of
    /// the 100 ms short/long threshold.
    pub fn default_profile() -> Profile {
        Profile {
            desktop: Calib {
                cpu_rate: 7.5e3,
                gpu_rate: 1.1e5,
                mem_intensity: 0.05,
                access: AccessPattern::Streaming,
                working_set: 4096 * 56, // paper: 4096 bodies
                bus_fraction: 0.08,
                irregularity: 0.03,
                instr_per_item: 12_000.0,
                loads_per_item: 4_100.0,
            },
            tablet: Calib {
                cpu_rate: 3.5e3,
                gpu_rate: 9.0e3,
                mem_intensity: 0.05,
                access: AccessPattern::Streaming,
                working_set: 1024 * 56,
                bus_fraction: 0.08,
                irregularity: 0.03,
                instr_per_item: 3_000.0,
                loads_per_item: 1_025.0,
            },
        }
    }
}

impl Workload for NBody {
    fn input_description(&self) -> String {
        format!("{} bodies, {} steps", self.initial.pos.len(), self.steps)
    }

    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            name: "N-Body",
            abbrev: "NB",
            regular: true,
            runs_on_tablet: true,
        }
    }

    fn traits_for(&self, platform: &Platform) -> KernelTraits {
        self.profile.traits_for("NB", platform)
    }

    fn drive(&self, invoker: &mut dyn Invoker) -> Verification {
        let n = self.initial.pos.len();
        let mut current = self.initial.clone();
        let p0 = self.initial.momentum();

        for step in 0..self.steps {
            // Next-state buffers written through atomics (one writer per item).
            let next_pos: Vec<[AtomicU64; 3]> = (0..n).map(|_| Default::default()).collect();
            let next_vel: Vec<[AtomicU64; 3]> = (0..n).map(|_| Default::default()).collect();
            {
                let cur = &current;
                invoker.invoke(n as u64, &|items| {
                    for i in items {
                        let a = accel(cur, i);
                        for k in 0..3 {
                            let v = cur.vel[i][k] + a[k] * DT;
                            let p = cur.pos[i][k] + v * DT;
                            next_vel[i][k].store(v.to_bits(), Ordering::Relaxed);
                            next_pos[i][k].store(p.to_bits(), Ordering::Relaxed);
                        }
                    }
                });
            }
            for i in 0..n {
                for k in 0..3 {
                    current.vel[i][k] = f64::from_bits(next_vel[i][k].load(Ordering::Relaxed));
                    current.pos[i][k] = f64::from_bits(next_pos[i][k].load(Ordering::Relaxed));
                }
            }
            if step == 1
                && current
                    != *self
                        .serial_after_two
                        .get_or_init(|| serial_step(&serial_step(&self.initial)))
            {
                return Verification::Failed("state after 2 steps differs from serial".into());
            }
        }

        // Softened symmetric forces conserve momentum up to roundoff.
        let p1 = current.momentum();
        let drift: f64 = (0..3).map(|k| (p1[k] - p0[k]).abs()).sum();
        let scale: f64 = (0..3).map(|k| p0[k].abs()).sum::<f64>().max(1.0);
        if drift / scale > 1e-6 {
            return Verification::Failed(format!("momentum drift {drift}"));
        }
        Verification::Passed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{record_trace, SerialInvoker};

    #[test]
    fn two_body_accelerations_opposite() {
        let b = Bodies {
            pos: vec![[0.0; 3], [1.0, 0.0, 0.0]],
            vel: vec![[0.0; 3]; 2],
            mass: vec![1.0, 1.0],
        };
        let a0 = accel(&b, 0);
        let a1 = accel(&b, 1);
        assert!(a0[0] > 0.0, "body 0 pulled toward body 1");
        assert!((a0[0] + a1[0]).abs() < 1e-12, "equal and opposite");
    }

    #[test]
    fn serial_step_conserves_momentum() {
        let b = Bodies::random(32, 5);
        let after = serial_step(&b);
        let p0 = b.momentum();
        let p1 = after.momentum();
        for k in 0..3 {
            assert!((p0[k] - p1[k]).abs() < 1e-9);
        }
    }

    #[test]
    fn workload_verifies() {
        let w = NBody::new(48, 5, 1, NBody::default_profile());
        assert!(w.drive(&mut SerialInvoker).is_passed());
    }

    #[test]
    fn trace_is_steps_by_bodies() {
        let w = NBody::new(16, 7, 2, NBody::default_profile());
        let (trace, v) = record_trace(&w);
        assert!(v.is_passed());
        assert_eq!(trace.invocations(), 7);
        assert!(trace.sizes.iter().all(|&s| s == 16));
    }

    #[test]
    fn desktop_cpu_long_gpu_short() {
        // 1024 items per invocation at the default rates: CPU > 100 ms,
        // GPU < 100 ms — the Table 1 L/S split.
        let w = NBody::new(1024, 101, 3, NBody::default_profile());
        let t = w.traits_for(&Platform::haswell_desktop());
        assert!(1024.0 / t.cpu_rate() > 0.1);
        assert!(1024.0 / t.gpu_rate() < 0.1);
    }

    #[test]
    #[should_panic(expected = "need at least 2 bodies")]
    fn rejects_single_body() {
        NBody::new(1, 1, 0, NBody::default_profile());
    }
}
