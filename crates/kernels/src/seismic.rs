//! Seismic wave propagation (TBB's `seismic` example, Table 1 "SM").
//!
//! Regular, memory-bound, one kernel invocation per animation frame (100 in
//! the paper). Each frame applies a damped 5-point-stencil wave-equation
//! update over the grid; a pulse source is injected at the center on the
//! first frame. Verification: a serial simulation of the same frames must
//! match bitwise, and wave energy must propagate (non-zero cells spread
//! outward) while total amplitude stays bounded (damping).

use crate::profiles::{Calib, Profile};
use crate::workload::{Invoker, Verification, Workload, WorkloadSpec};
use easched_sim::{AccessPattern, KernelTraits, Platform};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

const WAVE_SPEED: f32 = 0.25;
const DAMPING: f32 = 0.999;

/// One synchronous wave-equation step: reads `prev` and `cur`, writes the
/// next value for cell `i`.
fn step_cell(width: usize, height: usize, prev: &[f32], cur: &[f32], i: usize) -> f32 {
    let (x, y) = (i % width, i / width);
    // Fixed (reflecting) boundary.
    if x == 0 || y == 0 || x == width - 1 || y == height - 1 {
        return 0.0;
    }
    let lap = cur[i - 1] + cur[i + 1] + cur[i - width] + cur[i + width] - 4.0 * cur[i];
    DAMPING * (2.0 * cur[i] - prev[i] + WAVE_SPEED * lap)
}

/// The seismic workload: `frames` wave-equation steps on a `width × height`
/// grid with an initial center pulse.
#[derive(Debug)]
pub struct Seismic {
    width: usize,
    height: usize,
    frames: u32,
    profile: Profile,
    /// The serial run's last frame, computed on the first drive and
    /// compared against on every drive.
    serial_frame: OnceLock<Vec<f32>>,
}

impl Seismic {
    /// Creates a simulation of the given size.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is < 3 or `frames` is zero.
    pub fn new(width: usize, height: usize, frames: u32, profile: Profile) -> Self {
        assert!(
            width >= 3 && height >= 3 && frames > 0,
            "grid must be at least 3x3 with at least one frame"
        );
        Seismic {
            width,
            height,
            frames,
            profile,
            serial_frame: OnceLock::new(),
        }
    }

    /// Default calibration: memory-bound streaming stencil, short frames.
    pub fn default_profile() -> Profile {
        Profile {
            desktop: Calib {
                cpu_rate: 1.6e7,
                gpu_rate: 2.5e7,
                mem_intensity: 0.90,
                access: AccessPattern::Random, // counter-model calibration: Table 1 says M
                working_set: 1950 * 1326 * 4 * 3,
                bus_fraction: 1.05,
                irregularity: 0.08,
                instr_per_item: 60.0,
                loads_per_item: 25.0,
            },
            tablet: Calib {
                cpu_rate: 2.2e6,
                gpu_rate: 3.6e6,
                mem_intensity: 0.90,
                access: AccessPattern::Random,
                working_set: 1950 * 1326 * 4 * 3,
                bus_fraction: 1.05,
                irregularity: 0.08,
                instr_per_item: 60.0,
                loads_per_item: 25.0,
            },
        }
    }

    fn initial(&self) -> Vec<f32> {
        let mut grid = vec![0.0f32; self.width * self.height];
        let center = (self.height / 2) * self.width + self.width / 2;
        grid[center] = 1.0;
        grid
    }

    fn serial_run(&self) -> Vec<f32> {
        let mut prev = vec![0.0f32; self.width * self.height];
        let mut cur = self.initial();
        for _ in 0..self.frames {
            let next: Vec<f32> = (0..cur.len())
                .map(|i| step_cell(self.width, self.height, &prev, &cur, i))
                .collect();
            prev = cur;
            cur = next;
        }
        cur
    }
}

impl Workload for Seismic {
    fn input_description(&self) -> String {
        format!("{} by {}, {} frames", self.width, self.height, self.frames)
    }

    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            name: "Seismic",
            abbrev: "SM",
            regular: true,
            runs_on_tablet: true,
        }
    }

    fn traits_for(&self, platform: &Platform) -> KernelTraits {
        self.profile.traits_for("SM", platform)
    }

    fn drive(&self, invoker: &mut dyn Invoker) -> Verification {
        let n = self.width * self.height;
        let mut prev = vec![0.0f32; n];
        let mut cur = self.initial();
        for _ in 0..self.frames {
            let next: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
            {
                let (p, c) = (&prev, &cur);
                invoker.invoke(n as u64, &|items| {
                    for i in items {
                        next[i].store(
                            step_cell(self.width, self.height, p, c, i).to_bits(),
                            Ordering::Relaxed,
                        );
                    }
                });
            }
            prev = std::mem::replace(
                &mut cur,
                next.iter()
                    .map(|a| f32::from_bits(a.load(Ordering::Relaxed)))
                    .collect(),
            );
        }
        if cur != *self.serial_frame.get_or_init(|| self.serial_run()) {
            return Verification::Failed("parallel frames differ from serial".into());
        }
        // The wave must have spread beyond the source cell and stayed
        // bounded.
        let nonzero = cur.iter().filter(|&&v| v != 0.0).count();
        let max_abs = cur.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let interior = (self.width - 2) * (self.height - 2);
        if self.frames >= 3 && interior >= 9 && nonzero < 5 {
            return Verification::Failed(format!("wave did not propagate: {nonzero} cells"));
        }
        if !max_abs.is_finite() || max_abs > 10.0 {
            return Verification::Failed(format!("unstable amplitude {max_abs}"));
        }
        Verification::Passed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{record_trace, SerialInvoker};

    #[test]
    fn boundary_cells_pinned_to_zero() {
        let prev = vec![1.0f32; 9];
        let cur = vec![1.0f32; 9];
        assert_eq!(step_cell(3, 3, &prev, &cur, 0), 0.0);
        assert_eq!(step_cell(3, 3, &prev, &cur, 8), 0.0);
        // Center of a uniform field stays put (zero Laplacian), modulo
        // damping: 2·1 − 1 + 0 = 1, damped.
        assert!((step_cell(3, 3, &prev, &cur, 4) - DAMPING).abs() < 1e-6);
    }

    #[test]
    fn pulse_spreads() {
        let s = Seismic::new(21, 21, 8, Seismic::default_profile());
        let final_grid = s.serial_run();
        let nonzero = final_grid.iter().filter(|&&v| v != 0.0).count();
        assert!(nonzero > 20, "wavefront should expand, got {nonzero} cells");
    }

    #[test]
    fn workload_verifies() {
        let s = Seismic::new(17, 13, 6, Seismic::default_profile());
        assert!(s.drive(&mut SerialInvoker).is_passed());
    }

    #[test]
    fn one_invocation_per_frame() {
        let s = Seismic::new(9, 9, 5, Seismic::default_profile());
        let (trace, v) = record_trace(&s);
        assert!(v.is_passed());
        assert_eq!(trace.invocations(), 5);
        assert!(trace.sizes.iter().all(|&n| n == 81));
    }

    #[test]
    fn classifies_memory_bound() {
        let s = Seismic::new(9, 9, 1, Seismic::default_profile());
        for p in [Platform::haswell_desktop(), Platform::baytrail_tablet()] {
            let t = s.traits_for(&p);
            assert!(t.l3_miss_ratio(p.memory.llc_bytes) > 0.33, "{}", p.name);
        }
    }

    #[test]
    #[should_panic(expected = "grid must be at least 3x3")]
    fn rejects_tiny_grid() {
        Seismic::new(2, 5, 1, Seismic::default_profile());
    }
}
