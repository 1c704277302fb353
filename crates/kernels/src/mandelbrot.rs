//! Mandelbrot escape-time rendering (Table 1 "MB").
//!
//! Irregular (per-pixel iteration counts are input-dependent) with a single
//! long kernel invocation over all pixels. Table 1 classifies MB as
//! *memory-bound* at the paper's 7680×6144 scale — the image dwarfs the LLC
//! and writes stream straight to DRAM — and our calibration reproduces that
//! classification.

use crate::profiles::{Calib, Profile};
use crate::workload::{Invoker, Verification, Workload, WorkloadSpec};
use easched_sim::{AccessPattern, KernelTraits, Platform};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

/// Escape-time iteration count for pixel coordinates in the complex plane.
fn escape_time(cx: f64, cy: f64, max_iter: u32) -> u32 {
    let (mut x, mut y) = (0.0f64, 0.0f64);
    let mut iter = 0;
    while x * x + y * y <= 4.0 && iter < max_iter {
        let xt = x * x - y * y + cx;
        y = 2.0 * x * y + cy;
        x = xt;
        iter += 1;
    }
    iter
}

/// The Mandelbrot workload: one invocation rendering a `width × height`
/// escape-time image of the region [−2.2, 1] × [−1.2, 1.2].
#[derive(Debug)]
pub struct Mandelbrot {
    width: usize,
    height: usize,
    max_iter: u32,
    profile: Profile,
    /// The serial reference image, computed on the first drive and
    /// compared against on every drive.
    serial_image: OnceLock<Vec<u32>>,
}

impl Mandelbrot {
    /// Creates a render of the given size.
    ///
    /// # Panics
    ///
    /// Panics if any dimension or `max_iter` is zero.
    pub fn new(width: usize, height: usize, max_iter: u32, profile: Profile) -> Self {
        assert!(
            width > 0 && height > 0 && max_iter > 0,
            "dimensions and max_iter must be positive"
        );
        Mandelbrot {
            width,
            height,
            max_iter,
            profile,
            serial_image: OnceLock::new(),
        }
    }

    /// Default calibration. Memory-bound per Table 1 (paper-scale image is
    /// 188 MB; writes and row walks stream past the LLC).
    pub fn default_profile() -> Profile {
        Profile {
            desktop: Calib {
                cpu_rate: 3.0e5,
                gpu_rate: 4.8e5,
                mem_intensity: 0.85,
                access: AccessPattern::Random,
                working_set: 7680 * 6144 * 4, // paper-scale image
                bus_fraction: 1.05,
                irregularity: 0.25,
                instr_per_item: 900.0,
                loads_per_item: 150.0,
            },
            tablet: Calib {
                cpu_rate: 3.5e4,
                gpu_rate: 6.0e4,
                mem_intensity: 0.85,
                access: AccessPattern::Random,
                working_set: 7680 * 6144 * 4, // same input on the tablet
                bus_fraction: 1.05,
                irregularity: 0.25,
                instr_per_item: 900.0,
                loads_per_item: 150.0,
            },
        }
    }

    /// Escape time of pixel `i` (row-major).
    fn escape_time_at(&self, i: usize) -> u32 {
        let (x, y) = (i % self.width, i / self.width);
        let cx = -2.2 + 3.2 * (x as f64 + 0.5) / self.width as f64;
        let cy = -1.2 + 2.4 * (y as f64 + 0.5) / self.height as f64;
        escape_time(cx, cy, self.max_iter)
    }
}

impl Workload for Mandelbrot {
    fn input_description(&self) -> String {
        format!(
            "image {}x{}, {} iterations",
            self.width, self.height, self.max_iter
        )
    }

    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            name: "Mandelbrot",
            abbrev: "MB",
            regular: false,
            runs_on_tablet: true,
        }
    }

    fn traits_for(&self, platform: &Platform) -> KernelTraits {
        self.profile.traits_for("MB", platform)
    }

    fn drive(&self, invoker: &mut dyn Invoker) -> Verification {
        let n = self.width * self.height;
        let image: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(u32::MAX)).collect();
        invoker.invoke(n as u64, &|items| {
            for i in items {
                image[i].store(self.escape_time_at(i), Ordering::Relaxed);
            }
        });
        // The serial render must match exactly; also require both interior
        // (max_iter) and escaping pixels to be present — the region straddles
        // the set boundary by construction.
        let serial = self
            .serial_image
            .get_or_init(|| (0..n).map(|i| self.escape_time_at(i)).collect());
        let mut interior = 0u64;
        let mut exterior = 0u64;
        for (i, (px, &want)) in image.iter().zip(serial).enumerate() {
            let got = px.load(Ordering::Relaxed);
            if got != want {
                return Verification::Failed(format!("pixel {i}: {got} vs {want}"));
            }
            if got == self.max_iter {
                interior += 1;
            } else {
                exterior += 1;
            }
        }
        if interior == 0 || exterior == 0 {
            return Verification::Failed(format!(
                "degenerate image: {interior} interior, {exterior} exterior"
            ));
        }
        Verification::Passed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{record_trace, SerialInvoker};

    #[test]
    fn known_points() {
        // Origin is in the set; far point escapes immediately.
        assert_eq!(escape_time(0.0, 0.0, 100), 100);
        assert_eq!(escape_time(2.0, 2.0, 100), 1);
        // c = −1 is periodic (in the set).
        assert_eq!(escape_time(-1.0, 0.0, 256), 256);
        // c = 0.26 sits just outside the cardioid cusp: escapes slowly.
        let t = escape_time(0.26, 0.0, 256);
        assert!(t > 5 && t < 256, "t={t}");
    }

    #[test]
    fn iteration_count_monotone_in_budget() {
        let a = escape_time(-0.75, 0.1, 50);
        let b = escape_time(-0.75, 0.1, 500);
        assert!(b >= a);
    }

    #[test]
    fn workload_verifies() {
        let w = Mandelbrot::new(48, 32, 64, Mandelbrot::default_profile());
        assert!(w.drive(&mut SerialInvoker).is_passed());
    }

    #[test]
    fn single_invocation() {
        let w = Mandelbrot::new(20, 10, 32, Mandelbrot::default_profile());
        let (trace, v) = record_trace(&w);
        assert!(v.is_passed());
        assert_eq!(trace.sizes, vec![200]);
    }

    #[test]
    fn classifies_memory_bound_per_table1() {
        let w = Mandelbrot::new(8, 8, 16, Mandelbrot::default_profile());
        for p in [Platform::haswell_desktop(), Platform::baytrail_tablet()] {
            let t = w.traits_for(&p);
            assert!(
                t.l3_miss_ratio(p.memory.llc_bytes) > 0.33,
                "MB is memory-bound in Table 1 ({})",
                p.name
            );
        }
    }

    #[test]
    #[should_panic(expected = "dimensions and max_iter must be positive")]
    fn rejects_zero_iter() {
        Mandelbrot::new(8, 8, 0, Mandelbrot::default_profile());
    }
}
