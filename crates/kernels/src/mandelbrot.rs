//! Mandelbrot escape-time rendering (Table 1 "MB").
//!
//! Irregular (per-pixel iteration counts are input-dependent) with a single
//! long kernel invocation over all pixels. Table 1 classifies MB as
//! *memory-bound* at the paper's 7680×6144 scale — the image dwarfs the LLC
//! and writes stream straight to DRAM — and our calibration reproduces that
//! classification.
//!
//! A pixel whose centre passes [`interior`] (the main cardioid or the
//! period-2 disc, with a margin) is settled at `max_iter` without
//! iterating; the others are packed `LANES` at a time into a lock-step
//! group.

use crate::pool::spread_if_long;
use crate::profiles::{Calib, Profile};
use crate::workload::{Invoker, Verification, Workload, WorkloadSpec};
use easched_sim::{AccessPattern, KernelTraits, Platform};
use std::ops::Range;
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

/// How far inside the cardioid or the disc, in the units of its test, a
/// point must lie before [`interior`] accepts it. Rounding moves either
/// side of a test by less than 1e-14 wherever it can hold, so a point on
/// the boundary, or outside it, is never accepted.
const INTERIOR_MARGIN: f64 = 1e-9;

/// Whether `c = cx + i·cy` lies inside the main cardioid,
/// `q(q + x − ¼) < ¼y²` with `q = (x − ¼)² + y²`, or the period-2 disc,
/// `(x + 1)² + y² < 1/16`, by [`INTERIOR_MARGIN`]. There the orbit of 0
/// converges to an attracting fixed point or 2-cycle and never leaves
/// |z| ≤ 2, so [`escape_time`] is `max_iter` whatever the budget. NaN
/// and infinite coordinates fail both comparisons.
fn interior(cx: f64, cy: f64) -> bool {
    let yy = cy * cy;
    let t = cx - 0.25;
    let q = t * t + yy;
    let b = cx + 1.0;
    q * (q + t) < 0.25 * yy - INTERIOR_MARGIN || b * b + yy < 0.0625 - INTERIOR_MARGIN
}

/// Pixels the item body iterates in lock-step.
pub const LANES: usize = 8;

/// [`escape_time`] of `LANES` points at once.
///
/// Each lane makes the scalar loop's IEEE operations in the scalar
/// loop's order (`x * x` and `y * y` are computed once for the test and
/// the update, which are the same values) and nothing fuses them, so a
/// live lane's `x`, `y` and count follow the scalar loop bit for bit. A
/// lane whose test fails keeps its `x` and `y` by select, so its test
/// keeps failing and its count stays where the scalar loop stopped. The
/// `iter < max_iter` test is the step bound: every live lane has
/// counted every step.
fn escape_times(cx: &[f64; LANES], cy: &[f64; LANES], max_iter: u32) -> [u32; LANES] {
    let mut x = [0.0f64; LANES];
    let mut y = [0.0f64; LANES];
    let mut iter = [0u32; LANES];
    for _ in 0..max_iter {
        let mut live = [false; LANES];
        for l in 0..LANES {
            let (xx, yy) = (x[l] * x[l], y[l] * y[l]);
            live[l] = xx + yy <= 4.0;
            let xt = xx - yy + cx[l];
            let yt = 2.0 * x[l] * y[l] + cy[l];
            x[l] = if live[l] { xt } else { x[l] };
            y[l] = if live[l] { yt } else { y[l] };
            iter[l] += u32::from(live[l]);
        }
        if !live.contains(&true) {
            break;
        }
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
    /// Panics if any dimension is zero or `max_iter` is below 2: one
    /// iteration leaves every pixel interior, an image no drive verifies.
    pub fn new(width: usize, height: usize, max_iter: u32, profile: Profile) -> Self {
        assert!(
            width > 0 && height > 0 && max_iter >= 2,
            "dimensions must be positive and max_iter at least 2"
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

    /// Real part of column `x`'s pixel centre.
    fn re(&self, x: usize) -> f64 {
        -2.2 + 3.2 * (x as f64 + 0.5) / self.width as f64
    }

    /// Imaginary part of row `y`'s pixel centre.
    fn im(&self, y: usize) -> f64 {
        -1.2 + 2.4 * (y as f64 + 0.5) / self.height as f64
    }

    /// Escape time of pixel `i` (row-major), one pixel at a time: the
    /// serial reference.
    fn escape_time_at(&self, i: usize) -> u32 {
        escape_time(
            self.re(i % self.width),
            self.im(i / self.width),
            self.max_iter,
        )
    }

    /// The serial reference image: [`Self::escape_time_at`] per pixel,
    /// not the lock-step path, so the two are computed independently. A
    /// long fill runs on every CPU by [`spread_if_long`]; each pixel is
    /// still one scalar call.
    fn reference_image(&self) -> Vec<u32> {
        let n = self.width * self.height;
        let image: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        spread_if_long(n, &|pixels| {
            for i in pixels {
                image[i].store(self.escape_time_at(i), Ordering::Relaxed);
            }
        });
        // Same size and alignment: the buffer is reused in place.
        image.into_iter().map(AtomicU32::into_inner).collect()
    }

    /// Renders pixels `items` into `image`. A pixel that passes
    /// [`interior`] is stored as `max_iter`; the others are packed, in
    /// range order, into groups of the next `LANES` pixels that still
    /// need iterating (a group may skip settled pixels and span rows),
    /// and the last `< LANES` go one at a time. `cols` and `rows` hold
    /// [`Self::re`] and [`Self::im`] per column and row.
    fn render(&self, items: Range<usize>, cols: &[f64], rows: &[f64], image: &[AtomicU32]) {
        let (mut x, mut y) = (items.start % self.width, items.start / self.width);
        // The pixels waiting for a group: index and centre.
        let mut at = [0usize; LANES];
        let (mut cx, mut cy) = ([0.0; LANES], [0.0; LANES]);
        let mut waiting = 0;
        for i in items {
            let c = (cols[x], rows[y]);
            x += 1;
            if x == self.width {
                (x, y) = (0, y + 1);
            }
            if interior(c.0, c.1) {
                debug_assert_eq!(
                    escape_time(c.0, c.1, self.max_iter),
                    self.max_iter,
                    "settled pixel {i}"
                );
                image[i].store(self.max_iter, Ordering::Relaxed);
                continue;
            }
            (at[waiting], cx[waiting], cy[waiting]) = (i, c.0, c.1);
            waiting += 1;
            if waiting == LANES {
                let times = escape_times(&cx, &cy, self.max_iter);
                for (l, &t) in times.iter().enumerate() {
                    debug_assert_eq!(
                        t,
                        escape_time(cx[l], cy[l], self.max_iter),
                        "lane {l}, pixel {}",
                        at[l]
                    );
                    image[at[l]].store(t, Ordering::Relaxed);
                }
                waiting = 0;
            }
        }
        for l in 0..waiting {
            let t = escape_time(cx[l], cy[l], self.max_iter);
            image[at[l]].store(t, Ordering::Relaxed);
        }
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
        let cols: Vec<f64> = (0..self.width).map(|x| self.re(x)).collect();
        let rows: Vec<f64> = (0..self.height).map(|y| self.im(y)).collect();
        invoker.invoke(n as u64, &|items| {
            self.render(items, &cols, &rows, &image);
        });
        // The serial render must match exactly; also require both interior
        // (max_iter) and escaping pixels to be present — the region straddles
        // the set boundary by construction.
        let serial = self.serial_image.get_or_init(|| self.reference_image());
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
    fn lock_step_counts_equal_the_scalar_ones() {
        // Points on and around |c| = 2, in the set, escaping at once,
        // ones whose orbits overflow to infinity or NaN, and a diagonal
        // across the rendered region.
        let specials = [
            (0.0, 0.0),
            (2.0, 0.0),
            (-2.0, 0.0),
            (0.0, 2.0),
            (0.26, 0.0),
            (-0.75, 0.1),
            (1e200, 0.0),
            (-1e200, 1e200),
            (f64::INFINITY, 0.0),
            (f64::NAN, 0.0),
            (0.0, f64::NEG_INFINITY),
            (2.0f64.next_up(), 0.0),
        ];
        let diagonal = (0..60).map(|k| (-2.3 + 0.055 * k as f64, -1.25 + 0.04 * k as f64));
        let points: Vec<(f64, f64)> = specials.into_iter().chain(diagonal).collect();
        for max_iter in [0, 1, 2, 3, 17, 256] {
            for group in points.chunks_exact(LANES) {
                let cx = std::array::from_fn(|l| group[l].0);
                let cy = std::array::from_fn(|l| group[l].1);
                let times = escape_times(&cx, &cy, max_iter);
                for l in 0..LANES {
                    assert_eq!(
                        times[l],
                        escape_time(cx[l], cy[l], max_iter),
                        "c = ({}, {}), max_iter {max_iter}",
                        cx[l],
                        cy[l]
                    );
                }
            }
        }
    }

    #[test]
    fn interior_rejects_the_boundary_and_accepts_the_centres() {
        // Points on a boundary or within one ulp of one, so within the
        // margin: the cusp, the cardioid's and the disc's meeting point
        // and the disc's far end on the real axis, then the disc's top
        // and bottom. Then coordinates that are not finite numbers.
        let mut rejected = Vec::new();
        for x in [0.25f64, -0.75, -1.25] {
            rejected.extend([(x.next_down(), 0.0), (x, 0.0), (x.next_up(), 0.0)]);
        }
        for y in [0.25f64, -0.25] {
            rejected.extend([(-1.0, y.next_down()), (-1.0, y), (-1.0, y.next_up())]);
        }
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            rejected.extend([(v, 0.0), (0.0, v), (-1.0, v), (v, v)]);
        }
        for (cx, cy) in rejected {
            assert!(!interior(cx, cy), "c = ({cx:e}, {cy:e}) accepted");
        }
        // The cardioid's fixed-point centre, the disc's centre, and points
        // well inside each near the cusp, the neck and the disc's edge.
        for (cx, cy) in [
            (0.0, 0.0),
            (-1.0, 0.0),
            (0.24, 0.0),
            (-0.7, 0.0),
            (-0.8, 0.0),
            (-1.2, 0.0),
        ] {
            assert!(interior(cx, cy), "c = ({cx}, {cy}) rejected");
            assert_eq!(escape_time(cx, cy, 2000), 2000, "c = ({cx}, {cy})");
        }
    }

    /// Every point `interior` accepts on dense grids over the rendered
    /// region, and among points a step outside a boundary, reaches every
    /// tested budget in the scalar loop. ≈5 s in release, far longer in
    /// debug: release only (ci.sh's one-CPU `easched-kernels` line runs
    /// it).
    #[test]
    #[cfg_attr(debug_assertions, ignore)]
    fn interior_never_lies() {
        let mut accepted = 0u64;
        let mut check = |cx: f64, cy: f64, at: &str| {
            if interior(cx, cy) {
                accepted += 1;
                for max_iter in [2, 64, 256, 2000] {
                    assert_eq!(
                        escape_time(cx, cy, max_iter),
                        max_iter,
                        "{at}: c = ({cx:e}, {cy:e}) accepted"
                    );
                }
            }
        };
        for (w, h) in [(640usize, 480usize), (777, 333), (2048, 1536)] {
            let pic = Mandelbrot::new(w, h, 2, Mandelbrot::default_profile());
            let cols: Vec<f64> = (0..w).map(|x| pic.re(x)).collect();
            let rows: Vec<f64> = (0..h).map(|y| pic.im(y)).collect();
            let grid = format!("{w}x{h}");
            for &cy in &rows {
                for &cx in &cols {
                    check(cx, cy, &grid);
                }
            }
        }
        // Points outside the set, each escaping within 2000 steps: the
        // real axis past the cusp at ¼ + 10⁻ᵏ (escape there takes ≈ π/√ε
        // steps), a step above and below the cardioid–disc junction, and
        // a step radially outside the disc. The cardioid test's gradient
        // vanishes at the cusp, so a margin of the wrong sign accepts
        // points up to ≈10⁻³ past it; elsewhere it reaches only ≈10⁻⁹
        // past a boundary, where escape takes far more than 2000 steps.
        let mut outside = vec![(0.251, 0.0), (0.2501, 0.0), (0.25001, 0.0)];
        outside.extend([(-0.75, 0.01), (-0.75, -0.01)]);
        outside.extend([20.0f64, 100.0, 150.0].map(|degrees| {
            let (sin, cos) = degrees.to_radians().sin_cos();
            (-1.0 + 0.26 * cos, 0.26 * sin)
        }));
        for (cx, cy) in outside {
            assert!(escape_time(cx, cy, 2000) < 2000, "c = ({cx}, {cy})");
            check(cx, cy, "a step outside");
        }
        // About a sixth of the region is cardioid or disc: 664 284 points.
        assert!(accepted > 600_000, "only {accepted} points accepted");
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
    fn rejects_fewer_than_two_iterations() {
        for max_iter in [0, 1] {
            let made = std::panic::catch_unwind(|| {
                Mandelbrot::new(8, 8, max_iter, Mandelbrot::default_profile())
            });
            let why = made.expect_err("constructed").downcast::<&str>().unwrap();
            assert!(
                why.contains("max_iter at least 2"),
                "max_iter {max_iter}: {why}"
            );
        }
    }
}
