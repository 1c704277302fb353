//! Viola-Jones-style face detection (Table 1 "FD").
//!
//! Irregular, compute-bound, many short kernel invocations, and the one
//! CPU-biased workload in the suite (the paper notes EAS correctly sends FD
//! entirely to the CPU while GPU-alone "suffers significantly").
//!
//! The detector is a real sliding-window cascade over an integral image:
//! for each pyramid scale, each cascade stage is one data-parallel kernel
//! invocation over the windows still alive at that stage — so N shrinks as
//! the cascade rejects windows (input-dependent, hence irregular). The
//! image is synthetic with planted high-contrast "face" patterns
//! (substituting for the Solvay-1927 photograph; see DESIGN.md §2).

use crate::profiles::{Calib, Profile};
use crate::workload::{Invoker, Verification, Workload, WorkloadSpec};
use easched_sim::{AccessPattern, KernelTraits, Platform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};

const BASE_WINDOW: usize = 24;
const SCALE_FACTOR: f64 = 1.25;
const STRIDE: usize = 4;

/// The face-detection workload.
#[derive(Debug)]
pub(crate) struct FaceDetect {
    width: usize,
    height: usize,
    image: Vec<u32>,
    /// Planted face positions `(x, y)` at the base scale.
    planted: Vec<(usize, usize)>,
    stages: usize,
    profile: Profile,
}

/// Summed-area table with one extra row/column of zeros.
fn integral_image(width: usize, height: usize, img: &[u32]) -> Vec<u64> {
    let w1 = width + 1;
    let mut ii = vec![0u64; w1 * (height + 1)];
    for y in 0..height {
        let mut row = 0u64;
        for x in 0..width {
            row += u64::from(img[y * width + x]);
            ii[(y + 1) * w1 + (x + 1)] = ii[y * w1 + (x + 1)] + row;
        }
    }
    ii
}

/// Sum of the rectangle `[x, x+w) × [y, y+h)` from the integral image.
fn rect_sum(ii: &[u64], iw: usize, x: usize, y: usize, w: usize, h: usize) -> u64 {
    let w1 = iw + 1;
    ii[(y + h) * w1 + (x + w)] + ii[y * w1 + x] - ii[y * w1 + (x + w)] - ii[(y + h) * w1 + x]
}

impl FaceDetect {
    /// Creates a `width × height` synthetic group photo with `n_faces`
    /// planted faces, detected by a `stages`-stage cascade.
    ///
    /// # Panics
    ///
    /// Panics if the image is smaller than the base window, or `stages` or
    /// `n_faces` is zero.
    pub(crate) fn new(
        width: usize,
        height: usize,
        n_faces: usize,
        stages: usize,
        seed: u64,
        profile: Profile,
    ) -> Self {
        assert!(
            width >= 2 * BASE_WINDOW && height >= 2 * BASE_WINDOW,
            "image must fit at least 2x the base window"
        );
        assert!(
            stages > 0 && n_faces > 0,
            "stages and faces must be positive"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        // Background: mid-gray noise.
        let mut image: Vec<u32> = (0..width * height)
            .map(|_| rng.gen_range(100..160))
            .collect();
        // Plant faces aligned to the detection grid: left half bright,
        // right half dark (a crude but real Haar-detectable pattern).
        let mut planted = Vec::new();
        let max_x = (width - BASE_WINDOW) / STRIDE;
        let max_y = (height - BASE_WINDOW) / STRIDE;
        while planted.len() < n_faces {
            let wx = rng.gen_range(0..=max_x) * STRIDE;
            let wy = rng.gen_range(0..=max_y) * STRIDE;
            // Avoid overlapping plants (overlap would double-detect).
            if planted.iter().any(|&(px, py): &(usize, usize)| {
                px.abs_diff(wx) < 2 * BASE_WINDOW && py.abs_diff(wy) < 2 * BASE_WINDOW
            }) {
                continue;
            }
            for dy in 0..BASE_WINDOW {
                for dx in 0..BASE_WINDOW {
                    let v = if dx < BASE_WINDOW / 2 { 220 } else { 40 };
                    image[(wy + dy) * width + (wx + dx)] = v;
                }
            }
            planted.push((wx, wy));
        }
        FaceDetect {
            width,
            height,
            image,
            planted,
            stages,
            profile,
        }
    }

    /// Default calibration: the suite's CPU-biased workload (branchy window
    /// rejection runs poorly on SIMD).
    pub(crate) fn default_profile() -> Profile {
        Profile {
            desktop: Calib {
                cpu_rate: 6.0e6,
                gpu_rate: 2.0e6,
                mem_intensity: 0.15,
                access: AccessPattern::Strided,
                working_set: 3000 * 2171 * 4, // paper: Solvay-1927 3000×2171
                bus_fraction: 0.30,
                irregularity: 0.35,
                instr_per_item: 800.0,
                loads_per_item: 250.0,
            },
            tablet: Calib {
                cpu_rate: 8.0e5,
                gpu_rate: 3.0e5,
                mem_intensity: 0.15,
                access: AccessPattern::Strided,
                working_set: 3000 * 2171 * 4,
                bus_fraction: 0.30,
                irregularity: 0.35,
                instr_per_item: 800.0,
                loads_per_item: 250.0,
            },
        }
    }

    /// Pyramid scales: base window grown by 1.25× until it exceeds half the
    /// smaller image dimension.
    fn scales(&self) -> Vec<usize> {
        let max = self.width.min(self.height) / 2;
        let mut out = Vec::new();
        let mut w = BASE_WINDOW as f64;
        while (w as usize) <= max {
            out.push(w as usize);
            w *= SCALE_FACTOR;
        }
        out
    }

    /// Stage `s` feature test on a window: left band of the stage's
    /// sub-rectangle must out-shine the right band by a per-pixel margin.
    fn stage_passes(&self, ii: &[u64], x: usize, y: usize, win: usize, stage: usize) -> bool {
        // Each stage inspects a different horizontal band of the window.
        let bands = self.stages;
        let band_h = (win / bands).max(1);
        let by = y + (stage * band_h).min(win - band_h);
        let half = win / 2;
        let left = rect_sum(ii, self.width, x, by, half, band_h) as f64;
        let right = rect_sum(ii, self.width, x + half, by, win - half, band_h) as f64;
        let area = (half * band_h) as f64;
        (left - right) / area > 25.0
    }
}

impl Workload for FaceDetect {
    fn input_description(&self) -> String {
        format!(
            "{}x{} synthetic photo, {} faces, {} stages",
            self.width,
            self.height,
            self.planted.len(),
            self.stages
        )
    }

    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            name: "Face Detect",
            abbrev: "FD",
            regular: false,
            runs_on_tablet: false,
        }
    }

    fn traits_for(&self, platform: &Platform) -> KernelTraits {
        self.profile.traits_for("FD", platform)
    }

    fn drive(&self, invoker: &mut dyn Invoker) -> Verification {
        let ii = integral_image(self.width, self.height, &self.image);
        let mut detections: Vec<(usize, usize, usize)> = Vec::new();

        for win in self.scales() {
            // All window positions at this scale.
            let mut alive: Vec<(usize, usize)> = (0..=(self.height - win) / STRIDE)
                .flat_map(|gy| {
                    (0..=(self.width - win) / STRIDE).map(move |gx| (gx * STRIDE, gy * STRIDE))
                })
                .collect();
            for stage in 0..self.stages {
                let keep: Vec<AtomicBool> =
                    (0..alive.len()).map(|_| AtomicBool::new(false)).collect();
                {
                    let a = &alive;
                    let k = &keep;
                    let iiref = &ii;
                    invoker.invoke(alive.len() as u64, &|items| {
                        for i in items {
                            let (x, y) = a[i];
                            if self.stage_passes(iiref, x, y, win, stage) {
                                k[i].store(true, Ordering::Relaxed);
                            }
                        }
                    });
                }
                alive = alive
                    .into_iter()
                    .zip(&keep)
                    .filter(|(_, k)| k.load(Ordering::Relaxed))
                    .map(|(w, _)| w)
                    .collect();
                if alive.is_empty() {
                    break;
                }
            }
            detections.extend(alive.into_iter().map(|(x, y)| (x, y, win)));
        }

        // Every planted face must be detected exactly at base scale, and the
        // detector must not light up the whole image.
        for &(px, py) in &self.planted {
            if !detections
                .iter()
                .any(|&(x, y, w)| x == px && y == py && w == BASE_WINDOW)
            {
                return Verification::Failed(format!("planted face at ({px},{py}) missed"));
            }
        }
        let windows_base =
            ((self.width - BASE_WINDOW) / STRIDE + 1) * ((self.height - BASE_WINDOW) / STRIDE + 1);
        if detections.len() > windows_base / 10 {
            return Verification::Failed(format!(
                "{} detections is implausibly many",
                detections.len()
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
    fn integral_image_sums() {
        // 2x2 image [[1,2],[3,4]]: total 10, first column 4.
        let ii = integral_image(2, 2, &[1, 2, 3, 4]);
        assert_eq!(rect_sum(&ii, 2, 0, 0, 2, 2), 10);
        assert_eq!(rect_sum(&ii, 2, 0, 0, 1, 2), 4);
        assert_eq!(rect_sum(&ii, 2, 1, 1, 1, 1), 4);
    }

    #[test]
    fn planted_faces_detected() {
        let w = FaceDetect::new(160, 120, 3, 6, 1, FaceDetect::default_profile());
        assert!(w.drive(&mut SerialInvoker).is_passed());
    }

    #[test]
    fn invocation_count_is_scales_times_stages_at_most() {
        let w = FaceDetect::new(160, 120, 2, 6, 2, FaceDetect::default_profile());
        let scales = w.scales().len();
        let (trace, v) = record_trace(&w);
        assert!(v.is_passed());
        assert!(trace.invocations() <= scales * 6);
        assert!(trace.invocations() >= scales, "at least stage 0 per scale");
    }

    #[test]
    fn cascade_shrinks_n() {
        let w = FaceDetect::new(160, 120, 2, 6, 3, FaceDetect::default_profile());
        let (trace, _) = record_trace(&w);
        // The first two invocations are stage 0 and stage 1 of the largest
        // window population: stage 1 must see far fewer windows.
        assert!(
            trace.sizes[1] < trace.sizes[0] / 4,
            "{:?}",
            &trace.sizes[..2]
        );
    }

    #[test]
    fn cpu_biased_calibration() {
        let w = FaceDetect::new(64, 64, 1, 2, 4, FaceDetect::default_profile());
        let t = w.traits_for(&Platform::haswell_desktop());
        assert!(t.cpu_rate() > t.gpu_rate(), "FD is the CPU-biased workload");
        let p = Platform::haswell_desktop();
        assert!(t.l3_miss_ratio(p.memory.llc_bytes) < 0.33, "compute-bound");
    }

    #[test]
    fn scales_grow_geometrically() {
        let w = FaceDetect::new(640, 480, 1, 2, 5, FaceDetect::default_profile());
        let s = w.scales();
        assert!(s.len() >= 8, "expect a deep pyramid, got {}", s.len());
        for pair in s.windows(2) {
            assert!(pair[1] > pair[0]);
        }
    }

    #[test]
    #[should_panic(expected = "image must fit")]
    fn rejects_tiny_image() {
        FaceDetect::new(30, 30, 1, 2, 0, FaceDetect::default_profile());
    }
}
