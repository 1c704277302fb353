//! Dense matrix multiplication (Table 1 "MM").
//!
//! Regular, compute-bound, single long kernel invocation. Each item computes
//! one element of C = A·B. The classic GPU-friendly workload: the paper's
//! desktop GPU wins by a wide margin.
//!
//! An item range computes [`COLUMNS`] consecutive entries of a row in
//! lock-step, so each row of B it walks serves eight entries, not one.

use crate::profiles::{Calib, Profile};
use crate::workload::{Invoker, Verification, Workload, WorkloadSpec};
use easched_sim::{AccessPattern, KernelTraits, Platform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};

/// Entries of a row of C the item body computes in lock-step.
const COLUMNS: usize = 8;

/// Square matrix multiply workload: C = A·B with `n × n` matrices.
#[derive(Debug)]
pub struct MatMul {
    n: usize,
    a: Vec<f32>,
    b: Vec<f32>,
    profile: Profile,
}

impl MatMul {
    /// Creates an `n × n` multiply with seeded inputs.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize, seed: u64, profile: Profile) -> Self {
        assert!(n > 0, "matrix dimension must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let a = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let b = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        MatMul { n, a, b, profile }
    }

    /// Default calibration: GPU ≈ 3.2× CPU on the desktop, ≈ 1.8× on the
    /// tablet.
    pub fn default_profile() -> Profile {
        Profile {
            desktop: Calib {
                cpu_rate: 2.2e5,
                gpu_rate: 7.0e5,
                mem_intensity: 0.15,
                access: AccessPattern::Strided,
                working_set: 3 * 2048 * 2048 * 4, // paper: 2048×2048 ×3 matrices
                bus_fraction: 0.35,
                irregularity: 0.02,
                instr_per_item: 2600.0,
                loads_per_item: 1040.0,
            },
            tablet: Calib {
                cpu_rate: 1.2e4,
                gpu_rate: 2.2e4,
                mem_intensity: 0.15,
                access: AccessPattern::Strided,
                working_set: 3 * 1024 * 1024 * 4,
                bus_fraction: 0.35,
                irregularity: 0.02,
                instr_per_item: 1300.0,
                loads_per_item: 520.0,
            },
        }
    }

    fn element(&self, row: usize, col: usize) -> f32 {
        let n = self.n;
        let mut acc = 0.0f32;
        for k in 0..n {
            acc += self.a[row * n + k] * self.b[k * n + col];
        }
        acc
    }

    /// [`Self::element`] of columns `col..col + COLUMNS` of `row`. Each
    /// lane adds `a[row][k] · b[k][col + l]` in `k` order with nothing
    /// fused, the scalar loop's operations in its order, so every lane
    /// has its entry's exact bits.
    fn elements(&self, row: usize, col: usize) -> [f32; COLUMNS] {
        let n = self.n;
        let mut acc = [0.0f32; COLUMNS];
        for k in 0..n {
            let a = self.a[row * n + k];
            let b = &self.b[k * n + col..][..COLUMNS];
            for l in 0..COLUMNS {
                acc[l] += a * b[l];
            }
        }
        acc
    }

    /// Computes entries `items` of C (row-major) into `c`: `COLUMNS` at a
    /// time where that many remain both in the range and in the row,
    /// the others (a range's tail, a row's last columns) one at a time.
    fn render(&self, items: Range<usize>, c: &[AtomicU32]) {
        let n = self.n;
        let mut i = items.start;
        while i < items.end {
            let (row, col) = (i / n, i % n);
            if col + COLUMNS <= n && i + COLUMNS <= items.end {
                for (l, v) in self.elements(row, col).into_iter().enumerate() {
                    debug_assert_eq!(
                        v.to_bits(),
                        self.element(row, col + l).to_bits(),
                        "lane {l} of the group at C[{row},{col}]"
                    );
                    c[i + l].store(v.to_bits(), Ordering::Relaxed);
                }
                i += COLUMNS;
            } else {
                c[i].store(self.element(row, col).to_bits(), Ordering::Relaxed);
                i += 1;
            }
        }
    }
}

impl Workload for MatMul {
    fn input_description(&self) -> String {
        format!("{0} by {0}", self.n)
    }

    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            name: "Matrix Multiply",
            abbrev: "MM",
            regular: true,
            runs_on_tablet: true,
        }
    }

    fn traits_for(&self, platform: &Platform) -> KernelTraits {
        self.profile.traits_for("MM", platform)
    }

    fn drive(&self, invoker: &mut dyn Invoker) -> Verification {
        let n = self.n;
        let c: Vec<AtomicU32> = (0..n * n).map(|_| AtomicU32::new(u32::MAX)).collect();
        invoker.invoke((n * n) as u64, &|items| self.render(items, &c));
        // Verify a pseudo-random sample of entries serially (full recompute
        // would double the dominant cost for zero extra coverage).
        let samples = (n * n / 50).clamp(16, 4096);
        let mut idx = 0usize;
        for s in 0..samples {
            idx = (idx.wrapping_mul(6364136223846793005).wrapping_add(s)) % (n * n);
            let (row, col) = (idx / n, idx % n);
            let got = f32::from_bits(c[idx].load(Ordering::Relaxed));
            let want = self.element(row, col);
            if got != want {
                return Verification::Failed(format!("C[{row},{col}] = {got}, want {want}"));
            }
        }
        Verification::Passed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{record_trace, SerialInvoker};

    #[test]
    fn identity_times_matrix() {
        // Construct A=I manually and check C == B.
        let mut mm = MatMul::new(4, 0, MatMul::default_profile());
        mm.a.fill(0.0);
        for i in 0..4 {
            mm.a[i * 4 + i] = 1.0;
        }
        let n = 4;
        for r in 0..n {
            for cidx in 0..n {
                assert_eq!(mm.element(r, cidx), mm.b[r * n + cidx]);
            }
        }
    }

    #[test]
    fn ranges_cut_mid_row_and_run_backwards_equal_the_scalar_entries() {
        // Every n up to two groups and one more, so rows narrower than a
        // group, rows of exactly one and rows with a ragged end all occur.
        // Pieces of 5 and 11 entries start and end mid-row and mid-group.
        for n in 1..=17 {
            let mm = MatMul::new(n, n as u64, MatMul::default_profile());
            for piece in [5, 11, n * n] {
                let c: Vec<AtomicU32> = (0..n * n).map(|_| AtomicU32::new(u32::MAX)).collect();
                let cuts: Vec<usize> = (0..n * n).step_by(piece).chain([n * n]).collect();
                for range in cuts.windows(2).rev() {
                    mm.render(range[0]..range[1], &c);
                }
                for (i, entry) in c.iter().enumerate() {
                    assert_eq!(
                        entry.load(Ordering::Relaxed),
                        mm.element(i / n, i % n).to_bits(),
                        "n {n}, pieces of {piece}: C[{},{}]",
                        i / n,
                        i % n
                    );
                }
            }
        }
    }

    #[test]
    fn workload_verifies() {
        let w = MatMul::new(24, 1, MatMul::default_profile());
        assert!(w.drive(&mut SerialInvoker).is_passed());
    }

    #[test]
    fn single_invocation_of_n_squared_items() {
        let w = MatMul::new(16, 2, MatMul::default_profile());
        let (trace, v) = record_trace(&w);
        assert!(v.is_passed());
        assert_eq!(trace.sizes, vec![256]);
    }

    #[test]
    fn classifies_compute_bound() {
        let w = MatMul::new(8, 3, MatMul::default_profile());
        for p in [Platform::haswell_desktop(), Platform::baytrail_tablet()] {
            let t = w.traits_for(&p);
            assert!(t.l3_miss_ratio(p.memory.llc_bytes) < 0.33, "{}", p.name);
        }
    }

    #[test]
    fn gpu_favored_on_desktop() {
        let w = MatMul::new(8, 3, MatMul::default_profile());
        let t = w.traits_for(&Platform::haswell_desktop());
        let ratio = t.gpu_rate() / t.cpu_rate();
        assert!((1.5..4.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "matrix dimension must be positive")]
    fn rejects_zero_dim() {
        MatMul::new(0, 0, MatMul::default_profile());
    }
}
