//! One-dimensional minimization.
//!
//! The EAS algorithm (paper Fig. 7, step 20) finds the GPU offload ratio α
//! minimizing the energy objective by evaluating the objective on a grid over
//! [0, 1]; [`grid_min`] implements that. [`golden_section_min`] is provided
//! for the grid-resolution ablation study (DESIGN.md §5.2).

/// Result of a grid minimization: the minimizing abscissa and value.
///
/// # Examples
///
/// ```
/// use easched_num::grid_min;
///
/// let m = grid_min(0.0, 1.0, 10, |x| (x - 0.3).powi(2));
/// assert!((m.x - 0.3).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridMin {
    /// Abscissa of the minimum sample.
    pub x: f64,
    /// Objective value at [`GridMin::x`].
    pub value: f64,
    /// Index of the minimizing sample in `0..=steps`.
    pub(crate) index: usize,
}

/// Minimizes `f` over `steps + 1` equally spaced samples of `[lo, hi]`,
/// returning the smallest sample. Ties go to the smaller `x` (for EAS this
/// biases toward less GPU offload, a deterministic and conservative choice).
///
/// Non-finite objective values are skipped; if *every* sample is non-finite
/// the first sample is returned with value `f64::INFINITY`.
///
/// # Panics
///
/// Panics if `steps == 0`, `lo > hi`, or either bound is non-finite.
///
/// # Examples
///
/// ```
/// use easched_num::grid_min;
///
/// // EAS evaluates EDP(α) for α ∈ {0.0, 0.1, ..., 1.0}.
/// let m = grid_min(0.0, 1.0, 10, |a| (a - 0.9) * (a - 0.9));
/// assert!((m.x - 0.9).abs() < 1e-12);
/// ```
pub fn grid_min<F: FnMut(f64) -> f64>(lo: f64, hi: f64, steps: usize, mut f: F) -> GridMin {
    assert!(steps > 0, "grid_min requires at least one step");
    assert!(
        lo.is_finite() && hi.is_finite() && lo <= hi,
        "grid_min requires finite lo <= hi"
    );
    let mut best = GridMin {
        x: lo,
        value: f64::INFINITY,
        index: 0,
    };
    for i in 0..=steps {
        // Exact endpoints at i == 0 and i == steps.
        let x = lo + (hi - lo) * (i as f64 / steps as f64);
        let v = f(x);
        if v.is_finite() && v < best.value {
            best = GridMin {
                x,
                value: v,
                index: i,
            };
        }
    }
    best
}

/// Ratio of the golden section (φ − 1 ≈ 0.618).
const INV_PHI: f64 = 0.618_033_988_749_894_9;

/// Golden-section search for the minimum of a unimodal `f` over `[lo, hi]`.
///
/// Runs until the bracket is narrower than `tol` (or 200 iterations).
/// Returns `(x, f(x))` at the bracket midpoint. For non-unimodal functions
/// the result is a local minimum.
///
/// # Panics
///
/// Panics if `tol <= 0`, bounds are non-finite, or `lo > hi`.
///
/// # Examples
///
/// ```
/// use easched_num::golden_section_min;
///
/// let (x, v) = golden_section_min(0.0, 1.0, 1e-9, |a| (a - 0.42f64).powi(2));
/// assert!((x - 0.42).abs() < 1e-6);
/// assert!(v < 1e-9);
/// ```
pub fn golden_section_min<F: FnMut(f64) -> f64>(
    lo: f64,
    hi: f64,
    tol: f64,
    mut f: F,
) -> (f64, f64) {
    assert!(tol > 0.0, "golden_section_min requires positive tol");
    assert!(
        lo.is_finite() && hi.is_finite() && lo <= hi,
        "golden_section_min requires finite lo <= hi"
    );
    let (mut a, mut b) = (lo, hi);
    let mut c = b - INV_PHI * (b - a);
    let mut d = a + INV_PHI * (b - a);
    let mut fc = f(c);
    let mut fd = f(d);
    let mut iters = 0;
    while (b - a) > tol && iters < 200 {
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - INV_PHI * (b - a);
            fc = f(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + INV_PHI * (b - a);
            fd = f(d);
        }
        iters += 1;
    }
    let x = (a + b) / 2.0;
    let v = f(x);
    (x, v)
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // the searches' own tests
mod tests {
    use super::*;

    #[test]
    fn grid_min_reports_the_sample_index() {
        let m = grid_min(0.0, 1.0, 10, |a| (a - 0.9) * (a - 0.9));
        assert_eq!(m.index, 9);
    }

    #[test]
    fn grid_min_includes_both_endpoints() {
        let m = grid_min(0.0, 1.0, 10, |x| -x);
        assert_eq!(m.x, 1.0);
        assert_eq!(m.index, 10);
        let m = grid_min(0.0, 1.0, 10, |x| x);
        assert_eq!(m.x, 0.0);
        assert_eq!(m.index, 0);
    }

    #[test]
    fn grid_min_tie_prefers_smaller_x() {
        // Symmetric around 0.5 with grid hitting 0.4 and 0.6 equally.
        let m = grid_min(0.0, 1.0, 10, |x| (x - 0.5).abs());
        assert!((m.x - 0.5).abs() < 1e-12);
        let m = grid_min(0.0, 1.0, 4, |x| (x - 0.5) * (x - 0.5));
        // samples 0, .25, .5, .75, 1 → min at exactly 0.5
        assert!((m.x - 0.5).abs() < 1e-12);
        // Constant function: first sample wins.
        let m = grid_min(0.0, 1.0, 10, |_| 7.0);
        assert_eq!(m.index, 0);
    }

    #[test]
    fn grid_min_skips_non_finite() {
        let m = grid_min(0.0, 1.0, 10, |x| if x < 0.45 { f64::NAN } else { x });
        assert!((m.x - 0.5).abs() < 1e-12);
    }

    #[test]
    fn grid_min_all_non_finite() {
        let m = grid_min(0.0, 1.0, 4, |_| f64::NAN);
        assert_eq!(m.x, 0.0);
        assert_eq!(m.value, f64::INFINITY);
    }

    #[test]
    fn grid_min_exact_tenths() {
        // The EAS use case: 0.1 increments should produce exact-ish tenths.
        let mut seen = Vec::new();
        grid_min(0.0, 1.0, 10, |x| {
            seen.push(x);
            0.0
        });
        assert_eq!(seen.len(), 11);
        assert_eq!(seen[0], 0.0);
        assert_eq!(*seen.last().unwrap(), 1.0);
        for (i, x) in seen.iter().enumerate() {
            assert!((x - i as f64 / 10.0).abs() < 1e-15);
        }
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn grid_min_zero_steps_panics() {
        grid_min(0.0, 1.0, 0, |x| x);
    }

    #[test]
    #[should_panic(expected = "finite lo <= hi")]
    fn grid_min_reversed_bounds_panics() {
        grid_min(1.0, 0.0, 10, |x| x);
    }

    #[test]
    fn golden_section_quadratic() {
        let (x, _) = golden_section_min(0.0, 1.0, 1e-10, |a| (a - 0.25f64).powi(2) + 3.0);
        assert!((x - 0.25).abs() < 1e-6);
    }

    #[test]
    fn golden_section_boundary_minimum() {
        let (x, _) = golden_section_min(0.0, 1.0, 1e-10, |a| a);
        assert!(x < 1e-6);
        let (x, _) = golden_section_min(0.0, 1.0, 1e-10, |a| -a);
        assert!(x > 1.0 - 1e-6);
    }

    #[test]
    fn golden_section_tighter_than_grid() {
        let f = |a: f64| (a - 0.637f64).powi(2);
        let g = grid_min(0.0, 1.0, 10, f);
        let (x, v) = golden_section_min(0.0, 1.0, 1e-9, f);
        assert!(v < g.value);
        assert!((x - 0.637).abs() < 1e-5);
    }

    #[test]
    fn golden_section_degenerate_interval() {
        let (x, v) = golden_section_min(0.5, 0.5, 1e-9, |a| a * a);
        assert_eq!(x, 0.5);
        assert_eq!(v, 0.25);
    }
}
