//! Property-based tests for the numeric substrate.

use easched_num::{polyfit, polyfit_weighted, solve_linear, Polynomial, Summary};
use proptest::prelude::*;

fn small_coeffs() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-10.0..10.0f64, 0..6)
}

proptest! {
    /// (p + q)(x) = p(x) + q(x).
    #[test]
    fn addition_is_pointwise(a in small_coeffs(), b in small_coeffs(), x in -3.0..3.0f64) {
        let p = Polynomial::new(a);
        let q = Polynomial::new(b);
        let sum = &p + &q;
        prop_assert!((sum.eval(x) - (p.eval(x) + q.eval(x))).abs() < 1e-6);
    }

    /// (p · q)(x) = p(x) · q(x).
    #[test]
    fn multiplication_is_pointwise(a in small_coeffs(), b in small_coeffs(), x in -2.0..2.0f64) {
        let p = Polynomial::new(a);
        let q = Polynomial::new(b);
        let prod = &p * &q;
        let expect = p.eval(x) * q.eval(x);
        prop_assert!((prod.eval(x) - expect).abs() < 1e-4 * (1.0 + expect.abs()));
    }

    /// d/dx ∫p = p.
    #[test]
    fn antiderivative_roundtrips(a in small_coeffs()) {
        let p = Polynomial::new(a);
        let back = p.antiderivative().derivative();
        prop_assert_eq!(back.degree(), p.degree());
        for i in 0..=10 {
            let x = -1.0 + 0.2 * i as f64;
            prop_assert!((back.eval(x) - p.eval(x)).abs() < 1e-8);
        }
    }

    /// Fitting samples drawn exactly from a polynomial of degree ≤ k
    /// reproduces the sampled values.
    #[test]
    fn polyfit_recovers_exact_polynomials(
        coeffs in prop::collection::vec(-5.0..5.0f64, 1..6),
    ) {
        let truth = Polynomial::new(coeffs.clone());
        let degree = coeffs.len() - 1;
        let xs: Vec<f64> = (0..=(2 * degree + 4)).map(|i| i as f64 / (2 * degree + 4) as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| truth.eval(x)).collect();
        let fit = polyfit(&xs, &ys, degree).unwrap();
        for (&x, &y) in xs.iter().zip(&ys) {
            prop_assert!((fit.eval(x) - y).abs() < 1e-5 * (1.0 + y.abs()),
                "x={x}: {} vs {y}", fit.eval(x));
        }
    }

    /// Zero-weight samples never affect the fit.
    #[test]
    fn zero_weights_are_ignored(
        outlier in -1e3..1e3f64,
        slope in -5.0..5.0f64,
    ) {
        let xs = [0.0, 1.0, 2.0, 3.0, 10.0];
        let ys = [0.0, slope, 2.0 * slope, 3.0 * slope, outlier];
        let ws = [1.0, 1.0, 1.0, 1.0, 0.0];
        let fit = polyfit_weighted(&xs, &ys, &ws, 1).unwrap();
        prop_assert!((fit.eval(4.0) - 4.0 * slope).abs() < 1e-6 * (1.0 + slope.abs()));
    }

    /// solve(A, A·x) ≈ x for diagonally dominant A.
    #[test]
    fn linear_solver_inverts(
        x in prop::collection::vec(-10.0..10.0f64, 1..6),
        noise in prop::collection::vec(-0.3..0.3f64, 36),
    ) {
        let n = x.len();
        let mut a = vec![vec![0.0; n]; n];
        for (i, row) in a.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v = if i == j { 5.0 } else { noise[i * 6 + j] };
            }
        }
        let b: Vec<f64> = (0..n)
            .map(|i| (0..n).map(|j| a[i][j] * x[j]).sum())
            .collect();
        let got = solve_linear(a, b).unwrap();
        for (g, w) in got.iter().zip(&x) {
            prop_assert!((g - w).abs() < 1e-8, "{g} vs {w}");
        }
    }

    /// Welford summary statistics match two-pass formulas and bounds.
    #[test]
    fn summary_matches_two_pass(xs in prop::collection::vec(-100.0..100.0f64, 1..50)) {
        let s: Summary = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        prop_assert!((s.mean() - mean).abs() < 1e-9);
        prop_assert!(s.min() <= s.mean() + 1e-12 && s.mean() <= s.max() + 1e-12);
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        prop_assert!((s.population_variance() - var).abs() < 1e-6);
    }

    /// Parallel merge equals sequential accumulation.
    #[test]
    fn summary_merge_associative(
        a in prop::collection::vec(-50.0..50.0f64, 0..20),
        b in prop::collection::vec(-50.0..50.0f64, 0..20),
    ) {
        let mut left: Summary = a.iter().copied().collect();
        let right: Summary = b.iter().copied().collect();
        left.merge(&right);
        let whole: Summary = a.iter().chain(&b).copied().collect();
        prop_assert_eq!(left.count(), whole.count());
        prop_assert!((left.sum() - whole.sum()).abs() < 1e-7);
        prop_assert!((left.population_variance() - whole.population_variance()).abs() < 1e-6);
    }

    /// grid_min returns the smallest sampled value.
    #[test]
    #[allow(clippy::disallowed_methods)] // the search's own property
    fn grid_min_is_minimal(a in -5.0..5.0f64, b in -5.0..5.0f64, c in -5.0..5.0f64) {
        let f = |x: f64| a * x * x + b * x + c;
        let m = easched_num::grid_min(0.0, 1.0, 20, f);
        for i in 0..=20 {
            let x = i as f64 / 20.0;
            prop_assert!(m.value <= f(x) + 1e-12);
        }
    }

    /// Golden-section on a quadratic finds the clamped vertex.
    #[test]
    #[allow(clippy::disallowed_methods)] // the search's own property
    fn golden_section_finds_quadratic_vertex(v in -0.5..1.5f64) {
        let (x, _) = easched_num::golden_section_min(0.0, 1.0, 1e-9, |t| (t - v) * (t - v));
        let expect = v.clamp(0.0, 1.0);
        prop_assert!((x - expect).abs() < 1e-4, "{x} vs {expect}");
    }
}
