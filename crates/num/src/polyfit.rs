//! Least-squares polynomial fitting.
//!
//! The paper measures average package power at a grid of GPU offload ratios
//! and fits a **sixth-order polynomial** to each of the eight workload
//! categories (Figures 5 and 6). [`polyfit`] implements that fit from scratch
//! via the normal equations `(VᵀV)c = Vᵀy` on a Vandermonde matrix, solved
//! with scaled partial-pivot Gaussian elimination.
//!
//! For numerical robustness at order six on [0, 1] we first shift/scale the
//! sample abscissae to [−1, 1]; the returned [`PolyFit`] stores the transform
//! and exposes the fitted curve in the *original* coordinates.

use crate::linalg::{solve_linear, LinAlgError};
use crate::polynomial::Polynomial;
use std::error::Error;
use std::fmt;

/// Error returned by [`polyfit`] and [`polyfit_weighted`].
#[derive(Debug, Clone, PartialEq)]
pub enum FitError {
    /// Fewer samples than coefficients (`degree + 1`).
    TooFewSamples {
        /// Number of samples provided.
        samples: usize,
        /// Number of coefficients required.
        needed: usize,
    },
    /// `xs` and `ys` (and `ws` if given) have different lengths.
    LengthMismatch,
    /// A sample or weight was NaN/infinite, or a weight was negative.
    InvalidSample,
    /// The normal equations were singular (e.g. all xs identical).
    Degenerate(LinAlgError),
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::TooFewSamples { samples, needed } => {
                write!(f, "need at least {needed} samples, got {samples}")
            }
            FitError::LengthMismatch => write!(f, "sample vectors have different lengths"),
            FitError::InvalidSample => {
                write!(f, "sample contains NaN, infinity, or negative weight")
            }
            FitError::Degenerate(e) => write!(f, "normal equations degenerate: {e}"),
        }
    }
}

impl Error for FitError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FitError::Degenerate(e) => Some(e),
            _ => None,
        }
    }
}

/// Result of a polynomial fit: the curve plus fit-quality diagnostics.
///
/// # Examples
///
/// ```
/// use easched_num::polyfit;
///
/// let xs: Vec<f64> = (0..=10).map(|i| i as f64 / 10.0).collect();
/// let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
/// let fit = polyfit(&xs, &ys, 1)?;
/// assert!(fit.rmse() < 1e-9);
/// assert!((fit.eval(0.25) - 1.5).abs() < 1e-9);
/// # Ok::<(), easched_num::FitError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PolyFit {
    poly: Polynomial,
    rmse: f64,
    r_squared: f64,
    samples: usize,
}

impl PolyFit {
    /// The fitted polynomial in the original `x` coordinates.
    pub fn poly(&self) -> &Polynomial {
        &self.poly
    }

    /// Consumes the fit, returning the fitted polynomial.
    pub fn into_poly(self) -> Polynomial {
        self.poly
    }

    /// Evaluates the fitted curve at `x`.
    pub fn eval(&self, x: f64) -> f64 {
        self.poly.eval(x)
    }

    /// Root-mean-square residual over the fitted samples.
    pub fn rmse(&self) -> f64 {
        self.rmse
    }

    /// Coefficient of determination R² over the fitted samples (1 for a
    /// perfect fit; can be negative for fits worse than the mean).
    pub fn r_squared(&self) -> f64 {
        self.r_squared
    }

    /// Number of samples the fit used.
    pub fn samples(&self) -> usize {
        self.samples
    }
}

/// Fits a polynomial of the given `degree` to `(xs, ys)` by least squares.
///
/// # Errors
///
/// See [`FitError`]: too few samples, mismatched lengths, non-finite samples,
/// or degenerate abscissae.
///
/// # Examples
///
/// ```
/// use easched_num::polyfit;
///
/// // Recover a sixth-order power curve exactly from 21 samples.
/// let truth = [55.0, -8.0, 30.0, -45.0, 20.0, 3.0, -5.0];
/// let xs: Vec<f64> = (0..=20).map(|i| i as f64 / 20.0).collect();
/// let ys: Vec<f64> = xs
///     .iter()
///     .map(|&x| truth.iter().rev().fold(0.0, |a, c| a * x + c))
///     .collect();
/// let fit = polyfit(&xs, &ys, 6)?;
/// assert!(fit.rmse() < 1e-6);
/// # Ok::<(), easched_num::FitError>(())
/// ```
pub fn polyfit(xs: &[f64], ys: &[f64], degree: usize) -> Result<PolyFit, FitError> {
    let ws = vec![1.0; xs.len()];
    polyfit_weighted(xs, ys, &ws, degree)
}

/// Weighted least-squares polynomial fit; weight `ws[i]` multiplies the
/// squared residual of sample `i`.
///
/// Zero weights are allowed (the sample is ignored); negative or non-finite
/// weights are rejected.
///
/// # Errors
///
/// See [`FitError`].
///
/// # Examples
///
/// ```
/// use easched_num::polyfit_weighted;
///
/// let xs = [0.0, 0.5, 1.0, 10.0];
/// let ys = [1.0, 2.0, 3.0, -999.0];
/// // Outlier at x=10 has zero weight, so the line fits the first three.
/// let fit = polyfit_weighted(&xs, &ys, &[1.0, 1.0, 1.0, 0.0], 1)?;
/// assert!((fit.eval(0.5) - 2.0).abs() < 1e-9);
/// # Ok::<(), easched_num::FitError>(())
/// ```
pub fn polyfit_weighted(
    xs: &[f64],
    ys: &[f64],
    ws: &[f64],
    degree: usize,
) -> Result<PolyFit, FitError> {
    if xs.len() != ys.len() || xs.len() != ws.len() {
        return Err(FitError::LengthMismatch);
    }
    let n_coeffs = degree + 1;
    let effective: usize = ws.iter().filter(|&&w| w > 0.0).count();
    if effective < n_coeffs {
        return Err(FitError::TooFewSamples {
            samples: effective,
            needed: n_coeffs,
        });
    }
    if xs.iter().chain(ys).any(|v| !v.is_finite()) || ws.iter().any(|w| !w.is_finite() || *w < 0.0)
    {
        return Err(FitError::InvalidSample);
    }

    // Map x to t ∈ [−1, 1] for conditioning.
    let (xmin, xmax) = xs
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        });
    let span = xmax - xmin;
    let (shift, scale) = if span > 0.0 {
        ((xmin + xmax) / 2.0, span / 2.0)
    } else {
        (xmin, 1.0)
    };
    let ts: Vec<f64> = xs.iter().map(|&x| (x - shift) / scale).collect();

    // Normal equations on the Vandermonde system, accumulated directly:
    // A[j][k] = Σ w t^(j+k), b[j] = Σ w y t^j.
    let mut a = vec![vec![0.0; n_coeffs]; n_coeffs];
    let mut b = vec![0.0; n_coeffs];
    for ((&t, &y), &w) in ts.iter().zip(ys).zip(ws) {
        if w == 0.0 {
            continue;
        }
        let mut powers = Vec::with_capacity(2 * n_coeffs - 1);
        let mut p = 1.0;
        for _ in 0..2 * n_coeffs - 1 {
            powers.push(p);
            p *= t;
        }
        for j in 0..n_coeffs {
            for (k, row) in a[j].iter_mut().enumerate() {
                *row += w * powers[j + k];
            }
            b[j] += w * y * powers[j];
        }
    }

    let coeffs_t = solve_linear(a, b).map_err(FitError::Degenerate)?;

    // Convert from t coordinates back to x: p(x) = Σ c_k ((x − shift)/scale)^k.
    let poly_t = Polynomial::new(coeffs_t);
    let basis = Polynomial::new(vec![-shift / scale, 1.0 / scale]); // (x − shift)/scale
    let mut poly_x = Polynomial::zero();
    let mut basis_pow = Polynomial::constant(1.0);
    for &c in poly_t.coeffs() {
        poly_x = &poly_x + &basis_pow.scale(c);
        basis_pow = &basis_pow * &basis;
    }

    // Residual diagnostics on weighted samples.
    let mut sum_sq = 0.0;
    let mut wsum = 0.0;
    let mut wy_sum = 0.0;
    for ((&x, &y), &w) in xs.iter().zip(ys).zip(ws) {
        if w == 0.0 {
            continue;
        }
        let r = poly_x.eval(x) - y;
        sum_sq += w * r * r;
        wsum += w;
        wy_sum += w * y;
    }
    let rmse = if wsum > 0.0 {
        (sum_sq / wsum).sqrt()
    } else {
        0.0
    };
    // R² against the weighted mean of y.
    let y_mean = if wsum > 0.0 { wy_sum / wsum } else { 0.0 };
    let mut total_sq = 0.0;
    for ((_, &y), &w) in xs.iter().zip(ys).zip(ws) {
        if w > 0.0 {
            total_sq += w * (y - y_mean) * (y - y_mean);
        }
    }
    let r_squared = if total_sq > 0.0 {
        1.0 - sum_sq / total_sq
    } else if sum_sq == 0.0 {
        1.0
    } else {
        0.0
    };

    Ok(PolyFit {
        poly: poly_x,
        rmse,
        r_squared,
        samples: effective,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line() {
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [1.0, 3.0, 5.0, 7.0];
        let fit = polyfit(&xs, &ys, 1).unwrap();
        assert!(fit.rmse() < 1e-12);
        assert!((fit.eval(10.0) - 21.0).abs() < 1e-9);
    }

    #[test]
    fn exact_sixth_order_recovery() {
        // Coefficients of similar magnitude to the paper's desktop curves.
        let truth = Polynomial::new(vec![45.2, -37.9, 293.3, -849.5, 1129.7, -708.5, 170.0]);
        let xs: Vec<f64> = (0..=20).map(|i| i as f64 / 20.0).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| truth.eval(x)).collect();
        let fit = polyfit(&xs, &ys, 6).unwrap();
        for &x in &xs {
            assert!(
                (fit.eval(x) - truth.eval(x)).abs() < 1e-6,
                "x={x}: {} vs {}",
                fit.eval(x),
                truth.eval(x)
            );
        }
    }

    #[test]
    fn overdetermined_noisy_fit_reduces_residual_with_degree() {
        let xs: Vec<f64> = (0..=40).map(|i| i as f64 / 40.0).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 50.0 + 10.0 * (x * 3.0).sin()).collect();
        let r2 = polyfit(&xs, &ys, 2).unwrap().rmse();
        let r6 = polyfit(&xs, &ys, 6).unwrap().rmse();
        assert!(
            r6 < r2,
            "rmse should not increase with degree: {r6} vs {r2}"
        );
    }

    #[test]
    fn too_few_samples() {
        let err = polyfit(&[0.0, 1.0], &[0.0, 1.0], 2).unwrap_err();
        assert_eq!(
            err,
            FitError::TooFewSamples {
                samples: 2,
                needed: 3
            }
        );
    }

    #[test]
    fn length_mismatch() {
        assert_eq!(
            polyfit(&[0.0], &[0.0, 1.0], 0).unwrap_err(),
            FitError::LengthMismatch
        );
    }

    #[test]
    fn rejects_nan() {
        assert_eq!(
            polyfit(&[0.0, f64::NAN, 2.0], &[0.0, 1.0, 2.0], 1).unwrap_err(),
            FitError::InvalidSample
        );
        assert_eq!(
            polyfit(&[0.0, 1.0, 2.0], &[0.0, f64::INFINITY, 2.0], 1).unwrap_err(),
            FitError::InvalidSample
        );
    }

    #[test]
    fn rejects_negative_weight() {
        assert_eq!(
            polyfit_weighted(&[0.0, 1.0, 2.0], &[0.0, 1.0, 2.0], &[1.0, -1.0, 1.0], 1).unwrap_err(),
            FitError::InvalidSample
        );
    }

    #[test]
    fn identical_xs_degenerate() {
        let err = polyfit(&[1.0, 1.0, 1.0], &[0.0, 1.0, 2.0], 1).unwrap_err();
        assert!(matches!(err, FitError::Degenerate(_)));
    }

    #[test]
    fn constant_fit_is_weighted_mean() {
        let fit =
            polyfit_weighted(&[0.0, 1.0, 2.0], &[10.0, 20.0, 30.0], &[1.0, 1.0, 2.0], 0).unwrap();
        let mean = (10.0 + 20.0 + 60.0) / 4.0;
        assert!((fit.eval(5.0) - mean).abs() < 1e-9);
    }

    #[test]
    fn zero_weight_excludes_sample() {
        let fit = polyfit_weighted(
            &[0.0, 1.0, 2.0, 3.0],
            &[0.0, 1.0, 2.0, 1000.0],
            &[1.0, 1.0, 1.0, 0.0],
            1,
        )
        .unwrap();
        assert!((fit.eval(3.0) - 3.0).abs() < 1e-9);
        assert_eq!(fit.samples(), 3);
    }

    #[test]
    fn diagnostics_track_residuals() {
        let xs = [0.0, 1.0, 2.0];
        let ys = [0.0, 1.1, 2.0]; // middle point off a straight line
        let fit = polyfit(&xs, &ys, 1).unwrap();
        assert!(fit.rmse() > 0.0);
        assert!(fit.r_squared() > 0.9 && fit.r_squared() < 1.0);
    }

    #[test]
    fn r_squared_extremes() {
        // Perfect fit.
        let xs = [0.0, 1.0, 2.0, 3.0];
        let ys = [1.0, 3.0, 5.0, 7.0];
        assert_eq!(polyfit(&xs, &ys, 1).unwrap().r_squared(), 1.0);
        // Constant data fitted by a constant: defined as perfect.
        let flat = [5.0, 5.0, 5.0];
        assert_eq!(polyfit(&xs[..3], &flat, 0).unwrap().r_squared(), 1.0);
        // A constant fit of a strong slope explains nothing: R² ≈ 0.
        let r2 = polyfit(&xs, &ys, 0).unwrap().r_squared();
        assert!(r2.abs() < 1e-9, "{r2}");
    }

    #[test]
    fn error_display_and_source() {
        use std::error::Error as _;
        let err = polyfit(&[1.0, 1.0, 1.0], &[0.0, 1.0, 2.0], 1).unwrap_err();
        assert!(err.to_string().contains("degenerate"));
        assert!(err.source().is_some());
        assert!(FitError::LengthMismatch.source().is_none());
    }
}
