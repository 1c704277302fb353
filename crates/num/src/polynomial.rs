//! Dense univariate polynomials.
//!
//! The paper's power-characterization functions P(α) are sixth-order
//! polynomials in the GPU offload ratio α ∈ [0, 1]. [`Polynomial`] is the
//! representation those curves are stored and evaluated in.

use std::fmt;
use std::ops::{Add, Mul, Neg, Sub};

/// A dense univariate polynomial with `f64` coefficients.
///
/// Coefficients are stored in ascending-degree order: `coeffs[k]` multiplies
/// `x^k`. The zero polynomial is represented by an empty coefficient vector;
/// all constructors strip trailing (highest-degree) zero coefficients so that
/// [`Polynomial::degree`] is meaningful.
///
/// # Examples
///
/// ```
/// use easched_num::Polynomial;
///
/// // 1 + 2x + 3x²
/// let p = Polynomial::new(vec![1.0, 2.0, 3.0]);
/// assert_eq!(p.degree(), Some(2));
/// assert_eq!(p.eval(2.0), 1.0 + 4.0 + 12.0);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Polynomial {
    coeffs: Vec<f64>,
}

impl Polynomial {
    /// Creates a polynomial from ascending-degree coefficients.
    ///
    /// Trailing zero coefficients are stripped, so
    /// `Polynomial::new(vec![1.0, 0.0])` equals `Polynomial::constant(1.0)`.
    ///
    /// ```
    /// use easched_num::Polynomial;
    /// assert_eq!(Polynomial::new(vec![1.0, 0.0]), Polynomial::constant(1.0));
    /// ```
    pub fn new(coeffs: Vec<f64>) -> Self {
        let mut p = Polynomial { coeffs };
        p.normalize();
        p
    }

    /// The zero polynomial.
    ///
    /// ```
    /// use easched_num::Polynomial;
    /// assert_eq!(Polynomial::zero().eval(3.0), 0.0);
    /// ```
    pub fn zero() -> Self {
        Polynomial { coeffs: Vec::new() }
    }

    /// The constant polynomial `c`.
    ///
    /// ```
    /// use easched_num::Polynomial;
    /// assert_eq!(Polynomial::constant(4.5).eval(-2.0), 4.5);
    /// ```
    pub fn constant(c: f64) -> Self {
        Polynomial::new(vec![c])
    }

    /// The identity polynomial `x`.
    ///
    /// ```
    /// use easched_num::Polynomial;
    /// assert_eq!(Polynomial::x().eval(7.0), 7.0);
    /// ```
    pub fn x() -> Self {
        Polynomial::new(vec![0.0, 1.0])
    }

    /// Degree of the polynomial, or `None` for the zero polynomial.
    ///
    /// ```
    /// use easched_num::Polynomial;
    /// assert_eq!(Polynomial::new(vec![1.0, 0.0, 2.0]).degree(), Some(2));
    /// assert_eq!(Polynomial::zero().degree(), None);
    /// ```
    pub fn degree(&self) -> Option<usize> {
        if self.coeffs.is_empty() {
            None
        } else {
            Some(self.coeffs.len() - 1)
        }
    }

    /// Ascending-degree coefficient slice. Empty for the zero polynomial.
    ///
    /// ```
    /// use easched_num::Polynomial;
    /// assert_eq!(Polynomial::new(vec![1.0, 2.0]).coeffs(), &[1.0, 2.0]);
    /// ```
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// Returns `true` if this is the zero polynomial.
    ///
    /// ```
    /// use easched_num::Polynomial;
    /// assert!(Polynomial::new(vec![0.0, 0.0]).is_zero());
    /// ```
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Evaluates the polynomial at `x` using Horner's method.
    ///
    /// ```
    /// use easched_num::Polynomial;
    /// let p = Polynomial::new(vec![-1.0, 0.0, 1.0]); // x² − 1
    /// assert_eq!(p.eval(3.0), 8.0);
    /// ```
    pub fn eval(&self, x: f64) -> f64 {
        self.coeffs.iter().rev().fold(0.0, |acc, &c| acc * x + c)
    }

    /// The derivative polynomial.
    ///
    /// ```
    /// use easched_num::Polynomial;
    /// let p = Polynomial::new(vec![0.0, 0.0, 3.0]); // 3x²
    /// assert_eq!(p.derivative(), Polynomial::new(vec![0.0, 6.0]));
    /// ```
    pub fn derivative(&self) -> Polynomial {
        if self.coeffs.len() <= 1 {
            return Polynomial::zero();
        }
        let coeffs = self
            .coeffs
            .iter()
            .enumerate()
            .skip(1)
            .map(|(k, &c)| c * k as f64)
            .collect();
        Polynomial::new(coeffs)
    }

    /// The antiderivative with zero constant term.
    ///
    /// ```
    /// use easched_num::Polynomial;
    /// let p = Polynomial::new(vec![2.0]); // 2
    /// assert_eq!(p.antiderivative(), Polynomial::new(vec![0.0, 2.0]));
    /// ```
    pub fn antiderivative(&self) -> Polynomial {
        if self.is_zero() {
            return Polynomial::zero();
        }
        let mut coeffs = Vec::with_capacity(self.coeffs.len() + 1);
        coeffs.push(0.0);
        coeffs.extend(
            self.coeffs
                .iter()
                .enumerate()
                .map(|(k, &c)| c / (k as f64 + 1.0)),
        );
        Polynomial::new(coeffs)
    }

    /// Definite integral over `[a, b]`.
    ///
    /// ```
    /// use easched_num::Polynomial;
    /// let p = Polynomial::new(vec![0.0, 2.0]); // 2x
    /// assert!((p.integrate(0.0, 3.0) - 9.0).abs() < 1e-12);
    /// ```
    pub fn integrate(&self, a: f64, b: f64) -> f64 {
        let anti = self.antiderivative();
        anti.eval(b) - anti.eval(a)
    }

    /// Scales every coefficient by `s`.
    ///
    /// ```
    /// use easched_num::Polynomial;
    /// let p = Polynomial::new(vec![1.0, 1.0]).scale(3.0);
    /// assert_eq!(p.eval(1.0), 6.0);
    /// ```
    pub fn scale(&self, s: f64) -> Polynomial {
        Polynomial::new(self.coeffs.iter().map(|&c| c * s).collect())
    }

    /// Minimum of the polynomial over `[lo, hi]` sampled at `steps + 1`
    /// equally spaced points, returning `(argmin, min)`.
    ///
    /// This matches how the paper minimizes the energy objective: evaluating
    /// over a grid of offload ratios.
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0` or `lo > hi` or either bound is non-finite.
    ///
    /// ```
    /// use easched_num::Polynomial;
    /// let p = Polynomial::new(vec![1.0, -2.0, 1.0]); // (x−1)²
    /// let (x, y) = p.grid_min(0.0, 2.0, 20);
    /// assert!((x - 1.0).abs() < 1e-12 && y.abs() < 1e-12);
    /// ```
    #[allow(clippy::disallowed_methods)] // the search itself, over this polynomial
    pub fn grid_min(&self, lo: f64, hi: f64, steps: usize) -> (f64, f64) {
        crate::optimize::grid_min(lo, hi, steps, |x| self.eval(x)).into_pair()
    }

    fn normalize(&mut self) {
        while let Some(&last) = self.coeffs.last() {
            if last == 0.0 {
                self.coeffs.pop();
            } else {
                break;
            }
        }
    }
}

impl fmt::Display for Polynomial {
    /// Formats in descending-degree order like the paper's figure captions,
    /// e.g. `3.00e0x^2 - 2.00e0x + 1.00e0`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut first = true;
        for (k, &c) in self.coeffs.iter().enumerate().rev() {
            if c == 0.0 && self.coeffs.len() > 1 {
                continue;
            }
            let mag = c.abs();
            if first {
                if c < 0.0 {
                    write!(f, "-")?;
                }
                first = false;
            } else if c < 0.0 {
                write!(f, " - ")?;
            } else {
                write!(f, " + ")?;
            }
            match k {
                0 => write!(f, "{mag:.4}")?,
                1 => write!(f, "{mag:.4}x")?,
                _ => write!(f, "{mag:.4}x^{k}")?,
            }
        }
        Ok(())
    }
}

impl Add for &Polynomial {
    type Output = Polynomial;

    fn add(self, rhs: &Polynomial) -> Polynomial {
        let n = self.coeffs.len().max(rhs.coeffs.len());
        let coeffs = (0..n)
            .map(|k| {
                self.coeffs.get(k).copied().unwrap_or(0.0)
                    + rhs.coeffs.get(k).copied().unwrap_or(0.0)
            })
            .collect();
        Polynomial::new(coeffs)
    }
}

impl Add for Polynomial {
    type Output = Polynomial;

    fn add(self, rhs: Polynomial) -> Polynomial {
        &self + &rhs
    }
}

impl Sub for &Polynomial {
    type Output = Polynomial;

    fn sub(self, rhs: &Polynomial) -> Polynomial {
        self + &(-rhs.clone())
    }
}

impl Sub for Polynomial {
    type Output = Polynomial;

    fn sub(self, rhs: Polynomial) -> Polynomial {
        &self - &rhs
    }
}

impl Neg for Polynomial {
    type Output = Polynomial;

    fn neg(self) -> Polynomial {
        self.scale(-1.0)
    }
}

impl Mul for &Polynomial {
    type Output = Polynomial;

    fn mul(self, rhs: &Polynomial) -> Polynomial {
        if self.is_zero() || rhs.is_zero() {
            return Polynomial::zero();
        }
        let mut coeffs = vec![0.0; self.coeffs.len() + rhs.coeffs.len() - 1];
        for (i, &a) in self.coeffs.iter().enumerate() {
            for (j, &b) in rhs.coeffs.iter().enumerate() {
                coeffs[i + j] += a * b;
            }
        }
        Polynomial::new(coeffs)
    }
}

impl Mul for Polynomial {
    type Output = Polynomial;

    fn mul(self, rhs: Polynomial) -> Polynomial {
        &self * &rhs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poly(cs: &[f64]) -> Polynomial {
        Polynomial::new(cs.to_vec())
    }

    #[test]
    fn zero_polynomial_has_no_degree() {
        assert_eq!(Polynomial::zero().degree(), None);
        assert!(Polynomial::zero().is_zero());
        assert_eq!(Polynomial::zero().eval(12.0), 0.0);
    }

    #[test]
    fn trailing_zeros_stripped() {
        let p = poly(&[1.0, 2.0, 0.0, 0.0]);
        assert_eq!(p.degree(), Some(1));
        assert_eq!(p.coeffs(), &[1.0, 2.0]);
    }

    #[test]
    fn all_zero_coeffs_is_zero() {
        assert!(poly(&[0.0, 0.0, 0.0]).is_zero());
    }

    #[test]
    fn horner_matches_naive_eval() {
        let p = poly(&[1.0, -3.0, 0.5, 2.0]);
        for &x in &[-2.0f64, -0.5, 0.0, 0.3, 1.0, 4.0] {
            let naive: f64 = p
                .coeffs()
                .iter()
                .enumerate()
                .map(|(k, &c)| c * x.powi(k as i32))
                .sum();
            assert!((p.eval(x) - naive).abs() < 1e-10, "x={x}");
        }
    }

    #[test]
    fn derivative_of_constant_is_zero() {
        assert!(Polynomial::constant(5.0).derivative().is_zero());
    }

    #[test]
    fn derivative_reduces_degree() {
        let p = poly(&[1.0, 2.0, 3.0, 4.0]);
        let d = p.derivative();
        assert_eq!(d, poly(&[2.0, 6.0, 12.0]));
    }

    #[test]
    fn antiderivative_then_derivative_roundtrips() {
        let p = poly(&[3.0, -1.0, 2.5]);
        assert_eq!(p.antiderivative().derivative(), p);
    }

    #[test]
    fn definite_integral_of_x_squared() {
        let p = poly(&[0.0, 0.0, 1.0]);
        assert!((p.integrate(0.0, 1.0) - 1.0 / 3.0).abs() < 1e-12);
        // Reversed bounds negate.
        assert!((p.integrate(1.0, 0.0) + 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn addition_and_subtraction() {
        let a = poly(&[1.0, 2.0]);
        let b = poly(&[0.0, -2.0, 3.0]);
        assert_eq!(&a + &b, poly(&[1.0, 0.0, 3.0]));
        assert_eq!(&a - &b, poly(&[1.0, 4.0, -3.0]));
        // Cancellation strips degree.
        assert_eq!((&b - &b).degree(), None);
    }

    #[test]
    fn multiplication() {
        let a = poly(&[1.0, 1.0]); // 1 + x
        let b = poly(&[-1.0, 1.0]); // -1 + x
        assert_eq!(&a * &b, poly(&[-1.0, 0.0, 1.0])); // x² − 1
        assert!((&a * &Polynomial::zero()).is_zero());
    }

    #[test]
    fn scale_by_zero_is_zero() {
        assert!(poly(&[1.0, 2.0]).scale(0.0).is_zero());
    }

    #[test]
    #[allow(clippy::disallowed_methods)] // the method's own test
    fn grid_min_finds_parabola_vertex() {
        let p = poly(&[4.0, -4.0, 1.0]); // (x−2)²
        let (x, y) = p.grid_min(0.0, 4.0, 40);
        assert!((x - 2.0).abs() < 1e-9);
        assert!(y.abs() < 1e-9);
    }

    #[test]
    fn display_descending_order() {
        let p = poly(&[1.0, -2.0, 3.0]);
        let s = format!("{p}");
        assert!(s.starts_with("3.0000x^2"), "{s}");
        assert!(s.contains("- 2.0000x"), "{s}");
        assert!(s.ends_with("+ 1.0000"), "{s}");
        assert_eq!(format!("{}", Polynomial::zero()), "0");
    }

    #[test]
    fn display_never_empty() {
        // C-DEBUG-NONEMPTY analogue for Display.
        for p in [
            Polynomial::zero(),
            Polynomial::constant(0.0),
            poly(&[0.0, 1.0]),
        ] {
            assert!(!format!("{p}").is_empty());
        }
    }
}
