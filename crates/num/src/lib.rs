//! Numeric substrate for the `easched` project.
//!
//! The CGO'16 energy-aware scheduler needs a small amount of numerical
//! machinery that we implement from scratch rather than pulling in a linear
//! algebra dependency:
//!
//! * [`Polynomial`] — dense univariate polynomials with evaluation,
//!   differentiation and integration (the paper's power-characterization
//!   functions are sixth-order polynomials);
//! * [`polyfit`](crate::polyfit::polyfit) — least-squares polynomial fitting
//!   via normal equations solved with partially-pivoted Gaussian elimination;
//! * [`optimize`] — grid search and golden-section minimization used to pick
//!   the GPU offload ratio α that minimizes an energy objective;
//! * [`stats`] — summary statistics used by the online profiler and the
//!   experiment harness.
//!
//! # Examples
//!
//! Fit a quadratic to noisy samples and evaluate it:
//!
//! ```
//! use easched_num::{polyfit, Polynomial};
//!
//! let xs: Vec<f64> = (0..20).map(|i| i as f64 / 19.0).collect();
//! let ys: Vec<f64> = xs.iter().map(|x| 3.0 - 2.0 * x + 0.5 * x * x).collect();
//! let fit: Polynomial = polyfit(&xs, &ys, 2).expect("well-conditioned fit").into_poly();
//! assert!((fit.eval(0.5) - (3.0 - 1.0 + 0.125)).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod linalg;
pub mod optimize;
pub mod polyfit;
pub mod polynomial;
pub mod stats;

pub use linalg::{solve_linear, LinAlgError};
pub use optimize::{golden_section_min, grid_min, GridMin};
pub use polyfit::{polyfit, polyfit_weighted, FitError, PolyFit};
pub use polynomial::Polynomial;
pub use stats::Summary;
