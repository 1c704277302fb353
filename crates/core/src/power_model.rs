//! The per-platform power model: eight fitted power characterization
//! functions P(α), one per workload class (paper §2, Figures 5–6).

use crate::classify::WorkloadClass;
use easched_num::Polynomial;
use std::fmt;

/// One fitted power characterization function: average package power as a
/// sixth-order (by default) polynomial in the GPU offload ratio α ∈ [0, 1].
#[derive(Debug, Clone, PartialEq)]
pub struct PowerCurve {
    class: WorkloadClass,
    poly: Polynomial,
    rmse: f64,
    samples: usize,
}

impl PowerCurve {
    /// Creates a curve from a fitted polynomial and fit diagnostics.
    pub fn new(class: WorkloadClass, poly: Polynomial, rmse: f64, samples: usize) -> PowerCurve {
        PowerCurve {
            class,
            poly,
            rmse,
            samples,
        }
    }

    /// The class this curve characterizes.
    pub fn class(&self) -> WorkloadClass {
        self.class
    }

    /// The fitted polynomial.
    pub fn poly(&self) -> &Polynomial {
        &self.poly
    }

    /// Root-mean-square fit residual, watts.
    pub fn rmse(&self) -> f64 {
        self.rmse
    }

    /// Number of sweep points the fit used.
    pub(crate) fn samples(&self) -> usize {
        self.samples
    }

    /// Predicted average package power at offload ratio `alpha`, clamped to
    /// be non-negative (a sixth-order fit can dip below zero outside its
    /// support).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside [0, 1].
    pub fn predict(&self, alpha: f64) -> f64 {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0, 1]");
        self.poly.eval(alpha).max(0.0)
    }
}

impl fmt::Display for PowerCurve {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: y = {}", self.class.label(), self.poly)
    }
}

/// The complete black-box power model of one platform: one [`PowerCurve`]
/// per workload class.
///
/// This is the artifact the one-time characterization step produces; the
/// scheduler carries it across all workloads on that platform.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    platform_name: String,
    curves: Vec<PowerCurve>,
}

impl PowerModel {
    /// Assembles a model from exactly eight curves (one per class, any
    /// order).
    ///
    /// # Panics
    ///
    /// Panics unless exactly one curve per class is supplied.
    pub fn new(platform_name: impl Into<String>, mut curves: Vec<PowerCurve>) -> PowerModel {
        assert_eq!(curves.len(), 8, "need one curve per class");
        curves.sort_by_key(|c| c.class().index());
        for (i, c) in curves.iter().enumerate() {
            assert_eq!(c.class().index(), i, "duplicate or missing class");
        }
        PowerModel {
            platform_name: platform_name.into(),
            curves,
        }
    }

    /// The platform this model characterizes.
    pub fn platform_name(&self) -> &str {
        &self.platform_name
    }

    /// The curve for a class.
    pub fn curve(&self, class: WorkloadClass) -> &PowerCurve {
        &self.curves[class.index()]
    }

    /// All eight curves in class-index order.
    pub fn curves(&self) -> &[PowerCurve] {
        &self.curves
    }

    /// Predicted package power for `class` at offload ratio `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside [0, 1].
    pub fn predict(&self, class: WorkloadClass, alpha: f64) -> f64 {
        self.curve(class).predict(alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(class: WorkloadClass, level: f64) -> PowerCurve {
        PowerCurve::new(class, Polynomial::constant(level), 0.0, 11)
    }

    fn model() -> PowerModel {
        let curves = WorkloadClass::all()
            .into_iter()
            .map(|c| flat(c, 10.0 + c.index() as f64))
            .collect();
        PowerModel::new("test", curves)
    }

    #[test]
    fn lookup_by_class() {
        let m = model();
        for c in WorkloadClass::all() {
            assert_eq!(m.predict(c, 0.5), 10.0 + c.index() as f64);
        }
    }

    #[test]
    fn curves_sorted_regardless_of_input_order() {
        let mut curves: Vec<PowerCurve> = WorkloadClass::all()
            .into_iter()
            .map(|c| flat(c, c.index() as f64))
            .collect();
        curves.reverse();
        let m = PowerModel::new("test", curves);
        for (i, c) in m.curves().iter().enumerate() {
            assert_eq!(c.class().index(), i);
        }
    }

    #[test]
    fn predict_clamps_negative() {
        let c = PowerCurve::new(
            WorkloadClass::from_index(0),
            Polynomial::new(vec![1.0, -10.0]), // negative past α=0.1
            0.0,
            11,
        );
        assert_eq!(c.predict(0.5), 0.0);
        assert!(c.predict(0.0) > 0.0);
    }

    #[test]
    #[should_panic(expected = "need one curve per class")]
    fn rejects_wrong_count() {
        PowerModel::new("x", vec![flat(WorkloadClass::from_index(0), 1.0)]);
    }

    #[test]
    #[should_panic(expected = "duplicate or missing class")]
    fn rejects_duplicate_class() {
        let c0 = WorkloadClass::from_index(0);
        let curves = (0..8).map(|_| flat(c0, 1.0)).collect();
        PowerModel::new("x", curves);
    }

    #[test]
    fn display_includes_label_and_poly() {
        let c = flat(WorkloadClass::from_index(5), 42.0);
        let s = c.to_string();
        assert!(s.contains("Memory"));
        assert!(s.contains("42"));
    }
}
