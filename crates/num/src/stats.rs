//! Summary statistics.
//!
//! Used by the online profiler (throughput estimates across repeated
//! profiling rounds), the experiment harness (aggregating efficiency across
//! benchmarks — the paper reports *averages* relative to Oracle), and the
//! fit-quality ablation benches.

/// Streaming summary statistics over `f64` samples (Welford's algorithm for
/// numerically stable variance).
///
/// # Examples
///
/// ```
/// use easched_num::Summary;
///
/// let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].iter().copied().collect();
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub(crate) fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
        }
    }

    /// Adds a sample.
    ///
    /// Non-finite samples are ignored (profiling counters occasionally
    /// produce them on zero-duration windows; discarding matches the paper's
    /// "repeat profiling" robustness strategy).
    pub(crate) fn add(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.count += 1;
        self.sum += x;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of (finite) samples added.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples; 0 when empty.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest sample; +∞ when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample; −∞ when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Population variance (divide by n); 0 when fewer than 2 samples.
    pub fn population_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Merges another summary into this one (parallel Welford merge).
    ///
    /// ```
    /// use easched_num::Summary;
    /// let a: Summary = [1.0, 2.0].iter().copied().collect();
    /// let b: Summary = [3.0, 4.0].iter().copied().collect();
    /// let mut m = a;
    /// m.merge(&b);
    /// let whole: Summary = [1.0, 2.0, 3.0, 4.0].iter().copied().collect();
    /// assert!((m.population_variance() - whole.population_variance()).abs() < 1e-12);
    /// ```
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.mean += delta * other.count as f64 / total as f64;
        self.count = total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for x in iter {
            s.add(x);
        }
        s
    }
}

impl Extend<f64> for Summary {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.add(x);
        }
    }
}

/// Arithmetic mean; `None` when empty.
///
/// ```
/// use easched_num::mean;
/// assert_eq!(mean(&[1.0, 2.0, 3.0]), Some(2.0));
/// assert_eq!(mean(&[]), None);
/// ```
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_empty_and_add_ignores_non_finite() {
        assert_eq!(Summary::new().count(), 0);
        let mut s = Summary::new();
        s.add(1.0);
        s.add(f64::NAN); // ignored
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn empty_summary_defaults() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.min(), f64::INFINITY);
        assert_eq!(s.max(), f64::NEG_INFINITY);
    }

    #[test]
    fn single_sample() {
        let mut s = Summary::new();
        s.add(42.0);
        assert_eq!(s.mean(), 42.0);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
    }

    #[test]
    fn welford_matches_two_pass() {
        let xs: Vec<f64> = (0..100)
            .map(|i| (i as f64 * 0.37).sin() * 10.0 + 5.0)
            .collect();
        let s: Summary = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((s.mean() - mean).abs() < 1e-10);
        assert!((s.population_variance() - var).abs() < 1e-10);
    }

    #[test]
    fn population_variance_divides_by_n() {
        let s: Summary = [1.0, 2.0, 3.0].iter().copied().collect();
        assert!((s.population_variance() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ignores_non_finite() {
        let s: Summary = [1.0, f64::INFINITY, 2.0, f64::NAN, 3.0]
            .iter()
            .copied()
            .collect();
        assert_eq!(s.count(), 3);
        assert_eq!(s.mean(), 2.0);
    }

    #[test]
    fn merge_empty_cases() {
        let a: Summary = [1.0, 2.0].iter().copied().collect();
        let mut m = Summary::new();
        m.merge(&a);
        assert_eq!(m, a);
        let mut m = a;
        m.merge(&Summary::new());
        assert_eq!(m, a);
    }

    #[test]
    fn merge_matches_sequential() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64 * 1.3).collect();
        let (left, right) = xs.split_at(20);
        let mut a: Summary = left.iter().copied().collect();
        let b: Summary = right.iter().copied().collect();
        a.merge(&b);
        let whole: Summary = xs.iter().copied().collect();
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-10);
        assert!((a.population_variance() - whole.population_variance()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }

    #[test]
    fn extend_trait() {
        let mut s = Summary::new();
        s.extend(vec![1.0, 2.0, 3.0]);
        assert_eq!(s.count(), 3);
    }
}
