//! Order statistics, the percentile picker, the name charset, and the
//! seeded generator every workload draws its inputs from.

use easched_core::RunSeed;

/// Median of the samples (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice: a lane or workload that produced no sample
/// is a bug in the benchmark, not a measurement.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The `p`-th percentile (nearest rank) of the samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentiles a timing may be reported at, ascending.
pub const PERCENTILES: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// The highest of [`PERCENTILES`] that still has at least ten samples
/// beyond it — a tail read off fewer samples is one outlier, not a
/// percentile. Falls back to the median.
pub fn pick_percentile(sample_count: usize) -> f64 {
    // In whole per-mille, so that 100 samples at p90 is exactly ten.
    PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|p| sample_count * (1_000 - (p * 10.0).round() as usize) >= 10_000)
        .unwrap_or(50.0)
}

/// First and third quartile as `statistics.quantiles(values, n=4)` gives
/// them (exclusive method), so `--compare` and the acceptance procedure
/// agree on what "spread" means.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(samples.len() >= 2, "quartiles need two samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Whether `name` is a legal workload or metric name: starts with a
/// letter or digit, at most 64 of `[A-Za-z0-9_.-]`. The spec tables are
/// checked against it.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// splitmix64: the benchmark's only source of randomness, so the same
/// `--seed` always generates the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `domain` the way the program
    /// derives its own streams ([`RunSeed::derive`]), so two generators
    /// on the same seed do not share a sequence.
    pub fn new(seed: u64, domain: &str) -> Rng {
        Rng(RunSeed::new(seed).derive(domain))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn picker_wants_ten_samples_beyond_the_percentile() {
        assert_eq!(pick_percentile(5), 50.0);
        assert_eq!(pick_percentile(19), 50.0);
        assert_eq!(pick_percentile(20), 50.0); // exactly ten beyond p50
        assert_eq!(pick_percentile(99), 50.0);
        assert_eq!(pick_percentile(100), 90.0);
        assert_eq!(pick_percentile(999), 90.0);
        assert_eq!(pick_percentile(1_000), 99.0);
        assert_eq!(pick_percentile(9_999), 99.0);
        assert_eq!(pick_percentile(10_000), 99.9);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 99.9), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let (q1, q3) = quartiles(&[1.0, 2.0, 4.0]);
        assert_eq!((q1, q3), (1.0, 4.0));
    }

    #[test]
    fn name_charset() {
        for ok in [
            "sched_miss",
            "core.engine.decide_ns",
            "p99",
            "a-b",
            "9lives",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", "_lead", ".lead", "has space", "slash/ed", "pct%", &long] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn rng_is_seeded_and_domain_separated() {
        let draw = |domain| {
            let mut rng = Rng::new(7, domain);
            [
                rng.next_u64(),
                rng.next_u64(),
                rng.next_u64(),
                rng.next_u64(),
            ]
        };
        assert_eq!(draw("x"), draw("x"));
        assert_ne!(draw("x"), draw("y"));
        let mut items: Vec<u32> = (0..64).collect();
        Rng::new(1, "s").shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<u32>>());
        assert_ne!(items, sorted);
    }
}
