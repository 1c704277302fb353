//! Deterministic pseudo-noise for the simulator.
//!
//! Real hardware is noisy: power readings jitter tick to tick, and irregular
//! kernels (input-dependent control flow) have run-to-run throughput
//! variation. The simulator reproduces both with *deterministic* noise
//! derived from hash mixing, so every experiment is exactly repeatable while
//! still stressing the scheduler's robustness the way real noise does.

/// SplitMix64 hash step: a high-quality 64-bit mixer.
///
/// # Examples
///
/// ```
/// use easched_sim::splitmix64;
/// assert_ne!(splitmix64(1), splitmix64(2));
/// assert_eq!(splitmix64(42), splitmix64(42));
/// ```
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Combines two seeds into one.
pub(crate) fn combine(a: u64, b: u64) -> u64 {
    splitmix64(a ^ splitmix64(b))
}

/// Uniform sample in [0, 1) derived from a seed.
pub(crate) fn unit(seed: u64) -> f64 {
    // 53 high-quality bits → [0, 1).
    (splitmix64(seed) >> 11) as f64 / (1u64 << 53) as f64
}

/// Symmetric multiplicative jitter: `1 + amplitude·u` with `u` uniform in
/// (−1, 1). `amplitude` 0 returns exactly 1.
pub(crate) fn jitter(seed: u64, amplitude: f64) -> f64 {
    if amplitude == 0.0 {
        return 1.0;
    }
    1.0 + amplitude * (2.0 * unit(seed) - 1.0)
}

/// Log-normal-ish throughput factor for irregular kernels: `exp(σ·z)` with
/// `z` an approximately standard-normal variate (sum of 4 uniforms, central
/// limit). `sigma` 0 returns exactly 1.
///
/// Guaranteed strictly positive.
pub(crate) fn rate_factor(seed: u64, sigma: f64) -> f64 {
    if sigma == 0.0 {
        return 1.0;
    }
    // Irwin-Hall(4) recentred/rescaled: mean 0, variance 1.
    let s: f64 = (0..4).map(|i| unit(combine(seed, i))).sum();
    let z = (s - 2.0) * (3.0f64).sqrt();
    (sigma * z).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixer_basics() {
        assert_ne!(combine(1, 2), combine(2, 1));
        let u = unit(7);
        assert!((0.0..1.0).contains(&u));
        assert_eq!(jitter(3, 0.0), 1.0);
        let j = jitter(3, 0.1);
        assert!(j > 0.9 && j < 1.1);
        assert_eq!(rate_factor(9, 0.0), 1.0);
        assert!(rate_factor(9, 0.3) > 0.0);
    }

    #[test]
    fn splitmix_known_distinctness() {
        let vals: Vec<u64> = (0..1000).map(splitmix64).collect();
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 1000, "no collisions in small range");
    }

    #[test]
    fn unit_in_range_and_roughly_uniform() {
        let n = 10_000;
        let mean: f64 = (0..n).map(unit).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
        for i in 0..n {
            let u = unit(i);
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn jitter_bounds() {
        for i in 0..1000 {
            let j = jitter(i, 0.05);
            assert!(j > 0.95 && j < 1.05);
        }
    }

    #[test]
    fn rate_factor_centered_near_one() {
        let n = 20_000;
        let mean: f64 = (0..n).map(|i| rate_factor(i, 0.2)).sum::<f64>() / n as f64;
        // E[exp(σz)] = exp(σ²/2) ≈ 1.02 for σ=0.2.
        assert!((mean - 1.02).abs() < 0.03, "mean {mean}");
    }

    #[test]
    fn rate_factor_strictly_positive_even_large_sigma() {
        for i in 0..1000 {
            assert!(rate_factor(i, 2.0) > 0.0);
        }
    }

    #[test]
    fn deterministic_across_calls() {
        assert_eq!(rate_factor(123, 0.3), rate_factor(123, 0.3));
        assert_eq!(jitter(55, 0.1), jitter(55, 0.1));
    }

    #[test]
    fn combine_order_sensitive() {
        assert_ne!(combine(1, 2), combine(2, 1));
        assert_ne!(combine(0, 0), 0);
    }
}
