//! Black-Scholes option pricing (PARSEC's `blackscholes`, Table 1 "BS").
//!
//! Regular, compute-bound, short kernels invoked many times (2000 in the
//! paper). Each item prices one European option (call and put) with the
//! closed-form Black-Scholes formula; verification checks put-call parity
//! and a serial recomputation of sampled items, both computed once per
//! instance.

use crate::profiles::{Calib, Profile};
use crate::workload::{Invoker, Verification, Workload, WorkloadSpec};
use easched_sim::{AccessPattern, KernelTraits, Platform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

/// One option contract.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Option_ {
    spot: f64,
    strike: f64,
    rate: f64,
    volatility: f64,
    expiry: f64,
}

/// Standard normal CDF via the Abramowitz-Stegun rational approximation
/// (the same approximation PARSEC uses).
fn norm_cdf(x: f64) -> f64 {
    let neg = x < 0.0;
    let x = x.abs();
    let k = 1.0 / (1.0 + 0.2316419 * x);
    let poly = k
        * (0.319381530
            + k * (-0.356563782 + k * (1.781477937 + k * (-1.821255978 + k * 1.330274429))));
    let pdf = (-x * x / 2.0).exp() / (2.0 * std::f64::consts::PI).sqrt();
    let cdf = 1.0 - pdf * poly;
    if neg {
        1.0 - cdf
    } else {
        cdf
    }
}

/// Closed-form Black-Scholes price; returns `(call, put)`.
fn price(o: &Option_) -> (f64, f64) {
    let sqrt_t = o.expiry.sqrt();
    let d1 = ((o.spot / o.strike).ln() + (o.rate + o.volatility * o.volatility / 2.0) * o.expiry)
        / (o.volatility * sqrt_t);
    let d2 = d1 - o.volatility * sqrt_t;
    let discount = (-o.rate * o.expiry).exp();
    let call = o.spot * norm_cdf(d1) - o.strike * discount * norm_cdf(d2);
    let put = o.strike * discount * norm_cdf(-d2) - o.spot * norm_cdf(-d1);
    (call, put)
}

/// Every how many options a drive recomputes one serially.
const SAMPLE_EVERY: usize = 97;

/// What a drive's prices are checked against.
#[derive(Debug)]
struct Targets {
    /// Each option's parity side `S − K·e^{−rT}`.
    parity: Vec<f64>,
    /// The serial `(call, put)` of every `SAMPLE_EVERY`th option.
    sampled: Vec<(f64, f64)>,
}

impl Targets {
    fn of(options: &[Option_]) -> Self {
        Targets {
            parity: options
                .iter()
                .map(|o| o.spot - o.strike * (-o.rate * o.expiry).exp())
                .collect(),
            sampled: options.iter().step_by(SAMPLE_EVERY).map(price).collect(),
        }
    }
}

/// The Black-Scholes workload: `invocations` pricing passes over a fixed
/// portfolio of `options` contracts.
#[derive(Debug)]
pub struct BlackScholes {
    options: Vec<Option_>,
    invocations: u32,
    profile: Profile,
    /// The verification targets, computed on the first drive and
    /// compared against on every drive.
    targets: OnceLock<Targets>,
}

impl BlackScholes {
    /// Creates a portfolio of `n_options` seeded contracts priced
    /// `invocations` times.
    ///
    /// # Panics
    ///
    /// Panics if `n_options` or `invocations` is zero.
    pub fn new(n_options: u32, invocations: u32, seed: u64, profile: Profile) -> Self {
        assert!(n_options > 0 && invocations > 0, "sizes must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let options = (0..n_options)
            .map(|_| Option_ {
                spot: rng.gen_range(20.0..120.0),
                strike: rng.gen_range(20.0..120.0),
                rate: rng.gen_range(0.01..0.08),
                volatility: rng.gen_range(0.1..0.6),
                expiry: rng.gen_range(0.2..2.0),
            })
            .collect();
        BlackScholes {
            options,
            invocations,
            profile,
            targets: OnceLock::new(),
        }
    }

    /// Default calibration (see `profiles` module docs).
    pub fn default_profile() -> Profile {
        Profile {
            desktop: Calib {
                cpu_rate: 3.0e7,
                gpu_rate: 9.0e7,
                mem_intensity: 0.10,
                access: AccessPattern::Streaming,
                working_set: 64 * 1024 * 20, // 64K options × 20 B
                bus_fraction: 0.15,
                irregularity: 0.03,
                instr_per_item: 250.0,
                loads_per_item: 40.0,
            },
            tablet: Calib {
                cpu_rate: 2.8e6,
                gpu_rate: 4.1e6,
                mem_intensity: 0.10,
                access: AccessPattern::Streaming,
                working_set: 2_621_440 * 20, // paper tablet input
                bus_fraction: 0.15,
                irregularity: 0.03,
                instr_per_item: 250.0,
                loads_per_item: 40.0,
            },
        }
    }
}

impl Workload for BlackScholes {
    fn input_description(&self) -> String {
        format!(
            "{} options, {} passes",
            self.options.len(),
            self.invocations
        )
    }

    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            name: "Blackscholes",
            abbrev: "BS",
            regular: true,
            runs_on_tablet: true,
        }
    }

    fn traits_for(&self, platform: &Platform) -> KernelTraits {
        self.profile.traits_for("BS", platform)
    }

    fn drive(&self, invoker: &mut dyn Invoker) -> Verification {
        let n = self.options.len();
        let calls: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        let puts: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        for _ in 0..self.invocations {
            invoker.invoke(n as u64, &|items| {
                for i in items {
                    let (c, p) = price(&self.options[i]);
                    calls[i].store((c as f32).to_bits(), Ordering::Relaxed);
                    puts[i].store((p as f32).to_bits(), Ordering::Relaxed);
                }
            });
        }
        // Verify: put-call parity C − P = S − K·e^{−rT} and a serial spot
        // check of every 97th option.
        let targets = self.targets.get_or_init(|| Targets::of(&self.options));
        for (i, &parity) in targets.parity.iter().enumerate() {
            let c = f64::from(f32::from_bits(calls[i].load(Ordering::Relaxed)));
            let p = f64::from(f32::from_bits(puts[i].load(Ordering::Relaxed)));
            if (c - p - parity).abs() > 1e-2 {
                return Verification::Failed(format!(
                    "put-call parity violated at {i}: C-P={} vs {}",
                    c - p,
                    parity
                ));
            }
            if i % SAMPLE_EVERY == 0 {
                let (rc, rp) = targets.sampled[i / SAMPLE_EVERY];
                if (c - rc).abs() > 1e-3 || (p - rp).abs() > 1e-3 {
                    return Verification::Failed(format!("price mismatch at {i}"));
                }
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
    fn norm_cdf_known_values() {
        assert!((norm_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((norm_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((norm_cdf(-1.96) - 0.025).abs() < 1e-3);
        assert!(norm_cdf(8.0) > 0.999999);
    }

    #[test]
    fn atm_option_price_sane() {
        // At-the-money call with 20% vol, 1y, zero rate ≈ 0.0796·S.
        let o = Option_ {
            spot: 100.0,
            strike: 100.0,
            rate: 0.0,
            volatility: 0.2,
            expiry: 1.0,
        };
        let (c, p) = price(&o);
        assert!((c - 7.96).abs() < 0.05, "call {c}");
        assert!((c - p).abs() < 1e-9, "ATM zero-rate call=put");
    }

    #[test]
    fn deep_itm_call_approaches_intrinsic() {
        let o = Option_ {
            spot: 200.0,
            strike: 10.0,
            rate: 0.05,
            volatility: 0.2,
            expiry: 0.5,
        };
        let (c, _) = price(&o);
        let intrinsic = 200.0 - 10.0 * (-0.05f64 * 0.5).exp();
        assert!((c - intrinsic).abs() < 0.01);
    }

    #[test]
    fn workload_verifies() {
        let w = BlackScholes::new(512, 3, 1, BlackScholes::default_profile());
        assert!(w.drive(&mut SerialInvoker).is_passed());
    }

    #[test]
    fn trace_shape() {
        let w = BlackScholes::new(256, 5, 2, BlackScholes::default_profile());
        let (trace, v) = record_trace(&w);
        assert!(v.is_passed());
        assert_eq!(trace.invocations(), 5);
        assert!(trace.sizes.iter().all(|&s| s == 256));
    }

    #[test]
    fn classifies_compute_bound_on_both_platforms() {
        let w = BlackScholes::new(64, 1, 3, BlackScholes::default_profile());
        for p in [Platform::haswell_desktop(), Platform::baytrail_tablet()] {
            let t = w.traits_for(&p);
            assert!(
                t.l3_miss_ratio(p.memory.llc_bytes) < 0.33,
                "BS must classify compute-bound on {}",
                p.name
            );
        }
    }

    #[test]
    fn deterministic_construction() {
        let a = BlackScholes::new(64, 1, 9, BlackScholes::default_profile());
        let b = BlackScholes::new(64, 1, 9, BlackScholes::default_profile());
        assert_eq!(a.options, b.options);
    }

    #[test]
    #[should_panic(expected = "sizes must be positive")]
    fn rejects_zero_options() {
        BlackScholes::new(0, 1, 0, BlackScholes::default_profile());
    }
}
