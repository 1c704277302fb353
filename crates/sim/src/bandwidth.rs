//! Shared memory-bandwidth contention model.
//!
//! On integrated parts the CPU cores and the GPU share one memory controller.
//! When both devices run a bandwidth-hungry kernel simultaneously, neither
//! achieves its solo throughput. This is why the paper's profiler measures
//! R_C and R_G *in combined mode* (§3.2): those contended rates are what the
//! time model T(α) needs for the combined phase — and why the tail phase
//! (single device) runs slightly faster than the model predicts, one of the
//! EAS-vs-Oracle gaps the paper observes.
//!
//! Model: each device demands `rate × bytes_per_item`. If total demand
//! exceeds the platform peak, bandwidth is granted proportionally to demand
//! and each device's *memory-bound fraction* of work slows accordingly
//! (roofline-style: the compute fraction is unaffected).

/// One device's demand entering the contention model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BwDemand {
    /// Uncontended processing rate in items/second.
    pub rate: f64,
    /// Memory traffic per item in bytes.
    pub bytes_per_item: f64,
    /// Fraction of the kernel's time that is bandwidth-limited, in [0, 1].
    pub memory_fraction: f64,
}

/// Effective rates after sharing `peak_bw` bytes/second between demands.
///
/// Returns one derated rate per input demand, in order, in an array of the
/// same length: the simulator calls this once per tick and allocates
/// nothing. Devices with zero demand are unaffected. The result never
/// exceeds the input rate.
///
/// # Examples
///
/// ```
/// use easched_sim::{contended_rates, BwDemand};
///
/// // Two identical fully-memory-bound streams each wanting the full bus.
/// let d = BwDemand { rate: 1.0e6, bytes_per_item: 1000.0, memory_fraction: 1.0 };
/// let [cpu, gpu] = contended_rates(1.0e9, &[d, d]);
/// // Each gets half the bus → half the throughput.
/// assert!((cpu - 0.5e6).abs() < 1.0);
/// assert_eq!(cpu, gpu);
/// ```
pub fn contended_rates<const N: usize>(peak_bw: f64, demands: &[BwDemand; N]) -> [f64; N] {
    let total: f64 = demands
        .iter()
        .map(|d| d.rate.max(0.0) * d.bytes_per_item.max(0.0))
        .sum();
    if total <= peak_bw || total <= 0.0 {
        return demands.map(|d| d.rate);
    }
    // Oversubscribed: every byte of demand is granted the same fraction.
    let grant = peak_bw / total;
    demands.map(|d| {
        let mf = d.memory_fraction.clamp(0.0, 1.0);
        if mf == 0.0 {
            return d.rate;
        }
        // Roofline composition: time per item = compute part + memory
        // part stretched by 1/grant.
        let slowdown = (1.0 - mf) + mf / grant;
        d.rate / slowdown
    })
}

/// [`contended_rates`] as it stood before it returned an array: one `Vec`
/// per call. Kept as the oracle the simulator's tick is held to.
#[cfg(test)]
pub(crate) mod parent {
    use super::BwDemand;

    pub(crate) fn contended_rates(peak_bw: f64, demands: &[BwDemand]) -> Vec<f64> {
        let total: f64 = demands
            .iter()
            .map(|d| d.rate.max(0.0) * d.bytes_per_item.max(0.0))
            .sum();
        if total <= peak_bw || total <= 0.0 {
            return demands.iter().map(|d| d.rate).collect();
        }
        let grant = peak_bw / total;
        demands
            .iter()
            .map(|d| {
                let mf = d.memory_fraction.clamp(0.0, 1.0);
                if mf == 0.0 {
                    return d.rate;
                }
                let slowdown = (1.0 - mf) + mf / grant;
                d.rate / slowdown
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const D: BwDemand = BwDemand {
        rate: 1.0e6,
        bytes_per_item: 100.0,
        memory_fraction: 1.0,
    };

    #[test]
    fn under_subscription_unaffected() {
        let rates = contended_rates(1.0e9, &[D]);
        assert_eq!(rates, [1.0e6]); // demands 1e8 < 1e9
    }

    #[test]
    fn single_oversubscribed_device_throttled() {
        let rates = contended_rates(0.5e8, &[D]); // demands 1e8, bus 0.5e8
        assert!((rates[0] - 0.5e6).abs() < 1.0);
    }

    #[test]
    fn compute_bound_device_untouched_under_contention() {
        let compute = BwDemand {
            memory_fraction: 0.0,
            ..D
        };
        let rates = contended_rates(1.0e8, &[D, compute]);
        assert!(rates[0] < D.rate, "memory-bound slows");
        assert_eq!(rates[1], compute.rate, "compute-bound keeps rate");
    }

    #[test]
    fn partial_memory_fraction_partial_slowdown() {
        let half = BwDemand {
            memory_fraction: 0.5,
            ..D
        };
        let full = contended_rates(1.0e8, &[D, D])[0];
        let part = contended_rates(1.0e8, &[half, D])[0];
        assert!(part > full, "less memory-bound → less slowdown");
        assert!(part < half.rate);
    }

    #[test]
    fn total_granted_bw_not_exceeding_peak() {
        let peak = 1.0e8;
        let rates = contended_rates(peak, &[D, D, D]);
        let used: f64 = rates.iter().map(|r| r * D.bytes_per_item).sum();
        assert!(used <= peak * 1.0001, "granted {used} > peak {peak}");
    }

    #[test]
    fn zero_demand_passthrough() {
        let z = BwDemand { rate: 0.0, ..D };
        let [zero, d] = contended_rates(1.0, &[z, D]);
        assert_eq!(zero, 0.0);
        assert!(d > 0.0);
    }

    #[test]
    fn empty_demands_ok() {
        assert!(contended_rates(1.0e9, &[]).is_empty());
    }

    #[test]
    fn rates_never_increase() {
        for peak in [1.0e6, 1.0e7, 1.0e8, 1.0e9] {
            for r in contended_rates(peak, &[D, D]) {
                assert!(r <= D.rate);
            }
        }
    }

    fn demand() -> impl Strategy<Value = BwDemand> {
        (
            prop_oneof![Just(0.0), 1e3..1e9f64],
            prop_oneof![Just(0.0), 1.0..1e4f64],
            prop_oneof![Just(0.0), Just(1.0), 0.0..1.0f64],
        )
            .prop_map(|(rate, bytes_per_item, memory_fraction)| BwDemand {
                rate,
                bytes_per_item,
                memory_fraction,
            })
    }

    proptest! {
        /// The array form returns the parent's `Vec`, bit for bit, at the
        /// machine's two demands and at one and three.
        #[test]
        fn arrays_equal_the_parent_vec(
            peak in 1e6..1e11f64,
            a in demand(),
            b in demand(),
            c in demand(),
        ) {
            let bits = |rates: &[f64]| rates.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(
                bits(&contended_rates(peak, &[a])),
                bits(&parent::contended_rates(peak, &[a]))
            );
            prop_assert_eq!(
                bits(&contended_rates(peak, &[a, b])),
                bits(&parent::contended_rates(peak, &[a, b]))
            );
            prop_assert_eq!(
                bits(&contended_rates(peak, &[a, b, c])),
                bits(&parent::contended_rates(peak, &[a, b, c]))
            );
        }
    }
}
