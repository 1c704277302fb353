//! Host-speed calibration, taken *during* every run.
//!
//! This sandbox's speed drifts by tens of percent for a minute at a time
//! (a neighbour on the host, not anything in the guest: thread CPU time
//! drifts with wall time). A whole run sits inside such a period, so
//! medians inside the run do not help, and ten runs of the same code
//! spread 15–30 % on raw wall time. What does help is a fixed kernel timed
//! between the workload's units: its slowdown tracks the workload's
//! closely, so dividing it out leaves the part of the timing that belongs
//! to the code. Over 76 eight-second windows of `compare_trace`, raw wall
//! time ranged 26 %; divided by this kernel, 10 %, with the quartiles 1.2 %
//! apart. A dependent FMA chain and a pointer chase tracked far worse
//! (they are latency-bound and barely notice contention), which is why the
//! normaliser is a high-ILP integer mix over an L1-resident table. Both
//! latency kernels stay in the per-layer table as `host.calib_*`.
//!
//! Time-valued end-to-end metrics are therefore reported
//! *calibration-normalised*: measured time × ([`REFERENCE_NS`] ÷ kernel
//! time measured around the same units). On a quiet reference machine the
//! factor is 1 and the numbers are plain wall time; `--trace 1` reports
//! the kernel's measured time as `host.calib_mix_ns` so raw numbers can be
//! recovered.

use crate::stats::median;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's time per iteration on this sandbox when it is quiet, ns.
/// A constant on purpose: parent and change are scaled by the same value,
/// and a machine that is uniformly faster or slower only rescales every
/// number alike.
pub const REFERENCE_NS: f64 = 1.6;

const TABLE: usize = 8_192;
const ITERATIONS: usize = 65_536;
/// Passes at each calibration point: the first few re-warm the table and
/// the predictors after whatever the workload did to them and are
/// discarded; the point's value is the median of the rest. A point costs
/// about a hundredth of the unit it follows, between ~1.5 ms and ~13 ms.
const WARM_PASSES: usize = 4;
const MIN_TIMED_PASSES: usize = 11;
const MAX_TIMED_PASSES: usize = 121;

pub struct Calibrator {
    table: Vec<u64>,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        Calibrator {
            table: vec![7; TABLE],
        }
    }

    /// One pass of the kernel; ns per iteration. Two multiply–xorshift
    /// streams index a 64 KiB table that two more streams fold and
    /// rewrite: four independent chains, loads and stores that hit L1/L2.
    fn kernel(&mut self) -> f64 {
        let table = &mut self.table[..];
        let start = Instant::now();
        let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
        for i in 0..ITERATIONS {
            a = a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (a >> 29);
            b = b.wrapping_mul(0xBF58_476D_1CE4_E5B9) ^ (b >> 31);
            c = c.wrapping_add(table[a as usize % TABLE]);
            d ^= table[b as usize % TABLE].rotate_left(7);
            table[i % TABLE] = c ^ d;
        }
        black_box((a, b, c, d));
        start.elapsed().as_nanos() as f64 / ITERATIONS as f64
    }

    /// Host speed right now: kernel ns per iteration. Call between units,
    /// never inside one. `unit` is how long the neighbouring unit took: a
    /// long unit gets a longer, steadier point.
    pub fn point(&mut self, unit: Duration) -> f64 {
        for _ in 0..WARM_PASSES {
            self.kernel();
        }
        let pass = Duration::from_nanos((REFERENCE_NS * ITERATIONS as f64) as u64);
        let passes = (unit.as_nanos() / 100 / pass.as_nanos()) as usize;
        let timed: Vec<f64> = (0..passes.clamp(MIN_TIMED_PASSES, MAX_TIMED_PASSES))
            .map(|_| self.kernel())
            .collect();
        median(&timed)
    }
}

/// What to multiply a measured time by (divide a measured rate by).
pub fn time_factor(kernel_ns: f64) -> f64 {
    REFERENCE_NS / kernel_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slower_host_scales_times_down() {
        assert_eq!(time_factor(REFERENCE_NS), 1.0);
        // A host at half speed takes twice as long; times halve back.
        assert_eq!(time_factor(2.0 * REFERENCE_NS), 0.5);
    }

    #[test]
    fn a_point_is_a_positive_time() {
        let ns = Calibrator::new().point(Duration::ZERO);
        assert!(ns > 0.0 && ns.is_finite());
    }
}
