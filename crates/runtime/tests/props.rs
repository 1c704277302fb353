//! Property-based tests for the shared-counter pool the backends run on
//! and the sim backend's item accounting.

use easched_kernels::parallel_for;
use easched_runtime::{Backend, SimBackend};
use easched_sim::{KernelTraits, Machine, Platform};
use proptest::prelude::*;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;

/// True if `ranges`, sorted, tile `0..n` with no gap and no overlap
/// (empty ranges are allowed anywhere).
fn tiles(mut ranges: Vec<Range<usize>>, n: usize) -> bool {
    ranges.retain(|r| !r.is_empty());
    ranges.sort_by_key(|r| r.start);
    let mut next = 0;
    for r in ranges {
        if r.start != next {
            return false;
        }
        next = r.end;
    }
    next == n
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every index executes exactly once, regardless of worker count and
    /// the chunking the item count implies.
    #[test]
    fn pool_executes_each_index_once(n in 0u64..5_000, workers in 1usize..6) {
        let hits: Vec<AtomicU32> = (0..n as usize).map(|_| AtomicU32::new(0)).collect();
        let ranges = Mutex::new(Vec::new());
        parallel_for(n, workers, &|items| {
            for i in items.clone() {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
            ranges.lock().unwrap().push(items);
        });
        prop_assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        prop_assert!(tiles(ranges.into_inner().unwrap(), n as usize));
    }

    /// parallel_for matches a serial fold.
    #[test]
    fn pool_matches_serial_sum(n in 0u64..20_000, workers in 1usize..8) {
        let sum = std::sync::atomic::AtomicU64::new(0);
        parallel_for(n, workers, &|items| {
            for i in items {
                sum.fetch_add(i as u64 + 1, Ordering::Relaxed);
            }
        });
        prop_assert_eq!(sum.load(Ordering::Relaxed), n * (n + 1) / 2);
    }

    /// Any interleaving of profile steps and a final split consumes every
    /// item exactly once on the sim backend, handing the functional body
    /// at most one range per device per phase, and the ranges it hands
    /// out tile `0..n`.
    #[test]
    fn sim_backend_item_accounting(
        n in 1u64..200_000,
        chunks in prop::collection::vec(1u64..5_000, 0..5),
        alpha_step in 0usize..=10,
    ) {
        let platform = Platform::haswell_desktop();
        let traits = KernelTraits::builder("prop")
            .cpu_rate(1.0e6)
            .gpu_rate(2.0e6)
            .build();
        let hits: Vec<AtomicU32> = (0..n as usize).map(|_| AtomicU32::new(0)).collect();
        let ranges = Mutex::new(Vec::new());
        let f = |items: Range<usize>| {
            for i in items.clone() {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
            ranges.lock().unwrap().push(items);
        };
        let mut machine = Machine::new(platform);
        let mut b = SimBackend::new(&mut machine, &traits, n, Some(&f), 7);
        let mut consumed = 0u64;
        let mut phases = 0;
        for chunk in chunks {
            if b.remaining() == 0 {
                break;
            }
            let before = b.remaining();
            let obs = b.profile_step(chunk);
            phases += 1;
            consumed += obs.cpu_items + obs.gpu_items;
            prop_assert_eq!(before - b.remaining(), obs.cpu_items + obs.gpu_items);
        }
        if b.remaining() > 0 {
            let obs = b.run_split(alpha_step as f64 / 10.0);
            phases += 1;
            consumed += obs.cpu_items + obs.gpu_items;
        }
        prop_assert_eq!(consumed, n);
        prop_assert_eq!(b.remaining(), 0);
        let _ = b;
        prop_assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        let ranges = ranges.into_inner().unwrap();
        prop_assert!(ranges.len() <= 2 * phases, "{} ranges in {phases} phases", ranges.len());
        prop_assert!(tiles(ranges, n as usize));
    }

    /// Observations report consistent rates: items/time within the solo
    /// rate envelope (plus irregularity headroom).
    #[test]
    fn observed_rates_within_envelope(n in 10_000u64..500_000, alpha_step in 1usize..=9) {
        let platform = Platform::haswell_desktop();
        let traits = KernelTraits::builder("prop")
            .cpu_rate(1.0e6)
            .gpu_rate(3.0e6)
            .build();
        let mut machine = Machine::new(platform);
        let mut b = SimBackend::new(&mut machine, &traits, n, None, 3);
        let obs = b.run_split(alpha_step as f64 / 10.0);
        prop_assert!(obs.cpu_rate() <= 1.0e6 * 1.05, "{}", obs.cpu_rate());
        prop_assert!(obs.gpu_rate() <= 3.0e6 * 1.05, "{}", obs.gpu_rate());
    }
}
