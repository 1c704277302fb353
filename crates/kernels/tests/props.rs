//! Property-based tests: workload verification must hold under any valid
//! item-execution order and partitioning — the contract the heterogeneous
//! runtime relies on.

use easched_kernels::blackscholes::BlackScholes;
use easched_kernels::graphs::{Bfs, ConnectedComponents, ShortestPath};
use easched_kernels::mandelbrot::Mandelbrot;
use easched_kernels::matmul::MatMul;
use easched_kernels::nbody::NBody;
use easched_kernels::seismic::Seismic;
use easched_kernels::skiplist::SkipList;
use easched_kernels::workload::{Invoker, Workload};
use easched_sim::noise::splitmix64;
use proptest::prelude::*;
use std::ops::Range;

/// An invoker that cuts `0..n` into seeded random-length ranges (from one
/// item up to a third of the invocation) and hands them out in a
/// deterministic shuffled order — a worst-case legal schedule.
struct ShuffledInvoker {
    seed: u64,
}

impl Invoker for ShuffledInvoker {
    fn invoke(&mut self, n: u64, process: &(dyn Fn(Range<usize>) + Sync)) {
        let n = n as usize;
        let mut state = self.seed;
        let mut ranges = Vec::new();
        let mut start = 0;
        while start < n {
            state = splitmix64(state);
            let len = 1 + (state % (n as u64 / 3 + 1)) as usize;
            let end = (start + len).min(n);
            ranges.push(start..end);
            start = end;
        }
        // Deterministic Fisher-Yates over the ranges.
        for i in (1..ranges.len()).rev() {
            state = splitmix64(state);
            let j = (state % (i as u64 + 1)) as usize;
            ranges.swap(i, j);
        }
        self.seed = state;
        for r in ranges {
            process(r);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn blackscholes_verifies_under_any_order(
        n in 8u32..300,
        invocations in 1u32..4,
        seed in any::<u64>(),
    ) {
        let w = BlackScholes::new(n, invocations, seed, BlackScholes::default_profile());
        let mut invoker = ShuffledInvoker { seed };
        prop_assert!(w.drive(&mut invoker).is_passed());
    }

    #[test]
    fn matmul_verifies_under_any_order(n in 2usize..24, seed in any::<u64>()) {
        let w = MatMul::new(n, seed, MatMul::default_profile());
        let mut invoker = ShuffledInvoker { seed };
        prop_assert!(w.drive(&mut invoker).is_passed());
    }

    #[test]
    fn mandelbrot_verifies_under_any_order(
        wpx in 4usize..40,
        hpx in 4usize..30,
        seed in any::<u64>(),
    ) {
        let w = Mandelbrot::new(wpx, hpx, 48, Mandelbrot::default_profile());
        let mut invoker = ShuffledInvoker { seed };
        prop_assert!(w.drive(&mut invoker).is_passed());
    }

    #[test]
    fn seismic_verifies_under_any_order(
        wpx in 3usize..20,
        hpx in 3usize..20,
        frames in 1u32..6,
        seed in any::<u64>(),
    ) {
        let w = Seismic::new(wpx, hpx, frames, Seismic::default_profile());
        let mut invoker = ShuffledInvoker { seed };
        prop_assert!(w.drive(&mut invoker).is_passed());
    }

    #[test]
    fn nbody_verifies_under_any_order(n in 4usize..40, steps in 2u32..5, seed in any::<u64>()) {
        let w = NBody::new(n, steps, seed, NBody::default_profile());
        let mut invoker = ShuffledInvoker { seed };
        prop_assert!(w.drive(&mut invoker).is_passed());
    }

    #[test]
    fn skiplist_verifies_under_any_order(
        keys in 2usize..300,
        lookups in 1usize..300,
        seed in any::<u64>(),
    ) {
        let w = SkipList::new(keys, lookups, seed, SkipList::default_profile());
        let mut invoker = ShuffledInvoker { seed };
        prop_assert!(w.drive(&mut invoker).is_passed());
    }

    #[test]
    fn bfs_verifies_under_any_order(
        wv in 2u32..14,
        hv in 2u32..14,
        graph_seed in 0u64..64,
        seed in any::<u64>(),
    ) {
        let w = Bfs::new(wv, hv, graph_seed, Bfs::default_profile());
        let mut invoker = ShuffledInvoker { seed };
        prop_assert!(w.drive(&mut invoker).is_passed());
    }

    #[test]
    fn cc_verifies_under_any_order(
        wv in 2u32..14,
        hv in 2u32..14,
        graph_seed in 0u64..64,
        seed in any::<u64>(),
    ) {
        let w = ConnectedComponents::new(wv, hv, graph_seed, ConnectedComponents::default_profile());
        let mut invoker = ShuffledInvoker { seed };
        prop_assert!(w.drive(&mut invoker).is_passed());
    }

    #[test]
    fn sp_verifies_under_any_order(
        wv in 2u32..14,
        hv in 2u32..14,
        graph_seed in 0u64..64,
        seed in any::<u64>(),
    ) {
        let w = ShortestPath::new(wv, hv, graph_seed, ShortestPath::default_profile());
        let mut invoker = ShuffledInvoker { seed };
        prop_assert!(w.drive(&mut invoker).is_passed());
    }
}
