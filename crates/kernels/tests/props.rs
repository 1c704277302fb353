//! Property-based tests: workload verification must hold under any valid
//! item-execution order and partitioning — the contract the heterogeneous
//! runtime relies on.

use easched_kernels::{
    Bfs, BlackScholes, ConnectedComponents, Invoker, Mandelbrot, MatMul, NBody, Seismic,
    SerialInvoker, ShortestPath, SkipList, Verification, Workload, LANES,
};
use easched_sim::splitmix64;
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

/// Runs `lead..n` as `inner` cuts it, then `0..lead`: the first range
/// handed out starts mid-lane-group, and mid-row unless the width
/// divides `lead`.
struct AfterALead {
    lead: usize,
    inner: ShuffledInvoker,
}

impl Invoker for AfterALead {
    fn invoke(&mut self, n: u64, process: &(dyn Fn(Range<usize>) + Sync)) {
        let lead = self.lead.min(n as usize);
        self.inner.invoke(n - lead as u64, &|r: Range<usize>| {
            process(r.start + lead..r.end + lead)
        });
        process(0..lead);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any image width (below `LANES`, between its multiples, and
    /// rows that end mid-group), any iteration budget and any cut of the
    /// pixels. An image all of one kind fails verification as degenerate
    /// whatever the order; that verdict is reached only after every
    /// pixel matched the serial reference, and it must be the serial
    /// drive's verdict too.
    #[test]
    fn mandelbrot_verifies_under_any_order(
        wpx in prop_oneof![1usize..LANES, 1usize..40],
        hpx in 1usize..30,
        max_iter in 2u32..=256,
        lead in 1usize..LANES,
        seed in any::<u64>(),
    ) {
        let w = Mandelbrot::new(wpx, hpx, max_iter, Mandelbrot::default_profile());
        let mut invoker = AfterALead { lead, inner: ShuffledInvoker { seed } };
        let got = w.drive(&mut invoker);
        if let Verification::Failed(why) = &got {
            prop_assert!(why.starts_with("degenerate image"), "{}", why);
        }
        prop_assert_eq!(got, w.drive(&mut SerialInvoker));
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
