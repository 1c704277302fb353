//! Skip-list search (Table 1 "SL").
//!
//! Irregular, memory-bound, single long kernel invocation. A skip list is
//! built serially over `n_keys` keys (deterministic tower heights from key
//! hashes), then the kernel performs `n_lookups` parallel searches — pure
//! pointer chasing with input-dependent descent paths, the most
//! cache-hostile access pattern in the suite.
//!
//! Verification: every lookup's present/absent answer must match a
//! `BTreeSet` oracle.

use crate::profiles::{Calib, Profile};
use crate::workload::{Invoker, Verification, Workload, WorkloadSpec};
use easched_sim::{AccessPattern, KernelTraits, Platform};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};

const MAX_LEVEL: usize = 24;
const NIL: u32 = u32::MAX;

/// Arena-allocated skip list over `u64` keys (index-based links — no
/// unsafe).
#[derive(Debug)]
struct SkipListIndex {
    keys: Vec<u64>,
    /// `next[node * MAX_LEVEL + level]`.
    next: Vec<u32>,
    /// Heads per level.
    head: [u32; MAX_LEVEL],
    levels: usize,
}

/// Deterministic tower height from the key's hash: geometric(1/2).
fn height_of(key: u64) -> usize {
    let h = easched_sim::splitmix64(key);
    ((h.trailing_ones() as usize) + 1).min(MAX_LEVEL)
}

impl SkipListIndex {
    /// Builds from a sorted, deduplicated key slice.
    #[allow(clippy::needless_range_loop)] // level indexes two parallel arrays
    fn build(sorted_keys: &[u64]) -> SkipListIndex {
        let n = sorted_keys.len();
        let mut list = SkipListIndex {
            keys: sorted_keys.to_vec(),
            next: vec![NIL; n * MAX_LEVEL],
            head: [NIL; MAX_LEVEL],
            levels: 1,
        };
        // Last-seen node per level, walking keys in order.
        let mut tail: [u32; MAX_LEVEL] = [NIL; MAX_LEVEL];
        for (i, &key) in sorted_keys.iter().enumerate() {
            let h = height_of(key);
            list.levels = list.levels.max(h);
            for level in 0..h {
                if tail[level] == NIL {
                    list.head[level] = i as u32;
                } else {
                    list.next[tail[level] as usize * MAX_LEVEL + level] = i as u32;
                }
                tail[level] = i as u32;
            }
        }
        list
    }

    /// Standard skip-list search: descend from the top level.
    fn contains(&self, key: u64) -> bool {
        let mut level = self.levels - 1;
        let mut node = NIL; // "before head" sentinel
        loop {
            // Advance along this level while the next key is <= target.
            loop {
                let nxt = if node == NIL {
                    self.head[level]
                } else {
                    self.next[node as usize * MAX_LEVEL + level]
                };
                if nxt == NIL || self.keys[nxt as usize] > key {
                    break;
                }
                if self.keys[nxt as usize] == key {
                    return true;
                }
                node = nxt;
            }
            if level == 0 {
                return false;
            }
            level -= 1;
        }
    }
}

/// The skip-list workload.
#[derive(Debug)]
pub struct SkipList {
    keys: Vec<u64>,
    queries: Vec<u64>,
    oracle: BTreeSet<u64>,
    profile: Profile,
}

impl SkipList {
    /// Builds a list of `n_keys` random keys and a query batch of
    /// `n_lookups` (half hits, half misses in expectation).
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    pub fn new(n_keys: usize, n_lookups: usize, seed: u64, profile: Profile) -> Self {
        assert!(n_keys > 0 && n_lookups > 0, "counts must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        // Even keys only, so odd probes are guaranteed misses.
        let mut set = BTreeSet::new();
        while set.len() < n_keys {
            set.insert(rng.gen::<u64>() & !1);
        }
        let keys: Vec<u64> = set.iter().copied().collect();
        let queries = (0..n_lookups)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    keys[rng.gen_range(0..keys.len())] // guaranteed hit
                } else {
                    rng.gen::<u64>() | 1 // guaranteed miss
                }
            })
            .collect();
        SkipList {
            keys,
            queries,
            oracle: set,
            profile,
        }
    }

    /// Default calibration: pointer-chasing, the largest working set in the
    /// suite (paper: 500 M keys on the desktop, 45 M on the tablet). The
    /// GPU's latency-hiding threads give it a modest edge despite the
    /// serial dependent loads.
    pub fn default_profile() -> Profile {
        Profile {
            desktop: Calib {
                cpu_rate: 6.0e5,
                gpu_rate: 9.3e5,
                mem_intensity: 1.0,
                access: AccessPattern::PointerChase,
                working_set: 2 << 30,
                bus_fraction: 1.05,
                irregularity: 0.30,
                instr_per_item: 600.0,
                loads_per_item: 200.0,
            },
            tablet: Calib {
                cpu_rate: 9.0e4,
                gpu_rate: 1.35e5,
                mem_intensity: 1.0,
                access: AccessPattern::PointerChase,
                working_set: 45_000_000 * 24,
                bus_fraction: 1.05,
                irregularity: 0.30,
                instr_per_item: 600.0,
                loads_per_item: 200.0,
            },
        }
    }
}

impl Workload for SkipList {
    fn input_description(&self) -> String {
        format!("{} keys, {} lookups", self.keys.len(), self.queries.len())
    }

    fn spec(&self) -> WorkloadSpec {
        WorkloadSpec {
            name: "SkipList",
            abbrev: "SL",
            regular: false,
            runs_on_tablet: true,
        }
    }

    fn traits_for(&self, platform: &Platform) -> KernelTraits {
        self.profile.traits_for("SL", platform)
    }

    fn drive(&self, invoker: &mut dyn Invoker) -> Verification {
        let list = SkipListIndex::build(&self.keys);
        let found: Vec<AtomicBool> = (0..self.queries.len())
            .map(|_| AtomicBool::new(false))
            .collect();
        {
            let l = &list;
            let q = &self.queries;
            let f = &found;
            invoker.invoke(self.queries.len() as u64, &|items| {
                for i in items {
                    f[i].store(l.contains(q[i]), Ordering::Relaxed);
                }
            });
        }
        for (i, q) in self.queries.iter().enumerate() {
            let got = found[i].load(Ordering::Relaxed);
            let want = self.oracle.contains(q);
            if got != want {
                return Verification::Failed(format!("query {i} (key {q}): {got} vs {want}"));
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
    fn build_and_search_small() {
        let list = SkipListIndex::build(&[2, 4, 8, 16, 32]);
        for k in [2u64, 4, 8, 16, 32] {
            assert!(list.contains(k), "key {k}");
        }
        for k in [0u64, 3, 5, 31, 33, u64::MAX] {
            assert!(!list.contains(k), "key {k}");
        }
    }

    #[test]
    fn single_key_list() {
        let list = SkipListIndex::build(&[42]);
        assert!(list.contains(42));
        assert!(!list.contains(41));
        assert!(!list.contains(43));
    }

    #[test]
    fn heights_are_geometric_ish() {
        let mut counts = [0usize; MAX_LEVEL + 1];
        for k in 0..100_000u64 {
            counts[height_of(k * 2)] += 1;
        }
        // Roughly half the towers have height 1, a quarter height 2, …
        assert!((counts[1] as f64 / 100_000.0 - 0.5).abs() < 0.02);
        assert!((counts[2] as f64 / 100_000.0 - 0.25).abs() < 0.02);
    }

    #[test]
    fn towers_accelerate_search() {
        // The top level of a 100k-key list should be far shorter than the
        // bottom (otherwise it degenerates to a linked list).
        let keys: Vec<u64> = (0..100_000u64).map(|i| i * 2).collect();
        let list = SkipListIndex::build(&keys);
        assert!(list.levels >= 10, "levels {}", list.levels);
    }

    #[test]
    fn workload_verifies() {
        let w = SkipList::new(5_000, 10_000, 1, SkipList::default_profile());
        assert!(w.drive(&mut SerialInvoker).is_passed());
    }

    #[test]
    fn single_invocation_of_all_lookups() {
        let w = SkipList::new(100, 300, 2, SkipList::default_profile());
        let (trace, v) = record_trace(&w);
        assert!(v.is_passed());
        assert_eq!(trace.sizes, vec![300]);
    }

    #[test]
    fn classifies_memory_bound_both_platforms() {
        let w = SkipList::new(16, 16, 3, SkipList::default_profile());
        for p in [Platform::haswell_desktop(), Platform::baytrail_tablet()] {
            assert!(w.traits_for(&p).l3_miss_ratio(p.memory.llc_bytes) > 0.33);
        }
    }

    #[test]
    fn tablet_gpu_advantage_is_modest() {
        let w = SkipList::new(16, 16, 3, SkipList::default_profile());
        let t = w.traits_for(&Platform::baytrail_tablet());
        let ratio = t.gpu_rate() / t.cpu_rate();
        assert!((1.0..2.0).contains(&ratio), "ratio {ratio}");
    }
}
