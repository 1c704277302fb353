//! The randomness seam: one root seed from which every stochastic input
//! of a run is derived.
//!
//! Before this module, the seeds steering a run were scattered: chaos
//! plans carried their own literals, sim backends were seeded per
//! invocation, workload generators baked constants into the suite. That
//! made a run reproducible only if every call site was tracked by hand.
//! [`RunSeed`] centralizes them: construct one per run, derive every
//! domain-specific seed from it by *name*, and recording the single root
//! (plus the derivation names, which are code, not data) pins the entire
//! stochastic behavior of the run. The record/replay layer
//! (`easched-replay`) writes the root and each derivation into the
//! `RunLog`, so a replayed run can re-derive — and verify — the exact
//! streams the recorded run used.
//!
//! Derivation is pure: FNV-1a over the domain name, mixed with the root
//! through [`splitmix64`] (the same finalizer the chaos injector uses
//! for its counter-based fault stream). Same root + same
//! name → same seed, on every platform, in every ordering.

use easched_runtime::fnv1a64;
use easched_sim::splitmix64;

/// The default root for runs that never chose one explicitly. A fixed,
/// arbitrary constant — *not* entropy — so even "unseeded" runs are
/// reproducible.
pub(crate) const DEFAULT_ROOT: u64 = 0x0EA5_C4ED_0C60_2016;

/// A run's root seed: the single value from which chaos plans, sim
/// backends, and workload generation derive their randomness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunSeed {
    root: u64,
}

impl Default for RunSeed {
    fn default() -> RunSeed {
        RunSeed::new(DEFAULT_ROOT)
    }
}

impl RunSeed {
    /// A run seed with the given recorded root.
    pub fn new(root: u64) -> RunSeed {
        RunSeed { root }
    }

    /// The root value (what a `RunLog` records).
    pub fn root(self) -> u64 {
        self.root
    }

    /// Derives the seed for a named domain, e.g. `"chaos"` or
    /// `"workload/BS"`. Deterministic in `(root, domain)` and
    /// order-independent: deriving domains in any order yields the same
    /// values.
    pub fn derive(self, domain: &str) -> u64 {
        splitmix64(self.root ^ fnv1a64(domain.as_bytes()))
    }

    /// Derives the `index`-th seed of a named domain (for per-invocation
    /// or per-stream streams within one domain).
    pub fn derive_indexed(self, domain: &str, index: u64) -> u64 {
        splitmix64(self.derive(domain) ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivations_are_deterministic_and_domain_separated() {
        let s = RunSeed::new(7);
        assert_eq!(s.derive("chaos"), RunSeed::new(7).derive("chaos"));
        assert_ne!(s.derive("chaos"), s.derive("workload/BS"));
        assert_ne!(s.derive("chaos"), RunSeed::new(8).derive("chaos"));
        // The derivation itself is pinned: a run log records only the root.
        assert_eq!(s.derive("chaos"), 0xe201_9335_6abf_dcef);
        assert_eq!(s.derive_indexed("stream", 3), 0xb917_4ef3_7706_7fcb);
    }

    #[test]
    fn indexed_derivations_form_distinct_streams() {
        let s = RunSeed::new(1009);
        let a: Vec<u64> = (0..8).map(|i| s.derive_indexed("stream", i)).collect();
        let mut uniq = a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), a.len(), "collisions in {a:?}");
        assert_eq!(a[3], s.derive_indexed("stream", 3));
        // Index 0 is still mixed, not the bare domain seed.
        assert_ne!(a[0], s.derive("stream"));
    }

    #[test]
    fn default_root_is_fixed() {
        assert_eq!(RunSeed::default().root(), DEFAULT_ROOT);
        assert_eq!(
            RunSeed::default().derive("chaos"),
            RunSeed::new(DEFAULT_ROOT).derive("chaos")
        );
    }
}
