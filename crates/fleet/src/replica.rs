//! The convergent replica: every node's view of the whole fleet's tables.
//!
//! Keyed by `(platform, kernel)`, each fact keeps the max-version `Put`
//! and the max-version `Taint` *separately* (DESIGN.md §15). The
//! effective state overlays them: a taint newer than the newest put wins
//! (the entry is quarantined until its owner republishes), otherwise the
//! put's own taint flag stands. Because both sides are pure max-merges,
//! apply order cannot matter — `Put(v₁)` then `Taint(v₂)` and the reverse
//! land in the same state — which is the whole convergence argument.
//!
//! The [`digest`](ReplicaTable::digest) serializes *effective* state
//! only, never version metadata: after a crash/restart some nodes hold a
//! superseded old-generation fact that others never saw, and that
//! asymmetry is invisible exactly because versions stay out of the hash.
//! The digest is computed once per change: an apply that advances a fact clears
//! it, and the next read rebuilds it.

use crate::frame::{Envelope, NodeId, Op, Version};
use easched_runtime::{fnv1a64, LineWriter};
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// The max-version `Put` body for one `(platform, kernel)`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PutFact {
    version: Version,
    alpha: f64,
    weight: f64,
    seen: u64,
    tainted: bool,
}

/// One `(platform, kernel)` fact: independent put and taint maxima.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Fact {
    put: Option<PutFact>,
    taint: Option<Version>,
}

/// The effective (version-free) state of one replicated entry.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct EffectiveEntry<'a> {
    /// Platform namespace the entry is truth in.
    pub(crate) platform: &'a str,
    /// Kernel id.
    pub(crate) kernel: u64,
    /// Learned offload ratio (absent for a taint with no surviving put).
    pub(crate) alpha: Option<f64>,
    /// Accumulated sample weight.
    pub(crate) weight: f64,
    /// Invocations the origin had observed.
    pub(crate) seen: u64,
    /// Whether the entry is currently quarantined fleet-wide.
    pub(crate) tainted: bool,
    /// The node whose put currently defines the entry (the max-version
    /// origin; the taint origin if no put survives).
    pub(crate) origin: NodeId,
}

/// What applying one envelope did to the replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applied {
    /// The fact advanced (fresh maximum).
    Advanced {
        /// An older fact from a *different* origin was superseded —
        /// a genuine cross-node conflict resolved by version order.
        conflict: bool,
    },
    /// The envelope was at or below the stored maximum — idempotent no-op.
    Stale,
}

/// A node's replica of the fleet's learned state.
#[derive(Debug, Clone, Default)]
pub struct ReplicaTable {
    /// Facts by platform, then kernel: the `(platform, kernel)` order,
    /// with a platform found by `&str`.
    facts: BTreeMap<String, BTreeMap<u64, Fact>>,
    /// [`digest`](ReplicaTable::digest), until a fact advances. A
    /// `OnceLock`, not a `Cell`, so a node stays `Sync`.
    digest: OnceLock<u64>,
}

impl ReplicaTable {
    /// An empty replica.
    pub fn new() -> ReplicaTable {
        ReplicaTable::default()
    }

    /// Merges one envelope. Pure max-merge per fact side: idempotent,
    /// commutative, monotone.
    pub fn apply(&mut self, env: &Envelope) -> Applied {
        self.merge(env.version(), &env.platform, env.op)
    }

    /// [`apply`](ReplicaTable::apply) of the envelope `version` names,
    /// from its borrowed parts: the platform's key is allocated only the
    /// first time the platform is seen.
    pub(crate) fn merge(&mut self, version: Version, platform: &str, op: Op) -> Applied {
        let kernels = match self.facts.get_mut(platform) {
            Some(kernels) => kernels,
            None => self.facts.entry(platform.to_string()).or_default(),
        };
        let fact = kernels.entry(op.kernel()).or_default();
        let conflict = match op {
            Op::Put {
                alpha,
                weight,
                seen,
                tainted,
                ..
            } => {
                let current = fact.put.map(|p| p.version);
                if current.is_some_and(|v| v >= version) {
                    return Applied::Stale;
                }
                let conflict = fact.put.is_some_and(|p| p.version.origin != version.origin);
                fact.put = Some(PutFact {
                    version,
                    alpha,
                    weight,
                    seen,
                    tainted,
                });
                conflict
            }
            Op::Taint { .. } => {
                if fact.taint.is_some_and(|v| v >= version) {
                    return Applied::Stale;
                }
                let conflict = fact.taint.is_some_and(|v| v.origin != version.origin);
                fact.taint = Some(version);
                conflict
            }
        };
        self.digest.take();
        Applied::Advanced { conflict }
    }

    /// The effective entries, sorted by `(platform, kernel)`.
    pub(crate) fn effective(&self) -> impl Iterator<Item = EffectiveEntry<'_>> {
        self.facts
            .iter()
            .flat_map(|(platform, kernels)| {
                let facts = kernels.iter();
                facts.map(move |(kernel, fact)| (platform, kernel, fact))
            })
            .map(|(platform, kernel, fact)| {
                let taint_wins = match (&fact.put, &fact.taint) {
                    (Some(p), Some(t)) => *t > p.version,
                    (None, Some(_)) => true,
                    _ => false,
                };
                match &fact.put {
                    Some(p) => EffectiveEntry {
                        platform,
                        kernel: *kernel,
                        alpha: Some(p.alpha),
                        weight: p.weight,
                        seen: p.seen,
                        tainted: taint_wins || p.tainted,
                        origin: if taint_wins {
                            fact.taint.expect("taint_wins implies taint").origin
                        } else {
                            p.version.origin
                        },
                    },
                    None => EffectiveEntry {
                        platform,
                        kernel: *kernel,
                        alpha: None,
                        weight: 0.0,
                        seen: 0,
                        tainted: true,
                        origin: fact.taint.expect("no put implies taint").origin,
                    },
                }
            })
    }

    /// The effective entry for one `(platform, kernel)`, if any.
    #[cfg(test)]
    pub(crate) fn entry(&self, platform: &str, kernel: u64) -> Option<EffectiveEntry<'_>> {
        self.effective()
            .find(|e| e.platform == platform && e.kernel == kernel)
    }

    /// Number of `(platform, kernel)` facts held.
    pub(crate) fn len(&self) -> usize {
        self.facts.values().map(BTreeMap::len).sum()
    }

    /// Canonical text of the effective state — byte-identical across
    /// converged replicas, whatever order and duplication the envelopes
    /// arrived with. Version metadata is deliberately excluded (see the
    /// module docs).
    pub fn digest_text(&self) -> String {
        let mut out = String::new();
        for e in self.effective() {
            LineWriter::begin(&mut out, e.platform)
                .hex16(e.kernel)
                .hex16(e.alpha.map_or(u64::MAX, f64::to_bits))
                .bits(e.weight)
                .dec(e.seen)
                .dec(u64::from(e.tainted))
                .end();
        }
        out
    }

    /// FNV-1a of [`digest_text`](ReplicaTable::digest_text) — the
    /// convergence checker's comparison unit — built on the first read
    /// after a change.
    pub fn digest(&self) -> u64 {
        *self
            .digest
            .get_or_init(|| fnv1a64(self.digest_text().as_bytes()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(origin: NodeId, generation: u64, seq: u64, kernel: u64, alpha: f64) -> Envelope {
        Envelope {
            origin,
            platform: "haswell-desktop".into(),
            generation,
            seq,
            op: Op::Put {
                kernel,
                alpha,
                weight: 10.0,
                seen: 1,
                tainted: false,
            },
        }
    }

    fn taint(origin: NodeId, generation: u64, seq: u64, kernel: u64) -> Envelope {
        Envelope {
            origin,
            platform: "haswell-desktop".into(),
            generation,
            seq,
            op: Op::Taint { kernel },
        }
    }

    #[test]
    fn apply_is_idempotent() {
        let mut r = ReplicaTable::new();
        let e = put(0, 1, 1, 7, 0.5);
        assert_eq!(r.apply(&e), Applied::Advanced { conflict: false });
        assert_eq!(r.apply(&e), Applied::Stale);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn put_and_taint_commute() {
        let p = put(0, 1, 1, 7, 0.5);
        let t = taint(1, 1, 1, 7); // newer: same (gen, seq), origin 1 > 0
        let mut ab = ReplicaTable::new();
        ab.apply(&p);
        ab.apply(&t);
        let mut ba = ReplicaTable::new();
        ba.apply(&t);
        ba.apply(&p);
        assert_eq!(ab.digest_text(), ba.digest_text());
        assert!(ab.entry("haswell-desktop", 7).unwrap().tainted);
    }

    #[test]
    fn newer_put_clears_an_older_taint() {
        let mut r = ReplicaTable::new();
        r.apply(&taint(0, 1, 1, 7));
        assert!(r.entry("haswell-desktop", 7).unwrap().tainted);
        r.apply(&put(0, 1, 2, 7, 0.4));
        let e = r.entry("haswell-desktop", 7).unwrap();
        assert!(!e.tainted, "republish after the taint reinstates the entry");
        assert_eq!(e.alpha, Some(0.4));
    }

    #[test]
    fn conflicts_resolve_by_version_order_everywhere() {
        // Two origins race on the same platform+kernel; every replica must
        // pick the same winner whatever the arrival order.
        let a = put(0, 2, 3, 7, 0.3);
        let b = put(1, 2, 3, 7, 0.8); // same (gen, seq): origin breaks the tie
        let mut r1 = ReplicaTable::new();
        r1.apply(&a);
        assert_eq!(r1.apply(&b), Applied::Advanced { conflict: true });
        let mut r2 = ReplicaTable::new();
        r2.apply(&b);
        assert_eq!(r2.apply(&a), Applied::Stale);
        assert_eq!(r1.digest(), r2.digest());
        assert_eq!(r1.entry("haswell-desktop", 7).unwrap().alpha, Some(0.8));
    }

    #[test]
    fn digest_ignores_superseded_generations() {
        // Node A saw gen-1 facts then the gen-2 republish; node B only ever
        // saw gen 2 (it joined after the crash). Same digest.
        let mut a = ReplicaTable::new();
        a.apply(&put(0, 1, 1, 7, 0.5));
        a.apply(&put(0, 2, 1, 7, 0.5));
        let mut b = ReplicaTable::new();
        b.apply(&put(0, 2, 1, 7, 0.5));
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn the_cached_digest_follows_every_advance() {
        let mut r = ReplicaTable::new();
        let text_digest = |r: &ReplicaTable| fnv1a64(r.digest_text().as_bytes());
        r.apply(&put(0, 1, 1, 7, 0.5));
        let first = r.digest();
        assert_eq!(first, text_digest(&r));
        for env in [
            put(0, 1, 2, 7, 0.6),
            taint(1, 1, 3, 7),
            put(2, 1, 1, 8, 0.1),
        ] {
            let before = r.digest();
            assert!(matches!(r.apply(&env), Applied::Advanced { .. }));
            assert_ne!(r.digest(), before, "{env:?}");
            assert_eq!(r.digest(), text_digest(&r));
            assert_eq!(r.apply(&env), Applied::Stale);
            assert_eq!(r.digest(), text_digest(&r));
        }
        assert_ne!(r.digest(), first);
    }

    #[test]
    fn platforms_are_separate_namespaces() {
        let mut r = ReplicaTable::new();
        r.apply(&put(0, 1, 1, 7, 0.5));
        let mut tablet = put(1, 1, 1, 7, 0.9);
        tablet.platform = "baytrail-tablet".into();
        r.apply(&tablet);
        assert_eq!(r.len(), 2, "no cross-platform overwrite, ever");
        assert_eq!(r.entry("haswell-desktop", 7).unwrap().alpha, Some(0.5));
        assert_eq!(r.entry("baytrail-tablet", 7).unwrap().alpha, Some(0.9));
    }
}
