//! The global kernel table G (paper Fig 7, step 26) as a concurrently
//! readable, sharded structure — the *memory* layer of the scheduling
//! engine, and the only per-kernel memory the scheduler has.
//!
//! The paper stores one learned offload ratio per kernel in a global table
//! keyed by the kernel's CPU function pointer. A single `HashMap` behind a
//! lock would serialize every scheduling decision once several workload
//! streams share the table, so kernels are distributed over a fixed set of
//! shards, each behind its own `RwLock`. A shard holds everything G knows
//! about its kernels — the learned entries, each with the [`DriftCell`]
//! the self-healing loop folds into, and the warm-start priors of kernels
//! not learned yet — so no operation takes a table-wide lock, or two:
//!
//! * **Reuse-path reads** ([`lookup`](KernelTable::lookup),
//!   [`note_reuse`](KernelTable::note_reuse), the drift fold through
//!   [`drift`](KernelTable::drift)) take a *read* lock on one shard, and
//!   everything they flip (invocation counter, taint flag, drift cell) is
//!   an atomic — concurrent readers never contend on a global lock.
//! * **Writes** ([`accumulate`](KernelTable::accumulate),
//!   [`set_prior`](KernelTable::set_prior), [`insert`](KernelTable::insert))
//!   take a *write* lock on the owning shard, deciding and installing in
//!   one hold, so learning about one kernel never blocks lookups of
//!   kernels in other shards.
//!
//! Shard choice is a multiplicative hash of the kernel id over a
//! power-of-two constant, so selection is a mask, not a modulo. Inside a
//! shard, both maps hash with `KeyedMul`, a keyed multiply-fold in
//! place of SipHash-1-3: a table hit hashes its id twice (the probe and
//! the drift fold), and a kernel id is one word. The key is drawn per
//! table from [`RandomState`], so where an id lands in a shard is not
//! predictable from the ids.

use crate::eas::Accumulation;
use crate::selfheal::DriftCell;
use easched_runtime::KernelId;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher, RandomState};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Read-locks a shard, recovering from poisoning: a tenant that panicked
/// mid-operation must not take the shared table down for every other
/// stream of an `Arc<SharedEas>`. Entries are plain values (no invariants
/// spanning statements), so a poisoned shard's data is still coherent.
fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-locks a shard, recovering from poisoning (see [`read_lock`]).
fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// Shard count — comfortably above the core counts of the paper's
/// platforms (4-core Haswell, 4-core Bay Trail) and cheap enough that a
/// single-stream table wastes no measurable memory.
const SHARDS: usize = 16;

/// An entry of G: the learned ratio, its sample weight, how many times
/// the kernel has been invoked since first seen, and its runtime state.
#[derive(Debug)]
struct AlphaEntry {
    alpha: f64,
    weight: f64,
    /// Bumped on the reuse path under a shard *read* lock, hence atomic.
    invocations_seen: AtomicU64,
    /// Set when the entry was learned during a faulty invocation (see
    /// [`KernelTable::taint`]); flipped under a shard *read* lock, hence
    /// atomic. Cleared by the next clean accumulation.
    tainted: AtomicBool,
    /// Predicted-vs-realized drift state (DESIGN.md §11), folded under a
    /// shard *read* lock. Outlives accumulation and taint; not persisted.
    drift: DriftCell,
}

impl AlphaEntry {
    fn new(stat: AlphaStat, tainted: bool) -> AlphaEntry {
        AlphaEntry {
            alpha: stat.alpha,
            weight: stat.weight,
            invocations_seen: AtomicU64::new(stat.invocations_seen),
            tainted: AtomicBool::new(tainted),
            drift: DriftCell::default(),
        }
    }

    fn stat(&self) -> AlphaStat {
        AlphaStat {
            alpha: self.alpha,
            weight: self.weight,
            invocations_seen: self.invocations_seen.load(Ordering::Relaxed),
        }
    }
}

impl Clone for AlphaEntry {
    fn clone(&self) -> AlphaEntry {
        AlphaEntry {
            drift: self.drift.clone(),
            ..AlphaEntry::new(self.stat(), self.tainted.load(Ordering::Relaxed))
        }
    }
}

/// The shard maps' hasher: one 64×64→128-bit multiply of the id xor a
/// per-table key, folded to 64 bits (high half xor low half), so every
/// id bit reaches both the bucket index (low bits) and the control byte
/// (top bits). The key comes from [`RandomState`], never a constant.
#[derive(Debug, Clone, Copy)]
struct KeyedMul {
    key: u64,
}

/// An odd constant with no structure a kernel id could line up with
/// (the fractional digits of π).
const MUL: u64 = 0x243F_6A88_85A3_08D3;

impl KeyedMul {
    fn new() -> KeyedMul {
        KeyedMul {
            key: RandomState::new().build_hasher().finish(),
        }
    }
}

impl BuildHasher for KeyedMul {
    type Hasher = KeyedMulHasher;

    fn build_hasher(&self) -> KeyedMulHasher {
        KeyedMulHasher(self.key)
    }
}

/// One [`KeyedMul`] hash in progress: the state starts at the key, and
/// each word is folded in by one keyed multiply.
#[derive(Debug)]
struct KeyedMulHasher(u64);

impl Hasher for KeyedMulHasher {
    fn write_u64(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * u128::from(MUL);
        self.0 = (product as u64) ^ (product >> 64) as u64;
    }

    /// A kernel id hashes through `write_u64`; any other key is folded
    /// in eight bytes at a time.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Everything G holds for the kernels that hash to one shard, under the
/// shard's one lock.
#[derive(Debug, Clone)]
struct Shard {
    entries: HashMap<KernelId, AlphaEntry, KeyedMul>,
    /// Cross-platform warm-start hints (fleet replication, DESIGN.md
    /// §15): kernel id → α the same kernel learned on *another*
    /// platform. Never served as truth — `lookup`/`note_reuse` ignore
    /// this map entirely — a prior only narrows the α search window
    /// while this platform profiles the kernel itself. A kernel is in at
    /// most one of the two maps: a prior is refused once the kernel has
    /// an entry, and learning the entry erases it, in the same hold.
    priors: HashMap<KernelId, f64, KeyedMul>,
}

impl Shard {
    fn new(hasher: KeyedMul) -> Shard {
        Shard {
            entries: HashMap::with_hasher(hasher),
            priors: HashMap::with_hasher(hasher),
        }
    }
}

/// A point-in-time copy of one kernel's learned state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlphaStat {
    /// The learned offload ratio.
    pub alpha: f64,
    /// Total sample weight folded into `alpha`.
    pub weight: f64,
    /// Invocations observed since the kernel was first seen.
    pub invocations_seen: u64,
}

/// Outcome of a reuse-path probe ([`KernelTable::note_reuse`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReuseProbe {
    /// The learned offload ratio.
    pub alpha: f64,
    /// The kernel's invocation count *after* this probe's increment.
    pub invocations_seen: u64,
    /// Whether the entry was learned from suspect observations and should
    /// be re-profiled rather than reused.
    pub tainted: bool,
}

/// The global table G: kernel id → learned offload ratio, sharded for
/// concurrent access.
///
/// # Examples
///
/// ```
/// use easched_core::{Accumulation, KernelTable};
///
/// let table = KernelTable::new();
/// table.accumulate(7, 1.0, 100.0, Accumulation::SampleWeighted);
/// table.accumulate(7, 0.0, 100.0, Accumulation::SampleWeighted);
/// assert_eq!(table.lookup(7), Some(0.5));
/// assert_eq!(table.lookup(8), None);
/// ```
#[derive(Debug)]
pub struct KernelTable {
    shards: [RwLock<Shard>; SHARDS],
}

/// An empty table with a fresh key.
impl Default for KernelTable {
    fn default() -> KernelTable {
        let hasher = KeyedMul::new();
        KernelTable {
            shards: std::array::from_fn(|_| RwLock::new(Shard::new(hasher))),
        }
    }
}

impl Clone for KernelTable {
    fn clone(&self) -> KernelTable {
        KernelTable {
            shards: std::array::from_fn(|i| RwLock::new(read_lock(&self.shards[i]).clone())),
        }
    }
}

impl PartialEq for KernelTable {
    fn eq(&self, other: &KernelTable) -> bool {
        self.snapshot() == other.snapshot()
    }
}

impl KernelTable {
    /// An empty table.
    pub fn new() -> KernelTable {
        KernelTable::default()
    }

    fn shard(&self, kernel: KernelId) -> &RwLock<Shard> {
        // Fibonacci hashing spreads consecutive kernel ids across shards.
        let h = kernel.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        &self.shards[h as usize % SHARDS]
    }

    /// Reads a kernel's entry under its shard's read lock — the one lock
    /// a reuse-path operation takes; never blocks other shards.
    fn read<R>(&self, kernel: KernelId, f: impl FnOnce(&AlphaEntry) -> R) -> Option<R> {
        read_lock(self.shard(kernel)).entries.get(&kernel).map(f)
    }

    /// The learned offload ratio for a kernel, if any.
    pub fn lookup(&self, kernel: KernelId) -> Option<f64> {
        self.read(kernel, |e| e.alpha)
    }

    /// Full learned state for a kernel, if any.
    pub fn stat(&self, kernel: KernelId) -> Option<AlphaStat> {
        self.read(kernel, AlphaEntry::stat)
    }

    /// The reuse-path probe (Fig 7 steps 2–4): if the kernel is known,
    /// count this invocation and return the learned ratio. Read-locks one
    /// shard; the invocation counter is atomic, so concurrent streams
    /// reusing the same kernel proceed in parallel.
    pub fn note_reuse(&self, kernel: KernelId) -> Option<ReuseProbe> {
        self.probe(kernel).ok()
    }

    /// [`note_reuse`](KernelTable::note_reuse) whose miss answer carries
    /// the kernel's warm-start prior, if one is installed — everything
    /// the Figure 7 loop needs from G before it executes, in one hold.
    pub(crate) fn probe(&self, kernel: KernelId) -> Result<ReuseProbe, Option<f64>> {
        let shard = read_lock(self.shard(kernel));
        match shard.entries.get(&kernel) {
            Some(e) => Ok(ReuseProbe {
                alpha: e.alpha,
                invocations_seen: e.invocations_seen.fetch_add(1, Ordering::Relaxed) + 1,
                tainted: e.tainted.load(Ordering::Relaxed),
            }),
            None => Err(shard.priors.get(&kernel).copied()),
        }
    }

    /// Marks a kernel's entry as learned from suspect observations: the
    /// next reuse probe reports it tainted and the profile loop
    /// re-profiles instead of trusting the stored ratio. The next clean
    /// [`accumulate`](KernelTable::accumulate) clears the mark. No-op for
    /// unknown kernels. Takes only a shard *read* lock (the flag is
    /// atomic).
    pub fn taint(&self, kernel: KernelId) {
        self.read(kernel, |e| e.tainted.store(true, Ordering::Relaxed));
    }

    /// Whether a kernel's entry is currently marked suspect.
    pub fn is_tainted(&self, kernel: KernelId) -> bool {
        self.read(kernel, |e| e.tainted.load(Ordering::Relaxed)) == Some(true)
    }

    /// Hands `read` the kernel's [`DriftCell`] under the shard *read*
    /// lock; the cell is all atomics, so
    /// [`DriftMonitor::observe`](crate::DriftMonitor::observe) folds
    /// through it. `None` for a kernel with no entry: there is no learned
    /// ratio to have drifted.
    pub fn drift<R>(&self, kernel: KernelId, read: impl FnOnce(&DriftCell) -> R) -> Option<R> {
        self.read(kernel, |e| read(&e.drift))
    }

    /// Every kernel whose drift cell has folded a sample, with its EWMA,
    /// sorted by kernel id: what `/metrics` renders
    /// ([`expose_drift`](crate::expose_drift)), read at scrape time.
    pub fn drifts(&self) -> Vec<(KernelId, f64)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let shard = read_lock(shard);
            let entries = shard.entries.iter();
            out.extend(entries.filter_map(|(&k, e)| Some((k, e.drift.ewma()?))));
        }
        out.sort_unstable_by_key(|&(k, _)| k);
        out
    }

    /// Installs a cross-platform warm-start prior for a kernel the fleet
    /// has seen elsewhere (DESIGN.md §15), and says whether it did. The
    /// prior is a *hint*, never truth: it does not create a table entry,
    /// never skips profiling, and only narrows the α window the
    /// [`DecisionEngine`](crate::DecisionEngine) searches while this
    /// platform profiles the kernel for itself. Refused once the kernel
    /// has locally learned state — a foreign ratio must not displace a
    /// measured one — and while an earlier prior stands, both decided
    /// under the write lock that installs. `alpha` is clamped to [0, 1];
    /// non-finite values are refused (a chaos-corrupted replica entry
    /// must not steer search).
    pub fn set_prior(&self, kernel: KernelId, alpha: f64) -> bool {
        if !alpha.is_finite() {
            return false;
        }
        let mut shard = write_lock(self.shard(kernel));
        if shard.entries.contains_key(&kernel) || shard.priors.contains_key(&kernel) {
            return false;
        }
        shard.priors.insert(kernel, alpha.clamp(0.0, 1.0));
        true
    }

    /// The warm-start prior for a kernel, if one is installed and the
    /// kernel has no locally learned state yet.
    pub fn prior(&self, kernel: KernelId) -> Option<f64> {
        read_lock(self.shard(kernel)).priors.get(&kernel).copied()
    }

    /// Drops a kernel's warm-start prior (e.g. when the fleet replicates
    /// a taint for the entry it came from — a suspect ratio must not
    /// seed anyone's search window).
    pub fn clear_prior(&self, kernel: KernelId) {
        write_lock(self.shard(kernel)).priors.remove(&kernel);
    }

    /// Number of installed warm-start priors.
    pub fn prior_count(&self) -> usize {
        self.shards.iter().map(|s| read_lock(s).priors.len()).sum()
    }

    /// Folds a newly computed α into the table (Fig 7 step 26) and
    /// returns the entry's state after the fold. Write-locks the owning
    /// shard only, once: local learning supersedes any cross-platform
    /// warm-start prior for the kernel, erased in the same hold.
    pub fn accumulate(
        &self,
        kernel: KernelId,
        alpha: f64,
        weight: f64,
        mode: Accumulation,
    ) -> AlphaStat {
        let mut guard = write_lock(self.shard(kernel));
        let shard = &mut *guard;
        shard.priors.remove(&kernel);
        let fresh = AlphaStat {
            alpha,
            weight: 0.0,
            invocations_seen: 0,
        };
        let entry = shard
            .entries
            .entry(kernel)
            .or_insert_with(|| AlphaEntry::new(fresh, false));
        // Fresh learning supersedes suspicion from earlier faulty rounds.
        entry.tainted.store(false, Ordering::Relaxed);
        match mode {
            Accumulation::SampleWeighted => {
                let total = entry.weight + weight;
                if total > 0.0 {
                    entry.alpha = (entry.alpha * entry.weight + alpha * weight) / total;
                    entry.weight = total;
                }
            }
            Accumulation::LastValue => {
                entry.alpha = alpha;
                entry.weight = weight;
            }
        }
        entry.stat()
    }

    /// Installs a kernel's learned state verbatim, untainted (used when
    /// loading a persisted table).
    pub fn insert(&self, kernel: KernelId, stat: AlphaStat) {
        self.restore(kernel, stat, false);
    }

    /// Installs a kernel's recovered state — learned state and quarantine
    /// flag — in one hold: the one routine under snapshot load, journal
    /// replay and the unread-journal merge. The record starts over: a
    /// fresh drift cell, and no prior beside the entry.
    pub(crate) fn restore(&self, kernel: KernelId, stat: AlphaStat, tainted: bool) {
        let mut shard = write_lock(self.shard(kernel));
        shard.priors.remove(&kernel);
        shard.entries.insert(kernel, AlphaEntry::new(stat, tainted));
    }

    /// Number of kernels with learned state.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| read_lock(s).entries.len()).sum()
    }

    /// Whether no kernel has learned state yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A consistent-per-shard copy of the whole table, sorted by kernel id
    /// (deterministic — used by persistence and diagnostics).
    pub fn snapshot(&self) -> Vec<(KernelId, AlphaStat)> {
        let with_taint = self.snapshot_with_taint();
        with_taint.into_iter().map(|(k, s, _)| (k, s)).collect()
    }

    /// Like [`snapshot`](KernelTable::snapshot) but carrying each entry's
    /// taint flag — used by crash-safe persistence, which must restore
    /// quarantine state after recovery (suspicion is runtime state, so the
    /// plain snapshot deliberately omits it).
    pub fn snapshot_with_taint(&self) -> Vec<(KernelId, AlphaStat, bool)> {
        let mut out: Vec<(KernelId, AlphaStat, bool)> = Vec::with_capacity(self.len());
        for shard in self.shards.iter() {
            let shard = read_lock(shard);
            let entries = shard.entries.iter();
            out.extend(entries.map(|(&k, e)| (k, e.stat(), e.tainted.load(Ordering::Relaxed))));
        }
        out.sort_unstable_by_key(|&(k, _, _)| k);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_table_has_no_entries() {
        let t = KernelTable::new();
        assert!(t.is_empty());
        assert_eq!(t.lookup(1), None);
        assert_eq!(t.note_reuse(1), None);
        assert_eq!(t.stat(1), None);
    }

    #[test]
    fn sample_weighted_accumulation_matches_paper() {
        let t = KernelTable::new();
        t.accumulate(5, 1.0, 100.0, Accumulation::SampleWeighted);
        t.accumulate(5, 0.0, 100.0, Accumulation::SampleWeighted);
        assert!((t.lookup(5).unwrap() - 0.5).abs() < 1e-9);
        let s = t.stat(5).unwrap();
        assert_eq!(s.weight, 200.0);
    }

    #[test]
    fn last_value_mode_overwrites() {
        let t = KernelTable::new();
        t.accumulate(5, 0.2, 10.0, Accumulation::LastValue);
        t.accumulate(5, 0.9, 1.0, Accumulation::LastValue);
        assert_eq!(t.lookup(5), Some(0.9));
        assert_eq!(t.stat(5).unwrap().weight, 1.0);
    }

    #[test]
    fn note_reuse_counts_invocations() {
        let t = KernelTable::new();
        t.accumulate(3, 0.4, 50.0, Accumulation::SampleWeighted);
        assert_eq!(t.note_reuse(3).unwrap().invocations_seen, 1);
        assert_eq!(t.note_reuse(3).unwrap().invocations_seen, 2);
        assert_eq!(t.stat(3).unwrap().invocations_seen, 2);
    }

    #[test]
    fn snapshot_is_sorted_and_complete() {
        let t = KernelTable::new();
        for k in [9u64, 2, 700, 44] {
            t.accumulate(k, 0.5, 1.0, Accumulation::SampleWeighted);
        }
        let snap = t.snapshot();
        let keys: Vec<u64> = snap.iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, vec![2, 9, 44, 700]);
        assert_eq!(t.len(), 4);
    }

    #[test]
    fn clone_is_deep() {
        let t = KernelTable::new();
        t.accumulate(1, 0.5, 10.0, Accumulation::SampleWeighted);
        let c = t.clone();
        t.accumulate(1, 1.0, 1e6, Accumulation::SampleWeighted);
        assert_eq!(c.lookup(1), Some(0.5));
        assert_eq!(c, c.clone());
        assert_ne!(c.snapshot(), t.snapshot());
    }

    #[test]
    fn consecutive_kernel_ids_spread_over_every_shard() {
        let t = KernelTable::new();
        for k in 0..SHARDS as u64 * 8 {
            t.accumulate(k, 0.5, 1.0, Accumulation::SampleWeighted);
        }
        for shard in &t.shards {
            assert!(!read_lock(shard).entries.is_empty());
        }
    }

    #[test]
    fn each_table_draws_its_own_key_and_its_shards_share_it() {
        let key = |t: &KernelTable, shard: usize| {
            let shard = read_lock(&t.shards[shard]);
            (shard.entries.hasher().key, shard.priors.hasher().key)
        };
        let (a, b) = (KernelTable::new(), KernelTable::new());
        assert_ne!(key(&a, 0), key(&b, 0), "two tables, two keys");
        for shard in 0..SHARDS {
            assert_eq!(key(&a, shard), key(&a, 0));
            let (entries, priors) = key(&a, shard);
            assert_eq!(entries, priors);
        }
        assert_eq!(key(&a.clone(), 3), key(&a, 0), "a clone is a copy");
    }

    #[test]
    fn ids_differing_only_in_high_bits_or_aligned_round_trip() {
        use crate::selfheal::{DriftMonitor, DriftPolicy};
        let monitor = DriftMonitor::new(DriftPolicy {
            ewma_weight: 1.0,
            ..DriftPolicy::default()
        });
        for shift in [32, 4] {
            let t = KernelTable::new();
            let ids: Vec<KernelId> = (1..=512u64).map(|i| i << shift).collect();
            for (n, &k) in ids.iter().enumerate() {
                let alpha = (n % 11) as f64 / 10.0;
                assert_eq!(
                    t.accumulate(k, alpha, 1.0, Accumulation::LastValue).alpha,
                    alpha
                );
                assert!(
                    t.set_prior(k + 1, alpha),
                    "a neighbour's prior, id {}",
                    k + 1
                );
            }
            assert_eq!(t.len(), ids.len());
            assert_eq!(t.prior_count(), ids.len());
            for (n, &k) in ids.iter().enumerate() {
                let alpha = (n % 11) as f64 / 10.0;
                let probe = t.probe(k).expect("learned");
                assert_eq!((probe.alpha, probe.invocations_seen), (alpha, 1));
                assert_eq!(t.probe(k + 1), Err(Some(alpha)));
                t.drift(k, |cell| monitor.observe(cell, Some(1.0 + alpha), 1.0, 1))
                    .expect("learned ids have a drift cell");
            }
            let drifts = t.drifts();
            assert_eq!(drifts.len(), ids.len());
            for ((k, ewma), (n, &id)) in drifts.into_iter().zip(ids.iter().enumerate()) {
                assert_eq!(k, id);
                assert!((ewma - (n % 11) as f64 / 10.0).abs() < 1e-12, "id {id:#x}");
            }
            let snap = t.snapshot();
            assert_eq!(snap.iter().map(|&(k, _)| k).collect::<Vec<_>>(), ids);
            for ((_, stat), n) in snap.iter().zip(0..) {
                assert_eq!(stat.alpha, (n % 11) as f64 / 10.0);
                assert_eq!(stat.invocations_seen, 1);
            }
        }
    }

    #[test]
    fn taint_flags_entries_until_next_accumulation() {
        let t = KernelTable::new();
        // Tainting an unknown kernel is a no-op.
        t.taint(9);
        assert!(!t.is_tainted(9));

        t.accumulate(9, 0.5, 10.0, Accumulation::SampleWeighted);
        assert!(!t.is_tainted(9));
        t.taint(9);
        assert!(t.is_tainted(9));
        assert!(t.note_reuse(9).unwrap().tainted);

        // A fresh (clean) accumulation rehabilitates the entry.
        t.accumulate(9, 0.6, 10.0, Accumulation::SampleWeighted);
        assert!(!t.is_tainted(9));
        assert!(!t.note_reuse(9).unwrap().tainted);
    }

    #[test]
    fn taint_survives_clone_but_not_snapshot_roundtrip() {
        let t = KernelTable::new();
        t.accumulate(2, 0.3, 5.0, Accumulation::SampleWeighted);
        t.taint(2);
        assert!(t.clone().is_tainted(2));
        // insert() (the persistence load path) starts entries untainted:
        // suspicion is runtime state, not learned state.
        let loaded = KernelTable::new();
        for (k, stat) in t.snapshot() {
            loaded.insert(k, stat);
        }
        assert!(!loaded.is_tainted(2));
    }

    #[test]
    fn snapshot_with_taint_carries_the_flag() {
        let t = KernelTable::new();
        t.accumulate(2, 0.3, 5.0, Accumulation::SampleWeighted);
        t.accumulate(9, 0.7, 5.0, Accumulation::SampleWeighted);
        t.taint(9);
        let snap = t.snapshot_with_taint();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].0, 2);
        assert!(!snap[0].2);
        assert_eq!(snap[1].0, 9);
        assert!(snap[1].2);
        assert_eq!(snap[1].1, t.stat(9).unwrap());
    }

    #[test]
    fn priors_are_hints_not_truth() {
        let t = KernelTable::new();
        assert!(t.set_prior(4, 0.8));
        assert_eq!(t.prior(4), Some(0.8));
        assert_eq!(t.prior_count(), 1);
        // The first hint stands until it is cleared or superseded.
        assert!(!t.set_prior(4, 0.2));
        assert_eq!(t.prior(4), Some(0.8));
        // The loop's probe reads it off the miss.
        assert_eq!(t.probe(4), Err(Some(0.8)));
        assert_eq!(t.probe(5), Err(None));
        // A prior is invisible to the reuse and lookup paths.
        assert_eq!(t.lookup(4), None);
        assert_eq!(t.note_reuse(4), None);
        assert!(t.is_empty());
        // Out-of-range priors clamp; corrupt ones are refused.
        t.set_prior(5, 1.5);
        assert_eq!(t.prior(5), Some(1.0));
        assert!(!t.set_prior(6, f64::NAN));
        assert_eq!(t.prior(6), None);
    }

    #[test]
    fn local_learning_supersedes_priors() {
        let t = KernelTable::new();
        t.set_prior(4, 0.8);
        t.accumulate(4, 0.3, 10.0, Accumulation::SampleWeighted);
        assert_eq!(t.prior(4), None, "accumulate erases the prior");
        // And a learned kernel refuses new priors outright.
        assert!(!t.set_prior(4, 0.9));
        assert_eq!(t.prior(4), None);
        assert_eq!(t.lookup(4), Some(0.3));
        // clear_prior drops an installed hint (taint replication path).
        t.set_prior(7, 0.6);
        t.clear_prior(7);
        assert_eq!(t.prior(7), None);
    }

    #[test]
    fn restore_installs_entry_and_flag_and_starts_the_record_over() {
        let t = KernelTable::new();
        t.set_prior(2, 0.9);
        let stat = AlphaStat {
            alpha: 0.3,
            weight: 5.0,
            invocations_seen: 4,
        };
        t.restore(2, stat, true);
        assert_eq!(t.stat(2), Some(stat));
        assert!(t.is_tainted(2));
        assert_eq!(t.prior(2), None, "no prior beside a learned entry");
        assert_eq!(t.drift(2, DriftCell::ewma), Some(None));
        assert_eq!(t.drift(3, DriftCell::ewma), None, "no entry, no cell");
    }

    #[test]
    fn drifts_read_the_latest_ewma_per_kernel() {
        use crate::selfheal::{expose_drift, DriftMonitor, DriftPolicy};
        let t = KernelTable::new();
        for k in [7, 2, 9] {
            t.accumulate(k, 0.5, 1.0, Accumulation::SampleWeighted);
        }
        assert!(t.drifts().is_empty(), "no cell has folded a sample");
        assert_eq!(expose_drift(&t.drifts()), "", "no family before a fold");
        // The EWMA is the latest sample: |predicted − 1| / 1.
        let monitor = DriftMonitor::new(DriftPolicy {
            ewma_weight: 1.0,
            ..DriftPolicy::default()
        });
        for (kernel, predicted) in [(7, 1.5), (7, 1.25), (2, 1.125), (7, 3.0)] {
            t.drift(kernel, |cell| {
                monitor.observe(cell, Some(predicted), 1.0, 1)
            });
        }
        // Last value wins; kernel 9 never folded, so it has no sample.
        assert_eq!(t.drifts(), vec![(2, 0.125), (7, 2.0)]);
        assert_eq!(
            expose_drift(&t.drifts()),
            "# HELP easched_kernel_drift_ewma Latest per-kernel EDP drift EWMA from the \
             control loop\n# TYPE easched_kernel_drift_ewma gauge\n\
             easched_kernel_drift_ewma{kernel=\"2\"} 1.25e-1\n\
             easched_kernel_drift_ewma{kernel=\"7\"} 2e0\n"
        );
    }

    #[test]
    fn priors_survive_clone() {
        let t = KernelTable::new();
        t.set_prior(3, 0.4);
        let c = t.clone();
        assert_eq!(c.prior(3), Some(0.4));
        t.clear_prior(3);
        assert_eq!(c.prior(3), Some(0.4), "clone is deep");
    }

    #[test]
    fn thread_panicking_mid_write_leaves_table_usable() {
        let t = KernelTable::new();
        t.accumulate(1, 0.5, 10.0, Accumulation::SampleWeighted);

        // A tenant dies while holding every shard's write lock, poisoning
        // them all.
        let result = std::thread::scope(|s| {
            s.spawn(|| {
                let _guards: Vec<_> = t.shards.iter().map(|s| s.write().unwrap()).collect();
                panic!("tenant dies mid-write");
            })
            .join()
        });
        assert!(result.is_err(), "the tenant must have panicked");
        assert!(
            t.shards.iter().all(RwLock::is_poisoned),
            "every shard must be poisoned"
        );

        // Every operation still works for the surviving streams.
        assert_eq!(t.lookup(1), Some(0.5));
        assert_eq!(t.note_reuse(1).unwrap().alpha, 0.5);
        t.accumulate(1, 0.5, 10.0, Accumulation::SampleWeighted);
        assert_eq!(t.stat(1).unwrap().weight, 20.0);
        t.taint(1);
        assert!(t.is_tainted(1));
        t.insert(
            7,
            AlphaStat {
                alpha: 0.25,
                weight: 1.0,
                invocations_seen: 0,
            },
        );
        assert_eq!(t.len(), 2);
        assert_eq!(t.clone().lookup(7), Some(0.25));
        assert_eq!(t.snapshot().len(), 2);
        assert!(t.set_prior(8, 0.5));
        assert_eq!(t.prior(8), Some(0.5));
        t.clear_prior(8);
        assert_eq!(t.prior_count(), 0);
        t.drift(1, |cell| assert_eq!(cell.ewma(), None)).unwrap();
    }

    #[test]
    fn concurrent_accumulation_loses_no_weight() {
        let t = KernelTable::new();
        let threads = 8;
        let per_thread = 1000;
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for _ in 0..per_thread {
                        t.accumulate(42, 0.5, 1.0, Accumulation::SampleWeighted);
                    }
                });
            }
        });
        let stat = t.stat(42).unwrap();
        assert_eq!(stat.weight, (threads * per_thread) as f64);
        assert!((stat.alpha - 0.5).abs() < 1e-12);
    }
}
