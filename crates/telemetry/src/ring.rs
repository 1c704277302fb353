//! A lock-free, bounded, overwrite-on-wrap ring of fixed-width records.
//!
//! Writers claim a global sequence number with one `fetch_add`, map it to
//! a slot, and publish through a per-slot *version word* driven like a
//! seqlock. The version for claim `c` is `2c + 1` while writing and
//! `2c + 2` once stable; `0` means never written. A writer takes
//! ownership of its slot with a single CAS from whatever *even* (stable)
//! version the slot holds to its own odd tag, stores the payload words,
//! and publishes with a release store of the even tag. Because the words
//! are only ever touched between a successful even→odd CAS and the
//! odd→even publish, exactly one writer can be inside a slot at a time —
//! a stalled writer can never tear a record that a newer lap has already
//! published. If the CAS loses (another lap's writer is mid-flight or got
//! there first), the record is *dropped*: for always-on telemetry,
//! dropping one event under same-slot wrap contention beats blocking the
//! scheduler. Readers are purely optimistic — read version, read words,
//! re-read version — and skip the slot if a writer was in flight.
//! Memory is bounded by construction: once full, the ring overwrites its
//! oldest records.
//!
//! [`push`](AtomicRing::push) is `claim` then `write`; a caller that
//! splits them can act in between. [`RingSink`](crate::RingSink) does:
//! before it writes, it makes sure the record a lap behind has been
//! folded into its metrics (reading it through `published`), so its
//! writes never drop. The span sink pushes, and stays lock-free.

use std::sync::atomic::{fence, AtomicU64, Ordering};

/// One slot: a version word plus the payload.
#[derive(Debug)]
struct Slot<const WORDS: usize> {
    version: AtomicU64,
    words: [AtomicU64; WORDS],
}

impl<const WORDS: usize> Slot<WORDS> {
    fn new() -> Slot<WORDS> {
        Slot {
            version: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Lock-free bounded ring of `[u64; WORDS]` records (see [module
/// docs](self)).
#[derive(Debug)]
pub(crate) struct AtomicRing<const WORDS: usize> {
    slots: Vec<Slot<WORDS>>,
    mask: u64,
    next: AtomicU64,
    dropped: AtomicU64,
}

/// Retries before a reader gives up on a slot a writer keeps touching.
const READ_RETRIES: usize = 64;

impl<const WORDS: usize> AtomicRing<WORDS> {
    /// A ring holding the last `capacity` records (rounded up to a power
    /// of two, minimum 2).
    pub(crate) fn new(capacity: usize) -> AtomicRing<WORDS> {
        let cap = capacity.next_power_of_two().max(2);
        AtomicRing {
            slots: (0..cap).map(|_| Slot::new()).collect(),
            mask: (cap - 1) as u64,
            next: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Slot count (always a power of two).
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Records ever claimed — may exceed `capacity()`; the surplus was
    /// overwritten or (rarely) dropped.
    pub(crate) fn pushed(&self) -> u64 {
        self.next.load(Ordering::Acquire)
    }

    /// Records abandoned because another lap's writer owned the slot.
    /// Zero unless writers lap each other inside a single write window.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Publishes a record; returns its global sequence number. Lock-free:
    /// one `fetch_add` plus one CAS, never blocks on readers or other
    /// writers. As long as fewer than `capacity()` records have been
    /// pushed, nothing is ever dropped or overwritten.
    pub(crate) fn push(&self, words: [u64; WORDS]) -> u64 {
        let claim = self.claim();
        self.write(claim, words);
        claim
    }

    /// Claims the next global sequence number without writing it: the
    /// first half of [`push`](AtomicRing::push), for a caller that must
    /// act between the claim and the write (a [`RingSink`] makes sure the
    /// slot's previous record was folded). Every claim must be written,
    /// or its slot stays behind a record readers never see.
    ///
    /// [`RingSink`]: crate::RingSink
    pub(crate) fn claim(&self) -> u64 {
        self.next.fetch_add(1, Ordering::AcqRel)
    }

    /// Writes the record of `claim` (from [`claim`](AtomicRing::claim))
    /// into its slot and publishes it; `false` if the record was dropped.
    /// Never blocks.
    pub(crate) fn write(&self, claim: u64, words: [u64; WORDS]) -> bool {
        let slot = &self.slots[(claim & self.mask) as usize];
        let writing = claim * 2 + 1;
        // Take ownership: CAS from the slot's current *stable* version to
        // our odd tag. An odd current version means another lap's writer
        // is mid-flight; a version at or past ours means a newer lap beat
        // us. Either way this record loses the slot and is dropped —
        // never torn.
        let current = slot.version.load(Ordering::Acquire);
        if current % 2 == 1
            || current >= writing
            || slot
                .version
                .compare_exchange(current, writing, Ordering::AcqRel, Ordering::Relaxed)
                .is_err()
        {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        for (w, v) in slot.words.iter().zip(words) {
            w.store(v, Ordering::Relaxed);
        }
        // We own the slot; publish unconditionally.
        slot.version.store(writing + 1, Ordering::Release);
        true
    }

    /// The payload words of record `seq` if its slot holds exactly that
    /// record, published; `None` while its writer has not finished (or
    /// once a later lap took the slot). The `Acquire` load of the version
    /// pairs with the writer's `Release` publish, so the words read here
    /// are the record's. They stay the record's only while no writer can
    /// claim `seq + capacity()`: the caller's protocol must hold the next
    /// lap off (a [`RingSink`]'s fold cursor does).
    ///
    /// [`RingSink`]: crate::RingSink
    pub(crate) fn published(&self, seq: u64) -> Option<&[AtomicU64; WORDS]> {
        let slot = &self.slots[(seq & self.mask) as usize];
        (slot.version.load(Ordering::Acquire) == seq * 2 + 2).then_some(&slot.words)
    }

    /// Optimistically reads one slot; `None` if it was never written or a
    /// writer kept it busy for `READ_RETRIES` attempts.
    fn read_slot(&self, index: usize) -> Option<(u64, [u64; WORDS])> {
        let slot = &self.slots[index];
        for _ in 0..READ_RETRIES {
            let v1 = slot.version.load(Ordering::Acquire);
            if v1 == 0 {
                return None; // never written
            }
            if v1 % 2 == 1 {
                std::hint::spin_loop();
                continue; // writer mid-flight
            }
            let words = std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
            // Order the payload loads before the version re-check.
            fence(Ordering::Acquire);
            let v2 = slot.version.load(Ordering::Acquire);
            if v1 == v2 {
                return Some(((v1 - 2) / 2, words));
            }
        }
        None
    }

    /// A non-destructive snapshot of every stable record currently in the
    /// ring, sorted by sequence number. Concurrent writers may overwrite
    /// slots while the snapshot runs; such slots are simply read at
    /// whichever lap was stable.
    pub(crate) fn snapshot(&self) -> Vec<(u64, [u64; WORDS])> {
        let mut out: Vec<(u64, [u64; WORDS])> = (0..self.slots.len())
            .filter_map(|i| self.read_slot(i))
            .collect();
        out.sort_unstable_by_key(|(seq, _)| *seq);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(AtomicRing::<1>::new(0).capacity(), 2);
        assert_eq!(AtomicRing::<1>::new(5).capacity(), 8);
        assert_eq!(AtomicRing::<1>::new(8).capacity(), 8);
    }

    #[test]
    fn push_then_snapshot_in_order() {
        let ring = AtomicRing::<2>::new(8);
        for i in 0..5u64 {
            let seq = ring.push([i, i * 10]);
            assert_eq!(seq, i);
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 5);
        for (i, (seq, words)) in snap.iter().enumerate() {
            assert_eq!(*seq, i as u64);
            assert_eq!(words[0], i as u64);
            assert_eq!(words[1], i as u64 * 10);
        }
    }

    #[test]
    fn wraparound_keeps_the_newest_records() {
        let ring = AtomicRing::<1>::new(4);
        for i in 0..10u64 {
            ring.push([i]);
        }
        assert_eq!(ring.pushed(), 10);
        assert_eq!(ring.dropped(), 0, "single-threaded pushes never drop");
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 4);
        let seqs: Vec<u64> = snap.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
        for (seq, words) in snap {
            assert_eq!(words[0], seq);
        }
    }

    #[test]
    fn a_claim_is_published_once_written_until_the_next_lap() {
        let ring = AtomicRing::<1>::new(2);
        let read = |seq| ring.published(seq).map(|w| w[0].load(Ordering::Relaxed));
        let (first, second) = (ring.claim(), ring.claim());
        assert_eq!((first, second), (0, 1));
        assert_eq!(read(0), None, "claimed, not written");
        assert!(ring.write(second, [11]));
        assert!(ring.write(first, [10]));
        assert_eq!((read(0), read(1)), (Some(10), Some(11)));
        // The next lap's record takes slot 0; a stale claim of it loses.
        assert!(ring.write(ring.claim(), [12]));
        assert_eq!((read(0), read(2)), (None, Some(12)));
        assert!(!ring.write(first, [99]), "a newer lap holds the slot");
        assert_eq!(ring.dropped(), 1);
        assert_eq!(read(2), Some(12));
    }

    #[test]
    fn empty_ring_snapshots_empty() {
        let ring = AtomicRing::<3>::new(16);
        assert!(ring.snapshot().is_empty());
        assert_eq!(ring.pushed(), 0);
    }
}
