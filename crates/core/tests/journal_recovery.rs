//! Crash-safety integration tests for the table store (DESIGN.md §11):
//! the byte-offset crash-point harness, the refusal of a parent-written
//! snapshot, property-based torn-tail and bit-flip recovery, and a
//! kill-9-equivalent round trip through the scheduler frontend.

use easched_core::{
    characterize, AlphaStat, BreakerState, CharacterizationConfig, DriftPolicy, EasConfig,
    EasScheduler, KernelTable, Objective, PowerModel, TableStore, WatchdogPolicy,
};
use easched_runtime::test_support::FakeBackend;
use easched_runtime::{
    ChaosFs, ChaosFsPlan, ChaosInjector, Fault, FaultPlan, Scheduler, StdFs, TickClock, Vfs,
};
use proptest::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// A unique scratch directory removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let path = std::env::temp_dir().join(format!(
            "easched_jrec_{tag}_{}_{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&path);
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn stat(alpha: f64, weight: f64, seen: u64) -> AlphaStat {
    AlphaStat {
        alpha,
        weight,
        invocations_seen: seen,
    }
}

/// Builds a store with a checkpointed base (kernels 1 and 2) and a known
/// five-record journal suffix, returning the on-disk snapshot and journal
/// bytes after the writer is gone.
fn seeded_store_files(dir: &TempDir) -> (Vec<u8>, Vec<u8>) {
    let (store, _) = TableStore::open(&dir.0).expect("fresh store");
    let table = KernelTable::new();
    table.insert(1, stat(0.1, 1.0e3, 1));
    store.record_entry(&table, 1);
    table.insert(2, stat(0.5, 2.0e3, 2));
    store.record_entry(&table, 2);
    store
        .checkpoint(&table, BreakerState::Closed)
        .expect("checkpoint");
    // Journal suffix, in order: put 3, taint 2, breaker open, put 1
    // (absolute update), breaker closed.
    table.insert(3, stat(0.3, 3.0e3, 3));
    store.record_entry(&table, 3);
    table.taint(2);
    store.record_taint(2);
    store.record_breaker(BreakerState::Open);
    table.insert(1, stat(0.9, 9.0e3, 4));
    store.record_entry(&table, 1);
    store.record_breaker(BreakerState::Closed);
    drop(store);
    let snap = fs::read(dir.0.join("table.snap")).expect("snapshot bytes");
    let journal = fs::read(dir.0.join("table.journal")).expect("journal bytes");
    (snap, journal)
}

/// Number of complete (newline-terminated) lines fully inside `len`
/// bytes of `journal`.
fn complete_lines(journal: &[u8], len: usize) -> usize {
    journal[..len].iter().filter(|&&b| b == b'\n').count()
}

#[test]
fn crash_point_harness_recovers_at_every_byte_offset() {
    let seed = TempDir::new("seed");
    let (snap, journal) = seeded_store_files(&seed);
    assert!(
        journal.len() > 100,
        "journal suspiciously small: {} bytes",
        journal.len()
    );

    for offset in 0..=journal.len() {
        let dir = TempDir::new("cut");
        fs::create_dir_all(&dir.0).unwrap();
        fs::write(dir.0.join("table.snap"), &snap).unwrap();
        fs::write(dir.0.join("table.journal"), &journal[..offset]).unwrap();

        let (store, rec) = TableStore::open(&dir.0)
            .unwrap_or_else(|e| panic!("offset {offset}: open failed: {e}"));

        // The journal's first line is its header; every complete line
        // before the cut must replay, everything after is forfeit.
        let lines = complete_lines(&journal, offset);
        let expected_replays = lines.saturating_sub(1) as u64;
        assert_eq!(
            rec.replayed, expected_replays,
            "offset {offset}: {lines} complete lines"
        );
        assert_eq!(rec.generation, 1, "offset {offset}");

        // The checkpointed base is inviolable at every offset.
        let s1 = rec.table.stat(1).expect("kernel 1 from snapshot");
        let s2 = rec.table.stat(2).expect("kernel 2 from snapshot");
        assert_eq!(s2.alpha, 0.5, "offset {offset}");

        // Replayed prefix semantics, record by record.
        let r = expected_replays;
        assert_eq!(rec.table.stat(3).is_some(), r >= 1, "offset {offset}");
        assert_eq!(rec.table.is_tainted(2), r >= 2, "offset {offset}");
        let expected_breaker = match r {
            0..=2 => BreakerState::Closed,
            3..=4 => BreakerState::Open,
            _ => BreakerState::Closed,
        };
        assert_eq!(rec.breaker, expected_breaker, "offset {offset}");
        assert_eq!(s1.alpha, if r >= 4 { 0.9 } else { 0.1 }, "offset {offset}");
        assert!(!rec.table.is_tainted(1), "offset {offset}");

        // Recovery is idempotent: the torn suffix was truncated away, so
        // a second open replays exactly the same prefix.
        drop(store);
        let (store, again) = TableStore::open(&dir.0)
            .unwrap_or_else(|e| panic!("offset {offset}: reopen failed: {e}"));
        assert_eq!(again.replayed, expected_replays, "offset {offset}: reopen");
        assert_eq!(again.discarded, 0, "offset {offset}: tail already clean");

        // And the store stays writable: append + checkpoint + reopen.
        if offset % 13 == 0 {
            again.table.insert(42, stat(0.42, 4.2e3, 1));
            store.record_entry(&again.table, 42);
            store
                .checkpoint(&again.table, again.breaker)
                .unwrap_or_else(|e| panic!("offset {offset}: checkpoint failed: {e}"));
            let (_, after) = TableStore::open(&dir.0).expect("post-checkpoint open");
            assert_eq!(after.generation, 2, "offset {offset}");
            assert_eq!(after.table.stat(42).map(|s| s.alpha), Some(0.42));
        }
    }
}

/// The crash window the checkpoint's directory fsync closes: a power
/// loss right after the snapshot rename (but before the rename's
/// directory entry hits disk) can resurrect the *old* snapshot beside
/// the *new*-generation journal. That pair is unrecoverable by design —
/// replaying a journal onto a base it never extended would fabricate
/// state — so `open` must refuse it loudly with `GenerationAhead`
/// rather than quietly resurrect a stale table. With `sync_dir` after
/// the rename (and after the journal reset) the window no longer exists
/// on a real power loss; this test pins both halves of the contract.
#[test]
fn resurrected_stale_snapshot_refuses_recovery_with_generation_ahead() {
    let dir = TempDir::new("dirsync");
    let (store, _) = TableStore::open(&dir.0).expect("fresh store");
    let table = KernelTable::new();
    table.insert(1, stat(0.1, 1.0e3, 1));
    store.record_entry(&table, 1);
    store
        .checkpoint(&table, BreakerState::Closed)
        .expect("first checkpoint");
    let stale_snapshot = fs::read(dir.0.join("table.snap")).expect("gen-1 snapshot");

    table.insert(2, stat(0.5, 2.0e3, 2));
    store.record_entry(&table, 2);
    store
        .checkpoint(&table, BreakerState::Closed)
        .expect("second checkpoint");
    drop(store);

    // Sanity: the durable (synced) pair reopens at the new generation.
    let (_, rec) = TableStore::open(&dir.0).expect("durable pair");
    assert_eq!(rec.generation, 2);
    assert!(rec.table.stat(2).is_some());

    // Simulate the pre-fsync power loss: the rename is undone (old
    // snapshot back in place) while the gen-2 journal survived.
    fs::write(dir.0.join("table.snap"), &stale_snapshot).unwrap();
    match TableStore::open(&dir.0) {
        Err(easched_core::StoreError::GenerationAhead { journal, snapshot }) => {
            assert_eq!(journal, 2);
            assert_eq!(snapshot, 1);
        }
        Ok(_) => panic!("stale snapshot + new journal must not open"),
        Err(e) => panic!("wrong error for resurrected snapshot: {e}"),
    }
}

/// Byte-offset harness over the *checkpoint* itself: whatever prefix of
/// the journal survives alongside either snapshot generation that could
/// legally be on disk (old before the rename's dir entry is durable, new
/// after), recovery either succeeds on a consistent pair or fails with
/// the typed generation error — never panics, never fabricates state.
#[test]
fn crash_point_harness_covers_the_rename_window() {
    let seed = TempDir::new("renwin");
    let (store, _) = TableStore::open(&seed.0).expect("fresh store");
    let table = KernelTable::new();
    table.insert(1, stat(0.1, 1.0e3, 1));
    store.record_entry(&table, 1);
    store
        .checkpoint(&table, BreakerState::Closed)
        .expect("checkpoint to gen 1");
    let old_snap = fs::read(seed.0.join("table.snap")).unwrap();
    table.insert(2, stat(0.7, 7.0e3, 3));
    store.record_entry(&table, 2);
    store
        .checkpoint(&table, BreakerState::Closed)
        .expect("checkpoint to gen 2");
    store.record_taint(1);
    drop(store);
    let new_snap = fs::read(seed.0.join("table.snap")).unwrap();
    let journal = fs::read(seed.0.join("table.journal")).unwrap();

    for (snap, expect_new) in [(&old_snap, false), (&new_snap, true)] {
        for offset in 0..=journal.len() {
            let dir = TempDir::new("renwinc");
            fs::create_dir_all(&dir.0).unwrap();
            fs::write(dir.0.join("table.snap"), snap).unwrap();
            fs::write(dir.0.join("table.journal"), &journal[..offset]).unwrap();
            match TableStore::open(&dir.0) {
                Ok((_, rec)) => {
                    if expect_new {
                        assert_eq!(rec.generation, 2, "offset {offset}");
                    } else {
                        // Old snapshot + a journal prefix too short to
                        // carry its gen-2 header: the journal is ignored
                        // and the gen-1 base stands alone.
                        assert_eq!(rec.generation, 1, "offset {offset}");
                        assert_eq!(rec.replayed, 0, "offset {offset}");
                    }
                }
                Err(easched_core::StoreError::GenerationAhead { journal, snapshot }) => {
                    assert!(!expect_new, "offset {offset}: durable pair must open");
                    assert_eq!((journal, snapshot), (2, 1), "offset {offset}");
                }
                Err(e) => panic!("offset {offset}: unexpected error {e}"),
            }
        }
    }
}

/// The snapshot the store wrote before its snapshot became a compacted
/// journal (`fixtures/golden_store/parent_v3.snap`, the golden script's
/// checkpoint) is refused by its header, not migrated: the table is a
/// learned cache, and the scheduler re-profiles what it does not hold.
#[test]
fn a_parent_v3_snapshot_is_refused_by_name() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_store");
    let dir = TempDir::new("parent_v3");
    fs::create_dir_all(&dir.0).unwrap();
    fs::copy(golden.join("parent_v3.snap"), dir.0.join("table.snap")).unwrap();
    let err = TableStore::open(&dir.0).expect_err("a v3 snapshot must not open");
    assert!(
        matches!(err, easched_core::StoreError::Snapshot(_)),
        "{err}"
    );
    assert!(err.to_string().contains("easched-kernel-table v3"), "{err}");
}

fn desktop_model() -> PowerModel {
    characterize(
        &easched_sim::Platform::haswell_desktop(),
        &CharacterizationConfig {
            alpha_steps: 10,
            ..Default::default()
        },
    )
}

#[test]
fn kill_minus_nine_equivalent_restores_alpha_taint_and_breaker() {
    let dir = TempDir::new("kill9");
    let model = desktop_model();
    let config = EasConfig::new(Objective::Time);

    // Session 1: learn two kernels — one cleanly, one through a scripted
    // sensor fault so its entry ends tainted — then die without a
    // checkpoint (drop ≡ kill -9 for completed writes: nothing here
    // flushes or finalizes anything).
    let (alpha7, alpha9) = {
        let mut eas = EasScheduler::with_persistence(model.clone(), config.clone(), &dir.0)
            .expect("fresh persistent scheduler");
        let mut b = FakeBackend::new(100_000, 1.0e6, 2.0e6);
        eas.schedule(7, &mut b);
        // Kernel 9's *last* invocation sees an energy dropout: profiling
        // still completes, so the entry is learned but tainted.
        let mut injector = ChaosInjector::new(FaultPlan::Scripted(vec![(0, Fault::EnergyDropout)]));
        let mut b = FakeBackend::new(100_000, 1.0e6, 2.0e6);
        injector.around(&mut eas).schedule(9, &mut b);
        assert!(eas.table().is_tainted(9), "fault must taint kernel 9");
        assert!(!eas.table().is_tainted(7));
        (
            eas.learned_alpha(7).expect("kernel 7 learned"),
            eas.learned_alpha(9).expect("kernel 9 learned"),
        )
    };

    // Session 2: a new scheduler on the same directory resumes with every
    // learned ratio and the quarantine/taint state intact.
    let eas = EasScheduler::with_persistence(model, config, &dir.0).expect("recovery");
    assert_eq!(eas.learned_alpha(7), Some(alpha7));
    assert_eq!(eas.learned_alpha(9), Some(alpha9));
    assert!(eas.table().is_tainted(9), "taint must survive kill -9");
    assert!(!eas.table().is_tainted(7));
    assert_eq!(eas.health_state().breaker().state(), BreakerState::Closed);
}

proptest! {
    /// Whatever byte length the crash left behind, recovery succeeds and
    /// yields only values some prefix of the journal actually recorded.
    #[test]
    fn torn_tails_never_break_recovery(cut in 0usize..400) {
        let seed = TempDir::new("ptorn");
        let (snap, journal) = seeded_store_files(&seed);
        let cut = cut.min(journal.len());

        let dir = TempDir::new("ptornc");
        fs::create_dir_all(&dir.0).unwrap();
        fs::write(dir.0.join("table.snap"), &snap).unwrap();
        fs::write(dir.0.join("table.journal"), &journal[..cut]).unwrap();

        let (_, rec) = TableStore::open(&dir.0).expect("torn tail must recover");
        prop_assert_eq!(rec.generation, 1);
        // Kernel 1 only ever held alpha 0.1 (snapshot) or 0.9 (journal).
        let a1 = rec.table.stat(1).expect("kernel 1").alpha;
        prop_assert!(a1 == 0.1 || a1 == 0.9);
        for (_, s, _) in rec.table.snapshot_with_taint() {
            prop_assert!((0.0..=1.0).contains(&s.alpha));
            prop_assert!(s.weight.is_finite() && s.weight >= 0.0);
        }
    }

    /// A flipped bit anywhere in the journal is detected by the per-line
    /// digest: recovery still succeeds and never surfaces a corrupted
    /// value — only states that were genuinely written.
    #[test]
    fn bit_flips_never_surface_corrupt_values(pos in 0usize..400, bit in 0u8..8) {
        let seed = TempDir::new("pflip");
        let (snap, mut journal) = seeded_store_files(&seed);
        let pos = pos.min(journal.len() - 1);
        journal[pos] ^= 1 << bit;

        let dir = TempDir::new("pflipc");
        fs::create_dir_all(&dir.0).unwrap();
        fs::write(dir.0.join("table.snap"), &snap).unwrap();
        fs::write(dir.0.join("table.journal"), &journal).unwrap();

        let (_, rec) = TableStore::open(&dir.0).expect("bit flip must recover");
        prop_assert_eq!(rec.generation, 1);
        let a1 = rec.table.stat(1).expect("kernel 1").alpha;
        prop_assert!(a1 == 0.1 || a1 == 0.9);
        if let Some(s3) = rec.table.stat(3) {
            prop_assert_eq!(s3.alpha, 0.3);
        }
        let a2 = rec.table.stat(2).expect("kernel 2").alpha;
        prop_assert_eq!(a2, 0.5);
    }
}

/// The fixed script behind `fixtures/golden_store/`, whose journal and
/// `Vfs` operation count were written by the commit *before* the on-disk
/// grammar moved into `persist.rs`, and whose `table.snap` was taken when
/// the snapshot became a compacted journal (`parent_v3.snap` holds the
/// bytes before): three entries (one tainted), their `put`s, a taint and
/// a breaker record, a checkpoint, then two more `put`s so the journal
/// is not header-only. Returns the table the script ends on.
fn golden_store_script(dir: &Path, vfs: Arc<dyn Vfs>) -> KernelTable {
    let (store, _) = TableStore::open_with(dir, vfs).expect("fresh store");
    let table = KernelTable::new();
    table.insert(7, stat(2.0 / 3.0, 5.0e4, 12));
    table.insert(1, stat(0.0, 17.0, 0));
    table.insert(900, stat(1.0, 1.0e9, 3));
    table.taint(900);
    for kernel in [7, 1, 900] {
        store.record_entry(&table, kernel);
    }
    store.record_taint(900);
    store.record_breaker(BreakerState::Open);
    store
        .checkpoint(&table, BreakerState::Open)
        .expect("checkpoint");
    table.insert(7, stat(0.7, 6.25e4, 13));
    store.record_entry(&table, 7);
    store.record_entry(&table, 900);
    table
}

#[test]
fn golden_store_bytes_and_vfs_ops_match_the_parent_commit() {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/golden_store");
    let fixture = |name: &str| fs::read(golden.join(name)).expect("committed fixture");

    // (a) The script writes the fixture's bytes.
    let dir = TempDir::new("golden");
    let table = golden_store_script(&dir.0, Arc::new(StdFs));
    for name in ["table.snap", "table.journal"] {
        assert_eq!(fs::read(dir.0.join(name)).unwrap(), fixture(name), "{name}");
    }
    // `table_to_text` writes that snapshot at generation 0 with the breaker
    // closed: past its header and breaker lines, the fixture's bytes.
    let snap = String::from_utf8(fixture("table.snap")).unwrap();
    let checkpointed = easched_core::table_from_text(&snap).expect("the snapshot");
    let text = easched_core::table_to_text(&checkpointed);
    assert!(
        text.starts_with("easched-table-journal v1 gen 0 crc "),
        "{text}"
    );
    assert!(text.lines().nth(1).unwrap().starts_with("breaker 0 crc "));
    assert_eq!(
        text.lines().skip(2).collect::<Vec<_>>(),
        snap.lines().skip(2).collect::<Vec<_>>()
    );

    // (b) The fixture's files open to the script's state (from a copy:
    // open truncates the journal to its valid prefix in place).
    let copy = TempDir::new("golden_open");
    fs::create_dir_all(&copy.0).unwrap();
    for name in ["table.snap", "table.journal"] {
        fs::write(copy.0.join(name), fixture(name)).unwrap();
    }
    let (_, rec) = TableStore::open(&copy.0).expect("the fixture's store");
    assert_eq!(rec.table.snapshot_with_taint(), table.snapshot_with_taint());
    assert_eq!(rec.breaker, BreakerState::Open);
    assert_eq!((rec.generation, rec.replayed, rec.discarded), (1, 2, 0));
    let loaded = easched_core::table_from_text(&easched_core::table_to_text(&table));
    assert_eq!(
        loaded.unwrap().snapshot_with_taint(),
        table.snapshot_with_taint()
    );

    // (c) The store issues the parent's number of `Vfs` operations.
    let chaos_dir = TempDir::new("golden_ops");
    let vfs = ChaosFs::new(7, ChaosFsPlan::default(), Arc::new(TickClock::new()));
    golden_store_script(&chaos_dir.0, Arc::new(vfs.clone()));
    let ops = String::from_utf8(fixture("ops.txt")).unwrap();
    assert_eq!(vfs.op_count(), ops.trim().parse::<u64>().unwrap());
}

/// One invocation of `items` items on a 1:2 machine, its observation
/// steps corrupted per `script`.
fn run_scripted(eas: &mut EasScheduler, kernel: u64, items: u64, script: Vec<(u64, Fault)>) {
    let mut injector = ChaosInjector::new(FaultPlan::Scripted(script));
    let mut b = FakeBackend::new(items, 1.0e6, 2.0e6);
    injector.around(eas).schedule(kernel, &mut b);
    assert_eq!(b.remaining, 0, "kernel {kernel} lost work");
}

/// The fixed script behind `fixtures/door_paths.journal`, whose bytes were
/// written by the commit *before* every write to G moved behind
/// `SharedEas::learn` / `SharedEas::taint`: one persistent scheduler
/// lifetime driven through every path of the Figure 7 loop that writes G,
/// so the journal pins which records each path appends, in which order.
fn door_paths_script(dir: &Path) {
    let mut config = EasConfig::new(Objective::Time);
    config.drift = DriftPolicy {
        bound: 0.5,
        breach_invocations: 2,
        ewma_weight: 1.0,
        ..DriftPolicy::default()
    };
    config.watchdog = WatchdogPolicy::with_deadlines(1.0, 1.0);
    let eas = &mut EasScheduler::with_persistence(desktop_model(), config, dir).expect("fresh");
    // Clean profile: `put … tainted 0`.
    run_scripted(eas, 1, 100_000, vec![]);
    // Small-N: a CPU-only `put`.
    run_scripted(eas, 2, 100, vec![]);
    // Profiling finishes despite a rejected round: `put … tainted 0`,
    // then `taint`.
    run_scripted(eas, 3, 100_000, vec![(0, Fault::EnergyDropout)]);
    // One clean round, then sensor faults past the retry budget: the
    // degraded finish learns what the clean round supports, marked
    // before it is journaled — `put … tainted 1`, then `taint`.
    let dropouts = (1..=4).map(|step| (step, Fault::EnergyDropout)).collect();
    run_scripted(eas, 4, 100_000, dropouts);
    // Surging table hits until the drift monitor fires: `taint`. The
    // next invocation re-profiles: `put … tainted 0`.
    while !eas.table().is_tainted(1) {
        run_scripted(eas, 1, 100_000, vec![(0, Fault::PowerSurge)]);
    }
    run_scripted(eas, 1, 100_000, vec![]);
    // A reused split that busts the chunk deadline: `taint`.
    run_scripted(eas, 1, 100_000, vec![(0, Fault::Hang)]);
    // The same overrun on a small-N pass lands after its `put`.
    run_scripted(eas, 5, 100, vec![(0, Fault::Hang)]);
    let h = eas.health();
    let fired = (h.degraded_invocations, h.drift_reprofiles, h.split_overruns);
    assert_eq!((h.taints, fired), (2, (1, 1, 2)), "{h:?}");
}

#[test]
fn door_paths_journal_matches_the_parent_commit() {
    let dir = TempDir::new("door");
    door_paths_script(&dir.0);
    let journal = fs::read_to_string(dir.0.join("table.journal")).expect("journal");
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/door_paths.journal");
    let want = fs::read_to_string(&fixture).expect("committed fixture");
    assert_eq!(journal, want);
}
