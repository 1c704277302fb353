//! Crash-safe kernel-table persistence: an append-only write-ahead
//! journal of table mutations plus periodic atomic snapshot+compaction
//! (DESIGN.md §11). Every mutation is journaled as it happens, so a
//! restart — a `kill -9` included — recovers the table, taint and
//! circuit-breaker state with it, to within the single invocation that
//! was in flight.
//!
//! # On-disk layout
//!
//! A store directory holds two files:
//!
//! ```text
//! table.snap      — latest snapshot (atomic rename target)
//! table.journal   — mutations since that snapshot (append-only)
//! ```
//!
//! Both are sealed lines, defined, written and parsed by [`persist`]
//! alone: the journal is a header and one `put`/`taint`/`breaker` line
//! per mutation, and the snapshot is a journal compacted — the header,
//! the breaker state, one `put` per kernel and a counted `end`. This
//! module holds no grammar: it owns the files, the order of `Vfs`
//! operations, recovery, compaction and the degrade state machine, and it
//! relies on two properties of the format. Every line carries its own
//! digest, so each record validates independently; and `put` records
//! carry the kernel's *absolute* state (not a delta), so replay is
//! idempotent and a lost record costs only that one update.
//!
//! # Recovery
//!
//! [`TableStore::open`] reads the snapshot, which must be whole (anything
//! else, a table file under an older header included, is
//! [`StoreError::Snapshot`]), then replays the journal **only if** its
//! header generation matches the snapshot's — a stale journal (crash
//! between snapshot rename and journal reset) is ignored, exactly right
//! because the snapshot already contains its mutations. Both files go
//! through one scanner and one replay routine. Journal replay stops at
//! the first line that fails its digest or parse: a torn tail (the crash
//! landed mid-`write`) or flipped bits forfeit the suffix from that
//! point, never the whole table, and the file is truncated back to the
//! valid prefix so appends resume cleanly. Recovery never panics,
//! whatever the bytes.
//!
//! # Compaction
//!
//! Routine snapshot+compaction fires once the journal holds at least as
//! many bytes as the last snapshot, and never before
//! `DEFAULT_COMPACT_EVERY` appends. Rewriting an n-entry snapshot then
//! follows at least as many journal bytes as it writes, so an append pays
//! O(1) amortised whatever the table's size, and a table under the floor's
//! worth of entries compacts every `DEFAULT_COMPACT_EVERY` appends. A
//! reopened store counts the journal it recovered — its bytes and its
//! records — toward the trigger.
//!
//! # Durability
//!
//! Appends are plain `write` syscalls — completed writes survive process
//! death (`kill -9`), which is the failure mode this store defends
//! against. `fsync` happens only at snapshot+compaction, so a *power
//! loss* may cost the journal suffix since the last checkpoint; that
//! trade keeps the per-invocation overhead to one small write. The
//! checkpoint itself is made power-loss-durable end to end: the snapshot
//! is fsynced before the rename, and the **parent directory** is fsynced
//! after the rename and again after the journal reset — without the
//! directory syncs, a power loss after the rename could resurrect the
//! *old* snapshot beside the *new*-generation journal, a pair recovery
//! rejects as [`StoreError::GenerationAhead`].
//!
//! # Live I/O faults (DESIGN.md §16)
//!
//! All disk access goes through the [`Vfs`] seam, so the same code runs
//! against the real filesystem ([`StdFs`]) or a deterministic fault
//! injector ([`ChaosFs`](easched_runtime::ChaosFs)).
//! Failures on the scheduling path never panic and never block a
//! decision; they follow three rules:
//!
//! * **Poisoning** — after a failed write or fsync the open handle is
//!   never trusted again (the fsyncgate lesson: a second fsync on the
//!   same descriptor can silently report success over lost data). The
//!   store reopens the journal, rescans the sealed prefix from disk,
//!   truncates the tail, and resumes there.
//! * **ENOSPC → emergency compaction** — a full disk triggers an
//!   immediate snapshot+compaction (the snapshot is smaller than
//!   snapshot + journal, and carries the very mutation that failed).
//! * **Degrade-to-memory** — when the disk stays broken, the store
//!   trips into degraded mode (its `degraded` gauge reads 1): mutations
//!   live only in the in-memory table, the [`StoreHealth`] counters
//!   surface the state (the journal lines not written count as
//!   buffered, up to a bound, and never as journal bytes), and every
//!   `DEFAULT_COMPACT_EVERY` appends (or any explicit checkpoint) the
//!   store probes the disk with a compaction, whatever the table's size;
//!   success **re-arms** durability. The snapshot carries every unwritten
//!   line's state, so none is ever replayed on top of it.

use crate::health::BreakerState;
use crate::kernel_table::{AlphaStat, KernelTable};
use crate::persist::{self, replay, JournalRecord, JournalScan, ModelParseError};
use easched_runtime::vfs::{StdFs, Vfs, VfsFile};
use easched_runtime::KernelId;
use std::error::Error;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Snapshot file name inside a store directory.
const SNAPSHOT_FILE: &str = "table.snap";
/// Journal file name inside a store directory.
const JOURNAL_FILE: &str = "table.journal";
/// The floor on journal appends between automatic snapshot+compactions,
/// and the degraded store's probe interval. Past it, routine compaction
/// waits for the journal to hold a snapshot's worth of bytes.
const DEFAULT_COMPACT_EVERY: u64 = 256;
/// Cap on the journal lines a degraded store counts as buffered; past it
/// each new line counts as a dropped one.
const MAX_BUFFERED_LINES: u64 = 1024;

/// Error opening or checkpointing a [`TableStore`].
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The snapshot file exists but is not a whole snapshot. Unlike a
    /// torn journal tail this is *not* recoverable silently: the snapshot
    /// is written atomically, so damage means corruption at rest (or a
    /// file under an older header) and the caller must decide.
    Snapshot(ModelParseError),
    /// The journal's header generation is *ahead* of the snapshot's —
    /// the snapshot was deleted or replaced with an older one. Replaying
    /// would resurrect a table missing its base state.
    GenerationAhead {
        /// Generation the journal claims.
        journal: u64,
        /// Generation the snapshot holds.
        snapshot: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "io error: {e}"),
            StoreError::Snapshot(e) => write!(f, "snapshot: {e}"),
            StoreError::GenerationAhead { journal, snapshot } => write!(
                f,
                "journal generation {journal} is ahead of snapshot generation {snapshot}"
            ),
        }
    }
}

impl Error for StoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Snapshot(e) => Some(e),
            StoreError::GenerationAhead { .. } => None,
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// What [`TableStore::open`] recovered from disk.
#[derive(Debug)]
pub struct Recovered {
    /// The kernel table, taint state included.
    pub table: KernelTable,
    /// The circuit-breaker state at the last recorded transition.
    pub breaker: BreakerState,
    /// Snapshot generation the store resumed from.
    pub generation: u64,
    /// Journal records replayed on top of the snapshot.
    pub replayed: u64,
    /// Journal lines discarded as torn or corrupt (suffix from the first
    /// invalid line).
    pub discarded: u64,
}

easched_telemetry::counter_table! {
    /// A store's live counters: one relaxed-atomic cell per
    /// [`StoreHealth`] row, bumped where the store absorbs a fault or
    /// lands a byte. The `degraded` gauge is the store's durability mode.
    #[derive(Debug, Default)]
    pub(crate) bank StoreStats(pub(crate));
    /// Snapshot of a store's storage health (DESIGN.md §16), read by
    /// [`TableStore::health`] — the only place the store's faults are
    /// counted. Rows with a series name are the store's `/metrics`
    /// fragment ([`expose`](StoreHealth::expose)), node-labelled on a
    /// fleet page. None of these affect `fault_free()`: a broken disk
    /// degrades durability, not scheduling fidelity.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub report StoreHealth;
    /// I/O operations that failed (append, snapshot, fsync, resync).
    io_errors: counter = "easched_store_io_errors", "Storage I/O faults absorbed by the table store",
    /// 1 while the store is in degrade-to-memory mode (mutations stay in
    /// RAM and every compaction interval probes the disk), else 0.
    degraded: gauge = "easched_store_degraded",
        "1 while the table store is in degrade-to-memory mode",
    /// Bytes successfully written (journal lines + snapshots).
    bytes_written: counter = "easched_store_bytes", "Bytes the table store successfully persisted",
    /// Durable→degraded transitions over the store's lifetime.
    degraded_transitions: counter = "easched_store_degraded_transitions",
        "Durable-to-degraded transitions",
    /// Degraded→durable recoveries (successful re-arm compactions).
    rearms: counter = "easched_store_rearms", "Degraded-to-durable recoveries",
    /// Buffered lines dropped at the RAM bound.
    buffered_dropped: counter = "easched_store_buffered_dropped",
        "Buffered journal lines dropped at the RAM bound",
    /// Journal lines not written since the store degraded, up to
    /// `MAX_BUFFERED_LINES`. Only counted, never kept: the table holds
    /// their state, and the re-arm snapshot supersedes them all.
    buffered: gauge,
    /// Append or checkpoint failures absorbed on the scheduling path
    /// ([`TableStore::write_errors`]).
    write_errors: counter,
    /// 1 once the filesystem rejected directory fsync as unsupported
    /// (tolerated, noted once: renames can't be made power-loss-durable
    /// on this mount).
    dir_sync_unsupported: gauge,
}

impl StoreHealth {
    /// The store's `/metrics` fragment: every row that declares a series
    /// name.
    pub fn expose(&self) -> String {
        let mut out = String::new();
        easched_telemetry::counters::expose_rows(&mut out, &Self::ROWS, &self.values());
        out
    }
}

/// Mutable store state behind the mutex: the append handle plus the
/// bookkeeping compaction needs.
#[derive(Debug)]
struct StoreInner {
    file: Option<Box<dyn VfsFile>>,
    generation: u64,
    appends: u64,
    /// Bytes in the journal file: the recovered valid prefix, plus every
    /// line written since. Lines buffered while degraded never count.
    journal_bytes: u64,
    /// Bytes of the snapshot on disk: about what the next compaction
    /// rewrites.
    snapshot_bytes: u64,
    last_breaker: BreakerState,
    /// Open could not *read* the journal: the recovered table may be
    /// missing records that still exist on disk. Compaction must merge
    /// (or refuse) before resetting the journal, else the loss becomes
    /// durable.
    recovery_partial: bool,
}

/// The crash-safe store: journal appends on the scheduling path, atomic
/// snapshot+compaction at checkpoints (format and recovery rules in the
/// [module docs](self)).
///
/// All recording methods take `&self` and never panic or return errors —
/// persistence is best-effort on the hot path (failures are counted, see
/// [`write_errors`](TableStore::write_errors)); only [`open`](TableStore::open)
/// and [`checkpoint`](TableStore::checkpoint) surface [`StoreError`].
#[derive(Debug)]
pub struct TableStore {
    dir: PathBuf,
    vfs: Arc<dyn Vfs>,
    /// Every count the store keeps; mutated only under `inner`'s lock.
    stats: StoreStats,
    inner: Mutex<StoreInner>,
}

/// Locks the inner state, recovering from poisoning: a panicked tenant
/// must not end persistence for every other stream.
fn lock(inner: &Mutex<StoreInner>) -> MutexGuard<'_, StoreInner> {
    inner.lock().unwrap_or_else(PoisonError::into_inner)
}

impl TableStore {
    /// Opens (creating if absent) the store rooted at `dir` and recovers
    /// the persisted table: snapshot, then journal replay, per the
    /// [module docs](self).
    ///
    /// # Errors
    ///
    /// [`StoreError`] on a corrupt snapshot, a snapshot-read I/O
    /// failure, or a journal generation ahead of the snapshot's. A torn
    /// or corrupt journal *tail* is not an error — the suffix is
    /// discarded and counted in [`Recovered::discarded`]. Journal-side
    /// *write* failures during open are not errors either: the store
    /// opens degraded and probes its way back.
    pub fn open(dir: impl AsRef<Path>) -> Result<(TableStore, Recovered), StoreError> {
        TableStore::open_with(dir, Arc::new(StdFs))
    }

    /// [`open`](TableStore::open) with an explicit [`Vfs`] — the seam
    /// chaos tests and `--chaos-fs` runs thread a fault injector
    /// through.
    pub fn open_with(
        dir: impl AsRef<Path>,
        vfs: Arc<dyn Vfs>,
    ) -> Result<(TableStore, Recovered), StoreError> {
        let dir = dir.as_ref().to_path_buf();
        vfs.create_dir_all(&dir)?;
        let (table, mut breaker, generation, snapshot_bytes) = read_snapshot(&*vfs, &dir)?;

        let mut replayed = 0u64;
        let mut discarded = 0u64;
        let mut resume_at: Option<u64> = None;
        let mut recovery_partial = false;
        match read_journal(&*vfs, &dir) {
            Ok(Some(scan)) => match scan.gen {
                Some(g) if g == generation => {
                    replayed = scan.records.len() as u64;
                    breaker = replay(&table, scan.records, false).unwrap_or(breaker);
                    discarded = scan.discarded;
                    resume_at = Some(scan.valid_len as u64);
                }
                Some(g) if g > generation => {
                    return Err(StoreError::GenerationAhead {
                        journal: g,
                        snapshot: generation,
                    });
                }
                // Stale (pre-snapshot) or unreadable header: the
                // snapshot supersedes it; start a fresh journal.
                _ => {}
            },
            Ok(None) => {}
            // The journal exists but won't read back. Failing open would
            // take the scheduler down for a durability-only problem: open
            // degraded on the snapshot alone instead, leaving the journal
            // bytes untouched for forensics.
            Err(_) => recovery_partial = true,
        }

        // A store without a journal handle met exactly one I/O error here
        // (the read or the open for appends): it opens degraded with that
        // error counted.
        let (file, journal_bytes) = if recovery_partial {
            (None, 0)
        } else {
            open_journal(&*vfs, &dir, generation, resume_at)
                .map_or((None, 0), |(file, len)| (Some(file), len))
        };
        let stats = StoreStats::default();
        if file.is_none() {
            stats.io_errors.inc();
            stats.degraded.swap(1);
            stats.degraded_transitions.inc();
        }

        let store = TableStore {
            dir,
            vfs,
            stats,
            inner: Mutex::new(StoreInner {
                file,
                generation,
                // The recovered journal counts toward the next
                // compaction, as if this life had appended it.
                appends: replayed,
                journal_bytes,
                snapshot_bytes,
                last_breaker: breaker,
                recovery_partial,
            }),
        };
        let recovered = Recovered {
            table,
            breaker,
            generation,
            replayed,
            discarded,
        };
        Ok((store, recovered))
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Append or checkpoint failures absorbed on the scheduling path
    /// (persistence is best-effort; scheduling never blocks on disk).
    /// Superseded by the richer [`health`](TableStore::health) but kept
    /// as the stable quick check.
    pub fn write_errors(&self) -> u64 {
        self.stats.write_errors.get()
    }

    /// Current journal generation.
    pub fn generation(&self) -> u64 {
        lock(&self.inner).generation
    }

    /// Whether the store is currently in degrade-to-memory mode.
    pub fn is_degraded(&self) -> bool {
        self.stats.degraded.get() != 0
    }

    /// Snapshot of the store's storage-health counters.
    pub fn health(&self) -> StoreHealth {
        self.stats.report()
    }

    /// Journals the current state of one kernel's table entry, read from
    /// `table`; no-op for a kernel it does not hold. The scheduler's own
    /// writes go through [`SharedEas`](crate::SharedEas)'s door, which
    /// already holds the state and appends it without this re-read.
    pub fn record_entry(&self, table: &KernelTable, kernel: KernelId) {
        if let Some(stat) = table.stat(kernel) {
            self.record_put(table, kernel, stat, table.is_tainted(kernel));
        }
    }

    /// Journals one kernel's absolute state as a `put`. Triggers an
    /// automatic snapshot+compaction of `table` once
    /// `DEFAULT_COMPACT_EVERY` appends accumulate and the journal holds a
    /// snapshot's worth of bytes (or the store is degraded).
    pub(crate) fn record_put(
        &self,
        table: &KernelTable,
        kernel: KernelId,
        stat: AlphaStat,
        tainted: bool,
    ) {
        let line = JournalRecord::Put {
            kernel,
            stat,
            tainted,
        }
        .to_line();
        let mut inner = lock(&self.inner);
        let breaker = inner.last_breaker;
        if self.append(&mut inner, &line).is_err() {
            // ENOSPC with the table in hand: an emergency
            // snapshot+compaction both frees space (snapshot replaces
            // snapshot + journal) and carries this very mutation.
            if self.compact_locked(&mut inner, table, breaker).is_err() {
                self.stats.write_errors.inc();
                self.degrade(&mut inner);
                self.buffer_line();
            }
            return;
        }
        inner.appends += 1;
        if inner.appends >= DEFAULT_COMPACT_EVERY
            && (self.is_degraded() || inner.journal_bytes >= inner.snapshot_bytes)
        {
            // In durable mode this is routine compaction, after at least
            // as many journal bytes as it rewrites; in degraded mode it
            // doubles as the re-arm probe (DESIGN.md §16).
            let ok = self.compact_locked(&mut inner, table, breaker).is_ok();
            self.rearm_after(ok);
            if !ok {
                self.stats.write_errors.inc();
                // Avoid retrying compaction on every subsequent append.
                inner.appends = 0;
            }
        }
    }

    /// Journals a taint mark for a kernel.
    pub fn record_taint(&self, kernel: KernelId) {
        let mut inner = lock(&self.inner);
        self.append_without_table(&mut inner, JournalRecord::Taint(kernel));
    }

    /// Journals a circuit-breaker transition; no-op when the state
    /// matches the last recorded one, so hot paths may call this
    /// unconditionally.
    pub fn record_breaker(&self, state: BreakerState) {
        let mut inner = lock(&self.inner);
        if inner.last_breaker == state {
            return;
        }
        inner.last_breaker = state;
        self.append_without_table(&mut inner, JournalRecord::Breaker(state));
    }

    /// Appends a record on a path that holds no table, so ENOSPC cannot
    /// compact here: buffer the line and let the next entry append or
    /// checkpoint probe the disk.
    fn append_without_table(&self, inner: &mut StoreInner, record: JournalRecord) {
        if self.append(inner, &record.to_line()).is_err() {
            self.degrade(inner);
            self.buffer_line();
        }
    }

    /// Writes a fresh snapshot atomically (write-temp, `fsync`, rename)
    /// and resets the journal to the new generation. While degraded,
    /// a successful checkpoint is exactly the re-arm probe: it restores
    /// durability and clears the RAM buffer (superseded by the
    /// snapshot). `breaker` counts as journaled only once the snapshot
    /// carrying it commits, so a later `record_breaker` of the same state
    /// after a failed checkpoint still lands.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; the previous snapshot remains intact (the
    /// rename is the commit point).
    pub fn checkpoint(&self, table: &KernelTable, breaker: BreakerState) -> Result<(), StoreError> {
        let mut inner = lock(&self.inner);
        let result = self.compact_locked(&mut inner, table, breaker);
        if result.is_ok() {
            inner.last_breaker = breaker;
        }
        self.rearm_after(result.is_ok());
        result
    }

    /// Best-effort append of one sealed line; failures are absorbed
    /// (counted, degraded), never raised — except ENOSPC, which is handed
    /// back (`Err`: the line is not yet safe anywhere) so the entry path,
    /// the one call site holding the table, can compact.
    fn append(&self, inner: &mut StoreInner, line: &str) -> io::Result<()> {
        if self.is_degraded() {
            self.buffer_line();
            return Ok(());
        }
        let landed = match self.write_line(inner, line) {
            Ok(()) => true,
            Err(Some(e))
                if e.raw_os_error() == Some(28) // ENOSPC
                || e.kind() == io::ErrorKind::StorageFull =>
            {
                return Err(e);
            }
            // EIO or a short write: the handle may have torn bytes on
            // disk. Poison it, rescan the sealed prefix from disk, and
            // land the line on the fresh handle. No further retries: a
            // second failure immediately degrades.
            Err(Some(_)) => self.resync_handle(inner) && self.write_line(inner, line).is_ok(),
            // No journal handle to append with.
            Err(None) => false,
        };
        if !landed {
            self.degrade(inner);
            self.buffer_line();
        }
        Ok(())
    }

    /// One write on the live handle (`Err(None)` without one): counts the
    /// bytes, or counts the failure.
    fn write_line(&self, inner: &mut StoreInner, line: &str) -> Result<(), Option<io::Error>> {
        let file = inner.file.as_mut().ok_or(None)?;
        match file.write_all(line.as_bytes()) {
            Ok(()) => {
                self.stats.bytes_written.add(line.len() as u64);
                inner.journal_bytes += line.len() as u64;
                Ok(())
            }
            Err(e) => {
                self.stats.write_errors.inc();
                self.stats.io_errors.inc();
                Err(Some(e))
            }
        }
    }

    /// Trips the store into degrade-to-memory mode (idempotent).
    fn degrade(&self, inner: &mut StoreInner) {
        if self.stats.degraded.swap(1) == 0 {
            inner.file = None;
            self.stats.degraded_transitions.inc();
        }
    }

    /// Restores durability after a successful compaction while degraded.
    /// Buffered lines are *dropped*, not flushed: they predate the
    /// snapshot that just committed, and replaying absolute `put`s on
    /// top of it at recovery would regress newer state.
    fn rearm_after(&self, compacted: bool) {
        if compacted && self.stats.degraded.swap(0) != 0 {
            self.stats.buffered.swap(0);
            self.stats.rearms.inc();
        }
    }

    /// Counts one line that had nowhere durable to go: `buffered` up to
    /// the cap, `buffered_dropped` past it — what a bounded buffer that
    /// drops its oldest line would report.
    fn buffer_line(&self) {
        let buffered = self.stats.buffered.get();
        if buffered >= MAX_BUFFERED_LINES {
            self.stats.buffered_dropped.inc();
        } else {
            self.stats.buffered.swap(buffered + 1);
        }
    }

    /// Re-derives a clean journal handle after a poisoned write or
    /// fsync: re-reads the snapshot generation and the journal's sealed
    /// prefix *from disk*, truncates the tail, and resumes there. Never
    /// retries on the old descriptor (fsyncgate). Returns `false` when
    /// the disk refuses — the caller degrades.
    fn resync_handle(&self, inner: &mut StoreInner) -> bool {
        inner.file = None;
        let attempt = (|| -> io::Result<(Box<dyn VfsFile>, u64, u64)> {
            let (_, _, generation, _) =
                read_snapshot(&*self.vfs, &self.dir).map_err(|e| match e {
                    StoreError::Io(e) => e,
                    corrupt => io::Error::new(io::ErrorKind::InvalidData, corrupt.to_string()),
                })?;
            let resume = read_journal(&*self.vfs, &self.dir)?
                .and_then(|scan| (scan.gen == Some(generation)).then_some(scan.valid_len as u64));
            let (file, len) = open_journal(&*self.vfs, &self.dir, generation, resume)?;
            Ok((file, generation, len))
        })();
        match attempt {
            Ok((file, generation, len)) => {
                inner.file = Some(file);
                inner.generation = generation;
                inner.journal_bytes = len;
                true
            }
            Err(_) => {
                self.stats.io_errors.inc();
                false
            }
        }
    }

    /// When open could not *read* the journal, records the caller's
    /// table never saw may still be sitting on disk — and compaction is
    /// about to reset that file. Recover them first: puts land only for
    /// kernels the live table does not hold (the journal's values
    /// predate this life, so a fresh in-memory value always wins),
    /// taints always re-apply (quarantine is the safe direction). If
    /// the journal *still* will not read, the compaction is refused:
    /// returning `Err` leaves the previous snapshot + journal intact
    /// and loadable, which beats durably committing silent loss.
    fn merge_unread_journal(
        &self,
        inner: &mut StoreInner,
        table: &KernelTable,
    ) -> Result<(), StoreError> {
        let scan = match read_journal(&*self.vfs, &self.dir) {
            Ok(scan) => scan,
            Err(e) => {
                self.stats.io_errors.inc();
                return Err(StoreError::Io(e));
            }
        };
        if let Some(scan) = scan.filter(|scan| scan.gen == Some(inner.generation)) {
            replay(table, scan.records, true);
        }
        inner.recovery_partial = false;
        Ok(())
    }

    /// Directory fsync with the §16 classification: unsupported mounts
    /// are tolerated (noted once — they could never make renames
    /// power-loss-durable anyway); real failures propagate so the
    /// checkpoint reports honestly.
    fn sync_dir_counted(&self) -> io::Result<()> {
        match classify_dir_sync(self.vfs.sync_dir(&self.dir)) {
            DirSyncOutcome::Synced => Ok(()),
            DirSyncOutcome::Unsupported => {
                self.stats.dir_sync_unsupported.swap(1);
                Ok(())
            }
            DirSyncOutcome::Failed(e) => Err(e),
        }
    }

    fn compact_locked(
        &self,
        inner: &mut StoreInner,
        table: &KernelTable,
        breaker: BreakerState,
    ) -> Result<(), StoreError> {
        if inner.recovery_partial {
            self.merge_unread_journal(inner, table)?;
        }
        let generation = inner.generation + 1;
        let text = persist::snapshot_to_text(table, breaker, generation);
        let tmp = self.dir.join("table.snap.tmp");
        // Once the rename commits, the *old* journal is stale (its
        // generation lags the snapshot) and the live handle must not be
        // reused; track where the failure landed.
        let mut renamed = false;
        let result = (|| -> io::Result<(Box<dyn VfsFile>, u64)> {
            {
                let mut f = self.vfs.create(&tmp)?;
                f.write_all(text.as_bytes())?;
                f.sync_all()?;
            }
            // The commit point: a crash before this rename leaves the old
            // snapshot + full journal; after it, the journal is stale (its
            // generation lags) and recovery ignores it.
            self.vfs.rename(&tmp, &self.dir.join(SNAPSHOT_FILE))?;
            renamed = true;
            // A rename is durable only once its *directory* is synced:
            // without this fsync, a power loss after the rename could
            // resurrect the old snapshot beside the new-generation journal
            // written below — a pair recovery refuses with
            // `GenerationAhead` (the journal claims a base the snapshot no
            // longer holds).
            self.sync_dir_counted()?;
            let (mut file, len) = open_journal(&*self.vfs, &self.dir, generation, None)?;
            file.sync_all()?;
            // Same reasoning for the journal reset: the first compaction
            // *creates* the directory entry, and its durability needs the
            // directory synced too.
            self.sync_dir_counted()?;
            Ok((file, len))
        })();
        if renamed {
            inner.snapshot_bytes = text.len() as u64;
        }
        match result {
            Ok((file, len)) => {
                self.stats.bytes_written.add(text.len() as u64);
                inner.file = Some(file);
                inner.generation = generation;
                inner.appends = 0;
                inner.journal_bytes = len;
                Ok(())
            }
            Err(e) => {
                self.stats.io_errors.inc();
                if renamed {
                    // The snapshot committed but something after it
                    // failed: the old handle now points at a stale (or
                    // truncated) journal. Poison it and re-derive from
                    // the new on-disk state; if even that fails, degrade.
                    if !self.resync_handle(inner) {
                        self.degrade(inner);
                    } else {
                        inner.appends = 0;
                    }
                }
                Err(StoreError::Io(e))
            }
        }
    }
}

/// Classification of a directory-fsync result: some mounts (network
/// filesystems, FUSE) cannot sync a directory handle at all and report
/// `EINVAL`/`ENOTSUP` — a capability gap, not a failing disk. POSIX
/// makes *file* fsync say nothing about the directory entry, so on such
/// mounts renames are simply never power-loss-durable and the store
/// tolerates (but notes) it. Everything else is a real error.
#[derive(Debug)]
enum DirSyncOutcome {
    /// The directory entry is durable.
    Synced,
    /// This filesystem cannot fsync directories (tolerated, noted once).
    Unsupported,
    /// A real sync failure — propagated to the caller.
    Failed(io::Error),
}

fn classify_dir_sync(result: io::Result<()>) -> DirSyncOutcome {
    match result {
        Ok(()) => DirSyncOutcome::Synced,
        Err(e) if e.raw_os_error() == Some(22) => DirSyncOutcome::Unsupported, // EINVAL
        Err(e) if e.raw_os_error() == Some(95) => DirSyncOutcome::Unsupported, // ENOTSUP
        Err(e) if e.kind() == io::ErrorKind::Unsupported => DirSyncOutcome::Unsupported,
        Err(e) => DirSyncOutcome::Failed(e),
    }
}

/// Reads the snapshot into the table, the breaker state, the generation
/// and the file's length in bytes; an absent file is the empty store at
/// generation 0.
fn read_snapshot(
    vfs: &dyn Vfs,
    dir: &Path,
) -> Result<(KernelTable, BreakerState, u64, u64), StoreError> {
    match vfs.read(&dir.join(SNAPSHOT_FILE)) {
        Ok(bytes) => {
            let (table, breaker, generation) =
                persist::snapshot_from_text(&bytes).map_err(StoreError::Snapshot)?;
            Ok((table, breaker, generation, bytes.len() as u64))
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            Ok((KernelTable::new(), BreakerState::Closed, 0, 0))
        }
        Err(e) => Err(StoreError::Io(e)),
    }
}

/// Reads and scans the journal; `None` when the file does not exist.
fn read_journal(vfs: &dyn Vfs, dir: &Path) -> io::Result<Option<JournalScan>> {
    match vfs.read(&dir.join(JOURNAL_FILE)) {
        Ok(bytes) => Ok(Some(persist::scan_journal(&bytes))),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e),
    }
}

/// Opens the journal of `generation` for appending and returns it with
/// its length in bytes: at `Some(len)` it resumes the existing file,
/// dropping whatever follows that valid prefix so appends extend sealed
/// lines; at `None` it starts the file afresh with only the sealed header.
fn open_journal(
    vfs: &dyn Vfs,
    dir: &Path,
    generation: u64,
    resume_at: Option<u64>,
) -> io::Result<(Box<dyn VfsFile>, u64)> {
    let path = dir.join(JOURNAL_FILE);
    match resume_at {
        Some(len) => {
            let mut file = vfs.open_write(&path)?;
            file.set_len(len)?;
            file.seek_end()?;
            Ok((file, len))
        }
        None => {
            let header = persist::journal_header(generation);
            let mut file = vfs.create(&path)?;
            file.write_all(header.as_bytes())?;
            Ok((file, header.len() as u64))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eas::Accumulation;
    use easched_runtime::vfs::{ChaosFs, ChaosFsPlan, StorageFault};
    use easched_runtime::TickClock;
    use std::fs;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// A unique, self-cleaning store directory per test.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new() -> TempDir {
            static SEQ: AtomicU32 = AtomicU32::new(0);
            let dir = std::env::temp_dir().join(format!(
                "easched_store_{}_{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn learned_table() -> KernelTable {
        let t = KernelTable::new();
        t.accumulate(7, 2.0 / 3.0, 50_000.0, Accumulation::SampleWeighted);
        t.accumulate(1, 0.0, 17.0, Accumulation::SampleWeighted);
        t.accumulate(900, 1.0, 1e9, Accumulation::SampleWeighted);
        t.note_reuse(7);
        t.taint(900);
        t
    }

    #[test]
    fn fresh_store_starts_empty() {
        let dir = TempDir::new();
        let (store, recovered) = TableStore::open(dir.path()).unwrap();
        assert!(recovered.table.is_empty());
        assert_eq!(recovered.breaker, BreakerState::Closed);
        assert_eq!(recovered.generation, 0);
        assert_eq!(recovered.replayed, 0);
        assert_eq!(store.write_errors(), 0);
    }

    #[test]
    fn journal_replay_recovers_entries_taint_and_breaker() {
        let dir = TempDir::new();
        let table = learned_table();
        {
            let (store, _) = TableStore::open(dir.path()).unwrap();
            for (k, _, _) in table.snapshot_with_taint() {
                store.record_entry(&table, k);
            }
            store.record_taint(7);
            store.record_breaker(BreakerState::Open);
            // kill -9: the store is dropped without a checkpoint.
        }
        let (_, recovered) = TableStore::open(dir.path()).unwrap();
        assert_eq!(recovered.table.snapshot(), table.snapshot());
        assert!(recovered.table.is_tainted(900), "taint from put record");
        assert!(recovered.table.is_tainted(7), "taint record replayed");
        assert_eq!(recovered.breaker, BreakerState::Open);
        assert_eq!(recovered.replayed, 5);
        assert_eq!(recovered.discarded, 0);
    }

    #[test]
    fn checkpoint_compacts_and_survives_reopen() {
        let dir = TempDir::new();
        let table = learned_table();
        {
            let (store, _) = TableStore::open(dir.path()).unwrap();
            for (k, _, _) in table.snapshot_with_taint() {
                store.record_entry(&table, k);
            }
            store.checkpoint(&table, BreakerState::HalfOpen).unwrap();
            assert_eq!(store.generation(), 1);
        }
        let journal = fs::read_to_string(dir.path().join(JOURNAL_FILE)).unwrap();
        assert_eq!(journal.lines().count(), 1, "journal reset to header only");
        let (_, recovered) = TableStore::open(dir.path()).unwrap();
        assert_eq!(recovered.table.snapshot(), table.snapshot());
        assert!(recovered.table.is_tainted(900));
        assert_eq!(recovered.breaker, BreakerState::HalfOpen);
        assert_eq!(recovered.generation, 1);
        assert_eq!(recovered.replayed, 0);
    }

    #[test]
    fn auto_compaction_fires_at_threshold() {
        let dir = TempDir::new();
        let table = learned_table();
        let (store, _) = TableStore::open(dir.path()).unwrap();
        for _ in 1..DEFAULT_COMPACT_EVERY {
            store.record_entry(&table, 7);
        }
        assert_eq!(store.generation(), 0, "one append short of the threshold");
        store.record_entry(&table, 7);
        assert_eq!(store.generation(), 1, "the threshold append compacted");
        let (_, recovered) = TableStore::open(dir.path()).unwrap();
        assert_eq!(recovered.generation, 1);
        assert_eq!(recovered.table.lookup(7), table.lookup(7));
    }

    #[test]
    fn a_reopened_store_counts_its_recovered_journal_toward_compaction() {
        let dir = TempDir::new();
        let table = learned_table();
        {
            let (store, _) = TableStore::open(dir.path()).unwrap();
            store.checkpoint(&table, BreakerState::Closed).unwrap();
            for _ in 1..DEFAULT_COMPACT_EVERY {
                store.record_entry(&table, 7);
            }
            assert_eq!(store.generation(), 1, "one append short of the floor");
        }
        // 255 recovered records outweigh the three-entry snapshot, so the
        // reopened store is one append from compacting, not 256.
        let (store, recovered) = TableStore::open(dir.path()).unwrap();
        assert_eq!(recovered.replayed, DEFAULT_COMPACT_EVERY - 1);
        store.record_entry(&recovered.table, 7);
        assert_eq!(store.generation(), 2, "the recovered journal counted");
    }

    /// Grows a store to `kernels` distinct kernels, one `put` each, and
    /// returns the bytes it wrote over the bytes of the put lines alone.
    fn write_amplification(kernels: u64) -> f64 {
        let dir = TempDir::new();
        let (store, _) = TableStore::open(dir.path()).unwrap();
        let table = KernelTable::new();
        let mut put_bytes = 0;
        for kernel in 0..kernels {
            let stat = table.accumulate(kernel, 0.5, 100.0, Accumulation::SampleWeighted);
            store.record_entry(&table, kernel);
            let put = JournalRecord::Put {
                kernel,
                stat,
                tainted: false,
            };
            put_bytes += put.to_line().len() as u64;
        }
        // The counts the trigger reads are the files' lengths.
        let inner = lock(&store.inner);
        let len = |file| fs::metadata(dir.path().join(file)).unwrap().len();
        assert_eq!(inner.journal_bytes, len(JOURNAL_FILE));
        assert_eq!(inner.snapshot_bytes, len(SNAPSHOT_FILE));
        store.health().bytes_written as f64 / put_bytes as f64
    }

    #[test]
    fn an_append_costs_constant_bytes_amortised_whatever_the_table_size() {
        // Each compaction of an n-entry table follows a snapshot's worth
        // of put lines, so the snapshots sum to about twice the final
        // one: 2.2x the put lines at 1 024 kernels, 2.4x at 16 384.
        // Compacting every 256 appends instead rewrites the table 64
        // times on the way to 16 384 kernels: 25x.
        for kernels in [1_024, 16_384] {
            let ratio = write_amplification(kernels);
            assert!(
                ratio < 3.0,
                "{kernels} kernels wrote {ratio:.2}x their put lines"
            );
        }
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let dir = TempDir::new();
        let table = learned_table();
        {
            let (store, _) = TableStore::open(dir.path()).unwrap();
            store.record_entry(&table, 7);
            store.record_entry(&table, 1);
        }
        let path = dir.path().join(JOURNAL_FILE);
        let full = fs::read(&path).unwrap();
        // Tear mid-way through the final record.
        fs::write(&path, &full[..full.len() - 7]).unwrap();
        let (store, recovered) = TableStore::open(dir.path()).unwrap();
        assert_eq!(recovered.replayed, 1);
        assert_eq!(recovered.discarded, 1);
        assert_eq!(recovered.table.lookup(7), table.lookup(7));
        assert_eq!(recovered.table.lookup(1), None, "torn record lost");
        // Appends after recovery extend the truncated prefix cleanly.
        store.record_entry(&recovered.table, 7);
        drop(store);
        let (_, again) = TableStore::open(dir.path()).unwrap();
        assert_eq!(again.replayed, 2);
        assert_eq!(again.discarded, 0);
    }

    #[test]
    fn corrupt_line_forfeits_suffix_only() {
        let dir = TempDir::new();
        let table = learned_table();
        {
            let (store, _) = TableStore::open(dir.path()).unwrap();
            store.record_entry(&table, 7);
            store.record_entry(&table, 1);
            store.record_entry(&table, 900);
        }
        let path = dir.path().join(JOURNAL_FILE);
        let mut bytes = fs::read(&path).unwrap();
        // Flip one bit in the *second* record (line 3 of the file).
        let line_starts: Vec<usize> = std::iter::once(0)
            .chain(
                bytes
                    .iter()
                    .enumerate()
                    .filter(|(_, &b)| b == b'\n')
                    .map(|(i, _)| i + 1),
            )
            .collect();
        bytes[line_starts[2] + 4] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let (_, recovered) = TableStore::open(dir.path()).unwrap();
        assert_eq!(recovered.replayed, 1, "only the intact prefix replays");
        assert_eq!(recovered.discarded, 2, "flipped line and everything after");
        assert_eq!(recovered.table.lookup(7), table.lookup(7));
    }

    #[test]
    fn stale_journal_is_ignored_after_snapshot() {
        let dir = TempDir::new();
        let table = learned_table();
        {
            let (store, _) = TableStore::open(dir.path()).unwrap();
            store.record_entry(&table, 7);
            store.checkpoint(&table, BreakerState::Closed).unwrap();
        }
        // Simulate the crash window: restore a pre-checkpoint journal
        // (generation 0) next to the generation-1 snapshot.
        let path = dir.path().join(JOURNAL_FILE);
        let mut text = persist::journal_header(0);
        let stat = AlphaStat {
            alpha: 0.5,
            weight: 1.0,
            invocations_seen: 0,
        };
        let put = JournalRecord::Put {
            kernel: 5,
            stat,
            tainted: false,
        };
        text.push_str(&put.to_line());
        fs::write(&path, text).unwrap();
        let (_, recovered) = TableStore::open(dir.path()).unwrap();
        assert_eq!(recovered.generation, 1);
        assert_eq!(recovered.replayed, 0, "stale journal ignored");
        assert_eq!(
            recovered.table.lookup(5),
            None,
            "its mutations are already in the snapshot lineage"
        );
        assert_eq!(recovered.table.snapshot(), table.snapshot());
    }

    #[test]
    fn journal_ahead_of_snapshot_is_refused() {
        let dir = TempDir::new();
        let path = dir.path().join(JOURNAL_FILE);
        fs::write(&path, persist::journal_header(3)).unwrap();
        let err = TableStore::open(dir.path()).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::GenerationAhead {
                    journal: 3,
                    snapshot: 0
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("ahead"));
    }

    #[test]
    fn corrupt_snapshot_is_fatal() {
        let dir = TempDir::new();
        let table = learned_table();
        {
            let (store, _) = TableStore::open(dir.path()).unwrap();
            store.checkpoint(&table, BreakerState::Closed).unwrap();
        }
        let path = dir.path().join(SNAPSHOT_FILE);
        let mut bytes = fs::read(&path).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0x10;
        fs::write(&path, &bytes).unwrap();
        let err = TableStore::open(dir.path()).unwrap_err();
        assert!(matches!(err, StoreError::Snapshot(_)), "{err}");
    }

    #[test]
    fn breaker_transitions_deduplicate() {
        let dir = TempDir::new();
        let (store, _) = TableStore::open(dir.path()).unwrap();
        store.record_breaker(BreakerState::Closed); // already the default
        store.record_breaker(BreakerState::Open);
        store.record_breaker(BreakerState::Open);
        store.record_breaker(BreakerState::Closed);
        drop(store);
        let text = fs::read_to_string(dir.path().join(JOURNAL_FILE)).unwrap();
        assert_eq!(
            text.lines().filter(|l| l.starts_with("breaker")).count(),
            2,
            "{text}"
        );
    }

    /// A chaos store over `dir` with the given plan (seed fixed: the
    /// schedules below pin exact operation indices).
    fn chaos_store(dir: &Path, plan: ChaosFsPlan) -> (TableStore, Recovered, ChaosFs) {
        let vfs = ChaosFs::new(42, plan, Arc::new(TickClock::new()));
        let (store, recovered) =
            TableStore::open_with(dir, Arc::new(vfs.clone())).expect("open never fails on writes");
        (store, recovered, vfs)
    }

    #[test]
    fn classify_dir_sync_distinguishes_unsupported_from_failure() {
        assert!(matches!(classify_dir_sync(Ok(())), DirSyncOutcome::Synced));
        // EINVAL, ENOTSUP, and ErrorKind::Unsupported are capability
        // gaps: tolerated.
        for err in [
            io::Error::from_raw_os_error(22),
            io::Error::from_raw_os_error(95),
            io::Error::new(io::ErrorKind::Unsupported, "no dir fsync here"),
        ] {
            assert!(
                matches!(classify_dir_sync(Err(err)), DirSyncOutcome::Unsupported),
                "capability gap must be tolerated"
            );
        }
        // A real EIO propagates.
        let DirSyncOutcome::Failed(e) = classify_dir_sync(Err(io::Error::from_raw_os_error(5)))
        else {
            panic!("EIO is a real failure");
        };
        assert_eq!(e.raw_os_error(), Some(5));
    }

    #[test]
    fn dir_sync_unsupported_is_tolerated_and_noted_once() {
        let dir = TempDir::new();
        let plan = ChaosFsPlan {
            dir_sync_unsupported: true,
            ..ChaosFsPlan::default()
        };
        let (store, _, _) = chaos_store(dir.path(), plan);
        let table = learned_table();
        store
            .checkpoint(&table, BreakerState::Closed)
            .expect("tolerated");
        store
            .checkpoint(&table, BreakerState::Closed)
            .expect("tolerated");
        let health = store.health();
        assert_eq!(
            health.dir_sync_unsupported, 1,
            "noted across four dir syncs"
        );
        assert_eq!(health.io_errors, 0, "a capability gap is not an I/O error");
        assert_eq!(health.degraded, 0);
    }

    #[test]
    fn every_fsync_point_in_a_checkpoint_propagates_failure() {
        // Open consumes ops 0..=3 on a fresh dir (2 reads, create,
        // header write); a checkpoint spans the 9 ops after it. Schedule
        // an fsync failure at each op: exactly the four sync points
        // (snapshot fsync, dir fsync, journal fsync, dir fsync again)
        // must fail the checkpoint — syncs are never silently absorbed.
        let mut failures = 0;
        for op in 4..13 {
            let dir = TempDir::new();
            let (store, _, _) =
                chaos_store(dir.path(), ChaosFsPlan::at(op, StorageFault::FsyncFail));
            if store
                .checkpoint(&learned_table(), BreakerState::Closed)
                .is_err()
            {
                failures += 1;
            }
            // Whatever happened, the store must still be usable and the
            // on-disk state loadable.
            store.record_entry(&learned_table(), 7);
            let (_, recovered) = TableStore::open(dir.path()).expect("loadable");
            assert_eq!(recovered.table.lookup(7), learned_table().lookup(7));
        }
        assert_eq!(failures, 4, "one per fsync point, no more, no less");
    }

    #[test]
    fn a_failed_checkpoint_leaves_its_breaker_state_to_be_journaled() {
        // Count the checkpoint's ops on a fault-free disk first (open
        // and one entry append come before it), then fail each of them
        // with each fault class. Whatever the checkpoint left behind, a
        // following `record_breaker` of the same state must make it
        // durable: a failed checkpoint journaled nothing.
        let table = learned_table();
        let probe = TempDir::new();
        let (store, _, vfs) = chaos_store(probe.path(), ChaosFsPlan::default());
        store.record_entry(&table, 7);
        let first = vfs.op_count();
        store.checkpoint(&table, BreakerState::Open).unwrap();
        let ops = first..vfs.op_count();
        assert_eq!(ops.clone().count(), 9, "{ops:?}");

        let mut closed = Vec::new();
        for fault in [
            StorageFault::Enospc,
            StorageFault::Eio,
            StorageFault::ShortWrite,
            StorageFault::FsyncFail,
        ] {
            for op in ops.clone() {
                let dir = TempDir::new();
                let (store, _, _) = chaos_store(dir.path(), ChaosFsPlan::at(op, fault));
                store.record_entry(&table, 7);
                let _ = store.checkpoint(&table, BreakerState::Open);
                store.record_breaker(BreakerState::Open);
                drop(store);
                let (_, recovered) = TableStore::open(dir.path()).expect("loadable");
                if recovered.breaker != BreakerState::Open {
                    closed.push((fault, op));
                }
            }
        }
        assert!(closed.is_empty(), "breaker state lost at {closed:?}");
    }

    #[test]
    fn degraded_lines_are_counted_to_the_bound_and_cleared_by_a_rearm() {
        let dir = TempDir::new();
        let table = learned_table();
        // As in `persistent_enospc_degrades_then_checkpoint_rearms`: the
        // first append and its emergency compaction both hit ENOSPC.
        let plan = ChaosFsPlan {
            schedule: vec![(4, StorageFault::Enospc), (5, StorageFault::Enospc)],
            ..ChaosFsPlan::default()
        };
        let (store, _, _) = chaos_store(dir.path(), plan);
        store.record_entry(&table, 7);
        assert!(store.is_degraded());
        // Taints append without a table, so no compaction probe re-arms
        // the store between them: 1 030 degraded lines in all.
        for _ in 1..1030 {
            store.record_taint(7);
        }
        let health = store.health();
        assert_eq!((health.buffered, health.buffered_dropped), (1024, 6));
        store
            .checkpoint(&table, BreakerState::Closed)
            .expect("re-arm");
        let health = store.health();
        assert_eq!((health.buffered, health.buffered_dropped), (0, 6));
    }

    #[test]
    fn a_degraded_store_probes_within_the_floor_whatever_the_table_size() {
        let dir = TempDir::new();
        let table = KernelTable::new();
        for kernel in 0..4_096 {
            table.accumulate(kernel, 0.5, 100.0, Accumulation::SampleWeighted);
        }
        // Open takes ops 0..=3 and the checkpoint 4..=12; the first append
        // (op 13) and its emergency compaction (op 14) hit ENOSPC.
        let plan = ChaosFsPlan {
            schedule: vec![(13, StorageFault::Enospc), (14, StorageFault::Enospc)],
            ..ChaosFsPlan::default()
        };
        let (store, _, _) = chaos_store(dir.path(), plan);
        store.checkpoint(&table, BreakerState::Closed).unwrap();
        store.record_entry(&table, 0);
        assert!(store.is_degraded());
        let journal_bytes = lock(&store.inner).journal_bytes;
        for kernel in 1..DEFAULT_COMPACT_EVERY {
            store.record_entry(&table, kernel);
        }
        assert!(store.is_degraded(), "one append short of the probe");
        assert_eq!(
            lock(&store.inner).journal_bytes,
            journal_bytes,
            "buffered lines are not journal bytes"
        );
        store.record_entry(&table, DEFAULT_COMPACT_EVERY);
        assert!(!store.is_degraded(), "the probe re-armed the store");
        assert_eq!((store.health().rearms, store.generation()), (1, 2));
        // Durable again, the floor alone no longer compacts this table.
        for kernel in 0..DEFAULT_COMPACT_EVERY {
            store.record_entry(&table, kernel);
        }
        assert_eq!(store.generation(), 2);
    }

    #[test]
    fn enospc_on_append_triggers_emergency_compaction() {
        let dir = TempDir::new();
        let table = learned_table();
        // Op 4 is the first journal append after a fresh open.
        let (store, _, _) = chaos_store(dir.path(), ChaosFsPlan::at(4, StorageFault::Enospc));
        store.record_entry(&table, 7);
        assert!(!store.is_degraded(), "compaction freed the disk");
        assert_eq!(store.generation(), 1, "emergency snapshot committed");
        assert!(store.health().io_errors >= 1);
        let (_, recovered) = TableStore::open(dir.path()).expect("loadable");
        assert_eq!(
            recovered.table.lookup(7),
            table.lookup(7),
            "the failed mutation rode the emergency snapshot"
        );
    }

    #[test]
    fn persistent_enospc_degrades_then_checkpoint_rearms() {
        let dir = TempDir::new();
        let table = learned_table();
        // Append fails with ENOSPC *and* the emergency compaction's
        // temp-file create fails right after: degrade-to-memory.
        let plan = ChaosFsPlan {
            schedule: vec![(4, StorageFault::Enospc), (5, StorageFault::Enospc)],
            ..ChaosFsPlan::default()
        };
        let (store, _, _) = chaos_store(dir.path(), plan);
        store.record_entry(&table, 7);
        assert!(store.is_degraded());
        store.record_entry(&table, 1);
        // As in the profile loop, the table is tainted alongside the
        // journal record — the re-arm snapshot carries it even though
        // the buffered line is superseded.
        table.taint(7);
        store.record_taint(7);
        let health = store.health();
        assert_eq!(health.degraded_transitions, 1);
        assert_eq!(health.buffered, 3, "mutations buffer in RAM while degraded");
        // The disk "clears" (the schedule is exhausted): an explicit
        // checkpoint is the re-arm probe.
        store
            .checkpoint(&table, BreakerState::Closed)
            .expect("re-arm");
        let health = store.health();
        assert_eq!(health.degraded, 0);
        assert_eq!(health.rearms, 1);
        assert_eq!(health.buffered, 0, "superseded by the snapshot");
        store.record_entry(&table, 900);
        let (_, recovered) = TableStore::open(dir.path()).expect("loadable");
        assert_eq!(recovered.table.snapshot(), table.snapshot());
        assert!(recovered.table.is_tainted(7), "taint survived via snapshot");
    }

    #[test]
    fn short_write_poisons_handle_and_resyncs_to_sealed_prefix() {
        let dir = TempDir::new();
        let table = learned_table();
        let (store, _, _) = chaos_store(dir.path(), ChaosFsPlan::at(4, StorageFault::ShortWrite));
        store.record_entry(&table, 7); // torn on disk, then resynced + relanded
        store.record_entry(&table, 1);
        assert!(!store.is_degraded());
        assert_eq!(store.health().io_errors, 1);
        drop(store);
        let (_, recovered) = TableStore::open(dir.path()).expect("loadable");
        assert_eq!(recovered.discarded, 0, "the torn bytes were truncated away");
        assert_eq!(recovered.replayed, 2);
        assert_eq!(recovered.table.lookup(7), table.lookup(7));
        assert_eq!(recovered.table.lookup(1), table.lookup(1));
    }

    #[test]
    fn unreadable_journal_opens_degraded_not_fatal() {
        let dir = TempDir::new();
        let table = learned_table();
        {
            let (store, _) = TableStore::open(dir.path()).unwrap();
            store.checkpoint(&table, BreakerState::Closed).unwrap();
        }
        // Snapshot read (op 0) is fine; journal read (op 1) EIOs.
        let (store, recovered, _) = chaos_store(dir.path(), ChaosFsPlan::at(1, StorageFault::Eio));
        assert!(store.is_degraded(), "journal unreadable: degraded open");
        assert_eq!(
            recovered.table.snapshot(),
            table.snapshot(),
            "the snapshot alone still recovers the table"
        );
        // And the store can still re-arm once the disk behaves.
        store
            .checkpoint(&table, BreakerState::Closed)
            .expect("re-arm");
        assert!(!store.is_degraded());
    }

    #[test]
    fn an_absorbed_append_fault_is_counted_once() {
        let dir = TempDir::new();
        let (store, _, _) = chaos_store(dir.path(), ChaosFsPlan::at(4, StorageFault::Enospc));
        assert_eq!(store.health().io_errors, 0);
        store.record_entry(&learned_table(), 7);
        // The emergency compaction carried the mutation: one error, no
        // degradation.
        let health = store.health();
        assert_eq!(health.io_errors, 1);
        assert!(health.degraded == 0 && health.bytes_written > 0);
    }
}
