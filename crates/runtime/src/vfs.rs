//! Storage seam: a virtual filesystem trait with a passthrough and a
//! deterministic fault-injecting implementation.
//!
//! Every persistence consumer (the journal/snapshot store, the replay
//! log writer, fleet node journals) performs its disk I/O through
//! [`Vfs`] instead of calling `std::fs` directly. Production code uses
//! [`StdFs`], a zero-cost passthrough. Tests and chaos stages swap in
//! [`ChaosFs`], which injects ENOSPC, EIO, short writes, fsync failures,
//! and latency from a pure counter-based splitmix64 stream — the same
//! construction the [`ChaosInjector`](crate::ChaosInjector) uses — so a fault
//! schedule is a function of `(seed, operation index)` alone and
//! replays identically across runs.
//!
//! The seam is deliberately narrow: exactly the operations the
//! journaled store and log writers need (create/open/append/read/
//! rename/set-len/fsync-file/fsync-dir), nothing more. Each fallible
//! operation consumes exactly one index from the chaos stream, which is
//! what makes "inject fault F at operation k" harnesses enumerable.

use crate::clock::Clock;
use easched_sim::splitmix64;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An open writable file behind the [`Vfs`] seam.
///
/// Mirrors the small slice of `std::fs::File` the journal uses. A
/// `sync_all` failure must be treated as poisoning the handle (see
/// DESIGN.md §16): callers reopen and rescan rather than retrying the
/// fsync on the same descriptor.
pub trait VfsFile: Send + fmt::Debug {
    /// Appends the whole buffer at the current position.
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// Flushes file data and metadata to the device (fsync).
    fn sync_all(&mut self) -> io::Result<()>;
    /// Truncates (or extends) the file to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
    /// Seeks to the end of the file, returning the offset.
    fn seek_end(&mut self) -> io::Result<u64>;
}

/// The filesystem operations the persistence layer needs.
///
/// Implementations must be `Send + Sync`: one `Vfs` is shared by a
/// store and all its callers.
pub trait Vfs: Send + Sync + fmt::Debug {
    /// Creates a directory and all missing parents.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Reads an entire file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Creates (or truncates) a file for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Opens an existing file for writing without truncating it.
    fn open_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Atomically renames `from` to `to` (the snapshot commit point).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Fsyncs the directory itself so a rename/create is durable.
    ///
    /// Returned errors are raw: callers classify "filesystem doesn't
    /// support directory fsync" separately from real failures.
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Convenience: create + write a whole file (no fsync).
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut file = self.create(path)?;
        file.write_all(data)
    }
}

/// Passthrough [`Vfs`] over `std::fs` — the production implementation.
///
/// Every method is a direct delegation; the seam adds one dynamic
/// dispatch per operation on paths that were already syscalls, which
/// the benchmark's `runtime.vfs.write_ns` lane holds to zero measurable
/// cost.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdFs;

#[derive(Debug)]
struct StdFile(File);

impl VfsFile for StdFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)
    }
    fn sync_all(&mut self) -> io::Result<()> {
        self.0.sync_all()
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.0.set_len(len)
    }
    fn seek_end(&mut self) -> io::Result<u64> {
        self.0.seek(SeekFrom::End(0))
    }
}

impl Vfs for StdFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(StdFile(File::create(path)?)))
    }
    fn open_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(StdFile(
            OpenOptions::new().write(true).open(path)?,
        )))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }
    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        File::open(dir)?.sync_all()
    }
}

/// One injectable storage fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageFault {
    /// The device is full: the operation fails with `ENOSPC`, no bytes
    /// written.
    Enospc,
    /// A generic I/O error (`EIO`), no bytes written or read.
    Eio,
    /// A torn write: the first half of the buffer lands on disk, then
    /// the operation fails with `EIO`. Exercises sealed-line recovery.
    ShortWrite,
    /// `fsync` fails with `EIO` — the fsyncgate class. Data already
    /// written may or may not be durable; the handle is poisoned.
    FsyncFail,
    /// The operation stalls for the plan's latency before succeeding.
    Latency,
}

/// Fault rates and schedules for a [`ChaosFs`].
///
/// Rates are per-mille per operation; explicit `(op, fault)` schedule
/// entries override the random stream at exactly that operation index.
#[derive(Debug, Clone, Default)]
pub struct ChaosFsPlan {
    /// Per-mille chance a write-side op (create/append/rename/set-len)
    /// fails with `ENOSPC`.
    pub enospc_per_mille: u16,
    /// Per-mille chance an append tears: half the buffer, then `EIO`.
    pub short_write_per_mille: u16,
    /// Per-mille chance a file or directory fsync fails with `EIO`.
    pub fsync_fail_per_mille: u16,
    /// Per-mille chance a read fails with `EIO`.
    pub read_eio_per_mille: u16,
    /// Per-mille chance an operation stalls for
    /// [`latency_seconds`](ChaosFsPlan::latency_seconds) first.
    pub latency_per_mille: u16,
    /// Stall duration for latency faults, via the plan's [`Clock`].
    pub latency_seconds: f64,
    /// When set, every directory fsync reports
    /// `ErrorKind::Unsupported` — models filesystems without dir fsync.
    pub dir_sync_unsupported: bool,
    /// Exact-index injections: fault fires at precisely these operation
    /// indices, regardless of the random rates.
    pub schedule: Vec<(u64, StorageFault)>,
}

impl ChaosFsPlan {
    /// A storm profile: write-side faults at `per_mille`, torn writes
    /// and fsync failures at half that, a sprinkle of latency, and —
    /// deliberately — **no** read faults, so recovery and CLI open
    /// paths stay honest-error-free while the write path burns.
    pub fn storm(per_mille: u16) -> ChaosFsPlan {
        ChaosFsPlan {
            enospc_per_mille: per_mille,
            short_write_per_mille: per_mille / 2,
            fsync_fail_per_mille: per_mille / 2,
            read_eio_per_mille: 0,
            latency_per_mille: per_mille / 2,
            latency_seconds: 1e-4,
            dir_sync_unsupported: false,
            schedule: Vec::new(),
        }
    }

    /// A plan that injects exactly one fault, at operation `op`.
    pub fn at(op: u64, fault: StorageFault) -> ChaosFsPlan {
        ChaosFsPlan {
            schedule: vec![(op, fault)],
            ..ChaosFsPlan::default()
        }
    }

    /// Appends one more scheduled fault (builder-style, for multi-fault
    /// test scripts).
    pub fn then(mut self, op: u64, fault: StorageFault) -> ChaosFsPlan {
        self.schedule.push((op, fault));
        self
    }
}

/// Deterministic fault-injecting [`Vfs`].
///
/// Wraps [`StdFs`] and, before each real operation, consults a pure
/// splitmix64 stream of `(seed, op_index)` to decide whether to inject
/// a [`StorageFault`]. The op counter is shared across the filesystem
/// and every file it opens, so a whole store session has one totally
/// ordered, reproducible fault schedule. Latency faults sleep on the
/// provided [`Clock`] (a [`TickClock`](crate::TickClock) makes them
/// free and deterministic in simulation).
#[derive(Debug, Clone)]
pub struct ChaosFs {
    core: Arc<ChaosFsCore>,
}

#[derive(Debug)]
struct ChaosFsCore {
    seed: u64,
    plan: ChaosFsPlan,
    clock: Arc<dyn Clock>,
    ops: AtomicU64,
    injected: AtomicU64,
}

/// Stream salts: distinct sub-streams per fault class so rates are
/// independent draws at the same operation index.
const SALT_ENOSPC: u64 = 0x1;
const SALT_SHORT: u64 = 0x2;
const SALT_FSYNC: u64 = 0x3;
const SALT_READ: u64 = 0x4;
const SALT_LATENCY: u64 = 0x5;

/// [`splitmix64`] of `(seed, salt, step)` — the construction of
/// [`chaos::mix`](crate::chaos) plus the salt, kept pure so fault
/// schedules replay byte-identically.
fn mix(seed: u64, salt: u64, step: u64) -> u64 {
    splitmix64(
        seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(salt.wrapping_mul(0xbf58_476d_1ce4_e5b9))
            .wrapping_add(step),
    )
}

fn enospc() -> io::Error {
    // Raw ENOSPC so `ErrorKind::StorageFull` classification works.
    io::Error::from_raw_os_error(28)
}

fn eio() -> io::Error {
    io::Error::from_raw_os_error(5)
}

impl ChaosFsCore {
    /// Draws the next operation index and decides which fault, if any,
    /// fires there. `candidates` limits which classes apply to this
    /// operation kind (reads can't tear, fsyncs can't ENOSPC).
    fn decide(&self, candidates: &[StorageFault]) -> Option<StorageFault> {
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        if let Some(&(_, fault)) = self.plan.schedule.iter().find(|&&(at, _)| at == op) {
            if candidates.contains(&fault) || fault == StorageFault::Latency {
                self.injected.fetch_add(1, Ordering::Relaxed);
                return Some(fault);
            }
            return None;
        }
        // Latency composes with nothing else and never fails the op;
        // check error classes first so an op injects at most one fault.
        for &fault in candidates {
            let (salt, rate) = match fault {
                StorageFault::Enospc => (SALT_ENOSPC, self.plan.enospc_per_mille),
                StorageFault::ShortWrite => (SALT_SHORT, self.plan.short_write_per_mille),
                StorageFault::FsyncFail => (SALT_FSYNC, self.plan.fsync_fail_per_mille),
                StorageFault::Eio => (SALT_READ, self.plan.read_eio_per_mille),
                StorageFault::Latency => continue,
            };
            if rate > 0 && mix(self.seed, salt, op) % 1000 < u64::from(rate) {
                self.injected.fetch_add(1, Ordering::Relaxed);
                return Some(fault);
            }
        }
        if self.plan.latency_per_mille > 0
            && mix(self.seed, SALT_LATENCY, op) % 1000 < u64::from(self.plan.latency_per_mille)
        {
            self.injected.fetch_add(1, Ordering::Relaxed);
            return Some(StorageFault::Latency);
        }
        None
    }

    /// The one injection body under every fault point: draws this
    /// operation's fault from `candidates`, then carries it out around
    /// `op`.
    fn inject<T>(
        &self,
        candidates: &[StorageFault],
        op: impl FnOnce() -> io::Result<T>,
    ) -> io::Result<T> {
        self.apply(self.decide(candidates), op)
    }

    /// Carries out a decided fault: fail with its errno without touching
    /// the disk, stall and then run `op`, or just run `op`.
    fn apply<T>(
        &self,
        fault: Option<StorageFault>,
        op: impl FnOnce() -> io::Result<T>,
    ) -> io::Result<T> {
        use StorageFault::*;
        match fault {
            Some(Enospc) => Err(enospc()),
            Some(Eio | FsyncFail | ShortWrite) => Err(eio()),
            Some(Latency) => {
                if self.plan.latency_seconds > 0.0 {
                    self.clock.sleep(self.plan.latency_seconds);
                }
                op()
            }
            None => op(),
        }
    }
}

impl ChaosFs {
    /// Creates a chaos filesystem from a derived seed (e.g.
    /// `RunSeed::derive("chaos-fs")`), a plan, and a clock for latency
    /// stalls.
    pub fn new(seed: u64, plan: ChaosFsPlan, clock: Arc<dyn Clock>) -> ChaosFs {
        ChaosFs {
            core: Arc::new(ChaosFsCore {
                seed,
                plan,
                clock,
                ops: AtomicU64::new(0),
                injected: AtomicU64::new(0),
            }),
        }
    }

    /// Operations attempted so far (the fault-stream position).
    pub fn op_count(&self) -> u64 {
        self.core.ops.load(Ordering::Relaxed)
    }

    /// Faults injected so far (latency included).
    pub fn faults_injected(&self) -> u64 {
        self.core.injected.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct ChaosFile {
    inner: StdFile,
    core: Arc<ChaosFsCore>,
}

impl VfsFile for ChaosFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        use StorageFault::*;
        match self.core.decide(&[Enospc, ShortWrite]) {
            Some(ShortWrite) => {
                // Land a torn prefix, then fail: the sealed-line scan
                // must discard it on recovery.
                let half = buf.len() / 2;
                let _ = self.inner.write_all(&buf[..half]);
                Err(eio())
            }
            fault => self.core.apply(fault, || self.inner.write_all(buf)),
        }
    }

    fn sync_all(&mut self) -> io::Result<()> {
        self.core
            .inject(&[StorageFault::FsyncFail], || self.inner.sync_all())
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.core
            .inject(&[StorageFault::Eio], || self.inner.set_len(len))
    }

    fn seek_end(&mut self) -> io::Result<u64> {
        // Seeks are pure fd arithmetic; not a fault point.
        self.inner.seek_end()
    }
}

impl Vfs for ChaosFs {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        // Directory creation happens once per store; not a fault point.
        std::fs::create_dir_all(dir)
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.core
            .inject(&[StorageFault::Eio], || std::fs::read(path))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.core
            .inject(&[StorageFault::Enospc], || self.open_raw(path, true))
    }

    fn open_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.core
            .inject(&[StorageFault::Eio], || self.open_raw(path, false))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        use StorageFault::*;
        self.core
            .inject(&[Enospc, Eio], || std::fs::rename(from, to))
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        if self.core.plan.dir_sync_unsupported {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "injected: directory fsync unsupported",
            ));
        }
        self.core
            .inject(&[StorageFault::FsyncFail], || StdFs.sync_dir(dir))
    }
}

impl ChaosFs {
    fn open_raw(&self, path: &Path, truncate: bool) -> io::Result<Box<dyn VfsFile>> {
        let file = if truncate {
            File::create(path)?
        } else {
            OpenOptions::new().write(true).open(path)?
        };
        Ok(Box::new(ChaosFile {
            inner: StdFile(file),
            core: Arc::clone(&self.core),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TickClock;
    use std::sync::atomic::AtomicU32;

    struct TempDir(std::path::PathBuf);
    impl TempDir {
        fn new(tag: &str) -> TempDir {
            static SEQ: AtomicU32 = AtomicU32::new(0);
            let n = SEQ.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir().join(format!("vfs-{tag}-{}-{n}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("mkdir");
            TempDir(dir)
        }
        fn path(&self) -> &Path {
            &self.0
        }
    }
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn chaos(plan: ChaosFsPlan) -> ChaosFs {
        ChaosFs::new(42, plan, Arc::new(TickClock::new()))
    }

    #[test]
    fn stdfs_round_trips() {
        let dir = TempDir::new("std");
        let path = dir.path().join("f");
        let mut f = StdFs.create(&path).expect("create");
        f.write_all(b"hello").expect("write");
        f.sync_all().expect("sync");
        assert_eq!(StdFs.read(&path).expect("read"), b"hello");
        let mut f = StdFs.open_write(&path).expect("open");
        assert_eq!(f.seek_end().expect("seek"), 5);
        f.set_len(2).expect("truncate");
        assert_eq!(StdFs.read(&path).expect("read"), b"he");
    }

    #[test]
    fn scheduled_fault_fires_at_exact_op() {
        let dir = TempDir::new("sched");
        let path = dir.path().join("f");
        // Op 0 = create, op 1 = first write (faulted), op 2 = second.
        let fs = chaos(ChaosFsPlan::at(1, StorageFault::Enospc));
        let mut f = fs.create(&path).expect("create is op 0");
        let err = f.write_all(b"doomed").expect_err("op 1 injects ENOSPC");
        assert_eq!(err.raw_os_error(), Some(28));
        f.write_all(b"fine").expect("op 2 clean");
        assert_eq!(fs.op_count(), 3);
        assert_eq!(fs.faults_injected(), 1);
    }

    #[test]
    fn short_write_lands_a_torn_prefix() {
        let dir = TempDir::new("torn");
        let path = dir.path().join("f");
        let fs = chaos(ChaosFsPlan::at(1, StorageFault::ShortWrite));
        let mut f = fs.create(&path).expect("create");
        f.write_all(b"abcdefgh").expect_err("torn");
        drop(f);
        assert_eq!(StdFs.read(&path).expect("read"), b"abcd");
    }

    #[test]
    fn fault_stream_is_deterministic() {
        let draw = |seed: u64| -> Vec<bool> {
            let fs = ChaosFs::new(
                seed,
                ChaosFsPlan::storm(300),
                Arc::new(TickClock::new()) as Arc<dyn Clock>,
            );
            (0..200)
                .map(|_| fs.core.decide(&[StorageFault::Enospc]).is_some())
                .collect()
        };
        assert_eq!(draw(7), draw(7), "same seed, same schedule");
        assert_ne!(draw(7), draw(8), "different seed, different schedule");
        // The stream itself is pinned: `--chaos-fs` logs replay against it.
        assert_eq!(mix(7, SALT_SHORT, 3), 0xf78c_0544_b4e3_acc1);
    }

    #[test]
    fn storm_keeps_reads_honest() {
        let plan = ChaosFsPlan::storm(400);
        assert_eq!(plan.read_eio_per_mille, 0);
        let dir = TempDir::new("reads");
        let path = dir.path().join("f");
        std::fs::write(&path, b"x").expect("seed file");
        let fs = chaos(plan);
        for _ in 0..100 {
            fs.read(&path).expect("reads never fault in storm profile");
        }
    }

    #[test]
    fn dir_sync_unsupported_mode() {
        let dir = TempDir::new("dirsync");
        let fs = chaos(ChaosFsPlan {
            dir_sync_unsupported: true,
            ..ChaosFsPlan::default()
        });
        let err = fs.sync_dir(dir.path()).expect_err("unsupported");
        assert_eq!(err.kind(), io::ErrorKind::Unsupported);
    }

    #[test]
    fn latency_fault_sleeps_on_the_clock() {
        let dir = TempDir::new("lat");
        let path = dir.path().join("f");
        let clock = Arc::new(TickClock::new());
        let fs = ChaosFs::new(
            9,
            ChaosFsPlan {
                latency_per_mille: 1000,
                latency_seconds: 0.5,
                ..ChaosFsPlan::default()
            },
            clock.clone() as Arc<dyn Clock>,
        );
        let before = clock.now();
        fs.write(&path, b"slow")
            .expect("write succeeds after stall");
        assert!(clock.now() - before >= 0.5, "stall burned virtual time");
    }
}
