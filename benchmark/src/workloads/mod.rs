//! The seven workloads. Each is built from the seed (that is its set-up),
//! then asked for fixed-size *units* of work until the run's time is up;
//! heavier output checks run once at the end, outside every timed region.

mod fleet_gossip;
mod paper_suite;
mod replay_storm;
mod sched;
mod tenant_storm;

pub use fleet_gossip::{FleetGossip, TICKS as FLEET_TICKS};
pub use paper_suite::PaperSuite;
pub use replay_storm::ReplayStorm;
pub use sched::{Sched, SchedKind, BATCH};
pub use tenant_storm::{TenantStorm, TICKS as STORM_TICKS};

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// One timed unit of work.
#[derive(Debug, Default)]
pub struct Unit {
    /// Kernel invocations scheduled during the unit.
    pub invocations: u64,
    /// The unit's timed region.
    pub wall: Duration,
    /// Host ns per invocation over the finest batches the workload can
    /// time from outside (1 024 invocations for `sched_*`). Empty when
    /// the entry point offers nothing finer than the unit itself.
    pub batch_ns: Vec<f64>,
    /// Output checks made on this unit, and how many failed.
    pub checks: Checks,
}

#[derive(Debug, Default, Clone, Copy)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Records one check; a failure is explained on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

pub trait Workload {
    /// Runs one unit. `traced` installs the benchmark's seam wrappers
    /// and opens spans; the caller owns the tracer.
    fn unit(&mut self, traced: bool) -> Unit;

    /// End-of-run output checks too heavy to repeat per unit, outside any
    /// timed region. Most workloads check everything unit by unit.
    fn verify(&mut self) -> Checks {
        Checks::default()
    }
}

/// Builds the named workload from the seed. Everything done here is the
/// workload's set-up and is what `setup_s` times.
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "sched_miss" => Box::new(Sched::build(SchedKind::Miss, seed)),
        "sched_hit" => Box::new(Sched::build(SchedKind::Hit, seed)),
        "sched_durable" => Box::new(Sched::build(SchedKind::Durable, seed)),
        "tenant_storm" => Box::new(tenant_storm::TenantStorm::build(seed)),
        "replay_storm" => Box::new(replay_storm::ReplayStorm::build(seed)),
        "fleet_gossip" => Box::new(fleet_gossip::FleetGossip::build(seed)),
        "paper_suite" => Box::new(paper_suite::PaperSuite::build(seed)),
        _ => return None,
    })
}

/// Where the benchmark writes: traces, result files and scratch
/// directories, all inside the checkout.
pub const OUT_DIR: &str = "benchmark/out";

/// A scratch directory under [`OUT_DIR`], removed on drop.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(label: &str) -> ScratchDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = Path::new(OUT_DIR).join(format!(
            "tmp-{}-{label}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        // A stale directory from a killed run with a recycled pid would
        // otherwise be recovered as if it were this run's journal.
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
        ScratchDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
