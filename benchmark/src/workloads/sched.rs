//! `sched_miss`, `sched_hit`, `sched_durable`: the paper's overhead path
//! — `SharedEas::handle()` + `RingSink` over the scripted backend — used
//! three ways. One unit is one scheduler lifetime: build, invocations,
//! drop. Rebuilding per unit keeps the table and the scheduler's
//! unbounded decision log bounded, so memory does not grow with how fast
//! the machine happens to be.

use super::{Checks, ScratchDir, Unit, Workload};
use crate::script::{self, ScriptedBackend, Shape};
use crate::seams::{TracedScheduler, TracedSink, TracedVfs};
use crate::stats::Rng;
use crate::trace;
use easched_core::{
    characterize, CharacterizationConfig, EasConfig, Objective, PowerModel, SharedEas,
    SharedEasExt, TableStore,
};
use easched_runtime::vfs::{StdFs, Vfs};
use easched_runtime::{KernelId, Scheduler};
use easched_sim::Platform;
use easched_telemetry::{RingSink, TelemetrySink};
use std::sync::Arc;
use std::time::Instant;

/// Invocations per timed batch — the granularity of `invocation_ns_p50`.
pub const BATCH: usize = 1_024;

/// `EasConfig::new`'s `reprofile_every`: a known kernel re-profiles on
/// every 32nd reuse.
const REPROFILE_EVERY: u64 = 32;

/// `EasConfig::new`'s `profile_stable_rounds`: a profiling pass over a
/// stable shape takes exactly this many decides.
const DECIDES_PER_PROFILE: u64 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedKind {
    /// Never-seen kernels: classify + minimise + accumulate + record on
    /// every invocation.
    Miss,
    /// A warm 64-kernel population: table reads; decide is bypassed.
    Hit,
    /// The hit stream over 4 096 kernels with the journal on a real
    /// directory.
    Durable,
}

impl SchedKind {
    /// Warm population (none for `Miss`).
    ///
    /// Durable's population is bounded on purpose: with unbounded
    /// distinct kernels compaction is O(table) and swamps everything
    /// else (see README, findings).
    fn population(self) -> usize {
        match self {
            SchedKind::Miss => 0,
            SchedKind::Hit => 64,
            SchedKind::Durable => 4_096,
        }
    }

    /// Batches per unit, sized so a unit takes 0.07–0.25 s here.
    ///
    /// `Hit` stays at a quarter of a million invocations for the sake of
    /// `peak_rss_mb`: the scheduler's decision log doubles as it grows,
    /// and whether glibc can extend it in place or must copy depends on
    /// the heap's history. At a million invocations the last doubling is
    /// 3 MB of a 15 MB process and the same run peaks at 15 or 19 MB at
    /// random; at this size it is 0.8 MB.
    fn batches(self) -> usize {
        match self {
            SchedKind::Miss => 64,
            SchedKind::Hit => 256,
            SchedKind::Durable => 256,
        }
    }
}

/// Counts read off the last unit, for the per-layer table.
#[derive(Debug, Default, Clone, Copy)]
pub struct SchedFacts {
    pub invocations: u64,
    pub decides: u64,
    pub table_hits: u64,
    pub ring_dropped: u64,
    pub journal_bytes: u64,
    pub compactions: u64,
    pub write_errors: u64,
}

pub struct Sched {
    kind: SchedKind,
    batches: usize,
    model: PowerModel,
    pool: Vec<Shape>,
    /// Kernel picks of the hit stream, cycled; uniform over the
    /// population.
    stream: Vec<u16>,
    next_kernel: KernelId,
    scratch: Option<ScratchDir>,
    units: u64,
    /// Re-profiling passes the closed form expects in every unit.
    reprofiles: u64,
    pub facts: SchedFacts,
}

impl Sched {
    pub fn build(kind: SchedKind, seed: u64) -> Sched {
        Sched::build_sized(kind, seed, kind.batches())
    }

    /// `batches` timed batches of [`BATCH`] invocations per unit (the
    /// per-layer lanes use short units).
    pub fn build_sized(kind: SchedKind, seed: u64, batches: usize) -> Sched {
        let model = characterize(
            &Platform::haswell_desktop(),
            &CharacterizationConfig::default(),
        );
        let pool = script::pool(seed);
        let mut rng = Rng::new(seed, "stream");
        let population = kind.population() as u64;
        let stream = (0..1usize << 16)
            .map(|_| {
                if population == 0 {
                    0
                } else {
                    rng.below(population) as u16
                }
            })
            .collect();
        let mut sched = Sched {
            kind,
            batches,
            model,
            pool,
            stream,
            next_kernel: 1,
            scratch: (kind == SchedKind::Durable).then(|| ScratchDir::new("durable")),
            units: 0,
            reprofiles: 0,
            facts: SchedFacts::default(),
        };
        sched.reprofiles = sched.count_reprofiles();
        // Warm-up: one untimed lifetime fills caches, the allocator's
        // arenas and (durable) the scratch filesystem's metadata.
        let warm = sched.unit(false);
        assert_eq!(warm.checks.failed, 0, "warm-up unit failed its checks");
        sched
    }

    /// Re-profiles one unit's hit stream triggers: each population kernel
    /// re-profiles on every [`REPROFILE_EVERY`]th reuse (none for `Miss`,
    /// which has no population).
    fn count_reprofiles(&self) -> u64 {
        let mut reuses = vec![0u64; self.kind.population()];
        if !reuses.is_empty() {
            for i in 0..self.batches * BATCH {
                reuses[usize::from(self.stream[i & 0xFFFF])] += 1;
            }
        }
        reuses.iter().map(|m| m / REPROFILE_EVERY).sum()
    }
}

/// Drives one unit's invocations through `sched`. `TRACED` is a
/// compile-time switch so the untraced loop carries no trace code.
fn drive<S: Scheduler, const TRACED: bool>(
    sched: &mut S,
    this: &mut Sched,
    batch_ns: &mut Vec<f64>,
) {
    let mut invoke = |kernel: KernelId, shape: &Shape| {
        let mut backend = ScriptedBackend::new(shape);
        if TRACED {
            trace::span("invocation", || sched.schedule(kernel, &mut backend));
        } else {
            sched.schedule(kernel, &mut backend);
        }
        debug_assert_eq!(easched_runtime::Backend::remaining(&backend), 0);
    };
    let population = this.kind.population();
    let base = this.next_kernel;
    // Warm the population: first sight of each kernel profiles it.
    for k in 0..population {
        invoke(base + k as u64, &this.pool[k]);
    }
    let mut i = 0usize;
    for _ in 0..this.batches {
        let start = Instant::now();
        for _ in 0..BATCH {
            if population == 0 {
                invoke(base + i as u64, &this.pool[i % script::POOL]);
            } else {
                let k = usize::from(this.stream[i & 0xFFFF]);
                invoke(base + k as u64, &this.pool[k]);
            }
            i += 1;
        }
        batch_ns.push(start.elapsed().as_nanos() as f64 / BATCH as f64);
    }
    this.next_kernel += (population + i) as u64;
}

impl Workload for Sched {
    fn unit(&mut self, traced: bool) -> Unit {
        let ring = Arc::new(RingSink::default());
        let sink: Arc<dyn TelemetrySink> = if traced {
            Arc::new(TracedSink(Arc::clone(&ring) as Arc<dyn TelemetrySink>))
        } else {
            Arc::clone(&ring) as Arc<dyn TelemetrySink>
        };
        let vfs: Arc<dyn Vfs> = if traced {
            Arc::new(TracedVfs(Arc::new(StdFs)))
        } else {
            Arc::new(StdFs)
        };
        let dir = self
            .scratch
            .as_ref()
            .map(|s| s.path().join(format!("unit-{}", self.units)));
        self.units += 1;
        let config = EasConfig::new(Objective::EnergyDelay);
        let mut batch_ns = Vec::with_capacity(self.batches);

        let start = Instant::now();
        let eas = match &dir {
            None => SharedEas::with_telemetry(self.model.clone(), config, sink),
            Some(dir) => SharedEas::with_telemetry_persistence_vfs(
                self.model.clone(),
                config,
                dir,
                sink,
                vfs,
            )
            .expect("open journal in scratch dir"),
        };
        if traced {
            drive::<_, true>(&mut TracedScheduler(eas.handle()), self, &mut batch_ns);
        } else {
            drive::<_, false>(&mut eas.handle(), self, &mut batch_ns);
        }
        // The final snapshot belongs to a durable lifetime.
        eas.checkpoint().expect("final checkpoint");
        let decides = eas.decisions();
        let final_table = dir.is_some().then(|| eas.table().snapshot());
        let store = eas
            .store()
            .map(|s| (s.health(), s.generation(), s.write_errors()));
        drop(eas);
        let wall = start.elapsed();

        let population = self.kind.population() as u64;
        let timed = (self.batches * BATCH) as u64;
        let invocations = population + timed;
        let profiled = match self.kind {
            SchedKind::Miss => timed,
            _ => population + self.reprofiles,
        };

        let mut checks = Checks {
            attempted: invocations,
            failed: 0,
        };
        checks.check(decides == DECIDES_PER_PROFILE * profiled, || {
            format!(
                "{:?}: {decides} decides, closed form says {DECIDES_PER_PROFILE} x {profiled}",
                self.kind
            )
        });
        checks.check(ring.recorded() == invocations, || {
            format!("ring holds {} records of {invocations}", ring.recorded())
        });
        let off_grid = ring
            .snapshot()
            .iter()
            .filter(|r| {
                let tenths = r.alpha * 10.0;
                !(0.0..=1.0).contains(&r.alpha) || (tenths - tenths.round()).abs() > 1e-6
            })
            .count() as u64;
        if off_grid > 0 {
            eprintln!("CHECK FAILED: {off_grid} alphas off the 0.1 grid in [0, 1]");
            checks.failed += off_grid;
        }

        let mut facts = SchedFacts {
            invocations,
            decides,
            table_hits: invocations - profiled,
            ring_dropped: ring.dropped(),
            ..SchedFacts::default()
        };
        if let (Some(dir), Some(final_table), Some((health, generation, write_errors))) =
            (&dir, final_table, store)
        {
            facts.journal_bytes = health.bytes_written;
            facts.compactions = generation;
            facts.write_errors = write_errors;
            checks.check(write_errors == 0 && health.io_errors == 0, || {
                format!(
                    "journal saw {write_errors} write errors, {} io errors",
                    health.io_errors
                )
            });
            match TableStore::open(dir) {
                Ok((_, recovered)) => checks
                    .check(recovered.table.snapshot() == final_table, || {
                        "reopened store differs from the final table".into()
                    }),
                Err(e) => checks.check(false, || format!("store does not reopen: {e}")),
            }
            let _ = std::fs::remove_dir_all(dir);
        }
        self.facts = facts;

        Unit {
            invocations,
            wall,
            batch_ns,
            checks,
        }
    }
}
