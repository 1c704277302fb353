//! The one scheduler state, and its shared (`&self`) face.
//!
//! [`SharedEas`] is the only struct that owns EAS scheduler state: the
//! pure [`DecisionEngine`] policy, the sharded [`KernelTable`] G, the
//! atomic [`Health`] pipeline, the decision counter, and the telemetry
//! sink, store and clock the Figure 7 loop (`profile_loop`) reads. Every
//! piece is interior-synchronized, so [`SharedEas::schedule`] takes
//! `&self`: wrap the struct in an `Arc`, hand a
//! [`handle()`](SharedEasExt::handle) to each stream, and every stream
//! both benefits from and contributes to one global table — the paper's
//! "global table G" made literal for multi-programmed workloads. An
//! [`EasHandle`] is the stream's [`Scheduler`]; `SharedEas::schedule` is
//! the loop's only caller.
//!
//! It keeps no per-decision history: a profiling round bumps the counter
//! and is reported to the sink as a [`ControlEvent::Decided`], so what a
//! run remembers of its decisions is what its sink keeps (DESIGN.md §10).
//!
//! [`EasScheduler`] is the exclusive (`&mut self`) face of the same
//! struct: it owns one `SharedEas` by value and derefs to it, so a
//! single-stream driver and N tenants run the identical invocation path
//! and [`EasScheduler::into_shared`] is a move.
//!
//! It is also the one door into G: every write to the table — the loop's
//! and the fleet's — is a `SharedEas::learn` or a [`SharedEas::taint`],
//! which mutate the table and then journal the mutation when a store is
//! attached, so nothing the scheduler remembers can skip the journal.
//!
//! The reuse path (a known kernel arriving again) takes only a shard read
//! lock plus one atomic increment, so concurrent streams re-invoking
//! learned kernels scale with reader parallelism; EXPERIMENTS.md §5
//! carries the contended-lookup numbers.

use crate::eas::{Decision, EasConfig, EasScheduler};
use crate::engine::DecisionEngine;
use crate::health::{Health, HealthReport};
use crate::journal::{Recovered, StoreError, TableStore};
use crate::kernel_table::KernelTable;
use crate::power_model::PowerModel;
use crate::profile_loop;
use crate::selfheal::expose_drift;
use easched_runtime::{Backend, Clock, InvocationCtx, KernelId, Scheduler, StdFs, Vfs, WallClock};
use easched_telemetry::{ControlEvent, TelemetrySink};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The scheme a shared scheduler reports itself as.
const SHARED: &str = "EAS-shared";

/// `<scheme>(<objective>)`: the name a scheduler reports to its drivers.
fn scheme_name(scheme: &str, config: &EasConfig) -> String {
    format!("{scheme}({})", config.objective.name())
}

/// The energy-aware scheduler's state — one instance per platform, carrying
/// the kernel table G across invocations and workloads — with interior
/// synchronization: the Figure 7 policy drivable through `&self` from any
/// number of threads sharing one `Arc`, or through `&mut self` behind an
/// [`EasScheduler`].
///
/// `Clone` is a *fork*: the copy owns its own table, health state and
/// decision counter (and shares the sink, store and clock handles), so
/// schedulers cloned from a pristine one learn independently.
///
/// # Examples
///
/// ```
/// use easched_core::{characterize, CharacterizationConfig, EasConfig, EasRuntime,
///                    Objective, SharedEas};
/// use easched_kernels::suite;
/// use easched_sim::Platform;
/// use std::sync::Arc;
///
/// let platform = Platform::haswell_desktop();
/// let model = characterize(&platform, &CharacterizationConfig::default());
/// let eas = SharedEas::new(model, EasConfig::new(Objective::EnergyDelay));
///
/// // Each stream gets its own runtime; all learn into one table.
/// std::thread::scope(|s| {
///     for _ in 0..4 {
///         let eas = Arc::clone(&eas);
///         s.spawn(move || {
///             let mut rt = EasRuntime::with_shared(Platform::haswell_desktop(), eas);
///             assert!(rt.run(suite::blackscholes_small().as_ref()).verification.is_passed());
///         });
///     }
/// });
/// assert!(!eas.table().is_empty());
/// ```
#[derive(Debug)]
pub struct SharedEas {
    pub(crate) engine: DecisionEngine,
    pub(crate) table: KernelTable,
    pub(crate) health: Health,
    pub(crate) name: String,
    /// Total decision-making profiling rounds, for diagnostics.
    decisions: AtomicU64,
    pub(crate) telemetry: Option<Arc<dyn TelemetrySink>>,
    pub(crate) store: Option<Arc<TableStore>>,
    pub(crate) clock: Arc<dyn Clock>,
}

impl Clone for SharedEas {
    fn clone(&self) -> SharedEas {
        SharedEas {
            engine: self.engine.clone(),
            table: self.table.clone(),
            health: self.health.clone(),
            name: self.name.clone(),
            decisions: AtomicU64::new(self.decisions()),
            telemetry: self.telemetry.clone(),
            store: self.store.clone(),
            clock: Arc::clone(&self.clock),
        }
    }
}

impl SharedEas {
    /// Creates a shareable scheduler from a platform's characterized power
    /// model, ready to wrap in an `Arc`.
    ///
    /// # Panics
    ///
    /// Panics if `config.profile_fraction` is outside (0, 1] — a zero
    /// fraction would silently disable profiling and degenerate every
    /// first-seen kernel to CPU-only execution.
    pub fn new(model: PowerModel, config: EasConfig) -> Arc<SharedEas> {
        Arc::new(SharedEas::build(model, config, SHARED, None, None))
    }

    /// Like [`SharedEas::new`] but with a telemetry sink attached from the
    /// start: every stream's invocations emit
    /// [`DecisionRecord`](easched_telemetry::DecisionRecord)s into the one
    /// sink, interleaved in completion order (DESIGN.md §10).
    pub fn with_telemetry(
        model: PowerModel,
        config: EasConfig,
        sink: Arc<dyn TelemetrySink>,
    ) -> Arc<SharedEas> {
        Arc::new(SharedEas::build(model, config, SHARED, Some(sink), None))
    }

    /// Like [`SharedEas::new`], but with crash-safe persistence rooted at
    /// `dir`: the kernel table — including taint and breaker state — is
    /// recovered from the store's snapshot + journal, and every stream's
    /// subsequent table mutations are journaled so a `kill -9` at any
    /// point loses at most the invocations in flight (DESIGN.md §11).
    pub fn with_persistence(
        model: PowerModel,
        config: EasConfig,
        dir: impl AsRef<Path>,
    ) -> Result<Arc<SharedEas>, StoreError> {
        SharedEas::with_persistence_vfs(model, config, dir, Arc::new(StdFs))
    }

    /// [`SharedEas::with_persistence`] with an explicit [`Vfs`], so
    /// storage-chaos runs can inject I/O faults into the journal without
    /// touching the scheduling path (DESIGN.md §16).
    pub fn with_persistence_vfs(
        model: PowerModel,
        config: EasConfig,
        dir: impl AsRef<Path>,
        vfs: Arc<dyn Vfs>,
    ) -> Result<Arc<SharedEas>, StoreError> {
        let opened = TableStore::open_with(dir, vfs)?;
        let eas = SharedEas::build(model, config, SHARED, None, Some(opened));
        Ok(Arc::new(eas))
    }

    /// [`SharedEas::with_persistence_vfs`] plus a telemetry sink attached
    /// from the start — the full chaos wiring: journaled learning, a
    /// recording sink, injected I/O faults counted in the store's
    /// [`StoreHealth`](crate::StoreHealth).
    pub fn with_telemetry_persistence_vfs(
        model: PowerModel,
        config: EasConfig,
        dir: impl AsRef<Path>,
        sink: Arc<dyn TelemetrySink>,
        vfs: Arc<dyn Vfs>,
    ) -> Result<Arc<SharedEas>, StoreError> {
        let opened = TableStore::open_with(dir, vfs)?;
        let eas = SharedEas::build(model, config, SHARED, Some(sink), Some(opened));
        Ok(Arc::new(eas))
    }

    /// The one constructor under every `new`/`with_*` on both faces: a
    /// fresh state named `<scheme>(<objective>)`, seeded with the table
    /// and breaker state an opened store recovered, if any.
    pub(crate) fn build(
        model: PowerModel,
        config: EasConfig,
        scheme: &str,
        telemetry: Option<Arc<dyn TelemetrySink>>,
        opened: Option<(TableStore, Recovered)>,
    ) -> SharedEas {
        let name = scheme_name(scheme, &config);
        let health = Health::new(&config.fault, config.drift, config.watchdog);
        let (store, table) = match opened {
            Some((store, Recovered { table, breaker, .. })) => {
                health.breaker.restore(breaker);
                (Some(Arc::new(store)), table)
            }
            None => (None, KernelTable::new()),
        };
        SharedEas {
            engine: DecisionEngine::new(model, config),
            table,
            health,
            name,
            decisions: AtomicU64::new(0),
            telemetry,
            store,
            clock: Arc::new(WallClock),
        }
    }

    /// The persistence store, if this scheduler was built with one.
    pub fn store(&self) -> Option<&Arc<TableStore>> {
        self.store.as_ref()
    }

    /// Forces a snapshot + journal compaction now. No-op without a store.
    pub fn checkpoint(&self) -> Result<(), StoreError> {
        match &self.store {
            Some(store) => store.checkpoint(&self.table, self.health.breaker.state()),
            None => Ok(()),
        }
    }

    /// The attached telemetry sink, if any.
    pub fn telemetry(&self) -> Option<&Arc<dyn TelemetrySink>> {
        self.telemetry.as_ref()
    }

    /// The learned offload ratio for a kernel, if any.
    pub fn learned_alpha(&self, kernel: KernelId) -> Option<f64> {
        self.table.lookup(kernel)
    }

    /// Number of α decisions made so far across all streams.
    pub fn decisions(&self) -> u64 {
        self.decisions.load(Ordering::Relaxed)
    }

    /// Counts one profiling-round α decision and reports it to the sink
    /// (the Figure 7 loop calls this once per round, in order). With no
    /// sink attached the scheduler stores nothing per decision.
    pub(crate) fn note_decision(&self, decision: &Decision) {
        self.decisions.fetch_add(1, Ordering::Relaxed);
        if let Some(sink) = &self.telemetry {
            sink.control(&ControlEvent::Decided {
                kernel: decision.kernel,
                r_c: decision.r_c,
                r_g: decision.r_g,
                class: decision.class.index() as u8,
                n_remaining: decision.n_remaining,
                alpha: decision.alpha,
            });
        }
    }

    /// The shared kernel table G (memory layer).
    pub fn table(&self) -> &KernelTable {
        &self.table
    }

    /// Step 26, and half of the one door into G: folds α into the
    /// kernel's entry under the configured accumulation, then journals
    /// the state the fold returned. A `suspect` fold (a degraded pass's)
    /// is marked before it is journaled, so its `put` already says
    /// tainted ahead of the `taint` record.
    pub(crate) fn learn(&self, kernel: KernelId, alpha: f64, weight: f64, suspect: bool) {
        let mode = self.engine.config().accumulation;
        let stat = self.table.accumulate(kernel, alpha, weight, mode);
        if suspect {
            self.table.taint(kernel);
        }
        if let Some(store) = &self.store {
            store.record_put(&self.table, kernel, stat, suspect);
            if suspect {
                store.record_taint(kernel);
            }
        }
    }

    /// The other half of the door: marks the kernel's entry suspect, so
    /// its next invocation re-profiles, then journals the mark so the
    /// quarantine survives a `kill -9`. Every taint — fault pipeline,
    /// watchdog, drift monitor, fleet — comes through here.
    pub fn taint(&self, kernel: KernelId) {
        self.table.taint(kernel);
        if let Some(store) = &self.store {
            store.record_taint(kernel);
        }
    }

    /// Fault-pipeline telemetry aggregated across all streams (see
    /// [`HealthReport`]). All zeros on a healthy platform.
    pub fn health(&self) -> HealthReport {
        self.health.report()
    }

    /// This scheduler's `/metrics` fragment, read from its owners at
    /// scrape time: the [`health`](SharedEas::health) rows that carry a
    /// series name, the store's [`StoreHealth`](crate::StoreHealth) rows
    /// (zeros without a store), then the drift EWMA of every kernel in G
    /// that has folded a sample ([`expose_drift`]). A sink attached late
    /// misses none of it.
    pub fn expose(&self) -> String {
        let store = self.store.as_ref().map(|s| s.health()).unwrap_or_default();
        self.health().expose() + &store.expose() + &expose_drift(&self.table.drifts())
    }

    /// The fault-handling state shared by all streams (breaker inspection
    /// for diagnostics).
    pub fn health_state(&self) -> &Health {
        &self.health
    }

    /// Executes one kernel invocation under an admission context: the
    /// ctx's GPU policy gates offloading (brownout throttling) and its
    /// deadline budget composes with the watchdog's own deadlines. A
    /// default ctx is the single-tenant path. Safe to call concurrently
    /// from many threads, each with its own backend.
    pub fn schedule(&self, kernel: KernelId, backend: &mut dyn Backend, ctx: InvocationCtx) {
        profile_loop::schedule_invocation(self, kernel, backend, ctx);
    }
}

/// `Arc<SharedEas>` conveniences.
pub trait SharedEasExt {
    /// A cheap per-stream [`EasHandle`] under the default (single-tenant)
    /// context, so existing drivers ([`EasRuntime`](crate::EasRuntime),
    /// harnesses, traces) run against the shared table unchanged.
    fn handle(&self) -> EasHandle;
}

impl SharedEasExt for Arc<SharedEas> {
    fn handle(&self) -> EasHandle {
        EasHandle {
            eas: Arc::clone(self),
            ctx: InvocationCtx::default(),
        }
    }
}

/// One workload stream's [`Scheduler`] over an `Arc<SharedEas>`: every
/// invocation it schedules runs [`SharedEas::schedule`] under the
/// handle's admission context. Clone one per stream; every clone drives
/// the same state and shares its learned table.
#[derive(Debug, Clone)]
pub struct EasHandle {
    eas: Arc<SharedEas>,
    ctx: InvocationCtx,
}

impl EasHandle {
    /// The same handle under the given admission context (builder form).
    pub fn with_ctx(mut self, ctx: InvocationCtx) -> EasHandle {
        self.ctx = ctx;
        self
    }

    /// The scheduler state this handle drives.
    pub(crate) fn shared(&self) -> &Arc<SharedEas> {
        &self.eas
    }
}

impl Scheduler for EasHandle {
    fn name(&self) -> &str {
        &self.eas.name
    }

    fn schedule(&mut self, kernel: KernelId, backend: &mut dyn Backend) {
        self.eas.schedule(kernel, backend, self.ctx);
    }
}

impl EasScheduler {
    /// Converts an exclusive scheduler into a shareable one — a move of
    /// the one state struct, so the learned table, health, decision
    /// count, sink, store and clock all arrive. Useful for warming a
    /// table single-threaded, then serving it to N streams.
    pub fn into_shared(self) -> Arc<SharedEas> {
        let mut state = self.state;
        state.name = scheme_name(SHARED, state.engine.config());
        Arc::new(state)
    }
}

// Whole point of the type; fail the build if a field ever loses it.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SharedEas>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::WorkloadClass;
    use crate::objective::Objective;
    use crate::power_model::PowerCurve;
    use easched_num::Polynomial;
    use easched_runtime::test_support::FakeBackend;
    use easched_runtime::TickClock;
    use easched_telemetry::{DecisionCsvSink, FanoutSink, RingSink};

    fn ring() -> Arc<RingSink> {
        Arc::new(RingSink::with_capacity(64))
    }

    /// A ring for the per-invocation records and a collector for the
    /// per-round decisions, behind the one sink a scheduler takes.
    fn ring_and_rounds() -> (Arc<RingSink>, Arc<DecisionCsvSink>, Arc<dyn TelemetrySink>) {
        let (ring, rounds) = (ring(), Arc::new(DecisionCsvSink::default()));
        let both = FanoutSink::new(vec![ring.clone(), rounds.clone()]);
        (ring, rounds, Arc::new(both))
    }

    fn flat_model(watts: f64) -> PowerModel {
        let curves = WorkloadClass::all()
            .into_iter()
            .map(|c| PowerCurve::new(c, Polynomial::constant(watts), 0.0, 11))
            .collect();
        PowerModel::new("flat", curves)
    }

    #[test]
    fn shared_matches_exclusive_single_stream() {
        let cfg = EasConfig::new(Objective::Time);
        let (sink_x, rounds_x, both_x) = ring_and_rounds();
        let (sink_s, rounds_s, both_s) = ring_and_rounds();
        let mut exclusive = EasScheduler::new(flat_model(50.0), cfg.clone());
        exclusive.set_telemetry(Some(both_x));
        exclusive.set_clock(Arc::new(TickClock::new()));
        let mut state = SharedEas::build(flat_model(50.0), cfg, SHARED, Some(both_s), None);
        state.clock = Arc::new(TickClock::new());
        let shared = Arc::new(state);

        // Profile, reuse, then a sub-occupancy sliver on a second kernel.
        for (kernel, n) in [(7, 100_000), (7, 100_000), (8, 100)] {
            let mut b1 = FakeBackend::new(n, 1.0e6, 2.0e6);
            exclusive.schedule(kernel, &mut b1);
            let mut b2 = FakeBackend::new(n, 1.0e6, 2.0e6);
            shared.handle().schedule(kernel, &mut b2);
            assert_eq!(b1.log, b2.log, "identical backend traffic");
        }

        // One state, one loop: the faces emit the same record stream...
        let (rec_x, rec_s) = (sink_x.snapshot(), sink_s.snapshot());
        assert_eq!(rec_x.len(), 3);
        assert_eq!(rec_x.len(), rec_s.len());
        for (x, s) in rec_x.iter().zip(&rec_s) {
            assert!(x.bitwise_eq(s), "{x:?} vs {s:?}");
        }
        assert_eq!(exclusive.learned_alpha(7), shared.learned_alpha(7));
        assert_eq!(exclusive.decisions(), shared.decisions());
        // ...and decide identically round by round, one row per decision.
        assert_eq!(rounds_x.csv(), rounds_s.csv());
        let rows = rounds_s.csv().lines().count() as u64 - 1;
        assert_eq!(rows, shared.decisions());
        assert!(rows > 0);
        assert_eq!(exclusive.health(), shared.health());
        // ...and differ only in what they call themselves.
        assert_eq!(Scheduler::name(&exclusive), "EAS(time)");
        assert_eq!(shared.handle().name(), "EAS-shared(time)");
    }

    #[test]
    fn into_shared_carries_learned_state() {
        let dir = std::env::temp_dir().join(format!("easched-into-shared-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sink = ring();
        let clock: Arc<dyn Clock> = Arc::new(TickClock::new());
        let cfg = EasConfig::new(Objective::Time);
        let mut eas = EasScheduler::with_persistence(flat_model(50.0), cfg, &dir).unwrap();
        eas.set_telemetry(Some(sink.clone()));
        eas.set_clock(Arc::clone(&clock));
        let mut b = FakeBackend::new(100_000, 1.0e6, 2.0e6);
        eas.schedule(7, &mut b);
        let alpha = eas.learned_alpha(7);
        let decisions = eas.decisions();
        let store = Arc::clone(eas.store().unwrap());

        let shared = eas.into_shared();
        assert_eq!(shared.learned_alpha(7), alpha);
        assert_eq!(shared.decisions(), decisions);
        assert_eq!(shared.handle().name(), "EAS-shared(time)");
        // The sink, store and clock arrive too (the overload harness
        // records through exactly these after `into_shared`).
        assert!(Arc::ptr_eq(shared.store().unwrap(), &store));
        assert!(Arc::ptr_eq(&shared.clock, &clock));

        // The carried table is reused, not re-profiled — and the reuse is
        // recorded on the carried sink.
        let mut b2 = FakeBackend::new(100_000, 1.0e6, 2.0e6);
        shared.handle().schedule(7, &mut b2);
        assert_eq!(b2.log.len(), 1, "{:?}", b2.log);
        assert_eq!(sink.recorded(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn handle_is_cheap_and_named() {
        let shared = SharedEas::new(flat_model(50.0), EasConfig::new(Objective::Energy));
        let h = shared.handle();
        assert_eq!(Scheduler::name(&h), "EAS-shared(energy)");
        let h2 = h.clone();
        assert_eq!(Scheduler::name(&h2), "EAS-shared(energy)");
    }
}
