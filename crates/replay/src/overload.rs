//! Record/replay of the canonical multi-tenant overload storm
//! (DESIGN.md §13): eight tenants offering twice the frontend's drain
//! capacity, a bursty co-tenant fault plan hammering the package, and
//! the admission controller's full surface — bounded queues, weighted
//! fair-share draining, quota windows, and the brownout ladder — driven
//! end to end in front of one shared scheduler.
//!
//! Determinism strategy: the admission controller is pure state (no
//! clocks, no RNG), so the log does not carry its *state* — it carries
//! its *inputs*. Traffic derives from the run's [`RunSeed`] (domain
//! `"traffic"`), power samples and GPU-proxy debits derive from the
//! [`DecisionRecord`](easched_telemetry::DecisionRecord) stream the
//! scheduler emits (the same stream replay reproduces bit-for-bit), and
//! every admission verdict is written to the log as a v2
//! [`AdmissionRecord`]. Replay re-runs the controller against the
//! replayed decision stream and re-derives every verdict; byte-equality
//! of the two logs is the proof that the whole overloaded run — sheds,
//! brownout transitions, quota denials and all — reproduced exactly.
//!
//! The power signal fed to the ladder is the *scheduler-visible* energy
//! over time of each tick's decisions — post-chaos, corruption included.
//! That is deliberate and black-box-faithful: the admission layer reads
//! the same telemetry an operator would, not simulator ground truth.

use crate::harness::{
    recording_setup, recording_setup_observed, scheduler_for_log, storm_platform, storm_workloads,
    ReplayError,
};
use crate::log::{AdmissionRecord, RunLog};
use crate::record::{Recorder, RecordingScheduler};
use crate::replay::ReplayBackend;
#[cfg(test)]
use easched_core::{table_to_text, HealthReport};
use easched_core::{EasScheduler, RunSeed, SharedEasExt, TenantFrontend};
use easched_runtime::{
    run_workload, AdmissionConfig, BrownoutLevel, ChaosInjector, FaultPlan, InvocationCtx,
    Scheduler, TenantRegistry, TenantSpec, TenantStats, TenantTraffic, TrafficModel,
};
use easched_sim::Machine;
use easched_telemetry::{RingSink, SloConfig, SloTracker};
use std::sync::{Arc, OnceLock};

pub(crate) use crate::log::VERDICT_EXEC;

/// Billing-quantum band, seconds, for one request's fair-share debit:
/// the measured scheduler-visible occupancy is clamped into
/// `[DEBIT_FLOOR, DEBIT_CEIL]` before it is charged. The band does two
/// jobs. It insulates the ledger from chaos-corrupted timing (the 10 s
/// hang lie would otherwise starve the victim tenant for the rest of
/// the run and read as unfairness), and it bounds the ledger's
/// granularity: the worst-case fair-share deficit after `N` drains is
/// about `DEBIT_CEIL · W / (w_min · N · mean_debit)`, so a narrow band
/// is what makes the ≤ 5 % ci gate meaningful at storm length rather
/// than an artifact of which tenant happened to draw the largest
/// workload last.
const DEBIT_FLOOR: f64 = 0.004;

/// Upper edge of the billing-quantum band (see [`DEBIT_FLOOR`]).
const DEBIT_CEIL: f64 = 0.005;

/// Shape of a recorded overload storm.
#[derive(Debug, Clone)]
pub struct OverloadSpec {
    /// Root seed; traffic and chaos both derive from it.
    pub seed: RunSeed,
    /// Admission ticks to drive.
    pub ticks: u64,
}

impl OverloadSpec {
    /// The canonical storm rooted at `root`: 32 ticks of 2× overload
    /// (long enough for the fair-share ledger to converge inside the
    /// billing-quantum granularity bound — see `DEBIT_FLOOR`).
    pub fn new(root: u64) -> OverloadSpec {
        OverloadSpec {
            seed: RunSeed::new(root),
            ticks: 32,
        }
    }
}

/// The canonical eight-tenant registry: one sheddable batch tenant, a
/// spread of weights, one quota-metered tenant, one deadline-carrying
/// tenant. Tenant ids are registry positions.
pub fn overload_registry() -> TenantRegistry {
    TenantRegistry::new(vec![
        TenantSpec::new("batch", 0.5)
            .with_priority(0)
            .with_queue_cap(4),
        TenantSpec::new("svc-a", 2.0).with_queue_cap(8),
        TenantSpec::new("svc-b", 2.0).with_queue_cap(8),
        TenantSpec::new("svc-c", 2.0).with_queue_cap(8),
        TenantSpec::new("svc-d", 2.0).with_queue_cap(8),
        TenantSpec::new("heavy", 4.0).with_queue_cap(12),
        TenantSpec::new("metered", 1.0)
            .with_quota(0.02)
            .with_queue_cap(4),
        TenantSpec::new("latency", 2.0)
            .with_deadline(30.0)
            .with_queue_cap(8),
    ])
}

/// Per-tenant traffic shapes. Baseline rates sum to ~12 arrivals/tick —
/// twice the storm's drain capacity of 6 slots — and two tenants burst
/// in anti-phase on top of that. Every fairness-eligible tenant's rate
/// sits well above its entitled share of the drain slots, keeping its
/// queue backlogged so the fair-share ledger can actually converge to
/// the weight vector (an idle tenant's "deficit" would be demand, not
/// unfairness).
pub fn overload_traffic() -> Vec<TenantTraffic> {
    vec![
        TenantTraffic::poisson(0.6),
        TenantTraffic::poisson(1.6),
        TenantTraffic::poisson(1.6),
        TenantTraffic::bursty(1.6, 8, 3, 3.0, 0),
        TenantTraffic::bursty(1.6, 8, 3, 3.0, 4),
        TenantTraffic::poisson(3.0),
        TenantTraffic::poisson(0.5),
        TenantTraffic::poisson(1.6),
    ]
}

/// Admission knobs for the canonical storm. The brownout budget sits
/// above the platform's nominal scheduler-visible power (~50 W) so the
/// ladder responds to the co-tenant's surge episodes, not to healthy
/// operation — and can walk back down between episodes. The EWMA weight
/// and streak are tightened from the library defaults so surge episodes
/// resolve within the 32-tick canonical run.
pub fn overload_admission() -> AdmissionConfig {
    AdmissionConfig {
        brownout: easched_runtime::BrownoutConfig {
            power_budget: 65.0,
            enter_margin: 1.0,
            exit_margin: 0.8,
            ewma_weight: 0.5,
            streak: 2,
        },
        slots_per_tick: 6,
        ..AdmissionConfig::default()
    }
}

/// A finished overload recording plus the run's final state and the
/// acceptance-gate measurements.
#[derive(Debug)]
pub struct RecordedOverload {
    /// The sealed v2 log.
    pub log: RunLog,
    /// Final health counters of the shared scheduler.
    #[cfg(test)]
    health: HealthReport,
    /// Final kernel table, as text.
    #[cfg(test)]
    table: String,
    /// Worst relative fair-share deficit at end of run.
    pub fair_share_deficit: f64,
    /// Whether every queue respected its bound throughout (checked at
    /// end; the controller enforces it on every offer).
    pub queues_bounded: bool,
    /// Requests offered across all tenants.
    pub offered: u64,
    /// Requests shed across all tenants (all causes).
    pub shed: u64,
    /// Requests that executed to completion.
    pub executed: usize,
    /// Mean energy-delay product of the executed (admitted) requests,
    /// simulator ground truth.
    pub(crate) mean_admitted_edp: f64,
    /// Brownout rung at end of run.
    pub final_level: BrownoutLevel,
    /// Ladder transitions over the run.
    pub brownout_transitions: u64,
    /// Final per-tenant admission counters, `(name, stats)` in registry
    /// order.
    pub tenant_stats: Vec<(String, TenantStats)>,
    /// The run's root seed and the workload-rotation index of each
    /// executed request, in order: what the clean baseline re-runs.
    seed: RunSeed,
    executed_kinds: Vec<usize>,
    /// The clean baseline, simulated by the first caller that asks.
    clean_mean_edp: OnceLock<f64>,
}

impl RecordedOverload {
    /// Clean-to-overloaded EDP ratio for admitted work (1.0 = no
    /// degradation; the storm-seeds gate asserts ≥ 0.7). The denominator
    /// is the mean EDP of the same workload sequence on an unloaded,
    /// fault-free scheduler — a second simulation of every executed
    /// request, so it runs on the first call and is kept.
    pub fn edp_efficiency(&self) -> f64 {
        let clean = *self
            .clean_mean_edp
            .get_or_init(|| clean_mean_edp(self.seed, &self.executed_kinds));
        if self.mean_admitted_edp > 0.0 && clean > 0.0 {
            clean / self.mean_admitted_edp
        } else {
            1.0
        }
    }
}

/// Outcome of replaying an overload log.
#[derive(Debug)]
pub struct OverloadReplayOutcome {
    /// The log the replay re-recorded.
    #[cfg(test)]
    replayed: RunLog,
    /// Whether the replay reproduced the input under the identity rule
    /// ([`RunLog::first_difference`]): byte-identical for a complete log,
    /// identical up to the cut for a prefix.
    pub identical: bool,
    /// The first violation of that rule, if any (human-readable).
    pub first_difference: Option<String>,
    /// Final health counters of the replaying scheduler.
    #[cfg(test)]
    health: HealthReport,
    /// Final kernel table of the replaying scheduler, as text.
    #[cfg(test)]
    table: String,
}

/// What the shared per-tick driver accumulated.
struct DriveTotals {
    /// Workload-rotation index of each executed request, in order.
    kinds: Vec<usize>,
    /// Ground-truth EDP of each executed request (zeros on replay,
    /// where no simulator runs).
    edps: Vec<f64>,
}

/// Drives `ticks` admission ticks: offers seeded traffic, drains in
/// fair-share order, executes each drained request via `exec`, debits
/// GPU-proxy time from the decision records the execution emitted, and
/// feeds the tick's scheduler-visible power to the brownout ladder.
/// Identical on the record and replay sides — only `exec` differs.
fn drive_overload<E>(
    ticks: u64,
    slots: usize,
    tenants: usize,
    frontend: &TenantFrontend,
    traffic: &TrafficModel,
    recorder: &Arc<Recorder>,
    mut exec: E,
) -> DriveTotals
where
    E: FnMut(usize, u64, InvocationCtx) -> f64,
{
    let mut totals = DriveTotals {
        kinds: Vec::new(),
        edps: Vec::new(),
    };
    for tick in 0..ticks {
        let tick_start = recorder.decision_count();
        for tenant in 0..tenants {
            for _ in 0..traffic.arrivals(tenant, tick) {
                let level = frontend.level().code();
                let outcome = frontend.offer(tenant);
                recorder.note_admission(AdmissionRecord {
                    tick,
                    tenant: tenant as u64,
                    level,
                    verdict: outcome.code(),
                    arg: outcome.arg(),
                });
            }
        }
        for req in frontend.drain_detailed(slots) {
            // `drain_detailed` has already published the admission spans
            // and queue-wait SLO samples (both derived state, absent from
            // the log); the ctx threads the request's trace id into the
            // execution spans.
            let ctx = frontend.ctx_for_request(&req);
            recorder.note_admission(AdmissionRecord {
                tick,
                tenant: req.tenant as u64,
                level: frontend.level().code(),
                verdict: VERDICT_EXEC,
                arg: req.ticket,
            });
            let before = recorder.decision_count();
            let edp = exec(req.tenant, req.ticket, ctx);
            let records = recorder.decisions_since(before);
            // Proxy occupancy: the drain slot held the shared package for
            // the run's scheduler-visible time, so that is what the
            // fair-share ledger and quota window are charged — clamped
            // into the billing-quantum band (hang lies cannot weaponize
            // the ledger; ledger granularity stays below the fairness
            // gate).
            let measured: f64 = records.iter().map(|r| r.profile_time + r.split_time).sum();
            // The EDP SLO signal is scheduler-visible on both sides of
            // replay: predicted objective vs realized energy·time, both
            // straight from the decision stream the replay reproduces
            // bit-for-bit. Ground-truth `edp` would read zero on replay.
            let predicted: f64 = records.iter().map(|r| r.predicted_objective).sum();
            let realized: f64 = records
                .iter()
                .map(|r| (r.profile_energy + r.split_energy) * (r.profile_time + r.split_time))
                .sum();
            frontend.observe_request_edp(req.tenant, predicted, realized);
            let debit = measured.clamp(DEBIT_FLOOR, DEBIT_CEIL);
            frontend.complete(req.tenant, debit);
            totals.kinds.push((req.ticket % 3) as usize);
            totals.edps.push(edp);
        }
        // Package power for the ladder: the mean of per-decision
        // energy-over-time samples. A per-sample ratio is robust to the
        // hang fault's time dilation (a 10 s near-zero-energy lie reads
        // as one ~0 W sample instead of crushing the whole tick), while
        // surge-corrupted samples still pull the mean up — exactly the
        // sustained-pressure signal the ladder hystereses over.
        let records = recorder.decisions_since(tick_start);
        let samples: Vec<f64> = records
            .iter()
            .filter(|r| r.profile_time + r.split_time > 0.0)
            .map(|r| (r.profile_energy + r.split_energy) / (r.profile_time + r.split_time))
            .collect();
        let watts = mean(&samples);
        frontend.observe_power(watts);
        frontend.advance_tick();
    }
    totals
}

/// An overload recording plus the live observability plane that watched
/// it: the span-tracing ring sink (metrics registry + causal spans — the
/// scrape server's providers) and the SLO tracker the frontend fed.
#[derive(Debug)]
pub struct ObservedOverload {
    /// The recording and its acceptance-gate measurements. Its log is
    /// byte-identical to an unobserved recording of the same spec — the
    /// observability plane is strictly derived state.
    pub recorded: RecordedOverload,
    /// The ring sink that observed the run (metrics + spans).
    pub ring: Arc<RingSink>,
    /// The burn-rate tracker; its events carry run-log exemplar offsets
    /// (`easched replay --at <offset>`).
    pub slo: Arc<SloTracker>,
}

/// Records the canonical overload storm, returning the sealed v2 log,
/// the run's final state, and the acceptance-gate measurements.
pub fn record_overload_storm(spec: &OverloadSpec) -> RecordedOverload {
    let (eas, recorder) = recording_setup(spec.seed);
    record_storm_with(spec, eas, recorder, None, None)
}

/// Live handles to an observed storm in flight, passed to the serve
/// hook of [`record_overload_storm_observed_with`] just before the
/// first tick — everything a scrape server's route providers close
/// over.
#[derive(Debug, Clone)]
pub struct LiveObservability {
    /// The admission frontend (tenant stats, brownout level).
    pub frontend: Arc<TenantFrontend>,
    /// Metrics registry + span ring.
    pub ring: Arc<RingSink>,
    /// Burn-rate tracker.
    pub slo: Arc<SloTracker>,
}

/// [`record_overload_storm`] with the observability plane attached: the
/// scheduler's telemetry tees into a span-tracing [`RingSink`], the
/// frontend feeds a [`SloTracker`] (queue-wait, EDP-ratio, and shed-rate
/// burn rates, exemplar offsets from the recorder), and tenant names are
/// registered with the tracker so scrape output carries human labels. The log
/// itself is byte-identical to the unobserved recording.
pub fn record_overload_storm_observed(spec: &OverloadSpec) -> ObservedOverload {
    record_overload_storm_observed_with(spec, |_| {})
}

/// [`record_overload_storm_observed`] with a hook that receives the live
/// handles before the first tick — the `easched serve` subcommand binds
/// its scrape server here, so every page reads a storm actually in
/// flight.
pub fn record_overload_storm_observed_with(
    spec: &OverloadSpec,
    on_live: impl FnOnce(&LiveObservability),
) -> ObservedOverload {
    let (eas, recorder, ring) = recording_setup_observed(spec.seed);
    let slo = Arc::new(SloTracker::new(SloConfig::default()));
    let registry = overload_registry();
    for tenant in 0..registry.len() {
        let name = &registry.spec(tenant).name;
        slo.set_tenant_name(tenant as u64, name);
    }
    let mut on_live = Some(on_live);
    let ring_for_hook = Arc::clone(&ring);
    let recorded = record_storm_with(
        spec,
        eas,
        Arc::clone(&recorder),
        Some(Arc::clone(&slo)),
        Some(&mut |frontend: &Arc<TenantFrontend>| {
            if let Some(hook) = on_live.take() {
                hook(&LiveObservability {
                    frontend: Arc::clone(frontend),
                    ring: Arc::clone(&ring_for_hook),
                    slo: Arc::clone(&slo),
                });
            }
        }),
    );
    ObservedOverload {
        recorded,
        ring,
        slo,
    }
}

/// The frontend hook `record_storm_with` fires once the live handles
/// exist, before the first tick.
type OnLive<'a> = &'a mut dyn FnMut(&Arc<TenantFrontend>);

/// The shared storm body behind both record entry points.
fn record_storm_with(
    spec: &OverloadSpec,
    eas: EasScheduler,
    recorder: Arc<Recorder>,
    slo: Option<Arc<SloTracker>>,
    on_live: Option<OnLive<'_>>,
) -> RecordedOverload {
    let chaos_seed = recorder.derive(spec.seed, "chaos");
    let traffic_seed = recorder.derive(spec.seed, "traffic");

    let shared = eas.into_shared();
    let registry = overload_registry();
    let tenants = registry.len();
    let cfg = overload_admission();
    let slots = cfg.slots_per_tick;
    let mut frontend = TenantFrontend::new(Arc::clone(&shared), registry, cfg);
    if let Some(slo) = slo {
        frontend = frontend.with_slo(slo);
    }
    let frontend = Arc::new(frontend);
    if let Some(hook) = on_live {
        hook(&frontend);
    }
    let traffic = TrafficModel::new(traffic_seed, overload_traffic());

    let workloads = storm_workloads();
    let mut machine = Machine::new(storm_platform());
    // Burst geometry is in backend steps; one admission tick executes
    // roughly 60-100 steps, so these windows give the run distinct
    // multi-tick surge episodes separated by quiet stretches — the
    // tick-scale pressure pattern the ladder's hysteresis is built for.
    let mut injector = ChaosInjector::new(FaultPlan::BurstyTenant {
        seed: chaos_seed,
        period: 320,
        burst_len: 128,
        rate: 0.5,
    });

    let totals = drive_overload(
        spec.ticks,
        slots,
        tenants,
        &frontend,
        &traffic,
        &recorder,
        |_tenant, ticket, ctx| {
            let workload = &workloads[(ticket % 3) as usize];
            let mut handle = shared.handle().with_ctx(ctx);
            let mut recording =
                RecordingScheduler::new(&mut handle, Arc::clone(&recorder), workload.spec().abbrev);
            let (metrics, verification) = run_workload(
                &mut machine,
                workload.as_ref(),
                &mut injector.around(&mut recording),
            );
            assert!(
                verification.is_passed(),
                "chaos corrupts observations, never outputs: {}",
                workload.spec().abbrev
            );
            metrics.energy_joules * metrics.time
        },
    );

    let registry = overload_registry();
    let tenant_stats: Vec<(String, TenantStats)> = (0..tenants)
        .map(|t| (registry.spec(t).name.clone(), frontend.tenant_stats(t)))
        .collect();
    let (offered, shed) = tenant_stats
        .iter()
        .fold((0, 0), |(o, s), (_, st)| (o + st.offered, s + st.shed));
    let executed = totals.kinds.len();
    let mean_admitted_edp = mean(&totals.edps);

    RecordedOverload {
        log: recorder.finish(),
        #[cfg(test)]
        table: table_to_text(shared.table()),
        fair_share_deficit: frontend.fair_share_deficit(),
        queues_bounded: frontend.queues_bounded(),
        offered,
        shed,
        executed,
        mean_admitted_edp,
        final_level: frontend.level(),
        brownout_transitions: frontend.brownout_transitions(),
        tenant_stats,
        #[cfg(test)]
        health: shared.health(),
        seed: spec.seed,
        executed_kinds: totals.kinds,
        clean_mean_edp: OnceLock::new(),
    }
}

/// Mean EDP of the executed workload sequence on an unloaded frontend:
/// same seed, same scheduler construction, same workload order — but no
/// chaos, no admission gating, no brownout. The denominator of
/// [`RecordedOverload::edp_efficiency`].
fn clean_mean_edp(seed: RunSeed, kinds: &[usize]) -> f64 {
    if kinds.is_empty() {
        return 0.0;
    }
    let (mut eas, _recorder) = recording_setup(seed);
    eas.set_telemetry(None);
    let workloads = storm_workloads();
    let mut machine = Machine::new(storm_platform());
    let edps: Vec<f64> = kinds
        .iter()
        .map(|&k| {
            let (metrics, verification) =
                run_workload(&mut machine, workloads[k].as_ref(), &mut eas);
            assert!(verification.is_passed());
            metrics.energy_joules * metrics.time
        })
        .collect();
    mean(&edps)
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Replays an overload log recorded by [`record_overload_storm`]: checks
/// the fingerprints, rebuilds the recording set-up, re-derives traffic
/// from the log's root seed, re-runs the admission controller against the
/// replayed decision stream, and re-records the whole run. The identity
/// check is [`RunLog::first_difference`] of the input against the
/// re-recorded log — it covers every admission verdict, every brownout
/// transition, and every scheduler decision at once. A prefix log (torn
/// tail, or a slice) is held to prefix identity: the re-run regenerates
/// the rest of its final tick past the cut.
pub fn replay_overload_storm(log: &RunLog) -> Result<OverloadReplayOutcome, ReplayError> {
    let log = &*log.replayable();
    let (eas, recorder) = scheduler_for_log(log)?;
    let seed = RunSeed::new(log.root);
    // Mirror the record side's derivation order so the event streams
    // align line for line (the chaos seed steers no replay decisions —
    // faults are baked into the recorded observations).
    let _chaos_seed = recorder.derive(seed, "chaos");
    let traffic_seed = recorder.derive(seed, "traffic");

    let shared = eas.into_shared();
    let registry = overload_registry();
    let tenants = registry.len();
    let cfg = overload_admission();
    let slots = cfg.slots_per_tick;
    let frontend = TenantFrontend::new(Arc::clone(&shared), registry, cfg);
    let traffic = TrafficModel::new(traffic_seed, overload_traffic());

    let invocations = log.invocations();
    // Invocations ahead of the first execution marker belong to no
    // request and are never re-fed.
    let mut feed = invocations
        .iter()
        .filter(|i| i.request.is_some())
        .peekable();
    // Ticks with no offers and no drains leave no trace in the log and
    // change no later admission state, so replaying up to the last
    // eventful tick reproduces the stream exactly.
    let ticks = log
        .admissions()
        .iter()
        .map(|r| r.tick + 1)
        .max()
        .unwrap_or(0);

    let mut request = 0usize;
    drive_overload(
        ticks,
        slots,
        tenants,
        &frontend,
        &traffic,
        &recorder,
        |_tenant, _ticket, ctx| {
            while let Some(invocation) = feed.next_if(|i| i.request == Some(request)) {
                let mut backend = ReplayBackend::new(invocation);
                let mut handle = shared.handle().with_ctx(ctx);
                let mut recording =
                    RecordingScheduler::new(&mut handle, Arc::clone(&recorder), invocation.label);
                recording.schedule(invocation.kernel, &mut backend);
            }
            request += 1;
            0.0
        },
    );

    let replayed = recorder.finish();
    let first_difference = log.first_difference(&replayed);
    Ok(OverloadReplayOutcome {
        #[cfg(test)]
        replayed,
        identical: first_difference.is_none(),
        first_difference,
        #[cfg(test)]
        health: shared.health(),
        #[cfg(test)]
        table: table_to_text(shared.table()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short_spec(root: u64) -> OverloadSpec {
        OverloadSpec {
            ticks: 8,
            ..OverloadSpec::new(root)
        }
    }

    #[test]
    fn overload_storm_replays_byte_identically() {
        let recorded = record_overload_storm(&short_spec(7));
        assert_eq!(recorded.log.version, crate::log::FORMAT_VERSION_ADMISSION);
        let outcome = replay_overload_storm(&recorded.log).unwrap();
        assert!(
            outcome.identical,
            "divergence: {}",
            outcome.first_difference.as_deref().unwrap_or("?")
        );
        assert_eq!(outcome.table, recorded.table);
        assert_eq!(outcome.health, recorded.health);
    }

    #[test]
    fn overload_recording_is_deterministic() {
        let a = record_overload_storm(&short_spec(23));
        let b = record_overload_storm(&short_spec(23));
        assert_eq!(a.log.to_text(), b.log.to_text());
        assert_eq!(a.fair_share_deficit, b.fair_share_deficit);
    }

    #[test]
    fn observed_storm_logs_byte_identically_to_unobserved() {
        // The zero-cost invariant, end to end: spans, SLO tracking, and
        // metrics are derived state, so attaching the whole observability
        // plane must not move a single byte of the recording.
        let plain = record_overload_storm(&short_spec(7));
        let observed = record_overload_storm_observed(&short_spec(7));
        assert_eq!(observed.recorded.log.to_text(), plain.log.to_text());
        // ... while the plane actually observed the run.
        let spans = observed.ring.span_snapshot();
        assert!(!spans.is_empty(), "observed storm must capture spans");
        use easched_telemetry::SpanKind;
        for kind in [SpanKind::Admit, SpanKind::QueueWait, SpanKind::Decide] {
            assert!(
                spans.iter().any(|s| s.kind == kind),
                "missing {kind:?} spans"
            );
        }
        // Admission and execution batches share trace ids (causality
        // across the admit → decide boundary).
        let admit_traces: std::collections::BTreeSet<u64> = spans
            .iter()
            .filter(|s| s.kind == SpanKind::Admit)
            .map(|s| s.trace)
            .collect();
        assert!(
            spans
                .iter()
                .any(|s| s.kind == SpanKind::Decide && admit_traces.contains(&s.trace)),
            "execution spans must join their admission traces"
        );
        // Spans are not in run logs, so nothing else pins the per-phase
        // totals they carry. Captured at the commit before the profile
        // loop totalled the phases itself.
        let trace = easched_telemetry::to_trace_with_spans(&observed.ring.snapshot(), &spans);
        assert_eq!(
            easched_runtime::fnv1a64(trace.as_bytes()),
            0xe464_c961_f534_c570,
            "span trace bytes moved ({} bytes)",
            trace.len()
        );
    }

    #[test]
    fn slo_breach_exemplar_replays_to_the_breaching_slice() {
        // The canonical 32-tick storm sheds hard enough to breach.
        let observed = record_overload_storm_observed(&OverloadSpec::new(7));
        let events = observed.slo.events();
        assert!(!events.is_empty(), "2x overload must breach an SLO");
        // The tracker's count of them is what `/metrics` shows.
        let total = format!("easched_slo_breaches_total {}\n", events.len());
        assert!(observed.slo.expose().contains(&total));

        let event = events[0];
        assert!(
            event.exemplar_offset > 0,
            "exemplar must point into the log"
        );
        let slice = observed.recorded.log.slice_at(event.exemplar_offset);
        assert!(!slice.events.is_empty());
        assert!(slice.events.len() <= event.exemplar_offset as usize);

        // Replaying the slice reproduces it line for line up to the cut
        // (the replay then runs past it, regenerating the rest of the
        // final tick — that tail is beyond the exemplar's claim).
        assert!(!slice.complete, "a cut tick is a prefix, not a whole run");
        let outcome = replay_overload_storm(&slice).unwrap();
        assert!(outcome.replayed.events.len() > slice.events.len());
        assert_eq!(slice.first_difference(&outcome.replayed), None);
        assert!(outcome.identical);
    }

    #[test]
    fn overload_respects_bounds_fairness_and_efficiency() {
        let r = record_overload_storm(&short_spec(7));
        assert!(r.queues_bounded, "queue bound invariant violated");
        assert!(r.offered > r.executed as u64, "storm must oversubscribe");
        assert!(r.shed > 0, "2x load must shed");
        assert!(
            r.fair_share_deficit <= 0.05,
            "fair-share deficit {} > 5%",
            r.fair_share_deficit
        );
        assert!(
            r.edp_efficiency() >= 0.7,
            "admitted-work EDP efficiency {} < 0.7 (overloaded mean EDP {})",
            r.edp_efficiency(),
            r.mean_admitted_edp
        );
        // Chaos faults legitimately disturb `fault_free()` here; the
        // overload-protection-is-not-a-fault invariant is pinned by the
        // chaos-free tenancy unit tests. What the storm must show is
        // that the protection layer actually engaged.
        let queued: u64 = r.tenant_stats.iter().map(|(_, s)| s.queued).sum();
        assert!(queued > 0, "2x load must queue");
        assert!(
            r.brownout_transitions > 0,
            "ladder must move under storm power"
        );
    }
}
