//! The multi-tenant overload frontend: admission control, backpressure,
//! and brownout degradation in front of a shared scheduler (DESIGN.md
//! §13).
//!
//! [`TenantFrontend`] composes the deterministic [`AdmissionController`]
//! — per-tenant bounded queues, weighted fair-share draining, quota windows,
//! and the three-rung brownout ladder — with an [`Arc<SharedEas>`]: every
//! request that survives admission executes through the shared table
//! under an [`InvocationCtx`] derived from the current brownout rung and
//! the tenant's deadline budget. Admission outcomes are counted once, by
//! the admission controller, in its per-tenant [`TenantStats`]: the
//! per-tenant series, their totals, the brownout rung and its transitions
//! are read from the controller at scrape time ([`expose_tenants`]), and
//! the SLO breaches from the attached tracker's count. The scheduler's
//! [`HealthReport`](crate::HealthReport) counts only what its own loop
//! does.
//!
//! The frontend adds nothing to the single-tenant fast path: a
//! [`SharedEas`] driven directly (no frontend) never constructs a
//! non-default ctx and takes the exact pre-tenancy code path.

use crate::shared::SharedEas;
use easched_runtime::{
    AdmissionConfig, AdmissionController, AdmissionOutcome, Backend, BrownoutLevel, InvocationCtx,
    KernelId, TenantRegistry, TenantStats,
};
use easched_telemetry::{
    escape_json, expose_rows, expose_rows_labelled, push_json_field, SloTracker, Span, SpanKind,
};
use std::sync::{Arc, Mutex, PoisonError};

easched_telemetry::counter_table! {
    /// The admission controller's unlabelled families on a `/metrics`
    /// page: its rung, the totals of its per-tenant counts, and its
    /// ladder transitions.
    pub report AdmissionSeries;
    /// Current brownout rung (0 normal … 3 shed-load).
    level: gauge = "easched_brownout_level",
        "Brownout rung (0 normal, 1 deny-gpu, 2 force-cpu, 3 shed-load)",
    /// Requests shed (queue overflow, quota, brownout stage 3), summed
    /// over tenants. Adaptation, not a fault.
    requests_shed: counter = "easched_requests_shed_total", "Requests shed by the admission layer",
    /// Requests queued behind earlier arrivals, summed over tenants.
    requests_queued: counter = "easched_requests_queued_total",
        "Requests queued by the admission layer",
    /// Requests refused on a spent GPU quota window, summed over tenants.
    quota_denials: counter = "easched_quota_denials_total",
        "Requests refused on an exhausted GPU quota",
    /// Brownout-ladder rung changes (either direction).
    brownout_transitions: counter = "easched_brownout_transitions_total",
        "Brownout-ladder rung changes",
}

easched_telemetry::counter_table! {
    /// The [`TenantStats`] fields a `/metrics` page carries per tenant.
    pub report TenantSeries;
    /// Offers shed, all causes.
    shed: counter = "easched_tenant_requests_shed_total",
        "Requests shed by the admission layer, per tenant",
    /// Offers queued behind earlier requests.
    queued: counter = "easched_tenant_requests_queued_total",
        "Requests queued by the admission layer, per tenant",
    /// Sheds caused by an exhausted GPU quota.
    quota_denials: counter = "easched_tenant_quota_denials_total",
        "Requests refused on an exhausted GPU quota, per tenant",
}

/// Renders the admission controller's `/metrics` fragment: the
/// [`AdmissionSeries`] (the brownout rung, the per-tenant counts summed,
/// the ladder's `transitions`), then one `tenant="<name>"` sample per
/// tenant of each [`TenantSeries`] row — read from the counters the
/// controller keeps, never re-counted by a sink.
pub fn expose_tenants(
    level: BrownoutLevel,
    transitions: u64,
    tenants: &[(String, TenantStats)],
) -> String {
    let sum = |count: fn(&TenantStats) -> u64| tenants.iter().map(|(_, s)| count(s)).sum();
    let totals = AdmissionSeries {
        level: u64::from(level.code()),
        requests_shed: sum(|s| s.shed),
        requests_queued: sum(|s| s.queued),
        quota_denials: sum(|s| s.quota_denials),
        brownout_transitions: transitions,
    };
    let mut out = String::new();
    expose_rows(&mut out, &AdmissionSeries::ROWS, &totals.values());
    let series = |s: &TenantStats| TenantSeries {
        shed: s.shed,
        queued: s.queued,
        quota_denials: s.quota_denials,
    };
    let series: Vec<_> = tenants
        .iter()
        .map(|(n, s)| (n.as_str(), series(s).values()))
        .collect();
    expose_rows_labelled(&mut out, &TenantSeries::ROWS, "tenant", &series);
    out
}

/// One request handed out by
/// [`drain_detailed`](TenantFrontend::drain_detailed): the admission
/// detail plus the causal trace allocated for it (0 when span tracing is
/// off). Build its execution context with
/// [`ctx_for_request`](TenantFrontend::ctx_for_request) so the
/// scheduler's spans land on the same trace as the admission subtree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmittedRequest {
    /// Owning tenant's registry index.
    pub tenant: usize,
    /// Ticket assigned at offer time.
    pub ticket: u64,
    /// Full ticks the request queued between offer and drain.
    pub(crate) waited_ticks: u64,
    /// Causal trace id, or 0 when tracing is disabled.
    pub(crate) trace: u64,
}

/// A multi-tenant admission frontend over one shared scheduler.
///
/// All admission state sits behind one mutex — admission is a few integer
/// operations per request, orders of magnitude cheaper than the kernel
/// executions it gates, so contention here is never the bottleneck.
/// Kernel execution itself ([`schedule`](TenantFrontend::schedule)) runs
/// *outside* the lock: streams still scale with the shared table's
/// reader parallelism.
#[derive(Debug)]
pub struct TenantFrontend {
    shared: Arc<SharedEas>,
    admission: Mutex<AdmissionController>,
    slo: Option<Arc<SloTracker>>,
}

impl TenantFrontend {
    /// A frontend over `shared` admitting the given tenants.
    pub fn new(
        shared: Arc<SharedEas>,
        registry: TenantRegistry,
        cfg: AdmissionConfig,
    ) -> TenantFrontend {
        TenantFrontend {
            shared,
            admission: Mutex::new(AdmissionController::new(registry, cfg)),
            slo: None,
        }
    }

    /// Attaches an SLO burn-rate tracker (builder form): offers, drains,
    /// and [`observe_request_edp`](Self::observe_request_edp) feed it. It
    /// keeps and counts the alerts it fires; [`expose`](Self::expose)
    /// renders its count beside the tenants.
    pub fn with_slo(mut self, slo: Arc<SloTracker>) -> TenantFrontend {
        self.slo = Some(slo);
        self
    }

    /// The scheduler behind this frontend.
    pub fn shared(&self) -> &Arc<SharedEas> {
        &self.shared
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, AdmissionController> {
        // Admission state stays consistent under poisoning: every mutation
        // completes before the lock drops, and one panicked tenant thread
        // must not deny service to the rest.
        self.admission
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The current `RunLog` offset of the attached sink (0 without a
    /// recording sink) — the exemplar SLO events carry.
    fn log_offset(&self) -> u64 {
        self.shared.telemetry().map_or(0, |s| s.offset())
    }

    /// Offers one request for `tenant`, returning the typed admission
    /// outcome — never an unbounded enqueue. The controller counts it in
    /// the tenant's [`TenantStats`] (overload protection is adaptation,
    /// not a fault: the scheduler's `fault_free()` never sees it).
    pub fn offer(&self, tenant: usize) -> AdmissionOutcome {
        let (outcome, tick) = {
            let mut adm = self.lock();
            (adm.offer(tenant), adm.tick())
        };
        if let Some(slo) = &self.slo {
            let shed = matches!(outcome, AdmissionOutcome::Shed { .. });
            slo.observe_shed(tenant as u64, shed, tick as f64, self.log_offset());
        }
        outcome
    }

    /// Pops up to `slots` queued requests in weighted fair-share order;
    /// each entry is `(tenant, ticket)`.
    pub fn drain(&self, slots: usize) -> Vec<(usize, u64)> {
        self.drain_detailed(slots)
            .into_iter()
            .map(|r| (r.tenant, r.ticket))
            .collect()
    }

    /// [`drain`](Self::drain) with the observability plane attached: each
    /// drained request reports its queue wait, gets a causal trace
    /// allocated (when the sink traces spans) with its admission subtree
    /// — `admit` rooting a `queue-wait` child — already published, and
    /// feeds the queue-wait SLO signal.
    pub fn drain_detailed(&self, slots: usize) -> Vec<AdmittedRequest> {
        let (drained, tick) = {
            let mut adm = self.lock();
            let drained = adm.drain_detailed(slots);
            (drained, adm.tick())
        };
        if drained.is_empty() {
            return Vec::new();
        }
        let sink = self.shared.telemetry();
        let tracing = sink.as_ref().is_some_and(|s| s.wants_spans());
        let offset = self.log_offset();
        drained
            .into_iter()
            .map(|d| {
                let mut trace = 0;
                if tracing {
                    let sink = sink.expect("tracing implies a sink");
                    trace = sink.next_trace();
                    if trace != 0 {
                        let wait = d.waited_ticks as f64;
                        let mut spans = [
                            Span {
                                id: 1,
                                kind: SpanKind::Admit,
                                tenant: d.tenant as u16,
                                dur: wait,
                                payload: d.ticket as f64,
                                ..Span::default()
                            },
                            Span {
                                id: 2,
                                parent: 1,
                                kind: SpanKind::QueueWait,
                                tenant: d.tenant as u16,
                                dur: wait,
                                payload: d.waited_ticks as f64,
                                ..Span::default()
                            },
                        ];
                        sink.span_batch(trace, &mut spans);
                    }
                }
                if let Some(slo) = &self.slo {
                    slo.observe_queue_wait(
                        d.tenant as u64,
                        d.waited_ticks as f64,
                        tick as f64,
                        offset,
                    );
                }
                AdmittedRequest {
                    tenant: d.tenant,
                    ticket: d.ticket,
                    waited_ticks: d.waited_ticks,
                    trace,
                }
            })
            .collect()
    }

    /// Feeds one executed request's predicted and realized EDP into the
    /// SLO engine (the scheduler-visible pair, so record and replay feed
    /// identical streams). No-op without a tracker.
    pub fn observe_request_edp(&self, tenant: usize, predicted: f64, realized: f64) {
        if let Some(slo) = &self.slo {
            let tick = self.lock().tick();
            slo.observe_edp(
                tenant as u64,
                predicted,
                realized,
                tick as f64,
                self.log_offset(),
            );
        }
    }

    /// Debits `gpu_seconds` of GPU-proxy time against the tenant's quota
    /// window and fair-share debt, after its request executed.
    pub fn complete(&self, tenant: usize, gpu_seconds: f64) {
        self.lock().complete(tenant, gpu_seconds);
    }

    /// Feeds one simulated package-power sample to the brownout ladder.
    /// The controller counts a rung change, and each request a shed-load
    /// entry flushes as its tenant's shed.
    pub fn observe_power(&self, watts: f64) -> Option<(BrownoutLevel, BrownoutLevel)> {
        let (from, to, _flushed) = self.lock().observe_power(watts)?;
        Some((from, to))
    }

    /// Advances the admission clock one tick (quota windows and shed
    /// retry horizons are measured in ticks).
    pub fn advance_tick(&self) {
        self.lock().advance_tick();
    }

    /// The invocation context a drained request for `tenant` must execute
    /// under right now: the brownout rung's GPU policy plus the tenant's
    /// deadline budget.
    pub(crate) fn ctx_for(&self, tenant: usize) -> InvocationCtx {
        self.lock().ctx_for(tenant)
    }

    /// The tenant's invocation context bound to a drained request's trace, so
    /// the execution subtree lands on the same trace as its admission
    /// spans.
    pub fn ctx_for_request(&self, req: &AdmittedRequest) -> InvocationCtx {
        let mut ctx = self.ctx_for(req.tenant);
        ctx.trace = req.trace;
        ctx
    }

    /// The ladder's current rung.
    pub fn level(&self) -> BrownoutLevel {
        self.lock().level()
    }

    /// The ladder's rung changes so far, either direction.
    pub fn brownout_transitions(&self) -> u64 {
        self.lock().brownout_transitions()
    }

    /// The worst relative fair-share deficit across eligible tenants
    /// (the ci gate asserts ≤ 5 % under the overload storm).
    pub fn fair_share_deficit(&self) -> f64 {
        self.lock().fair_share_deficit()
    }

    /// Whether every queue respects its tenant's bound (an invariant —
    /// `false` is a bug).
    pub fn queues_bounded(&self) -> bool {
        self.lock().queues_bounded()
    }

    /// A tenant's admission counters.
    pub fn tenant_stats(&self, tenant: usize) -> TenantStats {
        self.lock().tenant_stats(tenant)
    }

    /// The `/tenants` page: the brownout rung and every tenant's
    /// admission counters, names JSON-escaped.
    pub fn render_json(&self) -> String {
        let adm = self.lock();
        let mut out = String::from("{");
        push_json_field(&mut out, "brownout_level", adm.level().code());
        out.push_str(",\"tenants\":[");
        for (tenant, spec) in adm.registry().iter() {
            let stats = adm.tenant_stats(tenant);
            out.push_str(if tenant > 0 { ",{" } else { "{" });
            push_json_field(&mut out, "id", tenant);
            let name = escape_json(&spec.name);
            push_json_field(&mut out, "name", format_args!("\"{name}\""));
            push_json_field(&mut out, "offered", stats.offered);
            push_json_field(&mut out, "admitted", stats.admitted);
            push_json_field(&mut out, "queued", stats.queued);
            push_json_field(&mut out, "shed", stats.shed);
            push_json_field(&mut out, "quota_denials", stats.quota_denials);
            let gpu_seconds = format_args!("{:.6}", stats.gpu_seconds);
            push_json_field(&mut out, "gpu_seconds", gpu_seconds);
            push_json_field(&mut out, "queue_len", stats.queue_len);
            push_json_field(&mut out, "queue_high_water", stats.queue_high_water);
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// This frontend's `/metrics` fragment: [`expose_tenants`], read
    /// under one lock so the rung, the totals and every tenant's row
    /// agree, then the attached SLO tracker's breach counts, if any.
    pub fn expose(&self) -> String {
        let mut page = {
            let adm = self.lock();
            let tenants: Vec<_> = adm
                .registry()
                .iter()
                .map(|(tenant, spec)| (spec.name.clone(), adm.tenant_stats(tenant)))
                .collect();
            expose_tenants(adm.level(), adm.brownout_transitions(), &tenants)
        };
        if let Some(slo) = &self.slo {
            page += &slo.expose();
        }
        page
    }

    /// Executes one admitted request through the shared scheduler under
    /// the tenant's current context. The admission lock is *not* held
    /// during execution.
    pub fn schedule(&self, tenant: usize, kernel: KernelId, backend: &mut dyn Backend) {
        let ctx = self.ctx_for(tenant);
        self.shared.schedule(kernel, backend, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::WorkloadClass;
    use crate::eas::EasConfig;
    use crate::objective::Objective;
    use crate::power_model::{PowerCurve, PowerModel};
    use easched_num::Polynomial;
    use easched_runtime::test_support::FakeBackend;
    use easched_runtime::TenantSpec;
    use easched_telemetry::{RingSink, SloKind};

    fn flat_model(watts: f64) -> PowerModel {
        let curves = WorkloadClass::all()
            .into_iter()
            .map(|c| PowerCurve::new(c, Polynomial::constant(watts), 0.0, 11))
            .collect();
        PowerModel::new("flat", curves)
    }

    fn frontend(sink: Option<Arc<RingSink>>) -> TenantFrontend {
        let cfg = EasConfig::new(Objective::Time);
        let shared = match sink {
            Some(s) => SharedEas::with_telemetry(flat_model(50.0), cfg, s),
            None => SharedEas::new(flat_model(50.0), cfg),
        };
        let registry = TenantRegistry::new(vec![
            TenantSpec::new("a", 1.0).with_queue_cap(2),
            TenantSpec::new("b", 3.0).with_queue_cap(2),
        ]);
        TenantFrontend::new(shared, registry, AdmissionConfig::default())
    }

    #[test]
    fn outcomes_are_counted_by_the_controller_not_the_scheduler() {
        let f = frontend(None);
        assert!(matches!(f.offer(0), AdmissionOutcome::Admit { .. }));
        assert!(matches!(f.offer(0), AdmissionOutcome::Queue { .. }));
        assert!(matches!(f.offer(0), AdmissionOutcome::Shed { .. }));
        let stats = f.tenant_stats(0);
        assert_eq!((stats.queued, stats.shed, stats.quota_denials), (1, 1, 0));
        let report = f.shared().health();
        assert_eq!(report, crate::HealthReport::default());
        assert!(report.fault_free(), "overload protection is not a fault");
    }

    #[test]
    fn metrics_fragment_reads_the_controller_counters() {
        let f = frontend(None);
        for _ in 0..3 {
            f.offer(1);
        }
        let page = f.expose();
        assert!(page.starts_with(
            "# HELP easched_brownout_level Brownout rung (0 normal, 1 deny-gpu, 2 force-cpu, \
             3 shed-load)\n# TYPE easched_brownout_level gauge\neasched_brownout_level 0\n"
        ));
        for sample in [
            "easched_tenant_requests_shed_total{tenant=\"a\"} 0\n",
            "easched_tenant_requests_shed_total{tenant=\"b\"} 1\n",
            "easched_tenant_requests_queued_total{tenant=\"b\"} 1\n",
            "easched_tenant_quota_denials_total{tenant=\"b\"} 0\n",
        ] {
            assert!(page.contains(sample), "{sample} missing from\n{page}");
        }
        // The same fragment carries the totals of the same offers.
        for total in ["shed", "queued"] {
            let sample = format!("easched_requests_{total}_total 1\n");
            assert!(page.contains(&sample), "{page}");
        }
    }

    #[test]
    fn admitted_requests_execute_through_the_shared_table() {
        let f = frontend(None);
        assert!(matches!(f.offer(0), AdmissionOutcome::Admit { .. }));
        let drained = f.drain(4);
        assert_eq!(drained.len(), 1);
        let (tenant, _ticket) = drained[0];
        let mut b = FakeBackend::new(100_000, 1.0e6, 2.0e6);
        f.schedule(tenant, 7, &mut b);
        f.complete(tenant, 0.5);
        assert!(f.shared().learned_alpha(7).is_some());
        assert!(f.queues_bounded());
        assert!(f.tenant_stats(0).gpu_seconds > 0.0);
    }

    #[test]
    fn drained_requests_carry_traces_and_publish_admission_spans() {
        let sink = Arc::new(RingSink::with_capacity(256).with_span_tracing(256, 0xFEED));
        let f = frontend(Some(Arc::clone(&sink)));
        assert!(matches!(f.offer(0), AdmissionOutcome::Admit { .. }));
        f.advance_tick();
        f.advance_tick();
        let drained = f.drain_detailed(4);
        assert_eq!(drained.len(), 1);
        let req = drained[0];
        assert_ne!(req.trace, 0, "tracing sink allocates a trace");
        assert_eq!(req.waited_ticks, 2);

        let spans = sink.span_snapshot();
        assert_eq!(spans.len(), 2, "admit + queue-wait");
        assert_eq!(spans[0].kind, SpanKind::Admit);
        assert_eq!(spans[1].kind, SpanKind::QueueWait);
        assert!(spans.iter().all(|s| s.trace == req.trace));
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[1].payload, 2.0, "waited ticks ride as payload");
        assert_eq!(spans[0].tenant, 0);

        // Executing under the request's ctx chains the decide subtree
        // onto the same trace, after the queue wait.
        let ctx = f.ctx_for_request(&req);
        assert_eq!(ctx.trace, req.trace);
        let mut b = FakeBackend::new(100_000, 1.0e6, 2.0e6);
        f.shared().schedule(7, &mut b, ctx);
        let spans = sink.span_snapshot();
        assert!(spans.len() > 2, "execution subtree published");
        assert!(spans.iter().all(|s| s.trace == req.trace));
        let decide = spans.iter().find(|s| s.kind == SpanKind::Decide).unwrap();
        assert!(decide.start >= 2.0, "execution starts after the queue wait");
        assert!(spans.iter().any(|s| s.kind == SpanKind::Fold));
        assert_eq!(decide.tenant, 0, "ctx tenant labels the execution spans");
    }

    #[test]
    fn untraced_sink_allocates_no_traces_and_no_spans() {
        let sink = Arc::new(RingSink::default());
        let f = frontend(Some(Arc::clone(&sink)));
        f.offer(0);
        let drained = f.drain_detailed(4);
        assert_eq!(drained[0].trace, 0);
        assert!(sink.span_sink().is_none());
    }

    #[test]
    fn sustained_sheds_put_slo_breaches_on_the_frontend_page() {
        let slo = Arc::new(SloTracker::default());
        slo.set_tenant_name(0, "a");
        let shared = SharedEas::new(flat_model(50.0), EasConfig::new(Objective::Time));
        let registry = TenantRegistry::new(vec![TenantSpec::new("a", 1.0).with_queue_cap(1)]);
        let f = TenantFrontend::new(shared, registry, AdmissionConfig::default())
            .with_slo(Arc::clone(&slo));
        assert!(f.expose().contains("easched_slo_breaches_total 0\n"));
        // Queue cap 1 and no drains: every offer past the first sheds.
        // 100 % shed rate burns 10× the 10 % budget in both windows.
        for _ in 0..64 {
            f.offer(0);
        }
        let events = slo.events();
        assert!(!events.is_empty(), "sustained sheds must fire");
        assert_eq!(events[0].kind, SloKind::ShedRate);
        let page = f.expose();
        let n = events.len();
        for sample in [
            format!("easched_slo_breaches_total {n}\n"),
            format!("easched_tenant_slo_breaches_total{{tenant=\"a\"}} {n}\n"),
        ] {
            assert!(page.contains(&sample), "{sample} missing from\n{page}");
        }
    }

    #[test]
    fn brownout_transition_is_counted_and_shapes_ctx() {
        let f = frontend(None);
        // Default budget 45 W, enter margin 1.0, streak 3: sustained
        // 90 W drives the ladder up one rung.
        assert!(f.observe_power(90.0).is_none());
        assert!(f.observe_power(90.0).is_none());
        let t = f.observe_power(90.0);
        assert_eq!(t, Some((BrownoutLevel::Normal, BrownoutLevel::DenyGpu)));
        assert_eq!(f.level(), BrownoutLevel::DenyGpu);
        let page = f.expose();
        assert!(
            page.contains("\neasched_brownout_transitions_total 1\n"),
            "{page}"
        );
        let ctx = f.ctx_for(0);
        assert_ne!(ctx, InvocationCtx::default());
    }

    #[test]
    fn tenants_page_is_json_for_hostile_names() {
        let shared = SharedEas::new(flat_model(50.0), EasConfig::new(Objective::Time));
        // The label-escaping tests' hostile name plus a control byte,
        // which `{:?}` would render as the non-JSON `\u{1b}`.
        let registry = TenantRegistry::new(vec![
            TenantSpec::new("a\"b\\c\nd\u{1b}", 1.0),
            TenantSpec::new("plain", 1.0),
        ]);
        let f = TenantFrontend::new(shared, registry, AdmissionConfig::default());
        f.offer(1);
        f.complete(1, 0.25);
        let page = f.render_json();
        assert!(
            page.starts_with(
                "{\"brownout_level\":0,\"tenants\":[{\"id\":0,\
                 \"name\":\"a\\\"b\\\\c\\nd\\u001b\",\"offered\":0,"
            ),
            "{page}"
        );
        assert!(
            page.ends_with(
                ",{\"id\":1,\"name\":\"plain\",\"offered\":1,\"admitted\":1,\"queued\":0,\
                 \"shed\":0,\"quota_denials\":0,\"gpu_seconds\":0.250000,\"queue_len\":1,\
                 \"queue_high_water\":1}]}"
            ),
            "{page}"
        );
        assert!(!page.chars().any(char::is_control), "{page:?}");
    }
}
