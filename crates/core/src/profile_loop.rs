//! The per-invocation Figure 7 control flow over the one scheduler state,
//! [`SharedEas`] — reached from both of its faces through
//! [`SharedEas::schedule`], the loop's only caller.
//!
//! This is the *observation-driven* loop: reuse a learned ratio from the
//! kernel table when one exists (steps 2–4), run tiny invocations CPU-only
//! (steps 6–10), otherwise repeat online profiling and re-decide α each
//! round (steps 11–22), then run the remainder at the decided ratio and
//! fold it into G with sample weighting (steps 23–26). The loop itself
//! owns no state — it reads the engine (policy), reads/writes the table
//! (memory), drives the backend (observation), and reports every decision
//! to the state's counter and sink.
//!
//! # Fault handling (DESIGN.md §9)
//!
//! Every profiling observation is vetted by the engine's
//! [`ObservationGuard`](crate::ObservationGuard) before it can influence a
//! decision. A rejected round is retried with a *backed-off* GPU chunk
//! (halved per consecutive rejection) up to
//! [`FaultPolicy::max_retries`](crate::FaultPolicy); past the budget the
//! invocation *degrades*: it runs its remainder at the last trusted α (or
//! CPU-only if none) and learns nothing. GPU-implicating faults also feed
//! the [`CircuitBreaker`](crate::CircuitBreaker): once it trips, whole
//! invocations are gated to CPU-only until the quarantine is served and a
//! probe invocation finds the GPU healthy again. Any invocation that saw a
//! fault taints the kernel's table entry, forcing a re-profile on the next
//! reuse. On a healthy platform none of these paths activate and the loop
//! is behavior-identical to the unguarded original.
//!
//! # Telemetry (DESIGN.md §10)
//!
//! The loop totals what each phase observed as it goes — every
//! [`Observation`] a backend call returns, rejected rounds included, in
//! call order — and tags which Figure 7 branch ran. With a
//! [`TelemetrySink`] attached, the vet+decide path is also timed on the
//! state's clock and one [`DecisionRecord`] per invocation is built from
//! those totals. With no sink (the default) the same loop runs and its
//! summary is dropped: no clock read, no record, and the totals cost a
//! few float adds per backend call. Watchdog and drift outcomes are
//! counted once, on the state's health counters, and each drift fold
//! lands in the kernel's cell of G; `/metrics` reads both there. The sink
//! hears only each round's decision.

use crate::eas::Decision;
use crate::engine::Prediction;
use crate::guard::FaultKind;
use crate::health::BreakerGate;
use crate::selfheal::DriftAction;
use crate::shared::SharedEas;
use easched_runtime::{Backend, Clock, GpuPolicy, InvocationCtx, KernelId, Observation};
use easched_telemetry::{DecisionRecord, InvocationPath, Span, SpanKind, TelemetrySink};

/// What `drive` learned about the invocation, for record construction.
struct InvocationSummary {
    path: InvocationPath,
    last: Option<Decision>,
    /// The model's prediction for `last`, on the exits whose final split
    /// ran at its α.
    prediction: Option<Prediction>,
    rounds: u32,
    fault_rounds: u32,
    last_fault: Option<FaultKind>,
    /// The α the remainder actually executed at.
    alpha: f64,
    decide_nanos: u64,
    /// Total of every profiling round's observation, rejected ones
    /// included.
    profile: Observation,
    /// Total of the split runs (one, or none when profiling consumed the
    /// whole invocation).
    split: Observation,
}

/// The summary of an invocation that skipped profiling: one split at
/// `alpha`.
fn one_split(path: InvocationPath, alpha: f64, split: &Observation) -> Option<InvocationSummary> {
    Some(InvocationSummary {
        path,
        last: None,
        prediction: None,
        rounds: 0,
        fault_rounds: 0,
        last_fault: None,
        alpha,
        decide_nanos: 0,
        profile: Observation::default(),
        split: total(split),
    })
}

/// `obs` accumulated onto zero, so a phase of one call carries the same
/// bits as a phase of many.
fn total(obs: &Observation) -> Observation {
    let mut sum = Observation::default();
    sum.accumulate(obs);
    sum
}

/// Executes one kernel invocation under the EAS policy.
///
/// Every profiling-round α decision is counted on `eas` and reported to
/// its sink, in order. With a telemetry sink attached, one
/// [`DecisionRecord`] is emitted after the invocation completes.
pub(crate) fn schedule_invocation(
    eas: &SharedEas,
    kernel: KernelId,
    backend: &mut dyn Backend,
    ctx: InvocationCtx,
) {
    let sink = eas.telemetry.as_deref();
    let items = backend.remaining();
    if let (Some(summary), Some(sink)) = (drive(eas, kernel, backend, ctx), sink) {
        let record = build_record(eas, kernel, items, &summary);
        sink.record(&record);
        if sink.wants_spans() {
            emit_invocation_spans(sink, kernel, ctx, &record, &summary);
        }
    }
    if let Some(store) = eas.store.as_deref() {
        // Deduplicated inside the store: only actual transitions append.
        store.record_breaker(eas.health.breaker.state());
    }
}

/// Nanoseconds elapsed on `clock` since `started` (clamped at zero).
fn elapsed_nanos(clock: &dyn Clock, started: f64) -> u64 {
    ((clock.now() - started).max(0.0) * 1.0e9) as u64
}

/// The §11 post-split control hook, shared by every path that executed a
/// chunk: first the watchdog checks the chunk against its hard deadline —
/// an overrun taints the entry and feeds the breaker exactly like a hung
/// profiling round — then, when the split is drift-eligible (`drift`
/// carries the predicted EDP and item count), its realized EDP is folded
/// into the kernel's drift EWMA and the monitor's verdict is acted on:
/// a `Reprofile` taints the entry so the next invocation re-profiles, a
/// `Suppressed` only counts (the token bucket was empty). Implausible
/// observations are vetted out before they can steer the loop, so none
/// of the §9 fault signatures ever reach the drift monitor.
fn after_split(
    eas: &SharedEas,
    kernel: KernelId,
    obs: &Observation,
    deadline: Option<f64>,
    drift: Option<(Option<f64>, u64)>,
) {
    let (engine, table, health) = (&eas.engine, &eas.table, &eas.health);
    if health
        .watchdog()
        .split_overrun_within(obs.elapsed, deadline)
    {
        health.stats.split_overruns.inc();
        // A chunk that busted its hard deadline implicates the GPU the
        // same way a hung profiling round does, and the learned ratio it
        // ran under is suspect — re-profile before the next reuse.
        if health.breaker.record_gpu_fault() {
            health.stats.breaker_trips.inc();
        }
        eas.taint(kernel);
        return;
    }
    let Some((predicted_edp, items)) = drift else {
        return;
    };
    if engine.vet(obs).is_err() {
        return; // §9 territory: faults must not steer the drift loop
    }
    let realized_edp = obs.energy_joules * obs.elapsed;
    // Every caller holds an entry — table hits by definition, profiled
    // passes because step 26 ran first — so the cell is there to fold.
    let monitor = health.drift();
    let fold = |cell: &_| monitor.observe(cell, predicted_edp, realized_edp, items);
    let Some(outcome) = table.drift(kernel, fold).flatten() else {
        return;
    };
    match outcome.action {
        DriftAction::Observed => {}
        DriftAction::Reprofile => {
            // Adaptation, not a fault: the entry goes stale so the next
            // invocation re-profiles, but `fault_free()` stays true.
            health.stats.drift_reprofiles.inc();
            eas.taint(kernel);
        }
        DriftAction::Suppressed => health.stats.reprofiles_suppressed.inc(),
    }
}

/// The Figure 7 control flow proper. Returns `None` for empty
/// invocations (nothing ran, nothing to record). The decide timer — read
/// from `clock`, wall by default, deterministic under record/replay —
/// runs only when a sink is attached (only the telemetry path pays for
/// it); every write to G goes through [`SharedEas::learn`] and
/// [`SharedEas::taint`], which journal it when a store is present so the
/// invocation's learning survives a crash (DESIGN.md §11).
fn drive(
    eas: &SharedEas,
    kernel: KernelId,
    backend: &mut dyn Backend,
    ctx: InvocationCtx,
) -> Option<InvocationSummary> {
    let (engine, table, health) = (&eas.engine, &eas.table, &eas.health);
    let clock = eas.clock.as_ref();
    let timed = eas.telemetry.is_some();
    let n = backend.remaining();
    if n == 0 {
        return None;
    }
    let profile_size = backend.gpu_profile_size();
    let config = engine.config();

    // Overload gate (DESIGN.md §13): an admission context that denies the
    // GPU outright runs the whole invocation CPU-only and learns nothing —
    // the same shape as a quarantined invocation, but driven by the
    // brownout ladder rather than the breaker, so the breaker's quarantine
    // countdown is not consumed and no probe is wasted on a request that
    // was never going to touch the GPU.
    if ctx.gpu == GpuPolicy::Deny {
        health.stats.throttled_invocations.inc();
        let obs = backend.run_split(0.0);
        return one_split(InvocationPath::Throttled, 0.0, &obs);
    }

    // §9 gate: with the breaker open the GPU is quarantined — run the
    // whole invocation CPU-only and learn nothing (a ratio learned during
    // an outage would poison the table for the healthy future). A `Probe`
    // gate falls through to profiling but skips table reuse, so the GPU is
    // actually exercised and a clean observation can close the breaker.
    let probing = match health.breaker.gate() {
        BreakerGate::Normal => false,
        BreakerGate::Probe => {
            health.stats.probes.inc();
            true
        }
        BreakerGate::CpuOnly => {
            health.stats.quarantined_invocations.inc();
            let obs = backend.run_split(0.0);
            return one_split(InvocationPath::Quarantined, 0.0, &obs);
        }
    };

    // Steps 2–4: reuse the learned ratio for known kernels (unless a
    // periodic re-profile is due, or the entry is tainted by an earlier
    // faulty invocation). The small-N guard of steps 6–8 still applies on
    // this path: an invocation too small to fill the GPU runs on the CPU
    // regardless of the learned ratio — offloading a sub-occupancy sliver
    // would waste both time and energy (this is the reason the guard
    // exists, and it matters for cascade-style kernels like FD whose
    // invocation sizes swing by orders of magnitude).
    //
    // The loop's one read of G before it executes: a miss answers with
    // the kernel's fleet warm-start prior (DESIGN.md §15), a ratio the
    // same kernel learned on another platform, which narrows the α search
    // window below. Profiling still runs in full — the prior is a hint,
    // never truth. With no fleet attached there are no priors and this
    // path is byte-identical to the unprimed loop. A probing invocation
    // skips reuse, so it must not count as one either.
    let probe = if probing {
        Err(table.prior(kernel))
    } else {
        table.probe(kernel)
    };
    let (reprofiling, prior) = match probe {
        Ok(probe) => {
            // DenyNew (brownout stage 1) suppresses a due re-profile: the
            // learned ratio is still served, but no *new* GPU profiling
            // work starts while the package is hot.
            let due_reprofile = (probe.tainted
                || config
                    .reprofile_every
                    .is_some_and(|k| probe.invocations_seen % k == 0))
                && n >= profile_size
                && ctx.gpu == GpuPolicy::Allow;
            if !due_reprofile {
                let alpha = if n < profile_size { 0.0 } else { probe.alpha };
                let obs = backend.run_split(alpha);
                // Reused ratios are exactly what the drift monitor guards:
                // no profiling round re-validated them this invocation.
                // Sub-occupancy slivers ran CPU-only regardless of the
                // learned ratio, so they carry no drift signal.
                let drift = (n >= profile_size).then_some((None, n));
                after_split(eas, kernel, &obs, ctx.deadline, drift);
                return one_split(InvocationPath::TableHit, alpha, &obs);
            }
            // Fall through to a fresh profiling pass that re-accumulates.
            (true, None)
        }
        Err(prior) => (false, prior),
    };

    // Steps 6–10: tiny invocations cannot fill the GPU — CPU alone.
    if n < profile_size {
        let obs = backend.run_split(0.0);
        eas.learn(kernel, 0.0, n as f64, false);
        // Watchdog only: a CPU-only sliver carries no drift signal, but a
        // hung chunk still has to be caught. Ordered after the accumulate
        // so an overrun's taint is not immediately cleared by it.
        after_split(eas, kernel, &obs, ctx.deadline, None);
        return one_split(InvocationPath::SmallN, 0.0, &obs);
    }

    // DenyNew with nothing to reuse: profiling would be fresh GPU work,
    // which brownout stage 1 forbids — run CPU-only and learn nothing (a
    // ratio learned under a denied GPU would poison the table, exactly as
    // during a quarantine).
    if ctx.gpu != GpuPolicy::Allow {
        health.stats.throttled_invocations.inc();
        let obs = backend.run_split(0.0);
        return one_split(InvocationPath::Throttled, 0.0, &obs);
    }

    // Steps 11–22: repeat profiling for `profile_fraction` of the
    // iterations, re-deciding α each round. Rejected rounds are retried
    // with a backed-off chunk; sustained rejection degrades the
    // invocation.
    let profile_until = ((n as f64) * (1.0 - config.profile_fraction)) as u64;
    let mut alpha = 0.0;
    let mut alpha_weight = 0.0;
    let mut streak = 0usize;
    let mut rejected_streak: u32 = 0;
    let mut faulty_rounds: u64 = 0;
    let mut gave_up = false;
    let mut rounds: u32 = 0;
    let mut last = None;
    let mut last_fault = None;
    let mut decide_nanos: u64 = 0;
    let mut profile = Observation::default();
    while backend.remaining() > profile_until.max(profile_size) {
        let before = backend.remaining();
        // Bounded backoff: each consecutive rejection halves the chunk so
        // a misbehaving device wastes geometrically less work per retry.
        let chunk = (profile_size >> rejected_streak.min(16)).max(1);
        let obs = backend.profile_step(chunk);
        profile.accumulate(&obs);
        let consumed = before - backend.remaining();
        if consumed == 0 {
            break; // safety: no progress (degenerate backend)
        }
        let started = timed.then(|| clock.now());
        // §11 watchdog: a profiling round that busted its hard deadline is
        // cancelled — typed as a fault so it rides the same rejection path
        // (backed-off retry, breaker escalation, degradation) as the §9
        // signatures, which the vet below would let through: a hung round
        // can report perfectly plausible rates.
        let vetted = if health
            .watchdog()
            .profile_overrun_within(obs.elapsed, ctx.deadline)
        {
            health.stats.watchdog_trips.inc();
            Err(FaultKind::DeadlineExceeded)
        } else {
            engine.vet(&obs)
        };
        if let Err(fault) = vetted {
            if let Some(t) = started {
                decide_nanos += elapsed_nanos(clock, t);
            }
            last_fault = Some(fault);
            health.stats.observations_rejected.inc();
            faulty_rounds += 1;
            if fault.implicates_gpu() && health.breaker.record_gpu_fault() {
                health.stats.breaker_trips.inc();
            }
            if health.breaker.is_open() || rejected_streak >= config.fault.max_retries {
                gave_up = true;
                break;
            }
            rejected_streak += 1;
            health.stats.retries.inc();
            continue;
        }
        health.stats.observations_accepted.inc();
        if obs.gpu_items > 0 && health.breaker.record_clean_gpu() {
            health.stats.recoveries.inc();
        }
        rejected_streak = 0;
        let decision = engine.decide_with_prior(kernel, &obs, backend.remaining(), prior);
        if let Some(t) = started {
            decide_nanos += elapsed_nanos(clock, t);
        }
        rounds += 1;
        last = Some(decision);
        let decided = decision.alpha;
        eas.note_decision(&decision);
        streak = if (decided - alpha).abs() < 1e-9 && alpha_weight > 0.0 {
            streak + 1
        } else {
            1
        };
        alpha = decided;
        alpha_weight += consumed as f64;
        if config.profile_stable_rounds > 0 && streak >= config.profile_stable_rounds {
            break; // converged: stop profiling early
        }
    }

    // What the profiling pass leaves for the record, whichever way it
    // exits.
    let summary = |path, alpha, prediction, split: Option<Observation>| InvocationSummary {
        path,
        last,
        prediction,
        rounds,
        fault_rounds: faulty_rounds as u32,
        last_fault,
        alpha,
        decide_nanos,
        profile,
        split: split.as_ref().map(total).unwrap_or_default(),
    };

    if gave_up {
        // Degraded finish: trust the last clean decision if there was one
        // and the GPU is not implicated; otherwise fall back to CPU-only.
        health.stats.degraded_invocations.inc();
        let fallback = if health.breaker.is_open() || alpha_weight <= 0.0 {
            0.0
        } else {
            alpha
        };
        let split_obs = (backend.remaining() > 0).then(|| backend.run_split(fallback));
        // Learn only what clean rounds support — and mark it suspect so
        // the next invocation re-profiles instead of reusing it.
        if alpha_weight > 0.0 && !health.breaker.is_open() {
            eas.learn(kernel, fallback, alpha_weight, true);
            health.stats.taints.inc();
        }
        // No prediction: the fallback may differ from the last decision's
        // α, so the comparison would be apples to oranges.
        return Some(summary(InvocationPath::Degraded, fallback, None, split_obs));
    }

    // Steps 23–25: run the remainder at the decided ratio.
    let split_obs = (backend.remaining() > 0).then(|| backend.run_split(alpha));
    // Step 26: sample-weighted accumulation into G.
    eas.learn(kernel, alpha, alpha_weight.max(n as f64 * 0.5), false);
    if faulty_rounds > 0 {
        // Some rounds were rejected even though profiling finished: the
        // learned ratio rests on a suspect invocation — re-profile next
        // time rather than reuse it.
        eas.taint(kernel);
        health.stats.taints.inc();
    }
    // Predicted once per invocation, for the drift fold here and the
    // telemetry record after.
    let prediction = last.map(|d| engine.predict(&d));
    if let Some(obs) = &split_obs {
        // A freshly profiled split has a model prediction to drift
        // against (P(α)·T(α)² — the same EDP form `figures telemetry`
        // reports); fold it only for clean invocations, ordered after the
        // accumulate so a drift taint survives it.
        let predicted_edp = prediction
            .filter(|_| faulty_rounds == 0)
            .map(|p| p.power * p.time * p.time);
        let items = obs.cpu_items + obs.gpu_items;
        let drift = predicted_edp.map(|edp| (Some(edp), items));
        after_split(eas, kernel, obs, ctx.deadline, drift);
    }
    let path = if probing {
        InvocationPath::Probe
    } else if reprofiling {
        InvocationPath::Reprofiled
    } else {
        InvocationPath::Profiled
    };
    Some(summary(path, alpha, prediction, split_obs))
}

/// Emits the execution subtree of one invocation's trace: `decide` roots
/// the batch, with `cpu-phase` / `gpu-phase` children carrying the
/// loop's per-phase totals and a zero-width `fold` closing it. The
/// batch uses batch-relative ids and starts; the sink rebases them onto
/// the trace's cursor, so multi-invocation requests chain their subtrees
/// end to end. A context without a trace (direct, untenanted calls)
/// allocates a fresh one from the sink's deterministic allocator.
///
/// Every duration is virtual (from the deterministic observation stream)
/// and carried bit-exact — a chaos-corrupted phase total rides through
/// as NaN rather than being sanitized away.
fn emit_invocation_spans(
    sink: &dyn TelemetrySink,
    kernel: KernelId,
    ctx: InvocationCtx,
    record: &DecisionRecord,
    summary: &InvocationSummary,
) {
    let trace = if ctx.trace != 0 {
        ctx.trace
    } else {
        sink.next_trace()
    };
    if trace == 0 {
        return; // sink advertises spans but has no trace allocator
    }
    let (profile, split) = (&summary.profile, &summary.split);
    let decide_dur = record.decide_nanos as f64 * 1e-9;
    let cpu_dur = profile.cpu_time + split.cpu_time;
    let gpu_dur = profile.gpu_time + split.gpu_time;
    let cpu_items = profile.cpu_items + split.cpu_items;
    let gpu_items = profile.gpu_items + split.gpu_items;
    let clamp = |d: f64| if d.is_finite() && d > 0.0 { d } else { 0.0 };
    let exec_end =
        decide_dur + clamp(cpu_dur).max(if gpu_items > 0 { clamp(gpu_dur) } else { 0.0 });
    let span = |id: u16, parent: u16, kind: SpanKind, start: f64, dur: f64, payload: f64| Span {
        seq: 0,   // assigned by the ring
        trace: 0, // rebased by the sink
        kernel,
        id,
        parent,
        kind,
        tenant: ctx.tenant,
        start,
        dur,
        payload,
    };
    let mut spans = Vec::with_capacity(4);
    spans.push(span(1, 0, SpanKind::Decide, 0.0, decide_dur, record.alpha));
    spans.push(span(
        2,
        1,
        SpanKind::CpuPhase,
        decide_dur,
        cpu_dur,
        cpu_items as f64,
    ));
    if gpu_items > 0 {
        spans.push(span(
            3,
            1,
            SpanKind::GpuPhase,
            decide_dur,
            gpu_dur,
            gpu_items as f64,
        ));
    }
    let fold_id = spans.len() as u16 + 1;
    spans.push(span(
        fold_id,
        1,
        SpanKind::Fold,
        exec_end,
        0.0,
        record.alpha,
    ));
    sink.span_batch(trace, &mut spans);
}

/// Assembles the per-invocation telemetry record: the summary's control
/// flow, decision context and per-phase realized totals, the engine's
/// model prediction at the executed α, and the breaker's state after the
/// invocation.
fn build_record(
    eas: &SharedEas,
    kernel: KernelId,
    items: u64,
    summary: &InvocationSummary,
) -> DecisionRecord {
    // Predictions are only meaningful on paths whose final split executed
    // at the last decision's α.
    let prediction = summary
        .prediction
        .filter(|_| summary.path.has_prediction())
        .unwrap_or_default();
    let (profile, split) = (&summary.profile, &summary.split);
    DecisionRecord {
        seq: 0, // assigned by the sink
        kernel,
        path: summary.path,
        class: summary.last.map(|d| d.class.index() as u8),
        breaker: eas.health.breaker().state().code(),
        last_fault: summary.last_fault.map(FaultKind::code),
        rounds: summary.rounds,
        fault_rounds: summary.fault_rounds,
        r_c: summary.last.map_or(0.0, |d| d.r_c),
        r_g: summary.last.map_or(0.0, |d| d.r_g),
        alpha: summary.alpha,
        predicted_power: prediction.power,
        predicted_time: prediction.time,
        predicted_objective: prediction.objective,
        profile_time: profile.elapsed,
        profile_energy: profile.energy_joules,
        split_time: split.elapsed,
        split_energy: split.energy_joules,
        items,
        decide_nanos: summary.decide_nanos,
    }
}
