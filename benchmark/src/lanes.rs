//! The per-layer table: every layer an invocation can cross, timed from
//! outside through its public functions. ns-scale functions are isolated
//! lanes — the median of 31 batches of at least 2 ms each; µs-and-up
//! numbers come from short units of the workloads themselves, traced
//! where a seam exists. The table is the same whatever workload the run
//! was asked for; its inputs derive from the seed.

use crate::script::{self, Shape};
use crate::seams;
use crate::stats::{median, percentile, Rng};
use crate::trace;
use crate::workloads::{
    FleetGossip, PaperSuite, ReplayStorm, Sched, SchedKind, ScratchDir, TenantStorm, Unit,
    Workload, BATCH, FLEET_TICKS, STORM_TICKS,
};
use easched_core::{
    characterize, AlphaStat, CharacterizationConfig, Classifier, DecisionEngine, EasConfig,
    EasRuntime, EasScheduler, KernelTable, Objective, PowerModel, RunSeed, SharedEas, SharedEasExt,
    TableStore, TenantFrontend,
};
use easched_fleet::{Envelope, FleetNode, Frame, Op, ReplicaTable};
use easched_kernels::suite;
use easched_replay::overload::{overload_admission, overload_registry};
use easched_replay::{record_overload_storm_observed, OverloadSpec, Recorder, RunLog};
use easched_runtime::scheduler::FixedAlpha;
use easched_runtime::{AdmissionController, Backend, Scheduler, SimBackend};
use easched_sim::{Machine, Platform};
use easched_telemetry::{
    http_get, DecisionRecord, InvocationPath, Page, RingSink, Router, ScrapeServer, ServeConfig,
    SloConfig, SloTracker, Span, SpanKind, TelemetrySink, TimeSource, DEFAULT_SPAN_CAPACITY,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SAMPLES: usize = 31;
const MIN_BATCH: Duration = Duration::from_millis(2);

/// Median ns per call of `body`, over [`SAMPLES`] batches each lasting at
/// least [`MIN_BATCH`]. The batch size is found by doubling, which also
/// warms caches and predictors.
fn lane_ns(mut body: impl FnMut()) -> f64 {
    let mut iters = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            body();
        }
        if start.elapsed() >= MIN_BATCH {
            break;
        }
        iters *= 2;
    }
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                body();
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&samples)
}

/// Median wall time of `reps` runs of `body`, in seconds.
fn median_secs(reps: usize, mut body: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            body();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// Measured values by per-layer metric name.
pub type Table = Vec<(&'static str, f64)>;

/// Measures every lane. Takes ~10 s here.
pub fn measure(seed: u64) -> Table {
    let mut t = Table::new();
    let platform = Platform::haswell_desktop();
    let model = characterize(&platform, &CharacterizationConfig::default());
    let pool = script::pool(seed);

    host(&mut t);
    numeric_and_engine(&mut t, &model, &pool);
    kernel_table(&mut t);
    sched_units(&mut t, seed, &model, &pool);
    journal(&mut t);
    t.push((
        "core.characterize.characterize_ms",
        1e3 * median_secs(5, || {
            black_box(characterize(&platform, &CharacterizationConfig::default()));
        }),
    ));
    admission(&mut t, &model);
    simulator(&mut t, &platform, &model);
    telemetry(&mut t, seed);
    replay(&mut t, seed, &model);
    fleet(&mut t, seed);
    paper(&mut t, seed);
    t
}

/// Fixed kernels recorded with every pass: if these move, the machine
/// moved.
fn host(t: &mut Table) {
    // ns per FMA in a dependent chain: latency-bound, touches no memory.
    t.push((
        "host.calib_fma_ns",
        lane_ns(|| {
            let mut x = black_box(1.000_000_1_f64);
            for _ in 0..1_024 {
                x = x.mul_add(1.000_000_3, 1e-9);
            }
            black_box(x);
        }) / 1_024.0,
    ));
    // ns per hop round one random cycle through 4 MiB: cache-miss bound.
    // Sattolo's shuffle from a fixed seed — a calibration constant, not
    // a workload input.
    let n = (4 << 20) / std::mem::size_of::<u32>();
    let mut next: Vec<u32> = (0..n as u32).collect();
    let mut rng = Rng::new(0, "chase");
    for i in (1..n).rev() {
        next.swap(i, rng.below(i as u64) as usize);
    }
    let mut at = 0u32;
    t.push((
        "host.calib_chase_ns",
        lane_ns(|| {
            for _ in 0..1_024 {
                at = next[at as usize];
            }
            black_box(at);
        }) / 1_024.0,
    ));
}

fn numeric_and_engine(t: &mut Table, model: &PowerModel, pool: &[Shape]) {
    let poly = model.curves()[0].poly().clone();
    let mut k = 0usize;
    let mut alpha = move || {
        k = (k + 1) % 11;
        k as f64 / 10.0
    };
    t.push((
        "num.polynomial.eval_ns",
        lane_ns(|| {
            black_box(poly.eval(black_box(alpha())));
        }),
    ));
    t.push((
        "num.optimize.grid_min_ns",
        lane_ns(|| {
            black_box(easched_num::grid_min(0.0, 1.0, 10, |a| poly.eval(a)));
        }),
    ));

    // Inputs as `sched_miss` feeds them: the pool's profiling
    // observations with their invocation sizes.
    let engine = DecisionEngine::new(model.clone(), EasConfig::new(Objective::EnergyDelay));
    let classifier = Classifier::default();
    let mut i = 0usize;
    let mut next_shape = move || {
        i = (i + 1) % pool.len();
        &pool[i]
    };
    t.push((
        "core.classify.classify_ns",
        lane_ns(|| {
            let s = next_shape();
            black_box(classifier.classify(&s.profile, s.n));
        }),
    ));
    t.push((
        "core.guard.vet_ns",
        lane_ns(|| {
            black_box(engine.vet(&next_shape().profile)).ok();
        }),
    ));
    t.push((
        "core.engine.decide_ns",
        lane_ns(|| {
            let s = next_shape();
            black_box(engine.decide(1, &s.profile, s.n));
        }),
    ));
    let decisions: Vec<_> = pool
        .iter()
        .map(|s| engine.decide(1, &s.profile, s.n))
        .collect();
    let mut d = 0usize;
    t.push((
        "core.engine.predict_ns",
        lane_ns(|| {
            d = (d + 1) % decisions.len();
            black_box(engine.predict(&decisions[d]));
        }),
    ));
    // `EasScheduler::decide_alpha` is `decide` plus a push onto the
    // scheduler's unbounded log: the difference is the push, allocator
    // growth included. (The old `ns_per_decide` lane timed the sum.) The
    // two are timed in alternating batches and differenced pair by pair,
    // or host drift between two lanes would swamp a ~10 ns term.
    let mut eas = EasScheduler::new(model.clone(), EasConfig::new(Objective::EnergyDelay));
    const CALLS: usize = 8_192;
    let mut batch = |with_push: bool| {
        let start = Instant::now();
        for _ in 0..CALLS {
            let s = next_shape();
            if with_push {
                black_box(eas.decide_alpha(&s.profile, s.n));
            } else {
                black_box(engine.decide(1, &s.profile, s.n));
            }
        }
        start.elapsed().as_nanos() as f64 / CALLS as f64
    };
    let pairs: Vec<f64> = (0..SAMPLES).map(|_| batch(true) - batch(false)).collect();
    t.push(("core.eas.log_push_ns", median(&pairs)));
}

fn kernel_table(t: &mut Table) {
    const ENTRIES: u64 = 4_096;
    let table = KernelTable::new();
    for k in 0..ENTRIES {
        table.accumulate(k, 0.5, 100.0, easched_core::Accumulation::SampleWeighted);
    }
    // An odd stride walks every entry without following insertion order.
    let mut k = 0u64;
    let mut next = move || {
        k = (k + 2_731) % ENTRIES;
        k
    };
    t.push((
        "core.kernel_table.lookup_ns",
        lane_ns(|| {
            black_box(table.lookup(next()));
        }),
    ));
    t.push((
        "core.kernel_table.note_reuse_ns",
        lane_ns(|| {
            black_box(table.note_reuse(next()));
        }),
    ));
    t.push((
        "core.kernel_table.accumulate_ns",
        lane_ns(|| {
            table.accumulate(
                next(),
                0.6,
                100.0,
                easched_core::Accumulation::SampleWeighted,
            );
        }),
    ));
}

/// Short units of the three `sched_*` workloads, untraced for counts and
/// traced for the layer split.
fn sched_units(t: &mut Table, seed: u64, model: &PowerModel, pool: &[Shape]) {
    let mut miss = Sched::build_sized(SchedKind::Miss, seed, 16);
    miss.unit(false);
    t.push((
        "core.engine.decides_per_invocation",
        miss.facts.decides as f64 / miss.facts.invocations as f64,
    ));
    t.push(("telemetry.ring.dropped", miss.facts.ring_dropped as f64));
    trace::start();
    miss.unit(true);
    let report = trace::finish();
    let scheduler = report
        .layer(seams::SCHEDULER)
        .expect("traced unit has scheduler spans");
    t.push((
        "core.profile_loop.self_ns",
        scheduler.self_ns as f64 / scheduler.count as f64,
    ));

    let mut hit = Sched::build_sized(SchedKind::Hit, seed, 64);
    hit.unit(false);
    t.push((
        "core.kernel_table.hit_ratio",
        hit.facts.table_hits as f64 / hit.facts.invocations as f64,
    ));

    let mut durable = Sched::build_sized(SchedKind::Durable, seed, 32);
    durable.unit(false);
    let f = durable.facts;
    t.push((
        "core.journal.bytes_per_invocation",
        f.journal_bytes as f64 / f.invocations as f64,
    ));
    t.push(("core.journal.compactions", f.compactions as f64));
    t.push(("core.journal.write_errors", f.write_errors as f64));
    trace::start();
    durable.unit(true);
    let report = trace::finish();
    let layer = |name| report.layer(name).expect("durable unit crosses the vfs");
    let (write, sync) = (layer(seams::VFS_WRITE), layer(seams::VFS_SYNC));
    t.push((
        "runtime.vfs.write_ns",
        write.busy_ns as f64 / write.count as f64,
    ));
    t.push((
        "runtime.vfs.sync_ms",
        sync.busy_ns as f64 / sync.count as f64 / 1e6,
    ));
    let ops: u64 = [seams::VFS_WRITE, seams::VFS_SYNC, seams::VFS_META]
        .iter()
        .filter_map(|l| report.layer(l))
        .map(|l| l.count)
        .sum();
    t.push(("runtime.vfs.ops", ops as f64));

    // The ungated tail: every miss invocation timed on its own.
    let ring: Arc<dyn TelemetrySink> = Arc::new(RingSink::default());
    let eas =
        SharedEas::with_telemetry(model.clone(), EasConfig::new(Objective::EnergyDelay), ring);
    let mut handle = eas.handle();
    let each: Vec<f64> = (0..16 * BATCH)
        .map(|i| {
            let mut backend = script::ScriptedBackend::new(&pool[i % pool.len()]);
            let start = Instant::now();
            handle.schedule(i as u64 + 1, &mut backend);
            start.elapsed().as_nanos() as f64
        })
        .collect();
    t.push((
        "core.profile_loop.invocation_ns_p99",
        percentile(&each, 99.0),
    ));
}

fn journal(t: &mut Table) {
    const ENTRIES: u64 = 4_096;
    let scratch = ScratchDir::new("journal");
    let dir = scratch.path().join("store");
    let eas = SharedEas::with_persistence(
        characterize(
            &Platform::haswell_desktop(),
            &CharacterizationConfig::default(),
        ),
        EasConfig::new(Objective::EnergyDelay),
        &dir,
    )
    .expect("open journal in scratch dir");
    for k in 0..ENTRIES {
        eas.table().insert(
            k,
            AlphaStat {
                alpha: 0.5,
                weight: 100.0,
                invocations_seen: k,
            },
        );
    }
    let store = Arc::clone(eas.store().expect("persistent scheduler has a store"));
    let mut k = 0u64;
    // Routine compaction (every 256 appends, O(table)) is part of what an
    // append costs, so it stays in the lane.
    t.push((
        "core.journal.record_entry_ns",
        lane_ns(|| {
            k = (k + 2_731) % ENTRIES;
            store.record_entry(eas.table(), k);
        }),
    ));
    t.push((
        "core.journal.checkpoint_ms",
        1e3 * median_secs(9, || eas.checkpoint().expect("checkpoint")),
    ));
    drop(eas);
    drop(store);
    t.push((
        "core.journal.open_recover_ms",
        1e3 * median_secs(9, || {
            let (_, recovered) = TableStore::open(&dir).expect("reopen");
            assert_eq!(recovered.table.len() as u64, ENTRIES);
        }),
    ));
}

/// The canonical storm's admission shape — 12 offers and 6 drain slots a
/// tick over the eight-tenant registry — without anything executing.
fn admission(t: &mut Table, model: &PowerModel) {
    const TICKS: usize = 4_096;
    let (mut offer, mut drain) = (Duration::ZERO, Duration::ZERO);
    let (mut offers, mut drained) = (0u64, 0u64);
    let mut controller = AdmissionController::new(overload_registry(), overload_admission());
    let tenants = overload_registry().len();
    for tick in 0..TICKS {
        let t0 = Instant::now();
        for i in 0..12 {
            black_box(controller.offer((tick + i) % tenants));
        }
        let t1 = Instant::now();
        let picked = controller.drain(6);
        for &(tenant, _) in &picked {
            controller.complete(tenant, 0.004);
        }
        controller.advance_tick();
        let t2 = Instant::now();
        offer += t1 - t0;
        drain += t2 - t1;
        offers += 12;
        drained += picked.len() as u64;
    }
    t.push((
        "runtime.admission.offer_ns",
        offer.as_nanos() as f64 / offers as f64,
    ));
    t.push((
        "runtime.admission.drain_ns",
        drain.as_nanos() as f64 / drained.max(1) as f64,
    ));
    let (offered, shed) = (0..tenants)
        .map(|i| controller.tenant_stats(i))
        .fold((0, 0), |(o, s), st| (o + st.offered, s + st.shed));
    t.push(("runtime.admission.shed_ratio", shed as f64 / offered as f64));

    let shared = SharedEas::new(model.clone(), EasConfig::new(Objective::EnergyDelay));
    let frontend = TenantFrontend::new(shared, overload_registry(), overload_admission());
    let mut offer = Duration::ZERO;
    for tick in 0..TICKS {
        let t0 = Instant::now();
        for i in 0..12 {
            black_box(frontend.offer((tick + i) % tenants));
        }
        offer += t0.elapsed();
        for (tenant, _) in frontend.drain(6) {
            frontend.complete(tenant, 0.004);
        }
        frontend.advance_tick();
    }
    t.push((
        "core.tenancy.offer_ns",
        offer.as_nanos() as f64 / (12 * TICKS) as f64,
    ));
}

fn simulator(t: &mut Table, platform: &Platform, model: &PowerModel) {
    let kernel = suite::blackscholes_small();
    let traits = kernel.traits_for(platform);
    let mut machine = Machine::new(platform.clone());
    {
        // One enormous invocation, so profiling never runs out of items.
        let mut backend = SimBackend::new(&mut machine, &traits, 1 << 44, None, 1);
        let chunk = backend.gpu_profile_size();
        t.push((
            "sim.machine.profile_step_ns",
            lane_ns(|| {
                black_box(backend.profile_step(chunk));
            }),
        ));
    }
    let mut seed = 0u64;
    t.push((
        "sim.machine.run_split_ns",
        lane_ns(|| {
            seed += 1;
            let mut backend = SimBackend::new(&mut machine, &traits, 1 << 20, None, seed);
            black_box(backend.run_split(0.5));
        }),
    ));
    t.push((
        "kernels.small_suite_run_ms",
        1e3 * median_secs(5, || {
            let mut runtime = EasRuntime::new(
                platform.clone(),
                model.clone(),
                EasConfig::new(Objective::EnergyDelay),
            );
            for w in suite::small_suite() {
                assert!(runtime.run(w.as_ref()).verification.is_passed());
            }
        }),
    ));
}

fn telemetry(t: &mut Table, seed: u64) {
    let sink = RingSink::with_capacity(1 << 15)
        .with_span_tracing(DEFAULT_SPAN_CAPACITY, RunSeed::new(seed).derive("trace"));
    let record = DecisionRecord {
        path: InvocationPath::TableHit,
        alpha: 0.5,
        items: 500_000,
        ..DecisionRecord::default()
    };
    let mut seq = 0u64;
    t.push((
        "telemetry.ring.record_ns",
        lane_ns(|| {
            seq = seq.wrapping_add(1);
            sink.record(black_box(&DecisionRecord { seq, ..record }));
        }),
    ));
    // The four-span subtree the profile loop emits per invocation.
    let span = |id, parent, kind| Span {
        id,
        parent,
        kind,
        kernel: 7,
        dur: 1e-4,
        ..Span::default()
    };
    let batch = [
        span(1, 0, SpanKind::Decide),
        span(2, 1, SpanKind::CpuPhase),
        span(3, 1, SpanKind::GpuPhase),
        span(4, 1, SpanKind::Fold),
    ];
    t.push((
        "telemetry.ring.span_batch_ns",
        lane_ns(|| {
            let mut spans = batch;
            sink.span_batch(sink.next_trace(), &mut spans);
        }),
    ));

    let slo = SloTracker::new(SloConfig::default());
    let mut n = 0u64;
    t.push((
        "telemetry.slo.observe_ns",
        lane_ns(|| {
            n += 1;
            black_box(slo.observe_queue_wait(n % 8, (n % 5) as f64, n as f64 * 0.01, n));
        }),
    ));

    // Observer path against a registry a real storm filled.
    let observed = record_overload_storm_observed(&OverloadSpec::new(seed));
    let ring = Arc::clone(&observed.ring);
    t.push((
        "telemetry.metrics.render_ms",
        1e3 * median_secs(9, || {
            black_box(ring.metrics().expose());
        }),
    ));
    let started = Instant::now();
    let time: TimeSource = Arc::new(move || started.elapsed().as_secs_f64());
    let router = Router::new().route("/metrics", move || Page::metrics(ring.metrics().expose()));
    let server = ScrapeServer::bind_tcp("127.0.0.1:0", router, ServeConfig::default(), time)
        .expect("bind a loopback port");
    let addr = server.local_addr().expect("tcp server has an address");
    let scrapes: Vec<f64> = (0..200)
        .map(|_| {
            let start = Instant::now();
            let (status, body) =
                http_get(&addr, "/metrics", Duration::from_secs(5)).expect("scrape");
            assert!(status == 200 && body.contains("easched_invocations_total"));
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    server.shutdown();
    t.push(("telemetry.serve.scrape_ms_p50", median(&scrapes)));
}

/// One unit of `workload`, returning it with its wall time in seconds.
fn one_unit(workload: &mut dyn Workload) -> (Unit, f64) {
    let unit = workload.unit(false);
    assert_eq!(
        unit.checks.failed, 0,
        "a lane's workload unit failed its checks"
    );
    let wall = unit.wall.as_secs_f64();
    (unit, wall)
}

fn replay(t: &mut Table, seed: u64, model: &PowerModel) {
    // The canonical lengths and a quarter of them: per-invocation (or
    // per-tick) cost at 4× the length over cost at 1×. 1.0 is linear.
    let mut small = ReplayStorm::build_sized(seed, 24);
    let mut full = ReplayStorm::build(seed);
    let (unit_s, wall_s) = one_unit(&mut small);
    let (unit_f, wall_f) = one_unit(&mut full);
    let per_invocation = wall_f / unit_f.invocations as f64;
    t.push(("replay.replay.ns_per_invocation", 1e9 * per_invocation));
    t.push((
        "replay.replay.growth_4x",
        per_invocation / (wall_s / unit_s.invocations as f64),
    ));
    t.push(("replay_storm.events_per_s", full.events as f64 / wall_f));

    let log = &small.recorded.log;
    let events = log.events.len() as f64;
    t.push((
        "replay.log.to_text_ns_per_event",
        1e9 * median_secs(5, || {
            black_box(log.to_text());
        }) / events,
    ));
    t.push((
        "replay.log.from_text_ns_per_event",
        1e9 * median_secs(5, || {
            black_box(RunLog::from_text(&small.text)).expect("parse");
        }) / events,
    ));

    // `Recorder` as the scheduler's sink. It keeps everything, so each
    // batch gets a fresh one.
    let config = EasConfig::new(Objective::EnergyDelay);
    let fp = (
        model.curves().len() as u64,
        config.profile_stable_rounds as u64,
    );
    let record = DecisionRecord::default();
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let recorder = Recorder::new(RunSeed::new(seed), fp.0, fp.1);
            let start = Instant::now();
            for _ in 0..16_384 {
                recorder.record(black_box(&record));
            }
            start.elapsed().as_nanos() as f64 / 16_384.0
        })
        .collect();
    t.push(("replay.record.note_ns", median(&samples)));

    // The storm's growth is probed at the canonical 32 ticks and at four
    // times that; the workload's own unit sits between the two.
    let (_, wall_32) = one_unit(&mut TenantStorm::build_sized(seed, 32));
    let (_, wall_128) = one_unit(&mut TenantStorm::build_sized(seed, 128));
    t.push((
        "replay.overload.growth_4x",
        (wall_128 / 128.0) / (wall_32 / 32.0),
    ));
    let mut full = TenantStorm::build(seed);
    let (_, wall_f) = one_unit(&mut full);
    let ticks = STORM_TICKS as f64;
    t.push(("replay.overload.ms_per_tick", 1e3 * wall_f / ticks));
    let storm = full.last.as_ref().expect("unit leaves its recording");
    t.push(("tenant_storm.edp_efficiency", storm.edp_efficiency()));
    t.push((
        "tenant_storm.shed_fraction",
        storm.shed as f64 / storm.offered as f64,
    ));
    t.push(("tenant_storm.fair_share_deficit", storm.fair_share_deficit));
    t.push((
        "tenant_storm.requests_per_s",
        storm.executed as f64 / wall_f,
    ));
    t.push(("tenant_storm.ticks_per_s", ticks / wall_f));
}

fn fleet(t: &mut Table, seed: u64) {
    let platforms = ["haswell-desktop", "baytrail-tablet", "skylake-minipc"];
    // Watermark-fresh puts from three origins over 128 kernels: every
    // apply advances — the expensive path.
    let stream: Vec<Envelope> = (0..8_192usize)
        .map(|i| Envelope {
            origin: (i % 3) as u16,
            platform: platforms[i % 3].to_string(),
            generation: 1,
            seq: (i / 3) as u64 + 1,
            op: Op::Put {
                kernel: (i % 128) as u64,
                alpha: 0.5 + (i % 10) as f64 * 0.01,
                weight: 10.0,
                seen: i as u64,
                tainted: false,
            },
        })
        .collect();
    let mut replica = ReplicaTable::new();
    let mut at = 0usize;
    t.push((
        "fleet.replica.apply_ns",
        lane_ns(|| {
            if at == stream.len() {
                replica = ReplicaTable::new();
                at = 0;
            }
            black_box(replica.apply(&stream[at]));
            at += 1;
        }),
    ));
    t.push((
        "fleet.replica.digest_us",
        lane_ns(|| {
            black_box(replica.digest());
        }) / 1e3,
    ));
    let frame = Frame::entries(0, 1, stream[..64].to_vec());
    let text = frame.encode();
    t.push((
        "fleet.frame.encode_ns",
        lane_ns(|| {
            black_box(frame.encode());
        }),
    ));
    t.push((
        "fleet.frame.decode_ns",
        lane_ns(|| {
            black_box(Frame::decode(&text)).expect("decode");
        }),
    ));

    // Two live nodes over real journals.
    let scratch = ScratchDir::new("nodes");
    let start = |id: u16| {
        FleetNode::start(
            id,
            Platform::haswell_desktop(),
            EasConfig::new(Objective::EnergyDelay),
            scratch.path(),
            seed + u64::from(id),
            2,
        )
        .expect("start node")
    };
    let (mut a, mut b) = (start(0), start(1));
    let mut invocation = 0u64;
    let mut learn = |node: &mut FleetNode| {
        invocation += 1;
        let (kernel, traits) = easched_fleet::kernel_traits(invocation % 4);
        node.run_invocation(kernel, &traits, 60_000, invocation);
    };
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            learn(&mut a);
            let start = Instant::now();
            a.publish_local();
            start.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    t.push(("fleet.node.publish_local_us", median(&samples)));
    let request = b.request_frame(0);
    let easched_fleet::FramePayload::Request(wants) = request.payload else {
        unreachable!("request_frame builds a request");
    };
    t.push((
        "fleet.node.answer_request_us",
        lane_ns(|| {
            black_box(a.answer_request(1, &wants));
        }) / 1e3,
    ));
    // A foreign origin's contiguous stream, 64 envelopes a frame: every
    // envelope is admissible and advances the watermark.
    let mut seq = 0u64;
    let mut frame_of = || -> Vec<Envelope> {
        (0..64)
            .map(|_| {
                seq += 1;
                Envelope {
                    origin: 9,
                    platform: platforms[1].to_string(),
                    generation: 1,
                    seq,
                    op: Op::Put {
                        kernel: seq % 128,
                        alpha: 0.5,
                        weight: 10.0,
                        seen: seq,
                        tainted: false,
                    },
                }
            })
            .collect()
    };
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|tick| {
            let frames: Vec<Vec<Envelope>> = (0..64).map(|_| frame_of()).collect();
            let start = Instant::now();
            for frame in &frames {
                let advanced = b.ingest_entries(frame, tick as u64);
                debug_assert_eq!(advanced, 64);
            }
            start.elapsed().as_nanos() as f64 / (64.0 * 64.0)
        })
        .collect();
    t.push(("fleet.node.ingest_ns_per_envelope", median(&samples)));
    drop((a, b));

    let mut three = FleetGossip::build_sized(seed, 3, 20);
    let (_, wall) = one_unit(&mut three);
    t.push(("fleet.run.ms_per_tick_3n", 1e3 * wall / 20.0));
    let mut thirty = FleetGossip::build(seed);
    let (_, wall) = one_unit(&mut thirty);
    let report = thirty.last.as_ref().expect("unit leaves its report");
    let rounds = (FLEET_TICKS + report.drain_rounds) as f64;
    t.push(("fleet.run.ms_per_tick_30n", 1e3 * wall / rounds));
    t.push(("fleet_gossip.ticks_per_s", rounds / wall));
    t.push(("fleet_gossip.drain_rounds", report.drain_rounds as f64));
    let sent: u64 = report.nodes.iter().map(|n| n.stats.frames_sent).sum();
    let lost: u64 = report
        .nodes
        .iter()
        .map(|n| n.stats.frames_dropped + n.stats.frames_torn + n.stats.frames_partitioned)
        .sum();
    t.push(("fleet.run.frames_per_tick", sent as f64 / rounds));
    t.push((
        "fleet.transport.delivered_ratio",
        1.0 - lost as f64 / sent as f64,
    ));
}

fn paper(t: &mut Table, seed: u64) {
    let mut suite = PaperSuite::build(seed);
    t.push(("kernels.record_trace_s", suite.record_s));
    trace::start();
    let unit = suite.unit(true);
    let report = trace::finish();
    assert_eq!(
        unit.checks.failed, 0,
        "paper_suite lane unit failed its checks"
    );
    t.push((
        "sim.machine.steps",
        report.layer(seams::BACKEND).map_or(0, |l| l.count) as f64,
    ));
    let mean =
        suite.last.iter().map(|c| c.efficiency(c.eas)).sum::<f64>() / suite.last.len() as f64;
    t.push(("paper_suite.edp_efficiency", mean));

    // BFS: the subset's longest trace (832 invocations).
    let (kernel, recorded) = suite
        .kernels
        .iter()
        .max_by_key(|(_, trace)| trace.invocations())
        .expect("subset is not empty");
    let ev = suite.evaluator(seed);
    let traits = kernel.traits_for(ev.platform());
    let objective = Objective::EnergyDelay;
    t.push((
        "core.schemes.score_trace_ms",
        1e3 * median_secs(9, || {
            black_box(ev.score_trace(&traits, recorded, &mut FixedAlpha::new(0.5), &objective));
        }),
    ));
    t.push((
        "core.schemes.oracle_s",
        median_secs(5, || {
            black_box(ev.oracle(&traits, recorded, &objective));
        }),
    ));
}
