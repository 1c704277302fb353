//! Chaos-mode integration: the observation→decision pipeline under
//! injected faults (DESIGN.md §9).
//!
//! Every test drives real workloads (or the deterministic `FakeBackend`)
//! through [`ChaosInjector`] fault plans and asserts the three §9
//! guarantees: functional output is never corrupted, the scheduler never
//! panics, and degradation/recovery follow the circuit-breaker contract.
//!
//! The plan matrix runs under the three CI roots (7, 23, 1009) on the
//! reduced suite and under the `figures chaos` seed, which in release
//! builds (the ci.sh chaos matrix runs `--release`) covers all 12 desktop
//! benchmarks. Each of its drives is also replayed from the workload's
//! recorded trace, which must give the same totals, health and fault
//! count: the premise `figures chaos` rests on when it replays traces.

use easched::core::{
    characterize, BreakerState, CharacterizationConfig, EasConfig, EasRuntime, EasScheduler,
    Objective, PowerModel, SharedEas, SharedEasExt,
};
use easched::kernels::{in_index_order, record_trace, suite, InvocationTrace, Workload};
use easched::runtime::test_support::FakeBackend;
use easched::runtime::{
    kernel_id_of, replay_trace, run_workload, Backend, ChaosInjector, Fault, FaultPlan, Scheduler,
};
use easched::sim::{Machine, Platform};
use std::panic::{self, AssertUnwindSafe};

fn quiet_desktop() -> Platform {
    let mut p = Platform::haswell_desktop();
    p.pcu.measurement_noise = 0.0;
    p
}

fn desktop_model() -> PowerModel {
    characterize(
        &quiet_desktop(),
        &CharacterizationConfig {
            alpha_steps: 10,
            ..Default::default()
        },
    )
}

/// A FakeBackend-driven invocation: 100k items on a 1:2 machine, where
/// the Time objective's grid decision is exactly α = 0.7.
fn fake() -> FakeBackend {
    FakeBackend::new(100_000, 1.0e6, 2.0e6)
}

/// One cell of the plan matrix, named `what` in its failures: `workload`
/// driven functionally under `plan`, then replayed from its recorded
/// `trace` under the same plan.
fn check_cell(
    model: &PowerModel,
    what: &str,
    plan: &FaultPlan,
    workload: &dyn Workload,
    trace: &InvocationTrace,
) {
    let fresh_eas = || EasScheduler::new(model.clone(), EasConfig::new(Objective::EnergyDelay));
    let mut machine = Machine::new(quiet_desktop());
    let mut eas = fresh_eas();
    let mut injector = ChaosInjector::new(plan.clone());
    let (metrics, v) = run_workload(&mut machine, workload, &mut injector.around(&mut eas));
    assert!(v.is_passed(), "{what} corrupted: {v:?}");
    assert!(metrics.items > 0, "{what}");
    assert!(
        metrics.time > 0.0 && metrics.time.is_finite(),
        "{what}: time {}",
        metrics.time
    );
    assert!(
        metrics.energy_joules.is_finite(),
        "{what}: energy {}",
        metrics.energy_joules
    );
    let health = eas.health();
    if injector.injected() == 0 {
        assert!(health.fault_free(), "{what}: {health:?}");
    }

    let mut machine = Machine::new(quiet_desktop());
    let traits = workload.traits_for(machine.platform());
    let mut replayed_eas = fresh_eas();
    let mut replayed_injector = ChaosInjector::new(plan.clone());
    let replayed = replay_trace(
        &mut machine,
        &traits,
        kernel_id_of(workload),
        trace,
        &mut replayed_injector.around(&mut replayed_eas),
    );
    assert_eq!(replayed, metrics, "{what}: replayed totals");
    assert_eq!(replayed_eas.health(), health, "{what}: replayed health");
    assert_eq!(
        replayed_injector.injected(),
        injector.injected(),
        "{what}: replayed faults"
    );
}

#[test]
fn every_fault_plan_preserves_functional_correctness() {
    let model = desktop_model();
    for seed in [7, 23, 1009, 42] {
        // The three CI roots sweep the reduced suite. The `figures chaos`
        // seed covers all 12 desktop benchmarks, in release only (debug
        // builds are ~50x slower on the big inputs; the ci.sh chaos matrix
        // runs this test --release).
        let workloads = if seed == 42 && !cfg!(debug_assertions) {
            suite::desktop_suite()
        } else {
            suite::small_suite()
        };
        // Each workload's invocation sizes, recorded once: `figures chaos`
        // replays these instead of driving every plan functionally, which
        // holds only because faults corrupt observations, never execution.
        let traces: Vec<_> = workloads
            .iter()
            .map(|w| {
                let (trace, v) = record_trace(w.as_ref());
                assert!(v.is_passed(), "{} recording: {v:?}", w.spec().abbrev);
                trace
            })
            .collect();
        // The (plan, workload) cells are independent: each builds its own
        // machine, scheduler and injector. They run as pool jobs, and a
        // failing cell is reported by name after every cell has run.
        let plans = FaultPlan::matrix(seed);
        let cells = plans.len() * workloads.len();
        let failed: Vec<String> = in_index_order(cells, |cell| {
            let (label, plan) = &plans[cell / workloads.len()];
            let k = cell % workloads.len();
            let (workload, trace) = (workloads[k].as_ref(), &traces[k]);
            let what = format!("{} under {label}, seed {seed}", workload.spec().abbrev);
            panic::catch_unwind(AssertUnwindSafe(|| {
                check_cell(&model, &what, plan, workload, trace)
            }))
            .err()
            .map(|_| what)
        })
        .into_iter()
        .flatten()
        .collect();
        assert!(failed.is_empty(), "failing cells: {failed:#?}");
    }
}

#[test]
fn persistent_gpu_outage_degrades_to_cpu_only_within_budget() {
    // FaultPolicy defaults: max_retries 3, breaker_threshold 3,
    // quarantine 8. A dead GPU driver means every profiling round reports
    // GpuHang, so invocation 0 must trip the breaker after exactly 3
    // consecutive rejections, invocations 1..=7 are gated CPU-only without
    // touching the GPU, and invocation 8's probe re-trips.
    let mut eas = EasScheduler::new(desktop_model(), EasConfig::new(Objective::Time));
    let mut injector = ChaosInjector::new(FaultPlan::GpuOutage {
        from: 0,
        until: u64::MAX,
    });

    let mut logs = Vec::new();
    for _ in 0..9 {
        let mut b = fake();
        injector.around(&mut eas).schedule(7, &mut b);
        assert_eq!(b.remaining(), 0, "work must still complete");
        logs.push(b.log);
    }

    // Invocation 0: three backed-off retries (2240, 1120, 560), then the
    // degraded CPU-only remainder.
    assert_eq!(
        logs[0],
        vec![
            "profile(2240)",
            "profile(1120)",
            "profile(560)",
            "split(0.00)"
        ]
    );
    // Quarantine: seven whole invocations gated CPU-only, GPU untouched.
    for log in &logs[1..8] {
        assert_eq!(log, &vec!["split(0.00)"]);
    }
    // Invocation 8: the recovery probe exercises the GPU, finds it still
    // dead, and degrades again.
    assert_eq!(logs[8][0], "profile(2240)");
    assert_eq!(logs[8].last().unwrap(), "split(0.00)");

    let h = eas.health();
    assert_eq!(h.breaker_trips, 2, "{h:?}");
    assert_eq!(h.degraded_invocations, 2, "{h:?}");
    assert_eq!(h.quarantined_invocations, 7, "{h:?}");
    assert_eq!(h.probes, 1, "{h:?}");
    assert_eq!(h.retries, 2, "{h:?}");
    assert_eq!(h.observations_rejected, 4, "{h:?}");
    assert_eq!(h.recoveries, 0, "{h:?}");
    assert_eq!(eas.health_state().breaker().state(), BreakerState::Open);
    // Nothing learned during the outage: a table entry would poison the
    // healthy future.
    assert_eq!(eas.learned_alpha(7), None);
}

#[test]
fn scheduler_recovers_to_near_oracle_after_faults_clear() {
    // The outage covers invocation 0's four observation steps; by the
    // time the quarantine is served and the probe runs, the GPU is
    // healthy again. The probe must close the breaker and the scheduler
    // must land on the oracle ratio for a 1:2 machine under the Time
    // objective: α = R_G/(R_C+R_G) ≈ 0.667, grid → 0.7.
    let mut eas = EasScheduler::new(desktop_model(), EasConfig::new(Objective::Time));
    let mut injector = ChaosInjector::new(FaultPlan::GpuOutage { from: 0, until: 4 });

    for _ in 0..9 {
        let mut b = fake();
        injector.around(&mut eas).schedule(7, &mut b);
        assert_eq!(b.remaining(), 0);
    }

    let h = eas.health();
    assert_eq!(h.recoveries, 1, "{h:?}");
    assert_eq!(h.breaker_trips, 1, "{h:?}");
    assert_eq!(h.probes, 1, "{h:?}");
    assert_eq!(eas.health_state().breaker().state(), BreakerState::Closed);
    let alpha = eas.learned_alpha(7).expect("probe must relearn the kernel");
    assert!(
        (alpha - 0.7).abs() < 1e-9,
        "recovered alpha {alpha} should match the clean-path decision"
    );

    // Once closed, the next invocation reuses the learned ratio directly.
    let mut b = fake();
    injector.around(&mut eas).schedule(7, &mut b);
    assert_eq!(b.log, vec!["split(0.70)"]);
}

#[test]
fn clean_runs_report_fault_free_health() {
    let platform = quiet_desktop();
    let mut runtime = EasRuntime::new(
        platform,
        desktop_model(),
        EasConfig::new(Objective::EnergyDelay),
    );
    for workload in suite::small_suite() {
        let outcome = runtime.run(workload.as_ref());
        assert!(outcome.verification.is_passed());
    }
    let h = runtime.health();
    assert!(
        h.fault_free(),
        "clean run tripped the fault pipeline: {h:?}"
    );
    assert!(h.observations_accepted > 0, "{h:?}");
}

#[test]
fn shared_scheduler_aggregates_health_across_streams() {
    let shared = SharedEas::new(desktop_model(), EasConfig::new(Objective::Time));

    // Stream 1 sees a transient sensor fault; stream 2 is clean.
    let mut injector = ChaosInjector::new(FaultPlan::Scripted(vec![(0, Fault::EnergyDropout)]));
    let mut b1 = fake();
    injector.around(&mut shared.handle()).schedule(7, &mut b1);
    let mut b2 = fake();
    shared.handle().schedule(8, &mut b2);

    let h = shared.health();
    assert_eq!(h.observations_rejected, 1, "{h:?}");
    assert_eq!(h.retries, 1, "{h:?}");
    assert_eq!(h.taints, 1, "{h:?}");
    assert_eq!(h.breaker_trips, 0, "sensor faults never quarantine: {h:?}");
    assert!(h.observations_accepted > 0, "{h:?}");
    // Both kernels still learned ratios despite the fault.
    assert!(shared.learned_alpha(7).is_some());
    assert!(shared.learned_alpha(8).is_some());
}

#[test]
fn stuck_energy_register_is_detected_and_survived() {
    // A register stuck for the whole run — every observation window sees
    // zero joules: the guard must flag them, the run must verify, and
    // measurements recover when the sensor does.
    let mut machine = Machine::new(quiet_desktop());
    let mut stuck = ChaosInjector::new(FaultPlan::Random {
        seed: 0,
        rate: 1.0,
        kinds: vec![Fault::EnergyDropout],
    });
    let mut eas = EasScheduler::new(desktop_model(), EasConfig::new(Objective::EnergyDelay));
    // bfs_small actually reaches the profiling loop (its mid frontiers
    // exceed the GPU profile size), so the dead register is observed.
    let w = suite::bfs_small();
    let (metrics, v) = run_workload(&mut machine, w.as_ref(), &mut stuck.around(&mut eas));
    assert!(v.is_passed(), "{v:?}");
    assert!(metrics.items > 0);
    let h = eas.health();
    assert!(
        h.observations_rejected > 0,
        "stuck register unnoticed: {h:?}"
    );
    assert_eq!(
        h.breaker_trips, 0,
        "energy faults must not quarantine the GPU: {h:?}"
    );

    // Once the sensor recovers, a fresh run on the same machine measures
    // sane energy again.
    let (metrics2, v2) = run_workload(&mut machine, w.as_ref(), &mut eas);
    assert!(v2.is_passed());
    assert!(metrics2.energy_joules > 0.0);
}

#[test]
fn faulty_rounds_taint_the_entry_and_force_a_reprofile() {
    let mut eas = EasScheduler::new(desktop_model(), EasConfig::new(Objective::Time));
    let mut injector = ChaosInjector::new(FaultPlan::Scripted(vec![(0, Fault::EnergyDropout)]));

    // Invocation 0: one rejected round, retried, profiling completes —
    // the learned entry is tainted.
    let mut b0 = fake();
    injector.around(&mut eas).schedule(7, &mut b0);
    assert_eq!(b0.log[0], "profile(2240)", "clean-size first chunk");
    assert_eq!(b0.log[1], "profile(1120)", "retry backs the chunk off");
    let decisions_after_first = eas.decisions();
    let h = eas.health();
    assert_eq!(h.taints, 1, "{h:?}");
    assert_eq!(h.retries, 1, "{h:?}");
    assert!(eas.table().is_tainted(7));

    // Invocation 1 (no faults left): the taint forces a re-profile
    // instead of reuse, and fresh learning clears it.
    let mut b1 = fake();
    injector.around(&mut eas).schedule(7, &mut b1);
    assert!(
        eas.decisions() > decisions_after_first,
        "tainted entry must be re-profiled, not reused"
    );
    assert!(!eas.table().is_tainted(7));

    // Invocation 2: the clean entry is reused outright.
    let decisions_after_second = eas.decisions();
    let mut b2 = fake();
    eas.schedule(7, &mut b2);
    assert_eq!(eas.decisions(), decisions_after_second);
    assert_eq!(b2.log, vec!["split(0.70)"]);
}
