//! Self-healing control-loop integration (DESIGN.md §11): drift-triggered
//! re-profiling with budget guards, watchdog deadlines on profiling rounds
//! and chunk executions, and the fault-free identity guarantee.

use easched::core::{
    characterize, CharacterizationConfig, DriftCell, DriftPolicy, EasConfig, EasRuntime,
    EasScheduler, Objective, PowerModel, WatchdogPolicy,
};
use easched::kernels::suite;
use easched::runtime::test_support::FakeBackend;
use easched::runtime::{Backend, ChaosInjector, Fault, FaultPlan, Scheduler};
use easched::sim::Platform;
use easched::telemetry::RingSink;
use std::sync::Arc;

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

/// 100k items on a 1:2 machine: the Time objective's grid decision is
/// exactly α = 0.7, and realized EDP per invocation is deterministic.
fn fake() -> FakeBackend {
    FakeBackend::new(100_000, 1.0e6, 2.0e6)
}

/// A drift policy tight enough to react within a handful of invocations:
/// EWMA = latest sample, two consecutive breaches fire, one reprofile
/// token total and no refill (so the second storm must be suppressed).
fn tight_drift() -> DriftPolicy {
    DriftPolicy {
        enabled: true,
        bound: 0.5,
        breach_invocations: 2,
        ewma_weight: 1.0,
        cooldown: 2,
        rearm_ratio: 0.5,
        bucket_capacity: 1.0,
        bucket_refill: 0.0,
    }
}

#[test]
fn sustained_drift_triggers_one_budgeted_reprofile() {
    let mut config = EasConfig::new(Objective::Time);
    config.reprofile_every = None; // isolate the drift trigger
    config.drift = tight_drift();
    let mut eas = EasScheduler::new(desktop_model(), config);
    let sink = Arc::new(RingSink::with_capacity(64));
    eas.set_telemetry(Some(sink.clone()));

    // Phase A — healthy platform: profile once, then reuse. The reused
    // splits match the learned reference exactly, so nothing drifts.
    for _ in 0..3 {
        let mut b = fake();
        eas.schedule(7, &mut b);
        assert_eq!(b.remaining(), 0);
    }
    let learned = eas.learned_alpha(7).expect("kernel learned");
    assert!((learned - 0.7).abs() < 1e-9, "α {learned}");
    let decisions_clean = eas.decisions();
    assert_eq!(eas.health().drift_reprofiles, 0);

    // Phase B — the platform shifts: every observation burns 2.5× the
    // energy (vetting-proof; relative EDP error |1 − 2.5|/2.5 = 0.6,
    // above the bound 0.5). The second breaching invocation spends the
    // only token and taints the entry; the invocation after that
    // re-profiles and re-learns the reference under surge conditions.
    let mut surge = ChaosInjector::new(FaultPlan::Drift {
        from: 0,
        until: u64::MAX,
    });
    for i in 0..5 {
        let mut b = fake();
        surge.around(&mut eas).schedule(7, &mut b);
        assert_eq!(b.remaining(), 0, "invocation {i}");
    }
    let h = eas.health();
    assert_eq!(h.drift_reprofiles, 1, "{h:?}");
    assert!(
        eas.decisions() > decisions_clean,
        "drift taint must force a fresh profiling pass"
    );
    // α re-converges: rates never changed, only power, and Time ignores
    // power — the re-profiled ratio lands on the same grid point.
    assert_eq!(eas.learned_alpha(7), Some(learned));
    // Adaptation is not a fault: the §9 pipeline never fired.
    assert!(h.fault_free(), "{h:?}");

    // Phase C — the surge clears, so reused splits now sit far below the
    // re-learned (surged) reference: error (2.5 − 1)/1 = 1.5. The bucket
    // is empty and refill is zero: the reprofile must be suppressed.
    for _ in 0..4 {
        let mut b = fake();
        eas.schedule(7, &mut b);
    }
    let h = eas.health();
    assert_eq!(h.drift_reprofiles, 1, "budget must cap the storm: {h:?}");
    assert!(h.reprofiles_suppressed >= 1, "{h:?}");
    assert!(h.fault_free(), "{h:?}");

    // Satellite: the loop is observable end to end — the per-kernel EWMA
    // from the table, both counters from health, on one page beside the
    // sink's.
    let ewma = eas.table().drift(7, DriftCell::ewma).flatten();
    let ewma = ewma.expect("drift gauge for kernel 7");
    assert!(ewma > 0.8, "last fold was a breach: {ewma}");
    let text = sink.metrics().expose() + &eas.expose();
    assert!(text.contains("easched_drift_reprofiles_total 1"), "{text}");
    assert!(
        text.contains("easched_reprofiles_suppressed_total"),
        "{text}"
    );
    assert!(
        text.contains("easched_kernel_drift_ewma{kernel=\"7\"}"),
        "{text}"
    );
}

#[test]
fn hung_profiling_round_is_cancelled_and_retried() {
    // Fault::Hang reports internally plausible data after a 3600 s stall:
    // vetting passes it, so only the watchdog's 60 s profiling deadline
    // can cancel the round. From there it rides the §9 rejection path —
    // backed-off retry, then clean completion with a tainted entry.
    let mut eas = EasScheduler::new(desktop_model(), EasConfig::new(Objective::Time));
    let mut injector = ChaosInjector::new(FaultPlan::Scripted(vec![(0, Fault::Hang)]));
    let mut b = fake();
    injector.around(&mut eas).schedule(7, &mut b);
    assert_eq!(b.remaining(), 0, "cancelled rounds must not lose work");
    assert_eq!(b.log[0], "profile(2240)");
    assert_eq!(b.log[1], "profile(1120)", "retry backs the chunk off");

    let h = eas.health();
    assert_eq!(h.watchdog_trips, 1, "{h:?}");
    assert_eq!(h.observations_rejected, 1, "{h:?}");
    assert_eq!(h.retries, 1, "{h:?}");
    assert_eq!(h.taints, 1, "suspect invocation must taint: {h:?}");
    assert_eq!(h.breaker_trips, 0, "one hang is below the threshold");
    assert!(!h.fault_free(), "a watchdog trip is a real fault");
    assert!(eas.learned_alpha(7).is_some(), "profiling still completed");
}

#[test]
fn hung_reused_split_trips_the_split_watchdog() {
    let mut eas = EasScheduler::new(desktop_model(), EasConfig::new(Objective::Time));
    // Invocation 0 learns cleanly.
    let mut b = fake();
    eas.schedule(7, &mut b);
    let decisions = eas.decisions();

    // Invocation 1 reuses the table — and its single chunk stalls for an
    // hour. The split watchdog (600 s deadline) flags it, implicates the
    // GPU, and taints the entry.
    let mut injector = ChaosInjector::new(FaultPlan::Scripted(vec![(0, Fault::Hang)]));
    let mut b = fake();
    injector.around(&mut eas).schedule(7, &mut b);
    assert_eq!(b.remaining(), 0);
    assert_eq!(b.log, vec!["split(0.70)"]);
    let h = eas.health();
    assert_eq!(h.split_overruns, 1, "{h:?}");
    assert!(!h.fault_free(), "{h:?}");
    assert!(eas.table().is_tainted(7));

    // Invocation 2 (healthy): the taint forces a re-profile, not reuse.
    let mut b = fake();
    eas.schedule(7, &mut b);
    assert!(eas.decisions() > decisions);
    assert!(!eas.table().is_tainted(7));
}

#[test]
fn hang_and_surge_storm_is_survived_and_recovered_from() {
    // The §11 storm: a third of all observations either stall for an hour
    // or burn surge power. Work must always complete; afterwards, a
    // healthy stretch must return the scheduler to clean table reuse.
    let mut config = EasConfig::new(Objective::Time);
    config.reprofile_every = None; // isolate the §11 recovery machinery
    let mut eas = EasScheduler::new(desktop_model(), config);
    let mut injector = ChaosInjector::new(FaultPlan::Random {
        seed: 22,
        rate: 0.3,
        kinds: vec![Fault::Hang, Fault::PowerSurge],
    });
    for i in 0..20 {
        let mut b = fake();
        injector.around(&mut eas).schedule(7, &mut b);
        assert_eq!(b.remaining(), 0, "storm invocation {i} lost work");
    }
    assert!(injector.injected() > 0, "storm plan never fired");
    let h = eas.health();
    assert!(
        h.watchdog_trips > 0,
        "profiling hangs must be caught: {h:?}"
    );
    assert!(h.split_overruns > 0, "chunk hangs must be caught: {h:?}");

    // Clear skies: enough invocations to serve any quarantine, close the
    // breaker, and re-learn. The last one must be a pure table reuse.
    for _ in 0..12 {
        let mut b = fake();
        eas.schedule(7, &mut b);
        assert_eq!(b.remaining(), 0);
    }
    let mut b = fake();
    eas.schedule(7, &mut b);
    assert_eq!(b.log, vec!["split(0.70)"], "must return to clean reuse");
    let alpha = eas.learned_alpha(7).expect("relearned");
    assert!((alpha - 0.7).abs() < 1e-9);
}

#[test]
fn fault_free_runs_are_identical_with_the_control_loop_disabled() {
    // The acceptance bar for the whole PR: with no faults injected, the
    // self-healing loop (drift monitor + watchdog, both on by default)
    // must not perturb a single decision — outcomes are equal to the
    // loop-disabled runtime on every workload, which is what keeps the
    // fig9/fig10 artifacts byte-identical.
    let platform = quiet_desktop();
    let model = desktop_model();
    let run = |config: EasConfig| {
        let mut rt = EasRuntime::new(platform.clone(), model.clone(), config);
        suite::small_suite()
            .iter()
            .map(|w| rt.run(w.as_ref()))
            .collect::<Vec<_>>()
    };

    let enabled = run(EasConfig::new(Objective::EnergyDelay));
    let mut off = EasConfig::new(Objective::EnergyDelay);
    off.drift = DriftPolicy::disabled();
    off.watchdog = WatchdogPolicy::disabled();
    let disabled = run(off);

    assert_eq!(enabled.len(), disabled.len());
    for (a, b) in enabled.iter().zip(&disabled) {
        assert_eq!(a, b, "control loop perturbed a fault-free run");
        assert!(a.verification.is_passed());
    }
}
