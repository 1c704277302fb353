//! Fault injection and graceful degradation: the EAS pipeline surviving a
//! GPU driver outage (DESIGN.md §9).
//!
//! A `ChaosInjector` corrupts what the scheduler *observes* — never what
//! executes — first with a sustained GPU hang, then with noisy sensor
//! faults. Watch the circuit breaker trip, the quarantined invocations run
//! CPU-only, the recovery probe close the breaker, and the health
//! telemetry account for every step.
//!
//! `tests/chaos.rs` asserts the same outage on a fake backend; this is the
//! one place the breaker's state is printed run by run while real
//! workloads execute on the simulated machine.
//!
//! ```text
//! cargo run --release --example chaos_runtime
//! ```
//!
//! For a Perfetto-loadable dump of a run's `DecisionRecord`s, attach a
//! `RingSink` and write `to_trace` of its snapshot (README "Inspecting
//! decision traces").

use easched::core::{characterize, CharacterizationConfig, EasConfig, EasScheduler, Objective};
use easched::kernels::suite;
use easched::runtime::chaos::{run_workload_chaos, ChaosInjector, Fault, FaultPlan};
use easched::sim::{Machine, Platform};

fn main() {
    let platform = Platform::haswell_desktop();
    println!("characterizing {} ...", platform.name);
    let model = characterize(&platform, &CharacterizationConfig::default());

    // --- Act 1: a GPU driver outage that later clears. -------------------
    // The first observation steps all hang; the breaker trips, quarantines
    // the GPU, and a probe invocation discovers the recovery.
    let mut eas = EasScheduler::new(model.clone(), EasConfig::new(Objective::EnergyDelay));
    let mut injector = ChaosInjector::new(FaultPlan::GpuOutage { from: 0, until: 4 });
    println!("\n== GPU outage across the first observation steps ==");
    for round in 0..10 {
        let mut machine = Machine::new(platform.clone());
        let (metrics, v) = run_workload_chaos(
            &mut machine,
            suite::bfs_small().as_ref(),
            &mut eas,
            &mut injector,
        );
        assert!(v.is_passed(), "faults must never corrupt outputs");
        let h = eas.health();
        println!(
            "run {round}: {:>8.4} s  breaker={:?}  quarantined={} probes={} recoveries={}",
            metrics.time,
            eas.health_state().breaker().state(),
            h.quarantined_invocations,
            h.probes,
            h.recoveries,
        );
    }
    let h = eas.health();
    assert!(
        h.recoveries > 0,
        "the probe should have found a healthy GPU"
    );

    // --- Act 2: flaky sensors under a fresh scheduler. -------------------
    // Random energy/counter/NaN glitches: rejected rounds are retried with
    // backed-off chunks, learned entries are tainted and re-profiled, and
    // the workload still verifies.
    let mut eas = EasScheduler::new(model, EasConfig::new(Objective::EnergyDelay));
    let mut injector = ChaosInjector::new(FaultPlan::Random {
        seed: 42,
        rate: 0.3,
        kinds: vec![
            Fault::EnergyDropout,
            Fault::EnergyWrap,
            Fault::CounterCorrupt,
            Fault::NanObservation,
        ],
    });
    println!("\n== flaky sensors (30% fault rate) ==");
    for workload in [suite::bfs_small(), suite::mandelbrot_small()] {
        let mut machine = Machine::new(platform.clone());
        let (metrics, v) =
            run_workload_chaos(&mut machine, workload.as_ref(), &mut eas, &mut injector);
        assert!(v.is_passed());
        println!(
            "{:>4}: {:>8.4} s  {:>8.3} J  (verified)",
            workload.spec().abbrev,
            metrics.time,
            metrics.energy_joules,
        );
    }
    let h = eas.health();
    println!(
        "\nhealth: accepted={} rejected={} retries={} taints={} degraded={} trips={}",
        h.observations_accepted,
        h.observations_rejected,
        h.retries,
        h.taints,
        h.degraded_invocations,
        h.breaker_trips,
    );
    println!(
        "injected {} faults over {} steps",
        injector.injected(),
        injector.steps()
    );
    assert_eq!(h.breaker_trips, 0, "sensor faults never quarantine the GPU");
}
