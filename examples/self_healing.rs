//! The self-healing control loop closing end to end (DESIGN.md §11):
//! injected model drift → EWMA breach → budgeted auto-reprofile →
//! re-convergence, narrated through the drift gauge and the health
//! counters.
//!
//! A `ChaosInjector` surges every observed energy reading by 2.5× — the
//! readings stay internally plausible, so §9 vetting passes them and only
//! the drift monitor can notice that realized EDP has left the learned
//! reference behind. Watch the per-kernel EWMA climb past the bound,
//! the reprofile fire (spending a token from the global budget), the α
//! re-learn under the new conditions, and the whole story repeat in
//! reverse when the surge clears.
//!
//! `tests/selfheal.rs` asserts the same three acts on a fake backend; only
//! this example prints the drift EWMA and the learned α run by run, then
//! the page `/metrics` would serve.
//!
//! ```text
//! cargo run --release --example self_healing
//! ```

use easched::core::{
    characterize, CharacterizationConfig, DriftCell, DriftPolicy, EasConfig, EasScheduler,
    Objective,
};
use easched::kernels::suite;
use easched::runtime::{kernel_id_of, run_workload, ChaosInjector, FaultPlan};
use easched::sim::{Machine, Platform};
use easched::telemetry::{RingSink, TelemetrySink};
use std::sync::Arc;

fn main() {
    // A quiet machine: zero measurement noise keeps the EWMA story crisp.
    let mut platform = Platform::haswell_desktop();
    platform.pcu.measurement_noise = 0.0;
    println!("characterizing {} ...", platform.name);
    let model = characterize(&platform, &CharacterizationConfig::default());

    // The default drift policy is deliberately deaf to anything below a
    // 2× misprediction; a 2.5× energy surge lands at relative EDP error
    // |1 − 2.5| / 2.5 = 0.6, so this demo tightens the bound to hear it
    // while keeping all three reaction guards (K consecutive breaches,
    // per-kernel cooldown, global token budget) in play.
    let mut config = EasConfig::new(Objective::EnergyDelay);
    config.reprofile_every = None; // only the drift monitor may re-profile
    config.drift = DriftPolicy {
        enabled: true,
        bound: 0.3,
        breach_invocations: 3,
        ewma_weight: 0.6,
        cooldown: 4,
        rearm_ratio: 0.5,
        bucket_capacity: 2.0,
        bucket_refill: 0.0,
    };
    let mut eas = EasScheduler::new(model, config);
    let sink = Arc::new(RingSink::with_capacity(1 << 12));
    eas.set_telemetry(Some(sink.clone() as Arc<dyn TelemetrySink>));

    let workload = suite::mandelbrot_desktop();
    let kernel = kernel_id_of(workload.as_ref());
    let act = |label: &str, runs: usize, plan: FaultPlan, eas: &mut EasScheduler| {
        println!("\n== {label} ==");
        let mut injector = ChaosInjector::new(plan);
        for run in 0..runs {
            let mut machine = Machine::new(platform.clone());
            let (metrics, v) =
                run_workload(&mut machine, workload.as_ref(), &mut injector.around(eas));
            assert!(v.is_passed(), "drift must never corrupt outputs");
            let h = eas.health();
            let ewma = eas.table().drift(kernel, DriftCell::ewma).flatten();
            let ewma = ewma.map_or("   --".into(), |e| format!("{e:5.2}"));
            println!(
                "run {run}: {:>7.3} s  α {:.2}  drift EWMA {ewma}  reprofiles={} suppressed={}",
                metrics.time,
                eas.learned_alpha(kernel).unwrap_or(0.0),
                h.drift_reprofiles,
                h.reprofiles_suppressed,
            );
        }
    };

    // Act 1 — healthy: profile once, settle into table reuse. The EWMA
    // hovers near zero because realized EDP tracks the learned reference.
    act("healthy baseline", 4, FaultPlan::None, &mut eas);
    let baseline = eas.health();
    assert_eq!(baseline.drift_reprofiles, 0);

    // Act 2 — the platform shifts (thermal envelope, co-runner, firmware:
    // the monitor is black-box and does not care which). Every reading
    // burns 2.5× the energy; after K consecutive breaches the monitor
    // taints the entry and the next invocation re-profiles automatically.
    act(
        "sustained 2.5x energy surge",
        8,
        FaultPlan::Drift {
            from: 0,
            until: u64::MAX,
        },
        &mut eas,
    );
    let surged = eas.health();
    assert!(
        surged.drift_reprofiles > baseline.drift_reprofiles,
        "sustained drift must trigger a reprofile: {surged:?}"
    );
    assert!(surged.fault_free(), "adaptation is not a fault: {surged:?}");

    // Act 3 — the surge clears. Reused splits now undershoot the surged
    // reference (error (2.5 − 1)/1 = 1.5), so the monitor reacts again —
    // re-profiling if the budget allows, suppressing once it runs dry.
    act("surge clears", 8, FaultPlan::None, &mut eas);
    let healed = eas.health();
    assert!(healed.fault_free(), "{healed:?}");
    println!(
        "\nhealth: reprofiles={} suppressed={} watchdog_trips={} taints={}",
        healed.drift_reprofiles, healed.reprofiles_suppressed, healed.watchdog_trips, healed.taints,
    );
    println!(
        "\nprometheus exposition:\n{}{}",
        sink.metrics().expose(),
        eas.expose()
    );
}
