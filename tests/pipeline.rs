//! End-to-end integration: characterization → scheduling → verified
//! functional execution, across crates.

use easched::core::{
    characterize, CharacterizationConfig, EasConfig, EasRuntime, Evaluator, Objective,
};
use easched::kernels::suite;
use easched::runtime::{run_workload, FixedAlpha};
use easched::sim::{Machine, Platform};

fn fast_config() -> CharacterizationConfig {
    CharacterizationConfig {
        alpha_steps: 10,
        ..Default::default()
    }
}

#[test]
fn eas_runtime_runs_the_small_suite_verified() {
    let platform = Platform::haswell_desktop();
    let model = characterize(&platform, &fast_config());
    let mut runtime = EasRuntime::new(platform, model, EasConfig::new(Objective::EnergyDelay));
    for workload in suite::small_suite() {
        let spec = workload.spec();
        let outcome = runtime.run(workload.as_ref());
        assert!(
            outcome.verification.is_passed(),
            "{} failed under EAS: {:?}",
            spec.abbrev,
            outcome.verification
        );
        assert!(outcome.time > 0.0, "{}", spec.abbrev);
        assert!(outcome.energy_joules > 0.0, "{}", spec.abbrev);
    }
}

#[test]
fn every_fixed_split_preserves_functional_correctness() {
    // The scheduler must never be able to break outputs, whatever split it
    // picks: items are independent.
    let platform = Platform::baytrail_tablet();
    for alpha in [0.0, 0.3, 0.7, 1.0] {
        let mut machine = Machine::new(platform.clone());
        for workload in [suite::blackscholes_small(), suite::bfs_small()] {
            let (metrics, verification) =
                run_workload(&mut machine, workload.as_ref(), &mut FixedAlpha::new(alpha));
            assert!(verification.is_passed(), "alpha {alpha}");
            assert!(metrics.items > 0);
        }
    }
}

#[test]
fn characterization_transfers_across_workloads() {
    // One power model serves every kernel on the platform (the paper's
    // one-time claim): running more workloads must not require
    // re-characterization, and decisions stay sane.
    let platform = Platform::haswell_desktop();
    let model = characterize(&platform, &fast_config());
    let mut runtime = EasRuntime::new(platform, model, EasConfig::new(Objective::Energy));
    for workload in suite::small_suite() {
        let outcome = runtime.run(workload.as_ref());
        assert!(outcome.verification.is_passed());
    }
}

#[test]
fn tablet_and_desktop_models_differ() {
    // The two platforms have opposite device-power orderings (paper §2);
    // their characterizations must reflect that.
    let d = characterize(&Platform::haswell_desktop(), &fast_config());
    let t = characterize(&Platform::baytrail_tablet(), &fast_config());
    let long_compute = easched::core::WorkloadClass {
        memory_bound: false,
        cpu_short: false,
        gpu_short: false,
    };
    // Desktop: GPU-alone cheaper than CPU-alone.
    assert!(d.predict(long_compute, 1.0) < d.predict(long_compute, 0.0));
    // Tablet: GPU-alone costs MORE than CPU-alone.
    assert!(t.predict(long_compute, 1.0) > t.predict(long_compute, 0.0));
}

#[test]
fn oracle_dominates_every_scheme_on_both_platforms() {
    for (platform, workload) in [
        (Platform::haswell_desktop(), suite::mandelbrot_small()),
        (Platform::baytrail_tablet(), suite::blackscholes_small()),
    ] {
        let model = characterize(&platform, &fast_config());
        let ev = Evaluator::new(platform, model);
        for objective in [Objective::Energy, Objective::EnergyDelay] {
            let c = ev.compare(workload.as_ref(), &objective);
            for s in [c.cpu, c.gpu, c.perf] {
                assert!(c.oracle.score <= s.score * 1.0001);
            }
        }
    }
}

#[test]
fn kernel_table_survives_across_applications() {
    let platform = Platform::haswell_desktop();
    let model = characterize(&platform, &fast_config());
    let mut runtime = EasRuntime::new(platform, model, EasConfig::new(Objective::EnergyDelay));
    runtime.run(suite::mandelbrot_small().as_ref());
    let decisions_after_first = runtime.scheduler().decisions();
    // A different instance of the same kernel reuses the learned ratio.
    runtime.run(suite::mandelbrot_small().as_ref());
    assert_eq!(runtime.scheduler().decisions(), decisions_after_first);
}

#[test]
fn whole_small_suite_verifies_under_real_parallelism() {
    // Every workload's item function must be thread-safe: run the full
    // reduced suite on the pool's real threads.
    struct PoolInvoker(usize);
    impl easched::kernels::Invoker for PoolInvoker {
        fn invoke(&mut self, n: u64, process: &(dyn Fn(std::ops::Range<usize>) + Sync)) {
            easched::kernels::parallel_for(n, self.0, process);
        }
    }
    let workers = std::thread::available_parallelism().map_or(4, |n| n.get().clamp(2, 8));
    for workload in suite::small_suite() {
        let v = workload.drive(&mut PoolInvoker(workers));
        assert!(
            v.is_passed(),
            "{} under parallel execution: {v:?}",
            workload.spec().abbrev
        );
    }
}
