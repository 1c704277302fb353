//! Stress tests for the shared kernel table: N workload streams driving
//! one `Arc<SharedEas>` must converge to a single learned α, lose no
//! accumulated weight, and reuse each other's profiling work.

use easched_core::{
    Accumulation, EasConfig, EasRuntime, EasScheduler, KernelTable, Objective, PowerCurve,
    PowerModel, SharedEas, SharedEasExt, WorkloadClass,
};
use easched_kernels::suite;
use easched_num::Polynomial;
use easched_runtime::test_support::FakeBackend;
use easched_runtime::{Backend, Scheduler};
use easched_sim::Platform;
use std::sync::{Arc, Barrier};

const THREADS: usize = 8;

fn flat_model(watts: f64) -> PowerModel {
    let curves = WorkloadClass::all()
        .into_iter()
        .map(|c| PowerCurve::new(c, Polynomial::constant(watts), 0.0, 11))
        .collect();
    PowerModel::new("flat", curves)
}

fn config() -> EasConfig {
    let mut cfg = EasConfig::new(Objective::Time);
    // Keep the accumulation count analyzable: only first-seen profiling
    // passes write to the table, reuse never does.
    cfg.reprofile_every = None;
    cfg
}

/// Eight threads hammer the same kernel through one shared table. Every
/// stream must drain its backend, and the table must end with exactly the
/// α a single-threaded run learns: profiling passes are deterministic on
/// the fake backend, so every accumulated sample carries the same α and
/// the sample-weighted mean is that α bit-for-bit. The final weight must
/// be a whole number of per-pass contributions — between 1 (first writer
/// won every race) and 8 (all streams profiled before any table hit).
#[test]
fn eight_streams_converge_to_one_alpha() {
    // Single-threaded reference: one profiling pass's α and weight.
    let mut reference = EasScheduler::new(flat_model(50.0), config());
    let mut b = FakeBackend::new(100_000, 1.0e6, 2.0e6);
    reference.schedule(7, &mut b);
    let ref_alpha = reference.learned_alpha(7).unwrap();
    let per_pass_weight = reference.table().stat(7).unwrap().weight;
    assert!(per_pass_weight > 0.0);

    let shared = SharedEas::new(flat_model(50.0), config());
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let shared = Arc::clone(&shared);
            s.spawn(move || {
                let mut handle = shared.handle();
                for _ in 0..50 {
                    let mut b = FakeBackend::new(100_000, 1.0e6, 2.0e6);
                    handle.schedule(7, &mut b);
                    assert_eq!(b.remaining(), 0, "stream must drain its invocation");
                }
            });
        }
    });

    let stat = shared.table().stat(7).unwrap();
    assert_eq!(
        stat.alpha, ref_alpha,
        "all samples carry the same α, so the weighted mean is exact"
    );
    // Weight is the sum of the contributions that actually accumulated:
    // an integral number of identical profiling passes, at least one and
    // at most one per stream.
    let passes = stat.weight / per_pass_weight;
    assert!(
        (passes - passes.round()).abs() < 1e-9,
        "weight {} is not a whole number of {}-weight passes",
        stat.weight,
        per_pass_weight
    );
    let passes = passes.round() as usize;
    assert!(
        (1..=THREADS).contains(&passes),
        "expected 1..={THREADS} profiling passes, got {passes}"
    );
    // Reuse-path bookkeeping: every non-profiling invocation was counted.
    assert_eq!(
        stat.invocations_seen as usize + passes,
        THREADS * 50,
        "every invocation either profiled or was counted as reuse"
    );
}

/// Concurrent sample-weighted accumulation through the shared handle loses
/// no weight: the final weight is exactly the sum of all contributions.
#[test]
fn accumulated_weight_is_sum_of_contributions() {
    let shared = SharedEas::new(flat_model(50.0), config());
    let per_thread = 1_000u64;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let shared = Arc::clone(&shared);
            s.spawn(move || {
                let alpha = if t % 2 == 0 { 1.0 } else { 0.0 };
                for _ in 0..per_thread {
                    shared
                        .table()
                        .accumulate(42, alpha, 1.0, Accumulation::SampleWeighted);
                }
            });
        }
    });
    let stat = shared.table().stat(42).unwrap();
    assert_eq!(stat.weight, (THREADS as u64 * per_thread) as f64);
    // Half the weight at α=1, half at α=0 → weighted mean exactly 0.5.
    assert!((stat.alpha - 0.5).abs() < 1e-12, "alpha {}", stat.alpha);
}

/// A prior is a hint for a kernel *not learned yet*: `set_prior` decides
/// and installs under the one shard lock `accumulate` erases and folds
/// under, so however eight threads interleave the two on a small key set,
/// no kernel ends up holding both an entry and a prior. Each round races
/// on fresh keys, released together by a barrier.
#[test]
fn racing_priors_never_land_beside_a_learned_entry() {
    const ROUNDS: u64 = 500;
    const KEYS: u64 = 4;
    let table = KernelTable::new();
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|s| {
        for t in 0..THREADS as u64 {
            let (table, barrier) = (&table, &barrier);
            s.spawn(move || {
                for round in 0..ROUNDS {
                    barrier.wait();
                    for i in 0..KEYS {
                        // Threads walk the round's keys from different
                        // starting points, half hinting, half learning.
                        let k = round * KEYS + (i + t) % KEYS;
                        if t % 2 == 0 {
                            table.set_prior(k, 0.5);
                        } else {
                            table.accumulate(k, 0.5, 1.0, Accumulation::SampleWeighted);
                        }
                    }
                }
            });
        }
    });
    assert_eq!(table.len() as u64, ROUNDS * KEYS, "every key was learned");
    for k in 0..ROUNDS * KEYS {
        assert_eq!(
            table.prior(k),
            None,
            "kernel {k} holds an entry and a prior"
        );
    }
    assert_eq!(table.prior_count(), 0);
}

/// The full stack: eight `EasRuntime`s (one simulated machine each) share
/// one scheduler. All workloads must verify, and sharing must not *add*
/// profiling work compared to eight isolated runtimes.
#[test]
fn eight_shared_runtimes_run_real_workloads() {
    let mut platform = Platform::haswell_desktop();
    platform.pcu.measurement_noise = 0.0;
    let model = easched_core::characterize(
        &platform,
        &easched_core::CharacterizationConfig {
            alpha_steps: 10,
            ..Default::default()
        },
    );

    // Isolated baseline: decisions one stream needs on its own.
    let mut solo = EasRuntime::new(
        platform.clone(),
        model.clone(),
        EasConfig::new(Objective::EnergyDelay),
    );
    solo.run(suite::mandelbrot_small().as_ref());
    let solo_decisions = solo.scheduler().decisions();

    let shared = SharedEas::new(model, EasConfig::new(Objective::EnergyDelay));
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let shared = Arc::clone(&shared);
            let platform = platform.clone();
            s.spawn(move || {
                let mut rt = EasRuntime::with_shared(platform, shared);
                let out = rt.run(suite::mandelbrot_small().as_ref());
                assert!(out.verification.is_passed());
            });
        }
    });

    let kernel = easched_runtime::kernel_id_of(suite::mandelbrot_small().as_ref());
    assert!(shared.learned_alpha(kernel).is_some());
    assert!(
        shared.decisions() <= solo_decisions * THREADS as u64,
        "sharing must not add profiling work: {} > {} × {THREADS}",
        shared.decisions(),
        solo_decisions
    );
}

/// Two scheduler lifetimes over one store directory: the first profiles
/// and checkpoints, the second recovers the table and its eight streams
/// make no α decision at all.
#[test]
fn a_warm_start_over_the_same_store_decides_nothing() {
    let mut platform = Platform::haswell_desktop();
    platform.pcu.measurement_noise = 0.0;
    let model = easched_core::characterize(&platform, &Default::default());
    let dir = std::env::temp_dir().join(format!("easched-warm-start-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for warm in [false, true] {
        let config = EasConfig::new(Objective::EnergyDelay);
        let shared = SharedEas::with_persistence(model.clone(), config, &dir).expect("open store");
        assert_eq!(shared.table().is_empty(), !warm);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    let mut rt = EasRuntime::with_shared(platform.clone(), Arc::clone(&shared));
                    let out = rt.run(suite::mandelbrot_small().as_ref());
                    assert!(out.verification.is_passed());
                });
            }
        });
        assert_eq!(shared.decisions() == 0, warm, "{}", shared.decisions());
        shared.checkpoint().expect("checkpoint");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
