//! EAS driving the *real-thread* backend: the paper's runtime architecture
//! (shared-counter CPU workers + GPU proxy thread) scheduled by the actual
//! policy in wall-clock time. Timing assertions are deliberately loose —
//! this validates plumbing and functional coverage, not wall-clock
//! precision.

use easched_core::{characterize, CharacterizationConfig, EasConfig, EasScheduler, Objective};
use easched_runtime::{Backend, Scheduler, ThreadBackend, ThreadBackendConfig};
use easched_sim::{KernelTraits, Platform};
use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};

#[test]
fn eas_schedules_real_threads_end_to_end() {
    let platform = Platform::haswell_desktop();
    let model = characterize(
        &platform,
        &CharacterizationConfig {
            alpha_steps: 10,
            ..Default::default()
        },
    );
    let mut eas = EasScheduler::new(model, EasConfig::new(Objective::EnergyDelay));

    let n = 60_000u64;
    let hits: Vec<AtomicU32> = (0..n as usize).map(|_| AtomicU32::new(0)).collect();
    let process = |items: Range<usize>| {
        for i in items {
            hits[i].fetch_add(1, Ordering::Relaxed);
        }
    };
    let traits = KernelTraits::builder("wall")
        .cpu_rate(5.0e5)
        .gpu_rate(1.0e6)
        .build();
    // Emulated GPU at 5M items/s wall-clock keeps the test under a second.
    let config = ThreadBackendConfig::new(2, 5.0e6);
    let mut backend = ThreadBackend::new(config, &platform, &traits, n, &process);
    eas.schedule(7, &mut backend);
    assert_eq!(backend.remaining(), 0, "EAS must consume the invocation");
    let _ = backend;

    assert!(
        hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
        "every item exactly once across CPU workers and GPU proxy"
    );
    assert!(eas.learned_alpha(7).is_some());
    assert!(eas.decisions() > 0, "profiling rounds were counted");

    // Second invocation reuses the learned ratio (no new decisions).
    let decisions = eas.decisions();
    let hits2: Vec<AtomicU32> = (0..n as usize).map(|_| AtomicU32::new(0)).collect();
    let process2 = |items: Range<usize>| {
        for i in items {
            hits2[i].fetch_add(1, Ordering::Relaxed);
        }
    };
    let mut backend = ThreadBackend::new(
        ThreadBackendConfig::new(2, 5.0e6),
        &platform,
        &traits,
        n,
        &process2,
    );
    eas.schedule(7, &mut backend);
    assert_eq!(backend.remaining(), 0);
    let _ = backend;
    assert_eq!(eas.decisions(), decisions, "table reuse path");
    assert!(hits2.iter().all(|h| h.load(Ordering::Relaxed) == 1));
}
