//! Experiment-shape assertions (DESIGN.md §4): the qualitative claims of
//! every paper figure must hold in the reproduction. These use trace
//! replay (no functional execution) so they are fast in debug builds.

use easched::core::{
    characterize, CharacterizationConfig, EasConfig, EasScheduler, Evaluator, Objective,
};
use easched::kernels::{InvocationTrace, Profile};
use easched::runtime::{replay_trace, FixedAlpha};
use easched::sim::{KernelTraits, Machine, PhasePlan, Platform};

fn desktop_model() -> (Platform, easched::core::PowerModel) {
    let platform = Platform::haswell_desktop();
    let model = characterize(&platform, &CharacterizationConfig::default());
    (platform, model)
}

fn graph_like_traits() -> KernelTraits {
    // CC's calibrated profile (kept in sync with kernels::graphs).
    easched::kernels::ConnectedComponents::default_profile()
        .traits_for("CC", &Platform::haswell_desktop())
}

fn cc_like_trace() -> InvocationTrace {
    InvocationTrace {
        sizes: vec![262_144; 60],
    }
}

fn sweep(
    platform: &Platform,
    traits: &KernelTraits,
    trace: &InvocationTrace,
) -> Vec<(f64, f64, f64)> {
    (0..=10)
        .map(|i| {
            let alpha = i as f64 / 10.0;
            let mut m = Machine::new(platform.clone());
            let r = replay_trace(&mut m, traits, 1, trace, &mut FixedAlpha::new(alpha));
            (alpha, r.time, r.energy_joules)
        })
        .collect()
}

/// Figure 1's headline: the energy-optimal offload exceeds the
/// performance-optimal offload, and both are interior-or-GPU-heavy.
#[test]
fn fig1_shape_energy_optimum_beyond_perf_optimum() {
    let platform = Platform::haswell_desktop();
    let traits = graph_like_traits();
    let trace = cc_like_trace();
    let points = sweep(&platform, &traits, &trace);
    let perf_alpha = points.iter().min_by(|a, b| a.1.total_cmp(&b.1)).unwrap().0;
    let energy_alpha = points.iter().min_by(|a, b| a.2.total_cmp(&b.2)).unwrap().0;
    assert!(
        (0.4..=0.7).contains(&perf_alpha),
        "paper: best performance near α=0.6, got {perf_alpha}"
    );
    assert!(
        energy_alpha >= perf_alpha,
        "paper: minimum energy ({energy_alpha}) at or beyond best performance ({perf_alpha})"
    );
}

/// Figure 3: memory-bound combined execution draws more package power than
/// compute-bound (≈63 W vs ≈55 W on the desktop).
#[test]
fn fig3_shape_memory_draws_more_than_compute() {
    let platform = Platform::haswell_desktop();
    let measure = |mem: f64| {
        let traits = KernelTraits::builder("x")
            .cpu_rate(8.0e5)
            .gpu_rate(1.6e6)
            .memory_intensity(mem)
            .build();
        let mut m = Machine::new(platform.clone());
        let r = m.run_phase(&traits, &PhasePlan::split(2_000_000, 0.65));
        r.energy_joules / r.elapsed
    };
    let compute = measure(0.0);
    let memory = measure(1.0);
    assert!(
        (52.0..58.0).contains(&compute),
        "compute combined {compute} W"
    );
    assert!((59.0..65.0).contains(&memory), "memory combined {memory} W");
}

/// Figure 4: a GPU burst into ongoing CPU execution dips package power
/// below 40 W; the CPU-only plateau sits near 60 W.
#[test]
fn fig4_shape_burst_dip() {
    let platform = Platform::haswell_desktop();
    let traits = KernelTraits::builder("membench")
        .cpu_rate(8.0e5)
        .gpu_rate(1.2e6)
        .memory_intensity(1.0)
        .build();
    let mut m = Machine::new(platform.clone());
    m.enable_trace();
    for inv in 0..4 {
        m.run_phase(&traits, &PhasePlan::split(1_000_000, 0.05).with_seed(inv));
    }
    let trace = m.take_trace();
    let late: Vec<_> = trace
        .resample(0.005)
        .points()
        .iter()
        .filter(|p| p.time > 1.0)
        .cloned()
        .collect();
    let min = late.iter().map(|p| p.watts).fold(f64::INFINITY, f64::min);
    let max = late.iter().map(|p| p.watts).fold(0.0f64, f64::max);
    assert!(min < 40.0, "burst dip should go below 40 W, got {min}");
    assert!(max > 57.0, "CPU plateau should be near 60 W, got {max}");
}

/// Figures 9/10 orderings on a GPU-friendly compute kernel: EAS tracks the
/// oracle on both metrics, and a forced hybrid (PERF-like) loses energy.
#[test]
fn fig9_fig10_shape_on_compute_kernel() {
    let (platform, model) = desktop_model();
    // An MM-like kernel: GPU 3× faster, compute-bound.
    let traits = KernelTraits::builder("mm-like")
        .cpu_rate(2.2e5)
        .gpu_rate(7.0e5)
        .memory_intensity(0.15)
        .build();
    let trace = InvocationTrace {
        sizes: vec![262_144],
    };
    let ev = Evaluator::new(platform.clone(), model.clone());

    for objective in [Objective::EnergyDelay, Objective::Energy] {
        let (_, oracle) = ev.oracle(&traits, &trace, &objective);
        let mut eas = EasScheduler::new(model.clone(), EasConfig::new(objective.clone()));
        let mut machine = Machine::new(platform.clone());
        let m = replay_trace(&mut machine, &traits, 1, &trace, &mut eas);
        let eas_score = objective.of_totals(m.energy_joules, m.time);
        let eff = oracle.score / eas_score;
        assert!(
            eff > 0.85,
            "EAS within 15% of oracle on {}: got {eff:.3}",
            objective.name()
        );
    }

    // Energy: a balanced forced hybrid costs measurably more than
    // GPU-alone (the PERF pathology of Figure 10).
    let energy_at = |alpha: f64| {
        let mut machine = Machine::new(platform.clone());
        replay_trace(
            &mut machine,
            &traits,
            1,
            &trace,
            &mut FixedAlpha::new(alpha),
        )
        .energy_joules
    };
    assert!(
        energy_at(0.8) > energy_at(1.0) * 1.1,
        "hybrid must burn >10% more energy than GPU-alone on this kernel"
    );
}

/// Figure 11/12 platform contrast: on the tablet the GPU draws more power,
/// so GPU-alone loses ground that it holds on the desktop.
#[test]
fn fig11_shape_tablet_gpu_less_attractive() {
    let tablet = Platform::baytrail_tablet();
    let desktop = Platform::haswell_desktop();
    // The same moderate kernel on both platforms, scaled to each platform's
    // speed so durations are comparable.
    let mk = |cpu: f64, gpu: f64| {
        KernelTraits::builder("k")
            .cpu_rate(cpu)
            .gpu_rate(gpu)
            .memory_intensity(0.1)
            .build()
    };
    let trace = InvocationTrace {
        sizes: vec![200_000; 4],
    };
    let ratio = |platform: &Platform, traits: &KernelTraits| {
        let e = |alpha: f64| {
            let mut m = Machine::new(platform.clone());
            replay_trace(&mut m, traits, 1, &trace, &mut FixedAlpha::new(alpha)).energy_joules
        };
        e(1.0) / e(0.0) // GPU-alone energy relative to CPU-alone
    };
    let desktop_ratio = ratio(&desktop, &mk(2.2e5, 4.4e5));
    let tablet_ratio = ratio(&tablet, &mk(1.2e4, 2.4e4));
    assert!(
        desktop_ratio < tablet_ratio,
        "GPU-alone is relatively cheaper on the desktop: {desktop_ratio:.3} vs {tablet_ratio:.3}"
    );
    assert!(
        desktop_ratio < 0.5,
        "desktop GPU is a big energy win, got {desktop_ratio:.3}"
    );
}

/// EAS's small-N guard (the FD behaviour): invocations too small to fill
/// the GPU run on the CPU even after a GPU-friendly ratio was learned.
#[test]
fn small_invocations_stay_on_cpu() {
    let (platform, model) = desktop_model();
    let traits = KernelTraits::builder("fd-like")
        .cpu_rate(6.0e6)
        .gpu_rate(2.0e6)
        .memory_intensity(0.15)
        .build();
    // A cascade-like trace: one big invocation then many tiny ones.
    let mut sizes = vec![80_000u64];
    sizes.extend(std::iter::repeat_n(500, 30));
    let trace = InvocationTrace { sizes };
    let ev = Evaluator::new(platform.clone(), model.clone());
    let objective = Objective::EnergyDelay;
    let (_, oracle) = ev.oracle(&traits, &trace, &objective);

    let mut eas = EasScheduler::new(model, EasConfig::new(objective.clone()));
    let mut machine = Machine::new(platform);
    let m = replay_trace(&mut machine, &traits, 1, &trace, &mut eas);
    let eas_score = objective.of_totals(m.energy_joules, m.time);
    // The adaptive guard should beat or match the best *fixed* split.
    assert!(
        eas_score <= oracle.score * 1.05,
        "EAS {eas_score} should be within 5% of (or beat) the fixed-split oracle {}",
        oracle.score
    );
}

/// Table 1 spot checks: the profiles classify on the correct side of both
/// thresholds (full check lives in the figures harness).
#[test]
fn table1_shape_classification_sides() {
    let platform = Platform::haswell_desktop();
    let check = |profile: Profile, name: &str, expect_memory: bool| {
        let traits = profile.traits_for(name, &platform);
        let ratio = traits.l3_miss_ratio(platform.memory.llc_bytes);
        assert_eq!(ratio > 0.33, expect_memory, "{name}: miss/load {ratio}");
    };
    check(easched::kernels::Bfs::default_profile(), "BFS", true);
    check(easched::kernels::MatMul::default_profile(), "MM", false);
    check(easched::kernels::Mandelbrot::default_profile(), "MB", true);
    check(
        easched::kernels::BlackScholes::default_profile(),
        "BS",
        false,
    );
}
