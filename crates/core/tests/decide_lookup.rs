//! Decide-by-lookup is the search, bit for bit.
//!
//! `DecisionEngine` answers most decisions from a per-class table of
//! ρ = R_G/R_C segments (DESIGN.md §8). Everything here compares it with
//! `searched`, a copy of the decision procedure as it stood before the
//! table existed: dense ρ sweeps and the few ulps around every stored
//! edge at five (R_C, N) scales, raw observations from proptest, the
//! calls that must not be answered from a table, and curves built to
//! have no safe segment.

use easched_core::{
    characterize, AlphaSearch, CharacterizationConfig, Decision, DecisionEngine, EasConfig,
    Objective, PowerCurve, PowerModel, TimeModel, WorkloadClass, PRIOR_WINDOW,
};
use easched_num::{golden_section_min, grid_min, Polynomial};
use easched_runtime::Observation;
use easched_sim::{CounterSnapshot, Platform};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// The decision procedure of the commit before the table: classify, then
/// sweep (or golden-section) OBJ(P(α), T(α)) over the window.
fn searched(
    model: &PowerModel,
    config: &EasConfig,
    obs: &Observation,
    n_remaining: u64,
    prior: Option<f64>,
) -> Decision {
    let r_c = obs.cpu_rate();
    let r_g = obs.gpu_rate();
    let class = config.classifier.classify(obs, n_remaining);
    let decision = |alpha: f64| Decision {
        kernel: 1,
        r_c,
        r_g,
        class,
        n_remaining,
        alpha,
    };
    if r_g <= 0.0 {
        return decision(0.0);
    }
    if r_c <= 0.0 {
        return decision(1.0);
    }
    let (lo, hi) = match prior {
        Some(p) if p.is_finite() => {
            let p = p.clamp(0.0, 1.0);
            ((p - PRIOR_WINDOW).max(0.0), (p + PRIOR_WINDOW).min(1.0))
        }
        _ => (0.0, 1.0),
    };
    let curve = model.curve(class);
    let tm = TimeModel::new(r_c, r_g);
    let score = |alpha: f64| {
        let t = tm.total_time(alpha, n_remaining);
        if !t.is_finite() {
            return f64::INFINITY;
        }
        config.objective.evaluate(curve.predict(alpha), t)
    };
    decision(match config.alpha_search {
        AlphaSearch::Grid(steps) => grid_min(lo, hi, steps.max(1), score).x,
        AlphaSearch::GoldenSection { tol } => {
            let mut best = golden_section_min(lo, hi, tol.max(1e-6), score);
            for endpoint in [lo, hi] {
                let v = score(endpoint);
                if v < best.1 {
                    best = (endpoint, v);
                }
            }
            best.0
        }
    })
}

fn assert_same(engine: &DecisionEngine, obs: &Observation, n: u64, prior: Option<f64>) {
    let got = engine.decide_with_prior(1, obs, n, prior);
    let want = searched(engine.model(), engine.config(), obs, n, prior);
    assert_eq!(
        (got.alpha.to_bits(), got),
        (want.alpha.to_bits(), want),
        "{} {:?} n={n} prior={prior:?} obs={obs:?}: table says {}, search says {}",
        engine.config().objective,
        engine.config().alpha_search,
        got.alpha,
        want.alpha,
    );
}

/// `items / seconds` that divide to exactly `rate` (a normal number).
fn exact_rate(rate: f64) -> (u64, f64) {
    let bits = rate.to_bits();
    let exponent = ((bits >> 52) & 0x7ff) as i64;
    assert!(rate > 0.0 && exponent != 0 && exponent != 0x7ff);
    let items = (bits & ((1 << 52) - 1)) | (1 << 52);
    // rate = items · 2^(exponent − 1075), so seconds = 2^(1075 − exponent).
    let seconds = f64::from_bits(((1023 + 1075 - exponent) as u64) << 52);
    (items, seconds)
}

/// An observation whose `cpu_rate()` and `gpu_rate()` are exactly these.
fn rates(r_c: f64, r_g: f64, memory_bound: bool) -> Observation {
    let (cpu_items, cpu_time) = exact_rate(r_c);
    let (gpu_items, gpu_time) = exact_rate(r_g);
    let obs = Observation {
        elapsed: 0.001,
        cpu_items,
        gpu_items,
        cpu_time,
        gpu_time,
        energy_joules: 0.05,
        counters: CounterSnapshot {
            instructions: 1e6,
            loads: 1e5,
            l3_misses: if memory_bound { 5e4 } else { 0.0 },
        },
    };
    assert_eq!((obs.cpu_rate(), obs.gpu_rate()), (r_c, r_g));
    obs
}

fn ulps(x: f64, by: i64) -> f64 {
    f64::from_bits((x.to_bits() as i64 + by) as u64)
}

fn platform_models() -> &'static [PowerModel] {
    static MODELS: OnceLock<Vec<PowerModel>> = OnceLock::new();
    MODELS.get_or_init(|| {
        [
            Platform::haswell_desktop(),
            Platform::baytrail_tablet(),
            Platform::skylake_minipc(),
        ]
        .iter()
        .map(|p| characterize(p, &CharacterizationConfig::default()))
        .collect()
    })
}

/// A model whose eight classes all carry `curve`, so the curve under
/// test is the one decided against at every (R_C, N) scale, whichever
/// class that scale lands in.
fn one_curve(name: &str, poly: &Polynomial) -> PowerModel {
    let curves = WorkloadClass::all()
        .into_iter()
        .map(|c| PowerCurve::new(c, poly.clone(), 0.0, 11))
        .collect();
    PowerModel::new(name, curves)
}

fn builtins() -> [Objective; 4] {
    [
        Objective::Energy,
        Objective::EnergyDelay,
        Objective::EnergyDelaySquared,
        Objective::Time,
    ]
}

fn engine(model: PowerModel, objective: Objective, search: AlphaSearch) -> DecisionEngine {
    let mut config = EasConfig::new(objective);
    config.alpha_search = search;
    DecisionEngine::new(model, config)
}

/// (R_C, N): N/R_C from 0.04 s to 2.4e7 s, so both sides of the
/// classifier's 100 ms, with the rates themselves 14 decades apart.
const SCALES: [(f64, u64); 5] = [
    (1e-3, 5),
    (37.0, 1_000),
    (1.0e6, 40_000),
    (3.3e8, 1 << 40),
    (2.5e11, u64::MAX / 3),
];

/// Sweeps ρ over [2⁻²¹, 2²¹] and the ulps around every stored edge, at
/// every scale; returns how many points of the ρ sweep a segment
/// answered, and how many it had.
fn sweep(engine: &DecisionEngine, points: usize) -> (usize, usize) {
    // Every class carries the same curve: any table is the table.
    let table = engine.alpha_table(WorkloadClass::from_index(0)).to_vec();
    for class in WorkloadClass::all() {
        assert_eq!(engine.alpha_table(class), &table[..]);
    }
    let mut answered = 0;
    for (r_c, n) in SCALES {
        for i in 0..points {
            let log2_rho = -21.0 + 42.0 * i as f64 / (points - 1) as f64;
            let r_g = r_c * log2_rho.exp2();
            assert_same(engine, &rates(r_c, r_g, i % 2 == 0), n, None);
            let rho = r_g / r_c;
            answered += usize::from(table.iter().any(|s| s.rho_lo <= rho && rho <= s.rho_hi));
        }
        for segment in &table {
            for edge in [segment.rho_lo, segment.rho_hi] {
                // R_G a few ulps either side of edge·R_C puts R_G/R_C on
                // the edge and on each of its near neighbours.
                for by in -6..=6 {
                    assert_same(engine, &rates(r_c, ulps(edge * r_c, by), by < 0), n, None);
                }
            }
        }
    }
    (answered, points * SCALES.len())
}

#[test]
fn characterized_curves_decide_as_the_search_does_at_every_scale() {
    // The dense sweep is release-speed work; a debug build re-runs the
    // search inside `decide` as well and takes a thinner one.
    let points = if cfg!(debug_assertions) {
        1_000
    } else {
        40_000
    };
    for model in platform_models() {
        for curve in model.curves() {
            let model = one_curve(model.platform_name(), curve.poly());
            for objective in builtins() {
                for steps in [2, 10, 20, 100] {
                    let engine = engine(model.clone(), objective.clone(), AlphaSearch::Grid(steps));
                    let (answered, swept) = sweep(&engine, points);
                    assert!(
                        answered * 100 >= swept * 99,
                        "{} {} {objective} Grid({steps}): table answered {answered} of {swept}",
                        model.platform_name(),
                        curve.class().label(),
                    );
                }
            }
        }
    }
}

/// A count from nothing to 2⁶⁴, every magnitude as likely as any other.
fn any_count() -> impl Strategy<Value = u64> {
    (0u32..65, any::<u64>()).prop_map(|(shift, bits)| bits.checked_shr(shift).unwrap_or(0))
}

/// Items and seconds: seconds log-uniform from 1e-12 to 1e6, and a
/// broken clock one time in four.
fn any_rate_parts() -> impl Strategy<Value = (u64, f64)> {
    let broken = prop_oneof![
        Just(0.0),
        Just(-1.0),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::MIN_POSITIVE),
        Just(5e-324),
    ];
    let seconds = (0u32..4, -12.0..6.0f64, broken).prop_map(|(pick, exponent, broken)| {
        if pick == 0 {
            broken
        } else {
            10f64.powf(exponent)
        }
    });
    (any_count(), seconds)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// Raw observations, as a backend could hand them over, against the
    /// eleven-point sweep on the characterized desktop model.
    #[test]
    fn raw_observations_decide_as_the_eleven_point_sweep_does(
        cpu in any_rate_parts(),
        gpu in any_rate_parts(),
        loads in 0.0..1e6f64,
        miss_ratio in 0.0..1.0f64,
        n in any_count(),
        objective in 0usize..4,
    ) {
        static ENGINES: OnceLock<Vec<DecisionEngine>> = OnceLock::new();
        let engines = ENGINES.get_or_init(|| {
            builtins()
                .into_iter()
                .map(|o| engine(platform_models()[0].clone(), o, AlphaSearch::Grid(10)))
                .collect()
        });
        let obs = Observation {
            elapsed: 0.001,
            cpu_items: cpu.0,
            cpu_time: cpu.1,
            gpu_items: gpu.0,
            gpu_time: gpu.1,
            energy_joules: 0.05,
            counters: CounterSnapshot {
                instructions: 1e6,
                loads,
                l3_misses: loads * miss_ratio,
            },
        };
        assert_same(&engines[objective], &obs, n, None);
    }
}

fn desktop(objective: Objective, search: AlphaSearch) -> DecisionEngine {
    engine(platform_models()[0].clone(), objective, search)
}

#[test]
fn a_custom_objective_or_a_golden_section_search_tabulates_nothing() {
    let custom = Objective::Custom {
        name: "sqrt-edp",
        f: Arc::new(|p, t| (p * t * t).sqrt()),
    };
    let engines = [
        desktop(custom, AlphaSearch::Grid(10)),
        desktop(
            Objective::EnergyDelay,
            AlphaSearch::GoldenSection { tol: 1e-4 },
        ),
        // Finer than the table is built for.
        desktop(Objective::EnergyDelay, AlphaSearch::Grid(1_000)),
    ];
    for engine in &engines {
        for class in WorkloadClass::all() {
            assert!(engine.alpha_table(class).is_empty());
        }
        for i in 0..400 {
            let r_g = 1.0e6 * (-8.0 + 16.0 * f64::from(i) / 399.0).exp2();
            assert_same(engine, &rates(1.0e6, r_g, i % 2 == 0), 40_000, None);
            assert_same(engine, &rates(1.0e6, r_g, i % 2 == 0), 0, None);
        }
    }
}

#[test]
fn a_prior_window_is_searched_not_looked_up() {
    for objective in builtins() {
        let engine = desktop(objective, AlphaSearch::Grid(10));
        for i in 0..200 {
            let r_g = 1.0e6 * (-6.0 + 12.0 * f64::from(i) / 199.0).exp2();
            let obs = rates(1.0e6, r_g, i % 2 == 0);
            for prior in [
                0.0,
                0.13,
                0.5,
                0.77,
                1.0,
                7.0,
                -3.0,
                f64::NAN,
                f64::INFINITY,
            ] {
                assert_same(&engine, &obs, 40_000, Some(prior));
                assert_same(&engine, &obs, 0, Some(prior));
            }
        }
    }
}

#[test]
fn dead_devices_and_broken_clocks_keep_their_answers() {
    let live = (1_000u64, 0.001f64);
    let broken = [
        (0u64, 0.001f64),
        (1_000, 0.0),
        (1_000, -1.0),
        (1_000, f64::NAN),
        // An infinite clock reads as a dead device, a subnormal one as an
        // infinite rate.
        (1_000, f64::INFINITY),
        (u64::MAX, 5e-324),
    ];
    for objective in builtins() {
        let engine = desktop(objective, AlphaSearch::Grid(10));
        for (cpu, gpu) in broken.iter().flat_map(|&b| [(b, live), (live, b), (b, b)]) {
            let obs = Observation {
                cpu_items: cpu.0,
                cpu_time: cpu.1,
                gpu_items: gpu.0,
                gpu_time: gpu.1,
                ..Default::default()
            };
            for n in [0, 1, 40_000, u64::MAX] {
                assert_same(&engine, &obs, n, None);
            }
        }
    }
}

#[test]
fn rho_and_span_outside_the_domain_are_searched() {
    for objective in builtins() {
        let engine = desktop(objective, AlphaSearch::Grid(10));
        for class in WorkloadClass::all() {
            let table = engine.alpha_table(class);
            assert!(!table.is_empty());
            assert!(table[0].rho_lo >= (-32.0f64).exp2());
            assert!(table[table.len() - 1].rho_hi <= 32.0f64.exp2());
        }
        // ρ from 2⁻⁶⁰ to 2⁶⁰, through both ends of the table.
        for e in -60..=60 {
            let r_g = 1.0e6 * f64::from(e).exp2();
            assert_same(&engine, &rates(1.0e6, r_g, e % 2 == 0), 40_000, None);
        }
        // N/R_C from 2⁻¹³⁰ to 2³⁶⁴ seconds, through both ends of the span
        // bound, and where P·T³ leaves the normal range.
        for e in (-300..=130).step_by(5) {
            let r_c = f64::from(e).exp2();
            for ratio in [0.25, 1.0, 3.0] {
                for n in [1, 40_000, u64::MAX] {
                    assert_same(&engine, &rates(r_c, r_c * ratio, false), n, None);
                }
            }
        }
    }
}

#[test]
fn nothing_left_to_run_decides_the_first_sample() {
    for objective in builtins() {
        for steps in [1, 2, 10, 100] {
            let engine = desktop(objective.clone(), AlphaSearch::Grid(steps));
            for e in -40..=40 {
                let obs = rates(1.0e6, 1.0e6 * f64::from(e).exp2(), e % 2 == 0);
                assert_eq!(engine.decide(1, &obs, 0).alpha.to_bits(), 0.0f64.to_bits());
                assert_same(&engine, &obs, 0, None);
            }
        }
    }
}

/// Sweeps one engine around ρ = 1 at two scales.
fn agrees_around_one(engine: &DecisionEngine) {
    for i in 0..4_000 {
        let rho = (-7.0 + 14.0 * f64::from(i) / 3_999.0).exp2();
        assert_same(engine, &rates(1.0e6, 1.0e6 * rho, false), 40_000, None);
        assert_same(engine, &rates(3.0, 3.0 * rho, true), 7, None);
    }
}

#[test]
fn a_flat_curve_keeps_its_coinciding_crossings_out_of_the_table() {
    // Flat P: sample i's falling branch meets sample j's level at
    // ρ = αᵢ/(1−αⱼ), and many of those coincide exactly (ρ = 1 is where
    // every i + j = 10 pair crosses).
    for objective in builtins() {
        let engine = engine(
            one_curve("flat", &Polynomial::constant(50.0)),
            objective,
            AlphaSearch::Grid(10),
        );
        let (answered, swept) = sweep(&engine, 4_000);
        assert!(answered * 100 >= swept * 99);
        agrees_around_one(&engine);
    }
}

#[test]
fn two_tied_samples_get_no_segment() {
    // P(α) = 9 + 10α under energy: samples 0 and 1 level off at
    // P·(1−α) = 9 both, and are the two best from ρ ≈ 0.111 (where
    // sample 1 levels) to ρ ≈ 0.244 (where sample 2 undercuts them).
    // Which of the two the sweep keeps there is a matter of rounding.
    let engine = engine(
        one_curve("tied", &Polynomial::new(vec![9.0, 10.0])),
        Objective::Energy,
        AlphaSearch::Grid(10),
    );
    let table = engine.alpha_table(WorkloadClass::from_index(0));
    assert!(!table.is_empty());
    assert!(
        table.iter().all(|s| s.rho_hi < 0.112 || s.rho_lo > 0.24),
        "{table:?}"
    );
    sweep(&engine, 4_000);
    agrees_around_one(&engine);
}

#[test]
fn a_curve_clamped_to_zero_or_out_of_range_is_never_tabulated() {
    let dipping = [
        // Negative from α = 0.45 on: `predict` clamps to 0 there, and a
        // zero score ties every such sample.
        Polynomial::new(vec![9.0, -20.0]),
        // Zero at α = 0 only.
        Polynomial::new(vec![0.0, 10.0]),
        // Watts no curve fit could mean.
        Polynomial::constant(1e-40),
        Polynomial::constant(1e40),
        Polynomial::constant(f64::NAN),
        Polynomial::constant(f64::INFINITY),
    ];
    for poly in &dipping {
        for objective in builtins() {
            let engine = engine(one_curve("dipping", poly), objective, AlphaSearch::Grid(10));
            for class in WorkloadClass::all() {
                assert!(engine.alpha_table(class).is_empty(), "{poly:?}");
            }
            agrees_around_one(&engine);
            assert_same(&engine, &rates(1.0e6, 2.0e6, false), 0, None);
        }
    }
}
