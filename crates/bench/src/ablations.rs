//! Ablation studies for the design choices called out in `DESIGN.md` §5.
//!
//! Each study swaps exactly one knob of the EAS pipeline and measures the
//! mean EDP efficiency (vs the same Oracle) across the desktop suite.

use crate::report::{csv, md_table, Report};
use crate::Lab;
use easched_core::{
    characterize_with_sweeps, CharacterizationConfig, Classifier, EasConfig, EasScheduler,
    Objective, PowerCurve, PowerModel, WorkloadClass,
};
use easched_kernels::{suite, InvocationTrace};
use easched_num::{mean, polyfit};
use easched_runtime::replay_trace;
use easched_sim::{KernelTraits, Machine};

/// Per-workload evaluation context: trace, traits, and the Oracle scores
/// for EDP and Energy (scheduler-independent, so computed once per study).
struct Ctx {
    /// `(abbrev, traits, trace, oracle_edp, oracle_energy)`.
    items: Vec<(String, KernelTraits, InvocationTrace, f64, f64)>,
}

impl Ctx {
    fn new(lab: &mut Lab) -> Ctx {
        let ev = easched_core::Evaluator::new(lab.desktop.clone(), lab.desktop_model.clone());
        let mut items = Vec::new();
        for w in suite::desktop_suite() {
            let trace = lab.trace(w.as_ref(), true);
            let traits = w.traits_for(&lab.desktop);
            let sweep = ev.fixed_sweep(&traits, &trace);
            let (_, oracle_edp) = sweep.oracle(&Objective::EnergyDelay);
            let (_, oracle_e) = sweep.oracle(&Objective::Energy);
            items.push((
                w.spec().abbrev.to_string(),
                traits,
                trace,
                oracle_edp.score,
                oracle_e.score,
            ));
        }
        Ctx { items }
    }

    /// Mean (EDP, energy) efficiency of a freshly configured EAS across the
    /// suite; the EAS objective matches the metric being scored.
    fn eas_efficiency(
        &self,
        platform: &easched_sim::Platform,
        model: &PowerModel,
        config: &EasConfig,
    ) -> (f64, f64) {
        let mut edp_effs = Vec::new();
        let mut e_effs = Vec::new();
        for (_, traits, trace, oracle_edp, oracle_e) in &self.items {
            for (objective, oracle_score, out) in [
                (Objective::EnergyDelay, oracle_edp, &mut edp_effs),
                (Objective::Energy, oracle_e, &mut e_effs),
            ] {
                let mut cfg = config.clone();
                cfg.objective = objective.clone();
                let mut eas = EasScheduler::new(model.clone(), cfg);
                let mut machine = Machine::new(platform.clone());
                let m = replay_trace(&mut machine, traits, 1, trace, &mut eas);
                let score = objective.of_totals(m.energy_joules, m.time);
                out.push(if score > 0.0 {
                    oracle_score / score
                } else {
                    0.0
                });
            }
        }
        (mean(&edp_effs).unwrap_or(0.0), mean(&e_effs).unwrap_or(0.0))
    }
}

fn study_report(
    id: &str,
    title: &str,
    knob: &str,
    rows: Vec<(String, (f64, f64))>,
    note: &str,
) -> Report {
    let mut report = Report::new(id, title);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|(k, (edp, e))| vec![k.clone(), format!("{edp:.3}"), format!("{e:.3}")])
        .collect();
    report.attach_csv(
        id.to_string(),
        csv(
            &[knob, "mean_edp_efficiency", "mean_energy_efficiency"],
            &table,
        ),
    );
    report.line(md_table(
        &[
            knob,
            "mean EDP eff. vs Oracle",
            "mean energy eff. vs Oracle",
        ],
        &table,
    ));
    report.line(format!("- {note}"));
    report
}

/// DESIGN.md §5.1 — polynomial order of the power-curve fit (paper: 6).
pub(crate) fn poly_order(lab: &mut Lab) -> Report {
    let ctx = Ctx::new(lab);
    let (_, sweeps) = characterize_with_sweeps(&lab.desktop, &CharacterizationConfig::default());
    let mut rows = Vec::new();
    let mut fit_rows = Vec::new();
    for order in 1..=8 {
        let curves: Vec<PowerCurve> = sweeps
            .iter()
            .map(|s| {
                let xs: Vec<f64> = s.points.iter().map(|p| p.alpha).collect();
                let ys: Vec<f64> = s.points.iter().map(|p| p.watts).collect();
                let fit = polyfit(&xs, &ys, order).expect("sweep fittable");
                let (rmse, n) = (fit.rmse(), fit.samples());
                PowerCurve::new(s.class, fit.into_poly(), rmse, n)
            })
            .collect();
        let mean_rmse = mean(&curves.iter().map(|c| c.rmse()).collect::<Vec<_>>()).unwrap();
        let model = PowerModel::new(lab.desktop.name, curves);
        let eff = ctx.eas_efficiency(
            &lab.desktop,
            &model,
            &EasConfig::new(Objective::EnergyDelay),
        );
        fit_rows.push(vec![order.to_string(), format!("{mean_rmse:.3}")]);
        rows.push((order.to_string(), eff));
    }
    let mut report = study_report(
        "ablation-poly",
        "Polynomial order of the power characterization fit",
        "order",
        rows,
        "the paper found sixth order a good fit; lower orders smooth away the curve \
         structure the scheduler relies on, higher orders chase measurement noise",
    );
    report.line("\nFit quality (mean RMSE in watts across the eight categories):\n");
    report.line(md_table(&["order", "mean RMSE (W)"], &fit_rows));
    report
}

/// DESIGN.md §5.2 — α-grid resolution for the objective minimization
/// (paper: 0.1 steps).
pub(crate) fn grid_resolution(lab: &mut Lab) -> Report {
    let ctx = Ctx::new(lab);
    let mut rows = Vec::new();
    for steps in [2usize, 4, 10, 20, 100] {
        let mut config = EasConfig::new(Objective::EnergyDelay);
        config.alpha_search = easched_core::AlphaSearch::Grid(steps);
        let eff = ctx.eas_efficiency(&lab.desktop, &lab.desktop_model, &config);
        rows.push((format!("grid 1/{steps}"), eff));
    }
    let mut config = EasConfig::new(Objective::EnergyDelay);
    config.alpha_search = easched_core::AlphaSearch::GoldenSection { tol: 1e-4 };
    rows.push((
        "golden section (continuous)".to_string(),
        ctx.eas_efficiency(&lab.desktop, &lab.desktop_model, &config),
    ));
    study_report(
        "ablation-grid",
        "GPU-offload grid resolution",
        "grid step",
        rows,
        "the paper evaluates the objective in 0.1 increments and notes the cost is \
         negligible; finer grids change decisions only marginally because the model \
         error exceeds the grid error",
    )
}

/// DESIGN.md §5.3 — eight workload categories vs a single pooled power
/// curve.
pub(crate) fn categories(lab: &mut Lab) -> Report {
    let ctx = Ctx::new(lab);
    let (_, sweeps) = characterize_with_sweeps(&lab.desktop, &CharacterizationConfig::default());

    // Pooled model: one fit over every sweep point, replicated to all eight
    // class slots.
    let xs: Vec<f64> = sweeps
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.alpha))
        .collect();
    let ys: Vec<f64> = sweeps
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.watts))
        .collect();
    let pooled_fit = polyfit(&xs, &ys, 6).expect("pooled sweep fittable");
    let pooled_curves: Vec<PowerCurve> = WorkloadClass::all()
        .into_iter()
        .map(|c| {
            PowerCurve::new(
                c,
                pooled_fit.poly().clone(),
                pooled_fit.rmse(),
                pooled_fit.samples(),
            )
        })
        .collect();
    let pooled = PowerModel::new(lab.desktop.name, pooled_curves);

    let config = EasConfig::new(Objective::EnergyDelay);
    let rows = vec![
        (
            "1 pooled curve".to_string(),
            ctx.eas_efficiency(&lab.desktop, &pooled, &config),
        ),
        (
            "8 per-category curves (paper)".to_string(),
            ctx.eas_efficiency(&lab.desktop, &lab.desktop_model, &config),
        ),
    ];
    study_report(
        "ablation-categories",
        "Eight workload categories vs one pooled power curve",
        "power model",
        rows,
        "pooling erases the compute/memory power difference (≈55 W vs ≈63 W combined) \
         and the short-burst transients, degrading α choices",
    )
}

/// DESIGN.md §5.4 — profiling strategy: fraction profiled and convergence
/// stopping.
pub(crate) fn profile_strategy(lab: &mut Lab) -> Report {
    let ctx = Ctx::new(lab);
    let mut rows = Vec::new();
    for (fraction, stable, label) in [
        (0.5, 0, "half, no early stop (paper Fig 7)"),
        (0.5, 3, "half, stop when α stable ×3 (default)"),
        (0.25, 3, "quarter, stop when stable"),
        (0.1, 3, "tenth, stop when stable"),
    ] {
        let mut config = EasConfig::new(Objective::EnergyDelay);
        config.profile_fraction = fraction;
        config.profile_stable_rounds = stable;
        let eff = ctx.eas_efficiency(&lab.desktop, &lab.desktop_model, &config);
        rows.push((label.to_string(), eff));
    }
    study_report(
        "ablation-profile",
        "Repeated-profiling budget (size-based strategy)",
        "strategy",
        rows,
        "profiling runs both devices at combined-mode power; stopping once the α \
         estimate converges keeps the overhead near zero on single-invocation kernels",
    )
}

/// DESIGN.md §5.5 — sample-weighted α accumulation vs last-value.
pub(crate) fn accumulation(lab: &mut Lab) -> Report {
    let ctx = Ctx::new(lab);
    let mut rows = Vec::new();
    for (acc, label) in [
        (
            easched_core::Accumulation::SampleWeighted,
            "sample-weighted (paper)",
        ),
        (easched_core::Accumulation::LastValue, "last value"),
    ] {
        let mut config = EasConfig::new(Objective::EnergyDelay);
        config.accumulation = acc;
        let eff = ctx.eas_efficiency(&lab.desktop, &lab.desktop_model, &config);
        rows.push((label.to_string(), eff));
    }
    study_report(
        "ablation-accum",
        "Offload-ratio accumulation across invocations",
        "accumulation",
        rows,
        "sample weighting lets early small-N CPU-only invocations and later \
         re-profiles average out per-invocation noise on irregular kernels",
    )
}

/// DESIGN.md §5.6 — classifier threshold sensitivity.
pub(crate) fn thresholds(lab: &mut Lab) -> Report {
    let ctx = Ctx::new(lab);
    let mut rows = Vec::new();
    for (mem, short, label) in [
        (0.33, 0.100, "0.33 miss/load, 100 ms (paper)"),
        (0.20, 0.100, "0.20 miss/load"),
        (0.50, 0.100, "0.50 miss/load"),
        (0.33, 0.050, "50 ms short/long"),
        (0.33, 0.200, "200 ms short/long"),
    ] {
        let mut config = EasConfig::new(Objective::EnergyDelay);
        config.classifier = Classifier {
            memory_threshold: mem,
            short_threshold: short,
        };
        let eff = ctx.eas_efficiency(&lab.desktop, &lab.desktop_model, &config);
        rows.push((label.to_string(), eff));
    }
    study_report(
        "ablation-thresholds",
        "Classifier threshold sensitivity",
        "thresholds",
        rows,
        "the paper notes both thresholds were sufficient for all twelve workloads on \
         both platforms; moderate perturbations mainly move borderline workloads \
         between adjacent curves",
    )
}

/// Extension study: a kernel whose device balance *drifts* mid-run — the
/// case §3.1 motivates with "for workloads where the same kernel behaves
/// differently over time, we repeat profiling".
pub(crate) fn drift(lab: &mut Lab) -> Report {
    use easched_runtime::Scheduler;

    let platform = &lab.desktop;
    // Phase A: GPU-friendly; phase B: the same kernel turns CPU-friendly
    // (e.g. its data becomes branch-divergent on the GPU).
    let traits_a = easched_sim::KernelTraits::builder("drift")
        .cpu_rate(3.0e6)
        .gpu_rate(7.5e6)
        .memory_intensity(0.2)
        .build();
    let traits_b = easched_sim::KernelTraits::builder("drift")
        .cpu_rate(7.5e6)
        .gpu_rate(1.5e6)
        .memory_intensity(0.2)
        .build();
    let half = InvocationTrace {
        sizes: vec![262_144; 40],
    };

    let run_pair = |mut sched: &mut dyn Scheduler| {
        let mut machine = Machine::new(platform.clone());
        let a = replay_trace(&mut machine, &traits_a, 1, &half, &mut sched);
        let b = replay_trace(&mut machine, &traits_b, 1, &half, &mut sched);
        Objective::EnergyDelay.of_totals(a.energy_joules + b.energy_joules, a.time + b.time)
    };

    // Drift-aware fixed-α oracle over the whole run.
    let mut oracle = f64::INFINITY;
    for i in 0..=10 {
        let mut fixed = easched_runtime::FixedAlpha::new(i as f64 / 10.0);
        oracle = oracle.min(run_pair(&mut fixed));
    }

    let mut rows = Vec::new();
    for (reprofile, label) in [
        (None, "no re-profiling (strict Fig 7 reuse)"),
        (Some(8), "re-profile every 8 invocations"),
        (Some(2), "re-profile every 2 invocations"),
    ] {
        let mut config = EasConfig::new(Objective::EnergyDelay);
        config.reprofile_every = reprofile;
        let mut eas = EasScheduler::new(lab.desktop_model.clone(), config);
        let score = run_pair(&mut eas);
        rows.push(vec![label.to_string(), format!("{:.3}", oracle / score)]);
    }
    let mut report = Report::new(
        "ablation-drift",
        "Re-profiling under mid-run behaviour drift (extension)",
    );
    report.attach_csv(
        "ablation-drift",
        csv(&["strategy", "edp_efficiency_vs_drift_oracle"], &rows),
    );
    report.line(md_table(
        &["strategy", "EDP efficiency vs drift-aware fixed Oracle"],
        &rows,
    ));
    report.line(
        "- without re-profiling, the α learned in the GPU-friendly phase is reused          after the kernel turns CPU-friendly; periodic re-profiling recovers most of          the loss, at near-zero overhead (§3.1).",
    );
    report
}

/// Runs every ablation study.
pub(crate) fn all(lab: &mut Lab) -> Vec<Report> {
    vec![
        poly_order(lab),
        grid_resolution(lab),
        categories(lab),
        profile_strategy(lab),
        accumulation(lab),
        thresholds(lab),
        drift(lab),
    ]
}
