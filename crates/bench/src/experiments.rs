//! One regenerator per table and figure of the paper's evaluation.
//!
//! Each function produces a [`Report`] with the measured data (CSV) and a
//! paper-vs-measured markdown summary. `DESIGN.md` §4 maps experiment ids to
//! the paper's figures; `EXPERIMENTS.md` records the comparisons.

use crate::report::{compare_line, csv, md_table, pct, Report};
use easched_core::{
    characterize_with_sweeps, CharacterizationConfig, Classifier, EasConfig, EasScheduler,
    Evaluator, Objective, PowerModel, WorkloadComparison,
};
use easched_kernels::{record_trace, suite, InvocationTrace, MicroBenchmark, Workload};
use easched_num::mean;
use easched_runtime::{replay_trace, Backend, FixedAlpha, SimBackend};
use easched_sim::{Machine, PhasePlan, Platform};
use easched_telemetry::DecisionCsvSink;
use std::collections::HashMap;
use std::sync::Arc;

/// Cached platforms, power models, and workload traces shared by the
/// experiments (characterization runs once per platform; each workload
/// executes functionally once).
pub struct Lab {
    /// The Haswell desktop platform.
    pub(crate) desktop: Platform,
    /// The Bay Trail tablet platform.
    pub(crate) tablet: Platform,
    /// Desktop power model.
    pub(crate) desktop_model: PowerModel,
    /// Tablet power model.
    pub(crate) tablet_model: PowerModel,
    /// Keyed by (abbreviation, desktop suite?): every study asking for one
    /// suite's workload shares its one recording.
    traces: HashMap<(&'static str, bool), InvocationTrace>,
}

impl Lab {
    /// Characterizes both platforms (the one-time step).
    pub fn new() -> Lab {
        let desktop = Platform::haswell_desktop();
        let tablet = Platform::baytrail_tablet();
        let config = CharacterizationConfig::default();
        let (desktop_model, _) = characterize_with_sweeps(&desktop, &config);
        let (tablet_model, _) = characterize_with_sweeps(&tablet, &config);
        Lab {
            desktop,
            tablet,
            desktop_model,
            tablet_model,
            traces: HashMap::new(),
        }
    }

    /// Records (and caches) the invocation trace of a workload of the
    /// desktop suite (`desktop`) or the tablet suite, asserting functional
    /// verification.
    pub(crate) fn trace(&mut self, workload: &dyn Workload, desktop: bool) -> InvocationTrace {
        let key = (workload.spec().abbrev, desktop);
        if let Some(t) = self.traces.get(&key) {
            return t.clone();
        }
        let (trace, verification) = record_trace(workload);
        assert!(
            verification.is_passed(),
            "workload {key:?} failed verification: {verification:?}"
        );
        self.traces.insert(key, trace.clone());
        trace
    }

    fn evaluator(&self, desktop: bool) -> Evaluator {
        if desktop {
            Evaluator::new(self.desktop.clone(), self.desktop_model.clone())
        } else {
            Evaluator::new(self.tablet.clone(), self.tablet_model.clone())
        }
    }
}

impl Default for Lab {
    fn default() -> Self {
        Lab::new()
    }
}

/// Figure 1: Connected Components energy/time vs GPU offload on the desktop.
pub(crate) fn fig1(lab: &mut Lab) -> Report {
    let mut report = Report::new("fig1", "CC energy & performance vs GPU offload (desktop)");
    let cc = suite::cc_desktop();
    let trace = lab.trace(cc.as_ref(), true);
    let traits = cc.traits_for(&lab.desktop);

    let mut rows = Vec::new();
    let mut best_time = (0.0f64, f64::INFINITY);
    let mut best_energy = (0.0f64, f64::INFINITY);
    for i in 0..=10 {
        let alpha = i as f64 / 10.0;
        let mut machine = Machine::new(lab.desktop.clone());
        let m = replay_trace(
            &mut machine,
            &traits,
            1,
            &trace,
            &mut FixedAlpha::new(alpha),
        );
        if m.time < best_time.1 {
            best_time = (alpha, m.time);
        }
        if m.energy_joules < best_energy.1 {
            best_energy = (alpha, m.energy_joules);
        }
        rows.push(vec![
            format!("{alpha:.1}"),
            format!("{:.3}", m.time),
            format!("{:.1}", m.energy_joules),
            format!("{:.1}", m.edp()),
        ]);
    }
    report.attach_csv(
        "fig1_cc_sweep",
        csv(&["alpha", "time_s", "energy_j", "edp"], &rows),
    );
    report.line(md_table(&["α", "time (s)", "energy (J)", "EDP"], &rows));
    report.line(compare_line(
        "best-performance offload",
        "α = 0.6",
        &format!("α = {:.1}", best_time.0),
    ));
    report.line(compare_line(
        "minimum-energy offload",
        "α = 0.9",
        &format!("α = {:.1}", best_energy.0),
    ));
    report.line(format!(
        "- energy-optimal offload exceeds performance-optimal: **{}**",
        best_energy.0 > best_time.0
    ));
    report
}

/// Runs a micro-benchmark workload on a traced machine and returns the
/// trace CSV plus phase statistics.
fn traced_micro_run(
    platform: &Platform,
    micro: &MicroBenchmark,
    alpha: f64,
    invocations: u32,
) -> (String, f64, f64) {
    let mut machine = Machine::new(platform.clone());
    machine.enable_trace();
    for inv in 0..invocations {
        machine.run_phase(
            micro.traits(),
            &PhasePlan::split(micro.items, alpha).with_seed(u64::from(inv)),
        );
    }
    let trace = machine.take_trace();
    let resampled = trace.resample(0.010);
    (resampled.to_csv(), trace.min_power(), trace.max_power())
}

/// Figure 2: package power over time, memory-bound workload at 90-10
/// GPU-CPU split, on both platforms.
pub(crate) fn fig2(lab: &mut Lab) -> Report {
    let mut report = Report::new(
        "fig2",
        "Package power over time, memory-bound 90-10 GPU-CPU split",
    );
    for (platform, name) in [(&lab.tablet, "baytrail"), (&lab.desktop, "haswell")] {
        let micro = MicroBenchmark::for_platform(platform, true, false, false);
        let (trace_csv, min_w, max_w) = traced_micro_run(platform, &micro, 0.9, 3);
        report.attach_csv(format!("fig2_{name}"), trace_csv);
        report.line(format!("- {name}: power range {min_w:.2} – {max_w:.2} W"));
    }
    report.line(compare_line(
        "Bay Trail power drops in CPU-only intervals",
        "significant drop when GPU idle",
        "see fig2_baytrail.csv (GPU phases draw more than CPU phases)",
    ));
    report
}

/// Figure 3: power over time for long-running compute- vs memory-bound
/// micro-benchmarks (desktop).
pub(crate) fn fig3(lab: &mut Lab) -> Report {
    let mut report = Report::new("fig3", "Compute vs memory-bound power traces (desktop)");
    let mut combined = Vec::new();
    for (memory, name) in [(false, "compute"), (true, "memory")] {
        let micro = MicroBenchmark::for_platform(&lab.desktop, memory, false, false);
        let mut machine = Machine::new(lab.desktop.clone());
        machine.enable_trace();
        // Split near the balance point so the combined phase is long.
        let traits = micro.traits();
        let alpha_balanced = traits.gpu_rate() / (traits.cpu_rate() + traits.gpu_rate());
        machine.run_phase(traits, &PhasePlan::split(micro.items * 2, alpha_balanced));
        let trace = machine.take_trace();
        // Steady combined-phase power after the initial ramp.
        let window: Vec<f64> = trace
            .points()
            .iter()
            .filter(|p| p.time > 0.2 && p.time < 0.5)
            .map(|p| p.watts)
            .collect();
        let steady = mean(&window).unwrap_or(0.0);
        combined.push(steady);
        report.attach_csv(format!("fig3_{name}"), trace.resample(0.010).to_csv());
        report.line(format!(
            "- {name}-bound combined-phase power: {steady:.1} W"
        ));
    }
    report.line(compare_line(
        "combined power, compute-bound",
        "≈55 W",
        &format!("{:.1} W", combined[0]),
    ));
    report.line(compare_line(
        "combined power, memory-bound",
        "≈63 W",
        &format!("{:.1} W", combined[1]),
    ));
    report
}

/// Figure 4: ten short GPU bursts (α = 0.05) dropping package power below
/// 40 W on the desktop.
pub(crate) fn fig4(lab: &mut Lab) -> Report {
    let mut report = Report::new("fig4", "Short GPU bursts drop package power (desktop)");
    let micro = MicroBenchmark::for_platform(&lab.desktop, true, false, false);
    let mut machine = Machine::new(lab.desktop.clone());
    machine.enable_trace();
    for inv in 0..10 {
        machine.run_phase(
            micro.traits(),
            &PhasePlan::split(micro.items, 0.05).with_seed(inv),
        );
    }
    let trace = machine.take_trace();
    report.attach_csv("fig4_bursts", trace.resample(0.010).to_csv());

    // Count dips below 40 W after the initial from-idle ramp, and measure
    // the CPU-phase plateau.
    let points = trace.resample(0.005);
    let mut dips = 0;
    let mut below = false;
    let mut plateau = Vec::new();
    let mut burst_min = f64::INFINITY;
    for p in points.points().iter().skip_while(|p| p.time < 0.5) {
        if p.watts < 40.0 {
            if !below {
                dips += 1;
            }
            below = true;
            burst_min = burst_min.min(p.watts);
        } else {
            below = false;
        }
        if p.watts > 55.0 {
            plateau.push(p.watts);
        }
    }
    let plateau_mean = mean(&plateau).unwrap_or(0.0);
    report.line(compare_line(
        "CPU-phase package power",
        "≈60 W",
        &format!("{plateau_mean:.1} W"),
    ));
    report.line(compare_line(
        "package power during GPU bursts",
        "< ~40 W",
        &format!("{burst_min:.1} W minimum"),
    ));
    report.line(compare_line(
        "number of sub-40 W dips (10 bursts)",
        "10",
        &format!("{dips} after the first burst (which starts from idle and does not dip)"),
    ));
    report
}

/// Figures 5 and 6: the eight power-characterization curves per platform.
fn characterization_figure(id: &str, platform: &Platform) -> Report {
    let mut report = Report::new(
        id,
        format!(
            "Power characterization, eight categories ({})",
            platform.name
        ),
    );
    let (model, sweeps) = characterize_with_sweeps(platform, &CharacterizationConfig::default());
    let mut rows = Vec::new();
    for sweep in &sweeps {
        let curve = model.curve(sweep.class);
        let mut data_rows = Vec::new();
        for p in &sweep.points {
            data_rows.push(vec![
                format!("{:.2}", p.alpha),
                format!("{:.3}", p.watts),
                format!("{:.3}", curve.predict(p.alpha)),
            ]);
        }
        let stem = format!(
            "{id}_cat{}_{}",
            sweep.class.index(),
            sweep
                .label
                .to_lowercase()
                .replace([',', ' '], "_")
                .replace("__", "_")
        );
        report.attach_csv(stem, csv(&["alpha", "measured_w", "fitted_w"], &data_rows));
        // A degenerate sweep shows up as a quality note in the table
        // rather than aborting the whole figure run.
        let r2_cell = match easched_core::try_fit_curve_with_r2(sweep, 6) {
            Ok((_, r2)) => format!("{r2:.4}"),
            Err(e) => format!("n/a ({e})"),
        };
        rows.push(vec![
            sweep.label.clone(),
            format!("y = {}", curve.poly()),
            format!("{:.3}", curve.rmse()),
            r2_cell,
        ]);
    }
    report.line(md_table(
        &["category", "sixth-order fit", "RMSE (W)", "R²"],
        &rows,
    ));
    report.line(format!(
        "- paper: sixth-order polynomials fit the sweeps well; measured max RMSE {:.2} W",
        model
            .curves()
            .iter()
            .map(|c| c.rmse())
            .fold(0.0f64, f64::max)
    ));
    report
}

/// Figure 5: desktop power characterization.
pub(crate) fn fig5(lab: &mut Lab) -> Report {
    characterization_figure("fig5", &lab.desktop)
}

/// Figure 6: Bay Trail power characterization.
pub(crate) fn fig6(lab: &mut Lab) -> Report {
    let mut r = characterization_figure("fig6", &lab.tablet);
    // The paper's §2 observation: on Bay Trail memory-bound work draws LESS
    // power than compute-bound.
    let long = |mb| easched_core::WorkloadClass {
        memory_bound: mb,
        cpu_short: false,
        gpu_short: false,
    };
    let mem = lab.tablet_model.predict(long(true), 0.5);
    let comp = lab.tablet_model.predict(long(false), 0.5);
    r.line(compare_line(
        "memory-bound draws less than compute-bound (Bay Trail)",
        "0.7/1.3 W vs 1.5/2.0 W",
        &format!("P(0.5): memory {mem:.2} W vs compute {comp:.2} W"),
    ));
    r
}

/// Expected Table 1 classification per benchmark: (abbrev, regular,
/// memory-bound, cpu_short, gpu_short).
pub(crate) const TABLE1_EXPECTED: [(&str, bool, bool, bool, bool); 12] = [
    ("BH", false, true, false, false),
    ("BFS", false, true, true, true),
    ("CC", false, true, true, true),
    ("FD", false, false, true, true),
    ("MB", false, true, false, false),
    ("SL", false, true, false, false),
    ("SP", false, true, true, true),
    ("BS", true, false, true, true),
    ("MM", true, false, false, false),
    ("NB", true, false, false, true),
    ("RT", true, false, false, false),
    ("SM", true, true, true, true),
];

/// Table 1: per-benchmark invocation counts and runtime classification.
pub(crate) fn table1(lab: &mut Lab) -> Report {
    let mut report = Report::new(
        "table1",
        "Benchmark statistics and classification (both platforms)",
    );
    let mut desktop_summary = (0, 0);
    for desktop in [true, false] {
        let (platform, tag, workloads) = if desktop {
            (lab.desktop.clone(), "desktop", suite::desktop_suite())
        } else {
            (lab.tablet.clone(), "tablet", suite::tablet_suite())
        };
        let (rows, matches, total) = classify_suite(lab, &platform, desktop, workloads);
        if desktop {
            desktop_summary = (matches, total);
        }
        report.attach_csv(
            format!("table1_{tag}"),
            csv(
                &[
                    "abbrev",
                    "input",
                    "invocations",
                    "items",
                    "reg",
                    "mem",
                    "cpu",
                    "gpu",
                    "matches_paper",
                ],
                &rows,
            ),
        );
        report.line(format!("### {tag}\n"));
        report.line(md_table(
            &[
                "Abbrev",
                "Input",
                "Invocations",
                "Items",
                "R/IR",
                "C/M",
                "CPU S/L",
                "GPU S/L",
                "= paper",
            ],
            &rows,
        ));
    }
    report.line(compare_line(
        "desktop classification agreement with Table 1",
        "12/12 (by construction on their hardware)",
        &format!("{}/{}", desktop_summary.0, desktop_summary.1),
    ));
    report.line(
        "- invocation counts are at our reduced functional scales; the paper's BFS/CC/SP run \
         1748/2147/2577 invocations at |V| = 6.2 M — the same one-invocation-per-round structure. \
         Table 1 prints a single classification column per benchmark (desktop-measured); tablet \
         rows are classified against the same expectations.",
    );
    report
}

fn classify_suite(
    lab: &mut Lab,
    platform: &Platform,
    desktop: bool,
    workloads: Vec<Box<dyn Workload>>,
) -> (Vec<Vec<String>>, usize, usize) {
    let classifier = Classifier::default();
    let mut rows = Vec::new();
    let mut matches = 0;
    let mut total = 0;
    for w in workloads {
        let spec = w.spec();
        let trace = lab.trace(w.as_ref(), desktop);
        let traits = w.traits_for(platform);

        // Classify from one online-profiling step on the first invocation,
        // as the runtime does.
        let mut machine = Machine::new(platform.clone());
        let n0 = trace.sizes[0];
        let mut backend = SimBackend::new(&mut machine, &traits, n0, None, 1);
        let obs = backend.profile_step(backend.gpu_profile_size().min(n0));
        let class = classifier.classify(&obs, backend.remaining());

        let expected = TABLE1_EXPECTED
            .iter()
            .find(|e| e.0 == spec.abbrev)
            .expect("every benchmark has an expected row");
        let class_match = expected.1 == spec.regular
            && expected.2 == class.memory_bound
            && expected.3 == class.cpu_short
            && expected.4 == class.gpu_short;
        total += 1;
        if class_match {
            matches += 1;
        }
        rows.push(vec![
            spec.abbrev.to_string(),
            w.input_description(),
            trace.invocations().to_string(),
            trace.total_items().to_string(),
            if spec.regular { "R" } else { "IR" }.to_string(),
            if class.memory_bound { "M" } else { "C" }.to_string(),
            if class.cpu_short { "S" } else { "L" }.to_string(),
            if class.gpu_short { "S" } else { "L" }.to_string(),
            if class_match { "✓" } else { "✗" }.to_string(),
        ]);
    }
    (rows, matches, total)
}

/// Paper-reported average efficiencies for Figures 9–12.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PaperAverages {
    /// CPU-alone mean efficiency (None where the paper gives no number).
    pub(crate) cpu: Option<f64>,
    /// GPU-alone mean efficiency.
    pub(crate) gpu: Option<f64>,
    /// PERF mean efficiency.
    pub(crate) perf: Option<f64>,
    /// EAS mean efficiency.
    pub(crate) eas: Option<f64>,
}

/// One scheme-efficiency figure (9, 10, 11, or 12).
fn efficiency_figure(
    id: &str,
    title: &str,
    lab: &mut Lab,
    desktop: bool,
    objective: Objective,
    paper: PaperAverages,
) -> Report {
    let mut report = Report::new(id, title);
    let ev = lab.evaluator(desktop);
    let workloads = if desktop {
        suite::desktop_suite()
    } else {
        suite::tablet_suite()
    };
    let mut rows = Vec::new();
    let mut eff = [const { Vec::new() }; 4];
    for w in workloads {
        let trace = lab.trace(w.as_ref(), desktop);
        let c: WorkloadComparison = ev.compare_trace(w.as_ref(), &trace, &objective);
        let effs = [
            c.efficiency(c.cpu),
            c.efficiency(c.gpu),
            c.efficiency(c.perf),
            c.efficiency(c.eas),
        ];
        for (v, acc) in effs.iter().zip(eff.iter_mut()) {
            acc.push(*v);
        }
        rows.push(vec![
            c.abbrev.clone(),
            pct(effs[0]),
            pct(effs[1]),
            pct(effs[2]),
            pct(effs[3]),
            format!("{:.1}", c.oracle_alpha),
            c.eas_alpha.map_or("-".into(), |a| format!("{a:.2}")),
        ]);
    }
    let means: Vec<f64> = eff.iter().map(|e| mean(e).unwrap_or(0.0)).collect();
    rows.push(vec![
        "**mean**".into(),
        pct(means[0]),
        pct(means[1]),
        pct(means[2]),
        pct(means[3]),
        "".into(),
        "".into(),
    ]);
    report.attach_csv(
        id.to_string(),
        csv(
            &[
                "abbrev",
                "cpu",
                "gpu",
                "perf",
                "eas",
                "oracle_alpha",
                "eas_alpha",
            ],
            &rows,
        ),
    );
    report.line(md_table(
        &[
            "Benchmark",
            "CPU",
            "GPU",
            "PERF",
            "EAS",
            "Oracle α",
            "EAS α",
        ],
        &rows,
    ));
    for (i, (name, p)) in [
        ("CPU", paper.cpu),
        ("GPU", paper.gpu),
        ("PERF", paper.perf),
        ("EAS", paper.eas),
    ]
    .iter()
    .enumerate()
    {
        if let Some(p) = p {
            report.line(compare_line(
                &format!("{name} mean efficiency"),
                &pct(*p),
                &pct(means[i]),
            ));
        }
    }
    report
}

/// Figure 9: relative EDP efficiency vs Oracle, desktop.
pub(crate) fn fig9(lab: &mut Lab) -> Report {
    efficiency_figure(
        "fig9",
        "Relative energy-delay product efficiency vs Oracle (desktop)",
        lab,
        true,
        Objective::EnergyDelay,
        PaperAverages {
            cpu: None,
            gpu: Some(0.796),
            perf: Some(0.839),
            eas: Some(0.962),
        },
    )
}

/// Figure 10: relative energy-use efficiency vs Oracle, desktop.
pub(crate) fn fig10(lab: &mut Lab) -> Report {
    efficiency_figure(
        "fig10",
        "Relative energy-use efficiency vs Oracle (desktop)",
        lab,
        true,
        Objective::Energy,
        PaperAverages {
            cpu: None,
            gpu: Some(0.958),
            perf: Some(0.704),
            eas: Some(0.972),
        },
    )
}

/// Figure 11: relative EDP efficiency vs Oracle, Bay Trail.
pub(crate) fn fig11(lab: &mut Lab) -> Report {
    // Paper gives EAS = 93.2% and relative gaps: +4.4% over PERF, +19.6%
    // over GPU, +85.9% over CPU.
    efficiency_figure(
        "fig11",
        "Relative energy-delay product efficiency vs Oracle (Bay Trail)",
        lab,
        false,
        Objective::EnergyDelay,
        PaperAverages {
            cpu: Some(0.932 / 1.859),
            gpu: Some(0.932 / 1.196),
            perf: Some(0.932 / 1.044),
            eas: Some(0.932),
        },
    )
}

/// Figure 12: relative energy-use efficiency vs Oracle, Bay Trail.
pub(crate) fn fig12(lab: &mut Lab) -> Report {
    efficiency_figure(
        "fig12",
        "Relative energy-use efficiency vs Oracle (Bay Trail)",
        lab,
        false,
        Objective::Energy,
        PaperAverages {
            cpu: Some(0.964 / 1.572),
            gpu: Some(0.964 / 1.101),
            perf: Some(0.964 / 1.075),
            eas: Some(0.964),
        },
    )
}

/// Extension: the ED² metric the paper names for HPC use (§1) but does not
/// evaluate — same harness, third objective.
pub(crate) fn ed2(lab: &mut Lab) -> Report {
    let mut r = efficiency_figure(
        "ed2",
        "Relative ED² efficiency vs Oracle (desktop) — extension",
        lab,
        true,
        Objective::EnergyDelaySquared,
        PaperAverages {
            cpu: None,
            gpu: None,
            perf: None,
            eas: None,
        },
    );
    r.line(
        "- the paper names ED² as the metric for time-critical HPC use (§1) but reports          no numbers; this extension exercises the same pipeline on it. ED² weighs time          even harder, so the performance-oriented schemes close most of their gap.",
    );
    r
}

/// Extension: the same desktop under a binding 45 W TDP — the §1 "shared
/// chip-level power budget" made explicit. Combined execution throttles
/// (45 W < the 55–63 W combined points), so hybrid splits lose some of
/// their appeal and the schemes shift.
pub(crate) fn tdp(lab: &mut Lab) -> Report {
    let mut report = Report::new(
        "tdp",
        "Scheme efficiency under a binding 45 W package TDP (extension)",
    );
    let mut capped = lab.desktop.clone();
    capped.pcu.tdp = Some(45.0);
    let model = easched_core::characterize(&capped, &CharacterizationConfig::default());
    let ev = Evaluator::new(capped.clone(), model);
    let objective = Objective::EnergyDelay;
    let mut rows = Vec::new();
    let mut eff = [const { Vec::new() }; 4];
    for w in suite::desktop_suite() {
        let trace = lab.trace(w.as_ref(), true);
        let c = ev.compare_trace(w.as_ref(), &trace, &objective);
        let effs = [
            c.efficiency(c.cpu),
            c.efficiency(c.gpu),
            c.efficiency(c.perf),
            c.efficiency(c.eas),
        ];
        for (v, acc) in effs.iter().zip(eff.iter_mut()) {
            acc.push(*v);
        }
        rows.push(vec![
            c.abbrev.clone(),
            pct(effs[0]),
            pct(effs[1]),
            pct(effs[2]),
            pct(effs[3]),
            format!("{:.1}", c.oracle_alpha),
        ]);
    }
    let means: Vec<f64> = eff.iter().map(|e| mean(e).unwrap_or(0.0)).collect();
    rows.push(vec![
        "**mean**".into(),
        pct(means[0]),
        pct(means[1]),
        pct(means[2]),
        pct(means[3]),
        "".into(),
    ]);
    report.attach_csv(
        "tdp",
        csv(
            &["abbrev", "cpu", "gpu", "perf", "eas", "oracle_alpha"],
            &rows,
        ),
    );
    report.line(md_table(
        &["Benchmark", "CPU", "GPU", "PERF", "EAS", "Oracle α"],
        &rows,
    ));
    report.line(format!(
        "- under the cap, characterization + EAS adapt automatically (black-box!): \
         EAS mean {} vs GPU-alone {}",
        pct(means[3]),
        pct(means[1])
    ));
    report
}

/// Diagnostic: how accurate is the analytical time model T(α) (Eqs. 1–4)
/// that EAS plans with? One profiling step supplies R_C/R_G; the model's
/// predictions are compared against measured fixed-α run times for a
/// CC-like kernel. The tail-phase error (the tail runs uncontended, faster
/// than the combined-mode rates predict) is the main EAS-vs-Oracle gap.
pub(crate) fn model_error(lab: &mut Lab) -> Report {
    use easched_core::TimeModel;
    let mut report = Report::new(
        "model-error",
        "Analytical T(α) model vs measured execution time (diagnostic)",
    );
    let cc = suite::cc_desktop();
    let trace = lab.trace(cc.as_ref(), true);
    let traits = cc.traits_for(&lab.desktop);
    let n: u64 = trace.sizes[0];

    // One profiling observation, as EAS would take it.
    let mut machine = Machine::new(lab.desktop.clone());
    let mut backend = SimBackend::new(&mut machine, &traits, n, None, 1);
    let obs = backend.profile_step(backend.gpu_profile_size());
    let tm = TimeModel::new(obs.cpu_rate(), obs.gpu_rate());
    let n_rem = backend.remaining();
    let _ = backend;

    let mut rows = Vec::new();
    let mut max_err: f64 = 0.0;
    for i in 0..=10 {
        let alpha = i as f64 / 10.0;
        let predicted = tm.total_time(alpha, n_rem);
        // Measure the same remaining work at this fixed split, continuing
        // from an identical post-profiling machine state.
        let mut machine = Machine::new(lab.desktop.clone());
        let mut b = SimBackend::new(&mut machine, &traits, n, None, 1);
        b.profile_step(b.gpu_profile_size());
        let measured = b.run_split(alpha).elapsed;
        let err = (predicted - measured) / measured;
        max_err = max_err.max(err.abs());
        rows.push(vec![
            format!("{alpha:.1}"),
            format!("{predicted:.4}"),
            format!("{measured:.4}"),
            format!("{:+.1}%", err * 100.0),
        ]);
    }
    report.attach_csv(
        "model-error",
        csv(&["alpha", "predicted_s", "measured_s", "rel_error"], &rows),
    );
    report.line(md_table(
        &["α", "T(α) predicted (s)", "measured (s)", "error"],
        &rows,
    ));
    report.line(format!(
        "- max |error| {:.1}%: the model is exact in the combined regime and \
         pessimistic for GPU-heavy splits (the single-device tail runs \
         uncontended, faster than the combined-mode R_G the profiler saw) — \
         the bias behind the paper\'s CC anecdote (§5).",
        max_err * 100.0
    ));
    report
}

/// Diagnostic: the package power trace of a full EAS-scheduled execution,
/// showing the profiling phase and the steady split — the runtime-level
/// analogue of Figures 2–4.
pub(crate) fn trace_eas(lab: &mut Lab) -> Report {
    let mut report = Report::new(
        "trace-eas",
        "Package power during an EAS-scheduled run (diagnostic)",
    );
    let sm = suite::seismic_desktop();
    let trace = lab.trace(sm.as_ref(), true);
    let traits = sm.traits_for(&lab.desktop);
    let mut machine = Machine::new(lab.desktop.clone());
    machine.enable_trace();
    let mut eas = EasScheduler::new(
        lab.desktop_model.clone(),
        EasConfig::new(Objective::EnergyDelay),
    );
    let decisions = Arc::new(DecisionCsvSink::default());
    eas.set_telemetry(Some(decisions.clone()));
    let metrics = replay_trace(&mut machine, &traits, 1, &trace, &mut eas);
    let power_trace = machine.take_trace();
    report.attach_csv("trace-eas", power_trace.resample(0.010).to_csv());
    report.attach_csv("trace-eas_decisions", decisions.csv());
    report.line(format!(
        "- SM under EAS: {:.2} s, {:.1} J, mean {:.1} W, learned α = {:?}, {} α decisions",
        metrics.time,
        metrics.energy_joules,
        metrics.mean_power(),
        eas.learned_alpha(1),
        eas.decisions(),
    ));
    report
}

/// Runs every experiment in order.
pub(crate) fn all(lab: &mut Lab) -> Vec<Report> {
    vec![
        fig1(lab),
        fig2(lab),
        fig3(lab),
        fig4(lab),
        fig5(lab),
        fig6(lab),
        table1(lab),
        fig9(lab),
        ed2(lab),
        fig10(lab),
        fig11(lab),
        fig12(lab),
        tdp(lab),
        model_error(lab),
        trace_eas(lab),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    // The full experiments are exercised by the integration suite and the
    // figures binary; here we sanity-check the cheap pieces.

    #[test]
    fn table1_expected_covers_twelve() {
        let abbrevs: std::collections::HashSet<&str> =
            TABLE1_EXPECTED.iter().map(|e| e.0).collect();
        assert_eq!(abbrevs.len(), 12);
    }

    /// The experiments that need no functional workload traces run in a
    /// debug-build test (the trace-driven ones are exercised by the figures
    /// binary in release mode).
    #[test]
    fn trace_free_experiments_smoke() {
        let mut lab = Lab::new();
        for (report, needle) in [
            (fig2(&mut lab), "Bay Trail"),
            (fig3(&mut lab), "memory-bound"),
            (fig4(&mut lab), "GPU bursts"),
            (fig5(&mut lab), "sixth-order"),
            (fig6(&mut lab), "memory-bound draws less"),
        ] {
            assert!(!report.markdown.is_empty(), "{}", report.id);
            assert!(
                report.markdown.contains(needle),
                "{} missing {needle:?}",
                report.id
            );
        }
    }

    #[test]
    fn fig3_reports_paper_power_levels() {
        let mut lab = Lab::new();
        let r = fig3(&mut lab);
        // The markdown carries the measured combined powers; they must sit
        // at the paper's operating points.
        let compute: f64 = extract_watts(&r.markdown, "compute-bound combined-phase power");
        let memory: f64 = extract_watts(&r.markdown, "memory-bound combined-phase power");
        assert!((compute - 55.0).abs() < 2.0, "{compute}");
        assert!((memory - 63.0).abs() < 2.0, "{memory}");
    }

    fn extract_watts(md: &str, label: &str) -> f64 {
        let line = md
            .lines()
            .find(|l| l.contains(label))
            .expect("label present");
        line.split(':')
            .nth(1)
            .and_then(|v| v.trim().trim_end_matches(" W").parse().ok())
            .expect("parsable watts")
    }

    #[test]
    fn traced_micro_run_produces_power_data() {
        let platform = Platform::haswell_desktop();
        let micro = MicroBenchmark::for_platform(&platform, false, true, true);
        let (csv_data, min_w, max_w) = traced_micro_run(&platform, &micro, 0.5, 1);
        assert!(csv_data.lines().count() > 2);
        assert!(min_w > 0.0 && max_w > min_w);
    }
}
