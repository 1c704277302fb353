//! Regenerates the paper's tables and figures.
//!
//! Usage:
//!
//! ```text
//! figures <experiment>...       # fig1 fig2 fig3 fig4 fig5 fig6 table1
//!                               # fig9 fig10 fig11 fig12
//!                               # ablation-poly ablation-grid
//!                               # ablation-categories ablation-profile
//!                               # ablation-accum ablation-thresholds
//! figures chaos                 # fault-injection robustness study
//! figures all                   # every paper experiment
//! figures ablations             # every ablation study
//! ```
//!
//! Artifacts are written to `results/` (CSV + per-experiment markdown) and a
//! combined `results/SUMMARY.md`.

use easched_bench::{ablations, chaos, experiments, telemetry, Lab, Report};
use std::path::{Path, PathBuf};

fn run_one(lab: &mut Lab, name: &str) -> Option<Vec<Report>> {
    let report = match name {
        "fig1" => experiments::fig1(lab),
        "fig2" => experiments::fig2(lab),
        "fig3" => experiments::fig3(lab),
        "fig4" => experiments::fig4(lab),
        "fig5" => experiments::fig5(lab),
        "fig6" => experiments::fig6(lab),
        "table1" => experiments::table1(lab),
        "fig9" => experiments::fig9(lab),
        "fig10" => experiments::fig10(lab),
        "fig11" => experiments::fig11(lab),
        "fig12" => experiments::fig12(lab),
        "ed2" => experiments::ed2(lab),
        "tdp" => experiments::tdp(lab),
        "model-error" => experiments::model_error(lab),
        "trace-eas" => experiments::trace_eas(lab),
        "ablation-poly" => ablations::poly_order(lab),
        "ablation-grid" => ablations::grid_resolution(lab),
        "ablation-categories" => ablations::categories(lab),
        "ablation-profile" => ablations::profile_strategy(lab),
        "ablation-accum" => ablations::accumulation(lab),
        "ablation-thresholds" => ablations::thresholds(lab),
        "ablation-drift" => ablations::drift(lab),
        "chaos" => chaos::chaos(lab),
        "telemetry" => telemetry::telemetry(lab),
        "all" => return Some(experiments::all(lab)),
        "ablations" => return Some(ablations::all(lab)),
        _ => return None,
    };
    Some(vec![report])
}

const EXPERIMENTS: &[&str] = &[
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "table1",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "ed2",
    "tdp",
    "model-error",
    "trace-eas",
    "ablation-poly",
    "ablation-grid",
    "ablation-categories",
    "ablation-profile",
    "ablation-accum",
    "ablation-thresholds",
    "ablation-drift",
    "chaos",
    "telemetry",
    "all",
    "ablations",
];

#[allow(clippy::disallowed_methods)] // the flag parser
fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // `--out DIR` redirects artifacts (default: results/), so smoke runs
    // can regenerate experiments without clobbering the committed set.
    let mut out_dir = PathBuf::from("results");
    let mut args = Vec::new();
    let mut it = raw.into_iter();
    while let Some(a) = it.next() {
        if a == "--out" {
            match it.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => {
                    eprintln!("--out requires a directory");
                    std::process::exit(2);
                }
            }
        } else {
            args.push(a);
        }
    }
    if args.is_empty() || args.iter().any(|a| a == "list" || a == "--help") {
        eprintln!("usage: figures [--out DIR] <experiment>... | all | ablations");
        eprintln!("experiments: {}", EXPERIMENTS.join(" "));
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }

    println!("characterizing platforms (one-time step)...");
    let mut lab = Lab::new();
    let results_dir: &Path = &out_dir;
    let mut summary = String::from("# easched — measured results\n\n");
    let mut failed = false;

    for name in &args {
        let started = std::time::Instant::now();
        match run_one(&mut lab, name) {
            Some(reports) => {
                for report in reports {
                    report
                        .write_to(results_dir)
                        .unwrap_or_else(|e| panic!("writing {}: {e}", report.id));
                    println!("\n## {} — {}\n", report.id, report.title);
                    println!("{}", report.markdown);
                    summary.push_str(&format!(
                        "## {} — {}\n\n{}\n",
                        report.id, report.title, report.markdown
                    ));
                }
                println!("[{name} done in {:.1?}]", started.elapsed());
            }
            None => {
                eprintln!("unknown experiment: {name}");
                failed = true;
            }
        }
    }

    std::fs::create_dir_all(results_dir).expect("create results dir");
    std::fs::write(results_dir.join("SUMMARY.md"), summary).expect("write summary");
    println!("\nartifacts written to {}/", results_dir.display());
    if failed {
        std::process::exit(2);
    }
}
