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
//! figures telemetry             # decision telemetry and model drift
//! figures all                   # every paper experiment
//! figures ablations             # every ablation study
//! ```
//!
//! Artifacts are written to `results/` (CSV + per-experiment markdown).
//! The combined `results/SUMMARY.md` holds every study, so only the run
//! that regenerates them all (`figures all ablations chaos telemetry`)
//! writes it; any other run prints its markdown and leaves it alone.

use easched_bench::{run_experiment, Lab, EXPERIMENTS};
use std::path::{Path, PathBuf};

/// The arguments whose run regenerates everything `SUMMARY.md` holds, in
/// its order.
const SUMMARY_RUN: [&str; 4] = ["all", "ablations", "chaos", "telemetry"];

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
        match run_experiment(&mut lab, name) {
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
    if args == SUMMARY_RUN {
        std::fs::write(results_dir.join("SUMMARY.md"), summary).expect("write summary");
    }
    println!("\nartifacts written to {}/", results_dir.display());
    if failed {
        std::process::exit(2);
    }
}
