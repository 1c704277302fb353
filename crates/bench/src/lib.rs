//! Experiment harness for the `easched` reproduction: regenerates every
//! table and figure of the CGO'16 evaluation and runs the ablation studies
//! listed in `DESIGN.md` §5.
//!
//! The entry point is the `figures` binary:
//!
//! ```text
//! cargo run --release -p easched-bench --bin figures -- all
//! cargo run --release -p easched-bench --bin figures -- fig9
//! cargo run --release -p easched-bench --bin figures -- ablation-poly
//! ```
//!
//! Results are written under `results/` as CSV + markdown.
//!
//! Nothing in this crate reads a clock to measure the scheduler: host-time
//! numbers — the paper's §5 overhead budget included — come from the
//! `benchmark/` package (`bash benchmark/run.sh [--traced]`), the repo's
//! only stopwatch, and EXPERIMENTS.md §5 quotes its lanes by name.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub, unnameable_types)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

mod ablations;
mod chaos;
mod experiments;
mod report;
mod telemetry;

pub use experiments::Lab;
pub use report::Report;

/// Runs the experiment `figures` calls `name`; `None` for an unknown name.
pub fn run_experiment(lab: &mut Lab, name: &str) -> Option<Vec<Report>> {
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

/// Every name [`run_experiment`] knows, in `figures list` order.
pub const EXPERIMENTS: &[&str] = &[
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
