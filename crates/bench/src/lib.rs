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
#![warn(missing_docs)]

pub mod ablations;
pub mod chaos;
pub mod experiments;
pub mod report;
pub mod telemetry;

pub use experiments::Lab;
pub use report::Report;
