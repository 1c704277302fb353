//! # easched — black-box energy-aware scheduling for integrated CPU-GPU systems
//!
//! Facade crate re-exporting the whole `easched` workspace: a reproduction of
//! *"A Black-Box Approach to Energy-Aware Scheduling on Integrated CPU-GPU
//! Systems"* (CGO 2016).
//!
//! See the individual crates for detail:
//!
//! * [`num`] — polynomial fitting and optimization substrate
//! * [`sim`] — deterministic integrated CPU-GPU platform simulator
//! * [`kernels`] — the 12 evaluation benchmarks + 8 characterization
//!   micro-benchmarks
//! * [`runtime`] — Concord-style work-stealing heterogeneous runtime
//! * [`core`] — the energy-aware scheduler (EAS) itself
//! * [`telemetry`] — decision tracing, metrics, drift detection
//! * [`replay`] — deterministic record/replay and time-travel debugging
//! * [`fleet`] — multi-node journal replication with chaos-hardened
//!   anti-entropy
//!
//! # Quickstart
//!
//! ```
//! use easched::core::{CharacterizationConfig, EasConfig, EasRuntime, Objective};
//! use easched::kernels::suite;
//! use easched::sim::Platform;
//!
//! // One-time black-box power characterization of the platform.
//! let platform = Platform::haswell_desktop();
//! let model = easched::core::characterize(&platform, &CharacterizationConfig::default());
//!
//! // Run a workload under the energy-aware scheduler, optimizing EDP.
//! let mut runtime = EasRuntime::new(platform, model, EasConfig::new(Objective::EnergyDelay));
//! let workload = suite::mandelbrot_small();
//! let outcome = runtime.run(workload.as_ref());
//! assert!(outcome.energy_joules > 0.0);
//! ```
//!
//! Every runtime drives the one scheduler state, [`core::SharedEas`]
//! ([`core::EasRuntime::scheduler`] inspects it). [`core::EasRuntime::new`]
//! gives the runtime a state of its own; to serve several concurrent
//! workload streams from one learned kernel table, build the state with
//! [`core::SharedEas::new`] and give each stream an
//! [`core::EasRuntime::with_shared`] runtime (see DESIGN.md §8 for the
//! layer diagram and the scheduler's exclusive and shared faces).

#![deny(clippy::print_stdout, clippy::print_stderr)]

pub use easched_core as core;
pub use easched_fleet as fleet;
pub use easched_kernels as kernels;
pub use easched_num as num;
pub use easched_replay as replay;
pub use easched_runtime as runtime;
pub use easched_sim as sim;
pub use easched_telemetry as telemetry;
