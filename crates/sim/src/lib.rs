//! Deterministic integrated CPU-GPU platform simulator.
//!
//! The CGO'16 paper runs on two physical Windows machines (a Haswell i7-4770
//! desktop and a Bay Trail Z3740 tablet) and observes them strictly through a
//! black-box interface: the `MSR_PKG_ENERGY_STATUS` energy register, wall
//! clock time, and two hardware counters (L3 misses, instructions retired).
//! This crate provides a simulated machine exposing exactly that interface,
//! with internals calibrated to every operating point the paper reports:
//!
//! * steady-state package powers for compute-/memory-bound work on the CPU
//!   alone, the GPU alone, and both together (paper Figures 3, 5, 6);
//! * the package-control-unit (PCU) transient behaviour — first-order power
//!   ramps and the conservative budget-reallocation dip when the GPU
//!   activates during CPU execution (Figure 4);
//! * shared-memory-bandwidth contention that makes combined-mode device
//!   throughput sub-additive (the reason the paper profiles throughput *in*
//!   combined mode);
//! * a wrapping 32-bit RAPL-style energy counter in 2⁻¹⁶ J units.
//!
//! The scheduler crates never look inside the PCU or the power tables — they
//! interact with [`Machine`] through the same observables the real runtime
//! has, keeping the reproduction black-box end to end.
//!
//! # Examples
//!
//! Run a memory-bound kernel split across both devices and read the energy
//! counter the way the paper's runtime reads the MSR:
//!
//! ```
//! use easched_sim::{KernelTraits, Machine, PhasePlan, Platform};
//!
//! let mut m = Machine::new(Platform::haswell_desktop());
//! let traits = KernelTraits::builder("demo")
//!     .cpu_rate(1.0e6)
//!     .gpu_rate(3.0e6)
//!     .build();
//! let before = m.read_energy_raw();
//! let report = m.run_phase(&traits, &PhasePlan::split(1_000_000, 0.5));
//! let after = m.read_energy_raw();
//! let joules = after.wrapping_sub(before) as f64 * easched_sim::ENERGY_UNIT_JOULES;
//! assert!(joules > 0.0 && report.elapsed > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub, unnameable_types)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

mod bandwidth;
mod counters;
mod energy;
mod machine;
mod noise;
mod pcu;
mod platform;
mod power;
mod trace;
mod traits;

pub use bandwidth::{contended_rates, BwDemand};
pub use counters::CounterSnapshot;
pub use energy::{EnergyCounter, ENERGY_UNIT_JOULES};
pub use machine::{Machine, PhasePlan, PhaseReport};
pub use noise::splitmix64;
pub use pcu::PcuParams;
pub use platform::{MemorySpec, Platform};
pub use power::PowerTable;
pub use trace::{PowerTrace, TracePoint};
pub use traits::{AccessPattern, KernelTraits, KernelTraitsBuilder};
