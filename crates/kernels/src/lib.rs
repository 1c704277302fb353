//! The CGO'16 evaluation workloads for `easched`.
//!
//! Twelve benchmark applications (Table 1) plus the eight
//! power-characterization micro-benchmarks (§2), each implemented as a real
//! algorithm behind the [`workload::Workload`] abstraction:
//!
//! | Abbrev | Workload | Kind | Module |
//! |---|---|---|---|
//! | BH | Barnes-Hut force calculation | irregular, memory | [`barnes_hut`] |
//! | BFS | Breadth-first search | irregular, memory | [`graphs`] |
//! | CC | Connected components | irregular, memory | [`graphs`] |
//! | FD | Face detection cascade | irregular, compute, CPU-biased | [`face_detect`] |
//! | MB | Mandelbrot | irregular, memory | [`mandelbrot`] |
//! | SL | Skip-list search | irregular, memory | [`skiplist`] |
//! | SP | Shortest path | irregular, memory | [`graphs`] |
//! | BS | Black-Scholes | regular, compute | [`blackscholes`] |
//! | MM | Matrix multiply | regular, compute | [`matmul`] |
//! | NB | N-Body | regular, compute | [`nbody`] |
//! | RT | Ray tracer | regular, compute | [`raytracer`] |
//! | SM | Seismic wave propagation | regular, memory | [`seismic`] |
//!
//! Every workload functionally verifies its output (against serial
//! references, closed-form solutions, or conservation laws) and carries a
//! calibrated per-platform simulation profile ([`profiles`]).
//!
//! # Examples
//!
//! ```
//! use easched_kernels::suite;
//! use easched_kernels::workload::{record_trace, Workload};
//!
//! let w = suite::mandelbrot_small();
//! let (trace, verification) = record_trace(w.as_ref());
//! assert!(verification.is_passed());
//! assert_eq!(trace.invocations(), 1); // MB is a single-invocation kernel
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod barnes_hut;
pub mod blackscholes;
pub mod face_detect;
pub mod graphs;
pub mod mandelbrot;
pub mod matmul;
pub mod microbench;
pub mod nbody;
pub mod profiles;
pub mod raytracer;
pub mod seismic;
pub mod skiplist;
pub mod suite;
pub mod workload;

pub use profiles::{Calib, PlatformKind, Profile};
pub use workload::{
    record_trace, InvocationTrace, Invoker, SerialInvoker, TraceRecorder, Verification, Workload,
    WorkloadSpec,
};
