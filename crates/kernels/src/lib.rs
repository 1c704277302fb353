//! The CGO'16 evaluation workloads for `easched`.
//!
//! Twelve benchmark applications (Table 1) plus the eight
//! power-characterization micro-benchmarks (§2), each implemented as a real
//! algorithm behind the [`Workload`] abstraction:
//!
//! | Abbrev | Workload | Kind | Source |
//! |---|---|---|---|
//! | BH | Barnes-Hut force calculation | irregular, memory | `barnes_hut.rs` |
//! | BFS | Breadth-first search | irregular, memory | `graphs/` |
//! | CC | Connected components | irregular, memory | `graphs/` |
//! | FD | Face detection cascade | irregular, compute, CPU-biased | `face_detect.rs` |
//! | MB | Mandelbrot | irregular, memory | `mandelbrot.rs` |
//! | SL | Skip-list search | irregular, memory | `skiplist.rs` |
//! | SP | Shortest path | irregular, memory | `graphs/` |
//! | BS | Black-Scholes | regular, compute | `blackscholes.rs` |
//! | MM | Matrix multiply | regular, compute | `matmul.rs` |
//! | NB | N-Body | regular, compute | `nbody.rs` |
//! | RT | Ray tracer | regular, compute | `raytracer.rs` |
//! | SM | Seismic wave propagation | regular, memory | `seismic.rs` |
//!
//! Every workload functionally verifies its output (against serial
//! references, closed-form solutions, or conservation laws) and carries a
//! calibrated per-platform simulation profile ([`Profile`]).
//!
//! The crate also holds the work-stealing pool the paper's §4 runtime
//! spreads a `parallel_for` over ([`parallel_for`], [`in_index_order`]):
//! [`record_trace`] hands it any invocation whose first slice predicts
//! the rest is long, and the runtime, the scheme comparison, the run-log
//! parse and the fleet run their jobs on it.
//!
//! # Examples
//!
//! ```
//! use easched_kernels::suite;
//! use easched_kernels::{record_trace, Workload};
//!
//! let w = suite::mandelbrot_small();
//! let (trace, verification) = record_trace(w.as_ref());
//! assert!(verification.is_passed());
//! assert_eq!(trace.invocations(), 1); // MB is a single-invocation kernel
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub, unnameable_types)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

mod barnes_hut;
mod blackscholes;
mod face_detect;
mod graphs;
mod mandelbrot;
mod matmul;
mod microbench;
mod nbody;
mod pool;
mod profiles;
mod raytracer;
mod seismic;
mod skiplist;
// The constructor namespace: `suite::bfs_small()`, `suite::desktop_suite()`.
pub mod suite;
mod workload;

pub use blackscholes::BlackScholes;
pub use graphs::{Bfs, ConnectedComponents, ShortestPath};
pub use mandelbrot::{Mandelbrot, LANES};
pub use matmul::MatMul;
pub use microbench::{characterization_suite, MicroBenchmark};
pub use nbody::NBody;
pub use pool::{in_index_order, parallel_for, PoolReport};
pub use profiles::Profile;
pub use raytracer::RayTracer;
pub use seismic::Seismic;
pub use skiplist::SkipList;
pub use workload::{
    record_trace, InvocationTrace, Invoker, SerialInvoker, Verification, Workload, WorkloadSpec,
};
