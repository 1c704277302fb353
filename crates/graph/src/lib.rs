//! Graph substrate for the `easched` benchmarks.
//!
//! Three of the paper's twelve workloads — Breadth-First Search, Connected
//! Components, and Shortest Path — are frontier-based graph algorithms run on
//! the W-USA road network (6.2 M vertices). Those workloads stress the
//! scheduler in a specific way: the *same kernel* is invoked thousands of
//! times (1748 / 2147 / 2577 invocations in Table 1) with a different number
//! of parallel iterations each time, as the frontier grows and shrinks.
//!
//! This crate provides:
//!
//! * [`Csr`] — compressed sparse row graphs with optional edge weights;
//! * [`gen`] — deterministic generators, including a road-network-like
//!   generator (high diameter, low degree) substituting for the W-USA input
//!   we cannot redistribute, plus RMAT and Erdős–Rényi for contrast;
//! * frontier **engines** ([`BfsEngine`], [`CcEngine`], [`SsspEngine`]) whose
//!   per-level item processing is thread-safe, so the heterogeneous runtime
//!   can partition each invocation between "CPU" and "GPU" workers;
//! * [`mod@reference`] — serial oracle implementations used by the test suite.
//!
//! # Examples
//!
//! ```
//! use easched_graph::{gen, BfsEngine};
//!
//! let g = gen::road_network(32, 32, 7);
//! let mut bfs = BfsEngine::new(&g, 0);
//! while !bfs.is_done() {
//!     for i in 0..bfs.frontier_len() {
//!         bfs.process_item(i);
//!     }
//!     bfs.advance();
//! }
//! let dist = bfs.distances();
//! assert_eq!(dist[0], 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod bfs;
pub mod cc;
pub mod csr;
pub mod delta_stepping;
pub mod gen;
pub mod reference;
pub mod sssp;
pub mod stats;

pub use bfs::BfsEngine;
pub use cc::CcEngine;
pub use csr::{Csr, CsrError};
pub use sssp::SsspEngine;
pub use stats::{graph_stats, GraphStats};
