//! Concord-style heterogeneous runtime for `easched`.
//!
//! The paper's runtime (§4) executes `parallel_for` loops with CPU workers
//! plus one *GPU proxy thread* that offloads chunks to the GPU,
//! profiles both devices online, and partitions the remaining iterations.
//! This crate provides that machinery:
//!
//! * [`Backend`] — the per-invocation execution interface a scheduler drives:
//!   profile steps, split execution, and the black-box observables
//!   (wall/virtual time, the package energy register, hardware counters);
//! * [`SimBackend`] — executes invocations on the simulated machine
//!   (`easched-sim`), the paper-evaluation path;
//! * [`ThreadBackend`] — executes invocations with real OS threads: a
//!   shared-counter CPU pool ([`easched_kernels::parallel_for`]) and a
//!   pacing GPU-proxy thread emulating the integrated GPU's throughput
//!   (wall-clock demo path);
//! * [`run_workload`] / [`replay_trace`] — adapters connecting
//!   [`Workload`](easched_kernels::Workload)s and recorded invocation traces
//!   to a [`Scheduler`].
//!
//! Scheduling policies themselves (EAS, PERF, fixed-α) live in
//! `easched-core`; this crate only defines the one interface they
//! implement, [`Scheduler`]. A policy many workload streams drive at once
//! implements it on a per-stream handle over its shared state.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub, unnameable_types)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

mod admission;
mod backend;
mod chaos;
mod clock;
mod observation;
// `benchmark/src` imports `scheduler::FixedAlpha` by module path.
pub mod scheduler;
mod sealed;
mod sim_backend;
mod thread_backend;
// `benchmark/src` imports `vfs::{StdFs, Vfs, VfsFile}` by module path.
pub mod vfs;

pub use admission::{
    AdmissionConfig, AdmissionController, AdmissionOutcome, BrownoutConfig, BrownoutLevel,
    DrainedRequest, TenantRegistry, TenantSpec, TenantStats, TenantTraffic, TrafficModel,
};
#[doc(hidden)]
pub use backend::test_support;
pub use backend::Backend;
pub use chaos::{run_workload_chaos, ChaosBackend, ChaosInjector, Fault, FaultPlan};
pub use clock::{Clock, TickClock, WallClock};
pub use observation::{Observation, RunMetrics};
pub use scheduler::{FixedAlpha, GpuPolicy, InvocationCtx, KernelId, Scheduler};
pub use sealed::{fnv1a64, unseal, Fields, LineWriter, CHUNK_BYTES, MIN_SEALED_LINE};
pub use sim_backend::{kernel_id_of, replay_trace, run_workload, SimBackend};
pub use thread_backend::{ThreadBackend, ThreadBackendConfig};
pub use vfs::{ChaosFs, ChaosFsPlan, StdFs, StorageFault, Vfs, VfsFile};
