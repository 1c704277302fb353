//! Concord-style heterogeneous runtime for `easched`.
//!
//! The paper's runtime (§4) executes `parallel_for` loops with work-stealing
//! CPU workers plus one *GPU proxy thread* that offloads chunks to the GPU,
//! profiles both devices online, and partitions the remaining iterations.
//! This crate provides that machinery:
//!
//! * [`Backend`] — the per-invocation execution interface a scheduler drives:
//!   profile steps, split execution, and the black-box observables
//!   (wall/virtual time, the package energy register, hardware counters);
//! * [`SimBackend`] — executes invocations on the simulated machine
//!   (`easched-sim`), the paper-evaluation path;
//! * [`ThreadBackend`] — executes invocations with real OS threads: a
//!   work-stealing CPU pool and a pacing GPU-proxy thread emulating the
//!   integrated GPU's throughput (wall-clock demo path);
//! * [`pool`] — the work-stealing `parallel_for` substrate (crossbeam
//!   deques);
//! * [`SchedulerInvoker`] / [`replay_trace`] — adapters connecting
//!   [`Workload`](easched_kernels::Workload)s and recorded invocation traces
//!   to a [`Scheduler`].
//!
//! Scheduling policies themselves (EAS, PERF, fixed-α) live in
//! `easched-core`; this crate only defines the one interface they
//! implement, [`Scheduler`]. A policy many workload streams drive at once
//! implements it on a per-stream handle over its shared state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod backend;
pub mod chaos;
pub mod clock;
pub mod observation;
pub mod pool;
pub mod scheduler;
pub mod sealed;
pub mod sim_backend;
pub mod thread_backend;
pub mod vfs;

pub use admission::{
    AdmissionConfig, AdmissionController, AdmissionOutcome, BrownoutConfig, BrownoutController,
    BrownoutLevel, TenantRegistry, TenantSpec, TenantStats, TenantTraffic, TrafficModel,
};
pub use backend::Backend;
pub use chaos::{run_workload_chaos, ChaosBackend, ChaosInjector, Fault, FaultPlan};
pub use clock::{Clock, TickClock, WallClock};
pub use observation::{Observation, RunMetrics};
pub use pool::{in_index_order, parallel_for, parallel_for_clocked, PoolReport};
pub use scheduler::{GpuPolicy, InvocationCtx, KernelId, Scheduler};
pub use sim_backend::{kernel_id_of, replay_trace, run_workload, SchedulerInvoker, SimBackend};
pub use thread_backend::{ThreadBackend, ThreadBackendConfig};
pub use vfs::{ChaosFs, ChaosFsPlan, StdFs, StorageFault, Vfs, VfsFile};
