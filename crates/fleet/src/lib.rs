//! Fault-tolerant fleet replication: journal streaming across nodes with
//! chaos-hardened anti-entropy.
//!
//! Every node in a fleet runs its own full scheduler
//! ([`SharedEas`](easched_core::SharedEas)) on its own platform and
//! persists its own journal. This crate adds the replication plane on
//! top: nodes exchange journal-derived facts over a pull-based
//! anti-entropy protocol and converge — byte-identically — to the same
//! replica of the fleet's learned state, under message drops, duplicates,
//! reordering, torn frames, network partitions, and kill -9 node crashes.
//!
//! The load-bearing rules (DESIGN.md §15):
//!
//! - **Facts, not commands.** A node only ever replicates what its own
//!   journal says about *its own* platform; versions are
//!   `(generation, seq, origin)` and every merge is a max-merge, so apply
//!   order cannot matter.
//! - **Platforms are namespaces.** A Haswell α never overwrites a Bay
//!   Trail α. Cross-platform facts land as *warm-start priors* that
//!   narrow the first profiling search — they never skip profiling.
//! - **Taints travel.** A quarantined entry quarantines fleet-wide
//!   within one anti-entropy round, and a budgeted
//!   [`ReprofileScheduler`] re-measures on local silicon.
//! - **Chaos is not a fault.** Fabric counters live in [`FleetStats`],
//!   outside the scheduler's health plane: a torn frame must never trip
//!   `fault_free()`.
//!
//! [`run_fleet`] drives the whole thing deterministically from a
//! [`FleetSpec`] and records a v3 [`RunLog`](easched_replay::RunLog);
//! [`replay_fleet`] re-runs it and byte-compares.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod frame;
pub mod node;
pub mod replica;
pub mod reprofile;
pub mod run;
pub mod stats;
pub mod transport;

pub use frame::{Envelope, Frame, FrameError, FramePayload, NodeId, Op, Version};
pub use node::{FleetNode, MAX_ENTRIES_PER_FRAME};
pub use replica::{Applied, EffectiveEntry, ReplicaTable};
pub use reprofile::ReprofileScheduler;
pub use run::{
    kernel_traits, platform_by_name, replay_fleet, run_fleet, CrashPlan, FleetError, FleetReport,
    FleetSpec, NodeReport, TaintPlan, MAX_DRAIN_ROUNDS,
};
pub use stats::{expose_fleet, expose_fleet_store, FleetStats};
pub use transport::{ChaosConfig, ChaosTransport, LinkStats, Partition};
