//! Deterministic record/replay for the EAS pipeline (DESIGN.md §12).
//!
//! Every source of nondeterminism in a run is behind a seam this crate
//! can tap: the clock ([`easched_runtime::Clock`]), the run's RNG root
//! ([`easched_core::RunSeed`]), and the observations a backend returns.
//! Recording taps all three into a [`RunLog`] — a line-oriented,
//! CRC-sealed text format in the style of the persistence journal —
//! and replaying re-feeds the recorded observations through a
//! replaying backend so the scheduler re-executes its decision sequence
//! byte-identically, chaos faults and all.
//!
//! The crate is layered:
//!
//! - `log.rs` — the [`RunLog`] container, its torn-tail-tolerant codec,
//!   the invocation nesting and the replay identity rule;
//! - `record.rs` — [`Recorder`] (a [`easched_telemetry::TelemetrySink`])
//!   plus the scheduler/backend shims that tap live runs;
//! - `replay.rs` — the replaying backend, diffing the live decision
//!   stream against the recording and snapshotting engine state at the
//!   first divergence (time-travel debugging, [`Divergence`]);
//! - `harness.rs` — the canonical chaos-storm scenario and the one set-up
//!   recording and replay share: [`record_chaos_storm`],
//!   [`replay_chaos_storm`];
//! - [`overload`] — the multi-tenant overload storm (admission control,
//!   backpressure, brownout) recorded as a v2 log and replayed by
//!   re-running the admission controller against the replayed decision
//!   stream;
//! - `bisect.rs` — [`bisect_storm`], shrinking a divergent log to a
//!   minimal reproducer.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub, unnameable_types)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

mod bisect;
mod harness;
mod log;
// `benchmark/src` imports `overload::{overload_admission, overload_registry}`
// by module path.
pub mod overload;
mod record;
mod replay;

pub use bisect::{bisect_storm, BisectReport};
pub use harness::{record_chaos_storm, replay_chaos_storm, RecordedStorm, ReplayError, StormSpec};
pub use log::{
    AdmissionRecord, Event, LogError, LoggedInvocation, RecordedStep, RunLog, StepCall,
    FORMAT_VERSION, FORMAT_VERSION_ADMISSION, FORMAT_VERSION_FLEET,
};
pub use overload::{
    overload_admission, overload_registry, overload_traffic, record_overload_storm,
    record_overload_storm_observed, record_overload_storm_observed_with, replay_overload_storm,
    OverloadSpec, RecordedOverload,
};
pub use record::Recorder;
pub use replay::{Divergence, ReplayOutcome};
