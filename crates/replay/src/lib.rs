//! Deterministic record/replay for the EAS pipeline (DESIGN.md §12).
//!
//! Every source of nondeterminism in a run is behind a seam this crate
//! can tap: the clock ([`easched_runtime::Clock`]), the run's RNG root
//! ([`easched_core::RunSeed`]), and the observations a backend returns.
//! Recording taps all three into a [`RunLog`] — a line-oriented,
//! CRC-sealed text format in the style of the persistence journal —
//! and replaying re-feeds the recorded observations through a
//! [`ReplayBackend`] so the scheduler re-executes its decision sequence
//! byte-identically, chaos faults and all.
//!
//! The crate is layered:
//!
//! - [`log`] — the `RunLog` container, its torn-tail-tolerant codec, the
//!   invocation nesting and the replay identity rule;
//! - [`record`] — [`Recorder`] (a [`easched_telemetry::TelemetrySink`])
//!   plus the scheduler/backend shims that tap live runs;
//! - [`replay`] — [`ReplayBackend`] and [`replay_log`], diffing the live
//!   decision stream against the recording and snapshotting engine state
//!   at the first divergence (time-travel debugging);
//! - [`harness`] — the canonical chaos-storm scenario and the one set-up
//!   recording and replay share: record, fingerprint-check, replay;
//! - [`overload`] — the multi-tenant overload storm (admission control,
//!   backpressure, brownout) recorded as a v2 log and replayed by
//!   re-running the admission controller against the replayed decision
//!   stream;
//! - [`bisect`] — shrinking a divergent log to a minimal reproducer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod bisect;
pub mod harness;
pub mod log;
pub mod overload;
pub mod record;
pub mod replay;

pub use bisect::{bisect_storm, BisectReport};
pub use harness::{
    record_chaos_storm, recording_setup, recording_setup_observed, replay_chaos_storm,
    scheduler_for_log, storm_platform, RecordedStorm, ReplayError, StormSpec,
};
pub use log::{
    AdmissionRecord, Event, LogError, LoggedInvocation, RecordedStep, RunLog, StepCall,
    FORMAT_VERSION, FORMAT_VERSION_ADMISSION, FORMAT_VERSION_FLEET,
};
pub use overload::{
    record_overload_storm, record_overload_storm_observed, record_overload_storm_observed_with,
    replay_overload_storm, LiveObservability, ObservedOverload, OverloadReplayOutcome,
    OverloadSpec, RecordedOverload,
};
pub use record::{Recorder, RecordingBackend, RecordingScheduler};
pub use replay::{differing_fields, replay_log, Divergence, ReplayBackend, ReplayOutcome};
