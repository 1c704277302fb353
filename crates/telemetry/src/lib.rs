//! Telemetry for the EAS pipeline: lock-free decision tracing, metrics
//! exposition, and model-drift analysis.
//!
//! The paper's scheduler is a feedback loop — observe, classify, predict,
//! split — but nothing in the original design lets you *watch* that loop:
//! once an α lands in the kernel table there is no record of the
//! observation it came from, the prediction it rested on, or how close
//! that prediction came to reality. This crate is the observability layer
//! over the whole pipeline:
//!
//! - [`DecisionRecord`] — one structured event per kernel invocation:
//!   control path, profiling rounds, observed R_C/R_G, predicted
//!   P(α)/T(α)/objective, realized time and energy, fault and breaker
//!   context (`record.rs`).
//! - [`TelemetrySink`] — the trait the scheduling frontends report
//!   through; `None` means the same loop runs with no clock read and no
//!   record built (`sink.rs`).
//! - [`ControlEvent`] — what the loop reports between records: each
//!   profiling round's α (`Decided`, the scheduler's only per-round
//!   history — [`DecisionCsvSink`] collects it) (`sink.rs`).
//! - [`RingSink`] — the standard sink: a bounded, overwrite-on-wrap
//!   seqlock ring (`ring.rs`) plus an always-on [`MetricsRegistry`]
//!   derived from it — the ring's records folded in sequence order from a
//!   cursor, a batch at a time, never on the way in — with
//!   Prometheus-style exposition (`metrics.rs`). The registry's page is one fragment of
//!   `/metrics`; the scheduler's health and drift EWMAs, its store, the
//!   admission controller and the SLO tracker render their own beside it
//!   at scrape time.
//! - [`counter_table!`] — the one place a plain counter or gauge is
//!   declared; banks, reports, text pages and JSON derive from its rows
//!   (`counters.rs`).
//! - [`to_trace_with_spans`] — Chrome-trace export (one
//!   event per line, loadable in Perfetto / `chrome://tracing`) that
//!   carries every record and span field exactly (`trace.rs`).
//! - [`model_drift`] — per-kernel predicted-vs-realized error analysis
//!   (`drift.rs`).
//! - [`Span`] / [`SpanSink`] — causal per-request span tracing through
//!   the same seqlock ring idiom, replay-stable by construction
//!   (`span.rs`).
//! - [`ScrapeServer`] — a dependency-free HTTP/1.0 responder for live
//!   `/metrics`, `/health`, `/tenants`, and `/slo` pages (`serve.rs`).
//! - [`SloTracker`] — per-tenant multi-window burn-rate SLOs whose fired
//!   events carry replay-offset exemplars, and the one count of them
//!   (`slo.rs`).
//!
//! The crate is deliberately standalone — plain `std`, no dependency on
//! the scheduler crates — so any layer (core, runtime, bench, a future
//! serving daemon) can report through it without dependency cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs, unreachable_pub, unnameable_types)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

mod counters;
mod drift;
mod metrics;
mod record;
mod ring;
mod serve;
mod sink;
mod slo;
mod span;
mod trace;

pub use counters::{
    expose_rows, expose_rows_labelled, fault_free, push_json_field, push_json_rows, push_meta,
    Kind, Row,
};
pub use drift::{model_drift, relative_error, KernelDrift};
pub use metrics::{Counter, Gauge, LogHistogram, MetricsRegistry, ALPHA_BUCKETS};
pub use record::{DecisionRecord, InvocationPath};
#[cfg(unix)]
pub use serve::uds_get;
pub use serve::{http_get, Page, Router, ScrapeServer, ServeConfig, TimeSource};
pub use sink::{ControlEvent, DecisionCsvSink, FanoutSink, RingSink, TelemetrySink};
pub use slo::{
    escape_json, expose_slo, SloConfig, SloEvent, SloKind, SloSeries, SloTracker, TenantSloSeries,
};
pub use span::{Span, SpanKind, SpanSink, DEFAULT_SPAN_CAPACITY};
pub use trace::to_trace_with_spans;
