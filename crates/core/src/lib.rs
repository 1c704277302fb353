//! The energy-aware scheduler (EAS) — the primary contribution of
//! *"A Black-Box Approach to Energy-Aware Scheduling on Integrated CPU-GPU
//! Systems"* (CGO 2016).
//!
//! The pipeline:
//!
//! 1. **Characterize once per platform** ([`characterize()`]): sweep eight
//!    micro-benchmarks over GPU offload ratios, measure average package
//!    power through the energy register, fit a sixth-order polynomial per
//!    workload category → a [`PowerModel`].
//! 2. **Profile online per kernel** (inside [`EasScheduler`]): measure
//!    combined-mode device throughputs and hardware counters, classify the
//!    workload ([`Classifier`]) into one of eight categories.
//! 3. **Decide**: build the analytical time model T(α) ([`TimeModel`],
//!    Eqs. 1–4), combine with the category's power curve P(α), and
//!    grid-minimize the chosen [`Objective`] (energy, EDP, ED², or any
//!    custom f(P, T)).
//! 4. **Execute** the remaining iterations at the chosen ratio and remember
//!    it per kernel with sample-weighted accumulation.
//!
//! [`EasRuntime`] packages the whole flow; [`Evaluator`] reproduces the
//! paper's five-scheme comparison (CPU / GPU / PERF / EAS / Oracle).
//!
//! # Examples
//!
//! ```
//! use easched_core::{characterize, CharacterizationConfig, Evaluator, Objective};
//! use easched_kernels::suite;
//! use easched_sim::Platform;
//!
//! let platform = Platform::haswell_desktop();
//! let model = characterize(&platform, &CharacterizationConfig::default());
//! let ev = Evaluator::new(platform, model);
//! let c = ev.compare(suite::blackscholes_small().as_ref(), &Objective::EnergyDelay);
//! // The Oracle is the best fixed split; EAS should be close.
//! assert!(c.efficiency(c.eas) > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod characterize;
pub mod classify;
pub mod eas;
pub mod easruntime;
pub mod engine;
pub mod guard;
pub mod health;
pub mod journal;
pub mod kernel_table;
pub mod objective;
pub mod persist;
pub mod power_model;
mod profile_loop;
pub mod schemes;
pub mod seed;
pub mod selfheal;
pub mod shared;
pub mod tenancy;
pub mod time_model;

pub use characterize::{
    characterize, characterize_with_sweeps, fit_curve_with_r2, try_characterize,
    try_characterize_with_sweeps, try_fit_curve_with_r2, CategorySweep, CharacterizationConfig,
    CharacterizeError, SweepPoint,
};
pub use classify::{Classifier, WorkloadClass};
pub use eas::{Accumulation, AlphaSearch, Decision, EasConfig, EasScheduler};
pub use easruntime::{EasRuntime, RunOutcome};
pub use engine::{AlphaSegment, DecisionEngine, Prediction, PRIOR_WINDOW};
pub use guard::{FaultKind, ObservationGuard};
pub use health::{BreakerGate, BreakerState, CircuitBreaker, FaultPolicy, Health, HealthReport};
pub use journal::{Recovered, StoreError, StoreHealth, TableStore};
pub use kernel_table::{AlphaStat, KernelTable, ReuseProbe};
pub use objective::Objective;
pub use persist::{
    fnv1a64, load_model, model_from_text, model_to_text, save_model, table_from_text,
    table_to_text, ModelParseError,
};
pub use power_model::{PowerCurve, PowerModel};
pub use schemes::{Evaluator, FixedSweep, SchemeResult, WorkloadComparison};
pub use seed::{RunSeed, DEFAULT_ROOT};
pub use selfheal::{
    expose_drift, DriftAction, DriftCell, DriftMonitor, DriftOutcome, DriftPolicy, Watchdog,
    WatchdogPolicy, DRIFT_SERIES,
};
pub use shared::{EasHandle, SharedEas, SharedEasExt};
pub use tenancy::{expose_tenants, AdmittedRequest, TenantFrontend};
pub use time_model::TimeModel;

/// The telemetry subsystem (re-exported `easched-telemetry` crate):
/// decision records, the lock-free ring sink, the metrics registry, trace
/// export, and model-drift analysis. See DESIGN.md §10.
pub use easched_telemetry as telemetry;
pub use easched_telemetry::{
    ControlEvent, DecisionRecord, InvocationPath, MetricsRegistry, RingSink, SloConfig, SloEvent,
    SloTracker, Span, SpanKind, SpanSink, TelemetrySink,
};
