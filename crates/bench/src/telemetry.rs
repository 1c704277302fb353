//! Post-hoc telemetry analysis: run the desktop suite with a
//! [`RingSink`] attached, then compute per-kernel model drift — how far
//! the engine's predicted P(α)/T(α)/EDP landed from what the platform
//! realized (DESIGN.md §10).
//!
//! On a fault-free run the drift is pure model error (the combined-mode
//! rates the profiler observed vs. the partly-uncontended tail it
//! predicts for), so a regression here means the time model, the power
//! curves, or the telemetry plumbing broke. The experiment asserts every
//! kernel's mean drift under [`MAX_MEAN_EDP_DRIFT`] and panics on a
//! breach; ci.sh's telemetry smoke runs it and checks only that the CSV is
//! non-empty.

use crate::experiments::Lab;
use crate::report::{csv, md_table, pct, Report};
use easched_core::telemetry::{model_drift, DecisionRecord};
use easched_core::{EasConfig, EasRuntime, EasScheduler, Objective, RingSink, TelemetrySink};
use easched_kernels::suite;
use easched_runtime::kernel_id_of;
use std::collections::HashMap;
use std::sync::Arc;

/// Fault-free mean EDP drift ceiling per kernel. The time model is exact
/// in the combined regime and pessimistic for GPU-heavy tails (see the
/// `model-error` experiment), so healthy drift on the desktop suite peaks
/// near 0.56 (NB); a breach means the model or the telemetry plumbing
/// regressed.
pub const MAX_MEAN_EDP_DRIFT: f64 = 0.75;

/// Structural defects that make a record unusable for analysis. A fresh
/// in-process ring can only produce these through a plumbing bug, so the
/// experiment refuses to publish numbers derived from them and exits
/// non-zero instead.
fn malformed(r: &DecisionRecord) -> Option<String> {
    if !r.alpha.is_finite() || !(0.0..=1.0).contains(&r.alpha) {
        return Some(format!("α {} outside [0, 1]", r.alpha));
    }
    if r.fault_rounds > r.rounds + 1 {
        return Some(format!(
            "{} fault rounds but only {} rounds",
            r.fault_rounds, r.rounds
        ));
    }
    if r.breaker > 2 {
        return Some(format!("unknown breaker code {}", r.breaker));
    }
    if r.path.has_prediction() && r.rounds == 0 {
        return Some("a profiled path with zero profiling rounds".into());
    }
    None
}

/// Whether any measured or predicted quantity is non-finite. Such records
/// are structurally sound (faulty runs produce them legitimately — a NaN
/// observation's phase totals stay NaN) but would poison drift means, so
/// the analysis clamps them out and reports how many it flagged.
fn non_finite(r: &DecisionRecord) -> bool {
    [
        r.predicted_power,
        r.predicted_time,
        r.predicted_objective,
        r.profile_time,
        r.profile_energy,
        r.split_time,
        r.split_energy,
    ]
    .iter()
    .any(|v| !v.is_finite())
}

/// Exits the process with status 3 when any record is structurally
/// malformed, naming each offender on stderr first. The stderr use is
/// deliberate: this runs inside the `figures` CLI, and a corrupt record
/// set must fail the pipeline, not decorate a report.
#[allow(clippy::print_stderr)]
fn audit_or_abort(records: &[DecisionRecord]) {
    let mut bad = 0usize;
    for r in records {
        if let Some(why) = malformed(r) {
            eprintln!(
                "malformed record seq {} (kernel {:#x}): {why}",
                r.seq, r.kernel
            );
            bad += 1;
        }
    }
    if bad > 0 {
        eprintln!(
            "{bad}/{} records malformed — aborting telemetry analysis",
            records.len()
        );
        std::process::exit(3);
    }
}

/// The `figures telemetry` experiment: desktop suite under EAS with
/// tracing on, and the per-kernel drift table.
pub fn telemetry(lab: &mut Lab) -> Report {
    let mut report = Report::new(
        "telemetry",
        "Decision telemetry and model drift (desktop suite, EnergyDelay)",
    );

    let sink = Arc::new(RingSink::with_capacity(1 << 15));
    let mut eas = EasScheduler::new(
        lab.desktop_model.clone(),
        EasConfig::new(Objective::EnergyDelay),
    );
    eas.set_telemetry(Some(sink.clone() as Arc<dyn TelemetrySink>));
    let mut rt = EasRuntime::with_scheduler(lab.desktop.clone(), eas);

    let mut abbrevs: HashMap<u64, String> = HashMap::new();
    for workload in suite::desktop_suite() {
        abbrevs.insert(
            kernel_id_of(workload.as_ref()),
            workload.spec().abbrev.to_string(),
        );
        let out = rt.run(workload.as_ref());
        assert!(
            out.verification.is_passed(),
            "{} failed under telemetry",
            workload.spec().abbrev
        );
    }
    let health = rt.health();
    assert!(
        health.fault_free(),
        "clean run must stay fault-free: {health:?}"
    );

    let records = sink.snapshot();
    assert_eq!(
        records.len() as u64,
        sink.recorded(),
        "ring must hold every record (raise the capacity if the suite grew)"
    );
    assert_eq!(sink.dropped(), 0);

    // Audit before analysis: a structurally malformed record means the
    // telemetry plumbing itself broke — refuse to publish and exit
    // non-zero so CI fails loudly rather than charting garbage.
    audit_or_abort(&records);
    // Clamp, don't crash, on non-finite measurements: legitimate under
    // fault injection, but they must not poison the drift means. On this
    // fault-free run the flagged count must be zero.
    let flagged = records.iter().filter(|r| non_finite(r)).count();
    let clean: Vec<DecisionRecord> = records.iter().filter(|r| !non_finite(r)).cloned().collect();
    assert_eq!(
        flagged, 0,
        "fault-free run must not record non-finite values"
    );

    let drift = model_drift(&clean);
    let mut rows = Vec::new();
    let mut worst: (String, f64) = (String::new(), 0.0);
    for k in &drift {
        let name = abbrevs
            .get(&k.kernel)
            .cloned()
            .unwrap_or_else(|| format!("{:#x}", k.kernel));
        if k.predicted > 0 && k.mean_edp_drift > worst.1 {
            worst = (name.clone(), k.mean_edp_drift);
        }
        rows.push(vec![
            name,
            k.invocations.to_string(),
            k.table_hits.to_string(),
            k.predicted.to_string(),
            format!("{:.4}", k.mean_time_error),
            format!("{:.4}", k.mean_power_error),
            format!("{:.4}", k.mean_edp_drift),
            format!("{:.4}", k.max_edp_drift),
        ]);
    }
    report.attach_csv(
        "telemetry",
        csv(
            &[
                "kernel",
                "invocations",
                "table_hits",
                "predicted",
                "mean_time_error",
                "mean_power_error",
                "mean_edp_drift",
                "max_edp_drift",
            ],
            &rows,
        ),
    );
    report.line(md_table(
        &[
            "kernel",
            "inv",
            "hits",
            "pred",
            "mean |ΔT|/T",
            "mean |ΔP|/P",
            "mean EDP drift",
            "max EDP drift",
        ],
        &rows,
    ));

    let m = sink.metrics();
    report.line(format!(
        "- {} invocations recorded ({} dropped), table hit rate {}, \
         profiling overhead {} of invocation time, mean decide latency {:.2} µs",
        sink.recorded(),
        sink.dropped(),
        pct(m.hit_rate()),
        pct(m.overhead_fraction()),
        m.decide_latency_ns.mean() / 1e3,
    ));
    report.line(format!(
        "- worst fault-free mean EDP drift: {} at {:.3} (ceiling {MAX_MEAN_EDP_DRIFT})",
        worst.0, worst.1
    ));
    report.line(format!(
        "- record audit: 0 malformed, {flagged} flagged non-finite (of {})",
        records.len()
    ));
    report.line(format!(
        "- control loop: {} drift reprofiles, {} suppressed, {} watchdog trips, {} split overruns",
        health.drift_reprofiles,
        health.reprofiles_suppressed,
        health.watchdog_trips,
        health.split_overruns,
    ));
    for k in &drift {
        assert!(
            k.mean_edp_drift.is_finite() && k.max_edp_drift.is_finite(),
            "kernel {:#x}: drift means must be finite after clamping",
            k.kernel
        );
        assert!(
            k.predicted == 0 || k.mean_edp_drift <= MAX_MEAN_EDP_DRIFT,
            "kernel {:#x}: fault-free mean EDP drift {:.3} above ceiling",
            k.kernel,
            k.mean_edp_drift
        );
    }
    report
}
