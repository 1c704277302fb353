//! Chaos study: EDP efficiency under injected observation faults
//! (DESIGN.md §9).
//!
//! Each fault plan corrupts what the EAS scheduler *observes* during the
//! desktop suite — never what executes — and we score the scheduled runs
//! against the same scheduler under a fault-free plan. A robust pipeline
//! loses little EDP even while rejecting faulty rounds, quarantining the
//! GPU, or re-profiling tainted table entries.
//!
//! Because faults never touch execution, a run's numbers depend only on
//! each workload's invocation sizes: every plan replays the desktop
//! traces [`Lab`] recorded (and verified) once, through
//! [`ChaosInjector::around`]. `tests/chaos.rs` drives every plan ×
//! desktop workload functionally at `CHAOS_SEED` and holds those replays
//! to the drives.
//!
//! Regenerate with `figures chaos`; the random plans draw from
//! `CHAOS_SEED`.

use crate::report::{csv, md_table, pct, Report};
use crate::Lab;
use easched_core::{EasConfig, EasScheduler, Objective};
use easched_kernels::suite;
use easched_num::mean;
use easched_runtime::{kernel_id_of, replay_trace, ChaosInjector, FaultPlan};
use easched_sim::Machine;

/// Seed of the study's random fault plans; `results/chaos.csv` is a
/// function of it.
const CHAOS_SEED: u64 = 42;

/// Aggregate health counters for one plan across the whole suite.
#[derive(Default)]
struct Tally {
    injected: u64,
    rejected: u64,
    retries: u64,
    taints: u64,
    trips: u64,
    degraded: u64,
    probes: u64,
    recoveries: u64,
}

/// DESIGN.md §9 — graceful degradation under observation faults: per-plan
/// mean EDP efficiency vs the fault-free scheduler, plus the health
/// telemetry that explains where the lost energy went.
pub(crate) fn chaos(lab: &mut Lab) -> Report {
    let objective = Objective::EnergyDelay;
    let mut report = Report::new(
        "chaos",
        "EDP efficiency and health telemetry under injected observation faults",
    );

    // Fault-free EDP per workload: the baseline every plan of the shared
    // matrix is scored against, so it runs first.
    let mut clean_scores: Vec<f64> = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let clean = ("clean".to_string(), FaultPlan::None);
    let runs: Vec<_> = suite::desktop_suite()
        .iter()
        .map(|w| {
            let traits = w.traits_for(&lab.desktop);
            (
                kernel_id_of(w.as_ref()),
                traits,
                lab.trace(w.as_ref(), true),
            )
        })
        .collect();
    for (name, plan) in std::iter::once(clean).chain(FaultPlan::matrix(CHAOS_SEED)) {
        let mut effs = Vec::new();
        let mut scores = Vec::new();
        let mut tally = Tally::default();
        for (i, (kernel, traits, trace)) in runs.iter().enumerate() {
            let mut machine = Machine::new(lab.desktop.clone());
            let mut eas =
                EasScheduler::new(lab.desktop_model.clone(), EasConfig::new(objective.clone()));
            let mut injector = ChaosInjector::new(plan.clone());
            let m = replay_trace(
                &mut machine,
                traits,
                *kernel,
                trace,
                &mut injector.around(&mut eas),
            );
            let score = objective.of_totals(m.energy_joules, m.time);
            scores.push(score);
            if let Some(&clean) = clean_scores.get(i) {
                effs.push(if score > 0.0 { clean / score } else { 0.0 });
            } else {
                effs.push(1.0);
            }
            let h = eas.health();
            tally.injected += injector.injected();
            tally.rejected += h.observations_rejected;
            tally.retries += h.retries;
            tally.taints += h.taints;
            tally.trips += h.breaker_trips;
            tally.degraded += h.degraded_invocations;
            tally.probes += h.probes;
            tally.recoveries += h.recoveries;
        }
        if clean_scores.is_empty() {
            clean_scores = scores;
        }
        let worst = effs.iter().copied().fold(f64::INFINITY, f64::min);
        rows.push(vec![
            name,
            format!("{:.3}", mean(&effs).unwrap_or(0.0)),
            format!("{worst:.3}"),
            tally.injected.to_string(),
            tally.rejected.to_string(),
            tally.retries.to_string(),
            tally.taints.to_string(),
            tally.trips.to_string(),
            tally.degraded.to_string(),
            tally.probes.to_string(),
            tally.recoveries.to_string(),
        ]);
    }

    report.attach_csv(
        "chaos",
        csv(
            &[
                "plan",
                "mean_edp_efficiency_vs_clean",
                "min_edp_efficiency_vs_clean",
                "injected",
                "rejected",
                "retries",
                "taints",
                "breaker_trips",
                "degraded",
                "probes",
                "recoveries",
            ],
            &rows,
        ),
    );
    report.line(format!(
        "Desktop suite under each fault plan (seed {CHAOS_SEED}), replayed \
         from each workload's recorded invocations: the recording is \
         verified functionally correct, faults corrupt observations only, \
         and tests/chaos.rs drives every plan × workload functionally at \
         this seed. EDP efficiency is the fault-free scheduler's EDP over \
         the faulted run's EDP, per workload."
    ));
    report.line("");
    report.line(md_table(
        &[
            "plan",
            "mean EDP eff. vs clean",
            "min",
            "injected",
            "rejected",
            "retries",
            "taints",
            "trips",
            "degraded",
            "probes",
            "recoveries",
        ],
        &rows,
    ));
    let storm = rows
        .iter()
        .find(|r| r[0] == "mixed-storm")
        .map(|r| r[1].clone())
        .unwrap_or_default();
    report.line(format!(
        "- Under the mixed 40% fault storm the suite retains a mean EDP \
         efficiency of {} vs the clean scheduler ({} of clean EDP).",
        storm,
        pct(storm.parse::<f64>().unwrap_or(0.0)),
    ));
    report.line(
        "- Sensor faults (energy, counters, NaN) cost retries and taints but \
         never trip the breaker; only GPU-implicating faults quarantine the \
         GPU and run invocations CPU-only until a probe recovers.",
    );
    report
}
