//! Post-hoc model-drift analysis: how far the scheduler's predictions
//! strayed from what actually happened.
//!
//! Every record on a prediction-carrying path ([`InvocationPath::
//! has_prediction`](crate::InvocationPath::has_prediction)) pins three
//! model outputs — P(α), T(α), and their EDP — against the realized
//! energy and time of the final split it scheduled. Per-kernel relative
//! errors aggregate those into a drift report: on a healthy platform the
//! errors reflect only measurement noise and residual model error, so a
//! drift that grows over a run (or differs wildly between kernels) is
//! the black-box signal that a power curve or the time model no longer
//! matches the machine — exactly the feedback the paper's static
//! characterization cannot provide.

use crate::record::DecisionRecord;
use std::collections::BTreeMap;

/// Per-kernel summary of predicted-vs-realized error.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct KernelDrift {
    /// The kernel.
    pub kernel: u64,
    /// Records seen for this kernel, on any path.
    pub invocations: u64,
    /// Invocations served straight from the table.
    pub table_hits: u64,
    /// Invocations that carried a model prediction (the sample the
    /// errors below are averaged over).
    pub predicted: u64,
    /// Mean relative error of T(α) against the realized split time.
    pub mean_time_error: f64,
    /// Mean relative error of P(α) against the realized split power.
    pub mean_power_error: f64,
    /// Mean relative error of predicted EDP (P·T²) against realized
    /// split EDP (E·T).
    pub mean_edp_drift: f64,
    /// Worst single-invocation EDP error.
    pub max_edp_drift: f64,
}

#[derive(Default)]
struct Accumulator {
    invocations: u64,
    table_hits: u64,
    predicted: u64,
    time_error: f64,
    power_error: f64,
    edp_drift: f64,
    max_edp_drift: f64,
}

/// Aggregates records into per-kernel drift summaries, sorted by kernel
/// id. Records without a prediction (table hits, small-N, quarantined,
/// degraded) count toward `invocations` but contribute no error terms.
pub fn model_drift(records: &[DecisionRecord]) -> Vec<KernelDrift> {
    let mut per_kernel: BTreeMap<u64, Accumulator> = BTreeMap::new();
    for r in records {
        let acc = per_kernel.entry(r.kernel).or_default();
        acc.invocations += 1;
        if r.path == crate::record::InvocationPath::TableHit {
            acc.table_hits += 1;
        }
        if !r.path.has_prediction() || r.split_time <= 0.0 || r.predicted_time <= 0.0 {
            continue;
        }
        let realized_power = r.split_energy / r.split_time;
        let predicted_edp = r.predicted_power * r.predicted_time * r.predicted_time;
        let realized_edp = r.split_energy * r.split_time;
        let time_err = relative_error(r.predicted_time, r.split_time);
        let power_err = relative_error(r.predicted_power, realized_power);
        let edp_err = relative_error(predicted_edp, realized_edp);
        acc.predicted += 1;
        acc.time_error += time_err;
        acc.power_error += power_err;
        acc.edp_drift += edp_err;
        acc.max_edp_drift = acc.max_edp_drift.max(edp_err);
    }
    per_kernel
        .into_iter()
        .map(|(kernel, acc)| {
            let n = acc.predicted.max(1) as f64;
            KernelDrift {
                kernel,
                invocations: acc.invocations,
                table_hits: acc.table_hits,
                predicted: acc.predicted,
                mean_time_error: acc.time_error / n,
                mean_power_error: acc.power_error / n,
                mean_edp_drift: acc.edp_drift / n,
                max_edp_drift: acc.max_edp_drift,
            }
        })
        .collect()
}

/// |predicted − realized| / |realized|, with non-finite or near-zero
/// denominators scored as zero drift. The online drift monitor scores
/// with this same function, so offline and online numbers agree.
pub fn relative_error(predicted: f64, realized: f64) -> f64 {
    if realized.abs() < f64::EPSILON || !realized.is_finite() || !predicted.is_finite() {
        return 0.0;
    }
    ((predicted - realized) / realized).abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::InvocationPath;

    fn predicted_record(kernel: u64, pred_time: f64, split_time: f64) -> DecisionRecord {
        DecisionRecord {
            kernel,
            path: InvocationPath::Profiled,
            predicted_power: 50.0,
            predicted_time: pred_time,
            split_time,
            split_energy: 50.0 * split_time, // realized power exactly 50 W
            ..DecisionRecord::default()
        }
    }

    #[test]
    fn perfect_predictions_report_zero_drift() {
        let records = vec![predicted_record(1, 0.5, 0.5), predicted_record(1, 2.0, 2.0)];
        let drift = model_drift(&records);
        assert_eq!(drift.len(), 1);
        assert_eq!(drift[0].predicted, 2);
        assert_eq!(drift[0].mean_time_error, 0.0);
        assert_eq!(drift[0].mean_power_error, 0.0);
        assert_eq!(drift[0].mean_edp_drift, 0.0);
        assert_eq!(drift[0].max_edp_drift, 0.0);
    }

    #[test]
    fn time_error_propagates_into_edp() {
        // T off by 2× at equal power: EDP = P·T² off by 4× → error 3.0.
        let drift = model_drift(&[predicted_record(3, 1.0, 0.5)]);
        assert!((drift[0].mean_time_error - 1.0).abs() < 1e-12);
        assert!((drift[0].mean_power_error - 0.0).abs() < 1e-12);
        assert!((drift[0].mean_edp_drift - 3.0).abs() < 1e-12);
        assert_eq!(drift[0].max_edp_drift, drift[0].mean_edp_drift);
    }

    #[test]
    fn non_predicted_paths_count_invocations_only() {
        let records = vec![
            predicted_record(9, 1.0, 1.0),
            DecisionRecord {
                kernel: 9,
                path: InvocationPath::TableHit,
                ..DecisionRecord::default()
            },
            DecisionRecord {
                kernel: 9,
                path: InvocationPath::Quarantined,
                ..DecisionRecord::default()
            },
        ];
        let drift = model_drift(&records);
        assert_eq!(drift[0].invocations, 3);
        assert_eq!(drift[0].table_hits, 1);
        assert_eq!(drift[0].predicted, 1);
    }

    #[test]
    fn kernels_sort_by_id() {
        let records = vec![predicted_record(7, 1.0, 1.0), predicted_record(2, 1.0, 1.0)];
        let drift = model_drift(&records);
        assert_eq!(drift[0].kernel, 2);
        assert_eq!(drift[1].kernel, 7);
    }
}
