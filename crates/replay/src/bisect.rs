//! Shrinking a divergent log to a minimal reproducer.
//!
//! When a replay diverges (a code change, a perturbed log), the full
//! storm is a poor regression artifact — hundreds of invocations of
//! which a handful matter. [`bisect_storm`] localizes the failure: it
//! truncates the log to the prefix ending at the divergent invocation,
//! then greedily drops earlier invocations while the divergence keeps
//! the same *signature* (same kernel, same differing record fields) —
//! dropping an invocation the divergence actually depends on (one whose
//! table learning feeds the divergent decision) changes the signature
//! and is rejected. The surviving log is a minimal reproducer fit to
//! check in as a regression-test fixture.
//!
//! Decision sequence numbers are reassigned after every cut (the live
//! replay numbers from zero, so a shrunk log must too); everything else
//! is carried verbatim.

use crate::harness::{scheduler_for_log, ReplayError};
use crate::log::{Event, LoggedInvocation, RunLog};
use crate::replay::{replay_log, Divergence};
use easched_runtime::TickClock;
use easched_telemetry::DecisionRecord;
use std::sync::Arc;

/// Outcome of shrinking a divergent log.
#[derive(Debug)]
pub struct BisectReport {
    /// The divergence as seen on the full log.
    pub(crate) divergence: Divergence,
    /// The shrunk log, still reproducing the same divergence signature.
    pub minimal: RunLog,
    /// Invocations in the original log.
    pub original_invocations: usize,
    /// Invocations surviving in the minimal log.
    pub kept_invocations: usize,
}

impl BisectReport {
    /// A human-readable summary plus the underlying divergence report.
    pub fn render(&self) -> String {
        format!(
            "bisect: shrunk {} invocations to {} (divergence at decision {})\n{}",
            self.original_invocations,
            self.kept_invocations,
            self.divergence.decision_index,
            self.divergence.render()
        )
    }
}

/// What makes two divergences "the same failure" across shrinks: the
/// kernel whose decision went wrong and the set of fields that differ
/// (indices shift as invocations are dropped, so they are not part of
/// the signature).
fn signature(d: &Divergence) -> (Option<u64>, Vec<&'static str>) {
    (d.recorded.or(d.live).map(|r| r.kernel), d.fields.clone())
}

/// Replays a log that bisection knows diverges, returning the first
/// divergence; `None` for a clean candidate (shrink rejected).
fn diverges(log: &RunLog, pristine: &easched_core::EasScheduler) -> Option<Divergence> {
    let mut scheduler = pristine.clone();
    // A fresh virtual clock per replay: the pristine scheduler's TickClock
    // would otherwise carry its read counter across candidates and skew
    // every decide_nanos after the first replay.
    scheduler.set_clock(Arc::new(TickClock::new()));
    replay_log(log, &mut scheduler).divergence
}

/// Bisects a divergent storm log down to a minimal reproducer.
///
/// Returns `Ok(None)` when the log replays cleanly (nothing to bisect);
/// [`ReplayError`] when the log's fingerprints do not match this build.
pub fn bisect_storm(log: &RunLog) -> Result<Option<BisectReport>, ReplayError> {
    let (pristine, _) = scheduler_for_log(log)?;
    let Some(divergence) = diverges(log, &pristine) else {
        return Ok(None);
    };
    let target = signature(&divergence);

    // One group per invocation: its header, steps, and decisions.
    let groups = log.invocations();
    let original_invocations = groups.len();

    // Phase 1: truncate to the prefix ending at the divergent invocation
    // (everything after it cannot influence an earlier decision).
    let mut kept: Vec<usize> = (0..=divergence.invocation.min(groups.len() - 1)).collect();

    // Phase 2: greedily drop earlier invocations, newest-first, keeping a
    // cut only if the same divergence signature survives. The divergent
    // invocation itself (the last kept) is never dropped.
    let mut i = kept.len().saturating_sub(1);
    while i > 0 {
        i -= 1;
        let candidate_kept: Vec<usize> = kept.iter().copied().filter(|&k| k != kept[i]).collect();
        let candidate = rebuild(log, &groups, &candidate_kept);
        if let Some(d) = diverges(&candidate, &pristine) {
            if signature(&d) == target {
                kept = candidate_kept;
            }
        }
    }

    Ok(Some(BisectReport {
        divergence,
        minimal: rebuild(log, &groups, &kept),
        original_invocations,
        kept_invocations: kept.len(),
    }))
}

/// Reassembles a log from the pre-invocation preamble (seed derivations)
/// and a subset of invocation groups, renumbering the decision stream
/// from zero.
fn rebuild(log: &RunLog, groups: &[LoggedInvocation<'_>], kept: &[usize]) -> RunLog {
    let preamble = groups.first().map_or(log.events.len(), |g| g.span.start);
    let mut events: Vec<Event> = log.events[..preamble].to_vec();
    for &k in kept {
        events.extend_from_slice(groups[k].events());
    }
    let mut seq = 0;
    for event in &mut events {
        if let Event::Decision(record) = event {
            *event = Event::Decision(DecisionRecord { seq, ..*record });
            seq += 1;
        }
    }
    RunLog {
        events,
        complete: true,
        ..*log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{record_chaos_storm, StormSpec};

    #[test]
    fn clean_log_has_nothing_to_bisect() {
        let recorded = record_chaos_storm(&StormSpec::new(7));
        assert!(bisect_storm(&recorded.log).unwrap().is_none());
    }

    #[test]
    fn bisect_shrinks_a_perturbed_log() {
        let mut recorded = record_chaos_storm(&StormSpec::new(7));
        let steps = recorded
            .log
            .events
            .iter()
            .filter(|e| matches!(e, Event::Step(_)))
            .count();
        assert!(recorded.log.perturb_step(steps / 2));

        let report = bisect_storm(&recorded.log)
            .unwrap()
            .expect("perturbed log diverges");
        assert!(report.kept_invocations <= report.original_invocations);
        assert!(report.kept_invocations >= 1);
        // Captured from the commit before bisection read its groups off
        // `RunLog::invocations`: the shared nesting walk and the
        // renumbering must shrink to the same reproducer.
        assert_eq!(report.original_invocations, 182);
        assert_eq!(report.kept_invocations, 66);
        assert_eq!(report.divergence.decision_index, 91);
        assert_eq!(
            signature(&report.divergence),
            (Some(1572087333288760702), vec!["split_energy"])
        );
        // The minimal log is a self-contained reproducer with the same
        // failure signature.
        let (pristine, _) = scheduler_for_log(&recorded.log).unwrap();
        let minimal_divergence =
            diverges(&report.minimal, &pristine).expect("the minimal log still diverges");
        assert_eq!(minimal_divergence.decision_index, 65);
        assert_eq!(minimal_divergence.invocation, 65);
        assert_eq!(
            signature(&report.divergence),
            signature(&minimal_divergence)
        );
        let text = report.minimal.to_text();
        let reparsed = RunLog::from_text(&text).unwrap();
        let again = bisect_storm(&reparsed).unwrap().expect("fixture diverges");
        assert_eq!(signature(&again.divergence), signature(&report.divergence));
    }
}
