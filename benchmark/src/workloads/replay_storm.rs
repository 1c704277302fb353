//! `replay_storm`: scheduler + sealed-line codec with no simulator.
//! Set-up records a chaos storm and renders it to text — the format
//! `tenant_storm` writes; a unit parses the text back and replays it.

use super::{Checks, Unit, Workload};
use crate::trace;
use easched_core::RunSeed;
use easched_replay::{record_chaos_storm, replay_chaos_storm, RecordedStorm, RunLog, StormSpec};
use std::time::Instant;

/// Passes over the three-workload rotation. Replay cost is quadratic in
/// this (README, findings), so it is part of the workload's definition.
pub const ROUNDS: usize = 96;

pub struct ReplayStorm {
    pub recorded: RecordedStorm,
    pub text: String,
    /// Events in the recorded log.
    pub events: usize,
}

impl ReplayStorm {
    pub fn build(seed: u64) -> ReplayStorm {
        ReplayStorm::build_sized(seed, ROUNDS)
    }

    pub fn build_sized(seed: u64, rounds: usize) -> ReplayStorm {
        let recorded = record_chaos_storm(&StormSpec {
            seed: RunSeed::new(seed),
            rounds,
            ..StormSpec::new(seed)
        });
        let text = recorded.log.to_text();
        let events = recorded.log.events.len();
        ReplayStorm {
            recorded,
            text,
            events,
        }
    }
}

impl Workload for ReplayStorm {
    fn unit(&mut self, _traced: bool) -> Unit {
        let start = Instant::now();
        let parsed = trace::span("replay.log", || RunLog::from_text(&self.text));
        let outcome = parsed
            .as_ref()
            .ok()
            .map(|log| trace::span("replay.replay", || replay_chaos_storm(log)));
        let wall = start.elapsed();

        let mut checks = Checks::default();
        let mut invocations = 0;
        match (parsed, outcome) {
            (Ok(log), Some(Ok(outcome))) => {
                invocations = outcome.invocations_replayed as u64;
                checks.attempted = invocations;
                checks.check(log.complete && log.events.len() == self.events, || {
                    "log text did not parse back whole".into()
                });
                checks.check(outcome.identical(), || {
                    outcome
                        .divergence
                        .as_ref()
                        .map_or_else(String::new, |d| d.render())
                });
                checks.check(
                    outcome.table == self.recorded.table && outcome.health == self.recorded.health,
                    || "replay did not reconverge to the recorded table and health".into(),
                );
            }
            (Err(e), _) => checks.check(false, || format!("log text does not parse: {e}")),
            (_, Some(Err(e))) => checks.check(false, || format!("log does not replay: {e}")),
            (Ok(_), None) => unreachable!("a parsed log is always replayed"),
        }
        Unit {
            invocations,
            wall,
            batch_ns: Vec::new(),
            checks,
        }
    }
}
