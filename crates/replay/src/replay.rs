//! Re-executing a recorded run and diffing it against the log.
//!
//! [`ReplayBackend`] impersonates the recorded backend for one
//! invocation: each `profile_step`/`run_split` call is matched against
//! the next recorded step and answered with the recorded observation, so
//! the scheduler re-sees exactly what it saw live — chaos corruption,
//! drift windows, watchdog stalls and all — without a simulator or real
//! hardware behind it. [`replay_log`] drives a fresh scheduler through
//! every recorded invocation, collects its live [`DecisionRecord`]
//! stream, and reports the first divergence from the recorded stream
//! (bit-level, NaN-tolerant), together with the engine state — table and
//! health — at the moment of divergence. That is the time-travel
//! debugging loop: perturb, replay, and the diff hands you the first
//! decision where history changed.
//!
//! A structurally divergent scheduler (one that asks for a different
//! chunk or α than the log has next) would deadlock a strict replayer,
//! so after noting the first structural mismatch the backend *free-runs*:
//! it synthesizes deterministic observations (fixed nominal device rates)
//! and keeps consuming items, letting the run complete so the decision
//! diff can still be reported.

use crate::log::{LoggedInvocation, RecordedStep, RunLog, StepCall};
use crate::record::Recorder;
use easched_core::{table_to_text, EasScheduler, HealthReport, RunSeed};
use easched_runtime::{Backend, Observation, Scheduler};
use easched_telemetry::{DecisionRecord, TelemetrySink};
use std::sync::Arc;

/// Nominal device rates for free-running synthesized observations after a
/// structural divergence (same constants the test fake uses).
const FREE_RUN_CPU_RATE: f64 = 1.0e6;
const FREE_RUN_GPU_RATE: f64 = 2.0e6;
const FREE_RUN_POWER: f64 = 55.0;

/// A backend that answers one recorded invocation's calls from the log.
#[derive(Debug)]
pub struct ReplayBackend<'a> {
    steps: &'a [RecordedStep],
    cursor: usize,
    remaining: u64,
    profile_size: u64,
    divergence: Option<String>,
}

impl<'a> ReplayBackend<'a> {
    /// A backend for one recorded invocation.
    pub fn new(invocation: &'a LoggedInvocation<'a>) -> ReplayBackend<'a> {
        ReplayBackend {
            steps: &invocation.steps,
            cursor: 0,
            remaining: invocation.items,
            profile_size: invocation.profile_size,
            divergence: None,
        }
    }

    /// The first structural mismatch, if the live scheduler called the
    /// backend differently than the recording (human-readable).
    pub fn divergence(&self) -> Option<&str> {
        self.divergence.as_deref()
    }

    /// Recorded steps not consumed by the live scheduler.
    pub fn unconsumed_steps(&self) -> usize {
        self.steps.len() - self.cursor
    }

    fn next_matching(&mut self, wanted: &StepCall, desc: &str) -> Option<RecordedStep> {
        if self.divergence.is_some() {
            return None;
        }
        match self.steps.get(self.cursor) {
            Some(step) if calls_match(&step.call, wanted) => {
                self.cursor += 1;
                Some(*step)
            }
            other => {
                self.divergence = Some(format!(
                    "live scheduler called {desc} but log step {} is {:?}",
                    self.cursor,
                    other.map(|s| s.call)
                ));
                None
            }
        }
    }

    /// Deterministic stand-in observation once the log no longer applies.
    fn synthesize(&mut self, gpu_items: u64, cpu_items: u64) -> Observation {
        let gpu_time = gpu_items as f64 / FREE_RUN_GPU_RATE;
        let cpu_time = cpu_items as f64 / FREE_RUN_CPU_RATE;
        let elapsed = gpu_time.max(cpu_time);
        self.remaining -= gpu_items + cpu_items;
        Observation {
            elapsed,
            cpu_items,
            gpu_items,
            cpu_time,
            gpu_time,
            energy_joules: FREE_RUN_POWER * elapsed,
            ..Default::default()
        }
    }
}

/// `run_split` α must match bit-for-bit: the recorded α came out of the
/// same deterministic minimizer the replay re-runs, so any difference at
/// all is a real divergence, not float noise.
fn calls_match(recorded: &StepCall, wanted: &StepCall) -> bool {
    match (recorded, wanted) {
        (StepCall::Profile { chunk: a }, StepCall::Profile { chunk: b }) => a == b,
        (StepCall::Split { alpha: a }, StepCall::Split { alpha: b }) => a.to_bits() == b.to_bits(),
        _ => false,
    }
}

impl Backend for ReplayBackend<'_> {
    fn remaining(&self) -> u64 {
        self.remaining
    }

    fn gpu_profile_size(&self) -> u64 {
        self.profile_size
    }

    fn profile_step(&mut self, gpu_chunk: u64) -> Observation {
        let call = StepCall::Profile { chunk: gpu_chunk };
        if let Some(step) = self.next_matching(&call, &format!("profile_step({gpu_chunk})")) {
            self.remaining = step.remaining_after;
            return step.obs;
        }
        let gpu = gpu_chunk.min(self.remaining);
        let cpu = ((self.remaining - gpu) / 2).min((FREE_RUN_CPU_RATE / 1.0e3) as u64);
        self.synthesize(gpu, cpu)
    }

    fn run_split(&mut self, alpha: f64) -> Observation {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0, 1]");
        let call = StepCall::Split { alpha };
        if let Some(step) = self.next_matching(&call, &format!("run_split({alpha})")) {
            self.remaining = step.remaining_after;
            return step.obs;
        }
        let gpu = (self.remaining as f64 * alpha).round() as u64;
        let cpu = self.remaining - gpu;
        self.synthesize(gpu, cpu)
    }
}

/// The first point where a replay's decision stream left the recording.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Index into the decision stream (0-based) of the first divergent
    /// record.
    pub decision_index: usize,
    /// 0-based ordinal of the invocation that emitted it.
    pub invocation: usize,
    /// Workload label of that invocation.
    pub label: String,
    /// The recorded decision at that index (`None`: the live run emitted
    /// *more* decisions than were recorded).
    pub recorded: Option<DecisionRecord>,
    /// The live decision at that index (`None`: the live run emitted
    /// fewer).
    pub live: Option<DecisionRecord>,
    /// Names of the differing record fields (empty when one side is
    /// missing entirely).
    pub fields: Vec<&'static str>,
    /// First structural backend mismatch, if the live scheduler also
    /// called the backend differently.
    pub structural: Option<String>,
    /// The kernel table as text at the moment of divergence — the engine
    /// state a time-traveling debugger lands on.
    pub table: String,
    /// Health counters at the moment of divergence.
    pub health: HealthReport,
}

impl Divergence {
    /// A multi-line human-readable report.
    pub fn render(&self) -> String {
        let mut out = format!(
            "first divergent decision: index {} (invocation {} [{}])\n",
            self.decision_index, self.invocation, self.label
        );
        match (&self.recorded, &self.live) {
            (Some(r), Some(l)) => {
                out.push_str(&format!("  differing fields: {}\n", self.fields.join(", ")));
                out.push_str(&format!("  recorded: {r:?}\n  live:     {l:?}\n"));
            }
            (Some(r), None) => {
                out.push_str(&format!("  live run ended early; recorded: {r:?}\n"));
            }
            (None, Some(l)) => {
                out.push_str(&format!("  live run emitted extra decision: {l:?}\n"));
            }
            (None, None) => {}
        }
        if let Some(s) = &self.structural {
            out.push_str(&format!("  structural: {s}\n"));
        }
        out.push_str(&format!("  health at divergence: {:?}\n", self.health));
        out.push_str("  kernel table at divergence:\n");
        for line in self.table.lines() {
            out.push_str(&format!("    {line}\n"));
        }
        out
    }
}

/// Outcome of replaying a full log against a fresh scheduler.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// Decisions the live re-run emitted (up to the divergence, if any).
    pub live: Vec<DecisionRecord>,
    /// Decisions the log recorded.
    pub recorded: Vec<DecisionRecord>,
    /// The first divergence, or `None` for a byte-identical replay.
    pub divergence: Option<Divergence>,
    /// Invocations actually replayed (all of them unless diverged).
    pub invocations_replayed: usize,
    /// Final health counters of the replaying scheduler.
    pub health: HealthReport,
    /// Final kernel table of the replaying scheduler, as text.
    pub table: String,
}

impl ReplayOutcome {
    /// `true` when the replay reproduced the recorded decision stream
    /// bit-for-bit.
    pub fn identical(&self) -> bool {
        self.divergence.is_none()
    }
}

/// Replays `log` through `scheduler` (which must be freshly built from
/// the same model + config the recording used — see the fingerprints in
/// the log header) and diffs the decision streams.
///
/// Replay is recording with the backend swapped: the scheduler's
/// telemetry sink is replaced with a fresh [`Recorder`] for the duration,
/// and each invocation's new records are compared against the recorded
/// stream where the last comparison stopped. The first divergent decision
/// stops the replay so the reported table/health are the state *at* the
/// divergence. A torn log replays its last complete invocation boundary
/// (see [`RunLog::complete`]).
pub fn replay_log(log: &RunLog, scheduler: &mut EasScheduler) -> ReplayOutcome {
    let log = &*log.replayable();
    let collector = Recorder::new(RunSeed::new(log.root), log.platform_fp, log.config_fp);
    scheduler.set_telemetry(Some(Arc::clone(&collector) as Arc<dyn TelemetrySink>));

    let recorded = log.decisions();
    let invocations = log.invocations();
    let mut divergence = None;
    // Live decisions compared so far: each one that has a recorded
    // counterpart was found bitwise-equal to it.
    let mut seen: usize = 0;
    let mut replayed: usize = 0;

    for (ordinal, invocation) in invocations.iter().enumerate() {
        let mut backend = ReplayBackend::new(invocation);
        scheduler.schedule(invocation.kernel, &mut backend);
        // A recorded step the live run never asked for diverges as
        // structurally as one it asked for differently.
        let structural = backend.divergence().map(String::from).or_else(|| {
            let left = backend.unconsumed_steps();
            (left > 0).then(|| format!("{left} recorded steps not consumed"))
        });
        replayed += 1;

        let fresh = collector.decisions_since(seen as u64);
        let mismatch = fresh
            .iter()
            .zip(recorded.get(seen..).unwrap_or_default())
            .position(|(live, rec)| !rec.bitwise_eq(live));
        let (index, live) = match mismatch {
            Some(offset) => (seen + offset, Some(fresh[offset])),
            // The backend calls diverged but every decision so far still
            // matches (possible when corruption cancels out downstream) —
            // report it anchored at the next decision index.
            None if structural.is_some() => (seen + fresh.len(), None),
            None => {
                seen += fresh.len();
                continue;
            }
        };
        divergence = Some(build_divergence(
            index,
            ordinal,
            invocation.label,
            recorded.get(index).copied(),
            live,
            structural,
            scheduler,
        ));
        break;
    }

    let live = collector.decisions_since(0);
    if divergence.is_none() && live.len() != recorded.len() {
        let index = live.len().min(recorded.len());
        divergence = Some(build_divergence(
            index,
            replayed.saturating_sub(1),
            invocations.last().map_or("", |i| i.label),
            recorded.get(index).copied(),
            live.get(index).copied(),
            None,
            scheduler,
        ));
    }

    ReplayOutcome {
        live,
        recorded,
        divergence,
        invocations_replayed: replayed,
        health: scheduler.health(),
        table: table_to_text(scheduler.table()),
    }
}

fn build_divergence(
    index: usize,
    invocation: usize,
    label: &str,
    recorded: Option<DecisionRecord>,
    live: Option<DecisionRecord>,
    structural: Option<String>,
    scheduler: &EasScheduler,
) -> Divergence {
    let fields = match (&recorded, &live) {
        (Some(r), Some(l)) => differing_fields(r, l),
        _ => Vec::new(),
    };
    Divergence {
        decision_index: index,
        invocation,
        label: label.to_string(),
        recorded,
        live,
        fields,
        structural,
        table: table_to_text(scheduler.table()),
        health: scheduler.health(),
    }
}

/// Field names of the encoded words where two records differ.
pub fn differing_fields(a: &DecisionRecord, b: &DecisionRecord) -> Vec<&'static str> {
    const NAMES: [&str; DecisionRecord::WORDS] = [
        "kernel",
        "path/class/breaker/rounds",
        "r_c",
        "r_g",
        "alpha",
        "predicted_power",
        "predicted_time",
        "predicted_objective",
        "profile_time",
        "profile_energy",
        "split_time",
        "split_energy",
        "items/decide_nanos",
    ];
    let wa = a.encode();
    let wb = b.encode();
    let mut out: Vec<&'static str> = NAMES
        .iter()
        .zip(wa.iter().zip(wb.iter()))
        .filter(|(_, (x, y))| x != y)
        .map(|(n, _)| *n)
        .collect();
    if a.seq != b.seq {
        out.insert(0, "seq");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::{Event, RunLog};

    fn one_invocation_log() -> RunLog {
        let obs = Observation {
            elapsed: 0.1,
            cpu_items: 1000,
            gpu_items: 4000,
            cpu_time: 0.1,
            gpu_time: 0.1,
            energy_joules: 5.0,
            ..Default::default()
        };
        RunLog {
            version: crate::log::FORMAT_VERSION,
            root: 1,
            platform_fp: 0,
            config_fp: 0,
            events: vec![
                Event::Invocation {
                    kernel: 3,
                    items: 10_000,
                    profile_size: 2240,
                    label: "T".into(),
                },
                Event::Step(RecordedStep {
                    call: StepCall::Profile { chunk: 2240 },
                    obs,
                    remaining_after: 5000,
                }),
                Event::Step(RecordedStep {
                    call: StepCall::Split { alpha: 0.5 },
                    obs,
                    remaining_after: 0,
                }),
            ],
            complete: true,
        }
    }

    #[test]
    fn replay_backend_feeds_recorded_observations() {
        let log = one_invocation_log();
        let invs = log.invocations();
        let mut b = ReplayBackend::new(&invs[0]);
        assert_eq!(b.remaining(), 10_000);
        assert_eq!(b.gpu_profile_size(), 2240);
        let o1 = b.profile_step(2240);
        assert_eq!(o1.gpu_items, 4000, "recorded obs, corrupted counts and all");
        assert_eq!(b.remaining(), 5000, "ground truth, not the obs");
        let o2 = b.run_split(0.5);
        assert_eq!(o2.energy_joules, 5.0);
        assert_eq!(b.remaining(), 0);
        assert!(b.divergence().is_none());
        assert_eq!(b.unconsumed_steps(), 0);
    }

    #[test]
    fn structural_mismatch_noted_then_free_runs() {
        let log = one_invocation_log();
        let invs = log.invocations();
        let mut b = ReplayBackend::new(&invs[0]);
        // Ask for a different chunk than recorded.
        let _ = b.profile_step(999);
        assert!(b.divergence().unwrap().contains("profile_step(999)"));
        // Free-run still consumes everything so a scheduler can finish.
        while b.remaining() > 0 {
            b.run_split(1.0);
        }
        assert_eq!(b.remaining(), 0);
    }

    #[test]
    fn differing_fields_names_the_word() {
        let a = DecisionRecord {
            alpha: 0.5,
            ..Default::default()
        };
        let b = DecisionRecord {
            alpha: 0.6,
            split_energy: 1.0,
            ..Default::default()
        };
        assert_eq!(differing_fields(&a, &b), vec!["alpha", "split_energy"]);
        // NaN == NaN under the bitwise view.
        let n1 = DecisionRecord {
            r_c: f64::NAN,
            ..Default::default()
        };
        let n2 = DecisionRecord {
            r_c: f64::NAN,
            ..Default::default()
        };
        assert!(differing_fields(&n1, &n2).is_empty());
    }

    /// Divergences of edited seed-7 storms as `(decision_index, invocation,
    /// label, fields, structural?, recorded?, live?)`, captured from the
    /// commit before `replay_log` got its compared-up-to cursor (it zipped
    /// the whole stream from index 0 after every invocation):
    /// the cursor arithmetic must land on the same index, invocation,
    /// field set and missing side.
    #[test]
    fn divergence_goldens_from_the_whole_stream_differ() {
        use crate::harness::{record_chaos_storm, replay_chaos_storm, StormSpec};
        type Edit = fn(&mut RunLog, &[usize], &[usize]);
        type Golden<'a> = (usize, usize, &'a str, &'a [&'static str], bool, bool, bool);
        const PROFILE: &[&str] = &[
            "path/class/breaker/rounds",
            "r_c",
            "r_g",
            "predicted_power",
            "profile_energy",
        ];
        const SHIFTED: &[&str] = &["seq", "split_time", "split_energy"];
        #[rustfmt::skip]
        let cases: [(&str, Edit, Golden<'static>); 8] = [
            // A perturbed observation: the first step, a profile step in
            // the middle of BFS's profiling rounds, the last step.
            ("perturb first step", |l, _, _| assert!(l.perturb_step(0)),
                (0, 0, "BFS", PROFILE, false, true, true)),
            ("perturb a mid-log profile step", |l, _, _| assert!(l.perturb_step(101)),
                (101, 101, "BFS", PROFILE, false, true, true)),
            ("perturb last step", |l, _, _| assert!(l.perturb_step(181)),
                (181, 181, "MB", &["split_energy"], false, true, true)),
            // One decision removed / duplicated mid-log: every later
            // recorded seq is off by one, so the first shifted pair diverges.
            ("remove decision 10", |l, _, d| drop(l.events.remove(d[10])),
                (10, 10, "BFS", SHIFTED, false, true, true)),
            ("duplicate decision 10", |l, _, d| l.events.insert(d[10], l.events[d[10]].clone()),
                (11, 11, "BFS", SHIFTED, false, true, true)),
            // The same at the very end: only the length check can see it,
            // and a *complete* log gets no back-off — the live run emitted
            // an extra decision / ended early.
            ("remove last decision", |l, _, d| drop(l.events.remove(d[181])),
                (181, 181, "MB", &[], false, false, true)),
            ("duplicate last decision", |l, _, d| l.events.insert(d[181], l.events[d[181]].clone()),
                (182, 181, "MB", &[], false, true, false)),
            // A missing step: structural mismatch, free-run, decision diff.
            ("remove step 10", |l, s, _| drop(l.events.remove(s[10])),
                (10, 10, "BFS", &["split_time", "split_energy"], true, true, true)),
        ];

        let base = record_chaos_storm(&StormSpec::new(7)).log;
        let positions = |want: fn(&Event) -> bool| -> Vec<usize> {
            let hits = base.events.iter().enumerate().filter(|(_, e)| want(e));
            hits.map(|(i, _)| i).collect()
        };
        let steps = positions(|e| matches!(e, Event::Step(_)));
        let decisions = positions(|e| matches!(e, Event::Decision(_)));
        assert_eq!((steps.len(), decisions.len()), (182, 182));
        for (what, edit, want) in cases {
            let mut log = base.clone();
            edit(&mut log, &steps, &decisions);
            let outcome = replay_chaos_storm(&log).unwrap();
            let d = outcome.divergence.expect(what);
            let got: Golden<'_> = (
                d.decision_index,
                d.invocation,
                &d.label,
                &d.fields,
                d.structural.is_some(),
                d.recorded.is_some(),
                d.live.is_some(),
            );
            assert_eq!(got, want, "{what}");
        }
    }

    /// A recorded step the live run never consumes is a divergence, even
    /// when every decision still matches: invocation 1's split step is
    /// duplicated in a seed-7 storm.
    #[test]
    fn an_unconsumed_recorded_step_diverges() {
        use crate::harness::{record_chaos_storm, replay_chaos_storm, StormSpec};
        let mut log = record_chaos_storm(&StormSpec::new(7)).log;
        let events = &log.events;
        let starts: Vec<usize> = (0..events.len())
            .filter(|&i| matches!(events[i], Event::Invocation { .. }))
            .collect();
        let is_split = |i: &usize| match &events[*i] {
            Event::Step(step) => matches!(step.call, StepCall::Split { .. }),
            _ => false,
        };
        let split = (starts[1]..starts[2])
            .find(is_split)
            .expect("invocation 1 ran a split");
        log.events.insert(split, log.events[split].clone());

        let outcome = replay_chaos_storm(&log).unwrap();
        let d = outcome
            .divergence
            .expect("an unconsumed step replayed as identical");
        assert_eq!(d.invocation, 1);
        assert_eq!(
            d.structural.as_deref(),
            Some("1 recorded steps not consumed")
        );
    }

    #[test]
    fn split_alpha_must_match_bitwise() {
        let a = StepCall::Split { alpha: 0.5 };
        assert!(calls_match(&a, &StepCall::Split { alpha: 0.5 }));
        assert!(!calls_match(&a, &StepCall::Split { alpha: 0.5 + 1e-16 }));
    }
}
