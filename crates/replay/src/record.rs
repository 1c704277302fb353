//! Recording a live run into a [`RunLog`].
//!
//! Three taps, one ordered event stream:
//!
//! * [`Recorder`] implements [`TelemetrySink`], so attaching it to a
//!   scheduler ([`EasScheduler::set_telemetry`]) captures the
//!   [`DecisionRecord`] stream exactly as the scheduler emits it (the
//!   recorder assigns publication-order sequence numbers, like the ring
//!   sink it stands in for);
//! * [`RecordingScheduler`] wraps any [`Scheduler`] and interposes a
//!   [`RecordingBackend`] inside each `schedule()` call, logging every
//!   backend call the policy makes with the observation it saw —
//!   *post-chaos*, so a fault-injected run records the lies the scheduler
//!   was told, which is precisely what replay must re-feed;
//! * [`Recorder::derive`] wraps [`RunSeed`]'s derivation, writing each
//!   one into the log so a replay (or a human) can verify which seeds
//!   steered the run.
//!
//! Composition matters: put the injector *around* the recorder, i.e.
//! `run_workload(machine, w, &mut injector.around(&mut
//! RecordingScheduler::new(&mut eas, rec, "BS")))` — the chaos layer wraps
//! the real backend before the recorder taps it, so the recording backend
//! (which *is* the scheduler's view) sees corrupted observations and true
//! `remaining()`.
//!
//! [`EasScheduler::set_telemetry`]: easched_core::EasScheduler::set_telemetry

use crate::log::{
    AdmissionRecord, Event, RecordedStep, RunLog, StepCall, FORMAT_VERSION,
    FORMAT_VERSION_ADMISSION,
};
use easched_core::RunSeed;
use easched_runtime::{Backend, KernelId, Observation, Scheduler};
use easched_telemetry::{ControlEvent, DecisionRecord, TelemetrySink};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Accumulates a run's event stream; clone the `Arc` into every tap.
#[derive(Debug)]
pub struct Recorder {
    root: u64,
    platform_fp: u64,
    config_fp: u64,
    events: Mutex<Vec<Event>>,
    seq: AtomicU64,
}

impl Recorder {
    /// Starts a recording for a run rooted at `seed`, stamped with the
    /// platform and configuration fingerprints replay will verify
    /// (FNV-1a of the model text and the config's `Debug` form).
    pub fn new(seed: RunSeed, platform_fp: u64, config_fp: u64) -> Arc<Recorder> {
        Arc::new(Recorder {
            root: seed.root(),
            platform_fp,
            config_fp,
            events: Mutex::new(Vec::new()),
            seq: AtomicU64::new(0),
        })
    }

    fn push(&self, event: Event) {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(event);
    }

    /// Derives and logs a named seed (see [`RunSeed::derive`]).
    pub(crate) fn derive(&self, seed: RunSeed, domain: &str) -> u64 {
        let value = seed.derive(domain);
        self.push(Event::Derive {
            domain: domain.to_string(),
            index: None,
            seed: value,
        });
        value
    }

    /// Logs an already-known seed (e.g. a suite workload's baked-in
    /// generation seed) so the log carries the full seed inventory even
    /// for values that predate [`RunSeed`].
    pub(crate) fn note_seed(&self, domain: &str, value: u64) {
        self.push(Event::Derive {
            domain: domain.to_string(),
            index: None,
            seed: value,
        });
    }

    fn note_invocation(&self, kernel: KernelId, items: u64, profile_size: u64, label: &str) {
        self.push(Event::Invocation {
            kernel,
            items,
            profile_size,
            label: label.to_string(),
        });
    }

    fn note_step(&self, step: RecordedStep) {
        self.push(Event::Step(step));
    }

    /// Logs one admission-layer decision. Any admission event promotes
    /// the finished log to the v2 format; single-tenant recordings that
    /// never call this keep serializing as v1, byte-identically.
    pub(crate) fn note_admission(&self, record: AdmissionRecord) {
        self.push(Event::Admission(record));
    }

    /// The `(platform, config)` fingerprints this recording is stamped with.
    pub(crate) fn fingerprints(&self) -> (u64, u64) {
        (self.platform_fp, self.config_fp)
    }

    /// Decision records captured so far: the cursor a caller reads before
    /// a step whose records it will collect with
    /// [`decisions_since`](Recorder::decisions_since).
    pub(crate) fn decision_count(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// The decision records captured after the first `n`, in publication
    /// order, found by walking back from the newest event — the cost is
    /// the tail's, not the log's. The overload harness derives its
    /// simulated power samples and GPU-proxy debits from these — on both
    /// the record and the replay side, which is what makes the admission
    /// controller's inputs reproducible.
    pub(crate) fn decisions_since(&self, n: u64) -> Vec<DecisionRecord> {
        let events = self.events.lock().unwrap_or_else(PoisonError::into_inner);
        let mut tail: Vec<DecisionRecord> = events
            .iter()
            .rev()
            .filter_map(|e| match e {
                Event::Decision(r) => Some(*r),
                _ => None,
            })
            .take_while(|r| r.seq >= n)
            .collect();
        tail.reverse();
        tail
    }

    /// Events recorded so far.
    pub(crate) fn len(&self) -> usize {
        self.events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Snapshots the recording into a complete [`RunLog`] — v2 iff the
    /// stream carries admission events, v1 (the pre-tenancy format)
    /// otherwise.
    pub(crate) fn finish(&self) -> RunLog {
        let events = self
            .events
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let version = if events.iter().any(|e| matches!(e, Event::Admission(_))) {
            FORMAT_VERSION_ADMISSION
        } else {
            FORMAT_VERSION
        };
        RunLog {
            version,
            root: self.root,
            platform_fp: self.platform_fp,
            config_fp: self.config_fp,
            events,
            complete: true,
        }
    }
}

impl TelemetrySink for Recorder {
    fn record(&self, record: &DecisionRecord) {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        self.push(Event::Decision(DecisionRecord { seq, ..*record }));
    }

    fn control(&self, _event: &ControlEvent) {
        // Control events are derived state (DESIGN.md §12): a faithful
        // replay regenerates them from the same observations, so the log
        // does not carry them.
    }

    fn offset(&self) -> u64 {
        // The exemplar hook (DESIGN.md §14): the current event count is
        // exactly the prefix length `easched replay --at <offset>` cuts
        // at, so an SLO event stamped here replays to the breaching
        // slice.
        self.len() as u64
    }
}

/// Wraps a [`Scheduler`] so every invocation it handles is recorded.
#[derive(Debug)]
pub(crate) struct RecordingScheduler<'a, S: Scheduler> {
    inner: &'a mut S,
    recorder: Arc<Recorder>,
    label: String,
}

impl<'a, S: Scheduler> RecordingScheduler<'a, S> {
    /// Wraps `inner`; `label` tags the recorded invocations (workload
    /// abbreviation, human-facing only).
    pub(crate) fn new(inner: &'a mut S, recorder: Arc<Recorder>, label: &str) -> Self {
        RecordingScheduler {
            inner,
            recorder,
            label: label.to_string(),
        }
    }
}

impl<S: Scheduler> Scheduler for RecordingScheduler<'_, S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn schedule(&mut self, kernel: KernelId, backend: &mut dyn Backend) {
        self.recorder.note_invocation(
            kernel,
            backend.remaining(),
            backend.gpu_profile_size(),
            &self.label,
        );
        let mut tap = RecordingBackend {
            inner: backend,
            recorder: &self.recorder,
        };
        self.inner.schedule(kernel, &mut tap);
    }
}

/// A [`Backend`] decorator that logs every call and its observation.
pub(crate) struct RecordingBackend<'a> {
    inner: &'a mut dyn Backend,
    recorder: &'a Recorder,
}

impl std::fmt::Debug for RecordingBackend<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecordingBackend").finish_non_exhaustive()
    }
}

impl Backend for RecordingBackend<'_> {
    fn remaining(&self) -> u64 {
        self.inner.remaining()
    }

    fn gpu_profile_size(&self) -> u64 {
        self.inner.gpu_profile_size()
    }

    fn profile_step(&mut self, gpu_chunk: u64) -> Observation {
        let obs = self.inner.profile_step(gpu_chunk);
        self.recorder.note_step(RecordedStep {
            call: StepCall::Profile { chunk: gpu_chunk },
            obs,
            remaining_after: self.inner.remaining(),
        });
        obs
    }

    fn run_split(&mut self, alpha: f64) -> Observation {
        let obs = self.inner.run_split(alpha);
        self.recorder.note_step(RecordedStep {
            call: StepCall::Split { alpha },
            obs,
            remaining_after: self.inner.remaining(),
        });
        obs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easched_runtime::test_support::FakeBackend;
    use easched_runtime::FixedAlpha;

    #[test]
    fn records_invocation_steps_in_order() {
        let rec = Recorder::new(RunSeed::new(7), 1, 2);
        let mut fixed = FixedAlpha::new(0.5);
        let mut sched = RecordingScheduler::new(&mut fixed, Arc::clone(&rec), "T");
        let mut backend = FakeBackend::new(10_000, 1.0e6, 2.0e6);
        sched.schedule(9, &mut backend);

        let log = rec.finish();
        assert_eq!(log.root, 7);
        let invs = log.invocations();
        assert_eq!(invs.len(), 1);
        assert_eq!(invs[0].kernel, 9);
        assert_eq!(invs[0].items, 10_000);
        assert_eq!(invs[0].profile_size, 2240);
        assert_eq!(invs[0].label, "T");
        let steps: Vec<_> = invs[0].steps().collect();
        assert_eq!(steps.len(), 1);
        assert_eq!(steps[0].remaining_after, 0);
        assert!(matches!(
            steps[0].call,
            StepCall::Split { alpha } if alpha == 0.5
        ));
    }

    #[test]
    fn sink_assigns_sequence_numbers() {
        let rec = Recorder::new(RunSeed::default(), 0, 0);
        let sink: &dyn TelemetrySink = &*rec;
        sink.record(&DecisionRecord::default());
        sink.record(&DecisionRecord::default());
        assert_eq!(rec.decision_count(), 2);
        let tail = |n| {
            rec.decisions_since(n)
                .iter()
                .map(|d| d.seq)
                .collect::<Vec<_>>()
        };
        assert_eq!((tail(0), tail(1), tail(2)), (vec![0, 1], vec![1], vec![]));
        let seqs: Vec<u64> = rec.finish().decisions().iter().map(|d| d.seq).collect();
        assert_eq!(seqs, vec![0, 1]);
    }

    #[test]
    fn derivations_are_logged_and_correct() {
        let seed = RunSeed::new(1009);
        let rec = Recorder::new(seed, 0, 0);
        let a = rec.derive(seed, "chaos");
        rec.note_seed("workload/BS", 0xB7);
        assert_eq!(a, seed.derive("chaos"));
        let log = rec.finish();
        assert_eq!(log.events.len(), 2);
        assert!(matches!(
            &log.events[1],
            Event::Derive { domain, seed: 0xB7, .. } if domain == "workload/BS"
        ));
    }
}
