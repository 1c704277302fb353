//! The `RunLog`: a sealed, ordered record of everything a run's scheduler
//! observed and decided.
//!
//! A log captures the three nondeterminism seams of a run (DESIGN.md §12):
//! the root [`RunSeed`](easched_core::RunSeed) and every named derivation
//! taken from it, the per-invocation observation stream each backend
//! returned (post-chaos — what the scheduler *saw*, faults included), and
//! the ordered [`DecisionRecord`] stream the scheduler emitted. Feeding the
//! observations back through a
//! [`ReplayBackend`](crate::replay::ReplayBackend) re-executes the run's
//! decision logic byte-identically; diffing the re-run's records against
//! the recorded stream pinpoints the first divergence.
//!
//! The on-disk form follows the v3 table journal's idiom: a line-oriented
//! text format where every line carries a trailing `crc <hex>` FNV-1a seal
//! and floats are serialized as `{:016x}` bit patterns (byte-exact, NaN
//! included). Parsing truncates at the first unsealed line, so a log torn
//! mid-write by a crash loses only its tail; the `end` footer
//! distinguishes a truncated log from a complete one.
//!
//! Every sealed line stands alone, so parsing is chunked: the lines after
//! the header are cut into chunks of about 64 KiB, each parsed by one
//! pool job into its own slice of the event vector, and the chunks are
//! merged in index order. The parsed log does not depend on the worker
//! count (DESIGN.md §12).
//!
//! Every replay path reads two more things off a log here: the nesting
//! ([`RunLog::invocations`]) and the identity rule
//! ([`RunLog::first_difference`]).

use easched_kernels::in_index_order;
use easched_runtime::{unseal, Fields, LineWriter, Observation, Vfs, CHUNK_BYTES, MIN_SEALED_LINE};
use easched_sim::CounterSnapshot;
use easched_telemetry::DecisionRecord;
use std::borrow::Cow;
use std::io;
use std::ops::Range;
use std::path::Path;
use std::sync::Mutex;

/// Format version written in the header. Bump when the line grammar
/// changes; [`RunLog::from_text`] refuses versions it does not know, so a
/// future reader can dispatch on this field and keep old logs replayable
/// (ROADMAP: de-vendoring `rand` shifts future PRNG streams, but logs
/// carry their own observations, so old logs replay unchanged).
pub const FORMAT_VERSION: u32 = 1;

/// The version written when a log carries admission-layer events
/// (overload runs). Single-tenant recordings keep writing v1, so every
/// pre-tenancy log — committed fixtures included — stays byte-stable.
pub const FORMAT_VERSION_ADMISSION: u32 = 2;

/// The version written when a log carries fleet replication events
/// (`easched fleet` recordings, DESIGN.md §15). Non-fleet recordings keep
/// writing v1/v2, so every pre-fleet log — committed fixtures included —
/// stays byte-stable.
pub const FORMAT_VERSION_FLEET: u32 = 3;

/// Wire verdict marking the start of one drained request's execution in
/// the admission event stream (codes 0..=2 are the offer outcomes —
/// see [`AdmissionOutcome::code`](easched_runtime::AdmissionOutcome::code)).
/// The invocations recorded between
/// consecutive markers belong to the marked request, which is how replay
/// regroups a multi-invocation workload run under its admission ticket.
pub(crate) const VERDICT_EXEC: u8 = 3;

/// One backend call a scheduler made during an invocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepCall {
    /// A `profile_step(chunk)` call.
    Profile {
        /// The GPU chunk size the scheduler requested.
        chunk: u64,
    },
    /// A `run_split(alpha)` call.
    Split {
        /// The offload ratio the scheduler executed at.
        alpha: f64,
    },
}

/// One recorded backend call: what was asked, what came back, and how many
/// items were left afterwards.
///
/// `remaining_after` is recorded separately from the observation because a
/// fault-corrupted observation legitimately *lies* about item counts (e.g.
/// [`Fault::GpuHang`](easched_runtime::Fault) reports zero GPU items for a
/// chunk that really ran); the replay backend must track the truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecordedStep {
    /// The call the scheduler made.
    pub call: StepCall,
    /// The (possibly chaos-corrupted) observation the scheduler saw.
    pub obs: Observation,
    /// Ground-truth items remaining after the call.
    pub remaining_after: u64,
}

/// One admission-layer decision in an overloaded run (v2 logs only).
///
/// The admission controller is deterministic — replay re-runs it and
/// demands the identical stream — so these records are both a trace for
/// humans and a cross-check for the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionRecord {
    /// The admission tick the decision was made on.
    pub tick: u64,
    /// The tenant's registry index.
    pub tenant: u64,
    /// The brownout rung at decision time ([`BrownoutLevel::code`]).
    ///
    /// [`BrownoutLevel::code`]: easched_runtime::BrownoutLevel::code
    pub level: u8,
    /// What happened: 0 admit, 1 queue, 2 shed, 3 execution-start marker
    /// (delimits the invocation group of a drained request).
    pub verdict: u8,
    /// Verdict argument: the ticket (admit/queue/exec), the queue
    /// position packed with the ticket, or the shed retry-after seconds
    /// as `f64` bits.
    pub arg: u64,
}

/// One entry in a run's ordered event stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A named seed derivation taken from the root (`index` for
    /// per-invocation streams within a domain).
    Derive {
        /// Derivation domain, e.g. `"chaos"` or `"workload/BS"`.
        domain: String,
        /// Stream index within the domain, if indexed.
        index: Option<u64>,
        /// The derived seed value.
        seed: u64,
    },
    /// The start of one kernel invocation.
    Invocation {
        /// Kernel id the scheduler was invoked with.
        kernel: u64,
        /// Items in the invocation.
        items: u64,
        /// The backend's `gpu_profile_size()` (replay must answer the
        /// same value, or the scheduler would pick different chunks).
        profile_size: u64,
        /// Human label (workload abbreviation), informational only.
        label: String,
    },
    /// One backend call within the current invocation.
    Step(RecordedStep),
    /// The telemetry record the scheduler emitted for the current
    /// invocation.
    Decision(DecisionRecord),
    /// One admission-layer decision (overload recordings; forces v2).
    Admission(AdmissionRecord),
    /// One fleet replication event (fleet recordings; forces v3).
    ///
    /// The payload is an opaque single line owned by `easched-fleet` —
    /// the log stores and seals it verbatim, and fleet replay parses it
    /// back with the fleet crate's own grammar. Keeping the grammar out
    /// of this crate means the replication protocol can evolve without a
    /// run-log version bump, exactly like decision records own their
    /// word encoding.
    Fleet {
        /// The fleet event line, verbatim (no newlines).
        line: String,
    },
}

/// A complete (or torn-tail-truncated) recorded run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunLog {
    /// The format version this log serializes as ([`FORMAT_VERSION`] for
    /// single-tenant runs, [`FORMAT_VERSION_ADMISSION`] when the stream
    /// carries admission events).
    pub version: u32,
    /// The run's root seed (`RunSeed::root()`).
    pub root: u64,
    /// FNV-1a fingerprint of the power model text the scheduler ran with.
    pub platform_fp: u64,
    /// FNV-1a fingerprint of the scheduler configuration (`Debug` form).
    pub config_fp: u64,
    /// The ordered event stream.
    pub events: Vec<Event>,
    /// Whether the `end` footer was present and consistent. A `false`
    /// here means the log is a *prefix* of a run — the tail was torn
    /// (crash mid-record), or [`slice_at`](RunLog::slice_at) cut an
    /// admission tick short. Every replay path backs a prefix off to its
    /// last complete invocation, replays that, and lets the re-run go past
    /// the cut ([`first_difference`](RunLog::first_difference)); at the CLI
    /// that is a warning, the prefix replayed, and exit 0.
    pub complete: bool,
}

/// Why a byte stream failed to parse as a [`RunLog`] at all (tail
/// truncation is *not* an error — see [`RunLog::complete`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogError {
    /// The header magic line is missing or unsealed.
    NotARunLog,
    /// The header declares a format version this reader does not know.
    UnknownVersion(u32),
    /// A sealed-and-valid header line is malformed (corruption that FNV
    /// happened to miss, or a writer bug).
    MalformedHeader(String),
}

impl std::fmt::Display for LogError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogError::NotARunLog => write!(f, "not an easched run log"),
            LogError::UnknownVersion(v) => write!(f, "unknown run-log format version {v}"),
            LogError::MalformedHeader(line) => write!(f, "malformed run-log header: {line:?}"),
        }
    }
}

impl std::error::Error for LogError {}

impl RunLog {
    /// Serializes the log, every line sealed.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        // The one field that is glued to its tag (`v1`, no space).
        let magic = format!("easched-runlog v{}", self.version);
        LineWriter::begin(&mut out, &magic).seal();
        for (tag, value) in [
            ("root", self.root),
            ("platform", self.platform_fp),
            ("config", self.config_fp),
        ] {
            LineWriter::begin(&mut out, tag).hex16(value).seal();
        }
        for event in &self.events {
            event_line(&mut out, event).seal();
        }
        LineWriter::begin(&mut out, "end")
            .dec(self.events.len() as u64)
            .seal();
        out
    }

    /// Writes the serialized log through a [`Vfs`] — the storage-chaos
    /// seam (DESIGN.md §16). With [`StdFs`](easched_runtime::StdFs)
    /// this is `fs::write` plus an fsync; under a chaos fs the write can
    /// fail, which is the point.
    pub(crate) fn save_with(&self, vfs: &dyn Vfs, path: &Path) -> io::Result<()> {
        vfs.write(path, self.to_text().as_bytes())?;
        let mut file = vfs.open_write(path)?;
        file.sync_all()
    }

    /// Saves the log under fault injection: retries up
    /// to `attempts` times, advancing the chaos fs's op counter past the
    /// fault window each round. Returns how many attempts failed before
    /// one stuck, or the last error once the budget is spent — the
    /// CLI-level twin of the store's degrade-and-re-arm loop.
    pub fn save_with_retries(&self, vfs: &dyn Vfs, path: &Path, attempts: u32) -> io::Result<u32> {
        let mut failed = 0;
        loop {
            match self.save_with(vfs, path) {
                Ok(()) => return Ok(failed),
                Err(e) if failed + 1 >= attempts => return Err(e),
                Err(_) => failed += 1,
            }
        }
    }

    /// Parses a log, tolerating a torn tail: the first line whose seal or
    /// grammar fails truncates the event stream there (and clears
    /// [`complete`](RunLog::complete), so replay holds the log to prefix
    /// identity only). Only a broken *header* is a hard
    /// error — without root and fingerprints there is nothing to replay.
    ///
    /// The lines after the header are parsed in chunks of about 64 KiB,
    /// one pool job each ([`in_index_order`]), straight into disjoint
    /// slices of the one `events` vector. The result does not depend on
    /// the worker count.
    pub fn from_text(text: &str) -> Result<RunLog, LogError> {
        let mut rest = text;
        let magic = next_sealed(&mut rest).ok_or(LogError::NotARunLog)?;
        let version = magic
            .strip_prefix("easched-runlog v")
            .and_then(|v| v.parse::<u32>().ok())
            .ok_or(LogError::NotARunLog)?;
        if version != FORMAT_VERSION
            && version != FORMAT_VERSION_ADMISSION
            && version != FORMAT_VERSION_FLEET
        {
            return Err(LogError::UnknownVersion(version));
        }
        let mut header = |tag: &str| -> Result<u64, LogError> {
            let line = next_sealed(&mut rest).ok_or(LogError::NotARunLog)?;
            line.strip_prefix(tag)
                .and_then(|rest| Fields::parse(rest, Fields::hex))
                .ok_or_else(|| LogError::MalformedHeader(line.to_string()))
        };
        let root = header("root ")?;
        let platform_fp = header("platform ")?;
        let config_fp = header("config ")?;

        // Every chunk gets a slot per line it could turn into an event;
        // slots are sized by the text, never by a count it declares.
        let chunks = chunks(rest);
        let bounds: Vec<usize> = chunks.iter().map(|chunk| slot_bound(chunk)).collect();
        let mut events = Vec::new();
        events.resize_with(bounds.iter().sum(), || Event::Fleet {
            line: String::new(),
        });
        let mut free = events.as_mut_slice();
        let slots: Vec<Mutex<&mut [Event]>> = bounds
            .iter()
            .map(|&bound| {
                let (mine, others) = std::mem::take(&mut free).split_at_mut(bound);
                free = others;
                Mutex::new(mine)
            })
            .collect();
        let parsed = in_index_order(chunks.len(), |i| {
            parse_chunk(
                chunks[i],
                &mut slots[i].lock().expect("a slice has one job"),
            )
        });
        drop(slots);

        // A chunk that did not stop filled every slot it had, so the
        // events run on unbroken up to the first chunk that stopped.
        let (mut len, mut complete) = (0, false);
        for ((written, stop), bound) in parsed.into_iter().zip(bounds) {
            len += written;
            match stop {
                None => assert_eq!(written, bound, "a chunk read to its end fills its slots"),
                Some(stop) => {
                    complete = stop == Stop::End(Some(len));
                    break;
                }
            }
        }
        events.truncate(len);
        Ok(RunLog {
            version,
            root,
            platform_fp,
            config_fp,
            events,
            complete,
        })
    }

    /// The recorded decision stream, in emission order.
    pub fn decisions(&self) -> Vec<DecisionRecord> {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::Decision(r) => Some(*r),
                _ => None,
            })
            .collect()
    }

    /// The recorded admission-layer decisions, in order (empty for v1
    /// logs).
    pub(crate) fn admissions(&self) -> Vec<AdmissionRecord> {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::Admission(r) => Some(*r),
                _ => None,
            })
            .collect()
    }

    /// The recorded fleet replication lines, in order (empty for v1/v2
    /// logs). The fleet crate owns the line grammar.
    pub fn fleet_lines(&self) -> Vec<&str> {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::Fleet { line } => Some(line.as_str()),
                _ => None,
            })
            .collect()
    }

    /// The log's nesting, in one walk: each recorded invocation with the
    /// span of the event stream it owns (its steps, read in place, are the
    /// replay backend's feed) and the drained request it belongs to.
    /// Bisection's groups, the overload replay's per-request groups and
    /// the back-off to the last complete invocation are all read off this.
    pub fn invocations(&self) -> Vec<LoggedInvocation<'_>> {
        nest(&self.events)
    }

    /// Cuts the log to its first `offset` events — the prefix an SLO
    /// exemplar names (`easched replay --at <offset>`) — then backs the
    /// cut off to the last complete invocation boundary, dropping a
    /// trailing invocation whose [`DecisionRecord`] the prefix does not
    /// contain. Every invocation the slice carries replays. A v1 replay
    /// consumes exactly those invocations, so a v1 slice is a complete log
    /// in its own right; a v2 run is replayed in whole admission ticks, so
    /// cutting one leaves a prefix ([`complete`](RunLog::complete) is
    /// `false`) that the replay reproduces line for line before running
    /// past the cut — which is also what a torn tail gets.
    pub fn slice_at(&self, offset: u64) -> RunLog {
        let take = (offset as usize).min(self.events.len());
        let prefix = &self.events[..take];
        let decided = |owned: &[Event]| owned.iter().any(|e| matches!(e, Event::Decision(_)));
        let keep = match nest(prefix).last() {
            Some(last) if !decided(last.events()) => last.span.start,
            _ => take,
        };
        RunLog {
            events: prefix[..keep].to_vec(),
            complete: self.version == FORMAT_VERSION
                || (self.complete && keep == self.events.len()),
            ..*self
        }
    }

    /// The log a replay feeds from: `self` when complete, otherwise the
    /// prefix backed off exactly as [`slice_at`](RunLog::slice_at) would.
    pub(crate) fn replayable(&self) -> Cow<'_, RunLog> {
        if self.complete {
            Cow::Borrowed(self)
        } else {
            Cow::Owned(self.slice_at(self.events.len() as u64))
        }
    }

    /// The replay identity rule (DESIGN.md §12), stated once for every
    /// log version: `replayed` reproduces every recorded event, in order,
    /// under the same root and fingerprints; a complete log admits
    /// nothing more, a prefix log may be run past its cut. Events compare
    /// as their serialized lines (bitwise, NaN included). Returns the
    /// first violation, human-readable, or `None` when the replay is
    /// identical.
    pub fn first_difference(&self, replayed: &RunLog) -> Option<String> {
        let header = |log: &RunLog| (log.root, log.platform_fp, log.config_fp);
        if header(self) != header(replayed) {
            return Some(format!(
                "header (root, platform, config): recorded {:x?} / replayed {:x?}",
                header(self),
                header(replayed)
            ));
        }
        let (mut mine, mut theirs) = (String::new(), String::new());
        let mut replayed = replayed.events.iter();
        for (i, event) in self.events.iter().enumerate() {
            event_body(&mut mine, event);
            match replayed.next() {
                Some(got) => event_body(&mut theirs, got),
                None => "<replay ended>".clone_into(&mut theirs),
            }
            if mine != theirs {
                return Some(format!(
                    "event {i}: recorded `{mine}` / replayed `{theirs}`"
                ));
            }
        }
        match replayed.next() {
            Some(extra) if self.complete => {
                event_body(&mut theirs, extra);
                Some(format!(
                    "event {}: recorded log ends / replayed `{theirs}`",
                    self.events.len()
                ))
            }
            _ => None,
        }
    }

    /// Corrupts the `index`-th recorded step (counting across the whole
    /// run) by scaling its observed energy ×1.5 — an intentional
    /// divergence for exercising the bisect reporter. Returns `false` if
    /// the log has fewer steps.
    pub fn perturb_step(&mut self, index: usize) -> bool {
        let mut seen = 0;
        for event in &mut self.events {
            if let Event::Step(step) = event {
                if seen == index {
                    step.obs.energy_joules = step.obs.energy_joules * 1.5 + 1.0;
                    return true;
                }
                seen += 1;
            }
        }
        false
    }
}

/// One invocation as recorded in a log (borrowed view).
#[derive(Debug, Clone, PartialEq)]
pub struct LoggedInvocation<'a> {
    /// Kernel id.
    pub(crate) kernel: u64,
    /// Items in the invocation.
    pub(crate) items: u64,
    /// Recorded `gpu_profile_size()`.
    pub(crate) profile_size: u64,
    /// Workload label.
    pub(crate) label: &'a str,
    /// The event stream the invocation was read from; its own events are
    /// [`span`](LoggedInvocation::span) of it.
    stream: &'a [Event],
    /// The events this invocation owns: from its `Invocation` event up to
    /// the next one (or the end of the stream) — steps, decisions and
    /// whatever was logged in between.
    pub(crate) span: Range<usize>,
    /// Which drained request it ran under: the ordinal of the last
    /// [`VERDICT_EXEC`] marker before it (`None` ahead of the first
    /// marker — every invocation of a v1 log).
    pub(crate) request: Option<usize>,
}

impl<'a> LoggedInvocation<'a> {
    /// The events this invocation owns, read in place.
    pub(crate) fn events(&self) -> &'a [Event] {
        &self.stream[self.span.clone()]
    }

    /// Its backend calls, in order: the `Step` events of its span, read in
    /// place, skipping whatever else is logged between them.
    #[cfg(test)]
    pub(crate) fn steps(&self) -> impl Iterator<Item = &'a RecordedStep> {
        self.events().iter().filter_map(Event::step)
    }
}

impl Event {
    /// The recorded step, if this is a `Step` event.
    pub(crate) fn step(&self) -> Option<&RecordedStep> {
        match self {
            Event::Step(step) => Some(step),
            _ => None,
        }
    }
}

/// The one nesting walk behind [`RunLog::invocations`].
fn nest(events: &[Event]) -> Vec<LoggedInvocation<'_>> {
    let mut out: Vec<LoggedInvocation<'_>> = Vec::new();
    let mut request = None;
    for (at, event) in events.iter().enumerate() {
        match event {
            Event::Invocation {
                kernel,
                items,
                profile_size,
                label,
            } => {
                if let Some(open) = out.last_mut() {
                    open.span.end = at;
                }
                out.push(LoggedInvocation {
                    kernel: *kernel,
                    items: *items,
                    profile_size: *profile_size,
                    label,
                    stream: events,
                    span: at..events.len(),
                    request,
                });
            }
            Event::Admission(r) if r.verdict == VERDICT_EXEC => {
                request = Some(request.map_or(0, |k| k + 1));
            }
            Event::Derive { .. }
            | Event::Step(_)
            | Event::Decision(_)
            | Event::Admission(_)
            | Event::Fleet { .. } => {}
        }
    }
    out
}

/// Starts `event`'s line at the end of `out`: [`RunLog::to_text`] seals
/// it, [`RunLog::first_difference`] compares the bare body.
fn event_line<'a>(out: &'a mut String, event: &Event) -> LineWriter<'a> {
    match event {
        Event::Derive {
            domain,
            index,
            seed,
        } => {
            let line = LineWriter::begin(out, "derive").name(domain);
            match *index {
                Some(i) => line.dec(i),
                None => line.word("-"),
            }
            .hex16(*seed)
        }
        Event::Invocation {
            kernel,
            items,
            profile_size,
            label,
        } => LineWriter::begin(out, "invocation")
            .hex16(*kernel)
            .dec(*items)
            .dec(*profile_size)
            .name(label),
        Event::Step(step) => {
            let line = LineWriter::begin(out, "step");
            let line = match step.call {
                StepCall::Profile { chunk } => line.word("profile").dec(chunk),
                StepCall::Split { alpha } => line.word("split").bits(alpha),
            };
            obs_words(line.dec(step.remaining_after), &step.obs)
        }
        Event::Decision(record) => {
            let line = LineWriter::begin(out, "decision").dec(record.seq);
            record.encode().into_iter().fold(line, LineWriter::hex16)
        }
        Event::Admission(r) => LineWriter::begin(out, "admission")
            .dec(r.tick)
            .dec(r.tenant)
            .dec(u64::from(r.level))
            .dec(u64::from(r.verdict))
            .hex16(r.arg),
        // The payload is verbatim (it may itself carry an inner seal);
        // only newlines would break the line grammar — each becomes a
        // space — and the fleet writer never produces them.
        Event::Fleet { line } => line
            .split('\n')
            .fold(LineWriter::begin(out, "fleet"), LineWriter::word),
    }
}

/// `event`'s bare line, replacing whatever `out` held.
fn event_body(out: &mut String, event: &Event) {
    out.clear();
    let _unsealed = event_line(out, event);
}

fn obs_words<'a>(line: LineWriter<'a>, obs: &Observation) -> LineWriter<'a> {
    line.bits(obs.elapsed)
        .dec(obs.cpu_items)
        .dec(obs.gpu_items)
        .bits(obs.cpu_time)
        .bits(obs.gpu_time)
        .bits(obs.energy_joules)
        .bits(obs.counters.instructions)
        .bits(obs.counters.loads)
        .bits(obs.counters.l3_misses)
}

/// The next line of `rest`, cut as `str::lines` cuts it, and unsealed.
fn next_sealed<'a>(rest: &mut &'a str) -> Option<&'a str> {
    if rest.is_empty() {
        return None;
    }
    let (line, tail) = rest.split_once('\n').unwrap_or((rest, ""));
    *rest = tail;
    unseal(line)
}

/// `body` cut at line starts into chunks of about [`CHUNK_BYTES`].
fn chunks(body: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut rest = body;
    while !rest.is_empty() {
        let newline = rest
            .as_bytes()
            .get(CHUNK_BYTES - 1..)
            .and_then(|tail| tail.iter().position(|&b| b == b'\n'));
        let (chunk, tail) = rest.split_at(newline.map_or(rest.len(), |at| CHUNK_BYTES + at));
        out.push(chunk);
        rest = tail;
    }
    out
}

/// The most events `chunk` can hold: one per line, and no more than
/// lines of the shortest sealed length would fit in its bytes.
fn slot_bound(chunk: &str) -> usize {
    // Counted in blocks of 255 bytes, whose counts fit a `u8`: the
    // compiler vectorises that over byte lanes, ≈10× a `usize` count.
    let newlines: usize = chunk
        .as_bytes()
        .chunks(255)
        .map(|block| usize::from(block.iter().fold(0u8, |n, &b| n + u8::from(b == b'\n'))))
        .sum();
    let lines = newlines + usize::from(!chunk.ends_with('\n'));
    lines.min(chunk.len() / MIN_SEALED_LINE)
}

/// Why a chunk's parse stopped before its last line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stop {
    /// An unsealed or unparseable line: the torn tail starts there.
    Torn,
    /// The `end` footer, with the event count it declares.
    End(Option<usize>),
}

/// Parses `chunk`'s lines into `slots`, in order, until one of them
/// stops the log. Returns how many events were written, and the stop.
fn parse_chunk(chunk: &str, slots: &mut [Event]) -> (usize, Option<Stop>) {
    let mut written = 0;
    for line in chunk.lines() {
        let Some(body) = unseal(line) else {
            return (written, Some(Stop::Torn));
        };
        if let Some(count) = body.strip_prefix("end ") {
            return (written, Some(Stop::End(Fields::parse(count, Fields::dec))));
        }
        match parse_event(body) {
            Some(event) => slots[written] = event,
            None => return (written, Some(Stop::Torn)),
        }
        written += 1;
    }
    (written, None)
}

fn parse_event(body: &str) -> Option<Event> {
    // Fleet lines are opaque to this crate and may contain arbitrary
    // spacing — take the rest of the line verbatim instead of word-
    // splitting it.
    if let Some(line) = body.strip_prefix("fleet ") {
        return Some(Event::Fleet {
            line: line.to_string(),
        });
    }
    Fields::parse(body, |fields| {
        Some(match fields.word()? {
            "derive" => Event::Derive {
                domain: fields.word()?.to_string(),
                index: match fields.word()? {
                    "-" => None,
                    index => Some(Fields::parse(index, Fields::dec)?),
                },
                seed: fields.hex()?,
            },
            "invocation" => Event::Invocation {
                kernel: fields.hex()?,
                items: fields.dec()?,
                profile_size: fields.dec()?,
                label: fields.word()?.to_string(),
            },
            "step" => Event::Step(RecordedStep {
                call: match fields.word()? {
                    "profile" => StepCall::Profile {
                        chunk: fields.dec()?,
                    },
                    "split" => StepCall::Split {
                        alpha: fields.bits()?,
                    },
                    _ => return None,
                },
                remaining_after: fields.dec()?,
                obs: parse_obs(fields)?,
            }),
            "decision" => {
                let seq = fields.dec()?;
                let mut words = [0u64; DecisionRecord::WORDS];
                for w in &mut words {
                    *w = fields.hex()?;
                }
                Event::Decision(DecisionRecord::decode(seq, &words))
            }
            "admission" => Event::Admission(AdmissionRecord {
                tick: fields.dec()?,
                tenant: fields.dec()?,
                level: fields.dec()?,
                verdict: fields.dec()?,
                arg: fields.hex()?,
            }),
            _ => return None,
        })
    })
}

fn parse_obs(fields: &mut Fields<'_>) -> Option<Observation> {
    Some(Observation {
        elapsed: fields.bits()?,
        cpu_items: fields.dec()?,
        gpu_items: fields.dec()?,
        cpu_time: fields.bits()?,
        gpu_time: fields.bits()?,
        energy_joules: fields.bits()?,
        counters: CounterSnapshot {
            instructions: fields.bits()?,
            loads: fields.bits()?,
            l3_misses: fields.bits()?,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`RunLog::from_text`] as it stood before it parsed in chunks: one
    /// serial loop over the lines, each event pushed as it is read.
    fn parse_serially(text: &str) -> Result<RunLog, LogError> {
        let mut lines = text.lines();
        let magic = lines.next().and_then(unseal).ok_or(LogError::NotARunLog)?;
        let version = magic
            .strip_prefix("easched-runlog v")
            .and_then(|v| v.parse::<u32>().ok())
            .ok_or(LogError::NotARunLog)?;
        if version != FORMAT_VERSION
            && version != FORMAT_VERSION_ADMISSION
            && version != FORMAT_VERSION_FLEET
        {
            return Err(LogError::UnknownVersion(version));
        }
        let mut header = |tag: &str| -> Result<u64, LogError> {
            let line = lines.next().and_then(unseal).ok_or(LogError::NotARunLog)?;
            line.strip_prefix(tag)
                .and_then(|rest| Fields::parse(rest, Fields::hex))
                .ok_or_else(|| LogError::MalformedHeader(line.to_string()))
        };
        let root = header("root ")?;
        let platform_fp = header("platform ")?;
        let config_fp = header("config ")?;

        let mut events = Vec::new();
        let mut complete = false;
        for line in lines {
            let Some(body) = unseal(line) else { break };
            if let Some(count) = body.strip_prefix("end ") {
                complete = Fields::parse(count, Fields::dec) == Some(events.len());
                break;
            }
            match parse_event(body) {
                Some(event) => events.push(event),
                None => break,
            }
        }
        Ok(RunLog {
            version,
            root,
            platform_fp,
            config_fp,
            events,
            complete,
        })
    }

    /// `body` as one sealed line.
    fn sealed(body: &str) -> String {
        let mut line = String::new();
        LineWriter::begin(&mut line, body).seal();
        line
    }

    /// Holds the chunked parse of `text` to the serial one: the same
    /// error, or the same bytes, completeness and event count.
    fn assert_parses_as_serially(text: &str, what: &str) {
        let (chunked, serial) = (RunLog::from_text(text), parse_serially(text));
        match (&chunked, &serial) {
            (Ok(chunked), Ok(serial)) => {
                assert_eq!(chunked.complete, serial.complete, "{what}: complete");
                assert_eq!(chunked.events.len(), serial.events.len(), "{what}: events");
                assert!(chunked.to_text() == serial.to_text(), "{what}: bytes");
            }
            _ => assert_eq!(chunked, serial, "{what}"),
        }
    }

    #[test]
    fn chunked_parse_equals_the_serial_loop_under_every_mutation() {
        let storm = crate::harness::StormSpec {
            rounds: 8,
            ..crate::harness::StormSpec::new(7)
        };
        let text = crate::harness::record_chaos_storm(&storm).log.to_text();
        let lines: Vec<&str> = text.split_inclusive('\n').collect();
        assert_parses_as_serially(&text, "intact");
        assert!(RunLog::from_text(&text).unwrap().complete);

        // The line index where each chunk after the first begins.
        let header: usize = lines[..4].iter().map(|l| l.len()).sum();
        let mut cuts = Vec::new();
        let mut at = 4;
        for chunk in chunks(&text[header..]) {
            at += chunk.lines().count();
            cuts.push(at);
        }
        cuts.pop();
        assert!(
            cuts.len() >= 4,
            "an 8-round storm spans {} chunks",
            cuts.len() + 1
        );

        // Both neighbours of every cut, then seeded positions, 200 in all.
        let mut positions: Vec<usize> = cuts.iter().flat_map(|&c| [c - 1, c]).collect();
        let seed = easched_core::RunSeed::new(7);
        positions.extend(
            (0..200 - positions.len() as u64)
                .map(|i| (seed.derive_indexed("mutation", i) % lines.len() as u64) as usize),
        );
        let spliced = |at: usize, line: &str| -> String {
            let mut out = lines[..at].concat();
            out.push_str(line);
            out.push_str(&lines[at..].concat());
            out
        };
        for &p in &positions {
            let mut flipped = lines[p].as_bytes().to_vec();
            flipped[lines[p].len() / 3] ^= 1;
            let flipped = String::from_utf8(flipped).unwrap();
            let mutants = [
                ("flipped body byte", {
                    let mut out = lines[..p].concat();
                    out.push_str(&flipped);
                    out.push_str(&lines[p + 1..].concat());
                    out
                }),
                ("inserted blank line", spliced(p, "\n")),
                ("deleted newline", {
                    let mut out = lines[..=p].concat();
                    out.pop();
                    out.push_str(&lines[p + 1..].concat());
                    out
                }),
                // Its count is right: the lines after it are ignored.
                (
                    "mid-log end",
                    spliced(p, &sealed(&format!("end {}", p.saturating_sub(4)))),
                ),
            ];
            for (what, mutant) in &mutants {
                assert_parses_as_serially(mutant, &format!("{what} at line {p}"));
            }
        }

        let last = lines.len() - 1;
        let events = last - 4;
        let body = lines[..last].concat();
        for (what, mutant) in [
            ("CRLF line endings", text.replace('\n', "\r\n")),
            ("no final newline", text.trim_end_matches('\n').to_string()),
            (
                "end count one short",
                body.clone() + &sealed(&format!("end {}", events - 1)),
            ),
            (
                "end count one over",
                body.clone() + &sealed(&format!("end {}", events + 1)),
            ),
            ("end count unreadable", body.clone() + &sealed("end many")),
            ("no end line", body.clone()),
            ("text after end", text.clone() + lines[5] + "junk\n"),
        ] {
            assert_parses_as_serially(&mutant, what);
        }
    }

    #[test]
    fn slots_are_bounded_by_the_text_not_by_its_counts() {
        let header = RunLog {
            events: Vec::new(),
            ..sample_log()
        }
        .to_text();
        let header = header
            .lines()
            .take(4)
            .map(|l| format!("{l}\n"))
            .collect::<String>();
        let text = header + &"\n".repeat(1 << 20);
        let log = RunLog::from_text(&text).unwrap();
        assert!(log.events.is_empty() && !log.complete);
        assert!(
            log.events.capacity() <= text.len() / MIN_SEALED_LINE,
            "{} slots for {} bytes",
            log.events.capacity(),
            text.len()
        );
    }

    fn sample_log() -> RunLog {
        let obs = Observation {
            elapsed: 0.25,
            cpu_items: 100,
            gpu_items: 2240,
            cpu_time: 0.2,
            gpu_time: 0.25,
            energy_joules: 12.5,
            counters: CounterSnapshot {
                instructions: 1.0e9,
                loads: 2.0e8,
                l3_misses: 3.0e6,
            },
        };
        RunLog {
            version: FORMAT_VERSION,
            root: 0xDEAD_BEEF,
            platform_fp: 0x1234,
            config_fp: 0x5678,
            events: vec![
                Event::Derive {
                    domain: "chaos".into(),
                    index: None,
                    seed: 42,
                },
                Event::Invocation {
                    kernel: 7,
                    items: 10_000,
                    profile_size: 2240,
                    label: "BS".into(),
                },
                Event::Step(RecordedStep {
                    call: StepCall::Profile { chunk: 2240 },
                    obs,
                    remaining_after: 7660,
                }),
                Event::Step(RecordedStep {
                    call: StepCall::Split { alpha: 0.65 },
                    obs: Observation {
                        elapsed: f64::NAN,
                        ..obs
                    },
                    remaining_after: 0,
                }),
                Event::Decision(DecisionRecord {
                    seq: 0,
                    kernel: 7,
                    alpha: 0.65,
                    items: 10_000,
                    ..Default::default()
                }),
            ],
            complete: true,
        }
    }

    #[test]
    fn round_trips_byte_identically() {
        let log = sample_log();
        let text = log.to_text();
        let back = RunLog::from_text(&text).unwrap();
        // NaN fields break PartialEq, so compare the re-serialization.
        assert_eq!(back.to_text(), text);
        assert!(back.complete);
        assert_eq!(back.events.len(), log.events.len());
    }

    #[test]
    fn save_with_retries_rides_out_injected_faults() {
        use easched_runtime::{ChaosFs, ChaosFsPlan, StorageFault, TickClock};
        use std::sync::Arc;

        let dir = std::env::temp_dir().join(format!("runlog-chaos-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.log");
        let log = sample_log();
        // Attempt 1 consumes ops 0 (create) and 1 (write_all, faulted);
        // attempt 2 runs ops 2..=5 (create, write_all, open_write,
        // sync_all — faulted); attempt 3 must land on ops 6..=9.
        let plan = ChaosFsPlan::at(1, StorageFault::Enospc).then(5, StorageFault::FsyncFail);
        let vfs = ChaosFs::new(11, plan, Arc::new(TickClock::new()));
        let failed = log.save_with_retries(&vfs, &path, 8).unwrap();
        assert_eq!(failed, 2, "both scheduled faults cost one attempt each");
        let back = RunLog::from_text(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(back.complete);
        assert_eq!(back.to_text(), log.to_text());
        // A budget smaller than the fault window surfaces the error.
        let stubborn = ChaosFs::new(11, ChaosFsPlan::storm(1000), Arc::new(TickClock::new()));
        assert!(log.save_with_retries(&stubborn, &path, 3).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_truncates_but_parses() {
        let text = sample_log().to_text();
        // Tear mid-way through the last event line (before the footer).
        let keep = text.lines().count() - 2;
        let torn: String = text
            .lines()
            .take(keep)
            .map(|l| format!("{l}\n"))
            .chain(std::iter::once("decision 1 fff".to_string()))
            .collect();
        let log = RunLog::from_text(&torn).unwrap();
        assert!(!log.complete);
        assert_eq!(log.events.len(), keep - 4, "header is 4 lines");
        assert_eq!(log.root, 0xDEAD_BEEF);
    }

    #[test]
    fn corrupt_header_is_a_hard_error() {
        assert_eq!(RunLog::from_text("garbage"), Err(LogError::NotARunLog));
        let mut text = sample_log().to_text();
        text = text.replacen("root", "r00t", 1);
        assert!(matches!(
            RunLog::from_text(&text),
            Err(LogError::NotARunLog)
        ));
    }

    #[test]
    fn unknown_version_is_refused() {
        let mut out = String::new();
        LineWriter::begin(&mut out, "easched-runlog v99").seal();
        assert_eq!(RunLog::from_text(&out), Err(LogError::UnknownVersion(99)));
    }

    #[test]
    fn invocations_group_steps() {
        let log = sample_log();
        let invs = log.invocations();
        assert_eq!(invs.len(), 1);
        assert_eq!(invs[0].kernel, 7);
        let steps: Vec<_> = invs[0].steps().collect();
        assert_eq!(steps.len(), 2);
        assert_eq!(steps[0].call, StepCall::Profile { chunk: 2240 });
    }

    #[test]
    fn perturb_changes_exactly_one_step() {
        let mut log = sample_log();
        let before = log.to_text();
        assert!(log.perturb_step(1));
        assert!(!log.perturb_step(9));
        let after = log.to_text();
        let changed: Vec<_> = before
            .lines()
            .zip(after.lines())
            .filter(|(a, b)| a != b)
            .collect();
        assert_eq!(changed.len(), 1);
        assert!(changed[0].0.starts_with("step split"));
    }

    #[test]
    fn decisions_extracts_the_stream() {
        let d = sample_log().decisions();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].kernel, 7);
    }

    #[test]
    fn fleet_events_round_trip_verbatim_as_v3() {
        let mut log = sample_log();
        log.version = FORMAT_VERSION_FLEET;
        // Fleet payloads may carry an inner seal and arbitrary spacing —
        // both must survive verbatim.
        log.events.push(Event::Fleet {
            line: "spec nodes 3 seed 0007".to_string(),
        });
        log.events.push(Event::Fleet {
            line: "frame 0 1 ent 2 crc 00000000deadbeef".to_string(),
        });
        let text = log.to_text();
        let back = RunLog::from_text(&text).unwrap();
        assert_eq!(back.version, FORMAT_VERSION_FLEET);
        assert!(back.complete);
        assert_eq!(
            back.fleet_lines(),
            vec![
                "spec nodes 3 seed 0007",
                "frame 0 1 ent 2 crc 00000000deadbeef"
            ]
        );
        assert_eq!(back.to_text(), text);
        // Fleet events never leak into the invocation feed.
        assert_eq!(back.invocations().len(), log.invocations().len());
    }

    #[test]
    fn slice_at_trims_to_complete_invocation_boundaries() {
        let log = sample_log();
        // Cutting mid-invocation (after the Invocation and one Step, but
        // before the Decision) backs off past the whole invocation.
        let slice = log.slice_at(3);
        assert_eq!(slice.events.len(), 1, "only the derive survives");
        assert!(matches!(slice.events[0], Event::Derive { .. }));
        assert!(slice.complete);
        assert_eq!(slice.root, log.root);
        // Cutting at or past the Decision keeps the invocation whole.
        let full = log.slice_at(5);
        assert_eq!(full.events.len(), 5);
        assert_eq!(full.invocations().len(), 1);
        assert_eq!(full.decisions().len(), 1);
        // An offset past the end is the identity slice.
        assert_eq!(log.slice_at(99).events.len(), log.events.len());
        // The slice round-trips through text like any complete log.
        let back = RunLog::from_text(&full.to_text()).unwrap();
        assert!(back.complete);
        assert_eq!(back.events.len(), 5);
    }

    #[test]
    fn groups_partition_the_stream() {
        let recorded = crate::harness::record_chaos_storm(&crate::harness::StormSpec::new(23));
        let events = &recorded.log.events;
        let groups = recorded.log.invocations();
        let preamble = &events[..groups[0].span.start];
        let total: usize = preamble.len() + groups.iter().map(|g| g.span.len()).sum::<usize>();
        assert_eq!(total, recorded.log.events.len());
        assert!(preamble.iter().all(|e| matches!(e, Event::Derive { .. })));
        assert!(groups
            .iter()
            .all(|g| matches!(events[g.span.start], Event::Invocation { .. })));
        // Added with the move: spans tile the stream in order, and a v1
        // log has no requests.
        for pair in groups.windows(2) {
            assert_eq!(pair[0].span.end, pair[1].span.start);
        }
        assert_eq!(groups.last().unwrap().span.end, events.len());
        assert!(groups.iter().all(|g| g.request.is_none()));
    }

    #[test]
    fn invocations_follow_their_execution_marker() {
        let exec = |ticket| {
            Event::Admission(AdmissionRecord {
                tick: 0,
                tenant: 1,
                level: 0,
                verdict: VERDICT_EXEC,
                arg: ticket,
            })
        };
        let sample = sample_log();
        let invocation = &sample.events[1..];
        let mut log = sample.clone();
        log.version = FORMAT_VERSION_ADMISSION;
        // [derive, inv(no request), exec 0, exec 1, inv, inv]
        log.events.push(exec(0));
        log.events.push(exec(1));
        log.events.extend_from_slice(invocation);
        log.events.extend_from_slice(invocation);
        let requests: Vec<_> = log.invocations().iter().map(|i| i.request).collect();
        assert_eq!(requests, vec![None, Some(1), Some(1)]);
    }

    #[test]
    fn identity_is_prefix_identity_for_a_prefix_and_equality_for_a_whole_log() {
        let whole = sample_log();
        assert_eq!(
            whole.first_difference(&whole),
            None,
            "NaN steps compare bitwise"
        );

        // Recorded ⊑ replayed: a prefix log may be run past its cut ...
        let mut prefix = whole.clone();
        prefix.events.truncate(3);
        prefix.complete = false;
        assert_eq!(prefix.first_difference(&whole), None);
        // ... a complete log admits nothing more ...
        prefix.complete = true;
        let extra = prefix.first_difference(&whole).expect("extra event");
        assert!(extra.starts_with("event 3: recorded log ends"), "{extra}");
        // ... and every recorded event must be reproduced, in order.
        let short = whole.first_difference(&prefix).expect("replay ended early");
        assert!(
            short.starts_with("event 3:") && short.contains("<replay ended>"),
            "{short}"
        );
        let mut perturbed = whole.clone();
        assert!(perturbed.perturb_step(1));
        let diff = whole
            .first_difference(&perturbed)
            .expect("one step differs");
        assert!(diff.starts_with("event 3: recorded `step split"), "{diff}");
        // The header is part of the identity.
        let mut foreign = whole.clone();
        foreign.platform_fp ^= 1;
        assert!(whole
            .first_difference(&foreign)
            .unwrap()
            .starts_with("header"));
    }

    #[test]
    fn a_torn_tail_gets_the_back_off_a_slice_gets() {
        let mut torn = sample_log();
        torn.events.truncate(3); // derive, invocation, one step — no decision
        torn.complete = false;
        let fed = torn.replayable();
        assert_eq!(
            fed.events.len(),
            1,
            "the undecided invocation is not replayed"
        );
        assert_eq!(fed.events, torn.slice_at(3).events);
        // A complete log is fed as it stands, undecided tail included.
        let whole = RunLog {
            complete: true,
            ..torn.clone()
        };
        assert_eq!(whole.replayable().events.len(), 3);
        // A v2 slice that cut something is a prefix; the identity slice of
        // a complete v2 log is still a whole run.
        let v2 = RunLog {
            version: FORMAT_VERSION_ADMISSION,
            ..sample_log()
        };
        assert!(!v2.slice_at(3).complete);
        assert!(v2.slice_at(99).complete);
    }

    #[test]
    fn admission_events_round_trip_as_v2() {
        let mut log = sample_log();
        log.version = FORMAT_VERSION_ADMISSION;
        let rec = AdmissionRecord {
            tick: 3,
            tenant: 5,
            level: 1,
            verdict: 2,
            arg: 2.0f64.to_bits(),
        };
        log.events.insert(1, Event::Admission(rec));
        let text = log.to_text();
        assert!(text.starts_with("easched-runlog v2 "));
        let back = RunLog::from_text(&text).unwrap();
        assert_eq!(back.version, FORMAT_VERSION_ADMISSION);
        assert_eq!(back.to_text(), text);
        assert_eq!(back.admissions(), vec![rec]);
        // v1 logs report no admissions.
        assert!(sample_log().admissions().is_empty());
    }
}
