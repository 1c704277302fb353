//! Power-model and kernel-table persistence: every byte either one puts
//! on disk is formatted and parsed here, and nowhere else, through the
//! workspace's one line codec — each line is written by a [`LineWriter`]
//! and read by [`Fields`].
//!
//! # The model file
//!
//! The characterization step is "computed once for each processor"
//! (abstract): on a real deployment the fitted model is saved and reloaded
//! on every subsequent run. The format is a small line-oriented text file —
//! stable, diffable, and dependency-free — that ends in a `checksum` line,
//! an FNV-1a 64-bit digest over every byte before it:
//!
//! ```text
//! easched-power-model v2
//! platform haswell-desktop
//! curve 0 rmse 1.69e-1 samples 21 coeffs 3.255e1 -9.5e-1 ...
//! ... (8 curve lines, class-index order)
//! checksum 8d3f2a915c04be71
//! ```
//!
//! # The kernel table: sealed lines only
//!
//! The learned kernel table G is written as sealed lines (`<body> crc <16
//! hex digits>`, one FNV-1a digest per line), in the two files of the
//! crash-safe store in [`journal`](crate::journal), which holds the
//! recovery rules and the degrade state machine but no grammar. The
//! journal is a header, then one line per mutation; a `put` carries the
//! kernel's *absolute* state, so replay is idempotent and a lost record
//! costs only that one update:
//!
//! ```text
//! easched-table-journal v1 gen 4 crc 9f0c21d55ab3e847
//! put 7 alpha 6.5e-1 weight 5e4 seen 12 tainted 0 crc 1c22b06f9d4e7a35
//! taint 7 crc e5b91f20c6a4d713
//! breaker 1 crc 07d4f8a2c91b63e5
//! ```
//!
//! The snapshot is that journal compacted: the same header, one `breaker`
//! line, one `put` per kernel in strictly ascending kernel id, and an
//! `end` counting the records between the header and itself:
//!
//! ```text
//! easched-table-journal v1 gen 4 crc 9f0c21d55ab3e847
//! breaker 0 crc 5be2a8c1d7f09e34
//! put 7 alpha 6.5e-1 weight 5e4 seen 12 tainted 0 crc 1c22b06f9d4e7a35
//! end 2 crc 0b6e29f4a3d1c857
//! ```
//!
//! [`table_to_text`]/[`table_from_text`] write and read that snapshot at
//! generation 0 with the breaker closed, so a long-running deployment can
//! warm-start its offload ratios, taint included, instead of re-profiling
//! every kernel after a restart. Floats are written in decimal
//! ([`LineWriter::float`], `{:e}`: the shortest text that reads back to
//! the same value), not as the bit patterns the run log uses.
//!
//! # Integrity (DESIGN.md §9)
//!
//! Both table files are read by one scanner, which stops at the first
//! line that is torn, fails its digest or fails the grammar. The journal
//! keeps the prefix before that line. A snapshot must be whole: a valid
//! header, the breaker line, ascending ids (so a duplicated, dropped or
//! swapped line is refused) and a matching `end` with nothing after it;
//! anything else is [`ModelParseError::BadHeader`] or
//! [`ModelParseError::BadLine`]. A model file truncated by a crashed
//! writer or corrupted at rest fails [`ModelParseError::MissingChecksum`]
//! / [`ModelParseError::ChecksumMismatch`]. Loading never panics. Files
//! under older headers — a v1 model without a checksum, and the
//! `checksum`-trailed table files that preceded the sealed snapshot — are
//! refused as [`ModelParseError::BadHeader`]; the table is a learned
//! cache, and the scheduler re-profiles what it no longer holds.

use crate::classify::WorkloadClass;
use crate::health::BreakerState;
use crate::kernel_table::{AlphaStat, KernelTable};
use crate::power_model::{PowerCurve, PowerModel};
use easched_num::Polynomial;
pub use easched_runtime::sealed::fnv1a64;
use easched_runtime::sealed::{unseal, Fields, LineWriter};
use easched_runtime::KernelId;
use std::error::Error;
use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

/// Format header of the model file.
const MODEL_HEADER: &str = "easched-power-model v2";

/// Error parsing a persisted power model.
#[derive(Debug)]
pub enum ModelParseError {
    /// Missing or unknown header line.
    BadHeader(String),
    /// A line could not be parsed; carries the 1-based line number and a
    /// description.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The file lacks some class's curve; carries how many it holds.
    WrongCurveCount(usize),
    /// A file whose trailing `checksum` line is absent or unreadable —
    /// typically a write truncated by a crash.
    MissingChecksum,
    /// A file whose bytes do not hash to the recorded checksum —
    /// corruption at rest, or a hand edit without updating the digest.
    ChecksumMismatch {
        /// Digest computed over the file contents.
        computed: u64,
        /// Digest the file claims.
        stored: u64,
    },
    /// Underlying I/O failure.
    Io(io::Error),
}

impl fmt::Display for ModelParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelParseError::BadHeader(h) => write!(f, "unrecognized header {h:?}"),
            ModelParseError::BadLine { line, message } => {
                write!(f, "line {line}: {message}")
            }
            ModelParseError::WrongCurveCount(n) => {
                write!(f, "expected 8 curves, found {n}")
            }
            ModelParseError::MissingChecksum => {
                write!(f, "v2 file has no trailing checksum line (truncated?)")
            }
            ModelParseError::ChecksumMismatch { computed, stored } => write!(
                f,
                "checksum mismatch: contents hash to {computed:016x}, file says {stored:016x}"
            ),
            ModelParseError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl Error for ModelParseError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ModelParseError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ModelParseError {
    fn from(e: io::Error) -> Self {
        ModelParseError::Io(e)
    }
}

/// Appends the trailing checksum line over everything written so far.
fn seal(mut body: String) -> String {
    let digest = fnv1a64(body.as_bytes());
    LineWriter::begin(&mut body, "checksum").hex16(digest).end();
    body
}

/// Accepts only files whose first line is exactly `header` and whose
/// trailing `checksum` line digests every preceding byte, and returns the
/// body the record walk reads (header line included, checksum line
/// stripped). Any other first line is [`BadHeader`].
///
/// [`BadHeader`]: ModelParseError::BadHeader
fn verify_sealed<'a>(text: &'a str, header: &str) -> Result<&'a str, ModelParseError> {
    let found = text.lines().next().unwrap_or("").trim();
    if found != header {
        return Err(ModelParseError::BadHeader(found.to_string()));
    }
    // The digest covers everything up to and including the newline that
    // precedes the checksum line, so take the *last* occurrence: any
    // spoofed earlier "checksum" text is just covered bytes. Records after
    // the checksum line are not covered by the digest, and `Fields::parse`
    // refuses them rather than trust them.
    let at = text
        .rfind("\nchecksum ")
        .ok_or(ModelParseError::MissingChecksum)?;
    let (covered, trailer) = text.split_at(at + 1);
    let stored = Fields::parse(trailer, |f| {
        f.tag("checksum")?;
        f.hex()
    })
    .ok_or(ModelParseError::MissingChecksum)?;
    let computed = fnv1a64(covered.as_bytes());
    if computed != stored {
        return Err(ModelParseError::ChecksumMismatch { computed, stored });
    }
    Ok(covered)
}

/// Reads the records of a verified body — every line after the header
/// that is neither blank nor a `#` comment — with `read`, which gets a
/// cursor over each record's words. A record `read` gives up on, leaves a
/// word of, or answers with a message is a
/// [`BadLine`](ModelParseError::BadLine) at its 1-based line number.
fn read_records<'a>(
    body: &'a str,
    mut read: impl FnMut(&mut Fields<'a>) -> Option<Result<(), String>>,
) -> Result<(), ModelParseError> {
    for (idx, raw) in body.lines().enumerate().skip(1) {
        let record = raw.trim();
        if record.is_empty() || record.starts_with('#') {
            continue;
        }
        Fields::parse(record, &mut read)
            .unwrap_or_else(|| Err(format!("unreadable record {record:?}")))
            .map_err(|message| ModelParseError::BadLine {
                line: idx + 1,
                message,
            })?;
    }
    Ok(())
}

/// Serializes a model to the text format (trailing checksum line).
///
/// # Examples
///
/// ```
/// use easched_core::persist::{model_to_text, model_from_text};
/// use easched_core::{characterize, CharacterizationConfig};
/// use easched_sim::Platform;
///
/// let model = characterize(
///     &Platform::haswell_desktop(),
///     &CharacterizationConfig { alpha_steps: 10, ..Default::default() },
/// );
/// let text = model_to_text(&model);
/// let back = model_from_text(&text)?;
/// assert_eq!(back.platform_name(), model.platform_name());
/// # Ok::<(), easched_core::persist::ModelParseError>(())
/// ```
pub fn model_to_text(model: &PowerModel) -> String {
    let mut out = String::new();
    LineWriter::begin(&mut out, MODEL_HEADER).end();
    LineWriter::begin(&mut out, "platform")
        .word(model.platform_name())
        .end();
    for curve in model.curves() {
        let line = LineWriter::begin(&mut out, "curve")
            .dec(curve.class().index() as u64)
            .word("rmse")
            .float(curve.rmse())
            .word("samples")
            .dec(curve.samples() as u64)
            .word("coeffs");
        let coeffs = curve.poly().coeffs();
        coeffs.iter().fold(line, |line, &c| line.float(c)).end();
    }
    seal(out)
}

/// Parses the text format, checksum verified.
///
/// # Errors
///
/// [`ModelParseError`] on malformed, truncated, or corrupted input
/// (including a class listed twice). Never panics, whatever the bytes.
pub fn model_from_text(text: &str) -> Result<PowerModel, ModelParseError> {
    let body = verify_sealed(text, MODEL_HEADER)?;
    let mut platform = String::new();
    let mut curves: Vec<PowerCurve> = Vec::new();
    read_records(body, |f| {
        match f.word()? {
            "platform" => platform = read_platform(f)?,
            "curve" => {
                let curve = read_curve(f)?;
                let class = curve.class().index();
                if curves.iter().any(|c| c.class().index() == class) {
                    return Some(Err(format!("class {class} listed twice")));
                }
                curves.push(curve);
            }
            _ => return None,
        }
        Some(Ok(()))
    })?;
    // No class twice, so eight curves are one per class, as
    // `PowerModel::new` requires.
    if curves.len() != 8 {
        return Err(ModelParseError::WrongCurveCount(curves.len()));
    }
    Ok(PowerModel::new(platform, curves))
}

/// A `platform` record's name: the rest of its words, single-spaced.
fn read_platform(f: &mut Fields<'_>) -> Option<String> {
    let words: Vec<&str> = std::iter::from_fn(|| f.word()).collect();
    (!words.is_empty()).then(|| words.join(" "))
}

/// A `curve` record's fields: class index, `rmse`, `samples`, and at
/// least one coefficient.
fn read_curve(f: &mut Fields<'_>) -> Option<PowerCurve> {
    let index = f.dec().filter(|&index: &usize| index < 8)?;
    f.tag("rmse")?;
    let rmse = f.float()?;
    f.tag("samples")?;
    let samples = f.dec()?;
    f.tag("coeffs")?;
    let coeffs: Vec<f64> = std::iter::from_fn(|| f.float()).collect();
    let class = WorkloadClass::from_index(index);
    (!coeffs.is_empty()).then(|| PowerCurve::new(class, Polynomial::new(coeffs), rmse, samples))
}

/// Saves a model to a file.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn save_model(model: &PowerModel, path: impl AsRef<Path>) -> io::Result<()> {
    fs::write(path, model_to_text(model))
}

/// Loads a model from a file.
///
/// # Errors
///
/// [`ModelParseError`] on I/O or format problems.
pub fn load_model(path: impl AsRef<Path>) -> Result<PowerModel, ModelParseError> {
    model_from_text(&fs::read_to_string(path)?)
}

/// Serializes a learned kernel table — taint included — as a snapshot at
/// generation 0 with the breaker closed. Lines are in kernel-id order, so
/// equal tables serialize identically.
///
/// # Examples
///
/// ```
/// use easched_core::persist::{table_from_text, table_to_text};
/// use easched_core::{Accumulation, KernelTable};
///
/// let table = KernelTable::new();
/// table.accumulate(7, 0.7, 50_000.0, Accumulation::SampleWeighted);
/// let back = table_from_text(&table_to_text(&table))?;
/// assert_eq!(back.lookup(7), Some(0.7));
/// # Ok::<(), easched_core::persist::ModelParseError>(())
/// ```
pub fn table_to_text(table: &KernelTable) -> String {
    snapshot_to_text(table, BreakerState::Closed, 0)
}

/// Parses a snapshot's kernel table, taint included; its generation and
/// breaker state are dropped.
///
/// # Errors
///
/// [`ModelParseError::BadHeader`] or [`ModelParseError::BadLine`] on
/// anything but a whole snapshot (a duplicated kernel id, which would
/// silently drop learned weight, and a weight no accumulation could
/// recover from included). Never panics, whatever the bytes.
pub fn table_from_text(text: &str) -> Result<KernelTable, ModelParseError> {
    snapshot_from_text(text.as_bytes()).map(|(table, _, _)| table)
}

/// Serializes the store's snapshot: the journal of `generation`
/// compacted to its header, one `breaker` line, one `put` per kernel in
/// ascending id, and the `end` that counts them.
pub(crate) fn snapshot_to_text(
    table: &KernelTable,
    breaker: BreakerState,
    generation: u64,
) -> String {
    let mut out = journal_header(generation);
    JournalRecord::Breaker(breaker).write(&mut out);
    let entries = table.snapshot_with_taint();
    for &(kernel, stat, tainted) in &entries {
        JournalRecord::Put {
            kernel,
            stat,
            tainted,
        }
        .write(&mut out);
    }
    LineWriter::begin(&mut out, "end")
        .dec(entries.len() as u64 + 1)
        .seal();
    out
}

/// Reads a snapshot into the table, the breaker state and the
/// generation: the journal scan, held to the compacted form
/// [`snapshot_to_text`] writes and replayed onto an empty table.
pub(crate) fn snapshot_from_text(
    bytes: &[u8],
) -> Result<(KernelTable, BreakerState, u64), ModelParseError> {
    let scan = scan_journal(bytes);
    let Some(generation) = scan.gen else {
        let header = String::from_utf8_lossy(bytes);
        let header = header.lines().next().unwrap_or("").trim();
        return Err(ModelParseError::BadHeader(header.to_string()));
    };
    let mut last = None;
    let misplaced = scan
        .records
        .iter()
        .enumerate()
        .position(|(at, record)| match *record {
            JournalRecord::Breaker(_) => at > 0,
            JournalRecord::Put { kernel, .. } => at == 0 || last.replace(kernel) >= Some(kernel),
            JournalRecord::Taint(_) => true,
        });
    // 1-based: the header is line 1, record `at` is line `at + 2`, and the
    // scan stopped on the line after its last record.
    let stop = scan.records.len() + 2;
    let (line, message) = match misplaced {
        Some(at) => (
            at + 2,
            "record out of order: one breaker, then puts by ascending id",
        ),
        None if scan.records.is_empty() => (stop, "no breaker line"),
        None if scan.end != Some(scan.records.len() as u64) => {
            (stop, "not an `end` counting the records before it")
        }
        None if scan.discarded > 1 => (stop + 1, "a line after `end`"),
        None => {
            let table = KernelTable::new();
            let breaker = replay(&table, scan.records, false).unwrap_or(BreakerState::Closed);
            return Ok((table, breaker, generation));
        }
    };
    let message = message.to_string();
    Err(ModelParseError::BadLine { line, message })
}

/// One journal record: a table mutation or a breaker transition. `Put`
/// carries the kernel's *absolute* state (not a delta), so replay is
/// idempotent and a lost record costs only that one update.
#[derive(Debug, Clone, Copy)]
pub(crate) enum JournalRecord {
    Put {
        kernel: KernelId,
        stat: AlphaStat,
        tainted: bool,
    },
    Taint(KernelId),
    Breaker(BreakerState),
}

impl JournalRecord {
    /// The record as one sealed journal line.
    pub(crate) fn to_line(self) -> String {
        let mut line = String::new();
        self.write(&mut line);
        line
    }

    /// Appends the record to `out` as one sealed line: `put <id> alpha
    /// <a> weight <w> seen <n> tainted <0|1>`, `taint <id>` or `breaker
    /// <code>`.
    fn write(self, out: &mut String) {
        match self {
            JournalRecord::Put {
                kernel,
                stat,
                tainted,
            } => LineWriter::begin(out, "put")
                .dec(kernel)
                .word("alpha")
                .float(stat.alpha)
                .word("weight")
                .float(stat.weight)
                .word("seen")
                .dec(stat.invocations_seen)
                .word("tainted")
                .dec(u64::from(tainted))
                .seal(),
            JournalRecord::Taint(kernel) => LineWriter::begin(out, "taint").dec(kernel).seal(),
            JournalRecord::Breaker(state) => LineWriter::begin(out, "breaker")
                .dec(state.code().into())
                .seal(),
        }
    }

    /// Parses one verified record body. A `put` is strict: α in [0, 1],
    /// a `tainted` of exactly `0` or `1`, and a weight that is finite and
    /// non-negative — after `inf` the kernel's next
    /// [`KernelTable::accumulate`] computes α = NaN, after `NaN` none can
    /// ever move its α again.
    fn parse(body: &str) -> Option<JournalRecord> {
        Fields::parse(body, |f| match f.word()? {
            "put" => {
                let kernel = f.dec()?;
                f.tag("alpha")?;
                let alpha = f.float().filter(|alpha| (0.0..=1.0).contains(alpha))?;
                f.tag("weight")?;
                let weight = f.float().filter(|w| w.is_finite() && *w >= 0.0)?;
                f.tag("seen")?;
                let invocations_seen = f.dec()?;
                f.tag("tainted")?;
                let tainted = match f.word()? {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                };
                let stat = AlphaStat {
                    alpha,
                    weight,
                    invocations_seen,
                };
                Some(JournalRecord::Put {
                    kernel,
                    stat,
                    tainted,
                })
            }
            "taint" => f.dec().map(JournalRecord::Taint),
            "breaker" => BreakerState::from_code(f.dec()?).map(JournalRecord::Breaker),
            _ => None,
        })
    }
}

/// Replays journal records onto `table` in order and returns the last
/// breaker transition among them, if any: the one restore routine under
/// the snapshot read, recovery at open and the unread-journal merge. With
/// `only_missing`, puts land only for kernels the table does not hold;
/// taints always apply.
pub(crate) fn replay(
    table: &KernelTable,
    records: Vec<JournalRecord>,
    only_missing: bool,
) -> Option<BreakerState> {
    let mut breaker = None;
    for record in records {
        match record {
            JournalRecord::Put { kernel, .. } if only_missing && table.stat(kernel).is_some() => {}
            JournalRecord::Put {
                kernel,
                stat,
                tainted,
            } => table.restore(kernel, stat, tainted),
            JournalRecord::Taint(kernel) => table.taint(kernel),
            JournalRecord::Breaker(state) => breaker = Some(state),
        }
    }
    breaker
}

/// The sealed header line that opens a journal of `generation`:
/// `easched-table-journal v1 gen <generation>`.
pub(crate) fn journal_header(generation: u64) -> String {
    let mut line = String::new();
    LineWriter::begin(&mut line, "easched-table-journal")
        .word("v1")
        .word("gen")
        .dec(generation)
        .seal();
    line
}

/// The generation a verified journal header body names.
fn journal_generation(body: &str) -> Option<u64> {
    Fields::parse(body, |f| {
        f.tag("easched-table-journal")?;
        f.tag("v1")?;
        f.tag("gen")?;
        f.dec()
    })
}

/// Result of scanning a journal or snapshot file: the records of the
/// valid prefix and where that prefix ends.
pub(crate) struct JournalScan {
    /// Header generation, if the header line validated.
    pub(crate) gen: Option<u64>,
    pub(crate) records: Vec<JournalRecord>,
    /// The count of the sealed `end` line the scan stopped on, if it
    /// stopped on one. No journal holds one; it closes a snapshot.
    pub(crate) end: Option<u64>,
    /// Byte length of the valid prefix (header + intact records).
    pub(crate) valid_len: usize,
    /// Lines abandoned from the first one that is not a record on.
    pub(crate) discarded: u64,
}

/// Walks a journal or a snapshot line by line, stopping at the first
/// line that is torn (no trailing newline), fails its digest, fails to
/// parse, or is an `end`.
pub(crate) fn scan_journal(bytes: &[u8]) -> JournalScan {
    let text = String::from_utf8_lossy(bytes);
    let mut scan = JournalScan {
        gen: None,
        records: Vec::new(),
        end: None,
        valid_len: 0,
        discarded: 0,
    };
    let mut lines = text.split_inclusive('\n');
    for line in &mut lines {
        let parsed = line.strip_suffix('\n').and_then(unseal).and_then(|body| {
            if scan.gen.is_none() {
                scan.gen = Some(journal_generation(body)?);
            } else if let Some(record) = JournalRecord::parse(body) {
                scan.records.push(record);
            } else {
                scan.end = Fields::parse(body, |f| f.tag("end").and_then(|()| f.dec()));
                return None;
            }
            Some(())
        });
        if parsed.is_none() {
            scan.discarded += 1;
            break;
        }
        scan.valid_len += line.len();
    }
    scan.discarded += lines.count() as u64;
    scan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::characterize::{characterize, CharacterizationConfig};
    use easched_sim::Platform;

    fn sample_model() -> PowerModel {
        let mut p = Platform::haswell_desktop();
        p.pcu.measurement_noise = 0.0;
        characterize(
            &p,
            &CharacterizationConfig {
                alpha_steps: 10,
                ..Default::default()
            },
        )
    }

    #[test]
    fn roundtrip_is_lossless() {
        let model = sample_model();
        let back = model_from_text(&model_to_text(&model)).unwrap();
        assert_eq!(back.platform_name(), model.platform_name());
        for class in WorkloadClass::all() {
            for i in 0..=20 {
                let a = i as f64 / 20.0;
                assert_eq!(
                    back.predict(class, a),
                    model.predict(class, a),
                    "{class:?} α={a}"
                );
            }
            assert_eq!(back.curve(class).rmse(), model.curve(class).rmse());
            assert_eq!(back.curve(class).samples(), model.curve(class).samples());
        }
    }

    #[test]
    fn file_roundtrip() {
        let model = sample_model();
        let path = std::env::temp_dir().join(format!("easched_model_{}.txt", std::process::id()));
        save_model(&model, &path).unwrap();
        let back = load_model(&path).unwrap();
        assert_eq!(back, model_from_text(&model_to_text(&model)).unwrap());
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn rejects_bad_header() {
        let err = model_from_text("easched-power-model v99\n").unwrap_err();
        assert!(matches!(err, ModelParseError::BadHeader(_)));
        assert!(model_from_text("").is_err());
    }

    #[test]
    fn v1_headers_are_refused() {
        // A v1 file was the v2 body under the old header, with no
        // checksum line; it is an unknown header now.
        let v2 = model_to_text(&sample_model());
        let v1 =
            v2[..v2.rfind("checksum").unwrap()].replace(MODEL_HEADER, "easched-power-model v1");
        let err = model_from_text(&v1).unwrap_err();
        assert!(matches!(&err, ModelParseError::BadHeader(h) if h == "easched-power-model v1"));
        assert_eq!(
            err.to_string(),
            "unrecognized header \"easched-power-model v1\""
        );

        // So are the table files that preceded the sealed snapshot: v1,
        // and the parent's checksum-trailed v2 table and v3 snapshot.
        let table = learned_table();
        let t2 = parent::table_to_text(&table);
        let t1 = t2[..t2.rfind("checksum").unwrap()]
            .replace("easched-kernel-table v2", "easched-kernel-table v1");
        let t3 = parent::snapshot_to_text(&table, BreakerState::Open, 4);
        for (text, version) in [(t1, "v1"), (t2, "v2"), (t3, "v3")] {
            let err = table_from_text(&text).unwrap_err();
            let header = format!("easched-kernel-table {version}");
            assert!(
                matches!(&err, ModelParseError::BadHeader(h) if *h == header),
                "{err}"
            );
        }
    }

    #[test]
    fn rejects_missing_curves() {
        let text =
            format!("{MODEL_HEADER}\nplatform x\ncurve 0 rmse 0.1 samples 3 coeffs 1.0 2.0\n");
        let err = model_from_text(&seal(text)).unwrap_err();
        assert!(matches!(err, ModelParseError::WrongCurveCount(1)));
    }

    /// A class listed twice is refused at the line that repeats it, not
    /// counted: eight curves of one class used to read "expected 8
    /// curves, found 8".
    #[test]
    fn rejects_duplicate_class() {
        let mut text = "easched-power-model v2\nplatform x\n".to_string();
        for _ in 0..8 {
            text.push_str("curve 3 rmse 0.1 samples 3 coeffs 1.0\n");
        }
        let err = model_from_text(&seal(text)).unwrap_err();
        assert!(
            matches!(err, ModelParseError::BadLine { line: 4, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("class 3 listed twice"), "{err}");
    }

    #[test]
    fn rejects_malformed_fields() {
        for bad in [
            "curve x rmse 0.1 samples 3 coeffs 1.0",
            "curve 9 rmse 0.1 samples 3 coeffs 1.0",
            "curve 0 rmse abc samples 3 coeffs 1.0",
            "curve 0 rmse 0.1 samples 3 coeffs",
            "curve 0 rmse 0.1 samples 3 coeffs 1.0 x",
            "curve 0 rmse 0.1 coeffs 1.0",
            "platform",
            "mystery 1 2 3",
        ] {
            let text = format!("{MODEL_HEADER}\nplatform x\n{bad}\n");
            let err = model_from_text(&seal(text)).unwrap_err();
            assert!(
                matches!(err, ModelParseError::BadLine { line: 3, .. }),
                "{bad}: {err}"
            );
            assert!(err.to_string().contains(bad), "{err}");
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let model = sample_model();
        let mut text = model_to_text(&model);
        // Editing the body invalidates the digest, so re-seal afterwards —
        // the well-behaved way to hand-annotate a file.
        text.truncate(text.rfind("checksum").unwrap());
        text = text.replace("platform", "# leading comment\n\nplatform");
        assert!(model_from_text(&seal(text)).is_ok());
    }

    #[test]
    fn tampered_body_fails_checksum() {
        let text = model_to_text(&sample_model());
        // Flip one digit somewhere inside a coefficient.
        let pos = text.find("coeffs").unwrap() + 8;
        let mut bytes = text.into_bytes();
        bytes[pos] = if bytes[pos] == b'5' { b'6' } else { b'5' };
        let err = model_from_text(std::str::from_utf8(&bytes).unwrap()).unwrap_err();
        assert!(
            matches!(err, ModelParseError::ChecksumMismatch { .. }),
            "{err}"
        );
        assert!(err.to_string().contains("checksum mismatch"));
    }

    #[test]
    fn truncated_file_is_rejected() {
        let text = model_to_text(&sample_model());
        // A crashed writer loses the tail: the checksum line goes first.
        let cut = text.rfind("checksum").unwrap();
        let err = model_from_text(&text[..cut]).unwrap_err();
        assert!(matches!(err, ModelParseError::MissingChecksum), "{err}");
        // Mid-file truncation keeps a stale digest → mismatch.
        let mid = text.len() / 2;
        let cut_mid = format!("{}checksum 0123456789abcdef\n", &text[..mid]);
        assert!(model_from_text(&cut_mid).is_err());
    }

    #[test]
    fn records_after_checksum_are_rejected() {
        let mut text = model_to_text(&sample_model());
        text.push_str("curve 2 rmse 0 samples 0 coeffs 1\n");
        let err = model_from_text(&text).unwrap_err();
        assert!(matches!(err, ModelParseError::MissingChecksum), "{err}");
    }

    #[test]
    fn checksum_line_is_well_formed() {
        let text = model_to_text(&sample_model());
        let last = text.lines().last().unwrap();
        let hex = last.strip_prefix("checksum ").unwrap();
        assert_eq!(hex.len(), 16, "{last}");
        u64::from_str_radix(hex, 16).unwrap();
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = load_model("/definitely/not/here.txt").unwrap_err();
        assert!(matches!(err, ModelParseError::Io(_)));
        use std::error::Error as _;
        assert!(err.source().is_some());
    }

    use crate::eas::Accumulation;

    fn learned_table() -> KernelTable {
        let t = KernelTable::new();
        // Awkward floats on purpose: accumulation quotients that don't
        // round-trip through short decimal forms.
        t.accumulate(7, 2.0 / 3.0, 50_000.0, Accumulation::SampleWeighted);
        t.accumulate(7, 0.1, 12_345.0, Accumulation::SampleWeighted);
        t.accumulate(1, 0.0, 17.0, Accumulation::SampleWeighted);
        t.accumulate(900, 1.0, 1e9, Accumulation::SampleWeighted);
        t.note_reuse(7);
        t.note_reuse(7);
        t.note_reuse(900);
        t
    }

    #[test]
    fn table_roundtrip_is_lossless() {
        let table = learned_table();
        table.taint(900);
        let back = table_from_text(&table_to_text(&table)).unwrap();
        // Bit-identical α, weight, invocation counts and taint for every
        // kernel.
        assert_eq!(back.snapshot_with_taint(), table.snapshot_with_taint());
        assert_eq!(back, table);
    }

    #[test]
    fn empty_table_roundtrips() {
        let back = table_from_text(&table_to_text(&KernelTable::new())).unwrap();
        assert!(back.is_empty());
    }

    /// A snapshot of `lines` between a generation-0 header and `breaker
    /// 0`, and an `end` counting `records`, every line sealed.
    fn sealed_snapshot(lines: &[&str], records: u64) -> String {
        let mut text = journal_header(0);
        for body in ["breaker 0"].iter().chain(lines) {
            LineWriter::begin(&mut text, body).seal();
        }
        LineWriter::begin(&mut text, "end").dec(records).seal();
        text
    }

    #[test]
    fn table_rejects_bad_input() {
        let put = "put 1 alpha 0.5 weight 1 seen 0 tainted 0";
        assert_eq!(
            table_from_text(&sealed_snapshot(&[put], 2))
                .unwrap()
                .lookup(1),
            Some(0.5)
        );
        for (lines, records, line) in [
            (&["put x alpha 0.5 weight 1 seen 0 tainted 0"][..], 2, 3),
            (&["put 1 alpha 1.5 weight 1 seen 0 tainted 0"], 2, 3),
            (&["put 1 alpha 0.5 weight abc seen 0 tainted 0"], 2, 3),
            (&["put 1 alpha 0.5 weight NaN seen 0 tainted 0"], 2, 3),
            (&["put 1 alpha 0.5 weight inf seen 0 tainted 0"], 2, 3),
            (&["put 1 alpha 0.5 weight -1 seen 0 tainted 0"], 2, 3),
            (&["put 1 alpha 0.5 weight 1 seen -3 tainted 0"], 2, 3),
            (&["put 1 alpha 0.5 weight 1 seen 0"], 2, 3),
            (&["put 1 alpha 0.5 weight 1 seen 0 tainted 2"], 2, 3),
            (&["put 1 alpha 0.5 weight 1 seen 0 tainted 0 x"], 2, 3),
            (&["put 1 weight 1 alpha 0.5 seen 0 tainted 0"], 2, 3),
            (&["kernel 1 alpha 0.5 weight 1 seen 0 tainted 0"], 2, 3),
            (&["# warm-start state"], 2, 3),
            (&["mystery 1 2 3"], 2, 3),
            // Records a journal holds but a snapshot does not.
            (&["taint 1"], 2, 3),
            (&[put, "breaker 1"], 3, 4),
            // A duplicated and a dropped entry, and miscounts.
            (&[put, put], 3, 4),
            (&[put], 1, 4),
            (&[put], 3, 4),
            (&[], 0, 3),
        ] {
            let text = sealed_snapshot(lines, records);
            let err = table_from_text(&text).unwrap_err();
            assert!(
                matches!(err, ModelParseError::BadLine { line: l, .. } if l == line),
                "{lines:?}: {err}"
            );
        }
        // A snapshot without its breaker line, and one with any line
        // after `end`: sealed, blank or a comment.
        let good = sealed_snapshot(&[put], 2);
        let no_breaker = good
            .lines()
            .filter(|l| !l.starts_with("breaker"))
            .collect::<Vec<_>>();
        let err = table_from_text(&(no_breaker.join("\n") + "\n")).unwrap_err();
        assert!(
            matches!(err, ModelParseError::BadLine { line: 2, .. }),
            "{err}"
        );
        for tail in [good.lines().nth(2).unwrap(), "", "# note"] {
            let err = table_from_text(&format!("{good}{tail}\n")).unwrap_err();
            assert!(
                matches!(err, ModelParseError::BadLine { line: 5, .. }),
                "{err}"
            );
        }
    }

    const BREAKERS: [BreakerState; 3] = [
        BreakerState::Closed,
        BreakerState::Open,
        BreakerState::HalfOpen,
    ];

    /// Entries on the edges of what a table holds: a subnormal weight,
    /// −0.0, `f64::MAX` and `u64::MAX` ids and counts, two tainted.
    fn edge_table() -> KernelTable {
        let stat = |alpha, weight, invocations_seen| AlphaStat {
            alpha,
            weight,
            invocations_seen,
        };
        let table = KernelTable::new();
        table.restore(0, stat(2.0 / 3.0, 5e-324, 0), false);
        table.restore(7, stat(0.0, 0.0, 12), true);
        table.restore(8, stat(-0.0, 1e-300, 1), false);
        table.restore(u64::MAX, stat(1.0, f64::MAX, u64::MAX), true);
        table
    }

    /// FNV-1a digests of every persisted format over edge values — NaN,
    /// ±inf, −0.0, the least subnormal, `f64::MAX`, `u64::MAX` ids and
    /// counts — taken at the commit before the writers moved onto
    /// `LineWriter`, the table's when its snapshot became a compacted
    /// journal. A new literal means a persisted byte moved.
    #[test]
    fn persisted_bytes_match_the_parent_commit() {
        const ODD: [f64; 8] = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            5e-324,
            2.0 / 3.0,
            f64::MAX,
            -1.25e-7,
        ];
        let curves = WorkloadClass::all()
            .into_iter()
            .enumerate()
            .map(|(i, class)| {
                let odd = |k: usize| ODD[(i + k) % ODD.len()];
                let poly = Polynomial::new(vec![odd(0), odd(1), odd(2), 31.5]);
                PowerCurve::new(class, poly, odd(3), i * 7)
            })
            .collect();
        let model = PowerModel::new("edge-platform", curves);
        let table = edge_table();

        let mut texts = vec![model_to_text(&model), table_to_text(&table)];
        for (breaker, generation) in BREAKERS.into_iter().zip([0, 4, u64::MAX]) {
            texts.push(snapshot_to_text(&table, breaker, generation));
        }
        texts.push(journal_header(0));
        texts.push(journal_header(u64::MAX));
        for (kernel, stat, tainted) in table.snapshot_with_taint() {
            texts.push(
                JournalRecord::Put {
                    kernel,
                    stat,
                    tainted,
                }
                .to_line(),
            );
        }
        texts.push(JournalRecord::Taint(u64::MAX).to_line());
        for breaker in BREAKERS {
            texts.push(JournalRecord::Breaker(breaker).to_line());
        }
        let digests: Vec<u64> = texts.iter().map(|t| fnv1a64(t.as_bytes())).collect();
        let parent: [u64; 15] = [
            0x7769_0068_9747_1c90, // model
            // The table text and the snapshot per breaker state, taken
            // when the snapshot became a compacted journal; the table
            // text is the generation-0, breaker-closed snapshot.
            0x064e_c0d2_b1dc_8c47,
            0x064e_c0d2_b1dc_8c47,
            0x7c3f_2299_ca58_f074,
            0xbe16_70e6_309b_e7f4,
            0x5f93_009f_ae3b_f637, // journal headers
            0xf8ad_a9a6_b518_3a1d,
            0xd25c_b232_033d_9039, // put, one per entry
            0x4134_4df6_5514_c92c,
            0x38ff_af18_b809_517a,
            0x12f7_d5d0_45e8_bd39,
            0xcf28_0127_45eb_d9c9, // taint
            0x6188_fd59_a3af_a46d, // breaker, one per state
            0xa5d5_6665_5cab_9808,
            0x9a95_e740_5c82_ad12,
        ];
        assert_eq!(digests, parent, "{texts:#?}");
    }

    #[test]
    fn a_snapshot_is_a_compacted_journal() {
        let table = learned_table();
        table.taint(900);
        let text = snapshot_to_text(&table, BreakerState::Open, 7);
        let breaker = JournalRecord::Breaker(BreakerState::Open).to_line();
        assert!(text.starts_with(&(journal_header(7) + &breaker)), "{text}");
        let last = text.lines().last().unwrap();
        assert!(last.starts_with("end 4 crc "), "{last}");
        let (back, breaker, generation) = snapshot_from_text(text.as_bytes()).unwrap();
        assert_eq!(back.snapshot_with_taint(), table.snapshot_with_taint());
        assert!(back.is_tainted(900));
        assert_eq!(breaker, BreakerState::Open);
        assert_eq!(generation, 7);
        // Read as a journal, the same bytes replay to the same state: every
        // line is a record but `end`, which closes the sealed prefix.
        let scan = scan_journal(text.as_bytes());
        assert_eq!((scan.gen, scan.end, scan.discarded), (Some(7), Some(4), 1));
        assert_eq!(scan.valid_len, text.len() - last.len() - 1);
        let replayed = KernelTable::new();
        assert_eq!(
            replay(&replayed, scan.records, false),
            Some(BreakerState::Open)
        );
        assert_eq!(replayed.snapshot_with_taint(), table.snapshot_with_taint());
    }

    /// The parent's table writers, kept in `parent` as the oracle of
    /// `snapshots_read_back_as_the_parent_read_its_own`, still write the
    /// bytes `persisted_bytes_match_the_parent_commit` pinned for them.
    #[test]
    fn the_parent_writers_write_the_parent_bytes() {
        let table = edge_table();
        let mut texts = vec![parent::table_to_text(&table)];
        for (breaker, generation) in BREAKERS.into_iter().zip([0, 4, u64::MAX]) {
            texts.push(parent::snapshot_to_text(&table, breaker, generation));
        }
        let digests: Vec<u64> = texts.iter().map(|t| fnv1a64(t.as_bytes())).collect();
        let parent = [
            0x88d2_dca6_305e_b9c1, // v2 table
            0x94fb_a4ed_3c7a_1b0c, // v3 snapshots, one per breaker state
            0x6bd3_a3c7_5b4f_7483,
            0x3d35_cfdd_275d_2673,
        ];
        assert_eq!(digests, parent, "{texts:#?}");
    }

    /// The readers this module had before it moved onto `Fields`, kept as
    /// the oracle the new ones are held to (`readers_agree_with_the_parent`),
    /// and the table files the store wrote before its snapshot became a
    /// compacted journal: the v2 table and the v3 snapshot, each under a
    /// trailing whole-file `checksum`, with the reader of both
    /// (`snapshots_read_back_as_the_parent_read_its_own`).
    #[allow(clippy::disallowed_methods)] // the parent's readers split by hand
    mod parent {
        use super::*;
        use std::str::{FromStr, SplitWhitespace};

        /// An entry line: `kernel <id> alpha <a> weight <w> seen <n>`,
        /// then `tainted <0|1>` in the v3 snapshot.
        fn write_entry(
            out: &mut String,
            kernel: KernelId,
            stat: &AlphaStat,
            tainted: Option<bool>,
        ) {
            let line = LineWriter::begin(out, "kernel")
                .dec(kernel)
                .word("alpha")
                .float(stat.alpha)
                .word("weight")
                .float(stat.weight)
                .word("seen")
                .dec(stat.invocations_seen);
            match tainted {
                Some(tainted) => line.word("tainted").dec(u64::from(tainted)).end(),
                None => line.end(),
            }
        }

        /// The v2 table file: no generation, breaker or taint.
        pub(super) fn table_to_text(table: &KernelTable) -> String {
            let mut out = String::new();
            LineWriter::begin(&mut out, "easched-kernel-table v2").end();
            for (kernel, stat) in table.snapshot() {
                write_entry(&mut out, kernel, &stat, None);
            }
            seal(out)
        }

        /// The v3 snapshot.
        pub(super) fn snapshot_to_text(
            table: &KernelTable,
            breaker: BreakerState,
            generation: u64,
        ) -> String {
            let mut out = String::new();
            LineWriter::begin(&mut out, "easched-kernel-table v3").end();
            LineWriter::begin(&mut out, "generation")
                .dec(generation)
                .end();
            LineWriter::begin(&mut out, "breaker")
                .dec(breaker.code().into())
                .end();
            for (kernel, stat, tainted) in table.snapshot_with_taint() {
                write_entry(&mut out, kernel, &stat, Some(tainted));
            }
            seal(out)
        }

        /// A v3 snapshot, or a v2 table file at generation 0 with the
        /// breaker closed and no taint.
        pub(super) fn parse_snapshot(
            bytes: &[u8],
        ) -> Result<(KernelTable, BreakerState, u64), ModelParseError> {
            let text = &*String::from_utf8_lossy(bytes);
            let v3 = text.lines().next().unwrap_or("").trim() == "easched-kernel-table v3";
            let header = format!("easched-kernel-table v{}", if v3 { 3 } else { 2 });
            parse_table_body(verify_sealed(text, &header)?, v3)
        }

        fn records(body: &str) -> impl Iterator<Item = (usize, SplitWhitespace<'_>)> {
            body.lines()
                .enumerate()
                .skip(1) // header, already validated by the envelope check
                .map(|(idx, raw)| (idx + 1, raw.trim()))
                .filter(|(_, line)| !line.is_empty() && !line.starts_with('#'))
                .map(|(line_no, line)| (line_no, line.split_whitespace()))
        }

        fn value<T: FromStr>(tokens: &mut SplitWhitespace<'_>, what: &str) -> Result<T, String>
        where
            T::Err: fmt::Display,
        {
            tokens
                .next()
                .ok_or_else(|| format!("missing {what}"))?
                .parse()
                .map_err(|e| format!("{what}: {e}"))
        }

        fn keyword(tokens: &mut SplitWhitespace<'_>, want: &str) -> Result<(), String> {
            match tokens.next() {
                Some(t) if t == want => Ok(()),
                other => Err(format!("expected {want:?}, found {other:?}")),
            }
        }

        pub(super) fn verify_sealed<'a>(
            text: &'a str,
            header: &str,
        ) -> Result<&'a str, ModelParseError> {
            let found = text.lines().next().unwrap_or("").trim();
            if found != header {
                return Err(ModelParseError::BadHeader(found.to_string()));
            }
            let at = text
                .rfind("\nchecksum ")
                .ok_or(ModelParseError::MissingChecksum)?;
            let covered = &text[..=at];
            let mut tokens = text[at + 1..].split_whitespace();
            tokens.next();
            let stored = tokens
                .next()
                .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                .ok_or(ModelParseError::MissingChecksum)?;
            if tokens.next().is_some() {
                return Err(ModelParseError::MissingChecksum);
            }
            let computed = fnv1a64(covered.as_bytes());
            if computed != stored {
                return Err(ModelParseError::ChecksumMismatch { computed, stored });
            }
            Ok(covered)
        }

        /// A `platform` record as `model_from_text` read it.
        pub(super) fn platform(record: &str) -> Option<String> {
            let mut tokens = record.split_whitespace();
            (tokens.next()? == "platform").then_some(())?;
            let platform = tokens.collect::<Vec<_>>().join(" ");
            (!platform.is_empty()).then_some(platform)
        }

        /// A `curve` record as `model_from_text` read it.
        pub(super) fn curve(record: &str) -> Option<PowerCurve> {
            let mut tokens = record.split_whitespace();
            (tokens.next()? == "curve").then_some(())?;
            parse_curve(&mut tokens).ok()
        }

        fn parse_curve(tokens: &mut SplitWhitespace<'_>) -> Result<PowerCurve, String> {
            let index: usize = value(tokens, "class index")?;
            if index >= 8 {
                return Err(format!("class index {index} out of range"));
            }
            keyword(tokens, "rmse")?;
            let rmse = value(tokens, "rmse")?;
            keyword(tokens, "samples")?;
            let samples = value(tokens, "samples")?;
            keyword(tokens, "coeffs")?;
            let coeffs: Result<Vec<f64>, _> = tokens.map(str::parse).collect();
            let coeffs = coeffs.map_err(|e| format!("coefficient: {e}"))?;
            if coeffs.is_empty() {
                return Err("curve has no coefficients".into());
            }
            Ok(PowerCurve::new(
                WorkloadClass::from_index(index),
                Polynomial::new(coeffs),
                rmse,
                samples,
            ))
        }

        fn parse_entry(
            tokens: &mut SplitWhitespace<'_>,
            with_taint: bool,
        ) -> Result<(KernelId, AlphaStat, bool), String> {
            let kernel = value(tokens, "kernel id")?;
            keyword(tokens, "alpha")?;
            let alpha: f64 = value(tokens, "alpha")?;
            if !(0.0..=1.0).contains(&alpha) {
                return Err(format!("alpha {alpha} out of [0, 1]"));
            }
            keyword(tokens, "weight")?;
            let weight: f64 = value(tokens, "weight")?;
            if !weight.is_finite() || weight < 0.0 {
                return Err(format!("weight {weight} not a finite non-negative value"));
            }
            keyword(tokens, "seen")?;
            let invocations_seen = value(tokens, "seen count")?;
            let tainted = with_taint && {
                keyword(tokens, "tainted")?;
                match tokens.next() {
                    Some("0") => false,
                    Some("1") => true,
                    other => return Err(format!("tainted flag: found {other:?}")),
                }
            };
            if tokens.next().is_some() {
                return Err("trailing tokens after the last field".into());
            }
            let stat = AlphaStat {
                alpha,
                weight,
                invocations_seen,
            };
            Ok((kernel, stat, tainted))
        }

        pub(super) fn parse_table_body(
            body: &str,
            v3: bool,
        ) -> Result<(KernelTable, BreakerState, u64), ModelParseError> {
            let table = KernelTable::new();
            let mut breaker = BreakerState::Closed;
            let mut generation = 0u64;
            for (line, mut tokens) in records(body) {
                let bad = |message: String| ModelParseError::BadLine { line, message };
                match tokens.next() {
                    Some("generation") if v3 => {
                        generation = value(&mut tokens, "generation").map_err(bad)?;
                    }
                    Some("breaker") if v3 => {
                        let code: u8 = value(&mut tokens, "breaker code").map_err(bad)?;
                        breaker = BreakerState::from_code(code)
                            .ok_or_else(|| bad(format!("unknown breaker code {code}")))?;
                    }
                    Some("kernel") => {
                        let (kernel, stat, tainted) = parse_entry(&mut tokens, v3).map_err(bad)?;
                        if table.stat(kernel).is_some() {
                            return Err(bad(format!("kernel {kernel} listed twice")));
                        }
                        table.restore(kernel, stat, tainted);
                    }
                    other => return Err(bad(format!("unknown record {other:?}"))),
                }
            }
            Ok((table, breaker, generation))
        }

        pub(super) fn journal_record(body: &str) -> Option<JournalRecord> {
            let mut tokens = body.split_whitespace();
            let record = match tokens.next()? {
                "put" => {
                    let (kernel, stat, tainted) = parse_entry(&mut tokens, true).ok()?;
                    JournalRecord::Put {
                        kernel,
                        stat,
                        tainted,
                    }
                }
                "taint" => JournalRecord::Taint(value(&mut tokens, "kernel id").ok()?),
                "breaker" => {
                    let code: u8 = value(&mut tokens, "breaker code").ok()?;
                    JournalRecord::Breaker(BreakerState::from_code(code)?)
                }
                _ => return None,
            };
            tokens.next().is_none().then_some(record)
        }

        pub(super) fn journal_generation(body: &str) -> Option<u64> {
            body.strip_prefix("easched-table-journal v1")?
                .trim()
                .strip_prefix("gen ")?
                .trim()
                .parse()
                .ok()
        }
    }

    use proptest::collection::vec;
    use proptest::prelude::*;

    /// Record templates: each slot lists words its reader accepts there.
    type Template = &'static [&'static [&'static str]];

    const ENTRY: Template = &[
        &["kernel", "put"],
        &["7", "0", "+7", "007", "18446744073709551615"],
        &["alpha"],
        &["5e-1", "0", "1", "-0e0", "6.666666666666666e-1", "1E0"],
        &["weight"],
        &["5e4", "0e0", "5e-324", "1.7976931348623157e308", "+2"],
        &["seen"],
        &["12", "0", "18446744073709551615"],
        &["tainted"],
        &["0", "1"],
    ];
    const STATE: Template = &[
        &["generation", "breaker", "taint"],
        &["0", "1", "2", "4", "+1"],
    ];
    const CURVE: Template = &[
        &["curve"],
        &["0", "3", "7", "+2", "07"],
        &["rmse"],
        &["1.69e-1", "NaN", "-0e0", "inf", "1e400"],
        &["samples"],
        &["21", "0"],
        &["coeffs"],
        &["3.255e1", "-9.5e-1", "5e-324", "-inf"],
        &["1e0", "NaN", "infinity"],
    ];
    const PLATFORM: Template = &[&["platform"], &["haswell-desktop", "x"], &["tablet"]];
    const HEADER: Template = &[
        &["easched-table-journal"],
        &["v1"],
        &["gen"],
        &["4", "0", "+4", "18446744073709551615"],
    ];
    /// `DIGEST` stands for the digest of the body in front of the trailer.
    const TRAILER: Template = &[&["checksum"], &["DIGEST"]];

    /// Words on the edges of what the readers accept, and their tags.
    const WORDS: [&str; 33] = [
        "0",
        "1",
        "01",
        "+1",
        "-1",
        "-0",
        "1.5",
        "5e-324",
        "1e400",
        "inf",
        "NaN",
        "nan",
        "infinity",
        ".",
        "e",
        "E",
        "18446744073709551616",
        "ffffffffffffffff",
        "x",
        "é",
        "#",
        "alpha",
        "weight",
        "seen",
        "tainted",
        "kernel",
        "curve",
        "coeffs",
        "platform",
        "checksum",
        "gen",
        "v1gen",
        "crc",
    ];
    /// What stands between two words: mostly the writer's one space.
    const BLANKS: [&str; 15] = [
        " ", " ", " ", " ", " ", " ", " ", " ", "  ", "\t", "\u{a0}", "\u{2003}", "\r", "\n", "",
    ];

    /// A record near `template`: each word is the template's (seven in
    /// eight) or an edge word, the blanks between words vary, and half the
    /// records are cut short of the template or run past it.
    fn arb_record(template: Template) -> impl Strategy<Value = String> {
        let picks = vec(
            (0..8u8, any::<usize>(), 0..BLANKS.len()),
            template.len() + 2,
        );
        (picks, 0..2 * template.len() + 4).prop_map(move |(picks, len)| {
            let len = if len > template.len() + 2 {
                template.len()
            } else {
                len
            };
            let mut text = String::new();
            for (at, (keep, pick, blank)) in picks.into_iter().take(len).enumerate() {
                if at > 0 {
                    text.push_str(BLANKS[blank]);
                }
                text.push_str(match template.get(at) {
                    Some(slot) if keep > 0 => slot[pick % slot.len()],
                    _ => WORDS[pick % WORDS.len()],
                });
            }
            text
        })
    }

    /// What a snapshot reader read — entries with taint, breaker and
    /// generation — or `None` for a refusal (the errors are free to
    /// differ).
    fn snapshot_outcome(
        read: Result<(KernelTable, BreakerState, u64), ModelParseError>,
    ) -> Option<String> {
        let (table, breaker, generation) = read.ok()?;
        Some(format!(
            "{:?} {breaker:?} {generation}",
            table.snapshot_with_taint()
        ))
    }

    /// Floats on the edges of what an entry holds, NaN-free; α takes them
    /// too, out of its range included.
    const EDGE_FLOATS: [f64; 7] = [0.0, -0.0, 5e-324, 1e-300, 2.0 / 3.0, 1.0, f64::MAX];

    /// A snapshot's records — the breaker line, then one line per entry —
    /// as bit rot or a careless edit could leave them: untouched, two
    /// swapped, one duplicated or one dropped (indices wrap).
    #[derive(Debug, Clone, Copy)]
    enum Edit {
        Keep,
        Swap(usize, usize),
        Duplicate(usize),
        Drop(usize),
    }

    /// `text` with `edit` applied to the records between its first `head`
    /// lines and its last line.
    fn edit_records(text: &str, head: usize, edit: Edit) -> String {
        let mut lines: Vec<&str> = text.lines().collect();
        let records = lines.len() - head - 1;
        let at = |i: usize| head + i % records;
        match edit {
            Edit::Keep => {}
            Edit::Swap(i, j) => lines.swap(at(i), at(j)),
            Edit::Duplicate(i) => lines.insert(at(i), lines[at(i)]),
            Edit::Drop(i) => {
                lines.remove(at(i));
            }
        }
        lines.iter().map(|line| format!("{line}\n")).collect()
    }

    /// The header body the writer produces for `generation`.
    fn written_header(generation: u64) -> String {
        let line = journal_header(generation);
        unseal(line.trim_end()).unwrap().to_string()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Every record reader accepts what the parent's accepted and reads
        /// the same value: the journal's `put`, `taint` and `breaker`,
        /// `curve`, `platform`, the checksum trailer and the journal
        /// header. The exceptions are lines no writer produces
        /// (`readers_part_from_the_parent_only_off_the_writer`).
        #[test]
        fn readers_agree_with_the_parent(
            lines in vec(prop_oneof![arb_record(ENTRY), arb_record(STATE)], 1..4),
            curve in arb_record(CURVE),
            platform in arb_record(PLATFORM),
            header in arb_record(HEADER),
            trailer in arb_record(TRAILER),
            upper in any::<bool>(),
        ) {
            for line in &lines {
                prop_assert_eq!(
                    format!("{:?}", JournalRecord::parse(line)),
                    format!("{:?}", parent::journal_record(line)),
                    "{:?}", line
                );
            }
            let read_curve = Fields::parse(&curve, |f| f.tag("curve").and_then(|()| read_curve(f)));
            prop_assert_eq!(
                format!("{read_curve:?}"),
                format!("{:?}", parent::curve(&curve)),
                "{:?}", curve
            );
            let read_platform = Fields::parse(&platform, |f| {
                f.tag("platform").and_then(|()| read_platform(f))
            });
            prop_assert_eq!(read_platform, parent::platform(&platform), "{:?}", platform);

            let covered = format!("{MODEL_HEADER}\nplatform x\n");
            let digest = format!("{:016x}", fnv1a64(covered.as_bytes()));
            let digest = if upper { digest.to_uppercase() } else { digest };
            let text = covered + &trailer.replace("DIGEST", &digest);
            prop_assert_eq!(
                format!("{:?}", verify_sealed(&text, MODEL_HEADER)),
                format!("{:?}", parent::verify_sealed(&text, MODEL_HEADER)),
                "{:?}", text
            );

            let (head, old) = (journal_generation(&header), parent::journal_generation(&header));
            if head != old {
                for generation in head.into_iter().chain(old) {
                    prop_assert_ne!(written_header(generation), header.clone());
                }
            }
        }

        /// For any table — taint included — breaker state and generation,
        /// the snapshot reads back to exactly what the parent's reader read
        /// of the parent's snapshot, and refuses every swap, duplicate and
        /// drop of its records that the parent's whole-file checksum
        /// refused.
        #[test]
        fn snapshots_read_back_as_the_parent_read_its_own(
            entries in vec(
                (
                    prop_oneof![0..8u64, Just(u64::MAX), any::<u64>()],
                    0..EDGE_FLOATS.len(),
                    0..EDGE_FLOATS.len(),
                    prop_oneof![0..3u64, Just(u64::MAX)],
                    any::<bool>(),
                ),
                0..6,
            ),
            breaker in 0..BREAKERS.len(),
            generation in prop_oneof![0..3u64, Just(u64::MAX), any::<u64>()],
            edit in prop_oneof![
                Just(Edit::Keep),
                (any::<usize>(), any::<usize>()).prop_map(|(i, j)| Edit::Swap(i, j)),
                any::<usize>().prop_map(Edit::Duplicate),
                any::<usize>().prop_map(Edit::Drop),
            ],
        ) {
            let table = KernelTable::new();
            for (kernel, alpha, weight, invocations_seen, tainted) in entries {
                let stat = AlphaStat {
                    alpha: EDGE_FLOATS[alpha],
                    weight: EDGE_FLOATS[weight],
                    invocations_seen,
                };
                table.restore(kernel, stat, tainted);
            }
            let breaker = BREAKERS[breaker];
            let head = edit_records(&snapshot_to_text(&table, breaker, generation), 1, edit);
            let old = edit_records(&parent::snapshot_to_text(&table, breaker, generation), 2, edit);
            prop_assert_eq!(
                snapshot_outcome(snapshot_from_text(head.as_bytes())),
                snapshot_outcome(parent::parse_snapshot(old.as_bytes())),
                "{:?} {:?}", edit, head
            );
        }
    }

    /// The one place the readers part, on lines no writer produces: the
    /// journal header. The parent matched the prefix
    /// `easched-table-journal v1` byte for byte, then trimmed blanks
    /// before `gen `, while `Fields` reads four words split by any blanks.
    #[test]
    fn readers_part_from_the_parent_only_off_the_writer() {
        for (body, head, old) in [
            ("easched-table-journal v1 gen 4", Some(4), Some(4)),
            (
                "easched-table-journal v1 gen 18446744073709551615",
                Some(u64::MAX),
                Some(u64::MAX),
            ),
            ("easched-table-journal v1\tgen  +04 ", Some(4), Some(4)),
            // The parent let "v1" and "gen" run together.
            ("easched-table-journal v1gen 4", None, Some(4)),
            // It refused a leading blank, and any blank inside its prefix
            // or after "gen" but the one space.
            (" easched-table-journal v1 gen 4", Some(4), None),
            ("easched-table-journal  v1 gen 4", Some(4), None),
            ("easched-table-journal\tv1 gen 4", Some(4), None),
            ("easched-table-journal v1 gen\t4", Some(4), None),
            ("easched-table-journal v1 gen\u{a0}4", Some(4), None),
        ] {
            assert_eq!(journal_generation(body), head, "{body:?}");
            assert_eq!(parent::journal_generation(body), old, "{body:?}");
            if head != old {
                assert_ne!(written_header(head.or(old).unwrap()), body);
            }
        }
    }
}
