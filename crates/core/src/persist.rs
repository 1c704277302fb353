//! Power-model and kernel-table persistence: every byte either one puts
//! on disk is formatted and parsed here, and nowhere else, through the
//! workspace's one line codec — each line is written by a [`LineWriter`]
//! and read by [`Fields`].
//!
//! The characterization step is "computed once for each processor"
//! (abstract): on a real deployment the fitted model is saved and reloaded
//! on every subsequent run. The format is a small line-oriented text file —
//! stable, diffable, and dependency-free:
//!
//! ```text
//! easched-power-model v2
//! platform haswell-desktop
//! curve 0 rmse 1.69e-1 samples 21 coeffs 3.255e1 -9.5e-1 ...
//! ... (8 curve lines, class-index order)
//! checksum 8d3f2a915c04be71
//! ```
//!
//! The learned kernel table G persists the same way
//! ([`table_to_text`]/[`table_from_text`]), so a long-running deployment
//! can warm-start its offload ratios instead of re-profiling every kernel
//! after a restart:
//!
//! ```text
//! easched-kernel-table v2
//! kernel 7 alpha 6.5e-1 weight 5e4 seen 12
//! ... (one line per kernel, id order)
//! checksum 41c09f22e6b7d530
//! ```
//!
//! Floats are written in decimal ([`LineWriter::float`], `{:e}`: the
//! shortest text that reads back to the same value), not as the bit
//! patterns the run log uses.
//!
//! # One entry grammar, three carriers
//!
//! A table entry is the field list `<id> alpha <a> weight <w> seen <n>`,
//! followed by `tainted <0|1>` in the formats that carry taint. It has one
//! writer and one strict reader here (α in [0, 1], weight finite and
//! non-negative, no trailing words — for every version) under three
//! carriers: the whole-file table above (v2, no taint), and the two files
//! of the crash-safe store in [`journal`](crate::journal), which holds the
//! recovery rules and the degrade state machine but no grammar. Its
//! snapshot is v2 extended with generation, breaker, and taint state under
//! the same trailing-checksum envelope:
//!
//! ```text
//! easched-kernel-table v3
//! generation 4
//! breaker 0
//! kernel 7 alpha 6.5e-1 weight 5e4 seen 12 tainted 0
//! checksum 41c09f22e6b7d530
//! ```
//!
//! Its journal is line-oriented; every line — header included — is sealed
//! with its own FNV-1a digest:
//!
//! ```text
//! easched-table-journal v1 gen 4 crc 9f0c21d55ab3e847
//! put 7 alpha 6.5e-1 weight 5e4 seen 12 tainted 0 crc 1c22b06f9d4e7a35
//! taint 7 crc e5b91f20c6a4d713
//! breaker 1 crc 07d4f8a2c91b63e5
//! ```
//!
//! # Integrity (DESIGN.md §9)
//!
//! Every model and table file ends in a `checksum` line: an FNV-1a 64-bit
//! digest over every byte that precedes it. A file truncated by a crashed
//! writer or corrupted at rest fails [`ModelParseError::MissingChecksum`] /
//! [`ModelParseError::ChecksumMismatch`] instead of silently warm-starting
//! the scheduler with damaged ratios — loading never panics. A version-1
//! file, which carried no checksum, is refused as
//! [`ModelParseError::BadHeader`].

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

/// Format header of the kernel-table format, version 2 (checksummed).
const TABLE_HEADER_V2: &str = "easched-kernel-table v2";
/// Format header of the store's snapshot, version 3 (generation, breaker
/// and taint state added).
const TABLE_HEADER_V3: &str = "easched-kernel-table v3";

/// The one writer of the entry field list: `<record> <id> alpha <a>
/// weight <w> seen <n>`, then `tainted <0|1>` when the carrier has taint
/// (`Some`). The caller ends or seals the line.
fn write_entry<'a>(
    out: &'a mut String,
    record: &str,
    kernel: KernelId,
    stat: &AlphaStat,
    tainted: Option<bool>,
) -> LineWriter<'a> {
    let line = LineWriter::begin(out, record)
        .dec(kernel)
        .word("alpha")
        .float(stat.alpha)
        .word("weight")
        .float(stat.weight)
        .word("seen")
        .dec(stat.invocations_seen);
    match tainted {
        Some(tainted) => line.word("tainted").dec(u64::from(tainted)),
        None => line,
    }
}

/// The one reader of the field list [`write_entry`] wrote, record tag
/// already consumed; `with_taint` says whether the carrier's version has
/// the `tainted` flag (without it entries read as untainted). Strict for
/// every version: α in [0, 1], a `tainted` of exactly `0` or `1`, and a
/// weight that is finite and non-negative — after `inf` the kernel's next
/// [`KernelTable::accumulate`] computes α = NaN, after `NaN` none can
/// ever move its α again.
fn read_entry(f: &mut Fields<'_>, with_taint: bool) -> Option<(KernelId, AlphaStat, bool)> {
    let kernel = f.dec()?;
    f.tag("alpha")?;
    let alpha = f.float().filter(|alpha| (0.0..=1.0).contains(alpha))?;
    f.tag("weight")?;
    let weight = f.float().filter(|w| w.is_finite() && *w >= 0.0)?;
    f.tag("seen")?;
    let invocations_seen = f.dec()?;
    let tainted = with_taint && {
        f.tag("tainted")?;
        match f.word()? {
            "0" => false,
            "1" => true,
            _ => return None,
        }
    };
    let stat = AlphaStat {
        alpha,
        weight,
        invocations_seen,
    };
    Some((kernel, stat, tainted))
}

/// Serializes a learned kernel table to the v2 text format. Lines are in
/// kernel-id order, so equal tables serialize identically.
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
    let mut out = String::new();
    LineWriter::begin(&mut out, TABLE_HEADER_V2).end();
    for (kernel, stat) in table.snapshot() {
        write_entry(&mut out, "kernel", kernel, &stat, None).end();
    }
    seal(out)
}

/// Serializes the store's v3 snapshot: generation and breaker state, then
/// the sorted kernel lines with taint, under the checksum envelope.
pub(crate) fn snapshot_to_text(
    table: &KernelTable,
    breaker: BreakerState,
    generation: u64,
) -> String {
    let mut out = String::new();
    LineWriter::begin(&mut out, TABLE_HEADER_V3).end();
    LineWriter::begin(&mut out, "generation")
        .dec(generation)
        .end();
    LineWriter::begin(&mut out, "breaker")
        .dec(breaker.code().into())
        .end();
    for (kernel, stat, tainted) in table.snapshot_with_taint() {
        write_entry(&mut out, "kernel", kernel, &stat, Some(tainted)).end();
    }
    seal(out)
}

/// Parses the v2 kernel-table text format, checksum verified.
///
/// # Errors
///
/// [`ModelParseError`] on malformed, truncated, or corrupted input
/// (including a duplicated kernel id, which would silently drop learned
/// weight, and a weight no accumulation could recover from). Never
/// panics, whatever the bytes.
pub fn table_from_text(text: &str) -> Result<KernelTable, ModelParseError> {
    let body = verify_sealed(text, TABLE_HEADER_V2)?;
    parse_table_body(body, false).map(|(table, _, _)| table)
}

/// Parses a v3 snapshot, or a v2 table file, into the table, the breaker
/// state and the generation; v2 loads with generation 0, a closed
/// breaker, and no taint state (it never carried them).
pub(crate) fn parse_snapshot(
    bytes: &[u8],
) -> Result<(KernelTable, BreakerState, u64), ModelParseError> {
    let text = &*String::from_utf8_lossy(bytes);
    let v3 = text.lines().next().unwrap_or("").trim() == TABLE_HEADER_V3;
    let header = if v3 { TABLE_HEADER_V3 } else { TABLE_HEADER_V2 };
    parse_table_body(verify_sealed(text, header)?, v3)
}

/// The record walk under both table versions; `v3` admits the
/// `generation` and `breaker` records and the per-entry taint flag.
fn parse_table_body(
    body: &str,
    v3: bool,
) -> Result<(KernelTable, BreakerState, u64), ModelParseError> {
    let table = KernelTable::new();
    let mut breaker = BreakerState::Closed;
    let mut generation = 0u64;
    read_records(body, |f| {
        match f.word()? {
            "generation" if v3 => generation = f.dec()?,
            "breaker" if v3 => breaker = BreakerState::from_code(f.dec()?)?,
            "kernel" => {
                let (kernel, stat, tainted) = read_entry(f, v3)?;
                if table.stat(kernel).is_some() {
                    return Some(Err(format!("kernel {kernel} listed twice")));
                }
                table.restore(kernel, stat, tainted);
            }
            _ => return None,
        }
        Some(Ok(()))
    })?;
    Ok((table, breaker, generation))
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
        match self {
            JournalRecord::Put {
                kernel,
                stat,
                tainted,
            } => write_entry(&mut line, "put", kernel, &stat, Some(tainted)).seal(),
            JournalRecord::Taint(kernel) => {
                LineWriter::begin(&mut line, "taint").dec(kernel).seal()
            }
            JournalRecord::Breaker(state) => LineWriter::begin(&mut line, "breaker")
                .dec(state.code().into())
                .seal(),
        }
        line
    }

    /// Parses one verified record body.
    fn parse(body: &str) -> Option<JournalRecord> {
        Fields::parse(body, |f| match f.word()? {
            "put" => {
                let (kernel, stat, tainted) = read_entry(f, true)?;
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

/// Result of scanning a journal file: the records of the valid prefix
/// and where that prefix ends.
pub(crate) struct JournalScan {
    /// Header generation, if the header line validated.
    pub(crate) gen: Option<u64>,
    pub(crate) records: Vec<JournalRecord>,
    /// Byte length of the valid prefix (header + intact records).
    pub(crate) valid_len: usize,
    /// Lines abandoned after the first invalid one.
    pub(crate) discarded: u64,
}

/// Walks the journal line by line, stopping at the first line that is
/// torn (no trailing newline), fails its digest, or fails to parse.
pub(crate) fn scan_journal(bytes: &[u8]) -> JournalScan {
    let text = String::from_utf8_lossy(bytes);
    let mut scan = JournalScan {
        gen: None,
        records: Vec::new(),
        valid_len: 0,
        discarded: 0,
    };
    let mut offset = 0usize;
    let mut lines = text.split_inclusive('\n');
    for line in &mut lines {
        let intact = line.ends_with('\n');
        let parsed = intact
            .then(|| unseal(line.trim_end_matches('\n')))
            .flatten()
            .and_then(|body| {
                if scan.gen.is_none() {
                    scan.gen = Some(journal_generation(body)?);
                } else {
                    scan.records.push(JournalRecord::parse(body)?);
                }
                Some(())
            });
        if parsed.is_none() {
            scan.discarded += 1;
            break;
        }
        offset += line.len();
    }
    scan.discarded += lines.count() as u64;
    scan.valid_len = offset;
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

        let t2 = table_to_text(&learned_table());
        let t1 =
            t2[..t2.rfind("checksum").unwrap()].replace(TABLE_HEADER_V2, "easched-kernel-table v1");
        for err in [
            table_from_text(&t1).unwrap_err(),
            parse_snapshot(t1.as_bytes()).unwrap_err(),
        ] {
            assert!(
                matches!(&err, ModelParseError::BadHeader(h) if h == "easched-kernel-table v1")
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
        let mut text = table_to_text(&learned_table());
        text.push_str("kernel 2 alpha 0.5 weight 1 seen 0\n");
        let err = table_from_text(&text).unwrap_err();
        assert!(matches!(err, ModelParseError::MissingChecksum), "{err}");
    }

    #[test]
    fn checksum_line_is_well_formed() {
        for text in [
            model_to_text(&sample_model()),
            table_to_text(&learned_table()),
            table_to_text(&KernelTable::new()),
        ] {
            let last = text.lines().last().unwrap();
            let hex = last.strip_prefix("checksum ").unwrap();
            assert_eq!(hex.len(), 16, "{last}");
            u64::from_str_radix(hex, 16).unwrap();
        }
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
        let back = table_from_text(&table_to_text(&table)).unwrap();
        // Bit-identical α, weight, and invocation counts for every kernel.
        assert_eq!(back.snapshot(), table.snapshot());
        assert_eq!(back, table);
    }

    #[test]
    fn empty_table_roundtrips() {
        let back = table_from_text(&table_to_text(&KernelTable::new())).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn table_rejects_bad_input() {
        assert!(matches!(
            table_from_text("easched-kernel-table v99\n").unwrap_err(),
            ModelParseError::BadHeader(_)
        ));
        for (bad, line) in [
            ("kernel x alpha 0.5 weight 1 seen 0", 2),
            ("kernel 1 alpha 1.5 weight 1 seen 0", 2),
            ("kernel 1 alpha 0.5 weight abc seen 0", 2),
            ("kernel 1 alpha 0.5 weight NaN seen 0", 2),
            ("kernel 1 alpha 0.5 weight inf seen 0", 2),
            ("kernel 1 alpha 0.5 weight -1 seen 0", 2),
            ("kernel 1 alpha 0.5 weight 1 seen -3", 2),
            ("kernel 1 alpha 0.5 weight 1", 2),
            ("kernel 1 alpha 0.5 weight 1 seen 0 tainted 0", 2),
            ("kernel 1 weight 1 alpha 0.5 seen 0", 2),
            ("mystery 1 2 3", 2),
            (
                "kernel 1 alpha 0.5 weight 1 seen 0\nkernel 1 alpha 0.5 weight 1 seen 0",
                3,
            ),
        ] {
            let text = format!("{TABLE_HEADER_V2}\n{bad}\n");
            let err = table_from_text(&seal(text)).unwrap_err();
            assert!(
                matches!(err, ModelParseError::BadLine { line: l, .. } if l == line),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn table_comments_and_blank_lines_ignored() {
        let text = format!(
            "{TABLE_HEADER_V2}\n# warm-start state\n\nkernel 4 alpha 0.25 weight 10 seen 2\n"
        );
        let back = table_from_text(&seal(text)).unwrap();
        assert_eq!(back.lookup(4), Some(0.25));
        assert_eq!(
            back.stat(4).unwrap(),
            AlphaStat {
                alpha: 0.25,
                weight: 10.0,
                invocations_seen: 2
            }
        );
    }

    /// FNV-1a digests of every persisted format over edge values — NaN,
    /// ±inf, −0.0, the least subnormal, `f64::MAX`, `u64::MAX` ids and
    /// counts — taken at the commit before the writers moved onto
    /// `LineWriter`. A new literal means a persisted byte moved.
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
        let breakers = [
            BreakerState::Closed,
            BreakerState::Open,
            BreakerState::HalfOpen,
        ];

        let mut texts = vec![model_to_text(&model), table_to_text(&table)];
        for (breaker, generation) in breakers.into_iter().zip([0, 4, u64::MAX]) {
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
        for breaker in breakers {
            texts.push(JournalRecord::Breaker(breaker).to_line());
        }
        let digests: Vec<u64> = texts.iter().map(|t| fnv1a64(t.as_bytes())).collect();
        let parent: [u64; 15] = [
            0x7769_0068_9747_1c90, // model
            0x88d2_dca6_305e_b9c1, // v2 table
            0x94fb_a4ed_3c7a_1b0c, // v3 snapshots, one per breaker state
            0x6bd3_a3c7_5b4f_7483,
            0x3d35_cfdd_275d_2673,
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
    fn snapshot_text_is_stable_and_checksummed() {
        let table = learned_table();
        table.taint(900);
        let text = snapshot_to_text(&table, BreakerState::Open, 7);
        assert!(text.starts_with("easched-kernel-table v3\ngeneration 7\nbreaker 1\n"));
        let last = text.lines().last().unwrap();
        assert!(last.starts_with("checksum "), "{last}");
        let (back, breaker, generation) = parse_snapshot(text.as_bytes()).unwrap();
        assert_eq!(back.snapshot(), table.snapshot());
        assert!(back.is_tainted(900));
        assert_eq!(breaker, BreakerState::Open);
        assert_eq!(generation, 7);
    }

    /// The readers this module had before it moved onto `Fields`, kept as
    /// the oracle the new ones are held to (`readers_agree_with_the_parent`).
    #[allow(clippy::disallowed_methods)] // the parent's readers split by hand
    mod parent {
        use super::*;
        use std::str::{FromStr, SplitWhitespace};

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

    /// What a table walk read, or the line it refused (the messages are
    /// free to differ).
    fn table_outcome(
        read: Result<(KernelTable, BreakerState, u64), ModelParseError>,
    ) -> Result<String, usize> {
        match read {
            Ok((table, breaker, generation)) => Ok(format!(
                "{:?} {breaker:?} {generation}",
                table.snapshot_with_taint()
            )),
            Err(ModelParseError::BadLine { line, .. }) => Err(line),
            Err(e) => panic!("a table walk refuses lines only: {e}"),
        }
    }

    /// The header body the writer produces for `generation`.
    fn written_header(generation: u64) -> String {
        let line = journal_header(generation);
        unseal(line.trim_end()).unwrap().to_string()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Every record reader accepts what the parent's accepted and reads
        /// the same value: the entry list in its three carriers (v2 table,
        /// v3 snapshot, journal `put`), the other table and journal
        /// records, `curve`, `platform`, the checksum trailer and the
        /// journal header. The exceptions are lines no writer produces
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
            for (v3, header) in [(false, TABLE_HEADER_V2), (true, TABLE_HEADER_V3)] {
                let body = format!("{header}\n{}\n", lines.join("\n"));
                let head = table_outcome(parse_table_body(&body, v3));
                let old = table_outcome(parent::parse_table_body(&body, v3));
                if let (Err(line), true) = (head.clone(), head != old) {
                    // The parent read no further than the value of a v3
                    // `generation` or `breaker` record.
                    let record = body.lines().nth(line - 1).unwrap_or_default();
                    #[allow(clippy::disallowed_methods)] // read as the parent read it
                    let words: Vec<&str> = record.split_whitespace().collect();
                    let state = matches!(words[..], ["generation" | "breaker", _, _, ..]);
                    prop_assert!(v3 && state, "{:?} != {:?}: {:?}", head, old, body);
                } else {
                    prop_assert_eq!(head, old, "{:?}", body);
                }
            }
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

            let covered = format!("{TABLE_HEADER_V2}\nkernel 1 alpha 0 weight 0 seen 0\n");
            let digest = format!("{:016x}", fnv1a64(covered.as_bytes()));
            let digest = if upper { digest.to_uppercase() } else { digest };
            let text = covered + &trailer.replace("DIGEST", &digest);
            prop_assert_eq!(
                format!("{:?}", verify_sealed(&text, TABLE_HEADER_V2)),
                format!("{:?}", parent::verify_sealed(&text, TABLE_HEADER_V2)),
                "{:?}", text
            );

            let (head, old) = (journal_generation(&header), parent::journal_generation(&header));
            if head != old {
                for generation in head.into_iter().chain(old) {
                    prop_assert_ne!(written_header(generation), header.clone());
                }
            }
        }
    }

    /// The two places the readers part, both on lines no writer
    /// produces. The journal header: the parent matched the prefix
    /// `easched-table-journal v1` byte for byte, then trimmed blanks
    /// before `gen `, while `Fields` reads four words split by any blanks.
    /// A v3 `generation` or `breaker` record: the parent ignored the
    /// words after its value, while `Fields::parse` refuses a word left
    /// unread, as every other record reader did already.
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
        for record in ["generation 4 5", "breaker 1 x", "generation 4 # note"] {
            let body = format!("{TABLE_HEADER_V3}\n{record}\n");
            let head = parse_table_body(&body, true).map(|(_, _, generation)| generation);
            assert!(
                matches!(head, Err(ModelParseError::BadLine { line: 2, .. })),
                "{record}"
            );
            assert!(parent::parse_table_body(&body, true).is_ok(), "{record}");
        }
    }
}
