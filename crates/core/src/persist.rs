//! Power-model and kernel-table persistence: every byte either one puts
//! on disk is formatted and parsed here, and nowhere else.
//!
//! The characterization step is "computed once for each processor"
//! (abstract): on a real deployment the fitted model is saved and reloaded
//! on every subsequent run. The format is a small line-oriented text file —
//! stable, diffable, and dependency-free:
//!
//! ```text
//! easched-power-model v2
//! platform haswell-desktop
//! curve 0 rmse 0.169 samples 21 coeffs 32.55 -0.95 ...
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
//! # One entry grammar, three carriers
//!
//! A table entry is the field list `<id> alpha <a> weight <w> seen <n>`,
//! followed by `tainted <0|1>` in the formats that carry taint. It has one
//! writer and one strict parser here (α in [0, 1], weight finite and
//! non-negative, no trailing tokens — for every version) under three
//! carriers: the whole-file table above (v1/v2, no taint), and the two
//! files of the crash-safe store in [`journal`](crate::journal), which
//! holds the recovery rules and the degrade state machine but no grammar.
//! Its snapshot is v2 extended with generation, breaker, and taint state
//! under the same trailing-checksum envelope:
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
//! Version 2 appends a trailing `checksum` line: an FNV-1a 64-bit digest
//! over every byte that precedes it. A model or table file truncated by a
//! crashed writer or corrupted at rest fails
//! [`ModelParseError::MissingChecksum`] /
//! [`ModelParseError::ChecksumMismatch`] instead of silently warm-starting
//! the scheduler with damaged ratios — loading never panics. Version-1
//! files (no checksum) are still accepted for migration.

use crate::classify::WorkloadClass;
use crate::health::BreakerState;
use crate::kernel_table::{AlphaStat, KernelTable};
use crate::power_model::{PowerCurve, PowerModel};
use easched_num::Polynomial;
pub use easched_runtime::sealed::fnv1a64;
use easched_runtime::sealed::{sealed, unseal};
use easched_runtime::KernelId;
use std::error::Error;
use std::fmt::{self, Write as _};
use std::fs;
use std::io;
use std::path::Path;
use std::str::{FromStr, SplitWhitespace};

/// Format header of the legacy (checksum-less) version 1.
const HEADER_V1: &str = "easched-power-model v1";
/// Format header of version 2 (trailing FNV-1a checksum line).
const HEADER_V2: &str = "easched-power-model v2";

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
    /// The file did not contain exactly one curve per class.
    WrongCurveCount(usize),
    /// A version-2 file whose trailing `checksum` line is absent or
    /// unreadable — typically a write truncated by a crash.
    MissingChecksum,
    /// A version-2 file whose bytes do not hash to the recorded checksum —
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

/// Appends the v2 trailing checksum line over everything written so far.
fn seal(mut body: String) -> String {
    let digest = fnv1a64(body.as_bytes());
    body.push_str(&format!("checksum {digest:016x}\n"));
    body
}

/// Validates the envelope of a persisted file and returns the body the
/// record parser should read (header line included, checksum line
/// stripped).
///
/// A v1 header passes through unchecked (legacy files carry no digest); a
/// v2 header requires a well-formed trailing `checksum` line whose digest
/// matches every preceding byte; anything else is [`BadHeader`].
///
/// [`BadHeader`]: ModelParseError::BadHeader
fn verify_envelope<'a>(
    text: &'a str,
    header_v1: &str,
    header_v2: &str,
) -> Result<&'a str, ModelParseError> {
    let header = text.lines().next().unwrap_or("").trim();
    if header == header_v1 {
        return Ok(text);
    }
    verify_sealed(text, header_v2)
}

/// The checksum-required half of [`verify_envelope`]: accepts only files
/// whose first line is exactly `header` and whose trailing `checksum`
/// line digests every preceding byte (also used by the v3 snapshot, which
/// has no unchecked legacy form).
fn verify_sealed<'a>(text: &'a str, header: &str) -> Result<&'a str, ModelParseError> {
    let found = text.lines().next().unwrap_or("").trim();
    if found != header {
        return Err(ModelParseError::BadHeader(found.to_string()));
    }
    // The digest covers everything up to and including the newline that
    // precedes the checksum line, so take the *last* occurrence: any
    // spoofed earlier "checksum" text is just covered bytes.
    let at = text
        .rfind("\nchecksum ")
        .ok_or(ModelParseError::MissingChecksum)?;
    let covered = &text[..=at];
    let mut tokens = text[at + 1..].split_whitespace();
    tokens.next(); // the "checksum" keyword rfind just matched
    let stored = tokens
        .next()
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .ok_or(ModelParseError::MissingChecksum)?;
    if tokens.next().is_some() {
        // Records after the checksum line are not covered by the digest;
        // refuse rather than trust them.
        return Err(ModelParseError::MissingChecksum);
    }
    let computed = fnv1a64(covered.as_bytes());
    if computed != stored {
        return Err(ModelParseError::ChecksumMismatch { computed, stored });
    }
    Ok(covered)
}

/// Serializes a model to the v2 text format (trailing checksum line).
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
    out.push_str(HEADER_V2);
    out.push('\n');
    out.push_str(&format!("platform {}\n", model.platform_name()));
    for curve in model.curves() {
        out.push_str(&format!(
            "curve {} rmse {:e} samples {} coeffs",
            curve.class().index(),
            curve.rmse(),
            curve.samples(),
        ));
        for c in curve.poly().coeffs() {
            // Full round-trip precision.
            out.push_str(&format!(" {c:e}"));
        }
        out.push('\n');
    }
    seal(out)
}

/// The records of a verified body: every line after the header that is
/// neither blank nor a `#` comment, as its 1-based line number and its
/// tokens.
fn records(body: &str) -> impl Iterator<Item = (usize, SplitWhitespace<'_>)> {
    body.lines()
        .enumerate()
        .skip(1) // header, already validated by the envelope check
        .map(|(idx, raw)| (idx + 1, raw.trim()))
        .filter(|(_, line)| !line.is_empty() && !line.starts_with('#'))
        .map(|(line_no, line)| (line_no, line.split_whitespace()))
}

/// Parses the next token as the value called `what`.
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

/// Consumes the next token, which must be `want`.
fn keyword(tokens: &mut SplitWhitespace<'_>, want: &str) -> Result<(), String> {
    match tokens.next() {
        Some(t) if t == want => Ok(()),
        other => Err(format!("expected {want:?}, found {other:?}")),
    }
}

/// Parses the text format: v2 (checksum verified) or legacy v1.
///
/// # Errors
///
/// [`ModelParseError`] on malformed, truncated, or corrupted input.
/// Never panics, whatever the bytes.
pub fn model_from_text(text: &str) -> Result<PowerModel, ModelParseError> {
    let body = verify_envelope(text, HEADER_V1, HEADER_V2)?;
    let mut platform = String::new();
    let mut curves: Vec<PowerCurve> = Vec::new();
    for (line, mut tokens) in records(body) {
        let bad = |message: String| ModelParseError::BadLine { line, message };
        match tokens.next() {
            Some("platform") => {
                platform = tokens.collect::<Vec<_>>().join(" ");
                if platform.is_empty() {
                    return Err(bad("platform name missing".into()));
                }
            }
            Some("curve") => curves.push(parse_curve(&mut tokens).map_err(bad)?),
            other => return Err(bad(format!("unknown record {other:?}"))),
        }
    }
    if curves.len() != 8 {
        return Err(ModelParseError::WrongCurveCount(curves.len()));
    }
    // PowerModel::new validates one-curve-per-class; map its panic into a
    // parse error by checking first.
    let mut seen = [false; 8];
    for c in &curves {
        let i = c.class().index();
        if seen[i] {
            return Err(ModelParseError::WrongCurveCount(curves.len()));
        }
        seen[i] = true;
    }
    Ok(PowerModel::new(platform, curves))
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

/// Format header of the legacy kernel-table format, version 1.
const TABLE_HEADER_V1: &str = "easched-kernel-table v1";
/// Format header of the kernel-table format, version 2 (checksummed).
const TABLE_HEADER_V2: &str = "easched-kernel-table v2";
/// Format header of the store's snapshot, version 3 (generation, breaker
/// and taint state added).
const TABLE_HEADER_V3: &str = "easched-kernel-table v3";
/// Magic prefix of the journal header line.
const JOURNAL_MAGIC: &str = "easched-table-journal v1";

/// The one writer of the entry field list: `<record> <id> alpha <a>
/// weight <w> seen <n>`, then ` tainted <0|1>` when the carrier has taint
/// (`Some`). Floats print with `{:e}` — full round-trip precision.
fn push_entry(
    out: &mut String,
    record: &str,
    kernel: KernelId,
    stat: &AlphaStat,
    tainted: Option<bool>,
) {
    let _ = write!(
        out,
        "{record} {kernel} alpha {:e} weight {:e} seen {}",
        stat.alpha, stat.weight, stat.invocations_seen
    );
    if let Some(tainted) = tainted {
        let _ = write!(out, " tainted {}", u8::from(tainted));
    }
}

/// The one parser of the field list [`push_entry`] wrote, record keyword
/// already consumed; `with_taint` says whether the carrier's version has
/// the `tainted` flag (without it entries read as untainted). Strict for
/// every version: α in [0, 1], nothing after the last field, and a weight
/// that is finite and non-negative — after `inf` the kernel's next
/// [`KernelTable::accumulate`] computes α = NaN, after `NaN` none can
/// ever move its α again.
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
    let mut out = format!("{TABLE_HEADER_V2}\n");
    for (kernel, stat) in table.snapshot() {
        push_entry(&mut out, "kernel", kernel, &stat, None);
        out.push('\n');
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
    let mut out = format!(
        "{TABLE_HEADER_V3}\ngeneration {generation}\nbreaker {}\n",
        breaker.code()
    );
    for (kernel, stat, tainted) in table.snapshot_with_taint() {
        push_entry(&mut out, "kernel", kernel, &stat, Some(tainted));
        out.push('\n');
    }
    seal(out)
}

/// Parses the kernel-table text format: v2 (checksum verified) or legacy
/// v1.
///
/// # Errors
///
/// [`ModelParseError`] on malformed, truncated, or corrupted input
/// (including a duplicated kernel id, which would silently drop learned
/// weight, and a weight no accumulation could recover from). Never
/// panics, whatever the bytes.
pub fn table_from_text(text: &str) -> Result<KernelTable, ModelParseError> {
    let body = verify_envelope(text, TABLE_HEADER_V1, TABLE_HEADER_V2)?;
    parse_table_body(body, false).map(|(table, _, _)| table)
}

/// Parses a snapshot file of any supported version into the table, the
/// breaker state and the generation; v1/v2 load with generation 0, a
/// closed breaker, and no taint state (those formats never carried it).
pub(crate) fn parse_snapshot(
    bytes: &[u8],
) -> Result<(KernelTable, BreakerState, u64), ModelParseError> {
    let text = &*String::from_utf8_lossy(bytes);
    let v3 = text.lines().next().unwrap_or("").trim() == TABLE_HEADER_V3;
    let body = if v3 {
        verify_sealed(text, TABLE_HEADER_V3)?
    } else {
        verify_envelope(text, TABLE_HEADER_V1, TABLE_HEADER_V2)?
    };
    parse_table_body(body, v3)
}

/// The record walk under every table version; `v3` admits the
/// `generation` and `breaker` records and the per-entry taint flag.
fn parse_table_body(
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
        let mut body = String::new();
        match self {
            JournalRecord::Put {
                kernel,
                stat,
                tainted,
            } => push_entry(&mut body, "put", kernel, &stat, Some(tainted)),
            JournalRecord::Taint(kernel) => {
                let _ = write!(body, "taint {kernel}");
            }
            JournalRecord::Breaker(state) => {
                let _ = write!(body, "breaker {}", state.code());
            }
        }
        sealed(&body)
    }

    /// Parses one verified record body.
    fn parse(body: &str) -> Option<JournalRecord> {
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
}

/// The sealed header line that opens a journal of `generation`.
pub(crate) fn journal_header(generation: u64) -> String {
    sealed(&format!("{JOURNAL_MAGIC} gen {generation}"))
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
                    let gen = body
                        .strip_prefix(JOURNAL_MAGIC)?
                        .trim()
                        .strip_prefix("gen ")?
                        .trim()
                        .parse()
                        .ok()?;
                    scan.gen = Some(gen);
                    Some(())
                } else {
                    scan.records.push(JournalRecord::parse(body)?);
                    Some(())
                }
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
    fn rejects_missing_curves() {
        let text = format!("{HEADER_V1}\nplatform x\ncurve 0 rmse 0.1 samples 3 coeffs 1.0 2.0\n");
        let err = model_from_text(&text).unwrap_err();
        assert!(matches!(err, ModelParseError::WrongCurveCount(1)));
    }

    #[test]
    fn rejects_duplicate_class() {
        let mut text = format!("{HEADER_V1}\nplatform x\n");
        for _ in 0..8 {
            text.push_str("curve 3 rmse 0.1 samples 3 coeffs 1.0\n");
        }
        let err = model_from_text(&text).unwrap_err();
        assert!(matches!(err, ModelParseError::WrongCurveCount(_)));
    }

    #[test]
    fn rejects_malformed_fields() {
        for bad in [
            "curve x rmse 0.1 samples 3 coeffs 1.0",
            "curve 9 rmse 0.1 samples 3 coeffs 1.0",
            "curve 0 rmse abc samples 3 coeffs 1.0",
            "curve 0 rmse 0.1 samples 3 coeffs",
            "curve 0 rmse 0.1 coeffs 1.0",
            "mystery 1 2 3",
        ] {
            let text = format!("{HEADER_V1}\nplatform x\n{bad}\n");
            let err = model_from_text(&text).unwrap_err();
            assert!(
                matches!(
                    err,
                    ModelParseError::BadLine { .. } | ModelParseError::WrongCurveCount(_)
                ),
                "{bad}: {err}"
            );
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let model = sample_model();
        let mut text = model_to_text(&model);
        // Editing the body invalidates the digest, so re-seal afterwards —
        // the well-behaved way to hand-annotate a v2 file.
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
    fn legacy_v1_files_still_load() {
        // A v1 file is exactly the v2 body with the old header and no
        // checksum line.
        let v2 = model_to_text(&sample_model());
        let body_end = v2.rfind("checksum").unwrap();
        let v1 = v2[..body_end].replace(HEADER_V2, HEADER_V1);
        let back = model_from_text(&v1).unwrap();
        assert_eq!(back, model_from_text(&v2).unwrap());

        let t2 = table_to_text(&learned_table());
        let t1 = t2[..t2.rfind("checksum").unwrap()].replace(TABLE_HEADER_V2, TABLE_HEADER_V1);
        assert_eq!(
            table_from_text(&t1).unwrap().snapshot(),
            learned_table().snapshot()
        );
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
    use crate::kernel_table::{AlphaStat, KernelTable};

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
        for bad in [
            "kernel x alpha 0.5 weight 1 seen 0",
            "kernel 1 alpha 1.5 weight 1 seen 0",
            "kernel 1 alpha 0.5 weight abc seen 0",
            "kernel 1 alpha 0.5 weight NaN seen 0",
            "kernel 1 alpha 0.5 weight inf seen 0",
            "kernel 1 alpha 0.5 weight -1 seen 0",
            "kernel 1 alpha 0.5 weight 1 seen -3",
            "kernel 1 alpha 0.5 weight 1",
            "kernel 1 weight 1 alpha 0.5 seen 0",
            "mystery 1 2 3",
            "kernel 1 alpha 0.5 weight 1 seen 0\nkernel 1 alpha 0.5 weight 1 seen 0",
        ] {
            let text = format!("{TABLE_HEADER_V1}\n{bad}\n");
            let err = table_from_text(&text).unwrap_err();
            assert!(
                matches!(err, ModelParseError::BadLine { .. }),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn table_comments_and_blank_lines_ignored() {
        let text = format!(
            "{TABLE_HEADER_V1}\n# warm-start state\n\nkernel 4 alpha 0.25 weight 10 seen 2\n"
        );
        let back = table_from_text(&text).unwrap();
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
}
