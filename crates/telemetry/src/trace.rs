//! Chrome-trace export of the decision stream, loadable in Perfetto or
//! `chrome://tracing`, and the matching parser used by the post-hoc
//! analyzer.
//!
//! The format is the Trace Event JSON array with **one event object per
//! line** (JSONL-style), so the file both loads in a trace viewer and
//! streams through line-oriented tools. Each invocation becomes one
//! complete (`"ph":"X"`) event on its kernel's track; every
//! [`DecisionRecord`] field rides along in `args`, with floats printed in
//! Rust's shortest round-trip decimal form so
//! [`parse_trace`] reconstructs records bit-for-bit —
//! `parse_trace(&to_trace(&records))` equals `records`.
//!
//! Timestamps are *virtual*: each kernel's invocations are laid end to
//! end from zero on its own track, using the realized (simulated)
//! durations. The viewer shows where time and profiling overhead went,
//! not wall-clock interleaving.

use crate::record::{DecisionRecord, InvocationPath};
use crate::span::{Span, SpanKind};
use std::collections::HashMap;
use std::fmt;

/// Why a trace line failed to parse back into a [`DecisionRecord`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number in the trace text.
    pub line: usize,
    /// What was wrong with it.
    pub reason: String,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for TraceParseError {}

/// Serializes records as a Chrome-trace JSON array, one event per line.
pub fn to_trace(records: &[DecisionRecord]) -> String {
    let mut out = String::with_capacity(records.len() * 360 + 64);
    out.push_str("[\n");
    // Dense per-kernel track ids in order of first appearance, plus a
    // cursor laying each kernel's invocations end to end.
    let mut tracks: HashMap<u64, (u64, f64)> = HashMap::new();
    let mut first = true;
    for r in records {
        let new_track = !tracks.contains_key(&r.kernel);
        let next_tid = tracks.len() as u64 + 1;
        // A fault-corrupted record can carry non-finite phase totals;
        // those draw as zero-length events so ts/dur stay valid JSON.
        let duration = if r.total_time().is_finite() {
            r.total_time()
        } else {
            0.0
        };
        let (tid, cursor) = {
            let entry = tracks.entry(r.kernel).or_insert((next_tid, 0.0));
            let at = entry.1;
            entry.1 += duration;
            (entry.0, at)
        };
        if !first {
            out.push_str(",\n");
        }
        if new_track {
            // First event on this track: name it after the kernel.
            out.push_str(&format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"name\":\"kernel {:#x}\"}}}},\n",
                r.kernel
            ));
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"eas\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{{}}}}}",
            r.path.as_str(),
            cursor * 1e6,
            duration * 1e6,
            args_json(r),
        ));
        first = false;
    }
    out.push_str("\n]\n");
    out
}

/// Serializes records *and* causal spans into one Chrome-trace file:
/// the decision events exactly as [`to_trace`] lays them (pid 1, one
/// track per kernel) plus the span forest as nested duration events
/// (pid 2, one track per trace, `"cat":"span"`). Span ts/dur come from
/// the sink-rebased starts, so the admit → queue-wait → decide →
/// cpu-phase/gpu-phase → fold chain of each request renders nested on
/// its own track; every span field rides bit-exactly in `args`, so
/// [`parse_spans`] round-trips the span stream the way
/// [`parse_trace`] round-trips the records.
pub fn to_trace_with_spans(records: &[DecisionRecord], spans: &[Span]) -> String {
    let base = to_trace(records);
    if spans.is_empty() {
        return base;
    }
    // Splice span lines in before the closing bracket.
    let mut out = base.strip_suffix("\n]\n").unwrap_or(&base).to_string();
    let had_events = !records.is_empty();
    let mut tracks: HashMap<u64, u64> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if had_events || i > 0 {
            out.push_str(",\n");
        }
        let next_tid = tracks.len() as u64 + 1;
        let new_track = !tracks.contains_key(&s.trace);
        let tid = *tracks.entry(s.trace).or_insert(next_tid);
        if new_track {
            out.push_str(&format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":{tid},\
                 \"args\":{{\"name\":\"trace {:#x}\"}}}},\n",
                s.trace
            ));
        }
        let ts = if s.start.is_finite() { s.start } else { 0.0 };
        let dur = if s.dur.is_finite() && s.dur > 0.0 {
            s.dur
        } else {
            0.0
        };
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"X\",\"pid\":2,\"tid\":{tid},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"seq\":{},\"trace\":{},\"kernel\":{},\
             \"id\":{},\"parent\":{},\"tenant\":{},\"start\":{},\"dur_s\":{},\"payload\":{}}}}}",
            s.kind.as_str(),
            ts * 1e6,
            dur * 1e6,
            s.seq,
            s.trace,
            s.kernel,
            s.id,
            s.parent,
            s.tenant,
            json_f64(s.start),
            json_f64(s.dur),
            json_f64(s.payload),
        ));
    }
    out.push_str("\n]\n");
    out
}

/// The `args` payload: every record field, floats in shortest
/// round-trip decimal form.
fn args_json(r: &DecisionRecord) -> String {
    format!(
        "\"seq\":{},\"kernel\":{},\"path\":\"{}\",\"class\":{},\"breaker\":{},\
         \"last_fault\":{},\"rounds\":{},\"fault_rounds\":{},\"r_c\":{},\"r_g\":{},\
         \"alpha\":{},\"pred_power\":{},\"pred_time\":{},\"pred_obj\":{},\
         \"profile_time\":{},\"profile_energy\":{},\"split_time\":{},\
         \"split_energy\":{},\"items\":{},\"decide_ns\":{}",
        r.seq,
        r.kernel,
        r.path.as_str(),
        opt_byte(r.class),
        r.breaker,
        opt_byte(r.last_fault),
        r.rounds,
        r.fault_rounds,
        json_f64(r.r_c),
        json_f64(r.r_g),
        json_f64(r.alpha),
        json_f64(r.predicted_power),
        json_f64(r.predicted_time),
        json_f64(r.predicted_objective),
        json_f64(r.profile_time),
        json_f64(r.profile_energy),
        json_f64(r.split_time),
        json_f64(r.split_energy),
        r.items,
        r.decide_nanos,
    )
}

fn opt_byte(v: Option<u8>) -> String {
    match v {
        Some(b) => b.to_string(),
        None => "null".into(),
    }
}

/// Rust's `Display` for finite floats is the shortest decimal that
/// round-trips and never uses exponent notation, which is exactly valid
/// JSON. Non-finite values — which fault-corrupted records *do* contain
/// (a NaN observation poisons its phase total) — have no JSON number
/// form, so they ride as the strings `"NaN"`/`"inf"`/`"-inf"` and parse
/// back to the matching non-finite value.
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v.is_nan() {
        "\"NaN\"".into()
    } else if v > 0.0 {
        "\"inf\"".into()
    } else {
        "\"-inf\"".into()
    }
}

/// Parses a trace produced by [`to_trace`] back into records, in file
/// order. Tolerates the array brackets, trailing commas, and skips
/// metadata (`"ph":"M"`) events.
pub fn parse_trace(text: &str) -> Result<Vec<DecisionRecord>, TraceParseError> {
    let mut out = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim().trim_end_matches(',');
        if line.is_empty() || line == "[" || line == "]" {
            continue;
        }
        if line.contains("\"ph\":\"M\"") || line.contains("\"cat\":\"span\"") {
            continue;
        }
        let err = |reason: &str| TraceParseError {
            line: idx + 1,
            reason: reason.to_string(),
        };
        let path_str = str_field(line, "path").ok_or_else(|| err("missing path"))?;
        let path = InvocationPath::parse(path_str)
            .ok_or_else(|| err(&format!("unknown path {path_str:?}")))?;
        let record = DecisionRecord {
            seq: int_field(line, "seq").ok_or_else(|| err("missing seq"))?,
            kernel: int_field(line, "kernel").ok_or_else(|| err("missing kernel"))?,
            path,
            class: byte_field(line, "class").ok_or_else(|| err("missing class"))?,
            breaker: int_field(line, "breaker").ok_or_else(|| err("missing breaker"))?,
            last_fault: byte_field(line, "last_fault").ok_or_else(|| err("missing last_fault"))?,
            rounds: int_field(line, "rounds").ok_or_else(|| err("missing rounds"))?,
            fault_rounds: int_field(line, "fault_rounds")
                .ok_or_else(|| err("missing fault_rounds"))?,
            r_c: f64_field(line, "r_c").ok_or_else(|| err("missing r_c"))?,
            r_g: f64_field(line, "r_g").ok_or_else(|| err("missing r_g"))?,
            alpha: f64_field(line, "alpha").ok_or_else(|| err("missing alpha"))?,
            predicted_power: f64_field(line, "pred_power")
                .ok_or_else(|| err("missing pred_power"))?,
            predicted_time: f64_field(line, "pred_time").ok_or_else(|| err("missing pred_time"))?,
            predicted_objective: f64_field(line, "pred_obj")
                .ok_or_else(|| err("missing pred_obj"))?,
            profile_time: f64_field(line, "profile_time")
                .ok_or_else(|| err("missing profile_time"))?,
            profile_energy: f64_field(line, "profile_energy")
                .ok_or_else(|| err("missing profile_energy"))?,
            split_time: f64_field(line, "split_time").ok_or_else(|| err("missing split_time"))?,
            split_energy: f64_field(line, "split_energy")
                .ok_or_else(|| err("missing split_energy"))?,
            items: int_field(line, "items").ok_or_else(|| err("missing items"))?,
            decide_nanos: int_field(line, "decide_ns").ok_or_else(|| err("missing decide_ns"))?,
        };
        out.push(record);
    }
    Ok(out)
}

/// Parses the span events out of a trace produced by
/// [`to_trace_with_spans`], in file order, ignoring decision events and
/// metadata. `parse_spans(&to_trace_with_spans(&[], &spans))` equals
/// `spans` bit-for-bit (the authoritative `start`/`dur` ride in `args`,
/// not in the viewer's clamped `ts`/`dur`).
pub fn parse_spans(text: &str) -> Result<Vec<Span>, TraceParseError> {
    let mut out = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.trim().trim_end_matches(',');
        if !line.contains("\"cat\":\"span\"") || line.contains("\"ph\":\"M\"") {
            continue;
        }
        let err = |reason: &str| TraceParseError {
            line: idx + 1,
            reason: reason.to_string(),
        };
        let name = str_field(line, "name").ok_or_else(|| err("missing name"))?;
        let kind = SpanKind::parse(name).ok_or_else(|| err(&format!("unknown kind {name:?}")))?;
        out.push(Span {
            seq: int_field(line, "seq").ok_or_else(|| err("missing seq"))?,
            trace: int_field(line, "trace").ok_or_else(|| err("missing trace"))?,
            kernel: int_field(line, "kernel").ok_or_else(|| err("missing kernel"))?,
            id: int_field(line, "id").ok_or_else(|| err("missing id"))?,
            parent: int_field(line, "parent").ok_or_else(|| err("missing parent"))?,
            kind,
            tenant: int_field(line, "tenant").ok_or_else(|| err("missing tenant"))?,
            start: f64_field(line, "start").ok_or_else(|| err("missing start"))?,
            dur: f64_field(line, "dur_s").ok_or_else(|| err("missing dur_s"))?,
            payload: f64_field(line, "payload").ok_or_else(|| err("missing payload"))?,
        });
    }
    Ok(out)
}

/// The raw value text of `"key":<value>` in a one-line JSON object. Our
/// values are numbers, `null`, or plain strings without escapes, so the
/// value ends at the next `,`, `}`, or (for strings) closing quote.
fn raw_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    raw_field(line, key)?
        .strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
}

/// An integer field, parsed at the width of the record field it fills: a
/// value that does not fit is as unusable as one that is absent.
fn int_field<T: std::str::FromStr>(line: &str, key: &str) -> Option<T> {
    raw_field(line, key)?.parse().ok()
}

fn byte_field(line: &str, key: &str) -> Option<Option<u8>> {
    match raw_field(line, key)? {
        "null" => Some(None),
        v => v.parse().ok().map(Some),
    }
}

fn f64_field(line: &str, key: &str) -> Option<f64> {
    match raw_field(line, key)? {
        "null" => Some(0.0),
        "\"NaN\"" => Some(f64::NAN),
        "\"inf\"" => Some(f64::INFINITY),
        "\"-inf\"" => Some(f64::NEG_INFINITY),
        v => v.parse().ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seq: u64, kernel: u64) -> DecisionRecord {
        DecisionRecord {
            seq,
            kernel,
            path: InvocationPath::Profiled,
            class: Some(3),
            breaker: 0,
            last_fault: None,
            rounds: 4,
            fault_rounds: 0,
            r_c: 1.0e6 / 3.0,
            r_g: std::f64::consts::E,
            alpha: 0.7,
            predicted_power: 41.125,
            predicted_time: 0.001953125,
            predicted_objective: 8.031e-5,
            profile_time: 0.0001,
            profile_energy: 0.004,
            split_time: 0.0019,
            split_energy: 0.081,
            items: 123_456,
            decide_nanos: 1_850,
        }
    }

    #[test]
    fn trace_roundtrips_bit_for_bit() {
        let records = vec![
            sample(0, 0xAA),
            DecisionRecord {
                path: InvocationPath::TableHit,
                class: None,
                ..sample(1, 0xAA)
            },
            DecisionRecord {
                path: InvocationPath::Degraded,
                last_fault: Some(2),
                fault_rounds: 5,
                ..sample(2, 0xBB)
            },
        ];
        let text = to_trace(&records);
        let parsed = parse_trace(&text).expect("trace must parse");
        assert_eq!(parsed, records);
    }

    #[test]
    fn trace_is_a_json_array_with_one_event_per_line() {
        let text = to_trace(&[sample(0, 1), sample(1, 2)]);
        assert!(text.starts_with("[\n"));
        assert!(text.ends_with("\n]\n"));
        // Every interior line is a single JSON object (metadata or event).
        for line in text.lines() {
            let line = line.trim().trim_end_matches(',');
            if line == "[" || line == "]" || line.is_empty() {
                continue;
            }
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        // Two kernels → two thread-name metadata events, two X events.
        assert_eq!(text.matches("\"ph\":\"M\"").count(), 2);
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 2);
    }

    #[test]
    fn same_kernel_events_lay_end_to_end_on_one_track() {
        let a = sample(0, 7);
        let b = sample(1, 7);
        let text = to_trace(&[a, b]);
        assert_eq!(text.matches("\"ph\":\"M\"").count(), 1, "one track");
        let expected_ts = (a.total_time() * 1e6 * 1000.0).round() / 1000.0;
        assert!(
            text.contains(&format!("\"ts\":{expected_ts:.3}")),
            "second event starts where the first ended:\n{text}"
        );
    }

    #[test]
    fn non_finite_floats_survive_the_trace() {
        let r = DecisionRecord {
            profile_time: f64::NAN,
            split_time: f64::INFINITY,
            r_c: f64::NEG_INFINITY,
            ..sample(0, 1)
        };
        let text = to_trace(&[r]);
        // ts/dur must stay valid JSON numbers even with poisoned totals.
        assert!(
            text.contains("\"ts\":0.000") && text.contains("\"dur\":0.000"),
            "{text}"
        );
        assert!(!text.contains(":NaN") && !text.contains(":inf"), "{text}");
        let parsed = parse_trace(&text).expect("must stay parseable");
        assert_eq!(parsed.len(), 1);
        assert!(parsed[0].profile_time.is_nan());
        assert_eq!(parsed[0].split_time, f64::INFINITY);
        assert_eq!(parsed[0].r_c, f64::NEG_INFINITY);
        // PartialEq can't see NaN == NaN; the bit-level check can.
        assert!(parsed[0].bitwise_eq(&r));
    }

    fn sample_span(seq: u64, trace: u64, kind: SpanKind) -> Span {
        Span {
            seq,
            trace,
            kernel: 0xAB,
            id: seq as u16 + 1,
            parent: seq as u16,
            kind,
            tenant: 3,
            start: 0.25 * seq as f64,
            dur: 0.125,
            payload: 1.5,
        }
    }

    #[test]
    fn spans_roundtrip_bit_for_bit_including_non_finite() {
        let spans = vec![
            sample_span(0, 0xDEAD, SpanKind::Decide),
            Span {
                dur: f64::NAN,
                payload: f64::NEG_INFINITY,
                ..sample_span(1, 0xDEAD, SpanKind::CpuPhase)
            },
            sample_span(2, 0xBEEF, SpanKind::Fold),
        ];
        let text = to_trace_with_spans(&[], &spans);
        let parsed = parse_spans(&text).expect("spans must parse");
        assert_eq!(parsed.len(), spans.len());
        for (p, s) in parsed.iter().zip(&spans) {
            assert!(p.bitwise_eq(s), "{p:?} vs {s:?}");
        }
        // Viewer-facing ts/dur stay valid JSON numbers despite the NaN.
        assert!(!text.contains("\"ts\":NaN") && !text.contains("\"dur\":NaN"));
    }

    #[test]
    fn combined_trace_parses_both_ways() {
        let records = vec![sample(0, 0xAA), sample(1, 0xBB)];
        let spans = vec![
            sample_span(0, 0x11, SpanKind::Admit),
            sample_span(1, 0x11, SpanKind::QueueWait),
            sample_span(2, 0x22, SpanKind::GpuPhase),
        ];
        let text = to_trace_with_spans(&records, &spans);
        // The record parser ignores span lines; the span parser ignores
        // record lines. Both reconstruct their stream exactly.
        assert_eq!(parse_trace(&text).expect("records"), records);
        let parsed = parse_spans(&text).expect("spans");
        assert_eq!(parsed.len(), 3);
        for (p, s) in parsed.iter().zip(&spans) {
            assert!(p.bitwise_eq(s));
        }
        // pid 1 carries the kernels, pid 2 the traces; each trace gets a
        // thread-name metadata line.
        assert_eq!(text.matches("\"pid\":2").count(), 3 + 2, "{text}");
        assert!(text.contains("trace 0x11") && text.contains("trace 0x22"));
    }

    #[test]
    fn spans_without_records_still_form_a_json_array() {
        let text = to_trace_with_spans(&[], &[sample_span(0, 1, SpanKind::Decide)]);
        assert!(text.starts_with("[\n") && text.ends_with("\n]\n"), "{text}");
        assert_eq!(parse_trace(&text).expect("no records"), vec![]);
    }

    #[test]
    fn parse_rejects_garbage_with_line_numbers() {
        let err = parse_trace("[\n{\"ph\":\"X\",\"args\":{}}\n]\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.reason.contains("path"));
        // A value wider than its field is refused, not truncated to 0.
        let wide = to_trace(&[sample(0, 1)]).replace("\"breaker\":0", "\"breaker\":256");
        let err = parse_trace(&wide).unwrap_err();
        assert_eq!(err.line, 3, "{wide}");
        assert!(err.reason.contains("breaker"));
        let wide = to_trace_with_spans(&[], &[sample_span(0, 1, SpanKind::Decide)])
            .replace("\"tenant\":3", "\"tenant\":65539");
        assert!(parse_spans(&wide).unwrap_err().reason.contains("tenant"));
    }
}
