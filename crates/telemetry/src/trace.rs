//! Chrome-trace export of the decision stream, loadable in Perfetto or
//! `chrome://tracing`.
//!
//! The format is the Trace Event JSON array with **one event object per
//! line** (JSONL-style), so the file both loads in a trace viewer and
//! streams through line-oriented tools. Each invocation becomes one
//! complete (`"ph":"X"`) event on its kernel's track; every
//! [`DecisionRecord`] field rides along in `args`, with floats printed in
//! Rust's shortest round-trip decimal form, so the file carries each
//! record exactly.
//!
//! Timestamps are *virtual*: each kernel's invocations are laid end to
//! end from zero on its own track, using the realized (simulated)
//! durations. The viewer shows where time and profiling overhead went,
//! not wall-clock interleaving.

use crate::record::DecisionRecord;
use crate::span::Span;
use std::collections::HashMap;

/// Serializes records as a Chrome-trace JSON array, one event per line.
pub(crate) fn to_trace(records: &[DecisionRecord]) -> String {
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
/// the decision events as one track per kernel (pid 1, one
/// track per kernel) plus the span forest as nested duration events
/// (pid 2, one track per trace, `"cat":"span"`). Span ts/dur come from
/// the sink-rebased starts, so the admit → queue-wait → decide →
/// cpu-phase/gpu-phase → fold chain of each request renders nested on
/// its own track; every span field rides exactly in `args`.
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
/// form, so they ride as the strings `"NaN"`/`"inf"`/`"-inf"`.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::InvocationPath;
    use crate::span::SpanKind;

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

    /// FNV-1a, 64-bit: the digest the workspace's pinned-bytes tests use.
    fn fnv1a64(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The writer's bytes, pinned at the commit before the trace parsers
    /// were deleted: every field of every path the writer takes — `null`
    /// bytes, NaN and ±inf floats, records beside spans — as it wrote them
    /// when a parser read each back bit for bit.
    #[test]
    fn trace_bytes_match_the_parent_commit() {
        let records = [
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
        let non_finite = DecisionRecord {
            profile_time: f64::NAN,
            split_time: f64::INFINITY,
            r_c: f64::NEG_INFINITY,
            ..sample(0, 1)
        };
        let spans = [
            sample_span(0, 0xDEAD, SpanKind::Decide),
            Span {
                dur: f64::NAN,
                payload: f64::NEG_INFINITY,
                ..sample_span(1, 0xDEAD, SpanKind::CpuPhase)
            },
            sample_span(2, 0xBEEF, SpanKind::Fold),
        ];
        let combined = (
            [sample(0, 0xAA), sample(1, 0xBB)],
            [
                sample_span(0, 0x11, SpanKind::Admit),
                sample_span(1, 0x11, SpanKind::QueueWait),
                sample_span(2, 0x22, SpanKind::GpuPhase),
            ],
        );
        let digests = [
            to_trace(&records),
            to_trace(&[non_finite]),
            to_trace_with_spans(&[], &spans),
            to_trace_with_spans(&combined.0, &combined.1),
        ]
        .map(|text| fnv1a64(text.as_bytes()));
        let parent = [
            0x535f_4627_115e_4cee,
            0x738f_a4f6_ca1a_499b,
            0xce16_aed4_ee19_1761,
            0x2ec5_fe81_77e0_a8a9,
        ];
        assert_eq!(digests, parent, "{digests:#018x?}");
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
    fn non_finite_floats_keep_the_trace_valid_json() {
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
        let span = Span {
            dur: f64::NAN,
            ..sample_span(0, 1, SpanKind::CpuPhase)
        };
        let text = to_trace_with_spans(&[], &[span]);
        assert!(!text.contains("\"ts\":NaN") && !text.contains("\"dur\":NaN"));
    }

    #[test]
    fn spans_ride_their_own_pid_one_track_per_trace() {
        let records = [sample(0, 0xAA), sample(1, 0xBB)];
        let spans = [
            sample_span(0, 0x11, SpanKind::Admit),
            sample_span(1, 0x11, SpanKind::QueueWait),
            sample_span(2, 0x22, SpanKind::GpuPhase),
        ];
        let text = to_trace_with_spans(&records, &spans);
        // pid 1 carries the kernels, pid 2 the traces; each trace gets a
        // thread-name metadata line.
        assert_eq!(text.matches("\"pid\":2").count(), 3 + 2, "{text}");
        assert!(text.contains("trace 0x11") && text.contains("trace 0x22"));
    }

    #[test]
    fn spans_without_records_still_form_a_json_array() {
        let text = to_trace_with_spans(&[], &[sample_span(0, 1, SpanKind::Decide)]);
        assert!(text.starts_with("[\n") && text.ends_with("\n]\n"), "{text}");
    }
}
