//! Property tests for the span wire codec (DESIGN.md §14).
//!
//! Spans carry chaos-era floats — NaN durations from corrupted
//! observations included — through the seqlock ring's fixed-width word
//! encoding, which must be lossless: bit-for-bit for *every* payload bit
//! pattern (floats ride as raw bits).

use easched_telemetry::{Span, SpanKind};
use proptest::prelude::*;

fn arb_kind() -> impl Strategy<Value = SpanKind> {
    (0u8..7).prop_map(|c| SpanKind::from_code(c).expect("codes 0..7 are the span kinds"))
}

/// Full bit-pattern float coverage — infinities and every NaN payload.
fn arb_f64() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(f64::from_bits)
}

fn arb_span() -> impl Strategy<Value = Span> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u16>(), any::<u16>(), arb_kind(), any::<u16>()),
        (arb_f64(), arb_f64(), arb_f64()),
    )
        .prop_map(
            |((seq, trace, kernel), (id, parent, kind, tenant), (start, dur, payload))| Span {
                seq,
                trace,
                kernel,
                id,
                parent,
                kind,
                tenant,
                start,
                dur,
                payload,
            },
        )
}

proptest! {
    /// Ring wire codec: encode → decode is the identity for every bit
    /// pattern, NaN payloads included.
    #[test]
    fn span_words_roundtrip_bit_for_bit(span in arb_span()) {
        let decoded = Span::decode(span.seq, &span.encode());
        prop_assert!(decoded.bitwise_eq(&span), "{decoded:?} != {span:?}");
    }
}
