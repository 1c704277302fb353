//! The run log's bytes, pinned across commits. Every other gate compares
//! a build with itself (record, then replay); these digests were taken
//! from the commit before the sealed-line writer replaced `format!`, so a
//! moved byte in any v1 or v2 line fails here even when writer and reader
//! move together.

use easched_replay::{record_chaos_storm, record_overload_storm, OverloadSpec, StormSpec};
use easched_runtime::fnv1a64;

#[test]
fn chaos_storm_log_bytes_are_the_recorded_ones() {
    let spec = StormSpec {
        rounds: 8,
        ..StormSpec::new(7)
    };
    let text = record_chaos_storm(&spec).log.to_text();
    assert_eq!(text.lines().count(), 2215);
    assert_eq!(fnv1a64(text.as_bytes()), 0x035f_1fe6_1801_6c61);
}

#[test]
fn overload_storm_log_bytes_are_the_recorded_ones() {
    let spec = OverloadSpec {
        ticks: 8,
        ..OverloadSpec::new(7)
    };
    let text = record_overload_storm(&spec).log.to_text();
    assert_eq!(text.lines().count(), 4573);
    assert_eq!(fnv1a64(text.as_bytes()), 0x792d_4844_5711_9e65);
}
