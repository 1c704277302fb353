//! The fleet's bytes, pinned across commits: a recorded v3 log and one
//! frame of each kind, with digests taken from the commit before the
//! sealed-line writer replaced `format!`. The fabric tears a frame at
//! `rng % frame.len()`, so one moved byte would shift every fault after it
//! in every recorded fleet run — and nothing that compares a build with
//! itself would notice.

use easched_core::fnv1a64;
use easched_fleet::{run_fleet, Envelope, FleetSpec, Frame, Op};

#[test]
fn fleet_log_bytes_are_the_recorded_ones() {
    let report = run_fleet(&FleetSpec::three_nodes(7)).expect("fleet runs");
    let text = report.log.to_text();
    assert_eq!(text.lines().count(), 25);
    assert_eq!(fnv1a64(text.as_bytes()), 0x2df0_842d_a4d0_8b38);
}

/// 64 envelopes over every field shape the grammar has: a NaN payload,
/// -0.0, both infinities, a taint, the extremes of each integer, and a
/// platform name the writer must squash whitespace out of.
fn entries_frame() -> Frame {
    let floats = [
        f64::from_bits(0x7ff8_0000_dead_beef),
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.65,
        f64::MIN_POSITIVE,
    ];
    let platforms = [
        "haswell-desktop",
        "bay trail\ttablet",
        "skylake\u{a0}minipc",
    ];
    let envelopes = (0..64u64)
        .map(|i| Envelope {
            origin: [0, 7, u16::MAX][i as usize % 3],
            platform: platforms[i as usize % 3].to_string(),
            generation: [1, 2, u64::MAX][i as usize % 3],
            seq: i * i + 1,
            op: if i % 8 == 5 {
                Op::Taint {
                    kernel: i.wrapping_mul(0x9e37_79b9_7f4a_7c15),
                }
            } else {
                Op::Put {
                    kernel: 100 + i % 4,
                    alpha: floats[i as usize % 6],
                    weight: floats[(i as usize + 1) % 6],
                    seen: if i == 63 { u64::MAX } else { i },
                    tainted: i % 5 == 0,
                }
            },
        })
        .collect();
    Frame::entries(3, u16::MAX, envelopes)
}

#[test]
fn entries_frame_bytes_are_the_recorded_ones() {
    let text = entries_frame().encode();
    assert_eq!(text.lines().count(), 66);
    assert_eq!(text.len(), 7011);
    assert_eq!(fnv1a64(text.as_bytes()), 0x2af3_4576_ee04_9936);
    assert_eq!(Frame::decode(&text).map(|f| f.encode()), Ok(text));
}

#[test]
fn request_frame_bytes_are_the_recorded_ones() {
    let wants = (0..30u64)
        .map(|i| (i as u16 * 2_259, i % 3 + 1, (1 << (2 * i)) - 1))
        .collect();
    let text = Frame::request(29, 0, wants).encode();
    assert_eq!(text.lines().count(), 32);
    assert_eq!(text.len(), 1394);
    assert_eq!(fnv1a64(text.as_bytes()), 0x4034_4b72_f32f_237b);
    assert_eq!(Frame::decode(&text).map(|f| f.encode()), Ok(text));
}
