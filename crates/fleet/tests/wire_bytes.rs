//! The fleet's bytes, pinned across commits: recorded v3 logs and one
//! frame of each kind. The 3-node log and the frames carry digests taken
//! from the commit before the sealed-line writer replaced `format!`; the
//! 30-node and restart logs, from the commit where a delivery pass became
//! a synchronous round: every live inbox is polled before any reply is
//! sent, so the fabric's reorder fault no longer swaps a reply with a
//! frame that had already arrived for a later node, and inbox order in a
//! pass no longer depends on loop nesting (the 3-node log kept its
//! digest). The fabric tears a frame at
//! `rng % frame.len()`, so one moved byte would shift every fault after it
//! in every recorded fleet run — and nothing that compares a build with
//! itself would notice.

use easched_fleet::{run_fleet, CrashPlan, Envelope, FleetSpec, Frame, Op};
use easched_runtime::fnv1a64;

/// The recorded log of `spec`, run over journals of its own under `tag`
/// (a run without a store root shares one per seed): its line count and
/// FNV-1a digest.
fn log_of(tag: &str, mut spec: FleetSpec) -> (usize, u64) {
    let root = std::env::temp_dir().join(format!("fleet-wire-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    spec.store_root = root.clone();
    let report = run_fleet(&spec).expect("fleet runs");
    let _ = std::fs::remove_dir_all(&root);
    assert!(report.converged);
    let text = report.log.to_text();
    (text.lines().count(), fnv1a64(text.as_bytes()))
}

/// `nodes` platforms cycling the three presets, as the benchmark's
/// `fleet_gossip` workload builds its fleet.
fn cycled(seed: u64, nodes: usize, ticks: u64) -> FleetSpec {
    let mut spec = FleetSpec::three_nodes(seed);
    let presets = spec.platforms.clone();
    spec.platforms = (0..nodes).map(|i| presets[i % 3].clone()).collect();
    spec.ticks = ticks;
    spec
}

#[test]
fn fleet_log_bytes_are_the_recorded_ones() {
    let log = log_of("3n", FleetSpec::three_nodes(7));
    assert_eq!(log, (25, 0x2df0_842d_a4d0_8b38));
}

/// The benchmark's 30-node, 10-tick fleet: every pull answers from a
/// retransmission log dozens of envelopes deep, so a spliced answer that
/// moved one byte would shift the fabric's tears from there on.
#[test]
fn thirty_node_fleet_log_bytes_are_the_recorded_ones() {
    let log = log_of("30n", cycled(7, 30, 10));
    assert_eq!(log, (307, 0x5af3_f6ed_ec4c_3cdc));
}

/// A kill -9 and restart under storage chaos: the restarted node answers
/// from a log that starts over at a new generation while its peers still
/// relay the old one.
#[test]
fn restart_under_storage_chaos_log_bytes_are_the_recorded_ones() {
    let mut spec = cycled(7, 9, 12);
    spec.crash = Some(CrashPlan {
        node: 1,
        at_tick: 2,
        restart_at_tick: 5,
    });
    spec.chaos_fs = Some(150);
    assert_eq!(log_of("restart", spec), (123, 0xabec_525c_4538_3050));
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
