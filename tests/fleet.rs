//! End-to-end fleet replication: convergence under chaos, warm-start
//! priors across platforms, fleet-wide quarantine, crash/restart epoch
//! fencing, and record/replay byte-identity (DESIGN.md §15).

use easched::core::{EasConfig, Objective, TableStore};
use easched::fleet::{
    kernel_traits, replay_fleet, run_fleet, ChaosConfig, CrashPlan, FleetError, FleetNode,
    FleetSpec, Frame, FramePayload, Partition, TaintPlan,
};
use easched::replay::{RunLog, FORMAT_VERSION_FLEET};
use easched::sim::Platform;
use std::path::{Path, PathBuf};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("easched-fleet-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A scratch root removed when its test ends, a failing assertion
/// included.
struct Removed(PathBuf);

impl Drop for Removed {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn node(id: u16, platform: Platform, root: &Path) -> FleetNode {
    FleetNode::start(
        id,
        platform,
        EasConfig::new(Objective::EnergyDelay),
        root,
        9000 + u64::from(id),
        2,
    )
    .expect("node starts")
}

/// One full pull exchange from `src` into `dst` (request, answer,
/// ingest), the way the run loop does it but without a fabric.
fn pull(dst: &mut FleetNode, src: &mut FleetNode, tick: u64) -> u64 {
    let req = dst.request_frame(src.id);
    let FramePayload::Request(wants) = &req.payload else {
        panic!("request frame");
    };
    match src.answer_request(dst.id, wants) {
        None => 0,
        Some(text) => {
            let ent = Frame::decode(&text).expect("an answer decodes");
            let FramePayload::Entries(envs) = &ent.payload else {
                panic!("entries frame");
            };
            dst.ingest_entries(envs, tick)
        }
    }
}

#[test]
fn three_node_fleet_converges_under_chaos() {
    let mut spec = FleetSpec::three_nodes(7);
    spec.store_root = scratch("chaos");
    let report = run_fleet(&spec).expect("fleet runs");
    assert!(
        report.converged,
        "default chaos must converge: {}",
        report.digest_text
    );
    assert!(report.nodes.len() == 3);
    for n in &report.nodes {
        assert_eq!(n.digest, report.digest, "node {} diverged", n.id);
        assert!(n.table_len > 0, "node {} learned nothing", n.id);
    }
    assert_eq!(report.log.version, FORMAT_VERSION_FLEET);
    assert!(report.log.complete);
    let _ = std::fs::remove_dir_all(&spec.store_root);
}

#[test]
fn fabric_chaos_is_not_a_scheduler_fault() {
    let mut spec = FleetSpec::three_nodes(23);
    spec.store_root = scratch("faultfree");
    let report = run_fleet(&spec).expect("fleet runs");
    assert!(report.converged);
    let faulted: u64 = report
        .nodes
        .iter()
        .map(|n| n.stats.frames_dropped + n.stats.frames_torn + n.stats.frames_duplicated)
        .sum();
    assert!(faulted > 0, "chaos profile produced no faults at all");
    for n in &report.nodes {
        assert!(
            n.fault_free,
            "node {}: fabric chaos leaked into scheduler health",
            n.id
        );
    }
    let _ = std::fs::remove_dir_all(&spec.store_root);
}

#[test]
fn partition_heals_and_crash_restart_still_converge() {
    let mut spec = FleetSpec::three_nodes(1009);
    spec.ticks = 8;
    spec.chaos.partitions.push(Partition {
        a: 0,
        b: 2,
        from_tick: 1,
        to_tick: 5,
    });
    spec.crash = Some(CrashPlan {
        node: 1,
        at_tick: 3,
        restart_at_tick: 6,
    });
    spec.store_root = scratch("crash");
    let report = run_fleet(&spec).expect("fleet runs");
    assert!(report.converged, "digest: {}", report.digest_text);
    let lines: Vec<&str> = report.log.fleet_lines();
    assert!(
        lines.iter().any(|l| l.starts_with("crash 1 ")),
        "crash recorded"
    );
    let restart = lines
        .iter()
        .find(|l| l.starts_with("restart 1 "))
        .expect("restart recorded");
    let gen: u64 = restart
        .rsplit(' ')
        .next()
        .and_then(|g| g.parse().ok())
        .expect("restart line carries the new epoch");
    assert!(gen > 1, "restart must fence a fresh epoch, got {gen}");
    // The survivor partitions count on at least one side of the cut.
    let partitioned: u64 = report
        .nodes
        .iter()
        .map(|n| n.stats.frames_partitioned)
        .sum();
    assert!(partitioned > 0, "the partition never bit");
    let _ = std::fs::remove_dir_all(&spec.store_root);
}

/// A restarted node reports the frame faults the fabric counted for it,
/// once: its previous life's share is not added again on top of the
/// fabric's run-long levels.
#[test]
fn a_restarted_node_counts_each_fabric_fault_once() {
    // (seed, node 1's (dropped, duplicated) as the fabric counted them).
    for (seed, fabric) in [(7, (10, 3)), (23, (6, 4)), (1009, (5, 1))] {
        let mut spec = FleetSpec::three_nodes(seed);
        spec.crash = Some(CrashPlan {
            node: 1,
            at_tick: 2,
            restart_at_tick: 4,
        });
        spec.store_root = scratch(&format!("refault-{seed}"));
        let report = run_fleet(&spec).expect("fleet runs");
        let _ = std::fs::remove_dir_all(&spec.store_root);
        let node = report.nodes.iter().find(|n| n.id == 1).expect("node 1");
        let counted = (node.stats.frames_dropped, node.stats.frames_duplicated);
        assert_eq!(counted, fabric, "seed {seed}");
    }
}

#[test]
fn cross_platform_entry_warm_starts_but_never_skips_profiling() {
    let root = scratch("prior");
    let mut desktop = node(0, Platform::haswell_desktop(), &root);
    let mut tablet = node(1, Platform::baytrail_tablet(), &root);
    let (kernel, traits) = kernel_traits(0);

    desktop.run_invocation(kernel, &traits, 120_000, 1);
    desktop.publish_local();
    let desktop_alpha = desktop.shared().learned_alpha(kernel).expect("learned");

    assert!(pull(&mut tablet, &mut desktop, 0) > 0);
    let table = tablet.shared().table();
    assert_eq!(
        table.prior(kernel),
        Some(desktop_alpha),
        "foreign knowledge lands as a warm-start prior"
    );
    assert!(
        table.stat(kernel).is_none(),
        "a prior must NOT materialize a learned entry"
    );
    assert_eq!(tablet.stats.priors_applied, 1);

    // The tablet still profiles on its own silicon: after its first
    // invocation it has a real measurement and the prior is consumed.
    tablet.run_invocation(kernel, &traits, 120_000, 2);
    let stat = tablet
        .shared()
        .table()
        .stat(kernel)
        .expect("profiling ran and learned");
    assert!(stat.weight > 0.0, "a real measurement carries weight");
    assert!(
        tablet.shared().table().prior(kernel).is_none(),
        "own measurement erases the prior"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn replicated_taint_quarantines_fleet_wide_within_one_round() {
    let root = scratch("taint");
    // Same platform on both nodes: the taint must quarantine the peer's
    // own learned entry, not just clear a prior.
    let mut a = node(0, Platform::haswell_desktop(), &root);
    let mut b = node(1, Platform::haswell_desktop(), &root);
    let (kernel, traits) = kernel_traits(1);
    a.run_invocation(kernel, &traits, 120_000, 1);
    b.run_invocation(kernel, &traits, 120_000, 2);
    a.publish_local();
    b.publish_local();
    pull(&mut b, &mut a, 0);
    pull(&mut a, &mut b, 0);
    assert!(!b.shared().table().is_tainted(kernel));

    // Node A's fault pipeline quarantines the kernel.
    a.taint_local(kernel);
    a.publish_local();
    assert!(pull(&mut b, &mut a, 1) > 0, "taint envelope crossed");
    assert!(
        b.shared().table().is_tainted(kernel),
        "one anti-entropy round must quarantine fleet-wide"
    );
    assert_eq!(b.stats.taints_replicated, 1);
    assert_eq!(b.stats.reprofiles_scheduled, 1);
    assert_eq!(b.reprofile_pending(), 1);
    // The batched release re-taints at most budget kernels per round;
    // here the one queued kernel drains immediately.
    b.release_reprofiles();
    assert_eq!(b.reprofile_pending(), 0);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn fleet_record_replay_is_byte_identical() {
    let mut spec = FleetSpec::three_nodes(23);
    spec.ticks = 4;
    spec.taint = Some(TaintPlan {
        at_tick: 2,
        node: 0,
        kernel_index: 1,
    });
    spec.store_root = scratch("replay-record");
    let report = run_fleet(&spec).expect("fleet runs");
    let _ = std::fs::remove_dir_all(&spec.store_root);

    // Through the text round-trip, exactly as the CLI writes and reads.
    let text = report.log.to_text();
    let back = RunLog::from_text(&text).expect("parses");
    assert_eq!(back.version, FORMAT_VERSION_FLEET);

    let fresh_root = Removed(scratch("replay-fresh"));
    let fresh = replay_fleet(&back, fresh_root.0.clone()).expect("byte-identical replay");
    assert_eq!(fresh.log.to_text(), text);
    assert_eq!(fresh.digest, report.digest);

    // A perturbed log must be called out, not silently accepted.
    let mut tampered = back.clone();
    if let Some(easched::replay::Event::Fleet { line }) = tampered
        .events
        .iter_mut()
        .rev()
        .find(|e| matches!(e, easched::replay::Event::Fleet { .. }))
    {
        *line = line.replace("digest", "digset");
    }
    let tampered_root = Removed(scratch("replay-tampered"));
    let err = replay_fleet(&tampered, tampered_root.0.clone()).unwrap_err();
    assert!(err.to_string().contains("divergence"), "got: {err}");
    assert!(matches!(err, FleetError::Diverged(_)), "got: {err:?}");
}

#[test]
fn a_spec_naming_an_absent_node_is_a_bad_spec_not_a_panic() {
    // Every scheduled fault indexes the node list. Three nodes here, so
    // node 7 does not exist — whichever field names it.
    let absent = |edit: &dyn Fn(&mut FleetSpec)| {
        let mut spec = FleetSpec::three_nodes(7);
        spec.ticks = 3;
        edit(&mut spec);
        match run_fleet(&spec) {
            Err(FleetError::BadSpec(why)) => why,
            other => panic!("expected BadSpec, got {:?}", other.map(|r| r.digest)),
        }
    };
    let taint = absent(&|s| {
        s.taint = Some(TaintPlan {
            at_tick: 1,
            node: 7,
            kernel_index: 0,
        })
    });
    assert!(taint.contains("taint node 7"), "{taint}");
    for (a, b) in [(0, 7), (7, 0)] {
        let cut = absent(&|s| {
            s.chaos.partitions.push(Partition {
                a,
                b,
                from_tick: 0,
                to_tick: 2,
            })
        });
        assert!(cut.contains("partition node 7"), "{cut}");
    }
}

#[test]
fn an_edited_spec_line_naming_an_absent_node_is_unusable_on_replay() {
    // A recorded log whose spec line was edited meets `run_fleet`'s guard
    // on replay: unusable input, not a divergence and not a panic.
    let mut spec = FleetSpec::three_nodes(7);
    spec.ticks = 3;
    spec.taint = Some(TaintPlan {
        at_tick: 1,
        node: 0,
        kernel_index: 0,
    });
    spec.store_root = scratch("absent-record");
    let mut log = run_fleet(&spec).expect("fleet runs").log;
    let _ = std::fs::remove_dir_all(&spec.store_root);
    let Some(easched::replay::Event::Fleet { line }) = log.events.first_mut() else {
        panic!("a fleet log opens with its spec line");
    };
    assert!(line.contains("taint 1:0:0"), "{line}");
    *line = line.replace("taint 1:0:0", "taint 1:7:0");
    let err = replay_fleet(&log, scratch("absent-replay")).unwrap_err();
    assert!(matches!(err, FleetError::BadSpec(_)), "got: {err:?}");
    assert!(err.to_string().contains("taint node 7"), "got: {err}");
}

#[test]
fn every_cut_of_a_fleet_log_replays_its_prefix() {
    // The v3 third of the torn-tail sweep (v1/v2 live in
    // `crates/replay/tests/torn_tails.rs`): a fleet log cut at any line
    // boundary behind the header still names its spec, so the re-run is
    // held to the lines that survived — recorded ⊑ replayed.
    let mut spec = FleetSpec::three_nodes(7);
    spec.chaos = ChaosConfig::quiet();
    spec.store_root = scratch("torn-record");
    let report = run_fleet(&spec).expect("fleet runs");
    let _ = std::fs::remove_dir_all(&spec.store_root);
    let text = report.log.to_text();
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    // Header is 4 lines; the last line is the `end` footer.
    for keep in 4..lines.len() {
        let torn = RunLog::from_text(&lines[..keep].concat()).expect("a torn tail still parses");
        assert!(!torn.complete);
        assert_eq!(torn.events.len(), keep - 4);
        let root = scratch(&format!("torn-replay-{keep}"));
        let outcome = replay_fleet(&torn, root.clone());
        let _ = std::fs::remove_dir_all(&root);
        match outcome {
            // Not even the spec line survived: unusable, not divergent.
            Err(FleetError::BadSpec(_)) => assert_eq!(keep, 4),
            Err(e) => panic!("head -n {keep} diverged: {e}"),
            Ok(fresh) => assert_eq!(fresh.log.to_text(), text, "head -n {keep}"),
        }
    }
}

#[test]
fn journals_survive_the_fleet_run_for_cold_recovery() {
    // The ci.sh recovery smoke reopens the journals a fleet run (with a
    // kill -9 in the middle) left behind; this is the in-process twin.
    let mut spec = FleetSpec::three_nodes(7);
    spec.ticks = 5;
    spec.chaos = ChaosConfig::quiet();
    spec.crash = Some(CrashPlan {
        node: 2,
        at_tick: 2,
        restart_at_tick: 4,
    });
    spec.store_root = scratch("recovery");
    let report = run_fleet(&spec).expect("fleet runs");
    assert!(report.converged);
    for n in &report.nodes {
        let dir = spec.store_root.join(format!("node{}", n.id));
        let (_store, recovered) = TableStore::open(&dir).expect("journal reopens");
        assert_eq!(
            recovered.table.len(),
            n.table_len,
            "node {}: recovered table must match the live one",
            n.id
        );
        assert!(recovered.generation >= 1);
    }
    let _ = std::fs::remove_dir_all(&spec.store_root);
}

/// Quarantine is journaled like any other taint (DESIGN.md §11): a node
/// that taints an entry locally and is killed before any checkpoint comes
/// back with the entry recovered *and* still quarantined.
#[test]
fn local_taint_survives_a_kill_without_checkpoint() {
    let root = scratch("taint-kill");
    let (kernel, traits) = kernel_traits(0);
    let mut n = node(0, Platform::haswell_desktop(), &root);
    n.run_invocation(kernel, &traits, 120_000, 1);
    let alpha = n.shared().learned_alpha(kernel).expect("learned");
    n.taint_local(kernel);
    drop(n); // kill -9: no checkpoint

    let n = node(0, Platform::haswell_desktop(), &root);
    assert_eq!(n.shared().learned_alpha(kernel), Some(alpha), "recovered");
    assert!(
        n.shared().table().is_tainted(kernel),
        "the quarantine must survive the restart"
    );
    let _ = std::fs::remove_dir_all(&root);
}
