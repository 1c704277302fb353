//! The `easched replay` exit-code contract, driven through the real
//! binary: 0 byte-identical, 1 divergence, 2 unusable input. Divergence
//! is already pinned by `tests/replay_fixture.rs` at the library level;
//! these tests pin the *boundary* — a torn header and a wrong platform
//! fingerprint must exit 2 (the log cannot be used at all), never 1
//! (the log replayed and disagreed); a torn *tail* replays its sealed
//! prefix and exits 0; a fleet log handed to the wrong subcommand, a
//! fleet log with nothing in it, or a fleet flag naming a node the fleet
//! does not have, exits 2 — and so does a flag that belongs to another
//! subcommand or to another usage line of its own. `fleet
//! --verify-recovery` exits 1 on a journal that recovers nothing. One more
//! pin rides the same binary: the bytes `easched run --decisions` writes.

use easched::replay::RunLog;
use std::process::Command;

const FIXTURE: &str = include_str!("fixtures/divergent_min.runlog");

fn replay(dir: &std::path::Path, name: &str, text: &str) -> std::process::Output {
    easched(&["replay", "--log"], dir, name, text)
}

/// Writes `text` to `dir/name` and runs `easched <args> dir/name`.
fn easched(args: &[&str], dir: &std::path::Path, name: &str, text: &str) -> std::process::Output {
    let path = dir.join(name);
    std::fs::write(&path, text).expect("write log");
    Command::new(env!("CARGO_BIN_EXE_easched"))
        .args(args)
        .arg(&path)
        .output()
        .expect("run easched")
}

/// The first `lines` lines of `text` — `head -n`.
fn head(text: &str, lines: usize) -> String {
    text.split_inclusive('\n').take(lines).collect()
}

fn assert_torn_tail_exits_0(out: &std::process::Output, what: &str) {
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert_eq!(
        out.status.code(),
        Some(0),
        "{what} must replay its prefix and exit 0; stdout: {stdout} stderr: {stderr}"
    );
    assert!(
        stderr.contains("torn tail"),
        "{what} is warned about: {stderr}"
    );
    assert!(stdout.contains("byte-identical"), "{what}: {stdout}");
}

/// A per-test scratch directory, removed when the test ends — a failing
/// assertion included.
struct TempDir(std::path::PathBuf);

impl std::ops::Deref for TempDir {
    type Target = std::path::Path;

    fn deref(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn temp_dir(tag: &str) -> TempDir {
    let dir = std::env::temp_dir().join(format!("easched-exitcodes-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    TempDir(dir)
}

#[test]
fn divergent_fixture_exits_1() {
    let dir = temp_dir("divergent");
    let out = replay(&dir, "divergent.runlog", FIXTURE);
    assert_eq!(
        out.status.code(),
        Some(1),
        "divergence must exit 1; stdout: {} stderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
}

#[test]
fn torn_header_exits_2() {
    // Cut the log mid-header: not even the format version survives, so
    // the file is unusable rather than divergent.
    let torn = &FIXTURE[..FIXTURE.len().min(10)];
    let dir = temp_dir("torn");
    let out = replay(&dir, "torn.runlog", torn);
    assert_eq!(
        out.status.code(),
        Some(2),
        "a torn header must exit 2; stderr: {}",
        String::from_utf8_lossy(&out.stderr),
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("cannot parse log"),
        "stderr names the parse failure: {}",
        String::from_utf8_lossy(&out.stderr),
    );
}

#[test]
fn wrong_platform_fingerprint_exits_2() {
    // Re-seal the fixture under a bumped platform fingerprint: every
    // line CRC is valid, so the log parses — but it describes a machine
    // this build cannot reconstruct, which is unusable, not divergent.
    let mut log = RunLog::from_text(FIXTURE).expect("fixture parses");
    log.platform_fp ^= 1;
    let dir = temp_dir("platform");
    let out = replay(&dir, "wrong_platform.runlog", &log.to_text());
    assert_eq!(
        out.status.code(),
        Some(2),
        "a foreign platform fingerprint must exit 2; stderr: {}",
        String::from_utf8_lossy(&out.stderr),
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("platform fingerprint mismatch"),
        "stderr names the mismatch: {}",
        String::from_utf8_lossy(&out.stderr),
    );
}

#[test]
fn torn_v1_tail_exits_0() {
    // Cut between an invocation's `step` and its `decision`, and right
    // after an `invocation` line: the undecided invocation is backed off.
    let text = easched::replay::record_chaos_storm(&easched::replay::StormSpec::new(7))
        .log
        .to_text();
    let dir = temp_dir("torn-v1");
    for lines in [44, 43] {
        let out = replay(&dir, "torn_v1.runlog", &head(&text, lines));
        assert_torn_tail_exits_0(&out, &format!("head -n {lines} of a v1 log"));
    }
}

#[test]
fn torn_v2_tail_exits_0() {
    let spec = easched::replay::OverloadSpec {
        ticks: 4,
        ..easched::replay::OverloadSpec::new(7)
    };
    let text = easched::replay::record_overload_storm(&spec).log.to_text();
    let total = text.lines().count();
    let dir = temp_dir("torn-v2");
    for lines in [total / 2, total - 1] {
        let out = replay(&dir, "torn_v2.runlog", &head(&text, lines));
        assert_torn_tail_exits_0(&out, &format!("head -n {lines} of a v2 log"));
    }
}

/// A short recorded fleet run, journals under `dir` (tests run in
/// parallel; the default scratch root is per seed and process).
fn fleet_log_text(dir: &std::path::Path) -> String {
    let mut spec = easched::fleet::FleetSpec::three_nodes(7);
    spec.ticks = 2;
    spec.store_root = dir.join("store");
    let report = easched::fleet::run_fleet(&spec).expect("fleet runs");
    report.log.to_text()
}

#[test]
fn fleet_log_to_replay_exits_2_and_names_the_right_subcommand() {
    let dir = temp_dir("fleet-to-replay");
    let out = replay(&dir, "fleet.runlog", &fleet_log_text(&dir));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("fleet --replay"), "stderr: {stderr}");
    assert!(
        !stderr.contains("fingerprint"),
        "not the platform's fault: {stderr}"
    );
}

#[test]
fn header_only_fleet_log_exits_2() {
    // A fleet log with no fleet events in it cannot be re-run at all:
    // unusable (2), not divergent (1).
    let dir = temp_dir("fleet-header-only");
    let text = head(&fleet_log_text(&dir), 4);
    let out = easched(&["fleet", "--replay"], &dir, "header_only.runlog", &text);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("no fleet events"), "stderr: {stderr}");
}

#[test]
fn fleet_flag_naming_an_absent_node_exits_2_and_names_the_field() {
    // Three nodes by default, so node 7 is nobody: unusable input (2)
    // that says which flag was wrong — not a bounds-check panic (101).
    let out = Command::new(env!("CARGO_BIN_EXE_easched"))
        .args(["fleet", "--seed", "7", "--ticks", "3", "--taint", "1:7:0"])
        .output()
        .expect("run easched");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("taint node 7"), "stderr: {stderr}");
}

#[test]
fn a_flag_of_another_subcommand_exits_2_and_names_both() {
    // Each of these used to be accepted and dropped: `list` ran, `replay`
    // and `fleet` ignored a flag they do not have — and one level down,
    // the overload storm has no rate or rounds, the chaos storm no ticks,
    // a fleet replay takes its shape from the log and a recovery audit
    // from the disk.
    let dir = temp_dir("foreign-flag");
    let log = dir.join("storm.runlog");
    let text = easched::replay::record_chaos_storm(&easched::replay::StormSpec::new(7))
        .log
        .to_text();
    std::fs::write(&log, text).expect("write log");
    let log = log.to_str().expect("utf-8 temp path");
    let out = dir.join("never-written.runlog");
    let out = out.to_str().expect("utf-8 temp path");
    for (args, flag, line) in [
        (&["list", "--nodes", "0"][..], "--nodes", "easched list"),
        (
            &["replay", "--log", log, "--seed", "9"][..],
            "--seed",
            "easched replay",
        ),
        (&["fleet", "--rounds", "3"][..], "--rounds", "easched fleet"),
        (
            &["record", "--out", out, "--overload", "--rate", "0.5"][..],
            "--rate",
            "`easched record --overload`",
        ),
        (
            &["record", "--out", out, "--overload", "--rounds", "3"][..],
            "--rounds",
            "`easched record --overload`",
        ),
        (
            &["record", "--out", out, "--ticks", "4"][..],
            "--ticks",
            "`easched record` has no flag \"--ticks\" without --overload",
        ),
        (
            &["fleet", "--replay", log, "--nodes", "9"][..],
            "--nodes",
            "`easched fleet --replay`",
        ),
        (
            &["fleet", "--verify-recovery", out, "--seed", "3"][..],
            "--seed",
            "`easched fleet --verify-recovery`",
        ),
    ] {
        let run = Command::new(env!("CARGO_BIN_EXE_easched"))
            .args(args)
            .output()
            .expect("run easched");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "{args:?}: {stderr}");
        let first = stderr.lines().next().unwrap_or_default();
        assert!(
            first.contains(flag) && first.contains(line),
            "{args:?} must name the flag and the usage line: {first}"
        );
    }
    assert!(
        !std::path::Path::new(out).exists(),
        "a refused `record` ran its storm anyway"
    );
}

#[test]
fn verify_recovery_of_an_empty_table_exits_1_and_names_the_directory() {
    // What a node whose disk refused every write leaves behind: a journal
    // with nothing in it. It opens cleanly, and recovers nothing.
    let dir = temp_dir("empty-recovery");
    let node = dir.join("node0");
    std::fs::create_dir_all(&node).expect("create node dir");
    std::fs::write(node.join("table.journal"), "").expect("write empty journal");
    let out = Command::new(env!("CARGO_BIN_EXE_easched"))
        .args(["fleet", "--verify-recovery"])
        .arg(&*dir)
        .output()
        .expect("run easched");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let node = node.display().to_string();
    assert!(
        stderr.contains(&node) && stderr.contains("empty table"),
        "{stderr}"
    );
}

#[test]
fn run_decisions_csv_matches_the_parent_commit() {
    // Captured from the commit before the scheduler stopped keeping its
    // own decision log: the collecting sink must render the same bytes.
    let dir = temp_dir("decisions");
    let path = dir.join("bs.csv");
    let out = Command::new(env!("CARGO_BIN_EXE_easched"))
        .args(["run", "--workload", "BS", "--decisions"])
        .arg(&path)
        .output()
        .expect("run easched");
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let csv = std::fs::read_to_string(&path).expect("decisions written");
    assert_eq!(csv, include_str!("fixtures/bs_decisions.csv"));
}
