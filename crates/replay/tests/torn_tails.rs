//! The replay half of the torn-tail promise (`RunLog::complete`: "the
//! surviving prefix is still replayable"). `props.rs` checks the codec —
//! any cut parses to a bitwise prefix; this file cuts a recorded log's
//! text at every line boundary behind the header, parses each prefix, and
//! requires the *replay* to find nothing to object to: a torn log is held
//! to prefix identity (recorded ⊑ replayed), in both storm formats. The
//! v3 twin lives with the fleet (`tests/fleet.rs`).

use easched_replay::{
    record_chaos_storm, record_overload_storm, replay_chaos_storm, replay_overload_storm,
    OverloadSpec, RunLog, StormSpec,
};

/// Lines of the sealed header: magic, root, platform, config.
const HEADER_LINES: usize = 4;

/// Byte offsets of every line boundary behind the header that tears
/// something off: cut `i` keeps the header and the first `i` events.
fn cuts(text: &str) -> Vec<usize> {
    let boundaries: Vec<usize> = text.match_indices('\n').map(|(at, _)| at + 1).collect();
    boundaries[HEADER_LINES - 1..boundaries.len() - 1].to_vec()
}

/// `head -n (HEADER_LINES + events)` of `text`, parsed.
fn torn(text: &str, cut: usize, events: usize) -> RunLog {
    let log = RunLog::from_text(&text[..cut]).expect("a torn tail is not a parse error");
    assert!(!log.complete, "a missing footer is flagged");
    assert_eq!(
        log.events.len(),
        events,
        "every line before the cut survives"
    );
    log
}

#[test]
fn every_cut_of_a_chaos_storm_log_replays_its_prefix() {
    let text = record_chaos_storm(&StormSpec::new(7)).log.to_text();
    let mut longest = 0;
    for (events, cut) in cuts(&text).into_iter().enumerate() {
        let outcome = replay_chaos_storm(&torn(&text, cut, events)).unwrap();
        assert!(
            outcome.identical(),
            "head -n {} diverged:\n{}",
            HEADER_LINES + events,
            outcome.divergence.unwrap().render()
        );
        // Only whole invocations are replayed: one decision each.
        assert_eq!(outcome.live.len(), outcome.invocations_replayed);
        longest = longest.max(outcome.invocations_replayed);
    }
    assert_eq!(longest, 182, "losing only the footer loses no invocation");
}

#[test]
fn every_cut_of_an_overload_storm_log_replays_its_prefix() {
    let spec = OverloadSpec {
        ticks: 8,
        ..OverloadSpec::new(7)
    };
    let text = record_overload_storm(&spec).log.to_text();
    let cuts = cuts(&text);
    // The sweep is quadratic in log length (each of ~4 500 cuts parses and
    // replays its whole prefix), so only optimised builds walk every
    // boundary; a debug build strides through them, both ends included.
    let stride = if cfg!(debug_assertions) { 41 } else { 1 };
    let picked = (0..cuts.len()).filter(|i| i % stride == 0 || i + 1 == cuts.len());
    for events in picked {
        let torn = torn(&text, cuts[events], events);
        let outcome = replay_overload_storm(&torn).unwrap();
        assert!(
            outcome.identical,
            "head -n {} diverged: {}",
            HEADER_LINES + events,
            outcome.first_difference.unwrap()
        );
    }
}
