//! The acceptance-bar scenarios, on the three CI seed roots (7, 23,
//! 1009): each records a mixed chaos storm whose replay reproduces the
//! decision stream byte-for-byte and reconverges to the same health
//! counters and kernel table, and each records the canonical overload
//! storm, which must hold its four gates and replay byte-identically.

use easched_replay::{
    record_chaos_storm, record_overload_storm, replay_chaos_storm, replay_overload_storm,
    OverloadSpec, StormSpec,
};

const CI_ROOTS: [u64; 3] = [7, 23, 1009];

#[test]
fn ci_chaos_seeds_replay_byte_identically() {
    for root in CI_ROOTS {
        let recorded = record_chaos_storm(&StormSpec::new(root));
        let outcome = replay_chaos_storm(&recorded.log).unwrap();
        assert!(
            outcome.identical(),
            "seed {root} diverged: {}",
            outcome.divergence.unwrap().render()
        );
        assert!(!outcome.recorded.is_empty(), "seed {root} recorded nothing");
        assert_eq!(
            outcome.live.len(),
            outcome.recorded.len(),
            "seed {root} stream lengths"
        );
        assert_eq!(outcome.health, recorded.health, "seed {root} health");
        assert_eq!(outcome.table, recorded.table, "seed {root} table");
    }
}

#[test]
fn ci_overload_seeds_hold_the_gates_and_replay_byte_identically() {
    for root in CI_ROOTS {
        let r = record_overload_storm(&OverloadSpec::new(root));
        assert!(r.queues_bounded, "seed {root}: queues must stay bounded");
        assert!(
            r.offered > r.executed as u64,
            "seed {root}: storm must oversubscribe"
        );
        assert!(
            r.fair_share_deficit <= 0.05,
            "seed {root}: fair-share deficit {} exceeds 5%",
            r.fair_share_deficit
        );
        assert!(
            r.edp_efficiency() >= 0.7,
            "seed {root}: admitted-work EDP efficiency {} below 0.7",
            r.edp_efficiency()
        );
        let outcome = replay_overload_storm(&r.log).expect("log is replayable");
        assert!(
            outcome.identical,
            "seed {root}: overload replay diverged: {}",
            outcome.first_difference.as_deref().unwrap_or("?")
        );
    }
}

#[test]
fn logs_survive_a_text_round_trip_before_replay() {
    let recorded = record_chaos_storm(&StormSpec::new(1009));
    let text = recorded.log.to_text();
    let reloaded = easched_replay::RunLog::from_text(&text).unwrap();
    // Bitwise comparison via re-serialization: chaos-corrupted observations
    // can carry NaNs, which structural `==` would reject.
    assert_eq!(reloaded.to_text(), text);
    let outcome = replay_chaos_storm(&reloaded).unwrap();
    assert!(outcome.identical());
}
