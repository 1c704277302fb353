//! Golden exposition pages, pinned at the commit before the counter
//! table landed (DESIGN.md §10): a scripted, clock-free feed must render
//! the same `/metrics` bytes and the same `/health` JSON as it did when
//! every counter was enumerated by hand, and the fleet pages must keep
//! every sample line.

use easched::core::HealthReport;
use easched::fleet::{expose_fleet, expose_fleet_store, FleetStats};
use easched::replay::{record_overload_storm_observed, OverloadSpec};
use easched::telemetry::counters::Kind;
use easched::telemetry::{ControlEvent, DecisionRecord, InvocationPath, MetricsRegistry};

/// The label-escaping tests' hostile name (`a"b\c⏎d`) plus a control
/// byte, which JSON must escape and a label must not choke on.
const HOSTILE: &str = "a\"b\\c\nd\u{1b}";

/// One record per invocation path, every control-event variant at a
/// distinct multiplicity, two named tenants, fixed build info and clock.
fn scripted_registry() -> MetricsRegistry {
    let reg = MetricsRegistry::default();
    reg.set_build_info("9.9.9", "deadbeef");
    reg.mark_started(100.0);
    for code in 0..8u8 {
        let i = u32::from(code);
        reg.update(&DecisionRecord {
            kernel: 40 + u64::from(code),
            path: InvocationPath::from_code(code).expect("eight paths"),
            breaker: code % 3,
            rounds: i + 1,
            fault_rounds: i,
            alpha: f64::from(i) / 8.0,
            profile_time: 0.001 * f64::from(i + 1),
            split_time: 0.01 * f64::from(i + 1),
            decide_nanos: 100 << i,
            ..DecisionRecord::default()
        });
    }
    let events = [
        ControlEvent::Drift {
            kernel: 42,
            ewma: 0.25,
        },
        ControlEvent::Reprofile {
            kernel: 42,
            ewma: 2.5,
        },
        ControlEvent::ReprofileSuppressed { kernel: 43 },
        ControlEvent::ProfileDeadline {
            kernel: 44,
            elapsed: 90.0,
        },
        ControlEvent::SplitOverrun {
            kernel: 45,
            elapsed: 900.0,
        },
        ControlEvent::RequestShed { tenant: 1 },
        ControlEvent::RequestQueued { tenant: 0 },
        ControlEvent::QuotaDenied { tenant: 1 },
        ControlEvent::Brownout { level: 2 },
        ControlEvent::SloBreach {
            tenant: 1,
            signal: 2,
        },
        ControlEvent::StorageFault {
            kind: 8,
            degraded: true,
        },
    ];
    for (i, event) in events.iter().enumerate() {
        for _ in 0..=i {
            reg.control(event);
        }
    }
    reg.control(&ControlEvent::RequestShed { tenant: 0 });
    reg.set_tenant_name(0, "gold");
    reg.set_tenant_name(1, HOSTILE);
    reg.store_bytes.swap(4096);
    reg.observe_now(107.5);
    reg
}

#[test]
fn metrics_page_matches_the_parent_commit() {
    let page = scripted_registry().expose();
    assert_eq!(page, include_str!("fixtures/golden_metrics.prom"));
    check_exposition(&page);
}

#[test]
fn health_json_matches_the_parent_commit() {
    // Field i holds i + 1, so every value is distinct and a swapped pair
    // of rows shows.
    let report = HealthReport::from_values(std::array::from_fn(|i| i as u64 + 1));
    assert_eq!(
        report.render_json(),
        include_str!("fixtures/golden_health.json")
    );
}

/// A strict reader's view of a text page: every sample belongs to a
/// family (`_bucket`/`_sum`/`_count` to their histogram) whose `# TYPE`
/// of that exact name came first, and no family is typed twice.
fn check_exposition(page: &str) {
    let mut typed: Vec<(&str, &str)> = Vec::new();
    for line in page.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("# TYPE name kind");
            assert!(typed.iter().all(|(n, _)| *n != name), "{name} typed twice");
            typed.push((name, kind));
        } else if !line.starts_with('#') {
            let series = line.split(['{', ' ']).next().expect("a series name");
            let family = typed.iter().any(|(name, kind)| {
                *name == series
                    || (*kind == "histogram"
                        && ["_bucket", "_sum", "_count"]
                            .iter()
                            .any(|s| series.strip_suffix(s) == Some(name)))
            });
            assert!(family, "no # TYPE precedes sample: {line}");
        }
    }
}

fn fleet_pages() -> (String, String) {
    let stats = FleetStats::from_values(std::array::from_fn(|i| i as u64 + 1));
    let sick = easched::core::StoreHealth {
        io_errors: 1,
        bytes_written: 2,
        degraded: true,
        degraded_transitions: 3,
        rearms: 4,
        buffered: 5,
        buffered_dropped: 6,
        dir_sync_unsupported: true,
    };
    (
        expose_fleet(&[
            ("node0".to_string(), stats),
            (HOSTILE.to_string(), FleetStats::default()),
        ]),
        expose_fleet_store(&[
            ("node0".to_string(), sick),
            (HOSTILE.to_string(), Default::default()),
        ]),
    )
}

fn sorted_samples(page: &str) -> String {
    // A label value may hold a raw control byte but never a raw newline,
    // so physical lines are sample lines.
    let mut lines: Vec<&str> = page.lines().filter(|l| !l.starts_with('#')).collect();
    lines.sort_unstable();
    lines.join("\n") + "\n"
}

#[test]
fn fleet_pages_keep_every_parent_sample_line() {
    let (fleet, store) = fleet_pages();
    let samples = sorted_samples(&fleet) + &sorted_samples(&store);
    assert_eq!(samples, include_str!("fixtures/golden_fleet_samples.prom"));
    check_exposition(&fleet);
    check_exposition(&store);
    // A 0/1 flag is a gauge, not the counter the old page header implied.
    assert!(store.contains("# TYPE easched_store_degraded gauge\n"));
}

/// Health is primary state on the scheduler, metrics is derived from the
/// control-event stream; a counter both tables declare must read the
/// same from either when the sink dropped nothing.
#[test]
fn health_and_metrics_agree_on_every_shared_counter() {
    let observed = record_overload_storm_observed(&OverloadSpec::new(7));
    let health = observed.recorded.health;
    let metrics = observed.ring.metrics().values();
    assert_eq!(observed.ring.dropped(), 0);
    let mut paired = Vec::new();
    for (row, h) in HealthReport::ROWS.iter().zip(health.values()) {
        let twin = MetricsRegistry::ROWS
            .iter()
            .position(|m| m.field == row.field && m.kind == Kind::Counter);
        if let Some(m) = twin {
            assert_eq!(h, metrics[m], "{} health vs metrics", row.field);
            paired.push(row.field);
        }
    }
    // The eight event-paired counters plus `probes` and `store_io_errors`.
    assert!(paired.len() >= 8, "{paired:?}");
    // The storm must reach the rung whose flush used to go unreported.
    assert!(health.requests_shed > 0 && health.brownout_transitions > 0);
}
