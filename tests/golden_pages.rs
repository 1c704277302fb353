//! Golden exposition pages, pinned at the commit before the counter
//! table landed (DESIGN.md §10): a scripted, clock-free feed must render
//! the same `/metrics` lines and the same `/health` JSON as it did when
//! every counter was enumerated by hand, and the fleet pages must keep
//! every sample line. `/metrics` is composed from the fragments of the
//! counts' owners — registry, health report, table store, kernel table,
//! admission controller, SLO tracker — so the page is compared as a
//! multiset of lines.

use easched::core::{
    expose_drift, expose_tenants, AdmissionSeries, HealthReport, StoreHealth, TenantSeries,
    DRIFT_SERIES,
};
use easched::fleet::{expose_fleet, expose_fleet_store, FleetStats};
use easched::replay::{record_overload_storm_observed_with, OverloadSpec};
use easched::runtime::{BrownoutLevel, TenantStats};
use easched::telemetry::{
    expose_slo, DecisionRecord, InvocationPath, MetricsRegistry, RingSink, Row, SloSeries,
    TelemetrySink, TenantSloSeries,
};
use std::collections::BTreeMap;

/// The label-escaping tests' hostile name (`a"b\c⏎d`) plus a control
/// byte, which JSON must escape and a label must not choke on.
const HOSTILE: &str = "a\"b\\c\nd\u{1b}";

/// The registry's part of the parent's scripted feed: one record per
/// invocation path, fixed build info and clock.
fn scripted_registry() -> RingSink {
    let sink = RingSink::default();
    let reg = sink.metrics();
    reg.set_build_info("9.9.9", "deadbeef");
    reg.mark_started(100.0);
    for code in 0..8u8 {
        let i = u32::from(code);
        sink.record(&DecisionRecord {
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
    sink.metrics().observe_now(107.5);
    sink
}

/// The rest of the parent's feed, read from the counts' owners: the
/// rounds and paths its records carried, its event `i` fired `i + 1`
/// times plus one more shed of `gold` (the admission totals are the
/// tenants' sums), its store's counts, the drift EWMA its events left on
/// kernel 42, and ten SLO breaches of tenant 1 with two named tenants.
fn scripted_page() -> String {
    let health = HealthReport {
        observations_accepted: 36,
        observations_rejected: 28,
        degraded_invocations: 1,
        quarantined_invocations: 1,
        throttled_invocations: 1,
        drift_reprofiles: 2,
        reprofiles_suppressed: 3,
        watchdog_trips: 4,
        split_overruns: 5,
        ..HealthReport::default()
    };
    let store = StoreHealth {
        io_errors: 11,
        degraded: 1,
        bytes_written: 4096,
        ..StoreHealth::default()
    };
    let tenants = [
        ("gold", 1, 7, 0),
        (HOSTILE, 6, 0, 8), // name, shed, queued, quota denials
    ]
    .map(|(name, shed, queued, quota_denials)| {
        let stats = TenantStats {
            shed,
            queued,
            quota_denials,
            ..TenantStats::default()
        };
        (name.to_string(), stats)
    });
    let names = BTreeMap::from([(0, "gold".to_string()), (1, HOSTILE.to_string())]);
    scripted_registry().metrics().expose()
        + &health.expose()
        + &store.expose()
        + &expose_drift(&[(42, 2.5)])
        + &expose_tenants(BrownoutLevel::ForceCpu, 9, &tenants)
        + &expose_slo(&names, &BTreeMap::from([(1, 10)]))
}

/// Lines of `page` missing from `parent`, then lines of `parent` missing
/// from `page`, as multisets, over the lines `keep` selects.
fn line_diff<'a>(
    page: &'a str,
    parent: &'a str,
    keep: impl Fn(&str) -> bool,
) -> (Vec<&'a str>, Vec<&'a str>) {
    let mut count: BTreeMap<&str, i64> = BTreeMap::new();
    for line in page.lines().filter(|l| keep(l)) {
        *count.entry(line).or_default() += 1;
    }
    for line in parent.lines().filter(|l| keep(l)) {
        *count.entry(line).or_default() -= 1;
    }
    let side = |sign: i64| {
        let lines = count.iter().filter(|(_, &n)| n * sign > 0);
        lines
            .flat_map(|(&l, &n)| std::iter::repeat_n(l, n.unsigned_abs() as usize))
            .collect()
    };
    (side(1), side(-1))
}

#[test]
fn metrics_page_matches_the_parent_commit() {
    let page = scripted_page();
    check_exposition(&page);
    let parent = include_str!("fixtures/golden_metrics.prom");
    let (added, lost) = line_diff(&page, parent, |_| true);
    // The bytes a store persisted only rise: a counter, as on the fleet
    // page, where the parent's `/metrics` typed it a gauge.
    assert_eq!(lost, ["# TYPE easched_store_bytes gauge"]);
    // Added, in line order: the store-bytes family typed a counter, two
    // zero tenant samples the parent left out, and the three store
    // families a single node's page now carries as the fleet page does
    // (all zero here).
    assert_eq!(
        added,
        [
            "# HELP easched_store_buffered_dropped Buffered journal lines dropped at the RAM bound",
            "# HELP easched_store_degraded_transitions Durable-to-degraded transitions",
            "# HELP easched_store_rearms Degraded-to-durable recoveries",
            "# TYPE easched_store_buffered_dropped counter",
            "# TYPE easched_store_bytes counter",
            "# TYPE easched_store_degraded_transitions counter",
            "# TYPE easched_store_rearms counter",
            "easched_store_buffered_dropped 0",
            "easched_store_degraded_transitions 0",
            "easched_store_rearms 0",
            "easched_tenant_quota_denials_total{tenant=\"gold\"} 0",
            "easched_tenant_requests_queued_total{tenant=\"a\\\"b\\\\c\\nd\u{1b}\"} 0",
        ]
    );
}

/// The seed-7 storm's `/metrics` page, composed as `easched serve`
/// composes it, carries every sample line the parent commit's registry
/// rendered for it, with the same value.
#[test]
fn observed_storm_page_keeps_every_parent_sample() {
    let mut live = None;
    let observed = record_overload_storm_observed_with(&OverloadSpec::new(7), |l| {
        live = Some(l.clone());
    });
    let live = live.expect("the storm hands out its live handles");
    let run = &observed.recorded;
    let page =
        live.ring.metrics().expose() + &live.frontend.shared().expose() + &live.frontend.expose();
    check_exposition(&page);
    let parent = include_str!("fixtures/observed_storm_samples.prom");
    let (added, lost) = line_diff(&page, parent, |l| !l.starts_with('#'));
    assert!(lost.is_empty(), "parent samples lost: {lost:?}");
    // Only samples the parent left out because they read zero: per-tenant
    // ones, and the store families a storm without a store reads as 0.
    let store_only = [
        "easched_store_degraded_transitions 0",
        "easched_store_rearms 0",
        "easched_store_buffered_dropped 0",
    ];
    let zero = |l: &&str| {
        (l.starts_with("easched_tenant_") && l.ends_with("} 0")) || store_only.contains(l)
    };
    assert!(added.iter().all(zero), "{added:?}");
    let stores = added.iter().filter(|l| store_only.contains(l)).count();
    assert_eq!(stores, store_only.len(), "{added:?}");
    assert!(run.shed > 0 && run.brownout_transitions > 0);
}

/// Every series name belongs to exactly one table: one owner counts it,
/// and every page that carries it renders that owner's row.
#[test]
fn every_series_name_is_declared_once() {
    let tables: [&[Row]; 9] = [
        &HealthReport::ROWS,
        &MetricsRegistry::ROWS,
        &FleetStats::ROWS,
        &StoreHealth::ROWS,
        &TenantSeries::ROWS,
        &AdmissionSeries::ROWS,
        &SloSeries::ROWS,
        &TenantSloSeries::ROWS,
        &[DRIFT_SERIES],
    ];
    let mut seen = std::collections::BTreeSet::new();
    for row in tables.concat().into_iter().filter(|r| !r.name.is_empty()) {
        assert!(seen.insert(row.name), "{} is declared twice", row.name);
    }
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
    let sick = StoreHealth {
        io_errors: 1,
        bytes_written: 2,
        degraded: 1,
        degraded_transitions: 3,
        rearms: 4,
        buffered: 5,
        buffered_dropped: 6,
        write_errors: 7,
        dir_sync_unsupported: 1,
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
