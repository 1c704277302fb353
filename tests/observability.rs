//! Observability-plane integration: concurrent scrapes against a live
//! overload storm (ISSUE: observability plane, DESIGN.md §14).
//!
//! The acceptance demo is `easched serve`; this test is its adversarial
//! twin. Eight scraper threads hammer `/metrics` and `/slo` over real
//! TCP while the canonical eight-tenant storm records on the main
//! thread, asserting the three load-bearing properties at once:
//!
//! 1. every completed scrape is a well-formed `200` with the expected
//!    families (readers never see a torn seqlock snapshot), and every
//!    histogram's `+Inf` bucket equals its `_count`,
//! 2. the server survives the contention (no handler panics, bounded
//!    connections hold), and
//! 3. the storm's run log is byte-identical to an unobserved run — the
//!    whole observability plane, scrape traffic included, is derived
//!    state that never leaks into the recording.

use easched::replay::{record_overload_storm, record_overload_storm_observed_with, OverloadSpec};
use easched::telemetry::{http_get, Page, Router, ScrapeServer, ServeConfig, TimeSource};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const SCRAPERS: usize = 8;

#[test]
fn concurrent_scrapes_ride_a_live_storm_without_perturbing_it() {
    let spec = OverloadSpec::new(7);
    let stop = Arc::new(AtomicBool::new(false));
    let mut server: Option<ScrapeServer> = None;
    let mut scrapers: Vec<JoinHandle<(u64, u64)>> = Vec::new();

    let observed = record_overload_storm_observed_with(&spec, |live| {
        let start = Instant::now();
        let time: TimeSource = Arc::new(move || start.elapsed().as_secs_f64());
        let metrics_page = {
            let ring = Arc::clone(&live.ring);
            let frontend = Arc::clone(&live.frontend);
            let time = Arc::clone(&time);
            move || {
                let m = ring.metrics();
                m.observe_now(time());
                let scheduler = frontend.shared().expose();
                Page::metrics(m.expose() + &scheduler + &frontend.expose())
            }
        };
        let slo_page = {
            let slo = Arc::clone(&live.slo);
            move || Page::json(slo.render_json(spec.ticks as f64))
        };
        let router = Router::new()
            .route("/metrics", metrics_page)
            .route("/slo", slo_page);
        let srv = ScrapeServer::bind_tcp("127.0.0.1:0", router, ServeConfig::default(), time)
            .expect("loopback bind");
        let addr = srv.local_addr().expect("tcp server has an address");
        for t in 0..SCRAPERS {
            let stop = Arc::clone(&stop);
            scrapers.push(std::thread::spawn(move || {
                let path = if t % 2 == 0 { "/metrics" } else { "/slo" };
                // One family from each fragment of the composed page.
                let want: &[&str] = if t % 2 == 0 {
                    &[
                        "easched_invocations_total",
                        "easched_profile_rounds_total",
                        "easched_tenant_requests_shed_total{tenant=",
                        "easched_slo_breaches_total",
                    ]
                } else {
                    &["burn_threshold"]
                };
                let (mut ok, mut attempts) = (0u64, 0u64);
                while !stop.load(Ordering::Relaxed) {
                    attempts += 1;
                    // 503 under max_connections pressure is backpressure
                    // working as designed, not a failure; anything else
                    // non-200 (or a malformed 200) is.
                    match http_get(&addr, path, Duration::from_secs(5)) {
                        Ok((200, body)) => {
                            let whole = want.iter().all(|w| body.contains(w));
                            assert!(whole, "torn {path} scrape: {body:?}");
                            assert_histograms_close(&body);
                            ok += 1;
                        }
                        Ok((503, _)) => {}
                        Ok((status, body)) => panic!("{path} -> HTTP {status}: {body:?}"),
                        Err(e) => panic!("{path} scrape failed mid-storm: {e}"),
                    }
                }
                (ok, attempts)
            }));
        }
        server = Some(srv);
    });

    stop.store(true, Ordering::Relaxed);
    let (mut ok, mut attempts) = (0u64, 0u64);
    for h in scrapers {
        let (o, a) = h.join().expect("scraper thread must not panic");
        ok += o;
        attempts += a;
    }
    let server = server.expect("server was bound in the live hook");
    assert!(
        ok > 0,
        "no scrape completed during the storm ({attempts} attempts)"
    );
    assert!(server.served() >= ok);
    server.shutdown();

    // The determinism gate: a storm scraped by eight threads records the
    // same bytes as one nobody watched.
    assert!(observed.recorded.offered > 0);
    let unobserved = record_overload_storm(&spec);
    assert_eq!(
        observed.recorded.log.to_text(),
        unobserved.log.to_text(),
        "concurrent scraping perturbed the run log"
    );
}

/// Every histogram on `page` closes with a `le="+Inf"` bucket equal to
/// its `_count`, as one read of its buckets renders them.
fn assert_histograms_close(page: &str) {
    let families = page.lines().filter_map(|l| {
        let rest = l.strip_prefix("# TYPE ")?;
        rest.strip_suffix(" histogram")
    });
    for family in families {
        let sample = |suffix: &str| {
            let mut lines = page.lines();
            lines.find_map(|l| l.strip_prefix(family)?.strip_prefix(suffix))
        };
        let inf = sample("_bucket{le=\"+Inf\"} ");
        let count = sample("_count ");
        assert!(
            inf.is_some() && inf == count,
            "{family}: +Inf bucket {inf:?} != _count {count:?}"
        );
    }
}
