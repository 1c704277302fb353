//! Per-tenant SLO burn-rate tracking with replay-offset exemplars
//! (DESIGN.md §14).
//!
//! Three signals per tenant, each an error-budget SLO: queue-wait p99
//! (a request waiting longer than the target is budget spend), the
//! admitted-EDP ratio (an execution whose realized EDP blows past its
//! prediction by more than the margin is budget spend), and the shed
//! rate (every shed is budget spend). For each signal the tracker keeps
//! two sliding windows — short (default 5 min) and long (default 1 h) —
//! of good/bad counts in coarse buckets, and computes the *burn rate*:
//! the observed bad fraction divided by the signal's error budget. An
//! alert fires only when **both** windows burn above the threshold — the
//! classic multi-window rule: the short window proves the problem is
//! happening *now*, the long window proves it is not a blip.
//!
//! Every fired [`SloEvent`] carries the feeding site's current `RunLog`
//! offset as an **exemplar**: `easched replay --log … --at <offset>`
//! replays exactly the slice of the run that spent the budget. Events
//! are derived state — a faithful replay regenerates them from the same
//! deterministic observation stream — so, like control events, they are
//! never written to the log itself.
//!
//! The tracker is also the one counter of fired alerts: it keeps the
//! last 256 events for `/slo` but counts every one per tenant, and
//! renders the breach series of `/metrics` from those counts
//! ([`expose_slo`]).

use crate::counters::{expose_rows, expose_rows_labelled, push_json_field};
use crate::trace::json_f64;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Mutex, PoisonError};

/// Which SLO signal an observation or event concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SloKind {
    /// Queue-wait p99: waits beyond the target spend the 1 % budget.
    QueueWait,
    /// Admitted-EDP ratio: realized EDP beyond `edp_margin ×` predicted.
    EdpRatio,
    /// Shed rate: refused offers against the shed budget.
    ShedRate,
}

impl SloKind {
    /// Stable display/wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            SloKind::QueueWait => "queue_wait_p99",
            SloKind::EdpRatio => "edp_ratio",
            SloKind::ShedRate => "shed_rate",
        }
    }
}

/// SLO targets and window geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloConfig {
    /// Short window length, seconds (default 300 — 5 minutes).
    pub(crate) short_window: f64,
    /// Long window length, seconds (default 3600 — 1 hour).
    pub(crate) long_window: f64,
    /// Queue-wait target, seconds: a request waiting longer spends
    /// budget. The budget is 1 % (it is a p99 objective).
    pub(crate) queue_wait_target: f64,
    /// A request's realized EDP may exceed its predicted objective by
    /// this factor before the sample spends budget.
    pub(crate) edp_margin: f64,
    /// Error budget for the EDP signal: allowed fraction of
    /// beyond-margin executions.
    pub(crate) edp_budget: f64,
    /// Error budget for the shed signal: allowed fraction of shed
    /// offers.
    pub(crate) shed_budget: f64,
    /// Burn rate (bad fraction ÷ budget) both windows must exceed for an
    /// alert to fire.
    pub(crate) burn_threshold: f64,
}

impl Default for SloConfig {
    fn default() -> SloConfig {
        SloConfig {
            short_window: 300.0,
            long_window: 3600.0,
            queue_wait_target: 4.0,
            edp_margin: 2.0,
            edp_budget: 0.25,
            shed_budget: 0.1,
            burn_threshold: 2.0,
        }
    }
}

/// The queue-wait signal's fixed error budget (p99 ⇒ 1 %).
const QUEUE_WAIT_BUDGET: f64 = 0.01;

/// Window buckets per signal: the short window is resolved into this
/// many coarse buckets (the long window reuses the same bucket span).
const BUCKETS_PER_SHORT_WINDOW: usize = 30;

/// A fired SLO alert: both windows burned past the threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloEvent {
    /// The breaching tenant's registry index.
    pub tenant: u64,
    /// The breaching signal.
    pub kind: SloKind,
    /// Short-window burn rate at fire time.
    pub burn_short: f64,
    /// Long-window burn rate at fire time.
    pub burn_long: f64,
    /// The configured threshold both rates exceeded.
    pub(crate) threshold: f64,
    /// Virtual time of the firing observation, seconds.
    pub at: f64,
    /// `RunLog` event offset at fire time — the exemplar.
    /// `easched replay --log … --at <offset>` replays the breaching
    /// slice. Zero when no log was attached to the run.
    pub exemplar_offset: u64,
}

/// Burn-rate reading for one `(tenant, signal)` pair (the `/slo` page).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct BurnStatus {
    /// Tenant registry index.
    pub(crate) tenant: u64,
    /// Tenant display name, if registered.
    pub(crate) name: Option<String>,
    /// The signal.
    pub(crate) kind: SloKind,
    /// Short-window burn rate.
    pub(crate) burn_short: f64,
    /// Long-window burn rate.
    pub(crate) burn_long: f64,
    /// Samples in the short window.
    pub(crate) samples_short: u64,
    /// Whether the alert is currently firing (hysteresis-latched).
    pub(crate) firing: bool,
}

/// One signal's sliding window: good/bad counts in coarse time buckets.
#[derive(Debug, Default, Clone)]
struct Window {
    /// `bucket index -> (good, bad)`; pruned as time advances.
    buckets: BTreeMap<u64, (u64, u64)>,
    firing: bool,
}

#[derive(Debug, Default)]
struct TrackerState {
    /// `(tenant, signal) -> window`.
    windows: BTreeMap<(u64, SloKind), Window>,
    names: BTreeMap<u64, String>,
    events: Vec<SloEvent>,
    /// `tenant -> alerts fired`, every one, retained or not.
    breaches: BTreeMap<u64, u64>,
}

/// Cap on retained fired events (oldest dropped first).
const MAX_EVENTS: usize = 256;

crate::counter_table! {
    /// The tracker's total on a `/metrics` page.
    pub report SloSeries;
    /// Alerts fired, all tenants.
    breaches: counter = "easched_slo_breaches_total",
        "SLO burn-rate breaches fired by the tracker",
}

crate::counter_table! {
    /// The tracker's per-tenant counts on a `/metrics` page.
    pub report TenantSloSeries;
    /// Alerts fired for one tenant.
    breaches: counter = "easched_tenant_slo_breaches_total", "SLO burn-rate breaches, per tenant",
}

/// Renders the SLO tracker's `/metrics` fragment: the total of fired
/// alerts, then — once any has fired — one `tenant="<name>"` sample per
/// tenant with a breach, labelled with its registered name or, lacking
/// one, its id.
pub fn expose_slo(names: &BTreeMap<u64, String>, breaches: &BTreeMap<u64, u64>) -> String {
    let mut out = String::new();
    expose_rows(&mut out, &SloSeries::ROWS, &[breaches.values().sum()]);
    if !breaches.is_empty() {
        let label = |t: &u64| names.get(t).cloned().unwrap_or_else(|| t.to_string());
        let labels: Vec<String> = breaches.keys().map(label).collect();
        let series: Vec<_> = labels
            .iter()
            .map(String::as_str)
            .zip(breaches.values().map(|&n| [n]))
            .collect();
        expose_rows_labelled(&mut out, &TenantSloSeries::ROWS, "tenant", &series);
    }
    out
}

/// Minimum samples a window needs before its burn rate can fire an
/// alert: one bad first sample is a blip, not a breach.
const MIN_SAMPLES: u64 = 10;

/// The SLO engine: feed observations, read burn rates, collect fired
/// events. Interior-mutexed — feeding happens per request / per offer,
/// far off the per-item hot path.
#[derive(Debug)]
pub struct SloTracker {
    cfg: SloConfig,
    bucket_span: f64,
    state: Mutex<TrackerState>,
}

impl Default for SloTracker {
    fn default() -> SloTracker {
        SloTracker::new(SloConfig::default())
    }
}

impl SloTracker {
    /// A tracker with the given targets and windows.
    pub fn new(cfg: SloConfig) -> SloTracker {
        SloTracker {
            bucket_span: (cfg.short_window / BUCKETS_PER_SHORT_WINDOW as f64).max(1e-9),
            cfg,
            state: Mutex::new(TrackerState::default()),
        }
    }

    /// Registers a tenant display name for `/slo` rendering.
    pub fn set_tenant_name(&self, tenant: u64, name: &str) {
        let mut state = self.lock();
        state.names.insert(tenant, name.to_string());
    }

    /// Feeds one drained request's queue wait. Returns the alert if this
    /// observation fired one.
    pub fn observe_queue_wait(
        &self,
        tenant: u64,
        wait_seconds: f64,
        now: f64,
        offset: u64,
    ) -> Option<SloEvent> {
        // NaN waits (chaos-corrupted observations) spend budget too.
        let bad = wait_seconds > self.cfg.queue_wait_target || wait_seconds.is_nan();
        self.observe(tenant, SloKind::QueueWait, bad, now, offset)
    }

    /// Feeds one offer outcome (`shed = true` spends budget).
    pub fn observe_shed(&self, tenant: u64, shed: bool, now: f64, offset: u64) -> Option<SloEvent> {
        self.observe(tenant, SloKind::ShedRate, shed, now, offset)
    }

    /// Feeds one executed request's predicted and realized EDP (the
    /// scheduler-visible stream, identical under replay). A sample with
    /// no prediction is skipped; a corrupted (non-finite) realized value
    /// spends budget.
    pub fn observe_edp(
        &self,
        tenant: u64,
        predicted: f64,
        realized: f64,
        now: f64,
        offset: u64,
    ) -> Option<SloEvent> {
        if predicted <= 0.0 || !predicted.is_finite() {
            return None;
        }
        // NaN realized EDP (corrupted observation) spends budget too.
        let bad = realized > self.cfg.edp_margin * predicted || realized.is_nan();
        self.observe(tenant, SloKind::EdpRatio, bad, now, offset)
    }

    fn budget(&self, kind: SloKind) -> f64 {
        match kind {
            SloKind::QueueWait => QUEUE_WAIT_BUDGET,
            SloKind::EdpRatio => self.cfg.edp_budget,
            SloKind::ShedRate => self.cfg.shed_budget,
        }
    }

    fn observe(
        &self,
        tenant: u64,
        kind: SloKind,
        bad: bool,
        now: f64,
        offset: u64,
    ) -> Option<SloEvent> {
        if !now.is_finite() || now < 0.0 {
            return None;
        }
        let bucket = (now / self.bucket_span) as u64;
        let budget = self.budget(kind);
        let threshold = self.cfg.burn_threshold;
        let (short, long) = (self.cfg.short_window, self.cfg.long_window);
        let bucket_span = self.bucket_span;

        let mut state = self.lock();
        let window = state.windows.entry((tenant, kind)).or_default();
        // Prune buckets older than the long window.
        let horizon = (now - long).max(0.0);
        let oldest = (horizon / bucket_span) as u64;
        window.buckets = window.buckets.split_off(&oldest);
        let entry = window.buckets.entry(bucket).or_insert((0, 0));
        if bad {
            entry.1 += 1;
        } else {
            entry.0 += 1;
        }

        let (burn_short, samples_short) =
            burn_counted(&window.buckets, bucket, short, bucket_span, budget);
        let (burn_long, samples_long) =
            burn_counted(&window.buckets, bucket, long, bucket_span, budget);
        let breaching = burn_short >= threshold
            && burn_long >= threshold
            && samples_short >= MIN_SAMPLES
            && samples_long >= MIN_SAMPLES;
        let fired = breaching && !window.firing;
        window.firing = breaching;
        if !fired {
            return None;
        }
        let event = SloEvent {
            tenant,
            kind,
            burn_short,
            burn_long,
            threshold,
            at: now,
            exemplar_offset: offset,
        };
        if state.events.len() >= MAX_EVENTS {
            state.events.remove(0);
        }
        state.events.push(event);
        *state.breaches.entry(tenant).or_default() += 1;
        Some(event)
    }

    /// Every fired event still retained, oldest first.
    pub fn events(&self) -> Vec<SloEvent> {
        self.lock().events.clone()
    }

    /// Current burn rates for every `(tenant, signal)` with data, as of
    /// virtual time `now`.
    pub(crate) fn burn_rates(&self, now: f64) -> Vec<BurnStatus> {
        let state = self.lock();
        let bucket = (now.max(0.0) / self.bucket_span) as u64;
        state
            .windows
            .iter()
            .map(|(&(tenant, kind), window)| {
                let budget = self.budget(kind);
                let samples_short: u64 = window
                    .buckets
                    .range(in_window(bucket, self.cfg.short_window, self.bucket_span))
                    .map(|(_, &(g, b))| g + b)
                    .sum();
                BurnStatus {
                    tenant,
                    name: state.names.get(&tenant).cloned(),
                    kind,
                    burn_short: burn(
                        &window.buckets,
                        bucket,
                        self.cfg.short_window,
                        self.bucket_span,
                        budget,
                    ),
                    burn_long: burn(
                        &window.buckets,
                        bucket,
                        self.cfg.long_window,
                        self.bucket_span,
                        budget,
                    ),
                    samples_short,
                    firing: window.firing,
                }
            })
            .collect()
    }

    /// Renders the `/slo` page: burn rates and fired events as JSON.
    pub fn render_json(&self, now: f64) -> String {
        let mut out = String::with_capacity(512);
        out.push('{');
        push_json_field(
            &mut out,
            "burn_threshold",
            json_f64(self.cfg.burn_threshold),
        );
        out.push_str(",\"signals\":[");
        for (i, s) in self.burn_rates(now).iter().enumerate() {
            out.push_str(if i > 0 { ",{" } else { "{" });
            push_json_field(&mut out, "tenant", s.tenant);
            let name = s.name.as_ref();
            let name = name.map_or("null".into(), |n| format!("\"{}\"", escape_json(n)));
            push_json_field(&mut out, "name", name);
            push_json_field(&mut out, "signal", format_args!("\"{}\"", s.kind.as_str()));
            push_json_field(&mut out, "burn_short", json_f64(s.burn_short));
            push_json_field(&mut out, "burn_long", json_f64(s.burn_long));
            push_json_field(&mut out, "samples_short", s.samples_short);
            push_json_field(&mut out, "firing", s.firing);
            out.push('}');
        }
        out.push_str("],\"events\":[");
        for (i, e) in self.events().iter().enumerate() {
            out.push_str(if i > 0 { ",{" } else { "{" });
            push_json_field(&mut out, "tenant", e.tenant);
            push_json_field(&mut out, "signal", format_args!("\"{}\"", e.kind.as_str()));
            push_json_field(&mut out, "burn_short", json_f64(e.burn_short));
            push_json_field(&mut out, "burn_long", json_f64(e.burn_long));
            push_json_field(&mut out, "at", json_f64(e.at));
            push_json_field(&mut out, "exemplar_offset", e.exemplar_offset);
            out.push('}');
        }
        out.push_str("]}");
        out
    }

    /// This tracker's `/metrics` fragment ([`expose_slo`]).
    pub fn expose(&self) -> String {
        let state = self.lock();
        expose_slo(&state.names, &state.breaches)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TrackerState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Bucket range covering the trailing `window` seconds ending at
/// `bucket` (inclusive).
fn in_window(bucket: u64, window: f64, bucket_span: f64) -> std::ops::RangeInclusive<u64> {
    let span_buckets = (window / bucket_span).ceil() as u64;
    bucket.saturating_sub(span_buckets.saturating_sub(1))..=bucket
}

/// Burn rate over the trailing window: bad fraction ÷ budget (0 with no
/// samples). A window shorter than its nominal length — early in a run —
/// burns over the samples it has: the alert rule's long window then
/// simply needs sustained evidence rather than an hour of history.
fn burn(
    buckets: &BTreeMap<u64, (u64, u64)>,
    bucket: u64,
    window: f64,
    bucket_span: f64,
    budget: f64,
) -> f64 {
    burn_counted(buckets, bucket, window, bucket_span, budget).0
}

/// [`burn`] plus the window's sample count (the alert rule's
/// [`MIN_SAMPLES`] guard needs both).
fn burn_counted(
    buckets: &BTreeMap<u64, (u64, u64)>,
    bucket: u64,
    window: f64,
    bucket_span: f64,
    budget: f64,
) -> (f64, u64) {
    let (good, bad) = buckets
        .range(in_window(bucket, window, bucket_span))
        .fold((0u64, 0u64), |(g, b), (_, &(dg, db))| (g + dg, b + db));
    let total = good + bad;
    if total == 0 || budget <= 0.0 {
        return (0.0, total);
    }
    ((bad as f64 / total as f64) / budget, total)
}

/// The workspace's one JSON string escaper: quotes, backslashes and
/// control characters become their JSON escapes, so a hostile tenant name
/// cannot break a page.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::escape_label_value;

    #[test]
    fn no_alert_without_sustained_burn() {
        let t = SloTracker::default();
        // 1 shed in 100 offers = 10% of a 10% budget = burn 1.0 < 2.0.
        for i in 0..100 {
            let fired = t.observe_shed(0, i == 0, i as f64 * 0.1, i);
            assert!(fired.is_none(), "burn below threshold must not fire");
        }
        let rates = t.burn_rates(10.0);
        let shed = rates
            .iter()
            .find(|s| s.kind == SloKind::ShedRate)
            .expect("shed window exists");
        assert!(shed.burn_short < 2.0);
        assert!(!shed.firing);
        assert!(t.events().is_empty());
    }

    #[test]
    fn sustained_sheds_fire_once_with_exemplar() {
        let t = SloTracker::default();
        let mut fired = Vec::new();
        // 50% sheds against a 10% budget: burn 5.0 in both windows.
        for i in 0..40u64 {
            if let Some(e) = t.observe_shed(3, i % 2 == 0, i as f64, 1000 + i) {
                fired.push(e);
            }
        }
        assert_eq!(fired.len(), 1, "hysteresis: one event per breach episode");
        let e = fired[0];
        assert_eq!(e.tenant, 3);
        assert_eq!(e.kind, SloKind::ShedRate);
        assert!(e.burn_short >= 2.0 && e.burn_long >= 2.0);
        assert_eq!(e.exemplar_offset, 1000 + e.at as u64);
        assert_eq!(t.events(), fired);
    }

    #[test]
    fn recovery_rearms_the_alert() {
        let cfg = SloConfig {
            short_window: 10.0,
            long_window: 20.0,
            ..SloConfig::default()
        };
        let t = SloTracker::new(cfg);
        for i in 0..20u64 {
            t.observe_shed(0, true, i as f64, i);
        }
        assert_eq!(t.events().len(), 1);
        // A clean stretch longer than both windows clears the burn...
        for i in 20..60u64 {
            t.observe_shed(0, false, i as f64, i);
        }
        assert!(!t.burn_rates(59.0)[0].firing);
        // ...and the next sustained breach fires a second event.
        for i in 60..80u64 {
            t.observe_shed(0, true, i as f64, i);
        }
        assert_eq!(t.events().len(), 2);
    }

    #[test]
    fn queue_wait_is_a_p99_objective() {
        let t = SloTracker::default();
        // 5% of waits over target vs a 1% budget: burn 5.0 — fires.
        let mut fired = 0;
        for i in 0..100u64 {
            let wait = if i % 20 == 0 { 10.0 } else { 1.0 };
            if t.observe_queue_wait(1, wait, i as f64, i).is_some() {
                fired += 1;
            }
        }
        assert_eq!(fired, 1);
    }

    #[test]
    fn edp_samples_without_prediction_are_skipped() {
        let t = SloTracker::default();
        assert!(t.observe_edp(0, 0.0, 5.0, 1.0, 0).is_none());
        assert!(t.observe_edp(0, f64::NAN, 5.0, 1.0, 0).is_none());
        assert!(t.burn_rates(1.0).is_empty());
        // Corrupted realized values spend budget.
        for i in 0..30u64 {
            t.observe_edp(0, 1.0, f64::NAN, i as f64, i);
        }
        let rates = t.burn_rates(29.0);
        assert!(rates[0].burn_short > 0.0);
    }

    /// Fires one alert of `kind` for `tenant`: twenty bad samples.
    fn breach(t: &SloTracker, tenant: u64, kind: SloKind) {
        for i in 0..20u64 {
            let fired = match kind {
                SloKind::QueueWait => t.observe_queue_wait(tenant, 10.0, i as f64, i),
                SloKind::EdpRatio => t.observe_edp(tenant, 1.0, 5.0, i as f64, i),
                SloKind::ShedRate => t.observe_shed(tenant, true, i as f64, i),
            };
            assert_eq!(fired.is_some(), i == MIN_SAMPLES - 1, "{kind:?} sample {i}");
        }
    }

    #[test]
    fn breaches_count_globally_and_per_tenant() {
        let t = SloTracker::default();
        // The total is always on the page, the tenants once one fires.
        let page = t.expose();
        assert!(page.ends_with("\neasched_slo_breaches_total 0\n") && !page.contains("tenant"));
        breach(&t, 4, SloKind::ShedRate);
        breach(&t, 4, SloKind::QueueWait);
        breach(&t, 1, SloKind::EdpRatio);
        let page = t.expose();
        for sample in [
            "easched_slo_breaches_total 3\n",
            "easched_tenant_slo_breaches_total{tenant=\"1\"} 1\n",
            "easched_tenant_slo_breaches_total{tenant=\"4\"} 2\n",
        ] {
            assert!(page.contains(sample), "{sample} missing from\n{page}");
        }
    }

    #[test]
    fn breaches_are_counted_past_the_event_retention_cap() {
        let cfg = SloConfig {
            short_window: 10.0,
            long_window: 20.0,
            ..SloConfig::default()
        };
        let t = SloTracker::new(cfg);
        // One breach episode per cycle: a bad stretch, then a clean one
        // longer than both windows re-arms the alert.
        let cycles = MAX_EVENTS as u64 + 44;
        let mut now = 0u64;
        for _ in 0..cycles {
            for bad in [true, false, false] {
                for _ in 0..20 {
                    t.observe_shed(0, bad, now as f64, now);
                    now += 1;
                }
            }
        }
        assert_eq!(t.events().len(), MAX_EVENTS, "retention is capped");
        let page = t.expose();
        for sample in [
            format!("easched_slo_breaches_total {cycles}\n"),
            format!("easched_tenant_slo_breaches_total{{tenant=\"0\"}} {cycles}\n"),
        ] {
            assert!(page.contains(&sample), "{sample} missing from\n{page}");
        }
    }

    #[test]
    fn hostile_tenant_names_are_escaped_in_labels() {
        let names = BTreeMap::from([
            (0, "evil\"} 666\nfake_metric 1".to_string()),
            (1, "back\\slash".to_string()),
        ]);
        let page = expose_slo(&names, &BTreeMap::from([(0, 1), (1, 1), (2, 1)]));
        // The quote, newline, and backslash are all escaped: the hostile
        // name cannot close the label, inject a series, or truncate it.
        assert!(
            page.contains("{tenant=\"evil\\\"} 666\\nfake_metric 1\"} 1"),
            "{page}"
        );
        assert!(page.contains("{tenant=\"back\\\\slash\"} 1"), "{page}");
        assert!(
            !page.contains("fake_metric 1\n"),
            "injected series:\n{page}"
        );
        // Unnamed tenants keep their numeric label.
        assert!(page.contains("{tenant=\"2\"} 1"), "{page}");
        // Every physical line still starts like a metric or a comment.
        for line in page.lines() {
            assert!(
                line.starts_with("# ") || line.starts_with("easched_"),
                "stray line: {line}"
            );
        }
        assert_eq!(escape_label_value("plain-name"), "plain-name");
        assert_eq!(escape_label_value("a\rb"), "ab");
    }

    #[test]
    fn json_rendering_is_wellformed_and_escapes_names() {
        let t = SloTracker::default();
        t.set_tenant_name(0, "bad\"name\\with\nnewline");
        for i in 0..30u64 {
            t.observe_shed(0, true, i as f64, i);
        }
        let json = t.render_json(30.0);
        assert!(json.contains("\"signal\":\"shed_rate\""));
        assert!(json.contains("\"exemplar_offset\":"));
        assert!(json.contains("bad\\\"name\\\\with\\nnewline"));
        assert!(!json.contains('\n'), "page is a single line");
        assert!(json.starts_with('{') && json.ends_with('}'));
    }
}
