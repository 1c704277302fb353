//! One run of one workload: set-up (repeated, median reported), timed
//! units until the time is up, output checks, metrics.

use crate::calib::{self, Calibrator};
use crate::json::Json;
use crate::lanes;
use crate::seams;
use crate::spec::{self, MetricSpec};
use crate::stats::median;
use crate::trace::{self, TraceReport};
use crate::workloads::{self, Checks, Unit, Workload, OUT_DIR};
use std::time::{Duration, Instant};

/// Set-up runs this many times; `setup_s` is the median.
const SETUP_REPS: usize = 3;

pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    /// In the order of the spec table the run reports.
    pub metrics: Vec<(&'static MetricSpec, f64)>,
}

impl RunResult {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(m, value)| {
                    (
                        m.name,
                        Json::obj([("value", Json::Num(*value)), ("unit", Json::str(m.unit))]),
                    )
                })),
            ),
        ])
    }
}

/// A phase of a run: its units, each with the host speed measured
/// around it.
struct Phase {
    units: Vec<Unit>,
    /// Per unit: what to multiply its times by — the reference kernel time
    /// over the mean of the calibration points before and after the unit.
    factors: Vec<f64>,
}

/// Runs units back to back until `budget` has passed (at least one),
/// calibrating between them.
fn units_for(
    workload: &mut dyn Workload,
    budget: Duration,
    traced: bool,
    calibrator: &mut Calibrator,
) -> Phase {
    let start = Instant::now();
    let (mut units, mut factors) = (Vec::new(), Vec::new());
    // The first point cannot know how long the units are; a set-up sized
    // point is long enough for any of them.
    let mut before = calibrator.point(Duration::from_secs(1));
    while units.is_empty() || start.elapsed() < budget {
        let unit = workload.unit(traced);
        let after = calibrator.point(unit.wall);
        units.push(unit);
        factors.push(calib::time_factor((before + after) / 2.0));
        before = after;
    }
    Phase { units, factors }
}

impl Phase {
    /// Median over the units of normalised invocations per second.
    fn rate(&self) -> f64 {
        let rates: Vec<f64> = self
            .units
            .iter()
            .zip(&self.factors)
            .map(|(u, f)| u.invocations as f64 / (u.wall.as_secs_f64() * f))
            .collect();
        median(&rates)
    }

    /// Median normalised ns per invocation over the finest batches (the
    /// unit itself where the workload exposes nothing finer).
    fn invocation_ns(&self) -> f64 {
        let samples: Vec<f64> = self
            .units
            .iter()
            .zip(&self.factors)
            .flat_map(|(u, f)| {
                let whole = u.wall.as_nanos() as f64 / u.invocations as f64;
                std::iter::once(whole)
                    .filter(|_| u.batch_ns.is_empty())
                    .chain(u.batch_ns.iter().copied())
                    .map(move |ns| ns * f)
            })
            .collect();
        median(&samples)
    }

    /// Median kernel ns per iteration the phase was normalised by.
    fn calib_ns(&self) -> f64 {
        calib::REFERENCE_NS / median(&self.factors)
    }

    fn checks(&self) -> Checks {
        let mut checks = Checks::default();
        for unit in &self.units {
            checks.absorb(unit.checks);
        }
        checks
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn single(name: &str, seed: u64, seconds: u64, traced: bool) -> RunResult {
    std::fs::create_dir_all(OUT_DIR).unwrap_or_else(|e| panic!("cannot create {OUT_DIR}: {e}"));

    let mut calibrator = Calibrator::new();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut workload = None;
    let mut before = calibrator.point(Duration::from_secs(1));
    for _ in 0..SETUP_REPS {
        // Dropping the previous build is not part of the next one.
        drop(workload.take());
        let start = Instant::now();
        workload = Some(workloads::build(name, seed).expect("name was validated"));
        let elapsed = start.elapsed();
        let after = calibrator.point(elapsed);
        setup_s.push(elapsed.as_secs_f64() * calib::time_factor((before + after) / 2.0));
        before = after;
    }
    let mut workload = workload.expect("SETUP_REPS >= 1");
    let setup_s = median(&setup_s);

    // A traced run splits its time: the untraced half is what the traced
    // half's overhead is measured against.
    let budget = Duration::from_secs(seconds);
    let untraced = units_for(
        workload.as_mut(),
        if traced { budget / 2 } else { budget },
        false,
        &mut calibrator,
    );
    let mut checks = untraced.checks();

    let mut values: Vec<(&'static str, f64)> = Vec::new();
    if traced {
        trace::start();
        let phase = units_for(workload.as_mut(), budget / 2, true, &mut calibrator);
        let report = trace::finish();
        checks.absorb(phase.checks());
        checks.absorb(workload.verify());
        traced_metrics(&mut values, name, &untraced, &phase, &report);
        drop(workload);
        values.extend(lanes::measure(seed));
    } else {
        checks.absorb(workload.verify());
        values.push(("invocations_per_s", untraced.rate()));
        values.push(("invocation_ns_p50", untraced.invocation_ns()));
        values.push(("peak_rss_mb", peak_rss_mb()));
        values.push(("setup_s", setup_s));
        // For a human watching: what the host did to this run.
        eprintln!(
            "{name}: host calibration {:.3} ns/iteration, times scaled by {:.3}",
            untraced.calib_ns(),
            calib::time_factor(untraced.calib_ns())
        );
    }

    let specs: &'static [MetricSpec] = if traced {
        &spec::PER_LAYER
    } else {
        &spec::END_TO_END
    };
    let metrics = specs
        .iter()
        .map(|m| {
            let value = values
                .iter()
                .find(|(name, _)| *name == m.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", m.name))
                .1;
            (m, value)
        })
        .collect();
    RunResult {
        attempted: checks.attempted.max(1),
        failed: checks.failed,
        metrics,
    }
}

/// The `trace.*` metrics, and the trace file.
fn traced_metrics(
    values: &mut Vec<(&'static str, f64)>,
    name: &str,
    untraced: &Phase,
    traced: &Phase,
    report: &TraceReport,
) {
    let wall_ns: u64 = traced.units.iter().map(|u| u.wall.as_nanos() as u64).sum();
    let traced_rate = traced.rate();
    values.push(("host.calib_mix_ns", traced.calib_ns()));
    values.push(("trace.invocations_per_s", traced_rate));
    values.push(("trace.overhead_frac", untraced.rate() / traced_rate - 1.0));
    let covered = report.covered_ns() as f64;
    values.push(("trace.coverage_frac", covered / wall_ns as f64));
    values.push(("trace.requests", report.requests as f64));
    values.push(("trace.spans_kept", report.spans.len() as f64));
    let share = |layers: &[&str]| {
        let ns: u64 = layers
            .iter()
            .filter_map(|l| report.layer(l))
            .map(|l| l.self_ns)
            .sum();
        ns as f64 / covered
    };
    let scheduler = share(&[seams::SCHEDULER]);
    let backend = share(&[seams::BACKEND]);
    let sink = share(&[seams::SINK]);
    let vfs = share(&[seams::VFS_WRITE, seams::VFS_SYNC, seams::VFS_META]);
    // Whatever is not behind a seam: the entry-point spans themselves.
    values.push((
        "trace.self_frac.entry",
        1.0 - scheduler - backend - sink - vfs,
    ));
    values.push(("trace.self_frac.scheduler", scheduler));
    values.push(("trace.self_frac.backend", backend));
    values.push(("trace.self_frac.sink", sink));
    values.push(("trace.self_frac.vfs", vfs));
    let unit_ms: Vec<f64> = traced
        .units
        .iter()
        .zip(&traced.factors)
        .map(|(u, f)| u.wall.as_secs_f64() * 1e3 * f)
        .collect();
    values.push(("trace.unit_ms_p50", median(&unit_ms)));
    values.push(("trace.peak_rss_mb", peak_rss_mb()));

    let path = format!("{OUT_DIR}/trace-{name}.json");
    let text = report.to_json(name, wall_ns).render();
    if let Err(e) = std::fs::write(&path, text + "\n") {
        eprintln!("cannot write {path}: {e}");
    }
}
