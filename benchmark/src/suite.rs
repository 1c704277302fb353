//! Run-everything mode: each pass of each workload in its own child
//! process (so `peak_rss_mb` and allocator state are per pass), medians
//! printed by name with unit, results written for `--compare`.

use crate::json::Json;
use crate::spec::{self, MetricSpec};
use crate::stats::{median, pick_percentile};
use crate::workloads::OUT_DIR;
use std::process::{Command, ExitCode, Stdio};

pub struct Plan {
    pub seed: u64,
    pub passes: usize,
    pub seconds: u64,
    pub traced: bool,
    pub filter: Option<String>,
    pub out: Option<String>,
}

/// One child run; returns its result line parsed.
fn child(workload: &str, plan: &Plan, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &plan.seed.to_string()])
        .args(["--seconds", &plan.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or("child printed no result")?;
    let result = Json::parse(line).map_err(|e| format!("child result is not JSON: {e}"))?;
    if !output.status.success() {
        eprintln!("{workload}: child exited with {}", output.status);
    }
    Ok(result)
}

fn value_of(result: &Json, metric: &str) -> Option<f64> {
    result.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

fn count_of(result: &Json, key: &str) -> u64 {
    result.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64
}

fn print_metric(workload: &str, m: &MetricSpec, values: &[f64]) {
    let each: Vec<String> = values.iter().map(|v| format!("{v:.6}")).collect();
    println!(
        "{workload:<14} {:<40} {:>16.6} {:<6} n={} [{}]",
        m.name,
        median(values),
        m.unit,
        values.len(),
        each.join(" ")
    );
}

pub fn main(plan: &Plan) -> ExitCode {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "easched benchmark: seed {}, {} untraced pass(es) of {} s{}, nproc {nproc}",
        plan.seed,
        plan.passes,
        plan.seconds,
        if plan.traced { " + 1 traced pass" } else { "" },
    );
    println!(
        "timings are medians over batches; with n samples the highest percentile worth \
         reading is p{} at n=100, p{} at n=1000",
        pick_percentile(100),
        pick_percentile(1_000)
    );
    let mut failed_runs = 0u32;
    let mut documents = Vec::new();
    for w in spec::WORKLOADS
        .iter()
        .filter(|w| plan.filter.as_deref().is_none_or(|f| f == w.name))
    {
        let mut sections = Vec::new();
        let (mut attempted, mut failed) = (0u64, 0u64);
        let modes = [
            (false, plan.passes, &spec::END_TO_END[..]),
            (true, usize::from(plan.traced), &spec::PER_LAYER[..]),
        ];
        for (traced, passes, specs) in modes {
            let mut results = Vec::new();
            for _ in 0..passes {
                match child(w.name, plan, traced) {
                    Ok(result) => results.push(result),
                    Err(e) => {
                        eprintln!("{}: {e}", w.name);
                        failed_runs += 1;
                    }
                }
            }
            let mut section = Vec::new();
            for m in specs {
                let values: Vec<f64> = results.iter().filter_map(|r| value_of(r, m.name)).collect();
                if values.is_empty() {
                    continue;
                }
                print_metric(w.name, m, &values);
                section.push((
                    m.name,
                    Json::obj([
                        ("unit", Json::str(m.unit)),
                        (
                            "values",
                            Json::Arr(values.into_iter().map(Json::Num).collect()),
                        ),
                    ]),
                ));
            }
            for r in &results {
                attempted += count_of(r, "attempted");
                failed += count_of(r, "failed");
            }
            sections.push((
                if traced { "per_layer" } else { "end_to_end" },
                Json::obj(section),
            ));
        }
        println!(
            "{:<14} {:<40} {:>16.6} {:<6} ({failed} of {attempted})",
            w.name,
            "failed_fraction",
            failed as f64 / attempted.max(1) as f64,
            "ratio"
        );
        if failed > 0 {
            failed_runs += 1;
        }
        sections.push(("attempted", Json::Num(attempted as f64)));
        sections.push(("failed", Json::Num(failed as f64)));
        documents.push((w.name, Json::obj(sections)));
    }

    let doc = Json::obj([
        ("seed", Json::Num(plan.seed as f64)),
        ("passes", Json::Num(plan.passes as f64)),
        ("run_seconds", Json::Num(plan.seconds as f64)),
        ("nproc", Json::Num(nproc as f64)),
        ("workloads", Json::obj(documents)),
    ]);
    let path = plan
        .out
        .clone()
        .unwrap_or_else(|| format!("{OUT_DIR}/results.json"));
    match std::fs::write(&path, doc.render() + "\n") {
        Ok(()) => println!("results written to {path}"),
        Err(e) => {
            eprintln!("cannot write {path}: {e}");
            failed_runs += 1;
        }
    }
    if failed_runs == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
