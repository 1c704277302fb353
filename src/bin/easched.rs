//! `easched` — command-line interface to the energy-aware scheduler.
//!
//! The synopsis is `USAGE`: `easched` with no arguments prints it.
//!
//! `replay` inspects the log's format version: a v2 (admission-event)
//! log re-runs the multi-tenant overload storm, a v1 log the
//! single-tenant chaos storm, a v3 log belongs to `fleet --replay`. Exit
//! codes are part of the contract: 0 byte-identical, 1 divergence,
//! 2 unusable input. A torn tail is a warning, not an error: the sealed
//! prefix replays and must be reproduced up to its cut. `--at N` slices
//! the log to its first `N` events (an SLO exemplar offset) and replays
//! just that prefix.
//!
//! `fleet` runs a simulated multi-node fleet — each node a full scheduler
//! on its own platform and journal — replicating via chaos-hardened
//! anti-entropy (DESIGN.md §15). Exit codes: 0 all replicas converged
//! byte-identically, 1 non-convergence or replay divergence, 2 unusable
//! input. `--verify-recovery DIR` reopens every `node*` journal a
//! previous run (or kill -9) left behind and reports what recovered.
//!
//! `serve` records the observed overload storm while exposing the live
//! observability plane over HTTP: `/metrics` (Prometheus text),
//! `/health` (JSON), `/slo` (burn rates + breach events with exemplar
//! offsets), `/tenants` (admission counters). `scrape` is the matching
//! dependency-free client.

use easched::core::{
    characterize, load_model, save_model, CharacterizationConfig, EasConfig, EasRuntime,
    EasScheduler, Evaluator, Objective, PowerModel, RunSeed, TableStore,
};
use easched::fleet::{
    expose_fleet, expose_fleet_store, replay_fleet, run_fleet, ChaosConfig, CrashPlan, FleetError,
    FleetSpec, Partition, TaintPlan,
};
use easched::kernels::{suite, Workload};
use easched::replay::{
    bisect_storm, record_chaos_storm, record_overload_storm, record_overload_storm_observed_with,
    replay_chaos_storm, replay_overload_storm, OverloadSpec, RunLog, StormSpec,
    FORMAT_VERSION_ADMISSION, FORMAT_VERSION_FLEET,
};
use easched::runtime::{ChaosFs, ChaosFsPlan, TickClock};
use easched::sim::Platform;
use easched::telemetry::{
    http_get, to_trace_with_spans, uds_get, DecisionCsvSink, Page, Router, ScrapeServer,
    ServeConfig, TimeSource,
};
use std::sync::Arc;
use std::time::Duration;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
enum Command {
    List,
    Characterize {
        platform: PlatformArg,
        save: Option<String>,
    },
    Run {
        workload: String,
        platform: PlatformArg,
        objective: ObjectiveArg,
        model: Option<String>,
        decisions: Option<String>,
    },
    Compare {
        workload: String,
        platform: PlatformArg,
        objective: ObjectiveArg,
        model: Option<String>,
    },
    Record {
        out: String,
        seed: u64,
        rounds: usize,
        rate: f64,
        overload: bool,
        ticks: u64,
        chaos_fs: Option<u16>,
    },
    Replay {
        log: String,
        at: Option<u64>,
        bisect: bool,
        perturb: Option<usize>,
        emit_fixture: Option<String>,
    },
    Serve {
        addr: String,
        socket: Option<String>,
        seed: u64,
        ticks: u64,
        out: Option<String>,
        trace: Option<String>,
        hold: f64,
    },
    Scrape {
        addr: Option<String>,
        socket: Option<String>,
        path: String,
    },
    Fleet(FleetArgs),
}

#[derive(Debug, Clone, PartialEq)]
struct FleetArgs {
    nodes: u16,
    seed: u64,
    ticks: u64,
    quiet_fabric: bool,
    partitions: Vec<Partition>,
    crash: Option<CrashPlan>,
    taint: Option<TaintPlan>,
    chaos_fs: Option<u16>,
    store: Option<String>,
    record: Option<String>,
    metrics: bool,
    replay: Option<String>,
    verify_recovery: Option<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PlatformArg {
    Desktop,
    Tablet,
}

impl PlatformArg {
    fn build(self) -> Platform {
        match self {
            PlatformArg::Desktop => Platform::haswell_desktop(),
            PlatformArg::Tablet => Platform::baytrail_tablet(),
        }
    }

    fn suite(self) -> Vec<Box<dyn Workload>> {
        match self {
            PlatformArg::Desktop => suite::desktop_suite(),
            PlatformArg::Tablet => suite::tablet_suite(),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ObjectiveArg {
    Edp,
    Energy,
    Ed2,
    Time,
}

impl ObjectiveArg {
    fn build(self) -> Objective {
        match self {
            ObjectiveArg::Edp => Objective::EnergyDelay,
            ObjectiveArg::Energy => Objective::Energy,
            ObjectiveArg::Ed2 => Objective::EnergyDelaySquared,
            ObjectiveArg::Time => Objective::Time,
        }
    }
}

const USAGE: &str = "\
usage:
  easched list
  easched characterize [--platform desktop|tablet] [--save FILE]
  easched run --workload ABBREV [--platform P] [--objective edp|energy|ed2|time]
               [--model FILE] [--decisions FILE]
  easched compare --workload ABBREV|all [--platform P] [--objective O] [--model FILE]
  easched record --out FILE [--seed N] [--rounds N] [--rate F] [--chaos-fs PERMILLE]
  easched record --out FILE --overload [--seed N] [--ticks N] [--chaos-fs PERMILLE]
  easched replay --log FILE [--at N] [--bisect] [--perturb N] [--emit-fixture FILE]
  easched serve [--addr HOST:PORT] [--socket PATH] [--seed N] [--ticks N]
                [--out FILE] [--trace FILE] [--hold SECS]
  easched scrape (--addr HOST:PORT | --socket PATH) [--path /metrics]
  easched fleet [--nodes N] [--seed N] [--ticks N] [--quiet-fabric]
                [--partition A:B:FROM:TO] [--crash NODE:AT:RESTART]
                [--taint TICK:NODE:KERNEL] [--chaos-fs PERMILLE]
                [--store DIR] [--record FILE] [--metrics]
  easched fleet --replay FILE [--store DIR]
  easched fleet --verify-recovery DIR";

/// Which flags each usage line owns: exactly the ones `USAGE` names on
/// it, one `(subcommand, mode, flags)` row per line. A subcommand's first
/// row is its plain form; a later row is in force when its `mode` flag is
/// given. A flag is accepted only on a line that names it.
#[rustfmt::skip]
const FLAGS: &[(&str, &str, &[&str])] = &[
    ("list", "", &[]),
    ("characterize", "", &["--platform", "--save"]),
    ("run", "", &["--workload", "--platform", "--objective", "--model", "--decisions"]),
    ("compare", "", &["--workload", "--platform", "--objective", "--model"]),
    ("record", "", &["--out", "--seed", "--rounds", "--rate", "--chaos-fs"]),
    ("record", "--overload", &["--out", "--overload", "--seed", "--ticks", "--chaos-fs"]),
    ("replay", "", &["--log", "--at", "--bisect", "--perturb", "--emit-fixture"]),
    ("serve", "", &["--addr", "--socket", "--seed", "--ticks", "--out", "--trace", "--hold"]),
    ("scrape", "", &["--addr", "--socket", "--path"]),
    ("fleet", "", &["--nodes", "--seed", "--ticks", "--quiet-fabric", "--partition", "--crash",
                    "--taint", "--chaos-fs", "--store", "--record", "--metrics"]),
    ("fleet", "--replay", &["--replay", "--store"]),
    ("fleet", "--verify-recovery", &["--verify-recovery"]),
];

/// Parses a scheduled-fault flag (`--partition`, `--crash`, `--taint`)
/// through the fleet spec line's colon codec, naming the flag on error.
fn fault_flag<T: std::str::FromStr<Err = String>>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|e| format!("{flag} {e}"))
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut it = args.iter().map(String::as_str);
    let sub = it.next().ok_or_else(|| USAGE.to_string())?;
    let lines: Vec<_> = FLAGS.iter().filter(|(name, ..)| *name == sub).collect();
    if lines.is_empty() {
        return Err(format!("unknown command {sub:?}\n{USAGE}"));
    }
    let mut given: Vec<&str> = Vec::new();

    let mut platform = PlatformArg::Desktop;
    let mut objective = ObjectiveArg::Edp;
    let mut workload: Option<String> = None;
    let mut model: Option<String> = None;
    let mut save: Option<String> = None;
    let mut decisions: Option<String> = None;
    let mut out: Option<String> = None;
    let mut log: Option<String> = None;
    let mut seed: u64 = 7;
    let mut rounds: usize = 2;
    let mut rate: f64 = 0.2;
    let mut bisect = false;
    let mut perturb: Option<usize> = None;
    let mut emit_fixture: Option<String> = None;
    let mut overload = false;
    let mut ticks: Option<u64> = None;
    let mut at: Option<u64> = None;
    let mut addr: Option<String> = None;
    let mut socket: Option<String> = None;
    let mut path: String = "/metrics".to_string();
    let mut hold: f64 = 0.0;
    let mut trace: Option<String> = None;
    let mut nodes: u16 = 3;
    let mut quiet_fabric = false;
    let mut partitions: Vec<Partition> = Vec::new();
    let mut crash: Option<CrashPlan> = None;
    let mut taint: Option<TaintPlan> = None;
    let mut store: Option<String> = None;
    let mut record: Option<String> = None;
    let mut metrics = false;
    let mut replay: Option<String> = None;
    let mut verify_recovery: Option<String> = None;
    let mut chaos_fs: Option<u16> = None;

    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .map(str::to_string)
                .ok_or_else(|| format!("{name} requires a value"))
        };
        if !lines.iter().any(|(.., flags)| flags.contains(&flag)) {
            return Err(format!("`easched {sub}` has no flag {flag:?}\n{USAGE}"));
        }
        given.push(flag);
        match flag {
            "--platform" => {
                platform = match value("--platform")?.as_str() {
                    "desktop" => PlatformArg::Desktop,
                    "tablet" => PlatformArg::Tablet,
                    other => return Err(format!("unknown platform {other:?}")),
                }
            }
            "--objective" => {
                objective = match value("--objective")?.as_str() {
                    "edp" => ObjectiveArg::Edp,
                    "energy" => ObjectiveArg::Energy,
                    "ed2" => ObjectiveArg::Ed2,
                    "time" => ObjectiveArg::Time,
                    other => return Err(format!("unknown objective {other:?}")),
                }
            }
            "--workload" => workload = Some(value("--workload")?),
            "--model" => model = Some(value("--model")?),
            "--save" => save = Some(value("--save")?),
            "--decisions" => decisions = Some(value("--decisions")?),
            "--out" => out = Some(value("--out")?),
            "--log" => log = Some(value("--log")?),
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--rounds" => {
                rounds = value("--rounds")?
                    .parse()
                    .map_err(|e| format!("--rounds: {e}"))?
            }
            "--rate" => {
                rate = value("--rate")?
                    .parse()
                    .map_err(|e| format!("--rate: {e}"))?
            }
            "--bisect" => bisect = true,
            "--overload" => overload = true,
            "--ticks" => {
                ticks = Some(
                    value("--ticks")?
                        .parse()
                        .map_err(|e| format!("--ticks: {e}"))?,
                )
            }
            "--nodes" => {
                nodes = value("--nodes")?
                    .parse()
                    .map_err(|e| format!("--nodes: {e}"))?
            }
            "--quiet-fabric" => quiet_fabric = true,
            "--partition" => partitions.push(fault_flag(flag, &value(flag)?)?),
            "--crash" => crash = Some(fault_flag(flag, &value(flag)?)?),
            "--taint" => taint = Some(fault_flag(flag, &value(flag)?)?),
            "--store" => store = Some(value("--store")?),
            "--record" => record = Some(value("--record")?),
            "--metrics" => metrics = true,
            "--replay" => replay = Some(value("--replay")?),
            "--verify-recovery" => verify_recovery = Some(value("--verify-recovery")?),
            "--chaos-fs" => {
                let rate: u16 = value("--chaos-fs")?
                    .parse()
                    .map_err(|e| format!("--chaos-fs: {e}"))?;
                if rate > 1000 {
                    return Err("--chaos-fs is a per-mille rate (0..=1000)".to_string());
                }
                chaos_fs = Some(rate);
            }
            "--perturb" => {
                perturb = Some(
                    value("--perturb")?
                        .parse()
                        .map_err(|e| format!("--perturb: {e}"))?,
                )
            }
            "--emit-fixture" => emit_fixture = Some(value("--emit-fixture")?),
            "--at" => at = Some(value("--at")?.parse().map_err(|e| format!("--at: {e}"))?),
            "--addr" => addr = Some(value("--addr")?),
            "--socket" => socket = Some(value("--socket")?),
            "--path" => path = value("--path")?,
            "--trace" => trace = Some(value("--trace")?),
            "--hold" => {
                hold = value("--hold")?
                    .parse()
                    .map_err(|e| format!("--hold: {e}"))?
            }
            other => unreachable!("{other} is in FLAGS but has no parser"),
        }
    }

    // The usage line in force: the one whose mode flag was given, else the
    // subcommand's plain form. Every flag given must be on that line.
    let mut modes = lines.iter().filter(|(_, mode, _)| given.contains(mode));
    let (_, mode, allowed) = match (modes.next(), modes.next()) {
        (Some((_, a, _)), Some((_, b, _))) => {
            return Err(format!("{a} and {b} are mutually exclusive"));
        }
        (Some(line), _) => **line,
        (None, _) => *lines[0],
    };
    if let Some(stray) = given.iter().find(|flag| !allowed.contains(flag)) {
        // On the plain form a stray flag belongs to a mode: say which.
        let line = if mode.is_empty() {
            let owners: Vec<&str> = lines
                .iter()
                .filter(|(_, m, flags)| !m.is_empty() && flags.contains(stray))
                .map(|(_, m, _)| *m)
                .collect();
            format!(
                "`easched {sub}` has no flag {stray:?} without {}",
                owners.join(" or ")
            )
        } else {
            format!("`easched {sub} {mode}` has no flag {stray:?}")
        };
        return Err(format!("{line}\n{USAGE}"));
    }

    match sub {
        "list" => Ok(Command::List),
        "characterize" => Ok(Command::Characterize { platform, save }),
        "run" => Ok(Command::Run {
            workload: workload.ok_or("run requires --workload")?,
            platform,
            objective,
            model,
            decisions,
        }),
        "compare" => Ok(Command::Compare {
            workload: workload.ok_or("compare requires --workload")?,
            platform,
            objective,
            model,
        }),
        "record" => Ok(Command::Record {
            out: out.ok_or("record requires --out")?,
            seed,
            rounds,
            rate,
            overload,
            ticks: ticks.unwrap_or(OverloadSpec::new(0).ticks),
            chaos_fs,
        }),
        "replay" => Ok(Command::Replay {
            log: log.ok_or("replay requires --log")?,
            at,
            bisect,
            perturb,
            emit_fixture,
        }),
        "serve" => Ok(Command::Serve {
            addr: addr.unwrap_or_else(|| "127.0.0.1:0".to_string()),
            socket,
            seed,
            ticks: ticks.unwrap_or(OverloadSpec::new(0).ticks),
            out,
            trace,
            hold,
        }),
        "scrape" => {
            if addr.is_none() && socket.is_none() {
                return Err("scrape requires --addr or --socket".to_string());
            }
            Ok(Command::Scrape { addr, socket, path })
        }
        "fleet" => {
            if nodes == 0 {
                return Err("--nodes must be at least 1".to_string());
            }
            Ok(Command::Fleet(FleetArgs {
                nodes,
                seed,
                ticks: ticks.unwrap_or(6),
                quiet_fabric,
                partitions,
                crash,
                taint,
                chaos_fs,
                store,
                record,
                metrics,
                replay,
                verify_recovery,
            }))
        }
        other => unreachable!("{other} is in FLAGS but has no command"),
    }
}

fn obtain_model(platform: &Platform, path: Option<&str>) -> PowerModel {
    match path {
        Some(p) => {
            let model = load_model(p)
                .unwrap_or_else(|e| fail(1, format!("cannot load model from {p}: {e}")));
            if model.platform_name() != platform.name {
                eprintln!(
                    "warning: model characterizes {:?}, running on {:?}",
                    model.platform_name(),
                    platform.name
                );
            }
            model
        }
        None => {
            eprintln!(
                "characterizing {} (pass --model FILE to reuse a saved model)...",
                platform.name
            );
            characterize(platform, &CharacterizationConfig::default())
        }
    }
}

fn find_workload(suite: Vec<Box<dyn Workload>>, abbrev: &str) -> Box<dyn Workload> {
    let available: Vec<String> = suite.iter().map(|w| w.spec().abbrev.to_string()).collect();
    suite
        .into_iter()
        .find(|w| w.spec().abbrev.eq_ignore_ascii_case(abbrev))
        .unwrap_or_else(|| {
            eprintln!(
                "unknown workload {abbrev:?}; available: {}",
                available.join(", ")
            );
            std::process::exit(1);
        })
}

fn cmd_list() {
    println!(
        "{:<5} {:<22} {:<5} {:<7} desktop input",
        "abbr", "name", "kind", "tablet"
    );
    for w in suite::desktop_suite() {
        let s = w.spec();
        println!(
            "{:<5} {:<22} {:<5} {:<7} {}",
            s.abbrev,
            s.name,
            if s.regular { "R" } else { "IR" },
            if s.runs_on_tablet { "yes" } else { "no" },
            w.input_description(),
        );
    }
}

fn cmd_characterize(platform: PlatformArg, save: Option<String>) {
    let p = platform.build();
    println!("characterizing {} ...", p.name);
    let model = characterize(&p, &CharacterizationConfig::default());
    for curve in model.curves() {
        println!("  {curve}");
    }
    if let Some(path) = save {
        save_model(&model, &path)
            .unwrap_or_else(|e| fail(1, format!("cannot save model to {path}: {e}")));
        println!("model saved to {path}");
    }
}

fn cmd_run(
    workload: &str,
    platform: PlatformArg,
    objective: ObjectiveArg,
    model: Option<String>,
    decisions: Option<String>,
) {
    let p = platform.build();
    let model = obtain_model(&p, model.as_deref());
    let w = find_workload(platform.suite(), workload);
    let mut scheduler = EasScheduler::new(model, EasConfig::new(objective.build()));
    // The scheduler keeps no per-round history; `--decisions` collects it
    // from the sink (observing a run never changes it, DESIGN.md §10).
    let decisions = decisions.map(|path| (path, Arc::new(DecisionCsvSink::default())));
    if let Some((_, sink)) = &decisions {
        scheduler.set_telemetry(Some(sink.clone()));
    }
    let mut runtime = EasRuntime::with_scheduler(p, scheduler);
    let outcome = runtime.run(w.as_ref());
    println!(
        "{}: {:.4} s, {:.3} J, EDP {:.4}, mean power {:.2} W, output {}",
        w.spec().abbrev,
        outcome.time,
        outcome.energy_joules,
        outcome.edp,
        outcome.metrics.mean_power(),
        if outcome.verification.is_passed() {
            "verified"
        } else {
            "WRONG"
        },
    );
    if let Some((path, sink)) = decisions {
        std::fs::write(&path, sink.csv())
            .unwrap_or_else(|e| fail(1, format!("cannot write decisions to {path}: {e}")));
        println!("decision log written to {path}");
    }
    if !outcome.verification.is_passed() {
        std::process::exit(1);
    }
}

fn cmd_compare(
    workload: &str,
    platform: PlatformArg,
    objective: ObjectiveArg,
    model: Option<String>,
) {
    let p = platform.build();
    let model = obtain_model(&p, model.as_deref());
    let ev = Evaluator::new(p, model);
    let objective = objective.build();
    let workloads: Vec<Box<dyn Workload>> = if workload.eq_ignore_ascii_case("all") {
        platform.suite()
    } else {
        vec![find_workload(platform.suite(), workload)]
    };
    println!(
        "{:<5} {:>8} {:>8} {:>8} {:>8} {:>9} (efficiency vs Oracle, {})",
        "abbr",
        "CPU",
        "GPU",
        "PERF",
        "EAS",
        "Oracle α",
        objective.name()
    );
    for w in workloads {
        let c = ev.compare(w.as_ref(), &objective);
        println!(
            "{:<5} {:>7.1}% {:>7.1}% {:>7.1}% {:>7.1}% {:>9.1}",
            c.abbrev,
            100.0 * c.efficiency(c.cpu),
            100.0 * c.efficiency(c.gpu),
            100.0 * c.efficiency(c.perf),
            100.0 * c.efficiency(c.eas),
            c.oracle_alpha,
        );
    }
}

/// Reports `msg` on stderr and exits: 1 when a run failed or diverged,
/// 2 when it could not be attempted.
fn fail(code: i32, msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    std::process::exit(code)
}

/// Writes `text` to `path`, or reports the failure and exits 2.
fn write_or_exit(what: &str, path: &str, text: String) {
    if let Err(e) = std::fs::write(path, text) {
        fail(2, format!("cannot write {what} to {path}: {e}"));
    }
}

fn cmd_record(
    out: &str,
    seed: u64,
    rounds: usize,
    rate: f64,
    overload: bool,
    ticks: u64,
    chaos_fs: Option<u16>,
) {
    let log = if overload {
        let spec = OverloadSpec {
            ticks,
            ..OverloadSpec::new(seed)
        };
        eprintln!("recording overload storm: seed {seed}, {ticks} tick(s) ...");
        let recorded = record_overload_storm(&spec);
        println!(
            "storm: {} offered, {} shed, {} executed, fair-share deficit {:.4}, \
             EDP efficiency {:.3}",
            recorded.offered,
            recorded.shed,
            recorded.executed,
            recorded.fair_share_deficit,
            recorded.edp_efficiency(),
        );
        recorded.log
    } else {
        let mut spec = StormSpec::new(seed);
        spec.rounds = rounds;
        spec.chaos_rate = rate;
        eprintln!("recording chaos storm: seed {seed}, {rounds} round(s), fault rate {rate} ...");
        record_chaos_storm(&spec).log
    };
    let decisions = log.decisions().len();
    let events = log.events.len();
    match chaos_fs {
        None => write_or_exit("log", out, log.to_text()),
        // Storage chaos on the save path (DESIGN.md §16): the log is
        // written through a deterministic fault-injecting filesystem,
        // retried until the fault window passes. The log *contents* are
        // untouched — a fault-free replay of a chaos-saved log is still
        // byte-identical.
        Some(per_mille) => {
            let vfs = ChaosFs::new(
                RunSeed::new(seed).derive("chaos-fs"),
                ChaosFsPlan::storm(per_mille),
                Arc::new(TickClock::new()),
            );
            match log.save_with_retries(&vfs, std::path::Path::new(out), 32) {
                Ok(0) => {}
                Ok(failed) => eprintln!(
                    "chaos-fs: {failed} save attempt(s) absorbed injected faults \
                     before the log landed"
                ),
                Err(e) => {
                    fail(
                        2,
                        format!("cannot write log to {out} (after 32 chaotic attempts): {e}"),
                    );
                }
            }
        }
    }
    println!("recorded {decisions} decisions ({events} events) to {out}");
}

/// The wall-clock adapter behind the scrape server's time seam.
fn wall_time() -> TimeSource {
    let origin = std::time::Instant::now();
    Arc::new(move || origin.elapsed().as_secs_f64())
}

fn cmd_serve(
    addr: &str,
    socket: Option<&str>,
    seed: u64,
    ticks: u64,
    out: Option<String>,
    trace: Option<String>,
    hold: f64,
) {
    let spec = OverloadSpec {
        ticks,
        ..OverloadSpec::new(seed)
    };
    eprintln!("recording observed overload storm: seed {seed}, {ticks} tick(s) ...");
    let mut server: Option<ScrapeServer> = None;
    let observed = record_overload_storm_observed_with(&spec, |live| {
        let time = wall_time();
        let metrics = live.ring.metrics();
        metrics.set_build_info(
            env!("CARGO_PKG_VERSION"),
            option_env!("EASCHED_COMMIT").unwrap_or("unknown"),
        );
        metrics.mark_started(time());
        let router = {
            // `/metrics` is composed at scrape time from each owner of a
            // count: the registry, the scheduler (health and drift), the
            // frontend (admission controller and SLO tracker).
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
            let health_page = {
                let frontend = Arc::clone(&live.frontend);
                move || Page::json(frontend.shared().health().render_json())
            };
            let slo_page = {
                let slo = Arc::clone(&live.slo);
                // Burn windows run on storm virtual time (1 tick = 1 s);
                // render them against the end of the run.
                move || Page::json(slo.render_json(ticks as f64))
            };
            let tenants_page = {
                let frontend = Arc::clone(&live.frontend);
                move || Page::json(frontend.render_json())
            };
            Router::new()
                .route("/metrics", metrics_page)
                .route("/health", health_page)
                .route("/slo", slo_page)
                .route("/tenants", tenants_page)
        };
        let cfg = ServeConfig::default();
        let bound = match socket {
            Some(path) => ScrapeServer::bind_unix(std::path::Path::new(path), router, cfg, time),
            None => ScrapeServer::bind_tcp(addr, router, cfg, time),
        };
        match bound {
            Ok(s) => {
                match s.local_addr() {
                    Some(a) => println!("serving on http://{a}"),
                    None => println!("serving on unix socket {}", socket.unwrap_or("?")),
                }
                println!("routes: /metrics /health /slo /tenants");
                use std::io::Write;
                let _ = std::io::stdout().flush();
                server = Some(s);
            }
            Err(e) => fail(2, format!("cannot bind scrape server: {e}")),
        }
    });

    let recorded = &observed.recorded;
    println!(
        "storm complete: {} offered, {} shed, {} executed, EDP efficiency {:.3}",
        recorded.offered,
        recorded.shed,
        recorded.executed,
        recorded.edp_efficiency(),
    );
    let events = observed.slo.events();
    println!(
        "captured {} spans, {} slo breach event(s)",
        observed.ring.span_snapshot().len(),
        events.len()
    );
    for e in &events {
        println!(
            "  breach: tenant {} {} burn {:.2}/{:.2} at t={:.0} — \
             replay with: easched replay --log <LOG> --at {}",
            e.tenant,
            e.kind.as_str(),
            e.burn_short,
            e.burn_long,
            e.at,
            e.exemplar_offset,
        );
    }
    if let Some(out) = out {
        write_or_exit("log", &out, recorded.log.to_text());
        println!("run log written to {out}");
    }
    if let Some(trace) = trace {
        let text = to_trace_with_spans(&observed.ring.snapshot(), &observed.ring.span_snapshot());
        write_or_exit("span trace", &trace, text);
        println!("span trace written to {trace} (open in Perfetto)");
    }
    use std::io::Write;
    let _ = std::io::stdout().flush();
    if hold > 0.0 {
        eprintln!("holding the scrape server for {hold} s ...");
        std::thread::sleep(Duration::from_secs_f64(hold));
    }
    if let Some(server) = server {
        server.shutdown();
    }
}

fn cmd_scrape(addr: Option<&str>, socket: Option<&str>, path: &str) {
    let timeout = Duration::from_secs(5);
    let result = match (addr, socket) {
        (_, Some(sock)) => uds_get(std::path::Path::new(sock), path, timeout),
        (Some(addr), None) => {
            use std::net::ToSocketAddrs;
            let resolved = addr.to_socket_addrs().ok().and_then(|mut it| it.next());
            match resolved {
                Some(sa) => http_get(&sa, path, timeout),
                None => fail(2, format!("cannot resolve {addr}")),
            }
        }
        (None, None) => unreachable!("parse_args enforces --addr or --socket"),
    };
    match result {
        Ok((200, body)) => print!("{body}"),
        Ok((status, body)) => {
            eprintln!("HTTP {status}");
            print!("{body}");
            std::process::exit(1);
        }
        Err(e) => fail(2, format!("scrape failed: {e}")),
    }
}

fn load_log(path: &str) -> RunLog {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(2, format!("cannot read log {path}: {e}")));
    let log = RunLog::from_text(&text)
        .unwrap_or_else(|e| fail(2, format!("cannot parse log {path}: {e}")));
    if !log.complete {
        eprintln!(
            "warning: {path} has a torn tail; replaying the {} sealed events",
            log.events.len()
        );
    }
    log
}

fn cmd_replay(
    path: &str,
    at: Option<u64>,
    bisect: bool,
    perturb: Option<usize>,
    emit_fixture: Option<String>,
) {
    if emit_fixture.is_some() && !bisect {
        fail(2, "--emit-fixture requires --bisect");
    }
    if at.is_some() && bisect {
        fail(2, "--at and --bisect are mutually exclusive");
    }
    let mut log = load_log(path);
    if log.version == FORMAT_VERSION_FLEET {
        fail(
            2,
            format!("{path} is a fleet (v3) log; replay it with: easched fleet --replay {path}"),
        );
    }
    if let Some(step) = perturb {
        if !log.perturb_step(step) {
            fail(2, format!("--perturb {step}: log has no such step"));
        }
        eprintln!("perturbed recorded step {step} (energy scaled; intentional divergence)");
    }
    if let Some(offset) = at {
        let full = log.events.len();
        log = log.slice_at(offset);
        eprintln!(
            "sliced at offset {offset}: replaying the first {} of {full} events",
            log.events.len()
        );
    }

    if log.version == FORMAT_VERSION_ADMISSION {
        if bisect {
            fail(2, "--bisect does not support overload (v2) logs yet");
        }
        let outcome = replay_overload_storm(&log).unwrap_or_else(|e| fail(2, e));
        if let Some(difference) = outcome.first_difference {
            println!("overload replay diverged:\n{difference}");
            std::process::exit(1);
        }
        // A prefix (torn tail, or a slice that cut a tick) is reproduced
        // up to its cut; the re-run then finishes the tick on its own.
        println!(
            "{path}: overload run replayed byte-identically ({} events)",
            log.events.len()
        );
    } else if bisect {
        match bisect_storm(&log) {
            Err(e) => fail(2, e),
            Ok(None) => println!("{path}: replay is byte-identical; nothing to bisect"),
            Ok(Some(report)) => {
                println!("{}", report.render());
                if let Some(fixture) = emit_fixture {
                    write_or_exit("fixture", &fixture, report.minimal.to_text());
                    println!(
                        "minimal reproducer ({} of {} invocations) written to {fixture}",
                        report.kept_invocations, report.original_invocations
                    );
                }
                std::process::exit(1);
            }
        }
    } else {
        let outcome = replay_chaos_storm(&log).unwrap_or_else(|e| fail(2, e));
        if let Some(divergence) = outcome.divergence {
            println!("{}", divergence.render());
            std::process::exit(1);
        }
        println!(
            "{path}: replayed {} invocations, {} decisions byte-identical",
            outcome.invocations_replayed,
            outcome.live.len()
        );
    }
}

/// Reopens every `node*` journal under `dir` and reports what recovered —
/// the cold half of the kill -9 and `--chaos-fs` smokes: a crashed or
/// fault-stormed fleet's stores must come back without manual repair.
/// Exits 1 when a journal fails to open *or recovers an empty table*:
/// every node of a run learns, so an empty table means none of it reached
/// the disk (under `--chaos-fs`, that the node's retried shutdown
/// checkpoint never landed and it ended degraded-to-memory).
fn verify_fleet_recovery(dir: &str) {
    let mut node_dirs: Vec<std::path::PathBuf> = match std::fs::read_dir(dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.is_dir()
                    && p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("node"))
            })
            .collect(),
        Err(e) => fail(2, format!("cannot read {dir}: {e}")),
    };
    node_dirs.sort();
    if node_dirs.is_empty() {
        fail(2, format!("no node* journals under {dir}"));
    }
    let mut failed = false;
    for d in &node_dirs {
        match TableStore::open(d) {
            Ok((_store, rec)) => {
                println!(
                    "{}: generation {}, {} entry(ies), {} replayed, {} discarded",
                    d.display(),
                    rec.generation,
                    rec.table.len(),
                    rec.replayed,
                    rec.discarded,
                );
                if rec.table.is_empty() {
                    failed = true;
                    eprintln!(
                        "{}: recovered an empty table — the journal never made it to disk",
                        d.display()
                    );
                }
            }
            Err(e) => {
                failed = true;
                eprintln!("{}: FAILED to recover: {e}", d.display());
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("all {} journal(s) recovered cleanly", node_dirs.len());
}

fn cmd_fleet(args: FleetArgs) {
    if let Some(dir) = args.verify_recovery {
        verify_fleet_recovery(&dir);
        return;
    }
    if let Some(path) = args.replay {
        let log = load_log(&path);
        if log.version != FORMAT_VERSION_FLEET {
            eprintln!(
                "{path} is a v{} log, not a fleet (v{FORMAT_VERSION_FLEET}) log",
                log.version
            );
            std::process::exit(2);
        }
        let store_root = args.store.map(std::path::PathBuf::from).unwrap_or_default();
        match replay_fleet(&log, store_root) {
            Ok(report) => println!(
                "{path}: fleet run replayed byte-identically \
                 ({} fleet events, digest {:016x})",
                log.fleet_lines().len(),
                report.digest,
            ),
            Err(FleetError::Diverged(difference)) => {
                println!("fleet replay diverged:\n{difference}");
                std::process::exit(1);
            }
            Err(e) => fail(2, format!("cannot replay {path}: {e}")),
        }
        return;
    }

    let presets = ["haswell-desktop", "baytrail-tablet", "skylake-minipc"];
    let mut spec = FleetSpec::three_nodes(args.seed);
    spec.platforms = (0..args.nodes)
        .map(|i| presets[usize::from(i) % presets.len()].to_string())
        .collect();
    spec.ticks = args.ticks;
    if args.quiet_fabric {
        spec.chaos = ChaosConfig::quiet();
    }
    spec.chaos.partitions = args.partitions;
    spec.crash = args.crash;
    spec.taint = args.taint;
    spec.chaos_fs = args.chaos_fs;
    spec.store_root = args.store.map(std::path::PathBuf::from).unwrap_or_default();
    eprintln!(
        "running a {}-node fleet: seed {}, {} tick(s), fabric {}{}{}{} ...",
        args.nodes,
        args.seed,
        args.ticks,
        if args.quiet_fabric {
            "quiet"
        } else {
            "chaotic"
        },
        if spec.chaos.partitions.is_empty() {
            String::new()
        } else {
            format!(", {} partition window(s)", spec.chaos.partitions.len())
        },
        spec.crash.map_or(String::new(), |c| format!(
            ", kill -9 node {} at tick {}",
            c.node, c.at_tick
        )),
        spec.chaos_fs
            .map_or(String::new(), |p| format!(", storage chaos {p}\u{2030}")),
    );
    let report = run_fleet(&spec).unwrap_or_else(|e| fail(2, e));
    println!(
        "{:<5} {:<16} {:>8} {:>6} {:>4} {:>6} {:>6} {:>6} {:>7} digest",
        "node", "platform", "applied", "stale", "gap", "confl", "prior", "taint", "dropped"
    );
    for n in &report.nodes {
        println!(
            "{:<5} {:<16} {:>8} {:>6} {:>4} {:>6} {:>6} {:>6} {:>7} {:016x}",
            n.label,
            n.platform,
            n.stats.entries_applied,
            n.stats.entries_rejected_stale,
            n.stats.entries_deferred_gap,
            n.stats.conflicts_resolved,
            n.stats.priors_applied,
            n.stats.taints_replicated,
            n.stats.frames_dropped + n.stats.frames_torn,
            n.digest,
        );
    }
    if spec.chaos_fs.is_some() {
        println!(
            "{:<5} {:>9} {:>8} {:>11} {:>6} {:>7} {:>10}",
            "node", "io-errors", "degraded", "transitions", "rearms", "dropped", "bytes"
        );
        for n in &report.nodes {
            println!(
                "{:<5} {:>9} {:>8} {:>11} {:>6} {:>7} {:>10}",
                n.label,
                n.store.io_errors,
                n.store.degraded,
                n.store.degraded_transitions,
                n.store.rearms,
                n.store.buffered_dropped,
                n.store.bytes_written,
            );
        }
    }
    if args.metrics {
        let labeled: Vec<(String, easched::fleet::FleetStats)> = report
            .nodes
            .iter()
            .map(|n| (n.label.clone(), n.stats))
            .collect();
        print!("{}", expose_fleet(&labeled));
        let stores: Vec<(String, easched::core::StoreHealth)> = report
            .nodes
            .iter()
            .map(|n| (n.label.clone(), n.store))
            .collect();
        print!("{}", expose_fleet_store(&stores));
    }
    if let Some(out) = args.record {
        write_or_exit("log", &out, report.log.to_text());
        println!("fleet log written to {out}");
    }
    if report.converged {
        println!(
            "fleet converged after {} drain round(s): digest {:016x}",
            report.drain_rounds, report.digest
        );
    } else {
        println!(
            "fleet DID NOT converge within {} drain rounds",
            easched::fleet::MAX_DRAIN_ROUNDS
        );
        std::process::exit(1);
    }
}

#[allow(clippy::disallowed_methods)] // the flag parser
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Command::List) => cmd_list(),
        Ok(Command::Characterize { platform, save }) => cmd_characterize(platform, save),
        Ok(Command::Run {
            workload,
            platform,
            objective,
            model,
            decisions,
        }) => cmd_run(&workload, platform, objective, model, decisions),
        Ok(Command::Compare {
            workload,
            platform,
            objective,
            model,
        }) => cmd_compare(&workload, platform, objective, model),
        Ok(Command::Record {
            out,
            seed,
            rounds,
            rate,
            overload,
            ticks,
            chaos_fs,
        }) => cmd_record(&out, seed, rounds, rate, overload, ticks, chaos_fs),
        Ok(Command::Replay {
            log,
            at,
            bisect,
            perturb,
            emit_fixture,
        }) => cmd_replay(&log, at, bisect, perturb, emit_fixture),
        Ok(Command::Serve {
            addr,
            socket,
            seed,
            ticks,
            out,
            trace,
            hold,
        }) => cmd_serve(&addr, socket.as_deref(), seed, ticks, out, trace, hold),
        Ok(Command::Scrape { addr, socket, path }) => {
            cmd_scrape(addr.as_deref(), socket.as_deref(), &path)
        }
        Ok(Command::Fleet(args)) => cmd_fleet(args),
        Err(message) => fail(2, message),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Command, String> {
        let owned: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
        parse_args(&owned)
    }

    #[test]
    fn parses_list() {
        assert_eq!(parse(&["list"]).unwrap(), Command::List);
    }

    #[test]
    fn parses_characterize_with_flags() {
        let c = parse(&["characterize", "--platform", "tablet", "--save", "m.txt"]).unwrap();
        assert_eq!(
            c,
            Command::Characterize {
                platform: PlatformArg::Tablet,
                save: Some("m.txt".into())
            }
        );
    }

    #[test]
    fn parses_run_defaults() {
        let c = parse(&["run", "--workload", "MB"]).unwrap();
        assert_eq!(
            c,
            Command::Run {
                workload: "MB".into(),
                platform: PlatformArg::Desktop,
                objective: ObjectiveArg::Edp,
                model: None,
                decisions: None,
            }
        );
    }

    #[test]
    fn parses_compare_all_with_objective() {
        let c = parse(&["compare", "--workload", "all", "--objective", "energy"]).unwrap();
        match c {
            Command::Compare {
                workload,
                objective,
                ..
            } => {
                assert_eq!(workload, "all");
                assert_eq!(objective, ObjectiveArg::Energy);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn run_requires_workload() {
        assert!(parse(&["run"]).unwrap_err().contains("--workload"));
    }

    #[test]
    fn parses_record_with_defaults_and_overrides() {
        let c = parse(&["record", "--out", "run.log"]).unwrap();
        assert_eq!(
            c,
            Command::Record {
                out: "run.log".into(),
                seed: 7,
                rounds: 2,
                rate: 0.2,
                overload: false,
                ticks: OverloadSpec::new(0).ticks,
                chaos_fs: None,
            }
        );
        let c = parse(&[
            "record",
            "--out",
            "r.log",
            "--seed",
            "1009",
            "--rounds",
            "3",
            "--rate",
            "0.5",
            "--chaos-fs",
            "150",
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Record {
                out: "r.log".into(),
                seed: 1009,
                rounds: 3,
                rate: 0.5,
                overload: false,
                ticks: OverloadSpec::new(0).ticks,
                chaos_fs: Some(150),
            }
        );
        assert!(parse(&["record"]).unwrap_err().contains("--out"));
        assert!(parse(&["record", "--out", "r.log", "--chaos-fs", "1200"])
            .unwrap_err()
            .contains("per-mille"));
    }

    #[test]
    fn parses_replay_variants() {
        let c = parse(&["replay", "--log", "run.log"]).unwrap();
        assert_eq!(
            c,
            Command::Replay {
                log: "run.log".into(),
                at: None,
                bisect: false,
                perturb: None,
                emit_fixture: None,
            }
        );
        let c = parse(&[
            "replay",
            "--log",
            "run.log",
            "--bisect",
            "--perturb",
            "12",
            "--emit-fixture",
            "min.log",
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Replay {
                log: "run.log".into(),
                at: None,
                bisect: true,
                perturb: Some(12),
                emit_fixture: Some("min.log".into()),
            }
        );
        let c = parse(&["replay", "--log", "run.log", "--at", "230"]).unwrap();
        assert_eq!(
            c,
            Command::Replay {
                log: "run.log".into(),
                at: Some(230),
                bisect: false,
                perturb: None,
                emit_fixture: None,
            }
        );
        assert!(parse(&["replay"]).unwrap_err().contains("--log"));
        assert!(parse(&["replay", "--log", "x", "--perturb", "abc"]).is_err());
        assert!(parse(&["replay", "--log", "x", "--at", "xyz"]).is_err());
    }

    #[test]
    fn parses_serve_with_defaults_and_overrides() {
        let c = parse(&["serve"]).unwrap();
        assert_eq!(
            c,
            Command::Serve {
                addr: "127.0.0.1:0".into(),
                socket: None,
                seed: 7,
                ticks: OverloadSpec::new(0).ticks,
                out: None,
                trace: None,
                hold: 0.0,
            }
        );
        let c = parse(&[
            "serve",
            "--addr",
            "0.0.0.0:9100",
            "--seed",
            "23",
            "--ticks",
            "64",
            "--out",
            "run.log",
            "--trace",
            "run.trace.json",
            "--hold",
            "30",
        ])
        .unwrap();
        assert_eq!(
            c,
            Command::Serve {
                addr: "0.0.0.0:9100".into(),
                socket: None,
                seed: 23,
                ticks: 64,
                out: Some("run.log".into()),
                trace: Some("run.trace.json".into()),
                hold: 30.0,
            }
        );
        let c = parse(&["serve", "--socket", "/tmp/eas.sock"]).unwrap();
        match c {
            Command::Serve { socket, .. } => assert_eq!(socket.as_deref(), Some("/tmp/eas.sock")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_scrape_and_requires_a_target() {
        let c = parse(&["scrape", "--addr", "127.0.0.1:9100"]).unwrap();
        assert_eq!(
            c,
            Command::Scrape {
                addr: Some("127.0.0.1:9100".into()),
                socket: None,
                path: "/metrics".into(),
            }
        );
        let c = parse(&["scrape", "--socket", "/tmp/eas.sock", "--path", "/slo"]).unwrap();
        assert_eq!(
            c,
            Command::Scrape {
                addr: None,
                socket: Some("/tmp/eas.sock".into()),
                path: "/slo".into(),
            }
        );
        assert!(parse(&["scrape"])
            .unwrap_err()
            .contains("--addr or --socket"));
    }

    #[test]
    fn parses_fleet_with_defaults_and_overrides() {
        let c = parse(&["fleet"]).unwrap();
        assert_eq!(
            c,
            Command::Fleet(FleetArgs {
                nodes: 3,
                seed: 7,
                ticks: 6,
                quiet_fabric: false,
                partitions: vec![],
                crash: None,
                taint: None,
                chaos_fs: None,
                store: None,
                record: None,
                metrics: false,
                replay: None,
                verify_recovery: None,
            })
        );
        let c = parse(&[
            "fleet",
            "--nodes",
            "5",
            "--seed",
            "1009",
            "--ticks",
            "8",
            "--quiet-fabric",
            "--partition",
            "0:2:1:4",
            "--crash",
            "1:3:6",
            "--taint",
            "2:0:1",
            "--chaos-fs",
            "250",
            "--store",
            "/tmp/f",
            "--record",
            "fleet.log",
            "--metrics",
        ])
        .unwrap();
        match c {
            Command::Fleet(FleetArgs {
                nodes,
                seed,
                ticks,
                quiet_fabric,
                partitions,
                crash,
                taint,
                chaos_fs,
                store,
                record,
                metrics,
                ..
            }) => {
                assert_eq!((nodes, seed, ticks), (5, 1009, 8));
                assert!(quiet_fabric && metrics);
                assert_eq!(
                    partitions,
                    vec![Partition {
                        a: 0,
                        b: 2,
                        from_tick: 1,
                        to_tick: 4
                    }]
                );
                assert_eq!(
                    crash,
                    Some(CrashPlan {
                        node: 1,
                        at_tick: 3,
                        restart_at_tick: 6
                    })
                );
                assert_eq!(
                    taint,
                    Some(TaintPlan {
                        at_tick: 2,
                        node: 0,
                        kernel_index: 1
                    })
                );
                assert_eq!(chaos_fs, Some(250));
                assert_eq!(store.as_deref(), Some("/tmp/f"));
                assert_eq!(record.as_deref(), Some("fleet.log"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fleet_flag_shapes_are_validated() {
        assert!(parse(&["fleet", "--nodes", "0"])
            .unwrap_err()
            .contains("at least 1"));
        assert!(parse(&["fleet", "--partition", "0:2:1"])
            .unwrap_err()
            .contains("4 colon-separated fields"));
        assert!(parse(&["fleet", "--crash", "1:3:6:9"]).is_err());
        assert!(parse(&["fleet", "--taint", "a:b:c"]).is_err());
        assert!(
            parse(&["fleet", "--replay", "f.log", "--verify-recovery", "/tmp/f"])
                .unwrap_err()
                .contains("mutually exclusive")
        );
        let c = parse(&["fleet", "--replay", "f.log"]).unwrap();
        match c {
            Command::Fleet(args) => assert_eq!(args.replay.as_deref(), Some("f.log")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_unknowns() {
        assert!(parse(&["bogus"]).is_err());
        assert!(parse(&["run", "--workload", "MB", "--objective", "joules"]).is_err());
        assert!(parse(&["run", "--workload", "MB", "--platform", "phone"]).is_err());
        assert!(parse(&["list", "--what"]).is_err());
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn every_owned_flag_has_a_parser() {
        // The `unreachable!`s in `parse_args` hold only while `FLAGS` and
        // its two matches agree.
        for (sub, _, flags) in FLAGS {
            let _ = parse(&[sub]);
            for flag in *flags {
                let _ = parse(&[sub, flag]);
            }
        }
    }

    #[test]
    fn flags_rows_are_the_usage_lines() {
        // A usage entry opens with `  easched <sub>`; deeper-indented lines
        // continue it. Its `--flags`, in order, are its FLAGS row.
        let mut entries: Vec<(&str, Vec<&str>)> = Vec::new();
        for line in USAGE.lines().skip(1) {
            let words = line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'));
            let flags = words.filter(|w| w.starts_with("--"));
            match line.strip_prefix("  easched ") {
                Some(rest) => {
                    let sub = rest.split(' ').next().expect("a subcommand");
                    entries.push((sub, flags.collect()));
                }
                None => entries.last_mut().expect("an open entry").1.extend(flags),
            }
        }
        let rows: Vec<(&str, Vec<&str>)> = FLAGS
            .iter()
            .map(|(sub, _, flags)| (*sub, flags.to_vec()))
            .collect();
        assert_eq!(rows, entries);
        for (_, mode, flags) in FLAGS {
            assert!(mode.is_empty() || flags.contains(mode), "{mode}");
        }
    }

    #[test]
    fn the_mode_flag_selects_the_usage_line_wherever_it_stands() {
        let args = ["fleet", "--nodes", "2", "--replay", "f.log"];
        let err = parse(&args).unwrap_err();
        assert!(err.starts_with("`easched fleet --replay` has no flag \"--nodes\""));
        assert!(parse(&["fleet", "--store", "d", "--replay", "f.log"]).is_ok());
        assert!(parse(&["record", "--out", "r", "--chaos-fs", "9", "--overload"]).is_ok());
    }

    #[test]
    fn flag_missing_value_reported() {
        let err = parse(&["characterize", "--save"]).unwrap_err();
        assert!(err.contains("requires a value"));
    }

    #[test]
    fn objective_args_map_to_objectives() {
        assert_eq!(ObjectiveArg::Edp.build().name(), "EDP");
        assert_eq!(ObjectiveArg::Energy.build().name(), "energy");
        assert_eq!(ObjectiveArg::Ed2.build().name(), "ED2P");
        assert_eq!(ObjectiveArg::Time.build().name(), "time");
    }
}
