//! The repo benchmark. Three modes, one binary (see README.md):
//!
//! ```text
//! easched-benchmark --workload W --seed N --seconds S --trace 0|1   one run, one JSON line
//! easched-benchmark [--seed N] [--passes P] [--traced] [--workload W] [--out FILE]
//!                                                                    every workload, each
//!                                                                    pass in a child process
//! easched-benchmark --compare A.json B.json                          apply the bounds
//! ```
//!
//! `--seconds` is what selects the single-run mode: it is the form the
//! benchmark contract calls.

mod calib;
mod compare;
mod json;
mod lanes;
mod run;
mod script;
mod seams;
mod spec;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::process::ExitCode;

const USAGE: &str = "usage:
  easched-benchmark --workload W --seed N --seconds S --trace 0|1
  easched-benchmark [--seed N] [--passes P] [--traced] [--workload W] [--out FILE]
  easched-benchmark --compare A.json B.json";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: Option<bool>,
    passes: Option<usize>,
    traced: bool,
    out: Option<String>,
    compare: Option<(String, String)>,
    emit_benchmark_json: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    fn number<T: std::str::FromStr>(flag: &str, text: String) -> Result<T, String> {
        text.parse()
            .map_err(|_| format!("{flag}: {text:?} is not a number"))
    }
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => args.workload = Some(value(&mut it, flag)?),
            "--seed" => args.seed = Some(number(flag, value(&mut it, flag)?)?),
            "--seconds" => args.seconds = Some(number(flag, value(&mut it, flag)?)?),
            "--passes" => args.passes = Some(number(flag, value(&mut it, flag)?)?),
            "--trace" => {
                args.trace = Some(match value(&mut it, flag)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--traced" => args.traced = true,
            "--out" => args.out = Some(value(&mut it, flag)?),
            "--compare" => args.compare = Some((value(&mut it, flag)?, value(&mut it, flag)?)),
            "--emit-benchmark-json" => args.emit_benchmark_json = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if let Some(name) = &args.workload {
        if spec::workload(name).is_none() {
            let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {name:?}; have {}",
                names.join(", ")
            ));
        }
    }
    if args.seconds == Some(0) || args.passes == Some(0) {
        return Err("--seconds and --passes must be at least 1".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.emit_benchmark_json {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if let Some((a, b)) = &args.compare {
        return compare::main(a, b);
    }
    let seed = args.seed.unwrap_or(7);
    match (&args.workload, args.seconds) {
        (Some(workload), Some(seconds)) => {
            let result = run::single(workload, seed, seconds, args.trace.unwrap_or(false));
            // The contract: the result is the last line of stdout.
            println!("{}", result.to_json().render());
            if result.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        (None, Some(_)) => {
            eprintln!("--seconds selects a single run and needs --workload\n{USAGE}");
            ExitCode::from(2)
        }
        (filter, None) => suite::main(&suite::Plan {
            seed,
            passes: args.passes.unwrap_or(3),
            seconds: spec::RUN_SECONDS,
            traced: args.traced,
            filter: filter.clone(),
            out: args.out.clone(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn parses_the_contract_form() {
        let a = parse(&argv(&[
            "--workload",
            "sched_hit",
            "--seed",
            "23",
            "--seconds",
            "8",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("sched_hit"));
        assert_eq!(
            (a.seed, a.seconds, a.trace),
            (Some(23), Some(8), Some(true))
        );
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--compare", "only-one"],
            &["--frobnicate"],
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad:?}");
        }
    }
}
