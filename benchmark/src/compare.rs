//! `--compare A.json B.json`: B against A, per workload and metric, under
//! the bounds the benchmark fixed. A is the parent, B the change.

use crate::json::Json;
use crate::spec::{self, Better};
use crate::stats::{median, quartiles};
use std::process::ExitCode;

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    /// The pass-to-pass spread of a side exceeds the bound, so the
    /// medians cannot tell *unchanged* from *changed*.
    Unresolved,
    Breach,
}

/// Distance between the quartiles as a share of the median; the full
/// range for fewer than four samples, where quartiles say nothing.
pub fn spread(values: &[f64]) -> f64 {
    let mid = median(values).abs();
    if values.len() < 2 || mid == 0.0 {
        return 0.0;
    }
    let (lo, hi) = if values.len() >= 4 {
        quartiles(values)
    } else {
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        (lo, hi)
    };
    (hi - lo) / mid
}

/// By how much of A's median B's median is worse (negative: better).
pub fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let worse = worse_by(median(a), median(b), better);
    let b_wins_every_pair = match better {
        Better::Lower => b.iter().all(|y| a.iter().all(|x| y < x)),
        Better::Higher => b.iter().all(|y| a.iter().all(|x| y > x)),
    };
    if (spread(a) > bound || spread(b) > bound) && !b_wins_every_pair {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Breach
    } else {
        Verdict::Ok
    }
}

fn values(doc: &Json, workload: &str, section: &str, metric: &str) -> Option<Vec<f64>> {
    let list = doc
        .get("workloads")?
        .get(workload)?
        .get(section)?
        .get(metric)?
        .get("values")?
        .as_arr()?;
    let values: Vec<f64> = list.iter().filter_map(Json::as_f64).collect();
    (!values.is_empty()).then_some(values)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn main(path_a: &str, path_b: &str) -> ExitCode {
    let (a, b) = match (load(path_a), load(path_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let same_seed = a.get("seed").and_then(Json::as_f64) == b.get("seed").and_then(Json::as_f64);
    let (mut breaches, mut unresolved, mut compared) = (0u32, 0u32, 0u32);
    println!(
        "{:<14} {:<36} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "bound"
    );
    for w in &spec::WORKLOADS {
        for m in &spec::END_TO_END {
            let (Some(va), Some(vb)) = (
                values(&a, w.name, "end_to_end", m.name),
                values(&b, w.name, "end_to_end", m.name),
            ) else {
                continue;
            };
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            let verdict = judge(&va, &vb, m.better, bound);
            compared += 1;
            match verdict {
                Verdict::Breach => breaches += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Ok => {}
            }
            println!(
                "{:<14} {:<36} {:>14.6} {:>14.6} {:>+8.2}% {:>6.0}%  {}",
                w.name,
                m.name,
                median(&va),
                median(&vb),
                100.0 * worse_by(median(&va), median(&vb), m.better),
                100.0 * bound,
                match verdict {
                    Verdict::Ok => "ok".to_string(),
                    Verdict::Breach => "BREACH".to_string(),
                    Verdict::Unresolved => format!(
                        "unresolved (spread A {:.1}% B {:.1}%)",
                        100.0 * spread(&va),
                        100.0 * spread(&vb)
                    ),
                }
            );
        }
        if !same_seed {
            continue;
        }
        for name in spec::EXACT_PER_SEED {
            let (Some(va), Some(vb)) = (
                values(&a, w.name, "per_layer", name),
                values(&b, w.name, "per_layer", name),
            ) else {
                continue;
            };
            compared += 1;
            let equal = va.iter().chain(&vb).all(|v| v.to_bits() == va[0].to_bits());
            if !equal {
                breaches += 1;
                println!(
                    "{:<14} {:<36} {:>14.9} {:>14.9} {:>9} {:>7}  BREACH (exact per seed)",
                    w.name, name, va[0], vb[0], "", "exact"
                );
            }
        }
    }
    if !same_seed {
        println!("seeds differ: exact-per-seed metrics not compared");
    }
    println!("{compared} compared, {breaches} breach(es), {unresolved} unresolved");
    if compared == 0 {
        eprintln!("nothing to compare: the files share no workload and metric");
        return ExitCode::from(2);
    }
    if breaches > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_direction() {
        assert!((worse_by(100.0, 112.0, Better::Lower) - 0.12).abs() < 1e-12);
        assert!((worse_by(100.0, 112.0, Better::Higher) + 0.12).abs() < 1e-12);
    }

    #[test]
    fn steady_sides_are_judged_by_their_medians() {
        let a = [100.0, 101.0, 99.0];
        assert_eq!(
            judge(&a, &[104.0, 105.0, 103.0], Better::Lower, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            judge(&a, &[120.0, 121.0, 119.0], Better::Lower, 0.10),
            Verdict::Breach
        );
        assert_eq!(
            judge(&a, &[80.0, 81.0, 79.0], Better::Higher, 0.10),
            Verdict::Breach
        );
    }

    #[test]
    fn a_wide_side_is_unresolved_unless_b_wins_every_pair() {
        let wide = [100.0, 130.0, 85.0];
        assert_eq!(
            judge(&wide, &[101.0, 100.0, 99.0], Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // Wide, but every B run beats every A run: resolved in B's favour.
        assert_eq!(
            judge(&wide, &[60.0, 70.0, 65.0], Better::Lower, 0.10),
            Verdict::Ok
        );
    }

    #[test]
    fn spread_uses_quartiles_from_four_samples() {
        assert_eq!(spread(&[5.0]), 0.0);
        assert!((spread(&[90.0, 100.0, 110.0]) - 0.2).abs() < 1e-12);
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs) - 1.0).abs() < 1e-12); // (8.25 - 2.75) / 5.5
    }
}
