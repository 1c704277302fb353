//! The benchmark's vocabulary: workload and metric names with units,
//! directions, bounds and the reason each exists. `BENCHMARK.json` at the
//! repo root says the same thing; a unit test keeps the two in step.

pub const RUN_SECONDS: u64 = 10;

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 7] = [
    WorkloadSpec {
        name: "sched_miss",
        why: "never-seen kernels through SharedEas+RingSink: classify, minimise, accumulate and record on every invocation; where a decide speed-up must show",
    },
    WorkloadSpec {
        name: "sched_hit",
        why: "warm 64-kernel population, same stack: table reads, decide bypassed; a decide speed-up predicts no change here",
    },
    WorkloadSpec {
        name: "sched_durable",
        why: "hit stream over 4096 kernels with the journal on a real directory: append and compaction beside table reads",
    },
    WorkloadSpec {
        name: "tenant_storm",
        why: "64-tick 8-tenant 2x overload storm: admission, tenancy, simulator, kernels and recorder composed; scheduler-only gains predict no change",
    },
    WorkloadSpec {
        name: "replay_storm",
        why: "parse and replay a 96-round chaos-storm log: scheduler plus sealed-line codec with no simulator",
    },
    WorkloadSpec {
        name: "fleet_gossip",
        why: "30-node fleet, 10 ticks, chaotic fabric, journals on disk: anti-entropy dominated; the only workload an event spine can move",
    },
    WorkloadSpec {
        name: "paper_suite",
        why: "fig9's five schemes under EDP over recorded desktop traces: simulator host time plus the quality rows nothing may change",
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen;
    /// `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lo(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// What a user of the system would see, on every workload.
pub const END_TO_END: [MetricSpec; 4] = [
    e2e("invocations_per_s", "1/s", Better::Higher, 0.25),
    e2e("invocation_ns_p50", "ns", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// Single layers (layer = crate.module), the traced pass, and the exact
/// per-seed outputs of the composed workloads.
pub const PER_LAYER: [MetricSpec; 83] = [
    // Normalisers: fixed kernels, moved by the machine and nothing else.
    lo("host.calib_fma_ns", "ns"),
    lo("host.calib_chase_ns", "ns"),
    lo("host.calib_mix_ns", "ns"),
    lo("num.polynomial.eval_ns", "ns"),
    lo("num.optimize.grid_min_ns", "ns"),
    lo("core.classify.classify_ns", "ns"),
    lo("core.engine.decide_ns", "ns"),
    lo("core.engine.predict_ns", "ns"),
    lo("core.engine.decides_per_invocation", "count"),
    lo("core.eas.log_push_ns", "ns"),
    lo("core.guard.vet_ns", "ns"),
    lo("core.kernel_table.lookup_ns", "ns"),
    lo("core.kernel_table.note_reuse_ns", "ns"),
    lo("core.kernel_table.accumulate_ns", "ns"),
    hi("core.kernel_table.hit_ratio", "ratio"),
    lo("core.profile_loop.self_ns", "ns"),
    lo("core.profile_loop.invocation_ns_p99", "ns"),
    lo("core.journal.record_entry_ns", "ns"),
    lo("core.journal.checkpoint_ms", "ms"),
    lo("core.journal.open_recover_ms", "ms"),
    lo("core.journal.bytes_per_invocation", "B"),
    lo("core.journal.compactions", "count"),
    lo("core.journal.write_errors", "count"),
    lo("runtime.vfs.write_ns", "ns"),
    lo("runtime.vfs.sync_ms", "ms"),
    lo("runtime.vfs.ops", "count"),
    lo("core.characterize.characterize_ms", "ms"),
    lo("runtime.admission.offer_ns", "ns"),
    lo("runtime.admission.drain_ns", "ns"),
    lo("runtime.admission.shed_ratio", "ratio"),
    lo("core.tenancy.offer_ns", "ns"),
    lo("sim.machine.profile_step_ns", "ns"),
    lo("sim.machine.run_split_ns", "ns"),
    lo("sim.machine.steps", "count"),
    lo("kernels.record_trace_s", "s"),
    lo("kernels.small_suite_run_ms", "ms"),
    lo("core.schemes.score_trace_ms", "ms"),
    lo("core.schemes.oracle_s", "s"),
    lo("telemetry.ring.record_ns", "ns"),
    lo("telemetry.ring.span_batch_ns", "ns"),
    lo("telemetry.ring.dropped", "count"),
    lo("telemetry.metrics.render_ms", "ms"),
    lo("telemetry.serve.scrape_ms_p50", "ms"),
    lo("telemetry.slo.observe_ns", "ns"),
    lo("replay.log.to_text_ns_per_event", "ns"),
    lo("replay.log.from_text_ns_per_event", "ns"),
    lo("replay.record.note_ns", "ns"),
    lo("replay.replay.ns_per_invocation", "ns"),
    lo("replay.replay.growth_4x", "ratio"),
    lo("replay.overload.ms_per_tick", "ms"),
    lo("replay.overload.growth_4x", "ratio"),
    lo("fleet.frame.encode_ns", "ns"),
    lo("fleet.frame.decode_ns", "ns"),
    lo("fleet.replica.apply_ns", "ns"),
    lo("fleet.replica.digest_us", "us"),
    lo("fleet.node.ingest_ns_per_envelope", "ns"),
    lo("fleet.node.answer_request_us", "us"),
    lo("fleet.node.publish_local_us", "us"),
    hi("fleet.transport.delivered_ratio", "ratio"),
    lo("fleet.run.ms_per_tick_3n", "ms"),
    lo("fleet.run.ms_per_tick_30n", "ms"),
    lo("fleet.run.frames_per_tick", "count"),
    // Exact per seed: outputs of the composed workloads' canonical unit.
    hi("tenant_storm.edp_efficiency", "ratio"),
    lo("tenant_storm.shed_fraction", "ratio"),
    lo("tenant_storm.fair_share_deficit", "ratio"),
    hi("tenant_storm.requests_per_s", "1/s"),
    hi("tenant_storm.ticks_per_s", "1/s"),
    hi("replay_storm.events_per_s", "1/s"),
    hi("fleet_gossip.ticks_per_s", "1/s"),
    lo("fleet_gossip.drain_rounds", "count"),
    hi("paper_suite.edp_efficiency", "ratio"),
    // The traced pass of the workload the run was asked for.
    hi("trace.invocations_per_s", "1/s"),
    lo("trace.overhead_frac", "ratio"),
    hi("trace.coverage_frac", "ratio"),
    lo("trace.requests", "count"),
    lo("trace.spans_kept", "count"),
    lo("trace.self_frac.entry", "ratio"),
    lo("trace.self_frac.scheduler", "ratio"),
    lo("trace.self_frac.backend", "ratio"),
    lo("trace.self_frac.sink", "ratio"),
    lo("trace.self_frac.vfs", "ratio"),
    lo("trace.unit_ms_p50", "ms"),
    lo("trace.peak_rss_mb", "MB"),
];

/// Per-layer metrics that are pure functions of the seed: two runs of the
/// same seed must agree on them to the bit, on any machine.
pub const EXACT_PER_SEED: [&str; 11] = [
    "core.engine.decides_per_invocation",
    "core.kernel_table.hit_ratio",
    "core.journal.write_errors",
    "telemetry.ring.dropped",
    "sim.machine.steps",
    "tenant_storm.edp_efficiency",
    "tenant_storm.shed_fraction",
    "tenant_storm.fair_share_deficit",
    "fleet_gossip.drain_rounds",
    "fleet.transport.delivered_ratio",
    "paper_suite.edp_efficiency",
];

/// `BENCHMARK.json`, rendered from the tables above.
pub fn benchmark_json() -> String {
    let q = |s: &str| crate::json::Json::str(s).render();
    let metric = |m: &MetricSpec| {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
            q(m.name),
            q(m.unit),
            q(m.better.as_str())
        )
    };
    let list = |items: Vec<String>| items.join(",\n");
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \
         \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        list(
            WORKLOADS
                .iter()
                .map(|w| format!("    {{\"name\": {}, \"why\": {}}}", q(w.name), q(w.why)))
                .collect()
        ),
        list(END_TO_END.iter().map(metric).collect()),
        list(PER_LAYER.iter().map(metric).collect()),
    )
}

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::stats::valid_name;
    use std::collections::HashSet;

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = HashSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(PER_LAYER.iter()).map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(!m.unit.is_empty() && m.unit.len() <= 16, "{}", m.name);
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.name
            );
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    #[test]
    fn benchmark_json_says_the_same() {
        let text = include_str!("../../BENCHMARK.json");
        assert!(text.len() <= 64 * 1024);
        let doc = Json::parse(text).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").unwrap().as_f64(),
            Some(RUN_SECONDS as f64)
        );

        let workloads = doc.get("workloads").unwrap().as_arr().unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (have, want) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(have.as_obj().unwrap().len(), 2);
            assert_eq!(have.get("name").unwrap().as_str(), Some(want.name));
            assert_eq!(have.get("why").unwrap().as_str(), Some(want.why));
        }
        for (key, specs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let metrics = doc.get(key).unwrap().as_arr().unwrap();
            assert_eq!(metrics.len(), specs.len(), "{key}");
            for (have, want) in metrics.iter().zip(specs) {
                assert_eq!(have.get("name").unwrap().as_str(), Some(want.name));
                assert_eq!(
                    have.get("unit").unwrap().as_str(),
                    Some(want.unit),
                    "{}",
                    want.name
                );
                assert_eq!(
                    have.get("better").unwrap().as_str(),
                    Some(want.better.as_str()),
                    "{}",
                    want.name
                );
                assert_eq!(
                    have.get("bound").and_then(Json::as_f64),
                    want.bound,
                    "{}",
                    want.name
                );
                let fields = if want.bound.is_some() { 4 } else { 3 };
                assert_eq!(have.as_obj().unwrap().len(), fields, "{}", want.name);
            }
        }
    }
}
