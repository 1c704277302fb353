//! `tenant_storm`: the composed serving path — admission + tenancy +
//! simulator + kernels + recorder — through the program's own driver,
//! `record_overload_storm`. The entry point takes no seam, so a traced
//! pass sees one span per storm.

use super::{Checks, Unit, Workload};
use crate::trace;
use easched_core::RunSeed;
use easched_replay::{
    record_overload_storm, replay_overload_storm, OverloadSpec, RecordedOverload,
};
use std::time::Instant;

/// Ticks per unit. The canonical 8-tenant 2× storm; its cost grows
/// faster than its length (README, findings), so the length is part of
/// the workload's definition.
pub const TICKS: u64 = 64;

pub struct TenantStorm {
    spec: OverloadSpec,
    /// The last unit's recording.
    pub last: Option<RecordedOverload>,
    /// (offered, shed, executed) of the first unit: every later unit of
    /// the same seed must reproduce them.
    first: Option<(u64, u64, usize)>,
}

impl TenantStorm {
    pub fn build(seed: u64) -> TenantStorm {
        TenantStorm::build_sized(seed, TICKS)
    }

    pub fn build_sized(seed: u64, ticks: u64) -> TenantStorm {
        let seed = RunSeed::new(seed);
        // Warm-up: a short storm faults in the kernels' inputs and the
        // allocator before anything is timed.
        let warm = record_overload_storm(&OverloadSpec { seed, ticks: 32 });
        assert!(warm.queues_bounded);
        TenantStorm {
            spec: OverloadSpec { seed, ticks },
            last: None,
            first: None,
        }
    }
}

impl Workload for TenantStorm {
    fn unit(&mut self, _traced: bool) -> Unit {
        let start = Instant::now();
        let recorded = trace::span("replay.overload", || record_overload_storm(&self.spec));
        let wall = start.elapsed();

        let invocations = recorded.log.invocations().len() as u64;
        let mut checks = Checks {
            attempted: recorded.offered,
            failed: 0,
        };
        checks.check(recorded.queues_bounded, || {
            "a tenant queue outgrew its bound".into()
        });
        let counts = (recorded.offered, recorded.shed, recorded.executed);
        let first = *self.first.get_or_insert(counts);
        checks.check(counts == first, || {
            format!("storm is not deterministic: {counts:?} after {first:?}")
        });
        self.last = Some(recorded);
        Unit {
            invocations,
            wall,
            batch_ns: Vec::new(),
            checks,
        }
    }

    fn verify(&mut self) -> Checks {
        let mut checks = Checks::default();
        let Some(recorded) = &self.last else {
            return checks;
        };
        match replay_overload_storm(&recorded.log) {
            Ok(outcome) => checks.check(outcome.identical, || {
                format!(
                    "storm log does not replay byte-identically: {}",
                    outcome.first_difference.unwrap_or_default()
                )
            }),
            Err(e) => checks.check(false, || format!("storm log does not replay: {e}")),
        }
        checks
    }
}
