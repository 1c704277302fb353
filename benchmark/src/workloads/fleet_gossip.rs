//! `fleet_gossip`: `run_fleet` with 30 nodes under the default chaotic
//! fabric, journals on disk. Anti-entropy (all-pairs frames, decode,
//! apply, digest) dominates; the scheduler barely registers.

use super::{Checks, ScratchDir, Unit, Workload};
use crate::trace;
use easched_fleet::{run_fleet, FleetReport, FleetSpec};
use std::time::Instant;

pub const NODES: usize = 30;
/// Cost is linear in ticks; 10 (plus the drain rounds) keeps a unit near
/// half a second, so a run holds enough units for a steady median.
pub const TICKS: u64 = 10;

pub fn spec(seed: u64, nodes: usize, ticks: u64) -> FleetSpec {
    let presets = ["haswell-desktop", "baytrail-tablet", "skylake-minipc"];
    let mut spec = FleetSpec::three_nodes(seed);
    spec.platforms = (0..nodes).map(|i| presets[i % 3].to_string()).collect();
    spec.ticks = ticks;
    spec
}

pub struct FleetGossip {
    spec: FleetSpec,
    scratch: ScratchDir,
    units: u64,
    /// The last unit's report.
    pub last: Option<FleetReport>,
    first_digest: Option<u64>,
}

impl FleetGossip {
    pub fn build(seed: u64) -> FleetGossip {
        FleetGossip::build_sized(seed, NODES, TICKS)
    }

    pub fn build_sized(seed: u64, nodes: usize, ticks: u64) -> FleetGossip {
        let scratch = ScratchDir::new("fleet");
        // Warm-up: a small fleet faults
        // in the code and the scratch filesystem before anything is timed.
        let mut warm = spec(seed, 9, 10);
        warm.store_root = scratch.path().join("warm");
        let report = run_fleet(&warm).expect("warm-up fleet");
        assert!(report.converged);
        FleetGossip {
            spec: spec(seed, nodes, ticks),
            scratch,
            units: 0,
            last: None,
            first_digest: None,
        }
    }
}

impl Workload for FleetGossip {
    fn unit(&mut self, _traced: bool) -> Unit {
        let root = self.scratch.path().join(format!("unit-{}", self.units));
        self.units += 1;
        self.spec.store_root = root.clone();

        let start = Instant::now();
        let report = trace::span("fleet.run", || run_fleet(&self.spec));
        let wall = start.elapsed();
        let _ = std::fs::remove_dir_all(&root);

        let invocations =
            self.spec.platforms.len() as u64 * self.spec.ticks * self.spec.invocations_per_tick;
        let mut checks = Checks {
            attempted: invocations,
            failed: 0,
        };
        match report {
            Ok(report) => {
                checks.check(report.converged, || "fleet did not converge".into());
                checks.check(
                    report.nodes.iter().all(|n| n.digest == report.digest),
                    || "nodes ended on different digests".into(),
                );
                checks.check(report.nodes.iter().all(|n| n.store.io_errors == 0), || {
                    "a node journal saw I/O errors".into()
                });
                let first = *self.first_digest.get_or_insert(report.digest);
                checks.check(report.digest == first, || {
                    "fleet is not deterministic: digest changed between units".into()
                });
                self.last = Some(report);
            }
            Err(e) => checks.check(false, || format!("fleet did not run: {e}")),
        }
        Unit {
            invocations,
            wall,
            batch_ns: Vec::new(),
            checks,
        }
    }
}
