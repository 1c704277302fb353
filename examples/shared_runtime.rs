//! Shared scheduler: N concurrent workload streams learning into — and
//! reusing from — one global kernel table through an `Arc<SharedEas>`.
//!
//! Each thread gets its own `EasRuntime` (its own simulated machine), but
//! all of them drive the same scheduler: the first stream to profile a
//! kernel pays the profiling cost, every later stream on *any* thread
//! reuses the learned ratio through a lock-light table probe.
//!
//! The scheduler journals every table mutation to a crash-safe store
//! (DESIGN.md §11), and the example runs two scheduler lifetimes over one
//! store directory: the first profiles and checkpoints, the second
//! warm-starts from the recovered table and reuses what it finds there.
//!
//! ```text
//! cargo run --release --example shared_runtime
//! ```
//!
//! The harness modes live in the `easched` binary: `easched fleet --store
//! D` (optionally `--chaos-fs PERMILLE`) for a long-running store to
//! `kill -9`, `easched fleet --verify-recovery D` to audit what came
//! back, `easched record` / `replay` for byte-identical replay, `easched
//! serve --trace FILE` for a Perfetto dump.

use easched::core::{
    characterize, table_to_text, CharacterizationConfig, EasConfig, EasRuntime, Objective,
    SharedEas,
};
use easched::kernels::suite;
use easched::runtime::kernel_id_of;
use easched::sim::Platform;
use std::sync::Arc;

const STREAMS: usize = 8;

fn main() {
    let platform = Platform::haswell_desktop();
    println!("characterizing {} ...", platform.name);
    let model = characterize(&platform, &CharacterizationConfig::default());
    let config = EasConfig::new(Objective::EnergyDelay);
    let dir = std::env::temp_dir().join(format!("easched-shared-runtime-{}", std::process::id()));

    for life in ["cold start", "warm start"] {
        // One scheduler, shared by every stream. Opening the store first
        // recovers whatever an earlier lifetime learned (crashed or not).
        let eas = SharedEas::with_persistence(model.clone(), config.clone(), &dir)
            .expect("open table store");
        let recovered = eas.table().len();
        println!(
            "\n== {life}: {recovered} kernels recovered from {} ==",
            dir.display()
        );

        std::thread::scope(|s| {
            for stream in 0..STREAMS {
                let eas = Arc::clone(&eas);
                let platform = platform.clone();
                s.spawn(move || {
                    let mut rt = EasRuntime::with_shared(platform, eas);
                    for workload in [suite::blackscholes_small(), suite::mandelbrot_small()] {
                        let outcome = rt.run(workload.as_ref());
                        assert!(outcome.verification.is_passed());
                        println!(
                            "stream {stream}: {:>4}  {:>8.4} s  {:>8.3} J  EDP {:>9.4}",
                            workload.spec().abbrev,
                            outcome.time,
                            outcome.energy_joules,
                            outcome.edp,
                        );
                    }
                });
            }
        });

        // The table holds one learned ratio per kernel, no matter how many
        // streams ran it; profiling decisions were made once per kernel,
        // not once per stream — and not at all after a warm start.
        println!();
        for workload in [suite::blackscholes_small(), suite::mandelbrot_small()] {
            let kernel = kernel_id_of(workload.as_ref());
            let stat = eas.table().stat(kernel).expect("every stream ran it");
            println!(
                "{:>4}: learned α = {:.2}  (weight {:.0}, {} reuse invocations)",
                workload.spec().abbrev,
                stat.alpha,
                stat.weight,
                stat.invocations_seen,
            );
        }
        println!(
            "total α decisions across {STREAMS} streams: {} (reuse is decision-free)",
            eas.decisions()
        );
        if recovered > 0 {
            println!("\npersisted table:\n{}", table_to_text(eas.table()));
        }
        eas.checkpoint().expect("checkpoint table store");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
