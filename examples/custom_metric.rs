//! The scheduler optimizes *any* metric expressible as f(power, time)
//! (paper §1, contribution 2). This example defines a custom
//! thermally-weighted metric P²·T — penalizing high power draw harder than
//! the energy-delay product does — and compares the splits EAS chooses for
//! different objectives on the same workload.
//!
//! `easched run --objective` offers only the four built-in objectives; a
//! closure objective is API-only, and this is where it is shown.
//!
//! ```text
//! cargo run --release --example custom_metric
//! ```

use easched::core::{characterize, CharacterizationConfig, EasConfig, EasRuntime, Objective};
use easched::kernels::suite;
use easched::runtime::kernel_id_of;
use easched::sim::Platform;
use std::sync::Arc;

fn main() {
    let platform = Platform::haswell_desktop();
    let model = characterize(&platform, &CharacterizationConfig::default());

    let thermal = Objective::Custom {
        name: "P²T (thermal)",
        f: Arc::new(|power, time| power * power * time),
    };

    println!(
        "{:<16} {:>10} {:>12} {:>10} {:>8}",
        "objective", "time (s)", "energy (J)", "avg W", "EAS α"
    );
    for objective in [
        Objective::Time,
        Objective::EnergyDelay,
        Objective::Energy,
        thermal,
    ] {
        let name = objective.name();
        let mut runtime =
            EasRuntime::new(platform.clone(), model.clone(), EasConfig::new(objective));
        let workload = suite::seismic_desktop();
        let outcome = runtime.run(workload.as_ref());
        assert!(outcome.verification.is_passed());
        // The learned split for the seismic kernel.
        let alpha = runtime
            .scheduler()
            .learned_alpha(kernel_id_of(workload.as_ref()));
        println!(
            "{:<16} {:>10.3} {:>12.2} {:>10.1} {:>8}",
            name,
            outcome.time,
            outcome.energy_joules,
            outcome.energy_joules / outcome.time,
            alpha.map_or("-".into(), |a| format!("{a:.2}")),
        );
    }
    println!("\nhigher power-sensitivity pushes the split toward the 30 W GPU");
}
