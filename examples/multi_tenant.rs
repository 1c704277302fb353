//! Multi-tenant overload protection: eight tenants at twice the drain
//! capacity, surviving admission control, backpressure, and the
//! brownout ladder (DESIGN.md §13).
//!
//! The canonical overload storm drives a `TenantFrontend` — bounded
//! per-tenant queues, weighted fair-share draining, quota windows, and
//! the three-rung brownout ladder — in front of one shared scheduler
//! while a bursty co-tenant fault plan hammers the package, and this
//! example prints the admission counters and the per-tenant fairness
//! ledger of the seed-7 run. The ledger is printed nowhere else:
//! `easched record --overload` prints the storm's totals and worst
//! deficit, and `easched serve` exposes raw per-tenant series, but
//! neither sets each tenant's received share beside its entitlement.
//! The acceptance gates (bounded queues, fair-share deficit ≤ 5 %,
//! admitted-work EDP ≥ 70 % of clean, byte-identical replay) are
//! asserted over the CI seed matrix by
//! `crates/replay/tests/storm_seeds.rs`; `easched record --overload
//! --seed N` records the storm under any other seed.
//!
//! ```text
//! cargo run --release --example multi_tenant
//! ```

use easched::replay::overload::{overload_registry, overload_traffic};
use easched::replay::{record_overload_storm, OverloadSpec};

fn traffic_desc(t: &easched::runtime::TenantTraffic) -> String {
    if t.burst_every > 0 {
        format!(
            "bursty({:.1}, x{:.1} every {})",
            t.rate, t.burst_factor, t.burst_every
        )
    } else {
        format!("poisson({:.1})", t.rate)
    }
}

fn main() {
    let seed = 7;
    let spec = OverloadSpec::new(seed);
    let registry = overload_registry();
    let traffic = overload_traffic();

    println!(
        "recording the canonical overload storm: seed {seed}, {} ticks, 8 tenants ...",
        spec.ticks
    );
    let r = record_overload_storm(&spec);

    println!(
        "\noffered {} requests, shed {}, executed {} — ~{:.1}x the drain capacity",
        r.offered,
        r.shed,
        r.executed,
        r.offered as f64 / r.executed as f64,
    );
    println!(
        "brownout: {} transitions, final rung {:?}",
        r.brownout_transitions, r.final_level
    );
    println!(
        "admitted-work EDP efficiency vs clean: {:.3} (gate: >= 0.7)",
        r.edp_efficiency()
    );
    println!(
        "worst fair-share deficit: {:.4} (gate: <= 0.05)",
        r.fair_share_deficit
    );

    // Per-tenant ledger. Entitlement is the weight share of the
    // fairness-eligible set (unmetered, above the shed waterline);
    // quota-metered and sheddable tenants are policy-limited, not
    // entitled.
    let eligible: Vec<usize> = registry
        .iter()
        .filter(|(_, s)| s.quota.is_none() && s.priority > 0)
        .map(|(t, _)| t)
        .collect();
    let total_weight: f64 = eligible.iter().map(|&t| registry.spec(t).weight).sum();
    let total_debt: f64 = eligible
        .iter()
        .map(|&t| r.tenant_stats[t].1.gpu_seconds)
        .sum();
    println!(
        "\n{:<8} {:>6} {:>9} {:>9} {:>8} {:>7} {:>7}  traffic",
        "tenant", "weight", "entitled", "received", "offered", "queued", "shed"
    );
    for (t, (name, st)) in r.tenant_stats.iter().enumerate() {
        let spec_t = registry.spec(t);
        let (entitled, received) = if eligible.contains(&t) {
            (
                format!("{:>8.1}%", 100.0 * spec_t.weight / total_weight),
                format!("{:>8.1}%", 100.0 * st.gpu_seconds / total_debt),
            )
        } else {
            ("       —".to_string(), "       —".to_string())
        };
        println!(
            "{name:<8} {:>6.1} {entitled} {received} {:>8} {:>7} {:>7}  {}",
            spec_t.weight,
            st.offered,
            st.queued,
            st.shed,
            traffic_desc(&traffic[t]),
        );
    }
}
