//! Property-based tests for the platform simulator.

use easched_sim::{
    contended_rates, BwDemand, EnergyCounter, KernelTraits, Machine, PhasePlan, Platform,
    PowerTrace,
};
use proptest::prelude::*;

fn platforms() -> impl Strategy<Value = Platform> {
    prop_oneof![
        Just(Platform::haswell_desktop()),
        Just(Platform::baytrail_tablet()),
    ]
}

fn traits_strategy() -> impl Strategy<Value = KernelTraits> {
    (
        1e4..1e7f64,
        1e4..1e7f64,
        0.0..1.0f64,
        0.0..0.6f64,
        0.0..2.0f64,
    )
        .prop_map(|(cpu, gpu, mem, irr, bus)| {
            KernelTraits::builder("prop")
                .cpu_rate(cpu)
                .gpu_rate(gpu)
                .memory_intensity(mem)
                .irregularity(irr)
                .bw_bytes_per_item(bus * 25.6e9 / (cpu + gpu))
                .build()
        })
}

/// Checks [`contended_rates`] on `N` fully memory-bound demands of `bytes`
/// per item each.
fn derates<const N: usize>(rates: [f64; N], bytes: f64, peak: f64) {
    let demands = rates.map(|r| BwDemand {
        rate: r,
        bytes_per_item: bytes,
        memory_fraction: 1.0,
    });
    let out = contended_rates(peak, &demands);
    let mut used = 0.0;
    for (o, d) in out.iter().zip(&demands) {
        prop_assert!(*o <= d.rate * 1.0000001);
        used += o * d.bytes_per_item;
    }
    let requested: f64 = rates.iter().map(|r| r * bytes).sum();
    if requested > peak {
        prop_assert!(used <= peak * 1.0001, "granted {used} > peak {peak}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The energy register accounts every deposited joule (wrap-safe).
    #[test]
    fn energy_counter_accounts_deposits(
        start in any::<u32>(),
        deposits in prop::collection::vec(1e-6..10.0f64, 1..50),
    ) {
        let mut c = EnergyCounter::with_raw(start);
        let before = c.read_raw();
        let total: f64 = deposits.iter().sum();
        // Keep under one wrap (2^32 units ≈ 65 kJ) — the sampling assumption.
        prop_assume!(total < 60_000.0);
        for d in deposits {
            c.deposit_joules(d);
        }
        let measured = EnergyCounter::delta_joules(before, c.read_raw());
        prop_assert!((measured - total).abs() < 1e-3 + total * 1e-9);
    }

    /// Contention never raises a rate and never over-grants the bus for
    /// fully memory-bound demands: one to four demands, each case drawing
    /// four rates and checking every prefix of them.
    #[test]
    fn contention_is_a_derating(
        rates in (1e3..1e9f64, 1e3..1e9f64, 1e3..1e9f64, 1e3..1e9f64),
        bytes in 1.0..1e4f64,
        peak in 1e6..1e11f64,
    ) {
        let (a, b, c, d) = rates;
        derates([a], bytes, peak);
        derates([a, b], bytes, peak);
        derates([a, b, c], bytes, peak);
        derates([a, b, c, d], bytes, peak);
    }

    /// run_phase completes exactly the assigned items and advances time.
    #[test]
    fn phases_conserve_items(
        platform in platforms(),
        traits in traits_strategy(),
        n in 1_000u64..2_000_000,
        alpha_step in 0usize..=10,
    ) {
        let alpha = alpha_step as f64 / 10.0;
        let mut m = Machine::new(platform);
        let r = m.run_phase(&traits, &PhasePlan::split(n, alpha));
        prop_assert!((r.cpu_items_done + r.gpu_items_done - n as f64).abs() < 1.0);
        prop_assert!(r.elapsed > 0.0);
        prop_assert!(m.now() >= r.elapsed);
        // Energy is bounded below by idle power and above by a generous
        // multiple of the biggest operating point.
        let idle = m.platform().power.idle;
        let max_power = m.platform().power.both_memory.max(m.platform().power.cpu_memory) * 2.0;
        prop_assert!(r.energy_joules >= 0.5 * idle * r.elapsed);
        prop_assert!(r.energy_joules <= max_power * r.elapsed);
    }

    /// Same seed → identical histories; the machine is deterministic.
    #[test]
    fn machine_is_deterministic(
        traits in traits_strategy(),
        n in 1_000u64..500_000,
        seed in any::<u64>(),
    ) {
        let run = || {
            let mut m = Machine::with_seed(Platform::haswell_desktop(), seed);
            let r1 = m.run_phase(&traits, &PhasePlan::split(n, 0.5).with_seed(1));
            let r2 = m.run_phase(&traits, &PhasePlan::profile(n, 2048).with_seed(2));
            (r1.elapsed, r1.energy_joules, r2.cpu_items_done, m.total_joules(), m.read_energy_raw())
        };
        prop_assert_eq!(run(), run());
    }

    /// The profiling phase never exceeds its pools and stops with the GPU.
    #[test]
    fn profile_phase_respects_pools(
        traits in traits_strategy(),
        pool in 0u64..1_000_000,
        chunk in 1u64..10_000,
    ) {
        let mut m = Machine::new(Platform::haswell_desktop());
        let r = m.run_phase(&traits, &PhasePlan::profile(pool, chunk));
        prop_assert!((r.gpu_items_done - chunk as f64).abs() < 1.0);
        prop_assert!(r.cpu_items_done <= pool as f64 + 1.0);
    }

    /// Trace resampling conserves time-weighted mean power.
    #[test]
    fn resample_conserves_mean_power(
        watts in prop::collection::vec(1.0..100.0f64, 1..100),
        resolution in 0.001..0.1f64,
    ) {
        let mut t = PowerTrace::new();
        let mut now = 0.0;
        for (i, &w) in watts.iter().enumerate() {
            let dur = 0.001 + 0.001 * (i % 7) as f64;
            t.push(now, w, dur);
            now += dur;
        }
        let r = t.resample(resolution);
        prop_assert!((r.mean_power() - t.mean_power()).abs() < 1e-6);
    }

    /// Package power targets respect the calibration envelope.
    #[test]
    fn power_target_within_envelope(
        platform in platforms(),
        uc in 0.0..1.0f64,
        ug in 0.0..1.0f64,
        m in 0.0..1.0f64,
    ) {
        let t = &platform.power;
        let p = t.target_power(uc, ug, m, 1.0, 1.0);
        let hi = [t.cpu_compute, t.cpu_memory, t.gpu_compute, t.gpu_memory, t.both_compute, t.both_memory]
            .into_iter()
            .fold(t.idle, f64::max);
        prop_assert!(p >= 0.0);
        prop_assert!(p <= hi * 1.0001, "p={p} above envelope {hi}");
    }
}
