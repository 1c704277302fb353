//! Package control unit (PCU) model.
//!
//! The PCU firmware on integrated parts governs device frequencies and the
//! shared power budget with policies the vendor does not document — the
//! paper's whole premise is treating it as a black box. Our model reproduces
//! the externally observable phenomenology the paper reports:
//!
//! * **Steady states** — package power settles to the calibrated operating
//!   point for the current device activity and workload class (Fig 3).
//! * **First-order ramps** — power approaches its target exponentially with
//!   time constant [`PcuParams::ramp_tau`], so very short kernels never
//!   reach steady state (one reason the paper distinguishes short/long
//!   workload categories).
//! * **Activation dip** — when the GPU becomes active while the CPU is
//!   running, the PCU conservatively reallocates budget: the CPU frequency
//!   dips for [`PcuParams::dip_window`], dropping package power before the
//!   controller re-learns the sustainable operating point. This is Fig 4's
//!   "short GPU bursts drop package power from ~60 W to <40 W".
//! * **Measurement jitter** — deterministic per-tick noise on the power
//!   reading, so curve fitting sees realistic scatter.

use crate::noise;
use crate::platform::Platform;
use crate::power::PowerTable;

/// Tunable PCU control parameters (part of a [`Platform`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PcuParams {
    /// Controller sampling interval in seconds.
    pub(crate) tick: f64,
    /// Time constant of the package-power ramp when power is *rising*,
    /// seconds (turbo budgets grow gradually).
    pub(crate) ramp_tau: f64,
    /// Time constant when power is *falling*, seconds (clock/power gating is
    /// near-instant, so this is much shorter).
    pub(crate) ramp_tau_down: f64,
    /// Duration of the conservative budget-reallocation dip after a GPU
    /// activation, seconds.
    pub(crate) dip_window: f64,
    /// CPU frequency scale applied during the dip (relative to its expected
    /// scale).
    pub(crate) dip_cpu_scale: f64,
    /// Minimum GPU-idle duration before a fresh activation re-arms the dip,
    /// seconds. Sub-millisecond gaps between consecutive offloads do not
    /// make the PCU forget its learned budget split.
    pub(crate) dip_rearm: f64,
    /// Relative amplitude of per-tick power measurement jitter.
    pub measurement_noise: f64,
    /// Package thermal design power, watts. When the steady-state target
    /// for the current activity exceeds this, the PCU throttles both
    /// devices' frequencies until the package fits the budget (the
    /// "shared chip-level power budget and thermal capacity" of §1).
    /// `None` disables the cap.
    pub tdp: Option<f64>,
}

/// Device activity as seen by the PCU each tick.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct PcuInput {
    /// CPU utilization in [0, 1].
    pub(crate) cpu_util: f64,
    /// GPU utilization in [0, 1].
    pub(crate) gpu_util: f64,
    /// Memory intensity of the running kernel in [0, 1].
    pub(crate) mem_intensity: f64,
}

/// Frequency scales the PCU currently grants each device, relative to the
/// solo-turbo calibration point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FreqGrant {
    /// CPU frequency scale.
    pub(crate) cpu: f64,
    /// GPU frequency scale.
    pub(crate) gpu: f64,
}

/// PCU dynamic state. Owned by the machine; stepped once per simulation
/// step.
#[derive(Debug, Clone)]
pub(crate) struct PcuState {
    /// Filtered (observable) package power in watts.
    power: f64,
    gpu_was_active: bool,
    cpu_was_active: bool,
    /// Simulation time of the most recent dip-arming GPU activation.
    last_gpu_activation: f64,
    /// Simulation time the GPU last went idle.
    last_gpu_deactivation: f64,
    tick_count: u64,
    noise_seed: u64,
    /// Ramp factors for one full tick of the platform the state was made
    /// for, rising and falling.
    ramp_up: RampFactor,
    ramp_down: RampFactor,
}

/// The ramp factor `exp(-dt/τ)` for one `(dt, τ)`, kept with the bits of
/// both so a step asks for it again only by the same inputs.
#[derive(Debug, Clone, Copy)]
struct RampFactor {
    dt: f64,
    tau: f64,
    k: f64,
}

impl RampFactor {
    fn new(dt: f64, tau: f64) -> Self {
        RampFactor {
            dt,
            tau,
            k: (-dt / tau).exp(),
        }
    }

    /// `exp(-dt/τ)`: the kept factor when `dt` and `τ` are its inputs to
    /// the bit (a full tick on the state's own platform), computed
    /// otherwise (a step cut short by a completion, or another platform).
    fn at(&self, dt: f64, tau: f64) -> f64 {
        if dt.to_bits() == self.dt.to_bits() && tau.to_bits() == self.tau.to_bits() {
            self.k
        } else {
            (-dt / tau).exp()
        }
    }
}

/// Utilization above which a device counts as "active" for activation
/// tracking.
const ACTIVE_THRESHOLD: f64 = 0.05;

impl PcuState {
    /// Creates PCU state resting at the platform's idle power.
    pub(crate) fn new(platform: &Platform, noise_seed: u64) -> Self {
        let pcu = &platform.pcu;
        PcuState {
            power: platform.power.idle,
            gpu_was_active: false,
            cpu_was_active: false,
            last_gpu_activation: f64::NEG_INFINITY,
            last_gpu_deactivation: f64::NEG_INFINITY,
            tick_count: 0,
            noise_seed,
            ramp_up: RampFactor::new(pcu.tick, rise_tau(pcu)),
            ramp_down: RampFactor::new(pcu.tick, fall_tau(pcu)),
        }
    }

    /// Frequency scales currently granted, given the instantaneous activity.
    ///
    /// Solo device → 1.0 (the calibration reference). Both devices →
    /// the platform's shared scales. During the post-activation dip window
    /// the CPU is additionally throttled by `dip_cpu_scale`. If the
    /// steady-state power target would exceed the TDP, both grants are
    /// scaled down until the budget fits.
    pub(crate) fn freq_grant(&self, platform: &Platform, input: &PcuInput, now: f64) -> FreqGrant {
        let cpu_active = input.cpu_util > ACTIVE_THRESHOLD;
        let gpu_active = input.gpu_util > ACTIVE_THRESHOLD;
        let mut cpu = 1.0;
        let mut gpu = 1.0;
        if cpu_active && gpu_active {
            cpu = platform.sharing.cpu_shared_scale;
            gpu = platform.sharing.gpu_shared_scale;
            if now - self.last_gpu_activation < platform.pcu.dip_window {
                cpu *= platform.pcu.dip_cpu_scale;
            }
        }
        let throttle = Self::tdp_throttle(platform, input);
        FreqGrant {
            cpu: cpu * throttle,
            gpu: gpu * throttle,
        }
    }

    /// Frequency scale (≤ 1) that fits the activity's steady-state power
    /// target inside the TDP; 1 when no cap applies. Dynamic power scales
    /// as f^2.5, so the scale is (tdp/target)^(1/2.5).
    fn tdp_throttle(platform: &Platform, input: &PcuInput) -> f64 {
        let Some(tdp) = platform.pcu.tdp else {
            return 1.0;
        };
        let target = platform.power.target_power(
            input.cpu_util,
            input.gpu_util,
            input.mem_intensity,
            1.0,
            1.0,
        );
        if target <= tdp {
            1.0
        } else {
            // Only the dynamic excess above idle responds to frequency:
            // solve idle + (target − idle)·f^2.5 = tdp for f.
            let idle = platform.power.idle;
            let excess = (target - idle).max(1e-9);
            let budget = (tdp - idle).max(0.0);
            (budget / excess).powf(1.0 / 2.5).clamp(0.05, 1.0)
        }
    }

    /// Advances the PCU by `dt` seconds under `input` activity, returning the
    /// average observable package power over the interval.
    ///
    /// `now` is the simulation time at the *start* of the interval.
    pub(crate) fn step(&mut self, platform: &Platform, input: &PcuInput, now: f64, dt: f64) -> f64 {
        debug_assert!(dt > 0.0, "PCU step requires positive dt");
        let cpu_active = input.cpu_util > ACTIVE_THRESHOLD;
        let gpu_active = input.gpu_util > ACTIVE_THRESHOLD;

        // The conservative budget-reallocation dip only occurs when the GPU
        // activates *into* ongoing CPU execution after a real idle period:
        // the PCU had re-granted the whole budget to the CPU and must claw
        // it back. Devices starting together from idle, or offload chunks
        // separated by sub-millisecond gaps, do not dip.
        if gpu_active && !self.gpu_was_active {
            if self.cpu_was_active && now - self.last_gpu_deactivation > platform.pcu.dip_rearm {
                self.last_gpu_activation = now;
            }
        } else if !gpu_active && self.gpu_was_active {
            self.last_gpu_deactivation = now;
        }
        self.gpu_was_active = gpu_active;
        self.cpu_was_active = cpu_active;

        let grant = self.freq_grant(platform, input, now);
        // The power table is calibrated at solo-turbo (factor 1) and at the
        // shared scales in combined mode, so the *factor* fed to the table is
        // the deviation from the expected scale — only transients (the dip)
        // deviate.
        let expected = if cpu_active && gpu_active {
            (
                platform.sharing.cpu_shared_scale,
                platform.sharing.gpu_shared_scale,
            )
        } else {
            (1.0, 1.0)
        };
        let target = self.target_power(
            &platform.power,
            input,
            grant.cpu / expected.0,
            grant.gpu / expected.1,
        );

        // First-order ramp: integrate the exponential approach analytically
        // over dt so step size does not change the trajectory. Falling power
        // uses the (much faster) down time constant.
        let (tau, k) = if target < self.power {
            let tau = fall_tau(&platform.pcu);
            (tau, self.ramp_down.at(dt, tau))
        } else {
            let tau = rise_tau(&platform.pcu);
            (tau, self.ramp_up.at(dt, tau))
        };
        let end_power = target + (self.power - target) * k;
        // Average of the exponential over [0, dt].
        let avg = target + (self.power - target) * (1.0 - k) * tau / dt;
        self.power = end_power;

        self.tick_count += 1;
        let jitter = noise::jitter(
            noise::combine(self.noise_seed, self.tick_count),
            platform.pcu.measurement_noise,
        );
        avg * jitter
    }

    fn target_power(
        &self,
        table: &PowerTable,
        input: &PcuInput,
        cpu_freq_factor: f64,
        gpu_freq_factor: f64,
    ) -> f64 {
        table.target_power(
            input.cpu_util,
            input.gpu_util,
            input.mem_intensity,
            cpu_freq_factor,
            gpu_freq_factor,
        )
    }
}

/// Time constant of a rising ramp, seconds.
fn rise_tau(pcu: &PcuParams) -> f64 {
    pcu.ramp_tau.max(1e-6)
}

/// Time constant of a falling ramp, seconds.
fn fall_tau(pcu: &PcuParams) -> f64 {
    pcu.ramp_tau_down.max(1e-6)
}

/// [`PcuState::freq_grant`] and [`PcuState::step`] as they stood before the
/// ramp factor was kept per tick and the power table skipped `powf` for a
/// factor of 1, kept as the oracle the simulator's tick is held to.
#[cfg(test)]
pub(crate) mod parent {
    use super::*;
    use crate::power::parent::target_power;

    pub(crate) fn freq_grant(
        pcu: &PcuState,
        platform: &Platform,
        input: &PcuInput,
        now: f64,
    ) -> FreqGrant {
        let cpu_active = input.cpu_util > ACTIVE_THRESHOLD;
        let gpu_active = input.gpu_util > ACTIVE_THRESHOLD;
        let mut cpu = 1.0;
        let mut gpu = 1.0;
        if cpu_active && gpu_active {
            cpu = platform.sharing.cpu_shared_scale;
            gpu = platform.sharing.gpu_shared_scale;
            if now - pcu.last_gpu_activation < platform.pcu.dip_window {
                cpu *= platform.pcu.dip_cpu_scale;
            }
        }
        let throttle = tdp_throttle(platform, input);
        FreqGrant {
            cpu: cpu * throttle,
            gpu: gpu * throttle,
        }
    }

    fn tdp_throttle(platform: &Platform, input: &PcuInput) -> f64 {
        let Some(tdp) = platform.pcu.tdp else {
            return 1.0;
        };
        let target = target_power(
            &platform.power,
            input.cpu_util,
            input.gpu_util,
            input.mem_intensity,
            1.0,
            1.0,
        );
        if target <= tdp {
            1.0
        } else {
            let idle = platform.power.idle;
            let excess = (target - idle).max(1e-9);
            let budget = (tdp - idle).max(0.0);
            (budget / excess).powf(1.0 / 2.5).clamp(0.05, 1.0)
        }
    }

    pub(crate) fn step(
        pcu: &mut PcuState,
        platform: &Platform,
        input: &PcuInput,
        now: f64,
        dt: f64,
    ) -> f64 {
        let cpu_active = input.cpu_util > ACTIVE_THRESHOLD;
        let gpu_active = input.gpu_util > ACTIVE_THRESHOLD;
        if gpu_active && !pcu.gpu_was_active {
            if pcu.cpu_was_active && now - pcu.last_gpu_deactivation > platform.pcu.dip_rearm {
                pcu.last_gpu_activation = now;
            }
        } else if !gpu_active && pcu.gpu_was_active {
            pcu.last_gpu_deactivation = now;
        }
        pcu.gpu_was_active = gpu_active;
        pcu.cpu_was_active = cpu_active;

        let grant = freq_grant(pcu, platform, input, now);
        let expected = if cpu_active && gpu_active {
            (
                platform.sharing.cpu_shared_scale,
                platform.sharing.gpu_shared_scale,
            )
        } else {
            (1.0, 1.0)
        };
        let target = target_power(
            &platform.power,
            input.cpu_util,
            input.gpu_util,
            input.mem_intensity,
            grant.cpu / expected.0,
            grant.gpu / expected.1,
        );
        let tau = if target < pcu.power {
            platform.pcu.ramp_tau_down.max(1e-6)
        } else {
            platform.pcu.ramp_tau.max(1e-6)
        };
        let k = (-dt / tau).exp();
        let end_power = target + (pcu.power - target) * k;
        let avg = target + (pcu.power - target) * (1.0 - k) * tau / dt;
        pcu.power = end_power;

        pcu.tick_count += 1;
        let jitter = noise::jitter(
            noise::combine(pcu.noise_seed, pcu.tick_count),
            platform.pcu.measurement_noise,
        );
        avg * jitter
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet(mut p: Platform) -> Platform {
        p.pcu.measurement_noise = 0.0;
        p
    }

    fn run_steady(platform: &Platform, input: PcuInput, secs: f64) -> f64 {
        let mut pcu = PcuState::new(platform, 1);
        let mut t = 0.0;
        let mut last = 0.0;
        while t < secs {
            last = pcu.step(platform, &input, t, platform.pcu.tick);
            t += platform.pcu.tick;
        }
        last
    }

    #[test]
    fn settles_to_cpu_compute_point() {
        let p = quiet(Platform::haswell_desktop());
        let power = run_steady(
            &p,
            PcuInput {
                cpu_util: 1.0,
                gpu_util: 0.0,
                mem_intensity: 0.0,
            },
            1.0,
        );
        assert!((power - 45.0).abs() < 0.5, "steady CPU compute: {power}");
    }

    #[test]
    fn settles_to_combined_memory_point() {
        let p = quiet(Platform::haswell_desktop());
        let power = run_steady(
            &p,
            PcuInput {
                cpu_util: 1.0,
                gpu_util: 1.0,
                mem_intensity: 1.0,
            },
            1.0,
        );
        assert!(
            (power - 63.0).abs() < 0.5,
            "steady combined memory: {power}"
        );
    }

    #[test]
    fn idle_input_rests_at_idle_power() {
        let p = quiet(Platform::haswell_desktop());
        let power = run_steady(&p, PcuInput::default(), 0.5);
        assert!((power - 5.0).abs() < 0.1, "idle: {power}");
    }

    #[test]
    fn ramp_is_gradual() {
        let p = quiet(Platform::haswell_desktop());
        let mut pcu = PcuState::new(&p, 1);
        let input = PcuInput {
            cpu_util: 1.0,
            gpu_util: 0.0,
            mem_intensity: 0.0,
        };
        let first = pcu.step(&p, &input, 0.0, p.pcu.tick);
        assert!(first > 5.0 && first < 45.0, "mid-ramp power: {first}");
    }

    #[test]
    fn ramp_step_size_invariant() {
        // Integrating the ramp in one 50ms step or ten 5ms steps must land on
        // the same trajectory (analytic exponential integration).
        let p = quiet(Platform::haswell_desktop());
        let input = PcuInput {
            cpu_util: 1.0,
            gpu_util: 0.0,
            mem_intensity: 0.5,
        };
        let mut a = PcuState::new(&p, 1);
        a.step(&p, &input, 0.0, 0.05);
        let mut b = PcuState::new(&p, 1);
        for i in 0..10 {
            b.step(&p, &input, i as f64 * 0.005, 0.005);
        }
        assert!((a.power - b.power).abs() < 1e-9);
    }

    #[test]
    fn gpu_activation_dip_throttles_cpu() {
        let p = quiet(Platform::haswell_desktop());
        let mut pcu = PcuState::new(&p, 1);
        let cpu_only = PcuInput {
            cpu_util: 1.0,
            gpu_util: 0.0,
            mem_intensity: 1.0,
        };
        // Warm up: CPU alone memory-bound at ~60W.
        let mut t = 0.0;
        for _ in 0..200 {
            pcu.step(&p, &cpu_only, t, p.pcu.tick);
            t += p.pcu.tick;
        }
        assert!((pcu.power - 60.0).abs() < 0.5);
        // GPU activates: within the dip window, the grant throttles the CPU.
        let both = PcuInput {
            cpu_util: 1.0,
            gpu_util: 1.0,
            mem_intensity: 1.0,
        };
        pcu.step(&p, &both, t, p.pcu.tick);
        let grant = pcu.freq_grant(&p, &both, t + p.pcu.tick);
        assert!(
            grant.cpu < p.sharing.cpu_shared_scale,
            "dip should throttle cpu: {grant:?}"
        );
        // Power heads downward during the dip.
        let mut min_power = f64::INFINITY;
        for _ in 0..((p.pcu.dip_window / p.pcu.tick) as usize) {
            pcu.step(&p, &both, t, p.pcu.tick);
            t += p.pcu.tick;
            min_power = min_power.min(pcu.power);
        }
        assert!(min_power < 40.0, "Fig 4 dip below 40W, got {min_power}");
        // After the window the grant recovers and power climbs to 63W.
        for _ in 0..400 {
            pcu.step(&p, &both, t, p.pcu.tick);
            t += p.pcu.tick;
        }
        assert!((pcu.power - 63.0).abs() < 0.5, "post-dip: {}", pcu.power);
    }

    #[test]
    fn re_activation_after_idle_dips_again() {
        let p = quiet(Platform::haswell_desktop());
        let mut pcu = PcuState::new(&p, 1);
        let both = PcuInput {
            cpu_util: 1.0,
            gpu_util: 1.0,
            mem_intensity: 0.0,
        };
        let cpu_only = PcuInput {
            cpu_util: 1.0,
            gpu_util: 0.0,
            mem_intensity: 0.0,
        };
        let mut t = 0.0;
        // First activation.
        pcu.step(&p, &both, t, p.pcu.tick);
        t += p.pcu.tick;
        let first_activation = pcu.last_gpu_activation;
        // GPU goes idle, long CPU phase.
        for _ in 0..100 {
            pcu.step(&p, &cpu_only, t, p.pcu.tick);
            t += p.pcu.tick;
        }
        // Second activation re-arms the dip.
        pcu.step(&p, &both, t, p.pcu.tick);
        assert!(pcu.last_gpu_activation > first_activation);
    }

    #[test]
    fn measurement_noise_bounded_and_deterministic() {
        let p = Platform::haswell_desktop(); // noise 1%
        let input = PcuInput {
            cpu_util: 1.0,
            gpu_util: 0.0,
            mem_intensity: 0.0,
        };
        let run = || {
            let mut pcu = PcuState::new(&p, 7);
            let mut t = 0.0;
            let mut out = Vec::new();
            for _ in 0..100 {
                out.push(pcu.step(&p, &input, t, p.pcu.tick));
                t += p.pcu.tick;
            }
            out
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "deterministic noise");
        // Late samples stay within jitter of the steady point.
        for &w in &a[80..] {
            assert!((w - 45.0).abs() < 45.0 * 0.02);
        }
    }

    #[test]
    fn baytrail_combined_memory_settles() {
        let p = quiet(Platform::baytrail_tablet());
        let power = run_steady(
            &p,
            PcuInput {
                cpu_util: 1.0,
                gpu_util: 1.0,
                mem_intensity: 1.0,
            },
            2.0,
        );
        assert!(
            (power - 1.7).abs() < 0.05,
            "baytrail combined memory: {power}"
        );
    }
}

#[cfg(test)]
mod oracle_tests {
    use super::*;
    use proptest::prelude::*;

    fn input() -> impl Strategy<Value = PcuInput> {
        let unit = || prop_oneof![Just(0.0), Just(1.0), 0.0..1.0f64];
        (unit(), unit(), unit()).prop_map(|(cpu_util, gpu_util, mem_intensity)| PcuInput {
            cpu_util,
            gpu_util,
            mem_intensity,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// One state stepped under platforms that share a tick but not a
        /// τ, by full ticks and by shorter steps, grants and steps to the
        /// bit as the parent did.
        #[test]
        fn step_equals_the_parent_to_the_bit(
            seed in any::<u64>(),
            first in 0..4usize,
            steps in prop::collection::vec((0..4usize, input(), 0..3usize, 0.0..1.0f64), 1..120),
        ) {
            let platforms = Platform::oracle_platforms();
            let mut pcu = PcuState::new(&platforms[first], seed);
            let mut oracle = pcu.clone();
            let mut now = 0.0;
            for (which, input, kind, cut) in steps {
                let platform = &platforms[which];
                let tick = platform.pcu.tick;
                let dt = match kind {
                    0 | 1 => tick,
                    _ => (tick * cut).max(1e-9),
                };
                let grant = pcu.freq_grant(platform, &input, now);
                let expected = parent::freq_grant(&oracle, platform, &input, now);
                prop_assert_eq!(grant.cpu.to_bits(), expected.cpu.to_bits());
                prop_assert_eq!(grant.gpu.to_bits(), expected.gpu.to_bits());
                let watts = pcu.step(platform, &input, now, dt);
                let expected = parent::step(&mut oracle, platform, &input, now, dt);
                prop_assert_eq!(watts.to_bits(), expected.to_bits());
                prop_assert_eq!(pcu.power.to_bits(), oracle.power.to_bits());
                now += dt;
            }
        }
    }
}

#[cfg(test)]
mod tdp_tests {
    use super::*;
    use crate::platform::Platform;

    fn capped_platform(tdp: f64) -> Platform {
        let mut p = Platform::haswell_desktop();
        p.pcu.measurement_noise = 0.0;
        p.pcu.tdp = Some(tdp);
        p
    }

    fn steady_power(p: &Platform, input: PcuInput) -> f64 {
        let mut pcu = PcuState::new(p, 1);
        let mut t = 0.0;
        let mut last = 0.0;
        for _ in 0..400 {
            last = pcu.step(p, &input, t, p.pcu.tick);
            t += p.pcu.tick;
        }
        last
    }

    #[test]
    fn default_tdp_never_binds() {
        // The stock desktop TDP (84 W) sits above every operating point, so
        // grants are identical to the uncapped machine.
        let capped = Platform::haswell_desktop();
        let mut uncapped = Platform::haswell_desktop();
        uncapped.pcu.tdp = None;
        let input = PcuInput {
            cpu_util: 1.0,
            gpu_util: 1.0,
            mem_intensity: 1.0,
        };
        let a = PcuState::new(&capped, 1).freq_grant(&capped, &input, 10.0);
        let b = PcuState::new(&uncapped, 1).freq_grant(&uncapped, &input, 10.0);
        assert_eq!(a, b);
    }

    #[test]
    fn low_tdp_caps_package_power() {
        // Cap at 50 W: combined memory-bound (63 W uncapped) must throttle
        // to roughly the budget.
        let p = capped_platform(50.0);
        let input = PcuInput {
            cpu_util: 1.0,
            gpu_util: 1.0,
            mem_intensity: 1.0,
        };
        let power = steady_power(&p, input);
        assert!(power <= 51.0, "capped power {power}");
        assert!(power > 45.0, "throttle should not overshoot far: {power}");
    }

    #[test]
    fn tdp_throttle_reduces_frequency_grants() {
        let p = capped_platform(50.0);
        let input = PcuInput {
            cpu_util: 1.0,
            gpu_util: 1.0,
            mem_intensity: 1.0,
        };
        let grant = PcuState::new(&p, 1).freq_grant(&p, &input, 10.0);
        assert!(grant.cpu < p.sharing.cpu_shared_scale);
        assert!(grant.gpu < p.sharing.gpu_shared_scale);
        // Solo CPU (60 W > 50 W) also throttles.
        let solo = PcuInput {
            cpu_util: 1.0,
            gpu_util: 0.0,
            mem_intensity: 1.0,
        };
        let grant = PcuState::new(&p, 1).freq_grant(&p, &solo, 10.0);
        assert!(grant.cpu < 1.0);
        // Idle never throttles.
        let grant = PcuState::new(&p, 1).freq_grant(&p, &PcuInput::default(), 10.0);
        assert_eq!(grant.cpu, 1.0);
    }

    #[test]
    fn capped_machine_runs_slower_on_compute_kernels() {
        use crate::machine::{Machine, PhasePlan};
        use crate::traits::KernelTraits;
        let k = KernelTraits::builder("hot")
            .cpu_rate(1.0e6)
            .gpu_rate(2.0e6)
            .memory_intensity(0.0)
            .build();
        let run = |tdp: Option<f64>| {
            let mut p = Platform::haswell_desktop();
            p.pcu.measurement_noise = 0.0;
            p.pcu.tdp = tdp;
            let mut m = Machine::new(p);
            m.run_phase(&k, &PhasePlan::split(4_000_000, 0.6)).elapsed
        };
        let free = run(None);
        let capped = run(Some(40.0)); // below the 55 W combined point
        assert!(
            capped > free * 1.1,
            "40 W cap should slow a compute kernel: {capped} vs {free}"
        );
    }
}
