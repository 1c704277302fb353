//! The simulated machine: virtual time, device execution, and the black-box
//! observables (energy register, perf counters, wall clock).
//!
//! [`Machine::run_phase`] is the single execution primitive: it processes a
//! batch of data-parallel iterations split between the CPU and GPU, stepping
//! the PCU tick by tick, integrating package power into the energy counter,
//! and accounting per-item hardware-counter footprints. The heterogeneous
//! runtime composes phases into the paper's execution structure (profiling
//! phase, combined phase, single-device tail).
//!
//! The machine has no fault hook: it always reports what it simulated.
//! Sensor and driver misbehaviour is injected one layer up, on the
//! observations a backend returns (`easched_runtime::chaos`).

use crate::bandwidth::{contended_rates, BwDemand};
use crate::counters::{CounterBank, CounterSnapshot};
use crate::energy::EnergyCounter;
use crate::noise;
use crate::pcu::{PcuInput, PcuState};
use crate::platform::Platform;
use crate::trace::PowerTrace;
use crate::traits::KernelTraits;

/// Remaining-item threshold below which a device side counts as finished.
const EPS_ITEMS: f64 = 1e-9;
/// Smallest simulation step, seconds (guarantees progress).
const MIN_DT: f64 = 1e-9;
/// Hard cap on steps per phase; hitting it indicates a simulator bug.
const MAX_STEPS: u64 = 100_000_000;

/// Work assignment for one execution phase.
///
/// A phase runs until both sides finish their assigned items, or — with
/// [`PhasePlan::stop_when_gpu_done`] — until the GPU side finishes (the
/// online-profiling pattern: CPU workers keep draining the shared pool while
/// the GPU proxy thread waits for the GPU chunk).
#[derive(Debug, Clone, PartialEq)]
pub struct PhasePlan {
    /// Iterations assigned to the CPU workers.
    pub cpu_items: f64,
    /// Iterations offloaded to the GPU.
    pub gpu_items: f64,
    /// CPU utilization while CPU work remains (fraction of cores), in (0, 1].
    pub cpu_util: f64,
    /// Stop the phase as soon as the GPU side finishes.
    pub stop_when_gpu_done: bool,
    /// Invocation seed for irregularity noise; combine with a per-kernel
    /// value for reproducible-but-varying behaviour across invocations.
    pub seed: u64,
}

impl PhasePlan {
    /// A phase executing `n` items with GPU offload ratio `alpha` (α·n on the
    /// GPU, the rest on the CPU).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside [0, 1].
    ///
    /// ```
    /// use easched_sim::PhasePlan;
    /// let p = PhasePlan::split(100, 0.25);
    /// assert_eq!(p.gpu_items, 25.0);
    /// assert_eq!(p.cpu_items, 75.0);
    /// ```
    pub fn split(n: u64, alpha: f64) -> PhasePlan {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0, 1]");
        let gpu = (n as f64 * alpha).round();
        PhasePlan {
            cpu_items: n as f64 - gpu,
            gpu_items: gpu,
            cpu_util: 1.0,
            stop_when_gpu_done: false,
            seed: 0,
        }
    }

    /// A CPU-only phase of `n` items.
    pub fn cpu_only(n: u64) -> PhasePlan {
        PhasePlan {
            cpu_items: n as f64,
            gpu_items: 0.0,
            cpu_util: 1.0,
            stop_when_gpu_done: false,
            seed: 0,
        }
    }

    /// A GPU-only phase of `n` items.
    pub fn gpu_only(n: u64) -> PhasePlan {
        PhasePlan {
            cpu_items: 0.0,
            gpu_items: n as f64,
            cpu_util: 1.0,
            stop_when_gpu_done: false,
            seed: 0,
        }
    }

    /// An online-profiling phase: offload `gpu_chunk` items to the GPU while
    /// the CPU drains up to `cpu_pool` items; the phase ends when the GPU
    /// chunk completes.
    pub fn profile(cpu_pool: u64, gpu_chunk: u64) -> PhasePlan {
        PhasePlan {
            cpu_items: cpu_pool as f64,
            gpu_items: gpu_chunk as f64,
            cpu_util: 1.0,
            stop_when_gpu_done: true,
            seed: 0,
        }
    }

    /// Sets the invocation seed (builder-style).
    pub fn with_seed(mut self, seed: u64) -> PhasePlan {
        self.seed = seed;
        self
    }

    /// Sets the CPU utilization (builder-style).
    ///
    /// # Panics
    ///
    /// Panics if `util` is not in (0, 1].
    pub fn with_cpu_util(mut self, util: f64) -> PhasePlan {
        assert!(util > 0.0 && util <= 1.0, "cpu_util must be in (0, 1]");
        self.cpu_util = util;
        self
    }
}

/// What happened during one phase.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PhaseReport {
    /// Wall-clock (virtual) duration of the phase, seconds.
    pub elapsed: f64,
    /// Iterations completed by the CPU.
    pub cpu_items_done: f64,
    /// Iterations completed by the GPU.
    pub gpu_items_done: f64,
    /// Time during which both devices were executing, seconds.
    pub(crate) combined_time: f64,
    /// Time the CPU spent executing, seconds.
    pub cpu_busy: f64,
    /// Time the GPU spent executing, seconds.
    pub gpu_busy: f64,
    /// Package energy consumed during the phase, joules (internal exact
    /// accounting; the scheduler should use the energy register instead).
    pub energy_joules: f64,
}

impl PhaseReport {
    /// CPU throughput observed during CPU-busy time, items/second.
    ///
    /// Returns 0 if the CPU never ran.
    pub fn cpu_rate(&self) -> f64 {
        if self.cpu_busy > 0.0 {
            self.cpu_items_done / self.cpu_busy
        } else {
            0.0
        }
    }

    /// GPU throughput observed during GPU-busy time, items/second.
    ///
    /// Returns 0 if the GPU never ran.
    pub fn gpu_rate(&self) -> f64 {
        if self.gpu_busy > 0.0 {
            self.gpu_items_done / self.gpu_busy
        } else {
            0.0
        }
    }
}

/// A simulated integrated CPU-GPU machine.
///
/// See the [crate docs](crate) for the modelling rationale. All state
/// (clock, PCU, counters) is owned here; the machine is deterministic given
/// its platform and seed.
#[derive(Debug, Clone)]
pub struct Machine {
    platform: Platform,
    time: f64,
    pcu: PcuState,
    energy: EnergyCounter,
    counters: CounterBank,
    trace: Option<PowerTrace>,
    total_joules: f64,
    seed: u64,
    phase_counter: u64,
}

impl Machine {
    /// Creates a machine on `platform` with the default noise seed.
    pub fn new(platform: Platform) -> Machine {
        Machine::with_seed(platform, 0)
    }

    /// Creates a machine with an explicit noise seed (different seeds give
    /// different — but each fully deterministic — noise histories).
    pub fn with_seed(platform: Platform, seed: u64) -> Machine {
        let pcu = PcuState::new(&platform, noise::combine(seed, 0x9C5));
        Machine {
            platform,
            time: 0.0,
            pcu,
            energy: EnergyCounter::new(),
            counters: CounterBank::default(),
            trace: None,
            total_joules: 0.0,
            seed,
            phase_counter: 0,
        }
    }

    /// The platform this machine simulates.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Current simulation time, seconds.
    pub fn now(&self) -> f64 {
        self.time
    }

    /// Reads the raw 32-bit package energy register (wrapping), as the
    /// paper's runtime reads `MSR_PKG_ENERGY_STATUS`.
    pub fn read_energy_raw(&self) -> u32 {
        self.energy.read_raw()
    }

    /// Exact total package energy since machine creation, joules.
    /// Diagnostic only — schedulers must use the register.
    pub fn total_joules(&self) -> f64 {
        self.total_joules
    }

    /// Snapshot of the CPU hardware counters.
    pub fn counters(&self) -> CounterSnapshot {
        self.counters.snapshot()
    }

    /// Enables power tracing; subsequent steps append samples.
    pub fn enable_trace(&mut self) {
        if self.trace.is_none() {
            self.trace = Some(PowerTrace::new());
        }
    }

    /// Takes the accumulated trace, leaving tracing enabled with an empty
    /// trace. Returns an empty trace if tracing was never enabled.
    pub fn take_trace(&mut self) -> PowerTrace {
        match self.trace.as_mut() {
            Some(t) => std::mem::take(t),
            None => PowerTrace::new(),
        }
    }

    /// Advances the machine `seconds` with both devices idle.
    ///
    /// # Panics
    ///
    /// Panics if `seconds` is negative or non-finite.
    pub fn idle(&mut self, seconds: f64) {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "idle duration must be non-negative"
        );
        let mut remaining = seconds;
        let input = PcuInput::default();
        while remaining > MIN_DT {
            let dt = remaining.min(self.platform.pcu.tick);
            self.advance(&input, dt);
            remaining -= dt;
        }
    }

    /// Executes one phase of `traits` under `plan`. See [`PhasePlan`].
    ///
    /// # Panics
    ///
    /// Panics if the plan contains negative or non-finite item counts.
    pub fn run_phase(&mut self, traits: &KernelTraits, plan: &PhasePlan) -> PhaseReport {
        assert!(
            plan.cpu_items.is_finite() && plan.cpu_items >= 0.0,
            "cpu_items must be non-negative"
        );
        assert!(
            plan.gpu_items.is_finite() && plan.gpu_items >= 0.0,
            "gpu_items must be non-negative"
        );
        self.phase_counter += 1;
        let phase_seed = noise::combine(self.seed, noise::combine(plan.seed, self.phase_counter));
        let sigma_cpu = traits.irregularity() * 0.10;
        let sigma_gpu = traits.irregularity() * 0.22;
        let cpu_noise = noise::rate_factor(noise::combine(phase_seed, 1), sigma_cpu);
        let gpu_noise = noise::rate_factor(noise::combine(phase_seed, 2), sigma_gpu);

        // GPU occupancy: a chunk smaller than the hardware width cannot fill
        // the machine.
        let hw_par = f64::from(self.platform.gpu.hardware_parallelism());
        let occupancy = if plan.gpu_items > 0.0 {
            (plan.gpu_items / hw_par).min(1.0)
        } else {
            1.0
        };

        // Everything the loop reads but the activity, the grant and the
        // remaining items is fixed for the phase.
        let m = traits.memory_intensity();
        let bytes_per_item = traits.bw_bytes_per_item();
        let (instr_per_item, loads_per_item) = (traits.instr_per_item(), traits.loads_per_item());
        let miss_ratio = traits.l3_miss_ratio(self.platform.memory.llc_bytes);
        let cpu_base = traits.cpu_rate() * plan.cpu_util;
        let gpu_base = traits.gpu_rate() * occupancy;
        let peak_bw = self.platform.memory.peak_bw_bytes_per_sec;
        let tick = self.platform.pcu.tick;
        // Frequency affects throughput roofline-style: only the compute
        // fraction of an item's time scales with clock speed; the
        // memory-stall fraction does not. (Power, in contrast, scales
        // with f^2.5 — handled inside the PCU's power model.)
        let freq_tp = |scale: f64| {
            if scale >= 1.0 {
                1.0
            } else {
                1.0 / ((1.0 - m) / scale.max(1e-6) + m)
            }
        };

        let mut cpu_rem = plan.cpu_items;
        let mut gpu_rem = plan.gpu_items;
        let mut report = PhaseReport::default();
        let mut steps: u64 = 0;

        loop {
            let cpu_active = cpu_rem > EPS_ITEMS;
            let gpu_active = gpu_rem > EPS_ITEMS;
            if !cpu_active && !gpu_active {
                break;
            }
            if plan.stop_when_gpu_done && !gpu_active {
                break;
            }
            steps += 1;
            assert!(
                steps < MAX_STEPS,
                "run_phase exceeded step budget (simulator bug)"
            );

            let input = PcuInput {
                cpu_util: if cpu_active { plan.cpu_util } else { 0.0 },
                gpu_util: if gpu_active { 1.0 } else { 0.0 },
                mem_intensity: m,
            };
            let grant = self.pcu.freq_grant(&self.platform, &input, self.time);

            // Uncontended rates at the current frequency grant.
            let cpu_solo = cpu_base * freq_tp(grant.cpu) * cpu_noise;
            let gpu_solo = gpu_base * freq_tp(grant.gpu) * gpu_noise;
            let [rc, rg] = contended_rates(
                peak_bw,
                &[
                    BwDemand {
                        rate: if cpu_active { cpu_solo } else { 0.0 },
                        bytes_per_item,
                        memory_fraction: m,
                    },
                    BwDemand {
                        rate: if gpu_active { gpu_solo } else { 0.0 },
                        bytes_per_item,
                        memory_fraction: m,
                    },
                ],
            );

            // Step until the next completion or PCU tick, whichever first.
            let t_c = if cpu_active && rc > 0.0 {
                cpu_rem / rc
            } else {
                f64::INFINITY
            };
            let t_g = if gpu_active && rg > 0.0 {
                gpu_rem / rg
            } else {
                f64::INFINITY
            };
            let dt = tick.min(t_c).min(t_g).max(MIN_DT);

            let watts = self.advance(&input, dt);
            report.energy_joules += watts * dt;
            report.elapsed += dt;

            if cpu_active {
                let done = (rc * dt).min(cpu_rem);
                cpu_rem -= done;
                report.cpu_items_done += done;
                report.cpu_busy += dt;
                self.counters
                    .record_cpu_items(done, instr_per_item, loads_per_item, miss_ratio);
            }
            if gpu_active {
                let done = (rg * dt).min(gpu_rem);
                gpu_rem -= done;
                report.gpu_items_done += done;
                report.gpu_busy += dt;
            }
            if cpu_active && gpu_active {
                report.combined_time += dt;
            }
        }
        report
    }

    /// Advances time by `dt` under `input`, integrating power into the
    /// energy counter and trace. Returns average watts over the interval.
    fn advance(&mut self, input: &PcuInput, dt: f64) -> f64 {
        let watts = self.pcu.step(&self.platform, input, self.time, dt);
        let joules = watts * dt;
        self.energy.deposit_joules(joules);
        self.total_joules += joules;
        if let Some(trace) = self.trace.as_mut() {
            trace.push(self.time, watts, dt);
        }
        self.time += dt;
        watts
    }
}

/// [`Machine::run_phase`] and [`Machine::idle`] as they stood before the
/// tick skipped exact-identity math and hoisted its per-phase values: the
/// parent's loop over the parent's PCU step, power table and contention
/// model, kept as the oracle the simulator's tick is held to.
#[cfg(test)]
mod parent {
    use super::*;
    use crate::pcu::parent::{freq_grant, step};

    pub(super) fn idle(machine: &mut Machine, seconds: f64) {
        let mut remaining = seconds;
        let input = PcuInput::default();
        while remaining > MIN_DT {
            let dt = remaining.min(machine.platform.pcu.tick);
            advance(machine, &input, dt);
            remaining -= dt;
        }
    }

    pub(super) fn run_phase(
        machine: &mut Machine,
        traits: &KernelTraits,
        plan: &PhasePlan,
    ) -> PhaseReport {
        machine.phase_counter += 1;
        let phase_seed = noise::combine(
            machine.seed,
            noise::combine(plan.seed, machine.phase_counter),
        );
        let sigma_cpu = traits.irregularity() * 0.10;
        let sigma_gpu = traits.irregularity() * 0.22;
        let cpu_noise = noise::rate_factor(noise::combine(phase_seed, 1), sigma_cpu);
        let gpu_noise = noise::rate_factor(noise::combine(phase_seed, 2), sigma_gpu);
        let hw_par = f64::from(machine.platform.gpu.hardware_parallelism());
        let occupancy = if plan.gpu_items > 0.0 {
            (plan.gpu_items / hw_par).min(1.0)
        } else {
            1.0
        };

        let mut cpu_rem = plan.cpu_items;
        let mut gpu_rem = plan.gpu_items;
        let mut report = PhaseReport::default();
        loop {
            let cpu_active = cpu_rem > EPS_ITEMS;
            let gpu_active = gpu_rem > EPS_ITEMS;
            if !cpu_active && !gpu_active {
                break;
            }
            if plan.stop_when_gpu_done && !gpu_active {
                break;
            }
            let input = PcuInput {
                cpu_util: if cpu_active { plan.cpu_util } else { 0.0 },
                gpu_util: if gpu_active { 1.0 } else { 0.0 },
                mem_intensity: traits.memory_intensity(),
            };
            let grant = freq_grant(&machine.pcu, &machine.platform, &input, machine.time);
            let m = traits.memory_intensity();
            let freq_tp = |scale: f64| {
                if scale >= 1.0 {
                    1.0
                } else {
                    1.0 / ((1.0 - m) / scale.max(1e-6) + m)
                }
            };
            let cpu_solo = traits.cpu_rate() * plan.cpu_util * freq_tp(grant.cpu) * cpu_noise;
            let gpu_solo = traits.gpu_rate() * occupancy * freq_tp(grant.gpu) * gpu_noise;
            let demands = [
                BwDemand {
                    rate: if cpu_active { cpu_solo } else { 0.0 },
                    bytes_per_item: traits.bw_bytes_per_item(),
                    memory_fraction: traits.memory_intensity(),
                },
                BwDemand {
                    rate: if gpu_active { gpu_solo } else { 0.0 },
                    bytes_per_item: traits.bw_bytes_per_item(),
                    memory_fraction: traits.memory_intensity(),
                },
            ];
            let rates = crate::bandwidth::parent::contended_rates(
                machine.platform.memory.peak_bw_bytes_per_sec,
                &demands,
            );
            let (rc, rg) = (rates[0], rates[1]);
            let t_c = if cpu_active && rc > 0.0 {
                cpu_rem / rc
            } else {
                f64::INFINITY
            };
            let t_g = if gpu_active && rg > 0.0 {
                gpu_rem / rg
            } else {
                f64::INFINITY
            };
            let dt = machine.platform.pcu.tick.min(t_c).min(t_g).max(MIN_DT);

            let watts = advance(machine, &input, dt);
            report.energy_joules += watts * dt;
            report.elapsed += dt;
            if cpu_active {
                let done = (rc * dt).min(cpu_rem);
                cpu_rem -= done;
                report.cpu_items_done += done;
                report.cpu_busy += dt;
                machine.counters.record_cpu_items(
                    done,
                    traits.instr_per_item(),
                    traits.loads_per_item(),
                    traits.l3_miss_ratio(machine.platform.memory.llc_bytes),
                );
            }
            if gpu_active {
                let done = (rg * dt).min(gpu_rem);
                gpu_rem -= done;
                report.gpu_items_done += done;
                report.gpu_busy += dt;
            }
            if cpu_active && gpu_active {
                report.combined_time += dt;
            }
        }
        report
    }

    fn advance(machine: &mut Machine, input: &PcuInput, dt: f64) -> f64 {
        let watts = step(&mut machine.pcu, &machine.platform, input, machine.time, dt);
        let joules = watts * dt;
        machine.energy.deposit_joules(joules);
        machine.total_joules += joules;
        if let Some(trace) = machine.trace.as_mut() {
            trace.push(machine.time, watts, dt);
        }
        machine.time += dt;
        watts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy::ENERGY_UNIT_JOULES;
    use crate::traits::AccessPattern;

    fn quiet_haswell() -> Platform {
        let mut p = Platform::haswell_desktop();
        p.pcu.measurement_noise = 0.0;
        p
    }

    fn compute_kernel() -> KernelTraits {
        KernelTraits::builder("compute")
            .cpu_rate(1.0e6)
            .gpu_rate(2.0e6)
            .memory_intensity(0.0)
            .build()
    }

    fn memory_kernel() -> KernelTraits {
        KernelTraits::builder("memory")
            .cpu_rate(1.0e6)
            .gpu_rate(2.0e6)
            .memory_intensity(1.0)
            .access(AccessPattern::Random)
            .working_set_bytes(1 << 30)
            .bw_bytes_per_item(64.0)
            .build()
    }

    #[test]
    fn cpu_only_phase_takes_expected_time() {
        let mut m = Machine::new(quiet_haswell());
        let k = compute_kernel();
        let r = m.run_phase(&k, &PhasePlan::cpu_only(1_000_000));
        // 1e6 items at 1e6 items/s solo.
        assert!((r.elapsed - 1.0).abs() < 0.01, "elapsed {}", r.elapsed);
        assert!((r.cpu_items_done - 1.0e6).abs() < 1.0);
        assert_eq!(r.gpu_items_done, 0.0);
        assert_eq!(r.combined_time, 0.0);
    }

    #[test]
    fn gpu_only_phase_faster_when_gpu_faster() {
        let mut m = Machine::new(quiet_haswell());
        let k = compute_kernel();
        let r = m.run_phase(&k, &PhasePlan::gpu_only(1_000_000));
        assert!((r.elapsed - 0.5).abs() < 0.01, "elapsed {}", r.elapsed);
    }

    #[test]
    fn split_phase_has_combined_then_tail() {
        let mut m = Machine::new(quiet_haswell());
        let k = compute_kernel();
        // α=0.5: GPU (2e6/s derated) finishes its half before CPU (1e6/s).
        let r = m.run_phase(&k, &PhasePlan::split(1_000_000, 0.5));
        assert!(r.combined_time > 0.0);
        assert!(r.cpu_busy > r.gpu_busy);
        assert!((r.cpu_items_done + r.gpu_items_done - 1.0e6).abs() < 1.0);
    }

    #[test]
    fn combined_mode_derates_throughput() {
        let k = compute_kernel();
        let mut m = Machine::new(quiet_haswell());
        let solo = m.run_phase(&k, &PhasePlan::cpu_only(500_000)).cpu_rate();
        // A long combined run: CPU rate while GPU busy is derated by the
        // shared frequency scale.
        let mut m = Machine::new(quiet_haswell());
        let both = m.run_phase(&k, &PhasePlan::split(4_000_000, 0.5));
        let combined_cpu_rate = both.cpu_rate();
        assert!(
            combined_cpu_rate < solo,
            "combined {combined_cpu_rate} !< solo {solo}"
        );
    }

    #[test]
    fn memory_kernel_contended_in_combined_mode() {
        // Rates sized so the two devices together oversubscribe the bus.
        let k = KernelTraits::builder("hot")
            .cpu_rate(2.0e8)
            .gpu_rate(3.0e8)
            .memory_intensity(1.0)
            .bw_bytes_per_item(64.0)
            .build();
        let mut m = Machine::new(quiet_haswell());
        let solo_gpu = m.run_phase(&k, &PhasePlan::gpu_only(30_000_000)).gpu_rate();
        let mut m = Machine::new(quiet_haswell());
        let both = m.run_phase(&k, &PhasePlan::split(60_000_000, 0.5));
        assert!(
            both.gpu_rate() < solo_gpu * 0.95,
            "bus contention should derate GPU: {} vs {}",
            both.gpu_rate(),
            solo_gpu
        );
    }

    #[test]
    fn profiling_phase_stops_when_gpu_done() {
        let mut m = Machine::new(quiet_haswell());
        let k = compute_kernel();
        let plan = PhasePlan::profile(10_000_000, 2240);
        let r = m.run_phase(&k, &plan);
        assert!((r.gpu_items_done - 2240.0).abs() < 1.0);
        assert!(r.cpu_items_done < 10_000_000.0, "CPU pool not drained");
        assert!(r.cpu_items_done > 0.0, "CPU made progress");
    }

    #[test]
    fn small_gpu_chunks_lose_occupancy() {
        let k = compute_kernel();
        let mut m = Machine::new(quiet_haswell());
        let full = m.run_phase(&k, &PhasePlan::gpu_only(22_400)).gpu_rate();
        let mut m = Machine::new(quiet_haswell());
        let tiny = m.run_phase(&k, &PhasePlan::gpu_only(224)).gpu_rate();
        assert!(
            tiny < full * 0.2,
            "10% occupancy should cut rate ~10x: tiny {tiny} full {full}"
        );
    }

    #[test]
    fn energy_register_matches_internal_joules() {
        let mut m = Machine::new(quiet_haswell());
        let k = memory_kernel();
        let before = m.read_energy_raw();
        m.run_phase(&k, &PhasePlan::split(2_000_000, 0.5));
        let after = m.read_energy_raw();
        let register = EnergyCounter::delta_joules(before, after);
        assert!(
            (register - m.total_joules()).abs() < 2.0 * ENERGY_UNIT_JOULES + 1e-6,
            "register {register} vs exact {}",
            m.total_joules()
        );
        assert!(register > 0.0);
    }

    #[test]
    fn counters_accumulate_cpu_side_only() {
        let mut m = Machine::new(quiet_haswell());
        let k = memory_kernel();
        let r = m.run_phase(&k, &PhasePlan::split(1_000_000, 0.9));
        let c = m.counters();
        let expected_instr = r.cpu_items_done * k.instr_per_item();
        assert!((c.instructions - expected_instr).abs() / expected_instr < 1e-9);
        // Memory kernel with 1 GiB random working set: high miss ratio.
        assert!(c.miss_per_load() > 0.33);
    }

    #[test]
    fn compute_kernel_classifies_compute_bound() {
        let mut m = Machine::new(quiet_haswell());
        let k = compute_kernel();
        m.run_phase(&k, &PhasePlan::cpu_only(100_000));
        assert!(m.counters().miss_per_load() < 0.33);
    }

    #[test]
    fn idle_costs_idle_power() {
        let mut m = Machine::new(quiet_haswell());
        m.idle(2.0);
        assert!((m.now() - 2.0).abs() < 1e-9);
        assert!(
            (m.total_joules() - 10.0).abs() < 0.2,
            "{}",
            m.total_joules()
        );
    }

    #[test]
    fn trace_records_phases() {
        let mut m = Machine::new(quiet_haswell());
        m.enable_trace();
        let k = memory_kernel();
        m.run_phase(&k, &PhasePlan::cpu_only(2_000_000));
        let trace = m.take_trace();
        assert!(!trace.points().is_empty());
        // Steady memory-bound CPU power ≈ 60 W late in the run.
        let late = &trace.points()[trace.points().len() - 1];
        assert!((late.watts - 60.0).abs() < 1.0, "late watts {}", late.watts);
        // take_trace resets but keeps tracing on.
        m.run_phase(&k, &PhasePlan::cpu_only(10_000));
        assert!(!m.take_trace().points().is_empty());
    }

    #[test]
    fn determinism_same_seed() {
        let run = || {
            let mut m = Machine::with_seed(Platform::haswell_desktop(), 42);
            let k = KernelTraits::builder("irr")
                .cpu_rate(1.0e6)
                .gpu_rate(2.0e6)
                .irregularity(0.5)
                .build();
            let r = m.run_phase(&k, &PhasePlan::split(1_000_000, 0.5));
            (r.elapsed, r.cpu_items_done, m.total_joules())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_phases_draw_different_irregular_noise() {
        let mut m = Machine::new(quiet_haswell());
        let k = KernelTraits::builder("irr")
            .cpu_rate(1.0e6)
            .gpu_rate(2.0e6)
            .irregularity(0.8)
            .build();
        let r1 = m.run_phase(&k, &PhasePlan::cpu_only(500_000));
        let r2 = m.run_phase(&k, &PhasePlan::cpu_only(500_000));
        assert!(
            (r1.elapsed - r2.elapsed).abs() > 1e-6,
            "irregular kernels should vary across invocations"
        );
    }

    #[test]
    fn regular_kernel_phases_identical_after_warmup() {
        let mut m = Machine::new(quiet_haswell());
        let k = compute_kernel();
        m.run_phase(&k, &PhasePlan::cpu_only(5_000_000)); // warm PCU
        let r1 = m.run_phase(&k, &PhasePlan::cpu_only(1_000_000));
        let r2 = m.run_phase(&k, &PhasePlan::cpu_only(1_000_000));
        assert!((r1.elapsed - r2.elapsed).abs() < 1e-6);
    }

    #[test]
    fn empty_plan_is_noop() {
        let mut m = Machine::new(quiet_haswell());
        let k = compute_kernel();
        let t0 = m.now();
        let r = m.run_phase(
            &k,
            &PhasePlan {
                cpu_items: 0.0,
                gpu_items: 0.0,
                cpu_util: 1.0,
                stop_when_gpu_done: false,
                seed: 0,
            },
        );
        assert_eq!(r.elapsed, 0.0);
        assert_eq!(m.now(), t0);
    }

    #[test]
    #[should_panic(expected = "cpu_items must be non-negative")]
    fn negative_items_rejected() {
        let mut m = Machine::new(quiet_haswell());
        let k = compute_kernel();
        m.run_phase(
            &k,
            &PhasePlan {
                cpu_items: -1.0,
                gpu_items: 0.0,
                cpu_util: 1.0,
                stop_when_gpu_done: false,
                seed: 0,
            },
        );
    }

    #[test]
    #[should_panic(expected = "alpha must be in [0, 1]")]
    fn split_rejects_bad_alpha() {
        PhasePlan::split(100, 1.5);
    }

    #[test]
    fn phase_report_rates() {
        let r = PhaseReport {
            elapsed: 2.0,
            cpu_items_done: 100.0,
            gpu_items_done: 400.0,
            combined_time: 1.0,
            cpu_busy: 2.0,
            gpu_busy: 1.0,
            energy_joules: 50.0,
        };
        assert_eq!(r.cpu_rate(), 50.0);
        assert_eq!(r.gpu_rate(), 400.0);
        assert_eq!(PhaseReport::default().cpu_rate(), 0.0);
    }

    mod oracle {
        use super::super::parent;
        use super::*;
        use proptest::prelude::*;

        fn unit() -> impl Strategy<Value = f64> {
            prop_oneof![Just(0.0), Just(1.0), 0.0..1.0f64]
        }

        /// Kernels at memory intensities 0, 1 and between, under every
        /// access pattern, with working sets on both sides of (and at)
        /// each preset's LLC and bus demand up to twice the desktop's.
        /// Rates are log-uniform over three decades.
        fn traits() -> impl Strategy<Value = KernelTraits> {
            (
                (5.0..8.0f64, 5.0..8.0f64),
                unit(),
                prop_oneof![
                    Just(AccessPattern::Streaming),
                    Just(AccessPattern::Strided),
                    Just(AccessPattern::Random),
                    Just(AccessPattern::PointerChase),
                ],
                prop_oneof![
                    Just(2u64 << 20),
                    Just(6u64 << 20),
                    Just(8u64 << 20),
                    (12u32..34).prop_map(|shift| 1u64 << shift),
                ],
                prop_oneof![Just(0.0), 0.0..1.0f64],
                0.0..2.0f64,
            )
                .prop_map(|((cpu, gpu), mem, access, ws, irr, bus)| {
                    let (cpu, gpu) = (10f64.powf(cpu), 10f64.powf(gpu));
                    KernelTraits::builder("oracle")
                        .cpu_rate(cpu)
                        .gpu_rate(gpu)
                        .memory_intensity(mem)
                        .access(access)
                        .working_set_bytes(ws)
                        .irregularity(irr)
                        .bw_bytes_per_item(bus * 25.6e9 / (cpu + gpu))
                        .build()
                })
        }

        /// A phase to size against a kernel: its kind (split, CPU-only,
        /// GPU-only, profiling), log10 of its solo-CPU seconds (0.1 ms to
        /// 3 s), α in tenths, the profiling chunk (below the GPU's width
        /// included), the CPU utilization (below the PCU's activity
        /// threshold included) and the seed.
        type PhaseDraw = (usize, f64, usize, u64, f64, u64);

        fn phase() -> impl Strategy<Value = PhaseDraw> {
            (
                0..4usize,
                -4.0..0.5f64,
                0..11usize,
                1u64..5_000,
                prop_oneof![Just(1.0), 0.01..1.0f64],
                any::<u64>(),
            )
        }

        fn plan_for(traits: &KernelTraits, draw: PhaseDraw) -> PhasePlan {
            let (kind, log_secs, tenths, chunk, util, seed) = draw;
            let n = ((traits.cpu_rate() * 10f64.powf(log_secs)) as u64).max(1);
            let plan = match kind {
                0 => PhasePlan::split(n, tenths as f64 / 10.0),
                1 => PhasePlan::cpu_only(n),
                2 => PhasePlan::gpu_only(n),
                _ => PhasePlan::profile(n, chunk),
            };
            plan.with_cpu_util(util).with_seed(seed)
        }

        fn report_bits(r: &PhaseReport) -> [u64; 7] {
            [
                r.elapsed,
                r.cpu_items_done,
                r.gpu_items_done,
                r.combined_time,
                r.cpu_busy,
                r.gpu_busy,
                r.energy_joules,
            ]
            .map(f64::to_bits)
        }

        fn machine_bits(m: &Machine) -> (u64, u32, u64, [u64; 3]) {
            let c = m.counters();
            (
                m.now().to_bits(),
                m.read_energy_raw(),
                m.total_joules().to_bits(),
                [c.instructions, c.loads, c.l3_misses].map(f64::to_bits),
            )
        }

        fn trace_bits(m: &mut Machine) -> Vec<[u64; 3]> {
            let trace = m.take_trace();
            trace
                .points()
                .iter()
                .map(|p| [p.time, p.watts, p.duration].map(f64::to_bits))
                .collect()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Every phase report, clock, energy register, exact joule
            /// total, counter and trace point equals the parent's to the
            /// bit, over phase sequences on every preset and a throttled
            /// Haswell, with idle gaps (short final steps) between phases
            /// and, when `dip` is set, a CPU-only phase then a split first,
            /// which arms the activation dip.
            #[test]
            fn phases_equal_the_parent_to_the_bit(
                preset in 0..4usize,
                seed in any::<u64>(),
                traits in traits(),
                dip in 0..2usize,
                phases in prop::collection::vec((phase(), prop_oneof![Just(0.0), 0.0..0.05f64]), 1..5),
                traced in 0..2usize,
            ) {
                let platform = Platform::oracle_platforms()[preset].clone();
                let mut fast = Machine::with_seed(platform, seed);
                if traced == 1 {
                    fast.enable_trace();
                }
                let mut oracle = fast.clone();
                let mut plans = Vec::new();
                if dip == 1 {
                    let n = traits.cpu_rate() as u64;
                    plans.push((PhasePlan::cpu_only(n / 5), 0.0));
                    plans.push((PhasePlan::split(n / 2, 0.5), 0.0));
                }
                plans.extend(phases.into_iter().map(|(draw, gap)| (plan_for(&traits, draw), gap)));
                for (plan, gap) in &plans {
                    let r = fast.run_phase(&traits, plan);
                    let expected = parent::run_phase(&mut oracle, &traits, plan);
                    prop_assert_eq!(report_bits(&r), report_bits(&expected), "{:?}", plan);
                    prop_assert_eq!(machine_bits(&fast), machine_bits(&oracle));
                    fast.idle(*gap);
                    parent::idle(&mut oracle, *gap);
                    prop_assert_eq!(machine_bits(&fast), machine_bits(&oracle));
                }
                prop_assert_eq!(trace_bits(&mut fast), trace_bits(&mut oracle));
            }
        }
    }
}
