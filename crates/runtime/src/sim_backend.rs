//! Executing invocations on the simulated machine.
//!
//! [`SimBackend`] wraps one kernel invocation on a
//! [`easched_sim::Machine`]: profiling steps and split runs become
//! machine phases, observations are read back through the energy register
//! and counters (the black-box interface), and item indices are optionally
//! executed *functionally* — one range per device per phase — so workload
//! outputs remain verifiable.
//!
//! [`SchedulerInvoker`] adapts a [`Scheduler`] to the
//! [`easched_kernels::Invoker`] interface so a workload can be
//! driven end to end; [`replay_trace`] re-runs a recorded invocation trace
//! without functional execution (the evaluation fast path). Both run the
//! invoker's one metering body; a fault-injected run is either of them
//! under [`ChaosInjector::around`](crate::ChaosInjector::around).

use crate::backend::Backend;
use crate::observation::{Observation, RunMetrics};
use crate::scheduler::{KernelId, Scheduler};
use easched_kernels::{InvocationTrace, Invoker};
use easched_sim::{EnergyCounter, KernelTraits, Machine, PhasePlan};
use std::ops::Range;

/// One invocation's execution surface over the simulated machine.
pub struct SimBackend<'a> {
    machine: &'a mut Machine,
    traits: &'a KernelTraits,
    process: Option<&'a (dyn Fn(Range<usize>) + Sync)>,
    /// Next unprocessed item at the low end (CPU side consumes from here).
    low: u64,
    /// One past the last unprocessed item (GPU chunks come off this end).
    high: u64,
    invocation_seed: u64,
}

impl std::fmt::Debug for SimBackend<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimBackend")
            .field("low", &self.low)
            .field("high", &self.high)
            .field("traits", &self.traits)
            .finish_non_exhaustive()
    }
}

impl<'a> SimBackend<'a> {
    /// Creates a backend for an invocation of `n` items of the kernel
    /// described by `traits`. If `process` is given, every executed range
    /// of item indices is also run functionally.
    pub fn new(
        machine: &'a mut Machine,
        traits: &'a KernelTraits,
        n: u64,
        process: Option<&'a (dyn Fn(Range<usize>) + Sync)>,
        invocation_seed: u64,
    ) -> SimBackend<'a> {
        SimBackend {
            machine,
            traits,
            process,
            low: 0,
            high: n,
            invocation_seed,
        }
    }

    fn observe<F: FnOnce(&mut Machine) -> easched_sim::PhaseReport>(
        &mut self,
        f: F,
    ) -> (easched_sim::PhaseReport, Observation) {
        let e0 = self.machine.read_energy_raw();
        let c0 = self.machine.counters();
        let report = f(self.machine);
        let e1 = self.machine.read_energy_raw();
        let c1 = self.machine.counters();
        let obs = Observation {
            elapsed: report.elapsed,
            cpu_items: report.cpu_items_done.round() as u64,
            gpu_items: report.gpu_items_done.round() as u64,
            cpu_time: report.cpu_busy,
            gpu_time: report.gpu_busy,
            energy_joules: EnergyCounter::delta_joules(e0, e1),
            counters: c1.delta(&c0),
        };
        (report, obs)
    }

    /// Functionally executes `count` items off the low end.
    fn exec_low(&mut self, count: u64) {
        if let Some(f) = self.process {
            f(self.low as usize..(self.low + count) as usize);
        }
        self.low += count;
    }

    /// Functionally executes `count` items off the high end.
    fn exec_high(&mut self, count: u64) {
        if let Some(f) = self.process {
            f((self.high - count) as usize..self.high as usize);
        }
        self.high -= count;
    }
}

impl Backend for SimBackend<'_> {
    fn remaining(&self) -> u64 {
        self.high - self.low
    }

    fn gpu_profile_size(&self) -> u64 {
        self.machine.platform().gpu_profile_size()
    }

    fn profile_step(&mut self, gpu_chunk: u64) -> Observation {
        let rem = self.remaining();
        let chunk = gpu_chunk.min(rem);
        let pool = rem - chunk;
        let plan = PhasePlan::profile(pool, chunk).with_seed(self.invocation_seed);
        let traits = self.traits;
        let (report, obs) = self.observe(|m| m.run_phase(traits, &plan));
        // The GPU finished its whole chunk; the CPU drained what it could.
        let cpu_done = (report.cpu_items_done.round() as u64).min(pool);
        self.exec_high(chunk);
        self.exec_low(cpu_done);
        Observation {
            cpu_items: cpu_done,
            gpu_items: chunk,
            ..obs
        }
    }

    fn run_split(&mut self, alpha: f64) -> Observation {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0, 1]");
        let rem = self.remaining();
        if rem == 0 {
            return Observation::default();
        }
        let gpu = (rem as f64 * alpha).round() as u64;
        let cpu = rem - gpu;
        let plan = PhasePlan {
            cpu_items: cpu as f64,
            gpu_items: gpu as f64,
            cpu_util: 1.0,
            stop_when_gpu_done: false,
            seed: self.invocation_seed,
        };
        let traits = self.traits;
        let (_report, obs) = self.observe(|m| m.run_phase(traits, &plan));
        self.exec_high(gpu);
        self.exec_low(cpu);
        Observation {
            cpu_items: cpu,
            gpu_items: gpu,
            ..obs
        }
    }
}

/// Adapts a [`Scheduler`] into an [`Invoker`] so a workload can be driven
/// against the simulated machine with functional execution.
#[derive(Debug)]
pub(crate) struct SchedulerInvoker<'a, S: Scheduler> {
    machine: &'a mut Machine,
    traits: &'a KernelTraits,
    scheduler: &'a mut S,
    kernel: KernelId,
    invocation_index: u64,
    metrics: RunMetrics,
}

impl<'a, S: Scheduler> SchedulerInvoker<'a, S> {
    /// Creates the adapter for one kernel.
    pub(crate) fn new(
        machine: &'a mut Machine,
        traits: &'a KernelTraits,
        scheduler: &'a mut S,
        kernel: KernelId,
    ) -> Self {
        SchedulerInvoker {
            machine,
            traits,
            scheduler,
            kernel,
            invocation_index: 0,
            metrics: RunMetrics::default(),
        }
    }

    /// Totals accumulated so far.
    pub(crate) fn metrics(&self) -> RunMetrics {
        self.metrics
    }

    /// Schedules one invocation of `n` items and meters it: virtual time
    /// and package energy across the call, plus the item count, land in
    /// the run totals. Every driver's per-invocation body.
    fn invoke_metered(&mut self, n: u64, process: Option<&(dyn Fn(Range<usize>) + Sync)>) {
        self.invocation_index += 1;
        let t0 = self.machine.now();
        let e0 = self.machine.read_energy_raw();
        {
            let mut backend =
                SimBackend::new(self.machine, self.traits, n, process, self.invocation_index);
            self.scheduler.schedule(self.kernel, &mut backend);
            assert_eq!(
                backend.remaining(),
                0,
                "scheduler {} left items unconsumed",
                self.scheduler.name()
            );
        }
        self.metrics.time += self.machine.now() - t0;
        self.metrics.energy_joules +=
            EnergyCounter::delta_joules(e0, self.machine.read_energy_raw());
        self.metrics.invocations += 1;
        self.metrics.items += n;
    }
}

impl<S: Scheduler> Invoker for SchedulerInvoker<'_, S> {
    fn invoke(&mut self, n: u64, process: &(dyn Fn(Range<usize>) + Sync)) {
        self.invoke_metered(n, Some(process));
    }
}

/// Runs a full workload on the machine under `scheduler`, with functional
/// execution and verification.
///
/// Returns the run totals and the workload's verification outcome.
///
/// # Examples
///
/// ```
/// use easched_kernels::suite;
/// use easched_runtime::FixedAlpha;
/// use easched_runtime::run_workload;
/// use easched_sim::{Machine, Platform};
///
/// let mut machine = Machine::new(Platform::haswell_desktop());
/// let w = suite::blackscholes_small();
/// let (metrics, v) = run_workload(&mut machine, w.as_ref(), &mut FixedAlpha::new(0.5));
/// assert!(v.is_passed());
/// assert!(metrics.time > 0.0 && metrics.energy_joules > 0.0);
/// ```
pub fn run_workload<S: Scheduler>(
    machine: &mut Machine,
    workload: &dyn easched_kernels::Workload,
    scheduler: &mut S,
) -> (RunMetrics, easched_kernels::Verification) {
    let traits = workload.traits_for(machine.platform());
    let mut invoker = SchedulerInvoker::new(machine, &traits, scheduler, kernel_id_of(workload));
    let verification = workload.drive(&mut invoker);
    (invoker.metrics(), verification)
}

/// Replays a recorded invocation trace under `scheduler` without functional
/// execution — the evaluation fast path (see
/// [`record_trace`](easched_kernels::record_trace)).
pub fn replay_trace<S: Scheduler>(
    machine: &mut Machine,
    traits: &KernelTraits,
    kernel: KernelId,
    trace: &InvocationTrace,
    scheduler: &mut S,
) -> RunMetrics {
    let mut invoker = SchedulerInvoker::new(machine, traits, scheduler, kernel);
    for &n in &trace.sizes {
        invoker.invoke_metered(n, None);
    }
    invoker.metrics()
}

/// Stable kernel id for a workload (hash of its abbreviation — the analogue
/// of the paper's function-pointer key). Public so callers can look up the
/// table entry a workload's kernel learned into.
pub fn kernel_id_of(workload: &dyn easched_kernels::Workload) -> KernelId {
    crate::sealed::fnv1a64(workload.spec().abbrev.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::FixedAlpha;
    use easched_kernels::{record_trace, suite};
    use easched_sim::{KernelTraits, Platform};

    fn quiet_machine() -> Machine {
        let mut p = Platform::haswell_desktop();
        p.pcu.measurement_noise = 0.0;
        Machine::new(p)
    }

    fn test_traits() -> KernelTraits {
        KernelTraits::builder("t")
            .cpu_rate(1.0e6)
            .gpu_rate(2.0e6)
            .build()
    }

    #[test]
    fn backend_tracks_remaining() {
        let mut m = quiet_machine();
        let t = test_traits();
        let mut b = SimBackend::new(&mut m, &t, 100_000, None, 1);
        assert_eq!(b.remaining(), 100_000);
        let obs = b.profile_step(2240);
        assert_eq!(obs.gpu_items, 2240);
        assert_eq!(b.remaining(), 100_000 - 2240 - obs.cpu_items);
        b.run_split(0.5);
        assert_eq!(b.remaining(), 0);
    }

    #[test]
    fn profile_observation_rates_in_combined_mode() {
        let mut m = quiet_machine();
        let t = test_traits();
        let mut b = SimBackend::new(&mut m, &t, 1_000_000, None, 1);
        let obs = b.profile_step(22_400);
        // Combined-mode CPU rate is below the solo rate (shared frequency).
        assert!(obs.cpu_rate() > 0.0 && obs.cpu_rate() < 1.0e6);
        assert!(obs.gpu_rate() > 0.0);
        assert!(obs.energy_joules > 0.0);
    }

    #[test]
    fn functional_execution_covers_every_index_exactly_once() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let mut m = quiet_machine();
        let t = test_traits();
        let hits: Vec<AtomicU32> = (0..50_000).map(|_| AtomicU32::new(0)).collect();
        let f = |items: Range<usize>| {
            for i in items {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        };
        let mut b = SimBackend::new(&mut m, &t, 50_000, Some(&f), 1);
        b.profile_step(2240);
        b.profile_step(2240);
        b.run_split(0.35);
        assert_eq!(b.remaining(), 0);
        let _ = b;
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
        }
    }

    #[test]
    fn run_workload_verifies_under_any_alpha() {
        for alpha in [0.0, 0.4, 1.0] {
            let mut m = quiet_machine();
            let w = suite::blackscholes_small();
            let (metrics, v) = run_workload(&mut m, w.as_ref(), &mut FixedAlpha::new(alpha));
            assert!(v.is_passed(), "alpha {alpha}");
            assert!(metrics.time > 0.0);
            assert_eq!(metrics.invocations, 4);
        }
    }

    #[test]
    fn replay_matches_run_totals() {
        // Replaying the trace produces the same virtual time/energy as the
        // functional run under the same scheduler (execution structure is
        // identical; functional work is timing-free).
        let w = suite::mandelbrot_small();
        let (trace, _) = record_trace(w.as_ref());

        let mut m1 = quiet_machine();
        let (run, _) = run_workload(&mut m1, w.as_ref(), &mut FixedAlpha::new(0.6));

        let mut m2 = quiet_machine();
        let traits = w.traits_for(m2.platform());
        let rep = replay_trace(&mut m2, &traits, 42, &trace, &mut FixedAlpha::new(0.6));

        assert_eq!(run.invocations, rep.invocations);
        assert_eq!(run.items, rep.items);
        assert!(
            (run.time - rep.time).abs() < 1e-9,
            "{} vs {}",
            run.time,
            rep.time
        );
        assert!((run.energy_joules - rep.energy_joules).abs() < 1e-3);
    }

    #[test]
    fn gpu_only_split_runs_everything_on_gpu() {
        let mut m = quiet_machine();
        let t = test_traits();
        let mut b = SimBackend::new(&mut m, &t, 10_000, None, 1);
        let obs = b.run_split(1.0);
        assert_eq!(obs.gpu_items, 10_000);
        assert_eq!(obs.cpu_items, 0);
        assert_eq!(obs.cpu_time, 0.0);
    }

    #[test]
    #[should_panic(expected = "left items unconsumed")]
    fn lazy_scheduler_detected() {
        struct Lazy;
        impl Scheduler for Lazy {
            fn name(&self) -> &str {
                "lazy"
            }
            fn schedule(&mut self, _k: KernelId, _b: &mut dyn Backend) {}
        }
        let mut m = quiet_machine();
        let w = suite::blackscholes_small();
        run_workload(&mut m, w.as_ref(), &mut Lazy);
    }

    #[test]
    fn kernel_ids_stable_and_distinct() {
        let a = kernel_id_of(suite::blackscholes_small().as_ref());
        let b = kernel_id_of(suite::blackscholes_small().as_ref());
        let c = kernel_id_of(suite::mandelbrot_small().as_ref());
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
