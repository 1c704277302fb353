//! Real-thread execution backend: work-stealing CPU workers plus a pacing
//! GPU-proxy thread.
//!
//! This is the paper's §4 runtime structure in wall-clock form: the GPU
//! proxy thread "runs on a CPU core and controls the GPU's operation" —
//! here it *emulates* the integrated GPU by executing the kernel
//! functionally while pacing itself to a configured device throughput (we
//! have no OpenCL device; see DESIGN.md §2). During a profiling round CPU
//! workers drain a shared atomic counter exactly as in the paper's
//! `OnlineProfile`, stopping when the proxy's chunk completes; a split's
//! CPU share runs to completion on the work-stealing pool
//! ([`parallel_for`]).
//!
//! Every timer and pacing sleep reads the host's wall clock
//! ([`WallClock`]): this backend is the wall-clock path.
//!
//! Energy for wall-clock runs is estimated from the platform's calibrated
//! power table (steady-state operating points × phase durations): the
//! demo path trades the PCU transient model for real parallel execution.

use crate::backend::Backend;
use crate::clock::{Clock, WallClock};
use crate::observation::Observation;
use easched_kernels::{parallel_for, PoolReport};
use easched_sim::{KernelTraits, Platform};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Configuration for a [`ThreadBackend`].
#[derive(Debug, Clone)]
pub struct ThreadBackendConfig {
    /// Number of CPU worker threads.
    pub(crate) cpu_workers: usize,
    /// Emulated GPU throughput in items/second (wall clock).
    pub(crate) gpu_rate: f64,
    /// Pacing granularity of the proxy thread, items.
    pub(crate) pacing_batch: u64,
    /// Shared-counter chunk size for CPU workers.
    pub(crate) cpu_chunk: u64,
}

impl ThreadBackendConfig {
    /// A reasonable demo configuration: `workers` CPU threads and an
    /// emulated GPU of `gpu_rate` items/second.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero or `gpu_rate` is not positive.
    pub fn new(workers: usize, gpu_rate: f64) -> ThreadBackendConfig {
        assert!(workers > 0, "need at least one CPU worker");
        assert!(
            gpu_rate.is_finite() && gpu_rate > 0.0,
            "gpu_rate must be positive"
        );
        ThreadBackendConfig {
            cpu_workers: workers,
            gpu_rate,
            pacing_batch: 256,
            cpu_chunk: 256,
        }
    }
}

/// One invocation's execution surface over real OS threads.
pub struct ThreadBackend<'a> {
    config: ThreadBackendConfig,
    platform: &'a Platform,
    traits: &'a KernelTraits,
    process: &'a (dyn Fn(Range<usize>) + Sync),
    low: u64,
    high: u64,
}

impl std::fmt::Debug for ThreadBackend<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadBackend")
            .field("low", &self.low)
            .field("high", &self.high)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl<'a> ThreadBackend<'a> {
    /// Creates a backend for an invocation of `n` items.
    pub fn new(
        config: ThreadBackendConfig,
        platform: &'a Platform,
        traits: &'a KernelTraits,
        n: u64,
        process: &'a (dyn Fn(Range<usize>) + Sync),
    ) -> ThreadBackend<'a> {
        ThreadBackend {
            config,
            platform,
            traits,
            process,
            low: 0,
            high: n,
        }
    }

    /// Runs the proxy-paced "GPU" over `[start, end)`. Returns busy seconds.
    fn gpu_execute(&self, start: u64, end: u64) -> f64 {
        let clock = WallClock;
        let t0 = clock.now();
        let mut done = 0u64;
        let total = end - start;
        while done < total {
            let batch = self.config.pacing_batch.min(total - done);
            (self.process)((start + done) as usize..(start + done + batch) as usize);
            done += batch;
            // Pace to the emulated device rate.
            let target = done as f64 / self.config.gpu_rate;
            let actual = clock.now() - t0;
            if target > actual {
                clock.sleep(target - actual);
            }
        }
        clock.now() - t0
    }

    /// Steady-state energy estimate for a step with the given phase
    /// durations.
    fn estimate_energy(&self, both: f64, cpu_tail: f64, gpu_tail: f64) -> f64 {
        let m = self.traits.memory_intensity();
        let table = &self.platform.power;
        table.target_power(1.0, 1.0, m, 1.0, 1.0) * both
            + table.target_power(1.0, 0.0, m, 1.0, 1.0) * cpu_tail
            + table.target_power(0.0, 1.0, m, 1.0, 1.0) * gpu_tail
    }
}

impl Backend for ThreadBackend<'_> {
    fn remaining(&self) -> u64 {
        self.high - self.low
    }

    fn gpu_profile_size(&self) -> u64 {
        self.platform.gpu_profile_size()
    }

    fn profile_step(&mut self, gpu_chunk: u64) -> Observation {
        let rem = self.remaining();
        let chunk = gpu_chunk.min(rem);
        let pool_items = rem - chunk;
        let gpu_start = self.high - chunk;

        let clock = WallClock;
        let stop = AtomicBool::new(false);
        let counter = AtomicU64::new(0);
        let executed = AtomicU64::new(0);
        let t0 = clock.now();
        let mut gpu_time = 0.0;
        let mut cpu_busy = 0.0;

        std::thread::scope(|s| {
            // The GPU proxy thread (paper: one CPU worker acts as proxy).
            let proxy = s.spawn(|| {
                let t = self.gpu_execute(gpu_start, self.high);
                stop.store(true, Ordering::Relaxed);
                t
            });
            // CPU workers atomically grab work from the shared counter
            // until the proxy signals completion or the pool is empty.
            let mut handles = Vec::new();
            for _ in 0..self.config.cpu_workers {
                let counter = &counter;
                let executed = &executed;
                let stop = &stop;
                let low = self.low;
                let chunk_sz = self.config.cpu_chunk;
                let process = self.process;
                handles.push(s.spawn(move || {
                    let t = clock.now();
                    loop {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let c = counter.fetch_add(chunk_sz, Ordering::Relaxed);
                        if c >= pool_items {
                            break;
                        }
                        let end = (c + chunk_sz).min(pool_items);
                        process((low + c) as usize..(low + end) as usize);
                        executed.fetch_add(end - c, Ordering::Relaxed);
                    }
                    clock.now() - t
                }));
            }
            gpu_time = proxy.join().expect("gpu proxy panicked");
            for h in handles {
                cpu_busy += h.join().expect("cpu worker panicked");
            }
        });

        let cpu_items = executed.load(Ordering::Relaxed);
        let elapsed = clock.now() - t0;
        self.high -= chunk;
        self.low += cpu_items;

        Observation {
            elapsed,
            cpu_items,
            gpu_items: chunk,
            // Aggregate pool throughput is measured against wall time of
            // the combined phase.
            cpu_time: elapsed,
            gpu_time,
            energy_joules: self.estimate_energy(elapsed.min(gpu_time), 0.0, 0.0)
                + self.estimate_energy(0.0, (elapsed - gpu_time).max(0.0), 0.0),
            ..Default::default()
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
        let gpu_start = self.high - gpu;
        let low = self.low as usize;
        let process = self.process;

        let clock = WallClock;
        let t0 = clock.now();
        let mut gpu_time = 0.0;
        let mut cpu_report = PoolReport::default();
        std::thread::scope(|s| {
            let proxy = (gpu > 0).then(|| s.spawn(|| self.gpu_execute(gpu_start, self.high)));
            if cpu > 0 {
                cpu_report = parallel_for(cpu, self.config.cpu_workers, &|chunk| {
                    process(low + chunk.start..low + chunk.end);
                });
            }
            if let Some(p) = proxy {
                gpu_time = p.join().expect("gpu proxy panicked");
            }
        });
        let elapsed = clock.now() - t0;
        self.high -= gpu;
        self.low += cpu;

        let cpu_time = cpu_report.elapsed;
        let both = cpu_time.min(gpu_time);
        Observation {
            elapsed,
            cpu_items: cpu,
            gpu_items: gpu,
            cpu_time,
            gpu_time,
            energy_joules: self.estimate_energy(
                both,
                (cpu_time - both).max(0.0),
                (gpu_time - both).max(0.0),
            ),
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use easched_sim::KernelTraits;
    use std::sync::atomic::AtomicU32;

    fn traits() -> KernelTraits {
        KernelTraits::builder("t").memory_intensity(0.0).build()
    }

    #[test]
    fn split_executes_every_index_once() {
        let platform = Platform::haswell_desktop();
        let t = traits();
        let hits: Vec<AtomicU32> = (0..20_000).map(|_| AtomicU32::new(0)).collect();
        let f = |items: Range<usize>| {
            for i in items {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        };
        let mut b = ThreadBackend::new(
            ThreadBackendConfig::new(4, 1.0e7),
            &platform,
            &t,
            20_000,
            &f,
        );
        let obs = b.run_split(0.4);
        assert_eq!(b.remaining(), 0);
        assert_eq!(obs.cpu_items + obs.gpu_items, 20_000);
        assert_eq!(obs.gpu_items, 8_000);
        let _ = b;
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn profile_then_split_covers_everything() {
        let platform = Platform::haswell_desktop();
        let t = traits();
        let hits: Vec<AtomicU32> = (0..30_000).map(|_| AtomicU32::new(0)).collect();
        let f = |items: Range<usize>| {
            for i in items {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        };
        let mut b = ThreadBackend::new(
            // Slow emulated GPU so the CPU pool is busy during profiling.
            ThreadBackendConfig::new(2, 2.0e5),
            &platform,
            &t,
            30_000,
            &f,
        );
        let obs = b.profile_step(2_000);
        assert_eq!(obs.gpu_items, 2_000);
        assert!(obs.elapsed > 0.0);
        b.run_split(0.0);
        assert_eq!(b.remaining(), 0);
        let _ = b;
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn gpu_pacing_approximates_rate() {
        let platform = Platform::haswell_desktop();
        let t = traits();
        let f = |_: Range<usize>| {};
        let b = ThreadBackend::new(
            ThreadBackendConfig::new(1, 100_000.0),
            &platform,
            &t,
            10_000,
            &f,
        );
        let secs = b.gpu_execute(0, 10_000);
        // 10k items at 100k items/s ≈ 0.1 s (generous tolerance for CI).
        assert!(secs > 0.05 && secs < 0.5, "paced time {secs}");
    }

    #[test]
    fn energy_estimate_positive_and_scales() {
        let platform = Platform::haswell_desktop();
        let t = traits();
        let f = |_: Range<usize>| {};
        let b = ThreadBackend::new(ThreadBackendConfig::new(1, 1e6), &platform, &t, 10, &f);
        let e1 = b.estimate_energy(1.0, 0.0, 0.0);
        let e2 = b.estimate_energy(2.0, 0.0, 0.0);
        assert!(e1 > 0.0);
        assert!((e2 - 2.0 * e1).abs() < 1e-9);
        // Combined phase burns more power than a GPU tail.
        assert!(b.estimate_energy(1.0, 0.0, 0.0) > b.estimate_energy(0.0, 0.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "gpu_rate must be positive")]
    fn config_rejects_bad_rate() {
        ThreadBackendConfig::new(2, 0.0);
    }
}
