//! The per-invocation execution interface a scheduling policy drives.

use crate::observation::Observation;

/// One kernel invocation's execution surface.
///
/// A scheduler receives a `Backend` holding the invocation's N parallel
/// iterations and must consume all of them through some combination of:
///
/// * [`profile_step`](Backend::profile_step) — the paper's `OnlineProfile`:
///   offload a chunk to the GPU while CPU workers drain the shared pool,
///   stopping when the GPU chunk completes;
/// * [`run_split`](Backend::run_split) — execute all remaining iterations at
///   a given GPU offload ratio α (α = 0 is CPU-alone, α = 1 GPU-alone).
///
/// Every operation returns only black-box [`Observation`]s — times, energy
/// from the package energy register, item counts, and hardware counters.
/// Backends expose no device model internals; a policy that works against
/// this trait would run unchanged on real hardware.
pub trait Backend {
    /// Iterations not yet executed.
    fn remaining(&self) -> u64;

    /// The platform's `GPU_PROFILE_SIZE`: how many items one profiling
    /// offload should contain to fill the GPU (paper §3.2 derives it from
    /// the GPU's hardware parallelism — public geometry, not a power
    /// secret).
    fn gpu_profile_size(&self) -> u64;

    /// Runs one online-profiling step: offloads `min(gpu_chunk,
    /// remaining())` items to the GPU while CPU workers concurrently drain
    /// the remaining pool; returns when the GPU chunk completes (or the pool
    /// empties).
    ///
    /// Both device throughputs in the returned observation are measured *in
    /// combined mode*, which is what the time model T(α) needs (§3.2).
    fn profile_step(&mut self, gpu_chunk: u64) -> Observation;

    /// Executes **all** remaining iterations with GPU offload ratio `alpha`:
    /// ⌈α·N_rem⌉ items on the GPU, the rest on the CPU via work-stealing,
    /// then waits for both.
    ///
    /// # Panics
    ///
    /// Implementations panic if `alpha` is outside [0, 1].
    fn run_split(&mut self, alpha: f64) -> Observation;
}

/// Deterministic fake backend for scheduler unit tests (used by this crate
/// and `easched-core`); not part of the supported API.
#[doc(hidden)]
pub mod test_support {
    #![allow(missing_docs)]

    use super::*;

    /// A deterministic fake backend for scheduler unit tests: fixed device
    /// rates, no contention, energy = power × time with constant powers.
    #[derive(Debug, Clone)]
    pub struct FakeBackend {
        pub remaining: u64,
        pub(crate) cpu_rate: f64,
        pub gpu_rate: f64,
        pub(crate) cpu_power: f64,
        pub(crate) gpu_power: f64,
        pub(crate) both_power: f64,
        pub(crate) profile_size: u64,
        pub log: Vec<String>,
    }

    impl FakeBackend {
        pub fn new(n: u64, cpu_rate: f64, gpu_rate: f64) -> FakeBackend {
            FakeBackend {
                remaining: n,
                cpu_rate,
                gpu_rate,
                cpu_power: 45.0,
                gpu_power: 30.0,
                both_power: 55.0,
                profile_size: 2240,
                log: Vec::new(),
            }
        }
    }

    impl Backend for FakeBackend {
        fn remaining(&self) -> u64 {
            self.remaining
        }

        fn gpu_profile_size(&self) -> u64 {
            self.profile_size
        }

        fn profile_step(&mut self, gpu_chunk: u64) -> Observation {
            let chunk = gpu_chunk.min(self.remaining);
            let gpu_time = chunk as f64 / self.gpu_rate;
            let pool = self.remaining - chunk;
            let cpu_items = ((self.cpu_rate * gpu_time) as u64).min(pool);
            self.remaining -= chunk + cpu_items;
            self.log.push(format!("profile({chunk})"));
            Observation {
                elapsed: gpu_time,
                cpu_items,
                gpu_items: chunk,
                cpu_time: gpu_time,
                gpu_time,
                energy_joules: self.both_power * gpu_time,
                ..Default::default()
            }
        }

        fn run_split(&mut self, alpha: f64) -> Observation {
            assert!((0.0..=1.0).contains(&alpha), "alpha out of range");
            let n = self.remaining;
            let gpu = (n as f64 * alpha).round() as u64;
            let cpu = n - gpu;
            let cpu_time = cpu as f64 / self.cpu_rate;
            let gpu_time = gpu as f64 / self.gpu_rate;
            let both = cpu_time.min(gpu_time);
            let elapsed = cpu_time.max(gpu_time);
            let tail_power = if cpu_time > gpu_time {
                self.cpu_power
            } else {
                self.gpu_power
            };
            self.remaining = 0;
            self.log.push(format!("split({alpha:.2})"));
            Observation {
                elapsed,
                cpu_items: cpu,
                gpu_items: gpu,
                cpu_time,
                gpu_time,
                energy_joules: self.both_power * both + tail_power * (elapsed - both),
                ..Default::default()
            }
        }
    }

    #[test]
    fn fake_backend_consumes_items() {
        let mut b = FakeBackend::new(10_000, 1000.0, 2000.0);
        let o = b.profile_step(2000);
        assert_eq!(o.gpu_items, 2000);
        assert!(b.remaining() < 8000);
        b.run_split(0.5);
        assert_eq!(b.remaining(), 0);
    }
}
