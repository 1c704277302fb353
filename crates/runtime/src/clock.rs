//! The time seam: a [`Clock`] is a source of seconds and of sleeps, so a
//! component that reads time can be handed a deterministic one.
//!
//! * [`WallClock`] — the production implementation, monotonic seconds
//!   from `Instant` with real `thread::sleep` pacing. The thread
//!   backend's pacing and phase timers read it;
//! * [`TickClock`] — a deterministic counter clock: every `now()` read
//!   advances time by a fixed tick, `sleep` advances it by the requested
//!   duration. Two runs making the same sequence of clock calls read the
//!   same timestamps. [`ChaosFs`](crate::ChaosFs) stalls its latency
//!   faults on the clock it is given; on a `TickClock` a stall burns
//!   virtual time, not wall time.
//!
//! The work-stealing pool (`easched_kernels::parallel_for`) times its
//! report with `Instant` and does not read this seam. The simulator path
//! (`SimBackend`) has its own virtual time inside `easched-sim` and does
//! not touch it either.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// A monotonic time source, in seconds since an arbitrary per-clock epoch.
///
/// Implementations must be thread-safe: a [`ChaosFs`](crate::ChaosFs)
/// holds its clock behind an `Arc`, and a latency fault stalls on it
/// from whichever thread made the faulted call.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Current time in seconds. Monotone non-decreasing per clock.
    fn now(&self) -> f64;

    /// Blocks (or virtually advances) for `seconds`. Implementations may
    /// return early only if `seconds` is not positive.
    fn sleep(&self, seconds: f64);
}

/// The production clock: monotonic wall time from [`Instant`], with a
/// process-wide epoch so independent `WallClock` values agree with each
/// other, and real `thread::sleep` pacing.
#[derive(Debug, Clone, Copy, Default)]
pub struct WallClock;

fn wall_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

impl Clock for WallClock {
    fn now(&self) -> f64 {
        wall_epoch().elapsed().as_secs_f64()
    }

    fn sleep(&self, seconds: f64) {
        if seconds > 0.0 {
            std::thread::sleep(std::time::Duration::from_secs_f64(seconds));
        }
    }
}

/// A deterministic clock for record/replay and tests: time is a counter,
/// not a measurement.
///
/// Every [`now()`](Clock::now) advances time by one fixed tick before
/// returning it, so repeated reads are strictly increasing and — crucially
/// — a re-run that makes the *same sequence of clock calls* reads the
/// *same timestamps*, regardless of host load. [`sleep`](Clock::sleep)
/// advances time by the requested amount without blocking.
///
/// The default tick is 100 ns: small enough that timer-derived telemetry
/// (e.g. `DecisionRecord::decide_nanos`) stays in a plausible range, large
/// enough that every read is distinguishable.
#[derive(Debug)]
pub struct TickClock {
    /// Elapsed femtoseconds (integer, so advancing is exact and atomic).
    femtos: AtomicU64,
    /// Femtoseconds added per `now()` read.
    tick_femtos: u64,
}

/// Femtoseconds per second — the `TickClock` fixed-point scale.
const FEMTOS_PER_SEC: f64 = 1.0e15;

impl TickClock {
    /// A deterministic clock advancing 100 ns per read.
    pub fn new() -> TickClock {
        TickClock::with_tick(100.0e-9)
    }

    /// A deterministic clock advancing `tick_seconds` per read.
    ///
    /// # Panics
    ///
    /// Panics if `tick_seconds` is not positive and finite.
    pub(crate) fn with_tick(tick_seconds: f64) -> TickClock {
        assert!(
            tick_seconds.is_finite() && tick_seconds > 0.0,
            "tick must be positive"
        );
        TickClock {
            femtos: AtomicU64::new(0),
            tick_femtos: (tick_seconds * FEMTOS_PER_SEC) as u64,
        }
    }
}

impl Default for TickClock {
    fn default() -> TickClock {
        TickClock::new()
    }
}

impl Clock for TickClock {
    fn now(&self) -> f64 {
        let t = self
            .femtos
            .fetch_add(self.tick_femtos, Ordering::Relaxed)
            .wrapping_add(self.tick_femtos);
        t as f64 / FEMTOS_PER_SEC
    }

    fn sleep(&self, seconds: f64) {
        if seconds > 0.0 {
            let femtos = (seconds * FEMTOS_PER_SEC) as u64;
            self.femtos.fetch_add(femtos, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotone_and_sleeps() {
        let c = WallClock;
        let a = c.now();
        c.sleep(0.002);
        let b = c.now();
        assert!(b >= a + 0.001, "slept {b} vs {a}");
        c.sleep(-1.0); // negative sleep is a no-op, not a panic
    }

    #[test]
    fn independent_wall_clocks_share_an_epoch() {
        let a = WallClock.now();
        let b = WallClock.now();
        assert!(b >= a && b - a < 1.0);
    }

    #[test]
    fn tick_clock_is_deterministic() {
        let run = || {
            let c = TickClock::new();
            let mut reads = Vec::new();
            for _ in 0..5 {
                reads.push(c.now().to_bits());
            }
            c.sleep(1.5);
            reads.push(c.now().to_bits());
            reads
        };
        assert_eq!(run(), run(), "same call sequence, same timestamps");
    }

    #[test]
    fn tick_clock_advances_per_read_and_sleep() {
        let c = TickClock::with_tick(1.0e-6);
        let a = c.now();
        let b = c.now();
        assert!((b - a - 1.0e-6).abs() < 1.0e-12);
        c.sleep(0.5);
        let d = c.now();
        assert!(d > b + 0.5 - 1e-9);
        // 500 003 ticks so far: the next read is the 500 004th.
        assert_eq!(c.now(), 500_004.0e9 / FEMTOS_PER_SEC);
    }

    #[test]
    #[should_panic(expected = "tick must be positive")]
    fn tick_clock_rejects_zero_tick() {
        TickClock::with_tick(0.0);
    }
}
