//! Work-stealing CPU `parallel_for` (paper §4: "our runtime implements
//! work-stealing on the CPU").
//!
//! Each call spawns scoped worker threads with per-worker Chase-Lev deques
//! (crossbeam). Iteration chunks are distributed round-robin; idle workers
//! steal from victims. The body receives each chunk whole, as a range, so
//! dispatch costs one dynamic call per chunk rather than one per index. Per-worker item counts and busy times are collected
//! locally — the "CPU workers locally collect profiling information" part of
//! the paper's adaptive profiling — and returned in a [`PoolReport`].
//!
//! The pool has one mode: run every index to completion. Profiling rounds
//! do not come through here — the runtime's thread backend drains the
//! paper's shared atomic counter until the GPU proxy finishes — and
//! deadlines belong to the scheduler's watchdog, which judges a chunk by
//! the observation it returns.
//!
//! The pool lives beside the [`Invoker`](crate::Invoker) contract it
//! serves: functional execution ([`record_trace`](crate::record_trace),
//! Mandelbrot's reference image) hands a long invocation to it by the
//! rule of [`spread_if_long`].

use crossbeam::deque::{Steal, Stealer, Worker};
use std::ops::Range;
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Per-worker and aggregate statistics from one `parallel_for`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PoolReport {
    /// Items executed by each worker.
    pub items_per_worker: Vec<u64>,
    /// Busy seconds per worker.
    pub(crate) busy_per_worker: Vec<f64>,
    /// Wall-clock seconds for the whole call.
    pub elapsed: f64,
    /// Number of successful steals across workers.
    pub(crate) steals: u64,
}

impl PoolReport {
    /// Total items executed.
    pub fn total_items(&self) -> u64 {
        self.items_per_worker.iter().sum()
    }
}

/// A contiguous chunk of iteration indices.
#[derive(Debug, Clone, Copy)]
struct Chunk {
    start: u64,
    end: u64,
}

/// Calls `f` on disjoint chunks that cover `0..n` exactly once, on
/// `workers` threads with work stealing (runs to completion). The
/// report's times are wall-clock seconds.
///
/// # Panics
///
/// Panics if `workers` is zero.
///
/// # Examples
///
/// ```
/// use easched_kernels::parallel_for;
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let sum = AtomicU64::new(0);
/// let report = parallel_for(1000, 4, &|items| {
///     for i in items {
///         sum.fetch_add(i as u64, Ordering::Relaxed);
///     }
/// });
/// assert_eq!(sum.load(Ordering::Relaxed), 499_500);
/// assert_eq!(report.total_items(), 1000);
/// ```
pub fn parallel_for(n: u64, workers: usize, f: &(dyn Fn(Range<usize>) + Sync)) -> PoolReport {
    assert!(workers > 0, "need at least one worker");
    let chunk = (n / (workers as u64 * 8)).clamp(1, 4096);
    let start = Instant::now();

    // Build one deque per worker and seed chunks round-robin.
    let locals: Vec<Worker<Chunk>> = (0..workers).map(|_| Worker::new_fifo()).collect();
    let stealers: Vec<Stealer<Chunk>> = locals.iter().map(Worker::stealer).collect();
    let mut next = 0u64;
    let mut wi = 0usize;
    while next < n {
        let end = (next + chunk).min(n);
        locals[wi].push(Chunk { start: next, end });
        next = end;
        wi = (wi + 1) % workers;
    }

    let mut items = vec![0u64; workers];
    let mut busy = vec![0.0f64; workers];
    let mut steals = vec![0u64; workers];

    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for (id, local) in locals.into_iter().enumerate() {
            let stealers = &stealers;
            let handle = s.spawn(move || {
                let t0 = Instant::now();
                let mut my_items = 0u64;
                let mut my_steals = 0u64;
                loop {
                    // Local work first, then steal.
                    let job = local.pop().or_else(|| {
                        for (v, st) in stealers.iter().enumerate() {
                            if v == id {
                                continue;
                            }
                            loop {
                                match st.steal() {
                                    Steal::Success(c) => {
                                        my_steals += 1;
                                        return Some(c);
                                    }
                                    Steal::Retry => continue,
                                    Steal::Empty => break,
                                }
                            }
                        }
                        None
                    });
                    let Some(c) = job else { break };
                    f(c.start as usize..c.end as usize);
                    my_items += c.end - c.start;
                }
                (my_items, t0.elapsed().as_secs_f64(), my_steals)
            });
            handles.push(handle);
        }
        for (id, h) in handles.into_iter().enumerate() {
            let (i, b, st) = h.join().expect("worker panicked");
            items[id] = i;
            busy[id] = b;
            steals[id] = st;
        }
    });

    PoolReport {
        items_per_worker: items,
        busy_per_worker: busy,
        elapsed: start.elapsed().as_secs_f64(),
        steals: steals.iter().sum(),
    }
}

/// The CPUs this process may run on, read once: the first call reads
/// `available_parallelism()` (cgroup quota files and the affinity mask,
/// ≈20 µs), every later one a cached word. The mask is the one in force
/// at first use, so a process started under `taskset -c 0` sees one CPU
/// for its whole life: its [`in_index_order`] calls run every job, and
/// [`spread_if_long`] every invocation, on the caller's thread.
pub(crate) fn cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |p| p.get()))
}

/// Runs jobs `0..n` on the work-stealing pool, on up to
/// `available_parallelism()` workers (read once per process), and
/// returns their results in index order whatever order they finish in.
/// With one job or one worker the jobs run on the caller's thread and
/// nothing is spawned. A panicking job panics the caller.
///
/// # Examples
///
/// ```
/// use easched_kernels::in_index_order;
///
/// assert_eq!(in_index_order(4, |i| i * i), vec![0, 1, 4, 9]);
/// ```
pub fn in_index_order<T: Send>(n: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let workers = cpus().min(n);
    if workers <= 1 {
        return (0..n).map(job).collect();
    }
    // `Mutex`, not `OnceLock`: a `OnceLock<T>` slot would need `T: Sync`.
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    parallel_for(n as u64, workers, &|jobs| {
        for i in jobs {
            let result = job(i);
            *slots[i].lock().expect("a slot is locked only to store") = Some(result);
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("a slot is locked only to store")
                .expect("every job ran")
        })
        .collect()
}

/// The first slice of an invocation is one item in this many (rounded
/// up): long enough to time, short enough that running it inline costs
/// little whichever way the rest goes.
const PROBE_DIVISOR: usize = 64;

/// The shortest predicted rest worth handing to the pool: about 20× what
/// a two-thread `thread::scope` costs to open and join (≈57 µs), so
/// dispatch is at most a few percent of the work it hands out.
const SPREAD_AFTER: Duration = Duration::from_millis(1);

/// Calls `process` on disjoint ranges covering `0..n` exactly once and
/// returns when all have run. The first ⌈n/64⌉ items run on the caller's
/// thread and are timed; when this process has two or more CPUs and that
/// slice predicts the rest takes at least 1 ms, the rest goes to
/// [`parallel_for`] on every CPU, otherwise it runs on the caller's
/// thread too. A short invocation therefore spawns nothing.
pub(crate) fn spread_if_long(n: usize, process: &(dyn Fn(Range<usize>) + Sync)) {
    let probe = n.div_ceil(PROBE_DIVISOR);
    let started = Instant::now();
    process(0..probe);
    let rest = n - probe;
    if rest == 0 {
        return;
    }
    let predicted = started.elapsed().mul_f64(rest as f64 / probe as f64);
    // The prediction first: a process that only ever meets short
    // invocations never reads `cpus()`. Reading it from `tenant_storm`'s
    // small Mandelbrot fill raised that run's peak RSS from 24.2 to
    // 29.6 MB, with nothing spread.
    if predicted >= SPREAD_AFTER && cpus() >= 2 {
        parallel_for(rest as u64, cpus(), &|items| {
            process(probe + items.start..probe + items.end);
        });
    } else {
        process(probe..n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::thread::ThreadId;

    #[test]
    fn executes_every_index_once() {
        let hits: Vec<AtomicU64> = (0..10_000).map(|_| AtomicU64::new(0)).collect();
        let r = parallel_for(10_000, 4, &|items| {
            for i in items {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        assert_eq!(r.total_items(), 10_000);
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn zero_items_ok() {
        let r = parallel_for(0, 4, &|_| panic!("no items"));
        assert_eq!(r.total_items(), 0);
    }

    #[test]
    fn single_worker_ok() {
        let count = AtomicU64::new(0);
        let r = parallel_for(100, 1, &|items| {
            count.fetch_add(items.len() as u64, Ordering::Relaxed);
        });
        assert_eq!(r.total_items(), 100);
        assert_eq!(r.items_per_worker.len(), 1);
    }

    /// Spins for `micros` of wall time: a per-item cost that is
    /// time-bound, not op-bound, so a call spans many scheduler
    /// timeslices even in release mode on a single-core box — otherwise
    /// the first worker thread can drain every deque before the other
    /// threads have been scheduled at all.
    fn spin(micros: u64) {
        let t = Instant::now();
        while t.elapsed() < Duration::from_micros(micros) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn work_distributes_across_workers() {
        let r = parallel_for(20_000, 4, &|items| items.for_each(|_| spin(2)));
        let active = r.items_per_worker.iter().filter(|&&c| c > 0).count();
        assert!(
            active >= 2,
            "expected multiple active workers: {:?}",
            r.items_per_worker
        );
    }

    #[test]
    fn stealing_rebalances_skewed_work() {
        // Index 0 opens worker 0's deque and stalls whoever runs it: the
        // idle workers finish their own shares long before the stall ends
        // and must steal the chunks queued behind it.
        let r = parallel_for(1_000, 4, &|items| {
            if items.contains(&0) {
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        assert_eq!(r.total_items(), 1_000);
        assert!(r.steals > 0, "expected steals, got {:?}", r);
    }

    #[test]
    #[should_panic(expected = "need at least one worker")]
    fn zero_workers_rejected() {
        parallel_for(10, 0, &|_| {});
    }

    #[test]
    fn jobs_come_back_in_index_order() {
        // 1, 2, 12 and 13 jobs: fewer than, as many as and more than the
        // workers. Later jobs finish first, so completion order is not
        // index order whenever two workers run.
        for n in [1, 2, 12, 13] {
            let results = in_index_order(n, |i| {
                std::thread::sleep(Duration::from_millis((n - i) as u64));
                i * i
            });
            assert_eq!(results, (0..n).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_panicking_job_panics_the_caller() {
        let outcome = std::panic::catch_unwind(|| {
            in_index_order(12, |i| {
                assert_ne!(i, 5, "job 5 fails");
                i
            })
        });
        assert!(outcome.is_err());
    }

    /// Runs `spread_if_long(n, ..)` over a body that spins `micros` per
    /// item; returns how often each index ran and the threads that ran
    /// any.
    fn spread(n: usize, micros: u64) -> (Vec<u64>, HashSet<ThreadId>) {
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let threads = Mutex::new(HashSet::new());
        spread_if_long(n, &|items| {
            threads.lock().unwrap().insert(std::thread::current().id());
            for i in items {
                spin(micros);
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
        });
        let hits = hits.into_iter().map(AtomicU64::into_inner).collect();
        (hits, threads.into_inner().unwrap())
    }

    #[test]
    fn a_long_invocation_is_spread_over_every_cpu() {
        // 4 000 items of 2 µs: the first 63 predict ≈8 ms for the rest.
        // 4 001 leaves a last pool chunk shorter than the others.
        for n in [4_000, 4_001] {
            let (hits, threads) = spread(n, 2);
            assert!(hits.iter().all(|&h| h == 1), "n = {n}: {hits:?}");
            if cpus() >= 2 {
                assert!(threads.len() >= 2, "n = {n}: one thread ran it all");
            }
        }
    }

    #[test]
    fn a_short_invocation_runs_on_the_callers_thread() {
        // 0, 1, 64, 65 and 1 000 items of no work: far under 1 ms.
        for n in [0, 1, 64, 65, 1_000] {
            let (hits, threads) = spread(n, 0);
            assert!(hits.iter().all(|&h| h == 1), "n = {n}: {hits:?}");
            let caller = std::thread::current().id();
            assert!(
                threads.iter().all(|&t| t == caller),
                "n = {n}: ran on {threads:?}"
            );
        }
    }
}
