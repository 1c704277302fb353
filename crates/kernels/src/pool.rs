//! The CPU `parallel_for` of the paper's §4 runtime: workers drain one
//! shared atomic counter.
//!
//! Each call claims chunks of `0..n` with `fetch_add` on one `AtomicU64`,
//! on `workers` threads of which the caller is one: it spawns `workers − 1`
//! scoped threads, and a one-worker call spawns none. This is the same
//! counter the paper's profiling rounds drain (the runtime's thread
//! backend runs its own copy of the loop, which also stops when the GPU
//! proxy finishes). The body receives each chunk whole, as a range, so
//! dispatch costs one dynamic call per chunk rather than one per index.
//!
//! The pool does not steal. Every job it serves is a flat `0..n` range
//! that spawns no sub-task, so a worker that runs out of work takes the
//! next chunk from the counter, and a chunk that stalls its worker holds
//! up no other chunk. Per-worker deques would add a lock or a CAS on every
//! pop and balance nothing the counter does not.
//!
//! The pool has one mode: run every index to completion. Deadlines belong
//! to the scheduler's watchdog, which judges a chunk by the observation it
//! returns.
//!
//! The pool lives beside the [`Invoker`](crate::Invoker) contract it
//! serves: functional execution ([`record_trace`](crate::record_trace),
//! Mandelbrot's reference image) hands a long invocation to it by the
//! rule of [`spread_if_long`].

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Calls `f` on disjoint chunks that cover `0..n` exactly once, on
/// `workers` threads (the caller's among them) that claim chunks from one
/// shared counter, and returns when every chunk has run.
///
/// # Panics
///
/// Panics if `workers` is zero, or if `f` panics.
///
/// # Examples
///
/// ```
/// use easched_kernels::parallel_for;
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let sum = AtomicU64::new(0);
/// parallel_for(1000, 4, &|items| {
///     for i in items {
///         sum.fetch_add(i as u64, Ordering::Relaxed);
///     }
/// });
/// assert_eq!(sum.load(Ordering::Relaxed), 499_500);
/// ```
pub fn parallel_for(n: u64, workers: usize, f: &(dyn Fn(Range<usize>) + Sync)) {
    assert!(workers > 0, "need at least one worker");
    let chunk = (n / (workers as u64 * 8)).clamp(1, 4096);
    let next = AtomicU64::new(0);
    let claim = || loop {
        let start = next.fetch_add(chunk, Ordering::Relaxed);
        if start >= n {
            break;
        }
        f(start as usize..(start + chunk).min(n) as usize);
    };
    std::thread::scope(|s| {
        for _ in 1..workers {
            s.spawn(claim);
        }
        claim();
    });
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

/// Runs jobs `0..n` on the pool, on up to `available_parallelism()`
/// workers (read once per process), and returns their results in index
/// order whatever order they finish in. With one job or one CPU the jobs
/// run on the caller's thread and nothing is spawned. A panicking job
/// panics the caller.
///
/// # Examples
///
/// ```
/// use easched_kernels::in_index_order;
///
/// assert_eq!(in_index_order(4, |i| i * i), vec![0, 1, 4, 9]);
/// ```
pub fn in_index_order<T: Send>(n: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    // `Mutex`, not `OnceLock`: a `OnceLock<T>` slot would need `T: Sync`.
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    parallel_for(n as u64, cpus().min(n).max(1), &|jobs| {
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
/// thread and are timed; when that slice predicts the rest takes at least
/// 1 ms, the rest goes to [`parallel_for`] on every CPU, otherwise it runs
/// on the caller's thread too. A short invocation, and every invocation
/// of a one-CPU process, therefore spawns nothing.
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
    if predicted >= SPREAD_AFTER {
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

    /// Runs `parallel_for(n, workers, ..)` over `body`; returns how often
    /// each index ran and the thread that ran each range.
    fn traced(
        n: usize,
        workers: usize,
        body: impl Fn(&Range<usize>) + Sync,
    ) -> (Vec<u64>, Vec<(Range<usize>, ThreadId)>) {
        let hits: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let ranges = Mutex::new(Vec::new());
        parallel_for(n as u64, workers, &|items| {
            body(&items);
            for i in items.clone() {
                hits[i].fetch_add(1, Ordering::Relaxed);
            }
            let thread = std::thread::current().id();
            ranges.lock().unwrap().push((items, thread));
        });
        let hits = hits.into_iter().map(AtomicU64::into_inner).collect();
        (hits, ranges.into_inner().unwrap())
    }

    #[test]
    fn executes_every_index_once() {
        let (hits, _) = traced(10_000, 4, |_| {});
        assert!(hits.iter().all(|&h| h == 1));
    }

    #[test]
    fn zero_items_ok() {
        parallel_for(0, 4, &|_| panic!("no items"));
    }

    #[test]
    fn one_worker_runs_every_range_on_the_callers_thread() {
        // 1 and 100 items: one chunk each; 10 000: more chunks than one.
        for n in [1, 100, 10_000] {
            let (hits, ranges) = traced(n, 1, |_| {});
            assert!(hits.iter().all(|&h| h == 1), "n = {n}: {hits:?}");
            let caller = std::thread::current().id();
            assert!(
                ranges.iter().all(|(_, t)| *t == caller),
                "n = {n}: ran on {ranges:?}"
            );
        }
    }

    /// Spins for `micros` of wall time: a per-item cost that is
    /// time-bound, not op-bound, so a call spans many scheduler
    /// timeslices even in release mode on a single-core box — otherwise
    /// the caller can drain the counter before the spawned threads have
    /// been scheduled at all.
    fn spin(micros: u64) {
        let t = Instant::now();
        while t.elapsed() < Duration::from_micros(micros) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn work_distributes_across_workers() {
        let (_, ranges) = traced(20_000, 4, |items| items.clone().for_each(|_| spin(2)));
        let threads: HashSet<ThreadId> = ranges.iter().map(|(_, t)| *t).collect();
        assert!(threads.len() >= 2, "one thread ran it all: {ranges:?}");
    }

    #[test]
    fn skewed_work_rebalances() {
        // The first chunk stalls whoever claims it until every other
        // index has run (or 5 s pass): the other workers drain the
        // counter meanwhile, so that thread runs no other range.
        let n = 1_000;
        let others_done = AtomicU64::new(0);
        let (hits, ranges) = traced(n, 4, |items| {
            if !items.contains(&0) {
                others_done.fetch_add(items.len() as u64, Ordering::Relaxed);
                return;
            }
            let since = Instant::now();
            while others_done.load(Ordering::Relaxed) < (n - items.len()) as u64
                && since.elapsed() < Duration::from_secs(5)
            {
                std::thread::yield_now();
            }
        });
        assert!(hits.iter().all(|&h| h == 1), "{hits:?}");
        let stalled = ranges.iter().find(|(r, _)| r.contains(&0)).unwrap().1;
        let by_stalled: Vec<_> = ranges.iter().filter(|(_, t)| *t == stalled).collect();
        assert_eq!(
            by_stalled.len(),
            1,
            "the stalled thread also ran {by_stalled:?}"
        );
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
