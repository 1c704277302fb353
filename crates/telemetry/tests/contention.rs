//! The ring sink under write contention: 8 threads hammering one sink
//! must lose nothing (when capacity suffices), stay within bounded
//! memory, preserve per-thread event order, and derive every metric from
//! every record exactly once — on a ring far smaller than the push
//! volume too, where writers fold for each other.

use easched_telemetry::{DecisionRecord, InvocationPath, RingSink, TelemetrySink, ALPHA_BUCKETS};
use std::sync::Arc;

const THREADS: u64 = 8;
const PER_THREAD: u64 = 2_000;

/// Thread `t`'s `i`th record: its own kernel, so ordering is checkable
/// per kernel afterwards.
fn profiled(t: u64, i: u64) -> DecisionRecord {
    DecisionRecord {
        kernel: t,
        items: i,
        alpha: (i % 11) as f64 / 10.0,
        path: InvocationPath::Profiled,
        ..DecisionRecord::default()
    }
}

fn hammer(sink: &Arc<RingSink>, threads: u64, per_thread: u64) {
    hammer_with(sink, threads, per_thread, profiled);
}

fn hammer_with(
    sink: &Arc<RingSink>,
    threads: u64,
    per_thread: u64,
    record: fn(u64, u64) -> DecisionRecord,
) {
    std::thread::scope(|s| {
        for t in 0..threads {
            let sink = Arc::clone(sink);
            s.spawn(move || {
                for i in 0..per_thread {
                    sink.record(&record(t, i));
                }
            });
        }
    });
}

#[test]
fn eight_threads_no_record_lost_when_capacity_suffices() {
    let sink = Arc::new(RingSink::with_capacity((THREADS * PER_THREAD) as usize));
    hammer(&sink, THREADS, PER_THREAD);

    assert_eq!(sink.recorded(), THREADS * PER_THREAD);
    assert_eq!(
        sink.dropped(),
        0,
        "a ring larger than the push count must never drop"
    );
    let snapshot = sink.snapshot();
    assert_eq!(snapshot.len(), (THREADS * PER_THREAD) as usize);

    // Every (kernel, item) pair appears exactly once.
    let mut seen = vec![vec![false; PER_THREAD as usize]; THREADS as usize];
    for r in &snapshot {
        let slot = &mut seen[r.kernel as usize][r.items as usize];
        assert!(
            !*slot,
            "duplicate record kernel={} item={}",
            r.kernel, r.items
        );
        *slot = true;
    }
    assert!(seen.iter().flatten().all(|&b| b), "missing records");

    // Metrics counted every event exactly once.
    assert_eq!(sink.metrics().invocations.get(), THREADS * PER_THREAD);
    assert_eq!(sink.metrics().profiled.get(), THREADS * PER_THREAD);
}

#[test]
fn eight_threads_per_kernel_order_follows_sequence_numbers() {
    let sink = Arc::new(RingSink::with_capacity((THREADS * PER_THREAD) as usize));
    hammer(&sink, THREADS, PER_THREAD);

    // snapshot() sorts by seq; within one kernel (= one thread), items
    // must then be strictly increasing — a thread's later push can never
    // receive an earlier sequence number.
    let snapshot = sink.snapshot();
    let mut last_item = vec![None::<u64>; THREADS as usize];
    for r in &snapshot {
        let prev = &mut last_item[r.kernel as usize];
        if let Some(p) = *prev {
            assert!(
                r.items > p,
                "kernel {} item {} arrived after {}",
                r.kernel,
                r.items,
                p
            );
        }
        *prev = Some(r.items);
    }
    // And the global sequence numbers are unique.
    let mut seqs: Vec<u64> = snapshot.iter().map(|r| r.seq).collect();
    seqs.dedup();
    assert_eq!(seqs.len(), snapshot.len());
}

#[test]
fn contended_wrap_stays_bounded_and_readable() {
    // Capacity far below the push volume: the ring must wrap, keep only
    // the newest records, and every surviving record must be internally
    // consistent (no torn reads materialize as impossible field mixes).
    let capacity = 256;
    let sink = Arc::new(RingSink::with_capacity(capacity));
    hammer(&sink, THREADS, PER_THREAD);

    assert_eq!(sink.capacity(), capacity);
    assert_eq!(sink.recorded(), THREADS * PER_THREAD);
    let snapshot = sink.snapshot();
    assert!(snapshot.len() <= capacity, "bounded memory");
    for r in &snapshot {
        assert!(r.kernel < THREADS, "torn record: kernel {}", r.kernel);
        assert!(r.items < PER_THREAD, "torn record: items {}", r.items);
        assert_eq!(r.path, InvocationPath::Profiled);
        // The alpha a thread wrote for this item, bit-for-bit.
        assert_eq!(r.alpha, (r.items % 11) as f64 / 10.0, "torn payload");
    }
    // Nothing was dropped under wrap contention: everything is retained
    // or was overwritten after it was folded — never corrupted.
    assert_eq!(sink.dropped(), 0);
    // Metrics still counted every single event.
    assert_eq!(sink.metrics().invocations.get(), THREADS * PER_THREAD);
    assert_eq!(sink.metrics().profiled.get(), THREADS * PER_THREAD);
}

/// Every path in turn, breaker open throughout, times and decide
/// latency that vary with the item.
fn every_path(t: u64, i: u64) -> DecisionRecord {
    DecisionRecord {
        path: InvocationPath::from_code((i % 8) as u8).expect("codes 0..8 are paths"),
        breaker: 1,
        profile_time: (i % 3) as f64 * 1e-6,
        split_time: 2e-6,
        decide_nanos: i,
        ..profiled(t, i)
    }
}

#[test]
fn contended_wrap_derives_every_metric_from_every_record() {
    let sink = Arc::new(RingSink::with_capacity(256));
    hammer_with(&sink, THREADS, PER_THREAD, every_path);
    assert_eq!(sink.recorded(), THREADS * PER_THREAD);
    assert_eq!(sink.dropped(), 0, "a ring sink never drops");

    let records: Vec<DecisionRecord> = (0..PER_THREAD).map(|i| every_path(0, i)).collect();
    let per_thread = |keep: &dyn Fn(&DecisionRecord) -> bool| {
        THREADS * records.iter().filter(|r| keep(r)).count() as u64
    };
    let on = |path| per_thread(&|r: &DecisionRecord| r.path == path);
    let m = sink.metrics();
    assert_eq!(m.invocations.get(), THREADS * PER_THREAD);
    assert_eq!(m.table_hits.get(), on(InvocationPath::TableHit));
    assert_eq!(m.small_n.get(), on(InvocationPath::SmallN));
    assert_eq!(m.profiled.get(), on(InvocationPath::Profiled));
    assert_eq!(m.reprofiled.get(), on(InvocationPath::Reprofiled));
    assert_eq!(m.probes.get(), on(InvocationPath::Probe));
    // Closed (the registry's start) to open once, whatever the order.
    assert_eq!(m.breaker_transitions.get(), 1);
    assert_eq!(m.breaker_state.get(), 1);

    let alpha: Vec<u64> = m.alpha.iter().map(|c| c.get()).collect();
    assert_eq!(alpha.iter().sum::<u64>(), THREADS * PER_THREAD);
    for (bucket, &n) in alpha.iter().enumerate().take(ALPHA_BUCKETS) {
        assert_eq!(
            n,
            per_thread(&|r| r.items % 11 == bucket as u64),
            "α bucket {bucket}"
        );
    }

    let sum = |f: &dyn Fn(&DecisionRecord) -> u64| THREADS * records.iter().map(f).sum::<u64>();
    let us = |s: f64| (s * 1e6).round() as u64;
    assert_eq!(m.profile_time_us.get(), sum(&|r| us(r.profile_time)));
    assert_eq!(m.invocation_time_us.get(), sum(&|r| us(r.total_time())));
    assert_eq!(m.decide_latency_ns.count(), THREADS * PER_THREAD);
    assert_eq!(m.decide_latency_ns.sum(), sum(&|r| r.decide_nanos));
    let predicted = |r: &DecisionRecord| r.path.has_prediction();
    assert_eq!(m.overhead_bp.count(), per_thread(&predicted));
    let bp = |r: &DecisionRecord| (r.profile_time / r.total_time() * 1e4).round() as u64;
    assert_eq!(
        m.overhead_bp.sum(),
        sum(&|r| if predicted(r) { bp(r) } else { 0 })
    );
}

#[test]
fn snapshot_races_with_writers_safely() {
    // A reader snapshotting while writers are active must only ever see
    // fully published records.
    let sink = Arc::new(RingSink::with_capacity(512));
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let sink = Arc::clone(&sink);
            s.spawn(move || {
                for i in 0..PER_THREAD {
                    sink.record(&DecisionRecord {
                        kernel: t,
                        items: i,
                        alpha: (i % 11) as f64 / 10.0,
                        ..DecisionRecord::default()
                    });
                }
            });
        }
        let sink = Arc::clone(&sink);
        s.spawn(move || {
            for _ in 0..200 {
                for r in sink.snapshot() {
                    assert!(r.kernel < 4);
                    assert!(r.items < PER_THREAD);
                    assert_eq!(r.alpha, (r.items % 11) as f64 / 10.0, "torn read");
                }
            }
        });
    });
}
