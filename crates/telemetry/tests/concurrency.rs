//! Concurrency contract of the registry: 8 threads hammering counters,
//! histograms, and the journal concurrently lose nothing — totals are
//! exact, histogram invariants hold (no torn reads), and the journal
//! ring never exceeds its capacity while accounting for every drop.

use ashn_telemetry::Registry;

const THREADS: usize = 8;
const PER_THREAD: u64 = 10_000;

#[test]
fn eight_threads_of_counter_adds_total_exactly() {
    let reg = Registry::with_journal_capacity(0);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let reg = reg.clone();
            scope.spawn(move || {
                let shared = reg.counter("stress.shared");
                let own = reg.counter(&format!("stress.thread.{t}"));
                for i in 0..PER_THREAD {
                    shared.add(1);
                    own.add(i % 3);
                }
            });
        }
    });
    let snap = reg.snapshot();
    assert_eq!(
        snap.counter("stress.shared"),
        Some(THREADS as u64 * PER_THREAD)
    );
    let per_thread: u64 = (0..PER_THREAD).map(|i| i % 3).sum();
    for t in 0..THREADS {
        assert_eq!(
            snap.counter(&format!("stress.thread.{t}")),
            Some(per_thread),
            "thread {t} lost adds"
        );
    }
}

#[test]
fn eight_threads_of_histogram_samples_preserve_invariants() {
    let reg = Registry::with_journal_capacity(0);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let reg = reg.clone();
            scope.spawn(move || {
                let hist = reg.histogram("stress.lat");
                for i in 0..PER_THREAD {
                    // Spread samples across many buckets, deterministically.
                    hist.record_ns((t as u64 + 1) * 1_000 * (1 + i % 7));
                }
            });
        }
    });
    let snap = reg.snapshot();
    let h = snap.histogram("stress.lat").expect("histogram registered");
    let expect_count = THREADS as u64 * PER_THREAD;
    let expect_sum: u64 = (0..THREADS as u64)
        .flat_map(|t| (0..PER_THREAD).map(move |i| (t + 1) * 1_000 * (1 + i % 7)))
        .sum();
    assert_eq!(h.count, expect_count, "torn/lost count");
    assert_eq!(h.sum_ns, expect_sum, "torn/lost sum");
    assert_eq!(h.min_ns, 1_000);
    assert_eq!(h.max_ns, THREADS as u64 * 1_000 * 7);
    assert_eq!(
        h.buckets.iter().sum::<u64>(),
        expect_count,
        "bucket totals must account for every sample"
    );
}

#[test]
fn eight_threads_of_journal_events_stay_bounded_and_accounted() {
    let capacity = 64;
    let reg = Registry::with_journal_capacity(capacity);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let reg = reg.clone();
            scope.spawn(move || {
                for i in 0..1_000u64 {
                    reg.event("stress.event", &[("t", (t as u64).into()), ("i", i.into())]);
                }
            });
        }
    });
    let snap = reg.snapshot();
    assert_eq!(snap.journal_len, capacity, "ring must be full, not beyond");
    assert_eq!(
        snap.journal_len as u64 + snap.journal_dropped,
        THREADS as u64 * 1_000,
        "every event must be retained or counted as dropped"
    );
    let events = reg.journal_snapshot();
    assert_eq!(events.len(), capacity);
    assert!(events.windows(2).all(|w| w[0].ts_ns <= w[1].ts_ns));
}

#[test]
fn mixed_hammering_with_concurrent_snapshots_never_tears() {
    let reg = Registry::with_journal_capacity(32);
    std::thread::scope(|scope| {
        for _ in 0..THREADS / 2 {
            let reg = reg.clone();
            scope.spawn(move || {
                for _ in 0..PER_THREAD {
                    reg.counter("mixed.c").add(2);
                    reg.histogram("mixed.h").record_ns(5_000);
                }
            });
        }
        // Concurrent readers: snapshots mid-flight must be internally sane
        // (monotone counter, bucket sum == count) even while writers run.
        for _ in 0..THREADS / 2 {
            let reg = reg.clone();
            scope.spawn(move || {
                let mut last = 0;
                for _ in 0..200 {
                    let snap = reg.snapshot();
                    let c = snap.counter("mixed.c").unwrap_or(0);
                    assert!(c >= last, "counter went backward: {c} < {last}");
                    assert!(c.is_multiple_of(2), "torn counter read: {c}");
                    last = c;
                    if let Some(h) = snap.histogram("mixed.h") {
                        assert_eq!(h.buckets.iter().sum::<u64>(), h.count);
                    }
                }
            });
        }
    });
    let total = THREADS as u64 / 2 * PER_THREAD;
    let snap = reg.snapshot();
    assert_eq!(snap.counter("mixed.c"), Some(2 * total));
    assert_eq!(snap.histogram("mixed.h").unwrap().count, total);
}
