//! The registry: counters, histograms, span timers, and the journal.
//!
//! Counters and histograms are plain atomics behind `Arc`s: the handle
//! types ([`Counter`], [`Histogram`]) are cheap to clone and record with
//! relaxed ordering, so hot loops pay one atomic RMW per bulk update.
//! Name→handle resolution goes through an `RwLock<HashMap>` and is meant
//! to happen once per batch/span, not per iteration.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

use crate::snapshot::{
    bucket_of_ns, CounterSnapshot, EventRecord, FieldValue, HistogramSnapshot, TelemetrySnapshot,
    HISTOGRAM_BUCKETS,
};

/// Core storage for one histogram: sum/min/max plus log2 buckets, all
/// relaxed atomics. There is no separate count: a snapshot derives it from
/// the buckets it loaded, so `count == Σbuckets` holds by construction even
/// mid-flight (small skew against `sum_ns` from in-flight recordings is
/// acceptable).
struct HistCore {
    sum_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl HistCore {
    fn new() -> Self {
        HistCore {
            sum_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn record_ns(&self, ns: u64) {
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.min_ns.fetch_min(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        self.buckets[bucket_of_ns(ns)].fetch_add(1, Ordering::Relaxed);
    }

    fn snapshot(&self, name: &str) -> HistogramSnapshot {
        let buckets: [u64; HISTOGRAM_BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        let count = buckets.iter().sum();
        let min = self.min_ns.load(Ordering::Relaxed);
        HistogramSnapshot {
            name: name.to_string(),
            count,
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
            min_ns: if count == 0 || min == u64::MAX {
                0
            } else {
                min
            },
            max_ns: self.max_ns.load(Ordering::Relaxed),
            buckets,
        }
    }
}

struct Journal {
    ring: VecDeque<EventRecord>,
    capacity: usize,
    dropped: u64,
}

struct Inner {
    counters: RwLock<HashMap<String, Arc<AtomicU64>>>,
    histograms: RwLock<HashMap<String, Arc<HistCore>>>,
    journal: Mutex<Journal>,
    enabled: AtomicBool,
    birth: Instant,
}

/// A handle to one named counter. Cloneable, lock-free to update.
#[derive(Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
    reg: Registry,
}

impl Counter {
    /// Adds `n` to the counter (no-op while the registry is disabled).
    pub fn add(&self, n: u64) {
        if self.reg.enabled() {
            self.cell.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A handle to one named latency histogram. Cloneable, lock-free to
/// record into.
#[derive(Clone)]
pub struct Histogram {
    core: Arc<HistCore>,
    reg: Registry,
}

impl Histogram {
    /// Records one sample of `ns` nanoseconds (no-op while disabled).
    pub fn record_ns(&self, ns: u64) {
        if self.reg.enabled() {
            self.core.record_ns(ns);
        }
    }

    /// Records one [`std::time::Duration`] sample.
    pub fn record(&self, d: std::time::Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }
}

/// RAII span timer: measures from construction to drop and records the
/// elapsed time into the named histogram of the registry it came from.
#[must_use = "a span records its timing when dropped; binding it to `_` drops immediately"]
pub struct Span {
    hist: Histogram,
    start: Instant,
}

impl Span {
    /// Nanoseconds elapsed since the span opened.
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.hist.record_ns(self.elapsed_ns());
    }
}

/// A process- or scope-level metrics registry: named counters, named
/// latency histograms, and a bounded structured event journal.
///
/// Cloning is cheap (one `Arc`); clones share all state.
#[derive(Clone)]
pub struct Registry {
    inner: Arc<Inner>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

fn journal_capacity_from_env() -> usize {
    std::env::var(crate::JOURNAL_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(crate::JOURNAL_DEFAULT_CAPACITY)
}

impl Registry {
    /// A fresh, enabled registry. Journal capacity comes from
    /// [`crate::JOURNAL_ENV`] (default [`crate::JOURNAL_DEFAULT_CAPACITY`]).
    pub fn new() -> Self {
        Self::with_journal_capacity(journal_capacity_from_env())
    }

    /// A fresh registry with an explicit journal ring capacity
    /// (`0` disables the journal entirely).
    pub fn with_journal_capacity(capacity: usize) -> Self {
        Registry {
            inner: Arc::new(Inner {
                counters: RwLock::new(HashMap::new()),
                histograms: RwLock::new(HashMap::new()),
                journal: Mutex::new(Journal {
                    ring: VecDeque::with_capacity(capacity.min(4096)),
                    capacity,
                    dropped: 0,
                }),
                enabled: AtomicBool::new(true),
                birth: Instant::now(),
            }),
        }
    }

    /// Runtime kill switch: while disabled, every counter add, histogram
    /// record, and journal event on this registry is dropped. Used by the
    /// overhead bench to compare instrumented-vs-dark on one binary.
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is currently enabled.
    pub fn enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Resolves (registering on first use) the named counter.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(cell) = self.inner.counters.read().unwrap().get(name) {
            return Counter {
                cell: Arc::clone(cell),
                reg: self.clone(),
            };
        }
        let mut map = self.inner.counters.write().unwrap();
        let cell = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)));
        Counter {
            cell: Arc::clone(cell),
            reg: self.clone(),
        }
    }

    /// One-shot `counter(name).add(n)`.
    pub fn add(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// Resolves (registering on first use) the named histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        if let Some(core) = self.inner.histograms.read().unwrap().get(name) {
            return Histogram {
                core: Arc::clone(core),
                reg: self.clone(),
            };
        }
        let mut map = self.inner.histograms.write().unwrap();
        let core = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(HistCore::new()));
        Histogram {
            core: Arc::clone(core),
            reg: self.clone(),
        }
    }

    /// One-shot `histogram(name).record_ns(ns)`.
    pub fn record_ns(&self, name: &str, ns: u64) {
        self.histogram(name).record_ns(ns);
    }

    /// Opens an RAII [`Span`] timer over the named histogram.
    pub fn span(&self, name: &str) -> Span {
        Span {
            hist: self.histogram(name),
            start: Instant::now(),
        }
    }

    /// Appends a structured event to the journal ring (oldest event is
    /// evicted — and counted as dropped — when the ring is full).
    ///
    /// The timestamp is monotonic nanoseconds since this registry was
    /// created; determinism suites compare events through
    /// [`EventRecord::masked_line`], which hides it.
    pub fn event(&self, span: &str, fields: &[(&str, FieldValue)]) {
        if !self.enabled() {
            return;
        }
        let ts_ns = self.inner.birth.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let mut journal = self.inner.journal.lock().unwrap();
        if journal.capacity == 0 {
            journal.dropped += 1;
            return;
        }
        if journal.ring.len() >= journal.capacity {
            journal.ring.pop_front();
            journal.dropped += 1;
        }
        journal.ring.push_back(EventRecord {
            ts_ns,
            span: span.to_string(),
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        });
    }

    /// Point-in-time snapshot of every counter and histogram, sorted by
    /// name, plus journal occupancy.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut counters: Vec<CounterSnapshot> = self
            .inner
            .counters
            .read()
            .unwrap()
            .iter()
            .map(|(name, cell)| CounterSnapshot {
                name: name.clone(),
                value: cell.load(Ordering::Relaxed),
            })
            .collect();
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        let mut histograms: Vec<HistogramSnapshot> = self
            .inner
            .histograms
            .read()
            .unwrap()
            .iter()
            .map(|(name, core)| core.snapshot(name))
            .collect();
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        let journal = self.inner.journal.lock().unwrap();
        TelemetrySnapshot {
            counters,
            histograms,
            journal_len: journal.ring.len(),
            journal_dropped: journal.dropped,
        }
    }

    /// A copy of the journal contents, oldest first.
    pub fn journal_snapshot(&self) -> Vec<EventRecord> {
        self.inner
            .journal
            .lock()
            .unwrap()
            .ring
            .iter()
            .cloned()
            .collect()
    }

    /// Clears the journal ring (counters and histograms are untouched).
    pub fn clear_journal(&self) {
        let mut journal = self.inner.journal.lock().unwrap();
        journal.ring.clear();
        journal.dropped = 0;
    }
}

/// The process-wide registry — the fallback for [`current()`] when no
/// registry has been [`install`]ed on the calling thread.
pub fn global() -> Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new).clone()
}

thread_local! {
    static CURRENT: RefCell<Vec<Registry>> = const { RefCell::new(Vec::new()) };
}

/// The registry telemetry should record into on this thread: the
/// innermost [`install`]ed one, else [`global()`].
pub fn current() -> Registry {
    CURRENT.with(|stack| match stack.borrow().last() {
        Some(reg) => reg.clone(),
        None => global(),
    })
}

/// Makes `reg` the [`current()`] registry for this thread until the
/// returned guard drops. Nests: the previous current is restored.
///
/// The worker pool calls this on a helper thread with the registry captured
/// from the calling thread, for as long as the helper runs that caller's
/// jobs, so batch work reports to the caller's registry.
pub fn install(reg: &Registry) -> CurrentGuard {
    CURRENT.with(|stack| stack.borrow_mut().push(reg.clone()));
    CurrentGuard { _private: () }
}

/// Guard returned by [`install`]; restores the previous current registry
/// on drop.
pub struct CurrentGuard {
    _private: (),
}

impl Drop for CurrentGuard {
    fn drop(&mut self) {
        CURRENT.with(|stack| {
            stack.borrow_mut().pop();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot_sorted() {
        let reg = Registry::with_journal_capacity(8);
        reg.add("z.last", 3);
        reg.add("a.first", 1);
        reg.counter("a.first").add(4);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a.first"), Some(5));
        assert_eq!(snap.counter("z.last"), Some(3));
        assert!(snap.counters.windows(2).all(|w| w[0].name < w[1].name));
    }

    #[test]
    fn histogram_tracks_count_sum_min_max_buckets() {
        let reg = Registry::with_journal_capacity(0);
        let h = reg.histogram("lat");
        h.record_ns(500); // bucket 0
        h.record_ns(1_500); // bucket 1
        h.record_ns(3_000_000); // 3 ms → bucket 12
        let snap = reg.snapshot();
        let hs = snap.histogram("lat").unwrap();
        assert_eq!(hs.count, 3);
        assert_eq!(hs.sum_ns, 3_002_000);
        assert_eq!(hs.min_ns, 500);
        assert_eq!(hs.max_ns, 3_000_000);
        assert_eq!(hs.buckets.iter().sum::<u64>(), 3);
        assert_eq!(hs.buckets[0], 1);
        assert_eq!(hs.buckets[1], 1);
        assert_eq!(hs.buckets[12], 1);
    }

    #[test]
    fn span_records_into_histogram_on_drop() {
        let reg = Registry::with_journal_capacity(0);
        {
            let _s = reg.span("work");
        }
        let snap = reg.snapshot();
        assert_eq!(snap.histogram("work").unwrap().count, 1);
    }

    #[test]
    fn journal_is_a_bounded_ring() {
        let reg = Registry::with_journal_capacity(2);
        reg.event("a", &[]);
        reg.event("b", &[("k", FieldValue::U64(1))]);
        reg.event("c", &[]);
        let events = reg.journal_snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].span, "b");
        assert_eq!(events[1].span, "c");
        assert_eq!(reg.snapshot().journal_dropped, 1);
    }

    #[test]
    fn disabled_registry_drops_everything() {
        let reg = Registry::with_journal_capacity(8);
        reg.set_enabled(false);
        reg.add("c", 7);
        reg.record_ns("h", 100);
        reg.event("e", &[]);
        {
            let _s = reg.span("s");
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("c"), Some(0));
        assert_eq!(snap.histogram("h").unwrap().count, 0);
        assert_eq!(snap.journal_len, 0);
        reg.set_enabled(true);
        reg.add("c", 7);
        assert_eq!(reg.snapshot().counter("c"), Some(7));
    }

    #[test]
    fn install_overrides_current_and_nests() {
        let outer = Registry::with_journal_capacity(0);
        let inner = Registry::with_journal_capacity(0);
        {
            let _g1 = install(&outer);
            current().add("hits", 1);
            {
                let _g2 = install(&inner);
                current().add("hits", 10);
            }
            current().add("hits", 1);
        }
        assert_eq!(outer.snapshot().counter("hits"), Some(2));
        assert_eq!(inner.snapshot().counter("hits"), Some(10));
    }

    #[test]
    fn timestamps_are_monotonic_nonzero_origin() {
        let reg = Registry::with_journal_capacity(8);
        reg.event("first", &[]);
        reg.event("second", &[]);
        let ev = reg.journal_snapshot();
        assert!(ev[0].ts_ns <= ev[1].ts_ns);
    }
}
