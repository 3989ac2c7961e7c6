//! Bench-side timing around the program's public calls: a [`Basis`]
//! adapter that times the numeric basis from outside, and a [`Tally`] of
//! per-stage wall times and counts for the traced run.

use ashn::ir::{Basis, BasisMetadata, Circuit, SynthEffort, SynthError};
use ashn::math::CMat;
use ashn::opt::OptStats;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Calls that reached the numeric basis, and the time they took. Relaxed
/// atomics: these are statistics that publish no other data, and the
/// service may call the basis from several worker threads.
#[derive(Debug, Default)]
pub struct SynthCounters {
    cold_calls: AtomicU64,
    cold_ns: AtomicU64,
    swap_ns: AtomicU64,
}

/// What [`SynthCounters::take`] drained.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SynthSample {
    /// `synthesize` calls that reached the numeric basis.
    pub cold_calls: u64,
    /// Time in those calls, ms (summed across threads).
    pub cold_ms: f64,
    /// Time in `native_swap` calls that reached the numeric basis, ms.
    pub swap_ms: f64,
}

impl SynthCounters {
    /// Returns the counts so far and resets them to zero.
    pub fn take(&self) -> SynthSample {
        let ms = |a: &AtomicU64| a.swap(0, Ordering::Relaxed) as f64 / 1e6;
        SynthSample {
            cold_calls: self.cold_calls.swap(0, Ordering::Relaxed),
            cold_ms: ms(&self.cold_ns),
            swap_ms: ms(&self.swap_ns),
        }
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Wraps a basis, forwarding every trait method unchanged (so cache keys,
/// rule-tier lookups and synthesized circuits are exactly those of the
/// wrapped basis) while counting and timing the calls that reach it.
/// Mounted *inside* the memo cache, it sees only cold work.
#[derive(Debug)]
pub struct TimingBasis<B> {
    inner: B,
    counters: Arc<SynthCounters>,
}

impl<B: Basis> TimingBasis<B> {
    /// Wraps `inner` with fresh counters.
    pub fn new(inner: B) -> Self {
        Self {
            inner,
            counters: Arc::default(),
        }
    }

    /// The shared counters (clone the `Arc` to read them after the basis
    /// moved into a compiler or service).
    pub fn counters(&self) -> Arc<SynthCounters> {
        Arc::clone(&self.counters)
    }

    fn cold<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.counters
            .cold_ns
            .fetch_add(elapsed_ns(start), Ordering::Relaxed);
        self.counters.cold_calls.fetch_add(1, Ordering::Relaxed);
        out
    }
}

impl<B: Basis> Basis for TimingBasis<B> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn cache_params(&self) -> String {
        self.inner.cache_params()
    }

    fn synthesize(&self, u: &CMat) -> Result<Circuit, SynthError> {
        self.cold(|| self.inner.synthesize(u))
    }

    fn synthesize_with_effort(&self, u: &CMat, effort: SynthEffort) -> Result<Circuit, SynthError> {
        self.cold(|| self.inner.synthesize_with_effort(u, effort))
    }

    fn native_swap(&self) -> Result<Circuit, SynthError> {
        let start = Instant::now();
        let out = self.inner.native_swap();
        self.counters
            .swap_ns
            .fetch_add(elapsed_ns(start), Ordering::Relaxed);
        out
    }

    fn expected_entanglers(&self, u: &CMat) -> usize {
        self.inner.expected_entanglers(u)
    }

    fn metadata(&self) -> Option<BasisMetadata> {
        self.inner.metadata()
    }
}

/// Named sums accumulated over the traced run: stage times in ms and
/// per-layer counts. Keys are metric names.
#[derive(Clone, Debug, Default)]
pub struct Tally(BTreeMap<String, f64>);

impl Tally {
    /// Adds `v` to `key`.
    pub fn add(&mut self, key: &str, v: f64) {
        match self.0.get_mut(key) {
            Some(sum) => *sum += v,
            None => {
                self.0.insert(key.to_string(), v);
            }
        }
    }

    /// Adds every sum of `other`.
    pub fn merge(&mut self, other: &Tally) {
        for (key, v) in other.iter() {
            self.add(key, v);
        }
    }

    /// Every `(key, sum)`, in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.0.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Runs `f`, adding its wall time in ms to `key`.
    pub fn time<T>(&mut self, key: &str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add(key, ms_since(start));
        out
    }

    /// The sum under `key` (0 when never added).
    pub fn get(&self, key: &str) -> f64 {
        self.0.get(key).copied().unwrap_or(0.0)
    }

    /// Adds a drained [`SynthSample`] under the `synth.*` keys.
    pub fn add_synth(&mut self, s: SynthSample) {
        self.add("synth.cold_calls", s.cold_calls as f64);
        self.add("synth.cold_ms", s.cold_ms);
        self.add("synth.swap_ms", s.swap_ms);
    }

    /// Adds an optimizer run's accounting under the `opt.*` keys; passes
    /// are keyed by name without their basis suffix (`resynth[AshN(…)]`
    /// counts as `resynth`).
    pub fn add_opt(&mut self, stats: &OptStats) {
        self.add("opt.gates_removed", stats.gates_removed() as f64);
        self.add("opt.two_qubit_removed", stats.two_qubit_removed() as f64);
        self.add("opt.depth_removed", stats.depth_removed() as f64);
        self.add("opt.iterations", stats.iterations as f64);
        for pass in &stats.passes {
            let name = pass.pass.split('[').next().unwrap_or(&pass.pass);
            self.add(&format!("opt.pass.{name}.fired"), pass.fired as f64);
        }
    }
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}
