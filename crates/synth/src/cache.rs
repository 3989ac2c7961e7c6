//! A bounded synthesis memo-cache keyed by quantized Weyl coordinates.
//!
//! Two-qubit synthesis cost is dominated by per-*class* work — the AshN
//! pulse compilation is a numerical search over the local-equivalence
//! class of the target, not the target itself. [`CachedBasis`] exploits that: the first synthesis of a class
//! stores the resulting circuit, and later targets of the same class are
//! served by re-dressing the stored circuit with KAK-computed single-qubit
//! corrections ([`align_to_target`]) instead of re-running the search.
//!
//! Repeated *targets* (the dominant pattern in batched experiment sweeps:
//! routed SWAPs, repeated bench models, scoring one compilation at many
//! noise levels) are re-dressed by exactly-identity corrections, which are
//! trimmed away — a hit returns an instruction list identical to the cold
//! synthesis. The cache is bounded (least-recently-used eviction) and
//! internally locked, so one instance can serve every worker of a batch
//! run.
//!
//! The storage behind [`CachedBasis`] is pluggable via [`ClassStore`]:
//! [`SynthCache`] is one single-mutex LRU store; `ashn-service`'s
//! `ShardedCache` stripes [`SynthCache`] shards over many locks (one shard
//! is the private store of an `ashn::Compiler`) and persists them to disk.
//! Both front ends share [`ClassKey`]/[`ClassEntry`], the serve logic
//! ([`serve_from_entry`]) and the SWAP memo ([`memo_native_swap`]) with
//! this module. The closed-form rule tier
//! ([`RuleSet::serve`](crate::retarget::RuleSet::serve)) stores nothing:
//! every store entry is a numeric synthesis or a `native_swap`.

use crate::circuit2::{align_to_target, TwoQubitCircuit};
use ashn_gates::kak::{weyl_coordinates, weyl_coordinates4};
use ashn_gates::weyl::WeylPoint;
use ashn_ir::{Basis, Circuit, SynthEffort, SynthError};
use ashn_math::{CMat, Mat4};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

/// Quantization step for the Weyl-coordinate key. Coarse enough that the
/// numerical noise of `weyl_coordinates` (≲1e-9) rarely splits a class
/// across cells, fine enough that any same-cell pair is far inside the
/// `1e-6` class-match tolerance of [`align_to_target`].
const QUANT: f64 = 1e-7;

/// Targets closer than this (Frobenius) to a stored entry's target are
/// treated as exact repeats and served the stored circuit verbatim.
const REPEAT_TOL: f64 = 1e-12;

/// A stored circuit may only be re-dressed when it realizes its class
/// within this coordinate distance ([`align_to_target`] asserts at 1e-6).
const REDRESS_TOL: f64 = 5e-7;

/// The class identity of a cached synthesis result.
///
/// Keys carry the basis display name **and** its [`Basis::cache_params`]
/// because one store may be shared across wrappers of *different* bases —
/// a CZ-basis circuit must never serve an SQiSW-basis hit, and two AshN
/// schemes that differ only in the `ZZ` ratio `h̃` (same display name)
/// must never serve each other. The swap flag separates
/// [`Basis::native_swap`] entries from plain synthesis, because a basis
/// may override `native_swap` with a decomposition its `synthesize` would
/// not produce.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassKey {
    /// Basis display name ([`Basis::name`]).
    pub basis: String,
    /// Scheme parameters ([`Basis::cache_params`]).
    pub params: String,
    /// Quantized canonical Weyl coordinates.
    pub x: i64,
    /// Quantized canonical Weyl coordinates.
    pub y: i64,
    /// Quantized canonical Weyl coordinates.
    pub z: i64,
    /// Whether this entry memoizes [`Basis::native_swap`].
    pub swap: bool,
}

fn quantize(x: f64) -> i64 {
    (x / QUANT).round() as i64
}

impl ClassKey {
    /// The key for `point` under `basis` (quantizing the coordinates and
    /// capturing the basis name + parameters).
    pub fn new(basis: &(impl Basis + ?Sized), point: WeylPoint, swap: bool) -> Self {
        Self {
            basis: basis.name(),
            params: basis.cache_params(),
            x: quantize(point.x),
            y: quantize(point.y),
            z: quantize(point.z),
            swap,
        }
    }
}

/// One memoized class: the circuit the cold synthesis produced and the
/// target it was synthesized for.
#[derive(Clone, Debug)]
pub struct ClassEntry {
    /// The target the stored circuit was synthesized for.
    pub target: CMat,
    /// The cold-synthesis output.
    pub circuit: TwoQubitCircuit,
}

/// How a cache lookup resolved (see [`CacheStats`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lookup {
    /// Served the stored circuit verbatim (exact target repeat).
    ExactHit,
    /// Served by re-dressing a same-class entry with computed locals.
    ClassHit,
    /// Served closed-form by the retargeting rule tier
    /// (`crate::retarget`) — no numeric synthesis ran.
    RuleHit,
    /// Fell through to cold synthesis.
    Miss,
}

/// Storage interface behind [`CachedBasis`]: any thread-safe class→circuit
/// map with hit/miss accounting. Implemented by [`SynthCache`] (single
/// mutex, per-`Compiler`) and `ashn_service::ShardedCache` (lock-striped,
/// process-wide, persistent).
pub trait ClassStore {
    /// Looks up a stored class (no stats side effects — attribution
    /// happens once the caller knows how the entry was used, via
    /// [`ClassStore::record`]).
    fn fetch(&self, key: &ClassKey) -> Option<ClassEntry>;

    /// Inserts (or replaces) a class.
    fn store(&self, key: ClassKey, entry: ClassEntry);

    /// Attributes one [`CachedBasis`] lookup to a hit tier or a miss (a
    /// `CompileService` serve is counted in its `ServiceStats` instead).
    fn record(&self, outcome: Lookup);

    /// Removes a class that failed post-serve verification (quarantine),
    /// returning whether an entry was present. The default is a no-op for
    /// read-only or fan-out stores that cannot evict.
    fn evict(&self, key: &ClassKey) -> bool {
        let _ = key;
        false
    }
}

/// Serves a synthesis request for `u` (canonical coordinates `coords`)
/// from a stored same-class entry, if possible.
///
/// An exact target repeat (within `1e-12` Frobenius) returns the stored
/// circuit verbatim; any other same-class target is re-dressed with
/// KAK-computed outer locals via [`align_to_target`], with the correction
/// locals fused into the stored circuit's boundary locals so the hit
/// carries the same single-qubit gate count (and thus the same per-gate
/// noise charge) as a cold synthesis. Returns `None` when the stored
/// circuit's realized class has drifted too far to re-dress safely — the
/// caller should fall through to cold synthesis.
pub fn serve_from_entry(
    u: &CMat,
    coords: WeylPoint,
    entry: &ClassEntry,
) -> Option<(Circuit, Lookup)> {
    if u.dist(&entry.target) < REPEAT_TOL {
        return Some((entry.circuit.clone().into(), Lookup::ExactHit));
    }
    let realized = weyl_coordinates(&entry.circuit.unitary()).canonicalize();
    if realized.gate_dist(coords) < REDRESS_TOL {
        let dressed: Circuit = align_to_target(u, entry.circuit.clone()).into();
        return Some((dressed.fuse_single_qubit_runs(), Lookup::ClassHit));
    }
    None
}

/// `basis`'s [`Basis::native_swap`], memoized in `store` under the
/// dedicated swap key: a stored entry is returned verbatim
/// ([`Lookup::ExactHit`]); otherwise the basis's own `native_swap` runs —
/// so a bespoke SWAP override is respected — and its result is stored
/// ([`Lookup::Miss`]). Recording the lookup is left to the caller:
/// [`CachedBasis`] records it, the compile service does not.
///
/// # Errors
///
/// The basis's `native_swap` error on a miss.
pub fn memo_native_swap(
    basis: &(impl Basis + ?Sized),
    store: &(impl ClassStore + ?Sized),
) -> Result<(Circuit, Lookup), SynthError> {
    let swap = ashn_gates::two::swap();
    let key = ClassKey::new(basis, weyl_coordinates(&swap).canonicalize(), true);
    if let Some(entry) = store.fetch(&key) {
        return Ok((entry.circuit.into(), Lookup::ExactHit));
    }
    let circuit = basis.native_swap()?;
    if let Ok(core) = TwoQubitCircuit::try_from(circuit.clone()) {
        store.store(
            key,
            ClassEntry {
                target: swap,
                circuit: core,
            },
        );
    }
    Ok((circuit, Lookup::Miss))
}

#[derive(Clone, Debug)]
struct Slot {
    entry: ClassEntry,
    stamp: u64,
}

#[derive(Debug, Default)]
struct CacheInner {
    map: HashMap<ClassKey, Slot>,
    tick: u64,
    exact_hits: u64,
    class_hits: u64,
    rule_hits: u64,
    misses: u64,
    evictions: u64,
}

/// Shared, bounded class→circuit store. A full cache discards the
/// least-recently-used entry, so repeated hot classes survive arbitrarily
/// long scans of cold ones.
#[derive(Clone, Debug)]
pub struct SynthCache {
    inner: Arc<Mutex<CacheInner>>,
    capacity: usize,
}

/// Hit/miss/occupancy snapshot of a [`SynthCache`].
///
/// Hits are split by what the cache had to do: an **exact** hit returns the
/// stored circuit verbatim (the target repeated to `1e-12`), a **class**
/// hit re-dresses the stored circuit of the same Weyl class with
/// KAK-computed locals, and a **miss** runs cold synthesis (including
/// lookups whose stored circuit had drifted too far to re-dress).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served verbatim (exact target repeat).
    pub exact_hits: u64,
    /// Lookups served by re-dressing a same-class entry.
    pub class_hits: u64,
    /// Lookups served closed-form by the retargeting rule tier (never
    /// counted as misses; the numeric path did not run).
    pub rule_hits: u64,
    /// Lookups that fell through to cold synthesis.
    pub misses: u64,
    /// Entries discarded to stay within capacity.
    pub evictions: u64,
    /// Entries currently stored.
    pub len: usize,
    /// Maximum entries retained.
    pub capacity: usize,
}

impl CacheStats {
    /// Total lookups served without cold synthesis (exact + class + rule).
    pub fn hits(&self) -> u64 {
        self.exact_hits + self.class_hits + self.rule_hits
    }

    /// Total lookups observed.
    pub fn lookups(&self) -> u64 {
        self.hits() + self.misses
    }

    /// Fraction of lookups served from the cache (0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }

    /// The lookup counters as a view over a snapshot's `cache.lookup.*`
    /// counters — the [`CachedBasis`] lookups [`SynthCache::stats`] counts,
    /// since [`ClassStore::record`] updates both (a `CompileService` serve
    /// is counted under `service.serve.*`). Occupancy (`len`/`capacity`/
    /// `evictions`) is storage state, not lookup traffic, and stays zero.
    pub fn from_telemetry(snap: &ashn_telemetry::TelemetrySnapshot) -> CacheStats {
        CacheStats {
            exact_hits: snap.counter("cache.lookup.exact").unwrap_or(0),
            class_hits: snap.counter("cache.lookup.class").unwrap_or(0),
            rule_hits: snap.counter("cache.lookup.rule").unwrap_or(0),
            misses: snap.counter("cache.lookup.miss").unwrap_or(0),
            ..CacheStats::default()
        }
    }

    /// Component-wise sum (used to aggregate per-shard stats).
    pub fn merge(&self, other: &CacheStats) -> CacheStats {
        CacheStats {
            exact_hits: self.exact_hits + other.exact_hits,
            class_hits: self.class_hits + other.class_hits,
            rule_hits: self.rule_hits + other.rule_hits,
            misses: self.misses + other.misses,
            evictions: self.evictions + other.evictions,
            len: self.len + other.len,
            capacity: self.capacity + other.capacity,
        }
    }
}

impl SynthCache {
    /// An LRU cache retaining at most `capacity` classes.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        Self {
            inner: Arc::new(Mutex::new(CacheInner::default())),
            capacity,
        }
    }

    /// Maximum entries retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current hit/miss/occupancy counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        CacheStats {
            exact_hits: inner.exact_hits,
            class_hits: inner.class_hits,
            rule_hits: inner.rule_hits,
            misses: inner.misses,
            evictions: inner.evictions,
            len: inner.map.len(),
            capacity: self.capacity,
        }
    }

    /// Drops every entry (counters are kept).
    pub fn clear(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.map.clear();
    }

    /// Every stored entry, sorted by key — the deterministic iteration
    /// order the persistence layer serializes in.
    pub fn export_entries(&self) -> Vec<(ClassKey, ClassEntry)> {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out: Vec<(ClassKey, ClassEntry)> = inner
            .map
            .iter()
            .map(|(k, slot)| (k.clone(), slot.entry.clone()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

impl ClassStore for SynthCache {
    fn fetch(&self, key: &ClassKey) -> Option<ClassEntry> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.get_mut(key).map(|slot| {
            slot.stamp = tick;
            slot.entry.clone()
        })
    }

    fn store(&self, key: ClassKey, entry: ClassEntry) {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.tick += 1;
        let stamp = inner.tick;
        if !inner.map.contains_key(&key) {
            while inner.map.len() >= self.capacity {
                // Oldest stamp = least recently used. Ties are impossible:
                // the tick is strictly increasing.
                let victim = inner
                    .map
                    .iter()
                    .min_by_key(|(_, slot)| slot.stamp)
                    .map(|(k, _)| k.clone());
                match victim {
                    Some(k) => {
                        inner.map.remove(&k);
                        inner.evictions += 1;
                    }
                    None => break,
                }
            }
        }
        inner.map.insert(key, Slot { entry, stamp });
    }

    fn record(&self, outcome: Lookup) {
        // The one accounting path for lookup outcomes: every store-level
        // counter AND the telemetry registry are updated here (and only
        // here), so `CacheStats` views and the exported snapshot can never
        // drift apart. `ShardedCache` funnels its `record` through one
        // shard, which lands in this same body.
        let telemetry = ashn_telemetry::current();
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        match outcome {
            Lookup::ExactHit => {
                inner.exact_hits += 1;
                telemetry.add("cache.lookup.exact", 1);
            }
            Lookup::ClassHit => {
                inner.class_hits += 1;
                telemetry.add("cache.lookup.class", 1);
            }
            Lookup::RuleHit => {
                inner.rule_hits += 1;
                telemetry.add("cache.lookup.rule", 1);
            }
            Lookup::Miss => {
                inner.misses += 1;
                telemetry.add("cache.lookup.miss", 1);
            }
        }
    }

    fn evict(&self, key: &ClassKey) -> bool {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let present = inner.map.remove(key).is_some();
        if present {
            inner.evictions += 1;
        }
        present
    }
}

impl Default for SynthCache {
    fn default() -> Self {
        Self::with_capacity(256)
    }
}

/// A [`Basis`] decorator adding the class-keyed memo-cache to any native
/// gate set. Generic over the storage: the default [`SynthCache`], or any
/// other [`ClassStore`] (e.g. `ashn_service::ShardedCache`) via
/// [`CachedBasis::with_store`].
#[derive(Clone, Debug)]
pub struct CachedBasis<B, S = SynthCache> {
    inner: B,
    cache: S,
    rules: Option<std::sync::Arc<crate::retarget::RuleSet>>,
}

impl<B: Basis> CachedBasis<B> {
    /// Wraps `inner` with a default-capacity cache.
    pub fn new(inner: B) -> Self {
        Self {
            inner,
            cache: SynthCache::default(),
            rules: None,
        }
    }

    /// Wraps `inner` with an explicit cache (sharable across wrappers).
    pub fn with_cache(inner: B, cache: SynthCache) -> Self {
        Self {
            inner,
            cache,
            rules: None,
        }
    }

    /// The underlying cache (for stats and sharing).
    pub fn cache(&self) -> &SynthCache {
        &self.cache
    }
}

impl<B: Basis, S: ClassStore> CachedBasis<B, S> {
    /// Wraps `inner` over any [`ClassStore`] backend.
    pub fn with_store(inner: B, cache: S) -> Self {
        Self {
            inner,
            cache,
            rules: None,
        }
    }

    /// Arms the closed-form retargeting rule tier
    /// (`crate::retarget::standard_rules` or a custom table): targets
    /// whose class the target basis has a rule for are served from the
    /// table by [`RuleSet::serve`](crate::retarget::RuleSet::serve) —
    /// recorded as [`Lookup::RuleHit`], never stored — and never reach the
    /// memo-cache or the inner basis. Off by default, so a bare
    /// `CachedBasis` is bit-identical to the pre-rule behavior.
    #[must_use]
    pub fn with_rules(mut self, rules: std::sync::Arc<crate::retarget::RuleSet>) -> Self {
        self.rules = Some(rules);
        self
    }

    /// The wrapped basis.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// The armed rule table, if any.
    pub fn rules(&self) -> Option<&crate::retarget::RuleSet> {
        self.rules.as_deref()
    }
}

impl<B: Basis, S: ClassStore> Basis for CachedBasis<B, S> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn cache_params(&self) -> String {
        self.inner.cache_params()
    }

    fn synthesize(&self, u: &CMat) -> Result<Circuit, SynthError> {
        self.synthesize_with_effort(u, SynthEffort::default())
    }

    fn synthesize_with_effort(&self, u: &CMat, effort: SynthEffort) -> Result<Circuit, SynthError> {
        // Only well-formed two-qubit unitaries are keyable; anything else
        // goes straight to the inner basis (which reports the right error).
        // The unitarity check runs on a stack-allocated copy.
        let m4 = match Mat4::try_from(u) {
            Ok(m) if m.is_unitary(1e-6) => m,
            _ => return self.inner.synthesize_with_effort(u, effort),
        };
        let coords = weyl_coordinates4(&m4).canonicalize();
        // Tier 0: closed-form retargeting rules, ahead of the memo-cache
        // and the (possibly numeric) inner synthesis.
        if let Some(circuit) = self
            .rules
            .as_ref()
            .and_then(|rules| rules.serve(&self.inner, u, coords))
        {
            self.cache.record(Lookup::RuleHit);
            return Ok(circuit);
        }
        let key = ClassKey::new(&self.inner, coords, false);
        if let Some(entry) = self.cache.fetch(&key) {
            if let Some((circuit, outcome)) = serve_from_entry(u, coords, &entry) {
                self.cache.record(outcome);
                return Ok(circuit);
            }
        }
        self.cache.record(Lookup::Miss);
        let circuit = {
            let _span = ashn_telemetry::span!("synth.cold");
            self.inner.synthesize_with_effort(u, effort)?
        };
        if let Ok(core) = TwoQubitCircuit::try_from(circuit.clone()) {
            self.cache.store(
                key,
                ClassEntry {
                    target: u.clone(),
                    circuit: core,
                },
            );
        }
        Ok(circuit)
    }

    fn native_swap(&self) -> Result<Circuit, SynthError> {
        let (circuit, lookup) = memo_native_swap(&self.inner, &self.cache)
            .inspect_err(|_| self.cache.record(Lookup::Miss))?;
        self.cache.record(lookup);
        Ok(circuit)
    }

    fn expected_entanglers(&self, u: &CMat) -> usize {
        self.inner.expected_entanglers(u)
    }

    fn metadata(&self) -> Option<ashn_ir::BasisMetadata> {
        self.inner.metadata()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::{AshnBasis, CzBasis, SqiswBasis};
    use ashn_math::randmat::haar_unitary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Frobenius distance after optimally aligning the global phases.
    fn phase_invariant_distance(a: &CMat, b: &CMat) -> f64 {
        let tr = a.adjoint().matmul(b).trace();
        let phase = if tr.abs() > 1e-15 {
            tr / tr.abs()
        } else {
            ashn_math::Complex::ONE
        };
        a.scale(phase).dist(b)
    }

    #[test]
    fn hit_matches_cold_synthesis_exactly() {
        // Same target twice: the second call is a hit and must return a
        // circuit with identical gate counts and the same unitary (up to
        // global phase) as the cold synthesis.
        let mut rng = StdRng::seed_from_u64(601);
        for _ in 0..3 {
            let u = haar_unitary(4, &mut rng);
            let cached = CachedBasis::new(AshnBasis::ideal());
            let cold = cached.synthesize(&u).unwrap();
            assert_eq!(cached.cache().stats().misses, 1);
            let hit = cached.synthesize(&u).unwrap();
            assert_eq!(cached.cache().stats().exact_hits, 1);
            assert_eq!(hit.instructions.len(), cold.instructions.len());
            assert_eq!(hit.entangler_count(), cold.entangler_count());
            let d = phase_invariant_distance(&hit.unitary(), &cold.unitary());
            assert!(d < 1e-9, "hit differs from cold by {d}");
            assert!(hit.error(&u) < 1e-6);
        }
    }

    #[test]
    fn same_class_different_target_skips_reinstantiation() {
        // Dress one Haar target's class with fresh locals: the second
        // synthesis is served from the cache (one miss total) and still
        // reconstructs its own target with the same entangler count.
        let mut rng = StdRng::seed_from_u64(602);
        let u1 = haar_unitary(4, &mut rng);
        let l = haar_unitary(2, &mut rng).kron(&haar_unitary(2, &mut rng));
        let r = haar_unitary(2, &mut rng).kron(&haar_unitary(2, &mut rng));
        let u2 = l.matmul(&u1).matmul(&r);
        let cached = CachedBasis::new(SqiswBasis);
        let c1 = cached.synthesize(&u1).unwrap();
        let c2 = cached.synthesize(&u2).unwrap();
        let stats = cached.cache().stats();
        assert_eq!(
            (stats.misses, stats.class_hits, stats.exact_hits),
            (1, 1, 0)
        );
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(c2.entangler_count(), c1.entangler_count());
        assert!(c2.error(&u2) < 1e-5, "redressed error {}", c2.error(&u2));
    }

    #[test]
    fn cache_is_bounded_with_lru_eviction() {
        let mut rng = StdRng::seed_from_u64(603);
        let cached = CachedBasis::with_cache(CzBasis, SynthCache::with_capacity(3));
        for _ in 0..8 {
            let u = haar_unitary(4, &mut rng);
            cached.synthesize(&u).unwrap();
        }
        let stats = cached.cache().stats();
        assert!(stats.len <= 3, "cache grew to {}", stats.len);
        assert_eq!(stats.misses, 8);
        assert_eq!(stats.evictions, 5);
    }

    #[test]
    fn lru_eviction_keeps_the_hot_class() {
        // Capacity 2: synthesize A, B, re-touch A, then C. LRU must evict
        // B (A was used more recently), not the older insert A.
        let mut rng = StdRng::seed_from_u64(605);
        let a = haar_unitary(4, &mut rng);
        let b = haar_unitary(4, &mut rng);
        let c = haar_unitary(4, &mut rng);
        let cached = CachedBasis::with_cache(CzBasis, SynthCache::with_capacity(2));
        cached.synthesize(&a).unwrap();
        cached.synthesize(&b).unwrap();
        cached.synthesize(&a).unwrap(); // touch A
        cached.synthesize(&c).unwrap(); // evicts B
        let after_evict = cached.cache().stats();
        assert_eq!(after_evict.evictions, 1);
        cached.synthesize(&a).unwrap(); // still cached
        assert_eq!(
            cached.cache().stats().exact_hits,
            after_evict.exact_hits + 1,
            "LRU evicted the hot class"
        );
        cached.synthesize(&b).unwrap(); // gone: cold again
        assert_eq!(cached.cache().stats().misses, 4);
    }

    #[test]
    fn native_swap_is_cached() {
        let cached = CachedBasis::new(AshnBasis::ideal());
        let a = cached.native_swap().unwrap();
        let b = cached.native_swap().unwrap();
        assert_eq!(cached.cache().stats().exact_hits, 1);
        assert_eq!(a.instructions.len(), b.instructions.len());
        assert_eq!(b.entangler_count(), 1);
    }

    #[test]
    fn native_swap_respects_inner_overrides() {
        // A basis whose `native_swap` is NOT what `synthesize(SWAP)` would
        // produce: the cache must serve the override, and a prior cached
        // synthesis of the SWAP class must not shadow it.
        #[derive(Clone, Copy, Debug)]
        struct BespokeSwap;
        impl Basis for BespokeSwap {
            fn name(&self) -> String {
                "bespoke".into()
            }
            fn synthesize(&self, u: &CMat) -> Result<Circuit, SynthError> {
                SqiswBasis.synthesize(u)
            }
            fn native_swap(&self) -> Result<Circuit, SynthError> {
                let mut c = Circuit::new(2);
                c.instructions.push(ashn_ir::Instruction::new(
                    vec![0, 1],
                    ashn_gates::two::swap(),
                    "SWAP[bespoke]",
                ));
                Ok(c)
            }
            fn expected_entanglers(&self, _: &CMat) -> usize {
                1
            }
        }
        let cached = CachedBasis::new(BespokeSwap);
        // Populate the synthesis-path cache slot for the SWAP class first.
        let via_synth = cached.synthesize(&ashn_gates::two::swap()).unwrap();
        assert_eq!(via_synth.entangler_count(), 3, "SQiSW SWAP uses 3");
        for _ in 0..2 {
            let swap = cached.native_swap().unwrap();
            assert_eq!(swap.entangler_count(), 1);
            assert_eq!(swap.instructions[0].label, "SWAP[bespoke]");
        }
    }

    #[test]
    fn shared_cache_never_crosses_bases() {
        // One cache shared by two wrappers of *different* bases: the key
        // includes the basis name, so a CZ-class entry from the CZ basis
        // must not serve the SQiSW wrapper (whose circuits use different
        // entanglers).
        let mut rng = StdRng::seed_from_u64(604);
        let u = haar_unitary(4, &mut rng);
        let cache = SynthCache::default();
        let cz = CachedBasis::with_cache(CzBasis, cache.clone());
        let sq = CachedBasis::with_cache(SqiswBasis, cache.clone());
        let c_cz = cz.synthesize(&u).unwrap();
        let c_sq = sq.synthesize(&u).unwrap();
        assert_eq!(cache.stats().hits(), 0, "cross-basis hit served");
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(c_cz.entangler_count(), 3);
        assert!(c_sq.entangler_count() <= 3);
        for g in &c_sq.instructions {
            assert_ne!(g.label, "CZ", "SQiSW circuit contains a CZ entangler");
        }
        // And each wrapper still hits its own entry.
        let _ = cz.synthesize(&u).unwrap();
        assert_eq!(cache.stats().exact_hits, 1);
    }

    #[test]
    fn shared_cache_never_crosses_scheme_parameters() {
        // Two AshN schemes with the same cutoff (identical display name
        // "AshN(r=1.1)") but different ZZ ratios compile *different* pulses
        // for the same Weyl class. `Basis::cache_params` keeps them apart.
        let mut rng = StdRng::seed_from_u64(606);
        let u = haar_unitary(4, &mut rng);
        let cache = SynthCache::default();
        let ideal = CachedBasis::with_cache(AshnBasis::with_cutoff(0.0, 1.1), cache.clone());
        let zz = CachedBasis::with_cache(AshnBasis::with_cutoff(0.2, 1.1), cache.clone());
        assert_eq!(ideal.name(), zz.name(), "names must collide for this test");
        ideal.synthesize(&u).unwrap();
        zz.synthesize(&u).unwrap();
        assert_eq!(cache.stats().hits(), 0, "cross-parameter hit served");
        assert_eq!(cache.stats().misses, 2);
        // Each wrapper still hits its own entry.
        ideal.synthesize(&u).unwrap();
        assert_eq!(cache.stats().exact_hits, 1);
    }

    #[test]
    fn malformed_targets_bypass_the_cache() {
        let cached = CachedBasis::new(CzBasis);
        assert!(cached.synthesize(&CMat::zeros(4, 4)).is_err());
        assert!(cached.synthesize(&CMat::identity(8)).is_err());
        let stats = cached.cache().stats();
        assert_eq!((stats.hits(), stats.misses, stats.len), (0, 0, 0));
        assert_eq!(stats.hit_rate(), 0.0);
    }
}
