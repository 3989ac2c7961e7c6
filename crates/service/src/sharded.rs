//! A process-wide, lock-striped synthesis cache.
//!
//! One [`ShardedCache`] is meant to outlive every individual compiler: it
//! is `Clone` (shared handle), striped over independently locked shards so
//! concurrent compilers rarely contend, bounded per shard with LRU
//! eviction, and persistable to disk ([`ShardedCache::save`] /
//! [`ShardedCache::warm_start`]) so nothing learned in one process is lost
//! to the next. It implements [`ClassStore`], so it plugs into
//! [`ashn_synth::cache::CachedBasis`] (and thus `ashn::Compiler`)
//! anywhere a [`SynthCache`] does.

use crate::persist::{self, LoadOutcome, LoadReport};
use ashn_synth::cache::{CacheStats, ClassEntry, ClassKey, ClassStore, Lookup, SynthCache};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::Path;
use std::sync::Arc;

/// Default shard count: enough stripes that a 16-worker pool rarely
/// contends on one lock.
pub const DEFAULT_SHARDS: usize = 16;

/// Default total capacity across shards.
pub const DEFAULT_CAPACITY: usize = 4096;

/// Lock-striped, bounded, persistent class→circuit store shared via
/// cloned handles.
///
/// Each shard is a [`SynthCache`] (bounded LRU with its own mutex and
/// counters); keys are routed to shards by hash, and
/// [`ShardedCache::stats`] aggregates the per-shard counters. Cloning is
/// cheap and shares the underlying storage.
#[derive(Clone, Debug)]
pub struct ShardedCache {
    shards: Arc<Vec<SynthCache>>,
}

impl ShardedCache {
    /// A cache with [`DEFAULT_SHARDS`] shards and [`DEFAULT_CAPACITY`]
    /// total entries.
    pub fn new() -> Self {
        Self::with_config(DEFAULT_SHARDS, DEFAULT_CAPACITY)
    }

    /// A cache with `shards` stripes holding at most `total_capacity`
    /// entries overall (split evenly, rounded up).
    ///
    /// # Panics
    ///
    /// Panics when `shards` or `total_capacity` is zero.
    pub fn with_config(shards: usize, total_capacity: usize) -> Self {
        assert!(shards > 0, "shard count must be positive");
        assert!(total_capacity > 0, "cache capacity must be positive");
        let per_shard = total_capacity.div_ceil(shards);
        Self {
            shards: Arc::new(
                (0..shards)
                    .map(|_| SynthCache::with_capacity(per_shard))
                    .collect(),
            ),
        }
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_for(&self, key: &ClassKey) -> &SynthCache {
        // DefaultHasher with fixed (zero) keys: deterministic across
        // processes, so a persisted cache warms the same shards it came
        // from (not that correctness depends on it — any shard serves).
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    /// Aggregated hit/miss/occupancy counters across every shard.
    pub fn stats(&self) -> CacheStats {
        self.shards
            .iter()
            .map(SynthCache::stats)
            .fold(CacheStats::default(), |acc, s| acc.merge(&s))
    }

    /// Total entries currently stored.
    pub fn len(&self) -> usize {
        self.stats().len
    }

    /// Whether no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry in every shard (counters are kept).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard.clear();
        }
    }

    /// Every stored entry across all shards, sorted by key — the
    /// deterministic order [`ShardedCache::save`] serializes in.
    pub fn export_entries(&self) -> Vec<(ClassKey, ClassEntry)> {
        let mut out: Vec<(ClassKey, ClassEntry)> = self
            .shards
            .iter()
            .flat_map(|s| s.export_entries())
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Serializes every cached class to `path` in the versioned format of
    /// [`crate::persist`] (lossless: every `f64` is written as its exact
    /// bit pattern). Returns the number of entries written.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<usize> {
        persist::save_to_path(path, &self.export_entries())
    }

    /// Warm-starts this cache from a file written by [`ShardedCache::save`].
    ///
    /// Degrades instead of erroring: a missing file, a version mismatch,
    /// or a corrupt/truncated file leaves the cache cold (any partially
    /// loaded entries are discarded) and reports why in the returned
    /// [`LoadReport`] — service boot never fails because last run's cache
    /// went bad.
    pub fn warm_start(&self, path: impl AsRef<Path>) -> LoadReport {
        let entries = match persist::load_from_path(path) {
            Ok(entries) => entries,
            Err(outcome) => return LoadReport { loaded: 0, outcome },
        };
        let loaded = entries.len();
        for (key, entry) in entries {
            self.shard_for(&key).store(key, entry);
        }
        LoadReport {
            loaded,
            outcome: LoadOutcome::Warm,
        }
    }
}

impl Default for ShardedCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ClassStore for ShardedCache {
    fn fetch(&self, key: &ClassKey) -> Option<ClassEntry> {
        self.shard_for(key).fetch(key)
    }

    fn store(&self, key: ClassKey, entry: ClassEntry) {
        self.shard_for(&key).store(key, entry);
    }

    fn record(&self, outcome: Lookup) {
        // Attribute `CachedBasis` lookups to shard 0: per-shard attribution
        // needs the key, which `ClassStore::record` deliberately does not
        // take. `stats` sums the shards for `Compiler::synth_stats`; the
        // compile service never records here.
        self.shards[0].record(outcome);
    }

    fn evict(&self, key: &ClassKey) -> bool {
        self.shard_for(key).evict(key)
    }
}
