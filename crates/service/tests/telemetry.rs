//! Telemetry contract of the batch service: each event has one name
//! (`ServiceStats` is published under `service.*`, `CachedBasis` lookups
//! under `cache.lookup.*`, and neither counts the other's events), the
//! journal is a deterministic flight recorder (zero-fault runs produce
//! identical masked journals at any worker count), and the exporters
//! round-trip the same values as the stats structs.
//!
//! Every test installs a fresh [`Registry`] on its own thread, so the
//! suite is immune to test-parallelism and to the process-global default.

mod common;

use ashn_gates::two::{cnot, cz, iswap, swap};
use ashn_ir::{Basis, BasisMetadata, Circuit, SynthError};
use ashn_math::randmat::haar_unitary;
use ashn_math::CMat;
use ashn_service::{CompileService, ServiceStats, ShardedCache};
use ashn_synth::basis::CzBasis;
use ashn_synth::cache::{CacheStats, CachedBasis};
use ashn_synth::retarget::standard_rules;
use ashn_telemetry::{install, Registry};
use common::{dressed, ExactBasis};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A CZ-identity basis (so the closed-form rule tier applies) whose
/// numeric path deterministically fails for some matrices: entry (0,0)
/// of the class representative decides, so the same batch always
/// degrades the same classes — mixed rule/warm/cold/degraded traffic
/// without the fault-injection feature.
struct FlakyCz;

impl Basis for FlakyCz {
    fn name(&self) -> String {
        CzBasis.name()
    }

    fn cache_params(&self) -> String {
        CzBasis.cache_params()
    }

    fn synthesize(&self, u: &CMat) -> Result<Circuit, SynthError> {
        if u[(0, 0)].norm_sqr() < 0.0625 {
            return Err(SynthError::Convergence {
                basis: self.name(),
                detail: "deterministic test failure".into(),
            });
        }
        CzBasis.synthesize(u)
    }

    fn expected_entanglers(&self, u: &CMat) -> usize {
        CzBasis.expected_entanglers(u)
    }

    fn metadata(&self) -> Option<BasisMetadata> {
        CzBasis.metadata()
    }
}

/// Rule-covered, warm-cacheable, and Haar traffic in one pool.
fn mixed_pool(seed: u64) -> Vec<CMat> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool = vec![cnot(), cz(), swap(), iswap(), dressed(&cnot(), &mut rng)];
    let bases: Vec<CMat> = (0..8).map(|_| haar_unitary(4, &mut rng)).collect();
    for base in &bases {
        pool.push(base.clone());
        pool.push(dressed(base, &mut rng));
        pool.push(base.clone()); // exact repeat
    }
    pool
}

/// Each event has one name. A service serve is counted in `ServiceStats`
/// alone and published once per batch under `service.*`, so under mixed
/// rule/cache/degraded/retried traffic the registry equals the summed
/// stats name for name, and the store's lookup counters — which count
/// `CachedBasis` lookups only — stay at zero. A `CachedBasis` over the same
/// store then moves `cache.lookup.*` in step with `CacheStats`.
#[test]
fn mixed_traffic_accounting_never_drifts() {
    let reg = Registry::with_journal_capacity(0);
    let _guard = install(&reg);
    let cache = ShardedCache::new();
    let service = CompileService::with_cache(FlakyCz, cache.clone())
        .workers(2)
        .max_attempts(2);

    // Two batches: the second re-serves batch-one classes warm, so exact
    // hits, class hits, rule hits, cold serves, and degraded serves all
    // occur before we reconcile.
    let mut totals = Vec::new();
    for seed in [0xd41f_u64, 0xd420] {
        let batch = service.synthesize_batch(&mixed_pool(seed));
        for circuit in &batch.circuits {
            assert!(circuit.is_ok(), "every request must resolve");
        }
        totals.push(batch.stats);
    }
    let sum = |f: fn(&ServiceStats) -> u64| totals.iter().map(f).sum::<u64>();
    assert!(sum(|s| s.rule_hits) > 0, "pool must exercise the rule tier");
    assert!(
        sum(|s| s.degraded) > 0,
        "pool must exercise the degraded tier"
    );
    assert!(
        sum(|s| s.retries) > 0,
        "failed classes must count their retries"
    );
    assert!(
        sum(|s| s.exact_hits) > 0 && sum(|s| s.class_hits) > 0,
        "pool must exercise warm serves"
    );
    // Every target lands in exactly one serve tier.
    assert_eq!(
        sum(|s| s.exact_hits + s.class_hits + s.rule_hits + s.cold_serves + s.degraded + s.failed),
        sum(|s| s.targets as u64)
    );

    let snap = reg.snapshot();
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    for (name, value) in [
        ("service.batches", totals.len() as u64),
        ("service.requests", sum(|s| s.requests as u64)),
        ("service.targets", sum(|s| s.targets as u64)),
        ("service.serve.exact", sum(|s| s.exact_hits)),
        ("service.serve.redressed", sum(|s| s.class_hits)),
        ("service.serve.rule", sum(|s| s.rule_hits)),
        ("service.serve.cold", sum(|s| s.cold_serves)),
        ("service.serve.degraded", sum(|s| s.degraded)),
        ("service.serve.failed", sum(|s| s.failed)),
        ("service.retries", sum(|s| s.retries)),
        ("service.quarantined", sum(|s| s.quarantined)),
        ("service.worker_panics", sum(|s| s.worker_panics)),
    ] {
        assert_eq!(c(name), value, "registry value for {name}");
    }
    for name in [
        "cache.lookup.exact",
        "cache.lookup.class",
        "cache.lookup.rule",
        "cache.lookup.miss",
    ] {
        assert_eq!(c(name), 0, "a service serve was counted as {name}");
    }
    assert_eq!(cache.stats().lookups(), 0, "the service recorded a lookup");
    for retired in ["cache.lookups", "synth.resilience.retries"] {
        assert_eq!(snap.counter(retired), None, "{retired} is still published");
    }

    // The facade's store path on the same cache and registry.
    let cached = CachedBasis::with_store(FlakyCz, cache.clone()).with_rules(standard_rules());
    for target in &mixed_pool(0xd421) {
        let _ = cached.synthesize(target);
    }
    let store = cache.stats();
    assert!(store.misses > 0 && store.hits() > 0);
    let view = CacheStats::from_telemetry(&reg.snapshot());
    assert_eq!(
        (
            view.exact_hits,
            view.class_hits,
            view.rule_hits,
            view.misses
        ),
        (
            store.exact_hits,
            store.class_hits,
            store.rule_hits,
            store.misses
        )
    );
}

/// Satellite: the journal is a replayable flight recorder. Zero-fault
/// runs of the same batch produce byte-identical masked journals at 1, 4,
/// and 16 workers — events are emitted only from the coordinator with
/// count-valued fields, so worker scheduling cannot leak in.
#[test]
fn zero_fault_journal_is_identical_across_worker_counts() {
    let targets = mixed_pool(0x70a1);
    let mut journals: Vec<Vec<String>> = Vec::new();
    for workers in [1usize, 4, 16] {
        let reg = Registry::with_journal_capacity(1024);
        let _guard = install(&reg);
        let service = CompileService::with_cache(ExactBasis, ShardedCache::new()).workers(workers);
        let batch = service.synthesize_batch(&targets);
        assert_eq!(batch.stats.worker_panics, 0);
        assert_eq!(batch.stats.degraded, 0);
        journals.push(
            reg.journal_snapshot()
                .iter()
                .map(|event| event.masked_line())
                .collect(),
        );
    }
    assert!(
        !journals[0].is_empty(),
        "a batch must leave a journal trail"
    );
    assert_eq!(journals[0], journals[1], "1 worker vs 4 workers diverged");
    assert_eq!(journals[0], journals[2], "1 worker vs 16 workers diverged");
}

/// Acceptance: the exporters carry exactly the values the stats structs
/// report — `ServiceStats` under `service.*`, the `CacheStats` of
/// `CachedBasis` lookups under `cache.lookup.*` (read back by
/// `CacheStats::from_telemetry`) — in JSON and Prometheus alike.
#[test]
fn exporters_round_trip_the_legacy_stats() {
    let reg = Registry::with_journal_capacity(64);
    let _guard = install(&reg);
    let cache = ShardedCache::new();
    let service = CompileService::with_cache(CzBasis, cache.clone());
    let stats = service.synthesize_batch(&mixed_pool(0xe4b0)).stats;
    let cached = CachedBasis::with_store(CzBasis, cache.clone()).with_rules(standard_rules());
    for target in &mixed_pool(0xe4b1) {
        cached.synthesize(target).expect("CZ serves every target");
    }
    let lookups = cache.stats();
    let snap = reg.snapshot();

    // The registry view of lookup traffic IS the cache's own accounting.
    let view = CacheStats::from_telemetry(&snap);
    assert_eq!(view.exact_hits, lookups.exact_hits);
    assert_eq!(view.class_hits, lookups.class_hits);
    assert_eq!(view.rule_hits, lookups.rule_hits);
    assert_eq!(view.misses, lookups.misses);

    // Both exporters carry the identical values, verbatim.
    let json = snap.render_json();
    let prom = snap.render_prometheus();
    for (name, value) in [
        ("cache.lookup.rule", lookups.rule_hits),
        ("cache.lookup.miss", lookups.misses),
        ("service.serve.rule", stats.rule_hits),
        ("service.serve.cold", stats.cold_serves),
        ("service.requests", stats.requests as u64),
        ("service.batches", 1),
    ] {
        assert_eq!(snap.counter(name), Some(value), "registry value for {name}");
        assert!(
            json.contains(&format!("\"{name}\": {value}")),
            "JSON must carry {name} = {value}"
        );
        let prom_line = format!("ashn_{} {value}", name.replace('.', "_"));
        assert!(
            prom.contains(&prom_line),
            "Prometheus must carry `{prom_line}`"
        );
    }

    // The batch span landed in a histogram both exporters expose.
    let h = snap
        .histogram("service.batch")
        .expect("batch span recorded");
    assert_eq!(h.count, 1);
    assert!(json.contains("\"service.batch\""));
    assert!(prom.contains("ashn_service_batch_count 1"));
    assert!(prom.contains("ashn_service_batch_bucket{le=\"+Inf\"} 1"));

    // And the human-readable report surfaces the same snapshot.
    let report = snap.render_text();
    assert!(report.contains("cache.lookup.rule"));
    assert!(report.contains("service.batch"));
}
