//! Telemetry contract of the batch service: the registry is the one
//! accounting path (struct stats are views over it, so they can never
//! drift), the journal is a deterministic flight recorder (zero-fault
//! runs produce identical masked journals at any worker count), and the
//! exporters round-trip the same values as the legacy stats structs.
//!
//! Every test installs a fresh [`Registry`] on its own thread, so the
//! suite is immune to test-parallelism and to the process-global default.

mod common;

use ashn_gates::two::{cnot, cz, iswap, swap};
use ashn_ir::{Basis, BasisMetadata, Circuit, SynthError};
use ashn_math::randmat::haar_unitary;
use ashn_math::CMat;
use ashn_service::{CompileService, ShardedCache};
use ashn_synth::basis::CzBasis;
use ashn_synth::cache::CacheStats;
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

/// Satellite: stats-drift regression. ServiceStats, CacheStats, and the
/// registry are updated on one path, so under mixed rule/cache/degraded
/// traffic the tier sums must reconcile exactly:
/// `hits + rule_hits + misses == lookups` on both the struct and the
/// registry, and the two must agree counter for counter.
#[test]
fn mixed_traffic_accounting_never_drifts() {
    let reg = Registry::with_journal_capacity(0);
    let _guard = install(&reg);
    let service = CompileService::with_cache(FlakyCz, ShardedCache::new()).workers(2);

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
    let rule_hits: u64 = totals.iter().map(|s| s.rule_hits).sum();
    let degraded: u64 = totals.iter().map(|s| s.degraded).sum();
    assert!(rule_hits > 0, "pool must exercise the rule tier");
    assert!(degraded > 0, "pool must exercise the degraded tier");
    assert!(
        totals.iter().any(|s| s.exact_hits > 0) && totals.iter().any(|s| s.class_hits > 0),
        "pool must exercise warm serves"
    );

    // Struct-level identity (the legacy invariant).
    let cache = service.cache().stats();
    assert_eq!(
        cache.hits() + cache.misses,
        cache.lookups(),
        "hits + rule_hits + misses must equal lookups"
    );

    // Registry-level identity, and struct == registry: one accounting path.
    let snap = reg.snapshot();
    let c = |name: &str| snap.counter(name).unwrap_or(0);
    assert_eq!(
        c("cache.lookup.exact")
            + c("cache.lookup.class")
            + c("cache.lookup.rule")
            + c("cache.lookup.miss"),
        c("cache.lookups"),
        "registry lookup tiers must sum to the lookup total"
    );
    assert_eq!(c("cache.lookups"), cache.lookups());
    assert_eq!(c("cache.lookup.exact"), cache.exact_hits);
    assert_eq!(c("cache.lookup.class"), cache.class_hits);
    assert_eq!(c("cache.lookup.rule"), cache.rule_hits);
    assert_eq!(c("cache.lookup.miss"), cache.misses);

    // Serve-tier mirrors reconcile with the summed per-batch stats.
    let sum = |f: fn(&ashn_service::ServiceStats) -> u64| totals.iter().map(f).sum::<u64>();
    assert_eq!(c("service.serve.exact"), sum(|s| s.exact_hits));
    assert_eq!(c("service.serve.redressed"), sum(|s| s.class_hits));
    assert_eq!(c("service.serve.rule"), sum(|s| s.rule_hits));
    assert_eq!(c("service.serve.cold"), sum(|s| s.cold_serves));
    assert_eq!(c("service.serve.degraded"), sum(|s| s.degraded));
    assert_eq!(c("service.serve.failed"), sum(|s| s.failed));
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

/// Acceptance: the exporters and the legacy stats structs are views over
/// the same registry — JSON and Prometheus renderings carry exactly the
/// values the structs report, and `CacheStats::from_telemetry` round-trips
/// the lookup traffic.
#[test]
fn exporters_round_trip_the_legacy_stats() {
    let reg = Registry::with_journal_capacity(64);
    let _guard = install(&reg);
    let service = CompileService::with_cache(CzBasis, ShardedCache::new());
    let batch = service.synthesize_batch(&mixed_pool(0xe4b0));
    let stats = batch.stats;
    let cache = service.cache().stats();
    let snap = reg.snapshot();

    // The registry view of lookup traffic IS the cache's own accounting.
    let view = CacheStats::from_telemetry(&snap);
    assert_eq!(view.exact_hits, cache.exact_hits);
    assert_eq!(view.class_hits, cache.class_hits);
    assert_eq!(view.rule_hits, cache.rule_hits);
    assert_eq!(view.misses, cache.misses);
    assert_eq!(view.lookups(), cache.lookups());

    // Both exporters carry the identical values, verbatim.
    let json = snap.render_json();
    let prom = snap.render_prometheus();
    for (name, value) in [
        ("cache.lookups", cache.lookups()),
        ("cache.lookup.rule", cache.rule_hits),
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
    assert!(report.contains("cache.lookups"));
    assert!(report.contains("service.batch"));
}
