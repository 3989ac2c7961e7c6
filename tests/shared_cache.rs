//! The facade↔service bridge: several `Compiler`s (and a
//! `CompileService`) share one process-wide `ShardedCache`, so classes
//! synthesized by any of them warm all of them.

use ashn::prelude::*;
use ashn::qv::sample_model_circuit;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn compilers_share_one_sharded_cache() {
    let cache = ShardedCache::new();
    let mut rng = StdRng::seed_from_u64(11);
    let model = sample_model_circuit(3, &mut rng);

    let first = Compiler::new().with_shared_cache(&cache);
    let compiled_first = first.compile(&model).expect("compile");
    let after_first = first.synth_stats();
    assert!(after_first.misses > 0, "cold compile must miss");

    // A *different* compiler instance pointed at the same cache compiles
    // the same model without a single cold synthesis.
    let second = Compiler::new().with_shared_cache(&cache);
    let compiled_second = second.compile(&model).expect("compile");
    let after_second = second.synth_stats();
    assert_eq!(
        after_second.misses, after_first.misses,
        "second compiler re-synthesized classes the first already solved"
    );
    assert!(
        after_second.exact_hits + after_second.class_hits
            > after_first.exact_hits + after_first.class_hits
    );

    // Same model, same basis, same cache: identical output.
    assert_eq!(
        compiled_first.circuit().instructions.len(),
        compiled_second.circuit().instructions.len()
    );
    for (a, b) in compiled_first
        .circuit()
        .instructions
        .iter()
        .zip(&compiled_second.circuit().instructions)
    {
        assert_eq!(a.qubits, b.qubits);
        assert_eq!(a.duration.to_bits(), b.duration.to_bits());
    }
}

#[test]
fn service_and_compiler_share_synthesis_results() {
    let cache = ShardedCache::new();
    let mut rng = StdRng::seed_from_u64(23);
    let model = sample_model_circuit(3, &mut rng);

    // The compiler warms the cache…
    let compiler = Compiler::new().with_shared_cache(&cache);
    compiler.compile(&model).expect("compile");
    let warmed = cache.len();
    assert!(warmed > 0);

    // …and a batch service over the same cache + basis parameters serves
    // repeated classes without growing it for free targets it has seen.
    let service = CompileService::with_cache(
        ashn::synth::basis::AshnBasis::with_cutoff(0.0, 1.1),
        cache.clone(),
    )
    .workers(4);
    // Use the model's own gate unitaries as the service batch.
    let mut targets = Vec::new();
    for layer in &model.layers {
        for (_, gate) in layer {
            targets.push(gate.clone());
        }
    }
    let batch = service.synthesize_batch(&targets);
    assert_eq!(batch.stats.failed, 0);
    assert_eq!(
        batch.stats.cold_classes, 0,
        "every class was already warmed by the compiler"
    );
}

#[test]
fn service_serves_and_facade_lookups_are_counted_once() {
    let reg = ashn::telemetry::Registry::with_journal_capacity(0);
    let _guard = ashn::telemetry::install(&reg);
    let cache = ShardedCache::new();
    let mut rng = StdRng::seed_from_u64(31);
    let model = sample_model_circuit(3, &mut rng);
    let targets: Vec<_> = model
        .layers
        .iter()
        .flat_map(|layer| layer.iter().map(|(_, gate)| gate.clone()))
        .collect();

    // Service serves are counted in `ServiceStats` and `service.serve.*`
    // only: the shared store's lookup counters do not move.
    let service = CompileService::with_cache(ashn::synth::basis::CzBasis, cache.clone());
    let stats = service.synthesize_batch(&targets).stats;
    let snap = reg.snapshot();
    let served: u64 = ["exact", "redressed", "rule", "cold", "degraded", "failed"]
        .iter()
        .map(|tier| snap.counter(&format!("service.serve.{tier}")).unwrap_or(0))
        .sum();
    assert_eq!(served, stats.targets as u64);
    assert_eq!(cache.stats().lookups(), 0);

    // A facade compile on the same cache and registry: `cache.lookup.*`
    // is exactly what `Compiler::synth_stats` reports.
    let compiler = Compiler::new()
        .gate_set(GateSet::Cz)
        .with_shared_cache(&cache);
    compiler.compile(&model).expect("compile");
    let synth = compiler.synth_stats();
    assert!(synth.lookups() > 0);
    let view = ashn::synth::cache::CacheStats::from_telemetry(&reg.snapshot());
    assert_eq!(
        (
            view.exact_hits,
            view.class_hits,
            view.rule_hits,
            view.misses
        ),
        (
            synth.exact_hits,
            synth.class_hits,
            synth.rule_hits,
            synth.misses
        )
    );
}
