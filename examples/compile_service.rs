//! Compile-as-a-service: batch synthesis over a process-wide shared,
//! persistent cache.
//!
//! ```bash
//! cargo run --release --example compile_service
//! ```
//!
//! A `CompileService` takes whole batches of SU(4) targets (or full
//! circuits), dedups them by Weyl class *before* any expensive numerical
//! synthesis runs, fans the residual cold work across a deterministic
//! worker pool, and remembers every solved class in a `ShardedCache`
//! that persists across processes.

use ashn::prelude::*;
use ashn::qv::sample_model_circuit;
use ashn::service::OptLevel;
use ashn::synth::basis::AshnBasis;
use ashn_math::randmat::haar_unitary;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);

    // Service traffic: 24 distinct Weyl classes fanned out into 96
    // targets (exact repeats + same-class variants dressed with random
    // local gates) — the shape a scheduler feeding a device produces.
    let bases: Vec<_> = (0..24).map(|_| haar_unitary(4, &mut rng)).collect();
    let mut targets = Vec::new();
    for round in 0..4 {
        for base in &bases {
            if round == 0 {
                targets.push(base.clone());
            } else {
                let pre = haar_unitary(2, &mut rng).kron(&haar_unitary(2, &mut rng));
                let post = haar_unitary(2, &mut rng).kron(&haar_unitary(2, &mut rng));
                targets.push(&(&post * base) * &pre);
            }
        }
    }

    let cache = ShardedCache::new();
    let service =
        CompileService::with_cache(AshnBasis::with_cutoff(0.0, 1.1), cache.clone()).workers(4);

    // Cold batch: one EA synthesis per unique class, everything else is
    // served by re-dressing the class representative.
    let cold = service.synthesize_batch(&targets);
    println!(
        "cold batch : {} targets → {} classes ({:.1}x dedup), \
         {} cold syntheses, {:.0} targets/s",
        cold.stats.requests,
        cold.stats.unique_classes,
        cold.stats.dedup_ratio(),
        cold.stats.cold_classes,
        cold.stats.requests_per_sec()
    );
    let worst = targets
        .iter()
        .zip(&cold.circuits)
        .map(|(t, c)| c.as_ref().expect("synthesis").error(t))
        .fold(0.0f64, f64::max);
    println!("             worst target error {worst:.2e}");

    // Warm batch: the same traffic again costs zero synthesis.
    let warm = service.synthesize_batch(&targets);
    println!(
        "warm batch : {} cold syntheses, {:.0} targets/s ({:.1}x faster)",
        warm.stats.cold_classes,
        warm.stats.requests_per_sec(),
        cold.stats.wall_ms / warm.stats.wall_ms
    );

    // The cache outlives the process: save it, boot a fresh service from
    // the file, and the whole corpus is served warm on first contact.
    let path = std::env::temp_dir().join("ashn-example-service.cache");
    let saved = cache.save(&path).expect("save cache");
    let restored = ShardedCache::new();
    let report = restored.warm_start(&path);
    assert!(report.is_warm());
    let disk_service =
        CompileService::with_cache(AshnBasis::with_cutoff(0.0, 1.1), restored).workers(4);
    let disk = disk_service.synthesize_batch(&targets);
    println!(
        "disk-warm  : {} classes reloaded from {}, {} cold syntheses",
        saved,
        path.display(),
        disk.stats.cold_classes
    );
    std::fs::remove_file(&path).ok();

    // Full circuits ride the same cache: compile quantum-volume model
    // circuits (synthesize → route → optimize) as one batch.
    let mut requests = Vec::new();
    for seed in 0..6 {
        let mut mrng = StdRng::seed_from_u64(seed);
        let model = sample_model_circuit(4, &mut mrng);
        let mut circuit = Circuit::new(model.d);
        for layer in &model.layers {
            for ((a, b), gate) in layer {
                circuit.push(Instruction::new(vec![*a, *b], gate.clone(), "su4"));
            }
        }
        requests.push(CompileRequest::new(circuit).opt(OptLevel::Light));
    }
    let compiled = service.compile_batch(&requests);
    let ok = compiled.results.iter().filter(|r| r.is_ok()).count();
    println!(
        "circuits   : {}/{} model circuits compiled (routed + optimized), \
         {} new cold classes",
        ok,
        requests.len(),
        compiled.stats.cold_classes
    );

    // And the facade `Compiler` can point at the very same cache, so
    // interactive compiles and batch service traffic warm each other.
    let compiler = Compiler::new().with_shared_cache(service.cache());
    let mut crng = StdRng::seed_from_u64(99);
    compiler
        .compile(&sample_model_circuit(3, &mut crng))
        .expect("compile");
    let stats = compiler.synth_stats();
    println!(
        "facade     : Compiler shares the cache — {} entries, {} hits / {} misses by the compiler",
        service.cache().len(),
        stats.exact_hits + stats.class_hits,
        stats.misses
    );
}
