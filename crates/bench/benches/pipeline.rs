//! Criterion benchmark: the end-to-end `ashn::Compiler` pipeline
//! (synthesize + route + schedule + simulate) at `n = 4`, per gate set —
//! the baseline for future batching/caching work.

use ashn::{Compiler, GateSet, QvNoise};
use ashn_math::par::default_workers;
use ashn_qv::{mean_hop_batched, sample_model_circuit};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_compile(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(17);
    let model = sample_model_circuit(4, &mut rng);
    let mut group = c.benchmark_group("compiler");
    group.sample_size(10);
    for gs in [GateSet::Cz, GateSet::Sqisw, GateSet::Ashn { cutoff: 1.1 }] {
        // The compiler is rebuilt per iteration: `Compiler` wraps its basis
        // in the synthesis memo-cache, and a shared instance would measure
        // cache hits instead of cold synthesis.
        group.bench_function(&format!("compile_d4_{}", gs.name()), |b| {
            b.iter(|| {
                let compiler = Compiler::new()
                    .gate_set(gs)
                    .noise(QvNoise::with_e_cz(0.012));
                black_box(compiler.compile(&model).expect("compiles"))
            })
        });
    }
    group.finish();
}

fn bench_compile_and_score(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(18);
    let model = sample_model_circuit(4, &mut rng);
    let compiler = Compiler::new()
        .gate_set(GateSet::Ashn { cutoff: 1.1 })
        .noise(QvNoise::with_e_cz(0.012));
    let compiled = compiler.compile(&model).expect("compiles");
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.bench_function("end_to_end_d4_ashn", |b| {
        b.iter(|| {
            // Fresh compiler: cold synthesis per iteration (see above).
            let cold = Compiler::new()
                .gate_set(GateSet::Ashn { cutoff: 1.1 })
                .noise(QvNoise::with_e_cz(0.012));
            black_box(cold.compile(&model).expect("compiles").score())
        })
    });
    group.bench_function("end_to_end_d4_ashn_cached", |b| {
        // Shared compiler: every class is a memo-cache hit after the first
        // iteration — the cache's headline win on repeat workloads.
        b.iter(|| black_box(compiler.compile(&model).expect("compiles").score()))
    });
    group.bench_function("score_only_d4_ashn", |b| {
        b.iter(|| black_box(compiled.score()))
    });
    group.finish();
}

fn bench_batched_experiment(c: &mut Criterion) {
    // The batched QV experiment runner: identical statistics, fanned over
    // workers vs pinned to one.
    let noise = QvNoise::with_e_cz(0.012);
    let gs = GateSet::Ashn { cutoff: 1.1 };
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);
    group.bench_function("mean_hop_d3_1worker", |b| {
        b.iter(|| black_box(mean_hop_batched(3, gs, &noise, 4, 1, 1).expect("compiles")))
    });
    group.bench_function(&format!("mean_hop_d3_{}workers", default_workers()), |b| {
        b.iter(|| {
            black_box(mean_hop_batched(3, gs, &noise, 4, 1, default_workers()).expect("compiles"))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_compile,
    bench_compile_and_score,
    bench_batched_experiment
);
criterion_main!(benches);
