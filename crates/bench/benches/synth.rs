//! Criterion benchmarks for the synthesis hot path rebuilt on stack
//! matrices: KAK decomposition, single-class EA pulse search (serial and
//! multistart-parallel), and end-to-end `Compiler` synthesis cache-cold vs
//! cache-warm.

use ashn::qv::sample_model_circuit;
use ashn::{Compiler, GateSet, QvNoise};
use ashn_core::ea::{ashn_ea_multistart, EaVariant};
use ashn_core::par::default_workers;
use ashn_core::scheme::AshnScheme;
use ashn_gates::kak::{kak, reference, weyl_coordinates};
use ashn_gates::weyl::WeylPoint;
use ashn_math::randmat::haar_unitary;
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_kak(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(41);
    let gates: Vec<_> = (0..16).map(|_| haar_unitary(4, &mut rng)).collect();
    let mut group = c.benchmark_group("kak");
    let mut i = 0;
    group.bench_function("kak_haar_smat", |b| {
        b.iter(|| {
            i = (i + 1) % gates.len();
            black_box(kak(&gates[i]));
        })
    });
    let mut j = 0;
    group.bench_function("kak_haar_cmat_reference", |b| {
        b.iter(|| {
            j = (j + 1) % gates.len();
            black_box(reference::kak_cmat(&gates[j]));
        })
    });
    let mut k = 0;
    group.bench_function("weyl_coordinates_haar", |b| {
        b.iter(|| {
            k = (k + 1) % gates.len();
            black_box(weyl_coordinates(&gates[k]));
        })
    });
    group.finish();
}

fn bench_ea(c: &mut Criterion) {
    let mut group = c.benchmark_group("ea");
    group.sample_size(10);
    // One representative target per face, solved cold each iteration.
    group.bench_function("ea_plus_single_class_serial", |b| {
        b.iter(|| black_box(ashn_ea_multistart(0.0, EaVariant::Plus, 0.5, 0.45, 0.2, 1).unwrap()))
    });
    group.bench_function(
        &format!("ea_plus_single_class_{}workers", default_workers()),
        |b| {
            b.iter(|| {
                black_box(ashn_ea_multistart(0.0, EaVariant::Plus, 0.5, 0.45, 0.2, 0).unwrap())
            })
        },
    );
    group.bench_function("ea_minus_single_class_serial", |b| {
        b.iter(|| black_box(ashn_ea_multistart(0.0, EaVariant::Minus, 0.6, 0.55, -0.3, 1).unwrap()))
    });
    group.finish();
}

fn bench_scheme(c: &mut Criterion) {
    let targets = [
        WeylPoint::new(0.5, 0.45, 0.2),
        WeylPoint::new(0.6, 0.3, 0.1),
        WeylPoint::SWAP,
        WeylPoint::new(0.7, 0.2, -0.1),
    ];
    let mut group = c.benchmark_group("scheme");
    group.sample_size(10);
    let mut i = 0;
    group.bench_function("compile_chamber_targets", |b| {
        let scheme = AshnScheme::new(0.0);
        b.iter(|| {
            i = (i + 1) % targets.len();
            black_box(scheme.compile(targets[i]).unwrap())
        })
    });
    group.finish();
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(42);
    let model = sample_model_circuit(4, &mut rng);
    let mut group = c.benchmark_group("synth");
    group.sample_size(10);
    group.bench_function("compiler_cold_d4_ashn", |b| {
        // Fresh compiler per iteration: every class is a cache miss, so
        // this measures cold synthesis end to end.
        b.iter(|| {
            let compiler = Compiler::new()
                .gate_set(GateSet::Ashn { cutoff: 1.1 })
                .noise(QvNoise::with_e_cz(0.012));
            black_box(compiler.compile(&model).expect("compiles"))
        })
    });
    let warm = Compiler::new()
        .gate_set(GateSet::Ashn { cutoff: 1.1 })
        .noise(QvNoise::with_e_cz(0.012));
    group.bench_function("compiler_warm_d4_ashn", |b| {
        // Shared compiler: after the first iteration every lookup is an
        // exact or class hit (observable via `Compiler::synth_stats`).
        b.iter(|| black_box(warm.compile(&model).expect("compiles")))
    });
    group.finish();
    let stats = warm.synth_stats();
    println!(
        "warm compiler cache: {} exact hits, {} class hits, {} misses ({}% hit rate)",
        stats.exact_hits,
        stats.class_hits,
        stats.misses,
        (stats.hit_rate() * 100.0).round()
    );
}

criterion_group!(benches, bench_kak, bench_ea, bench_scheme, bench_end_to_end);
criterion_main!(benches);
