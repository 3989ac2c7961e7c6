//! Facade-level synthesis-cache observability: `Compiler::synth_stats`
//! exposes the exact-hit / class-hit / miss counters of the memo-cache
//! wrapped around the active basis.

use ashn::qv::sample_model_circuit;
use ashn::{Compiler, GateSet, QvNoise};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn compile_twice_reports_misses_then_hits() {
    let mut rng = StdRng::seed_from_u64(4001);
    let model = sample_model_circuit(3, &mut rng);
    let compiler = Compiler::new()
        .gate_set(GateSet::Cz)
        .noise(QvNoise::with_e_cz(0.01));

    let fresh = compiler.synth_stats();
    assert_eq!((fresh.hits(), fresh.misses), (0, 0));

    compiler.compile(&model).expect("compiles");
    let cold = compiler.synth_stats();
    assert!(cold.misses > 0, "cold compile must miss");
    assert!(cold.len > 0, "cold compile must populate the cache");

    compiler.compile(&model).expect("compiles");
    let warm = compiler.synth_stats();
    assert_eq!(
        warm.misses, cold.misses,
        "second compile of the same model must not miss"
    );
    assert!(
        warm.exact_hits > cold.exact_hits,
        "repeat targets must be exact hits"
    );
    assert!(warm.hit_rate() > 0.0);
}

#[test]
fn stats_survive_basis_swap() {
    // Swapping the basis keeps the compiler's one cache and its counters;
    // the new basis still misses, because keys carry the basis name.
    let mut rng = StdRng::seed_from_u64(4002);
    let model = sample_model_circuit(3, &mut rng);
    let compiler = Compiler::new().gate_set(GateSet::Cz);
    compiler.compile(&model).expect("compiles");
    let cz = compiler.synth_stats();
    assert!(cz.misses > 0, "cold compile must miss");

    let compiler = compiler.gate_set(GateSet::Sqisw);
    assert_eq!(compiler.synth_stats(), cz, "basis swap reset the counters");
    compiler.compile(&model).expect("compiles");
    let sqisw = compiler.synth_stats();
    assert!(
        sqisw.misses > cz.misses,
        "a CZ entry served the SQiSW basis"
    );
    assert!(
        sqisw.len > cz.len,
        "SQiSW classes must get entries of their own"
    );
}
