//! Facade-level optimizer integration: `Compiler::opt_level` runs the
//! `ashn-opt` pipeline between routing and scheduling, and
//! `Compiled::opt_stats` exposes the accounting.

use ashn::qv::sample_model_circuit;
use ashn::{AshnError, Compiler, GateSet, OptLevel, QvNoise};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn opt_level_default_reduces_counts_and_reports_stats() -> Result<(), AshnError> {
    let mut rng = StdRng::seed_from_u64(41);
    let model = sample_model_circuit(4, &mut rng);
    let noise = QvNoise::with_e_cz(0.007);
    let raw = Compiler::new()
        .gate_set(GateSet::Ashn { cutoff: 1.1 })
        .noise(noise)
        .compile(&model)?;
    let opt = Compiler::new()
        .gate_set(GateSet::Ashn { cutoff: 1.1 })
        .noise(noise)
        .opt_level(OptLevel::Standard)
        .compile(&model)?;

    // The default compiler does not optimize (and reports no stats).
    assert!(raw.opt_stats().is_none());
    let stats = opt.opt_stats().expect("stats at OptLevel::Standard");
    assert_eq!(stats.before.gates, raw.circuit().instructions.len());
    assert_eq!(stats.after.gates, opt.circuit().instructions.len());
    assert!(stats.gates_removed() > 0, "QV circuits always fuse 1q runs");
    assert!(opt.circuit().entangler_count() <= raw.circuit().entangler_count());
    assert!(!stats.passes.is_empty());

    // Scoring still works on the optimized circuit, with no regression.
    let score_raw = raw.score();
    let score_opt = opt.score();
    assert!(score_opt.two_qubit_gates <= score_raw.two_qubit_gates);
    assert!(score_opt.hop >= score_raw.hop - 1e-3);

    // The router's final placement is untouched by optimization.
    assert_eq!(raw.positions(), opt.positions());
    Ok(())
}

#[test]
fn opt_level_light_runs_structural_passes_only() -> Result<(), AshnError> {
    let mut rng = StdRng::seed_from_u64(42);
    let model = sample_model_circuit(3, &mut rng);
    let light = Compiler::new().opt_level(OptLevel::Light).compile(&model)?;
    let stats = light.opt_stats().expect("stats at OptLevel::Light");
    assert!(
        stats.passes.iter().all(|p| !p.pass.starts_with("resynth")),
        "Light must not resynthesize: {:?}",
        stats
            .passes
            .iter()
            .map(|p| p.pass.clone())
            .collect::<Vec<_>>()
    );
    // Structural passes never touch entangler counts on compiled circuits.
    assert_eq!(stats.before.two_qubit, stats.after.two_qubit);
    assert!(stats.after.gates <= stats.before.gates);
    Ok(())
}

#[test]
fn optimized_circuits_simulate_equivalently() -> Result<(), AshnError> {
    // The optimized compilation must produce the same logical distribution
    // as the raw one (up to the resynthesis acceptance tolerance) when
    // simulated noiselessly.
    let mut rng = StdRng::seed_from_u64(43);
    let model = sample_model_circuit(3, &mut rng);
    let raw = Compiler::new().compile(&model)?;
    let opt = Compiler::new()
        .opt_level(OptLevel::Standard)
        .compile(&model)?;
    let p_raw = raw.logical_probs(&raw.simulate_pure().probabilities());
    let p_opt = opt.logical_probs(&opt.simulate_pure().probabilities());
    for (a, b) in p_raw.iter().zip(&p_opt) {
        assert!((a - b).abs() < 1e-4, "distribution drifted: {a} vs {b}");
    }
    Ok(())
}
