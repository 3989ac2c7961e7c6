//! Cross-crate integration tests: full pipelines from pulse compilation
//! through synthesis, routing, scheduling, and simulation — all over the
//! canonical `ashn_ir::Circuit` IR and the `ashn::Compiler` entry point
//! (no per-crate IR copying anywhere).

use ashn::cal::cartan::estimate_coords;
use ashn::core::scheme::{AshnScheme, SubScheme};
use ashn::core::verify::{average_gate_fidelity, entanglement_fidelity};
use ashn::gates::cost::optimal_time;
use ashn::gates::kak::weyl_coordinates;
use ashn::gates::weyl::WeylPoint;
use ashn::ir::{Basis, Circuit, Instruction, IrError};
use ashn::math::randmat::haar_unitary;
use ashn::math::CMat;
use ashn::prelude::{AshnBasis, CnotBasis};
use ashn::qv::{sample_model_circuit, ModelCircuit};
use ashn::sim::{NoiseModel, Simulate};
use ashn::synth::qsd::{qsd, SynthBasis};
use ashn::{AshnError, Compiler, GateSet, QvNoise};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Pulse → simulator → Cartan-double estimation round trip: compile a class,
/// run the pulse unitary through the statevector simulator as a gate, and
/// re-estimate its coordinates from simulated process data.
#[test]
fn pulse_to_simulator_to_estimation_round_trip() {
    let scheme = AshnScheme::new(0.15);
    for target in [
        WeylPoint::CNOT,
        WeylPoint::B,
        WeylPoint::new(0.5, 0.3, -0.2),
    ] {
        let pulse = scheme.compile(target).expect("compiles");
        let u = pulse.unitary();
        // Run through the circuit IR.
        let mut c = Circuit::new(2);
        c.push(Instruction::new(vec![0, 1], u.clone(), "AshN").with_duration(pulse.tau));
        let from_sim = c.unitary();
        assert!(from_sim.dist(&u) < 1e-12);
        // Estimate coordinates the calibration way.
        let est = estimate_coords(&from_sim, target);
        assert!(
            est.gate_dist(target.canonicalize()) < 1e-7,
            "estimated {est} for target {target}"
        );
    }
}

/// Synthesis → AshN pulses: a three-qubit unitary decomposed by Theorem 12,
/// with every generic gate re-expressed through the `Basis` abstraction as
/// one verified AshN pulse.
#[test]
fn theorem12_gates_all_compile_to_single_pulses() {
    let mut rng = StdRng::seed_from_u64(101);
    let u = haar_unitary(8, &mut rng);
    let circuit = ashn::synth::three_qubit::decompose_three_qubit(&u);
    let ashn_basis = AshnBasis::ideal();
    assert_eq!(circuit.two_qubit_count(), 11);
    let mut total_time = 0.0;
    for g in &circuit.instructions {
        let compiled = ashn_basis.synthesize(&g.matrix).expect("compiles");
        assert!(compiled.entangler_count() <= 1);
        assert!(compiled.error(&g.matrix) < 1e-6);
        total_time += compiled.entangler_duration();
    }
    // Eleven pulses, each at most π: comfortably bounded.
    assert!(total_time < 11.0 * std::f64::consts::PI);
}

/// End-to-end QV smoke test with all gate sets on the same circuits through
/// the `Compiler` pipeline, checking the paper's ordering.
#[test]
fn qv_pipeline_orders_gate_sets() -> Result<(), AshnError> {
    let mut rng = StdRng::seed_from_u64(7);
    let noise = QvNoise::with_e_cz(0.017);
    let mut hops = [0.0f64; 3];
    let compilers = [
        Compiler::new().gate_set(GateSet::Cz).noise(noise),
        Compiler::new().gate_set(GateSet::Sqisw).noise(noise),
        Compiler::new()
            .gate_set(GateSet::Ashn { cutoff: 1.1 })
            .noise(noise),
    ];
    for _ in 0..4 {
        let model = sample_model_circuit(4, &mut rng);
        for (k, compiler) in compilers.iter().enumerate() {
            hops[k] += compiler.compile(&model)?.score().hop;
        }
    }
    assert!(
        hops[2] > hops[1] && hops[1] > hops[0],
        "expected AshN > SQiSW > CZ, got {hops:?}"
    );
    Ok(())
}

/// QSD output is *directly* a simulator circuit now (one IR): its dense
/// unitary — phase included — matches the synthesized target, and the
/// statevector run agrees with the density-matrix run.
#[test]
fn qsd_circuit_runs_identically_in_simulator() {
    let mut rng = StdRng::seed_from_u64(31);
    let u = haar_unitary(8, &mut rng);
    let circ = qsd(&u, SynthBasis::Cnot);
    // No gate-by-gate copying: the QSD output is the simulator's circuit.
    let out = circ.unitary();
    assert!(out.dist(&u) < 1e-6, "error {}", out.dist(&u));
    let pure = circ.run_pure().probabilities();
    let rho = circ.run_noisy(&NoiseModel::NOISELESS).probabilities();
    for (a, b) in pure.iter().zip(rho.iter()) {
        assert!((a - b).abs() < 1e-9);
    }
}

/// Depolarizing noise degrades average fidelity of a compiled pulse run, in
/// proportion to the rate.
#[test]
fn noise_model_scales_with_rate() {
    let scheme = AshnScheme::new(0.0);
    let pulse = scheme.compile(WeylPoint::CNOT).unwrap();
    let u = pulse.unitary();
    let purity_at = |p: f64| {
        let mut c = Circuit::new(2);
        c.push(
            Instruction::new(vec![0, 1], u.clone(), "AshN")
                .with_duration(pulse.tau)
                .with_error_rate(p),
        );
        c.run_noisy(&NoiseModel::NOISELESS).purity()
    };
    let clean = purity_at(0.0);
    let light = purity_at(0.01);
    let heavy = purity_at(0.1);
    assert!((clean - 1.0).abs() < 1e-10);
    assert!(light > heavy);
}

/// The headline claim, end to end through the `Basis` trait: for
/// Haar-random targets, AshN needs one pulse at the optimal time and
/// reconstructs the target exactly; a CNOT box needs three entanglers and
/// strictly more interaction time.
#[test]
fn one_gate_scheme_vs_cnot_boxes() {
    let mut rng = StdRng::seed_from_u64(77);
    let ashn_basis = AshnBasis::ideal();
    let cnot_basis = CnotBasis;
    for _ in 0..5 {
        let u = haar_unitary(4, &mut rng);
        let coords = weyl_coordinates(&u);
        let ashn = ashn_basis.synthesize(&u).unwrap();
        let cnot = cnot_basis.synthesize(&u).unwrap();
        assert_eq!(ashn.entangler_count(), ashn_basis.expected_entanglers(&u));
        assert_eq!(ashn.entangler_count(), 1);
        assert_eq!(cnot.entangler_count(), cnot_basis.expected_entanglers(&u));
        assert_eq!(cnot.entangler_count(), 3);
        assert!(ashn.entangler_duration() <= optimal_time(0.0, coords) + 1e-9);
        assert!(cnot.entangler_duration() > ashn.entangler_duration());
        assert!(average_gate_fidelity(&ashn.unitary(), &u) > 1.0 - 1e-8);
        assert!(average_gate_fidelity(&cnot.unitary(), &u) > 1.0 - 1e-8);
    }
}

/// Identity-class targets produce empty pulses that really are the identity.
#[test]
fn identity_pulse_is_trivial_everywhere() {
    for h in [0.0, 0.4, -0.6] {
        let pulse = AshnScheme::new(h).compile(WeylPoint::IDENTITY).unwrap();
        assert_eq!(pulse.scheme, SubScheme::Identity);
        assert!(entanglement_fidelity(&pulse.unitary(), &CMat::identity(4)) > 1.0 - 1e-12);
    }
}

/// Compiler misconfiguration surfaces as a typed error, not a panic.
#[test]
fn compiler_rejects_undersized_grid() {
    let mut rng = StdRng::seed_from_u64(9);
    let model = sample_model_circuit(6, &mut rng);
    let result = Compiler::new()
        .grid(ashn::route::Grid::new(1, 2))
        .compile(&model);
    assert!(matches!(result, Err(AshnError::Config { .. })));
}

/// Hand-built model layers that break the router's contract (a qubit out
/// of range, a self-pair, two pairs sharing a qubit) are typed IR errors,
/// not panics inside routing.
#[test]
fn compiler_rejects_malformed_model_layers() {
    let cases = [
        (2, vec![(0, 5)], IrError::QubitOutOfRange { qubit: 5, n: 2 }),
        (2, vec![(1, 1)], IrError::RepeatedQubit { qubit: 1 }),
        (3, vec![(0, 1), (1, 2)], IrError::RepeatedQubit { qubit: 1 }),
    ];
    for (d, pairs, expected) in cases {
        let model = ModelCircuit {
            d,
            layers: vec![pairs.iter().map(|&p| (p, CMat::identity(4))).collect()],
        };
        match Compiler::new().compile(&model) {
            Err(AshnError::Ir(e)) => assert_eq!(e, expected, "{pairs:?}"),
            other => panic!("{pairs:?}: expected an IR error, got {other:?}"),
        }
    }
}
