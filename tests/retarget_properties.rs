//! Property tests for rule-based instruction-set retargeting: random
//! circuits over every registered source gate set, retargeted onto every
//! registered target set, preserve the full-circuit unitary at `1e-12` —
//! both through the bare [`Retarget`] pass and through the service's
//! routed `compile_batch` pipeline (rule tier + lookahead router).

use ashn::ir::{Basis, Circuit, Instruction};
use ashn::math::randmat::haar_unitary;
use ashn::math::CMat;
use ashn::opt::{DagCircuit, Pass, Retarget};
use ashn::prelude::{standard_rules, CnotBasis, CzBasis, EcrBasis, SqiswBasis};
use ashn::service::{CompileRequest, CompileService, ShardedCache};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SOURCE_SETS: [&str; 4] = ["CNOT", "CZ", "ECR", "SQiSW"];

fn target_bases() -> [&'static dyn Basis; 4] {
    [&CnotBasis, &CzBasis, &EcrBasis, &SqiswBasis]
}

/// Frobenius distance after aligning global phases.
fn phase_dist(a: &CMat, b: &CMat) -> f64 {
    let tr = a.adjoint().matmul(b).trace();
    let phase = if tr.abs() > 1e-15 {
        tr / tr.abs()
    } else {
        ashn::math::Complex::ONE
    };
    a.scale(phase).dist(b)
}

/// A random circuit over `n` qubits built from the source set's native
/// gates (including wire reversals) interleaved with Haar 1q dressing.
fn source_circuit(source: &str, n: usize, depth: usize, rng: &mut StdRng) -> Circuit {
    let registry = standard_rules();
    let set = registry
        .registry()
        .sets()
        .iter()
        .find(|s| s.name == source)
        .unwrap_or_else(|| panic!("{source} registered"));
    let mut circuit = Circuit::new(n);
    for q in 0..n {
        circuit.push(Instruction::new(vec![q], haar_unitary(2, rng), "u"));
    }
    for _ in 0..depth {
        let a = rng.gen_range(0..n);
        let mut b = rng.gen_range(0..n - 1);
        if b >= a {
            b += 1;
        }
        let gate = &set.gates[rng.gen_range(0..set.gates.len())];
        circuit.push(Instruction::new(
            vec![a, b],
            gate.matrix.clone(),
            gate.name.clone(),
        ));
        let q = rng.gen_range(0..n);
        circuit.push(Instruction::new(vec![q], haar_unitary(2, rng), "u"));
    }
    circuit
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every (source set, target set) pair: the Retarget pass preserves
    /// the full-circuit unitary at 1e-12 and each rewrite is closed-form.
    #[test]
    fn retargeting_preserves_unitary_across_every_pair(seed in 0u64..256) {
        let mut rng = StdRng::seed_from_u64(seed);
        for source in SOURCE_SETS {
            let circuit = source_circuit(source, 3, 4, &mut rng);
            let reference = circuit.unitary();
            for target in target_bases() {
                let mut dag = DagCircuit::from_circuit(&circuit).unwrap();
                Retarget::new(target).run(&mut dag).unwrap();
                let out = dag.into_circuit();
                let d = phase_dist(&out.unitary(), &reference);
                prop_assert!(
                    d < 1e-12,
                    "{source} -> {}: unitary drifted by {d:.2e}",
                    target.name(),
                );
            }
        }
    }

    /// Mixed known-gate circuits through the full routed service pipeline:
    /// the rule tier serves every gate, the lookahead router inserts
    /// SWAPs, and the physical circuit still realizes the logical unitary
    /// (up to the router's final qubit placement) at 1e-12.
    #[test]
    fn rule_tier_survives_the_lookahead_router(seed in 0u64..256) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = 4;
        // Gates drawn across ALL source sets, on arbitrary (often
        // non-adjacent) pairs, so routing must insert SWAP fragments.
        let mut circuit = Circuit::new(n);
        for q in 0..n {
            circuit.push(Instruction::new(vec![q], haar_unitary(2, &mut rng), "u"));
        }
        let registry = standard_rules();
        for _ in 0..5 {
            let source = SOURCE_SETS[rng.gen_range(0..SOURCE_SETS.len())];
            let set = registry
                .registry()
                .sets()
                .iter()
                .find(|s| s.name == source)
                .unwrap();
            let gate = &set.gates[rng.gen_range(0..set.gates.len())];
            let a = rng.gen_range(0..n);
            let mut b = rng.gen_range(0..n - 1);
            if b >= a {
                b += 1;
            }
            circuit.push(Instruction::new(
                vec![a, b],
                gate.matrix.clone(),
                gate.name.clone(),
            ));
        }
        let reference = circuit.unitary();

        let service = CompileService::with_cache(CzBasis, ShardedCache::new());
        let batch = service.compile_batch(&[CompileRequest::new(circuit)]);
        prop_assert!(batch.stats.rule_hits > 0, "rule tier must serve this batch");
        prop_assert_eq!(batch.stats.cold_serves, 0, "every gate is rule-covered");
        let result = batch.results[0].as_ref().expect("compiles");

        // The physical unitary must equal P · U_logical, where P routes
        // logical qubit `l` to its final site `positions[l]` (qubit q is
        // bit n-1-q of the basis index).
        let sites = result.circuit.n_qubits();
        prop_assert_eq!(sites, n, "2x2 grid holds the register exactly");
        let dim = 1usize << n;
        let mut permuted = CMat::zeros(dim, dim);
        for col in 0..dim {
            let mut row = 0usize;
            for l in 0..n {
                if col >> (n - 1 - l) & 1 == 1 {
                    row |= 1 << (n - 1 - result.positions[l]);
                }
            }
            permuted[(row, col)] = ashn::math::Complex::ONE;
        }
        let expected = permuted.matmul(&reference);
        let d = phase_dist(&result.circuit.unitary(), &expected);
        prop_assert!(d < 1e-12, "routed circuit drifted by {d:.2e}");
    }
}
