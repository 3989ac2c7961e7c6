//! Facade-level retargeting: `Compiler::retarget_circuit` +
//! `Compiler::source_basis`, with the rule tier's `rule_hits` visible in
//! `SynthStats`.

use ashn::gates::two::{cnot, iswap, swap};
use ashn::ir::{Circuit, Instruction};
use ashn::math::CMat;
use ashn::prelude::{CnotBasis, EcrBasis};
use ashn::{AshnError, Compiler, GateSet};

fn phase_dist(a: &CMat, b: &CMat) -> f64 {
    let tr = a.adjoint().matmul(b).trace();
    let phase = if tr.abs() > 1e-15 {
        tr / tr.abs()
    } else {
        ashn::math::Complex::ONE
    };
    a.scale(phase).dist(b)
}

fn gate_circuit(gates: &[(CMat, [usize; 2])], n: usize) -> Circuit {
    let mut circuit = Circuit::new(n);
    for (m, q) in gates {
        circuit.push(Instruction::new(q.to_vec(), m.clone(), "g"));
    }
    circuit
}

#[test]
fn retarget_circuit_rewrites_cx_traffic_exactly() -> Result<(), AshnError> {
    let compiler = Compiler::new().gate_set(GateSet::Cz);
    let circuit = gate_circuit(&[(cnot(), [0, 1]), (swap(), [1, 2]), (iswap(), [0, 2])], 3);
    let reference = circuit.unitary();
    let (out, stats) = compiler.retarget_circuit(&circuit)?;
    assert!(
        phase_dist(&out.unitary(), &reference) < 1e-12,
        "dist {:.2e}",
        phase_dist(&out.unitary(), &reference)
    );
    for inst in &out.instructions {
        if inst.qubits.len() == 2 {
            assert!(
                inst.matrix.dist(&ashn::gates::two::cz()) < 1e-12,
                "non-CZ entangler {} survived retargeting",
                inst.label
            );
        }
    }
    assert!(stats.after.two_qubit >= 1);
    Ok(())
}

#[test]
fn rule_hits_surface_in_facade_synth_stats() -> Result<(), AshnError> {
    let compiler = Compiler::new().gate_set(GateSet::Cz);
    // CNOT · SWAP on one pair is a single non-minimal block in the iSWAP
    // Weyl class: Retarget rewrites the gates to 4 CZs, then Resynthesize
    // asks the (rule-armed, cached) basis for the 2-CZ class solution —
    // which the iSWAP-class rule serves without any numeric synthesis.
    let circuit = gate_circuit(&[(cnot(), [0, 1]), (swap(), [0, 1])], 2);
    let reference = circuit.unitary();
    let (out, _) = compiler.retarget_circuit(&circuit)?;
    assert!(phase_dist(&out.unitary(), &reference) < 1e-12);
    assert_eq!(out.entangler_count(), 2, "iSWAP class takes 2 CZs");
    let synth = compiler.synth_stats();
    assert!(synth.rule_hits > 0, "rule tier must have served the block");
    assert_eq!(synth.misses, 0, "no numeric synthesis may run");
    Ok(())
}

#[test]
fn source_basis_restricts_facade_retargeting() -> Result<(), AshnError> {
    // Declare the inputs as CNOT-set circuits: the iSWAP (not native to
    // the source) must survive the rule pass untouched, on its own pair,
    // while the CX is ported.
    let compiler = Compiler::new().basis(EcrBasis).source_basis(CnotBasis);
    let circuit = gate_circuit(&[(cnot(), [0, 1]), (iswap(), [1, 2])], 3);
    let reference = circuit.unitary();
    let (out, _) = compiler.retarget_circuit(&circuit)?;
    assert!(phase_dist(&out.unitary(), &reference) < 1e-9);
    assert!(
        out.instructions
            .iter()
            .any(|i| i.qubits.len() == 2 && i.matrix.dist(&iswap()) < 1e-12),
        "iSWAP outside the declared source set must survive"
    );
    Ok(())
}
