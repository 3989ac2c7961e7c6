//! Quantum Shannon decomposition (Shende–Bullock–Markov \[35\]): recursive
//! synthesis of arbitrary n-qubit unitaries via CSD and demultiplexing.
//!
//! Two bases are supported:
//!
//! * [`SynthBasis::Cnot`] — CNOT + single-qubit gates, the literature
//!   standard;
//! * [`SynthBasis::Generic`] — arbitrary two-qubit gates (the AshN
//!   instruction set), with the 3-qubit base case using the paper's
//!   11-gate construction (Theorem 12), achieving the Theorem 13 count
//!   `23/64·4ⁿ − 3/2·2ⁿ`.

use crate::circuit2::Op2;
use crate::cnot_basis::decompose_cnot;
use crate::csd::csd;
use crate::multiplexor::{demultiplex, mux_rotation_ladder, Axis};
use crate::three_qubit::decompose_three_qubit;
use ashn_gates::two::cnot;
use ashn_ir::{Circuit, Instruction};
use ashn_math::CMat;

/// Which native two-qubit resource the synthesis targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SynthBasis {
    /// CNOT + arbitrary single-qubit gates.
    Cnot,
    /// Arbitrary two-qubit gates (`SU(4)` instructions à la AshN).
    Generic,
}

/// Synthesises `u` over the given basis, returning a verified circuit.
///
/// # Panics
///
/// Panics when `u` is not a `2^n × 2^n` unitary with `1 ≤ n ≤ 6`.
pub fn qsd(u: &CMat, basis: SynthBasis) -> Circuit {
    let dim = u.rows();
    assert!(u.is_square() && dim.is_power_of_two() && dim >= 2);
    let n = dim.trailing_zeros() as usize;
    assert!(n <= 6, "qsd supports up to 6 qubits");
    assert!(u.is_unitary(1e-8), "qsd requires a unitary input");
    let mut out = Circuit::new(n);
    let qubits: Vec<usize> = (0..n).collect();
    qsd_rec(u, &qubits, basis, &mut out);
    out
}

/// Emits a multiplexed rotation either as a CNOT ladder (CNOT basis) or as
/// merged CNOT·rotation two-qubit gates (generic basis).
fn emit_mux_rotation(
    axis: Axis,
    target: usize,
    selects: &[usize],
    angles: &[f64],
    basis: SynthBasis,
    out: &mut Circuit,
) {
    let gates = mux_rotation_ladder(axis, target, selects, angles);
    match basis {
        SynthBasis::Cnot => {
            for g in gates {
                out.push(g);
            }
        }
        SynthBasis::Generic => {
            // Merge each rotation with the following CNOT into one generic
            // two-qubit gate on (control, target).
            let mut iter = gates.into_iter().peekable();
            while let Some(g) = iter.next() {
                if g.qubits.len() == 1 {
                    if let Some(nxt) =
                        iter.next_if(|next| next.qubits.len() == 2 && next.qubits[1] == g.qubits[0])
                    {
                        // Combined = CNOT · (I⊗R) on (control, target).
                        let combined = cnot().matmul(&CMat::identity(2).kron(&g.matrix));
                        out.push(Instruction::new(nxt.qubits, combined, "SU4[muxR]"));
                        continue;
                    }
                    out.push(g);
                } else {
                    out.push(g);
                }
            }
        }
    }
}

fn qsd_rec(u: &CMat, qubits: &[usize], basis: SynthBasis, out: &mut Circuit) {
    let n = qubits.len();
    match n {
        1 => out.push(Instruction::new(vec![qubits[0]], u.clone(), "1q")),
        2 => match basis {
            SynthBasis::Cnot => {
                let c = decompose_cnot(u);
                out.phase *= c.phase;
                for op in c.ops {
                    match op {
                        Op2::L0(g) => out.push(Instruction::new(vec![qubits[0]], g, "1q")),
                        Op2::L1(g) => out.push(Instruction::new(vec![qubits[1]], g, "1q")),
                        Op2::Entangler { label, matrix, .. } => {
                            out.push(Instruction::new(vec![qubits[0], qubits[1]], matrix, label))
                        }
                    }
                }
            }
            SynthBasis::Generic => {
                out.push(Instruction::new(
                    vec![qubits[0], qubits[1]],
                    u.clone(),
                    "SU4",
                ));
            }
        },
        3 if basis == SynthBasis::Generic => {
            let c = decompose_three_qubit(u);
            out.phase *= c.phase;
            for g in c.instructions {
                let mapped: Vec<usize> = g.qubits.iter().map(|&q| qubits[q]).collect();
                out.push(Instruction::new(mapped, g.matrix, g.label));
            }
        }
        _ => {
            let d = csd(u);
            let (rest, target) = (&qubits[1..], qubits[0]);
            // Right factor blkdiag(R0†, R1†).
            let (vr, az_r, wr) = demultiplex(&d.r0.adjoint(), &d.r1.adjoint());
            qsd_rec(&wr, rest, basis, out);
            emit_mux_rotation(Axis::Z, target, rest, &az_r, basis, out);
            qsd_rec(&vr, rest, basis, out);
            // Middle multiplexed Ry(2θ).
            let ay: Vec<f64> = d.theta.iter().map(|&t| 2.0 * t).collect();
            emit_mux_rotation(Axis::Y, target, rest, &ay, basis, out);
            // Left factor blkdiag(L0, L1).
            let (vl, az_l, wl) = demultiplex(&d.l0, &d.l1);
            qsd_rec(&wl, rest, basis, out);
            emit_mux_rotation(Axis::Z, target, rest, &az_l, basis, out);
            qsd_rec(&vl, rest, basis, out);
        }
    }
}

/// Two-qubit gate count produced by [`qsd`] for an `n`-qubit generic target
/// (the plain recursion, without the ad-hoc optimizations of \[35\]).
pub fn qsd_count(n: usize, basis: SynthBasis) -> usize {
    match (n, basis) {
        (0, _) => 0,
        (1, _) => 0,
        (2, SynthBasis::Cnot) => 3,
        (2, SynthBasis::Generic) => 1,
        (3, SynthBasis::Generic) => 11,
        _ => 4 * qsd_count(n - 1, basis) + 3 * (1 << (n - 1)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ashn_math::randmat::haar_unitary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn cnot_basis_reconstructs_three_qubits() {
        let mut rng = StdRng::seed_from_u64(91);
        let u = haar_unitary(8, &mut rng);
        let c = qsd(&u, SynthBasis::Cnot);
        assert!(c.error(&u) < 1e-6, "error {}", c.error(&u));
        assert_eq!(c.entangler_count(), qsd_count(3, SynthBasis::Cnot));
    }

    #[test]
    fn cnot_basis_reconstructs_four_qubits() {
        let mut rng = StdRng::seed_from_u64(92);
        let u = haar_unitary(16, &mut rng);
        let c = qsd(&u, SynthBasis::Cnot);
        assert!(c.error(&u) < 1e-5, "error {}", c.error(&u));
        assert_eq!(c.entangler_count(), qsd_count(4, SynthBasis::Cnot));
    }

    #[test]
    fn generic_basis_counts() {
        assert_eq!(qsd_count(2, SynthBasis::Generic), 1);
        assert_eq!(qsd_count(3, SynthBasis::Generic), 11);
        assert_eq!(qsd_count(4, SynthBasis::Generic), 68);
        assert_eq!(qsd_count(5, SynthBasis::Generic), 320);
        // Plain CNOT recursion (without [35]'s extra optimizations).
        assert_eq!(qsd_count(3, SynthBasis::Cnot), 24);
        assert_eq!(qsd_count(4, SynthBasis::Cnot), 120);
    }

    #[test]
    fn generic_basis_reconstructs_four_qubits() {
        let mut rng = StdRng::seed_from_u64(93);
        let u = haar_unitary(16, &mut rng);
        let c = qsd(&u, SynthBasis::Generic);
        assert!(c.error(&u) < 1e-5, "error {}", c.error(&u));
        assert_eq!(c.entangler_count(), qsd_count(4, SynthBasis::Generic));
    }

    #[test]
    fn cnot_gates_are_all_cnot_or_local() {
        let mut rng = StdRng::seed_from_u64(94);
        let u = haar_unitary(8, &mut rng);
        let c = qsd(&u, SynthBasis::Cnot);
        for g in &c.instructions {
            if g.qubits.len() == 2 {
                assert!(
                    g.matrix.dist(&cnot()) < 1e-10
                        || g.matrix.dist(&crate::cnot_basis::cnot_reversed()) < 1e-10,
                    "non-CNOT two-qubit gate {} in CNOT basis",
                    g.label
                );
            } else {
                assert_eq!(g.qubits.len(), 1);
            }
        }
    }
}
