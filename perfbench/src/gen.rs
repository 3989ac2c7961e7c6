//! Seeded workload generators. Every input the benchmark hands the program
//! is a pure function of `(seed, stream)`: the same seed gives the same
//! circuits, bit for bit.
//!
//! Each generator splits its randomness in two. The circuit's *shape* —
//! which wires interact, in what order — comes from a fixed stream
//! ([`shape_rng`]) that is the same for every seed; its *content* — gate
//! unitaries, angles, couplings, input states — comes from the seed. Seeds
//! then change what the circuits compute but not how much routing they
//! need, so figures from different seeds are comparable.

use ashn::gates::pauli::{xx, yy, zz, Pauli};
use ashn::gates::single::{h, rx, rz};
use ashn::gates::two::{cnot, zz_rotation};
use ashn::ir::{Circuit, Instruction};
use ashn::math::expm::expm_minus_i_hermitian;
use ashn::math::randmat::haar_su;
use ashn::math::{c, CMat};
use ashn::qv::ModelCircuit;
use ashn::route::random_pairing;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::PI;

/// An independent generator per `(seed, stream)`, so adding a stream never
/// shifts the inputs drawn from another.
pub fn rng(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// The seed-independent stream circuit shapes are drawn from.
pub fn shape_rng(stream: u64) -> StdRng {
    rng(0x5eed_5a9e, stream)
}

/// A uniformly random permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: usize, rng: &mut impl Rng) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.gen_range(0..=i));
    }
    p
}

/// `count` quantum-volume model circuits of width `d` (paper Fig. 7):
/// `d` layers of random pairings with Haar-random `SU(4)` gates, as
/// `ashn::qv::sample_model_circuit` draws them, except that the pairings
/// come from `shape` and the gates from `content`.
pub fn model_circuits(
    d: usize,
    count: usize,
    shape: &mut impl Rng,
    content: &mut impl Rng,
) -> Vec<ModelCircuit> {
    (0..count)
        .map(|_| ModelCircuit {
            d,
            layers: (0..d)
                .map(|_| {
                    random_pairing(d, shape)
                        .into_iter()
                        .map(|pair| (pair, haar_su(4, content)))
                        .collect()
                })
                .collect(),
        })
        .collect()
}

fn cphase(theta: f64) -> CMat {
    let one = c(1.0, 0.0);
    CMat::diag(&[one, one, one, c(theta.cos(), theta.sin())])
}

/// The quantum Fourier transform on `n` qubits (no final reversal),
/// applied to a random product state so its output distribution is not
/// uniform. Controlled phases run between every pair: all-to-all traffic.
pub fn qft(n: usize, rng: &mut impl Rng) -> Circuit {
    let mut circuit = Circuit::new(n);
    for q in 0..n {
        circuit.push(Instruction::new(vec![q], haar_su(2, rng), "U"));
    }
    for j in 0..n {
        circuit.push(Instruction::new(vec![j], h(), "H"));
        for k in j + 1..n {
            let theta = PI / (1u64 << (k - j)) as f64;
            circuit.push(Instruction::new(vec![k, j], cphase(theta), "CP"));
        }
    }
    circuit
}

/// Nearest-neighbour bonds of a `rows × cols` lattice (row-major sites),
/// grouped into the four matchings a Trotter step applies in turn:
/// horizontal even, horizontal odd, vertical even, vertical odd.
pub fn lattice_matchings(rows: usize, cols: usize) -> [Vec<(usize, usize)>; 4] {
    let site = |r: usize, col: usize| r * cols + col;
    let mut out: [Vec<(usize, usize)>; 4] = Default::default();
    for r in 0..rows {
        for col in 0..cols {
            if col + 1 < cols {
                out[col % 2].push((site(r, col), site(r, col + 1)));
            }
            if r + 1 < rows {
                out[2 + r % 2].push((site(r, col), site(r + 1, col)));
            }
        }
    }
    out
}

/// Weighted QAOA-MaxCut on the `rows × cols` lattice graph, `layers`
/// rounds. Lattice sites are assigned to circuit wires by a random
/// permutation from `shape`, so the graph does not line up with the
/// routing grid; weights and angles come from `rng`.
pub fn qaoa_grid(
    rows: usize,
    cols: usize,
    layers: usize,
    shape: &mut impl Rng,
    rng: &mut impl Rng,
) -> Circuit {
    let n = rows * cols;
    let wire = permutation(n, shape);
    let edges: Vec<(usize, usize)> = lattice_matchings(rows, cols).concat();
    let weights: Vec<f64> = edges.iter().map(|_| rng.gen_range(0.5..1.5)).collect();
    let mut circuit = Circuit::new(n);
    for q in 0..n {
        circuit.push(Instruction::new(vec![q], h(), "H"));
    }
    for _ in 0..layers {
        let gamma = rng.gen_range(0.2..0.9);
        let beta = rng.gen_range(0.1..0.6);
        for (&(a, b), w) in edges.iter().zip(&weights) {
            circuit.push(Instruction::new(
                vec![wire[a], wire[b]],
                zz_rotation(gamma * w),
                "ZZ",
            ));
        }
        for q in 0..n {
            circuit.push(Instruction::new(vec![q], rx(2.0 * beta), "RX"));
        }
    }
    circuit
}

/// A GHZ state prepared along a random chain of the `n` wires (the chain
/// from `shape`) with a seeded relative phase (an `Rz` on every wire before
/// the chain), then measured in a seeded Haar-random basis per wire. The
/// final layer makes the output distribution depend on the GHZ phase and on
/// the seed, so a compiled circuit that gets a phase wrong fails the check.
pub fn ghz(n: usize, shape: &mut impl Rng, rng: &mut impl Rng) -> Circuit {
    let order = permutation(n, shape);
    let mut circuit = Circuit::new(n);
    circuit.push(Instruction::new(vec![order[0]], h(), "H"));
    for q in 0..n {
        circuit.push(Instruction::new(vec![q], rz(rng.gen_range(0.0..PI)), "RZ"));
    }
    for pair in order.windows(2) {
        circuit.push(Instruction::new(vec![pair[0], pair[1]], cnot(), "CX"));
    }
    for q in 0..n {
        circuit.push(Instruction::new(vec![q], haar_su(2, rng), "U"));
    }
    circuit
}

/// `exp(−i·dt·(Jx XX + Jy YY + Jz ZZ))`: one Trotter bond of the XYZ model.
pub fn bond_gate(jx: f64, jy: f64, jz: f64, dt: f64) -> CMat {
    let hamiltonian = xx().scale(c(jx, 0.0)) + yy().scale(c(jy, 0.0)) + zz().scale(c(jz, 0.0));
    expm_minus_i_hermitian(&hamiltonian, dt)
}

/// Trotter time step of the Heisenberg-XYZ circuits.
pub const TROTTER_DT: f64 = 0.25;

/// `steps` Trotter steps of the random-bond Heisenberg-XYZ model on the
/// `rows × cols` lattice (row-major wires) from the Néel state. Each bond
/// draws its own couplings `(Jx, Jy, Jz)` from `rng`, so a circuit spans
/// one Weyl class per bond. `|0…0⟩` is an eigenstate of the model, so the
/// Néel start is what makes the dynamics non-trivial.
pub fn heisenberg_xyz(rows: usize, cols: usize, steps: usize, rng: &mut impl Rng) -> Circuit {
    let matchings = lattice_matchings(rows, cols);
    let gates: Vec<Vec<CMat>> = matchings
        .iter()
        .map(|m| {
            m.iter()
                .map(|_| {
                    let jx = rng.gen_range(0.6..1.2);
                    let jy = rng.gen_range(0.3..0.8);
                    let jz = rng.gen_range(0.05..0.4);
                    bond_gate(jx, jy, jz, TROTTER_DT)
                })
                .collect()
        })
        .collect();
    let mut circuit = Circuit::new(rows * cols);
    for r in 0..rows {
        for col in 0..cols {
            if (r + col) % 2 == 1 {
                circuit.push(Instruction::new(
                    vec![r * cols + col],
                    Pauli::X.matrix(),
                    "X",
                ));
            }
        }
    }
    for _ in 0..steps {
        for (matching, gates) in matchings.iter().zip(&gates) {
            for (&(a, b), gate) in matching.iter().zip(gates) {
                circuit.push(Instruction::new(vec![a, b], gate.clone(), "XYZ"));
            }
        }
    }
    circuit
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_matchings_cover_every_bond_once() {
        let m = lattice_matchings(3, 4);
        let total: usize = m.iter().map(Vec::len).sum();
        assert_eq!(total, 3 * 3 + 4 * 2);
        for matching in &m {
            let mut seen = [false; 12];
            for &(a, b) in matching {
                assert!(!seen[a] && !seen[b], "matching reuses a site");
                seen[a] = true;
                seen[b] = true;
            }
        }
    }

    #[test]
    fn ghz_output_shows_a_phase_error() {
        use crate::check::{ideal_distribution, tvd, CHECK_TVD};
        let n = 6;
        let circuit = ghz(n, &mut shape_rng(0), &mut rng(7, 0));
        // A Z on one wire between the chain and the final layer.
        let mut wrong = circuit.clone();
        let at = wrong.instructions.len() - n;
        wrong
            .instructions
            .insert(at, Instruction::new(vec![0], Pauli::Z.matrix(), "Z"));
        let d = tvd(&ideal_distribution(&circuit), &ideal_distribution(&wrong));
        assert!(d > 10.0 * CHECK_TVD, "TVD {d}");
    }

    #[test]
    fn permutation_is_a_bijection() {
        let mut p = permutation(16, &mut rng(3, 0));
        p.sort_unstable();
        assert_eq!(p, (0..16).collect::<Vec<_>>());
    }
}
