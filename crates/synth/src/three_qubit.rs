//! Three-qubit synthesis with generic two-qubit gates (paper Theorem 12):
//! any `SU(8)` element in **11** two-qubit gates.
//!
//! Construction (constructive version of paper §B.3.1):
//!
//! 1. CSD on the most significant qubit: `U = L · RY · R` with `L, R`
//!    q0-select multiplexors and `RY` a doubly multiplexed `Ry` on q0.
//! 2. Split `RY` over the q2 select with **CZ** corrections (diagonal, so
//!    they merge into multiplexors): `RY = G4·CZ·G3·CZ`, where `G3, G4` are
//!    single-select multiplexed `Ry`s = two-qubit gates on (q0, q1).
//! 3. Absorb the first CZ into `R`: `P = CZ·R` is still a q0-multiplexor;
//!    decompose `P` by the 5-gate multiplexor lemma (Lemma 14).
//! 4. Merge `G3` with `P`'s last diagonal (both on (q0,q1)); decompose `L`
//!    with the *mirrored* lemma so its first gate is a diagonal on (q0,q1)
//!    that merges with `G4`.
//!
//! Count: 5 + 4 + 5 − 3 merges = **11**.

use crate::csd::csd;
use crate::multiplexor::{mux_rotation, Axis};
use ashn_gates::two::cz;
use ashn_ir::{Circuit, Instruction, SynthError};
use ashn_math::eig::{try_eig_unitary, EigError};
use ashn_math::{CMat, Complex};

fn wrap(x: f64) -> f64 {
    let mut y = x % std::f64::consts::TAU;
    if y > std::f64::consts::PI {
        y -= std::f64::consts::TAU;
    }
    if y <= -std::f64::consts::PI {
        y += std::f64::consts::TAU;
    }
    y
}

/// `Rz(t)⊗Rz(s)` as a diagonal 4×4.
fn rz_pair(t: f64, s: f64) -> CMat {
    CMat::diag(&[
        Complex::cis(-(t + s) / 2.0),
        Complex::cis((-t + s) / 2.0),
        Complex::cis((t - s) / 2.0),
        Complex::cis((t + s) / 2.0),
    ])
}

/// The 5-gate multiplexor decomposition (paper Lemma 14).
///
/// Input: the two blocks `(u0, u1)` of a multiplexor with select qubit `s`,
/// expressed on the pair `[a, b]` (big-endian). Output: five two-qubit
/// gates in application order,
/// `[V2 (a,b), D3 (s,b), D2 (s,a), V1 (a,b), D1 (s,a)]`,
/// where the `D`s are diagonal.
///
/// With `mirrored = true` the order is reversed (`D1` applied first), which
/// is the orientation needed on the left side of the Theorem 12 pipeline.
pub fn lemma14(
    u0: &CMat,
    u1: &CMat,
    s: usize,
    a: usize,
    b: usize,
    mirrored: bool,
) -> Vec<Instruction> {
    try_lemma14(u0, u1, s, a, b, mirrored)
        .unwrap_or_else(|e| panic!("lemma14: eigendecomposition failed: {e}"))
}

/// Fallible variant of [`lemma14`]: surfaces the eigendecomposition failure
/// instead of panicking (the multiplexed product can in principle defeat
/// the Jacobi diagonalisation for adversarial inputs).
///
/// # Errors
///
/// Propagates [`EigError`] from [`ashn_math::eig::try_eig_unitary`].
pub fn try_lemma14(
    u0: &CMat,
    u1: &CMat,
    s: usize,
    a: usize,
    b: usize,
    mirrored: bool,
) -> Result<Vec<Instruction>, EigError> {
    assert_eq!(u0.rows(), 4);
    assert_eq!(u1.rows(), 4);
    if mirrored {
        // mux(U0, U1)ᵀ = mux(U0ᵀ, U1ᵀ); transpose the natural circuit and
        // reverse the order.
        let gates = try_lemma14(&u0.transpose(), &u1.transpose(), s, a, b, false)?;
        return Ok(gates
            .into_iter()
            .rev()
            .map(|g| Instruction::new(g.qubits, g.matrix.transpose(), g.label))
            .collect());
    }

    // Normalise branch phases so det(U0·U1†) = 1; the stripped phases are
    // refolded into D1 below.
    let det = u0.matmul(&u1.adjoint()).det();
    let alpha = det.arg() / 8.0;
    let u0n = u0.scale(Complex::cis(-alpha));
    let u1n = u1.scale(Complex::cis(alpha));

    let w = u0n.matmul(&u1n.adjoint());
    // θ1 makes tr(U′) real: ra·sin(θa+θ1) + rb·sin(θb−θ1) = 0.
    let za = w[(0, 0)] + w[(1, 1)];
    let zb = w[(2, 2)] + w[(3, 3)];
    let (ra, ta) = (za.abs(), za.arg());
    let (rb, tb) = (zb.abs(), zb.arg());
    let theta1 = (-(ra * ta.sin() + rb * tb.sin())).atan2(ra * ta.cos() - rb * tb.cos());

    let rzm = rz_pair(-theta1, 0.0); // Rz(−θ1)⊗I
    let uprime = rzm.matmul(&w).matmul(&rzm);
    debug_assert!(uprime.trace().im.abs() < 1e-7, "tr(U′) not real");

    // Eigenphases come in conjugate pairs; greedily match p with −p.
    let e = try_eig_unitary(&uprime)?;
    let mut items: Vec<(f64, Vec<Complex>)> = (0..4)
        .map(|j| (e.values[j].arg(), e.vectors.col(j)))
        .collect();
    // Pair 0: find (i, j) minimizing |p_i + p_j| mod 2π.
    let (mut bi, mut bj, mut best) = (0, 1, f64::INFINITY);
    for i in 0..4 {
        for j in i + 1..4 {
            let v = wrap(items[i].0 + items[j].0).abs();
            if v < best {
                best = v;
                bi = i;
                bj = j;
            }
        }
    }
    let pair1: Vec<(f64, Vec<Complex>)> = vec![items[bi].clone(), items[bj].clone()];
    let mut rest: Vec<(f64, Vec<Complex>)> = items
        .drain(..)
        .enumerate()
        .filter(|(k, _)| *k != bi && *k != bj)
        .map(|(_, v)| v)
        .collect();
    debug_assert!(
        wrap(rest[0].0 + rest[1].0).abs() < 1e-6,
        "bad phase pairing"
    );
    // Order each pair as (−φ, +φ) with φ ≥ 0. Using (|p₋|+|p₊|)/2 rather
    // than (p₊−p₋)/2 keeps the degenerate (π, π) pair (eigenvalue −1 twice,
    // as in Toffoli-like gates) at φ = π instead of collapsing to 0.
    let order_pair = |p: &mut Vec<(f64, Vec<Complex>)>| {
        if p[0].0 > p[1].0 {
            p.swap(0, 1);
        }
        (p[0].0.abs() + p[1].0.abs()) / 2.0
    };
    let mut pair1 = pair1;
    let phi_a = order_pair(&mut pair1);
    let phi_b = order_pair(&mut rest);
    // Assign the larger phase to the outer columns.
    let (outer, inner, phi_out, phi_in) = if phi_a >= phi_b {
        (pair1, rest, phi_a, phi_b)
    } else {
        (rest, pair1, phi_b, phi_a)
    };
    let theta2 = (phi_out + phi_in) / 2.0;
    let theta3 = (phi_out - phi_in) / 2.0;
    // V1 columns matching diag(e^{−iφa}, e^{−iφb}, e^{+iφb}, e^{+iφa}).
    let mut v1 = CMat::zeros(4, 4);
    v1.set_col(0, &outer[0].1);
    v1.set_col(1, &inner[0].1);
    v1.set_col(2, &inner[1].1);
    v1.set_col(3, &outer[1].1);

    let rz23 = rz_pair(theta2, theta3);
    let v2 = rz23
        .adjoint()
        .matmul(&v1.adjoint())
        .matmul(&rzm)
        .matmul(&u0n);

    // Diagonal gates on (s, a) and (s, b); |s p⟩ ordering is big-endian.
    let dgate = |theta: f64, extra0: Complex, extra1: Complex| -> CMat {
        CMat::diag(&[
            Complex::cis(-theta / 2.0) * extra0,
            Complex::cis(theta / 2.0) * extra0,
            Complex::cis(theta / 2.0) * extra1,
            Complex::cis(-theta / 2.0) * extra1,
        ])
    };
    let d1 = dgate(theta1, Complex::cis(alpha), Complex::cis(-alpha));
    let d2 = dgate(theta2, Complex::ONE, Complex::ONE);
    let d3 = dgate(theta3, Complex::ONE, Complex::ONE);

    Ok(vec![
        Instruction::new(vec![a, b], v2, "V2"),
        Instruction::new(vec![s, b], d3, "D3"),
        Instruction::new(vec![s, a], d2, "D2"),
        Instruction::new(vec![a, b], v1, "V1"),
        Instruction::new(vec![s, a], d1, "D1"),
    ])
}

/// Decomposes an arbitrary 8×8 unitary into **11** two-qubit gates
/// (paper Theorem 12), verified against the input.
///
/// # Panics
///
/// Panics when `u` is not an 8×8 unitary or verification fails.
pub fn decompose_three_qubit(u: &CMat) -> Circuit {
    assert_eq!(u.rows(), 8, "three-qubit unitary required");
    assert!(u.is_unitary(1e-8));
    try_decompose_three_qubit(u).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible variant of [`decompose_three_qubit`]: malformed targets,
/// eigendecomposition failures inside the multiplexor demux, and a failed
/// verification all surface as [`SynthError`] instead of panicking.
///
/// # Errors
///
/// [`SynthError::InvalidTarget`] when `u` is not an 8×8 unitary;
/// [`SynthError::Convergence`] when the KAK/demux numerics fail or the
/// assembled circuit does not reproduce `u`.
pub fn try_decompose_three_qubit(u: &CMat) -> Result<Circuit, SynthError> {
    let basis = || "three-qubit QSD".to_string();
    if u.rows() != 8 || !u.is_square() {
        return Err(SynthError::InvalidTarget {
            basis: basis(),
            detail: format!("expected an 8x8 unitary, got {}x{}", u.rows(), u.cols()),
        });
    }
    if !u.is_unitary(1e-8) {
        return Err(SynthError::InvalidTarget {
            basis: basis(),
            detail: "target is not unitary at 1e-8".to_string(),
        });
    }
    let d = csd(u);

    // Middle muxRy angles 2θ_{l}, l = (q1 q2) big-endian; split over q2:
    // G4 carries the q2-average, G3 the q2-difference.
    let t = &d.theta;
    let g4 = mux_rotation(Axis::Y, &[t[0] + t[1], t[2] + t[3]]);
    let g3 = mux_rotation(Axis::Y, &[t[0] - t[1], t[2] - t[3]]);

    // P = CZ(q0,q2) · Rmux, still a q0-multiplexor: block0 = R0†,
    // block1 = (I⊗Z)·R1†.
    let iz = CMat::diag(&[
        Complex::ONE,
        -Complex::ONE * 1.0,
        Complex::ONE,
        -Complex::ONE * 1.0,
    ]);
    // (I⊗Z) on (q1,q2) = diag(1,−1,1,−1).
    let p0 = d.r0.adjoint();
    let p1 = iz.matmul(&d.r1.adjoint());

    let eig_fail = |e: EigError| SynthError::Convergence {
        basis: basis(),
        detail: e.to_string(),
    };
    let right = try_lemma14(&p0, &p1, 0, 1, 2, false).map_err(eig_fail)?;
    let left = try_lemma14(&d.l0, &d.l1, 0, 1, 2, true).map_err(eig_fail)?;

    let mut out = Circuit::new(3);
    // Right side: V2, D3, D2, V1, then D1 merged with G3 (both on (0,1)).
    // `try_lemma14` returns exactly five gates by construction.
    let mut right_iter = right.into_iter();
    for _ in 0..4 {
        if let Some(g) = right_iter.next() {
            out.push(g);
        }
    }
    let Some(d1) = right_iter.next() else {
        return Err(SynthError::Convergence {
            basis: basis(),
            detail: "lemma14 returned fewer than five gates".to_string(),
        });
    };
    debug_assert_eq!(d1.qubits, vec![0, 1]);
    out.push(Instruction::new(
        vec![0, 1],
        g3.matmul(&d1.matrix),
        "V[G3·D1]",
    ));

    // CZ(q0, q2).
    out.push(Instruction::new(vec![0, 2], cz(), "CZ"));

    // Left side: D1m merged with G4 (both on (0,1)), then the remainder.
    let mut left_iter = left.into_iter();
    let Some(d1m) = left_iter.next() else {
        return Err(SynthError::Convergence {
            basis: basis(),
            detail: "lemma14 returned an empty gate list".to_string(),
        });
    };
    debug_assert_eq!(d1m.qubits, vec![0, 1]);
    out.push(Instruction::new(
        vec![0, 1],
        d1m.matrix.matmul(&g4),
        "V[D1m·G4]",
    ));
    for g in left_iter {
        out.push(g);
    }

    debug_assert_eq!(out.entangler_count(), 11);
    let err = out.error(u);
    if err >= 5e-6 {
        return Err(SynthError::Convergence {
            basis: basis(),
            detail: format!("three-qubit decomposition failed to verify: {err:.2e}"),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multiplexor::{is_mux, mux_blocks};
    use ashn_ir::embed;
    use ashn_math::randmat::haar_unitary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assemble(gates: &[Instruction]) -> CMat {
        let mut c = Circuit::new(3);
        for g in gates {
            c.push(g.clone());
        }
        c.unitary()
    }

    fn mux_dense(u0: &CMat, u1: &CMat) -> CMat {
        let mut m = CMat::zeros(8, 8);
        m.set_block(0, 0, u0);
        m.set_block(4, 4, u1);
        m
    }

    #[test]
    fn lemma14_reconstructs_random_multiplexors() {
        let mut rng = StdRng::seed_from_u64(101);
        for _ in 0..10 {
            let u0 = haar_unitary(4, &mut rng);
            let u1 = haar_unitary(4, &mut rng);
            let gates = lemma14(&u0, &u1, 0, 1, 2, false);
            assert_eq!(gates.len(), 5);
            let got = assemble(&gates);
            let expect = mux_dense(&u0, &u1);
            assert!(got.dist(&expect) < 1e-7, "error {}", got.dist(&expect));
            // Three of the five gates are diagonal (paper Lemma 14).
            let diag_count = gates.iter().filter(|g| g.is_diagonal(1e-9)).count();
            assert_eq!(diag_count, 3);
        }
    }

    #[test]
    fn lemma14_mirrored_reconstructs() {
        let mut rng = StdRng::seed_from_u64(102);
        let u0 = haar_unitary(4, &mut rng);
        let u1 = haar_unitary(4, &mut rng);
        let gates = lemma14(&u0, &u1, 0, 1, 2, true);
        assert_eq!(gates.len(), 5);
        // First applied gate is the diagonal D1 on (0,1).
        assert_eq!(gates[0].qubits, vec![0, 1]);
        assert!(gates[0].is_diagonal(1e-9));
        let got = assemble(&gates);
        assert!(got.dist(&mux_dense(&u0, &u1)) < 1e-7);
    }

    #[test]
    fn lemma14_handles_equal_blocks() {
        // U0 = U1: the multiplexor is I⊗U0 — a degenerate case (W = I).
        let mut rng = StdRng::seed_from_u64(103);
        let u0 = haar_unitary(4, &mut rng);
        let gates = lemma14(&u0, &u0, 0, 1, 2, false);
        let got = assemble(&gates);
        assert!(got.dist(&mux_dense(&u0, &u0)) < 1e-7);
    }

    #[test]
    fn cz_times_mux_is_still_mux() {
        let mut rng = StdRng::seed_from_u64(104);
        let u0 = haar_unitary(4, &mut rng);
        let u1 = haar_unitary(4, &mut rng);
        let m = mux_dense(&u0, &u1);
        let czm = embed(3, &[0, 2], &cz()).matmul(&m);
        assert!(is_mux(&czm, 3, 0, 1e-9));
        let (b0, b1) = mux_blocks(&czm, 3, 0);
        assert!(b0.dist(&u0) < 1e-10);
        let iz = CMat::diag(&[
            Complex::ONE,
            -Complex::ONE * 1.0,
            Complex::ONE,
            -Complex::ONE * 1.0,
        ]);
        assert!(b1.dist(&iz.matmul(&u1)) < 1e-10);
    }

    #[test]
    fn theorem12_eleven_gates_for_haar_random() {
        let mut rng = StdRng::seed_from_u64(105);
        for _ in 0..5 {
            let u = haar_unitary(8, &mut rng);
            let c = decompose_three_qubit(&u);
            assert_eq!(c.entangler_count(), 11);
            assert!(c.error(&u) < 5e-6, "error {}", c.error(&u));
            // No gate acts on more than 2 qubits.
            assert!(c.instructions.iter().all(|g| g.qubits.len() <= 2));
        }
    }

    #[test]
    fn theorem12_handles_structured_gates() {
        // Toffoli and a product gate: structured, degenerate spectra.
        let mut toffoli = CMat::identity(8);
        toffoli[(6, 6)] = Complex::ZERO;
        toffoli[(7, 7)] = Complex::ZERO;
        toffoli[(6, 7)] = Complex::ONE;
        toffoli[(7, 6)] = Complex::ONE;
        let c = decompose_three_qubit(&toffoli);
        assert_eq!(c.entangler_count(), 11);
        assert!(c.error(&toffoli) < 5e-6, "error {}", c.error(&toffoli));

        let mut rng = StdRng::seed_from_u64(106);
        let prod = haar_unitary(2, &mut rng)
            .kron(&haar_unitary(2, &mut rng))
            .kron(&haar_unitary(2, &mut rng));
        let c2 = decompose_three_qubit(&prod);
        assert!(c2.error(&prod) < 5e-6);
    }
}
