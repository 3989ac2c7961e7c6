//! Quantum multiplexors: dense builders, Gray-code CNOT ladders for
//! multiplexed rotations (Möttönen et al. \[42\]), and demultiplexing of
//! select-qubit block-diagonal unitaries.

use ashn_gates::single::{ry, rz};
use ashn_gates::two::cnot;
use ashn_ir::Instruction;
use ashn_math::eig::{try_eig_unitary, EigError};
use ashn_math::{CMat, Complex};

/// Rotation axis of a multiplexed rotation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Axis {
    /// Multiplexed `Ry`.
    Y,
    /// Multiplexed `Rz`.
    Z,
}

fn rot(axis: Axis, theta: f64) -> CMat {
    match axis {
        Axis::Y => ry(theta),
        Axis::Z => rz(theta),
    }
}

/// Dense multiplexed rotation: target is qubit 0, selects are qubits
/// `1..=m` (big-endian), `angles[l]` applied when the selects read `l`.
pub fn mux_rotation(axis: Axis, angles: &[f64]) -> CMat {
    let m = angles.len();
    assert!(m.is_power_of_two(), "need 2^m angles");
    let dim = 2 * m;
    let mut out = CMat::zeros(dim, dim);
    for (l, &theta) in angles.iter().enumerate() {
        let r = rot(axis, theta);
        for a in 0..2 {
            for b in 0..2 {
                out[(a * m + l, b * m + l)] = r[(a, b)];
            }
        }
    }
    out
}

/// `true` when `u` is block-diagonal with respect to qubit `q` (a `q`-select
/// multiplexor).
pub fn is_mux(u: &CMat, n: usize, q: usize, tol: f64) -> bool {
    let dim = 1usize << n;
    assert_eq!(u.rows(), dim);
    let p = n - 1 - q;
    let mut off = 0.0;
    for r in 0..dim {
        for c in 0..dim {
            if (r >> p & 1) != (c >> p & 1) {
                off += u[(r, c)].norm_sqr();
            }
        }
    }
    off.sqrt() < tol
}

/// Extracts the two blocks of a `q`-select multiplexor (`q` asserted via
/// [`is_mux`]): returns `(U0, U1)` acting on the remaining qubits in
/// ascending order.
pub fn mux_blocks(u: &CMat, n: usize, q: usize) -> (CMat, CMat) {
    assert!(
        is_mux(u, n, q, 1e-8),
        "input is not a qubit-{q} multiplexor"
    );
    let dim = 1usize << n;
    let p = n - 1 - q;
    let half = dim / 2;
    // Sub-index: remaining bits in original order with bit p removed.
    let compress = |full: usize| -> usize {
        let high = full >> (p + 1);
        let low = full & ((1 << p) - 1);
        (high << p) | low
    };
    let mut u0 = CMat::zeros(half, half);
    let mut u1 = CMat::zeros(half, half);
    for r in 0..dim {
        for c in 0..dim {
            let (rb, cb) = (r >> p & 1, c >> p & 1);
            if rb != cb {
                continue;
            }
            let tgt = if rb == 0 { &mut u0 } else { &mut u1 };
            tgt[(compress(r), compress(c))] = u[(r, c)];
        }
    }
    (u0, u1)
}

fn gray(i: usize) -> usize {
    i ^ (i >> 1)
}

/// Gray-code CNOT ladder implementing `mux_rotation(axis, angles)` on the
/// register `[target, selects…]`.
///
/// Emits alternating rotations (on `target`) and CNOTs
/// (`control = a select`, `target`), `2^m` of each.
pub fn mux_rotation_ladder(
    axis: Axis,
    target: usize,
    selects: &[usize],
    angles: &[f64],
) -> Vec<Instruction> {
    let m = selects.len();
    assert_eq!(angles.len(), 1 << m, "need 2^m angles");
    if m == 0 {
        return vec![Instruction::new(vec![target], rot(axis, angles[0]), "R")];
    }
    let size = 1usize << m;
    // φ_j = 2^{−m} Σ_l (−1)^{⟨gray(j), l⟩} θ_l.
    let mut phi = vec![0.0; size];
    for (j, p) in phi.iter_mut().enumerate() {
        let gj = gray(j);
        for (l, &theta) in angles.iter().enumerate() {
            let sign = if (gj & l).count_ones().is_multiple_of(2) {
                1.0
            } else {
                -1.0
            };
            *p += sign * theta;
        }
        *p /= size as f64;
    }
    let mut gates = Vec::with_capacity(2 * size);
    for (j, &p) in phi.iter().enumerate() {
        gates.push(Instruction::new(vec![target], rot(axis, p), "R"));
        // Control = select whose bit flips between gray(j) and gray(j+1).
        let flip =
            (gray(j) ^ gray((j + 1) % size)) | if j + 1 == size { gray(size - 1) } else { 0 };
        let bit = flip.trailing_zeros() as usize;
        // Bit b of l corresponds to selects[m−1−b].
        let control = selects[m - 1 - bit];
        gates.push(Instruction::new(vec![control, target], cnot(), "CNOT"));
    }
    gates
}

/// Demultiplexes `blkdiag(U0, U1)` (select = most significant qubit) into
/// `(V, rz_angles, W)` with
/// `blkdiag(U0, U1) = (I⊗V) · muxRz(rz_angles) · (I⊗W)`.
pub fn demultiplex(u0: &CMat, u1: &CMat) -> (CMat, Vec<f64>, CMat) {
    try_demultiplex(u0, u1).unwrap_or_else(|e| panic!("demultiplex: {e}"))
}

/// Fallible variant of [`demultiplex`]: surfaces the eigendecomposition
/// failure instead of panicking.
///
/// # Errors
///
/// Propagates [`EigError`] from [`ashn_math::eig::try_eig_unitary`] (the
/// product `U0·U1†` of two unitaries is unitary, so this only fires on
/// malformed inputs — or through the `math::eig::unitary` failpoint).
pub fn try_demultiplex(u0: &CMat, u1: &CMat) -> Result<(CMat, Vec<f64>, CMat), EigError> {
    assert_eq!(u0.rows(), u1.rows());
    let prod = u0.matmul(&u1.adjoint());
    let e = try_eig_unitary(&prod)?;
    let half_phases: Vec<f64> = e.values.iter().map(|v| v.arg() / 2.0).collect();
    let d = CMat::diag(
        &half_phases
            .iter()
            .map(|&p| Complex::cis(p))
            .collect::<Vec<_>>(),
    );
    let v = e.vectors.clone();
    let w = d.adjoint().matmul(&v.adjoint()).matmul(u0);
    // muxRz convention: branch q0 = 0 applies e^{+iφ} = Rz(−2φ).
    let angles = half_phases.iter().map(|&p| -2.0 * p).collect();
    Ok((v, angles, w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ashn_ir::{embed, Circuit};
    use ashn_math::randmat::haar_unitary;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn ladder_unitary(axis: Axis, n: usize, angles: &[f64]) -> CMat {
        let selects: Vec<usize> = (1..n).collect();
        let mut c = Circuit::new(n);
        for g in mux_rotation_ladder(axis, 0, &selects, angles) {
            c.push(g);
        }
        c.unitary()
    }

    #[test]
    fn ladder_matches_dense_mux_small() {
        let mut rng = StdRng::seed_from_u64(71);
        for m in 1..=3usize {
            let n = m + 1;
            let angles: Vec<f64> = (0..1 << m).map(|_| rng.gen::<f64>() * 3.0 - 1.5).collect();
            for axis in [Axis::Y, Axis::Z] {
                let dense = mux_rotation(axis, &angles);
                let lad = ladder_unitary(axis, n, &angles);
                assert!(
                    lad.dist(&dense) < 1e-10,
                    "axis {axis:?} m={m}: mismatch {}",
                    lad.dist(&dense)
                );
            }
        }
    }

    #[test]
    fn ladder_cnot_count_is_two_to_m() {
        let angles = vec![0.1; 8];
        let gates = mux_rotation_ladder(Axis::Y, 0, &[1, 2, 3], &angles);
        let cnots = gates.iter().filter(|g| g.qubits.len() == 2).count();
        assert_eq!(cnots, 8);
    }

    #[test]
    fn demultiplex_reconstructs() {
        let mut rng = StdRng::seed_from_u64(72);
        for half_n in [1usize, 2, 3] {
            let dim = 1 << half_n;
            let u0 = haar_unitary(dim, &mut rng);
            let u1 = haar_unitary(dim, &mut rng);
            let (v, angles, w) = demultiplex(&u0, &u1);
            assert!(v.is_unitary(1e-8));
            assert!(w.is_unitary(1e-8));
            let n = half_n + 1;
            let mut mux = CMat::zeros(2 * dim, 2 * dim);
            mux.set_block(0, 0, &u0);
            mux.set_block(dim, dim, &u1);
            let rebuilt = embed(n, &(1..n).collect::<Vec<_>>(), &v)
                .matmul(&mux_rotation(Axis::Z, &angles))
                .matmul(&embed(n, &(1..n).collect::<Vec<_>>(), &w));
            assert!(
                rebuilt.dist(&mux) < 1e-7,
                "demux reconstruction error {}",
                rebuilt.dist(&mux)
            );
        }
    }

    #[test]
    fn mux_detection_and_blocks() {
        let mut rng = StdRng::seed_from_u64(73);
        let u0 = haar_unitary(4, &mut rng);
        let u1 = haar_unitary(4, &mut rng);
        let mut mux = CMat::zeros(8, 8);
        mux.set_block(0, 0, &u0);
        mux.set_block(4, 4, &u1);
        assert!(is_mux(&mux, 3, 0, 1e-10));
        assert!(!is_mux(&mux, 3, 1, 1e-6));
        let (b0, b1) = mux_blocks(&mux, 3, 0);
        assert!(b0.dist(&u0) < 1e-12);
        assert!(b1.dist(&u1) < 1e-12);
    }

    #[test]
    fn mux_blocks_middle_qubit() {
        // Build a q1-select mux on 3 qubits and re-extract its blocks.
        let mut rng = StdRng::seed_from_u64(74);
        let u0 = haar_unitary(4, &mut rng);
        let u1 = haar_unitary(4, &mut rng);
        let dim = 8;
        let mut mux = CMat::zeros(dim, dim);
        // q1 is bit position 1; remaining qubits (0, 2) map to sub-bits (1, 0).
        for r in 0..dim {
            for c in 0..dim {
                let (rb, cb) = (r >> 1 & 1, c >> 1 & 1);
                if rb != cb {
                    continue;
                }
                let sub_r = ((r >> 2 & 1) << 1) | (r & 1);
                let sub_c = ((c >> 2 & 1) << 1) | (c & 1);
                let val = if rb == 0 {
                    u0[(sub_r, sub_c)]
                } else {
                    u1[(sub_r, sub_c)]
                };
                mux[(r, c)] = val;
            }
        }
        assert!(is_mux(&mux, 3, 1, 1e-10));
        let (b0, b1) = mux_blocks(&mux, 3, 1);
        assert!(b0.dist(&u0) < 1e-12);
        assert!(b1.dist(&u1) < 1e-12);
    }
}
