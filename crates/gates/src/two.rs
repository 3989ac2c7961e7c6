//! Standard two-qubit gates and the canonical (Weyl) gate.

use crate::pauli::{xx, yy, zz};
use ashn_math::expm::expm_i_hermitian;
use ashn_math::{c, CMat, Complex};
use std::f64::consts::{FRAC_PI_4, FRAC_PI_8};

/// CNOT with the first qubit as control (big-endian ordering `|q0 q1⟩`).
pub fn cnot() -> CMat {
    CMat::from_rows_f64(&[
        &[1.0, 0.0, 0.0, 0.0],
        &[0.0, 1.0, 0.0, 0.0],
        &[0.0, 0.0, 0.0, 1.0],
        &[0.0, 0.0, 1.0, 0.0],
    ])
}

/// Controlled-Z (symmetric between the qubits).
pub fn cz() -> CMat {
    CMat::diag(&[Complex::ONE, Complex::ONE, Complex::ONE, c(-1.0, 0.0)])
}

/// SWAP gate.
pub fn swap() -> CMat {
    CMat::from_rows_f64(&[
        &[1.0, 0.0, 0.0, 0.0],
        &[0.0, 0.0, 1.0, 0.0],
        &[0.0, 1.0, 0.0, 0.0],
        &[0.0, 0.0, 0.0, 1.0],
    ])
}

/// iSWAP gate.
pub fn iswap() -> CMat {
    CMat::from_rows(&[
        &[Complex::ONE, Complex::ZERO, Complex::ZERO, Complex::ZERO],
        &[Complex::ZERO, Complex::ZERO, Complex::I, Complex::ZERO],
        &[Complex::ZERO, Complex::I, Complex::ZERO, Complex::ZERO],
        &[Complex::ZERO, Complex::ZERO, Complex::ZERO, Complex::ONE],
    ])
}

/// `SQiSW = √iSWAP`, the flux-tuned gate used as the baseline instruction in
/// Huang et al., "Quantum instruction set design for performance".
pub fn sqisw() -> CMat {
    let r = std::f64::consts::FRAC_1_SQRT_2;
    CMat::from_rows(&[
        &[Complex::ONE, Complex::ZERO, Complex::ZERO, Complex::ZERO],
        &[Complex::ZERO, c(r, 0.0), c(0.0, r), Complex::ZERO],
        &[Complex::ZERO, c(0.0, r), c(r, 0.0), Complex::ZERO],
        &[Complex::ZERO, Complex::ZERO, Complex::ZERO, Complex::ONE],
    ])
}

/// The echoed cross-resonance gate `ECR = (X⊗I − Y⊗X)/√2` (big-endian,
/// first qubit is the control), the native entangler of fixed-frequency
/// transmon stacks. Hermitian, self-inverse, and locally equivalent to
/// CNOT (canonical class `(π/4, 0, 0)`).
pub fn ecr() -> CMat {
    let r = std::f64::consts::FRAC_1_SQRT_2;
    CMat::from_rows(&[
        &[Complex::ZERO, Complex::ZERO, c(r, 0.0), c(0.0, r)],
        &[Complex::ZERO, Complex::ZERO, c(0.0, r), c(r, 0.0)],
        &[c(r, 0.0), c(0.0, -r), Complex::ZERO, Complex::ZERO],
        &[c(0.0, -r), c(r, 0.0), Complex::ZERO, Complex::ZERO],
    ])
}

/// The canonical gate `CAN(x, y, z) = exp(i(x·XX + y·YY + z·ZZ))`.
///
/// Every two-qubit gate equals `(A₁⊗A₂)·CAN(x,y,z)·(B₁⊗B₂)` up to a global
/// phase (the KAK decomposition, paper Theorem 1).
pub fn canonical(x: f64, y: f64, z: f64) -> CMat {
    let hgen = xx().scale(c(x, 0.0)) + yy().scale(c(y, 0.0)) + zz().scale(c(z, 0.0));
    expm_i_hermitian(&hgen, 1.0)
}

/// The B gate, `CAN(π/4, π/8, 0)`: the unique class from which two
/// applications reach the whole Weyl chamber (paper §6.4).
pub fn b_gate() -> CMat {
    canonical(FRAC_PI_4, FRAC_PI_8, 0.0)
}

/// The Mølmer–Sørensen gate `XX(π/2) = exp(−i·(π/4)·XX)`, the exact gate the
/// AshN `[CNOT]`-class pulse produces (paper §6.4).
pub fn molmer_sorensen() -> CMat {
    let hgen = xx().scale(c(FRAC_PI_4, 0.0));
    expm_i_hermitian(&hgen, -1.0)
}

/// The fSim gate family `fSim(θ, φ)` (Foxen et al. \[2\]).
pub fn fsim(theta: f64, phi: f64) -> CMat {
    let (s, co) = theta.sin_cos();
    CMat::from_rows(&[
        &[Complex::ONE, Complex::ZERO, Complex::ZERO, Complex::ZERO],
        &[Complex::ZERO, c(co, 0.0), c(0.0, -s), Complex::ZERO],
        &[Complex::ZERO, c(0.0, -s), c(co, 0.0), Complex::ZERO],
        &[
            Complex::ZERO,
            Complex::ZERO,
            Complex::ZERO,
            Complex::cis(-phi),
        ],
    ])
}

/// The XY interaction family `XY(θ) = exp(−i·θ/4·(XX+YY))` (Abrams et al. \[4\]).
pub fn xy(theta: f64) -> CMat {
    let hgen = (xx() + yy()).scale(c(0.25, 0.0));
    expm_i_hermitian(&hgen, -theta)
}

/// `ZZ(θ) = exp(−i·θ/2·ZZ)` two-qubit phase rotation.
pub fn zz_rotation(theta: f64) -> CMat {
    let hgen = zz().scale(c(0.5, 0.0));
    expm_i_hermitian(&hgen, -theta)
}

/// Controlled version of a single-qubit unitary (control = first qubit).
///
/// # Panics
///
/// Panics if `u` is not 2×2.
pub fn controlled(u: &CMat) -> CMat {
    assert_eq!((u.rows(), u.cols()), (2, 2));
    let mut m = CMat::identity(4);
    m.set_block(2, 2, u);
    m
}

/// Kronecker product of two single-qubit gates, `a ⊗ b`.
pub fn kron2(a: &CMat, b: &CMat) -> CMat {
    a.kron(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single::h;

    #[test]
    fn all_standard_gates_are_unitary() {
        for g in [
            cnot(),
            cz(),
            ecr(),
            swap(),
            iswap(),
            sqisw(),
            b_gate(),
            molmer_sorensen(),
            fsim(0.3, 0.7),
            xy(1.1),
            zz_rotation(0.4),
        ] {
            assert!(g.is_unitary(1e-12));
        }
    }

    #[test]
    fn sqisw_squares_to_iswap() {
        assert!(sqisw().matmul(&sqisw()).dist(&iswap()) < 1e-13);
    }

    #[test]
    fn cnot_is_hadamard_conjugated_cz() {
        let ih = CMat::identity(2).kron(&h());
        assert!(ih.matmul(&cz()).matmul(&ih).dist(&cnot()) < 1e-13);
    }

    #[test]
    fn ecr_is_self_inverse() {
        assert!(ecr().matmul(&ecr()).dist(&CMat::identity(4)) < 1e-14);
    }

    #[test]
    fn ecr_is_in_the_cnot_weyl_class() {
        use crate::weyl::WeylPoint;
        let p = crate::kak::weyl_coordinates(&ecr()).canonicalize();
        assert!(p.gate_dist(WeylPoint::CNOT) < 1e-9);
    }

    #[test]
    fn swap_squares_to_identity() {
        assert!(swap().matmul(&swap()).dist(&CMat::identity(4)) < 1e-14);
    }

    #[test]
    fn canonical_at_origin_is_identity() {
        assert!(canonical(0.0, 0.0, 0.0).dist(&CMat::identity(4)) < 1e-13);
    }

    #[test]
    fn canonical_factors_commute() {
        let a = canonical(0.3, 0.0, 0.0);
        let b = canonical(0.0, 0.2, 0.1);
        let joint = canonical(0.3, 0.2, 0.1);
        assert!(a.matmul(&b).dist(&joint) < 1e-12);
    }

    #[test]
    fn xy_interaction_matches_iswap_family() {
        // XY(π) should be locally equivalent to iSWAP; as matrices,
        // exp(−iπ/4(XX+YY)) equals iSWAP up to the sign convention.
        let u = xy(-std::f64::consts::PI);
        assert!(u.dist(&iswap()) < 1e-12);
    }

    #[test]
    fn fsim_at_special_point_is_iswap_like() {
        let u = fsim(-std::f64::consts::FRAC_PI_2, 0.0);
        assert!(u.dist(&iswap()) < 1e-12);
    }

    #[test]
    fn controlled_x_is_cnot() {
        let x = crate::pauli::Pauli::X.matrix();
        assert!(controlled(&x).dist(&cnot()) < 1e-14);
    }
}
