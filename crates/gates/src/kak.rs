//! KAK decomposition of two-qubit gates via the magic basis.
//!
//! Any `U ∈ U(4)` factors as
//!
//! ```text
//! U = g · (A₁⊗A₂) · exp(i(x·XX + y·YY + z·ZZ)) · (B₁⊗B₂)
//! ```
//!
//! with `A, B ∈ SU(2)`, a global phase `g`, and canonical Weyl-chamber
//! coordinates `(x, y, z)` (paper Theorem 1). This module computes the full
//! decomposition, including the single-qubit factors, and canonicalizes the
//! coordinates while tracking the induced local corrections.
//!
//! The implementation runs entirely on stack-allocated [`Mat2`]/[`Mat4`]
//! matrices — `kak` sits inside every synthesis objective evaluation, so the
//! former per-call heap churn (a dozen `CMat` temporaries per
//! canonicalization move alone) was a measurable cost. The original
//! heap-allocated path survives as [`reference::kak_cmat`] and pins the fast
//! path down in the differential suite (`crates/gates/tests/kak_differential.rs`).

use crate::single::{rx2, ry2, s2};
use crate::two::canonical;
use crate::weyl::WeylPoint;
use ashn_math::{c, CMat, Complex, Mat2, Mat4};
use std::f64::consts::{FRAC_PI_2, FRAC_PI_4};

/// The magic (Bell-like) basis matrix `B`; conjugation by `B` maps
/// `SU(2)⊗SU(2)` onto `SO(4)`.
pub fn magic_basis() -> CMat {
    magic_basis4().into()
}

/// Stack-allocated magic basis matrix (see [`magic_basis`]).
pub fn magic_basis4() -> Mat4 {
    let s = std::f64::consts::FRAC_1_SQRT_2;
    let z = Complex::ZERO;
    Mat4::from_rows([
        [c(s, 0.0), z, z, c(0.0, s)],
        [z, c(0.0, s), c(s, 0.0), z],
        [z, c(0.0, s), c(-s, 0.0), z],
        [c(s, 0.0), z, z, c(0.0, -s)],
    ])
}

/// A full KAK decomposition.
///
/// The local factors are stack-allocated [`Mat2`]s; convert with
/// `CMat::from(k.a1)` when a dense matrix is needed.
#[derive(Clone, Copy, Debug)]
pub struct Kak {
    /// Global phase `g`.
    pub phase: Complex,
    /// Left local factor on qubit 0 (SU(2)).
    pub a1: Mat2,
    /// Left local factor on qubit 1 (SU(2)).
    pub a2: Mat2,
    /// Right local factor on qubit 0 (SU(2)).
    pub b1: Mat2,
    /// Right local factor on qubit 1 (SU(2)).
    pub b2: Mat2,
    /// Canonical interaction coefficients.
    pub coords: WeylPoint,
}

impl Kak {
    /// The same decomposition expressed through the mirror class
    /// `(π/2−x, y, −z)`, with correspondingly updated locals and phase.
    ///
    /// Near the `x = π/4` face, two numerically close gates can
    /// canonicalize through different mirror branches; callers aligning two
    /// decompositions use this to bring them onto the same branch. The
    /// transform works in place on stack copies — no allocation.
    pub fn mirrored(&self) -> Kak {
        let mut b = KakBuilder {
            phase: self.phase,
            a1: self.a1,
            a2: self.a2,
            b1: self.b1,
            b2: self.b2,
            v: [self.coords.x, self.coords.y, self.coords.z],
        };
        b.negate(0, 2);
        b.shift(0, 1.0);
        Kak {
            phase: b.phase,
            a1: b.a1,
            a2: b.a2,
            b1: b.b1,
            b2: b.b2,
            coords: WeylPoint::new(b.v[0], b.v[1], b.v[2]),
        }
    }

    /// Reassembles `g·(A₁⊗A₂)·CAN(x,y,z)·(B₁⊗B₂)`.
    pub fn reconstruct(&self) -> CMat {
        let mid = canonical(self.coords.x, self.coords.y, self.coords.z);
        CMat::from(self.a1.kron(&self.a2))
            .matmul(&mid)
            .matmul(&CMat::from(self.b1.kron(&self.b2)))
            .scale(self.phase)
    }

    /// Frobenius distance between the reconstruction and `u`.
    pub fn error(&self, u: &CMat) -> f64 {
        self.reconstruct().dist(u)
    }
}

/// Splits a 4×4 Kronecker product (up to phase) into
/// `(a, b, phase)` with `k = phase·(a⊗b)` and `det a = det b = 1`.
///
/// # Panics
///
/// Panics when `k` is not 4×4 or not close to a Kronecker product of
/// unitaries (residual checked to `1e-6`).
pub fn factor_kron2(k: &CMat) -> (CMat, CMat, Complex) {
    assert_eq!((k.rows(), k.cols()), (4, 4));
    let m = Mat4::try_from(k).expect("4x4 checked above");
    let (a, b, phase) = factor_kron2_s(&m);
    (a.into(), b.into(), phase)
}

/// Stack-allocated variant of [`factor_kron2`].
///
/// # Panics
///
/// Panics when `k` is not close to a Kronecker product of unitaries
/// (residual checked to `1e-6`).
pub fn factor_kron2_s(k: &Mat4) -> (Mat2, Mat2, Complex) {
    // k[(2i+p, 2j+q)] = a[i][j]·b[p][q]·phase: find the largest entry to pin
    // a non-degenerate cross-section.
    let (mut best, mut at) = (0.0, (0usize, 0usize));
    for r in 0..4 {
        for cc in 0..4 {
            let v = k[(r, cc)].abs();
            if v > best {
                best = v;
                at = (r, cc);
            }
        }
    }
    let (i0, p0) = (at.0 / 2, at.0 % 2);
    let (j0, q0) = (at.1 / 2, at.1 % 2);
    let lambda = k[(2 * i0 + p0, 2 * j0 + q0)];
    let mut a = Mat2::from_fn(|i, j| k[(2 * i + p0, 2 * j + q0)] / lambda);
    let mut b = Mat2::from_fn(|p, q| k[(2 * i0 + p, 2 * j0 + q)]);
    // Now a⊗b = k. Normalize determinants to 1, pushing leftovers into phase.
    let mut phase = Complex::ONE;
    let da = a.det();
    let sa = da.sqrt();
    a = a.scale(sa.inv());
    b = b.scale(sa);
    let db = b.det();
    let sb = Complex::from_polar(1.0, db.arg() / 2.0) * db.abs().sqrt();
    b = b.scale(sb.inv());
    phase *= sb;
    let resid = a.kron(&b).scale(phase).dist(k);
    assert!(
        resid < 1e-6,
        "factor_kron2: input is not a local product (residual {resid:.2e})"
    );
    (a, b, phase)
}

/// Diagonalises a symmetric unitary `M = O·D·Oᵀ` with `O` real orthogonal,
/// `det O = 1`. Returns `O`.
fn diag_symmetric_unitary(m: &Mat4) -> Mat4 {
    let x = m.map(|z| c(z.re, 0.0));
    let y = m.map(|z| c(z.im, 0.0));
    let mixes = [
        0.83762419517,
        std::f64::consts::SQRT_2 / 2.0,
        0.33711731212,
        1.732_050_807_57 / 2.0,
        0.12087012471,
    ];
    let mut mixed = None;
    for &t in &mixes {
        let (_, vectors) = (x + y.scale(c(t, 0.0))).eigh();
        // The eigenvectors of a real symmetric matrix from our Jacobi sweep
        // are real; verify and extract.
        let mut imag_sq = 0.0;
        for r in 0..4 {
            for cc in 0..4 {
                imag_sq += vectors[(r, cc)].im * vectors[(r, cc)].im;
            }
        }
        if imag_sq.sqrt() > 1e-9 {
            mixed.get_or_insert(vectors);
            continue;
        }
        if let Some(o) = diagonalising_rotation(m, vectors.map(|z| c(z.re, 0.0))) {
            return o;
        }
    }
    // Inside a (near-)degenerate eigenvalue pair the Jacobi sweep may mix
    // the eigenvectors by a complex phase. Any real basis of that pair
    // diagonalises `M` to rounding, so rebuild one from the real and
    // imaginary parts of the vectors.
    if let Some(o) = mixed.and_then(|v| diagonalising_rotation(m, real_basis(&v))) {
        return o;
    }
    panic!("diag_symmetric_unitary: failed to diagonalise (input not symmetric unitary?)");
}

/// `o` with its determinant fixed to `+1`, when `oᵀ·m·o` is diagonal.
fn diagonalising_rotation(m: &Mat4, mut o: Mat4) -> Option<Mat4> {
    let d = o.transpose().matmul(m).matmul(&o);
    let mut off = 0.0;
    for r in 0..4 {
        for cc in 0..4 {
            if r != cc {
                off += d[(r, cc)].norm_sqr();
            }
        }
    }
    if off.sqrt() >= 1e-8 {
        return None;
    }
    if o.det().re < 0.0 {
        let col = o.col(0);
        let neg = [-col[0], -col[1], -col[2], -col[3]];
        o.set_col(0, &neg);
    }
    Some(o)
}

/// A real orthonormal basis from complex `vectors`: per column, its real
/// or imaginary part, whichever keeps more norm after Gram–Schmidt against
/// the columns already taken.
fn real_basis(vectors: &Mat4) -> Mat4 {
    let norm = |v: &[f64; 4]| v.iter().map(|a| a * a).sum::<f64>().sqrt();
    let mut o = Mat4::zeros();
    for j in 0..4 {
        let mut best = [0.0; 4];
        for mut v in [vectors.col(j).map(|z| z.re), vectors.col(j).map(|z| z.im)] {
            for q in (0..j).map(|k| o.col(k)) {
                let dot: f64 = v.iter().zip(&q).map(|(a, b)| a * b.re).sum();
                v.iter_mut().zip(&q).for_each(|(a, b)| *a -= dot * b.re);
            }
            if norm(&v) > norm(&best) {
                best = v;
            }
        }
        o.set_col(j, &best.map(|a| c(a / norm(&best), 0.0)));
    }
    o
}

/// State for the canonicalization moves, tracking local corrections.
///
/// Every move mutates the stack-held locals in place; the former `CMat`
/// implementation cloned all four 2×2 factors on each `shift`/`negate`/
/// `swap`.
struct KakBuilder {
    phase: Complex,
    a1: Mat2,
    a2: Mat2,
    b1: Mat2,
    b2: Mat2,
    v: [f64; 3],
}

impl KakBuilder {
    /// Pauli for coordinate axis `k` (0 → X, 1 → Y, 2 → Z), premultiplied by
    /// `i` to stay in SU(2).
    fn ipauli(k: usize) -> Mat2 {
        let m = match k {
            0 => crate::pauli::Pauli::X.matrix2(),
            1 => crate::pauli::Pauli::Y.matrix2(),
            _ => crate::pauli::Pauli::Z.matrix2(),
        };
        m.scale(Complex::I)
    }

    /// `v[k] += sign·π/2`.
    fn shift(&mut self, k: usize, sign: f64) {
        self.v[k] += sign * FRAC_PI_2;
        let ip = Self::ipauli(k);
        self.b1 = ip.matmul(&self.b1);
        self.b2 = ip.matmul(&self.b2);
        self.phase *= if sign > 0.0 { Complex::I } else { -Complex::I };
    }

    /// Negates coordinates `j` and `k`.
    fn negate(&mut self, j: usize, k: usize) {
        self.v[j] = -self.v[j];
        self.v[k] = -self.v[k];
        // The third axis selects the conjugating Pauli.
        let third = 3 - j - k;
        let iq = Self::ipauli(third);
        self.a1 = self.a1.matmul(&iq);
        self.b1 = iq.matmul(&self.b1);
        self.phase = -self.phase;
    }

    /// Swaps coordinates `j` and `k`.
    fn swap(&mut self, j: usize, k: usize) {
        self.v.swap(j, k);
        let third = 3 - j - k;
        // Conjugating single-qubit Clifford C (in SU(2)) with
        // (C⊗C)·exp(iη·Σ)·(C⊗C)† permuting the two axes.
        let cgate = match third {
            2 => s2().scale(Complex::cis(-FRAC_PI_4)), // swap X↔Y
            0 => rx2(FRAC_PI_2),                       // swap Y↔Z
            _ => ry2(FRAC_PI_2),                       // swap X↔Z
        };
        let cdag = cgate.adjoint();
        self.a1 = self.a1.matmul(&cdag);
        self.a2 = self.a2.matmul(&cdag);
        self.b1 = cgate.matmul(&self.b1);
        self.b2 = cgate.matmul(&self.b2);
    }

    /// Runs the one-pass canonicalization of the coordinate vector.
    fn canonicalize(&mut self) {
        // 1. Lattice shifts into [−π/4, π/4].
        for k in 0..3 {
            let n = (self.v[k] / FRAC_PI_2).round();
            let sign = -n.signum();
            for _ in 0..(n.abs() as usize) {
                self.shift(k, sign);
            }
        }
        // 2. Sort by decreasing |v| with explicit swaps (bubble sort).
        for pass in 0..3 {
            let _ = pass;
            for j in 0..2 {
                if self.v[j].abs() < self.v[j + 1].abs() - 1e-15 {
                    self.swap(j, j + 1);
                }
            }
        }
        // 3. Pairwise sign flips pushing negativity into z.
        let tol = 1e-15;
        if self.v[0] < -tol && self.v[1] < -tol {
            self.negate(0, 1);
        } else if self.v[0] < -tol {
            self.negate(0, 2);
        } else if self.v[1] < -tol {
            self.negate(1, 2);
        }
        // 4. The x = π/4 face keeps z ≥ 0: (−π/4,y,−z) ~ (π/4,y,z).
        if self.v[0] >= FRAC_PI_4 - 1e-9 && self.v[2] < 0.0 {
            self.negate(0, 2);
            self.shift(0, 1.0);
        }
    }
}

/// Computes the full KAK decomposition of a 4×4 unitary.
///
/// The returned coordinates are canonical (inside the Weyl chamber `W`), and
/// [`Kak::reconstruct`] reproduces `u` to numerical accuracy.
///
/// # Panics
///
/// Panics when `u` is not a 4×4 unitary (tolerance `1e-8`).
///
/// # Examples
///
/// ```
/// use ashn_gates::kak::kak;
/// use ashn_gates::two::cnot;
/// use ashn_gates::weyl::WeylPoint;
///
/// let d = kak(&cnot());
/// assert!(d.coords.approx_eq(WeylPoint::CNOT, 1e-9));
/// assert!(d.error(&cnot()) < 1e-9);
/// ```
pub fn kak(u: &CMat) -> Kak {
    assert_eq!((u.rows(), u.cols()), (4, 4), "kak needs a two-qubit gate");
    let m = Mat4::try_from(u).expect("4x4 checked above");
    kak4(&m)
}

/// Computes the full KAK decomposition of a stack-allocated 4×4 unitary —
/// the allocation-free fast path ([`kak`] is a thin wrapper).
///
/// # Panics
///
/// Panics when `u` is not unitary (tolerance `1e-8`).
pub fn kak4(u: &Mat4) -> Kak {
    assert!(u.is_unitary(1e-8), "kak requires a unitary input");

    // Normalise to SU(4), remembering the stripped phase.
    let det = u.det();
    let alpha = det.arg() / 4.0;
    let mut phase = Complex::cis(alpha);
    let usu = u.scale(Complex::cis(-alpha));

    let b = magic_basis4();
    let bh = b.adjoint();
    let ub = bh.matmul(&usu).matmul(&b);
    let m = ub.transpose().matmul(&ub);
    let o = diag_symmetric_unitary(&m);

    // W = UB·O = L·Δ with L real orthogonal and Δ = diag(e^{iθ}).
    let w = ub.matmul(&o);
    let mut theta = [0.0f64; 4];
    let mut l = Mat4::zeros();
    for (j, th) in theta.iter_mut().enumerate() {
        let col = w.col(j);
        let (mut bi, mut bv) = (0usize, 0.0);
        for (i, z) in col.iter().enumerate() {
            if z.abs() > bv {
                bv = z.abs();
                bi = i;
            }
        }
        let ph = col[bi].arg();
        *th = ph;
        let mut rcol = [Complex::ZERO; 4];
        let rot = Complex::cis(-ph);
        for (r, z) in rcol.iter_mut().zip(col.iter()) {
            *r = *z * rot;
        }
        let imag: f64 = rcol.iter().map(|z| z.im * z.im).sum::<f64>().sqrt();
        assert!(
            imag < 1e-6,
            "kak: left factor column {j} is not real (residual {imag:.2e})"
        );
        l.set_col(j, &rcol);
    }
    // det L must be +1; a flip pairs with a π shift of the matching phase.
    if l.det().re < 0.0 {
        let col = l.col(0);
        let neg = [-col[0], -col[1], -col[2], -col[3]];
        l.set_col(0, &neg);
        theta[0] += std::f64::consts::PI;
    }

    // Raw interaction coefficients from the magic-basis phase pattern
    // θ = (x−y+z, x+y−z, −x−y−z, −x+y+z).
    let x = 0.5 * (theta[0] + theta[1]);
    let y = 0.5 * (theta[1] + theta[3]);
    let z = 0.5 * (theta[0] + theta[3]);

    // Local factors.
    let left4 = b.matmul(&l).matmul(&bh);
    let right4 = b.matmul(&o.transpose()).matmul(&bh);
    let (a1, a2, p1) = factor_kron2_s(&left4);
    let (b1, b2, p2) = factor_kron2_s(&right4);
    phase = phase * p1 * p2;

    let mut builder = KakBuilder {
        phase,
        a1,
        a2,
        b1,
        b2,
        v: [x, y, z],
    };
    builder.canonicalize();

    let decomposition = Kak {
        phase: builder.phase,
        a1: builder.a1,
        a2: builder.a2,
        b1: builder.b1,
        b2: builder.b2,
        coords: WeylPoint::new(builder.v[0], builder.v[1], builder.v[2]),
    };
    debug_assert!(
        decomposition.error(&CMat::from(u)) < 1e-6,
        "kak reconstruction failed: error {:.2e}",
        decomposition.error(&CMat::from(u))
    );
    decomposition
}

/// Canonical Weyl-chamber coordinates of a two-qubit unitary.
///
/// # Panics
///
/// Panics under the same conditions as [`kak`].
pub fn weyl_coordinates(u: &CMat) -> WeylPoint {
    kak(u).coords
}

/// Canonical Weyl-chamber coordinates of a stack-allocated two-qubit
/// unitary — the allocation-free fast path.
///
/// # Panics
///
/// Panics under the same conditions as [`kak4`].
pub fn weyl_coordinates4(u: &Mat4) -> WeylPoint {
    kak4(u).coords
}

/// `true` when `u` and `v` are equal up to single-qubit gates and global
/// phase, i.e. share a Weyl-chamber point (within `tol` in coordinates).
pub fn locally_equivalent(u: &CMat, v: &CMat, tol: f64) -> bool {
    weyl_coordinates(u).dist(weyl_coordinates(v)) < tol
}

/// The original heap-allocated (`CMat`) KAK path, kept verbatim as the
/// reference implementation for the differential test suite — the same role
/// `apply_gate_generic` plays for the simulator kernels.
pub mod reference {
    use super::Kak;
    use crate::single::{rx, ry, s};
    use crate::weyl::WeylPoint;
    use ashn_math::eig::eigh;
    use ashn_math::{c, CMat, Complex, Mat2};
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4};

    fn factor_kron2_cmat(k: &CMat) -> (CMat, CMat, Complex) {
        assert_eq!((k.rows(), k.cols()), (4, 4));
        let (mut best, mut at) = (0.0, (0usize, 0usize));
        for r in 0..4 {
            for cc in 0..4 {
                let v = k[(r, cc)].abs();
                if v > best {
                    best = v;
                    at = (r, cc);
                }
            }
        }
        let (i0, p0) = (at.0 / 2, at.0 % 2);
        let (j0, q0) = (at.1 / 2, at.1 % 2);
        let lambda = k[(2 * i0 + p0, 2 * j0 + q0)];
        let mut a = CMat::from_fn(2, 2, |i, j| k[(2 * i + p0, 2 * j + q0)] / lambda);
        let mut b = CMat::from_fn(2, 2, |p, q| k[(2 * i0 + p, 2 * j0 + q)]);
        let mut phase = Complex::ONE;
        let da = a.det();
        let sa = da.sqrt();
        a = a.scale(sa.inv());
        b = b.scale(sa);
        let db = b.det();
        let sb = Complex::from_polar(1.0, db.arg() / 2.0) * db.abs().sqrt();
        b = b.scale(sb.inv());
        phase *= sb;
        let resid = a.kron(&b).scale(phase).dist(k);
        assert!(resid < 1e-6, "factor_kron2: residual {resid:.2e}");
        (a, b, phase)
    }

    fn diag_symmetric_unitary_cmat(m: &CMat) -> CMat {
        let n = m.rows();
        let x = m.map(|z| c(z.re, 0.0));
        let y = m.map(|z| c(z.im, 0.0));
        let mixes = [
            0.83762419517,
            std::f64::consts::SQRT_2 / 2.0,
            0.33711731212,
            1.732_050_807_57 / 2.0,
            0.12087012471,
        ];
        for &t in &mixes {
            let e = eigh(&(&x + &y.scale(c(t, 0.0))));
            let imag_norm: f64 = e
                .vectors
                .as_slice()
                .iter()
                .map(|z| z.im * z.im)
                .sum::<f64>()
                .sqrt();
            if imag_norm > 1e-9 {
                continue;
            }
            let mut o = e.vectors.map(|z| c(z.re, 0.0));
            let d = o.transpose().matmul(m).matmul(&o);
            let mut off = 0.0;
            for r in 0..n {
                for cc in 0..n {
                    if r != cc {
                        off += d[(r, cc)].norm_sqr();
                    }
                }
            }
            if off.sqrt() < 1e-8 {
                if o.det().re < 0.0 {
                    let col: Vec<Complex> = o.col(0).iter().map(|z| -*z).collect();
                    o.set_col(0, &col);
                }
                return o;
            }
        }
        panic!("diag_symmetric_unitary: failed to diagonalise");
    }

    /// Clone-based canonicalization state over `CMat` locals.
    struct CmatBuilder {
        phase: Complex,
        a1: CMat,
        a2: CMat,
        b1: CMat,
        b2: CMat,
        v: [f64; 3],
    }

    impl CmatBuilder {
        fn ipauli(k: usize) -> CMat {
            let m = match k {
                0 => crate::pauli::Pauli::X.matrix(),
                1 => crate::pauli::Pauli::Y.matrix(),
                _ => crate::pauli::Pauli::Z.matrix(),
            };
            m.scale(Complex::I)
        }

        fn shift(&mut self, k: usize, sign: f64) {
            self.v[k] += sign * FRAC_PI_2;
            let ip = Self::ipauli(k);
            self.b1 = ip.matmul(&self.b1);
            self.b2 = ip.matmul(&self.b2);
            self.phase *= if sign > 0.0 { Complex::I } else { -Complex::I };
        }

        fn negate(&mut self, j: usize, k: usize) {
            self.v[j] = -self.v[j];
            self.v[k] = -self.v[k];
            let third = 3 - j - k;
            let iq = Self::ipauli(third);
            self.a1 = self.a1.matmul(&iq);
            self.b1 = iq.matmul(&self.b1);
            self.phase = -self.phase;
        }

        fn swap(&mut self, j: usize, k: usize) {
            self.v.swap(j, k);
            let third = 3 - j - k;
            let cgate = match third {
                2 => s().scale(Complex::cis(-FRAC_PI_4)),
                0 => rx(FRAC_PI_2),
                _ => ry(FRAC_PI_2),
            };
            let cdag = cgate.adjoint();
            self.a1 = self.a1.matmul(&cdag);
            self.a2 = self.a2.matmul(&cdag);
            self.b1 = cgate.matmul(&self.b1);
            self.b2 = cgate.matmul(&self.b2);
        }

        fn canonicalize(&mut self) {
            for k in 0..3 {
                let n = (self.v[k] / FRAC_PI_2).round();
                let sign = -n.signum();
                for _ in 0..(n.abs() as usize) {
                    self.shift(k, sign);
                }
            }
            for _pass in 0..3 {
                for j in 0..2 {
                    if self.v[j].abs() < self.v[j + 1].abs() - 1e-15 {
                        self.swap(j, j + 1);
                    }
                }
            }
            let tol = 1e-15;
            if self.v[0] < -tol && self.v[1] < -tol {
                self.negate(0, 1);
            } else if self.v[0] < -tol {
                self.negate(0, 2);
            } else if self.v[1] < -tol {
                self.negate(1, 2);
            }
            if self.v[0] >= FRAC_PI_4 - 1e-9 && self.v[2] < 0.0 {
                self.negate(0, 2);
                self.shift(0, 1.0);
            }
        }
    }

    /// The original `CMat` KAK decomposition (reference path).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`super::kak`].
    pub fn kak_cmat(u: &CMat) -> Kak {
        assert_eq!((u.rows(), u.cols()), (4, 4), "kak needs a two-qubit gate");
        assert!(u.is_unitary(1e-8), "kak requires a unitary input");

        let det = u.det();
        let alpha = det.arg() / 4.0;
        let mut phase = Complex::cis(alpha);
        let usu = u.scale(Complex::cis(-alpha));

        let b = super::magic_basis();
        let bh = b.adjoint();
        let ub = bh.matmul(&usu).matmul(&b);
        let m = ub.transpose().matmul(&ub);
        let o = diag_symmetric_unitary_cmat(&m);

        let w = ub.matmul(&o);
        let mut theta = [0.0f64; 4];
        let mut l = CMat::zeros(4, 4);
        for (j, th) in theta.iter_mut().enumerate() {
            let col = w.col(j);
            let (mut bi, mut bv) = (0usize, 0.0);
            for (i, z) in col.iter().enumerate() {
                if z.abs() > bv {
                    bv = z.abs();
                    bi = i;
                }
            }
            let ph = col[bi].arg();
            *th = ph;
            let rcol: Vec<Complex> = col.iter().map(|z| *z * Complex::cis(-ph)).collect();
            let imag: f64 = rcol.iter().map(|z| z.im * z.im).sum::<f64>().sqrt();
            assert!(imag < 1e-6, "kak: column {j} is not real ({imag:.2e})");
            l.set_col(j, &rcol);
        }
        if l.det().re < 0.0 {
            let col: Vec<Complex> = l.col(0).iter().map(|z| -*z).collect();
            l.set_col(0, &col);
            theta[0] += std::f64::consts::PI;
        }

        let x = 0.5 * (theta[0] + theta[1]);
        let y = 0.5 * (theta[1] + theta[3]);
        let z = 0.5 * (theta[0] + theta[3]);

        let left4 = b.matmul(&l).matmul(&bh);
        let right4 = b.matmul(&o.transpose()).matmul(&bh);
        let (a1, a2, p1) = factor_kron2_cmat(&left4);
        let (b1, b2, p2) = factor_kron2_cmat(&right4);
        phase = phase * p1 * p2;

        let mut builder = CmatBuilder {
            phase,
            a1,
            a2,
            b1,
            b2,
            v: [x, y, z],
        };
        builder.canonicalize();

        Kak {
            phase: builder.phase,
            a1: Mat2::try_from(&builder.a1).expect("2x2 local"),
            a2: Mat2::try_from(&builder.a2).expect("2x2 local"),
            b1: Mat2::try_from(&builder.b1).expect("2x2 local"),
            b2: Mat2::try_from(&builder.b2).expect("2x2 local"),
            coords: WeylPoint::new(builder.v[0], builder.v[1], builder.v[2]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::two::{b_gate, cnot, cz, iswap, molmer_sorensen, sqisw, swap};
    use ashn_math::randmat::{haar_su, haar_unitary};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn known_gate_coordinates() {
        let cases: Vec<(CMat, WeylPoint)> = vec![
            (CMat::identity(4), WeylPoint::IDENTITY),
            (cnot(), WeylPoint::CNOT),
            (cz(), WeylPoint::CNOT),
            (molmer_sorensen(), WeylPoint::CNOT),
            (iswap(), WeylPoint::ISWAP),
            (swap(), WeylPoint::SWAP),
            (sqisw(), WeylPoint::SQISW),
            (b_gate(), WeylPoint::B),
        ];
        for (g, expected) in cases {
            let got = weyl_coordinates(&g);
            assert!(
                got.approx_eq(expected, 1e-8),
                "expected {expected}, got {got}"
            );
        }
    }

    #[test]
    fn reconstruction_over_haar_random_gates() {
        let mut rng = StdRng::seed_from_u64(101);
        for i in 0..60 {
            let u = haar_unitary(4, &mut rng);
            let d = kak(&u);
            assert!(d.coords.in_chamber(1e-8), "iteration {i}: {}", d.coords);
            assert!(
                (d.a1.det() - Complex::ONE).abs() < 1e-7,
                "a1 not special unitary"
            );
            assert!((d.b2.det() - Complex::ONE).abs() < 1e-7);
            assert!(
                d.error(&u) < 1e-7,
                "iteration {i}: error {:.2e}",
                d.error(&u)
            );
        }
    }

    #[test]
    fn local_gates_have_zero_coordinates() {
        let mut rng = StdRng::seed_from_u64(102);
        for _ in 0..10 {
            let u = haar_su(2, &mut rng).kron(&haar_su(2, &mut rng));
            let p = weyl_coordinates(&u);
            assert!(p.approx_eq(WeylPoint::IDENTITY, 1e-7), "got {p}");
        }
    }

    #[test]
    fn coordinates_invariant_under_local_dressing() {
        let mut rng = StdRng::seed_from_u64(103);
        for _ in 0..15 {
            let u = haar_unitary(4, &mut rng);
            let base = weyl_coordinates(&u);
            let l = haar_su(2, &mut rng).kron(&haar_su(2, &mut rng));
            let r = haar_su(2, &mut rng).kron(&haar_su(2, &mut rng));
            let dressed = l.matmul(&u).matmul(&r);
            let got = weyl_coordinates(&dressed);
            assert!(got.dist(base) < 1e-7, "expected {base}, got {got}");
        }
    }

    #[test]
    fn dressed_gates_next_to_the_y_z_zero_edge_decompose() {
        // canonical(b, d, 0) for tiny d has a near-degenerate magic-basis
        // eigenvalue pair, where the Jacobi eigenvectors come back mixed by
        // a complex phase.
        let mut rng = StdRng::seed_from_u64(211);
        for d in [1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8] {
            for i in 0..40 {
                let b = 0.02 + 0.76 * i as f64 / 39.0;
                let l = haar_su(2, &mut rng).kron(&haar_su(2, &mut rng));
                let r = haar_su(2, &mut rng).kron(&haar_su(2, &mut rng));
                let u = l.matmul(&canonical(b, d, 0.0)).matmul(&r);
                let k = kak(&u);
                assert!(
                    k.error(&u) <= 1e-10,
                    "b = {b}, d = {d}: {:.2e}",
                    k.error(&u)
                );
            }
        }
    }

    #[test]
    fn canonical_gate_round_trip() {
        // CAN(x,y,z) for canonical (x,y,z) must come back unchanged.
        let pts = [
            WeylPoint::new(0.3, 0.2, 0.1),
            WeylPoint::new(0.3, 0.2, -0.1),
            WeylPoint::new(FRAC_PI_4, 0.3, 0.0),
            WeylPoint::new(0.5, 0.5, 0.5), // non-canonical input to CAN
        ];
        for p in pts {
            let g = canonical(p.x, p.y, p.z);
            let got = weyl_coordinates(&g);
            let expect = p.canonicalize();
            assert!(
                got.approx_eq(expect, 1e-8),
                "CAN{p} → {got}, expected {expect}"
            );
        }
    }

    #[test]
    fn mirrored_decomposition_reconstructs() {
        let mut rng = StdRng::seed_from_u64(106);
        for _ in 0..10 {
            let u = haar_unitary(4, &mut rng);
            let d = kak(&u).mirrored();
            assert!(
                d.error(&u) < 1e-7,
                "mirror reconstruction error {}",
                d.error(&u)
            );
            // The mirrored coordinates sit at (π/2−x, y, −z).
            let base = weyl_coordinates(&u);
            assert!((d.coords.x - (FRAC_PI_2 - base.x)).abs() < 1e-9);
            assert!((d.coords.z + base.z).abs() < 1e-9);
        }
    }

    #[test]
    fn factor_kron_recovers_products() {
        let mut rng = StdRng::seed_from_u64(104);
        for _ in 0..20 {
            let a = haar_su(2, &mut rng);
            let b = haar_su(2, &mut rng);
            let k = a.kron(&b).scale(Complex::cis(0.73));
            let (fa, fb, ph) = factor_kron2(&k);
            assert!(fa.kron(&fb).scale(ph).dist(&k) < 1e-9);
            assert!((fa.det() - Complex::ONE).abs() < 1e-9);
            assert!((fb.det() - Complex::ONE).abs() < 1e-9);
        }
    }

    #[test]
    fn locally_equivalent_detects_dressing() {
        let mut rng = StdRng::seed_from_u64(105);
        let u = haar_unitary(4, &mut rng);
        let l = haar_su(2, &mut rng).kron(&haar_su(2, &mut rng));
        assert!(locally_equivalent(&u, &l.matmul(&u), 1e-7));
        assert!(!locally_equivalent(&cnot(), &swap(), 1e-3));
    }
}
