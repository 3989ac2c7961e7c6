//! Eigendecompositions for Hermitian and unitary (normal) matrices.
//!
//! All matrices in this project are small (≤ 64×64), so a cyclic complex
//! Jacobi iteration is the method of choice: simple, numerically robust, and
//! it directly produces an orthonormal eigenbasis.

use crate::complex::{c, Complex};
use crate::failpoint;
use crate::mat::CMat;
use std::fmt;

/// A recoverable eigendecomposition failure.
///
/// The fallible `try_*` entry points return this instead of panicking; the
/// synthesis layers map it onto `SynthError::Convergence` so a single bad
/// target degrades instead of killing a batch.
#[derive(Clone, Debug, PartialEq)]
pub enum EigError {
    /// The input was not square (`rows × cols` reported).
    NotSquare { rows: usize, cols: usize },
    /// Simultaneous diagonalisation failed after every mixing retry: the
    /// input is too far from normal. `residual` is the best off-diagonal
    /// norm achieved, relative to the matrix scale.
    NotNormal { residual: f64 },
}

impl fmt::Display for EigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EigError::NotSquare { rows, cols } => {
                write!(f, "eigendecomposition requires a square matrix, got {rows}x{cols}")
            }
            EigError::NotNormal { residual } => write!(
                f,
                "input is not normal enough to diagonalise (best relative off-diagonal residual {residual:.3e})"
            ),
        }
    }
}

impl std::error::Error for EigError {}

/// Result of a Hermitian eigendecomposition `A = V diag(λ) V†`.
#[derive(Clone, Debug)]
pub struct HermitianEig {
    /// Real eigenvalues, in the order matching the columns of `vectors`.
    pub values: Vec<f64>,
    /// Unitary matrix whose columns are the eigenvectors.
    pub vectors: CMat,
}

/// Result of a unitary (normal) eigendecomposition `W = V diag(w) V†`.
#[derive(Clone, Debug)]
pub struct UnitaryEig {
    /// Unit-modulus eigenvalues.
    pub values: Vec<Complex>,
    /// Unitary matrix whose columns are the eigenvectors.
    pub vectors: CMat,
}

/// Off-diagonal Frobenius norm, the Jacobi convergence measure.
fn off_norm(a: &CMat) -> f64 {
    let n = a.rows();
    let mut s = 0.0;
    for r in 0..n {
        for cc in 0..n {
            if r != cc {
                s += a[(r, cc)].norm_sqr();
            }
        }
    }
    s.sqrt()
}

/// Eigendecomposition of a Hermitian matrix by cyclic complex Jacobi.
///
/// Eigenvalues are returned in ascending order.
///
/// # Panics
///
/// Panics if `a` is not square. The Hermitian part `(A+A†)/2` is used, so
/// slightly non-Hermitian inputs (from accumulated round-off) are tolerated.
///
/// # Examples
///
/// ```
/// use ashn_math::{CMat, eig::eigh};
/// let z = CMat::from_rows_f64(&[&[1.0, 0.0], &[0.0, -1.0]]);
/// let e = eigh(&z);
/// assert!((e.values[0] + 1.0).abs() < 1e-12);
/// assert!((e.values[1] - 1.0).abs() < 1e-12);
/// ```
pub fn eigh(a: &CMat) -> HermitianEig {
    try_eigh(a).expect("eigh requires a square matrix")
}

/// Fallible variant of [`eigh`]: returns [`EigError::NotSquare`] instead of
/// panicking on a non-square input. The Jacobi iteration itself cannot fail
/// on a square input (it simply stops improving), so this is the only error
/// case.
pub fn try_eigh(a: &CMat) -> Result<HermitianEig, EigError> {
    if !a.is_square() {
        return Err(EigError::NotSquare {
            rows: a.rows(),
            cols: a.cols(),
        });
    }
    let n = a.rows();
    // Symmetrize to guard against round-off in the input.
    let mut m = (a + &a.adjoint()).scale(c(0.5, 0.0));
    let mut v = CMat::identity(n);
    let scale = m.frobenius_norm().max(1e-300);
    let tol = 1e-14 * scale;

    for _sweep in 0..100 {
        if off_norm(&m) < tol {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() < tol / (n as f64) {
                    continue;
                }
                let app = m[(p, p)].re;
                let aqq = m[(q, q)].re;
                let phi = apq.arg();
                let theta = 0.5 * (2.0 * apq.abs()).atan2(app - aqq);
                let (s, co) = theta.sin_cos();
                // Unitary rotation U with U[p][p]=c, U[p][q]=-s e^{iφ},
                // U[q][p]=s e^{-iφ}, U[q][q]=c  (2×2 restriction).
                let eip = Complex::cis(phi);
                let ein = eip.conj();
                // Column update: M <- M U.
                for k in 0..n {
                    let mkp = m[(k, p)];
                    let mkq = m[(k, q)];
                    m[(k, p)] = mkp * co + mkq * ein * s;
                    m[(k, q)] = -mkp * eip * s + mkq * co;
                }
                // Row update: M <- U† M.
                for k in 0..n {
                    let mpk = m[(p, k)];
                    let mqk = m[(q, k)];
                    m[(p, k)] = mpk * co + mqk * eip * s;
                    m[(q, k)] = -mpk * ein * s + mqk * co;
                }
                // Accumulate eigenvectors: V <- V U.
                for k in 0..n {
                    let vkp = v[(k, p)];
                    let vkq = v[(k, q)];
                    v[(k, p)] = vkp * co + vkq * ein * s;
                    v[(k, q)] = -vkp * eip * s + vkq * co;
                }
            }
        }
    }

    let mut idx: Vec<usize> = (0..n).collect();
    let vals: Vec<f64> = (0..n).map(|i| m[(i, i)].re).collect();
    idx.sort_by(|&i, &j| vals[i].partial_cmp(&vals[j]).unwrap());
    let values: Vec<f64> = idx.iter().map(|&i| vals[i]).collect();
    let vectors = CMat::from_fn(n, n, |r, cc| v[(r, idx[cc])]);
    Ok(HermitianEig { values, vectors })
}

/// Eigendecomposition of a unitary (or any normal) matrix.
///
/// Uses simultaneous diagonalisation of the commuting Hermitian pair
/// `(W+W†)/2` and `(W−W†)/2i` through a random real combination; retries
/// with a different combination in the measure-zero failure case.
///
/// # Panics
///
/// Panics if `w` is not square, or if diagonalisation fails after retries
/// (which indicates the input is far from normal).
pub fn eig_unitary(w: &CMat) -> UnitaryEig {
    match try_eig_unitary(w) {
        Ok(e) => e,
        Err(EigError::NotSquare { .. }) => {
            panic!("eig_unitary requires a square matrix")
        }
        Err(EigError::NotNormal { .. }) => {
            panic!("eig_unitary: input is not normal enough to diagonalise")
        }
    }
}

/// Fallible variant of [`eig_unitary`]: returns an [`EigError`] instead of
/// panicking on a non-square or non-normal input.
///
/// Carries the `math::eig::unitary` failpoint (fires as
/// [`EigError::NotNormal`]) so chaos tests can inject decomposition
/// failures here without constructing pathological matrices.
pub fn try_eig_unitary(w: &CMat) -> Result<UnitaryEig, EigError> {
    if !w.is_square() {
        return Err(EigError::NotSquare {
            rows: w.rows(),
            cols: w.cols(),
        });
    }
    if failpoint!("math::eig::unitary") {
        return Err(EigError::NotNormal { residual: f64::NAN });
    }
    let n = w.rows();
    let wh = w.adjoint();
    let h1 = (w + &wh).scale(c(0.5, 0.0));
    let h2 = (w - &wh).scale(c(0.0, -0.5));
    // Deterministic sequence of mixing coefficients; irrational ratios make
    // accidental eigenvalue collisions essentially impossible.
    #[allow(clippy::excessive_precision)]
    let mixes = [
        0.7548776662466927,
        1.3247179572447460,
        0.3819660112501051,
        1.8392867552141612,
        0.5698402909980532,
    ];
    let scale = w.frobenius_norm().max(1e-300);
    let mut best_resid = f64::INFINITY;
    for &t in &mixes {
        let e = try_eigh(&(&h1 + &h2.scale(c(t, 0.0))))?;
        let d = e.vectors.adjoint().matmul(w).matmul(&e.vectors);
        let resid = off_norm(&d) / scale;
        best_resid = best_resid.min(resid);
        if resid < 1e-8 {
            let values = (0..n).map(|i| d[(i, i)]).collect();
            return Ok(UnitaryEig {
                values,
                vectors: e.vectors,
            });
        }
    }
    Err(EigError::NotNormal {
        residual: best_resid,
    })
}

/// Hermitian logarithm of a unitary: returns `H` with `W = exp(iH)` and
/// eigenphases taken in `(−π, π]`.
///
/// # Panics
///
/// Panics under the same conditions as [`eig_unitary`].
pub fn log_unitary(w: &CMat) -> CMat {
    let e = eig_unitary(w);
    log_from_eig(w, &e)
}

/// Fallible variant of [`log_unitary`], failing exactly when
/// [`try_eig_unitary`] does.
pub fn try_log_unitary(w: &CMat) -> Result<CMat, EigError> {
    let e = try_eig_unitary(w)?;
    Ok(log_from_eig(w, &e))
}

fn log_from_eig(w: &CMat, e: &UnitaryEig) -> CMat {
    let n = w.rows();
    let mut h = CMat::zeros(n, n);
    for j in 0..n {
        let phase = e.values[j].arg();
        let col = e.vectors.col(j);
        for r in 0..n {
            for cc in 0..n {
                h[(r, cc)] += col[r] * col[cc].conj() * phase;
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::randmat::{haar_unitary, random_hermitian};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn reconstruct_h(e: &HermitianEig) -> CMat {
        let d = CMat::diag(&e.values.iter().map(|&v| c(v, 0.0)).collect::<Vec<_>>());
        e.vectors.matmul(&d).matmul(&e.vectors.adjoint())
    }

    #[test]
    fn eigh_diagonal_matrix() {
        let a = CMat::diag(&[c(3.0, 0.0), c(-1.0, 0.0), c(0.5, 0.0)]);
        let e = eigh(&a);
        assert!((e.values[0] + 1.0).abs() < 1e-12);
        assert!((e.values[2] - 3.0).abs() < 1e-12);
        assert!(reconstruct_h(&e).dist(&a) < 1e-12);
    }

    #[test]
    fn eigh_random_hermitian_reconstructs() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [2usize, 3, 4, 8, 16] {
            let a = random_hermitian(n, &mut rng);
            let e = eigh(&a);
            assert!(e.vectors.is_unitary(1e-10), "eigenvectors not unitary");
            assert!(
                reconstruct_h(&e).dist(&a) < 1e-9 * (n as f64),
                "bad reconstruction at n={n}"
            );
            for w in e.values.windows(2) {
                assert!(w[0] <= w[1] + 1e-12, "eigenvalues not sorted");
            }
        }
    }

    #[test]
    fn eigh_handles_degenerate_spectrum() {
        // Pauli X ⊗ I has eigenvalues {−1,−1,1,1}.
        let x = CMat::from_rows_f64(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let a = x.kron(&CMat::identity(2));
        let e = eigh(&a);
        assert!((e.values[0] + 1.0).abs() < 1e-12);
        assert!((e.values[3] - 1.0).abs() < 1e-12);
        assert!(reconstruct_h(&e).dist(&a) < 1e-10);
    }

    #[test]
    fn eig_unitary_random_reconstructs() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [2usize, 4, 8] {
            let u = haar_unitary(n, &mut rng);
            let e = eig_unitary(&u);
            assert!(e.vectors.is_unitary(1e-9));
            for v in &e.values {
                assert!((v.abs() - 1.0).abs() < 1e-9, "eigenvalue off unit circle");
            }
            let d = CMat::diag(&e.values);
            let rec = e.vectors.matmul(&d).matmul(&e.vectors.adjoint());
            assert!(rec.dist(&u) < 1e-8);
        }
    }

    #[test]
    fn eig_unitary_degenerate_swap() {
        // SWAP has eigenvalues {1,1,1,−1}.
        let swap = CMat::from_rows_f64(&[
            &[1.0, 0.0, 0.0, 0.0],
            &[0.0, 0.0, 1.0, 0.0],
            &[0.0, 1.0, 0.0, 0.0],
            &[0.0, 0.0, 0.0, 1.0],
        ]);
        let e = eig_unitary(&swap);
        let mut neg = 0;
        for v in &e.values {
            if (*v + Complex::ONE).abs() < 1e-9 {
                neg += 1;
            }
        }
        assert_eq!(neg, 1);
    }

    #[test]
    fn try_variants_report_errors_instead_of_panicking() {
        let rect = CMat::zeros(2, 3);
        assert_eq!(
            try_eigh(&rect).unwrap_err(),
            EigError::NotSquare { rows: 2, cols: 3 }
        );
        assert!(matches!(
            try_eig_unitary(&rect),
            Err(EigError::NotSquare { .. })
        ));
        // A Jordan block is maximally non-normal: no mixing retry can
        // simultaneously diagonalise its Hermitian and anti-Hermitian parts.
        let jordan = CMat::from_rows_f64(&[&[1.0, 1.0], &[0.0, 1.0]]);
        match try_eig_unitary(&jordan) {
            Err(EigError::NotNormal { residual }) => assert!(residual > 1e-8),
            other => panic!("expected NotNormal, got {other:?}"),
        }
        assert!(try_log_unitary(&jordan).is_err());
        // And the fallible paths agree with the panicking shims on good input.
        let mut rng = StdRng::seed_from_u64(29);
        let u = haar_unitary(4, &mut rng);
        let e = try_eig_unitary(&u).expect("haar unitary is normal");
        assert!(e.vectors.is_unitary(1e-9));
    }

    #[test]
    fn log_unitary_round_trip() {
        let mut rng = StdRng::seed_from_u64(13);
        let u = haar_unitary(4, &mut rng);
        let h = log_unitary(&u);
        assert!(h.is_hermitian(1e-9));
        let back = crate::expm::expm_i_hermitian(&h, 1.0);
        assert!(back.dist(&u) < 1e-8);
    }
}
