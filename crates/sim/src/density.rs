//! Exact density-matrix simulator with depolarizing channels.
//!
//! Used for the quantum-volume experiments (paper §6.3): heavy-output
//! probabilities are computed exactly from the noisy density matrix, so the
//! only statistical error left is over the random-circuit ensemble itself.
//!
//! ## Layout: ρ as a `2n`-qubit vector
//!
//! ρ is stored row-major, which makes the buffer the `2n`-qubit vector
//! vec(ρ): row qubit `q` is register qubit `q` and column qubit `q` is
//! register qubit `n + q` (qubit 0 most significant, as everywhere in this
//! crate). `ρ → UρU†` is then `U` on the row qubits followed by the
//! entrywise `conj(U)` on the column qubits, both run by the statevector
//! kernels behind [`ashn_ir::circuit::apply_gate`]. Those kernels do the
//! textbook gather/scatter arithmetic (zero start, left-to-right sums,
//! `u * g`), so ρ is bit-identical to the explicit product up to the sign
//! of exact zeros. A depolarizing channel takes one row *rest* (a row
//! index with the target bits clear) at a time: it reads that rest's
//! partial traces through a `2^k`-entry offset table, then rewrites its
//! `2^k` rows with the same `ρ·(1−p) + fresh·p` expression per entry.
//!
//! ## Cost and cap
//!
//! ρ holds `4^n` entries (16 bytes each). A `k`-qubit gate costs two
//! statevector sweeps of `4^n · 2^k` multiply-adds, a depolarizing channel
//! one `O(4^n)` sweep. Registers are capped at
//! [`MAX_DENSITY_QUBITS`]` = 12` (256 MiB); use the trajectory ensembles of
//! [`crate::trajectory`] beyond that.

use crate::state::{assert_gate_args, StateVector};
use ashn_math::{c, CMat, Complex};

/// Largest register a [`DensityMatrix`] holds: `4^12` amplitudes are
/// 256 MiB.
pub const MAX_DENSITY_QUBITS: usize = 12;

/// An `n`-qubit density matrix.
#[derive(Clone, Debug)]
pub struct DensityMatrix {
    n: usize,
    dim: usize,
    mat: Vec<Complex>, // row-major dim×dim, i.e. the 2n-qubit vec(ρ)
}

impl DensityMatrix {
    /// The all-zero `n`-qubit matrix, after the register-size check.
    fn zeros(n: usize) -> Self {
        assert!(
            (1..=MAX_DENSITY_QUBITS).contains(&n),
            "density matrices supported up to 12 qubits"
        );
        let dim = 1 << n;
        let mat = vec![Complex::ZERO; dim * dim];
        Self { n, dim, mat }
    }

    /// The pure state `|0…0⟩⟨0…0|`.
    ///
    /// # Panics
    ///
    /// Panics outside `1..=`[`MAX_DENSITY_QUBITS`].
    pub fn zero(n: usize) -> Self {
        let mut rho = Self::zeros(n);
        rho.mat[0] = Complex::ONE;
        rho
    }

    /// Density matrix of a pure state.
    ///
    /// # Panics
    ///
    /// Panics when the state has more than [`MAX_DENSITY_QUBITS`] qubits.
    pub fn from_state(s: &StateVector) -> Self {
        let mut rho = Self::zeros(s.n_qubits());
        let (dim, amps) = (rho.dim, s.amplitudes());
        for (i, e) in rho.mat.iter_mut().enumerate() {
            *e = amps[i / dim] * amps[i % dim].conj();
        }
        rho
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n
    }

    /// Row-major entries: `ρ[r][c]` at `r·2^n + c`, i.e. vec(ρ).
    pub fn as_slice(&self) -> &[Complex] {
        &self.mat
    }

    /// Trace (1 for a valid state).
    pub fn trace(&self) -> f64 {
        (0..self.dim).map(|i| self.mat[i * self.dim + i].re).sum()
    }

    /// Purity `tr(ρ²)`.
    pub fn purity(&self) -> f64 {
        let mut s = 0.0;
        for r in 0..self.dim {
            for cc in 0..self.dim {
                s += (self.mat[r * self.dim + cc] * self.mat[cc * self.dim + r]).re;
            }
        }
        s
    }

    /// Diagonal measurement probabilities.
    pub fn probabilities(&self) -> Vec<f64> {
        (0..self.dim)
            .map(|i| self.mat[i * self.dim + i].re.max(0.0))
            .collect()
    }

    /// Applies `ρ → UρU†` with a `k`-qubit unitary on the listed qubits:
    /// `U` on the row qubits, then `conj(U)` on the column qubits of vec(ρ).
    ///
    /// # Panics
    ///
    /// Same conditions as [`StateVector::apply`]: the matrix is not
    /// `2^k × 2^k`, qubits repeat, or an index is out of range.
    pub fn apply(&mut self, qubits: &[usize], u: &CMat) {
        assert_gate_args(self.n, qubits, Some(u));
        let columns: Vec<usize> = qubits.iter().map(|q| q + self.n).collect();
        ashn_ir::circuit::apply_gate(&mut self.mat, 2 * self.n, qubits, u);
        ashn_ir::circuit::apply_gate(&mut self.mat, 2 * self.n, &columns, &u.conj());
    }

    /// Applies a `k`-qubit depolarizing channel with probability `p`:
    /// `ρ → (1−p)·ρ + p·(I/2^k ⊗ Tr_targets ρ)`.
    ///
    /// # Panics
    ///
    /// Panics when `p ∉ [0, 1]` or the qubits fail [`StateVector::apply`]'s
    /// conditions (count, range, repeats).
    pub fn depolarize(&mut self, qubits: &[usize], p: f64) {
        assert_gate_args(self.n, qubits, None);
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        if p == 0.0 {
            return;
        }
        let dim = self.dim;
        // Column offset of target pattern `s` (qubits[0] its most
        // significant bit); the matching row offset is `off[s] * dim`.
        let mut off = vec![0usize];
        for q in qubits {
            let bit = 1 << (self.n - 1 - q);
            off = off.iter().flat_map(|&o| [o, o | bit]).collect();
        }
        // Row/column indices with every target bit clear, ascending.
        let rest: Vec<usize> = (0..dim).filter(|i| i & off[off.len() - 1] == 0).collect();
        let norm = 1.0 / off.len() as f64;
        let mut mixed = vec![Complex::ZERO; rest.len()];
        let mut diag = mixed.clone();
        for &r in &rest {
            // Partial traces over the targets of this row rest against
            // every column rest, read before any of its rows is written.
            for (m, &cc) in mixed.iter_mut().zip(&rest) {
                let mut tr = Complex::ZERO;
                for &o in &off {
                    tr += self.mat[(r + o) * dim + cc + o];
                }
                *m = tr * c(norm, 0.0);
            }
            for &or in &off {
                // Entries whose row and column target patterns agree mix
                // in the partial trace; every other entry mixes in zero.
                let row = &mut self.mat[(r + or) * dim..][..dim];
                for (d, (&cc, &m)) in diag.iter_mut().zip(rest.iter().zip(&mixed)) {
                    *d = row[cc + or] * (1.0 - p) + m * p;
                }
                for e in row.iter_mut() {
                    *e = *e * (1.0 - p) + Complex::ZERO * p;
                }
                for (&cc, &d) in rest.iter().zip(&diag) {
                    row[cc + or] = d;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ashn_math::randmat::haar_unitary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn h_gate() -> CMat {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        CMat::from_rows_f64(&[&[s, s], &[s, -s]])
    }

    #[test]
    fn pure_state_round_trip() {
        let mut s = StateVector::zero(3);
        let mut rng = StdRng::seed_from_u64(11);
        s.apply(&[0, 1], &haar_unitary(4, &mut rng));
        s.apply(&[1, 2], &haar_unitary(4, &mut rng));
        let rho = DensityMatrix::from_state(&s);
        let ps = s.probabilities();
        let pr = rho.probabilities();
        for (a, b) in ps.iter().zip(pr.iter()) {
            assert!((a - b).abs() < 1e-12);
        }
        assert!((rho.purity() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn unitary_application_matches_statevector() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut s = StateVector::zero(3);
        let mut rho = DensityMatrix::zero(3);
        for (qs, dim) in [(vec![0usize], 2usize), (vec![2, 0], 4), (vec![1, 2], 4)] {
            let u = haar_unitary(dim, &mut rng);
            s.apply(&qs, &u);
            rho.apply(&qs, &u);
        }
        let expect = DensityMatrix::from_state(&s);
        let diff: f64 = rho
            .mat
            .iter()
            .zip(expect.mat.iter())
            .map(|(a, b)| (*a - *b).norm_sqr())
            .sum::<f64>()
            .sqrt();
        assert!(diff < 1e-10, "density/state mismatch: {diff}");
    }

    #[test]
    fn trace_preserved_by_unitaries_and_noise() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut rho = DensityMatrix::zero(4);
        for step in 0..8 {
            let u = haar_unitary(4, &mut rng);
            rho.apply(&[step % 3, step % 3 + 1], &u);
            rho.depolarize(&[step % 4], 0.02);
            rho.depolarize(&[step % 3, step % 3 + 1], 0.01);
            assert!((rho.trace() - 1.0).abs() < 1e-9, "trace drifted");
        }
        assert!(rho.purity() < 1.0, "noise must reduce purity");
    }

    #[test]
    fn full_depolarizing_gives_maximally_mixed() {
        let mut rho = DensityMatrix::zero(2);
        rho.apply(&[0], &h_gate());
        rho.depolarize(&[0, 1], 1.0);
        for (i, p) in rho.probabilities().iter().enumerate() {
            assert!((p - 0.25).abs() < 1e-12, "p[{i}] = {p}");
        }
        assert!((rho.purity() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn single_qubit_depolarizing_mixes_only_that_qubit() {
        // Prepare |+0⟩, depolarize qubit 1 fully: qubit 0 stays pure.
        let mut rho = DensityMatrix::zero(2);
        rho.apply(&[0], &h_gate());
        rho.depolarize(&[1], 1.0);
        let p = rho.probabilities();
        // All four outcomes: 0.25 each (qubit0 half + half coherent, qubit1 mixed).
        for v in &p {
            assert!((v - 0.25).abs() < 1e-12);
        }
        // But purity is 0.5 (pure ⊗ mixed), not 0.25.
        assert!((rho.purity() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "duplicate qubit 0")]
    fn apply_rejects_repeated_qubits() {
        DensityMatrix::zero(2).apply(&[0, 0], &CMat::identity(4));
    }

    #[test]
    #[should_panic(expected = "qubit 2 out of range")]
    fn apply_rejects_out_of_range_qubits() {
        DensityMatrix::zero(2).apply(&[2], &h_gate());
    }

    #[test]
    #[should_panic(expected = "matrix dimension mismatch")]
    fn apply_rejects_mismatched_matrices() {
        DensityMatrix::zero(2).apply(&[0, 1], &h_gate());
    }

    #[test]
    #[should_panic(expected = "duplicate qubit 1")]
    fn depolarize_rejects_repeated_qubits() {
        DensityMatrix::zero(2).depolarize(&[1, 1], 0.5);
    }

    #[test]
    #[should_panic(expected = "bad qubit count")]
    fn depolarize_rejects_an_empty_target_list() {
        DensityMatrix::zero(2).depolarize(&[], 0.5);
    }

    #[test]
    #[should_panic(expected = "qubit 3 out of range")]
    fn depolarize_validates_qubits_even_at_zero_rate() {
        DensityMatrix::zero(2).depolarize(&[3], 0.0);
    }

    #[test]
    #[should_panic(expected = "supported up to 12 qubits")]
    fn from_state_enforces_the_register_cap() {
        DensityMatrix::from_state(&StateVector::zero(MAX_DENSITY_QUBITS + 1));
    }

    #[test]
    fn depolarizing_is_unitarily_covariant_on_targets() {
        // D_p(UρU†) = U D_p(ρ) U† when U acts on the depolarized qubits.
        let mut rng = StdRng::seed_from_u64(14);
        let u = haar_unitary(4, &mut rng);
        let mut a = DensityMatrix::zero(3);
        a.apply(&[0], &h_gate());
        let mut b = a.clone();
        a.apply(&[1, 2], &u);
        a.depolarize(&[1, 2], 0.3);
        b.depolarize(&[1, 2], 0.3);
        b.apply(&[1, 2], &u);
        let diff: f64 = a
            .mat
            .iter()
            .zip(b.mat.iter())
            .map(|(x, y)| (*x - *y).norm_sqr())
            .sum::<f64>()
            .sqrt();
        assert!(diff < 1e-10, "covariance violated: {diff}");
    }
}
