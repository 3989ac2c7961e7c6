//! Density-matrix differential suite: `DensityMatrix::{apply, depolarize}`
//! run ρ as the `2n`-qubit vector vec(ρ) on the statevector kernels, and
//! must reproduce the textbook gather/scatter product and the `O(dim²)`
//! depolarizing sweep kept below as the reference — every entry `==`
//! (only the sign of an exact zero may differ) and the probabilities bit
//! for bit. Random circuits on n = 1…6 mix Haar 1q/2q/3q gates with
//! structural-zero gates (CZ, Rz, X) on shuffled qubit orders, at every
//! depolarizing rate `p ∈ {0, 1e-3, 0.3, 1}`.

use ashn_math::randmat::haar_unitary;
use ashn_math::{c, CMat, Complex};
use ashn_sim::DensityMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The row-major density matrix with the explicit per-entry kernels the
/// vec(ρ) layout replaced.
struct Reference {
    n: usize,
    dim: usize,
    mat: Vec<Complex>,
}

impl Reference {
    fn zero(n: usize) -> Self {
        let dim = 1 << n;
        let mut mat = vec![Complex::ZERO; dim * dim];
        mat[0] = Complex::ONE;
        Self { n, dim, mat }
    }

    /// Basis index `base` with the target bits set from pattern `m`
    /// (`qubits[0]` its most significant bit).
    fn expand(&self, qubits: &[usize], base: usize, m: usize) -> usize {
        let k = qubits.len();
        let mut idx = base;
        for (j, q) in qubits.iter().enumerate() {
            if m >> (k - 1 - j) & 1 == 1 {
                idx |= 1 << (self.n - 1 - q);
            }
        }
        idx
    }

    fn targets_mask(&self, qubits: &[usize]) -> usize {
        qubits.iter().map(|q| 1usize << (self.n - 1 - q)).sum()
    }

    /// `ρ → UρU†`: rows gathered and transformed by `U`, then columns by
    /// `conj(U)`, each output a zero-started left-to-right sum of `u * g`.
    fn apply(&mut self, qubits: &[usize], u: &CMat) {
        let (dim, sub) = (self.dim, 1usize << qubits.len());
        let mask = self.targets_mask(qubits);
        let mut gathered = vec![Complex::ZERO; sub];
        for col in 0..dim {
            for base in (0..dim).filter(|b| b & mask == 0) {
                for (m, g) in gathered.iter_mut().enumerate() {
                    *g = self.mat[self.expand(qubits, base, m) * dim + col];
                }
                for row in 0..sub {
                    let mut acc = Complex::ZERO;
                    for (mcol, g) in gathered.iter().enumerate() {
                        acc += u[(row, mcol)] * *g;
                    }
                    let idx = self.expand(qubits, base, row) * dim + col;
                    self.mat[idx] = acc;
                }
            }
        }
        for row in 0..dim {
            for base in (0..dim).filter(|b| b & mask == 0) {
                for (m, g) in gathered.iter_mut().enumerate() {
                    *g = self.mat[row * dim + self.expand(qubits, base, m)];
                }
                for colm in 0..sub {
                    let mut acc = Complex::ZERO;
                    for (mrow, g) in gathered.iter().enumerate() {
                        acc += u[(colm, mrow)].conj() * *g;
                    }
                    let idx = row * dim + self.expand(qubits, base, colm);
                    self.mat[idx] = acc;
                }
            }
        }
    }

    /// `ρ → (1−p)·ρ + p·(I/2^k ⊗ Tr_targets ρ)` over every pair of
    /// non-target index parts.
    fn depolarize(&mut self, qubits: &[usize], p: f64) {
        if p == 0.0 {
            return;
        }
        let (dim, sub) = (self.dim, 1usize << qubits.len());
        let mask = self.targets_mask(qubits);
        let norm = 1.0 / sub as f64;
        for rbase in (0..dim).filter(|b| b & mask == 0) {
            for cbase in (0..dim).filter(|b| b & mask == 0) {
                let mut tr = Complex::ZERO;
                for s in 0..sub {
                    tr += self.mat
                        [self.expand(qubits, rbase, s) * dim + self.expand(qubits, cbase, s)];
                }
                let mixed = tr * c(norm, 0.0);
                for mr in 0..sub {
                    for mc in 0..sub {
                        let idx =
                            self.expand(qubits, rbase, mr) * dim + self.expand(qubits, cbase, mc);
                        let fresh = if mr == mc { mixed } else { Complex::ZERO };
                        self.mat[idx] = self.mat[idx] * (1.0 - p) + fresh * p;
                    }
                }
            }
        }
    }

    fn probabilities(&self) -> Vec<f64> {
        (0..self.dim)
            .map(|i| self.mat[i * self.dim + i].re.max(0.0))
            .collect()
    }
}

/// `k` distinct qubits of an `n`-qubit register in random order.
fn random_placement(n: usize, k: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut all: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.gen_range(i..n);
        all.swap(i, j);
    }
    all.truncate(k);
    all
}

/// A random gate: Haar on 1–3 qubits, or one with structural zeros (CZ,
/// Rz, X) that routes the statevector kernels onto their special cases.
fn random_gate(n: usize, rng: &mut StdRng) -> (Vec<usize>, CMat) {
    let k = rng.gen_range(1..=n.min(3));
    let kind = rng.gen_range(0..4);
    match (k, kind) {
        (1, 1) => {
            let phases = [
                Complex::cis(rng.gen::<f64>()),
                Complex::cis(rng.gen::<f64>()),
            ];
            (random_placement(n, 1, rng), CMat::diag(&phases))
        }
        (1, 2) => (
            random_placement(n, 1, rng),
            CMat::from_rows_f64(&[&[0.0, 1.0], &[1.0, 0.0]]),
        ),
        (2, 1) => (
            random_placement(n, 2, rng),
            CMat::diag(&[Complex::ONE, Complex::ONE, Complex::ONE, c(-1.0, 0.0)]),
        ),
        _ => (random_placement(n, k, rng), haar_unitary(1 << k, rng)),
    }
}

fn assert_same(rho: &DensityMatrix, reference: &Reference, context: &str) {
    for (i, (a, b)) in rho.as_slice().iter().zip(&reference.mat).enumerate() {
        assert!(
            a.re == b.re && a.im == b.im,
            "{context}: entry {i}: {a:?} vs reference {b:?}"
        );
    }
    let (got, want) = (rho.probabilities(), reference.probabilities());
    for (i, (a, b)) in got.iter().zip(&want).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{context}: probability {i}");
    }
}

#[test]
fn vec_rho_kernels_reproduce_the_reference_bit_for_bit() {
    for n in 1..=6usize {
        for p in [0.0, 1e-3, 0.3, 1.0] {
            let mut rng = StdRng::seed_from_u64(1_700 + n as u64);
            let mut rho = DensityMatrix::zero(n);
            let mut reference = Reference::zero(n);
            for step in 0..3 * n + 4 {
                let (qubits, u) = random_gate(n, &mut rng);
                let context = format!("n={n} p={p} step={step} qubits={qubits:?}");
                rho.apply(&qubits, &u);
                reference.apply(&qubits, &u);
                assert_same(&rho, &reference, &context);
                rho.depolarize(&qubits, p);
                reference.depolarize(&qubits, p);
                assert_same(&rho, &reference, &context);
            }
        }
    }
}

#[test]
fn depolarizing_every_arity_on_an_entangled_state_matches() {
    // Channels of every arity up to the whole register (k = n, an empty
    // rest), on random placements of one entangled state.
    let n = 4usize;
    let mut rng = StdRng::seed_from_u64(1_799);
    let mut rho = DensityMatrix::zero(n);
    let mut reference = Reference::zero(n);
    for _ in 0..6 {
        let (qubits, u) = random_gate(n, &mut rng);
        rho.apply(&qubits, &u);
        reference.apply(&qubits, &u);
    }
    for k in 1..=n {
        let qubits = random_placement(n, k, &mut rng);
        rho.depolarize(&qubits, 0.3);
        reference.depolarize(&qubits, 0.3);
        assert_same(&rho, &reference, &format!("k={k} qubits={qubits:?}"));
    }
}
