//! Pure-state (statevector) simulator.
//!
//! Qubit 0 is the most significant bit of the basis index, matching the
//! Kronecker-product convention `q0 ⊗ q1 ⊗ …` used by `ashn-math`.

use crate::error::SimError;
use ashn_math::{CMat, Complex};
use rand::Rng;

/// Largest supported register size. The bound is memory, not arithmetic:
/// `2^26` complex amplitudes occupy 1 GiB, and every kernel indexes with
/// plain `usize` bit arithmetic, so the cap tracks what a single host can
/// realistically hold (the chunked multi-threaded kernels make registers
/// this size *fast*, not just representable). Raised from the seed's 24
/// when amplitude-parallel application landed.
pub const MAX_QUBITS: usize = 26;

/// `Ok(n)` when `n` is a supported register size.
#[inline]
pub(crate) fn check_register(n: usize) -> Result<usize, SimError> {
    if (1..=MAX_QUBITS).contains(&n) {
        Ok(n)
    } else {
        Err(SimError::RegisterOutOfRange { n })
    }
}

/// Panics unless `qubits` lists `1..=n` distinct qubits, each `< n`, and
/// (when given) `u` is a square `2^k × 2^k` matrix: the gate preconditions
/// of [`StateVector::apply`] and [`crate::DensityMatrix`].
pub(crate) fn assert_gate_args(n: usize, qubits: &[usize], u: Option<&CMat>) {
    let k = qubits.len();
    assert!(k >= 1 && k <= n, "bad qubit count");
    if let Some(u) = u {
        assert_eq!(u.rows(), 1 << k, "matrix dimension mismatch");
        assert!(u.is_square());
    }
    for (i, q) in qubits.iter().enumerate() {
        assert!(*q < n, "qubit {q} out of range");
        assert!(
            !qubits[i + 1..].contains(q),
            "duplicate qubit {q} in gate application"
        );
    }
}

/// A normalised `n`-qubit state vector.
#[derive(Clone, Debug)]
pub struct StateVector {
    n: usize,
    amps: Vec<Complex>,
}

impl StateVector {
    /// The computational basis state `|0…0⟩`.
    ///
    /// # Panics
    ///
    /// Panics outside the `1..=`[`MAX_QUBITS`] range; use
    /// [`StateVector::try_zero`] to handle that as a value.
    pub fn zero(n: usize) -> Self {
        Self::try_zero(n).expect("qubit count out of supported range")
    }

    /// Fallible [`StateVector::zero`].
    ///
    /// # Errors
    ///
    /// [`SimError::RegisterOutOfRange`] outside `1..=`[`MAX_QUBITS`].
    pub fn try_zero(n: usize) -> Result<Self, SimError> {
        check_register(n)?;
        let mut amps = vec![Complex::ZERO; 1 << n];
        amps[0] = Complex::ONE;
        Ok(Self { n, amps })
    }

    /// Builds a state from raw amplitudes (must have power-of-two length).
    ///
    /// # Panics
    ///
    /// Panics when the length is not a power of two or the norm differs from
    /// 1 by more than `1e-6`; use [`StateVector::try_from_amplitudes`] to
    /// handle those as values.
    pub fn from_amplitudes(amps: Vec<Complex>) -> Self {
        match Self::try_from_amplitudes(amps) {
            Ok(s) => s,
            Err(e @ SimError::NotNormalized { .. }) => panic!("state is not normalised: {e}"),
            Err(_) => panic!("bad amplitude count"),
        }
    }

    /// Fallible [`StateVector::from_amplitudes`].
    ///
    /// # Errors
    ///
    /// [`SimError::BadAmplitudeCount`] when the length is not a power of
    /// two `>= 2` (or exceeds the [`MAX_QUBITS`] register cap as
    /// [`SimError::RegisterOutOfRange`]), [`SimError::NotNormalized`] when
    /// the squared norm differs from 1 by more than `1e-6`.
    pub fn try_from_amplitudes(amps: Vec<Complex>) -> Result<Self, SimError> {
        let state = Self::try_from_amplitudes_unchecked(amps)?;
        let norm = state.norm_sqr();
        if (norm - 1.0).abs() >= 1e-6 {
            return Err(SimError::NotNormalized { norm_sqr: norm });
        }
        Ok(state)
    }

    /// Builds a state from raw amplitudes without the normalisation check.
    ///
    /// Useful for propagating basis columns when assembling dense circuit
    /// unitaries; prefer [`StateVector::from_amplitudes`] elsewhere.
    ///
    /// # Panics
    ///
    /// Panics when the length is not a power of two.
    pub fn from_amplitudes_unchecked(amps: Vec<Complex>) -> Self {
        Self::try_from_amplitudes_unchecked(amps).expect("bad amplitude count")
    }

    /// Fallible [`StateVector::from_amplitudes_unchecked`]: length
    /// validation only, no normalisation check.
    ///
    /// # Errors
    ///
    /// [`SimError::BadAmplitudeCount`] when the length is not a power of
    /// two `>= 2`, [`SimError::RegisterOutOfRange`] when it implies a
    /// register beyond [`MAX_QUBITS`].
    pub fn try_from_amplitudes_unchecked(amps: Vec<Complex>) -> Result<Self, SimError> {
        let len = amps.len();
        if !len.is_power_of_two() || len < 2 {
            return Err(SimError::BadAmplitudeCount { len });
        }
        let n = check_register(len.trailing_zeros() as usize)?;
        Ok(Self { n, amps })
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n
    }

    /// Raw amplitudes in computational-basis order.
    pub fn amplitudes(&self) -> &[Complex] {
        &self.amps
    }

    /// Measurement probabilities `|⟨i|ψ⟩|²`.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Squared norm (should stay 1 under unitary evolution).
    pub fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Inner product `⟨self|other⟩`.
    ///
    /// # Panics
    ///
    /// Panics on qubit-count mismatch.
    pub fn inner(&self, other: &StateVector) -> Complex {
        assert_eq!(self.n, other.n);
        self.amps
            .iter()
            .zip(other.amps.iter())
            .map(|(a, b)| a.conj() * *b)
            .sum()
    }

    /// Applies a `k`-qubit unitary to the listed qubits (distinct, each
    /// `< n`).
    ///
    /// # Panics
    ///
    /// Panics when the matrix dimension is not `2^k`, qubits repeat, or an
    /// index is out of range.
    pub fn apply(&mut self, qubits: &[usize], u: &CMat) {
        assert_gate_args(self.n, qubits, Some(u));
        ashn_ir::circuit::apply_gate(&mut self.amps, self.n, qubits, u);
    }

    /// Samples a basis state index from the measurement distribution.
    ///
    /// The uniform draw is rescaled by the state's squared norm, so a
    /// slightly sub-unit-norm state (numerical drift under long circuits)
    /// does not bias the last basis state: each outcome is sampled with
    /// probability exactly `|a_i|² / ‖ψ‖²`. If rounding in the rescaled
    /// cumulative scan lets the draw survive the whole sweep, the fallback
    /// is the *last nonzero-probability* index — never a zero-amplitude
    /// basis state (a state whose trailing amplitudes are exactly zero
    /// previously could emit its final index).
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let mut u: f64 = rng.gen::<f64>() * self.norm_sqr();
        let mut last_nonzero = 0;
        for (i, a) in self.amps.iter().enumerate() {
            let p = a.norm_sqr();
            if p > 0.0 {
                last_nonzero = i;
                u -= p;
                if u <= 0.0 {
                    return i;
                }
            }
        }
        last_nonzero
    }

    /// Expectation value of `Z` on one qubit.
    pub fn expect_z(&self, qubit: usize) -> f64 {
        assert!(qubit < self.n);
        let p = self.n - 1 - qubit;
        self.amps
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let sign = if i >> p & 1 == 0 { 1.0 } else { -1.0 };
                sign * a.norm_sqr()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ashn_math::c;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn x_gate() -> CMat {
        CMat::from_rows_f64(&[&[0.0, 1.0], &[1.0, 0.0]])
    }

    fn h_gate() -> CMat {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        CMat::from_rows_f64(&[&[s, s], &[s, -s]])
    }

    fn cnot_gate() -> CMat {
        CMat::from_rows_f64(&[
            &[1.0, 0.0, 0.0, 0.0],
            &[0.0, 1.0, 0.0, 0.0],
            &[0.0, 0.0, 0.0, 1.0],
            &[0.0, 0.0, 1.0, 0.0],
        ])
    }

    #[test]
    fn x_on_each_qubit_sets_the_right_bit() {
        for n in 1..=4 {
            for q in 0..n {
                let mut s = StateVector::zero(n);
                s.apply(&[q], &x_gate());
                let expect = 1usize << (n - 1 - q);
                let p = s.probabilities();
                assert!((p[expect] - 1.0).abs() < 1e-12, "n={n} q={q}");
            }
        }
    }

    #[test]
    fn bell_state_construction() {
        let mut s = StateVector::zero(2);
        s.apply(&[0], &h_gate());
        s.apply(&[0, 1], &cnot_gate());
        let p = s.probabilities();
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!((p[3] - 0.5).abs() < 1e-12);
        assert!(p[1].abs() < 1e-12 && p[2].abs() < 1e-12);
    }

    #[test]
    fn two_qubit_gate_on_reversed_pair() {
        // CNOT with control q1, target q0 on |01⟩ flips q0: |01⟩ → |11⟩.
        let mut s = StateVector::zero(2);
        s.apply(&[1], &x_gate()); // |01⟩
        s.apply(&[1, 0], &cnot_gate());
        let p = s.probabilities();
        assert!((p[0b11] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn norm_is_preserved_by_random_unitaries() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut s = StateVector::zero(4);
        for step in 0..20 {
            let u = ashn_math::randmat::haar_unitary(4, &mut rng);
            let q = step % 3;
            s.apply(&[q, q + 1], &u);
            assert!((s.norm_sqr() - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn matches_dense_kron_application() {
        // Applying U on (q0,q2) of 3 qubits must equal the dense matrix
        // built by explicit permutation/kron.
        let mut rng = StdRng::seed_from_u64(6);
        let u = ashn_math::randmat::haar_unitary(4, &mut rng);
        // Prepare a random product state.
        let mut s = StateVector::zero(3);
        for q in 0..3 {
            let g = ashn_math::randmat::haar_unitary(2, &mut rng);
            s.apply(&[q], &g);
        }
        let before = s.amplitudes().to_vec();
        s.apply(&[0, 2], &u);
        // Dense: permute qubits (0,2,1) so targets are adjacent, apply
        // U ⊗ I, permute back. Build full 8×8 operator directly instead.
        let mut dense = CMat::zeros(8, 8);
        for r in 0..8 {
            for cc in 0..8 {
                // bits: q0 q1 q2 (msb→lsb)
                let (r0, r1, r2) = (r >> 2 & 1, r >> 1 & 1, r & 1);
                let (c0, c1, c2) = (cc >> 2 & 1, cc >> 1 & 1, cc & 1);
                if r1 == c1 {
                    dense[(r, cc)] = u[((r0 << 1) | r2, (c0 << 1) | c2)];
                }
            }
        }
        let expect = dense.mul_vec(&before);
        for (a, b) in s.amplitudes().iter().zip(expect.iter()) {
            assert!((*a - *b).abs() < 1e-12);
        }
    }

    #[test]
    fn expect_z_signs() {
        let mut s = StateVector::zero(2);
        assert!((s.expect_z(0) - 1.0).abs() < 1e-12);
        s.apply(&[0], &x_gate());
        assert!((s.expect_z(0) + 1.0).abs() < 1e-12);
        assert!((s.expect_z(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_matches_distribution() {
        let mut s = StateVector::zero(1);
        s.apply(&[0], &h_gate());
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let ones = (0..n).filter(|_| s.sample(&mut rng) == 1).count();
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "frac = {frac}");
    }

    #[test]
    fn sampling_renormalizes_sub_unit_norm_states() {
        // Regression: the pre-fix linear scan compared an unscaled uniform
        // draw against the raw |a_i|² mass, so any norm deficit fell through
        // to the *last* basis state. A state with most mass missing makes
        // the bias unmistakable: |ψ⟩ = 0.7|0⟩ has norm² = 0.49, and the old
        // code returned index 1 (amplitude zero!) for every u > 0.49.
        let s = StateVector::from_amplitudes_unchecked(vec![c(0.7, 0.0), Complex::ZERO]);
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..1000 {
            assert_eq!(s.sample(&mut rng), 0, "zero-amplitude outcome sampled");
        }
        // And a mildly drifted near-unit state keeps the right proportions.
        let drift = (0.5f64 * (1.0 - 1e-4)).sqrt();
        let s = StateVector::from_amplitudes_unchecked(vec![c(drift, 0.0), c(0.0, drift)]);
        let n = 20_000;
        let ones = (0..n).filter(|_| s.sample(&mut rng) == 1).count();
        let frac = ones as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "frac = {frac}");
    }

    #[test]
    fn sample_never_emits_a_trailing_zero_probability_state() {
        // Regression: the drift fallback returned `amps.len() - 1`
        // unconditionally, so a state whose *final* amplitudes are exactly
        // zero could emit a zero-probability basis state whenever the
        // rescaled draw survived the cumulative scan (u == norm² exactly,
        // or accumulated rounding). Force the fallback by sweeping many
        // draws on a state with only leading support: every sample must
        // land on a nonzero-probability index.
        let s = StateVector::from_amplitudes_unchecked(vec![
            c(0.6, 0.0),
            c(0.0, 0.8),
            Complex::ZERO,
            Complex::ZERO,
        ]);
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..5000 {
            let idx = s.sample(&mut rng);
            assert!(idx < 2, "sampled zero-probability basis state {idx}");
        }
        // The explicit fallback path: a state whose probabilities sum to
        // slightly *less* than norm_sqr() reports is impossible to build
        // from the public API, so drive the scan directly with the worst
        // case — all mass on index 0, zeros after. Any draw must return 0.
        let s = StateVector::from_amplitudes_unchecked(vec![Complex::ONE, Complex::ZERO]);
        for _ in 0..100 {
            assert_eq!(s.sample(&mut rng), 0);
        }
    }

    #[test]
    fn try_constructors_report_structured_errors() {
        assert_eq!(
            StateVector::try_zero(0).unwrap_err(),
            SimError::RegisterOutOfRange { n: 0 }
        );
        assert_eq!(
            StateVector::try_zero(MAX_QUBITS + 1).unwrap_err(),
            SimError::RegisterOutOfRange { n: MAX_QUBITS + 1 }
        );
        assert!(StateVector::try_zero(MAX_QUBITS.min(20)).is_ok());
        assert_eq!(
            StateVector::try_from_amplitudes_unchecked(vec![Complex::ONE; 3]).unwrap_err(),
            SimError::BadAmplitudeCount { len: 3 }
        );
        assert_eq!(
            StateVector::try_from_amplitudes_unchecked(vec![]).unwrap_err(),
            SimError::BadAmplitudeCount { len: 0 }
        );
        match StateVector::try_from_amplitudes(vec![c(0.7, 0.0), Complex::ZERO]).unwrap_err() {
            SimError::NotNormalized { norm_sqr } => assert!((norm_sqr - 0.49).abs() < 1e-12),
            other => panic!("wrong error: {other:?}"),
        }
        let ok = StateVector::try_from_amplitudes(vec![c(0.6, 0.0), c(0.0, 0.8)]).unwrap();
        assert_eq!(ok.n_qubits(), 1);
    }

    #[test]
    fn from_amplitudes_round_trip() {
        let s = StateVector::from_amplitudes(vec![c(0.6, 0.0), c(0.0, 0.8)]);
        assert_eq!(s.n_qubits(), 1);
        assert!((s.probabilities()[1] - 0.64).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "duplicate qubit")]
    fn rejects_duplicate_qubits() {
        let mut s = StateVector::zero(2);
        s.apply(&[0, 0], &cnot_gate());
    }
}
