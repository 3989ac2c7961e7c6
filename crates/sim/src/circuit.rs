//! Circuit-level simulation on the canonical [`ashn_ir::Circuit`] IR.
//!
//! The circuit representation itself lives in `ashn-ir` (one IR for the
//! whole workspace); this module keeps the noise model and provides the
//! [`Simulate`] extension trait so `circuit.run_pure()` /
//! `circuit.run_noisy(..)` read as before. (The transitional
//! `ashn_sim::Gate` alias has been removed — every consumer now speaks
//! `ashn_ir::Instruction` directly.)

use crate::density::DensityMatrix;
use crate::state::StateVector;
pub use ashn_ir::{Circuit, Instruction};

/// Per-arity default depolarizing rates.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NoiseModel {
    /// Default error probability after a single-qubit gate.
    pub one_qubit: f64,
    /// Default error probability after a two-qubit gate.
    pub two_qubit: f64,
}

impl NoiseModel {
    /// A noiseless model.
    pub const NOISELESS: NoiseModel = NoiseModel {
        one_qubit: 0.0,
        two_qubit: 0.0,
    };

    pub(crate) fn rate_for(&self, gate: &Instruction) -> f64 {
        gate.error_rate.unwrap_or(match gate.qubits.len() {
            1 => self.one_qubit,
            2 => self.two_qubit,
            _ => 0.0,
        })
    }
}

/// Execution of [`ashn_ir::Circuit`]s on the simulators in this crate.
pub trait Simulate {
    /// Runs the circuit on `|0…0⟩` without noise.
    fn run_pure(&self) -> StateVector;

    /// Runs the circuit with depolarizing noise after every gate, returning
    /// the exact output density matrix.
    fn run_noisy(&self, noise: &NoiseModel) -> DensityMatrix;

    /// Runs the circuit with an externally resolved depolarizing schedule:
    /// `rates[i]` is applied after instruction `i`. This lets callers score
    /// one circuit under many noise models without materializing an
    /// annotated copy of the circuit (and its gate matrices) per model.
    fn run_noisy_scheduled(&self, rates: &[f64]) -> DensityMatrix;
}

impl Simulate for Circuit {
    fn run_pure(&self) -> StateVector {
        // Seed |0…0⟩ scaled by the circuit's global phase so amplitudes
        // agree with `Circuit::unitary()` column 0 (the former gate-list
        // representation carried the phase as an explicit gate).
        let mut amps = vec![ashn_math::Complex::ZERO; 1 << self.n];
        amps[0] = self.phase;
        let mut s = StateVector::from_amplitudes_unchecked(amps);
        for g in &self.instructions {
            s.apply(&g.qubits, &g.matrix);
        }
        s
    }

    fn run_noisy(&self, noise: &NoiseModel) -> DensityMatrix {
        let mut rho = DensityMatrix::zero(self.n);
        for g in &self.instructions {
            rho.apply(&g.qubits, &g.matrix);
            let p = noise.rate_for(g);
            if p > 0.0 {
                rho.depolarize(&g.qubits, p);
            }
        }
        rho
    }

    fn run_noisy_scheduled(&self, rates: &[f64]) -> DensityMatrix {
        assert_eq!(
            rates.len(),
            self.instructions.len(),
            "one rate per instruction"
        );
        let mut rho = DensityMatrix::zero(self.n);
        for (g, &p) in self.instructions.iter().zip(rates) {
            rho.apply(&g.qubits, &g.matrix);
            if p > 0.0 {
                rho.depolarize(&g.qubits, p);
            }
        }
        rho
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ashn_math::randmat::haar_unitary;
    use ashn_math::CMat;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn h_gate() -> CMat {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        CMat::from_rows_f64(&[&[s, s], &[s, -s]])
    }

    #[test]
    fn noiseless_density_equals_pure_run() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut c = Circuit::new(3);
        c.push(Instruction::new(vec![0], h_gate(), "H"));
        c.push(Instruction::new(vec![0, 1], haar_unitary(4, &mut rng), "U"));
        c.push(Instruction::new(vec![2, 1], haar_unitary(4, &mut rng), "V"));
        let pure = c.run_pure();
        let rho = c.run_noisy(&NoiseModel::NOISELESS);
        for (a, b) in pure.probabilities().iter().zip(rho.probabilities()) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn noise_reduces_purity() {
        let mut rng = StdRng::seed_from_u64(22);
        let mut c = Circuit::new(2);
        c.push(Instruction::new(vec![0, 1], haar_unitary(4, &mut rng), "U"));
        let rho = c.run_noisy(&NoiseModel {
            one_qubit: 0.001,
            two_qubit: 0.02,
        });
        assert!(rho.purity() < 1.0 - 0.01);
        assert!((rho.trace() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn explicit_error_rate_overrides_default() {
        let mut c = Circuit::new(1);
        c.push(Instruction::new(vec![0], h_gate(), "H").with_error_rate(1.0));
        let rho = c.run_noisy(&NoiseModel::NOISELESS);
        // Full depolarizing: maximally mixed.
        assert!((rho.purity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unitary_matches_gate_product() {
        let mut rng = StdRng::seed_from_u64(23);
        let u01 = haar_unitary(4, &mut rng);
        let mut c = Circuit::new(2);
        c.push(Instruction::new(vec![0, 1], u01.clone(), "U"));
        assert!(c.unitary().dist(&u01) < 1e-10);
    }

    #[test]
    fn durations_accumulate() {
        let mut c = Circuit::new(2);
        c.push(Instruction::new(vec![0], h_gate(), "H").with_duration(0.1));
        c.push(Instruction::new(vec![1], h_gate(), "H").with_duration(0.2));
        assert!((c.total_duration() - 0.3).abs() < 1e-12);
        assert_eq!(c.entangler_count(), 0);
    }

    #[test]
    fn run_pure_carries_the_global_phase() {
        let mut c = Circuit::new(2);
        c.phase = ashn_math::Complex::cis(0.9);
        c.push(Instruction::new(vec![0], h_gate(), "H"));
        let amps = c.run_pure();
        let u = c.unitary();
        for (r, a) in amps.amplitudes().iter().enumerate() {
            assert!((*a - u[(r, 0)]).abs() < 1e-12, "row {r}");
        }
    }
}
