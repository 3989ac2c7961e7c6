//! Native two-qubit gate sets compared in the paper's quantum-volume
//! experiment (§6.3): flux-tuned CZ, flux-tuned SQiSW, and AshN (with and
//! without cutoff).
//!
//! `GateSet` is a thin enum-to-[`Basis`] dispatcher over the
//! implementations in `ashn-synth`; everything downstream (routing,
//! compilation, scoring, the `ashn::Compiler`) is generic over
//! `dyn Basis`, so a new native basis only needs a `Basis` impl — no
//! changes here beyond an optional enum variant.

use ashn_ir::{Basis, Circuit, SynthError};
use ashn_math::CMat;
use ashn_synth::basis::{AshnBasis, CzBasis, SqiswBasis};

/// A native two-qubit gate set (the paper's three contenders).
#[derive(Clone, Copy, Debug)]
pub enum GateSet {
    /// Flux-tuned CZ, gate time `π/√2·(1/g)`; generic gates need 3.
    Cz,
    /// Flux-tuned SQiSW, gate time `π/4`; generic gates need 2–3.
    Sqisw,
    /// AshN with cutoff `r` (`r = 0` for exactly optimal times); every gate
    /// is a single pulse.
    Ashn {
        /// The cutoff `r` (paper §6.1 uses 0 and 1.1).
        cutoff: f64,
    },
}

impl GateSet {
    /// The [`Basis`] implementation this gate set dispatches to.
    pub fn basis(&self) -> Box<dyn Basis> {
        match self {
            GateSet::Cz => Box::new(CzBasis),
            GateSet::Sqisw => Box::new(SqiswBasis),
            GateSet::Ashn { cutoff } => Box::new(AshnBasis::with_cutoff(0.0, *cutoff)),
        }
    }

    /// Short display name.
    pub fn name(&self) -> String {
        self.basis().name()
    }

    /// Compiles an arbitrary two-qubit unitary to this gate set as a
    /// two-qubit [`Circuit`] (adjacent single-qubit gates fused), ready to
    /// be [`Circuit::embed`]ded at its physical sites.
    ///
    /// # Errors
    ///
    /// [`SynthError`] when synthesis fails (e.g. the AshN pulse search
    /// does not converge) instead of the former `expect` panic.
    pub fn compile_circuit(&self, u: &CMat) -> Result<Circuit, SynthError> {
        self.basis()
            .synthesize(u)
            .map(|c| c.fuse_single_qubit_runs())
    }

    /// The compiled SWAP (for routing). CZ and SQiSW both need 3 natives;
    /// AshN needs a single `3π/4` pulse (§6.4).
    ///
    /// # Errors
    ///
    /// Propagates [`SynthError`] from synthesis.
    pub fn compile_swap(&self) -> Result<Circuit, SynthError> {
        self.basis()
            .native_swap()
            .map(|c| c.fuse_single_qubit_runs())
    }

    /// Total two-qubit interaction time of a compiled gate, units of `1/g`.
    ///
    /// # Errors
    ///
    /// Propagates [`SynthError`] from synthesis.
    pub fn gate_duration(&self, u: &CMat) -> Result<f64, SynthError> {
        Ok(self.basis().synthesize(u)?.entangler_duration())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ashn_gates::two::swap;
    use ashn_math::randmat::haar_unitary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::f64::consts::PI;

    #[test]
    fn all_gate_sets_reproduce_targets() {
        let mut rng = StdRng::seed_from_u64(21);
        let u = haar_unitary(4, &mut rng);
        for gs in [
            GateSet::Cz,
            GateSet::Sqisw,
            GateSet::Ashn { cutoff: 0.0 },
            GateSet::Ashn { cutoff: 1.1 },
        ] {
            let circuit = gs.compile_circuit(&u).unwrap_or_else(|e| panic!("{e}"));
            assert!(
                circuit.error(&u) < 1e-5,
                "{}: reconstruction error {}",
                gs.name(),
                circuit.error(&u)
            );
        }
    }

    #[test]
    fn compile_embeds_onto_physical_pair() {
        let mut rng = StdRng::seed_from_u64(22);
        let u = haar_unitary(4, &mut rng);
        let circuit = GateSet::Ashn { cutoff: 0.0 }
            .compile_circuit(&u)
            .unwrap()
            .embed(3, &[2, 0])
            .unwrap();
        for g in &circuit.instructions {
            for q in &g.qubits {
                assert!(*q == 0 || *q == 2);
            }
        }
        assert!(circuit.unitary().is_unitary(1e-9));
    }

    #[test]
    fn swap_durations_match_paper() {
        // CZ: 3·π/√2; SQiSW: 3·π/4; AshN: 3π/4 in ONE pulse (§6.4).
        let dur = |gs: GateSet| -> f64 { gs.gate_duration(&swap()).unwrap() };
        assert!((dur(GateSet::Cz) - 3.0 * PI / 2f64.sqrt()).abs() < 1e-9);
        assert!((dur(GateSet::Sqisw) - 3.0 * PI / 4.0).abs() < 1e-9);
        assert!((dur(GateSet::Ashn { cutoff: 0.0 }) - 3.0 * PI / 4.0).abs() < 1e-9);
        let swap_circuit = GateSet::Ashn { cutoff: 0.0 }.compile_swap().unwrap();
        assert_eq!(
            swap_circuit.entangler_count(),
            1,
            "AshN implements SWAP in one pulse"
        );
    }

    #[test]
    fn ashn_is_fastest_on_haar_gates() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut totals = [0.0f64; 3];
        for _ in 0..5 {
            let u = haar_unitary(4, &mut rng);
            totals[0] += GateSet::Cz.gate_duration(&u).unwrap();
            totals[1] += GateSet::Sqisw.gate_duration(&u).unwrap();
            totals[2] += GateSet::Ashn { cutoff: 0.0 }.gate_duration(&u).unwrap();
        }
        assert!(totals[2] < totals[1] && totals[1] < totals[0]);
    }
}
