//! Two-qubit synthesis over the AshN basis: every class is a *single*
//! native pulse (paper §6.1), so the circuit is one entangler dressed with
//! single-qubit corrections computed via KAK.

use crate::circuit2::{align_to_target, Op2, TwoQubitCircuit};
use ashn_core::scheme::{AshnPulse, AshnScheme, CompileError};
use ashn_gates::kak::weyl_coordinates;
use ashn_math::{CMat, Complex};

/// Result of AshN synthesis: the circuit plus the pulse that implements its
/// entangler.
#[derive(Clone, Debug)]
pub struct AshnSynthesis {
    /// The dressed circuit (one entangler for non-identity classes).
    pub circuit: TwoQubitCircuit,
    /// The compiled pulse.
    pub pulse: AshnPulse,
}

/// Decomposes an arbitrary two-qubit unitary into one AshN pulse plus
/// single-qubit corrections.
///
/// # Errors
///
/// Propagates [`CompileError`] from the pulse compiler.
pub fn decompose_ashn(u: &CMat, scheme: &AshnScheme) -> Result<AshnSynthesis, CompileError> {
    let pulse = scheme.compile(weyl_coordinates(u))?;
    let base = if pulse.tau == 0.0 {
        TwoQubitCircuit::identity()
    } else {
        TwoQubitCircuit {
            phase: Complex::ONE,
            ops: vec![Op2::Entangler {
                label: format!("AshN[{}]", pulse.scheme),
                matrix: pulse.unitary(),
                duration: pulse.tau,
            }],
        }
    };
    Ok(AshnSynthesis {
        circuit: align_to_target(u, base),
        pulse,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ashn_gates::cost::optimal_time;
    use ashn_gates::two::{cnot, swap};
    use ashn_math::randmat::haar_unitary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn every_gate_is_one_pulse() {
        let scheme = AshnScheme::new(0.0);
        let mut rng = StdRng::seed_from_u64(51);
        for _ in 0..10 {
            let u = haar_unitary(4, &mut rng);
            let s = decompose_ashn(&u, &scheme).expect("compiles");
            assert_eq!(s.circuit.entangler_count(), 1);
            assert!(s.circuit.error(&u) < 1e-6, "error {}", s.circuit.error(&u));
            // Duration is the optimal time for the class.
            let p = weyl_coordinates(&u);
            assert!((s.pulse.tau - optimal_time(0.0, p)).abs() < 1e-8);
        }
    }

    #[test]
    fn named_gates_reconstruct() {
        let scheme = AshnScheme::new(0.0);
        for g in [cnot(), swap()] {
            let s = decompose_ashn(&g, &scheme).unwrap();
            assert!(s.circuit.error(&g) < 1e-6, "error {}", s.circuit.error(&g));
        }
    }

    #[test]
    fn works_with_zz_and_cutoff() {
        let scheme = AshnScheme::with_cutoff(0.2, 0.9);
        let mut rng = StdRng::seed_from_u64(52);
        let u = haar_unitary(4, &mut rng);
        let s = decompose_ashn(&u, &scheme).unwrap();
        assert!(s.circuit.error(&u) < 1e-6);
        assert!(s.pulse.max_strength() <= scheme.strength_bound() + 1e-6);
    }
}
