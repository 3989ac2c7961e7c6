//! [`Basis`] implementations for the native gate sets the paper compares:
//! CNOT, flux-tuned CZ, flux-tuned SQiSW, and AshN.
//!
//! Each implementation wraps one of this crate's synthesis routines and
//! returns the canonical [`ashn_ir::Circuit`], so routing, quantum-volume
//! scoring, and the `ashn::Compiler` pipeline are generic over the native
//! gate set. New bases (B-gate, iSWAP, …) are one `impl Basis` away.

use crate::ashn_basis::decompose_ashn;
use crate::cnot_basis::{cnot_count, decompose_cnot, to_cz_basis, to_ecr_basis, CZ_DURATION};
use crate::sqisw_basis::{decompose_sqisw, sqisw_count, SQISW_DURATION};
use ashn_core::scheme::AshnScheme;
use ashn_gates::kak::weyl_coordinates;
use ashn_gates::weyl::WeylPoint;
use ashn_ir::{Basis, BasisMetadata, Circuit, EntanglerCounts, SynthError, WeylCategory};
use ashn_math::CMat;
use std::f64::consts::{FRAC_PI_4, FRAC_PI_8};

/// Metadata shared by the CNOT-family bases (CX, CZ, ECR): one entangler
/// for the CNOT class, two for `z = 0`, three generically
/// (Shende–Markov–Bullock).
fn cnot_family_metadata() -> BasisMetadata {
    BasisMetadata {
        weyl: [FRAC_PI_4, 0.0, 0.0],
        category: WeylCategory::Cnot,
        counts: EntanglerCounts {
            identity: 0,
            cnot: 1,
            flat: 2,
            generic: 3,
        },
        duration: CZ_DURATION,
    }
}

/// CNOT + arbitrary single-qubit gates (0–3 entanglers,
/// Shende–Markov–Bullock).
#[derive(Clone, Copy, Debug, Default)]
pub struct CnotBasis;

impl Basis for CnotBasis {
    fn name(&self) -> String {
        "CNOT".into()
    }

    fn synthesize(&self, u: &CMat) -> Result<Circuit, SynthError> {
        check_two_qubit(u, "CNOT")?;
        Ok(decompose_cnot(u).into())
    }

    fn expected_entanglers(&self, u: &CMat) -> usize {
        cnot_count(u)
    }

    fn metadata(&self) -> Option<BasisMetadata> {
        Some(cnot_family_metadata())
    }
}

/// Flux-tuned CZ: the CNOT decomposition with every CNOT rewritten as
/// `(I⊗H)·CZ·(I⊗H)` (paper §6.1; gate time `π/√2 · 1/g`).
#[derive(Clone, Copy, Debug, Default)]
pub struct CzBasis;

impl Basis for CzBasis {
    fn name(&self) -> String {
        "CZ".into()
    }

    fn synthesize(&self, u: &CMat) -> Result<Circuit, SynthError> {
        check_two_qubit(u, "CZ")?;
        Ok(to_cz_basis(decompose_cnot(u)).into())
    }

    fn expected_entanglers(&self, u: &CMat) -> usize {
        cnot_count(u)
    }

    fn metadata(&self) -> Option<BasisMetadata> {
        Some(cnot_family_metadata())
    }
}

/// Echoed cross-resonance (ECR): the CNOT decomposition with every CNOT
/// rewritten as a locally-dressed ECR — the native entangler of
/// fixed-frequency transmon stacks, Weyl-equivalent to CNOT.
#[derive(Clone, Copy, Debug, Default)]
pub struct EcrBasis;

impl Basis for EcrBasis {
    fn name(&self) -> String {
        "ECR".into()
    }

    fn synthesize(&self, u: &CMat) -> Result<Circuit, SynthError> {
        check_two_qubit(u, "ECR")?;
        Ok(to_ecr_basis(decompose_cnot(u)).into())
    }

    fn expected_entanglers(&self, u: &CMat) -> usize {
        cnot_count(u)
    }

    fn metadata(&self) -> Option<BasisMetadata> {
        Some(cnot_family_metadata())
    }
}

/// Flux-tuned SQiSW (√iSWAP): 1–3 applications after Huang et al. \[30\],
/// with closed-form interleavers (gate time `π/4 · 1/g`).
#[derive(Clone, Copy, Debug, Default)]
pub struct SqiswBasis;

impl Basis for SqiswBasis {
    fn name(&self) -> String {
        "SQiSW".into()
    }

    // A solver tag: caches persisted while the interleavers were searched
    // numerically hold other bits for the same class, and must not serve
    // them under this key.
    fn cache_params(&self) -> String {
        "interleavers=closed-form".into()
    }

    fn synthesize(&self, u: &CMat) -> Result<Circuit, SynthError> {
        check_two_qubit(u, "SQiSW")?;
        decompose_sqisw(u)
            .map(Into::into)
            .map_err(|e| SynthError::Convergence {
                basis: "SQiSW".into(),
                detail: e.to_string(),
            })
    }

    fn expected_entanglers(&self, u: &CMat) -> usize {
        sqisw_count(u)
    }

    fn metadata(&self) -> Option<BasisMetadata> {
        Some(BasisMetadata {
            weyl: [FRAC_PI_8, FRAC_PI_8, 0.0],
            category: WeylCategory::Sqisw,
            counts: EntanglerCounts {
                identity: 0,
                cnot: 2,
                flat: 2,
                generic: 3,
            },
            duration: SQISW_DURATION,
        })
    }
}

/// AshN: every two-qubit class in a *single* native pulse at (cutoff-)
/// optimal time — the paper's complex yet reduced instruction set.
#[derive(Clone, Copy, Debug)]
pub struct AshnBasis {
    /// The pulse-compilation scheme (ZZ ratio and drive-strength cutoff).
    pub scheme: AshnScheme,
}

impl AshnBasis {
    /// AshN over an ideal `XX+YY` coupler (`h = 0`) with exactly optimal
    /// gate times.
    pub fn ideal() -> Self {
        Self {
            scheme: AshnScheme::new(0.0),
        }
    }

    /// AshN with a drive-strength cutoff `r` (paper §6.1 uses 0 and 1.1).
    pub fn with_cutoff(h_ratio: f64, cutoff: f64) -> Self {
        Self {
            scheme: AshnScheme::with_cutoff(h_ratio, cutoff),
        }
    }

    /// Has no effect: the EA solve is serial since it stopped searching
    /// multistart waves. Kept so that callers written against the
    /// worker-count API still compile.
    #[must_use]
    pub fn with_workers(self, workers: usize) -> Self {
        let _ = workers;
        self
    }
}

impl Basis for AshnBasis {
    fn name(&self) -> String {
        format!("AshN(r={})", self.scheme.cutoff())
    }

    // The ZZ ratio h̃ changes every compiled pulse but is absent from the
    // display name. `{:?}` prints the shortest exactly-round-tripping
    // decimal, so the key is stable across save/load. The `ea=` tag names
    // the solver: caches persisted while the EA polish matched invariants
    // hold other bits for the same class, and must not serve them here.
    fn cache_params(&self) -> String {
        format!(
            "h={:?};r={:?};ea=coordinate-polish",
            self.scheme.h_ratio(),
            self.scheme.cutoff()
        )
    }

    fn synthesize(&self, u: &CMat) -> Result<Circuit, SynthError> {
        check_two_qubit(u, "AshN")?;
        decompose_ashn(u, &self.scheme)
            .map(|s| s.circuit.into())
            .map_err(|e| SynthError::Pulse {
                basis: self.name(),
                detail: e.to_string(),
            })
    }

    fn expected_entanglers(&self, u: &CMat) -> usize {
        let p = weyl_coordinates(u);
        usize::from(p.dist(WeylPoint::IDENTITY) >= 1e-9)
    }

    fn metadata(&self) -> Option<BasisMetadata> {
        Some(BasisMetadata {
            weyl: [0.0, 0.0, 0.0],
            category: WeylCategory::Continuous,
            counts: EntanglerCounts {
                identity: 0,
                cnot: 1,
                flat: 1,
                generic: 1,
            },
            // Worst-case (SWAP-class) pulse time, paper §6.1.
            duration: 3.0 * FRAC_PI_4,
        })
    }
}

pub(crate) fn check_two_qubit(u: &CMat, basis: &str) -> Result<(), SynthError> {
    if u.rows() != 4 || !u.is_square() {
        return Err(SynthError::InvalidTarget {
            basis: basis.into(),
            detail: format!("expected a 4x4 unitary, got {}x{}", u.rows(), u.cols()),
        });
    }
    if !u.is_unitary(1e-6) {
        return Err(SynthError::InvalidTarget {
            basis: basis.into(),
            detail: "matrix is not unitary within 1e-6".into(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ashn_math::randmat::haar_unitary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bases() -> Vec<Box<dyn Basis>> {
        vec![
            Box::new(CnotBasis),
            Box::new(CzBasis),
            Box::new(EcrBasis),
            Box::new(SqiswBasis),
            Box::new(AshnBasis::ideal()),
            Box::new(AshnBasis::with_cutoff(0.0, 1.1)),
        ]
    }

    #[test]
    fn every_basis_reconstructs_haar_targets() {
        let mut rng = StdRng::seed_from_u64(71);
        let u = haar_unitary(4, &mut rng);
        for b in bases() {
            let c = b.synthesize(&u).unwrap_or_else(|e| panic!("{e}"));
            assert!(c.error(&u) < 1e-5, "{}: error {}", b.name(), c.error(&u));
            assert_eq!(
                c.entangler_count(),
                b.expected_entanglers(&u),
                "{}",
                b.name()
            );
        }
    }

    #[test]
    fn non_unitary_targets_are_rejected_not_panicked() {
        let junk = CMat::zeros(4, 4);
        for b in bases() {
            assert!(matches!(
                b.synthesize(&junk),
                Err(SynthError::InvalidTarget { .. })
            ));
        }
        let wrong_dim = CMat::identity(8);
        assert!(CnotBasis.synthesize(&wrong_dim).is_err());
    }

    #[test]
    fn every_builtin_basis_publishes_metadata() {
        for b in bases() {
            let meta = b.metadata().unwrap_or_else(|| panic!("{}", b.name()));
            assert!(meta.duration > 0.0, "{}", b.name());
            // The advertised entangler class matches KAK of the entangler
            // for fixed-entangler sets; Continuous sets advertise zeros.
            if meta.category == ashn_ir::WeylCategory::Continuous {
                assert_eq!(meta.weyl, [0.0, 0.0, 0.0]);
            }
        }
        assert_eq!(
            EcrBasis.metadata().unwrap().category,
            ashn_ir::WeylCategory::Cnot
        );
    }

    #[test]
    fn ecr_basis_emits_only_ecr_entanglers() {
        let mut rng = StdRng::seed_from_u64(73);
        let u = haar_unitary(4, &mut rng);
        let c = EcrBasis.synthesize(&u).unwrap();
        assert!(c.error(&u) < 1e-8, "error {}", c.error(&u));
        assert_eq!(c.entangler_count(), 3);
        for g in c.instructions.iter().filter(|g| g.qubits.len() == 2) {
            assert!(g.matrix.dist(&ashn_gates::two::ecr()) < 1e-12);
        }
    }

    #[test]
    fn native_swap_counts_match_the_paper() {
        // CZ and SQiSW need 3 natives for SWAP; AshN needs a single pulse.
        assert_eq!(CzBasis.native_swap().unwrap().entangler_count(), 3);
        assert_eq!(SqiswBasis.native_swap().unwrap().entangler_count(), 3);
        assert_eq!(
            AshnBasis::ideal().native_swap().unwrap().entangler_count(),
            1
        );
    }
}
