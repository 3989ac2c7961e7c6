//! The instruction-set registry: which gate sets exist, their Weyl
//! metadata, and their native entangler vocabularies.

use crate::basis::{AshnBasis, CnotBasis, CzBasis, EcrBasis, SqiswBasis};
use crate::cnot_basis::{cnot_count_for, cnot_reversed};
use crate::sqisw_basis::sqisw_count_for;
use ashn_gates::kak::weyl_coordinates;
use ashn_gates::two::{cnot, cz, ecr, sqisw, swap};
use ashn_gates::weyl::WeylPoint;
use ashn_ir::{Basis, BasisMetadata, WeylCategory};
use ashn_math::CMat;

/// Matrices closer than this (Frobenius) are treated as the same native
/// gate by vocabulary matching.
const GATE_TOL: f64 = 1e-12;

/// One native entangler of a registered gate set, as a 4×4 matrix on
/// qubits `{0, 1}` in big-endian `|q0 q1⟩` convention. Asymmetric gates
/// (CX, ECR) register both orientations.
#[derive(Clone, Debug)]
pub struct NativeGate {
    /// Display name (`"CX"`, `"ECR:rev"`, …).
    pub name: String,
    /// The gate matrix.
    pub matrix: CMat,
}

/// A registered instruction set: the `(name, cache_params)` identity the
/// synthesis caches key by, its [`BasisMetadata`], and its native
/// entangler vocabulary (empty for [`WeylCategory::Continuous`] sets,
/// whose pulses cannot be enumerated).
#[derive(Clone, Debug)]
pub struct RegisteredSet {
    /// [`Basis::name`] of the set.
    pub name: String,
    /// [`Basis::cache_params`] of the set.
    pub params: String,
    /// Weyl classification, counts, and duration.
    pub metadata: BasisMetadata,
    /// Native entangler matrices (both orientations for asymmetric gates).
    pub gates: Vec<NativeGate>,
}

/// The registry of known instruction sets.
#[derive(Clone, Debug, Default)]
pub struct GateSetRegistry {
    sets: Vec<RegisteredSet>,
}

/// ECR with the control on qubit 1 (the SWAP-conjugated orientation).
pub(crate) fn ecr_reversed() -> CMat {
    let s = swap();
    s.matmul(&ecr()).matmul(&s)
}

fn set_of(basis: &(impl Basis + ?Sized), gates: Vec<(&str, CMat)>) -> RegisteredSet {
    RegisteredSet {
        name: basis.name(),
        params: basis.cache_params(),
        metadata: basis.metadata().expect("built-in bases publish metadata"),
        gates: gates
            .into_iter()
            .map(|(name, matrix)| NativeGate {
                name: name.into(),
                matrix,
            })
            .collect(),
    }
}

impl GateSetRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The registry of the built-in gate sets: CNOT, CZ, ECR, SQiSW, and
    /// the paper's AshN schemes (ideal and `r = 1.1`).
    pub fn standard() -> Self {
        let mut reg = Self::new();
        reg.register(set_of(
            &CnotBasis,
            vec![("CX", cnot()), ("CX:rev", cnot_reversed())],
        ));
        reg.register(set_of(&CzBasis, vec![("CZ", cz())]));
        reg.register(set_of(
            &EcrBasis,
            vec![("ECR", ecr()), ("ECR:rev", ecr_reversed())],
        ));
        reg.register(set_of(&SqiswBasis, vec![("SQiSW", sqisw())]));
        reg.register(set_of(&AshnBasis::ideal(), vec![]));
        reg.register(set_of(&AshnBasis::with_cutoff(0.0, 1.1), vec![]));
        reg
    }

    /// Registers (or replaces, on matching `(name, params)`) a set.
    pub fn register(&mut self, set: RegisteredSet) {
        if let Some(slot) = self
            .sets
            .iter_mut()
            .find(|s| s.name == set.name && s.params == set.params)
        {
            *slot = set;
        } else {
            self.sets.push(set);
        }
    }

    /// The set registered under `(name, params)`, if any.
    pub fn get(&self, name: &str, params: &str) -> Option<&RegisteredSet> {
        self.sets
            .iter()
            .find(|s| s.name == name && s.params == params)
    }

    /// Every registered set, in registration order.
    pub fn sets(&self) -> &[RegisteredSet] {
        &self.sets
    }

    /// Identifies a matrix as a native entangler of some registered set.
    pub fn recognize(&self, m: &CMat) -> Option<(&RegisteredSet, &NativeGate)> {
        if m.rows() != 4 || !m.is_square() {
            return None;
        }
        self.sets.iter().find_map(|s| {
            s.gates
                .iter()
                .find(|g| g.matrix.dist(m) < GATE_TOL)
                .map(|g| (s, g))
        })
    }

    /// Whether `m` is a native entangler of the set `(name, params)`.
    pub fn is_native(&self, m: &CMat, name: &str, params: &str) -> bool {
        if m.rows() != 4 || !m.is_square() {
            return false;
        }
        self.get(name, params)
            .is_some_and(|s| s.gates.iter().any(|g| g.matrix.dist(m) < GATE_TOL))
    }
}

/// Analytic entangler count for target class `p` under a set described by
/// `meta`: exact count theorems for the classified categories
/// (Shende–Markov–Bullock for the CNOT family, Huang et al. for SQiSW, one
/// pulse for Continuous), the [`ashn_ir::EntanglerCounts`] buckets
/// otherwise.
pub fn expected_count(meta: &BasisMetadata, p: WeylPoint) -> usize {
    let p = p.canonicalize();
    let tol = 1e-9;
    match meta.category {
        WeylCategory::Cnot => cnot_count_for(p),
        WeylCategory::Sqisw => sqisw_count_for(p),
        WeylCategory::Continuous => usize::from(p.dist(WeylPoint::IDENTITY) >= tol),
        WeylCategory::Iswap | WeylCategory::Other => {
            if p.dist(WeylPoint::IDENTITY) < tol {
                meta.counts.identity
            } else if p.gate_dist(WeylPoint::CNOT) < tol {
                meta.counts.cnot
            } else if p.z.abs() < tol {
                meta.counts.flat
            } else {
                meta.counts.generic
            }
        }
    }
}

/// Registry-aware [`Basis::expected_entanglers`]: when the basis publishes
/// [`Basis::metadata`], the count is derived from its Weyl category (so
/// third-party bases get correct minimal-cost-block skipping in the
/// optimizer without hardcoding); otherwise falls back to the basis's own
/// count.
pub fn expected_entanglers_for(basis: &(impl Basis + ?Sized), u: &CMat) -> usize {
    match basis.metadata() {
        Some(meta) if u.rows() == 4 && u.is_square() => expected_count(&meta, weyl_coordinates(u)),
        _ => basis.expected_entanglers(u),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_registry_contains_the_builtin_sets() {
        let reg = GateSetRegistry::standard();
        let bases: [&dyn Basis; 4] = [&CnotBasis, &CzBasis, &EcrBasis, &SqiswBasis];
        for basis in bases {
            let name = basis.name();
            assert!(
                reg.get(&name, &basis.cache_params()).is_some(),
                "{name} missing"
            );
        }
        assert!(reg.sets().iter().any(|s| s.name.starts_with("AshN")));
    }

    #[test]
    fn recognize_identifies_both_orientations() {
        let reg = GateSetRegistry::standard();
        let (s, g) = reg.recognize(&cnot()).unwrap();
        assert_eq!((s.name.as_str(), g.name.as_str()), ("CNOT", "CX"));
        let (s, g) = reg.recognize(&cnot_reversed()).unwrap();
        assert_eq!((s.name.as_str(), g.name.as_str()), ("CNOT", "CX:rev"));
        let (s, _) = reg.recognize(&ecr_reversed()).unwrap();
        assert_eq!(s.name, "ECR");
        assert!(reg.recognize(&CMat::identity(4)).is_none());
    }

    #[test]
    fn expected_counts_match_the_basis_implementations() {
        use ashn_math::randmat::haar_unitary;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(91);
        let targets = vec![
            CMat::identity(4),
            cnot(),
            cz(),
            ecr(),
            sqisw(),
            ashn_gates::two::iswap(),
            swap(),
            haar_unitary(4, &mut rng),
        ];
        let bases: Vec<Box<dyn Basis>> = vec![
            Box::new(CnotBasis),
            Box::new(CzBasis),
            Box::new(EcrBasis),
            Box::new(SqiswBasis),
            Box::new(AshnBasis::ideal()),
        ];
        for b in &bases {
            for u in &targets {
                assert_eq!(
                    expected_entanglers_for(b, u),
                    b.expected_entanglers(u),
                    "{} disagrees",
                    b.name()
                );
            }
        }
    }

    #[test]
    fn bucket_counts_serve_unclassified_categories() {
        use ashn_ir::EntanglerCounts;
        let meta = BasisMetadata {
            weyl: [
                std::f64::consts::FRAC_PI_4,
                std::f64::consts::FRAC_PI_4,
                0.0,
            ],
            category: WeylCategory::Iswap,
            counts: EntanglerCounts {
                identity: 0,
                cnot: 2,
                flat: 2,
                generic: 3,
            },
            duration: 1.0,
        };
        assert_eq!(expected_count(&meta, WeylPoint::IDENTITY), 0);
        assert_eq!(expected_count(&meta, WeylPoint::CNOT), 2);
        assert_eq!(expected_count(&meta, WeylPoint::new(0.5, 0.3, 0.0)), 2);
        assert_eq!(expected_count(&meta, WeylPoint::SWAP), 3);
    }
}
