//! The closed-form retargeting rules: per (target set, Weyl class) an
//! exact core circuit plus pre-dressed fragments for every known gate of
//! the class.
//!
//! Rules are built once ([`standard_rules`]) from classic exact
//! constructions — Barenco et al.'s CX↔CZ Hadamard dressing, SWAP/iSWAP
//! from 3×/2×CX, and the SQiSW-pair → CX identity
//! `E·(X⊗I)·E·(X⊗I) = CAN(π/4, 0, 0)` (the canonical factors commute and
//! `(X⊗I)` conjugation flips the sign of the `y` coordinate). Same-class
//! dressings that are not hand-written (e.g. CX over a bare ECR) are
//! computed once by the exact KAK alignment at table-build time; nothing
//! numeric runs at serve time.

use super::registry::{ecr_reversed, GateSetRegistry};
use crate::basis::{CnotBasis, CzBasis, EcrBasis, SqiswBasis};
use crate::cache::ClassEntry;
use crate::circuit2::{align_to_target, Op2, TwoQubitCircuit};
use crate::cnot_basis::{cnot_reversed, to_cz_basis, to_ecr_basis, two_cnot_core, CZ_DURATION};
use crate::sqisw_basis::SQISW_DURATION;
use ashn_gates::two::{cnot, cz, ecr, iswap, sqisw, swap};
use ashn_gates::weyl::WeylPoint;
use ashn_ir::Basis;
use ashn_math::{CMat, Complex};
use std::sync::{Arc, OnceLock};

/// Exactness tolerance of the rule tier: a matrix matches a known gate,
/// and an emitted fragment must realize its gate, within this Frobenius
/// distance.
pub const RULE_TOL: f64 = 1e-12;

/// Canonical-class match tolerance (well above KAK noise, far below any
/// class separation).
const CLASS_TOL: f64 = 1e-8;

/// A named gate of a Weyl class with its pre-dressed exact realization
/// over the owning rule's target set.
#[derive(Clone, Debug)]
pub struct KnownGate {
    /// Gate name (`"CX"`, `"CZ"`, `"ECR:rev"`, `"SWAP"`, …).
    pub gate: String,
    /// The gate matrix.
    pub matrix: CMat,
    /// Exact realization over the target set (verified at [`RULE_TOL`]).
    pub circuit: TwoQubitCircuit,
}

/// One (target set, Weyl class) rule: an exact core realizing a member of
/// the class over the target set, plus pre-dressed fragments for the
/// class's known gates.
#[derive(Clone, Debug)]
pub struct ClassRule {
    /// Rule label (`"cx-class"`, `"swap-class"`, …).
    pub label: String,
    /// Canonical class coordinates.
    pub class: WeylPoint,
    /// Exact class realization over the target set.
    pub core: TwoQubitCircuit,
    /// `core.unitary()`, cached for [`ClassRule::core_entry`].
    core_target: CMat,
    /// Pre-dressed known gates of this class.
    pub gates: Vec<KnownGate>,
}

impl ClassRule {
    /// The known gate exactly matching `u`, if any.
    pub fn match_gate(&self, u: &CMat) -> Option<&KnownGate> {
        self.gates.iter().find(|g| g.matrix.dist(u) < RULE_TOL)
    }

    /// The bare core as a memo entry, for re-dressing to any member of the
    /// class that is not a known gate.
    pub(super) fn core_entry(&self) -> ClassEntry {
        ClassEntry {
            target: self.core_target.clone(),
            circuit: self.core.clone(),
        }
    }

    /// Native entanglers the rule spends.
    pub fn entanglers(&self) -> usize {
        self.core.entangler_count()
    }
}

/// The rule table: per registered `(name, cache_params)` target set, the
/// class rules it serves.
#[derive(Clone, Debug)]
pub struct RuleSet {
    registry: GateSetRegistry,
    rules: Vec<((String, String), Vec<ClassRule>)>,
}

fn bare(label: &str, m: CMat, duration: f64) -> TwoQubitCircuit {
    TwoQubitCircuit {
        phase: Complex::ONE,
        ops: vec![Op2::Entangler {
            label: label.into(),
            matrix: m,
            duration,
        }],
    }
}

/// Builds one class rule: gates realized by the core verbatim when it
/// already equals them, otherwise dressed by the exact KAK alignment.
fn class_rule(
    label: &str,
    class: WeylPoint,
    core: TwoQubitCircuit,
    gates: &[(&str, CMat)],
) -> ClassRule {
    let core_target = core.unitary();
    let gates = gates
        .iter()
        .map(|(name, m)| {
            let circuit = if core_target.dist(m) < RULE_TOL {
                core.clone()
            } else {
                align_to_target(m, core.clone())
            };
            debug_assert!(
                circuit.error(m) < RULE_TOL,
                "rule {label}/{name} drifted: {}",
                circuit.error(m)
            );
            KnownGate {
                gate: (*name).into(),
                matrix: m.clone(),
                circuit,
            }
        })
        .collect();
    ClassRule {
        label: label.into(),
        class: class.canonicalize(),
        core,
        core_target,
        gates,
    }
}

impl RuleSet {
    /// The standard rule table over [`GateSetRegistry::standard`].
    ///
    /// Coverage: the CNOT, CZ, and ECR target sets serve all four named
    /// classes (CX-family, iSWAP, SWAP, SQiSW); the SQiSW target set
    /// serves its own class, the CX family (two entanglers via the
    /// SQiSW-pair identity), and iSWAP (`E·E`). SWAP over SQiSW is not a
    /// rule: `SqiswBasis` builds its three-application circuit in closed
    /// form on every serve. The Continuous AshN sets have no rules (the
    /// pulse compiler *is* their fast path).
    pub fn standard() -> Self {
        let registry = GateSetRegistry::standard();
        let x = ashn_gates::pauli::Pauli::X.matrix();
        let cx_gates = [
            ("CX", cnot()),
            ("CX:rev", cnot_reversed()),
            ("CZ", cz()),
            ("ECR", ecr()),
            ("ECR:rev", ecr_reversed()),
        ];
        let iswap_gates = [("iSWAP", iswap())];
        let swap_gates = [("SWAP", swap())];
        let sqisw_gates = [("SQiSW", sqisw())];

        // Exact cores over the CNOT set; CZ and ECR reuse them through the
        // exact basis rewrites.
        let cx_core = bare("CNOT", cnot(), CZ_DURATION);
        let iswap_core = two_cnot_core(std::f64::consts::FRAC_PI_4, std::f64::consts::FRAC_PI_4);
        let swap_core = TwoQubitCircuit {
            phase: Complex::ONE,
            ops: vec![
                Op2::Entangler {
                    label: "CNOT".into(),
                    matrix: cnot(),
                    duration: CZ_DURATION,
                },
                Op2::Entangler {
                    label: "CNOT(rev)".into(),
                    matrix: cnot_reversed(),
                    duration: CZ_DURATION,
                },
                Op2::Entangler {
                    label: "CNOT".into(),
                    matrix: cnot(),
                    duration: CZ_DURATION,
                },
            ],
        };
        let sqisw_core = two_cnot_core(std::f64::consts::FRAC_PI_8, std::f64::consts::FRAC_PI_8);

        let cnot_family = |rewrite: &dyn Fn(TwoQubitCircuit) -> TwoQubitCircuit| {
            vec![
                class_rule(
                    "cx-class",
                    WeylPoint::CNOT,
                    rewrite(cx_core.clone()),
                    &cx_gates,
                ),
                class_rule(
                    "iswap-class",
                    WeylPoint::ISWAP,
                    rewrite(iswap_core.clone()),
                    &iswap_gates,
                ),
                class_rule(
                    "swap-class",
                    WeylPoint::SWAP,
                    rewrite(swap_core.clone()),
                    &swap_gates,
                ),
                class_rule(
                    "sqisw-class",
                    WeylPoint::SQISW,
                    rewrite(sqisw_core.clone()),
                    &sqisw_gates,
                ),
            ]
        };

        // SQiSW-pair → CX (exact): E·(X⊗I)·E·(X⊗I) = CAN(π/4, 0, 0).
        let cx_over_sqisw = TwoQubitCircuit {
            phase: Complex::ONE,
            ops: vec![
                Op2::L0(x.clone()),
                Op2::Entangler {
                    label: "SQiSW".into(),
                    matrix: sqisw(),
                    duration: SQISW_DURATION,
                },
                Op2::L0(x),
                Op2::Entangler {
                    label: "SQiSW".into(),
                    matrix: sqisw(),
                    duration: SQISW_DURATION,
                },
            ],
        };
        // iSWAP = SQiSW² (exact).
        let iswap_over_sqisw = TwoQubitCircuit {
            phase: Complex::ONE,
            ops: vec![
                Op2::Entangler {
                    label: "SQiSW".into(),
                    matrix: sqisw(),
                    duration: SQISW_DURATION,
                },
                Op2::Entangler {
                    label: "SQiSW".into(),
                    matrix: sqisw(),
                    duration: SQISW_DURATION,
                },
            ],
        };

        let key = |basis: &dyn Basis| (basis.name(), basis.cache_params());
        let rules = vec![
            (key(&CnotBasis), cnot_family(&|c| c)),
            (key(&CzBasis), cnot_family(&to_cz_basis)),
            (key(&EcrBasis), cnot_family(&to_ecr_basis)),
            (
                key(&SqiswBasis),
                vec![
                    class_rule(
                        "sqisw-class",
                        WeylPoint::SQISW,
                        bare("SQiSW", sqisw(), SQISW_DURATION),
                        &sqisw_gates,
                    ),
                    class_rule("cx-class", WeylPoint::CNOT, cx_over_sqisw, &cx_gates),
                    class_rule(
                        "iswap-class",
                        WeylPoint::ISWAP,
                        iswap_over_sqisw,
                        &iswap_gates,
                    ),
                ],
            ),
        ];
        Self { registry, rules }
    }

    /// The registry the rules were built over.
    pub fn registry(&self) -> &GateSetRegistry {
        &self.registry
    }

    /// Class rules served for the target set `(name, params)`.
    pub fn rules_for(&self, name: &str, params: &str) -> &[ClassRule] {
        self.rules
            .iter()
            .find(|((n, p), _)| n == name && p == params)
            .map_or(&[], |(_, r)| r.as_slice())
    }

    /// The rule covering canonical class `coords` for the target set, if
    /// any.
    pub fn class_rule(&self, name: &str, params: &str, coords: WeylPoint) -> Option<&ClassRule> {
        self.rules_for(name, params)
            .iter()
            .find(|r| r.class.gate_dist(coords) < CLASS_TOL)
    }

    /// The pre-dressed fragment realizing the exact gate `m` over the
    /// target set, if `m` is a known gate of a covered class.
    pub fn rewrite_exact(&self, m: &CMat, name: &str, params: &str) -> Option<&KnownGate> {
        if m.rows() != 4 || !m.is_square() {
            return None;
        }
        self.rules_for(name, params)
            .iter()
            .find_map(|r| r.match_gate(m))
    }

    /// Whether `m` is already a native entangler of the target set.
    pub fn is_native(&self, m: &CMat, name: &str, params: &str) -> bool {
        self.registry.is_native(m, name, params)
    }
}

/// The process-wide standard rule table, built once on first use.
pub fn standard_rules() -> Arc<RuleSet> {
    static RULES: OnceLock<Arc<RuleSet>> = OnceLock::new();
    RULES.get_or_init(|| Arc::new(RuleSet::standard())).clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_fragment_is_exact_at_1e12() {
        let rules = standard_rules();
        for ((name, params), _) in &rules.rules {
            for rule in rules.rules_for(name, params) {
                for g in &rule.gates {
                    let err = g.circuit.error(&g.matrix);
                    assert!(
                        err < RULE_TOL,
                        "{name}/{}/{}: error {err:.2e}",
                        rule.label,
                        g.gate
                    );
                }
                // The core itself realizes its advertised class.
                let realized = ashn_gates::kak::weyl_coordinates(&rule.core.unitary());
                assert!(
                    realized.canonicalize().gate_dist(rule.class) < 1e-9,
                    "{name}/{} core class drifted",
                    rule.label
                );
            }
        }
    }

    #[test]
    fn sqisw_pair_identity_realizes_the_cnot_class_exactly() {
        let rules = standard_rules();
        let rule = rules
            .class_rule("SQiSW", &SqiswBasis.cache_params(), WeylPoint::CNOT)
            .expect("cx-class over SQiSW");
        assert_eq!(rule.entanglers(), 2);
        let can = ashn_gates::two::canonical(std::f64::consts::FRAC_PI_4, 0.0, 0.0);
        assert!(rule.core.error(&can) < RULE_TOL);
        // And the pre-dressed CX fragment is exact with two entanglers.
        let g = rule.match_gate(&cnot()).unwrap();
        assert_eq!(g.circuit.entangler_count(), 2);
        assert!(g.circuit.error(&cnot()) < RULE_TOL);
    }

    #[test]
    fn swap_has_no_rule_over_sqisw() {
        let rules = standard_rules();
        let params = SqiswBasis.cache_params();
        assert!(rules
            .class_rule("SQiSW", &params, WeylPoint::SWAP)
            .is_none());
        assert!(rules.class_rule("CZ", "", WeylPoint::SWAP).is_some());
    }

    #[test]
    fn ashn_sets_have_no_rules() {
        let rules = standard_rules();
        let ashn = crate::basis::AshnBasis::ideal();
        assert!(rules
            .rules_for(&ashn.name(), &ashn.cache_params())
            .is_empty());
        assert!(rules
            .registry()
            .get(&ashn.name(), &ashn.cache_params())
            .is_some());
    }

    #[test]
    fn rule_entanglers_match_registry_expected_counts() {
        use super::super::registry::expected_count;
        let rules = standard_rules();
        for set in rules.registry().sets() {
            for rule in rules.rules_for(&set.name, &set.params) {
                assert_eq!(
                    rule.entanglers(),
                    expected_count(&set.metadata, rule.class),
                    "{}/{}",
                    set.name,
                    rule.label
                );
            }
        }
    }

    #[test]
    fn rewrite_exact_covers_the_cx_family_everywhere() {
        let rules = standard_rules();
        let targets: [&dyn Basis; 4] = [&CnotBasis, &CzBasis, &EcrBasis, &SqiswBasis];
        for target in targets {
            let (target, params) = (target.name(), target.cache_params());
            for (gate, m) in [("CX", cnot()), ("CZ", cz()), ("ECR", ecr())] {
                let g = rules
                    .rewrite_exact(&m, &target, &params)
                    .unwrap_or_else(|| panic!("{gate} over {target}"));
                assert!(g.circuit.error(&m) < RULE_TOL, "{gate} over {target}");
            }
        }
    }
}
