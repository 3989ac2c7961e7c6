//! The rule tier's serve: a pure function of the target, shared by both
//! front ends. `CachedBasis` and `ashn-service`'s `CompileService` consult
//! it ahead of the Weyl memo-cache; neither stores what it returns, so a
//! rule serve never depends on what was served before it.

use super::rules::RuleSet;
use crate::cache::serve_from_entry;
use ashn_gates::weyl::WeylPoint;
use ashn_ir::{Basis, Circuit};
use ashn_math::CMat;

impl RuleSet {
    /// Serves a synthesis request for `u` (canonical class `coords`) over
    /// `basis` from the rule table, if the table has a rule covering the
    /// class for that target set.
    ///
    /// An exact known-gate match returns its pre-dressed fragment verbatim;
    /// any other member of a covered class gets the rule's exact core,
    /// re-dressed to `u` by the memo-cache's serve logic
    /// ([`serve_from_entry`]). Nothing is read from a store or written to
    /// one, and the numeric path — memo-cache, basis synthesis, EA —
    /// never runs.
    ///
    /// Returns `None` when no rule covers the class (or the rule's core
    /// drifted, which the standard table's exactness tests exclude): the
    /// caller falls through to the numeric tiers.
    pub fn serve(
        &self,
        basis: &(impl Basis + ?Sized),
        u: &CMat,
        coords: WeylPoint,
    ) -> Option<Circuit> {
        let rule = self.class_rule(&basis.name(), &basis.cache_params(), coords)?;
        if let Some(gate) = rule.match_gate(u) {
            return Some(gate.circuit.clone().into());
        }
        serve_from_entry(u, coords, &rule.core_entry()).map(|(circuit, _)| circuit)
    }
}

#[cfg(test)]
mod tests {
    use super::super::rules::standard_rules;
    use crate::basis::CzBasis;
    use crate::cache::CachedBasis;
    use ashn_gates::two::cnot;
    use ashn_ir::Basis;

    #[test]
    fn rule_serves_record_rule_hits_only() {
        let cached = CachedBasis::new(CzBasis).with_rules(standard_rules());
        let u = cnot();
        for _ in 0..3 {
            let c = cached.synthesize(&u).expect("cx-class rule over CZ");
            assert!(c.error(&u) < 1e-12);
        }
        let stats = cached.cache().stats();
        assert_eq!(stats.rule_hits, 3);
        assert_eq!(
            (stats.exact_hits, stats.class_hits, stats.misses, stats.len),
            (0, 0, 0, 0)
        );
    }
}
