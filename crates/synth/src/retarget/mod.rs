//! Rule-based instruction-set retargeting: the closed-form tier 0 of the
//! synthesis stack.
//!
//! Production traffic is dominated by circuits expressed over a *known*
//! gate set (CX, CZ, ECR, SQiSW, …) being compiled to hardware exposing
//! another known set. For those pairs the full synthesis path — KAK and
//! re-dressing for CNOT/CZ/SQiSW, the AshN EA pulse compilation — is
//! overkill: the gates are Weyl-equivalent (or related by a classic exact
//! construction) and the retargeting is a table lookup emitting an exact
//! circuit fragment.
//!
//! This module provides that table:
//!
//! - [`GateSetRegistry`] — per-[`ashn_ir::Basis`] metadata (canonical Weyl
//!   coordinates of the entangler, its [`ashn_ir::WeylCategory`], analytic
//!   entangler counts per class, duration), populated from the new
//!   [`ashn_ir::Basis::metadata`] hook, plus each set's native entangler
//!   vocabulary.
//! - [`RuleSet`] — closed-form transforms: local-dressing rules within a
//!   Weyl category (CX ↔ CZ ↔ ECR), and exact cross-category
//!   constructions (SWAP/iSWAP from 3×/2×CX, CZ from CX + Hadamard
//!   dressing, the SQiSW-pair → CX identity). Every rule emits an exact
//!   `TwoQubitCircuit` fragment; no numeric optimization runs.
//! - [`RuleSet::serve`] — the one rule serve: `CachedBasis` and the
//!   service's `CompileService` consult it *before* the Weyl memo-cache
//!   and the EA path, recording `Lookup::RuleHit`. It is a pure function
//!   of the target: nothing it emits is cached, so a rule serve never
//!   depends on what was served before it.
//!
//! The `ashn-opt` `Retarget` pass rewrites whole circuits between
//! registered sets ahead of `Resynthesize` using the same tables.

pub mod registry;
pub mod rules;
mod tier;

pub use registry::{
    expected_count, expected_entanglers_for, GateSetRegistry, NativeGate, RegisteredSet,
};
pub use rules::{standard_rules, ClassRule, KnownGate, RuleSet, RULE_TOL};
