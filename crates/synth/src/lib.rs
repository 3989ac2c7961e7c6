//! # ashn-synth
//!
//! Quantum circuit synthesis for the AshN reproduction:
//!
//! * two-qubit synthesis over the CNOT/CZ basis (0–3 gates), the SQiSW
//!   basis (1–3 applications, after Huang et al. \[30\]), and the AshN basis
//!   (always a single pulse);
//! * cosine–sine decomposition and quantum multiplexors;
//! * quantum Shannon decomposition for n-qubit unitaries in both the CNOT
//!   and generic-`SU(4)` bases, with the paper's 11-gate three-qubit
//!   construction (Theorem 12) as the generic base case;
//! * a QFactor-style numerical instantiation optimizer used to regenerate
//!   the paper's Fig. 6 experiments.
//!
//! ## Example: one AshN pulse replaces three CNOTs
//!
//! ```
//! use ashn_core::scheme::AshnScheme;
//! use ashn_math::randmat::haar_unitary;
//! use ashn_synth::{ashn_basis::decompose_ashn, cnot_basis::decompose_cnot};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let u = haar_unitary(4, &mut rng);
//! assert_eq!(decompose_cnot(&u).entangler_count(), 3);
//! let s = decompose_ashn(&u, &AshnScheme::new(0.0)).unwrap();
//! assert_eq!(s.circuit.entangler_count(), 1);
//! ```

pub mod ashn_basis;
pub mod b_span;
pub mod basis;
pub mod cache;
pub mod circuit2;
pub mod cnot_basis;
pub mod counts;
pub mod csd;
pub mod instantiate;
pub mod multiplexor;
pub mod qsd;
pub mod resynth;
pub mod retarget;
pub mod sqisw_basis;
pub mod three_qubit;

pub use basis::{AshnBasis, CnotBasis, CzBasis, EcrBasis, SqiswBasis};
pub use cache::{
    serve_from_entry, CacheStats, CachedBasis, ClassEntry, ClassKey, ClassStore, Lookup, SynthCache,
};
pub use retarget::{standard_rules, GateSetRegistry, RuleSet};
