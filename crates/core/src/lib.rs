//! # ashn-core
//!
//! The AshN gate scheme (paper's primary contribution): a single physical
//! control scheme — resonant microwave drives with square envelopes on two
//! `XX+YY`-coupled qubits — that realizes **any** two-qubit gate up to
//! single-qubit corrections, in provably optimal time, with built-in
//! immunity to parasitic `ZZ` coupling.
//!
//! The main entry point is [`scheme::AshnScheme`]:
//!
//! ```
//! use ashn_core::scheme::AshnScheme;
//! use ashn_gates::weyl::WeylPoint;
//!
//! // A device with h = 0.2·g of parasitic ZZ coupling and a drive-strength
//! // cutoff r = 1.1 (paper §6.1's "physically feasible" setting... r must
//! // satisfy r ≤ (1−|h̃|)π/2).
//! let scheme = AshnScheme::with_cutoff(0.2, 1.1);
//! let pulse = scheme.compile(WeylPoint::B)?;
//! assert!(pulse.coordinate_error() < 1e-7);
//! # Ok::<(), ashn_core::scheme::CompileError>(())
//! ```
pub mod avg_time;
pub mod classes;
/// Deterministic fault injection (see [`ashn_math::fault`]): the registry
/// lives at the bottom of the crate graph so eigendecomposition sites can
/// share it, but `ashn_core::fault` is the canonical path.
pub mod fault {
    pub use ashn_math::fault::*;
}
pub mod ea;
pub mod hamiltonian;
pub mod nd;
/// The deterministic worker pool (see [`ashn_math::par`]): it lives in
/// `ashn-math` so `ashn_sim::BatchRunner` runs on the same pool, and
/// `ashn_core::par` keeps the path `CompileService` uses.
pub mod par {
    pub use ashn_math::par::*;
}
pub mod regions;
pub mod scheme;
pub mod verify;
pub mod zz;

pub use hamiltonian::{evolve, evolve4, hamiltonian, hamiltonian4, DriveParams};
pub use scheme::{AshnPulse, AshnScheme, CompileError, SubScheme};
pub mod families;
pub mod phase;
