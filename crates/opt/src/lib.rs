//! # ashn-opt
//!
//! A DAG-based circuit optimizer that rewrites arbitrary circuits down to
//! minimal native form — the compiler-side realization of the paper's
//! claim that the AshN scheme subsumes the whole two-qubit gate zoo: if
//! *any* two-qubit block is one native gate, an optimizer should be
//! collecting blocks and re-emitting them as single gates.
//!
//! * [`DagCircuit`] — per-wire dependency edges over `ashn_ir::Circuit`,
//!   with commutation queries (via `ashn_ir::classify`) and a lossless
//!   round trip back to the linear IR.
//! * [`Pass`]/[`PassManager`] — fixed-point pass pipelines with
//!   gate-count/depth accounting and per-pass fire counts ([`OptStats`],
//!   [`PassStats`]).
//! * [`passes`] — adjacent single-qubit merge, global-phase folding,
//!   commutation-aware cancellation, and the headline
//!   [`passes::Resynthesize`]: maximal two-qubit runs gathered into one
//!   `SU(4)` target and re-emitted through any [`ashn_ir::Basis`]
//!   (KAK-canonicalized internally; nearly free for repeated Weyl classes
//!   when the basis is wrapped in `ashn_synth::cache::CachedBasis`).
//!
//! Both front ends (`ashn::Compiler::opt_level` and the service's
//! `CompileRequest::opt`) run these passes between routing and scheduling
//! at an [`OptLevel`]; the soundness contract — optimized circuits are
//! unitary-equivalent to their input with the global phase folded — is
//! enforced by the property suite in `crates/opt/tests`.
//!
//! ## Example
//!
//! ```
//! use ashn_ir::{Basis, Circuit};
//! use ashn_math::randmat::haar_unitary;
//! use ashn_opt::{standard_pipeline, PassManager};
//! use ashn_synth::basis::CzBasis;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // Two CZ-compiled gates on the same pair: 6 CZs that fuse to 3.
//! let mut rng = StdRng::seed_from_u64(5);
//! let mut circuit = Circuit::new(2);
//! for _ in 0..2 {
//!     let u = haar_unitary(4, &mut rng);
//!     circuit.append(CzBasis.synthesize(&u)?.fuse_single_qubit_runs())?;
//! }
//! let (optimized, stats) = standard_pipeline(CzBasis, 1e-6).run(&circuit)?;
//! assert_eq!(optimized.entangler_count(), 3);
//! assert_eq!(stats.before.two_qubit, 6);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod dag;
pub mod error;
pub mod pass;
pub mod passes;

pub use dag::{DagCircuit, NodeId};
pub use error::OptError;
pub use pass::{OptStats, Pass, PassManager, PassStats, Snapshot};
pub use passes::{CommuteCancel, Merge1q, PhaseFold, Resynthesize, Retarget};

use ashn_ir::Basis;

/// The structural (exact-rewrite) pipeline: adjacent single-qubit merge,
/// global-phase folding, and commutation-aware cancellation. Perturbs the
/// circuit unitary only at near-machine precision
/// ([`passes::EXACT_TOL`]).
pub fn structural_pipeline<'p>() -> PassManager<'p> {
    PassManager::new()
        .with_pass(Merge1q::default())
        .with_pass(PhaseFold::default())
        .with_pass(CommuteCancel::default())
}

/// Acceptance tolerance for resynthesized blocks in [`standard_pipeline`]
/// as both front ends run it: a replacement is committed only when its
/// realized unitary is within this Frobenius distance of the block it
/// replaces — the fidelity scale the numerical AshN pulse compilation
/// synthesizes to, so optimization never degrades fidelity below what
/// compilation already delivers.
pub const OPT_ACCEPT_TOL: f64 = 1e-5;

/// The full standard pipeline: the structural passes, closed-form
/// [`Retarget`]ing onto `basis` (exact rule rewrites of recognized
/// foreign gates — CX, CZ, ECR, SWAP, iSWAP, SQiSW), and finally
/// [`Resynthesize`] over `basis` for the blocks the rules do not cover,
/// accepting block replacements within `accept_tol` (Frobenius) of the
/// block unitary.
pub fn standard_pipeline<'p, B: Basis + 'p>(basis: B, accept_tol: f64) -> PassManager<'p> {
    let retarget = Retarget::new(&basis);
    structural_pipeline()
        .with_pass(retarget)
        .with_pass(Resynthesize::new(basis, accept_tol))
}

/// How hard a front end optimizes the routed circuit between routing and
/// scheduling. Both front ends take this one enum and build the pass
/// pipeline with [`OptLevel::pipeline`], each over its own basis:
///
/// * `ashn::Compiler` resynthesizes through its memo-cached basis (its
///   `ShardedCache`, with the closed-form rule tier armed);
/// * `ashn_service::CompileService` resynthesizes through its plain,
///   uncached basis, so each request stays a pure function of its inputs
///   (worker-count invariant). Repeated blocks are rare after routing, so
///   a cache would buy little there anyway.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum OptLevel {
    /// No optimization: the routed circuit is scheduled as assembled. This
    /// is the default in both front ends, preserving the historical
    /// pipeline output bit for bit.
    #[default]
    None,
    /// The [`structural_pipeline`] only: exact rewrites at near-machine
    /// precision.
    Light,
    /// The [`standard_pipeline`]: the structural passes, rule retargeting
    /// and two-qubit block resynthesis, accepting replacements within
    /// [`OPT_ACCEPT_TOL`].
    Standard,
}

impl OptLevel {
    /// The facade's former name for [`OptLevel::Standard`]; existing
    /// callers of `OptLevel::Default` compile unchanged.
    #[allow(non_upper_case_globals)]
    pub const Default: OptLevel = OptLevel::Standard;

    /// The pass pipeline for this level over `basis`, or `None` at
    /// [`OptLevel::None`].
    pub fn pipeline<'p, B: Basis + 'p>(self, basis: B) -> Option<PassManager<'p>> {
        match self {
            OptLevel::None => None,
            OptLevel::Light => Some(structural_pipeline()),
            OptLevel::Standard => Some(standard_pipeline(basis, OPT_ACCEPT_TOL)),
        }
    }
}
