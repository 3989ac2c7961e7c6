//! The native-gate-set synthesis interface.
//!
//! Each hardware-native two-qubit gate set (flux-tuned CZ, SQiSW, AshN, …)
//! implements [`Basis`]: given an arbitrary `SU(4)` target it produces a
//! two-qubit [`Circuit`] over its native entangler, or a [`SynthError`]
//! when its (possibly numerical) synthesis cannot. `ashn_qv::GateSet` is a
//! thin enum-to-`dyn Basis` dispatcher over the implementations in
//! `ashn-synth`; new bases (B-gate, iSWAP, …) are one `impl` away and slot
//! into routing, quantum-volume scoring, and the `ashn::Compiler` pipeline
//! unchanged.

use crate::circuit::Circuit;
use crate::error::SynthError;
use ashn_math::CMat;

/// The 4×4 SWAP matrix (local copy: `ashn-ir` sits below `ashn-gates`).
pub(crate) fn swap_matrix() -> CMat {
    CMat::from_rows_f64(&[
        &[1.0, 0.0, 0.0, 0.0],
        &[0.0, 0.0, 1.0, 0.0],
        &[0.0, 1.0, 0.0, 0.0],
        &[0.0, 0.0, 0.0, 1.0],
    ])
}

/// Weyl-equivalence category of a gate set's native entangler.
///
/// This is the instruction-set classification used by retargeting: gate
/// sets whose entanglers share a category are related by closed-form local
/// dressings (CX ↔ CZ ↔ ECR), and cross-category constructions (SWAP from
/// 3×CX, CX from an SQiSW pair) are exact table entries. The categories
/// drive both the rule tier (`ashn_synth::retarget`) and analytic
/// entangler-count prediction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WeylCategory {
    /// The CNOT family — CX, CZ, ECR: canonical class `(π/4, 0, 0)`.
    Cnot,
    /// The iSWAP family: canonical class `(π/4, π/4, 0)`.
    Iswap,
    /// The `√iSWAP` family: canonical class `(π/8, π/8, 0)`.
    Sqisw,
    /// Continuous schemes that realize every Weyl class in a single native
    /// pulse (the paper's AshN instruction).
    Continuous,
    /// Anything else; counts fall back to [`EntanglerCounts`] buckets.
    Other,
}

/// Expected native-entangler counts by coarse target-class kind.
///
/// The buckets mirror the analytic count theorems: the identity class, the
/// CNOT class `(π/4, 0, 0)`, "flat" classes with `z = 0` (reachable in two
/// applications for CNOT-family sets), and everything else.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EntanglerCounts {
    /// Entanglers for the identity class.
    pub identity: usize,
    /// Entanglers for the CNOT class `(π/4, 0, 0)`.
    pub cnot: usize,
    /// Entanglers for non-trivial classes with `z ≈ 0`.
    pub flat: usize,
    /// Entanglers for a generic (full-chamber) class.
    pub generic: usize,
}

/// Static per-[`Basis`] instruction-set metadata for the retargeting
/// registry (`ashn_synth::retarget::GateSetRegistry`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BasisMetadata {
    /// Canonical Weyl coordinates `(x, y, z)` of the fixed native
    /// entangler. All zeros for [`WeylCategory::Continuous`] sets, whose
    /// pulse realizes any class directly.
    pub weyl: [f64; 3],
    /// Local-equivalence family of the entangler.
    pub category: WeylCategory,
    /// Analytic entangler counts per target-class bucket.
    pub counts: EntanglerCounts,
    /// Native entangler duration in `1/g` units; for
    /// [`WeylCategory::Continuous`] sets this is the worst-case
    /// (SWAP-class) pulse time.
    pub duration: f64,
}

/// Search-effort hints for [`Basis::synthesize_with_effort`].
///
/// The default value (`attempt = 0`) asks for the basis's normal
/// synthesis; retry layers raise `attempt` on each re-try so bases with a
/// numerical search can widen it (e.g. AshN's EA escalation rounds). Bases
/// without a numerical search ignore the hint entirely.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SynthEffort {
    /// Zero-based retry attempt; attempt `k > 0` should search wider than
    /// attempt `k − 1`, deterministically.
    pub attempt: u32,
}

/// A native two-qubit gate set with per-basis synthesis rules.
pub trait Basis {
    /// Short display name (e.g. `"CZ"`, `"SQiSW"`, `"AshN(r=1.1)"`).
    fn name(&self) -> String;

    /// Scheme parameters that change synthesized circuits without changing
    /// the display name — the cache discriminator.
    ///
    /// Synthesis caches (`ashn_synth::cache`, the `ashn-service` sharded
    /// persistent cache) key entries by `(name, cache_params, Weyl class)`;
    /// two instances whose `name` and `cache_params` both match are
    /// promised to synthesize bit-identical circuits for the same target.
    /// Parameterized bases must override this with every parameter that
    /// affects output (e.g. AshN's `ZZ` ratio `h̃` and cutoff `r`);
    /// parameter-free bases keep the empty default.
    fn cache_params(&self) -> String {
        String::new()
    }

    /// Compiles an arbitrary two-qubit unitary into a circuit on qubits
    /// `{0, 1}` whose entanglers are all native to this basis.
    ///
    /// # Errors
    ///
    /// [`SynthError`] when synthesis fails (numerical non-convergence,
    /// pulse-compiler rejection, malformed target).
    fn synthesize(&self, u: &CMat) -> Result<Circuit, SynthError>;

    /// [`Basis::synthesize`] with explicit search effort. The default
    /// implementation ignores the hint (correct for closed-form bases,
    /// whose synthesis cannot fail numerically); bases with a numerical
    /// search should widen their multistart for `effort.attempt > 0`.
    ///
    /// The cache-coherence contract: for any effort, a success must
    /// realize the same target (caches may store circuits produced at any
    /// attempt under the same class key).
    ///
    /// # Errors
    ///
    /// Same as [`Basis::synthesize`].
    fn synthesize_with_effort(&self, u: &CMat, effort: SynthEffort) -> Result<Circuit, SynthError> {
        let _ = effort;
        self.synthesize(u)
    }

    /// The compiled SWAP, used by routing. The default synthesizes the SWAP
    /// matrix; bases with a cheaper native SWAP (AshN's single `3π/4`
    /// pulse arises automatically; an iSWAP-like basis might override).
    ///
    /// # Errors
    ///
    /// Propagates [`SynthError`] from synthesis.
    fn native_swap(&self) -> Result<Circuit, SynthError> {
        self.synthesize(&swap_matrix())
    }

    /// Number of native entanglers this basis needs for the class of `u`
    /// (the analytic count; [`Basis::synthesize`] is expected to achieve
    /// it).
    fn expected_entanglers(&self, u: &CMat) -> usize;

    /// Instruction-set metadata for the retargeting registry: the native
    /// entangler's canonical Weyl coordinates, its [`WeylCategory`], the
    /// analytic per-class entangler counts, and the entangler duration.
    ///
    /// `None` (the default) means "unclassified": the rule tier skips the
    /// basis entirely and consumers fall back to
    /// [`Basis::expected_entanglers`]. Bases that override this get
    /// registry-driven entangler-count prediction and, when their `name` /
    /// `cache_params` match a registered rule table, closed-form
    /// retargeting ahead of numeric synthesis.
    fn metadata(&self) -> Option<BasisMetadata> {
        None
    }
}

impl<B: Basis + ?Sized> Basis for &B {
    fn name(&self) -> String {
        (**self).name()
    }
    fn cache_params(&self) -> String {
        (**self).cache_params()
    }
    fn synthesize(&self, u: &CMat) -> Result<Circuit, SynthError> {
        (**self).synthesize(u)
    }
    fn synthesize_with_effort(&self, u: &CMat, effort: SynthEffort) -> Result<Circuit, SynthError> {
        (**self).synthesize_with_effort(u, effort)
    }
    fn native_swap(&self) -> Result<Circuit, SynthError> {
        (**self).native_swap()
    }
    fn expected_entanglers(&self, u: &CMat) -> usize {
        (**self).expected_entanglers(u)
    }
    fn metadata(&self) -> Option<BasisMetadata> {
        (**self).metadata()
    }
}

impl Basis for Box<dyn Basis> {
    fn name(&self) -> String {
        (**self).name()
    }
    fn cache_params(&self) -> String {
        (**self).cache_params()
    }
    fn synthesize(&self, u: &CMat) -> Result<Circuit, SynthError> {
        (**self).synthesize(u)
    }
    fn synthesize_with_effort(&self, u: &CMat, effort: SynthEffort) -> Result<Circuit, SynthError> {
        (**self).synthesize_with_effort(u, effort)
    }
    fn native_swap(&self) -> Result<Circuit, SynthError> {
        (**self).native_swap()
    }
    fn expected_entanglers(&self, u: &CMat) -> usize {
        (**self).expected_entanglers(u)
    }
    fn metadata(&self) -> Option<BasisMetadata> {
        (**self).metadata()
    }
}
