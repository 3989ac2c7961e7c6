//! Compiled execution plans: ahead-of-time specialization of a circuit (and
//! its noise annotations) into a flat stream of pre-classified kernel ops.
//!
//! The instruction walk ([`crate::engine::SimEngine::run_pure_walk`] /
//! [`crate::engine::SimEngine::run_trajectory_walk`]) re-does per gate, per
//! run, work that depends only on the circuit: it chases a heap [`CMat`](ashn_math::CMat)
//! behind every [`Instruction`], re-detects the kernel case
//! (diagonal / controlled-phase / dense) inside `apply_gate`, re-resolves
//! the depolarizing rate from the noise model, and injects trajectory
//! Paulis through the generic dense path. For Monte-Carlo ensembles that
//! walk the same circuit thousands of times this overhead dominates the
//! actual kernel arithmetic on small registers.
//!
//! [`ExecPlan::build`] pays all of it **once**: each [`PlanOp`] is a `Copy`
//! value carrying a pre-classified [`KernelOp`] (opcode + matrix inlined as
//! a stack [`Mat2`]/[`Mat4`], bit positions precomputed) and the
//! already-resolved depolarizing rate. Plan construction also fuses runs of
//! noiseless single-qubit gates per wire and absorbs them into adjacent
//! two-qubit ops where the noise annotations permit (a gate participates in
//! fusion only when its resolved rate is exactly zero, so the trajectory
//! RNG stream is identical to the instruction walk's — same draws, same
//! order). Fusion also extends beyond 1q runs: adjacent same-pair 2q ops
//! collapse into one [`Mat4`], including across in-between zero-rate
//! diagonal ops, which commute (see [`ExecPlan::build_with`]). Execution
//! injects trajectory Paulis through the dedicated bit-twiddled kernels
//! in [`ashn_ir::kernels`], never touching a `CMat` — and on large
//! registers the `*_chunked` executors split every op's amplitude sweep
//! across the worker pool ([`crate::chunk`]), bit-identically to the
//! scalar path.
//!
//! The instruction walk remains the differential reference:
//! `crates/sim/tests/plan_differential.rs` pins plan execution against it
//! at `1e-12` (bit-identically when nothing fuses).
//!
//! # Examples
//!
//! ```
//! use ashn_ir::{Circuit, Instruction};
//! use ashn_math::CMat;
//! use ashn_sim::{ExecPlan, SimEngine};
//!
//! let h = CMat::from_rows_f64(&[
//!     &[std::f64::consts::FRAC_1_SQRT_2, std::f64::consts::FRAC_1_SQRT_2],
//!     &[std::f64::consts::FRAC_1_SQRT_2, -std::f64::consts::FRAC_1_SQRT_2],
//! ]);
//! let mut circuit = Circuit::new(1);
//! circuit.push(Instruction::new(vec![0], h, "H"));
//! let plan = ExecPlan::pure(&circuit).unwrap();
//! let mut engine = SimEngine::new(1);
//! let p = engine.run_plan(&plan).probabilities();
//! assert!((p[0] - 0.5).abs() < 1e-12);
//! ```

use crate::chunk::run_chunked;
use crate::circuit::NoiseModel;
use crate::state::MAX_QUBITS;
use ashn_ir::kernels::{
    apply_cphase_range, apply_dense_1q_range, apply_dense_2q_range, apply_diag_1q_range,
    apply_diag_2q_range, apply_pauli_x_range, apply_pauli_y_range, apply_pauli_z_range,
    diagonal_of_1q, diagonal_of_2q, pauli_of_1q, Pauli,
};
use ashn_ir::{Circuit, Instruction};
use ashn_math::{Complex, Mat2, Mat4};
use rand::Rng;
use std::fmt;

/// Why a circuit could not be compiled to an [`ExecPlan`]. Callers fall
/// back to the instruction walk (the high-level entry points in this crate
/// do so automatically).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// A gate acts on three or more qubits; only the specialized 1q/2q
    /// kernels have plan opcodes.
    UnsupportedArity {
        /// Arity of the offending gate.
        qubits: usize,
    },
    /// The register size is outside the supported
    /// `1..=`[`MAX_QUBITS`] range.
    RegisterOutOfRange {
        /// The offending register size.
        n: usize,
    },
    /// An instruction references a wire outside the circuit register.
    /// `Circuit::push` maintains this invariant, but the instruction list
    /// is a public field, so hand-assembled circuits can violate it; the
    /// plan compiler reports it instead of panicking on bit arithmetic.
    WireOutOfRange {
        /// The offending wire index.
        qubit: usize,
        /// Register size.
        n: usize,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::UnsupportedArity { qubits } => {
                write!(f, "no plan opcode for a {qubits}-qubit gate (max 2)")
            }
            PlanError::RegisterOutOfRange { n } => {
                write!(
                    f,
                    "register size {n} outside the supported 1..={MAX_QUBITS} range"
                )
            }
            PlanError::WireOutOfRange { qubit, n } => {
                write!(
                    f,
                    "instruction wire {qubit} out of range for a {n}-qubit register"
                )
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// One pre-classified kernel invocation. Bit positions (`p = n − 1 − qubit`)
/// and matrices are precomputed at plan build; applying an op is a direct
/// dispatch into the matching `*_at` kernel of [`ashn_ir::kernels`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KernelOp {
    /// Dense single-qubit unitary at bit position `p`.
    Dense1q {
        /// Bit position of the target qubit.
        p: u8,
        /// The unitary, inlined on the stack.
        m: Mat2,
    },
    /// Diagonal single-qubit gate (Rz-like) at bit position `p`.
    Diag1q {
        /// Bit position of the target qubit.
        p: u8,
        /// `|0⟩` diagonal entry.
        d0: Complex,
        /// `|1⟩` diagonal entry.
        d1: Complex,
    },
    /// Dense two-qubit unitary at bit positions `(p0, p1)` (`p0` = high
    /// matrix bit).
    Dense2q {
        /// Bit position of the gate's first (high) qubit.
        p0: u8,
        /// Bit position of the gate's second (low) qubit.
        p1: u8,
        /// The unitary, inlined on the stack.
        m: Mat4,
    },
    /// Diagonal two-qubit gate (ZZ-like) at bit positions `(p0, p1)`.
    Diag2q {
        /// Bit position of the gate's first (high) qubit.
        p0: u8,
        /// Bit position of the gate's second (low) qubit.
        p1: u8,
        /// The diagonal entries.
        d: [Complex; 4],
    },
    /// Controlled-phase gate (diag `[1, 1, 1, phase]`, e.g. CZ).
    CPhase {
        /// Bit position of the gate's first (high) qubit.
        p0: u8,
        /// Bit position of the gate's second (low) qubit.
        p1: u8,
        /// Phase multiplying the `|11⟩` subspace.
        phase: Complex,
    },
    /// Pauli `X` at bit position `p` (pure amplitude swaps).
    PauliX {
        /// Bit position of the target qubit.
        p: u8,
    },
    /// Pauli `Y` at bit position `p` (component shuffles).
    PauliY {
        /// Bit position of the target qubit.
        p: u8,
    },
    /// Pauli `Z` at bit position `p` (sign flips on the set-bit half).
    PauliZ {
        /// Bit position of the target qubit.
        p: u8,
    },
}

impl KernelOp {
    /// Size of the op's compressed index space over `len` amplitudes: the
    /// pair space (`len / 2`) for single-qubit ops, the quad space
    /// (`len / 4`) for two-qubit ops. Chunked execution partitions this
    /// space — disjoint compressed ranges touch disjoint amplitudes.
    #[inline]
    fn index_space(&self, len: usize) -> usize {
        match self {
            KernelOp::Dense1q { .. }
            | KernelOp::Diag1q { .. }
            | KernelOp::PauliX { .. }
            | KernelOp::PauliY { .. }
            | KernelOp::PauliZ { .. } => len >> 1,
            KernelOp::Dense2q { .. } | KernelOp::Diag2q { .. } | KernelOp::CPhase { .. } => {
                len >> 2
            }
        }
    }

    /// Applies the op over the compressed index range `lo..hi`.
    #[inline]
    fn apply_range(&self, amps: &mut [Complex], lo: usize, hi: usize) {
        match self {
            KernelOp::Dense1q { p, m } => apply_dense_1q_range(amps, *p as usize, m, lo, hi),
            KernelOp::Diag1q { p, d0, d1 } => {
                apply_diag_1q_range(amps, *p as usize, *d0, *d1, lo, hi)
            }
            KernelOp::Dense2q { p0, p1, m } => {
                apply_dense_2q_range(amps, *p0 as usize, *p1 as usize, m, lo, hi)
            }
            KernelOp::Diag2q { p0, p1, d } => {
                apply_diag_2q_range(amps, *p0 as usize, *p1 as usize, *d, lo, hi)
            }
            KernelOp::CPhase { p0, p1, phase } => {
                apply_cphase_range(amps, *p0 as usize, *p1 as usize, *phase, lo, hi)
            }
            KernelOp::PauliX { p } => apply_pauli_x_range(amps, *p as usize, lo, hi),
            KernelOp::PauliY { p } => apply_pauli_y_range(amps, *p as usize, lo, hi),
            KernelOp::PauliZ { p } => apply_pauli_z_range(amps, *p as usize, lo, hi),
        }
    }

    /// Applies the op to raw amplitudes, scalar (full range, one thread).
    #[inline]
    fn apply(&self, amps: &mut [Complex]) {
        self.apply_range(amps, 0, self.index_space(amps.len()));
    }

    /// Applies the op across `workers` threads of the worker pool over the
    /// fixed chunk grid — bit-identical to [`KernelOp::apply`] at any
    /// worker count.
    #[inline]
    fn apply_chunked(&self, amps: &mut [Complex], workers: usize) {
        let space = self.index_space(amps.len());
        run_chunked(amps, space, workers, |a, lo, hi| {
            self.apply_range(a, lo, hi)
        });
    }
}

/// One op of the compiled stream: the kernel plus its noise-resolved
/// depolarizing rate and the bit positions trajectory Paulis are injected
/// at (in source-gate qubit order, so the RNG stream matches the walk).
#[derive(Clone, Copy, Debug)]
pub struct PlanOp {
    /// The pre-classified kernel.
    pub kernel: KernelOp,
    /// Depolarizing probability applied after the op, already resolved
    /// against the noise model at build time.
    pub rate: f64,
    noise_pos: [u8; 2],
    noise_arity: u8,
}

impl PlanOp {
    /// Bit positions of the source gate's qubits, in gate order — the sites
    /// trajectory noise is injected at.
    pub fn noise_positions(&self) -> &[u8] {
        &self.noise_pos[..self.noise_arity as usize]
    }
}

/// A circuit compiled, together with a noise model, into a flat stream of
/// `Copy` ops: kernels pre-classified, matrices inlined, bit masks and
/// depolarizing rates precomputed, noiseless single-qubit runs fused.
#[derive(Clone, Debug)]
pub struct ExecPlan {
    n: usize,
    phase: Complex,
    ops: Vec<PlanOp>,
    source_gates: usize,
}

/// A 1q/2q op under construction: fusion works on the stack matrices, and
/// classification into [`KernelOp`]s happens once the stream is final.
enum Staged {
    One {
        q: usize,
        m: Mat2,
        rate: f64,
    },
    Two {
        q0: usize,
        q1: usize,
        m: Mat4,
        rate: f64,
    },
}

impl ExecPlan {
    /// Compiles `circuit` against `noise` (per-gate explicit rates override
    /// the model's per-arity defaults, exactly as in
    /// [`crate::circuit::NoiseModel`]).
    ///
    /// # Errors
    ///
    /// [`PlanError::UnsupportedArity`] when a gate acts on ≥ 3 qubits,
    /// [`PlanError::RegisterOutOfRange`] outside `1..=`[`MAX_QUBITS`]
    /// qubits.
    pub fn build(circuit: &Circuit, noise: &NoiseModel) -> Result<Self, PlanError> {
        Self::build_with(circuit, |g| noise.rate_for(g))
    }

    /// Compiles `circuit` with every rate resolved to zero — the plan for
    /// noiseless (pure) execution, with maximal single-qubit fusion.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ExecPlan::build`].
    pub fn pure(circuit: &Circuit) -> Result<Self, PlanError> {
        Self::build_with(circuit, |_| 0.0)
    }

    /// Compiles `circuit` with `rate_of` resolving each instruction's
    /// depolarizing rate — the general entry point external noise models
    /// (e.g. the quantum-volume duration-proportional schedule) use to
    /// avoid materializing an annotated copy of the circuit.
    ///
    /// A gate joins single-qubit fusion only when its resolved rate is
    /// exactly `0.0`: fused gates draw no randomness and suffer no noise
    /// event in the walk either, so the trajectory RNG stream is preserved
    /// draw for draw.
    ///
    /// Beyond 1q runs, two-qubit fusion collapses an earlier **zero-rate**
    /// 2q op on the same wire pair into an incoming 2q gate whenever the
    /// earlier op commutes forward to the incoming gate's position:
    /// in-between ops touching neither wire always commute, and in-between
    /// *zero-rate diagonal* ops on a shared wire commute when the earlier
    /// op is itself diagonal (diagonals commute among themselves — the
    /// same computational-basis structure [`ashn_ir::classify`] keys
    /// commutation checks on). The combined op is staged at the incoming
    /// gate's position with the incoming gate's rate, so every noise draw
    /// keeps its place in the RNG stream: only draw-free ops ever move.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ExecPlan::build`].
    pub fn build_with(
        circuit: &Circuit,
        rate_of: impl Fn(&Instruction) -> f64,
    ) -> Result<Self, PlanError> {
        let _span = ashn_telemetry::span!("sim.plan.build");
        let n = circuit.n_qubits();
        if !(1..=MAX_QUBITS).contains(&n) {
            return Err(PlanError::RegisterOutOfRange { n });
        }
        // Fused-away 2q ops leave a `None` tombstone so `absorber` indices
        // stay stable.
        let mut staged: Vec<Option<Staged>> = Vec::with_capacity(circuit.gates().len());
        // Per wire: the product of noiseless 1q gates not yet attached to an
        // op (applied-first on the right), and the index/side of the trailing
        // zero-rate 2q op that is still the wire's most recent toucher (the
        // target trailing noiseless 1q gates are absorbed into).
        let mut pending: Vec<Option<Mat2>> = vec![None; n];
        let mut absorber: Vec<Option<(usize, bool)>> = vec![None; n];
        for g in circuit.gates() {
            if let Some(&q) = g.qubits.iter().find(|&&q| q >= n) {
                return Err(PlanError::WireOutOfRange { qubit: q, n });
            }
            let rate = rate_of(g);
            match g.qubits[..] {
                [q] => {
                    let m = Mat2::try_from(&g.matrix).expect("1q instruction carries a 2x2 matrix");
                    let m = match pending[q].take() {
                        Some(prev) => m.matmul(&prev),
                        None => m,
                    };
                    if rate > 0.0 {
                        staged.push(Some(Staged::One { q, m, rate }));
                        absorber[q] = None;
                    } else {
                        pending[q] = Some(m);
                    }
                }
                [q0, q1] => {
                    let mut m =
                        Mat4::try_from(&g.matrix).expect("2q instruction carries a 4x4 matrix");
                    if let Some(u) = pending[q0].take() {
                        m = m.matmul(&u.kron(&Mat2::identity()));
                    }
                    if let Some(u) = pending[q1].take() {
                        m = m.matmul(&Mat2::identity().kron(&u));
                    }
                    // Same-pair fusion: collapse an earlier zero-rate 2q op
                    // on {q0, q1} that commutes forward to this position.
                    // The combined op is staged *here*, in this gate's wire
                    // order and with this gate's rate, so a noise draw of
                    // this gate keeps its place in the RNG stream (the
                    // fused-away op was draw-free).
                    if let Some(prev_idx) = find_fusable_2q(&staged, q0, q1) {
                        if let Some(Staged::Two { q0: a0, m: pm, .. }) = staged[prev_idx].take() {
                            let prev = if a0 == q0 { pm } else { swap_conjugate(&pm) };
                            m = m.matmul(&prev);
                        }
                    }
                    let idx = staged.len();
                    staged.push(Some(Staged::Two { q0, q1, m, rate }));
                    let eligible = rate <= 0.0;
                    absorber[q0] = eligible.then_some((idx, true));
                    absorber[q1] = eligible.then_some((idx, false));
                }
                _ => {
                    return Err(PlanError::UnsupportedArity {
                        qubits: g.qubits.len(),
                    })
                }
            }
        }
        // Flush trailing noiseless 1q runs: absorb into the wire's last
        // zero-rate 2q op when nothing touched the wire since (sound because
        // disjoint-wire ops and the absorbed unitary commute, and no noise
        // event separates them); otherwise emit a standalone zero-rate op.
        for q in 0..n {
            if let Some(u) = pending[q].take() {
                match absorber[q] {
                    Some((idx, high)) => {
                        if let Some(Staged::Two { m, .. }) = &mut staged[idx] {
                            let e = if high {
                                u.kron(&Mat2::identity())
                            } else {
                                Mat2::identity().kron(&u)
                            };
                            *m = e.matmul(m);
                        }
                    }
                    None => staged.push(Some(Staged::One { q, m: u, rate: 0.0 })),
                }
            }
        }
        let ops = staged
            .into_iter()
            .flatten()
            .map(|s| classify(n, s))
            .collect();
        Ok(Self {
            n,
            phase: circuit.phase,
            ops,
            source_gates: circuit.gates().len(),
        })
    }

    /// Register size the plan was compiled for.
    pub fn n_qubits(&self) -> usize {
        self.n
    }

    /// Global phase of the source circuit.
    pub fn phase(&self) -> Complex {
        self.phase
    }

    /// The compiled op stream.
    pub fn ops(&self) -> &[PlanOp] {
        &self.ops
    }

    /// Number of instructions in the source circuit (≥ [`ExecPlan::ops`]'s
    /// length; the difference is what fusion absorbed).
    pub fn source_gates(&self) -> usize {
        self.source_gates
    }

    /// `true` when no op carries a nonzero depolarizing rate (trajectory
    /// execution then never draws randomness).
    pub fn is_noiseless(&self) -> bool {
        self.ops.iter().all(|op| op.rate <= 0.0)
    }

    /// Executes the plan without noise on raw amplitudes (any normalized
    /// initial state; [`crate::engine::SimEngine::run_plan`] drives this
    /// from `phase·|0…0⟩`).
    ///
    /// # Panics
    ///
    /// Panics when `amps` does not match the plan's register dimension.
    pub fn execute_pure(&self, amps: &mut [Complex]) {
        self.execute_pure_chunked(amps, 1);
    }

    /// [`ExecPlan::execute_pure`] with each op's amplitude sweep split
    /// across `workers` threads of the worker pool over the fixed chunk
    /// grid ([`crate::ChunkPolicy`]) — bit-identical to the scalar path at
    /// any worker count.
    ///
    /// # Panics
    ///
    /// Panics when `amps` does not match the plan's register dimension.
    pub fn execute_pure_chunked(&self, amps: &mut [Complex], workers: usize) {
        assert_eq!(amps.len(), 1usize << self.n, "dimension mismatch");
        if workers <= 1 {
            for op in &self.ops {
                op.kernel.apply(amps);
            }
            return;
        }
        // The multi-worker path only runs on large registers (ms-scale
        // sweeps), so one bulk add per execute is free; the scalar path
        // above — the per-trajectory hot loop — stays untouched.
        let telemetry = ashn_telemetry::current();
        telemetry.add("sim.exec.chunked", 1);
        telemetry.add("sim.exec.chunked_ops", self.ops.len() as u64);
        for op in &self.ops {
            op.kernel.apply_chunked(amps, workers);
        }
    }

    /// Executes one stochastic trajectory: after each op, with its resolved
    /// probability, a uniformly random Pauli (identity included) is drawn
    /// per touched qubit and injected through the bit-twiddled kernels.
    /// The draw sequence is identical to
    /// [`crate::engine::SimEngine::run_trajectory_walk`]'s.
    ///
    /// # Panics
    ///
    /// Panics when `amps` does not match the plan's register dimension.
    pub fn execute_trajectory(&self, amps: &mut [Complex], rng: &mut impl Rng) {
        self.execute_trajectory_chunked(amps, rng, 1);
    }

    /// [`ExecPlan::execute_trajectory`] with amplitude sweeps split across
    /// `workers` threads of the worker pool. All randomness is drawn on the
    /// calling thread between ops, so the draw sequence — and, by chunked
    /// determinism, the resulting state — is bit-identical to the scalar
    /// path at any worker count.
    ///
    /// # Panics
    ///
    /// Panics when `amps` does not match the plan's register dimension.
    pub fn execute_trajectory_chunked(
        &self,
        amps: &mut [Complex],
        rng: &mut impl Rng,
        workers: usize,
    ) {
        assert_eq!(amps.len(), 1usize << self.n, "dimension mismatch");
        if workers > 1 {
            // Same rule as `execute_pure_chunked`: count only the chunked
            // (large-register) path, never the per-trajectory scalar loop.
            ashn_telemetry::current().add("sim.exec.chunked", 1);
        }
        for op in &self.ops {
            if workers <= 1 {
                op.kernel.apply(amps);
            } else {
                op.kernel.apply_chunked(amps, workers);
            }
            if op.rate > 0.0 && rng.gen::<f64>() < op.rate {
                for &p in op.noise_positions() {
                    let pauli = match rng.gen_range(0..4usize) {
                        1 => KernelOp::PauliX { p },
                        2 => KernelOp::PauliY { p },
                        3 => KernelOp::PauliZ { p },
                        _ => continue,
                    };
                    if workers <= 1 {
                        pauli.apply(amps);
                    } else {
                        pauli.apply_chunked(amps, workers);
                    }
                }
            }
        }
    }
}

/// Scans the staged stream backward for an earlier zero-rate 2q op on
/// exactly `{q0, q1}` that can be commuted forward to the stream's end.
///
/// Soundness: tombstones and ops on disjoint wires always commute past;
/// an op sharing a wire blocks the commute unless both it and the
/// candidate are diagonal in the computational basis (diagonals commute
/// among themselves) *and* it is zero-rate (a trajectory X/Y injection on
/// a shared wire would not commute with a diagonal). Staged 1q ops always
/// carry noise — zero-rate ones live in `pending` — so a shared-wire 1q
/// op blocks unconditionally. The scan stops at the first blocker.
fn find_fusable_2q(staged: &[Option<Staged>], q0: usize, q1: usize) -> Option<usize> {
    let mut through_diagonals = false;
    for idx in (0..staged.len()).rev() {
        let Some(s) = &staged[idx] else { continue };
        match s {
            Staged::Two {
                q0: a0,
                q1: a1,
                m,
                rate,
            } => {
                let same_pair = (*a0 == q0 && *a1 == q1) || (*a0 == q1 && *a1 == q0);
                if same_pair {
                    let ok = *rate <= 0.0 && (!through_diagonals || diagonal_of_2q(m).is_some());
                    return ok.then_some(idx);
                }
                if [*a0, *a1].iter().any(|&a| a == q0 || a == q1) {
                    if *rate > 0.0 || diagonal_of_2q(m).is_none() {
                        return None;
                    }
                    through_diagonals = true;
                }
            }
            Staged::One { q, .. } => {
                if *q == q0 || *q == q1 {
                    return None;
                }
            }
        }
    }
    None
}

/// Conjugates a two-qubit matrix by SWAP — an exact entry permutation (no
/// floating-point arithmetic), re-expressing a gate staged on `(q1, q0)`
/// in `(q0, q1)` bit order.
fn swap_conjugate(m: &Mat4) -> Mat4 {
    const SIGMA: [usize; 4] = [0, 2, 1, 3];
    Mat4::from_fn(|r, c| m[(SIGMA[r], SIGMA[c])])
}

/// Classifies one staged op into its final [`KernelOp`], recognizing the
/// same structural cases the dispatching walk detects per application —
/// plus the exact Paulis, which get their dedicated bit kernels.
fn classify(n: usize, s: Staged) -> PlanOp {
    match s {
        Staged::One { q, m, rate } => {
            let p = (n - 1 - q) as u8;
            let kernel = match pauli_of_1q(&m) {
                Some(Pauli::X) => KernelOp::PauliX { p },
                Some(Pauli::Y) => KernelOp::PauliY { p },
                Some(Pauli::Z) => KernelOp::PauliZ { p },
                None => match diagonal_of_1q(&m) {
                    Some((d0, d1)) => KernelOp::Diag1q { p, d0, d1 },
                    None => KernelOp::Dense1q { p, m },
                },
            };
            PlanOp {
                kernel,
                rate,
                noise_pos: [p, 0],
                noise_arity: 1,
            }
        }
        Staged::Two { q0, q1, m, rate } => {
            let p0 = (n - 1 - q0) as u8;
            let p1 = (n - 1 - q1) as u8;
            let kernel = match diagonal_of_2q(&m) {
                Some(d) if d[0] == Complex::ONE && d[1] == Complex::ONE && d[2] == Complex::ONE => {
                    KernelOp::CPhase {
                        p0,
                        p1,
                        phase: d[3],
                    }
                }
                Some(d) => KernelOp::Diag2q { p0, p1, d },
                None => KernelOp::Dense2q { p0, p1, m },
            };
            PlanOp {
                kernel,
                rate,
                noise_pos: [p0, p1],
                noise_arity: 2,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ashn_ir::Instruction;
    use ashn_math::randmat::haar_unitary;
    use ashn_math::{c, CMat};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn x_gate() -> CMat {
        CMat::from_rows_f64(&[&[0.0, 1.0], &[1.0, 0.0]])
    }

    #[test]
    fn plan_classifies_structural_gates() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut circuit = Circuit::new(3);
        circuit.push(Instruction::new(vec![0], x_gate(), "X").with_error_rate(0.1));
        circuit.push(
            Instruction::new(
                vec![1],
                CMat::diag(&[Complex::cis(0.2), Complex::cis(-0.2)]),
                "Rz",
            )
            .with_error_rate(0.1),
        );
        circuit.push(
            Instruction::new(
                vec![0, 2],
                CMat::diag(&[Complex::ONE, Complex::ONE, Complex::ONE, c(-1.0, 0.0)]),
                "CZ",
            )
            .with_error_rate(0.1),
        );
        circuit.push(
            Instruction::new(vec![1, 2], haar_unitary(4, &mut rng), "U").with_error_rate(0.1),
        );
        let plan = ExecPlan::build(&circuit, &NoiseModel::NOISELESS).unwrap();
        let kinds: Vec<_> = plan.ops().iter().map(|op| op.kernel).collect();
        assert!(matches!(kinds[0], KernelOp::PauliX { p: 2 }));
        assert!(matches!(kinds[1], KernelOp::Diag1q { p: 1, .. }));
        assert!(matches!(kinds[2], KernelOp::CPhase { p0: 2, p1: 0, .. }));
        assert!(matches!(kinds[3], KernelOp::Dense2q { p0: 1, p1: 0, .. }));
        assert_eq!(plan.source_gates(), 4);
        assert!(!plan.is_noiseless());
    }

    #[test]
    fn noiseless_singles_fuse_into_neighbors() {
        let mut rng = StdRng::seed_from_u64(12);
        let mut circuit = Circuit::new(2);
        // run of 1q gates, a 2q gate, then trailing 1q gates: everything
        // should collapse into a single dense 2q op.
        circuit.push(Instruction::new(vec![0], haar_unitary(2, &mut rng), "a"));
        circuit.push(Instruction::new(vec![0], haar_unitary(2, &mut rng), "b"));
        circuit.push(Instruction::new(vec![1], haar_unitary(2, &mut rng), "c"));
        circuit.push(Instruction::new(vec![0, 1], haar_unitary(4, &mut rng), "U"));
        circuit.push(Instruction::new(vec![1], haar_unitary(2, &mut rng), "d"));
        let plan = ExecPlan::pure(&circuit).unwrap();
        assert_eq!(plan.ops().len(), 1, "ops: {:?}", plan.ops().len());
        assert!(matches!(plan.ops()[0].kernel, KernelOp::Dense2q { .. }));
        // The fused op reproduces the circuit unitary.
        let mut amps = vec![Complex::ZERO; 4];
        amps[0] = Complex::ONE;
        plan.execute_pure(&mut amps);
        let u = circuit.unitary();
        for (r, a) in amps.iter().enumerate() {
            assert!((*a - u[(r, 0)]).abs() < 1e-12, "row {r}");
        }
    }

    #[test]
    fn noisy_singles_do_not_fuse() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut circuit = Circuit::new(2);
        circuit.push(Instruction::new(vec![0], haar_unitary(2, &mut rng), "a"));
        circuit.push(Instruction::new(vec![0], haar_unitary(2, &mut rng), "b"));
        let noise = NoiseModel {
            one_qubit: 0.01,
            two_qubit: 0.0,
        };
        let plan = ExecPlan::build(&circuit, &noise).unwrap();
        assert_eq!(plan.ops().len(), 2);
        assert!((plan.ops()[0].rate - 0.01).abs() < 1e-15);
        assert_eq!(plan.ops()[0].noise_positions(), &[1]);
    }

    #[test]
    fn noisy_two_qubit_ops_keep_gate_order_noise_sites() {
        let mut rng = StdRng::seed_from_u64(14);
        let mut circuit = Circuit::new(3);
        circuit.push(
            Instruction::new(vec![2, 0], haar_unitary(4, &mut rng), "U").with_error_rate(0.2),
        );
        let plan = ExecPlan::build(&circuit, &NoiseModel::NOISELESS).unwrap();
        // qubit 2 → bit 0, qubit 0 → bit 2, in gate order.
        assert_eq!(plan.ops()[0].noise_positions(), &[0, 2]);
    }

    #[test]
    fn three_qubit_gates_are_rejected() {
        let mut circuit = Circuit::new(3);
        let mut toffoli = CMat::identity(8);
        toffoli[(6, 6)] = Complex::ZERO;
        toffoli[(7, 7)] = Complex::ZERO;
        toffoli[(6, 7)] = Complex::ONE;
        toffoli[(7, 6)] = Complex::ONE;
        circuit.push(Instruction::new(vec![0, 1, 2], toffoli, "CCX"));
        assert_eq!(
            ExecPlan::pure(&circuit).unwrap_err(),
            PlanError::UnsupportedArity { qubits: 3 }
        );
    }

    #[test]
    fn out_of_range_wires_are_a_structured_error() {
        // Bypass `Circuit::push` validation: the instruction list is a
        // public field, so a hand-assembled circuit can reference wires
        // outside the register. The plan compiler must report it, not
        // panic in the bit-position arithmetic.
        let mut circuit = Circuit::new(2);
        circuit
            .instructions
            .push(Instruction::new(vec![0, 5], x_gate().kron(&x_gate()), "XX"));
        assert_eq!(
            ExecPlan::pure(&circuit).unwrap_err(),
            PlanError::WireOutOfRange { qubit: 5, n: 2 }
        );
        let mut one_q = Circuit::new(1);
        one_q
            .instructions
            .push(Instruction::new(vec![1], x_gate(), "X"));
        assert_eq!(
            ExecPlan::build(&one_q, &NoiseModel::NOISELESS).unwrap_err(),
            PlanError::WireOutOfRange { qubit: 1, n: 1 }
        );
    }

    #[test]
    fn zero_qubit_register_is_rejected() {
        let circuit = Circuit::new(0);
        assert_eq!(
            ExecPlan::pure(&circuit).unwrap_err(),
            PlanError::RegisterOutOfRange { n: 0 }
        );
    }
}
