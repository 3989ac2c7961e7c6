//! The canonical `n`-qubit circuit: a register size, a global phase, and
//! instructions in application order.

use crate::error::IrError;
use crate::instruction::Instruction;
use ashn_math::{CMat, Complex};

/// Largest register for which a dense unitary is materialized.
pub const MAX_DENSE_QUBITS: usize = 12;

/// A quantum circuit on `n` qubits with a global phase.
///
/// Invariants (maintained by [`Circuit::push`]/[`Circuit::try_push`] and the
/// constructors): every instruction's qubits lie in `0..n` and its matrix
/// dimension matches its arity. The fields are public so pattern-style reads
/// (`for g in &c.instructions`) stay ergonomic; code that mutates them
/// directly is responsible for the invariants.
#[derive(Clone, Debug)]
pub struct Circuit {
    /// Register size.
    pub n: usize,
    /// Global phase multiplying the circuit unitary.
    pub phase: Complex,
    /// Instructions in application order.
    pub instructions: Vec<Instruction>,
}

impl Default for Circuit {
    fn default() -> Self {
        Circuit::new(0)
    }
}

impl Circuit {
    /// The empty circuit on `n` qubits (identity, unit phase).
    pub fn new(n: usize) -> Self {
        Self {
            n,
            phase: Complex::ONE,
            instructions: Vec::new(),
        }
    }

    /// Number of qubits (accessor kept for `ashn_sim::Circuit` parity).
    pub fn n_qubits(&self) -> usize {
        self.n
    }

    /// The instructions in application order (accessor kept for
    /// `ashn_sim::Circuit` parity).
    pub fn gates(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Appends an instruction, validating the register bound.
    ///
    /// # Errors
    ///
    /// [`IrError::QubitOutOfRange`] when the gate touches qubits outside
    /// the register.
    pub fn try_push(&mut self, instruction: Instruction) -> Result<(), IrError> {
        if let Some(&q) = instruction.qubits.iter().find(|&&q| q >= self.n) {
            return Err(IrError::QubitOutOfRange {
                qubit: q,
                n: self.n,
            });
        }
        self.instructions.push(instruction);
        Ok(())
    }

    /// Appends an instruction.
    ///
    /// # Panics
    ///
    /// Panics if the gate touches qubits outside the register; fallible
    /// library paths use [`Circuit::try_push`].
    pub fn push(&mut self, instruction: Instruction) {
        if let Err(e) = self.try_push(instruction) {
            panic!("{e}");
        }
    }

    /// Appends all instructions of `other` (same register size) and folds
    /// its global phase into this circuit's.
    ///
    /// # Errors
    ///
    /// [`IrError::RegisterMismatch`] on register-size mismatch.
    pub fn append(&mut self, other: Circuit) -> Result<(), IrError> {
        if other.n != self.n {
            return Err(IrError::RegisterMismatch {
                expected: self.n,
                got: other.n,
            });
        }
        self.phase *= other.phase;
        self.instructions.extend(other.instructions);
        Ok(())
    }

    /// Total duration (sum of instruction durations).
    pub fn total_duration(&self) -> f64 {
        self.instructions.iter().map(|g| g.duration).sum()
    }

    /// Number of instructions acting on ≥ 2 qubits.
    pub fn entangler_count(&self) -> usize {
        self.instructions
            .iter()
            .filter(|g| g.is_entangler())
            .count()
    }

    /// Summed duration of the instructions acting on ≥ 2 qubits.
    pub fn entangler_duration(&self) -> f64 {
        self.instructions
            .iter()
            .filter(|g| g.is_entangler())
            .map(|g| g.duration)
            .sum()
    }

    /// The dense unitary of the whole circuit, including the global phase.
    ///
    /// Columns are propagated through the instruction list with the
    /// statevector kernel, so the cost is `O(gates · 2^n)` per column rather
    /// than dense matrix products.
    ///
    /// # Panics
    ///
    /// Panics for registers above [`MAX_DENSE_QUBITS`]; use
    /// [`Circuit::try_unitary`] on untrusted sizes.
    pub fn unitary(&self) -> CMat {
        match self.try_unitary() {
            Ok(u) => u,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`Circuit::unitary`].
    ///
    /// # Errors
    ///
    /// [`IrError::RegisterTooLarge`] above [`MAX_DENSE_QUBITS`] qubits.
    pub fn try_unitary(&self) -> Result<CMat, IrError> {
        if self.n > MAX_DENSE_QUBITS {
            return Err(IrError::RegisterTooLarge {
                n: self.n,
                max: MAX_DENSE_QUBITS,
            });
        }
        let dim = 1usize << self.n;
        let mut u = CMat::zeros(dim, dim);
        let mut amps = vec![Complex::ZERO; dim];
        for i in 0..dim {
            amps.fill(Complex::ZERO);
            amps[i] = self.phase;
            for g in &self.instructions {
                apply_gate(&mut amps, self.n, &g.qubits, &g.matrix);
            }
            for (r, a) in amps.iter().enumerate() {
                u[(r, i)] = *a;
            }
        }
        Ok(u)
    }

    /// Frobenius distance between this circuit's unitary and a target.
    pub fn error(&self, target: &CMat) -> f64 {
        self.unitary().dist(target)
    }

    /// Embeds this circuit into a larger register: instruction qubits are
    /// relabeled via `targets` (`targets[q]` = physical site of logical
    /// qubit `q`), the global phase is preserved.
    ///
    /// # Errors
    ///
    /// [`IrError::EmbedMismatch`] when `targets` does not cover the source
    /// register, [`IrError::QubitOutOfRange`] when a target site exceeds
    /// `n`, [`IrError::RepeatedQubit`] when two logical qubits share a site.
    pub fn embed(&self, n: usize, targets: &[usize]) -> Result<Circuit, IrError> {
        if targets.len() != self.n {
            return Err(IrError::EmbedMismatch {
                expected: self.n,
                got: targets.len(),
            });
        }
        for (i, t) in targets.iter().enumerate() {
            if *t >= n {
                return Err(IrError::QubitOutOfRange { qubit: *t, n });
            }
            if targets[i + 1..].contains(t) {
                return Err(IrError::RepeatedQubit { qubit: *t });
            }
        }
        let mut out = Circuit::new(n);
        out.phase = self.phase;
        for g in &self.instructions {
            out.try_push(g.remapped(targets)?)?;
        }
        Ok(out)
    }

    /// Fuses runs of adjacent single-qubit gates per wire into one gate
    /// (flushed whenever an entangler touches the wire), preserving the
    /// circuit unitary. Fused gates carry zero duration and no explicit
    /// error rate — matching the historical `qv` flattening semantics where
    /// a dressed run costs one single-qubit noise event.
    pub fn fuse_single_qubit_runs(&self) -> Circuit {
        let mut out = Circuit::new(self.n);
        out.phase = self.phase;
        let mut pending: Vec<Option<CMat>> = vec![None; self.n];
        fn flush(q: usize, pending: &mut [Option<CMat>], out: &mut Circuit) {
            if let Some(m) = pending[q].take() {
                out.instructions
                    .push(Instruction::new(vec![q], m, "1q").with_duration(0.0));
            }
        }
        for g in &self.instructions {
            if g.qubits.len() == 1 && g.error_rate.is_none() && g.duration == 0.0 {
                let q = g.qubits[0];
                pending[q] = Some(match pending[q].take() {
                    Some(prev) => g.matrix.matmul(&prev),
                    None => g.matrix.clone(),
                });
            } else {
                for &q in &g.qubits {
                    flush(q, &mut pending, &mut out);
                }
                out.instructions.push(g.clone());
            }
        }
        for q in 0..self.n {
            flush(q, &mut pending, &mut out);
        }
        out
    }
}

/// Applies a `k`-qubit unitary to raw amplitudes of an `n`-qubit register
/// (qubit 0 = most significant bit, matching `ashn-sim`).
///
/// Dispatches to the specialized in-place kernels in [`crate::kernels`] for
/// `k = 1` and `k = 2` (including diagonal/controlled-phase fast paths);
/// higher arities fall back to [`crate::kernels::apply_gate_generic`].
pub fn apply_gate(amps: &mut [Complex], n: usize, qubits: &[usize], m: &CMat) {
    debug_assert_eq!(amps.len(), 1 << n);
    debug_assert_eq!(m.rows(), 1 << qubits.len());
    match *qubits {
        [q] => crate::kernels::apply_1q(amps, n, q, m),
        [q0, q1] => crate::kernels::apply_2q(amps, n, q0, q1, m),
        _ => crate::kernels::apply_gate_generic(amps, n, qubits, m),
    }
}

/// Embeds a `k`-qubit gate matrix into the full `2^n` space (dense form;
/// formerly `ashn_synth`'s n-qubit embedding).
pub fn embed(n: usize, qubits: &[usize], m: &CMat) -> CMat {
    let k = qubits.len();
    assert_eq!(m.rows(), 1 << k, "gate dimension mismatch in embed");
    let dim = 1usize << n;
    let pos: Vec<usize> = qubits.iter().map(|q| n - 1 - q).collect();
    let mask: usize = pos.iter().map(|p| 1usize << p).sum();
    let mut out = CMat::zeros(dim, dim);
    let sub = 1usize << k;
    let expand = |base: usize, idx: usize| -> usize {
        let mut v = base;
        for (j, p) in pos.iter().enumerate() {
            if idx >> (k - 1 - j) & 1 == 1 {
                v |= 1 << p;
            }
        }
        v
    };
    for base in 0..dim {
        if base & mask != 0 {
            continue;
        }
        for r in 0..sub {
            for c in 0..sub {
                out[(expand(base, r), expand(base, c))] = m[(r, c)];
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ashn_math::c;

    fn x_gate() -> CMat {
        CMat::from_rows_f64(&[&[0.0, 1.0], &[1.0, 0.0]])
    }

    fn h_gate() -> CMat {
        let s = std::f64::consts::FRAC_1_SQRT_2;
        CMat::from_rows_f64(&[&[s, s], &[s, -s]])
    }

    #[test]
    fn unitary_includes_phase_and_composes() {
        let mut circ = Circuit::new(2);
        circ.phase = Complex::cis(0.7);
        circ.push(Instruction::new(vec![0], h_gate(), "H"));
        circ.push(Instruction::new(vec![1], x_gate(), "X"));
        let expect = h_gate().kron(&x_gate()).scale(Complex::cis(0.7));
        assert!(circ.unitary().dist(&expect) < 1e-12);
    }

    #[test]
    fn embed_relabels_and_preserves_phase() {
        let mut circ = Circuit::new(2);
        circ.phase = c(0.0, 1.0);
        circ.push(Instruction::new(vec![0], x_gate(), "X"));
        let e = circ.embed(3, &[2, 0]).unwrap();
        assert_eq!(e.n, 3);
        assert_eq!(e.instructions[0].qubits, vec![2]);
        assert!((e.phase - c(0.0, 1.0)).abs() < 1e-15);
        assert!(matches!(
            circ.embed(3, &[0]),
            Err(IrError::EmbedMismatch { .. })
        ));
        assert!(matches!(
            circ.embed(3, &[0, 5]),
            Err(IrError::QubitOutOfRange { .. })
        ));
        assert!(matches!(
            circ.embed(3, &[1, 1]),
            Err(IrError::RepeatedQubit { .. })
        ));
    }

    #[test]
    fn fuse_merges_adjacent_singles_only() {
        let mut circ = Circuit::new(2);
        circ.push(Instruction::new(vec![0], h_gate(), "H"));
        circ.push(Instruction::new(vec![0], x_gate(), "X"));
        circ.push(Instruction::new(vec![1], h_gate(), "H"));
        let cnot = CMat::from_rows_f64(&[
            &[1.0, 0.0, 0.0, 0.0],
            &[0.0, 1.0, 0.0, 0.0],
            &[0.0, 0.0, 0.0, 1.0],
            &[0.0, 0.0, 1.0, 0.0],
        ]);
        circ.push(Instruction::new(vec![0, 1], cnot, "CNOT").with_duration(1.0));
        circ.push(Instruction::new(vec![1], x_gate(), "X"));
        let fused = circ.fuse_single_qubit_runs();
        // H·X on wire 0 and H on wire 1 fuse; the trailing X stays.
        assert_eq!(fused.instructions.len(), 4);
        assert!(fused.unitary().dist(&circ.unitary()) < 1e-12);
        assert_eq!(fused.entangler_count(), 1);
        assert!((fused.entangler_duration() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn try_push_rejects_out_of_range() {
        let mut circ = Circuit::new(1);
        let err = circ
            .try_push(Instruction::new(vec![1], x_gate(), "X"))
            .unwrap_err();
        assert!(matches!(err, IrError::QubitOutOfRange { qubit: 1, n: 1 }));
    }

    #[test]
    fn append_folds_phases() {
        let mut a = Circuit::new(1);
        a.phase = Complex::cis(0.3);
        let mut b = Circuit::new(1);
        b.phase = Complex::cis(0.4);
        b.push(Instruction::new(vec![0], x_gate(), "X"));
        a.append(b).unwrap();
        assert!((a.phase - Complex::cis(0.7)).abs() < 1e-12);
        assert_eq!(a.instructions.len(), 1);
        assert!(a.append(Circuit::new(2)).is_err());
    }

    #[test]
    fn embed_respects_qubit_ordering() {
        // X on qubit 1 of 2 = I ⊗ X; on qubit 0 = X ⊗ I.
        let e1 = embed(2, &[1], &x_gate());
        assert!(e1.dist(&CMat::identity(2).kron(&x_gate())) < 1e-15);
        let e0 = embed(2, &[0], &x_gate());
        assert!(e0.dist(&x_gate().kron(&CMat::identity(2))) < 1e-15);
    }

    #[test]
    fn embed_reversed_pair_transposes_roles() {
        let u = CMat::from_rows_f64(&[
            &[0.0, 1.0, 0.0, 0.0],
            &[0.0, 0.0, 1.0, 0.0],
            &[0.0, 0.0, 0.0, 1.0],
            &[1.0, 0.0, 0.0, 0.0],
        ]);
        let swap = CMat::from_rows_f64(&[
            &[1.0, 0.0, 0.0, 0.0],
            &[0.0, 0.0, 1.0, 0.0],
            &[0.0, 1.0, 0.0, 0.0],
            &[0.0, 0.0, 0.0, 1.0],
        ]);
        let a = embed(2, &[1, 0], &u);
        let b = swap.matmul(&u).matmul(&swap);
        assert!(a.dist(&b) < 1e-12);
    }

    #[test]
    fn dense_embed_matches_kernel_application() {
        let u = CMat::from_rows_f64(&[
            &[0.0, 1.0, 0.0, 0.0],
            &[1.0, 0.0, 0.0, 0.0],
            &[0.0, 0.0, 0.0, 1.0],
            &[0.0, 0.0, 1.0, 0.0],
        ]);
        let mut circ = Circuit::new(3);
        circ.push(Instruction::new(vec![2, 0], u.clone(), "U"));
        assert!(circ.unitary().dist(&embed(3, &[2, 0], &u)) < 1e-12);
    }
}
