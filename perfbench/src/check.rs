//! Output checks from outside the compiler, output digests, and the
//! paper's quality metrics of a compiled circuit.

use ashn::ir::{Circuit, Instruction};
use ashn::qv::{CompiledModel, ModelCircuit, QvNoise};
use ashn::sim::plan::ExecPlan;
use ashn::sim::trajectory::trajectory_probabilities_batched_plan;
use ashn::sim::SimEngine;

/// Largest total-variation distance allowed between the compiled circuit's
/// ideal logical distribution and the input circuit's. Synthesis and
/// resynthesis realize each block to ~1e-5 (Frobenius), so an honest
/// compilation lands orders of magnitude below this; a wrong gate, wire
/// or permutation lands near 1e-1.
pub const CHECK_TVD: f64 = 1e-3;

/// FNV-1a over everything that identifies a compiled output: register
/// size, global phase, every instruction (wires, matrix, label, duration,
/// error rate), the final placement, and any extra values (HOP,
/// probabilities) — all floats by bit pattern.
pub fn digest(circuit: &Circuit, positions: &[usize], extra: &[f64]) -> u64 {
    let mut h = Fnv::default();
    h.word(circuit.n_qubits() as u64);
    h.f64(circuit.phase.re);
    h.f64(circuit.phase.im);
    for g in &circuit.instructions {
        h.word(g.qubits.len() as u64);
        for &q in &g.qubits {
            h.word(q as u64);
        }
        for z in g.matrix.as_slice() {
            h.f64(z.re);
            h.f64(z.im);
        }
        h.bytes(g.label.as_bytes());
        h.f64(g.duration);
        h.f64(g.error_rate.unwrap_or(-1.0));
    }
    for &p in positions {
        h.word(p as u64);
    }
    for &x in extra {
        h.f64(x);
    }
    h.0
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }
}

/// A model circuit as a plain logical circuit: each layer's Haar gates on
/// their logical pairs, no routing, no synthesis.
pub fn model_circuit(model: &ModelCircuit) -> Circuit {
    let mut circuit = Circuit::new(model.d);
    for layer in &model.layers {
        for &((a, b), ref u) in layer {
            circuit.push(Instruction::new(vec![a, b], u.clone(), "U"));
        }
    }
    circuit
}

/// Ideal output distribution of a circuit run on `|0…0⟩`.
pub fn ideal_distribution(circuit: &Circuit) -> Vec<f64> {
    SimEngine::new(circuit.n_qubits())
        .run_pure(circuit)
        .probabilities()
}

/// Ideal distribution of a compiled physical-site circuit, marginalized onto
/// the logical register through the reported final placement.
pub fn logical_distribution(circuit: &Circuit, positions: &[usize]) -> Vec<f64> {
    let model = CompiledModel {
        circuit: circuit.clone(),
        positions: positions.to_vec(),
    };
    model.logical_probs(&ideal_distribution(circuit))
}

/// Total-variation distance between two distributions.
pub fn tvd(a: &[f64], b: &[f64]) -> f64 {
    0.5 * a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum::<f64>()
}

/// Checks a compiled circuit against the reference distribution of its
/// input circuit.
///
/// # Errors
///
/// A description of the mismatch.
pub fn check_output(
    reference: &[f64],
    circuit: &Circuit,
    positions: &[usize],
) -> Result<(), String> {
    let got = logical_distribution(circuit, positions);
    if got.len() != reference.len() {
        return Err(format!(
            "compiled register marginalizes to {} outcomes, the input has {}",
            got.len(),
            reference.len()
        ));
    }
    let d = tvd(&got, reference);
    if d.is_nan() || d > CHECK_TVD {
        return Err(format!(
            "compiled distribution is {d:.3e} (TVD) from the input's"
        ));
    }
    Ok(())
}

/// Heavy-output probability of `probs` for the heavy set `heavy`.
pub fn hop(heavy: &[usize], probs: &[f64]) -> f64 {
    heavy.iter().map(|&i| probs[i]).sum()
}

/// The paper's noise point, `e_cz = 0.7%`.
pub fn noise() -> QvNoise {
    QvNoise::with_e_cz(0.007)
}

/// Trajectory estimate of a compiled circuit's HOP: `trajectories` runs of
/// `plan` from master seed `seed` on `workers` threads, marginalized onto
/// the logical register through `positions`.
pub fn trajectory_hop(
    plan: &ExecPlan,
    heavy: &[usize],
    positions: &[usize],
    trajectories: usize,
    seed: u64,
    workers: usize,
) -> f64 {
    let probs = trajectory_probabilities_batched_plan(plan, trajectories, seed, workers);
    let model = CompiledModel {
        circuit: Circuit::new(plan.n_qubits()),
        positions: positions.to_vec(),
    };
    hop(heavy, &model.logical_probs(&probs))
}

/// The paper's cost metrics of one compiled circuit.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Quality {
    /// Native two-qubit gates.
    pub two_qubit_gates: f64,
    /// Σ of two-qubit pulse durations, `1/g` — what the noise model charges.
    pub pulse_duration: f64,
    /// Critical-path duration with every wire scheduled as soon as its
    /// previous gate ends, `1/g`.
    pub makespan: f64,
}

impl Quality {
    /// Measures `circuit`.
    pub fn of(circuit: &Circuit) -> Self {
        let mut free = vec![0.0f64; circuit.n_qubits()];
        let mut q = Quality::default();
        for g in &circuit.instructions {
            if g.qubits.len() == 2 {
                q.two_qubit_gates += 1.0;
                q.pulse_duration += g.duration;
            }
            let start = g.qubits.iter().map(|&w| free[w]).fold(0.0, f64::max);
            for &w in &g.qubits {
                free[w] = start + g.duration;
            }
        }
        q.makespan = free.iter().copied().fold(0.0, f64::max);
        q
    }
}

/// Running means of [`Quality`] and HOP over a fixed input set.
#[derive(Clone, Copy, Debug, Default)]
pub struct QualityMean {
    sum: Quality,
    hop: f64,
    n: usize,
    n_hop: usize,
}

impl QualityMean {
    /// Adds one circuit (and its HOP, when the workload scores it).
    pub fn add(&mut self, q: Quality, hop: Option<f64>) {
        self.sum.two_qubit_gates += q.two_qubit_gates;
        self.sum.pulse_duration += q.pulse_duration;
        self.sum.makespan += q.makespan;
        self.n += 1;
        if let Some(h) = hop {
            self.hop += h;
            self.n_hop += 1;
        }
    }

    /// Mean quality per circuit.
    pub fn mean(&self) -> Quality {
        let n = self.n.max(1) as f64;
        Quality {
            two_qubit_gates: self.sum.two_qubit_gates / n,
            pulse_duration: self.sum.pulse_duration / n,
            makespan: self.sum.makespan / n,
        }
    }

    /// Mean HOP over the scored circuits.
    pub fn mean_hop(&self) -> f64 {
        self.hop / self.n_hop.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ashn::gates::two::cnot;

    #[test]
    fn makespan_follows_the_critical_path() {
        let mut c = Circuit::new(3);
        c.push(Instruction::new(vec![0, 1], cnot(), "CX").with_duration(2.0));
        c.push(Instruction::new(vec![1, 2], cnot(), "CX").with_duration(3.0));
        c.push(Instruction::new(vec![0, 1], cnot(), "CX").with_duration(1.0));
        let q = Quality::of(&c);
        assert_eq!(q.two_qubit_gates, 3.0);
        assert_eq!(q.pulse_duration, 6.0);
        assert_eq!(q.makespan, 6.0);
    }

    #[test]
    fn digest_sees_one_bit_of_one_matrix() {
        let mut c = Circuit::new(2);
        c.push(Instruction::new(vec![0, 1], cnot(), "CX"));
        let before = digest(&c, &[0, 1], &[]);
        let z = &mut c.instructions[0].matrix.as_mut_slice()[0];
        z.re = f64::from_bits(z.re.to_bits() ^ 1);
        assert_ne!(before, digest(&c, &[0, 1], &[]));
    }
}
