//! Linear cross-entropy benchmarking (XEB) — the reconfigurable-gate-set
//! characterisation scheme the paper's discussion points to (§7, ref \[68\]).
//!
//! Random two-qubit circuits alternate Haar single-qubit layers with the
//! gate under test; sampling the noisy output and scoring bitstrings by the
//! ideal distribution estimates the circuit fidelity under
//! depolarizing-like noise. At two qubits the asymptotic `2ⁿ⟨p⟩ − 1`
//! estimator is biased (a Haar state's collision probability is `2/(D+1)`,
//! not `2/D`), so we use the self-normalised form
//!
//! ```text
//! F = (D·Σ p_ideal·p_real − 1) / (D·Σ p_ideal² − 1)
//! ```
//!
//! which is exactly 1 for a perfect implementation at any dimension.

use ashn_math::randmat::haar_su;
use ashn_math::CMat;
use ashn_sim::{Circuit, Instruction, NoiseModel, Simulate};
use rand::Rng;

/// One XEB random circuit: `depth` repetitions of (1q Haar layer, the gate
/// under test), built twice — the ideal gate and the implementation.
fn build_pair(
    ideal_gate: &CMat,
    real_gate: &CMat,
    depth: usize,
    rng: &mut impl Rng,
) -> (Circuit, Circuit) {
    let mut ideal = Circuit::new(2);
    let mut real = Circuit::new(2);
    for _ in 0..depth {
        for q in 0..2 {
            let u = haar_su(2, rng);
            ideal.push(Instruction::new(vec![q], u.clone(), "1q"));
            real.push(Instruction::new(vec![q], u, "1q"));
        }
        ideal.push(Instruction::new(vec![0, 1], ideal_gate.clone(), "G"));
        real.push(Instruction::new(vec![0, 1], real_gate.clone(), "G"));
    }
    (ideal, real)
}

/// Estimates the linear-XEB fidelity of `real_gate` against `ideal_gate`
/// at the given circuit depth, averaging `n_circuits` random circuits with
/// `shots` samples each (`shots = 0` → exact noisy distribution).
pub fn xeb_fidelity(
    ideal_gate: &CMat,
    real_gate: &CMat,
    depth: usize,
    n_circuits: usize,
    shots: usize,
    rng: &mut impl Rng,
) -> f64 {
    let mut num = 0.0;
    let mut den = 0.0;
    for _ in 0..n_circuits {
        let (ideal, real) = build_pair(ideal_gate, real_gate, depth, rng);
        let p_ideal = ideal.run_pure().probabilities();
        den += 4.0 * p_ideal.iter().map(|p| p * p).sum::<f64>() - 1.0;
        num += if shots == 0 {
            let p_real = real.run_pure().probabilities();
            4.0 * p_ideal
                .iter()
                .zip(p_real.iter())
                .map(|(pi, pr)| pi * pr)
                .sum::<f64>()
                - 1.0
        } else {
            let state = real.run_pure();
            let mut acc = 0.0;
            for _ in 0..shots {
                let x = state.sample(rng);
                acc += p_ideal[x];
            }
            4.0 * acc / shots as f64 - 1.0
        };
    }
    num / den
}

/// XEB of a gate implementation with per-gate depolarizing noise, using the
/// exact density-matrix distribution.
pub fn xeb_fidelity_noisy(
    ideal_gate: &CMat,
    error_rate: f64,
    depth: usize,
    n_circuits: usize,
    rng: &mut impl Rng,
) -> f64 {
    let mut num = 0.0;
    let mut den = 0.0;
    for _ in 0..n_circuits {
        let mut ideal = Circuit::new(2);
        let mut noisy = Circuit::new(2);
        for _ in 0..depth {
            for q in 0..2 {
                let u = haar_su(2, rng);
                ideal.push(Instruction::new(vec![q], u.clone(), "1q"));
                noisy.push(Instruction::new(vec![q], u, "1q").with_error_rate(0.0));
            }
            ideal.push(Instruction::new(vec![0, 1], ideal_gate.clone(), "G"));
            noisy.push(
                Instruction::new(vec![0, 1], ideal_gate.clone(), "G").with_error_rate(error_rate),
            );
        }
        let p_ideal = ideal.run_pure().probabilities();
        let p_noisy = noisy.run_noisy(&NoiseModel::NOISELESS).probabilities();
        num += 4.0
            * p_ideal
                .iter()
                .zip(p_noisy.iter())
                .map(|(pi, pr)| pi * pr)
                .sum::<f64>()
            - 1.0;
        den += 4.0 * p_ideal.iter().map(|p| p * p).sum::<f64>() - 1.0;
    }
    num / den
}

#[cfg(test)]
mod tests {
    use super::*;
    use ashn_gates::two::cnot;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn perfect_gate_scores_near_one() {
        let mut rng = StdRng::seed_from_u64(91);
        let f = xeb_fidelity(&cnot(), &cnot(), 6, 20, 0, &mut rng);
        // Porter–Thomas statistics make per-circuit XEB noisy; the mean over
        // circuits concentrates near 1 for a perfect implementation.
        assert!((f - 1.0).abs() < 0.25, "XEB of perfect gate = {f}");
    }

    #[test]
    fn depolarizing_noise_decays_xeb_multiplicatively() {
        let mut rng = StdRng::seed_from_u64(92);
        let p = 0.06;
        let shallow = xeb_fidelity_noisy(&cnot(), p, 2, 40, &mut rng);
        let deep = xeb_fidelity_noisy(&cnot(), p, 8, 40, &mut rng);
        assert!(shallow > deep + 0.1, "XEB must decay: {shallow} vs {deep}");
        // Rough exponential consistency: deep ≈ shallow^(8/2) within noise.
        let predicted = shallow.powf(4.0);
        assert!(
            (deep - predicted).abs() < 0.25,
            "decay not multiplicative: deep {deep} vs predicted {predicted}"
        );
    }

    #[test]
    fn coherent_error_is_detected() {
        let mut rng = StdRng::seed_from_u64(93);
        let wrong = ashn_gates::two::canonical(0.6, 0.1, 0.0);
        let f = xeb_fidelity(&cnot(), &wrong, 5, 25, 0, &mut rng);
        assert!(f < 0.9, "XEB should flag a wrong gate, got {f}");
    }

    #[test]
    fn shot_sampling_is_consistent_with_exact() {
        let mut rng = StdRng::seed_from_u64(94);
        let exact = xeb_fidelity(&cnot(), &cnot(), 4, 12, 0, &mut rng);
        let mut rng2 = StdRng::seed_from_u64(94);
        let sampled = xeb_fidelity(&cnot(), &cnot(), 4, 12, 4000, &mut rng2);
        assert!((exact - sampled).abs() < 0.15, "{exact} vs {sampled}");
    }
}
