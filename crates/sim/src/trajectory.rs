//! Monte-Carlo (quantum-trajectory) simulation of depolarizing noise on the
//! statevector — the scalable alternative to the exact density-matrix
//! simulator for larger registers.
//!
//! A `k`-qubit depolarizing channel of probability `p` is realized exactly
//! in distribution by applying, with probability `p`, a uniformly random
//! `k`-qubit Pauli (identity included).

use crate::batch::BatchRunner;
use crate::chunk::ChunkPolicy;
use crate::circuit::{Circuit, NoiseModel};
use crate::engine::SimEngine;
use crate::plan::ExecPlan;
use crate::state::StateVector;
use rand::rngs::StdRng;
use rand::Rng;

/// Runs one stochastic trajectory of the circuit under its per-gate
/// depolarizing annotations, returning the final pure state.
///
/// One-shot convenience over [`SimEngine::run_trajectory`] (the state is
/// moved out of the engine, not copied); batched callers keep one engine
/// and one [`ExecPlan`] alive (or use
/// [`trajectory_probabilities_batched`]) to amortize both the
/// amplitude-buffer allocation and the plan build.
pub fn run_trajectory(circuit: &Circuit, noise: &NoiseModel, rng: &mut impl Rng) -> StateVector {
    let mut engine = SimEngine::new(circuit.n_qubits());
    engine.run_trajectory(circuit, noise, rng);
    engine.take_state()
}

/// Estimates outcome probabilities by averaging `n_traj` trajectories.
///
/// The circuit is compiled to an [`ExecPlan`] once and every trajectory
/// executes the plan (the instruction walk is kept as the fallback for
/// circuits a plan cannot express).
pub fn trajectory_probabilities(
    circuit: &Circuit,
    noise: &NoiseModel,
    n_traj: usize,
    rng: &mut impl Rng,
) -> Vec<f64> {
    let dim = 1usize << circuit.n_qubits();
    let mut acc = vec![0.0; dim];
    let mut engine = SimEngine::new(circuit.n_qubits());
    let plan = ExecPlan::build(circuit, noise).ok();
    for _ in 0..n_traj {
        match &plan {
            Some(plan) => engine.run_plan_trajectory(plan, rng),
            None => engine.run_trajectory_walk(circuit, noise, rng),
        }
        .accumulate_probabilities(&mut acc);
    }
    for a in acc.iter_mut() {
        *a /= n_traj as f64;
    }
    acc
}

/// Number of fixed-size chunks a trajectory ensemble is split into. A pure
/// function of the ensemble size — never of the worker count — so batched
/// estimates are deterministic for a given master seed.
fn trajectory_chunks(n_traj: usize) -> usize {
    n_traj.clamp(1, 64)
}

/// Estimates outcome probabilities by averaging `n_traj` trajectories,
/// fanned across [`BatchRunner`] workers (`workers` follows the
/// [`ashn_math::par`] zero-means-default convention). The
/// ensemble is split into fixed-size chunks with per-chunk
/// RNG streams derived from `master_seed`, so the estimate is bit-identical
/// for any worker count.
///
/// The circuit is compiled to an [`ExecPlan`] once, shared read-only by all
/// workers (the instruction walk is kept as the fallback for circuits a
/// plan cannot express — same RNG streams, so the determinism contract is
/// unchanged).
pub fn trajectory_probabilities_batched(
    circuit: &Circuit,
    noise: &NoiseModel,
    n_traj: usize,
    master_seed: u64,
    workers: usize,
) -> Vec<f64> {
    match ExecPlan::build(circuit, noise) {
        Ok(plan) => trajectory_probabilities_batched_plan(&plan, n_traj, master_seed, workers),
        Err(_) => batched_ensemble(
            circuit.n_qubits(),
            n_traj,
            master_seed,
            workers,
            |engine, rng| {
                engine.run_trajectory_walk(circuit, noise, rng);
            },
        ),
    }
}

/// [`trajectory_probabilities_batched`] over an already-compiled
/// [`ExecPlan`] — the entry point for callers scoring one compiled circuit
/// against many ensemble configurations.
pub fn trajectory_probabilities_batched_plan(
    plan: &ExecPlan,
    n_traj: usize,
    master_seed: u64,
    workers: usize,
) -> Vec<f64> {
    batched_ensemble(
        plan.n_qubits(),
        n_traj,
        master_seed,
        workers,
        |engine, rng| {
            engine.run_plan_trajectory(plan, rng);
        },
    )
}

/// The shared chunked-ensemble driver behind the batched estimators: fans
/// `n_traj` runs of `run_one` across workers and averages the accumulated
/// probabilities.
fn batched_ensemble(
    n: usize,
    n_traj: usize,
    master_seed: u64,
    workers: usize,
    run_one: impl Fn(&mut SimEngine, &mut StdRng) + Sync,
) -> Vec<f64> {
    let dim = 1usize << n;
    if n_traj == 0 {
        return vec![0.0; dim];
    }
    let chunks = trajectory_chunks(n_traj);
    // Above the chunked-kernel threshold, parallelism moves *inside* each
    // trajectory (amplitude-parallel ops, trajectories in sequence): one
    // `2^n` amplitude buffer total instead of one per worker, with every
    // core still busy. Below it, trajectories fan out as before. Either
    // way the RNG streams are per chunk index, so the estimate stays
    // bit-identical for any worker count.
    let amp_parallel = n >= ChunkPolicy::MIN_PARALLEL_QUBITS;
    let runner = BatchRunner::new(master_seed).with_workers(if amp_parallel { 1 } else { workers });
    let chunk_policy = if amp_parallel {
        ChunkPolicy::with_workers(workers)
    } else {
        ChunkPolicy::scalar()
    };
    let partials = runner.run(chunks, |index, rng| {
        // Chunk `index` owns trajectories [lo, hi) of the ensemble.
        let lo = index * n_traj / chunks;
        let hi = (index + 1) * n_traj / chunks;
        let mut engine = SimEngine::new(n).with_chunk_policy(chunk_policy);
        let mut acc = vec![0.0; dim];
        for _ in lo..hi {
            run_one(&mut engine, rng);
            engine.accumulate_probabilities(&mut acc);
        }
        acc
    });
    let mut out = vec![0.0; dim];
    for partial in partials {
        for (o, p) in out.iter_mut().zip(partial) {
            *o += p;
        }
    }
    for o in out.iter_mut() {
        *o /= n_traj as f64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{Instruction, Simulate};
    use ashn_math::randmat::haar_unitary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_circuit(n: usize, rng: &mut StdRng, p2: f64) -> Circuit {
        let mut c = Circuit::new(n);
        for layer in 0..3 {
            for q in 0..n - 1 {
                if (q + layer) % 2 == 0 {
                    c.push(
                        Instruction::new(vec![q, q + 1], haar_unitary(4, rng), "U")
                            .with_error_rate(p2),
                    );
                }
            }
        }
        c
    }

    #[test]
    fn noiseless_trajectory_equals_pure_run() {
        let mut rng = StdRng::seed_from_u64(81);
        let circuit = sample_circuit(3, &mut rng, 0.0);
        let traj = run_trajectory(&circuit, &NoiseModel::NOISELESS, &mut rng);
        let pure = circuit.run_pure();
        for (a, b) in traj.probabilities().iter().zip(pure.probabilities()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn trajectories_converge_to_density_matrix() {
        let mut rng = StdRng::seed_from_u64(82);
        let circuit = sample_circuit(3, &mut rng, 0.08);
        let exact = circuit.run_noisy(&NoiseModel::NOISELESS).probabilities();
        let est = trajectory_probabilities(&circuit, &NoiseModel::NOISELESS, 4000, &mut rng);
        let linf = exact
            .iter()
            .zip(est.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        assert!(linf < 0.02, "trajectory vs exact deviation {linf}");
    }

    #[test]
    fn full_depolarizing_trajectories_mix() {
        let mut rng = StdRng::seed_from_u64(83);
        let mut circuit = Circuit::new(2);
        circuit.push(
            Instruction::new(vec![0, 1], haar_unitary(4, &mut rng), "U").with_error_rate(1.0),
        );
        let est = trajectory_probabilities(&circuit, &NoiseModel::NOISELESS, 8000, &mut rng);
        for p in est {
            assert!((p - 0.25).abs() < 0.03, "p = {p}");
        }
    }

    #[test]
    fn trajectory_states_stay_normalised() {
        let mut rng = StdRng::seed_from_u64(84);
        let circuit = sample_circuit(4, &mut rng, 0.2);
        for _ in 0..20 {
            let s = run_trajectory(&circuit, &NoiseModel::NOISELESS, &mut rng);
            assert!((s.norm_sqr() - 1.0).abs() < 1e-10);
        }
    }
}
