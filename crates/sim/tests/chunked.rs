//! Chunked-kernel determinism suite: per-op amplitude-parallel execution
//! is **bit-identical** at 1/2/8 workers (the fixed chunk grid never
//! depends on the worker count) and matches the scalar instruction walk at
//! `1e-12` on large registers (n = 16…20) — the same guarantee the
//! `BatchRunner` determinism suite pins for trajectory ensembles, one
//! level down. Batched 16-qubit ensembles agree bit for bit at any worker
//! count, with fewer trajectory chunks than workers and with more.

use ashn_math::randmat::haar_unitary;
use ashn_math::{c, CMat, Complex};
use ashn_sim::plan::ExecPlan;
use ashn_sim::trajectory::trajectory_probabilities_batched_plan;
use ashn_sim::{ChunkPolicy, Circuit, Instruction, NoiseModel, SimEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn cz() -> CMat {
    CMat::diag(&[Complex::ONE, Complex::ONE, Complex::ONE, c(-1.0, 0.0)])
}

/// A shallow circuit exercising every kernel class on a large register:
/// dense/diagonal 1q, Paulis, dense 2q, CZ, and ZZ on far-apart wires.
fn wide_circuit(n: usize, rate: Option<f64>, rng: &mut StdRng) -> Circuit {
    let mut circuit = Circuit::new(n);
    circuit.phase = Complex::cis(rng.gen::<f64>());
    let push = |c: &mut Circuit, g: Instruction| {
        c.push(match rate {
            Some(p) => g.with_error_rate(p),
            None => g,
        });
    };
    for q in [0, 1, n / 2, n - 2, n - 1] {
        match q % 3 {
            0 => push(
                &mut circuit,
                Instruction::new(vec![q], haar_unitary(2, rng), "1q"),
            ),
            1 => push(
                &mut circuit,
                Instruction::new(
                    vec![q],
                    CMat::diag(&[
                        Complex::cis(rng.gen::<f64>()),
                        Complex::cis(rng.gen::<f64>()),
                    ]),
                    "Rz",
                ),
            ),
            _ => push(
                &mut circuit,
                Instruction::new(
                    vec![q],
                    CMat::from_rows_f64(&[&[0.0, 1.0], &[1.0, 0.0]]),
                    "X",
                ),
            ),
        }
    }
    // Two-qubit ops across the register: adjacent low bits, straddling the
    // middle, the extreme pair (stressing every chunk-boundary shape).
    push(
        &mut circuit,
        Instruction::new(vec![0, 1], haar_unitary(4, rng), "U"),
    );
    push(
        &mut circuit,
        Instruction::new(vec![n / 2, n / 2 + 1], cz(), "CZ"),
    );
    push(
        &mut circuit,
        Instruction::new(vec![n - 1, 0], haar_unitary(4, rng), "Ufar"),
    );
    circuit
}

#[test]
fn pure_chunked_execution_is_bit_identical_at_1_2_8_workers() {
    for n in [16usize, 18, 20] {
        let mut rng = StdRng::seed_from_u64(7_000 + n as u64);
        let circuit = wide_circuit(n, None, &mut rng);
        let plan = ExecPlan::pure(&circuit).unwrap();

        let mut scalar = SimEngine::new(n).with_chunk_policy(ChunkPolicy::scalar());
        scalar.run_plan(&plan);
        let reference: Vec<u64> = scalar
            .amplitudes()
            .iter()
            .flat_map(|a| [a.re.to_bits(), a.im.to_bits()])
            .collect();

        for workers in [1usize, 2, 8] {
            let mut engine =
                SimEngine::new(n).with_chunk_policy(ChunkPolicy::with_workers(workers));
            engine.run_plan(&plan);
            let got: Vec<u64> = engine
                .amplitudes()
                .iter()
                .flat_map(|a| [a.re.to_bits(), a.im.to_bits()])
                .collect();
            assert!(got == reference, "n={n} workers={workers} diverged");
        }

        // And the chunked result matches the scalar instruction walk to
        // round-off (fusion reorders arithmetic, so 1e-12, not bits).
        let mut threaded = SimEngine::new(n).with_chunk_policy(ChunkPolicy::with_workers(8));
        threaded.run_plan(&plan);
        let mut walk = SimEngine::new(n).with_chunk_policy(ChunkPolicy::scalar());
        walk.run_pure_walk(&circuit);
        for (a, b) in threaded.amplitudes().iter().zip(walk.amplitudes()) {
            assert!((*a - *b).abs() < 1e-12, "n={n}: chunked vs walk");
        }
    }
}

#[test]
fn noisy_chunked_trajectories_are_bit_identical_at_1_2_8_workers() {
    let n = 16usize;
    let mut rng = StdRng::seed_from_u64(7_100);
    let circuit = wide_circuit(n, Some(0.25), &mut rng);
    let plan = ExecPlan::build(&circuit, &NoiseModel::NOISELESS).unwrap();

    let run = |workers: usize| {
        let mut engine = SimEngine::new(n).with_chunk_policy(ChunkPolicy::with_workers(workers));
        let mut rng = StdRng::seed_from_u64(42);
        let mut bits = Vec::new();
        for _ in 0..3 {
            engine.run_plan_trajectory(&plan, &mut rng);
            bits.extend(
                engine
                    .amplitudes()
                    .iter()
                    .flat_map(|a| [a.re.to_bits(), a.im.to_bits()]),
            );
        }
        // The RNG position must not depend on the worker count either.
        bits.push(rng.gen::<u64>());
        bits
    };

    let reference = run(1);
    for workers in [2usize, 8] {
        assert!(run(workers) == reference, "workers={workers} diverged");
    }
}

#[test]
fn batched_ensembles_are_bit_identical_across_worker_counts() {
    // 1/2/3 trajectories at 8 workers (and 1 at 2) leave workers without
    // a chunk of their own; 8 trajectories give every worker at least one.
    // However the ensemble splits its work, the estimate must not depend
    // on the worker count.
    let n = 16usize;
    let mut rng = StdRng::seed_from_u64(7_300);
    let circuit = wide_circuit(n, Some(0.25), &mut rng);
    let plan = ExecPlan::build(&circuit, &NoiseModel::NOISELESS).unwrap();
    for n_traj in [1usize, 2, 3, 8] {
        let bits = |workers: usize| -> Vec<u64> {
            trajectory_probabilities_batched_plan(&plan, n_traj, 99, workers)
                .iter()
                .map(|p| p.to_bits())
                .collect()
        };
        let reference = bits(1);
        for workers in [2usize, 8] {
            assert!(
                bits(workers) == reference,
                "n_traj={n_traj} workers={workers} diverged"
            );
        }
    }
}

#[test]
fn below_threshold_registers_stay_scalar_but_policies_agree_anyway() {
    // n < MIN_PARALLEL_QUBITS: every policy resolves to one worker, and
    // the result is the same state regardless of the requested count.
    let n = 8usize;
    assert!(n < ChunkPolicy::MIN_PARALLEL_QUBITS);
    let mut rng = StdRng::seed_from_u64(7_200);
    let circuit = wide_circuit(n, None, &mut rng);
    let plan = ExecPlan::pure(&circuit).unwrap();
    let mut a = SimEngine::new(n).with_chunk_policy(ChunkPolicy::scalar());
    let mut b = SimEngine::new(n).with_chunk_policy(ChunkPolicy::with_workers(8));
    assert_eq!(ChunkPolicy::with_workers(8).effective_workers(n), 1);
    a.run_plan(&plan);
    b.run_plan(&plan);
    for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
        assert_eq!(x.re.to_bits(), y.re.to_bits());
        assert_eq!(x.im.to_bits(), y.im.to_bits());
    }
}
