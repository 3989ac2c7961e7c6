//! Determinism contract of the parallel batch runner: for a fixed master
//! seed, every statistic must be bit-identical regardless of how many
//! workers the batch is fanned across (1, 2, 8), and equal to the golden
//! values pinned below.

use ashn_math::randmat::haar_unitary;
use ashn_sim::trajectory::trajectory_probabilities_batched;
use ashn_sim::{BatchRunner, Circuit, Instruction, NoiseModel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn noisy_circuit(n: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut circuit = Circuit::new(n);
    for layer in 0..4 {
        for q in 0..n - 1 {
            if (q + layer) % 2 == 0 {
                circuit.push(
                    Instruction::new(vec![q, q + 1], haar_unitary(4, &mut rng), "U")
                        .with_error_rate(0.05),
                );
            }
        }
    }
    circuit
}

#[test]
fn batch_runner_statistics_are_worker_count_invariant() {
    // A Monte-Carlo style reduction over per-job RNG streams.
    let estimate = |workers: usize| -> Vec<f64> {
        BatchRunner::new(424242)
            .with_workers(workers)
            .run(24, |i, rng| {
                (0..50 + i).map(|_| rng.gen::<f64>()).sum::<f64>()
            })
    };
    let reference = estimate(1);
    for workers in [2, 8] {
        assert_eq!(estimate(workers), reference, "workers = {workers}");
    }
}

#[test]
fn batched_trajectory_probabilities_are_worker_count_invariant() {
    let circuit = noisy_circuit(4, 7);
    let reference = trajectory_probabilities_batched(&circuit, &NoiseModel::NOISELESS, 200, 99, 1);
    for workers in [2, 8] {
        let got =
            trajectory_probabilities_batched(&circuit, &NoiseModel::NOISELESS, 200, 99, workers);
        assert_eq!(got, reference, "workers = {workers}");
    }
    // Sanity: the estimate is a probability distribution.
    let total: f64 = reference.iter().sum();
    assert!((total - 1.0).abs() < 1e-9);
}

#[test]
fn batched_trajectories_converge_like_the_serial_estimator() {
    // Same ensemble size, different RNG plumbing — both must approximate
    // the same distribution.
    let circuit = noisy_circuit(3, 8);
    let mut rng = StdRng::seed_from_u64(10);
    let serial = ashn_sim::trajectory::trajectory_probabilities(
        &circuit,
        &NoiseModel::NOISELESS,
        4000,
        &mut rng,
    );
    let batched = trajectory_probabilities_batched(&circuit, &NoiseModel::NOISELESS, 4000, 11, 4);
    let linf = serial
        .iter()
        .zip(batched.iter())
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(linf < 0.03, "serial vs batched deviation {linf}");
}

#[test]
fn master_seed_changes_the_ensemble() {
    let circuit = noisy_circuit(3, 9);
    let a = trajectory_probabilities_batched(&circuit, &NoiseModel::NOISELESS, 50, 1, 4);
    let b = trajectory_probabilities_batched(&circuit, &NoiseModel::NOISELESS, 50, 2, 4);
    assert_ne!(a, b);
}

/// Golden values: comparing worker counts with each other cannot see a
/// seed-derivation change that shifts every count alike, so the job
/// streams and one small noisy ensemble are pinned bit for bit.
#[test]
fn job_streams_and_ensembles_match_golden_values() {
    const STREAMS: [u64; 8] = [
        0xde5a_8312_db6d_cfc3,
        0xe24c_5880_61ba_a2ff,
        0xebc7_881a_93da_ed3b,
        0x0a04_c10f_c39b_6ad1,
        0x0e5b_4766_aa2a_9e78,
        0x439d_9cee_c728_b425,
        0xcb33_b1ce_4e7e_bfcc,
        0x09ea_8783_9ff4_4b3a,
    ];
    const PROBABILITIES: [u64; 8] = [
        0x3fb1_7416_1e16_d0f5,
        0x3fd6_de34_00e2_cb61,
        0x3fa1_72ce_6ed4_a350,
        0x3fb0_5632_eeb0_c83f,
        0x3fd1_7bdd_97e5_2992,
        0x3fb1_9e9e_f7eb_0be9,
        0x3fa1_ce22_9e93_9c57,
        0x3fb9_8e59_1179_671e,
    ];
    let circuit = noisy_circuit(3, 7);
    for workers in [1, 3] {
        let streams = BatchRunner::new(42)
            .with_workers(workers)
            .run(8, |_, rng| rng.gen::<u64>());
        assert_eq!(streams, STREAMS, "workers = {workers}");
        let bits: Vec<u64> =
            trajectory_probabilities_batched(&circuit, &NoiseModel::NOISELESS, 64, 5, workers)
                .iter()
                .map(|p| p.to_bits())
                .collect();
        assert_eq!(bits, PROBABILITIES, "workers = {workers}");
    }
}
