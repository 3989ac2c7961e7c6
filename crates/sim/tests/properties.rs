//! Property-based tests for the simulators.

use ashn_math::randmat::{haar_su, haar_unitary};
use ashn_sim::{Circuit, DensityMatrix, Instruction, NoiseModel, Simulate, StateVector};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_circuit(n: usize, gates: usize, rng: &mut StdRng) -> Circuit {
    let mut c = Circuit::new(n);
    for _ in 0..gates {
        if rng.gen::<bool>() && n >= 2 {
            let a = rng.gen_range(0..n);
            let mut b = rng.gen_range(0..n);
            while b == a {
                b = rng.gen_range(0..n);
            }
            c.push(Instruction::new(vec![a, b], haar_unitary(4, rng), "2q"));
        } else {
            let q = rng.gen_range(0..n);
            c.push(Instruction::new(vec![q], haar_su(2, rng), "1q"));
        }
    }
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn statevector_stays_normalised(seed in 0u64..500, n in 2usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let c = random_circuit(n, 8, &mut rng);
        let s = c.run_pure();
        prop_assert!((s.norm_sqr() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn probabilities_sum_to_one(seed in 0u64..500, n in 2usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let c = random_circuit(n, 6, &mut rng);
        let p: f64 = c.run_pure().probabilities().iter().sum();
        prop_assert!((p - 1.0).abs() < 1e-9);
    }

    #[test]
    fn density_matches_statevector_when_noiseless(seed in 0u64..200, n in 2usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let c = random_circuit(n, 6, &mut rng);
        let pure = c.run_pure().probabilities();
        let rho = c.run_noisy(&NoiseModel::NOISELESS).probabilities();
        for (a, b) in pure.iter().zip(rho.iter()) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn noise_preserves_trace_and_reduces_purity(
        seed in 0u64..200,
        p2 in 0.005f64..0.2,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let c = random_circuit(3, 6, &mut rng);
        let noise = NoiseModel { one_qubit: 0.001, two_qubit: p2 };
        let rho = c.run_noisy(&noise);
        prop_assert!((rho.trace() - 1.0).abs() < 1e-8);
        if c.entangler_count() > 0 {
            prop_assert!(rho.purity() < 1.0 + 1e-12);
        }
    }

    #[test]
    fn gate_order_matters_only_when_overlapping(seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let u1 = haar_unitary(4, &mut rng);
        let u2 = haar_unitary(4, &mut rng);
        // Disjoint supports commute.
        let mut a = StateVector::zero(4);
        a.apply(&[0, 1], &u1);
        a.apply(&[2, 3], &u2);
        let mut b = StateVector::zero(4);
        b.apply(&[2, 3], &u2);
        b.apply(&[0, 1], &u1);
        for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
            prop_assert!((*x - *y).abs() < 1e-10);
        }
    }

    #[test]
    fn partial_depolarizing_interpolates(p in 0.0f64..1.0) {
        // Purity of a depolarized pure state interpolates monotonically.
        let mut rho = DensityMatrix::zero(2);
        rho.depolarize(&[0, 1], p);
        let purity = rho.purity();
        prop_assert!(purity <= 1.0 + 1e-12);
        prop_assert!(purity >= 0.25 - 1e-12);
        if p > 0.0 && p < 1.0 {
            prop_assert!(purity < 1.0 && purity > 0.25);
        }
    }
}
