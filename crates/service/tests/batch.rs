//! The batch engine: worker-count bit-invariance, batch-wide dedup, the
//! warm-cache speedup, and end-to-end `compile_batch` correctness.

mod common;

use ashn_gates::single::h;
use ashn_ir::{Circuit, Instruction};
use ashn_math::randmat::haar_unitary;
use ashn_math::{c, CMat};
use ashn_route::Grid;
use ashn_service::{
    CompileRequest, CompileService, OptLevel, ServiceError, ServiceStats, ShardedCache,
};
use ashn_sim::Simulate;
use ashn_synth::basis::AshnBasis;
use common::{dressed, fingerprint, ExactBasis};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::f64::consts::PI;
use std::time::{Duration, Instant};

fn target_pool(bases: usize, per_base: usize, seed: u64) -> Vec<CMat> {
    let mut rng = StdRng::seed_from_u64(seed);
    let base: Vec<CMat> = (0..bases).map(|_| haar_unitary(4, &mut rng)).collect();
    let mut pool = Vec::new();
    for i in 0..bases * per_base {
        let b = &base[i % bases];
        pool.push(match i / bases {
            0 => b.clone(),
            1 => b.clone(), // exact repeat
            _ => dressed(b, &mut rng),
        });
    }
    pool
}

/// The acceptance-critical invariant: one batch, any worker count, the
/// same bits out — with the real (numerical EA) AshN basis.
#[test]
fn batch_output_is_bit_identical_across_worker_counts() {
    let targets = target_pool(4, 5, 0xbeef);
    let mut runs: Vec<Vec<Vec<u64>>> = Vec::new();
    for workers in [1usize, 4, 16] {
        // Fresh cache per run: cache state differences may change *speed*
        // but must never change bits.
        let service =
            CompileService::with_cache(AshnBasis::with_cutoff(0.0, 1.1), ShardedCache::new())
                .workers(workers);
        let batch = service.synthesize_batch(&targets);
        assert_eq!(batch.stats.workers, workers);
        assert_eq!(batch.stats.unique_classes, 4);
        let prints: Vec<Vec<u64>> = batch
            .circuits
            .iter()
            .map(|c| fingerprint(c.as_ref().expect("synthesis")))
            .collect();
        runs.push(prints);
    }
    assert_eq!(runs[0], runs[1], "1 worker vs 4 workers diverged");
    assert_eq!(runs[0], runs[2], "1 worker vs 16 workers diverged");
}

/// `workers(0)` means the pool's default, and the stats report the count
/// the pool actually ran, not the raw setting.
#[test]
fn zero_workers_report_the_pool_default() {
    let service = CompileService::new(ExactBasis).workers(0);
    let batch = service.synthesize_batch(&target_pool(2, 2, 0x5eed));
    assert_eq!(batch.stats.workers, ashn_core::par::default_workers());
    assert!(batch.circuits.iter().all(Result::is_ok));
}

#[test]
fn batch_dedup_and_tiers_account_for_every_target() {
    let targets = target_pool(3, 6, 0xfeed);
    let service = CompileService::new(ExactBasis).workers(4);
    let batch = service.synthesize_batch(&targets);
    let stats = batch.stats;
    assert_eq!(stats.requests, targets.len());
    assert_eq!(stats.targets, targets.len());
    assert_eq!(stats.unique_classes, 3);
    assert_eq!(stats.cold_classes, 3);
    assert_eq!(stats.warm_classes, 0);
    assert_eq!(
        stats.exact_hits + stats.class_hits + stats.cold_serves + stats.failed,
        targets.len() as u64
    );
    assert_eq!(stats.cold_serves, 3, "one cold serve per unique class");
    assert_eq!(stats.failed, 0);
    assert!(stats.dedup_ratio() > 5.9);
    for (circuit, target) in batch.circuits.iter().zip(&targets) {
        assert!(circuit.as_ref().expect("synthesis").error(target) < 1e-12);
    }

    // Second pass over the same targets: everything is warm now.
    let batch2 = service.synthesize_batch(&targets);
    assert_eq!(batch2.stats.warm_classes, 3);
    assert_eq!(batch2.stats.cold_classes, 0);
    assert_eq!(batch2.stats.cold_serves, 0);
}

/// A warm cache must beat cold synthesis by a wide margin on the real EA
/// basis — the entire point of sharing the cache across batches.
#[test]
fn warm_batch_is_much_faster_than_cold() {
    let targets = target_pool(12, 2, 0xcafe);
    let service = CompileService::with_cache(AshnBasis::with_cutoff(0.0, 1.1), ShardedCache::new());

    let t0 = Instant::now();
    let cold = service.synthesize_batch(&targets);
    let cold_time = t0.elapsed();
    assert_eq!(cold.stats.cold_classes, 12);

    // Best of three warm passes: a single pass can be slowed by unrelated
    // test binaries saturating the machine, and the claim under test is
    // about the work a warm batch *avoids*, not scheduler luck.
    let mut warm_time = Duration::MAX;
    let mut warm = None;
    for _ in 0..3 {
        let t1 = Instant::now();
        let pass = service.synthesize_batch(&targets);
        warm_time = warm_time.min(t1.elapsed());
        assert_eq!(pass.stats.cold_classes, 0);
        assert_eq!(pass.stats.cold_serves, 0);
        warm = Some(pass);
    }
    let warm = warm.unwrap();

    assert!(
        cold_time >= warm_time * 5,
        "warm batch not >=5x faster: cold {cold_time:?}, warm {warm_time:?}"
    );
    // Warm serving must not change the answer.
    for (c, w) in cold.circuits.iter().zip(&warm.circuits) {
        assert_eq!(
            fingerprint(c.as_ref().unwrap()),
            fingerprint(w.as_ref().unwrap())
        );
    }
}

fn random_model(n: usize, layers: usize, rng: &mut StdRng) -> Circuit {
    let mut circuit = Circuit::new(n);
    for _ in 0..layers {
        for q in 0..n {
            circuit
                .try_push(Instruction::new(vec![q], haar_unitary(2, rng), "u1"))
                .unwrap();
        }
        let a = rng.gen_range(0..n);
        let mut b = rng.gen_range(0..n);
        while b == a {
            b = rng.gen_range(0..n);
        }
        circuit
            .try_push(Instruction::new(vec![a, b], haar_unitary(4, rng), "u2"))
            .unwrap();
    }
    circuit
}

/// End-to-end `compile_batch` with the exact basis: the routed physical
/// circuit must act on the register exactly as the logical circuit does,
/// with logical qubit `l` read out at `positions[l]` and idle sites left
/// in `|0⟩`.
#[test]
fn compile_batch_preserves_circuit_semantics_through_routing() {
    let mut rng = StdRng::seed_from_u64(0x70d0);
    let requests: Vec<CompileRequest> = (0..6)
        .map(|i| CompileRequest::new(random_model(4 + (i % 3), 5, &mut rng)))
        .collect();
    let service = CompileService::new(ExactBasis).workers(4);
    let batch = service.compile_batch(&requests);
    assert_eq!(batch.stats.requests, requests.len());
    assert_eq!(batch.stats.failed, 0);

    for (req, result) in requests.iter().zip(&batch.results) {
        let result = result.as_ref().expect("compile");
        let n = req.circuit.n_qubits();
        let sites = result.circuit.n_qubits();
        let logical = req.circuit.run_pure();
        let physical = result.circuit.run_pure();
        let l_amps = logical.amplitudes();
        let p_amps = physical.amplitudes();
        // Walk every physical basis state: amplitude must match the
        // logical state at the bit-permuted index, and vanish whenever an
        // idle site is excited.
        for (idx, amp) in p_amps.iter().enumerate() {
            let mut logical_idx = 0usize;
            let mut occupied = 0usize;
            for (l, &site) in result.positions.iter().enumerate() {
                let bit = (idx >> (sites - 1 - site)) & 1;
                logical_idx |= bit << (n - 1 - l);
                occupied |= 1 << (sites - 1 - site);
            }
            let idle_excited = idx & !occupied != 0;
            let expect = if idle_excited {
                ashn_math::Complex::ZERO
            } else {
                l_amps[logical_idx]
            };
            let diff = ((amp.re - expect.re).powi(2) + (amp.im - expect.im).powi(2)).sqrt();
            assert!(
                diff < 1e-10,
                "amplitude mismatch at physical index {idx}: {diff:.3e}"
            );
        }
    }
}

#[test]
fn compile_batch_is_bit_identical_across_worker_counts() {
    let mut rng = StdRng::seed_from_u64(0xabba);
    let requests: Vec<CompileRequest> = (0..5)
        .map(|_| CompileRequest::new(random_model(4, 4, &mut rng)).opt(OptLevel::Light))
        .collect();
    let mut runs: Vec<Vec<Vec<u64>>> = Vec::new();
    for workers in [1usize, 4, 16] {
        let service = CompileService::with_cache(ExactBasis, ShardedCache::new()).workers(workers);
        let batch = service.compile_batch(&requests);
        runs.push(
            batch
                .results
                .iter()
                .map(|r| fingerprint(&r.as_ref().expect("compile").circuit))
                .collect(),
        );
    }
    assert_eq!(runs[0], runs[1]);
    assert_eq!(runs[0], runs[2]);
}

/// The textbook 9-qubit QFT (H + controlled phases, all-to-all) at
/// `OptLevel::Standard` through the AshN service. Routing merges SWAPs into
/// controlled phases, and resynthesis then meets Weyl points a few
/// nanoradians off the `x = π/4` face; every request must still compile
/// on the requested basis.
#[test]
fn ashn_standard_compiles_a_nine_qubit_qft() {
    let n = 9;
    let one = c(1.0, 0.0);
    let mut qft = Circuit::new(n);
    for j in 0..n {
        qft.push(Instruction::new(vec![j], h(), "H"));
        for k in j + 1..n {
            let theta = PI / (1u64 << (k - j)) as f64;
            let cphase = CMat::diag(&[one, one, one, c(theta.cos(), theta.sin())]);
            qft.push(Instruction::new(vec![k, j], cphase, "CP"));
        }
    }
    let service = CompileService::with_cache(AshnBasis::with_cutoff(0.0, 1.1), ShardedCache::new());
    let batch = service.compile_batch(&[CompileRequest::new(qft).opt(OptLevel::Standard)]);
    for result in &batch.results {
        let result = result.as_ref().expect("AshN Standard must compile the QFT");
        assert!(!result.degraded, "no gate may fall back to the CNOT tier");
    }
}

/// `canonical(0.56, 0.56, 0.48)` sits on the `x = y` edge, where an EA
/// polish on the Makhlin invariants stalls at a coordinate error of
/// `~1e-7`. The coordinate polish serves it on the first attempt, so the
/// retries the service would allow are never used.
#[test]
fn first_attempt_serves_an_ashn_class_on_the_x_eq_y_edge() {
    let target = ashn_gates::two::canonical(0.56, 0.56, 0.48);
    let service = CompileService::new(AshnBasis::with_cutoff(0.0, 1.1)).max_attempts(3);
    let batch = service.synthesize_batch(std::slice::from_ref(&target));
    assert!(!batch.degraded[0], "the class must not fall back to CNOT");
    assert_eq!(batch.stats.retries, 0, "the first attempt must serve");
    let circuit = batch.circuits[0].as_ref().expect("the class is served");
    assert_eq!(circuit.entangler_count(), 1);
    let err = circuit.error(&target);
    assert!(err <= 1e-11, "served error {err:.2e}");
}

#[test]
fn malformed_requests_fail_alone_without_poisoning_the_batch() {
    let mut rng = StdRng::seed_from_u64(0xbad);
    // A 3-qubit instruction is not compilable by the 1q/2q pipeline.
    let mut bad = Circuit::new(3);
    bad.try_push(Instruction::new(
        vec![0, 1, 2],
        haar_unitary(8, &mut rng),
        "u3",
    ))
    .unwrap();
    let requests = vec![
        CompileRequest::new(random_model(3, 3, &mut rng)),
        CompileRequest::new(bad),
        CompileRequest::new(random_model(3, 3, &mut rng)),
    ];
    let service = CompileService::new(ExactBasis);
    let batch = service.compile_batch(&requests);
    assert!(batch.results[0].is_ok());
    assert!(matches!(
        batch.results[1],
        Err(ServiceError::InvalidRequest { .. })
    ));
    assert!(batch.results[2].is_ok());
}

/// Rejected requests are validated away before any gate is gathered: their
/// two-qubit gates are never counted, deduplicated or synthesized.
#[test]
fn rejected_requests_prime_no_classes() {
    let mut rng = StdRng::seed_from_u64(0x5ea1);
    let valid = CompileRequest::new(random_model(3, 3, &mut rng));
    // Three qubits on a two-site grid.
    let cramped = CompileRequest::new(random_model(3, 3, &mut rng)).grid(Grid::new(1, 2));
    // A 3-qubit instruction between two 2q gates.
    let mut wide = Circuit::new(3);
    for (qubits, dim) in [(vec![0, 1], 4), (vec![0, 1, 2], 8), (vec![1, 2], 4)] {
        wide.try_push(Instruction::new(qubits, haar_unitary(dim, &mut rng), "u"))
            .unwrap();
    }
    let batch = CompileService::new(ExactBasis).compile_batch(&[
        cramped,
        valid.clone(),
        CompileRequest::new(wide),
    ]);
    assert!(matches!(batch.results[0], Err(ServiceError::Config { .. })));
    assert!(batch.results[1].is_ok());
    assert!(matches!(
        batch.results[2],
        Err(ServiceError::InvalidRequest { .. })
    ));

    let alone = CompileService::new(ExactBasis).compile_batch(&[valid]);
    let counts = |s: &ServiceStats| (s.targets, s.unique_classes, s.cold_classes);
    assert_eq!(counts(&batch.stats), counts(&alone.stats));
    assert_eq!(batch.stats.targets, 3, "one Haar 2q gate per layer");
}

#[test]
fn non_unitary_targets_are_rejected_per_target() {
    let mut rng = StdRng::seed_from_u64(0x90);
    let good = haar_unitary(4, &mut rng);
    let bad = CMat::from_fn(4, 4, |i, j| good[(i, j)] * 3.0);
    let service = CompileService::new(ExactBasis);
    let batch = service.synthesize_batch(&[good.clone(), bad, good.clone()]);
    assert!(batch.circuits[0].is_ok());
    assert!(matches!(
        batch.circuits[1],
        Err(ServiceError::InvalidRequest { .. })
    ));
    assert!(batch.circuits[2].is_ok());
    assert_eq!(batch.stats.failed, 1);
}
