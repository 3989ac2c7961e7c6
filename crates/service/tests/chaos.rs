//! Chaos suite: drives the compile service through deterministic injected
//! faults — synthesis failures, worker panics, cache corruption, EA
//! non-convergence, persistence I/O errors — and checks the graceful-
//! degradation contract: every request resolves, degraded serves are
//! flagged, every returned circuit verifies, and the process never aborts.
//!
//! Compiled only under `--features fault-injection`; the failpoint registry
//! is process-global, so every test here holds `fault::exclusive()` for its
//! whole body and `reset()`s when done.
#![cfg(feature = "fault-injection")]

mod common;

use ashn_ir::{Basis, Circuit, Instruction, SynthError};
use ashn_math::fault::{self, FaultMode};
use ashn_math::randmat::haar_unitary;
use ashn_math::CMat;
use ashn_service::{CompileRequest, CompileService, ShardedCache};
use ashn_synth::basis::{AshnBasis, CzBasis};
use ashn_synth::ClassKey;
use common::{dressed, fingerprint, ExactBasis};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A machine-precision basis with an injectable failure: the
/// `chaos::basis::synthesize` failpoint makes cold synthesis fail on
/// demand, so retry/fallback paths can be driven without a fragile
/// numerical setup. When it does synthesize, it is exact (1e-12), so any
/// verification failure downstream is the service's fault.
struct FlakyExact;

impl Basis for FlakyExact {
    fn name(&self) -> String {
        "FlakyExact".into()
    }

    fn cache_params(&self) -> String {
        "v=1".into()
    }

    fn synthesize(&self, u: &CMat) -> Result<Circuit, SynthError> {
        if ashn_math::failpoint!("chaos::basis::synthesize") {
            return Err(SynthError::Convergence {
                basis: self.name(),
                detail: "injected fault: chaos::basis::synthesize".into(),
            });
        }
        ExactBasis.synthesize(u)
    }

    fn expected_entanglers(&self, u: &CMat) -> usize {
        ExactBasis.expected_entanglers(u)
    }
}

/// ≥200 random SU(4) targets with batch-internal structure: Haar bases plus
/// dressed same-class variants, so exact hits, class hits, and cold serves
/// all occur under fire.
fn chaos_targets(seed: u64) -> Vec<CMat> {
    let mut rng = StdRng::seed_from_u64(seed);
    let bases: Vec<CMat> = (0..60).map(|_| haar_unitary(4, &mut rng)).collect();
    let mut pool = Vec::new();
    for base in &bases {
        pool.push(base.clone());
        pool.push(dressed(base, &mut rng));
        pool.push(dressed(base, &mut rng));
        pool.push(base.clone()); // exact repeat
    }
    assert!(pool.len() >= 200);
    pool
}

/// The acceptance-criteria drill: synthesis failures, worker panics, and
/// cache corruption injected at 10–30% rates over 240 targets. Every
/// request must resolve to a verified circuit, with degradation flagged —
/// and the batch must not abort.
#[test]
fn chaos_batch_survives_mixed_fault_rates() {
    let _guard = fault::exclusive();
    fault::reset();
    fault::configure(
        "chaos::basis::synthesize",
        FaultMode::Probability { p: 0.3, seed: 1 },
    );
    fault::configure(
        "core::par::task",
        FaultMode::Probability { p: 0.15, seed: 2 },
    );
    fault::configure(
        "service::cache::serve",
        FaultMode::Probability { p: 0.1, seed: 3 },
    );

    let targets = chaos_targets(0xc4a05);
    let service = CompileService::with_cache(FlakyExact, ShardedCache::new())
        .workers(4)
        .max_attempts(3)
        .verify_tol(1e-9);
    let batch = service.synthesize_batch(&targets);

    // Chaos actually happened.
    assert!(fault::fires("chaos::basis::synthesize") > 0);
    assert!(fault::fires("core::par::task") > 0);
    assert!(fault::fires("service::cache::serve") > 0);
    fault::reset();

    assert_eq!(batch.circuits.len(), targets.len());
    assert_eq!(batch.degraded.len(), targets.len());
    let mut degraded = 0u64;
    for (i, (target, circuit)) in targets.iter().zip(&batch.circuits).enumerate() {
        let circuit = circuit
            .as_ref()
            .unwrap_or_else(|e| panic!("request {i} failed under chaos: {e}"));
        let err = circuit.error(target);
        assert!(
            err <= 1e-9,
            "request {i} served a circuit off by {err:.2e} (degraded: {})",
            batch.degraded[i]
        );
        degraded += u64::from(batch.degraded[i]);
    }
    assert_eq!(
        batch.stats.degraded, degraded,
        "degraded flags mismatch stats"
    );
    // With a 30% per-attempt synthesis fault rate over 60 classes, retries
    // and at least some quarantines must have been paid.
    assert!(batch.stats.retries > 0, "no retries recorded");
    assert!(
        batch.stats.quarantined > 0,
        "serve-poisoning never quarantined"
    );
    assert!(batch.stats.worker_panics > 0, "no worker panics recorded");
}

/// Same faults, `compile_batch` surface: whole circuits go in, every
/// request comes back with its `degraded` flag and amplitude-exact
/// semantics for the gates that were served.
#[test]
fn chaos_compile_batch_flags_degraded_requests() {
    let _guard = fault::exclusive();
    fault::reset();
    fault::configure(
        "chaos::basis::synthesize",
        FaultMode::Probability { p: 0.3, seed: 7 },
    );
    fault::configure(
        "core::par::task",
        FaultMode::Probability { p: 0.1, seed: 8 },
    );

    let mut rng = StdRng::seed_from_u64(0xfade);
    let requests: Vec<CompileRequest> = (0..24)
        .map(|_| CompileRequest::new(random_model(4, 4, &mut rng)))
        .collect();
    let service = CompileService::with_cache(FlakyExact, ShardedCache::new())
        .workers(4)
        .max_attempts(3)
        .verify_tol(1e-9);
    let batch = service.compile_batch(&requests);
    assert!(fault::fires("chaos::basis::synthesize") > 0);
    fault::reset();

    assert_eq!(batch.results.len(), requests.len());
    for (i, result) in batch.results.iter().enumerate() {
        let result = result
            .as_ref()
            .unwrap_or_else(|e| panic!("request {i} failed under chaos: {e}"));
        assert!(result.circuit.n_qubits() >= requests[i].circuit.n_qubits());
    }
    let flagged = batch
        .results
        .iter()
        .filter(|r| r.as_ref().is_ok_and(|c| c.degraded))
        .count() as u64;
    assert!(
        batch.stats.degraded >= flagged,
        "per-request degraded flags exceed the stats counter"
    );
}

/// With the feature compiled in but no failpoint armed, the resilience
/// machinery must be invisible: bit-identical output across worker counts
/// and zero degraded/quarantined/panicked serves.
#[test]
fn zero_faults_output_is_bit_identical_across_worker_counts() {
    let _guard = fault::exclusive();
    fault::reset();

    let targets = chaos_targets(0xfa17);
    let mut runs: Vec<Vec<Vec<u64>>> = Vec::new();
    for workers in [1usize, 4, 16] {
        let service = CompileService::with_cache(FlakyExact, ShardedCache::new())
            .workers(workers)
            .max_attempts(3)
            .verify_tol(1e-9);
        let batch = service.synthesize_batch(&targets);
        assert_eq!(batch.stats.degraded, 0);
        assert_eq!(batch.stats.quarantined, 0);
        assert_eq!(batch.stats.worker_panics, 0);
        assert!(batch.degraded.iter().all(|&d| !d));
        runs.push(
            batch
                .circuits
                .iter()
                .map(|c| fingerprint(c.as_ref().expect("no faults")))
                .collect(),
        );
    }
    assert_eq!(runs[0], runs[1], "1 vs 4 workers diverged");
    assert_eq!(runs[0], runs[2], "1 vs 16 workers diverged");
}

/// EA non-convergence injected into the real AshN pipeline. The scheme
/// cascade (and, when that also dies, the CNOT degradation tier) must
/// still produce a verified circuit for every target.
#[test]
fn ea_nonconvergence_degrades_ashn_targets_gracefully() {
    let _guard = fault::exclusive();
    fault::reset();
    fault::configure("core::ea::convergence", FaultMode::Always);

    // Weyl classes with `x < y + z`: the EA faces bind, so the scheme
    // cascade tries `ashn_ea_search` first and the failpoint is guaranteed
    // to be exercised. Dressings vary the unitary within each class.
    let mut rng = StdRng::seed_from_u64(0xea);
    let coords = [
        (0.70, 0.65, 0.55),
        (0.60, 0.55, 0.50),
        (0.75, 0.70, 0.60),
        (0.50, 0.45, 0.40),
    ];
    let mut targets: Vec<CMat> = Vec::new();
    for &(x, y, z) in &coords {
        let base = ashn_gates::two::canonical(x, y, z);
        targets.push(dressed(&base, &mut rng));
        targets.push(dressed(&base, &mut rng));
    }
    let service = CompileService::with_cache(AshnBasis::with_cutoff(0.0, 1.1), ShardedCache::new())
        .workers(2)
        .max_attempts(2)
        .verify_tol(1e-3);
    let batch = service.synthesize_batch(&targets);
    assert!(
        fault::fires("core::ea::convergence") > 0,
        "EA search was never reached ({} calls)",
        fault::calls("core::ea::convergence")
    );
    fault::reset();

    for (i, (target, circuit)) in targets.iter().zip(&batch.circuits).enumerate() {
        let circuit = circuit
            .as_ref()
            .unwrap_or_else(|e| panic!("target {i} failed under EA chaos: {e}"));
        let tol = if batch.degraded[i] { 1e-9 } else { 1e-3 };
        let err = circuit.error(target);
        assert!(err <= tol, "target {i} off by {err:.2e} (tol {tol:.0e})");
    }
}

/// Persistence failpoints: save surfaces a clean I/O error, load degrades
/// to a cold start with the injected reason, and both recover once the
/// faults are cleared.
#[test]
fn persistence_failpoints_error_and_cold_start_cleanly() {
    let _guard = fault::exclusive();
    fault::reset();

    let mut rng = StdRng::seed_from_u64(0xd15c);
    let cache = ShardedCache::with_config(2, 16);
    let service = CompileService::with_cache(ExactBasis, cache.clone()).workers(2);
    let targets: Vec<CMat> = (0..3).map(|_| haar_unitary(4, &mut rng)).collect();
    service.synthesize_batch(&targets);
    assert!(!cache.is_empty());

    let mut path = std::env::temp_dir();
    path.push(format!("ashn-service-chaos-{}.cache", std::process::id()));

    fault::configure("service::persist::save", FaultMode::Always);
    let err = cache.save(&path).expect_err("injected save fault");
    assert!(err.to_string().contains("injected fault"));
    fault::clear("service::persist::save");

    cache.save(&path).expect("save succeeds once cleared");
    fault::configure("service::persist::load", FaultMode::Always);
    let fresh = ShardedCache::with_config(2, 16);
    let report = fresh.warm_start(&path);
    assert!(!report.is_warm());
    assert!(fresh.is_empty(), "faulted load must leave the cache cold");
    fault::clear("service::persist::load");

    let report = fresh.warm_start(&path);
    assert!(report.is_warm(), "load succeeds once cleared");
    assert_eq!(report.loaded, cache.len());
    fault::reset();
    std::fs::remove_file(&path).ok();
}

/// Cache-corruption quarantine: a poisoned serve must evict the entry,
/// resynthesize privately, and count the quarantine — and the served
/// circuit must still verify.
#[test]
fn poisoned_serves_quarantine_and_still_verify() {
    let _guard = fault::exclusive();
    fault::reset();

    let mut rng = StdRng::seed_from_u64(0xbadc);
    let base = haar_unitary(4, &mut rng);
    let targets = vec![base.clone(), dressed(&base, &mut rng), base.clone()];
    let cache = ShardedCache::new();
    let service = CompileService::with_cache(ExactBasis, cache.clone())
        .workers(1)
        .max_attempts(3)
        .verify_tol(1e-9);

    // Warm the cache, then poison every subsequent serve-verification.
    service.synthesize_batch(&targets);
    let evictions_before = cache.stats().evictions;
    fault::configure("service::cache::serve", FaultMode::Always);
    let batch = service.synthesize_batch(&targets);
    fault::reset();

    assert!(
        batch.stats.quarantined > 0,
        "poisoned serves never quarantined"
    );
    assert!(
        cache.stats().evictions > evictions_before,
        "quarantine must evict the poisoned entry"
    );
    for (target, circuit) in targets.iter().zip(&batch.circuits) {
        let circuit = circuit.as_ref().expect("quarantine path must recover");
        assert!(circuit.error(target) <= 1e-9);
    }
}

/// A rule-tier serve lives under the namespaced rule key: quarantining it
/// must evict that entry, not the numeric entry a rule-free service stored
/// for the same class.
#[test]
fn rule_tier_quarantine_evicts_the_rule_entry() {
    let _guard = fault::exclusive();
    fault::reset();

    let target = ashn_gates::two::cnot();
    let cache = ShardedCache::new();
    let keys = |cache: &ShardedCache| -> Vec<ClassKey> {
        cache.export_entries().into_iter().map(|(k, _)| k).collect()
    };
    CompileService::with_cache(CzBasis, cache.clone())
        .rules(None)
        .synthesize_batch(std::slice::from_ref(&target));
    let numeric = keys(&cache);
    assert_eq!(
        numeric.len(),
        1,
        "the rule-free warm-up stores one numeric entry"
    );

    fault::configure("service::cache::serve", FaultMode::Always);
    let batch = CompileService::with_cache(CzBasis, cache.clone())
        .synthesize_batch(std::slice::from_ref(&target));
    fault::reset();

    assert_eq!(batch.stats.quarantined, 1);
    let circuit = batch.circuits[0]
        .as_ref()
        .expect("quarantine path must recover");
    assert!(circuit.error(&target) <= 1e-9);
    let left = keys(&cache);
    assert!(
        left.contains(&numeric[0]),
        "quarantine evicted the numeric entry the serve never read"
    );
    assert!(
        !left.iter().any(|k| k.params.starts_with("rule[")),
        "the rule entry the serve read survived its quarantine"
    );
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
