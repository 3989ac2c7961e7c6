//! The closed-form retargeting rule tier inside the batch service: rule
//! serves never pay a numeric synthesis or a cache miss, store nothing,
//! are a pure function of their target in both front ends, and rule-heavy
//! batches stay bit-identical at every worker count.

mod common;

use ashn_gates::kak::weyl_coordinates;
use ashn_gates::two::{cnot, cz, ecr, iswap, swap};
use ashn_ir::{Basis, BasisMetadata, Circuit, Instruction, SynthError};
use ashn_math::randmat::haar_unitary;
use ashn_math::CMat;
use ashn_service::{CompileRequest, CompileService, ShardedCache};
use ashn_synth::basis::{CnotBasis, CzBasis, EcrBasis, SqiswBasis};
use ashn_synth::cache::{CachedBasis, ClassKey, ClassStore};
use ashn_synth::retarget::standard_rules;
use common::{dressed, fingerprint};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A CZ basis that counts every numeric synthesis call. Its identity
/// (name + params) matches [`CzBasis`], so the standard rule table's CZ
/// rules apply to it — any rule-covered target that still reaches
/// `synthesize` is a rule-tier bypass, and the counter catches it.
#[derive(Clone)]
struct CountingCz(Arc<AtomicUsize>);

impl Basis for CountingCz {
    fn name(&self) -> String {
        CzBasis.name()
    }

    fn cache_params(&self) -> String {
        CzBasis.cache_params()
    }

    fn synthesize(&self, u: &CMat) -> Result<Circuit, SynthError> {
        self.0.fetch_add(1, Ordering::SeqCst);
        CzBasis.synthesize(u)
    }

    fn expected_entanglers(&self, u: &CMat) -> usize {
        CzBasis.expected_entanglers(u)
    }

    fn metadata(&self) -> Option<BasisMetadata> {
        CzBasis.metadata()
    }
}

/// Known-gate + dressed-known-class traffic: every target the standard
/// CZ rules cover.
fn rule_covered_pool(seed: u64) -> Vec<CMat> {
    let mut rng = StdRng::seed_from_u64(seed);
    vec![
        cnot(),
        cnot(), // exact repeat
        cz(),
        ashn_gates::two::ecr(),
        swap(),
        iswap(),
        dressed(&cnot(), &mut rng),
        dressed(&iswap(), &mut rng),
        dressed(&swap(), &mut rng),
    ]
}

#[test]
fn rule_serves_never_increment_misses_nor_run_the_ea() {
    let calls = Arc::new(AtomicUsize::new(0));
    let service = CompileService::with_cache(CountingCz(calls.clone()), ShardedCache::new());
    let targets = rule_covered_pool(0x2e7a);
    let batch = service.synthesize_batch(&targets);

    for (target, circuit) in targets.iter().zip(&batch.circuits) {
        let circuit = circuit.as_ref().expect("rule serve");
        assert!(
            circuit.error(target) < 1e-12,
            "rule serve error {:.2e}",
            circuit.error(target)
        );
    }
    assert_eq!(
        calls.load(Ordering::SeqCst),
        0,
        "a rule-covered target reached the numeric synthesizer"
    );
    assert_eq!(batch.stats.rule_hits, targets.len() as u64);
    // CNOT/CZ/ECR collapse to one Weyl class; iSWAP and SWAP get one each.
    assert_eq!(batch.stats.rule_classes, 3);
    assert_eq!(
        (
            batch.stats.exact_hits,
            batch.stats.class_hits,
            batch.stats.cold_serves + batch.stats.degraded + batch.stats.failed,
            batch.stats.cold_classes,
        ),
        (0, 0, 0, 0),
        "a rule serve must never count as a numeric hit or miss"
    );
    assert!((batch.stats.hit_rate() - 1.0).abs() < 1e-15);
    assert_eq!(
        service.cache().stats().lookups(),
        0,
        "service serves are counted in ServiceStats, not as store lookups"
    );
}

#[test]
fn mixed_batch_splits_between_rule_tier_and_numeric_path() {
    let calls = Arc::new(AtomicUsize::new(0));
    let service = CompileService::with_cache(CountingCz(calls.clone()), ShardedCache::new());
    let mut rng = StdRng::seed_from_u64(0x51ab);
    let mut targets = rule_covered_pool(0x51ab);
    let rule_covered = targets.len();
    let haar: Vec<CMat> = (0..3).map(|_| haar_unitary(4, &mut rng)).collect();
    targets.extend(haar.iter().cloned());

    let batch = service.synthesize_batch(&targets);
    for (target, circuit) in targets.iter().zip(&batch.circuits) {
        assert!(circuit.as_ref().expect("serve").error(target) < 1e-5);
    }
    assert_eq!(batch.stats.rule_hits, rule_covered as u64);
    assert_eq!(batch.stats.cold_serves, haar.len() as u64);
    assert_eq!(
        calls.load(Ordering::SeqCst),
        haar.len(),
        "exactly the haar classes pay a numeric synthesis"
    );
    let expected = (rule_covered as f64) / (targets.len() as f64);
    assert!((batch.stats.hit_rate() - expected).abs() < 1e-15);
}

#[test]
fn rule_serves_store_nothing() {
    let service = CompileService::with_cache(CzBasis, ShardedCache::new());
    let mut rng = StdRng::seed_from_u64(0x5707);
    let targets = [cnot(), iswap(), dressed(&swap(), &mut rng)];
    for _ in 0..2 {
        let batch = service.synthesize_batch(&targets);
        assert_eq!(batch.stats.rule_hits, targets.len() as u64);
        assert_eq!(service.cache().len(), 0, "a rule serve wrote the cache");
    }
    // In particular the numeric class keys stay vacant: a later numeric
    // lookup can never be served a rule fragment by accident.
    for target in &targets {
        let coords = weyl_coordinates(target).canonicalize();
        let numeric = ClassKey::new(&CzBasis, coords, false);
        assert!(service.cache().fetch(&numeric).is_none());
    }
}

/// Every (known gate, target set) pair the standard rules cover: the CX,
/// CZ, ECR, SWAP and iSWAP classes over the CZ, SQiSW, CNOT and ECR
/// bases, except SWAP over SQiSW (no closed form).
fn rule_covered_pairs() -> Vec<(&'static str, CMat, &'static (dyn Basis + Sync))> {
    let bases: [&'static (dyn Basis + Sync); 4] = [&CzBasis, &SqiswBasis, &CnotBasis, &EcrBasis];
    let mut pairs = Vec::new();
    for (name, gate) in [
        ("CX", cnot()),
        ("CZ", cz()),
        ("ECR", ecr()),
        ("SWAP", swap()),
        ("iSWAP", iswap()),
    ] {
        let coords = weyl_coordinates(&gate).canonicalize();
        for basis in bases {
            if standard_rules()
                .class_rule(&basis.name(), &basis.cache_params(), coords)
                .is_some()
            {
                pairs.push((name, gate.clone(), basis));
            }
        }
    }
    pairs
}

/// A rule serve is a pure function of its target: a dressed class member
/// gets the same bits from a fresh `CachedBasis`, from one that served
/// another member first, from the service alone or after the class's
/// known gate in the same batch, and from a `CachedBasis` over a cache
/// the service filled.
#[test]
fn a_rule_serve_is_a_pure_function_of_its_target() {
    let pairs = rule_covered_pairs();
    assert_eq!(pairs.len(), 19);
    let mut rng = StdRng::seed_from_u64(0x9e4e);
    let mut moved = Vec::new();
    for &(gate, ref g, basis) in &pairs {
        let u1 = dressed(g, &mut rng);
        let u2 = dressed(g, &mut rng);
        let facade = |store: ShardedCache| {
            CachedBasis::with_store(basis, store).with_rules(standard_rules())
        };
        let bits = |served: Option<Circuit>| fingerprint(&served.expect("rule serve"));
        let serve = |batch: &[CMat], cache: ShardedCache| {
            let result = CompileService::with_cache(basis, cache).synthesize_batch(batch);
            assert_eq!(result.stats.rule_hits, batch.len() as u64);
            bits(result.circuits.last().and_then(|c| c.clone().ok()))
        };
        let fresh = bits(facade(ShardedCache::new()).synthesize(&u2).ok());

        let warmed = facade(ShardedCache::new());
        warmed.synthesize(&u1).expect("first member");
        let after_other = bits(warmed.synthesize(&u2).ok());
        let lone = serve(std::slice::from_ref(&u2), ShardedCache::new());
        let after_gate = serve(&[g.clone(), u2.clone()], ShardedCache::new());
        let filled = ShardedCache::new();
        serve(&[g.clone(), u1.clone()], filled.clone());
        let over_filled = bits(facade(filled).synthesize(&u2).ok());

        for (how, got) in [
            ("a facade after another member", after_other),
            ("a lone service serve", lone),
            ("a service serve after the known gate", after_gate),
            ("a facade over a service-filled cache", over_filled),
        ] {
            if got != fresh {
                moved.push(format!("{gate} over {}: {how}", basis.name()));
            }
        }
    }
    assert!(
        moved.is_empty(),
        "rule serves differ from a fresh facade serve: {moved:#?}"
    );
}

#[test]
fn rule_heavy_batch_is_bit_identical_across_worker_counts() {
    let mut rng = StdRng::seed_from_u64(0xb175);
    let mut targets = rule_covered_pool(0xb175);
    targets.push(haar_unitary(4, &mut rng));
    let mut runs: Vec<Vec<Vec<u64>>> = Vec::new();
    for workers in [1usize, 4, 16] {
        let service = CompileService::with_cache(CzBasis, ShardedCache::new()).workers(workers);
        let batch = service.synthesize_batch(&targets);
        assert_eq!(batch.stats.rule_hits, (targets.len() - 1) as u64);
        runs.push(
            batch
                .circuits
                .iter()
                .map(|c| fingerprint(c.as_ref().expect("serve")))
                .collect(),
        );
    }
    assert_eq!(runs[0], runs[1], "1 worker vs 4 workers diverged");
    assert_eq!(runs[0], runs[2], "1 worker vs 16 workers diverged");
}

#[test]
fn disarming_the_rule_tier_restores_the_numeric_path() {
    let calls = Arc::new(AtomicUsize::new(0));
    let service =
        CompileService::with_cache(CountingCz(calls.clone()), ShardedCache::new()).rules(None);
    let batch = service.synthesize_batch(&[cnot(), iswap()]);
    assert_eq!(batch.stats.rule_hits, 0);
    assert_eq!(batch.stats.cold_serves, 2);
    assert_eq!(calls.load(Ordering::SeqCst), 2);
    for (target, circuit) in [cnot(), iswap()].iter().zip(&batch.circuits) {
        assert!(circuit.as_ref().expect("serve").error(target) < 1e-9);
    }
}

#[test]
fn compile_batch_reports_rule_hits_through_the_router() {
    let service = CompileService::with_cache(CzBasis, ShardedCache::new());
    let mut circuit = Circuit::new(4);
    for (a, b) in [(0usize, 1usize), (1, 2), (2, 3), (0, 3)] {
        circuit
            .try_push(Instruction::new(vec![a, b], cnot(), "cx"))
            .expect("push");
    }
    let batch = service.compile_batch(&[CompileRequest::new(circuit.clone())]);
    let result = batch.results[0].as_ref().expect("compile");
    assert_eq!(batch.stats.rule_hits, 4);
    assert_eq!(batch.stats.cold_serves, 0);
    // Routed circuit realizes the logical circuit on the final layout.
    assert!(result.circuit.n_qubits() >= 4);
}
