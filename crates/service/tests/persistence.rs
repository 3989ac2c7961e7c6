//! Persistence: the on-disk cache format must round-trip losslessly (to
//! the last bit of every `f64`), key entries by scheme parameters so
//! different schemes never cross-hit after a reload, and degrade to a
//! cold start — never an error — on missing, corrupt, or
//! version-mismatched files.

mod common;

use ashn_gates::kak::weyl_coordinates;
use ashn_ir::Basis;
use ashn_math::randmat::haar_unitary;
use ashn_math::CMat;
use ashn_service::{CompileService, LoadOutcome, ShardedCache, HEADER};
use ashn_synth::basis::AshnBasis;
use ashn_synth::cache::{CachedBasis, ClassKey, ClassStore};
use common::ExactBasis;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::OnceLock;

fn temp_path(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "ashn-service-test-{tag}-{}.cache",
        std::process::id()
    ));
    p
}

fn populated_cache(n: usize) -> ShardedCache {
    let mut rng = StdRng::seed_from_u64(0xd15c);
    let cache = ShardedCache::with_config(4, 64);
    let cached = CachedBasis::with_store(ExactBasis, cache.clone());
    for _ in 0..n {
        cached
            .synthesize(&haar_unitary(4, &mut rng))
            .expect("exact synthesis");
    }
    cache
}

#[test]
fn save_load_round_trip_is_bit_lossless() {
    let path = temp_path("roundtrip");
    let cache = populated_cache(9);
    let written = cache.save(&path).expect("save");
    assert_eq!(written, 9);

    let restored = ShardedCache::with_config(4, 64);
    let report = restored.warm_start(&path);
    assert!(report.is_warm(), "load failed: {:?}", report.outcome);
    assert_eq!(report.loaded, 9);

    let before = cache.export_entries();
    let after = restored.export_entries();
    assert_eq!(before.len(), after.len());
    for ((k1, e1), (k2, e2)) in before.iter().zip(after.iter()) {
        assert_eq!(k1, k2);
        // Bit-exact: compare every f64 through its IEEE-754 bits.
        for i in 0..4 {
            for j in 0..4 {
                let (a, b) = (e1.target[(i, j)], e2.target[(i, j)]);
                assert_eq!(a.re.to_bits(), b.re.to_bits());
                assert_eq!(a.im.to_bits(), b.im.to_bits());
            }
        }
        let (c1, c2): (ashn_ir::Circuit, ashn_ir::Circuit) =
            (e1.circuit.clone().into(), e2.circuit.clone().into());
        assert_eq!(common::fingerprint(&c1), common::fingerprint(&c2));
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn missing_file_is_a_clean_cold_start() {
    let cache = ShardedCache::new();
    let report = cache.warm_start(temp_path("never-written"));
    assert_eq!(report.loaded, 0);
    assert_eq!(report.outcome, LoadOutcome::Missing);
    assert!(cache.is_empty());
}

#[test]
fn version_mismatch_degrades_to_cold() {
    let path = temp_path("version");
    let cache = populated_cache(3);
    cache.save(&path).expect("save");
    let text = std::fs::read_to_string(&path).unwrap();
    let bumped = text.replace(HEADER, "ashn-synth-cache v999");
    std::fs::write(&path, bumped).unwrap();

    let restored = ShardedCache::new();
    let report = restored.warm_start(&path);
    assert_eq!(report.loaded, 0);
    assert!(restored.is_empty(), "mismatched version must not warm");
    match report.outcome {
        LoadOutcome::Cold(reason) => assert!(reason.contains("version"), "reason: {reason}"),
        other => panic!("expected Cold, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupt_and_truncated_files_degrade_to_cold() {
    let path = temp_path("corrupt");
    let cache = populated_cache(5);
    cache.save(&path).expect("save");
    let text = std::fs::read_to_string(&path).unwrap();

    // Flip a hex digit inside a matrix line.
    let corrupted = text.replacen('|', "|zz", 12);
    std::fs::write(&path, &corrupted).unwrap();
    let restored = ShardedCache::new();
    let report = restored.warm_start(&path);
    assert_eq!(report.loaded, 0);
    assert!(restored.is_empty());
    assert!(matches!(report.outcome, LoadOutcome::Cold(_)));

    // Drop the trailing end-sentinel (simulated truncation mid-write).
    let truncated: String = text
        .lines()
        .take(text.lines().count() - 1)
        .map(|l| format!("{l}\n"))
        .collect();
    std::fs::write(&path, truncated).unwrap();
    let restored = ShardedCache::new();
    let report = restored.warm_start(&path);
    assert_eq!(report.loaded, 0);
    assert!(restored.is_empty());
    match report.outcome {
        LoadOutcome::Cold(reason) => {
            assert!(reason.contains("truncated"), "reason: {reason}")
        }
        other => panic!("expected Cold, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

/// The regression satellite: two AshN schemes share a display name
/// footprint (`r` equal) but differ in the parasitic-`ZZ` ratio `h̃`. A
/// persisted cache from one scheme must never serve the other — neither in
/// memory nor after a save/load round trip.
#[test]
fn scheme_parameters_survive_persistence_and_never_cross_hit() {
    let basis_a = AshnBasis::with_cutoff(0.0, 1.1);
    let basis_b = AshnBasis::with_cutoff(0.2, 1.1);
    assert_ne!(basis_a.cache_params(), basis_b.cache_params());

    let path = temp_path("params");
    let cache = ShardedCache::with_config(2, 32);
    let cached_a = CachedBasis::with_store(&basis_a, cache.clone());
    let cnot = ashn_gates::two::cnot();
    cached_a.synthesize(&cnot).expect("AshN synthesis");
    cache.save(&path).expect("save");

    let restored = ShardedCache::with_config(2, 32);
    assert!(restored.warm_start(&path).is_warm());

    let coords = weyl_coordinates(&cnot).canonicalize();
    let key_a = ClassKey::new(&basis_a, coords, false);
    let key_b = ClassKey::new(&basis_b, coords, false);
    assert!(
        restored.fetch(&key_a).is_some(),
        "same scheme must warm-hit after reload"
    );
    assert!(
        restored.fetch(&key_b).is_none(),
        "different h-tilde must never cross-hit the persisted cache"
    );
    std::fs::remove_file(&path).ok();
}

/// An AshN basis keyed the way caches were keyed while the EA polish
/// matched Makhlin invariants: `h` and `r` only, with no solver tag.
struct InvariantPolishAshn(AshnBasis);

impl Basis for InvariantPolishAshn {
    fn name(&self) -> String {
        self.0.name()
    }

    fn cache_params(&self) -> String {
        let scheme = self.0.scheme;
        format!("h={:?};r={:?}", scheme.h_ratio(), scheme.cutoff())
    }

    fn synthesize(&self, u: &CMat) -> Result<ashn_ir::Circuit, ashn_ir::SynthError> {
        self.0.synthesize(u)
    }

    fn expected_entanglers(&self, u: &CMat) -> usize {
        self.0.expected_entanglers(u)
    }
}

/// A cache file persisted under the old AshN key holds the old solver's
/// bits for each class. The current basis must miss on it and synthesize
/// cold, both by key and through the service.
#[test]
fn ashn_entries_persisted_under_the_untagged_key_are_not_served() {
    let basis = AshnBasis::with_cutoff(0.0, 1.1);
    let legacy = InvariantPolishAshn(basis);
    assert_eq!(legacy.name(), basis.name());
    assert_ne!(legacy.cache_params(), basis.cache_params());

    let target = haar_unitary(4, &mut StdRng::seed_from_u64(0xa5b));
    let path = temp_path("untagged-ashn");
    let cache = ShardedCache::with_config(2, 32);
    CachedBasis::with_store(&legacy, cache.clone())
        .synthesize(&target)
        .expect("AshN synthesis");
    cache.save(&path).expect("save");

    let restored = ShardedCache::with_config(2, 32);
    assert_eq!(restored.warm_start(&path).loaded, 1);
    std::fs::remove_file(&path).ok();
    let coords = weyl_coordinates(&target).canonicalize();
    assert!(restored
        .fetch(&ClassKey::new(&legacy, coords, false))
        .is_some());
    assert!(
        restored
            .fetch(&ClassKey::new(&basis, coords, false))
            .is_none(),
        "an untagged AshN entry must not hit under the current key"
    );

    let batch = CompileService::with_cache(basis, restored).synthesize_batch(&[target]);
    assert_eq!(batch.stats.exact_hits + batch.stats.class_hits, 0);
    assert_eq!(batch.stats.cold_serves, 1);
}

/// One saved cache file plus the targets that populated it, built once and
/// shared across property cases.
fn corruption_fixture() -> &'static (String, Vec<CMat>) {
    static FIXTURE: OnceLock<(String, Vec<CMat>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(0xc0ffee);
        let targets: Vec<CMat> = (0..4).map(|_| haar_unitary(4, &mut rng)).collect();
        let cache = ShardedCache::with_config(4, 64);
        let cached = CachedBasis::with_store(ExactBasis, cache.clone());
        for t in &targets {
            cached.synthesize(t).expect("exact synthesis");
        }
        let path = temp_path("proptest-fixture");
        cache.save(&path).expect("save");
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        (text, targets)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The corruption satellite: an arbitrarily byte-flipped, truncated, or
    /// line-dropped cache file either degrades to a cold start or — when the
    /// damage still parses — yields only circuits that the serve-time
    /// verification tier accepts at `1e-9`. A damaged file may cost
    /// performance (cold/quarantined serves), never correctness.
    #[test]
    fn mutated_cache_files_never_serve_a_wrong_circuit(
        mode in 0u32..3,
        pos in 0usize..1_000_000,
        byte in 0u32..256,
    ) {
        let (text, targets) = corruption_fixture();
        let mut bytes = text.clone().into_bytes();
        match mode {
            0 => {
                // Overwrite one byte with an arbitrary value.
                let i = pos % bytes.len();
                bytes[i] = byte as u8;
            }
            1 => {
                // Truncate mid-file (the format is ASCII, so any cut is a
                // valid, possibly senseless, text file).
                bytes.truncate(pos % (bytes.len() + 1));
            }
            _ => {
                // Drop one whole line.
                let lines: Vec<&str> = text.lines().collect();
                let drop = pos % lines.len();
                bytes = lines
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != drop)
                    .map(|(_, l)| format!("{l}\n"))
                    .collect::<String>()
                    .into_bytes();
            }
        }
        let path = temp_path("proptest-mutated");
        std::fs::write(&path, &bytes).unwrap();

        let restored = ShardedCache::with_config(4, 64);
        let report = restored.warm_start(&path);
        std::fs::remove_file(&path).ok();
        if !report.is_warm() {
            prop_assert!(restored.is_empty(), "cold start must leave no entries");
        }

        // Whether or not the damaged file parsed, serving through the
        // verification tier must only ever return correct circuits.
        let service = CompileService::with_cache(ExactBasis, restored)
            .workers(2)
            .verify_tol(1e-9);
        let batch = service.synthesize_batch(targets);
        for (target, circuit) in targets.iter().zip(&batch.circuits) {
            let circuit = circuit.as_ref().expect("ExactBasis always synthesizes");
            let err = circuit.error(target);
            prop_assert!(
                err <= 1e-9,
                "served circuit off by {err:.2e} from a mutated cache (mode {mode})"
            );
        }
    }
}
