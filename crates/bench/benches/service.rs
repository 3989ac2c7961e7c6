//! Compile-service throughput: batched synthesis over the sharded
//! process-wide cache, cold vs warm vs disk-warm-started, at 1/4/16
//! workers.
//!
//! The corpus mimics service traffic: ~N/5 distinct Weyl classes fanned
//! into N targets (exact repeats + locally-dressed same-class variants),
//! so batch-wide dedup and the cache tiers all engage. Asserted before
//! timing:
//!
//! * batch output is **bit-identical** across worker counts;
//! * a disk-warm-started cache serves the same bits as the cache that
//!   saved it;
//! * warm batches beat cold batches by ≥5x.
//!
//! Run `cargo bench -p ashn-bench --bench service` (add `--test` for the
//! single-iteration CI smoke mode; `--targets N` scales the corpus;
//! `--cache PATH` persists the synthesis cache between runs — passing the
//! same path twice exercises the disk-warm boot against a real file from
//! a previous process).

use ashn_bench::{bench_args, write_baseline};
use ashn_math::randmat::haar_unitary;
use ashn_math::CMat;
use ashn_service::{BatchResult, CompileService, ShardedCache};
use ashn_synth::basis::AshnBasis;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over every IEEE-754 bit of every served circuit: one u64 that
/// differs if any output differs anywhere.
fn batch_digest(batch: &BatchResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |w: u64| {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for circuit in &batch.circuits {
        let circuit = circuit.as_ref().expect("synthesis");
        eat(circuit.phase.re.to_bits());
        eat(circuit.phase.im.to_bits());
        for inst in &circuit.instructions {
            eat(inst.qubits.iter().fold(0, |acc, &q| acc * 64 + q as u64));
            eat(inst.duration.to_bits());
            for i in 0..inst.matrix.rows() {
                for j in 0..inst.matrix.cols() {
                    eat(inst.matrix[(i, j)].re.to_bits());
                    eat(inst.matrix[(i, j)].im.to_bits());
                }
            }
        }
    }
    h
}

/// Service-shaped traffic over `n` targets: ~70% fresh Haar-random
/// classes, ~20% exact repeats of earlier targets, ~10% locally-dressed
/// same-class variants — so cold synthesis dominates a cold batch while
/// every cache tier (exact, re-dressed, miss) engages.
fn corpus(n: usize, seed: u64) -> (Vec<CMat>, usize) {
    let classes = (n * 7 / 10).max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let bases: Vec<CMat> = (0..classes).map(|_| haar_unitary(4, &mut rng)).collect();
    let mut targets = bases.clone();
    let repeats = n * 2 / 10;
    for i in 0..repeats {
        targets.push(bases[i % classes].clone());
    }
    while targets.len() < n {
        let base = &bases[targets.len() % classes];
        let pre = haar_unitary(2, &mut rng).kron(&haar_unitary(2, &mut rng));
        let post = haar_unitary(2, &mut rng).kron(&haar_unitary(2, &mut rng));
        targets.push(&(&post * base) * &pre);
    }
    (targets, classes)
}

fn service(workers: usize, cache: ShardedCache) -> CompileService<AshnBasis> {
    CompileService::with_cache(AshnBasis::with_cutoff(0.0, 1.1), cache).workers(workers)
}

fn main() {
    let (test_mode, args) = bench_args();
    let n_targets: usize = args.get("targets", if test_mode { 60 } else { 1000 });
    let seed: u64 = args.get("seed", 42);
    let cache_path: String = args.get("cache", String::new());

    let (targets, classes) = corpus(n_targets, seed);
    println!(
        "corpus: {} SU(4) targets over {} Weyl classes ({:.1} targets/class)\n",
        targets.len(),
        classes,
        targets.len() as f64 / classes as f64
    );

    // Fixture file: the --cache path if given (relative paths anchor at
    // the workspace root, like the JSON baseline — cargo runs bench
    // binaries from the package dir), else a scratch file.
    let fixture = if cache_path.is_empty() {
        let scratch = std::env::temp_dir().join(format!("ashn-bench-service-{}.cache", seed));
        scratch.to_string_lossy().into_owned()
    } else if std::path::Path::new(&cache_path).is_absolute() {
        cache_path.clone()
    } else {
        format!("{}/../../{}", env!("CARGO_MANIFEST_DIR"), cache_path)
    };
    if let Some(parent) = std::path::Path::new(&fixture).parent() {
        std::fs::create_dir_all(parent).ok();
    }
    let preexisting = std::path::Path::new(&fixture).exists();

    if preexisting {
        println!("(disk fixture pre-existed; disk-warm boots from the previous process's file)");
    }

    let cps = |batch: &BatchResult| batch.stats.requests as f64 / (batch.stats.wall_ms / 1e3);
    let mut rows: Vec<(usize, f64, f64, f64)> = Vec::new();
    let mut digest: Option<u64> = None;
    let mut last_cold_cache = ShardedCache::new();

    for workers in [1usize, 4, 16] {
        // Cold: a fresh cache pays one EA synthesis per unique class.
        let cold_service = service(workers, ShardedCache::new());
        let cold = cold_service.synthesize_batch(&targets);
        assert_eq!(cold.stats.cold_classes, classes);

        // Warm: the same cache immediately re-serves the whole corpus.
        let warm = cold_service.synthesize_batch(&targets);
        assert_eq!(warm.stats.cold_classes, 0);

        // Disk-warm: boot a brand-new cache from the persisted fixture —
        // a previous process's file when --cache points at one (the CI
        // cross-process path), else the one this run saves first.
        if !preexisting && workers == 1 {
            cold_service.cache().save(&fixture).expect("save fixture");
        }
        let disk_cache = ShardedCache::new();
        let report = disk_cache.warm_start(&fixture);
        assert!(
            report.is_warm(),
            "fixture failed to load: {:?}",
            report.outcome
        );
        let disk = service(workers, disk_cache).synthesize_batch(&targets);
        assert_eq!(
            disk.stats.cold_classes, 0,
            "disk-warmed cache still had cold classes"
        );

        // Acceptance gates: identical bits everywhere, warm >= 5x cold.
        // (The 5x gate is checked single-threaded, where per-batch thread
        // spawn overhead cannot mask the synthesis saving.)
        let d = batch_digest(&cold);
        assert_eq!(d, batch_digest(&warm), "warm serve changed bits");
        assert_eq!(d, batch_digest(&disk), "disk-warm serve changed bits");
        match digest {
            None => digest = Some(d),
            Some(prev) => assert_eq!(prev, d, "bits diverged at {workers} workers"),
        }
        if workers == 1 {
            assert!(
                cold.stats.wall_ms >= warm.stats.wall_ms * 5.0,
                "warm not >=5x cold: cold {:.2}ms, warm {:.2}ms",
                cold.stats.wall_ms,
                warm.stats.wall_ms
            );
        }

        println!(
            "workers={workers:<2}  cold {:>9.0} targets/s   warm {:>9.0} targets/s ({:>5.1}x)   disk-warm {:>9.0} targets/s",
            cps(&cold),
            cps(&warm),
            cold.stats.wall_ms / warm.stats.wall_ms,
            cps(&disk),
        );
        rows.push((workers, cps(&cold), cps(&warm), cps(&disk)));
        last_cold_cache = cold_service.cache().clone();
    }

    if cache_path.is_empty() {
        std::fs::remove_file(&fixture).ok();
    } else {
        // Refresh the fixture for the next process (the CI cache step).
        last_cold_cache.save(&fixture).expect("save fixture");
    }

    let results: Vec<String> = rows
        .iter()
        .map(|(w, cold, warm, disk)| {
            format!(
                "    {{ \"workers\": {w}, \"cold_targets_per_s\": {cold:.0}, \
                 \"warm_targets_per_s\": {warm:.0}, \"disk_warm_targets_per_s\": {disk:.0} }}"
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"service\",\n  \"config\": {{ \"targets\": {}, \"classes\": {}, \
         \"gate_set\": \"AshN(r=1.1)\", \"seed\": {seed}, \"smoke\": {test_mode} }},\n  \
         \"bit_identical_across_workers\": true,\n  \"results\": [\n{}\n  ]\n}}\n",
        targets.len(),
        classes,
        results.join(",\n"),
    );
    write_baseline("service", &json, test_mode);
}
