//! Regenerates paper Figure 6(a)/(b): decomposition error versus two-qubit
//! gate count, for the CNOT ansatz and the generic-SU(4) ansatz, using the
//! numerical instantiation optimizer. The per-gate-count sweeps (each a set
//! of instantiation searches over the same Haar targets) fan across
//! `BatchRunner` workers.
//!
//! The paper uses 1000 Haar targets and a 1e-10 threshold with QFactor; we
//! default to fewer targets and a bounded sweep budget (configurable). The
//! shape — a sharp error drop exactly at the dimension-counting lower bound
//! (6 vs 14 for n=3; 27 vs 61 for n=4) — is the reproduced observable.

use ashn_bench::{row, sci, Args};
use ashn_math::randmat::haar_su;
use ashn_sim::BatchRunner;
use ashn_synth::counts::{cnot_lower_bound, generic_lower_bound};
use ashn_synth::instantiate::{instantiate_best, Ansatz, InstantiateOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::parse(&["n", "targets", "restarts", "sweeps", "seed", "workers"]);
    let n: usize = args.get("n", 3);
    let targets: usize = args.get("targets", 6);
    let restarts: usize = args.get("restarts", 3);
    let sweeps: usize = args.get("sweeps", if n == 3 { 600 } else { 250 });
    let seed: u64 = args.get("seed", 11);
    let workers: usize = args.get("workers", 0);
    assert!(n == 3 || n == 4, "--n must be 3 or 4");

    let lb_gen = generic_lower_bound(n as u32) as usize;
    let lb_cnot = cnot_lower_bound(n as u32) as usize;
    let counts_gen: Vec<usize> = if n == 3 {
        (3..=8).collect()
    } else {
        vec![23, 25, 26, 27, 28, 30]
    };
    let counts_cnot: Vec<usize> = if n == 3 {
        (11..=16).collect()
    } else {
        vec![56, 59, 60, 61, 62, 64]
    };

    println!(
        "Figure 6({}) for n = {n}: mean log10 decomposition error vs gate count",
        if n == 3 { 'a' } else { 'b' }
    );
    println!(
        "lower bounds: generic {lb_gen}, CNOT {lb_cnot}; {targets} Haar targets, {restarts} restarts, {sweeps} sweeps"
    );
    let opts = InstantiateOptions {
        max_sweeps: sweeps,
        target_error: 1e-10,
        min_progress: 0.0,
    };

    type Maker = fn(usize, usize, &mut StdRng) -> Ansatz;
    let families: [(&str, &Vec<usize>, Maker); 2] = [
        ("generic SU(4)", &counts_gen, |nq, k, r| {
            Ansatz::generic(nq, k, r)
        }),
        ("CNOT", &counts_cnot, |nq, k, r| Ansatz::cnot(nq, k, r)),
    ];
    for (label, counts, make) in families {
        println!("\n-- {label} ansatz --");
        row(&["N gates".into(), "mean error".into(), "note".into()]);
        let runner = BatchRunner::new(seed).with_workers(workers);
        // Every gate count optimizes the *same* targets (fresh per-count
        // RNG from the shared seed), matching the paper's ceteris-paribus
        // sweep — the batch stream is unused.
        let means = runner.run(counts.len(), |index, _| {
            let count = counts[index];
            let mut rng = StdRng::seed_from_u64(seed);
            let mut total = 0.0;
            for _ in 0..targets {
                let target = haar_su(1 << n, &mut rng);
                let e = instantiate_best(&target, |r| make(n, count, r), restarts, &opts, &mut rng);
                total += e;
            }
            total / targets as f64
        });
        for (&count, mean) in counts.iter().zip(means) {
            let lb = if label == "CNOT" { lb_cnot } else { lb_gen };
            let note = if count < lb {
                "below lower bound"
            } else if count == lb {
                "= lower bound"
            } else {
                ""
            };
            row(&[count.to_string(), sci(mean), note.into()]);
        }
    }
}
