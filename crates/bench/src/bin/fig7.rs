//! Regenerates paper Figure 7: quantum-volume heavy-output proportion as a
//! function of circuit size `d`, for CZ / SQiSW / AshN(r=0) / AshN(r=1.1)
//! at several CZ-anchored depolarizing rates.
//!
//! Every gate set is evaluated on the *same* sampled circuits (ceteris
//! paribus, as in the paper), each circuit is compiled **once** per gate
//! set and scored at all noise levels (error ∝ gate time), and the
//! per-circuit work fans across `BatchRunner` workers — the printed table
//! is bit-identical for any `--workers` value. The paper averages 1350
//! circuit samples; the default here is 20 (→ ±0.01-ish error bars),
//! configurable with `--circuits`.

use ashn_bench::{f4, row, Args};
use ashn_qv::{compile_model, sample_model_circuit, score_compiled_many, GateSet, QvNoise};
use ashn_sim::BatchRunner;

fn main() {
    let args = Args::parse(&["circuits", "dmax", "seed", "workers"]);
    let circuits: usize = args.get("circuits", 20);
    let d_max: usize = args.get("dmax", 6);
    let seed: u64 = args.get("seed", 17);
    let workers: usize = args.get("workers", 0);

    let gate_sets = [
        GateSet::Cz,
        GateSet::Sqisw,
        GateSet::Ashn { cutoff: 0.0 },
        GateSet::Ashn { cutoff: 1.1 },
    ];
    let error_rates = [0.007, 0.012, 0.017];
    let noise_points: Vec<QvNoise> = error_rates.iter().map(|&e| QvNoise::with_e_cz(e)).collect();

    // mean_hops[d - 2][e][k]: mean HOP at size d, noise e, gate set k.
    let mut mean_hops: Vec<Vec<Vec<f64>>> = Vec::new();
    for d in 2..=d_max {
        let runner = BatchRunner::new(seed + d as u64).with_workers(workers);
        let per_circuit = runner.run(circuits, |_, rng| {
            let model = sample_model_circuit(d, rng);
            let mut hop = vec![vec![0.0f64; gate_sets.len()]; error_rates.len()];
            for (k, gs) in gate_sets.iter().enumerate() {
                let compiled = compile_model(&model, *gs).expect("compiles");
                // One compilation, one ideal run: every noise point scores
                // against the same plan (`score_compiled_many`).
                for (e, score) in score_compiled_many(&compiled, &noise_points)
                    .into_iter()
                    .enumerate()
                {
                    hop[e][k] = score.hop;
                }
            }
            hop
        });
        let mut mean = vec![vec![0.0f64; gate_sets.len()]; error_rates.len()];
        for hop in per_circuit {
            for (m, h) in mean.iter_mut().zip(hop) {
                for (a, b) in m.iter_mut().zip(h) {
                    *a += b / circuits as f64;
                }
            }
        }
        mean_hops.push(mean);
    }

    println!(
        "Figure 7: mean heavy-output proportion, {circuits} circuits per point \
         (2/3 threshold marks a QV pass)\n"
    );
    for (e, &e_cz) in error_rates.iter().enumerate() {
        println!("-- e_CZ = {:.1}% --", 100.0 * e_cz);
        let mut header = vec!["d".to_string()];
        header.extend(gate_sets.iter().map(|g| g.name()));
        row(&header);
        for d in 2..=d_max {
            let mut cells = vec![d.to_string()];
            for &hop in &mean_hops[d - 2][e] {
                cells.push(f4(hop));
            }
            row(&cells);
        }
        println!();
    }
    println!(
        "expected shape (paper): AshN(r=0) ≳ AshN(r=1.1) > SQiSW > CZ at every\n\
         (d, e_CZ); the two AshN curves nearly coincide."
    );
}
