//! Regenerates the §A.7.1 average-gate-time analysis: the closed-form
//! `T_avg(r)` against Monte-Carlo Haar averages, the small-`r` series, and
//! the §6.1 baseline ratios. The per-`r` Monte-Carlo estimates fan across
//! `BatchRunner` workers with per-row RNG streams (deterministic for any
//! `--workers` value).

use ashn_bench::{f4, row, Args};
use ashn_core::avg_time::{
    tavg_closed_form, tavg_monte_carlo, CZ_MEAN_TIME, ISWAP_MEAN_TIME, MEAN_OPTIMAL_TIME,
    SQISW_MEAN_TIME,
};
use ashn_sim::BatchRunner;
use std::f64::consts::PI;

fn main() {
    let args = Args::parse(&["samples", "seed", "workers"]);
    let samples: usize = args.get("samples", 60_000);
    let seed: u64 = args.get("seed", 5);
    let workers: usize = args.get("workers", 0);

    println!("§A.7.1 / §6.1: Haar-average two-qubit gate time (h̃ = 0, units 1/g)\n");
    println!(
        "T_avg(0) = 7π/16 − 19/(180π) = (315π²−76)/(720π) = {:.6}",
        MEAN_OPTIMAL_TIME
    );
    row(&[
        "r".into(),
        "closed form".into(),
        "Monte Carlo".into(),
        "series O(r^11)".into(),
    ]);
    let r_values = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0, 1.1, 1.2, 1.4, PI / 2.0];
    let runner = BatchRunner::new(seed).with_workers(workers);
    let rows = runner.run(r_values.len(), |index, rng| {
        let r = r_values[index];
        let cf = tavg_closed_form(r);
        let mc = tavg_monte_carlo(r, samples, rng);
        assert!(
            (cf - mc).abs() < 0.01,
            "closed form vs MC mismatch at r={r}"
        );
        (r, cf, mc)
    });
    for (r, cf, mc) in rows {
        let series = MEAN_OPTIMAL_TIME + 2213.0 / 5040.0 * r.powi(9)
            - 160303.0 / (204120.0 * PI) * r.powi(10);
        row(&[
            f4(r),
            format!("{cf:.6}"),
            format!("{mc:.6}"),
            format!("{series:.6}"),
        ]);
    }

    println!("\n§6.1 baselines (average two-qubit interaction time for Haar gates):");
    row(&[
        "scheme".into(),
        "mean time".into(),
        "vs AshN optimal".into(),
    ]);
    for (name, t) in [
        ("AshN (r=0)", MEAN_OPTIMAL_TIME),
        ("SQiSW", SQISW_MEAN_TIME),
        ("iSWAP (flux)", ISWAP_MEAN_TIME),
        ("CZ (flux)", CZ_MEAN_TIME),
    ] {
        row(&[name.into(), f4(t), format!("{:.2}x", t / MEAN_OPTIMAL_TIME)]);
    }
    println!("\npaper §6.1: 1.29x (SQiSW), 3.51x (iSWAP), 4.97x (CZ)");
}
