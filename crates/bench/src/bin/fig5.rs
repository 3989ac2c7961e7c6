//! Regenerates paper Figure 5: Haar-average two-qubit interaction time
//! `τ·g` against the maximum required drive strength
//! `max(|A₁|/2, |A₂|/2, |δ|)/g`, as the cutoff `r` sweeps.
//!
//! Includes the SQiSW baseline (≈1.736/g) and the optimal-time floor
//! (≈1.341/g). Each row also reports the measured maximum strength over
//! compiled pulses, verifying the Eq. 4.4 bound `π/r + 1/2`. The per-`r`
//! Monte-Carlo averages and pulse checks fan across `BatchRunner` workers
//! with per-row RNG streams, so the table is deterministic for any
//! `--workers` value.

use ashn_bench::{f4, row, Args};
use ashn_core::avg_time::{tavg_closed_form, tavg_monte_carlo, MEAN_OPTIMAL_TIME, SQISW_MEAN_TIME};
use ashn_core::scheme::AshnScheme;
use ashn_gates::haar::sample_weyl_density;
use ashn_sim::BatchRunner;

fn main() {
    let args = Args::parse(&["seed", "samples", "pulses", "workers"]);
    let seed: u64 = args.get("seed", 7);
    let samples: usize = args.get("samples", 30_000);
    let pulse_checks: usize = args.get("pulses", 40);
    let workers: usize = args.get("workers", 0);

    println!("Figure 5: average gate time vs drive-strength bound (h̃ = 0)");
    println!(
        "optimal floor = {:.4}/g,  SQiSW baseline = {:.4}/g ({:.2}x slower)",
        MEAN_OPTIMAL_TIME,
        SQISW_MEAN_TIME,
        SQISW_MEAN_TIME / MEAN_OPTIMAL_TIME
    );
    row(&[
        "r".into(),
        "bound π/r+1/2".into(),
        "Tavg (closed)".into(),
        "Tavg (MC)".into(),
        "max strength".into(),
        "vs optimal".into(),
    ]);
    let r_values = [
        1.55, 1.4, 1.3, 1.2, 1.1, 1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.35,
    ];
    let runner = BatchRunner::new(seed).with_workers(workers);
    let rows = runner.run(r_values.len(), |index, rng| {
        let r = r_values[index];
        let bound = std::f64::consts::PI / r + 0.5;
        let closed = tavg_closed_form(r);
        let mc = tavg_monte_carlo(r, samples, rng);
        // Measured strength over random compiled pulses.
        let scheme = AshnScheme::with_cutoff(0.0, r);
        let mut max_strength: f64 = 0.0;
        for _ in 0..pulse_checks {
            let p = sample_weyl_density(rng);
            let pulse = scheme.compile(p).expect("chamber coverage");
            max_strength = max_strength.max(pulse.max_strength());
        }
        assert!(
            max_strength <= bound + 1e-6,
            "Eq. 4.4 bound violated: {max_strength} > {bound}"
        );
        (r, bound, closed, mc, max_strength)
    });
    for (r, bound, closed, mc, max_strength) in rows {
        row(&[
            f4(r),
            f4(bound),
            f4(closed),
            f4(mc),
            f4(max_strength),
            format!("{:.2}%", 100.0 * (closed / MEAN_OPTIMAL_TIME - 1.0)),
        ]);
    }
    println!(
        "\npaper §6.1 check: r = 1.1 gives bound {:.3} (paper: 3.356) and \
         Tavg {:.4} ({:.1}% above optimal; paper claims ≈10%, measured 11.0%)",
        std::f64::consts::PI / 1.1 + 0.5,
        tavg_closed_form(1.1),
        100.0 * (tavg_closed_form(1.1) / MEAN_OPTIMAL_TIME - 1.0),
    );
}
