//! Average two-qubit gate time under the Haar measure (paper §6.1 and
//! §A.7.1): the trade-off between gate time and drive strength controlled by
//! the cutoff `r`, and the comparison against SQiSW / iSWAP / CZ baselines.

use ashn_gates::haar::sample_weyl_density;
use ashn_gates::weyl::WeylPoint;
use rand::Rng;
use std::f64::consts::PI;

/// Gate time `T(x,y,z;r)` at `h̃ = 0` (paper §A.7.1):
/// the optimal `max(2x, x+y+|z|)` when that exceeds `r`, else the extended
/// `π − 2x`.
pub fn gate_time_with_cutoff(p: WeylPoint, r: f64) -> f64 {
    let p = p.canonicalize();
    let topt = (2.0 * p.x).max(p.x + p.y + p.z.abs());
    if topt >= r {
        topt
    } else {
        PI - 2.0 * p.x
    }
}

/// Haar-average optimal two-qubit gate time at `r = 0`:
/// `7π/16 − 19/(180π) ≈ 1.341` (paper §6.1).
pub const MEAN_OPTIMAL_TIME: f64 = 7.0 * PI / 16.0 - 19.0 / (180.0 * PI);

/// Average two-qubit interaction time when compiling Haar-random gates from
/// SQiSW (paper §6.1, after Huang et al. \[30\]): `≈ 1.736/g`, i.e. `1.29×`
/// slower than AshN.
pub const SQISW_MEAN_TIME: f64 = 1.7360594431533597;

/// Average two-qubit interaction time with flux-tuned iSWAP (3 applications
/// of π/2): `3π/2 ≈ 4.712`, `3.51×` slower (paper §6.1).
pub const ISWAP_MEAN_TIME: f64 = 3.0 * PI / 2.0;

/// Average two-qubit interaction time with flux-tuned CZ (3 applications of
/// π/√2): `3π/√2 ≈ 6.664`, `4.97×` slower (paper §6.1).
pub const CZ_MEAN_TIME: f64 = 3.0 * PI * std::f64::consts::FRAC_1_SQRT_2;

/// Closed-form Haar-average gate time `T_avg(r)` at `h̃ = 0`
/// (paper §A.7.1), transcribed from the paper.
///
/// Validated against [`tavg_monte_carlo`] in the tests; `T_avg(0)` equals
/// [`MEAN_OPTIMAL_TIME`].
pub fn tavg_closed_form(r: f64) -> f64 {
    assert!((0.0..=PI / 2.0 + 1e-12).contains(&r), "cutoff out of range");
    let s = |k: f64| (k * r).sin();
    let c = |k: f64| (k * r).cos();
    (225.0 * (-176.0 * r * r + 96.0 * PI * r - 105.0) * c(4.0)
        + 50.0 * (-576.0 * r * r + 576.0 * PI * r - 30.0 * c(6.0) + 252.0 * PI * PI + 97.0)
        + 60.0
            * (480.0 * (PI - 2.0 * r) * s(1.0)
                - 603.0 * (PI - 2.0 * r) * s(2.0)
                - 128.0 * (PI - 2.0 * r) * s(3.0)
                + 30.0 * (19.0 * PI - 33.0 * r) * s(4.0)
                - 480.0 * (PI - 2.0 * r) * s(5.0)
                + 65.0 * (PI - 2.0 * r) * s(6.0))
        - 59049.0 * (4.0 * r / 3.0).cos()
        + 51708.0 * c(2.0)
        + 9216.0 * c(3.0)
        + 15360.0 * c(5.0))
        / (28800.0 * PI)
}

/// Monte-Carlo estimate of the Haar-average gate time at cutoff `r`
/// (`h̃ = 0`), using the exact Weyl-chamber density.
pub fn tavg_monte_carlo(r: f64, samples: usize, rng: &mut impl Rng) -> f64 {
    let mut total = 0.0;
    for _ in 0..samples {
        total += gate_time_with_cutoff(sample_weyl_density(rng), r);
    }
    total / samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mean_optimal_time_value() {
        // Two equivalent closed forms quoted in the paper.
        let alt = (315.0 * PI * PI - 76.0) / (720.0 * PI);
        assert!((MEAN_OPTIMAL_TIME - alt).abs() < 1e-12);
        assert!((MEAN_OPTIMAL_TIME - 1.3409).abs() < 1e-3);
    }

    #[test]
    fn closed_form_at_zero_matches_mean_optimal() {
        assert!((tavg_closed_form(0.0) - MEAN_OPTIMAL_TIME).abs() < 1e-12);
    }

    #[test]
    fn closed_form_matches_monte_carlo() {
        let mut rng = StdRng::seed_from_u64(81);
        for r in [0.0, 0.4, 0.8, 1.1, 1.4] {
            let mc = tavg_monte_carlo(r, 40_000, &mut rng);
            let cf = tavg_closed_form(r);
            assert!(
                (mc - cf).abs() < 0.01,
                "r={r}: MC {mc:.4} vs closed form {cf:.4}"
            );
        }
    }

    #[test]
    fn small_r_series_expansion() {
        // T_avg(r) = T_avg(0) + (2213/5040)·r⁹ − (160303/204120π)·r¹⁰ + O(r¹¹).
        let r = 0.25f64;
        let series = MEAN_OPTIMAL_TIME + 2213.0 / 5040.0 * r.powi(9)
            - 160303.0 / (204120.0 * PI) * r.powi(10);
        assert!(
            (tavg_closed_form(r) - series).abs() < 1e-6,
            "series mismatch: {} vs {}",
            tavg_closed_form(r),
            series
        );
    }

    #[test]
    fn tavg_increases_with_cutoff() {
        let a = tavg_closed_form(0.0);
        let b = tavg_closed_form(1.1);
        let c = tavg_closed_form(1.5);
        assert!(a <= b && b <= c, "{a} {b} {c}");
    }

    #[test]
    fn r_1_1_within_ten_percent_of_optimal() {
        // Paper §6.1 claims r = 1.1 stays within 10% of 1.341/g. Measured
        // (closed form, confirmed by Monte Carlo): 11.0% at r = 1.1; the
        // 10% threshold is crossed near r ≈ 1.08. We assert the measured
        // behaviour with a small margin and record the delta in
        // EXPERIMENTS.md.
        let t = tavg_closed_form(1.1);
        assert!(
            t <= 1.115 * MEAN_OPTIMAL_TIME,
            "T_avg(1.1) = {t}, exceeds 1.115× optimum"
        );
        assert!(tavg_closed_form(1.0) <= 1.07 * MEAN_OPTIMAL_TIME);
    }

    #[test]
    fn baseline_ratios_match_paper() {
        // SQiSW ≈ 1.29×, iSWAP ≈ 3.51×, CZ ≈ 4.97× (paper §6.1).
        assert!((SQISW_MEAN_TIME / MEAN_OPTIMAL_TIME - 1.29).abs() < 0.01);
        assert!((ISWAP_MEAN_TIME / MEAN_OPTIMAL_TIME - 3.51).abs() < 0.01);
        assert!((CZ_MEAN_TIME / MEAN_OPTIMAL_TIME - 4.97).abs() < 0.01);
    }

    #[test]
    fn sqisw_mean_from_two_vs_three_applications() {
        // SQiSW compiles a Haar gate with 2 applications iff x ≥ y + |z|
        // (Huang et al. [30]); the average time is π/4·(3 − P[2 apps]).
        let mut rng = StdRng::seed_from_u64(82);
        let n = 60_000;
        let mut two = 0usize;
        for _ in 0..n {
            let p = sample_weyl_density(&mut rng);
            if p.x >= p.y + p.z.abs() {
                two += 1;
            }
        }
        let frac = two as f64 / n as f64;
        let mean = PI / 4.0 * (3.0 - frac);
        assert!(
            (mean - SQISW_MEAN_TIME).abs() < 0.01,
            "MC SQiSW mean {mean:.4} vs constant {SQISW_MEAN_TIME:.4} (P2 = {frac:.3})"
        );
    }
}
