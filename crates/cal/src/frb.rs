//! Fully randomized benchmarking (FRB, paper refs \[27, 30\]): random
//! sequences of Haar two-qubit gates, inverted ideally at the end; the
//! survival probability decays exponentially in the sequence length with a
//! rate set by the average gate error.

use ashn_math::neldermead::{nelder_mead, NmOptions};
use ashn_math::randmat::haar_su;
use ashn_math::{CMat, Complex};
use rand::Rng;

/// Survival probability of one random sequence of length `len`: implemented
/// gates followed by the ideal inverse, measured in `|00⟩` with `shots`
/// samples (`shots = 0` → exact probability).
pub fn sequence_survival(
    len: usize,
    implement: &mut dyn FnMut(&CMat) -> CMat,
    shots: usize,
    rng: &mut impl Rng,
) -> f64 {
    let mut ideal = CMat::identity(4);
    let mut real = CMat::identity(4);
    for _ in 0..len {
        let g = haar_su(4, rng);
        ideal = g.matmul(&ideal);
        real = implement(&g).matmul(&real);
    }
    let total = ideal.adjoint().matmul(&real);
    let amp0: Vec<Complex> = total.col(0);
    let p = amp0[0].norm_sqr();
    if shots == 0 {
        p
    } else {
        let hits = (0..shots).filter(|_| rng.gen::<f64>() < p).count();
        hits as f64 / shots as f64
    }
}

/// Averaged FRB decay curve over `n_seq` sequences per length.
pub fn frb_curve(
    lengths: &[usize],
    n_seq: usize,
    implement: &mut dyn FnMut(&CMat) -> CMat,
    shots: usize,
    rng: &mut impl Rng,
) -> Vec<(usize, f64)> {
    lengths
        .iter()
        .map(|&len| {
            let mean = (0..n_seq)
                .map(|_| sequence_survival(len, implement, shots, rng))
                .sum::<f64>()
                / n_seq as f64;
            (len, mean)
        })
        .collect()
}

/// Fits `p(L) = A·f^L + B` to a decay curve; returns `(a, f, b)`.
pub fn fit_decay(curve: &[(usize, f64)]) -> (f64, f64, f64) {
    assert!(curve.len() >= 3, "need at least three lengths to fit");
    // Parameters are clamped to their physical ranges (probabilities!), or
    // the 3-parameter model degenerates into a huge-A/huge-negative-B linear
    // fit on short curves.
    let objective = |v: &[f64]| {
        let (a, f, b) = (
            v[0].clamp(0.0, 1.0),
            v[1].clamp(0.0, 1.0),
            v[2].clamp(0.0, 1.0),
        );
        curve
            .iter()
            .map(|&(l, p)| (a * f.powi(l as i32) + b - p).powi(2))
            .sum::<f64>()
    };
    // Data-driven seeds: assume B near the depolarized floor 1/4, estimate
    // f from the first/last points, and scan a few alternatives.
    let (l0, p0) = curve[0];
    let (l1, p1) = *curve.last().unwrap();
    let mut seeds: Vec<[f64; 3]> = Vec::new();
    for b0 in [0.25, 0.0, p1.min(0.9)] {
        let a0 = (p0 - b0).max(1e-3);
        let ratio = ((p1 - b0) / a0).clamp(1e-6, 1.0);
        let f0 = ratio
            .powf(1.0 / (l1 - l0).max(1) as f64)
            .clamp(0.1, 0.99999);
        seeds.push([a0, f0, b0]);
    }
    seeds.push([0.75, 0.99, 0.25]);
    let mut best = (f64::INFINITY, [0.75, 0.99, 0.25]);
    for seed in seeds {
        let res = nelder_mead(
            objective,
            &seed,
            &NmOptions {
                max_evals: 6000,
                f_tol: 1e-20,
                initial_step: 0.02,
                ..NmOptions::default()
            },
        );
        if res.f < best.0 {
            best = (res.f, [res.x[0], res.x[1], res.x[2]]);
        }
    }
    (
        best.1[0].clamp(0.0, 1.0),
        best.1[1].clamp(0.0, 1.0),
        best.1[2].clamp(0.0, 1.0),
    )
}

/// Average gate infidelity from an FRB decay parameter `f` on `d = 4`:
/// `r = (1 − f)·(d − 1)/d`.
pub fn infidelity_from_decay(f: f64) -> f64 {
    (1.0 - f) * 3.0 / 4.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use ashn_gates::single::rz;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn perfect_implementation_survives() {
        let mut rng = StdRng::seed_from_u64(61);
        let mut perfect = |g: &CMat| g.clone();
        for len in [1usize, 5, 20] {
            let p = sequence_survival(len, &mut perfect, 0, &mut rng);
            assert!((p - 1.0).abs() < 1e-10, "len {len}: p = {p}");
        }
    }

    #[test]
    fn coherent_error_decays_survival() {
        let mut rng = StdRng::seed_from_u64(62);
        // Implementation error: stray Rz(0.25) on qubit 0 after every gate
        // (strong enough that the decay is resolvable from 4 lengths).
        let err = rz(0.25).kron(&CMat::identity(2));
        let mut noisy = |g: &CMat| err.matmul(g);
        let curve = frb_curve(&[1, 4, 16, 48], 32, &mut noisy, 0, &mut rng);
        assert!(curve[0].1 > curve[3].1 + 0.05, "curve {curve:?}");
        let (_, f, _) = fit_decay(&curve);
        assert!(f < 0.999 && f > 0.5, "decay f = {f}");
    }

    #[test]
    fn fit_recovers_synthetic_decay() {
        let truth = (0.72f64, 0.97f64, 0.26f64);
        let curve: Vec<(usize, f64)> = [1usize, 2, 4, 8, 16, 32, 64]
            .iter()
            .map(|&l| (l, truth.0 * truth.1.powi(l as i32) + truth.2))
            .collect();
        let (a, f, b) = fit_decay(&curve);
        assert!((a - truth.0).abs() < 1e-4);
        assert!((f - truth.1).abs() < 1e-5);
        assert!((b - truth.2).abs() < 1e-4);
    }

    #[test]
    fn shot_noise_is_unbiased() {
        let mut rng = StdRng::seed_from_u64(63);
        let err = rz(0.2).kron(&CMat::identity(2));
        let mut noisy = |g: &CMat| err.matmul(g);
        let exact = sequence_survival(0, &mut noisy, 0, &mut rng);
        assert!((exact - 1.0).abs() < 1e-12, "length-0 survives exactly");
        // Compare sampled vs exact at a fixed length with many shots.
        let mut rng1 = StdRng::seed_from_u64(64);
        let mut rng2 = StdRng::seed_from_u64(64);
        let p_exact = sequence_survival(6, &mut noisy, 0, &mut rng1);
        let p_shot = sequence_survival(6, &mut noisy, 20_000, &mut rng2);
        assert!((p_exact - p_shot).abs() < 0.02);
    }

    #[test]
    fn infidelity_conversion() {
        assert!((infidelity_from_decay(1.0)).abs() < 1e-15);
        assert!((infidelity_from_decay(0.96) - 0.03).abs() < 1e-12);
    }
}
