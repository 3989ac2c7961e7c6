//! Coverage of synthesis over the whole Weyl chamber, with every target
//! dressed with seeded Haar locals:
//!
//! - the closed-form SQiSW synthesis serves every class of a 0.1-rad grid
//!   (including `z < 0` and the `x = π/4` face), the controlled-phase edge
//!   `y = z = 0` and the named gates exactly, with the minimal number of
//!   SQiSW applications; targets inside the `1e-9` band that the count
//!   rounds across are served to that band's accuracy;
//! - AshN serves the same grid, the degenerate `x = y` and `y = |z|` edges
//!   included, and the mirrors `U·SWAP` of small-angle gates in one pulse
//!   per class, exactly, at `r ∈ {0, 1.1}` and with `ZZ` coupling.

use ashn_gates::kak::weyl_coordinates;
use ashn_gates::two::{canonical, iswap, sqisw, swap};
use ashn_gates::weyl::WeylPoint;
use ashn_ir::Basis;
use ashn_math::randmat::haar_unitary;
use ashn_math::{c, CMat};
use ashn_synth::sqisw_basis::{decompose_sqisw, sqisw_count_for};
use ashn_synth::AshnBasis;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::f64::consts::{FRAC_PI_4, PI};

/// `(a ⊗ b) · u · (c ⊗ d)` with Haar-random single-qubit locals.
fn dressed(u: &CMat, rng: &mut StdRng) -> CMat {
    let pre = haar_unitary(2, rng).kron(&haar_unitary(2, rng));
    let post = haar_unitary(2, rng).kron(&haar_unitary(2, rng));
    post.matmul(u).matmul(&pre)
}

fn cphase(theta: f64) -> CMat {
    let one = c(1.0, 0.0);
    CMat::diag(&[one, one, one, c(theta.cos(), theta.sin())])
}

/// Canonical points `π/4 ≥ x ≥ y ≥ |z|` on a `step` grid, with the
/// `x = π/4` face (where only `z ≥ 0` is canonical).
fn chamber_grid(step: f64) -> Vec<[f64; 3]> {
    let n = (FRAC_PI_4 / step).floor() as i64;
    let mut xs: Vec<f64> = (0..=n).map(|i| i as f64 * step).collect();
    xs.push(FRAC_PI_4);
    let mut points = Vec::new();
    for &x in &xs {
        let on_face = x == FRAC_PI_4;
        for j in (0..=n).take_while(|&j| j as f64 * step <= x) {
            let z_min = if on_face { 0 } else { -j };
            for k in z_min..=j {
                points.push([x, j as f64 * step, k as f64 * step]);
            }
        }
    }
    points
}

/// Serves `u` and returns the circuit's error, asserting the minimal count.
fn serve(u: &CMat, label: &str) -> f64 {
    let circuit = decompose_sqisw(u).unwrap_or_else(|e| panic!("{label}: no circuit ({e})"));
    assert_eq!(
        circuit.entangler_count(),
        sqisw_count_for(weyl_coordinates(u)),
        "{label}: SQiSW count is not minimal"
    );
    circuit.error(u)
}

#[test]
fn whole_chamber_is_served_exactly_with_minimal_counts() {
    let mut rng = StdRng::seed_from_u64(23);
    let mut targets: Vec<(String, CMat)> = chamber_grid(0.1)
        .into_iter()
        .map(|[x, y, z]| (format!("CAN({x}, {y}, {z})"), canonical(x, y, z)))
        .collect();
    for k in 1..=16 {
        targets.push((format!("CPhase({k}π/16)"), cphase(k as f64 * PI / 16.0)));
    }
    for k in 1..=64 {
        targets.push((format!("CPhase({k}π/512)"), cphase(k as f64 * PI / 512.0)));
    }
    targets.push(("SWAP".into(), swap()));
    targets.push(("iSWAP".into(), iswap()));
    targets.push(("SQiSW".into(), sqisw()));
    let mut threes = 0;
    for (label, u) in &targets {
        let u = dressed(u, &mut rng);
        let err = serve(&u, label);
        assert!(err <= 1e-12, "{label}: error {err:.2e}");
        threes += usize::from(sqisw_count_for(weyl_coordinates(&u)) == 3);
    }
    // The grid reaches outside W₀, so the three-application path ran.
    assert!(threes > 10, "only {threes} three-application targets");
}

#[test]
fn count_boundary_band_is_served_to_its_rounding() {
    let d = 1e-10;
    let yz = [
        (0.3, 0.1),
        (0.2, -0.15),
        (0.35, 0.3),
        (0.1, 0.0),
        (0.39, -0.39),
    ];
    let mut points: Vec<[f64; 3]> = yz
        .iter()
        .map(|&(y, z)| [y + f64::abs(z) - d, y, z])
        .collect();
    points.extend([[d, 0.0, 0.0], [d, d, 0.0], [d, d, -d], [d, 0.5 * d, 0.0]]);
    points.extend(
        [
            (0.0, 0.0),
            (0.3, 0.1),
            (0.3, -0.1),
            (FRAC_PI_4, 0.2),
            (FRAC_PI_4, FRAC_PI_4),
        ]
        .map(|(y, z)| [FRAC_PI_4 + d, y, z]),
    );
    let mut rng = StdRng::seed_from_u64(29);
    for [x, y, z] in points {
        let label = format!("CAN({x}, {y}, {z})");
        let err = serve(&dressed(&canonical(x, y, z), &mut rng), &label);
        assert!(err <= 1e-8, "{label}: error {err:.2e}");
    }
}

/// `RZZ(θ) = exp(−iθ/2·ZZ)`.
fn rzz(theta: f64) -> CMat {
    let (lo, hi) = (c(0.0, -theta / 2.0).exp(), c(0.0, theta / 2.0).exp());
    CMat::diag(&[lo, hi, hi, lo])
}

#[test]
fn ashn_serves_the_whole_chamber_in_one_pulse_per_class() {
    let mut targets: Vec<(String, CMat)> = chamber_grid(0.1)
        .into_iter()
        .map(|[x, y, z]| (format!("CAN({x}, {y}, {z})"), canonical(x, y, z)))
        .collect();
    // The mirrors of small-angle gates land on the `y = |z|` edge next to
    // the SWAP corner; `CAN(0.56, 0.56, ±0.48)` sits on the `x = y` edge.
    targets.push((
        "CPhase(π/16)·SWAP".into(),
        cphase(PI / 16.0).matmul(&swap()),
    ));
    targets.push(("RZZ(0.1)·SWAP".into(), rzz(0.1).matmul(&swap())));
    targets.push(("CAN(0.56, 0.56, 0.48)".into(), canonical(0.56, 0.56, 0.48)));
    targets.push((
        "CAN(0.56, 0.56, -0.48)".into(),
        canonical(0.56, 0.56, -0.48),
    ));
    for (h, r) in [(0.0, 0.0), (0.0, 1.1), (0.3, 0.9)] {
        let basis = AshnBasis::with_cutoff(h, r);
        let mut rng = StdRng::seed_from_u64(24);
        for (label, u) in &targets {
            let u = dressed(u, &mut rng);
            let circuit = basis
                .synthesize(&u)
                .unwrap_or_else(|e| panic!("h={h} r={r} {label}: no circuit ({e})"));
            let identity = weyl_coordinates(&u).dist(WeylPoint::IDENTITY) < 1e-9;
            assert_eq!(
                circuit.entangler_count(),
                usize::from(!identity),
                "h={h} r={r} {label}: not one pulse"
            );
            let err = circuit.error(&u);
            assert!(err <= 1e-11, "h={h} r={r} {label}: error {err:.2e}");
        }
    }
}
