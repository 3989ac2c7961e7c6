//! Regenerates the paper's §5 calibration pipeline end to end:
//!
//! 1. **Cartan double** (Fig. 4): interaction coefficients of a realistic
//!    (ramped) pulse extracted from `γ(U)` eigenphases, including the
//!    reversed-pulse `Θ⁻¹` identity.
//! 2. **Phase estimation** (§5.1): the same eigenphases read out with a
//!    shot-limited QPE register.
//! 3. **Model calibration** (§5.2): fit a control model from a handful of
//!    probe pulses, then compensate unseen gates through it.

use ashn_bench::{f4, row, Args};
use ashn_cal::cartan::{cartan_double, coords_from_phases, estimate_coords};
use ashn_cal::frb::{fit_decay, frb_curve, infidelity_from_decay};
use ashn_cal::model::{calibrate, execute_pulse, ControlModel, Hardware};
use ashn_cal::pulse::{evolve_pulsed, evolve_pulsed_reversed, PulseShape};
use ashn_cal::qpe::{bin_to_phase, dominant_phases, qpe_histogram};
use ashn_core::scheme::AshnScheme;
use ashn_core::verify::entanglement_fidelity;
use ashn_gates::kak::weyl_coordinates;
use ashn_gates::pauli::yy;
use ashn_gates::weyl::WeylPoint;
use ashn_math::eig::eig_unitary;
use ashn_math::Complex;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::parse(&["seed", "shots"]);
    let seed: u64 = args.get("seed", 23);
    let shots: usize = args.get("shots", 3000);
    let mut rng = StdRng::seed_from_u64(seed);

    println!("== 1. Cartan double on a ramped pulse (Fig. 4) ==");
    let scheme = AshnScheme::new(0.0);
    let pulse = scheme.compile(WeylPoint::B).expect("compiles");
    let shape = PulseShape::CosineRamp { rise: 0.15 };
    let u = evolve_pulsed(0.0, pulse.drive, pulse.tau, shape, 400);
    let realized = weyl_coordinates(&u);
    println!(
        "requested [B] = {}, ramped pulse realizes {} (ramp error {:.3})",
        WeylPoint::B,
        realized,
        realized.gate_dist(WeylPoint::B)
    );
    // Θ⁻¹ via time reversal with negated drives: γ(U) = U·Θ⁻¹(U).
    let theta_inv = {
        let rev = evolve_pulsed_reversed(0.0, pulse.drive, pulse.tau, shape, 400);
        yy().matmul(&rev.transpose()).matmul(&yy())
    };
    let gamma_direct = cartan_double(&u);
    let gamma_via_rev = u.matmul(&yy()).matmul(&theta_inv.transpose()).matmul(&yy());
    println!(
        "γ(U) from reversed-pulse Θ⁻¹ matches the definition to {:.1e}",
        gamma_direct.dist(&gamma_via_rev)
    );
    let est = estimate_coords(&u, realized);
    println!("coordinates estimated from γ(U) phases: {est}\n");

    println!("== 2. Shot-limited phase-estimation readout (§5.1) ==");
    let gamma = cartan_double(&u);
    let e = eig_unitary(&gamma);
    let m_bits = 7;
    let mut measured = [0.0f64; 4];
    for (j, m) in measured.iter_mut().enumerate() {
        let col = e.vectors.col(j);
        let input: [Complex; 4] = [col[0], col[1], col[2], col[3]];
        let hist = qpe_histogram(&gamma, &input, m_bits, shots / 4, &mut rng);
        *m = dominant_phases(&hist, m_bits, 1)[0];
    }
    row(&["eigenphase".into(), "exact".into(), "QPE".into()]);
    for (j, m) in measured.iter().enumerate() {
        row(&[format!("θ_{j}"), f4(e.values[j].arg()), f4(*m)]);
    }
    let est_qpe = coords_from_phases(&measured, realized);
    println!(
        "coordinates from {}-bit QPE: {est_qpe} (resolution {:.4})\n",
        m_bits,
        bin_to_phase(1, m_bits)
    );

    println!("== 3. Model-based gate-set calibration (§5.2) ==");
    let hw = Hardware {
        true_model: ControlModel {
            amp_scale: 1.05,
            amp_offset: 0.02,
            detuning_offset: 0.03,
        },
        h_ratio: 0.0,
    };
    let probes: Vec<_> = [
        WeylPoint::CNOT,
        WeylPoint::SWAP,
        WeylPoint::B,
        WeylPoint::SQISW,
    ]
    .iter()
    .map(|&p| {
        let pl = scheme.compile(p).unwrap();
        (pl.drive, pl.tau)
    })
    .collect();
    let fitted = calibrate(&hw, &probes, shots, &mut rng);
    println!(
        "true model: scale {:.3}, offset {:.3}, detuning {:.3}",
        hw.true_model.amp_scale, hw.true_model.amp_offset, hw.true_model.detuning_offset
    );
    println!(
        "fitted    : scale {:.3}, offset {:.3}, detuning {:.3}",
        fitted.amp_scale, fitted.amp_offset, fitted.detuning_offset
    );
    row(&[
        "unseen target".into(),
        "F (raw)".into(),
        "F (compensated)".into(),
    ]);
    for target in [
        WeylPoint::new(0.6, 0.3, -0.15),
        WeylPoint::new(0.4, 0.35, 0.2),
        WeylPoint::ISWAP,
    ] {
        let pl = scheme.compile(target).unwrap();
        let ideal = pl.unitary();
        let raw = execute_pulse(&hw, &pl, None);
        let fixed = execute_pulse(&hw, &pl, Some(&fitted));
        row(&[
            format!("{target}"),
            format!("{:.6}", entanglement_fidelity(&ideal, &raw)),
            format!("{:.6}", entanglement_fidelity(&ideal, &fixed)),
        ]);
    }

    println!("\nFRB sanity: decay under the uncalibrated hardware");
    let mut implement = |g: &ashn_math::CMat| {
        let p = weyl_coordinates(g);
        let pl = scheme.compile(p).unwrap();
        // Hardware distortion on the entangler; locals assumed perfect.
        let k = ashn_gates::kak::kak(g);
        let raw = execute_pulse(&hw, &pl, None);
        let kc = ashn_gates::kak::kak(&pl.unitary());
        // Dress the raw pulse with the same locals the compiler would use.
        let l =
            k.a1.matmul(&kc.a1.adjoint())
                .kron(&k.a2.matmul(&kc.a2.adjoint()));
        let r = kc
            .b1
            .adjoint()
            .matmul(&k.b1)
            .kron(&kc.b2.adjoint().matmul(&k.b2));
        ashn_math::CMat::from(l)
            .matmul(&raw)
            .matmul(&ashn_math::CMat::from(r))
    };
    let curve = frb_curve(&[1, 2, 4, 8], 6, &mut implement, 0, &mut rng);
    let (_, f, _) = fit_decay(&curve);
    println!(
        "decay f = {:.5} → average gate infidelity ≈ {:.4}",
        f,
        infidelity_from_decay(f)
    );
}
