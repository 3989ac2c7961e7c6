//! Determinism of the EA solve: the same target must compile to the same
//! drive bits on every call, both through `ashn_ea` directly and through
//! the full `AshnScheme::compile` dispatch. Synthesis caches key circuits
//! by class and promise bit-identical output for a repeated target.

use ashn_core::ea::{ashn_ea, EaVariant};
use ashn_core::hamiltonian::DriveParams;
use ashn_core::scheme::AshnScheme;
use ashn_gates::weyl::WeylPoint;
use std::f64::consts::FRAC_PI_4;

fn drive_bits(d: DriveParams) -> (u64, u64, u64) {
    (d.omega1.to_bits(), d.omega2.to_bits(), d.delta.to_bits())
}

#[test]
fn repeated_solves_are_bit_identical() {
    let targets = [
        (0.0, EaVariant::Plus, 0.5, 0.45, 0.2),
        (0.0, EaVariant::Minus, 0.6, 0.55, -0.3),
        (0.3, EaVariant::Plus, 0.5, 0.45, 0.3),
        (0.0, EaVariant::Plus, FRAC_PI_4, FRAC_PI_4, 0.1),
    ];
    for (h, variant, x, y, z) in targets {
        let solve =
            || ashn_ea(h, variant, x, y, z).unwrap_or_else(|e| panic!("({x},{y},{z}): {e}"));
        let (tau_ref, drive_ref) = solve();
        let (tau, drive) = solve();
        assert_eq!(tau.to_bits(), tau_ref.to_bits(), "tau for ({x},{y},{z})");
        assert_eq!(
            drive_bits(drive),
            drive_bits(drive_ref),
            "drive for ({x},{y},{z})"
        );
    }

    // Targets on EA faces, so the dispatch runs the numerical solve (ND is
    // closed form).
    for p in [
        WeylPoint::new(0.5, 0.45, 0.2),
        WeylPoint::new(0.6, 0.55, -0.3),
        WeylPoint::new(FRAC_PI_4, FRAC_PI_4, FRAC_PI_4),
    ] {
        let compile = || {
            AshnScheme::new(0.0)
                .compile(p)
                .unwrap_or_else(|e| panic!("{e}"))
        };
        let (a, b) = (compile(), compile());
        assert_eq!(a.scheme, b.scheme, "sub-scheme flipped at {p}");
        assert_eq!(a.tau.to_bits(), b.tau.to_bits());
        assert_eq!(drive_bits(a.drive), drive_bits(b.drive));
    }
}
