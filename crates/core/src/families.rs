//! Continuous gate families subsumed by AshN (paper §1): the fSim family
//! (Foxen et al. \[2\]) and the XY interaction family (Abrams et al. \[4\]) are
//! strict subsets of the AshN instruction set; this module compiles them and
//! quantifies the claim.

use crate::scheme::{AshnPulse, AshnScheme, CompileError};
use ashn_gates::kak::weyl_coordinates;
use ashn_gates::two::{fsim, xy};
use ashn_gates::weyl::WeylPoint;

/// Weyl coordinates of `fSim(θ, φ)`.
pub fn fsim_coords(theta: f64, phi: f64) -> WeylPoint {
    weyl_coordinates(&fsim(theta, phi))
}

/// Weyl coordinates of `XY(β)`.
pub fn xy_coords(beta: f64) -> WeylPoint {
    weyl_coordinates(&xy(beta))
}

/// Compiles `fSim(θ, φ)` into a single AshN pulse.
///
/// # Errors
///
/// Propagates [`CompileError`] (should not occur: AshN spans `SU(4)`).
pub fn fsim_pulse(scheme: &AshnScheme, theta: f64, phi: f64) -> Result<AshnPulse, CompileError> {
    scheme.compile(fsim_coords(theta, phi))
}

/// Compiles `XY(β)` into a single AshN pulse.
///
/// # Errors
///
/// Propagates [`CompileError`].
pub fn xy_pulse(scheme: &AshnScheme, beta: f64) -> Result<AshnPulse, CompileError> {
    scheme.compile(xy_coords(beta))
}

/// A gate *outside* both families but inside AshN: any class with
/// `|z| > 0` and `x ≠ y` is neither excitation-number-conserving (fSim) nor
/// an XY point. Returns such a witness.
pub fn beyond_fsim_witness() -> WeylPoint {
    WeylPoint::new(0.6, 0.3, 0.15)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, FRAC_PI_4};

    #[test]
    fn xy_family_is_the_x_equals_y_z_zero_edge() {
        for k in 1..8 {
            let beta = k as f64 * 0.35;
            let p = xy_coords(beta);
            assert!((p.x - p.y).abs() < 1e-9, "XY family has x = y, got {p}");
            assert!(p.z.abs() < 1e-9);
        }
    }

    #[test]
    fn fsim_special_points() {
        // fSim(π/2, 0) ~ iSWAP; fSim(0, φ) ~ CPhase family (x = |φ|/4, y=z).
        assert!(fsim_coords(FRAC_PI_2, 0.0).gate_dist(WeylPoint::ISWAP) < 1e-8);
        let cphase = fsim_coords(0.0, std::f64::consts::PI);
        assert!(
            cphase.gate_dist(WeylPoint::CNOT) < 1e-8,
            "CZ point: {cphase}"
        );
    }

    #[test]
    fn whole_xy_family_compiles_at_optimal_time() {
        let scheme = AshnScheme::new(0.0);
        for k in 1..10 {
            let beta = k as f64 * 2.0 * FRAC_PI_2 / 10.0;
            let pulse = xy_pulse(&scheme, beta).expect("compiles");
            assert!(pulse.coordinate_error() < 1e-7);
            // XY(β) sits on the x = y, z = 0 ray: optimal time x + y = 2x.
            let p = xy_coords(beta);
            assert!((pulse.tau - 2.0 * p.x).abs() < 1e-8);
        }
    }

    #[test]
    fn fsim_grid_compiles() {
        let scheme = AshnScheme::new(0.0);
        for i in 0..4 {
            for j in 0..4 {
                let theta = 0.2 + i as f64 * 0.35;
                let phi = -1.0 + j as f64 * 0.6;
                let pulse = fsim_pulse(&scheme, theta, phi).expect("compiles");
                assert!(
                    pulse.coordinate_error() < 1e-7,
                    "fSim({theta},{phi}): err {}",
                    pulse.coordinate_error()
                );
            }
        }
    }

    #[test]
    fn fsim_family_is_a_measure_zero_slice() {
        // fSim(θ,φ) classes satisfy y = x or |z| = y (number-conserving
        // structure); the witness violates both, yet AshN compiles it.
        let w = beyond_fsim_witness();
        assert!(w.in_chamber(1e-9));
        assert!((w.x - w.y).abs() > 0.05 && (w.z.abs() - w.y).abs() > 0.05);
        let scheme = AshnScheme::new(0.0);
        let pulse = scheme.compile(w).expect("AshN goes beyond fSim");
        assert!(pulse.coordinate_error() < 1e-7);
        // And a dense θ,φ sweep never lands on the witness class.
        for i in 0..12 {
            for j in 0..12 {
                let p = fsim_coords(i as f64 * 0.26, j as f64 * 0.52 - 3.0);
                assert!(p.gate_dist(w) > 1e-3);
            }
        }
    }

    #[test]
    fn sqisw_is_the_quarter_xy_point() {
        assert!(xy_coords(-FRAC_PI_2).gate_dist(WeylPoint::SQISW) < 1e-8);
        let _ = FRAC_PI_4;
    }
}
