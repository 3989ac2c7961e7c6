//! The AshN-EA± (equal amplitude) sub-schemes (paper Algorithms 4–5,
//! derivation in §A.4–A.6).
//!
//! EA+ covers the chamber face where `x+y+z` is the binding time constraint;
//! EA− covers the `x+y−z` face. With the `exp(−iHτ)` convention used in this
//! workspace (a global `z ↦ −z` mirror of the paper's statements), the
//! `x+y+z` face is driven by the **antisymmetric** amplitude `Ω₂` and the
//! `x+y−z` face by the **symmetric** amplitude `Ω₁` — verified empirically
//! by the round-trip tests, which fail for the opposite assignment.
//!
//! The published closed-form inversion for `(α, β)` (Algorithm 4) carries
//! transcription ambiguities, so we solve the two-parameter inversion
//! numerically instead, in one serial, deterministic pass:
//!
//! 1. the 100 seeds of the `(α, β) ↦ (Ω, δ)` spectral parameterisation of
//!    §A.4 are ranked by the Makhlin-invariant distance of `exp(−iHτ)` to
//!    the target class — a smooth objective;
//! 2. the best-ranked seeds are refined, in rank order, by Nelder–Mead on
//!    that same objective;
//! 3. the first refinement that lands within `1e-4` of the class is
//!    polished by Nelder–Mead on the **Weyl-coordinate** distance, and
//!    accepted when it reaches `1e-7`.
//!
//! The polish cannot use the invariants. The chamber is the quotient of
//! the magic-basis eigenphases by their permutations, and the invariants
//! are smooth, symmetric functions of those eigenphases. On the `x = y`
//! and `y = |z|` edges two eigenphases coincide, so the canonical
//! coordinates fold there, and the invariant residual is *quadratic* in
//! the coordinate error normal to the edge. Driven to the `~1e-28` floor
//! of its squared form, it still leaves a coordinate error of `~1e-7`. The
//! coordinate distance is linear in that error, and its polish reaches
//! the `1e-13` target.
//!
//! Both objectives run entirely on stack-allocated
//! [`Mat4`](ashn_math::Mat4)s ([`crate::hamiltonian::evolve4_real`], which
//! exploits the Hamiltonian's real-symmetric structure, with `makhlin4` or
//! `weyl_coordinates4`), so the hundreds of evaluations per solve never
//! touch the heap.

use crate::hamiltonian::{evolve4_real, DriveParams};
use ashn_gates::invariants::{makhlin4, makhlin_from_coords};
use ashn_gates::kak::weyl_coordinates4;
use ashn_gates::weyl::WeylPoint;
use ashn_math::neldermead::{nelder_mead, NmOptions};
use std::f64::consts::PI;

/// Error from the EA solver.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EaError {
    /// The numerical search did not converge to the target class.
    NoConvergence {
        /// Best Weyl-coordinate distance reached (`NaN` when the
        /// `core::ea::convergence` failpoint fired).
        best: f64,
    },
    /// The computed evolution time is not positive (identity-class target).
    NonPositiveTime,
}

impl std::fmt::Display for EaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EaError::NoConvergence { best } => {
                write!(f, "EA search did not converge (best distance {best:.3e})")
            }
            EaError::NonPositiveTime => write!(f, "evolution time must be positive"),
        }
    }
}

impl std::error::Error for EaError {}

/// Which equal-amplitude variant to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EaVariant {
    /// Covers the `x+y+z` face (antisymmetric drive `Ω₂` in our convention).
    Plus,
    /// Covers the `x+y−z` face (symmetric drive `Ω₁` in our convention).
    Minus,
}

/// Evolution time used by the EA variant for a target class
/// (units of `1/g`); this is the corresponding face of the optimal-time
/// polytope.
pub fn ea_time(h_ratio: f64, variant: EaVariant, x: f64, y: f64, z: f64) -> f64 {
    match variant {
        EaVariant::Plus => 2.0 * (x + y + z) / (2.0 - h_ratio),
        EaVariant::Minus => 2.0 * (x + y - z) / (2.0 + h_ratio),
    }
}

fn drive_of(variant: EaVariant, omega: f64, delta: f64) -> DriveParams {
    match variant {
        EaVariant::Plus => DriveParams::new(0.0, omega, delta),
        EaVariant::Minus => DriveParams::new(omega, 0.0, delta),
    }
}

/// Seeds from the spectral `(α, β)` parameterisation of §A.4:
/// `Ω = √((1−α)β(1+α+β))/2`, `δ = √(α(α+β)(1+β))/2`.
fn seeds(tau: f64) -> Vec<[f64; 2]> {
    let beta_max = 2.0 * PI / tau;
    let mut out = Vec::new();
    let n = 9;
    for i in 0..=n {
        let alpha = i as f64 / n as f64;
        for j in 0..=n {
            let beta = beta_max * j as f64 / n as f64;
            let omega = ((1.0 - alpha) * beta * (1.0 + alpha + beta))
                .max(0.0)
                .sqrt()
                / 2.0;
            let delta = (alpha * (alpha + beta) * (1.0 + beta)).max(0.0).sqrt() / 2.0;
            out.push([omega, delta]);
        }
    }
    out
}

/// How many of the best-ranked seeds are refined before the solve gives up.
const REFINED_SEEDS: usize = 12;

/// Solves the EA sub-scheme: finds `(τ, Ω, δ)` whose evolution realizes the
/// class `(x, y, z)` (canonical coordinates) in the face-optimal time.
///
/// The solve is serial and a pure function of its inputs. It carries the
/// `core::ea::convergence` failpoint, which fails it as
/// [`EaError::NoConvergence`] before any refinement runs.
///
/// # Errors
///
/// [`EaError::NoConvergence`] when no `(Ω, δ)` reproduces the target to
/// `1e-7` in Weyl coordinates — i.e. the target does not lie on this
/// variant's face; [`EaError::NonPositiveTime`] for the identity class.
pub fn ashn_ea(
    h_ratio: f64,
    variant: EaVariant,
    x: f64,
    y: f64,
    z: f64,
) -> Result<(f64, DriveParams), EaError> {
    let telemetry = ashn_telemetry::current();
    let _span = telemetry.span("core.ea.search");
    telemetry.add("core.ea.searches", 1);
    let tau = ea_time(h_ratio, variant, x, y, z);
    if tau <= 1e-12 {
        return Err(EaError::NonPositiveTime);
    }
    if ashn_math::failpoint!("core::ea::convergence") {
        return Err(EaError::NoConvergence { best: f64::NAN });
    }
    let target = WeylPoint::new(x, y, z).canonicalize();
    let (g1t, g2t) = makhlin_from_coords(target.x, target.y, target.z);
    let objective = |p: &[f64]| {
        let u = evolve4_real(h_ratio, drive_of(variant, p[0].abs(), p[1]), tau);
        let (g1, g2) = makhlin4(&u);
        (g1 - g1t).norm_sqr() + (g2 - g2t).powi(2)
    };
    let distance = |p: &[f64]| {
        let u = evolve4_real(h_ratio, drive_of(variant, p[0].abs(), p[1]), tau);
        weyl_coordinates4(&u).gate_dist(target)
    };

    // The sort is stable, so tied seeds keep their grid order.
    let mut ranked: Vec<([f64; 2], f64)> =
        seeds(tau).into_iter().map(|s| (s, objective(&s))).collect();
    ranked.sort_by(|a, b| a.1.total_cmp(&b.1));

    let mut best = f64::INFINITY;
    for (seed, _) in ranked.iter().take(REFINED_SEEDS) {
        telemetry.add("core.ea.attempts", 1);
        let coarse = nelder_mead(
            objective,
            seed,
            &NmOptions {
                max_evals: 3000,
                f_tol: 1e-28,
                initial_step: 0.15,
                // The invariant objective is zero at the solution, so a best
                // value of 1e-22 is already far inside the polish basin —
                // and refinements stuck at a useless nonzero local minimum
                // collapse in O(100) evaluations instead of exhausting the
                // budget against the floating-point noise floor.
                f_target: 1e-22,
                f_tol_rel: 1e-9,
            },
        );
        let start = [coarse.x[0].abs(), coarse.x[1]];
        let mut dist = distance(&start);
        if dist < 1e-4 {
            // Close enough to polish; accept only if the polished pulse
            // really lands on the class.
            let polished = nelder_mead(
                distance,
                &start,
                &NmOptions {
                    max_evals: 800,
                    f_tol: 0.0,
                    // No wider than the distance left to cover: an
                    // interior start is already ~1e-11 from the class.
                    initial_step: dist.clamp(1e-12, 1e-6),
                    f_target: 1e-13,
                    f_tol_rel: 1e-9,
                },
            );
            dist = polished.f;
            if dist < 1e-7 {
                let drive = drive_of(variant, polished.x[0].abs(), polished.x[1]);
                return Ok((tau, drive));
            }
        }
        best = best.min(dist);
    }
    Err(EaError::NoConvergence { best })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hamiltonian::evolve;
    use ashn_gates::kak::weyl_coordinates;
    use std::f64::consts::FRAC_PI_4;

    fn check(h: f64, variant: EaVariant, x: f64, y: f64, z: f64) -> (f64, DriveParams) {
        let (tau, drive) = ashn_ea(h, variant, x, y, z).expect("EA should converge");
        let u = evolve(h, drive, tau);
        let got = weyl_coordinates(&u);
        let want = WeylPoint::new(x, y, z).canonicalize();
        assert!(
            got.gate_dist(want) < 1e-7,
            "h={h} {variant:?} target=({x},{y},{z}): got {got}, want {want}"
        );
        (tau, drive)
    }

    #[test]
    fn swap_class_via_ea() {
        // [SWAP] sits on an EA face; paper Table 1 gives Ω₁ = 0 (EA−
        // shape with our conventions): A₁ = −A₂, τ = 3π/4.
        let (tau, drive) = check(0.0, EaVariant::Plus, FRAC_PI_4, FRAC_PI_4, FRAC_PI_4);
        let _ = drive;
        assert!((tau - 3.0 * FRAC_PI_4).abs() < 1e-9, "τ = {tau}");
    }

    #[test]
    fn ea_plus_face_targets() {
        // Targets on the x+y+z face: y+z ≥ (1−h̃)x.
        for (h, x, y, z) in [
            (0.0, 0.5, 0.45, 0.2),
            (0.0, 0.6, 0.55, 0.3),
            (0.0, FRAC_PI_4, FRAC_PI_4, 0.1),
        ] {
            assert!(y + z >= (1.0 - h) * x - 1e-12, "not on the EA+ face");
            check(h, EaVariant::Plus, x, y, z);
        }
    }

    #[test]
    fn ea_minus_face_targets() {
        // Targets on the x+y−z face: y−z ≥ (1+h̃)x.
        for (h, x, y, z) in [
            (0.0, 0.5, 0.45, -0.2),
            (0.0, 0.6, 0.55, -0.3),
            (0.0, FRAC_PI_4, FRAC_PI_4, -0.1),
        ] {
            check(h, EaVariant::Minus, x, y, z);
        }
    }

    #[test]
    fn ea_with_zz_coupling() {
        // With h̃ ≠ 0 the faces tilt; pick targets comfortably inside.
        check(0.3, EaVariant::Plus, 0.5, 0.45, 0.3);
        check(-0.2, EaVariant::Plus, 0.5, 0.45, 0.25);
        check(0.25, EaVariant::Minus, 0.5, 0.45, -0.25);
    }

    #[test]
    fn degenerate_edge_classes_polish_to_the_coordinate_floor() {
        // On the `x = y` and `y = |z|` edges the invariant residual is
        // quadratic in the coordinate error; the coordinate polish must
        // still land far inside the 1e-7 acceptance.
        for (variant, x, y, z) in [
            (EaVariant::Plus, 0.56, 0.56, 0.48),
            (EaVariant::Plus, 0.6, 0.4, 0.4),
            (EaVariant::Minus, 0.56, 0.56, -0.48),
            (EaVariant::Minus, 0.6, 0.4, -0.4),
        ] {
            let (tau, drive) = check(0.0, variant, x, y, z);
            let got = weyl_coordinates(&evolve(0.0, drive, tau));
            let err = got.gate_dist(WeylPoint::new(x, y, z));
            assert!(err < 1e-12, "{variant:?} ({x}, {y}, {z}): error {err:.2e}");
        }
    }

    #[test]
    fn identity_is_rejected() {
        assert_eq!(
            ashn_ea(0.0, EaVariant::Plus, 0.0, 0.0, 0.0).unwrap_err(),
            EaError::NonPositiveTime
        );
    }

    #[test]
    fn ea_drive_structure_matches_variant() {
        let (_, d) = check(0.0, EaVariant::Plus, 0.5, 0.45, 0.2);
        assert_eq!(d.omega1, 0.0, "EA+ uses only the antisymmetric drive");
        let (_, d) = check(0.0, EaVariant::Minus, 0.5, 0.45, -0.2);
        assert_eq!(d.omega2, 0.0, "EA− uses only the symmetric drive");
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn convergence_failpoint_fails_the_search() {
        use crate::fault::{self, FaultMode};
        let _guard = fault::exclusive();
        fault::reset();
        fault::configure("core::ea::convergence", FaultMode::Always);
        let err = ashn_ea(0.0, EaVariant::Plus, 0.5, 0.45, 0.2).unwrap_err();
        fault::reset();
        assert!(matches!(err, EaError::NoConvergence { .. }));
        // Disarmed again: the same target converges.
        assert!(ashn_ea(0.0, EaVariant::Plus, 0.5, 0.45, 0.2).is_ok());
    }
}
