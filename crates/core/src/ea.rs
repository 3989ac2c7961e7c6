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
//! numerically instead: the drive pair `(Ω, δ)` is found by matching the
//! Makhlin invariants of `exp(−iHτ)` to the target class — a smooth
//! objective — seeded by the `(α, β) ↦ (Ω, δ)` spectral parameterisation of
//! §A.4 and refined with Nelder–Mead. Every solution is verified against the
//! requested Weyl coordinates before being returned.
//!
//! Two performance properties of this module matter downstream:
//!
//! - the objective runs entirely on stack-allocated [`Mat4`](ashn_math::Mat4)s
//!   ([`crate::hamiltonian::evolve4`] + `makhlin4`), so the thousands of
//!   evaluations per solve never touch the heap;
//! - the multistart is fanned over the worker pool
//!   ([`ashn_ea_multistart`]) with a stable `(error, seed-index)` winner
//!   rule, so the result is **bit-identical for any worker count** —
//!   including the serial `workers = 1` path.

use crate::hamiltonian::{evolve4, evolve4_real, DriveParams};
use crate::par::parallel_map;
use ashn_gates::invariants::{makhlin4, makhlin_from_coords};
use ashn_gates::kak::weyl_coordinates4;
use ashn_gates::weyl::WeylPoint;
use ashn_math::neldermead::{nelder_mead, NmOptions};
use ashn_math::splitmix::{mix64, unit_f64};
use std::f64::consts::PI;

/// Error from the EA solver.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EaError {
    /// The numerical search did not converge to the target class.
    NoConvergence {
        /// Best invariant distance achieved.
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

/// What one refinement attempt produced.
enum Attempt {
    /// A polished drive whose evolution lands on the class within `1e-7`.
    Converged(DriveParams),
    /// The closest the attempt got (coordinate distance).
    Missed(f64),
}

/// Solves the EA sub-scheme serially: finds `(τ, Ω, δ)` whose evolution
/// realizes the class `(x, y, z)` (canonical coordinates) in the
/// face-optimal time. Equivalent to [`ashn_ea_multistart`] with one worker.
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
    ashn_ea_multistart(h_ratio, variant, x, y, z, 1)
}

/// [`ashn_ea`] with the multistart fanned over `workers` pool threads
/// (`0` = one per hardware thread).
///
/// The seed grid is ranked in parallel, then refinement attempts run in
/// waves of `workers`; the winner is the **lowest-indexed** converged
/// attempt, exactly the one the serial scan would return. Results are
/// therefore bit-identical for every worker count.
///
/// # Errors
///
/// Same as [`ashn_ea`].
pub fn ashn_ea_multistart(
    h_ratio: f64,
    variant: EaVariant,
    x: f64,
    y: f64,
    z: f64,
    workers: usize,
) -> Result<(f64, DriveParams), EaError> {
    ashn_ea_search(
        h_ratio,
        variant,
        x,
        y,
        z,
        &EaSearch {
            workers,
            ..EaSearch::default()
        },
    )
}

/// Search-effort configuration for [`ashn_ea_search`].
///
/// The default (`extra_rounds = 0`) reproduces [`ashn_ea_multistart`] bit
/// for bit; retry layers above raise `extra_rounds` to widen the
/// multistart with deterministically jittered seeds.
#[derive(Clone, Copy, Debug, Default)]
pub struct EaSearch {
    /// Worker threads for the multistart fan-out (`0` = hardware default).
    pub workers: usize,
    /// Escalation rounds appended after the base attempt list misses. Each
    /// round adds progressively more, wider-stepped attempts around the
    /// best-ranked seeds, jittered by a stream derived from the round
    /// budget itself, so a search with `k` rounds replays exactly.
    pub extra_rounds: u32,
}

/// [`ashn_ea_multistart`] generalized with escalation rounds (see
/// [`EaSearch`]). Carries the `core::ea::convergence` failpoint, which
/// fails the search as [`EaError::NoConvergence`] before any attempt runs.
///
/// # Errors
///
/// Same as [`ashn_ea`].
pub fn ashn_ea_search(
    h_ratio: f64,
    variant: EaVariant,
    x: f64,
    y: f64,
    z: f64,
    search: &EaSearch,
) -> Result<(f64, DriveParams), EaError> {
    let workers = search.workers;
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

    // Rank seeds by objective (fanned over the workers; the ranking sort is
    // stable, so ties resolve by seed index regardless of scheduling).
    let grid = seeds(tau);
    let scores = parallel_map(workers, grid.len(), |i| objective(&grid[i]));
    let mut ranked: Vec<([f64; 2], f64)> = grid.into_iter().zip(scores).collect();
    ranked.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());

    // Refine the best-ranked seeds; on a miss, retry with jittered copies
    // of the leaders and larger simplex steps (rare targets near face
    // boundaries need the wider exploration).
    let jittered: Vec<[f64; 2]> = ranked
        .iter()
        .take(4)
        .flat_map(|(s, _)| {
            [
                [s[0] * 1.17 + 0.05, s[1] * 0.83 - 0.04],
                [s[0] * 0.71 + 0.21, s[1] * 1.29 + 0.11],
            ]
        })
        .collect();
    let attempts: Vec<([f64; 2], f64)> = ranked
        .iter()
        .take(12)
        .map(|(s, _)| (*s, 0.15))
        .chain(jittered.into_iter().map(|s| (s, 0.45)))
        .collect();

    let run_attempt = |&(seed, step): &([f64; 2], f64)| -> Attempt {
        let res = nelder_mead(
            objective,
            &[seed[0], seed[1]],
            &NmOptions {
                max_evals: 3000,
                f_tol: 1e-28,
                initial_step: step,
                // The invariant objective is zero at the solution, so a best
                // value of 1e-22 is already far inside the polish basin —
                // and attempts stuck at a useless nonzero local minimum
                // collapse in O(100) evaluations instead of exhausting the
                // budget against the floating-point noise floor.
                f_target: 1e-22,
                f_tol_rel: 1e-9,
            },
        );
        let drive = drive_of(variant, res.x[0].abs(), res.x[1]);
        let coarse = weyl_coordinates4(&evolve4(h_ratio, drive, tau)).gate_dist(target);
        if coarse < 1e-4 {
            // Close enough to polish; accept only if the polished pulse
            // really lands on the class.
            let polished = polish(h_ratio, variant, tau, &target, drive);
            let dist = weyl_coordinates4(&evolve4(h_ratio, polished, tau)).gate_dist(target);
            if dist < 1e-7 {
                Attempt::Converged(polished)
            } else {
                Attempt::Missed(dist)
            }
        } else {
            Attempt::Missed(coarse)
        }
    };

    // Waves of `workers` attempts: within a wave all attempts run
    // concurrently, and the scan below always returns the lowest-indexed
    // success — the same winner the serial early-exit loop picks, so
    // results stay a pure function of the inputs.
    let wave = crate::par::resolve_workers(workers);
    let mut best_dist = f64::INFINITY;
    let run_round = |attempts: &[([f64; 2], f64)], best_dist: &mut f64| -> Option<DriveParams> {
        for chunk in attempts.chunks(wave) {
            // Bulk per-wave accounting: one add per wave, never per attempt.
            telemetry.add("core.ea.waves", 1);
            telemetry.add("core.ea.attempts", chunk.len() as u64);
            let outcomes = parallel_map(wave, chunk.len(), |i| run_attempt(&chunk[i]));
            for outcome in outcomes {
                match outcome {
                    Attempt::Converged(drive) => return Some(drive),
                    Attempt::Missed(dist) => *best_dist = best_dist.min(dist),
                }
            }
        }
        None
    };
    if let Some(drive) = run_round(&attempts, &mut best_dist) {
        return Ok((tau, drive));
    }

    // Escalation rounds: progressively more and wider-stepped attempts,
    // jittered around the best-ranked seeds by a stream seeded from the
    // round budget, so retries explore genuinely new starts yet replay
    // exactly.
    let stream = mix64(u64::from(search.extra_rounds));
    for round in 1..=search.extra_rounds {
        telemetry.add("core.ea.escalation_rounds", 1);
        let mut state = mix64(stream ^ round as u64);
        let mut draw = || {
            state = mix64(state);
            unit_f64(state)
        };
        let pool = ranked.len().min(6);
        let count = 6 + 4 * round as usize;
        let step = 0.45 * (1.0 + 0.5 * round as f64);
        let extra: Vec<([f64; 2], f64)> = (0..count)
            .map(|k| {
                let base = ranked[k % pool].0;
                let omega = base[0] * (0.4 + 1.6 * draw()) + 0.4 * (draw() - 0.5);
                let delta = base[1] * (0.4 + 1.6 * draw()) + 0.4 * (draw() - 0.5);
                ([omega, delta], step)
            })
            .collect();
        if let Some(drive) = run_round(&extra, &mut best_dist) {
            return Ok((tau, drive));
        }
    }
    Err(EaError::NoConvergence { best: best_dist })
}

/// One extra refinement pass at tighter tolerance (helps push coordinate
/// error from ~1e-8 to ~1e-10 for downstream exact-gate checks).
fn polish(
    h_ratio: f64,
    variant: EaVariant,
    tau: f64,
    target: &WeylPoint,
    start: DriveParams,
) -> DriveParams {
    let (om0, dl0) = match variant {
        EaVariant::Plus => (start.omega2, start.delta),
        EaVariant::Minus => (start.omega1, start.delta),
    };
    let (g1t, g2t) = makhlin_from_coords(target.x, target.y, target.z);
    let objective = |p: &[f64]| {
        let u = evolve4_real(h_ratio, drive_of(variant, p[0].abs(), p[1]), tau);
        let (g1, g2) = makhlin4(&u);
        (g1 - g1t).norm_sqr() + (g2 - g2t).powi(2)
    };
    let res = nelder_mead(
        objective,
        &[om0, dl0],
        &NmOptions {
            max_evals: 800,
            f_tol: 1e-30,
            initial_step: 1e-4,
            f_tol_rel: 1e-9,
            ..NmOptions::default()
        },
    );
    let cand = drive_of(variant, res.x[0].abs(), res.x[1]);
    let before = weyl_coordinates4(&evolve4(h_ratio, start, tau)).gate_dist(*target);
    let after = weyl_coordinates4(&evolve4(h_ratio, cand, tau)).gate_dist(*target);
    if after < before {
        cand
    } else {
        start
    }
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

    #[test]
    fn search_with_defaults_matches_multistart_bit_for_bit() {
        let reference = ashn_ea_multistart(0.0, EaVariant::Plus, 0.5, 0.45, 0.2, 2).unwrap();
        let got = ashn_ea_search(
            0.0,
            EaVariant::Plus,
            0.5,
            0.45,
            0.2,
            &EaSearch {
                workers: 2,
                ..EaSearch::default()
            },
        )
        .unwrap();
        assert_eq!(got.0.to_bits(), reference.0.to_bits());
        assert_eq!(got.1.omega2.to_bits(), reference.1.omega2.to_bits());
        assert_eq!(got.1.delta.to_bits(), reference.1.delta.to_bits());
    }

    #[test]
    fn escalation_rounds_still_converge_and_stay_deterministic() {
        let search = EaSearch {
            workers: 1,
            extra_rounds: 2,
        };
        let a = ashn_ea_search(0.0, EaVariant::Plus, 0.5, 0.45, 0.2, &search).unwrap();
        let b = ashn_ea_search(0.0, EaVariant::Plus, 0.5, 0.45, 0.2, &search).unwrap();
        assert_eq!(a.0.to_bits(), b.0.to_bits());
        assert_eq!(a.1.omega2.to_bits(), b.1.omega2.to_bits());
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

    #[test]
    fn multistart_workers_do_not_change_the_solution() {
        let reference = ashn_ea_multistart(0.0, EaVariant::Plus, 0.5, 0.45, 0.2, 1).unwrap();
        for workers in [2, 4] {
            let got = ashn_ea_multistart(0.0, EaVariant::Plus, 0.5, 0.45, 0.2, workers).unwrap();
            assert_eq!(got.0.to_bits(), reference.0.to_bits());
            assert_eq!(got.1.omega2.to_bits(), reference.1.omega2.to_bits());
            assert_eq!(got.1.delta.to_bits(), reference.1.delta.to_bits());
        }
    }
}
