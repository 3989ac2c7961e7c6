//! The AshN compilation scheme (paper Algorithm 1): dispatches a target
//! Weyl-chamber class to the ND / EA+ / EA− / ND-EXT sub-scheme that attains
//! it in optimal time (or in extended time `π − 2x` under the cutoff `r`).

use crate::ea::{ashn_ea_search, EaSearch, EaVariant};
use crate::hamiltonian::{evolve, DriveParams};
use crate::nd::{ashn_nd, ashn_nd_ext};
use ashn_gates::cost::optimal_time_branches;
use ashn_gates::kak::weyl_coordinates;
use ashn_gates::weyl::WeylPoint;
use ashn_math::CMat;
use std::f64::consts::{FRAC_PI_2, PI};

/// Which sub-scheme produced a pulse.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubScheme {
    /// No pulse at all (identity class).
    Identity,
    /// No detuning, optimal time `2x`.
    Nd,
    /// No detuning, extended time `π − 2x` (cutoff region).
    NdExt,
    /// Equal amplitude, `x+y+z` face.
    EaPlus,
    /// Equal amplitude, `x+y−z` face.
    EaMinus,
}

impl std::fmt::Display for SubScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            SubScheme::Identity => "identity",
            SubScheme::Nd => "AshN-ND",
            SubScheme::NdExt => "AshN-ND-EXT",
            SubScheme::EaPlus => "AshN-EA+",
            SubScheme::EaMinus => "AshN-EA-",
        };
        write!(f, "{name}")
    }
}

/// A compiled AshN pulse: drive parameters realizing a target class.
///
/// All quantities are in normalised units (`g = 1`); use
/// [`AshnPulse::physical_time`] and [`AshnPulse::physical_amplitudes`] to
/// convert for a device with coupling `g`.
#[derive(Clone, Copy, Debug)]
pub struct AshnPulse {
    /// The canonical target class.
    pub target: WeylPoint,
    /// `ZZ` ratio `h̃ = h/g` the pulse was compiled for.
    pub h_ratio: f64,
    /// Evolution time in units of `1/g`.
    pub tau: f64,
    /// Drive parameters in units of `g`.
    pub drive: DriveParams,
    /// Sub-scheme used.
    pub scheme: SubScheme,
    /// Whether the mirror class `(π/2−x, y, −z)` was compiled instead.
    pub mirrored: bool,
}

impl AshnPulse {
    /// The unitary this pulse produces, `exp(−iHτ)`.
    pub fn unitary(&self) -> CMat {
        if self.tau == 0.0 {
            CMat::identity(4)
        } else {
            evolve(self.h_ratio, self.drive, self.tau)
        }
    }

    /// Largest drive strength `max(|A₁|/2, |A₂|/2, |δ|)` in units of `g`.
    pub fn max_strength(&self) -> f64 {
        self.drive.max_strength()
    }

    /// Gate time for a device with coupling `g` (same time unit as `1/g`).
    pub fn physical_time(&self, g: f64) -> f64 {
        self.tau / g
    }

    /// Physical `(A₁, A₂, 2δ)` for coupling `g` — the parameterisation used
    /// in the paper's Table 1.
    pub fn physical_amplitudes(&self, g: f64) -> (f64, f64, f64) {
        let (a1, a2) = self.drive.amplitudes();
        (a1 * g, a2 * g, 2.0 * self.drive.delta * g)
    }

    /// Coordinate error between the realized class and the target.
    pub fn coordinate_error(&self) -> f64 {
        weyl_coordinates(&self.unitary()).gate_dist(self.target)
    }
}

/// Compilation failure.
#[derive(Clone, Debug)]
pub struct CompileError {
    /// Target that failed.
    pub target: WeylPoint,
    /// Human-readable reason.
    pub reason: String,
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "failed to compile {}: {}", self.target, self.reason)
    }
}

impl std::error::Error for CompileError {}

/// The AshN gate scheme for a device with `ZZ` ratio `h̃` and cutoff `r`.
///
/// # Examples
///
/// ```
/// use ashn_core::scheme::AshnScheme;
/// use ashn_gates::weyl::WeylPoint;
///
/// let scheme = AshnScheme::new(0.0);
/// let pulse = scheme.compile(WeylPoint::CNOT)?;
/// assert!((pulse.tau - std::f64::consts::FRAC_PI_2).abs() < 1e-9);
/// assert!(pulse.coordinate_error() < 1e-7);
/// # Ok::<(), ashn_core::scheme::CompileError>(())
/// ```
#[derive(Clone, Copy, Debug)]
pub struct AshnScheme {
    h_ratio: f64,
    cutoff: f64,
    workers: usize,
}

impl AshnScheme {
    /// Scheme with no cutoff (`r = 0`): always optimal time, with unbounded
    /// drive strength near the identity.
    pub fn new(h_ratio: f64) -> Self {
        Self::with_cutoff(h_ratio, 0.0)
    }

    /// Scheme with cutoff `r`: classes whose optimal time is below `r` are
    /// realized with AshN-ND-EXT in time `π − 2x` instead, bounding the
    /// drive strength by roughly `π/r + 1/2` (paper Eq. 4.4).
    ///
    /// # Panics
    ///
    /// Panics when `|h̃| > 1`, or when `r` exceeds `(1−|h̃|)·π/2` (the range
    /// for which the four sub-schemes provably cover the chamber, §A.7).
    pub fn with_cutoff(h_ratio: f64, cutoff: f64) -> Self {
        assert!(h_ratio.abs() <= 1.0, "AshN requires |h| ≤ g");
        assert!(
            (0.0..=(1.0 - h_ratio.abs()) * FRAC_PI_2 + 1e-12).contains(&cutoff),
            "cutoff r must lie in [0, (1−|h̃|)π/2], got {cutoff}"
        );
        Self {
            h_ratio,
            cutoff,
            workers: 1,
        }
    }

    /// Fans the EA multistart over `workers` scoped threads (`0` = one per
    /// hardware thread; default 1 = serial). The compiled pulse is
    /// bit-identical for every worker count — the multistart winner is
    /// selected by stable `(error, seed-index)` order.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// The `ZZ` ratio this scheme compiles for.
    pub fn h_ratio(&self) -> f64 {
        self.h_ratio
    }

    /// The cutoff `r`.
    pub fn cutoff(&self) -> f64 {
        self.cutoff
    }

    /// Worker threads used by the EA multistart (`0` = hardware default).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Gate time (units of `1/g`) that [`AshnScheme::compile`] will use for
    /// a target class — optimal time, or `π − 2x` inside the cutoff ball.
    pub fn gate_time(&self, target: WeylPoint) -> f64 {
        let p = target.canonicalize();
        let (t1, t2) = optimal_time_branches(self.h_ratio, p);
        let topt = t1.min(t2);
        if topt <= self.cutoff {
            PI - 2.0 * p.x
        } else {
            topt
        }
    }

    /// Drive-strength bound for this scheme's cutoff at `h̃ = 0`
    /// (paper Eq. 4.4): `π/r + 1/2`. Infinite when `r = 0`.
    pub fn strength_bound(&self) -> f64 {
        if self.cutoff == 0.0 {
            f64::INFINITY
        } else {
            PI / self.cutoff + 0.5
        }
    }

    /// Compiles a target class into an AshN pulse (paper Algorithm 1).
    ///
    /// The returned pulse is **verified**: its evolution canonicalizes to the
    /// requested class within `1e-7`.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError`] when no sub-scheme realizes the target — which
    /// indicates a numerical failure, since Theorems 4–6 guarantee coverage.
    pub fn compile(&self, target: WeylPoint) -> Result<AshnPulse, CompileError> {
        self.compile_with_search(
            target,
            &EaSearch {
                workers: self.workers,
                ..EaSearch::default()
            },
        )
    }

    /// [`AshnScheme::compile`] with explicit search effort: `search` sets
    /// the EA multistart fan-out and escalation rounds (see [`EaSearch`];
    /// with `extra_rounds == 0` and `search.workers == self.workers` this
    /// is bit-identical to [`AshnScheme::compile`]).
    ///
    /// # Errors
    ///
    /// Same as [`AshnScheme::compile`].
    pub fn compile_with_search(
        &self,
        target: WeylPoint,
        search: &EaSearch,
    ) -> Result<AshnPulse, CompileError> {
        let p = target.canonicalize();
        let (t1, t2) = optimal_time_branches(self.h_ratio, p);
        let topt = t1.min(t2);

        if topt <= 1e-12 {
            return Ok(AshnPulse {
                target: p,
                h_ratio: self.h_ratio,
                tau: 0.0,
                drive: DriveParams::FREE,
                scheme: SubScheme::Identity,
                mirrored: false,
            });
        }

        // Cutoff region → extended-time ND.
        if topt <= self.cutoff {
            if let Ok(pulse) = self.try_nd_ext(p) {
                return Ok(pulse);
            }
            // Fall through to the optimal-time schemes on numerical failure.
        }

        // Mirror transform when the second branch is faster.
        let mirrored = t2 < t1 - 1e-12;
        let (x, y, z) = if mirrored {
            (FRAC_PI_2 - p.x, p.y, -p.z)
        } else {
            (p.x, p.y, p.z)
        };

        let t_nd = 2.0 * x;
        let t_plus = 2.0 * (x + y + z) / (2.0 - self.h_ratio);
        let t_minus = 2.0 * (x + y - z) / (2.0 + self.h_ratio);

        // Prefer the binding face; fall back through the others.
        let mut order: Vec<SubScheme> = Vec::new();
        if t_nd >= t_plus.max(t_minus) - 1e-12 {
            order.push(SubScheme::Nd);
        }
        if t_plus >= t_minus {
            order.extend([SubScheme::EaPlus, SubScheme::EaMinus, SubScheme::Nd]);
        } else {
            order.extend([SubScheme::EaMinus, SubScheme::EaPlus, SubScheme::Nd]);
        }
        order.push(SubScheme::NdExt);

        let mut last_reason = String::new();
        for scheme in order {
            let attempt = match scheme {
                SubScheme::Nd => ashn_nd(self.h_ratio, x, y, z)
                    .map(|(tau, d)| (tau, d, SubScheme::Nd))
                    .map_err(|e| e.to_string()),
                SubScheme::EaPlus => ashn_ea_search(self.h_ratio, EaVariant::Plus, x, y, z, search)
                    .map(|(tau, d)| (tau, d, SubScheme::EaPlus))
                    .map_err(|e| e.to_string()),
                SubScheme::EaMinus => {
                    ashn_ea_search(self.h_ratio, EaVariant::Minus, x, y, z, search)
                        .map(|(tau, d)| (tau, d, SubScheme::EaMinus))
                        .map_err(|e| e.to_string())
                }
                SubScheme::NdExt => {
                    return self.try_nd_ext(p).map_err(|e| CompileError {
                        target: p,
                        reason: format!("all sub-schemes failed; last: {e}"),
                    });
                }
                SubScheme::Identity => unreachable!(),
            };
            match attempt {
                Ok((tau, drive, scheme)) => {
                    let pulse = AshnPulse {
                        target: p,
                        h_ratio: self.h_ratio,
                        tau,
                        drive,
                        scheme,
                        mirrored,
                    };
                    if pulse.coordinate_error() < 1e-7 {
                        return Ok(pulse);
                    }
                    last_reason = format!(
                        "{scheme} produced coordinate error {:.2e}",
                        pulse.coordinate_error()
                    );
                }
                Err(e) => last_reason = e,
            }
        }
        Err(CompileError {
            target: p,
            reason: last_reason,
        })
    }

    fn try_nd_ext(&self, p: WeylPoint) -> Result<AshnPulse, String> {
        let (tau, drive) = ashn_nd_ext(self.h_ratio, p.x, p.y, p.z).map_err(|e| e.to_string())?;
        let pulse = AshnPulse {
            target: p,
            h_ratio: self.h_ratio,
            tau,
            drive,
            scheme: SubScheme::NdExt,
            mirrored: false,
        };
        let err = pulse.coordinate_error();
        if err < 1e-7 {
            Ok(pulse)
        } else {
            Err(format!("ND-EXT coordinate error {err:.2e}"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ashn_gates::cost::optimal_time;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::f64::consts::FRAC_PI_4;

    fn random_chamber_point(rng: &mut StdRng) -> WeylPoint {
        loop {
            let x = rng.gen::<f64>() * FRAC_PI_4;
            let y = rng.gen::<f64>() * FRAC_PI_4;
            let z = (2.0 * rng.gen::<f64>() - 1.0) * FRAC_PI_4;
            let p = WeylPoint::new(x, y, z);
            if p.in_chamber(0.0) && p.canonicalize().approx_eq(p, 1e-12) {
                return p;
            }
        }
    }

    #[test]
    fn named_classes_compile_at_optimal_time() {
        let scheme = AshnScheme::new(0.0);
        for p in [
            WeylPoint::CNOT,
            WeylPoint::ISWAP,
            WeylPoint::SWAP,
            WeylPoint::SQISW,
            WeylPoint::B,
        ] {
            let pulse = scheme.compile(p).expect("compiles");
            assert!(
                (pulse.tau - optimal_time(0.0, p)).abs() < 1e-9,
                "{p}: τ = {} vs optimal {}",
                pulse.tau,
                optimal_time(0.0, p)
            );
            assert!(pulse.coordinate_error() < 1e-7);
        }
    }

    #[test]
    fn random_targets_compile_at_optimal_time_h0() {
        let scheme = AshnScheme::new(0.0);
        let mut rng = StdRng::seed_from_u64(71);
        for _ in 0..25 {
            let p = random_chamber_point(&mut rng);
            let pulse = scheme.compile(p).unwrap_or_else(|e| panic!("{e}"));
            assert!(
                (pulse.tau - optimal_time(0.0, p)).abs() < 1e-9,
                "{p}: τ={} expected {}",
                pulse.tau,
                optimal_time(0.0, p)
            );
        }
    }

    #[test]
    fn random_targets_compile_with_zz() {
        let mut rng = StdRng::seed_from_u64(72);
        for &h in &[0.2, 0.4, 0.8, -0.3] {
            let scheme = AshnScheme::new(h);
            for _ in 0..10 {
                let p = random_chamber_point(&mut rng);
                let pulse = scheme.compile(p).unwrap_or_else(|e| panic!("h={h}: {e}"));
                assert!(
                    (pulse.tau - optimal_time(h, p)).abs() < 1e-9,
                    "h={h} {p}: τ={} expected {}",
                    pulse.tau,
                    optimal_time(h, p)
                );
            }
        }
    }

    #[test]
    fn theorem2_structure_one_drive_vanishes() {
        // Ω₁·Ω₂·δ = 0 for every compiled pulse (paper Theorem 2).
        let scheme = AshnScheme::new(0.0);
        let mut rng = StdRng::seed_from_u64(73);
        for _ in 0..15 {
            let p = random_chamber_point(&mut rng);
            let d = scheme.compile(p).unwrap().drive;
            let product = d.omega1 * d.omega2 * d.delta;
            assert!(product.abs() < 1e-12, "Ω₁Ω₂δ = {product} for target {p}");
        }
    }

    #[test]
    fn cutoff_switches_to_extended_time() {
        let scheme = AshnScheme::with_cutoff(0.0, 1.1);
        // A class near the identity has tiny optimal time → ND-EXT.
        let p = WeylPoint::new(0.05, 0.02, 0.01);
        let pulse = scheme.compile(p).expect("compiles");
        assert_eq!(pulse.scheme, SubScheme::NdExt);
        assert!((pulse.tau - (PI - 2.0 * p.x)).abs() < 1e-12);
        // Strength respects the Eq. 4.4 bound.
        assert!(pulse.max_strength() <= scheme.strength_bound() + 1e-9);
    }

    #[test]
    fn cutoff_leaves_large_classes_optimal() {
        let scheme = AshnScheme::with_cutoff(0.0, 1.1);
        let pulse = scheme.compile(WeylPoint::SWAP).expect("compiles");
        assert!((pulse.tau - 3.0 * FRAC_PI_4).abs() < 1e-9);
        assert_ne!(pulse.scheme, SubScheme::NdExt);
    }

    #[test]
    fn strength_bound_eq_4_4_across_chamber() {
        let r = 0.9;
        let scheme = AshnScheme::with_cutoff(0.0, r);
        let bound = scheme.strength_bound();
        let mut rng = StdRng::seed_from_u64(74);
        for _ in 0..20 {
            let p = random_chamber_point(&mut rng);
            let pulse = scheme.compile(p).unwrap();
            assert!(
                pulse.max_strength() <= bound + 1e-6,
                "{p}: strength {} exceeds bound {bound}",
                pulse.max_strength()
            );
        }
    }

    #[test]
    fn identity_compiles_to_empty_pulse() {
        let pulse = AshnScheme::new(0.0).compile(WeylPoint::IDENTITY).unwrap();
        assert_eq!(pulse.scheme, SubScheme::Identity);
        assert_eq!(pulse.tau, 0.0);
        assert!(pulse.unitary().dist(&CMat::identity(4)) < 1e-12);
    }

    #[test]
    fn gate_time_matches_compiled_time() {
        let scheme = AshnScheme::with_cutoff(0.0, 0.7);
        let mut rng = StdRng::seed_from_u64(75);
        for _ in 0..10 {
            let p = random_chamber_point(&mut rng);
            let pulse = scheme.compile(p).unwrap();
            assert!((scheme.gate_time(p) - pulse.tau).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "cutoff")]
    fn cutoff_beyond_theorem_range_is_rejected() {
        AshnScheme::with_cutoff(0.5, 1.5);
    }
}
