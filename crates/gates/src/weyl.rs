//! The Weyl chamber of two-qubit interactions.
//!
//! Local-equivalence classes of two-qubit gates are labelled by interaction
//! coefficients `(x, y, z)` (paper Theorem 1). The canonical fundamental
//! domain is
//!
//! ```text
//! W = { (x,y,z) : π/4 ≥ x ≥ y ≥ |z|,  z ≥ 0 if x = π/4 }
//! ```

use std::f64::consts::{FRAC_PI_2, FRAC_PI_4};

/// Default tolerance for chamber-membership and equality checks, and the
/// width of the `x = π/4` face band on which `z ≥ 0` is enforced.
pub const WEYL_TOL: f64 = 1e-9;

/// A point `(x, y, z)` of interaction coefficients.
///
/// The point need not be canonical; use [`WeylPoint::canonicalize`] to map it
/// into the fundamental domain `W`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WeylPoint {
    /// Coefficient of `XX`.
    pub x: f64,
    /// Coefficient of `YY`.
    pub y: f64,
    /// Coefficient of `ZZ`.
    pub z: f64,
}

impl WeylPoint {
    /// Creates a new point.
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Self { x, y, z }
    }

    /// The identity class `(0, 0, 0)`.
    pub const IDENTITY: WeylPoint = WeylPoint::new(0.0, 0.0, 0.0);

    /// The `[CNOT]`/`[CZ]` class `(π/4, 0, 0)`.
    pub const CNOT: WeylPoint = WeylPoint::new(FRAC_PI_4, 0.0, 0.0);

    /// The `[iSWAP]` class `(π/4, π/4, 0)`.
    pub const ISWAP: WeylPoint = WeylPoint::new(FRAC_PI_4, FRAC_PI_4, 0.0);

    /// The `[SWAP]` class `(π/4, π/4, π/4)`.
    pub const SWAP: WeylPoint = WeylPoint::new(FRAC_PI_4, FRAC_PI_4, FRAC_PI_4);

    /// The `[SQiSW]` class `(π/8, π/8, 0)`.
    pub const SQISW: WeylPoint = WeylPoint::new(FRAC_PI_4 / 2.0, FRAC_PI_4 / 2.0, 0.0);

    /// The `[B]` class `(π/4, π/8, 0)` (paper §6.4).
    pub const B: WeylPoint = WeylPoint::new(FRAC_PI_4, FRAC_PI_4 / 2.0, 0.0);

    /// Coordinates as an array `[x, y, z]`.
    pub fn to_array(self) -> [f64; 3] {
        [self.x, self.y, self.z]
    }

    /// `true` when the point lies in the canonical chamber `W` (within `tol`).
    ///
    /// The `x = π/4` face is the band `x ≥ π/4 − WEYL_TOL` whatever `tol`
    /// is: the same band in which [`WeylPoint::canonicalize`] flips `z`, so
    /// the two agree on which face points are canonical.
    pub fn in_chamber(self, tol: f64) -> bool {
        let (x, y, z) = (self.x, self.y, self.z);
        if !(x <= FRAC_PI_4 + tol && x >= y - tol && y >= z.abs() - tol && y >= -tol) {
            return false;
        }
        // On the x = π/4 face, z must be non-negative.
        if x >= FRAC_PI_4 - WEYL_TOL && z < -tol {
            return false;
        }
        true
    }

    /// Maps the point into the canonical chamber `W`.
    ///
    /// The result labels the same local-equivalence class: the reduction uses
    /// only π/2 lattice shifts, coordinate permutations, and pairwise sign
    /// flips (the Weyl-group action of paper §A.1.2).
    ///
    /// # Examples
    ///
    /// ```
    /// use ashn_gates::weyl::WeylPoint;
    /// use std::f64::consts::{FRAC_PI_2, FRAC_PI_4};
    ///
    /// // (π/2 − π/4, 0, 0) with an extra π/2 shift is still [CNOT].
    /// let p = WeylPoint::new(FRAC_PI_4 + FRAC_PI_2, 0.0, 0.0).canonicalize();
    /// assert!(p.approx_eq(WeylPoint::CNOT, 1e-12));
    /// ```
    pub fn canonicalize(self) -> WeylPoint {
        let mut v = [self.x, self.y, self.z];
        // 1. Shift each coordinate into [−π/4, π/4] (π/2 lattice).
        for t in v.iter_mut() {
            *t -= FRAC_PI_2 * (*t / FRAC_PI_2).round();
        }
        // 2. Sort by decreasing absolute value (permutations are allowed).
        v.sort_by(|a, b| b.abs().partial_cmp(&a.abs()).unwrap());
        // 3. Pairwise sign flips: push any negativity into z.
        let tol = 1e-15;
        if v[0] < -tol && v[1] < -tol {
            v[0] = -v[0];
            v[1] = -v[1];
        } else if v[0] < -tol {
            v[0] = -v[0];
            v[2] = -v[2];
        } else if v[1] < -tol {
            v[1] = -v[1];
            v[2] = -v[2];
        }
        // 4. On the x = π/4 face, (π/4, y, −z) ~ (π/4, y, z).
        if v[0] >= FRAC_PI_4 - WEYL_TOL && v[2] < 0.0 {
            v[2] = -v[2];
        }
        WeylPoint::new(v[0], v[1], v[2])
    }

    /// Euclidean distance to another point (no canonicalization applied).
    pub fn dist(self, other: WeylPoint) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2) + (self.z - other.z).powi(2))
            .sqrt()
    }

    /// Distance between the canonical representatives of the two classes.
    pub fn class_dist(self, other: WeylPoint) -> f64 {
        self.canonicalize().dist(other.canonicalize())
    }

    /// Distance between two classes as *gates*, respecting the boundary
    /// identification `(x, y, z) ~ (π/2−x, y, −z)` that glues the `x = π/4`
    /// face of the chamber onto itself.
    ///
    /// Plain [`WeylPoint::class_dist`] is discontinuous across that face
    /// (e.g. `(π/4−ε, y, −z)` vs `(π/4, y, z)`); this metric is not, which
    /// makes it the right acceptance check for numerical pulse solvers.
    pub fn gate_dist(self, other: WeylPoint) -> f64 {
        let a = self.canonicalize();
        let b = other.canonicalize();
        let mirror = WeylPoint::new(FRAC_PI_2 - a.x, a.y, -a.z);
        a.dist(b).min(mirror.dist(b))
    }

    /// Coordinate-wise approximate equality.
    pub fn approx_eq(self, other: WeylPoint, tol: f64) -> bool {
        (self.x - other.x).abs() <= tol
            && (self.y - other.y).abs() <= tol
            && (self.z - other.z).abs() <= tol
    }
}

impl std::fmt::Display for WeylPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({:.6}, {:.6}, {:.6})", self.x, self.y, self.z)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_points_are_canonical() {
        for p in [
            WeylPoint::IDENTITY,
            WeylPoint::CNOT,
            WeylPoint::ISWAP,
            WeylPoint::SWAP,
            WeylPoint::SQISW,
            WeylPoint::B,
        ] {
            assert!(p.in_chamber(WEYL_TOL), "{p} not in chamber");
            assert!(p.canonicalize().approx_eq(p, 1e-12), "{p} not a fixpoint");
        }
    }

    #[test]
    fn sqrt_swap_dagger_keeps_negative_z() {
        // (π/8, π/8, −π/8) is canonical and distinct from √SWAP.
        let p = WeylPoint::new(FRAC_PI_4 / 2.0, FRAC_PI_4 / 2.0, -FRAC_PI_4 / 2.0);
        assert!(p.in_chamber(WEYL_TOL));
        assert!(p.canonicalize().approx_eq(p, 1e-12));
        // Shift z by π/2 and check it canonicalizes back.
        let q = WeylPoint::new(p.x, p.y, p.z + FRAC_PI_2).canonicalize();
        assert!(q.approx_eq(p, 1e-12), "got {q}");
    }

    #[test]
    fn shifted_cnot_canonicalizes() {
        let p = WeylPoint::new(FRAC_PI_4 + 3.0 * FRAC_PI_2, 0.0, 0.0).canonicalize();
        assert!(p.approx_eq(WeylPoint::CNOT, 1e-12));
    }

    #[test]
    fn permuted_and_flipped_points_canonicalize() {
        let target = WeylPoint::new(0.7, 0.5, 0.2).canonicalize();
        for perm in [[0.7, 0.5, 0.2], [0.5, 0.7, 0.2], [0.2, 0.5, 0.7]] {
            for flip in [
                [1.0, 1.0, 1.0],
                [-1.0, -1.0, 1.0],
                [1.0, -1.0, -1.0],
                [-1.0, 1.0, -1.0],
            ] {
                let p = WeylPoint::new(perm[0] * flip[0], perm[1] * flip[1], perm[2] * flip[2])
                    .canonicalize();
                assert!(
                    p.approx_eq(target, 1e-12),
                    "orbit member mapped to {p}, expected {target}"
                );
            }
        }
    }

    #[test]
    fn canonical_result_is_in_chamber() {
        // A deterministic sweep of awkward values.
        let vals = [
            -2.9,
            -1.1,
            -0.3,
            0.0,
            0.4,
            std::f64::consts::FRAC_PI_4,
            1.2,
            2.35,
        ];
        for &x in &vals {
            for &y in &vals {
                for &z in &vals {
                    let p = WeylPoint::new(x, y, z).canonicalize();
                    assert!(p.in_chamber(1e-9), "({x},{y},{z}) → {p} not canonical");
                }
            }
        }
    }

    #[test]
    fn near_face_point_passes_the_optimal_time_check() {
        // Just off the x = π/4 face band, so canonicalize keeps z < 0; the
        // looser chamber check in `optimal_time_branches` must accept it.
        let p = WeylPoint::new(FRAC_PI_4 - 5e-9, FRAC_PI_4 - 5e-9, -0.736311);
        assert_eq!(p.canonicalize(), p);
        assert!(p.in_chamber(1e-7));
        let (t1, t2) = crate::cost::optimal_time_branches(0.0, p);
        assert!(t1.is_finite() && t2.is_finite());
    }

    #[test]
    fn swap_face_sign_fix() {
        let p = WeylPoint::new(FRAC_PI_4, 0.2, -0.1).canonicalize();
        assert!(
            p.z > 0.0,
            "z must be non-negative on the x=π/4 face, got {p}"
        );
    }
}
