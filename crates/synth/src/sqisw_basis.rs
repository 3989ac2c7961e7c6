//! Two-qubit synthesis over the SQiSW (√iSWAP) basis, following Huang et
//! al., "Quantum instruction set design for performance" \[30\]: one
//! application for the SQiSW class itself, two applications exactly when the
//! target class satisfies `x ≥ y + |z|` (the region `W₀`, ≈79% of Haar
//! measure), three otherwise.
//!
//! The interleaved single-qubit gates are found numerically (Makhlin
//! invariant matching with Nelder–Mead multistart) and the result is
//! verified against the target unitary.

use crate::circuit2::{align_to_target, Op2, TwoQubitCircuit};
use ashn_gates::invariants::{makhlin, makhlin_from_coords};
use ashn_gates::kak::weyl_coordinates;
use ashn_gates::single::su2_zyz;
use ashn_gates::two::sqisw;
use ashn_gates::weyl::WeylPoint;
use ashn_math::neldermead::{nelder_mead, NmOptions};
use ashn_math::{CMat, Complex};
use std::f64::consts::FRAC_PI_4;

/// Duration of one flux-tuned SQiSW gate in units of `1/g` (paper §6.1: π/4).
pub const SQISW_DURATION: f64 = FRAC_PI_4;

/// Synthesis failure (the numerical interleaver search did not converge).
#[derive(Clone, Debug)]
pub struct SqiswError {
    /// Target class.
    pub target: WeylPoint,
    /// Best residual achieved.
    pub best: f64,
}

impl std::fmt::Display for SqiswError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SQiSW interleaver search failed for {} (best {:.2e})",
            self.target, self.best
        )
    }
}

impl std::error::Error for SqiswError {}

/// `true` when the class is two-SQiSW-compilable (`x ≥ y + |z|`).
pub fn in_w0(p: WeylPoint) -> bool {
    let p = p.canonicalize();
    p.x >= p.y + p.z.abs() - 1e-9
}

/// Number of SQiSW applications needed for the class of `u` (1, 2 or 3;
/// 0 for the identity class).
pub fn sqisw_count(u: &CMat) -> usize {
    sqisw_count_for(weyl_coordinates(u))
}

/// Number of SQiSW applications for a canonical class.
pub fn sqisw_count_for(p: WeylPoint) -> usize {
    let tol = 1e-9;
    if p.dist(WeylPoint::IDENTITY) < tol {
        0
    } else if p.gate_dist(WeylPoint::SQISW) < tol {
        1
    } else if in_w0(p) {
        2
    } else {
        3
    }
}

fn entangler() -> Op2 {
    Op2::Entangler {
        label: "SQiSW".into(),
        matrix: sqisw(),
        duration: SQISW_DURATION,
    }
}

/// Searches for middle locals `(m₀, m₁)` with
/// `SQiSW · (m₀⊗m₁) · SQiSW` in the class `p`. Returns the core circuit.
fn two_application_core(p: WeylPoint) -> Result<TwoQubitCircuit, SqiswError> {
    let s = sqisw();
    let (g1t, g2t) = makhlin_from_coords(p.x, p.y, p.z);
    let objective = |v: &[f64]| {
        let m = su2_zyz(v[0], v[1], v[2]).kron(&su2_zyz(v[3], v[4], v[5]));
        let u = s.matmul(&m).matmul(&s);
        let (g1, g2) = makhlin(&u);
        (g1 - g1t).norm_sqr() + (g2 - g2t).powi(2)
    };
    // Deterministic multistart seeds.
    let seeds: Vec<[f64; 6]> = {
        let mut out = Vec::new();
        let vals = [0.0, 0.9, 1.9, 2.8];
        for &a in &vals {
            for &b in &vals {
                out.push([a, b, 0.4, -a, 1.3 - b, 0.7]);
                out.push([b, a, -0.8, 0.3, a, -b]);
            }
        }
        out
    };
    let mut best = f64::INFINITY;
    for seed in seeds {
        let res = nelder_mead(
            objective,
            &seed,
            &NmOptions {
                max_evals: 2500,
                f_tol: 1e-26,
                initial_step: 0.4,
                ..NmOptions::default()
            },
        );
        if res.f < 1e-17 {
            let m = su2_zyz(res.x[0], res.x[1], res.x[2]);
            let m2 = su2_zyz(res.x[3], res.x[4], res.x[5]);
            let core = TwoQubitCircuit {
                phase: Complex::ONE,
                ops: vec![entangler(), Op2::L0(m), Op2::L1(m2), entangler()],
            };
            let got = weyl_coordinates(&core.unitary());
            if got.gate_dist(p) < 1e-7 {
                return Ok(core);
            }
        }
        best = best.min(res.f);
    }
    Err(SqiswError { target: p, best })
}

/// Finds pre-locals `(w₀, w₁)` pushing `U·(w₀⊗w₁)·SQiSW†` into `W₀` for the
/// three-application case. Returns the locals.
fn w0_reduction(u: &CMat) -> Result<(CMat, CMat), SqiswError> {
    let sdag = sqisw().adjoint();
    // First pass demands a small interior margin (well-conditioned for the
    // downstream search); corner classes like [SWAP] only reach the W₀
    // boundary, so a second pass accepts the boundary itself.
    let seeds: [[f64; 6]; 6] = [
        [0.0; 6],
        [1.0, 0.5, -0.5, 0.3, 1.2, 0.0],
        [2.1, -0.7, 0.4, -1.5, 0.2, 0.9],
        [0.4, 2.2, 1.1, 0.8, -0.9, -1.7],
        [-1.2, 0.3, 2.5, 1.9, 0.6, 0.2],
        [0.9, 1.4, -2.0, -0.4, 2.3, 1.1],
    ];
    let mut best = f64::INFINITY;
    for margin in [5e-4, 0.0] {
        let objective = |v: &[f64]| {
            let w = su2_zyz(v[0], v[1], v[2]).kron(&su2_zyz(v[3], v[4], v[5]));
            let vmat = u.matmul(&w).matmul(&sdag);
            let p = weyl_coordinates(&vmat);
            (p.y + p.z.abs() - p.x + margin).max(0.0)
        };
        for seed in seeds {
            let res = nelder_mead(
                objective,
                &seed,
                &NmOptions {
                    max_evals: 3000,
                    f_tol: 1e-15,
                    initial_step: 0.5,
                    ..NmOptions::default()
                },
            );
            if res.f <= 1e-10 {
                return Ok((
                    su2_zyz(res.x[0], res.x[1], res.x[2]),
                    su2_zyz(res.x[3], res.x[4], res.x[5]),
                ));
            }
            best = best.min(res.f);
        }
    }
    Err(SqiswError {
        target: weyl_coordinates(u),
        best,
    })
}

/// Decomposes an arbitrary two-qubit unitary into SQiSW applications plus
/// single-qubit gates (0–3 applications, minimal per \[30\]).
///
/// # Errors
///
/// Returns [`SqiswError`] when the numerical search fails to converge.
pub fn decompose_sqisw(u: &CMat) -> Result<TwoQubitCircuit, SqiswError> {
    let p = weyl_coordinates(u);
    match sqisw_count_for(p) {
        0 | 1 => {
            let base = if sqisw_count_for(p) == 0 {
                TwoQubitCircuit::identity()
            } else {
                TwoQubitCircuit {
                    phase: Complex::ONE,
                    ops: vec![entangler()],
                }
            };
            Ok(align_to_target(u, base))
        }
        2 => {
            let core = two_application_core(p)?;
            Ok(align_to_target(u, core))
        }
        _ => {
            let (w0, w1) = w0_reduction(u)?;
            let v = u.matmul(&w0.kron(&w1)).matmul(&sqisw().adjoint());
            let vp = weyl_coordinates(&v);
            let core = two_application_core(vp)?;
            let v_circ = align_to_target(&v, core);
            // u = v · SQiSW · (w₀⊗w₁)†.
            let mut ops = vec![Op2::L0(w0.adjoint()), Op2::L1(w1.adjoint()), entangler()];
            ops.extend(v_circ.ops);
            Ok(TwoQubitCircuit {
                phase: v_circ.phase,
                ops,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ashn_gates::two::{cnot, iswap, swap};
    use ashn_math::randmat::haar_unitary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn w0_membership() {
        assert!(in_w0(WeylPoint::CNOT));
        assert!(in_w0(WeylPoint::ISWAP));
        assert!(!in_w0(WeylPoint::SWAP));
        assert!(!in_w0(WeylPoint::new(0.2, 0.19, 0.1)));
    }

    #[test]
    fn sqisw_itself_uses_one() {
        let c = decompose_sqisw(&sqisw()).unwrap();
        assert_eq!(c.entangler_count(), 1);
        assert!(c.error(&sqisw()) < 1e-8);
    }

    #[test]
    fn cnot_uses_two_applications() {
        let c = decompose_sqisw(&cnot()).unwrap();
        assert_eq!(c.entangler_count(), 2);
        assert!(c.error(&cnot()) < 1e-7, "error {}", c.error(&cnot()));
    }

    #[test]
    fn iswap_uses_two_applications() {
        let c = decompose_sqisw(&iswap()).unwrap();
        assert_eq!(c.entangler_count(), 2);
        assert!(c.error(&iswap()) < 1e-7);
    }

    #[test]
    fn swap_needs_three() {
        let c = decompose_sqisw(&swap()).unwrap();
        assert_eq!(c.entangler_count(), 3);
        assert!(c.error(&swap()) < 1e-6, "error {}", c.error(&swap()));
    }

    #[test]
    fn haar_random_gates_reconstruct() {
        let mut rng = StdRng::seed_from_u64(41);
        let mut threes = 0;
        for _ in 0..10 {
            let u = haar_unitary(4, &mut rng);
            let c = decompose_sqisw(&u).expect("converges");
            let expected = sqisw_count(&u);
            assert_eq!(c.entangler_count(), expected);
            if expected == 3 {
                threes += 1;
            }
            assert!(c.error(&u) < 1e-6, "error {}", c.error(&u));
        }
        // ~21% of Haar gates need 3; with 10 samples we just check the
        // mechanism exercised at least one two-application case.
        assert!(threes < 10);
    }

    #[test]
    fn durations_match_application_count() {
        let c = decompose_sqisw(&cnot()).unwrap();
        assert!((c.entangler_duration() - 2.0 * SQISW_DURATION).abs() < 1e-12);
    }
}
