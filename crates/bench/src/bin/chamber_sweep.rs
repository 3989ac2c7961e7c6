//! Release-mode coverage sweep of the Weyl chamber: every class of a grid
//! with spacing `--step` (default 0.04 rad) is dressed with seeded random
//! single-qubit locals and served once through a `CompileService` for CZ,
//! SQiSW and AshN at `r ∈ {0, 1.1}`. Per basis it prints the classes whose
//! synthesis failed (served by the CNOT degradation tier instead), how many
//! of those lie on the `x = y` or `y = |z|` edges, and the largest error of
//! the circuits served on the requested basis. A second table serves the
//! controlled-phase gates `CPhase(kπ/16)`, `k = 1..16`, which sit on the
//! `y = z = 0` edge.
//!
//! ```text
//! cargo run --release -p ashn-bench --bin chamber_sweep -- --step 0.04 --seed 7
//! ```
//!
//! `--attempts` (default 1) sets `CompileService::max_attempts`. The
//! service runs on the pool's default worker count; output is identical at
//! any worker count.

use ashn_bench::{row, sci, Args};
use ashn_gates::two::canonical;
use ashn_ir::Basis;
use ashn_math::randmat::haar_unitary;
use ashn_math::{c, CMat};
use ashn_service::CompileService;
use ashn_synth::{AshnBasis, CzBasis, SqiswBasis};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::f64::consts::{FRAC_PI_4, PI};
use std::time::Instant;

/// Tolerance for "lies on an edge" — grid coordinates are exact multiples
/// of the step, so only rounding separates them.
const EDGE_TOL: f64 = 1e-9;

/// Canonical chamber points `π/4 ≥ x ≥ y ≥ |z|` on a `step` grid, plus the
/// `x = π/4` face (where only `z ≥ 0` is canonical).
fn chamber_grid(step: f64) -> Vec<[f64; 3]> {
    let n = (FRAC_PI_4 / step + EDGE_TOL).floor() as i64;
    let mut xs: Vec<f64> = (0..=n).map(|i| i as f64 * step).collect();
    if FRAC_PI_4 - xs[xs.len() - 1] > EDGE_TOL {
        xs.push(FRAC_PI_4);
    }
    let mut points = Vec::new();
    for &x in &xs {
        let on_face = FRAC_PI_4 - x <= EDGE_TOL;
        for j in 0..=n {
            let y = j as f64 * step;
            if y > x + EDGE_TOL {
                break;
            }
            let z_min = if on_face { 0 } else { -j };
            for k in z_min..=j {
                points.push([x, y, k as f64 * step]);
            }
        }
    }
    points
}

/// Whether a chamber point lies where two magic-basis eigenphases
/// coincide: the `x = y` edge or the `y = |z|` edge (either sign of `z`).
fn on_degenerate_edge([x, y, z]: [f64; 3]) -> bool {
    (x - y).abs() <= EDGE_TOL || (y - z.abs()).abs() <= EDGE_TOL
}

fn cphase(theta: f64) -> CMat {
    let one = c(1.0, 0.0);
    CMat::diag(&[one, one, one, c(theta.cos(), theta.sin())])
}

/// `(a ⊗ b) · u · (c ⊗ d)` with Haar-random single-qubit locals.
fn dressed(u: &CMat, rng: &mut StdRng) -> CMat {
    let pre = haar_unitary(2, rng).kron(&haar_unitary(2, rng));
    let post = haar_unitary(2, rng).kron(&haar_unitary(2, rng));
    &(&post * u) * &pre
}

/// What one batch of serves came to on one basis.
struct Sweep {
    /// Indices of the targets the requested basis failed to synthesize.
    failed: Vec<usize>,
    /// Largest error among the circuits served on the requested basis.
    max_err: f64,
    seconds: f64,
}

fn sweep<B: Basis + Sync>(basis: B, targets: &[CMat], attempts: u32) -> Sweep {
    let service = CompileService::new(basis).max_attempts(attempts).workers(0);
    let start = Instant::now();
    let batch = service.synthesize_batch(targets);
    let seconds = start.elapsed().as_secs_f64();
    let mut failed = Vec::new();
    let mut max_err = 0.0f64;
    for (i, (target, circuit)) in targets.iter().zip(&batch.circuits).enumerate() {
        match circuit {
            Ok(circuit) if !batch.degraded[i] => max_err = max_err.max(circuit.error(target)),
            _ => failed.push(i),
        }
    }
    Sweep {
        failed,
        max_err,
        seconds,
    }
}

/// Serves one batch of targets on one basis.
type Runner = Box<dyn Fn(&[CMat]) -> Sweep>;

/// The compared bases, labelled.
fn bases(attempts: u32) -> Vec<(&'static str, Runner)> {
    vec![
        ("CZ", Box::new(move |t| sweep(CzBasis, t, attempts))),
        ("SQiSW", Box::new(move |t| sweep(SqiswBasis, t, attempts))),
        (
            "AshN(r=0)",
            Box::new(move |t| sweep(AshnBasis::with_cutoff(0.0, 0.0), t, attempts)),
        ),
        (
            "AshN(r=1.1)",
            Box::new(move |t| sweep(AshnBasis::with_cutoff(0.0, 1.1), t, attempts)),
        ),
    ]
}

fn main() {
    let args = Args::parse();
    let step: f64 = args.get("step", 0.04);
    let seed: u64 = args.get("seed", 7);
    let attempts: u32 = args.get("attempts", 1);
    assert!(step > 0.0, "bad --step: must be positive");

    let points = chamber_grid(step);
    let mut rng = StdRng::seed_from_u64(seed);
    let targets: Vec<CMat> = points
        .iter()
        .map(|&[x, y, z]| dressed(&canonical(x, y, z), &mut rng))
        .collect();
    let cphases: Vec<CMat> = (1..=16).map(|k| cphase(k as f64 * PI / 16.0)).collect();

    println!(
        "Weyl-chamber sweep: {} classes at step {step} rad, seed {seed}, {attempts} attempt(s)\n",
        points.len()
    );
    row(&[
        "basis".into(),
        "failures".into(),
        "on x=y|y=|z|".into(),
        "max error".into(),
        "seconds".into(),
    ]);
    let bases = bases(attempts);
    let mut off_edge: Vec<(&str, [f64; 3])> = Vec::new();
    for (name, run) in &bases {
        let s = run(&targets);
        let (on_edge, off): (Vec<usize>, Vec<usize>) = s
            .failed
            .iter()
            .partition(|&&i| on_degenerate_edge(points[i]));
        off_edge.extend(off.iter().map(|&i| (*name, points[i])));
        row(&[
            name.to_string(),
            s.failed.len().to_string(),
            on_edge.len().to_string(),
            sci(s.max_err),
            format!("{:.1}", s.seconds),
        ]);
    }
    if off_edge.is_empty() {
        println!("\nevery failure lies on the x = y or y = |z| edge");
    } else {
        println!("\nfailures off both edges:");
        for (name, [x, y, z]) in &off_edge {
            println!("  {name}: ({x:.4}, {y:.4}, {z:.4})");
        }
    }

    println!("\nCPhase(kπ/16), k = 1..16, undressed:\n");
    row(&["basis".into(), "failures".into(), "failing k".into()]);
    for (name, run) in &bases {
        let s = run(&cphases);
        let ks: Vec<String> = s.failed.iter().map(|i| (i + 1).to_string()).collect();
        row(&[
            name.to_string(),
            s.failed.len().to_string(),
            if ks.is_empty() {
                "-".into()
            } else {
                ks.join(",")
            },
        ]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ashn_gates::weyl::WeylPoint;

    #[test]
    fn grid_points_are_canonical_and_distinct() {
        let points = chamber_grid(0.2);
        for &[x, y, z] in &points {
            assert!(WeylPoint::new(x, y, z).in_chamber(1e-12), "({x}, {y}, {z})");
        }
        let mut keys: Vec<[i64; 3]> = points
            .iter()
            .map(|p| p.map(|v| (v * 1e6).round() as i64))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), points.len());
        // x ∈ {0, .2, .4, .6}: Σ (j + 1)² = 30 interior points, plus the
        // x = π/4 face with y ∈ {0, .2, .4, .6} and 0 ≤ z ≤ y: 10 more.
        assert_eq!(points.len(), 40);
    }

    #[test]
    fn edges_are_the_degenerate_eigenphase_sets() {
        assert!(on_degenerate_edge([0.4, 0.4, 0.0]));
        assert!(on_degenerate_edge([0.6, 0.2, -0.2]));
        assert!(on_degenerate_edge([0.6, 0.0, 0.0]));
        assert!(!on_degenerate_edge([0.6, 0.4, 0.2]));
    }
}
