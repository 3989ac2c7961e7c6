//! The full quantum-volume pass/fail protocol (Cross et al. \[48\]): a device
//! achieves `QV = 2^d` when the mean heavy-output probability at size `d`
//! exceeds 2/3 with confidence.

use crate::experiment::{compile_model, sample_model_circuit, score_compiled, QvNoise};
use crate::gateset::GateSet;
use ashn_ir::SynthError;
use rand::Rng;

/// Result of the protocol at one size.
#[derive(Clone, Copy, Debug)]
pub struct QvPoint {
    /// Circuit size (qubits = layers).
    pub d: usize,
    /// Mean heavy-output probability.
    pub mean_hop: f64,
    /// Standard error of the mean over circuits.
    pub std_err: f64,
    /// Whether `mean − 2·stderr > 2/3` (the usual confidence criterion).
    pub pass: bool,
}

/// Evaluates one size with `n_circuits` samples.
///
/// # Errors
///
/// Propagates [`SynthError`] from compilation.
pub fn qv_point(
    d: usize,
    gate_set: GateSet,
    noise: &QvNoise,
    n_circuits: usize,
    rng: &mut impl Rng,
) -> Result<QvPoint, SynthError> {
    let mut hops = Vec::with_capacity(n_circuits);
    for _ in 0..n_circuits {
        let model = sample_model_circuit(d, rng);
        hops.push(score_compiled(&compile_model(&model, gate_set)?, noise).hop);
    }
    let mean = hops.iter().sum::<f64>() / n_circuits as f64;
    let var = hops.iter().map(|h| (h - mean).powi(2)).sum::<f64>() / (n_circuits.max(2) - 1) as f64;
    let std_err = (var / n_circuits as f64).sqrt();
    Ok(QvPoint {
        d,
        mean_hop: mean,
        std_err,
        pass: mean - 2.0 * std_err > 2.0 / 3.0,
    })
}

/// The largest passing size up to `d_max`; the quantum volume is `2^d`.
/// Returns `(d, log2_qv_points)`.
///
/// # Errors
///
/// Propagates [`SynthError`] from compilation.
pub fn quantum_volume(
    gate_set: GateSet,
    noise: &QvNoise,
    d_max: usize,
    n_circuits: usize,
    rng: &mut impl Rng,
) -> Result<(usize, Vec<QvPoint>), SynthError> {
    let mut best = 0usize;
    let mut points = Vec::new();
    for d in 2..=d_max {
        let p = qv_point(d, gate_set, noise, n_circuits, rng)?;
        if p.pass {
            best = d;
        }
        points.push(p);
    }
    Ok((best, points))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn noiseless_device_passes_small_sizes() {
        let mut rng = StdRng::seed_from_u64(61);
        let noise = QvNoise {
            e_cz: 0.0,
            e_1q: 0.0,
        };
        let p = qv_point(3, GateSet::Ashn { cutoff: 0.0 }, &noise, 8, &mut rng).unwrap();
        assert!(p.pass, "noiseless d=3 must pass: {p:?}");
        assert!(p.std_err < 0.1);
    }

    #[test]
    fn very_noisy_device_fails() {
        let mut rng = StdRng::seed_from_u64(62);
        let noise = QvNoise::with_e_cz(0.25);
        let p = qv_point(4, GateSet::Cz, &noise, 6, &mut rng).unwrap();
        assert!(!p.pass, "25% CZ error at d=4 must fail: {p:?}");
        assert!(p.mean_hop < 2.0 / 3.0 + 0.05);
    }

    #[test]
    fn ashn_volume_at_least_matches_cz() {
        let noise = QvNoise::with_e_cz(0.05);
        let run = |gs| {
            let mut rng = StdRng::seed_from_u64(63);
            quantum_volume(gs, &noise, 4, 6, &mut rng).unwrap().0
        };
        let qv_cz = run(GateSet::Cz);
        let qv_ashn = run(GateSet::Ashn { cutoff: 1.1 });
        assert!(qv_ashn >= qv_cz, "AshN QV {qv_ashn} < CZ QV {qv_cz}");
    }
}
