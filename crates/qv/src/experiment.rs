//! The quantum-volume experiment (paper §6.3, Fig. 7): square random
//! circuits on a 2-D grid, compiled to a native gate set with SWAP routing,
//! executed under gate-time-proportional depolarizing noise, scored by the
//! exact heavy-output probability.

use crate::gateset::GateSet;
use ashn_ir::{Basis, Circuit, IrError, SynthError};
use ashn_math::randmat::haar_su;
use ashn_math::CMat;
use ashn_route::{expand_route_ops, random_pairing, Grid, Router};
use ashn_sim::{BatchRunner, SimEngine, Simulate};
use ashn_synth::cnot_basis::CZ_DURATION;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Noise parameters of the paper's model: single-qubit gates have a fixed
/// error rate; two-qubit gates scale with their duration relative to CZ,
/// anchored at `e_cz`.
#[derive(Clone, Copy, Debug)]
pub struct QvNoise {
    /// Error rate of the flux-tuned CZ (paper sweeps 0.7%–1.7%).
    pub e_cz: f64,
    /// Error rate of every single-qubit gate (paper: 0.1%).
    pub e_1q: f64,
}

impl QvNoise {
    /// Paper defaults with a chosen `e_cz`.
    pub fn with_e_cz(e_cz: f64) -> Self {
        Self { e_cz, e_1q: 0.001 }
    }

    /// The depolarizing probability for a gate of the given duration
    /// (units `1/g`) and arity.
    pub fn rate(&self, qubits: usize, duration: f64) -> f64 {
        if qubits <= 1 {
            self.e_1q
        } else {
            (self.e_cz * duration / CZ_DURATION).min(1.0)
        }
    }
}

/// One square random model circuit: `d` layers of random pairings with
/// Haar-random `SU(4)` gates.
#[derive(Clone, Debug)]
pub struct ModelCircuit {
    /// Number of qubits (= number of layers).
    pub d: usize,
    /// Per layer: the pairing and the target unitaries.
    pub layers: Vec<Vec<((usize, usize), CMat)>>,
}

/// Samples a model circuit.
pub fn sample_model_circuit(d: usize, rng: &mut impl Rng) -> ModelCircuit {
    let layers = (0..d)
        .map(|_| {
            random_pairing(d, rng)
                .into_iter()
                .map(|p| (p, haar_su(4, rng)))
                .collect()
        })
        .collect();
    ModelCircuit { d, layers }
}

/// A compiled model circuit: the physical-site circuit plus the final
/// logical→physical placement left by the router.
#[derive(Clone, Debug)]
pub struct CompiledModel {
    /// Circuit over the physical grid sites.
    pub circuit: Circuit,
    /// `positions[l]` = physical site holding logical qubit `l` at the end.
    pub positions: Vec<usize>,
}

impl CompiledModel {
    /// Marginalizes a physical-site distribution onto the logical register
    /// (idle sites traced out, routing permutation undone).
    pub fn logical_probs(&self, physical: &[f64]) -> Vec<f64> {
        let d = self.positions.len();
        let n_sites = self.circuit.n_qubits();
        let mut out = vec![0.0; 1 << d];
        for (idx, &p) in physical.iter().enumerate() {
            let mut logical = 0usize;
            for (l, &site) in self.positions.iter().enumerate() {
                let bit = idx >> (n_sites - 1 - site) & 1;
                logical |= bit << (d - 1 - l);
            }
            out[logical] += p;
        }
        out
    }
}

/// Compiles a model circuit onto the grid with the given gate set: routing
/// SWAPs and layer gates are synthesized per [`ashn_ir::Basis`] and
/// embedded at their physical sites by `ashn_route`. Error rates are
/// **not** stamped here — use [`stamp_noise`] so one compilation serves
/// several noise levels.
///
/// # Errors
///
/// Propagates [`SynthError`] from basis synthesis (instead of the former
/// `expect` panics).
pub fn compile_model(model: &ModelCircuit, gate_set: GateSet) -> Result<CompiledModel, SynthError> {
    compile_model_on(model, gate_set.basis().as_ref(), None)
}

/// The basis-generic compilation engine behind [`compile_model`] and
/// `ashn::Compiler`: synthesizes per-layer gates and routing SWAPs over
/// `basis`, routes them on `grid` (auto-sized to the model when `None`),
/// and assembles one physical-site circuit.
///
/// # Errors
///
/// [`SynthError::Ir`] when a layer pair names a qubit outside `0..model.d`
/// ([`IrError::QubitOutOfRange`]) or a qubit twice in one layer
/// ([`IrError::RepeatedQubit`]; a self-pair counts); otherwise propagates
/// [`SynthError`] from synthesis and assembly.
///
/// # Panics
///
/// Panics when an explicit `grid` is too small for the model (callers
/// validate, e.g. `ashn::Compiler` turns this into a config error).
pub fn compile_model_on(
    model: &ModelCircuit,
    basis: &dyn Basis,
    grid: Option<Grid>,
) -> Result<CompiledModel, SynthError> {
    validate_layers(model)?;
    let grid = grid.unwrap_or_else(|| Grid::for_qubits(model.d));
    let n_sites = grid.len();
    let mut router = Router::new(grid, model.d);
    let mut circuit = Circuit::new(n_sites);
    // The routed SWAP is always the same circuit up to relabeling; compile
    // it once (the SQiSW decomposition in particular is a numerical search).
    let swap = basis.native_swap()?.fuse_single_qubit_runs();
    for layer in &model.layers {
        let pairs: Vec<(usize, usize)> = layer.iter().map(|(p, _)| *p).collect();
        let ops = router.route_layer(&pairs);
        let routed = expand_route_ops(n_sites, &ops, &swap, |index| {
            Ok(basis.synthesize(&layer[index].1)?.fuse_single_qubit_runs())
        })?;
        circuit.append(routed)?;
    }
    let positions = (0..model.d).map(|l| router.position(l)).collect();
    Ok(CompiledModel { circuit, positions })
}

/// Checks that every layer of `model` pairs distinct in-range qubits,
/// each at most once: the router's contract, checked before it can panic
/// on a model built by hand (the fields are public).
fn validate_layers(model: &ModelCircuit) -> Result<(), IrError> {
    for layer in &model.layers {
        let mut seen = vec![false; model.d];
        for &((a, b), _) in layer {
            for q in [a, b] {
                if q >= model.d {
                    return Err(IrError::QubitOutOfRange {
                        qubit: q,
                        n: model.d,
                    });
                }
                if std::mem::replace(&mut seen[q], true) {
                    return Err(IrError::RepeatedQubit { qubit: q });
                }
            }
        }
    }
    Ok(())
}

/// Stamps per-gate depolarizing rates from the noise model (single-qubit
/// fixed; two-qubit proportional to duration).
///
/// This deep-clones every gate matrix; the scoring hot path uses
/// [`resolve_rates`] + [`ashn_sim::Simulate::run_noisy_scheduled`] instead,
/// which resolve the same schedule without materializing an annotated copy
/// of the circuit. Kept for callers that want a self-contained noisy
/// circuit (e.g. to hand to the trajectory simulator as-is).
pub fn stamp_noise(circuit: &Circuit, noise: &QvNoise) -> Circuit {
    let mut out = Circuit::new(circuit.n_qubits());
    out.phase = circuit.phase;
    for g in circuit.gates() {
        let rate = noise.rate(g.qubits.len(), g.duration);
        out.push(g.clone().with_error_rate(rate));
    }
    out
}

/// Per-instruction depolarizing rates resolved from the noise model — the
/// noise-resolution half of [`stamp_noise`] without cloning gate matrices.
/// `rates[i]` belongs to instruction `i` of `circuit`.
pub fn resolve_rates(circuit: &Circuit, noise: &QvNoise) -> Vec<f64> {
    circuit
        .gates()
        .iter()
        .map(|g| noise.rate(g.qubits.len(), g.duration))
        .collect()
}

/// Heavy-output set of an ideal distribution: outcomes with probability
/// above the median.
pub fn heavy_set(ideal: &[f64]) -> Vec<usize> {
    let mut sorted = ideal.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = sorted.len();
    let median = 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
    ideal
        .iter()
        .enumerate()
        .filter(|(_, &p)| p > median)
        .map(|(i, _)| i)
        .collect()
}

/// Result of one circuit evaluation.
#[derive(Clone, Copy, Debug)]
pub struct CircuitScore {
    /// Heavy-output probability under noise.
    pub hop: f64,
    /// Number of native two-qubit gates executed.
    pub two_qubit_gates: usize,
    /// Total two-qubit interaction time (units `1/g`).
    pub interaction_time: f64,
}

/// Scores an already-compiled circuit under a noise level: exact
/// heavy-output probability of the noisy run against the noiseless heavy
/// set, both marginalized onto the logical register.
pub fn score_compiled(compiled: &CompiledModel, noise: &QvNoise) -> CircuitScore {
    score_compiled_many(compiled, std::slice::from_ref(noise))[0]
}

/// Scores an already-compiled circuit at **all** the given noise levels,
/// paying the noise-independent work once: the ideal run executes through
/// a plan-backed [`SimEngine`] and the heavy set is extracted a single
/// time, then each noise point resolves its depolarizing schedule with
/// [`resolve_rates`] (no gate-matrix cloning) and runs the exact
/// density-matrix simulation.
pub fn score_compiled_many(compiled: &CompiledModel, noises: &[QvNoise]) -> Vec<CircuitScore> {
    let circuit = &compiled.circuit;
    let mut engine = SimEngine::new(circuit.n_qubits());
    let ideal = compiled.logical_probs(&engine.run_pure(circuit).probabilities());
    let heavy = heavy_set(&ideal);
    let two_qubit_gates = circuit.two_qubit_gate_count();
    let interaction_time = circuit.total_duration();
    noises
        .iter()
        .map(|noise| {
            let noisy = circuit.run_noisy_scheduled(&resolve_rates(circuit, noise));
            let probs = compiled.logical_probs(&noisy.probabilities());
            CircuitScore {
                hop: heavy.iter().map(|&i| probs[i]).sum(),
                two_qubit_gates,
                interaction_time,
            }
        })
        .collect()
}

/// Compiles and scores one model circuit.
///
/// # Errors
///
/// Propagates [`SynthError`] from compilation.
pub fn score_circuit(
    model: &ModelCircuit,
    gate_set: GateSet,
    noise: &QvNoise,
) -> Result<CircuitScore, SynthError> {
    Ok(score_compiled(&compile_model(model, gate_set)?, noise))
}

/// Samples one model circuit from a dedicated seed and scores it — the unit
/// of work the batched experiment runners fan out.
///
/// # Errors
///
/// Propagates [`SynthError`] from compilation.
pub fn score_sampled(
    d: usize,
    gate_set: GateSet,
    noise: &QvNoise,
    circuit_seed: u64,
) -> Result<CircuitScore, SynthError> {
    Ok(score_sampled_many(d, gate_set, std::slice::from_ref(noise), circuit_seed)?[0])
}

/// [`score_sampled`] at all the given noise levels: the circuit is sampled
/// and compiled **once**, then scored per point via
/// [`score_compiled_many`].
///
/// # Errors
///
/// Propagates [`SynthError`] from compilation.
pub fn score_sampled_many(
    d: usize,
    gate_set: GateSet,
    noises: &[QvNoise],
    circuit_seed: u64,
) -> Result<Vec<CircuitScore>, SynthError> {
    let mut rng = StdRng::seed_from_u64(circuit_seed);
    let model = sample_model_circuit(d, &mut rng);
    Ok(score_compiled_many(
        &compile_model(&model, gate_set)?,
        noises,
    ))
}

/// Folds per-circuit, per-noise-point heavy-output scores into per-point
/// means, propagating the first error.
fn fold_mean_hops(
    scores: Vec<Result<Vec<CircuitScore>, SynthError>>,
    points: usize,
) -> Result<Vec<f64>, SynthError> {
    let n = scores.len();
    let mut totals = vec![0.0; points];
    for s in scores {
        for (t, sc) in totals.iter_mut().zip(s?) {
            *t += sc.hop;
        }
    }
    for t in totals.iter_mut() {
        *t /= n as f64;
    }
    Ok(totals)
}

/// Mean heavy-output probability over `n_circuits` random model circuits of
/// size `d` — one point of paper Fig. 7.
///
/// Per-circuit seeds are drawn serially from `rng`, then each circuit is
/// sampled, compiled, and scored on a [`BatchRunner`] worker: the result
/// depends only on `rng`'s state, never on the machine's parallelism.
///
/// # Errors
///
/// Propagates [`SynthError`] from compilation.
pub fn mean_hop(
    d: usize,
    gate_set: GateSet,
    noise: &QvNoise,
    n_circuits: usize,
    rng: &mut impl Rng,
) -> Result<f64, SynthError> {
    Ok(mean_hop_sweep(d, gate_set, std::slice::from_ref(noise), n_circuits, rng)?[0])
}

/// [`mean_hop`] at all the given noise levels: each circuit is compiled
/// **once** and scored at every point against the same compiled plan —
/// the shape of a Fig. 7 noise sweep, where recompiling per point would
/// multiply the synthesis cost by the number of points.
///
/// # Errors
///
/// Propagates [`SynthError`] from compilation.
pub fn mean_hop_sweep(
    d: usize,
    gate_set: GateSet,
    noises: &[QvNoise],
    n_circuits: usize,
    rng: &mut impl Rng,
) -> Result<Vec<f64>, SynthError> {
    let seeds: Vec<u64> = (0..n_circuits).map(|_| rng.gen::<u64>()).collect();
    let scores = BatchRunner::new(0).run(n_circuits, |i, _| {
        score_sampled_many(d, gate_set, noises, seeds[i])
    });
    fold_mean_hops(scores, noises.len())
}

/// [`mean_hop`] with an explicit master seed and worker count
/// (`workers` follows the [`ashn_math::par`] zero-means-default
/// convention): circuit `i` is sampled from
/// the [`BatchRunner`] stream for job `i`, so the estimate is bit-identical
/// for any worker count — the reproducibility contract of the batched
/// experiment runner.
///
/// # Errors
///
/// Propagates [`SynthError`] from compilation.
pub fn mean_hop_batched(
    d: usize,
    gate_set: GateSet,
    noise: &QvNoise,
    n_circuits: usize,
    master_seed: u64,
    workers: usize,
) -> Result<f64, SynthError> {
    Ok(mean_hop_batched_sweep(
        d,
        gate_set,
        std::slice::from_ref(noise),
        n_circuits,
        master_seed,
        workers,
    )?[0])
}

/// [`mean_hop_batched`] at all the given noise levels, compiling each
/// circuit once (same worker-count-invariance contract).
///
/// # Errors
///
/// Propagates [`SynthError`] from compilation.
pub fn mean_hop_batched_sweep(
    d: usize,
    gate_set: GateSet,
    noises: &[QvNoise],
    n_circuits: usize,
    master_seed: u64,
    workers: usize,
) -> Result<Vec<f64>, SynthError> {
    let runner = BatchRunner::new(master_seed).with_workers(workers);
    let scores = runner.run(n_circuits, |_, rng| {
        let model = sample_model_circuit(d, rng);
        Ok(score_compiled_many(
            &compile_model(&model, gate_set)?,
            noises,
        ))
    });
    fold_mean_hops(scores, noises.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn heavy_set_is_half_the_outcomes_generically() {
        let ideal = [0.4, 0.1, 0.3, 0.2];
        let h = heavy_set(&ideal);
        assert_eq!(h, vec![0, 2]);
    }

    #[test]
    fn noiseless_hop_is_high() {
        // Ideal heavy-output probability of random circuits approaches
        // (1 + ln 2)/2 ≈ 0.847 for large d; even at d = 4 it is well above
        // the 2/3 threshold.
        let mut rng = StdRng::seed_from_u64(31);
        let noise = QvNoise {
            e_cz: 0.0,
            e_1q: 0.0,
        };
        let hop = mean_hop(4, GateSet::Ashn { cutoff: 0.0 }, &noise, 4, &mut rng).unwrap();
        assert!(hop > 0.75, "noiseless HOP = {hop}");
    }

    #[test]
    fn noise_lowers_hop_toward_half() {
        let mut rng = StdRng::seed_from_u64(32);
        let model = sample_model_circuit(4, &mut rng);
        let clean = score_circuit(
            &model,
            GateSet::Ashn { cutoff: 0.0 },
            &QvNoise {
                e_cz: 0.0,
                e_1q: 0.0,
            },
        )
        .unwrap();
        let noisy = score_circuit(
            &model,
            GateSet::Ashn { cutoff: 0.0 },
            &QvNoise::with_e_cz(0.05),
        )
        .unwrap();
        assert!(noisy.hop < clean.hop);
        assert!(
            noisy.hop > 0.45,
            "HOP should stay above ~0.5, got {}",
            noisy.hop
        );
    }

    #[test]
    fn ashn_beats_cz_on_the_same_circuits() {
        // The paper's headline Fig. 7 ordering at a fixed noise level.
        let noise = QvNoise::with_e_cz(0.017);
        let mut hops = [0.0f64; 2];
        for (k, gs) in [GateSet::Cz, GateSet::Ashn { cutoff: 0.0 }]
            .into_iter()
            .enumerate()
        {
            let mut rng = StdRng::seed_from_u64(33); // same circuits for both
            hops[k] = mean_hop(4, gs, &noise, 3, &mut rng).unwrap();
        }
        assert!(
            hops[1] > hops[0],
            "AshN {} should beat CZ {}",
            hops[1],
            hops[0]
        );
    }

    #[test]
    fn batched_hop_is_worker_count_invariant() {
        // The same master seed must yield bit-identical heavy-output
        // statistics whether the batch runs on 1, 2, or 8 workers.
        let noise = QvNoise::with_e_cz(0.012);
        let reference = mean_hop_batched(3, GateSet::Cz, &noise, 4, 77, 1).unwrap();
        for workers in [2, 8] {
            let got = mean_hop_batched(3, GateSet::Cz, &noise, 4, 77, workers).unwrap();
            assert_eq!(got.to_bits(), reference.to_bits(), "workers = {workers}");
        }
        assert!((0.0..=1.0).contains(&reference));
    }

    #[test]
    fn sweep_matches_per_point_scoring_bit_for_bit() {
        // One compilation scored at three noise levels must equal three
        // independent batched runs from the same master seed.
        let points = [
            QvNoise::with_e_cz(0.007),
            QvNoise::with_e_cz(0.012),
            QvNoise::with_e_cz(0.017),
        ];
        let swept = mean_hop_batched_sweep(3, GateSet::Cz, &points, 3, 41, 2).unwrap();
        assert_eq!(swept.len(), points.len());
        for (noise, &hop) in points.iter().zip(swept.iter()) {
            let single = mean_hop_batched(3, GateSet::Cz, noise, 3, 41, 2).unwrap();
            assert_eq!(hop.to_bits(), single.to_bits());
        }
        // More noise, less heavy output.
        assert!(swept[0] > swept[2]);
    }

    #[test]
    fn sweep_is_worker_count_invariant() {
        let points = [QvNoise::with_e_cz(0.007), QvNoise::with_e_cz(0.017)];
        let reference = mean_hop_batched_sweep(3, GateSet::Cz, &points, 4, 43, 1).unwrap();
        for workers in [2, 8] {
            let got = mean_hop_batched_sweep(3, GateSet::Cz, &points, 4, 43, workers).unwrap();
            for (a, b) in got.iter().zip(reference.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "workers = {workers}");
            }
        }
    }

    #[test]
    fn resolve_rates_matches_stamp_noise() {
        let mut rng = StdRng::seed_from_u64(35);
        let model = sample_model_circuit(3, &mut rng);
        let compiled = compile_model(&model, GateSet::Cz).unwrap();
        let noise = QvNoise::with_e_cz(0.013);
        let rates = resolve_rates(&compiled.circuit, &noise);
        let stamped = stamp_noise(&compiled.circuit, &noise);
        assert_eq!(rates.len(), stamped.gates().len());
        for (r, g) in rates.iter().zip(stamped.gates()) {
            assert_eq!(Some(*r), g.error_rate);
        }
    }

    #[test]
    fn mean_hop_depends_only_on_the_caller_rng() {
        // Two calls from identically seeded RNGs agree exactly, whatever
        // the default worker count happens to be on this machine.
        let noise = QvNoise::with_e_cz(0.012);
        let mut rng_a = StdRng::seed_from_u64(55);
        let mut rng_b = StdRng::seed_from_u64(55);
        let a = mean_hop(3, GateSet::Cz, &noise, 3, &mut rng_a).unwrap();
        let b = mean_hop(3, GateSet::Cz, &noise, 3, &mut rng_b).unwrap();
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn interaction_time_orders_cz_sqisw_ashn() {
        let mut rng = StdRng::seed_from_u64(34);
        let model = sample_model_circuit(4, &mut rng);
        let noise = QvNoise::with_e_cz(0.01);
        let t_cz = score_circuit(&model, GateSet::Cz, &noise)
            .unwrap()
            .interaction_time;
        let t_sq = score_circuit(&model, GateSet::Sqisw, &noise)
            .unwrap()
            .interaction_time;
        let t_ashn = score_circuit(&model, GateSet::Ashn { cutoff: 0.0 }, &noise)
            .unwrap()
            .interaction_time;
        assert!(t_ashn < t_sq && t_sq < t_cz, "{t_ashn} {t_sq} {t_cz}");
    }
}
