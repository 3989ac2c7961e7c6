//! `trajectories`: the simulation layer. Heisenberg-XYZ circuits on
//! lattice-matched grids are compiled warm by the AshN service, built into
//! an execution plan under the paper's noise, and run as Monte-Carlo
//! trajectory ensembles.

use crate::check;
use crate::gen;
use crate::harness::Config;
use crate::runner::{Out, Setup, Workload};
use crate::service::{
    self, accept, cache_path, persist_warm_cache, timed_boot, Gate, Plain, Timed,
};
use crate::timing::{ms_since, Tally};
use ashn::ir::Circuit;
use ashn::qv::heavy_set;
use ashn::route::Grid;
use ashn::service::{CompileRequest, OptLevel};
use ashn::sim::plan::ExecPlan;
use ashn::sim::trajectory::trajectory_probabilities_batched_plan;
use std::path::PathBuf;
use std::time::Instant;

/// `(rows, cols, circuits, trajectories per request)`. The two sizes
/// straddle `ChunkPolicy::MIN_PARALLEL_QUBITS = 16`: trajectory-parallel
/// at 12 sites (64 KiB state), amplitude-parallel at 16 (1 MiB).
pub const SIZES: [(usize, usize, usize, usize); 2] = [(3, 4, 8, 24), (4, 4, 3, 4)];
/// Trotter steps per circuit.
pub const STEPS: usize = 2;
/// Trajectories of the warm-up HOP estimate (12-site circuits only: the
/// 16-site requests run too few trajectories for a steady estimate, and a
/// larger 16-site ensemble would cost seconds per circuit).
pub const HOP_TRAJECTORIES: usize = 256;

/// One request: a circuit, its grid, and its ensemble.
pub struct Input {
    /// The compile request (explicit lattice-matched grid).
    pub request: [CompileRequest; 1],
    /// Trajectories in the ensemble.
    pub trajectories: usize,
    /// Master seed of the ensemble.
    pub seed: u64,
}

/// The seeded Heisenberg-XYZ circuits (Néel start) and their grids.
pub fn circuits(seed: u64) -> Vec<(Circuit, Grid, usize)> {
    let mut rng = gen::rng(seed, 3);
    let mut out = Vec::new();
    for (rows, cols, count, trajectories) in SIZES {
        for _ in 0..count {
            let circuit = gen::heisenberg_xyz(rows, cols, STEPS, &mut rng);
            out.push((circuit, Grid::new(rows, cols), trajectories));
        }
    }
    out
}

/// The workload state.
pub struct Trajectories {
    inputs: Vec<Input>,
    references: Vec<Vec<f64>>,
    heavy: Vec<Vec<usize>>,
    plain: Plain,
    timed: Option<Timed>,
    workers: usize,
    path: PathBuf,
    /// Set-up figures of the boot the run uses.
    pub setup: Setup,
}

impl Trajectories {
    /// Inputs, references, the persisted cache, and the timed set-up.
    ///
    /// # Errors
    ///
    /// When the warm cache cannot be prepared.
    pub fn new(cfg: &Config) -> Result<Self, String> {
        let mut inputs = Vec::new();
        let mut references = Vec::new();
        for (k, (circuit, grid, trajectories)) in circuits(cfg.seed).into_iter().enumerate() {
            references.push(check::ideal_distribution(&circuit));
            inputs.push(Input {
                request: [CompileRequest::new(circuit).grid(grid).opt(OptLevel::Light)],
                trajectories,
                seed: cfg.seed.wrapping_mul(1000).wrapping_add(k as u64),
            });
        }
        let heavy = references.iter().map(|r| heavy_set(r)).collect();
        let path = cache_path(cfg, "trajectories");
        let all: Vec<(Gate, &[CompileRequest])> = inputs
            .iter()
            .map(|i| (Gate::Ashn, i.request.as_slice()))
            .collect();
        persist_warm_cache(&path, cfg.workers, &all)?;
        let (setup, plain, timed) = timed_boot(&path, cfg);
        Ok(Self {
            inputs,
            references,
            heavy,
            plain,
            timed,
            workers: cfg.workers,
            path,
            setup,
        })
    }

    fn out(&self, i: usize, circuit: Circuit, positions: Vec<usize>, probs: Vec<f64>) -> Out {
        Out {
            circuit,
            positions,
            extra: probs,
            reference: i,
            gate: Gate::Ashn.name(),
        }
    }
}

fn plan(circuit: &Circuit) -> Result<ExecPlan, String> {
    let noise = check::noise();
    ExecPlan::build_with(circuit, |g| noise.rate(g.qubits.len(), g.duration))
        .map_err(|e| e.to_string())
}

impl Workload for Trajectories {
    fn inputs(&self) -> usize {
        self.inputs.len()
    }

    fn reference(&self, r: usize) -> &[f64] {
        &self.references[r]
    }

    fn setup_once(&self) -> Setup {
        service::boot(&self.path, self.workers).setup
    }

    fn untraced(&self, i: usize) -> Result<(f64, Vec<Out>), String> {
        let input = &self.inputs[i];
        let start = Instant::now();
        let result = self.plain.ashn.compile_batch(&input.request);
        let (circuit, positions) = accept(result.results.into_iter().next().ok_or("no result")?)?;
        let plan = plan(&circuit)?;
        let probs = trajectory_probabilities_batched_plan(
            &plan,
            input.trajectories,
            input.seed,
            self.workers,
        );
        let ms = ms_since(start);
        Ok((ms, vec![self.out(i, circuit, positions, probs)]))
    }

    fn traced(&self, i: usize, tally: &mut Tally) -> Result<(f64, Vec<Out>), String> {
        let (timed, counters) = self.timed.as_ref().ok_or("traced services not built")?;
        let input = &self.inputs[i];
        let start = Instant::now();
        let (circuit, positions) = Gate::Ashn
            .compose(timed, &input.request, self.workers, tally)?
            .pop()
            .ok_or("no result")?;
        let plan = tally.time("sim.plan_build_ms", || plan(&circuit))?;
        let probs = tally.time("sim.execute_ms", || {
            trajectory_probabilities_batched_plan(
                &plan,
                input.trajectories,
                input.seed,
                self.workers,
            )
        });
        let ms = ms_since(start);
        for c in counters {
            tally.add_synth(c.take());
        }
        let ops = plan.ops().len() as f64;
        tally.add("sim.plan_ops", ops);
        tally.add("sim.plan_gates", plan.source_gates() as f64);
        tally.add("sim.trajectories", input.trajectories as f64);
        // Computed bytes moved: every plan op reads and writes each 16-byte
        // amplitude once per trajectory (noise injections not counted).
        let amps = (1u64 << plan.n_qubits()) as f64;
        tally.add("sim.bytes", input.trajectories as f64 * ops * amps * 32.0);
        Ok((ms, vec![self.out(i, circuit, positions, probs)]))
    }

    fn warm_hop(&self, out: &Out) -> Option<f64> {
        if out.circuit.n_qubits() > service::HOP_MAX_SITES {
            return None;
        }
        Some(check::trajectory_hop(
            &plan(&out.circuit).ok()?,
            &self.heavy[out.reference],
            &out.positions,
            HOP_TRAJECTORIES,
            self.inputs[out.reference].seed ^ 0x40b,
            self.workers,
        ))
    }
}
