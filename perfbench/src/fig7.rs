//! `qv_fig7`: the paper's Fig. 7 traffic through the `ashn::Compiler`
//! facade, one fresh compiler per request (every Haar class cold).

use crate::check::{self, model_circuit, noise};
use crate::gen;
use crate::harness::Config;
use crate::runner::{Out, Setup, Workload, GATES};
use crate::timing::{ms_since, Tally, TimingBasis};
use ashn::ir::{Basis, Circuit};
use ashn::qv::{heavy_set, resolve_rates, CompiledModel, GateSet, ModelCircuit};
use ashn::route::{expand_route_ops, Grid, Router};
use ashn::sim::{SimEngine, Simulate};
use ashn::synth::basis::AshnBasis;
use ashn::synth::cache::{CachedBasis, SynthCache};
use ashn::synth::retarget::{standard_rules, RuleSet};
use ashn::{Compiler, OptLevel};
use std::hint::black_box;
use std::time::Instant;

/// Model widths. d = 7 is left out: its 3×3 grid makes scoring cost an
/// order of magnitude more than compiling, which would bury every other
/// layer.
pub const DEPTHS: [usize; 3] = [4, 5, 6];
/// Model circuits per width.
pub const PER_DEPTH: usize = 12;
/// The paper's three contenders, in the order of their names in [`GATES`].
pub const GATE_SETS: [GateSet; 3] = [GateSet::Cz, GateSet::Sqisw, GateSet::Ashn { cutoff: 1.1 }];

/// The basis a request compiles to; AshN fans its EA multistart over
/// `workers` threads (bit-identical at any worker count).
pub fn basis(gs: GateSet, workers: usize) -> Box<dyn Basis> {
    match gs {
        GateSet::Ashn { cutoff } => {
            Box::new(AshnBasis::with_cutoff(0.0, cutoff).with_workers(workers))
        }
        other => other.basis(),
    }
}

/// One request: a model circuit and the gate set to compile it for.
#[derive(Clone, Debug)]
pub struct Input {
    /// The model circuit.
    pub model: ModelCircuit,
    /// Target gate set, as an index into [`GATE_SETS`] and [`GATES`].
    pub gate: usize,
}

impl Input {
    /// Target gate set.
    pub fn gate_set(&self) -> GateSet {
        GATE_SETS[self.gate]
    }
}

/// The seeded input set: [`PER_DEPTH`] model circuits per width in
/// [`DEPTHS`], each compiled for every gate set in [`GATE_SETS`].
pub fn inputs(seed: u64) -> Vec<Input> {
    let mut shape = gen::shape_rng(1);
    let mut rng = gen::rng(seed, 1);
    let mut out = Vec::new();
    for d in DEPTHS {
        for model in gen::model_circuits(d, PER_DEPTH, &mut shape, &mut rng) {
            for gate in 0..GATE_SETS.len() {
                out.push(Input {
                    model: model.clone(),
                    gate,
                });
            }
        }
    }
    out
}

/// The workload state.
pub struct QvFig7 {
    inputs: Vec<Input>,
    references: Vec<Vec<f64>>,
    workers: usize,
}

impl QvFig7 {
    /// Inputs and their reference distributions for `cfg.seed`.
    pub fn new(cfg: &Config) -> Self {
        let inputs = inputs(cfg.seed);
        let references = inputs
            .iter()
            .map(|i| check::ideal_distribution(&model_circuit(&i.model)))
            .collect();
        Self {
            inputs,
            references,
            workers: cfg.workers,
        }
    }

    /// Set-up: the rule table the facade's cached bases consult, and one
    /// compiler per gate set.
    pub fn setup(&self) -> Setup {
        // The facade reads the process-wide table; build it once so the
        // first request does not pay for it, then time fresh builds.
        let _ = standard_rules();
        self.setup_once()
    }

    fn out(&self, i: usize, model: &CompiledModel, hop: f64) -> Out {
        Out {
            circuit: model.circuit.clone(),
            positions: model.positions.clone(),
            extra: vec![hop],
            reference: i,
            gate: GATES[self.inputs[i].gate],
        }
    }
}

impl Workload for QvFig7 {
    fn inputs(&self) -> usize {
        self.inputs.len()
    }

    fn reference(&self, r: usize) -> &[f64] {
        &self.references[r]
    }

    fn setup_once(&self) -> Setup {
        let start = Instant::now();
        black_box(RuleSet::standard());
        for gs in GATE_SETS {
            black_box(Compiler::new().basis(basis(gs, self.workers)));
        }
        Setup {
            seconds: start.elapsed().as_secs_f64(),
            ..Setup::default()
        }
    }

    fn untraced(&self, i: usize) -> Result<(f64, Vec<Out>), String> {
        let input = &self.inputs[i];
        let start = Instant::now();
        let compiled = Compiler::new()
            .basis(basis(input.gate_set(), self.workers))
            .opt_level(OptLevel::Default)
            .compile(&input.model)
            .map_err(|e| e.to_string())?;
        let score = compiled.score();
        let ms = ms_since(start);
        Ok((ms, vec![self.out(i, compiled.as_model(), score.hop)]))
    }

    fn traced(&self, i: usize, tally: &mut Tally) -> Result<(f64, Vec<Out>), String> {
        let input = &self.inputs[i];
        let start = Instant::now();
        let timing = TimingBasis::new(basis(input.gate_set(), self.workers));
        let counters = timing.counters();
        let cache = SynthCache::default();
        let cached = CachedBasis::with_cache(&timing, cache.clone()).with_rules(standard_rules());
        let (model, hop) = compose(&input.model, &cached, tally).map_err(|e| e.to_string())?;
        let ms = ms_since(start);
        let stats = cache.stats();
        tally.add("synth.calls", stats.lookups() as f64);
        tally.add("synth.exact_hits", stats.exact_hits as f64);
        tally.add("synth.class_hits", stats.class_hits as f64);
        tally.add("synth.rule_hits", stats.rule_hits as f64);
        tally.add_synth(counters.take());
        Ok((ms, vec![self.out(i, &model, hop)]))
    }

    /// The exact density-matrix HOP the request itself computed.
    fn warm_hop(&self, out: &Out) -> Option<f64> {
        out.extra.first().copied()
    }
}

/// The facade request rebuilt from the layers' public functions — greedy
/// [`Router::route_layer`], [`expand_route_ops`], the standard
/// [`ashn::PassManager`] pipeline, [`resolve_rates`] and the simulators —
/// with every call timed from outside.
///
/// # Errors
///
/// Synthesis, assembly and optimizer failures.
pub fn compose(
    model: &ModelCircuit,
    basis: &dyn Basis,
    tally: &mut Tally,
) -> Result<(CompiledModel, f64), ashn::AshnError> {
    let grid = Grid::for_qubits(model.d);
    let n_sites = grid.len();
    let mut router = Router::new(grid, model.d);
    let mut circuit = Circuit::new(n_sites);
    let swap = tally
        .time("synth.ms", || basis.native_swap())?
        .fuse_single_qubit_runs();
    for layer in &model.layers {
        let pairs: Vec<(usize, usize)> = layer.iter().map(|(p, _)| *p).collect();
        let ops = tally.time("route.ms", || router.route_layer(&pairs));
        let swaps = ops
            .iter()
            .filter(|op| matches!(op, ashn::route::RouteOp::Swap(..)))
            .count();
        tally.add("route.swaps", swaps as f64);
        tally.add("route.gates", pairs.len() as f64);
        let assemble = Instant::now();
        let mut synth_ms = 0.0;
        let routed = expand_route_ops(n_sites, &ops, &swap, |index| {
            let start = Instant::now();
            let out = basis.synthesize(&layer[index].1);
            synth_ms += ms_since(start);
            Ok(out?.fuse_single_qubit_runs())
        })?;
        circuit.append(routed)?;
        tally.add("assemble.ms", ms_since(assemble) - synth_ms);
        tally.add("synth.ms", synth_ms);
    }
    let positions = (0..model.d).map(|l| router.position(l)).collect();
    let (circuit, stats) = tally.time("opt.ms", || {
        ashn::opt::standard_pipeline(basis, Compiler::OPT_ACCEPT_TOL).run(&circuit)
    })?;
    tally.add_opt(&stats);
    let compiled = CompiledModel { circuit, positions };
    let rates = tally.time("schedule.ms", || resolve_rates(&compiled.circuit, &noise()));
    let score = Instant::now();
    let ideal = tally.time("sim.pure_ms", || {
        SimEngine::new(compiled.circuit.n_qubits())
            .run_pure(&compiled.circuit)
            .probabilities()
    });
    let heavy = heavy_set(&compiled.logical_probs(&ideal));
    let noisy = tally.time("sim.density_ms", || {
        compiled.circuit.run_noisy_scheduled(&rates).probabilities()
    });
    let hop = check::hop(&heavy, &compiled.logical_probs(&noisy));
    tally.add("qv.score_ms", ms_since(score));
    Ok((compiled, hop))
}
