//! The builder-style compilation pipeline: synthesize → route → optimize →
//! schedule → simulate, over any [`Basis`].
//!
//! This replaces the former free-function flow
//! (`qv::compile_model` + `qv::score_compiled`) as the facade entry point:
//!
//! ```
//! use ashn::{Compiler, GateSet, QvNoise};
//! use ashn::qv::sample_model_circuit;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! let model = sample_model_circuit(3, &mut rng);
//! let compiled = Compiler::new()
//!     .gate_set(GateSet::Ashn { cutoff: 1.1 })
//!     .noise(QvNoise::with_e_cz(0.01))
//!     .compile(&model)?;
//! let score = compiled.score();
//! assert!(score.hop > 0.5 && score.two_qubit_gates > 0);
//! # Ok::<(), ashn::AshnError>(())
//! ```

use crate::error::AshnError;
use ashn_ir::{Basis, Circuit};
use ashn_opt::{OptLevel, OptStats, PassManager, Resynthesize, Retarget};
use ashn_qv::experiment::{
    compile_model_on, score_compiled, score_compiled_many, stamp_noise, CircuitScore,
    CompiledModel, ModelCircuit,
};
use ashn_qv::{GateSet, QvNoise};
use ashn_route::Grid;
use ashn_service::ShardedCache;
use ashn_sim::plan::{ExecPlan, PlanError};
use ashn_sim::trajectory::trajectory_probabilities_batched_plan;
use ashn_sim::{DensityMatrix, NoiseModel, SimEngine, Simulate, StateVector};
use ashn_synth::basis::AshnBasis;
use ashn_synth::cache::CachedBasis;
use ashn_synth::retarget::standard_rules;

/// Synthesis-cache counters exposed by [`Compiler::synth_stats`]
/// (re-exported [`ashn_synth::cache::CacheStats`]): exact hits, class hits,
/// and misses, so the memo-cache's effect on synthesis throughput is
/// observable from the facade.
pub type SynthStats = ashn_synth::cache::CacheStats;

/// Builder for the end-to-end compilation pipeline.
///
/// Defaults: the AshN basis with the paper's cutoff `r = 1.1`, the paper's
/// noise anchored at `e_cz = 0.7%`, a grid sized to the model, and
/// [`OptLevel::None`] — the optimizer ([`Compiler::opt_level`]) is opt-in,
/// so out of the box the pipeline reproduces the historical
/// synthesize → route → schedule → simulate output bit for bit. Select
/// [`OptLevel::Light`] for the exact structural rewrites or
/// [`OptLevel::Standard`] to add two-qubit block resynthesis through the
/// compiler's memo-cached basis.
///
/// Every synthesis goes through one memo store, a [`ShardedCache`]: a
/// private one-shard cache of 256 classes unless
/// [`Compiler::with_shared_cache`] installs a process-wide one. Callers who
/// need retries, serve verification and graceful degradation use
/// `ashn_service::CompileService` (`max_attempts`, `verify_tol`).
pub struct Compiler {
    /// The plain basis; the memo layer is applied per [`Compiler::compile`]
    /// call, so swapping the basis or the cache never re-wraps anything.
    basis: Box<dyn Basis>,
    /// When set, [`Compiler::retarget_circuit`] only rewrites gates native
    /// to this source set (the "port that machine's circuits" shape).
    source: Option<Box<dyn Basis>>,
    noise: QvNoise,
    grid: Option<Grid>,
    cache: ShardedCache,
    opt: OptLevel,
}

impl Default for Compiler {
    fn default() -> Self {
        Self::new()
    }
}

impl Compiler {
    /// A compiler with the default AshN configuration.
    pub fn new() -> Self {
        Self {
            basis: Box::new(AshnBasis::with_cutoff(0.0, 1.1)),
            source: None,
            noise: QvNoise::with_e_cz(0.007),
            grid: None,
            cache: ShardedCache::with_config(1, 256),
            opt: OptLevel::None,
        }
    }

    /// Acceptance tolerance for resynthesized blocks under
    /// [`OptLevel::Standard`] ([`ashn_opt::OPT_ACCEPT_TOL`], the one value
    /// both front ends use).
    pub const OPT_ACCEPT_TOL: f64 = ashn_opt::OPT_ACCEPT_TOL;

    /// Sets the optimization level run between routing and scheduling
    /// (default: [`OptLevel::None`] — optimization is opt-in so the
    /// historical pipeline output is preserved bit for bit).
    #[must_use]
    pub fn opt_level(mut self, level: OptLevel) -> Self {
        self.opt = level;
        self
    }

    /// Sets the native basis (any [`Basis`] implementation — the built-in
    /// CNOT/CZ/SQiSW/AshN sets from `ashn-synth`, or a user-defined one).
    ///
    /// At `compile` time the basis is wrapped in the compiler's synthesis
    /// memo-cache ([`ashn_synth::cache::CachedBasis`]): repeated Weyl
    /// classes across `compile` calls skip re-instantiation, observable via
    /// [`Compiler::synth_stats`]. Swapping the basis keeps the cache and its
    /// counters; cache keys carry the basis name and parameters, so entries
    /// never serve another basis.
    #[must_use]
    pub fn basis(mut self, basis: impl Basis + 'static) -> Self {
        self.basis = Box::new(basis);
        self
    }

    /// Plugs this compiler into a process-wide [`ShardedCache`]
    /// (`ashn_service`): synthesis results are shared with every other
    /// compiler and every `CompileService` holding a handle to the same
    /// cache, across threads, and survive process restarts when the service
    /// persists it. Replaces the compiler-private cache.
    #[must_use]
    pub fn with_shared_cache(mut self, cache: &ShardedCache) -> Self {
        self.cache = cache.clone();
        self
    }

    /// Current synthesis-cache counters (exact hits / class hits / misses /
    /// occupancy). With a shared cache these aggregate over every compiler
    /// and service feeding it, not just this one.
    pub fn synth_stats(&self) -> SynthStats {
        self.cache.stats()
    }

    /// Sets the basis from the paper's [`GateSet`] enum (convenience
    /// wrapper over [`Compiler::basis`]).
    #[must_use]
    pub fn gate_set(self, gate_set: GateSet) -> Self {
        self.basis(gate_set.basis())
    }

    /// Declares the instruction set the input circuits were written for:
    /// [`Compiler::retarget_circuit`] then only rewrites gates native to
    /// this source set (by matrix, at `1e-12`), leaving anything else to
    /// the numeric resynthesis tier.
    #[must_use]
    pub fn source_basis(mut self, basis: impl Basis + 'static) -> Self {
        self.source = Some(Box::new(basis));
        self
    }

    /// Retargets an existing circuit onto this compiler's basis: the
    /// closed-form [`Retarget`] rules rewrite recognized foreign gates
    /// (CX, CZ, ECR, SWAP, iSWAP, SQiSW and wire reversals) into exact
    /// native fragments first, then [`Resynthesize`] sweeps the blocks
    /// the rules did not cover through the (cached, rule-armed) basis at
    /// [`Compiler::OPT_ACCEPT_TOL`]. Rule rewrites are exact to machine
    /// precision; only uncovered blocks pay KAK + numeric synthesis.
    ///
    /// # Errors
    ///
    /// Optimizer failures surface through `From<OptError>`:
    /// [`AshnError::Ir`] when a pass fails structurally (e.g. the input
    /// contains ≥3-qubit instructions), [`AshnError::Synth`] when
    /// resynthesis fails, and [`AshnError::Config`] for a stale pass anchor.
    pub fn retarget_circuit(&self, circuit: &Circuit) -> Result<(Circuit, OptStats), AshnError> {
        let mut retarget = Retarget::new(self.basis.as_ref());
        if let Some(source) = &self.source {
            retarget = retarget.source(source.as_ref());
        }
        let pipeline = PassManager::new()
            .with_pass(retarget)
            .with_pass(Resynthesize::new(self.cached_basis(), Self::OPT_ACCEPT_TOL));
        let (out, stats) = pipeline.run(circuit)?;
        Ok((out, stats))
    }

    /// Sets the noise model used for scheduling error rates and scoring.
    #[must_use]
    pub fn noise(mut self, noise: QvNoise) -> Self {
        self.noise = noise;
        self
    }

    /// Sets an explicit routing grid (default: the smallest near-square
    /// grid holding the model's qubits).
    #[must_use]
    pub fn grid(mut self, grid: Grid) -> Self {
        self.grid = Some(grid);
        self
    }

    /// Compiles a model circuit: per-layer gates are synthesized over the
    /// basis, routed with SWAPs on the grid, and assembled into one
    /// physical-site [`Circuit`] carrying durations.
    ///
    /// # Errors
    ///
    /// [`AshnError::Config`] when the grid cannot hold the model;
    /// [`AshnError::Synth`]/[`AshnError::Ir`] from synthesis and assembly.
    pub fn compile(&self, model: &ModelCircuit) -> Result<Compiled, AshnError> {
        let grid = self.grid.unwrap_or_else(|| Grid::for_qubits(model.d));
        if grid.len() < model.d {
            return Err(AshnError::Config {
                detail: format!(
                    "grid has {} sites but the model needs {}",
                    grid.len(),
                    model.d
                ),
            });
        }
        let basis = self.cached_basis();
        let mut compiled = compile_model_on(model, &basis, Some(grid)).map_err(|e| match e {
            ashn_ir::SynthError::Ir(ir) => AshnError::Ir(ir),
            other => AshnError::Synth(other),
        })?;
        // Optimize between routing and scheduling: rewrites act on the
        // physical-site circuit (wire identities preserved, so the router's
        // final placement stays valid) before noise rates are resolved.
        let opt_stats = match self.opt.pipeline(&basis) {
            Some(pipeline) => {
                let (optimized, stats) = pipeline.run(&compiled.circuit)?;
                compiled.circuit = optimized;
                Some(stats)
            }
            None => None,
        };
        Ok(Compiled {
            model: compiled,
            noise: self.noise,
            basis_name: self.basis.name(),
            opt_stats,
        })
    }

    /// The basis wrapped in the compiler's memo store, with the
    /// closed-form rule tier armed.
    fn cached_basis(&self) -> CachedBasis<&dyn Basis, ShardedCache> {
        CachedBasis::with_store(self.basis.as_ref(), self.cache.clone())
            .with_rules(standard_rules())
    }
}

/// A compiled model circuit, ready to schedule and simulate.
#[derive(Clone, Debug)]
pub struct Compiled {
    model: CompiledModel,
    noise: QvNoise,
    basis_name: String,
    opt_stats: Option<OptStats>,
}

impl Compiled {
    /// The physical-site circuit (durations attached, error rates not yet
    /// stamped — see [`Compiled::scheduled`]).
    pub fn circuit(&self) -> &Circuit {
        &self.model.circuit
    }

    /// `positions[l]` = physical site holding logical qubit `l` at the end.
    pub fn positions(&self) -> &[usize] {
        &self.model.positions
    }

    /// Name of the basis this was compiled for.
    pub fn basis_name(&self) -> &str {
        &self.basis_name
    }

    /// Optimizer accounting for this compilation — gate counts, two-qubit
    /// counts, and depth before→after, with a per-pass breakdown — or
    /// `None` when the compiler ran at [`OptLevel::None`].
    pub fn opt_stats(&self) -> Option<&OptStats> {
        self.opt_stats.as_ref()
    }

    /// The underlying `ashn-qv` compiled model.
    pub fn as_model(&self) -> &CompiledModel {
        &self.model
    }

    /// The circuit with per-gate depolarizing rates scheduled from the
    /// noise model (single-qubit fixed, two-qubit ∝ duration).
    pub fn scheduled(&self) -> Circuit {
        stamp_noise(&self.model.circuit, &self.noise)
    }

    /// Noiseless statevector simulation of the compiled circuit.
    pub fn simulate_pure(&self) -> StateVector {
        self.model.circuit.run_pure()
    }

    /// Fallible [`Compiled::simulate_pure`], surfacing register-size
    /// failures as [`AshnError::Sim`] instead of panicking. Runs
    /// plan-backed on a [`SimEngine`] — fused and, on large registers,
    /// amplitude-parallel — so it is also the fast path for big circuits.
    ///
    /// # Errors
    ///
    /// [`AshnError::Sim`] when the compiled register exceeds
    /// [`ashn_sim::MAX_QUBITS`] (memory-bound).
    pub fn try_simulate_pure(&self) -> Result<StateVector, AshnError> {
        let mut engine = SimEngine::try_new(self.model.circuit.n_qubits())?;
        engine.run_pure(&self.model.circuit);
        Ok(engine.take_state())
    }

    /// Exact density-matrix simulation under the scheduled noise, resolved
    /// per instruction without materializing an annotated circuit copy.
    ///
    /// # Panics
    ///
    /// Panics when the compiled register has more than
    /// [`ashn_sim::density::MAX_DENSITY_QUBITS`]` = 12` sites; estimate
    /// larger registers with [`Compiled::simulate_trajectories`].
    pub fn simulate_noisy(&self) -> DensityMatrix {
        let rates = ashn_qv::resolve_rates(&self.model.circuit, &self.noise);
        self.model.circuit.run_noisy_scheduled(&rates)
    }

    /// Compiles the circuit + scheduled noise into an
    /// [`ashn_sim::ExecPlan`]: kernels pre-classified, matrices inlined,
    /// depolarizing rates already resolved — the input the Monte-Carlo
    /// trajectory ensembles execute. Gate matrices are not cloned.
    ///
    /// # Errors
    ///
    /// [`PlanError`] when the circuit cannot be expressed as a plan
    /// (compiled circuits only contain 1q/2q gates, so this is reachable
    /// only through hand-built models).
    pub fn exec_plan(&self) -> Result<ExecPlan, PlanError> {
        let noise = self.noise;
        ExecPlan::build_with(&self.model.circuit, |g| {
            noise.rate(g.qubits.len(), g.duration)
        })
    }

    /// Physical-site outcome probabilities estimated from `n_traj`
    /// Monte-Carlo trajectories under the scheduled noise, fanned across
    /// `workers` threads (`0` = machine default) — plan-backed, and
    /// bit-identical for any worker count at a fixed `master_seed`.
    /// Marginalize with [`Compiled::logical_probs`].
    pub fn simulate_trajectories(
        &self,
        n_traj: usize,
        master_seed: u64,
        workers: usize,
    ) -> Vec<f64> {
        match self.exec_plan() {
            Ok(plan) => trajectory_probabilities_batched_plan(&plan, n_traj, master_seed, workers),
            Err(_) => ashn_sim::trajectory::trajectory_probabilities_batched(
                &self.scheduled(),
                &NoiseModel::NOISELESS,
                n_traj,
                master_seed,
                workers,
            ),
        }
    }

    /// Heavy-output score of the compiled circuit under the configured
    /// noise (the full schedule → simulate → marginalize chain).
    ///
    /// # Panics
    ///
    /// Panics when the compiled register has more than
    /// [`ashn_sim::density::MAX_DENSITY_QUBITS`]` = 12` sites: the score
    /// runs the exact density-matrix simulation.
    pub fn score(&self) -> CircuitScore {
        score_compiled(&self.model, &self.noise)
    }

    /// Heavy-output scores at several noise levels, paying the compile and
    /// ideal-run cost once (see [`ashn_qv::score_compiled_many`]).
    pub fn score_many(&self, noises: &[QvNoise]) -> Vec<CircuitScore> {
        score_compiled_many(&self.model, noises)
    }

    /// Marginalizes a physical-site distribution onto the logical register.
    pub fn logical_probs(&self, physical: &[f64]) -> Vec<f64> {
        self.model.logical_probs(physical)
    }
}
