//! `service_algos`: structured algorithm traffic through
//! `CompileService::compile_batch` over a disk-warm `ShardedCache` — the
//! cache-read side — plus the composed service pipeline the traced runs of
//! this workload and of `trajectories` share.

use crate::check::{self, noise};
use crate::gen;
use crate::harness::Config;
use crate::runner::{Out, Setup, Workload, GATES};
use crate::timing::{ms_since, SynthCounters, Tally, TimingBasis};
use ashn::gates::kak::weyl_coordinates;
use ashn::gates::two::swap;
use ashn::ir::{Basis, Circuit};
use ashn::math::CMat;
use ashn::qv::{heavy_set, stamp_noise};
use ashn::route::{Grid, LookaheadRouter, RouteOp};
use ashn::service::{CompileRequest, CompileResult, CompileService, OptLevel, ShardedCache};
use ashn::sim::plan::ExecPlan;
use ashn::sim::NoiseModel;
use ashn::synth::basis::{AshnBasis, CzBasis};
use ashn::synth::cache::{ClassEntry, ClassKey, ClassStore};
use ashn::synth::circuit2::TwoQubitCircuit;
use ashn::synth::retarget::RuleSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Trajectories per HOP estimate of a small instance.
pub const HOP_TRAJECTORIES: usize = 64;
/// Largest register whose HOP the warm-up estimates.
pub const HOP_MAX_SITES: usize = 12;

/// The AshN basis of the paper's Fig. 7, `r = 1.1`.
pub fn ashn_basis() -> AshnBasis {
    AshnBasis::with_cutoff(0.0, 1.1)
}

/// A CZ and an AshN compile service over one shared cache.
pub struct Services<C, A> {
    /// The shared cache.
    pub cache: ShardedCache,
    /// Served by the closed-form rule tier where the rules cover a class.
    pub cz: CompileService<C>,
    /// Served from the warm cache.
    pub ashn: CompileService<A>,
}

/// The services the end-to-end path uses.
pub type Plain = Services<CzBasis, AshnBasis>;
/// The same services over timing adapters, for the traced run, with the
/// adapters' counters (CZ, AshN).
pub type Timed = (
    Services<TimingBasis<CzBasis>, TimingBasis<AshnBasis>>,
    [Arc<SynthCounters>; 2],
);

impl<C: Basis + Sync, A: Basis + Sync> Services<C, A> {
    /// Both services over `cache`, consulting `rules`, on `workers` threads.
    pub fn over(cache: ShardedCache, rules: &Arc<RuleSet>, cz: C, ashn: A, workers: usize) -> Self {
        Self {
            cz: CompileService::with_cache(cz, cache.clone())
                .rules(Some(Arc::clone(rules)))
                .workers(workers),
            ashn: CompileService::with_cache(ashn, cache.clone())
                .rules(Some(Arc::clone(rules)))
                .workers(workers),
            cache,
        }
    }
}

/// What a timed boot built.
pub struct Boot {
    /// The services.
    pub services: Plain,
    /// The rule table they consult.
    pub rules: Arc<RuleSet>,
    /// How long it took.
    pub setup: Setup,
}

/// Program set-up: the rule table, a cache warm-started from `path`, and
/// the two services.
pub fn boot(path: &Path, workers: usize) -> Boot {
    let start = Instant::now();
    let rules = Arc::new(RuleSet::standard());
    let cache = ShardedCache::new();
    let load = Instant::now();
    let report = cache.warm_start(path);
    let load_ms = ms_since(load);
    let services = Services::over(cache, &rules, CzBasis, ashn_basis(), workers);
    Boot {
        services,
        rules,
        setup: Setup {
            seconds: start.elapsed().as_secs_f64(),
            load_ms,
            entries: report.loaded as f64,
        },
    }
}

/// Boots the services from `path` and, when `trace` is set, builds the
/// timing services over the same cache and rules.
pub fn timed_boot(path: &Path, cfg: &Config) -> (Setup, Plain, Option<Timed>) {
    let boot = boot(path, cfg.workers);
    let timed = cfg.trace.then(|| {
        let cz = TimingBasis::new(CzBasis);
        let ashn = TimingBasis::new(ashn_basis());
        let counters = [cz.counters(), ashn.counters()];
        let timed = Services::over(
            boot.services.cache.clone(),
            &boot.rules,
            cz,
            ashn,
            cfg.workers,
        );
        (timed, counters)
    });
    (boot.setup, boot.services, timed)
}

/// Compiles every batch cold into a fresh cache and persists it at `path`
/// (the previous run of the service, whose cache the timed boot reads).
///
/// # Errors
///
/// Failed compilations and I/O errors.
pub fn persist_warm_cache(
    path: &Path,
    workers: usize,
    batches: &[(Gate, &[CompileRequest])],
) -> Result<(), String> {
    let rules = Arc::new(RuleSet::standard());
    let services = Services::over(ShardedCache::new(), &rules, CzBasis, ashn_basis(), workers);
    for (gate, requests) in batches {
        for r in gate.compile(&services, requests).results {
            r.map_err(|e| format!("cache preparation failed: {e}"))?;
        }
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    services
        .cache
        .save(path)
        .map(|_| ())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Which service of a [`Services`] pair serves a batch. The discriminant
/// is the gate set's index in [`GATES`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Gate {
    /// The CZ service.
    Cz = 0,
    /// The AshN service.
    Ashn = 2,
}

impl Gate {
    /// Name used in per-gate-set metrics.
    pub fn name(self) -> &'static str {
        GATES[self as usize]
    }

    /// `compile_batch` on this gate's service.
    pub fn compile<C: Basis + Sync, A: Basis + Sync>(
        self,
        s: &Services<C, A>,
        requests: &[CompileRequest],
    ) -> ashn::service::BatchCompileResult {
        match self {
            Gate::Cz => s.cz.compile_batch(requests),
            Gate::Ashn => s.ashn.compile_batch(requests),
        }
    }

    /// [`compose`] on this gate's service.
    ///
    /// # Errors
    ///
    /// As [`compose`].
    pub fn compose<C: Basis + Sync, A: Basis + Sync>(
        self,
        s: &Services<C, A>,
        requests: &[CompileRequest],
        workers: usize,
        tally: &mut Tally,
    ) -> Result<Vec<(Circuit, Vec<usize>)>, String> {
        match self {
            Gate::Cz => compose(&s.cz, requests, workers, tally),
            Gate::Ashn => compose(&s.ashn, requests, workers, tally),
        }
    }
}

/// The circuit and placement of a result, or why it cannot be used.
///
/// # Errors
///
/// Service errors and degraded serves.
pub fn accept(
    result: Result<CompileResult, ashn::service::ServiceError>,
) -> Result<(Circuit, Vec<usize>), String> {
    let r = result.map_err(|e| e.to_string())?;
    if r.degraded {
        return Err("served by the CNOT degradation tier".into());
    }
    Ok((r.circuit, r.positions))
}

/// The service's SWAP fragment: the cached `native_swap` entry, else a
/// fresh one stored for later batches (as `compile_batch` does).
fn swap_fragment<B: Basis + Sync>(svc: &CompileService<B>) -> Result<Circuit, String> {
    let target = swap();
    let key = ClassKey::new(svc.basis(), weyl_coordinates(&target).canonicalize(), true);
    if let Some(entry) = svc.cache().fetch(&key) {
        return Ok(entry.circuit.into());
    }
    let circuit = svc.basis().native_swap().map_err(|e| e.to_string())?;
    if let Ok(core) = TwoQubitCircuit::try_from(circuit.clone()) {
        svc.cache().store(
            key,
            ClassEntry {
                target,
                circuit: core,
            },
        );
    }
    Ok(circuit)
}

/// Stages of the per-request assembly that [`compose`] fans over workers.
const ASSEMBLY_STAGES: [&str; 4] = ["route.ms", "assemble.ms", "opt.ms", "schedule.ms"];

/// A `compile_batch` rebuilt from the layers' public functions —
/// `synthesize_batch` over every 2q target of the batch, then per request
/// [`LookaheadRouter`], embedding, the optimizer and [`stamp_noise`] —
/// with every call timed from outside.
///
/// Like `compile_batch`, requests are assembled on the program's worker
/// pool (`parallel_map` over `workers` threads). Each assembly stage is
/// reported as its share of that section's wall time, split in proportion
/// to the stage's busy time on the workers, so stage times still add up to
/// the request time.
///
/// # Errors
///
/// Synthesis, routing, assembly and optimizer failures, and degraded
/// serves.
pub fn compose<B: Basis + Sync>(
    svc: &CompileService<B>,
    requests: &[CompileRequest],
    workers: usize,
    tally: &mut Tally,
) -> Result<Vec<(Circuit, Vec<usize>)>, String> {
    fn two_qubit(r: &CompileRequest) -> impl Iterator<Item = &ashn::ir::Instruction> {
        r.circuit
            .instructions
            .iter()
            .filter(|inst| inst.qubits.len() == 2)
    }
    let batch = tally.time("service.batch_ms", || {
        let targets: Vec<CMat> = requests
            .iter()
            .flat_map(two_qubit)
            .map(|inst| inst.matrix.clone())
            .collect();
        svc.synthesize_batch(&targets)
    });
    let s = batch.stats;
    tally.add("synth.calls", s.targets as f64);
    tally.add("synth.exact_hits", s.exact_hits as f64);
    tally.add("synth.class_hits", s.class_hits as f64);
    tally.add("synth.rule_hits", s.rule_hits as f64);
    tally.add("service.targets", s.targets as f64);
    tally.add("service.unique_classes", s.unique_classes as f64);
    tally.add("service.cold_classes", s.cold_classes as f64);
    if batch.degraded.iter().any(|&d| d) {
        return Err("served by the CNOT degradation tier".into());
    }
    let served: Vec<Circuit> = batch
        .circuits
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let fragment = tally.time("synth.ms", || swap_fragment(svc))?;
    // Request r's serves start at offsets[r] in the batch's target order.
    let offsets: Vec<usize> = requests
        .iter()
        .scan(0, |next, r| {
            let start = *next;
            *next += two_qubit(r).count();
            Some(start)
        })
        .collect();
    let section = Instant::now();
    let assembled = ashn::core::par::parallel_map(workers, requests.len(), |r| {
        let mut busy = Tally::default();
        let out = assemble(
            svc,
            &requests[r],
            &served[offsets[r]..],
            &fragment,
            &mut busy,
        );
        (out, busy)
    });
    let wall = ms_since(section);
    let mut busy = Tally::default();
    let mut out = Vec::with_capacity(requests.len());
    for (result, t) in assembled {
        busy.merge(&t);
        out.push(result?);
    }
    let total: f64 = ASSEMBLY_STAGES.iter().map(|k| busy.get(k)).sum();
    for (key, value) in busy.iter() {
        if ASSEMBLY_STAGES.contains(&key) {
            tally.add(
                key,
                if total > 0.0 {
                    wall * value / total
                } else {
                    0.0
                },
            );
        } else {
            tally.add(key, value);
        }
    }
    Ok(out)
}

/// Routes, embeds, optimizes and schedules one request from its served
/// two-qubit fragments (in the request's target order).
fn assemble<B: Basis + Sync>(
    svc: &CompileService<B>,
    req: &CompileRequest,
    served: &[Circuit],
    fragment: &Circuit,
    tally: &mut Tally,
) -> Result<(Circuit, Vec<usize>), String> {
    let n = req.circuit.n_qubits();
    let grid = req.grid.unwrap_or_else(|| Grid::for_qubits(n));
    let sites = grid.len();
    let assemble = Instant::now();
    let mut route_ms = 0.0;
    let (mut gates, mut swaps) = (0usize, 0usize);
    let mut router = LookaheadRouter::new(grid, n);
    let mut physical = Circuit::new(sites);
    physical.phase = req.circuit.phase;
    for inst in &req.circuit.instructions {
        match *inst.qubits.as_slice() {
            [] => physical.phase *= inst.matrix[(0, 0)],
            [q] => {
                let mut moved = inst.clone();
                moved.qubits = vec![router.position(q)];
                physical.try_push(moved).map_err(|e| e.to_string())?;
            }
            [a, b] => {
                let start = Instant::now();
                let ops = router.route_layer(&[(a, b)]);
                route_ms += ms_since(start);
                for op in ops {
                    let (piece, x, y) = match op {
                        RouteOp::Swap(x, y) => {
                            swaps += 1;
                            (fragment, x, y)
                        }
                        RouteOp::Gate { a, b, .. } => {
                            gates += 1;
                            (
                                served.get(gates - 1).ok_or("fewer serves than targets")?,
                                a,
                                b,
                            )
                        }
                    };
                    let embedded = piece.embed(sites, &[x, y]).map_err(|e| e.to_string())?;
                    physical.append(embedded).map_err(|e| e.to_string())?;
                }
            }
            _ => return Err("the pipeline compiles 1q/2q circuits".into()),
        }
    }
    tally.add("route.ms", route_ms);
    tally.add("assemble.ms", ms_since(assemble) - route_ms);
    tally.add("route.gates", gates as f64);
    tally.add("route.swaps", swaps as f64);
    let optimized = tally.time("opt.ms", || match req.opt {
        OptLevel::None => None,
        OptLevel::Light => Some(ashn::opt::structural_pipeline().run(&physical)),
        OptLevel::Standard => Some(
            ashn::opt::standard_pipeline(svc.basis(), ashn::service::OPT_ACCEPT_TOL).run(&physical),
        ),
    });
    if let Some(result) = optimized {
        let (circuit, stats) = result.map_err(|e| e.to_string())?;
        tally.add_opt(&stats);
        physical = circuit;
    }
    let circuit = match &req.noise {
        Some(noise) => tally.time("schedule.ms", || stamp_noise(&physical, noise)),
        None => physical,
    };
    Ok((circuit, (0..n).map(|l| router.position(l)).collect()))
}

/// One batch of `service_algos` traffic.
pub struct Batch {
    /// The service it goes to.
    pub gate: Gate,
    /// The requests.
    pub requests: Vec<CompileRequest>,
    /// Input circuit index of each request.
    pub sources: Vec<usize>,
}

/// The seeded algorithm circuits: QFT, grid QAOA-MaxCut, GHZ and
/// Heisenberg-XYZ chains, each once at a smaller width (9–12 qubits) and
/// once at a larger one (13–16 qubits). Widths are fixed so that seeds vary
/// the circuits' content (angles, couplings, wire orders, input states),
/// not their size.
pub fn circuits(seed: u64) -> Vec<Circuit> {
    let mut shape = gen::shape_rng(2);
    let mut rng = gen::rng(seed, 2);
    vec![
        gen::qft(10, &mut rng),
        gen::qaoa_grid(3, 4, 2, &mut shape, &mut rng),
        gen::ghz(9, &mut shape, &mut rng),
        gen::heisenberg_xyz(1, 11, 2, &mut rng),
        gen::qft(16, &mut rng),
        gen::qaoa_grid(3, 5, 2, &mut shape, &mut rng),
        gen::ghz(14, &mut shape, &mut rng),
        gen::heisenberg_xyz(1, 13, 2, &mut rng),
    ]
}

/// Circuits of each batch: every circuit once per service, smaller and
/// larger instances of different families mixed.
const GROUPS: [(Gate, &[usize]); 7] = [
    (Gate::Cz, &[0, 6]),
    (Gate::Cz, &[1, 7]),
    (Gate::Cz, &[2, 4]),
    (Gate::Cz, &[3, 5]),
    (Gate::Ashn, &[0, 5, 7]),
    (Gate::Ashn, &[1, 4]),
    (Gate::Ashn, &[2, 3, 6]),
];

/// The batches of `service_algos` ([`GROUPS`]), every circuit at
/// `OptLevel::None` and `OptLevel::Light`, noise-scheduled at the paper's
/// point. Seven kinds of batch, each sent once per pass: with an odd count,
/// neither the median nor the 90th percentile of the latencies falls on a
/// boundary between two kinds, where it would jump with small shifts.
/// `OptLevel::Standard` is left out: with AshN it currently fails every
/// request (see `BENCHMARK.json`).
pub fn batches(circuits: &[Circuit]) -> Vec<Batch> {
    GROUPS
        .iter()
        .map(|&(gate, group)| {
            let mut requests = Vec::new();
            let mut sources = Vec::new();
            for &c in group {
                for opt in [OptLevel::None, OptLevel::Light] {
                    requests.push(
                        CompileRequest::new(circuits[c].clone())
                            .opt(opt)
                            .noise(noise()),
                    );
                    sources.push(c);
                }
            }
            Batch {
                gate,
                requests,
                sources,
            }
        })
        .collect()
}

/// The workload state.
pub struct ServiceAlgos {
    references: Vec<Vec<f64>>,
    heavy: Vec<Vec<usize>>,
    batches: Vec<Batch>,
    plain: Plain,
    timed: Option<Timed>,
    workers: usize,
    path: PathBuf,
    /// Set-up figures of the boot the run uses.
    pub setup: Setup,
}

/// Where a workload keeps its persisted cache.
pub fn cache_path(cfg: &Config, workload: &str) -> PathBuf {
    cfg.state_dir.join(format!("{workload}.cache"))
}

impl ServiceAlgos {
    /// Inputs, references, the persisted cache, and the timed set-up.
    ///
    /// # Errors
    ///
    /// When the warm cache cannot be prepared.
    pub fn new(cfg: &Config) -> Result<Self, String> {
        let circuits = circuits(cfg.seed);
        let references: Vec<Vec<f64>> = circuits.iter().map(check::ideal_distribution).collect();
        let heavy = references.iter().map(|r| heavy_set(r)).collect();
        let batches = batches(&circuits);
        let path = cache_path(cfg, "service_algos");
        let all: Vec<(Gate, &[CompileRequest])> = batches
            .iter()
            .map(|b| (b.gate, b.requests.as_slice()))
            .collect();
        persist_warm_cache(&path, cfg.workers, &all)?;
        let (setup, plain, timed) = timed_boot(&path, cfg);
        Ok(Self {
            references,
            heavy,
            batches,
            plain,
            timed,
            workers: cfg.workers,
            path,
            setup,
        })
    }

    fn outs(&self, b: usize, compiled: Vec<(Circuit, Vec<usize>)>) -> Vec<Out> {
        let batch = &self.batches[b];
        compiled
            .into_iter()
            .zip(&batch.sources)
            .map(|((circuit, positions), &reference)| Out {
                circuit,
                positions,
                extra: Vec::new(),
                reference,
                gate: batch.gate.name(),
            })
            .collect()
    }
}

impl Workload for ServiceAlgos {
    fn inputs(&self) -> usize {
        self.batches.len()
    }

    fn reference(&self, r: usize) -> &[f64] {
        &self.references[r]
    }

    fn setup_once(&self) -> Setup {
        boot(&self.path, self.workers).setup
    }

    fn untraced(&self, b: usize) -> Result<(f64, Vec<Out>), String> {
        let batch = &self.batches[b];
        let start = Instant::now();
        let result = batch.gate.compile(&self.plain, &batch.requests);
        let ms = ms_since(start);
        let compiled = result
            .results
            .into_iter()
            .map(accept)
            .collect::<Result<Vec<_>, _>>()?;
        Ok((ms, self.outs(b, compiled)))
    }

    fn traced(&self, b: usize, tally: &mut Tally) -> Result<(f64, Vec<Out>), String> {
        let (timed, counters) = self.timed.as_ref().ok_or("traced services not built")?;
        let batch = &self.batches[b];
        let start = Instant::now();
        let compiled = batch
            .gate
            .compose(timed, &batch.requests, self.workers, tally)?;
        let ms = ms_since(start);
        for c in counters {
            tally.add_synth(c.take());
        }
        Ok((ms, self.outs(b, compiled)))
    }

    /// Trajectory estimate of the HOP for registers of at most
    /// [`HOP_MAX_SITES`] sites, from the rates the service stamped, with a
    /// fixed seed per input circuit.
    fn warm_hop(&self, out: &Out) -> Option<f64> {
        if out.circuit.n_qubits() > HOP_MAX_SITES {
            return None;
        }
        let plan = ExecPlan::build(&out.circuit, &NoiseModel::NOISELESS).ok()?;
        Some(check::trajectory_hop(
            &plan,
            &self.heavy[out.reference],
            &out.positions,
            HOP_TRAJECTORIES,
            0x5eed_0000 + out.reference as u64,
            self.workers,
        ))
    }
}
