//! The batched compile server.
//!
//! [`CompileService`] turns the per-call synthesis pipeline into a
//! multi-tenant batch engine built around one observation from the paper:
//! every `SU(4)` target collapses to a Weyl class that is compiled once
//! and re-dressed forever. A batch is therefore processed as
//!
//! 1. **Canonicalize** every target to its quantized Weyl class
//!    ([`ClassKey`]) — fanned over the worker pool;
//! 2. **Deduplicate** identical classes across the *whole batch* before
//!    any EA/pulse search runs — one thousand requests with two hundred
//!    distinct classes cost two hundred cold syntheses at most;
//! 3. **Solve** the classes missing from the shared [`ShardedCache`] on a
//!    deterministic worker pool ([`ashn_core::par::parallel_map`]: indexed
//!    jobs, results in index order — batch output is bit-identical at any
//!    worker count);
//! 4. **Serve** every request from the solved-class table: exact repeats
//!    verbatim, same-class targets re-dressed with KAK-computed locals
//!    ([`ashn_synth::cache::serve_from_entry`]).
//!
//! Classes the closed-form retargeting rules cover skip phases 3–4's cache
//! and search: each of their targets is served by
//! [`RuleSet::serve`](ashn_synth::retarget::RuleSet::serve), the same pure
//! function `CachedBasis` calls, and nothing is stored for them.
//!
//! Worker-count invariance holds because each phase is a pure
//! index-ordered map over frozen inputs: requests never read the shared
//! cache during the parallel phases — they read the per-batch solution
//! table, which is sealed before fan-out (cache evictions between batches
//! can change *speed*, never *bits*).
//!
//! [`CompileService::compile_batch`] extends the same machinery to whole
//! circuits: it validates each request, primes and serves the valid
//! requests' gates through the same four phases, and assembles each
//! request from its served gates — routing on a grid
//! ([`LookaheadRouter`]), optional optimizer passes, and noise
//! scheduling — the full
//! synthesize → route → opt → schedule pipeline behind a
//! [`CompileRequest`]/[`CompileResult`] API.
//!
//! Failures are handled per target by two settings and one fixed tier.
//! Cold synthesis gets up to [`CompileService::max_attempts`] attempts
//! with panics contained; every served circuit is verified at
//! [`CompileService::verify_tol`], and a failing serve quarantines the
//! cache entry it came from (a rule serve came from none) and
//! resynthesizes privately; whatever still fails degrades to an exact CNOT
//! decomposition, which is never cached.

use crate::error::ServiceError;
use crate::sharded::ShardedCache;
use ashn_core::par::{describe_panic, parallel_map_isolated, resolve_workers, TaskPanic};
use ashn_gates::kak::weyl_coordinates4;
use ashn_gates::weyl::WeylPoint;
use ashn_ir::{Basis, Circuit, SynthEffort, SynthError};
use ashn_math::{CMat, Mat4};
use ashn_opt::{OptLevel, OptStats};
use ashn_qv::{stamp_noise, QvNoise};
use ashn_route::{Grid, LookaheadRouter, RouteOp};
use ashn_synth::cache::{
    memo_native_swap, serve_from_entry, ClassEntry, ClassKey, ClassStore, Lookup,
};
use ashn_synth::circuit2::TwoQubitCircuit;
use ashn_synth::cnot_basis::try_decompose_cnot;
use ashn_synth::retarget::{standard_rules, RuleSet};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// One circuit to compile, with its pipeline options.
#[derive(Clone, Debug)]
pub struct CompileRequest {
    /// The logical circuit (1q/2q instructions on arbitrary wires).
    pub circuit: Circuit,
    /// Routing grid (default: the smallest near-square grid holding the
    /// circuit's register).
    pub grid: Option<Grid>,
    /// Optimizer effort between routing and scheduling.
    pub opt: OptLevel,
    /// When set, the result circuit carries per-gate depolarizing rates
    /// scheduled from this noise model (single-qubit fixed, two-qubit ∝
    /// duration).
    pub noise: Option<QvNoise>,
}

impl CompileRequest {
    /// A request with default options (auto grid, no opt, no scheduling).
    pub fn new(circuit: Circuit) -> Self {
        Self {
            circuit,
            grid: None,
            opt: OptLevel::None,
            noise: None,
        }
    }

    /// Sets an explicit routing grid.
    #[must_use]
    pub fn grid(mut self, grid: Grid) -> Self {
        self.grid = Some(grid);
        self
    }

    /// Sets the optimizer effort.
    #[must_use]
    pub fn opt(mut self, opt: OptLevel) -> Self {
        self.opt = opt;
        self
    }

    /// Schedules per-gate error rates from `noise`.
    #[must_use]
    pub fn noise(mut self, noise: QvNoise) -> Self {
        self.noise = Some(noise);
        self
    }
}

/// A compiled request: the physical-site circuit and where the logical
/// qubits ended up.
#[derive(Clone, Debug)]
pub struct CompileResult {
    /// The physical-site circuit (noise-scheduled when the request asked).
    pub circuit: Circuit,
    /// `positions[l]` = physical site holding logical qubit `l` at the end.
    pub positions: Vec<usize>,
    /// Optimizer accounting, when the request ran passes.
    pub opt_stats: Option<OptStats>,
    /// Whether any two-qubit gate in this circuit was served by the exact
    /// CNOT degradation tier instead of the requested basis.
    pub degraded: bool,
}

/// How one synthesis target was served (the cache-tier breakdown in
/// [`ServiceStats`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tier {
    /// Served verbatim from a stored entry (exact target repeat).
    Exact,
    /// Served by re-dressing a same-class entry.
    Redressed,
    /// Served by the closed-form retargeting rule tier — no memo-cache
    /// entry and no EA/pulse search were consulted.
    Rule,
    /// This target's class was synthesized cold (it was the class
    /// representative, or its stored entry had drifted).
    Cold,
    /// Served by the exact CNOT degradation tier after the requested basis
    /// failed or panicked.
    Degraded,
    /// Cold synthesis of the class failed.
    Failed,
}

/// Per-batch accounting: dedup effectiveness, cache-hit tiers, wall time.
/// The registry's `service.*` counters are published from it, once a batch.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ServiceStats {
    /// Requests in the batch.
    pub requests: usize,
    /// Two-qubit synthesis targets across the batch (== `requests` for
    /// [`CompileService::synthesize_batch`]; the 2q instruction count of
    /// the requests that passed validation for
    /// [`CompileService::compile_batch`]).
    pub targets: usize,
    /// Distinct Weyl classes among the valid targets.
    pub unique_classes: usize,
    /// Unique classes already present in the shared cache.
    pub warm_classes: usize,
    /// Unique classes covered by a closed-form retargeting rule (served
    /// without consulting the numeric cache or running a synthesis).
    pub rule_classes: usize,
    /// Unique classes synthesized cold by this batch.
    pub cold_classes: usize,
    /// Targets served verbatim (exact repeat of a stored target).
    pub exact_hits: u64,
    /// Targets served by re-dressing a same-class entry.
    pub class_hits: u64,
    /// Targets served by the closed-form retargeting rule tier (never a
    /// cold synthesis, never a numeric cache miss).
    pub rule_hits: u64,
    /// Targets that paid a cold synthesis (class representatives).
    pub cold_serves: u64,
    /// Targets whose class failed to synthesize.
    pub failed: u64,
    /// Targets served by the exact CNOT degradation tier after the
    /// requested basis failed or panicked.
    pub degraded: u64,
    /// Served circuits that failed post-serve verification: the cache
    /// entry the serve read (none for a rule serve) was evicted and the
    /// target resynthesized (counted per serve).
    pub quarantined: u64,
    /// Extra synthesis attempts consumed by retries
    /// ([`CompileService::max_attempts`]), exhausted ones included.
    pub retries: u64,
    /// Worker panics contained by the batch engine (isolated to their item
    /// and repaired or degraded — never propagated).
    pub worker_panics: u64,
    /// Wall-clock time for the whole batch, milliseconds.
    pub wall_ms: f64,
    /// Worker threads the batch fanned over.
    pub workers: usize,
}

impl ServiceStats {
    /// Targets per unique class — how much work batch dedup saved
    /// (1.0 = nothing shared, N = every class amortized N ways).
    pub fn dedup_ratio(&self) -> f64 {
        if self.unique_classes == 0 {
            1.0
        } else {
            self.targets as f64 / self.unique_classes as f64
        }
    }

    /// Fraction of targets served without a cold synthesis.
    pub fn hit_rate(&self) -> f64 {
        if self.targets == 0 {
            0.0
        } else {
            (self.exact_hits + self.class_hits + self.rule_hits) as f64 / self.targets as f64
        }
    }

    /// Batch throughput in compiled requests per second.
    pub fn requests_per_sec(&self) -> f64 {
        if self.wall_ms <= 0.0 {
            0.0
        } else {
            self.requests as f64 / (self.wall_ms / 1e3)
        }
    }

    /// The one fold behind a batch's accounting: class counts and the
    /// prime phase's resilience from the sealed table, tier and quarantine
    /// counts from the serves. The caller stamps `requests`, `workers`,
    /// the wall time and the serve phase's contained panics.
    fn fold(prepared: &Prepared, served: &[Served]) -> Self {
        let mut stats = ServiceStats {
            targets: served.len(),
            unique_classes: prepared.unique.len(),
            retries: prepared.retries,
            worker_panics: prepared.panics,
            ..ServiceStats::default()
        };
        for class in &prepared.unique {
            match class.solution {
                Solution::Warm(_) => stats.warm_classes += 1,
                Solution::Rule => stats.rule_classes += 1,
                Solution::Cold(_) | Solution::Failed(_) => stats.cold_classes += 1,
            }
        }
        for s in served {
            *match s.tier {
                Tier::Exact => &mut stats.exact_hits,
                Tier::Redressed => &mut stats.class_hits,
                Tier::Rule => &mut stats.rule_hits,
                Tier::Cold => &mut stats.cold_serves,
                Tier::Degraded => &mut stats.degraded,
                Tier::Failed => &mut stats.failed,
            } += 1;
            stats.quarantined += u64::from(s.quarantined);
            stats.retries += s.retries;
        }
        stats
    }

    /// Adds this batch to the thread's telemetry registry under the
    /// `service.*` names (one add per nonzero counter). The registry has
    /// no other source for them, so it always equals the summed stats.
    fn publish(&self) {
        let telemetry = ashn_telemetry::current();
        for (name, value) in [
            ("service.batches", 1),
            ("service.requests", self.requests as u64),
            ("service.targets", self.targets as u64),
            ("service.serve.exact", self.exact_hits),
            ("service.serve.redressed", self.class_hits),
            ("service.serve.rule", self.rule_hits),
            ("service.serve.cold", self.cold_serves),
            ("service.serve.degraded", self.degraded),
            ("service.serve.failed", self.failed),
            ("service.quarantined", self.quarantined),
            ("service.retries", self.retries),
            ("service.worker_panics", self.worker_panics),
        ] {
            if value > 0 {
                telemetry.add(name, value);
            }
        }
    }
}

/// Result of [`CompileService::synthesize_batch`]: per-target circuits in
/// request order plus batch accounting.
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// One circuit (or error) per input target, in input order.
    pub circuits: Vec<Result<Circuit, ServiceError>>,
    /// `degraded[i]` — whether `circuits[i]` came from the exact CNOT
    /// degradation tier instead of the requested basis.
    pub degraded: Vec<bool>,
    /// Batch accounting.
    pub stats: ServiceStats,
}

/// Result of [`CompileService::compile_batch`]: per-request compilations
/// in request order plus batch accounting.
#[derive(Clone, Debug)]
pub struct BatchCompileResult {
    /// One compilation (or error) per request, in request order.
    pub results: Vec<Result<CompileResult, ServiceError>>,
    /// Batch accounting.
    pub stats: ServiceStats,
}

/// One unique Weyl class in a batch and how it got its solution.
struct UniqueClass {
    /// The cache key a numeric solution lives under.
    key: ClassKey,
    /// Index of the representative target (first occurrence).
    rep: usize,
    solution: Solution,
}

enum Solution {
    /// Found in the shared cache before the batch ran.
    Warm(ClassEntry),
    /// Covered by a closed-form retargeting rule: each target is served
    /// by [`RuleSet::serve`], no numeric search runs and nothing is stored.
    Rule,
    /// Synthesized cold by this batch.
    Cold(ClassEntry),
    Failed(String),
}

/// The sealed per-batch class table the serve phase reads.
struct Prepared {
    /// Per target: `(unique-class index, coords)` or the validation error.
    status: Vec<Result<(usize, WeylPoint), ServiceError>>,
    unique: Vec<UniqueClass>,
    /// Extra synthesis attempts the cold phase consumed via retries,
    /// failed classes included.
    retries: u64,
    /// Worker panics the prime phases contained.
    panics: u64,
}

/// One served target: the tier, its resilience accounting, and the circuit.
struct Served {
    tier: Tier,
    /// Whether the serve failed verification and quarantined its entry.
    quarantined: bool,
    /// Extra attempts the resynthesis after a quarantine consumed.
    retries: u64,
    result: Result<Circuit, ServiceError>,
}

impl Served {
    /// A serve that needed no quarantine.
    fn new(tier: Tier, result: Result<Circuit, ServiceError>) -> Self {
        Self {
            tier,
            quarantined: false,
            retries: 0,
            result,
        }
    }
}

/// The batched compile server: a shared [`ShardedCache`], a basis, and a
/// worker count.
#[derive(Clone, Debug)]
pub struct CompileService<B> {
    basis: B,
    cache: ShardedCache,
    workers: usize,
    max_attempts: u32,
    verify_tol: f64,
    rules: Option<Arc<RuleSet>>,
}

impl<B: Basis + Sync> CompileService<B> {
    /// A service over `basis` with a fresh default [`ShardedCache`] and
    /// one worker.
    pub fn new(basis: B) -> Self {
        Self::with_cache(basis, ShardedCache::new())
    }

    /// A service sharing an existing cache (several services — or
    /// `ashn::Compiler`s via `with_shared_cache` — can point at one).
    ///
    /// The closed-form retargeting rule tier is armed with the standard
    /// table by default; override or disable it with [`Self::rules`].
    pub fn with_cache(basis: B, cache: ShardedCache) -> Self {
        Self {
            basis,
            cache,
            workers: 1,
            max_attempts: 1,
            verify_tol: 1e-9,
            rules: Some(standard_rules()),
        }
    }

    /// Overrides the retargeting rule table consulted ahead of the numeric
    /// cache and EA path (`None` disables the rule tier entirely).
    #[must_use]
    pub fn rules(mut self, rules: Option<Arc<RuleSet>>) -> Self {
        self.rules = rules;
        self
    }

    /// Gives every cold synthesis, and every resynthesis after a
    /// quarantine, up to `max_attempts` attempts (default 1; `0` counts as
    /// 1). Attempt `k` asks the basis for [`SynthEffort::attempt`]` = k`.
    /// No in-tree basis widens its search on that hint, so a retry re-runs
    /// the same deterministic synthesis: it rescues transient faults and
    /// contained panics, not a target the basis cannot serve.
    #[must_use]
    pub fn max_attempts(mut self, max_attempts: u32) -> Self {
        self.max_attempts = max_attempts.max(1);
        self
    }

    /// Verifies every served circuit against its target at this Frobenius
    /// tolerance (default `1e-9`; every in-tree basis serves the chamber at
    /// `~1e-12`). A failing serve evicts the cache entry it came from (a
    /// rule serve came from none), counts a quarantine, and resynthesizes
    /// the target.
    ///
    /// # Panics
    ///
    /// Panics unless `verify_tol >= 0.0`: a NaN tolerance would pass every
    /// serve unverified, a negative one would quarantine every serve.
    #[must_use]
    pub fn verify_tol(mut self, verify_tol: f64) -> Self {
        assert!(
            verify_tol >= 0.0,
            "verify_tol must be a non-negative number, got {verify_tol}"
        );
        self.verify_tol = verify_tol;
        self
    }

    /// Fans batches over `workers` threads of the worker pool (`0` = the
    /// pool's [`default_workers`](ashn_core::par::default_workers)). Batch
    /// output is bit-identical for every worker count.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// The shared cache handle (for stats, persistence, sharing).
    pub fn cache(&self) -> &ShardedCache {
        &self.cache
    }

    /// The service's basis.
    pub fn basis(&self) -> &B {
        &self.basis
    }

    /// Canonicalizes, deduplicates, and solves every class in `targets`,
    /// sealing the per-batch solution table. Cold solutions are installed
    /// into the shared cache (in deterministic first-occurrence order).
    fn prime(&self, targets: &[&CMat]) -> Prepared {
        // All phase telemetry lands in the thread's current registry; the
        // journal events below are emitted only from this coordinator
        // thread, with count-valued fields, so a zero-fault run's journal
        // is identical at any worker count.
        let telemetry = ashn_telemetry::current();
        let _prime_span = telemetry.span("service.prime");
        let mut panics = 0u64;
        // Phase 1: canonicalize (parallel; pure per index; panic-isolated —
        // one poisoned target never kills the batch).
        let canonicalize_span = telemetry.span("service.canonicalize");
        let keyed: Vec<Result<(ClassKey, WeylPoint), ServiceError>> =
            parallel_map_isolated(self.workers, targets.len(), |i| {
                let m4 = Mat4::try_from(targets[i]).map_err(|_| ServiceError::InvalidRequest {
                    detail: format!(
                        "target {i} is {}x{}, expected 4x4",
                        targets[i].rows(),
                        targets[i].cols()
                    ),
                })?;
                if !m4.is_unitary(1e-6) {
                    return Err(ServiceError::InvalidRequest {
                        detail: format!("target {i} is not unitary within 1e-6"),
                    });
                }
                let coords = weyl_coordinates4(&m4).canonicalize();
                Ok((ClassKey::new(&self.basis, coords, false), coords))
            })
            .into_iter()
            .map(|r| match r {
                Ok(keyed) => keyed,
                Err(TaskPanic { detail, .. }) => {
                    panics += 1;
                    Err(ServiceError::WorkerPanic { detail })
                }
            })
            .collect();
        drop(canonicalize_span);
        telemetry.event(
            "service.canonicalize",
            &[("targets", (targets.len() as u64).into())],
        );

        // Phase 2: dedup in first-occurrence order (serial, deterministic).
        let dedup_span = telemetry.span("service.dedup");
        let mut index: HashMap<ClassKey, usize> = HashMap::new();
        let mut unique: Vec<UniqueClass> = Vec::new();
        let mut status: Vec<Result<(usize, WeylPoint), ServiceError>> =
            Vec::with_capacity(targets.len());
        for (i, prep) in keyed.into_iter().enumerate() {
            match prep {
                Err(e) => status.push(Err(e)),
                Ok((key, coords)) => {
                    let uidx = *index.entry(key.clone()).or_insert_with(|| {
                        unique.push(UniqueClass {
                            key,
                            rep: i,
                            solution: Solution::Failed("unsolved".into()),
                        });
                        unique.len() - 1
                    });
                    status.push(Ok((uidx, coords)));
                }
            }
        }

        drop(dedup_span);
        telemetry.event(
            "service.dedup",
            &[
                ("targets", (targets.len() as u64).into()),
                ("unique", (unique.len() as u64).into()),
            ],
        );

        // Phase 3a: rule-tier coverage (serial). Rules come FIRST: a class
        // covered by a closed-form retargeting rule never touches the
        // memo-cache or the EA path, and nothing is stored for it.
        let basis_name = self.basis.name();
        let basis_params = self.basis.cache_params();
        let rule_span = telemetry.span("service.rule_tier");
        let mut ruled_count = 0u64;
        for class in unique.iter_mut() {
            let ruled = match (&self.rules, &status[class.rep]) {
                (Some(rules), Ok((_, coords))) => rules
                    .class_rule(&basis_name, &basis_params, *coords)
                    .is_some(),
                _ => false,
            };
            if ruled {
                class.solution = Solution::Rule;
                ruled_count += 1;
            }
        }
        drop(rule_span);
        telemetry.event("service.rule_tier", &[("ruled", ruled_count.into())]);

        // Phase 3b: shared-cache lookups for everything the rules did not
        // cover (serial, ascending class index — the cold list order the
        // deterministic install below depends on).
        let fetch_span = telemetry.span("service.cache_fetch");
        let mut cold: Vec<usize> = Vec::new();
        for (uidx, class) in unique.iter_mut().enumerate() {
            if matches!(class.solution, Solution::Rule) {
                continue;
            }
            match self.cache.fetch(&class.key) {
                Some(entry) => class.solution = Solution::Warm(entry),
                None => cold.push(uidx),
            }
        }
        drop(fetch_span);
        telemetry.event(
            "service.cache_fetch",
            &[
                (
                    "warm",
                    ((unique.len() - ruled_count as usize - cold.len()) as u64).into(),
                ),
                ("cold", (cold.len() as u64).into()),
            ],
        );

        // Phase 4: cold synthesis of the representatives over the worker
        // pool, panic-isolated and retried up to `max_attempts`. A failure
        // stays a failure here: a degraded CNOT circuit must never be
        // cached (or served to other targets) under the requested basis's
        // class key — degradation happens per target at serve time. Each
        // job is a pure function of its target and the (fixed) settings, so
        // results are bit-identical at any worker count.
        let cold_span = telemetry.span("service.cold_synth");
        // A cold job resolves to its attempts and the entry or a rendered
        // failure; the outer layer is the task-boundary panic isolation.
        type ColdOutcome = (u32, Result<ClassEntry, String>);
        let solved: Vec<Result<ColdOutcome, TaskPanic>> =
            parallel_map_isolated(self.workers, cold.len(), |j| {
                let rep = unique[cold[j]].rep;
                let (synthesized, attempts) = self.synthesize_cold(targets[rep]);
                let entry = synthesized.map_err(|e| e.to_string()).and_then(|circuit| {
                    let core = TwoQubitCircuit::try_from(circuit)
                        .map_err(|e| format!("synthesis output not a two-qubit circuit: {e}"))?;
                    Ok(ClassEntry {
                        target: targets[rep].clone(),
                        circuit: core,
                    })
                });
                (attempts, entry)
            });

        // Install in deterministic order; share with future batches.
        let mut retries = 0u64;
        for (j, result) in solved.into_iter().enumerate() {
            let uidx = cold[j];
            match result {
                Ok((attempts, entry)) => {
                    retries += u64::from(attempts - 1);
                    unique[uidx].solution = match entry {
                        Ok(entry) => {
                            self.cache.store(unique[uidx].key.clone(), entry.clone());
                            Solution::Cold(entry)
                        }
                        Err(detail) => Solution::Failed(detail),
                    };
                }
                Err(TaskPanic { detail, .. }) => {
                    panics += 1;
                    unique[uidx].solution =
                        Solution::Failed(format!("synthesis worker panicked: {detail}"));
                }
            }
        }
        drop(cold_span);
        telemetry.event(
            "service.cold_synth",
            &[
                ("cold", (cold.len() as u64).into()),
                ("retries", retries.into()),
                ("panics", panics.into()),
            ],
        );

        Prepared {
            status,
            unique,
            retries,
            panics,
        }
    }

    /// Serves one target from the sealed class table, applying the
    /// verification tier and (when everything else fails) the CNOT
    /// degradation tier. Pure in its inputs except for cache eviction of
    /// quarantined entries — which later serves never read (they read the
    /// sealed table), so batch output stays worker-count invariant.
    fn serve_target(&self, target: &CMat, index: usize, prepared: &Prepared) -> Served {
        let (uidx, coords) = match &prepared.status[index] {
            // A worker panic during canonicalization is transient — the
            // degradation tier can still serve the target. A validation
            // error is not (the fallback would reject the same target).
            Err(e) => return self.degrade(target, e.clone()),
            Ok(ok) => *ok,
        };
        let class = &prepared.unique[uidx];
        // The cache entry this serve reads: none for a rule serve.
        let key = (!matches!(class.solution, Solution::Rule)).then_some(&class.key);
        let (tier, circuit) = match &class.solution {
            // The same pure function `CachedBasis` serves rules with.
            Solution::Rule => match self
                .rules
                .as_ref()
                .and_then(|rules| rules.serve(&self.basis, target, coords))
            {
                Some(circuit) => (Tier::Rule, circuit),
                None => return self.quarantine(target, None, "rule core drifted from its class"),
            },
            // The representative IS the cold synthesis.
            Solution::Cold(entry) if class.rep == index => {
                (Tier::Cold, entry.circuit.clone().into())
            }
            Solution::Warm(entry) | Solution::Cold(entry) => {
                match serve_from_entry(target, coords, entry) {
                    Some((circuit, Lookup::ExactHit)) => (Tier::Exact, circuit),
                    Some((circuit, _)) => (Tier::Redressed, circuit),
                    // Drifted realization (possible only for entries loaded
                    // from a foreign scheme version): quarantine and pay a
                    // private cold synthesis.
                    None => {
                        return self.quarantine(
                            target,
                            key,
                            "stored circuit drifted from its class",
                        )
                    }
                }
            }
            Solution::Failed(detail) => {
                return self.degrade(
                    target,
                    ServiceError::Synth {
                        detail: detail.clone(),
                    },
                )
            }
        };
        // Verification tier: every served circuit — cache hit or fresh —
        // must realize its target at tolerance; a failure quarantines the
        // cache entry and resynthesizes.
        let poisoned = ashn_math::failpoint!("service::cache::serve");
        let err = if poisoned {
            f64::INFINITY
        } else {
            circuit.error(target)
        };
        // NaN-safe: a corrupted entry can make the error NaN, which must
        // quarantine, not pass a `>` comparison.
        let tol = self.verify_tol;
        if err.is_nan() || err > tol {
            return self.quarantine(
                target,
                key,
                &format!("served circuit verification error {err:.2e} exceeds {tol:.2e}"),
            );
        }
        Served::new(tier, Ok(circuit))
    }

    /// Evicts the bad cache entry the serve read, if any, and resynthesizes
    /// the target privately (verified, retried, never written back),
    /// degrading on failure.
    fn quarantine(&self, target: &CMat, key: Option<&ClassKey>, reason: &str) -> Served {
        if let Some(key) = key {
            self.cache.evict(key);
        }
        let (synthesized, attempts) = self.synthesize_cold(target);
        let served = match synthesized {
            Ok(circuit) => {
                let err = circuit.error(target);
                let tol = self.verify_tol;
                if err.is_nan() || err > tol {
                    self.degrade(
                        target,
                        ServiceError::Synth {
                            detail: format!(
                                "resynthesis after quarantine ({reason}) still fails \
                                 verification: error {err:.2e} exceeds {tol:.2e}"
                            ),
                        },
                    )
                } else {
                    Served::new(Tier::Cold, Ok(circuit))
                }
            }
            Err(e) => self.degrade(target, e.into()),
        };
        Served {
            quarantined: true,
            retries: u64::from(attempts - 1),
            ..served
        }
    }

    /// Synthesizes `u` on the service's basis with up to `max_attempts`
    /// attempts, returning the outcome and the attempts it took (a failure
    /// included, so exhausted retries are counted too).
    ///
    /// Attempt `k` runs with [`SynthEffort::attempt`]` = k`; a basis may
    /// read nothing else from the retry, so a retry schedule replays
    /// exactly. A panic inside the basis is caught and retried as a
    /// [`SynthError::WorkerPanic`]. An invalid target fails at once, since
    /// retrying cannot fix it; otherwise the last attempt's error surfaces.
    /// Degradation is not done here: it happens per target at serve time,
    /// so a CNOT circuit is never cached under this basis's key.
    fn synthesize_cold(&self, u: &CMat) -> (Result<Circuit, SynthError>, u32) {
        let mut attempt = 0;
        loop {
            let effort = SynthEffort { attempt };
            let err = match catch_unwind(AssertUnwindSafe(|| {
                self.basis.synthesize_with_effort(u, effort)
            })) {
                Ok(Ok(circuit)) => return (Ok(circuit), attempt + 1),
                Ok(Err(e @ SynthError::InvalidTarget { .. })) => return (Err(e), attempt + 1),
                Ok(Err(e)) => e,
                Err(payload) => {
                    ashn_telemetry::current().add("synth.resilience.panics_caught", 1);
                    SynthError::WorkerPanic {
                        detail: describe_panic(payload.as_ref()),
                    }
                }
            };
            attempt += 1;
            if attempt >= self.max_attempts {
                return (Err(err), attempt);
            }
        }
    }

    /// The last tier: an exact CNOT-basis decomposition, verified at
    /// `1e-9` inside [`try_decompose_cnot`]. Surfaces `err` when the target
    /// is itself invalid.
    fn degrade(&self, target: &CMat, err: ServiceError) -> Served {
        match try_decompose_cnot(target) {
            Ok(circuit) => Served::new(Tier::Degraded, Ok(circuit.into())),
            Err(_) => Served::new(Tier::Failed, Err(err)),
        }
    }

    /// Compiles a batch of raw `SU(4)` targets into native circuits.
    ///
    /// Identical Weyl classes across the whole batch are deduplicated
    /// before any numerical search runs; unique cold classes fan over the
    /// worker pool; every target is then served from the sealed class
    /// table (exact repeats verbatim, same-class targets re-dressed).
    /// Output is bit-identical for any worker count.
    pub fn synthesize_batch(&self, targets: &[CMat]) -> BatchResult {
        let _batch_span = ashn_telemetry::current().span("service.batch");
        let t0 = Instant::now();
        let refs: Vec<&CMat> = targets.iter().collect();
        let prepared = self.prime(&refs);
        let slices: Vec<(usize, usize)> = (0..targets.len()).map(|i| (i, i + 1)).collect();
        let (stats, served, _) = self.serve_batch(t0, &refs, &prepared, &slices, |_, _| Ok(()));
        let (degraded, circuits) = served
            .into_iter()
            .map(|s| (s.tier == Tier::Degraded, s.result))
            .unzip();
        BatchResult {
            circuits,
            degraded,
            stats,
        }
    }

    /// The one serve path behind both front ends. Fans one job per slice
    /// of `targets` over the worker pool: the job serves its targets from
    /// the sealed class table and hands the serves to `finish` — nothing to
    /// do for [`Self::synthesize_batch`] (one target per slice), request
    /// assembly for [`Self::compile_batch`] (one request per slice, so a
    /// request's serves run on the worker that assembles them). The sealed
    /// table and every serve are then folded into the [`ServiceStats`] of a
    /// batch of one request per slice started at `t0`, published to the
    /// telemetry registry. Returns the stats, every serve in target order,
    /// and each slice's `finish` result.
    ///
    /// A panicking job is retried serially, outside the pool (where the
    /// worker-boundary failpoint cannot re-fire): each target gets
    /// [`Self::repair_serve`]'s second chance, and a second `finish` panic
    /// fails only that slice — the batch never dies.
    fn serve_batch<T: Send>(
        &self,
        t0: Instant,
        targets: &[&CMat],
        prepared: &Prepared,
        slices: &[(usize, usize)],
        finish: impl Fn(usize, &[Served]) -> Result<T, ServiceError> + Sync,
    ) -> (ServiceStats, Vec<Served>, Vec<Result<T, ServiceError>>) {
        let telemetry = ashn_telemetry::current();
        let mut job_panics = 0u64;
        let serve_span = telemetry.span("service.serve");
        let isolated = parallel_map_isolated(self.workers, slices.len(), |j| {
            let (start, end) = slices[j];
            let served: Vec<Served> = (start..end)
                .map(|i| self.serve_target(targets[i], i, prepared))
                .collect();
            let finished = finish(j, &served);
            (served, finished)
        });
        let mut served = Vec::with_capacity(targets.len());
        let mut finished = Vec::with_capacity(slices.len());
        for (j, job) in isolated.into_iter().enumerate() {
            let (slice, done) = job.unwrap_or_else(|TaskPanic { .. }| {
                job_panics += 1;
                let (start, end) = slices[j];
                let slice: Vec<Served> = (start..end)
                    .map(|i| self.repair_serve(targets[i], i, prepared))
                    .collect();
                let done = catch_unwind(AssertUnwindSafe(|| finish(j, &slice))).unwrap_or_else(
                    |payload| {
                        Err(ServiceError::WorkerPanic {
                            detail: describe_panic(payload.as_ref()),
                        })
                    },
                );
                (slice, done)
            });
            served.extend(slice);
            finished.push(done);
        }
        drop(serve_span);
        telemetry.event(
            "service.serve",
            &[("targets", (targets.len() as u64).into())],
        );
        let mut stats = ServiceStats {
            requests: slices.len(),
            workers: resolve_workers(self.workers),
            wall_ms: t0.elapsed().as_secs_f64() * 1e3,
            ..ServiceStats::fold(prepared, &served)
        };
        stats.worker_panics += job_panics;
        stats.publish();
        (stats, served, finished)
    }

    /// Serial second chance for a serve that panicked on the worker pool;
    /// a second panic drops the target to the degradation tier.
    fn repair_serve(&self, target: &CMat, index: usize, prepared: &Prepared) -> Served {
        match catch_unwind(AssertUnwindSafe(|| {
            self.serve_target(target, index, prepared)
        })) {
            Ok(served) => served,
            Err(payload) => {
                let detail = describe_panic(payload.as_ref());
                catch_unwind(AssertUnwindSafe(|| {
                    self.degrade(target, ServiceError::WorkerPanic { detail })
                }))
                .unwrap_or_else(|second| {
                    Served::new(
                        Tier::Failed,
                        Err(ServiceError::WorkerPanic {
                            detail: describe_panic(second.as_ref()),
                        }),
                    )
                })
            }
        }
    }

    /// Compiles a batch of circuits through the full pipeline:
    /// synthesize (batch-deduplicated) → route ([`LookaheadRouter`]) →
    /// optimize (per-request [`OptLevel`]) → schedule (per-request noise).
    ///
    /// Serve, then assemble. Each request is validated first (the grid
    /// holds the register; every instruction acts on 0–2 distinct in-range
    /// wires); a rejected request returns its error and contributes no
    /// targets. The two-qubit targets of every valid request are primed
    /// together and served on the same path as [`Self::synthesize_batch`],
    /// one pool job per request: the job serves the request's slice of
    /// targets, then assembles the request from those circuits. A request
    /// is `degraded` when any of its gates was served by the CNOT
    /// degradation tier. Output is bit-identical for any worker count.
    pub fn compile_batch(&self, requests: &[CompileRequest]) -> BatchCompileResult {
        let _batch_span = ashn_telemetry::current().span("service.batch");
        let t0 = Instant::now();
        let grids: Vec<Result<Grid, ServiceError>> = requests.iter().map(validate).collect();
        // Gather the valid requests' 2q targets (request-major order) plus
        // each request's slice into that list.
        let mut targets: Vec<&CMat> = Vec::new();
        let mut slices: Vec<(usize, usize)> = Vec::with_capacity(requests.len());
        for (req, grid) in requests.iter().zip(&grids) {
            let start = targets.len();
            if grid.is_ok() {
                targets.extend(
                    req.circuit
                        .instructions
                        .iter()
                        .filter(|inst| inst.qubits.len() == 2)
                        .map(|inst| &inst.matrix),
                );
            }
            slices.push((start, targets.len()));
        }
        let prepared = self.prime(&targets);
        // The SWAP memo `CachedBasis::native_swap` uses.
        let swap_fragment = memo_native_swap(&self.basis, &self.cache)
            .map(|(circuit, _)| circuit)
            .map_err(ServiceError::from);
        let (stats, _, results) =
            self.serve_batch(t0, &targets, &prepared, &slices, |r, served| {
                self.assemble(&requests[r], grids[r].clone()?, served, &swap_fragment)
            });
        BatchCompileResult { results, stats }
    }

    /// Routes, embeds, optimizes, and schedules one validated request from
    /// its served two-qubit circuits (`served[k]` realizes the request's
    /// `k`-th 2q instruction). Pure in its inputs — safe to fan over
    /// workers.
    fn assemble(
        &self,
        req: &CompileRequest,
        grid: Grid,
        served: &[Served],
        swap_fragment: &Result<Circuit, ServiceError>,
    ) -> Result<CompileResult, ServiceError> {
        let n = req.circuit.n_qubits();
        let sites = grid.len();
        let mut router = LookaheadRouter::new(grid, n);
        let mut physical = Circuit::new(sites);
        physical.phase = req.circuit.phase;
        let mut gates = served.iter().map(|s| &s.result);
        for inst in &req.circuit.instructions {
            match *inst.qubits.as_slice() {
                // Scalar instructions fold into the global phase.
                [] => physical.phase *= inst.matrix[(0, 0)],
                [q] => {
                    let mut moved = inst.clone();
                    moved.qubits = vec![router.position(q)];
                    physical.try_push(moved)?;
                }
                [a, b] => {
                    for op in router.route_layer(&[(a, b)]) {
                        let (piece, x, y) = match op {
                            RouteOp::Swap(x, y) => (swap_fragment, x, y),
                            RouteOp::Gate { a, b, .. } => {
                                (gates.next().expect("one serve per 2q gate"), a, b)
                            }
                        };
                        let piece = piece.as_ref().map_err(Clone::clone)?;
                        physical.append(piece.embed(sites, &[x, y])?)?;
                    }
                }
                _ => unreachable!("validated requests hold 0-2 qubit instructions"),
            }
        }

        let opt_stats = match req.opt.pipeline(&self.basis) {
            Some(pipeline) => {
                let (optimized, stats) = pipeline.run(&physical)?;
                physical = optimized;
                Some(stats)
            }
            None => None,
        };

        let circuit = match &req.noise {
            Some(noise) => stamp_noise(&physical, noise),
            None => physical,
        };
        Ok(CompileResult {
            circuit,
            positions: (0..n).map(|l| router.position(l)).collect(),
            opt_stats,
            degraded: served.iter().any(|s| s.tier == Tier::Degraded),
        })
    }
}

/// Checks a request before any of its gates are gathered: the grid must
/// hold the register, and every instruction must act on 0–2 distinct
/// in-range wires. Returns the routing grid.
fn validate(req: &CompileRequest) -> Result<Grid, ServiceError> {
    let n = req.circuit.n_qubits();
    let grid = req.grid.unwrap_or_else(|| Grid::for_qubits(n));
    if grid.len() < n {
        return Err(ServiceError::Config {
            detail: format!("grid has {} sites but the circuit needs {n}", grid.len()),
        });
    }
    for inst in &req.circuit.instructions {
        let detail = match *inst.qubits.as_slice() {
            [] => continue,
            [q] if q < n => continue,
            [a, b] if a != b && a < n && b < n => continue,
            [q] => format!("wire {q} outside the {n}-qubit register"),
            [a, b] => format!("bad wire pair ({a}, {b}) on {n} qubits"),
            _ => format!(
                "instruction {:?} acts on {} qubits; the pipeline compiles 1q/2q circuits",
                inst.label,
                inst.qubits.len()
            ),
        };
        return Err(ServiceError::InvalidRequest { detail });
    }
    Ok(grid)
}

/// The integration suites' fixtures, `fingerprint` among them.
#[cfg(test)]
#[path = "../tests/common/mod.rs"]
mod common;

#[cfg(test)]
mod tests {
    use super::common::fingerprint;
    use super::*;
    use ashn_math::randmat::haar_unitary;
    use ashn_synth::basis::{AshnBasis, CnotBasis};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicU32, Ordering};

    /// A basis that fails (or panics) a fixed number of times before
    /// delegating to CNOT synthesis.
    struct Flaky {
        fail_first: u32,
        panic_instead: bool,
        calls: AtomicU32,
    }

    impl Flaky {
        fn new(fail_first: u32, panic_instead: bool) -> Self {
            Self {
                fail_first,
                panic_instead,
                calls: AtomicU32::new(0),
            }
        }
    }

    impl Basis for Flaky {
        fn name(&self) -> String {
            "flaky".into()
        }

        fn synthesize(&self, u: &CMat) -> Result<Circuit, SynthError> {
            let n = self.calls.fetch_add(1, Ordering::SeqCst);
            if n < self.fail_first {
                if self.panic_instead {
                    panic!("flaky basis blew up on call {n}");
                }
                return Err(SynthError::Convergence {
                    basis: "flaky".into(),
                    detail: format!("transient failure {n}"),
                });
            }
            CnotBasis.synthesize(u)
        }

        fn expected_entanglers(&self, u: &CMat) -> usize {
            CnotBasis.expected_entanglers(u)
        }
    }

    fn target() -> CMat {
        let mut rng = StdRng::seed_from_u64(91);
        haar_unitary(4, &mut rng)
    }

    #[test]
    fn first_try_success_matches_plain_synthesis() {
        let u = target();
        let direct = CnotBasis.synthesize(&u).unwrap();
        let (circuit, attempts) = CompileService::new(CnotBasis).synthesize_cold(&u);
        assert_eq!(attempts, 1);
        let circuit = circuit.unwrap();
        assert_eq!(fingerprint(&circuit), fingerprint(&direct));
    }

    #[test]
    fn fingerprint_sees_a_one_ulp_change_that_debug_hides() {
        let circuit = CnotBasis.synthesize(&target()).unwrap();
        let mut nudged = circuit.clone();
        let entry = &mut nudged.instructions[0].matrix[(0, 0)];
        entry.re = f64::from_bits(entry.re.to_bits() + 1);
        assert_eq!(format!("{circuit:?}"), format!("{nudged:?}"));
        assert_ne!(fingerprint(&circuit), fingerprint(&nudged));
    }

    #[test]
    fn transient_errors_are_retried_until_success() {
        let u = target();
        let service = CompileService::new(Flaky::new(2, false)).max_attempts(4);
        let (circuit, attempts) = service.synthesize_cold(&u);
        assert_eq!(attempts, 3);
        assert!(circuit.unwrap().error(&u) < 1e-9);
    }

    #[test]
    fn panics_are_contained_and_retried() {
        let u = target();
        let service = CompileService::new(Flaky::new(1, true)).max_attempts(2);
        let (circuit, attempts) = service.synthesize_cold(&u);
        assert_eq!(attempts, 2);
        assert!(circuit.unwrap().error(&u) < 1e-9);
    }

    #[test]
    fn exhausted_retries_surface_the_last_error() {
        let u = target();
        let service = CompileService::new(Flaky::new(u32::MAX, true)).max_attempts(2);
        let (result, attempts) = service.synthesize_cold(&u);
        let err = result.unwrap_err();
        assert!(matches!(err, SynthError::WorkerPanic { .. }), "{err}");
        assert_eq!(attempts, 2);
    }

    #[test]
    fn exhausted_retries_are_counted_and_the_target_degrades() {
        let service = CompileService::new(Flaky::new(u32::MAX, false)).max_attempts(2);
        let batch = service.synthesize_batch(&[target()]);
        assert!(batch.circuits[0].is_ok());
        assert_eq!((batch.stats.retries, batch.stats.degraded), (1, 1));
    }

    #[test]
    fn invalid_targets_fail_fast_without_retries_or_fallback() {
        let junk = CMat::zeros(4, 4);
        let service = CompileService::new(Flaky::new(0, false)).max_attempts(5);
        let (result, attempts) = service.synthesize_cold(&junk);
        assert!(matches!(result, Err(SynthError::InvalidTarget { .. })));
        assert_eq!(attempts, 1);
        assert_eq!(service.basis().calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    #[should_panic(expected = "verify_tol must be a non-negative number")]
    fn nan_verify_tol_is_rejected() {
        // `err > NaN` is always false: a NaN tolerance would pass every
        // serve unverified.
        let _ = CompileService::new(CnotBasis).verify_tol(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "verify_tol must be a non-negative number")]
    fn negative_verify_tol_is_rejected() {
        // Every error exceeds a negative tolerance: every serve would be
        // quarantined and degraded.
        let _ = CompileService::new(CnotBasis).verify_tol(-1.0);
    }

    #[test]
    fn ashn_cold_synthesis_serves_first_try_and_stays_deterministic() {
        let u = target();
        let service = CompileService::new(AshnBasis::ideal()).max_attempts(3);
        let (a, a_attempts) = service.synthesize_cold(&u);
        let (b, b_attempts) = service.synthesize_cold(&u);
        assert_eq!((a_attempts, b_attempts), (1, 1));
        let (a, b) = (a.unwrap(), b.unwrap());
        assert_eq!(fingerprint(&a), fingerprint(&b));
        assert!(a.error(&u) < 1e-11);
    }
}
