//! The [`Pass`] abstraction and the fixed-point [`PassManager`].

use crate::dag::DagCircuit;
use crate::error::OptError;
use ashn_ir::Circuit;
use std::fmt;

/// One rewrite over the DAG. A pass mutates the DAG in place and reports
/// whether it changed anything; the manager iterates the pass list until a
/// full sweep runs clean (or the iteration cap is hit).
pub trait Pass {
    /// Display name (shows up in [`PassStats`]).
    fn name(&self) -> String;

    /// Runs the pass once over the DAG. Returns `true` when the DAG was
    /// modified.
    ///
    /// # Errors
    ///
    /// [`OptError`] on structural failures; recoverable per-block synthesis
    /// failures should be skipped, not propagated.
    fn run(&self, dag: &mut DagCircuit) -> Result<bool, OptError>;
}

/// Gate-count/depth snapshot of a DAG.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// Total live instructions.
    pub gates: usize,
    /// Instructions acting on ≥ 2 wires.
    pub two_qubit: usize,
    /// Longest wire-dependency chain.
    pub depth: usize,
}

impl Snapshot {
    /// Snapshot of the DAG's current shape.
    pub fn of(dag: &DagCircuit) -> Self {
        Self {
            gates: dag.len(),
            two_qubit: dag.two_qubit_count(),
            depth: dag.depth(),
        }
    }
}

/// Per-pass accounting: how often the pass fired. Every pass runs once per
/// sweep, so its run count is [`OptStats::iterations`].
#[derive(Clone, Debug)]
pub struct PassStats {
    /// Pass display name.
    pub pass: String,
    /// Executions that modified the DAG.
    pub fired: usize,
}

/// Whole-run accounting returned by [`PassManager::run`].
#[derive(Clone, Debug)]
pub struct OptStats {
    /// Fixed-point sweeps executed (the last one ran clean unless the
    /// iteration cap was hit).
    pub iterations: usize,
    /// Shape of the input circuit.
    pub before: Snapshot,
    /// Shape of the optimized circuit.
    pub after: Snapshot,
    /// Per-pass breakdown, in pipeline order.
    pub passes: Vec<PassStats>,
}

impl OptStats {
    /// Instructions eliminated.
    pub fn gates_removed(&self) -> usize {
        self.before.gates.saturating_sub(self.after.gates)
    }

    /// Two-qubit gates eliminated.
    pub fn two_qubit_removed(&self) -> usize {
        self.before.two_qubit.saturating_sub(self.after.two_qubit)
    }

    /// Depth layers eliminated.
    pub fn depth_removed(&self) -> usize {
        self.before.depth.saturating_sub(self.after.depth)
    }
}

impl fmt::Display for OptStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "gates {}→{}, 2q {}→{}, depth {}→{} in {} sweep(s)",
            self.before.gates,
            self.after.gates,
            self.before.two_qubit,
            self.after.two_qubit,
            self.before.depth,
            self.after.depth,
            self.iterations
        )
    }
}

/// Runs a pass pipeline to a fixed point.
///
/// Passes execute in insertion order; the whole list repeats until one full
/// sweep changes nothing, capped at [`PassManager::with_max_iterations`]
/// (default 8 — every built-in pass only ever shrinks the gate count, so
/// the cap exists for pathological user passes, not normal operation).
///
/// The lifetime parameter lets passes borrow their configuration (e.g. the
/// resynthesis pass borrowing the compiler's cached [`ashn_ir::Basis`]).
pub struct PassManager<'p> {
    passes: Vec<Box<dyn Pass + 'p>>,
    max_iterations: usize,
}

impl<'p> Default for PassManager<'p> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'p> PassManager<'p> {
    /// An empty pipeline.
    pub fn new() -> Self {
        Self {
            passes: Vec::new(),
            max_iterations: 8,
        }
    }

    /// Appends a pass (builder style).
    #[must_use]
    pub fn with_pass(mut self, pass: impl Pass + 'p) -> Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Caps the number of fixed-point sweeps.
    ///
    /// # Panics
    ///
    /// Panics when `n` is zero.
    #[must_use]
    pub fn with_max_iterations(mut self, n: usize) -> Self {
        assert!(n > 0, "at least one sweep is required");
        self.max_iterations = n;
        self
    }

    /// Names of the registered passes, in execution order.
    pub fn pass_names(&self) -> Vec<String> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// Optimizes a linear circuit: DAG conversion, fixed-point pass
    /// iteration, canonical re-linearization.
    ///
    /// # Errors
    ///
    /// [`OptError`] from DAG construction (malformed circuit) or a pass.
    pub fn run(&self, circuit: &Circuit) -> Result<(Circuit, OptStats), OptError> {
        let mut dag = DagCircuit::from_circuit(circuit)?;
        let stats = self.run_dag(&mut dag)?;
        Ok((dag.into_circuit(), stats))
    }

    /// Optimizes an existing DAG in place.
    ///
    /// # Errors
    ///
    /// Propagates the first pass error.
    pub fn run_dag(&self, dag: &mut DagCircuit) -> Result<OptStats, OptError> {
        let telemetry = ashn_telemetry::current();
        let _span = telemetry.span("opt.run");
        // Per-pass histogram handles are resolved once per `run_dag`, so
        // the fixed-point loop pays one atomic record per pass sweep.
        let pass_timers: Vec<_> = self
            .passes
            .iter()
            .map(|p| telemetry.histogram(&format!("opt.pass.{}", p.name())))
            .collect();
        let before = Snapshot::of(dag);
        let mut passes: Vec<PassStats> = self
            .passes
            .iter()
            .map(|p| PassStats {
                pass: p.name(),
                fired: 0,
            })
            .collect();
        let mut iterations = 0;
        for _ in 0..self.max_iterations {
            iterations += 1;
            let mut changed = false;
            for (i, pass) in self.passes.iter().enumerate() {
                let started = std::time::Instant::now();
                let fired = pass.run(dag)?;
                pass_timers[i].record(started.elapsed());
                passes[i].fired += usize::from(fired);
                changed |= fired;
            }
            if !changed {
                break;
            }
        }
        Ok(OptStats {
            iterations,
            before,
            after: Snapshot::of(dag),
            passes,
        })
    }
}
