//! The run shared by every workload: a checked warm-up pass over the
//! inputs, then the timed closed loop — untraced for the end-to-end
//! metrics, or traced for the per-layer ones.

use crate::check::{self, Quality, QualityMean};
use crate::harness::{closed_loop, peak_rss_mb, quantile, Config, LoopResult, Report};
use crate::timing::Tally;
use ashn::ir::Circuit;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One compiled circuit of a request's output.
#[derive(Clone, Debug)]
pub struct Out {
    /// The physical-site circuit.
    pub circuit: Circuit,
    /// `positions[l]` = physical site holding logical qubit `l` at the end.
    pub positions: Vec<usize>,
    /// Further output values covered by the digest (HOP, probabilities).
    pub extra: Vec<f64>,
    /// Index of the input circuit's reference distribution.
    pub reference: usize,
    /// Gate set, one of [`GATES`].
    pub gate: &'static str,
}

/// Digest of a request's whole output.
pub fn digest_all(outs: &[Out]) -> u64 {
    let parts: Vec<f64> = outs
        .iter()
        .map(|o| f64::from_bits(check::digest(&o.circuit, &o.positions, &o.extra)))
        .collect();
    check::digest(&Circuit::new(0), &[], &parts)
}

/// A workload: a fixed input set, and the untraced and traced ways of
/// serving one input. Both return the request latency in ms (timed around
/// the program's calls only) and the outputs.
pub trait Workload {
    /// Number of inputs; the closed loop cycles through them in order.
    fn inputs(&self) -> usize;

    /// Reference distribution of input circuit `r` (computed without the
    /// compiler).
    fn reference(&self, r: usize) -> &[f64];

    /// Serves input `i` through the program's public entry point.
    ///
    /// # Errors
    ///
    /// Why the request failed.
    fn untraced(&self, i: usize) -> Result<(f64, Vec<Out>), String>;

    /// Serves input `i` by composing the layers' public functions, timing
    /// each call into `tally`. Must reproduce [`Workload::untraced`] bit
    /// for bit.
    ///
    /// # Errors
    ///
    /// Why the request failed.
    fn traced(&self, i: usize, tally: &mut Tally) -> Result<(f64, Vec<Out>), String>;

    /// One fresh program set-up, timed and then dropped. The run repeats
    /// it between passes over the inputs, so the reported median samples
    /// the machine over the whole window rather than one instant.
    fn setup_once(&self) -> Setup;

    /// HOP of an output for the `mean_hop` metric (warm-up only), or
    /// `None` when the workload does not score it.
    fn warm_hop(&self, out: &Out) -> Option<f64>;
}

/// Set-up time spent between two passes over the inputs: set-up repeats
/// until this much has passed (at least once), so short set-ups are sampled
/// often enough for a steady median.
const SETUP_BUDGET: Duration = Duration::from_millis(10);

/// Time-valued per-layer stages that partition a traced request; their
/// sum over the request time is `trace.coverage`.
const STAGES: [&str; 9] = [
    "synth.ms",
    "service.batch_ms",
    "route.ms",
    "assemble.ms",
    "opt.ms",
    "schedule.ms",
    "qv.score_ms",
    "sim.plan_build_ms",
    "sim.execute_ms",
];

/// Per-layer metrics reported as a mean per traced request.
const PER_REQUEST: [(&str, &str); 30] = [
    ("synth.calls", "count"),
    ("synth.cold_calls", "count"),
    ("synth.cold_ms", "ms"),
    ("synth.swap_ms", "ms"),
    ("synth.exact_hits", "count"),
    ("synth.class_hits", "count"),
    ("synth.rule_hits", "count"),
    ("synth.ms", "ms"),
    ("service.batch_ms", "ms"),
    ("service.unique_classes", "count"),
    ("service.cold_classes", "count"),
    ("route.ms", "ms"),
    ("route.swaps", "count"),
    ("assemble.ms", "ms"),
    ("opt.ms", "ms"),
    ("opt.gates_removed", "count"),
    ("opt.two_qubit_removed", "count"),
    ("opt.depth_removed", "count"),
    ("opt.iterations", "count"),
    ("opt.pass.merge-1q.fired", "count"),
    ("opt.pass.phase-fold.fired", "count"),
    ("opt.pass.commute-cancel.fired", "count"),
    ("opt.pass.retarget.fired", "count"),
    ("opt.pass.resynth.fired", "count"),
    ("schedule.ms", "ms"),
    ("qv.score_ms", "ms"),
    ("sim.plan_build_ms", "ms"),
    ("sim.execute_ms", "ms"),
    ("sim.density_ms", "ms"),
    ("sim.pure_ms", "ms"),
];

/// Names of the gate sets, as the per-gate-set quality breakdown reports
/// them. Workloads take [`Out::gate`] from this table.
pub const GATES: [&str; 3] = ["cz", "sqisw", "ashn"];

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Set-up figures a workload measured before the run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Setup {
    /// Median set-up time, seconds.
    pub seconds: f64,
    /// Disk warm start of the persisted cache, ms (0 when none).
    pub load_ms: f64,
    /// Entries the warm start loaded.
    pub entries: f64,
}

impl Setup {
    /// Field-wise median of repeated set-ups.
    pub fn median(all: &[Setup]) -> Setup {
        let med = |f: fn(&Setup) -> f64| quantile(&all.iter().map(f).collect::<Vec<_>>(), 0.5);
        Setup {
            seconds: med(|s| s.seconds),
            load_ms: med(|s| s.load_ms),
            entries: med(|s| s.entries),
        }
    }
}

/// Runs the warm-up pass and the timed window of `w` and reports.
/// `first` is the set-up the workload was built with.
pub fn run(w: &impl Workload, cfg: &Config, first: Setup) -> Report {
    let mut report = Report::default();
    let mut setups = vec![first];
    let mut set_up = || {
        let start = Instant::now();
        loop {
            setups.push(w.setup_once());
            if start.elapsed() >= SETUP_BUDGET {
                break;
            }
        }
    };
    // Warm-up: every input once, each output checked against its
    // reference; the quality metrics and the digests the timed window
    // compares against come from here.
    let mut digests = Vec::with_capacity(w.inputs());
    let mut quality = QualityMean::default();
    let mut per_gate: BTreeMap<&str, QualityMean> = BTreeMap::new();
    for i in 0..w.inputs() {
        let outs = match w.untraced(i) {
            Ok((_, outs)) => outs,
            Err(e) => {
                report.problems.push(format!("warm-up input {i}: {e}"));
                digests.push(0);
                continue;
            }
        };
        for out in &outs {
            if let Err(e) =
                check::check_output(w.reference(out.reference), &out.circuit, &out.positions)
            {
                report.problems.push(format!("input {i}: {e}"));
            }
            let q = Quality::of(&out.circuit);
            quality.add(q, w.warm_hop(out));
            per_gate.entry(out.gate).or_default().add(q, None);
        }
        digests.push(digest_all(&outs));
    }
    let same = |i: usize, outs: &[Out], path: &str| -> Result<(), String> {
        if digest_all(outs) == digests[i] {
            Ok(())
        } else {
            Err(format!(
                "{path} output differs from the checked warm-up output"
            ))
        }
    };

    let window = if cfg.trace {
        let mut tally = Tally::default();
        let mut untraced_ms = Vec::new();
        let window = closed_loop(
            cfg.seconds,
            w.inputs(),
            |i| {
                let (ms, outs) = w.untraced(i)?;
                same(i, &outs, "untraced")?;
                untraced_ms.push(ms);
                let (ms, outs) = w.traced(i, &mut tally)?;
                same(i, &outs, "traced (composed pipeline)")?;
                tally.add("trace.request_ms", ms);
                Ok(ms)
            },
            &mut set_up,
        );
        let setup = Setup::median(&setups);
        per_layer(&mut report, &tally, &window, &untraced_ms, setup, &per_gate);
        window
    } else {
        let window = closed_loop(
            cfg.seconds,
            w.inputs(),
            |i| {
                let (ms, outs) = w.untraced(i)?;
                same(i, &outs, "untraced")?;
                Ok(ms)
            },
            &mut set_up,
        );
        let setup = Setup::median(&setups);
        let q = quality.mean();
        report.push("setup_s", setup.seconds, "s");
        report.push("requests_per_s", window.requests_per_s(), "1/s");
        report.push("request_ms_p50", quantile(&window.latencies_ms, 0.5), "ms");
        report.push("request_ms_p90", quantile(&window.latencies_ms, 0.9), "ms");
        report.push("ok_frac", window.ok_frac(), "ratio");
        report.push("two_qubit_gates", q.two_qubit_gates, "count");
        report.push("pulse_duration", q.pulse_duration, "1/g");
        report.push("makespan", q.makespan, "1/g");
        report.push("mean_hop", quality.mean_hop(), "prob");
        report.push("peak_rss_mb", peak_rss_mb(), "MB");
        window
    };
    report.finish(&window);
    eprintln!(
        "requests: {} attempted, {} failed (failed_frac {:.4}), {} latency samples in {:.2} s",
        window.attempted,
        window.failed,
        1.0 - window.ok_frac(),
        window.latencies_ms.len(),
        window.wall_s
    );
    let parts: Vec<f64> = digests.iter().map(|&d| f64::from_bits(d)).collect();
    eprintln!(
        "output digest: {:016x}",
        check::digest(&Circuit::new(0), &[], &parts)
    );
    report
}

fn per_layer(
    report: &mut Report,
    t: &Tally,
    window: &LoopResult,
    untraced_ms: &[f64],
    setup: Setup,
    per_gate: &BTreeMap<&str, QualityMean>,
) {
    let n = window.latencies_ms.len().max(1) as f64;
    for (name, unit) in PER_REQUEST {
        report.push(name, t.get(name) / n, unit);
    }
    let hits = t.get("synth.exact_hits") + t.get("synth.class_hits") + t.get("synth.rule_hits");
    report.push("synth.hit_rate", ratio(hits, t.get("synth.calls")), "ratio");
    report.push(
        "service.dedup_ratio",
        ratio(t.get("service.targets"), t.get("service.unique_classes")),
        "ratio",
    );
    report.push("persist.load_ms", setup.load_ms, "ms");
    report.push("persist.entries", setup.entries, "count");
    report.push(
        "route.swaps_per_2q",
        ratio(t.get("route.swaps"), t.get("route.gates")),
        "ratio",
    );
    let exec_s = t.get("sim.execute_ms") / 1e3;
    report.push(
        "sim.plan_ops_per_gate",
        ratio(t.get("sim.plan_ops"), t.get("sim.plan_gates")),
        "ratio",
    );
    report.push(
        "sim.traj_per_s",
        ratio(t.get("sim.trajectories"), exec_s),
        "1/s",
    );
    report.push(
        "sim.amp_gb_per_s",
        ratio(t.get("sim.bytes") / 1e9, exec_s),
        "GB/s",
    );
    let staged: f64 = STAGES.iter().map(|s| t.get(s)).sum();
    report.push(
        "trace.coverage",
        ratio(staged, t.get("trace.request_ms")),
        "ratio",
    );
    report.push(
        "trace.overhead",
        ratio(
            quantile(&window.latencies_ms, 0.5),
            quantile(untraced_ms, 0.5),
        ),
        "ratio",
    );
    for gate in GATES {
        let q = per_gate
            .get(gate)
            .map(QualityMean::mean)
            .unwrap_or_default();
        report.push(
            &format!("quality.{gate}.two_qubit_gates"),
            q.two_qubit_gates,
            "count",
        );
        report.push(
            &format!("quality.{gate}.pulse_duration"),
            q.pulse_duration,
            "1/g",
        );
    }
}
