//! The benchmark's own guarantees: seeded inputs repeat, the timing adapter
//! and the composed (traced) pipelines change no output bit, and outputs do
//! not depend on the worker count.

use ashn::ir::Circuit;
use ashn::synth::basis::{AshnBasis, CzBasis};
use ashn::{Compiler, OptLevel};
use perfbench::check::digest;
use perfbench::harness::Config;
use perfbench::runner::{digest_all, Workload};
use perfbench::service::{self, ashn_basis, Gate, Services};
use perfbench::timing::TimingBasis;
use perfbench::{fig7, traj};
use std::path::PathBuf;

fn config(name: &str, workers: usize) -> Config {
    Config {
        seed: 5,
        seconds: 0.0,
        trace: true,
        workers,
        state_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name),
    }
}

fn circuit_digest(c: &Circuit) -> u64 {
    digest(c, &[], &[])
}

fn two_qubit_wires(c: &Circuit) -> Vec<Vec<usize>> {
    c.instructions
        .iter()
        .filter(|i| i.qubits.len() == 2)
        .map(|i| i.qubits.clone())
        .collect()
}

#[test]
fn the_same_seed_gives_the_same_circuits() {
    for seed in [0, 1, 99] {
        let a: Vec<u64> = service::circuits(seed).iter().map(circuit_digest).collect();
        let b: Vec<u64> = service::circuits(seed).iter().map(circuit_digest).collect();
        assert_eq!(a, b, "service_algos, seed {seed}");
        let a: Vec<u64> = traj::circuits(seed)
            .iter()
            .map(|(c, _, _)| circuit_digest(c))
            .collect();
        let b: Vec<u64> = traj::circuits(seed)
            .iter()
            .map(|(c, _, _)| circuit_digest(c))
            .collect();
        assert_eq!(a, b, "trajectories, seed {seed}");
        let models = |s| -> Vec<u64> {
            fig7::inputs(s)
                .iter()
                .map(|i| circuit_digest(&perfbench::check::model_circuit(&i.model)))
                .collect()
        };
        assert_eq!(models(seed), models(seed), "qv_fig7, seed {seed}");
    }
}

#[test]
fn seeds_change_content_but_not_shape() {
    let (a, b) = (service::circuits(1), service::circuits(2));
    for (x, y) in a.iter().zip(&b) {
        assert_ne!(circuit_digest(x), circuit_digest(y));
        assert_eq!(two_qubit_wires(x), two_qubit_wires(y));
    }
    let (a, b) = (fig7::inputs(1), fig7::inputs(2));
    for (x, y) in a.iter().zip(&b) {
        let (x, y) = (
            perfbench::check::model_circuit(&x.model),
            perfbench::check::model_circuit(&y.model),
        );
        assert_ne!(circuit_digest(&x), circuit_digest(&y));
        assert_eq!(two_qubit_wires(&x), two_qubit_wires(&y));
    }
}

#[test]
fn the_timing_basis_changes_no_facade_output() {
    // Every qv_fig7 input, cold, through a plain and a wrapped basis.
    for input in fig7::inputs(3) {
        let plain = Compiler::new()
            .basis(fig7::basis(input.gate_set(), 1))
            .opt_level(OptLevel::Default)
            .compile(&input.model)
            .expect("plain compile");
        let timing = TimingBasis::new(fig7::basis(input.gate_set(), 1));
        let counters = timing.counters();
        let wrapped = Compiler::new()
            .basis(timing)
            .opt_level(OptLevel::Default)
            .compile(&input.model)
            .expect("wrapped compile");
        assert_eq!(
            digest(plain.circuit(), plain.positions(), &[plain.score().hop]),
            digest(
                wrapped.circuit(),
                wrapped.positions(),
                &[wrapped.score().hop]
            ),
        );
        assert!(counters.take().cold_calls > 0, "cold synthesis went unseen");
    }
}

#[test]
fn the_timing_basis_changes_no_service_output() {
    // Every service_algos and trajectories batch, cold, through plain and
    // wrapped bases.
    let rules = std::sync::Arc::new(ashn::synth::retarget::RuleSet::standard());
    let plain = Services::over(
        ashn::service::ShardedCache::new(),
        &rules,
        CzBasis,
        ashn_basis(),
        1,
    );
    let cz = TimingBasis::new(CzBasis);
    let ashn = TimingBasis::new(AshnBasis::with_cutoff(0.0, 1.1));
    let counters = ashn.counters();
    let wrapped = Services::over(ashn::service::ShardedCache::new(), &rules, cz, ashn, 1);
    let mut batches: Vec<(Gate, Vec<ashn::service::CompileRequest>)> =
        service::batches(&service::circuits(4))
            .into_iter()
            .map(|b| (b.gate, b.requests))
            .collect();
    for (circuit, grid, _) in traj::circuits(4) {
        let request = ashn::service::CompileRequest::new(circuit)
            .grid(grid)
            .opt(ashn::service::OptLevel::Light);
        batches.push((Gate::Ashn, vec![request]));
    }
    for (gate, requests) in &batches {
        let outs = |s: Vec<Result<ashn::service::CompileResult, ashn::service::ServiceError>>| -> Vec<u64> {
            s.into_iter()
                .map(|r| {
                    let (c, p) = service::accept(r).expect("compiled");
                    digest(&c, &p, &[])
                })
                .collect()
        };
        assert_eq!(
            outs(gate.compile(&plain, requests).results),
            outs(gate.compile(&wrapped, requests).results)
        );
    }
    assert!(counters.take().cold_calls > 0, "cold synthesis went unseen");
}

fn digests(w: &impl Workload) -> Vec<u64> {
    (0..w.inputs())
        .map(|i| digest_all(&w.untraced(i).expect("untraced request").1))
        .collect()
}

fn traced_digests(w: &impl Workload) -> Vec<u64> {
    let mut tally = perfbench::timing::Tally::default();
    (0..w.inputs())
        .map(|i| digest_all(&w.traced(i, &mut tally).expect("traced request").1))
        .collect()
}

#[test]
fn composed_pipelines_reproduce_the_untraced_outputs() {
    let cfg = config("composed", 2);
    let fig = fig7::QvFig7::new(&cfg);
    assert_eq!(digests(&fig), traced_digests(&fig), "qv_fig7");
    let svc = service::ServiceAlgos::new(&cfg).expect("service_algos");
    assert_eq!(digests(&svc), traced_digests(&svc), "service_algos");
    let tr = traj::Trajectories::new(&cfg).expect("trajectories");
    assert_eq!(digests(&tr), traced_digests(&tr), "trajectories");
}

#[test]
fn outputs_do_not_depend_on_the_worker_count() {
    let one = config("workers-1", 1);
    let two = config("workers-2", 2);
    assert_eq!(
        digests(&fig7::QvFig7::new(&one)),
        digests(&fig7::QvFig7::new(&two)),
        "qv_fig7"
    );
    assert_eq!(
        digests(&service::ServiceAlgos::new(&one).expect("service_algos")),
        digests(&service::ServiceAlgos::new(&two).expect("service_algos")),
        "service_algos"
    );
    assert_eq!(
        digests(&traj::Trajectories::new(&one).expect("trajectories")),
        digests(&traj::Trajectories::new(&two).expect("trajectories")),
        "trajectories"
    );
}

/// `(name, unit)` of every metric object in one list of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let field = |obj: &str, key: &str| -> String {
        let start = obj.find(&format!("\"{key}\": \"")).expect("key present") + key.len() + 5;
        obj[start..]
            .split('"')
            .next()
            .expect("closing quote")
            .to_string()
    };
    let mut out: Vec<(String, String)> = section
        .split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect();
    out.sort();
    out
}

#[test]
fn every_workload_reports_exactly_the_listed_metrics() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    let e2e = &spec[spec.find("\"end_to_end\"").unwrap()..spec.find("\"per_layer\"").unwrap()];
    let layers = &spec[spec.find("\"per_layer\"").unwrap()..];
    for workload in perfbench::WORKLOADS {
        assert!(
            spec.contains(&format!("\"name\": \"{workload}\"")),
            "{workload} not listed"
        );
        for (trace, section) in [(false, e2e), (true, layers)] {
            let cfg = Config {
                trace,
                ..config(&format!("names-{workload}-{trace}"), 2)
            };
            let report = perfbench::run(workload, &cfg).expect("run");
            assert!(report.correct, "{workload}: {:?}", report.problems);
            let mut got: Vec<(String, String)> = report
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            got.sort();
            assert_eq!(got, listed(section), "{workload}, trace {trace}");
        }
    }
}
