//! Telemetry overhead: the instrumented hot paths must stay within noise
//! of a dark stack. Two workloads cover the two kinds of seam:
//!
//! * **service batch** — a warm `synthesize_batch` over mixed traffic
//!   crosses every instrumented service phase (spans, tier counters,
//!   cache-lookup accounting, journal events) per iteration;
//! * **trajectory loop** — plan build (one span) plus a pure statevector
//!   execution whose scalar amplitude loop is deliberately *not*
//!   instrumented; this workload pins that it stays that way.
//!
//! Each workload is timed with the registry recording and with it
//! runtime-disabled (`set_enabled(false)`, the stack's one off switch),
//! interleaved min-of-N. In full mode the bench **asserts**
//! instrumented/disabled ≤ 1.03 and writes `BENCH_telemetry.json`.
//!
//! Run `cargo bench -p ashn-bench --bench telemetry` (add `--test` for
//! the single-iteration CI smoke mode; `--targets N` scales the service
//! corpus).

use ashn_bench::{bench_args, write_baseline};
use ashn_ir::Circuit;
use ashn_math::randmat::haar_unitary;
use ashn_math::CMat;
use ashn_service::{CompileService, ShardedCache};
use ashn_sim::plan::ExecPlan;
use ashn_sim::{Instruction, NoiseModel};
use ashn_synth::basis::CzBasis;
use ashn_telemetry::{install, Registry};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Mixed service traffic: Haar classes + exact repeats + dressed
/// same-class variants, all warm after one priming batch.
fn corpus(n: usize, seed: u64) -> Vec<CMat> {
    let classes = (n / 3).max(1);
    let mut rng = StdRng::seed_from_u64(seed);
    let bases: Vec<CMat> = (0..classes).map(|_| haar_unitary(4, &mut rng)).collect();
    let mut targets = bases.clone();
    while targets.len() < n {
        let base = &bases[targets.len() % classes];
        if targets.len().is_multiple_of(2) {
            targets.push(base.clone()); // exact repeat
        } else {
            let pre = haar_unitary(2, &mut rng).kron(&haar_unitary(2, &mut rng));
            let post = haar_unitary(2, &mut rng).kron(&haar_unitary(2, &mut rng));
            targets.push(&(&post * base) * &pre); // dressed
        }
    }
    targets
}

/// A 5-qubit brickwork circuit of Haar 2q gates — the trajectory-loop
/// stand-in (plan build + pure execution, scalar amplitude walk).
fn brickwork(seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut circuit = Circuit::new(5);
    for layer in 0..6 {
        for a in ((layer % 2)..4).step_by(2) {
            circuit.push(Instruction::new(
                vec![a, a + 1],
                haar_unitary(4, &mut rng),
                "2q",
            ));
        }
    }
    circuit
}

/// Wall time of `iters` calls to `f`, in ns.
fn sample(iters: u64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64
}

/// Interleaved min-of-`rounds` comparison: returns (instrumented ns/iter,
/// disabled ns/iter). Interleaving cancels drift (thermal, cache state);
/// min-of-N discards scheduler noise, which only ever adds time.
fn compare(reg: &Registry, rounds: usize, iters: u64, mut f: impl FnMut()) -> (f64, f64) {
    let (mut on, mut off) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..rounds {
        reg.set_enabled(true);
        on = on.min(sample(iters, &mut f));
        reg.set_enabled(false);
        off = off.min(sample(iters, &mut f));
    }
    reg.set_enabled(true);
    (on / iters as f64, off / iters as f64)
}

/// Iteration count putting one sample at ~`budget_ms` of wall time.
fn calibrate(budget_ms: u128, mut f: impl FnMut()) -> u64 {
    let start = Instant::now();
    let mut iters = 0u64;
    while start.elapsed().as_millis() < budget_ms / 4 || iters == 0 {
        f();
        iters += 1;
        if iters >= 100_000 {
            break;
        }
    }
    (iters * 4).max(1)
}

fn main() {
    let (test_mode, args) = bench_args();
    let n_targets: usize = args.get("targets", if test_mode { 30 } else { 240 });
    let seed: u64 = args.get("seed", 42);
    let rounds = if test_mode { 1 } else { 7 };

    // A bounded journal keeps the ring-eviction path in the measured loop.
    let reg = Registry::with_journal_capacity(256);
    let _guard = install(&reg);

    println!("telemetry overhead bench ({rounds} rounds, min-of-N interleaved)\n");

    // Workload 1: warm service batch — every instrumented phase fires.
    let targets = corpus(n_targets, seed);
    let service = CompileService::with_cache(CzBasis, ShardedCache::new()).workers(1);
    let prime = service.synthesize_batch(&targets); // prime: cold once
    assert!(prime.circuits.iter().all(Result::is_ok));
    let batch_iters = if test_mode {
        1
    } else {
        calibrate(100, || {
            black_box(service.synthesize_batch(black_box(&targets)));
        })
    };
    let (batch_on, batch_off) = compare(&reg, rounds, batch_iters, || {
        black_box(service.synthesize_batch(black_box(&targets)));
    });

    // Workload 2: plan build + pure trajectory execution.
    let circuit = brickwork(seed);
    let traj_iters = if test_mode {
        1
    } else {
        calibrate(100, || {
            let plan = ExecPlan::build(&circuit, &NoiseModel::NOISELESS).expect("plan");
            let mut amps = vec![ashn_math::Complex::ZERO; 1 << circuit.n_qubits()];
            amps[0] = ashn_math::Complex::ONE;
            plan.execute_pure(&mut amps);
            black_box(&amps);
        })
    };
    let (traj_on, traj_off) = compare(&reg, rounds, traj_iters, || {
        let plan = ExecPlan::build(&circuit, &NoiseModel::NOISELESS).expect("plan");
        let mut amps = vec![ashn_math::Complex::ZERO; 1 << circuit.n_qubits()];
        amps[0] = ashn_math::Complex::ONE;
        plan.execute_pure(&mut amps);
        black_box(&amps);
    });

    let batch_ratio = batch_on / batch_off;
    let traj_ratio = traj_on / traj_off;
    println!(
        "service batch ({} targets)   instrumented {:>9.1} µs/iter   disabled {:>9.1} µs/iter   ratio {:.4}",
        targets.len(),
        batch_on / 1e3,
        batch_off / 1e3,
        batch_ratio
    );
    println!(
        "trajectory loop (5q plan)    instrumented {:>9.1} µs/iter   disabled {:>9.1} µs/iter   ratio {:.4}",
        traj_on / 1e3,
        traj_off / 1e3,
        traj_ratio
    );

    // Sanity: the instrumentation actually ran.
    let snap = reg.snapshot();
    assert!(snap.counter("service.batches").unwrap_or(0) > 0);
    assert!(snap.histogram("sim.plan.build").is_some());

    // The acceptance gate: instrumented hot loops stay within noise
    // (≤3%) of the disabled stack. Smoke mode times single iterations,
    // which is pure scheduler noise — report, don't gate.
    if !test_mode {
        assert!(
            batch_ratio <= 1.03,
            "service batch overhead {batch_ratio:.4} exceeds 1.03"
        );
        assert!(
            traj_ratio <= 1.03,
            "trajectory loop overhead {traj_ratio:.4} exceeds 1.03"
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"telemetry\",\n  \"config\": {{ \"targets\": {}, \"seed\": {seed}, \
         \"rounds\": {rounds}, \"smoke\": {test_mode} }},\n  \
         \"results\": [\n    {{ \"workload\": \"service_batch_warm\", \"instrumented_us\": {:.2}, \
         \"disabled_us\": {:.2}, \"ratio\": {:.4} }},\n    {{ \"workload\": \"trajectory_loop\", \
         \"instrumented_us\": {:.2}, \"disabled_us\": {:.2}, \"ratio\": {:.4} }}\n  ],\n  \
         \"overhead_gate\": 1.03\n}}\n",
        targets.len(),
        batch_on / 1e3,
        batch_off / 1e3,
        batch_ratio,
        traj_on / 1e3,
        traj_off / 1e3,
        traj_ratio,
    );
    write_baseline("telemetry", &json, test_mode);
}
