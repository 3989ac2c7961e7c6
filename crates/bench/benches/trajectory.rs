//! Trajectory-ensemble throughput: compiled execution plans vs the
//! instruction walk, on a QV-style 4-qubit circuit (a `d = 4` model
//! compiled to the AshN basis, noise-scheduled as in Fig. 7).
//!
//! Measures, and writes to `BENCH_trajectory.json` as a machine-readable
//! baseline for future PRs:
//!
//! * plan build cost (and the op-count compression fusion achieves);
//! * `run_pure` walk vs plan;
//! * trajectory-ensemble throughput walk vs plan under the paper's noise
//!   (every gate noisy → nothing fuses → results are **bit-identical** to
//!   the walk, asserted here) and under two-qubit-only noise (single-qubit
//!   runs fuse into the entanglers → the big win);
//! * cold vs warm `mean_hop` (compile-per-point vs compile-once
//!   `score_compiled_many`).
//!
//! Run `cargo bench -p ashn-bench --bench trajectory` (add `--test` for
//! the single-iteration CI smoke mode; `--traj N` scales the ensemble).

use ashn_bench::{bench_args, write_baseline};
use ashn_qv::{
    compile_model, resolve_rates, sample_model_circuit, score_compiled, score_compiled_many,
    stamp_noise, GateSet, QvNoise,
};
use ashn_sim::plan::ExecPlan;
use ashn_sim::trajectory::{
    trajectory_probabilities_batched, trajectory_probabilities_batched_plan,
};
use ashn_sim::{Circuit, NoiseModel, SimEngine};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// Mean ns/iter over a warmed-up timed batch (single iteration in `--test`
/// smoke mode).
fn time_ns(test_mode: bool, mut f: impl FnMut()) -> f64 {
    if test_mode {
        let start = Instant::now();
        f();
        return start.elapsed().as_nanos() as f64;
    }
    let warmup = Instant::now();
    let mut warmup_iters = 0u64;
    while warmup.elapsed().as_millis() < 50 {
        f();
        warmup_iters += 1;
        if warmup_iters >= 1_000_000 {
            break;
        }
    }
    let per_iter = warmup.elapsed().as_nanos().max(1) / u128::from(warmup_iters);
    let iters = (200_000_000 / per_iter.max(1)).clamp(1, 1_000_000) as u64;
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn report(name: &str, ns: f64) {
    let (value, unit) = if ns < 1_000.0 {
        (ns, "ns")
    } else if ns < 1_000_000.0 {
        (ns / 1_000.0, "µs")
    } else {
        (ns / 1_000_000.0, "ms")
    };
    println!("{name:<44} {value:>10.3} {unit}/iter");
}

/// The walk-path ensemble estimator the plan path is compared against:
/// identical chunking/RNG plumbing, instruction walk per trajectory.
fn walk_ensemble(circuit: &Circuit, n_traj: usize, master_seed: u64) -> Vec<f64> {
    // Stamped circuits carry explicit rates, so the model contributes
    // nothing; NOISELESS keeps unannotated gates noise-free.
    let noise = NoiseModel::NOISELESS;
    let dim = 1usize << circuit.n_qubits();
    let mut acc = vec![0.0; dim];
    let mut engine = SimEngine::new(circuit.n_qubits());
    let mut rng = StdRng::seed_from_u64(master_seed);
    for _ in 0..n_traj {
        engine.run_trajectory_walk(circuit, &noise, &mut rng);
        engine.accumulate_probabilities(&mut acc);
    }
    for a in acc.iter_mut() {
        *a /= n_traj as f64;
    }
    acc
}

fn plan_ensemble(plan: &ExecPlan, n_traj: usize, master_seed: u64) -> Vec<f64> {
    let dim = 1usize << plan.n_qubits();
    let mut acc = vec![0.0; dim];
    let mut engine = SimEngine::new(plan.n_qubits());
    let mut rng = StdRng::seed_from_u64(master_seed);
    for _ in 0..n_traj {
        engine.run_plan_trajectory(plan, &mut rng);
        engine.accumulate_probabilities(&mut acc);
    }
    for a in acc.iter_mut() {
        *a /= n_traj as f64;
    }
    acc
}

fn main() {
    let (test_mode, args) = bench_args();
    let n_traj: usize = args.get("traj", if test_mode { 8 } else { 256 });
    let seed: u64 = args.get("seed", 42);

    // QV-style 4-qubit circuit: d = 4 model compiled to AshN, as in Fig. 7.
    let mut rng = StdRng::seed_from_u64(seed);
    let model = sample_model_circuit(4, &mut rng);
    let compiled = compile_model(&model, GateSet::Ashn { cutoff: 1.1 }).expect("compiles");
    let paper_noise = QvNoise::with_e_cz(0.012);
    let twoq_noise = QvNoise {
        e_cz: 0.012,
        e_1q: 0.0,
    };
    let stamped = stamp_noise(&compiled.circuit, &paper_noise);
    let stamped_2q = stamp_noise(&compiled.circuit, &twoq_noise);
    let plan = ExecPlan::build(&stamped, &NoiseModel::NOISELESS).expect("plans");
    let plan_2q = ExecPlan::build(&stamped_2q, &NoiseModel::NOISELESS).expect("plans");
    let plan_pure = ExecPlan::pure(&compiled.circuit).expect("plans");
    println!(
        "circuit: {} gates | plan ops: {} (paper noise), {} (2q-only noise), {} (pure)\n",
        stamped.gates().len(),
        plan.ops().len(),
        plan_2q.ops().len(),
        plan_pure.ops().len()
    );

    // Correctness gates before timing: the paper-noise plan must reproduce
    // the walk bit for bit (nothing fuses); the fused plan to 1e-12.
    let reference = walk_ensemble(&stamped, n_traj, seed);
    let planned = plan_ensemble(&plan, n_traj, seed);
    assert_eq!(
        reference.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
        planned.iter().map(|p| p.to_bits()).collect::<Vec<_>>(),
        "plan-backed ensemble must be bit-identical to the walk"
    );
    let ref_2q = walk_ensemble(&stamped_2q, n_traj, seed);
    let planned_2q = plan_ensemble(&plan_2q, n_traj, seed);
    for (a, b) in ref_2q.iter().zip(planned_2q.iter()) {
        assert!((a - b).abs() < 1e-12, "fused plan drifted from the walk");
    }
    for workers in [1usize, 2, 8] {
        let got = trajectory_probabilities_batched_plan(&plan, n_traj, seed, workers);
        let want =
            trajectory_probabilities_batched(&stamped, &NoiseModel::NOISELESS, n_traj, seed, 1);
        assert_eq!(got, want, "worker-count invariance broke at {workers}");
    }

    let build_ns = time_ns(test_mode, || {
        black_box(ExecPlan::build(black_box(&stamped), &NoiseModel::NOISELESS).unwrap());
    });
    report("plan/build_d4_ashn", build_ns);

    let mut engine = SimEngine::new(4);
    let pure_walk_ns = time_ns(test_mode, || {
        black_box(
            engine
                .run_pure_walk(black_box(&compiled.circuit))
                .amplitudes()[0],
        );
    });
    report("run_pure/walk", pure_walk_ns);
    let pure_plan_ns = time_ns(test_mode, || {
        black_box(engine.run_plan(black_box(&plan_pure)).amplitudes()[0]);
    });
    report("run_pure/plan", pure_plan_ns);

    let walk_ns = time_ns(test_mode, || {
        black_box(walk_ensemble(black_box(&stamped), n_traj, seed));
    });
    report(&format!("ensemble_{n_traj}/walk_paper_noise"), walk_ns);
    let plan_ns = time_ns(test_mode, || {
        black_box(plan_ensemble(black_box(&plan), n_traj, seed));
    });
    report(&format!("ensemble_{n_traj}/plan_paper_noise"), plan_ns);
    let walk_2q_ns = time_ns(test_mode, || {
        black_box(walk_ensemble(black_box(&stamped_2q), n_traj, seed));
    });
    report(&format!("ensemble_{n_traj}/walk_2q_noise"), walk_2q_ns);
    let plan_2q_ns = time_ns(test_mode, || {
        black_box(plan_ensemble(black_box(&plan_2q), n_traj, seed));
    });
    report(&format!("ensemble_{n_traj}/plan_2q_noise"), plan_2q_ns);

    // Cold vs warm mean_hop: compile-per-noise-point vs compile-once.
    let points = [
        QvNoise::with_e_cz(0.007),
        QvNoise::with_e_cz(0.012),
        QvNoise::with_e_cz(0.017),
    ];
    let cold_ns = time_ns(test_mode, || {
        let mut hop = 0.0;
        for p in &points {
            hop += score_compiled(black_box(&compiled), p).hop;
        }
        black_box(hop);
    });
    report("mean_hop/cold_score_per_point_x3", cold_ns);
    let warm_ns = time_ns(test_mode, || {
        let scores = score_compiled_many(black_box(&compiled), &points);
        black_box(scores[0].hop + scores[1].hop + scores[2].hop);
    });
    report("mean_hop/warm_score_compiled_many_x3", warm_ns);
    // Rate resolution alone (the stamp_noise replacement) for context.
    let rates_ns = time_ns(test_mode, || {
        black_box(resolve_rates(black_box(&compiled.circuit), &paper_noise));
    });
    report("mean_hop/resolve_rates", rates_ns);

    let traj_per_s = |ens_ns: f64| n_traj as f64 / (ens_ns * 1e-9);
    let speedup = walk_ns / plan_ns;
    let speedup_2q = walk_2q_ns / plan_2q_ns;
    println!(
        "\nthroughput: walk {:.0} traj/s → plan {:.0} traj/s ({speedup:.2}x, paper noise); \
         walk {:.0} traj/s → plan {:.0} traj/s ({speedup_2q:.2}x, 2q-only noise)",
        traj_per_s(walk_ns),
        traj_per_s(plan_ns),
        traj_per_s(walk_2q_ns),
        traj_per_s(plan_2q_ns),
    );

    let json = format!(
        "{{\n  \"bench\": \"trajectory\",\n  \"config\": {{ \"d\": 4, \"gate_set\": \"AshN(r=1.1)\", \
         \"e_cz\": 0.012, \"n_traj\": {n_traj}, \"seed\": {seed}, \"smoke\": {test_mode} }},\n  \
         \"circuit\": {{ \"gates\": {}, \"plan_ops_paper_noise\": {}, \"plan_ops_2q_noise\": {}, \
         \"plan_ops_pure\": {} }},\n  \"results\": {{\n    \"plan_build_us\": {:.3},\n    \
         \"run_pure_walk_us\": {:.3},\n    \"run_pure_plan_us\": {:.3},\n    \
         \"walk_traj_per_s_paper_noise\": {:.0},\n    \"plan_traj_per_s_paper_noise\": {:.0},\n    \
         \"speedup_paper_noise\": {:.3},\n    \"walk_traj_per_s_2q_noise\": {:.0},\n    \
         \"plan_traj_per_s_2q_noise\": {:.0},\n    \"speedup_2q_noise\": {:.3},\n    \
         \"score_per_point_x3_us\": {:.3},\n    \"score_compiled_many_x3_us\": {:.3}\n  }}\n}}\n",
        stamped.gates().len(),
        plan.ops().len(),
        plan_2q.ops().len(),
        plan_pure.ops().len(),
        build_ns / 1e3,
        pure_walk_ns / 1e3,
        pure_plan_ns / 1e3,
        traj_per_s(walk_ns),
        traj_per_s(plan_ns),
        speedup,
        traj_per_s(walk_2q_ns),
        traj_per_s(plan_2q_ns),
        speedup_2q,
        cold_ns / 1e3,
        warm_ns / 1e3,
    );
    write_baseline("trajectory", &json, test_mode);
}
