//! Size-axis scaling sweep: simulation cost vs register width, n = 8…24.
//!
//! For each n the same layered circuit shape (dense/diagonal/Pauli 1q on
//! every wire, dense/CZ/ZZ entanglers on adjacent pairs plus one far pair)
//! is compiled to an [`ExecPlan`] and executed two ways:
//!
//! * **scalar** — [`ChunkPolicy::scalar`], the single-threaded kernel path;
//! * **threaded** — [`ChunkPolicy::auto`], amplitude-parallel chunked
//!   kernels on registers at or above
//!   [`ChunkPolicy::MIN_PARALLEL_QUBITS`] (worker count from
//!   [`ashn_math::par::default_workers`], so `ASHN_WORKERS` applies).
//!
//! Reported per row: time per circuit gate (pure run) and trajectories per
//! second (noisy ensemble), both paths. Before any timing the sweep
//! asserts the chunked-kernel determinism contract — output probabilities
//! **bit-identical** at 1 / 2 / 8 workers for every parallel-eligible n —
//! and, on machines with ≥ 4 cores, that the threaded path is ≥ 2x faster
//! per gate than scalar at n = 22.
//!
//! Writes `BENCH_scaling.json` at the workspace root as the committed
//! baseline. Run `cargo bench -p ashn-bench --bench scaling` (add `--test`
//! for the single-iteration CI smoke mode, which sweeps a reduced size set
//! and leaves the baseline untouched).

use ashn_bench::{bench_args, write_baseline};
use ashn_math::randmat::haar_unitary;
use ashn_math::{c, CMat, Complex};
use ashn_sim::plan::ExecPlan;
use ashn_sim::{ChunkPolicy, Circuit, Instruction, NoiseModel, SimEngine};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;

fn cz() -> CMat {
    CMat::diag(&[Complex::ONE, Complex::ONE, Complex::ONE, c(-1.0, 0.0)])
}

fn zz(theta: f64) -> CMat {
    CMat::diag(&[
        Complex::cis(theta),
        Complex::cis(-theta),
        Complex::cis(-theta),
        Complex::cis(theta),
    ])
}

/// The swept circuit: one 1q gate per wire (cycling dense / diagonal /
/// Pauli-X), one entangler per adjacent pair (cycling dense / CZ / ZZ),
/// and a far-pair dense entangler `(n-1, 0)` — every kernel class, every
/// chunk-boundary shape, `n + n/2 + 1` gates in all. With `noisy` set the
/// entanglers carry a 1% depolarizing annotation (trajectory mode).
fn scaling_circuit(n: usize, noisy: bool, rng: &mut StdRng) -> Circuit {
    let mut circuit = Circuit::new(n);
    circuit.phase = Complex::cis(rng.gen::<f64>());
    for q in 0..n {
        let m = match q % 3 {
            0 => haar_unitary(2, rng),
            1 => CMat::diag(&[
                Complex::cis(rng.gen::<f64>()),
                Complex::cis(rng.gen::<f64>()),
            ]),
            _ => CMat::from_rows_f64(&[&[0.0, 1.0], &[1.0, 0.0]]),
        };
        circuit.push(Instruction::new(vec![q], m, "1q"));
    }
    let entangle = |c: &mut Circuit, pair: Vec<usize>, m: CMat| {
        let g = Instruction::new(pair, m, "2q");
        c.push(if noisy { g.with_error_rate(0.01) } else { g });
    };
    for (k, q) in (0..n - 1).step_by(2).enumerate() {
        let m = match k % 3 {
            0 => haar_unitary(4, rng),
            1 => cz(),
            _ => zz(rng.gen::<f64>()),
        };
        entangle(&mut circuit, vec![q, q + 1], m);
    }
    let far = haar_unitary(4, rng);
    entangle(&mut circuit, vec![n - 1, 0], far);
    circuit
}

/// Wall-clock ns per call, adaptively repeated: one estimation call, then
/// enough repeats for ~300 ms of timed work (capped at 64). Single call in
/// smoke mode.
fn time_run(test_mode: bool, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    f();
    let first = start.elapsed().as_nanos().max(1);
    if test_mode {
        return first as f64;
    }
    let reps = (300_000_000 / first).clamp(1, 64) as u32;
    let start = Instant::now();
    for _ in 0..reps {
        f();
    }
    start.elapsed().as_nanos() as f64 / f64::from(reps)
}

struct Row {
    n: usize,
    gates: usize,
    plan_ops: usize,
    workers: usize,
    scalar_gate_us: f64,
    threaded_gate_us: f64,
    scalar_traj_per_s: f64,
    threaded_traj_per_s: f64,
}

fn main() {
    let (test_mode, args) = bench_args();
    let seed: u64 = args.get("seed", 42);
    let sizes: Vec<usize> = if test_mode {
        vec![8, 12, 16]
    } else {
        (8..=24).step_by(2).collect()
    };
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "scaling sweep: n = {:?} | {cores} core(s) | default workers = {}\n",
        sizes,
        ashn_math::par::default_workers()
    );

    let mut rows = Vec::new();
    println!(
        "{:>4} {:>6} {:>8} | {:>16} {:>16} | {:>14} {:>14}",
        "n",
        "gates",
        "plan_ops",
        "scalar µs/gate",
        "threaded µs/gate",
        "scalar traj/s",
        "thread traj/s"
    );
    for &n in &sizes {
        let mut rng = StdRng::seed_from_u64(seed ^ n as u64);
        let circuit = scaling_circuit(n, false, &mut rng);
        let noisy = scaling_circuit(n, true, &mut rng);
        let gates = circuit.gates().len();
        let plan = ExecPlan::pure(&circuit).expect("plans");
        let noisy_plan = ExecPlan::build(&noisy, &NoiseModel::NOISELESS).expect("plans");

        // Determinism gate before any timing: bit-identical output
        // probabilities at 1 / 2 / 8 workers wherever chunking engages.
        if n >= ChunkPolicy::MIN_PARALLEL_QUBITS {
            let probs = |workers: usize| {
                let mut engine =
                    SimEngine::new(n).with_chunk_policy(ChunkPolicy::with_workers(workers));
                engine.run_plan(&plan);
                engine
                    .probabilities()
                    .iter()
                    .map(|p| p.to_bits())
                    .collect::<Vec<u64>>()
            };
            let reference = probs(1);
            for workers in [2usize, 8] {
                assert!(
                    probs(workers) == reference,
                    "n={n}: probabilities diverged at {workers} workers"
                );
            }
        }

        let mut scalar = SimEngine::new(n).with_chunk_policy(ChunkPolicy::scalar());
        let mut threaded = SimEngine::new(n).with_chunk_policy(ChunkPolicy::auto());
        let scalar_ns = time_run(test_mode, || {
            black_box(scalar.run_plan(black_box(&plan)).amplitudes()[0]);
        });
        let threaded_ns = time_run(test_mode, || {
            black_box(threaded.run_plan(black_box(&plan)).amplitudes()[0]);
        });

        // Trajectory throughput: K noisy trajectories per timed call, K
        // scaled down with the register so big sizes stay tractable.
        let k = if test_mode {
            1
        } else if n <= 14 {
            16
        } else if n <= 18 {
            4
        } else {
            2
        };
        let mut rng_s = StdRng::seed_from_u64(seed);
        let scalar_traj_ns = time_run(test_mode, || {
            for _ in 0..k {
                black_box(
                    scalar
                        .run_plan_trajectory(black_box(&noisy_plan), &mut rng_s)
                        .amplitudes()[0],
                );
            }
        });
        let mut rng_t = StdRng::seed_from_u64(seed);
        let threaded_traj_ns = time_run(test_mode, || {
            for _ in 0..k {
                black_box(
                    threaded
                        .run_plan_trajectory(black_box(&noisy_plan), &mut rng_t)
                        .amplitudes()[0],
                );
            }
        });

        let row = Row {
            n,
            gates,
            plan_ops: plan.ops().len(),
            workers: ChunkPolicy::auto().effective_workers(n),
            scalar_gate_us: scalar_ns / gates as f64 / 1e3,
            threaded_gate_us: threaded_ns / gates as f64 / 1e3,
            scalar_traj_per_s: k as f64 / (scalar_traj_ns * 1e-9),
            threaded_traj_per_s: k as f64 / (threaded_traj_ns * 1e-9),
        };
        println!(
            "{:>4} {:>6} {:>8} | {:>16.3} {:>16.3} | {:>14.1} {:>14.1}",
            row.n,
            row.gates,
            row.plan_ops,
            row.scalar_gate_us,
            row.threaded_gate_us,
            row.scalar_traj_per_s,
            row.threaded_traj_per_s,
        );

        // The headline claim, asserted where the hardware can back it: on
        // ≥ 4 cores the chunked path must at least halve time-per-gate on
        // a 22-qubit register.
        if n == 22 && cores >= 4 && !test_mode {
            let speedup = row.scalar_gate_us / row.threaded_gate_us;
            assert!(
                speedup >= 2.0,
                "threaded path only {speedup:.2}x faster at n=22 on {cores} cores"
            );
        }
        rows.push(row);
    }

    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{ \"n\": {}, \"gates\": {}, \"plan_ops\": {}, \"workers\": {}, \
                 \"scalar_us_per_gate\": {:.3}, \"threaded_us_per_gate\": {:.3}, \
                 \"scalar_traj_per_s\": {:.1}, \"threaded_traj_per_s\": {:.1} }}",
                r.n,
                r.gates,
                r.plan_ops,
                r.workers,
                r.scalar_gate_us,
                r.threaded_gate_us,
                r.scalar_traj_per_s,
                r.threaded_traj_per_s,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"scaling\",\n  \"config\": {{ \"seed\": {seed}, \"cores\": {cores}, \
         \"smoke\": {test_mode} }},\n  \"rows\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n")
    );
    write_baseline("scaling", &json, test_mode);
}
