//! Deterministic parallel batch execution for trajectory/circuit ensembles.
//!
//! [`BatchRunner`] is a seeded front end over the workspace's one worker
//! pool, [`ashn_math::par::parallel_map`]: each job gets its own RNG stream
//! derived from the master seed and the job index alone, so results are
//! bit-identical for any worker count — the property the determinism suite
//! in `crates/sim/tests/determinism.rs` and the quantum-volume tests pin
//! down. Scheduling, panic propagation, the `core::par::task` failpoint
//! and the `core.par.jobs` counter all belong to the pool.

use ashn_math::par::{default_workers, parallel_map, resolve_workers};
use ashn_math::splitmix::mix64;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Fans indexed jobs across the worker pool with per-job deterministic
/// RNG streams.
///
/// # Examples
///
/// ```
/// use ashn_sim::BatchRunner;
/// use rand::Rng;
///
/// let sums: Vec<f64> = BatchRunner::new(7)
///     .with_workers(4)
///     .run(8, |_, rng| (0..100).map(|_| rng.gen::<f64>()).sum());
/// // Identical regardless of worker count:
/// let serial: Vec<f64> = BatchRunner::new(7)
///     .with_workers(1)
///     .run(8, |_, rng| (0..100).map(|_| rng.gen::<f64>()).sum());
/// assert_eq!(sums, serial);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct BatchRunner {
    master_seed: u64,
    workers: usize,
}

impl BatchRunner {
    /// A runner over the default worker count.
    pub fn new(master_seed: u64) -> Self {
        Self {
            master_seed,
            workers: default_workers(),
        }
    }

    /// Overrides the worker count (results do not depend on it); `0`
    /// means [`default_workers`], as everywhere on the pool
    /// ([`ashn_math::par`]).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = resolve_workers(workers);
        self
    }

    /// Configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The seed of job `index`'s RNG stream (a pure function of the master
    /// seed and the index — never of scheduling).
    pub fn job_seed(&self, index: usize) -> u64 {
        mix64(self.master_seed ^ mix64(index as u64))
    }

    /// Runs `n_jobs` jobs, each with its own seeded [`StdRng`], returning
    /// results in job order. Work is pulled from a shared counter, so
    /// stragglers do not serialize the batch.
    ///
    /// A panicking job does not kill the batch mid-flight: every other job
    /// still runs to completion, then the panic with the *lowest job index*
    /// is re-raised — independent of scheduling, so the observable behavior
    /// matches serial execution.
    pub fn run<T, F>(&self, n_jobs: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &mut StdRng) -> T + Sync,
    {
        parallel_map(self.workers, n_jobs, |i| {
            job(i, &mut StdRng::seed_from_u64(self.job_seed(i)))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn results_are_in_job_order() {
        let out = BatchRunner::new(1).with_workers(4).run(32, |i, _| i * 3);
        assert_eq!(out, (0..32).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let reference = BatchRunner::new(99)
            .with_workers(1)
            .run(16, |i, rng| (i, rng.gen::<u64>(), rng.gen::<f64>()));
        for workers in [2, 3, 8] {
            let got = BatchRunner::new(99)
                .with_workers(workers)
                .run(16, |i, rng| (i, rng.gen::<u64>(), rng.gen::<f64>()));
            assert_eq!(got, reference, "workers = {workers}");
        }
    }

    #[test]
    fn different_jobs_get_different_streams() {
        let runner = BatchRunner::new(5);
        let draws = runner.with_workers(2).run(8, |_, rng| rng.gen::<u64>());
        for i in 0..draws.len() {
            for j in i + 1..draws.len() {
                assert_ne!(draws[i], draws[j], "jobs {i} and {j} collided");
            }
        }
    }

    #[test]
    fn different_master_seeds_differ() {
        let a = BatchRunner::new(1).run(4, |_, rng| rng.gen::<u64>());
        let b = BatchRunner::new(2).run(4, |_, rng| rng.gen::<u64>());
        assert_ne!(a, b);
    }

    #[test]
    fn run_repropagates_the_lowest_indexed_panic() {
        let caught = std::panic::catch_unwind(|| {
            BatchRunner::new(1).with_workers(4).run(16, |i, _| {
                if i == 6 || i == 12 {
                    panic!("die {i}");
                }
                i
            })
        });
        let payload = caught.unwrap_err();
        let msg = payload.downcast_ref::<String>().cloned().unwrap();
        assert_eq!(msg, "die 6");
    }

    #[test]
    fn zero_jobs_is_empty() {
        let out: Vec<u64> = BatchRunner::new(3).run(0, |_, rng| rng.gen());
        assert!(out.is_empty());
    }

    #[test]
    fn zero_workers_means_default_and_env_overrides() {
        // Env manipulation is process-global, so every assertion touching
        // `default_workers()` lives in this one test (no cross-test race).
        let hardware = std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(1);
        std::env::remove_var("ASHN_WORKERS");
        assert_eq!(default_workers(), hardware);
        let runner = BatchRunner::new(0).with_workers(0);
        assert_eq!(runner.workers(), default_workers());

        std::env::set_var("ASHN_WORKERS", "3");
        assert_eq!(default_workers(), 3);
        assert_eq!(BatchRunner::new(0).with_workers(0).workers(), 3);
        std::env::set_var("ASHN_WORKERS", "0");
        assert_eq!(default_workers(), hardware);
        std::env::set_var("ASHN_WORKERS", "not-a-number");
        assert_eq!(default_workers(), hardware);
        std::env::remove_var("ASHN_WORKERS");
    }
}
