//! The workspace's one deterministic worker pool.
//!
//! Scoped workers pull indexed jobs from a shared counter and results come
//! back in index order, so whenever every job is a pure function of its
//! index the output is bit-identical for any worker count. Every parallel
//! fan-out in the stack runs here: the EA multistart and `CompileService`
//! through `ashn_core::par` (a re-export of this module), and the
//! trajectory ensembles, `ashn-qv` experiments and paper-figure bins
//! through `ashn_sim::BatchRunner`, which only adds per-job seeded RNG
//! streams on top of [`parallel_map`].
//!
//! **Zero workers means "use the default"** ([`default_workers`], which
//! honors `ASHN_WORKERS`). This is the canonical statement of the
//! convention: `BatchRunner::with_workers`, the bench binaries' `--workers
//! 0` flag, the batched experiment and trajectory APIs and
//! `CompileService::workers` all defer here rather than restating it.
//!
//! Every job runs under the `core::par::task` failpoint, and each batch
//! adds its job count to the `core.par.jobs` telemetry counter.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// The default worker count: the `ASHN_WORKERS` environment variable when
/// set to a positive integer, otherwise one per available hardware thread.
///
/// `ASHN_WORKERS=0`, unset, or unparsable all mean the hardware default.
/// Constrained CI runners export the variable once instead of threading
/// `--workers` through every binary.
pub fn default_workers() -> usize {
    let configured = std::env::var("ASHN_WORKERS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok());
    match configured {
        Some(w) if w > 0 => w,
        _ => std::thread::available_parallelism()
            .map(|v| v.get())
            .unwrap_or(1),
    }
}

/// The worker count a request of `workers` runs on: `workers` itself, or
/// [`default_workers`] for `0`.
pub fn resolve_workers(workers: usize) -> usize {
    if workers == 0 {
        default_workers()
    } else {
        workers
    }
}

/// Maps `f` over `0..n` with up to `workers` scoped threads (`0` =
/// [`default_workers`]), returning results in index order. One worker (or
/// one job) runs inline with no thread spawned.
///
/// A panicking job does not kill the batch mid-flight: every other job
/// still runs to completion, then the panic with the *lowest index* is
/// re-raised — independent of scheduling, so the observable behavior
/// matches serial execution.
pub fn parallel_map<T, F>(workers: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut first_panic: Option<Box<dyn Any + Send>> = None;
    let results: Vec<T> = run_caught(workers, n, f)
        .into_iter()
        .filter_map(|r| match r {
            Ok(t) => Some(t),
            Err(caught) => {
                // Keep the lowest-indexed payload (results arrive in index
                // order) so the propagated panic is scheduling-independent.
                if first_panic.is_none() {
                    first_panic = Some(caught.payload);
                }
                None
            }
        })
        .collect();
    if let Some(payload) = first_panic {
        resume_unwind(payload);
    }
    results
}

/// A worker panic caught at a parallel-map task boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TaskPanic {
    /// Index of the job that panicked.
    pub index: usize,
    /// The panic message, as rendered by [`describe_panic`].
    pub detail: String,
}

/// [`parallel_map`] with per-job panic isolation: a panicking job yields
/// `Err(TaskPanic)` at its own index instead of tearing down the batch, and
/// every surviving job's result is bit-identical to what [`parallel_map`]
/// would have produced. This is the workspace's one isolating boundary;
/// the compile service builds its "one bad target never kills a batch"
/// guarantee on it.
pub fn parallel_map_isolated<T, F>(workers: usize, n: usize, f: F) -> Vec<Result<T, TaskPanic>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_caught(workers, n, f)
        .into_iter()
        .enumerate()
        .map(|(index, r)| {
            r.map_err(|caught| TaskPanic {
                index,
                detail: caught.detail,
            })
        })
        .collect()
}

struct Caught {
    payload: Box<dyn Any + Send>,
    detail: String,
}

/// The message of a caught panic payload: the `&str` or `String` it
/// carries, else a fixed placeholder.
pub fn describe_panic(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Shared engine of [`parallel_map`] and [`parallel_map_isolated`]: maps
/// `f` over `0..n` in index order, catching each job's panic at the task
/// boundary.
fn run_caught<T, F>(workers: usize, n: usize, f: F) -> Vec<Result<T, Caught>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let run_one = |i: usize| -> Result<T, Caught> {
        catch_unwind(AssertUnwindSafe(|| {
            if crate::failpoint!("core::par::task") {
                panic!("injected fault: core::par::task (job {i})");
            }
            f(i)
        }))
        .map_err(|payload| {
            let detail = describe_panic(payload.as_ref());
            Caught { payload, detail }
        })
    };
    let workers = resolve_workers(workers).min(n.max(1));
    if n > 0 {
        // One bulk add per batch, not per job — hot-loop overhead stays nil.
        ashn_telemetry::current().add("core.par.jobs", n as u64);
    }
    if workers <= 1 || n <= 1 {
        return (0..n).map(run_one).collect();
    }
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, Result<T, Caught>)>> = Mutex::new(Vec::with_capacity(n));
    // Workers record telemetry into whichever registry the *spawning*
    // thread had current, so per-batch registries see their own jobs.
    let telemetry = ashn_telemetry::current();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let _telemetry = ashn_telemetry::install(&telemetry);
                let mut local: Vec<(usize, Result<T, Caught>)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local.push((i, run_one(i)));
                }
                // Jobs cannot poison this mutex (panics are caught above);
                // recover anyway so an isolated batch never wedges.
                collected
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .extend(local);
            });
        }
    });
    let mut results = collected
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    results.sort_by_key(|(i, _)| *i);
    debug_assert_eq!(results.len(), n);
    results.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order() {
        let out = parallel_map(4, 32, |i| i * 7);
        assert_eq!(out, (0..32).map(|i| i * 7).collect::<Vec<_>>());
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let reference = parallel_map(1, 16, |i| (i as f64).sqrt().to_bits());
        for workers in [2, 3, 8] {
            let got = parallel_map(workers, 16, |i| (i as f64).sqrt().to_bits());
            assert_eq!(got, reference, "workers = {workers}");
        }
    }

    #[test]
    fn zero_jobs_is_empty() {
        let out: Vec<usize> = parallel_map(4, 0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn zero_workers_means_default() {
        let out = parallel_map(0, 8, |i| i + 1);
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn isolated_map_converts_panics_to_errors_in_place() {
        for workers in [1, 4] {
            let out = parallel_map_isolated(workers, 16, |i| {
                if i % 5 == 3 {
                    panic!("boom at {i}");
                }
                i * 2
            });
            assert_eq!(out.len(), 16);
            for (i, r) in out.iter().enumerate() {
                if i % 5 == 3 {
                    let p = r.as_ref().unwrap_err();
                    assert_eq!(p.index, i);
                    assert_eq!(p.detail, format!("boom at {i}"));
                } else {
                    assert_eq!(*r.as_ref().unwrap(), i * 2, "survivor {i} changed");
                }
            }
        }
    }

    #[test]
    fn isolated_map_without_panics_matches_parallel_map() {
        let plain = parallel_map(3, 12, |i| (i as f64).sin().to_bits());
        let isolated = parallel_map_isolated(3, 12, |i| (i as f64).sin().to_bits());
        let unwrapped: Vec<u64> = isolated.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(plain, unwrapped);
    }

    #[test]
    fn parallel_map_still_propagates_the_lowest_indexed_panic() {
        let caught = std::panic::catch_unwind(|| {
            parallel_map(4, 8, |i| {
                if i >= 2 {
                    panic!("die {i}");
                }
                i
            })
        });
        let payload = caught.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(msg, "die 2", "must re-raise the lowest-indexed panic");
    }
}
