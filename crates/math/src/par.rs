//! The workspace's one worker pool.
//!
//! Every parallel fan-out in the stack runs here: `CompileService`
//! through `ashn_core::par` (a re-export of this module), the trajectory
//! ensembles, `ashn-qv` experiments and paper-figure bins
//! through `ashn_sim::BatchRunner`, which only adds per-job seeded RNG
//! streams on top of [`parallel_map`], and the chunked statevector kernels
//! of `ashn_sim`, which split each plan op through [`parallel_for`].
//!
//! Jobs are indexed and results come back in index order, so whenever
//! every job is a pure function of its index the output is bit-identical
//! for any worker count.
//!
//! **The pool is long-lived.** Helper threads start on first demand and
//! never exit. A batch of `workers` runs on the calling thread plus at most
//! `workers − 1` helpers, so the helper count only ever grows to the
//! largest `min(workers, jobs) − 1` requested so far. An idle helper polls
//! for work for a short spin window, then blocks on a condvar: back-to-back
//! plan ops arrive microseconds apart, while a condvar wake-up can cost
//! tens of microseconds and spawning a thread costs hundreds. The caller always runs
//! jobs of its own batch and waits only for jobs that a running helper has
//! already claimed, so a job may fan out again from inside a pool job
//! without ever waiting for a free helper.
//!
//! **Zero workers means "use the default"** ([`default_workers`], which
//! honors `ASHN_WORKERS`). This is the canonical statement of the
//! convention: `BatchRunner::with_workers`, the bench binaries' `--workers
//! 0` flag, the batched experiment and trajectory APIs and
//! `CompileService::workers` all defer here rather than restating it.
//!
//! Every [`parallel_map`] job runs under the `core::par::task` failpoint,
//! and each such batch adds its job count to the `core.par.jobs` telemetry
//! counter. Pool jobs report to the registry that was current on the
//! calling thread, whichever thread runs them.

use ashn_telemetry::Registry;
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// How long an idle helper, or a caller waiting for its batch's last jobs,
/// polls before it blocks on a condvar.
///
/// Polling yields the CPU on every round rather than spinning on the
/// `pause` hint: on a 2-vCPU x86-64 VM a `pause` loop on one vCPU halved
/// the throughput of a compute loop on the other, and a `yield_now` loop
/// left it unchanged.
const SPIN: Duration = Duration::from_micros(100);

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

/// Maps `f` over `0..n` on up to `workers` threads of the pool (`0` =
/// [`default_workers`]), returning results in index order. One worker (or
/// one job) runs inline on the calling thread.
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

/// Runs `job(i)` for every `i` in `0..n` on up to `workers` threads of the
/// pool (`0` = [`default_workers`]) and returns once every job has
/// finished. One worker (or one job) runs inline on the calling thread.
///
/// This is the bare entry point under [`parallel_map`]: jobs run without
/// the `core::par::task` failpoint and add nothing to `core.par.jobs`, so
/// per-op kernel sweeps pay only for the fan-out itself. A panicking job
/// does not stop the others from running; once all have finished, the
/// panic with the lowest index is re-raised on the caller.
pub fn parallel_for<F>(workers: usize, n: usize, job: F)
where
    F: Fn(usize) + Sync,
{
    let workers = resolve_workers(workers).min(n);
    if workers <= 1 {
        (0..n).for_each(job);
        return;
    }
    pool().run(workers, n, &job);
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
    if n > 0 {
        // One bulk add per batch, not per job — hot-loop overhead stays nil.
        ashn_telemetry::current().add("core.par.jobs", n as u64);
    }
    let slots: Vec<Mutex<Option<Result<T, Caught>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    parallel_for(workers, n, |i| *lock(&slots[i]) = Some(run_one(i)));
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .expect("the pool runs every job of a batch")
        })
        .collect()
}

/// Locks `m`, recovering from poisoning: no pool lock is held across user
/// code, so a poisoned lock still guards consistent state.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A job as the pool stores it: the caller's closure with its lifetime
/// erased (see [`Batch::run_jobs`] for why it is live whenever used).
type Job = dyn Fn(usize) + Sync;

/// The process-wide pool.
fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool {
        state: Mutex::new(PoolState {
            queue: VecDeque::new(),
            helpers: 0,
            parked: 0,
        }),
        wake: Condvar::new(),
        queued: AtomicUsize::new(0),
    })
}

struct Pool {
    state: Mutex<PoolState>,
    /// Parked helpers wait here for a submitted batch.
    wake: Condvar,
    /// `state.queue.len()`, read without the lock by spinning helpers. It is
    /// only a hint that publishes no data (a helper that sees it non-zero
    /// then reads the queue under the lock), so every access is `Relaxed`.
    queued: AtomicUsize,
}

struct PoolState {
    /// Batches with unclaimed jobs and free helper slots, oldest first.
    queue: VecDeque<Arc<Batch>>,
    /// Helpers started so far; they never exit.
    helpers: usize,
    /// Helpers blocked on [`Pool::wake`].
    parked: usize,
}

/// One submitted call of [`parallel_for`].
struct Batch {
    job: *const Job,
    n: usize,
    /// The next unclaimed job index; `n` or more once every job is claimed.
    next: AtomicUsize,
    /// Jobs not yet finished; reaches zero exactly once.
    unfinished: AtomicUsize,
    /// Helpers that may still join; changed only under the pool lock.
    slots: AtomicUsize,
    /// The lowest-indexed panic caught so far, with its index.
    panic: Mutex<Option<(usize, Box<dyn Any + Send>)>>,
    done: Mutex<bool>,
    done_cv: Condvar,
    /// The caller's current registry, installed on helpers while they run
    /// jobs of this batch.
    telemetry: Registry,
}

// SAFETY: `job` points at a `Sync` closure, so calling it from several
// threads at once is sound; when the pointer may be dereferenced is argued
// at its one use, in `run_jobs`. `n` is immutable; `next`, `unfinished` and
// `slots` are atomics; `panic` holds `Send` payloads behind a `Mutex`;
// `done`/`done_cv` are a `Mutex`/`Condvar` pair; `Registry` is `Send + Sync`.
unsafe impl Send for Batch {}
unsafe impl Sync for Batch {}

impl Pool {
    /// Runs `job` over `0..n` on this thread plus up to `workers − 1`
    /// helpers (`2 ≤ workers ≤ n`), re-raising the lowest-indexed panic.
    fn run(&'static self, workers: usize, n: usize, job: &(dyn Fn(usize) + Sync + '_)) {
        // SAFETY: this only erases the closure's lifetime; the layout of
        // the fat pointer is unchanged. `run_jobs` argues why the closure
        // is still alive whenever the pointer is dereferenced.
        let job =
            unsafe { std::mem::transmute::<*const (dyn Fn(usize) + Sync + '_), *const Job>(job) };
        let helpers = workers - 1;
        let batch = Arc::new(Batch {
            job,
            n,
            next: AtomicUsize::new(0),
            unfinished: AtomicUsize::new(n),
            slots: AtomicUsize::new(helpers),
            panic: Mutex::new(None),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            telemetry: ashn_telemetry::current(),
        });
        {
            let mut state = lock(&self.state);
            self.grow(&mut state, helpers);
            state.queue.push_back(Arc::clone(&batch));
            self.queued.store(state.queue.len(), Ordering::Relaxed);
            for _ in 0..helpers.min(state.parked) {
                self.wake.notify_one();
            }
        }
        batch.run_jobs();
        // Every job is claimed now. Unless a helper took the last slot (and
        // with it the queue entry), withdraw the batch: idle helpers stop
        // finding it, and if no helper could be started nothing else would.
        if batch.slots.load(Ordering::Relaxed) > 0 {
            let mut state = lock(&self.state);
            state.queue.retain(|queued| !Arc::ptr_eq(queued, &batch));
            self.queued.store(state.queue.len(), Ordering::Relaxed);
        }
        batch.wait();
        let panic = lock(&batch.panic).take();
        if let Some((_, payload)) = panic {
            resume_unwind(payload);
        }
    }

    /// Starts helpers until there are `helpers` of them. A failed spawn is
    /// not an error: the caller runs whatever no helper takes.
    ///
    /// Helpers are detached on purpose: they serve the whole process and
    /// are never joined. Nothing unwinds out of [`Pool::help`], since
    /// `run_jobs` catches every job's panic.
    fn grow(&'static self, state: &mut PoolState, helpers: usize) {
        while state.helpers < helpers {
            let spawned = std::thread::Builder::new()
                .name(format!("ashn-pool-{}", state.helpers))
                .spawn(move || self.help());
            if spawned.is_err() {
                break;
            }
            state.helpers += 1;
        }
    }

    /// A helper's life: join a batch and run its jobs, then spin briefly
    /// for the next one, then park.
    fn help(&'static self) {
        loop {
            if let Some(batch) = self.join() {
                let _telemetry = ashn_telemetry::install(&batch.telemetry);
                batch.run_jobs();
                continue;
            }
            let spin_start = Instant::now();
            while self.queued.load(Ordering::Relaxed) == 0 && spin_start.elapsed() < SPIN {
                std::thread::yield_now();
            }
            let mut state = lock(&self.state);
            while state.queue.is_empty() {
                state.parked += 1;
                state = self
                    .wake
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
                state.parked -= 1;
            }
        }
    }

    /// Takes a helper slot in the oldest batch that still has unclaimed
    /// jobs, dropping batches that are full or exhausted from the queue.
    fn join(&self) -> Option<Arc<Batch>> {
        let mut state = lock(&self.state);
        let mut joined = None;
        while let Some(batch) = state.queue.front() {
            let slots = batch.slots.load(Ordering::Relaxed);
            if slots > 0 && batch.next.load(Ordering::Relaxed) < batch.n {
                batch.slots.store(slots - 1, Ordering::Relaxed);
                joined = Some(Arc::clone(batch));
                if slots == 1 {
                    state.queue.pop_front();
                }
                break;
            }
            state.queue.pop_front();
        }
        self.queued.store(state.queue.len(), Ordering::Relaxed);
        joined
    }
}

impl Batch {
    /// Claims and runs jobs until none is left unclaimed.
    fn run_jobs(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                return;
            }
            // SAFETY: the caller that submitted this batch does not return
            // from `Pool::run`, and so keeps the closure alive, until
            // `unfinished` reaches zero. Job `i` was just claimed and has not
            // finished, so `unfinished ≥ 1` until the `fetch_sub` below,
            // after which this thread does not touch `job` again. A helper
            // that still holds the `Arc<Batch>` after the caller returned
            // claims only indices `≥ n` and returns above without reading
            // `job`.
            let job = unsafe { &*self.job };
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| job(i))) {
                let mut first = lock(&self.panic);
                let discarded = if first.as_ref().is_none_or(|(j, _)| i < *j) {
                    first.replace((i, payload)).map(|(_, p)| p)
                } else {
                    Some(payload)
                };
                // A payload's destructor may panic too. Leak the payloads
                // that lose instead of dropping them, so that nothing unwinds
                // out of here before the `fetch_sub` below: a helper must not
                // die holding a job, nor a caller return while helpers run.
                std::mem::forget(discarded);
            }
            // Release publishes this job's writes; the caller's `Acquire`
            // load in `wait` reads the last decrement, and through the chain
            // of decrements sees every job's writes.
            if self.unfinished.fetch_sub(1, Ordering::AcqRel) == 1 {
                *lock(&self.done) = true;
                self.done_cv.notify_all();
            }
        }
    }

    /// Waits until every job has finished: spins first, then blocks.
    fn wait(&self) {
        let spin_start = Instant::now();
        while self.unfinished.load(Ordering::Acquire) != 0 {
            if spin_start.elapsed() >= SPIN {
                let mut done = lock(&self.done);
                while !*done {
                    done = self
                        .done_cv
                        .wait(done)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                return;
            }
            std::thread::yield_now();
        }
    }
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
    fn helpers_grow_only_to_the_largest_request() {
        // No unit test in this crate asks for more than 8 workers.
        parallel_map(8, 16, |i| i);
        let helpers = lock(&pool().state).helpers;
        assert!(helpers <= 7, "{helpers} helpers for at most 8 workers");
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
