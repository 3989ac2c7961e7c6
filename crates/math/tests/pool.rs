//! The worker pool's contract under load: nested fan-out, panics, many
//! concurrent callers, and per-caller telemetry.
//!
//! Every test runs under a watchdog, so a pool that hangs fails the test
//! instead of wedging the run. No test asks for more than 16 workers.

use ashn_math::par::{describe_panic, parallel_for, parallel_map};
use ashn_telemetry::Registry;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

/// Runs `f` on its own thread and returns its result, failing the test if
/// it takes longer than `secs` seconds. A panic in `f` is re-raised here.
fn within<T: Send + 'static>(secs: u64, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(catch_unwind(AssertUnwindSafe(f)));
    });
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(Ok(value)) => value,
        Ok(Err(payload)) => resume_unwind(payload),
        Err(_) => panic!("the pool did not finish within {secs} s"),
    }
}

fn job_value(i: usize, j: usize) -> u64 {
    ((i * 8 + j) as f64).sqrt().to_bits()
}

#[test]
fn nested_fan_out_completes_and_matches_serial() {
    let serial: Vec<Vec<u64>> = (0..8)
        .map(|i| (0..8).map(|j| job_value(i, j)).collect())
        .collect();
    for workers in [2, 8] {
        let nested = within(60, move || {
            parallel_map(workers, 8, move |i| {
                parallel_map(workers, 8, move |j| job_value(i, j))
            })
        });
        assert_eq!(nested, serial, "workers = {workers}");
    }
}

#[test]
fn a_panicking_job_reraises_the_lowest_index_and_the_pool_survives() {
    within(60, || {
        for workers in [2, 4, 16] {
            let ran = AtomicUsize::new(0);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                parallel_for(workers, 32, |i| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    if i % 8 == 5 {
                        panic!("chunk {i}");
                    }
                })
            }));
            let payload = caught.expect_err("the panic must reach the caller");
            assert_eq!(describe_panic(payload.as_ref()), "chunk 5");
            assert_eq!(ran.load(Ordering::Relaxed), 32, "the other jobs still run");
            let next = parallel_map(workers, 32, |i| i * i);
            assert_eq!(next, (0..32).map(|i| i * i).collect::<Vec<_>>());
        }
    });
}

#[test]
fn concurrent_callers_each_get_their_results_in_index_order() {
    within(120, || {
        std::thread::scope(|scope| {
            for caller in 0..4usize {
                scope.spawn(move || {
                    let workers = [2, 3, 4, 8][caller];
                    for batch in 0..200usize {
                        let out = parallel_map(workers, 16, |i| (caller, batch, i));
                        let want: Vec<_> = (0..16).map(|i| (caller, batch, i)).collect();
                        assert_eq!(out, want, "caller {caller}, batch {batch}");
                    }
                });
            }
        });
    });
}

#[test]
fn jobs_report_to_the_callers_registry_only() {
    const COUNTER: &str = "pool_test.jobs";
    within(60, || {
        let first = Registry::new();
        {
            let _current = ashn_telemetry::install(&first);
            parallel_map(4, 64, |_| ashn_telemetry::current().add(COUNTER, 1));
        }
        let snap = first.snapshot();
        assert_eq!(snap.counter(COUNTER), Some(64));
        assert_eq!(snap.counter("core.par.jobs"), Some(64));
        assert_eq!(ashn_telemetry::global().snapshot().counter(COUNTER), None);

        let second = Registry::new();
        {
            let _current = ashn_telemetry::install(&second);
            parallel_map(4, 64, |_| ashn_telemetry::current().add(COUNTER, 1));
        }
        assert_eq!(second.snapshot().counter(COUNTER), Some(64));
        assert_eq!(
            first.snapshot().counter(COUNTER),
            Some(64),
            "a later batch must not report to an earlier caller's registry"
        );
        assert_eq!(ashn_telemetry::global().snapshot().counter(COUNTER), None);
    });
}

/// A panic payload whose destructor panics as well.
struct Bomb(usize);

impl Drop for Bomb {
    fn drop(&mut self) {
        panic!("payload {} panicked on drop", self.0);
    }
}

#[test]
fn payloads_that_panic_on_drop_reach_the_caller_intact() {
    within(60, || {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            parallel_for(2, 8, |i| {
                if i % 2 == 1 {
                    std::panic::panic_any(Bomb(i));
                }
            })
        }));
        let payload = caught.expect_err("the panic must reach the caller");
        let bomb = payload
            .downcast::<Bomb>()
            .expect("the lowest-indexed job's own payload, not a drop panic");
        assert_eq!(bomb.0, 1);
        std::mem::forget(bomb);
        assert_eq!(parallel_map(2, 8, |i| i), (0..8).collect::<Vec<_>>());
    });
}
