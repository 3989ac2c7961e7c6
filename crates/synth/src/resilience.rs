//! Retry and deadline budgets for synthesis on any [`Basis`]: the
//! synthesis-side half of the service resilience story.
//!
//! [`synthesize_resilient`] drives a basis through an escalating retry
//! schedule (each attempt widens the EA multistart with a deterministically
//! derived jitter seed), enforces a per-request deadline budget, and
//! converts panics escaping the basis into [`SynthError::WorkerPanic`].
//! When every attempt fails it surfaces the last error: degradation to the
//! exact CNOT tier belongs to the compile service alone, which degrades per
//! target after verification.

use ashn_ir::{Basis, Circuit, SynthEffort, SynthError};
use ashn_math::par::describe_panic;
use ashn_math::splitmix::mix64;
use ashn_math::CMat;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// How hard to try before giving up.
///
/// The default policy — one attempt, no deadline — makes
/// [`synthesize_resilient`] behave exactly like `basis.synthesize(u)`.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total synthesis attempts (≥ 1). Attempt `k` (0-based) runs with
    /// [`SynthEffort::attempt`]` = k`, so retries escalate rather than
    /// repeat the failing search verbatim.
    pub max_attempts: u32,
    /// Wall-clock budget for the whole request, including retries. `None`
    /// never reads the clock, preserving bit-identical results.
    pub deadline: Option<Duration>,
    /// Base seed for the per-attempt jitter streams. Two calls with equal
    /// seeds replay the same retry schedule exactly.
    pub retry_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 1,
            deadline: None,
            retry_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// Policy with `max_attempts` escalating attempts.
    #[must_use]
    pub fn with_attempts(mut self, max_attempts: u32) -> Self {
        self.max_attempts = max_attempts.max(1);
        self
    }

    /// Policy with a wall-clock budget for the whole request.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Policy with a different retry-seed stream.
    #[must_use]
    pub fn with_retry_seed(mut self, retry_seed: u64) -> Self {
        self.retry_seed = retry_seed;
        self
    }
}

/// A successful resilient synthesis, with provenance.
#[derive(Clone, Debug)]
pub struct ResilientOutcome {
    /// The synthesized circuit.
    pub circuit: Circuit,
    /// Attempts consumed (1 = first try succeeded).
    pub attempts: u32,
}

/// Synthesizes `u` with retries, a deadline budget, and panic containment.
///
/// Retry attempt `k` calls
/// [`Basis::synthesize_with_effort`] with `attempt = k` and a jitter seed
/// derived from `policy.retry_seed` via splitmix64 — deterministic, and
/// distinct per attempt. A panic inside the basis is caught and treated as
/// a retriable [`SynthError::WorkerPanic`]. Once the deadline budget is
/// exhausted no further attempts start, and an in-flight EA search aborts
/// at its next wave boundary.
///
/// # Errors
///
/// The last basis error when all attempts fail or the target is rejected
/// as invalid; [`SynthError::DeadlineExceeded`] when the budget expired
/// first.
pub fn synthesize_resilient<B: Basis + ?Sized>(
    basis: &B,
    u: &CMat,
    policy: &RetryPolicy,
) -> Result<ResilientOutcome, SynthError> {
    let telemetry = ashn_telemetry::current();
    let deadline = policy.deadline.map(|d| Instant::now() + d);
    let max_attempts = policy.max_attempts.max(1);
    let mut last_err = None;
    for attempt in 0..max_attempts {
        if let Some(d) = deadline {
            if Instant::now() >= d {
                last_err = Some(SynthError::DeadlineExceeded {
                    basis: basis.name(),
                    detail: format!("budget exhausted before attempt {}", attempt + 1),
                });
                break;
            }
        }
        let effort = SynthEffort {
            attempt,
            jitter_seed: mix64(policy.retry_seed ^ u64::from(attempt)),
            deadline,
        };
        if attempt > 0 {
            telemetry.add("synth.resilience.retries", 1);
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| basis.synthesize_with_effort(u, effort)));
        match outcome {
            Ok(Ok(circuit)) => {
                return Ok(ResilientOutcome {
                    circuit,
                    attempts: attempt + 1,
                });
            }
            // Retrying cannot fix a malformed target.
            Ok(Err(e @ SynthError::InvalidTarget { .. })) => return Err(e),
            Ok(Err(e @ SynthError::DeadlineExceeded { .. })) => {
                last_err = Some(e);
                break;
            }
            Ok(Err(e)) => last_err = Some(e),
            Err(payload) => {
                telemetry.add("synth.resilience.panics_caught", 1);
                last_err = Some(SynthError::WorkerPanic {
                    detail: describe_panic(payload.as_ref()),
                });
            }
        }
    }
    Err(last_err.unwrap_or_else(|| SynthError::Convergence {
        basis: basis.name(),
        detail: "no synthesis attempt ran".into(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::{AshnBasis, CnotBasis};
    use ashn_math::randmat::haar_unitary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A basis that fails (or panics) a fixed number of times before
    /// delegating to CNOT synthesis.
    struct Flaky {
        fail_first: u32,
        panic_instead: bool,
        calls: std::sync::atomic::AtomicU32,
    }

    impl Flaky {
        fn new(fail_first: u32, panic_instead: bool) -> Self {
            Self {
                fail_first,
                panic_instead,
                calls: std::sync::atomic::AtomicU32::new(0),
            }
        }
    }

    impl Basis for Flaky {
        fn name(&self) -> String {
            "flaky".into()
        }

        fn synthesize(&self, u: &CMat) -> Result<Circuit, SynthError> {
            let n = self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            if n < self.fail_first {
                if self.panic_instead {
                    panic!("flaky basis blew up on call {n}");
                }
                return Err(SynthError::Convergence {
                    basis: "flaky".into(),
                    detail: format!("transient failure {n}"),
                });
            }
            CnotBasis.synthesize(u)
        }

        fn expected_entanglers(&self, u: &CMat) -> usize {
            CnotBasis.expected_entanglers(u)
        }
    }

    fn target() -> CMat {
        let mut rng = StdRng::seed_from_u64(91);
        haar_unitary(4, &mut rng)
    }

    #[test]
    fn first_try_success_matches_plain_synthesis() {
        let u = target();
        let direct = CnotBasis.synthesize(&u).unwrap();
        let out = synthesize_resilient(&CnotBasis, &u, &RetryPolicy::default()).unwrap();
        assert_eq!(out.attempts, 1);
        assert_eq!(format!("{:?}", out.circuit), format!("{direct:?}"));
    }

    #[test]
    fn transient_errors_are_retried_until_success() {
        let u = target();
        let flaky = Flaky::new(2, false);
        let policy = RetryPolicy::default().with_attempts(4);
        let out = synthesize_resilient(&flaky, &u, &policy).unwrap();
        assert_eq!(out.attempts, 3);
        assert!(out.circuit.error(&u) < 1e-9);
    }

    #[test]
    fn panics_are_contained_and_retried() {
        let u = target();
        let flaky = Flaky::new(1, true);
        let policy = RetryPolicy::default().with_attempts(2);
        let out = synthesize_resilient(&flaky, &u, &policy).unwrap();
        assert_eq!(out.attempts, 2);
        assert!(out.circuit.error(&u) < 1e-9);
    }

    #[test]
    fn exhausted_retries_surface_the_last_error() {
        let u = target();
        let always_broken = Flaky::new(u32::MAX, true);
        let policy = RetryPolicy::default().with_attempts(2);
        let err = synthesize_resilient(&always_broken, &u, &policy).unwrap_err();
        assert!(matches!(err, SynthError::WorkerPanic { .. }), "{err}");
    }

    #[test]
    fn invalid_targets_fail_fast_without_retries_or_fallback() {
        let junk = CMat::zeros(4, 4);
        let flaky = Flaky::new(0, false);
        let policy = RetryPolicy::default().with_attempts(5);
        let err = synthesize_resilient(&flaky, &junk, &policy).unwrap_err();
        assert!(matches!(err, SynthError::InvalidTarget { .. }));
        assert_eq!(flaky.calls.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    #[test]
    fn expired_deadline_reports_deadline_exceeded() {
        let u = target();
        let always_broken = Flaky::new(u32::MAX, false);
        let policy = RetryPolicy::default()
            .with_attempts(u32::MAX)
            .with_deadline(Duration::ZERO);
        let err = synthesize_resilient(&always_broken, &u, &policy).unwrap_err();
        assert!(matches!(err, SynthError::DeadlineExceeded { .. }), "{err}");
    }

    #[test]
    fn ashn_escalation_attempts_stay_deterministic() {
        let u = target();
        let basis = AshnBasis::ideal();
        let policy = RetryPolicy::default().with_attempts(3).with_retry_seed(7);
        let a = synthesize_resilient(&basis, &u, &policy).unwrap();
        let b = synthesize_resilient(&basis, &u, &policy).unwrap();
        assert_eq!(a.attempts, b.attempts);
        assert_eq!(format!("{:?}", a.circuit), format!("{:?}", b.circuit));
        assert!(a.circuit.error(&u) < 1e-5);
    }
}
