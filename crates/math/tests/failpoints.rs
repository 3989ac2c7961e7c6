//! Failpoints planted in `ashn-math`, armed from their own test binary.
//!
//! The failpoint registry is process-global, so an armed site fires for
//! every caller in the process. Every test here holds
//! [`fault::exclusive`]; keeping them out of the library's unit tests means
//! no unguarded eigendecomposition or pool job can consume an armed call
//! (or be failed by one) while they run.
#![cfg(feature = "fault-injection")]

use ashn_math::eig::{try_eig_unitary, EigError};
use ashn_math::fault::{self, FaultMode};
use ashn_math::par::parallel_map_isolated;
use ashn_math::randmat::haar_unitary;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn eig_failpoint_fails_once_then_recovers() {
    let _guard = fault::exclusive();
    fault::reset();
    fault::configure("math::eig::unitary", FaultMode::OnNth(1));
    let mut rng = StdRng::seed_from_u64(31);
    let w = haar_unitary(4, &mut rng);
    assert!(matches!(
        try_eig_unitary(&w),
        Err(EigError::NotNormal { .. })
    ));
    assert!(try_eig_unitary(&w).is_ok(), "site must fire only once");
    fault::reset();
}

#[test]
fn task_failpoint_injects_isolated_panics() {
    let _guard = fault::exclusive();
    fault::reset();
    fault::configure("core::par::task", FaultMode::OnNth(3));
    // Serial execution so call order is the job order.
    let out = parallel_map_isolated(1, 5, |i| i);
    fault::reset();
    assert!(out[2].is_err(), "third task must be hit");
    assert_eq!(out.iter().filter(|r| r.is_err()).count(), 1);
    assert!(out[2]
        .as_ref()
        .unwrap_err()
        .detail
        .contains("core::par::task"));
}
