//! Deterministic fault injection for resilience testing.
//!
//! A *failpoint* is a named site in library code that asks the registry
//! "should I fail right now?". Sites are planted with the
//! [`failpoint!`](crate::failpoint) macro, compile to a literal `false`
//! unless the planting crate enables its `fault-injection` feature, and are
//! configured per-test by name via [`configure`]. Every mode is
//! deterministic: probability modes draw from a per-site SplitMix64 stream
//! seeded by the test, so a failing chaos run replays exactly.
//!
//! The registry is process-global. Tests that configure failpoints must
//! serialize on [`exclusive`] and call [`reset`] when done, because cargo
//! runs `#[test]`s concurrently within one process.
//!
//! This module lives in `ashn-math` (the bottom of the crate graph) so that
//! eigendecomposition sites and everything above them can share one
//! registry; `ashn_core::fault` re-exports it under the name the rest of
//! the workspace uses.

use crate::splitmix::{mix64, unit_f64};
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// When a configured failpoint fires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultMode {
    /// Fire on every call.
    Always,
    /// Fire only on the `n`-th call (1-based) to the site.
    OnNth(u64),
    /// Fire on every `n`-th call (1-based): calls `n, 2n, 3n, …`.
    EveryNth(u64),
    /// Fire with probability `p` per call, drawn from a deterministic
    /// SplitMix64 stream seeded with `seed` (so runs replay exactly).
    Probability { p: f64, seed: u64 },
}

struct SiteState {
    mode: FaultMode,
    calls: u64,
    fired: u64,
    rng: u64,
}

fn registry() -> &'static Mutex<HashMap<String, SiteState>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, SiteState>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

fn lock_registry() -> MutexGuard<'static, HashMap<String, SiteState>> {
    // A panic while holding the lock (never expected — the critical sections
    // below are panic-free) must not wedge every later chaos test.
    registry().lock().unwrap_or_else(PoisonError::into_inner)
}

/// Arms the failpoint `name` with `mode`, resetting its call/fire counters.
pub fn configure(name: &str, mode: FaultMode) {
    let rng = match mode {
        FaultMode::Probability { seed, .. } => mix64(seed ^ 0xa5a5_a5a5_dead_beef),
        _ => 0,
    };
    lock_registry().insert(
        name.to_string(),
        SiteState {
            mode,
            calls: 0,
            fired: 0,
            rng,
        },
    );
}

/// Disarms the failpoint `name` (its counters are discarded).
pub fn clear(name: &str) {
    lock_registry().remove(name);
}

/// Disarms every failpoint. Call at the end of each chaos test.
pub fn reset() {
    lock_registry().clear();
}

/// Asks whether the failpoint `name` should fire on this call, advancing
/// its call counter and (for probability modes) its RNG stream. Unarmed
/// sites always answer `false` at the cost of one hash lookup.
///
/// Library code never calls this directly — it plants
/// [`failpoint!`](crate::failpoint), which compiles the call away unless
/// the `fault-injection` feature is on.
pub fn should_fire(name: &str) -> bool {
    let mut reg = lock_registry();
    let Some(site) = reg.get_mut(name) else {
        return false;
    };
    site.calls += 1;
    let fire = match site.mode {
        FaultMode::Always => true,
        FaultMode::OnNth(n) => site.calls == n,
        FaultMode::EveryNth(n) => n > 0 && site.calls.is_multiple_of(n),
        FaultMode::Probability { p, .. } => {
            site.rng = mix64(site.rng);
            unit_f64(site.rng) < p
        }
    };
    if fire {
        site.fired += 1;
    }
    fire
}

/// How many times the failpoint `name` has been asked since configuration.
pub fn calls(name: &str) -> u64 {
    lock_registry().get(name).map_or(0, |s| s.calls)
}

/// How many times the failpoint `name` has fired since configuration.
pub fn fires(name: &str) -> u64 {
    lock_registry().get(name).map_or(0, |s| s.fired)
}

/// Serializes chaos tests: the registry is process-global, so any test
/// that configures failpoints must hold this guard for its whole body.
pub fn exclusive() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Plants a named fault-injection site; evaluates to `true` when the site
/// is armed and elects to fire on this call.
///
/// The `cfg` resolves against the *planting* crate, so each crate that
/// plants sites declares its own `fault-injection` feature forwarding to
/// `ashn-math/fault-injection`. Without the feature the macro is a literal
/// `false` and the site costs nothing.
///
/// ```
/// # use ashn_math::failpoint;
/// fn converge() -> Result<(), String> {
///     if failpoint!("docs::example::site") {
///         return Err("injected fault".into());
///     }
///     Ok(())
/// }
/// assert!(converge().is_ok()); // unarmed (or feature off): never fires
/// ```
#[macro_export]
macro_rules! failpoint {
    ($name:expr) => {{
        #[cfg(feature = "fault-injection")]
        let fired = $crate::fault::should_fire($name);
        #[cfg(not(feature = "fault-injection"))]
        let fired = false;
        fired
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modes_fire_deterministically() {
        let _guard = exclusive();
        reset();

        configure("t::always", FaultMode::Always);
        assert!(should_fire("t::always"));
        assert!(should_fire("t::always"));
        assert_eq!(calls("t::always"), 2);
        assert_eq!(fires("t::always"), 2);

        configure("t::nth", FaultMode::OnNth(3));
        let pattern: Vec<bool> = (0..5).map(|_| should_fire("t::nth")).collect();
        assert_eq!(pattern, [false, false, true, false, false]);

        configure("t::every", FaultMode::EveryNth(2));
        let pattern: Vec<bool> = (0..6).map(|_| should_fire("t::every")).collect();
        assert_eq!(pattern, [false, true, false, true, false, true]);

        // Unarmed sites never fire and count nothing.
        assert!(!should_fire("t::unarmed"));
        assert_eq!(calls("t::unarmed"), 0);

        reset();
        assert!(!should_fire("t::always"));
    }

    #[test]
    fn probability_replays_exactly_and_tracks_rate() {
        let _guard = exclusive();
        reset();

        let sample = |seed: u64| -> Vec<bool> {
            configure("t::prob", FaultMode::Probability { p: 0.25, seed });
            (0..2000).map(|_| should_fire("t::prob")).collect()
        };
        let a = sample(42);
        let b = sample(42);
        assert_eq!(a, b, "same seed must replay the same firing pattern");
        let c = sample(43);
        assert_ne!(a, c, "different seeds should differ");

        let rate = a.iter().filter(|&&f| f).count() as f64 / a.len() as f64;
        assert!((rate - 0.25).abs() < 0.05, "empirical rate {rate} off");
        reset();
    }

    #[test]
    fn macro_consults_registry_when_feature_enabled() {
        let _guard = exclusive();
        reset();
        configure("t::macro", FaultMode::Always);
        // This test module is compiled with the crate's own features; under
        // `--features fault-injection` the macro must consult the registry,
        // otherwise it is a literal `false`.
        let fired = failpoint!("t::macro");
        assert_eq!(fired, cfg!(feature = "fault-injection"));
        reset();
    }
}
