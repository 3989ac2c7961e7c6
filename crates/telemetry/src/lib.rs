//! # ashn-telemetry
//!
//! Zero-dependency tracing, metrics, and profiling for the AshN stack:
//! a process-wide [`Registry`] of lock-free atomic counters and log2
//! latency histograms, RAII [`Span`] timers (via the [`span!`] macro),
//! and a bounded structured event journal — the flight recorder replayed
//! by the chaos suites.
//!
//! ```
//! let reg = ashn_telemetry::Registry::new();
//! let _guard = ashn_telemetry::install(&reg); // thread-local override
//! {
//!     let _s = ashn_telemetry::span!("synth.cold");
//!     ashn_telemetry::current().add("cache.lookup.exact", 1);
//! }
//! let snap = reg.snapshot();
//! assert_eq!(snap.counter("cache.lookup.exact"), Some(1));
//! println!("{}", snap.render_prometheus());
//! ```
//!
//! Everything routes through [`current()`]: the innermost registry
//! [`install`]ed on this thread, else the process-wide [`global()`] one.
//! The worker pool (`ashn_core::par`, under `BatchRunner` too) captures the
//! caller's current registry and installs it on a helper thread while the
//! helper runs that caller's jobs, so batch telemetry lands in one place
//! regardless of the worker count.
//!
//! There is one off switch, at runtime: [`Registry::set_enabled`]`(false)`
//! makes every counter add, histogram record, and journal event on that
//! registry a dropped no-op. The journal ring's capacity comes from
//! [`JOURNAL_ENV`].

pub mod snapshot;

pub use snapshot::{
    CounterSnapshot, EventRecord, FieldValue, HistogramSnapshot, TelemetrySnapshot,
    HISTOGRAM_BUCKETS,
};

/// Opens a [`Span`] on the [`current()`] registry; the timer records into
/// the span's histogram when the returned guard drops.
///
/// ```
/// let _s = ashn_telemetry::span!("service.cold_synth");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::current().span($name)
    };
}

/// Environment variable overriding the journal ring capacity (default
/// 4096 events; `0` disables the journal). Read once per registry, at
/// construction.
pub const JOURNAL_ENV: &str = "ASHN_TELEMETRY_JOURNAL";

/// Default journal ring capacity when [`JOURNAL_ENV`] is unset.
pub const JOURNAL_DEFAULT_CAPACITY: usize = 4096;

mod active;
pub use active::{current, global, install, Counter, CurrentGuard, Histogram, Registry, Span};
