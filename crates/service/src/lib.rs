//! `ashn-service` — batched compile-as-a-service for the AshN stack.
//!
//! The crate has three layers:
//!
//! - [`ShardedCache`]: a process-wide, lock-striped synthesis cache. Each
//!   of its (default 16) shards is a bounded-LRU
//!   [`ashn_synth::SynthCache`] with its own mutex; handles are `Clone`
//!   and share storage, so many compilers — across threads — feed one
//!   cache. It persists to disk in a versioned, lossless format
//!   ([`persist`]) and warm-starts on boot, degrading to a cold cache on
//!   any corruption instead of failing.
//! - [`CompileService`]: the batch engine. A batch of circuits (or raw
//!   `SU(4)` targets) is canonicalized to quantized Weyl classes,
//!   deduplicated *batch-wide* before any EA search runs, solved on the
//!   workspace's one deterministic worker pool (`ashn_core::par`), and
//!   served per request by re-dressing the class solutions. Batch output is bit-identical at
//!   any worker count. Two settings govern failures: cold synthesis gets
//!   up to [`CompileService::max_attempts`] escalating attempts, and every
//!   served circuit is verified at [`CompileService::verify_tol`]; a
//!   target that still fails degrades to an exact CNOT decomposition.
//! - The facade: `ashn::Compiler` keeps its memo store in a
//!   [`ShardedCache`] (a private one-shard cache by default), and
//!   `ashn::Compiler::with_shared_cache` hands it a process-wide one, so
//!   interactive use and batch service share one memo store.
//!
//! ```no_run
//! use ashn_service::{CompileService, ShardedCache};
//! use ashn_synth::AshnBasis;
//!
//! let cache = ShardedCache::new();
//! cache.warm_start("synth.cache"); // cold start if missing/corrupt
//! let service = CompileService::with_cache(AshnBasis::with_cutoff(0.0, 1.1), cache).workers(8);
//! # let targets: Vec<ashn_math::CMat> = vec![];
//! let batch = service.synthesize_batch(&targets);
//! println!("{:.1} targets/class deduplicated", batch.stats.dedup_ratio());
//! service.cache().save("synth.cache").unwrap();
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod persist;
pub mod service;
pub mod sharded;

pub use ashn_opt::{OptLevel, OPT_ACCEPT_TOL};
pub use error::ServiceError;
pub use persist::{LoadOutcome, LoadReport, HEADER};
pub use service::{
    BatchCompileResult, BatchResult, CompileRequest, CompileResult, CompileService, ServiceStats,
};
pub use sharded::{ShardedCache, DEFAULT_CAPACITY, DEFAULT_SHARDS};
