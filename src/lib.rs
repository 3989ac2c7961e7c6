//! # ashn — One Gate Scheme to Rule Them All, in Rust
//!
//! A full reproduction of the AshN quantum instruction set (Chen, Ding,
//! Gong, Huang, Ye — ASPLOS 2024, arXiv:2312.05652): a single physical
//! control scheme for `XX+YY`-coupled qubits that realizes **any** two-qubit
//! gate, in provably optimal time, immune to parasitic `ZZ` coupling — a
//! quantum *Complex yet Reduced Instruction Set Computer*.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`math`] — self-contained complex linear algebra and numerics;
//! * [`gates`] — gate library, Weyl chamber, KAK decomposition;
//! * [`core`] — the AshN scheme (pulse compilation, Algorithm 1);
//! * [`ir`] — **the** circuit IR ([`ir::Instruction`]/[`ir::Circuit`]) and
//!   the [`ir::Basis`] gate-set abstraction shared by every crate below;
//! * [`sim`] — statevector/density-matrix simulators with noise;
//! * [`synth`] — circuit synthesis (CNOT/SQiSW/AshN bases, QSD, Theorem 12);
//! * [`opt`] — the DAG-based circuit optimizer (pass pipelines, KAK block
//!   resynthesis) behind [`Compiler::opt_level`];
//! * [`route`] — 2-D grid qubit routing and IR assembly;
//! * [`qv`] — quantum-volume experiments (paper Fig. 7);
//! * [`cal`] — calibration (Cartan doubles, QPE, FRB, control models);
//! * [`service`] — batched compile-as-a-service: the process-wide
//!   [`service::ShardedCache`] (persistent, lock-striped synthesis memo
//!   shared via [`Compiler::with_shared_cache`]) and the deterministic
//!   batch engine [`service::CompileService`];
//!
//! and provides the end-to-end entry points: the builder-style
//! [`Compiler`] (synthesize → route → optimize → schedule → simulate over
//! any [`ir::Basis`]) and the unified [`AshnError`].
//!
//! ## Quickstart: compile one gate to one pulse
//!
//! ```
//! use ashn::core::scheme::AshnScheme;
//! use ashn::gates::weyl::WeylPoint;
//!
//! // Device: XX+YY coupling g, 10% parasitic ZZ, bounded drive strength.
//! let scheme = AshnScheme::with_cutoff(0.1, 1.1);
//! let pulse = scheme.compile(WeylPoint::CNOT)?;
//! assert!((pulse.tau - std::f64::consts::FRAC_PI_2).abs() < 1e-9);
//! assert!(pulse.coordinate_error() < 1e-7);
//! # Ok::<(), ashn::core::scheme::CompileError>(())
//! ```
//!
//! ## Quickstart: the whole pipeline
//!
//! ```
//! use ashn::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let model = ashn::qv::sample_model_circuit(3, &mut rng);
//! let compiled = Compiler::new()
//!     .gate_set(GateSet::Ashn { cutoff: 1.1 })
//!     .noise(QvNoise::with_e_cz(0.007))
//!     .compile(&model)?;
//! assert!(compiled.score().hop > 0.5);
//! # Ok::<(), AshnError>(())
//! ```

pub mod compiler;
pub mod error;
pub mod prelude;

pub use ashn_cal as cal;
pub use ashn_core as core;
pub use ashn_gates as gates;
pub use ashn_ir as ir;
pub use ashn_math as math;
pub use ashn_opt as opt;
pub use ashn_qv as qv;
pub use ashn_route as route;
pub use ashn_service as service;
pub use ashn_sim as sim;
pub use ashn_synth as synth;
pub use ashn_telemetry as telemetry;

pub use compiler::{Compiled, Compiler, SynthStats};
pub use error::AshnError;
pub use opt::{OptLevel, OptStats, PassManager, Retarget};
pub use qv::{GateSet, QvNoise};
