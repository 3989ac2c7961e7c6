//! # ashn-sim
//!
//! Quantum circuit simulators for the AshN reproduction: a pure-state
//! (statevector) simulator, an exact density-matrix simulator with
//! depolarizing channels, and a small circuit IR that carries per-gate
//! durations and error rates (the quantities the paper's quantum-volume
//! noise model is built from).
//!
//! The statevector hot loop runs on **compiled execution plans**
//! ([`ExecPlan`], [`plan`]): a circuit + noise model is specialized once
//! into a flat stream of `Copy` ops — kernel case pre-classified, matrix
//! inlined on the stack, bit masks and depolarizing rates precomputed —
//! and Monte-Carlo trajectory ensembles ([`trajectory`]) replay that
//! stream with bit-twiddled Pauli injection. [`SimEngine`] provides the
//! reusable amplitude workspace; the original instruction walk survives as
//! `run_*_walk` differential references.
//!
//! ## Example: a noisy Bell pair
//!
//! ```
//! use ashn_sim::{Circuit, Instruction, NoiseModel, Simulate};
//! use ashn_math::CMat;
//!
//! let h = CMat::from_rows_f64(&[
//!     &[std::f64::consts::FRAC_1_SQRT_2, std::f64::consts::FRAC_1_SQRT_2],
//!     &[std::f64::consts::FRAC_1_SQRT_2, -std::f64::consts::FRAC_1_SQRT_2],
//! ]);
//! let cnot = CMat::from_rows_f64(&[
//!     &[1.0, 0.0, 0.0, 0.0],
//!     &[0.0, 1.0, 0.0, 0.0],
//!     &[0.0, 0.0, 0.0, 1.0],
//!     &[0.0, 0.0, 1.0, 0.0],
//! ]);
//! let mut c = Circuit::new(2);
//! c.push(Instruction::new(vec![0], h, "H"));
//! c.push(Instruction::new(vec![0, 1], cnot, "CNOT"));
//! let rho = c.run_noisy(&NoiseModel { one_qubit: 0.001, two_qubit: 0.01 });
//! let p = rho.probabilities();
//! assert!((p[0] + p[3]) > 0.98); // mostly correlated outcomes
//! ```

pub mod batch;
pub mod chunk;
pub mod circuit;
pub mod density;
pub mod engine;
pub mod error;
pub mod plan;
pub mod state;
pub mod trajectory;

pub use batch::BatchRunner;
pub use chunk::ChunkPolicy;
pub use circuit::{Circuit, Instruction, NoiseModel, Simulate};
pub use density::DensityMatrix;
pub use engine::SimEngine;
pub use error::SimError;
pub use plan::{ExecPlan, KernelOp, PlanError, PlanOp};
pub use state::{StateVector, MAX_QUBITS};
