//! # ashn-qv
//!
//! Quantum-volume experiments (paper §6.3, Fig. 7): square random circuits
//! compiled onto a 2-D grid with SWAP routing, executed under
//! gate-time-proportional depolarizing noise for three native gate sets —
//! flux-tuned CZ, flux-tuned SQiSW, and AshN — and scored by the exact
//! heavy-output probability.
//!
//! ```no_run
//! use ashn_qv::{compile_model, sample_model_circuit, score_compiled, GateSet, QvNoise};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let model = sample_model_circuit(4, &mut rng);
//! let compiled = compile_model(&model, GateSet::Ashn { cutoff: 1.1 })?;
//! let score = score_compiled(&compiled, &QvNoise::with_e_cz(0.007));
//! assert!(score.hop > 0.5);
//! # Ok::<(), ashn_ir::SynthError>(())
//! ```

pub mod experiment;
pub mod gateset;
pub mod protocol;

pub use experiment::{
    compile_model, compile_model_on, heavy_set, resolve_rates, sample_model_circuit,
    score_compiled, score_compiled_many, stamp_noise, CircuitScore, CompiledModel, ModelCircuit,
    QvNoise,
};
pub use gateset::GateSet;
