//! The unified error hierarchy of the `ashn` facade.
//!
//! Every fallible stage of the pipeline — pulse compilation (`ashn-core`),
//! basis synthesis (`ashn-synth`), IR construction (`ashn-ir`), routing and
//! compilation (`ashn-route`/`ashn-qv`) — surfaces here as one [`AshnError`],
//! so callers write `?` instead of matching per-crate error types (and no
//! library path `panic!`s on recoverable failures).

use ashn_core::scheme::CompileError;
use ashn_ir::{IrError, SynthError};
use ashn_opt::OptError;
use std::error::Error;
use std::fmt;

/// Any failure of the `ashn` compilation pipeline.
#[derive(Clone, Debug)]
pub enum AshnError {
    /// Basis synthesis failed (non-convergence, invalid target, …).
    Synth(SynthError),
    /// Structural IR error (dimension mismatch, out-of-range qubit, …).
    Ir(IrError),
    /// The AshN pulse compiler rejected a target class.
    Pulse(CompileError),
    /// The [`crate::Compiler`] was misconfigured.
    Config {
        /// What is wrong with the configuration.
        detail: String,
    },
}

impl fmt::Display for AshnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AshnError::Synth(e) => write!(f, "synthesis error: {e}"),
            AshnError::Ir(e) => write!(f, "ir error: {e}"),
            AshnError::Pulse(e) => write!(f, "pulse compilation error: {e}"),
            AshnError::Config { detail } => write!(f, "compiler configuration error: {detail}"),
        }
    }
}

impl Error for AshnError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AshnError::Synth(e) => Some(e),
            AshnError::Ir(e) => Some(e),
            AshnError::Pulse(e) => Some(e),
            AshnError::Config { .. } => None,
        }
    }
}

impl From<SynthError> for AshnError {
    fn from(e: SynthError) -> Self {
        AshnError::Synth(e)
    }
}

impl From<IrError> for AshnError {
    fn from(e: IrError) -> Self {
        AshnError::Ir(e)
    }
}

impl From<CompileError> for AshnError {
    fn from(e: CompileError) -> Self {
        AshnError::Pulse(e)
    }
}

/// Optimizer failures surface through the same hierarchy: a structural DAG
/// error is an IR error, a resynthesis failure a synthesis error.
impl From<OptError> for AshnError {
    fn from(e: OptError) -> Self {
        match e {
            OptError::Ir(ir) => AshnError::Ir(ir),
            OptError::Synth(s) => AshnError::Synth(s),
            stale @ OptError::InvalidAnchor { .. } => AshnError::Config {
                detail: stale.to_string(),
            },
        }
    }
}
