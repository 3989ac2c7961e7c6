//! Error types for IR construction and basis synthesis.

use std::error::Error;
use std::fmt;

/// Structural errors building instructions or circuits.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IrError {
    /// The gate matrix dimension does not match `2^k` for `k` qubits.
    DimensionMismatch {
        /// Number of qubits the instruction names.
        qubits: usize,
        /// Row count of the supplied matrix.
        rows: usize,
    },
    /// The gate matrix is not square.
    NonSquare {
        /// Row count.
        rows: usize,
        /// Column count.
        cols: usize,
    },
    /// A qubit appears more than once in an instruction.
    RepeatedQubit {
        /// The offending qubit index.
        qubit: usize,
    },
    /// An instruction names a qubit outside the circuit register.
    QubitOutOfRange {
        /// The offending qubit index.
        qubit: usize,
        /// Register size.
        n: usize,
    },
    /// Two circuits (or a circuit and a conversion) disagree on register
    /// size.
    RegisterMismatch {
        /// Required register size.
        expected: usize,
        /// Actual register size.
        got: usize,
    },
    /// An embedding target list does not match the circuit register.
    EmbedMismatch {
        /// Source register size.
        expected: usize,
        /// Number of targets supplied.
        got: usize,
    },
    /// A dense-unitary request on a register too large to materialize.
    RegisterTooLarge {
        /// Requested register size.
        n: usize,
        /// Supported maximum.
        max: usize,
    },
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrError::DimensionMismatch { qubits, rows } => write!(
                f,
                "gate dimension mismatch: {qubits} qubit(s) need a {}x{} matrix, got {rows} rows",
                1usize << qubits,
                1usize << qubits
            ),
            IrError::NonSquare { rows, cols } => {
                write!(f, "gate matrix is not square ({rows}x{cols})")
            }
            IrError::RepeatedQubit { qubit } => write!(f, "repeated qubit {qubit}"),
            IrError::QubitOutOfRange { qubit, n } => {
                write!(f, "qubit {qubit} out of range for a {n}-qubit register")
            }
            IrError::RegisterMismatch { expected, got } => {
                write!(f, "expected a {expected}-qubit register, got {got}")
            }
            IrError::EmbedMismatch { expected, got } => {
                write!(f, "embedding expects {expected} target site(s), got {got}")
            }
            IrError::RegisterTooLarge { n, max } => {
                write!(f, "dense unitary limited to {max} qubits, register has {n}")
            }
        }
    }
}

impl Error for IrError {}

/// Failures synthesizing a unitary over a native basis.
#[derive(Clone, Debug)]
pub enum SynthError {
    /// A numerical search did not converge.
    Convergence {
        /// Basis that was synthesizing.
        basis: String,
        /// What failed (best residual, target class, …).
        detail: String,
    },
    /// The underlying pulse compiler rejected the target.
    Pulse {
        /// Basis that was synthesizing.
        basis: String,
        /// Pulse-compiler error rendered to text.
        detail: String,
    },
    /// The target is outside what the basis supports.
    InvalidTarget {
        /// Basis that was synthesizing.
        basis: String,
        /// Why the target is unsupported.
        detail: String,
    },
    /// A structural IR error surfaced during synthesis.
    Ir(IrError),
    /// A worker thread panicked while synthesizing this target; the panic
    /// was caught at the task boundary and converted to this per-item
    /// error, so the rest of the batch survives.
    WorkerPanic {
        /// The panic message, when one was available.
        detail: String,
    },
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::Convergence { basis, detail } => {
                write!(f, "{basis} synthesis did not converge: {detail}")
            }
            SynthError::Pulse { basis, detail } => {
                write!(f, "{basis} pulse compilation failed: {detail}")
            }
            SynthError::InvalidTarget { basis, detail } => {
                write!(f, "target unsupported by {basis}: {detail}")
            }
            SynthError::Ir(e) => write!(f, "ir error during synthesis: {e}"),
            SynthError::WorkerPanic { detail } => {
                write!(f, "synthesis worker panicked: {detail}")
            }
        }
    }
}

impl Error for SynthError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SynthError::Ir(e) => Some(e),
            _ => None,
        }
    }
}

impl From<IrError> for SynthError {
    fn from(e: IrError) -> Self {
        SynthError::Ir(e)
    }
}
