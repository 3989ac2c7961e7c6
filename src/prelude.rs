//! The common import set for `ashn` users:
//!
//! ```
//! use ashn::prelude::*;
//! ```

pub use crate::compiler::{Compiled, Compiler, SynthStats};
pub use crate::error::AshnError;
pub use ashn_core::scheme::{AshnPulse, AshnScheme, CompileError};
pub use ashn_gates::kak::weyl_coordinates;
pub use ashn_gates::weyl::WeylPoint;
pub use ashn_ir::{Basis, Circuit, Instruction, IrError, SynthError};
pub use ashn_math::{c, CMat, Complex, Mat2, Mat4};
pub use ashn_opt::{OptLevel, OptStats, PassManager, Retarget};
pub use ashn_qv::{sample_model_circuit, GateSet, QvNoise};
pub use ashn_route::Grid;
pub use ashn_service::{CompileRequest, CompileService, ShardedCache};
pub use ashn_sim::{ExecPlan, NoiseModel, SimEngine, Simulate};
pub use ashn_synth::basis::{AshnBasis, CnotBasis, CzBasis, EcrBasis, SqiswBasis};
pub use ashn_synth::retarget::{standard_rules, GateSetRegistry, RuleSet};
