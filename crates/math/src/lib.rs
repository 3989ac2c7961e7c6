//! # ashn-math
//!
//! Self-contained numerical substrate for the AshN reproduction: complex
//! scalars, dense complex matrices, Hermitian/unitary eigendecompositions,
//! SVD/polar factorisations, Haar-random sampling, and small optimisers.
//! It also hosts what every layer above shares: the one deterministic
//! worker pool ([`par`]), the SplitMix64 mixer ([`splitmix`]), and the
//! failpoint registry ([`fault`]).
//!
//! The crate deliberately avoids external linear-algebra dependencies; every
//! routine is tailored to the ≤ 64×64 unitaries that quantum two-, three-,
//! and four-qubit compilation manipulates.
//!
//! ## Example
//!
//! ```
//! use ashn_math::{CMat, eig::eigh, expm::expm_minus_i_hermitian};
//!
//! // Evolve under the Pauli-X Hamiltonian for time π/2: a bit flip up to phase.
//! let x = CMat::from_rows_f64(&[&[0.0, 1.0], &[1.0, 0.0]]);
//! let u = expm_minus_i_hermitian(&x, std::f64::consts::FRAC_PI_2);
//! assert!(u.is_unitary(1e-12));
//! assert!(u[(0, 0)].abs() < 1e-12); // fully off-diagonal
//! let e = eigh(&x);
//! assert!((e.values[0] + 1.0).abs() < 1e-12);
//! ```

pub mod complex;
pub mod eig;
pub mod expm;
pub mod fault;
pub mod mat;
pub mod neldermead;
pub mod par;
pub mod randmat;
pub mod smat;
pub mod special;
pub mod splitmix;
pub mod svd;

pub use complex::{c, Complex};
pub use mat::CMat;
pub use smat::{Mat2, Mat4, SMat};
