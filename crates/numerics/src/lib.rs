//! Dense and sparse linear-algebra kernels for the VPEC workspace.
//!
//! The VPEC model (Yu & He, *A Provably Passive and Cost-Efficient Model for
//! Inductive Interconnects*) is built on three numeric operations:
//!
//! 1. **Full inversion** of the partial-inductance matrix `L` (Cholesky,
//!    with dense LU as the fallback when `L` is not positive definite) to
//!    obtain the VPEC circuit matrix `Ĝ = Dₗ L⁻¹ Dₗ`;
//! 2. **Windowed inversion** — many small `b×b` sub-solves — to build the
//!    sparse approximate inverse used by the wVPEC model;
//! 3. **Sparse MNA solves** inside the circuit simulator, in both real
//!    (transient) and complex (AC) arithmetic.
//!
//! This crate provides exactly those kernels, with no third-party
//! dependencies: [`DenseMatrix`], [`LuFactor`], [`Cholesky`], [`CooMatrix`],
//! [`CsrMatrix`], [`SparseLu`], and a [`Complex64`] type with a [`Scalar`]
//! abstraction so the same solver code serves `f64` and complex AC analysis.
//! Every solve is a direct factorization: on the sparsified VPEC systems,
//! sparse LU (then RCM-ordered) beat a preconditioned Krylov solver by 430×
//! to 1340× at every measured size (DESIGN.md §13).
//!
//! # Example
//!
//! ```
//! use vpec_numerics::{DenseMatrix, LuFactor};
//!
//! # fn main() -> Result<(), vpec_numerics::NumericsError> {
//! let a = DenseMatrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let lu = LuFactor::new(&a)?;
//! let x = lu.solve(&[1.0, 2.0])?;
//! assert!((4.0 * x[0] + 1.0 * x[1] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![warn(missing_docs)]

pub mod audit;
pub mod cancel;
mod cholesky;
mod complex;
mod dense;
pub mod eigen;
mod error;
pub mod fault;
mod kernel;
mod lu;
pub mod ordering;
pub mod pool;
pub mod probe;
pub mod rng;
mod scalar;
mod sparse;
mod sparse_lu;
mod vector;

pub use cancel::CancelToken;
pub use cholesky::Cholesky;
pub use complex::Complex64;
pub use dense::DenseMatrix;
pub use error::NumericsError;
pub use fault::FaultInjection;
pub use lu::LuFactor;
pub use pool::Pool;
pub use probe::condition_estimate;
pub use scalar::Scalar;
pub use sparse::{CooMatrix, CsrMatrix};
pub use sparse_lu::SparseLu;
pub use vector::{axpy, dot, norm2, norm_inf, scale, sub};
