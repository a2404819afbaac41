//! Linear-algebra substrate for pairwise effective-resistance estimation.
//!
//! Everything the estimators need beyond the raw graph lives here:
//!
//! * [`vector`] — dense vector helpers (dot products, `max1`/`max2` used by
//!   AMC's ψ bound in Eq. (9) of the paper, norms).
//! * [`ops`] — matrix-free linear operators over a [`er_graph::Graph`]:
//!   the random-walk transition matrix `P = D⁻¹A` (Algorithm 2 / SMM), the
//!   symmetric normalised adjacency `N = D^{-1/2} A D^{-1/2}` (same spectrum
//!   as `P`, used for eigenvalue estimation), the Laplacian `L = D − A` and
//!   the adjacency operator itself.
//! * [`dense`] — small dense symmetric matrices, Jacobi eigendecomposition and
//!   the Moore–Penrose pseudo-inverse (the EXACT baseline, Definition 2.1).
//! * [`lanczos`] — the three-term Lanczos recurrence (no reorthogonalization;
//!   the basis is stored only to build a warm-start Ritz vector) plus a
//!   symmetric tridiagonal eigensolver (implicit QL, [`lanczos::tridiagonal_eigen`]);
//!   this substitutes for ARPACK when computing λ = max{|λ₂|, |λₙ|} in the
//!   preprocessing step of Section 3.1.
//! * [`solver`] — a conjugate-gradient Laplacian solver (for ground truth,
//!   the EXACT-via-solves path and the RP sketch).
//! * [`sketch`] — the Spielman–Srivastava random-projection sketch used by
//!   the RP baseline.
//! * [`update`] — rank-1 Sherman–Morrison updates of resident pseudo-inverse
//!   state (columns, diagonal, resistance tables) for edge insert/delete,
//!   the linear-algebra core of incremental dynamic serving.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dense;
pub mod lanczos;
pub mod ops;
pub mod sketch;
pub mod solver;
pub mod update;
pub mod vector;

pub use dense::DenseMatrix;
pub use lanczos::{lanczos_with_start, spectral_bounds, spectral_bounds_warm, LanczosResult};
pub use ops::{
    AdjacencyOp, LaplacianOp, LinearOperator, NormalizedAdjacencyOp, OverlayLaplacianOp,
    TransitionOp,
};
pub use sketch::ResistanceSketch;
pub use solver::{solve_overlay_laplacian, solve_preconditioned, CgOutcome, LaplacianSolver};
pub use update::{RankOneUpdate, MIN_DELETE_DENOMINATOR};
