//! Indexing and workload layer on top of pairwise effective-resistance
//! estimation.
//!
//! The paper's estimators (GEER and AMC in `er-core`) answer one
//! ε-approximate pair query at a time with no preprocessing beyond the
//! spectral bound λ. Real workloads wrap that primitive in recurring access
//! patterns, which this crate provides:
//!
//! * [`ErIndex`] — single-source / exact pairwise resistance from Laplacian
//!   pseudo-inverse columns plus a pre-computed diagonal
//!   ([`pseudo_inverse_diagonal`]), including Kirchhoff index and
//!   nearest-neighbour search. Its queries take `&self`, so threads share
//!   one index; the service's INDEX backend is the index itself.
//! * [`AllPairsResistance`] — the full resistance matrix for small graphs,
//!   with Foster's-theorem and resistance-diameter summaries.
//! * [`LandmarkIndex`] — O(k)-per-query lower/upper bounds from `k` landmark
//!   columns, exploiting that `√r` is a metric.
//! * [`QueryCache`] — a bounded symmetric memo of pair answers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allpairs;
pub mod cache;
pub mod diagonal;
pub mod error;
pub mod landmark;
pub mod single_source;

pub use allpairs::AllPairsResistance;
pub use cache::QueryCache;
pub use diagonal::pseudo_inverse_diagonal;
pub use error::IndexError;
pub use landmark::{LandmarkBounds, LandmarkIndex, LandmarkSelection};
pub use single_source::ErIndex;
