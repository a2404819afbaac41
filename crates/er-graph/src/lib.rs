//! Graph substrate for pairwise effective-resistance (ER) estimation.
//!
//! This crate provides everything the estimators in `er-core` need from a graph:
//!
//! * [`Graph`] — an immutable, undirected graph stored in compressed sparse row
//!   (CSR) form, optimised for the access patterns of random walks (uniform
//!   neighbour sampling) and sparse matrix–vector products (sequential scans of
//!   adjacency lists).
//! * [`GraphBuilder`] — an edge-list accumulator that deduplicates parallel
//!   edges, drops self-loops and produces a [`Graph`].
//! * [`generators`] — synthetic graph families (Barabási–Albert, Erdős–Rényi,
//!   Watts–Strogatz, stochastic block model, grids, paths, stars, …) used as
//!   laptop-scale stand-ins for the SNAP datasets of the paper's evaluation.
//! * [`io`] — SNAP-style whitespace-separated edge-list reading and writing.
//! * [`analysis`] — connectivity, largest-connected-component extraction and
//!   bipartiteness tests (the paper assumes a connected, non-bipartite graph).
//! * [`queries`] — random node-pair and random edge query-set generation
//!   matching Section 5.1 of the paper.
//! * [`OverlayGraph`] — an updatable view over an immutable CSR base
//!   (per-node sorted adjacency deltas merged on read), the substrate of
//!   incremental dynamic serving: small mutation bursts never rebuild the CSR.
//!
//! The crate is dependency-light by design: only `rand` is used, and only for
//! the generators and query sets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod builder;
pub mod error;
pub mod generators;
pub mod graph;
pub mod io;
pub mod overlay;
pub mod queries;
pub mod stats;
pub mod transform;

pub use builder::GraphBuilder;
pub use error::GraphError;
pub use graph::{Graph, IntoGraphArc, NodeId};
pub use overlay::OverlayGraph;
pub use queries::{EdgeQuerySet, NodePairQuerySet, QueryPair};
pub use stats::GraphStats;
