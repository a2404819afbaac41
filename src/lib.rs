//! Facade crate for the effective-resistance workspace.
//!
//! This repository reproduces *"Efficient Estimation of Pairwise Effective
//! Resistance"* (Yang & Tang, SIGMOD 2023). The implementation is split into
//! focused crates; this facade re-exports the pieces a typical user needs so
//! examples and downstream code can depend on a single crate:
//!
//! * [`graph`] (= `er-graph`) — CSR graphs, generators, IO, query sets.
//! * [`linalg`] (= `er-linalg`) — sparse/dense linear algebra, Lanczos, CG.
//! * [`walks`] (= `er-walks`) — random-walk primitives.
//! * [`er_core`] (re-exported at the root) — the estimators: [`Geer`], [`Amc`]
//!   and every baseline the paper compares against.
//! * [`index`] (= `er-index`) — single-source / all-pairs ER, landmark
//!   bounds and query caching.
//! * [`service`] (= `er-service`) — the **unified query plane**: typed
//!   queries, capability-based planning, one front door
//!   ([`ResistanceService`], `&self`-submittable and `Send + Sync`) for
//!   every served estimator, plus the concurrent serving front end
//!   ([`ResistanceServer`] with admission control, request dedup,
//!   cross-client coalescing and deadline-aware scheduling).
//! * [`http`] (= `er-http`) — a std-only HTTP/1.1 front end
//!   ([`HttpServer`]) serving `POST /query`, `GET /metrics` and
//!   `GET /healthz` over a [`ServerHandle`], bit-identical to in-process
//!   submits.
//! * [`sparsify`] (= `er-sparsify`) — Spielman–Srivastava sparsification
//!   driven by the estimators.
//! * [`apps`] (= `er-apps`) — clustering, recommendation, robustness,
//!   anomaly-detection and segmentation pipelines.
//!
//! # Example
//!
//! Applications talk to the [`ResistanceService`]: describe *what* you want
//! (a typed [`Query`] plus an [`Accuracy`] target) and the planner decides
//! *how* to answer it, reporting the chosen backend and its cost.
//!
//! ```
//! use effective_resistance::{Accuracy, Query, Request, ResistanceService};
//! use effective_resistance::graph::generators;
//!
//! let graph = generators::social_network_like(1_000, 10.0, 1).unwrap();
//! let service = ResistanceService::new(&graph).unwrap();
//! let response = service
//!     .submit(&Request::new(Query::pair(0, 500)).with_accuracy(Accuracy::epsilon(0.1)))
//!     .unwrap();
//! assert!(response.value() > 0.0);
//! println!("r(0, 500) ≈ {:.4} via {}", response.value(), response.backend);
//! ```
//!
//! Direct estimator construction (`Geer::new(&ctx, config)`) remains
//! available for benchmarking and research, but applications should prefer
//! the service front door.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Graph substrate (re-export of the `er-graph` crate).
pub mod graph {
    pub use er_graph::*;
}

/// Linear-algebra substrate (re-export of the `er-linalg` crate).
pub mod linalg {
    pub use er_linalg::*;
}

/// Random-walk substrate (re-export of the `er-walks` crate).
pub mod walks {
    pub use er_walks::*;
}

/// Indexing layer: single-source/all-pairs ER, landmark bounds and query
/// caching (re-export of the `er-index` crate).
pub mod index {
    pub use er_index::*;
}

/// The unified query plane: typed queries, capability-based planning and the
/// [`ResistanceService`] front door (re-export of the `er-service` crate).
pub mod service {
    pub use er_service::*;
}

/// Cross-process serving: the std-only HTTP/1.1 front end over
/// [`ServerHandle`] (re-export of the `er-http` crate).
pub mod http {
    pub use er_http::*;
}

/// Spectral sparsification by effective-resistance sampling (re-export of the
/// `er-sparsify` crate).
pub mod sparsify {
    pub use er_sparsify::*;
}

/// Application pipelines: clustering, recommendation, robustness, anomaly
/// detection and segmentation (re-export of the `er-apps` crate).
pub mod apps {
    pub use er_apps::*;
}

pub use er_core::*;
pub use er_http::{HttpConfig, HttpServer};
pub use er_service::{
    Accuracy, BackendChoice, DynamicResistanceService, Priority, Query, QueryShape, Request,
    ResistanceServer, ResistanceService, Response, ServerConfig, ServerHandle, ServerStats,
    ServiceEpoch, ServiceError, SubmitOptions, Ticket,
};
