//! Unified query plane for effective-resistance estimation.
//!
//! The paper (Yang & Tang, SIGMOD 2023) contributes a *family* of
//! ε-approximate PER estimators whose relative cost depends on the query
//! shape, the accuracy target and the graph — its Section 5 harness picks a
//! method per `(ε, workload)` point. This crate turns that observation into
//! an API: callers submit typed requests to one front door, the
//! [`ResistanceService`], and the [`planner`]'s routing table sends each
//! request to the cheapest [`BackendChoice`] that
//! [answers](BackendChoice::answers) its shape.
//!
//! * [`Query`] — what is asked: `Pair`, `Batch`, `SingleSource`, `Diagonal`,
//!   `EdgeSet` or `TopK`.
//! * [`Accuracy`] — how precisely: `Epsilon { eps, delta }` (Definition 2.2),
//!   `WalkBudget(n)` or `Exact`.
//! * [`Response`] — the values plus the chosen backend's name and a
//!   [`CostBreakdown`](er_core::CostBreakdown) of the work performed.
//!
//! # Example
//!
//! ```
//! use er_service::{Accuracy, BackendChoice, Query, Request, ResistanceService};
//! use er_graph::generators;
//!
//! let graph = generators::social_network_like(200, 10.0, 7).unwrap();
//! let service = ResistanceService::new(&graph).unwrap();
//!
//! // The planner picks the backend: small graph + ε target ⇒ exact CG.
//! // (Larger fast-mixing graphs route to GEER; slow-mixing graphs — a
//! // small spectral gap — stay exact at any size.)
//! let response = service.submit(&Query::pair(0, 150).into()).unwrap();
//! assert_eq!(response.backend, "EXACT-CG");
//!
//! // Callers can force a backend (here: the paper's GEER) and inspect cost.
//! let forced = Request::new(Query::pair(0, 150))
//!     .with_accuracy(Accuracy::epsilon(0.2))
//!     .with_backend(BackendChoice::Geer);
//! let response = service.submit(&forced).unwrap();
//! assert_eq!(response.backend, "GEER");
//! assert!(response.cost.total_operations() > 0);
//! ```
//!
//! # Serving
//!
//! [`ResistanceService::submit`] takes `&self` and the service is
//! `Send + Sync`, so concurrent callers share one instance directly. For a
//! managed front end, [`ResistanceServer::spawn`] puts a worker pool with
//! admission control (bounded queue → [`ServiceError::Overloaded`]),
//! request dedup, cross-client coalescing and deadline/priority scheduling
//! in front of the service; clients hold cloneable [`ServerHandle`]s and
//! collect responses through [`Ticket`]s.
//!
//! # Determinism
//!
//! Every randomized backend answers through per-item estimator forks
//! ([`er_core::ForkableEstimator`]) whose RNG streams are derived from the
//! *content* of each queried pair, never from request positions, cache
//! state or scheduling order: for a fixed seed, responses are bit-identical
//! at any thread count, any server worker count and any arrival order —
//! including deduplicated and coalesced requests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
pub mod capability;
pub mod dynamic;
pub mod error;
pub mod planner;
pub mod query;
pub mod response;
pub mod server;
pub mod service;
pub mod session;

pub use capability::QueryShape;
pub use dynamic::{DynamicResistanceService, ServiceEpoch};
pub use error::ServiceError;
pub use planner::BackendChoice;
pub use query::{Accuracy, Query, Request};
pub use response::Response;
pub use server::{ResistanceServer, ServerConfig, ServerHandle, ServerStats};
pub use service::ResistanceService;
pub use session::{Priority, SubmitOptions, Ticket};
