//! Error type of the query plane.

use crate::capability::QueryShape;
use er_core::EstimatorError;
use er_index::IndexError;
use std::fmt;

/// Errors produced while planning or answering a request.
#[derive(Debug)]
pub enum ServiceError {
    /// A wrapped estimator failed (invalid node, budget exceeded, …).
    Estimator(EstimatorError),
    /// The index tier failed (diagonal build, column solve, …).
    Index(IndexError),
    /// The requested (or planned) backend cannot answer this query shape.
    UnsupportedShape {
        /// Backend at fault.
        backend: &'static str,
        /// The query shape it was asked to answer.
        shape: QueryShape,
    },
    /// The request itself is malformed (non-edge in an edge set, k = 0, …).
    InvalidRequest {
        /// Human-readable description of the problem.
        message: String,
    },
    /// The serving queue is full: admission control rejected the request
    /// instead of letting latency grow without bound. Back off and retry.
    Overloaded {
        /// The configured queue depth that was exhausted.
        queue_depth: usize,
    },
    /// The request's deadline passed before a worker picked it up; the
    /// computation was skipped entirely.
    DeadlineExceeded,
    /// The server is shutting down and no longer admits requests.
    ServerShutdown,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::Estimator(e) => write!(f, "estimator error: {e}"),
            ServiceError::Index(e) => write!(f, "index error: {e}"),
            ServiceError::UnsupportedShape { backend, shape } => {
                write!(f, "backend {backend} cannot answer {shape} queries")
            }
            ServiceError::InvalidRequest { message } => {
                write!(f, "invalid request: {message}")
            }
            ServiceError::Overloaded { queue_depth } => {
                write!(f, "server overloaded: queue depth {queue_depth} exhausted")
            }
            ServiceError::DeadlineExceeded => {
                write!(f, "deadline exceeded before the request was scheduled")
            }
            ServiceError::ServerShutdown => {
                write!(f, "server is shutting down and no longer admits requests")
            }
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Estimator(e) => Some(e),
            ServiceError::Index(e) => Some(e),
            _ => None,
        }
    }
}

fn duplicate_graph(e: &er_graph::GraphError) -> er_graph::GraphError {
    use er_graph::GraphError;
    match e {
        GraphError::Empty => GraphError::Empty,
        GraphError::NodeOutOfRange { node, n } => GraphError::NodeOutOfRange { node: *node, n: *n },
        GraphError::NotConnected => GraphError::NotConnected,
        GraphError::Bipartite => GraphError::Bipartite,
        GraphError::Parse { line, message } => GraphError::Parse {
            line: *line,
            message: message.clone(),
        },
        // std::io::Error is not Clone; preserve the kind and re-render the
        // payload.
        GraphError::Io(io) => GraphError::Io(std::io::Error::new(io.kind(), io.to_string())),
    }
}

fn duplicate_estimator(e: &EstimatorError) -> EstimatorError {
    match e {
        EstimatorError::Graph(g) => EstimatorError::Graph(duplicate_graph(g)),
        EstimatorError::InvalidParameter { name, message } => EstimatorError::InvalidParameter {
            name,
            message: message.clone(),
        },
        EstimatorError::NotAnEdge { s, t } => EstimatorError::NotAnEdge { s: *s, t: *t },
        EstimatorError::BudgetExceeded { resource, message } => EstimatorError::BudgetExceeded {
            resource,
            message: message.clone(),
        },
    }
}

fn duplicate_index(e: &IndexError) -> IndexError {
    match e {
        IndexError::Graph(g) => IndexError::Graph(duplicate_graph(g)),
        IndexError::InvalidConfiguration { name, message } => IndexError::InvalidConfiguration {
            name,
            message: message.clone(),
        },
        IndexError::BudgetExceeded { resource, message } => IndexError::BudgetExceeded {
            resource,
            message: message.clone(),
        },
    }
}

impl ServiceError {
    /// A structural copy of this error, for fanning one failed computation
    /// out to several waiters (deduplicated or coalesced server tickets share
    /// one execution). Every variant round-trips exactly except wrapped IO
    /// failures, whose payload is re-rendered into the message
    /// (`std::io::Error` is not `Clone`).
    pub fn duplicate(&self) -> ServiceError {
        match self {
            ServiceError::Estimator(e) => ServiceError::Estimator(duplicate_estimator(e)),
            ServiceError::Index(e) => ServiceError::Index(duplicate_index(e)),
            ServiceError::UnsupportedShape { backend, shape } => ServiceError::UnsupportedShape {
                backend,
                shape: *shape,
            },
            ServiceError::InvalidRequest { message } => ServiceError::InvalidRequest {
                message: message.clone(),
            },
            ServiceError::Overloaded { queue_depth } => ServiceError::Overloaded {
                queue_depth: *queue_depth,
            },
            ServiceError::DeadlineExceeded => ServiceError::DeadlineExceeded,
            ServiceError::ServerShutdown => ServiceError::ServerShutdown,
        }
    }
}

impl From<EstimatorError> for ServiceError {
    fn from(e: EstimatorError) -> Self {
        ServiceError::Estimator(e)
    }
}

impl From<IndexError> for ServiceError {
    fn from(e: IndexError) -> Self {
        ServiceError::Index(e)
    }
}

/// Callers that still speak [`EstimatorError`] (the er-apps pipelines) can
/// funnel service failures through their existing signatures.
impl From<ServiceError> for EstimatorError {
    fn from(e: ServiceError) -> Self {
        match e {
            ServiceError::Estimator(inner) => inner,
            ServiceError::Index(IndexError::Graph(g)) => EstimatorError::Graph(g),
            other => EstimatorError::InvalidParameter {
                name: "service",
                message: other.to_string(),
            },
        }
    }
}

/// Callers that still speak [`IndexError`] can likewise funnel service
/// failures through their existing signatures.
impl From<ServiceError> for IndexError {
    fn from(e: ServiceError) -> Self {
        match e {
            ServiceError::Index(inner) => inner,
            ServiceError::Estimator(EstimatorError::Graph(g)) => IndexError::Graph(g),
            ServiceError::Estimator(EstimatorError::BudgetExceeded { resource, message }) => {
                IndexError::BudgetExceeded { resource, message }
            }
            other => IndexError::InvalidConfiguration {
                name: "service",
                message: other.to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_graph::GraphError;

    #[test]
    fn display_covers_all_variants() {
        let e: ServiceError = EstimatorError::NotAnEdge { s: 1, t: 2 }.into();
        assert!(e.to_string().contains("not an edge"));
        let i: ServiceError = IndexError::Graph(GraphError::NotConnected).into();
        assert!(i.to_string().contains("connected"));
        let u = ServiceError::UnsupportedShape {
            backend: "HAY",
            shape: QueryShape::SingleSource,
        };
        assert!(u.to_string().contains("HAY"));
        assert!(u.to_string().contains("single-source"));
        let b = ServiceError::InvalidRequest {
            message: "k must be positive".into(),
        };
        assert!(b.to_string().contains("k must be positive"));
        let o = ServiceError::Overloaded { queue_depth: 64 };
        assert!(o.to_string().contains("64"));
        assert!(ServiceError::DeadlineExceeded
            .to_string()
            .contains("deadline"));
        assert!(ServiceError::ServerShutdown.to_string().contains("shut"));
    }

    #[test]
    fn duplicate_preserves_variants_and_messages() {
        let samples = [
            ServiceError::Estimator(EstimatorError::NotAnEdge { s: 3, t: 9 }),
            ServiceError::Index(IndexError::Graph(GraphError::NotConnected)),
            ServiceError::UnsupportedShape {
                backend: "HAY",
                shape: QueryShape::Diagonal,
            },
            ServiceError::InvalidRequest {
                message: "bad".into(),
            },
            ServiceError::Overloaded { queue_depth: 7 },
            ServiceError::DeadlineExceeded,
            ServiceError::ServerShutdown,
        ];
        for e in &samples {
            let copy = e.duplicate();
            assert_eq!(copy.to_string(), e.to_string());
            assert_eq!(
                std::mem::discriminant(&copy),
                std::mem::discriminant(e),
                "{e}"
            );
        }
        // IO payloads survive as kind + rendered message.
        let io = ServiceError::Estimator(EstimatorError::Graph(GraphError::Io(
            std::io::Error::new(std::io::ErrorKind::NotFound, "missing edges"),
        )));
        assert!(io.duplicate().to_string().contains("missing edges"));
    }

    #[test]
    fn conversions_round_trip_into_legacy_error_types() {
        use std::error::Error;
        let e = ServiceError::Estimator(EstimatorError::NotAnEdge { s: 0, t: 1 });
        assert!(e.source().is_some());
        let back: EstimatorError = e.into();
        assert!(matches!(back, EstimatorError::NotAnEdge { .. }));

        let graph = ServiceError::Estimator(EstimatorError::Graph(GraphError::NotConnected));
        let back: IndexError = graph.into();
        assert!(matches!(back, IndexError::Graph(GraphError::NotConnected)));

        let shape = ServiceError::UnsupportedShape {
            backend: "MC2",
            shape: QueryShape::Pair,
        };
        let back: IndexError = shape.into();
        assert!(matches!(back, IndexError::InvalidConfiguration { .. }));
    }
}
