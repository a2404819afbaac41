//! Typed queries, accuracy specifications and requests.

use crate::capability::QueryShape;
use crate::planner::BackendChoice;
use er_graph::NodeId;

/// A typed effective-resistance query — *what* is being asked, decoupled from
/// *how* it will be answered (that is the [`planner`](crate::planner)'s job).
///
/// ```
/// use er_service::{Query, ResistanceService};
/// use er_graph::generators;
///
/// let graph = generators::social_network_like(300, 8.0, 7).unwrap();
/// let service = ResistanceService::new(&graph).unwrap();
///
/// // One pair.
/// let r = service.submit(&Query::pair(0, 120).into()).unwrap();
/// assert!(r.values[0] > 0.0);
///
/// // A batch: values come back in request order, repeats and self-pairs are
/// // deduplicated/short-circuited internally.
/// let batch = Query::batch(vec![(0, 120), (120, 0), (5, 5)]);
/// let response = service.submit(&batch.into()).unwrap();
/// assert_eq!(response.values.len(), 3);
/// assert_eq!(response.values[0], response.values[1]);
/// assert_eq!(response.values[2], 0.0);
///
/// // One source against every node (answered from one Laplacian column).
/// let profile = service.submit(&Query::single_source(0).into()).unwrap();
/// assert_eq!(profile.values.len(), graph.num_nodes());
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Query {
    /// One ε-approximate PER query for `(s, t)`.
    Pair {
        /// Query source.
        s: NodeId,
        /// Query target.
        t: NodeId,
    },
    /// A batch of pair queries answered as one unit of work (deduplicated,
    /// cached, fanned out across worker threads).
    Batch {
        /// The query pairs, in the order values are wanted back.
        pairs: Vec<(NodeId, NodeId)>,
    },
    /// `r(source, v)` for every node `v` (the value at `source` is 0).
    SingleSource {
        /// The fixed source node.
        source: NodeId,
    },
    /// The diagonal of the Laplacian pseudo-inverse, `L†(v, v)` for every
    /// node. The Kirchhoff index follows as `n · Σ_v L†(v, v)`.
    Diagonal,
    /// Resistance of edges of the graph. Every pair must satisfy
    /// `(s, t) ∈ E`; this is the shape tree-sampling backends (HAY) answer
    /// natively, amortising one pool of spanning trees over the whole set.
    EdgeSet {
        /// The query edges, in the order values are wanted back.
        edges: Vec<(NodeId, NodeId)>,
    },
    /// The `k` nodes nearest to `source` in effective-resistance distance
    /// (excluding `source` itself), closest first.
    TopK {
        /// The fixed source node.
        source: NodeId,
        /// How many neighbours to return.
        k: usize,
    },
}

impl Query {
    /// Convenience constructor for [`Query::Pair`].
    pub fn pair(s: NodeId, t: NodeId) -> Query {
        Query::Pair { s, t }
    }

    /// Convenience constructor for [`Query::Batch`].
    pub fn batch(pairs: Vec<(NodeId, NodeId)>) -> Query {
        Query::Batch { pairs }
    }

    /// Convenience constructor for [`Query::SingleSource`].
    pub fn single_source(source: NodeId) -> Query {
        Query::SingleSource { source }
    }

    /// Convenience constructor for [`Query::EdgeSet`].
    pub fn edge_set(edges: Vec<(NodeId, NodeId)>) -> Query {
        Query::EdgeSet { edges }
    }

    /// Convenience constructor for [`Query::TopK`].
    pub fn top_k(source: NodeId, k: usize) -> Query {
        Query::TopK { source, k }
    }

    /// The shape of this query (what capability a backend needs to answer it).
    pub fn shape(&self) -> QueryShape {
        match self {
            Query::Pair { .. } => QueryShape::Pair,
            Query::Batch { .. } => QueryShape::Batch,
            Query::SingleSource { .. } => QueryShape::SingleSource,
            Query::Diagonal => QueryShape::Diagonal,
            Query::EdgeSet { .. } => QueryShape::EdgeSet,
            Query::TopK { .. } => QueryShape::TopK,
        }
    }

    /// The pair list of a pair-shaped query (`Pair`, `Batch`, `EdgeSet`);
    /// empty for the source-shaped queries.
    pub fn pairs(&self) -> std::borrow::Cow<'_, [(NodeId, NodeId)]> {
        use std::borrow::Cow;
        match self {
            Query::Pair { s, t } => Cow::Owned(vec![(*s, *t)]),
            Query::Batch { pairs } => Cow::Borrowed(pairs.as_slice()),
            Query::EdgeSet { edges } => Cow::Borrowed(edges.as_slice()),
            _ => Cow::Borrowed(&[]),
        }
    }
}

/// How accurate the answer must be — Definition 2.2 of the paper, plus the
/// two pragmatic alternatives a serving system needs.
///
/// ```
/// use er_service::Accuracy;
///
/// // The paper's ε-approximate guarantee (default: ε = 0.1, δ = 0.01).
/// let eps = Accuracy::default();
/// assert!(matches!(eps, Accuracy::Epsilon { .. }));
///
/// // A hard cap on sampling work: "spend at most 50k walks per query".
/// let budgeted = Accuracy::WalkBudget(50_000);
///
/// // Exact answers (up to solver tolerance), whatever the cost.
/// let exact = Accuracy::Exact;
/// assert_ne!(budgeted, exact);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Accuracy {
    /// Additive error at most `eps` with probability at least `1 − delta`
    /// (Eq. 2 of the paper).
    Epsilon {
        /// Additive error threshold ε.
        eps: f64,
        /// Failure probability δ.
        delta: f64,
    },
    /// Spend at most this many random walks (or spanning trees) per query;
    /// accuracy is whatever that budget buys.
    WalkBudget(u64),
    /// Exact values, up to linear-solver tolerance.
    Exact,
}

impl Default for Accuracy {
    /// The paper's default operating point: ε = 0.1, δ = 0.01.
    fn default() -> Self {
        Accuracy::Epsilon {
            eps: 0.1,
            delta: 0.01,
        }
    }
}

impl Accuracy {
    /// An ε target with the paper's default δ = 0.01.
    pub fn epsilon(eps: f64) -> Accuracy {
        Accuracy::Epsilon { eps, delta: 0.01 }
    }

    /// A hashable key for this accuracy, with its floats bit-cast — what
    /// cache classes hash, and through them the coalescing classes and the
    /// server's in-flight table.
    pub(crate) fn key(self) -> (u8, u64, u64) {
        match self {
            Accuracy::Epsilon { eps, delta } => (0, eps.to_bits(), delta.to_bits()),
            Accuracy::WalkBudget(budget) => (1, budget, 0),
            Accuracy::Exact => (2, 0, 0),
        }
    }
}

/// An estimator configuration maps onto its ε/δ operating point, so callers
/// holding an [`ApproxConfig`](er_core::ApproxConfig) can forward it as the
/// request accuracy unchanged.
impl From<er_core::ApproxConfig> for Accuracy {
    fn from(config: er_core::ApproxConfig) -> Accuracy {
        Accuracy::Epsilon {
            eps: config.epsilon,
            delta: config.delta,
        }
    }
}

/// A full request: a [`Query`], an [`Accuracy`] target and an optional
/// explicit backend override (the planner picks when `backend` is `None`).
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// What is being asked.
    pub query: Query,
    /// How accurate the answer must be.
    pub accuracy: Accuracy,
    /// Explicit backend override; `None` lets the
    /// [`planner`](crate::planner) choose the cheapest capable backend.
    pub backend: Option<BackendChoice>,
}

impl Request {
    /// A request with the default accuracy and automatic backend choice.
    pub fn new(query: Query) -> Request {
        Request {
            query,
            accuracy: Accuracy::default(),
            backend: None,
        }
    }

    /// Sets the accuracy target.
    #[must_use]
    pub fn with_accuracy(mut self, accuracy: Accuracy) -> Request {
        self.accuracy = accuracy;
        self
    }

    /// Forces a specific backend (validated against its capabilities at
    /// submit time). With [`Accuracy::Exact`] only an exact backend
    /// ([`BackendChoice::is_exact`]) is accepted.
    #[must_use]
    pub fn with_backend(mut self, backend: BackendChoice) -> Request {
        self.backend = Some(backend);
        self
    }
}

impl From<Query> for Request {
    fn from(query: Query) -> Request {
        Request::new(query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_variants() {
        assert_eq!(Query::pair(0, 1).shape(), QueryShape::Pair);
        assert_eq!(Query::batch(vec![]).shape(), QueryShape::Batch);
        assert_eq!(Query::single_source(3).shape(), QueryShape::SingleSource);
        assert_eq!(Query::Diagonal.shape(), QueryShape::Diagonal);
        assert_eq!(Query::edge_set(vec![(0, 1)]).shape(), QueryShape::EdgeSet);
        assert_eq!(Query::top_k(0, 5).shape(), QueryShape::TopK);
    }

    #[test]
    fn request_builder_chain() {
        let request = Request::new(Query::pair(1, 2))
            .with_accuracy(Accuracy::Exact)
            .with_backend(BackendChoice::ExactCg);
        assert_eq!(request.accuracy, Accuracy::Exact);
        assert_eq!(request.backend, Some(BackendChoice::ExactCg));
        let from: Request = Query::pair(1, 2).into();
        assert_eq!(from.backend, None);
        assert_eq!(from.accuracy, Accuracy::default());
    }

    #[test]
    fn default_accuracy_is_the_papers_operating_point() {
        match Accuracy::default() {
            Accuracy::Epsilon { eps, delta } => {
                assert_eq!(eps, 0.1);
                assert_eq!(delta, 0.01);
            }
            other => panic!("unexpected default {other:?}"),
        }
        assert_eq!(
            Accuracy::epsilon(0.05),
            Accuracy::Epsilon {
                eps: 0.05,
                delta: 0.01
            }
        );
    }
}
