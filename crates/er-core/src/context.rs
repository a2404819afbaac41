//! Per-graph preprocessing shared by all estimators.
//!
//! The only preprocessing the paper's methods need is the eigenvalue bound
//! `λ = max{|λ₂|, |λₙ|}` of the transition matrix (Section 3.1): it is
//! computed once per graph (the paper quotes under five minutes with ARPACK on
//! the 117-million-edge Orkut graph) and reused by every query through
//! Eq. (5)/(6). [`GraphContext`] bundles a shared handle to the graph with
//! that value and validates the standing assumptions (connected,
//! non-bipartite).
//!
//! The context is **owned**: it holds the graph as an `Arc<Graph>`, so it is
//! `Send + Sync`, cheap to clone (a reference-count bump plus three floats)
//! and free of borrow lifetimes — estimators store their own copy, services
//! can cache contexts, and the parallel sampling layer can share one context
//! across worker threads.

use crate::error::EstimatorError;
use er_graph::{analysis, Graph, IntoGraphArc};
use er_linalg::lanczos;
use std::sync::Arc;

/// A graph together with its spectral preprocessing.
#[derive(Clone, Debug)]
pub struct GraphContext {
    graph: Arc<Graph>,
    lambda: f64,
    lambda2: f64,
    lambda_n: f64,
}

impl GraphContext {
    /// Default Krylov dimension for the Lanczos eigenvalue estimation.
    pub const DEFAULT_LANCZOS_ITERATIONS: usize = 120;

    /// Validates the graph (connected, non-bipartite) and computes
    /// `λ = max{|λ₂|, |λₙ|}` with the default Lanczos budget.
    ///
    /// Accepts a `Graph`, an `Arc<Graph>`, or a reference to either (a `&Graph`
    /// is copied once; pass the graph or an `Arc` by value to avoid the copy).
    pub fn preprocess(graph: impl IntoGraphArc) -> Result<Self, EstimatorError> {
        Self::preprocess_with(graph, Self::DEFAULT_LANCZOS_ITERATIONS, 0xe16e)
    }

    /// Validates the graph and computes λ with an explicit Lanczos iteration
    /// budget and seed.
    pub fn preprocess_with(
        graph: impl IntoGraphArc,
        lanczos_iterations: usize,
        seed: u64,
    ) -> Result<Self, EstimatorError> {
        let bounds = |g: &Graph| (lanczos::spectral_bounds(g, lanczos_iterations, seed), None);
        Ok(Self::validate_then_measure(graph, bounds)?.0)
    }

    /// [`preprocess_with`](Self::preprocess_with) for a graph that evolves:
    /// Lanczos starts from `start` (the Ritz vector a previous call
    /// returned) when it is given, and the Ritz vector for the next call is
    /// returned beside the context (`None` on the dense path, n ≤ 256).
    ///
    /// With `start = None` the context is the one `preprocess_with` builds
    /// with the same budget and seed. This is the dynamic service's refresh.
    pub fn preprocess_warm(
        graph: impl IntoGraphArc,
        lanczos_iterations: usize,
        seed: u64,
        start: Option<&[f64]>,
    ) -> Result<(Self, Option<Vec<f64>>), EstimatorError> {
        Self::validate_then_measure(graph, |g| {
            lanczos::spectral_bounds_warm(g, lanczos_iterations, seed, start)
        })
    }

    /// The one preprocessing path: validates the graph once, then keeps the
    /// `(λ₂, λₙ)` that `bounds` measures and derives λ from them.
    fn validate_then_measure(
        graph: impl IntoGraphArc,
        bounds: impl FnOnce(&Graph) -> ((f64, f64), Option<Vec<f64>>),
    ) -> Result<(Self, Option<Vec<f64>>), EstimatorError> {
        let graph = graph.into_graph_arc();
        analysis::validate_ergodic(&graph)?;
        let ((lambda2, lambda_n), ritz) = bounds(&graph);
        let lambda = lambda2.abs().max(lambda_n.abs()).clamp(1e-9, 1.0 - 1e-9);
        let context = GraphContext {
            graph,
            lambda,
            lambda2,
            lambda_n,
        };
        Ok((context, ritz))
    }

    /// Builds a context from an externally supplied λ (e.g. loaded from a
    /// preprocessing file, or a synthetic value in tests). The graph is still
    /// validated.
    pub fn with_lambda(graph: impl IntoGraphArc, lambda: f64) -> Result<Self, EstimatorError> {
        let graph = graph.into_graph_arc();
        analysis::validate_ergodic(&graph)?;
        if !(lambda > 0.0 && lambda < 1.0) {
            return Err(EstimatorError::InvalidParameter {
                name: "lambda",
                message: format!("must lie in (0, 1), got {lambda}"),
            });
        }
        Ok(GraphContext {
            graph,
            lambda,
            lambda2: lambda,
            lambda_n: -lambda,
        })
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The shared graph handle (for callers that want to keep the graph alive
    /// beyond the context, or to build further owned components on it).
    pub fn graph_arc(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// `λ = max{|λ₂|, |λₙ|}`, clamped into (0, 1).
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The spectral gap `1 − λ` of the transition matrix.
    ///
    /// Because [`lambda`](Self::lambda) is clamped into
    /// `(1e-9, 1 − 1e-9)` at preprocessing time, the gap is always inside
    /// `(1e-9, 1 − 1e-9)` too — callers (notably the service planner's
    /// slow-mixing rule) can compare it against thresholds without
    /// re-deriving anything from `lambda2`/`lambda_n` or handling 0/1
    /// degenerate values. Small gap ⇒ slow mixing (long walks, GEER's Monte
    /// Carlo tail is expensive); large gap ⇒ fast mixing.
    pub fn spectral_gap(&self) -> f64 {
        1.0 - self.lambda
    }

    /// The second-largest eigenvalue λ₂ of the transition matrix.
    pub fn lambda2(&self) -> f64 {
        self.lambda2
    }

    /// The smallest eigenvalue λₙ of the transition matrix.
    pub fn lambda_n(&self) -> f64 {
        self.lambda_n
    }

    /// Validates a query pair: both endpoints in range and `s != t` is *not*
    /// required (ER of a node with itself is 0 and estimators handle it).
    pub fn check_pair(&self, s: usize, t: usize) -> Result<(), EstimatorError> {
        self.graph.check_node(s)?;
        self.graph.check_node(t)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_graph::generators;

    #[test]
    fn preprocess_computes_lambda_in_unit_interval() {
        let g = generators::social_network_like(300, 8.0, 3).unwrap();
        let ctx = GraphContext::preprocess(&g).unwrap();
        assert!(ctx.lambda() > 0.0 && ctx.lambda() < 1.0);
        assert!(ctx.lambda2() <= 1.0);
        assert!(ctx.lambda_n() >= -1.0);
        assert!(ctx.lambda() >= ctx.lambda2().abs() - 1e-12);
        assert_eq!(ctx.graph().num_nodes(), 300);
    }

    #[test]
    fn preprocess_rejects_invalid_graphs() {
        let disconnected = er_graph::GraphBuilder::from_edges(4, vec![(0, 1), (2, 3)])
            .build()
            .unwrap();
        assert!(GraphContext::preprocess(&disconnected).is_err());
        let bipartite = generators::cycle(6).unwrap();
        assert!(GraphContext::preprocess(&bipartite).is_err());
    }

    #[test]
    fn warm_preprocessing_without_a_start_matches_preprocess_with() {
        let g = generators::social_network_like(300, 8.0, 3).unwrap();
        let cold = GraphContext::preprocess_with(&g, 120, 0xd1a).unwrap();
        let (warm, ritz) = GraphContext::preprocess_warm(&g, 120, 0xd1a, None).unwrap();
        assert_eq!(cold.lambda().to_bits(), warm.lambda().to_bits());
        assert_eq!(cold.lambda2().to_bits(), warm.lambda2().to_bits());
        assert_eq!(cold.lambda_n().to_bits(), warm.lambda_n().to_bits());
        assert!(ritz.is_some(), "n > 256 returns a warm-start vector");

        let disconnected = er_graph::GraphBuilder::from_edges(4, vec![(0, 1), (2, 3)])
            .build()
            .unwrap();
        assert!(matches!(
            GraphContext::preprocess_warm(&disconnected, 40, 1, None),
            Err(EstimatorError::Graph(_))
        ));
    }

    #[test]
    fn with_lambda_validates_range() {
        let g = generators::complete(5).unwrap();
        assert!(GraphContext::with_lambda(&g, 0.5).is_ok());
        assert!(GraphContext::with_lambda(&g, 0.0).is_err());
        assert!(GraphContext::with_lambda(&g, 1.0).is_err());
    }

    #[test]
    fn check_pair_bounds() {
        let g = generators::complete(5).unwrap();
        let ctx = GraphContext::preprocess(&g).unwrap();
        assert!(ctx.check_pair(0, 4).is_ok());
        assert!(ctx.check_pair(0, 5).is_err());
    }

    #[test]
    fn lambda_of_complete_graph_matches_theory() {
        // K_n: eigenvalues of P are 1 and -1/(n-1) so lambda = 1/(n-1).
        let g = generators::complete(11).unwrap();
        let ctx = GraphContext::preprocess(&g).unwrap();
        assert!((ctx.lambda() - 0.1).abs() < 1e-6, "lambda {}", ctx.lambda());
    }

    #[test]
    fn context_is_owned_send_sync_and_cheap_to_clone() {
        fn assert_send_sync<T: Send + Sync + Clone + 'static>() {}
        assert_send_sync::<GraphContext>();

        // Contexts built from an Arc share the graph without copying it, can
        // outlive the caller's handle, and clones agree on everything.
        let g = std::sync::Arc::new(generators::complete(7).unwrap());
        let ctx = GraphContext::preprocess(g.clone()).unwrap();
        assert!(std::sync::Arc::ptr_eq(ctx.graph_arc(), &g));
        drop(g);
        let clone = ctx.clone();
        assert!(std::sync::Arc::ptr_eq(ctx.graph_arc(), clone.graph_arc()));
        assert_eq!(ctx.lambda(), clone.lambda());

        // A context can be moved to another thread and used there.
        let handle = std::thread::spawn(move || clone.graph().num_nodes());
        assert_eq!(handle.join().unwrap(), 7);
    }
}
