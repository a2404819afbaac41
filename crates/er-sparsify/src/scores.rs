//! Per-edge effective-resistance scores.
//!
//! Spielman & Srivastava sample every edge `e = (u, v)` with probability
//! proportional to its *effective-resistance score* `w_e · r(u, v)` (unit
//! weights here, so just `r(u, v)`). Computing those scores is precisely the
//! workload the paper accelerates: one pairwise query per edge. This module
//! offers four interchangeable strategies with different cost/accuracy
//! trade-offs so the sparsification pipeline (and its ablation benchmarks) can
//! swap them freely:
//!
//! * [`ScoreMethod::Exact`] — one CG Laplacian solve per edge,
//! * [`ScoreMethod::Geer`] — the paper's GEER estimator per edge,
//! * [`ScoreMethod::Sketch`] — a single Spielman–Srivastava random projection
//!   shared by all edges,
//! * [`ScoreMethod::SpanningTrees`] — Wilson-sampled uniform spanning trees;
//!   the score of `e` is the fraction of trees containing `e`
//!   (`r(e) = Pr[e ∈ UST]`, the HAY identity).

use er_core::{ApproxConfig, EstimatorError};
use er_graph::analysis::is_connected;
use er_graph::{Graph, GraphError, NodeId};
use er_linalg::{LaplacianSolver, ResistanceSketch};
use er_service::{Accuracy, BackendChoice, Query, Request, ResistanceService};
use er_walks::kernel::{self, ScratchPool};
use er_walks::{par, sample_spanning_trees};
use std::collections::HashMap;

/// Strategy for computing per-edge resistance scores.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ScoreMethod {
    /// One conjugate-gradient solve per edge (exact, `O(m)` solves).
    Exact,
    /// GEER with the given additive error per edge.
    Geer {
        /// Additive error ε of each per-edge query.
        epsilon: f64,
    },
    /// One shared random-projection sketch queried per edge.
    Sketch {
        /// Multiplicative error parameter of the sketch (controls row count).
        epsilon: f64,
    },
    /// Uniform-spanning-tree sampling; score = tree-membership frequency.
    SpanningTrees {
        /// Number of Wilson trees to sample.
        samples: usize,
    },
}

/// Per-edge effective-resistance scores for one graph.
#[derive(Clone, Debug)]
pub struct EdgeScores {
    edges: Vec<(NodeId, NodeId)>,
    scores: Vec<f64>,
    method: ScoreMethod,
}

impl EdgeScores {
    /// Minimum score assigned to any edge, so degenerate estimates (a sampled
    /// frequency of zero, a negative Monte Carlo fluctuation) never zero out
    /// an edge's sampling probability entirely.
    pub const SCORE_FLOOR: f64 = 1e-9;

    /// Computes the score of every edge of `graph` with the chosen method,
    /// using all cores (see [`Self::compute_with_threads`]).
    pub fn compute(graph: &Graph, method: ScoreMethod, seed: u64) -> Result<Self, EstimatorError> {
        Self::compute_with_threads(graph, method, seed, par::AUTO)
    }

    /// [`Self::compute`] with an explicit worker-thread count (0 = all cores).
    ///
    /// Scoring is one pairwise query per edge — exactly the workload the paper
    /// accelerates — so every method fans its per-edge work out over the
    /// deterministic parallel layer: CG solves and sketch queries are
    /// deterministic outright, GEER queries fork one estimator per edge on the
    /// edge-index RNG stream, and spanning trees sample on per-tree streams.
    /// For a fixed seed the scores are identical at any thread count.
    pub fn compute_with_threads(
        graph: &Graph,
        method: ScoreMethod,
        seed: u64,
        threads: usize,
    ) -> Result<Self, EstimatorError> {
        let edges: Vec<(NodeId, NodeId)> = graph.edges().collect();
        let scores = match method {
            ScoreMethod::Exact => {
                let solver = LaplacianSolver::for_ground_truth(graph);
                par::par_map_indexed(edges.len() as u64, seed, threads, |i, _| {
                    let (u, v) = edges[i as usize];
                    solver.effective_resistance(u, v)
                })
            }
            ScoreMethod::Geer { epsilon } => {
                // One edge-set request through the unified query plane, with
                // GEER forced: the service forks one estimator per edge on
                // an RNG stream derived from the edge's endpoints (content-
                // addressed since the concurrent-serving redesign), so scores
                // are thread-count invariant and independent of the order in
                // which edges are scored.
                let config = ApproxConfig {
                    epsilon,
                    seed,
                    threads,
                    ..ApproxConfig::default()
                };
                let service = ResistanceService::with_config(graph, config)?;
                let request = Request::new(Query::edge_set(edges.clone()))
                    .with_accuracy(Accuracy::Epsilon {
                        eps: epsilon,
                        delta: config.delta,
                    })
                    .with_backend(BackendChoice::Geer);
                service
                    .submit(&request)
                    .map_err(EstimatorError::from)?
                    .values
            }
            ScoreMethod::Sketch { epsilon } => {
                let sketch = ResistanceSketch::build(graph, epsilon, 24.0, seed);
                edges.iter().map(|&(u, v)| sketch.query(u, v)).collect()
            }
            ScoreMethod::SpanningTrees { samples } => {
                // Wilson's walks from another component never reach the
                // tree, so a disconnected graph would hang the sampler.
                if !is_connected(graph) {
                    return Err(EstimatorError::Graph(GraphError::NotConnected));
                }
                let samples = samples.max(1);
                // Tally tree membership per *edge id* through the walk
                // kernel's scratch layer: each Wilson tree contributes its
                // n − 1 edges (looked up in a prebuilt edge index) instead of
                // scanning all m edges per tree, and workers reuse
                // epoch-stamped sparse tallies instead of zeroing a dense
                // per-edge vector. Integer merges keep the counts
                // thread-count invariant.
                let edge_index: HashMap<(NodeId, NodeId), usize> =
                    edges.iter().enumerate().map(|(idx, &e)| (e, idx)).collect();
                let pool = ScratchPool::new(edges.len());
                // The multi-root lockstep driver grows several of the
                // range's trees concurrently; tree `i` still draws from
                // stream `(seed, i)`, so the counts are bit-identical to
                // the old one-tree-at-a-time loop.
                let (counts, _steps) =
                    kernel::par_tally(samples as u64, threads, &pool, |range, scratch| {
                        sample_spanning_trees(graph, 0, seed, range, &mut |_, tree, steps| {
                            tree.for_each_edge(|u, v| scratch.bump(edge_index[&(u, v)]));
                            scratch.add_steps(steps);
                        })
                    });
                counts
                    .into_iter()
                    .map(|c| c as f64 / samples as f64)
                    .collect()
            }
        };
        let scores = scores
            .into_iter()
            .map(|s| s.clamp(Self::SCORE_FLOOR, 1.0))
            .collect();
        Ok(EdgeScores {
            edges,
            scores,
            method,
        })
    }

    /// The strategy used to compute the scores.
    pub fn method(&self) -> ScoreMethod {
        self.method
    }

    /// The edges, in the same order as [`scores`](Self::scores).
    pub fn edges(&self) -> &[(NodeId, NodeId)] {
        &self.edges
    }

    /// The per-edge scores (clamped into `[SCORE_FLOOR, 1]`).
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// Number of edges scored.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True when the graph had no edges.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Sum of all scores. Foster's theorem says the exact value is `n − 1`,
    /// which makes this a useful calibration diagnostic for the approximate
    /// methods.
    pub fn total(&self) -> f64 {
        self.scores.iter().sum()
    }

    /// Sampling probability of each edge: score normalised by the total.
    pub fn probabilities(&self) -> Vec<f64> {
        let total = self.total();
        self.scores.iter().map(|&s| s / total).collect()
    }

    /// Maximum absolute deviation from a reference score vector (testing and
    /// ablation helper).
    pub fn max_deviation_from(&self, reference: &EdgeScores) -> f64 {
        assert_eq!(self.len(), reference.len());
        self.scores
            .iter()
            .zip(&reference.scores)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_graph::generators;

    #[test]
    fn exact_scores_satisfy_fosters_theorem() {
        let g = generators::social_network_like(120, 8.0, 2).unwrap();
        let scores = EdgeScores::compute(&g, ScoreMethod::Exact, 0).unwrap();
        assert_eq!(scores.len(), g.num_edges());
        let foster = scores.total();
        let expected = g.num_nodes() as f64 - 1.0;
        assert!(
            (foster - expected).abs() < 1e-5,
            "Foster sum {foster} vs {expected}"
        );
        let probabilities = scores.probabilities();
        let total: f64 = probabilities.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn approximate_methods_track_exact_scores() {
        let g = generators::social_network_like(150, 10.0, 6).unwrap();
        let exact = EdgeScores::compute(&g, ScoreMethod::Exact, 0).unwrap();
        let geer = EdgeScores::compute(&g, ScoreMethod::Geer { epsilon: 0.1 }, 1).unwrap();
        // Each per-edge query is within ε = 0.1 with probability ≥ 1 − δ; over
        // ~750 edges allow a small slack beyond ε for the rare tail.
        assert!(geer.max_deviation_from(&exact) <= 0.15);
        let trees =
            EdgeScores::compute(&g, ScoreMethod::SpanningTrees { samples: 400 }, 2).unwrap();
        // Tree-frequency estimates of a per-edge probability have standard
        // deviation <= 0.5/sqrt(400) = 0.025; allow five sigmas.
        assert!(trees.max_deviation_from(&exact) < 0.13);
    }

    #[test]
    fn sketch_scores_preserve_foster_total_approximately() {
        let g = generators::barabasi_albert(150, 4, 3).unwrap();
        let sketch = EdgeScores::compute(&g, ScoreMethod::Sketch { epsilon: 0.3 }, 4).unwrap();
        let expected = g.num_nodes() as f64 - 1.0;
        assert!(
            (sketch.total() - expected).abs() / expected < 0.35,
            "sketch total {} vs {expected}",
            sketch.total()
        );
    }

    #[test]
    fn scores_are_clamped_into_unit_interval() {
        let g = generators::complete(12).unwrap();
        for method in [
            ScoreMethod::Exact,
            ScoreMethod::Geer { epsilon: 0.5 },
            ScoreMethod::SpanningTrees { samples: 50 },
        ] {
            let scores = EdgeScores::compute(&g, method, 9).unwrap();
            assert!(scores
                .scores()
                .iter()
                .all(|&s| (EdgeScores::SCORE_FLOOR..=1.0).contains(&s)));
            assert!(!scores.is_empty());
            assert_eq!(scores.method(), method);
        }
    }

    #[test]
    fn spanning_trees_on_a_disconnected_graph_are_a_typed_error() {
        // Two disjoint triangles: Wilson's walks from the second never reach
        // a tree rooted in the first, so scoring must refuse up front, as
        // GEER does, instead of sampling forever.
        let g = er_graph::GraphBuilder::from_edges(
            6,
            vec![(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
        )
        .build()
        .unwrap();
        for method in [
            ScoreMethod::SpanningTrees { samples: 8 },
            ScoreMethod::Geer { epsilon: 0.1 },
        ] {
            let result = EdgeScores::compute_with_threads(&g, method, 7, 1);
            assert!(
                matches!(result, Err(EstimatorError::Graph(GraphError::NotConnected))),
                "{method:?}: {:?}",
                result.map(|s| s.len())
            );
        }
    }

    #[test]
    fn tree_edges_of_a_tree_like_region_score_one() {
        // Every spanning tree contains every bridge, so bridges score exactly
        // 1 under the spanning-tree method and exactly 1 under Exact.
        let lolly = generators::lollipop(5, 3).unwrap();
        let exact = EdgeScores::compute(&lolly, ScoreMethod::Exact, 0).unwrap();
        let trees =
            EdgeScores::compute(&lolly, ScoreMethod::SpanningTrees { samples: 64 }, 1).unwrap();
        for (idx, &(u, v)) in exact.edges().iter().enumerate() {
            if u >= 4 || v >= 5 {
                // tail edges are bridges
                assert!((exact.scores()[idx] - 1.0).abs() < 1e-9, "bridge ({u},{v})");
                assert!((trees.scores()[idx] - 1.0).abs() < 1e-12);
            }
        }
    }
}
