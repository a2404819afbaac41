//! Landmark-based effective-resistance bounds.
//!
//! Effective resistance is a squared Euclidean distance
//! (`r(s, t) = ‖L†^{1/2}(e_s − e_t)‖²`), so `√r` is a metric. Pre-computing
//! the exact resistance from a small set of *landmark* nodes to every node
//! therefore yields, for any pair `(s, t)` and landmark `l`, the triangle
//! bounds
//!
//! ```text
//! (√r(s,l) − √r(t,l))²  ≤  r(s, t)  ≤  (√r(s,l) + √r(t,l))²
//! ```
//!
//! Taking the best bound over all landmarks gives an O(k)-time answer per
//! query with no per-query solves or walks — useful as a filter in front of
//! the exact estimators ("only run GEER when the bounds are too loose") and as
//! a standalone approximation when the workload tolerates bounded relative
//! error.

use crate::error::IndexError;
use crate::single_source::ErIndex;
use er_graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// How landmark nodes are chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LandmarkSelection {
    /// Uniformly at random.
    Random,
    /// The highest-degree nodes (hubs cover social networks well).
    HighestDegree,
    /// Half hubs, half uniform random.
    Mixed,
}

/// Lower/upper bounds (and a point estimate) for one query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LandmarkBounds {
    /// Best (largest) lower bound over all landmarks.
    pub lower: f64,
    /// Best (smallest) upper bound over all landmarks.
    pub upper: f64,
}

impl LandmarkBounds {
    /// Midpoint of the bounds — the index's point estimate.
    pub fn estimate(&self) -> f64 {
        0.5 * (self.lower + self.upper)
    }

    /// Width of the bound interval; small width means the landmarks localise
    /// the pair well and no exact query is needed.
    pub fn width(&self) -> f64 {
        self.upper - self.lower
    }

    /// Whether a value lies inside the (closed) bound interval.
    pub fn contains(&self, value: f64) -> bool {
        value >= self.lower - 1e-9 && value <= self.upper + 1e-9
    }
}

/// Landmark index: exact resistance vectors from `k` landmarks to all nodes.
pub struct LandmarkIndex {
    landmarks: Vec<NodeId>,
    /// `distances[j][v] = √r(landmark_j, v)`.
    distances: Vec<Vec<f64>>,
    num_nodes: usize,
}

impl LandmarkIndex {
    /// Builds an index with `num_landmarks` landmarks chosen by `selection`
    /// on the graph of `index`, reusing its pseudo-inverse diagonal: each
    /// landmark costs one column solve and no diagonal is rebuilt. The
    /// landmark columns are solved on a private copy of the diagonal, so
    /// they never enter (or evict from) `index`'s column cache.
    pub fn build(
        index: &ErIndex,
        num_landmarks: usize,
        selection: LandmarkSelection,
        seed: u64,
    ) -> Result<Self, IndexError> {
        if num_landmarks == 0 {
            return Err(IndexError::InvalidConfiguration {
                name: "num_landmarks",
                message: "must be at least 1".into(),
            });
        }
        let graph = index.graph();
        let n = graph.num_nodes();
        let landmarks = select_landmarks(graph, num_landmarks.min(n), selection, seed);
        let columns = ErIndex::from_parts(
            index.graph_arc().clone(),
            index.diagonal().to_vec(),
            Vec::new(),
            0,
        );
        let mut distances = Vec::with_capacity(landmarks.len());
        for &l in &landmarks {
            let profile = columns.single_source(l)?;
            distances.push(profile.into_iter().map(|r| r.max(0.0).sqrt()).collect());
        }
        Ok(LandmarkIndex {
            landmarks,
            distances,
            num_nodes: n,
        })
    }

    /// The landmark node ids.
    pub fn landmarks(&self) -> &[NodeId] {
        &self.landmarks
    }

    /// Triangle-inequality bounds on `r(s, t)` using every landmark.
    pub fn bounds(&self, s: NodeId, t: NodeId) -> Result<LandmarkBounds, IndexError> {
        if s >= self.num_nodes || t >= self.num_nodes {
            return Err(IndexError::Graph(er_graph::GraphError::NodeOutOfRange {
                node: s.max(t),
                n: self.num_nodes,
            }));
        }
        if s == t {
            return Ok(LandmarkBounds {
                lower: 0.0,
                upper: 0.0,
            });
        }
        let mut lower: f64 = 0.0;
        let mut upper = f64::INFINITY;
        for (j, &l) in self.landmarks.iter().enumerate() {
            let a = self.distances[j][s];
            let b = self.distances[j][t];
            let low = (a - b) * (a - b);
            let high = (a + b) * (a + b);
            lower = lower.max(low);
            upper = upper.min(high);
            // A query endpoint that *is* a landmark gives exact values.
            if l == s || l == t {
                let exact = if l == s { b * b } else { a * a };
                return Ok(LandmarkBounds {
                    lower: exact,
                    upper: exact,
                });
            }
        }
        Ok(LandmarkBounds { lower, upper })
    }
}

fn select_landmarks(
    graph: &Graph,
    k: usize,
    selection: LandmarkSelection,
    seed: u64,
) -> Vec<NodeId> {
    let n = graph.num_nodes();
    let mut rng = StdRng::seed_from_u64(seed);
    let by_degree = || {
        let mut nodes: Vec<NodeId> = (0..n).collect();
        nodes.sort_by_key(|&v| std::cmp::Reverse(graph.degree(v)));
        nodes
    };
    match selection {
        LandmarkSelection::Random => {
            let mut nodes: Vec<NodeId> = (0..n).collect();
            nodes.shuffle(&mut rng);
            nodes.truncate(k);
            nodes
        }
        LandmarkSelection::HighestDegree => {
            let mut nodes = by_degree();
            nodes.truncate(k);
            nodes
        }
        LandmarkSelection::Mixed => {
            let hubs = k / 2;
            let mut chosen: Vec<NodeId> = by_degree().into_iter().take(hubs).collect();
            let mut rest: Vec<NodeId> = (0..n).filter(|v| !chosen.contains(v)).collect();
            rest.shuffle(&mut rng);
            chosen.extend(rest.into_iter().take(k - chosen.len()));
            chosen
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_graph::generators;
    use er_linalg::LaplacianSolver;

    fn landmarks(g: &Graph, k: usize, selection: LandmarkSelection, seed: u64) -> LandmarkIndex {
        LandmarkIndex::build(&ErIndex::build(g).unwrap(), k, selection, seed).unwrap()
    }

    #[test]
    fn bounds_always_contain_the_exact_value() {
        let g = generators::social_network_like(150, 8.0, 5).unwrap();
        let index = landmarks(&g, 8, LandmarkSelection::Mixed, 3);
        let solver = LaplacianSolver::for_ground_truth(&g);
        for &(s, t) in &[(0usize, 75usize), (10, 140), (33, 34), (7, 7)] {
            let exact = solver.effective_resistance(s, t);
            let bounds = index.bounds(s, t).unwrap();
            assert!(
                bounds.contains(exact),
                "({s},{t}): exact {exact} outside [{}, {}]",
                bounds.lower,
                bounds.upper
            );
            assert!(bounds.lower <= bounds.upper + 1e-12);
        }
    }

    #[test]
    fn landmark_endpoint_queries_are_exact() {
        let g = generators::barabasi_albert(100, 3, 2).unwrap();
        let index = landmarks(&g, 5, LandmarkSelection::HighestDegree, 1);
        let solver = LaplacianSolver::for_ground_truth(&g);
        let l = index.landmarks()[0];
        let other = if l == 0 { 1 } else { 0 };
        let bounds = index.bounds(l, other).unwrap();
        let exact = solver.effective_resistance(l, other);
        assert!((bounds.lower - exact).abs() < 1e-6);
        assert!((bounds.upper - exact).abs() < 1e-6);
        assert!(bounds.width() < 1e-6);
    }

    #[test]
    fn more_landmarks_never_loosen_bounds() {
        let g = generators::social_network_like(120, 7.0, 9).unwrap();
        let small = landmarks(&g, 2, LandmarkSelection::HighestDegree, 4);
        let large = landmarks(&g, 10, LandmarkSelection::HighestDegree, 4);
        // The first two landmarks of the high-degree selection coincide, so the
        // 10-landmark bounds can only be tighter or equal.
        for &(s, t) in &[(3usize, 90usize), (20, 60), (55, 119)] {
            let b_small = small.bounds(s, t).unwrap();
            let b_large = large.bounds(s, t).unwrap();
            assert!(b_large.lower >= b_small.lower - 1e-9);
            assert!(b_large.upper <= b_small.upper + 1e-9);
        }
    }

    #[test]
    fn selection_strategies_produce_requested_counts() {
        let g = generators::barabasi_albert(200, 4, 7).unwrap();
        for selection in [
            LandmarkSelection::Random,
            LandmarkSelection::HighestDegree,
            LandmarkSelection::Mixed,
        ] {
            let index = landmarks(&g, 6, selection, 11);
            assert_eq!(index.landmarks().len(), 6);
            let mut sorted = index.landmarks().to_vec();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 6, "landmarks must be distinct");
        }
        // Hubs-first selection starts with the maximum-degree node.
        let hubs = landmarks(&g, 3, LandmarkSelection::HighestDegree, 0);
        let max_degree = g.max_degree();
        assert_eq!(g.degree(hubs.landmarks()[0]), max_degree);
    }

    #[test]
    fn invalid_configuration_is_rejected() {
        let g = generators::complete(10).unwrap();
        let exact = ErIndex::build(&g).unwrap();
        assert!(LandmarkIndex::build(&exact, 0, LandmarkSelection::Random, 0).is_err());
        let index = LandmarkIndex::build(&exact, 20, LandmarkSelection::Random, 0).unwrap();
        assert_eq!(index.landmarks().len(), 10, "clamped to n");
        assert!(index.bounds(0, 99).is_err());
    }
}
