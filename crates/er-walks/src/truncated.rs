//! Fixed-length ("truncated") simple random walks.
//!
//! A truncated walk of length ℓ from `u` is the sequence of ℓ nodes visited
//! at steps 1..=ℓ (the start node is *not* included, matching Lemma 3.3 of
//! the paper, where a length-ℓ_f walk "contains ℓ_f visited nodes").
//! [`WalkKernel::for_each_visit`] walks one of them node by node, and the
//! kernel's batched drivers run many at once; this module keeps the
//! endpoint-only primitive TP needs.

use crate::kernel::WalkKernel;
use er_graph::{Graph, NodeId};
use rand::Rng;

/// Returns only the endpoint of a length-`len` walk from `start`
/// (the node visited at step `len`; `start` itself for `len == 0`).
///
/// TP estimates `p_i(s, t)` as the fraction of length-`i` walks from `s`
/// whose endpoint is `t`, so it only needs this cheaper primitive.
#[inline]
pub fn walk_endpoint<R: Rng + ?Sized>(
    graph: &Graph,
    start: NodeId,
    len: usize,
    rng: &mut R,
) -> NodeId {
    WalkKernel::new(graph).endpoint(start, len, rng).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_graph::generators;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The nodes a length-`len` walk from `start` visits (steps 1..=len).
    fn visits(graph: &Graph, start: NodeId, len: usize, rng: &mut StdRng) -> Vec<NodeId> {
        let mut nodes = Vec::with_capacity(len);
        WalkKernel::new(graph).for_each_visit(start, len, rng, |v| nodes.push(v));
        nodes
    }

    #[test]
    fn walk_has_requested_length_and_valid_steps() {
        let g = generators::social_network_like(200, 8.0, 1).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        for &len in &[1usize, 5, 20] {
            let w = visits(&g, 3, len, &mut rng);
            assert_eq!(w.len(), len);
            let mut prev = 3;
            for &v in &w {
                assert!(g.has_edge(prev, v), "step {prev} -> {v} must be an edge");
                prev = v;
            }
        }
    }

    #[test]
    fn walk_excludes_start_node_at_step_zero() {
        // On a star, a walk from a leaf alternates leaf -> hub -> leaf -> ...
        let g = generators::star(5).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let w = visits(&g, 2, 4, &mut rng);
        assert_eq!(w.len(), 4);
        assert_eq!(w[0], 0, "first visited node is the hub");
        assert_ne!(w[1], 0, "second visited node is a leaf");
        assert_eq!(w[2], 0);
    }

    #[test]
    fn endpoint_matches_last_visited_node_for_same_rng_stream() {
        let g = generators::barabasi_albert(100, 3, 9).unwrap();
        let mut rng1 = StdRng::seed_from_u64(42);
        let mut rng2 = StdRng::seed_from_u64(42);
        let nodes = visits(&g, 10, 15, &mut rng1);
        let end = walk_endpoint(&g, 10, 15, &mut rng2);
        assert_eq!(*nodes.last().unwrap(), end);
    }

    #[test]
    fn zero_length_walk_visits_nothing() {
        let g = generators::complete(4).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(visits(&g, 1, 0, &mut rng).is_empty());
        assert_eq!(walk_endpoint(&g, 1, 0, &mut rng), 1);
    }

    #[test]
    fn walk_stops_at_isolated_node() {
        // node 2 is isolated; a walk starting there goes nowhere.
        let g = er_graph::GraphBuilder::new(3)
            .add_edge(0, 1)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(visits(&g, 2, 5, &mut rng).is_empty());
        assert_eq!(walk_endpoint(&g, 2, 5, &mut rng), 2);
    }

    #[test]
    fn endpoint_distribution_converges_to_stationary_on_complete_graph() {
        // On K_n the walk mixes in one step; endpoints should be uniform over
        // the other nodes.
        let g = generators::complete(6).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = [0usize; 6];
        let trials = 30_000;
        for _ in 0..trials {
            counts[walk_endpoint(&g, 0, 3, &mut rng)] += 1;
        }
        // long-run frequency of each node ≈ its stationary probability 1/6;
        // parity effects are absent because K_6 is non-bipartite.
        for (v, &count) in counts.iter().enumerate() {
            let freq = count as f64 / trials as f64;
            let expected = if v == 0 {
                0.2 * 0.2 + 0.8 * 0.16
            } else {
                1.0 / 6.0
            };
            // loose check: within 4 percentage points of 1/6
            let _ = expected;
            assert!((freq - 1.0 / 6.0).abs() < 0.04, "node {v} freq {freq}");
        }
    }
}
