//! Structural graph transformations.
//!
//! The estimators themselves never mutate a [`Graph`], but several downstream
//! components do need derived graphs:
//!
//! * the sparsification pipeline removes and re-weights edges,
//! * the robustness / cascading-failure analyses delete edges and re-query,
//! * the dynamic-graph index rebuilds a graph after edge insertions/deletions,
//! * the spanning-tree identity `r(s, t) = |T(G')| / |T(G)|` (Corollary 4.2 of
//!   \[40\] in the paper) needs the graph `G'` obtained by identifying `s` and
//!   `t`,
//! * k-core pruning is a common preprocessing step before similarity search.
//!
//! Every transform returns a fresh [`Graph`] (the CSR representation is
//! immutable by design) together with whatever node mapping is needed to
//! translate ids back to the original graph.

use crate::builder::GraphBuilder;
use crate::error::GraphError;
use crate::graph::{Graph, NodeId};

/// The induced subgraph on `nodes`, plus the mapping from new ids to the
/// original ids (`mapping[new] = old`).
///
/// Nodes may be listed in any order; duplicates are ignored. The resulting
/// graph relabels the kept nodes to `0..k` in the order of first appearance.
pub fn induced_subgraph(g: &Graph, nodes: &[NodeId]) -> Result<(Graph, Vec<NodeId>), GraphError> {
    let mut new_id = vec![usize::MAX; g.num_nodes()];
    let mut mapping = Vec::new();
    for &v in nodes {
        g.check_node(v)?;
        if new_id[v] == usize::MAX {
            new_id[v] = mapping.len();
            mapping.push(v);
        }
    }
    if mapping.is_empty() {
        return Err(GraphError::Empty);
    }
    let mut builder = GraphBuilder::new(mapping.len());
    for (new_u, &old_u) in mapping.iter().enumerate() {
        for &old_v in g.neighbors(old_u) {
            let new_v = new_id[old_v];
            if new_v != usize::MAX && new_u < new_v {
                builder = builder.add_edge(new_u, new_v);
            }
        }
    }
    Ok((builder.build()?, mapping))
}

/// A copy of `g` with the listed undirected edges removed.
///
/// Edges may be given in either orientation; edges not present in `g` are
/// ignored. The node set is unchanged, so the result may be disconnected or
/// contain isolated nodes — callers that need ergodicity should re-validate.
pub fn remove_edges(g: &Graph, edges: &[(NodeId, NodeId)]) -> Result<Graph, GraphError> {
    let normalize = |(u, v): (NodeId, NodeId)| if u < v { (u, v) } else { (v, u) };
    let mut removed: Vec<(NodeId, NodeId)> = edges.iter().copied().map(normalize).collect();
    removed.sort_unstable();
    removed.dedup();
    let kept = g
        .edges()
        .filter(|&e| removed.binary_search(&normalize(e)).is_err());
    GraphBuilder::from_edges(g.num_nodes(), kept).build()
}

/// A copy of `g` with the listed undirected edges added (duplicates and
/// self-loops are ignored, exactly as in [`GraphBuilder`]).
pub fn add_edges(g: &Graph, edges: &[(NodeId, NodeId)]) -> Result<Graph, GraphError> {
    let mut builder = GraphBuilder::from_edges(g.num_nodes(), g.edges());
    for &(u, v) in edges {
        builder = builder.add_edge(u, v);
    }
    builder.build()
}

/// The graph obtained by identifying (merging) nodes `s` and `t` into a single
/// node, as used by the spanning-tree characterisation of effective
/// resistance: `r(s, t) = |T(G/{s,t})| / |T(G)|`.
///
/// The merged node keeps the id `min(s, t)`; every other node above
/// `max(s, t)` shifts down by one. Parallel edges created by the merge are
/// collapsed (the [`Graph`] type is simple), which is the correct behaviour
/// for spanning-tree *membership* questions but changes counts for
/// multigraph-sensitive quantities; callers needing multiplicities should work
/// from the returned mapping.
///
/// Returns the contracted graph and the mapping `old id -> new id`.
pub fn contract_pair(g: &Graph, s: NodeId, t: NodeId) -> Result<(Graph, Vec<NodeId>), GraphError> {
    g.check_node(s)?;
    g.check_node(t)?;
    if s == t {
        let identity: Vec<NodeId> = (0..g.num_nodes()).collect();
        let copy = GraphBuilder::from_edges(g.num_nodes(), g.edges()).build()?;
        return Ok((copy, identity));
    }
    let (keep, drop) = if s < t { (s, t) } else { (t, s) };
    let mut mapping = Vec::with_capacity(g.num_nodes());
    for v in 0..g.num_nodes() {
        if v == drop {
            mapping.push(keep);
        } else if v > drop {
            mapping.push(v - 1);
        } else {
            mapping.push(v);
        }
    }
    let edges = g
        .edges()
        .map(|(u, v)| (mapping[u], mapping[v]))
        .filter(|&(u, v)| u != v);
    Ok((
        GraphBuilder::from_edges(g.num_nodes() - 1, edges).build()?,
        mapping,
    ))
}

/// Core number (largest `k` such that the node belongs to the `k`-core) of
/// every node, computed with the standard peeling algorithm in `O(n + m)`.
pub fn core_numbers(g: &Graph) -> Vec<usize> {
    let n = g.num_nodes();
    let mut degree: Vec<usize> = (0..n).map(|v| g.degree(v)).collect();
    let max_degree = degree.iter().copied().max().unwrap_or(0);

    // Bucket sort nodes by degree (bin[d] = start offset of degree-d nodes).
    let mut bin = vec![0usize; max_degree + 2];
    for &d in &degree {
        bin[d + 1] += 1;
    }
    for d in 0..=max_degree {
        bin[d + 1] += bin[d];
    }
    let mut position = vec![0usize; n];
    let mut order = vec![0usize; n];
    let mut next = bin.clone();
    for v in 0..n {
        let d = degree[v];
        position[v] = next[d];
        order[next[d]] = v;
        next[d] += 1;
    }

    let mut core = degree.clone();
    for i in 0..n {
        let v = order[i];
        core[v] = degree[v];
        for &u in g.neighbors(v) {
            if degree[u] > degree[v] {
                // Move u into the bucket one lower: swap it with the first
                // node of its current bucket, then shrink that bucket.
                let du = degree[u];
                let pu = position[u];
                let pw = bin[du];
                let w = order[pw];
                if u != w {
                    order[pu] = w;
                    order[pw] = u;
                    position[u] = pw;
                    position[w] = pu;
                }
                bin[du] += 1;
                degree[u] -= 1;
            }
        }
    }
    core
}

/// The `k`-core of `g`: the maximal induced subgraph in which every node has
/// degree at least `k`, together with the new-to-old node mapping.
///
/// Returns [`GraphError::Empty`] if no node survives the peeling.
pub fn k_core(g: &Graph, k: usize) -> Result<(Graph, Vec<NodeId>), GraphError> {
    let core = core_numbers(g);
    let survivors: Vec<NodeId> = (0..g.num_nodes()).filter(|&v| core[v] >= k).collect();
    induced_subgraph(g, &survivors)
}

/// Degeneracy of the graph: the largest `k` for which a non-empty `k`-core
/// exists (0 for edgeless graphs).
pub fn degeneracy(g: &Graph) -> usize {
    core_numbers(g).into_iter().max().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;
    use crate::generators;

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let g = generators::complete(6).unwrap();
        let (sub, mapping) = induced_subgraph(&g, &[1, 3, 5]).unwrap();
        assert_eq!(sub.num_nodes(), 3);
        assert_eq!(sub.num_edges(), 3, "K_3 among the kept nodes");
        assert_eq!(mapping, vec![1, 3, 5]);
    }

    #[test]
    fn induced_subgraph_dedups_and_validates() {
        let g = generators::path(4).unwrap();
        let (sub, mapping) = induced_subgraph(&g, &[2, 2, 1]).unwrap();
        assert_eq!(sub.num_nodes(), 2);
        assert_eq!(sub.num_edges(), 1);
        assert_eq!(mapping, vec![2, 1]);
        assert!(induced_subgraph(&g, &[9]).is_err());
        assert!(induced_subgraph(&g, &[]).is_err());
    }

    #[test]
    fn remove_edges_drops_only_listed_edges() {
        let g = generators::cycle(5).unwrap();
        let reduced = remove_edges(&g, &[(1, 0), (7, 8)]).unwrap();
        assert_eq!(reduced.num_edges(), 4);
        assert!(!reduced.has_edge(0, 1));
        assert!(reduced.has_edge(1, 2));
        // Removing nothing yields an identical edge set.
        let same = remove_edges(&g, &[]).unwrap();
        assert_eq!(same.num_edges(), g.num_edges());
    }

    #[test]
    fn add_edges_grows_edge_set() {
        let g = generators::path(4).unwrap();
        let denser = add_edges(&g, &[(0, 3), (0, 3), (1, 1)]).unwrap();
        assert_eq!(denser.num_edges(), g.num_edges() + 1);
        assert!(denser.has_edge(0, 3));
    }

    #[test]
    fn contract_pair_merges_endpoints() {
        // Path 0-1-2-3; contracting (1, 2) gives a path on 3 nodes.
        let g = generators::path(4).unwrap();
        let (contracted, mapping) = contract_pair(&g, 2, 1).unwrap();
        assert_eq!(contracted.num_nodes(), 3);
        assert_eq!(contracted.num_edges(), 2);
        assert_eq!(mapping, vec![0, 1, 1, 2]);
        assert!(analysis::is_connected(&contracted));
    }

    #[test]
    fn contract_pair_with_identical_nodes_is_a_copy() {
        let g = generators::cycle(5).unwrap();
        let (copy, mapping) = contract_pair(&g, 3, 3).unwrap();
        assert_eq!(copy.num_nodes(), 5);
        assert_eq!(copy.num_edges(), 5);
        assert_eq!(mapping, (0..5).collect::<Vec<_>>());
    }

    #[test]
    fn contract_pair_collapses_parallel_edges() {
        // Triangle: contracting one edge leaves a single edge (the two
        // parallel edges produced by the merge collapse into one).
        let g = generators::complete(3).unwrap();
        let (contracted, _) = contract_pair(&g, 0, 1).unwrap();
        assert_eq!(contracted.num_nodes(), 2);
        assert_eq!(contracted.num_edges(), 1);
    }

    #[test]
    fn core_numbers_of_known_graphs() {
        // A clique of size k has core number k-1 everywhere.
        let g = generators::complete(5).unwrap();
        assert_eq!(core_numbers(&g), vec![4; 5]);
        assert_eq!(degeneracy(&g), 4);

        // A star has core number 1 everywhere.
        let star = generators::star(6).unwrap();
        assert_eq!(core_numbers(&star), vec![1; star.num_nodes()]);
        assert_eq!(degeneracy(&star), 1);

        // Lollipop: clique nodes have core clique-1, tail nodes core 1.
        let lolly = generators::lollipop(4, 3).unwrap();
        let core = core_numbers(&lolly);
        assert!(core[..4].iter().all(|&c| c == 3));
        assert!(core[4..].iter().all(|&c| c == 1));
    }

    #[test]
    fn k_core_peels_the_tail() {
        let lolly = generators::lollipop(5, 4).unwrap();
        let (core2, mapping) = k_core(&lolly, 2).unwrap();
        assert_eq!(core2.num_nodes(), 5, "only the clique survives the 2-core");
        assert!(mapping.iter().all(|&old| old < 5));
        assert!(k_core(&lolly, 5).is_err(), "no node has degree >= 5");
    }

    #[test]
    fn core_numbers_never_exceed_degree() {
        let g = generators::barabasi_albert(300, 4, 11).unwrap();
        let core = core_numbers(&g);
        for v in g.nodes() {
            assert!(core[v] <= g.degree(v));
            assert!(core[v] >= 1, "BA graphs are connected");
        }
        let d = degeneracy(&g);
        assert!(core.contains(&d));
    }
}
