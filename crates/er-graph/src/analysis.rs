//! Structural analysis: connectivity, connected components, bipartiteness.
//!
//! The paper's algorithms assume the input graph is connected and
//! non-bipartite (so the random-walk transition matrix is ergodic). These
//! helpers let callers validate that assumption or extract the largest
//! connected component and, if necessary, break bipartiteness explicitly.

use crate::builder::GraphBuilder;
use crate::error::GraphError;
use crate::graph::{Graph, NodeId};
use std::collections::VecDeque;

/// Returns the connected-component label of every node (labels are `0..k`,
/// assigned in order of discovery by BFS from the lowest-id unvisited node).
pub fn connected_components(g: &Graph) -> Vec<usize> {
    let n = g.num_nodes();
    let mut label = vec![usize::MAX; n];
    let mut next = 0usize;
    let mut queue = VecDeque::new();
    for start in 0..n {
        if label[start] != usize::MAX {
            continue;
        }
        label[start] = next;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(u) {
                if label[v] == usize::MAX {
                    label[v] = next;
                    queue.push_back(v);
                }
            }
        }
        next += 1;
    }
    label
}

/// Number of connected components.
pub fn num_components(g: &Graph) -> usize {
    connected_components(g)
        .iter()
        .copied()
        .max()
        .map_or(0, |m| m + 1)
}

/// `true` iff the graph is connected (and non-empty).
pub fn is_connected(g: &Graph) -> bool {
    g.num_nodes() > 0 && num_components(g) == 1
}

/// `true` iff the graph is bipartite (2-colourable). A bipartite graph has a
/// periodic random walk, violating the ergodicity assumption of the paper.
pub fn is_bipartite(g: &Graph) -> bool {
    let n = g.num_nodes();
    let mut color = vec![u8::MAX; n];
    let mut queue = VecDeque::new();
    for start in 0..n {
        if color[start] != u8::MAX {
            continue;
        }
        color[start] = 0;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for &v in g.neighbors(u) {
                if color[v] == u8::MAX {
                    color[v] = 1 - color[u];
                    queue.push_back(v);
                } else if color[v] == color[u] {
                    return false;
                }
            }
        }
    }
    true
}

/// Extracts the largest connected component as a new graph.
///
/// Returns the subgraph together with the mapping `new id -> original id`.
/// Ties between equal-sized components are broken by the smallest original
/// node id contained in the component.
pub fn largest_connected_component(g: &Graph) -> (Graph, Vec<NodeId>) {
    let labels = connected_components(g);
    let k = labels.iter().copied().max().map_or(0, |m| m + 1);
    let mut sizes = vec![0usize; k];
    for &l in &labels {
        sizes[l] += 1;
    }
    let best = (0..k).max_by_key(|&c| sizes[c]).unwrap_or(0);
    let mut old_of_new: Vec<NodeId> = Vec::with_capacity(sizes.get(best).copied().unwrap_or(0));
    let mut new_of_old = vec![usize::MAX; g.num_nodes()];
    for v in g.nodes() {
        if labels[v] == best {
            new_of_old[v] = old_of_new.len();
            old_of_new.push(v);
        }
    }
    let mut b = GraphBuilder::new(old_of_new.len());
    for (u, v) in g.edges() {
        if labels[u] == best && labels[v] == best {
            b = b.add_edge(new_of_old[u], new_of_old[v]);
        }
    }
    let sub = b.build().expect("LCC of a non-empty graph is non-empty");
    (sub, old_of_new)
}

/// Validates the paper's standing assumptions: connected and non-bipartite.
pub fn validate_ergodic(g: &Graph) -> Result<(), GraphError> {
    if !is_connected(g) {
        return Err(GraphError::NotConnected);
    }
    if is_bipartite(g) {
        return Err(GraphError::Bipartite);
    }
    Ok(())
}

/// Breadth-first distances (in hops) from `source`; unreachable nodes get
/// `usize::MAX`.
pub fn bfs_distances(g: &Graph, source: NodeId) -> Vec<usize> {
    let mut dist = vec![usize::MAX; g.num_nodes()];
    let mut queue = VecDeque::new();
    dist[source] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        for &v in g.neighbors(u) {
            if dist[v] == usize::MAX {
                dist[v] = dist[u] + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Counts the number of distinct walks of each length `1..=max_len` starting
/// from `source` (the `#path(s)` column of the running example in Fig. 2 of
/// the paper). Saturates at `u64::MAX` on overflow.
///
/// A walk of length `i` from `s` is a sequence `s = w_0, w_1, …, w_i` where
/// consecutive nodes are adjacent; the count therefore equals
/// `sum_v (A^i e_s)(v)` computed here by repeated frontier expansion.
pub fn count_walks_from(g: &Graph, source: NodeId, max_len: usize) -> Vec<u64> {
    let n = g.num_nodes();
    let mut current = vec![0u64; n];
    current[source] = 1;
    let mut out = Vec::with_capacity(max_len);
    for _ in 0..max_len {
        let mut next = vec![0u64; n];
        for (u, &mass) in current.iter().enumerate() {
            if mass == 0 {
                continue;
            }
            for &v in g.neighbors(u) {
                next[v] = next[v].saturating_add(mass);
            }
        }
        current = next;
        out.push(current.iter().fold(0u64, |acc, &x| acc.saturating_add(x)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn components_of_disconnected_graph() {
        let g = GraphBuilder::from_edges(6, vec![(0, 1), (1, 2), (3, 4)])
            .build()
            .unwrap();
        let labels = connected_components(&g);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[3]);
        assert_ne!(labels[5], labels[0]);
        assert_eq!(num_components(&g), 3);
        assert!(!is_connected(&g));
    }

    #[test]
    fn lcc_extraction() {
        let g = GraphBuilder::from_edges(7, vec![(0, 1), (1, 2), (2, 0), (3, 4), (5, 6)])
            .build()
            .unwrap();
        let (lcc, mapping) = largest_connected_component(&g);
        assert_eq!(lcc.num_nodes(), 3);
        assert_eq!(lcc.num_edges(), 3);
        assert_eq!(mapping, vec![0, 1, 2]);
    }

    #[test]
    fn bipartite_detection() {
        // even cycle is bipartite, odd cycle is not
        assert!(is_bipartite(&generators::cycle(6).unwrap()));
        assert!(!is_bipartite(&generators::cycle(5).unwrap()));
        // path is bipartite
        assert!(is_bipartite(&generators::path(4).unwrap()));
        // triangle is not
        assert!(!is_bipartite(&generators::complete(3).unwrap()));
    }

    #[test]
    fn validate_ergodic_flags_both_failure_modes() {
        let disconnected = GraphBuilder::from_edges(4, vec![(0, 1), (2, 3)])
            .build()
            .unwrap();
        assert!(matches!(
            validate_ergodic(&disconnected),
            Err(GraphError::NotConnected)
        ));
        let even_cycle = generators::cycle(4).unwrap();
        assert!(matches!(
            validate_ergodic(&even_cycle),
            Err(GraphError::Bipartite)
        ));
        let ok = generators::complete(4).unwrap();
        assert!(validate_ergodic(&ok).is_ok());
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = generators::path(5).unwrap();
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_distances(&g, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn walk_counts_on_small_graphs() {
        // On a triangle every node has 2 neighbours so there are 2^i walks of length i.
        let tri = generators::complete(3).unwrap();
        assert_eq!(count_walks_from(&tri, 0, 4), vec![2, 4, 8, 16]);
        // On a path of 3 nodes from the middle: 2 walks of length 1 (to either
        // endpoint), 2 of length 2 (both return to the middle), 4 of length 3.
        let p = generators::path(3).unwrap();
        assert_eq!(count_walks_from(&p, 1, 3), vec![2, 2, 4]);
    }

    #[test]
    fn fig2_walk_counts_grow_faster_from_t() {
        let g = generators::fig2_toy();
        let from_s = count_walks_from(&g, 0, 8);
        let from_t = count_walks_from(&g, 1, 8);
        // The qualitative claim of the running example: walk counts from t
        // (degree 7) dominate those from s (degree 2) at every length.
        for i in 0..8 {
            assert!(
                from_t[i] > from_s[i],
                "length {}: {} !> {}",
                i + 1,
                from_t[i],
                from_s[i]
            );
        }
    }
}
