//! An updatable view over an immutable CSR [`Graph`].
//!
//! The serving stack keeps graphs in CSR form because every hot path —
//! random-walk neighbour sampling, SpMV scans, binary-search edge tests —
//! wants contiguous sorted adjacency. CSR is also why a single edge mutation
//! used to cost a full rebuild: the arrays are immutable.
//!
//! [`OverlayGraph`] removes that cost for small bursts. It holds the base
//! graph behind an `Arc` plus **per-node sorted adjacency deltas** (edges
//! added since the base, edges removed from it), merged on read:
//!
//! * mutations are `O(log d)` sorted-vec insertions,
//! * `degree`/`has_edge` are `O(log d)` lookups against base + deltas,
//! * [`for_each_neighbor`](OverlayGraph::for_each_neighbor) merges the
//!   sorted base slice with the deltas in `O(d)`,
//! * [`collapse`](OverlayGraph::collapse) materialises a fresh CSR in
//!   `O(n + m)` — a sorted merge per node, with none of the global
//!   re-sorting a [`crate::GraphBuilder`] rebuild pays.
//!
//! The overlay is the substrate of incremental dynamic serving: between
//! snapshot refreshes the evolving edge set lives here, Laplacian solves run
//! against it through a matrix-free operator, and only a *refresh* (not every
//! burst) pays the CSR materialisation.

use crate::graph::{Graph, NodeId};
use std::sync::Arc;

/// An editable graph view: an immutable CSR base plus per-node sorted
/// adjacency deltas, merged on read.
///
/// ```
/// use er_graph::{generators, OverlayGraph};
/// use std::sync::Arc;
///
/// let base = Arc::new(generators::complete(4).unwrap());
/// let mut overlay = OverlayGraph::new(base);
/// assert!(overlay.remove_edge(0, 1));
/// assert!(!overlay.has_edge(0, 1));
/// assert_eq!(overlay.degree(0), 2);
/// let collapsed = overlay.collapse();
/// assert_eq!(collapsed.num_edges(), 5);
/// assert!(!collapsed.has_edge(0, 1));
/// ```
#[derive(Clone, Debug)]
pub struct OverlayGraph {
    base: Arc<Graph>,
    /// `added[v]` — sorted neighbours of `v` added since the base. Disjoint
    /// from the base adjacency of `v`.
    added: Vec<Vec<NodeId>>,
    /// `removed[v]` — sorted neighbours of `v` removed from the base. Always
    /// a subset of the base adjacency of `v`.
    removed: Vec<Vec<NodeId>>,
    num_edges: usize,
    delta_edges: usize,
}

impl OverlayGraph {
    /// Wraps a base graph with empty deltas.
    pub fn new(base: Arc<Graph>) -> Self {
        let n = base.num_nodes();
        let num_edges = base.num_edges();
        OverlayGraph {
            base,
            added: vec![Vec::new(); n],
            removed: vec![Vec::new(); n],
            num_edges,
            delta_edges: 0,
        }
    }

    /// The base graph the deltas apply to.
    pub fn base(&self) -> &Arc<Graph> {
        &self.base
    }

    /// Number of nodes (fixed; deltas never grow the node set).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.base.num_nodes()
    }

    /// Number of undirected edges currently present (base ± deltas).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Whether the current edge set equals the base's (no deltas recorded).
    #[inline]
    pub fn is_clean(&self) -> bool {
        self.delta_edges == 0
    }

    /// Current degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.base.degree(v) + self.added[v].len() - self.removed[v].len()
    }

    /// Whether the undirected edge `{u, v}` is currently present.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        if u == v {
            return false;
        }
        if self.added[u].binary_search(&v).is_ok() {
            return true;
        }
        if self.removed[u].binary_search(&v).is_ok() {
            return false;
        }
        self.base.has_edge(u, v)
    }

    /// Inserts the undirected edge `{u, v}`. Returns `true` if it was not
    /// already present; self-loops and out-of-range endpoints return `false`.
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if u == v || u >= self.num_nodes() || v >= self.num_nodes() {
            return false;
        }
        if self.has_edge(u, v) {
            return false;
        }
        // Either the edge was removed from the base (un-remove it) or it is
        // genuinely new (record an add).
        if let Ok(pos) = self.removed[u].binary_search(&v) {
            self.removed[u].remove(pos);
            let pos = self.removed[v]
                .binary_search(&u)
                .expect("removed deltas are symmetric");
            self.removed[v].remove(pos);
            self.delta_edges -= 1;
        } else {
            let pos = self.added[u].binary_search(&v).unwrap_err();
            self.added[u].insert(pos, v);
            let pos = self.added[v].binary_search(&u).unwrap_err();
            self.added[v].insert(pos, u);
            self.delta_edges += 1;
        }
        self.num_edges += 1;
        true
    }

    /// Removes the undirected edge `{u, v}`. Returns `true` if it was present.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> bool {
        if u == v || u >= self.num_nodes() || v >= self.num_nodes() {
            return false;
        }
        if !self.has_edge(u, v) {
            return false;
        }
        // Either the edge was an overlay add (drop the add) or a base edge
        // (record a remove).
        if let Ok(pos) = self.added[u].binary_search(&v) {
            self.added[u].remove(pos);
            let pos = self.added[v]
                .binary_search(&u)
                .expect("added deltas are symmetric");
            self.added[v].remove(pos);
            self.delta_edges -= 1;
        } else {
            let pos = self.removed[u].binary_search(&v).unwrap_err();
            self.removed[u].insert(pos, v);
            let pos = self.removed[v].binary_search(&u).unwrap_err();
            self.removed[v].insert(pos, u);
            self.delta_edges += 1;
        }
        self.num_edges -= 1;
        true
    }

    /// Calls `f` for every current neighbour of `v`, in sorted order — the
    /// read-side merge of the sorted base slice (minus removals) with the
    /// sorted adds. `O(d)` with no allocation; the Laplacian operator of the
    /// incremental-update path applies rows through this.
    pub fn for_each_neighbor(&self, v: NodeId, mut f: impl FnMut(NodeId)) {
        let base = self.base.neighbors(v);
        let removed = &self.removed[v];
        let added = &self.added[v];
        let mut r = 0;
        let mut a = 0;
        for &b in base {
            // Emit pending adds that sort before the next base neighbour.
            while a < added.len() && added[a] < b {
                f(added[a]);
                a += 1;
            }
            if r < removed.len() && removed[r] == b {
                r += 1;
                continue;
            }
            f(b);
        }
        while a < added.len() {
            f(added[a]);
            a += 1;
        }
    }

    /// Materialises the current edge set as a fresh CSR [`Graph`] in
    /// `O(n + m)`: per-node sorted merges straight into the CSR arrays, no
    /// global edge sort.
    ///
    /// The result is identical to rebuilding via [`crate::GraphBuilder`] from
    /// the same edge set (same sorted adjacency, same offsets).
    pub fn collapse(&self) -> Graph {
        let n = self.num_nodes();
        let mut offsets = vec![0usize; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + self.degree(v);
        }
        let mut neighbors = vec![0 as NodeId; offsets[n]];
        let mut cursor = 0;
        for (v, &start) in offsets.iter().enumerate().take(n) {
            debug_assert_eq!(cursor, start);
            self.for_each_neighbor(v, |u| {
                neighbors[cursor] = u;
                cursor += 1;
            });
        }
        Graph::from_csr(offsets, neighbors, self.num_edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::GraphBuilder;

    fn overlay(n: usize, edges: &[(usize, usize)]) -> OverlayGraph {
        let g = GraphBuilder::from_edges(n, edges.iter().copied())
            .build()
            .unwrap();
        OverlayGraph::new(Arc::new(g))
    }

    #[test]
    fn inserts_and_removes_round_trip() {
        let mut o = overlay(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(o.num_edges(), 3);
        assert!(o.insert_edge(0, 3));
        assert!(!o.insert_edge(0, 3), "already present");
        assert!(!o.insert_edge(2, 2), "self-loop");
        assert!(o.has_edge(3, 0));
        assert_eq!(o.degree(0), 2);
        assert_eq!(o.num_edges(), 4);
        assert!(!o.is_clean());
        // Removing the overlay add restores a clean overlay.
        assert!(o.remove_edge(3, 0));
        assert!(o.is_clean());
        assert_eq!(o.num_edges(), 3);
        // Removing a base edge records a delta; re-inserting clears it.
        assert!(o.remove_edge(1, 2));
        assert!(!o.has_edge(1, 2));
        assert!(!o.is_clean());
        assert!(o.insert_edge(2, 1));
        assert!(o.is_clean());
        assert!(!o.remove_edge(0, 2), "absent edge");
        assert!(!o.remove_edge(0, 9), "out of range");
    }

    #[test]
    fn merged_neighbors_stay_sorted() {
        let mut o = overlay(6, &[(1, 0), (1, 3), (1, 5)]);
        o.insert_edge(1, 2);
        o.insert_edge(1, 4);
        o.remove_edge(1, 3);
        let mut merged = Vec::new();
        o.for_each_neighbor(1, |u| merged.push(u));
        assert_eq!(merged, vec![0, 2, 4, 5]);
        assert_eq!(o.degree(1), 4);
    }

    #[test]
    fn collapse_matches_builder_rebuild() {
        let g = generators::social_network_like(80, 6.0, 3).unwrap();
        let mut o = OverlayGraph::new(Arc::new(g.clone()));
        let mut edges: std::collections::BTreeSet<(usize, usize)> = g.edges().collect();
        // A mixed burst: some inserts, some deletes.
        let mutations = [(0usize, 41usize), (5, 66), (12, 13), (3, 70)];
        for &(u, v) in &mutations {
            if o.has_edge(u, v) {
                o.remove_edge(u, v);
                edges.remove(&(u.min(v), u.max(v)));
            } else {
                o.insert_edge(u, v);
                edges.insert((u.min(v), u.max(v)));
            }
        }
        let collapsed = o.collapse();
        let rebuilt = GraphBuilder::from_edges(80, edges.iter().copied())
            .build()
            .unwrap();
        assert_eq!(collapsed.num_edges(), rebuilt.num_edges());
        for v in 0..80 {
            assert_eq!(
                collapsed.neighbors(v),
                rebuilt.neighbors(v),
                "adjacency of node {v}"
            );
        }
        let (co, cn) = collapsed.csr();
        let (ro, rn) = rebuilt.csr();
        assert_eq!(co, ro);
        assert_eq!(cn, rn);
    }
}
