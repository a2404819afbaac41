//! Edge-list accumulator that produces an immutable [`Graph`].
//!
//! The builder accepts edges in any order, removes self-loops, deduplicates
//! parallel edges and relabels nothing: node ids must already be `0..n`.
//! Use [`GraphBuilder::from_edges`] for the common "I have a `Vec<(u, v)>`"
//! case, or [`crate::analysis::largest_connected_component`] afterwards to
//! obtain the connected graph the ER estimators require.

use crate::error::GraphError;
use crate::graph::{Graph, NodeId};

/// Incremental builder for [`Graph`].
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` nodes (ids `0..n`).
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Creates a builder seeded with an edge list. The number of nodes is
    /// `max(n, largest endpoint + 1)`.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (NodeId, NodeId)>) -> Self {
        let mut b = GraphBuilder::new(n);
        for (u, v) in edges {
            b = b.add_edge(u, v);
        }
        b
    }

    /// Adds the undirected edge `{u, v}`. Self-loops are silently ignored;
    /// duplicates are removed at [`build`](Self::build) time. Node ids beyond
    /// the current node count grow the graph.
    #[must_use]
    pub fn add_edge(mut self, u: NodeId, v: NodeId) -> Self {
        if u == v {
            return self;
        }
        self.n = self.n.max(u + 1).max(v + 1);
        self.edges.push(if u < v { (u, v) } else { (v, u) });
        self
    }

    /// Number of nodes the built graph will have.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Finalises the graph: deduplicates edges and assembles the CSR arrays.
    ///
    /// Returns [`GraphError::Empty`] if the graph would have zero nodes.
    pub fn build(mut self) -> Result<Graph, GraphError> {
        if self.n == 0 {
            return Err(GraphError::Empty);
        }
        self.edges.sort_unstable();
        self.edges.dedup();

        let n = self.n;
        let m = self.edges.len();

        // Counting sort of the 2m directed arcs into CSR form.
        let mut degree = vec![0usize; n];
        for &(u, v) in &self.edges {
            degree[u] += 1;
            degree[v] += 1;
        }
        let mut offsets = vec![0usize; n + 1];
        for v in 0..n {
            offsets[v + 1] = offsets[v] + degree[v];
        }
        let mut cursor = offsets.clone();
        let mut neighbors = vec![0 as NodeId; 2 * m];
        for &(u, v) in &self.edges {
            neighbors[cursor[u]] = v;
            cursor[u] += 1;
            neighbors[cursor[v]] = u;
            cursor[v] += 1;
        }
        // Each adjacency slice must be sorted for `has_edge` binary searches.
        for v in 0..n {
            neighbors[offsets[v]..offsets[v + 1]].sort_unstable();
        }
        Ok(Graph::from_csr(offsets, neighbors, m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph_is_rejected() {
        assert!(matches!(
            GraphBuilder::new(0).build(),
            Err(GraphError::Empty)
        ));
    }

    #[test]
    fn isolated_nodes_are_allowed() {
        let g = GraphBuilder::new(3).add_edge(0, 1).build().unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn self_loops_and_duplicates_are_removed() {
        let g = GraphBuilder::new(2)
            .add_edge(0, 0)
            .add_edge(0, 1)
            .add_edge(1, 0)
            .add_edge(0, 1)
            .build()
            .unwrap();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 1);
    }

    #[test]
    fn node_count_grows_with_edges() {
        let b = GraphBuilder::new(1).add_edge(4, 2);
        assert_eq!(b.num_nodes(), 5);
        let g = b.build().unwrap();
        assert_eq!(g.num_nodes(), 5);
        assert!(g.has_edge(2, 4));
    }

    #[test]
    fn from_edges_matches_incremental() {
        let edges = vec![(0, 1), (1, 2), (2, 3), (3, 0)];
        let g1 = GraphBuilder::from_edges(4, edges.clone()).build().unwrap();
        let mut b = GraphBuilder::new(4);
        for (u, v) in edges {
            b = b.add_edge(u, v);
        }
        let g2 = b.build().unwrap();
        assert_eq!(g1.num_edges(), g2.num_edges());
        for v in g1.nodes() {
            assert_eq!(g1.neighbors(v), g2.neighbors(v));
        }
    }

    #[test]
    fn csr_invariants_hold() {
        let g = GraphBuilder::from_edges(6, vec![(5, 0), (3, 1), (0, 3), (4, 2), (1, 0)])
            .build()
            .unwrap();
        let (offsets, neighbors) = g.csr();
        assert_eq!(offsets.len(), g.num_nodes() + 1);
        assert_eq!(*offsets.last().unwrap(), neighbors.len());
        assert_eq!(neighbors.len(), 2 * g.num_edges());
        for v in g.nodes() {
            let nbrs = g.neighbors(v);
            assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "sorted and distinct");
            assert!(!nbrs.contains(&v), "no self loops");
        }
    }
}
