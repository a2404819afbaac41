//! Column-based exact index: single-source effective resistance.
//!
//! The per-pair estimators of the paper (AMC, GEER) are the right tool when a
//! workload asks for a handful of arbitrary pairs. Many applications instead
//! ask for *one source against many targets* — "rank all candidate friends of
//! user `s` by resistance", "profile node `s` against the whole graph". For
//! that access pattern the column identity
//!
//! ```text
//! r(s, t) = L†(s, s) + L†(t, t) − 2 L†(t, s)
//! ```
//!
//! answers *all* targets of a source with a single Laplacian solve (the column
//! `L† e_s`), provided `diag(L†)` is available. [`ErIndex`] therefore
//! pre-computes the diagonal once (one CG solve per node, see
//! [`pseudo_inverse_diagonal`]) and caches recently used columns in a
//! concurrent working set, so one index serves any number of threads.

use crate::diagonal::pseudo_inverse_diagonal;
use crate::error::IndexError;
use er_graph::{analysis, Graph, IntoGraphArc, NodeId};
use er_linalg::LaplacianSolver;
use er_walks::par;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// `r(s, t)` from the pseudo-inverse diagonal and the column `L† e_s`, with
/// the `.max(0.0)` clamp absorbing solver-tolerance negatives near zero.
fn resistance_from_column(diagonal: &[f64], column: &[f64], s: NodeId, t: NodeId) -> f64 {
    if s == t {
        return 0.0;
    }
    (diagonal[s] + diagonal[t] - 2.0 * column[t]).max(0.0)
}

/// One column slot: shared so readers can clone it out of the map and block
/// on the `OnceLock` (not the map lock) while the first requester solves.
type ColumnCell = Arc<OnceLock<Arc<Vec<f64>>>>;

/// The column working set: each cell with its insertion number, so eviction
/// picks the oldest solved column whatever the map's iteration order.
#[derive(Default)]
struct Columns {
    cells: HashMap<NodeId, (u64, ColumnCell)>,
    inserted: u64,
}

impl Columns {
    fn insert(&mut self, s: NodeId, cell: ColumnCell) {
        self.cells.insert(s, (self.inserted, cell));
        self.inserted += 1;
    }

    /// The cell of column `s`, inserting an empty one if it is absent.
    fn cell_or_insert(&mut self, s: NodeId) -> ColumnCell {
        if let Some((_, cell)) = self.cells.get(&s) {
            return cell.clone();
        }
        if self.cells.len() >= ErIndex::COLUMN_CAPACITY {
            // Evict the oldest *solved* column; the cache is a working set,
            // not an LRU — sources in this access pattern repeat immediately
            // or not at all. Readers holding the evicted column keep their
            // `Arc`, and cells still solving are never evicted from under
            // their waiters.
            if let Some(evict) = self
                .cells
                .iter()
                .filter(|(_, (_, cell))| cell.get().is_some())
                .min_by_key(|(_, (inserted, _))| *inserted)
                .map(|(&s, _)| s)
            {
                self.cells.remove(&evict);
            }
        }
        let cell = ColumnCell::default();
        self.insert(s, cell.clone());
        cell
    }
}

/// Exact (up to solver tolerance) effective-resistance index built from
/// Laplacian pseudo-inverse columns and a pre-computed diagonal.
///
/// The index owns the graph behind an `Arc` and every query takes `&self`:
/// it is `Send + Sync`, so threads (or server workers) share one index
/// directly. The diagonal is immutable; the column tier is a read-mostly
/// `RwLock` map of per-column once-cells. Readers of a resident column take
/// only the read lock; a missing column inserts its cell under a brief write
/// lock and is then solved **outside** any map lock, inside the cell's
/// `OnceLock`. Concurrent requests for different columns therefore solve in
/// parallel, and concurrent requests for the same column solve it exactly
/// once. Values are deterministic CG solves, so concurrency changes
/// throughput only. Once [`COLUMN_CAPACITY`](Self::COLUMN_CAPACITY) columns
/// are resident the oldest solved column is evicted (first in, first out),
/// so the resident set is a function of the query sequence.
pub struct ErIndex {
    graph: Arc<Graph>,
    diagonal: Vec<f64>,
    columns: RwLock<Columns>,
    build_solves: u64,
    column_solves: AtomicU64,
}

impl ErIndex {
    /// Number of pseudo-inverse columns kept in the cache.
    pub const COLUMN_CAPACITY: usize = 64;

    /// Builds the index: `O(n)` CG solves for the diagonal, fanned out over
    /// all cores; intended for graphs up to a few thousand nodes.
    pub fn build(graph: impl IntoGraphArc) -> Result<Self, IndexError> {
        Self::build_with_threads(graph, par::AUTO)
    }

    /// [`Self::build`] with an explicit worker-thread count (0 = all
    /// cores); the diagonal is identical at any thread count.
    pub fn build_with_threads(
        graph: impl IntoGraphArc,
        threads: usize,
    ) -> Result<Self, IndexError> {
        let graph = graph.into_graph_arc();
        analysis::validate_ergodic(&graph)?;
        let diagonal = pseudo_inverse_diagonal(&graph, threads);
        let solves = graph.num_nodes() as u64;
        Ok(Self::from_parts(graph, diagonal, Vec::new(), solves))
    }

    /// Reassembles an index from previously extracted parts. `diagonal`
    /// must be `diag(L†)` of `graph` and every entry of `columns` a solved
    /// `L† e_s` on `graph` — or, in incremental dynamic serving, the
    /// Sherman–Morrison-advanced versions of both after a mutation burst.
    /// No solves are performed; `build_solves` seeds the solve counter so
    /// cost accounting carries across epochs. `columns` enter the cache in
    /// the order given, which is the order they are evicted in.
    ///
    /// # Panics
    /// Panics if `diagonal` or a column does not cover every node.
    pub fn from_parts(
        graph: Arc<Graph>,
        diagonal: Vec<f64>,
        columns: Vec<(NodeId, Vec<f64>)>,
        build_solves: u64,
    ) -> Self {
        let n = graph.num_nodes();
        assert_eq!(diagonal.len(), n, "diagonal must cover every node");
        let mut cells = Columns::default();
        for (s, column) in columns {
            assert_eq!(column.len(), n, "column {s} must cover every node");
            cells.insert(s, Arc::new(OnceLock::from(Arc::new(column))));
        }
        ErIndex {
            graph,
            diagonal,
            columns: RwLock::new(cells),
            build_solves,
            column_solves: AtomicU64::new(0),
        }
    }

    /// The graph the index answers queries about.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The shared graph handle.
    pub fn graph_arc(&self) -> &Arc<Graph> {
        &self.graph
    }

    /// `L†(v, v)` for node `v`.
    pub fn diagonal_entry(&self, v: NodeId) -> Result<f64, IndexError> {
        self.graph.check_node(v)?;
        Ok(self.diagonal[v])
    }

    /// The full pre-computed pseudo-inverse diagonal `diag(L†)`, indexed by
    /// node id.
    pub fn diagonal(&self) -> &[f64] {
        &self.diagonal
    }

    /// Total number of Laplacian solves performed so far (build + columns).
    pub fn total_solves(&self) -> u64 {
        self.build_solves + self.column_solves.load(Ordering::Relaxed)
    }

    /// The solve count the index was built (or reassembled) with, excluding
    /// on-demand column solves since.
    pub fn build_solves(&self) -> u64 {
        self.build_solves
    }

    /// The currently resident columns `(s, L† e_s)`, sorted by source; the
    /// extraction side of [`from_parts`](Self::from_parts). Columns still
    /// being solved are skipped.
    pub fn resident_columns(&self) -> Vec<(NodeId, Vec<f64>)> {
        let mut out: Vec<(NodeId, Vec<f64>)> = self
            .columns
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .cells
            .iter()
            .filter_map(|(&s, (_, cell))| cell.get().map(|col| (s, col.as_ref().clone())))
            .collect();
        out.sort_unstable_by_key(|&(s, _)| s);
        out
    }

    /// The column `L† e_s`, solved at most once per residency.
    fn column(&self, s: NodeId) -> Arc<Vec<f64>> {
        let existing = self
            .columns
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .cells
            .get(&s)
            .map(|(_, cell)| cell.clone());
        let cell = match existing {
            Some(cell) => cell,
            None => self
                .columns
                .write()
                .unwrap_or_else(|e| e.into_inner())
                .cell_or_insert(s),
        };
        cell.get_or_init(|| {
            let solver = LaplacianSolver::for_ground_truth(&self.graph);
            let mut rhs = vec![0.0; self.graph.num_nodes()];
            rhs[s] = 1.0;
            let (x, _) = solver.solve(&rhs);
            self.column_solves.fetch_add(1, Ordering::Relaxed);
            Arc::new(x)
        })
        .clone()
    }

    /// The effective resistance `r(s, t)`, exact up to solver tolerance.
    pub fn resistance(&self, s: NodeId, t: NodeId) -> Result<f64, IndexError> {
        self.graph.check_node(s)?;
        self.graph.check_node(t)?;
        if s == t {
            return Ok(0.0);
        }
        Ok(resistance_from_column(
            &self.diagonal,
            &self.column(s),
            s,
            t,
        ))
    }

    /// The resistance from `s` to every node of the graph (`r(s, s) = 0`),
    /// using exactly one Laplacian solve beyond the cached state.
    pub fn single_source(&self, s: NodeId) -> Result<Vec<f64>, IndexError> {
        self.graph.check_node(s)?;
        let column = self.column(s);
        Ok((0..self.diagonal.len())
            .map(|t| resistance_from_column(&self.diagonal, &column, s, t))
            .collect())
    }

    /// The `k` nodes closest to `s` in effective resistance (excluding `s`
    /// itself), sorted ascending — the "similarity search" access pattern.
    pub fn nearest(&self, s: NodeId, k: usize) -> Result<Vec<(NodeId, f64)>, IndexError> {
        let mut scored: Vec<(NodeId, f64)> = self
            .single_source(s)?
            .into_iter()
            .enumerate()
            .filter(|&(v, _)| v != s)
            .collect();
        scored.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        scored.truncate(k);
        Ok(scored)
    }

    /// The Kirchhoff index `Σ_{s<t} r(s, t) = n · trace(L†)` of the graph, a
    /// global robustness measure used by the power-network literature the
    /// paper cites. With the diagonal already in hand this is `O(n)`.
    pub fn kirchhoff_index(&self) -> f64 {
        self.graph.num_nodes() as f64 * self.diagonal.iter().sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_graph::generators;
    use er_linalg::LaplacianSolver;
    use std::sync::Barrier;

    #[test]
    fn resistance_matches_direct_solver() {
        let g = generators::social_network_like(120, 8.0, 9).unwrap();
        let index = ErIndex::build(&g).unwrap();
        let solver = LaplacianSolver::for_ground_truth(&g);
        for &(s, t) in &[(0usize, 60usize), (5, 119), (30, 31), (2, 2)] {
            let via_index = index.resistance(s, t).unwrap();
            let via_solver = solver.effective_resistance(s, t);
            assert!(
                (via_index - via_solver).abs() < 1e-7,
                "({s},{t}): {via_index} vs {via_solver}"
            );
        }
    }

    #[test]
    fn single_source_profile_is_consistent_with_pairwise_queries() {
        let g = generators::barabasi_albert(150, 3, 4).unwrap();
        let index = ErIndex::build(&g).unwrap();
        let profile = index.single_source(17).unwrap();
        assert_eq!(profile.len(), 150);
        assert_eq!(profile[17], 0.0);
        for &t in &[0usize, 50, 149] {
            let pairwise = index.resistance(17, t).unwrap();
            assert!((profile[t] - pairwise).abs() < 1e-9);
        }
    }

    #[test]
    fn path_graph_resistance_is_hop_distance() {
        // On a tree, r(s, t) is the path length between s and t; a path graph
        // is bipartite so validate_ergodic would reject it — add a chord to
        // make it non-bipartite without touching the far end of the path.
        let path = generators::path(12).unwrap();
        let g = er_graph::transform::add_edges(&path, &[(0, 2)]).unwrap();
        let index = ErIndex::build(&g).unwrap();
        // Nodes 5..11 are still connected by the unique path, so r equals the
        // number of hops.
        assert!((index.resistance(5, 8).unwrap() - 3.0).abs() < 1e-7);
        assert!((index.resistance(10, 11).unwrap() - 1.0).abs() < 1e-7);
    }

    #[test]
    fn nearest_returns_sorted_neighbours_first() {
        let g = generators::lollipop(8, 5).unwrap();
        let index = ErIndex::build(&g).unwrap();
        let nearest = index.nearest(0, 4).unwrap();
        assert_eq!(nearest.len(), 4);
        for pair in nearest.windows(2) {
            assert!(pair[0].1 <= pair[1].1);
        }
        // The closest nodes to a clique member are other clique members, not
        // the tail tip.
        assert!(nearest.iter().all(|&(v, _)| v < 8));
    }

    #[test]
    fn kirchhoff_index_of_complete_graph_matches_formula() {
        // K_n: r(u, v) = 2/n for every pair, so Kf = C(n,2) · 2/n = n - 1.
        let n = 9;
        let g = generators::complete(n).unwrap();
        let index = ErIndex::build(&g).unwrap();
        assert!((index.kirchhoff_index() - (n as f64 - 1.0)).abs() < 1e-7);
    }

    #[test]
    fn column_cache_respects_capacity() {
        let cap = ErIndex::COLUMN_CAPACITY;
        let g = generators::complete(70).unwrap();
        let index = ErIndex::build(&g).unwrap();
        for s in 0..=cap {
            index.resistance(s, 69).unwrap();
        }
        assert_eq!(index.resident_columns().len(), cap);
        assert_eq!(
            index.total_solves(),
            70 + cap as u64 + 1,
            "70 build solves + one per source"
        );
    }

    #[test]
    fn column_eviction_is_first_in_first_out() {
        let cap = ErIndex::COLUMN_CAPACITY;
        let g = generators::complete(70).unwrap();
        for _ in 0..16 {
            // A fresh map per index, each with its own hash seed: the victim
            // must not depend on iteration order.
            let index = ErIndex::build(&g).unwrap();
            for s in std::iter::once(cap).chain(0..cap) {
                index.single_source(s).unwrap();
            }
            let resident: Vec<NodeId> = index.resident_columns().iter().map(|&(s, _)| s).collect();
            assert_eq!(
                resident,
                (0..cap).collect::<Vec<_>>(),
                "source {cap} entered first and leaves first"
            );
        }
    }

    #[test]
    fn from_parts_keeps_capacity_and_warm_columns() {
        let cap = ErIndex::COLUMN_CAPACITY;
        let g = generators::complete(70).unwrap();
        let index = ErIndex::build(&g).unwrap();
        for s in 0..cap {
            index.resistance(s, 69).unwrap(); // warms column s
        }
        let warm_solves = index.total_solves();
        // Reassembly from extracted parts (the dynamic service's carry)
        // keeps every warm column without solving.
        let carried = ErIndex::from_parts(
            index.graph_arc().clone(),
            index.diagonal().to_vec(),
            index.resident_columns(),
            warm_solves,
        );
        assert_eq!(carried.total_solves(), warm_solves, "no solves on handoff");
        let pair = carried.resistance(5, 40).unwrap();
        assert_eq!(
            carried.total_solves(),
            warm_solves,
            "a pre-warmed column must not be re-solved"
        );
        assert_eq!(pair.to_bits(), index.resistance(5, 40).unwrap().to_bits());
        // The carried cache is full: a cold column solves exactly once and
        // evicts the first carried column.
        carried.resistance(cap, 40).unwrap();
        assert_eq!(carried.total_solves(), warm_solves + 1);
        let resident: Vec<NodeId> = carried.resident_columns().iter().map(|&(s, _)| s).collect();
        assert_eq!(resident, (1..=cap).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_queries_solve_each_column_once_and_match_sequential_bits() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ErIndex>();
        let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<u64>>();
        let g = generators::social_network_like(300, 8.0, 4).unwrap();
        let sequential = ErIndex::build(&g).unwrap();
        let build = sequential.total_solves();

        // Eight readers of one cold column, released together by a barrier:
        // it is solved exactly once.
        let want = bits(&sequential.single_source(3).unwrap());
        let shared = ErIndex::build(&g).unwrap();
        let start = Barrier::new(8);
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        shared.single_source(3).unwrap()
                    })
                })
                .collect();
            for reader in readers {
                assert_eq!(bits(&reader.join().unwrap()), want);
            }
        });
        assert_eq!(shared.total_solves(), build + 1);

        // Eight readers of eight different columns: one solve each.
        let shared = ErIndex::build(&g).unwrap();
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..8)
                .map(|s| {
                    let (shared, start) = (&shared, &start);
                    scope.spawn(move || {
                        start.wait();
                        let row = shared.single_source(s).unwrap();
                        (s, row, shared.resistance(s, 299).unwrap())
                    })
                })
                .collect();
            for reader in readers {
                let (s, row, r) = reader.join().unwrap();
                assert_eq!(bits(&row), bits(&sequential.single_source(s).unwrap()));
                let want = sequential.resistance(s, 299).unwrap();
                assert_eq!(r.to_bits(), want.to_bits(), "source {s}");
            }
        });
        assert_eq!(shared.total_solves(), build + 8);
    }

    #[test]
    fn invalid_nodes_and_graphs_are_rejected() {
        let g = generators::complete(5).unwrap();
        let index = ErIndex::build(&g).unwrap();
        assert!(index.resistance(0, 9).is_err());
        assert!(index.single_source(7).is_err());
        let disconnected = er_graph::GraphBuilder::from_edges(4, vec![(0, 1), (2, 3)])
            .build()
            .unwrap();
        assert!(ErIndex::build(&disconnected).is_err());
    }
}
