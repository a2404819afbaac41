//! Effective resistance on an evolving graph.
//!
//! The paper's estimators assume a static graph plus a one-off spectral
//! preprocessing step (λ = max{|λ₂|, |λₙ|}). Applications such as anomaly
//! detection on time-evolving graphs (cited in the paper's introduction via
//! \[64\]) instead interleave edge insertions/deletions with queries.
//! [`DynamicEr`] keeps an editable edge set and refreshes its snapshot
//! (CSR graph + λ + [`GraphContext`]) *lazily and incrementally*:
//!
//! * mutations are O(log m) set updates mirrored into an
//!   [`OverlayGraph`] (per-node sorted adjacency
//!   deltas over the previous snapshot's CSR), so a burst never rebuilds the
//!   CSR eagerly;
//! * the first query after a burst pays an **incremental refresh**: an
//!   `O(n + m)` overlay collapse (no global edge re-sort) plus a
//!   warm-started Lanczos run seeded with the previous refresh's Ritz
//!   vector — a third of the cold iteration budget;
//! * every [`refresh_interval`](DynamicEr::refresh_interval) mutations, the
//!   refresh is a **full rebuild** instead — the exact cold path
//!   (`GraphBuilder` + cold-start Lanczos), dropping all warm state — so
//!   drift from chained incremental refreshes is bounded by construction:
//!   the post-rebuild snapshot is bit-identical to a from-scratch one.
//!
//! The snapshot caches its [`GraphContext`], so `context()` is an Arc clone,
//! not a CSR copy.

use crate::error::IndexError;
use er_core::{ApproxConfig, GraphContext};
use er_graph::{Graph, GraphBuilder, NodeId, OverlayGraph};
use er_linalg::{spectral_bounds_warm, LaplacianSolver};
use std::collections::BTreeSet;
use std::sync::Arc;

/// An editable graph with lazily refreshed effective-resistance estimation.
pub struct DynamicEr {
    num_nodes: usize,
    edges: BTreeSet<(NodeId, NodeId)>,
    config: ApproxConfig,
    lanczos_iterations: usize,
    /// Cached snapshot ([`GraphContext`]: graph Arc + λ), refreshed lazily.
    snapshot: Option<GraphContext>,
    /// The version the cached snapshot corresponds to.
    snapshot_version: u64,
    /// Editable view over the snapshot's CSR; tracks mutations between
    /// refreshes so the next refresh collapses deltas instead of re-sorting.
    overlay: Option<OverlayGraph>,
    /// Ritz vector from the previous Lanczos run, warm-starting the next
    /// incremental refresh. Dropped on full rebuilds (cold start).
    warm_ritz: Option<Vec<f64>>,
    /// Full rebuild every this many mutations (the drift cap K).
    refresh_interval: u64,
    mutations_since_full: u64,
    last_refresh_full: bool,
    version: u64,
    full_rebuilds: u64,
    incremental_refreshes: u64,
}

impl DynamicEr {
    /// Default drift cap: one full (bit-identical, cold-path) rebuild per
    /// this many mutations; refreshes in between are incremental.
    pub const DEFAULT_REFRESH_INTERVAL: u64 = 64;

    /// Creates a dynamic graph from an initial edge list.
    pub fn new(
        num_nodes: usize,
        edges: impl IntoIterator<Item = (NodeId, NodeId)>,
        config: ApproxConfig,
    ) -> Self {
        let normalized = edges
            .into_iter()
            .filter(|&(u, v)| u != v)
            .map(|(u, v)| if u < v { (u, v) } else { (v, u) })
            .collect();
        DynamicEr {
            num_nodes,
            edges: normalized,
            config,
            lanczos_iterations: 120,
            snapshot: None,
            snapshot_version: 0,
            overlay: None,
            warm_ritz: None,
            refresh_interval: Self::DEFAULT_REFRESH_INTERVAL,
            mutations_since_full: 0,
            last_refresh_full: false,
            version: 0,
            full_rebuilds: 0,
            incremental_refreshes: 0,
        }
    }

    /// Creates a dynamic graph seeded from an existing static graph.
    pub fn from_graph(graph: &Graph, config: ApproxConfig) -> Self {
        Self::new(graph.num_nodes(), graph.edges(), config)
    }

    /// Sets the drift cap: a full cold-path rebuild every `interval`
    /// mutations (refreshes in between are incremental). `interval = 1`
    /// makes every refresh a full rebuild (the pre-incremental behaviour).
    pub fn with_refresh_interval(mut self, interval: u64) -> Self {
        self.refresh_interval = interval.max(1);
        self
    }

    /// The configured drift cap K.
    pub fn refresh_interval(&self) -> u64 {
        self.refresh_interval
    }

    /// Number of nodes (fixed for the lifetime of the structure).
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Number of undirected edges currently present.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Monotone counter bumped by every successful mutation.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// How many times the snapshot (graph + λ) has been refreshed, full
    /// rebuilds and incremental refreshes combined.
    pub fn rebuilds(&self) -> u64 {
        self.full_rebuilds + self.incremental_refreshes
    }

    /// How many refreshes were full cold-path rebuilds (CSR from scratch +
    /// cold-start Lanczos; bit-identical to a fresh build).
    pub fn full_rebuilds(&self) -> u64 {
        self.full_rebuilds
    }

    /// How many refreshes were incremental (overlay collapse + warm-started
    /// Lanczos).
    pub fn incremental_refreshes(&self) -> u64 {
        self.incremental_refreshes
    }

    /// Mutations applied since the last full rebuild.
    pub fn mutations_since_full(&self) -> u64 {
        self.mutations_since_full
    }

    /// Whether the undirected edge `{u, v}` is currently present.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edges.contains(&Self::key(u, v))
    }

    /// The editable overlay view of the current edge set, if a snapshot has
    /// been built. Mutations keep it current even while the snapshot is
    /// stale, so Sherman–Morrison callers can run a pre-mutation CG solve
    /// against it without materialising a CSR.
    pub fn overlay(&self) -> Option<&OverlayGraph> {
        self.overlay.as_ref()
    }

    fn key(u: NodeId, v: NodeId) -> (NodeId, NodeId) {
        if u < v {
            (u, v)
        } else {
            (v, u)
        }
    }

    fn check_node(&self, v: NodeId) -> Result<(), IndexError> {
        if v < self.num_nodes {
            Ok(())
        } else {
            Err(IndexError::Graph(er_graph::GraphError::NodeOutOfRange {
                node: v,
                n: self.num_nodes,
            }))
        }
    }

    /// Inserts the undirected edge `{u, v}`. Returns `true` if the edge was
    /// not already present (self-loops are rejected with `false`).
    pub fn insert_edge(&mut self, u: NodeId, v: NodeId) -> Result<bool, IndexError> {
        self.check_node(u)?;
        self.check_node(v)?;
        if u == v {
            return Ok(false);
        }
        let inserted = self.edges.insert(Self::key(u, v));
        if inserted {
            self.note_mutation(|overlay| {
                overlay.insert_edge(u, v);
            });
        }
        Ok(inserted)
    }

    /// Removes the undirected edge `{u, v}`. Returns `true` if it was present.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> Result<bool, IndexError> {
        self.check_node(u)?;
        self.check_node(v)?;
        let removed = self.edges.remove(&Self::key(u, v));
        if removed {
            self.note_mutation(|overlay| {
                overlay.remove_edge(u, v);
            });
        }
        Ok(removed)
    }

    fn note_mutation(&mut self, apply: impl FnOnce(&mut OverlayGraph)) {
        self.version += 1;
        self.mutations_since_full += 1;
        if let Some(overlay) = &mut self.overlay {
            apply(overlay);
        }
    }

    fn ensure_snapshot(&mut self) -> Result<(), IndexError> {
        if self.snapshot.is_some() && self.snapshot_version == self.version {
            return Ok(());
        }
        let take_incremental_path = self
            .overlay
            .as_ref()
            .is_some_and(|_| self.mutations_since_full < self.refresh_interval);
        let context = if take_incremental_path {
            // Incremental refresh: O(n + m) overlay collapse (no global edge
            // sort) + warm-started Lanczos at a third of the cold budget.
            let graph = self.overlay.as_ref().expect("checked above").collapse();
            er_graph::analysis::validate_ergodic(&graph)?;
            let warm_budget = (self.lanczos_iterations / 3).max(12);
            let ((l2, ln), ritz) =
                spectral_bounds_warm(&graph, warm_budget, 0xd1a, self.warm_ritz.as_deref());
            let lambda = l2.abs().max(ln.abs()).clamp(1e-9, 1.0 - 1e-9);
            let context = GraphContext::with_lambda(graph, lambda)?;
            self.warm_ritz = ritz;
            self.incremental_refreshes += 1;
            self.last_refresh_full = false;
            context
        } else {
            // Full rebuild: the exact cold path, bit-identical to building a
            // fresh `DynamicEr` from the current edge set. All warm state is
            // dropped, so incremental drift cannot survive a full rebuild.
            let graph =
                GraphBuilder::from_edges(self.num_nodes, self.edges.iter().copied()).build()?;
            er_graph::analysis::validate_ergodic(&graph)?;
            let ((l2, ln), ritz) =
                spectral_bounds_warm(&graph, self.lanczos_iterations, 0xd1a, None);
            let lambda = l2.abs().max(ln.abs()).clamp(1e-9, 1.0 - 1e-9);
            let context = GraphContext::with_lambda(graph, lambda)?;
            self.warm_ritz = ritz;
            self.mutations_since_full = 0;
            self.full_rebuilds += 1;
            self.last_refresh_full = true;
            context
        };
        self.overlay = Some(OverlayGraph::new(Arc::clone(context.graph_arc())));
        self.snapshot = Some(context);
        self.snapshot_version = self.version;
        Ok(())
    }

    /// Whether the most recent snapshot refresh was a full rebuild (`true`)
    /// rather than an incremental one. Callers use it after a refresh to
    /// decide whether Sherman–Morrison-carried state must be dropped to
    /// preserve the bit-identity contract.
    pub fn last_refresh_was_full(&self) -> bool {
        self.last_refresh_full
    }

    /// The current graph snapshot (refreshing it if needed).
    pub fn graph(&mut self) -> Result<&Graph, IndexError> {
        self.ensure_snapshot()?;
        Ok(self.snapshot.as_ref().expect("just ensured").graph())
    }

    /// A [`GraphContext`] for the current snapshot. The context is cached
    /// inside the snapshot, so this is an Arc clone (reference-count bump),
    /// not a CSR copy. Approximate queries go through the service layer
    /// (`er_service::DynamicResistanceService`), which holds one of these per
    /// snapshot version; this structure itself only manages the evolving
    /// edge set.
    pub fn context(&mut self) -> Result<GraphContext, IndexError> {
        self.ensure_snapshot()?;
        Ok(self.snapshot.as_ref().expect("just ensured").clone())
    }

    /// The estimator configuration queries on this graph should use.
    pub fn config(&self) -> ApproxConfig {
        self.config
    }

    /// Exact resistance on the current graph (CG solve), for callers that
    /// want ground truth after a mutation burst.
    pub fn resistance_exact(&mut self, s: NodeId, t: NodeId) -> Result<f64, IndexError> {
        self.check_node(s)?;
        self.check_node(t)?;
        self.ensure_snapshot()?;
        let graph = self.snapshot.as_ref().expect("just ensured").graph();
        Ok(LaplacianSolver::for_ground_truth(graph).effective_resistance(s, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_graph::generators;

    fn base_config() -> ApproxConfig {
        ApproxConfig {
            epsilon: 0.05,
            ..ApproxConfig::default()
        }
    }

    #[test]
    fn inserting_edges_never_increases_resistance() {
        // Rayleigh monotonicity: adding an edge can only decrease r(s, t).
        let g = generators::social_network_like(200, 6.0, 1).unwrap();
        let mut dynamic = DynamicEr::from_graph(&g, base_config());
        let before = dynamic.resistance_exact(3, 150).unwrap();
        assert!(dynamic.insert_edge(3, 150).unwrap());
        let after = dynamic.resistance_exact(3, 150).unwrap();
        assert!(
            after < before,
            "adding the direct edge must lower r: {after} vs {before}"
        );
        assert!(after <= 1.0 + 1e-9, "edge endpoints have r <= 1");
    }

    #[test]
    fn removing_edges_never_decreases_resistance() {
        let g = generators::complete(20).unwrap();
        let mut dynamic = DynamicEr::from_graph(&g, base_config());
        let before = dynamic.resistance_exact(0, 1).unwrap();
        assert!(dynamic.remove_edge(0, 1).unwrap());
        let after = dynamic.resistance_exact(0, 1).unwrap();
        assert!(after > before);
    }

    #[test]
    fn context_tracks_exact_values_across_mutations() {
        let g = generators::social_network_like(300, 10.0, 7).unwrap();
        let mut dynamic = DynamicEr::from_graph(&g, base_config());
        let exact_before = dynamic.resistance_exact(5, 200).unwrap();
        let ctx = dynamic.context().unwrap();
        assert_eq!(ctx.graph().num_edges(), g.num_edges());
        dynamic.insert_edge(5, 200).unwrap();
        let exact_after = dynamic.resistance_exact(5, 200).unwrap();
        assert!(exact_after < exact_before, "Rayleigh monotonicity");
        let ctx = dynamic.context().unwrap();
        assert_eq!(ctx.graph().num_edges(), g.num_edges() + 1);
        assert_eq!(dynamic.config().epsilon, base_config().epsilon);
    }

    #[test]
    fn snapshot_is_rebuilt_lazily() {
        let g = generators::complete(30).unwrap();
        let mut dynamic = DynamicEr::from_graph(&g, base_config());
        assert_eq!(dynamic.rebuilds(), 0);
        dynamic.resistance_exact(0, 5).unwrap();
        assert_eq!(dynamic.rebuilds(), 1);
        dynamic.resistance_exact(1, 6).unwrap();
        assert_eq!(dynamic.rebuilds(), 1, "no mutation, no rebuild");
        dynamic.insert_edge(0, 1).unwrap_or(false);
        dynamic.remove_edge(2, 3).unwrap();
        dynamic.remove_edge(4, 5).unwrap();
        assert_eq!(dynamic.rebuilds(), 1, "mutations alone do not rebuild");
        dynamic.resistance_exact(0, 5).unwrap();
        assert_eq!(dynamic.rebuilds(), 2, "one rebuild for the whole burst");
    }

    #[test]
    fn refreshes_are_incremental_until_the_drift_cap() {
        let g = generators::social_network_like(100, 6.0, 2).unwrap();
        let mut dynamic = DynamicEr::from_graph(&g, base_config()).with_refresh_interval(3);
        dynamic.context().unwrap();
        assert_eq!(dynamic.full_rebuilds(), 1, "first build is always full");
        assert_eq!(dynamic.incremental_refreshes(), 0);

        // One mutation -> refresh is incremental (1 < K = 3).
        dynamic.insert_edge(0, 50).unwrap();
        dynamic.context().unwrap();
        assert_eq!(dynamic.incremental_refreshes(), 1);
        assert!(!dynamic.last_refresh_was_full());

        // Two more mutations reach the cap -> full rebuild, counter resets.
        dynamic.insert_edge(1, 51).unwrap();
        dynamic.insert_edge(2, 52).unwrap();
        dynamic.context().unwrap();
        assert_eq!(dynamic.full_rebuilds(), 2);
        assert_eq!(dynamic.incremental_refreshes(), 1);
        assert!(dynamic.last_refresh_was_full());
        assert_eq!(dynamic.mutations_since_full(), 0);
    }

    #[test]
    fn incremental_snapshot_matches_full_rebuild_answers() {
        // The incremental path (overlay collapse + warm Lanczos) must agree
        // with a from-scratch DynamicEr on the same edge set: identical CSR
        // (exact resistances bit-equal) and a λ within Lanczos accuracy.
        let g = generators::social_network_like(300, 8.0, 5).unwrap();
        let mut dynamic = DynamicEr::from_graph(&g, base_config()).with_refresh_interval(1000);
        dynamic.context().unwrap();
        dynamic.insert_edge(7, 200).unwrap();
        dynamic.insert_edge(40, 180).unwrap();
        dynamic.remove_edge(7, 200).unwrap();
        let incremental_r = dynamic.resistance_exact(12, 250).unwrap();
        assert!(dynamic.incremental_refreshes() >= 1);
        let incremental_lambda = dynamic.context().unwrap().lambda();

        let mut fresh = DynamicEr::new(
            300,
            dynamic.edges.iter().copied().collect::<Vec<_>>(),
            base_config(),
        );
        let fresh_r = fresh.resistance_exact(12, 250).unwrap();
        assert_eq!(
            incremental_r.to_bits(),
            fresh_r.to_bits(),
            "collapsed CSR must match the rebuilt CSR exactly"
        );
        let fresh_lambda = fresh.context().unwrap().lambda();
        assert!(
            (incremental_lambda - fresh_lambda).abs() < 1e-6,
            "warm λ {incremental_lambda} vs cold λ {fresh_lambda}"
        );
    }

    #[test]
    fn context_is_cached_per_version_not_copied_per_call() {
        let g = generators::complete(30).unwrap();
        let mut dynamic = DynamicEr::from_graph(&g, base_config());
        let a = dynamic.context().unwrap();
        let b = dynamic.context().unwrap();
        assert!(
            std::sync::Arc::ptr_eq(a.graph_arc(), b.graph_arc()),
            "repeat context() calls share one graph Arc"
        );
        dynamic.insert_edge(0, 1).unwrap_or(false);
        dynamic.remove_edge(2, 3).unwrap();
        let c = dynamic.context().unwrap();
        assert!(
            !std::sync::Arc::ptr_eq(a.graph_arc(), c.graph_arc()),
            "mutations produce a fresh snapshot graph"
        );
    }

    #[test]
    fn mutation_bookkeeping_and_validation() {
        let mut dynamic = DynamicEr::new(
            5,
            vec![(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)],
            base_config(),
        );
        assert_eq!(dynamic.num_edges(), 6);
        assert!(dynamic.has_edge(1, 0));
        assert!(!dynamic.insert_edge(0, 1).unwrap(), "already present");
        assert!(!dynamic.insert_edge(3, 3).unwrap(), "self-loop rejected");
        assert!(!dynamic.remove_edge(0, 4).unwrap(), "absent edge");
        assert!(dynamic.insert_edge(0, 9).is_err(), "out of range");
        let v = dynamic.version();
        assert!(dynamic.insert_edge(0, 3).unwrap());
        assert_eq!(dynamic.version(), v + 1);
    }

    #[test]
    fn disconnecting_the_graph_is_reported() {
        let mut dynamic = DynamicEr::new(4, vec![(0, 1), (1, 2), (2, 0), (2, 3)], base_config());
        assert!(dynamic.resistance_exact(0, 3).is_ok());
        dynamic.remove_edge(2, 3).unwrap();
        assert!(matches!(
            dynamic.resistance_exact(0, 3),
            Err(IndexError::Graph(_))
        ));
        // Reconnecting recovers; the failed refresh did not corrupt state.
        dynamic.insert_edge(0, 3).unwrap();
        assert!(dynamic.resistance_exact(0, 3).is_ok());
    }

    #[test]
    fn overlay_stays_current_between_refreshes() {
        let g = generators::social_network_like(80, 6.0, 3).unwrap();
        let mut dynamic = DynamicEr::from_graph(&g, base_config()).with_refresh_interval(1000);
        assert!(dynamic.overlay().is_none(), "no snapshot yet");
        dynamic.context().unwrap();
        dynamic.insert_edge(0, 40).unwrap();
        let removed = {
            let overlay = dynamic.overlay().unwrap();
            assert!(overlay.has_edge(0, 40), "overlay sees pending mutations");
            overlay.neighbors(5)[0]
        };
        dynamic.remove_edge(5, removed).unwrap();
        assert!(!dynamic.overlay().unwrap().has_edge(5, removed));
        // After a refresh the overlay is rebased over the new snapshot.
        dynamic.context().unwrap();
        let overlay = dynamic.overlay().unwrap();
        assert!(overlay.is_clean());
        assert!(overlay.has_edge(0, 40));
    }
}
