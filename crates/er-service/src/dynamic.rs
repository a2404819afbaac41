//! The query plane over an evolving graph.
//!
//! The paper's estimators assume a static graph plus one spectral
//! preprocessing step (λ = max{|λ₂|, |λₙ|}). Applications such as anomaly
//! detection on time-evolving graphs (cited in the paper's introduction via
//! \[64\]) instead interleave edge insertions and deletions with queries.
//! [`DynamicResistanceService`] keeps the evolving edge set in one
//! [`OverlayGraph`] over the installed epoch's CSR, and answers queries from
//! epochs, each an immutable [`ResistanceService`] over one snapshot:
//!
//! * **Refresh.** Mutations only edit the overlay. The first query after a
//!   burst installs the next epoch. Usually that is an *incremental*
//!   refresh: the overlay collapses to a fresh CSR in `O(n + m)`, and λ is
//!   re-certified by Lanczos warm-started from the previous Ritz vector,
//!   capped at a third of the cold budget. The warm run stops as soon as
//!   its residuals certify λ: after 2 or 3 steps for a burst of two inserts
//!   and one delete on a 20,000-node Barabási–Albert graph, where a cold
//!   run takes about 70. The first refresh, and the first one after every
//!   K mutations ([`with_refresh_interval`]), is a *full* rebuild instead:
//!   cold-start Lanczos, and all carried state dropped, so its answers are
//!   bit-identical to a service built from scratch on the mutated graph.
//!   Drift from chained incremental refreshes is bounded by K; every
//!   refresh's λ is certified on its own graph.
//! * **Epoch swap.** The live service is an `Arc<ServiceEpoch>` held in a
//!   swap slot. Queries clone the `Arc` and answer on it; mutations advance
//!   a version counter, and the *next* query that finds the slot stale
//!   installs a fresh epoch. Readers pinned on the old `Arc` keep answering
//!   old-version bits; nobody blocks on a mutation burst — if the updater
//!   lock is busy, a query simply serves the previous epoch.
//! * **Sherman–Morrison carry.** When the current epoch has built INDEX
//!   state (the resident L⁺ diagonal and columns), each edge mutation
//!   advances that state in `O(n)` per resident vector via
//!   [`RankOneUpdate`] instead of discarding it. The next incremental epoch
//!   is assembled around the carried state, so mid-burst refreshes never
//!   re-run the `O(n·solves)` index build.
//!
//! Deletions whose Sherman–Morrison denominator `1 − r(u, v)` is too small
//! (bridges and near-bridges) refuse the rank-1 path: the carried state is
//! dropped and the next refresh re-solves with CG ([`cg_fallbacks`]
//! counts these).
//!
//! [`with_refresh_interval`]: DynamicResistanceService::with_refresh_interval
//! [`cg_fallbacks`]: DynamicResistanceService::cg_fallbacks

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::error::ServiceError;
use crate::query::{Query, Request};
use crate::response::Response;
use crate::service::ResistanceService;
use er_core::{ApproxConfig, EstimatorError, GraphContext};
use er_graph::{Graph, NodeId, OverlayGraph};
use er_index::{ErIndex, IndexError};
use er_linalg::{solve_overlay_laplacian, LaplacianSolver, RankOneUpdate};

/// Deletion denominator floor for *carried-state* updates. Looser than
/// [`er_linalg::MIN_DELETE_DENOMINATOR`]: carried state is advanced through
/// many chained updates, so we bail to a CG re-solve earlier than a one-shot
/// update would need to.
const CARRIED_DELETE_FLOOR: f64 = 1e-3;

/// CG tolerance used when the update vector `w = L⁺(e_u − e_v)` has to be
/// solved fresh (endpoint columns not resident).
const UPDATE_SOLVE_TOLERANCE: f64 = 1e-8;

/// Seed of every refresh's Lanczos run, cold or warm.
const LANCZOS_SEED: u64 = 0xd1a;

/// One immutable snapshot of the serving stack: the service plus the graph
/// version it was built for. Readers that clone the `Arc` keep a consistent
/// view for as long as they hold it, regardless of concurrent mutations.
pub struct ServiceEpoch {
    version: u64,
    service: ResistanceService,
}

impl ServiceEpoch {
    /// The [`DynamicResistanceService::version`] this epoch serves.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The immutable service for this epoch.
    pub fn service(&self) -> &ResistanceService {
        &self.service
    }
}

/// INDEX-tier state carried across mutations via Sherman–Morrison.
struct CarriedState {
    /// Resident L⁺ diagonal (length `n`).
    diagonal: Vec<f64>,
    /// Resident L⁺ columns, keyed by source node.
    columns: Vec<(NodeId, Vec<f64>)>,
    /// Build solve count of the harvested index (for cost accounting).
    build_solves: u64,
}

/// The single-writer side: the edge set, the refresh state, the carried
/// state and the counters. Guarded by `DynamicResistanceService::inner`.
struct Updater {
    /// The current edge set: the last installed epoch's CSR (the input
    /// graph before the first) plus the mutations since.
    overlay: OverlayGraph,
    mutations_since_full: u64,
    /// Ritz vector of the last Lanczos run, warm-starting the next
    /// incremental refresh.
    warm_ritz: Option<Vec<f64>>,
    carried: Option<CarriedState>,
    full_rebuilds: u64,
    incremental_refreshes: u64,
    sm_updates: u64,
    cg_fallbacks: u64,
}

impl Updater {
    /// Whether the next refresh is a full cold rebuild: the first refresh
    /// (no epoch exists yet), or the first after `refresh_interval`
    /// mutations since the last full one. A full rebuild serves exactly what
    /// a cold service would, so choosing one drops the carried state.
    fn refresh_is_full(&mut self, refresh_interval: u64) -> bool {
        let full = self.full_rebuilds == 0 || self.mutations_since_full >= refresh_interval;
        if full {
            self.carried = None;
        }
        full
    }
}

/// A [`ResistanceService`] over an editable graph, epoch-swapped so queries
/// never block on mutations.
///
/// All methods take `&self`: mutations serialize on an internal updater
/// lock, queries clone the current [`ServiceEpoch`] `Arc` and answer on it.
///
/// ```
/// use er_service::DynamicResistanceService;
/// use er_graph::generators;
///
/// let graph = generators::social_network_like(200, 8.0, 3).unwrap();
/// let dynamic = DynamicResistanceService::from_graph(&graph, Default::default());
/// let before = dynamic.resistance(0, 100).unwrap();
/// dynamic.insert_edge(0, 100).unwrap();
/// let after = dynamic.resistance(0, 100).unwrap();
/// assert!(after < before, "Rayleigh monotonicity");
/// ```
pub struct DynamicResistanceService {
    config: ApproxConfig,
    /// The drift cap K: a full rebuild once this many mutations have passed
    /// since the last one.
    refresh_interval: u64,
    /// Bumped by every successful mutation under the updater lock; readable
    /// without it.
    version: AtomicU64,
    inner: Mutex<Updater>,
    /// The swap slot. Held only long enough to clone or replace the `Arc`.
    epoch: Mutex<Option<Arc<ServiceEpoch>>>,
}

impl DynamicResistanceService {
    /// Default drift cap: one full (bit-identical, cold-path) rebuild per
    /// this many mutations; refreshes in between are incremental.
    pub const DEFAULT_REFRESH_INTERVAL: u64 = 64;

    /// Creates a dynamic service over a copy of `graph`. The first epoch
    /// serves that copy as it is.
    pub fn from_graph(graph: &Graph, config: ApproxConfig) -> Self {
        DynamicResistanceService {
            config,
            refresh_interval: Self::DEFAULT_REFRESH_INTERVAL,
            version: AtomicU64::new(0),
            inner: Mutex::new(Updater {
                overlay: OverlayGraph::new(Arc::new(graph.clone())),
                mutations_since_full: 0,
                warm_ritz: None,
                carried: None,
                full_rebuilds: 0,
                incremental_refreshes: 0,
                sm_updates: 0,
                cg_fallbacks: 0,
            }),
            epoch: Mutex::new(None),
        }
    }

    /// Sets the drift cap K: a full cold rebuild once `interval` mutations
    /// have passed since the last one; refreshes in between are incremental.
    /// `interval = 1` makes every refresh after a mutation a full rebuild.
    pub fn with_refresh_interval(mut self, interval: u64) -> Self {
        self.refresh_interval = interval.max(1);
        self
    }

    fn lock_inner(&self) -> MutexGuard<'_, Updater> {
        self.inner.lock().expect("updater lock poisoned")
    }

    fn lock_epoch(&self) -> MutexGuard<'_, Option<Arc<ServiceEpoch>>> {
        self.epoch.lock().expect("epoch slot poisoned")
    }

    /// Inserts the undirected edge `{u, v}`. Returns `true` if the edge was
    /// not already present; self-loops are rejected with `false`, and
    /// out-of-range nodes with an error.
    pub fn insert_edge(&self, u: NodeId, v: NodeId) -> Result<bool, ServiceError> {
        self.mutate(u, v, true)
    }

    /// Removes the undirected edge `{u, v}`. Returns `true` if it was
    /// present; out-of-range nodes are an error.
    pub fn remove_edge(&self, u: NodeId, v: NodeId) -> Result<bool, ServiceError> {
        self.mutate(u, v, false)
    }

    fn mutate(&self, u: NodeId, v: NodeId, insert: bool) -> Result<bool, ServiceError> {
        let mut inner = self.lock_inner();
        let graph = inner.overlay.base();
        graph
            .check_node(u)
            .and_then(|()| graph.check_node(v))
            .map_err(IndexError::Graph)?;
        if u == v || insert == inner.overlay.has_edge(u, v) {
            return Ok(false);
        }
        self.harvest_carried(&mut inner);
        let update = self.prepare_update(&mut inner, u, v, insert);
        if insert {
            inner.overlay.insert_edge(u, v);
        } else {
            inner.overlay.remove_edge(u, v);
        }
        inner.mutations_since_full += 1;
        self.apply_carried_update(&mut inner, update);
        self.version.fetch_add(1, Ordering::Release);
        Ok(true)
    }

    /// Harvests INDEX-tier state from the installed epoch, if that epoch is
    /// current (pre-mutation) and nothing is carried yet.
    fn harvest_carried(&self, inner: &mut Updater) {
        if inner.carried.is_some() {
            return;
        }
        let epoch = match self.epoch() {
            Some(epoch) if epoch.version() == self.version() => epoch,
            _ => return,
        };
        let Some(index) = epoch.service().index_backend() else {
            return;
        };
        inner.carried = Some(CarriedState {
            diagonal: index.diagonal().to_vec(),
            columns: index.resident_columns(),
            build_solves: index.build_solves(),
        });
    }

    /// Prepares the Sherman–Morrison update for the *pre-mutation* graph.
    /// Returns `None` (after dropping the carried state) when the rank-1
    /// path is unsafe: a (near-)bridge deletion, or a `w`-solve that did not
    /// converge. With nothing carried there is nothing to update.
    fn prepare_update(
        &self,
        inner: &mut Updater,
        u: NodeId,
        v: NodeId,
        insert: bool,
    ) -> Option<RankOneUpdate> {
        inner.carried.as_ref()?;
        let w = self.update_vector(inner, u, v);
        let update = match w {
            Some(w) if insert => Some(RankOneUpdate::for_insert(w, u, v)),
            Some(w) => RankOneUpdate::for_delete(w, u, v, CARRIED_DELETE_FLOOR),
            None => None,
        };
        if update.is_none() {
            // The carried state can no longer be advanced safely; drop it so
            // the next refresh re-solves from scratch.
            inner.carried = None;
            inner.cg_fallbacks += 1;
        }
        update
    }

    /// `w = L⁺(e_u − e_v)` on the current graph: a difference of resident
    /// columns when both endpoints are cached, otherwise one CG solve over
    /// the mutation overlay.
    fn update_vector(&self, inner: &Updater, u: NodeId, v: NodeId) -> Option<Vec<f64>> {
        let carried = inner.carried.as_ref()?;
        let col = |s: NodeId| {
            carried
                .columns
                .iter()
                .find(|(source, _)| *source == s)
                .map(|(_, column)| column)
        };
        if let (Some(cu), Some(cv)) = (col(u), col(v)) {
            return Some(cu.iter().zip(cv).map(|(a, b)| a - b).collect());
        }
        let n = inner.overlay.num_nodes();
        let mut b = vec![0.0; n];
        b[u] = 1.0;
        b[v] = -1.0;
        let (w, outcome) =
            solve_overlay_laplacian(&inner.overlay, &b, UPDATE_SOLVE_TOLERANCE, n.max(1000));
        outcome.converged.then_some(w)
    }

    /// Advances every carried resident vector through the prepared update.
    fn apply_carried_update(&self, inner: &mut Updater, update: Option<RankOneUpdate>) {
        let (Some(update), Some(carried)) = (update, inner.carried.as_mut()) else {
            return;
        };
        update.apply_diagonal(&mut carried.diagonal);
        for (_, column) in &mut carried.columns {
            update.apply_column(column);
        }
        inner.sm_updates += 1;
    }

    /// Whether the undirected edge `{u, v}` is currently present.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.lock_inner().overlay.has_edge(u, v)
    }

    /// Number of undirected edges currently present.
    pub fn num_edges(&self) -> usize {
        self.lock_inner().overlay.num_edges()
    }

    /// Monotone counter bumped by every successful mutation.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Refreshes that were full cold rebuilds (CSR plus cold-start Lanczos);
    /// these reset drift and restore bit-identity with a cold build.
    pub fn snapshot_full_rebuilds(&self) -> u64 {
        self.lock_inner().full_rebuilds
    }

    /// Refreshes that were incremental (overlay collapse plus warm-started
    /// Lanczos).
    pub fn incremental_refreshes(&self) -> u64 {
        self.lock_inner().incremental_refreshes
    }

    /// Epochs installed so far: every refresh, full or incremental, installs
    /// one fresh planner/cache/backend stack.
    pub fn service_refreshes(&self) -> u64 {
        let inner = self.lock_inner();
        inner.full_rebuilds + inner.incremental_refreshes
    }

    /// Mutations whose resident INDEX state was advanced by a rank-1
    /// Sherman–Morrison update instead of being discarded.
    pub fn sm_updates(&self) -> u64 {
        self.lock_inner().sm_updates
    }

    /// Mutations that refused the rank-1 path (near-singular deletion or
    /// non-converged `w`-solve) and dropped the carried state, deferring to
    /// fresh CG solves at the next refresh.
    pub fn cg_fallbacks(&self) -> u64 {
        self.lock_inner().cg_fallbacks
    }

    /// The currently installed epoch, if any, without triggering a refresh.
    /// Readers may pin the returned `Arc` and keep querying a consistent
    /// (possibly stale) snapshot while mutations proceed.
    pub fn epoch(&self) -> Option<Arc<ServiceEpoch>> {
        self.lock_epoch().clone()
    }

    /// Blocking refresh: waits for the updater lock and installs an epoch
    /// for the current version (no-op when the installed epoch is current).
    pub fn refresh(&self) -> Result<Arc<ServiceEpoch>, ServiceError> {
        let mut inner = self.lock_inner();
        self.refresh_locked(&mut inner)
    }

    /// The epoch to answer on: the installed one when current; otherwise a
    /// freshly installed one if the updater lock is free, or the stale one
    /// (readers never block on a mutation burst). Blocks only when no epoch
    /// has ever been installed.
    fn current_epoch(&self) -> Result<Arc<ServiceEpoch>, ServiceError> {
        if let Some(epoch) = self.epoch() {
            if epoch.version() == self.version() {
                return Ok(epoch);
            }
            return match self.inner.try_lock() {
                Ok(mut inner) => self.refresh_locked(&mut inner),
                // Updater busy (mutation burst in flight): serve the stale
                // epoch rather than blocking the query.
                Err(_) => Ok(epoch),
            };
        }
        self.refresh()
    }

    /// Builds and installs the epoch for the current version: a new CSR
    /// from the overlay, validated once, λ₂/λₙ by cold or warm-started
    /// Lanczos (kept in the epoch's context), and a service around carried
    /// INDEX state when an incremental refresh has some.
    fn refresh_locked(&self, inner: &mut Updater) -> Result<Arc<ServiceEpoch>, ServiceError> {
        let version = self.version();
        if let Some(epoch) = self.epoch().filter(|epoch| epoch.version() == version) {
            return Ok(epoch);
        }
        let full = inner.refresh_is_full(self.refresh_interval);
        // A clean overlay's base is already canonical CSR (the input graph
        // or the last epoch's); a collapse is identical to a `GraphBuilder`
        // rebuild of the same edge set.
        let graph = if inner.overlay.is_clean() {
            Arc::clone(inner.overlay.base())
        } else {
            Arc::new(inner.overlay.collapse())
        };
        let (iterations, start) = if full {
            (GraphContext::DEFAULT_LANCZOS_ITERATIONS, None)
        } else {
            (
                GraphContext::DEFAULT_LANCZOS_ITERATIONS / 3,
                inner.warm_ritz.as_deref(),
            )
        };
        let (context, ritz) =
            GraphContext::preprocess_warm(Arc::clone(&graph), iterations, LANCZOS_SEED, start)
                .map_err(|e| match e {
                    EstimatorError::Graph(g) => ServiceError::Index(IndexError::Graph(g)),
                    other => other.into(),
                })?;
        inner.warm_ritz = ritz;
        if full {
            inner.full_rebuilds += 1;
            inner.mutations_since_full = 0;
        } else {
            inner.incremental_refreshes += 1;
        }
        inner.overlay = OverlayGraph::new(Arc::clone(&graph));

        let mut service = ResistanceService::from_context(context, self.config);
        if let Some(carried) = &inner.carried {
            let index = ErIndex::from_parts(
                graph,
                carried.diagonal.clone(),
                carried.columns.clone(),
                carried.build_solves,
            );
            service = service.with_prebuilt_index(Arc::new(index));
        }
        let epoch = Arc::new(ServiceEpoch { version, service });
        *self.lock_epoch() = Some(Arc::clone(&epoch));
        Ok(epoch)
    }

    /// Submits a request against the current epoch. Never blocks on an
    /// in-flight mutation burst: if the updater is busy, the previous epoch
    /// answers.
    pub fn submit(&self, request: &Request) -> Result<Response, ServiceError> {
        self.current_epoch()?.service().submit(request)
    }

    /// One ε-approximate pair query at the configured accuracy.
    pub fn resistance(&self, s: NodeId, t: NodeId) -> Result<f64, ServiceError> {
        let accuracy = self.config.into();
        Ok(self
            .submit(&Request::new(Query::pair(s, t)).with_accuracy(accuracy))?
            .value())
    }

    /// Exact resistance on the current graph (CG solve), for callers that
    /// want ground truth after a mutation burst. Refreshes like a query
    /// does, so the answer comes from the epoch of the current version.
    pub fn resistance_exact(&self, s: NodeId, t: NodeId) -> Result<f64, ServiceError> {
        let epoch = self.refresh()?;
        let graph = epoch.service().context().graph();
        graph
            .check_node(s)
            .and_then(|()| graph.check_node(t))
            .map_err(IndexError::Graph)?;
        Ok(LaplacianSolver::for_ground_truth(graph).effective_resistance(s, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_graph::{generators, GraphBuilder};
    use er_linalg::lanczos::{measure_spectral_bounds, CERTIFICATION_TOLERANCE};
    use er_linalg::ops::{DeflatedOp, NormalizedAdjacencyOp};
    use er_linalg::{lanczos_with_start, spectral_bounds_warm};

    fn config() -> ApproxConfig {
        ApproxConfig {
            epsilon: 0.05,
            ..ApproxConfig::default()
        }
    }

    #[test]
    fn approximate_queries_track_exact_values_across_mutations() {
        let g = generators::social_network_like(300, 10.0, 7).unwrap();
        let dynamic = DynamicResistanceService::from_graph(&g, config());
        let approx = dynamic.resistance(5, 200).unwrap();
        let exact_before = dynamic.resistance_exact(5, 200).unwrap();
        assert!((approx - exact_before).abs() <= config().epsilon);
        dynamic.insert_edge(5, 200).unwrap();
        dynamic.insert_edge(5, 201).unwrap();
        let approx = dynamic.resistance(5, 200).unwrap();
        let exact = dynamic.resistance_exact(5, 200).unwrap();
        assert!((approx - exact).abs() <= config().epsilon);
        assert!(exact < exact_before, "Rayleigh monotonicity");
        assert!(dynamic.has_edge(5, 201));
        assert_eq!(dynamic.num_edges(), g.num_edges() + 2);
    }

    #[test]
    fn service_is_refreshed_once_per_mutation_burst() {
        let g = generators::complete(30).unwrap();
        let dynamic = DynamicResistanceService::from_graph(&g, config());
        assert_eq!(dynamic.service_refreshes(), 0, "construction is lazy");
        dynamic.resistance(0, 5).unwrap();
        let first = dynamic.version();
        // Same version: the epoch (and its cache) is reused — a repeat of
        // the query is a cache hit, not a recomputation.
        let pinned = dynamic.refresh().unwrap();
        assert!(Arc::ptr_eq(&pinned, &dynamic.refresh().unwrap()));
        let repeat = dynamic
            .submit(&Request::new(Query::pair(0, 5)).with_accuracy(config().into()))
            .unwrap();
        assert_eq!(repeat.backend_calls, 0, "served from the cache tier");
        dynamic.insert_edge(0, 9).unwrap_or(false);
        dynamic.remove_edge(2, 3).unwrap();
        dynamic.remove_edge(4, 5).unwrap();
        assert!(dynamic.version() > first);
        assert_eq!(
            dynamic.service_refreshes(),
            1,
            "mutations alone do not refresh"
        );
        // After the burst, the next query installs a new epoch, over a new
        // graph, and recomputes.
        let fresh = dynamic
            .submit(&Request::new(Query::pair(0, 5)).with_accuracy(config().into()))
            .unwrap();
        assert_eq!(fresh.backend_calls, 1, "cache was dropped with the swap");
        assert_eq!(dynamic.service_refreshes(), 2);
        let epoch = dynamic.epoch().unwrap();
        assert!(!Arc::ptr_eq(
            pinned.service().context().graph_arc(),
            epoch.service().context().graph_arc()
        ));
    }

    #[test]
    fn mutations_change_answers_in_the_right_direction() {
        let g = generators::social_network_like(200, 8.0, 1).unwrap();
        let dynamic = DynamicResistanceService::from_graph(&g, config());
        let before = dynamic.resistance(3, 150).unwrap();
        let exact_before = dynamic.resistance_exact(3, 150).unwrap();
        dynamic.insert_edge(3, 150).unwrap();
        let after = dynamic.resistance(3, 150).unwrap();
        let exact_after = dynamic.resistance_exact(3, 150).unwrap();
        assert!(after < before + config().epsilon);
        assert!(
            after <= 1.0 + config().epsilon,
            "edge endpoints have r <= 1"
        );
        assert!(exact_after < exact_before && exact_after <= 1.0 + 1e-9);

        // Removing an edge can only raise its resistance.
        let complete =
            DynamicResistanceService::from_graph(&generators::complete(20).unwrap(), config());
        let before = complete.resistance_exact(0, 1).unwrap();
        assert!(complete.remove_edge(0, 1).unwrap());
        assert!(complete.resistance_exact(0, 1).unwrap() > before);
    }

    #[test]
    fn refreshes_are_incremental_until_the_drift_cap() {
        let g = generators::social_network_like(100, 6.0, 2).unwrap();
        let dynamic = DynamicResistanceService::from_graph(&g, config()).with_refresh_interval(3);
        dynamic.refresh().unwrap();
        assert_eq!(dynamic.snapshot_full_rebuilds(), 1, "first build is full");
        assert_eq!(dynamic.incremental_refreshes(), 0);

        // One mutation -> the refresh is incremental (1 < K = 3).
        dynamic.insert_edge(0, 50).unwrap();
        dynamic.refresh().unwrap();
        assert_eq!(dynamic.incremental_refreshes(), 1);
        assert_eq!(dynamic.snapshot_full_rebuilds(), 1);

        // Two more reach the cap -> full rebuild. A ground-truth read
        // refreshes through the same path as a query.
        dynamic.insert_edge(1, 51).unwrap();
        dynamic.insert_edge(2, 52).unwrap();
        dynamic.resistance_exact(0, 50).unwrap();
        assert_eq!(dynamic.snapshot_full_rebuilds(), 2);
        assert_eq!(dynamic.incremental_refreshes(), 1);
        assert_eq!(dynamic.service_refreshes(), 3);

        // The cap counts from the last full rebuild.
        assert!(dynamic.insert_edge(3, 53).unwrap());
        dynamic.refresh().unwrap();
        assert_eq!(dynamic.snapshot_full_rebuilds(), 2);
        assert_eq!(dynamic.incremental_refreshes(), 2);
    }

    /// `(λ₂, λₙ)` Ritz values of `steps` Lanczos steps on the transition
    /// spectrum of `g` (Perron pair deflated), as a refresh runs them, from
    /// `start` or the seeded start; and the Ritz vector. The same steps
    /// that a refresh stopped after give its Ritz values exactly.
    fn ritz_run(g: &Graph, steps: usize, start: Option<&[f64]>) -> ((f64, f64), Option<Vec<f64>>) {
        let op = NormalizedAdjacencyOp::new(g);
        let deflated = DeflatedOp::new(&op, op.perron_vector(), 1.0);
        let (run, ritz) = lanczos_with_start(&deflated, steps, LANCZOS_SEED, start);
        ((run.max(), run.min()), ritz)
    }

    fn magnitude((l2, ln): (f64, f64)) -> f64 {
        l2.abs().max(ln.abs())
    }

    #[test]
    fn incremental_snapshot_matches_a_cold_build() {
        // The incremental path (overlay collapse + warm Lanczos) must agree
        // with a cold build on the same edge set: identical CSR, and a λ
        // that is, like the cold build's, a certified bound on the truth.
        // n > 256 so Lanczos really warm-starts.
        let g = generators::social_network_like(300, 8.0, 5).unwrap();
        let dynamic =
            DynamicResistanceService::from_graph(&g, config()).with_refresh_interval(1000);
        dynamic.refresh().unwrap();
        dynamic.insert_edge(7, 200).unwrap();
        dynamic.insert_edge(40, 180).unwrap();
        dynamic.remove_edge(7, 200).unwrap();
        let warm = dynamic.refresh().unwrap();
        assert_eq!(dynamic.incremental_refreshes(), 1);

        let mutated: Vec<_> = g.edges().chain([(40, 180)]).collect();
        let mutated = GraphBuilder::from_edges(300, mutated).build().unwrap();
        let cold = DynamicResistanceService::from_graph(&mutated, config());
        let cold = cold.refresh().unwrap();
        let (warm, cold) = (warm.service().context(), cold.service().context());
        assert_eq!(warm.graph().csr(), cold.graph().csr());

        // The uncapped runs a refresh used to make agree to Lanczos
        // accuracy: 40 warm steps from the input graph's 120-step Ritz
        // vector, and 120 cold steps on the mutated graph.
        let (_, start) = ritz_run(&g, 120, None);
        let (warm_ritz, _) = ritz_run(&mutated, 40, start.as_deref());
        let (cold_ritz, _) = ritz_run(&mutated, 120, None);
        assert!(
            (magnitude(warm_ritz) - magnitude(cold_ritz)).abs() < 1e-6,
            "warm Ritz λ {warm_ritz:?} vs cold Ritz λ {cold_ritz:?}"
        );

        // Certified, both epochs' λ lie above the truth (a 1,000-step run,
        // to the rounding of one application of N), each by at most
        // τ(1 − λ_θ) above its own Ritz λ_θ; the warm one after a few steps.
        let truth = magnitude(ritz_run(&mutated, 1000, None).0);
        let rounding = mutated.max_degree() as f64 * f64::EPSILON;
        let first_start = measure_spectral_bounds(&g, 120, LANCZOS_SEED, None, true).1;
        for (context, start) in [(warm, first_start.as_deref()), (cold, None)] {
            assert!(context.lambda_certified());
            let lambda_theta = magnitude(ritz_run(&mutated, context.lanczos_steps(), start).0);
            let lambda_bar = context.lambda();
            assert!(
                truth <= lambda_bar + rounding,
                "λ̄ {lambda_bar} vs truth {truth}"
            );
            assert!(
                lambda_bar - lambda_theta <= CERTIFICATION_TOLERANCE * (1.0 - lambda_theta),
                "λ̄ {lambda_bar} vs λ_θ {lambda_theta}"
            );
        }
        let steps = (warm.lanczos_steps(), cold.lanczos_steps());
        assert!(
            steps.0 <= 5 && 4 * steps.0 < steps.1,
            "warm and cold steps {steps:?}"
        );
    }

    #[test]
    fn epochs_keep_the_measured_spectral_bounds() {
        // n > 256 so the bounds come from Lanczos. The first refresh is
        // full (cold, capped at 120 steps); the next one is incremental
        // (capped at 40, warm from the first run's Ritz vector).
        let g = generators::social_network_like(300, 8.0, 5).unwrap();
        let dynamic = DynamicResistanceService::from_graph(&g, config());
        let full = dynamic.refresh().unwrap();
        assert_eq!(dynamic.snapshot_full_rebuilds(), 1);
        dynamic.insert_edge(7, 200).unwrap();
        let incremental = dynamic.refresh().unwrap();
        assert_eq!(dynamic.incremental_refreshes(), 1);

        let (cold, ritz) = spectral_bounds_warm(&g, 120, 0xd1a, None);
        let incremental_graph = incremental.service().context().graph();
        let (warm, _) = spectral_bounds_warm(incremental_graph, 40, 0xd1a, ritz.as_deref());
        for (epoch, (l2, ln)) in [(full, cold), (incremental, warm)] {
            let context = epoch.service().context();
            assert_eq!(context.lambda2().to_bits(), l2.to_bits());
            assert_eq!(context.lambda_n().to_bits(), ln.to_bits());
            let lambda = l2.abs().max(ln.abs()).clamp(1e-9, 1.0 - 1e-9);
            assert_eq!(context.lambda().to_bits(), lambda.to_bits());
        }
    }

    #[test]
    fn mutation_bookkeeping_and_validation() {
        let edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)];
        let g = GraphBuilder::from_edges(5, edges).build().unwrap();
        let dynamic = DynamicResistanceService::from_graph(&g, config());
        assert_eq!(dynamic.num_edges(), 6);
        assert!(dynamic.has_edge(1, 0));
        assert!(!dynamic.insert_edge(0, 1).unwrap(), "already present");
        assert!(!dynamic.insert_edge(3, 3).unwrap(), "self-loop rejected");
        assert!(!dynamic.remove_edge(0, 4).unwrap(), "absent edge");
        assert!(matches!(
            dynamic.insert_edge(0, 9),
            Err(ServiceError::Index(IndexError::Graph(_)))
        ));
        assert!(dynamic.resistance_exact(0, 9).is_err(), "out of range");
        assert_eq!(dynamic.version(), 0, "no-ops do not bump the version");
        assert!(dynamic.insert_edge(0, 3).unwrap());
        assert_eq!(dynamic.version(), 1);
        assert!(dynamic.has_edge(3, 0), "pending mutations are visible");

        // Cutting node 4 loose is reported, and the failed refresh leaves
        // the state intact: reconnecting recovers.
        assert!(dynamic.remove_edge(3, 4).unwrap());
        assert!(dynamic.remove_edge(4, 2).unwrap());
        assert!(matches!(
            dynamic.resistance_exact(0, 3),
            Err(ServiceError::Index(IndexError::Graph(_)))
        ));
        assert!(dynamic.insert_edge(4, 0).unwrap());
        assert!(dynamic.resistance_exact(0, 4).is_ok());
        assert_eq!(dynamic.num_edges(), 6);
    }

    #[test]
    fn pinned_epoch_keeps_answering_old_version_bits() {
        let g = generators::social_network_like(120, 7.0, 11).unwrap();
        let dynamic = DynamicResistanceService::from_graph(&g, config());
        dynamic.resistance(1, 60).unwrap();
        let pinned = dynamic.epoch().expect("epoch installed by first query");
        let old_version = pinned.version();
        let old_answer = pinned
            .service()
            .submit(&Query::pair(1, 60).into())
            .unwrap()
            .value();
        dynamic.insert_edge(1, 60).unwrap();
        dynamic.insert_edge(1, 61).unwrap();
        // The pinned epoch still answers, bit-identically, at its version.
        let replay = pinned
            .service()
            .submit(&Query::pair(1, 60).into())
            .unwrap()
            .value();
        assert_eq!(old_answer.to_bits(), replay.to_bits());
        assert_eq!(pinned.version(), old_version);
        // New admissions see the new version.
        dynamic.resistance(1, 60).unwrap();
        let fresh = dynamic.epoch().unwrap();
        assert!(fresh.version() > old_version);
    }
}
