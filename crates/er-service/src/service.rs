//! The `ResistanceService` front door.
//!
//! Since PR 4 the service is built for *concurrent* callers: [`submit`]
//! takes `&self`, the service is `Send + Sync`, and any number of threads
//! (or the [`ResistanceServer`](crate::ResistanceServer) worker pool) can be
//! in flight at once. Besides the graph context and configuration, which
//! every submit only reads, the service holds
//!
//! * a sharded cache tier: one [`QueryCache`] shard per
//!   accuracy/backend-override class, each behind its own mutex, so requests
//!   in different classes never contend, and
//! * a registry of memoized heavy backends (index, dense-exact) built
//!   lazily behind per-backend locks.
//!
//! [`submit`] matches the planned [`BackendChoice`] and calls that
//! estimator directly; [`BackendChoice::answers`] is the one table of which
//! shapes each backend answers.
//!
//! [`submit`]: ResistanceService::submit

use crate::backend::{forked, hay};
use crate::capability::QueryShape;
use crate::error::ServiceError;
use crate::planner::{route, BackendChoice};
use crate::query::{Accuracy, Query, Request};
use crate::response::Response;
use er_core::{
    Amc, ApproxConfig, CostBreakdown, Exact, GeerBatch, GeerBatchRun, GraphContext, Mc2, Smm,
};
use er_graph::{IntoGraphArc, NodeId};
use er_index::{ErIndex, QueryCache};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, RwLock};

/// Cache entries are only reused for requests in the same class: the same
/// accuracy (a value produced at ε = 0.5 must not serve an ε = 0.01
/// request) *and* the same backend override (a request that forces
/// AMC must be answered by AMC, not by a value GEER cached earlier —
/// planner-routed requests share the `backend: None` class). One legal
/// cross-class exception exists: an `Exact` entry may serve any `Epsilon`
/// request of the same backend-override class, because an exact value
/// satisfies every ε target (see [`ResistanceService::submit`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct CacheClass {
    accuracy: (u8, u64, u64),
    backend: Option<BackendChoice>,
}

impl CacheClass {
    pub(crate) fn of(accuracy: Accuracy, backend: Option<BackendChoice>) -> CacheClass {
        CacheClass {
            accuracy: accuracy.key(),
            backend,
        }
    }
}

/// The RNG stream a pair query runs on, derived from the pair *content*
/// (symmetric in `s`/`t`), never from its position in a request or the
/// scheduling order. This is what makes the whole serving plane
/// reproducible: a pair computes the same bits whether it is served alone,
/// deduplicated against an identical in-flight request, coalesced into a
/// cross-client batch, or replayed from the cache — so responses are
/// bit-identical at any worker count and any arrival order.
fn pair_stream(s: NodeId, t: NodeId) -> u64 {
    let (a, b) = if s <= t { (s, t) } else { (t, s) };
    let mut x = (a as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((b as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    // SplitMix64 finalizer.
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

/// The sharded cache tier: one bounded [`QueryCache`] per cache class, each
/// behind its own stripe lock. Requests in different accuracy classes never
/// contend; requests in the same class serialize only for the (cheap)
/// lookup/insert passes, not for backend work.
struct CacheTier {
    capacity: usize,
    shards: RwLock<HashMap<CacheClass, Arc<Mutex<QueryCache>>>>,
}

impl CacheTier {
    fn new(capacity: usize) -> CacheTier {
        CacheTier {
            capacity,
            shards: RwLock::new(HashMap::new()),
        }
    }

    /// The shard for `class`, created on first use.
    fn shard(&self, class: CacheClass) -> Arc<Mutex<QueryCache>> {
        if let Some(shard) = self
            .shards
            .read()
            .expect("cache tier lock poisoned")
            .get(&class)
        {
            return shard.clone();
        }
        self.shards
            .write()
            .expect("cache tier lock poisoned")
            .entry(class)
            .or_insert_with(|| Arc::new(Mutex::new(QueryCache::new(self.capacity))))
            .clone()
    }

    /// The shard for `class` if it already exists (probes never create
    /// shards).
    fn existing_shard(&self, class: CacheClass) -> Option<Arc<Mutex<QueryCache>>> {
        self.shards
            .read()
            .expect("cache tier lock poisoned")
            .get(&class)
            .cloned()
    }
}

/// Lazily built, memoized heavy backends. Each slot has its own lock, held
/// across construction so concurrent requests needing the same backend wait
/// for one build instead of duplicating it; requests on other backends are
/// unaffected.
#[derive(Default)]
struct BackendRegistry {
    index: Mutex<Option<Arc<ErIndex>>>,
    /// Lock-free mirror of `index.is_some()`, so [`plan`] (called on every
    /// request, including by the server's scheduler under its queue lock)
    /// never blocks behind a multi-second index *build* holding the slot
    /// mutex.
    ///
    /// [`plan`]: ResistanceService::plan
    index_ready: std::sync::atomic::AtomicBool,
    exact_dense: Mutex<Option<Arc<Exact>>>,
}

/// The value memoized in `slot`, built by `build` on first use. The slot's
/// lock is held across the build, so concurrent requests wait for one build
/// instead of duplicating it.
fn memoized<T>(
    slot: &Mutex<Option<Arc<T>>>,
    build: impl FnOnce() -> Result<T, ServiceError>,
) -> Result<Arc<T>, ServiceError> {
    let mut slot = slot.lock().expect("backend slot poisoned");
    if slot.is_none() {
        *slot = Some(Arc::new(build()?));
    }
    Ok(slot.clone().expect("memoized above"))
}

/// `proto` with the request's walk budget applied, if it carries one.
fn budgeted<E>(proto: E, budget: Option<u64>, with_budget: fn(E, u64) -> E) -> E {
    match budget {
        Some(b) => with_budget(proto, b),
        None => proto,
    }
}

/// The index's unit of work is the Laplacian solve: the solves observed
/// since `before` (cached columns cost none; under concurrent requests the
/// attribution is approximate).
fn solves_since(index: &ErIndex, before: u64) -> CostBreakdown {
    CostBreakdown {
        solver_iterations: index.total_solves() - before,
        ..CostBreakdown::default()
    }
}

/// Per-request bookkeeping while a (possibly coalesced) group of pair-shaped
/// requests runs through the cache tier and one shared backend call.
struct PendingPairs {
    values: Vec<f64>,
    resolve: Vec<(usize, usize)>,
    cache_hits: u64,
    trivial_queries: u64,
    owned_items: u64,
    /// Plan slots this request contributed first (its *owned* items) — the
    /// per-item costs at these slots are attributed to this request in the
    /// response's shared/owned cost split.
    owned_slots: Vec<usize>,
}

/// The unified query plane: one front door for every served estimator.
///
/// Callers describe *what* they want — a typed [`Query`] plus an
/// [`Accuracy`] target — and the service plans *how*: a capability check, a
/// cache-tier pass, a routing decision by the [`planner`](crate::planner),
/// and one batch-native call into the chosen estimator on content-derived RNG
/// streams (bit-identical at any thread count for a fixed seed).
///
/// The service is `Send + Sync` and [`submit`](Self::submit) takes `&self`:
/// share it behind an `Arc` (or spawn a
/// [`ResistanceServer`](crate::ResistanceServer) over it) and any number of
/// callers can be in flight at once.
///
/// ```
/// use er_service::{Accuracy, Query, Request, ResistanceService};
/// use er_graph::generators;
///
/// let graph = generators::social_network_like(400, 10.0, 7).unwrap();
/// let service = ResistanceService::new(&graph).unwrap();
///
/// let request = Request::new(Query::pair(0, 200)).with_accuracy(Accuracy::epsilon(0.1));
/// let response = service.submit(&request).unwrap();
/// assert!(response.value() > 0.0);
/// // The response names the backend the planner picked and itemises cost.
/// assert!(!response.backend.is_empty());
/// ```
pub struct ResistanceService {
    context: GraphContext,
    config: ApproxConfig,
    caches: CacheTier,
    backends: BackendRegistry,
}

impl ResistanceService {
    /// Default capacity of each accuracy-class cache shard.
    pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

    /// Builds a service over `graph` with [`ApproxConfig::default`] (runs the
    /// spectral preprocessing once).
    pub fn new(graph: impl IntoGraphArc) -> Result<Self, ServiceError> {
        Self::with_config(graph, ApproxConfig::default())
    }

    /// Builds a service with an explicit estimator configuration (seed,
    /// default ε/δ/τ, worker threads).
    pub fn with_config(
        graph: impl IntoGraphArc,
        config: ApproxConfig,
    ) -> Result<Self, ServiceError> {
        let context = GraphContext::preprocess(graph)?;
        Ok(Self::from_context(context, config))
    }

    /// Builds a service over an already-preprocessed [`GraphContext`].
    pub fn from_context(context: GraphContext, config: ApproxConfig) -> Self {
        ResistanceService {
            context,
            config,
            caches: CacheTier::new(Self::DEFAULT_CACHE_CAPACITY),
            backends: BackendRegistry::default(),
        }
    }

    /// Installs a pre-built INDEX backend, marking the index tier ready so
    /// the planner routes to it immediately (no lazy build, no solves).
    ///
    /// The index's state must describe this service's graph exactly —
    /// e.g. an [`ErIndex::from_parts`] reassembly of state carried
    /// across epochs by the dynamic service's Sherman–Morrison updates.
    /// The graph handle must cover the same node set; this is asserted.
    #[must_use]
    pub fn with_prebuilt_index(self, index: Arc<ErIndex>) -> Self {
        assert_eq!(
            index.graph().num_nodes(),
            self.context.graph().num_nodes(),
            "prebuilt index must cover the service's node set"
        );
        *self.backends.index.lock().expect("index slot poisoned") = Some(index);
        self.backends.index_ready.store(true, Ordering::Release);
        self
    }

    /// The INDEX backend if it has been built (or installed pre-built);
    /// never triggers a build. The extraction side of epoch handover: the
    /// dynamic service peeks here to harvest resident columns before a
    /// mutation burst.
    pub fn index_backend(&self) -> Option<Arc<ErIndex>> {
        self.backends
            .index
            .lock()
            .expect("index slot poisoned")
            .clone()
    }

    /// The preprocessed graph context the service answers over.
    pub fn context(&self) -> &GraphContext {
        &self.context
    }

    /// The service's estimator configuration.
    pub fn config(&self) -> ApproxConfig {
        self.config
    }

    /// The backend the service would use for `request` right now, without
    /// doing any work. Honors the request's override.
    ///
    /// Planner-routed requests see the graph's node count, the spectral gap
    /// the preprocessing measured, and whether the INDEX tier is built. The
    /// last is an atomic load, so planning never blocks behind an
    /// in-progress index build.
    pub fn plan(&self, request: &Request) -> BackendChoice {
        request.backend.unwrap_or_else(|| {
            route(
                &request.query,
                request.accuracy,
                self.context.graph().num_nodes(),
                self.context.spectral_gap(),
                self.backends.index_ready.load(Ordering::Acquire),
            )
        })
    }

    /// [`plan`](Self::plan) for a request about to be served: an `Exact`
    /// request may only override to an exact backend. A sampling backend
    /// would run at the service's default ε, and its value would be cached
    /// in the `Exact` class, from which it would serve tighter ε requests
    /// as if it were exact.
    fn resolve(&self, request: &Request) -> Result<BackendChoice, ServiceError> {
        match (request.accuracy, request.backend) {
            (Accuracy::Exact, Some(choice)) if !choice.is_exact() => {
                Err(ServiceError::InvalidRequest {
                    message: format!(
                        "exact accuracy needs an exact backend (exact-cg, exact or index), not {}",
                        choice.name()
                    ),
                })
            }
            _ => Ok(self.plan(request)),
        }
    }

    /// Answers a request: validates it, consults the cache tier, routes to a
    /// backend and assembles the response in request order.
    ///
    /// Takes `&self`: any number of threads may submit concurrently.
    ///
    /// Determinism: the RNG stream of every pair is derived from the pair
    /// *content* (not its request position or scheduling order), and every
    /// miss is computed in the canonical `(min, max)` orientation, so for a
    /// fixed service seed a pair's value is bit-identical whether it is
    /// served alone, inside a batch, coalesced with other requests, from the
    /// cache, as `(s, t)` or as `(t, s)`, or at any
    /// [`threads`](ApproxConfig::threads) setting. The one
    /// history-dependent exception: an `Exact` value already in the cache
    /// tier may serve a later ε request of the same backend-override class
    /// (exact answers satisfy every ε target), substituting the exact bits
    /// for the sampled ones.
    ///
    /// An `Exact` request whose override names a backend that is not exact
    /// (see [`BackendChoice::is_exact`]) is rejected with
    /// [`ServiceError::InvalidRequest`].
    pub fn submit(&self, request: &Request) -> Result<Response, ServiceError> {
        if !request.query.shape().is_pairwise() {
            return self.submit_index(request);
        }
        let choice = self.resolve(request)?;
        let mut responses = self.submit_pairs_planned(&[request], choice)?;
        Ok(responses.pop().expect("one response per request"))
    }

    /// Answers several pair-shaped requests as **one backend call** — the
    /// cross-request coalescing primitive behind the
    /// [`ResistanceServer`](crate::ResistanceServer). All requests must share
    /// one accuracy target, one backend override and one planned backend
    /// (the server groups by exactly these), otherwise the call is rejected
    /// with [`ServiceError::InvalidRequest`].
    ///
    /// Coalescing changes *work*, never *values*: distinct pairs across the
    /// group are deduplicated into one call, sampling backends amortize one
    /// parallel fan-out (and HAY one spanning-tree pool) over all of them,
    /// and each returned response carries values bit-identical to what its
    /// request would have computed alone. The reported
    /// [`cost`](Response::cost) is that of the shared computation, attributed
    /// to every member of the group.
    pub fn submit_coalesced(&self, requests: &[&Request]) -> Result<Vec<Response>, ServiceError> {
        let Some(first) = requests.first() else {
            return Ok(Vec::new());
        };
        let choice = self.resolve(first)?;
        for request in requests {
            if !request.query.shape().is_pairwise() {
                return Err(ServiceError::InvalidRequest {
                    message: "only pair-shaped queries can be coalesced".into(),
                });
            }
            if request.accuracy != first.accuracy || request.backend != first.backend {
                return Err(ServiceError::InvalidRequest {
                    message: "coalesced requests must share one accuracy class".into(),
                });
            }
            if self.plan(request) != choice {
                return Err(ServiceError::InvalidRequest {
                    message: "coalesced requests must plan to the same backend".into(),
                });
            }
        }
        self.submit_pairs_planned(requests, choice)
    }

    /// Convenience: one pair at the service's default accuracy.
    pub fn resistance(&self, s: NodeId, t: NodeId) -> Result<f64, ServiceError> {
        Ok(self.submit(&Request::new(Query::pair(s, t)))?.value())
    }

    /// Convenience: `r(source, v)` for every `v`, exactly.
    pub fn single_source(&self, source: NodeId) -> Result<Vec<f64>, ServiceError> {
        Ok(self
            .submit(&Request::new(Query::single_source(source)))?
            .values)
    }

    /// Convenience: the Kirchhoff index `Σ_{s<t} r(s, t) = n · tr(L†)`,
    /// computed from a [`Query::Diagonal`] answer.
    pub fn kirchhoff_index(&self) -> Result<f64, ServiceError> {
        let diag = self.submit(&Request::new(Query::Diagonal))?;
        let n = self.context.graph().num_nodes() as f64;
        Ok(n * diag.values.iter().sum::<f64>())
    }

    /// The shared submit path for pair-shaped requests: validation, the
    /// cache-tier pass (per-class shard plus the legal `Exact` → ε
    /// cross-class probe), cross-request dedup into one list of distinct
    /// pairs on content-derived streams, one backend call, and per-request
    /// response assembly.
    fn submit_pairs_planned(
        &self,
        requests: &[&Request],
        choice: BackendChoice,
    ) -> Result<Vec<Response>, ServiceError> {
        let first = requests.first().expect("submit_pairs_planned needs input");
        let accuracy = first.accuracy;

        // Validation first (bad node ids / non-edges fail before any backend
        // or cache cost is paid), then the static capability check.
        for request in requests {
            let shape = request.query.shape();
            for &(s, t) in request.query.pairs().iter() {
                self.context.check_pair(s, t)?;
                if shape == QueryShape::EdgeSet && s != t && !self.context.graph().has_edge(s, t) {
                    return Err(ServiceError::InvalidRequest {
                        message: format!("({s}, {t}) is not an edge of the graph"),
                    });
                }
            }
            if !choice.answers(shape) {
                return Err(ServiceError::UnsupportedShape {
                    backend: choice.name(),
                    shape,
                });
            }
        }

        // Cache tier: trivial self-pairs short-circuit, repeats (within a
        // request, across coalesced requests, and across earlier requests in
        // the same class) are hits, distinct misses become backend pairs. Each
        // miss runs on the RNG stream derived from its pair content, so the
        // answer is independent of cache state, group composition and thread
        // count.
        let shard = self.caches.shard(CacheClass::of(accuracy, first.backend));
        // The `Exact` class with the same backend override is the only class
        // whose entries may legally serve an ε request.
        let exact_shard = match accuracy {
            Accuracy::Epsilon { .. } => self
                .caches
                .existing_shard(CacheClass::of(Accuracy::Exact, first.backend)),
            _ => None,
        };
        let mut pending: Vec<PendingPairs> = Vec::with_capacity(requests.len());
        let mut miss_index: HashMap<(NodeId, NodeId), usize> = HashMap::new();
        let mut items: Vec<(NodeId, NodeId)> = Vec::new();
        let mut streams: Vec<u64> = Vec::new();
        {
            let mut cache = shard.lock().expect("cache shard poisoned");
            // Lock order is always ε-shard then Exact-shard; Exact requests
            // never take a second shard, so the order is acyclic.
            let exact_guard = exact_shard
                .as_ref()
                .map(|s| s.lock().expect("cache shard poisoned"));
            for request in requests {
                let pairs = request.query.pairs();
                let mut p = PendingPairs {
                    values: vec![0.0; pairs.len()],
                    resolve: Vec::new(),
                    cache_hits: 0,
                    trivial_queries: 0,
                    owned_items: 0,
                    owned_slots: Vec::new(),
                };
                for (pos, &(s, t)) in pairs.iter().enumerate() {
                    if s == t {
                        p.trivial_queries += 1;
                        continue;
                    }
                    if let Some(v) = cache.get(s, t) {
                        p.cache_hits += 1;
                        p.values[pos] = v;
                        continue;
                    }
                    // ROADMAP cache-tier fix: an Exact entry of the same
                    // backend-override class legally serves any ε request —
                    // probe without touching the exact shard's statistics.
                    if let Some(exact) = exact_guard.as_deref() {
                        if let Some(v) = exact.peek(s, t) {
                            p.cache_hits += 1;
                            p.values[pos] = v;
                            continue;
                        }
                    }
                    let key = (s.min(t), s.max(t));
                    match miss_index.get(&key) {
                        Some(&slot) => {
                            p.cache_hits += 1;
                            p.resolve.push((pos, slot));
                        }
                        None => {
                            let slot = items.len();
                            miss_index.insert(key, slot);
                            // Canonical orientation: r(s, t) = r(t, s), but
                            // sampling backends draw different (equally
                            // valid) bits per orientation. Computing every
                            // miss as (min, max) keeps a pair's bits
                            // identical no matter which orientation reaches
                            // the plan first — without this, cross-request
                            // dedup of (s, t) with a later (t, s) would make
                            // the answer depend on arrival order.
                            items.push(key);
                            streams.push(pair_stream(s, t));
                            p.owned_items += 1;
                            p.owned_slots.push(slot);
                            p.resolve.push((pos, slot));
                        }
                    }
                }
                pending.push(p);
            }
        }

        // Fully cache-served groups never touch (or build) a backend.
        if items.is_empty() {
            return Ok(pending
                .into_iter()
                .map(|p| Response {
                    values: p.values,
                    nodes: Vec::new(),
                    backend: choice.name(),
                    cost: CostBreakdown::default(),
                    shared_cost: CostBreakdown::default(),
                    item_costs: Vec::new(),
                    cache_hits: p.cache_hits,
                    backend_calls: 0,
                    trivial_queries: p.trivial_queries,
                })
                .collect());
        }

        let answer = self.answer_pairs(choice, accuracy, &items, &streams)?;
        {
            let mut cache = shard.lock().expect("cache shard poisoned");
            for (&(s, t), &value) in items.iter().zip(&answer.values) {
                cache.insert(s, t, value);
            }
        }
        let mut cost = answer.shared_cost;
        for item in &answer.item_costs {
            cost += *item;
        }
        Ok(pending
            .into_iter()
            .map(|p| {
                let mut values = p.values;
                for &(pos, slot) in &p.resolve {
                    values[pos] = answer.values[slot];
                }
                // Cost split (satellite of the batched-GEER work): `cost`
                // keeps its historical meaning — the whole shared
                // computation, attributed to every member — while
                // `shared_cost` + the member's owned `item_costs` let
                // metrics aggregate a coalesced group without overstating
                // work: Σ members' owned + one shared = the true total.
                let item_costs = p
                    .owned_slots
                    .iter()
                    .map(|&slot| answer.item_costs[slot])
                    .collect();
                Response {
                    values,
                    nodes: Vec::new(),
                    backend: choice.name(),
                    cost,
                    shared_cost: answer.shared_cost,
                    item_costs,
                    cache_hits: p.cache_hits,
                    backend_calls: p.owned_items,
                    trivial_queries: p.trivial_queries,
                }
            })
            .collect())
    }

    /// Answers a source-shaped query (`SingleSource`, `TopK`, `Diagonal`)
    /// from the INDEX tier, the only backend that answers those shapes.
    fn submit_index(&self, request: &Request) -> Result<Response, ServiceError> {
        if let Query::SingleSource { source } | Query::TopK { source, .. } = request.query {
            self.context.check_pair(source, source)?;
        }
        let shape = request.query.shape();
        let choice = self.resolve(request)?;
        if !choice.answers(shape) {
            return Err(ServiceError::UnsupportedShape {
                backend: choice.name(),
                shape,
            });
        }
        debug_assert_eq!(choice, BackendChoice::Index);
        let index = self.index()?;
        let solves_before = index.total_solves();
        let mut nodes = Vec::new();
        let values = match request.query {
            Query::SingleSource { source } => index.single_source(source)?,
            Query::TopK { source, k } => {
                let scored = index.nearest(source, k)?;
                nodes = scored.iter().map(|&(v, _)| v).collect();
                scored.into_iter().map(|(_, r)| r).collect()
            }
            _ => index.diagonal().to_vec(),
        };
        let cost = solves_since(&index, solves_before);
        Ok(Response {
            values,
            nodes,
            backend: choice.name(),
            cost,
            shared_cost: cost,
            item_costs: Vec::new(),
            cache_hits: 0,
            backend_calls: 0,
            trivial_queries: 0,
        })
    }

    /// The estimator configuration a backend prototype should run with under
    /// the given accuracy: ε-targets override the service's default ε/δ.
    fn effective_config(&self, accuracy: Accuracy) -> ApproxConfig {
        match accuracy {
            Accuracy::Epsilon { eps, delta } => ApproxConfig {
                epsilon: eps,
                delta,
                ..self.config
            },
            _ => self.config,
        }
    }

    /// Answers the distinct pairs of one call with the chosen backend;
    /// `streams[i]` is the content-derived RNG stream of `pairs[i]`. The
    /// sampling prototypes are free to construct and are rebuilt per call so
    /// they pick up the request's accuracy target; the index and dense-exact
    /// backends carry expensive preprocessing and are memoized.
    fn answer_pairs(
        &self,
        choice: BackendChoice,
        accuracy: Accuracy,
        pairs: &[(NodeId, NodeId)],
        streams: &[u64],
    ) -> Result<GeerBatchRun, ServiceError> {
        let ctx = &self.context;
        let cfg = self.effective_config(accuracy);
        let threads = self.config.threads;
        let budget = match accuracy {
            Accuracy::WalkBudget(b) => Some(b),
            _ => None,
        };
        Ok(match choice {
            // GEER is batch-native: one shared SMM frontier per distinct
            // endpoint, bit-identical to per-pair forks.
            BackendChoice::Geer => {
                let geer = GeerBatch::new(ctx, cfg);
                budgeted(geer, budget, GeerBatch::with_walk_budget).run(pairs, streams, threads)?
            }
            BackendChoice::Amc => {
                let amc = budgeted(Amc::new(ctx, cfg), budget, Amc::with_walk_budget);
                forked(&amc, pairs, streams, threads)?
            }
            BackendChoice::Smm => forked(&Smm::new(ctx, cfg), pairs, streams, threads)?,
            BackendChoice::Mc2 => {
                let mc2 = budgeted(Mc2::new(ctx, cfg), budget, Mc2::with_walk_budget);
                forked(&mc2, pairs, streams, threads)?
            }
            BackendChoice::Hay => hay(ctx, cfg, accuracy, pairs, threads)?,
            BackendChoice::ExactCg => forked(&Exact::with_solver(ctx), pairs, streams, threads)?,
            BackendChoice::ExactDense => {
                forked(self.exact_dense()?.as_ref(), pairs, streams, threads)?
            }
            BackendChoice::Index => {
                let index = self.index()?;
                let solves_before = index.total_solves();
                let values = pairs
                    .iter()
                    .map(|&(s, t)| index.resistance(s, t))
                    .collect::<Result<_, _>>()?;
                GeerBatchRun {
                    values,
                    item_costs: vec![CostBreakdown::default(); pairs.len()],
                    // Column solves are shared by every pair touching the
                    // column (and by later calls, via the column cache).
                    shared_cost: solves_since(&index, solves_before),
                }
            }
        })
    }

    /// The INDEX tier, built on first use (one CG solve per node for the
    /// diagonal). `index_ready` flips while the slot lock is still held, so
    /// a request the planner then routes to INDEX waits for this build.
    fn index(&self) -> Result<Arc<ErIndex>, ServiceError> {
        memoized(&self.backends.index, || {
            let index =
                ErIndex::build_with_threads(self.context.graph_arc().clone(), self.config.threads)?;
            self.backends.index_ready.store(true, Ordering::Release);
            Ok(index)
        })
    }

    /// The dense pseudo-inverse behind EXACT, built on first use.
    fn exact_dense(&self) -> Result<Arc<Exact>, ServiceError> {
        memoized(&self.backends.exact_dense, || {
            Ok(Exact::new(&self.context)?)
        })
    }

    /// Hit/miss statistics of the cache tier, summed over accuracy classes:
    /// `(hits, misses, entries)`.
    pub fn cache_stats(&self) -> (u64, u64, usize) {
        let mut hits = 0;
        let mut misses = 0;
        let mut entries = 0;
        for shard in self
            .caches
            .shards
            .read()
            .expect("cache tier lock poisoned")
            .values()
        {
            let cache = shard.lock().expect("cache shard poisoned");
            hits += cache.hits();
            misses += cache.misses();
            entries += cache.len();
        }
        (hits, misses, entries)
    }

    /// Hint that upcoming requests are repeated-source workloads: builds the
    /// index tier now so the planner can route to it immediately.
    pub fn warm_index(&self) -> Result<(), ServiceError> {
        self.index()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_graph::generators;

    fn service(n: usize) -> ResistanceService {
        let g = generators::social_network_like(n, 8.0, 7).unwrap();
        ResistanceService::new(&g).unwrap()
    }

    #[test]
    fn service_is_send_and_sync_and_shareable() {
        fn check<T: Send + Sync>(_: &T) {}
        let s = service(80);
        check(&s);
        // Two threads submit through one &self concurrently.
        let s = Arc::new(s);
        let handles: Vec<_> = (0..2)
            .map(|i| {
                let s = s.clone();
                std::thread::spawn(move || {
                    s.submit(&Request::new(Query::pair(i, 40 + i)))
                        .unwrap()
                        .value()
                })
            })
            .collect();
        for h in handles {
            assert!(h.join().unwrap() > 0.0);
        }
    }

    #[test]
    fn pair_streams_are_symmetric_and_content_addressed() {
        assert_eq!(pair_stream(3, 9), pair_stream(9, 3));
        assert_ne!(pair_stream(3, 9), pair_stream(3, 10));
        // A pair's stream does not depend on anything but the pair.
        let a = pair_stream(123, 456);
        assert_eq!(a, pair_stream(123, 456));
    }

    #[test]
    fn pair_and_batch_round_trip_with_cache() {
        let s = service(200);
        let response = s
            .submit(&Request::new(Query::batch(vec![
                (0, 10),
                (10, 0),
                (3, 3),
                (0, 10),
            ])))
            .unwrap();
        assert_eq!(response.values.len(), 4);
        assert_eq!(response.values[0], response.values[1]);
        assert_eq!(response.values[2], 0.0);
        assert_eq!(response.backend_calls, 1, "one distinct non-trivial pair");
        assert_eq!(response.cache_hits, 2);
        assert_eq!(response.trivial_queries, 1);
        // Same pair again: served from the cache, zero backend calls.
        let again = s.submit(&Request::new(Query::pair(10, 0))).unwrap();
        assert_eq!(again.backend_calls, 0);
        assert_eq!(again.cache_hits, 1);
        assert_eq!(again.value(), response.values[0]);
        // QueryCache-level statistics count only cross-request reuse: the
        // in-batch repeats above were resolved by the dedup pass before
        // reaching the cache, so exactly one lookup hit.
        let (hits, _, entries) = s.cache_stats();
        assert_eq!(hits, 1);
        assert!(entries >= 1);
    }

    #[test]
    fn cached_values_match_a_fresh_computation_bit_for_bit() {
        // Streams are content-derived, so a value served from the cache is
        // the same bits a fresh service computes for the same pair — the
        // property the serving plane's arrival-order invariance rests on.
        let g = generators::social_network_like(200, 8.0, 7).unwrap();
        let warm = ResistanceService::new(&g).unwrap();
        warm.submit(&Request::new(Query::batch(vec![(7, 90), (8, 120)])))
            .unwrap();
        let cached = warm
            .submit(&Request::new(Query::pair(8, 120)).with_accuracy(Accuracy::default()))
            .unwrap();
        assert_eq!(cached.backend_calls, 0, "served from cache");
        let fresh = ResistanceService::new(&g).unwrap();
        let computed = fresh.submit(&Request::new(Query::pair(8, 120))).unwrap();
        assert_eq!(computed.backend_calls, 1);
        assert_eq!(cached.value().to_bits(), computed.value().to_bits());
    }

    #[test]
    fn accuracy_classes_do_not_share_cache_entries() {
        let s = service(200);
        let coarse = s
            .submit(&Request::new(Query::pair(0, 50)).with_accuracy(Accuracy::epsilon(0.5)))
            .unwrap();
        let finer = s
            .submit(&Request::new(Query::pair(0, 50)).with_accuracy(Accuracy::epsilon(0.05)))
            .unwrap();
        // The finer request must not be served the coarse cached value: it
        // performed its own backend call.
        assert_eq!(finer.backend_calls, 1);
        assert_eq!(coarse.backend_calls, 1);
    }

    #[test]
    fn exact_entries_serve_later_epsilon_requests() {
        // ROADMAP cache-tier fix: a CG-exact value short-circuits a later ε
        // query in the same backend-override class.
        let s = service(200);
        let exact = s
            .submit(&Request::new(Query::pair(0, 50)).with_accuracy(Accuracy::Exact))
            .unwrap();
        assert_eq!(exact.backend_calls, 1);
        let eps = s
            .submit(&Request::new(Query::pair(50, 0)).with_accuracy(Accuracy::epsilon(0.3)))
            .unwrap();
        assert_eq!(eps.backend_calls, 0, "served from the Exact shard");
        assert_eq!(eps.cache_hits, 1);
        assert_eq!(eps.value().to_bits(), exact.value().to_bits());
        // The reverse direction must NOT hold: ε entries never serve Exact.
        let eps_first = s
            .submit(&Request::new(Query::pair(3, 90)).with_accuracy(Accuracy::epsilon(0.3)))
            .unwrap();
        assert_eq!(eps_first.backend_calls, 1);
        let exact_after = s
            .submit(&Request::new(Query::pair(3, 90)).with_accuracy(Accuracy::Exact))
            .unwrap();
        assert_eq!(exact_after.backend_calls, 1, "exact recomputes");
        // Nor across backend-override classes: a forced-GEER ε request must
        // not see the planner-class exact entry.
        let forced = s
            .submit(
                &Request::new(Query::pair(0, 50))
                    .with_accuracy(Accuracy::epsilon(0.3))
                    .with_backend(BackendChoice::Geer),
            )
            .unwrap();
        assert_eq!(forced.backend_calls, 1);
    }

    #[test]
    fn exact_requests_reject_non_exact_overrides_before_the_cache() {
        let s = service(200);
        let exact = |choice| {
            Request::new(Query::pair(0, 50))
                .with_accuracy(Accuracy::Exact)
                .with_backend(choice)
        };
        for choice in [
            BackendChoice::Geer,
            BackendChoice::Amc,
            BackendChoice::Smm,
            BackendChoice::Mc2,
        ] {
            let err = s.submit(&exact(choice)).unwrap_err();
            assert!(
                matches!(err, ServiceError::InvalidRequest { .. }),
                "{choice:?}: {err}"
            );
            assert!(s.submit_coalesced(&[&exact(choice)]).is_err());
        }
        // Source shapes share the check: the same typed error, not an
        // unsupported-shape one.
        let source = Request::new(Query::single_source(0))
            .with_accuracy(Accuracy::Exact)
            .with_backend(BackendChoice::Geer);
        assert!(matches!(
            s.submit(&source),
            Err(ServiceError::InvalidRequest { .. })
        ));
        // Nothing was computed or cached by the rejected requests.
        assert_eq!(s.cache_stats(), (0, 0, 0));
        for choice in [
            BackendChoice::ExactCg,
            BackendChoice::ExactDense,
            BackendChoice::Index,
        ] {
            assert_eq!(s.submit(&exact(choice)).unwrap().backend, choice.name());
        }
    }

    #[test]
    fn backend_overrides_do_not_share_cache_entries() {
        let s = service(200);
        let planned = s.submit(&Request::new(Query::pair(0, 50))).unwrap();
        let forced_geer = s
            .submit(&Request::new(Query::pair(0, 50)).with_backend(BackendChoice::Geer))
            .unwrap();
        let forced_amc = s
            .submit(&Request::new(Query::pair(0, 50)).with_backend(BackendChoice::Amc))
            .unwrap();
        // Each override must do its own work, not inherit another backend's
        // cached value.
        assert_eq!(planned.backend_calls, 1);
        assert_eq!(forced_geer.backend_calls, 1);
        assert_eq!(forced_amc.backend_calls, 1);
        assert_eq!(forced_geer.backend, "GEER");
        assert_eq!(forced_amc.backend, "AMC");
        // But a repeat of the same override is a cache hit.
        let repeat = s
            .submit(&Request::new(Query::pair(50, 0)).with_backend(BackendChoice::Amc))
            .unwrap();
        assert_eq!(repeat.backend_calls, 0);
        assert_eq!(repeat.value(), forced_amc.value());
    }

    #[test]
    fn coalesced_submission_is_value_identical_to_solo_submission() {
        let g = generators::social_network_like(200, 8.0, 7).unwrap();
        let solo = ResistanceService::new(&g).unwrap();
        let a = Request::new(Query::pair(0, 100)).with_backend(BackendChoice::Geer);
        let b = Request::new(Query::batch(vec![(5, 60), (0, 100), (7, 7)]))
            .with_backend(BackendChoice::Geer);
        let solo_a = solo.submit(&a).unwrap();
        let solo_b = solo.submit(&b).unwrap();

        let grouped = ResistanceService::new(&g).unwrap();
        let responses = grouped.submit_coalesced(&[&a, &b]).unwrap();
        assert_eq!(responses.len(), 2);
        assert_eq!(responses[0].values, solo_a.values);
        assert_eq!(responses[1].values, solo_b.values);
        assert_eq!(responses[0].backend, "GEER");
        // The shared pair (0, 100) is computed once: request b sees it as a
        // group-level hit.
        assert_eq!(responses[0].backend_calls, 1);
        assert_eq!(responses[1].backend_calls, 1, "only (5, 60) is new");
        assert_eq!(responses[1].cache_hits, 1);
        assert_eq!(responses[1].trivial_queries, 1);
    }

    #[test]
    fn coalesced_submission_rejects_mixed_classes() {
        let s = service(150);
        let a = Request::new(Query::pair(0, 75));
        let mismatched_accuracy =
            Request::new(Query::pair(0, 76)).with_accuracy(Accuracy::epsilon(0.4));
        assert!(matches!(
            s.submit_coalesced(&[&a, &mismatched_accuracy]),
            Err(ServiceError::InvalidRequest { .. })
        ));
        let source_shaped = Request::new(Query::single_source(0));
        assert!(matches!(
            s.submit_coalesced(&[&a, &source_shaped]),
            Err(ServiceError::InvalidRequest { .. })
        ));
        let mismatched_backend = Request::new(Query::pair(0, 76)).with_backend(BackendChoice::Amc);
        assert!(matches!(
            s.submit_coalesced(&[&a, &mismatched_backend]),
            Err(ServiceError::InvalidRequest { .. })
        ));
        assert!(s.submit_coalesced(&[]).unwrap().is_empty());
    }

    #[test]
    fn small_graph_epsilon_requests_are_answered_exactly() {
        let s = service(150);
        let response = s.submit(&Request::new(Query::pair(0, 75))).unwrap();
        assert_eq!(response.backend, "EXACT-CG");
        // Cross-check against the index tier.
        let row = s.single_source(0).unwrap();
        assert!((row[75] - response.value()).abs() < 1e-6);
    }

    #[test]
    fn override_knob_forces_a_backend() {
        let s = service(150);
        let forced = s
            .submit(&Request::new(Query::pair(0, 75)).with_backend(BackendChoice::Geer))
            .unwrap();
        assert_eq!(forced.backend, "GEER");
        assert!(forced.cost.random_walks > 0 || forced.cost.matvec_ops > 0);
        // An estimator that cannot answer the shape is rejected.
        let err = s
            .submit(&Request::new(Query::single_source(0)).with_backend(BackendChoice::Geer))
            .unwrap_err();
        assert!(matches!(err, ServiceError::UnsupportedShape { .. }));
    }

    #[test]
    fn edge_sets_validate_membership() {
        let s = service(150);
        let g_edges: Vec<_> = s.context().graph().edges().take(4).collect();
        let ok = s.submit(&Request::new(Query::edge_set(g_edges))).unwrap();
        assert_eq!(ok.values.len(), 4);
        let mut non_edge = None;
        let g = s.context().graph();
        'outer: for u in 0..g.num_nodes() {
            for v in (u + 1)..g.num_nodes() {
                if !g.has_edge(u, v) {
                    non_edge = Some((u, v));
                    break 'outer;
                }
            }
        }
        let err = s
            .submit(&Request::new(Query::edge_set(vec![non_edge.unwrap()])))
            .unwrap_err();
        assert!(matches!(err, ServiceError::InvalidRequest { .. }));
    }

    #[test]
    fn source_shapes_route_to_the_index_and_kirchhoff_matches() {
        let s = service(150);
        let request = Request::new(Query::top_k(0, 5));
        assert_eq!(s.plan(&request), BackendChoice::Index);
        let top = s.submit(&request).unwrap();
        assert_eq!(top.backend, "INDEX");
        assert_eq!(top.nodes.len(), 5);
        assert!(top.values.windows(2).all(|w| w[0] <= w[1]));
        let kf = s.kirchhoff_index().unwrap();
        assert!(kf > 0.0);
        // After the index is built the planner observes it.
        assert!(s.index_backend().is_some());
        assert_eq!(
            s.plan(&Request::new(Query::pair(0, 1)).with_accuracy(Accuracy::Exact)),
            BackendChoice::Index
        );
    }

    #[test]
    fn every_override_answers_exactly_the_shapes_it_declares() {
        let s = service(120);
        let edges: Vec<_> = s.context().graph().edges().take(2).collect();
        let queries = [
            Query::pair(0, 60),
            Query::batch(vec![(0, 60), (5, 90)]),
            Query::edge_set(edges),
            Query::single_source(5),
            Query::top_k(5, 3),
            Query::Diagonal,
        ];
        for choice in [
            BackendChoice::Geer,
            BackendChoice::Amc,
            BackendChoice::Smm,
            BackendChoice::Mc2,
            BackendChoice::Hay,
            BackendChoice::ExactDense,
            BackendChoice::ExactCg,
            BackendChoice::Index,
        ] {
            for query in &queries {
                let shape = query.shape();
                let request = Request::new(query.clone())
                    .with_accuracy(Accuracy::epsilon(0.5))
                    .with_backend(choice);
                match s.submit(&request) {
                    Ok(response) => {
                        assert!(choice.answers(shape), "{choice:?} answered {shape}");
                        assert_eq!(response.backend, choice.name());
                    }
                    Err(ServiceError::UnsupportedShape {
                        backend,
                        shape: refused,
                    }) => {
                        assert!(!choice.answers(shape), "{choice:?} refused {shape}");
                        assert_eq!((backend, refused), (choice.name(), shape));
                    }
                    Err(other) => panic!("{choice:?} on {shape}: {other}"),
                }
            }
        }
    }

    #[test]
    fn index_backend_answers_every_shape_and_agrees_with_exact() {
        use er_core::ResistanceEstimator;
        let s = service(120);
        let n = s.context().graph().num_nodes();
        let index = |query| {
            s.submit(
                &Request::new(query)
                    .with_accuracy(Accuracy::Exact)
                    .with_backend(BackendChoice::Index),
            )
            .unwrap()
        };
        let direct = Exact::with_solver(s.context())
            .estimate(5, 40)
            .unwrap()
            .value;

        let row = index(Query::single_source(5));
        assert_eq!(row.values.len(), n);
        assert_eq!(row.values[5], 0.0);
        assert!((row.values[40] - direct).abs() < 1e-6);

        let diag = index(Query::Diagonal);
        assert_eq!(diag.values.len(), n);
        assert!(diag.values.iter().all(|&d| d > 0.0));

        let top = index(Query::top_k(5, 3));
        assert_eq!(top.nodes.len(), 3);
        assert_eq!(top.values.len(), 3);
        assert!(top.values.windows(2).all(|w| w[0] <= w[1]));

        let pair = index(Query::pair(5, 40));
        assert!((pair.value() - direct).abs() < 1e-6);
        assert!(s.index_backend().unwrap().total_solves() > 0);
    }

    #[test]
    fn out_of_range_nodes_are_rejected_up_front() {
        let s = service(100);
        assert!(s.submit(&Request::new(Query::pair(0, 5_000))).is_err());
        assert!(s
            .submit(&Request::new(Query::single_source(5_000)))
            .is_err());
    }

    #[test]
    fn walk_budget_is_forwarded() {
        let s = service(150);
        let response = s
            .submit(
                &Request::new(Query::pair(0, 75))
                    .with_accuracy(Accuracy::WalkBudget(500))
                    .with_backend(BackendChoice::Amc),
            )
            .unwrap();
        assert_eq!(response.backend, "AMC");
        assert!(response.cost.random_walks <= 500);
    }

    /// A planner-routed walk budget goes to GEER, which answers a budget
    /// below AMC's first batch (from the SMM prefix alone at a budget of 0);
    /// an explicit AMC override still refuses it.
    #[test]
    fn planner_routed_walk_budgets_always_answer() {
        let g = generators::social_network_like(300, 8.0, 5).unwrap();
        let s = ResistanceService::new(&g).unwrap();
        let budgeted = |walks| {
            Request::new(Query::batch(vec![(10, 290), (3, 150), (21, 199)]))
                .with_accuracy(Accuracy::WalkBudget(walks))
        };
        let planned = s.submit(&budgeted(300)).unwrap();
        assert_eq!(planned.backend, "GEER");
        assert_eq!(planned.item_costs.len(), 3);
        assert!(planned.item_costs.iter().all(|c| c.random_walks <= 300));
        let forced = s
            .submit(&budgeted(300).with_backend(BackendChoice::Geer))
            .unwrap();
        let bits = |r: &Response| r.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&planned), bits(&forced));
        assert!(matches!(
            s.submit(&budgeted(300).with_backend(BackendChoice::Amc)),
            Err(ServiceError::Estimator(
                er_core::EstimatorError::BudgetExceeded { .. }
            ))
        ));
        let prefix = s.submit(&budgeted(0)).unwrap();
        assert_eq!(prefix.backend, "GEER");
        assert_eq!(prefix.cost.random_walks, 0);
        assert!(prefix.values.iter().all(|&v| v > 0.0));
    }

    /// MC2 and HAY refuse a budget of no walk or tree, as AMC refuses one
    /// below its first batch, instead of answering 0 or 1 for an edge from a
    /// single sample. A planner-routed edge set goes to HAY, so it needs no
    /// override to reach the refusal.
    #[test]
    fn zero_walk_budgets_on_edge_sets_are_refused() {
        let g = generators::social_network_like(300, 8.0, 5).unwrap();
        let s = ResistanceService::new(&g).unwrap();
        let edges: Vec<_> = g.edges().take(2).collect();
        let request = Request::new(Query::edge_set(edges)).with_accuracy(Accuracy::WalkBudget(0));
        assert_eq!(s.plan(&request), BackendChoice::Hay);
        for request in [request.clone(), request.with_backend(BackendChoice::Mc2)] {
            assert!(
                matches!(
                    s.submit(&request),
                    Err(ServiceError::Estimator(
                        er_core::EstimatorError::BudgetExceeded { .. }
                    ))
                ),
                "{:?}",
                request.backend
            );
        }
    }
}
