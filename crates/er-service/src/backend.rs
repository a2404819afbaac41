//! The capability-declaring backend trait and its implementations.
//!
//! A [`Backend`] answers *planned* queries batch-natively: the service hands
//! it a [`Plan`] (the deduplicated work items that survived the cache tier)
//! plus a [`StreamPlan`] assigning every item the RNG stream it must use.
//! Randomized backends fork one independent estimator per stream
//! ([`ForkableEstimator`]), so the same plan produces bit-identical answers
//! at any thread count and irrespective of scheduling order.
//!
//! Five types implement the trait:
//!
//! * [`EstimatorBackend`] — wraps any [`ForkableEstimator`] (AMC, SMM,
//!   TP, TPC, RP, MC, MC2, EXACT) and fans the plan items out over worker
//!   threads.
//! * [`GeerBatch`] — batch-native GEER: one shared SMM frontier per
//!   distinct endpoint of the plan, per-pair Eq. 17 switch points and AMC
//!   tails on the per-item streams, bit-identical to per-pair forks.
//! * [`HayBatchBackend`] — the batch-native HAY: one pool of uniform
//!   spanning trees scores *every* edge of the set at once, amortising the
//!   trees the per-query estimator would sample per edge.
//! * [`ErIndex`] — the column-based exact index (INDEX): single-source rows,
//!   the pseudo-inverse diagonal, nearest-neighbour search and exact pairs.
//! * [`LandmarkIndex`] — O(k)-per-query triangle-inequality point
//!   estimates from landmark columns (LANDMARK).

use crate::capability::{QueryShape, QueryShapeSet};
use crate::error::ServiceError;
use crate::query::Accuracy;
use crate::response::Response;
use er_core::{
    ApproxConfig, CostBreakdown, EstimatorError, ForkableEstimator, GeerBatch, GraphContext,
};
use er_graph::NodeId;
use er_index::{ErIndex, LandmarkIndex};
use er_walks::par;
use er_walks::spanning::sample_spanning_trees;

/// One unit of pair-shaped work: a distinct, uncached, non-trivial pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlanItem {
    /// Query source.
    pub s: NodeId,
    /// Query target.
    pub t: NodeId,
}

/// A planned request, as handed to a backend: the shape and accuracy of the
/// original query plus the work items that survived the service's cache and
/// dedup tier.
#[derive(Clone, Debug)]
pub struct Plan {
    /// Shape of the originating query.
    pub shape: QueryShape,
    /// Accuracy target of the originating request.
    pub accuracy: Accuracy,
    /// Distinct uncached pair items (pair-shaped queries only).
    pub items: Vec<PlanItem>,
    /// The source node of `SingleSource` / `TopK` queries.
    pub source: Option<NodeId>,
    /// `k` of a `TopK` query.
    pub k: usize,
}

impl Plan {
    /// A pair-shaped plan over `items`.
    pub fn for_items(shape: QueryShape, accuracy: Accuracy, items: Vec<PlanItem>) -> Plan {
        Plan {
            shape,
            accuracy,
            items,
            source: None,
            k: 0,
        }
    }
}

/// Per-item RNG stream assignment plus the worker-thread knob.
///
/// Streams are derived by the service from each pair's *content* (symmetric
/// in `s`/`t`, independent of request position, cache state and scheduling
/// order), so a pair yields bit-identical values at 1, 2 or 64 threads,
/// whether served alone, batched, coalesced across requests or replayed
/// from the cache.
#[derive(Clone, Debug)]
pub struct StreamPlan {
    /// `streams[i]` is the RNG stream for `plan.items[i]`.
    pub streams: Vec<u64>,
    /// Worker threads for the fan-out (0 = all cores).
    pub threads: usize,
}

impl StreamPlan {
    /// A stream plan for sequentially numbered items (used by tests and by
    /// backends that need no per-item streams).
    pub fn sequential(n: usize, threads: usize) -> StreamPlan {
        StreamPlan {
            streams: (0..n as u64).collect(),
            threads,
        }
    }
}

/// A query-plane backend: declares which shapes it can answer and answers
/// planned requests batch-natively.
pub trait Backend: Send + Sync {
    /// Short stable name, matching
    /// [`BackendChoice::name`](crate::BackendChoice::name).
    fn name(&self) -> &'static str;

    /// The query shapes this backend can answer.
    fn capabilities(&self) -> QueryShapeSet;

    /// Answers a planned request. `plan.items` values come back in item
    /// order; source-shaped plans fill the response per the layout rules on
    /// [`Response::values`].
    fn answer(&self, plan: &Plan, streams: &StreamPlan) -> Result<Response, ServiceError>;
}

fn check_capability(backend: &dyn Backend, shape: QueryShape) -> Result<(), ServiceError> {
    if backend.capabilities().contains(shape) {
        Ok(())
    } else {
        Err(ServiceError::UnsupportedShape {
            backend: backend.name(),
            shape,
        })
    }
}

/// Wraps any [`ForkableEstimator`] as a batch-native backend: item `i` is
/// answered by an independent fork of the prototype on stream
/// `streams.streams[i]`.
pub struct EstimatorBackend<E: ForkableEstimator> {
    prototype: E,
    name: &'static str,
    capabilities: QueryShapeSet,
}

impl<E: ForkableEstimator> EstimatorBackend<E> {
    /// Wraps `prototype` under the given display name and capability set.
    pub fn new(prototype: E, name: &'static str, capabilities: QueryShapeSet) -> Self {
        EstimatorBackend {
            prototype,
            name,
            capabilities,
        }
    }
}

impl<E: ForkableEstimator> Backend for EstimatorBackend<E> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn capabilities(&self) -> QueryShapeSet {
        self.capabilities
    }

    fn answer(&self, plan: &Plan, streams: &StreamPlan) -> Result<Response, ServiceError> {
        check_capability(self, plan.shape)?;
        debug_assert_eq!(plan.items.len(), streams.streams.len());
        let results: Vec<Result<er_core::Estimate, EstimatorError>> = par::par_map_indexed(
            plan.items.len() as u64,
            0, // streams come from the plan, not from this seed
            streams.threads,
            |i, _| {
                let item = plan.items[i as usize];
                let mut fork = self.prototype.fork(streams.streams[i as usize]);
                fork.estimate(item.s, item.t)
            },
        );
        let mut values = Vec::with_capacity(results.len());
        let mut item_costs = Vec::with_capacity(results.len());
        let mut cost = CostBreakdown::default();
        for result in results {
            // Items are in plan order, so the first error seen is the
            // earliest-item error regardless of thread count.
            let estimate = result?;
            values.push(estimate.value);
            cost += estimate.cost;
            item_costs.push(estimate.cost);
        }
        Ok(Response {
            values,
            nodes: Vec::new(),
            backend: self.name,
            cost,
            // Per-pair forks share nothing: every unit of work is owned by
            // exactly one item.
            shared_cost: CostBreakdown::default(),
            item_costs,
            cache_hits: 0,
            backend_calls: plan.items.len() as u64,
            trivial_queries: 0,
        })
    }
}

/// Batch-native GEER: the plan's pairs are answered by one
/// [`GeerBatch::run`] that expands a single SMM frontier per *distinct
/// endpoint* and lets every pair touching that endpoint read it, instead of
/// paying the source expansion once per pair as a per-item
/// [`EstimatorBackend`] fork would. Per-pair Eq. 17 switch points and AMC
/// tails run on the plan's content-derived streams, so every value is
/// bit-identical to its solo execution — batching (and server coalescing on
/// top of it) changes *work*, never *values*.
///
/// The response splits cost accordingly: the shared SMM expansion lands in
/// [`Response::shared_cost`] (counted once for the whole plan), the private
/// AMC tails in [`Response::item_costs`].
impl Backend for GeerBatch {
    fn name(&self) -> &'static str {
        "GEER"
    }

    fn capabilities(&self) -> QueryShapeSet {
        QueryShapeSet::PAIRWISE
    }

    fn answer(&self, plan: &Plan, streams: &StreamPlan) -> Result<Response, ServiceError> {
        check_capability(self, plan.shape)?;
        debug_assert_eq!(plan.items.len(), streams.streams.len());
        let pairs: Vec<(NodeId, NodeId)> = plan.items.iter().map(|i| (i.s, i.t)).collect();
        let run = self.run(&pairs, &streams.streams, streams.threads)?;
        let mut cost = run.shared_cost;
        for item in &run.item_costs {
            cost += *item;
        }
        Ok(Response {
            values: run.values,
            nodes: Vec::new(),
            backend: self.name(),
            cost,
            shared_cost: run.shared_cost,
            item_costs: run.item_costs,
            cache_hits: 0,
            backend_calls: plan.items.len() as u64,
            trivial_queries: 0,
        })
    }
}

/// Batch-native HAY: samples one pool of uniform spanning trees (Wilson's
/// algorithm) and scores every queried edge against the whole pool. The
/// per-edge estimate is the fraction of trees containing the edge, exactly
/// as in the per-query estimator — but `T` trees now answer `m` edges
/// instead of one, a factor-`m` saving on edge-set workloads.
pub struct HayBatchBackend {
    context: GraphContext,
    config: ApproxConfig,
}

impl HayBatchBackend {
    /// Creates the backend over a preprocessed graph.
    pub fn new(context: &GraphContext, config: ApproxConfig) -> Self {
        HayBatchBackend {
            context: context.clone(),
            config,
        }
    }

    /// Number of spanning trees sampled for a given accuracy: the Hoeffding
    /// count `⌈ln(2/δ) / (2ε²)⌉` for ε-targets, the budget itself for
    /// [`Accuracy::WalkBudget`].
    pub fn trees_for(&self, accuracy: Accuracy) -> u64 {
        match accuracy {
            Accuracy::Epsilon { eps, delta } => {
                ((2.0 / delta).ln() / (2.0 * eps * eps)).ceil().max(1.0) as u64
            }
            Accuracy::WalkBudget(budget) => budget.max(1),
            // The planner never routes Exact here, but a forced override
            // gets the config's Hoeffding count rather than an error.
            Accuracy::Exact => {
                let eps = self.config.epsilon;
                ((2.0 / self.config.delta).ln() / (2.0 * eps * eps))
                    .ceil()
                    .max(1.0) as u64
            }
        }
    }
}

impl Backend for HayBatchBackend {
    fn name(&self) -> &'static str {
        "HAY"
    }

    fn capabilities(&self) -> QueryShapeSet {
        QueryShapeSet::EDGE_ONLY
    }

    fn answer(&self, plan: &Plan, streams: &StreamPlan) -> Result<Response, ServiceError> {
        check_capability(self, plan.shape)?;
        let g = self.context.graph();
        for item in &plan.items {
            self.context.check_pair(item.s, item.t)?;
            if !g.has_edge(item.s, item.t) {
                return Err(EstimatorError::NotAnEdge {
                    s: item.s,
                    t: item.t,
                }
                .into());
            }
        }
        if plan.items.is_empty() {
            return Ok(Response {
                values: Vec::new(),
                nodes: Vec::new(),
                backend: self.name(),
                cost: CostBreakdown::default(),
                shared_cost: CostBreakdown::default(),
                item_costs: Vec::new(),
                cache_hits: 0,
                backend_calls: 0,
                trivial_queries: 0,
            });
        }
        let trees = self.trees_for(plan.accuracy);
        // One RNG stream per tree, derived from the seed alone: the tree pool
        // is a pure function of (seed, trees), identical at any thread count.
        // The multi-root lockstep Wilson driver grows several trees of each
        // chunk concurrently while preserving every tree's stream-`i` draw
        // schedule, so the pool (and every value) is unchanged.
        let fan_seed = par::mix_seed(self.config.seed, 0x11a7);
        let (counts, walk_steps) = par::par_fold_ranges(
            trees,
            streams.threads,
            || (vec![0u64; plan.items.len()], 0u64),
            |chunk, acc: &mut (Vec<u64>, u64)| {
                sample_spanning_trees(g, 0, fan_seed, chunk, &mut |_, tree, steps| {
                    for (j, item) in plan.items.iter().enumerate() {
                        if tree.contains_edge(item.s, item.t) {
                            acc.0[j] += 1;
                        }
                    }
                    acc.1 += steps;
                })
            },
            |total, part| {
                for (t, p) in total.0.iter_mut().zip(part.0) {
                    *t += p;
                }
                total.1 += part.1;
            },
        );
        let values = counts.iter().map(|&c| c as f64 / trees as f64).collect();
        let cost = CostBreakdown {
            spanning_trees: trees,
            // True per-tree loop-erased-walk steps summed over the pool,
            // as reported by the lockstep driver (the per-query estimator
            // reports the same true count).
            walk_steps,
            ..CostBreakdown::default()
        };
        Ok(Response {
            values,
            nodes: Vec::new(),
            backend: self.name(),
            cost,
            // The tree pool is the whole cost and answers every edge at
            // once; no per-item work exists to attribute.
            shared_cost: cost,
            item_costs: vec![CostBreakdown::default(); plan.items.len()],
            cache_hits: 0,
            backend_calls: plan.items.len() as u64,
            trivial_queries: 0,
        })
    }
}

/// The column-based exact index answers every shape, one Laplacian solve
/// per source column through `r(s, t) = L†(s, s) + L†(t, t) − 2 L†(s, t)`.
/// Its queries take `&self` and its column cache is concurrent, so
/// source-shaped queries run in parallel across server workers.
impl Backend for ErIndex {
    fn name(&self) -> &'static str {
        "INDEX"
    }

    fn capabilities(&self) -> QueryShapeSet {
        QueryShapeSet::ALL
    }

    fn answer(&self, plan: &Plan, _streams: &StreamPlan) -> Result<Response, ServiceError> {
        check_capability(self, plan.shape)?;
        let solves_before = self.total_solves();
        let mut nodes = Vec::new();
        let values = match plan.shape {
            QueryShape::SingleSource => {
                self.single_source(plan.source.expect("single-source plan carries a source"))?
            }
            QueryShape::Diagonal => self.diagonal().to_vec(),
            QueryShape::TopK => {
                let source = plan.source.expect("top-k plan carries a source");
                let scored = self.nearest(source, plan.k)?;
                nodes = scored.iter().map(|&(v, _)| v).collect();
                scored.into_iter().map(|(_, r)| r).collect()
            }
            QueryShape::Pair | QueryShape::Batch | QueryShape::EdgeSet => plan
                .items
                .iter()
                .map(|item| self.resistance(item.s, item.t))
                .collect::<Result<_, _>>()?,
        };
        let cost = CostBreakdown {
            // The index's unit of work is the Laplacian solve; report the
            // solves observed during this plan (cached columns cost none;
            // under concurrent plans the attribution is approximate, as the
            // cache-state-dependent count always was).
            solver_iterations: self.total_solves() - solves_before,
            ..CostBreakdown::default()
        };
        Ok(Response {
            values,
            nodes,
            backend: self.name(),
            cost,
            // Column solves are shared across every item touching the
            // column (and future plans via the cache).
            shared_cost: cost,
            item_costs: vec![CostBreakdown::default(); plan.items.len()],
            cache_hits: 0,
            backend_calls: plan.items.len() as u64,
            trivial_queries: 0,
        })
    }
}

/// Landmark triangle-inequality bounds answer pair-shaped queries with the
/// bound midpoint in O(k) per pair — no solves, no walks — at the price of
/// only bounded (not ε-controlled) error.
impl Backend for LandmarkIndex {
    fn name(&self) -> &'static str {
        "LANDMARK"
    }

    fn capabilities(&self) -> QueryShapeSet {
        QueryShapeSet::PAIRWISE
    }

    fn answer(&self, plan: &Plan, _streams: &StreamPlan) -> Result<Response, ServiceError> {
        check_capability(self, plan.shape)?;
        let mut values = Vec::with_capacity(plan.items.len());
        for item in &plan.items {
            values.push(self.estimate(item.s, item.t)?);
        }
        Ok(Response {
            values,
            nodes: Vec::new(),
            backend: self.name(),
            cost: CostBreakdown::default(),
            shared_cost: CostBreakdown::default(),
            item_costs: vec![CostBreakdown::default(); plan.items.len()],
            cache_hits: 0,
            backend_calls: plan.items.len() as u64,
            trivial_queries: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::{Estimate, Exact, ResistanceEstimator};
    use er_graph::generators;

    fn ctx() -> GraphContext {
        let g = generators::social_network_like(120, 8.0, 3).unwrap();
        GraphContext::preprocess(&g).unwrap()
    }

    #[test]
    fn estimator_backend_is_thread_invariant_and_stream_driven() {
        #[derive(Clone)]
        struct Probe {
            stream: u64,
        }
        impl ResistanceEstimator for Probe {
            fn name(&self) -> &'static str {
                "PROBE"
            }
            fn estimate(&mut self, s: NodeId, t: NodeId) -> Result<Estimate, EstimatorError> {
                Ok(Estimate::with_value(
                    (s + t) as f64 + self.stream as f64 / 1e6,
                ))
            }
        }
        impl ForkableEstimator for Probe {
            fn fork(&self, stream: u64) -> Self {
                Probe { stream }
            }
        }
        let backend = EstimatorBackend::new(Probe { stream: 0 }, "PROBE", QueryShapeSet::PAIRWISE);
        let items = vec![
            PlanItem { s: 1, t: 2 },
            PlanItem { s: 3, t: 4 },
            PlanItem { s: 5, t: 6 },
        ];
        let plan = Plan::for_items(QueryShape::Batch, Accuracy::default(), items);
        let streams = StreamPlan {
            streams: vec![7, 0, 3],
            threads: 1,
        };
        let base = backend.answer(&plan, &streams).unwrap();
        assert_eq!(base.values[0], 3.0 + 7.0 / 1e6, "stream 7 served item 0");
        for threads in [2, 8] {
            let other = backend
                .answer(
                    &plan,
                    &StreamPlan {
                        streams: streams.streams.clone(),
                        threads,
                    },
                )
                .unwrap();
            assert_eq!(other.values, base.values);
        }
        // Shape checking happens before any work.
        let bad = Plan {
            shape: QueryShape::Diagonal,
            ..plan
        };
        assert!(matches!(
            backend.answer(&bad, &streams),
            Err(ServiceError::UnsupportedShape { .. })
        ));
    }

    #[test]
    fn geer_backend_matches_per_pair_forks_bit_for_bit_and_splits_cost() {
        let context = ctx();
        let config = ApproxConfig::with_epsilon(0.2).reseeded(7);
        let items = vec![
            PlanItem { s: 0, t: 60 },
            PlanItem { s: 0, t: 90 },
            PlanItem { s: 7, t: 60 },
            PlanItem { s: 4, t: 110 },
        ];
        let plan = Plan::for_items(QueryShape::Batch, Accuracy::default(), items);
        let streams = StreamPlan {
            streams: vec![11, 5, 900, 2],
            threads: 1,
        };
        let solo = EstimatorBackend::new(
            er_core::Geer::new(&context, config),
            "GEER",
            QueryShapeSet::PAIRWISE,
        )
        .answer(&plan, &streams)
        .unwrap();
        let backend = GeerBatch::new(&context, config);
        let base = backend.answer(&plan, &streams).unwrap();
        let solo_bits: Vec<u64> = solo.values.iter().map(|v| v.to_bits()).collect();
        let base_bits: Vec<u64> = base.values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(base_bits, solo_bits, "frontier sharing must not move bits");
        for threads in [2usize, 8] {
            let other = backend
                .answer(
                    &plan,
                    &StreamPlan {
                        streams: streams.streams.clone(),
                        threads,
                    },
                )
                .unwrap();
            let bits: Vec<u64> = other.values.iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits, solo_bits, "thread invariance at {threads}");
        }
        // Cost split: the shared SMM expansion is reported once, the AMC
        // tails per item, and the two components recombine into the full
        // cost. The tails are exactly the solo tails.
        assert!(base.shared_cost.matvec_ops > 0);
        assert_eq!(base.item_costs.len(), plan.items.len());
        let mut recombined = base.shared_cost;
        for item in &base.item_costs {
            recombined += *item;
        }
        assert_eq!(recombined, base.cost);
        let solo_walks: u64 = solo.item_costs.iter().map(|c| c.random_walks).sum();
        let batch_walks: u64 = base.item_costs.iter().map(|c| c.random_walks).sum();
        assert_eq!(batch_walks, solo_walks);
        // Two pairs share endpoint 0 and two share endpoint 60: the shared
        // expansion must undercut the per-pair SMM sum.
        assert!(base.shared_cost.matvec_ops < solo.cost.matvec_ops);
        // Shape checking happens before any work.
        let bad = Plan {
            shape: QueryShape::Diagonal,
            ..plan
        };
        assert!(matches!(
            backend.answer(&bad, &streams),
            Err(ServiceError::UnsupportedShape { .. })
        ));
    }

    #[test]
    fn hay_batch_matches_hoeffding_and_rejects_non_edges() {
        let context = ctx();
        let config = ApproxConfig::with_epsilon(0.2);
        let backend = HayBatchBackend::new(&context, config);
        assert_eq!(
            backend.trees_for(Accuracy::WalkBudget(50)),
            50,
            "budget maps to trees"
        );
        let hoeffding = backend.trees_for(Accuracy::Epsilon {
            eps: 0.2,
            delta: 0.01,
        });
        assert!(hoeffding > 1);

        let g = context.graph();
        let (s, t) = g.edges().next().unwrap();
        let plan = Plan::for_items(
            QueryShape::EdgeSet,
            Accuracy::Epsilon {
                eps: 0.2,
                delta: 0.01,
            },
            vec![PlanItem { s, t }],
        );
        let streams = StreamPlan::sequential(1, 1);
        let base = backend.answer(&plan, &streams).unwrap();
        assert!(base.values[0] > 0.0 && base.values[0] <= 1.0);
        assert_eq!(base.cost.spanning_trees, hoeffding);
        for threads in [2, 8] {
            let other = backend
                .answer(&plan, &StreamPlan::sequential(1, threads))
                .unwrap();
            assert_eq!(other.values, base.values, "thread invariance at {threads}");
        }

        // A non-edge in the set is rejected up front.
        let mut non_edge = (0, 1);
        'outer: for u in 0..g.num_nodes() {
            for v in (u + 1)..g.num_nodes() {
                if !g.has_edge(u, v) {
                    non_edge = (u, v);
                    break 'outer;
                }
            }
        }
        let bad = Plan::for_items(
            QueryShape::EdgeSet,
            Accuracy::default(),
            vec![PlanItem {
                s: non_edge.0,
                t: non_edge.1,
            }],
        );
        assert!(matches!(
            backend.answer(&bad, &streams),
            Err(ServiceError::Estimator(EstimatorError::NotAnEdge { .. }))
        ));
    }

    #[test]
    fn index_backend_inherits_capacity_and_warm_columns() {
        let context = ctx();
        let index = ErIndex::build(context.graph_arc().clone())
            .unwrap()
            .with_column_capacity(7);
        index.resistance(5, 40).unwrap(); // warms column 5
        let warm_solves = index.total_solves();
        // Reassembly from extracted parts (the dynamic service's carry)
        // keeps the capacity and the warm column without solving.
        let backend = ErIndex::from_parts(
            index.graph_arc().clone(),
            index.diagonal().to_vec(),
            index.column_capacity(),
            index.resident_columns(),
            warm_solves,
        );
        assert_eq!(backend.total_solves(), warm_solves, "no solves on handoff");
        assert_eq!(backend.column_capacity(), 7);
        let pair = backend
            .answer(
                &Plan::for_items(
                    QueryShape::Pair,
                    Accuracy::Exact,
                    vec![PlanItem { s: 5, t: 40 }],
                ),
                &StreamPlan::sequential(1, 1),
            )
            .unwrap();
        assert_eq!(
            backend.total_solves(),
            warm_solves,
            "a pre-warmed column must not be re-solved"
        );
        assert_eq!(pair.cost.solver_iterations, 0);
        assert_eq!(
            pair.values[0].to_bits(),
            index.resistance(5, 40).unwrap().to_bits()
        );
        // A cold column still solves exactly once.
        backend
            .answer(
                &Plan::for_items(
                    QueryShape::Pair,
                    Accuracy::Exact,
                    vec![PlanItem { s: 9, t: 40 }],
                ),
                &StreamPlan::sequential(1, 1),
            )
            .unwrap();
        assert_eq!(backend.total_solves(), warm_solves + 1);
    }

    #[test]
    fn index_backend_answers_every_shape_and_agrees_with_exact() {
        let context = ctx();
        let backend = ErIndex::build(context.graph_arc().clone()).unwrap();
        let mut exact = Exact::with_solver(&context);
        let streams = StreamPlan::sequential(0, 1);

        let row = backend
            .answer(
                &Plan {
                    shape: QueryShape::SingleSource,
                    accuracy: Accuracy::Exact,
                    items: vec![],
                    source: Some(5),
                    k: 0,
                },
                &streams,
            )
            .unwrap();
        assert_eq!(row.values.len(), context.graph().num_nodes());
        assert_eq!(row.values[5], 0.0);
        let direct = exact.estimate(5, 40).unwrap().value;
        assert!((row.values[40] - direct).abs() < 1e-6);

        let diag = backend
            .answer(
                &Plan {
                    shape: QueryShape::Diagonal,
                    accuracy: Accuracy::Exact,
                    items: vec![],
                    source: None,
                    k: 0,
                },
                &streams,
            )
            .unwrap();
        assert_eq!(diag.values.len(), context.graph().num_nodes());
        assert!(diag.values.iter().all(|&d| d > 0.0));

        let top = backend
            .answer(
                &Plan {
                    shape: QueryShape::TopK,
                    accuracy: Accuracy::Exact,
                    items: vec![],
                    source: Some(5),
                    k: 3,
                },
                &streams,
            )
            .unwrap();
        assert_eq!(top.nodes.len(), 3);
        assert_eq!(top.values.len(), 3);
        assert!(top.values.windows(2).all(|w| w[0] <= w[1]));

        let pair = backend
            .answer(
                &Plan::for_items(
                    QueryShape::Pair,
                    Accuracy::Exact,
                    vec![PlanItem { s: 5, t: 40 }],
                ),
                &streams,
            )
            .unwrap();
        assert!((pair.values[0] - direct).abs() < 1e-6);
        assert!(backend.total_solves() > 0);
    }
}
