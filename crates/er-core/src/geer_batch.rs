//! Batch-native GEER: one SMM frontier per *source*, shared by every pair
//! that touches it.
//!
//! Solo GEER (Algorithm 3, [`crate::Geer`]) pays two SMM power-iteration
//! sequences per pair — one from each endpoint — even when a batch contains
//! many pairs sharing an endpoint. But the frontier sequence
//! `e_u, P e_u, P² e_u, …` of an endpoint `u` is a pure function of the graph
//! and `u`: it does not depend on the partner node, on ε, or on anything
//! per-pair. [`GeerBatch`] exploits that by advancing one frontier lane per
//! distinct endpoint, in lockstep rounds, and letting every pair read the
//! lanes of its two endpoints.
//!
//! Per round `i` each unresolved pair
//!
//! 1. accumulates the series term of Eq. (4) from its two lanes (the same
//!    floating-point expression, in the same order, as
//!    [`smm::run_smm_until`]), and
//! 2. evaluates its private Eq. (17) switch rule from per-lane summaries:
//!    the next SpMV cost splits as [`smm::support_cost`] per lane (integer,
//!    exact) and ψ of Eq. (9) depends on the lanes only through their
//!    `max1`/`max2` extrema ([`amc::psi_bound_from_extrema`]).
//!
//! A pair that stops (or reaches its per-pair refined length ℓ) snapshots its
//! two lane vectors and later runs its AMC tail on an RNG forked from its
//! *pair-content-derived stream* — the identical seed derivation as
//! [`crate::Geer`]`::fork(stream)` followed by `estimate`. Every response is
//! therefore **bit-identical to its solo execution**; only the shared SMM
//! work (reported once in [`GeerBatchRun::shared_cost`]) shrinks, by roughly
//! ×(pairs per shared endpoint).

use crate::amc::{self, AmcParameters};
use crate::config::ApproxConfig;
use crate::context::GraphContext;
use crate::error::EstimatorError;
use crate::estimator::CostBreakdown;
use crate::length;
use crate::smm;
use er_graph::{Graph, NodeId};
use er_linalg::vector;
use er_walks::par;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;

/// Result of one batched GEER run over a slice of pairs.
#[derive(Clone, Debug)]
pub struct GeerBatchRun {
    /// `values[i]` is the GEER estimate for `pairs[i]`, bit-identical to the
    /// value a solo [`crate::Geer`] fork on the same stream would return.
    pub values: Vec<f64>,
    /// Per-pair *private* cost: the AMC tail of `pairs[i]` (walks and walk
    /// steps). The SMM prefix is shared and deliberately not attributed here.
    pub item_costs: Vec<CostBreakdown>,
    /// The shared SMM cost, counted **once** per frontier advance regardless
    /// of how many pairs read the frontier. `shared_cost + Σ item_costs` is
    /// the total work of the batch; for a single-pair batch it equals the
    /// solo estimator's cost exactly.
    pub shared_cost: CostBreakdown,
}

/// One per-endpoint frontier lane: the current iterate of `P^i e_node`, the
/// summaries the per-pair switch rule reads, and the snapshot cache handed to
/// resolving pairs.
struct Lane {
    vec: Vec<f64>,
    scratch: Vec<f64>,
    /// `Σ_{v ∈ supp(vec)} d(v)` — this lane's half of the Eq. (17) SpMV cost.
    step_cost: u64,
    max1: f64,
    max2: f64,
    /// Unresolved pair occurrences reading this lane; the lane stops
    /// advancing when it drops to zero.
    pending: usize,
    /// Ops of the most recent advance (summed into the shared cost in lane
    /// order after each parallel round).
    last_ops: u64,
    snap_round: usize,
    snap: Option<Arc<Vec<f64>>>,
}

impl Lane {
    fn new(graph: &Graph, node: NodeId) -> Lane {
        let n = graph.num_nodes();
        let mut vec = vec![0.0; n];
        vec[node] = 1.0;
        let mut lane = Lane {
            vec,
            scratch: vec![0.0; n],
            step_cost: 0,
            max1: 0.0,
            max2: 0.0,
            pending: 0,
            last_ops: 0,
            snap_round: usize::MAX,
            snap: None,
        };
        lane.refresh_summary(graph);
        lane
    }

    /// Recomputes the switch-rule summaries with the *same* `max1`/`max2`
    /// reductions [`amc::psi_bound`] applies to full vectors, so the batched
    /// ψ reproduces the solo float bits.
    fn refresh_summary(&mut self, graph: &Graph) {
        self.step_cost = smm::support_cost(graph, &self.vec);
        self.max1 = vector::max1(&self.vec);
        self.max2 = vector::max2(&self.vec);
    }

    /// One lockstep advance `vec ← P vec` (identical to the solo SMM loop's
    /// [`smm::transition_step`] on this endpoint's vector).
    fn advance(&mut self, graph: &Graph) {
        self.last_ops = smm::transition_step(graph, &self.vec, &mut self.scratch);
        std::mem::swap(&mut self.vec, &mut self.scratch);
        self.refresh_summary(graph);
        self.snap_round = usize::MAX;
        self.snap = None;
    }

    /// Releases one reader of this lane, which stops at `round`, and hands
    /// it the frontier as a shared snapshot: pairs resolving at the same
    /// round on this lane share one `Arc`, and a last reader that finds no
    /// snapshot of this round takes the vector instead of cloning it (the
    /// lane stops advancing once it has no reader).
    fn release(&mut self, round: usize) -> Arc<Vec<f64>> {
        self.pending -= 1;
        if self.snap_round != round || self.snap.is_none() {
            let frontier = if self.pending == 0 {
                std::mem::take(&mut self.vec)
            } else {
                self.vec.clone()
            };
            self.snap = Some(Arc::new(frontier));
            self.snap_round = round;
        }
        self.snap.clone().expect("snapshot populated above")
    }
}

/// A pair still iterating in the lockstep loop.
struct ActivePair {
    /// Index into the caller's `pairs` slice.
    idx: usize,
    s: NodeId,
    t: NodeId,
    si: usize,
    ti: usize,
    ell: usize,
    r_b: f64,
}

/// A pair whose switch point is fixed; its AMC tail still has to run.
struct ResolvedPair {
    idx: usize,
    s: NodeId,
    t: NodeId,
    stream: u64,
    r_b: f64,
    ell_f: usize,
    s_vec: Arc<Vec<f64>>,
    t_vec: Arc<Vec<f64>>,
}

/// The batched GEER driver. See the module docs for the algorithm; the
/// contract is that `run(pairs, streams, …).values[i]` carries exactly the
/// bits of `Geer::new(ctx, config).fork(streams[i]).estimate(pairs[i])`.
#[derive(Clone)]
pub struct GeerBatch {
    context: GraphContext,
    config: ApproxConfig,
    walk_budget: Option<u64>,
}

impl GeerBatch {
    /// Creates a batched driver with the greedy switch rule of Eq. (17).
    pub fn new(context: &GraphContext, config: ApproxConfig) -> Self {
        GeerBatch {
            context: context.clone(),
            config,
            walk_budget: None,
        }
    }

    /// Sets an optional per-pair walk budget forwarded to each AMC tail
    /// (mirrors [`crate::Geer::with_walk_budget`]).
    #[must_use]
    pub fn with_walk_budget(mut self, budget: u64) -> Self {
        self.walk_budget = Some(budget);
        self
    }

    /// Answers every pair of the batch. `streams[i]` is the RNG stream of
    /// `pairs[i]` (the service derives it from the pair content);
    /// `fanout_threads` drives the cross-pair parallelism (0 = all cores) and
    /// never changes values.
    pub fn run(
        &self,
        pairs: &[(NodeId, NodeId)],
        streams: &[u64],
        fanout_threads: usize,
    ) -> Result<GeerBatchRun, EstimatorError> {
        self.config.validate()?;
        if streams.len() != pairs.len() {
            return Err(EstimatorError::InvalidParameter {
                name: "streams",
                message: format!(
                    "need one RNG stream per pair, got {} streams for {} pairs",
                    streams.len(),
                    pairs.len()
                ),
            });
        }
        for &(s, t) in pairs {
            self.context.check_pair(s, t)?;
        }
        let n = self.context.graph().num_nodes();
        let mut run = GeerBatchRun {
            values: vec![0.0; pairs.len()],
            item_costs: vec![CostBreakdown::default(); pairs.len()],
            shared_cost: CostBreakdown::default(),
        };
        let workers = par::resolve_threads(fanout_threads).max(1);
        for chunk in plan_chunks(pairs, n, workers) {
            self.run_chunk(&chunk, pairs, streams, fanout_threads, &mut run);
        }
        Ok(run)
    }

    /// The lockstep frontier loop plus the AMC tail fan-out for one chunk of
    /// pair indices. Chunking bounds live frontier memory; it can only change
    /// *sharing* (each value is a pure function of its pair, stream and
    /// config), never values.
    fn run_chunk(
        &self,
        chunk: &[usize],
        pairs: &[(NodeId, NodeId)],
        streams: &[u64],
        fanout_threads: usize,
        out: &mut GeerBatchRun,
    ) {
        let g = self.context.graph();
        let n = g.num_nodes();
        let epsilon = self.config.epsilon;
        let delta = self.config.delta;
        let tau = self.config.tau.max(1);

        let mut lane_of: HashMap<NodeId, usize> = HashMap::new();
        let mut lanes: Vec<Lane> = Vec::new();
        let mut lane_index = |node: NodeId, lanes: &mut Vec<Lane>| -> usize {
            *lane_of.entry(node).or_insert_with(|| {
                lanes.push(Lane::new(g, node));
                lanes.len() - 1
            })
        };
        let mut active: Vec<ActivePair> = Vec::with_capacity(chunk.len());
        for &idx in chunk {
            let (s, t) = pairs[idx];
            debug_assert_ne!(s, t, "trivial pairs are filtered before chunking");
            let si = lane_index(s, &mut lanes);
            let ti = lane_index(t, &mut lanes);
            lanes[si].pending += 1;
            lanes[ti].pending += 1;
            active.push(ActivePair {
                idx,
                s,
                t,
                si,
                ti,
                ell: length::refined_length(
                    epsilon,
                    self.context.lambda(),
                    g.degree(s),
                    g.degree(t),
                ),
                r_b: 0.0,
            });
        }

        let mut resolved: Vec<ResolvedPair> = Vec::with_capacity(active.len());
        let mut round = 0usize;
        while !active.is_empty() {
            let mut still = Vec::with_capacity(active.len());
            for mut p in active.drain(..) {
                // Series term and switch test exactly as the solo loop: the
                // term for round i is accumulated first (run_smm_until adds
                // term 0 at init and one term after each iteration), then the
                // loop condition `i < ℓ && !stop(i, s*, t*)` decides whether
                // iteration i+1 runs.
                let (term, stop) = {
                    let ls = &lanes[p.si];
                    let lt = &lanes[p.ti];
                    let term = smm::series_term(g, p.s, p.t, &ls.vec, &lt.vec);
                    let stop = round >= p.ell || {
                        let spmv_cost = ls.step_cost + lt.step_cost;
                        let psi = amc::psi_bound_from_extrema(
                            ls.max1,
                            ls.max2,
                            lt.max1,
                            lt.max2,
                            n,
                            g.degree(p.s),
                            g.degree(p.t),
                            p.ell - round,
                        );
                        let eta = amc::eta_star(psi, epsilon, delta, tau);
                        // Step-denominated Eq. (17), identical to the solo
                        // switch in `Geer::run` so batching stays bit-exact.
                        spmv_cost > amc::total_walk_step_budget(eta, tau, p.ell - round)
                    };
                    (term, stop)
                };
                p.r_b += term;
                if stop {
                    let s_vec = lanes[p.si].release(round);
                    let t_vec = lanes[p.ti].release(round);
                    resolved.push(ResolvedPair {
                        idx: p.idx,
                        s: p.s,
                        t: p.t,
                        stream: streams[p.idx],
                        r_b: p.r_b,
                        ell_f: p.ell - round,
                        s_vec,
                        t_vec,
                    });
                } else {
                    still.push(p);
                }
            }
            active = still;
            if active.is_empty() {
                break;
            }
            round += 1;
            self.advance_lanes(&mut lanes, fanout_threads);
            out.shared_cost.matvec_ops += lanes
                .iter()
                .filter(|l| l.pending > 0)
                .map(|l| l.last_ops)
                .sum::<u64>();
        }

        // The tails read only the snapshots: free the lane buffers first.
        drop(lanes);
        // AMC tails: per-pair forks on the pair-content streams, exactly the
        // seed derivation of `Geer::fork` + `estimate`. The fan-out runs in
        // index order, so costs and values land deterministically.
        let tails = par::par_map_indexed(
            resolved.len() as u64,
            0, // streams come from the resolved pairs, not from this seed
            fanout_threads,
            |k, _| {
                let r = &resolved[k as usize];
                let mut rng =
                    StdRng::seed_from_u64(par::mix_seed(self.config.seed ^ 0x6eee, r.stream));
                let params = AmcParameters {
                    epsilon,
                    delta,
                    tau,
                    ell_f: r.ell_f,
                    walk_budget: self.walk_budget,
                    threads: self.config.threads,
                };
                let amc_out = amc::run_amc(g, r.s, r.t, &r.s_vec, &r.t_vec, &params, &mut rng);
                (r.r_b + amc_out.r_f, amc_out.cost)
            },
        );
        for (r, (value, cost)) in resolved.iter().zip(tails) {
            out.values[r.idx] = value;
            out.item_costs[r.idx] = cost;
        }
    }

    /// Advances every lane that still has pending readers, in parallel over
    /// lanes when it pays. Each lane's new iterate depends only on its own
    /// vector, so the split is value-deterministic.
    fn advance_lanes(&self, lanes: &mut [Lane], fanout_threads: usize) {
        let g = self.context.graph();
        let workers = par::resolve_threads(fanout_threads).max(1);
        if workers <= 1 || lanes.len() < 2 {
            for lane in lanes.iter_mut().filter(|l| l.pending > 0) {
                lane.advance(g);
            }
            return;
        }
        let chunk_size = lanes.len().div_ceil(workers);
        std::thread::scope(|scope| {
            for chunk in lanes.chunks_mut(chunk_size) {
                scope.spawn(move || {
                    for lane in chunk.iter_mut().filter(|l| l.pending > 0) {
                        lane.advance(g);
                    }
                });
            }
        });
    }
}

/// Upper bound on live frontier-sized vectors per chunk (each lane holds two,
/// each resolution snapshots up to two): keeps peak extra memory around
/// 64 MB of `f64`s regardless of graph size.
fn chunk_vector_budget(n: usize) -> usize {
    (8_000_000 / n.max(1)).clamp(16, 2048)
}

/// Groups non-trivial pair indices into memory-bounded chunks, keeping pairs
/// that share their most popular endpoint together so the lockstep loop can
/// actually share lanes. Trivial `s == t` pairs never appear in any chunk
/// (their value is 0 with zero cost, as in the solo estimator).
///
/// Pairs linked by shared endpoints (one component) stay adjacent. With one
/// worker a chunk holds one component: components share no lane, and on one
/// thread nothing runs across them, so holding several at once would only
/// raise the peak frontier memory, to a height set by how many unrelated
/// pairs a caller happened to batch. With more workers a chunk fills up to
/// the vector budget, so every round has lanes and tails for each thread.
fn plan_chunks(pairs: &[(NodeId, NodeId)], n: usize, workers: usize) -> Vec<Vec<usize>> {
    let mut frequency: HashMap<NodeId, usize> = HashMap::new();
    let mut touching: HashMap<NodeId, Vec<usize>> = HashMap::new();
    for (idx, &(s, t)) in pairs.iter().enumerate().filter(|&(_, &(s, t))| s != t) {
        *frequency.entry(s).or_insert(0) += 1;
        *frequency.entry(t).or_insert(0) += 1;
        touching.entry(s).or_default().push(idx);
        touching.entry(t).or_default().push(idx);
    }
    // Component of each non-trivial pair: a search over shared endpoints
    // that expands each endpoint once.
    let mut component = vec![usize::MAX; pairs.len()];
    let mut components = 0;
    for (start, &(s, t)) in pairs.iter().enumerate() {
        if s == t || component[start] != usize::MAX {
            continue;
        }
        component[start] = components;
        let mut stack = vec![start];
        while let Some(idx) = stack.pop() {
            let (s, t) = pairs[idx];
            for node in [s, t] {
                for next in touching.remove(&node).unwrap_or_default() {
                    if component[next] == usize::MAX {
                        component[next] = components;
                        stack.push(next);
                    }
                }
            }
        }
        components += 1;
    }
    // Bucket by anchor endpoint (the more frequent one; ties to the smaller
    // id) and visit popular anchors first, so heavily shared endpoints end up
    // co-resident.
    let mut buckets: HashMap<NodeId, Vec<usize>> = HashMap::new();
    for (idx, &(s, t)) in pairs.iter().enumerate() {
        if s == t {
            continue;
        }
        let (fs, ft) = (frequency[&s], frequency[&t]);
        let anchor = match fs.cmp(&ft) {
            std::cmp::Ordering::Greater => s,
            std::cmp::Ordering::Less => t,
            std::cmp::Ordering::Equal => s.min(t),
        };
        buckets.entry(anchor).or_default().push(idx);
    }
    let mut order: Vec<(NodeId, Vec<usize>)> = buckets.into_iter().collect();
    order.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(&b.0)));
    // Each component at the place of its most popular bucket (the sort is
    // stable, so buckets keep their order within a component).
    let mut first_at = vec![usize::MAX; components];
    for (at, (_, bucket)) in order.iter().enumerate() {
        let first = &mut first_at[component[bucket[0]]];
        *first = (*first).min(at);
    }
    order.sort_by_key(|(_, bucket)| first_at[component[bucket[0]]]);

    let budget = chunk_vector_budget(n);
    let mut chunks: Vec<Vec<usize>> = Vec::new();
    let mut current: Vec<usize> = Vec::new();
    let mut current_sources: std::collections::HashSet<NodeId> = std::collections::HashSet::new();
    for (_, bucket) in order {
        let other_component = current
            .first()
            .is_some_and(|&idx| component[idx] != component[bucket[0]]);
        if workers == 1 && other_component {
            current.sort_unstable();
            chunks.push(std::mem::take(&mut current));
            current_sources.clear();
        }
        for idx in bucket {
            let (s, t) = pairs[idx];
            current_sources.insert(s);
            current_sources.insert(t);
            current.push(idx);
            if 2 * current_sources.len() + 2 * current.len() >= budget {
                current.sort_unstable();
                chunks.push(std::mem::take(&mut current));
                current_sources.clear();
            }
        }
    }
    if !current.is_empty() {
        current.sort_unstable();
        chunks.push(current);
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::{ForkableEstimator, ResistanceEstimator};
    use crate::geer::Geer;
    use er_graph::generators;

    fn solo_bits(
        ctx: &GraphContext,
        config: ApproxConfig,
        pairs: &[(NodeId, NodeId)],
        streams: &[u64],
    ) -> (Vec<u64>, Vec<CostBreakdown>) {
        let proto = Geer::new(ctx, config);
        let mut bits = Vec::new();
        let mut costs = Vec::new();
        for (&(s, t), &stream) in pairs.iter().zip(streams) {
            let est = proto.fork(stream).estimate(s, t).unwrap();
            bits.push(est.value.to_bits());
            costs.push(est.cost);
        }
        (bits, costs)
    }

    fn shared_endpoint_pairs() -> Vec<(NodeId, NodeId)> {
        // A hub-heavy batch: endpoint 0 and 7 are shared across many pairs,
        // plus a self-pair, a duplicate and an isolated pair.
        vec![
            (0, 100),
            (0, 150),
            (0, 200),
            (7, 100),
            (7, 250),
            (33, 34),
            (42, 42),
            (0, 100),
            (250, 7),
        ]
    }

    #[test]
    fn batched_values_are_bit_identical_to_solo_forks_at_1_2_8_threads() {
        let g = generators::social_network_like(300, 10.0, 4).unwrap();
        let ctx = GraphContext::preprocess(&g).unwrap();
        let config = ApproxConfig::with_epsilon(0.2).reseeded(7);
        let pairs = shared_endpoint_pairs();
        let streams: Vec<u64> = (0..pairs.len() as u64)
            .map(|i| i.wrapping_mul(0x9e37))
            .collect();
        let (solo, solo_costs) = solo_bits(&ctx, config, &pairs, &streams);

        let batch = GeerBatch::new(&ctx, config);
        for threads in [1usize, 2, 8] {
            let run = batch.run(&pairs, &streams, threads).unwrap();
            let got: Vec<u64> = run.values.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, solo, "batched GEER diverged at {threads} threads");
            // Tails are private per pair and must match solo exactly; the SMM
            // prefix is shared, so the batch never does more matvec work than
            // the per-pair sum.
            let solo_walks: u64 = solo_costs.iter().map(|c| c.random_walks).sum();
            let batch_walks: u64 = run.item_costs.iter().map(|c| c.random_walks).sum();
            assert_eq!(batch_walks, solo_walks);
            let solo_matvec: u64 = solo_costs.iter().map(|c| c.matvec_ops).sum();
            assert!(run.shared_cost.matvec_ops <= solo_matvec);
            assert!(run.shared_cost.matvec_ops > 0);
        }
    }

    #[test]
    fn single_pair_batch_reproduces_the_solo_cost_exactly() {
        let g = generators::social_network_like(250, 8.0, 11).unwrap();
        let ctx = GraphContext::preprocess(&g).unwrap();
        let config = ApproxConfig::with_epsilon(0.1).reseeded(3);
        let est = Geer::new(&ctx, config).fork(99).estimate(5, 180).unwrap();
        let run = GeerBatch::new(&ctx, config)
            .run(&[(5, 180)], &[99], 1)
            .unwrap();
        assert_eq!(run.values[0].to_bits(), est.value.to_bits());
        let mut total = run.shared_cost;
        total += run.item_costs[0];
        assert_eq!(total, est.cost, "shared + item must equal the solo cost");
    }

    #[test]
    fn sharing_reduces_smm_work_on_a_hub_batch() {
        let g = generators::social_network_like(400, 10.0, 9).unwrap();
        let ctx = GraphContext::preprocess(&g).unwrap();
        let config = ApproxConfig::with_epsilon(0.05).reseeded(5);
        let pairs: Vec<(NodeId, NodeId)> = (1..=20).map(|t| (0, t * 17)).collect();
        let streams: Vec<u64> = (0..pairs.len() as u64).collect();
        let (_, solo_costs) = solo_bits(&ctx, config, &pairs, &streams);
        let run = GeerBatch::new(&ctx, config)
            .run(&pairs, &streams, 0)
            .unwrap();
        let solo_matvec: u64 = solo_costs.iter().map(|c| c.matvec_ops).sum();
        assert!(
            run.shared_cost.matvec_ops * 2 <= solo_matvec,
            "20 pairs on one hub must at least halve the SMM work \
             (shared {} vs solo {solo_matvec})",
            run.shared_cost.matvec_ops
        );
    }

    #[test]
    fn chunking_never_changes_values() {
        let g = generators::social_network_like(200, 8.0, 2).unwrap();
        let ctx = GraphContext::preprocess(&g).unwrap();
        let config = ApproxConfig::with_epsilon(0.3).reseeded(13);
        let pairs: Vec<(NodeId, NodeId)> = (0..30).map(|i| (i % 5, 50 + i)).collect();
        let streams: Vec<u64> = (0..pairs.len() as u64).map(|i| 1000 + i).collect();
        let whole = GeerBatch::new(&ctx, config)
            .run(&pairs, &streams, 2)
            .unwrap();
        // Tiny per-call batches (degenerate chunking) must agree bit for bit.
        let batch = GeerBatch::new(&ctx, config);
        for (i, &pair) in pairs.iter().enumerate() {
            let one = batch.run(&[pair], &[streams[i]], 1).unwrap();
            assert_eq!(
                one.values[0].to_bits(),
                whole.values[i].to_bits(),
                "pair {i}"
            );
        }
    }

    #[test]
    fn one_worker_holds_one_component_per_chunk() {
        // {0, 100, 150, 7} is one component through 100; (33, 34) shares
        // nothing; (5, 5) is trivial and never chunked.
        let pairs = [(0, 100), (33, 34), (7, 100), (5, 5), (0, 150)];
        assert_eq!(plan_chunks(&pairs, 1_000, 1), vec![vec![0, 2, 4], vec![1]]);
        assert_eq!(plan_chunks(&pairs, 1_000, 2), vec![vec![0, 1, 2, 4]]);
    }

    #[test]
    fn rejects_mismatched_streams_and_bad_nodes() {
        let g = generators::complete(8).unwrap();
        let ctx = GraphContext::preprocess(&g).unwrap();
        let batch = GeerBatch::new(&ctx, ApproxConfig::default());
        assert!(matches!(
            batch.run(&[(0, 1)], &[], 1),
            Err(EstimatorError::InvalidParameter { .. })
        ));
        assert!(batch.run(&[(0, 99)], &[0], 1).is_err());
        let empty = batch.run(&[], &[], 1).unwrap();
        assert!(empty.values.is_empty());
    }

    #[test]
    fn walk_budget_is_forwarded_to_every_tail() {
        let g = generators::social_network_like(200, 6.0, 2).unwrap();
        let ctx = GraphContext::with_lambda(&g, 0.9).unwrap();
        let config = ApproxConfig::with_epsilon(0.2).reseeded(1);
        let pairs = [(0usize, 100usize), (0, 150)];
        let streams = [4u64, 5];
        let est0 = Geer::new(&ctx, config)
            .with_walk_budget(5_000)
            .fork(4)
            .estimate(0, 100)
            .unwrap();
        let run = GeerBatch::new(&ctx, config)
            .with_walk_budget(5_000)
            .run(&pairs, &streams, 1)
            .unwrap();
        assert_eq!(run.values[0].to_bits(), est0.value.to_bits());
        for cost in &run.item_costs {
            assert!(cost.random_walks <= 5_000);
        }
    }
}
