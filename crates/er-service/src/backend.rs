//! The two serving algorithms that take more than one estimator call.
//!
//! [`ResistanceService`](crate::ResistanceService) answers GEER and INDEX by
//! calling `GeerBatch::run` or `ErIndex::resistance` directly. Every other
//! backend answers the distinct pairs of a request here:
//!
//! * [`forked`] — any [`ForkableEstimator`] (AMC, SMM, MC2, EXACT,
//!   EXACT-CG): pair `i` runs on an independent fork of the prototype on
//!   the pair's content-derived stream, so values are bit-identical at any
//!   thread count and in any batch.
//! * [`hay`] — batch-native HAY: one pool of uniform spanning trees scores
//!   *every* edge of the set at once, amortising the trees the per-query
//!   estimator would sample per edge.
//!
//! Both report GEER's batch shape, [`GeerBatchRun`]: values in pair order,
//! the cost paid once for the call and each pair's private cost.

use crate::query::Accuracy;
use er_core::{
    ApproxConfig, CostBreakdown, EstimatorError, ForkableEstimator, GeerBatchRun, GraphContext, Hay,
};
use er_graph::NodeId;
use er_walks::par;
use er_walks::spanning::sample_spanning_trees;

/// Answers `pairs[i]` with a fork of `prototype` on stream `streams[i]`,
/// fanned out over `threads` workers (0 = all cores). Forks share nothing,
/// so every unit of work is owned by exactly one pair.
pub(crate) fn forked<E: ForkableEstimator>(
    prototype: &E,
    pairs: &[(NodeId, NodeId)],
    streams: &[u64],
    threads: usize,
) -> Result<GeerBatchRun, EstimatorError> {
    debug_assert_eq!(pairs.len(), streams.len());
    let results = par::par_map_indexed(
        pairs.len() as u64,
        0, // streams come from the caller, not from this seed
        threads,
        |i, _| {
            let (s, t) = pairs[i as usize];
            prototype.fork(streams[i as usize]).estimate(s, t)
        },
    );
    let mut run = GeerBatchRun {
        values: Vec::with_capacity(results.len()),
        item_costs: Vec::with_capacity(results.len()),
        shared_cost: CostBreakdown::default(),
    };
    for result in results {
        // Results are in pair order, so the first error seen is the
        // earliest-pair error regardless of thread count.
        let estimate = result?;
        run.values.push(estimate.value);
        run.item_costs.push(estimate.cost);
    }
    Ok(run)
}

/// Number of spanning trees HAY samples: the Hoeffding count
/// [`Hay::trees_required`] for ε-targets, the budget itself for
/// [`Accuracy::WalkBudget`]. A budget of no tree is refused: a pool of one
/// tree would answer 0 or 1 for every edge.
fn hay_trees(accuracy: Accuracy, config: ApproxConfig) -> Result<u64, EstimatorError> {
    let (eps, delta) = match accuracy {
        Accuracy::Epsilon { eps, delta } => (eps, delta),
        Accuracy::WalkBudget(0) => {
            return Err(EstimatorError::BudgetExceeded {
                resource: "spanning trees",
                message: "HAY needs at least one tree but the budget is 0".into(),
            })
        }
        Accuracy::WalkBudget(budget) => return Ok(budget),
        // Exact never reaches HAY: the planner routes it to an exact
        // backend, and the service refuses a HAY override of it.
        Accuracy::Exact => (config.epsilon, config.delta),
    };
    Ok(Hay::trees_required(eps, delta))
}

/// Batch-native HAY: samples one pool of uniform spanning trees (Wilson's
/// algorithm) and scores every edge against the whole pool. The per-edge
/// estimate is the fraction of trees containing the edge, exactly as in the
/// per-query estimator, but `T` trees now answer `m` edges instead of one.
/// The pool is the whole cost and answers every edge at once, so it is
/// reported as shared cost and the per-edge costs are zero.
pub(crate) fn hay(
    context: &GraphContext,
    config: ApproxConfig,
    accuracy: Accuracy,
    edges: &[(NodeId, NodeId)],
    threads: usize,
) -> Result<GeerBatchRun, EstimatorError> {
    let g = context.graph();
    for &(s, t) in edges {
        context.check_pair(s, t)?;
        if !g.has_edge(s, t) {
            return Err(EstimatorError::NotAnEdge { s, t });
        }
    }
    let trees = hay_trees(accuracy, config)?;
    // One RNG stream per tree, derived from the seed alone: the tree pool
    // is a pure function of (seed, trees), identical at any thread count.
    // The multi-root lockstep Wilson driver grows several trees of each
    // chunk concurrently while preserving every tree's stream-`i` draw
    // schedule, so the pool (and every value) is unchanged.
    let fan_seed = par::mix_seed(config.seed, 0x11a7);
    let (counts, walk_steps) = par::par_fold_ranges(
        trees,
        threads,
        || (vec![0u64; edges.len()], 0u64),
        |chunk, acc: &mut (Vec<u64>, u64)| {
            sample_spanning_trees(g, 0, fan_seed, chunk, &mut |_, tree, steps| {
                for (j, &(s, t)) in edges.iter().enumerate() {
                    if tree.contains_edge(s, t) {
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
    Ok(GeerBatchRun {
        values: counts.iter().map(|&c| c as f64 / trees as f64).collect(),
        item_costs: vec![CostBreakdown::default(); edges.len()],
        shared_cost: CostBreakdown {
            spanning_trees: trees,
            // True per-tree loop-erased-walk steps summed over the pool, as
            // reported by the lockstep driver (the per-query estimator
            // reports the same true count).
            walk_steps,
            ..CostBreakdown::default()
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_core::{Estimate, GeerBatch, ResistanceEstimator};
    use er_graph::generators;

    fn ctx() -> GraphContext {
        let g = generators::social_network_like(120, 8.0, 3).unwrap();
        GraphContext::preprocess(&g).unwrap()
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn forked_answers_are_thread_invariant_and_stream_driven() {
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
        let pairs = [(1, 2), (3, 4), (5, 6)];
        let streams = [7, 0, 3];
        let base = forked(&Probe { stream: 0 }, &pairs, &streams, 1).unwrap();
        assert_eq!(base.values[0], 3.0 + 7.0 / 1e6, "stream 7 served pair 0");
        for threads in [2, 8] {
            let other = forked(&Probe { stream: 0 }, &pairs, &streams, threads).unwrap();
            assert_eq!(other.values, base.values);
        }
    }

    #[test]
    fn geer_batch_matches_per_pair_forks_bit_for_bit_and_splits_cost() {
        let context = ctx();
        let config = ApproxConfig::with_epsilon(0.2).reseeded(7);
        let pairs = [(0, 60), (0, 90), (7, 60), (4, 110)];
        let streams = [11, 5, 900, 2];
        let solo = forked(&er_core::Geer::new(&context, config), &pairs, &streams, 1).unwrap();
        let batch = GeerBatch::new(&context, config);
        let base = batch.run(&pairs, &streams, 1).unwrap();
        assert_eq!(
            bits(&base.values),
            bits(&solo.values),
            "frontier sharing must not move bits"
        );
        for threads in [2usize, 8] {
            let other = batch.run(&pairs, &streams, threads).unwrap();
            assert_eq!(
                bits(&other.values),
                bits(&solo.values),
                "thread invariance at {threads}"
            );
        }
        // Cost split: the shared SMM expansion is reported once, the AMC
        // tails per pair. The tails are exactly the solo tails.
        assert!(base.shared_cost.matvec_ops > 0);
        assert_eq!(base.item_costs.len(), pairs.len());
        let solo_walks: u64 = solo.item_costs.iter().map(|c| c.random_walks).sum();
        let batch_walks: u64 = base.item_costs.iter().map(|c| c.random_walks).sum();
        assert_eq!(batch_walks, solo_walks);
        // Two pairs share endpoint 0 and two share endpoint 60: the shared
        // expansion must undercut the per-pair SMM sum.
        let solo_matvecs: u64 = solo.item_costs.iter().map(|c| c.matvec_ops).sum();
        assert!(base.shared_cost.matvec_ops < solo_matvecs);
    }

    #[test]
    fn hay_matches_hoeffding_and_rejects_non_edges() {
        let context = ctx();
        let config = ApproxConfig::with_epsilon(0.2);
        assert_eq!(
            hay_trees(Accuracy::WalkBudget(50), config).unwrap(),
            50,
            "budget maps to trees"
        );
        let accuracy = Accuracy::Epsilon {
            eps: 0.2,
            delta: 0.01,
        };
        let hoeffding = Hay::trees_required(0.2, 0.01);
        assert!(hoeffding > 1);

        let g = context.graph();
        let edge = [g.edges().next().unwrap()];
        let base = hay(&context, config, accuracy, &edge, 1).unwrap();
        assert!(base.values[0] > 0.0 && base.values[0] <= 1.0);
        assert_eq!(base.shared_cost.spanning_trees, hoeffding);
        for threads in [2, 8] {
            let other = hay(&context, config, accuracy, &edge, threads).unwrap();
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
        assert!(matches!(
            hay(&context, config, Accuracy::default(), &[non_edge], 1),
            Err(EstimatorError::NotAnEdge { .. })
        ));
    }
}
