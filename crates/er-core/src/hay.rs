//! HAY — spanning-tree sampling for *edge* effective resistance
//! (Hayashi, Akiba & Yoshida \[29\]; the edge-query baseline of Fig. 5/7).
//!
//! By the matrix-tree theorem, for an edge `(s, t) ∈ E` the effective
//! resistance equals the probability that the edge belongs to a uniformly
//! random spanning tree. HAY samples uniform spanning trees (here with
//! Wilson's algorithm) and returns the fraction containing the query edge.
//! A Hoeffding argument shows `ln(2/δ) / (2ε²)` trees suffice for an additive
//! ε-approximation with probability ≥ 1 − δ.

use crate::config::ApproxConfig;
use crate::context::GraphContext;
use crate::error::EstimatorError;
use crate::estimator::{CostBreakdown, Estimate, ResistanceEstimator};
use er_graph::NodeId;
use er_walks::par;
use er_walks::spanning::sample_spanning_trees;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// The HAY estimator (edge queries only).
#[derive(Clone)]
pub struct Hay {
    context: GraphContext,
    config: ApproxConfig,
    rng: StdRng,
    tree_budget: Option<u64>,
}

impl Hay {
    /// Creates a HAY estimator.
    pub fn new(context: &GraphContext, config: ApproxConfig) -> Self {
        Hay {
            context: context.clone(),
            config,
            rng: StdRng::seed_from_u64(config.seed ^ 0x11a7),
            tree_budget: None,
        }
    }

    /// Caps the number of spanning trees sampled per query.
    pub fn with_tree_budget(mut self, budget: u64) -> Self {
        self.tree_budget = Some(budget);
        self
    }

    /// Number of spanning trees the Hoeffding bound requires for an
    /// additive `epsilon` with probability at least `1 − delta`:
    /// `⌈ln(2/δ) / (2ε²)⌉`, at least 1.
    pub fn trees_required(epsilon: f64, delta: f64) -> u64 {
        ((2.0 / delta).ln() / (2.0 * epsilon * epsilon))
            .ceil()
            .max(1.0) as u64
    }
}

impl ResistanceEstimator for Hay {
    fn name(&self) -> &'static str {
        "HAY"
    }

    fn estimate(&mut self, s: NodeId, t: NodeId) -> Result<Estimate, EstimatorError> {
        self.config.validate()?;
        self.context.check_pair(s, t)?;
        if s == t {
            return Ok(Estimate::with_value(0.0));
        }
        let g = self.context.graph();
        if !g.has_edge(s, t) {
            return Err(EstimatorError::NotAnEdge { s, t });
        }
        let mut trees = Self::trees_required(self.config.epsilon, self.config.delta);
        match self.tree_budget {
            // One tree would answer 0 or 1 for the edge: refuse instead, as
            // AMC refuses a budget below its first batch.
            Some(0) => {
                return Err(EstimatorError::BudgetExceeded {
                    resource: "spanning trees",
                    message: format!(
                        "HAY needs at least one tree for ({s}, {t}) but the budget is 0"
                    ),
                })
            }
            Some(budget) => trees = trees.min(budget),
            None => {}
        }
        let mut cost = CostBreakdown::default();
        let fan_seed = self.rng.next_u64();
        // Chunked range fan-out with the multi-root lockstep Wilson driver:
        // tree `i` still draws from stream `(fan_seed, i)` exactly as the
        // old per-tree fan-out did, so the tree pool (and the estimate) is
        // bit-identical; several trees now grow per chunk in lockstep lanes.
        let (containing, walk_steps) = par::par_fold_ranges(
            trees,
            self.config.threads,
            || (0u64, 0u64),
            |chunk, acc: &mut (u64, u64)| {
                sample_spanning_trees(g, s, fan_seed, chunk, &mut |_, tree, steps| {
                    if tree.contains_edge(s, t) {
                        acc.0 += 1;
                    }
                    acc.1 += steps;
                })
            },
            |total, part| {
                total.0 += part.0;
                total.1 += part.1;
            },
        );
        cost.spanning_trees = trees;
        // True loop-erased-walk step count summed over the pool (the driver
        // reports it per tree), replacing the old `trees · (n − 1)` bound.
        cost.walk_steps = walk_steps;
        Ok(Estimate {
            value: containing as f64 / trees as f64,
            cost,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_graph::generators;
    use er_linalg::LaplacianSolver;

    #[test]
    fn rejects_non_edges_and_handles_self_queries() {
        let g = generators::cycle(7).unwrap();
        let ctx = GraphContext::preprocess(&g).unwrap();
        let mut hay = Hay::new(&ctx, ApproxConfig::with_epsilon(0.5));
        assert!(matches!(
            hay.estimate(0, 3),
            Err(EstimatorError::NotAnEdge { .. })
        ));
        assert_eq!(hay.estimate(2, 2).unwrap().value, 0.0);
    }

    #[test]
    fn tree_count_follows_hoeffding() {
        let delta = ApproxConfig::default().delta;
        let coarse = Hay::trees_required(0.5, delta);
        let fine = Hay::trees_required(0.05, delta);
        // 1/eps^2 scaling, up to the ceilings applied to both counts
        assert!(
            fine >= 90 * coarse && fine <= 100 * coarse,
            "trees scale with 1/eps^2: coarse {coarse} fine {fine}"
        );
    }

    #[test]
    fn hay_is_accurate_on_edges() {
        let g = generators::social_network_like(120, 8.0, 9).unwrap();
        let ctx = GraphContext::preprocess(&g).unwrap();
        let solver = LaplacianSolver::for_ground_truth(&g);
        let eps = 0.1;
        let mut hay = Hay::new(&ctx, ApproxConfig::with_epsilon(eps).reseeded(2));
        let mut checked = 0;
        for (s, t) in g.edges().step_by(97) {
            let exact = solver.effective_resistance(s, t);
            let est = hay.estimate(s, t).unwrap();
            assert!(
                (est.value - exact).abs() <= eps,
                "({s},{t}): hay {} vs exact {exact}",
                est.value
            );
            assert!(est.cost.spanning_trees > 0);
            checked += 1;
            if checked >= 3 {
                break;
            }
        }
        assert!(checked >= 3);
    }

    #[test]
    fn tree_budget_is_respected() {
        let g = generators::complete(40).unwrap();
        let ctx = GraphContext::preprocess(&g).unwrap();
        let mut hay = Hay::new(&ctx, ApproxConfig::with_epsilon(0.01)).with_tree_budget(25);
        let est = hay.estimate(0, 1).unwrap();
        assert_eq!(est.cost.spanning_trees, 25);
        assert!((0.0..=1.0).contains(&est.value));
        let mut none = Hay::new(&ctx, ApproxConfig::with_epsilon(0.01)).with_tree_budget(0);
        assert!(matches!(
            none.estimate(0, 1),
            Err(EstimatorError::BudgetExceeded { .. })
        ));
    }
}
