//! MC2 — the first-visit-via-edge Monte Carlo baseline for *edge* queries
//! (Section 2.3.1 of the paper, from Peng et al. \[49\]).
//!
//! For `(s, t) ∈ E`, `r(s, t)` equals the probability that a random walk
//! started at `s` makes its first visit to `t` over the edge `(s, t)` itself.
//! MC2 estimates that probability directly from first-hit trials. Under the
//! assumption `r(s, t) > γ`, `3 ln(1/δ) / (ε² γ)` trials suffice; with the
//! universal lower bound `r(s, t) ≥ 1/(2m)` for edges, the worst-case trial
//! count is `6 m ln(1/δ) / ε²` — which is why the paper reports MC2 as slow on
//! large graphs despite its simplicity.

use crate::config::ApproxConfig;
use crate::context::GraphContext;
use crate::error::EstimatorError;
use crate::estimator::{CostBreakdown, Estimate, ResistanceEstimator};
use er_graph::NodeId;
use er_walks::hitting::first_hit_trials;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// The MC2 estimator (edge queries only).
#[derive(Clone)]
pub struct Mc2 {
    context: GraphContext,
    config: ApproxConfig,
    rng: StdRng,
    /// Assumed lower bound γ on the queried resistance; `None` uses the
    /// universal bound `1/(2m)`.
    gamma_lower: Option<f64>,
    max_steps_per_walk: usize,
    walk_budget: Option<u64>,
}

impl Mc2 {
    /// Default step cap per first-hit walk.
    pub const DEFAULT_MAX_STEPS: usize = 50_000_000;

    /// Creates an MC2 estimator with the universal `r ≥ 1/(2m)` lower bound.
    pub fn new(context: &GraphContext, config: ApproxConfig) -> Self {
        Mc2 {
            context: context.clone(),
            config,
            rng: StdRng::seed_from_u64(config.seed ^ 0x0c22),
            gamma_lower: None,
            max_steps_per_walk: Self::DEFAULT_MAX_STEPS,
            walk_budget: None,
        }
    }

    /// Sets a stronger assumed lower bound γ on `r(s, t)`, reducing the trial
    /// count from the worst case `6 m ln(1/δ)/ε²` to `3 ln(1/δ)/(ε² γ)`.
    pub fn with_gamma_lower(mut self, gamma: f64) -> Self {
        self.gamma_lower = Some(gamma);
        self
    }

    /// Caps the number of first-hit trials per query.
    pub fn with_walk_budget(mut self, budget: u64) -> Self {
        self.walk_budget = Some(budget);
        self
    }

    /// Number of trials the theory requires.
    pub fn trials(&self) -> u64 {
        let m = self.context.graph().num_edges() as f64;
        let gamma = self.gamma_lower.unwrap_or(1.0 / (2.0 * m)).max(1e-300);
        let eps = self.config.epsilon;
        let raw = 3.0 * (1.0 / self.config.delta).ln() / (eps * eps * gamma);
        raw.ceil().max(1.0).min(u64::MAX as f64) as u64
    }
}

impl crate::estimator::ForkableEstimator for Mc2 {
    fn fork(&self, stream: u64) -> Self {
        let mut fork = self.clone();
        fork.rng =
            StdRng::seed_from_u64(er_walks::par::mix_seed(self.config.seed ^ 0x0c22, stream));
        fork
    }
}

impl ResistanceEstimator for Mc2 {
    fn name(&self) -> &'static str {
        "MC2"
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
        let mut trials = self.trials();
        match self.walk_budget {
            // One trial would answer 0 or 1 for the edge: refuse instead,
            // as AMC refuses a budget below its first batch.
            Some(0) => {
                return Err(EstimatorError::BudgetExceeded {
                    resource: "random walks",
                    message: format!(
                        "MC2 needs at least one trial for ({s}, {t}) but the budget is 0"
                    ),
                })
            }
            Some(budget) => trials = trials.min(budget),
            None => {}
        }
        let mut cost = CostBreakdown::default();
        let fan_seed = self.rng.next_u64();
        // First-hit trials run on the kernel's variable-length lockstep
        // lanes with the old per-walk draw schedule — golden values
        // unchanged by the port (pinned by tests/determinism.rs).
        let tally = first_hit_trials(
            g,
            s,
            t,
            self.max_steps_per_walk,
            trials,
            fan_seed,
            self.config.threads,
        );
        let direct = tally.via_edge;
        cost.random_walks = trials;
        cost.walk_steps = tally.steps;
        Ok(Estimate {
            value: direct as f64 / trials as f64,
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
    fn rejects_non_edge_queries() {
        let g = generators::cycle(9).unwrap();
        let ctx = GraphContext::preprocess(&g).unwrap();
        let mut mc2 = Mc2::new(&ctx, ApproxConfig::with_epsilon(0.5));
        assert!(matches!(
            mc2.estimate(0, 4),
            Err(EstimatorError::NotAnEdge { s: 0, t: 4 })
        ));
        assert!(mc2.estimate(0, 1).is_ok());
        assert_eq!(mc2.estimate(3, 3).unwrap().value, 0.0);
    }

    #[test]
    fn worst_case_trials_scale_with_edge_count() {
        let small = generators::complete(10).unwrap();
        let big = generators::complete(30).unwrap();
        let ctx_small = GraphContext::preprocess(&small).unwrap();
        let ctx_big = GraphContext::preprocess(&big).unwrap();
        let cfg = ApproxConfig::with_epsilon(0.5);
        let t_small = Mc2::new(&ctx_small, cfg).trials();
        let t_big = Mc2::new(&ctx_big, cfg).trials();
        assert!(t_big > 5 * t_small);
        // a user-supplied gamma shrinks the requirement
        let with_gamma = Mc2::new(&ctx_big, cfg).with_gamma_lower(0.05).trials();
        assert!(with_gamma < t_big);
    }

    #[test]
    fn mc2_is_accurate_on_triangle_edge() {
        let g = generators::complete(3).unwrap();
        let ctx = GraphContext::preprocess(&g).unwrap();
        let exact = LaplacianSolver::for_ground_truth(&g).effective_resistance(0, 1);
        let mut mc2 = Mc2::new(&ctx, ApproxConfig::with_epsilon(0.05).reseeded(9));
        let est = mc2.estimate(0, 1).unwrap();
        assert!(
            (est.value - exact).abs() <= 0.05,
            "mc2 {} vs exact {exact}",
            est.value
        );
    }

    #[test]
    fn mc2_with_budget_still_returns_probability() {
        let g = generators::social_network_like(300, 10.0, 2).unwrap();
        let ctx = GraphContext::preprocess(&g).unwrap();
        let (s, t) = g.edges().next().unwrap();
        let mut mc2 = Mc2::new(&ctx, ApproxConfig::with_epsilon(0.01)).with_walk_budget(200);
        let est = mc2.estimate(s, t).unwrap();
        assert!(est.cost.random_walks <= 200);
        assert!((0.0..=1.0).contains(&est.value));
        let mut none = Mc2::new(&ctx, ApproxConfig::with_epsilon(0.01)).with_walk_budget(0);
        assert!(matches!(
            none.estimate(s, t),
            Err(EstimatorError::BudgetExceeded { .. })
        ));
    }
}
