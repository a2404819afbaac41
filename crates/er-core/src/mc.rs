//! MC — the commute-time / escape-probability Monte Carlo baseline
//! (Section 2.3.1 of the paper, from Peng et al. \[49\]).
//!
//! MC exploits the identity `Pr[walk from s hits t before returning to s]
//! = 1 / (d(s) · r(s, t))`: it runs η independent escape trials from `s`,
//! counts the η_r that reach `t` first, and returns
//! `r'(s, t) = η / (d(s) · η_r)`.
//!
//! Under the assumption `r(s, t) ≤ γ`, `η = 3 γ d(s) ln(1/δ) / ε²` trials give
//! an ε-approximation with probability ≥ 1 − δ. The walks are *not* truncated
//! (they wander the whole graph), which is why MC's running time grows with
//! `m` and why the paper's faster alternatives exist; a step cap keeps the
//! implementation total and is surfaced in the returned cost.

use crate::config::ApproxConfig;
use crate::context::GraphContext;
use crate::error::EstimatorError;
use crate::estimator::{CostBreakdown, Estimate, ResistanceEstimator};
use er_graph::NodeId;
use er_walks::hitting::escape_trials;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// The MC estimator.
#[derive(Clone)]
pub struct Mc {
    context: GraphContext,
    config: ApproxConfig,
    rng: StdRng,
    /// Upper bound γ on `r(s, t)` assumed when sizing the number of trials.
    gamma: f64,
    /// Per-walk step cap (safety net; `usize::MAX` disables it in spirit).
    max_steps_per_walk: usize,
    /// Optional cap on the total number of walks per query.
    walk_budget: Option<u64>,
}

impl Mc {
    /// Default step cap per escape walk.
    pub const DEFAULT_MAX_STEPS: usize = 50_000_000;

    /// Creates an MC estimator with the assumption `r(s, t) ≤ 1` (true for
    /// every edge query and for most pairs in the well-connected graphs the
    /// paper evaluates; callers can raise γ for long-path graphs).
    pub fn new(context: &GraphContext, config: ApproxConfig) -> Self {
        Mc {
            context: context.clone(),
            config,
            rng: StdRng::seed_from_u64(config.seed ^ 0x0c11),
            gamma: 1.0,
            max_steps_per_walk: Self::DEFAULT_MAX_STEPS,
            walk_budget: None,
        }
    }

    /// Sets the assumed upper bound γ on the queried resistance.
    pub fn with_gamma(mut self, gamma: f64) -> Self {
        self.gamma = gamma;
        self
    }

    /// Caps the total number of escape trials per query.
    pub fn with_walk_budget(mut self, budget: u64) -> Self {
        self.walk_budget = Some(budget);
        self
    }

    /// Number of escape trials the theory requires for a source of degree
    /// `d_s`: `3 γ d(s) ln(1/δ) / ε²`.
    pub fn trials_for_degree(&self, d_s: usize) -> u64 {
        let eps = self.config.epsilon;
        let raw = 3.0 * self.gamma * d_s as f64 * (1.0 / self.config.delta).ln() / (eps * eps);
        raw.ceil().max(1.0) as u64
    }
}

impl ResistanceEstimator for Mc {
    fn name(&self) -> &'static str {
        "MC"
    }

    fn estimate(&mut self, s: NodeId, t: NodeId) -> Result<Estimate, EstimatorError> {
        self.config.validate()?;
        self.context.check_pair(s, t)?;
        if s == t {
            return Ok(Estimate::with_value(0.0));
        }
        let g = self.context.graph();
        let mut trials = self.trials_for_degree(g.degree(s));
        if let Some(budget) = self.walk_budget {
            trials = trials.min(budget.max(1));
        }
        let mut cost = CostBreakdown::default();
        let fan_seed = self.rng.next_u64();
        // The escape trials run on the kernel's variable-length lockstep
        // lanes; trial i draws from stream (fan_seed, i) with exactly the
        // draw schedule of the old per-walk loop, so the port changed no
        // golden value (pinned by tests/determinism.rs).
        let tally = escape_trials(
            g,
            s,
            t,
            self.max_steps_per_walk,
            trials,
            fan_seed,
            self.config.threads,
        );
        let hits = tally.reached;
        cost.random_walks = trials;
        cost.walk_steps = tally.steps;
        // With zero hits the escape probability estimate is 0 and the
        // resistance estimate diverges; report the largest value consistent
        // with the assumption instead (the paper's analysis assumes r ≤ γ).
        let value = if hits == 0 {
            self.gamma
        } else {
            trials as f64 / (g.degree(s) as f64 * hits as f64)
        };
        Ok(Estimate { value, cost })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_graph::generators;
    use er_linalg::LaplacianSolver;

    #[test]
    fn trials_scale_with_degree_and_epsilon() {
        let g = generators::complete(20).unwrap();
        let ctx = GraphContext::preprocess(&g).unwrap();
        let coarse = Mc::new(&ctx, ApproxConfig::with_epsilon(0.5));
        let fine = Mc::new(&ctx, ApproxConfig::with_epsilon(0.05));
        assert!(fine.trials_for_degree(10) > 50 * coarse.trials_for_degree(10));
        assert!(coarse.trials_for_degree(20) == 2 * coarse.trials_for_degree(10));
    }

    #[test]
    fn mc_is_accurate_on_edge_of_dense_graph() {
        let g = generators::complete(12).unwrap();
        let ctx = GraphContext::preprocess(&g).unwrap();
        let exact = LaplacianSolver::for_ground_truth(&g).effective_resistance(0, 1);
        let mut mc = Mc::new(&ctx, ApproxConfig::with_epsilon(0.1).reseeded(3));
        let est = mc.estimate(0, 1).unwrap();
        assert!(
            (est.value - exact).abs() <= 0.1,
            "mc {} vs exact {exact}",
            est.value
        );
        assert!(est.cost.random_walks > 0);
        assert!(est.cost.walk_steps >= est.cost.random_walks);
    }

    #[test]
    fn mc_respects_walk_budget_and_self_query() {
        let g = generators::social_network_like(200, 8.0, 6).unwrap();
        let ctx = GraphContext::preprocess(&g).unwrap();
        let mut mc = Mc::new(&ctx, ApproxConfig::with_epsilon(0.02)).with_walk_budget(50);
        let est = mc.estimate(0, 100).unwrap();
        assert!(est.cost.random_walks <= 50);
        assert_eq!(mc.estimate(7, 7).unwrap().value, 0.0);
    }

    #[test]
    fn zero_hits_falls_back_to_gamma() {
        // On a long lollipop tail with a tiny budget the walk may never escape;
        // the estimator must not divide by zero.
        let g = generators::lollipop(30, 40).unwrap();
        let ctx = GraphContext::preprocess(&g).unwrap();
        let mut mc = Mc::new(&ctx, ApproxConfig::with_epsilon(0.5).reseeded(1))
            .with_gamma(5.0)
            .with_walk_budget(2);
        let est = mc.estimate(0, 69).unwrap();
        assert!(est.value <= 5.0 + 1e-12);
        assert!(est.value.is_finite());
    }
}
