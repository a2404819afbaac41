//! TP — the truncated-walk Monte Carlo baseline (Section 2.3.2 of the paper,
//! from Peng et al. \[49\]); the state-of-the-art competitor AMC improves on.
//!
//! TP evaluates the truncated series of Eq. (4) term by term: for every walk
//! length `i ∈ [1, ℓ]` (with Peng et al.'s pair-independent ℓ of Eq. 5) it
//! simulates a fresh batch of length-`i` walks from `s` and from `t` and uses
//! the empirical fractions ending at `s`/`t` as estimates of `p_i(·, ·)`.
//! The Chernoff–Hoeffding analysis of \[49\] requires
//! `40 ℓ² ln(8ℓ/δ) / ε²` walks *per length*, i.e. `Θ(ℓ³ log ℓ / ε²)` walks in
//! total — the sheer sample count that motivates AMC.
//!
//! Because the full budget is astronomically slow at small ε (exactly as the
//! paper reports: TP misses the one-day timeout on several datasets), the
//! implementation exposes a `sample_scale` multiplier and a walk budget so the
//! harness can run TP scaled-down and label the result accordingly. The
//! default is the faithful budget.

use crate::config::ApproxConfig;
use crate::context::GraphContext;
use crate::error::EstimatorError;
use crate::estimator::{CostBreakdown, Estimate, ResistanceEstimator};
use crate::length;
use er_graph::NodeId;
use er_walks::par;
use er_walks::truncated::walk_endpoint;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// The TP estimator.
#[derive(Clone)]
pub struct Tp {
    context: GraphContext,
    config: ApproxConfig,
    rng: StdRng,
    sample_scale: f64,
    walk_budget: Option<u64>,
}

impl Tp {
    /// Creates a TP estimator with the faithful sample budget of \[49\].
    pub fn new(context: &GraphContext, config: ApproxConfig) -> Self {
        Tp {
            context: context.clone(),
            config,
            rng: StdRng::seed_from_u64(config.seed ^ 0x0071),
            sample_scale: 1.0,
            walk_budget: None,
        }
    }

    /// Scales the per-length walk count by `scale` (< 1 trades accuracy for
    /// speed; the harness reports when this is used).
    pub fn with_sample_scale(mut self, scale: f64) -> Self {
        self.sample_scale = scale.max(0.0);
        self
    }

    /// Caps the total number of walks per query.
    pub fn with_walk_budget(mut self, budget: u64) -> Self {
        self.walk_budget = Some(budget);
        self
    }

    /// Peng et al.'s maximum walk length ℓ for the current ε.
    pub fn max_length(&self) -> usize {
        length::peng_length(self.config.epsilon, self.context.lambda())
    }

    /// Walks per length required by the Chernoff–Hoeffding analysis:
    /// `40 ℓ² ln(8ℓ/δ) / ε²`, scaled by `sample_scale`.
    pub fn walks_per_length(&self) -> u64 {
        let ell = self.max_length().max(1) as f64;
        let eps = self.config.epsilon;
        let raw = 40.0 * ell * ell * (8.0 * ell / self.config.delta).ln() / (eps * eps);
        (raw * self.sample_scale)
            .ceil()
            .max(1.0)
            .min(u64::MAX as f64) as u64
    }
}

impl ResistanceEstimator for Tp {
    fn name(&self) -> &'static str {
        "TP"
    }

    fn estimate(&mut self, s: NodeId, t: NodeId) -> Result<Estimate, EstimatorError> {
        self.config.validate()?;
        self.context.check_pair(s, t)?;
        if s == t {
            return Ok(Estimate::with_value(0.0));
        }
        let g = self.context.graph();
        let ds = g.degree(s) as f64;
        let dt = g.degree(t) as f64;
        let ell = self.max_length();
        let per_length = self.walks_per_length();
        let mut cost = CostBreakdown::default();
        // i = 0 term of Eq. (4): p_0(s,s) = p_0(t,t) = 1, p_0(s,t) = p_0(t,s) = 0.
        let mut value = 1.0 / ds + 1.0 / dt;
        for i in 1..=ell {
            // The per-length batch runs whole or not at all: a partial batch
            // would bias the empirical p_i estimates it feeds.
            if let Some(budget) = self.walk_budget {
                if cost
                    .random_walks
                    .saturating_add(per_length.saturating_mul(2))
                    > budget
                {
                    break;
                }
            }
            let fan_seed = self.rng.next_u64();
            // (hits_ss, hits_st, hits_tt, hits_ts) over the batch; each walk
            // pair k draws from its own (fan_seed, k) stream.
            let hits = par::par_fold_indexed(
                per_length,
                fan_seed,
                self.config.threads,
                || (0u64, 0u64, 0u64, 0u64),
                |_, walk_rng, acc| {
                    let end_s = walk_endpoint(g, s, i, walk_rng);
                    let end_t = walk_endpoint(g, t, i, walk_rng);
                    if end_s == s {
                        acc.0 += 1;
                    }
                    if end_s == t {
                        acc.1 += 1;
                    }
                    if end_t == t {
                        acc.2 += 1;
                    }
                    if end_t == s {
                        acc.3 += 1;
                    }
                },
                |total, part| {
                    total.0 += part.0;
                    total.1 += part.1;
                    total.2 += part.2;
                    total.3 += part.3;
                },
            );
            cost.random_walks += 2 * per_length;
            cost.walk_steps = cost
                .walk_steps
                .saturating_add(per_length.saturating_mul(2 * i as u64));
            let denom = per_length as f64;
            value += hits.0 as f64 / denom / ds + hits.2 as f64 / denom / dt
                - hits.1 as f64 / denom / dt
                - hits.3 as f64 / denom / ds;
        }
        Ok(Estimate { value, cost })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_graph::generators;
    use er_linalg::LaplacianSolver;

    #[test]
    fn walk_count_grows_cubically_with_length() {
        let g = generators::social_network_like(200, 8.0, 4).unwrap();
        let ctx = GraphContext::preprocess(&g).unwrap();
        let coarse = Tp::new(&ctx, ApproxConfig::with_epsilon(0.5));
        let fine = Tp::new(&ctx, ApproxConfig::with_epsilon(0.05));
        assert!(fine.max_length() > coarse.max_length());
        assert!(fine.walks_per_length() > coarse.walks_per_length());
        let scaled = Tp::new(&ctx, ApproxConfig::with_epsilon(0.5)).with_sample_scale(0.01);
        assert!(scaled.walks_per_length() < coarse.walks_per_length());
    }

    #[test]
    fn tp_is_accurate_on_a_fast_mixing_graph() {
        // K_15 mixes in one step so Peng's ell is tiny and the full budget is
        // affordable; TP must hit the epsilon target.
        let g = generators::complete(15).unwrap();
        let ctx = GraphContext::preprocess(&g).unwrap();
        let exact = LaplacianSolver::for_ground_truth(&g).effective_resistance(0, 7);
        let eps = 0.1;
        let mut tp = Tp::new(&ctx, ApproxConfig::with_epsilon(eps).reseeded(2));
        let est = tp.estimate(0, 7).unwrap();
        assert!(
            (est.value - exact).abs() <= eps,
            "tp {} vs exact {exact}",
            est.value
        );
        assert!(est.cost.random_walks > 0);
    }

    #[test]
    fn tp_uses_vastly_more_walks_than_amc() {
        // The Remark of Section 3.3.2: TP's walk count exceeds AMC's by at
        // least ~20ℓ on the same query.
        use crate::amc::Amc;
        let g = generators::social_network_like(300, 12.0, 15).unwrap();
        let ctx = GraphContext::preprocess(&g).unwrap();
        let cfg = ApproxConfig::with_epsilon(0.3).reseeded(4);
        let mut amc = Amc::new(&ctx, cfg);
        let amc_walks = amc.estimate(0, 150).unwrap().cost.random_walks;
        let tp = Tp::new(&ctx, cfg);
        let tp_walks = tp.walks_per_length() * tp.max_length() as u64 * 2;
        assert!(
            tp_walks > 10 * amc_walks.max(1),
            "tp {tp_walks} vs amc {amc_walks}"
        );
    }

    #[test]
    fn walk_budget_caps_the_run() {
        let g = generators::social_network_like(200, 8.0, 3).unwrap();
        let ctx = GraphContext::preprocess(&g).unwrap();
        let mut tp = Tp::new(&ctx, ApproxConfig::with_epsilon(0.2)).with_walk_budget(1_000);
        let est = tp.estimate(0, 100).unwrap();
        assert!(est.cost.random_walks <= 1_000);
        assert!(est.value.is_finite());
        assert_eq!(tp.estimate(5, 5).unwrap().value, 0.0);
    }
}
