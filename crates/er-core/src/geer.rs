//! GEER — Greedy Estimation of Effective Resistance (Algorithm 3 of the paper).
//!
//! GEER splits the truncated series of Eq. (4) at a switch point ℓ_b:
//! the prefix `r*_b` (hops 0..=ℓ_b) is computed exactly by SMM's sparse
//! matrix–vector iterations, and the tail `r*_f` (hops ℓ_b+1..=ℓ) is estimated
//! by AMC using the SMM frontier vectors `s*`, `t*` as walk weight vectors —
//! which is valid because the tail rewrites exactly as `q(s, t)` of Eq. (12)
//! with `ℓ_f = ℓ − ℓ_b`, `s = s*`, `t = t*` (Section 4.1.2).
//!
//! The switch point is chosen greedily (Eq. 17): keep iterating SMM while the
//! cost of the *next* iteration, `Σ_{v ∈ supp(s*)} d(v) + Σ_{v ∈ supp(t*)} d(v)`,
//! is at most the remaining Monte Carlo walk budget `h(ℓ − ℓ_b)`.

use crate::amc::{self, AmcParameters};
use crate::config::ApproxConfig;
use crate::context::GraphContext;
use crate::error::EstimatorError;
use crate::estimator::{CostBreakdown, Estimate, ResistanceEstimator};
use crate::length;
use crate::smm;
use er_graph::NodeId;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// How GEER chooses the SMM/AMC switch point ℓ_b.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwitchRule {
    /// The paper's greedy rule (Eq. 17) — the default.
    Greedy,
    /// A fixed ℓ_b (used by the Fig. 10 ablation, which sweeps ℓ*_b ± x).
    Fixed(usize),
    /// The greedy choice shifted by a signed offset (clamped to `0..=ℓ`); this
    /// is exactly the "ℓ*_b ± x" sweep of Fig. 10.
    GreedyOffset(isize),
}

/// Detailed trace of one GEER query, exposed for the parameter-study benches.
#[derive(Clone, Debug)]
pub struct GeerTrace {
    /// Maximum walk length ℓ from Eq. (6).
    pub ell: usize,
    /// Switch point ℓ_b actually used.
    pub ell_b: usize,
    /// Deterministic prefix `r_b(s, t)`.
    pub r_b: f64,
    /// Monte Carlo tail estimate `r_f(s, t)`.
    pub r_f: f64,
    /// Batches used by the embedded AMC run.
    pub amc_batches: usize,
    /// Whether AMC terminated early via the Bernstein condition.
    pub amc_terminated_early: bool,
    /// Work performed.
    pub cost: CostBreakdown,
}

impl GeerTrace {
    /// The final estimate `r'(s, t) = r_b + r_f`.
    pub fn value(&self) -> f64 {
        self.r_b + self.r_f
    }
}

/// The GEER estimator.
#[derive(Clone)]
pub struct Geer {
    context: GraphContext,
    config: ApproxConfig,
    rng: StdRng,
    switch_rule: SwitchRule,
    walk_budget: Option<u64>,
}

impl Geer {
    /// Creates a GEER estimator with the greedy switch rule of Eq. (17).
    pub fn new(context: &GraphContext, config: ApproxConfig) -> Self {
        Geer {
            context: context.clone(),
            config,
            rng: StdRng::seed_from_u64(config.seed ^ 0x6eee),
            switch_rule: SwitchRule::Greedy,
            walk_budget: None,
        }
    }

    /// Overrides the switch rule (Fig. 10 ablation).
    pub fn with_switch_rule(mut self, rule: SwitchRule) -> Self {
        self.switch_rule = rule;
        self
    }

    /// Sets an optional per-query walk budget forwarded to the embedded AMC.
    pub fn with_walk_budget(mut self, budget: u64) -> Self {
        self.walk_budget = Some(budget);
        self
    }

    /// Answers a query and returns the full trace.
    pub fn estimate_traced(&mut self, s: NodeId, t: NodeId) -> Result<GeerTrace, EstimatorError> {
        self.run(s, t, self.switch_rule)
    }

    fn run(&mut self, s: NodeId, t: NodeId, rule: SwitchRule) -> Result<GeerTrace, EstimatorError> {
        self.config.validate()?;
        self.context.check_pair(s, t)?;
        let g = self.context.graph();
        if s == t {
            return Ok(GeerTrace {
                ell: 0,
                ell_b: 0,
                r_b: 0.0,
                r_f: 0.0,
                amc_batches: 0,
                amc_terminated_early: true,
                cost: CostBreakdown::default(),
            });
        }
        let epsilon = self.config.epsilon;
        let delta = self.config.delta;
        let tau = self.config.tau.max(1);
        let ell = length::refined_length(epsilon, self.context.lambda(), g.degree(s), g.degree(t));

        // Resolve the switch rule into a stopping predicate for the SMM loop.
        let greedy_limit = match rule {
            SwitchRule::Greedy => ell,
            SwitchRule::GreedyOffset(_) => ell,
            SwitchRule::Fixed(b) => b.min(ell),
        };
        let use_greedy = !matches!(rule, SwitchRule::Fixed(_));
        let ds = g.degree(s);
        let dt = g.degree(t);
        let run = smm::run_smm_until(g, s, t, greedy_limit, |ell_b, s_star, t_star| {
            if !use_greedy {
                return false; // Fixed rule: run exactly `greedy_limit` iterations.
            }
            // Eq. (17): stop SMM once the next iteration's SpMV cost exceeds
            // the remaining Monte Carlo budget h(ℓ − ℓ_b) — both sides in
            // *operations*: SpMV ops against walk steps (2(ℓ − ℓ_b) row
            // loads per walk pair), not walk pairs.
            let spmv_cost = smm::next_iteration_cost(g, s_star, t_star);
            let remaining = ell - ell_b;
            let psi = amc::psi_bound(s_star, t_star, ds, dt, remaining);
            let eta = amc::eta_star(psi, epsilon, delta, tau);
            let walk_budget = amc::total_walk_step_budget(eta, tau, remaining);
            spmv_cost > walk_budget
        });

        // Apply the Fig. 10 offset by extending or rolling back the greedy
        // choice: rolling back is implemented by re-running SMM for fewer
        // iterations (cheap relative to the walks it replaces).
        let run = match rule {
            SwitchRule::GreedyOffset(offset) => {
                let target = (run.iterations as isize + offset).clamp(0, ell as isize) as usize;
                if target == run.iterations {
                    run
                } else {
                    smm::run_smm(g, s, t, target)
                }
            }
            _ => run,
        };

        let ell_b = run.iterations;
        let mut cost = run.cost;
        let remaining = ell.saturating_sub(ell_b);
        let mut params = AmcParameters {
            epsilon,
            delta,
            tau,
            ell_f: remaining,
            walk_budget: self.walk_budget,
            threads: self.config.threads,
        };
        if let Some(budget) = self.walk_budget {
            params.walk_budget = Some(budget.saturating_sub(cost.random_walks));
        }
        let amc_out = amc::run_amc(g, s, t, &run.s_star, &run.t_star, &params, &mut self.rng);
        cost += amc_out.cost;
        Ok(GeerTrace {
            ell,
            ell_b,
            r_b: run.r_b,
            r_f: amc_out.r_f,
            amc_batches: amc_out.batches_used,
            amc_terminated_early: amc_out.terminated_early,
            cost,
        })
    }
}

impl crate::estimator::ForkableEstimator for Geer {
    fn fork(&self, stream: u64) -> Self {
        let mut fork = self.clone();
        fork.rng =
            StdRng::seed_from_u64(er_walks::par::mix_seed(self.config.seed ^ 0x6eee, stream));
        fork
    }
}

impl ResistanceEstimator for Geer {
    fn name(&self) -> &'static str {
        "GEER"
    }

    fn estimate(&mut self, s: NodeId, t: NodeId) -> Result<Estimate, EstimatorError> {
        let trace = self.estimate_traced(s, t)?;
        Ok(Estimate {
            value: trace.value(),
            cost: trace.cost,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_graph::generators;
    use er_linalg::LaplacianSolver;

    #[test]
    fn geer_is_epsilon_accurate() {
        let g = generators::social_network_like(400, 16.0, 21).unwrap();
        let ctx = GraphContext::preprocess(&g).unwrap();
        let solver = LaplacianSolver::for_ground_truth(&g);
        for &eps in &[0.5, 0.2] {
            let mut geer = Geer::new(&ctx, ApproxConfig::with_epsilon(eps).reseeded(7));
            for &(s, t) in &[(0usize, 200usize), (13, 399), (100, 101)] {
                let est = geer.estimate(s, t).unwrap();
                let exact = solver.effective_resistance(s, t);
                assert!(
                    (est.value - exact).abs() <= eps,
                    "eps={eps} ({s},{t}): geer {} vs exact {exact}",
                    est.value
                );
            }
        }
    }

    #[test]
    fn geer_handles_identical_nodes_and_edge_pairs() {
        let g = generators::complete(20).unwrap();
        let ctx = GraphContext::preprocess(&g).unwrap();
        let mut geer = Geer::new(&ctx, ApproxConfig::with_epsilon(0.1));
        assert_eq!(geer.estimate(3, 3).unwrap().value, 0.0);
        let est = geer.estimate(0, 1).unwrap();
        assert!((est.value - 0.1).abs() <= 0.1, "K_20 edge ER is 2/20 = 0.1");
    }

    #[test]
    fn trace_is_consistent_with_estimate() {
        let g = generators::social_network_like(300, 10.0, 4).unwrap();
        let ctx = GraphContext::preprocess(&g).unwrap();
        let cfg = ApproxConfig::with_epsilon(0.2).reseeded(5);
        let trace = Geer::new(&ctx, cfg).estimate_traced(1, 200).unwrap();
        let est = Geer::new(&ctx, cfg).estimate(1, 200).unwrap();
        assert!((trace.value() - est.value).abs() < 1e-12);
        assert!(trace.ell_b <= trace.ell);
        assert_eq!(trace.cost, est.cost);
    }

    #[test]
    fn fixed_switch_rule_controls_smm_depth() {
        let g = generators::social_network_like(300, 10.0, 6).unwrap();
        let ctx = GraphContext::preprocess(&g).unwrap();
        let cfg = ApproxConfig::with_epsilon(0.2);
        let mut geer = Geer::new(&ctx, cfg).with_switch_rule(SwitchRule::Fixed(2));
        let trace = geer.estimate_traced(0, 150).unwrap();
        assert_eq!(trace.ell_b, 2.min(trace.ell));
        // Fixed(0) degenerates to pure AMC behaviour (prefix only has the hop-0 term).
        let mut pure = Geer::new(&ctx, cfg).with_switch_rule(SwitchRule::Fixed(0));
        let trace0 = pure.estimate_traced(0, 150).unwrap();
        assert_eq!(trace0.ell_b, 0);
        let g_ref = ctx.graph();
        let hop0 = 1.0 / g_ref.degree(0) as f64 + 1.0 / g_ref.degree(150) as f64;
        assert!((trace0.r_b - hop0).abs() < 1e-12);
    }

    #[test]
    fn greedy_offset_shifts_the_switch_point() {
        let g = generators::social_network_like(400, 12.0, 8).unwrap();
        let ctx = GraphContext::preprocess(&g).unwrap();
        let cfg = ApproxConfig::with_epsilon(0.1).reseeded(3);
        let base = Geer::new(&ctx, cfg).estimate_traced(2, 300).unwrap();
        let plus = Geer::new(&ctx, cfg)
            .with_switch_rule(SwitchRule::GreedyOffset(2))
            .estimate_traced(2, 300)
            .unwrap();
        let minus = Geer::new(&ctx, cfg)
            .with_switch_rule(SwitchRule::GreedyOffset(-2))
            .estimate_traced(2, 300)
            .unwrap();
        assert_eq!(plus.ell_b, (base.ell_b + 2).min(base.ell));
        assert_eq!(minus.ell_b, base.ell_b.saturating_sub(2));
    }

    #[test]
    fn geer_accuracy_matches_amc_but_with_fewer_walks() {
        // The headline claim: GEER keeps the guarantee while replacing most of
        // the random walks with cheap sparse matvecs. Compare the number of
        // walks on a mid-size graph.
        use crate::amc::Amc;
        let g = generators::social_network_like(500, 20.0, 13).unwrap();
        let ctx = GraphContext::preprocess(&g).unwrap();
        let cfg = ApproxConfig::with_epsilon(0.1).reseeded(17);
        let mut amc = Amc::new(&ctx, cfg);
        let mut geer = Geer::new(&ctx, cfg);
        let mut amc_walks = 0u64;
        let mut geer_walks = 0u64;
        for &(s, t) in &[(0usize, 250usize), (9, 499), (77, 78)] {
            amc_walks += amc.estimate(s, t).unwrap().cost.random_walks;
            geer_walks += geer.estimate(s, t).unwrap().cost.random_walks;
        }
        assert!(
            geer_walks < amc_walks,
            "GEER used {geer_walks} walks, AMC used {amc_walks}"
        );
    }
}
