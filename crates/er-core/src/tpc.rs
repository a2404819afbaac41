//! TPC — the collision-probability variant of TP (Section 2.3.2 of the paper,
//! from Peng et al. \[49\]).
//!
//! TPC writes `p_i(s, t)` as a collision probability of two independent
//! half-length walks: with `a = ⌈i/2⌉`, `b = ⌊i/2⌋`,
//! `p_i(s, t) = Σ_v p_a(s, v) · p_b(v, t) = Σ_v p_a(s, v) · p_b(t, v) · d(t)/d(v)`
//! (the last step uses reversibility `d(t) p_b(t, v) = d(v) p_b(v, t)`).
//! Sampling η endpoints from each side and counting weighted collisions gives
//! an unbiased estimate with far better variance than TP's direct endpoint
//! matching on well-mixing graphs.
//!
//! The sample-size formula of \[49\] involves a parameter βᵢ that must upper
//! bound `max{Σ_v p_i(s,v)²/d(v), Σ_v p_i(t,v)²/d(v)}` — a quantity that is
//! unknown in practice. The paper's experiments fall back to "heuristic
//! settings"; we do the same and document ours: βᵢ is estimated from a small
//! pilot batch of walks (biased upward by adding the stationary floor
//! `1/(2m)`), with no formal guarantee — exactly the caveat Section 5.1 states
//! for TPC.

use crate::config::ApproxConfig;
use crate::context::GraphContext;
use crate::error::EstimatorError;
use crate::estimator::{CostBreakdown, Estimate, ResistanceEstimator};
use crate::length;
use er_graph::{Graph, NodeId};
use er_walks::kernel::{self, ScratchPool, WalkKernel};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::sync::Arc;

/// Samples `eta` endpoints of length-`len` walks from `origin` into a count
/// multiset — `(node, count)` pairs sorted by node id — plus the steps taken,
/// fanning the walks out deterministically over the zero-allocation walk
/// kernel (walk `k` uses the `(fan_seed, k)` stream; counts merge
/// associatively, so the multiset is thread-count invariant). The pairs are
/// sorted on purpose: the pilot-β and collision estimates fold these counts
/// into floating-point sums, and ordered iteration keeps that rounding a pure
/// function of the seed.
fn sample_endpoints(
    graph: &Graph,
    origin: NodeId,
    len: usize,
    eta: u64,
    fan_seed: u64,
    threads: usize,
    pool: &ScratchPool,
) -> (Vec<(NodeId, u64)>, u64) {
    let walk_kernel = WalkKernel::new(graph);
    kernel::par_tally_sparse(eta, threads, pool, |range, scratch| {
        walk_kernel.batch_endpoints(origin, len, fan_seed, range, &mut |_, end, steps| {
            scratch.bump(end);
            scratch.add_steps(steps);
        });
    })
}

/// The TPC estimator.
#[derive(Clone)]
pub struct Tpc {
    context: GraphContext,
    config: ApproxConfig,
    rng: StdRng,
    sample_scale: f64,
    pilot_walks: u64,
    walk_budget: Option<u64>,
    /// Reusable endpoint-tally scratches, shared across clones and queries.
    scratch: Arc<ScratchPool>,
}

impl Tpc {
    /// Constant in the sample-size formula of \[49\] (`40000 × (…)`).
    pub const SAMPLE_CONSTANT: f64 = 40_000.0;

    /// Creates a TPC estimator with the heuristic βᵢ pilot estimation.
    pub fn new(context: &GraphContext, config: ApproxConfig) -> Self {
        let scratch = Arc::new(ScratchPool::new(context.graph().num_nodes()));
        Tpc {
            context: context.clone(),
            config,
            rng: StdRng::seed_from_u64(config.seed ^ 0x007c),
            sample_scale: 1.0,
            pilot_walks: 200,
            walk_budget: None,
            scratch,
        }
    }

    /// Scales the per-length walk count (the paper's formula is enormous; the
    /// harness documents any scaling it applies).
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

    /// Pilot estimate of βᵢ from `pilot_walks` endpoint samples of length
    /// `half` starting at `origin`: `Σ_v (count(v)/η)² / d(v)`, floored at the
    /// stationary value `1/(2m)`.
    fn beta_pilot(
        &mut self,
        graph: &Graph,
        origin: NodeId,
        half: usize,
        cost: &mut CostBreakdown,
    ) -> f64 {
        let eta = self.pilot_walks.max(1);
        let fan_seed = self.rng.next_u64();
        let (counts, steps) = sample_endpoints(
            graph,
            origin,
            half,
            eta,
            fan_seed,
            self.config.threads,
            &self.scratch,
        );
        cost.random_walks += eta;
        cost.walk_steps += steps;
        let mut beta = 0.0;
        for (v, c) in counts {
            let p = c as f64 / eta as f64;
            beta += p * p / graph.degree(v).max(1) as f64;
        }
        beta.max(1.0 / graph.num_directed_edges() as f64)
    }

    /// Walks per side for length `i`, using the formula of \[49\]:
    /// `40000 (ℓ √(ℓ βᵢ) / ε + ℓ³ βᵢ^{3/2} / ε²)`, scaled by `sample_scale`.
    pub fn walks_for_beta(&self, beta: f64) -> u64 {
        let ell = self.max_length().max(1) as f64;
        let eps = self.config.epsilon;
        let raw = Self::SAMPLE_CONSTANT
            * (ell * (ell * beta).sqrt() / eps + ell.powi(3) * beta.powf(1.5) / (eps * eps));
        (raw * self.sample_scale)
            .ceil()
            .max(1.0)
            .min(u64::MAX as f64) as u64
    }
}

impl ResistanceEstimator for Tpc {
    fn name(&self) -> &'static str {
        "TPC"
    }

    fn estimate(&mut self, s: NodeId, t: NodeId) -> Result<Estimate, EstimatorError> {
        self.config.validate()?;
        self.context.check_pair(s, t)?;
        if s == t {
            return Ok(Estimate::with_value(0.0));
        }
        // Hold the graph through a local Arc so `&mut self` stays available
        // for the RNG draws below.
        let graph = self.context.graph_arc().clone();
        let g = &*graph;
        let ds = g.degree(s) as f64;
        let dt = g.degree(t) as f64;
        let ell = self.max_length();
        let mut cost = CostBreakdown::default();
        // i = 0 term.
        let mut value = 1.0 / ds + 1.0 / dt;

        'outer: for i in 1..=ell {
            let a = i.div_ceil(2);
            let b = i / 2;
            let beta_s = self.beta_pilot(g, s, a.max(1), &mut cost);
            let beta_t = self.beta_pilot(g, t, a.max(1), &mut cost);
            let beta = beta_s.max(beta_t);
            let eta = self.walks_for_beta(beta);
            if let Some(budget) = self.walk_budget {
                if cost.random_walks.saturating_add(eta.saturating_mul(4)) > budget {
                    break 'outer;
                }
            }

            // Sample endpoint multisets for the four collision estimates.
            let threads = self.config.threads;
            let pool = Arc::clone(&self.scratch);
            let sample =
                |origin: NodeId, len: usize, rng: &mut StdRng, cost: &mut CostBreakdown| {
                    let fan_seed = rng.next_u64();
                    let (counts, steps) =
                        sample_endpoints(g, origin, len, eta, fan_seed, threads, &pool);
                    cost.random_walks += eta;
                    cost.walk_steps += steps;
                    counts
                };
            let from_s_a = sample(s, a, &mut self.rng, &mut cost);
            let from_s_b = sample(s, b, &mut self.rng, &mut cost);
            let from_t_a = sample(t, a, &mut self.rng, &mut cost);
            let from_t_b = sample(t, b, &mut self.rng, &mut cost);

            // p_i(x, y) ≈ Σ_v (count_x^a(v)/η) (count_y^b(v)/η) d(y)/d(v),
            // via a merge-join over the id-sorted multisets (ordered
            // iteration keeps the rounding a pure function of the seed).
            let collide = |xa: &[(NodeId, u64)], yb: &[(NodeId, u64)], d_y: f64| {
                let mut total = 0.0;
                let (mut i, mut j) = (0, 0);
                while i < xa.len() && j < yb.len() {
                    match xa[i].0.cmp(&yb[j].0) {
                        std::cmp::Ordering::Less => i += 1,
                        std::cmp::Ordering::Greater => j += 1,
                        std::cmp::Ordering::Equal => {
                            let v = xa[i].0;
                            total +=
                                (xa[i].1 as f64 / eta as f64) * (yb[j].1 as f64 / eta as f64) * d_y
                                    / g.degree(v) as f64;
                            i += 1;
                            j += 1;
                        }
                    }
                }
                total
            };
            let p_ss = collide(&from_s_a, &from_s_b, ds);
            let p_tt = collide(&from_t_a, &from_t_b, dt);
            let p_st = collide(&from_s_a, &from_t_b, dt);
            let p_ts = collide(&from_t_a, &from_s_b, ds);
            value += p_ss / ds + p_tt / dt - p_st / dt - p_ts / ds;
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
    fn sample_formula_matches_reference_values() {
        let g = generators::complete(30).unwrap();
        let ctx = GraphContext::preprocess(&g).unwrap();
        let tpc = Tpc::new(&ctx, ApproxConfig::with_epsilon(0.5));
        let small_beta = tpc.walks_for_beta(1e-4);
        let big_beta = tpc.walks_for_beta(1e-1);
        assert!(big_beta > small_beta, "larger beta needs more walks");
        let scaled = Tpc::new(&ctx, ApproxConfig::with_epsilon(0.5)).with_sample_scale(1e-3);
        assert!(scaled.walks_for_beta(1e-2) < tpc.walks_for_beta(1e-2));
    }

    #[test]
    fn tpc_estimates_er_on_fast_mixing_graph() {
        // Use a scaled-down budget: the estimator remains unbiased, so on the
        // one-step-mixing complete graph a modest sample already lands close.
        let g = generators::complete(15).unwrap();
        let ctx = GraphContext::preprocess(&g).unwrap();
        let exact = LaplacianSolver::for_ground_truth(&g).effective_resistance(0, 3);
        let mut tpc =
            Tpc::new(&ctx, ApproxConfig::with_epsilon(0.2).reseeded(6)).with_sample_scale(1e-3);
        let est = tpc.estimate(0, 3).unwrap();
        assert!(
            (est.value - exact).abs() <= 0.2,
            "tpc {} vs exact {exact}",
            est.value
        );
        assert!(est.cost.random_walks > 0);
    }

    #[test]
    fn tpc_meets_epsilon_on_a_non_regular_graph() {
        // The collision weight d(y)/d(v) is 1 on a regular graph, so only a
        // graph with spread-out degrees (hubs of degree 12–19 next to
        // degree-2 leaves here) shows whether it is the right way up.
        let g = generators::barabasi_albert(60, 2, 4).unwrap();
        let ctx = GraphContext::preprocess(&g).unwrap();
        let solver = LaplacianSolver::for_ground_truth(&g);
        let eps = 0.2;
        let mut tpc =
            Tpc::new(&ctx, ApproxConfig::with_epsilon(eps).reseeded(1)).with_sample_scale(1e-4);
        for &(s, t) in &[(0, 59), (1, 30), (2, 45), (10, 50), (20, 55), (3, 4)] {
            let exact = solver.effective_resistance(s, t);
            let est = tpc.estimate(s, t).unwrap().value;
            assert!(
                (est - exact).abs() <= eps,
                "({s}, {t}) with degrees ({}, {}): tpc {est} vs exact {exact}",
                g.degree(s),
                g.degree(t)
            );
        }
    }

    #[test]
    fn walk_budget_is_respected() {
        let g = generators::social_network_like(200, 8.0, 5).unwrap();
        let ctx = GraphContext::preprocess(&g).unwrap();
        let mut tpc = Tpc::new(&ctx, ApproxConfig::with_epsilon(0.1)).with_walk_budget(5_000);
        let est = tpc.estimate(0, 100).unwrap();
        assert!(
            est.cost.random_walks <= 5_000 + 2 * 200 + 4,
            "budget roughly respected"
        );
        assert!(est.value.is_finite());
        assert_eq!(tpc.estimate(4, 4).unwrap().value, 0.0);
    }
}
