//! RP — the random-projection baseline of Spielman & Srivastava \[62\].
//!
//! RP preprocesses the graph into a `(24 ln n / ε²) × n` sketch (each row one
//! Laplacian solve); afterwards every pairwise query is `O(k)` work. The
//! preprocessing is `Õ(m/ε²)` time and `Θ(n log n / ε²)` memory, which is why
//! the paper reports RP running out of memory on Orkut, LiveJournal and
//! Friendster; the same failure mode is reproduced here with an entry budget.

use crate::config::ApproxConfig;
use crate::context::GraphContext;
use crate::error::EstimatorError;
use crate::estimator::{CostBreakdown, Estimate, ResistanceEstimator};
use er_graph::NodeId;
use er_linalg::sketch::ResistanceSketch;

/// The RP estimator.
#[derive(Clone)]
pub struct Rp {
    context: GraphContext,
    sketch: ResistanceSketch,
}

impl Rp {
    /// The multiplicative constant in the row-count formula (`24 ln n / ε²`).
    pub const ROW_SCALE: f64 = 24.0;

    /// Default cap on `k · n` sketch entries (mirrors the paper's
    /// out-of-memory exclusions at laptop scale).
    pub const DEFAULT_ENTRY_BUDGET: usize = 200_000_000;

    /// Builds the sketch, failing if it would exceed the default entry budget.
    pub fn new(context: &GraphContext, config: ApproxConfig) -> Result<Self, EstimatorError> {
        Self::with_entry_budget(context, config, Self::DEFAULT_ENTRY_BUDGET)
    }

    /// Builds the sketch with an explicit entry budget.
    pub fn with_entry_budget(
        context: &GraphContext,
        config: ApproxConfig,
        entry_budget: usize,
    ) -> Result<Self, EstimatorError> {
        config.validate()?;
        let sketch = ResistanceSketch::build_with_limit(
            context.graph(),
            config.epsilon,
            Self::ROW_SCALE,
            config.seed ^ 0x0090,
            entry_budget,
        )
        .map_err(|e| EstimatorError::BudgetExceeded {
            resource: "memory",
            message: e.to_string(),
        })?;
        Ok(Rp {
            context: context.clone(),
            sketch,
        })
    }

    /// Number of sketch rows built during preprocessing.
    pub fn num_rows(&self) -> usize {
        self.sketch.num_rows()
    }
}

impl ResistanceEstimator for Rp {
    fn name(&self) -> &'static str {
        "RP"
    }

    fn estimate(&mut self, s: NodeId, t: NodeId) -> Result<Estimate, EstimatorError> {
        self.context.check_pair(s, t)?;
        Ok(Estimate {
            value: self.sketch.query(s, t),
            cost: CostBreakdown::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_graph::generators;
    use er_linalg::LaplacianSolver;

    #[test]
    fn rp_reproduces_out_of_memory_failure() {
        let g = generators::social_network_like(500, 6.0, 2).unwrap();
        let ctx = GraphContext::preprocess(&g).unwrap();
        match Rp::with_entry_budget(&ctx, ApproxConfig::with_epsilon(0.01), 1_000) {
            Err(EstimatorError::BudgetExceeded { resource, .. }) => assert_eq!(resource, "memory"),
            other => panic!("expected BudgetExceeded, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn rp_approximates_er_within_multiplicative_error() {
        let g = generators::social_network_like(100, 10.0, 8).unwrap();
        let ctx = GraphContext::preprocess(&g).unwrap();
        let mut rp = Rp::new(&ctx, ApproxConfig::with_epsilon(0.3).reseeded(5)).unwrap();
        assert!(rp.num_rows() > 0);
        let solver = LaplacianSolver::for_ground_truth(&g);
        for &(s, t) in &[(0usize, 50usize), (7, 99), (30, 31)] {
            let exact = solver.effective_resistance(s, t);
            let approx = rp.estimate(s, t).unwrap().value;
            let rel = (approx - exact).abs() / exact.max(1e-12);
            assert!(rel < 0.45, "({s},{t}): exact {exact} approx {approx}");
        }
        assert_eq!(rp.estimate(9, 9).unwrap().value, 0.0);
    }
}
