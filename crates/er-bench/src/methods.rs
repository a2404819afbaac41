//! Estimator construction for the harness.
//!
//! Maps the method names the paper uses in its figures to concrete estimator
//! instances, applying the same exclusion rules as Section 5: EXACT and RP are
//! reported "out of memory" past their size budgets, and the Monte Carlo
//! heavyweights (TP, TPC, MC, MC2) accept a walk budget derived from the
//! harness time budget so a single query cannot run unbounded.

use er_core::{
    Amc, ApproxConfig, EstimatorError, Exact, Geer, GraphContext, Hay, Mc, Mc2,
    ResistanceEstimator, Rp, Smm, Tp, Tpc,
};

/// The methods evaluated in the paper's figures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MethodKind {
    /// GEER (Algorithm 3) — the paper's main proposal.
    Geer,
    /// AMC (Algorithm 1) — the paper's first-cut proposal.
    Amc,
    /// SMM (Algorithm 2) with the refined length of Eq. (6).
    Smm,
    /// SMM with Peng et al.'s length of Eq. (5) (Fig. 11 only).
    SmmPengLength,
    /// TP from \[49\].
    Tp,
    /// TPC from \[49\].
    Tpc,
    /// RP, the random-projection method of \[62\].
    Rp,
    /// EXACT pseudo-inverse baseline.
    Exact,
    /// MC from \[49\] (commute-time / escape-probability sampling).
    Mc,
    /// MC2 from \[49\] (edge queries only).
    Mc2,
    /// HAY from \[29\] (edge queries only, spanning-tree sampling).
    Hay,
}

impl MethodKind {
    /// The label used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            MethodKind::Geer => "GEER",
            MethodKind::Amc => "AMC",
            MethodKind::Smm => "SMM",
            MethodKind::SmmPengLength => "SMM-PengL",
            MethodKind::Tp => "TP",
            MethodKind::Tpc => "TPC",
            MethodKind::Rp => "RP",
            MethodKind::Exact => "EXACT",
            MethodKind::Mc => "MC",
            MethodKind::Mc2 => "MC2",
            MethodKind::Hay => "HAY",
        }
    }

    /// The methods compared on random pairwise queries (Fig. 4 / Fig. 6).
    pub fn random_query_lineup() -> Vec<MethodKind> {
        vec![
            MethodKind::Geer,
            MethodKind::Amc,
            MethodKind::Smm,
            MethodKind::Tp,
            MethodKind::Tpc,
            MethodKind::Rp,
            MethodKind::Exact,
        ]
    }

    /// The methods compared on edge queries (Fig. 5 / Fig. 7).
    pub fn edge_query_lineup() -> Vec<MethodKind> {
        vec![
            MethodKind::Geer,
            MethodKind::Amc,
            MethodKind::Smm,
            MethodKind::Mc2,
            MethodKind::Hay,
        ]
    }

    /// Whether the method only supports `(s, t) ∈ E` queries.
    pub fn edge_only(&self) -> bool {
        matches!(self, MethodKind::Mc2 | MethodKind::Hay)
    }

    /// Builds an estimator instance for this method.
    ///
    /// `walk_budget` caps the number of walks (or spanning trees) a single
    /// query may consume; it stands in for the paper's one-day timeout so that
    /// TP/TPC/MC2 terminate on every graph. Methods that fail to build
    /// (EXACT / RP beyond their memory budgets) return the error so the caller
    /// can record the exclusion, exactly as the paper's figures omit those
    /// bars.
    pub fn build(
        &self,
        ctx: &GraphContext,
        config: ApproxConfig,
        walk_budget: Option<u64>,
    ) -> Result<Box<dyn ResistanceEstimator>, EstimatorError> {
        Ok(match self {
            MethodKind::Geer => {
                let mut est = Geer::new(ctx, config);
                if let Some(b) = walk_budget {
                    est = est.with_walk_budget(b);
                }
                Box::new(est)
            }
            MethodKind::Amc => {
                let mut est = Amc::new(ctx, config);
                if let Some(b) = walk_budget {
                    est = est.with_walk_budget(b);
                }
                Box::new(est)
            }
            MethodKind::Smm => Box::new(Smm::new(ctx, config)),
            MethodKind::SmmPengLength => Box::new(Smm::with_peng_length(ctx, config)),
            MethodKind::Tp => {
                let mut est = Tp::new(ctx, config);
                if let Some(b) = walk_budget {
                    est = est.with_walk_budget(b);
                }
                Box::new(est)
            }
            MethodKind::Tpc => {
                let mut est = Tpc::new(ctx, config);
                if let Some(b) = walk_budget {
                    est = est.with_walk_budget(b);
                }
                Box::new(est)
            }
            // RP's preprocessing builds a (24 ln n / eps^2) x n dense sketch
            // with one Laplacian solve per row; a 10M-entry budget keeps that
            // preprocessing to seconds at harness scale and reproduces the
            // paper's out-of-memory exclusions at the smaller epsilons.
            MethodKind::Rp => Box::new(Rp::with_entry_budget(ctx, config, 10_000_000)?),
            MethodKind::Exact => Box::new(Exact::new(ctx)?),
            MethodKind::Mc => {
                let mut est = Mc::new(ctx, config);
                if let Some(b) = walk_budget {
                    est = est.with_walk_budget(b);
                }
                Box::new(est)
            }
            MethodKind::Mc2 => {
                let mut est = Mc2::new(ctx, config);
                if let Some(b) = walk_budget {
                    est = est.with_walk_budget(b);
                }
                Box::new(est)
            }
            MethodKind::Hay => {
                let mut est = Hay::new(ctx, config);
                if let Some(b) = walk_budget {
                    est = est.with_tree_budget(b);
                }
                Box::new(est)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_graph::generators;

    #[test]
    fn lineups_match_the_figures() {
        let random = MethodKind::random_query_lineup();
        assert_eq!(random.len(), 7);
        assert_eq!(random[0], MethodKind::Geer);
        assert!(random.contains(&MethodKind::Exact));
        let edge = MethodKind::edge_query_lineup();
        assert_eq!(edge.len(), 5);
        assert!(edge.contains(&MethodKind::Hay));
        assert!(MethodKind::Hay.edge_only());
        assert!(!MethodKind::Geer.edge_only());
    }

    #[test]
    fn every_method_builds_and_answers_an_edge_query() {
        let g = generators::social_network_like(300, 12.0, 7).unwrap();
        let ctx = GraphContext::preprocess(&g).unwrap();
        let cfg = ApproxConfig::with_epsilon(0.5);
        let (s, t) = g.edges().next().unwrap();
        let all = [
            MethodKind::Geer,
            MethodKind::Amc,
            MethodKind::Smm,
            MethodKind::SmmPengLength,
            MethodKind::Tp,
            MethodKind::Tpc,
            MethodKind::Rp,
            MethodKind::Exact,
            MethodKind::Mc,
            MethodKind::Mc2,
            MethodKind::Hay,
        ];
        for kind in all {
            let mut est = kind
                .build(&ctx, cfg, Some(20_000))
                .unwrap_or_else(|e| panic!("{} failed to build: {e}", kind.label()));
            let result = est.estimate(s, t).unwrap();
            assert!(
                result.value.is_finite() && result.value >= 0.0,
                "{}: value {}",
                kind.label(),
                result.value
            );
            assert!(!est.name().is_empty());
        }
    }

    #[test]
    fn memory_capped_methods_report_exclusion() {
        // EXACT's default node cap is far above 300 nodes, so force a failure
        // by exceeding RP's entry budget instead: build with a tiny epsilon on
        // a graph large enough that k * n overflows the default budget is too
        // slow for a unit test, so just verify the error surface via Exact's
        // explicit cap API (the harness handles both identically).
        let g = generators::social_network_like(400, 6.0, 9).unwrap();
        let ctx = GraphContext::preprocess(&g).unwrap();
        assert!(Exact::with_node_cap(&ctx, 100).is_err());
    }
}
