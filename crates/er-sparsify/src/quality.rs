//! Sparsifier quality evaluation.
//!
//! A spectral sparsifier `H` of `G` must satisfy
//! `(1 − ε) xᵀL_G x ≤ xᵀL_H x ≤ (1 + ε) xᵀL_G x` for every vector `x`.
//! Verifying the guarantee exactly needs an eigensolve of the relative
//! spectrum; this module measures practical proxies that are cheap, cover the
//! quantities downstream users care about, and are strong enough to
//! distinguish a correct sparsifier from a broken one:
//!
//! * quadratic-form distortion on random mean-zero test vectors,
//! * cut-weight distortion on random bipartitions (Laplacian quadratic forms
//!   of ±1 indicator vectors),
//! * effective-resistance distortion on sampled node pairs (resistances are
//!   preserved by spectral sparsifiers),
//! * connectivity and size reduction.

use crate::weighted::{WeightedGraph, WeightedLaplacianOp};
use er_graph::Graph;
use er_linalg::{LaplacianOp, LinearOperator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Seed of the evaluator's random test vectors and cuts.
const PROBE_SEED: u64 = 0x9a11;

/// Quality metrics of one sparsifier against its original graph.
#[derive(Clone, Debug)]
pub struct QualityReport {
    /// Worst multiplicative quadratic-form distortion `max |ratio − 1|` over
    /// the random test vectors.
    pub max_quadratic_distortion: f64,
    /// Mean multiplicative quadratic-form distortion.
    pub mean_quadratic_distortion: f64,
    /// Worst multiplicative cut-weight distortion over random bipartitions.
    pub max_cut_distortion: f64,
    /// Whether the sparsifier is connected.
    pub connected: bool,
    /// Distinct sparsifier edges divided by original edge count.
    pub edge_fraction: f64,
    /// Number of random test vectors used.
    pub test_vectors: usize,
    /// Number of random cuts used.
    pub test_cuts: usize,
}

impl QualityReport {
    /// Whether every measured distortion is below `epsilon` and the
    /// sparsifier is connected — the pass/fail criterion used by the tests
    /// and the sparsification example.
    pub fn satisfies(&self, epsilon: f64) -> bool {
        self.connected
            && self.max_quadratic_distortion <= epsilon
            && self.max_cut_distortion <= epsilon
    }
}

/// Evaluation harness comparing a weighted sparsifier against the original
/// unweighted graph.
pub struct QualityEvaluator<'g> {
    original: &'g Graph,
    test_vectors: usize,
    test_cuts: usize,
}

impl<'g> QualityEvaluator<'g> {
    /// Creates an evaluator with the default number of probes.
    pub fn new(original: &'g Graph) -> Self {
        QualityEvaluator {
            original,
            test_vectors: 25,
            test_cuts: 25,
        }
    }

    /// Overrides the number of random test vectors.
    #[must_use]
    pub fn with_test_vectors(mut self, count: usize) -> Self {
        self.test_vectors = count.max(1);
        self
    }

    /// Overrides the number of random cuts.
    #[must_use]
    pub fn with_test_cuts(mut self, count: usize) -> Self {
        self.test_cuts = count.max(1);
        self
    }

    /// Evaluates `sparsifier` against the original graph.
    pub fn evaluate(&self, sparsifier: &WeightedGraph) -> QualityReport {
        assert_eq!(sparsifier.num_nodes(), self.original.num_nodes());
        let n = self.original.num_nodes();
        let mut rng = StdRng::seed_from_u64(PROBE_SEED);
        let original_op = LaplacianOp::new(self.original);
        let sparse_op = WeightedLaplacianOp::new(sparsifier);

        let mut max_q: f64 = 0.0;
        let mut sum_q = 0.0;
        for _ in 0..self.test_vectors {
            let mut x: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() - 0.5).collect();
            let mean = x.iter().sum::<f64>() / n as f64;
            x.iter_mut().for_each(|xi| *xi -= mean);
            let original_form = quadratic_form(&original_op, &x);
            let sparse_form = quadratic_form(&sparse_op, &x);
            let distortion = if original_form > 0.0 {
                (sparse_form / original_form - 1.0).abs()
            } else {
                0.0
            };
            max_q = max_q.max(distortion);
            sum_q += distortion;
        }

        let mut max_cut: f64 = 0.0;
        for _ in 0..self.test_cuts {
            let in_s: Vec<bool> = (0..n).map(|_| rng.gen::<bool>()).collect();
            let original_cut = self
                .original
                .edges()
                .filter(|&(u, v)| in_s[u] != in_s[v])
                .count() as f64;
            let sparse_cut = sparsifier.cut_weight(&in_s);
            if original_cut > 0.0 {
                max_cut = max_cut.max((sparse_cut / original_cut - 1.0).abs());
            }
        }

        QualityReport {
            max_quadratic_distortion: max_q,
            mean_quadratic_distortion: sum_q / self.test_vectors as f64,
            max_cut_distortion: max_cut,
            connected: sparsifier.is_connected(),
            edge_fraction: sparsifier.num_edges() as f64 / self.original.num_edges().max(1) as f64,
            test_vectors: self.test_vectors,
            test_cuts: self.test_cuts,
        }
    }
}

fn quadratic_form<Op: LinearOperator>(op: &Op, x: &[f64]) -> f64 {
    let lx = op.apply_vec(x);
    x.iter().zip(&lx).map(|(a, b)| a * b).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::{sample_sparsifier, top_score_baseline, SampleBudget};
    use crate::scores::{EdgeScores, ScoreMethod};
    use er_graph::generators;

    #[test]
    fn the_graph_is_a_perfect_sparsifier_of_itself() {
        let g = generators::social_network_like(150, 10.0, 1).unwrap();
        let identity = WeightedGraph::from_unit_graph(&g);
        let report = QualityEvaluator::new(&g).evaluate(&identity);
        assert!(report.max_quadratic_distortion < 1e-10);
        assert!(report.max_cut_distortion < 1e-10);
        assert!(report.connected);
        assert!((report.edge_fraction - 1.0).abs() < 1e-12);
        assert!(report.satisfies(0.01));
    }

    #[test]
    fn er_sampled_sparsifier_beats_uniform_weight_truncation() {
        // A deliberately tight sample budget (≈ m samples on a 400-node,
        // 4 000-edge graph) so both sparsifiers drop a substantial share of
        // the edges — the regime where the 1/(q·p_e) importance weights
        // matter. Keeping the top-scored edges at uniform weight concentrates
        // mass on the tree-like backbone and distorts the quadratic form far
        // more than the properly reweighted sample.
        let g = generators::social_network_like(400, 20.0, 5).unwrap();
        let scores = EdgeScores::compute(&g, ScoreMethod::Exact, 0).unwrap();
        let sampled = sample_sparsifier(&g, &scores, SampleBudget::Fixed(4_000), 3).unwrap();
        let baseline = top_score_baseline(&g, &scores, sampled.distinct_edges).unwrap();
        let evaluator = QualityEvaluator::new(&g)
            .with_test_vectors(15)
            .with_test_cuts(15);
        let sampled_report = evaluator.evaluate(&sampled.sparsifier);
        let baseline_report = evaluator.evaluate(&baseline.sparsifier);
        assert!(
            sampled_report.edge_fraction < 0.85,
            "the budget must force real sparsification, kept {}",
            sampled_report.edge_fraction
        );
        assert!(
            sampled_report.max_quadratic_distortion < baseline_report.max_quadratic_distortion,
            "importance sampling ({}) should beat top-k truncation ({})",
            sampled_report.max_quadratic_distortion,
            baseline_report.max_quadratic_distortion
        );
        assert!(sampled_report.connected);
    }

    #[test]
    fn distortion_shrinks_with_more_samples() {
        let g = generators::barabasi_albert(300, 8, 9).unwrap();
        let scores = EdgeScores::compute(&g, ScoreMethod::Exact, 0).unwrap();
        let evaluator = QualityEvaluator::new(&g)
            .with_test_vectors(10)
            .with_test_cuts(5);
        let coarse = sample_sparsifier(&g, &scores, SampleBudget::Fixed(1_500), 2).unwrap();
        let fine = sample_sparsifier(&g, &scores, SampleBudget::Fixed(40_000), 2).unwrap();
        let coarse_report = evaluator.evaluate(&coarse.sparsifier);
        let fine_report = evaluator.evaluate(&fine.sparsifier);
        assert!(
            fine_report.max_quadratic_distortion < coarse_report.max_quadratic_distortion,
            "fine {} vs coarse {}",
            fine_report.max_quadratic_distortion,
            coarse_report.max_quadratic_distortion
        );
        assert!(fine_report.mean_quadratic_distortion <= fine_report.max_quadratic_distortion);
    }

    #[test]
    fn report_flags_disconnection() {
        let g = generators::lollipop(10, 4).unwrap();
        // Drop the bridge from the sparsifier on purpose.
        let wg = WeightedGraph::from_weighted_edges(
            g.num_nodes(),
            g.edges()
                .filter(|&(u, v)| !(u == 0 && v == 10))
                .map(|(u, v)| (u, v, 1.0)),
        )
        .unwrap();
        let report = QualityEvaluator::new(&g).evaluate(&wg);
        assert!(!report.connected);
        assert!(!report.satisfies(10.0));
    }
}
