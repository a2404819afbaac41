//! Cross-layer integration tests: the indexing, sparsification and
//! application layers must agree with the paper's estimators and with the
//! exact ground truth, end to end through the public facade.

use effective_resistance::apps::{
    edge_criticality, estimate_kirchhoff_index, modularity, ClusteringConfig, ResistanceClustering,
};
use effective_resistance::graph::{generators, NodePairQuerySet};
use effective_resistance::index::{AllPairsResistance, ErIndex, LandmarkIndex, LandmarkSelection};
use effective_resistance::sparsify::{
    sample_sparsifier, EdgeScores, QualityEvaluator, SampleBudget, ScoreMethod,
};
use effective_resistance::{
    ApproxConfig, Geer, GraphContext, GroundTruth, GroundTruthMethod, ResistanceEstimator,
};

fn shared_graph() -> effective_resistance::graph::Graph {
    generators::community_social_network(500, 10.0, 3, 0.02, 0xc20).unwrap()
}

#[test]
fn index_estimator_and_ground_truth_agree() {
    let graph = shared_graph();
    let ctx = GraphContext::preprocess(&graph).unwrap();
    let truth = GroundTruth::with_method(&graph, GroundTruthMethod::LaplacianSolve);
    let config = ApproxConfig::with_epsilon(0.05);
    let mut geer = Geer::new(&ctx, config);
    let index = ErIndex::build(&graph).unwrap();
    let queries = NodePairQuerySet::uniform(&graph, 8, 21);
    for pair in queries.pairs() {
        let exact = truth.resistance(pair.s, pair.t).unwrap();
        let via_index = index.resistance(pair.s, pair.t).unwrap();
        let via_geer = geer.estimate(pair.s, pair.t).unwrap().value;
        assert!(
            (via_index - exact).abs() < 1e-6,
            "index vs truth at ({}, {}): {via_index} vs {exact}",
            pair.s,
            pair.t
        );
        assert!(
            (via_geer - exact).abs() <= config.epsilon,
            "GEER vs truth at ({}, {}): {via_geer} vs {exact}",
            pair.s,
            pair.t
        );
    }
}

#[test]
fn landmark_bounds_contain_both_truth_and_estimates() {
    let graph = shared_graph();
    let index = ErIndex::build(&graph).unwrap();
    let landmarks = LandmarkIndex::build(&index, 10, LandmarkSelection::Mixed, 5).unwrap();
    let truth = GroundTruth::with_method(&graph, GroundTruthMethod::LaplacianSolve);
    let ctx = GraphContext::preprocess(&graph).unwrap();
    let config = ApproxConfig::with_epsilon(0.05);
    let mut geer = Geer::new(&ctx, config);
    let queries = NodePairQuerySet::uniform(&graph, 10, 33);
    for pair in queries.pairs() {
        let bounds = landmarks.bounds(pair.s, pair.t).unwrap();
        let exact = truth.resistance(pair.s, pair.t).unwrap();
        assert!(
            bounds.contains(exact),
            "({}, {}): exact {exact} outside [{}, {}]",
            pair.s,
            pair.t,
            bounds.lower,
            bounds.upper
        );
        let approx = geer.estimate(pair.s, pair.t).unwrap().value;
        assert!(approx >= bounds.lower - config.epsilon);
        assert!(approx <= bounds.upper + config.epsilon);
        // The midpoint estimate is a legitimate (if loose) approximation.
        assert!(bounds.estimate() >= 0.0);
    }
}

#[test]
fn geer_scored_sparsifier_preserves_the_spectrum_and_foster_total() {
    let graph = generators::social_network_like(350, 16.0, 0x5ace).unwrap();
    let scores = EdgeScores::compute(&graph, ScoreMethod::Geer { epsilon: 0.1 }, 1).unwrap();
    // Foster's theorem: the exact per-edge resistances sum to n − 1; the
    // GEER-scored total inherits the per-edge ε, so it lands within m·ε.
    let foster = scores.total();
    let n_minus_1 = graph.num_nodes() as f64 - 1.0;
    assert!(
        (foster - n_minus_1).abs() <= graph.num_edges() as f64 * 0.1,
        "Foster total {foster} vs {n_minus_1}"
    );
    let output = sample_sparsifier(
        &graph,
        &scores,
        SampleBudget::SpectralGuarantee {
            epsilon: 0.4,
            scale: 1.5,
        },
        2,
    )
    .unwrap();
    assert!(output.keep_fraction(&graph) < 1.0);
    let report = QualityEvaluator::new(&graph)
        .with_test_vectors(12)
        .with_test_cuts(12)
        .evaluate(&output.sparsifier);
    assert!(report.connected, "sparsifier must stay connected");
    assert!(
        report.max_quadratic_distortion < 0.5,
        "quadratic distortion {}",
        report.max_quadratic_distortion
    );
    assert!(report.max_cut_distortion < 0.5);
}

#[test]
fn kirchhoff_index_is_consistent_across_three_layers() {
    let graph = generators::barabasi_albert(250, 4, 0x1f).unwrap();
    // Layer 1: dense all-pairs matrix.
    let allpairs = AllPairsResistance::compute(&graph).unwrap();
    let exact = allpairs.kirchhoff_index();
    // Layer 2: diagonal-based index formula n · trace(L†).
    let index = ErIndex::build(&graph).unwrap();
    assert!((index.kirchhoff_index() - exact).abs() / exact < 1e-6);
    // Layer 3: sampled GEER estimate with its standard error.
    let (estimate, stderr) =
        estimate_kirchhoff_index(&graph, ApproxConfig::with_epsilon(0.1), 300, 9).unwrap();
    assert!(
        (estimate - exact).abs() < 5.0 * stderr + 0.05 * exact,
        "sampled {estimate} ± {stderr} vs exact {exact}"
    );
}

#[test]
fn criticality_ranking_flags_the_planted_bottleneck_and_clusters_respect_it() {
    // Two communities joined by a couple of bridges: the bridges must rank
    // among the most critical edges, and resistance clustering must cut along
    // them.
    let graph = generators::community_social_network(240, 10.0, 2, 0.001, 77).unwrap();
    let config = ApproxConfig::with_epsilon(0.1);
    let ranking = edge_criticality(&graph, config).unwrap();
    let top20: Vec<(usize, usize)> = ranking.iter().take(20).map(|e| (e.u, e.v)).collect();
    let crossing = top20
        .iter()
        .filter(|&&(u, v)| (u < 120) != (v < 120))
        .count();
    assert!(
        crossing >= 1,
        "at least one inter-community bridge must appear in the top-20: {top20:?}"
    );

    let clustering = ResistanceClustering::new(
        &graph,
        ClusteringConfig {
            num_clusters: 2,
            ..ClusteringConfig::default()
        },
    )
    .run()
    .unwrap();
    let q = modularity(&graph, &clustering.assignments);
    assert!(q > 0.2, "modularity {q}");
}

#[test]
fn dynamic_graph_matches_static_estimators_after_mutations() {
    let graph = shared_graph();
    let config = ApproxConfig::with_epsilon(0.05);
    let dynamic = effective_resistance::DynamicResistanceService::from_graph(&graph, config);
    // Mutate: add a shortcut inside one community, remove a random edge.
    dynamic.insert_edge(2, 77).unwrap();
    let some_edge = graph.edges().nth(42).unwrap();
    dynamic.remove_edge(some_edge.0, some_edge.1).unwrap();
    // Build the equivalent static graph and compare a handful of queries.
    let mutated = effective_resistance::graph::transform::add_edges(&graph, &[(2, 77)]).unwrap();
    let mutated =
        effective_resistance::graph::transform::remove_edges(&mutated, &[some_edge]).unwrap();
    let truth = GroundTruth::with_method(&mutated, GroundTruthMethod::LaplacianSolve);
    for &(s, t) in &[(0usize, 400usize), (2, 77), (150, 350)] {
        let dynamic_value = dynamic.resistance(s, t).unwrap();
        let exact = truth.resistance(s, t).unwrap();
        assert!(
            (dynamic_value - exact).abs() <= config.epsilon,
            "({s}, {t}): dynamic {dynamic_value} vs exact {exact}"
        );
    }
}
