//! Failure-injection integration tests: every layer must reject invalid
//! inputs with a descriptive error instead of panicking, looping forever or
//! silently returning garbage — the behaviours a downstream system depends on
//! when it feeds real-world data into the library.

use effective_resistance::apps::{
    ClusteringConfig, Recommender, ResistanceClustering, ResistanceMonitor,
};
use effective_resistance::graph::{analysis, generators, io, transform, GraphBuilder};
use effective_resistance::index::{
    AllPairsResistance, ErIndex, IndexError, LandmarkIndex, LandmarkSelection,
};
use effective_resistance::linalg::ResistanceSketch;
use effective_resistance::sparsify::WeightedGraph;
use effective_resistance::{
    Amc, ApproxConfig, DynamicResistanceService, EstimatorError, Exact, Geer, GraphContext,
    ResistanceEstimator, ServiceError,
};

/// A graph with two components (violates the connectivity assumption).
fn disconnected() -> effective_resistance::graph::Graph {
    GraphBuilder::from_edges(
        7,
        vec![(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (5, 6)],
    )
    .build()
    .unwrap()
}

/// A bipartite graph (violates the aperiodicity assumption).
fn bipartite() -> effective_resistance::graph::Graph {
    generators::cycle(8).unwrap()
}

#[test]
fn spectral_preprocessing_rejects_invalid_graphs() {
    assert!(GraphContext::preprocess(disconnected()).is_err());
    assert!(GraphContext::preprocess(bipartite()).is_err());
    // The error message names the problem.
    let message = GraphContext::preprocess(bipartite())
        .unwrap_err()
        .to_string();
    assert!(
        message.to_lowercase().contains("bipartite"),
        "message: {message}"
    );
}

#[test]
fn estimators_validate_query_nodes_and_configs() {
    let graph = generators::complete(12).unwrap();
    let ctx = GraphContext::preprocess(&graph).unwrap();
    let mut geer = Geer::new(&ctx, ApproxConfig::with_epsilon(0.1));
    assert!(geer.estimate(0, 12).is_err());
    assert!(geer.estimate(99, 0).is_err());

    let bad_epsilon = ApproxConfig {
        epsilon: 0.0,
        ..ApproxConfig::default()
    };
    assert!(bad_epsilon.validate().is_err());
    let bad_delta = ApproxConfig {
        delta: 1.0,
        ..ApproxConfig::default()
    };
    assert!(bad_delta.validate().is_err());
    let bad_tau = ApproxConfig {
        tau: 0,
        ..ApproxConfig::default()
    };
    assert!(bad_tau.validate().is_err());

    let mut amc = Amc::new(&ctx, ApproxConfig::with_epsilon(0.1));
    assert!(
        amc.estimate(3, 3).unwrap().value.abs() < 1e-12,
        "self pairs are exactly 0"
    );
}

#[test]
fn memory_budgets_surface_as_errors_not_oom() {
    // EXACT refuses to materialise a pseudo-inverse beyond its node cap —
    // mirroring the paper's out-of-memory exclusions — and so do the
    // all-pairs index and the RP sketch.
    let graph = generators::social_network_like(600, 8.0, 1).unwrap();
    let ctx = GraphContext::preprocess(&graph).unwrap();
    match Exact::with_node_cap(&ctx, 100) {
        Err(EstimatorError::BudgetExceeded { resource, .. }) => assert_eq!(resource, "memory"),
        Err(other) => panic!("expected a budget error, got {other}"),
        Ok(_) => panic!("expected a budget error, got a built estimator"),
    }
    match AllPairsResistance::compute_with_cap(&graph, 100) {
        Err(IndexError::BudgetExceeded { resource, .. }) => assert_eq!(resource, "memory"),
        other => panic!(
            "expected a budget error, got {:?}",
            other.err().map(|e| e.to_string())
        ),
    }
    assert!(ResistanceSketch::build_with_limit(&graph, 0.01, 24.0, 0, 10_000).is_err());
}

#[test]
fn index_layer_rejects_invalid_graphs_and_nodes() {
    assert!(ErIndex::build(disconnected()).is_err());
    assert!(ErIndex::build(bipartite()).is_err());
    // Landmarks build on an `ErIndex`, so the graph checks above cover them.
    let complete = ErIndex::build(generators::complete(8).unwrap()).unwrap();
    assert!(LandmarkIndex::build(&complete, 0, LandmarkSelection::Random, 0).is_err());

    let graph = generators::complete(10).unwrap();
    let index = ErIndex::build(&graph).unwrap();
    assert!(index.resistance(0, 10).is_err());
    assert!(index.single_source(11).is_err());
    assert!(index.diagonal_entry(10).is_err());
}

#[test]
fn dynamic_graph_surfaces_disconnection_and_out_of_range_edges() {
    let graph = generators::social_network_like(50, 6.0, 2).unwrap();
    let dynamic = DynamicResistanceService::from_graph(&graph, ApproxConfig::with_epsilon(0.1));
    assert!(dynamic.insert_edge(0, 50).is_err());
    assert!(dynamic.remove_edge(50, 0).is_err());
    assert!(dynamic.resistance(0, 50).is_err());

    // Cut a node loose: queries must fail with a graph error, and recover
    // once the edge is restored.
    let leaf = (0..50).min_by_key(|&v| graph.degree(v)).unwrap();
    let neighbors: Vec<usize> = graph.neighbors(leaf).to_vec();
    for &u in &neighbors {
        dynamic.remove_edge(leaf, u).unwrap();
    }
    assert!(matches!(
        dynamic.resistance(leaf, (leaf + 1) % 50),
        Err(ServiceError::Index(IndexError::Graph(_)))
    ));
    for &u in &neighbors {
        dynamic.insert_edge(leaf, u).unwrap();
    }
    assert!(dynamic.resistance(leaf, (leaf + 1) % 50).is_ok());
}

#[test]
fn application_layer_propagates_substrate_errors() {
    // Recommender and monitor refuse graphs that violate the standing
    // assumptions instead of looping or panicking.
    assert!(Recommender::new(&disconnected(), ApproxConfig::default()).is_err());
    assert!(Recommender::new(&bipartite(), ApproxConfig::default()).is_err());

    let graph = generators::social_network_like(60, 6.0, 3).unwrap();
    let mut monitor = ResistanceMonitor::new(vec![(0, 1000)], ApproxConfig::default(), 3.0, 0.05);
    assert!(monitor.observe(&graph).is_err());

    let split_graph = disconnected();
    let clustering = ResistanceClustering::new(&split_graph, ClusteringConfig::default());
    assert!(clustering.run().is_err());
}

#[test]
fn weighted_graph_and_io_reject_malformed_input() {
    assert!(WeightedGraph::from_weighted_edges(3, vec![(0, 1, -1.0)]).is_err());
    assert!(WeightedGraph::from_weighted_edges(3, vec![(0, 9, 1.0)]).is_err());
    assert!(WeightedGraph::from_weighted_edges(0, vec![]).is_err());

    // Edge-list parser: malformed token reports the line number.
    let bad = "0 1\n1 two\n";
    let err = io::parse_edge_list(std::io::BufReader::new(bad.as_bytes())).unwrap_err();
    let message = err.to_string();
    assert!(
        message.contains("line 2") || message.contains("2"),
        "message: {message}"
    );
}

#[test]
fn transforms_validate_their_inputs() {
    let graph = generators::complete(6).unwrap();
    assert!(transform::induced_subgraph(&graph, &[9]).is_err());
    assert!(transform::induced_subgraph(&graph, &[]).is_err());
    assert!(transform::contract_pair(&graph, 0, 9).is_err());
    assert!(transform::k_core(&graph, 99).is_err());

    // Removing every edge of a node leaves a valid (but not ergodic) graph;
    // the ergodicity check downstream reports it.
    let star = generators::star(5).unwrap();
    let isolated = transform::remove_edges(&star, &star.edges().collect::<Vec<_>>()).unwrap();
    assert_eq!(isolated.num_edges(), 0);
    assert!(analysis::validate_ergodic(&isolated).is_err());
}
