//! Index-backed effective-resistance workloads.
//!
//! The per-pair estimators of the paper are the right tool for ad-hoc
//! queries; recurring workloads benefit from a thin indexing layer on top.
//! This example walks through the three index structures of `er-index` on one
//! graph:
//!
//! 1. [`ErIndex`] — single-source profiles and nearest-neighbour search,
//! 2. [`LandmarkIndex`] — O(k) bounds used as a filter in front of GEER,
//! 3. [`DynamicResistanceService`] — edge insertions/deletions interleaved
//!    with queries through the service front door,
//!
//! and cross-checks everything against the GEER estimator.
//!
//! Run with `cargo run --release --example indexing_workloads`.

use effective_resistance::graph::generators;
use effective_resistance::index::{ErIndex, LandmarkIndex, LandmarkSelection};
use effective_resistance::{
    Accuracy, ApproxConfig, BackendChoice, DynamicResistanceService, Query, Request,
    ResistanceService,
};

fn main() {
    let graph =
        generators::community_social_network(800, 12.0, 4, 0.02, 9).expect("graph generation");
    println!(
        "graph: {} nodes, {} edges, average degree {:.1}",
        graph.num_nodes(),
        graph.num_edges(),
        graph.average_degree()
    );
    let config = ApproxConfig::with_epsilon(0.05);

    // 1. Single-source profile: rank the whole graph against one node.
    let index = ErIndex::build(&graph).expect("connected, non-bipartite");
    let source = 17;
    let nearest = index.nearest(source, 5).expect("profile");
    println!("\nfive nodes closest to node {source} in effective resistance:");
    for (node, r) in &nearest {
        println!(
            "  node {node:>5}   r = {r:.4}   degree = {}",
            graph.degree(*node)
        );
    }
    println!(
        "Kirchhoff index of the graph: {:.1}",
        index.kirchhoff_index()
    );

    // 2. Landmark bounds as a cheap filter in front of GEER (forced through
    //    the service's override knob so the comparison is explicit).
    //    The landmarks reuse the column index's diagonal.
    let landmarks = LandmarkIndex::build(&index, 12, LandmarkSelection::Mixed, 3)
        .expect("landmark construction");
    let service = ResistanceService::with_config(&graph, config).expect("spectral preprocessing");
    let query_pairs = [(17usize, 500usize), (3, 780), (250, 251), (600, 610)];
    println!(
        "\nlandmark bounds vs GEER ({} landmarks):",
        landmarks.landmarks().len()
    );
    println!(
        "{:>8} {:>8} {:>10} {:>10} {:>10} {:>8}",
        "s", "t", "lower", "upper", "GEER", "skip?"
    );
    let mut skipped = 0;
    for &(s, t) in &query_pairs {
        let bounds = landmarks.bounds(s, t).expect("bounds");
        let estimate = service
            .submit(
                &Request::new(Query::pair(s, t))
                    .with_accuracy(Accuracy::from(config))
                    .with_backend(BackendChoice::Geer),
            )
            .expect("query")
            .value();
        let skip = bounds.width() <= 2.0 * config.epsilon;
        if skip {
            skipped += 1;
        }
        println!(
            "{s:>8} {t:>8} {:>10.4} {:>10.4} {estimate:>10.4} {:>8}",
            bounds.lower,
            bounds.upper,
            if skip { "yes" } else { "no" }
        );
        assert!(
            estimate >= bounds.lower - config.epsilon && estimate <= bounds.upper + config.epsilon,
            "GEER must land inside the landmark bounds (up to its own ε)"
        );
    }
    println!(
        "{skipped} of {} queries could skip the estimator entirely",
        query_pairs.len()
    );

    // 3. Dynamic updates: resistances react to edge insertions/removals. The
    //    dynamic service rebuilds its planner/cache once per mutation burst.
    let dynamic = DynamicResistanceService::from_graph(&graph, config);
    let (s, t) = (40usize, 700usize);
    let before = dynamic.resistance(s, t).expect("query");
    dynamic.insert_edge(s, t).expect("insert");
    let after_insert = dynamic.resistance(s, t).expect("query");
    dynamic.remove_edge(s, t).expect("remove");
    let after_remove = dynamic.resistance(s, t).expect("query");
    println!("\ndynamic graph: r({s}, {t})");
    println!("  before any change:          {before:.4}");
    println!("  after inserting the edge:   {after_insert:.4}");
    println!("  after removing it again:    {after_remove:.4}");
    assert!(
        after_insert < before,
        "Rayleigh monotonicity: adding an edge lowers resistance"
    );
    assert!((after_remove - before).abs() <= 2.0 * config.epsilon + 0.02);
    println!(
        "  refreshes: {} (mutations are lazy; queries pay the refresh once)",
        dynamic.service_refreshes()
    );
}
