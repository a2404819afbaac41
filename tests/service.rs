//! Integration tests for the `ResistanceService` query plane: planner
//! routing observed end-to-end, bit-identical answers across thread counts,
//! and ε-accuracy of planned answers against ground truth.

use effective_resistance::graph::{generators, Graph};
use effective_resistance::{
    Accuracy, ApproxConfig, BackendChoice, GroundTruth, GroundTruthMethod, Query, Request,
    ResistanceService, Response,
};

fn tiny_graph() -> Graph {
    // Below the planner's node-count fallback (256): ε requests stay exact.
    generators::social_network_like(200, 10.0, 33).unwrap()
}

fn small_graph() -> Graph {
    generators::social_network_like(600, 10.0, 33).unwrap()
}

fn large_graph() -> Graph {
    generators::social_network_like(2_000, 12.0, 9).unwrap()
}

fn service_at(graph: &Graph, threads: usize) -> ResistanceService {
    let config = ApproxConfig::with_epsilon(0.2)
        .reseeded(7)
        .with_threads(threads);
    ResistanceService::with_config(graph, config).unwrap()
}

/// Runs the same request sequence through a fresh service per thread count
/// and returns all responses, so cache interactions are exercised too.
fn run_sequence(graph: &Graph, threads: usize, requests: &[Request]) -> Vec<Response> {
    let service = service_at(graph, threads);
    requests
        .iter()
        .map(|r| service.submit(r).unwrap())
        .collect()
}

#[test]
fn responses_are_bit_identical_at_1_2_8_threads() {
    let graph = small_graph();
    let edges: Vec<(usize, usize)> = graph.edges().take(6).collect();
    let requests = vec![
        // Randomized pair backends, forced so sampling paths are exercised
        // even though the planner would answer this small graph exactly.
        Request::new(Query::pair(0, 300)).with_backend(BackendChoice::Geer),
        Request::new(Query::batch(vec![(1, 2), (2, 1), (5, 599), (9, 9), (1, 2)]))
            .with_backend(BackendChoice::Amc),
        Request::new(Query::edge_set(edges.clone())).with_backend(BackendChoice::Hay),
        // Budgeted sampling.
        Request::new(Query::pair(3, 400))
            .with_accuracy(Accuracy::WalkBudget(20_000))
            .with_backend(BackendChoice::Geer),
        Request::new(Query::edge_set(vec![edges[0]]))
            .with_accuracy(Accuracy::WalkBudget(20_000))
            .with_backend(BackendChoice::Mc2),
        // Planner-routed work: exact pair tier, index tier, repeat from cache.
        Request::new(Query::batch(vec![(0, 300), (10, 20), (0, 300)])),
        Request::new(Query::single_source(42)),
        Request::new(Query::top_k(42, 5)),
        Request::new(Query::Diagonal),
        Request::new(Query::pair(0, 300)),
    ];
    let base = run_sequence(&graph, 1, &requests);
    for threads in [2, 8] {
        let other = run_sequence(&graph, threads, &requests);
        for (i, (a, b)) in base.iter().zip(&other).enumerate() {
            assert_eq!(
                a.values, b.values,
                "request {i} differs at {threads} threads"
            );
            assert_eq!(a.nodes, b.nodes, "request {i} nodes differ");
            assert_eq!(a.backend, b.backend, "request {i} backend differs");
        }
    }
}

#[test]
fn planner_routing_is_observable_end_to_end() {
    // Tiny graph + ε target: the exact CG tier undercuts sampling.
    let tiny = tiny_graph();
    let service = service_at(&tiny, 0);
    let pair = service.submit(&Request::new(Query::pair(0, 100))).unwrap();
    assert_eq!(pair.backend, "EXACT-CG");

    // A slow-mixing graph (small spectral gap) stays exact at any size: the
    // planner's lambda rule overrides the node-count fallback.
    let ring = generators::watts_strogatz(2_000, 6, 0.1, 5).unwrap();
    let service = service_at(&ring, 0);
    let slow = service
        .submit(&Request::new(Query::pair(0, 1_000)))
        .unwrap();
    assert_eq!(slow.backend, "EXACT-CG");

    // Large fast-mixing graph + ε target: GEER for pairs, batch-native HAY
    // for edge sets.
    let large = large_graph();
    let service = service_at(&large, 0);
    let pair = service
        .submit(&Request::new(Query::pair(0, 1_000)))
        .unwrap();
    assert_eq!(pair.backend, "GEER");
    assert!(pair.cost.random_walks > 0 || pair.cost.matvec_ops > 0);
    let edges: Vec<(usize, usize)> = large.edges().take(8).collect();
    let set = service
        .submit(&Request::new(Query::edge_set(edges)))
        .unwrap();
    assert_eq!(set.backend, "HAY");
    assert!(set.cost.spanning_trees > 0);

    // Source shapes always use the index; once the index exists, exact
    // pair queries ride it for free.
    let row = service
        .submit(&Request::new(Query::single_source(5)))
        .unwrap();
    assert_eq!(row.backend, "INDEX");
    assert_eq!(row.values.len(), large.num_nodes());
    let exact_pair = service
        .submit(&Request::new(Query::pair(5, 6)).with_accuracy(Accuracy::Exact))
        .unwrap();
    assert_eq!(exact_pair.backend, "INDEX");
    assert!((exact_pair.value() - row.values[6]).abs() < 1e-9);

    // Budgeted sampling goes to GEER.
    let budgeted = service
        .submit(&Request::new(Query::pair(0, 1_000)).with_accuracy(Accuracy::WalkBudget(100_000)))
        .unwrap();
    assert_eq!(budgeted.backend, "GEER");
    assert!(budgeted.cost.random_walks <= 100_000);
}

#[test]
fn planned_answers_meet_the_epsilon_target() {
    let graph = large_graph();
    let truth = GroundTruth::with_method(&graph, GroundTruthMethod::LaplacianSolve);
    let service = service_at(&graph, 0);
    for &(s, t) in &[(0usize, 1_000usize), (17, 1_999), (250, 251)] {
        let response = service
            .submit(&Request::new(Query::pair(s, t)).with_accuracy(Accuracy::epsilon(0.2)))
            .unwrap();
        let exact = truth.resistance(s, t).unwrap();
        assert!(
            (response.value() - exact).abs() <= 0.2,
            "({s},{t}): {} via {} vs exact {exact}",
            response.value(),
            response.backend
        );
    }
}

#[test]
fn exact_tier_matches_ground_truth_closely() {
    let graph = tiny_graph();
    let truth = GroundTruth::with_method(&graph, GroundTruthMethod::LaplacianSolve);
    let service = service_at(&graph, 0);
    let pairs = [(0usize, 150usize), (1, 2), (198, 199)];
    let response = service
        .submit(&Request::new(Query::batch(pairs.to_vec())))
        .unwrap();
    assert_eq!(response.backend, "EXACT-CG", "tiny graph stays exact");
    for (&(s, t), &value) in pairs.iter().zip(&response.values) {
        let exact = truth.resistance(s, t).unwrap();
        assert!(
            (value - exact).abs() < 1e-6,
            "({s},{t}): {value} vs {exact}"
        );
    }
}

/// The batched GEER backend (one shared SMM frontier per distinct endpoint)
/// must answer every pair with exactly the bits a solo per-pair submission
/// computes — at 1, 2 and 8 worker threads, through plain batch submission
/// and through `submit_coalesced`.
#[test]
fn batched_geer_is_bit_identical_to_solo_pairs_at_1_2_8_threads() {
    let graph = small_graph();
    // A shared-endpoint workload: hub nodes 0 and 7 appear in many pairs.
    let pairs: Vec<(usize, usize)> = vec![
        (0, 300),
        (0, 150),
        (0, 480),
        (7, 300),
        (7, 90),
        (12, 13),
        (44, 44),
        (0, 150),
    ];
    // Solo baseline: every pair submitted alone, fresh service (no cache).
    let solo_bits: Vec<u64> = {
        let service = service_at(&graph, 1);
        pairs
            .iter()
            .map(|&(s, t)| {
                service
                    .submit(&Request::new(Query::pair(s, t)).with_backend(BackendChoice::Geer))
                    .unwrap()
                    .value()
                    .to_bits()
            })
            .collect()
    };
    for threads in [1usize, 2, 8] {
        // One batch: the whole workload shares one frontier set.
        let service = service_at(&graph, threads);
        let batch = service
            .submit(&Request::new(Query::batch(pairs.clone())).with_backend(BackendChoice::Geer))
            .unwrap();
        let batch_bits: Vec<u64> = batch.values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(batch_bits, solo_bits, "batch diverged at {threads} threads");
        // The cost split never overstates work: shared SMM once, AMC tails
        // per owned item, recombining to the full plan cost.
        let mut recombined = batch.shared_cost;
        recombined += batch.owned_cost();
        assert_eq!(recombined, batch.cost);
        assert_eq!(batch.item_costs.len() as u64, batch.backend_calls);

        // Coalesced across requests: one frontier set for the whole group.
        let service = service_at(&graph, threads);
        let a = Request::new(Query::batch(pairs[..4].to_vec())).with_backend(BackendChoice::Geer);
        let b = Request::new(Query::batch(pairs[4..].to_vec())).with_backend(BackendChoice::Geer);
        let grouped = service.submit_coalesced(&[&a, &b]).unwrap();
        let grouped_bits: Vec<u64> = grouped[0]
            .values
            .iter()
            .chain(&grouped[1].values)
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(
            grouped_bits, solo_bits,
            "coalesced group diverged at {threads} threads"
        );
        // Both members carry the same group-level shared cost.
        assert_eq!(grouped[0].shared_cost, grouped[1].shared_cost);
    }
}

/// Regression test for an arrival-order dependence the concurrent server
/// exposed: a batch carrying `(s, t)` coalesced with a request carrying
/// `(t, s)` used to compute the pair in whichever orientation reached the
/// plan first — and sampling backends draw different (equally valid) bits
/// per orientation, so the answer raced with scheduling. Misses are now
/// computed in canonical `(min, max)` orientation; both orientations must
/// yield identical bits on fresh services, with no cache involved.
#[test]
fn pair_orientation_never_changes_bits() {
    let graph = large_graph();
    let forward = service_at(&graph, 1)
        .submit(&Request::new(Query::pair(0, 1_000)))
        .unwrap();
    assert_eq!(forward.backend, "GEER", "sampling backend, not exact");
    let reversed = service_at(&graph, 1)
        .submit(&Request::new(Query::pair(1_000, 0)))
        .unwrap();
    assert_eq!(forward.value().to_bits(), reversed.value().to_bits());

    // The server race, made deterministic: the reversed pair creates the
    // plan item first and the forward batch dedups onto it.
    let service = service_at(&graph, 1);
    let rev = Request::new(Query::pair(1_000, 0));
    let fwd = Request::new(Query::batch(vec![(0, 1_000), (10, 20)]));
    let grouped = service.submit_coalesced(&[&rev, &fwd]).unwrap();
    assert_eq!(grouped[0].value().to_bits(), forward.value().to_bits());
    assert_eq!(grouped[1].values[0].to_bits(), forward.value().to_bits());
}

#[test]
fn cache_tier_survives_across_requests_and_accuracies() {
    let graph = small_graph();
    let service = service_at(&graph, 0);
    let first = service.submit(&Request::new(Query::pair(0, 100))).unwrap();
    assert_eq!(first.backend_calls, 1);
    let repeat = service.submit(&Request::new(Query::pair(100, 0))).unwrap();
    assert_eq!(repeat.backend_calls, 0, "symmetric repeat is a cache hit");
    assert_eq!(repeat.value(), first.value());
    // A different accuracy class must not reuse the entry.
    let exact = service
        .submit(&Request::new(Query::pair(0, 100)).with_accuracy(Accuracy::Exact))
        .unwrap();
    assert_eq!(exact.backend_calls, 1);
}
