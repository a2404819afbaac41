//! Golden-preservation pins for the multi-root lockstep Wilson port.
//!
//! The lockstep driver grows many trees concurrently but must preserve every
//! tree's `(seed, index)` draw schedule bit for bit, so the HAY estimator,
//! the service's batch-native HAY backend and the sparsifier's tree scores
//! are pinned here against values captured from the sequential
//! one-tree-at-a-time path before the port. Only the `walk_steps` cost moved
//! (from the `trees · (n − 1)` lower bound to the true per-tree step count);
//! every estimate must be unchanged.

use er_core::{ApproxConfig, GraphContext, ResistanceEstimator};
use er_graph::generators;
use er_service::{Accuracy, Query, Request, ResistanceService};
use er_sparsify::{EdgeScores, ScoreMethod};

#[test]
fn hay_estimate_survived_the_lockstep_wilson_port() {
    let g = generators::social_network_like(300, 9.0, 0x4a).unwrap();
    let ctx = GraphContext::preprocess(&g).unwrap();
    let (s, t) = g.edges().next().unwrap();
    let run = |threads: usize| {
        let config = ApproxConfig {
            threads,
            ..ApproxConfig::with_epsilon(0.2).reseeded(7)
        };
        er_core::Hay::new(&ctx, config)
            .with_tree_budget(64)
            .estimate(s, t)
            .unwrap()
    };
    let est = run(1);
    // Captured from the sequential per-tree sampler before the port.
    assert_eq!(
        est.value.to_bits(),
        0x3fa8000000000000,
        "value {}",
        est.value
    );
    assert_eq!(est.cost.spanning_trees, 64);
    // True loop-erased-walk steps: strictly above the old n − 1 bound the
    // cost accounting used to report, and deterministic.
    assert_eq!(est.cost.walk_steps, 27237);
    assert!(est.cost.walk_steps > 64 * (g.num_nodes() as u64 - 1));
    for threads in [2, 8] {
        let other = run(threads);
        assert_eq!(other.value.to_bits(), est.value.to_bits());
        assert_eq!(
            other.cost.walk_steps, est.cost.walk_steps,
            "{threads} threads"
        );
    }
}

#[test]
fn hay_batch_backend_survived_the_lockstep_wilson_port() {
    let g = generators::social_network_like(300, 9.0, 0x4a).unwrap();
    let edges: Vec<_> = g.edges().take(5).collect();
    // A budgeted edge set: the planner routes it to the batch-native HAY
    // backend, one pool of 40 trees for all five edges.
    let request = Request::new(Query::edge_set(edges)).with_accuracy(Accuracy::WalkBudget(40));
    let run = |threads: usize| {
        let config = ApproxConfig {
            threads,
            ..ApproxConfig::with_epsilon(0.3).reseeded(3)
        };
        ResistanceService::with_config(&g, config)
            .unwrap()
            .submit(&request)
            .unwrap()
    };
    let resp = run(1);
    assert_eq!(resp.backend, "HAY");
    let golden: [u64; 5] = [
        0x3fa999999999999a,
        0x3f9999999999999a,
        0x3fb3333333333333,
        0x3fa999999999999a,
        0x0000000000000000,
    ];
    for (value, pin) in resp.values.iter().zip(golden) {
        assert_eq!(value.to_bits(), pin);
    }
    assert_eq!(resp.cost.walk_steps, 18078);
    assert!(resp.cost.walk_steps > 40 * (g.num_nodes() as u64 - 1));
    for threads in [2, 8] {
        let other = run(threads);
        let bits = |r: &er_core::CostBreakdown| r.walk_steps;
        assert_eq!(
            other.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            resp.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
        assert_eq!(bits(&other.cost), bits(&resp.cost), "{threads} threads");
    }
}

#[test]
fn sparsifier_tree_scores_survived_the_lockstep_wilson_port() {
    let g = generators::social_network_like(150, 10.0, 6).unwrap();
    let run = |threads: usize| {
        EdgeScores::compute_with_threads(
            &g,
            ScoreMethod::SpanningTrees { samples: 200 },
            11,
            threads,
        )
        .unwrap()
    };
    let scores = run(1);
    // Captured from the sequential per-tree sampler before the port.
    assert_eq!(scores.total().to_bits(), 0x4062a00000000004);
    let golden_head: [u64; 4] = [
        0x3fa47ae147ae147b,
        0x3fb1eb851eb851ec,
        0x3fbae147ae147ae1,
        0x3fb0a3d70a3d70a4,
    ];
    for (value, pin) in scores.scores()[..4].iter().zip(golden_head) {
        assert_eq!(value.to_bits(), pin);
    }
    for threads in [2, 8] {
        let other = run(threads);
        assert_eq!(
            other
                .scores()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            scores
                .scores()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            "{threads} threads"
        );
    }
}
