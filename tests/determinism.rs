//! Determinism guarantees of the parallel sampling layer, end to end.
//!
//! The contract: for a fixed seed, every estimator and every bulk walk
//! operation produces **bit-identical** output at any thread count. These
//! tests pin that contract at 1, 2 and 8 threads across the stack, and add a
//! statistical sanity check that the parallel AMC still lands within ε of the
//! exact answer (parallelism must change wall-clock only, never accuracy).

use effective_resistance::graph::Graph;
use effective_resistance::walks::WalkEngine;
use effective_resistance::{
    Amc, ApproxConfig, Exact, Geer, GraphContext, Mc, Mc2, ResistanceEstimator,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn graph() -> Graph {
    effective_resistance::graph::generators::social_network_like(600, 12.0, 0xd17).unwrap()
}

const PAIRS: [(usize, usize); 4] = [(0, 300), (5, 599), (42, 43), (17, 450)];

fn estimates_at<E, F>(threads: usize, build: F) -> Vec<u64>
where
    E: ResistanceEstimator,
    F: Fn(ApproxConfig) -> E,
{
    let config = ApproxConfig::with_epsilon(0.2)
        .reseeded(0xfeed)
        .with_threads(threads);
    let mut estimator = build(config);
    PAIRS
        .iter()
        .map(|&(s, t)| estimator.estimate(s, t).unwrap().value.to_bits())
        .collect()
}

#[test]
fn amc_estimates_are_bit_identical_across_thread_counts() {
    let g = graph();
    // A pessimistic lambda forces real walk lengths, so the parallel fan-out
    // actually runs (with the true lambda the refined length can be 0).
    let ctx = GraphContext::with_lambda(&g, 0.9).unwrap();
    let base = estimates_at(1, |cfg| Amc::new(&ctx, cfg));
    for threads in [2, 8] {
        let other = estimates_at(threads, |cfg| Amc::new(&ctx, cfg));
        assert_eq!(base, other, "AMC differs at {threads} threads");
    }
}

#[test]
fn geer_estimates_are_bit_identical_across_thread_counts() {
    let g = graph();
    let ctx = GraphContext::with_lambda(&g, 0.9).unwrap();
    let base = estimates_at(1, |cfg| Geer::new(&ctx, cfg));
    for threads in [2, 8] {
        let other = estimates_at(threads, |cfg| Geer::new(&ctx, cfg));
        assert_eq!(base, other, "GEER differs at {threads} threads");
    }
}

#[test]
fn walk_engine_histograms_are_bit_identical_across_thread_counts() {
    let g = graph();
    let run = |threads: usize| {
        let mut engine = WalkEngine::new(&g).with_threads(threads);
        let mut rng = StdRng::seed_from_u64(0xbeef);
        let hist = engine.endpoint_histogram(3, 16, 20_000, &mut rng);
        let visits = engine.visit_counts(7, 10, 10_000, &mut rng);
        (hist, visits, engine.total_steps(), engine.total_walks())
    };
    let base = run(1);
    for threads in [2, 8] {
        let other = run(threads);
        assert_eq!(base.0, other.0, "histogram differs at {threads} threads");
        assert_eq!(base.1, other.1, "visit counts differ at {threads} threads");
        assert_eq!(
            base.2, other.2,
            "step accounting differs at {threads} threads"
        );
        assert_eq!(base.3, other.3);
    }
}

#[test]
fn mc_estimates_are_bit_identical_across_thread_counts() {
    let g = graph();
    let ctx = GraphContext::with_lambda(&g, 0.9).unwrap();
    let base = estimates_at(1, |cfg| Mc::new(&ctx, cfg).with_walk_budget(4_000));
    for threads in [2, 8] {
        let other = estimates_at(threads, |cfg| Mc::new(&ctx, cfg).with_walk_budget(4_000));
        assert_eq!(base, other, "MC differs at {threads} threads");
    }
}

#[test]
fn mc2_estimates_are_bit_identical_across_thread_counts() {
    let g = graph();
    let ctx = GraphContext::with_lambda(&g, 0.9).unwrap();
    let edges: Vec<(usize, usize)> = g.edges().take(3).collect();
    let run = |threads: usize| {
        let config = ApproxConfig::with_epsilon(0.2)
            .reseeded(0xfeed)
            .with_threads(threads);
        let mut mc2 = Mc2::new(&ctx, config).with_walk_budget(3_000);
        edges
            .iter()
            .map(|&(s, t)| mc2.estimate(s, t).unwrap().value.to_bits())
            .collect::<Vec<_>>()
    };
    let base = run(1);
    for threads in [2, 8] {
        assert_eq!(base, run(threads), "MC2 differs at {threads} threads");
    }
}

/// Golden values captured on the pre-port implementations (per-walk
/// `Graph::random_neighbor` stepping for MC/MC2, sequential walk pairs for
/// AMC). The lane port preserved every draw schedule, so these exact bits
/// must keep coming out of the variable-length / paired lockstep drivers —
/// including the step accounting. If a future PR deliberately changes a draw
/// schedule, re-pin these and say so in CHANGES.md.
#[test]
fn mc_mc2_amc_golden_values_survived_the_lane_port() {
    let g = graph();
    let ctx = GraphContext::with_lambda(&g, 0.9).unwrap();
    let cfg = ApproxConfig::with_epsilon(0.2)
        .reseeded(0xfeed)
        .with_threads(1);

    let mut mc = Mc::new(&ctx, cfg).with_walk_budget(4_000);
    let goldens: [(usize, usize, u64, u64); 3] = [
        (0, 300, 0x3fc19a0cf47407e3, 259_347),
        (5, 599, 0x3fcc3ff526eda33a, 294_386),
        (42, 43, 0x3fbdfb20caabddac, 708_330),
    ];
    for (s, t, bits, steps) in goldens {
        let est = mc.estimate(s, t).unwrap();
        assert_eq!(est.value.to_bits(), bits, "MC ({s},{t})");
        assert_eq!(est.cost.walk_steps, steps, "MC ({s},{t}) steps");
    }

    let mut edges = g.edges();
    let e1 = edges.next().unwrap();
    let e2 = edges.nth(50).unwrap();
    assert_eq!((e1, e2), ((0, 1), (0, 176)), "graph generator drifted");
    let mut mc2 = Mc2::new(&ctx, cfg).with_walk_budget(3_000);
    let goldens: [(usize, usize, u64, u64); 2] = [
        (0, 1, 0x3fa3a06d3a06d3a0, 524_820),
        (0, 176, 0x3fc015d867c3ece3, 2_498_428),
    ];
    for (s, t, bits, steps) in goldens {
        let est = mc2.estimate(s, t).unwrap();
        assert_eq!(est.value.to_bits(), bits, "MC2 ({s},{t})");
        assert_eq!(est.cost.walk_steps, steps, "MC2 ({s},{t}) steps");
    }

    let mut amc = Amc::new(&ctx, cfg);
    let goldens: [(usize, usize, u64, u64); 2] = [
        (0, 300, 0x3fc107d67f5f74e0, 58_926),
        (17, 450, 0x3fc5c9cfc93328c1, 132_496),
    ];
    for (s, t, bits, steps) in goldens {
        let est = amc.estimate(s, t).unwrap();
        assert_eq!(est.value.to_bits(), bits, "AMC ({s},{t})");
        assert_eq!(est.cost.walk_steps, steps, "AMC ({s},{t}) steps");
    }
}

/// GEER through the measured λ. Every golden above fixes λ = 0.9; these go
/// through `GraphContext::preprocess` (Lanczos, λ ≈ 0.5377 on this graph),
/// so they pin the answers that depend on the eigenvalue estimate. Recorded
/// with the full-reorthogonalization Lanczos; the three-term recurrence
/// keeps every bit and every walk length ℓ.
#[test]
fn geer_golden_values_through_the_measured_lambda() {
    let ctx = GraphContext::preprocess(graph()).unwrap();
    let cfg = ApproxConfig::with_epsilon(0.2)
        .reseeded(0xfeed)
        .with_threads(1);
    let mut geer = Geer::new(&ctx, cfg);
    let goldens: [(u64, usize); 4] = [
        (0x3fbefaa6291e225b, 1),
        (0x3fc90f9641d52d1a, 2),
        (0x3fbd2c7d7281d2c8, 1),
        (0x3fc43237ad083008, 1),
    ];
    for (&(s, t), (bits, ell)) in PAIRS.iter().zip(goldens) {
        let trace = geer.estimate_traced(s, t).unwrap();
        assert_eq!(trace.value().to_bits(), bits, "GEER ({s},{t})");
        assert_eq!(trace.ell, ell, "GEER ({s},{t}) walk length");
    }
}

#[test]
fn parallel_amc_stays_within_epsilon_of_exact() {
    let g = graph();
    let ctx = GraphContext::with_lambda(&g, 0.9).unwrap();
    let mut exact = Exact::new(&ctx).unwrap();
    let eps = 0.25;
    let config = ApproxConfig::with_epsilon(eps).reseeded(3).with_threads(8);
    let mut amc = Amc::new(&ctx, config);
    for &(s, t) in &PAIRS {
        let approx = amc.estimate(s, t).unwrap();
        let truth = exact.estimate(s, t).unwrap().value;
        assert!(
            approx.cost.random_walks > 0,
            "({s},{t}): no walks were sampled"
        );
        assert!(
            (approx.value - truth).abs() <= eps,
            "({s},{t}): parallel AMC {} vs exact {truth}",
            approx.value
        );
    }
}
