//! Ablation benchmarks for the design choices DESIGN.md calls out.
//!
//! Each group isolates one mechanism of the paper's estimators (or of the
//! layers built on top) and compares it against the variant the paper argues
//! against:
//!
//! * `amc_walk_length` — AMC's sampling loop with the refined per-pair ℓ of
//!   Theorem 3.1 versus Peng et al.'s generic ℓ (Eq. 5). Complements Fig. 11,
//!   which makes the same comparison inside SMM.
//! * `amc_adaptive_tau` — AMC with the adaptive multi-batch scheme (τ = 5)
//!   versus a single Hoeffding-sized batch (τ = 1); Section 3.2's motivation.
//! * `geer_switch_rule` — GEER's greedy switch (Eq. 17) versus degenerate
//!   fixed choices: ℓ_b = 0 (pure Monte Carlo) and a large positive offset
//!   (pushed towards pure SMM); the mechanism behind Fig. 10.
//! * `edge_score_methods` — per-edge ER scoring strategies of the
//!   sparsification pipeline (exact solves vs GEER vs spanning trees).
//! * `point_query_backends` — one pairwise query through GEER, the exact
//!   column index and the landmark bounds, the trade-off the indexing layer
//!   documents.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use er_core::{
    amc, length, Amc, ApproxConfig, Geer, GraphContext, ResistanceEstimator, SwitchRule,
};
use er_graph::{generators, NodePairQuerySet};
use er_index::{ErIndex, LandmarkIndex, LandmarkSelection};
use er_sparsify::{EdgeScores, ScoreMethod};
use er_walks::WalkEngine;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_amc_walk_length(c: &mut Criterion) {
    let graph = generators::social_network_like(3_000, 30.0, 0xab1).unwrap();
    let ctx = GraphContext::preprocess(&graph).unwrap();
    let epsilon = 0.2;
    let config = ApproxConfig::with_epsilon(epsilon);
    let pairs: Vec<(usize, usize)> = NodePairQuerySet::uniform(&graph, 6, 3)
        .pairs()
        .iter()
        .map(|p| (p.s, p.t))
        .collect();

    let mut group = c.benchmark_group("amc_walk_length");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for (label, use_refined) in [("refined-ell", true), ("peng-ell", false)] {
        group.bench_function(BenchmarkId::new("amc", label), |b| {
            let mut rng = StdRng::seed_from_u64(7);
            let mut i = 0;
            b.iter(|| {
                let (s, t) = pairs[i % pairs.len()];
                i += 1;
                let ell = if use_refined {
                    length::refined_length(epsilon, ctx.lambda(), graph.degree(s), graph.degree(t))
                } else {
                    length::peng_length(epsilon, ctx.lambda())
                };
                let mut s_vec = vec![0.0; graph.num_nodes()];
                let mut t_vec = vec![0.0; graph.num_nodes()];
                s_vec[s] = 1.0;
                t_vec[t] = 1.0;
                let params = amc::AmcParameters::from_config(&config, ell);
                amc::run_amc(&graph, s, t, &s_vec, &t_vec, &params, &mut rng).r_f
            })
        });
    }
    group.finish();
}

fn bench_amc_adaptive_tau(c: &mut Criterion) {
    let graph = generators::social_network_like(3_000, 20.0, 0xab2).unwrap();
    let ctx = GraphContext::preprocess(&graph).unwrap();
    let pairs: Vec<(usize, usize)> = NodePairQuerySet::uniform(&graph, 6, 5)
        .pairs()
        .iter()
        .map(|p| (p.s, p.t))
        .collect();

    let mut group = c.benchmark_group("amc_adaptive_tau");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for &tau in &[1usize, 5] {
        let config = ApproxConfig {
            epsilon: 0.2,
            tau,
            ..ApproxConfig::default()
        };
        group.bench_with_input(BenchmarkId::new("amc", tau), &tau, |b, _| {
            let mut est = Amc::new(&ctx, config);
            let mut i = 0;
            b.iter(|| {
                let (s, t) = pairs[i % pairs.len()];
                i += 1;
                est.estimate(s, t).unwrap().value
            })
        });
    }
    group.finish();
}

fn bench_geer_switch_rule(c: &mut Criterion) {
    let graph = generators::community_social_network(4_000, 18.0, 4, 0.02, 0xab3).unwrap();
    let ctx = GraphContext::preprocess(&graph).unwrap();
    let config = ApproxConfig::with_epsilon(0.1);
    let pairs: Vec<(usize, usize)> = NodePairQuerySet::uniform(&graph, 6, 9)
        .pairs()
        .iter()
        .map(|p| (p.s, p.t))
        .collect();

    let mut group = c.benchmark_group("geer_switch_rule");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let rules = [
        ("greedy", SwitchRule::Greedy),
        ("pure-monte-carlo", SwitchRule::Fixed(0)),
        ("greedy-plus-4", SwitchRule::GreedyOffset(4)),
    ];
    for (label, rule) in rules {
        group.bench_function(BenchmarkId::new("geer", label), |b| {
            let mut est = Geer::new(&ctx, config).with_switch_rule(rule);
            let mut i = 0;
            b.iter(|| {
                let (s, t) = pairs[i % pairs.len()];
                i += 1;
                est.estimate(s, t).unwrap().value
            })
        });
    }
    group.finish();
}

fn bench_edge_score_methods(c: &mut Criterion) {
    let graph = generators::social_network_like(400, 10.0, 0xab4).unwrap();
    let mut group = c.benchmark_group("edge_score_methods");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let methods = [
        ("exact-solves", ScoreMethod::Exact),
        ("geer", ScoreMethod::Geer { epsilon: 0.1 }),
        (
            "spanning-trees",
            ScoreMethod::SpanningTrees { samples: 100 },
        ),
    ];
    for (label, method) in methods {
        group.bench_function(BenchmarkId::new("scores", label), |b| {
            b.iter(|| EdgeScores::compute(&graph, method, 1).unwrap().total())
        });
    }
    group.finish();
}

fn bench_point_query_backends(c: &mut Criterion) {
    let graph = generators::community_social_network(2_000, 14.0, 4, 0.02, 0xab5).unwrap();
    let ctx = GraphContext::preprocess(&graph).unwrap();
    let config = ApproxConfig::with_epsilon(0.1);
    let pairs: Vec<(usize, usize)> = NodePairQuerySet::uniform(&graph, 16, 2)
        .pairs()
        .iter()
        .map(|p| (p.s, p.t))
        .collect();

    let mut group = c.benchmark_group("point_query_backends");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));

    group.bench_function("geer_query", |b| {
        let mut est = Geer::new(&ctx, config);
        let mut i = 0;
        b.iter(|| {
            let (s, t) = pairs[i % pairs.len()];
            i += 1;
            est.estimate(s, t).unwrap().value
        })
    });

    // The index pays one CG solve per *new source*; cycling over the fixed
    // pair set measures the amortised per-query cost of the cached columns.
    group.bench_function("er_index_query", |b| {
        let index = ErIndex::build(&graph).unwrap();
        let mut i = 0;
        b.iter(|| {
            let (s, t) = pairs[i % pairs.len()];
            i += 1;
            index.resistance(s, t).unwrap()
        })
    });

    group.bench_function("landmark_bounds_query", |b| {
        let index = ErIndex::build(&graph).unwrap();
        let landmarks = LandmarkIndex::build(&index, 8, LandmarkSelection::Mixed, 1).unwrap();
        let mut i = 0;
        b.iter(|| {
            let (s, t) = pairs[i % pairs.len()];
            i += 1;
            landmarks.bounds(s, t).unwrap().estimate()
        })
    });

    // Raw walk throughput on the same graph, as a floor for the Monte Carlo
    // estimators' cost model.
    group.bench_function("walk_engine_1k_endpoints", |b| {
        let mut engine = WalkEngine::new(&graph);
        let mut rng = StdRng::seed_from_u64(11);
        b.iter(|| {
            engine
                .endpoint_histogram(pairs[0].0, 16, 1_000, &mut rng)
                .num_walks()
        })
    });

    group.finish();
}

criterion_group!(
    benches,
    bench_amc_walk_length,
    bench_amc_adaptive_tau,
    bench_geer_switch_rule,
    bench_edge_score_methods,
    bench_point_query_backends
);
criterion_main!(benches);
