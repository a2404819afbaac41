//! Planner-threshold calibration sweep: the CG-vs-GEER crossover per graph
//! family.
//!
//! The service planner answers ε-target pair queries on fast-mixing graphs
//! exactly (one CG solve) at or below
//! [`EXACT_NODE_THRESHOLD`](er_service::planner::EXACT_NODE_THRESHOLD)
//! nodes, and by GEER sampling above it. This sweep measures the actual
//! per-pair latency of both backends — forced through the service front
//! door, so the timing includes everything a real request pays — across
//! sizes and graph families, and reports the empirical crossover, the data
//! that constant is set from.
//!
//! Output: one table row per (family, n) with per-pair milliseconds for
//! EXACT-CG and GEER and the cheaper choice, then a per-family crossover
//! summary (the smallest measured n at which GEER wins; `>max` when CG wins
//! everywhere measured — meaning the threshold could be raised).
//!
//! Run with `cargo run --release -p er-bench --bin planner_calibration
//! [--quick] [--seed N] [--epsilons 0.1,0.2]`.

use er_bench::args::BenchArgs;
use er_core::ApproxConfig;
use er_graph::{generators, Graph};
use er_service::{planner, Accuracy, BackendChoice, Query, Request, ResistanceService};
use std::time::Instant;

struct Family {
    name: &'static str,
    build: fn(usize, u64) -> Graph,
}

fn families() -> Vec<Family> {
    vec![
        Family {
            name: "social",
            build: |n, seed| generators::social_network_like(n, 10.0, seed).expect("generator"),
        },
        Family {
            name: "ba",
            build: |n, seed| generators::barabasi_albert(n, 5, seed).expect("generator"),
        },
        Family {
            // Small-world ring lattice (k = 4 keeps triangles, so the graph
            // is non-bipartite as preprocessing requires).
            name: "smallworld",
            build: |n, seed| generators::watts_strogatz(n, 4, 0.1, seed).expect("generator"),
        },
    ]
}

/// Mean per-pair milliseconds for `backend` on `pairs`, forced through the
/// service (a fresh service per measurement so no cache/memoization leaks
/// between backends).
fn per_pair_ms(
    graph: &Graph,
    config: ApproxConfig,
    eps: f64,
    backend: BackendChoice,
    pairs: &[(usize, usize)],
    reps: usize,
) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let service = ResistanceService::with_config(graph, config).expect("ergodic graph");
        let start = Instant::now();
        for &(s, t) in pairs {
            let request = Request::new(Query::pair(s, t))
                .with_accuracy(Accuracy::epsilon(eps))
                .with_backend(backend);
            let _ = service.submit(&request).expect("valid pair");
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    1e3 * best / pairs.len() as f64
}

fn main() {
    let args = BenchArgs::from_env();
    let sizes: Vec<usize> = if args.quick {
        vec![256, 1024, 2048]
    } else {
        vec![256, 512, 1024, 2048, 4096]
    };
    let epsilons = args.epsilons_or(&[0.1]);
    let pairs_per_point = if args.quick { 4 } else { 10 };
    let reps = if args.quick { 1 } else { 2 };
    let config = ApproxConfig {
        seed: args.seed,
        threads: 1, // single-threaded: calibrate the per-query constant
        ..ApproxConfig::default()
    };

    println!(
        "{:<8} {:>6} {:>6} {:>12} {:>12} {:>9}",
        "family", "n", "eps", "cg ms/pair", "geer ms/pair", "winner"
    );
    for eps in &epsilons {
        for family in families() {
            let mut crossover: Option<usize> = None;
            for &n in &sizes {
                let graph = (family.build)(n, args.seed ^ n as u64);
                let nn = graph.num_nodes();
                let pairs: Vec<(usize, usize)> = (0..pairs_per_point)
                    .map(|i| {
                        let s = (i * 131) % nn;
                        let t = (s + nn / 2 + i) % nn;
                        if s == t {
                            (s, (t + 1) % nn)
                        } else {
                            (s, t)
                        }
                    })
                    .collect();
                let cg = per_pair_ms(&graph, config, *eps, BackendChoice::ExactCg, &pairs, reps);
                let geer = per_pair_ms(&graph, config, *eps, BackendChoice::Geer, &pairs, reps);
                let winner = if geer < cg { "GEER" } else { "EXACT-CG" };
                if geer < cg && crossover.is_none() {
                    crossover = Some(nn);
                }
                println!(
                    "{:<8} {:>6} {:>6.2} {:>12.3} {:>12.3} {:>9}",
                    family.name, nn, eps, cg, geer, winner
                );
            }
            match crossover {
                Some(n) => println!(
                    "==> {} @ eps {:.2}: GEER first wins at n = {} \
                     (candidate EXACT_NODE_THRESHOLD)",
                    family.name, eps, n
                ),
                None => println!(
                    "==> {} @ eps {:.2}: EXACT-CG wins at every measured size \
                     (EXACT_NODE_THRESHOLD could be raised past {})",
                    family.name,
                    eps,
                    sizes.last().unwrap()
                ),
            }
        }
    }
    println!(
        "\nplanner constants: EXACT_NODE_THRESHOLD = {}, REPEATED_SOURCE_THRESHOLD = {}, \
         SLOW_MIXING_GAP = {}",
        planner::EXACT_NODE_THRESHOLD,
        planner::REPEATED_SOURCE_THRESHOLD,
        planner::SLOW_MIXING_GAP
    );
}
