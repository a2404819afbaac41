//! Walk-kernel micro-benchmark: the PR-1 bulk-sampling path vs the
//! zero-allocation kernel, on a 100k-node Barabási–Albert graph.
//!
//! Five workloads, all single-threaded so the numbers isolate the per-walk
//! constant factor rather than parallel speedup:
//!
//! * `histogram_query` — many medium-sized `endpoint_histogram` queries (the
//!   shape TP/AMC issue per query): the old path pays a per-query O(n) dense
//!   tally on top of per-walk `StdRng` construction and `gen_range` stepping.
//! * `bulk_walks` — one large bulk call, measuring steady-state walks/sec
//!   where stepping dominates and the kernel's lane-interleaved lockstep
//!   hides the dependent cache-miss chain of each walk.
//! * `mc_escape` — MC-shaped variable-length escape walks: per-walk
//!   `escape_walk` stepping vs the variable-length lockstep lanes with
//!   immediate refill (`escape_trials`); the `mc_escape_walks_per_sec`
//!   metric in the trajectory entry.
//! * `amc_paired` — AMC-shaped walk pairs: sequential s-then-t walks per
//!   pair vs the paired lockstep driver (`batch_pairs`); the
//!   `amc_paired_pairs_per_sec` metric.
//! * `wilson_trees` — HAY-shaped uniform spanning trees: the sequential
//!   per-tree Wilson sampler vs the multi-root lockstep driver
//!   (`sample_spanning_trees`), with every tree's edge fingerprint and draw
//!   count asserted bit-identical before timing; the
//!   `wilson_trees_per_sec` metric.
//!
//! Every workload asserts bit-identical results between the old and kernel
//! paths before timing them.
//!
//! The old path is reproduced inline exactly as `WalkEngine` ran it before
//! the kernel landed (per-walk `StdRng::seed_from_u64(mix_seed(seed, i))`,
//! `Graph::random_neighbor` stepping, `vec![0; n]` tally). The binary also
//! cross-checks that the kernel path stays bit-identical at 1/2/8 threads.
//!
//! `BENCH_walk_kernel.json` (current directory — the repo root in CI) is an
//! **append-only trajectory**: a JSON array with one entry per PR, keyed by
//! git SHA. The binary appends its entry, replacing an existing entry for
//! the same SHA (re-runs must not duplicate), and never drops history — so
//! CI can diff the newest entry against the previous one. Override the key
//! with `BENCH_GIT_SHA=<sha>` when git is unavailable.
//!
//! Run with `cargo run --release -p er-bench --bin walk_kernel [--quick]
//! [--seed N]`.

use er_bench::args::BenchArgs;
use er_bench::baseline::pr1_endpoint_histogram;
use er_bench::trajectory::{append_to_trajectory, git_sha};
use er_graph::{generators, Graph};
use er_walks::hitting::{escape_trials, escape_walk, EscapeOutcome, EscapeTally};
use er_walks::{
    par, sample_spanning_tree, sample_spanning_trees, SpanningTree, StreamRng, WalkEngine,
    WalkKernel,
};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::time::Instant;

/// Best-of-`reps` wall-clock seconds for `work`, which must return its
/// walk count (used as an optimisation barrier and sanity check).
fn best_secs(reps: usize, mut work: impl FnMut() -> u64) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut walks = 0;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        walks = work();
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, walks)
}

struct WorkloadResult {
    name: &'static str,
    queries: u64,
    walks_per_query: u64,
    walk_len: usize,
    old_secs: f64,
    kernel_secs: f64,
}

impl WorkloadResult {
    fn total_walks(&self) -> u64 {
        self.queries * self.walks_per_query
    }
    fn old_walks_per_sec(&self) -> f64 {
        self.total_walks() as f64 / self.old_secs
    }
    fn kernel_walks_per_sec(&self) -> f64 {
        self.total_walks() as f64 / self.kernel_secs
    }
    fn old_query_ms(&self) -> f64 {
        1e3 * self.old_secs / self.queries as f64
    }
    fn kernel_query_ms(&self) -> f64 {
        1e3 * self.kernel_secs / self.queries as f64
    }
    fn speedup(&self) -> f64 {
        self.old_secs / self.kernel_secs
    }

    fn json(&self) -> String {
        format!(
            "    {{\n      \"name\": \"{}\",\n      \"queries\": {},\n      \
             \"walks_per_query\": {},\n      \"walk_len\": {},\n      \
             \"old\": {{\"walks_per_sec\": {:.0}, \"query_ms\": {:.4}}},\n      \
             \"kernel\": {{\"walks_per_sec\": {:.0}, \"query_ms\": {:.4}}},\n      \
             \"speedup\": {:.3}\n    }}",
            self.name,
            self.queries,
            self.walks_per_query,
            self.walk_len,
            self.old_walks_per_sec(),
            self.old_query_ms(),
            self.kernel_walks_per_sec(),
            self.kernel_query_ms(),
            self.speedup()
        )
    }
}

fn run_workload(
    graph: &Graph,
    name: &'static str,
    queries: u64,
    walks_per_query: u64,
    walk_len: usize,
    seed: u64,
    reps: usize,
) -> WorkloadResult {
    // Both paths consume one fan seed per query from the same caller RNG
    // position, mirroring how estimators drive the engine.
    let (old_secs, old_walks) = best_secs(reps, || {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut total = 0;
        for q in 0..queries {
            let start = (q as usize * 131) % graph.num_nodes();
            let fan_seed = rand::RngCore::next_u64(&mut rng);
            let (counts, _) =
                pr1_endpoint_histogram(graph, start, walk_len, walks_per_query, fan_seed);
            total += counts.iter().sum::<u64>();
        }
        total
    });
    let (kernel_secs, kernel_walks) = best_secs(reps, || {
        let mut engine = WalkEngine::new(graph).with_threads(1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut total = 0;
        for q in 0..queries {
            let start = (q as usize * 131) % graph.num_nodes();
            let hist = engine.endpoint_histogram(start, walk_len, walks_per_query, &mut rng);
            total += (0..graph.num_nodes()).map(|v| hist.count(v)).sum::<u64>();
        }
        total
    });
    assert_eq!(old_walks, queries * walks_per_query, "old path lost walks");
    assert_eq!(kernel_walks, queries * walks_per_query, "kernel lost walks");
    WorkloadResult {
        name,
        queries,
        walks_per_query,
        walk_len,
        old_secs,
        kernel_secs,
    }
}

/// MC-shaped escape walks (variable length, first-hit-or-return
/// termination): the PR-4 path stepped each trial alone through
/// `escape_walk`; the kernel path runs the same streams on the
/// variable-length lockstep lanes with immediate refill. Both paths consume
/// identical draws, so the tallies must agree bit for bit — asserted here.
fn run_mc_escape(
    graph: &Graph,
    trials: u64,
    max_steps: usize,
    seed: u64,
    reps: usize,
) -> WorkloadResult {
    let (s, t) = (0, graph.neighbors(0)[0]);
    let mut old_tally = EscapeTally::default();
    let (old_secs, old_walks) = best_secs(reps, || {
        let mut tally = EscapeTally::default();
        for i in 0..trials {
            let mut rng = par::stream_rng(seed, i);
            match escape_walk(graph, s, t, max_steps, &mut rng) {
                EscapeOutcome::ReachedTarget { steps } => {
                    tally.reached += 1;
                    tally.steps += steps as u64;
                }
                EscapeOutcome::ReturnedToSource { steps } => {
                    tally.returned += 1;
                    tally.steps += steps as u64;
                }
                EscapeOutcome::Truncated => {
                    tally.truncated += 1;
                    tally.steps += max_steps as u64;
                }
            }
        }
        old_tally = tally;
        tally.trials()
    });
    let (kernel_secs, kernel_walks) = best_secs(reps, || {
        let tally = escape_trials(graph, s, t, max_steps, trials, seed, 1);
        assert_eq!(tally, old_tally, "lane port must preserve escape tallies");
        tally.trials()
    });
    assert_eq!(old_walks, trials);
    assert_eq!(kernel_walks, trials);
    WorkloadResult {
        name: "mc_escape",
        queries: 1,
        walks_per_query: trials,
        walk_len: max_steps,
        old_secs,
        kernel_secs,
    }
}

/// AMC-shaped walk pairs: the PR-4 path ran each pair's s-walk then t-walk
/// sequentially on its own stream; the kernel path advances a lane block of
/// pairs together through `batch_pairs` on the same streams. Per-pair f64
/// accumulation order is preserved, so the sums must agree bit for bit.
fn run_amc_paired(graph: &Graph, pairs: u64, len: usize, seed: u64, reps: usize) -> WorkloadResult {
    let (s, t) = (0, graph.num_nodes() / 2);
    let (ds, dt) = (graph.degree(s) as f64, graph.degree(t) as f64);
    let weight = move |u: usize| {
        if u == s {
            1.0 / ds
        } else if u == t {
            -1.0 / dt
        } else {
            0.0
        }
    };
    let mut old_sums = (0u64, 0u64);
    let (old_secs, old_pairs) = best_secs(reps, || {
        let kernel = WalkKernel::new(graph);
        let mut z_sum = 0.0f64;
        let mut z_sq = 0.0f64;
        for k in 0..pairs {
            let mut rng = par::stream_rng(seed, k);
            let mut z_k = 0.0;
            kernel.for_each_visit(s, len, &mut rng, |u| z_k += weight(u));
            kernel.for_each_visit(t, len, &mut rng, |u| z_k -= weight(u));
            z_sum += z_k;
            z_sq += z_k * z_k;
        }
        old_sums = (z_sum.to_bits(), z_sq.to_bits());
        pairs
    });
    let (kernel_secs, kernel_pairs) = best_secs(reps, || {
        let kernel = WalkKernel::new(graph);
        let mut z_sum = 0.0f64;
        let mut z_sq = 0.0f64;
        kernel.batch_pairs(
            s,
            t,
            len,
            seed,
            0..pairs,
            &|u, z_k: &mut f64| *z_k += weight(u),
            &|u, z_k: &mut f64| *z_k -= weight(u),
            &mut |_, z_k, _| {
                z_sum += z_k;
                z_sq += z_k * z_k;
            },
        );
        assert_eq!(
            (z_sum.to_bits(), z_sq.to_bits()),
            old_sums,
            "paired driver must preserve AMC's accumulation bits"
        );
        pairs
    });
    assert_eq!(old_pairs, pairs);
    assert_eq!(kernel_pairs, pairs);
    WorkloadResult {
        name: "amc_paired",
        queries: 1,
        walks_per_query: pairs,
        walk_len: len,
        old_secs,
        kernel_secs,
    }
}

/// Draw-counting RNG wrapper: lets the sequential Wilson path report how
/// many u64s each tree consumed, for comparison against the lockstep
/// driver's per-tree step counts (one draw per step, by construction).
struct CountingRng {
    inner: StreamRng,
    draws: u64,
}

impl RngCore for CountingRng {
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.inner.next_u64()
    }
}

/// Order-sensitive fingerprint of a tree's parent edges, cheap enough to
/// fold into the timed loop without dominating it.
fn tree_fingerprint(tree: &SpanningTree) -> u64 {
    let mut h = 0u64;
    tree.for_each_edge(|u, v| h = h.wrapping_add(par::mix_seed(u as u64 + 1, v as u64 + 1)));
    h
}

/// HAY-shaped uniform spanning trees: the PR-6 path grew one tree at a time
/// on its own `stream_rng(seed, i)`; the lockstep driver grows a lane block
/// of trees concurrently on the same streams. Every tree's edge fingerprint
/// and draw count must match the sequential sampler bit for bit — asserted
/// before the kernel timing counts.
fn run_wilson_trees(graph: &Graph, trees: u64, seed: u64, reps: usize) -> WorkloadResult {
    let mut old_trees_fp: Vec<(u64, u64)> = Vec::new();
    let (old_secs, old_done) = best_secs(reps, || {
        let mut fps = Vec::with_capacity(trees as usize);
        for i in 0..trees {
            let mut rng = CountingRng {
                inner: par::stream_rng(seed, i),
                draws: 0,
            };
            let tree = sample_spanning_tree(graph, 0, &mut rng);
            fps.push((tree_fingerprint(&tree), rng.draws));
        }
        old_trees_fp = fps;
        trees
    });
    let (kernel_secs, kernel_done) = best_secs(reps, || {
        let mut fps = vec![(0u64, 0u64); trees as usize];
        sample_spanning_trees(graph, 0, seed, 0..trees, &mut |i, tree, steps| {
            fps[i as usize] = (tree_fingerprint(tree), steps);
        });
        assert_eq!(
            fps, old_trees_fp,
            "lockstep Wilson must preserve every tree and its draw schedule"
        );
        trees
    });
    assert_eq!(old_done, trees);
    assert_eq!(kernel_done, trees);
    WorkloadResult {
        name: "wilson_trees",
        queries: 1,
        walks_per_query: trees,
        walk_len: 0,
        old_secs,
        kernel_secs,
    }
}

/// Bit-identity of the kernel path across thread counts, on the bench graph.
fn check_determinism(graph: &Graph, seed: u64) -> bool {
    let run = |threads: usize| {
        let mut engine = WalkEngine::new(graph).with_threads(threads);
        let mut rng = StdRng::seed_from_u64(seed);
        let hist = engine.endpoint_histogram(1, 12, 20_000, &mut rng);
        (0..graph.num_nodes())
            .map(|v| hist.count(v))
            .collect::<Vec<_>>()
    };
    let base = run(1);
    [2usize, 8].iter().all(|&t| run(t) == base)
}

fn main() {
    let args = BenchArgs::from_env();
    let attach = 8;
    let nodes = 100_000;
    eprintln!("generating barabasi_albert({nodes}, {attach}) ...");
    let graph = generators::barabasi_albert(nodes, attach, 0xba).expect("generator");
    eprintln!(
        "graph: n = {}, m = {}, quick = {}",
        graph.num_nodes(),
        graph.num_edges(),
        args.quick
    );

    let reps = if args.quick { 2 } else { 5 };
    let queries = if args.quick { 8 } else { 32 };
    let workloads = [
        run_workload(
            &graph,
            "histogram_query",
            queries,
            5_000,
            16,
            args.seed,
            reps,
        ),
        run_workload(
            &graph,
            "bulk_walks",
            1,
            if args.quick { 100_000 } else { 400_000 },
            16,
            args.seed ^ 0xb0, // decorrelate from the query workload
            reps,
        ),
        run_mc_escape(
            &graph,
            if args.quick { 1_000 } else { 4_000 },
            100_000,
            args.seed ^ 0xe5,
            reps,
        ),
        run_amc_paired(
            &graph,
            if args.quick { 50_000 } else { 200_000 },
            16,
            args.seed ^ 0xa3,
            reps,
        ),
        run_wilson_trees(
            &graph,
            if args.quick { 8 } else { 32 },
            args.seed ^ 0x77,
            reps,
        ),
    ];

    println!(
        "{:<18} {:>14} {:>16} {:>12} {:>12} {:>9}",
        "workload", "old walks/s", "kernel walks/s", "old ms/q", "kernel ms/q", "speedup"
    );
    for w in &workloads {
        println!(
            "{:<18} {:>14.0} {:>16.0} {:>12.4} {:>12.4} {:>8.2}x",
            w.name,
            w.old_walks_per_sec(),
            w.kernel_walks_per_sec(),
            w.old_query_ms(),
            w.kernel_query_ms(),
            w.speedup()
        );
    }

    let deterministic = check_determinism(&graph, args.seed);
    assert!(
        deterministic,
        "kernel path must be bit-identical at 1/2/8 threads"
    );
    println!("determinism: kernel results bit-identical at 1/2/8 threads");

    let created = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let sha = git_sha();
    let mc_escape = workloads
        .iter()
        .find(|w| w.name == "mc_escape")
        .expect("mc_escape workload present");
    let amc_paired = workloads
        .iter()
        .find(|w| w.name == "amc_paired")
        .expect("amc_paired workload present");
    let wilson = workloads
        .iter()
        .find(|w| w.name == "wilson_trees")
        .expect("wilson_trees workload present");
    let entry = format!(
        "{{\n  \"bench\": \"walk_kernel\",\n  \"git_sha\": \"{sha}\",\n  \
         \"created_unix\": {created},\n  \
         \"quick\": {},\n  \"seed\": {},\n  \
         \"graph\": {{\"model\": \"barabasi_albert\", \"nodes\": {}, \"attach\": {attach}, \
         \"edges\": {}}},\n  \
         \"determinism\": {{\"threads_checked\": [1, 2, 8], \"bit_identical\": {deterministic}}},\n  \
         \"metrics\": {{\"mc_escape_walks_per_sec\": {:.0}, \"amc_paired_pairs_per_sec\": {:.0}, \
         \"wilson_trees_per_sec\": {:.2}}},\n  \
         \"workloads\": [\n{}\n  ]\n}}",
        args.quick,
        args.seed,
        graph.num_nodes(),
        graph.num_edges(),
        mc_escape.kernel_walks_per_sec(),
        amc_paired.kernel_walks_per_sec(),
        wilson.kernel_walks_per_sec(),
        workloads
            .iter()
            .map(|w| w.json())
            .collect::<Vec<_>>()
            .join(",\n")
    );
    let path = "BENCH_walk_kernel.json";
    let total = append_to_trajectory(path, &entry, &sha);
    println!("appended entry {sha} to {path} ({total} entries in the trajectory)");
}
