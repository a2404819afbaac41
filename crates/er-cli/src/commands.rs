//! Implementation of the `er` subcommands.
//!
//! Each command takes the already-loaded graph plus its parsed flags and
//! returns the report it would print, so the command logic is unit-testable
//! without spawning processes or capturing stdout.

use crate::args::ParsedArgs;
use er_apps::{
    adjusted_rand_index, edge_criticality, modularity, ClusteringConfig, ResistanceClustering,
};
use er_core::{ApproxConfig, GraphContext, GroundTruth, GroundTruthMethod};
use er_graph::{Graph, GraphStats, NodePairQuerySet};
use er_service::{Accuracy, BackendChoice, Query, Request, ResistanceService};
use er_sparsify::{sample_sparsifier, EdgeScores, QualityEvaluator, SampleBudget, ScoreMethod};
use std::fmt::Write as _;

/// Shared estimator configuration from the common flags.
///
/// The defaults are [`ApproxConfig::default`] — in particular the seed, so
/// the CLI, the library and the benches all start from the same RNG state
/// unless `--seed` is passed.
pub fn approx_config(args: &ParsedArgs) -> Result<ApproxConfig, String> {
    let defaults = ApproxConfig::default();
    let config = ApproxConfig {
        epsilon: args.flag("epsilon", defaults.epsilon)?,
        delta: args.flag("delta", defaults.delta)?,
        tau: args.flag("tau", defaults.tau)?,
        seed: args.flag("seed", defaults.seed)?,
        threads: args.flag("threads", defaults.threads)?,
    };
    config.validate().map_err(|e| e.to_string())?;
    Ok(config)
}

/// The [`Accuracy`] requested by the common flags: `--exact`, or
/// `--walk-budget N`, or the ε/δ of the estimator configuration.
pub fn accuracy_from(args: &ParsedArgs, config: &ApproxConfig) -> Result<Accuracy, String> {
    if args.is_set("exact") {
        return Ok(Accuracy::Exact);
    }
    let budget: u64 = args.flag("walk-budget", 0u64)?;
    if budget > 0 {
        return Ok(Accuracy::WalkBudget(budget));
    }
    Ok(Accuracy::Epsilon {
        eps: config.epsilon,
        delta: config.delta,
    })
}

/// The `--backend` override, if any.
pub fn backend_from(args: &ParsedArgs) -> Result<Option<BackendChoice>, String> {
    match args.flags.get("backend") {
        None => Ok(None),
        Some(raw) => BackendChoice::parse(raw)
            .map(Some)
            .ok_or_else(|| format!("unknown --backend '{raw}'")),
    }
}

/// Refuses a flag the subcommand does not read, and an unknown subcommand,
/// so a misspelt flag is an error instead of a silent default. `main` calls
/// this before it loads the graph.
pub fn check_flags(args: &ParsedArgs) -> Result<(), String> {
    const CONFIG: &[&str] = &["epsilon", "delta", "tau", "seed", "threads"];
    let command = args.command.as_deref().unwrap_or("help");
    let (config, own): (bool, &[&str]) = match command {
        "stats" => (false, &[]),
        "query" if args.is_set("stream") => (
            true,
            &["stream", "exact", "walk-budget", "refresh-interval"],
        ),
        "query" => (
            true,
            &["exact", "walk-budget", "backend", "random", "check"],
        ),
        "profile" | "critical" => (true, &["top"]),
        "sparsify" => (true, &["scores", "samples", "quality-epsilon"]),
        "cluster" => (
            false,
            &["seed", "k", "iterations", "print-assignments", "stability"],
        ),
        "serve" => (
            true,
            &[
                "addr",
                "workers",
                "queue-depth",
                "max-connections",
                "read-timeout-ms",
            ],
        ),
        other => return Err(format!("unknown command '{other}'\n\n{}", usage())),
    };
    let mut flags: Vec<&String> = args.flags.keys().collect();
    flags.sort();
    for flag in flags {
        let name = flag.as_str();
        let read = name == "graph" || (config && CONFIG.contains(&name)) || own.contains(&name);
        if !read {
            return Err(format!("'{command}' does not take --{name}"));
        }
    }
    Ok(())
}

/// `er stats`: structural and spectral summary of the graph.
pub fn stats(graph: &Graph, _args: &ParsedArgs) -> Result<String, String> {
    let stats = GraphStats::compute(graph);
    let context = GraphContext::preprocess(graph).map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(out, "{stats:#?}");
    let _ = writeln!(
        out,
        "spectral bound lambda = max(|lambda_2|, |lambda_n|) = {:.6}",
        context.lambda()
    );
    let measured = match (context.lanczos_steps(), context.lambda_certified()) {
        (0, _) => "exact (dense)".to_string(),
        (steps, true) => format!("certified bound, {steps} Lanczos steps"),
        (steps, false) => format!("uncertified Ritz estimate, {steps} Lanczos steps"),
    };
    let _ = writeln!(
        out,
        "  (lambda_2 = {:.6}, lambda_n = {:.6}; {measured})",
        context.lambda2(),
        context.lambda_n()
    );
    Ok(out)
}

/// `er query s t [more pairs…]`: PER queries through the unified
/// [`ResistanceService`] — the planner picks the backend (override with
/// `--backend`, request exact answers with `--exact` or budgeted sampling
/// with `--walk-budget N`), and the report names the backend used and
/// itemises its cost. `--check` cross-checks against the exact solver.
pub fn query(graph: &Graph, args: &ParsedArgs) -> Result<String, String> {
    if let Some(path) = args.flags.get("stream") {
        return query_stream(graph, args, path);
    }
    let config = approx_config(args)?;
    let accuracy = accuracy_from(args, &config)?;
    let backend = backend_from(args)?;
    let service = ResistanceService::with_config(graph, config).map_err(|e| e.to_string())?;

    // Pairs come from positionals ("s t s t …") or --random N.
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    let positional: Vec<usize> = args
        .positional
        .iter()
        .map(|p| {
            p.parse::<usize>()
                .map_err(|_| format!("'{p}' is not a node id"))
        })
        .collect::<Result<_, _>>()?;
    for chunk in positional.chunks(2) {
        if let [s, t] = chunk {
            pairs.push((*s, *t));
        } else {
            return Err("query expects an even number of node ids (s t pairs)".into());
        }
    }
    let random: usize = args.flag("random", 0usize)?;
    if random > 0 {
        let set = NodePairQuerySet::uniform(graph, random, config.seed);
        pairs.extend(set.pairs().iter().map(|p| (p.s, p.t)));
    }
    if pairs.is_empty() {
        return Err("no query pairs: pass node ids or --random N".into());
    }

    // Edge-only backends (MC2, HAY) answer the edge-set shape; everything
    // else gets a batch.
    let query = match backend {
        Some(BackendChoice::Mc2) | Some(BackendChoice::Hay) => Query::edge_set(pairs.clone()),
        _ => Query::batch(pairs.clone()),
    };
    let request = Request {
        query,
        accuracy,
        backend,
    };
    let response = service.submit(&request).map_err(|e| e.to_string())?;

    let check = args.is_set("check");
    let truth = GroundTruth::with_method(graph, GroundTruthMethod::LaplacianSolve);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>8} {:>8} {:>12} {:>12}",
        "s",
        "t",
        "r'(s,t)",
        if check { "exact" } else { "" }
    );
    for (&(s, t), &value) in pairs.iter().zip(&response.values) {
        let exact = if check {
            format!("{:.6}", truth.resistance(s, t).map_err(|e| e.to_string())?)
        } else {
            String::new()
        };
        let _ = writeln!(out, "{s:>8} {t:>8} {value:>12.6} {exact:>12}");
    }
    let cost = response.cost;
    let _ = writeln!(
        out,
        "backend: {} | walks {} | walk-steps {} | matvec-ops {} | solver-its {} | trees {} | cache-hits {}",
        response.backend,
        cost.random_walks,
        cost.walk_steps,
        cost.matvec_ops,
        cost.solver_iterations,
        cost.spanning_trees,
        response.cache_hits
    );
    Ok(out)
}

/// `er query --stream <file>`: replays an edge-mutation/query trace through
/// the incremental [`er_service::DynamicResistanceService`].
///
/// Trace format, one op per line (`#` comments and blank lines skipped):
///
/// ```text
/// + u v    insert the undirected edge {u, v}
/// - u v    remove it
/// ? s t    query r(s, t) on the current graph
/// ```
///
/// Mutations only edit the overlay; the next query installs an incremental
/// epoch, or a full cold rebuild once `--refresh-interval K` mutations
/// (default 64) have passed since the last one. The closing report splits
/// the refreshes into incremental and full. A mutation advances carried
/// INDEX state by a Sherman–Morrison update (`sm-updates`) only once an
/// epoch has built that state, which `?` pair queries never do. Counted
/// mutations are the ones that changed the edge set: a duplicate insert, a
/// self-loop or the delete of an absent edge is not counted. The trace
/// names every queried pair, so node ids on the command line are refused.
fn query_stream(graph: &Graph, args: &ParsedArgs, path: &str) -> Result<String, String> {
    if !args.positional.is_empty() {
        return Err(format!(
            "'query --stream' takes its pairs from the trace, not node ids '{}'",
            args.positional.join(" ")
        ));
    }
    let config = approx_config(args)?;
    let accuracy = accuracy_from(args, &config)?;
    let interval: u64 = args.flag("refresh-interval", 64u64)?;
    let trace = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read stream trace '{path}': {e}"))?;
    let dynamic = er_service::DynamicResistanceService::from_graph(graph, config)
        .with_refresh_interval(interval);
    replay_stream(&dynamic, accuracy, &trace)
}

/// Replays the text of a `query --stream` trace through `dynamic` and
/// returns the report: a row per query, then the mutation and refresh
/// counters. The first malformed line, or mutation or query the service
/// refuses, ends the replay with an error.
fn replay_stream(
    dynamic: &er_service::DynamicResistanceService,
    accuracy: Accuracy,
    trace: &str,
) -> Result<String, String> {
    let mut out = String::new();
    let (mut inserts, mut deletes, mut queries) = (0u64, 0u64, 0u64);
    let _ = writeln!(out, "{:>6} {:>8} {:>8} {:>12}", "op", "s", "t", "r'(s,t)");
    for (lineno, raw) in trace.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let op = parts.next().expect("non-empty line");
        let mut node = |what: &str| -> Result<usize, String> {
            parts
                .next()
                .ok_or_else(|| format!("line {}: missing {what} node id", lineno + 1))?
                .parse::<usize>()
                .map_err(|_| format!("line {}: {what} is not a node id", lineno + 1))
        };
        let u = node("first")?;
        let v = node("second")?;
        if let Some(extra) = parts.next() {
            return Err(format!(
                "line {}: unexpected '{extra}' after the two node ids",
                lineno + 1
            ));
        }
        match op {
            "+" | "insert" => {
                inserts += u64::from(dynamic.insert_edge(u, v).map_err(|e| e.to_string())?);
            }
            "-" | "remove" | "delete" => {
                deletes += u64::from(dynamic.remove_edge(u, v).map_err(|e| e.to_string())?);
            }
            "?" | "query" => {
                let response = dynamic
                    .submit(&Request::new(Query::pair(u, v)).with_accuracy(accuracy))
                    .map_err(|e| e.to_string())?;
                queries += 1;
                let _ = writeln!(out, "{:>6} {u:>8} {v:>8} {:>12.6}", "?", response.value());
            }
            other => {
                return Err(format!(
                    "line {}: unknown op '{other}' (use + / - / ?)",
                    lineno + 1
                ))
            }
        }
    }
    let _ = writeln!(
        out,
        "stream: {} mutations ({inserts} inserts, {deletes} deletes), {queries} queries",
        inserts + deletes
    );
    let _ = writeln!(
        out,
        "refreshes: snapshot {} ({} full + {} incremental) | service {} | sm-updates {} | cg-fallbacks {}",
        dynamic.service_refreshes(),
        dynamic.snapshot_full_rebuilds(),
        dynamic.incremental_refreshes(),
        dynamic.service_refreshes(),
        dynamic.sm_updates(),
        dynamic.cg_fallbacks()
    );
    Ok(out)
}

/// `er serve`: runs the HTTP/1.1 front end over a [`er_service::ResistanceServer`]
/// until the process is killed (or the listener fails to bind).
///
/// The listen address is announced on stdout as `listening on <addr>` so
/// scripts (and the CI smoke step) can scrape the bound port when `--addr`
/// asked for port 0.
pub fn serve(graph: Graph, args: &ParsedArgs) -> Result<String, String> {
    let config = approx_config(args)?;
    let service = ResistanceService::with_config(graph, config).map_err(|e| e.to_string())?;
    let server_config = er_service::ServerConfig {
        workers: args.flag("workers", 0usize)?,
        queue_depth: args.flag("queue-depth", 1024usize)?,
        ..er_service::ServerConfig::default()
    };
    let handle = er_service::ResistanceServer::spawn(service, server_config);
    let http_config = er_http::HttpConfig {
        addr: args.flag_str("addr", "127.0.0.1:7411"),
        max_connections: args.flag("max-connections", 256usize)?,
        read_timeout: std::time::Duration::from_millis(args.flag("read-timeout-ms", 10_000u64)?),
        ..er_http::HttpConfig::default()
    };
    let server = er_http::HttpServer::bind(handle, http_config)
        .map_err(|e| format!("failed to bind listener: {e}"))?;
    println!("listening on {}", server.local_addr());
    // Stdout may be piped (the CI smoke step scrapes the port) — flush so
    // the announcement isn't stuck in a block buffer while we park.
    let _ = std::io::Write::flush(&mut std::io::stdout());
    server.join();
    Ok("server stopped".to_string())
}

/// `er critical`: the top `--top K` most critical (highest-resistance) edges.
pub fn critical(graph: &Graph, args: &ParsedArgs) -> Result<String, String> {
    let config = approx_config(args)?;
    let top: usize = args.flag("top", 10usize)?;
    let ranking = edge_criticality(graph, config).map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(out, "{:>8} {:>8} {:>12}", "u", "v", "r(u,v)");
    for edge in ranking.iter().take(top) {
        let _ = writeln!(out, "{:>8} {:>8} {:>12.4}", edge.u, edge.v, edge.resistance);
    }
    let bridges = ranking.iter().filter(|e| e.resistance > 0.99).count();
    let _ = writeln!(
        out,
        "\n{} of {} edges are (near-)bridges (r > 0.99)",
        bridges,
        ranking.len()
    );
    Ok(out)
}

/// `er sparsify`: build a spectral sparsifier and report its quality.
pub fn sparsify(graph: &Graph, args: &ParsedArgs) -> Result<String, String> {
    let config = approx_config(args)?;
    let method = match args.flag_str("scores", "geer").as_str() {
        "exact" => ScoreMethod::Exact,
        "geer" => ScoreMethod::Geer {
            epsilon: config.epsilon,
        },
        "trees" => ScoreMethod::SpanningTrees {
            samples: args.flag("samples", 200usize)?,
        },
        other => {
            return Err(format!(
                "unknown --scores method '{other}' (exact, geer, trees)"
            ))
        }
    };
    let quality_epsilon: f64 = args.flag("quality-epsilon", 0.4)?;
    let scores = EdgeScores::compute_with_threads(graph, method, config.seed, config.threads)
        .map_err(|e| e.to_string())?;
    let output = sample_sparsifier(
        graph,
        &scores,
        SampleBudget::SpectralGuarantee {
            epsilon: quality_epsilon,
            scale: 1.5,
        },
        config.seed,
    )
    .map_err(|e| e.to_string())?;
    let report = QualityEvaluator::new(graph).evaluate(&output.sparsifier);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "edge scores:       {:?} (Foster total {:.1}, n-1 = {})",
        method,
        scores.total(),
        graph.num_nodes() - 1
    );
    let _ = writeln!(out, "samples drawn:     {}", output.samples_drawn);
    let _ = writeln!(
        out,
        "edges kept:        {} of {} ({:.1}%)",
        output.distinct_edges,
        graph.num_edges(),
        100.0 * output.keep_fraction(graph)
    );
    let _ = writeln!(out, "connected:         {}", report.connected);
    let _ = writeln!(
        out,
        "max quad. distortion: {:.3}",
        report.max_quadratic_distortion
    );
    let _ = writeln!(
        out,
        "max cut distortion:   {:.3}",
        report.max_cut_distortion
    );
    let _ = writeln!(
        out,
        "meets epsilon {:.2}:   {}",
        quality_epsilon,
        report.satisfies(quality_epsilon)
    );
    Ok(out)
}

/// `er cluster`: resistance k-medoids clustering.
pub fn cluster(graph: &Graph, args: &ParsedArgs) -> Result<String, String> {
    let k: usize = args.flag("k", 2usize)?;
    let config = ClusteringConfig {
        num_clusters: k,
        max_iterations: args.flag("iterations", 12usize)?,
        seed: args.flag("seed", ApproxConfig::default().seed)?,
        ..ClusteringConfig::default()
    };
    let result = ResistanceClustering::new(graph, config)
        .run()
        .map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(out, "clusters:   {}", result.num_clusters());
    let _ = writeln!(out, "sizes:      {:?}", result.sizes());
    let _ = writeln!(out, "medoids:    {:?}", result.medoids);
    let _ = writeln!(
        out,
        "iterations: {} (converged: {})",
        result.iterations, result.converged
    );
    let _ = writeln!(
        out,
        "modularity: {:.3}",
        modularity(graph, &result.assignments)
    );
    if args.is_set("print-assignments") {
        let _ = writeln!(out, "assignments: {:?}", result.assignments);
    }
    // Self-consistency diagnostic: clustering twice with different seeds
    // should give essentially the same partition on well-separated graphs.
    if args.is_set("stability") {
        let alt = ResistanceClustering::new(
            graph,
            ClusteringConfig {
                seed: config.seed.wrapping_add(1),
                ..config
            },
        )
        .run()
        .map_err(|e| e.to_string())?;
        let _ = writeln!(
            out,
            "stability (ARI vs reseeded run): {:.3}",
            adjusted_rand_index(&result.assignments, &alt.assignments)
        );
    }
    Ok(out)
}

/// `er profile s`: single-source resistance profile and nearest neighbours.
pub fn profile(graph: &Graph, args: &ParsedArgs) -> Result<String, String> {
    let source: usize = match args.positional.first() {
        Some(raw) => raw
            .parse()
            .map_err(|_| format!("'{raw}' is not a node id"))?,
        None => return Err("profile expects a source node id".into()),
    };
    let top: usize = args.flag("top", 10usize)?;
    let config = approx_config(args)?;
    let service = ResistanceService::with_config(graph, config).map_err(|e| e.to_string())?;
    let nearest = service
        .submit(&Request::new(Query::top_k(source, top)))
        .map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "nearest {} nodes to {} by effective resistance:",
        nearest.nodes.len(),
        source
    );
    let _ = writeln!(out, "{:>8} {:>12} {:>8}", "node", "r", "degree");
    for (node, r) in nearest.nodes.iter().zip(&nearest.values) {
        let _ = writeln!(out, "{node:>8} {r:>12.4} {:>8}", graph.degree(*node));
    }
    let kirchhoff = service.kirchhoff_index().map_err(|e| e.to_string())?;
    let _ = writeln!(out, "\nKirchhoff index: {kirchhoff:.1}");
    let far = graph.num_nodes() - 1;
    let planned = service
        .submit(&Request::new(Query::pair(source, far)))
        .map_err(|e| e.to_string())?;
    let _ = writeln!(
        out,
        "r({source}, {far}) = {:.4} via {}",
        planned.value(),
        planned.backend
    );
    Ok(out)
}

/// The usage string printed by `er help` or on errors.
pub fn usage() -> String {
    "er — effective-resistance toolkit (SIGMOD 2023 reproduction)

USAGE:
    er <command> [args] [--graph <edge-list-path | family:n[:deg[:seed]]>] [flags]

COMMANDS:
    stats                       structural + spectral summary of the graph
    query <s> <t> […]           PER queries through the ResistanceService planner
                                (--random N, --check, --exact, --walk-budget N,
                                --backend geer|amc|smm|mc2|hay|
                                          exact|exact-cg|index;
                                --exact takes only exact|exact-cg|index)
                                --stream <file> replays an edge-mutation/query
                                trace ('+ u v' | '- u v' | '? s t' per line)
                                through the incremental dynamic service and
                                reports incremental-vs-full refresh counters
                                (--refresh-interval K, default 64)
    profile <s>                 single-source resistance profile (--top K)
    critical                    rank edges by criticality (--top K)
    sparsify                    build and evaluate a spectral sparsifier (--scores exact|geer|trees)
    cluster                     resistance k-medoids clustering (--k K, --stability)
    serve                       HTTP/1.1 front end over a ResistanceServer
                                (--addr HOST:PORT, --workers N, --queue-depth N,
                                --max-connections N, --read-timeout-ms N)
    help                        print this message

COMMON FLAGS (stats takes only --graph; cluster takes --graph and --seed):
    --graph <source>            edge-list file or synthetic spec (default: social:2000)
    --epsilon <f>               additive error ε (default 0.1)
    --delta <f>                 failure probability δ (default 0.01)
    --tau <n>                   AMC/GEER batches τ (default 5)
    --seed <n>                  RNG seed (default: the library default, 0x5eed)
    --threads <n>               worker threads for parallel sampling (default 0 = all
                                cores; results are identical at any thread count)
"
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use er_graph::generators;

    fn args(line: &str) -> ParsedArgs {
        ParsedArgs::parse(line.split_whitespace().map(str::to_string)).unwrap()
    }

    fn graph() -> Graph {
        generators::community_social_network(240, 10.0, 2, 0.01, 5).unwrap()
    }

    #[test]
    fn stats_reports_structure_and_spectrum() {
        let out = stats(&graph(), &args("stats")).unwrap();
        assert!(out.contains("lambda"));
        assert!(out.contains("num_nodes") || out.contains("GraphStats"));
        assert!(out.contains("; exact (dense))"), "{out}");
        let large = generators::social_network_like(300, 8.0, 3).unwrap();
        let out = stats(&large, &args("stats")).unwrap();
        assert!(out.contains("; certified bound, "), "{out}");
        assert!(out.contains(" Lanczos steps)"), "{out}");
    }

    #[test]
    fn query_supports_pairs_random_and_check() {
        let g = graph();
        let out = query(&g, &args("query 0 120 5 17 --epsilon 0.2 --check")).unwrap();
        assert_eq!(
            out.lines().count(),
            4,
            "header, two result rows, backend/cost summary"
        );
        assert!(out.contains("exact"));
        assert!(out.contains("backend:"));
        let out = query(&g, &args("query --random 3")).unwrap();
        assert_eq!(out.lines().count(), 5);
        assert!(query(&g, &args("query 1")).is_err(), "odd number of ids");
        assert!(query(&g, &args("query")).is_err(), "no pairs at all");
    }

    #[test]
    fn query_backend_override_and_accuracy_flags() {
        let g = graph();
        // The 240-node test graph sits below the planner's exact threshold.
        let auto = query(&g, &args("query 0 120")).unwrap();
        assert!(auto.contains("backend: EXACT-CG"), "{auto}");
        let forced = query(&g, &args("query 0 120 --backend geer")).unwrap();
        assert!(forced.contains("backend: GEER"), "{forced}");
        let exact = query(&g, &args("query 0 120 --exact")).unwrap();
        assert!(exact.contains("backend: EXACT-CG"), "{exact}");
        let sampled_exact = query(&g, &args("query 0 120 --exact --backend geer")).unwrap_err();
        assert!(sampled_exact.contains("exact backend"), "{sampled_exact}");
        let budgeted = query(
            &g,
            &args("query 0 120 --epsilon 0.5 --walk-budget 100000 --backend amc"),
        )
        .unwrap();
        assert!(budgeted.contains("backend: AMC"), "{budgeted}");
        // Without an override a walk budget goes to GEER, which answers
        // even a budget below AMC's first batch.
        let planned = query(&g, &args("query 0 120 --walk-budget 300")).unwrap();
        assert!(planned.contains("backend: GEER"), "{planned}");
        // Edge-only backends are reachable when the queried pairs are edges.
        let (s, t) = g.edges().next().unwrap();
        let hay = query(
            &g,
            &args(&format!("query {s} {t} --epsilon 0.3 --backend hay")),
        )
        .unwrap();
        assert!(hay.contains("backend: HAY"), "{hay}");
        assert!(
            query(&g, &args("query 0 120 --backend hay")).is_err(),
            "(0, 120) is not an edge"
        );
        assert!(query(&g, &args("query 0 120 --backend bogus")).is_err());
    }

    /// A mutation/query trace over the 240-node test graph.
    const STREAM_TRACE: &str = "# mutation/query trace\n\
                                ? 0 120\n\
                                + 0 120\n\
                                + 5 17\n\
                                + 5 200\n\
                                ? 0 120\n\
                                + 0 120\n\
                                + 9 9\n\
                                - 0 120\n\
                                - 0 120\n\
                                ? 0 120\n";

    #[test]
    fn query_stream_replays_a_trace_and_reports_refresh_counters() {
        let g = graph();
        assert!(g.has_edge(5, 17) && !g.has_edge(0, 120) && !g.has_edge(5, 200));
        let path = std::env::temp_dir().join("er_cli_stream_trace.txt");
        std::fs::write(&path, STREAM_TRACE).unwrap();
        let line = format!("query --stream {} --epsilon 0.2", path.display());
        let out = query(&g, &args(&line)).unwrap();
        assert_eq!(out.matches('?').count(), 3, "three query rows: {out}");
        // Inserting an edge already present (twice), a self-loop and the
        // second delete change nothing and are not counted.
        assert!(
            out.contains("stream: 3 mutations (2 inserts, 1 deletes), 3 queries"),
            "{out}"
        );
        assert!(out.contains("refreshes: snapshot"), "{out}");
        assert!(out.contains("incremental) | service"), "{out}");
        // Pair queries never build the INDEX state Sherman–Morrison carries.
        assert!(out.contains("sm-updates 0 |"), "{out}");
        // Node ids beside --stream are refused, not silently ignored.
        let with_ids = format!("query 0 5 --stream {} --epsilon 0.2", path.display());
        let err = query(&g, &args(&with_ids)).unwrap_err();
        assert!(err.contains("'0 5'"), "{err}");
        // Unknown ops, a third token and unreadable traces are reported,
        // not panicked on.
        std::fs::write(&path, "! 0 1\n").unwrap();
        assert!(query(&g, &args(&line)).is_err());
        std::fs::write(&path, "+ 1 2 3\n").unwrap();
        let err = query(&g, &args(&line)).unwrap_err();
        assert!(err.contains("line 1") && err.contains("'3'"), "{err}");
        let _ = std::fs::remove_file(&path);
        assert!(query(&g, &args(&line)).is_err(), "missing trace file");
    }

    /// Every replay of a mutated trace returns a report or an error; none
    /// panics. The trace is [`STREAM_TRACE`] moved onto a 36-node lollipop
    /// (ids 120 and 200 become 12 and 20), small enough that a few hundred
    /// replays, each refreshing by a dense eigensolve, take seconds in a
    /// debug build. Each replay applies one to three seeded bit flips,
    /// truncations or spliced tokens.
    #[test]
    fn mutated_stream_traces_replay_or_fail_without_panicking() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::panic::{catch_unwind, AssertUnwindSafe};

        // A 30-clique with a 6-node tail at node 0: every tail edge is a
        // bridge.
        let g = generators::lollipop(30, 6).unwrap();
        let base = STREAM_TRACE.replace("120", "12").replace("200", "20");
        const TOKENS: &[&str] = &[
            "-1",
            "99999999999999999999",
            "36",                  // one past the last node
            " 7",                  // a third field
            "\n! 1 2\n",           // an unknown op
            "\n+ 3 3\n",           // a self-loop
            "\n- 34 35\n? 0 35\n", // a bridge delete, then a query across it
        ];
        let accuracy = Accuracy::epsilon(0.2);
        let mut rng = StdRng::seed_from_u64(0x5747);
        let mut replayed = 0u32;
        for _ in 0..300 {
            let mut trace = base.clone().into_bytes();
            for _ in 0..rng.gen_range(1..=3usize) {
                let at = rng.gen_range(0..=trace.len());
                match rng.gen_range(0..3u32) {
                    0 if at < trace.len() => trace[at] ^= 1 << rng.gen_range(0..8u32),
                    1 => trace.truncate(at),
                    _ => {
                        let token = TOKENS[rng.gen_range(0..TOKENS.len())];
                        trace.splice(at..at, token.bytes());
                    }
                }
            }
            let trace = String::from_utf8_lossy(&trace).into_owned();
            let replay = catch_unwind(AssertUnwindSafe(|| {
                let dynamic =
                    er_service::DynamicResistanceService::from_graph(&g, ApproxConfig::default());
                replay_stream(&dynamic, accuracy, &trace)
            }));
            let report = replay.unwrap_or_else(|_| panic!("replay panicked on {trace:?}"));
            replayed += u32::from(report.is_ok());
        }
        // Both outcomes occur, so the fuzz reaches past the parser.
        assert!(
            0 < replayed && replayed < 300,
            "{replayed} of 300 replays ran"
        );
    }

    #[test]
    fn critical_and_sparsify_produce_reports() {
        let g = graph();
        let out = critical(&g, &args("critical --top 5 --epsilon 0.2")).unwrap();
        assert!(out.lines().count() >= 7);
        let out = sparsify(&g, &args("sparsify --scores trees --samples 60")).unwrap();
        assert!(out.contains("edges kept"));
        assert!(
            out.contains("true"),
            "the sparsifier of a small graph stays connected: {out}"
        );
        assert!(sparsify(&g, &args("sparsify --scores bogus")).is_err());
    }

    #[test]
    fn cluster_recovers_two_communities() {
        let g = graph();
        let out = cluster(&g, &args("cluster --k 2 --stability")).unwrap();
        assert!(out.contains("clusters:   2"));
        assert!(out.contains("modularity"));
        assert!(out.contains("stability"));
    }

    #[test]
    fn profile_lists_nearest_nodes() {
        let g = graph();
        let out = profile(&g, &args("profile 3 --top 4")).unwrap();
        assert!(out.contains("nearest 4 nodes"));
        assert!(out.contains("Kirchhoff"));
        assert!(profile(&g, &args("profile")).is_err());
        assert!(profile(&g, &args("profile notanode")).is_err());
    }

    #[test]
    fn flags_a_subcommand_does_not_read_are_refused() {
        let err = check_flags(&args("profile 3 --landmarks 4")).unwrap_err();
        assert!(err.contains("--landmarks"), "{err}");
        let err = check_flags(&args("query 0 5 --theads 2")).unwrap_err();
        assert!(err.contains("--theads"), "{err}");
        // The stream replay reads no --backend; stats reads no --seed.
        assert!(check_flags(&args("query --stream t.txt --backend geer")).is_err());
        assert!(check_flags(&args("stats --seed 3")).is_err());
        assert!(check_flags(&args("bogus")).is_err(), "unknown command");
        for line in [
            "query 0 5 --threads 2 --graph social:600 --backend index --check",
            "query --stream t.txt --refresh-interval 8 --exact",
            "profile 3 --top 4 --epsilon 0.2",
            "cluster --k 3 --seed 2 --stability",
            "serve --addr 127.0.0.1:0 --workers 2",
        ] {
            assert_eq!(check_flags(&args(line)), Ok(()), "{line}");
        }
    }

    #[test]
    fn config_flags_are_validated() {
        assert!(approx_config(&args("query --epsilon 0")).is_err());
        assert!(approx_config(&args("query --tau 0")).is_err());
        let config = approx_config(&args("query --epsilon 0.05 --seed 9 --threads 2")).unwrap();
        assert_eq!(config.epsilon, 0.05);
        assert_eq!(config.seed, 9);
        assert_eq!(config.threads, 2);
        assert_eq!(
            approx_config(&args("query")).unwrap().threads,
            0,
            "default: all cores"
        );
    }

    #[test]
    fn default_seed_is_the_library_default() {
        // The CLI must not invent its own seed default: the single source of
        // truth is ApproxConfig::default().
        assert_eq!(
            approx_config(&args("query")).unwrap().seed,
            ApproxConfig::default().seed
        );
        assert_eq!(
            approx_config(&args("query")).unwrap(),
            ApproxConfig::default()
        );
    }

    #[test]
    fn accuracy_and_backend_flags_parse() {
        let config = ApproxConfig::default();
        assert_eq!(
            accuracy_from(&args("query --exact"), &config).unwrap(),
            Accuracy::Exact
        );
        assert_eq!(
            accuracy_from(&args("query --walk-budget 500"), &config).unwrap(),
            Accuracy::WalkBudget(500)
        );
        assert_eq!(
            accuracy_from(&args("query"), &config).unwrap(),
            Accuracy::Epsilon {
                eps: config.epsilon,
                delta: config.delta
            }
        );
        assert_eq!(
            backend_from(&args("query --backend index")).unwrap(),
            Some(BackendChoice::Index)
        );
        assert_eq!(backend_from(&args("query")).unwrap(), None);
        assert!(backend_from(&args("query --backend nope")).is_err());
    }
}
