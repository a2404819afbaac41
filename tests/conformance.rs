//! End-to-end accuracy conformance: every serving path that answers pair
//! queries is checked against ground truth, not only bit for bit against
//! another path of the same system.
//!
//! Truth is [`AllPairsResistance`] on small graphs from each generator
//! family: Barabási–Albert, Watts–Strogatz, social-network-like and a
//! barbell, whose bridge gives it a spectral gap of about 0.01. One seeded
//! pair set per graph goes through each path:
//!
//! * [`ResistanceService`] with the default planner;
//! * the `ExactCg`, `ExactDense` and `Index` overrides at `Exact`, and the
//!   `Geer`, `Amc` and `Smm` overrides at ε;
//! * HAY on a seeded set of graph edges, sent as one edge-set query at ε
//!   with the `Hay` override;
//! * MC2 on the first five of those edges, as one edge-set query at ε with
//!   the `Mc2` override, in release builds only (see below);
//! * AMC on the barbell's first five pairs at ε = 0.2 with the `Amc`
//!   override, in release builds only (see below);
//! * INDEX on one ε batch of [`REPEATED_SOURCE_THRESHOLD`] distinct pairs
//!   from one source, which the default planner sends to the index as a
//!   repeated-source batch, whether it builds the index for the batch or
//!   finds it warm;
//! * INDEX on source shapes through the default planner: the single-source
//!   row and the top 5 of three sources per graph, and the Kirchhoff index
//!   from a `Diagonal` query;
//! * a [`ServerHandle`] answering queued pairs in coalesced batches, its ε
//!   requests with the `Geer` override;
//! * er-http `POST /query`, its ε requests with `"backend":"geer"`;
//! * a [`DynamicResistanceService`] whose INDEX state is carried by
//!   Sherman–Morrison updates through an insert/delete stream and dropped
//!   at full rebuilds and bridge deletes, checked after every mutation
//!   against the truth on the mutated graph.
//!
//! Those four graphs have at most 200 nodes. There λ is the exact dense
//! eigenvalue (n ≤ 256) and the default planner answers ε pairs exactly
//! (n ≤ `EXACT_NODE_THRESHOLD`). A fifth graph, social-network-like with
//! 600 nodes and a spectral gap of about 0.37, is above both cutoffs: its
//! λ is the certified Lanczos bound, and the default planner sends its ε
//! pairs to GEER, whose walk length reads that λ. It goes through the
//! default planner in process, through the server and over HTTP, and
//! through a dynamic service whose incremental refreshes certify λ by warm
//! Lanczos, each checked against the truth on the current graph.
//!
//! What is asserted:
//!
//! * `Exact` answers, INDEX-served ε answers and INDEX source shapes are
//!   within [`EXACT_TOL`] of the truth (the Kirchhoff index relatively).
//! * ε answers are within ε at an observed rate of at least 1 − δ, up to a
//!   binomial slack. Each answer may miss with probability δ, so a path
//!   with `n` answers may show [`allowed_misses`]`(n, δ)` misses: the
//!   smallest `k` with `P[Bin(n, δ) > k] ≤ 1e-6`. At `n = 80` and
//!   δ = 0.01 that is 8 misses.
//! * An ε = 0.5 answer never serves a later ε = 0.05 request of the same
//!   cache class.
//! * `Exact` with a sampling override is a typed error, in process, through
//!   the server and over HTTP.
//!
//! Left out of the ε assertions:
//!
//! * MC2 in debug builds: its trial count `3 ln(1/δ)/(ε²γ)` at the default
//!   γ = 1/(2m) is `6m ln(1/δ)/ε²`, about 1.2 million first-hit walks per
//!   edge of the BA graph. Five edges per graph take about 12 s in release
//!   on a 2-vCPU VM and minutes in debug.
//! * AMC on the barbell at ε = 0.1, and in debug builds: its walk count
//!   grows with the walk length, which grows with 1/gap. One barbell pair
//!   took 60 s in a debug build. In release on a 2-vCPU VM, the barbell's 20
//!   pairs took 281 s at ε = 0.1 and 55 s at ε = 0.2, and its first five
//!   pairs take about 5 s at ε = 0.2, the size the release-only test runs.
//!   The planner never sends ε requests on slow-mixing graphs to AMC; the
//!   override is checked at ε = 0.1 on the other three graphs.

use effective_resistance::graph::{
    generators, EdgeQuerySet, Graph, GraphBuilder, NodePairQuerySet,
};
use effective_resistance::http::json::Json;
use effective_resistance::index::{AllPairsResistance, IndexError};
use effective_resistance::service::planner::REPEATED_SOURCE_THRESHOLD;
use effective_resistance::{
    Accuracy, ApproxConfig, BackendChoice, DynamicResistanceService, GraphContext, HttpConfig,
    HttpServer, Query, Request, ResistanceServer, ResistanceService, ServerConfig, ServerHandle,
    ServiceError,
};
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::OnceLock;

/// Tolerance of `Exact` answers against the truth.
const EXACT_TOL: f64 = 1e-6;

/// The ε of the sampled paths; δ is the library default, 0.01.
const EPS: f64 = 0.1;

/// Pairs, and edges, drawn per graph.
const PAIRS: usize = 20;

/// One ground-truth fixture: a graph, its all-pairs resistances and a
/// seeded pair set.
struct Case {
    name: &'static str,
    /// The graph, preprocessed once: the dense eigensolve takes up to
    /// seconds per graph in a debug build.
    context: GraphContext,
    truth: AllPairsResistance,
    pairs: Vec<(usize, usize)>,
    /// Graph edges, drawn uniformly with replacement.
    edges: Vec<(usize, usize)>,
}

impl Case {
    fn new(name: &'static str, graph: Graph, seed: u64) -> Case {
        let truth = AllPairsResistance::compute(&graph).unwrap();
        Case {
            name,
            context: GraphContext::preprocess(&graph).unwrap(),
            truth,
            pairs: uniform_pairs(&graph, PAIRS, seed),
            edges: EdgeQuerySet::uniform(&graph, PAIRS, seed)
                .pairs()
                .iter()
                .map(|p| (p.s, p.t))
                .collect(),
        }
    }

    fn service(&self) -> ResistanceService {
        ResistanceService::from_context(self.context.clone(), config())
    }

    /// A two-worker server over [`Case::service`], started paused so a
    /// test can queue tickets before any runs.
    fn server(&self) -> ServerHandle {
        ResistanceServer::spawn(
            self.service(),
            ServerConfig {
                workers: 2,
                start_paused: true,
                ..ServerConfig::default()
            },
        )
    }
}

/// The fixtures, built once and shared by every test.
fn cases() -> &'static [Case] {
    static CASES: OnceLock<Vec<Case>> = OnceLock::new();
    CASES.get_or_init(|| {
        vec![
            Case::new("ba", generators::barabasi_albert(150, 3, 11).unwrap(), 1),
            Case::new("ws", generators::watts_strogatz(120, 6, 0.1, 5).unwrap(), 2),
            Case::new(
                "social",
                generators::social_network_like(200, 8.0, 7).unwrap(),
                3,
            ),
            Case::new("barbell", generators::barbell(8, 2).unwrap(), 4),
        ]
    })
}

/// The fixture above the dense and exact cutoffs (see the module docs),
/// built once: `AllPairsResistance` takes about 2 s here in a debug build.
fn lanczos_case() -> &'static Case {
    static CASE: OnceLock<Case> = OnceLock::new();
    CASE.get_or_init(|| {
        Case::new(
            "social-600",
            generators::social_network_like(600, 8.0, 5).unwrap(),
            5,
        )
    })
}

fn uniform_pairs(graph: &Graph, count: usize, seed: u64) -> Vec<(usize, usize)> {
    NodePairQuerySet::uniform(graph, count, seed)
        .pairs()
        .iter()
        .map(|p| (p.s, p.t))
        .collect()
}

fn config() -> ApproxConfig {
    ApproxConfig::with_epsilon(EPS).reseeded(7)
}

fn epsilon(eps: f64) -> Accuracy {
    Accuracy::Epsilon {
        eps,
        delta: config().delta,
    }
}

fn pair(s: usize, t: usize, accuracy: Accuracy) -> Request {
    Request::new(Query::pair(s, t)).with_accuracy(accuracy)
}

/// The most ε-misses `n` answers may show when each one misses with
/// probability at most `delta`: the smallest `k` with
/// `P[Bin(n, delta) > k] ≤ 1e-6`.
fn allowed_misses(n: usize, delta: f64) -> usize {
    let mut pmf = (1.0 - delta).powi(n as i32);
    let mut cdf = pmf;
    let mut k = 0;
    while 1.0 - cdf > 1e-6 && k < n {
        pmf *= (n - k) as f64 / (k + 1) as f64 * delta / (1.0 - delta);
        k += 1;
        cdf += pmf;
    }
    k
}

/// One path's ε answers, tallied against the truth.
#[derive(Default)]
struct EpsilonTally {
    answers: usize,
    misses: Vec<String>,
}

impl EpsilonTally {
    fn check(&mut self, case: &Case, (s, t): (usize, usize), value: f64, eps: f64) {
        let exact = case.truth.get(s, t);
        self.answers += 1;
        if (value - exact).abs() > eps {
            let name = case.name;
            self.misses
                .push(format!("{name} ({s}, {t}): {value} vs {exact}"));
        }
    }

    fn assert_rate(&self, path: &str) {
        let allowed = allowed_misses(self.answers, config().delta);
        assert!(
            self.misses.len() <= allowed,
            "{path}: {} of {} answers miss ε (allowed {allowed}): {:#?}",
            self.misses.len(),
            self.answers,
            self.misses
        );
    }
}

fn assert_exact(case: &Case, path: &str, (s, t): (usize, usize), value: f64) {
    let exact = case.truth.get(s, t);
    assert!(
        (value - exact).abs() <= EXACT_TOL,
        "{path} on {} ({s}, {t}): {value} vs {exact}",
        case.name
    );
}

/// One `POST /query` on a kept-alive connection: the status and the JSON
/// body.
fn post_query(stream: &mut TcpStream, body: &str) -> (u16, Json) {
    let raw = format!(
        "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(raw.as_bytes()).unwrap();
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break end;
        }
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "connection closed mid-head");
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end]).unwrap().to_string();
    let status = head.split(' ').nth(1).unwrap().parse().unwrap();
    let length: usize = head
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(str::to_string)
        })
        .and_then(|v| v.trim().parse().ok())
        .unwrap();
    while buf.len() < head_end + 4 + length {
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "connection closed mid-body");
        buf.extend_from_slice(&chunk[..n]);
    }
    let body = std::str::from_utf8(&buf[head_end + 4..head_end + 4 + length]).unwrap();
    (status, Json::parse(body).unwrap())
}

fn wire_value(reply: &Json) -> f64 {
    reply.get("values").and_then(Json::as_array).unwrap()[0]
        .as_f64()
        .unwrap()
}

#[test]
fn binomial_slack_matches_its_definition() {
    assert_eq!(allowed_misses(1, 0.01), 1);
    assert_eq!(allowed_misses(80, 0.01), 8);
    assert_eq!(allowed_misses(100, 0.0), 0);
}

#[test]
fn exact_paths_match_ground_truth() {
    for case in cases() {
        let service = case.service();
        for &(s, t) in &case.pairs {
            let request = pair(s, t, Accuracy::Exact);
            let planned = service.submit(&request).unwrap();
            assert_exact(case, planned.backend, (s, t), planned.value());
            for choice in [
                BackendChoice::ExactCg,
                BackendChoice::ExactDense,
                BackendChoice::Index,
            ] {
                let forced = service
                    .submit(&request.clone().with_backend(choice))
                    .unwrap();
                assert_eq!(forced.backend, choice.name());
                assert_exact(case, choice.name(), (s, t), forced.value());
            }
        }
    }
}

#[test]
fn epsilon_paths_meet_epsilon_at_rate_one_minus_delta() {
    let overrides = [BackendChoice::Geer, BackendChoice::Amc, BackendChoice::Smm];
    let mut planned = EpsilonTally::default();
    let mut forced: Vec<EpsilonTally> = overrides.iter().map(|_| Default::default()).collect();
    for case in cases() {
        let default = case.service();
        for &(s, t) in &case.pairs {
            let request = pair(s, t, epsilon(EPS));
            let response = default.submit(&request).unwrap();
            planned.check(case, (s, t), response.value(), EPS);
            for (tally, &choice) in forced.iter_mut().zip(&overrides) {
                // AMC on the barbell has its own release-only test at a
                // coarser ε; see the module docs.
                if choice == BackendChoice::Amc && case.name == "barbell" {
                    continue;
                }
                let response = default
                    .submit(&request.clone().with_backend(choice))
                    .unwrap();
                assert_eq!(response.backend, choice.name());
                tally.check(case, (s, t), response.value(), EPS);
            }
        }
    }
    planned.assert_rate("default planner");
    for (tally, choice) in forced.iter().zip(&overrides) {
        tally.assert_rate(choice.name());
    }
}

#[test]
fn hay_edge_sets_meet_epsilon_at_rate_one_minus_delta() {
    let mut tally = EpsilonTally::default();
    for case in cases() {
        let request = Request::new(Query::edge_set(case.edges.clone()))
            .with_accuracy(epsilon(EPS))
            .with_backend(BackendChoice::Hay);
        let response = case.service().submit(&request).unwrap();
        assert_eq!(response.backend, "HAY");
        assert_eq!(response.values.len(), case.edges.len());
        for (&edge, &value) in case.edges.iter().zip(&response.values) {
            tally.check(case, edge, value, EPS);
        }
    }
    tally.assert_rate("HAY");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "MC2 runs about 1.2 million first-hit walks per edge: 12 s in release on 2 vCPUs, minutes in debug"
)]
fn mc2_edge_sets_meet_epsilon_at_rate_one_minus_delta() {
    let mut tally = EpsilonTally::default();
    for case in cases() {
        let edges = &case.edges[..5];
        let request = Request::new(Query::edge_set(edges.to_vec()))
            .with_accuracy(epsilon(EPS))
            .with_backend(BackendChoice::Mc2);
        let response = case.service().submit(&request).unwrap();
        assert_eq!(response.backend, "MC2");
        for (&edge, &value) in edges.iter().zip(&response.values) {
            tally.check(case, edge, value, EPS);
        }
    }
    tally.assert_rate("MC2");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "AMC's walks grow with 1/gap: one barbell pair took 60 s in debug, five take about 5 s in release on 2 vCPUs"
)]
fn amc_on_the_barbell_meets_epsilon_at_rate_one_minus_delta() {
    let eps = 0.2;
    let case = cases().iter().find(|c| c.name == "barbell").unwrap();
    let service = case.service();
    let mut tally = EpsilonTally::default();
    for &(s, t) in &case.pairs[..5] {
        let request = pair(s, t, epsilon(eps)).with_backend(BackendChoice::Amc);
        let response = service.submit(&request).unwrap();
        assert_eq!(response.backend, "AMC");
        tally.check(case, (s, t), response.value(), eps);
    }
    tally.assert_rate("AMC on the barbell");
}

#[test]
fn index_served_epsilon_batches_match_ground_truth() {
    let size = REPEATED_SOURCE_THRESHOLD;
    for case in cases() {
        let s = case.pairs[0].0;
        let batch: Vec<(usize, usize)> = (0..case.context.graph().num_nodes())
            .filter(|&t| t != s)
            .take(size)
            .map(|t| (s, t))
            .collect();
        let request = Request::new(Query::batch(batch.clone())).with_accuracy(epsilon(EPS));
        // The first service builds the index for the batch; the second
        // finds it warm. Neither has cached any of these pairs, so the index
        // answers every one.
        let warm = case.service();
        warm.warm_index().unwrap();
        for (path, service) in [("default planner", case.service()), ("warm index", warm)] {
            let response = service.submit(&request).unwrap();
            assert_eq!(response.backend, "INDEX", "{path} on {}", case.name);
            assert_eq!(
                response.backend_calls, size as u64,
                "{path} on {}",
                case.name
            );
            for (&pair, &value) in batch.iter().zip(&response.values) {
                assert_exact(case, path, pair, value);
            }
        }
    }
}

#[test]
fn index_source_shapes_match_ground_truth() {
    for case in cases() {
        let service = case.service();
        let n = case.context.graph().num_nodes();
        for s in case.pairs.iter().take(3).map(|&(s, _)| s) {
            let row = service
                .submit(&Request::new(Query::single_source(s)))
                .unwrap();
            assert_eq!(row.backend, "INDEX", "single source on {}", case.name);
            assert_eq!(row.values.len(), n);
            for (t, &value) in row.values.iter().enumerate() {
                assert_exact(case, "single source", (s, t), value);
            }

            let top = service.submit(&Request::new(Query::top_k(s, 5))).unwrap();
            assert_eq!(top.backend, "INDEX", "top-k on {}", case.name);
            assert_eq!(top.nodes.len(), 5, "top-k on {}", case.name);
            assert!(!top.nodes.contains(&s));
            // Compare by node and by rank: tied nodes (the barbell's bells)
            // may come in either order.
            let mut ranked: Vec<f64> = (0..n)
                .filter(|&t| t != s)
                .map(|t| case.truth.get(s, t))
                .collect();
            ranked.sort_by(f64::total_cmp);
            for (rank, (&v, &value)) in top.nodes.iter().zip(&top.values).enumerate() {
                assert_exact(case, "top-k", (s, v), value);
                assert!(
                    (value - ranked[rank]).abs() <= EXACT_TOL,
                    "top-k rank {rank} from {s} on {}: {value} vs {}",
                    case.name,
                    ranked[rank]
                );
            }
        }
        let kirchhoff = service.kirchhoff_index().unwrap();
        let truth = case.truth.kirchhoff_index();
        assert!(
            (kirchhoff - truth).abs() <= EXACT_TOL * truth,
            "Kirchhoff index on {}: {kirchhoff} vs {truth}",
            case.name
        );
    }
}

#[test]
fn coalescing_server_meets_the_same_targets() {
    let mut sampled = EpsilonTally::default();
    for case in cases() {
        // Paused workers let every ticket queue first, so the pairs are
        // answered in coalesced batches.
        let handle = case.server();
        let tickets: Vec<_> = case
            .pairs
            .iter()
            .flat_map(|&(s, t)| {
                [
                    pair(s, t, epsilon(EPS)).with_backend(BackendChoice::Geer),
                    pair(s, t, Accuracy::Exact),
                ]
            })
            .map(|request| handle.submit(request).unwrap())
            .collect();
        handle.resume();
        let responses: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        for (&(s, t), answers) in case.pairs.iter().zip(responses.chunks(2)) {
            assert_eq!(answers[0].backend, "GEER");
            sampled.check(case, (s, t), answers[0].value(), EPS);
            assert_exact(case, "server", (s, t), answers[1].value());
        }
        assert!(
            handle.stats().coalesced_requests > 0,
            "{}: nothing was coalesced",
            case.name
        );
        handle.shutdown();
    }
    sampled.assert_rate("server");
}

#[test]
fn http_query_meets_the_same_targets() {
    let mut sampled = EpsilonTally::default();
    for case in cases() {
        let handle = case.server();
        handle.resume();
        let server = HttpServer::bind(handle, HttpConfig::default()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        for &(s, t) in &case.pairs {
            let query = format!(r#""query":{{"type":"pair","s":{s},"t":{t}}}"#);
            let (status, reply) = post_query(
                &mut stream,
                &format!(
                    r#"{{{query},"accuracy":{{"type":"epsilon","eps":{EPS}}},"backend":"geer"}}"#
                ),
            );
            assert_eq!(status, 200, "{reply:?}");
            assert_eq!(reply.get("backend").and_then(Json::as_str), Some("GEER"));
            sampled.check(case, (s, t), wire_value(&reply), EPS);
            let (status, reply) = post_query(
                &mut stream,
                &format!(r#"{{{query},"accuracy":{{"type":"exact"}}}}"#),
            );
            assert_eq!(status, 200, "{reply:?}");
            assert_exact(case, "http", (s, t), wire_value(&reply));
        }
        server.shutdown();
    }
    sampled.assert_rate("http");
}

#[test]
fn coarse_epsilon_answers_never_serve_tighter_requests() {
    let (coarse, fine) = (0.5, 0.05);
    let mut tally = EpsilonTally::default();
    for case in cases() {
        let service = case.service();
        let handle = case.server();
        handle.resume();
        for &(s, t) in &case.pairs[..5] {
            // The planner-routed class answers these small graphs with
            // EXACT-CG; the override class samples with GEER.
            for backend in [None, Some(BackendChoice::Geer)] {
                let with = |eps| {
                    let request = pair(s, t, epsilon(eps));
                    backend.map_or(request.clone(), |b| request.with_backend(b))
                };
                service.submit(&with(coarse)).unwrap();
                let response = service.submit(&with(fine)).unwrap();
                if backend.is_some() {
                    assert_eq!(response.backend, "GEER");
                }
                assert_eq!(response.backend_calls, 1, "{} ({s}, {t})", case.name);
                assert_eq!(response.cache_hits, 0, "{} ({s}, {t})", case.name);
                tally.check(case, (s, t), response.value(), fine);
            }
            let geer = |s, t, eps| pair(s, t, epsilon(eps)).with_backend(BackendChoice::Geer);
            handle.submit(geer(s, t, coarse)).unwrap().wait().unwrap();
            let response = handle.submit(geer(t, s, fine)).unwrap().wait().unwrap();
            assert_eq!(response.backend_calls, 1, "server {} ({s}, {t})", case.name);
            tally.check(case, (s, t), response.value(), fine);
        }
        handle.shutdown();
    }
    tally.assert_rate("ε = 0.05 after ε = 0.5");
}

#[test]
fn exact_with_a_sampling_override_is_a_typed_error() {
    let case = cases().iter().find(|c| c.name == "social").unwrap();
    let (s, t) = case.pairs[0];
    for choice in [BackendChoice::Geer, BackendChoice::Amc] {
        let request = pair(s, t, Accuracy::Exact).with_backend(choice);
        let err = case.service().submit(&request).unwrap_err();
        assert!(matches!(err, ServiceError::InvalidRequest { .. }), "{err}");
    }

    let handle = case.server();
    handle.resume();
    let request = pair(s, t, Accuracy::Exact).with_backend(BackendChoice::Geer);
    let err = handle.submit(request).unwrap().wait().unwrap_err();
    assert!(matches!(err, ServiceError::InvalidRequest { .. }), "{err}");

    let server = HttpServer::bind(handle, HttpConfig::default()).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let query = format!(r#""query":{{"type":"pair","s":{s},"t":{t}}}"#);
    let (status, reply) = post_query(
        &mut stream,
        &format!(r#"{{{query},"accuracy":{{"type":"exact"}},"backend":"geer"}}"#),
    );
    assert_eq!(status, 400, "{reply:?}");
    assert_eq!(
        reply.get("error").and_then(Json::as_str),
        Some("invalid_request")
    );
    // The connection stays usable, and an exact override still answers.
    let (status, reply) = post_query(
        &mut stream,
        &format!(r#"{{{query},"accuracy":{{"type":"exact"}},"backend":"exact-cg"}}"#),
    );
    assert_eq!(status, 200, "{reply:?}");
    assert_exact(case, "http exact-cg", (s, t), wire_value(&reply));
    server.shutdown();
}

/// One GEER batch holding every pair twice, once flipped, meets ε on every
/// pair, and the flipped repeats come from the cache.
#[test]
fn batched_geer_queries_meet_epsilon_and_reuse_the_cache() {
    let graph = generators::community_social_network(500, 10.0, 3, 0.02, 0xc20).unwrap();
    let truth = AllPairsResistance::compute(&graph).unwrap();
    let service = ResistanceService::with_config(&graph, ApproxConfig::with_epsilon(EPS)).unwrap();
    let base = uniform_pairs(&graph, 6, 4);
    let flipped: Vec<(usize, usize)> = base.iter().map(|&(s, t)| (t, s)).collect();
    let workload = [base.clone(), flipped.clone()].concat();
    let geer = |pairs: Vec<(usize, usize)>| {
        Request::new(Query::batch(pairs)).with_backend(BackendChoice::Geer)
    };
    let response = service.submit(&geer(workload.clone())).unwrap();
    assert_eq!(response.backend, "GEER");
    assert_eq!(response.backend_calls as usize, base.len());
    assert_eq!(response.cache_hits as usize, base.len());
    for (&(s, t), &value) in workload.iter().zip(&response.values) {
        let exact = truth.get(s, t);
        assert!(
            (value - exact).abs() <= EPS,
            "batched value at ({s}, {t}): {value} vs {exact}"
        );
    }
    // A later request for the flipped pairs is served by the cache alone.
    let again = service.submit(&geer(flipped)).unwrap();
    assert_eq!(again.backend_calls, 0);
    assert_eq!(again.cache_hits as usize, base.len());
    assert_eq!(again.values, response.values[base.len()..]);
}

/// On the 600-node graph, default-planner ε pairs go to GEER through the
/// certified λ and meet ε, in process, through the server and over HTTP.
#[test]
fn lanczos_sized_graph_meets_epsilon_through_the_certified_lambda() {
    let case = lanczos_case();
    let context = &case.context;
    assert!(
        context.lambda_certified(),
        "λ measured without a certificate"
    );
    assert!(context.lanczos_steps() > 0, "λ did not come from Lanczos");
    assert!(
        (context.spectral_gap() - 0.37).abs() < 0.02,
        "gap {}",
        context.spectral_gap()
    );

    let mut planned = EpsilonTally::default();
    let service = case.service();
    for &(s, t) in &case.pairs {
        let response = service.submit(&pair(s, t, epsilon(EPS))).unwrap();
        assert_eq!(response.backend, "GEER", "({s}, {t})");
        planned.check(case, (s, t), response.value(), EPS);
    }
    planned.assert_rate("default planner on the 600-node graph");

    let mut served = EpsilonTally::default();
    let handle = case.server();
    let tickets: Vec<_> = case
        .pairs
        .iter()
        .map(|&(s, t)| handle.submit(pair(s, t, epsilon(EPS))).unwrap())
        .collect();
    handle.resume();
    for (&(s, t), ticket) in case.pairs.iter().zip(tickets) {
        let response = ticket.wait().unwrap();
        assert_eq!(response.backend, "GEER", "server ({s}, {t})");
        served.check(case, (s, t), response.value(), EPS);
    }
    served.assert_rate("server on the 600-node graph");

    let mut wired = EpsilonTally::default();
    let server = HttpServer::bind(handle, HttpConfig::default()).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    for &(s, t) in &case.pairs {
        let (status, reply) = post_query(
            &mut stream,
            &format!(
                r#"{{"query":{{"type":"pair","s":{s},"t":{t}}},"accuracy":{{"type":"epsilon","eps":{EPS}}}}}"#
            ),
        );
        assert_eq!(status, 200, "{reply:?}");
        assert_eq!(reply.get("backend").and_then(Json::as_str), Some("GEER"));
        wired.check(case, (s, t), wire_value(&reply), EPS);
    }
    server.shutdown();
    wired.assert_rate("http on the 600-node graph");
}

/// A dynamic service over the 600-node graph: after each burst of two
/// inserts and one delete, the incremental refresh certifies λ by warm
/// Lanczos in a few steps, and default-planner ε pairs meet ε against the
/// truth on the mutated graph.
#[test]
fn dynamic_warm_refreshes_meet_epsilon_above_the_dense_cutoff() {
    let case = lanczos_case();
    let graph = case.context.graph();
    let n = graph.num_nodes();
    let dynamic = DynamicResistanceService::from_graph(graph, config());
    // The first epoch is a full build; every later one is incremental.
    dynamic.refresh().unwrap();
    let mut edges: BTreeSet<(usize, usize)> = graph.edges().collect();
    let mut shortcuts = (0..n)
        .map(|i| (i, (i * 37 + 11) % n))
        .filter(|&(u, v)| u != v && !graph.has_edge(u, v));
    // Deletes take edges between nodes of degree at least 4. None is a
    // bridge of this graph; the refresh would report one.
    let mut removable = graph
        .edges()
        .step_by(101)
        .filter(|&(u, v)| graph.degree(u) >= 4 && graph.degree(v) >= 4);
    let mut tally = EpsilonTally::default();
    for burst in 0..3 {
        for _ in 0..2 {
            let (u, v) = shortcuts.next().unwrap();
            assert!(dynamic.insert_edge(u, v).unwrap());
            edges.insert((u.min(v), u.max(v)));
        }
        let (u, v) = removable.next().unwrap();
        assert!(dynamic.remove_edge(u, v).unwrap());
        edges.remove(&(u.min(v), u.max(v)));

        let mutated = GraphBuilder::from_edges(n, edges.iter().copied())
            .build()
            .unwrap();
        let epoch = dynamic.refresh().unwrap();
        let context = epoch.service().context();
        assert_eq!(context.graph().csr(), mutated.csr());
        assert!(context.lambda_certified(), "burst {burst}");
        assert!(
            context.lanczos_steps() <= 5,
            "burst {burst}: {} warm steps",
            context.lanczos_steps()
        );
        let step = Case {
            name: "social-600 mutated",
            context: context.clone(),
            truth: AllPairsResistance::compute(&mutated).unwrap(),
            pairs: uniform_pairs(&mutated, PAIRS, 10 + burst),
            edges: Vec::new(),
        };
        for &(s, t) in &step.pairs {
            let response = dynamic.submit(&pair(s, t, epsilon(EPS))).unwrap();
            assert_eq!(response.backend, "GEER", "burst {burst} ({s}, {t})");
            tally.check(&step, (s, t), response.value(), EPS);
        }
    }
    assert_eq!(dynamic.snapshot_full_rebuilds(), 1);
    assert_eq!(dynamic.incremental_refreshes(), 3);
    tally.assert_rate("dynamic service on the 600-node graph");
}

/// An `Exact` pair and an exact single-source row from the dynamic service,
/// both checked against `truth`. Returns the pair's backend.
fn check_dynamic_source(
    dynamic: &DynamicResistanceService,
    truth: &AllPairsResistance,
    (s, t): (usize, usize),
) -> &'static str {
    let exact = dynamic.submit(&pair(s, t, Accuracy::Exact)).unwrap();
    let want = truth.get(s, t);
    assert!(
        (exact.value() - want).abs() <= EXACT_TOL,
        "{} ({s}, {t}): {} vs {want}",
        exact.backend,
        exact.value()
    );
    let row = dynamic
        .submit(&Request::new(Query::single_source(s)).with_accuracy(Accuracy::Exact))
        .unwrap();
    assert_eq!(row.backend, "INDEX");
    for (v, &value) in row.values.iter().enumerate() {
        let want = truth.get(s, v);
        assert!(
            (value - want).abs() <= EXACT_TOL,
            "row of {s} at {v}: {value} vs {want}"
        );
    }
    exact.backend
}

/// INDEX state built by single-source queries is harvested, advanced by
/// Sherman–Morrison at each mutation and re-installed at each incremental
/// refresh. After every step of an insert/delete stream that spans two full
/// rebuilds, its `Exact` pairs and rows match the truth on the mutated
/// graph, and INDEX serves every `Exact` pair except the first after each
/// full rebuild, which dropped the state.
#[test]
fn dynamic_service_matches_ground_truth_across_a_mutation_stream() {
    let graph = generators::barabasi_albert(150, 3, 4).unwrap();
    let n = graph.num_nodes();
    let sources = [3usize, 17, 45, 90];
    let dynamic = DynamicResistanceService::from_graph(&graph, config()).with_refresh_interval(8);

    // Shortcuts are inserted and most are deleted again; four steps delete
    // edges of the original graph.
    let shortcuts: Vec<(usize, usize)> = (0..n)
        .map(|i| (i, (i * 37 + 11) % n))
        .filter(|&(u, v)| u != v && !graph.has_edge(u, v))
        .take(8)
        .collect();
    let originals: Vec<(usize, usize)> = graph.edges().step_by(97).take(4).collect();
    let stream = [
        (true, shortcuts[0]),
        (true, shortcuts[1]),
        (false, originals[0]),
        (true, shortcuts[2]),
        (false, shortcuts[0]),
        (true, shortcuts[3]),
        (false, originals[1]),
        (false, shortcuts[1]),
        (true, shortcuts[4]),
        (false, originals[2]),
        (true, shortcuts[5]),
        (false, shortcuts[2]),
        (false, originals[3]),
        (true, shortcuts[6]),
        (false, shortcuts[3]),
        (true, shortcuts[7]),
    ];
    let mut edges: BTreeSet<(usize, usize)> = graph.edges().collect();
    let mut served_by_index = 0;
    // Step 0 builds INDEX on the input graph; each later step mutates first.
    let steps = std::iter::once(None).chain(stream.iter().map(Some));
    for (step, mutation) in steps.enumerate() {
        if let Some(&(insert, (u, v))) = mutation {
            let key = (u.min(v), u.max(v));
            if insert {
                assert!(dynamic.insert_edge(u, v).unwrap());
                edges.insert(key);
            } else {
                assert!(dynamic.remove_edge(u, v).unwrap());
                edges.remove(&key);
            }
        }
        let mutated = GraphBuilder::from_edges(n, edges.iter().copied())
            .build()
            .unwrap();
        let truth = AllPairsResistance::compute(&mutated).unwrap();
        let full_before = dynamic.snapshot_full_rebuilds();
        for (k, &s) in sources.iter().enumerate() {
            let backend = check_dynamic_source(&dynamic, &truth, (s, (s + 29 * (step + 1)) % n));
            let rebuilt = dynamic.snapshot_full_rebuilds() > full_before;
            let want = if rebuilt && k == 0 {
                "EXACT-CG"
            } else {
                "INDEX"
            };
            assert_eq!(backend, want, "step {step}, source {s}");
            served_by_index += usize::from(backend == "INDEX");
        }
    }
    // The initial build plus one full rebuild per 8 mutations.
    assert_eq!(dynamic.snapshot_full_rebuilds(), 3);
    assert_eq!(served_by_index, (stream.len() + 1) * sources.len() - 3);
    assert_eq!(dynamic.sm_updates(), stream.len() as u64);
    assert_eq!(dynamic.cg_fallbacks(), 0);
}

/// A bridge delete refuses the rank-1 path and drops the carried state;
/// queries on the split graph are typed errors, and once the bridge is back
/// the first `Exact` answer is a fresh CG solve that matches the truth.
#[test]
fn dynamic_bridge_delete_falls_back_to_cg_and_recovers() {
    // Two 10-cliques joined by the bridge {0, 10}.
    let mut edges = Vec::new();
    for base in [0usize, 10] {
        for i in base..base + 10 {
            for j in (i + 1)..base + 10 {
                edges.push((i, j));
            }
        }
    }
    edges.push((0, 10));
    let graph = GraphBuilder::from_edges(20, edges).build().unwrap();
    let dynamic = DynamicResistanceService::from_graph(&graph, config());
    let truth = AllPairsResistance::compute(&graph).unwrap();
    for s in [0, 10] {
        check_dynamic_source(&dynamic, &truth, (s, 19 - s));
    }

    // A clique-internal edge is far from a bridge: its update is applied.
    assert!(dynamic.remove_edge(2, 7).unwrap());
    assert_eq!(dynamic.sm_updates(), 1);
    assert_eq!(dynamic.cg_fallbacks(), 0);
    let without_2_7: Vec<(usize, usize)> = graph.edges().filter(|&e| e != (2, 7)).collect();
    let truth =
        AllPairsResistance::compute(&GraphBuilder::from_edges(20, without_2_7).build().unwrap())
            .unwrap();
    assert_eq!(check_dynamic_source(&dynamic, &truth, (0, 7)), "INDEX");

    // The bridge delete's denominator 1 − r(0, 10) is 0: the update is
    // refused and the split graph answers with typed errors.
    assert!(dynamic.remove_edge(0, 10).unwrap());
    assert_eq!(dynamic.cg_fallbacks(), 1);
    assert!(matches!(
        dynamic.submit(&pair(0, 10, Accuracy::Exact)),
        Err(ServiceError::Index(IndexError::Graph(_)))
    ));
    assert!(dynamic.resistance(0, 10).is_err());

    assert!(dynamic.insert_edge(0, 10).unwrap());
    let exact = dynamic.submit(&pair(0, 10, Accuracy::Exact)).unwrap();
    assert_eq!(exact.backend, "EXACT-CG");
    assert!((exact.value() - truth.get(0, 10)).abs() <= EXACT_TOL);
    assert_eq!(dynamic.sm_updates(), 1);
}
