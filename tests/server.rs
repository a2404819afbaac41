//! Integration tests for the concurrent serving plane: responses must be
//! bit-identical to a sequential single-caller run at any worker count and
//! any client interleaving (including deduplicated and coalesced requests),
//! admission control must bound the queue, and dedup must serve k identical
//! tickets from one execution.

use effective_resistance::graph::{generators, Graph};
use effective_resistance::{
    Accuracy, ApproxConfig, BackendChoice, Query, Request, ResistanceServer, ResistanceService,
    Response, ServerConfig, ServerHandle, ServiceError,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};

fn graph() -> Graph {
    generators::social_network_like(400, 10.0, 33).unwrap()
}

fn service(graph: &Graph) -> ResistanceService {
    let config = ApproxConfig::with_epsilon(0.2).reseeded(7);
    ResistanceService::with_config(graph, config).unwrap()
}

/// A fixed request set covering randomized backends (forced GEER/AMC/HAY,
/// and budgeted GEER), planner-routed exact answers, the index tier and
/// cache repeats.
///
/// Deliberately excluded: `Accuracy::Exact` pair queries and ≥ 16-repeated-
/// source ε batches, whose *routing* legitimately depends on whether the
/// index happens to be built yet — concurrent arrival order may change which
/// backend answers them (both answers are exact/valid, but not the same
/// bits). Everything else is arrival-order invariant by construction.
fn request_set(g: &Graph) -> Vec<Request> {
    let edges: Vec<(usize, usize)> = g.edges().take(6).collect();
    vec![
        Request::new(Query::pair(0, 300)).with_backend(BackendChoice::Geer),
        Request::new(Query::batch(vec![(1, 2), (2, 1), (5, 399), (9, 9)]))
            .with_backend(BackendChoice::Amc),
        Request::new(Query::edge_set(edges.clone())).with_backend(BackendChoice::Hay),
        Request::new(Query::pair(3, 350))
            .with_accuracy(Accuracy::WalkBudget(20_000))
            .with_backend(BackendChoice::Geer),
        Request::new(Query::batch(vec![(0, 300), (10, 20)])),
        Request::new(Query::single_source(42)),
        Request::new(Query::top_k(42, 5)),
        Request::new(Query::pair(17, 250)),
        Request::new(Query::edge_set(vec![edges[0], edges[3]])),
        Request::new(Query::pair(300, 0)),
        Request::new(Query::pair(0, 300)).with_backend(BackendChoice::Geer), // dedup candidate
    ]
}

/// What bit-identity is asserted over: the response payload, not the
/// bookkeeping (cache-hit and cost attribution legitimately depend on which
/// requests shared an execution).
type Payload = (Vec<u64>, Vec<usize>, &'static str);

fn payload(r: &Response) -> Payload {
    (
        r.values.iter().map(|v| v.to_bits()).collect(),
        r.nodes.clone(),
        r.backend,
    )
}

fn sequential_payloads(g: &Graph) -> Vec<Payload> {
    let service = service(g);
    request_set(g)
        .iter()
        .map(|request| payload(&service.submit(request).unwrap()))
        .collect()
}

/// Runs the fixed request set through a server with `workers` threads and
/// `clients` submitting threads, in an arrival order perturbed by `twist`,
/// and returns the payloads in request-set order.
fn server_payloads(g: &Graph, workers: usize, clients: usize, twist: usize) -> Vec<Payload> {
    let handle = ResistanceServer::spawn(
        service(g),
        ServerConfig {
            workers,
            ..ServerConfig::default()
        },
    );
    let requests = request_set(g);
    let results: Arc<Mutex<Vec<Option<Payload>>>> =
        Arc::new(Mutex::new(vec![None; requests.len()]));
    let threads: Vec<_> = (0..clients)
        .map(|client| {
            let handle: ServerHandle = handle.clone();
            let results = results.clone();
            // Client `c` takes requests c, c + clients, …, rotated by the
            // twist so every (workers, clients) combination submits in a
            // different interleaving.
            let mut mine: Vec<(usize, Request)> = requests
                .iter()
                .enumerate()
                .filter(|(i, _)| i % clients == client)
                .map(|(i, r)| (i, r.clone()))
                .collect();
            if !mine.is_empty() {
                let by = (twist + client) % mine.len();
                mine.rotate_left(by);
            }
            std::thread::spawn(move || {
                let tickets: Vec<_> = mine
                    .into_iter()
                    .map(|(i, request)| (i, handle.submit(request).unwrap()))
                    .collect();
                for (i, ticket) in tickets {
                    let response = ticket.wait().unwrap();
                    results.lock().unwrap()[i] = Some(payload(&response));
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    handle.shutdown();
    Arc::try_unwrap(results)
        .unwrap()
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|p| p.expect("every request answered"))
        .collect()
}

#[test]
fn server_responses_are_bit_identical_across_worker_counts_and_interleavings() {
    let g = graph();
    let baseline = sequential_payloads(&g);
    for (twist, workers) in [(0usize, 1usize), (1, 2), (2, 8)] {
        let served = server_payloads(&g, workers, 4, twist);
        for (i, (a, b)) in baseline.iter().zip(&served).enumerate() {
            assert_eq!(
                a, b,
                "request {i} differs at {workers} workers (twist {twist})"
            );
        }
    }
}

#[test]
fn bounded_queue_rejects_with_overloaded_and_recovers() {
    let g = graph();
    let handle = ResistanceServer::spawn(
        service(&g),
        ServerConfig {
            workers: 1,
            queue_depth: 2,
            start_paused: true,
        },
    );
    let first = handle.submit(Request::new(Query::pair(0, 100))).unwrap();
    let second = handle.submit(Request::new(Query::pair(0, 150))).unwrap();
    let overflow = handle.submit(Request::new(Query::pair(0, 200)));
    assert!(
        matches!(overflow, Err(ServiceError::Overloaded { queue_depth: 2 })),
        "third distinct submit must bounce off the depth-2 queue"
    );
    assert_eq!(handle.pending(), 2);
    handle.resume();
    assert!(first.wait().unwrap().value() > 0.0);
    assert!(second.wait().unwrap().value() > 0.0);
    // Once drained, admission works again.
    let retry = handle.submit(Request::new(Query::pair(0, 200))).unwrap();
    assert!(retry.wait().unwrap().value() > 0.0);
    let clone = handle.clone();
    clone.shutdown();
    let stats = handle.stats();
    assert_eq!(stats.rejected_overloaded, 1);
    assert_eq!(stats.completed, 3);
}

#[test]
fn identical_concurrent_tickets_share_one_backend_invocation() {
    let g = graph();
    let request = Request::new(Query::pair(7, 290)).with_backend(BackendChoice::Geer);

    // Ground truth from a plain single-caller service.
    let solo = service(&g).submit(&request).unwrap();

    let handle = ResistanceServer::spawn(
        service(&g),
        ServerConfig {
            workers: 2,
            start_paused: true,
            ..ServerConfig::default()
        },
    );
    let tickets: Vec<_> = (0..5)
        .map(|_| handle.submit(request.clone()).unwrap())
        .collect();
    handle.resume();
    for ticket in tickets {
        let response = ticket.wait().unwrap();
        assert_eq!(response.value().to_bits(), solo.value().to_bits());
        assert_eq!(response.backend, "GEER");
    }
    let clone = handle.clone();
    clone.shutdown();
    let stats = handle.stats();
    assert_eq!(stats.submitted, 5);
    assert_eq!(stats.deduplicated, 4, "four submits attached to the first");
    assert_eq!(stats.executed_jobs, 1, "one computation served all five");
    assert_eq!(stats.completed, 5, "…but every ticket completed");
}

#[test]
fn coalesced_batches_amortize_work_without_changing_values() {
    let g = graph();
    // Four same-class GEER pair requests: queued while paused, a single
    // worker must take one and coalesce the other three into the same plan.
    let requests: Vec<Request> = [(0usize, 111usize), (5, 222), (9, 333), (13, 350)]
        .iter()
        .map(|&(s, t)| Request::new(Query::pair(s, t)).with_backend(BackendChoice::Geer))
        .collect();
    let solo_values: Vec<u64> = {
        let s = service(&g);
        requests
            .iter()
            .map(|r| s.submit(r).unwrap().value().to_bits())
            .collect()
    };

    let handle = ResistanceServer::spawn(
        service(&g),
        ServerConfig {
            workers: 1,
            start_paused: true,
            ..ServerConfig::default()
        },
    );
    let tickets: Vec<_> = requests
        .iter()
        .map(|r| handle.submit(r.clone()).unwrap())
        .collect();
    handle.resume();
    for (ticket, &expected) in tickets.into_iter().zip(&solo_values) {
        assert_eq!(ticket.wait().unwrap().value().to_bits(), expected);
    }
    let clone = handle.clone();
    clone.shutdown();
    let stats = handle.stats();
    assert_eq!(stats.executed_jobs, 1, "one coalesced execution");
    assert_eq!(stats.coalesced_batches, 1);
    assert_eq!(stats.coalesced_requests, 4);
}

#[test]
fn late_identical_submits_attach_to_the_running_execution() {
    let g = graph();
    // MC2 spends its walk budget in full (its trial count at the universal
    // γ = 1/(2m) far exceeds the budget, and it has no early stopping), so a
    // large budget keeps the execution running long enough to attach to even
    // on a single-CPU runner.
    let edge = g.edges().nth(273).unwrap();
    let request = Request::new(Query::edge_set(vec![edge]))
        .with_accuracy(Accuracy::WalkBudget(120_000))
        .with_backend(BackendChoice::Mc2);
    let solo = service(&g).submit(&request).unwrap();

    // The attach window is timing-dependent: retry with a fresh server until
    // a round observes the leader running before the followers land. In
    // practice round 0 succeeds; the loop just keeps the test deterministic
    // in outcome rather than in schedule.
    for round in 0..20 {
        let handle = ResistanceServer::spawn(
            service(&g),
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
        );
        let leader = handle.submit(request.clone()).unwrap();
        // queued → running: the single worker has taken the job once it has
        // left the queue without completing.
        let running = loop {
            let stats = handle.stats();
            if stats.completed > 0 {
                break false;
            }
            if stats.submitted >= 1 && handle.pending() == 0 {
                break true;
            }
            std::thread::yield_now();
        };
        let followers: Vec<_> = (0..3)
            .map(|_| handle.submit(request.clone()).unwrap())
            .collect();
        let leader_bits = leader.wait().unwrap().value().to_bits();
        assert_eq!(leader_bits, solo.value().to_bits());
        for follower in followers {
            let response = follower.wait().unwrap();
            assert_eq!(
                response.value().to_bits(),
                leader_bits,
                "attached ticket must carry the leader's exact bits"
            );
            assert_eq!(response.backend, "MC2");
        }
        let stats = handle.stats();
        handle.shutdown();
        if running && stats.attached_running > 0 {
            assert_eq!(stats.submitted, 4);
            assert_eq!(stats.completed, 4, "every ticket completed");
            assert_eq!(stats.executed_jobs, 1, "one execution served all four");
            assert_eq!(
                stats.attached_running + stats.deduplicated,
                3,
                "all three followers were absorbed without re-execution"
            );
            return;
        }
        eprintln!(
            "attach round {round}: running={running} attached={}",
            stats.attached_running
        );
    }
    panic!("followers never attached to a running execution in 20 rounds");
}

/// Four clients send seeded mixes of six distinct deadline-free GEER pair
/// requests, in bursts, to a two-worker server, so identical requests meet
/// while queued, while running and after publication. Every ticket carries
/// its request's solo bits, and every submit is counted exactly once: it took
/// a ticket on a queued job, on a running job, or started a job that ran
/// alone or inside a coalesced batch.
#[test]
fn seeded_identical_mixes_get_solo_bits_and_every_submit_is_counted_once() {
    let g = graph();
    let requests: Vec<Request> = [
        (0usize, 111usize),
        (5, 222),
        (9, 333),
        (13, 350),
        (21, 160),
        (40, 399),
    ]
    .iter()
    .map(|&(s, t)| Request::new(Query::pair(s, t)).with_backend(BackendChoice::Geer))
    .collect();
    let solo: Vec<u64> = {
        let s = service(&g);
        requests
            .iter()
            .map(|r| s.submit(r).unwrap().value().to_bits())
            .collect()
    };

    let handle = ResistanceServer::spawn(
        service(&g),
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    );
    let clients: Vec<_> = (0..4u64)
        .map(|client| {
            let handle = handle.clone();
            let requests = requests.clone();
            let solo = solo.clone();
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(client);
                for _ in 0..10 {
                    let burst: Vec<_> = (0..10)
                        .map(|_| {
                            let i = rng.gen_range(0..requests.len());
                            (i, handle.submit(requests[i].clone()).unwrap())
                        })
                        .collect();
                    for (i, ticket) in burst {
                        let bits = ticket.wait().unwrap().value().to_bits();
                        assert_eq!(bits, solo[i], "client {client}, request {i}");
                    }
                }
            })
        })
        .collect();
    for client in clients {
        client.join().unwrap();
    }
    let clone = handle.clone();
    clone.shutdown();
    let stats = handle.stats();
    assert_eq!(stats.submitted, 400);
    assert_eq!(stats.completed, stats.submitted);
    assert_eq!(stats.rejected_overloaded + stats.expired, 0);
    assert_eq!(
        stats.submitted,
        stats.deduplicated + stats.attached_running + stats.executed_jobs - stats.coalesced_batches
            + stats.coalesced_requests,
        "{stats:?}"
    );
}

/// A finished job leaves the in-flight table before its ticket completes,
/// so a submit made after an identical ticket has returned starts a new job,
/// which the cache answers; nothing attaches to a published result.
#[test]
fn a_submit_after_the_identical_ticket_returned_is_a_new_job_the_cache_answers() {
    let g = graph();
    let handle = ResistanceServer::spawn(
        service(&g),
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
    );
    let rounds = 20;
    for round in 0..rounds {
        let request =
            Request::new(Query::pair(round, 399 - 7 * round)).with_backend(BackendChoice::Geer);
        let first = handle.submit(request.clone()).unwrap().wait().unwrap();
        let again = handle.submit(request).unwrap().wait().unwrap();
        assert_eq!(first.backend_calls, 1, "round {round}");
        assert_eq!(again.backend_calls, 0, "round {round}: a cache hit");
        assert_eq!(again.value().to_bits(), first.value().to_bits());
    }
    let clone = handle.clone();
    clone.shutdown();
    let stats = handle.stats();
    assert_eq!(stats.executed_jobs, 2 * rounds as u64, "{stats:?}");
    assert_eq!(stats.attached_running + stats.deduplicated, 0);
    assert_eq!(stats.completed, 2 * rounds as u64);
}

#[test]
fn cross_class_cache_serves_epsilon_from_exact_through_the_server() {
    let g = graph();
    let handle = ResistanceServer::spawn(service(&g), ServerConfig::default());

    // Satellite (cache tier): an Exact answer short-circuits a later ε query
    // in the same backend-override class — end-to-end through the server.
    let exact = handle
        .submit(Request::new(Query::pair(2, 333)).with_accuracy(Accuracy::Exact))
        .unwrap()
        .wait()
        .unwrap();
    let eps = handle
        .submit(Request::new(Query::pair(333, 2)).with_accuracy(Accuracy::epsilon(0.3)))
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(eps.value().to_bits(), exact.value().to_bits());
    assert_eq!(eps.backend_calls, 0, "served from the Exact shard");
    handle.shutdown();
}
