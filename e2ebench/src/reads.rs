//! `zipf_http` and `cold_pairs`: pair reads through the HTTP front door.
//!
//! The untraced run sets the stack up [`SETUP_REPEATS`] times, then drives
//! the last one for `--seconds` with a closed loop over [`CONNECTIONS`]
//! keep-alive connections. The traced run replays one fixed slice of the
//! same seeded sequence once per entry point, each on a fresh stack warmed
//! the same way: the closed loop untraced and traced ([`closed_loops`]);
//! HTTP over one connection, `ServerHandle::submit`→`Ticket::wait` and
//! `ResistanceService::submit` one request at a time ([`one_at_a_time`]);
//! and for the misses `Geer::estimate_traced` plus `smm::run_smm`.

use crate::client::{answer_bits, pair_body, HttpClient};
use crate::measure::{self, mean, quantile, Report};
use crate::seq::{self, canonical, Pair};
use crate::trace::{self, Span, Tracer};
use crate::{approx_config, server_config, GraphSpec, SETUP_REPEATS};
use er_core::{smm, ForkableEstimator, Geer, GraphContext, GroundTruth, GroundTruthMethod};
use er_http::{api, HttpConfig, HttpServer};
use er_service::{
    Query, Request, ResistanceServer, ResistanceService, Response, ServerHandle, ServerStats,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How a workload draws its pairs.
pub enum Mix {
    /// Zipf(`exponent`) over a seeded universe of `universe` pairs. An
    /// untimed prefix of the stream fills the cache once.
    Zipf { universe: usize, exponent: f64 },
    /// Distinct uniform pairs, so the cache never hits. An untimed prefix of
    /// `warmup` requests warms the code paths.
    Distinct { warmup: usize },
}

pub struct ReadWorkload {
    pub name: &'static str,
    pub graph: GraphSpec,
    pub mix: Mix,
    /// Requests each pass of the traced run replays.
    pub trace_requests: usize,
    /// Answers compared bit for bit with a fresh in-process service.
    pub bits_samples: usize,
    /// Answers compared with CG ground truth.
    pub truth_samples: usize,
}

pub const ZIPF_HTTP: ReadWorkload = ReadWorkload {
    name: "zipf_http",
    graph: GraphSpec::Social {
        n: 20_000,
        avg_degree: 10.0,
        seed: 7,
    },
    mix: Mix::Zipf {
        universe: 16_384,
        exponent: 1.0,
    },
    trace_requests: 8_000,
    bits_samples: 64,
    truth_samples: 16,
};

pub const COLD_PAIRS: ReadWorkload = ReadWorkload {
    name: "cold_pairs",
    graph: GraphSpec::BarabasiAlbert {
        n: 100_000,
        m: 4,
        seed: 11,
    },
    mix: Mix::Distinct { warmup: 16 },
    trace_requests: 600,
    bits_samples: 24,
    truth_samples: 8,
};

/// Keep-alive connections of the closed loop, one client thread each:
/// `nproc` of the 2-vCPU reference machine.
const CONNECTIONS: usize = 2;

/// Length of a zipf stream, prefix included; timed requests wrap around the
/// part after the prefix.
const ZIPF_STREAM: usize = 1 << 19;

/// Distinct pairs generated per second of `--seconds`, far more than the
/// stack answers, so the timed phase never runs out.
const DISTINCT_PER_SECOND: usize = 4_000;

const SAMPLE_SALT: u64 = 0x7361_6d70_6c65_7321;

/// A run's requests: the untimed warm-up prefix, then the timed part.
pub struct Sequence {
    pub warm: Vec<Pair>,
    pub timed: Vec<Pair>,
    wraps: bool,
}

pub fn sequence(w: &ReadWorkload, seed: u64, timed_len: usize) -> Sequence {
    let n = w.graph.nodes();
    match w.mix {
        Mix::Zipf { universe, exponent } => {
            let all = seq::zipf_pairs(n, universe, exponent, ZIPF_STREAM, seed);
            let fill = ResistanceService::DEFAULT_CACHE_CAPACITY.min(universe);
            let (warm, timed) = all.split_at(seq::prefix_with_distinct(&all, fill));
            Sequence {
                warm: warm.to_vec(),
                timed: timed.to_vec(),
                wraps: true,
            }
        }
        Mix::Distinct { warmup } => {
            let mut timed = seq::distinct_pairs(n, warmup + timed_len, seed);
            let warm = timed.drain(..warmup).collect();
            Sequence {
                warm,
                timed,
                wraps: false,
            }
        }
    }
}

fn request((s, t): Pair) -> Request {
    Request::new(Query::pair(s, t))
}

/// A fresh service over `ctx`, warmed by the untimed prefix.
fn warmed_service(ctx: &GraphContext, warm: &[Pair]) -> Result<ResistanceService, String> {
    let service = ResistanceService::from_context(ctx.clone(), approx_config());
    for &pair in warm {
        service
            .submit(&request(pair))
            .map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok(service)
}

/// Server, HTTP front end and connected clients.
struct HttpStack {
    handle: ServerHandle,
    http: HttpServer,
    clients: Vec<HttpClient>,
}

impl HttpStack {
    fn start(service: ResistanceService, connections: usize) -> Result<HttpStack, String> {
        let handle = ResistanceServer::spawn(service, server_config());
        let http = HttpServer::bind(handle.clone(), HttpConfig::default())
            .map_err(|e| format!("bind: {e}"))?;
        let mut clients = Vec::with_capacity(connections);
        for _ in 0..connections {
            let mut client =
                HttpClient::connect(http.local_addr()).map_err(|e| format!("connect: {e}"))?;
            // One request per connection starts its server thread before
            // anything is timed.
            let (status, _) = client.call("GET", "/healthz", "")?;
            if status != 200 {
                return Err(format!("/healthz answered {status}"));
            }
            client.bytes = 0;
            clients.push(client);
        }
        Ok(HttpStack {
            handle,
            http,
            clients,
        })
    }

    fn stop(self) {
        drop(self.clients);
        self.http.shutdown();
        self.handle.shutdown();
    }
}

/// One answered request. Kept small, so the benchmark's own buffers do not
/// move the process's peak RSS with throughput.
#[derive(Clone, Copy)]
struct Sample {
    index: usize,
    latency_ns: u64,
    bits: u64,
}

/// What one closed-loop pass saw.
#[derive(Default)]
struct Drive {
    samples: Vec<Sample>,
    /// Failed requests: sequence index and reason.
    errors: Vec<(usize, String)>,
    spans: Vec<Span>,
    wall: Duration,
    /// Whether a sequence that does not wrap ran out.
    exhausted: bool,
}

impl Drive {
    fn attempted(&self) -> usize {
        self.samples.len() + self.errors.len()
    }

    fn latencies_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| s.latency_ns as f64 / 1e6)
            .collect()
    }
}

enum Stop {
    /// Until the deadline passes.
    At(Instant),
    /// The requests of this index range.
    Range(std::ops::Range<usize>),
}

/// The closed loop: each client sends the next request of the shared
/// sequence as soon as it has parsed the previous answer. With `spans`, each
/// request also leaves a span of that name.
fn drive(
    clients: &mut [HttpClient],
    sequence: &Sequence,
    stop: Stop,
    spans: Option<(Instant, &'static str)>,
) -> Drive {
    let first = match &stop {
        Stop::At(_) => 0,
        Stop::Range(range) => range.start,
    };
    let cursor = AtomicUsize::new(first);
    let exhausted = AtomicBool::new(false);
    let (cursor, exhausted, stop) = (&cursor, &exhausted, &stop);
    let timed = &sequence.timed;
    let start = Instant::now();
    let logs: Vec<Drive> = std::thread::scope(|scope| {
        let threads: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                scope.spawn(move || {
                    let mut log = Drive::default();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        let done = match stop {
                            Stop::At(deadline) => Instant::now() >= *deadline,
                            Stop::Range(range) => index >= range.end,
                        };
                        if done {
                            break;
                        }
                        let (s, t) = match timed.get(index) {
                            Some(&pair) => pair,
                            None if sequence.wraps => timed[index % timed.len()],
                            None => {
                                exhausted.store(true, Ordering::Relaxed);
                                break;
                            }
                        };
                        let body = pair_body(s, t);
                        let t0 = Instant::now();
                        let answer = client
                            .call("POST", "/query", &body)
                            .and_then(|(status, body)| answer_bits(status, &body));
                        let t1 = Instant::now();
                        match answer {
                            Ok(bits) => log.samples.push(Sample {
                                index,
                                latency_ns: (t1 - t0).as_nanos() as u64,
                                bits,
                            }),
                            Err(e) => log.errors.push((index, e)),
                        }
                        if let Some((origin, name)) = spans {
                            log.spans
                                .push(trace::span(origin, name, t0, t1, None, index as u64));
                        }
                    }
                    log
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Drive {
        wall: start.elapsed(),
        exhausted: exhausted.load(Ordering::Relaxed),
        ..Drive::default()
    };
    for log in logs {
        all.samples.extend(log.samples);
        all.errors.extend(log.errors);
        all.spans.extend(log.spans);
    }
    all
}

fn stats_delta(after: ServerStats, before: ServerStats) -> ServerStats {
    ServerStats {
        submitted: after.submitted - before.submitted,
        completed: after.completed - before.completed,
        executed_jobs: after.executed_jobs - before.executed_jobs,
        deduplicated: after.deduplicated - before.deduplicated,
        attached_running: after.attached_running - before.attached_running,
        coalesced_batches: after.coalesced_batches - before.coalesced_batches,
        coalesced_requests: after.coalesced_requests - before.coalesced_requests,
        rejected_overloaded: after.rejected_overloaded - before.rejected_overloaded,
        expired: after.expired - before.expired,
    }
}

/// The correctness gate, run outside the timed phase. Every answer must
/// have parsed; one pair must get one value throughout the run; a seeded
/// sample must match a fresh in-process service bit for bit; another must
/// lie within ε of CG ground truth. Each wrong answer counts as a failed op.
fn check(
    report: &mut Report,
    w: &ReadWorkload,
    ctx: &GraphContext,
    timed: &[Pair],
    run: &Drive,
    seed: u64,
) -> Result<(), String> {
    if let Some((index, first)) = run.errors.first() {
        report.note(format!("first failed request (#{index}): {first}"));
    }
    report.fail(run.errors.len() as u64, "requests failed");

    let mut by_pair: BTreeMap<Pair, u64> = BTreeMap::new();
    let mut inconsistent = 0;
    for sample in &run.samples {
        let pair = canonical(timed[sample.index % timed.len()]);
        if *by_pair.entry(pair).or_insert(sample.bits) != sample.bits {
            inconsistent += 1;
        }
    }
    report.fail(
        inconsistent,
        "answers differ from an earlier answer to the same pair",
    );

    let mut answered: Vec<(Pair, u64)> = by_pair.into_iter().collect();
    answered.shuffle(&mut StdRng::seed_from_u64(seed ^ SAMPLE_SALT));
    let fresh = ResistanceService::from_context(ctx.clone(), approx_config());
    let mut mismatched = 0;
    for &(pair, bits) in answered.iter().take(w.bits_samples) {
        let value = fresh
            .submit(&request(pair))
            .map_err(|e| format!("fresh service: {e}"))?
            .value();
        if value.to_bits() != bits {
            mismatched += 1;
        }
    }
    report.fail(
        mismatched,
        "answers differ in bits from a fresh in-process service",
    );

    let truth = GroundTruth::with_method(ctx.graph(), GroundTruthMethod::LaplacianSolve);
    let eps = approx_config().epsilon;
    let mut outside = 0;
    let mut worst: f64 = 0.0;
    let sampled = answered.iter().rev().take(w.truth_samples);
    for &((s, t), bits) in sampled {
        let exact = truth
            .resistance(s, t)
            .map_err(|e| format!("ground truth: {e}"))?;
        let error = (f64::from_bits(bits) - exact).abs();
        worst = worst.max(error);
        if error > eps {
            outside += 1;
        }
    }
    report.note(format!(
        "checked: {} answers bit for bit, {} against CG (worst error {worst:.2e}, eps {eps})",
        w.bits_samples.min(answered.len()),
        w.truth_samples.min(answered.len())
    ));
    report.fail(outside, "answers farther than eps from CG ground truth");
    Ok(())
}

/// The untraced run: end-to-end metrics.
pub fn run(w: &ReadWorkload, seed: u64, seconds: u64) -> Result<Report, String> {
    let sequence = sequence(w, seed, DISTINCT_PER_SECOND * seconds as usize);
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut stack = None;
    for _ in 0..SETUP_REPEATS {
        if let Some((old, _)) = stack.take() {
            HttpStack::stop(old);
        }
        let t0 = Instant::now();
        let graph = w.graph.generate()?;
        let ctx = GraphContext::preprocess(graph).map_err(|e| format!("preprocess: {e}"))?;
        let service = warmed_service(&ctx, &sequence.warm)?;
        let started = HttpStack::start(service, CONNECTIONS)?;
        setups.push(t0.elapsed().as_secs_f64());
        stack = Some((started, ctx));
    }
    let (mut stack, ctx) = stack.expect("at least one setup");

    let before = stack.handle.stats();
    let cache_before = stack.handle.service().cache_stats();
    let cpu0 = measure::cpu_seconds();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let run = drive(&mut stack.clients, &sequence, Stop::At(deadline), None);
    let cpu = measure::cpu_seconds() - cpu0;
    let peak_rss = measure::peak_rss_mb();
    let stats = stats_delta(stack.handle.stats(), before);
    let cache_after = stack.handle.service().cache_stats();
    stack.stop();
    if run.exhausted {
        return Err("the request sequence ran out; raise DISTINCT_PER_SECOND".into());
    }
    if run.samples.is_empty() {
        return Err("no request completed".into());
    }

    let mut report = Report::default();
    let ops = run.attempted() as f64;
    let latencies = run.latencies_ms();
    report.attempted = run.attempted() as u64;
    report.set("throughput_ops", ops / run.wall.as_secs_f64());
    report.set("latency_p50_ms", quantile(&latencies, 0.5));
    report.set("latency_p90_ms", quantile(&latencies, 0.9));
    report.set("cpu_ms_per_op", cpu * 1e3 / ops);
    report.set("setup_s", quantile(&setups, 0.5));
    report.set("peak_rss_mb", peak_rss);
    let lookups = (cache_after.0 - cache_before.0) + (cache_after.1 - cache_before.1);
    report.note(format!(
        "{}: {} requests in {:.3} s over {CONNECTIONS} connections; warm-up prefix {} requests; setups {setups:?} s",
        w.name,
        run.attempted(),
        run.wall.as_secs_f64(),
        sequence.warm.len()
    ));
    report.note(format!(
        "cache hit ratio {:.4} (base: {lookups} lookups); server executed {} jobs for {} submits",
        (cache_after.0 - cache_before.0) as f64 / lookups.max(1) as f64,
        stats.executed_jobs,
        stats.submitted
    ));
    check(&mut report, w, &ctx, &sequence.timed, &run, seed)?;
    Ok(report)
}

/// Counts of the in-process passes, which run on one thread and so repeat
/// exactly for one seed.
#[derive(Debug, Default, PartialEq)]
pub struct PassCounts {
    pub hits: u64,
    pub misses: u64,
    pub entries: usize,
    pub backends: BTreeMap<&'static str, u64>,
    pub geer: GeerCounts,
}

/// Work GEER did on the traced pairs, summed.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct GeerCounts {
    pub pairs: u64,
    pub matvec_ops: u64,
    pub walk_steps: u64,
    pub random_walks: u64,
    pub switch_points: u64,
    pub ells: u64,
}

impl GeerCounts {
    /// Times `Geer::estimate_traced` on `(s, t)`, then `smm::run_smm` to the
    /// traced switch point as its child span, and adds up the work.
    pub fn trace_pair(
        &mut self,
        tracer: &mut Tracer,
        ctx: &GraphContext,
        (s, t): Pair,
        request: u64,
    ) -> Result<(), String> {
        let mut geer = Geer::new(ctx, approx_config()).fork(request);
        let t0 = Instant::now();
        let traced = geer
            .estimate_traced(s, t)
            .map_err(|e| format!("GEER: {e}"))?;
        let t1 = Instant::now();
        let id = tracer.record("geer", t0, t1, None, request);
        let prefix = smm::run_smm(ctx.graph(), s, t, traced.ell_b);
        std::hint::black_box(prefix.r_b);
        tracer.record("geer.smm", t1, Instant::now(), Some(id), request);
        self.pairs += 1;
        self.matvec_ops += traced.cost.matvec_ops;
        self.walk_steps += traced.cost.walk_steps;
        self.random_walks += traced.cost.random_walks;
        self.switch_points += traced.ell_b as u64;
        self.ells += traced.ell as u64;
        Ok(())
    }

    /// The `geer.*` and `walks.*` metrics, from the counts and the spans.
    pub fn report(&self, report: &mut Report, tracer: &Tracer) {
        let pairs = self.pairs.max(1) as f64;
        let pair_us = tracer.mean_us("geer");
        let smm_us = tracer.mean_us("geer.smm");
        let amc_us = pair_us - smm_us;
        let ops = (self.matvec_ops + self.walk_steps) as f64 / pairs;
        report.set("geer.pair_us", pair_us);
        report.set("geer.smm_us", smm_us);
        report.set("geer.amc_us", amc_us);
        report.set("geer.matvec_ops", self.matvec_ops as f64 / pairs);
        report.set("geer.walk_steps", self.walk_steps as f64 / pairs);
        report.set("geer.random_walks", self.random_walks as f64 / pairs);
        report.set("geer.switch_point", self.switch_points as f64 / pairs);
        report.set("geer.ell", self.ells as f64 / pairs);
        report.set(
            "geer.ns_per_op",
            if ops > 0.0 { pair_us * 1e3 / ops } else { 0.0 },
        );
        let steps_per_pair = self.walk_steps as f64 / pairs;
        report.set(
            "walks.steps_per_s",
            if amc_us > 0.0 {
                steps_per_pair / amc_us * 1e6
            } else {
                0.0
            },
        );
        report.note(format!(
            "geer.* base: {} miss pairs, means per pair",
            self.pairs
        ));
    }
}

/// Chunks the two closed-loop passes of the traced run alternate in, so
/// slow drift in machine speed falls on both alike.
const CLOSED_LOOP_CHUNKS: usize = 8;

/// The two-connection closed loop on two identically warmed stacks, one
/// untraced and one leaving `http.closed_loop` spans, alternating chunk by
/// chunk over the same requests, each going first in every other chunk.
/// Returns both passes, and the traced stack's scheduler counters and client
/// bytes.
fn closed_loops(
    ctx: &GraphContext,
    sequence: &Sequence,
    count: usize,
    origin: Instant,
) -> Result<(Drive, Drive, ServerStats, u64), String> {
    let mut plain_stack = HttpStack::start(warmed_service(ctx, &sequence.warm)?, CONNECTIONS)?;
    let mut traced_stack = HttpStack::start(warmed_service(ctx, &sequence.warm)?, CONNECTIONS)?;
    let before = traced_stack.handle.stats();
    let (mut plain, mut traced) = (Drive::default(), Drive::default());
    let chunk = count.div_ceil(CLOSED_LOOP_CHUNKS);
    for (k, start) in (0..count).step_by(chunk).enumerate() {
        let range = start..(start + chunk).min(count);
        let mut passes = [
            (&mut plain_stack, None, &mut plain),
            (
                &mut traced_stack,
                Some((origin, "http.closed_loop")),
                &mut traced,
            ),
        ];
        if k % 2 == 1 {
            passes.reverse();
        }
        for (stack, spans, all) in passes {
            let run = drive(
                &mut stack.clients,
                sequence,
                Stop::Range(range.clone()),
                spans,
            );
            all.samples.extend(run.samples);
            all.errors.extend(run.errors);
            all.spans.extend(run.spans);
            all.wall += run.wall;
        }
    }
    let stats = stats_delta(traced_stack.handle.stats(), before);
    let bytes = traced_stack.clients.iter().map(|c| c.bytes).sum();
    plain_stack.stop();
    traced_stack.stop();
    Ok((plain, traced, stats, bytes))
}

/// What the one-at-a-time passes answered, in request order.
struct OneAtATime {
    http: Vec<Result<u64, String>>,
    server: Vec<Result<u64, String>>,
    service: Vec<Response>,
    /// The service pass's cache counters over the replay: hits, misses, and
    /// entries at the end.
    cache: (u64, u64, usize),
}

/// Visiting orders of the three entry points: every permutation, so for any
/// two of them each goes first equally often and from the same positions.
const ORDERS: [[usize; 3]; 6] = [
    [0, 1, 2],
    [1, 2, 0],
    [2, 0, 1],
    [0, 2, 1],
    [2, 1, 0],
    [1, 0, 2],
];

/// Replays the requests one at a time through three identically warmed
/// stacks: HTTP over one connection, `ServerHandle::submit`→`Ticket::wait`,
/// and `ResistanceService::submit`. Each request visits all three before
/// the next starts, in an order that cycles through all six permutations,
/// so drift and cache warmth fall on every entry point alike. Leaves
/// `http`, `server` and `service` spans.
fn one_at_a_time(
    tracer: &mut Tracer,
    ctx: &GraphContext,
    sequence: &Sequence,
    count: usize,
) -> Result<OneAtATime, String> {
    let mut http = HttpStack::start(warmed_service(ctx, &sequence.warm)?, 1)?;
    let server = ResistanceServer::spawn(warmed_service(ctx, &sequence.warm)?, server_config());
    let service = warmed_service(ctx, &sequence.warm)?;
    let (hits0, misses0, _) = service.cache_stats();
    let mut out = OneAtATime {
        http: Vec::with_capacity(count),
        server: Vec::with_capacity(count),
        service: Vec::with_capacity(count),
        cache: (0, 0, 0),
    };
    for (i, &pair) in sequence.timed[..count].iter().enumerate() {
        let body = pair_body(pair.0, pair.1);
        for &entry in &ORDERS[i % ORDERS.len()] {
            let t0 = Instant::now();
            match entry {
                0 => {
                    let answer = http.clients[0]
                        .call("POST", "/query", &body)
                        .and_then(|(status, body)| answer_bits(status, &body));
                    tracer.record("http", t0, Instant::now(), None, i as u64);
                    out.http.push(answer);
                }
                1 => {
                    let answer = server
                        .submit(request(pair))
                        .and_then(|ticket| ticket.wait());
                    tracer.record("server", t0, Instant::now(), None, i as u64);
                    out.server.push(
                        answer
                            .map(|r| r.value().to_bits())
                            .map_err(|e| e.to_string()),
                    );
                }
                _ => {
                    let response = service
                        .submit(&request(pair))
                        .map_err(|e| format!("service: {e}"))?;
                    tracer.record("service", t0, Instant::now(), None, i as u64);
                    out.service.push(response);
                }
            }
        }
    }
    let (hits1, misses1, entries) = service.cache_stats();
    out.cache = (hits1 - hits0, misses1 - misses0, entries);
    http.stop();
    server.shutdown();
    Ok(out)
}

/// The single-threaded counts of the service pass, and GEER traced on its
/// misses (`geer` and `geer.smm` spans).
fn pass_counts(
    tracer: &mut Tracer,
    ctx: &GraphContext,
    sequence: &Sequence,
    pass: &OneAtATime,
) -> Result<PassCounts, String> {
    let (hits, misses, entries) = pass.cache;
    let mut counts = PassCounts {
        hits,
        misses,
        entries,
        ..PassCounts::default()
    };
    for (i, response) in pass.service.iter().enumerate() {
        *counts.backends.entry(response.backend).or_default() += 1;
        if response.backend == "GEER" && response.backend_calls > 0 {
            let pair = canonical(sequence.timed[i]);
            counts.geer.trace_pair(tracer, ctx, pair, i as u64)?;
        }
    }
    Ok(counts)
}

/// Self time of a layer: the mean over requests of its pass's latency minus
/// the next-inner pass's, after dropping the tenth most extreme differences
/// at each end (a preempted request, not the layer, makes those).
fn self_time_us(outer: &[f64], inner: &[f64]) -> f64 {
    let mut diffs: Vec<f64> = outer.iter().zip(inner).map(|(o, i)| o - i).collect();
    diffs.sort_by(f64::total_cmp);
    let cut = diffs.len() / 10;
    mean(&diffs[cut..diffs.len() - cut])
}

/// The traced run: per-layer metrics.
pub fn run_traced(w: &ReadWorkload, seed: u64) -> Result<Report, String> {
    let mut report = Report::default();
    let mut tracer = Tracer::new();
    let t0 = Instant::now();
    let graph = w.graph.generate()?;
    let t1 = Instant::now();
    tracer.record("graph.generate", t0, t1, None, 0);
    let ctx = GraphContext::preprocess(graph).map_err(|e| format!("preprocess: {e}"))?;
    tracer.record("linalg.preprocess", t1, Instant::now(), None, 0);
    let count = w.trace_requests;
    let sequence = sequence(w, seed, count);

    let (plain, traced, stats, bytes) = closed_loops(&ctx, &sequence, count, tracer.origin())?;
    for &span in &traced.spans {
        tracer.push(span);
    }
    let pass = one_at_a_time(&mut tracer, &ctx, &sequence, count)?;
    let counts = pass_counts(&mut tracer, &ctx, &sequence, &pass)?;
    for (i, &(s, t)) in sequence.timed[..count].iter().enumerate() {
        let body = pair_body(s, t);
        let t0 = Instant::now();
        let parsed = api::parse_query_body(&body);
        tracer.record("http.parse", t0, Instant::now(), None, i as u64);
        if parsed.map(|r| r.query) != Ok(Query::pair(s, t)) {
            return Err(format!("parse_query_body misread {body}"));
        }
    }
    for (i, response) in pass.service.iter().enumerate() {
        let t0 = Instant::now();
        std::hint::black_box(api::render_response(response));
        tracer.record("http.render", t0, Instant::now(), None, i as u64);
    }

    // Correctness: every pass answers every request with the service pass's
    // bits; a seeded sample also meets CG ground truth.
    let reference: Vec<u64> = pass.service.iter().map(|r| r.value().to_bits()).collect();
    for (what, run) in [("closed-loop", &plain), ("traced closed-loop", &traced)] {
        let wrong = run.errors.len()
            + run
                .samples
                .iter()
                .filter(|s| s.bits != reference[s.index])
                .count();
        report.fail(
            wrong as u64,
            &format!("{what} HTTP answers failed or differ from the service pass"),
        );
    }
    for (what, answers) in [
        ("one-connection HTTP", &pass.http),
        ("ServerHandle", &pass.server),
    ] {
        let wrong = answers
            .iter()
            .zip(&reference)
            .filter(|(got, want)| got.as_ref().ok() != Some(want))
            .count();
        report.fail(
            wrong as u64,
            &format!("{what} answers failed or differ from the service pass"),
        );
    }
    report.attempted = (plain.attempted() + traced.attempted() + 3 * count) as u64;
    check(&mut report, w, &ctx, &sequence.timed, &traced, seed)?;

    // Per-layer metrics.
    let http_us: Vec<f64> = tracer.durations_us("http").collect();
    let server_us: Vec<f64> = tracer.durations_us("server").collect();
    let service_us: Vec<f64> = tracer.durations_us("service").collect();
    report.set("http.self_us", self_time_us(&http_us, &server_us));
    report.set("http.parse_us", tracer.mean_us("http.parse"));
    report.set("http.render_us", tracer.mean_us("http.render"));
    report.set(
        "http.bytes_per_req",
        bytes as f64 / traced.attempted().max(1) as f64,
    );
    report.set("server.self_us", self_time_us(&server_us, &service_us));
    report.set(
        "server.executed_per_submitted",
        stats.executed_jobs as f64 / stats.submitted.max(1) as f64,
    );
    report.set("server.deduplicated", stats.deduplicated as f64);
    report.set("server.attached_running", stats.attached_running as f64);
    report.set("server.coalesced_requests", stats.coalesced_requests as f64);
    report.set(
        "server.rejected_overloaded",
        stats.rejected_overloaded as f64,
    );
    report.set("server.expired", stats.expired as f64);
    report.note(format!(
        "server.* base: {} submitted over {CONNECTIONS} connections (traced closed loop)",
        stats.submitted
    ));

    let split = |hit: bool| -> Vec<f64> {
        pass.service
            .iter()
            .zip(&service_us)
            .filter(|(r, _)| (r.backend_calls == 0) == hit)
            .map(|(_, &us)| us)
            .collect()
    };
    report.set("service.hit_us", mean(&split(true)));
    report.set("service.miss_us", mean(&split(false)));
    let lookups = counts.hits + counts.misses;
    report.set(
        "service.cache_hit_ratio",
        counts.hits as f64 / lookups.max(1) as f64,
    );
    report.set("service.cache_entries", counts.entries as f64);
    report.note(format!("service.cache_hit_ratio base: {lookups} lookups"));
    set_backend_shares(&mut report, &counts.backends);
    counts.geer.report(&mut report, &tracer);
    report.set("graph.generate_s", tracer.mean_us("graph.generate") / 1e6);
    report.set(
        "linalg.preprocess_s",
        tracer.mean_us("linalg.preprocess") / 1e6,
    );

    let summary = |run: &Drive| {
        let latencies = run.latencies_ms();
        (
            quantile(&latencies, 0.5),
            quantile(&latencies, 0.9),
            run.attempted() as f64 / run.wall.as_secs_f64(),
        )
    };
    let (p50, p90, ops) = summary(&plain);
    let (tp50, tp90, tops) = summary(&traced);
    report.set("trace.overhead_pct", (tp50 / p50 - 1.0) * 100.0);
    report.note(format!(
        "closed loop untraced: p50 {p50:.4} ms, p90 {p90:.4} ms, {ops:.1} req/s; traced: p50 {tp50:.4} ms, p90 {tp90:.4} ms, {tops:.1} req/s ({count} requests each, alternating in {CLOSED_LOOP_CHUNKS} chunks)"
    ));
    report.note(format!(
        "one request at a time, mean per request: HTTP {:.2} us, ServerHandle {:.2} us, service {:.2} us",
        mean(&http_us),
        mean(&server_us),
        mean(&service_us)
    ));
    write_spans(&mut report, &tracer, w.name, seed);
    Ok(report)
}

/// `service.backend.<NAME>`: the share of requests each backend answered.
pub fn set_backend_shares(report: &mut Report, backends: &BTreeMap<&'static str, u64>) {
    let total = backends.values().sum::<u64>().max(1) as f64;
    let mut other = 0;
    for (&name, &n) in backends {
        match name {
            "GEER" => report.set("service.backend.GEER", n as f64 / total),
            "EXACT-CG" => report.set("service.backend.EXACT-CG", n as f64 / total),
            "INDEX" => report.set("service.backend.INDEX", n as f64 / total),
            _ => other += n,
        }
    }
    for name in [
        "service.backend.GEER",
        "service.backend.EXACT-CG",
        "service.backend.INDEX",
    ] {
        if !backends.contains_key(&name["service.backend.".len()..]) {
            report.set(name, 0.0);
        }
    }
    report.set("service.backend.other", other as f64 / total);
    report.note(format!(
        "service.backend.* base: {} requests {backends:?}",
        total as u64
    ));
}

pub fn write_spans(report: &mut Report, tracer: &Tracer, workload: &str, seed: u64) {
    let path = trace::spans_path(workload, seed);
    match tracer.write(&path) {
        Ok(()) => report.note(format!("spans written to {}", path.display())),
        Err(e) => report.note(format!("spans not written ({e})")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: ReadWorkload = ReadWorkload {
        name: "small",
        graph: GraphSpec::Social {
            n: 600,
            avg_degree: 8.0,
            seed: 3,
        },
        mix: Mix::Distinct { warmup: 4 },
        trace_requests: 40,
        bits_samples: 8,
        truth_samples: 4,
    };

    fn counts(seed: u64) -> PassCounts {
        let ctx = GraphContext::preprocess(SMALL.graph.generate().unwrap()).unwrap();
        let sequence = sequence(&SMALL, seed, SMALL.trace_requests);
        let mut tracer = Tracer::new();
        let pass = one_at_a_time(&mut tracer, &ctx, &sequence, SMALL.trace_requests).unwrap();
        pass_counts(&mut tracer, &ctx, &sequence, &pass).unwrap()
    }

    #[test]
    fn one_seed_gives_identical_single_threaded_counts() {
        let first = counts(5);
        assert!(first.geer.pairs > 0, "the traced pass must reach GEER");
        assert!(first.geer.walk_steps + first.geer.matvec_ops > 0);
        assert_eq!(first, counts(5));
    }

    #[test]
    fn zipf_prefix_fills_the_cache_and_the_timed_part_follows_it() {
        let sequence = sequence(&ZIPF_HTTP, 1, 0);
        let distinct: std::collections::HashSet<Pair> =
            sequence.warm.iter().map(|&p| canonical(p)).collect();
        assert_eq!(distinct.len(), ResistanceService::DEFAULT_CACHE_CAPACITY);
        assert_eq!(sequence.warm.len() + sequence.timed.len(), ZIPF_STREAM);
    }
}
