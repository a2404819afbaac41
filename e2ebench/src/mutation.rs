//! `mutation_stream`: seeded edge bursts and pair reads through
//! `DynamicResistanceService`, one thread, no HTTP (er-http has no
//! mutation route).
//!
//! The untraced run lets the first read after each burst install the new
//! epoch, as a user's read would, and reports that read's latency. The
//! traced run calls `refresh()` explicitly after each burst and times the
//! refresh's stages on the same graphs through their public functions.

use crate::measure::{self, quantile, Report};
use crate::reads::{set_backend_shares, write_spans, GeerCounts};
use crate::seq::{self, canonical, Mutation, MutationStream, Pair};
use crate::trace::Tracer;
use crate::{approx_config, GraphSpec, SETUP_REPEATS};
use er_core::GraphContext;
use er_graph::{analysis, Graph, OverlayGraph};
use er_linalg::spectral_bounds_warm;
use er_service::{DynamicResistanceService, Query, Request, ResistanceService, Response};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub struct MutationWorkload {
    pub graph: GraphSpec,
    pub inserts: usize,
    pub deletes: usize,
    pub reads: usize,
    /// Bursts the traced run replays.
    pub trace_bursts: usize,
    /// About one burst in this many is a correctness checkpoint.
    pub check_every: u64,
}

pub const MUTATION_STREAM: MutationWorkload = MutationWorkload {
    graph: GraphSpec::BarabasiAlbert {
        n: 20_000,
        m: 4,
        seed: 13,
    },
    inserts: 2,
    deletes: 1,
    reads: 8,
    trace_bursts: 120,
    check_every: 16,
};

/// Lanczos budget and seed of an incremental refresh in
/// `er_index::DynamicEr`: a third of the cold budget, seeded as its refreshes
/// are. The traced run calls `spectral_bounds_warm` with them on the same
/// graphs.
const WARM_LANCZOS: usize = GraphContext::DEFAULT_LANCZOS_ITERATIONS / 3;
const LANCZOS_SEED: u64 = 0xd1a;

/// A dynamic service over `graph` with its first epoch installed.
fn dynamic_service(graph: &Graph) -> Result<DynamicResistanceService, String> {
    let dynamic = DynamicResistanceService::from_graph(graph, approx_config());
    dynamic.refresh().map_err(|e| format!("first epoch: {e}"))?;
    Ok(dynamic)
}

fn apply(dynamic: &DynamicResistanceService, mutation: Mutation) -> Result<(), String> {
    let changed = match mutation {
        Mutation::Insert(u, v) => dynamic.insert_edge(u, v),
        Mutation::Delete(u, v) => dynamic.remove_edge(u, v),
    }
    .map_err(|e| format!("{mutation:?}: {e}"))?;
    if changed {
        Ok(())
    } else {
        Err(format!("{mutation:?} changed nothing"))
    }
}

fn read(dynamic: &DynamicResistanceService, (s, t): Pair) -> Result<Response, String> {
    dynamic
        .submit(&Request::new(Query::pair(s, t)))
        .map_err(|e| format!("read ({s}, {t}): {e}"))
}

/// The checkpoint gate for one burst, run outside the timed phase: two of
/// its reads (the first, and one chosen by the seed) must match a fresh
/// service over the same epoch bit for bit, and lie within ε of CG on the
/// mutated graph. Returns the number of wrong answers.
fn check_burst(
    dynamic: &DynamicResistanceService,
    answers: &[(Pair, u64)],
    seed: u64,
    index: usize,
) -> Result<(u64, f64), String> {
    let epoch = dynamic.epoch().ok_or("no epoch installed")?;
    let fresh = ResistanceService::from_context(epoch.service().context().clone(), approx_config());
    let eps = approx_config().epsilon;
    let other = 1 + (seed as usize).wrapping_add(index) % (answers.len() - 1);
    let mut wrong = 0;
    let mut worst: f64 = 0.0;
    for ((s, t), bits) in [answers[0], answers[other]] {
        let again = fresh
            .submit(&Request::new(Query::pair(s, t)))
            .map_err(|e| format!("fresh service: {e}"))?;
        let exact = dynamic
            .resistance_exact(s, t)
            .map_err(|e| format!("ground truth: {e}"))?;
        let error = (f64::from_bits(bits) - exact).abs();
        worst = worst.max(error);
        if again.value().to_bits() != bits || error > eps {
            wrong += 1;
        }
    }
    Ok((wrong, worst))
}

/// Counters of the dynamic service.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub full_rebuilds: u64,
    pub incremental_refreshes: u64,
    pub service_refreshes: u64,
    pub sm_updates: u64,
    pub cg_fallbacks: u64,
}

impl Counters {
    fn of(dynamic: &DynamicResistanceService) -> Counters {
        Counters {
            full_rebuilds: dynamic.snapshot_full_rebuilds(),
            incremental_refreshes: dynamic.incremental_refreshes(),
            service_refreshes: dynamic.service_refreshes(),
            sm_updates: dynamic.sm_updates(),
            cg_fallbacks: dynamic.cg_fallbacks(),
        }
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            full_rebuilds: self.full_rebuilds - before.full_rebuilds,
            incremental_refreshes: self.incremental_refreshes - before.incremental_refreshes,
            service_refreshes: self.service_refreshes - before.service_refreshes,
            sm_updates: self.sm_updates - before.sm_updates,
            cg_fallbacks: self.cg_fallbacks - before.cg_fallbacks,
        }
    }
}

/// The untraced run: end-to-end metrics.
pub fn run(w: &MutationWorkload, seed: u64, seconds: u64) -> Result<Report, String> {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut stack = None;
    for _ in 0..SETUP_REPEATS {
        drop(stack.take());
        let t0 = Instant::now();
        let graph = w.graph.generate()?;
        let dynamic = dynamic_service(&graph)?;
        setups.push(t0.elapsed().as_secs_f64());
        stack = Some((graph, dynamic));
    }
    let (graph, dynamic) = stack.expect("at least one setup");
    let before = Counters::of(&dynamic);

    let mut report = Report::default();
    let budget = Duration::from_secs(seconds);
    let mut timed = Duration::ZERO;
    let mut cpu = 0.0;
    let mut fresh_ms = Vec::new();
    let mut steps = 0u64;
    let mut failures = Vec::new();
    let mut checked = 0;
    let mut worst: f64 = 0.0;
    let mut segment = (Instant::now(), measure::cpu_seconds());
    let stream = MutationStream::new(&graph, w.inserts, w.deletes, w.reads, seed);
    for (index, burst) in stream.enumerate() {
        if timed + segment.0.elapsed() >= budget {
            break;
        }
        for &mutation in &burst.mutations {
            steps += 1;
            if let Err(e) = apply(&dynamic, mutation) {
                failures.push(e);
            }
        }
        let mut answers = Vec::with_capacity(burst.reads.len());
        for (k, &pair) in burst.reads.iter().enumerate() {
            steps += 1;
            let t0 = Instant::now();
            let answer = read(&dynamic, pair);
            if k == 0 {
                fresh_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
            match answer {
                Ok(response) => answers.push((pair, response.value().to_bits())),
                Err(e) => failures.push(e),
            }
        }
        if seq::is_checkpoint(seed, index, w.check_every) && answers.len() == burst.reads.len() {
            timed += segment.0.elapsed();
            cpu += measure::cpu_seconds() - segment.1;
            let (wrong, err) = check_burst(&dynamic, &answers, seed, index)?;
            report.fail(wrong, &format!("wrong answers at checkpoint burst {index}"));
            checked += 2;
            worst = worst.max(err);
            segment = (Instant::now(), measure::cpu_seconds());
        }
    }
    timed += segment.0.elapsed();
    cpu += measure::cpu_seconds() - segment.1;
    let peak_rss = measure::peak_rss_mb();
    let counters = Counters::of(&dynamic).since(before);
    if fresh_ms.is_empty() {
        return Err("no burst completed".into());
    }

    if let Some(first) = failures.first() {
        report.note(format!("first failed operation: {first}"));
    }
    report.fail(failures.len() as u64, "mutations or reads failed");
    report.attempted = steps;
    report.set("throughput_ops", steps as f64 / timed.as_secs_f64());
    report.set("latency_p50_ms", quantile(&fresh_ms, 0.5));
    report.set("latency_p90_ms", quantile(&fresh_ms, 0.9));
    report.set("cpu_ms_per_op", cpu * 1e3 / steps as f64);
    report.set("setup_s", quantile(&setups, 0.5));
    report.set("peak_rss_mb", peak_rss);
    let bursts = fresh_ms.len();
    report.note(format!(
        "mutation_stream: {bursts} bursts, {steps} steps in {:.3} s; {} fresh reads beyond p90; setups {setups:?} s",
        timed.as_secs_f64(),
        bursts - (bursts as f64 * 0.9).ceil() as usize
    ));
    report.note(format!("refreshes: {counters:?}"));
    report.note(format!(
        "checked: {checked} reads bit for bit and against CG (worst error {worst:.2e}, eps {})",
        approx_config().epsilon
    ));
    Ok(report)
}

/// What the traced stream measured.
#[derive(Debug, Default, PartialEq)]
pub struct StreamCounts {
    pub counters: Counters,
    pub geer: GeerCounts,
    pub hits: u64,
    pub misses: u64,
    pub entries: usize,
    pub backends: BTreeMap<&'static str, u64>,
    /// `(latency µs, was a cache hit)` of every read.
    pub reads: Vec<(f64, bool)>,
    pub wrong: u64,
}

/// Replays `bursts` bursts with an explicit `refresh()` after each, timing
/// every call into a layer. Incremental refreshes are mirrored stage by
/// stage on an overlay of the previous epoch's graph.
pub fn traced_stream(
    tracer: &mut Tracer,
    w: &MutationWorkload,
    graph: &Graph,
    bursts: usize,
    seed: u64,
) -> Result<StreamCounts, String> {
    let dynamic = dynamic_service(graph)?;
    let before = Counters::of(&dynamic);
    let mut out = StreamCounts::default();
    let mut epoch = dynamic.epoch().ok_or("no epoch installed")?;
    let mut overlay = OverlayGraph::new(Arc::clone(epoch.service().context().graph_arc()));
    let cold = GraphContext::DEFAULT_LANCZOS_ITERATIONS;
    let mut ritz = spectral_bounds_warm(graph, cold, LANCZOS_SEED, None).1;
    let mut read_index = 0u64;
    let stream = MutationStream::new(graph, w.inserts, w.deletes, w.reads, seed);
    for (index, burst) in stream.take(bursts).enumerate() {
        let request = index as u64;
        for &mutation in &burst.mutations {
            let t0 = Instant::now();
            apply(&dynamic, mutation)?;
            tracer.record("dynamic.mutation", t0, Instant::now(), None, request);
            match mutation {
                Mutation::Insert(u, v) => overlay.insert_edge(u, v),
                Mutation::Delete(u, v) => overlay.remove_edge(u, v),
            };
        }
        let full_before = dynamic.snapshot_full_rebuilds();
        let t0 = Instant::now();
        epoch = dynamic.refresh().map_err(|e| format!("refresh: {e}"))?;
        tracer.record("dynamic.refresh", t0, Instant::now(), None, request);
        let context = epoch.service().context();
        if dynamic.snapshot_full_rebuilds() > full_before {
            // The cold path ran: restart the warm chain from its graph.
            ritz = spectral_bounds_warm(context.graph(), cold, LANCZOS_SEED, None).1;
        } else {
            let t0 = Instant::now();
            let collapsed = overlay.collapse();
            let t1 = Instant::now();
            tracer.record("graph.collapse", t0, t1, None, request);
            analysis::validate_ergodic(&collapsed).map_err(|e| format!("validate: {e}"))?;
            let t2 = Instant::now();
            tracer.record("graph.validate", t1, t2, None, request);
            ritz = spectral_bounds_warm(&collapsed, WARM_LANCZOS, LANCZOS_SEED, ritz.as_deref()).1;
            tracer.record("linalg.warm_lanczos", t2, Instant::now(), None, request);
        }
        overlay = OverlayGraph::new(Arc::clone(context.graph_arc()));
        let t0 = Instant::now();
        let built = ResistanceService::from_context(context.clone(), approx_config());
        tracer.record("dynamic.service_build", t0, Instant::now(), None, request);
        drop(built);

        let mut answers = Vec::with_capacity(burst.reads.len());
        for (k, &pair) in burst.reads.iter().enumerate() {
            let t0 = Instant::now();
            let response = read(&dynamic, pair)?;
            let t1 = Instant::now();
            let name = if k == 0 {
                "dynamic.first_read"
            } else {
                "dynamic.steady_read"
            };
            tracer.record(name, t0, t1, None, request);
            out.reads
                .push(((t1 - t0).as_secs_f64() * 1e6, response.backend_calls == 0));
            *out.backends.entry(response.backend).or_default() += 1;
            answers.push((pair, response));
        }
        // GEER on the burst's misses, after its reads so it cannot warm them.
        for (pair, response) in &answers {
            if response.backend == "GEER" && response.backend_calls > 0 {
                out.geer
                    .trace_pair(tracer, context, canonical(*pair), read_index)?;
            }
            read_index += 1;
        }
        let answers: Vec<(Pair, u64)> = answers
            .into_iter()
            .map(|(pair, response)| (pair, response.value().to_bits()))
            .collect();
        let (hits, misses, entries) = epoch.service().cache_stats();
        out.hits += hits;
        out.misses += misses;
        out.entries += entries;
        if seq::is_checkpoint(seed, index, w.check_every) {
            out.wrong += check_burst(&dynamic, &answers, seed, index)?.0;
        }
    }
    out.counters = Counters::of(&dynamic).since(before);
    Ok(out)
}

/// The traced run: per-layer metrics.
pub fn run_traced(w: &MutationWorkload, seed: u64) -> Result<Report, String> {
    let mut report = Report::default();
    let mut tracer = Tracer::new();
    let t0 = Instant::now();
    let graph = w.graph.generate()?;
    let t1 = Instant::now();
    tracer.record("graph.generate", t0, t1, None, 0);
    GraphContext::preprocess(&graph).map_err(|e| format!("preprocess: {e}"))?;
    tracer.record("linalg.preprocess", t1, Instant::now(), None, 0);

    let counts = traced_stream(&mut tracer, w, &graph, w.trace_bursts, seed)?;
    report.attempted = (w.trace_bursts * (w.inserts + w.deletes + w.reads)) as u64;
    report.fail(counts.wrong, "wrong answers at checkpoints");

    let ms = |name: &str| tracer.mean_us(name) / 1e3;
    report.set("dynamic.mutation_us", tracer.mean_us("dynamic.mutation"));
    report.set("dynamic.refresh_ms", ms("dynamic.refresh"));
    report.set("dynamic.service_build_ms", ms("dynamic.service_build"));
    report.set("dynamic.steady_read_ms", ms("dynamic.steady_read"));
    report.set("graph.collapse_ms", ms("graph.collapse"));
    report.set("graph.validate_ms", ms("graph.validate"));
    report.set("linalg.warm_lanczos_ms", ms("linalg.warm_lanczos"));
    let c = counts.counters;
    report.set("dynamic.full_rebuilds", c.full_rebuilds as f64);
    report.set(
        "dynamic.incremental_refreshes",
        c.incremental_refreshes as f64,
    );
    report.set("dynamic.service_refreshes", c.service_refreshes as f64);
    report.set("dynamic.sm_updates", c.sm_updates as f64);
    report.set("dynamic.cg_fallbacks", c.cg_fallbacks as f64);
    report.note(format!(
        "dynamic.* base: {} bursts of {} inserts, {} deletes, {} reads; graph.*/linalg.warm_lanczos_ms base: {} incremental refreshes",
        w.trace_bursts, w.inserts, w.deletes, w.reads, c.incremental_refreshes
    ));

    let split = |hit: bool| -> Vec<f64> {
        counts
            .reads
            .iter()
            .filter(|r| r.1 == hit)
            .map(|r| r.0)
            .collect()
    };
    report.set("service.hit_us", measure::mean(&split(true)));
    report.set("service.miss_us", measure::mean(&split(false)));
    let lookups = counts.hits + counts.misses;
    report.set(
        "service.cache_hit_ratio",
        counts.hits as f64 / lookups.max(1) as f64,
    );
    report.set(
        "service.cache_entries",
        counts.entries as f64 / w.trace_bursts.max(1) as f64,
    );
    report.note(format!(
        "service.cache_hit_ratio base: {lookups} lookups; service.cache_entries: mean per epoch"
    ));
    set_backend_shares(&mut report, &counts.backends);
    counts.geer.report(&mut report, &tracer);
    report.set("graph.generate_s", tracer.mean_us("graph.generate") / 1e6);
    report.set(
        "linalg.preprocess_s",
        tracer.mean_us("linalg.preprocess") / 1e6,
    );
    report.note(format!(
        "refresh {:.3} ms + first read {:.3} ms after each burst (explicit refresh)",
        ms("dynamic.refresh"),
        ms("dynamic.first_read")
    ));
    write_spans(&mut report, &tracer, "mutation_stream", seed);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: MutationWorkload = MutationWorkload {
        graph: GraphSpec::BarabasiAlbert {
            n: 800,
            m: 4,
            seed: 2,
        },
        inserts: 2,
        deletes: 1,
        reads: 3,
        trace_bursts: 30,
        check_every: 8,
    };

    fn counts(seed: u64) -> StreamCounts {
        let graph = SMALL.graph.generate().unwrap();
        let mut tracer = Tracer::new();
        let mut counts =
            traced_stream(&mut tracer, &SMALL, &graph, SMALL.trace_bursts, seed).unwrap();
        counts.reads.iter_mut().for_each(|r| r.0 = 0.0);
        counts
    }

    #[test]
    fn one_seed_gives_identical_single_threaded_counts() {
        let first = counts(4);
        assert_eq!(first.wrong, 0);
        assert!(first.geer.pairs > 0);
        // 90 mutations at the default refresh interval of 64: one full
        // rebuild, every other refresh incremental, one epoch per burst.
        assert_eq!(first.counters.full_rebuilds, 1);
        assert_eq!(first.counters.incremental_refreshes, 29);
        assert_eq!(first.counters.service_refreshes, 30);
        assert_eq!(first, counts(4));
    }
}
