//! The concurrent serving front end: a worker pool over one shared
//! [`ResistanceService`].
//!
//! [`ResistanceServer::spawn`] takes ownership of a service and starts
//! `workers` threads; the returned [`ServerHandle`] is cheaply cloneable, so
//! any number of client threads can [`submit`](ServerHandle::submit)
//! concurrently. Each submit is *admitted* (or rejected with
//! [`ServiceError::Overloaded`] when the bounded queue is full) and returns a
//! [`Ticket`] immediately; the response is collected with [`Ticket::wait`].
//!
//! The scheduler layers four policies over the plain FIFO queue:
//!
//! * **Admission / backpressure** — at most
//!   [`queue_depth`](ServerConfig::queue_depth) jobs wait at once; beyond
//!   that, submits fail fast instead of hiding unbounded latency.
//! * **Priorities and deadlines** — workers pick the highest
//!   [`Priority`] first, earliest start-deadline within a
//!   priority; a job whose deadline lapses before it starts completes with
//!   [`ServiceError::DeadlineExceeded`] without running.
//! * **Dedup** — one in-flight table, keyed by request content (query,
//!   accuracy, backend override), holds every deadline-free job from
//!   admission until its result is published, together with the job's one
//!   response slot. An identical deadline-free submit takes a [`Ticket`] on
//!   that slot instead of enqueuing a duplicate: while the job is queued it
//!   counts as [`ServerStats::deduplicated`] (and re-queues the job at its
//!   own priority), once a worker has taken it as
//!   [`ServerStats::attached_running`]. The worker removes the entry before
//!   it completes the slot, so a submit arriving after that starts a new job,
//!   which the service cache answers. A request with a deadline always gets
//!   its own job, so nobody inherits (or loses) an expiry they did not ask
//!   for.
//! * **Coalescing** — when a worker picks a pair-shaped job it also drains
//!   compatible queued jobs (same accuracy class and planned backend) and
//!   answers them as one batch plan via
//!   [`ResistanceService::submit_coalesced`], so GEER's parallel fan-out and
//!   HAY's spanning-tree pool amortize across clients. Compatibility is
//!   resolved **at admission** into per-class ready-lists, so a worker finds
//!   its peers with one map lookup and O(1) pops instead of re-planning the
//!   whole queued-job map under the scheduler lock.
//!
//! **Determinism.** RNG streams derive from request content (see
//! [`ResistanceService::submit`]), so every response is bit-identical
//! regardless of worker count, arrival order, or whether a query was
//! coalesced, deduped, cached or served alone — pinned by `tests/server.rs`.

use crate::error::ServiceError;
use crate::query::{Query, Request};
use crate::response::Response;
use crate::service::{CacheClass, ResistanceService};
use crate::session::{Priority, ResponseSlot, SubmitOptions, Ticket};
use er_walks::par::resolve_threads;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Configuration of a [`ResistanceServer`] worker pool.
///
/// ```
/// use er_service::ServerConfig;
///
/// let config = ServerConfig {
///     workers: 4,
///     queue_depth: 128,
///     ..ServerConfig::default()
/// };
/// assert!(!config.start_paused);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker threads executing requests (0 = all cores). Responses are
    /// bit-identical at any worker count.
    pub workers: usize,
    /// Bound on jobs waiting in the queue; submits beyond it are rejected
    /// with [`ServiceError::Overloaded`].
    pub queue_depth: usize,
    /// Start with the workers paused (jobs are admitted and queued but not
    /// executed until [`ServerHandle::resume`]); used to stage queue-level
    /// tests and warm-up sequences deterministically.
    pub start_paused: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            queue_depth: 1024,
            start_paused: false,
        }
    }
}

/// Maximum number of requests merged into one coalesced execution.
const MAX_COALESCE: usize = 32;

/// Counters describing what the server has done so far (monotone; read with
/// [`ServerHandle::stats`]).
///
/// A snapshot is **coherent**: every counter is read under one lock, and the
/// scheduler groups causally-related increments into single critical
/// sections, so a mid-scrape snapshot never reports impossibilities like
/// `completed > submitted` or a coalesced batch without its execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests admitted into the queue (including deduplicated attachers).
    pub submitted: u64,
    /// Tickets fulfilled (successfully or with an error).
    pub completed: u64,
    /// Backend executions performed (a deduplicated or coalesced execution
    /// counts once however many tickets it served).
    pub executed_jobs: u64,
    /// Submits that attached to an identical queued request instead of
    /// enqueuing a new job.
    pub deduplicated: u64,
    /// Submits that attached to an identical **running** execution instead
    /// of enqueuing a new job.
    pub attached_running: u64,
    /// Coalesced executions (each merging ≥ 2 requests into one plan).
    pub coalesced_batches: u64,
    /// Requests answered through a coalesced execution.
    pub coalesced_requests: u64,
    /// Submits rejected by admission control ([`ServiceError::Overloaded`]).
    pub rejected_overloaded: u64,
    /// Jobs whose deadline lapsed before a worker picked them up.
    pub expired: u64,
}

/// The live counters, behind one lock so readers get a coherent
/// [`ServerStats`] snapshot (never `completed > submitted` mid-scrape) and
/// writers batch causally-related increments into one critical section.
#[derive(Default)]
struct StatsCell {
    inner: Mutex<ServerStats>,
}

impl StatsCell {
    fn update(&self, apply: impl FnOnce(&mut ServerStats)) {
        apply(&mut self.inner.lock().expect("stats poisoned"));
    }

    fn snapshot(&self) -> ServerStats {
        *self.inner.lock().expect("stats poisoned")
    }
}

/// One admitted request: the work, its scheduling attributes and the one
/// response slot every ticket on it waits on.
struct Job {
    request: Request,
    deadline: Option<Instant>,
    slot: Arc<ResponseSlot>,
    /// The job's key in [`SchedulerState::in_flight`] (deadline-free jobs
    /// only).
    content: Option<Content>,
    /// The coalescing class this job was filed under at admission
    /// (pair-shaped jobs only).
    coalesce_key: Option<CoalesceKey>,
}

/// What makes two requests identical for dedup: the query and its cache
/// class (the accuracy, floats bit-cast, and the backend override).
type Content = (Query, CacheClass);

fn content(request: &Request) -> Content {
    (
        request.query.clone(),
        CacheClass::of(request.accuracy, request.backend),
    )
}

/// A deadline-free job's entry in the in-flight table, from admission until
/// a worker publishes its result.
struct InFlight {
    /// The job's response slot, shared by every ticket on the job.
    slot: Arc<ResponseSlot>,
    /// Tickets issued on `slot`, the admitting submit's included.
    tickets: u64,
    /// The job's id while it is queued; `None` once a worker has taken it.
    queued: Option<u64>,
}

/// The equivalence class under which pair-shaped jobs may be answered as one
/// batch plan: accuracy target, backend override and the planner's solo
/// choice, all captured **at admission**, so a worker picks coalescing peers
/// with one ready-list lookup instead of scanning (and re-planning) the
/// whole queued-job map.
///
/// The planner's choice can drift between admission and execution (e.g. the
/// index warms up mid-queue); [`ResistanceService::submit_coalesced`]
/// re-validates the batch and the worker falls back to solo execution on a
/// mismatch, so a stale key costs at most the coalescing saving, never
/// correctness.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct CoalesceKey {
    class: CacheClass,
    choice: crate::BackendChoice,
}

impl CoalesceKey {
    fn of(service: &ResistanceService, request: &Request) -> Option<CoalesceKey> {
        if !request.query.shape().is_pairwise() {
            return None;
        }
        Some(CoalesceKey {
            class: CacheClass::of(request.accuracy, request.backend),
            choice: service.plan(request),
        })
    }
}

/// Heap entry ordering: priority first, then earliest deadline, then FIFO.
/// A job re-prioritized by a deduplicated submit gets a second entry; stale
/// entries (their job already taken) are skipped on pop.
#[derive(PartialEq, Eq)]
struct QueueEntry {
    priority: Priority,
    deadline: Option<Instant>,
    seq: u64,
    job: u64,
}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.priority
            .cmp(&other.priority)
            .then_with(|| match (self.deadline, other.deadline) {
                // Earlier deadline = more urgent = greater (BinaryHeap pops max).
                (Some(a), Some(b)) => b.cmp(&a),
                (Some(_), None) => std::cmp::Ordering::Greater,
                (None, Some(_)) => std::cmp::Ordering::Less,
                (None, None) => std::cmp::Ordering::Equal,
            })
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct SchedulerState {
    queue: BinaryHeap<QueueEntry>,
    /// Queued jobs by id (removed when a worker takes the job).
    jobs: HashMap<u64, Job>,
    /// The in-flight table: every deadline-free job by request content, from
    /// admission until its result is published.
    in_flight: HashMap<Content, InFlight>,
    /// Per-[`CoalesceKey`] ready-lists of queued job ids, FIFO. Peer
    /// selection pops from the picked job's list in O(1) per peer; ids whose
    /// job was already taken (as a primary, a peer, or expired) are dropped
    /// lazily on pop, so every drain also cleans its list.
    ready: HashMap<CoalesceKey, VecDeque<u64>>,
    next_job: u64,
    next_seq: u64,
    paused: bool,
    shutdown: bool,
}

impl SchedulerState {
    /// Queues an entry for job `job`; seq numbers keep FIFO order within a
    /// priority and deadline.
    fn push(&mut self, priority: Priority, deadline: Option<Instant>, job: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(QueueEntry {
            priority,
            deadline,
            seq,
            job,
        });
    }
}

struct ServerShared {
    service: ResistanceService,
    config: ServerConfig,
    state: Mutex<SchedulerState>,
    work_ready: Condvar,
    stats: StatsCell,
    handles: AtomicUsize,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

/// The serving front end. [`spawn`](Self::spawn) is the only entry point: it
/// consumes a [`ResistanceService`] and hands back a [`ServerHandle`].
///
/// ```
/// use er_service::{Query, Request, ResistanceServer, ResistanceService, ServerConfig};
/// use er_graph::generators;
///
/// let graph = generators::social_network_like(300, 8.0, 7).unwrap();
/// let service = ResistanceService::new(&graph).unwrap();
/// let handle = ResistanceServer::spawn(service, ServerConfig::default());
///
/// // Submit returns immediately with a ticket; wait() collects the answer.
/// let fast = handle.submit(Request::new(Query::pair(0, 100))).unwrap();
/// let slow = handle.submit(Request::new(Query::pair(0, 150))).unwrap();
/// assert!(fast.wait().unwrap().value() > 0.0);
/// assert!(slow.wait().unwrap().value() > 0.0);
///
/// // Handles clone cheaply for other client threads.
/// let clone = handle.clone();
/// assert!(clone.stats().completed >= 2);
/// handle.shutdown();
/// ```
pub struct ResistanceServer {
    _private: (),
}

impl ResistanceServer {
    /// Starts the worker pool over `service` and returns the first handle.
    /// Workers exit once every handle is dropped (draining the queue first)
    /// or on [`ServerHandle::shutdown`].
    pub fn spawn(service: ResistanceService, config: ServerConfig) -> ServerHandle {
        let config = ServerConfig {
            workers: resolve_threads(config.workers),
            queue_depth: config.queue_depth.max(1),
            ..config
        };
        let shared = Arc::new(ServerShared {
            service,
            config,
            state: Mutex::new(SchedulerState {
                queue: BinaryHeap::new(),
                jobs: HashMap::new(),
                in_flight: HashMap::new(),
                ready: HashMap::new(),
                next_job: 0,
                next_seq: 0,
                paused: config.start_paused,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            stats: StatsCell::default(),
            handles: AtomicUsize::new(1),
            workers: Mutex::new(Vec::new()),
        });
        let mut threads = Vec::with_capacity(config.workers);
        for worker in 0..config.workers {
            let shared = shared.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("er-serve-{worker}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn server worker"),
            );
        }
        *shared.workers.lock().expect("worker list poisoned") = threads;
        ServerHandle { shared }
    }
}

/// A cloneable client handle on a running [`ResistanceServer`].
pub struct ServerHandle {
    shared: Arc<ServerShared>,
}

impl Clone for ServerHandle {
    fn clone(&self) -> Self {
        self.shared.handles.fetch_add(1, AtomicOrdering::SeqCst);
        ServerHandle {
            shared: self.shared.clone(),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.shared.handles.fetch_sub(1, AtomicOrdering::SeqCst) == 1 {
            // Last handle gone: drain the queue and let the workers exit.
            begin_shutdown(&self.shared);
        }
    }
}

fn begin_shutdown(shared: &ServerShared) {
    let mut st = shared.state.lock().expect("scheduler state poisoned");
    st.shutdown = true;
    // A paused server still drains: pending tickets must complete.
    st.paused = false;
    drop(st);
    shared.work_ready.notify_all();
}

impl ServerHandle {
    /// Admits a request with default options; returns its [`Ticket`], or
    /// [`ServiceError::Overloaded`] when the queue is full.
    pub fn submit(&self, request: Request) -> Result<Ticket, ServiceError> {
        self.submit_with(request, SubmitOptions::default())
    }

    /// Admits a request with explicit priority/deadline options.
    pub fn submit_with(
        &self,
        request: Request,
        options: SubmitOptions,
    ) -> Result<Ticket, ServiceError> {
        // Only deadline-free requests share jobs: a job has ONE deadline, and
        // merging waiters with different (or no) deadlines could expire a
        // ticket whose caller never asked for one. A deadline submit gets its
        // own job; the cache tier still dedups the *work*.
        let content = options.deadline.is_none().then(|| content(&request));
        // Planning is lock-free, so the coalescing class is computed before
        // the scheduler lock; workers then find peers by list lookup alone.
        let coalesce_key = CoalesceKey::of(&self.shared.service, &request);
        let mut st = self.shared.state.lock().expect("scheduler state poisoned");
        if st.shutdown {
            return Err(ServiceError::ServerShutdown);
        }
        // Dedup: an identical job is in flight, so this submit takes a ticket
        // on its slot (one computation, many tickets). A queued job also gets
        // a queue entry at this submit's priority, so it runs at the most
        // urgent of its waiters' priorities.
        if let Some(entry) = content.as_ref().and_then(|c| st.in_flight.get_mut(c)) {
            entry.tickets += 1;
            let ticket = Ticket::new(entry.slot.clone());
            let queued = entry.queued;
            match queued {
                Some(job) => {
                    st.push(options.priority, None, job);
                    self.shared.stats.update(|s| {
                        s.submitted += 1;
                        s.deduplicated += 1;
                    });
                }
                None => self.shared.stats.update(|s| {
                    s.submitted += 1;
                    s.attached_running += 1;
                }),
            }
            return Ok(ticket);
        }
        // Admission control: bounded queue.
        if st.jobs.len() >= self.shared.config.queue_depth {
            self.shared.stats.update(|s| s.rejected_overloaded += 1);
            return Err(ServiceError::Overloaded {
                queue_depth: self.shared.config.queue_depth,
            });
        }
        let job_id = st.next_job;
        st.next_job += 1;
        let deadline = options.deadline.map(|d| Instant::now() + d);
        let slot = ResponseSlot::new();
        if let Some(content) = &content {
            st.in_flight.insert(
                content.clone(),
                InFlight {
                    slot: slot.clone(),
                    tickets: 1,
                    queued: Some(job_id),
                },
            );
        }
        if let Some(key) = coalesce_key {
            st.ready.entry(key).or_default().push_back(job_id);
        }
        st.jobs.insert(
            job_id,
            Job {
                request,
                deadline,
                slot: slot.clone(),
                content,
                coalesce_key,
            },
        );
        st.push(options.priority, deadline, job_id);
        self.shared.stats.update(|s| s.submitted += 1);
        drop(st);
        self.shared.work_ready.notify_one();
        Ok(Ticket::new(slot))
    }

    /// The shared service underneath (e.g. for [`plan`] previews or cache
    /// statistics).
    ///
    /// [`plan`]: ResistanceService::plan
    pub fn service(&self) -> &ResistanceService {
        &self.shared.service
    }

    /// Coherent snapshot of the server's counters: every field is read under
    /// one lock, so the snapshot never exhibits mid-update impossibilities
    /// (e.g. `completed > submitted`) — what a `/metrics` scrape relies on.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats.snapshot()
    }

    /// Number of jobs currently waiting in the queue.
    pub fn pending(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("scheduler state poisoned")
            .jobs
            .len()
    }

    /// Number of worker threads serving this server.
    pub fn worker_count(&self) -> usize {
        self.shared.config.workers
    }

    /// Unpauses a server spawned with
    /// [`start_paused`](ServerConfig::start_paused).
    pub fn resume(&self) {
        let mut st = self.shared.state.lock().expect("scheduler state poisoned");
        st.paused = false;
        drop(st);
        self.shared.work_ready.notify_all();
    }

    /// Stops admitting requests, drains every queued job (all outstanding
    /// tickets complete) and joins the worker threads.
    pub fn shutdown(self) {
        begin_shutdown(&self.shared);
        let threads = std::mem::take(&mut *self.shared.workers.lock().expect("worker list"));
        for t in threads {
            let _ = t.join();
        }
    }
}

/// Publishes finished jobs. Each leaves the in-flight table under the
/// scheduler lock, so no later submit can take a ticket on its slot; the
/// counters then move by every ticket the jobs served (in one coherent
/// update that also covers `extra`), and only then do the slots complete, so
/// a caller woken by its ticket observes the counters.
fn publish(
    shared: &ServerShared,
    done: Vec<(Job, Result<Response, ServiceError>)>,
    extra: impl FnOnce(&mut ServerStats),
) {
    let mut st = shared.state.lock().expect("scheduler state poisoned");
    let tickets: u64 = done
        .iter()
        .map(|(job, _)| match &job.content {
            Some(content) => {
                st.in_flight
                    .remove(content)
                    .expect("a shared job stays in flight until published")
                    .tickets
            }
            None => 1,
        })
        .sum();
    drop(st);
    shared.stats.update(|s| {
        s.completed += tickets;
        extra(s);
    });
    for (job, result) in done {
        job.slot.complete(result);
    }
}

fn worker_loop(shared: &ServerShared) {
    loop {
        // Take the most urgent live job — plus, for a pair job, its
        // compatible queued peers — under the scheduler lock.
        let mut batch: Vec<Job> = Vec::new();
        {
            let mut st = shared.state.lock().expect("scheduler state poisoned");
            let primary = loop {
                if !st.paused {
                    let mut found = None;
                    while let Some(entry) = st.queue.pop() {
                        // Stale entries (job already taken by another worker
                        // or by a coalesced batch) are skipped.
                        if let Some(job) = st.jobs.remove(&entry.job) {
                            found = Some(job);
                            break;
                        }
                    }
                    if let Some(job) = found {
                        break job;
                    }
                }
                if st.shutdown && st.jobs.is_empty() {
                    return;
                }
                st = shared
                    .work_ready
                    .wait(st)
                    .expect("scheduler state poisoned");
            };
            let coalesce_key = primary.coalesce_key;
            batch.push(primary);
            if let Some(key) = coalesce_key {
                // O(1) peer selection: pop queued job ids off the key's
                // ready-list. Stale ids (job already taken or expired) are
                // dropped as they surface, so the drain doubles as cleanup;
                // the primary's own entry is one of them.
                let state = &mut *st;
                let emptied = if let Some(list) = state.ready.get_mut(&key) {
                    while batch.len() < MAX_COALESCE {
                        let Some(id) = list.pop_front() else { break };
                        if let Some(job) = state.jobs.remove(&id) {
                            batch.push(job);
                        }
                    }
                    list.is_empty()
                } else {
                    false
                };
                if emptied {
                    state.ready.remove(&key);
                }
            }
            // The jobs taken this round are running: from the same lock
            // acquisition on, an identical submit attaches to the execution.
            for job in &batch {
                if let Some(entry) = job.content.as_ref().and_then(|c| st.in_flight.get_mut(c)) {
                    entry.queued = None;
                }
            }
        }

        // Expire jobs whose start deadline has already lapsed (deadline jobs
        // only, each with its own single ticket).
        let now = Instant::now();
        let (live, expired): (Vec<Job>, Vec<Job>) = batch
            .into_iter()
            .partition(|job| job.deadline.is_none_or(|d| now <= d));
        let lapsed = expired.len() as u64;
        if lapsed > 0 {
            let done = expired
                .into_iter()
                .map(|job| (job, Err(ServiceError::DeadlineExceeded)))
                .collect();
            publish(shared, done, |s| s.expired += lapsed);
        }

        // Execute outside the lock: other workers keep popping meanwhile.
        let coalesced = match live.len() {
            0 | 1 => None,
            _ => {
                let requests: Vec<&Request> = live.iter().map(|job| &job.request).collect();
                shared.service.submit_coalesced(&requests).ok()
            }
        };
        match coalesced {
            Some(responses) => {
                let n = live.len() as u64;
                let done = live
                    .into_iter()
                    .zip(responses.into_iter().map(Ok))
                    .collect();
                publish(shared, done, |s| {
                    s.executed_jobs += 1;
                    s.coalesced_batches += 1;
                    s.coalesced_requests += n;
                });
            }
            // A lone job, or a batch with one bad member (e.g. an
            // out-of-range node), which must not poison its peers: solo
            // execution yields identical values and isolates the error.
            None => {
                for job in live {
                    let result = shared.service.submit(&job.request);
                    publish(shared, vec![(job, result)], |s| s.executed_jobs += 1);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Accuracy;
    use crate::BackendChoice;
    use er_graph::generators;
    use std::time::Duration;

    fn server(n: usize, config: ServerConfig) -> ServerHandle {
        let g = generators::social_network_like(n, 8.0, 7).unwrap();
        ResistanceServer::spawn(ResistanceService::new(&g).unwrap(), config)
    }

    #[test]
    fn queue_entries_order_by_priority_then_deadline_then_fifo() {
        let now = Instant::now();
        let entry = |priority, deadline, seq| QueueEntry {
            priority,
            deadline,
            seq,
            job: 0,
        };
        let mut heap = BinaryHeap::new();
        heap.push(entry(Priority::Low, None, 0));
        heap.push(entry(Priority::High, None, 3));
        heap.push(entry(
            Priority::Normal,
            Some(now + Duration::from_secs(5)),
            2,
        ));
        heap.push(entry(
            Priority::Normal,
            Some(now + Duration::from_secs(1)),
            4,
        ));
        heap.push(entry(Priority::Normal, None, 1));
        let order: Vec<(Priority, u64)> = std::iter::from_fn(|| heap.pop())
            .map(|e| (e.priority, e.seq))
            .collect();
        assert_eq!(
            order,
            vec![
                (Priority::High, 3),
                (Priority::Normal, 4), // earliest deadline
                (Priority::Normal, 2),
                (Priority::Normal, 1), // no deadline, FIFO
                (Priority::Low, 0),
            ]
        );
    }

    #[test]
    fn only_submits_identical_in_query_accuracy_and_backend_share_a_job() {
        let handle = server(
            120,
            ServerConfig {
                workers: 1,
                start_paused: true,
                ..ServerConfig::default()
            },
        );
        let base = Request::new(Query::pair(0, 9));
        let tickets: Vec<Ticket> = [
            base.clone(),
            base.clone().with_accuracy(Accuracy::Exact),
            base.clone().with_backend(BackendChoice::Geer),
            Request::new(Query::pair(0, 10)),
            base.clone(),
        ]
        .into_iter()
        .map(|request| handle.submit(request).unwrap())
        .collect();
        assert_eq!(handle.pending(), 4, "only the repeat of `base` shared");
        handle.resume();
        for ticket in tickets {
            assert!(ticket.wait().unwrap().value() > 0.0);
        }
        let clone = handle.clone();
        clone.shutdown();
        let stats = handle.stats();
        assert_eq!(stats.submitted, 5);
        assert_eq!(stats.deduplicated, 1);
        assert_eq!(stats.completed, 5);
    }

    #[test]
    fn server_round_trip_and_shutdown() {
        let handle = server(150, ServerConfig::default());
        let tickets: Vec<Ticket> = (1..5)
            .map(|t| handle.submit(Request::new(Query::pair(0, t * 30))).unwrap())
            .collect();
        for ticket in tickets {
            assert!(ticket.wait().unwrap().value() > 0.0);
        }
        let clone = handle.clone();
        clone.shutdown(); // joins the workers, so the counters are settled
        let stats = handle.stats();
        assert_eq!(stats.submitted, 4);
        assert_eq!(stats.completed, 4);
        assert_eq!(stats.rejected_overloaded, 0);
        // The surviving handle is refused after shutdown.
        assert!(matches!(
            handle.submit(Request::new(Query::pair(0, 1))),
            Err(ServiceError::ServerShutdown)
        ));
    }

    #[test]
    fn dropping_all_handles_drains_outstanding_tickets() {
        let handle = server(120, ServerConfig::default());
        let ticket = handle.submit(Request::new(Query::pair(0, 60))).unwrap();
        drop(handle);
        assert!(ticket.wait().unwrap().value() > 0.0);
    }

    #[test]
    fn paused_server_expires_lapsed_deadlines_without_running_them() {
        let handle = server(
            120,
            ServerConfig {
                workers: 1,
                start_paused: true,
                ..ServerConfig::default()
            },
        );
        let doomed = handle
            .submit_with(
                Request::new(Query::pair(0, 60)),
                SubmitOptions::default().with_deadline(Duration::from_millis(1)),
            )
            .unwrap();
        let healthy = handle.submit(Request::new(Query::pair(0, 70))).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        handle.resume();
        assert!(matches!(doomed.wait(), Err(ServiceError::DeadlineExceeded)));
        assert!(healthy.wait().unwrap().value() > 0.0);
        let stats = handle.stats();
        assert_eq!(stats.expired, 1);
        handle.shutdown();
    }

    #[test]
    fn deadline_submits_never_merge_with_deduplicated_jobs() {
        let handle = server(
            120,
            ServerConfig {
                workers: 1,
                start_paused: true,
                ..ServerConfig::default()
            },
        );
        let request = Request::new(Query::pair(0, 60));
        // A doomed deadline job, then an identical deadline-free submit: the
        // latter must NOT attach to the former (it would inherit the expiry).
        let doomed = handle
            .submit_with(
                request.clone(),
                SubmitOptions::default().with_deadline(Duration::from_millis(1)),
            )
            .unwrap();
        let healthy = handle.submit(request.clone()).unwrap();
        // And a deadline submit must not attach to the queued healthy job.
        let second_doomed = handle
            .submit_with(
                request.clone(),
                SubmitOptions::default().with_deadline(Duration::from_millis(1)),
            )
            .unwrap();
        std::thread::sleep(Duration::from_millis(20));
        handle.resume();
        assert!(matches!(doomed.wait(), Err(ServiceError::DeadlineExceeded)));
        assert!(matches!(
            second_doomed.wait(),
            Err(ServiceError::DeadlineExceeded)
        ));
        assert!(healthy.wait().unwrap().value() > 0.0);
        let clone = handle.clone();
        clone.shutdown();
        let stats = handle.stats();
        assert_eq!(stats.deduplicated, 0, "deadline submits never merge");
        assert_eq!(stats.expired, 2);
        assert_eq!(stats.completed, 3);
    }

    #[test]
    fn plan_is_lock_free_even_mid_index_build() {
        // plan() must answer instantly while another thread holds the index
        // slot mutex for a build — the scheduler calls it under its queue
        // lock. Simulate the build-side contention by holding the service's
        // planner-relevant state busy with a real index build in another
        // thread and asserting plan() completes meanwhile.
        let g = generators::social_network_like(200, 8.0, 7).unwrap();
        let service = Arc::new(ResistanceService::new(&g).unwrap());
        let builder = {
            let service = service.clone();
            std::thread::spawn(move || service.warm_index().unwrap())
        };
        // Regardless of build progress, planning stays responsive.
        for _ in 0..100 {
            let _ = service.plan(&Request::new(Query::pair(0, 10)));
        }
        builder.join().unwrap();
        assert!(service.index_backend().is_some());
    }

    #[test]
    fn coalescing_falls_back_to_solo_on_a_poisoned_member() {
        // An out-of-range pair queued next to a healthy one must fail alone.
        let handle = server(
            120,
            ServerConfig {
                workers: 1,
                start_paused: true,
                ..ServerConfig::default()
            },
        );
        let good = handle.submit(Request::new(Query::pair(0, 60))).unwrap();
        let bad = handle.submit(Request::new(Query::pair(0, 9_999))).unwrap();
        handle.resume();
        assert!(good.wait().unwrap().value() > 0.0);
        assert!(bad.wait().is_err());
        handle.shutdown();
    }
}
