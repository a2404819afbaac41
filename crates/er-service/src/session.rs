//! Client-side vocabulary of the serving plane: [`Ticket`]s and submit-time
//! scheduling hints ([`Priority`], [`SubmitOptions`]).
//!
//! A [`ServerHandle::submit`](crate::ServerHandle::submit) enqueues work and
//! returns a [`Ticket`] immediately; the caller collects the [`Response`]
//! with [`Ticket::wait`].
//! Identical in-flight requests share one job and its one completion slot,
//! so `k` identical tickets are all fulfilled by a single computation.

use crate::error::ServiceError;
use crate::response::Response;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Scheduling priority of a request. Workers always pick the
/// highest-priority queued job first; within a priority, earlier deadlines
/// run first, then FIFO order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Background work: runs when nothing more urgent is queued.
    Low,
    /// The default.
    #[default]
    Normal,
    /// Latency-sensitive work: jumps the queue.
    High,
}

/// Per-submit scheduling options: a [`Priority`] and an optional deadline
/// (relative to the submit call). A request whose deadline passes before a
/// worker picks it up is completed with [`ServiceError::DeadlineExceeded`]
/// without running — admission control for callers that would discard a
/// stale answer anyway. Requests carrying a deadline are never merged by
/// the server's dedup tier (each keeps its own expiry); they still benefit
/// from the service cache like everyone else.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SubmitOptions {
    /// Scheduling priority (default [`Priority::Normal`]).
    pub priority: Priority,
    /// Drop the request (with [`ServiceError::DeadlineExceeded`]) if it has
    /// not *started* within this duration of being submitted. `None` = never.
    pub deadline: Option<Duration>,
}

impl SubmitOptions {
    /// Options with an explicit priority.
    pub fn with_priority(mut self, priority: Priority) -> SubmitOptions {
        self.priority = priority;
        self
    }

    /// Options with a start deadline relative to submit time.
    pub fn with_deadline(mut self, deadline: Duration) -> SubmitOptions {
        self.deadline = Some(deadline);
        self
    }
}

/// A job's one completion slot, shared by every [`Ticket`] on the job and
/// by the worker that fulfils it. The server hands out tickets on the slot
/// of a deadline-free job (through its in-flight table) from admission
/// until the worker publishes the result; the worker then completes the
/// slot once, and every ticket reads the same result.
#[derive(Debug)]
pub(crate) struct ResponseSlot {
    state: Mutex<Option<Result<Response, ServiceError>>>,
    ready: Condvar,
}

impl ResponseSlot {
    pub(crate) fn new() -> Arc<ResponseSlot> {
        Arc::new(ResponseSlot {
            state: Mutex::new(None),
            ready: Condvar::new(),
        })
    }

    /// Stores the result and wakes every waiter. Idempotent: the first
    /// completion wins (a job is only fulfilled once).
    pub(crate) fn complete(&self, result: Result<Response, ServiceError>) {
        let mut state = self.state.lock().expect("response slot poisoned");
        if state.is_none() {
            *state = Some(result);
            self.ready.notify_all();
        }
    }
}

/// A claim on an in-flight job's [`Response`]: one completion slot shared
/// with every identical ticket the job serves.
///
/// Returned by [`ServerHandle::submit`](crate::ServerHandle::submit).
/// Dropping a ticket abandons the claim; the computation still runs (other
/// tickets may share the job).
#[derive(Debug)]
pub struct Ticket {
    slot: Arc<ResponseSlot>,
}

impl Ticket {
    pub(crate) fn new(slot: Arc<ResponseSlot>) -> Ticket {
        Ticket { slot }
    }

    /// Blocks until the request completes and returns its result (a copy:
    /// `Response` clones, `ServiceError` goes through
    /// [`ServiceError::duplicate`]).
    pub fn wait(self) -> Result<Response, ServiceError> {
        let mut state = self.slot.state.lock().expect("response slot poisoned");
        loop {
            match state.as_ref() {
                Some(Ok(response)) => return Ok(response.clone()),
                Some(Err(e)) => return Err(e.duplicate()),
                None => {}
            }
            state = self.slot.ready.wait(state).expect("response slot poisoned");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priorities_order_low_to_high() {
        assert!(Priority::Low < Priority::Normal);
        assert!(Priority::Normal < Priority::High);
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn submit_options_builders() {
        let opts = SubmitOptions::default()
            .with_priority(Priority::High)
            .with_deadline(Duration::from_millis(5));
        assert_eq!(opts.priority, Priority::High);
        assert_eq!(opts.deadline, Some(Duration::from_millis(5)));
        assert_eq!(SubmitOptions::default().deadline, None);
    }

    #[test]
    fn tickets_observe_slot_completion() {
        let slot = ResponseSlot::new();
        let ticket = Ticket::new(slot.clone());
        slot.complete(Err(ServiceError::DeadlineExceeded));
        // Completion is idempotent: a second result is ignored.
        slot.complete(Err(ServiceError::ServerShutdown));
        assert!(matches!(ticket.wait(), Err(ServiceError::DeadlineExceeded)));
    }

    #[test]
    fn fanout_waiters_all_receive_the_result() {
        let slot = ResponseSlot::new();
        let tickets: Vec<Ticket> = (0..3).map(|_| Ticket::new(slot.clone())).collect();
        let waiters: Vec<_> = tickets
            .into_iter()
            .map(|t| std::thread::spawn(move || t.wait()))
            .collect();
        std::thread::sleep(Duration::from_millis(10));
        slot.complete(Err(ServiceError::ServerShutdown));
        for w in waiters {
            assert!(matches!(
                w.join().unwrap(),
                Err(ServiceError::ServerShutdown)
            ));
        }
    }
}
