//! Request and response types for the serving runtime.

use crate::server::lock_unpoisoned;
use dk_core::DarknightError;
use dk_linalg::Tensor;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

/// Identity of an accepted request, unique within one server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

impl std::fmt::Display for RequestId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "req{}", self.0)
    }
}

/// Scheduling priority. When more requests are pending than fit in one
/// virtual batch, higher-priority requests board first; within a
/// priority class, arrival order (FIFO) breaks ties.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Priority {
    /// Boards before everything else.
    High,
    /// The default class.
    #[default]
    Normal,
    /// Boards only when no higher-priority request is waiting.
    Low,
}

impl Priority {
    /// Rank for ordering: lower boards first.
    pub(crate) fn rank(self) -> u8 {
        match self {
            Priority::High => 0,
            Priority::Normal => 1,
            Priority::Low => 2,
        }
    }
}

/// One inference request: a single sample (no batch dimension — e.g.
/// `[C, H, W]` for the conv models), plus scheduling knobs.
#[derive(Debug, Clone)]
pub struct InferenceRequest {
    pub(crate) input: Tensor<f32>,
    pub(crate) priority: Priority,
    pub(crate) max_wait: Option<Duration>,
}

impl InferenceRequest {
    /// Wraps a single sample (sample shape, no leading batch dim).
    pub fn new(input: Tensor<f32>) -> Self {
        Self { input, priority: Priority::default(), max_wait: None }
    }

    /// Sets the scheduling priority.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Caps how long this request may wait for the virtual batch to
    /// fill; on expiry the batch dispatches partially filled (padded).
    /// Defaults to the server-wide `max_batch_wait`.
    pub fn with_max_wait(mut self, max_wait: Duration) -> Self {
        self.max_wait = Some(max_wait);
        self
    }

    /// The sample tensor.
    pub fn input(&self) -> &Tensor<f32> {
        &self.input
    }

    /// The scheduling priority.
    pub fn priority(&self) -> Priority {
        self.priority
    }
}

/// Outcome of the integrity machinery for one served request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntegrityVerdict {
    /// The redundant equation held on every offloaded layer of the
    /// batch this request rode in.
    Verified,
    /// The session ran without the redundant equation (integrity
    /// disabled in the server's `DarknightConfig`).
    Unchecked,
    /// At least one layer of the batch failed the redundant equation,
    /// but the session's recovery extension localized the tampering
    /// workers and repaired their results in the TEE: the output is
    /// correct, *and* the fleet is actively tampering — operators
    /// should treat this as an alarm, not a success.
    Repaired,
    /// The batch failed an integrity check and no output is available.
    Violated,
}

/// The served result routed back to one caller.
#[derive(Debug)]
pub struct Response {
    /// Which request this answers.
    pub id: RequestId,
    /// The per-request output (sample shape, no batch dim), or the
    /// session error that aborted its batch.
    pub output: Result<Tensor<f32>, DarknightError>,
    /// Integrity outcome of the batch this request rode in.
    pub verdict: IntegrityVerdict,
    /// Submission → batch-dispatch wait.
    pub queue_wait: Duration,
    /// Batch-dispatch → response time (the session's compute).
    pub service_time: Duration,
    /// Real rows / `K` of the virtual batch this request rode in.
    pub batch_fill: f64,
}

impl Response {
    /// The output tensor, if the request succeeded.
    pub fn tensor(&self) -> Option<&Tensor<f32>> {
        self.output.as_ref().ok()
    }
}

/// Why admission control refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// `max(K, queue_capacity)` admitted requests already wait for a
    /// lane (overload).
    QueueFull,
    /// The server is shutting down and no longer accepts work.
    ShuttingDown,
    /// The input contains NaN/Inf values, which would abort the whole
    /// virtual batch it rides in (quantization is only defined on
    /// finite values) — rejected at admission so one poisoned request
    /// cannot fail innocent batch-mates. Retrying without fixing the
    /// input will not help.
    NonFiniteInput,
    /// The input's shape is not the server's configured sample shape.
    /// Retrying without fixing the input will not help.
    WrongShape,
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShedReason::QueueFull => write!(f, "request queue full"),
            ShedReason::ShuttingDown => write!(f, "server shutting down"),
            ShedReason::NonFiniteInput => write!(f, "input contains non-finite values"),
            ShedReason::WrongShape => write!(f, "input shape does not match the model's"),
        }
    }
}

/// A shed request: the reason plus the request handed back so the
/// caller can retry or fail over.
#[derive(Debug)]
pub struct Shed {
    /// Why the request was refused.
    pub reason: ShedReason,
    /// The refused request, returned to the caller intact.
    pub request: InferenceRequest,
}

impl std::fmt::Display for Shed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "request shed: {}", self.reason)
    }
}

impl std::error::Error for Shed {}

/// Where one request's [`Response`] lands: a one-shot slot the routing
/// lane fills ([`Replier`]) and the [`Ticket`] empties. A server handle
/// keeps a pool of them and a ticket hands its slot back once it is the
/// slot's last holder, so a warm request makes no channel.
#[derive(Debug, Default)]
pub(crate) struct ReplySlot {
    state: Mutex<Reply>,
    ready: Condvar,
}

#[derive(Debug, Default)]
enum Reply {
    #[default]
    Waiting,
    Ready(Response),
    /// Taken, or the server dropped the request without routing it.
    Gone,
}

/// Reply slots free for the next request.
pub(crate) type ReplyPool = Mutex<Vec<Arc<ReplySlot>>>;

/// The server's side of one request's reply. Dropped without a
/// [`Replier::send`] — a worker panicked, the server shut down — it
/// tells the ticket no response is coming.
#[derive(Debug)]
pub(crate) struct Replier(Option<Arc<ReplySlot>>);

impl Replier {
    /// Delivers the response (the ticket may already be gone).
    pub(crate) fn send(mut self, response: Response) {
        if let Some(slot) = self.0.take() {
            *lock_unpoisoned(&slot.state) = Reply::Ready(response);
            slot.ready.notify_all();
        }
    }
}

impl Drop for Replier {
    fn drop(&mut self) {
        if let Some(slot) = self.0.take() {
            *lock_unpoisoned(&slot.state) = Reply::Gone;
            slot.ready.notify_all();
        }
    }
}

/// A connected replier and ticket for request `id`, on a slot from
/// `pool` when it has one.
pub(crate) fn reply_pair(id: RequestId, pool: Option<&Arc<ReplyPool>>) -> (Replier, Ticket) {
    let slot = pool.and_then(|p| lock_unpoisoned(p).pop()).unwrap_or_default();
    let ticket = Ticket { id, slot: slot.clone(), pool: pool.cloned() };
    (Replier(Some(slot)), ticket)
}

/// The caller's side of one accepted request: blocks until the routed
/// [`Response`] arrives.
#[derive(Debug)]
pub struct Ticket {
    pub(crate) id: RequestId,
    slot: Arc<ReplySlot>,
    pool: Option<Arc<ReplyPool>>,
}

impl Ticket {
    /// The id assigned at admission.
    pub fn id(&self) -> RequestId {
        self.id
    }

    /// Blocks until the response arrives. Returns `None` only if the
    /// server died without routing a response (worker panic).
    pub fn wait(self) -> Option<Response> {
        let mut state = lock_unpoisoned(&self.slot.state);
        while matches!(*state, Reply::Waiting) {
            state = self.slot.ready.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        match std::mem::replace(&mut *state, Reply::Gone) {
            Reply::Ready(response) => Some(response),
            _ => None,
        }
    }

    /// Non-blocking poll.
    pub fn try_wait(&self) -> Option<Response> {
        let mut state = lock_unpoisoned(&self.slot.state);
        match std::mem::replace(&mut *state, Reply::Gone) {
            Reply::Ready(response) => Some(response),
            other => {
                *state = other;
                None
            }
        }
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        // `Gone`: the response was taken or will never come, so the
        // replier writes this slot no more and it can serve again.
        let Some(pool) = &self.pool else { return };
        let mut state = lock_unpoisoned(&self.slot.state);
        if matches!(*state, Reply::Gone) {
            *state = Reply::Waiting;
            drop(state);
            lock_unpoisoned(pool).push(self.slot.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_ranks_order() {
        assert!(Priority::High.rank() < Priority::Normal.rank());
        assert!(Priority::Normal.rank() < Priority::Low.rank());
        assert_eq!(Priority::default(), Priority::Normal);
    }

    #[test]
    fn request_builder_chains() {
        let r = InferenceRequest::new(Tensor::zeros(&[3, 4, 4]))
            .with_priority(Priority::High)
            .with_max_wait(Duration::from_millis(5));
        assert_eq!(r.priority(), Priority::High);
        assert_eq!(r.max_wait, Some(Duration::from_millis(5)));
        assert_eq!(r.input().shape(), &[3, 4, 4]);
    }

    #[test]
    fn shed_displays_reason() {
        let shed = Shed {
            reason: ShedReason::QueueFull,
            request: InferenceRequest::new(Tensor::zeros(&[1])),
        };
        assert!(shed.to_string().contains("queue full"));
    }
}
