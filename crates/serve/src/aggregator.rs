//! Dynamic virtual-batch aggregation.
//!
//! DarKnight's throughput story rests on amortizing one TEE
//! encode/decode over `K` inputs (PAPER.md §3.1, §7.1) — but a serving
//! workload arrives one request at a time. The aggregator turns the
//! stream back into full virtual batches:
//!
//! * **hot path** — as soon as `K` requests are pending, a full batch
//!   dispatches immediately (no padding, maximal amortization);
//! * **deadline path** — the aggregator never *holds* a request past
//!   its `max_wait`: on expiry the partial batch dispatches with
//!   all-zero padded rows (the per-sample quantization scales of
//!   `DarknightSession::private_inference_per_sample` make padding
//!   numerically invisible to the real rows). When every lane is busy
//!   an expired batch waits for the next free one — the deadline bounds
//!   the wait for batch-mates, not end-to-end latency;
//! * **priority** — when more than `K` requests are pending (every lane
//!   busy), higher-priority requests board first; FIFO within a class.
//!   The deadline outranks priority: overdue requests board
//!   unconditionally first, so a steady high-priority stream cannot
//!   starve an expired low-priority request.
//!
//! The aggregator is a pure data structure — the server's intake puts
//! it behind a lock, and the lanes that take batches out of it are the
//! only threads — so every policy above is unit tested without timing
//! races.

use crate::request::{Priority, Replier, RequestId};
use crate::server::lock_unpoisoned;
use dk_linalg::Tensor;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// An admitted request waiting for a batch, with its routing state.
#[derive(Debug)]
pub(crate) struct Pending {
    pub id: RequestId,
    pub input: Tensor<f32>,
    pub priority: Priority,
    /// Arrival order, assigned by the aggregator (FIFO tiebreak).
    pub seq: u64,
    pub enqueued: Instant,
    /// Latest instant this request may wait unbatched.
    pub deadline: Instant,
    /// Where the lane routes this request's
    /// [`Response`](crate::request::Response).
    pub reply: Replier,
}

/// A virtual batch a lane took: up to `k` real entries; the lane pads the
/// remaining `k - entries.len()` rows with zeros and drop them again
/// before routing responses.
#[derive(Debug)]
pub(crate) struct Batch {
    pub entries: Vec<Pending>,
    pub k: usize,
    /// Where the emptied `entries` vector goes once the batch is routed
    /// ([`Batch::spent`]); the aggregator forms its next batches in them.
    pub home: Arc<EntryPool>,
}

/// Emptied batch vectors, on their way back to the aggregator.
pub(crate) type EntryPool = Mutex<Vec<Vec<Pending>>>;

impl Batch {
    /// Real rows / `K`.
    pub fn fill(&self) -> f64 {
        self.entries.len() as f64 / self.k as f64
    }

    /// Number of all-zero rows the lane must add.
    pub fn padded_rows(&self) -> usize {
        self.k - self.entries.len()
    }

    /// Hands the (drained) entries vector back to the aggregator.
    pub fn spent(mut self) {
        self.entries.clear();
        lock_unpoisoned(&self.home).push(self.entries);
    }
}

/// Accumulates pending requests into `K`-sized virtual batches (see
/// module docs for the dispatch policy).
#[derive(Debug)]
pub(crate) struct BatchAggregator {
    k: usize,
    pending: Vec<Pending>,
    seq: u64,
    spent: Arc<EntryPool>,
}

impl BatchAggregator {
    /// Creates an aggregator for virtual batches of size `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "virtual batch size must be positive");
        Self { k, pending: Vec::new(), seq: 0, spent: Arc::default() }
    }

    /// Number of requests waiting. The intake compares this against
    /// its admission bound, so admitted-but-unboarded work stays bounded
    /// under sustained overload.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// True when nothing is waiting.
    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// Admits a request (assigns its FIFO sequence number).
    pub fn add(&mut self, mut p: Pending) {
        p.seq = self.seq;
        self.seq += 1;
        self.pending.push(p);
    }

    /// The earliest deadline among pending requests — when a waiting
    /// lane must wake even if no new request arrives.
    pub fn next_deadline(&self) -> Option<Instant> {
        self.pending.iter().map(|p| p.deadline).min()
    }

    /// Takes one full batch if at least `K` requests are pending:
    /// overdue requests first, then the best by (priority, arrival).
    /// Call in a loop to drain multiple full batches.
    pub fn take_full(&mut self, now: Instant) -> Option<Batch> {
        if self.pending.len() < self.k {
            return None;
        }
        Some(self.take(self.k, now))
    }

    /// Takes a (possibly partial) batch if the earliest deadline has
    /// passed; `None` when nothing is due yet.
    pub fn flush_due(&mut self, now: Instant) -> Option<Batch> {
        match self.next_deadline() {
            Some(d) if d <= now => {
                let n = self.k.min(self.pending.len());
                Some(self.take(n, now))
            }
            _ => None,
        }
    }

    /// Unconditionally takes whatever is pending (shutdown drain);
    /// `None` when empty.
    pub fn drain(&mut self) -> Option<Batch> {
        if self.pending.is_empty() {
            return None;
        }
        let n = self.k.min(self.pending.len());
        Some(self.take(n, Instant::now()))
    }

    /// Removes the `n` best pending requests as a batch. Overdue
    /// requests board unconditionally first (the deadline guarantee
    /// outranks priority — otherwise a steady high-priority stream
    /// could starve an expired low-priority request forever); the rest
    /// order by (priority rank, arrival seq).
    fn take(&mut self, n: usize, now: Instant) -> Batch {
        self.pending.sort_by_key(|p| (p.deadline > now, p.priority.rank(), p.seq));
        let mut entries = lock_unpoisoned(&self.spent).pop().unwrap_or_default();
        entries.extend(self.pending.drain(..n));
        Batch { entries, k: self.k, home: self.spent.clone() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::reply_pair;
    use std::time::Duration;

    fn pending(id: u64, priority: Priority, wait: Duration) -> Pending {
        // Routing is not under test here; the receiver is dropped.
        let (tx, _ticket) = reply_pair(RequestId(id), None);
        let now = Instant::now();
        Pending {
            id: RequestId(id),
            input: Tensor::zeros(&[2]),
            priority,
            seq: 0,
            enqueued: now,
            deadline: now + wait,
            reply: tx,
        }
    }

    #[test]
    fn fills_dispatch_immediately_in_fifo_order() {
        let mut agg = BatchAggregator::new(3);
        for i in 0..2 {
            agg.add(pending(i, Priority::Normal, Duration::from_secs(1)));
            assert!(agg.take_full(Instant::now()).is_none(), "must not dispatch below K");
        }
        agg.add(pending(2, Priority::Normal, Duration::from_secs(1)));
        let batch = agg.take_full(Instant::now()).expect("full batch at K");
        assert_eq!(batch.entries.len(), 3);
        assert_eq!(batch.padded_rows(), 0);
        assert_eq!(batch.fill(), 1.0);
        let ids: Vec<u64> = batch.entries.iter().map(|p| p.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2], "FIFO within one priority class");
        assert!(agg.is_empty());
    }

    #[test]
    fn deadline_flushes_partial_with_padding() {
        let mut agg = BatchAggregator::new(4);
        agg.add(pending(0, Priority::Normal, Duration::from_millis(5)));
        agg.add(pending(1, Priority::Normal, Duration::from_millis(50)));
        let now = Instant::now();
        assert!(agg.flush_due(now).is_none(), "nothing due yet");
        let due = now + Duration::from_millis(10);
        let batch = agg.flush_due(due).expect("oldest deadline passed");
        assert_eq!(batch.entries.len(), 2);
        assert_eq!(batch.padded_rows(), 2);
        assert_eq!(batch.fill(), 0.5);
        assert!(agg.is_empty(), "a due flush takes everything that fits");
    }

    #[test]
    fn priority_boards_first_when_oversubscribed() {
        let mut agg = BatchAggregator::new(2);
        agg.add(pending(0, Priority::Low, Duration::from_secs(1)));
        agg.add(pending(1, Priority::Normal, Duration::from_secs(1)));
        agg.add(pending(2, Priority::High, Duration::from_secs(1)));
        agg.add(pending(3, Priority::High, Duration::from_secs(1)));
        agg.add(pending(4, Priority::Normal, Duration::from_secs(1)));
        let batch = agg.take_full(Instant::now()).expect("oversubscribed");
        let ids: Vec<u64> = batch.entries.iter().map(|p| p.id.0).collect();
        assert_eq!(ids, vec![2, 3], "both High requests board first, in arrival order");
        let batch = agg.take_full(Instant::now()).expect("second batch");
        let ids: Vec<u64> = batch.entries.iter().map(|p| p.id.0).collect();
        assert_eq!(ids, vec![1, 4], "Normal before Low");
        assert_eq!(agg.len(), 1);
        assert_eq!(agg.drain().expect("drain leftover").entries[0].id.0, 0);
    }

    /// Regression: the deadline guarantee outranks priority. A steady
    /// high-priority stream must not starve an expired low-priority
    /// request out of batch after batch.
    #[test]
    fn overdue_requests_board_before_fresh_high_priority() {
        let mut agg = BatchAggregator::new(2);
        agg.add(pending(0, Priority::Low, Duration::from_millis(1)));
        for i in 1..=3 {
            agg.add(pending(i, Priority::High, Duration::from_secs(5)));
        }
        // Evaluate at a time where the Low request is overdue and the
        // High requests are not.
        let later = Instant::now() + Duration::from_millis(10);
        let batch = agg.take_full(later).expect("oversubscribed");
        let ids: Vec<u64> = batch.entries.iter().map(|p| p.id.0).collect();
        assert_eq!(ids, vec![0, 1], "overdue Low boards first, then the best fresh High");
    }

    #[test]
    fn next_deadline_is_the_minimum() {
        let mut agg = BatchAggregator::new(8);
        assert!(agg.next_deadline().is_none());
        agg.add(pending(0, Priority::Normal, Duration::from_millis(30)));
        agg.add(pending(1, Priority::Normal, Duration::from_millis(10)));
        agg.add(pending(2, Priority::Normal, Duration::from_millis(20)));
        let d = agg.next_deadline().unwrap();
        let earliest = agg.pending.iter().find(|p| p.id.0 == 1).unwrap().deadline;
        assert_eq!(d, earliest);
    }

    #[test]
    fn drain_empties_in_batches() {
        let mut agg = BatchAggregator::new(2);
        for i in 0..3 {
            agg.add(pending(i, Priority::Normal, Duration::from_secs(1)));
        }
        assert_eq!(agg.drain().unwrap().entries.len(), 2);
        let last = agg.drain().unwrap();
        assert_eq!(last.entries.len(), 1);
        assert_eq!(last.padded_rows(), 1);
        assert!(agg.drain().is_none());
    }
}
