//! Bounded priority job queue — the pure, single-threaded core under the
//! service's mutex.
//!
//! This type is deliberately free of locks, clocks, and I/O so the
//! property battery in `tests/queue_properties.rs` can drive arbitrary
//! admit/pop/remove interleavings against it and check the structural
//! invariants directly:
//!
//! * admission is all-or-nothing: a full queue rejects ([`QueueFull`]),
//!   it never partially accepts or silently drops;
//! * every admitted entry is handed out exactly once (by [`BoundedQueue::pop`] or
//!   [`BoundedQueue::remove`]) — nothing is lost, nothing is duplicated;
//! * [`BoundedQueue::pop`] serves the highest priority class first and is FIFO *within*
//!   a class (admission order, by ticket).
//!
//! Accounting across the whole service (submitted = completed + failed +
//! shed + still-pending) lives in [`Ledger`], kept next to the queue so
//! the conservation law is checkable at any instant.

use std::collections::VecDeque;

/// Admission priority class. Lower discriminant = served first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Latency-sensitive traffic; always drained before the other classes.
    High = 0,
    /// Default class.
    Normal = 1,
    /// Backfill; only served when nothing else is queued.
    Low = 2,
}

impl Priority {
    /// All classes, in service order.
    pub const ALL: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Low];

    fn index(self) -> usize {
        self as usize
    }
}

/// Typed rejection from [`BoundedQueue::admit`]: the queue is at capacity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueueFull {
    /// Configured capacity the admission ran into.
    pub cap: usize,
}

/// A monotonically increasing admission ticket. Tickets order entries
/// within a priority class (FIFO) and identify an entry for [`remove`].
///
/// [`remove`]: BoundedQueue::remove
pub type Ticket = u64;

struct Entry<T> {
    ticket: Ticket,
    item: T,
}

/// Bounded multi-class FIFO. `cap` bounds the *total* queued entries
/// across all classes — that is the load-shedding threshold.
pub struct BoundedQueue<T> {
    cap: usize,
    next_ticket: Ticket,
    classes: [VecDeque<Entry<T>>; 3],
}

impl<T> BoundedQueue<T> {
    /// An empty queue with total capacity `cap` (≥ 1 enforced by the
    /// service config; 0 is allowed here and simply rejects everything).
    pub fn new(cap: usize) -> Self {
        BoundedQueue {
            cap,
            next_ticket: 0,
            classes: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
        }
    }

    /// Total queued entries across all classes.
    pub fn len(&self) -> usize {
        self.classes.iter().map(VecDeque::len).sum()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.classes.iter().all(VecDeque::is_empty)
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Admits `item` into `priority`'s FIFO, or rejects with [`QueueFull`]
    /// when the queue is saturated. On success returns the admission
    /// ticket.
    pub fn admit(&mut self, priority: Priority, item: T) -> Result<Ticket, QueueFull> {
        if self.len() >= self.cap {
            return Err(QueueFull { cap: self.cap });
        }
        let ticket = self.next_ticket;
        self.next_ticket += 1;
        self.classes[priority.index()].push_back(Entry { ticket, item });
        Ok(ticket)
    }

    /// Removes and returns the next entry: highest priority class first,
    /// FIFO within the class.
    pub fn pop(&mut self) -> Option<(Ticket, Priority, T)> {
        for p in Priority::ALL {
            if let Some(e) = self.classes[p.index()].pop_front() {
                return Some((e.ticket, p, e.item));
            }
        }
        None
    }

    /// Removes the entry holding `ticket`, wherever it is queued (used by
    /// cancellation). Returns `None` when the ticket already left the
    /// queue — popped, or never admitted.
    pub fn remove(&mut self, ticket: Ticket) -> Option<T> {
        for class in &mut self.classes {
            if let Some(pos) = class.iter().position(|e| e.ticket == ticket) {
                return class.remove(pos).map(|e| e.item);
            }
        }
        None
    }
}

/// Whole-service conservation accounting.
///
/// Every submitted job ends in exactly one terminal bucket — `completed`
/// (a worker produced its result), `failed` (typed deadline/cancel/
/// exhausted rejections), `shed`, `cache_hits` (served straight from the
/// content-addressed result cache at admission), or `coalesced` (attached
/// to an identical in-flight job and handed its result) — and until it
/// does it is counted by `pending` (queued, running, or waiting on a
/// coalescing leader). The invariant `submitted == completed + failed +
/// shed + cache_hits + coalesced + pending` holds after every transition,
/// and at quiescence (`pending == 0`) reduces to the serving contract
/// *shed + completed + failed + cache_hits + coalesced = submitted*: no
/// job is ever lost or double-counted.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Jobs offered to the service (admitted, deduplicated, or shed).
    pub submitted: u64,
    /// Jobs whose result was computed by a worker (worker attempt or serial
    /// fallback).
    pub completed: u64,
    /// Jobs that ended with a typed error (retries exhausted, deadline
    /// exceeded, cancelled).
    pub failed: u64,
    /// Jobs rejected at admission because the queue was full.
    pub shed: u64,
    /// Jobs answered at admission from the result cache (no worker ran).
    pub cache_hits: u64,
    /// Jobs that completed by attaching to an identical in-flight job
    /// (no worker solve of their own). Followers that instead fail —
    /// cancelled, deadline, or promoted-then-failed — count under
    /// `failed`/`completed` like any other job.
    pub coalesced: u64,
    /// Admitted jobs not yet terminal (queued, running, or following an
    /// in-flight leader).
    pub pending: u64,
}

impl Ledger {
    /// The conservation law; the service debug-asserts this after every
    /// state transition and the property battery asserts it after every
    /// step of every generated schedule.
    pub fn balanced(&self) -> bool {
        self.submitted
            == self.completed
                + self.failed
                + self.shed
                + self.cache_hits
                + self.coalesced
                + self.pending
    }

    /// True when every submitted job has reached a terminal state.
    pub fn quiescent(&self) -> bool {
        self.pending == 0
    }

    pub(crate) fn on_admit(&mut self) {
        self.submitted += 1;
        self.pending += 1;
        debug_assert!(self.balanced());
    }

    pub(crate) fn on_shed(&mut self) {
        self.submitted += 1;
        self.shed += 1;
        debug_assert!(self.balanced());
    }

    pub(crate) fn on_complete(&mut self) {
        self.pending -= 1;
        self.completed += 1;
        debug_assert!(self.balanced());
    }

    pub(crate) fn on_fail(&mut self) {
        self.pending -= 1;
        self.failed += 1;
        debug_assert!(self.balanced());
    }

    /// A submission answered from the result cache: terminal immediately,
    /// never pending.
    pub(crate) fn on_cache_hit(&mut self) {
        self.submitted += 1;
        self.cache_hits += 1;
        debug_assert!(self.balanced());
    }

    /// A submission attached as a follower of an in-flight leader; it
    /// stays `pending` until the leader resolves it.
    pub(crate) fn on_coalesce_attach(&mut self) {
        self.submitted += 1;
        self.pending += 1;
        debug_assert!(self.balanced());
    }

    /// A follower handed its leader's clean result.
    pub(crate) fn on_coalesce_complete(&mut self) {
        self.pending -= 1;
        self.coalesced += 1;
        debug_assert!(self.balanced());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_class_priority_across() {
        let mut q = BoundedQueue::new(8);
        let t_low = q.admit(Priority::Low, "l0").unwrap();
        let t_n0 = q.admit(Priority::Normal, "n0").unwrap();
        let t_n1 = q.admit(Priority::Normal, "n1").unwrap();
        let t_hi = q.admit(Priority::High, "h0").unwrap();
        assert!(t_low < t_n0 && t_n0 < t_n1 && t_n1 < t_hi);
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some((t_hi, Priority::High, "h0")));
        assert_eq!(q.pop(), Some((t_n0, Priority::Normal, "n0")));
        assert_eq!(q.pop(), Some((t_n1, Priority::Normal, "n1")));
        assert_eq!(q.pop(), Some((t_low, Priority::Low, "l0")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn admission_rejects_at_capacity_across_classes() {
        let mut q = BoundedQueue::new(2);
        q.admit(Priority::High, 1).unwrap();
        q.admit(Priority::Low, 2).unwrap();
        // total is capped, not per class
        assert_eq!(q.admit(Priority::Normal, 3), Err(QueueFull { cap: 2 }));
        q.pop().unwrap();
        q.admit(Priority::Normal, 3).unwrap();
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn remove_takes_exactly_one_entry_once() {
        let mut q = BoundedQueue::new(4);
        let a = q.admit(Priority::Normal, "a").unwrap();
        let b = q.admit(Priority::Normal, "b").unwrap();
        assert_eq!(q.remove(a), Some("a"));
        assert_eq!(q.remove(a), None, "ticket already removed");
        assert_eq!(q.pop(), Some((b, Priority::Normal, "b")));
        assert_eq!(q.remove(b), None, "ticket already popped");
    }

    #[test]
    fn zero_capacity_sheds_everything() {
        let mut q = BoundedQueue::new(0);
        assert_eq!(q.admit(Priority::High, ()), Err(QueueFull { cap: 0 }));
        assert!(q.is_empty());
    }

    #[test]
    fn ledger_conservation() {
        let mut l = Ledger::default();
        l.on_admit();
        l.on_admit();
        l.on_shed();
        l.on_complete();
        l.on_fail();
        assert!(l.balanced());
        assert!(l.quiescent());
        assert_eq!((l.submitted, l.completed, l.failed, l.shed), (3, 1, 1, 1));
    }

    #[test]
    fn ledger_conservation_with_cache_buckets() {
        let mut l = Ledger::default();
        l.on_admit(); // the leader
        l.on_cache_hit();
        l.on_coalesce_attach();
        l.on_coalesce_attach();
        assert!(!l.quiescent());
        l.on_complete(); // leader finishes...
        l.on_coalesce_complete(); // ...one follower gets the result...
        l.on_fail(); // ...the other was cancelled meanwhile
        assert!(l.balanced());
        assert!(l.quiescent());
        assert_eq!(
            (
                l.submitted,
                l.completed,
                l.cache_hits,
                l.coalesced,
                l.failed
            ),
            (4, 1, 1, 1, 1)
        );
    }
}
