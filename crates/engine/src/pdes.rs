//! Cross-shard messaging for a sharded discrete-event simulation, and a
//! deterministic per-step profile of its pump.
//!
//! The engine stays policy-free: this module knows nothing about cubes,
//! links, or packets. The simulation crate owns the shards, the physics
//! and the one serial pump; this module supplies:
//!
//! * [`Mailbox`] — a timestamped inbox drained in total [`MsgKey`] order
//!   `(at, edge, dir, seq)`. A sender pushes straight into the receiver's
//!   mailbox with a delivery time strictly after the sending instant, so
//!   the receiver sees the message when its clock reaches that time.
//!   Because the key order is total, delivery order — and therefore
//!   simulation state — does not depend on the order messages were
//!   pushed in.
//! * [`EpochProfiler`] — a sim-time record of what each shard did at each
//!   step of the pump (events, messages sent, head-of-line parking).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hmc_types::{Time, TimeDelta};

/// Total ordering key for cross-shard messages: timestamp first, then the
/// originating edge, direction (`0` = toward the higher-numbered cube,
/// `1` = toward the lower), and a per-(edge, direction) sequence number.
/// Every message in one simulation has a distinct key, so draining a
/// [`Mailbox`] in key order is a deterministic total order regardless of
/// arrival interleaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct MsgKey {
    /// Simulated instant at which the message takes effect at the receiver.
    pub at: Time,
    /// Index of the topology edge the message travelled.
    pub edge: u32,
    /// Direction along the edge (0 = up, 1 = down).
    pub dir: u8,
    /// Monotonic sequence number within `(edge, dir)`.
    pub seq: u64,
}

#[derive(Debug)]
struct Item<M> {
    key: MsgKey,
    msg: M,
}

impl<M> PartialEq for Item<M> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<M> Eq for Item<M> {}
impl<M> PartialOrd for Item<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Item<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// A deterministic timestamped inbox: messages pop in [`MsgKey`] order no
/// matter the order they were pushed. One per shard; it holds every
/// message in flight toward that shard.
#[derive(Debug)]
pub struct Mailbox<M> {
    heap: BinaryHeap<Reverse<Item<M>>>,
}

impl<M> Mailbox<M> {
    /// Creates an empty mailbox.
    pub fn new() -> Self {
        Mailbox {
            heap: BinaryHeap::new(),
        }
    }

    /// Deposits a message under its delivery key.
    pub fn push(&mut self, key: MsgKey, msg: M) {
        self.heap.push(Reverse(Item { key, msg }));
    }

    /// Removes and returns the first message (in key order) due at or
    /// before `limit`, if any.
    pub fn pop_before(&mut self, limit: Time) -> Option<(MsgKey, M)> {
        if self.heap.peek().map(|e| e.0.key.at <= limit) != Some(true) {
            return None;
        }
        let Reverse(item) = self.heap.pop().expect("peeked non-empty");
        Some((item.key, item.msg))
    }

    /// Delivery time of the earliest pending message, if any.
    pub fn peek_at(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.0.key.at)
    }

    /// Number of pending messages.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no messages are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<M> Default for Mailbox<M> {
    fn default() -> Self {
        Mailbox::new()
    }
}

/// One shard's running totals, as read by the pump after a step. All
/// fields derive purely from simulation state — no wall clock is
/// involved, so profiles are bit-identical across runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct EpochSample {
    /// Events processed (host + device).
    pub events: u64,
    /// Cross-shard messages emitted.
    pub sent: u64,
    /// Head-of-line parking time (arrival→delivery gaps of messages that
    /// had to wait at the receiving shard).
    pub parked: TimeDelta,
}

/// The accumulated deterministic profile of one shard.
#[derive(Debug, Clone, Default)]
pub struct ShardEpochProfile {
    /// Pump steps recorded (every shard is sampled at every step).
    pub epochs: u64,
    /// Steps in which the shard processed at least one event.
    pub busy_epochs: u64,
    /// Total events processed.
    pub events: u64,
    /// Total cross-shard messages emitted.
    pub sent: u64,
    /// Sum of the step windows (see [`EpochProfiler::window_total`]) of
    /// the shard's busy steps; divided by the window total this is the
    /// share of simulated time the shard spent doing work.
    pub occupied: TimeDelta,
    /// Total head-of-line parking time.
    pub parked: TimeDelta,
}

/// A deterministic, sim-time profiler for a serial shard pump. The pump
/// feeds it every shard's [`EpochSample`] totals after each step (one
/// instant of simulated time), and the profiler accumulates the deltas;
/// armed or not, it reads simulation state without mutating it
/// (bit-inert).
///
/// A step's *window* is the simulated time the pump's clock advanced to
/// reach it: the gap from the previous recorded step's instant (zero for
/// the first step). The `epoch` in its names means one pump step.
#[derive(Debug, Clone)]
pub struct EpochProfiler {
    shards: Vec<ShardEpochProfile>,
    epochs: u64,
    window_total: TimeDelta,
    last_at: Option<Time>,
    /// Each shard's totals at the last step (or when armed).
    last: Vec<EpochSample>,
}

impl EpochProfiler {
    /// Creates a profiler for `n` shards whose totals start at zero.
    pub fn new(n: usize) -> Self {
        EpochProfiler::from_totals(vec![EpochSample::default(); n])
    }

    /// Creates a profiler for shards whose running totals are `totals`
    /// now, in shard-index order.
    pub fn from_totals(totals: Vec<EpochSample>) -> Self {
        EpochProfiler {
            shards: vec![ShardEpochProfile::default(); totals.len()],
            epochs: 0,
            window_total: TimeDelta::ZERO,
            last_at: None,
            last: totals,
        }
    }

    /// Records the pump step at instant `at`; `totals` yields every
    /// shard's running totals after it, in shard-index order.
    pub fn record_step(&mut self, at: Time, totals: impl ExactSizeIterator<Item = EpochSample>) {
        assert_eq!(totals.len(), self.shards.len(), "one total per shard");
        let window = self.last_at.map_or(TimeDelta::ZERO, |l| at.since(l));
        self.last_at = Some(at);
        self.epochs += 1;
        self.window_total += window;
        for ((p, last), now) in self.shards.iter_mut().zip(&mut self.last).zip(totals) {
            let events = now.events - last.events;
            p.epochs += 1;
            p.events += events;
            p.sent += now.sent - last.sent;
            p.parked += now.parked - last.parked;
            if events > 0 {
                p.busy_epochs += 1;
                p.occupied += window;
            }
            *last = now;
        }
    }

    /// Pump steps recorded so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Sum of all step windows: the simulated time from the first
    /// recorded step to the last.
    pub fn window_total(&self) -> TimeDelta {
        self.window_total
    }

    /// Per-shard profiles, in shard-index order.
    pub fn shards(&self) -> &[ShardEpochProfile] {
        &self.shards
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mailbox_pops_in_total_key_order() {
        let mut mb = Mailbox::new();
        let k = |at: u64, edge: u32, dir: u8, seq: u64| MsgKey {
            at: Time::from_ps(at),
            edge,
            dir,
            seq,
        };
        // Pushed in scrambled order, including same-instant collisions
        // that must resolve by (edge, dir, seq).
        mb.push(k(50, 1, 0, 2), "e");
        mb.push(k(10, 3, 1, 0), "b");
        mb.push(k(50, 0, 1, 9), "d");
        mb.push(k(10, 2, 0, 7), "a");
        mb.push(k(50, 1, 1, 0), "f");
        mb.push(k(20, 0, 0, 1), "c");
        let mut got = Vec::new();
        while let Some((_, m)) = mb.pop_before(Time::from_ps(49)) {
            got.push(m);
        }
        assert_eq!(got, vec!["a", "b", "c"]);
        assert_eq!(mb.peek_at(), Some(Time::from_ps(50)));
        while let Some((_, m)) = mb.pop_before(Time::MAX) {
            got.push(m);
        }
        assert_eq!(got, vec!["a", "b", "c", "d", "e", "f"]);
        assert!(mb.is_empty());
    }

    #[test]
    fn epoch_profiler_accumulates_per_shard() {
        let s = |events, sent, parked| EpochSample {
            events,
            sent,
            parked: TimeDelta::from_ps(parked),
        };
        let at = Time::from_ps;
        // Armed with shard 0 already 7 events and 5 messages in.
        let mut p = EpochProfiler::from_totals(vec![s(7, 5, 0), s(0, 0, 0)]);
        // Step at 400: the first step has no window. Shard 0 busy.
        p.record_step(at(400), [s(11, 7, 10), s(0, 0, 0)].into_iter());
        // Step at 1000: window 600, both busy.
        p.record_step(at(1_000), [s(12, 7, 20), s(8, 3, 10)].into_iter());
        // Step at 1500: window 500, only shard 1 busy.
        p.record_step(at(1_500), [s(12, 7, 20), s(10, 4, 20)].into_iter());
        assert_eq!(p.epochs(), 3);
        assert_eq!(p.window_total(), TimeDelta::from_ps(1_100));
        let sh = p.shards();
        assert_eq!(sh[0].epochs, 3);
        assert_eq!(sh[0].events, 5);
        assert_eq!(sh[0].busy_epochs, 2);
        assert_eq!(sh[0].occupied, TimeDelta::from_ps(600));
        assert_eq!(sh[0].parked, TimeDelta::from_ps(20));
        assert_eq!(sh[1].busy_epochs, 2);
        assert_eq!(sh[1].occupied, TimeDelta::from_ps(1_100));
        assert_eq!(sh[1].sent, 4);
    }
}
