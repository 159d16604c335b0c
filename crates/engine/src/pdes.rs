//! Conservative discrete-event scaffolding for sharded simulations:
//! lookahead windows, deterministic mailboxes, and an epoch profiler.
//!
//! The engine stays policy-free: this module knows nothing about cubes,
//! links, or packets. It provides the mechanisms a conservative
//! (lookahead-based) shard scheduler needs, and the simulation crate
//! supplies the physics and the serial pump:
//!
//! * [`LookaheadTable`] — per-channel minimum cross-shard latencies fixed
//!   at build time. Any message a shard emits during the half-open window
//!   `[a, b)` carries a timestamp `>= b` as long as `b − a` never exceeds
//!   the global lookahead, so every shard can advance a whole window
//!   before any neighbour's output for that window is exchanged.
//! * [`Mailbox`] — a timestamped inbox drained in total [`MsgKey`] order
//!   `(at, edge, dir, seq)`. Because the key order is total, delivery
//!   order — and therefore simulation state — does not depend on the
//!   order in which the scheduler routed the messages.
//! * [`EpochProfiler`] — a sim-time record of what each shard did in each
//!   lookahead window (events, envelopes, window utilization, parking).

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

/// An addressed cross-shard message: destination shard plus its ordering
/// key and payload.
#[derive(Debug, Clone)]
pub struct Envelope<M> {
    /// Destination shard index.
    pub to: usize,
    /// Total-order delivery key.
    pub key: MsgKey,
    /// Payload (request/response/credit — the simulation crate decides).
    pub msg: M,
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
/// matter the order they were pushed. One per shard; the scheduler
/// routes [`Envelope`]s into it at epoch boundaries.
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

    /// Drops all pending messages.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

impl<M> Default for Mailbox<M> {
    fn default() -> Self {
        Mailbox::new()
    }
}

/// Per-channel minimum cross-shard message latencies, fixed at topology
/// build time. The conservative epoch bound is [`LookaheadTable::global`]:
/// a shard at local time `a` may safely advance to `a + global()` because
/// no in-flight message can take effect earlier than that.
#[derive(Debug, Clone)]
pub struct LookaheadTable {
    per_edge: Vec<TimeDelta>,
    global: TimeDelta,
}

impl LookaheadTable {
    /// Builds the table from per-edge minimum latencies. Every entry must
    /// be strictly positive — a zero-latency channel has no conservative
    /// lookahead and would stall the epoch scheduler.
    pub fn new(per_edge: Vec<TimeDelta>) -> Self {
        assert!(!per_edge.is_empty(), "lookahead table needs >= 1 edge");
        let global = per_edge.iter().copied().min().expect("non-empty");
        assert!(
            global > TimeDelta::ZERO,
            "conservative PDES requires strictly positive lookahead"
        );
        LookaheadTable { per_edge, global }
    }

    /// Minimum message latency across edge `e`.
    pub fn per_edge(&self, e: usize) -> TimeDelta {
        self.per_edge[e]
    }

    /// The global lookahead: the minimum over all edges, i.e. the widest
    /// epoch window that is still conservative for every shard.
    pub fn global(&self) -> TimeDelta {
        self.global
    }

    /// Number of edges in the table.
    pub fn edges(&self) -> usize {
        self.per_edge.len()
    }
}

/// Maximum retained epoch spans per shard in the profiler. Busy epochs
/// past the cap are still counted in the aggregates but drop out of the
/// Perfetto track; the drop count is reported so truncation is visible.
const EPOCH_SPAN_CAP: usize = 4096;

/// One recorded epoch on one shard's Perfetto track.
#[derive(Debug, Clone, Copy)]
pub struct EpochSpan {
    /// Epoch window start (inclusive).
    pub start: Time,
    /// Epoch window end (exclusive).
    pub end: Time,
    /// Events the shard processed inside the window.
    pub events: u64,
    /// Cross-shard envelopes the shard emitted during the window.
    pub sent: u64,
}

/// What one shard did during one epoch, as observed by the scheduler.
/// All fields are deltas over the epoch, derived purely from simulation
/// state — no wall clock is involved, so profiles are bit-identical
/// across runs.
#[derive(Debug, Clone, Copy)]
pub struct EpochSample {
    /// Events processed this epoch (host + device + deliveries).
    pub events: u64,
    /// Cross-shard envelopes emitted this epoch.
    pub sent: u64,
    /// Cross-shard envelopes delivered into the shard's mailbox at the
    /// end of this epoch.
    pub received: u64,
    /// The shard's local clock after the epoch (last instant pumped).
    pub advanced_to: Time,
    /// Head-of-line parking time accrued this epoch (arrival→delivery
    /// gaps of messages that had to wait at the receiving shard).
    pub parked: TimeDelta,
}

/// The accumulated deterministic profile of one shard.
#[derive(Debug, Clone, Default)]
pub struct ShardEpochProfile {
    /// Epochs the shard participated in.
    pub epochs: u64,
    /// Epochs in which the shard processed at least one event.
    pub busy_epochs: u64,
    /// Total events processed.
    pub events: u64,
    /// Total cross-shard envelopes emitted.
    pub sent: u64,
    /// Total cross-shard envelopes received.
    pub received: u64,
    /// Sum over busy epochs of how far into the lookahead window the
    /// shard's local clock actually advanced; divided by the summed
    /// window widths this is the lookahead-window utilization.
    pub occupied: TimeDelta,
    /// Total head-of-line parking time.
    pub parked: TimeDelta,
    /// Retained busy-epoch spans (capped at [`EPOCH_SPAN_CAP`]).
    pub spans: Vec<EpochSpan>,
    /// Busy epochs whose spans were dropped once the cap was reached.
    pub dropped_spans: u64,
}

/// A deterministic, sim-time profiler for the conservative epoch
/// scheduler. The scheduler feeds it one [`EpochSample`] per shard after
/// each lookahead window; armed or not, it reads simulation state
/// without mutating it (bit-inert).
#[derive(Debug, Clone)]
pub struct EpochProfiler {
    shards: Vec<ShardEpochProfile>,
    epochs: u64,
    window_total: TimeDelta,
}

impl EpochProfiler {
    /// Creates a profiler for `n` shards.
    pub fn new(n: usize) -> Self {
        EpochProfiler {
            shards: vec![ShardEpochProfile::default(); n],
            epochs: 0,
            window_total: TimeDelta::ZERO,
        }
    }

    /// Records one epoch `[start, end)`; `samples` holds one entry per
    /// shard, in shard-index order.
    pub fn record_epoch(&mut self, start: Time, end: Time, samples: &[EpochSample]) {
        assert_eq!(samples.len(), self.shards.len(), "one sample per shard");
        self.epochs += 1;
        self.window_total += end.since(start);
        for (p, s) in self.shards.iter_mut().zip(samples) {
            p.epochs += 1;
            p.events += s.events;
            p.sent += s.sent;
            p.received += s.received;
            p.parked += s.parked;
            if s.events == 0 {
                continue;
            }
            p.busy_epochs += 1;
            if s.advanced_to > start {
                p.occupied += s.advanced_to.min(end).since(start);
            }
            if p.spans.len() < EPOCH_SPAN_CAP {
                p.spans.push(EpochSpan {
                    start,
                    end,
                    events: s.events,
                    sent: s.sent,
                });
            } else {
                p.dropped_spans += 1;
            }
        }
    }

    /// Epochs recorded so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Sum of all epoch window widths.
    pub fn window_total(&self) -> TimeDelta {
        self.window_total
    }

    /// Per-shard profiles, in shard-index order.
    pub fn shards(&self) -> &[ShardEpochProfile] {
        &self.shards
    }

    /// Renders the profile as JSON: per-shard aggregates plus the span
    /// retention counts. Spans themselves go to the Perfetto export.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let w = self.window_total.as_ps().max(1) as f64;
        write!(
            out,
            "{{\"epochs\":{},\"window_total_ps\":{},\"shards\":[",
            self.epochs,
            self.window_total.as_ps()
        )
        .expect("writing to a String cannot fail");
        for (i, p) in self.shards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let util = p.occupied.as_ps() as f64 / w;
            write!(
                out,
                "{{\"shard\":{i},\"epochs\":{},\"busy_epochs\":{},\"events\":{},\
                 \"sent\":{},\"received\":{},\"occupied_ps\":{},\"parked_ps\":{},\
                 \"window_utilization\":{util:.6},\"spans\":{},\"dropped_spans\":{}}}",
                p.epochs,
                p.busy_epochs,
                p.events,
                p.sent,
                p.received,
                p.occupied.as_ps(),
                p.parked.as_ps(),
                p.spans.len(),
                p.dropped_spans,
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("]}");
        out
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
    fn lookahead_global_is_min_edge() {
        let t = LookaheadTable::new(vec![
            TimeDelta::from_ps(9_000),
            TimeDelta::from_ps(8_000),
            TimeDelta::from_ps(12_000),
        ]);
        assert_eq!(t.global(), TimeDelta::from_ps(8_000));
        assert_eq!(t.per_edge(2), TimeDelta::from_ps(12_000));
        assert_eq!(t.edges(), 3);
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn lookahead_rejects_zero_latency_edge() {
        let _ = LookaheadTable::new(vec![TimeDelta::from_ps(100), TimeDelta::ZERO]);
    }

    #[test]
    fn epoch_profiler_accumulates_per_shard() {
        let mut p = EpochProfiler::new(2);
        let d = TimeDelta::from_ps(1_000);
        let s = |events, sent, adv: u64| EpochSample {
            events,
            sent,
            received: sent,
            advanced_to: Time::from_ps(adv),
            parked: TimeDelta::from_ps(if events > 0 { 10 } else { 0 }),
        };
        // Epoch [0, 1000): shard 0 busy to 600, shard 1 idle.
        p.record_epoch(Time::ZERO, Time::ZERO + d, &[s(4, 2, 600), s(0, 0, 0)]);
        // Epoch [1000, 2000): both busy; shard 1 overshoots the window
        // end (clamped to the window for utilization).
        p.record_epoch(
            Time::from_ps(1_000),
            Time::from_ps(2_000),
            &[s(1, 0, 1_500), s(8, 3, 2_500)],
        );
        assert_eq!(p.epochs(), 2);
        assert_eq!(p.window_total(), TimeDelta::from_ps(2_000));
        let sh = p.shards();
        assert_eq!(sh[0].events, 5);
        assert_eq!(sh[0].busy_epochs, 2);
        assert_eq!(sh[0].occupied, TimeDelta::from_ps(600 + 500));
        assert_eq!(sh[0].parked, TimeDelta::from_ps(20));
        assert_eq!(sh[0].spans.len(), 2);
        assert_eq!(sh[1].busy_epochs, 1);
        assert_eq!(sh[1].occupied, TimeDelta::from_ps(1_000));
        assert_eq!(sh[1].sent, 3);
        assert_eq!(sh[1].spans.len(), 1);
        assert_eq!(sh[1].spans[0].events, 8);
        let json = p.to_json();
        assert!(json.contains("\"epochs\":2"));
        assert!(json.contains("\"window_utilization\""));
        assert!(json.contains("\"shard\":1"));
    }

    #[test]
    fn epoch_profiler_caps_spans_and_counts_drops() {
        let mut p = EpochProfiler::new(1);
        for e in 0..(EPOCH_SPAN_CAP as u64 + 10) {
            let start = Time::from_ps(e * 100);
            let end = Time::from_ps(e * 100 + 100);
            p.record_epoch(
                start,
                end,
                &[EpochSample {
                    events: 1,
                    sent: 0,
                    received: 0,
                    advanced_to: end,
                    parked: TimeDelta::ZERO,
                }],
            );
        }
        assert_eq!(p.shards()[0].spans.len(), EPOCH_SPAN_CAP);
        assert_eq!(p.shards()[0].dropped_spans, 10);
        assert!(p.to_json().contains("\"dropped_spans\":10"));
    }
}
