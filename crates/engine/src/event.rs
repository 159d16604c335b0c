//! A time-ordered, FIFO-stable event queue.
//!
//! Internally this is a hierarchical timing wheel rather than a plain
//! binary heap: the common case in a memory-system simulation is a dense
//! cloud of events within the next few hundred nanoseconds (link flits,
//! DRAM timing edges, queue retries) plus a sparse far tail (refresh every
//! 7.8 µs, thermal ticks). Near-future events are bucketed by coarse time
//! into a fixed ring of [`BUCKETS`] slots of `2^`[`SHIFT`]` ps` each
//! (≈ 1 ns buckets, ≈ 1 µs horizon), so push is O(1) and pop amortizes to
//! a word-scan plus a tiny in-bucket sort instead of a `log n` chain of
//! tuple comparisons. Far-future events overflow into a small heap and
//! migrate into the wheel as simulated time approaches them.
//!
//! The wheel orders small keys, not events. Each payload is written once
//! into a slab slot when it is pushed and taken once when it is popped;
//! the buckets, the staging buffer and the overflow heap move only
//! 24-byte `(time, seq, slot)` keys, however large the event type is.

use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use hmc_types::Time;

/// Log2 of the bucket width in picoseconds (2^10 ps ≈ 1 ns).
pub const SHIFT: u32 = 10;
/// Number of wheel slots; horizon = `BUCKETS << SHIFT` ps ≈ 1.05 µs.
pub const BUCKETS: usize = 1024;

const MASK: u64 = (BUCKETS - 1) as u64;
const WORDS: usize = BUCKETS / 64;

/// Peek-cache sentinel: earliest time unknown, recompute on demand.
const DIRTY: u64 = u64::MAX;
/// Peek-cache sentinel: the queue is empty.
const EMPTY: u64 = u64::MAX - 1;

/// A discrete-event queue: events pop in non-decreasing time order, and
/// events scheduled for the same instant pop in insertion order
/// (FIFO-stable), which keeps simulations deterministic.
///
/// Payloads live in a slab (`Vec<Option<E>>` with a LIFO free list), so
/// the slab never holds more slots than the peak number of pending
/// events; only small `(time, seq, slot)` keys travel through the wheel.
///
/// ```
/// use sim_engine::event::EventQueue;
/// use hmc_types::Time;
///
/// let mut q = EventQueue::new();
/// let t = Time::from_ps(5);
/// q.push(t, 'a');
/// q.push(t, 'b');
/// assert_eq!(q.pop().unwrap().1, 'a');
/// assert_eq!(q.pop().unwrap().1, 'b');
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Event payloads, indexed by `Key::slot`; `None` marks a free slot.
    slab: Vec<Option<E>>,
    /// Free slab slots, reused last-freed first.
    free: Vec<u32>,
    /// Keys already extracted into exact `(time, seq)` order; always the
    /// earliest region of the queue. Refilled from the wheel one bucket at
    /// a time.
    now_buf: VecDeque<Key>,
    /// The ring of near-future buckets; slot `abs & MASK` holds keys
    /// whose coarse bucket index `abs` lies in
    /// `(active_abs, active_abs + BUCKETS]`.
    wheel: Vec<Vec<Key>>,
    /// One bit per wheel slot: set iff the slot's bucket is non-empty.
    occupied: [u64; WORDS],
    /// Coarse bucket index of the most recently materialized bucket; the
    /// wheel window starts just past it. Only ever advances.
    active_abs: u64,
    /// Far-future keys (beyond the wheel horizon at push time).
    overflow: BinaryHeap<Reverse<Key>>,
    seq: u64,
    len: usize,
    popped: u64,
    /// Cached earliest-event time in ps, or [`DIRTY`]/[`EMPTY`]. Lets
    /// `peek_time(&self)` stay O(1) on the hot path. A `Cell` (not an
    /// atomic): the queue is single-owner by design, so the type is
    /// `Send` but deliberately not `Sync`.
    cached_peek: Cell<u64>,
}

/// What the wheel orders: an event's time, its push sequence number and
/// the slab slot holding its payload. Ordered by `(at, seq)`, which is
/// unique per queue, so `slot` never decides a comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: Time,
    seq: u64,
    slot: u32,
}

#[inline]
fn bucket_of(at: Time) -> u64 {
    at.as_ps() >> SHIFT
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with pre-allocated capacity for the payload
    /// slab, the in-order staging buffer and the far-future overflow.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            slab: Vec::with_capacity(cap.min(4096)),
            free: Vec::with_capacity(cap.min(4096)),
            now_buf: VecDeque::with_capacity(cap.min(4096)),
            wheel: (0..BUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; WORDS],
            active_abs: 0,
            overflow: BinaryHeap::with_capacity(cap.min(64)),
            seq: 0,
            len: 0,
            popped: 0,
            cached_peek: Cell::new(EMPTY),
        }
    }

    /// Schedules `event` at instant `at`.
    pub fn push(&mut self, at: Time, event: E) {
        let key = Key {
            at,
            seq: self.seq,
            slot: self.store(event),
        };
        self.seq += 1;
        self.len += 1;
        let abs = bucket_of(at);
        if abs <= self.active_abs {
            // The bucket was already materialized: insert in exact order.
            // `seq` is larger than every resident key, so placing the
            // event after all keys at `<= at` preserves FIFO stability.
            let idx = self.now_buf.partition_point(|k| k.at <= at);
            self.now_buf.insert(idx, key);
        } else if abs - self.active_abs <= BUCKETS as u64 {
            let slot = (abs & MASK) as usize;
            self.wheel[slot].push(key);
            self.occupied[slot / 64] |= 1 << (slot % 64);
        } else {
            self.overflow.push(Reverse(key));
        }
        let cached = self.cached_peek.get();
        if cached != DIRTY && at.as_ps() < cached {
            self.cached_peek.set(at.as_ps());
        }
    }

    /// Writes `event` into a free slab slot (the most recently freed one,
    /// which is likely still cached) and returns its index.
    fn store(&mut self, event: E) -> u32 {
        if let Some(slot) = self.free.pop() {
            self.slab[slot as usize] = Some(event);
            return slot;
        }
        let slot = u32::try_from(self.slab.len()).expect("fewer than 2^32 pending events");
        self.slab.push(Some(event));
        slot
    }

    /// Removes and returns the earliest event with its scheduled time.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.pop_before(Time::MAX)
    }

    /// Removes and returns the earliest event if it is scheduled at or
    /// before `limit`; otherwise leaves the queue untouched. This is the
    /// simulation loop's fast path: one call replaces a
    /// `peek_time`-then-`pop` pair, and a `while let` loop over it drains
    /// an instant in `(time, seq)` order, picking up events
    /// the handlers schedule inside the bound as it goes.
    pub fn pop_before(&mut self, limit: Time) -> Option<(Time, E)> {
        if self.now_buf.is_empty() {
            if self.len == 0 {
                return None;
            }
            self.refill();
        }
        if self.now_buf.front().map(|k| k.at <= limit) != Some(true) {
            return None;
        }
        let key = self.now_buf.pop_front().expect("refilled non-empty");
        self.len -= 1;
        self.popped += 1;
        let next = match self.now_buf.front() {
            Some(k) => k.at.as_ps(),
            None if self.len == 0 => EMPTY,
            None => DIRTY,
        };
        self.cached_peek.set(next);
        let event = self.slab[key.slot as usize]
            .take()
            .expect("a pending key owns its slab slot");
        self.free.push(key.slot);
        Some((key.at, event))
    }

    /// Advances `active_abs` to the next non-empty bucket (pulling any
    /// overflow keys that fall inside the window on the way) and
    /// materializes that bucket into `now_buf` in `(time, seq)` order.
    fn refill(&mut self) {
        debug_assert!(self.now_buf.is_empty() && self.len > 0);
        loop {
            // Overflow keys the advancing window now covers belong in
            // the wheel, where they merge with same-bucket residents.
            while let Some(&Reverse(top)) = self.overflow.peek() {
                let abs = bucket_of(top.at);
                if abs > self.active_abs + BUCKETS as u64 {
                    break;
                }
                self.overflow.pop();
                let slot = (abs & MASK) as usize;
                self.wheel[slot].push(top);
                self.occupied[slot / 64] |= 1 << (slot % 64);
            }
            if let Some(abs) = self.next_occupied_abs() {
                let slot = (abs & MASK) as usize;
                self.occupied[slot / 64] &= !(1 << (slot % 64));
                // (time, seq) keys are unique, so an unstable sort yields
                // the same order a stable one would.
                self.wheel[slot].sort_unstable();
                self.now_buf.extend(self.wheel[slot].drain(..));
                self.active_abs = abs;
                return;
            }
            // The whole window is empty: jump to just before the earliest
            // far-future key and let the migration above pull it in.
            let Reverse(top) = self.overflow.peek().expect("len > 0 but queue drained");
            self.active_abs = bucket_of(top.at) - 1;
        }
    }

    /// Finds the smallest bucket index in `(active_abs, active_abs +
    /// BUCKETS]` whose slot is occupied, by scanning the occupancy bitmap
    /// word-by-word from the slot after `active_abs`.
    fn next_occupied_abs(&self) -> Option<u64> {
        let base = self.active_abs + 1;
        let start_slot = (base & MASK) as usize;
        let mut word = start_slot / 64;
        let mut mask = !0u64 << (start_slot % 64);
        for _ in 0..=WORDS {
            let bits = self.occupied[word] & mask;
            if bits != 0 {
                let slot = word * 64 + bits.trailing_zeros() as usize;
                let dist = (slot + BUCKETS - start_slot) as u64 & MASK;
                return Some(base + dist);
            }
            word = (word + 1) % WORDS;
            mask = !0;
        }
        None
    }

    /// The time of the earliest scheduled event, if any. Inlined: pumps
    /// ask every instant, and the answer is usually cached.
    #[inline]
    pub fn peek_time(&self) -> Option<Time> {
        match self.cached_peek.get() {
            EMPTY => None,
            DIRTY => {
                let t = self.scan_min_time();
                self.cached_peek.set(t.map_or(EMPTY, Time::as_ps));
                t
            }
            ps => Some(Time::from_ps(ps)),
        }
    }

    /// Recomputes the earliest event time without mutating the queue: the
    /// staging buffer front if present, else the minimum over the first
    /// occupied wheel bucket and the overflow top (overflow may hold
    /// keys the window has since grown over, so both must be checked).
    #[inline(never)]
    fn scan_min_time(&self) -> Option<Time> {
        if let Some(k) = self.now_buf.front() {
            return Some(k.at);
        }
        let wheel_min = self.next_occupied_abs().and_then(|abs| {
            let slot = (abs & MASK) as usize;
            self.wheel[slot].iter().map(|k| k.at).min()
        });
        let over_min = self.overflow.peek().map(|Reverse(k)| k.at);
        match (wheel_min, over_min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total events this queue has ever popped (throughput accounting).
    pub fn total_popped(&self) -> u64 {
        self.popped
    }

    /// Drops all pending events.
    pub fn clear(&mut self) {
        self.slab.clear();
        self.free.clear();
        self.now_buf.clear();
        for w in 0..WORDS {
            let mut bits = self.occupied[w];
            while bits != 0 {
                let slot = w * 64 + bits.trailing_zeros() as usize;
                self.wheel[slot].clear();
                bits &= bits - 1;
            }
            self.occupied[w] = 0;
        }
        self.overflow.clear();
        self.len = 0;
        self.cached_peek.set(EMPTY);
    }

    /// Iterates over pending events in arbitrary order (diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = (Time, &E)> {
        self.now_buf
            .iter()
            .chain(self.wheel.iter().flatten())
            .chain(self.overflow.iter().map(|Reverse(k)| k))
            .map(|k| {
                let event = self.slab[k.slot as usize]
                    .as_ref()
                    .expect("a pending key owns its slab slot");
                (k.at, event)
            })
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_ps(30), 3);
        q.push(Time::from_ps(10), 1);
        q.push(Time::from_ps(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn fifo_stable_at_equal_times() {
        let mut q = EventQueue::new();
        let t = Time::from_ps(100);
        for i in 0..50 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(Time::from_ps(10), "a");
        q.push(Time::from_ps(5), "b");
        assert_eq!(q.pop().unwrap().1, "b");
        q.push(Time::from_ps(7), "c");
        q.push(Time::from_ps(20), "d");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "d");
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(Time::from_ps(42), ());
        assert_eq!(q.peek_time(), Some(Time::from_ps(42)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::with_capacity(8);
        q.push(Time::ZERO, 1);
        q.push(Time::ZERO, 2);
        q.push(Time::from_ps(50_000_000), 3); // parked in overflow
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert!(q.pop().is_none());
    }

    #[test]
    fn default_is_empty() {
        let q: EventQueue<u8> = EventQueue::default();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn far_future_overflow_migrates_in_order() {
        let mut q = EventQueue::new();
        // Refresh-style far events, beyond the ~1 µs wheel horizon.
        for i in 0..4u64 {
            q.push(Time::from_ps(7_800_000 * (i + 1)), i + 100);
        }
        // Near-future cloud.
        q.push(Time::from_ps(500), 1);
        q.push(Time::from_ps(900_000), 2);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 100, 101, 102, 103]);
    }

    #[test]
    fn same_instant_fifo_across_wheel_and_overflow() {
        let mut q = EventQueue::new();
        let far = Time::from_ps(9_000_000);
        q.push(far, 0); // overflow (beyond horizon from active_abs = 0)
        q.push(Time::from_ps(100), 99);
        assert_eq!(q.pop(), Some((Time::from_ps(100), 99)));
        // Window has advanced only slightly; `far` is still in overflow.
        q.push(far, 1); // still beyond horizon → overflow too
        q.push(far, 2);
        assert_eq!(q.pop(), Some((far, 0)));
        assert_eq!(q.pop(), Some((far, 1)));
        assert_eq!(q.pop(), Some((far, 2)));
    }

    #[test]
    fn push_earlier_than_materialized_bucket() {
        let mut q = EventQueue::new();
        q.push(Time::from_ps(2048), "late");
        assert_eq!(q.pop().unwrap().1, "late");
        // active_abs now covers bucket 2; a push into an earlier bucket
        // must still pop before later events.
        q.push(Time::from_ps(5000), "later");
        q.push(Time::from_ps(100), "early");
        assert_eq!(q.pop().unwrap().1, "early");
        assert_eq!(q.pop().unwrap().1, "later");
    }

    #[test]
    fn pop_before_respects_limit() {
        let mut q = EventQueue::new();
        q.push(Time::from_ps(10), 'a');
        q.push(Time::from_ps(3000), 'b');
        assert_eq!(q.pop_before(Time::from_ps(5)), None);
        assert_eq!(
            q.pop_before(Time::from_ps(10)),
            Some((Time::from_ps(10), 'a'))
        );
        assert_eq!(q.pop_before(Time::from_ps(2999)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_before(Time::MAX), Some((Time::from_ps(3000), 'b')));
        assert_eq!(q.pop_before(Time::MAX), None);
    }

    /// Pops every event at or before `limit` with a `pop_before` loop,
    /// the way the host and device drain an instant.
    fn drain_until<E>(q: &mut EventQueue<E>, limit: Time) -> Vec<E> {
        std::iter::from_fn(|| q.pop_before(limit).map(|(_, e)| e)).collect()
    }

    #[test]
    fn pop_before_spans_bucket_boundaries() {
        let mut q = EventQueue::new();
        // One event per wheel bucket across several buckets, plus events
        // sitting exactly on bucket edges (at = k << SHIFT).
        let w = 1u64 << SHIFT;
        for k in 0..6u64 {
            q.push(Time::from_ps(k * w), k * 10); // exact bucket boundary
            q.push(Time::from_ps(k * w + 7), k * 10 + 1); // interior
        }
        // Limit on a boundary: events at exactly `3*w` are included, the
        // interior event just after it is not.
        assert_eq!(
            drain_until(&mut q, Time::from_ps(3 * w)),
            vec![0, 1, 10, 11, 20, 21, 30]
        );
        assert_eq!(q.peek_time(), Some(Time::from_ps(3 * w + 7)));
        // Drain the rest with a generous bound.
        assert_eq!(drain_until(&mut q, Time::MAX), vec![31, 40, 41, 50, 51]);
        assert!(q.is_empty());
        assert!(drain_until(&mut q, Time::MAX).is_empty());
    }

    #[test]
    fn pop_before_migrates_heap_overflow() {
        let mut q = EventQueue::new();
        // Far-future events beyond the ~1 µs horizon live in the overflow
        // heap; a pop_before loop must migrate them through the wheel in
        // order.
        for i in 0..4u64 {
            q.push(Time::from_ps(7_800_000 * (i + 1)), 100 + i);
        }
        q.push(Time::from_ps(500), 1);
        // Bound between the second and third refresh ticks: two overflow
        // events migrate and drain, two stay parked.
        assert_eq!(
            drain_until(&mut q, Time::from_ps(16_000_000)),
            vec![1, 100, 101]
        );
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Time::from_ps(7_800_000 * 3)));
        assert_eq!(drain_until(&mut q, Time::MAX), vec![102, 103]);
    }

    #[test]
    fn slab_neither_leaks_nor_duplicates_payloads() {
        use std::rc::Rc;
        // Every payload is an `Rc` whose only other owner is `live`, so a
        // strong count of 1 after a drain means the queue dropped its copy
        // exactly once and kept no stale one in a freed slot.
        let mut rng = SplitMix64::new(0x51AB);
        let mut q: EventQueue<Rc<u64>> = EventQueue::new();
        let mut live: Vec<Rc<u64>> = Vec::new();
        let mut base = 0u64;
        let mut peak = 0usize;
        for round in 0..400u64 {
            for _ in 0..rng.next_below(24) {
                let t = base
                    + if rng.next_below(8) == 0 {
                        2_000_000 + rng.next_below(9_000_000)
                    } else {
                        rng.next_below(50_000)
                    };
                let payload = Rc::new(round);
                q.push(Time::from_ps(t), Rc::clone(&payload));
                live.push(payload);
                peak = peak.max(q.len());
            }
            match rng.next_below(10) {
                0 => q.clear(),
                1 => {
                    if let Some((t, e)) = q.pop() {
                        base = t.as_ps();
                        assert_eq!(Rc::strong_count(&e), 2);
                    }
                }
                _ => {
                    let limit = Time::from_ps(base + rng.next_below(200_000));
                    while let Some((t, e)) = q.pop_before(limit) {
                        base = t.as_ps();
                        assert_eq!(Rc::strong_count(&e), 2, "round {round}");
                    }
                }
            }
            // Every popped or cleared payload is back to one owner; every
            // pending one is held exactly once by the queue.
            let pending = live.iter().filter(|p| Rc::strong_count(p) == 2).count();
            assert_eq!(pending, q.len(), "round {round}");
            assert!(live.iter().all(|p| Rc::strong_count(p) <= 2));
            live.retain(|p| Rc::strong_count(p) == 2);
            // Freed slots are reused before the slab grows.
            assert!(q.slab.len() <= peak, "round {round}");
        }
        q.clear();
        assert!(live.iter().all(|p| Rc::strong_count(p) == 1));
    }

    #[test]
    fn total_popped_accumulates() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(Time::from_ps(i), i);
        }
        while q.pop().is_some() {}
        q.push(Time::ZERO, 0);
        q.pop();
        assert_eq!(q.total_popped(), 11);
    }

    #[test]
    fn peek_recomputes_after_bucket_drains() {
        let mut q = EventQueue::new();
        q.push(Time::from_ps(100), 1);
        q.push(Time::from_ps(300_000), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        // now_buf is empty and the cache is dirty: peek must scan the wheel.
        assert_eq!(q.peek_time(), Some(Time::from_ps(300_000)));
        assert_eq!(q.peek_time(), Some(Time::from_ps(300_000)));
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn matches_heap_reference_under_random_load() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut rng = SplitMix64::new(0xC0FFEE);
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut model: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut base = 0u64;
        for _ in 0..5000 {
            if rng.next_below(3) < 2 {
                let t = base
                    + if rng.next_below(10) == 0 {
                        7_800_000 + rng.next_below(10_000_000)
                    } else {
                        rng.next_below(100_000)
                    };
                q.push(Time::from_ps(t), seq);
                model.push(Reverse((t, seq)));
                seq += 1;
            } else {
                let got = q.pop();
                let want = model.pop().map(|Reverse((t, s))| (Time::from_ps(t), s));
                assert_eq!(got, want);
                if let Some((t, _)) = got {
                    base = t.as_ps();
                }
            }
            assert_eq!(
                q.peek_time().map(Time::as_ps),
                model.peek().map(|Reverse((t, _))| *t)
            );
        }
        while let Some(Reverse((t, s))) = model.pop() {
            assert_eq!(q.pop(), Some((Time::from_ps(t), s)));
        }
        assert!(q.pop().is_none());
    }
}
