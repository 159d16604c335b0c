//! A bounded FIFO with time-weighted occupancy statistics.

use std::collections::VecDeque;

use hmc_types::{Time, TimeDelta};

/// A capacity-limited FIFO queue that tracks its own occupancy over
/// simulated time.
///
/// The occupancy integral lets experiment code apply Little's law
/// (`L = λ·W`) to any queue in the system — the analysis the paper performs
/// on the vault controller in Figure 17.
///
/// ```
/// use sim_engine::queue::BoundedQueue;
/// use hmc_types::Time;
///
/// let mut q: BoundedQueue<u32> = BoundedQueue::new(2);
/// assert!(q.try_push(1, Time::from_ps(0)).is_ok());
/// assert!(q.try_push(2, Time::from_ps(0)).is_ok());
/// assert_eq!(q.try_push(3, Time::from_ps(0)), Err(3)); // full
/// assert_eq!(q.pop(Time::from_ps(10)), Some(1));
/// ```
#[derive(Debug, Clone)]
pub struct BoundedQueue<T> {
    items: VecDeque<T>,
    capacity: usize,
    /// Time-weighted occupancy integral, in item·ps.
    occupancy_integral: f64,
    last_change: Time,
    peak: usize,
    total_pushed: u64,
    total_rejected: u64,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be non-zero");
        BoundedQueue {
            // Allocated on use: memory follows the occupancy the queue
            // reaches, not its bound. A reservation of `capacity` slots
            // would become resident over time even in a queue that never
            // holds more than a few items, as the ring head walks through
            // every slot; `try_push` enforces the bound either way.
            items: VecDeque::new(),
            capacity,
            occupancy_integral: 0.0,
            last_change: Time::ZERO,
            peak: 0,
            total_pushed: 0,
            total_rejected: 0,
        }
    }

    fn account(&mut self, now: Time) {
        let dt = now.since(self.last_change).as_ps() as f64;
        self.occupancy_integral += dt * self.items.len() as f64;
        self.last_change = now;
    }

    /// Attempts to enqueue `item` at instant `now`; hands the item back if
    /// the queue is full.
    pub fn try_push(&mut self, item: T, now: Time) -> Result<(), T> {
        if self.items.len() >= self.capacity {
            self.total_rejected += 1;
            return Err(item);
        }
        self.account(now);
        self.items.push_back(item);
        self.peak = self.peak.max(self.items.len());
        self.total_pushed += 1;
        Ok(())
    }

    /// Dequeues the oldest item at instant `now`.
    pub fn pop(&mut self, now: Time) -> Option<T> {
        if self.items.is_empty() {
            return None;
        }
        self.account(now);
        self.items.pop_front()
    }

    /// A reference to the oldest item without removing it.
    pub fn front(&self) -> Option<&T> {
        self.items.front()
    }

    /// Current number of queued items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// True if the queue is at capacity.
    pub fn is_full(&self) -> bool {
        self.items.len() >= self.capacity
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Remaining free slots.
    pub fn free(&self) -> usize {
        self.capacity - self.items.len()
    }

    /// Highest occupancy ever observed.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Total successful enqueues.
    pub fn total_pushed(&self) -> u64 {
        self.total_pushed
    }

    /// Total rejected enqueues (attempts while full).
    pub fn total_rejected(&self) -> u64 {
        self.total_rejected
    }

    /// Average occupancy over `[start of sim, now]`, from the time-weighted
    /// integral. Returns 0 for a zero-length interval.
    pub fn mean_occupancy(&mut self, now: Time) -> f64 {
        self.account(now);
        let span = now.since(Time::ZERO).as_ps() as f64;
        if span == 0.0 {
            0.0
        } else {
            self.occupancy_integral / span
        }
    }

    /// Average occupancy over the window ending at `now` of length `window`,
    /// assuming statistics were reset at the window start via
    /// [`reset_stats`].
    ///
    /// [`reset_stats`]: BoundedQueue::reset_stats
    pub fn mean_occupancy_over(&mut self, now: Time, window: TimeDelta) -> f64 {
        self.account(now);
        if window.is_zero() {
            0.0
        } else {
            self.occupancy_integral / window.as_ps() as f64
        }
    }

    /// Clears accumulated statistics (not the queued items) as of `now`.
    pub fn reset_stats(&mut self, now: Time) {
        self.occupancy_integral = 0.0;
        self.last_change = now;
        self.peak = self.items.len();
        self.total_pushed = 0;
        self.total_rejected = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut q = BoundedQueue::new(4);
        for i in 0..4 {
            q.try_push(i, Time::ZERO).unwrap();
        }
        for i in 0..4 {
            assert_eq!(q.pop(Time::ZERO), Some(i));
        }
        assert_eq!(q.pop(Time::ZERO), None);
    }

    #[test]
    fn rejects_when_full() {
        let mut q = BoundedQueue::new(1);
        assert!(q.try_push('x', Time::ZERO).is_ok());
        assert!(q.is_full());
        assert_eq!(q.try_push('y', Time::ZERO), Err('y'));
        assert_eq!(q.total_rejected(), 1);
        assert_eq!(q.free(), 0);
    }

    #[test]
    fn allocates_on_use_and_still_bounds() {
        let mut lazy = BoundedQueue::new(120);
        assert_eq!(
            lazy.items.capacity(),
            0,
            "a fresh queue holds no allocation"
        );
        // The same queue with its bound reserved up front.
        let mut eager = BoundedQueue::new(120);
        eager.items.reserve_exact(120);
        for q in [&mut lazy, &mut eager] {
            for i in 0..122u32 {
                let pushed = q.try_push(i, Time::from_ps(u64::from(i) * 10));
                assert_eq!(pushed.is_err(), i >= 120, "push {i}");
            }
            assert!(q.is_full());
            assert_eq!(q.pop(Time::from_ps(2_000)), Some(0));
        }
        // i + 1 items over [10·i, 10·i + 10) ps for i < 119, then 120 items
        // from 1190 ps until the pop at 2000 ps.
        let expected = (10.0 * (119.0 * 120.0 / 2.0) + 120.0 * 810.0) / 2_000.0;
        for q in [&mut lazy, &mut eager] {
            assert_eq!(q.total_pushed(), 120);
            assert_eq!(q.total_rejected(), 2);
            assert_eq!(q.peak(), 120);
            let mean = q.mean_occupancy(Time::from_ps(2_000));
            assert!((mean - expected).abs() < 1e-9, "mean was {mean}");
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _: BoundedQueue<u8> = BoundedQueue::new(0);
    }

    #[test]
    fn tracks_peak_and_counts() {
        let mut q = BoundedQueue::new(8);
        for i in 0..5 {
            q.try_push(i, Time::ZERO).unwrap();
        }
        q.pop(Time::ZERO);
        q.pop(Time::ZERO);
        assert_eq!(q.peak(), 5);
        assert_eq!(q.len(), 3);
        assert_eq!(q.total_pushed(), 5);
        assert!(!q.is_empty());
        assert_eq!(q.front(), Some(&2));
    }

    #[test]
    fn mean_occupancy_time_weighted() {
        let mut q = BoundedQueue::new(4);
        // Occupancy 1 over [0, 100), then 2 over [100, 200).
        q.try_push(1u8, Time::from_ps(0)).unwrap();
        q.try_push(2u8, Time::from_ps(100)).unwrap();
        let mean = q.mean_occupancy(Time::from_ps(200));
        assert!((mean - 1.5).abs() < 1e-9, "mean was {mean}");
    }

    #[test]
    fn mean_occupancy_empty_interval() {
        let mut q: BoundedQueue<u8> = BoundedQueue::new(2);
        assert_eq!(q.mean_occupancy(Time::ZERO), 0.0);
    }

    #[test]
    fn reset_stats_restarts_window() {
        let mut q = BoundedQueue::new(4);
        q.try_push(1u8, Time::from_ps(0)).unwrap();
        q.reset_stats(Time::from_ps(1_000));
        // Over the window [1000, 2000] occupancy is constant 1.
        let mean = q.mean_occupancy_over(Time::from_ps(2_000), TimeDelta::from_ps(1_000));
        assert!((mean - 1.0).abs() < 1e-9);
        assert_eq!(q.total_pushed(), 0);
        assert_eq!(q.peak(), 1);
    }

    #[test]
    fn littles_law_on_a_queue() {
        // Synthetic M/D/1-ish flow: push one item every 10 ps, pop it 30 ps
        // later. Steady-state occupancy should approach rate x wait = 3.
        let mut q = BoundedQueue::new(64);
        let mut now;
        for i in 0..1_000u64 {
            now = Time::from_ps(i * 10);
            q.try_push(i, now).unwrap();
            if i >= 3 {
                q.pop(now).unwrap();
            }
        }
        let mean = q.mean_occupancy(Time::from_ps(10_000));
        assert!((mean - 3.0).abs() < 0.1, "mean was {mean}");
    }
}
