//! Deterministic open-loop arrival processes.
//!
//! Closed-loop generators (the GUPS ports) self-limit: a port with no free
//! tag simply waits, so the system can never be offered more load than it
//! retires. Production traffic is the opposite — arrivals keep coming no
//! matter how the memory behaves. This module supplies the deterministic
//! arrival processes the open-loop frontend draws from:
//!
//! * [`ArrivalStream`] — Poisson and two-state MMPP (Markov-modulated
//!   Poisson) interarrival processes, seeded from [`SplitMix64`]. One
//!   stream stands in for thousands-to-millions of logical clients: the
//!   superposition of many independent sparse client processes converges
//!   to a Poisson process at the aggregate rate, so per-tenant folding is
//!   exact in the limit the frontend targets.
//! * [`ZipfSampler`] — Zipf-distributed item ranks (the YCSB/Gray
//!   rejection-free approximation) for hot-address popularity skew.
//!
//! Everything here is pure state + seed: the same construction parameters
//! replay the same arrival instants bit-for-bit, which is what lets the
//! overload experiments stay deterministic at any shard count.

use hmc_types::{Time, TimeDelta};

use crate::rng::SplitMix64;

/// Hard ceiling on one sampled interarrival gap (1 ms in ps). Keeps a
/// pathological exponential tail from overflowing picosecond arithmetic;
/// at the ≥ 10⁴ rps rates the frontend drives this truncates a vanishing
/// fraction of mass.
const MAX_GAP_PS: f64 = 1e9;

/// Draws an exponential variate with the given mean (in picoseconds),
/// clamped to `[1, MAX_GAP_PS]` so arrivals always advance time.
fn exp_gap_ps(rng: &mut SplitMix64, mean_ps: f64) -> u64 {
    // `1 - u` maps the `[0, 1)` uniform onto `(0, 1]`, keeping ln finite.
    let u = 1.0 - rng.next_f64();
    let gap = -u.ln() * mean_ps;
    // The float picks a *gap width*; arithmetic on Time stays integer ps.
    gap.clamp(1.0, MAX_GAP_PS) as u64
}

/// Shape of a tenant's interarrival process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalKind {
    /// Memoryless arrivals at the stream's mean rate.
    Poisson,
    /// Two-state Markov-modulated Poisson process: the stream alternates
    /// between an ON (burst) state running at `burst ×` the mean rate and
    /// an OFF state slowed so the long-run average still equals the mean.
    Mmpp {
        /// Rate multiplier while bursting. Must satisfy
        /// `burst × on_fraction ≤ 1` so the OFF-state rate stays
        /// non-negative.
        burst: f64,
        /// Long-run fraction of time spent in the ON state, in `(0, 1)`.
        on_fraction: f64,
        /// Mean length of one ON + OFF cycle. Dwell times in each state
        /// are exponential with means `on_fraction × cycle` and
        /// `(1 − on_fraction) × cycle`.
        cycle: TimeDelta,
    },
}

/// One tenant's deterministic arrival process.
///
/// ```
/// use sim_engine::arrival::{ArrivalKind, ArrivalStream};
/// use sim_engine::rng::SplitMix64;
/// use hmc_types::Time;
///
/// let mut s = ArrivalStream::new(1.0e6, ArrivalKind::Poisson, SplitMix64::new(7));
/// let first = s.next_arrival(Time::ZERO);
/// let second = s.next_arrival(first);
/// assert!(second > first);
/// ```
#[derive(Debug, Clone)]
pub struct ArrivalStream {
    /// Long-run mean arrival rate in requests per second.
    mean_rps: f64,
    kind: ArrivalKind,
    rng: SplitMix64,
    /// MMPP state: currently bursting?
    on: bool,
    /// MMPP state: instant of the next state switch (`None` until the
    /// first arrival query initializes it, and always `None` for Poisson).
    switch_at: Option<Time>,
}

impl ArrivalStream {
    /// Creates a stream with the given long-run mean rate.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive rate or out-of-range MMPP parameters.
    pub fn new(mean_rps: f64, kind: ArrivalKind, rng: SplitMix64) -> Self {
        assert!(mean_rps > 0.0, "arrival rate must be positive");
        if let ArrivalKind::Mmpp {
            burst,
            on_fraction,
            cycle,
        } = kind
        {
            assert!(burst >= 1.0, "burst multiplier must be >= 1");
            assert!(
                (0.0..1.0).contains(&on_fraction) && on_fraction > 0.0,
                "on_fraction must be in (0, 1)"
            );
            assert!(
                burst * on_fraction <= 1.0,
                "burst x on_fraction must not exceed 1 (OFF rate would go negative)"
            );
            assert!(!cycle.is_zero(), "MMPP cycle must be positive");
        }
        ArrivalStream {
            mean_rps,
            kind,
            rng,
            // Streams begin in the OFF state so a freshly started system
            // sees the baseline rate before the first burst.
            on: false,
            switch_at: None,
        }
    }

    /// The long-run mean rate in requests per second.
    pub fn mean_rps(&self) -> f64 {
        self.mean_rps
    }

    /// The instantaneous rate of the current MMPP state (or the mean for
    /// Poisson).
    fn current_rps(&self) -> f64 {
        match self.kind {
            ArrivalKind::Poisson => self.mean_rps,
            ArrivalKind::Mmpp {
                burst, on_fraction, ..
            } => {
                if self.on {
                    self.mean_rps * burst
                } else {
                    // Chosen so on_fraction·r_on + (1−on_fraction)·r_off
                    // equals the mean exactly.
                    self.mean_rps * (1.0 - burst * on_fraction) / (1.0 - on_fraction)
                }
            }
        }
    }

    /// Mean dwell time of the current MMPP state, in picoseconds.
    fn dwell_mean_ps(&self) -> f64 {
        match self.kind {
            ArrivalKind::Poisson => 0.0,
            ArrivalKind::Mmpp {
                on_fraction, cycle, ..
            } => {
                let f = if self.on {
                    on_fraction
                } else {
                    1.0 - on_fraction
                };
                cycle.as_ps() as f64 * f
            }
        }
    }

    /// Flips the MMPP state at `boundary` and draws the next dwell.
    fn switch_state(&mut self, boundary: Time) {
        self.on = !self.on;
        let mean = self.dwell_mean_ps();
        let dwell = exp_gap_ps(&mut self.rng, mean);
        self.switch_at = Some(boundary + TimeDelta::from_ps(dwell));
    }

    /// The instant of the next arrival strictly after `now`.
    ///
    /// Open loop: the caller schedules this instant unconditionally — the
    /// stream never looks at system occupancy. Both the exponential gaps
    /// and the MMPP dwell times are memoryless, so crossing a state
    /// boundary discards the partial gap and redraws at the new rate
    /// without biasing the process.
    pub fn next_arrival(&mut self, now: Time) -> Time {
        if matches!(self.kind, ArrivalKind::Poisson) {
            let gap = exp_gap_ps(&mut self.rng, 1e12 / self.mean_rps);
            return now + TimeDelta::from_ps(gap);
        }
        let mut cursor = now;
        loop {
            let boundary = match self.switch_at {
                Some(b) if b > cursor => b,
                // Uninitialized or already-passed boundary: start a fresh
                // dwell of the current state from the cursor.
                _ => {
                    let mean = self.dwell_mean_ps();
                    let dwell = exp_gap_ps(&mut self.rng, mean);
                    let b = cursor + TimeDelta::from_ps(dwell);
                    self.switch_at = Some(b);
                    b
                }
            };
            let rps = self.current_rps();
            if rps <= 0.0 {
                // Fully silent OFF state: jump to the burst.
                self.switch_state(boundary);
                cursor = boundary;
                continue;
            }
            let gap = exp_gap_ps(&mut self.rng, 1e12 / rps);
            let candidate = cursor + TimeDelta::from_ps(gap);
            if candidate < boundary {
                return candidate;
            }
            self.switch_state(boundary);
            cursor = boundary;
        }
    }
}

/// Zipf-distributed item ranks over `0..n` — the YCSB/Gray rejection-free
/// generator. Rank 0 is the hottest item; skew `theta` in `[0, 1)` (0 =
/// uniform, 0.99 = the YCSB default "hotspot" skew).
///
/// ```
/// use sim_engine::arrival::ZipfSampler;
/// use sim_engine::rng::SplitMix64;
///
/// let zipf = ZipfSampler::new(1000, 0.99);
/// let mut rng = SplitMix64::new(3);
/// assert!(zipf.sample(&mut rng) < 1000);
/// ```
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    /// ζ(2, θ) = 1 + 2⁻ᶿ — the two-item partial zeta the Gray formula
    /// special-cases.
    zeta2: f64,
}

impl ZipfSampler {
    /// Precomputes the partial zeta sums for `n` items at skew `theta`.
    /// O(1) at `theta == 0`, otherwise O(n) once per build; sampling is
    /// O(1).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `theta` is outside `[0, 1)`.
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one item");
        assert!((0.0..1.0).contains(&theta), "theta must be in [0, 1)");
        let zetan = if theta == 0.0 {
            // Every term is `1 / i^0` = 1.0 exactly, so the sum is `n`
            // bit for bit for any n below 2^53.
            n as f64
        } else {
            zeta(n, theta)
        };
        ZipfSampler::with_zetan(n, theta, zetan)
    }

    /// Derives the Gray constants from a precomputed normalizer
    /// `zetan` = ζ(n, θ).
    fn with_zetan(n: u64, theta: f64, zetan: f64) -> Self {
        let zeta2 = if n >= 2 {
            1.0 + 0.5f64.powf(theta)
        } else {
            1.0
        };
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        ZipfSampler {
            n,
            theta,
            alpha,
            zetan,
            eta,
            zeta2,
        }
    }

    /// Number of items.
    pub fn items(&self) -> u64 {
        self.n
    }

    /// The configured skew.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Draws one rank in `0..n`, hottest first.
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        if self.n == 1 {
            // Consume one draw anyway so stream alignment is shape-free.
            let _ = rng.next_f64();
            return 0;
        }
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < self.zeta2 {
            return 1;
        }
        let rank = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        rank.min(self.n - 1)
    }
}

/// ζ(n, θ) = Σ_{i=1..n} 1/iᶿ, summed in rank order.
fn zeta(n: u64, theta: f64) -> f64 {
    let mut sum = 0.0;
    for i in 1..=n {
        sum += 1.0 / (i as f64).powf(theta);
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_mean_interarrival_matches_rate() {
        // 1M rps => 1 µs mean gap.
        let mut s = ArrivalStream::new(1.0e6, ArrivalKind::Poisson, SplitMix64::new(11));
        let mut t = Time::ZERO;
        let n = 20_000;
        for _ in 0..n {
            t = s.next_arrival(t);
        }
        let mean_gap_ns = t.as_ps() as f64 / n as f64 / 1000.0;
        assert!((900.0..1100.0).contains(&mean_gap_ns), "mean {mean_gap_ns}");
    }

    #[test]
    fn arrivals_strictly_advance() {
        let kind = ArrivalKind::Mmpp {
            burst: 4.0,
            on_fraction: 0.2,
            cycle: TimeDelta::from_us(10),
        };
        let mut s = ArrivalStream::new(5.0e6, kind, SplitMix64::new(23));
        let mut t = Time::ZERO;
        for _ in 0..50_000 {
            let next = s.next_arrival(t);
            assert!(next > t);
            t = next;
        }
    }

    #[test]
    fn mmpp_long_run_rate_matches_mean() {
        let kind = ArrivalKind::Mmpp {
            burst: 4.0,
            on_fraction: 0.2,
            cycle: TimeDelta::from_us(10),
        };
        let mut s = ArrivalStream::new(2.0e6, kind, SplitMix64::new(5));
        let mut t = Time::ZERO;
        let n = 200_000;
        for _ in 0..n {
            t = s.next_arrival(t);
        }
        let rate = n as f64 / (t.as_ps() as f64 / 1e12);
        assert!(
            (1.8e6..2.2e6).contains(&rate),
            "long-run rate {rate} vs mean 2e6"
        );
    }

    #[test]
    fn mmpp_is_burstier_than_poisson() {
        // Compare squared-coefficient-of-variation of interarrival gaps:
        // Poisson has CV² ≈ 1; a 5x burst process must exceed it.
        let sq_cv = |kind: ArrivalKind| {
            let mut s = ArrivalStream::new(1.0e6, kind, SplitMix64::new(99));
            let mut t = Time::ZERO;
            let mut gaps = Vec::new();
            for _ in 0..100_000 {
                let next = s.next_arrival(t);
                gaps.push(next.as_ps() - t.as_ps());
                t = next;
            }
            let mean = gaps.iter().sum::<u64>() as f64 / gaps.len() as f64;
            let var = gaps
                .iter()
                .map(|&g| (g as f64 - mean) * (g as f64 - mean))
                .sum::<f64>()
                / gaps.len() as f64;
            var / (mean * mean)
        };
        let poisson = sq_cv(ArrivalKind::Poisson);
        let mmpp = sq_cv(ArrivalKind::Mmpp {
            burst: 5.0,
            on_fraction: 0.15,
            cycle: TimeDelta::from_us(50),
        });
        assert!((0.9..1.1).contains(&poisson), "poisson CV² {poisson}");
        assert!(mmpp > 1.5, "MMPP CV² {mmpp} not bursty");
    }

    #[test]
    fn streams_replay_bit_identically() {
        let kind = ArrivalKind::Mmpp {
            burst: 3.0,
            on_fraction: 0.25,
            cycle: TimeDelta::from_us(5),
        };
        let mut a = ArrivalStream::new(1.0e6, kind, SplitMix64::new(42));
        let mut b = ArrivalStream::new(1.0e6, kind, SplitMix64::new(42));
        let mut t_a = Time::ZERO;
        let mut t_b = Time::ZERO;
        for _ in 0..10_000 {
            t_a = a.next_arrival(t_a);
            t_b = b.next_arrival(t_b);
            assert_eq!(t_a, t_b);
        }
    }

    #[test]
    fn zipf_rank_zero_is_hottest() {
        let zipf = ZipfSampler::new(10_000, 0.99);
        let mut rng = SplitMix64::new(17);
        let mut counts = vec![0u32; 16];
        let mut total_in_head = 0u32;
        let n = 100_000;
        for _ in 0..n {
            let r = zipf.sample(&mut rng);
            assert!(r < 10_000);
            if (r as usize) < counts.len() {
                counts[r as usize] += 1;
                total_in_head += 1;
            }
        }
        // Heavy skew: the 16 hottest of 10k items (0.16% of the keyspace)
        // absorb about a third of the traffic (analytically ~34% at
        // theta = 0.99), and rank 0 beats rank 8 by the power law.
        assert!(
            (n / 4..n / 2).contains(&total_in_head),
            "head share {total_in_head}/{n}"
        );
        assert!(counts[0] > counts[8] * 2, "counts {counts:?}");
    }

    #[test]
    fn zipf_theta_zero_is_roughly_uniform() {
        let zipf = ZipfSampler::new(8, 0.0);
        let mut rng = SplitMix64::new(31);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        for &c in &counts {
            assert!((8_000..12_000).contains(&c), "bucket {c}");
        }
    }

    #[test]
    fn zipf_theta_zero_matches_summed_normalizer_bit_for_bit() {
        for n in [1u64, 2, 3, 1000, 1 << 16] {
            let fast = ZipfSampler::new(n, 0.0);
            let summed = ZipfSampler::with_zetan(n, 0.0, zeta(n, 0.0));
            assert_eq!(
                fast.zetan.to_bits(),
                summed.zetan.to_bits(),
                "zetan, n = {n}"
            );
            assert_eq!(fast.eta.to_bits(), summed.eta.to_bits(), "eta, n = {n}");
            let mut a = SplitMix64::new(n ^ 0x5EED);
            let mut b = SplitMix64::new(n ^ 0x5EED);
            for _ in 0..10_000 {
                assert_eq!(fast.sample(&mut a), summed.sample(&mut b), "n = {n}");
            }
        }
    }

    #[test]
    fn zipf_single_item_always_zero() {
        let zipf = ZipfSampler::new(1, 0.5);
        let mut rng = SplitMix64::new(1);
        for _ in 0..100 {
            assert_eq!(zipf.sample(&mut rng), 0);
        }
    }

    #[test]
    #[should_panic(expected = "OFF rate")]
    fn mmpp_rejects_impossible_burst() {
        let _ = ArrivalStream::new(
            1.0,
            ArrivalKind::Mmpp {
                burst: 10.0,
                on_fraction: 0.5,
                cycle: TimeDelta::from_us(1),
            },
            SplitMix64::new(0),
        );
    }
}
