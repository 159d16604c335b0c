//! Measurement instruments: counters, latency histograms, time-weighted
//! averages, and bandwidth meters.

use std::fmt;

use hmc_types::{Time, TimeDelta};

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Adds one.
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current count.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// Resets to zero.
    pub fn reset(&mut self) {
        self.0 = 0;
    }

    /// Count divided by an elapsed wall of simulated time, in events per
    /// second.
    pub fn rate_per_sec(self, elapsed: TimeDelta) -> f64 {
        if elapsed.is_zero() {
            0.0
        } else {
            self.0 as f64 / elapsed.as_secs_f64()
        }
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A latency histogram storing summary moments plus a bounded reservoir of
/// raw samples for percentile queries.
///
/// The GUPS monitoring unit reports min / max / aggregate read latency; this
/// mirrors that and adds percentiles for richer analysis.
///
/// ```
/// use sim_engine::stats::Histogram;
/// use hmc_types::TimeDelta;
///
/// let mut h = Histogram::new();
/// for ns in [10, 20, 30] {
///     h.record(TimeDelta::from_ns(ns));
/// }
/// assert_eq!(h.mean().as_ns_f64(), 20.0);
/// assert_eq!(h.min().unwrap().as_ns_f64(), 10.0);
/// assert_eq!(h.max().unwrap().as_ns_f64(), 30.0);
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    count: u64,
    sum_ps: u128,
    sum_sq_ps: f64,
    min: Option<TimeDelta>,
    max: Option<TimeDelta>,
    /// Raw samples, capped at `RESERVOIR_CAP` by uniform decimation.
    samples: Reservoir,
    /// Every `stride`-th sample is kept once the reservoir fills.
    stride: u64,
}

impl Histogram {
    const RESERVOIR_CAP: usize = 65_536;

    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: 0,
            sum_ps: 0,
            sum_sq_ps: 0.0,
            min: None,
            max: None,
            samples: Reservoir::Narrow(Vec::new()),
            stride: 1,
        }
    }

    /// Records one latency sample.
    pub fn record(&mut self, sample: TimeDelta) {
        let ps = sample.as_ps();
        self.count += 1;
        self.sum_ps += ps as u128;
        self.sum_sq_ps += (ps as f64) * (ps as f64);
        self.min = Some(self.min.map_or(sample, |m| m.min(sample)));
        self.max = Some(self.max.map_or(sample, |m| m.max(sample)));
        if self.count.is_multiple_of(self.stride) {
            if self.samples.len() >= Self::RESERVOIR_CAP {
                // Decimate: keep every other sample and double the stride.
                self.samples.keep_every(2);
                self.stride *= 2;
            }
            self.samples.push(ps);
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Smallest recorded sample.
    pub fn min(&self) -> Option<TimeDelta> {
        self.min
    }

    /// Largest recorded sample.
    pub fn max(&self) -> Option<TimeDelta> {
        self.max
    }

    /// Arithmetic mean (zero if empty).
    pub fn mean(&self) -> TimeDelta {
        if self.count == 0 {
            TimeDelta::ZERO
        } else {
            TimeDelta::from_ps((self.sum_ps / self.count as u128) as u64)
        }
    }

    /// Population standard deviation in picoseconds (zero if fewer than two
    /// samples).
    pub fn std_dev_ps(&self) -> f64 {
        if self.count < 2 {
            return 0.0;
        }
        let n = self.count as f64;
        let mean = self.sum_ps as f64 / n;
        let var = (self.sum_sq_ps / n) - mean * mean;
        var.max(0.0).sqrt()
    }

    /// The `q`-quantile (`0.0..=1.0`) from the sample reservoir.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<TimeDelta> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.samples.is_empty() {
            return None;
        }
        let idx = ((self.samples.len() - 1) as f64 * q).round() as usize;
        // The float picks an *index*; the sample itself is integer ps.
        // hmc-lint: allow(float-time)
        Some(TimeDelta::from_ps(self.samples.sorted_at(idx)))
    }

    /// True while the reservoir still holds every recorded sample (no
    /// decimation yet), so exact-count percentiles are available.
    pub fn is_exact(&self) -> bool {
        self.stride == 1
    }

    /// The 99.9th percentile.
    ///
    /// While the reservoir is exact ([`is_exact`](Histogram::is_exact))
    /// this uses the exact nearest-rank definition — the
    /// `ceil(0.999 × n)`-th smallest sample, computed in integer
    /// arithmetic — which stays well-defined on sparse per-tenant
    /// histograms: a single sample is its own p999, and n ≤ 1000 yields
    /// the maximum. After decimation it falls back to the reservoir
    /// quantile estimate.
    pub fn p999(&self) -> Option<TimeDelta> {
        if self.samples.is_empty() {
            return None;
        }
        if !self.is_exact() {
            return self.quantile(0.999);
        }
        let n = self.samples.len();
        let rank = (999 * n).div_ceil(1000) - 1;
        Some(TimeDelta::from_ps(self.samples.sorted_at(rank)))
    }

    /// Sum of all samples.
    pub fn total(&self) -> TimeDelta {
        TimeDelta::from_ps(self.sum_ps.min(u64::MAX as u128) as u64)
    }

    /// Merges another histogram into this one. The moments add exactly.
    /// The reservoirs merge at the coarser of the two strides: the finer
    /// side keeps only every ratio-th of its kept samples, so each side
    /// is weighed by what it recorded. The merge is exact only if both
    /// sides were.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum_ps += other.sum_ps;
        self.sum_sq_ps += other.sum_sq_ps;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        let stride = self.stride.max(other.stride);
        let ratio = |s: u64| usize::try_from(stride / s).expect("stride ratio fits usize");
        self.samples.keep_every(ratio(self.stride));
        self.samples
            .extend_every(&other.samples, ratio(other.stride));
        self.stride = stride;
        if self.samples.len() > 2 * Self::RESERVOIR_CAP {
            self.samples.keep_every(2);
            self.stride *= 2;
        }
    }
}

/// A histogram's raw picosecond samples, 4 bytes each while every sample
/// fits in a `u32` (under 2³² ps ≈ 4.29 ms). The first sample that does
/// not widens the whole reservoir to `u64`, exactly; order and values are
/// kept, so every quantile reads the same either way.
#[derive(Debug, Clone)]
enum Reservoir {
    Narrow(Vec<u32>),
    Wide(Vec<u64>),
}

impl Reservoir {
    fn len(&self) -> usize {
        match self {
            Reservoir::Narrow(v) => v.len(),
            Reservoir::Wide(v) => v.len(),
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn push(&mut self, ps: u64) {
        match self {
            Reservoir::Narrow(v) => match u32::try_from(ps) {
                Ok(narrow) => v.push(narrow),
                Err(_) => {
                    self.widen();
                    self.push(ps);
                }
            },
            Reservoir::Wide(v) => v.push(ps),
        }
    }

    fn widen(&mut self) {
        if let Reservoir::Narrow(v) = self {
            *self = Reservoir::Wide(v.iter().map(|&s| u64::from(s)).collect());
        }
    }

    /// Appends `other`'s samples at positions that are multiples of
    /// `step`, widening first if `other` is wide.
    fn extend_every(&mut self, other: &Reservoir, step: usize) {
        if let Reservoir::Wide(_) = other {
            self.widen();
        }
        match (self, other) {
            (Reservoir::Narrow(a), Reservoir::Narrow(b)) => a.extend(b.iter().step_by(step)),
            (Reservoir::Wide(a), Reservoir::Narrow(b)) => {
                a.extend(b.iter().step_by(step).map(|&s| u64::from(s)));
            }
            (Reservoir::Wide(a), Reservoir::Wide(b)) => a.extend(b.iter().step_by(step)),
            (Reservoir::Narrow(_), Reservoir::Wide(_)) => unreachable!("widened above"),
        }
    }

    /// Keeps the samples at positions that are multiples of `step`, in
    /// place.
    fn keep_every(&mut self, step: usize) {
        fn keep<T>(v: &mut Vec<T>, step: usize) {
            let mut i = 0;
            v.retain(|_| {
                i += 1;
                (i - 1) % step == 0
            });
        }
        if step > 1 {
            match self {
                Reservoir::Narrow(v) => keep(v, step),
                Reservoir::Wide(v) => keep(v, step),
            }
        }
    }

    /// The `idx`-th smallest sample.
    fn sorted_at(&self, idx: usize) -> u64 {
        fn nth<T: Copy + Ord + Into<u64>>(v: &[T], idx: usize) -> u64 {
            let mut sorted = v.to_vec();
            sorted.sort_unstable();
            sorted[idx].into()
        }
        match self {
            Reservoir::Narrow(v) => nth(v, idx),
            Reservoir::Wide(v) => nth(v, idx),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "histogram(empty)");
        }
        write!(
            f,
            "n={} min={} mean={} max={}",
            self.count,
            self.min.unwrap_or(TimeDelta::ZERO),
            self.mean(),
            self.max.unwrap_or(TimeDelta::ZERO),
        )
    }
}

/// A time-weighted running average of a piecewise-constant signal (e.g.
/// instantaneous power).
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    integral: f64,
    last_value: f64,
    last_time: Time,
    start: Time,
}

impl TimeWeighted {
    /// Starts tracking a signal whose value is `initial` at `start`.
    pub fn new(start: Time, initial: f64) -> Self {
        TimeWeighted {
            integral: 0.0,
            last_value: initial,
            last_time: start,
            start,
        }
    }

    /// Records that the signal changed to `value` at instant `now`.
    pub fn set(&mut self, now: Time, value: f64) {
        self.integral += self.last_value * now.since(self.last_time).as_ps() as f64;
        self.last_value = value;
        self.last_time = now;
    }

    /// The signal's current value.
    pub fn current(&self) -> f64 {
        self.last_value
    }

    /// The time-weighted mean over `[start, now]`.
    pub fn mean(&self, now: Time) -> f64 {
        let span = now.since(self.start).as_ps() as f64;
        if span == 0.0 {
            return self.last_value;
        }
        let integral = self.integral + self.last_value * now.since(self.last_time).as_ps() as f64;
        integral / span
    }
}

/// Accumulates bytes moved and reports bandwidth over the observation
/// window — the paper's accounting multiplies access counts by full packet
/// footprints (header + tail + payload) and divides by elapsed time.
#[derive(Debug, Clone, Copy, Default)]
pub struct BandwidthMeter {
    bytes: u64,
}

impl BandwidthMeter {
    /// Creates a zeroed meter.
    pub const fn new() -> Self {
        BandwidthMeter { bytes: 0 }
    }

    /// Records `bytes` moved.
    pub fn record(&mut self, bytes: u64) {
        self.bytes += bytes;
    }

    /// Total bytes recorded.
    pub const fn bytes(self) -> u64 {
        self.bytes
    }

    /// Bandwidth in bytes per second over `elapsed`.
    pub fn bytes_per_sec(self, elapsed: TimeDelta) -> f64 {
        if elapsed.is_zero() {
            0.0
        } else {
            self.bytes as f64 / elapsed.as_secs_f64()
        }
    }

    /// Bandwidth in gigabytes per second (decimal GB) over `elapsed`.
    pub fn gb_per_sec(self, elapsed: TimeDelta) -> f64 {
        self.bytes_per_sec(elapsed) / 1e9
    }

    /// Resets the meter.
    pub fn reset(&mut self) {
        self.bytes = 0;
    }
}

impl fmt::Display for BandwidthMeter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} bytes", self.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c.rate_per_sec(TimeDelta::from_secs(5)), 1.0);
        c.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(c.rate_per_sec(TimeDelta::ZERO), 0.0);
    }

    #[test]
    fn histogram_moments() {
        let mut h = Histogram::new();
        for ns in [100u64, 200, 300, 400] {
            h.record(TimeDelta::from_ns(ns));
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.mean().as_ns_f64(), 250.0);
        assert_eq!(h.min().unwrap().as_ns_f64(), 100.0);
        assert_eq!(h.max().unwrap().as_ns_f64(), 400.0);
        assert_eq!(h.total().as_ns_f64(), 1000.0);
        // Population std-dev of {100,200,300,400} ns is ~111.8 ns.
        assert!((h.std_dev_ps() / 1000.0 - 111.8).abs() < 0.1);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new();
        for i in 1..=100u64 {
            h.record(TimeDelta::from_ns(i));
        }
        assert_eq!(h.quantile(0.0).unwrap().as_ns_f64(), 1.0);
        assert_eq!(h.quantile(1.0).unwrap().as_ns_f64(), 100.0);
        let median = h.quantile(0.5).unwrap().as_ns_f64();
        assert!((49.0..=52.0).contains(&median));
    }

    #[test]
    fn p999_empty_is_none() {
        let h = Histogram::new();
        assert_eq!(h.p999(), None);
        assert!(h.is_exact());
    }

    #[test]
    fn p999_single_sample_is_that_sample() {
        let mut h = Histogram::new();
        h.record(TimeDelta::from_ns(42));
        assert_eq!(h.p999().unwrap().as_ns_f64(), 42.0);
    }

    #[test]
    fn p999_all_equal_collapses() {
        let mut h = Histogram::new();
        for _ in 0..500 {
            h.record(TimeDelta::from_ns(7));
        }
        assert_eq!(h.p999().unwrap().as_ns_f64(), 7.0);
    }

    #[test]
    fn p999_exact_nearest_rank() {
        // 1..=1000 ns: nearest-rank p999 is exactly the 999th smallest.
        let mut h = Histogram::new();
        for i in 1..=1000u64 {
            h.record(TimeDelta::from_ns(i));
        }
        assert!(h.is_exact());
        assert_eq!(h.p999().unwrap().as_ns_f64(), 999.0);
        // Under 1000 samples the nearest rank is the maximum.
        let mut small = Histogram::new();
        for i in 1..=100u64 {
            small.record(TimeDelta::from_ns(i));
        }
        assert_eq!(small.p999().unwrap().as_ns_f64(), 100.0);
    }

    #[test]
    fn p999_decimated_falls_back_to_estimate() {
        let mut h = Histogram::new();
        for i in 0..200_000u64 {
            h.record(TimeDelta::from_ps(i));
        }
        assert!(!h.is_exact());
        let p = h.p999().unwrap().as_ps();
        assert!((195_000..200_000).contains(&p), "p999 {p}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn quantile_range_checked() {
        let h = Histogram::new();
        let _ = h.quantile(1.5);
    }

    #[test]
    fn histogram_reservoir_decimates() {
        let mut h = Histogram::new();
        for i in 0..200_000u64 {
            h.record(TimeDelta::from_ps(i));
        }
        assert_eq!(h.count(), 200_000);
        assert!(h.samples.len() <= 70_000);
        // Quantiles remain sane after decimation.
        let q = h.quantile(0.5).unwrap().as_ps();
        assert!((90_000..110_000).contains(&q), "median {q}");
    }

    #[test]
    fn single_sample_quantiles_all_collapse() {
        let mut h = Histogram::new();
        h.record(TimeDelta::from_ns(42));
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            assert_eq!(h.quantile(q).unwrap().as_ns_f64(), 42.0, "q={q}");
        }
        assert_eq!(h.min(), h.max());
        assert_eq!(h.mean().as_ns_f64(), 42.0);
        assert_eq!(h.std_dev_ps(), 0.0);
    }

    #[test]
    fn merge_into_empty_copies_everything() {
        let mut src = Histogram::new();
        for ns in [5u64, 15, 25] {
            src.record(TimeDelta::from_ns(ns));
        }
        let mut dst = Histogram::new();
        dst.merge(&src);
        assert_eq!(dst.count(), 3);
        assert_eq!(dst.mean().as_ns_f64(), 15.0);
        assert_eq!(dst.min().unwrap().as_ns_f64(), 5.0);
        assert_eq!(dst.max().unwrap().as_ns_f64(), 25.0);
        assert_eq!(dst.quantile(0.5).unwrap().as_ns_f64(), 15.0);
        assert_eq!(dst.total(), src.total());
    }

    #[test]
    fn merge_empty_into_populated_is_identity() {
        let mut a = Histogram::new();
        a.record(TimeDelta::from_ns(10));
        let before = (a.count(), a.min(), a.max(), a.total());
        a.merge(&Histogram::new());
        assert_eq!((a.count(), a.min(), a.max(), a.total()), before);
    }

    #[test]
    fn merge_two_empties_stays_empty() {
        let mut a = Histogram::new();
        a.merge(&Histogram::new());
        assert!(a.is_empty());
        assert_eq!(a.min(), None);
        assert_eq!(a.max(), None);
        assert_eq!(a.quantile(0.0), None);
        assert_eq!(a.quantile(1.0), None);
        assert_eq!(a.mean(), TimeDelta::ZERO);
    }

    #[test]
    fn quantile_extremes_bracket_after_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for i in 1..=50u64 {
            a.record(TimeDelta::from_ns(i));
            b.record(TimeDelta::from_ns(100 + i));
        }
        a.merge(&b);
        assert_eq!(a.quantile(0.0).unwrap().as_ns_f64(), 1.0);
        assert_eq!(a.quantile(1.0).unwrap().as_ns_f64(), 150.0);
        assert_eq!(a.count(), 100);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(TimeDelta::from_ns(10));
        b.record(TimeDelta::from_ns(30));
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.mean().as_ns_f64(), 20.0);
        assert_eq!(a.min().unwrap().as_ns_f64(), 10.0);
        assert_eq!(a.max().unwrap().as_ns_f64(), 30.0);
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), TimeDelta::ZERO);
        assert_eq!(h.min(), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.std_dev_ps(), 0.0);
        assert_eq!(format!("{h}"), "histogram(empty)");
    }

    /// The reservoir as a plain `Vec<u64>` under the same cap, decimation
    /// and merge rules: the reference the narrow/wide reservoir must
    /// match exactly.
    #[derive(Default)]
    struct Reference {
        count: u64,
        sum: u128,
        samples: Vec<u64>,
        stride: u64,
    }

    impl Reference {
        fn new() -> Self {
            Reference {
                stride: 1,
                ..Reference::default()
            }
        }

        fn keep_every(&mut self, step: u64) {
            self.samples = self
                .samples
                .iter()
                .step_by(step as usize)
                .copied()
                .collect();
        }

        fn record(&mut self, ps: u64) {
            self.count += 1;
            self.sum += u128::from(ps);
            if self.count.is_multiple_of(self.stride) {
                if self.samples.len() >= Histogram::RESERVOIR_CAP {
                    self.keep_every(2);
                    self.stride *= 2;
                }
                self.samples.push(ps);
            }
        }

        fn merge(&mut self, other: &Reference) {
            self.count += other.count;
            self.sum += other.sum;
            let stride = self.stride.max(other.stride);
            self.keep_every(stride / self.stride);
            let step = (stride / other.stride) as usize;
            self.samples
                .extend(other.samples.iter().step_by(step).copied());
            self.stride = stride;
            if self.samples.len() > 2 * Histogram::RESERVOIR_CAP {
                self.keep_every(2);
                self.stride *= 2;
            }
        }

        fn sorted(&self) -> Vec<u64> {
            let mut v = self.samples.clone();
            v.sort_unstable();
            v
        }

        fn quantile(&self, q: f64) -> Option<TimeDelta> {
            let v = self.sorted();
            let idx = ((v.len().checked_sub(1)?) as f64 * q).round() as usize;
            Some(TimeDelta::from_ps(v[idx]))
        }

        fn p999(&self) -> Option<TimeDelta> {
            if self.stride != 1 {
                return self.quantile(0.999);
            }
            let v = self.sorted();
            let rank = (999 * v.len()).div_ceil(1000).checked_sub(1)?;
            Some(TimeDelta::from_ps(v[rank]))
        }
    }

    fn assert_matches(h: &Histogram, r: &Reference, what: &str) {
        assert_eq!(h.count(), r.count, "{what}: count");
        let mean = TimeDelta::from_ps((r.sum / u128::from(r.count.max(1))) as u64);
        assert_eq!(h.mean(), mean, "{what}: mean");
        assert_eq!(h.is_exact(), r.stride == 1, "{what}: is_exact");
        assert_eq!(h.samples.len(), r.samples.len(), "{what}: reservoir length");
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), r.quantile(q), "{what}: quantile {q}");
        }
        assert_eq!(h.p999(), r.p999(), "{what}: p999");
    }

    /// `n` seeded samples under 1 µs, with one sample of 2³² ps + 5 (too
    /// wide for `u32`) at index `wide_at`; it reaches the reservoir only if
    /// `wide_at + 1` is a multiple of the stride then in force.
    fn feed(seed: u64, n: usize, wide_at: Option<usize>) -> (Histogram, Reference) {
        let mut rng = crate::rng::SplitMix64::new(seed);
        let (mut h, mut r) = (Histogram::new(), Reference::new());
        for i in 0..n {
            let ps = if Some(i) == wide_at {
                (1 << 32) + 5
            } else {
                rng.next_below(1_000_000)
            };
            h.record(TimeDelta::from_ps(ps));
            r.record(ps);
        }
        (h, r)
    }

    fn is_wide(h: &Histogram) -> bool {
        matches!(h.samples, Reservoir::Wide(_))
    }

    #[test]
    fn narrow_reservoir_matches_u64_reference() {
        // Past 65,536 samples the reservoir decimates twice.
        let (h, r) = feed(1, 200_000, None);
        assert!(!is_wide(&h));
        assert_matches(&h, &r, "narrow, decimated");
        // u32::MAX ps still fits.
        let mut edge = Histogram::new();
        edge.record(TimeDelta::from_ps(u64::from(u32::MAX)));
        assert!(!is_wide(&edge));
        assert_eq!(edge.p999(), Some(TimeDelta::from_ps(u64::from(u32::MAX))));
    }

    #[test]
    fn wide_sample_after_decimation_widens_exactly() {
        // Sample 150,004 (index 150,003) is a multiple of the stride (4)
        // by then, so the wide sample lands in the reservoir as its maximum.
        let (h, r) = feed(2, 200_000, Some(150_003));
        assert!(!h.is_exact());
        assert!(is_wide(&h));
        assert_eq!(h.quantile(1.0), Some(TimeDelta::from_ps((1 << 32) + 5)));
        assert_matches(&h, &r, "widened after decimation");
        let (h, r) = feed(3, 1_000, Some(10));
        assert!(h.is_exact() && is_wide(&h));
        assert_matches(&h, &r, "widened while exact");
    }

    #[test]
    fn merges_match_u64_reference_at_every_width() {
        for (left_wide, right_wide) in [(false, false), (false, true), (true, false), (true, true)]
        {
            let what = format!("merge wide={left_wide}+{right_wide}");
            let (mut h, mut r) = feed(4, 100_000, left_wide.then_some(80_001));
            let (h2, r2) = feed(5, 70_000, right_wide.then_some(60_000));
            h.merge(&h2);
            r.merge(&r2);
            assert_eq!(is_wide(&h), left_wide || right_wide, "{what}");
            assert_matches(&h, &r, &what);
            // A second merge passes 2 × 65,536 samples and decimates.
            h.merge(&h2);
            r.merge(&r2);
            assert_matches(&h, &r, &format!("{what}, merged twice"));
            // Recording after the merges decimates on the record path.
            let mut rng = crate::rng::SplitMix64::new(6);
            for _ in 0..5_000 {
                let ps = rng.next_below(1_000_000);
                h.record(TimeDelta::from_ps(ps));
                r.record(ps);
            }
            assert_matches(&h, &r, &format!("{what}, then recorded"));
        }
    }

    #[test]
    fn merge_weighs_each_side_by_its_stride() {
        // 200,000 samples of 0..200,000 ps decimate to stride 4; 1,000
        // samples of 1 µs stay exact. Merged at stride 4, the 1 µs side
        // keeps 250 of its samples and the p99 stays in the bulk.
        let mut bulk = Histogram::new();
        for ps in 0..200_000 {
            bulk.record(TimeDelta::from_ps(ps));
        }
        let mut tail = Histogram::new();
        for _ in 0..1_000 {
            tail.record(TimeDelta::from_us(1));
        }
        for (first, second) in [(&bulk, &tail), (&tail, &bulk)] {
            let mut merged = Histogram::new();
            merged.merge(first);
            merged.merge(second);
            assert!(!merged.is_exact());
            assert_eq!(merged.count(), 201_000);
            assert_eq!(merged.samples.len(), bulk.samples.len() + 250);
            let p99 = merged.quantile(0.99).unwrap().as_ps();
            assert!((198_000..=200_000).contains(&p99), "p99 {p99} ps");
        }
    }

    #[test]
    fn time_weighted_mean() {
        let mut tw = TimeWeighted::new(Time::ZERO, 10.0);
        tw.set(Time::from_ps(100), 20.0);
        // 10 over [0,100), 20 over [100,200): mean 15.
        assert!((tw.mean(Time::from_ps(200)) - 15.0).abs() < 1e-9);
        assert_eq!(tw.current(), 20.0);
        // Zero-length window returns the current value.
        let fresh = TimeWeighted::new(Time::ZERO, 7.0);
        assert_eq!(fresh.mean(Time::ZERO), 7.0);
    }

    #[test]
    fn bandwidth_meter() {
        let mut m = BandwidthMeter::new();
        m.record(160);
        m.record(160);
        assert_eq!(m.bytes(), 320);
        // 320 B over 16 ns = 20 GB/s.
        assert!((m.gb_per_sec(TimeDelta::from_ns(16)) - 20.0).abs() < 1e-9);
        assert_eq!(m.bytes_per_sec(TimeDelta::ZERO), 0.0);
        m.reset();
        assert_eq!(m.bytes(), 0);
    }

    #[test]
    fn display_impls() {
        let mut h = Histogram::new();
        h.record(TimeDelta::from_ns(5));
        assert!(format!("{h}").contains("n=1"));
        let mut c = Counter::new();
        c.incr();
        assert_eq!(format!("{c}"), "1");
        assert!(format!("{}", BandwidthMeter::new()).contains("bytes"));
    }
}
