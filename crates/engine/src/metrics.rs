//! A named-metrics registry with a periodic sampler.
//!
//! Components expose gauge callbacks (queue depths, credit levels, bank
//! occupancy); the simulation loop asks the sampler for due instants and
//! lets every component [`record`](MetricsSampler::record) its gauges at
//! exactly those instants, producing aligned [`TimeSeries`] per metric.
//! Sampling at event-driven due times (rather than wall-clock polling)
//! keeps runs deterministic: the same simulation produces the same series
//! at any host speed or thread count.

use std::collections::BTreeMap;

use hmc_types::{Time, TimeDelta};

use crate::series::TimeSeries;

/// A periodic sampler holding one [`TimeSeries`] per registered metric
/// name. Names are registered lazily on first record.
#[derive(Debug, Clone)]
pub struct MetricsSampler {
    period: TimeDelta,
    next_due: Time,
    series: Vec<TimeSeries>,
    index: BTreeMap<String, usize>,
}

impl MetricsSampler {
    /// Creates a sampler firing every `period`, first at `period` after
    /// time zero.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(period: TimeDelta) -> Self {
        assert!(!period.is_zero(), "sampler period must be positive");
        MetricsSampler {
            period,
            next_due: Time::ZERO + period,
            series: Vec::new(),
            index: BTreeMap::new(),
        }
    }

    /// The sampling cadence.
    pub fn period(&self) -> TimeDelta {
        self.period
    }

    /// The next instant a sample is due, if it is at or before `t`. The
    /// driving loop never wakes for a sample alone: after processing the
    /// events of instant `t` (and once more at each step's bound), it
    /// records every component's gauges stamped with the returned
    /// instant, then calls [`advance`](MetricsSampler::advance) —
    /// repeating until `None`.
    pub fn due_before(&self, t: Time) -> Option<Time> {
        (self.next_due <= t).then_some(self.next_due)
    }

    /// Moves to the next sampling instant.
    pub fn advance(&mut self) {
        self.next_due += self.period;
    }

    /// Appends one gauge sample, creating the series on first use.
    pub fn record(&mut self, name: &str, at: Time, value: f64) {
        let idx = match self.index.get(name) {
            Some(&i) => i,
            None => {
                let i = self.series.len();
                self.series.push(TimeSeries::new(name));
                self.index.insert(name.to_string(), i);
                i
            }
        };
        self.series[idx].push(at, value);
    }

    /// All recorded series, in registration order.
    pub fn series(&self) -> &[TimeSeries] {
        &self.series
    }

    /// Looks a series up by name.
    pub fn get(&self, name: &str) -> Option<&TimeSeries> {
        self.index.get(name).map(|&i| &self.series[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cadence_fires_once_per_period() {
        let mut s = MetricsSampler::new(TimeDelta::from_ns(100));
        assert_eq!(s.period(), TimeDelta::from_ns(100));
        assert_eq!(s.due_before(Time::from_ps(50_000)), None);
        let mut fired = Vec::new();
        while let Some(due) = s.due_before(Time::from_ps(350_000)) {
            fired.push(due.as_ps());
            s.record("q", due, fired.len() as f64);
            s.advance();
        }
        assert_eq!(fired, vec![100_000, 200_000, 300_000]);
        assert_eq!(s.get("q").unwrap().len(), 3);
    }

    #[test]
    fn lazy_registration_keeps_order() {
        let mut s = MetricsSampler::new(TimeDelta::from_ns(1));
        s.record("b", Time::ZERO, 1.0);
        s.record("a", Time::ZERO, 2.0);
        s.record("b", Time::from_ps(10), 3.0);
        let names: Vec<&str> = s.series().iter().map(|t| t.name()).collect();
        assert_eq!(names, vec!["b", "a"]);
        assert_eq!(s.get("b").unwrap().len(), 2);
        assert!(s.get("missing").is_none());
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_period_rejected() {
        let _ = MetricsSampler::new(TimeDelta::ZERO);
    }
}
