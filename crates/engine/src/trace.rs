//! Per-request lifecycle tracing: stage-transition spans accumulated into
//! exact per-stage totals (span count and summed picoseconds), plus a
//! sampled event log exportable as Chrome trace-event JSON (loadable in
//! Perfetto / `chrome://tracing`).
//!
//! The tracer is always compiled in and owned by each simulation actor,
//! but **disabled by default**: every recording method begins with an
//! `enabled` check and returns immediately, so the steady-state cost of a
//! disabled tracer is one predictable branch per call site — no
//! allocation, no hashing, no totals update. An enabled tracer's memory
//! grows only with its sampled event log; the totals are fixed-size.
//!
//! The engine stays policy-free: stages are plain indices into a static
//! name table the owning crate supplies (the HMC stage vocabulary lives in
//! `hmc_types::trace`). A request's spans telescope: `begin` opens the
//! trace at an instant, each `transition` records the span since the last
//! boundary under one stage, and `finish` records the final span and
//! closes the trace. `rebase` re-opens a trace at a hand-off instant when
//! another actor (with its own tracer) accounted for the interval in
//! between.

use std::fmt::Write as _;

use hmc_types::{Time, TimeDelta};

use crate::id_table::IdTable;

/// Exact totals of one stage's spans: how many, and their summed length.
///
/// Count, total and mean use exactly
/// [`Histogram`](crate::stats::Histogram)'s arithmetic (`u128` picosecond
/// sum, truncating mean, total saturating at `u64::MAX`) without its
/// sample reservoir; attribution reads nothing else.
///
/// ```
/// use sim_engine::trace::StageTotals;
/// use hmc_types::TimeDelta;
///
/// let mut s = StageTotals::default();
/// for ns in [10, 20, 31] {
///     s.record(TimeDelta::from_ns(ns));
/// }
/// assert_eq!(s.count(), 3);
/// assert_eq!(s.total(), TimeDelta::from_ns(61));
/// assert_eq!(s.mean().as_ps(), 20_333);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTotals {
    count: u64,
    sum_ps: u128,
}

impl StageTotals {
    /// Adds one span.
    #[inline]
    pub fn record(&mut self, span: TimeDelta) {
        self.count += 1;
        self.sum_ps += u128::from(span.as_ps());
    }

    /// Spans recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if no span has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of every span (saturating at `u64::MAX` picoseconds).
    pub fn total(&self) -> TimeDelta {
        TimeDelta::from_ps(u64::try_from(self.sum_ps).unwrap_or(u64::MAX))
    }

    /// Mean span, truncated to whole picoseconds (zero if empty).
    pub fn mean(&self) -> TimeDelta {
        if self.count == 0 {
            TimeDelta::ZERO
        } else {
            TimeDelta::from_ps((self.sum_ps / u128::from(self.count)) as u64)
        }
    }

    /// Adds another accumulator's spans to this one.
    pub fn merge(&mut self, other: &StageTotals) {
        self.count += other.count;
        self.sum_ps += other.sum_ps;
    }
}

/// One sampled stage span of one traced request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// The trace (request) identifier.
    pub trace_id: u64,
    /// Index into the tracer's stage-name table.
    pub stage: usize,
    /// Instant the stage began.
    pub start: Time,
    /// Instant the stage ended.
    pub end: Time,
}

impl TraceEvent {
    /// The span's duration.
    pub fn duration(&self) -> TimeDelta {
        self.end.since(self.start)
    }
}

/// A lifecycle tracer owned by one simulation actor.
#[derive(Debug, Clone)]
pub struct Tracer {
    enabled: bool,
    /// Requests whose trace id is a multiple of this are kept in the
    /// event log (the stage totals always see every request).
    sample_every: u64,
    names: &'static [&'static str],
    /// Open traces: id → instant of the last recorded boundary.
    open: IdTable<Time>,
    stages: Vec<StageTotals>,
    events: Vec<TraceEvent>,
}

impl Tracer {
    /// Creates a disabled tracer over the given stage vocabulary.
    pub fn new(names: &'static [&'static str]) -> Self {
        Tracer {
            enabled: false,
            sample_every: 1,
            names,
            open: IdTable::new(),
            stages: vec![StageTotals::default(); names.len()],
            events: Vec::new(),
        }
    }

    /// Enables recording. Every request feeds the per-stage totals;
    /// one in `sample_every` (by trace id) is additionally kept in the
    /// event log for export (0 is treated as 1).
    pub fn enable(&mut self, sample_every: u64) {
        self.enabled = true;
        self.sample_every = sample_every.max(1);
    }

    /// True if the tracer records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The stage-name table this tracer indexes into.
    pub fn stage_names(&self) -> &'static [&'static str] {
        self.names
    }

    /// Opens a trace: the request's first boundary is `at`.
    #[inline]
    pub fn begin(&mut self, id: u64, at: Time) {
        if !self.enabled {
            return;
        }
        self.open.insert(id, at);
    }

    /// Re-opens a trace at a hand-off instant (a different actor's tracer
    /// accounted for the time since this tracer's last boundary).
    #[inline]
    pub fn rebase(&mut self, id: u64, at: Time) {
        if !self.enabled {
            return;
        }
        self.open.insert(id, at);
    }

    /// Records the span since the trace's last boundary under `stage` and
    /// moves the boundary to `at`. Unknown ids are ignored (the request
    /// predates tracing being enabled).
    #[inline]
    pub fn transition(&mut self, id: u64, stage: usize, at: Time) {
        if !self.enabled {
            return;
        }
        self.record(id, stage, at, false);
    }

    /// Like [`transition`](Tracer::transition), then closes the trace.
    #[inline]
    pub fn finish(&mut self, id: u64, stage: usize, at: Time) {
        if !self.enabled {
            return;
        }
        self.record(id, stage, at, true);
    }

    fn record(&mut self, id: u64, stage: usize, at: Time, close: bool) {
        let start = if close {
            self.open.remove(id)
        } else {
            self.open
                .get_mut(id)
                .map(|boundary| std::mem::replace(boundary, at))
        };
        let Some(start) = start else {
            return;
        };
        self.stages[stage].record(at.since(start));
        if id.is_multiple_of(self.sample_every) {
            self.events.push(TraceEvent {
                trace_id: id,
                stage,
                start,
                end: at,
            });
        }
    }

    /// Per-stage span totals, indexed by stage.
    pub fn stage_totals(&self) -> &[StageTotals] {
        &self.stages
    }

    /// The sampled event log, in recording order (not time order — a
    /// boundary may be recorded ahead of time when it is already known).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Traces begun but not yet finished (in-flight requests).
    pub fn open_traces(&self) -> usize {
        self.open.len()
    }
}

/// Renders events as Chrome trace-event JSON (the `traceEvents` array
/// format Perfetto and `chrome://tracing` load directly). Events are
/// sorted for deterministic output; each traced request becomes one
/// `pid:0` / `tid:trace_id` track carrying its stage spans as complete
/// (`"ph":"X"`) events.
pub fn chrome_trace_json(events: &[TraceEvent], names: &[&str]) -> String {
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut sorted: Vec<&TraceEvent> = events.iter().collect();
    sorted.sort_by_key(|e| (e.start, e.trace_id, e.stage));
    for (i, e) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Chrome trace timestamps are microseconds (fractions allowed).
        write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"request\",\"ph\":\"X\",\
             \"ts\":{:.6},\"dur\":{:.6},\"pid\":0,\"tid\":{},\
             \"args\":{{\"stage\":{}}}}}",
            names.get(e.stage).copied().unwrap_or("?"),
            e.start.as_ps() as f64 / 1e6,
            e.duration().as_ps() as f64 / 1e6,
            e.trace_id,
            e.stage,
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAMES: [&str; 3] = ["alpha", "beta", "gamma"];

    fn tracer() -> Tracer {
        let mut t = Tracer::new(&NAMES);
        t.enable(1);
        t
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(&NAMES);
        assert!(!t.is_enabled());
        t.begin(1, Time::ZERO);
        t.transition(1, 0, Time::from_ps(10));
        t.finish(1, 1, Time::from_ps(20));
        assert!(t.events().is_empty());
        assert!(t.stage_totals().iter().all(|s| s.is_empty()));
        assert_eq!(t.open_traces(), 0);
    }

    #[test]
    fn spans_telescope_to_the_full_interval() {
        let mut t = tracer();
        t.begin(7, Time::from_ps(100));
        t.transition(7, 0, Time::from_ps(150));
        t.transition(7, 1, Time::from_ps(400));
        t.finish(7, 2, Time::from_ps(1_000));
        let s = t.stage_totals();
        assert_eq!(s[0].total().as_ps(), 50);
        assert_eq!(s[1].total().as_ps(), 250);
        assert_eq!(s[2].total().as_ps(), 600);
        let sum: u64 = s.iter().map(|s| s.total().as_ps()).sum();
        assert_eq!(sum, 900, "stages cover begin..finish exactly");
        assert_eq!(t.open_traces(), 0);
        assert_eq!(t.events().len(), 3);
    }

    #[test]
    fn rebase_skips_the_handed_off_interval() {
        let mut t = tracer();
        t.begin(2, Time::ZERO);
        t.transition(2, 0, Time::from_ps(10));
        // 10..90 accounted elsewhere.
        t.rebase(2, Time::from_ps(90));
        t.finish(2, 1, Time::from_ps(100));
        assert_eq!(t.stage_totals()[0].total().as_ps(), 10);
        assert_eq!(t.stage_totals()[1].total().as_ps(), 10);
    }

    #[test]
    fn unknown_ids_are_ignored() {
        let mut t = tracer();
        t.transition(99, 0, Time::from_ps(10));
        t.finish(99, 1, Time::from_ps(20));
        assert!(t.events().is_empty());
        assert!(t.stage_totals().iter().all(|s| s.is_empty()));
    }

    #[test]
    fn sampling_keeps_stage_totals_complete() {
        let mut t = Tracer::new(&NAMES);
        t.enable(4);
        for id in 0..8u64 {
            t.begin(id, Time::ZERO);
            t.finish(id, 0, Time::from_ps(5));
        }
        // The totals see all 8; the event log keeps ids 0 and 4 only.
        assert_eq!(t.stage_totals()[0].count(), 8);
        let ids: Vec<u64> = t.events().iter().map(|e| e.trace_id).collect();
        assert_eq!(ids, vec![0, 4]);
    }

    #[test]
    fn chrome_json_shape() {
        let mut t = tracer();
        t.begin(1, Time::from_ps(2_000_000));
        t.finish(1, 2, Time::from_ps(3_000_000));
        let json = chrome_trace_json(t.events(), t.stage_names());
        assert!(json.starts_with('{'));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"name\":\"gamma\""));
        assert!(json.contains("\"ts\":2.000000"));
        assert!(json.contains("\"dur\":1.000000"));
        assert!(json.contains("\"tid\":1"));
    }

    #[test]
    fn chrome_json_is_sorted_and_deterministic() {
        let events = [
            TraceEvent {
                trace_id: 5,
                stage: 0,
                start: Time::from_ps(300),
                end: Time::from_ps(400),
            },
            TraceEvent {
                trace_id: 1,
                stage: 1,
                start: Time::from_ps(100),
                end: Time::from_ps(200),
            },
        ];
        let json = chrome_trace_json(&events, &NAMES);
        let beta = json.find("\"beta\"").expect("beta present");
        let alpha = json.find("\"alpha\"").expect("alpha present");
        assert!(beta < alpha, "earlier span serialized first");
        assert_eq!(json, chrome_trace_json(&events, &NAMES));
    }
}
