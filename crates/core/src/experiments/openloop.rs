//! Open-loop multi-tenant traffic: throughput–latency curves, per-tenant
//! SLO conformance, and graceful-overload characterization.
//!
//! The paper's GUPS generators are *closed-loop*: a fixed window of
//! outstanding tags throttles the offered rate to whatever the memory
//! sustains, so saturation shows up as flat bandwidth, never as queueing
//! collapse. Production front-ends are open-loop — arrivals keep coming
//! no matter how loaded the memory is — and the interesting questions
//! change: where does goodput plateau, how fast does p99 grow past
//! saturation, and what does the admission layer shed to keep the rest
//! of the traffic inside its SLOs?
//!
//! [`run_openloop`] sweeps the offered load across a fraction grid of a
//! closed-loop [`saturation_probe`], with the protocol sanitizer (and
//! its forward-progress watchdog) armed and the shed-accounting
//! invariant checked at every drain: `offered = shed + completed`.
//! [`run_openloop_scenario`] composes the same frontend with a PR-4
//! fault scenario and the host robustness layer — overload plus faults
//! must degrade by shedding predictably, never by wedging.

use hmc_host::{OpenLoopConfig, RobustStats, ShedPolicy, TenantOpenStats, Workload};
use hmc_types::{RequestKind, RequestSize, Time, TimeDelta};
use sim_engine::{ArrivalKind, FaultScenario, Histogram, SanitizerReport};

use crate::builder::SystemBuilder;
use crate::measure::{run_measurement, MeasureConfig};
use crate::report::{f1, f2, ns, Table};
use crate::system::SystemConfig;
use crate::topology::{ChainSystem, Topology};

/// The load grid [`run_openloop`] sweeps, as fractions of the probed
/// closed-loop saturation rate — past 1.0 the frontend offers more than
/// the memory can retire and the admission layer must shed.
pub const LOAD_FRACTIONS: [f64; 6] = [0.25, 0.5, 0.75, 1.0, 1.25, 1.5];

/// The canonical bursty arrival process of the overload experiments: a
/// two-state MMPP dwelling 12.5 % of a 20 µs cycle in a 4× ON burst.
pub fn bursty() -> ArrivalKind {
    ArrivalKind::Mmpp {
        burst: 4.0,
        on_fraction: 0.125,
        cycle: TimeDelta::from_us(20),
    }
}

/// Short lowercase label for an arrival kind (tables, JSON, CLI).
pub fn kind_label(kind: ArrivalKind) -> &'static str {
    match kind {
        ArrivalKind::Poisson => "poisson",
        ArrivalKind::Mmpp { .. } => "mmpp",
    }
}

/// Sweep shape: shed policy, arrival process, topology, and load grid.
#[derive(Debug, Clone)]
pub struct OpenLoopRun {
    /// Queue-full shed policy.
    pub policy: ShedPolicy,
    /// Interarrival process.
    pub kind: ArrivalKind,
    /// Chain length (1 = the single-cube identity topology).
    pub cubes: u8,
    /// Offered-load grid as fractions of the probed saturation rate.
    pub fractions: Vec<f64>,
}

impl OpenLoopRun {
    /// Poisson arrivals on a single cube over the standard load grid.
    pub fn standard(policy: ShedPolicy) -> Self {
        OpenLoopRun {
            policy,
            kind: ArrivalKind::Poisson,
            cubes: 1,
            fractions: LOAD_FRACTIONS.to_vec(),
        }
    }

    /// [`standard`](OpenLoopRun::standard) with [`bursty`] MMPP arrivals.
    pub fn mmpp(policy: ShedPolicy) -> Self {
        OpenLoopRun {
            kind: bursty(),
            ..OpenLoopRun::standard(policy)
        }
    }
}

/// Per-tenant figures at one load point.
#[derive(Debug, Clone)]
pub struct TenantPoint {
    /// Tenant name from the mix.
    pub name: String,
    /// Arrivals generated in the window.
    pub offered: u64,
    /// Total sheds (rate + queue + deadline).
    pub shed: u64,
    /// Completions in the window.
    pub completed: u64,
    /// p99 arrival-to-completion latency, ns.
    pub p99_ns: f64,
    /// The tenant's SLO target, ns.
    pub slo_ns: f64,
    /// Fraction of completions inside the SLO.
    pub slo_frac: f64,
}

/// One point of the offered-load sweep.
#[derive(Debug, Clone)]
pub struct LoadPoint {
    /// Configured aggregate offered rate, requests/second (all shards).
    pub offered_rps: f64,
    /// Arrivals actually generated in the window.
    pub offered: u64,
    /// Entries admitted into the queue.
    pub admitted: u64,
    /// Arrivals shed (rate + queue + deadline, all tenants).
    pub shed: u64,
    /// Completions in the window.
    pub completed: u64,
    /// Goodput: completions per second over the window.
    pub goodput_rps: f64,
    /// p50 arrival-to-completion latency, ns.
    pub p50_ns: f64,
    /// p99 arrival-to-completion latency, ns.
    pub p99_ns: f64,
    /// p999 arrival-to-completion latency, ns (exact-count fast path
    /// when the reservoir never decimated).
    pub p999_ns: f64,
    /// Fraction of arrivals generated while backpressure was asserted.
    pub backpressured_frac: f64,
    /// Per-tenant breakdown, mix order.
    pub tenants: Vec<TenantPoint>,
}

/// The outcome of one open-loop sweep.
#[derive(Debug, Clone)]
pub struct OpenLoopOutcome {
    /// Shed policy the sweep ran under.
    pub policy: ShedPolicy,
    /// Arrival-process label (`"poisson"` / `"mmpp"`).
    pub kind: &'static str,
    /// Chain length.
    pub cubes: u8,
    /// The probed closed-loop saturation rate, requests/second.
    pub saturation_rps: f64,
    /// One entry per load fraction, grid order.
    pub points: Vec<LoadPoint>,
    /// True if every point's run went idle within the drain budget.
    pub drained: bool,
    /// Merged sanitizer report across all points (armed for every run).
    pub report: SanitizerReport,
}

impl OpenLoopOutcome {
    /// True if the sanitizer saw no violations and every run drained.
    pub fn is_clean(&self) -> bool {
        self.report.is_clean() && self.drained
    }

    /// Bit-exact fingerprint: every float as raw bits plus every
    /// counter. Identical runs must agree.
    pub fn fingerprint(&self) -> Vec<u64> {
        let mut v = vec![
            self.saturation_rps.to_bits(),
            u64::from(self.cubes),
            u64::from(self.drained),
        ];
        for p in &self.points {
            v.extend([
                p.offered_rps.to_bits(),
                p.offered,
                p.admitted,
                p.shed,
                p.completed,
                p.goodput_rps.to_bits(),
                p.p50_ns.to_bits(),
                p.p99_ns.to_bits(),
                p.p999_ns.to_bits(),
                p.backpressured_frac.to_bits(),
            ]);
            for t in &p.tenants {
                v.extend([
                    t.offered,
                    t.shed,
                    t.completed,
                    t.p99_ns.to_bits(),
                    t.slo_frac.to_bits(),
                ]);
            }
        }
        v
    }
}

/// Probes the closed-loop saturation rate: full-scale 128 B reads, all
/// tags outstanding — the ceiling the open-loop grid is scaled against.
pub fn saturation_probe(cfg: &SystemConfig, mc: &MeasureConfig) -> f64 {
    let m = run_measurement(
        cfg,
        &Workload::full_scale(RequestKind::ReadOnly, RequestSize::MAX),
        mc,
    );
    let done = m.device_delta.reads_completed + m.device_delta.writes_completed;
    done as f64 / mc.window.as_secs_f64()
}

/// Sums the robustness counters across every shard of a chain.
fn chain_robust(sys: &ChainSystem) -> RobustStats {
    let mut acc = RobustStats::default();
    for c in 0..sys.cubes() {
        let r = sys.host(c).robust_stats();
        acc.timeouts += r.timeouts;
        acc.retries += r.retries;
        acc.poisoned_responses += r.poisoned_responses;
        acc.abandoned += r.abandoned;
        acc.links_degraded += r.links_degraded;
        acc.replayed += r.replayed;
    }
    acc
}

fn quantile_ns(h: &Histogram, q: f64) -> f64 {
    h.quantile(q).map_or(0.0, |d| d.as_ns_f64())
}

fn p999_ns(h: &Histogram) -> f64 {
    h.p999().map_or(0.0, |d| d.as_ns_f64())
}

/// Runs one load point and returns its figures plus the run's sanitizer
/// report, drain verdict, and (when robustness is on) robust counters.
fn run_point(
    cfg: &SystemConfig,
    run: &OpenLoopRun,
    offered_rps: f64,
    scenario: Option<&FaultScenario>,
    mc: &MeasureConfig,
) -> (LoadPoint, bool, SanitizerReport, RobustStats) {
    let open =
        OpenLoopConfig::standard_mix(offered_rps / f64::from(run.cubes), run.kind, run.policy);
    let mut b = SystemBuilder::new(cfg.clone())
        .open_loop(open.clone())
        .sanitizer()
        .topology(Topology::chain(run.cubes));
    if let Some(s) = scenario {
        b = b.robust().faults(s);
    }
    let mut sys = b.build_chain();
    sys.start(Time::ZERO);
    sys.run_for(mc.warmup);
    sys.reset_stats();
    let robust_before = chain_robust(&sys);
    sys.run_for(mc.window);
    let stats = sys.open_stats();
    let robust_after = chain_robust(&sys);
    sys.stop_generation();
    let drained = sys.run_until_idle(TimeDelta::from_ms(50));
    if drained {
        sys.sanitize_check_drained();
    }
    let report = sys.sanitizer_report();
    let point = make_window_point(offered_rps, &open, &stats, mc.window);
    (point, drained, report, robust_after - robust_before)
}

/// Aggregates captured per-tenant window stats into a [`LoadPoint`] —
/// the reduction step shared by [`run_openloop`] and external callers
/// (the shard-count determinism regression serializes one directly).
pub fn make_window_point(
    offered_rps: f64,
    open: &OpenLoopConfig,
    stats: &[TenantOpenStats],
    window: TimeDelta,
) -> LoadPoint {
    let mut latency = Histogram::default();
    let mut offered = 0;
    let mut admitted = 0;
    let mut shed = 0;
    let mut completed = 0;
    let mut backpressured = 0;
    let mut tenants = Vec::with_capacity(stats.len());
    for (spec, st) in open.tenants.iter().zip(stats) {
        latency.merge(&st.latency);
        offered += st.offered;
        admitted += st.admitted;
        shed += st.shed_total();
        completed += st.completed;
        backpressured += st.arrived_backpressured;
        tenants.push(TenantPoint {
            name: spec.name.clone(),
            offered: st.offered,
            shed: st.shed_total(),
            completed: st.completed,
            p99_ns: quantile_ns(&st.latency, 0.99),
            slo_ns: spec.slo_p99.as_ns_f64(),
            slo_frac: if st.completed == 0 {
                0.0
            } else {
                st.completed_within_slo as f64 / st.completed as f64
            },
        });
    }
    LoadPoint {
        offered_rps,
        offered,
        admitted,
        shed,
        completed,
        goodput_rps: completed as f64 / window.as_secs_f64(),
        p50_ns: quantile_ns(&latency, 0.50),
        p99_ns: quantile_ns(&latency, 0.99),
        p999_ns: p999_ns(&latency),
        backpressured_frac: if offered == 0 {
            0.0
        } else {
            backpressured as f64 / offered as f64
        },
        tenants,
    }
}

/// Sweeps the offered load over `run.fractions` × the probed saturation
/// rate, sanitizer and watchdog armed at every point.
pub fn run_openloop(cfg: &SystemConfig, run: &OpenLoopRun, mc: &MeasureConfig) -> OpenLoopOutcome {
    let saturation_rps = saturation_probe(cfg, mc) * f64::from(run.cubes);
    let mut points = Vec::with_capacity(run.fractions.len());
    let mut drained = true;
    let mut report: Option<SanitizerReport> = None;
    for &frac in &run.fractions {
        let (p, d, r, _) = run_point(cfg, run, saturation_rps * frac, None, mc);
        points.push(p);
        drained &= d;
        match report.as_mut() {
            Some(acc) => acc.merge(&r),
            None => report = Some(r),
        }
    }
    OpenLoopOutcome {
        policy: run.policy,
        kind: kind_label(run.kind),
        cubes: run.cubes,
        saturation_rps,
        points,
        drained,
        report: report.expect("at least one load fraction"),
    }
}

/// The outcome of composing the open-loop frontend with a fault
/// scenario: overload plus faults, robustness layer on, watchdog armed.
#[derive(Debug, Clone)]
pub struct DegradedOutcome {
    /// Scenario name.
    pub scenario: String,
    /// The single overload point measured under the scenario.
    pub point: LoadPoint,
    /// Host robustness counters over the window (summed across shards).
    pub robust: RobustStats,
    /// True if the run went idle within the drain budget — a wedge under
    /// overload + faults shows up here (and trips the watchdog first).
    pub drained: bool,
    /// The run's sanitizer report.
    pub report: SanitizerReport,
}

impl DegradedOutcome {
    /// True if the sanitizer saw no violations and the run drained.
    pub fn is_clean(&self) -> bool {
        self.report.is_clean() && self.drained
    }
}

/// Runs one overload point (`frac` × saturation) with `scenario`
/// installed on every cube and the host robustness layer enabled: the
/// degraded mode must shed predictably, never wedge.
pub fn run_openloop_scenario(
    cfg: &SystemConfig,
    run: &OpenLoopRun,
    scenario: &FaultScenario,
    frac: f64,
    mc: &MeasureConfig,
) -> DegradedOutcome {
    let saturation_rps = saturation_probe(cfg, mc) * f64::from(run.cubes);
    let (point, drained, report, robust) =
        run_point(cfg, run, saturation_rps * frac, Some(scenario), mc);
    DegradedOutcome {
        scenario: scenario.name.clone(),
        point,
        robust,
        drained,
        report,
    }
}

/// Renders the offered-vs-goodput throughput–latency curve.
pub fn throughput_table(o: &OpenLoopOutcome) -> Table {
    let mut t = Table::new(
        format!(
            "Open-loop throughput-latency ({} arrivals, {} policy, {} cube{})",
            o.kind,
            o.policy,
            o.cubes,
            if o.cubes == 1 { "" } else { "s" }
        ),
        &["offered", "goodput", "shed%", "p50", "p99", "p999", "bp%"],
    );
    for p in &o.points {
        let shed_pct = if p.offered == 0 {
            0.0
        } else {
            100.0 * p.shed as f64 / p.offered as f64
        };
        t.row(vec![
            format!("{:.1} Mrps", p.offered_rps / 1e6),
            format!("{:.1} Mrps", p.goodput_rps / 1e6),
            f1(shed_pct),
            ns(p.p50_ns),
            ns(p.p99_ns),
            ns(p.p999_ns),
            f1(100.0 * p.backpressured_frac),
        ]);
    }
    t
}

/// Renders per-tenant SLO conformance across the load grid.
pub fn slo_table(o: &OpenLoopOutcome) -> Table {
    let mut t = Table::new(
        format!("Per-tenant SLO conformance ({} policy)", o.policy),
        &[
            "load",
            "tenant",
            "offered",
            "shed",
            "completed",
            "p99",
            "SLO",
            "conform",
        ],
    );
    for p in &o.points {
        let frac = if o.saturation_rps == 0.0 {
            0.0
        } else {
            p.offered_rps / o.saturation_rps
        };
        for tn in &p.tenants {
            t.row(vec![
                format!("{:.2}x", frac),
                tn.name.clone(),
                tn.offered.to_string(),
                tn.shed.to_string(),
                tn.completed.to_string(),
                ns(tn.p99_ns),
                ns(tn.slo_ns),
                f2(tn.slo_frac),
            ]);
        }
    }
    t
}

/// Hand-rolled JSON export of an open-loop sweep.
pub fn openloop_json(o: &OpenLoopOutcome) -> String {
    let mut s = format!(
        "{{\"policy\":\"{}\",\"kind\":\"{}\",\"cubes\":{},\
         \"saturation_rps\":{},\"drained\":{},\"violations\":{},\"points\":[",
        o.policy,
        o.kind,
        o.cubes,
        o.saturation_rps,
        o.drained,
        o.report.violations().len(),
    );
    for (i, p) in o.points.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"offered_rps\":{},\"offered\":{},\"admitted\":{},\
             \"shed\":{},\"completed\":{},\"goodput_rps\":{},\"p50_ns\":{},\
             \"p99_ns\":{},\"p999_ns\":{},\"backpressured_frac\":{},\
             \"tenants\":[",
            p.offered_rps,
            p.offered,
            p.admitted,
            p.shed,
            p.completed,
            p.goodput_rps,
            p.p50_ns,
            p.p99_ns,
            p.p999_ns,
            p.backpressured_frac,
        ));
        for (j, tn) in p.tenants.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"name\":\"{}\",\"offered\":{},\"shed\":{},\
                 \"completed\":{},\"p99_ns\":{},\"slo_ns\":{},\
                 \"slo_frac\":{}}}",
                tn.name, tn.offered, tn.shed, tn.completed, tn.p99_ns, tn.slo_ns, tn.slo_frac,
            ));
        }
        s.push_str("]}");
    }
    s.push_str("]}");
    s
}

impl crate::report::JsonReport for OpenLoopOutcome {
    fn kind(&self) -> &'static str {
        "openloop"
    }

    fn json(&self) -> String {
        openloop_json(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MeasureConfig {
        MeasureConfig {
            warmup: TimeDelta::from_us(20),
            window: TimeDelta::from_us(80),
        }
    }

    fn tiny_run(policy: ShedPolicy) -> OpenLoopRun {
        OpenLoopRun {
            fractions: vec![0.5, 1.5],
            ..OpenLoopRun::standard(policy)
        }
    }

    #[test]
    fn goodput_plateaus_past_saturation() {
        let o = run_openloop(
            &SystemConfig::default(),
            &tiny_run(ShedPolicy::RejectNewest),
            &tiny(),
        );
        assert!(o.is_clean(), "{:?}", o.report.violations());
        assert_eq!(o.points.len(), 2);
        let under = &o.points[0];
        let over = &o.points[1];
        // Below saturation nothing queue-sheds and goodput tracks offer.
        assert!(
            under.completed * 10 >= under.offered * 9,
            "under load: {} of {} completed",
            under.completed,
            under.offered
        );
        // Past saturation the admission layer sheds and goodput flattens
        // instead of collapsing.
        assert!(over.shed > 0, "overload must shed");
        assert!(
            over.goodput_rps < over.offered_rps,
            "goodput must plateau below the offer"
        );
        assert!(over.goodput_rps > under.goodput_rps * 0.8, "no collapse");
    }

    #[test]
    fn every_policy_sheds_cleanly_under_mmpp() {
        for policy in ShedPolicy::ALL {
            let run = OpenLoopRun {
                fractions: vec![1.5],
                ..OpenLoopRun::mmpp(policy)
            };
            let o = run_openloop(&SystemConfig::default(), &run, &tiny());
            assert!(o.is_clean(), "policy {policy}: {:?}", o.report.violations());
            assert!(o.points[0].shed > 0, "policy {policy} must shed at 1.5x");
            assert!(o.points[0].completed > 0, "policy {policy} keeps goodput");
        }
    }

    #[test]
    fn tables_and_json_render() {
        let o = run_openloop(
            &SystemConfig::default(),
            &tiny_run(ShedPolicy::PriorityShed),
            &tiny(),
        );
        let t = throughput_table(&o);
        assert_eq!(t.len(), 2);
        let slo = slo_table(&o);
        assert_eq!(slo.len(), 2 * 3, "one row per (load, tenant)");
        assert_eq!(slo.cell(0, 1), "latency");
        let j = openloop_json(&o);
        assert!(j.starts_with("{\"policy\":\"priority-shed\""));
        assert!(j.contains("\"tenants\":[{\"name\":\"latency\""));
        assert!(j.ends_with("]}"));
        use crate::report::JsonReport as _;
        assert_eq!(o.kind(), "openloop");
    }

    #[test]
    fn degraded_overload_sheds_but_never_wedges() {
        let scenario = FaultScenario::builtin("noisy-link").expect("builtin");
        let o = run_openloop_scenario(
            &SystemConfig::default(),
            &OpenLoopRun::mmpp(ShedPolicy::DeadlineDrop),
            &scenario,
            1.5,
            &tiny(),
        );
        assert!(o.is_clean(), "{:?}", o.report.violations());
        assert!(o.point.shed > 0, "overload under faults must shed");
        assert!(o.point.completed > 0, "goodput survives the scenario");
    }
}
