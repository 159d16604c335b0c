//! The four benchmark workloads, how each builds its simulated system,
//! and the deterministic window outputs every run is checked on.

use std::time::{Duration, Instant};

use hmc_core::experiments::openloop::bursty;
use hmc_core::hmc_host::{
    HostStats, OpenLoopConfig, ShedPolicy, TenantOpenStats, Workload as Gups,
};
use hmc_core::hmc_mem::DeviceStats;
use hmc_core::hmc_types::{RequestKind, RequestSize, Time, TimeDelta};
use hmc_core::sim_engine::{ArrivalKind, SanitizerReport, SplitMix64};
use hmc_core::{ChainSystem, System, SystemBuilder, SystemConfig, Topology};

/// Simulated warm-up before any window opens.
pub const WARMUP: TimeDelta = TimeDelta::from_us(100);

/// Window of the pinned-output runs (seeds 1 and 2), after [`WARMUP`].
pub const CHECK_WINDOW: TimeDelta = TimeDelta::from_us(200);

/// Trace-log stride and gauge period of the observed workload, as
/// `repro openloop` arms them.
pub const TRACE_EVERY: u64 = 64;
/// See [`TRACE_EVERY`].
pub const METRICS_PERIOD: TimeDelta = TimeDelta::from_us(1);

/// Simulated time a drain after a window may take before the run counts
/// as wedged.
const DRAIN_LIMIT: TimeDelta = TimeDelta::from_ms(5);

/// The paper's Figure 7 peak: read-only 128 B GUPS over 16 vaults, GB/s.
pub const PAPER_RO128_GBS: f64 = 21.0;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop full-scale GUPS, random read-only 128 B, one cube.
    GupsRo128,
    /// Closed-loop full-scale GUPS, random read-modify-write 64 B.
    GupsRw64,
    /// Open-loop Poisson standard mix on an 8-cube chain.
    Chain8Poisson,
    /// Open-loop bursty overload on one cube, observability armed.
    OpenloopOverloadObserved,
}

/// What a run simulates, apart from its seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// Closed loop: 9 ports × 64 tags of random GUPS requests.
    Gups(RequestKind, u64),
    /// Open loop: the standard three-tenant mix at `rps` per host shard,
    /// reject-newest shedding.
    Open {
        /// Offered requests per second per host shard.
        rps: f64,
        /// Interarrival process.
        kind: ArrivalKind,
    },
}

/// A workload's system and traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Cubes in the chain (1 = a plain [`System`]).
    pub cubes: u8,
    /// Generated traffic.
    pub traffic: Traffic,
    /// Sanitizer, tracing and gauge sampling armed.
    pub observed: bool,
    /// Simulated length of one measured slice (about 5 ms of host time
    /// on a 2-core x86-64 container).
    pub slice: TimeDelta,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::GupsRo128,
        Workload::GupsRw64,
        Workload::Chain8Poisson,
        Workload::OpenloopOverloadObserved,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GupsRo128 => "gups_ro128",
            Workload::GupsRw64 => "gups_rw64",
            Workload::Chain8Poisson => "chain8_poisson",
            Workload::OpenloopOverloadObserved => "openloop_overload_observed",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's system and traffic.
    pub fn spec(self) -> Spec {
        match self {
            Workload::GupsRo128 => Spec {
                cubes: 1,
                traffic: Traffic::Gups(RequestKind::ReadOnly, 128),
                observed: false,
                slice: TimeDelta::from_us(25),
            },
            Workload::GupsRw64 => Spec {
                cubes: 1,
                traffic: Traffic::Gups(RequestKind::ReadModifyWrite, 64),
                observed: false,
                slice: TimeDelta::from_us(13),
            },
            // 20 Mrps per shard keeps all eight cubes busy without
            // shedding, so the epoch loop, not admission, dominates.
            Workload::Chain8Poisson => Spec {
                cubes: 8,
                traffic: Traffic::Open {
                    rps: 20e6,
                    kind: ArrivalKind::Poisson,
                },
                observed: false,
                slice: TimeDelta::from_us(4),
            },
            // An absolute rate (about 1.5× what one cube retires), not a
            // multiple of the saturation probe, so probe changes cannot
            // move the offered load.
            Workload::OpenloopOverloadObserved => Spec {
                cubes: 1,
                traffic: Traffic::Open {
                    rps: 180e6,
                    kind: bursty(),
                },
                observed: true,
                slice: TimeDelta::from_us(7),
            },
        }
    }

    /// Whether the window is also checked against the paper's Figure 7.
    pub fn paper_gbs(self) -> Option<f64> {
        (self == Workload::GupsRo128).then_some(PAPER_RO128_GBS)
    }
}

/// Spreads a small command-line seed over all 64 bits, so seeds 1 and 2
/// do not merely swap the port streams that the host XORs the salt into.
fn mix(seed: u64) -> u64 {
    SplitMix64::new(seed).next_u64()
}

impl Spec {
    /// The system configuration with the seed applied: the closed-loop
    /// port salt, or the open-loop arrival seed (a chain overwrites the
    /// per-cube salt, so only this seed reaches its generators).
    pub fn config(&self, seed: u64) -> SystemConfig {
        let mut cfg = SystemConfig::default();
        match self.traffic {
            Traffic::Gups(..) => cfg.host.rng_salt = mix(seed),
            Traffic::Open { rps, kind } => {
                let mut open = OpenLoopConfig::standard_mix(rps, kind, ShedPolicy::RejectNewest);
                open.seed = mix(seed);
                cfg.host.openloop = Some(open);
            }
        }
        cfg
    }

    /// The closed-loop port workload, if the traffic is closed loop.
    pub fn gups(&self) -> Option<Gups> {
        match self.traffic {
            Traffic::Gups(kind, size) => Some(Gups::full_scale(
                kind,
                RequestSize::new(size).expect("benchmark request sizes are valid"),
            )),
            Traffic::Open { .. } => None,
        }
    }

    /// The builder every run of this spec starts from.
    pub fn builder(&self, seed: u64) -> SystemBuilder {
        let mut b = SystemBuilder::new(self.config(seed));
        if self.cubes > 1 {
            b = b.topology(Topology::chain(self.cubes));
        }
        if self.observed {
            b = b.sanitizer().tracing(TRACE_EVERY).metrics(METRICS_PERIOD);
        }
        b
    }

    /// Builds a single-cube system, starts its traffic and runs the
    /// warm-up.
    pub fn start_single(&self, b: SystemBuilder) -> System {
        let mut sys = b.build();
        if let Some(g) = self.gups() {
            sys.host_mut().apply_workload(&g);
        }
        sys.host_mut().start(Time::ZERO);
        sys.step_until(Time::ZERO + WARMUP);
        sys
    }

    /// Builds a chain, starts its traffic and runs the warm-up.
    pub fn start_chain(&self, b: SystemBuilder) -> ChainSystem {
        let mut sys = b.build_chain();
        if let Some(g) = self.gups() {
            sys.apply_workload(&g);
        }
        sys.start(Time::ZERO);
        sys.step_until(Time::ZERO + WARMUP);
        sys
    }
}

/// Counters a window's deltas are taken against.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Device counters, one entry per cube.
    pub devices: Vec<DeviceStats>,
    /// Events processed so far.
    pub events: u64,
}

/// A simulated system the benchmark can step and read windows from.
pub trait Sim {
    /// Processes every event at or before `end`.
    fn step_until(&mut self, end: Time);
    /// The simulated clock.
    fn now(&self) -> Time;
    /// Clears the hosts' window statistics.
    fn reset_window(&mut self);
    /// Device counters (one entry per cube) and events so far.
    fn snapshot(&self) -> Snapshot;
    /// Host window statistics, merged across cubes.
    fn host_stats(&self) -> HostStats;
    /// Open-loop tenant window statistics with tenant names, merged
    /// across cubes (empty for closed-loop traffic).
    fn open_stats(&self) -> Vec<(String, TenantOpenStats)>;

    /// The window since `before`, `span` of simulated time long.
    fn window(&self, before: &Snapshot, span: TimeDelta) -> Window {
        let now = self.snapshot();
        Window {
            span,
            host: self.host_stats(),
            open: self.open_stats(),
            devices: now
                .devices
                .iter()
                .zip(&before.devices)
                .map(|(a, b)| *a - *b)
                .collect(),
            events: now.events - before.events,
        }
    }
}

/// The open-loop tenant names of a host, mix order.
pub fn tenant_names(cfg: &hmc_core::hmc_host::HostConfig) -> impl Iterator<Item = String> + '_ {
    cfg.openloop
        .iter()
        .flat_map(|o| o.tenants.iter().map(|t| t.name.clone()))
}

impl Sim for System {
    fn step_until(&mut self, end: Time) {
        System::step_until(self, end);
    }
    fn now(&self) -> Time {
        System::now(self)
    }
    fn reset_window(&mut self) {
        self.host_mut().reset_stats();
    }
    fn snapshot(&self) -> Snapshot {
        Snapshot {
            devices: vec![self.device().stats()],
            events: self.events_processed(),
        }
    }
    fn host_stats(&self) -> HostStats {
        self.host().stats()
    }
    fn open_stats(&self) -> Vec<(String, TenantOpenStats)> {
        tenant_names(self.host().config())
            .zip(self.host().open_stats().iter().cloned())
            .collect()
    }
}

impl Sim for ChainSystem {
    fn step_until(&mut self, end: Time) {
        ChainSystem::step_until(self, end);
    }
    fn now(&self) -> Time {
        ChainSystem::now(self)
    }
    fn reset_window(&mut self) {
        self.reset_stats();
    }
    fn snapshot(&self) -> Snapshot {
        Snapshot {
            devices: (0..self.cubes()).map(|c| self.device(c).stats()).collect(),
            events: self.events_processed(),
        }
    }
    fn host_stats(&self) -> HostStats {
        ChainSystem::host_stats(self)
    }
    fn open_stats(&self) -> Vec<(String, TenantOpenStats)> {
        tenant_names(self.host(0).config())
            .zip(ChainSystem::open_stats(self))
            .collect()
    }
}

/// What one measured window simulated.
#[derive(Debug, Clone)]
pub struct Window {
    /// Simulated window length.
    pub span: TimeDelta,
    /// Host window statistics.
    pub host: HostStats,
    /// Open-loop tenant statistics, mix order.
    pub open: Vec<(String, TenantOpenStats)>,
    /// Device counter deltas, one per cube.
    pub devices: Vec<DeviceStats>,
    /// Events processed in the window.
    pub events: u64,
}

fn quantile_ns(h: &hmc_core::sim_engine::Histogram, q: f64) -> f64 {
    h.quantile(q).map_or(0.0, |d| d.as_ns_f64())
}

impl Window {
    /// Requests completed in the window.
    pub fn completed(&self) -> u64 {
        self.host.reads_completed + self.host.writes_completed
    }

    /// Sum of one device counter over all cubes.
    pub fn device_sum(&self, f: impl Fn(&DeviceStats) -> u64) -> u64 {
        self.devices.iter().map(f).sum()
    }

    /// Sum of one tenant counter over all tenants.
    pub fn open_sum(&self, f: impl Fn(&TenantOpenStats) -> u64) -> u64 {
        self.open.iter().map(|(_, s)| f(s)).sum()
    }

    /// The simulated outputs a run is checked on, each printed at a fixed
    /// precision: counts exactly, floats as the deterministic run prints
    /// them. Event counts are left out on purpose: a valid speed-up may
    /// restructure events.
    pub fn outputs(&self, paper_gbs: Option<f64>) -> Vec<(String, String)> {
        let gbs = self.host.bandwidth_gbs(self.span);
        let lat = &self.host.read_latency;
        let mut v = vec![
            ("completed".to_string(), self.completed().to_string()),
            ("sim_gbs".to_string(), format!("{gbs:.6}")),
            (
                "sim_read_p50_ns".to_string(),
                format!("{:.3}", quantile_ns(lat, 0.50)),
            ),
            (
                "sim_read_p99_ns".to_string(),
                format!("{:.3}", quantile_ns(lat, 0.99)),
            ),
        ];
        if !self.open.is_empty() {
            v.push(("offered".into(), self.open_sum(|s| s.offered).to_string()));
            v.push((
                "shed_rate".into(),
                self.open_sum(|s| s.shed_rate).to_string(),
            ));
            v.push((
                "shed_queue".into(),
                self.open_sum(|s| s.shed_queue).to_string(),
            ));
            v.push((
                "shed_deadline".into(),
                self.open_sum(|s| s.shed_deadline).to_string(),
            ));
            for (name, s) in &self.open {
                let p99 = quantile_ns(&s.latency, 0.99);
                v.push((format!("sim_p99_ns.{name}"), format!("{p99:.3}")));
            }
        }
        if let Some(paper) = paper_gbs {
            let err = (gbs - paper) / paper * 100.0;
            v.push(("paper_err_pct".into(), format!("{err:.4}")));
        }
        v
    }

    /// Everything two runs of the same simulation must agree on exactly:
    /// the outputs plus every device counter and the event count.
    pub fn fingerprint(&self) -> String {
        format!(
            "{:?} {:?} events={}",
            self.outputs(None),
            self.devices,
            self.events
        )
    }
}

/// How long a measured window runs: until both limits are reached.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Host seconds of stepping, summed over slices.
    pub seconds: f64,
    /// Slices.
    pub min_slices: usize,
}

impl Budget {
    /// True once `slices` slices took `host` host time in total.
    pub fn done(&self, slices: usize, host: Duration) -> bool {
        slices >= self.min_slices && host.as_secs_f64() >= self.seconds
    }

    /// The budget with both limits scaled by `share`.
    pub fn scaled(&self, share: f64) -> Budget {
        Budget {
            seconds: self.seconds * share,
            min_slices: (self.min_slices as f64 * share).ceil() as usize,
        }
    }
}

/// Steps `sim` slice by slice from its current clock, timing each slice
/// in host time, until `done(slices_so_far, host_time_so_far)` holds.
/// Returns the window and the per-slice host times.
pub fn run_slices<S: Sim>(
    sim: &mut S,
    slice: TimeDelta,
    mut done: impl FnMut(usize, Duration) -> bool,
) -> (Window, Vec<Duration>) {
    sim.reset_window();
    let before = sim.snapshot();
    let start = sim.now();
    let mut end = start;
    let mut times = Vec::with_capacity(4096);
    let mut total = Duration::ZERO;
    while !done(times.len(), total) {
        end += slice;
        let t = Instant::now();
        sim.step_until(end);
        let dt = t.elapsed();
        total += dt;
        times.push(dt);
    }
    (sim.window(&before, end.since(start)), times)
}

/// The checks after a drain: the sanitizer (with its shed-accounting
/// ledger, where armed) stayed clean, every request a host issued was
/// completed by some device, and no stream data was corrupted.
fn check_drained(
    report: &SanitizerReport,
    issued: u64,
    completed: u64,
    integrity_failures: u64,
) -> Result<(), String> {
    if !report.is_clean() {
        return Err(format!("sanitizer violations: {:?}", report.violations()));
    }
    if issued != completed {
        return Err(format!(
            "hosts issued {issued} requests, devices completed {completed}"
        ));
    }
    match integrity_failures {
        0 => Ok(()),
        n => Err(format!("{n} data-integrity failures")),
    }
}

/// Stops generation, drains the system within [`DRAIN_LIMIT`] and runs
/// [`check_drained`].
pub fn drain_single(sys: &mut System) -> Result<(), String> {
    sys.host_mut().stop_generation();
    if !sys.run_until_idle(DRAIN_LIMIT) {
        return Err(format!("drain did not finish within {DRAIN_LIMIT}"));
    }
    if sys.sanitizer_enabled() {
        sys.sanitize_check_drained();
    }
    let d = sys.device().stats();
    check_drained(
        &sys.sanitizer_report(),
        sys.host().total_issued(),
        d.reads_completed + d.writes_completed,
        sys.host().stats().integrity_failures,
    )
}

/// [`drain_single`] for a chain.
pub fn drain_chain(sys: &mut ChainSystem) -> Result<(), String> {
    sys.stop_generation();
    if !sys.run_until_idle(DRAIN_LIMIT) {
        return Err(format!("drain did not finish within {DRAIN_LIMIT}"));
    }
    if sys.sanitizer_enabled() {
        sys.sanitize_check_drained();
    }
    let cubes = 0..sys.cubes();
    let completed = cubes
        .clone()
        .map(|c| sys.device(c).stats())
        .map(|d| d.reads_completed + d.writes_completed)
        .sum();
    check_drained(
        &sys.sanitizer_report(),
        cubes.map(|c| sys.host(c).total_issued()).sum(),
        completed,
        sys.host_stats().integrity_failures,
    )
}

/// Runs the pinned window (warm-up, then [`CHECK_WINDOW`]) and drains;
/// returns the window's outputs.
pub fn pinned_run(w: Workload, seed: u64) -> Result<Vec<(String, String)>, String> {
    let spec = w.spec();
    let b = spec.builder(seed);
    let window = if spec.cubes > 1 {
        let mut sys = spec.start_chain(b);
        let win = run_window(&mut sys);
        drain_chain(&mut sys)?;
        win
    } else {
        let mut sys = spec.start_single(b);
        let win = run_window(&mut sys);
        drain_single(&mut sys)?;
        win
    };
    Ok(window.outputs(w.paper_gbs()))
}

fn run_window<S: Sim>(sim: &mut S) -> Window {
    sim.reset_window();
    let before = sim.snapshot();
    sim.step_until(Time::ZERO + WARMUP + CHECK_WINDOW);
    sim.window(&before, CHECK_WINDOW)
}
