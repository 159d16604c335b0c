//! The paper-check table: every target `repro figure` accepts, each
//! running its experiments once and returning the rendered table(s) plus
//! its paper-vs-measured rows.
//!
//! `repro figure <target>|all` prints each [`Report`] followed by its
//! verdict block, and the tier-1 test `crates/bench/tests/paper.rs` runs
//! every entry at [`Windows::FAST`] and fails naming each row outside its
//! band. The rows built by [`pinned`] hold the honest residuals listed at
//! the end of EXPERIMENTS.md (each one's comment names its number): their
//! bands are centred on the value the model gives at the short windows,
//! so a change that moves (or closes) a residual has to edit its band in
//! plain sight.

use std::cell::OnceCell;
use std::fmt::{Display, Write as _};

use hmc_core::experiments::{
    bandwidth, baseline, faults, generations, kernels, latency, mapping, page_policy, read_ratio,
    thermal,
};
use hmc_core::hmc_host::workload::Addressing;
use hmc_core::hmc_host::Workload;
use hmc_core::measure::{run_measurement, run_stream};
use hmc_core::{AccessPattern, SystemConfig, Table};
use hmc_types::packet::{OpKind, TransactionSizes};
use hmc_types::{
    HmcSpec, HmcVersion, InterleaveOrder, LinkConfig, RequestKind, RequestSize, TimeDelta,
};
use sim_engine::LinearFit;

use crate::{paper, Comparison, Windows};

/// One target's output: its rendered table(s) and its paper-vs-measured
/// rows (empty for targets the paper states no quantity for).
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// The rendered table(s), exactly as `repro figure` prints them.
    pub text: String,
    /// The paper-vs-measured rows.
    pub rows: Vec<Comparison>,
}

impl Report {
    /// Appends one rendered table (or line) followed by a blank line.
    fn show(&mut self, t: impl Display) {
        writeln!(self.text, "{t}").expect("writing to a String cannot fail");
    }

    /// The rows outside their bands.
    pub fn failures(&self) -> impl Iterator<Item = &Comparison> {
        self.rows.iter().filter(|r| !r.ok)
    }

    /// The verdict block for `target`, one `[ok]`/`[!!]` line per row;
    /// empty when the target has no rows.
    pub fn verdicts(&self, target: &str) -> String {
        if self.rows.is_empty() {
            return String::new();
        }
        let mut out = format!("\n=== paper vs measured: {target} ===\n");
        for r in &self.rows {
            writeln!(
                out,
                "  [{}] {:<46} paper: {:<28} measured: {}",
                if r.ok { "ok" } else { "!!" },
                r.what,
                r.paper,
                r.measured
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

/// One entry of the table: a `repro figure` target name and the function
/// that runs it.
#[derive(Debug, Clone, Copy)]
pub struct Target {
    /// The name `repro figure` accepts.
    pub name: &'static str,
    /// Runs the target's experiments with the session's configuration
    /// and windows.
    pub run: fn(&Session) -> Report,
}

impl Target {
    const fn new(name: &'static str, run: fn(&Session) -> Report) -> Self {
        Target { name, run }
    }
}

/// The configuration and windows that any number of targets run with,
/// plus the experiment runs more than one target reads, each made on
/// first use: Figures 9–12 share one thermal sweep (every pattern ×
/// cooling configuration for each request kind), so running `fig9`–`fig12`
/// through one session runs it once.
#[derive(Debug)]
pub struct Session<'a> {
    cfg: &'a SystemConfig,
    windows: Windows,
    thermal: OnceCell<Vec<thermal::ThermalOutcome>>,
}

impl<'a> Session<'a> {
    /// A session running targets with `cfg` at `windows`.
    pub fn new(cfg: &'a SystemConfig, windows: Windows) -> Self {
        Session {
            cfg,
            windows,
            thermal: OnceCell::new(),
        }
    }

    fn thermal(&self) -> &[thermal::ThermalOutcome] {
        self.thermal.get_or_init(|| {
            RequestKind::ALL
                .into_iter()
                .flat_map(|kind| thermal::figure9_10(self.cfg, kind, &self.windows.point))
                .collect()
        })
    }
}

/// Every paper target, in `repro figure all` order.
pub const TARGETS: [Target; 22] = [
    Target::new("table1", table1),
    Target::new("table2", table2),
    Target::new("table3", table3),
    Target::new("fig6", fig6),
    Target::new("fig7", fig7),
    Target::new("fig8", fig8),
    Target::new("fig9", fig9),
    Target::new("fig10", fig10),
    Target::new("fig11", fig11),
    Target::new("fig12", fig12),
    Target::new("fig13", fig13),
    Target::new("fig14", fig14),
    Target::new("fig15", fig15),
    Target::new("fig16", fig16),
    Target::new("fig17", fig17),
    Target::new("fig18", fig18),
    Target::new("baseline", baseline),
    Target::new("readratio", readratio),
    Target::new("kernels", kernels),
    Target::new("mapping", mapping),
    Target::new("faults", faults),
    Target::new("generations", generations),
];

/// Looks a target up by its `repro figure` name.
pub fn target(name: &str) -> Option<&'static Target> {
    TARGETS.iter().find(|t| t.name == name)
}

/// A residual pin: a row whose band is ±`pct` percent around `centre`,
/// the value the model gives today.
fn pinned(
    what: &'static str,
    paper: impl Into<String>,
    measured: f64,
    unit: &str,
    centre: f64,
    pct: f64,
) -> Comparison {
    let d = centre * pct / 100.0;
    Comparison::range(what, paper, measured, unit, centre - d, centre + d)
}

fn table1(_: &Session) -> Report {
    let mut t = Table::new(
        "Table I: properties of HMC versions",
        &["property", "HMC 1.0", "HMC 1.1", "HMC 2.0"],
    );
    let specs: Vec<HmcSpec> = [HmcVersion::Gen1, HmcVersion::Gen2, HmcVersion::Hmc2]
        .into_iter()
        .map(HmcSpec::of)
        .collect();
    let row = |name: &str, f: &dyn Fn(&HmcSpec) -> String| {
        let mut cells = vec![name.to_string()];
        cells.extend(specs.iter().map(f));
        cells
    };
    t.row(row("size (GB)", &|s| {
        format!("{:.1}", s.capacity_bytes() as f64 / (1 << 30) as f64)
    }));
    t.row(row("DRAM layers", &|s| s.dram_layers().to_string()));
    t.row(row("quadrants", &|s| s.num_quadrants().to_string()));
    t.row(row("vaults", &|s| s.num_vaults().to_string()));
    t.row(row("vaults/quadrant", &|s| {
        s.vaults_per_quadrant().to_string()
    }));
    t.row(row("banks", &|s| s.total_banks().to_string()));
    t.row(row("banks/vault", &|s| s.banks_per_vault().to_string()));
    t.row(row("bank size (MB)", &|s| {
        (s.bank_bytes() >> 20).to_string()
    }));
    t.row(row("partition size (MB)", &|s| {
        (s.partition_bytes() >> 20).to_string()
    }));
    let mut r = Report::default();
    r.show(t);
    r.rows = vec![
        Comparison::range(
            "total banks, 4 GB HMC 1.1 (Eq. 1)",
            format!("{}", paper::TOTAL_BANKS_GEN2),
            HmcSpec::of(HmcVersion::Gen2).total_banks() as f64,
            "banks",
            256.0,
            256.0,
        ),
        Comparison::range(
            "peak bandwidth, 2x half-width @15 Gb/s (Eq. 2)",
            format!("{} GB/s", paper::PEAK_BANDWIDTH_GBS),
            LinkConfig::ac510().peak_bandwidth_bytes_per_sec() as f64 / 1e9,
            "GB/s",
            60.0,
            60.0,
        ),
    ];
    r
}

fn table2(_: &Session) -> Report {
    let mut t = Table::new(
        "Table II: request/response sizes in flits",
        &["size", "rd req", "rd resp", "wr req", "wr resp"],
    );
    for size in RequestSize::ALL {
        let rd = TransactionSizes::of(OpKind::Read, size);
        let wr = TransactionSizes::of(OpKind::Write, size);
        t.row(vec![
            size.to_string(),
            rd.request_flits().count().to_string(),
            rd.response_flits().count().to_string(),
            wr.request_flits().count().to_string(),
            wr.response_flits().count().to_string(),
        ]);
    }
    let mut r = Report::default();
    r.show(t);
    r.rows = vec![
        Comparison::range(
            "wire efficiency at 128 B",
            "89%",
            RequestSize::MAX.wire_efficiency() * 100.0,
            "%",
            88.0,
            90.0,
        ),
        Comparison::range(
            "wire efficiency at 16 B",
            "50%",
            RequestSize::MIN.wire_efficiency() * 100.0,
            "%",
            50.0,
            50.0,
        ),
    ];
    r
}

fn table3(_: &Session) -> Report {
    let mut r = Report::default();
    r.show(thermal::table3());
    r
}

fn fig6(session: &Session) -> Report {
    let (cfg, w) = (session.cfg, &session.windows);
    let points = bandwidth::figure6(cfg, &w.point);
    let bw = |label: &str| {
        points
            .iter()
            .find(|p| p.label == label && p.kind == RequestKind::ReadOnly)
            .map_or(0.0, |p| p.bandwidth_gbs)
    };
    let mut r = Report::default();
    r.show(bandwidth::figure6_table(&points));
    r.rows = vec![
        Comparison::range(
            "row-only mask (24-31) ro bandwidth",
            "near peak, ≈21 GB/s",
            bw("24-31"),
            "GB/s",
            16.0,
            24.0,
        ),
        Comparison::range(
            "one-bank mask (7-14) is the minimum",
            "global minimum of the sweep",
            bw("7-14"),
            "GB/s",
            0.5,
            2.0,
        ),
        Comparison::range(
            "drop from two vaults (2-9) to one vault (3-10)",
            "large drop (vault ceiling 10 GB/s)",
            bw("2-9") / bw("3-10"),
            "x",
            1.5,
            3.0,
        ),
        Comparison::range(
            "one-vault mask (3-10) bandwidth",
            "≈10 GB/s internal ceiling",
            bw("3-10"),
            "GB/s",
            8.0,
            12.0,
        ),
    ];
    r
}

fn fig7(session: &Session) -> Report {
    use AccessPattern::{Banks, Vaults};
    let (cfg, w) = (session.cfg, &session.windows);
    let points = bandwidth::figure7(cfg, &w.point);
    let bw = |pattern: AccessPattern, kind: RequestKind| {
        points
            .iter()
            .find(|p| p.pattern == pattern && p.kind == kind)
            .map_or(0.0, |p| p.bandwidth_gbs)
    };
    let ro = |pattern| bw(pattern, RequestKind::ReadOnly);
    let rw = bw(Vaults(16), RequestKind::ReadModifyWrite);
    let wo = bw(Vaults(16), RequestKind::WriteOnly);
    let mut r = Report::default();
    r.show(bandwidth::figure7_table(&points));
    r.rows = vec![
        // Residual 1: the read ceiling sits 8% under the paper's ≈21
        // GB/s (one link packet-overhead constant sets it). This band
        // also bounds it under the 30 GB/s directional raw capacity
        // (Eq. 2).
        pinned(
            "ro 128 B over 16 vaults",
            format!("≈{} GB/s", paper::RO_16V_128B_GBS),
            ro(Vaults(16)),
            "GB/s",
            19.28,
            1.0,
        ),
        Comparison::range(
            "rw beats ro (bi-directional utilization)",
            "rw > ro",
            rw / ro(Vaults(16)),
            "x",
            1.01,
            2.0,
        ),
        Comparison::range(
            "ro beats wo",
            "rw > ro > wo",
            ro(Vaults(16)) / wo,
            "x",
            1.01,
            2.0,
        ),
        Comparison::range(
            "rw / wo ratio",
            format!("≈{}x (reads limited by writes)", paper::RW_OVER_WO),
            rw / wo,
            "x",
            1.6,
            2.4,
        ),
        Comparison::range(
            "ro 128 B to one vault",
            format!("≈{} GB/s internal ceiling", paper::VAULT_CEILING_GBS),
            ro(Vaults(1)),
            "GB/s",
            8.0,
            12.0,
        ),
        Comparison::range(
            "8 banks ≈ 1 vault (bus-saturated)",
            "equal within noise",
            ro(Banks(8)) / ro(Vaults(1)),
            "x",
            0.8,
            1.2,
        ),
        Comparison::range(
            "4 banks / 1 bank bandwidth",
            "scales with bank count below a vault",
            ro(Banks(4)) / ro(Banks(1)),
            "x",
            3.0,
            5.0,
        ),
        // Fig 16's 24.2 µs at ≈190 outstanding 128 B requests implies
        // ≈1.25 GB/s for one bank (Little's law).
        Comparison::range(
            "ro 128 B to one bank",
            "≈1.25 GB/s (Little's law on Fig 16)",
            ro(Banks(1)),
            "GB/s",
            0.9,
            1.8,
        ),
    ];
    r
}

fn fig8(session: &Session) -> Report {
    let (cfg, w) = (session.cfg, &session.windows);
    let points = bandwidth::figure8(cfg, &w.point);
    let at = |pattern: AccessPattern, bytes: u64| {
        points
            .iter()
            .find(|p| p.pattern == pattern && p.size.bytes() == bytes)
            .copied()
            .expect("point exists")
    };
    let v16 = AccessPattern::Vaults(16);
    let b2 = AccessPattern::Banks(2);
    let mut r = Report::default();
    r.show(bandwidth::figure8_table(&points));
    r.rows = vec![
        // Residual 2: 1.63x against the paper's ≈2x. One link
        // packet-overhead constant sets both this ratio and the Fig 13
        // 16 B point: lowering it moves this ratio toward ≈2x and the
        // 16 B point further above ≈8 GB/s (DESIGN.md §1).
        pinned(
            "16 vaults: 32 B MRPS over 128 B MRPS",
            "≈2x as many requests handled",
            at(v16, 32).mrps / at(v16, 128).mrps,
            "x",
            1.63,
            1.0,
        ),
        Comparison::range(
            "16 vaults: 32 B bandwidth below 128 B",
            "smaller requests waste overhead",
            at(v16, 32).bandwidth_gbs / at(v16, 128).bandwidth_gbs,
            "x",
            0.4,
            0.9,
        ),
        Comparison::range(
            "2 banks: request rate similar across sizes",
            "similar number of requests (DRAM-bound)",
            at(b2, 32).mrps / at(b2, 128).mrps,
            "x",
            0.8,
            1.6,
        ),
    ];
    r
}

fn fig9(session: &Session) -> Report {
    let all = session.thermal();
    let failures = |reads: bool| {
        all.iter()
            .filter(|o| (o.kind == RequestKind::ReadOnly) == reads && o.failure.is_some())
            .count() as f64
    };
    let wo_cfg3 = all
        .iter()
        .filter(|o| o.kind == RequestKind::WriteOnly && o.cooling == "Cfg3")
        .map(|o| o.surface_c)
        .fold(f64::MIN, f64::max);
    let mut r = Report::default();
    for kind in RequestKind::ALL {
        r.show(thermal::figure9_table(kind, all));
    }
    r.rows = vec![
        Comparison::range(
            "read-only thermal failures across all configs",
            "none (ro survives even weak cooling)",
            failures(true),
            "failures",
            0.0,
            0.0,
        ),
        Comparison::range(
            "write-workload thermal failures (weak cooling)",
            "wo/rw fail under weak cooling (~75 C limit)",
            failures(false),
            "failures",
            1.0,
            40.0,
        ),
        // Residual 4: wo at Cfg3 settles below the 75 C write limit and
        // survives, where the paper's device failed (Fig 9b omits it).
        pinned(
            "hottest wo surface at Cfg3",
            format!("fails (over {} C)", paper::WRITE_LIMIT_C),
            wo_cfg3,
            "C",
            70.25,
            1.0,
        ),
    ];
    r
}

fn fig10(session: &Session) -> Report {
    let all = session.thermal();
    let mut r = Report::default();
    for kind in RequestKind::ALL {
        r.show(thermal::figure10_table(kind, all));
    }
    r
}

fn fig11(session: &Session) -> Report {
    let f11 = thermal::figure11(session.thermal());
    let fit = |fits: &[(RequestKind, LinearFit)], kind| {
        fits.iter().find(|(k, _)| *k == kind).map(|(_, f)| *f)
    };
    let ro_temp = fit(&f11.temp_fits, RequestKind::ReadOnly);
    let wo_temp = fit(&f11.temp_fits, RequestKind::WriteOnly);
    let ro_power = fit(&f11.power_fits, RequestKind::ReadOnly);
    let rise = |f: Option<LinearFit>| f.map_or(0.0, |f| f.predict(20.0) - f.predict(5.0));
    let mut r = Report::default();
    r.show(thermal::figure11_table(&f11));
    r.rows = vec![
        Comparison::range(
            "temperature rise 5 -> 20 GB/s, ro, Cfg2",
            format!("≈{} C", paper::TEMP_RISE_5_TO_20_C),
            rise(ro_temp),
            "C",
            1.5,
            6.0,
        ),
        Comparison::range(
            "device power rise 5 -> 20 GB/s",
            format!("≈{} W", paper::POWER_RISE_5_TO_20_W),
            rise(ro_power),
            "W",
            1.0,
            3.5,
        ),
        Comparison::range(
            "wo temperature slope vs ro slope",
            "writes more temperature-sensitive (steeper)",
            match (ro_temp, wo_temp) {
                (Some(ro), Some(wo)) => wo.slope / ro.slope,
                _ => 0.0,
            },
            "x",
            1.05,
            3.0,
        ),
    ];
    r
}

fn fig12(session: &Session) -> Report {
    let all = session.thermal();
    let mut r = Report::default();
    r.show("## Figure 12: cooling power to hold a surface temperature");
    let lines = thermal::figure12(all, &[50.0, 55.0, 60.0]);
    for line in &lines {
        let first = line.points.first().map_or(0.0, |p| p.1);
        let last = line.points.last().map_or(0.0, |p| p.1);
        let max_bw = line.points.last().map_or(0.0, |p| p.0);
        r.show(format_args!(
            "  {} hold {:.0} C: {:.2} W at 0 GB/s -> {:.2} W at {:.1} GB/s",
            line.kind, line.target_c, first, last, max_bw
        ));
    }
    r.show("");
    let ro = lines
        .iter()
        .find(|l| l.kind == RequestKind::ReadOnly && l.target_c == 55.0)
        .expect("ro line at 55 C exists");
    let (first, last) = (ro.points[0], ro.points[ro.points.len() - 1]);
    let span_bw = last.0 - first.0;
    let per_16 = if span_bw > 0.0 {
        (last.1 - first.1) / span_bw * 16.0
    } else {
        0.0
    };
    r.rows = vec![Comparison::range(
        "cooling power growth per 16 GB/s (hold 55 C)",
        format!("≈{} W", paper::COOLING_W_PER_16_GBS),
        per_16,
        "W",
        0.5,
        3.0,
    )];
    r
}

fn fig13(session: &Session) -> Report {
    let (cfg, w) = (session.cfg, &session.windows);
    let points = page_policy::figure13(cfg, &w.point);
    let bw = |pattern: AccessPattern, mode: Addressing, bytes: u64| {
        points
            .iter()
            .find(|p| p.pattern == pattern && p.addressing == mode && p.size.bytes() == bytes)
            .map_or(0.0, |p| p.bandwidth_gbs)
    };
    let v16 = AccessPattern::Vaults(16);
    let v1 = AccessPattern::Vaults(1);
    let ablation = page_policy::page_policy_ablation(cfg, &w.point);
    let mut r = Report::default();
    r.show(page_policy::figure13_table(&points));
    r.show(format_args!(
        "## Open-page ablation (linear, 1 vault, 128 B)\n\
         closed page: {:.1} GB/s   open page: {:.1} GB/s   row hits: {}\n",
        ablation.closed_gbs, ablation.open_gbs, ablation.open_row_hits
    ));
    r.rows = vec![
        Comparison::range(
            "16 vaults: random / linear at 128 B",
            "equal (closed page; random slightly ahead)",
            bw(v16, Addressing::Random, 128) / bw(v16, Addressing::Linear, 128),
            "x",
            0.85,
            1.15,
        ),
        Comparison::range(
            "1 vault: random / linear at 128 B",
            "equal (no row-buffer benefit)",
            bw(v1, Addressing::Random, 128) / bw(v1, Addressing::Linear, 128),
            "x",
            0.85,
            1.15,
        ),
        Comparison::range(
            "16 vaults: 128 B over 16 B bandwidth",
            "climbs with block size (overhead amortized)",
            bw(v16, Addressing::Random, 128) / bw(v16, Addressing::Random, 16),
            "x",
            1.7,
            3.5,
        ),
        // Residual 2: the 16 B point sits above the paper's ≈8 GB/s;
        // raising the packet overhead to lower it moves the Fig 8 MRPS
        // ratio further below ≈2x.
        pinned(
            "16 vaults: random 16 B bandwidth",
            "≈8 GB/s",
            bw(v16, Addressing::Random, 16),
            "GB/s",
            10.51,
            1.0,
        ),
        Comparison::range(
            "open-page gain on the friendliest workload",
            "small (256 B rows): closed page is cheap",
            ablation.open_gbs / ablation.closed_gbs,
            "x",
            0.9,
            1.5,
        ),
    ];
    r
}

fn fig14(session: &Session) -> Report {
    let cfg = session.cfg;
    let d128 = latency::figure14(cfg, RequestSize::MAX);
    let d16 = latency::figure14(cfg, RequestSize::MIN);
    let mut r = Report::default();
    r.show(latency::figure14_table(&d128));
    r.rows = vec![
        Comparison::range(
            "minimum round trip, 16 B read",
            format!("{} ns", paper::MIN_LATENCY_16B_NS),
            d16.measured_ns,
            "ns",
            520.0,
            800.0,
        ),
        Comparison::range(
            "minimum round trip, 128 B read",
            format!("{} ns", paper::MIN_LATENCY_128B_NS),
            d128.measured_ns,
            "ns",
            560.0,
            850.0,
        ),
        Comparison::range(
            "round-trip growth from 16 B to 128 B",
            format!(
                "{} ns",
                paper::MIN_LATENCY_128B_NS - paper::MIN_LATENCY_16B_NS
            ),
            d128.measured_ns - d16.measured_ns,
            "ns",
            20.0,
            110.0,
        ),
        // Residual 3: the paper's 547/125 ns split counts a
        // data-carrying TX packet at worst-case arbitration; a read
        // request is one flit at minimum arbitration, which moves
        // ≈100 ns from infrastructure to in-cube.
        pinned(
            "infrastructure share (TX + RX)",
            format!("{} ns", paper::INFRA_NS),
            d128.infra_ns,
            "ns",
            432.0,
            1.0,
        ),
        pinned(
            "in-cube share",
            format!("≈{} ns average", paper::IN_CUBE_NS),
            d128.in_cube_ns,
            "ns",
            219.73,
            1.0,
        ),
    ];
    r
}

fn fig15(session: &Session) -> Report {
    let cfg = session.cfg;
    let points = latency::figure15(cfg);
    let point = |bytes: u64, n: usize| {
        points
            .iter()
            .find(|p| p.size.bytes() == bytes && p.n == n)
            .copied()
            .expect("point exists")
    };
    let mut r = Report::default();
    for bytes in latency::FIG15_SIZES {
        let size = RequestSize::new(bytes).expect("valid");
        r.show(latency::figure15_table(size, &points));
    }
    r.rows = vec![
        Comparison::range(
            "28-packet stream: 128 B avg over 16 B avg",
            "≈1.5x (interference grows with size)",
            point(128, 28).avg_ns / point(16, 28).avg_ns,
            "x",
            1.05,
            2.0,
        ),
        Comparison::range(
            "max latency growth with stream length (128 B)",
            "maximum grows; minimum stays flat",
            point(128, 28).max_ns - point(128, 2).max_ns,
            "ns",
            30.0,
            2_000.0,
        ),
    ];
    r
}

fn fig16(session: &Session) -> Report {
    use AccessPattern::{Banks, Vaults};
    let (cfg, w) = (session.cfg, &session.windows);
    let points = latency::figure16(cfg, &w.point);
    let lat = |pattern: AccessPattern, bytes: u64| {
        points
            .iter()
            .find(|p| p.pattern == pattern && p.size.bytes() == bytes)
            .map_or(0.0, |p| p.latency_ns)
    };
    // The low-load reference: a four-read 128 B stream.
    let (low, _) = run_stream(cfg, &Workload::read_stream(4, RequestSize::MAX));
    let mut r = Report::default();
    r.show(latency::figure16_table(&points));
    r.rows = vec![
        Comparison::range(
            "32 B across 16 vaults",
            format!("{} ns", paper::HIGH_LOAD_32B_16V_NS),
            lat(Vaults(16), 32),
            "ns",
            1_200.0,
            4_500.0,
        ),
        Comparison::range(
            "128 B to one bank",
            format!("{} ns", paper::HIGH_LOAD_128B_1BANK_NS),
            lat(Banks(1), 128),
            "ns",
            12_000.0,
            40_000.0,
        ),
        Comparison::range(
            "one bank / 16 vaults latency ratio (128 B)",
            "order of magnitude (queueing at the bank)",
            lat(Banks(1), 128) / lat(Vaults(16), 128),
            "x",
            3.0,
            20.0,
        ),
        Comparison::range(
            "32 B faster than 128 B at the same pattern",
            "32 B always lower (one DRAM-bus beat)",
            lat(Banks(1), 32) / lat(Banks(1), 128),
            "x",
            0.1,
            0.99,
        ),
        Comparison::range(
            "32 B faster than 128 B across 16 vaults",
            "32 B always lower",
            lat(Vaults(16), 32) / lat(Vaults(16), 128),
            "x",
            0.1,
            0.99,
        ),
        Comparison::range(
            "high-load / low-load average latency (128 B)",
            format!("≈{}x", paper::HIGH_OVER_LOW_LOAD),
            lat(Vaults(16), 128) / low.mean().as_ns_f64(),
            "x",
            4.0,
            25.0,
        ),
    ];
    r
}

fn fig17(session: &Session) -> Report {
    let (cfg, w) = (session.cfg, &session.windows);
    let curves = latency::figure17(cfg, &w.sweep);
    let outstanding = |pattern: AccessPattern| {
        curves
            .iter()
            .find(|c| c.pattern == pattern && c.size == RequestSize::MAX)
            .and_then(|c| c.analysis.points.last())
            .map_or(0.0, |p| p.outstanding())
    };
    let o4 = outstanding(AccessPattern::Banks(4));
    let o2 = outstanding(AccessPattern::Banks(2));
    let mut r = Report::default();
    r.show(latency::curves_table("Figure 17", &curves));
    r.rows = vec![
        // Residual 5: ≈40% above the paper's 375; the controller-side
        // FIFOs add a constant on top of the bank queues.
        pinned(
            "outstanding at saturation, 4 banks (Little's law)",
            format!("≈{}", paper::OUTSTANDING_4BANK),
            o4,
            "requests",
            528.93,
            2.0,
        ),
        Comparison::range(
            "4-bank / 2-bank outstanding ratio",
            "≈2x (one queue per bank)",
            o4 / o2,
            "x",
            1.5,
            2.5,
        ),
    ];
    r
}

fn fig18(session: &Session) -> Report {
    let (cfg, w) = (session.cfg, &session.windows);
    let sizes = [RequestSize::new(32).expect("valid"), RequestSize::MAX];
    let curves = latency::figure18(cfg, &sizes, &w.sweep);
    let sat = |pattern: AccessPattern| {
        curves
            .iter()
            .find(|c| c.pattern == pattern && c.size == RequestSize::MAX)
            .map_or(0.0, |c| c.analysis.saturation_bandwidth_gbs())
    };
    let v1 = sat(AccessPattern::Vaults(1));
    let v2 = sat(AccessPattern::Vaults(2));
    let mut r = Report::default();
    r.show(latency::curves_table("Figure 18", &curves));
    r.rows = vec![
        Comparison::range(
            "1-vault saturation bandwidth",
            format!("≈{} GB/s", paper::VAULT_CEILING_GBS),
            v1,
            "GB/s",
            8.0,
            12.0,
        ),
        Comparison::range(
            "2-vault / 1-vault saturation ratio",
            "≈2x (19 GB/s vs 10 GB/s)",
            v2 / v1,
            "x",
            1.5,
            2.4,
        ),
    ];
    r
}

/// The DDR baseline plus the knob ablations DESIGN.md calls out:
/// bank-queue depth (moves the Figure 17 knee), write-drain rate (moves
/// the wo ceiling) and the packet-processing overhead (moves the read
/// ceiling).
fn baseline(session: &Session) -> Report {
    let (cfg, w) = (session.cfg, &session.windows);
    let mc = &w.point;
    let rows: Vec<_> = [16u64, 64, 128]
        .into_iter()
        .map(|b| baseline::compare(cfg, RequestSize::new(b).expect("valid"), mc))
        .collect();
    let (hmc_rand, ddr_rand) = baseline::random_access_throughput(cfg, mc);
    let mut r = Report::default();
    r.show(baseline::baseline_table(&rows));
    r.show(format_args!(
        "Random 128 B read data throughput: HMC {hmc_rand:.1} GB/s vs DDR {ddr_rand:.1} GB/s\n"
    ));

    r.show("## Ablation: per-bank queue depth (4-bank pattern, 128 B)");
    let mut knee = Vec::new();
    for depth in [30usize, 60, 120, 240] {
        let mut c = cfg.clone();
        c.mem.vault.bank_queue_depth = depth;
        let curve = latency::latency_bandwidth_curve(
            &c,
            AccessPattern::Banks(4),
            RequestSize::MAX,
            &w.sweep,
        );
        let o = curve
            .analysis
            .points
            .last()
            .map_or(0.0, |p| p.outstanding());
        r.show(format_args!(
            "  depth {depth:>3}: deepest-sweep outstanding {o:>6.0}"
        ));
        knee.push(o);
    }

    r.show("\n## Ablation: posted-write drain rate (wo, 128 B, 16 vaults)");
    let mut wo_bw = Vec::new();
    for gbs in [5u64, 10, 20, 40] {
        let mut c = cfg.clone();
        c.mem.link_layer.write_drain_bytes_per_sec = gbs * 1_000_000_000;
        let m = run_measurement(
            &c,
            &Workload::full_scale(RequestKind::WriteOnly, RequestSize::MAX),
            mc,
        );
        r.show(format_args!(
            "  drain {gbs:>2} GB/s: wo counted bandwidth {:>5.1} GB/s",
            m.bandwidth_gbs
        ));
        wo_bw.push(m.bandwidth_gbs);
    }

    r.show("\n## Ablation: link packet-processing overhead (ro, 128 B)");
    let mut ro_bw = Vec::new();
    for ns in [0u64, 4, 7, 12] {
        let mut c = cfg.clone();
        c.mem.link_layer.packet_overhead = TimeDelta::from_ns(ns);
        let m = run_measurement(
            &c,
            &Workload::full_scale(RequestKind::ReadOnly, RequestSize::MAX),
            mc,
        );
        r.show(format_args!(
            "  overhead {ns:>2} ns: ro counted bandwidth {:>5.1} GB/s",
            m.bandwidth_gbs
        ));
        ro_bw.push(m.bandwidth_gbs);
    }

    let c128 = &rows[2];
    r.rows = vec![
        Comparison::range(
            "HMC unloaded latency over DDR, same host",
            "packet interface costs latency",
            c128.hmc_unloaded_ns / c128.ddr_unloaded_ns,
            "x",
            1.05,
            3.0,
        ),
        Comparison::range(
            "HMC in-cube share over DDR in-device share",
            "≈2x a typical DRAM access",
            c128.hmc_in_cube_ns / c128.ddr_in_device_ns,
            "x",
            1.0,
            6.0,
        ),
        Comparison::range(
            "HMC / DDR loaded bandwidth (128 B reads)",
            "HMC wins on concurrency",
            c128.hmc_bandwidth_gbs / c128.ddr_bandwidth_gbs,
            "x",
            1.05,
            4.0,
        ),
        Comparison::range(
            "bank-queue depth doubles -> outstanding grows",
            "knee position tracks queue capacity",
            knee[3] / knee[1],
            "x",
            1.5,
            6.0,
        ),
        Comparison::range(
            "write drain halved -> wo bandwidth drops",
            "wo ceiling tracks the drain knob",
            wo_bw[0] / wo_bw[1],
            "x",
            0.3,
            0.8,
        ),
        Comparison::range(
            "zero packet overhead -> ro ceiling rises",
            "read ceiling tracks the overhead knob",
            ro_bw[0] / ro_bw[2],
            "x",
            1.1,
            2.5,
        ),
    ];
    r
}

/// The related-work result the paper cites: HMCSim (Rosenfeld) and
/// OpenHMC (Schmidt et al.) both found maximum link utilization at a read
/// ratio between 53 % and 66 %.
fn readratio(session: &Session) -> Report {
    let (cfg, w) = (session.cfg, &session.windows);
    let points = read_ratio::read_ratio_sweep(cfg, RequestSize::MAX, 10, &w.point);
    let peak = read_ratio::optimal_ratio(&points).expect("sweep not empty");
    let pure_reads = points.last().expect("sweep not empty");
    let pure_writes = points.first().expect("sweep not empty");
    let mut r = Report::default();
    r.show(read_ratio::read_ratio_table(&points));
    r.rows = vec![
        Comparison::range(
            "optimal read ratio",
            "53-66 % reads maximizes link utilization",
            peak.read_fraction * 100.0,
            "%",
            40.0,
            80.0,
        ),
        Comparison::range(
            "peak over pure reads",
            "mixed traffic fills both directions",
            peak.bandwidth_gbs / pure_reads.bandwidth_gbs,
            "x",
            1.1,
            2.0,
        ),
        Comparison::range(
            "peak over pure writes",
            "writes alone idle the downstream direction",
            peak.bandwidth_gbs / pure_writes.bandwidth_gbs,
            "x",
            1.3,
            3.5,
        ),
    ];
    r
}

fn kernels(session: &Session) -> Report {
    use kernels::Kernel;
    let (cfg, w) = (session.cfg, &session.windows);
    let results = kernels::run_kernels(cfg, &w.point);
    let get = |k: Kernel| results.iter().find(|r| r.kernel == k).expect("present");
    let mut r = Report::default();
    r.show(kernels::kernels_table(&results));
    r.rows = vec![
        Comparison::range(
            "scan == gather (closed page: locality is free to ignore)",
            "conclusion (iii) of the paper",
            get(Kernel::Scan).bandwidth_gbs / get(Kernel::Gather).bandwidth_gbs,
            "x",
            0.85,
            1.15,
        ),
        Comparison::range(
            "pointer chase pays one round trip per hop",
            "~unloaded latency per dependent access",
            get(Kernel::PointerChase).latency_ns,
            "ns",
            550.0,
            900.0,
        ),
        Comparison::range(
            "hot 2 KB structure vs scan bandwidth",
            "small structures are parallelism-starved",
            get(Kernel::HotSpot).bandwidth_gbs / get(Kernel::Scan).bandwidth_gbs,
            "x",
            0.3,
            0.95,
        ),
    ];
    r
}

fn mapping(session: &Session) -> Report {
    let (cfg, w) = (session.cfg, &session.windows);
    let points = mapping::mapping_ablation(cfg, &w.point);
    let hot = |order: InterleaveOrder| {
        points
            .iter()
            .find(|p| p.order == order && p.max_block.bytes() == 128)
            .map_or(0.0, |p| p.hot_buffer_gbs)
    };
    let bank_first = hot(InterleaveOrder::BankThenVault);
    let mut r = Report::default();
    r.show(mapping::mapping_table(&points));
    r.rows = vec![
        Comparison::range(
            "bank-first interleave on a 2 KB buffer",
            "packs it into one vault: ~10 GB/s cap",
            bank_first,
            "GB/s",
            8.0,
            12.0,
        ),
        Comparison::range(
            "default interleave on the same buffer",
            "spreads it across all 16 vaults",
            hot(InterleaveOrder::VaultThenBank) / bank_first,
            "x",
            1.4,
            2.5,
        ),
    ];
    r
}

fn faults(session: &Session) -> Report {
    let (cfg, w) = (session.cfg, &session.windows);
    let points = faults::ber_sweep(cfg, &faults::BER_AXIS, &w.point);
    let mut r = Report::default();
    r.show(faults::faults_table(&points));
    r.rows = vec![
        Comparison::range(
            "rare lane errors (1e-9) cost nothing",
            "integrity machinery absorbs them",
            points[1].bandwidth_gbs / points[0].bandwidth_gbs,
            "x",
            0.97,
            1.03,
        ),
        Comparison::range(
            "heavy lane errors (1e-5) derate the ceiling",
            "retries burn wire time",
            points[4].bandwidth_gbs / points[0].bandwidth_gbs,
            "x",
            0.5,
            0.98,
        ),
    ];
    r
}

fn generations(session: &Session) -> Report {
    let w = &session.windows;
    let gens = generations::generation_sweep(&w.point);
    let mut r = Report::default();
    r.show(generations::generations_table(&gens));
    r.rows = vec![Comparison::range(
        "HMC 2.0 (4 links) over HMC 1.1 read ceiling",
        "projection for the then-unreleased part",
        gens[2].ro_gbs / gens[1].ro_gbs,
        "x",
        1.3,
        2.5,
    )];
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_names_are_unique_and_found() {
        for t in &TARGETS {
            assert_eq!(target(t.name).map(|f| f.name), Some(t.name));
        }
        assert!(target("fig99").is_none());
    }

    #[test]
    fn verdicts_mark_each_row() {
        let r = Report {
            text: String::new(),
            rows: vec![
                Comparison::range("in", "1", 1.0, "x", 0.5, 1.5),
                Comparison::range("out", "1", 2.0, "x", 0.5, 1.5),
            ],
        };
        let v = r.verdicts("t");
        assert!(v.contains("=== paper vs measured: t ==="));
        assert!(v.contains("[ok] in"));
        assert!(v.contains("[!!] out"));
        assert_eq!(r.failures().map(|c| c.what).collect::<Vec<_>>(), ["out"]);
        assert!(Report::default().verdicts("t").is_empty());
    }

    #[test]
    fn pinned_band_is_symmetric() {
        assert!(pinned("x", "", 196.0, "ns", 200.0, 2.0).ok);
        assert!(pinned("x", "", 204.0, "ns", 200.0, 2.0).ok);
        assert!(!pinned("x", "", 204.1, "ns", 200.0, 2.0).ok);
    }
}
