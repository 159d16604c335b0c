//! A dependency-free live terminal dashboard for long-running chain
//! simulations.
//!
//! The dashboard is a *view* over the chain's own observability surface:
//! every displayed number is read from the per-cube gauge samplers and
//! the aggregated host statistics. Each simulated `frame_span` the
//! runner captures one [`Frame`] into a fixed-capacity [`Ring`], then
//! either repaints the terminal (live mode, ANSI, wall-clock paced) or
//! keeps simulating silently (headless mode). Because frames are
//! derived purely from simulation state, the ring's JSON dump is
//! reproducible to the byte — CI pins its checksum.
//!
//! Wall-clock use (repaint pacing) lives only in this crate, outside the
//! `hmc-lint` determinism perimeter, and never reaches
//! [`Dashboard::to_json`].

use std::fmt::Write as _;

use hmc_core::hmc_host::Workload;
use hmc_core::topology::{ChainSystem, Topology};
use hmc_core::{SystemBuilder, SystemConfig};
use hmc_types::{Time, TimeDelta};

/// A fixed-capacity ring buffer: pushing beyond capacity overwrites the
/// oldest entry. Iteration yields entries oldest-first.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    buf: Vec<T>,
    head: usize,
    cap: usize,
}

impl<T> Ring<T> {
    /// Creates an empty ring holding at most `cap` entries (min 1).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        Ring {
            buf: Vec::with_capacity(cap),
            head: 0,
            cap,
        }
    }

    /// Appends an entry, evicting the oldest once full.
    pub fn push(&mut self, item: T) {
        if self.buf.len() < self.cap {
            self.buf.push(item);
        } else {
            self.buf[self.head] = item;
            self.head = (self.head + 1) % self.cap;
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Iterates oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let (tail, head) = self.buf.split_at(self.head);
        head.iter().chain(tail.iter())
    }

    /// The most recently pushed entry.
    pub fn last(&self) -> Option<&T> {
        if self.buf.is_empty() {
            None
        } else if self.head == 0 {
            self.buf.last()
        } else {
            Some(&self.buf[self.head - 1])
        }
    }
}

/// One cube's slice of a dashboard frame.
#[derive(Debug, Clone, Copy, Default)]
pub struct CubeFrame {
    /// Read+write payload bandwidth over the frame, GB/s.
    pub bandwidth_gbs: f64,
    /// Host requests in flight (latest gauge sample).
    pub outstanding: f64,
    /// Requests queued across the cube's vault controllers.
    pub vault_queued: f64,
    /// DRAM banks busy.
    pub busy_banks: f64,
    /// Cumulative link CRC retries (fault counter).
    pub link_retries: f64,
    /// Cumulative link stall events (fault counter).
    pub link_stalls: f64,
    /// Cumulative leaked credits (fault counter).
    pub credits_leaked: f64,
    /// Hop messages in flight toward the cube (its inbox depth).
    pub mailbox: f64,
}

/// One captured dashboard frame: a simulated instant plus every cube's
/// gauges at that instant.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Simulated capture instant.
    pub at: Time,
    /// Per-cube gauge snapshot, indexed by cube.
    pub cubes: Vec<CubeFrame>,
}

/// Reads the latest sample of gauge `name` from cube `s`, or 0.0 when
/// the series does not exist (yet).
fn gauge(sys: &ChainSystem, s: usize, name: &str) -> f64 {
    sys.metrics(s)
        .and_then(|m| m.get(name))
        .and_then(|series| series.points().last().copied())
        .map_or(0.0, |(_, v)| v)
}

/// The frame ring plus the byte counters needed to turn cumulative host
/// statistics into per-frame bandwidth.
#[derive(Debug, Clone)]
pub struct Dashboard {
    ring: Ring<Frame>,
    prev_bytes: Vec<u64>,
    prev_at: Time,
}

impl Dashboard {
    /// Creates a dashboard for a `cubes`-cube chain retaining the last
    /// `capacity` frames.
    pub fn new(cubes: usize, capacity: usize) -> Self {
        Dashboard {
            ring: Ring::new(capacity),
            prev_bytes: vec![0; cubes],
            prev_at: Time::ZERO,
        }
    }

    /// The retained frames.
    pub fn frames(&self) -> &Ring<Frame> {
        &self.ring
    }

    /// Snapshots the chain into a new frame and pushes it into the ring.
    pub fn capture(&mut self, sys: &ChainSystem) {
        let at = sys.now();
        let span_sec = (at.since(self.prev_at).as_ns_f64() / 1e9).max(1e-30);
        let mut cubes = Vec::with_capacity(self.prev_bytes.len());
        for s in 0..self.prev_bytes.len() {
            let bytes = sys.host(s).stats().counted_bytes;
            let delta = bytes.saturating_sub(self.prev_bytes[s]);
            self.prev_bytes[s] = bytes;
            cubes.push(CubeFrame {
                bandwidth_gbs: delta as f64 / span_sec / 1e9,
                outstanding: gauge(sys, s, "host.outstanding"),
                vault_queued: gauge(sys, s, "device.vault_queued"),
                busy_banks: gauge(sys, s, "device.busy_banks"),
                link_retries: gauge(sys, s, "device.link_retries"),
                link_stalls: gauge(sys, s, "device.link_stalls"),
                credits_leaked: gauge(sys, s, "device.credits_leaked"),
                mailbox: gauge(sys, s, "chain.mailbox"),
            });
        }
        self.prev_at = at;
        self.ring.push(Frame { at, cubes });
    }

    /// A unicode sparkline of aggregate bandwidth over the retained
    /// frames (oldest left).
    pub fn sparkline(&self) -> String {
        const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
        let totals: Vec<f64> = self
            .ring
            .iter()
            .map(|f| f.cubes.iter().map(|c| c.bandwidth_gbs).sum())
            .collect();
        let max = totals.iter().cloned().fold(0.0f64, f64::max);
        totals
            .iter()
            .map(|&t| {
                if max <= 0.0 {
                    BARS[0]
                } else {
                    let i = ((t / max) * 7.0).round() as usize;
                    BARS[i.min(7)]
                }
            })
            .collect()
    }

    /// Renders the latest frame as a plain-text panel (no ANSI control
    /// codes — the live loop adds cursor handling around it).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let Some(f) = self.ring.last() else {
            return "no frames captured yet\n".to_string();
        };
        let _ = writeln!(
            out,
            "chain dashboard   t={:9.2} us   frames={}/{}",
            f.at.as_ns_f64() / 1e3,
            self.ring.len(),
            self.ring.capacity(),
        );
        let _ = writeln!(
            out,
            "cube   bw GB/s  outst  vaultq  banks  retries  stalls  leaked  mailbox"
        );
        for (i, c) in f.cubes.iter().enumerate() {
            let _ = writeln!(
                out,
                "{i:>4}  {:>8.2}  {:>5.0}  {:>6.0}  {:>5.0}  {:>7.0}  {:>6.0}  {:>6.0}  {:>7.0}",
                c.bandwidth_gbs,
                c.outstanding,
                c.vault_queued,
                c.busy_banks,
                c.link_retries,
                c.link_stalls,
                c.credits_leaked,
                c.mailbox,
            );
        }
        let _ = writeln!(out, "bw history: {}", self.sparkline());
        out
    }

    /// Dumps the ring as deterministic JSON: every field is derived from
    /// simulation state, so the dump is byte-identical across runs.
    /// Shape: `{"capacity": ..., "frames": [{"t_ps": ...,
    /// "cubes": [{...}, ...]}, ...]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"capacity\":{},\"frames\":[", self.ring.capacity());
        for (i, f) in self.ring.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"t_ps\":{},\"cubes\":[", f.at.as_ps());
            for (j, c) in f.cubes.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"cube\":{j},\"bandwidth_gbs\":{:.3},\"outstanding\":{},\
                     \"vault_queued\":{},\"busy_banks\":{},\"link_retries\":{},\
                     \"link_stalls\":{},\"credits_leaked\":{},\"mailbox\":{}}}",
                    c.bandwidth_gbs,
                    c.outstanding,
                    c.vault_queued,
                    c.busy_banks,
                    c.link_retries,
                    c.link_stalls,
                    c.credits_leaked,
                    c.mailbox,
                );
            }
            out.push_str("]}");
        }
        out.push_str("]}\n");
        out
    }
}

/// How [`run_dashboard`] presents frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DashboardMode {
    /// Repaint the terminal after every frame, pacing with a wall-clock
    /// sleep of the given milliseconds so the panel is watchable.
    Live {
        /// Wall milliseconds to sleep between repaints.
        refresh_ms: u64,
    },
    /// Simulate silently and keep only the ring (for JSON export / CI).
    Headless,
}

/// Capture parameters for [`run_dashboard`].
#[derive(Debug, Clone, Copy)]
pub struct DashboardRun {
    /// Total simulated time to run.
    pub total: TimeDelta,
    /// Simulated time per captured frame (also the gauge period).
    pub frame_span: TimeDelta,
    /// Ring capacity — frames retained at the end.
    pub capacity: usize,
    /// Live repaint or silent headless capture.
    pub mode: DashboardMode,
}

/// Builds a chain with per-cube gauges, runs `workload` for `run.total`
/// simulated time capturing one frame every `run.frame_span` into a
/// `run.capacity`-deep ring, and returns the dashboard.
pub fn run_dashboard(
    cfg: &SystemConfig,
    topo: Topology,
    workload: &Workload,
    run: DashboardRun,
) -> Dashboard {
    let mut sys = SystemBuilder::new(cfg.clone())
        .topology(topo)
        .metrics(run.frame_span)
        .build_chain();
    sys.apply_workload(workload);
    sys.start(Time::ZERO);
    let mut dash = Dashboard::new(sys.cubes(), run.capacity);
    let frames = (run.total.as_ps() / run.frame_span.as_ps().max(1)).max(1);
    for _ in 0..frames {
        sys.run_for(run.frame_span);
        dash.capture(&sys);
        if let DashboardMode::Live { refresh_ms } = run.mode {
            // ANSI: clear screen, home cursor, repaint.
            print!("\x1b[2J\x1b[H{}", dash.render());
            std::thread::sleep(std::time::Duration::from_millis(refresh_ms));
        }
    }
    dash
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_types::RequestKind;
    use hmc_types::RequestSize;

    #[test]
    fn ring_wraps_and_iterates_oldest_first() {
        let mut r = Ring::new(3);
        assert!(r.is_empty());
        for i in 0..5 {
            r.push(i);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.capacity(), 3);
        let got: Vec<i32> = r.iter().copied().collect();
        assert_eq!(got, vec![2, 3, 4]);
        assert_eq!(r.last(), Some(&4));
    }

    #[test]
    fn headless_dashboard_fills_the_ring_and_dumps_json() {
        let dash = run_dashboard(
            &SystemConfig::default(),
            Topology::chain(2),
            &Workload::full_scale(RequestKind::ReadOnly, RequestSize::new(64).unwrap()),
            DashboardRun {
                total: TimeDelta::from_us(20),
                frame_span: TimeDelta::from_us(1),
                capacity: 8,
                mode: DashboardMode::Headless,
            },
        );
        assert_eq!(dash.frames().len(), 8, "ring retains the newest frames");
        let last = dash.frames().last().expect("frames captured");
        assert_eq!(last.cubes.len(), 2);
        assert!(
            last.cubes.iter().any(|c| c.bandwidth_gbs > 0.0),
            "a saturated chain moves bytes"
        );
        let json = dash.to_json();
        assert!(json.starts_with("{\"capacity\":8,\"frames\":["));
        assert!(json.contains("\"bandwidth_gbs\""));
        assert!(json.contains("\"mailbox\""));
        assert_eq!(
            json.matches("\"t_ps\"").count(),
            8,
            "one object per retained frame"
        );
        let panel = dash.render();
        assert!(panel.contains("chain dashboard"));
        assert!(panel.contains("bw history"));
    }

    #[test]
    fn frames_carry_the_sample_stamped_at_their_instant() {
        // Each frame's gauges are the samples stamped at the frame's own
        // instant: the step to a frame bound flushes the sample due
        // there, so no frame shows its predecessor's gauges.
        let mut sys = SystemBuilder::new(SystemConfig::default())
            .topology(Topology::chain(4))
            .metrics(TimeDelta::from_us(1))
            .build_chain();
        sys.apply_workload(&Workload::full_scale(
            RequestKind::ReadOnly,
            RequestSize::new(64).unwrap(),
        ));
        sys.start(Time::ZERO);
        let mut dash = Dashboard::new(sys.cubes(), 4);
        for _ in 0..6 {
            sys.run_for(TimeDelta::from_us(1));
            dash.capture(&sys);
            let frame = dash.frames().last().expect("frame captured");
            for (s, c) in frame.cubes.iter().enumerate() {
                let smp = sys.metrics(s).expect("metrics enabled");
                for (name, shown) in [
                    ("host.outstanding", c.outstanding),
                    ("device.vault_queued", c.vault_queued),
                    ("chain.mailbox", c.mailbox),
                ] {
                    let last = smp.get(name).and_then(|x| x.points().last().copied());
                    assert_eq!(last, Some((frame.at, shown)), "cube {s} {name}");
                }
            }
        }
    }

    /// The frame stream of a saturated 4-cube chain is pinned by its
    /// FNV-1a 64 hash and byte length. Every field but `mailbox` carries
    /// the bytes recorded when the chain could still run on 1 or 4 epoch
    /// worker threads; `mailbox` was re-recorded when it came to count
    /// every message in flight toward a cube.
    #[test]
    fn dashboard_json_is_identical_across_worker_counts() {
        let json = run_dashboard(
            &SystemConfig::default(),
            Topology::chain(4),
            &Workload::full_scale(RequestKind::ReadOnly, RequestSize::new(64).unwrap()),
            DashboardRun {
                total: TimeDelta::from_us(10),
                frame_span: TimeDelta::from_us(1),
                capacity: 16,
                mode: DashboardMode::Headless,
            },
        )
        .to_json();
        let fnv = json.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        assert_eq!(
            (fnv, json.len()),
            (0x511b_7634_5c93_438f, 6261),
            "frame stream drifted from the pinned bytes"
        );
    }
}
