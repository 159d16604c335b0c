//! Multi-cube chain characterization: what the paper's single-cube
//! methodology predicts once cubes are daisy-chained.
//!
//! Three questions, three sweeps:
//!
//! * **Aggregate bandwidth vs chain length** — each cube brings its own
//!   host links and DRAM, so cube-interleaved read traffic should scale
//!   nearly linearly until pass-through traffic saturates the inter-cube
//!   hops. The shape check asserts ≥ 1.8× at two cubes under the
//!   cube-interleaved 16-vault `ro` workload.
//! * **Remote-access latency vs hop count** — an unloaded pointer chase
//!   pinned at increasing distances must show a *constant* per-hop adder
//!   equal to the modeled pass-through cost (one request plus one
//!   response serialization per hop).
//! * **Near/far asymmetry** — the same workload served by the local cube
//!   vs the chain's far end: bandwidth holds (tandem links pipeline) but
//!   latency does not, the asymmetry NUMA-aware placement would exploit.

use hmc_host::Workload;
use hmc_types::{Address, CubeId, RequestKind, RequestSize, Time, TimeDelta};

use crate::builder::SystemBuilder;
use crate::measure::MeasureConfig;
use crate::report::{f1, f2, JsonReport, Table};
use crate::system::SystemConfig;
use crate::topology::{ChainSystem, Topology};

/// One chain length of the aggregate-bandwidth sweep.
#[derive(Debug, Clone, Copy)]
pub struct ChainPoint {
    /// Number of cubes in the chain.
    pub cubes: u8,
    /// Aggregate counted read bandwidth across all hosts, GB/s.
    pub bandwidth_gbs: f64,
    /// Aggregate completed requests, millions per second.
    pub mrps: f64,
    /// Mean read latency over the window, ns.
    pub mean_latency_ns: f64,
    /// Scaling relative to the single-cube point.
    pub speedup: f64,
}

/// One hop distance of the latency ladder.
#[derive(Debug, Clone, Copy)]
pub struct HopPoint {
    /// Hops between the issuing host and the serving cube.
    pub hops: u32,
    /// Unloaded mean read latency at this distance, ns.
    pub mean_latency_ns: f64,
    /// Measured latency minus the zero-hop point, ns.
    pub measured_adder_ns: f64,
    /// `hops ×` the modeled per-hop pass-through cost, ns.
    pub modeled_adder_ns: f64,
}

/// The near/far bandwidth-asymmetry measurement.
#[derive(Debug, Clone, Copy)]
pub struct NearFar {
    /// Bandwidth with host 0 pinned to its own cube, GB/s.
    pub near_bandwidth_gbs: f64,
    /// Bandwidth with host 0 pinned to the far end of the chain, GB/s.
    pub far_bandwidth_gbs: f64,
    /// Unloaded mean latency to the local cube, ns. Loaded latency is
    /// useless for the asymmetry: a saturated tag pool pins outstanding
    /// requests, so Little's law forces equal mean latency whenever the
    /// bottleneck rate is equal — the extra hops hide in in-flight
    /// buffering. The unloaded chase exposes them.
    pub near_latency_ns: f64,
    /// Unloaded mean latency to the far cube, ns.
    pub far_latency_ns: f64,
    /// Hops to the far cube.
    pub far_hops: u32,
}

/// The full chain characterization — what `repro chain` renders and
/// exports.
#[derive(Debug, Clone)]
pub struct ChainReport {
    /// The topology the sweep scaled up to.
    pub topology: Topology,
    /// Aggregate bandwidth at each chain length `1..=cubes`.
    pub scaling: Vec<ChainPoint>,
    /// The latency ladder over the longest chain.
    pub ladder: Vec<HopPoint>,
    /// Near/far asymmetry over the longest chain.
    pub near_far: NearFar,
}

/// Measures aggregate read bandwidth of an `n`-cube chain with every
/// sharded host running the cube-interleaved 16-vault `ro` workload.
fn measure_chain(cfg: &SystemConfig, topo: Topology, mc: &MeasureConfig) -> (f64, f64, f64) {
    let mut sys = SystemBuilder::new(cfg.clone()).topology(topo).build_chain();
    sys.apply_workload(&Workload::full_scale(
        RequestKind::ReadOnly,
        RequestSize::MAX,
    ));
    sys.start(Time::ZERO);
    sys.step_until(Time::ZERO + mc.warmup);
    sys.reset_stats();
    sys.step_until(Time::ZERO + mc.warmup + mc.window);
    let s = sys.host_stats();
    (
        s.bandwidth_gbs(mc.window),
        s.mrps(mc.window),
        s.read_latency.mean().as_ns_f64(),
    )
}

/// Unloaded pointer-chase mean latency from host 0 to cube `target` of a
/// chain, refresh disabled so the round trip is exact.
fn chase_latency(cfg: &SystemConfig, topo: Topology, target: u8) -> f64 {
    let mut c = cfg.clone();
    c.mem.refresh.enabled = false;
    let mut sys = ChainSystem::new(c, topo);
    let size = RequestSize::new(128).expect("128 B is a valid request size");
    let addrs: Vec<Address> = (0..64u64).map(|i| Address::new(i * 4096)).collect();
    sys.host_mut(0)
        .apply_workload(&Workload::DependentChain { addrs, size });
    sys.host_mut(0).set_cube_pin(Some(CubeId::new(target)));
    sys.start(Time::ZERO);
    assert!(
        sys.run_until_idle(TimeDelta::from_ms(10)),
        "pointer chase to cube {target} did not drain"
    );
    sys.host(0).stats().read_latency.mean().as_ns_f64()
}

/// Loaded single-host measurement pinned at `target`, for the near/far
/// asymmetry.
fn pinned_bandwidth(
    cfg: &SystemConfig,
    topo: Topology,
    target: u8,
    mc: &MeasureConfig,
) -> (f64, f64) {
    let mut sys = ChainSystem::new(cfg.clone(), topo);
    sys.host_mut(0).apply_workload(&Workload::full_scale(
        RequestKind::ReadOnly,
        RequestSize::MAX,
    ));
    sys.host_mut(0).set_cube_pin(Some(CubeId::new(target)));
    sys.host_mut(0).start(Time::ZERO);
    sys.step_until(Time::ZERO + mc.warmup);
    sys.reset_stats();
    sys.step_until(Time::ZERO + mc.warmup + mc.window);
    let s = sys.host(0).stats();
    (
        s.bandwidth_gbs(mc.window),
        s.read_latency.mean().as_ns_f64(),
    )
}

/// Runs the full chain characterization up to `topo.cubes()` cubes.
///
/// # Panics
///
/// Panics if any run fails to drain, or if the shape checks fail: the
/// two-cube chain must deliver ≥ 1.8× one cube's aggregate read
/// bandwidth, and every ladder rung must sit exactly on the modeled
/// per-hop adder.
pub fn characterize(cfg: &SystemConfig, topo: Topology, mc: &MeasureConfig) -> ChainReport {
    let max = topo.cubes();
    assert!(max >= 2, "chain characterization needs at least two cubes");

    // Aggregate-bandwidth scaling, N = 1..=max.
    let mut scaling = Vec::new();
    let mut base = 0.0;
    for n in 1..=max {
        let sub = match topo.arrangement() {
            crate::topology::Arrangement::Chain => Topology::chain(n),
            crate::topology::Arrangement::Star => {
                if n == 1 {
                    Topology::single()
                } else {
                    Topology::star(n)
                }
            }
        }
        .with_interleave(topo.interleave());
        let (bw, mrps, lat) = measure_chain(cfg, sub, mc);
        if n == 1 {
            base = bw;
        }
        scaling.push(ChainPoint {
            cubes: n,
            bandwidth_gbs: bw,
            mrps,
            mean_latency_ns: lat,
            speedup: bw / base,
        });
    }

    // Latency ladder: pinned unloaded chases at every reachable distance.
    let near = chase_latency(cfg, topo, 0);
    let probe = ChainSystem::new(cfg.clone(), topo);
    let modeled_ns = probe
        .modeled_hop_adder(RequestSize::new(128).expect("valid size"))
        .as_ns_f64();
    let mut ladder = Vec::new();
    for target in 0..max {
        let hops = topo.hops(0, target);
        let lat = if target == 0 {
            near
        } else {
            chase_latency(cfg, topo, target)
        };
        ladder.push(HopPoint {
            hops,
            mean_latency_ns: lat,
            measured_adder_ns: lat - near,
            modeled_adder_ns: hops as f64 * modeled_ns,
        });
    }

    // Near/far asymmetry at the chain's extremes: loaded runs supply the
    // bandwidth halves, the unloaded ladder endpoints the latency halves
    // (see the `NearFar` field docs for why loaded latency cannot).
    let (near_bw, _) = pinned_bandwidth(cfg, topo, 0, mc);
    let (far_bw, _) = pinned_bandwidth(cfg, topo, max - 1, mc);
    let near_far = NearFar {
        near_bandwidth_gbs: near_bw,
        far_bandwidth_gbs: far_bw,
        near_latency_ns: ladder[0].mean_latency_ns,
        far_latency_ns: ladder[max as usize - 1].mean_latency_ns,
        far_hops: topo.hops(0, max - 1),
    };

    let report = ChainReport {
        topology: topo,
        scaling,
        ladder,
        near_far,
    };
    report.shape_check();
    report
}

impl ChainReport {
    /// The acceptance assertions of the chain model, run on every
    /// characterization (and therefore in CI's chain smoke job):
    ///
    /// * two cubes ≥ 1.8× one cube's aggregate read bandwidth;
    /// * every ladder rung within 1 ns of `hops × modeled adder` (f64
    ///   mean division is the only slack);
    /// * far latency strictly above near, far bandwidth not above near
    ///   by more than noise.
    ///
    /// # Panics
    ///
    /// Panics when a check fails.
    pub fn shape_check(&self) {
        let two = self
            .scaling
            .iter()
            .find(|p| p.cubes == 2)
            .expect("sweep includes the two-cube point");
        assert!(
            two.speedup >= 1.8,
            "two-cube aggregate bandwidth scaled only {:.2}x (need >= 1.8x)",
            two.speedup
        );
        for p in &self.ladder {
            assert!(
                (p.measured_adder_ns - p.modeled_adder_ns).abs() < 1.0,
                "hop {} adder {:.1} ns != modeled {:.1} ns",
                p.hops,
                p.measured_adder_ns,
                p.modeled_adder_ns
            );
        }
        let nf = &self.near_far;
        assert!(
            nf.far_latency_ns > nf.near_latency_ns,
            "far latency {:.1} ns must exceed near {:.1} ns",
            nf.far_latency_ns,
            nf.near_latency_ns
        );
        assert!(
            nf.far_bandwidth_gbs <= nf.near_bandwidth_gbs * 1.05,
            "far bandwidth {:.1} exceeds near {:.1} beyond noise",
            nf.far_bandwidth_gbs,
            nf.near_bandwidth_gbs
        );
    }

    /// The scaling sweep as a text table.
    pub fn scaling_table(&self) -> Table {
        let mut t = Table::new(
            format!(
                "Aggregate read bandwidth vs chain length ({})",
                self.topology
            ),
            &["cubes", "GB/s", "MR/s", "mean ns", "speedup"],
        );
        for p in &self.scaling {
            t.row(vec![
                p.cubes.to_string(),
                f1(p.bandwidth_gbs),
                f1(p.mrps),
                f1(p.mean_latency_ns),
                f2(p.speedup),
            ]);
        }
        t
    }

    /// The latency ladder as a text table.
    pub fn ladder_table(&self) -> Table {
        let mut t = Table::new(
            "Remote-access latency vs hop count (unloaded pointer chase)",
            &["hops", "mean ns", "adder ns", "modeled ns"],
        );
        for p in &self.ladder {
            t.row(vec![
                p.hops.to_string(),
                f1(p.mean_latency_ns),
                f1(p.measured_adder_ns),
                f1(p.modeled_adder_ns),
            ]);
        }
        t
    }

    /// The near/far asymmetry as a text table.
    pub fn near_far_table(&self) -> Table {
        let mut t = Table::new(
            "Near/far asymmetry (host 0 pinned)",
            &["target", "hops", "GB/s", "mean ns"],
        );
        let nf = &self.near_far;
        t.row(vec![
            "near (local cube)".into(),
            "0".into(),
            f1(nf.near_bandwidth_gbs),
            f1(nf.near_latency_ns),
        ]);
        t.row(vec![
            "far (chain end)".into(),
            nf.far_hops.to_string(),
            f1(nf.far_bandwidth_gbs),
            f1(nf.far_latency_ns),
        ]);
        t
    }
}

impl JsonReport for ChainReport {
    fn kind(&self) -> &'static str {
        "chain"
    }

    fn json(&self) -> String {
        let mut s = format!(
            "{{\"arrangement\":\"{}\",\"cubes\":{},\"interleave\":\"{}\",\"scaling\":[",
            self.topology.arrangement(),
            self.topology.cubes(),
            self.topology.interleave(),
        );
        for (i, p) in self.scaling.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"cubes\":{},\"bandwidth_gbs\":{},\"mrps\":{},\
                 \"mean_latency_ns\":{},\"speedup\":{}}}",
                p.cubes, p.bandwidth_gbs, p.mrps, p.mean_latency_ns, p.speedup
            ));
        }
        s.push_str("],\"ladder\":[");
        for (i, p) in self.ladder.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"hops\":{},\"mean_latency_ns\":{},\"measured_adder_ns\":{},\
                 \"modeled_adder_ns\":{}}}",
                p.hops, p.mean_latency_ns, p.measured_adder_ns, p.modeled_adder_ns
            ));
        }
        let nf = &self.near_far;
        s.push_str(&format!(
            "],\"near_far\":{{\"near_bandwidth_gbs\":{},\"far_bandwidth_gbs\":{},\
             \"near_latency_ns\":{},\"far_latency_ns\":{},\"far_hops\":{}}}}}",
            nf.near_bandwidth_gbs,
            nf.far_bandwidth_gbs,
            nf.near_latency_ns,
            nf.far_latency_ns,
            nf.far_hops
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_cube_chain_characterization_passes_shape_checks() {
        // characterize() runs shape_check() internally: >= 1.8x scaling at
        // two cubes, exact ladder adders, far latency above near.
        let r = characterize(
            &SystemConfig::default(),
            Topology::chain(2),
            &MeasureConfig::quick(),
        );
        assert_eq!(r.scaling.len(), 2);
        assert_eq!(r.ladder.len(), 2);
        assert!(r.scaling[0].bandwidth_gbs > 10.0, "one cube underperforms");
        let json = r.json();
        assert!(json.contains("\"cubes\":2"));
        assert!(json.contains("\"ladder\""));
        assert_eq!(r.kind(), "chain");
        assert!(!r.scaling_table().is_empty());
        assert!(!r.ladder_table().is_empty());
        assert_eq!(r.near_far_table().len(), 2);
    }

    #[test]
    fn ladder_adder_is_constant_per_hop_over_three_cubes() {
        let cfg = SystemConfig::default();
        let topo = Topology::chain(3);
        let l0 = chase_latency(&cfg, topo, 0);
        let l1 = chase_latency(&cfg, topo, 1);
        let l2 = chase_latency(&cfg, topo, 2);
        let one_hop = l1 - l0;
        let two_hop = l2 - l0;
        assert!(
            (two_hop - 2.0 * one_hop).abs() < 1.0,
            "per-hop adder not constant: 1 hop {one_hop:.1} ns, 2 hops {two_hop:.1} ns"
        );
    }
}
