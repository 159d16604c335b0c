//! Host controller configuration.

use hmc_types::{ChainShard, Frequency, LinkConfig, TimeDelta};
use sim_engine::ZipfSampler;

use crate::admission::OpenLoopConfig;
use crate::controller::{RxPath, TxStages};

/// Host-side fault-robustness layer: per-request deadlines, bounded
/// retransmission with exponential backoff, and link-death degradation.
///
/// Disabled by default — with `enabled = false` the host performs no
/// deadline bookkeeping, schedules no timeout events, and is bit-identical
/// to a host built without the layer. Enable it when running fault
/// scenarios (`repro faults`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RobustnessConfig {
    /// Master enable. Off = zero behavioural and allocation change.
    pub enabled: bool,
    /// Deadline per transmission attempt, measured from the moment the
    /// request enters (or re-enters) a transmit node. Must exceed the
    /// worst-case loaded round trip (~25 µs at full scale, Figure 16) or
    /// healthy traffic is retransmitted.
    pub request_timeout: TimeDelta,
    /// Retransmission attempts after the original before the host gives
    /// up and force-completes the request (counted as abandoned).
    pub max_retries: u32,
    /// First retry backoff; attempt `k` waits `backoff_base << (k-1)`.
    pub backoff_base: TimeDelta,
    /// Consecutive timeouts on one link before the host declares it dead
    /// and reroutes its traffic onto the surviving links (never kills the
    /// last live link).
    pub link_death_threshold: u32,
}

impl Default for RobustnessConfig {
    fn default() -> Self {
        RobustnessConfig {
            enabled: false,
            request_timeout: TimeDelta::from_us(50),
            max_retries: 4,
            backoff_base: TimeDelta::from_us(1),
            link_death_threshold: 16,
        }
    }
}

/// Configuration of the FPGA-side controller and GUPS design.
///
/// Defaults follow the AC-510 infrastructure: a 187.5 MHz fabric, nine
/// usable GUPS ports (ten minus one reserved for system use) split across
/// two `hmc_node`s, and 64-entry read tag pools per port.
#[derive(Debug, Clone, PartialEq)]
pub struct HostConfig {
    /// Fabric clock (187.5 MHz on the Kintex UltraScale design).
    pub frequency: Frequency,
    /// Usable GUPS ports.
    pub num_ports: usize,
    /// External links (each backed by one `hmc_node`).
    pub links: LinkConfig,
    /// Read tag pool depth per port.
    pub tag_pool_depth: usize,
    /// Requests an `hmc_node` buffers before raising the stop signal to
    /// its ports (the request flow-control unit of Figure 14).
    pub node_queue_depth: usize,
    /// TX pipeline stage budget.
    pub tx: TxStages,
    /// RX pipeline budget.
    pub rx: RxPath,
    /// Addressable memory size the generators draw from (4 GB device).
    /// In a chain this is the capacity of **one** cube; the global space
    /// the generators cover is `memory_capacity × shard.cubes()`.
    pub memory_capacity: u64,
    /// Fault-robustness layer (timeouts, retries, link death). Off by
    /// default.
    pub robust: RobustnessConfig,
    /// Cube shard applied to generated addresses. The single-cube identity
    /// shard by default (no behavioural change outside chain topologies).
    pub shard: ChainShard,
    /// First request sequence number this host hands out. Chain topologies
    /// give each sharded host a disjoint id range so device-side ledgers
    /// keyed by request id never collide; zero for single hosts.
    pub request_id_base: u64,
    /// Extra entropy folded into every port generator seed. Zero (inert)
    /// for single hosts; chain topologies salt each sharded host so the
    /// hosts draw decorrelated address streams.
    pub rng_salt: u64,
    /// Open-loop multi-tenant arrival frontend plus admission control.
    /// `None` (the default) allocates nothing and leaves the closed-loop
    /// host bit-identical to earlier revisions.
    pub openloop: Option<OpenLoopConfig>,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            frequency: Frequency::FPGA_187_5_MHZ,
            num_ports: 9,
            links: LinkConfig::ac510(),
            tag_pool_depth: 64,
            node_queue_depth: 16,
            tx: TxStages::default(),
            rx: RxPath::default(),
            memory_capacity: 4 << 30,
            robust: RobustnessConfig::default(),
            shard: ChainShard::SINGLE,
            request_id_base: 0,
            rng_salt: 0,
            openloop: None,
        }
    }
}

impl HostConfig {
    /// The `hmc_node` (and therefore external link) a port transmits on.
    /// Ports are dealt round-robin so that small-scale GUPS (few active
    /// ports, Figures 17/18) exercises every link: with nine ports and
    /// two links, even ports use link 0 and odd ports link 1.
    pub fn node_of_port(&self, port: usize) -> usize {
        port % self.links.num_links() as usize
    }

    /// One fabric clock period.
    pub fn cycle(&self) -> TimeDelta {
        self.frequency.period()
    }

    /// One popularity sampler per open-loop tenant, over its hot set
    /// (empty without [`openloop`](HostConfig::openloop)). They depend
    /// only on each tenant's `hot_items` and `zipf_theta`, not on
    /// [`rng_salt`](HostConfig::rng_salt), so a chain builds them once
    /// and hands every host a clone through
    /// [`Host::with_tenant_samplers`](crate::Host::with_tenant_samplers).
    pub fn tenant_samplers(&self) -> Vec<ZipfSampler> {
        self.openloop.as_ref().map_or_else(Vec::new, |o| {
            o.tenants
                .iter()
                .map(|spec| ZipfSampler::new(spec.hot_items.max(1), spec.zipf_theta))
                .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_ac510() {
        let c = HostConfig::default();
        assert_eq!(c.num_ports, 9);
        assert_eq!(c.tag_pool_depth, 64);
        assert_eq!(c.links.num_links(), 2);
        assert_eq!(c.cycle().as_ps(), 5_333);
    }

    #[test]
    fn robustness_defaults_off() {
        let r = RobustnessConfig::default();
        assert!(!r.enabled, "robustness must not perturb clean runs");
        assert!(r.request_timeout > TimeDelta::from_us(25));
        assert!(r.max_retries > 0);
        assert!(r.link_death_threshold > 0);
        assert_eq!(HostConfig::default().robust, r);
    }

    #[test]
    fn port_to_node_round_robin() {
        let c = HostConfig::default();
        let nodes: Vec<usize> = (0..9).map(|p| c.node_of_port(p)).collect();
        assert_eq!(nodes, vec![0, 1, 0, 1, 0, 1, 0, 1, 0]);
        // Five ports land on node 0, four on node 1 — the 10-port design
        // with one reserved port.
        assert_eq!(nodes.iter().filter(|&&n| n == 0).count(), 5);
    }
}
