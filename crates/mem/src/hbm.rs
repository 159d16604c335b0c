//! An HBM-style stacked-DRAM backend: many narrow pseudo-channels behind
//! a wide, fixed-latency PHY — and **no** packet-link/SerDes layer.
//!
//! The contrast with the HMC device is the point (grounded in
//! "Benchmarking High Bandwidth Memory on FPGAs"): HBM trades HMC's
//! serialized, packetized, CRC-protected links for a 2.5D interposer
//! crossing with pipeline latency only, and exposes its concurrency as
//! 32 independent pseudo-channels instead of 16 vaults behind a
//! crossbar. Under the same host pipeline this shows up as (a) lower
//! unloaded latency — no serialization, packetization, or retry-buffer
//! cost, and (b) roughly twice the sustainable channels-in-flight.
//!
//! Each pseudo-channel reuses the vault controller machinery
//! ([`Vault`]): an input FIFO, per-bank queues, and a shared data bus,
//! with the same closed-page timing discipline the sanitizer's FSM
//! validates. Requests cross the PHY (the [`ChannelDevice`] front-end
//! latency) in FIFO order per port, route to their pseudo-channel by
//! address bits, and responses cross back with the same fixed latency.

use hmc_types::{
    AddressMapping, DramTimingFloor, HmcSpec, HmcVersion, MemoryRequest, Time, TimeDelta,
};
use mem_backend::AddressLayout;

use crate::channels::{ChannelDevice, Channels, FrontEnd, PortConfig};
use crate::config::{DramTiming, MemConfig, RefreshConfig, VaultConfig};
use crate::vault::Vault;

/// Configuration of the HBM-style backend.
#[derive(Debug, Clone, PartialEq)]
pub struct HbmConfig {
    /// Stack geometry. The vault count is the pseudo-channel count; the
    /// default is the 32-vault HMC 2.0 geometry, matching HBM2's 32
    /// pseudo-channels.
    pub spec: HmcSpec,
    /// Address bit-field layout (shared with the host's generators).
    pub mapping: AddressMapping,
    /// Per-bank DRAM timing (the stacked-DRAM timing class), run
    /// closed-page like the HMC model.
    pub dram: DramTiming,
    /// Per-pseudo-channel controller queue depths.
    pub vault: VaultConfig,
    /// Per-channel refresh cadence.
    pub refresh: RefreshConfig,
    /// Wide parallel AXI-style ports, not SerDes links. Their latency is
    /// the one-way PHY/interposer crossing, paid once per request and
    /// once per response — the whole link-layer cost of this technology.
    pub ports: PortConfig,
}

impl Default for HbmConfig {
    fn default() -> Self {
        let mem = MemConfig::default();
        HbmConfig {
            spec: HmcSpec::of(HmcVersion::Hmc2),
            mapping: mem.mapping,
            dram: mem.dram,
            vault: mem.vault,
            refresh: mem.refresh,
            ports: PortConfig {
                num_ports: 2,
                port_queue_depth: 32,
                latency: TimeDelta::from_ns(10),
            },
        }
    }
}

/// The HBM-style device: 32 pseudo-channels, fixed-latency PHY, no
/// SerDes. Drive it through the [`MemoryBackend`](mem_backend::MemoryBackend) trait.
pub type HbmDevice = ChannelDevice<HbmChannels>;

/// HBM's bank model: closed-page pseudo-channels with refresh, each
/// woken as one unit.
#[derive(Debug)]
pub struct HbmChannels {
    cfg: HbmConfig,
    channels: Vec<Vault>,
}

impl Channels for HbmChannels {
    type Config = HbmConfig;
    const LABEL: &'static str = "hbm";

    fn new(cfg: HbmConfig) -> Self {
        // The vault controller reads geometry, mapping, timing and
        // queue depths out of a MemConfig; build one carrying the HBM
        // parameters so each pseudo-channel sees them.
        let mem = MemConfig {
            spec: cfg.spec,
            mapping: cfg.mapping,
            dram: cfg.dram,
            vault: cfg.vault,
            ..MemConfig::default()
        };
        let channels = (0..cfg.spec.num_vaults())
            .map(|c| Vault::new(u16::try_from(c).expect("channel index fits u16"), &mem))
            .collect();
        HbmChannels { cfg, channels }
    }

    fn ports(&self) -> PortConfig {
        self.cfg.ports
    }

    fn units(&self) -> usize {
        self.channels.len()
    }

    fn capacity(&self) -> usize {
        let banks = self.cfg.spec.banks_per_vault() as usize;
        let per_channel = self.cfg.vault.input_fifo_depth + banks * self.cfg.vault.bank_queue_depth;
        self.channels.len() * per_channel
    }

    fn unit_of(&self, req: &MemoryRequest) -> usize {
        self.cfg
            .mapping
            .decode(req.addr, &self.cfg.spec)
            .vault
            .index() as usize
    }

    fn has_space(&self, c: usize) -> bool {
        self.channels[c].has_input_space()
    }

    fn accept(&mut self, c: usize, req: MemoryRequest, now: Time) {
        self.channels[c]
            .accept(req, now)
            .expect("checked for space");
    }

    fn next_ready(&self, c: usize) -> Option<Time> {
        if self.channels[c].queued() == 0 {
            return None;
        }
        self.channels[c].next_bank_ready()
    }

    /// Drains the channel's input FIFO and starts every ready bank; the
    /// responses cross the PHY back. Returns the input slots drained.
    fn start(&mut self, fe: &mut FrontEnd, c: usize, now: Time) -> usize {
        let mut freed = 0;
        let mut started = Vec::new();
        loop {
            let moved = self.channels[c].drain_input(now);
            freed += moved;
            let before = started.len();
            self.channels[c].start_ready_checked(now, &mut started, &mut fe.sanitizer);
            if moved == 0 && started.len() == before {
                break;
            }
        }
        for op in started {
            fe.start(op.req, op.response_at + fe.latency);
        }
        freed
    }

    fn on_arrival(&mut self, fe: &mut FrontEnd, c: usize, now: Time) {
        fe.pump(self, c, now);
    }

    fn refresh(&mut self, fe: &mut FrontEnd, c: usize, now: Time) {
        self.channels[c].hold_all(now + self.cfg.refresh.duration);
        let interval = self.cfg.refresh.interval / u64::from(fe.refresh_multiplier);
        fe.refresh_at(now + interval, c);
        fe.arm(self, c, now);
    }

    fn schedule_refresh(&self, fe: &mut FrontEnd, from: Time) {
        if self.cfg.refresh.enabled {
            let step = self.cfg.refresh.interval / self.channels.len() as u64;
            for c in 0..self.channels.len() {
                fe.refresh_at(from + step * (c as u64 + 1), c);
            }
        }
    }

    fn queued(&self) -> usize {
        self.channels.iter().map(Vault::queued).sum()
    }

    fn busy_banks(&self, now: Time) -> usize {
        self.channels.iter().map(|c| c.busy_banks(now)).sum()
    }

    fn channels_in_flight(&self, now: Time) -> usize {
        self.channels
            .iter()
            .filter(|c| c.queued() > 0 || c.busy_banks(now) > 0)
            .count()
    }

    fn timing_floor(&self) -> Option<DramTimingFloor> {
        Some(self.cfg.spec.timing_floor())
    }

    fn address_layout(&self) -> AddressLayout {
        // The pseudo-channel field occupies the mapping's vault bits —
        // the same bits the host's generators interleave on.
        let (mapping, spec) = (self.cfg.mapping, &self.cfg.spec);
        let (shift, width) = (mapping.vault_shift_for(spec), spec.vault_bits());
        let row = mapping.row_shift(spec);
        AddressLayout::new("hbm-pseudo-channel")
            .field("vault", shift, width)
            .field("channel", shift, width)
            .field("bank", mapping.bank_shift(spec), spec.bank_bits())
            .field("row", row, 64 - row)
    }

    fn dump_units(&self, at: Time, s: &mut String) {
        use std::fmt::Write as _;
        for (c, ch) in self.channels.iter().enumerate() {
            if ch.queued() > 0 {
                writeln!(
                    s,
                    "  channel {c}: queued={} busy_banks={}",
                    ch.queued(),
                    ch.busy_banks(at)
                )
                .expect("writing to a String cannot fail");
            }
        }
    }

    fn reset(&mut self, resume: Time) {
        for ch in &mut self.channels {
            ch.reset_state(resume);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_types::packet::OpKind;
    use hmc_types::{Address, CubeId, PortId, RequestId, RequestSize, Tag, TenantTag};
    use mem_backend::MemoryBackend;

    fn req(id: u64, addr: u64, op: OpKind) -> MemoryRequest {
        MemoryRequest {
            id: RequestId::new(id),
            port: PortId::new(0),
            tag: Tag::new(0),
            op,
            size: RequestSize::new(128).expect("valid"),
            cube: CubeId::new(0),
            addr: Address::new(addr),
            issued_at: Time::ZERO,
            data_token: 0,
            tenant: TenantTag::NONE,
        }
    }

    #[test]
    fn thirty_two_pseudo_channels() {
        let dev = HbmDevice::new(HbmConfig::default());
        assert_eq!(dev.model.channels.len(), 32);
        assert_eq!(dev.num_links(), 2);
        let layout = dev.address_layout();
        assert_eq!(layout.get("channel").unwrap().width, 5, "2^5 = 32 PCs");
    }

    #[test]
    fn read_latency_is_phy_plus_dram() {
        let mut dev = HbmDevice::new(HbmConfig::default());
        dev.submit(0, req(0, 0, OpKind::Read), Time::ZERO).unwrap();
        let mut out = Vec::new();
        dev.advance(Time::from_ps(10_000_000), &mut out);
        assert_eq!(out.len(), 1);
        // 10 ns PHY in + 50 ns tRCD+tCL + 16 ns bus (4 beats) + 10 ns
        // PHY out = 86 ns. No SerDes, no packetization.
        assert_eq!(out[0].at.as_ns_f64(), 86.0);
        assert_eq!(out[0].link, 0);
        let s = dev.core_stats();
        assert_eq!(s.reads_completed, 1);
        assert_eq!(s.data_read_bytes, 128);
    }

    #[test]
    fn consecutive_blocks_spread_across_channels() {
        let mut dev = HbmDevice::new(HbmConfig::default());
        for i in 0..8 {
            dev.submit(0, req(i, i * 128, OpKind::Read), Time::ZERO)
                .unwrap();
        }
        let mut out = Vec::new();
        // Past the PHY crossing (10 ns) but before the 86 ns completion:
        // all eight banks are mid-access.
        dev.advance(Time::from_ps(30_000), &mut out);
        assert!(out.is_empty());
        assert_eq!(dev.channels_in_flight(Time::from_ps(30_000)), 8);
    }

    #[test]
    fn port_credits_bound_admission() {
        let mut cfg = HbmConfig::default();
        cfg.ports.port_queue_depth = 4;
        let mut dev = HbmDevice::new(cfg);
        assert_eq!(dev.free_slots(0), 4);
        for i in 0..4 {
            dev.submit(0, req(i, i * 128, OpKind::Read), Time::ZERO)
                .unwrap();
        }
        assert_eq!(dev.free_slots(0), 0);
        assert!(!dev.can_accept(0));
        assert!(dev.submit(0, req(9, 0, OpKind::Read), Time::ZERO).is_err());
    }

    #[test]
    fn writes_complete_and_count() {
        let mut dev = HbmDevice::new(HbmConfig::default());
        dev.submit(1, req(0, 256, OpKind::Write), Time::ZERO)
            .unwrap();
        let mut out = Vec::new();
        dev.advance(Time::from_ps(10_000_000), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].link, 1);
        assert_eq!(dev.core_stats().writes_completed, 1);
        assert_eq!(dev.core_stats().data_write_bytes, 128);
    }

    #[test]
    fn double_run_determinism() {
        let run = || {
            let mut dev = HbmDevice::new(HbmConfig::default());
            let mut out = Vec::new();
            let mut t = Time::ZERO;
            for i in 0..200u64 {
                // A deterministic scattered stream with both ops.
                let op = if i % 3 == 0 {
                    OpKind::Write
                } else {
                    OpKind::Read
                };
                let addr = (i * 12_289) % (1 << 20);
                let port = (i % 2) as usize;
                if dev.can_accept(port) {
                    dev.submit(port, req(i, addr, op), t).unwrap();
                }
                t += TimeDelta::from_ns(20);
                dev.advance(t, &mut out);
            }
            dev.advance(Time::from_ps(100_000_000), &mut out);
            (out, dev.core_stats(), dev.events_processed())
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    #[test]
    fn sanitized_run_is_clean_and_bit_identical() {
        let run = |armed: bool| {
            let mut dev = HbmDevice::new(HbmConfig::default());
            if armed {
                dev.enable_sanitizer();
            }
            let mut out = Vec::new();
            for i in 0..100u64 {
                let addr = (i * 40_961) % (1 << 22);
                dev.submit((i % 2) as usize, req(i, addr, OpKind::Read), Time::ZERO)
                    .ok();
            }
            dev.advance(Time::from_ps(100_000_000), &mut out);
            if armed {
                dev.sanitizer_mut()
                    .check_drained(Time::from_ps(100_000_000));
                assert!(
                    dev.sanitizer().report().is_clean(),
                    "{}",
                    dev.sanitizer().report()
                );
            }
            out
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn refresh_holds_channels() {
        let mut dev = HbmDevice::new(HbmConfig::default());
        // Sit past several refresh intervals with no traffic.
        let mut out = Vec::new();
        dev.advance(Time::from_ps(20_000_000_000), &mut out);
        assert!(out.is_empty());
        assert!(dev.events_processed() > 0, "refresh ticked");
    }
}
