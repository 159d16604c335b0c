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
//! validates. Requests cross the PHY in FIFO order per port, route to
//! their pseudo-channel by address bits, and responses cross back with
//! the same fixed latency.

use hmc_types::packet::OpKind;
use hmc_types::{
    AddressMapping, HmcSpec, HmcVersion, MemoryRequest, MemoryResponse, Time, TimeDelta,
};
use mem_backend::{AddressLayout, BackendOutput, CoreStats, MemoryBackend};
use sim_engine::{BoundedQueue, EventQueue, IdTable, MetricsSampler, Sanitizer, Tracer};

use crate::config::{DramTiming, MemConfig, PagePolicy, RefreshConfig, VaultConfig};
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
    /// Per-bank DRAM timing (the stacked-DRAM timing class).
    pub dram: DramTiming,
    /// Page policy (closed-page by default, like the HMC model).
    pub page_policy: PagePolicy,
    /// Per-pseudo-channel controller queue depths.
    pub vault: VaultConfig,
    /// Per-channel refresh cadence.
    pub refresh: RefreshConfig,
    /// Host-facing ports. Wide parallel AXI-style ports, not SerDes
    /// links; the count mirrors the host's link arrangement.
    pub num_ports: usize,
    /// Request slots per port (the credit window the host sees).
    pub port_queue_depth: usize,
    /// One-way PHY/interposer crossing latency, paid once per request
    /// and once per response — the whole link-layer cost of this
    /// technology.
    pub phy_latency: TimeDelta,
}

impl Default for HbmConfig {
    fn default() -> Self {
        let mem = MemConfig::default();
        HbmConfig {
            spec: HmcSpec::of(HmcVersion::Hmc2),
            mapping: mem.mapping,
            dram: mem.dram,
            page_policy: PagePolicy::ClosedPage,
            vault: mem.vault,
            refresh: mem.refresh,
            num_ports: 2,
            port_queue_depth: 32,
            phy_latency: TimeDelta::from_ns(10),
        }
    }
}

#[derive(Debug, Clone)]
enum HbmEvent {
    /// A request finished crossing the PHY on `port` and is eligible to
    /// route to its pseudo-channel.
    Arrive { port: usize },
    /// A pseudo-channel's earliest busy bank frees up.
    Wake { channel: u16, seq: u64 },
    /// Per-channel refresh tick.
    Refresh { channel: u16 },
    /// A response finished crossing the PHY back toward the host.
    Return { port: usize, resp: MemoryResponse },
}

/// The HBM-style device: 32 pseudo-channels, fixed-latency PHY, no
/// SerDes. Drive it through the [`MemoryBackend`] trait.
#[derive(Debug)]
pub struct HbmDevice {
    cfg: HbmConfig,
    /// Per-port ingress FIFO (the credit pool).
    ports: Vec<BoundedQueue<MemoryRequest>>,
    /// Per-port count of queued requests that already crossed the PHY.
    eligible: Vec<usize>,
    channels: Vec<Vault>,
    /// Port each in-flight request arrived on (response routing).
    arrival_port: IdTable<usize>,
    wake_at: Vec<Option<Time>>,
    wake_seq: Vec<u64>,
    events: EventQueue<HbmEvent>,
    event_bound: usize,
    refresh_multiplier: u32,
    data_read_bytes: u64,
    data_write_bytes: u64,
    now: Time,
    tracer: Tracer,
    sanitizer: Sanitizer,
}

impl HbmDevice {
    /// Builds an idle device from its configuration.
    pub fn new(cfg: HbmConfig) -> Self {
        let n = cfg.spec.num_vaults() as usize;
        // The vault controller reads geometry, mapping, timing, policy,
        // and queue depths out of a MemConfig; build one carrying the
        // HBM parameters so each pseudo-channel sees them.
        let mem = MemConfig {
            spec: cfg.spec,
            mapping: cfg.mapping,
            dram: cfg.dram,
            page_policy: cfg.page_policy,
            vault: cfg.vault,
            ..MemConfig::default()
        };
        let channels: Vec<Vault> = (0..n)
            .map(|c| Vault::new(u16::try_from(c).expect("channel index fits u16"), &mem))
            .collect();
        let mut events = EventQueue::with_capacity(1024);
        if cfg.refresh.enabled {
            let step = cfg.refresh.interval / n as u64;
            for c in 0..n {
                events.push(
                    Time::ZERO + step * (c as u64 + 1),
                    HbmEvent::Refresh {
                        channel: u16::try_from(c).expect("channel index fits u16"),
                    },
                );
            }
        }
        // Structural ceiling on pending events: one arrival per port
        // slot, one return per bank-queue entry, one wake + one refresh
        // per channel, with slack.
        let event_bound = cfg.num_ports * cfg.port_queue_depth
            + n * (cfg.vault.input_fifo_depth
                + cfg.spec.banks_per_vault() as usize * cfg.vault.bank_queue_depth)
            + 2 * n
            + 64;
        HbmDevice {
            ports: (0..cfg.num_ports)
                .map(|_| BoundedQueue::new(cfg.port_queue_depth))
                .collect(),
            eligible: vec![0; cfg.num_ports],
            cfg,
            channels,
            arrival_port: IdTable::new(),
            wake_at: vec![None; n],
            wake_seq: vec![0; n],
            events,
            event_bound,
            refresh_multiplier: 1,
            data_read_bytes: 0,
            data_write_bytes: 0,
            now: Time::ZERO,
            tracer: Tracer::new(&hmc_types::trace::Stage::NAMES),
            sanitizer: Sanitizer::new(),
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &HbmConfig {
        &self.cfg
    }

    fn channel_of(&self, req: &MemoryRequest) -> usize {
        self.cfg
            .mapping
            .decode(req.addr, &self.cfg.spec)
            .vault
            .index() as usize
    }

    /// Moves PHY-crossed requests from port FIFO heads into their
    /// pseudo-channel input FIFOs (head-of-line blocking per port).
    fn route_port(&mut self, port: usize, now: Time, out: &mut [BackendOutput]) {
        while self.eligible[port] > 0 {
            let Some(req) = self.ports[port].front().copied() else {
                break;
            };
            let c = self.channel_of(&req);
            if !self.channels[c].has_input_space() {
                break;
            }
            let req = self.ports[port].pop(now).expect("front() was Some");
            self.eligible[port] -= 1;
            self.sanitizer.credit_release(port, now);
            self.channels[c]
                .accept(req, now)
                .expect("checked for space");
            self.arrival_port.insert(req.id.value(), port);
            self.pump_channel(c, now, out);
        }
    }

    /// Drains a pseudo-channel's queues, starts every ready bank,
    /// schedules the response PHY crossings, and re-arms the wake.
    fn pump_channel(&mut self, c: usize, now: Time, _out: &mut [BackendOutput]) {
        let mut freed = 0;
        let mut started = Vec::new();
        loop {
            let moved = self.channels[c].drain_input(now);
            freed += moved;
            let before = started.len();
            self.channels[c].start_ready_checked(now, &mut started, &mut self.sanitizer);
            if moved == 0 && started.len() == before {
                break;
            }
        }
        for op in started {
            match op.req.op {
                OpKind::Read => self.data_read_bytes += op.req.size.bytes(),
                OpKind::Write => self.data_write_bytes += op.req.size.bytes(),
            }
            let port = self
                .arrival_port
                .remove(op.req.id.value())
                .expect("every routed request recorded its port");
            let resp = MemoryResponse {
                id: op.req.id,
                port: op.req.port,
                tag: op.req.tag,
                op: op.req.op,
                size: op.req.size,
                cube: op.req.cube,
                addr: op.req.addr,
                issued_at: op.req.issued_at,
                completed_at: op.response_at,
                data_token: op.req.data_token,
                tenant: op.req.tenant,
            };
            self.events.push(
                op.response_at + self.cfg.phy_latency,
                HbmEvent::Return { port, resp },
            );
        }
        if freed > 0 {
            // Freed input slots may unblock any port's head.
            for p in 0..self.ports.len() {
                self.retry_port(p, now);
            }
        }
        self.arm_wake(c, now);
    }

    /// Re-checks a port whose head may have been blocked on a full
    /// channel FIFO. Split from [`route_port`] to keep the re-entry
    /// out of `pump_channel`'s recursion (freed slots only move FIFO
    /// heads; any bank starts they enable come on the next wake).
    fn retry_port(&mut self, port: usize, now: Time) {
        while self.eligible[port] > 0 {
            let Some(req) = self.ports[port].front().copied() else {
                break;
            };
            let c = self.channel_of(&req);
            if !self.channels[c].has_input_space() {
                break;
            }
            let req = self.ports[port].pop(now).expect("front() was Some");
            self.eligible[port] -= 1;
            self.sanitizer.credit_release(port, now);
            self.channels[c]
                .accept(req, now)
                .expect("checked for space");
            self.arrival_port.insert(req.id.value(), port);
            self.arm_wake(c, now);
        }
    }

    /// Arms a channel's single live dispatch opportunity (same
    /// supersede-by-sequence discipline as the HMC device).
    fn arm_wake(&mut self, c: usize, now: Time) {
        if self.channels[c].queued() == 0 {
            return;
        }
        let Some(t) = self.channels[c].next_bank_ready() else {
            return;
        };
        let t = t.max(now + TimeDelta::from_ps(1));
        if let Some(w) = self.wake_at[c] {
            if w <= t {
                return;
            }
        }
        self.wake_seq[c] += 1;
        self.wake_at[c] = Some(t);
        self.events.push(
            t,
            HbmEvent::Wake {
                channel: u16::try_from(c).expect("channel index fits u16"),
                seq: self.wake_seq[c],
            },
        );
    }

    fn handle(&mut self, ev: HbmEvent, now: Time, out: &mut Vec<BackendOutput>) {
        match ev {
            HbmEvent::Arrive { port } => {
                self.eligible[port] += 1;
                self.route_port(port, now, out);
            }
            HbmEvent::Wake { channel, seq } => {
                let c = channel as usize;
                if seq != self.wake_seq[c] {
                    return; // superseded
                }
                self.wake_at[c] = None;
                self.pump_channel(c, now, out);
            }
            HbmEvent::Refresh { channel } => {
                let c = channel as usize;
                self.channels[c].hold_all(now + self.cfg.refresh.duration);
                let next = now + self.cfg.refresh.interval / u64::from(self.refresh_multiplier);
                self.events.push(next, HbmEvent::Refresh { channel });
                self.arm_wake(c, now);
            }
            HbmEvent::Return { port, resp } => {
                out.push(BackendOutput {
                    resp: MemoryResponse {
                        completed_at: now,
                        ..resp
                    },
                    link: port,
                    at: now,
                });
            }
        }
    }
}

impl MemoryBackend for HbmDevice {
    fn label(&self) -> &'static str {
        "hbm"
    }

    fn num_links(&self) -> usize {
        self.ports.len()
    }

    fn address_layout(&self) -> AddressLayout {
        // The pseudo-channel field occupies the mapping's vault bits —
        // same bits the host's generators interleave on.
        let mut l =
            AddressLayout::of_mapping("hbm-pseudo-channel", self.cfg.mapping, &self.cfg.spec);
        let vault = l.get("vault").expect("of_mapping defines vault");
        l = AddressLayout::new("hbm-pseudo-channel")
            .field("vault", vault.shift, vault.width)
            .field("channel", vault.shift, vault.width)
            .field(
                "bank",
                self.cfg.mapping.bank_shift(&self.cfg.spec),
                self.cfg.spec.bank_bits(),
            )
            .field(
                "row",
                self.cfg.mapping.row_shift(&self.cfg.spec),
                64 - self.cfg.mapping.row_shift(&self.cfg.spec),
            );
        l
    }

    fn free_slots(&self, link: usize) -> usize {
        self.ports[link].free()
    }

    fn submit(&mut self, link: usize, req: MemoryRequest, now: Time) -> Result<(), MemoryRequest> {
        debug_assert!(now >= self.now, "submit in the past");
        self.ports[link].try_push(req, now)?;
        self.sanitizer.credit_acquire(link, now);
        self.events
            .push(now + self.cfg.phy_latency, HbmEvent::Arrive { port: link });
        Ok(())
    }

    fn next_time(&self) -> Option<Time> {
        self.events.peek_time()
    }

    fn now(&self) -> Time {
        self.now
    }

    fn pending_events(&self) -> usize {
        self.events.len()
    }

    fn advance(&mut self, until: Time, out: &mut Vec<BackendOutput>) {
        self.sanitizer
            .check_queue_bound("hbm events", self.events.len(), self.event_bound, until);
        while let Some((t, ev)) = self.events.pop_before(until) {
            self.sanitizer.check_event_time(t);
            self.now = self.now.max(t);
            self.handle(ev, t, out);
        }
        self.now = self.now.max(until);
    }

    fn events_processed(&self) -> u64 {
        self.events.total_popped()
    }

    fn total_queued(&self) -> usize {
        self.ports.iter().map(BoundedQueue::len).sum::<usize>()
            + self.channels.iter().map(Vault::queued).sum::<usize>()
    }

    fn channels_in_flight(&self, now: Time) -> usize {
        self.channels
            .iter()
            .filter(|c| c.queued() > 0 || c.busy_banks(now) > 0)
            .count()
    }

    fn core_stats(&self) -> CoreStats {
        let reads: u64 = self.channels.iter().map(|c| c.stats().reads).sum();
        let writes: u64 = self.channels.iter().map(|c| c.stats().writes).sum();
        CoreStats {
            reads_completed: reads,
            writes_completed: writes,
            data_read_bytes: self.data_read_bytes,
            data_write_bytes: self.data_write_bytes,
            // No packetization: wire traffic is the payload itself.
            bytes_up: self.data_write_bytes,
            bytes_down: self.data_read_bytes,
        }
    }

    fn sample_metrics(&self, at: Time, s: &mut MetricsSampler) {
        s.record("device.vault_queued", at, self.total_queued() as f64);
        let busy: usize = self.channels.iter().map(|c| c.busy_banks(at)).sum();
        s.record("device.busy_banks", at, busy as f64);
        s.record(
            "device.channels_in_flight",
            at,
            self.channels_in_flight(at) as f64,
        );
        let credits: usize = self.ports.iter().map(BoundedQueue::free).sum();
        s.record("device.ingress_credits", at, credits as f64);
    }

    fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    fn enable_sanitizer(&mut self) {
        let floor = match self.cfg.page_policy {
            PagePolicy::ClosedPage => Some(self.cfg.spec.timing_floor()),
            PagePolicy::OpenPage => None,
        };
        self.sanitizer.enable(floor);
        let pools = vec![self.cfg.port_queue_depth; self.ports.len()];
        self.sanitizer.set_credit_pools(&pools);
    }

    fn sanitizer(&self) -> &Sanitizer {
        &self.sanitizer
    }

    fn sanitizer_mut(&mut self) -> &mut Sanitizer {
        &mut self.sanitizer
    }

    fn diagnostic_dump(&self, at: Time) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        writeln!(s, "hbm @ {at}: {} pending events", self.events.len())
            .expect("writing to a String cannot fail");
        for (p, q) in self.ports.iter().enumerate() {
            writeln!(
                s,
                "  port {p}: queued={} eligible={}",
                q.len(),
                self.eligible[p]
            )
            .expect("writing to a String cannot fail");
        }
        for (c, ch) in self.channels.iter().enumerate() {
            if ch.queued() == 0 {
                continue;
            }
            writeln!(
                s,
                "  channel {c}: queued={} busy_banks={}",
                ch.queued(),
                ch.busy_banks(at)
            )
            .expect("writing to a String cannot fail");
        }
        s
    }

    fn set_refresh_multiplier(&mut self, m: u32) {
        self.refresh_multiplier = m.max(1);
    }

    fn refresh_multiplier(&self) -> u32 {
        self.refresh_multiplier
    }

    fn reset_after_shutdown(&mut self, resume: Time) {
        for c in 0..self.channels.len() {
            self.channels[c].reset_state(resume);
        }
        for q in &mut self.ports {
            while q.pop(resume).is_some() {}
        }
        self.eligible.iter_mut().for_each(|e| *e = 0);
        self.arrival_port.clear();
        self.events.clear();
        self.sanitizer.credit_forget_all();
        if self.cfg.refresh.enabled {
            let n = self.channels.len();
            let step = self.cfg.refresh.interval / n as u64;
            for c in 0..n {
                self.events.push(
                    resume + step * (c as u64 + 1),
                    HbmEvent::Refresh {
                        channel: u16::try_from(c).expect("channel index fits u16"),
                    },
                );
            }
        }
        self.now = self.now.max(resume);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_types::{Address, CubeId, PortId, RequestId, RequestSize, Tag, TenantTag};

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
        assert_eq!(dev.channels.len(), 32);
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
        let cfg = HbmConfig {
            port_queue_depth: 4,
            ..HbmConfig::default()
        };
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
