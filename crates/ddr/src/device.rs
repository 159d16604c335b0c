//! Event-driven DDR DIMM backend: DDR3 timing behind the
//! [`MemoryBackend`] contract, so the conventional baseline runs on the
//! **full host path** — admission, tags, reordering, retries — exactly
//! like the HMC device it is compared against.
//!
//! The topology is the honest conventional contrast to HMC: every host
//! port feeds the *same* memory channel. One controller, a handful of
//! banks with real per-bank queues, and one shared 64-bit data bus whose
//! 12.8 GB/s ceiling all ports compete for. The HMC device answers the
//! same host traffic with 16–64 vaults; this device answers it with one
//! bus — that asymmetry is Figure 9's entire story.
//!
//! Banks run an open-page policy with the [`DdrConfig`] timings: a row
//! hit pays tCL, a miss pays (tRP +) tRCD + tCL, and every access then
//! waits its turn on the shared data bus.

use hmc_types::packet::OpKind;
use hmc_types::{MemoryRequest, MemoryResponse, Time, TimeDelta};
use mem_backend::{AddressLayout, BackendOutput, CoreStats, MemoryBackend};
use sim_engine::{BoundedQueue, EventQueue, IdTable, MetricsSampler, Sanitizer, Tracer};

use crate::DdrConfig;

/// Configuration of the event-driven DIMM backend.
#[derive(Debug, Clone, PartialEq)]
pub struct DdrDeviceConfig {
    /// DRAM timing and geometry.
    pub ddr: DdrConfig,
    /// Host-facing ports. All of them feed the one channel.
    pub num_ports: usize,
    /// Request slots per port (the credit window the host sees).
    pub port_queue_depth: usize,
    /// Queue slots per bank inside the controller.
    pub bank_queue_depth: usize,
}

impl Default for DdrDeviceConfig {
    fn default() -> Self {
        DdrDeviceConfig {
            ddr: DdrConfig::ddr3_1600(),
            num_ports: 2,
            port_queue_depth: 32,
            bank_queue_depth: 16,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct BankState {
    busy_until: Time,
    open_row: Option<u64>,
}

#[derive(Debug, Clone)]
enum DdrEvent {
    /// A request cleared the controller's pipelined front end on `port`.
    Arrive { port: usize },
    /// A bank may be free to issue its next queued command.
    Wake { bank: u16, seq: u64 },
    /// A burst finished on the data bus; the response leaves.
    Return { port: usize, resp: MemoryResponse },
}

/// The event-driven DIMM: per-port ingress credits, per-bank command
/// queues, one shared data bus. Drive it through [`MemoryBackend`].
#[derive(Debug)]
pub struct DdrDevice {
    cfg: DdrDeviceConfig,
    ports: Vec<BoundedQueue<MemoryRequest>>,
    /// Per-port count of queued requests past the controller front end.
    eligible: Vec<usize>,
    banks: Vec<BankState>,
    bank_queues: Vec<std::collections::VecDeque<MemoryRequest>>,
    /// Port each in-flight request arrived on (response routing).
    arrival_port: IdTable<usize>,
    bus_free: Time,
    wake_at: Vec<Option<Time>>,
    wake_seq: Vec<u64>,
    events: EventQueue<DdrEvent>,
    event_bound: usize,
    reads: u64,
    writes: u64,
    data_read_bytes: u64,
    data_write_bytes: u64,
    row_hits: u64,
    activations: u64,
    now: Time,
    tracer: Tracer,
    sanitizer: Sanitizer,
}

impl DdrDevice {
    /// Builds an idle device from its configuration.
    pub fn new(cfg: DdrDeviceConfig) -> Self {
        let banks = cfg.ddr.banks;
        let event_bound =
            cfg.num_ports * cfg.port_queue_depth + banks * (cfg.bank_queue_depth + 1) + banks + 64;
        DdrDevice {
            ports: (0..cfg.num_ports)
                .map(|_| BoundedQueue::new(cfg.port_queue_depth))
                .collect(),
            eligible: vec![0; cfg.num_ports],
            banks: vec![BankState::default(); banks],
            bank_queues: (0..banks)
                .map(|_| std::collections::VecDeque::new())
                .collect(),
            arrival_port: IdTable::new(),
            bus_free: Time::ZERO,
            wake_at: vec![None; banks],
            wake_seq: vec![0; banks],
            events: EventQueue::with_capacity(256),
            event_bound,
            reads: 0,
            writes: 0,
            data_read_bytes: 0,
            data_write_bytes: 0,
            row_hits: 0,
            activations: 0,
            now: Time::ZERO,
            tracer: Tracer::new(&hmc_types::trace::Stage::NAMES),
            sanitizer: Sanitizer::new(),
            cfg,
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &DdrDeviceConfig {
        &self.cfg
    }

    /// Row hits observed.
    pub fn row_hits(&self) -> u64 {
        self.row_hits
    }

    /// Row activations issued.
    pub fn activations(&self) -> u64 {
        self.activations
    }

    /// Bank and row of an address: rows are interleaved across banks so
    /// consecutive rows land in different banks, while accesses within a
    /// row stay in one bank.
    pub(crate) fn decode(&self, addr: u64) -> (usize, u64) {
        let row_index = addr / self.cfg.ddr.row_bytes;
        (
            usize::try_from(row_index % self.cfg.ddr.banks as u64).expect("bank index fits usize"),
            row_index / self.cfg.ddr.banks as u64,
        )
    }

    /// Moves front-end-cleared requests from port FIFO heads into bank
    /// queues (head-of-line blocking per port).
    fn route_port(&mut self, port: usize, now: Time) {
        while self.eligible[port] > 0 {
            let Some(req) = self.ports[port].front().copied() else {
                break;
            };
            let (b, _) = self.decode(req.addr.as_u64());
            if self.bank_queues[b].len() >= self.cfg.bank_queue_depth {
                break;
            }
            let req = self.ports[port].pop(now).expect("front() was Some");
            self.eligible[port] -= 1;
            self.sanitizer.credit_release(port, now);
            self.arrival_port.insert(req.id.value(), port);
            self.bank_queues[b].push_back(req);
            self.arm_wake(b, now);
        }
    }

    /// Issues the head of a bank's queue if the bank is free: a CAS on a
    /// row hit, else (precharge +) activate + CAS, then serialization on
    /// the shared data bus.
    fn issue(&mut self, b: usize, now: Time) {
        loop {
            if self.banks[b].busy_until > now {
                break;
            }
            let Some(req) = self.bank_queues[b].pop_front() else {
                break;
            };
            let (_, row) = self.decode(req.addr.as_u64());
            // (latency to first data, how long the bank refuses new commands)
            let ddr = &self.cfg.ddr;
            let (to_data, occupy) = if self.banks[b].open_row == Some(row) {
                self.row_hits += 1;
                // Back-to-back CAS: bank ready again after one burst.
                (ddr.t_cl, ddr.burst_time)
            } else {
                let pre = if self.banks[b].open_row.is_some() {
                    ddr.t_rp
                } else {
                    TimeDelta::ZERO
                };
                self.activations += 1;
                self.banks[b].open_row = Some(row);
                (pre + ddr.t_rcd + ddr.t_cl, pre + ddr.t_rcd)
            };
            let bytes = req.size.bytes();
            let bursts = bytes.div_ceil(64).max(1);
            let bus_start = (now + to_data).max(self.bus_free);
            let done = bus_start + self.cfg.ddr.burst_time.saturating_mul(bursts);
            self.bus_free = done;
            self.banks[b].busy_until = now + occupy;
            match req.op {
                OpKind::Read => {
                    self.reads += 1;
                    self.data_read_bytes += bytes;
                }
                OpKind::Write => {
                    self.writes += 1;
                    self.data_write_bytes += bytes;
                }
            }
            let port = self
                .arrival_port
                .remove(req.id.value())
                .expect("every routed request recorded its port");
            let resp = MemoryResponse {
                id: req.id,
                port: req.port,
                tag: req.tag,
                op: req.op,
                size: req.size,
                cube: req.cube,
                addr: req.addr,
                issued_at: req.issued_at,
                completed_at: done,
                data_token: req.data_token,
                tenant: req.tenant,
            };
            self.events.push(done, DdrEvent::Return { port, resp });
        }
        self.arm_wake(b, now);
        // A freed bank-queue slot may unblock any port's head.
        for p in 0..self.ports.len() {
            self.route_port(p, now);
        }
    }

    /// Arms a bank's single live issue opportunity (supersede-by-sequence,
    /// same discipline as the HMC vault wakes).
    fn arm_wake(&mut self, b: usize, now: Time) {
        if self.bank_queues[b].is_empty() {
            return;
        }
        let t = self.banks[b].busy_until.max(now);
        if let Some(w) = self.wake_at[b] {
            if w <= t {
                return;
            }
        }
        self.wake_seq[b] += 1;
        self.wake_at[b] = Some(t);
        self.events.push(
            t,
            DdrEvent::Wake {
                bank: u16::try_from(b).expect("bank index fits u16"),
                seq: self.wake_seq[b],
            },
        );
    }

    fn handle(&mut self, ev: DdrEvent, now: Time, out: &mut Vec<BackendOutput>) {
        match ev {
            DdrEvent::Arrive { port } => {
                self.eligible[port] += 1;
                self.route_port(port, now);
            }
            DdrEvent::Wake { bank, seq } => {
                let b = bank as usize;
                if seq != self.wake_seq[b] {
                    return; // superseded
                }
                self.wake_at[b] = None;
                self.issue(b, now);
            }
            DdrEvent::Return { port, resp } => {
                out.push(BackendOutput {
                    resp,
                    link: port,
                    at: now,
                });
            }
        }
    }
}

impl MemoryBackend for DdrDevice {
    fn label(&self) -> &'static str {
        "ddr3-1600"
    }

    fn num_links(&self) -> usize {
        self.ports.len()
    }

    fn address_layout(&self) -> AddressLayout {
        let bank_shift = self.cfg.ddr.row_bytes.trailing_zeros();
        let bank_bits = (self.cfg.ddr.banks as u64).trailing_zeros();
        AddressLayout::new("ddr3-rank")
            .field("bank", bank_shift, bank_bits)
            .field("row", bank_shift + bank_bits, 64 - (bank_shift + bank_bits))
    }

    fn free_slots(&self, link: usize) -> usize {
        self.ports[link].free()
    }

    fn submit(&mut self, link: usize, req: MemoryRequest, now: Time) -> Result<(), MemoryRequest> {
        debug_assert!(now >= self.now, "submit in the past");
        self.ports[link].try_push(req, now)?;
        self.sanitizer.credit_acquire(link, now);
        self.events.push(
            now + self.cfg.ddr.controller_overhead,
            DdrEvent::Arrive { port: link },
        );
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
            .check_queue_bound("ddr events", self.events.len(), self.event_bound, until);
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
            + self
                .bank_queues
                .iter()
                .map(std::collections::VecDeque::len)
                .sum::<usize>()
    }

    fn channels_in_flight(&self, now: Time) -> usize {
        // A DIMM has exactly one channel; it is in flight whenever any
        // bank is mid-access or has queued work.
        let busy = self
            .banks
            .iter()
            .zip(&self.bank_queues)
            .any(|(b, q)| b.busy_until > now || !q.is_empty());
        usize::from(busy)
    }

    fn core_stats(&self) -> CoreStats {
        CoreStats {
            reads_completed: self.reads,
            writes_completed: self.writes,
            data_read_bytes: self.data_read_bytes,
            data_write_bytes: self.data_write_bytes,
            // Synchronous bus: wire traffic is the payload itself.
            bytes_up: self.data_write_bytes,
            bytes_down: self.data_read_bytes,
        }
    }

    fn sample_metrics(&self, at: Time, s: &mut MetricsSampler) {
        s.record("device.vault_queued", at, self.total_queued() as f64);
        let busy = self.banks.iter().filter(|b| b.busy_until > at).count();
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
        // The DDR bank FSM differs from the stacked-DRAM floor the
        // sanitizer models, so only the structural checks are armed:
        // credits, queue bounds, and event-time monotonicity.
        self.sanitizer.enable(None);
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
        writeln!(s, "ddr @ {at}: {} pending events", self.events.len())
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
        for (b, q) in self.bank_queues.iter().enumerate() {
            if q.is_empty() && self.banks[b].busy_until <= at {
                continue;
            }
            writeln!(
                s,
                "  bank {b}: queued={} busy_until={}",
                q.len(),
                self.banks[b].busy_until
            )
            .expect("writing to a String cannot fail");
        }
        s
    }

    fn reset_after_shutdown(&mut self, resume: Time) {
        for q in &mut self.ports {
            while q.pop(resume).is_some() {}
        }
        self.eligible.iter_mut().for_each(|e| *e = 0);
        for b in &mut self.banks {
            *b = BankState::default();
            b.busy_until = resume;
        }
        for q in &mut self.bank_queues {
            q.clear();
        }
        // The wakes died with the event queue; a stale `wake_at` would
        // make `arm_wake` believe one is still pending.
        self.wake_at.iter_mut().for_each(|w| *w = None);
        self.arrival_port.clear();
        self.events.clear();
        self.sanitizer.credit_forget_all();
        self.bus_free = self.bus_free.max(resume);
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
            size: RequestSize::new(64).expect("valid"),
            cube: CubeId::new(0),
            addr: Address::new(addr),
            issued_at: Time::ZERO,
            data_token: 0,
            tenant: TenantTag::NONE,
        }
    }

    #[test]
    fn matches_analytic_unloaded_latency() {
        // One read on an idle DIMM lands at the closed-form sum:
        // 15 (ctrl) + 27.5 (tRCD+tCL) + 5 (burst) = 47.5 ns.
        let mut dev = DdrDevice::new(DdrDeviceConfig::default());
        dev.submit(0, req(0, 0, OpKind::Read), Time::ZERO).unwrap();
        let mut out = Vec::new();
        dev.advance(Time::from_ps(1_000_000), &mut out);
        assert_eq!(out.len(), 1);
        assert!((out[0].at.as_ns_f64() - 47.5).abs() < 0.1, "{}", out[0].at);
    }

    #[test]
    fn open_page_hits_on_linear_walk() {
        let mut dev = DdrDevice::new(DdrDeviceConfig::default());
        let mut out = Vec::new();
        let mut t = Time::ZERO;
        for i in 0..32u64 {
            while !dev.can_accept(0) {
                t += TimeDelta::from_ns(10);
                dev.advance(t, &mut out);
            }
            dev.submit(0, req(i, i * 64, OpKind::Read), t).unwrap();
        }
        dev.advance(Time::from_ps(100_000_000), &mut out);
        assert_eq!(out.len(), 32);
        assert!(dev.row_hits() > 20, "row hits {}", dev.row_hits());
    }

    #[test]
    fn shared_bus_serializes_both_ports() {
        // Saturate both ports with reads to distinct banks: completions
        // space out at one burst (5 ns) apiece — the single-channel
        // ceiling no amount of port or bank parallelism lifts.
        let mut dev = DdrDevice::new(DdrDeviceConfig::default());
        let mut out = Vec::new();
        for i in 0..16u64 {
            dev.submit((i % 2) as usize, req(i, i * 2048, OpKind::Read), Time::ZERO)
                .unwrap();
        }
        dev.advance(Time::from_ps(100_000_000), &mut out);
        assert_eq!(out.len(), 16);
        let mut times: Vec<Time> = out.iter().map(|o| o.at).collect();
        times.sort();
        for w in times.windows(2) {
            assert!(
                w[1].since(w[0]) >= TimeDelta::from_ns(5),
                "bursts overlap on the shared bus: {} then {}",
                w[0],
                w[1]
            );
        }
        assert_eq!(dev.channels_in_flight(Time::from_ps(100_000_000)), 0);
    }

    #[test]
    fn port_credits_bound_admission() {
        let cfg = DdrDeviceConfig {
            port_queue_depth: 2,
            ..DdrDeviceConfig::default()
        };
        let mut dev = DdrDevice::new(cfg);
        dev.submit(0, req(0, 0, OpKind::Read), Time::ZERO).unwrap();
        dev.submit(0, req(1, 64, OpKind::Read), Time::ZERO).unwrap();
        assert_eq!(dev.free_slots(0), 0);
        assert!(dev
            .submit(0, req(2, 128, OpKind::Read), Time::ZERO)
            .is_err());
    }

    #[test]
    fn double_run_determinism() {
        let run = || {
            let mut dev = DdrDevice::new(DdrDeviceConfig::default());
            let mut out = Vec::new();
            let mut t = Time::ZERO;
            for i in 0..300u64 {
                let op = if i % 4 == 0 {
                    OpKind::Write
                } else {
                    OpKind::Read
                };
                let addr = (i * 24_593) % (1 << 24);
                let port = (i % 2) as usize;
                if dev.can_accept(port) {
                    dev.submit(port, req(i, addr, op), t).unwrap();
                }
                t += TimeDelta::from_ns(7);
                dev.advance(t, &mut out);
            }
            dev.advance(Time::from_ps(200_000_000), &mut out);
            (out, dev.core_stats(), dev.events_processed())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn bank_serves_again_after_thermal_recovery() {
        // Two reads on bank 0 leave a wake armed for the second one; the
        // shutdown drops it with the event queue. The bank must still
        // serve the first request after resume.
        let mut dev = DdrDevice::new(DdrDeviceConfig::default());
        let mut out = Vec::new();
        dev.submit(0, req(0, 0, OpKind::Read), Time::ZERO).unwrap();
        dev.submit(0, req(1, 64, OpKind::Read), Time::ZERO).unwrap();
        dev.advance(Time::from_ps(20_000), &mut out);
        let resume = Time::from_ps(1_000_000);
        dev.reset_after_shutdown(resume);
        dev.submit(0, req(2, 0, OpKind::Read), resume).unwrap();
        dev.advance(Time::from_ps(2_000_000), &mut out);
        assert_eq!(
            out.iter().map(|o| o.resp.id.value()).collect::<Vec<_>>(),
            [2],
            "pending {}",
            dev.pending_events()
        );
    }

    #[test]
    fn layout_names_bank_bits() {
        let dev = DdrDevice::new(DdrDeviceConfig::default());
        let l = dev.address_layout();
        let bank = l.get("bank").expect("bank field");
        assert_eq!((bank.shift, bank.width), (11, 3), "2 KB rows, 8 banks");
    }
}
