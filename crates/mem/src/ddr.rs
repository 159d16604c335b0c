//! A DDR3-style DIMM — the synchronous-bus baseline the HMC results are
//! contrasted against.
//!
//! The paper frames HMC against JEDEC DIMMs: a DIMM has a handful of banks
//! behind one shared 64-bit data bus, large (2 KB) rows managed with an
//! open-page policy, deterministic access latency, and no packetization
//! overhead. [`DdrDevice`] models exactly those properties behind the
//! same [`MemoryBackend`](mem_backend::MemoryBackend) contract and the
//! same host as the HMC device, so the harness can measure:
//!
//! * the **latency premium of HMC's packet-switched interface** (the paper
//!   estimates the HMC in-cube latency at ≈2× a typical DRAM access);
//! * the **row-hit benefit of open-page linear access** that HMC's
//!   closed-page policy deliberately gives up (Figure 13's context);
//! * the **bandwidth ceiling of a synchronous bus** (12.8 GB/s for
//!   DDR3-1600) versus HMC's concurrent vaults.
//!
//! Every host port feeds the *same* memory channel: one controller, a
//! handful of banks with real per-bank queues, and one shared data bus
//! all ports compete for. Banks run an open-page policy with the
//! [`DdrConfig`] timings: a row hit pays tCL, a miss pays (tRP +) tRCD +
//! tCL, and every access then waits its turn on the shared bus.
//!
//! # Example
//!
//! ```
//! use hmc_mem::{DdrConfig, DdrDevice};
//! use hmc_types::packet::OpKind;
//! use hmc_types::{
//!     Address, CubeId, MemoryRequest, PortId, RequestId, RequestSize, Tag, TenantTag, Time,
//! };
//! use mem_backend::MemoryBackend;
//!
//! let mut dimm = DdrDevice::new(DdrConfig::ddr3_1600());
//! let req = MemoryRequest {
//!     id: RequestId::new(0),
//!     port: PortId::new(0),
//!     tag: Tag::new(0),
//!     op: OpKind::Read,
//!     size: RequestSize::new(64)?,
//!     cube: CubeId::new(0),
//!     addr: Address::new(0x1000),
//!     issued_at: Time::ZERO,
//!     data_token: 0,
//!     tenant: TenantTag::NONE,
//! };
//! dimm.submit(0, req, Time::ZERO).expect("an idle port has credits");
//! let mut out = Vec::new();
//! while out.is_empty() {
//!     let t = dimm.next_time().expect("the read is in flight");
//!     dimm.advance_instant(t, &mut out);
//! }
//! assert!(out[0].at.as_ns_f64() < 100.0, "one access is tens of ns");
//! # Ok::<(), hmc_types::HmcError>(())
//! ```

use std::collections::VecDeque;

use hmc_types::{DramTimingFloor, MemoryRequest, Time, TimeDelta};
use mem_backend::AddressLayout;

use crate::channels::{ChannelDevice, Channels, FrontEnd, PortConfig};

/// DDR timing, geometry and host ports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DdrConfig {
    /// Banks on the DIMM.
    pub banks: usize,
    /// Row (page) size in bytes — 2 KB typical at rank level.
    pub row_bytes: u64,
    /// Activate-to-CAS delay.
    pub t_rcd: TimeDelta,
    /// CAS latency.
    pub t_cl: TimeDelta,
    /// Precharge.
    pub t_rp: TimeDelta,
    /// Data-bus time per 64 B burst (also the CAS-to-CAS floor).
    pub burst_time: TimeDelta,
    /// Queue slots per bank inside the controller.
    pub bank_queue_depth: usize,
    /// Host-facing ports, all feeding the one channel. Their latency is
    /// the controller/PHY overhead per access (command queueing,
    /// synchronous handshake) — no packetization, so it is small.
    pub ports: PortConfig,
}

impl DdrConfig {
    /// DDR3-1600: 11-11-11 timings, 8 banks, 12.8 GB/s bus.
    pub fn ddr3_1600() -> Self {
        DdrConfig {
            banks: 8,
            row_bytes: 2048,
            t_rcd: TimeDelta::from_ps(13_750),
            t_cl: TimeDelta::from_ps(13_750),
            t_rp: TimeDelta::from_ps(13_750),
            // 64 B burst over a 64-bit bus at 1600 MT/s: 5 ns.
            burst_time: TimeDelta::from_ns(5),
            bank_queue_depth: 16,
            ports: PortConfig {
                num_ports: 2,
                port_queue_depth: 32,
                latency: TimeDelta::from_ns(15),
            },
        }
    }

    /// Peak data-bus bandwidth in bytes per second.
    pub fn peak_bandwidth_bytes_per_sec(&self) -> f64 {
        64.0 / self.burst_time.as_secs_f64()
    }
}

/// The event-driven DIMM: per-port ingress credits, per-bank command
/// queues, one shared data bus.
pub type DdrDevice = ChannelDevice<DdrBanks>;

#[derive(Debug, Clone, Copy, Default)]
struct BankState {
    busy_until: Time,
    open_row: Option<u64>,
}

/// The DIMM's bank model: open-page banks, each woken as one unit, with
/// per-bank queues and one shared data bus.
#[derive(Debug)]
pub struct DdrBanks {
    cfg: DdrConfig,
    banks: Vec<BankState>,
    queues: Vec<VecDeque<MemoryRequest>>,
    bus_free: Time,
    row_hits: u64,
    activations: u64,
}

impl DdrBanks {
    /// Bank and row of an address: rows are interleaved across banks so
    /// consecutive rows land in different banks, while accesses within a
    /// row stay in one bank.
    pub(crate) fn decode(&self, addr: u64) -> (usize, u64) {
        let row_index = addr / self.cfg.row_bytes;
        (
            usize::try_from(row_index % self.cfg.banks as u64).expect("bank index fits usize"),
            row_index / self.cfg.banks as u64,
        )
    }
}

impl DdrDevice {
    /// Row hits observed.
    pub fn row_hits(&self) -> u64 {
        self.model.row_hits
    }

    /// Row activations issued.
    pub fn activations(&self) -> u64 {
        self.model.activations
    }
}

impl Channels for DdrBanks {
    type Config = DdrConfig;
    const LABEL: &'static str = "ddr3-1600";

    fn new(cfg: DdrConfig) -> Self {
        DdrBanks {
            banks: vec![BankState::default(); cfg.banks],
            queues: (0..cfg.banks).map(|_| VecDeque::new()).collect(),
            bus_free: Time::ZERO,
            row_hits: 0,
            activations: 0,
            cfg,
        }
    }

    fn ports(&self) -> PortConfig {
        self.cfg.ports
    }

    fn units(&self) -> usize {
        self.cfg.banks
    }

    fn capacity(&self) -> usize {
        self.cfg.banks * self.cfg.bank_queue_depth
    }

    fn unit_of(&self, req: &MemoryRequest) -> usize {
        self.decode(req.addr.as_u64()).0
    }

    fn has_space(&self, b: usize) -> bool {
        self.queues[b].len() < self.cfg.bank_queue_depth
    }

    fn accept(&mut self, b: usize, req: MemoryRequest, _now: Time) {
        self.queues[b].push_back(req);
    }

    fn next_ready(&self, b: usize) -> Option<Time> {
        (!self.queues[b].is_empty()).then_some(self.banks[b].busy_until)
    }

    /// Issues the bank's queue head while the bank is free: a CAS on a
    /// row hit, else (precharge +) activate + CAS, then serialization on
    /// the shared data bus. Returns the queue slots freed.
    fn start(&mut self, fe: &mut FrontEnd, b: usize, now: Time) -> usize {
        let mut started = 0;
        while self.banks[b].busy_until <= now {
            let Some(req) = self.queues[b].pop_front() else {
                break;
            };
            let (_, row) = self.decode(req.addr.as_u64());
            let cfg = &self.cfg;
            // (latency to first data, how long the bank refuses new commands)
            let (to_data, occupy) = if self.banks[b].open_row == Some(row) {
                self.row_hits += 1;
                // Back-to-back CAS: bank ready again after one burst.
                (cfg.t_cl, cfg.burst_time)
            } else {
                let pre = if self.banks[b].open_row.is_some() {
                    cfg.t_rp
                } else {
                    TimeDelta::ZERO
                };
                self.activations += 1;
                self.banks[b].open_row = Some(row);
                (pre + cfg.t_rcd + cfg.t_cl, pre + cfg.t_rcd)
            };
            let bursts = req.size.bytes().div_ceil(64).max(1);
            let bus_start = (now + to_data).max(self.bus_free);
            let done = bus_start + cfg.burst_time.saturating_mul(bursts);
            self.bus_free = done;
            self.banks[b].busy_until = now + occupy;
            fe.start(req, done);
            started += 1;
        }
        started
    }

    fn queued(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    fn busy_banks(&self, now: Time) -> usize {
        self.banks.iter().filter(|b| b.busy_until > now).count()
    }

    fn channels_in_flight(&self, now: Time) -> usize {
        // A DIMM has exactly one channel; it is in flight whenever any
        // bank is mid-access or has queued work.
        let busy = self
            .banks
            .iter()
            .zip(&self.queues)
            .any(|(b, q)| b.busy_until > now || !q.is_empty());
        usize::from(busy)
    }

    fn timing_floor(&self) -> Option<DramTimingFloor> {
        // The DDR bank FSM differs from the stacked-DRAM floor the
        // sanitizer models, so only the structural checks are armed:
        // credits, queue bounds, and event-time monotonicity.
        None
    }

    fn address_layout(&self) -> AddressLayout {
        let bank_shift = self.cfg.row_bytes.trailing_zeros();
        let bank_bits = (self.cfg.banks as u64).trailing_zeros();
        AddressLayout::new("ddr3-rank")
            .field("bank", bank_shift, bank_bits)
            .field("row", bank_shift + bank_bits, 64 - (bank_shift + bank_bits))
    }

    fn dump_units(&self, at: Time, s: &mut String) {
        use std::fmt::Write as _;
        for (b, q) in self.queues.iter().enumerate() {
            if !q.is_empty() || self.banks[b].busy_until > at {
                writeln!(
                    s,
                    "  bank {b}: queued={} busy_until={}",
                    q.len(),
                    self.banks[b].busy_until
                )
                .expect("writing to a String cannot fail");
            }
        }
    }

    fn reset(&mut self, resume: Time) {
        self.banks.fill(BankState {
            busy_until: resume,
            open_row: None,
        });
        self.queues.iter_mut().for_each(VecDeque::clear);
        self.bus_free = self.bus_free.max(resume);
    }
}
