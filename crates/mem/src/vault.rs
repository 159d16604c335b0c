//! The per-vault memory controller: input FIFO, one queue per bank, and
//! the shared 32 B-granular TSV data bus.

use hmc_types::packet::OpKind;
use hmc_types::{AddressMapping, HmcSpec, MemoryRequest, Time};
use sim_engine::{BankOp, BoundedQueue, Sanitizer};

use crate::config::{DramTiming, MemConfig, PagePolicy};
use crate::dram::Bank;

/// Cumulative activity counters for one vault.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VaultStats {
    /// Read operations completed by the banks.
    pub reads: u64,
    /// Write operations completed by the banks.
    pub writes: u64,
    /// Payload bytes moved over the TSV data bus.
    pub data_bytes: u64,
}

/// An operation the vault has committed to a bank, with its computed
/// timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StartedOp {
    /// The request being serviced.
    pub req: MemoryRequest,
    /// Bank index within the vault.
    pub bank: usize,
    /// When the vault emits the response toward the crossbar (reads: data
    /// fully on the bus; writes: data absorbed and acknowledged).
    pub response_at: Time,
    /// When the bank can begin its next access.
    pub bank_free_at: Time,
}

/// One vault: its controller queues, banks, and data bus.
///
/// Requests arrive into a small shared input FIFO; the controller moves
/// them into per-bank queues (head-of-line blocking when the target bank's
/// queue is full), and each bank services its queue one closed-page access
/// at a time. All banks share one TSV data bus reserved in 32 B beats.
#[derive(Debug, Clone)]
pub struct Vault {
    id: u16,
    input: BoundedQueue<MemoryRequest>,
    bank_queues: Vec<BoundedQueue<MemoryRequest>>,
    /// Bit `b` is set while bank `b`'s queue holds work, so the start
    /// and wake-up scans visit only those banks.
    queued_banks: u64,
    banks: Vec<Bank>,
    bus_free_at: Time,
    timing: DramTiming,
    policy: PagePolicy,
    mapping: AddressMapping,
    spec: HmcSpec,
    stats: VaultStats,
}

impl Vault {
    /// Creates an idle vault with the configured queue depths.
    pub fn new(id: u16, config: &MemConfig) -> Self {
        let banks = config.spec.banks_per_vault() as usize;
        assert!(
            banks <= 64,
            "{banks} banks per vault do not fit the queued-bank mask"
        );
        Vault {
            id,
            input: BoundedQueue::new(config.vault.input_fifo_depth),
            bank_queues: (0..banks)
                .map(|_| BoundedQueue::new(config.vault.bank_queue_depth))
                .collect(),
            queued_banks: 0,
            banks: vec![Bank::new(); banks],
            bus_free_at: Time::ZERO,
            timing: config.dram,
            policy: config.page_policy,
            mapping: config.mapping,
            spec: config.spec,
            stats: VaultStats::default(),
        }
    }

    /// The vault's index.
    pub fn id(&self) -> u16 {
        self.id
    }

    /// True if the input FIFO can take another request.
    pub fn has_input_space(&self) -> bool {
        !self.input.is_full()
    }

    /// Free input FIFO slots.
    pub fn input_free(&self) -> usize {
        self.input.free()
    }

    /// Enqueues an arriving request; hands it back if the FIFO is full
    /// (callers reserve space ahead of time, so this failing indicates a
    /// reservation bug).
    pub fn accept(&mut self, req: MemoryRequest, now: Time) -> Result<(), MemoryRequest> {
        self.input.try_push(req, now)
    }

    /// Moves requests from the input FIFO into bank queues until the FIFO
    /// empties or its head targets a full bank queue. Returns how many
    /// moved (each freed slot is a credit the link layer can reuse).
    pub fn drain_input(&mut self, now: Time) -> usize {
        let mut moved = 0;
        while let Some(req) = self.input.front().copied() {
            let bank = self.bank_of(&req);
            if self.bank_queues[bank].is_full() {
                break; // head-of-line blocking
            }
            let req = self.input.pop(now).expect("front() was Some");
            self.bank_queues[bank]
                .try_push(req, now)
                .expect("checked for space");
            self.queued_banks |= 1 << bank;
            moved += 1;
        }
        moved
    }

    /// Starts an access on every bank that is free at `now` and has queued
    /// work, appending the committed operations to `out`.
    pub fn start_ready(&mut self, now: Time, out: &mut Vec<StartedOp>) {
        // A disabled sanitizer is allocation-free and every check is an
        // inlined early return, so the unchecked path costs nothing.
        self.start_ready_checked(now, out, &mut Sanitizer::new());
    }

    /// [`start_ready`](Vault::start_ready) with every committed bank
    /// access validated against the protocol sanitizer's timing FSM.
    pub fn start_ready_checked(
        &mut self,
        now: Time,
        out: &mut Vec<StartedOp>,
        sanitizer: &mut Sanitizer,
    ) {
        for bank_idx in set_bits(self.queued_banks) {
            if !self.banks[bank_idx].is_free(now) {
                continue;
            }
            let queue = &mut self.bank_queues[bank_idx];
            let req = queue.pop(now).expect("queued-bank bit set");
            if queue.is_empty() {
                self.queued_banks &= !(1 << bank_idx);
            }
            let op = self.run_on_bank(bank_idx, req, now, sanitizer);
            out.push(op);
        }
    }

    fn run_on_bank(
        &mut self,
        bank_idx: usize,
        req: MemoryRequest,
        now: Time,
        sanitizer: &mut Sanitizer,
    ) -> StartedOp {
        let row = self.mapping.decode(req.addr, &self.spec).row;
        let beats = req.size.dram_beats();
        let bus_time = self.timing.bus_beat.saturating_mul(beats);
        let bank = &mut self.banks[bank_idx];
        // Sanitizer bank ids are device-global so one FSM table covers
        // every vault.
        let global_bank = u32::from(self.id) * self.spec.banks_per_vault()
            + u32::try_from(bank_idx).expect("bank index fits u32");
        let response_at = match req.op {
            OpKind::Read => {
                let access = bank.begin_read(now, row, beats, &self.timing, self.policy);
                sanitizer.check_bank_access(
                    global_bank,
                    BankOp::Read,
                    access.start,
                    access.data_at,
                    access.busy_until,
                );
                // Data leaves the sense amps onto the shared bus.
                let bus_start = access.data_at.max(self.bus_free_at);
                let bus_end = bus_start + bus_time;
                self.bus_free_at = bus_end;
                bank.extend_busy(bus_end);
                self.stats.reads += 1;
                bus_end
            }
            OpKind::Write => {
                let access = bank.begin_write(now, row, beats, &self.timing, self.policy);
                sanitizer.check_bank_access(
                    global_bank,
                    BankOp::Write,
                    access.start,
                    access.data_at,
                    access.busy_until,
                );
                // Data flows from the link buffer over the bus into the
                // bank; the write is acknowledged once absorbed.
                let bus_start = access.start.max(self.bus_free_at);
                let bus_end = bus_start + bus_time;
                self.bus_free_at = bus_end;
                bank.extend_busy(bus_end);
                self.stats.writes += 1;
                bus_end
            }
        };
        self.stats.data_bytes += req.size.bytes();
        StartedOp {
            req,
            bank: bank_idx,
            response_at,
            bank_free_at: self.banks[bank_idx].next_free(),
        }
    }

    /// Refresh: occupies every bank and the bus until `until` and closes
    /// any open rows.
    pub fn hold_all(&mut self, until: Time) {
        for bank in &mut self.banks {
            bank.hold_until(until);
        }
        self.bus_free_at = self.bus_free_at.max(until);
    }

    /// Drops all queued work (a shutdown emptied the controller) and
    /// closes every row; bank timing state and activity counters
    /// survive.
    pub fn reset_state(&mut self, now: Time) {
        while self.input.pop(now).is_some() {}
        for q in &mut self.bank_queues {
            while q.pop(now).is_some() {}
        }
        self.queued_banks = 0;
        self.hold_all(now);
    }

    /// Earliest instant any bank with queued work becomes free, if any —
    /// lets the device schedule the next dispatch opportunity.
    pub fn next_bank_ready(&self) -> Option<Time> {
        set_bits(self.queued_banks)
            .map(|b| self.banks[b].next_free())
            .min()
    }

    /// Total requests currently queued in the vault (input FIFO plus all
    /// bank queues) — the `L` of a Little's-law reading.
    pub fn queued(&self) -> usize {
        self.input.len() + self.bank_queues.iter().map(|q| q.len()).sum::<usize>()
    }

    /// Banks busy with an access (or held by refresh) at `now` — the
    /// bank-occupancy gauge the metrics sampler reports.
    pub fn busy_banks(&self, now: Time) -> usize {
        self.banks.iter().filter(|b| !b.is_free(now)).count()
    }

    /// Activity counters.
    pub fn stats(&self) -> VaultStats {
        self.stats
    }

    /// Sum of per-bank activation counts (for the power model).
    pub fn activations(&self) -> u64 {
        self.banks.iter().map(|b| b.stats().activations).sum()
    }

    /// Sum of per-bank open-page row hits (ablation instrumentation).
    pub fn row_hits(&self) -> u64 {
        self.banks.iter().map(|b| b.stats().row_hits).sum()
    }

    fn bank_of(&self, req: &MemoryRequest) -> usize {
        self.mapping.decode(req.addr, &self.spec).bank.index() as usize
    }
}

/// The indices of `mask`'s set bits, ascending.
fn set_bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let bit = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            bit
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_types::{Address, PortId, RequestId, RequestSize, Tag};

    fn config() -> MemConfig {
        MemConfig::default()
    }

    fn read_req(id: u64, addr: u64, size: u64) -> MemoryRequest {
        MemoryRequest {
            id: RequestId::new(id),
            port: PortId::new(0),
            tag: Tag::new(0),
            op: OpKind::Read,
            size: RequestSize::new(size).unwrap(),
            cube: hmc_types::CubeId::new(0),
            addr: Address::new(addr),
            issued_at: Time::ZERO,
            data_token: 0,
            tenant: hmc_types::TenantTag::NONE,
        }
    }

    fn write_req(id: u64, addr: u64, size: u64) -> MemoryRequest {
        MemoryRequest {
            op: OpKind::Write,
            ..read_req(id, addr, size)
        }
    }

    /// Address targeting vault 0, a given bank, and a given row under the
    /// default 128 B mapping.
    fn addr_for(bank: u64, row: u64) -> u64 {
        (bank << 11) | (row << 15)
    }

    #[test]
    fn single_read_timing() {
        let mut v = Vault::new(0, &config());
        v.accept(read_req(0, addr_for(0, 0), 128), Time::ZERO)
            .unwrap();
        assert_eq!(v.drain_input(Time::ZERO), 1);
        let mut out = Vec::new();
        v.start_ready(Time::ZERO, &mut out);
        assert_eq!(out.len(), 1);
        // Data at tRCD+tCL = 50 ns, four 4 ns beats: response at 66 ns.
        assert_eq!(out[0].response_at.as_ns_f64(), 66.0);
        // Bank cycles for tRC plus the three extra beats: 140 ns.
        assert_eq!(out[0].bank_free_at.as_ns_f64(), 140.0);
        assert_eq!(v.stats().reads, 1);
        assert_eq!(v.stats().data_bytes, 128);
    }

    #[test]
    fn write_ack_after_bus_transfer() {
        let mut v = Vault::new(0, &config());
        v.accept(write_req(0, addr_for(0, 0), 128), Time::ZERO)
            .unwrap();
        v.drain_input(Time::ZERO);
        let mut out = Vec::new();
        v.start_ready(Time::ZERO, &mut out);
        // Write data crosses the bus immediately: 16 ns for 4 beats.
        assert_eq!(out[0].response_at.as_ns_f64(), 16.0);
        assert_eq!(v.stats().writes, 1);
    }

    #[test]
    fn same_bank_requests_serialize_at_trc() {
        let mut v = Vault::new(0, &config());
        for i in 0..3 {
            v.accept(read_req(i, addr_for(0, i), 128), Time::ZERO)
                .unwrap();
        }
        v.drain_input(Time::ZERO);
        let mut out = Vec::new();
        v.start_ready(Time::ZERO, &mut out);
        assert_eq!(out.len(), 1, "one access per bank at a time");
        let free = out[0].bank_free_at;
        let mut out2 = Vec::new();
        v.start_ready(free, &mut out2);
        assert_eq!(out2.len(), 1);
        assert_eq!(
            out2[0].response_at.since(out[0].response_at).as_ns_f64(),
            140.0
        );
    }

    #[test]
    fn different_banks_run_in_parallel() {
        let mut v = Vault::new(0, &config());
        for b in 0..4 {
            v.accept(read_req(b, addr_for(b, 0), 128), Time::ZERO)
                .unwrap();
        }
        v.drain_input(Time::ZERO);
        let mut out = Vec::new();
        v.start_ready(Time::ZERO, &mut out);
        assert_eq!(out.len(), 4, "four banks start simultaneously");
        // All four have the same bank timing but the bus serializes their
        // four-beat (16 ns) transfers: responses at 66, 82, 98, 114 ns.
        let mut times: Vec<f64> = out.iter().map(|o| o.response_at.as_ns_f64()).collect();
        times.sort_by(f64::total_cmp);
        assert_eq!(times, vec![66.0, 82.0, 98.0, 114.0]);
    }

    #[test]
    fn bus_saturates_at_eight_banks() {
        // Section IV-B: accessing more than eight banks of a vault does
        // not raise bandwidth, because the TSV bus is the ceiling.
        let cfg = config();
        let count_throughput = |nbanks: u64| -> f64 {
            let mut v = Vault::new(0, &cfg);
            let mut completed = 0u64;
            let mut last = Time::ZERO;
            let horizon = Time::from_ps(50_000_000); // 50 us
            let mut next_id = 0u64;
            let mut row = 0u64;
            loop {
                // Keep every bank queue topped up; the FIFO is small, so
                // refill-and-drain a few times per step.
                for _ in 0..4 {
                    while v.has_input_space() {
                        let bank = next_id % nbanks;
                        v.accept(read_req(next_id, addr_for(bank, row % 1024), 128), last)
                            .unwrap();
                        next_id += 1;
                        row += 1;
                    }
                    v.drain_input(last);
                }
                let mut out = Vec::new();
                v.start_ready(last, &mut out);
                completed += out.len() as u64;
                match v.next_bank_ready() {
                    Some(t) if t <= horizon => last = t.max(last),
                    _ => break,
                }
                if last >= horizon {
                    break;
                }
            }
            completed as f64 * 128.0 / horizon.as_secs_f64() / 1e9
        };
        let one = count_throughput(1);
        let eight = count_throughput(8);
        let sixteen = count_throughput(16);
        // One bank: ~0.9 GB/s of payload (128 B per 140 ns).
        assert!((0.8..1.1).contains(&one), "one-bank GB/s {one}");
        // Eight banks approach the 8 GB/s bus ceiling.
        assert!((6.8..8.4).contains(&eight), "eight-bank GB/s {eight}");
        // Sixteen banks add little (bus-limited).
        assert!(
            (sixteen - eight).abs() / eight < 0.15,
            "16 banks {sixteen} vs 8 banks {eight}"
        );
    }

    #[test]
    fn input_fifo_blocks_on_full_bank_queue() {
        let mut cfg = config();
        cfg.vault.bank_queue_depth = 2;
        cfg.vault.input_fifo_depth = 4;
        let mut v = Vault::new(0, &cfg);
        // Five to bank 0: two fill the queue, rest jam the FIFO even
        // though bank 1's queue is empty.
        for i in 0..4 {
            v.accept(read_req(i, addr_for(0, i), 128), Time::ZERO)
                .unwrap();
        }
        assert_eq!(v.drain_input(Time::ZERO), 2);
        assert_eq!(v.queued(), 4);
        // A bank-1 request behind the jam cannot be reached (HOL).
        v.accept(read_req(9, addr_for(1, 0), 128), Time::ZERO)
            .unwrap();
        assert_eq!(v.drain_input(Time::ZERO), 0);
    }

    #[test]
    fn fifo_rejects_when_full() {
        let mut cfg = config();
        cfg.vault.input_fifo_depth = 2;
        let mut v = Vault::new(3, &cfg);
        assert_eq!(v.id(), 3);
        assert!(v.accept(read_req(0, 0, 16), Time::ZERO).is_ok());
        assert!(v.accept(read_req(1, 0, 16), Time::ZERO).is_ok());
        assert!(!v.has_input_space());
        assert_eq!(v.input_free(), 0);
        assert!(v.accept(read_req(2, 0, 16), Time::ZERO).is_err());
    }

    #[test]
    fn refresh_holds_everything() {
        let mut v = Vault::new(0, &config());
        v.accept(read_req(0, addr_for(0, 0), 128), Time::ZERO)
            .unwrap();
        v.drain_input(Time::ZERO);
        v.hold_all(Time::from_ps(350_000));
        let mut out = Vec::new();
        v.start_ready(Time::ZERO, &mut out);
        assert!(out.is_empty(), "banks are held by refresh");
        assert_eq!(v.next_bank_ready(), Some(Time::from_ps(350_000)));
        v.start_ready(Time::from_ps(350_000), &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn reset_state_forgets_queued_banks() {
        let mut v = Vault::new(0, &config());
        for bank in [1, 5] {
            v.accept(read_req(bank, addr_for(bank, 0), 128), Time::ZERO)
                .unwrap();
        }
        v.drain_input(Time::ZERO);
        v.reset_state(Time::from_ps(1_000));
        assert_eq!(v.queued(), 0);
        assert_eq!(v.next_bank_ready(), None, "no bank has queued work");
        let mut out = Vec::new();
        v.start_ready(Time::from_ps(1_000), &mut out);
        assert!(out.is_empty());
        // Work queued after the reset starts in ascending bank order.
        for bank in [9, 2] {
            v.accept(read_req(bank, addr_for(bank, 1), 128), Time::from_ps(1_000))
                .unwrap();
        }
        v.drain_input(Time::from_ps(1_000));
        v.start_ready(Time::from_ps(1_000), &mut out);
        let banks: Vec<usize> = out.iter().map(|op| op.bank).collect();
        assert_eq!(banks, vec![2, 9]);
    }

    #[test]
    fn activations_counted_for_power_model() {
        let mut v = Vault::new(0, &config());
        for i in 0..3 {
            v.accept(read_req(i, addr_for(i, 0), 128), Time::ZERO)
                .unwrap();
        }
        v.drain_input(Time::ZERO);
        let mut out = Vec::new();
        v.start_ready(Time::ZERO, &mut out);
        assert_eq!(v.activations(), 3);
        assert_eq!(v.row_hits(), 0);
    }

    #[test]
    fn small_requests_use_one_beat() {
        let mut v = Vault::new(0, &config());
        v.accept(read_req(0, addr_for(0, 0), 16), Time::ZERO)
            .unwrap();
        v.drain_input(Time::ZERO);
        let mut out = Vec::new();
        v.start_ready(Time::ZERO, &mut out);
        // 16 B still costs one full 32 B beat: response at 50 + 4 = 54 ns.
        assert_eq!(out[0].response_at.as_ns_f64(), 54.0);
    }
}
