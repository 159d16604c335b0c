//! One GUPS port: address generation, the read tag pool, the pending-write
//! queue for `rw` mode, and the latency monitoring unit.

use std::collections::{BTreeMap, VecDeque};

use hmc_types::packet::{wire_bytes_per_access, OpKind};
use hmc_types::{
    Address, ChainShard, CubeId, MemoryRequest, MemoryResponse, PortId, RequestId, RequestKind,
    RequestSize, Tag, TenantTag, Time,
};
use sim_engine::{Histogram, SplitMix64};

use crate::workload::{Addressing, PortWorkload, StreamOp};

/// Why a port could not issue a request this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueBlock {
    /// The read tag pool is empty; retry when a response returns.
    NoTags,
    /// The port's generator has finished (stream exhausted or inactive).
    Done,
}

/// Per-port measurement state — the GUPS "monitoring" unit plus the
/// accounting the paper's bandwidth numbers are computed from.
#[derive(Debug, Clone, Default)]
pub struct PortMonitor {
    /// Read round-trip latencies, measured request-submit to
    /// response-delivery.
    pub read_latency: Histogram,
    /// Read requests issued.
    pub reads_issued: u64,
    /// Write requests issued.
    pub writes_issued: u64,
    /// Read responses delivered.
    pub reads_completed: u64,
    /// Write responses delivered.
    pub writes_completed: u64,
    /// Wire bytes (request + response packets, headers and tails included)
    /// of completed transactions — the paper's bandwidth accounting.
    pub counted_bytes: u64,
    /// Stream-mode data-integrity mismatches.
    pub integrity_failures: u64,
}

#[derive(Debug, Clone)]
enum Generator {
    Continuous(PortWorkload),
    Stream(VecDeque<StreamOp>),
    /// Dependent chain: at most one outstanding read; `waiting` is set
    /// between issue and response.
    Chain {
        addrs: VecDeque<Address>,
        size: RequestSize,
        waiting: bool,
    },
    Idle,
}

/// A GUPS port on the FPGA.
#[derive(Debug, Clone)]
pub struct GupsPort {
    id: PortId,
    generator: Generator,
    free_tags: Vec<Tag>,
    /// Writes waiting to be issued because their `rw` read returned. The
    /// stored cube/address pair is the one the read resolved to, so the
    /// write-back never re-applies the shard split to a local address.
    pending_writes: VecDeque<(CubeId, Address, RequestSize, u64)>,
    /// Expected read tokens for stream integrity checking, by request id.
    expected: BTreeMap<u64, u64>,
    monitor: PortMonitor,
    rng: SplitMix64,
    linear_cursor: u64,
    /// Per-cube byte capacity (the local address space of one device).
    capacity: u64,
    /// Global byte capacity the generators draw from (`capacity × cubes`).
    total_capacity: u64,
    shard: ChainShard,
    /// When set, every generated address targets this cube (`global mod
    /// capacity` becomes the local address) — used by near/far experiments.
    cube_pin: Option<CubeId>,
    kind: RequestKind,
    last_issue: Option<Time>,
}

impl GupsPort {
    /// Creates an idle port with a full tag pool.
    ///
    /// # Panics
    ///
    /// Panics if `tag_pool_depth` is 0 (every read would wait for a tag
    /// forever) or does not fit a `u16` tag.
    pub fn new(id: PortId, tag_pool_depth: usize, capacity: u64, seed: u64) -> Self {
        assert!(
            tag_pool_depth > 0,
            "tag_pool_depth must be at least 1: a port without tags never issues a read"
        );
        GupsPort {
            id,
            generator: Generator::Idle,
            free_tags: (0..u16::try_from(tag_pool_depth).expect("tag pool depth fits u16"))
                .rev()
                .map(Tag::new)
                .collect(),
            pending_writes: VecDeque::new(),
            expected: BTreeMap::new(),
            monitor: PortMonitor::default(),
            rng: SplitMix64::new(seed ^ (id.index() as u64).wrapping_mul(0x9E37)),
            linear_cursor: id.index() as u64 * (capacity / 16),
            capacity,
            total_capacity: capacity,
            shard: ChainShard::SINGLE,
            cube_pin: None,
            kind: RequestKind::ReadOnly,
            last_issue: None,
        }
    }

    /// The port's id.
    pub fn id(&self) -> PortId {
        self.id
    }

    /// Installs the cube shard the port's generated addresses are split
    /// with. The global space grows to `capacity × cubes`; the linear
    /// cursor is re-derived so ports stay evenly spread over it.
    pub fn set_shard(&mut self, shard: ChainShard) {
        self.shard = shard;
        self.total_capacity = self.capacity * shard.cubes() as u64;
        self.linear_cursor = self.id.index() as u64 * (self.total_capacity / 16);
    }

    /// Pins every generated address to one cube (or clears the pin). The
    /// generator's global stream is unchanged; each address maps to
    /// `global mod capacity` on the pinned cube, so the same seed produces
    /// the same local sequence regardless of the pin target.
    pub fn set_cube_pin(&mut self, pin: Option<CubeId>) {
        self.cube_pin = pin;
    }

    /// Splits a generated global address into its target cube and local
    /// address, honouring the cube pin.
    fn route(&self, global: u64) -> (CubeId, Address) {
        match self.cube_pin {
            Some(pin) => (pin, Address::new(global % self.capacity)),
            None => self.shard.split(global, self.capacity),
        }
    }

    /// Installs a continuous generator.
    pub fn set_continuous(&mut self, w: PortWorkload) {
        self.kind = w.kind;
        self.generator = Generator::Continuous(w);
    }

    /// Installs a stream generator.
    pub fn set_stream(&mut self, ops: Vec<StreamOp>) {
        self.kind = RequestKind::ReadOnly;
        self.generator = Generator::Stream(ops.into());
    }

    /// Installs a dependent-chain generator (one outstanding read at a
    /// time).
    pub fn set_chain(&mut self, addrs: Vec<Address>, size: RequestSize) {
        self.kind = RequestKind::ReadOnly;
        self.generator = Generator::Chain {
            addrs: addrs.into(),
            size,
            waiting: false,
        };
    }

    /// Deactivates the port (outstanding responses still drain).
    pub fn set_idle(&mut self) {
        self.generator = Generator::Idle;
    }

    /// True if the port might still issue requests.
    pub fn is_active(&self) -> bool {
        !matches!(self.generator, Generator::Idle) || !self.pending_writes.is_empty()
    }

    /// Tags currently held by outstanding reads.
    pub fn tags_in_use(&self, pool_depth: usize) -> usize {
        pool_depth - self.free_tags.len()
    }

    /// Pending `rw` write-backs not yet issued.
    pub fn pending_write_count(&self) -> usize {
        self.pending_writes.len()
    }

    /// The instant of the port's last successful issue (for cycle pacing).
    pub fn last_issue(&self) -> Option<Time> {
        self.last_issue
    }

    /// The monitoring unit's measurements.
    pub fn monitor(&self) -> &PortMonitor {
        &self.monitor
    }

    /// Clears the monitoring unit (start of a measurement window).
    pub fn reset_monitor(&mut self) {
        self.monitor = PortMonitor::default();
    }

    /// Attempts to produce the next request at `now`. Pending `rw`
    /// write-backs take priority over new generation.
    ///
    /// # Errors
    ///
    /// Returns the blocking reason when nothing can be issued.
    pub fn try_issue(&mut self, id: RequestId, now: Time) -> Result<MemoryRequest, IssueBlock> {
        if let Some((cube, addr, size, token)) = self.pending_writes.pop_front() {
            let write = (OpKind::Write, size);
            return self.emit(id, now, write, (cube, addr), token, TenantTag::NONE);
        }
        let (op, size, global, data_token) = match &mut self.generator {
            Generator::Idle => return Err(IssueBlock::Done),
            Generator::Chain {
                addrs,
                size,
                waiting,
            } => {
                if *waiting {
                    // The previous hop has not returned yet.
                    return Err(IssueBlock::NoTags);
                }
                let Some(addr) = addrs.pop_front() else {
                    self.generator = Generator::Idle;
                    return Err(IssueBlock::Done);
                };
                *waiting = true;
                (OpKind::Read, *size, addr.as_u64(), 0)
            }
            Generator::Stream(ops) => {
                let Some(op) = ops.front().copied() else {
                    self.generator = Generator::Idle;
                    return Err(IssueBlock::Done);
                };
                if op.op == OpKind::Read && self.free_tags.is_empty() {
                    return Err(IssueBlock::NoTags);
                }
                ops.pop_front();
                if op.op == OpKind::Read && op.token != 0 {
                    self.expected.insert(id.value(), op.token);
                }
                let token = if op.op == OpKind::Write { op.token } else { 0 };
                (op.op, op.size, op.addr.as_u64(), token)
            }
            Generator::Continuous(w) => {
                let w = *w;
                let is_read = match w.read_fraction {
                    Some(f) => self.rng.next_f64() < f,
                    None => w.kind.reads(),
                };
                // A blocked read draws no address; the retry redraws its
                // op coin only.
                if is_read && self.free_tags.is_empty() {
                    return Err(IssueBlock::NoTags);
                }
                let global = self.next_address(&w).as_u64();
                if is_read {
                    (OpKind::Read, w.size, global, 0)
                } else {
                    (OpKind::Write, w.size, global, id.value())
                }
            }
        };
        let place = self.route(global);
        self.emit(id, now, (op, size), place, data_token, TenantTag::NONE)
    }

    /// Issues one open-loop request through this port: the global address
    /// is split by the port's shard, and the request takes a tag and is
    /// counted like any generated one. The admission layer owns pacing
    /// and generation; the port only contributes its tag pool and
    /// routing.
    ///
    /// # Errors
    ///
    /// Returns [`IssueBlock::NoTags`] when a read finds the pool empty.
    pub(crate) fn try_issue_open(
        &mut self,
        id: RequestId,
        now: Time,
        op: OpKind,
        size: RequestSize,
        global: u64,
        tenant: TenantTag,
    ) -> Result<MemoryRequest, IssueBlock> {
        let place = self.route(global);
        self.emit(id, now, (op, size), place, 0, tenant)
    }

    /// Builds the request this port issues at `now` for an access of
    /// `op` and `size` at `place`, whatever drew it: a read takes a tag
    /// from the pool (a posted write uses tag 0), the monitor counts it,
    /// and the instant paces the port's next issue.
    fn emit(
        &mut self,
        id: RequestId,
        now: Time,
        (op, size): (OpKind, RequestSize),
        (cube, addr): (CubeId, Address),
        data_token: u64,
        tenant: TenantTag,
    ) -> Result<MemoryRequest, IssueBlock> {
        let (tag, issued) = match op {
            OpKind::Read => (
                self.free_tags.pop().ok_or(IssueBlock::NoTags)?,
                &mut self.monitor.reads_issued,
            ),
            OpKind::Write => (Tag::new(0), &mut self.monitor.writes_issued),
        };
        *issued += 1;
        self.last_issue = Some(now);
        Ok(MemoryRequest {
            id,
            port: self.id,
            tag,
            op,
            size,
            cube,
            addr,
            issued_at: now,
            data_token,
            tenant,
        })
    }

    /// Free read tags remaining in the pool.
    pub fn free_tag_count(&self) -> usize {
        self.free_tags.len()
    }

    /// Draws the next *global* address for a continuous generator. The
    /// mask/anti-mask registers apply to the global address; with a
    /// single-cube shard that is exactly the device-local address.
    fn next_address(&mut self, w: &PortWorkload) -> Address {
        let raw = match w.addressing {
            Addressing::Random => {
                let aligned_slots = self.total_capacity / w.size.bytes();
                self.rng.next_below(aligned_slots) * w.size.bytes()
            }
            Addressing::Linear => {
                let a = self.linear_cursor;
                self.linear_cursor = (self.linear_cursor + w.size.bytes()) % self.total_capacity;
                a
            }
        };
        w.mask.apply(Address::new(raw))
    }

    /// Delivers a response to the port's monitoring unit. Returns `true`
    /// if the delivery unblocked the port (released a tag or queued an
    /// `rw` write-back).
    pub fn deliver(&mut self, resp: &MemoryResponse) -> bool {
        let mut unblocked = false;
        match resp.op {
            OpKind::Read => {
                self.free_tags.push(resp.tag);
                if let Generator::Chain { waiting, .. } = &mut self.generator {
                    *waiting = false;
                }
                self.monitor.reads_completed += 1;
                self.monitor.read_latency.record(resp.latency());
                self.monitor.counted_bytes +=
                    wire_bytes_per_access(RequestKind::ReadOnly, resp.size);
                if let Some(expect) = self.expected.remove(&resp.id.value()) {
                    if expect != resp.data_token {
                        self.monitor.integrity_failures += 1;
                    }
                }
                if self.kind == RequestKind::ReadModifyWrite {
                    // The modify-write half reuses the read's location; the
                    // token is the response's token plus one ("update").
                    self.pending_writes.push_back((
                        resp.cube,
                        resp.addr,
                        resp.size,
                        resp.data_token.wrapping_add(1),
                    ));
                }
                unblocked = true;
            }
            OpKind::Write => {
                self.monitor.writes_completed += 1;
                self.monitor.counted_bytes +=
                    wire_bytes_per_access(RequestKind::WriteOnly, resp.size);
            }
        }
        unblocked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_types::AddressMask;
    use hmc_types::TimeDelta;

    fn port() -> GupsPort {
        GupsPort::new(PortId::new(0), 64, 4 << 30, 1)
    }

    #[test]
    #[should_panic(expected = "tag_pool_depth")]
    fn empty_tag_pool_is_refused() {
        let _ = GupsPort::new(PortId::new(0), 0, 4 << 30, 1);
    }

    fn respond(req: &MemoryRequest, lat_ns: u64) -> MemoryResponse {
        MemoryResponse {
            id: req.id,
            port: req.port,
            tag: req.tag,
            op: req.op,
            size: req.size,
            cube: req.cube,
            addr: req.addr,
            issued_at: req.issued_at,
            completed_at: req.issued_at + TimeDelta::from_ns(lat_ns),
            data_token: 0,
            tenant: req.tenant,
        }
    }

    #[test]
    fn idle_port_issues_nothing() {
        let mut p = port();
        assert!(!p.is_active());
        assert_eq!(
            p.try_issue(RequestId::new(0), Time::ZERO),
            Err(IssueBlock::Done)
        );
    }

    #[test]
    fn continuous_reads_consume_tags() {
        let mut p = port();
        p.set_continuous(PortWorkload::random_reads(RequestSize::MAX));
        assert!(p.is_active());
        for i in 0..64 {
            let r = p.try_issue(RequestId::new(i), Time::ZERO).unwrap();
            assert_eq!(r.op, OpKind::Read);
            assert_eq!(r.size, RequestSize::MAX);
        }
        assert_eq!(p.tags_in_use(64), 64);
        assert_eq!(
            p.try_issue(RequestId::new(99), Time::ZERO),
            Err(IssueBlock::NoTags)
        );
        assert_eq!(p.monitor().reads_issued, 64);
    }

    #[test]
    fn response_releases_tag_and_measures() {
        let mut p = port();
        p.set_continuous(PortWorkload::random_reads(RequestSize::MAX));
        let req = p.try_issue(RequestId::new(0), Time::ZERO).unwrap();
        assert!(p.deliver(&respond(&req, 700)));
        assert_eq!(p.tags_in_use(64), 0);
        assert_eq!(p.monitor().reads_completed, 1);
        assert_eq!(p.monitor().read_latency.mean().as_ns_f64(), 700.0);
        // 128 B read: 160 counted wire bytes.
        assert_eq!(p.monitor().counted_bytes, 160);
    }

    #[test]
    fn write_only_needs_no_tags() {
        let mut p = port();
        p.set_continuous(PortWorkload {
            kind: RequestKind::WriteOnly,
            size: RequestSize::MAX,
            addressing: Addressing::Random,
            mask: AddressMask::NONE,
            read_fraction: None,
        });
        for i in 0..200 {
            let r = p.try_issue(RequestId::new(i), Time::ZERO).unwrap();
            assert_eq!(r.op, OpKind::Write);
        }
        assert_eq!(p.tags_in_use(64), 0);
        assert_eq!(p.monitor().writes_issued, 200);
    }

    #[test]
    fn rw_spawns_write_back_after_read() {
        let mut p = port();
        p.set_continuous(PortWorkload {
            kind: RequestKind::ReadModifyWrite,
            size: RequestSize::MAX,
            addressing: Addressing::Random,
            mask: AddressMask::NONE,
            read_fraction: None,
        });
        let read = p.try_issue(RequestId::new(0), Time::ZERO).unwrap();
        assert_eq!(read.op, OpKind::Read);
        assert_eq!(p.pending_write_count(), 0);
        p.deliver(&respond(&read, 700));
        assert_eq!(p.pending_write_count(), 1);
        // The write-back issues before any new read.
        let wb = p.try_issue(RequestId::new(1), Time::ZERO).unwrap();
        assert_eq!(wb.op, OpKind::Write);
        assert_eq!(wb.addr, read.addr);
        assert_eq!(p.pending_write_count(), 0);
    }

    #[test]
    fn linear_addressing_advances_by_size() {
        let mut p = GupsPort::new(PortId::new(0), 64, 4 << 30, 1);
        p.set_continuous(PortWorkload {
            kind: RequestKind::WriteOnly,
            size: RequestSize::new(64).unwrap(),
            addressing: Addressing::Linear,
            mask: AddressMask::NONE,
            read_fraction: None,
        });
        let a0 = p.try_issue(RequestId::new(0), Time::ZERO).unwrap().addr;
        let a1 = p.try_issue(RequestId::new(1), Time::ZERO).unwrap().addr;
        assert_eq!(a1.as_u64() - a0.as_u64(), 64);
    }

    #[test]
    fn random_addresses_are_aligned_and_masked() {
        let mut p = port();
        p.set_continuous(PortWorkload {
            kind: RequestKind::ReadOnly,
            size: RequestSize::MAX,
            addressing: Addressing::Random,
            mask: AddressMask::zero_bits(7, 14),
            read_fraction: None,
        });
        for i in 0..32 {
            let r = p.try_issue(RequestId::new(i), Time::ZERO).unwrap();
            assert_eq!(r.addr.as_u64() % 128, 0, "aligned to request size");
            assert_eq!(r.addr.as_u64() & 0x7F80, 0, "mask applied");
        }
    }

    #[test]
    fn stream_runs_to_completion() {
        let mut p = port();
        p.set_stream(vec![
            StreamOp {
                op: OpKind::Write,
                addr: Address::new(0),
                size: RequestSize::MIN,
                token: 42,
            },
            StreamOp {
                op: OpKind::Read,
                addr: Address::new(0),
                size: RequestSize::MIN,
                token: 42,
            },
        ]);
        let w = p.try_issue(RequestId::new(0), Time::ZERO).unwrap();
        assert_eq!(w.data_token, 42);
        let r = p.try_issue(RequestId::new(1), Time::ZERO).unwrap();
        assert_eq!(r.op, OpKind::Read);
        assert_eq!(
            p.try_issue(RequestId::new(2), Time::ZERO),
            Err(IssueBlock::Done)
        );
        // Integrity check: correct token passes, wrong token counts.
        let mut good = respond(&r, 700);
        good.data_token = 42;
        p.deliver(&good);
        assert_eq!(p.monitor().integrity_failures, 0);
    }

    #[test]
    fn stream_integrity_failure_detected() {
        let mut p = port();
        p.set_stream(vec![StreamOp {
            op: OpKind::Read,
            addr: Address::new(0),
            size: RequestSize::MIN,
            token: 42,
        }]);
        let r = p.try_issue(RequestId::new(0), Time::ZERO).unwrap();
        let mut bad = respond(&r, 700);
        bad.data_token = 41;
        p.deliver(&bad);
        assert_eq!(p.monitor().integrity_failures, 1);
    }

    #[test]
    fn mixed_traffic_issues_both_kinds() {
        let mut p = port();
        p.set_continuous(PortWorkload::random_mixed(RequestSize::MAX, 0.6));
        let mut reads = 0;
        let mut writes = 0;
        let mut id = 0u64;
        while reads + writes < 400 {
            match p.try_issue(RequestId::new(id), Time::ZERO) {
                Ok(r) if r.op == OpKind::Read => {
                    reads += 1;
                    // Recycle the tag so the pool never starves the test.
                    p.deliver(&respond(&r, 100));
                }
                Ok(_) => writes += 1,
                Err(e) => panic!("unexpected block {e:?}"),
            }
            id += 1;
        }
        let frac = reads as f64 / 400.0;
        assert!((0.5..0.7).contains(&frac), "read fraction {frac}");
    }

    #[test]
    fn sharded_port_splits_across_cubes() {
        use hmc_types::CubeInterleave;
        let mut p = port();
        p.set_shard(ChainShard::new(2, CubeInterleave::CubeFirst));
        p.set_continuous(PortWorkload {
            kind: RequestKind::ReadOnly,
            size: RequestSize::MAX,
            addressing: Addressing::Linear,
            mask: AddressMask::NONE,
            read_fraction: None,
        });
        // Port 0's linear cursor starts at 0: consecutive 128 B blocks
        // alternate cubes while the local address advances every other
        // request.
        let r0 = p.try_issue(RequestId::new(0), Time::ZERO).unwrap();
        let r1 = p.try_issue(RequestId::new(1), Time::ZERO).unwrap();
        let r2 = p.try_issue(RequestId::new(2), Time::ZERO).unwrap();
        assert_eq!(r0.cube.index(), 0);
        assert_eq!(r1.cube.index(), 1);
        assert_eq!(r2.cube.index(), 0);
        assert_eq!(r0.addr.as_u64(), 0);
        assert_eq!(r1.addr.as_u64(), 0);
        assert_eq!(r2.addr.as_u64(), 128);
        for r in [&r0, &r1, &r2] {
            p.deliver(&respond(r, 100));
        }
    }

    #[test]
    fn pinned_port_targets_one_cube() {
        let mut p = port();
        p.set_shard(ChainShard::new(4, hmc_types::CubeInterleave::CubeFirst));
        p.set_cube_pin(Some(CubeId::new(3)));
        p.set_continuous(PortWorkload::random_reads(RequestSize::MAX));
        for i in 0..16 {
            let r = p.try_issue(RequestId::new(i), Time::ZERO).unwrap();
            assert_eq!(r.cube.index(), 3);
            assert!(r.addr.as_u64() < 4 << 30);
            p.deliver(&respond(&r, 100));
        }
    }

    #[test]
    fn rw_write_back_keeps_read_cube() {
        let mut p = port();
        p.set_shard(ChainShard::new(2, hmc_types::CubeInterleave::CubeFirst));
        p.set_continuous(PortWorkload {
            kind: RequestKind::ReadModifyWrite,
            size: RequestSize::MAX,
            addressing: Addressing::Linear,
            mask: AddressMask::NONE,
            read_fraction: None,
        });
        let r0 = p.try_issue(RequestId::new(0), Time::ZERO).unwrap();
        let r1 = p.try_issue(RequestId::new(1), Time::ZERO).unwrap();
        p.deliver(&respond(&r1, 100));
        // The write-back reuses r1's cube and *local* address verbatim —
        // no double application of the shard split.
        let wb = p.try_issue(RequestId::new(2), Time::ZERO).unwrap();
        assert_eq!(wb.op, OpKind::Write);
        assert_eq!(wb.cube, r1.cube);
        assert_eq!(wb.addr, r1.addr);
        let _ = r0;
    }

    #[test]
    fn reset_monitor_clears_window() {
        let mut p = port();
        p.set_continuous(PortWorkload::random_reads(RequestSize::MAX));
        let r = p.try_issue(RequestId::new(0), Time::ZERO).unwrap();
        p.deliver(&respond(&r, 500));
        p.reset_monitor();
        assert_eq!(p.monitor().reads_completed, 0);
        assert_eq!(p.monitor().counted_bytes, 0);
        assert!(p.monitor().read_latency.is_empty());
    }
}
