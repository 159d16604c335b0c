//! Multi-cube chain/star topologies: N sharded hosts driving N cubes whose
//! far-side links forward non-local traffic hop by hop.
//!
//! The HMC 1.1 specification allows a cube's links to connect to *another
//! cube* instead of a host; the companion NoC study (Hadidi et al., 2017)
//! shows the interconnect, not the DRAM, bounds performance once traffic
//! crosses device boundaries. This module reproduces that regime:
//!
//! * a [`Topology`] describes 1..8 cubes in a daisy [`Arrangement::Chain`]
//!   or a hub-and-spoke [`Arrangement::Star`];
//! * every cube keeps its full [`crate::System`]-grade device model; each
//!   also gets its own sharded host whose generators split a *global*
//!   address space with a [`hmc_types::ChainShard`] (cube-first or
//!   vault-first interleave);
//! * adjacent cubes are joined by pass-through [`hmc_mem::link::DeviceLink`]
//!   serializers, so a forwarded packet pays the full SerDes serialization
//!   plus retry-protocol cost **again on every hop** — the modeled
//!   remote-access adder is `transfer_time(request) +
//!   transfer_time(response)` per hop;
//! * tracing, metrics, the sanitizer's credit/conservation ledgers, and
//!   fault scenarios all remain per-cube, and a fleet-wide forward-progress
//!   watchdog spans the whole chain.
//!
//! # One instant pump
//!
//! The chain is organized as one [`CubeShard`] per cube: host, device,
//! hop-link serializers, and metrics sampler, touching no other cube's
//! state. Cross-cube traffic — request arrivals, response arrivals, and
//! flow-control credits — is a message pushed straight into the
//! receiving cube's [`sim_engine::pdes::Mailbox`], stamped with its
//! delivery time: a hop link is a delay on a message, nothing more.
//! Every delivery time is at least the per-edge SerDes floor (one
//! 16-byte flit through a pass-through link) after the sending instant.
//!
//! The pump is a plain discrete-event loop. It takes the earliest
//! instant `t` at which any shard has work and pumps, in cube order,
//! every shard with work at `t`. Each pumped shard runs only the
//! components with work due (see [`CubeShard::pump_instant`]) and drains
//! its mailbox up to `t` in total `(at, edge, dir, seq)` order. A message
//! sent at `t` is due strictly after `t`, so no shard can receive work
//! for an instant the pump has already begun, and every shard sees the
//! same instants and the same inputs at each, whatever the cube order.
//! See DESIGN.md §10–§11.
//!
//! A single cube is the same pump over one shard with no edges, so it
//! never touches a mailbox or a hop serializer. [`crate::System`] is
//! exactly that one-cube chain, so both types share one construction
//! path, one pump and one copy of the tracing, metrics, sanitizer,
//! fault, thermal-recovery and watchdog wiring.
//!
//! Observers never add an instant: the pump never wakes for a metrics
//! sample alone. A sample due at `d` is recorded at the first instant
//! at or after `d`, and each step flushes the samples due by its bound
//! (see [`ChainSystem::step_until`]).

use std::collections::VecDeque;
use std::fmt;

use hmc_host::{Host, HostStats, LinkSink, Workload};
use hmc_mem::link::{DeviceLink, OutPacket, Transfer};
use hmc_mem::{DeviceOutput, HmcDevice};
use hmc_thermal::{FailurePolicy, RecoveryStep, ThermalEvent};
use hmc_types::packet::{OpKind, TransactionSizes, FLIT_BYTES};
use hmc_types::trace::Stage;
use hmc_types::{
    ChainShard, CubeInterleave, MemoryRequest, MemoryResponse, RequestSize, Time, TimeDelta,
};
use mem_backend::MemoryBackend;
use sim_engine::pdes::{EpochProfiler, EpochSample, Mailbox, MsgKey};
use sim_engine::{
    FaultKind, FaultScenario, MetricsSampler, SanitizerReport, Tracer, ViolationClass,
};

use crate::system::SystemConfig;

/// Shift giving every sharded host a disjoint request-id range; the high
/// bits double as the stateless origin-cube routing tag for responses.
const ORIGIN_SHIFT: u32 = 48;

/// How the cubes of a multi-cube topology are wired together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Arrangement {
    /// Daisy chain: cube `k` connects to cubes `k-1` and `k+1`. Remote
    /// traffic between cubes `s` and `d` crosses `|s - d|` hops.
    #[default]
    Chain,
    /// Star: cube 0 is the hub; every other cube hangs off it. Remote
    /// traffic crosses one hop (to or from the hub) or two (spoke to
    /// spoke).
    Star,
}

impl fmt::Display for Arrangement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Arrangement::Chain => write!(f, "chain"),
            Arrangement::Star => write!(f, "star"),
        }
    }
}

/// A multi-cube topology description: cube count, wiring, and the address
/// interleave the sharded hosts use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Topology {
    cubes: u8,
    arrangement: Arrangement,
    interleave: CubeInterleave,
}

impl Topology {
    /// A single cube: the topology of every [`crate::System`].
    pub fn single() -> Self {
        Topology::chain(1)
    }

    /// A daisy chain of `cubes` cubes with the default cube-first
    /// interleave.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= cubes <= 8` (the CUB field width).
    pub fn chain(cubes: u8) -> Self {
        // Delegate the range check to the shard constructor.
        let _ = ChainShard::new(cubes, CubeInterleave::CubeFirst);
        Topology {
            cubes,
            arrangement: Arrangement::Chain,
            interleave: CubeInterleave::CubeFirst,
        }
    }

    /// A star of `cubes` cubes (cube 0 is the hub).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= cubes <= 8`.
    pub fn star(cubes: u8) -> Self {
        let _ = ChainShard::new(cubes, CubeInterleave::CubeFirst);
        Topology {
            cubes,
            arrangement: Arrangement::Star,
            interleave: CubeInterleave::CubeFirst,
        }
    }

    /// Replaces the address interleave (cube-first by default).
    pub fn with_interleave(mut self, interleave: CubeInterleave) -> Self {
        self.interleave = interleave;
        self
    }

    /// Number of cubes.
    pub fn cubes(&self) -> u8 {
        self.cubes
    }

    /// The wiring arrangement.
    pub fn arrangement(&self) -> Arrangement {
        self.arrangement
    }

    /// The configured interleave.
    pub fn interleave(&self) -> CubeInterleave {
        self.interleave
    }

    /// The shard function the hosts split global addresses with.
    pub fn shard(&self) -> ChainShard {
        ChainShard::new(self.cubes, self.interleave)
    }

    /// Hop count between two cubes.
    pub fn hops(&self, from: u8, to: u8) -> u32 {
        match self.arrangement {
            Arrangement::Chain => u32::from(from.abs_diff(to)),
            Arrangement::Star => match (from, to) {
                (a, b) if a == b => 0,
                (0, _) | (_, 0) => 1,
                _ => 2,
            },
        }
    }

    /// The adjacent cube a packet at `at` moves to next on its way to
    /// `toward` (`at != toward`).
    fn next_shard(&self, at: usize, toward: usize) -> usize {
        debug_assert_ne!(at, toward);
        match self.arrangement {
            Arrangement::Chain => {
                if toward > at {
                    at + 1
                } else {
                    at - 1
                }
            }
            Arrangement::Star => {
                if at == 0 {
                    toward
                } else {
                    0
                }
            }
        }
    }

    /// The edge joining adjacent cubes `a` and `b`, and whether travelling
    /// `a -> b` goes in the edge's lo→hi ("up") direction.
    fn hop_between(&self, a: usize, b: usize) -> (usize, bool) {
        let e = match self.arrangement {
            Arrangement::Chain => a.min(b),
            Arrangement::Star => a.max(b) - 1,
        };
        (e, a < b)
    }

    /// Adjacent cubes of `s`, ascending.
    fn neighbors(&self, s: usize) -> Vec<usize> {
        let n = self.cubes as usize;
        match self.arrangement {
            Arrangement::Chain => {
                let mut v = Vec::new();
                if s > 0 {
                    v.push(s - 1);
                }
                if s + 1 < n {
                    v.push(s + 1);
                }
                v
            }
            Arrangement::Star => {
                if s == 0 {
                    (1..n).collect()
                } else {
                    vec![0]
                }
            }
        }
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} x{} ({})",
            self.arrangement, self.cubes, self.interleave
        )
    }
}

/// The origin cube a request id encodes (the issuing host's shard).
fn origin_of(id: u64) -> usize {
    (id >> ORIGIN_SHIFT) as usize
}

/// The earlier of two optional instants (`None` means "no work").
#[inline]
fn earliest(a: Option<Time>, b: Option<Time>) -> Option<Time> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// Repacks a device response for another hop of egress forwarding.
fn repack(resp: &MemoryResponse) -> OutPacket {
    OutPacket {
        req: MemoryRequest {
            id: resp.id,
            port: resp.port,
            tag: resp.tag,
            op: resp.op,
            size: resp.size,
            cube: resp.cube,
            addr: resp.addr,
            issued_at: resp.issued_at,
            data_token: 0,
            tenant: resp.tenant,
        },
        token: resp.data_token,
    }
}

/// A cross-shard hop-link message. Its delivery time is always at least
/// the per-edge hop floor after the instant it was sent, so the instant
/// pump never delivers into an instant it has already begun.
#[derive(Debug, Clone)]
enum HopMsg {
    /// A request finished its hop serialization and arrives on sub-link
    /// `l` of the destination's port for the edge in the key.
    Req { l: usize, req: MemoryRequest },
    /// A response finished its hop and arrives on sub-link `l`.
    Resp { l: usize, pkt: OutPacket },
    /// Flow-control credit: the receiver handed one of our requests
    /// downstream, freeing a slot on sub-link `l`.
    Credit { l: usize },
}

/// The request-transmit half of one hop sub-link, owned by the sending
/// shard: a full [`DeviceLink`] (so forwarded packets pay the same SerDes
/// serialization and CRC/retry costs as host traffic — its ingress queue
/// is the hop's admission window) plus credit-based flow control toward
/// the receiver's bounded arrival queue.
#[derive(Debug)]
struct ReqTx {
    link: DeviceLink,
    /// Completion instant of the transfer occupying the serializer.
    busy_until: Time,
    /// Remaining receive-queue slots at the far end.
    credits: usize,
}

impl ReqTx {
    /// Starts the next queued transfer at `now` if the serializer is free
    /// and the receiver has room, resolving the whole CRC/retry exchange
    /// eagerly: the returned instant is the final delivery time (each
    /// retry adds the penalty plus a reserialization, exactly as the
    /// incremental model would), so the arrival can ship as one message.
    fn try_start(&mut self, now: Time) -> Option<(Time, MemoryRequest)> {
        if self.credits == 0 || self.busy_until > now {
            return None;
        }
        let mut done = self.link.start_ingress(now)?;
        let req = loop {
            match self.link.complete_ingress(done) {
                Transfer::Retry { next_done, .. } => done = next_done,
                Transfer::Delivered { payload, .. } => {
                    self.link.finish_ingress();
                    break payload;
                }
            }
        };
        self.credits -= 1;
        self.busy_until = done;
        Some((done, req))
    }
}

/// The response-transmit half of one hop sub-link, owned by the shard
/// that forwards responses across the edge. Responses are never
/// backpressured (matching the unbounded egress path of the host-facing
/// wires), so there is no credit state.
#[derive(Debug)]
struct RespTx {
    link: DeviceLink,
    busy_until: Time,
}

impl RespTx {
    /// Starts the next queued response transfer at `now` if the
    /// serializer is free, resolving retries eagerly as
    /// [`ReqTx::try_start`] does.
    fn try_start(&mut self, now: Time) -> Option<(Time, OutPacket)> {
        if self.busy_until > now {
            return None;
        }
        let mut done = self.link.start_egress(now)?;
        let pkt = loop {
            match self.link.complete_egress(done) {
                Transfer::Retry { next_done, .. } => done = next_done,
                Transfer::Delivered { payload, .. } => {
                    self.link.finish_egress();
                    break payload;
                }
            }
        };
        self.busy_until = done;
        Some((done, pkt))
    }
}

/// One shard's endpoint of one cube-to-cube edge: transmit serializers
/// toward the peer and arrival queues from it, one of each per external
/// sub-link.
#[derive(Debug)]
struct Port {
    /// Global edge index (the mailbox ordering key's second field).
    edge: usize,
    /// Direction this shard sends in on the edge (0 = lo→hi).
    dir: u8,
    /// The adjacent shard.
    peer: usize,
    /// Minimum message latency across this edge (the credit delay): one
    /// flit through a pass-through link.
    floor: TimeDelta,
    /// Next sequence number for messages sent on `(edge, dir)`.
    seq: u64,
    req_tx: Vec<ReqTx>,
    resp_tx: Vec<RespTx>,
    /// Arrived requests per sub-link; the head parks when the next stage
    /// is full (head-of-line blocking, as a wire cannot reorder).
    req_rx: Vec<VecDeque<(Time, MemoryRequest)>>,
    /// Arrived responses per sub-link; never backpressured.
    resp_rx: Vec<VecDeque<(Time, OutPacket)>>,
    /// Bit `l` is set while sub-link `l` may hold work: anything queued
    /// for transmit or arrived and undelivered. A clear bit guarantees
    /// an empty sub-link, so the hop sweep and scan visit set bits only.
    active: u64,
}

impl Port {
    /// Marks sub-link `l` as holding work.
    fn mark(&mut self, l: usize) {
        self.active |= 1 << l;
    }

    /// True when sub-link `l` has nothing to do at `t`: both arrival
    /// queues are empty and neither serializer can start — the same
    /// transmit tests [`CubeShard::refresh_hop_next`] applies.
    fn idle(&self, l: usize, t: Time) -> bool {
        let tx = &self.req_tx[l];
        let rtx = &self.resp_tx[l];
        self.req_rx[l].is_empty()
            && self.resp_rx[l].is_empty()
            && (tx.credits == 0 || tx.busy_until > t || tx.link.ingress_backlog() == 0)
            && (rtx.busy_until > t || rtx.link.egress_backlog() == 0)
    }

    /// Sends a message, sent at `now` and due at `at`, to the peer:
    /// stamps the next `(edge, dir, seq)` ordering key and pushes it
    /// straight into the peer's inbox.
    fn send(&mut self, inboxes: &mut [Mailbox<HopMsg>], now: Time, at: Time, msg: HopMsg) {
        // The pump's order argument: a message is never due at or before
        // the instant that sent it.
        debug_assert!(at > now, "hop message due at {at}, sent at {now}");
        let key = MsgKey {
            at,
            edge: u32::try_from(self.edge).expect("at most 7 edges in an 8-cube topology"),
            dir: self.dir,
            seq: self.seq,
        };
        self.seq += 1;
        inboxes[self.peer].push(key, msg);
    }

    /// Starts sub-link `l`'s request serializer at `now` if it can, and
    /// sends the serialized request to the peer; the hop span leaving
    /// this shard ends at its arrival. True if a transfer started.
    fn start_req(
        &mut self,
        l: usize,
        now: Time,
        hop_tracer: &mut Tracer,
        inboxes: &mut [Mailbox<HopMsg>],
    ) -> bool {
        let Some((done, req)) = self.req_tx[l].try_start(now) else {
            return false;
        };
        hop_tracer.finish(req.id.value(), Stage::HopLink.index(), done);
        self.send(inboxes, now, done, HopMsg::Req { l, req });
        true
    }

    /// The response half of [`start_req`](Port::start_req).
    fn start_resp(
        &mut self,
        l: usize,
        now: Time,
        hop_tracer: &mut Tracer,
        inboxes: &mut [Mailbox<HopMsg>],
    ) -> bool {
        let Some((done, pkt)) = self.resp_tx[l].try_start(now) else {
            return false;
        };
        hop_tracer.finish(pkt.req.id.value(), Stage::HopLink.index(), done);
        self.send(inboxes, now, done, HopMsg::Resp { l, pkt });
        true
    }
}

/// The transmit sink one sharded host sees: local requests go straight to
/// the home cube's device; remote requests enter the request serializer
/// toward their target. Host flow control sees the *tightest* window
/// along the local fan-out (device ingress and every adjacent outgoing
/// hop queue), which is conservative but never over-commits a queue.
struct ShardSink<'a, B: MemoryBackend> {
    shard: usize,
    topo: &'a Topology,
    device: &'a mut B,
    ports: &'a mut [Port],
    inboxes: &'a mut [Mailbox<HopMsg>],
    hop_tracer: &'a mut Tracer,
}

impl<B: MemoryBackend> LinkSink for ShardSink<'_, B> {
    fn free_slots(&self, link: usize) -> usize {
        let mut free = self.device.free_slots(link);
        for p in self.ports.iter() {
            free = free.min(p.req_tx[link].link.ingress_free());
        }
        free
    }

    fn submit(&mut self, link: usize, req: MemoryRequest, now: Time) -> Result<(), MemoryRequest> {
        let dst = req.cube.index() as usize;
        if dst == self.shard {
            return self.device.submit(link, req, now);
        }
        let id = req.id.value();
        let next = self.topo.next_shard(self.shard, dst);
        let port = self
            .ports
            .iter_mut()
            .find(|p| p.peer == next)
            .expect("route leads to an adjacent port");
        port.req_tx[link].link.enqueue_ingress(req, now)?;
        port.mark(link);
        // The host's LinkTx span ended at `now`; the hop stage owns the
        // request from here until its serialized arrival at the peer.
        self.hop_tracer.begin(id, now);
        port.start_req(link, now, self.hop_tracer, self.inboxes);
        Ok(())
    }
}

/// One cube of the chain: its host, device, metrics sampler, and every
/// hop-link endpoint it drives. Its inbox lives on [`ChainSystem`], so
/// other shards can push into it while this one is borrowed. The pump
/// consumes local events and inbox messages in one deterministic total
/// order, so the shard's states depend only on its inputs.
#[derive(Debug)]
struct CubeShard<B: MemoryBackend = HmcDevice> {
    idx: usize,
    topo: Topology,
    links: usize,
    host: Host,
    device: B,
    sampler: Option<MetricsSampler>,
    ports: Vec<Port>,
    /// Scratch buffer for device outputs.
    outputs: Vec<DeviceOutput>,
    /// Lifecycle tracer for hop-link traversal (the chain-only
    /// [`Stage::HopLink`] spans): opened when a packet enters a hop
    /// serializer or arrives over an edge, closed when it leaves for the
    /// next shard or reaches its next local stage. Disabled by default,
    /// like the host and device tracers.
    hop_tracer: Tracer,
    /// Total head-of-line parking time: arrival→delivery gaps of
    /// requests that waited at this shard because their next stage was
    /// full. Plain accounting — never feeds back into simulation state.
    hol_parked: TimeDelta,
    /// Earliest instant a hop serializer with queued work can start, as
    /// of the end of the last pumped instant (see
    /// [`refresh_hop_next`](CubeShard::refresh_hop_next)). Port state
    /// changes only inside [`pump_instant`](CubeShard::pump_instant), so
    /// the cache is exact whenever the pump asks for
    /// [`next_time`](CubeShard::next_time).
    hop_next: Option<Time>,
}

impl<B: MemoryBackend> CubeShard<B> {
    /// Index of the port facing adjacent shard `peer`.
    fn port_toward(&self, peer: usize) -> usize {
        self.ports
            .iter()
            .position(|p| p.peer == peer)
            .expect("route leads to an adjacent port")
    }

    /// Earliest instant at which this shard has work: a host or device
    /// event, an undelivered message in its `inbox`, or a pending
    /// transmit start. Parked request heads are deliberately excluded —
    /// they retry when the event that frees their next stage fires — and
    /// so are metrics samples, which never wake the pump.
    #[inline]
    fn next_time(&self, inbox: &Mailbox<HopMsg>) -> Option<Time> {
        earliest(
            earliest(self.host.next_time(), self.device.next_time()),
            earliest(inbox.peek_at(), self.hop_next),
        )
    }

    /// The running totals the step profiler takes deltas of: events
    /// processed, messages sent (the ports' `seq` counters), and
    /// head-of-line parking (`hol_parked`).
    fn profile_totals(&self) -> EpochSample {
        EpochSample {
            events: self.host.events_processed() + self.device.events_processed(),
            sent: self.ports.iter().map(|p| p.seq).sum(),
            parked: self.hol_parked,
        }
    }

    /// Recomputes [`hop_next`](CubeShard::hop_next): the earliest
    /// instant a hop serializer with queued work (and, for requests, a
    /// credit) can start transmitting. Sub-links found empty leave the
    /// active set.
    fn refresh_hop_next(&mut self) {
        let mut next: Option<Time> = None;
        for p in &mut self.ports {
            let mut bits = p.active;
            while bits != 0 {
                let l = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let tx = &p.req_tx[l];
                let rtx = &p.resp_tx[l];
                let (ingress, egress) = (tx.link.ingress_backlog(), rtx.link.egress_backlog());
                if tx.credits > 0 && ingress > 0 {
                    next = Some(next.map_or(tx.busy_until, |n| n.min(tx.busy_until)));
                }
                if egress > 0 {
                    next = Some(next.map_or(rtx.busy_until, |n| n.min(rtx.busy_until)));
                }
                if ingress == 0 && egress == 0 && p.req_rx[l].is_empty() && p.resp_rx[l].is_empty()
                {
                    p.active &= !(1 << l);
                }
            }
        }
        self.hop_next = next;
    }

    /// Processes one instant `t` of this shard's timeline: inbox
    /// deliveries, host events, device events, hop-link progress, stall
    /// credits, and metrics samples, in that order. `inboxes` holds every
    /// shard's inbox, indexed by shard: this shard's own is drained, and
    /// messages it sends land in its neighbours'.
    ///
    /// Only the work due at `t` runs. The host and the device advance
    /// only when they have an event at `t` (or an armed sanitizer, whose
    /// per-call queue-bound check is part of its report); the hop sweep
    /// runs only while some sub-link is active, and then visits only
    /// active sub-links that are not idle at `t`. Every skipped call
    /// would have changed nothing but the component's local clock, which
    /// no chain path reads, so the shard computes bit-identical states.
    /// The steps that only some instants need (inbox delivery, hop
    /// forwarding and sweeping, sampling) sit in functions kept out of
    /// line, so the per-instant path of a busy cube stays short.
    fn pump_instant(&mut self, t: Time, inboxes: &mut [Mailbox<HopMsg>]) {
        // 1. Cross-shard messages due by now (step 4 moves arrivals on).
        if inboxes[self.idx].peek_at().is_some_and(|at| at <= t) {
            self.drain_inbox(t, inboxes);
        }
        // 2. Host first: its submissions at instants <= t reach a device
        //    (or hop serializer) whose clock has not passed t yet.
        if self.host.next_time() == Some(t) || self.host.sanitizer().is_enabled() {
            self.advance_host(t, inboxes);
        }
        // 3. Device events; responses route to the local host or back
        //    into the chain toward their origin cube. Checked after the
        //    host step, whose submissions can schedule device work at t.
        if self.device.next_time() == Some(t) || self.device.sanitizer().is_enabled() {
            self.outputs.clear();
            self.device.advance_instant(t, &mut self.outputs);
            for i in 0..self.outputs.len() {
                let o = self.outputs[i];
                self.route_device_output(&o, inboxes);
            }
        }
        // 4. Hop progress: drain arrivals and restart serializers until a
        //    full sweep makes no progress, so same-instant head-of-line
        //    unblocking is observed deterministically in port order. Work
        //    the sweep routes onward lands on other ports (or on this
        //    sub-link), so visiting the active set taken when each port's
        //    turn comes sees everything a full scan would. With no active
        //    sub-link there is nothing to sweep, and `hop_next` is already
        //    `None` (only a refresh clears a bit, and it then leaves no
        //    start time behind).
        if self.ports.iter().any(|p| p.active != 0) {
            self.sweep_hops(t, inboxes);
            self.refresh_hop_next();
        }
        // 5. Wake a stalled host if any fan-out window opened.
        if self.host.any_node_stalled() {
            for l in 0..self.links {
                let mut free = self.device.free_slots(l);
                for p in &self.ports {
                    free = free.min(p.req_tx[l].link.ingress_free());
                }
                if free > 0 {
                    self.host.notify_credit(l, free, t);
                }
            }
        }
        // 6. Metrics samples due by this instant.
        if self
            .sampler
            .as_ref()
            .is_some_and(|s| s.due_before(t).is_some())
        {
            self.sample_due(t, inboxes[self.idx].len());
        }
    }

    /// Step 1 of [`pump_instant`](CubeShard::pump_instant): delivers the
    /// inbox messages due by `t` in total `(at, edge, dir, seq)` order.
    /// Credits open transmit windows; arrivals queue on their port.
    #[inline(never)]
    fn drain_inbox(&mut self, t: Time, inboxes: &mut [Mailbox<HopMsg>]) {
        while let Some((key, msg)) = inboxes[self.idx].pop_before(t) {
            let pi = self
                .ports
                .iter()
                .position(|p| p.edge == key.edge as usize)
                .expect("message addressed to an owned edge");
            match msg {
                HopMsg::Req { l, req } => {
                    // The hop stage keeps owning the request while it
                    // waits (possibly parked) for its next local stage.
                    self.hop_tracer.begin(req.id.value(), key.at);
                    self.ports[pi].req_rx[l].push_back((key.at, req));
                    self.ports[pi].mark(l);
                }
                HopMsg::Resp { l, pkt } => {
                    self.ports[pi].resp_rx[l].push_back((key.at, pkt));
                    self.ports[pi].mark(l);
                }
                HopMsg::Credit { l } => self.ports[pi].req_tx[l].credits += 1,
            }
        }
    }

    /// Step 4 of [`pump_instant`](CubeShard::pump_instant): moves hop
    /// arrivals downstream and restarts serializers until a full sweep
    /// over the active sub-links makes no progress.
    #[inline(never)]
    fn sweep_hops(&mut self, t: Time, inboxes: &mut [Mailbox<HopMsg>]) {
        let mut progress = true;
        while progress {
            progress = false;
            for pi in 0..self.ports.len() {
                let mut bits = self.ports[pi].active;
                while bits != 0 {
                    let l = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if self.ports[pi].idle(l, t) {
                        continue;
                    }
                    // Arrived requests: hand each to the device or the
                    // next hop; the head parks on downstream-full and the
                    // sender's credit returns one hop floor later.
                    while let Some(&(at, req)) = self.ports[pi].req_rx[l].front() {
                        if self.try_deliver_request(l, req, t, inboxes).is_err() {
                            break;
                        }
                        self.hol_parked += t.since(at);
                        let port = &mut self.ports[pi];
                        port.req_rx[l].pop_front();
                        port.send(inboxes, t, t + port.floor, HopMsg::Credit { l });
                        progress = true;
                    }
                    // Arrived responses: deliver to the local host or
                    // re-serialize toward the origin. Never blocks.
                    while let Some((at, pkt)) = self.ports[pi].resp_rx[l].pop_front() {
                        self.deliver_response(l, pkt, at, inboxes);
                        progress = true;
                    }
                    // Restart any serializer freed this instant.
                    if self.ports[pi].start_req(l, t, &mut self.hop_tracer, inboxes) {
                        progress = true;
                    }
                    if self.ports[pi].start_resp(l, t, &mut self.hop_tracer, inboxes) {
                        progress = true;
                    }
                }
            }
        }
    }

    /// Records every metrics sample due by `t` from the shard's state as
    /// it stands, each stamped with its due instant. Hop gauges ride the
    /// same per-cube sampler as the host and device gauges; `in_flight`
    /// is this shard's inbox depth.
    #[inline(never)]
    fn sample_due(&mut self, t: Time, in_flight: usize) {
        let Some(mut smp) = self.sampler.take() else {
            return;
        };
        while let Some(due) = smp.due_before(t) {
            self.host.sample_metrics(due, &mut smp);
            self.device.sample_metrics(due, &mut smp);
            self.sample_hop_metrics(due, &mut smp, in_flight);
            smp.advance();
        }
        self.sampler = Some(smp);
    }

    /// Advances the host through instant `t`, transmitting through a
    /// [`ShardSink`] over this shard's device and ports.
    fn advance_host(&mut self, t: Time, inboxes: &mut [Mailbox<HopMsg>]) {
        let mut sink = ShardSink {
            shard: self.idx,
            topo: &self.topo,
            device: &mut self.device,
            ports: &mut self.ports,
            inboxes,
            hop_tracer: &mut self.hop_tracer,
        };
        self.host.advance_instant(t, &mut sink);
    }

    /// Records the chain-level gauges of this shard: per-edge hop-link
    /// occupancy (transmit backlog, arrival queue, remaining credit
    /// window) plus `in_flight`, the messages in flight toward this cube
    /// (its inbox depth). A cube with no edges has no chain gauges, so a
    /// one-cube stream carries no hop or mailbox series. Read-only over
    /// the port state, so an armed sampler stays bit-inert.
    fn sample_hop_metrics(&self, due: Time, smp: &mut MetricsSampler, in_flight: usize) {
        if self.ports.is_empty() {
            return;
        }
        for p in &self.ports {
            let mut tx = 0usize;
            let mut rx = 0usize;
            let mut credits = 0usize;
            for l in 0..self.links {
                tx += p.req_tx[l].link.ingress_backlog() + p.resp_tx[l].link.egress_backlog();
                rx += p.req_rx[l].len() + p.resp_rx[l].len();
                credits += p.req_tx[l].credits;
            }
            let e = p.edge;
            smp.record(&format!("hop.edge{e}.tx_backlog"), due, tx as f64);
            smp.record(&format!("hop.edge{e}.rx_queued"), due, rx as f64);
            smp.record(&format!("hop.edge{e}.credits"), due, credits as f64);
        }
        smp.record("chain.mailbox", due, in_flight as f64);
    }

    /// Routes one device output: responses to locally-issued requests go
    /// to the local host (exactly the single-cube path); responses to
    /// forwarded requests re-enter the chain toward their origin cube,
    /// paying another serialization per hop.
    fn route_device_output(&mut self, o: &DeviceOutput, inboxes: &mut [Mailbox<HopMsg>]) {
        let owner = origin_of(o.resp.id.value());
        if owner == self.idx || owner >= self.topo.cubes() as usize {
            self.host.receive_response(o.resp, o.at);
        } else {
            self.forward_response(owner, o, inboxes);
        }
    }

    /// Sends a device response for another cube's host into the hop
    /// toward its `owner`.
    #[inline(never)]
    fn forward_response(
        &mut self,
        owner: usize,
        o: &DeviceOutput,
        inboxes: &mut [Mailbox<HopMsg>],
    ) {
        let next = self.topo.next_shard(self.idx, owner);
        let pi = self.port_toward(next);
        // The device tracer's LinkEgress span ended at `o.at`; the hop
        // stage owns the response from here until its wire arrival.
        self.hop_tracer.begin(o.resp.id.value(), o.at);
        self.ports[pi].resp_tx[o.link]
            .link
            .push_egress(repack(&o.resp));
        self.ports[pi].mark(o.link);
        self.ports[pi].start_resp(o.link, o.at, &mut self.hop_tracer, inboxes);
    }

    /// Attempts to move an arrived request into its next stage (the local
    /// device, or the next hop toward its cube). `Err` means
    /// downstream-full: the caller leaves it parked head-of-line.
    fn try_deliver_request(
        &mut self,
        l: usize,
        req: MemoryRequest,
        now: Time,
        inboxes: &mut [Mailbox<HopMsg>],
    ) -> Result<(), ()> {
        let dst = req.cube.index() as usize;
        if dst == self.idx {
            self.device.submit(l, req, now).map_err(|_| ())?;
            // Close the hop span opened at wire arrival: it covered the
            // head-of-line wait; the device tracer takes over at `now`.
            self.hop_tracer
                .finish(req.id.value(), Stage::HopLink.index(), now);
            return Ok(());
        }
        let next = self.topo.next_shard(self.idx, dst);
        let pi = self.port_toward(next);
        self.ports[pi].req_tx[l]
            .link
            .enqueue_ingress(req, now)
            .map_err(|_| ())?;
        self.ports[pi].mark(l);
        self.ports[pi].start_req(l, now, &mut self.hop_tracer, inboxes);
        Ok(())
    }

    /// Delivers an arrived response: at its origin cube it reaches the
    /// host (stamped with its wire arrival instant); otherwise it
    /// re-enters the next hop's response serializer.
    fn deliver_response(
        &mut self,
        l: usize,
        pkt: OutPacket,
        at: Time,
        inboxes: &mut [Mailbox<HopMsg>],
    ) {
        let owner = origin_of(pkt.req.id.value());
        if owner == self.idx || owner >= self.topo.cubes() as usize {
            // `at` is the previous hop's serialized arrival instant, so
            // the host's RX rebase leaves no unattributed gap.
            self.host
                .receive_response(pkt.req.respond(at, pkt.token), at);
            return;
        }
        let next = self.topo.next_shard(self.idx, owner);
        let pi = self.port_toward(next);
        // Pass-through forward: the hop stage owns the response from its
        // arrival here until it finishes the next serialization.
        self.hop_tracer.begin(pkt.req.id.value(), at);
        self.ports[pi].resp_tx[l].link.push_egress(pkt);
        self.ports[pi].mark(l);
        self.ports[pi].start_resp(l, at, &mut self.hop_tracer, inboxes);
    }
}

/// One thermal shutdown and its timed recovery, as executed live.
#[derive(Debug, Clone)]
pub struct RecoveryRecord {
    /// The cube that shut down (0 in a [`crate::System`]).
    pub cube: usize,
    /// Instant the spike crossed the policy limit and the device halted.
    pub shutdown_at: Time,
    /// The offending surface temperature, °C.
    pub surface_c: f64,
    /// The recovery sequence with the duration charged per step.
    pub steps: Vec<(RecoveryStep, TimeDelta)>,
    /// Instant the device accepted traffic again.
    pub resume_at: Time,
    /// In-flight requests the host replayed from `resume_at`.
    pub replayed: usize,
}

impl RecoveryRecord {
    /// Total dead time of the cycle.
    pub fn outage(&self) -> TimeDelta {
        self.resume_at.since(self.shutdown_at)
    }
}

/// Forward-progress watchdog state: outstanding requests with no
/// retirement anywhere in the fleet for [`Watchdog::span`] of simulated
/// time means the system wedged (deadlock or livelock) and a diagnostic
/// dump is recorded.
#[derive(Debug, Clone, Copy)]
struct Watchdog {
    /// Simulated time without a retirement before the watchdog trips.
    span: TimeDelta,
    /// Completion count at the last observed progress.
    last_completed: u64,
    /// Instant of the last observed progress.
    last_progress: Time,
    /// Set once tripped so the report carries one dump, not thousands.
    tripped: bool,
}

/// Fleet-wide `(completed, outstanding)` request counts.
fn fleet_progress<B: MemoryBackend>(shards: &[CubeShard<B>]) -> (u64, u64) {
    shards.iter().fold((0, 0), |(done, open), sh| {
        let out = sh.host.outstanding();
        (done + sh.host.total_issued() - out, open + out)
    })
}

/// Feeds the watchdog at `now`: records progress, and trips it (once)
/// with a diagnostic dump when outstanding requests stop retiring. The
/// violation lands on cube 0's host sanitizer, so the merged report
/// carries exactly one dump. Borrows only what it reads, so a pump can
/// call it while holding its shard.
fn watchdog_check<B: MemoryBackend>(
    watchdog: &mut Option<Watchdog>,
    shards: &mut [CubeShard<B>],
    inboxes: &[Mailbox<HopMsg>],
    topo: &Topology,
    now: Time,
) {
    let Some(wd) = watchdog else {
        return;
    };
    let (completed, outstanding) = fleet_progress(shards);
    if completed != wd.last_completed || outstanding == 0 {
        wd.last_completed = completed;
        wd.last_progress = now;
    } else if !wd.tripped && now >= wd.last_progress && now.since(wd.last_progress) >= wd.span {
        wd.tripped = true;
        let detail = format!(
            "no retirement for {} with {outstanding} outstanding\n{}",
            now.since(wd.last_progress),
            wedge_dump(shards, inboxes, topo, now),
        );
        shards[0]
            .host
            .sanitizer_mut()
            .note_violation(ViolationClass::Watchdog, now, detail);
    }
}

/// The body of [`ChainSystem::diagnostic_dump`]: every cube's host and
/// device occupancies, credits in use per host link, hop-port backlogs
/// and messages in flight toward it at `now`.
fn wedge_dump<B: MemoryBackend>(
    shards: &[CubeShard<B>],
    inboxes: &[Mailbox<HopMsg>],
    topo: &Topology,
    now: Time,
) -> String {
    let mut s = format!("system wedged at {now} ({topo})\n");
    for (sh, inbox) in shards.iter().zip(inboxes) {
        s.push_str(&format!("-- cube {}\n", sh.idx));
        s.push_str(&sh.host.diagnostic_dump(now));
        s.push_str(&sh.device.diagnostic_dump(now));
        let in_use = sh.device.sanitizer().credits_in_use();
        if !in_use.is_empty() {
            s.push_str("credits in use per link: ");
            for (l, c) in in_use.iter().enumerate() {
                if l > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!("link {l}={c}"));
            }
            s.push('\n');
        }
        for p in &sh.ports {
            let tx: usize = (0..sh.links)
                .map(|l| p.req_tx[l].link.ingress_backlog() + p.resp_tx[l].link.egress_backlog())
                .sum();
            let rx: usize = (0..sh.links)
                .map(|l| p.req_rx[l].len() + p.resp_rx[l].len())
                .sum();
            let credits: usize = (0..sh.links).map(|l| p.req_tx[l].credits).sum();
            s.push_str(&format!(
                "port ->{} (edge {}): tx backlog {tx}, rx queued {rx}, credits {credits}\n",
                p.peer, p.edge
            ));
        }
        if !inbox.is_empty() {
            s.push_str(&format!("messages in flight {}\n", inbox.len()));
        }
    }
    s
}

/// A chained (or starred) multi-cube system: N sharded hosts, N cubes,
/// pass-through links between adjacent cubes. With one cube this is the
/// whole of a [`crate::System`]. One pump visits the earliest instant
/// any cube has work at and pumps each such cube in cube order, and hop
/// links are delays on the messages pushed into the neighbours' inboxes
/// (see the module docs).
///
/// ```
/// use hmc_core::topology::{ChainSystem, Topology};
/// use hmc_core::SystemConfig;
/// use hmc_host::Workload;
/// use hmc_types::{RequestSize, Time, TimeDelta};
///
/// let mut sys = ChainSystem::new(SystemConfig::default(), Topology::chain(2));
/// sys.apply_workload(&Workload::read_stream(4, RequestSize::new(64)?));
/// sys.start(Time::ZERO);
/// assert!(sys.run_until_idle(TimeDelta::from_ms(1)));
/// assert_eq!(sys.host_stats().reads_completed, 2 * 4);
/// # Ok::<(), hmc_types::HmcError>(())
/// ```
#[derive(Debug)]
pub struct ChainSystem<B: MemoryBackend = HmcDevice> {
    cfg: SystemConfig,
    topo: Topology,
    shards: Vec<CubeShard<B>>,
    /// Per-shard inboxes: every hop message in flight toward each cube.
    inboxes: Vec<Mailbox<HopMsg>>,
    now: Time,
    watchdog: Option<Watchdog>,
    /// Pending thermal spikes `(at, °C, cube)`, sorted ascending.
    thermal_spikes: Vec<(Time, f64, usize)>,
    policy: FailurePolicy,
    recoveries: Vec<RecoveryRecord>,
    /// Deterministic per-shard step profiler (armed on demand; the pump
    /// feeds it after every instant).
    profiler: Option<EpochProfiler>,
}

impl ChainSystem {
    /// Builds an idle multi-cube system. Each cube `s` gets:
    ///
    /// * a host sharded over the whole topology, with request-id base
    ///   `s << 48` (ids double as stateless response-routing tags), and a
    ///   per-cube generator-seed salt mixed into the configured
    ///   `rng_salt` (unchanged for cube 0, so a one-cube chain draws the
    ///   configured streams);
    /// * a device whose link-fault seeds are salted per cube (base seed
    ///   unchanged for cube 0);
    /// * pass-through hop serializers toward its neighbors, one per
    ///   external sub-link per direction, with credit windows sized to
    ///   the link layer's retry-buffer depth.
    ///
    /// The hop floor is fixed here: one 16-byte flit through a
    /// pass-through link (serialization at wire efficiency plus the
    /// packet and per-flit overheads) is the smallest latency any
    /// cross-shard message can carry, and the delay of every credit.
    pub fn new(cfg: SystemConfig, topo: Topology) -> Self {
        let base_seed = cfg.mem.link_seed;
        ChainSystem::with_devices(cfg, topo, |s, cfg| {
            let mut mc = cfg.mem.clone();
            mc.link_seed = base_seed ^ ((s as u64) << 8);
            HmcDevice::new(mc)
        })
    }
}

impl<B: MemoryBackend> ChainSystem<B> {
    /// Builds an idle multi-cube system from a per-cube backend factory —
    /// the generic analogue of [`ChainSystem::new`], and the one
    /// constructor every [`SystemBuilder`](crate::SystemBuilder) variant
    /// goes through. Each cube's host-link count is its built device's
    /// [`num_links`](MemoryBackend::num_links). The hop links joining
    /// adjacent cubes stay HMC pass-through serializers (cube chaining is
    /// an HMC-specification feature; the backend only replaces what sits
    /// behind each cube's host-facing ports). The cubes share one set of
    /// open-loop tenant samplers, built once here and cloned into each
    /// host, since they depend only on the tenant mix.
    pub fn with_devices(
        cfg: SystemConfig,
        topo: Topology,
        mut factory: impl FnMut(usize, &SystemConfig) -> B,
    ) -> Self {
        let n = topo.cubes() as usize;
        let shard = topo.shard();
        let probe = DeviceLink::new(cfg.mem.links, cfg.mem.link_layer);
        let hop_floor = probe.transfer_time(FLIT_BYTES);
        // The instant pump relies on every message being due strictly
        // after the instant that sent it.
        assert!(
            hop_floor > TimeDelta::ZERO,
            "hop links need a positive single-flit floor"
        );
        let credit_window = cfg.mem.link_layer.retry_buffer_depth;
        let zipf = cfg.host.tenant_samplers();
        let mut shards = Vec::with_capacity(n);
        for s in 0..n {
            let device = factory(s, &cfg);
            let links = device.num_links();
            let mut hc = cfg.host.clone();
            hc.shard = shard;
            hc.request_id_base = (s as u64) << ORIGIN_SHIFT;
            hc.rng_salt = cfg.host.rng_salt ^ (s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let host = Host::with_tenant_samplers(hc, zipf.clone());
            let mut ports = Vec::new();
            for b in topo.neighbors(s) {
                let (e, up) = topo.hop_between(s, b);
                let dir: u8 = if up { 0 } else { 1 };
                ports.push(Port {
                    edge: e,
                    dir,
                    peer: b,
                    floor: hop_floor,
                    seq: 0,
                    req_tx: (0..links)
                        .map(|l| ReqTx {
                            link: DeviceLink::with_seed(
                                cfg.mem.links,
                                cfg.mem.link_layer,
                                0xED6E ^ ((e as u64) << 12) ^ (u64::from(dir) << 8) ^ l as u64,
                            ),
                            busy_until: Time::ZERO,
                            credits: credit_window,
                        })
                        .collect(),
                    resp_tx: (0..links)
                        .map(|l| RespTx {
                            link: DeviceLink::with_seed(
                                cfg.mem.links,
                                cfg.mem.link_layer,
                                0xC4E5 ^ ((e as u64) << 12) ^ (u64::from(dir) << 8) ^ l as u64,
                            ),
                            busy_until: Time::ZERO,
                        })
                        .collect(),
                    req_rx: (0..links).map(|_| VecDeque::new()).collect(),
                    resp_rx: (0..links).map(|_| VecDeque::new()).collect(),
                    active: 0,
                });
            }
            shards.push(CubeShard {
                idx: s,
                topo,
                links,
                host,
                device,
                sampler: None,
                ports,
                outputs: Vec::new(),
                hop_tracer: Tracer::new(&Stage::NAMES),
                hol_parked: TimeDelta::ZERO,
                hop_next: None,
            });
        }
        ChainSystem {
            cfg,
            topo,
            shards,
            inboxes: (0..n).map(|_| Mailbox::new()).collect(),
            now: Time::ZERO,
            watchdog: None,
            thermal_spikes: Vec::new(),
            policy: FailurePolicy::default(),
            recoveries: Vec::new(),
            profiler: None,
        }
    }

    /// The topology description.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Number of cubes.
    pub fn cubes(&self) -> usize {
        self.shards.len()
    }

    /// The host of cube `s`.
    pub fn host(&self, s: usize) -> &Host {
        &self.shards[s].host
    }

    /// Mutable host access (workload installation, stat windows).
    pub fn host_mut(&mut self, s: usize) -> &mut Host {
        &mut self.shards[s].host
    }

    /// The device of cube `s`.
    pub fn device(&self, s: usize) -> &B {
        &self.shards[s].device
    }

    /// Mutable device access.
    pub fn device_mut(&mut self, s: usize) -> &mut B {
        &mut self.shards[s].device
    }

    /// Installs the same workload on every sharded host.
    pub fn apply_workload(&mut self, w: &Workload) {
        for sh in &mut self.shards {
            sh.host.apply_workload(w);
        }
    }

    /// Starts every host's generators at `now`.
    pub fn start(&mut self, now: Time) {
        for sh in &mut self.shards {
            sh.host.start(now);
        }
    }

    /// Stops every host's generators (outstanding responses still drain).
    pub fn stop_generation(&mut self) {
        for sh in &mut self.shards {
            sh.host.stop_generation();
        }
    }

    /// Clears every host's measurement window.
    pub fn reset_stats(&mut self) {
        for sh in &mut self.shards {
            sh.host.reset_stats();
        }
    }

    /// Merged measurement window across all hosts.
    pub fn host_stats(&self) -> HostStats {
        let mut agg = HostStats::default();
        for sh in &self.shards {
            let s = sh.host.stats();
            agg.reads_issued += s.reads_issued;
            agg.writes_issued += s.writes_issued;
            agg.reads_completed += s.reads_completed;
            agg.writes_completed += s.writes_completed;
            agg.counted_bytes += s.counted_bytes;
            agg.integrity_failures += s.integrity_failures;
            agg.read_latency.merge(&s.read_latency);
        }
        agg
    }

    /// Merged per-tenant open-loop stats across all sharded hosts, in
    /// shard order (deterministic). Empty without the open-loop frontend.
    pub fn open_stats(&self) -> Vec<hmc_host::TenantOpenStats> {
        let mut agg: Vec<hmc_host::TenantOpenStats> = self.shards[0].host.open_stats().to_vec();
        for sh in &self.shards[1..] {
            for (a, s) in agg.iter_mut().zip(sh.host.open_stats()) {
                a.merge(s);
            }
        }
        agg
    }

    /// The modeled per-hop remote-access latency adder for `size`-byte
    /// reads: one request serialization plus one response serialization
    /// through a pass-through link (identical timing model to the
    /// host-facing wires). An unloaded chain shows exactly this constant
    /// per hop.
    pub fn modeled_hop_adder(&self, size: RequestSize) -> TimeDelta {
        let probe = DeviceLink::new(self.cfg.mem.links, self.cfg.mem.link_layer);
        let sizes = TransactionSizes::of(OpKind::Read, size);
        probe.transfer_time(sizes.request_flits().bytes())
            + probe.transfer_time(sizes.response_flits().bytes())
    }

    /// Turns on lifecycle tracing on every host, device, and hop-link
    /// tracer, so chain attribution tables telescope end to end.
    pub fn enable_tracing(&mut self, sample_every: u64) {
        for sh in &mut self.shards {
            sh.host.tracer_mut().enable(sample_every);
            sh.device.tracer_mut().enable(sample_every);
            sh.hop_tracer.enable(sample_every);
        }
    }

    /// Installs one periodic gauge sampler per cube.
    pub fn enable_metrics(&mut self, period: TimeDelta) {
        for sh in &mut self.shards {
            sh.sampler = Some(MetricsSampler::new(period));
        }
    }

    /// Cube `s`'s gauge sampler, if metrics are enabled.
    pub fn metrics(&self, s: usize) -> Option<&MetricsSampler> {
        self.shards[s].sampler.as_ref()
    }

    /// Cube `s`'s hop-link tracer (the chain-only `hop_link` spans).
    pub fn hop_tracer(&self, s: usize) -> &Tracer {
        &self.shards[s].hop_tracer
    }

    /// All per-cube gauge series merged into one sampler under
    /// `cube{N}.`-prefixed names, in cube order — the chain's exportable
    /// metrics surface. `None` unless metrics are enabled.
    pub fn merged_metrics(&self) -> Option<MetricsSampler> {
        let period = self.shards[0].sampler.as_ref()?.period();
        let mut merged = MetricsSampler::new(period);
        for sh in &self.shards {
            let smp = sh.sampler.as_ref()?;
            for series in smp.series() {
                let name = format!("cube{}.{}", sh.idx, series.name());
                for &(t, v) in series.points() {
                    merged.record(&name, t, v);
                }
            }
        }
        Some(merged)
    }

    /// Arms the deterministic per-shard step profiler. Sim-time only:
    /// after each instant the pump records every shard's event count,
    /// messages sent, and head-of-line parking over that step, so
    /// profiles are reproducible and the armed profiler never perturbs
    /// simulation state.
    pub fn enable_epoch_profiler(&mut self) {
        let totals = self.shards.iter().map(CubeShard::profile_totals);
        self.profiler = Some(EpochProfiler::from_totals(totals.collect()));
    }

    /// The step profile recorded so far, if the profiler is armed.
    pub fn epoch_profile(&self) -> Option<&EpochProfiler> {
        self.profiler.as_ref()
    }

    /// Arms the protocol sanitizer on every host and device plus the
    /// fleet-wide forward-progress watchdog (default span). Enable before
    /// starting a run; the merged outcome comes from
    /// [`sanitizer_report`](ChainSystem::sanitizer_report).
    pub fn enable_sanitizer(&mut self) {
        // Worst legal retirement gap: one fully-loaded bank queue
        // (120 deep) serializing at tRC ≈ 15 µs; 200 µs means wedged.
        self.enable_sanitizer_with_span(TimeDelta::from_us(200));
    }

    /// [`enable_sanitizer`](ChainSystem::enable_sanitizer) with an
    /// explicit watchdog span.
    pub fn enable_sanitizer_with_span(&mut self, span: TimeDelta) {
        for sh in &mut self.shards {
            sh.host.enable_sanitizer();
            sh.device.enable_sanitizer();
        }
        self.watchdog = Some(Watchdog {
            span,
            last_completed: fleet_progress(&self.shards).0,
            last_progress: self.now,
            tripped: false,
        });
    }

    /// True once the sanitizer is armed.
    pub fn sanitizer_enabled(&self) -> bool {
        self.shards[0].host.sanitizer().is_enabled()
    }

    /// The merged sanitizer outcome: hosts in cube order first, then
    /// devices — deterministic violation order.
    pub fn sanitizer_report(&self) -> SanitizerReport {
        let mut r = self.shards[0].host.sanitizer().report();
        for sh in &self.shards[1..] {
            r.merge(&sh.host.sanitizer().report());
        }
        for sh in &self.shards {
            r.merge(&sh.device.sanitizer().report());
        }
        r
    }

    /// Asserts every host's request-conservation ledger is empty — call
    /// once the run has drained. With the open-loop frontend attached
    /// this also asserts each shard's shed-accounting invariant
    /// (`offered = shed + completed` at drain).
    pub fn sanitize_check_drained(&mut self) {
        let now = self.now;
        for sh in &mut self.shards {
            sh.host.check_open_conservation(now);
            sh.host.sanitizer_mut().check_drained(now);
        }
    }

    /// Installs a fault scenario against cube `cube`: device-level faults
    /// become that device's events; thermal spikes become per-cube time
    /// barriers. Note that a thermal shutdown of a remote cube drops any
    /// in-flight traffic other hosts sent it — run multi-cube fault
    /// scenarios with the host robustness layer enabled so those requests
    /// are replayed rather than leaked.
    pub fn install_faults(&mut self, cube: usize, scenario: &FaultScenario) {
        for ev in &scenario.events {
            match ev.kind {
                FaultKind::ThermalSpike { surface_c } => {
                    self.thermal_spikes.push((ev.at, surface_c, cube));
                }
                kind => self.shards[cube].device.schedule_fault(ev.at, kind),
            }
        }
        self.thermal_spikes
            .sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)).then(a.2.cmp(&b.2)));
    }

    /// Arms a bit-error rate on every hop serializer of cube-to-cube edge
    /// `e` (both directions, requests and responses) — the hop-level
    /// analogue of the `noisy-link` scenario.
    pub fn set_hop_bit_error_rate(&mut self, e: usize, ber: f64) {
        for sh in &mut self.shards {
            for p in &mut sh.ports {
                if p.edge != e {
                    continue;
                }
                for l in 0..sh.links {
                    p.req_tx[l].link.set_bit_error_rate(ber);
                    p.resp_tx[l].link.set_bit_error_rate(ber);
                }
            }
        }
    }

    /// Replaces the thermal limits evaluated at spikes.
    pub fn set_failure_policy(&mut self, policy: FailurePolicy) {
        self.policy = policy;
    }

    /// Every shutdown/recovery cycle executed so far.
    pub fn recoveries(&self) -> &[RecoveryRecord] {
        &self.recoveries
    }

    /// Total discrete events processed across all hosts and devices.
    pub fn events_processed(&self) -> u64 {
        self.shards
            .iter()
            .map(|sh| sh.host.events_processed() + sh.device.events_processed())
            .sum()
    }

    /// The system clock.
    pub fn now(&self) -> Time {
        self.now
    }

    /// True while any host has outstanding work.
    pub fn is_busy(&self) -> bool {
        self.shards.iter().any(|sh| sh.host.is_busy())
    }

    /// Deterministic dump of every cube's occupancies, credits in use
    /// per host link, hop-port backlogs, messages in flight and clock —
    /// the body of the watchdog's diagnostic report.
    pub fn diagnostic_dump(&self) -> String {
        wedge_dump(&self.shards, &self.inboxes, &self.topo, self.now)
    }

    /// Advances every component until no event at or before `end`
    /// remains. Installed thermal spikes act as barriers: the system
    /// advances exactly to each spike, evaluates the failure policy
    /// against that cube's write history, and (on shutdown) executes the
    /// recovery cycle before continuing.
    ///
    /// Metrics samples never add an instant: each is recorded at the
    /// first instant at or after its due time, and every step (to `end`
    /// or to a spike) ends with one flush of the samples due by its
    /// bound. A window of span `S` at period `P` thus records exactly
    /// `S / P` points per series, the last stamped at the window end.
    pub fn step_until(&mut self, end: Time) {
        loop {
            let spike = self.thermal_spikes.first().copied().filter(|s| s.0 <= end);
            let to = spike.map_or(end, |s| s.0);
            self.step_instants_until(to);
            let Some((at, surface_c, cube)) = spike else {
                return;
            };
            self.thermal_spikes.remove(0);
            self.apply_thermal_spike(cube, at, surface_c);
        }
    }

    /// Evaluates one thermal spike against the failure policy. The
    /// write limit applies as soon as the cube has completed any write —
    /// the paper's ~10 °C earlier write-workload shutdowns.
    fn apply_thermal_spike(&mut self, cube: usize, at: Time, surface_c: f64) {
        let writes = self.shards[cube].device.core_stats().writes_completed > 0;
        match self.policy.check(surface_c, writes) {
            Ok(ThermalEvent::Normal) => {}
            Ok(ThermalEvent::RefreshBoost) => self.shards[cube].device.set_refresh_multiplier(2),
            Err(_) => self.thermal_shutdown(cube, at, surface_c),
        }
    }

    /// One cube's live shutdown/recovery cycle: its device halts and
    /// forgets everything (in-flight packets, queue contents, DRAM data),
    /// the timed recovery sequence elapses, and that cube's host replays
    /// its in-flight window from the resume instant (remote requesters
    /// rely on their robustness layer).
    fn thermal_shutdown(&mut self, cube: usize, at: Time, surface_c: f64) {
        let mut steps = Vec::new();
        let mut resume = at;
        for step in RecoveryStep::sequence() {
            let d = step.typical_duration();
            steps.push((step, d));
            resume += d;
        }
        self.shards[cube].device.reset_after_shutdown(resume);
        let replayed = self.shards[cube].host.reset_for_recovery(resume);
        // The outage is legal dead time, not a wedge: restart the
        // forward-progress clock at the resume instant.
        if let Some(wd) = &mut self.watchdog {
            wd.last_progress = resume;
        }
        self.now = self.now.max(at);
        self.recoveries.push(RecoveryRecord {
            cube,
            shutdown_at: at,
            surface_c,
            steps,
            resume_at: resume,
            replayed,
        });
    }

    /// The instant pump: at the earliest instant `t` any shard has work,
    /// pump every shard with work at `t` in cube order; repeat while
    /// `t <= end`, then flush every shard's samples due by `end`. The
    /// watchdog and the step profiler see every instant.
    fn step_instants_until(&mut self, end: Time) {
        let ChainSystem {
            topo,
            shards,
            inboxes,
            now,
            watchdog,
            profiler,
            ..
        } = self;
        // Each shard's next instant, `Time::MAX` when it has none (nothing
        // is ever scheduled that late). Pumping a shard changes only its
        // own state and the inboxes it sends into, so only those entries
        // need refreshing.
        let mut next: Vec<Time> = shards
            .iter()
            .zip(inboxes.iter())
            .map(|(sh, inbox)| sh.next_time(inbox).unwrap_or(Time::MAX))
            .collect();
        loop {
            // The earliest instant, and the first shard due then.
            let first = (1..next.len()).fold(0, |f, i| if next[i] < next[f] { i } else { f });
            let t = next[first];
            if t == Time::MAX || t > end {
                break;
            }
            for i in first..next.len() {
                if next[i] != t {
                    continue;
                }
                let sh = &mut shards[i];
                sh.pump_instant(t, inboxes);
                next[i] = sh.next_time(&inboxes[i]).unwrap_or(Time::MAX);
                // A message sent at `t` is due strictly after `t`, so it
                // can pull a neighbour's next instant earlier but never
                // to `t`: the shards pumped at `t` are exactly those that
                // had work at `t` before any of them ran.
                for p in &sh.ports {
                    if let Some(at) = inboxes[p.peer].peek_at() {
                        next[p.peer] = next[p.peer].min(at);
                    }
                }
            }
            if let Some(prof) = profiler {
                prof.record_step(t, shards.iter().map(CubeShard::profile_totals));
            }
            *now = (*now).max(t);
            watchdog_check(watchdog, shards, inboxes, topo, *now);
        }
        // Nothing changes between the last instant and `end`, so the
        // samples due by `end` read the state they are stamped with.
        for (sh, inbox) in shards.iter_mut().zip(inboxes.iter()) {
            sh.sample_due(end, inbox.len());
        }
        *now = (*now).max(end);
        // A wedged system can drain every queue while requests are still
        // outstanding (e.g. a link that never grants credit): the loop
        // above exits at once, so the watchdog must also see `end`.
        watchdog_check(watchdog, shards, inboxes, topo, *now);
    }

    /// Runs until no host has outstanding work or `max` simulated time
    /// elapses. Returns `true` if the chain went idle.
    pub fn run_until_idle(&mut self, max: TimeDelta) -> bool {
        let deadline = self.now + max;
        while self.now < deadline {
            if !self.is_busy() {
                return true;
            }
            let spike = self.thermal_spikes.first().map(|&(t, _, _)| t);
            let next = self
                .shards
                .iter()
                .zip(&self.inboxes)
                .filter_map(|(sh, inbox)| sh.next_time(inbox))
                .chain(spike)
                .min();
            let Some(next) = next else {
                return !self.is_busy();
            };
            if next > deadline {
                break;
            }
            self.step_until(next);
        }
        !self.is_busy()
    }

    /// Convenience: advance by a span.
    pub fn run_for(&mut self, span: TimeDelta) {
        let end = self.now + span;
        self.step_until(end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_types::RequestKind;

    #[test]
    fn topology_geometry() {
        let t = Topology::chain(4);
        assert_eq!(t.hops(0, 3), 3);
        assert_eq!(t.next_shard(1, 3), 2);
        assert_eq!(t.next_shard(2, 0), 1);
        assert_eq!(t.hop_between(1, 2), (1, true));
        assert_eq!(t.hop_between(2, 1), (1, false));
        assert_eq!(t.neighbors(0), vec![1]);
        assert_eq!(t.neighbors(2), vec![1, 3]);

        let s = Topology::star(4);
        assert_eq!(s.hops(1, 3), 2);
        assert_eq!(s.hops(0, 3), 1);
        assert_eq!(s.next_shard(1, 3), 0);
        assert_eq!(s.next_shard(0, 3), 3);
        assert_eq!(s.hop_between(0, 3), (2, true));
        assert_eq!(s.hop_between(3, 0), (2, false));
        assert_eq!(s.neighbors(0), vec![1, 2, 3]);
        assert_eq!(s.neighbors(2), vec![0]);
        assert!(format!("{s}").contains("star"));
    }

    #[test]
    #[should_panic(expected = "cubes")]
    fn topology_rejects_too_many_cubes() {
        let _ = Topology::chain(9);
    }

    #[test]
    fn two_cube_stream_round_trips_remote() {
        // A read stream on sharded hosts: cube-first interleave sends
        // every other block remote, and everything still drains.
        let mut sys = ChainSystem::new(SystemConfig::default(), Topology::chain(2));
        sys.apply_workload(&Workload::read_stream(
            8,
            RequestSize::new(128).expect("valid size"),
        ));
        sys.start(Time::ZERO);
        assert!(sys.run_until_idle(TimeDelta::from_ms(1)), "chain wedged");
        let s = sys.host_stats();
        assert_eq!(s.reads_completed, 2 * 8);
        assert_eq!(s.integrity_failures, 0);
        // Both devices served traffic (the stream is split by the shard).
        assert!(sys.device(0).stats().reads_completed > 0);
        assert!(sys.device(1).stats().reads_completed > 0);
    }

    #[test]
    fn remote_reads_pay_the_modeled_hop_adder() {
        // One pinned pointer-chase per target cube, refresh disabled so
        // nothing perturbs the unloaded round trip: the far mean latency
        // must exceed the near one by exactly hops x modeled adder.
        let size = RequestSize::new(128).expect("valid size");
        let mut lat = Vec::new();
        for target in 0..2u8 {
            let mut cfg = SystemConfig::default();
            cfg.mem.refresh.enabled = false;
            let mut sys = ChainSystem::new(cfg, Topology::chain(2));
            let addrs: Vec<hmc_types::Address> = (0..64u64)
                .map(|i| hmc_types::Address::new(i * 4096))
                .collect();
            sys.host_mut(0)
                .apply_workload(&Workload::DependentChain { addrs, size });
            sys.host_mut(0)
                .set_cube_pin(Some(hmc_types::CubeId::new(target)));
            sys.start(Time::ZERO);
            assert!(sys.run_until_idle(TimeDelta::from_ms(10)));
            lat.push(sys.host(0).stats().read_latency.mean());
        }
        let adder = sys_adder(size);
        assert_eq!(
            lat[1].as_ps(),
            lat[0].as_ps() + adder.as_ps(),
            "remote latency must be near latency plus the modeled hop cost"
        );
    }

    fn sys_adder(size: RequestSize) -> TimeDelta {
        ChainSystem::new(SystemConfig::default(), Topology::chain(2)).modeled_hop_adder(size)
    }

    #[test]
    fn star_spoke_to_spoke_crosses_hub() {
        let mut sys = ChainSystem::new(SystemConfig::default(), Topology::star(3));
        // Pin host 1's traffic to cube 2: two hops via the hub.
        let size = RequestSize::new(64).expect("valid size");
        sys.host_mut(1)
            .apply_workload(&Workload::read_stream(4, size));
        sys.host_mut(1)
            .set_cube_pin(Some(hmc_types::CubeId::new(2)));
        sys.start(Time::ZERO);
        assert!(sys.run_until_idle(TimeDelta::from_ms(1)), "star wedged");
        assert_eq!(sys.host(1).stats().reads_completed, 4);
        assert_eq!(sys.device(2).stats().reads_completed, 4);
        assert_eq!(
            sys.device(0).stats().reads_completed,
            0,
            "hub only forwards"
        );
    }

    #[test]
    fn chain_sanitizer_stays_clean_under_load() {
        let mut sys = ChainSystem::new(SystemConfig::default(), Topology::chain(2));
        sys.enable_sanitizer();
        sys.apply_workload(&Workload::full_scale(
            RequestKind::ReadOnly,
            RequestSize::MAX,
        ));
        sys.start(Time::ZERO);
        sys.run_for(TimeDelta::from_us(50));
        sys.stop_generation();
        assert!(sys.run_until_idle(TimeDelta::from_ms(10)), "drain stalled");
        sys.sanitize_check_drained();
        let report = sys.sanitizer_report();
        assert!(report.is_clean(), "{}", report.to_json());
    }

    #[test]
    fn lookahead_is_the_single_flit_floor() {
        // The hop floor is the chain's lookahead: the least delay any
        // cross-shard message carries, and the delay of every credit.
        let sys = ChainSystem::new(SystemConfig::default(), Topology::chain(3));
        let probe = DeviceLink::new(sys.cfg.mem.links, sys.cfg.mem.link_layer);
        let flit = probe.transfer_time(FLIT_BYTES);
        assert!(flit > TimeDelta::ZERO);
        // Two edges, one port at each end of each.
        let floors: Vec<TimeDelta> = sys
            .shards
            .iter()
            .flat_map(|sh| sh.ports.iter().map(|p| p.floor))
            .collect();
        assert_eq!(floors, vec![flit; 4]);
        // Single cube: no edges, no ports.
        let solo = ChainSystem::new(SystemConfig::default(), Topology::single());
        assert!(solo.shards[0].ports.is_empty());
    }
}
