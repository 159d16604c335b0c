//! The assembled host: GUPS ports, transmit nodes, the RX pipeline, and
//! the event loop driving requests into a [`LinkSink`].
//!
//! With [`RobustnessConfig::enabled`](crate::config::RobustnessConfig) the
//! host additionally runs the fault-robustness layer: every in-flight
//! request carries a deadline, expired requests are retransmitted with
//! exponential backoff, late duplicate responses are dropped as poisoned,
//! a link accumulating consecutive timeouts is declared dead (its traffic
//! reroutes onto the survivors), and after a device thermal shutdown the
//! whole in-flight window can be replayed. Disabled, none of that
//! bookkeeping exists and the host is bit-identical to earlier revisions.

use std::collections::{BTreeMap, VecDeque};

use hmc_types::packet::{FlitCount, OpKind};
use hmc_types::trace::Stage;
use hmc_types::{
    MemoryRequest, MemoryResponse, PortId, RequestId, TenantId, TenantTag, Time, TimeDelta,
};
use sim_engine::{
    ArrivalStream, EventQueue, Histogram, IdTable, MetricsSampler, Sanitizer, SplitMix64,
    TokenBucket, Tracer, ViolationClass, ZipfSampler,
};

use crate::admission::{OpenLoopConfig, ShedPolicy, TenantOpenStats};
use crate::config::HostConfig;
use crate::controller::TxStages;
use crate::node::{TxNode, TxStart};
use crate::port::{GupsPort, IssueBlock};
use crate::workload::Workload;

/// Where the host's transmitted requests go — implemented by the memory
/// device model (and by test stubs).
pub trait LinkSink {
    /// Free ingress credits on `link` right now.
    fn free_slots(&self, link: usize) -> usize;

    /// Delivers a request whose last flit crossed the wire at `now`.
    ///
    /// # Errors
    ///
    /// Hands the request back if the link cannot take it; the host
    /// reserves credits ahead of transmission, so an error indicates a
    /// credit-accounting bug.
    fn submit(&mut self, link: usize, req: MemoryRequest, now: Time) -> Result<(), MemoryRequest>;
}

/// Aggregated measurements across all ports for one window.
#[derive(Debug, Clone, Default)]
pub struct HostStats {
    /// Read requests issued.
    pub reads_issued: u64,
    /// Write requests issued.
    pub writes_issued: u64,
    /// Read responses delivered.
    pub reads_completed: u64,
    /// Write responses delivered.
    pub writes_completed: u64,
    /// Paper-accounting wire bytes of completed transactions.
    pub counted_bytes: u64,
    /// Merged read-latency histogram.
    pub read_latency: Histogram,
    /// Stream data-integrity mismatches.
    pub integrity_failures: u64,
}

impl HostStats {
    /// Counted bandwidth in GB/s over a window.
    pub fn bandwidth_gbs(&self, window: TimeDelta) -> f64 {
        if window.is_zero() {
            0.0
        } else {
            self.counted_bytes as f64 / window.as_secs_f64() / 1e9
        }
    }

    /// Completed requests (all kinds) in millions per second — the MRPS
    /// lines of Figure 8.
    pub fn mrps(&self, window: TimeDelta) -> f64 {
        if window.is_zero() {
            0.0
        } else {
            (self.reads_completed + self.writes_completed) as f64 / window.as_secs_f64() / 1e6
        }
    }
}

/// Robustness-layer counters, cumulative since construction. Snapshot and
/// subtract ([`std::ops::Sub`]) to measure one window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RobustStats {
    /// Deadline expirations observed (one per attempt that timed out).
    pub timeouts: u64,
    /// Retransmissions actually issued.
    pub retries: u64,
    /// Responses dropped because their request was no longer outstanding
    /// (late duplicates, or responses to abandoned requests).
    pub poisoned_responses: u64,
    /// Requests force-completed after exhausting every retry.
    pub abandoned: u64,
    /// Links declared dead and drained onto the survivors.
    pub links_degraded: u64,
    /// Requests re-enqueued by a post-shutdown replay.
    pub replayed: u64,
}

impl std::ops::Sub for RobustStats {
    type Output = RobustStats;
    fn sub(self, rhs: RobustStats) -> RobustStats {
        RobustStats {
            timeouts: self.timeouts - rhs.timeouts,
            retries: self.retries - rhs.retries,
            poisoned_responses: self.poisoned_responses - rhs.poisoned_responses,
            abandoned: self.abandoned - rhs.abandoned,
            links_degraded: self.links_degraded - rhs.links_degraded,
            replayed: self.replayed - rhs.replayed,
        }
    }
}

/// Deadline-tracking record for one in-flight request (robustness layer).
#[derive(Debug, Clone, Copy)]
struct InFlight {
    req: MemoryRequest,
    /// Transmit node the live attempt went through.
    node: usize,
    /// Transmission attempt count (1 = original).
    attempt: u32,
    /// When the live attempt expires (`None` while a backoff is pending
    /// — the entry has no armed deadline until the retransmission).
    deadline: Option<Time>,
}

#[derive(Debug, Clone)]
enum HostEvent {
    PortIssue {
        port: usize,
    },
    NodeKick {
        node: usize,
        seq: u64,
    },
    NodeTxDone {
        node: usize,
        req: MemoryRequest,
    },
    RxDeliver {
        resp: MemoryResponse,
    },
    /// The single live deadline check: fires at the minimum in-flight
    /// deadline and processes every entry that expired by then. Fresh
    /// issues only push deadlines later, but a retransmission's deadline
    /// (`now + request_timeout`, without the TX flit delay fresh issues
    /// carry) can undercut an already-armed sweep — so an earlier arm
    /// supersedes the pending sweep via `seq`, exactly like node kicks.
    /// The superseded event stays queued but is dropped on fire; at most
    /// one stale sweep exists per supersession, keeping the event queue
    /// structurally bounded where a timeout event per request would pile
    /// up stale entries.
    DeadlineSweep {
        seq: u64,
    },
    /// Backoff expired: retransmit `id` now.
    RetryIssue {
        id: u64,
    },
    /// The open-loop frontend generates tenant `tenant`'s next arrival.
    /// One live event per tenant; the handler schedules the successor
    /// before any admission decision (open loop: arrivals never block).
    Arrival {
        tenant: u16,
    },
}

/// One admitted entry waiting in the bounded admission queue.
#[derive(Debug, Clone, Copy)]
struct Admitted {
    /// Tenant index into [`OpenLoopConfig::tenants`].
    tenant: u16,
    op: OpKind,
    size: hmc_types::RequestSize,
    /// Global byte address (sharded onto a cube at issue).
    global: u64,
    arrived: Time,
    /// Instant after which [`ShedPolicy::DeadlineDrop`] may expire the
    /// entry (arrival + queue deadline).
    expires: Time,
}

/// Cumulative open-loop conservation counters, never reset by stats
/// windows. The drain-time invariant the sanitizer asserts:
/// `offered = shed + issued + queued` and `issued = completed + in-flight`.
#[derive(Debug, Clone, Copy, Default)]
struct OpenLedger {
    offered: u64,
    shed: u64,
    issued: u64,
    completed: u64,
}

/// Runtime state of the open-loop multi-tenant frontend, the
/// [`Source::Admission`] of a host whose [`HostConfig::openloop`] is set.
#[derive(Debug)]
struct OpenLoopState {
    cfg: OpenLoopConfig,
    /// Per-tenant interarrival processes.
    streams: Vec<ArrivalStream>,
    /// Per-tenant popularity samplers over the tenant's hot set.
    zipf: Vec<ZipfSampler>,
    /// Per-tenant op-mix / address-scatter RNG (separate from the arrival
    /// stream's so rate and content draws never interleave).
    rng: Vec<SplitMix64>,
    /// Per-tenant token buckets (`None` = uncontracted, no rate shed).
    buckets: Vec<Option<TokenBucket>>,
    /// The bounded admission queue, arrival order.
    queue: VecDeque<Admitted>,
    /// Per-tenant window stats (cleared by [`Host::reset_stats`]).
    stats: Vec<TenantOpenStats>,
    /// Per-tenant gauge names: offered, shed and completed.
    series: Vec<[String; 3]>,
    /// Arrival instant per issued-but-uncompleted request id, for
    /// arrival-to-completion latency at delivery.
    issued: IdTable<(u16, Time)>,
    ledger: OpenLedger,
    /// Generators run between [`Host::start`] and
    /// [`Host::stop_generation`]; stale [`HostEvent::Arrival`] events
    /// fired after stop are dropped.
    arrivals_on: bool,
    /// The watermark-hysteresis backpressure signal.
    backpressured: bool,
    /// Signal assertions since construction (observability).
    bp_assertions: u64,
    /// Round-robin cursor over ports for queue-drain issue attempts.
    next_port: usize,
}

impl OpenLoopState {
    fn new(o: &OpenLoopConfig, host: &HostConfig, zipf: Vec<ZipfSampler>) -> Self {
        const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;
        assert!(!o.tenants.is_empty(), "open loop needs at least one tenant");
        assert!(
            zipf.len() == o.tenants.len()
                && zipf.iter().zip(&o.tenants).all(|(z, spec)| {
                    z.items() == spec.hot_items.max(1) && z.theta() == spec.zipf_theta
                }),
            "tenant samplers must match the tenant specs"
        );
        assert!(o.queue_capacity > 0, "admission queue capacity must be > 0");
        assert!(
            o.bp_low <= o.bp_high && o.bp_high <= o.queue_capacity,
            "backpressure watermarks must satisfy low <= high <= capacity"
        );
        let base = o.seed ^ host.rng_salt;
        let n = o.tenants.len();
        let mut streams = Vec::with_capacity(n);
        let mut rng = Vec::with_capacity(n);
        let mut buckets = Vec::with_capacity(n);
        for (t, spec) in o.tenants.iter().enumerate() {
            let salt = (t as u64 + 1).wrapping_mul(GOLDEN);
            streams.push(ArrivalStream::new(
                o.offered_rps * spec.share,
                o.kind,
                SplitMix64::new(base ^ salt ^ 0xA1),
            ));
            rng.push(SplitMix64::new(base ^ salt ^ 0xB2));
            buckets.push(spec.rate_limit_rps.map(|limit| {
                // Burst capacity ~1 ms of contracted rate, at least 8.
                let cap = if limit >= 8e3 {
                    (limit / 1e3) as u64
                } else {
                    8
                };
                TokenBucket::new(limit, cap)
            }));
        }
        OpenLoopState {
            cfg: o.clone(),
            streams,
            zipf,
            rng,
            buckets,
            queue: VecDeque::with_capacity(o.queue_capacity),
            stats: vec![TenantOpenStats::default(); n],
            series: o
                .tenants
                .iter()
                .map(|t| ["offered", "shed", "completed"].map(|g| format!("tenant.{}.{g}", t.name)))
                .collect(),
            issued: IdTable::new(),
            ledger: OpenLedger::default(),
            arrivals_on: false,
            backpressured: false,
            bp_assertions: 0,
            next_port: 0,
        }
    }

    /// Updates the watermark-hysteresis backpressure signal after any
    /// queue mutation.
    fn update_backpressure(&mut self) {
        let len = self.queue.len();
        if self.backpressured {
            if len <= self.cfg.bp_low {
                self.backpressured = false;
            }
        } else if len >= self.cfg.bp_high {
            self.backpressured = true;
            self.bp_assertions += 1;
        }
    }

    /// Issues the admission queue's head through `port`, after lazily
    /// expiring overstays under [`ShedPolicy::DeadlineDrop`]. The entry
    /// stays queued if the port has no tag for it.
    ///
    /// # Errors
    ///
    /// [`IssueBlock::Done`] when nothing is queued, and
    /// [`IssueBlock::NoTags`] when a read finds the port's pool empty.
    fn issue(
        &mut self,
        port: &mut GupsPort,
        id: RequestId,
        now: Time,
    ) -> Result<MemoryRequest, IssueBlock> {
        if self.cfg.policy == ShedPolicy::DeadlineDrop {
            self.expire_overstays(now);
            self.update_backpressure();
        }
        let entry = *self.queue.front().ok_or(IssueBlock::Done)?;
        let t = entry.tenant as usize;
        let prio = self.cfg.tenants[t].priority;
        // Tenant 0 of the tag space is reserved for closed-loop traffic;
        // open-loop tenants are offset by one.
        let tag = TenantTag::new(TenantId::new(entry.tenant + 1), prio);
        let req = port.try_issue_open(id, now, entry.op, entry.size, entry.global, tag)?;
        self.queue.pop_front();
        self.update_backpressure();
        self.stats[t].issued += 1;
        self.stats[t].queue_wait.record(now.since(entry.arrived));
        self.ledger.issued += 1;
        self.issued
            .insert(req.id.value(), (entry.tenant, entry.arrived));
        Ok(req)
    }

    /// Drops queue entries that overstayed the queue deadline (the
    /// [`ShedPolicy::DeadlineDrop`] expiry scan), accounting each shed.
    fn expire_overstays(&mut self, now: Time) {
        while let Some(front) = self.queue.front() {
            // Entries are queued in arrival order, so expiries are too.
            if front.expires > now {
                break;
            }
            let e = self.queue.pop_front().expect("front checked above");
            self.stats[e.tenant as usize].shed_deadline += 1;
            self.ledger.shed += 1;
        }
    }
}

/// Where the ports' requests come from. Either way each request leaves
/// through [`Host::port_issue`] and enters the TX pipeline through
/// [`Host::inject`].
#[derive(Debug)]
enum Source {
    /// Closed loop: each port's own GUPS generator draws its requests.
    Gups,
    /// Open loop: the ports drain the multi-tenant admission queue.
    Admission(Box<OpenLoopState>),
}

impl Source {
    fn open(&self) -> Option<&OpenLoopState> {
        match self {
            Source::Gups => None,
            Source::Admission(open) => Some(open),
        }
    }

    fn open_mut(&mut self) -> Option<&mut OpenLoopState> {
        match self {
            Source::Gups => None,
            Source::Admission(open) => Some(open),
        }
    }
}

/// The FPGA-side model: nine GUPS ports feeding two transmit nodes, with
/// the RX pipeline returning responses to the ports' monitoring units.
#[derive(Debug)]
pub struct Host {
    cfg: HostConfig,
    ports: Vec<GupsPort>,
    nodes: Vec<TxNode>,
    /// Bit `n` is set while node `n` waits for device credit (mirrors
    /// [`TxNode::waiting_credit`]).
    stalled_nodes: u64,
    /// Per port: parked on an empty tag pool until a response frees a tag.
    parked_no_tags: Vec<bool>,
    /// Per port: parked on its node's stop signal until the node drains.
    parked_node_full: Vec<bool>,
    /// Per port: a [`HostEvent::PortIssue`] is queued.
    issue_pending: Vec<bool>,
    /// Time of the single live kick per node (None = no live kick).
    node_kick_at: Vec<Option<Time>>,
    /// Sequence number of the live kick; stale events are dropped.
    node_kick_seq: Vec<u64>,
    events: EventQueue<HostEvent>,
    /// Structural bound on pending events (with slack) the sanitizer's
    /// queue check uses.
    event_bound: usize,
    next_id: RequestId,
    now: Time,
    total_issued: u64,
    total_completed: u64,
    /// Robustness layer: deadline record per in-flight request id. Empty
    /// (and never touched) when the layer is disabled.
    in_flight: BTreeMap<u64, InFlight>,
    /// Consecutive timeouts per link since its last successful response.
    consecutive_timeouts: Vec<u32>,
    /// Links declared dead by the degradation policy (permanent for the
    /// run).
    link_dead: Vec<bool>,
    /// Instant of the pending [`HostEvent::DeadlineSweep`], if armed.
    sweep_at: Option<Time>,
    /// Sequence number of the live sweep; events carrying an older seq
    /// were superseded by an earlier re-arm and are dropped.
    sweep_seq: u64,
    /// The ports' request source; closed-loop GUPS (the default)
    /// allocates no open-loop state.
    source: Source,
    robust_stats: RobustStats,
    tracer: Tracer,
    sanitizer: Sanitizer,
}

impl Host {
    /// Builds an idle host.
    pub fn new(cfg: HostConfig) -> Self {
        let zipf = cfg.tenant_samplers();
        Host::with_tenant_samplers(cfg, zipf)
    }

    /// Builds an idle host around prebuilt open-loop tenant samplers, as
    /// [`HostConfig::tenant_samplers`] makes them. Hosts built from the
    /// same tenant mix can share one build's samplers by cloning them.
    ///
    /// # Panics
    ///
    /// Panics if `zipf` does not match the tenants' hot sets and skews.
    pub fn with_tenant_samplers(cfg: HostConfig, zipf: Vec<ZipfSampler>) -> Self {
        let ports = (0..cfg.num_ports)
            .map(|p| {
                let mut port = GupsPort::new(
                    PortId::new(u8::try_from(p).expect("port index fits u8")),
                    cfg.tag_pool_depth,
                    cfg.memory_capacity,
                    0xC0FFEE ^ p as u64 ^ cfg.rng_salt,
                );
                port.set_shard(cfg.shard);
                port
            })
            .collect();
        let nodes: Vec<TxNode> = (0..cfg.links.num_links() as usize)
            .map(|l| TxNode::new(l, cfg.node_queue_depth))
            .collect();
        assert!(nodes.len() <= 64, "every node fits the stalled-node mask");
        // Every in-flight request and queued node packet owns at most one
        // pending event, so this bound avoids warm-up reallocations. The
        // robustness layer adds at most one backoff event per in-flight
        // request plus the single armed deadline sweep.
        let robust_slack = if cfg.robust.enabled {
            2 * cfg.num_ports * cfg.tag_pool_depth
        } else {
            0
        };
        // Open loop adds one live arrival event per tenant (plus stale
        // ones draining after a stop).
        let open_slack = cfg.openloop.as_ref().map_or(0, |o| 2 * o.tenants.len() + 8);
        let event_capacity = cfg.num_ports * cfg.tag_pool_depth
            + cfg.links.num_links() as usize * cfg.node_queue_depth
            + robust_slack
            + open_slack
            + 64;
        assert!(
            cfg.openloop.is_some() || zipf.is_empty(),
            "tenant samplers need an open-loop frontend"
        );
        let source = match &cfg.openloop {
            Some(o) => Source::Admission(Box::new(OpenLoopState::new(o, &cfg, zipf))),
            None => Source::Gups,
        };
        Host {
            ports,
            nodes,
            stalled_nodes: 0,
            parked_no_tags: vec![false; cfg.num_ports],
            parked_node_full: vec![false; cfg.num_ports],
            issue_pending: vec![false; cfg.num_ports],
            node_kick_at: vec![None; cfg.links.num_links() as usize],
            node_kick_seq: vec![0; cfg.links.num_links() as usize],
            events: EventQueue::with_capacity(event_capacity),
            // Plus per-port issue attempts and per-node kicks beyond the
            // ownership accounting above.
            event_bound: event_capacity + 2 * cfg.num_ports + 64,
            next_id: RequestId::new(cfg.request_id_base),
            now: Time::ZERO,
            total_issued: 0,
            total_completed: 0,
            in_flight: BTreeMap::new(),
            consecutive_timeouts: vec![0; cfg.links.num_links() as usize],
            link_dead: vec![false; cfg.links.num_links() as usize],
            sweep_at: None,
            sweep_seq: 0,
            source,
            robust_stats: RobustStats::default(),
            tracer: Tracer::new(&Stage::NAMES),
            sanitizer: Sanitizer::new(),
            cfg,
        }
    }

    /// The host configuration.
    pub fn config(&self) -> &HostConfig {
        &self.cfg
    }

    /// Installs a workload on the ports (continuous on the first N ports,
    /// or a stream on port 0).
    pub fn apply_workload(&mut self, w: &Workload) {
        match w {
            Workload::Continuous { port, active_ports } => {
                for (i, p) in self.ports.iter_mut().enumerate() {
                    if i < *active_ports {
                        p.set_continuous(*port);
                    } else {
                        p.set_idle();
                    }
                }
            }
            Workload::Stream(ops) => {
                self.ports[0].set_stream(ops.clone());
                for p in self.ports.iter_mut().skip(1) {
                    p.set_idle();
                }
            }
            Workload::DependentChain { addrs, size } => {
                self.ports[0].set_chain(addrs.clone(), *size);
                for p in self.ports.iter_mut().skip(1) {
                    p.set_idle();
                }
            }
        }
    }

    /// Pins (or unpins) every port's generated addresses to one cube —
    /// the near/far chain experiments steer traffic with this.
    pub fn set_cube_pin(&mut self, pin: Option<hmc_types::CubeId>) {
        for p in &mut self.ports {
            p.set_cube_pin(pin);
        }
    }

    /// Schedules the first issue opportunity of every active port,
    /// staggered within one cycle so ports do not move in lockstep.
    pub fn start(&mut self, now: Time) {
        self.now = self.now.max(now);
        let stagger = self.cfg.cycle() / self.cfg.num_ports as u64;
        for p in 0..self.ports.len() {
            if self.ports[p].is_active() {
                self.schedule_issue(p, now + stagger * p as u64);
            }
        }
        self.start_arrivals(now);
    }

    /// Turns the open-loop frontend on (if configured) and schedules each
    /// tenant's first arrival.
    fn start_arrivals(&mut self, now: Time) {
        let Some(open) = self.source.open_mut() else {
            return;
        };
        if open.arrivals_on {
            return;
        }
        open.arrivals_on = true;
        for (t, stream) in open.streams.iter_mut().enumerate() {
            let tenant = u16::try_from(t).expect("tenant index fits in u16");
            self.events
                .push(stream.next_arrival(now), HostEvent::Arrival { tenant });
        }
    }

    /// Stops all generators (outstanding responses still drain; the
    /// admission queue keeps draining into the ports too).
    pub fn stop_generation(&mut self) {
        for p in &mut self.ports {
            p.set_idle();
        }
        if let Some(open) = self.source.open_mut() {
            open.arrivals_on = false;
        }
    }

    /// Earliest pending host event.
    #[inline]
    pub fn next_time(&self) -> Option<Time> {
        self.events.peek_time()
    }

    /// The host's local clock.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Pending internal events (diagnostics).
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    /// Processes every host event at or before `until`, transmitting into
    /// `sink`.
    pub fn advance<S: LinkSink>(&mut self, until: Time, sink: &mut S) {
        self.sanitizer
            .check_queue_bound("host events", self.events.len(), self.event_bound, until);
        while let Some((t, ev)) = self.events.pop_before(until) {
            self.sanitizer.check_event_time(t);
            self.now = self.now.max(t);
            self.handle(ev, t, sink);
        }
        self.now = self.now.max(until);
    }

    /// [`advance`](Host::advance) at the simulation loop's next-event
    /// instant: `t` must be the exact next-event time, so every pending
    /// event at or before `t` sits at exactly `t`. It runs the same
    /// [`EventQueue::pop_before`] loop, which also drains the events the
    /// handlers schedule at `t` itself, after every earlier-pushed one.
    pub fn advance_instant<S: LinkSink>(&mut self, t: Time, sink: &mut S) {
        debug_assert!(
            self.next_time().is_none_or(|next| next >= t),
            "advance_instant needs the exact next-event time"
        );
        self.advance(t, sink);
    }

    /// Total host events processed since construction.
    pub fn events_processed(&self) -> u64 {
        self.events.total_popped()
    }

    /// Accepts a response that left the device at `at`; it reaches its
    /// port after the RX pipeline.
    pub fn receive_response(&mut self, resp: MemoryResponse, at: Time) {
        let flits = FlitCount::new(resp.size.payload_flits().count() + 1);
        let deliver = at + self.cfg.rx.latency(flits, self.cfg.frequency);
        // The device's tracer accounted for everything since LinkTx; take
        // the trace back for the RX pipeline.
        self.tracer.rebase(resp.trace_id(), at);
        self.events.push(deliver, HostEvent::RxDeliver { resp });
    }

    /// The device reports `free_slots` ingress credits on `link`:
    /// un-stall that node if a transmission could actually start (credits
    /// must exceed the node's own in-flight packets, or the node would
    /// immediately re-stall and the caller would spin).
    pub fn notify_credit(&mut self, link: usize, free_slots: usize, now: Time) {
        if self.nodes[link].waiting_credit() && free_slots > self.nodes[link].in_flight() {
            self.nodes[link].grant_credit();
            self.stalled_nodes &= !(1 << link);
            self.kick_node(link, now.max(self.now));
        }
    }

    /// True if any node is stalled waiting for device credit.
    pub fn any_node_stalled(&self) -> bool {
        self.stalled_nodes != 0
    }

    /// Requests issued and not yet delivered back.
    pub fn outstanding(&self) -> u64 {
        self.total_issued - self.total_completed
    }

    /// Requests issued since construction (not reset by
    /// [`reset_stats`](Host::reset_stats)).
    pub fn total_issued(&self) -> u64 {
        self.total_issued
    }

    /// True while any port can still generate, any response is pending,
    /// or the open-loop frontend still generates or holds queued work.
    pub fn is_busy(&self) -> bool {
        self.outstanding() > 0
            || self.ports.iter().any(|p| p.is_active())
            || self
                .source
                .open()
                .is_some_and(|o| o.arrivals_on || !o.queue.is_empty())
    }

    /// Aggregated window measurements across all ports.
    pub fn stats(&self) -> HostStats {
        let mut s = HostStats::default();
        for p in &self.ports {
            let m = p.monitor();
            s.reads_issued += m.reads_issued;
            s.writes_issued += m.writes_issued;
            s.reads_completed += m.reads_completed;
            s.writes_completed += m.writes_completed;
            s.counted_bytes += m.counted_bytes;
            s.integrity_failures += m.integrity_failures;
            s.read_latency.merge(&m.read_latency);
        }
        s
    }

    /// Clears all port monitors and open-loop window stats (start of a
    /// measurement window). The open-loop conservation ledger is
    /// cumulative and deliberately not cleared.
    pub fn reset_stats(&mut self) {
        for p in &mut self.ports {
            p.reset_monitor();
        }
        if let Some(open) = self.source.open_mut() {
            for s in &mut open.stats {
                *s = TenantOpenStats::default();
            }
        }
    }

    /// True when the open-loop multi-tenant frontend is configured.
    pub fn open_enabled(&self) -> bool {
        self.source.open().is_some()
    }

    /// Per-tenant open-loop window stats, index-aligned with
    /// [`OpenLoopConfig::tenants`] (empty without the frontend).
    pub fn open_stats(&self) -> &[TenantOpenStats] {
        self.source.open().map_or(&[], |o| &o.stats)
    }

    /// Current admission-queue occupancy (0 without the frontend).
    pub fn admission_queue_len(&self) -> usize {
        self.source.open().map_or(0, |o| o.queue.len())
    }

    /// True while the backpressure signal from host occupancy back to
    /// the arrival frontend is asserted.
    pub fn backpressure_asserted(&self) -> bool {
        self.source.open().is_some_and(|o| o.backpressured)
    }

    /// Times the backpressure signal has asserted since construction.
    pub fn backpressure_assertions(&self) -> u64 {
        self.source.open().map_or(0, |o| o.bp_assertions)
    }

    /// Asserts the open-loop conservation invariant on the cumulative
    /// ledger — every offered arrival is shed, queued, in flight, or
    /// completed; nothing lost, nothing double-counted. A break is
    /// recorded as a [`ViolationClass::Conservation`] violation. Call at
    /// drain points; no-op without the frontend.
    pub fn check_open_conservation(&mut self, now: Time) {
        let Some(open) = self.source.open() else {
            return;
        };
        let l = open.ledger;
        let queued = open.queue.len() as u64;
        let in_flight = open.issued.len() as u64;
        if l.offered != l.shed + l.issued + queued || l.issued != l.completed + in_flight {
            let detail = format!(
                "open-loop ledger broken: offered={} shed={} issued={} completed={} \
                 queued={queued} in_flight={in_flight}",
                l.offered, l.shed, l.issued, l.completed
            );
            self.sanitizer
                .note_violation(ViolationClass::Conservation, now, detail);
        }
    }

    /// Cumulative robustness-layer counters (all zero when the layer is
    /// disabled). Subtract snapshots to measure a window — the counters
    /// are not cleared by [`reset_stats`](Host::reset_stats).
    pub fn robust_stats(&self) -> RobustStats {
        self.robust_stats
    }

    /// True if the degradation policy declared `link` dead.
    pub fn link_is_dead(&self, link: usize) -> bool {
        self.link_dead[link]
    }

    /// Links still alive.
    pub fn live_links(&self) -> usize {
        self.link_dead.iter().filter(|d| !**d).count()
    }

    /// In-flight requests currently tracked by the robustness layer.
    pub fn tracked_in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Rebuilds the host's transport state after a device thermal
    /// shutdown and replays the entire in-flight window from `resume`:
    /// pending events are dropped, node queues and credit accounting are
    /// reset, and every tracked request is re-enqueued (staggered one
    /// cycle apart) with a fresh deadline and attempt count. Returns the
    /// number of requests replayed.
    ///
    /// # Panics
    ///
    /// Panics when the robustness layer is disabled — without deadline
    /// tracking the in-flight window is unknown and a shutdown would
    /// silently lose requests.
    pub fn reset_for_recovery(&mut self, resume: Time) -> usize {
        assert!(
            self.cfg.robust.enabled,
            "thermal-shutdown replay requires HostConfig::robust.enabled"
        );
        self.events.clear();
        for n in &mut self.nodes {
            n.reset_transport();
        }
        self.stalled_nodes = 0;
        self.parked_no_tags.fill(false);
        self.parked_node_full.fill(false);
        self.issue_pending.fill(false);
        self.node_kick_at.fill(None);
        self.consecutive_timeouts.fill(0);
        self.now = self.now.max(resume);
        self.sweep_at = None;
        let ids: Vec<u64> = self.in_flight.keys().copied().collect();
        for (i, &id) in ids.iter().enumerate() {
            let (_, deadline) = self.resend(id, resume + self.cfg.cycle() * i as u64, 1);
            // The first replayed request carries the minimum deadline.
            self.arm_sweep(deadline);
        }
        self.robust_stats.replayed += ids.len() as u64;
        for n in 0..self.nodes.len() {
            if !self.link_dead[n] {
                self.kick_node(n, resume);
            }
        }
        for p in 0..self.ports.len() {
            if self.ports[p].is_active() {
                self.schedule_issue(p, resume);
            }
        }
        // Pending open-loop arrival events were dropped with the cleared
        // queue; re-seed them (and restart the admission-queue drain) so
        // the frontend survives a recovery.
        if let Some(open) = self.source.open_mut() {
            if open.arrivals_on {
                open.arrivals_on = false;
                self.start_arrivals(resume);
            }
        }
        if self.source.open().is_some_and(|o| !o.queue.is_empty()) {
            self.open_schedule_issue(resume);
        }
        ids.len()
    }

    /// Per-port read-latency histograms (the per-port monitoring units).
    pub fn port_latencies(&self) -> Vec<&Histogram> {
        self.ports
            .iter()
            .map(|p| &p.monitor().read_latency)
            .collect()
    }

    /// The host-side lifecycle tracer (disabled unless
    /// [`tracer_mut`](Host::tracer_mut) enabled it).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable tracer access (enable tracing before starting a run).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Arms the host-side protocol sanitizer: the request conservation
    /// ledger (every issued request retired exactly once) and the
    /// event-order/queue-bound checks. Enable before starting a run.
    pub fn enable_sanitizer(&mut self) {
        // The host schedules no bank accesses, so no timing floor here.
        self.sanitizer.enable(None);
    }

    /// The host-side sanitizer (disabled unless
    /// [`enable_sanitizer`](Host::enable_sanitizer) armed it).
    pub fn sanitizer(&self) -> &Sanitizer {
        &self.sanitizer
    }

    /// Mutable sanitizer access (drain checks, watchdog reporting).
    pub fn sanitizer_mut(&mut self) -> &mut Sanitizer {
        &mut self.sanitizer
    }

    /// Deterministic snapshot of the host's internal occupancies — the
    /// body of the watchdog's diagnostic dump.
    pub fn diagnostic_dump(&self, at: Time) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        writeln!(
            s,
            "host @ {at}: {} pending events, {} outstanding ({} issued, {} completed)",
            self.events.len(),
            self.outstanding(),
            self.total_issued,
            self.total_completed,
        )
        .expect("writing to a String cannot fail");
        for (n, node) in self.nodes.iter().enumerate() {
            writeln!(
                s,
                "  node {n}: queue={} in_flight={} waiting_credit={} stop={} dead={}",
                node.queue_len(),
                node.in_flight(),
                node.waiting_credit(),
                node.stop_asserted(),
                self.link_dead[n],
            )
            .expect("writing to a String cannot fail");
        }
        if self.cfg.robust.enabled {
            let r = self.robust_stats;
            writeln!(
                s,
                "  robust: tracked={} timeouts={} retries={} poisoned={} abandoned={} \
                 degraded={} replayed={}",
                self.in_flight.len(),
                r.timeouts,
                r.retries,
                r.poisoned_responses,
                r.abandoned,
                r.links_degraded,
                r.replayed,
            )
            .expect("writing to a String cannot fail");
        }
        if let Some(open) = self.source.open() {
            let l = open.ledger;
            writeln!(
                s,
                "  open: queue={} backpressured={} arrivals_on={} offered={} shed={} \
                 issued={} completed={}",
                open.queue.len(),
                open.backpressured,
                open.arrivals_on,
                l.offered,
                l.shed,
                l.issued,
                l.completed,
            )
            .expect("writing to a String cannot fail");
        }
        for (p, port) in self.ports.iter().enumerate() {
            let m = port.monitor();
            let in_flight = (m.reads_issued + m.writes_issued)
                .saturating_sub(m.reads_completed + m.writes_completed);
            if in_flight == 0 && !port.is_active() {
                continue;
            }
            writeln!(
                s,
                "  port {p}: active={} in_flight={in_flight} parked_no_tags={} \
                 parked_node_full={}",
                port.is_active(),
                self.parked_no_tags[p],
                self.parked_node_full[p],
            )
            .expect("writing to a String cannot fail");
        }
        s
    }

    /// Records the host's gauges into a metrics sampler at instant `at`.
    pub fn sample_metrics(&self, at: Time, s: &mut MetricsSampler) {
        s.record("host.outstanding", at, self.outstanding() as f64);
        let queued: usize = self.nodes.iter().map(|n| n.queue_len()).sum();
        s.record("host.tx_queue", at, queued as f64);
        s.record("host.pending_events", at, self.events.len() as f64);
        if self.cfg.robust.enabled {
            let r = self.robust_stats;
            s.record("host.timeouts", at, r.timeouts as f64);
            s.record("host.retries", at, r.retries as f64);
            s.record("host.poisoned", at, r.poisoned_responses as f64);
            s.record("host.links_dead", at, (r.links_degraded) as f64);
        }
        if let Some(open) = self.source.open() {
            s.record("host.admission_queue", at, open.queue.len() as f64);
            s.record(
                "host.backpressure",
                at,
                if open.backpressured { 1.0 } else { 0.0 },
            );
            for ([offered, shed, completed], st) in open.series.iter().zip(&open.stats) {
                s.record(offered, at, st.offered as f64);
                s.record(shed, at, st.shed_total() as f64);
                s.record(completed, at, st.completed as f64);
            }
        }
    }

    // ------------------------------------------------------------------

    fn handle<S: LinkSink>(&mut self, ev: HostEvent, now: Time, sink: &mut S) {
        match ev {
            HostEvent::PortIssue { port } => self.port_issue(port, now),
            HostEvent::NodeKick { node, seq } => {
                if seq != self.node_kick_seq[node] {
                    return; // superseded by an earlier kick
                }
                self.node_kick_at[node] = None;
                self.node_try_start(node, now, sink);
            }
            HostEvent::NodeTxDone { node, req } => {
                let link = self.nodes[node].link();
                match sink.submit(link, req, now) {
                    Ok(()) => {
                        self.nodes[node].arrived();
                        // The wire is free and our in-flight count just
                        // dropped; try the next queued packet.
                        if !self.nodes[node].waiting_credit() {
                            self.kick_node(node, now);
                        }
                    }
                    Err(req) => {
                        // The slot reserved at TX start was consumed in
                        // flight — in a chain, pass-through hop traffic
                        // shares the ingress buffers the reservation
                        // counted, and a saturating frontend keeps them
                        // full. Hold the packet at the link boundary and
                        // retry next link cycle; the buffers drain as the
                        // device consumes, so this terminates (and the
                        // forward-progress watchdog guards the claim).
                        self.events
                            .push(now + self.cfg.cycle(), HostEvent::NodeTxDone { node, req });
                    }
                }
            }
            HostEvent::RxDeliver { mut resp } => {
                resp.completed_at = now;
                if self.cfg.robust.enabled {
                    match self.in_flight.remove(&resp.id.value()) {
                        Some(entry) => {
                            // First response wins; clear the link's
                            // consecutive-timeout streak and recall any
                            // stale retransmission still queued.
                            self.consecutive_timeouts[self.nodes[entry.node].link()] = 0;
                            let _ = self.nodes[entry.node].remove_by_id(resp.id.value());
                        }
                        None => {
                            // Late duplicate (or response to an abandoned
                            // request): the tag was already released, so
                            // delivering would corrupt the pool. Drop it.
                            self.robust_stats.poisoned_responses += 1;
                            return;
                        }
                    }
                }
                self.complete(resp, now);
            }
            HostEvent::DeadlineSweep { seq } => {
                if seq != self.sweep_seq {
                    return; // superseded by an earlier re-arm
                }
                self.deadline_sweep(now);
            }
            HostEvent::RetryIssue { id } => self.retransmit(id, now),
            HostEvent::Arrival { tenant } => self.open_arrival(tenant as usize, now),
        }
    }

    /// Delivers a response to its port, retiring the request exactly once.
    fn complete(&mut self, resp: MemoryResponse, now: Time) {
        self.tracer.finish(resp.trace_id(), Stage::Rx.index(), now);
        let p = resp.port.index() as usize;
        self.total_completed += 1;
        self.sanitizer.note_retire(resp.id.value(), now);
        let unblocked = self.ports[p].deliver(&resp);
        let mut open_more = false;
        if let Some(open) = self.source.open_mut() {
            if let Some((tenant, arrived)) = open.issued.remove(resp.id.value()) {
                let t = tenant as usize;
                let latency = now.since(arrived);
                open.ledger.completed += 1;
                open.stats[t].completed += 1;
                open.stats[t].latency.record(latency);
                if latency <= open.cfg.tenants[t].slo_p99 {
                    open.stats[t].completed_within_slo += 1;
                }
            }
            open_more = !open.queue.is_empty();
        }
        if unblocked && (self.parked_no_tags[p] || self.ports[p].is_active()) {
            self.parked_no_tags[p] = false;
            self.schedule_issue(p, now);
        }
        // The branch above already unparked a port whose tag came back.
        if open_more {
            self.open_schedule_issue(now);
        }
    }

    /// Arms (or re-arms) the deadline sweep at `deadline`. A pending
    /// sweep at or before `deadline` already covers it. A pending sweep
    /// *after* `deadline` — possible because retransmissions take fresh
    /// `now + timeout` deadlines without the TX flit delay fresh issues
    /// carry — is superseded through the sequence number, so an expiry
    /// can never hide behind a later-armed sweep: previously, with the
    /// retransmit budget exhausted, that delay left the abandonment (and
    /// the tag it frees) waiting on a stale armed sweep.
    fn arm_sweep(&mut self, deadline: Time) {
        if let Some(at) = self.sweep_at {
            if at <= deadline {
                return;
            }
        }
        self.sweep_seq += 1;
        self.sweep_at = Some(deadline);
        self.events.push(
            deadline,
            HostEvent::DeadlineSweep {
                seq: self.sweep_seq,
            },
        );
    }

    /// The armed deadline sweep fired: expire every attempt whose
    /// deadline passed, then re-arm at the next pending deadline. A sweep
    /// whose originating entry already resolved finds nothing expired and
    /// simply re-arms — the one tolerated no-op.
    fn deadline_sweep(&mut self, now: Time) {
        self.sweep_at = None;
        let expired: Vec<u64> = self
            .in_flight
            .iter()
            .filter(|(_, e)| e.deadline.is_some_and(|d| d <= now))
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            self.deadline_expired(id, now);
        }
        if let Some(next) = self.in_flight.values().filter_map(|e| e.deadline).min() {
            self.arm_sweep(next);
        }
    }

    /// One transmission attempt's deadline fired.
    fn deadline_expired(&mut self, id: u64, now: Time) {
        let Some(entry) = self.in_flight.get_mut(&id) else {
            return;
        };
        entry.deadline = None;
        let attempt = entry.attempt;
        let link = self.nodes[entry.node].link();
        self.robust_stats.timeouts += 1;
        self.consecutive_timeouts[link] = self.consecutive_timeouts[link].saturating_add(1);
        if self.consecutive_timeouts[link] >= self.cfg.robust.link_death_threshold {
            self.declare_link_dead(link, now);
        }
        if attempt > self.cfg.robust.max_retries {
            self.abandon(id, now);
        } else {
            // Deterministic exponential backoff: attempt k waits
            // base << (k-1) before retransmitting.
            let shift = (attempt - 1).min(16);
            let wait = self.cfg.robust.backoff_base * (1u64 << shift);
            self.events.push(now + wait, HostEvent::RetryIssue { id });
        }
    }

    /// Backoff expired: retransmit `id` through a live node with a fresh
    /// deadline.
    fn retransmit(&mut self, id: u64, now: Time) {
        let Some(&entry) = self.in_flight.get(&id) else {
            return; // resolved while backing off
        };
        // Recall the stale copy if it is still waiting in a queue (a dead
        // node's backlog, for instance) so only one copy is in a queue at
        // a time. Copies already past the wire are deduplicated by the
        // device and, failing that, by the poisoned-response check.
        let _ = self.nodes[entry.node].remove_by_id(id);
        self.robust_stats.retries += 1;
        let (node, deadline) = self.resend(id, now, entry.attempt + 1);
        self.kick_node(node, now);
        self.arm_sweep(deadline);
    }

    /// Queues tracked request `id` again, ready at `ready`, on its port's
    /// live node as transmission `attempt` with a fresh deadline. Returns
    /// the node and the deadline; the caller kicks and arms.
    fn resend(&mut self, id: u64, ready: Time, attempt: u32) -> (usize, Time) {
        let req = self.in_flight[&id].req;
        let node = self.route_node(req.port.index() as usize);
        let deadline = ready + self.cfg.robust.request_timeout;
        let entry = InFlight {
            req,
            node,
            attempt,
            deadline: Some(deadline),
        };
        self.in_flight.insert(id, entry);
        self.nodes[node].enqueue(ready, req);
        (node, deadline)
    }

    /// Exhausted every retry: force-complete the request so its tag and
    /// conservation-ledger entry are released, and count it abandoned.
    fn abandon(&mut self, id: u64, now: Time) {
        let Some(entry) = self.in_flight.remove(&id) else {
            return;
        };
        let _ = self.nodes[entry.node].remove_by_id(id);
        self.robust_stats.abandoned += 1;
        let resp = entry.req.respond(now, 0);
        self.complete(resp, now);
    }

    /// Permanently marks `link` dead and reroutes its node's backlog onto
    /// a surviving node. The last live link is never killed — degradation
    /// must not become total blackout on the host's own initiative.
    fn declare_link_dead(&mut self, link: usize, now: Time) {
        if self.link_dead[link] || self.live_links() <= 1 {
            return;
        }
        self.link_dead[link] = true;
        self.robust_stats.links_degraded += 1;
        let node = link; // nodes are indexed by the link they drive
        let backlog = self.nodes[node].drain_queue();
        let target = self.live_node_for(node);
        for (ready, req) in backlog {
            if let Some(entry) = self.in_flight.get_mut(&req.id.value()) {
                entry.node = target;
            }
            self.nodes[target].enqueue(ready.max(now), req);
        }
        self.kick_node(target, now);
        self.wake_node_ports(target, now);
    }

    /// `preferred` if alive, else the first live node (or `preferred`
    /// when every link is dead — unreachable while the last-link guard in
    /// [`declare_link_dead`](Host::declare_link_dead) holds).
    fn live_node_for(&self, preferred: usize) -> usize {
        if !self.link_dead[preferred] {
            return preferred;
        }
        (0..self.nodes.len())
            .find(|&n| !self.link_dead[n])
            .unwrap_or(preferred)
    }

    /// The node `port`'s traffic currently routes through (its home node,
    /// unless degraded away).
    fn route_node(&self, port: usize) -> usize {
        self.live_node_for(self.cfg.node_of_port(port))
    }

    /// One issue attempt on port `p`, whichever source feeds it. The
    /// port parks on node flow control until
    /// [`wake_node_ports`](Host::wake_node_ports) finds the node drained,
    /// and on an empty tag pool until [`complete`](Host::complete) frees a
    /// tag.
    fn port_issue(&mut self, p: usize, now: Time) {
        self.issue_pending[p] = false;
        let node = self.route_node(p);
        if self.nodes[node].stop_asserted() {
            self.parked_node_full[p] = true;
            return;
        }
        let drawn = match &mut self.source {
            Source::Gups => self.ports[p].try_issue(self.next_id, now),
            Source::Admission(open) => open.issue(&mut self.ports[p], self.next_id, now),
        };
        let issued = drawn.is_ok();
        match drawn {
            Ok(req) => self.inject(req, node, now),
            Err(IssueBlock::NoTags) => self.parked_no_tags[p] = true,
            Err(IssueBlock::Done) => {}
        }
        match &self.source {
            // A GUPS port paces itself: its next attempt is one cycle on.
            Source::Gups if issued && self.ports[p].is_active() => {
                self.schedule_issue(p, now + self.cfg.cycle());
            }
            // Keep the round-robin drain chain alive while admitted work
            // remains; a port out of tags hands it to the next port.
            Source::Admission(open) if !open.queue.is_empty() => self.open_schedule_issue(now),
            Source::Gups | Source::Admission(_) => {}
        }
    }

    /// Sends a request a port just drew into transmit node `node`: the
    /// one place a request enters the TX pipeline. It takes the next id,
    /// opens the request's conservation entry and trace, arms its
    /// deadline when the robustness layer is on, and queues it on the
    /// node once its flits reach the parallel domain.
    fn inject(&mut self, req: MemoryRequest, node: usize, now: Time) {
        self.next_id = self.next_id.next();
        self.total_issued += 1;
        self.sanitizer.note_inject(req.id.value(), now);
        let ready = now + self.cfg.frequency.cycles(self.cfg.tx.flits_to_parallel);
        self.tracer.begin(req.trace_id(), now);
        self.tracer
            .transition(req.trace_id(), Stage::TxFlits.index(), ready);
        if self.cfg.robust.enabled {
            let deadline = ready + self.cfg.robust.request_timeout;
            self.in_flight.insert(
                req.id.value(),
                InFlight {
                    req,
                    node,
                    attempt: 1,
                    deadline: Some(deadline),
                },
            );
            self.arm_sweep(deadline);
        }
        self.nodes[node].enqueue(ready, req);
        self.kick_node(node, ready);
    }

    /// One open-loop arrival for tenant `t`: schedule the successor,
    /// then run the admission pipeline (token bucket, queue-full shed
    /// policy, backpressure bookkeeping).
    fn open_arrival(&mut self, t: usize, now: Time) {
        let tid = u16::try_from(t).expect("tenant index fits in u16");
        let Some(open) = self.source.open_mut() else {
            return;
        };
        if !open.arrivals_on {
            return; // stale event after stop_generation
        }
        // Open loop: the successor fires no matter how loaded the
        // memory is — load never slows the source.
        let next = open.streams[t].next_arrival(now);
        self.events.push(next, HostEvent::Arrival { tenant: tid });
        open.stats[t].offered += 1;
        open.ledger.offered += 1;
        if open.backpressured {
            open.stats[t].arrived_backpressured += 1;
        }
        // Stage 1: per-tenant token-bucket rate limit.
        let rate_ok = match open.buckets[t].as_mut() {
            Some(bucket) => bucket.try_take(1, now),
            None => true,
        };
        if !rate_ok {
            open.stats[t].shed_rate += 1;
            open.ledger.shed += 1;
            return;
        }
        // Draw the operation — op coin first, then popularity rank,
        // so the draw order is fixed regardless of outcomes.
        let spec = &open.cfg.tenants[t];
        let op = if open.rng[t].next_f64() < spec.read_fraction {
            OpKind::Read
        } else {
            OpKind::Write
        };
        let rank = open.zipf[t].sample(&mut open.rng[t]);
        // Scatter ranks across the global space so popularity skew
        // does not collapse onto one vault; equal ranks still map to
        // the same line (true hot items).
        let size_b = spec.size.bytes();
        let slots = (self.cfg.memory_capacity * u64::from(self.cfg.shard.cubes())) / size_b;
        let global = rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) % slots * size_b;
        let entry = Admitted {
            tenant: tid,
            op,
            size: spec.size,
            global,
            arrived: now,
            expires: now + open.cfg.queue_deadline,
        };
        // Stage 2: the bounded queue with its shed policy.
        let mut admitted = true;
        if open.queue.len() >= open.cfg.queue_capacity {
            match open.cfg.policy {
                ShedPolicy::RejectNewest => admitted = false,
                ShedPolicy::PriorityShed => {
                    // Victim: the worst-priority entry (newest among
                    // ties). Evicted only if the arrival outranks it.
                    let (victim, _) = open
                        .queue
                        .iter()
                        .enumerate()
                        .max_by_key(|(i, e)| (open.cfg.tenants[e.tenant as usize].priority, *i))
                        .expect("queue is full, hence non-empty");
                    let victim_prio = open.cfg.tenants[open.queue[victim].tenant as usize].priority;
                    if victim_prio > spec.priority {
                        let evicted = open.queue.remove(victim).expect("index from enumerate");
                        open.stats[evicted.tenant as usize].shed_queue += 1;
                        open.ledger.shed += 1;
                    } else {
                        admitted = false;
                    }
                }
                ShedPolicy::DeadlineDrop => {
                    open.expire_overstays(now);
                    if open.queue.len() >= open.cfg.queue_capacity {
                        admitted = false;
                    }
                }
            }
        }
        if admitted {
            open.queue.push_back(entry);
            open.stats[t].admitted += 1;
        } else {
            open.stats[t].shed_queue += 1;
            open.ledger.shed += 1;
        }
        open.update_backpressure();
        self.sanitizer.check_queue_bound(
            "admission queue",
            open.queue.len(),
            open.cfg.queue_capacity,
            now,
        );
        if admitted {
            self.open_schedule_issue(now);
        }
    }

    /// Schedules an issue attempt on the next available port (round
    /// robin) to drain the admission queue. Ports parked on tags or node
    /// flow control are skipped — their unpark paths re-enter here.
    fn open_schedule_issue(&mut self, now: Time) {
        let Some(open) = self.source.open_mut() else {
            return;
        };
        let n = self.ports.len();
        let free = |p: &usize| {
            !(self.issue_pending[*p] || self.parked_no_tags[*p] || self.parked_node_full[*p])
        };
        if let Some(p) = (open.next_port..open.next_port + n)
            .map(|k| k % n)
            .find(free)
        {
            open.next_port = (p + 1) % n;
            self.schedule_issue(p, now);
        }
    }

    fn node_try_start<S: LinkSink>(&mut self, n: usize, now: Time, sink: &mut S) {
        let link = self.nodes[n].link();
        let free = sink.free_slots(link);
        let tx = self.cfg.tx;
        let clk = self.cfg.frequency;
        let links = self.cfg.links;
        let pipe = |req: &MemoryRequest| {
            clk.cycles(
                tx.arbiter_min
                    + tx.add_seq
                    + tx.flow_control
                    + tx.add_crc
                    + tx.serdes_convert
                    + TxStages::transmit_cycles(req.sizes().request_flits()),
            )
        };
        let wire = |req: &MemoryRequest| {
            TimeDelta::from_ps(links.serialize_ps(req.sizes().request_flits().bytes()))
        };
        let (result, started) = self.nodes[n].try_start(now, free, pipe, wire);
        match result {
            TxStart::Started(arrival, wire_free) => {
                let req = started.expect("started implies a request");
                if self.tracer.is_enabled() {
                    // The queue span ends now; the pipeline and wire
                    // boundaries are already known, so record them ahead.
                    let id = req.trace_id();
                    self.tracer.transition(id, Stage::TxQueue.index(), now);
                    self.tracer
                        .transition(id, Stage::TxPipe.index(), now + pipe(&req));
                    self.tracer.transition(id, Stage::LinkTx.index(), arrival);
                }
                self.events
                    .push(arrival, HostEvent::NodeTxDone { node: n, req });
                self.kick_node(n, wire_free);
                self.wake_node_ports(n, now);
            }
            TxStart::NotReady(t) | TxStart::WireBusy(t) => self.kick_node(n, t),
            TxStart::NeedCredit => self.stalled_nodes |= 1 << n,
            TxStart::Empty => {}
        }
    }

    fn wake_node_ports(&mut self, n: usize, now: Time) {
        if self.nodes[n].stop_asserted() {
            return;
        }
        for p in 0..self.ports.len() {
            if self.parked_node_full[p] && self.route_node(p) == n {
                self.parked_node_full[p] = false;
                self.schedule_issue(p, now);
            }
        }
    }

    /// Schedules a port's next issue attempt, respecting one-per-cycle
    /// pacing and deduplicating pending attempts.
    fn schedule_issue(&mut self, p: usize, at: Time) {
        if self.issue_pending[p] {
            return;
        }
        let paced = match self.ports[p].last_issue() {
            Some(last) => at.max(last + self.cfg.cycle()),
            None => at,
        };
        self.issue_pending[p] = true;
        self.events.push(paced, HostEvent::PortIssue { port: p });
    }

    /// Arms the node's single live kick. If a live kick already fires at
    /// or before `at`, nothing is scheduled (its handler re-arms as
    /// needed); an earlier `at` supersedes the live kick via the sequence
    /// number.
    fn kick_node(&mut self, n: usize, at: Time) {
        let at = at.max(self.now);
        if let Some(t) = self.node_kick_at[n] {
            if t <= at {
                return;
            }
        }
        self.node_kick_seq[n] += 1;
        self.node_kick_at[n] = Some(at);
        self.events.push(
            at,
            HostEvent::NodeKick {
                node: n,
                seq: self.node_kick_seq[n],
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_types::{RequestKind, RequestSize};

    /// A sink that accepts everything instantly and optionally echoes
    /// responses after a fixed delay (collected for manual delivery).
    struct EchoSink {
        free: usize,
        submitted: Vec<(usize, MemoryRequest, Time)>,
    }

    impl EchoSink {
        fn new(free: usize) -> Self {
            EchoSink {
                free,
                submitted: Vec::new(),
            }
        }
    }

    impl LinkSink for EchoSink {
        fn free_slots(&self, _link: usize) -> usize {
            self.free
        }
        fn submit(
            &mut self,
            link: usize,
            req: MemoryRequest,
            now: Time,
        ) -> Result<(), MemoryRequest> {
            self.submitted.push((link, req, now));
            Ok(())
        }
    }

    fn echo(req: &MemoryRequest, at: Time, delay_ns: u64) -> MemoryResponse {
        MemoryResponse {
            id: req.id,
            port: req.port,
            tag: req.tag,
            op: req.op,
            size: req.size,
            cube: req.cube,
            addr: req.addr,
            issued_at: req.issued_at,
            completed_at: at + TimeDelta::from_ns(delay_ns),
            data_token: 0,
            tenant: req.tenant,
        }
    }

    #[test]
    fn ports_issue_until_tags_exhaust() {
        let mut host = Host::new(HostConfig::default());
        host.apply_workload(&Workload::full_scale(
            RequestKind::ReadOnly,
            RequestSize::MAX,
        ));
        host.start(Time::ZERO);
        let mut sink = EchoSink::new(64);
        host.advance(Time::from_ps(10_000_000), &mut sink); // 10 us
                                                            // Nine ports x 64 tags, all issued, none returned.
        assert_eq!(host.total_issued(), 9 * 64);
        assert_eq!(host.outstanding(), 9 * 64);
        assert_eq!(sink.submitted.len(), 9 * 64);
    }

    #[test]
    fn responses_release_tags_and_measure_latency() {
        let mut host = Host::new(HostConfig::default());
        host.apply_workload(&Workload::small_scale(
            RequestKind::ReadOnly,
            RequestSize::MAX,
            hmc_types::AddressMask::NONE,
            1,
        ));
        host.start(Time::ZERO);
        let mut sink = EchoSink::new(64);
        host.advance(Time::from_ps(2_000_000), &mut sink);
        let issued = host.total_issued();
        assert_eq!(issued, 64, "one port's tag pool");
        // Echo all submissions back with a 200 ns device delay.
        let submitted = std::mem::take(&mut sink.submitted);
        for (_, req, at) in &submitted {
            host.receive_response(echo(req, *at, 200), *at + TimeDelta::from_ns(200));
        }
        host.advance(Time::from_ps(10_000_000), &mut sink);
        let stats = host.stats();
        assert_eq!(stats.reads_completed, 64);
        assert!(host.total_issued() > issued, "tags recycled, port resumed");
        // Latency includes TX pipeline + device echo + RX pipeline.
        let min = stats.read_latency.min().unwrap().as_ns_f64();
        assert!(min > 300.0, "min latency {min} ns");
    }

    #[test]
    fn stream_workload_runs_once() {
        let mut host = Host::new(HostConfig::default());
        host.apply_workload(&Workload::read_stream(8, RequestSize::MIN));
        host.start(Time::ZERO);
        let mut sink = EchoSink::new(64);
        host.advance(Time::from_ps(5_000_000), &mut sink);
        assert_eq!(host.total_issued(), 8);
        assert_eq!(sink.submitted.len(), 8);
        // Stream requests pace one per cycle from port 0.
        assert!(sink.submitted.iter().all(|(l, _, _)| *l == 0));
    }

    #[test]
    fn credit_stall_and_notify() {
        let mut host = Host::new(HostConfig::default());
        host.apply_workload(&Workload::small_scale(
            RequestKind::ReadOnly,
            RequestSize::MAX,
            hmc_types::AddressMask::NONE,
            1,
        ));
        host.start(Time::ZERO);
        let mut sink = EchoSink::new(0); // no credits at all
        host.advance(Time::from_ps(1_000_000), &mut sink);
        assert!(sink.submitted.is_empty());
        assert!(host.any_node_stalled());
        // Grant credit: transmission resumes.
        sink.free = 64;
        host.notify_credit(0, 64, host.now());
        host.advance(Time::from_ps(3_000_000), &mut sink);
        assert!(!sink.submitted.is_empty());
        // A notification that cannot lead to a start is ignored (no spin).
        host.notify_credit(1, 0, host.now());
    }

    #[test]
    fn write_only_floods_until_node_queue_fills() {
        let cfg = HostConfig {
            node_queue_depth: 4,
            ..HostConfig::default()
        };
        let mut host = Host::new(cfg);
        host.apply_workload(&Workload::small_scale(
            RequestKind::WriteOnly,
            RequestSize::MAX,
            hmc_types::AddressMask::NONE,
            1,
        ));
        host.start(Time::ZERO);
        // Zero credits: the node queue fills to its stop threshold and the
        // port parks instead of issuing forever.
        let mut sink = EchoSink::new(0);
        host.advance(Time::from_ps(10_000_000), &mut sink);
        assert!(host.total_issued() <= 6, "issued {}", host.total_issued());
    }

    #[test]
    fn rw_issues_write_after_read_response() {
        let mut host = Host::new(HostConfig::default());
        host.apply_workload(&Workload::small_scale(
            RequestKind::ReadModifyWrite,
            RequestSize::MAX,
            hmc_types::AddressMask::NONE,
            1,
        ));
        host.start(Time::ZERO);
        let mut sink = EchoSink::new(1024);
        host.advance(Time::from_ps(2_000_000), &mut sink);
        let reads: Vec<_> = std::mem::take(&mut sink.submitted);
        assert!(reads
            .iter()
            .all(|(_, r, _)| r.op == hmc_types::packet::OpKind::Read));
        // Respond to the first read; a write to the same address follows.
        let (_, first, at) = reads[0];
        host.receive_response(echo(&first, at, 200), at + TimeDelta::from_ns(200));
        host.advance(host.now() + TimeDelta::from_us(2), &mut sink);
        let writes: Vec<_> = sink
            .submitted
            .iter()
            .filter(|(_, r, _)| r.op == hmc_types::packet::OpKind::Write)
            .collect();
        assert_eq!(writes.len(), 1);
        assert_eq!(writes[0].1.addr, first.addr);
    }

    #[test]
    fn dependent_chain_has_one_in_flight() {
        let mut host = Host::new(HostConfig::default());
        host.apply_workload(&Workload::pointer_chase(5, RequestSize::MAX, 3));
        host.start(Time::ZERO);
        let mut sink = EchoSink::new(64);
        host.advance(Time::from_ps(5_000_000), &mut sink);
        // Only the first hop went out; the rest wait on responses.
        assert_eq!(sink.submitted.len(), 1);
        let (_, first, at) = sink.submitted[0];
        host.receive_response(echo(&first, at, 300), at + TimeDelta::from_ns(300));
        host.advance(host.now() + TimeDelta::from_us(5), &mut sink);
        assert_eq!(sink.submitted.len(), 2, "second hop after the response");
    }

    #[test]
    fn stats_reset_between_windows() {
        let mut host = Host::new(HostConfig::default());
        host.apply_workload(&Workload::read_stream(4, RequestSize::MIN));
        host.start(Time::ZERO);
        let mut sink = EchoSink::new(64);
        host.advance(Time::from_ps(1_000_000), &mut sink);
        assert!(host.stats().reads_issued > 0);
        host.reset_stats();
        assert_eq!(host.stats().reads_issued, 0);
        assert_eq!(host.stats().counted_bytes, 0);
    }

    fn robust_cfg() -> HostConfig {
        HostConfig {
            robust: crate::config::RobustnessConfig {
                enabled: true,
                request_timeout: TimeDelta::from_us(1),
                max_retries: 2,
                backoff_base: TimeDelta::from_ns(100),
                link_death_threshold: 4,
            },
            ..HostConfig::default()
        }
    }

    #[test]
    fn unanswered_requests_retry_then_abandon() {
        let mut host = Host::new(robust_cfg());
        host.apply_workload(&Workload::small_scale(
            RequestKind::ReadOnly,
            RequestSize::MAX,
            hmc_types::AddressMask::NONE,
            1,
        ));
        host.enable_sanitizer();
        host.start(Time::ZERO);
        // A black hole: accepts every request, never answers.
        let mut sink = EchoSink::new(1024);
        host.advance(Time::from_ps(50_000_000), &mut sink);
        let r = host.robust_stats();
        assert!(r.timeouts > 0, "deadlines must expire");
        assert!(r.retries > 0, "expired attempts must retransmit");
        assert!(r.abandoned > 0, "exhausted retries must abandon");
        // Abandonment releases tags: the port issues well past one pool.
        assert!(host.total_issued() > 64, "issued {}", host.total_issued());
        // Every abandonment retired its request exactly once.
        host.stop_generation();
        host.advance(Time::from_ps(200_000_000), &mut sink);
        assert_eq!(host.outstanding(), 0);
        assert_eq!(host.tracked_in_flight(), 0);
        assert!(host.sanitizer().violations().is_empty());
    }

    #[test]
    fn duplicate_response_is_poisoned_not_delivered() {
        let mut host = Host::new(robust_cfg());
        host.apply_workload(&Workload::read_stream(1, RequestSize::MIN));
        host.start(Time::ZERO);
        let mut sink = EchoSink::new(64);
        host.advance(Time::from_ps(900_000), &mut sink);
        assert_eq!(sink.submitted.len(), 1);
        let (_, req, at) = sink.submitted[0];
        // The device answers twice (a retransmission raced the original).
        host.receive_response(echo(&req, at, 100), at + TimeDelta::from_ns(100));
        host.receive_response(echo(&req, at, 150), at + TimeDelta::from_ns(150));
        host.advance(host.now() + TimeDelta::from_us(5), &mut sink);
        assert_eq!(host.stats().reads_completed, 1, "first response wins");
        assert_eq!(host.robust_stats().poisoned_responses, 1);
        assert_eq!(host.tracked_in_flight(), 0);
    }

    #[test]
    fn consecutive_timeouts_kill_a_link_but_never_the_last() {
        let mut host = Host::new(robust_cfg());
        host.apply_workload(&Workload::full_scale(
            RequestKind::ReadOnly,
            RequestSize::MAX,
        ));
        host.start(Time::ZERO);
        let mut sink = EchoSink::new(1024);
        host.advance(Time::from_ps(100_000_000), &mut sink);
        let r = host.robust_stats();
        assert_eq!(r.links_degraded, 1, "one link dies, the survivor holds");
        assert_eq!(host.live_links(), 1);
        // After degradation, retransmissions route via the surviving link.
        let survivor = (0..2).find(|&l| !host.link_is_dead(l)).unwrap();
        let tail: Vec<usize> = sink
            .submitted
            .iter()
            .rev()
            .take(20)
            .map(|(l, _, _)| *l)
            .collect();
        assert!(tail.iter().all(|&l| l == survivor));
    }

    #[test]
    fn recovery_replays_the_in_flight_window() {
        let mut host = Host::new(robust_cfg());
        host.apply_workload(&Workload::small_scale(
            RequestKind::ReadOnly,
            RequestSize::MAX,
            hmc_types::AddressMask::NONE,
            1,
        ));
        host.start(Time::ZERO);
        let mut sink = EchoSink::new(1024);
        host.advance(Time::from_ps(600_000), &mut sink);
        let window = host.tracked_in_flight();
        assert_eq!(window, 64, "one tag pool in flight");
        let first_ids: std::collections::BTreeSet<u64> = sink
            .submitted
            .iter()
            .map(|(_, r, _)| r.id.value())
            .collect();
        // Thermal shutdown: the device forgot everything; replay.
        sink.submitted.clear();
        let replayed = host.reset_for_recovery(Time::from_ps(100_000_000));
        assert_eq!(replayed, window);
        assert_eq!(host.robust_stats().replayed, 64);
        // Stop before the replayed deadlines (resume + 1 us) expire, so
        // the capture holds exactly the replayed window.
        host.advance(Time::from_ps(100_900_000), &mut sink);
        let replay_ids: std::collections::BTreeSet<u64> = sink
            .submitted
            .iter()
            .map(|(_, r, _)| r.id.value())
            .collect();
        assert_eq!(replay_ids, first_ids, "same window, same ids");
    }

    #[test]
    fn earlier_deadline_supersedes_pending_sweep() {
        // Regression: a retransmission's deadline (`now + timeout`, no TX
        // flit delay) can undercut an already-armed sweep. The old
        // arm-once path kept the later sweep, delaying expiry — and with
        // the retransmit budget exhausted, the abandonment that frees the
        // tag waited on that stale armed sweep.
        let mut host = Host::new(robust_cfg());
        host.arm_sweep(Time::from_ps(1_000_000));
        let late_seq = host.sweep_seq;
        assert_eq!(host.sweep_at, Some(Time::from_ps(1_000_000)));
        // An earlier deadline must supersede, not be swallowed.
        host.arm_sweep(Time::from_ps(500_000));
        assert_eq!(host.sweep_at, Some(Time::from_ps(500_000)));
        assert!(host.sweep_seq > late_seq, "earlier arm takes a fresh seq");
        // A later deadline is covered by the pending sweep.
        host.arm_sweep(Time::from_ps(800_000));
        assert_eq!(host.sweep_at, Some(Time::from_ps(500_000)));
        // One live sweep plus the single superseded stale event.
        assert_eq!(host.events.len(), 2);
    }

    #[test]
    fn retransmit_storm_keeps_event_queue_bounded() {
        // Satellite regression for the sweep re-arm fix: a full-port
        // retransmit storm (black-hole sink) with the sanitizer's
        // queue-bound check armed. Superseded sweeps must stay within the
        // structural event bound and every request must drain.
        let mut host = Host::new(robust_cfg());
        host.apply_workload(&Workload::full_scale(
            RequestKind::ReadOnly,
            RequestSize::MAX,
        ));
        host.enable_sanitizer();
        host.start(Time::ZERO);
        let mut sink = EchoSink::new(1 << 20); // accepts all, answers none
        host.advance(Time::from_ps(80_000_000), &mut sink);
        host.stop_generation();
        host.advance(Time::from_ps(400_000_000), &mut sink);
        assert!(host.robust_stats().abandoned > 0);
        assert_eq!(host.outstanding(), 0);
        assert_eq!(host.tracked_in_flight(), 0);
        assert!(
            host.sanitizer().violations().is_empty(),
            "{:?}",
            host.sanitizer().violations()
        );
    }

    fn open_cfg(offered_rps: f64, policy: ShedPolicy) -> HostConfig {
        HostConfig {
            openloop: Some(OpenLoopConfig::standard_mix(
                offered_rps,
                sim_engine::ArrivalKind::Poisson,
                policy,
            )),
            ..HostConfig::default()
        }
    }

    /// Drives an open-loop host for `until_ns`, echoing every submitted
    /// request back `delay_ns` after it crossed the wire.
    fn run_open(host: &mut Host, until_ns: u64, delay_ns: u64) {
        let mut sink = EchoSink::new(1 << 20);
        let step = 1_000; // 1 us slices
        let mut t = 0;
        while t < until_ns {
            t += step;
            host.advance(Time::from_ps(t * 1_000), &mut sink);
            let drained: Vec<(usize, MemoryRequest, Time)> = sink.submitted.drain(..).collect();
            for (_, req, _) in drained {
                let at = host.now() + TimeDelta::from_ns(delay_ns);
                host.receive_response(echo(&req, at, 0), at);
            }
        }
        host.stop_generation();
        // Drain: queued work keeps issuing, so keep echoing until idle.
        for _ in 0..1_000 {
            if !host.is_busy() && host.pending_events() == 0 {
                break;
            }
            t += step;
            host.advance(Time::from_ps(t * 1_000), &mut sink);
            let drained: Vec<(usize, MemoryRequest, Time)> = sink.submitted.drain(..).collect();
            for (_, req, _) in drained {
                let at = host.now() + TimeDelta::from_ns(delay_ns);
                host.receive_response(echo(&req, at, 0), at);
            }
        }
    }

    #[test]
    fn open_loop_light_load_flows_and_conserves() {
        for policy in ShedPolicy::ALL {
            let mut host = Host::new(open_cfg(1.0e7, policy));
            host.enable_sanitizer();
            host.start(Time::ZERO);
            run_open(&mut host, 200_000, 200);
            assert_eq!(host.outstanding(), 0, "policy {policy}");
            assert_eq!(host.admission_queue_len(), 0, "policy {policy}");
            let l = host.source.open().expect("open loop configured").ledger;
            assert!(l.offered > 1_000, "policy {policy}: offered {}", l.offered);
            assert_eq!(l.offered, l.shed + l.issued, "policy {policy}");
            assert_eq!(l.issued, l.completed, "policy {policy}");
            // At 1% of drain capacity nothing should queue-shed; only the
            // batch tenant's token bucket may clip.
            for (spec, st) in host
                .config()
                .openloop
                .as_ref()
                .unwrap()
                .tenants
                .iter()
                .zip(host.open_stats())
            {
                assert_eq!(st.shed_queue, 0, "policy {policy} tenant {}", spec.name);
                assert_eq!(st.shed_deadline, 0, "policy {policy} tenant {}", spec.name);
            }
            host.check_open_conservation(host.now());
            assert!(
                host.sanitizer().violations().is_empty(),
                "policy {policy}: {:?}",
                host.sanitizer().violations()
            );
        }
    }

    #[test]
    fn open_loop_overload_sheds_but_never_wedges() {
        for policy in ShedPolicy::ALL {
            let mut host = Host::new(open_cfg(4.0e9, policy));
            host.enable_sanitizer();
            host.start(Time::ZERO);
            run_open(&mut host, 20_000, 200);
            let l = host.source.open().expect("open loop configured").ledger;
            assert!(l.shed > 0, "policy {policy}: overload must shed");
            assert!(
                l.completed > 0,
                "policy {policy}: goodput must not collapse"
            );
            assert_eq!(host.outstanding(), 0, "policy {policy}");
            assert_eq!(host.admission_queue_len(), 0, "policy {policy}");
            assert!(
                host.backpressure_assertions() > 0,
                "policy {policy}: a saturated queue must assert backpressure"
            );
            host.check_open_conservation(host.now());
            assert!(
                host.sanitizer().violations().is_empty(),
                "policy {policy}: {:?}",
                host.sanitizer().violations()
            );
        }
    }

    #[test]
    fn priority_shed_protects_critical_tenants() {
        let mut host = Host::new(open_cfg(4.0e9, ShedPolicy::PriorityShed));
        host.start(Time::ZERO);
        run_open(&mut host, 20_000, 200);
        let cfg = host.config().openloop.as_ref().unwrap().clone();
        let frac = |name: &str| {
            let (i, _) = cfg
                .tenants
                .iter()
                .enumerate()
                .find(|(_, t)| t.name == name)
                .expect("tenant in standard mix");
            let st = &host.open_stats()[i];
            st.shed_queue as f64 / st.offered.max(1) as f64
        };
        assert!(
            frac("latency") < frac("batch"),
            "critical queue-shed fraction {} must undercut batch {}",
            frac("latency"),
            frac("batch")
        );
    }

    #[test]
    fn open_loop_runs_are_bit_deterministic() {
        let run = || {
            let mut host = Host::new(open_cfg(2.0e9, ShedPolicy::DeadlineDrop));
            host.enable_sanitizer();
            host.start(Time::ZERO);
            run_open(&mut host, 20_000, 200);
            let l = host.source.open().unwrap().ledger;
            let per_tenant: Vec<(u64, u64, u64)> = host
                .open_stats()
                .iter()
                .map(|s| (s.offered, s.shed_total(), s.completed))
                .collect();
            (l.offered, l.shed, l.issued, l.completed, per_tenant)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn open_loop_none_is_inert() {
        let host = Host::new(HostConfig::default());
        assert!(!host.open_enabled());
        assert!(host.open_stats().is_empty());
        assert_eq!(host.admission_queue_len(), 0);
        assert!(!host.backpressure_asserted());
    }

    #[test]
    #[should_panic(expected = "tenant samplers must match")]
    fn tenant_samplers_must_match_the_mix() {
        let cfg = open_cfg(1.0e7, ShedPolicy::RejectNewest);
        let mut zipf = cfg.tenant_samplers();
        zipf.swap(0, 2);
        let _ = Host::with_tenant_samplers(cfg, zipf);
    }

    #[test]
    fn bandwidth_and_mrps_helpers() {
        let s = HostStats {
            counted_bytes: 160_000,
            reads_completed: 1_000,
            ..HostStats::default()
        };
        // 160 kB over 10 us = 16 GB/s; 1000 reqs over 10 us = 100 MRPS.
        assert!((s.bandwidth_gbs(TimeDelta::from_us(10)) - 16.0).abs() < 1e-9);
        assert!((s.mrps(TimeDelta::from_us(10)) - 100.0).abs() < 1e-9);
        assert_eq!(s.bandwidth_gbs(TimeDelta::ZERO), 0.0);
        assert_eq!(s.mrps(TimeDelta::ZERO), 0.0);
    }
}
