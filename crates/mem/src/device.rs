//! The assembled HMC device: links, crossbar, vaults, refresh, and the
//! event loop tying them together.

use std::collections::VecDeque;

use hmc_types::packet::OpKind;
use hmc_types::trace::Stage;
use hmc_types::{MemoryRequest, Time, TimeDelta};
use sim_engine::fault::FaultKind;
use sim_engine::{EventQueue, IdTable, MetricsSampler, Sanitizer, Tracer};

use crate::config::{MemConfig, PagePolicy};
use crate::link::{DeviceLink, OutPacket, Transfer};
use crate::store::SparseStore;
use crate::vault::{StartedOp, Vault};
use crate::xbar::Xbar;

/// A response leaving the device, timestamped with the instant its last
/// flit crossed the link (the host's RX pipeline starts then).
///
/// This is the backend-neutral [`mem_backend::BackendOutput`] under its
/// historical device-side name; every existing construction and
/// destructuring site keeps compiling unchanged.
pub type DeviceOutput = mem_backend::BackendOutput;

/// Declares a plain counter struct plus its field-wise [`Sub`] — the
/// single source of truth for window deltas. Adding a counter here makes
/// it flow through `after - before` automatically instead of silently
/// dropping out of a hand-written delta.
///
/// [`Sub`]: std::ops::Sub
macro_rules! counter_stats {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[$fmeta:meta])* pub $field:ident: u64,)+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name {
            $($(#[$fmeta])* pub $field: u64,)+
        }

        impl std::ops::Sub for $name {
            type Output = $name;

            /// Field-wise delta: the activity between two snapshots.
            fn sub(self, before: $name) -> $name {
                $name {
                    $($field: self.$field - before.$field,)+
                }
            }
        }
    };
}

counter_stats! {
    /// Aggregated activity counters of the whole device.
    pub struct DeviceStats {
        /// Read operations completed by the DRAM banks.
        pub reads_completed: u64,
        /// Write operations completed by the DRAM banks.
        pub writes_completed: u64,
        /// Request-packet bytes received across all links.
        pub bytes_up: u64,
        /// Response-packet bytes sent across all links.
        pub bytes_down: u64,
        /// Payload bytes read from DRAM.
        pub data_read_bytes: u64,
        /// Payload bytes written to DRAM.
        pub data_write_bytes: u64,
        /// Row activations across all banks.
        pub bank_activations: u64,
        /// Open-page row hits (ablation mode only).
        pub row_hits: u64,
        /// Refresh operations performed.
        pub refreshes: u64,
        /// Crossbar local-quadrant deliveries.
        pub local_hops: u64,
        /// Crossbar remote-quadrant deliveries.
        pub remote_hops: u64,
        /// Link-level retries (injected bit errors caught by CRC).
        pub link_retries: u64,
        /// Injected link-stall fault activations across all links.
        pub link_stalls: u64,
        /// Ingress credits lost to injected token leaks.
        pub credits_leaked: u64,
        /// Requests that arrived while a copy with the same id was
        /// already routed (host timeout-driven retransmissions).
        pub duplicate_requests: u64,
        /// Responses dropped because their request id was already
        /// answered by an earlier copy.
        pub dropped_responses: u64,
    }
}

impl DeviceStats {
    /// Total SerDes traffic in both directions.
    pub fn link_bytes(&self) -> u64 {
        self.bytes_up + self.bytes_down
    }
}

#[derive(Debug, Clone)]
enum DeviceEvent {
    /// An ingress transfer attempt completes; the packet sits in the
    /// link's retry buffer until the CRC outcome acknowledges it.
    IngressAttempt {
        link: usize,
    },
    VaultArrive {
        vault: u16,
        req: MemoryRequest,
    },
    BankWake {
        vault: u16,
        seq: u64,
    },
    ResponseAtLink {
        link: usize,
        pkt: OutPacket,
    },
    /// An egress transfer attempt completes (same retry contract as
    /// ingress).
    EgressAttempt {
        link: usize,
    },
    WriteDrained {
        link: usize,
        req: MemoryRequest,
    },
    Refresh {
        vault: u16,
    },
    /// Injected fault: arm a bit-error rate on a link.
    FaultBer {
        link: usize,
        ber: f64,
    },
    /// Injected fault: leak ingress credits on a link.
    FaultLeak {
        link: usize,
        count: usize,
    },
    /// Injected fault: stall a link's serializers for a duration.
    FaultStall {
        link: usize,
        duration: TimeDelta,
    },
    /// A link stall expired; restart both serializers.
    LinkWake {
        link: usize,
    },
    /// Injected fault: wedge a vault's banks for a duration.
    FaultWedge {
        vault: u16,
        duration: TimeDelta,
    },
}

/// The modelled 3D-stacked memory cube.
///
/// The device is an event-driven component: the host [`submit`]s requests
/// to a link (after checking [`can_accept`]) and periodically calls
/// [`advance`], collecting completed responses. [`next_time`] exposes the
/// earliest pending internal event so a caller can interleave the device
/// with other simulation actors deterministically.
///
/// [`submit`]: HmcDevice::submit
/// [`can_accept`]: HmcDevice::can_accept
/// [`advance`]: HmcDevice::advance
/// [`next_time`]: HmcDevice::next_time
#[derive(Debug)]
pub struct HmcDevice {
    cfg: MemConfig,
    links: Vec<DeviceLink>,
    vaults: Vec<Vault>,
    /// Input-FIFO slots promised to in-flight requests, per vault.
    vault_reserved: Vec<usize>,
    /// Time of the single live bank wake per vault.
    wake_at: Vec<Option<Time>>,
    /// Sequence number of the live wake; stale events are dropped.
    wake_seq: Vec<u64>,
    xbar: Xbar,
    store: Option<SparseStore>,
    /// Posted-write buffer occupancy (shared across links).
    write_buf_used: usize,
    /// Drain cursor of the posted-write path.
    drain_free_at: Time,
    /// Drained writes waiting for a vault input slot.
    drained_waiting: VecDeque<(usize, MemoryRequest)>,
    /// Link each in-flight request arrived on (keyed by request id).
    arrival_link: IdTable<usize>,
    events: EventQueue<DeviceEvent>,
    /// Structural bound on pending events (with slack) the sanitizer's
    /// queue check uses.
    event_bound: usize,
    refresh_multiplier: u32,
    refreshes: u64,
    data_read_bytes: u64,
    data_write_bytes: u64,
    /// Routed requests whose id was already in flight (host
    /// retransmissions overtaking their originals).
    duplicate_requests: u64,
    /// Completed responses dropped because an earlier copy answered.
    dropped_responses: u64,
    /// Reusable buffer for the bank accesses one vault pump starts.
    started_ops: Vec<StartedOp>,
    now: Time,
    tracer: Tracer,
    sanitizer: Sanitizer,
}

impl HmcDevice {
    /// Builds an idle device from its configuration.
    pub fn new(cfg: MemConfig) -> Self {
        let n_vaults = cfg.spec.num_vaults() as usize;
        let n_links = cfg.links.num_links() as usize;
        let links = (0..n_links)
            .map(|l| DeviceLink::with_seed(cfg.links, cfg.link_layer, cfg.link_seed ^ l as u64))
            .collect();
        let vaults = (0..n_vaults)
            .map(|v| Vault::new(u16::try_from(v).expect("vault index fits u16"), &cfg))
            .collect();
        let xbar = Xbar::new(cfg.xbar, &cfg.spec, &cfg.links);
        // Bound pending events by what can be in flight at once: each
        // vault-FIFO slot, each link-ingress slot, and one refresh per
        // vault own at most one scheduled event each.
        let event_capacity = n_vaults * (cfg.vault.input_fifo_depth + 1)
            + n_links * (cfg.link_layer.ingress_queue_depth + cfg.link_layer.write_buffer_depth)
            + 64;
        // Queue-bound invariant: the capacity accounting above, plus one
        // possible ResponseAtLink per bank and per reserved
        // vault slot, plus slack — exceeding this means an event leak.
        let event_bound = event_capacity
            + cfg.spec.total_banks() as usize
            + n_vaults * cfg.vault.input_fifo_depth
            + 64;
        let mut events = EventQueue::with_capacity(event_capacity);
        if cfg.refresh.enabled {
            // Stagger vault refreshes across the interval (none at t = 0,
            // so cold-start accesses are not refresh-delayed).
            let step = cfg.refresh.interval / n_vaults as u64;
            for v in 0..n_vaults {
                events.push(
                    Time::ZERO + step * (v as u64 + 1),
                    DeviceEvent::Refresh {
                        vault: u16::try_from(v).expect("vault index fits u16"),
                    },
                );
            }
        }
        HmcDevice {
            store: cfg.track_data.then(SparseStore::new),
            links,
            vaults,
            vault_reserved: vec![0; n_vaults],
            wake_at: vec![None; n_vaults],
            wake_seq: vec![0; n_vaults],
            xbar,
            write_buf_used: 0,
            drain_free_at: Time::ZERO,
            drained_waiting: VecDeque::new(),
            arrival_link: IdTable::new(),
            events,
            event_bound,
            refresh_multiplier: 1,
            refreshes: 0,
            data_read_bytes: 0,
            data_write_bytes: 0,
            duplicate_requests: 0,
            dropped_responses: 0,
            started_ops: Vec::new(),
            now: Time::ZERO,
            tracer: Tracer::new(&Stage::NAMES),
            sanitizer: Sanitizer::new(),
            cfg,
        }
    }

    /// The device configuration.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// True if link `link` has an ingress credit for another request.
    pub fn can_accept(&self, link: usize) -> bool {
        self.links[link].can_accept()
    }

    /// Free ingress credits on `link` (the window the host flow control
    /// sees).
    pub fn ingress_free(&self, link: usize) -> usize {
        self.links[link].ingress_free()
    }

    /// Submits a request packet that finished crossing the wire onto link
    /// `link` at `now`.
    ///
    /// # Errors
    ///
    /// Hands the request back if the link's ingress buffer is full; callers
    /// should gate on [`can_accept`](HmcDevice::can_accept).
    pub fn submit(
        &mut self,
        link: usize,
        req: MemoryRequest,
        now: Time,
    ) -> Result<(), MemoryRequest> {
        debug_assert!(now >= self.now, "submit in the past");
        self.links[link].enqueue_ingress(req, now)?;
        // A request accepted into the ingress window holds one credit
        // until ingress processing pops it (see kick_ingress).
        self.sanitizer.credit_acquire(link, now);
        self.tracer.begin(req.trace_id(), now);
        self.kick_ingress(link, now);
        Ok(())
    }

    /// Earliest pending internal event, if any.
    #[inline]
    pub fn next_time(&self) -> Option<Time> {
        self.events.peek_time()
    }

    /// The device's local clock (the time of the last processed event).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Pending internal events (diagnostics).
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    /// Processes every internal event scheduled at or before `until`,
    /// appending responses that left the device to `out`.
    pub fn advance(&mut self, until: Time, out: &mut Vec<DeviceOutput>) {
        self.sanitizer.check_queue_bound(
            "device events",
            self.events.len(),
            self.event_bound,
            until,
        );
        while let Some((t, ev)) = self.events.pop_before(until) {
            self.sanitizer.check_event_time(t);
            self.now = self.now.max(t);
            self.handle(ev, t, out);
        }
        self.now = self.now.max(until);
    }

    /// Total device events processed since construction.
    pub fn events_processed(&self) -> u64 {
        self.events.total_popped()
    }

    /// Current refresh-rate multiplier (≥ 1; 2 in the high-temperature
    /// regime).
    pub fn refresh_multiplier(&self) -> u32 {
        self.refresh_multiplier
    }

    /// Sets the refresh-rate multiplier — the thermal model raises it when
    /// the junction runs hot.
    pub fn set_refresh_multiplier(&mut self, m: u32) {
        self.refresh_multiplier = m.max(1);
    }

    /// Wipes the backing store, modelling the data loss of a thermal
    /// shutdown.
    pub fn wipe_data(&mut self) {
        if let Some(s) = &mut self.store {
            s.wipe();
        }
    }

    /// Schedules a device-level fault from a fault scenario as an
    /// ordinary simulation event at `at`. Thermal spikes are
    /// system-level (the thermal model and recovery sequence live above
    /// the device) and are ignored here.
    pub fn schedule_fault(&mut self, at: Time, kind: FaultKind) {
        let ev = match kind {
            FaultKind::FlitCorruption { link, ber } => DeviceEvent::FaultBer { link, ber },
            FaultKind::CreditLeak { link, count } => DeviceEvent::FaultLeak { link, count },
            FaultKind::LinkStall { link, duration } => DeviceEvent::FaultStall { link, duration },
            FaultKind::VaultWedge { vault, duration } => DeviceEvent::FaultWedge {
                vault: u16::try_from(vault).expect("vault index fits u16"),
                duration,
            },
            FaultKind::ThermalSpike { .. } => return,
        };
        self.events.push(at, ev);
    }

    /// Thermal shutdown: drops every in-flight request, queued packet,
    /// pending event, and the DRAM contents, then re-initializes the
    /// device so it resumes service at `resume`. Traffic counters, the
    /// lifecycle tracer, and the sanitizer survive; ingress credits held
    /// by dropped requests are forgotten (the host replays from its own
    /// in-flight window).
    pub fn reset_after_shutdown(&mut self, resume: Time) {
        self.events.clear();
        for l in &mut self.links {
            l.reset_transport(resume);
        }
        self.sanitizer.credit_forget_all();
        for v in 0..self.vaults.len() {
            self.vaults[v].reset_state(resume);
            self.vault_reserved[v] = 0;
            self.wake_at[v] = None;
        }
        self.write_buf_used = 0;
        self.drain_free_at = resume;
        self.drained_waiting.clear();
        self.arrival_link.clear();
        self.wipe_data();
        if self.cfg.refresh.enabled {
            let n_vaults = self.vaults.len();
            let step = self.cfg.refresh.interval / n_vaults as u64;
            for v in 0..n_vaults {
                self.events.push(
                    resume + step * (v as u64 + 1),
                    DeviceEvent::Refresh {
                        vault: u16::try_from(v).expect("vault index fits u16"),
                    },
                );
            }
        }
        self.now = self.now.max(resume);
    }

    /// Read-only access to the backing store (when `track_data` is on).
    pub fn store(&self) -> Option<&SparseStore> {
        self.store.as_ref()
    }

    /// Requests currently queued inside vault `v` (input FIFO + bank
    /// queues).
    pub fn vault_queued(&self, v: usize) -> usize {
        self.vaults[v].queued()
    }

    /// Requests queued across all vaults.
    pub fn total_queued(&self) -> usize {
        self.vaults.iter().map(|v| v.queued()).sum()
    }

    /// Aggregated activity counters.
    pub fn stats(&self) -> DeviceStats {
        let mut s = DeviceStats {
            refreshes: self.refreshes,
            data_read_bytes: self.data_read_bytes,
            data_write_bytes: self.data_write_bytes,
            duplicate_requests: self.duplicate_requests,
            dropped_responses: self.dropped_responses,
            ..DeviceStats::default()
        };
        for v in &self.vaults {
            let vs = v.stats();
            s.reads_completed += vs.reads;
            s.writes_completed += vs.writes;
            s.bank_activations += v.activations();
            s.row_hits += v.row_hits();
        }
        for l in &self.links {
            let ls = l.stats();
            s.bytes_up += ls.bytes_up;
            s.bytes_down += ls.bytes_down;
            s.link_retries += ls.retries;
            s.link_stalls += ls.stall_events;
            s.credits_leaked += ls.leaked_credits;
        }
        let xs = self.xbar.stats();
        s.local_hops = xs.local_hops;
        s.remote_hops = xs.remote_hops;
        s
    }

    /// The device-side lifecycle tracer (disabled unless
    /// [`tracer_mut`](HmcDevice::tracer_mut) enabled it).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Mutable tracer access (enable tracing before submitting work).
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Arms the protocol sanitizer: the per-bank DRAM timing FSM (only
    /// under the closed-page policy — open-page row hits legally undercut
    /// the closed-page floor), the per-link ingress credit ledger, and the
    /// event-order/queue-bound checks. Enable before submitting work.
    pub fn enable_sanitizer(&mut self) {
        let floor = match self.cfg.page_policy {
            PagePolicy::ClosedPage => Some(self.cfg.spec.timing_floor()),
            PagePolicy::OpenPage => None,
        };
        self.sanitizer.enable(floor);
        let pools = vec![self.cfg.link_layer.ingress_queue_depth; self.links.len()];
        self.sanitizer.set_credit_pools(&pools);
    }

    /// The device-side sanitizer (disabled unless
    /// [`enable_sanitizer`](HmcDevice::enable_sanitizer) armed it).
    pub fn sanitizer(&self) -> &Sanitizer {
        &self.sanitizer
    }

    /// Mutable sanitizer access (drain checks, watchdog reporting).
    pub fn sanitizer_mut(&mut self) -> &mut Sanitizer {
        &mut self.sanitizer
    }

    /// Deterministic snapshot of the device's internal occupancies — the
    /// body of the watchdog's diagnostic dump.
    pub fn diagnostic_dump(&self, at: Time) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        writeln!(s, "device @ {at}: {} pending events", self.events.len())
            .expect("writing to a String cannot fail");
        for (l, link) in self.links.iter().enumerate() {
            writeln!(
                s,
                "  link {l}: ingress_free={} ingress_backlog={} egress_backlog={} blocked={}",
                link.ingress_free(),
                link.ingress_backlog(),
                link.egress_backlog(),
                link.blocked_request().is_some(),
            )
            .expect("writing to a String cannot fail");
        }
        writeln!(
            s,
            "  write_buf={}/{} drained_waiting={}",
            self.write_buf_used,
            self.cfg.link_layer.write_buffer_depth,
            self.drained_waiting.len()
        )
        .expect("writing to a String cannot fail");
        for (v, vault) in self.vaults.iter().enumerate() {
            let queued = vault.queued();
            if queued == 0 && self.vault_reserved[v] == 0 {
                continue;
            }
            writeln!(
                s,
                "  vault {v}: queued={queued} reserved={} busy_banks={} next_ready={}",
                self.vault_reserved[v],
                vault.busy_banks(at),
                vault
                    .next_bank_ready()
                    .map_or("-".to_string(), |t| t.to_string()),
            )
            .expect("writing to a String cannot fail");
        }
        s
    }

    /// Records the device's gauges into a metrics sampler at instant
    /// `at`: vault queue depth, posted-write buffer fill, busy banks,
    /// the link-level ingress-credit / egress-backlog levels, and the
    /// fault-plane counters (retries, stall windows, leaked credits).
    pub fn sample_metrics(&self, at: Time, s: &mut MetricsSampler) {
        s.record("device.vault_queued", at, self.total_queued() as f64);
        s.record("device.write_buf", at, self.write_buf_used as f64);
        let busy: usize = self.vaults.iter().map(|v| v.busy_banks(at)).sum();
        s.record("device.busy_banks", at, busy as f64);
        let credits: usize = self.links.iter().map(|l| l.ingress_free()).sum();
        s.record("device.ingress_credits", at, credits as f64);
        let egress: usize = self.links.iter().map(|l| l.egress_backlog()).sum();
        s.record("device.egress_backlog", at, egress as f64);
        let retries: u64 = self.links.iter().map(|l| l.stats().retries).sum();
        s.record("device.link_retries", at, retries as f64);
        let stalls: u64 = self.links.iter().map(|l| l.stats().stall_events).sum();
        s.record("device.link_stalls", at, stalls as f64);
        let leaked: u64 = self.links.iter().map(|l| l.stats().leaked_credits).sum();
        s.record("device.credits_leaked", at, leaked as f64);
    }

    // ------------------------------------------------------------------
    // internals
    // ------------------------------------------------------------------

    fn handle(&mut self, ev: DeviceEvent, now: Time, out: &mut Vec<DeviceOutput>) {
        match ev {
            DeviceEvent::IngressAttempt { link } => match self.links[link].complete_ingress(now) {
                Transfer::Retry {
                    next_done,
                    id,
                    failures,
                } => {
                    // Close the normal ingress span at the first CRC
                    // failure; everything after is the retry stage.
                    if failures == 1 {
                        self.tracer.transition(id, Stage::LinkIngress.index(), now);
                    }
                    self.events
                        .push(next_done, DeviceEvent::IngressAttempt { link });
                }
                Transfer::Delivered {
                    payload: req,
                    retried,
                } => {
                    let stage = if retried {
                        Stage::LinkRetry
                    } else {
                        Stage::LinkIngress
                    };
                    self.tracer.transition(req.trace_id(), stage.index(), now);
                    let accepted = match req.op {
                        OpKind::Read => self.route_request(link, req, now),
                        OpKind::Write => self.try_drain(link, req, now),
                    };
                    if accepted {
                        self.links[link].finish_ingress();
                        self.kick_ingress(link, now);
                    } else {
                        self.links[link].block_head(req);
                    }
                }
            },
            DeviceEvent::VaultArrive { vault, req } => {
                self.tracer
                    .transition(req.trace_id(), Stage::XbarReq.index(), now);
                self.vaults[vault as usize]
                    .accept(req, now)
                    .expect("input FIFO slot was reserved");
                self.pump_vault(vault as usize, now, out);
            }
            DeviceEvent::BankWake { vault, seq } => {
                if seq != self.wake_seq[vault as usize] {
                    return; // superseded
                }
                self.wake_at[vault as usize] = None;
                self.pump_vault(vault as usize, now, out);
            }
            DeviceEvent::ResponseAtLink { link, pkt } => {
                self.tracer
                    .transition(pkt.req.trace_id(), Stage::XbarResp.index(), now);
                self.links[link].push_egress(pkt);
                self.kick_egress(link, now);
            }
            DeviceEvent::EgressAttempt { link } => match self.links[link].complete_egress(now) {
                Transfer::Retry {
                    next_done,
                    id,
                    failures,
                } => {
                    if failures == 1 {
                        self.tracer.transition(id, Stage::LinkEgress.index(), now);
                    }
                    self.events
                        .push(next_done, DeviceEvent::EgressAttempt { link });
                }
                Transfer::Delivered {
                    payload: pkt,
                    retried,
                } => {
                    self.links[link].finish_egress();
                    let stage = if retried {
                        Stage::LinkRetry
                    } else {
                        Stage::LinkEgress
                    };
                    self.tracer.finish(pkt.req.trace_id(), stage.index(), now);
                    out.push(DeviceOutput {
                        resp: pkt.req.respond(now, pkt.token),
                        link,
                        at: now,
                    });
                    self.kick_egress(link, now);
                }
            },
            DeviceEvent::WriteDrained { link, req } => {
                self.tracer
                    .transition(req.trace_id(), Stage::WriteDrain.index(), now);
                // The buffer slot stays held until the write lands in its
                // vault's input FIFO — otherwise the posted-write path
                // would admit writes far faster than a congested vault
                // drains them, breaking flow control.
                if self.route_request(link, req, now) {
                    self.write_buf_used -= 1;
                    self.unblock_drain_waiters(now);
                } else {
                    self.drained_waiting.push_back((link, req));
                }
            }
            DeviceEvent::Refresh { vault } => {
                let v = vault as usize;
                self.vaults[v].hold_all(now + self.cfg.refresh.duration);
                self.refreshes += 1;
                let next = now + self.cfg.refresh.interval / self.refresh_multiplier as u64;
                self.events.push(next, DeviceEvent::Refresh { vault });
                self.arm_wake(v, now);
            }
            DeviceEvent::FaultBer { link, ber } => {
                self.links[link].set_bit_error_rate(ber);
            }
            DeviceEvent::FaultLeak { link, count } => {
                self.links[link].leak_credits(count);
            }
            DeviceEvent::FaultStall { link, duration } => {
                let until = now + duration;
                self.links[link].stall_until(until);
                self.events.push(until, DeviceEvent::LinkWake { link });
            }
            DeviceEvent::LinkWake { link } => {
                self.kick_ingress(link, now);
                self.kick_egress(link, now);
            }
            DeviceEvent::FaultWedge { vault, duration } => {
                let v = vault as usize;
                self.vaults[v].hold_all(now + duration);
                self.arm_wake(v, now);
            }
        }
    }

    /// Starts ingress processing on `link` if it is idle and has queued
    /// packets.
    fn kick_ingress(&mut self, link: usize, now: Time) {
        if let Some(done) = self.links[link].start_ingress(now) {
            self.sanitizer.credit_release(link, now);
            self.events.push(done, DeviceEvent::IngressAttempt { link });
        }
    }

    fn kick_egress(&mut self, link: usize, now: Time) {
        if let Some(done) = self.links[link].start_egress(now) {
            self.events.push(done, DeviceEvent::EgressAttempt { link });
        }
    }

    /// Admits a posted write into the shared write buffer; returns false
    /// when the buffer is full (the link must stall).
    fn try_drain(&mut self, link: usize, req: MemoryRequest, now: Time) -> bool {
        if self.write_buf_used >= self.cfg.link_layer.write_buffer_depth {
            return false;
        }
        self.write_buf_used += 1;
        self.tracer
            .transition(req.trace_id(), Stage::WriteStall.index(), now);
        let payload_ps =
            req.size.bytes() * 1_000_000_000_000 / self.cfg.link_layer.write_drain_bytes_per_sec;
        let end = now.max(self.drain_free_at) + TimeDelta::from_ps(payload_ps);
        self.drain_free_at = end;
        self.events
            .push(end, DeviceEvent::WriteDrained { link, req });
        true
    }

    /// Re-admits writes stalled at link heads now that buffer slots
    /// freed.
    fn unblock_drain_waiters(&mut self, now: Time) {
        for l in 0..self.links.len() {
            if self.write_buf_used >= self.cfg.link_layer.write_buffer_depth {
                break;
            }
            let is_write = self.links[l]
                .blocked_request()
                .is_some_and(|r| r.op == OpKind::Write);
            if !is_write {
                continue;
            }
            let req = self.links[l].take_blocked().expect("checked blocked");
            let admitted = self.try_drain(l, req, now);
            debug_assert!(admitted, "buffer slot was free");
            self.kick_ingress(l, now);
        }
    }

    /// Reserves a vault slot and schedules delivery; returns false if the
    /// target vault has no free slot.
    fn route_request(&mut self, link: usize, req: MemoryRequest, now: Time) -> bool {
        let loc = self.cfg.mapping.decode(req.addr, &self.cfg.spec);
        let v = loc.vault.index() as usize;
        if self.vault_reserved[v] >= self.cfg.vault.input_fifo_depth {
            return false;
        }
        self.vault_reserved[v] += 1;
        if self.arrival_link.insert(req.id.value(), link).is_some() {
            // A host retransmission overtook its original (the first
            // copy is still in flight): remember the newer arrival link
            // and count the duplicate. Whichever copy completes first
            // answers; the other's response is dropped in pump_vault.
            self.duplicate_requests += 1;
        }
        self.tracer
            .transition(req.trace_id(), Stage::VaultStall.index(), now);
        let delay = self.xbar.delay(link, loc.vault.index()) + self.cfg.xbar.ingress_latency;
        self.events.push(
            now + delay,
            DeviceEvent::VaultArrive {
                vault: loc.vault.index(),
                req,
            },
        );
        true
    }

    /// Drains the vault's input FIFO, starts every ready bank, routes the
    /// produced responses, releases link stalls, and re-arms the vault's
    /// wake event.
    fn pump_vault(&mut self, v: usize, now: Time, _out: &mut [DeviceOutput]) {
        let mut freed = 0;
        let mut started = std::mem::take(&mut self.started_ops);
        loop {
            let moved = self.vaults[v].drain_input(now);
            freed += moved;
            let before = started.len();
            self.vaults[v].start_ready_checked(now, &mut started, &mut self.sanitizer);
            if moved == 0 && started.len() == before {
                break;
            }
        }
        self.vault_reserved[v] -= freed;
        for op in started.drain(..) {
            if self.tracer.is_enabled() {
                // The bank access starts at the pump instant and the
                // vault has already committed its completion time.
                let id = op.req.trace_id();
                self.tracer.transition(id, Stage::VaultQueue.index(), now);
                self.tracer
                    .transition(id, Stage::Dram.index(), op.response_at);
            }
            let token = match op.req.op {
                OpKind::Read => {
                    self.data_read_bytes += op.req.size.bytes();
                    self.store.as_mut().map_or(0, |s| s.read(op.req.addr))
                }
                OpKind::Write => {
                    self.data_write_bytes += op.req.size.bytes();
                    if let Some(s) = &mut self.store {
                        s.write(op.req.addr, op.req.size.bytes(), op.req.data_token);
                    }
                    0
                }
            };
            let Some(link) = self.arrival_link.remove(op.req.id.value()) else {
                // The second copy of a duplicated request: an earlier
                // copy already consumed the routing entry and will (or
                // did) answer the host. Absorb this response.
                self.dropped_responses += 1;
                continue;
            };
            let delay = self.xbar.delay(link, self.vaults[v].id()) + self.cfg.xbar.egress_latency;
            self.events.push(
                op.response_at + delay,
                DeviceEvent::ResponseAtLink {
                    link,
                    pkt: OutPacket { req: op.req, token },
                },
            );
        }
        self.started_ops = started;
        if freed > 0 {
            self.release_stalls(v, now);
        }
        self.arm_wake(v, now);
    }

    /// Re-tries work stalled on vault `v` now that slots freed up:
    /// drained writes first (they are oldest), then links whose head read
    /// is blocked on this vault.
    fn release_stalls(&mut self, v: usize, now: Time) {
        let mut i = 0;
        while i < self.drained_waiting.len() {
            if self.vault_reserved[v] >= self.cfg.vault.input_fifo_depth {
                return;
            }
            let targets_v = {
                let (_, req) = &self.drained_waiting[i];
                let loc = self.cfg.mapping.decode(req.addr, &self.cfg.spec);
                loc.vault.index() as usize == v
            };
            if targets_v {
                let (link, req) = self.drained_waiting.remove(i).expect("index valid");
                let routed = self.route_request(link, req, now);
                debug_assert!(routed, "slot was free");
                self.write_buf_used -= 1;
                self.unblock_drain_waiters(now);
            } else {
                i += 1;
            }
        }
        for link in 0..self.links.len() {
            if self.vault_reserved[v] >= self.cfg.vault.input_fifo_depth {
                break;
            }
            let targets_v = self.links[link].blocked_request().is_some_and(|req| {
                req.op == OpKind::Read && {
                    let loc = self.cfg.mapping.decode(req.addr, &self.cfg.spec);
                    loc.vault.index() as usize == v
                }
            });
            if !targets_v {
                continue;
            }
            let req = self.links[link].take_blocked().expect("checked blocked");
            let routed = self.route_request(link, req, now);
            debug_assert!(routed, "slot was free");
            self.kick_ingress(link, now);
        }
    }

    /// Arms the vault's single live dispatch opportunity. A live wake
    /// firing at or before the needed time is left alone; an earlier need
    /// supersedes it via the sequence number.
    fn arm_wake(&mut self, v: usize, now: Time) {
        if self.vaults[v].queued() == 0 {
            return;
        }
        let Some(t) = self.vaults[v].next_bank_ready() else {
            return;
        };
        // Guard against same-instant rescheduling loops.
        let t = t.max(now + TimeDelta::from_ps(1));
        if let Some(w) = self.wake_at[v] {
            if w <= t {
                return;
            }
        }
        self.wake_seq[v] += 1;
        self.wake_at[v] = Some(t);
        self.events.push(
            t,
            DeviceEvent::BankWake {
                vault: u16::try_from(v).expect("vault index fits u16"),
                seq: self.wake_seq[v],
            },
        );
    }
}

/// The HMC device behind the pluggable-backend seam. Every method
/// delegates to the inherent implementation above, so a `System<HmcDevice>`
/// driven through the trait is bit-identical to one calling the inherent
/// API directly.
impl mem_backend::MemoryBackend for HmcDevice {
    fn label(&self) -> &'static str {
        match self.cfg.spec.version() {
            hmc_types::HmcVersion::Gen3 => "hmc-gen3",
            _ => "hmc",
        }
    }

    fn num_links(&self) -> usize {
        self.links.len()
    }

    fn address_layout(&self) -> mem_backend::AddressLayout {
        mem_backend::AddressLayout::of_mapping(
            "hmc-low-interleave",
            self.cfg.mapping,
            &self.cfg.spec,
        )
    }

    fn can_accept(&self, link: usize) -> bool {
        HmcDevice::can_accept(self, link)
    }

    fn free_slots(&self, link: usize) -> usize {
        self.ingress_free(link)
    }

    fn submit(&mut self, link: usize, req: MemoryRequest, now: Time) -> Result<(), MemoryRequest> {
        HmcDevice::submit(self, link, req, now)
    }

    #[inline]
    fn next_time(&self) -> Option<Time> {
        HmcDevice::next_time(self)
    }

    fn now(&self) -> Time {
        HmcDevice::now(self)
    }

    fn pending_events(&self) -> usize {
        HmcDevice::pending_events(self)
    }

    fn advance(&mut self, until: Time, out: &mut Vec<DeviceOutput>) {
        HmcDevice::advance(self, until, out);
    }

    fn events_processed(&self) -> u64 {
        HmcDevice::events_processed(self)
    }

    fn total_queued(&self) -> usize {
        HmcDevice::total_queued(self)
    }

    fn channels_in_flight(&self, now: Time) -> usize {
        self.vaults
            .iter()
            .filter(|v| v.queued() > 0 || v.busy_banks(now) > 0)
            .count()
    }

    fn core_stats(&self) -> mem_backend::CoreStats {
        let s = self.stats();
        mem_backend::CoreStats {
            reads_completed: s.reads_completed,
            writes_completed: s.writes_completed,
            data_read_bytes: s.data_read_bytes,
            data_write_bytes: s.data_write_bytes,
            bytes_up: s.bytes_up,
            bytes_down: s.bytes_down,
        }
    }

    fn sample_metrics(&self, at: Time, s: &mut MetricsSampler) {
        HmcDevice::sample_metrics(self, at, s);
    }

    fn tracer(&self) -> &Tracer {
        HmcDevice::tracer(self)
    }

    fn tracer_mut(&mut self) -> &mut Tracer {
        HmcDevice::tracer_mut(self)
    }

    fn enable_sanitizer(&mut self) {
        HmcDevice::enable_sanitizer(self);
    }

    fn sanitizer(&self) -> &Sanitizer {
        HmcDevice::sanitizer(self)
    }

    fn sanitizer_mut(&mut self) -> &mut Sanitizer {
        HmcDevice::sanitizer_mut(self)
    }

    fn diagnostic_dump(&self, at: Time) -> String {
        HmcDevice::diagnostic_dump(self, at)
    }

    fn schedule_fault(&mut self, at: Time, kind: FaultKind) {
        HmcDevice::schedule_fault(self, at, kind);
    }

    fn reset_after_shutdown(&mut self, resume: Time) {
        HmcDevice::reset_after_shutdown(self, resume);
    }

    fn set_refresh_multiplier(&mut self, m: u32) {
        HmcDevice::set_refresh_multiplier(self, m);
    }

    fn refresh_multiplier(&self) -> u32 {
        HmcDevice::refresh_multiplier(self)
    }

    fn wipe_data(&mut self) {
        HmcDevice::wipe_data(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmc_types::{Address, PortId, RequestId, RequestSize, Tag};

    fn read_req(id: u64, addr: u64, size: u64) -> MemoryRequest {
        MemoryRequest {
            id: RequestId::new(id),
            port: PortId::new(0),
            tag: Tag::new((id % 64) as u16),
            op: OpKind::Read,
            size: RequestSize::new(size).unwrap(),
            cube: hmc_types::CubeId::new(0),
            addr: Address::new(addr),
            issued_at: Time::ZERO,
            data_token: 0,
            tenant: hmc_types::TenantTag::NONE,
        }
    }

    fn write_req(id: u64, addr: u64, size: u64, token: u64) -> MemoryRequest {
        MemoryRequest {
            op: OpKind::Write,
            data_token: token,
            ..read_req(id, addr, size)
        }
    }

    fn run_to_idle(dev: &mut HmcDevice, mut horizon: Time) -> Vec<DeviceOutput> {
        let mut out = Vec::new();
        // Refresh events recur forever, so cap at the horizon.
        dev.advance(horizon, &mut out);
        horizon += TimeDelta::from_us(100);
        dev.advance(horizon, &mut out);
        out
    }

    #[test]
    fn single_read_completes_with_plausible_latency() {
        let mut dev = HmcDevice::new(MemConfig::default());
        dev.submit(0, read_req(0, 0, 128), Time::ZERO).unwrap();
        let out = run_to_idle(&mut dev, Time::from_ps(1_000_000));
        assert_eq!(out.len(), 1);
        let lat = out[0].at.since(Time::ZERO).as_ns_f64();
        // In-cube latency: ingress + xbar + DRAM (50) + beats (16) + xbar +
        // egress + serialization; roughly 100-200 ns.
        assert!((80.0..250.0).contains(&lat), "in-cube latency {lat} ns");
        assert_eq!(dev.stats().reads_completed, 1);
        assert_eq!(dev.stats().bytes_up, 16);
        assert_eq!(dev.stats().bytes_down, 144);
    }

    #[test]
    fn write_then_read_returns_token() {
        let cfg = MemConfig {
            track_data: true,
            ..MemConfig::default()
        };
        let mut dev = HmcDevice::new(cfg);
        dev.submit(0, write_req(0, 0x400, 128, 0xABCD), Time::ZERO)
            .unwrap();
        let out = run_to_idle(&mut dev, Time::from_ps(1_000_000));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].resp.op, OpKind::Write);
        let t1 = dev.now();
        dev.submit(0, read_req(1, 0x400, 128), t1).unwrap();
        let out2 = run_to_idle(&mut dev, t1 + TimeDelta::from_us(1));
        assert_eq!(out2.len(), 1);
        assert_eq!(out2[0].resp.data_token, 0xABCD);
        assert!(dev
            .store()
            .unwrap()
            .verify(Address::new(0x400), 128, 0xABCD));
    }

    #[test]
    fn responses_return_on_arrival_link() {
        let mut dev = HmcDevice::new(MemConfig::default());
        dev.submit(1, read_req(0, 0, 128), Time::ZERO).unwrap();
        let out = run_to_idle(&mut dev, Time::from_ps(1_000_000));
        assert_eq!(out[0].link, 1);
    }

    #[test]
    fn remote_quadrant_access_is_slower() {
        let mut cfg = MemConfig::default();
        cfg.refresh.enabled = false;
        let mut dev = HmcDevice::new(cfg.clone());
        // Vault 0 is local to link 0; vault 8 (quadrant 2) is remote.
        dev.submit(0, read_req(0, 0, 128), Time::ZERO).unwrap();
        let local = run_to_idle(&mut dev, Time::from_ps(1_000_000))[0].at;
        let mut dev2 = HmcDevice::new(cfg);
        dev2.submit(0, read_req(0, 8 << 7, 128), Time::ZERO)
            .unwrap();
        let remote = run_to_idle(&mut dev2, Time::from_ps(1_000_000))[0].at;
        // Two crossings, 8 ns extra each.
        assert_eq!(remote.since(local).as_ns_f64(), 16.0);
        assert_eq!(dev2.stats().remote_hops, 2);
    }

    #[test]
    fn ingress_credits_backpressure() {
        let mut dev = HmcDevice::new(MemConfig::default());
        let mut accepted = 0;
        // Flood link 0 with same-instant submissions.
        for i in 0..100 {
            if dev.can_accept(0) {
                dev.submit(0, read_req(i, (i % 16) << 7, 128), Time::ZERO)
                    .unwrap();
                accepted += 1;
            } else {
                break;
            }
        }
        // The queue holds 32; one more is in flight after the first kick.
        assert!((32..=34).contains(&accepted), "accepted {accepted}");
        assert!(!dev.can_accept(0));
        assert!(dev.submit(0, read_req(999, 0, 128), Time::ZERO).is_err());
    }

    #[test]
    fn all_submitted_requests_eventually_complete() {
        let cfg = MemConfig {
            track_data: false,
            ..MemConfig::default()
        };
        let mut dev = HmcDevice::new(cfg);
        let mut sent = 0u64;
        let mut now = Time::ZERO;
        let mut out = Vec::new();
        let mut rng = sim_engine::SplitMix64::new(42);
        while sent < 2_000 {
            if dev.can_accept((sent % 2) as usize) {
                let addr = rng.next_below(1 << 30) & !0xF;
                let op = if rng.next_f64() < 0.5 {
                    read_req(sent, addr, 64)
                } else {
                    write_req(sent, addr, 64, sent)
                };
                dev.submit((sent % 2) as usize, op, now).unwrap();
                sent += 1;
            } else {
                now = dev.next_time().unwrap_or(now).max(now);
                dev.advance(now, &mut out);
            }
        }
        // Drain.
        for _ in 0..1_000_000 {
            match dev.next_time() {
                Some(t) => {
                    now = t;
                    dev.advance(now, &mut out);
                }
                None => break,
            }
            if out.len() as u64 == sent {
                break;
            }
        }
        assert_eq!(out.len() as u64, sent, "every request answered");
        let s = dev.stats();
        assert_eq!(s.reads_completed + s.writes_completed, sent);
    }

    #[test]
    fn single_bank_flood_exposes_queueing() {
        // All requests to vault 0 / bank 0: the bank serializes at tRC and
        // queues grow; latency of late responses far exceeds the first.
        let mut cfg = MemConfig::default();
        cfg.refresh.enabled = false;
        let mut dev = HmcDevice::new(cfg);
        let mut now = Time::ZERO;
        let mut out = Vec::new();
        let mut sent = 0u64;
        while sent < 300 {
            if dev.can_accept(0) {
                dev.submit(0, read_req(sent, (sent % 512) << 15, 128), now)
                    .unwrap();
                sent += 1;
            } else {
                now = dev.next_time().expect("events pending");
                dev.advance(now, &mut out);
            }
        }
        while out.len() < 300 {
            now = dev.next_time().expect("still draining");
            dev.advance(now, &mut out);
        }
        let first = out.first().unwrap();
        let last = out.last().unwrap();
        let spread = last.at.since(first.at).as_us_f64();
        // 299 accesses x 128 ns ≈ 38 us of serialization.
        assert!(spread > 30.0, "bank serialization spread {spread} us");
    }

    #[test]
    fn refresh_happens_and_multiplier_speeds_it_up() {
        let mut dev = HmcDevice::new(MemConfig::default());
        let mut out = Vec::new();
        dev.advance(Time::from_ps(100_000_000), &mut out); // 100 us
        let base = dev.stats().refreshes;
        assert!(base > 100, "16 vaults / 7.8 us over 100 us: {base}");
        dev.set_refresh_multiplier(2);
        dev.advance(Time::from_ps(200_000_000), &mut out);
        let hot = dev.stats().refreshes - base;
        assert!(
            hot as f64 > base as f64 * 1.7,
            "doubled refresh: {hot} vs {base}"
        );
        assert_eq!(dev.refresh_multiplier(), 2);
    }

    #[test]
    fn stats_accumulate_consistently() {
        let mut dev = HmcDevice::new(MemConfig::default());
        dev.submit(0, read_req(0, 0, 32), Time::ZERO).unwrap();
        dev.submit(0, write_req(1, 128, 32, 7), Time::ZERO).unwrap();
        let out = run_to_idle(&mut dev, Time::from_ps(2_000_000));
        assert_eq!(out.len(), 2);
        let s = dev.stats();
        assert_eq!(s.reads_completed, 1);
        assert_eq!(s.writes_completed, 1);
        assert_eq!(s.data_read_bytes, 32);
        assert_eq!(s.data_write_bytes, 32);
        // Read req 16 B + write req 48 B up; read resp 48 B + write resp
        // 16 B down.
        assert_eq!(s.bytes_up, 64);
        assert_eq!(s.bytes_down, 64);
        assert_eq!(s.link_bytes(), 128);
        assert!(s.bank_activations >= 2);
    }

    // The DDR3-1600 channel device (`crate::ddr`): its device-level
    // checks, kept beside the HMC device's since the DIMM model left its
    // own crate, under the same test paths.
    use crate::{ChannelDevice, DdrConfig, DdrDevice, HbmConfig, HbmDevice};
    use hmc_types::{CubeId, TenantTag};
    use mem_backend::MemoryBackend;

    fn ddr_req(id: u64, addr: u64, op: OpKind) -> MemoryRequest {
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
        let mut dev = DdrDevice::new(DdrConfig::ddr3_1600());
        dev.submit(0, ddr_req(0, 0, OpKind::Read), Time::ZERO)
            .unwrap();
        let mut out = Vec::new();
        dev.advance(Time::from_ps(1_000_000), &mut out);
        assert_eq!(out.len(), 1);
        assert!((out[0].at.as_ns_f64() - 47.5).abs() < 0.1, "{}", out[0].at);
    }

    #[test]
    fn open_page_hits_on_linear_walk() {
        let mut dev = DdrDevice::new(DdrConfig::ddr3_1600());
        let mut out = Vec::new();
        let mut t = Time::ZERO;
        for i in 0..32u64 {
            while !dev.can_accept(0) {
                t += TimeDelta::from_ns(10);
                dev.advance(t, &mut out);
            }
            dev.submit(0, ddr_req(i, i * 64, OpKind::Read), t).unwrap();
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
        let mut dev = DdrDevice::new(DdrConfig::ddr3_1600());
        let mut out = Vec::new();
        for i in 0..16u64 {
            dev.submit(
                (i % 2) as usize,
                ddr_req(i, i * 2048, OpKind::Read),
                Time::ZERO,
            )
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
        let mut cfg = DdrConfig::ddr3_1600();
        cfg.ports.port_queue_depth = 2;
        let mut dev = DdrDevice::new(cfg);
        dev.submit(0, ddr_req(0, 0, OpKind::Read), Time::ZERO)
            .unwrap();
        dev.submit(0, ddr_req(1, 64, OpKind::Read), Time::ZERO)
            .unwrap();
        assert_eq!(dev.free_slots(0), 0);
        assert!(dev
            .submit(0, ddr_req(2, 128, OpKind::Read), Time::ZERO)
            .is_err());
    }

    #[test]
    fn double_run_determinism() {
        let run = || {
            let mut dev = DdrDevice::new(DdrConfig::ddr3_1600());
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
                    dev.submit(port, ddr_req(i, addr, op), t).unwrap();
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
        let mut dev = DdrDevice::new(DdrConfig::ddr3_1600());
        let mut out = Vec::new();
        dev.submit(0, ddr_req(0, 0, OpKind::Read), Time::ZERO)
            .unwrap();
        dev.submit(0, ddr_req(1, 64, OpKind::Read), Time::ZERO)
            .unwrap();
        dev.advance(Time::from_ps(20_000), &mut out);
        let resume = Time::from_ps(1_000_000);
        dev.reset_after_shutdown(resume);
        dev.submit(0, ddr_req(2, 0, OpKind::Read), resume).unwrap();
        dev.advance(Time::from_ps(2_000_000), &mut out);
        assert_eq!(
            out.iter().map(|o| o.resp.id.value()).collect::<Vec<_>>(),
            [2],
            "pending {}",
            dev.pending_events()
        );
    }

    #[test]
    fn channel_devices_serve_again_after_thermal_recovery() {
        // Two reads on one bank leave a wake armed for the second; the
        // shutdown drops it with the event queue. Both presets must then
        // serve two more reads to that bank.
        fn run<M: crate::channels::Channels>(mut dev: ChannelDevice<M>) -> Vec<u64> {
            let mut out = Vec::new();
            dev.submit(0, ddr_req(0, 0, OpKind::Read), Time::ZERO)
                .unwrap();
            dev.submit(0, ddr_req(1, 0, OpKind::Read), Time::ZERO)
                .unwrap();
            dev.advance(Time::from_ps(20_000), &mut out);
            let resume = Time::from_ps(1_000_000);
            dev.reset_after_shutdown(resume);
            dev.submit(0, ddr_req(2, 0, OpKind::Read), resume).unwrap();
            dev.submit(0, ddr_req(3, 0, OpKind::Read), resume).unwrap();
            dev.advance(Time::from_ps(5_000_000), &mut out);
            out.iter().map(|o| o.resp.id.value()).collect()
        }
        assert_eq!(
            run(DdrDevice::new(DdrConfig::ddr3_1600())),
            [2, 3],
            "ddr3-1600"
        );
        assert_eq!(run(HbmDevice::new(HbmConfig::default())), [2, 3], "hbm");
    }

    #[test]
    fn layout_names_bank_bits() {
        let dev = DdrDevice::new(DdrConfig::ddr3_1600());
        let l = dev.address_layout();
        let bank = l.get("bank").expect("bank field");
        assert_eq!((bank.shift, bank.width), (11, 3), "2 KB rows, 8 banks");
    }
}
