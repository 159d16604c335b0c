//! One channel-array device for the technologies without a packet link:
//! the HBM stack ([`HbmDevice`](crate::HbmDevice)) and the DDR3 DIMM
//! ([`DdrDevice`](crate::DdrDevice)).
//!
//! Both answer the host through the same front end, written once here:
//! per-port request FIFOs (the credit window the host sees), a fixed
//! front-end latency each request pays before it may route (HBM's PHY
//! crossing, the DIMM controller's overhead), one supersede-by-sequence
//! wake per unit, one pump order (start, re-route the ports if space
//! freed, re-arm), and the response build. What differs is the bank
//! model behind it, a [`Channels`] implementation: HBM's closed-page
//! pseudo-channels (each a [`Vault`](crate::vault::Vault)) with refresh,
//! or the DIMM's open-page banks on one shared bus. Each keeps its own
//! timing; the one order a model still chooses is what an arrival does
//! (HBM pumps its channel at once, a DIMM bank wakes within the instant).

use hmc_types::packet::OpKind;
use hmc_types::{DramTimingFloor, MemoryRequest, MemoryResponse, Time, TimeDelta};
use mem_backend::{AddressLayout, BackendOutput, CoreStats, MemoryBackend};
use sim_engine::{BoundedQueue, EventQueue, IdTable, MetricsSampler, Sanitizer, Tracer};

/// The host-facing ports of a channel-array device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PortConfig {
    /// Host-facing ports; the count mirrors the host's link arrangement.
    pub num_ports: usize,
    /// Request slots per port (the credit window the host sees).
    pub port_queue_depth: usize,
    /// Fixed latency a request pays before it may route to its unit.
    pub latency: TimeDelta,
}

/// The device's events; a unit is whatever a model wakes (an HBM
/// pseudo-channel, a DIMM bank).
#[derive(Debug, Clone)]
enum Event {
    /// A request cleared the front-end latency on `port` and may route.
    Arrive { port: usize },
    /// A unit may be able to start work; only its latest armed wake counts.
    Wake { unit: usize, seq: u64 },
    /// A unit's refresh tick.
    Refresh { unit: usize },
    /// A response leaves toward the host on the port it arrived on.
    Return { port: usize, resp: MemoryResponse },
}

/// A technology's bank model behind the shared front end.
pub trait Channels: std::fmt::Debug + Send + Sized + 'static {
    /// The model's configuration, which also carries its [`PortConfig`].
    type Config;
    /// The backend label.
    const LABEL: &'static str;
    /// Builds the idle model.
    fn new(cfg: Self::Config) -> Self;
    /// The front end the model sits behind.
    fn ports(&self) -> PortConfig;
    /// Units that take wakes.
    fn units(&self) -> usize;
    /// Requests the model can hold (queues and FIFOs).
    fn capacity(&self) -> usize;
    /// The unit a request routes to.
    fn unit_of(&self, req: &MemoryRequest) -> usize;
    /// True if `unit` can take one more request.
    fn has_space(&self, unit: usize) -> bool;
    /// Takes a request into `unit` (space already checked).
    fn accept(&mut self, unit: usize, req: MemoryRequest, now: Time);
    /// When `unit` can next start queued work, if it has any.
    fn next_ready(&self, unit: usize) -> Option<Time>;
    /// Starts the work `unit` can start at `now`, scheduling each
    /// response through [`FrontEnd::start`]. Returns the unit slots
    /// freed for routing.
    fn start(&mut self, fe: &mut FrontEnd, unit: usize, now: Time) -> usize;
    /// What a request that just arrived into `unit` sets in motion: by
    /// default a wake, which fires within the same instant.
    fn on_arrival(&mut self, fe: &mut FrontEnd, unit: usize, now: Time) {
        fe.arm(self, unit, now);
    }
    /// A refresh tick on `unit`; models without refresh never get one.
    fn refresh(&mut self, _fe: &mut FrontEnd, _unit: usize, _now: Time) {}
    /// Schedules the first refresh tick of every unit, counted from
    /// `from`.
    fn schedule_refresh(&self, _fe: &mut FrontEnd, _from: Time) {}
    /// Requests queued inside the model.
    fn queued(&self) -> usize;
    /// Banks busy at `now`.
    fn busy_banks(&self, now: Time) -> usize;
    /// Channels with work queued or in progress at `now`.
    fn channels_in_flight(&self, now: Time) -> usize;
    /// The bank-timing floor the sanitizer checks, if the model has one.
    fn timing_floor(&self) -> Option<DramTimingFloor>;
    /// The address bits the model decodes.
    fn address_layout(&self) -> AddressLayout;
    /// One line per unit with work, for the wedge dump.
    fn dump_units(&self, at: Time, s: &mut String);
    /// Drops all queued work after a shutdown; timing resumes at `resume`.
    fn reset(&mut self, resume: Time);
}

/// The shared front end: port FIFOs, return routing, wakes, the event
/// queue and the counters every model reports the same way.
#[derive(Debug)]
pub struct FrontEnd {
    ports: Vec<BoundedQueue<MemoryRequest>>,
    /// Per-port count of queued requests that cleared the latency.
    eligible: Vec<usize>,
    /// Port each in-flight request arrived on (response routing).
    arrival_port: IdTable<usize>,
    wake_at: Vec<Option<Time>>,
    wake_seq: Vec<u64>,
    events: EventQueue<Event>,
    /// The front-end latency.
    pub(crate) latency: TimeDelta,
    /// Refresh speed-up the thermal model asks for.
    pub(crate) refresh_multiplier: u32,
    /// The protocol checker.
    pub(crate) sanitizer: Sanitizer,
    stats: CoreStats,
}

impl FrontEnd {
    /// Moves eligible requests from a port's head into their units
    /// (head-of-line blocking per port). A request that just arrived
    /// goes through the model's `on_arrival`; a re-routed one arms its
    /// unit's wake.
    fn route<M: Channels>(&mut self, model: &mut M, port: usize, now: Time, arrival: bool) {
        while self.eligible[port] > 0 {
            let Some(req) = self.ports[port].front().copied() else {
                break;
            };
            let unit = model.unit_of(&req);
            if !model.has_space(unit) {
                break;
            }
            let req = self.ports[port].pop(now).expect("front() was Some");
            self.eligible[port] -= 1;
            self.sanitizer.credit_release(port, now);
            model.accept(unit, req, now);
            self.arrival_port.insert(req.id.value(), port);
            if arrival {
                model.on_arrival(self, unit, now);
            } else {
                self.arm(model, unit, now);
            }
        }
    }

    /// Starts what `unit` can start at `now`. Freed space re-routes
    /// every port, since it may unblock any port's head (re-routing
    /// only arms wakes, which keeps re-entry out of the pump); then the
    /// unit re-arms its own wake.
    pub(crate) fn pump<M: Channels>(&mut self, model: &mut M, unit: usize, now: Time) {
        if model.start(self, unit, now) > 0 {
            for port in 0..self.ports.len() {
                self.route(model, port, now, false);
            }
        }
        self.arm(model, unit, now);
    }

    /// Arms a unit's single live wake for when it can next start work:
    /// a later-armed earlier wake supersedes the pending one by
    /// sequence number. A pump leaves every unit with queued work busy
    /// past `now`, so a wake never re-fires within its own instant.
    pub(crate) fn arm<M: Channels>(&mut self, model: &M, unit: usize, now: Time) {
        let Some(t) = model.next_ready(unit).map(|t| t.max(now)) else {
            return;
        };
        if self.wake_at[unit].is_some_and(|w| w <= t) {
            return;
        }
        self.wake_seq[unit] += 1;
        self.wake_at[unit] = Some(t);
        let seq = self.wake_seq[unit];
        self.events.push(t, Event::Wake { unit, seq });
    }

    /// Schedules a refresh tick of `unit` at `at`.
    pub(crate) fn refresh_at(&mut self, at: Time, unit: usize) {
        self.events.push(at, Event::Refresh { unit });
    }

    /// Counts a started access and schedules its response to leave at
    /// `at`.
    pub(crate) fn start(&mut self, req: MemoryRequest, at: Time) {
        match req.op {
            OpKind::Read => {
                self.stats.reads_completed += 1;
                self.stats.data_read_bytes += req.size.bytes();
            }
            OpKind::Write => {
                self.stats.writes_completed += 1;
                self.stats.data_write_bytes += req.size.bytes();
            }
        }
        let port = self
            .arrival_port
            .remove(req.id.value())
            .expect("every routed request recorded its port");
        let resp = req.respond(at, req.data_token);
        self.events.push(at, Event::Return { port, resp });
    }
}

/// A channel-array device: the shared front end over one bank model.
/// Drive it through the [`MemoryBackend`] trait.
#[derive(Debug)]
pub struct ChannelDevice<M> {
    fe: FrontEnd,
    pub(crate) model: M,
    event_bound: usize,
    now: Time,
    tracer: Tracer,
}

impl<M: Channels> ChannelDevice<M> {
    /// Builds an idle device from its configuration.
    pub fn new(cfg: M::Config) -> Self {
        let model = M::new(cfg);
        let ports = model.ports();
        let units = model.units();
        let mut fe = FrontEnd {
            ports: (0..ports.num_ports)
                .map(|_| BoundedQueue::new(ports.port_queue_depth))
                .collect(),
            eligible: vec![0; ports.num_ports],
            arrival_port: IdTable::new(),
            wake_at: vec![None; units],
            wake_seq: vec![0; units],
            events: EventQueue::with_capacity(1024),
            latency: ports.latency,
            refresh_multiplier: 1,
            sanitizer: Sanitizer::new(),
            stats: CoreStats::default(),
        };
        model.schedule_refresh(&mut fe, Time::ZERO);
        // Structural ceiling on pending events: one arrival per port
        // slot, one return per request the model holds, one wake and one
        // refresh tick or in-progress return per unit, with slack.
        let event_bound =
            ports.num_ports * ports.port_queue_depth + model.capacity() + 2 * units + 64;
        ChannelDevice {
            fe,
            model,
            event_bound,
            now: Time::ZERO,
            tracer: Tracer::new(&hmc_types::trace::Stage::NAMES),
        }
    }

    fn handle(&mut self, ev: Event, now: Time, out: &mut Vec<BackendOutput>) {
        let (fe, model) = (&mut self.fe, &mut self.model);
        match ev {
            Event::Arrive { port } => {
                fe.eligible[port] += 1;
                fe.route(model, port, now, true);
            }
            Event::Wake { unit, seq } => {
                if seq != fe.wake_seq[unit] {
                    return; // superseded
                }
                fe.wake_at[unit] = None;
                fe.pump(model, unit, now);
            }
            Event::Refresh { unit } => model.refresh(fe, unit, now),
            Event::Return { port, resp } => out.push(BackendOutput {
                resp,
                link: port,
                at: now,
            }),
        }
    }
}

impl<M: Channels> MemoryBackend for ChannelDevice<M> {
    fn label(&self) -> &'static str {
        M::LABEL
    }

    fn num_links(&self) -> usize {
        self.fe.ports.len()
    }

    fn address_layout(&self) -> AddressLayout {
        self.model.address_layout()
    }

    fn free_slots(&self, link: usize) -> usize {
        self.fe.ports[link].free()
    }

    fn submit(&mut self, link: usize, req: MemoryRequest, now: Time) -> Result<(), MemoryRequest> {
        debug_assert!(now >= self.now, "submit in the past");
        self.fe.ports[link].try_push(req, now)?;
        self.fe.sanitizer.credit_acquire(link, now);
        self.fe
            .events
            .push(now + self.fe.latency, Event::Arrive { port: link });
        Ok(())
    }

    fn next_time(&self) -> Option<Time> {
        self.fe.events.peek_time()
    }

    fn now(&self) -> Time {
        self.now
    }

    fn pending_events(&self) -> usize {
        self.fe.events.len()
    }

    fn advance(&mut self, until: Time, out: &mut Vec<BackendOutput>) {
        self.fe.sanitizer.check_queue_bound(
            "channel events",
            self.fe.events.len(),
            self.event_bound,
            until,
        );
        while let Some((t, ev)) = self.fe.events.pop_before(until) {
            self.fe.sanitizer.check_event_time(t);
            self.now = self.now.max(t);
            self.handle(ev, t, out);
        }
        self.now = self.now.max(until);
    }

    fn events_processed(&self) -> u64 {
        self.fe.events.total_popped()
    }

    fn total_queued(&self) -> usize {
        self.fe.ports.iter().map(BoundedQueue::len).sum::<usize>() + self.model.queued()
    }

    fn channels_in_flight(&self, now: Time) -> usize {
        self.model.channels_in_flight(now)
    }

    fn core_stats(&self) -> CoreStats {
        // No packetization: wire traffic is the payload itself.
        CoreStats {
            bytes_up: self.fe.stats.data_write_bytes,
            bytes_down: self.fe.stats.data_read_bytes,
            ..self.fe.stats
        }
    }

    fn sample_metrics(&self, at: Time, s: &mut MetricsSampler) {
        s.record("device.vault_queued", at, self.total_queued() as f64);
        s.record("device.busy_banks", at, self.model.busy_banks(at) as f64);
        s.record(
            "device.channels_in_flight",
            at,
            self.channels_in_flight(at) as f64,
        );
        let credits: usize = self.fe.ports.iter().map(BoundedQueue::free).sum();
        s.record("device.ingress_credits", at, credits as f64);
    }

    fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    fn enable_sanitizer(&mut self) {
        self.fe.sanitizer.enable(self.model.timing_floor());
        let pools = vec![self.model.ports().port_queue_depth; self.fe.ports.len()];
        self.fe.sanitizer.set_credit_pools(&pools);
    }

    fn sanitizer(&self) -> &Sanitizer {
        &self.fe.sanitizer
    }

    fn sanitizer_mut(&mut self) -> &mut Sanitizer {
        &mut self.fe.sanitizer
    }

    fn diagnostic_dump(&self, at: Time) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        writeln!(
            s,
            "{} @ {at}: {} pending events",
            M::LABEL,
            self.fe.events.len()
        )
        .expect("writing to a String cannot fail");
        for (p, q) in self.fe.ports.iter().enumerate() {
            writeln!(
                s,
                "  port {p}: queued={} eligible={}",
                q.len(),
                self.fe.eligible[p]
            )
            .expect("writing to a String cannot fail");
        }
        self.model.dump_units(at, &mut s);
        s
    }

    fn set_refresh_multiplier(&mut self, m: u32) {
        self.fe.refresh_multiplier = m.max(1);
    }

    fn refresh_multiplier(&self) -> u32 {
        self.fe.refresh_multiplier
    }

    fn reset_after_shutdown(&mut self, resume: Time) {
        self.model.reset(resume);
        let fe = &mut self.fe;
        for q in &mut fe.ports {
            while q.pop(resume).is_some() {}
        }
        fe.eligible.iter_mut().for_each(|e| *e = 0);
        // The wakes die with the event queue; a stale `wake_at` would
        // make `arm` believe one is still pending.
        fe.wake_at.iter_mut().for_each(|w| *w = None);
        fe.arrival_port.clear();
        fe.events.clear();
        fe.sanitizer.credit_forget_all();
        self.model.schedule_refresh(fe, resume);
        self.now = self.now.max(resume);
    }
}
