//! The traced run: host time per layer, measured from outside the
//! simulator.
//!
//! `System`'s event pump is private, so [`Copy`] re-drives the same
//! host/device interleaving through public calls only and times each
//! call into a layer. A traced window counts only if it reproduces the
//! untraced `System` window exactly (outputs, device counters and event
//! count), which proves the copy pumps the same simulation.

use std::time::Instant;

use hmc_core::hmc_host::{Host, HostStats, LinkSink, TenantOpenStats};
use hmc_core::hmc_mem::{DeviceOutput, HmcDevice};
use hmc_core::hmc_types::{MemoryRequest, Time};
use hmc_core::mem_backend::MemoryBackend;
use hmc_core::sim_engine::MetricsSampler;

use crate::workload::{Sim, Snapshot, Spec, METRICS_PERIOD, TRACE_EVERY, WARMUP};

/// Host time and call counts per layer of one traced window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layers {
    /// Whole pump: every `step_until` call.
    pub total_ns: u64,
    /// Simulated instants the pump visited.
    pub instants: u64,
    /// `Host::advance_instant` calls and their time (submits included).
    pub tx_calls: u64,
    /// See [`Layers::tx_calls`].
    pub tx_ns: u64,
    /// Requests handed to the device and the time inside those submits.
    pub submit_calls: u64,
    /// See [`Layers::submit_calls`].
    pub submit_ns: u64,
    /// Time in the device's `advance_instant` and the events it ran.
    pub device_ns: u64,
    /// See [`Layers::device_ns`].
    pub device_events: u64,
    /// Responses delivered to the host and the time delivering them.
    pub rx_responses: u64,
    /// See [`Layers::rx_responses`].
    pub rx_ns: u64,
    /// Credit scans of stalled nodes and their time.
    pub credit_calls: u64,
    /// See [`Layers::credit_calls`].
    pub credit_ns: u64,
    /// Gauge-sampling rounds and their time.
    pub sample_calls: u64,
    /// See [`Layers::sample_calls`].
    pub sample_ns: u64,
}

impl Layers {
    /// Pump time outside every timed child call.
    pub fn pump_self_ns(&self) -> u64 {
        self.total_ns.saturating_sub(
            self.tx_ns + self.device_ns + self.rx_ns + self.credit_ns + self.sample_ns,
        )
    }

    /// Host TX time minus the device submits it called.
    pub fn tx_self_ns(&self) -> u64 {
        self.tx_ns.saturating_sub(self.submit_ns)
    }
}

fn ns_between(a: Instant, b: Instant) -> u64 {
    u64::try_from(b.duration_since(a).as_nanos()).unwrap_or(u64::MAX)
}

/// The device as the host's transmit sink, timing each submit.
struct TimedSink<'a> {
    dev: &'a mut HmcDevice,
    calls: u64,
    ns: u64,
}

impl LinkSink for TimedSink<'_> {
    fn free_slots(&self, link: usize) -> usize {
        MemoryBackend::free_slots(self.dev, link)
    }

    fn submit(&mut self, link: usize, req: MemoryRequest, now: Time) -> Result<(), MemoryRequest> {
        let t = Instant::now();
        let r = MemoryBackend::submit(self.dev, link, req, now);
        self.ns += ns_between(t, Instant::now());
        self.calls += 1;
        r
    }
}

/// A single-cube system pumped by the benchmark's own copy of
/// `System::step_events_until`, timing every layer call.
pub struct Copy {
    host: Host,
    dev: HmcDevice,
    sampler: Option<MetricsSampler>,
    outputs: Vec<DeviceOutput>,
    /// The pump's clock: the last instant stepped to, as `System::now`.
    now: Time,
    /// Layer times since the warm-up ended.
    pub layers: Layers,
}

impl Copy {
    /// Builds the spec's system the way `SystemBuilder::build` does —
    /// observability armed when `armed` — starts its traffic and runs the
    /// warm-up. The copy has no forward-progress watchdog, which only
    /// reports and never changes the simulation.
    pub fn start(spec: &Spec, seed: u64, armed: bool) -> Copy {
        let cfg = spec.config(seed);
        let mut host = Host::new(cfg.host);
        let mut dev = HmcDevice::new(cfg.mem);
        let mut sampler = None;
        if armed {
            host.tracer_mut().enable(TRACE_EVERY);
            dev.tracer_mut().enable(TRACE_EVERY);
            sampler = Some(MetricsSampler::new(METRICS_PERIOD));
            host.enable_sanitizer();
            MemoryBackend::enable_sanitizer(&mut dev);
        }
        if let Some(g) = spec.gups() {
            host.apply_workload(&g);
        }
        host.start(Time::ZERO);
        let mut copy = Copy {
            host,
            dev,
            sampler,
            outputs: Vec::new(),
            now: Time::ZERO,
            layers: Layers::default(),
        };
        copy.step_until(Time::ZERO + WARMUP);
        copy.layers = Layers::default();
        copy
    }
}

impl Sim for Copy {
    fn step_until(&mut self, end: Time) {
        let start = Instant::now();
        let links = self.dev.num_links();
        let l = &mut self.layers;
        loop {
            let t = match (self.host.next_time(), MemoryBackend::next_time(&self.dev)) {
                (Some(h), Some(d)) => h.min(d),
                (Some(h), None) => h,
                (None, Some(d)) => d,
                (None, None) => break,
            };
            if t > end {
                break;
            }
            l.instants += 1;
            let t0 = Instant::now();
            let mut sink = TimedSink {
                dev: &mut self.dev,
                calls: 0,
                ns: 0,
            };
            self.host.advance_instant(t, &mut sink);
            let t1 = Instant::now();
            l.tx_calls += 1;
            l.tx_ns += ns_between(t0, t1);
            l.submit_calls += sink.calls;
            l.submit_ns += sink.ns;
            self.outputs.clear();
            let events = MemoryBackend::events_processed(&self.dev);
            MemoryBackend::advance_instant(&mut self.dev, t, &mut self.outputs);
            let t2 = Instant::now();
            l.device_ns += ns_between(t1, t2);
            l.device_events += MemoryBackend::events_processed(&self.dev) - events;
            for o in &self.outputs {
                self.host.receive_response(o.resp, o.at);
            }
            let t3 = Instant::now();
            l.rx_responses += self.outputs.len() as u64;
            l.rx_ns += ns_between(t2, t3);
            if self.host.any_node_stalled() {
                for link in 0..links {
                    let free = MemoryBackend::free_slots(&self.dev, link);
                    if free > 0 {
                        self.host.notify_credit(link, free, t);
                    }
                }
                l.credit_calls += 1;
                l.credit_ns += ns_between(t3, Instant::now());
            }
            if let Some(s) = self.sampler.as_mut() {
                let t4 = Instant::now();
                while let Some(due) = s.due_before(t) {
                    self.host.sample_metrics(due, s);
                    MemoryBackend::sample_metrics(&self.dev, due, s);
                    s.advance();
                    l.sample_calls += 1;
                }
                l.sample_ns += ns_between(t4, Instant::now());
            }
        }
        self.now = self.now.max(end);
        l.total_ns += ns_between(start, Instant::now());
    }

    fn now(&self) -> Time {
        self.now
    }

    fn reset_window(&mut self) {
        self.host.reset_stats();
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot {
            devices: vec![self.dev.stats()],
            events: self.host.events_processed() + MemoryBackend::events_processed(&self.dev),
        }
    }

    fn host_stats(&self) -> HostStats {
        self.host.stats()
    }

    fn open_stats(&self) -> Vec<(String, TenantOpenStats)> {
        crate::workload::tenant_names(self.host.config())
            .zip(self.host.open_stats().iter().cloned())
            .collect()
    }
}
