//! Layer-isolated microbenchmarks: one public layer call at a time, with
//! no other simulator code around it. Their unit costs, multiplied by the
//! counts a traced window did, say how much of the device's host time the
//! queue, link, vault and crossbar explain.

use std::hint::black_box;
use std::time::Instant;

use hmc_core::hmc_mem::link::{DeviceLink, OutPacket, Transfer};
use hmc_core::hmc_mem::vault::Vault;
use hmc_core::hmc_mem::xbar::Xbar;
use hmc_core::hmc_mem::MemConfig;
use hmc_core::hmc_types::packet::OpKind;
use hmc_core::hmc_types::{
    Address, CubeId, MemoryRequest, PortId, RequestId, RequestSize, Tag, TenantTag, Time, TimeDelta,
};
use hmc_core::sim_engine::{EventQueue, SplitMix64};

/// Repetitions per microbenchmark; the median is reported.
const REPS: usize = 5;

/// Host nanoseconds per unit of work of each layer.
#[derive(Debug, Clone, Copy)]
pub struct UnitCosts {
    /// One event pushed and popped through a loaded `EventQueue`.
    pub queue_ns_per_op: f64,
    /// One packet through a `DeviceLink` (ingress or egress).
    pub link_ns_per_packet: f64,
    /// One bank access through a `Vault`: accept, drain, start.
    pub vault_ns_per_access: f64,
    /// One `Xbar::delay` route.
    pub xbar_ns_per_route: f64,
}

/// Runs every microbenchmark.
pub fn run() -> UnitCosts {
    UnitCosts {
        queue_ns_per_op: median_ns_per(queue, 400_000),
        link_ns_per_packet: median_ns_per(link, 100_000) / 2.0,
        vault_ns_per_access: median_ns_per(vault, 100_000),
        xbar_ns_per_route: median_ns_per(xbar, 2_000_000),
    }
}

/// Median over [`REPS`] runs of `f(n)`'s host time per unit, ns.
fn median_ns_per(f: fn(u64) -> u64, n: u64) -> f64 {
    let mut v: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            black_box(f(black_box(n)));
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    v.sort_by(f64::total_cmp);
    v[REPS / 2]
}

fn request(op: OpKind, addr: u64) -> MemoryRequest {
    MemoryRequest {
        id: RequestId::new(addr),
        port: PortId::new(0),
        tag: Tag::new(0),
        op,
        size: RequestSize::MAX,
        cube: CubeId::new(0),
        addr: Address::new(addr),
        issued_at: Time::ZERO,
        data_token: 0,
        tenant: TenantTag::NONE,
    }
}

/// The hold model: 512 events pending, each pop schedules one event up
/// to 2 µs ahead, as device events mostly are.
fn queue(n: u64) -> u64 {
    let mut q = EventQueue::with_capacity(1024);
    let mut rng = SplitMix64::new(7);
    for i in 0..512 {
        q.push(Time::from_ps(rng.next_below(2_000_000)), i);
    }
    let mut sum = 0u64;
    for _ in 0..n {
        let (t, v) = q.pop().expect("the hold model never empties");
        sum = sum.wrapping_add(v);
        q.push(t + TimeDelta::from_ps(rng.next_below(2_000_000)), v);
    }
    sum
}

/// One request packet in and one response packet out per cycle.
fn link(n: u64) -> u64 {
    let cfg = MemConfig::default();
    let mut l = DeviceLink::new(cfg.links, cfg.link_layer);
    let mut now = Time::ZERO;
    let mut sum = 0u64;
    for i in 0..n {
        let req = request(OpKind::Read, i << 7);
        l.enqueue_ingress(req, now)
            .expect("the ingress queue drains every cycle");
        let done = l.start_ingress(now).expect("the ingress side is idle");
        let Transfer::Delivered { payload, .. } = l.complete_ingress(done) else {
            panic!("a link without injected errors never retries");
        };
        l.finish_ingress();
        l.push_egress(OutPacket {
            req: payload,
            token: 0,
        });
        let sent = l.start_egress(done).expect("the egress side is idle");
        let Transfer::Delivered { payload, .. } = l.complete_egress(sent) else {
            panic!("a link without injected errors never retries");
        };
        l.finish_egress();
        sum = sum.wrapping_add(payload.req.id.value());
        now = sent;
    }
    sum
}

/// Random 128 B reads kept queued on every bank of one vault.
fn vault(n: u64) -> u64 {
    let cfg = MemConfig::default();
    let mut v = Vault::new(0, &cfg);
    let mut rng = SplitMix64::new(11);
    let mut out = Vec::new();
    let mut now = Time::ZERO;
    let mut done = 0u64;
    let mut sum = 0u64;
    while done < n {
        while v.has_input_space() {
            let addr = rng.next_below(1 << 32) & !0x7f;
            v.accept(request(OpKind::Read, addr), now)
                .expect("checked for input space");
        }
        v.drain_input(now);
        out.clear();
        v.start_ready(now, &mut out);
        done += out.len() as u64;
        for op in &out {
            sum = sum.wrapping_add(op.response_at.as_ps());
        }
        now = v
            .next_bank_ready()
            .unwrap_or(now)
            .max(now + TimeDelta::from_ps(1));
    }
    sum
}

/// Routes spread over both links and all 16 vaults.
fn xbar(n: u64) -> u64 {
    let cfg = MemConfig::default();
    let mut x = Xbar::new(cfg.xbar, &cfg.spec, &cfg.links);
    let mut sum = 0u64;
    for i in 0..n {
        let link = (i & 1) as usize;
        let vault = u16::try_from((i >> 1) % 16).expect("vault index below 16");
        sum = sum.wrapping_add(x.delay(black_box(link), black_box(vault)).as_ps());
    }
    sum
}
