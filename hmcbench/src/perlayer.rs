//! `--trace 1`: the per-layer metrics, from runs of their own.
//!
//! Single-cube workloads run an untraced `System` window for a fifth of
//! the run's seconds, then the traced [`Copy`] over the same slices; the
//! copy must reproduce the window exactly. `chain8_poisson` times its
//! chain per slice with the epoch profiler armed (checked bit-inert
//! against an unarmed run) and takes its host-time layer split from a
//! one-cube reference with the same per-shard arrivals.

use std::time::Duration;

use hmc_core::hmc_types::{Stage, Time, TimeDelta};
use hmc_core::sim_engine::pdes::ShardEpochProfile;
use hmc_core::sim_engine::{EpochProfiler, Histogram};
use hmc_core::TraceReport;

use crate::micro::{self, UnitCosts};
use crate::traced::{Copy, Layers};
use crate::workload::{run_slices, Budget, Spec, Window, Workload, TRACE_EVERY, WARMUP};
use crate::Report;

/// Share of the end-to-end budget the untraced per-layer window gets.
const TRACE_SHARE: f64 = 0.2;

/// Simulated window of the modeled-wait pass, after the warm-up.
const STAGE_WINDOW: TimeDelta = TimeDelta::from_us(100);

/// The modeled waits reported as `sim.stage.<name>_ns`.
const STAGES: [Stage; 7] = [
    Stage::TxQueue,
    Stage::LinkTx,
    Stage::LinkIngress,
    Stage::VaultQueue,
    Stage::Dram,
    Stage::LinkEgress,
    Stage::Rx,
];

/// One single-cube traced run.
struct SingleTrace {
    /// The untraced `System` window and its host time.
    window: Window,
    untraced_ns: f64,
    slices: usize,
    /// Layer times of the traced copy over the same slices.
    layers: Layers,
    /// Layer times of a copy with observability disarmed, for workloads
    /// that arm it.
    unarmed: Option<Layers>,
}

fn total_ns(times: &[Duration]) -> f64 {
    times.iter().map(|d| d.as_secs_f64() * 1e9).sum()
}

/// Runs `spec` untraced until `done`, then the traced copy (and, when
/// the spec arms observability, an unarmed copy) over the same slices,
/// checking each copy reproduces the untraced window.
fn trace_single(
    spec: &Spec,
    seed: u64,
    done: impl FnMut(usize, Duration) -> bool,
    rep: &mut Report,
) -> SingleTrace {
    let mut sys = spec.start_single(spec.builder(seed));
    let (window, times) = run_slices(&mut sys, spec.slice, done);
    let n = times.len();
    let copy_run = |armed: bool, what: &str, rep: &mut Report| {
        let mut copy = Copy::start(spec, seed, armed);
        let (w, _) = run_slices(&mut copy, spec.slice, |k, _| k >= n);
        rep.run(what, same(&window, &w));
        copy.layers
    };
    let layers = copy_run(
        spec.observed,
        "traced copy reproduces the untraced window",
        rep,
    );
    let unarmed = spec
        .observed
        .then(|| copy_run(false, "unarmed copy reproduces the armed window", rep));
    SingleTrace {
        window,
        untraced_ns: total_ns(&times),
        slices: n,
        layers,
        unarmed,
    }
}

fn same(a: &Window, b: &Window) -> Result<(), String> {
    let (fa, fb) = (a.fingerprint(), b.fingerprint());
    if fa == fb {
        Ok(())
    } else {
        Err(format!("windows differ:\n  {fa}\n  {fb}"))
    }
}

/// Runs the per-layer measurements of `w` with a share of the end-to-end
/// `budget`.
pub fn run(w: Workload, seed: u64, budget: Budget, rep: &mut Report) {
    let spec = w.spec();
    let budget = budget.scaled(TRACE_SHARE);
    let done = |n, t| budget.done(n, t);
    let costs = micro::run();
    let stages = stage_means(&spec, seed);
    if spec.cubes == 1 {
        let t = trace_single(&spec, seed, done, rep);
        let events_per_s = t.window.events as f64 / t.untraced_ns * 1e9;
        layer_metrics(rep, &t, &t.window, events_per_s, &costs);
        pdes_metrics(rep, None);
        stage_metrics(rep, &stages);
        rep.slices = t.slices;
        return;
    }
    let mut chain = spec.start_chain(spec.builder(seed));
    let (window, times) = run_slices(&mut chain, spec.slice, done);
    let n = times.len();
    let mut armed = spec.start_chain(spec.builder(seed));
    armed.enable_epoch_profiler();
    let (armed_window, _) = run_slices(&mut armed, spec.slice, |k, _| k >= n);
    rep.run("epoch profiler is bit-inert", same(&window, &armed_window));
    let reference = Spec { cubes: 1, ..spec };
    let r = trace_single(&reference, seed, |k, _| k >= n, rep);
    let chain_ns = total_ns(&times);
    let events_per_s = window.events as f64 / chain_ns * 1e9;
    layer_metrics(rep, &r, &window, events_per_s, &costs);
    let profile = armed.epoch_profile().expect("the profiler was armed above");
    let per_event = |ns: f64, events: u64| ns / events.max(1) as f64;
    let vs_1cube = per_event(chain_ns, window.events) / per_event(r.untraced_ns, r.window.events);
    pdes_metrics(rep, Some((profile, chain_ns, vs_1cube)));
    stage_metrics(rep, &stages);
    rep.slices = n;
}

/// Modeled waits per stage, ns: a deterministic pass of its own with
/// lifecycle tracing on.
fn stage_means(spec: &Spec, seed: u64) -> Vec<f64> {
    let b = spec.builder(seed).tracing(TRACE_EVERY);
    let end = Time::ZERO + WARMUP + STAGE_WINDOW;
    let report = if spec.cubes > 1 {
        let mut sys = spec.start_chain(b);
        sys.step_until(end);
        TraceReport::from_chain(&sys)
    } else {
        let mut sys = spec.start_single(b);
        sys.step_until(end);
        TraceReport::from_system(&sys)
    };
    STAGES
        .iter()
        .map(|s| report.stage(*s).mean().as_ns_f64())
        .collect()
}

fn stage_metrics(rep: &mut Report, means: &[f64]) {
    for (s, ns) in STAGES.iter().zip(means) {
        rep.metric(format!("sim.stage.{}_ns", s.name()), *ns, "sim-ns");
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn pct_over(a: f64, b: f64) -> f64 {
    (ratio(a, b) - 1.0) * 100.0
}

/// The host-time layer split of `t`, the counts of `counts` (the same
/// window on one cube; the chain's own window on a chain), and the
/// microbenchmark unit costs.
fn layer_metrics(
    rep: &mut Report,
    t: &SingleTrace,
    counts: &Window,
    events_per_s: f64,
    c: &UnitCosts,
) {
    let l = &t.layers;
    let s = |ns: u64| ns as f64 / 1e9;
    let total = l.total_ns as f64;
    let share = |ns: u64| ratio(ns as f64, total);
    rep.metric("core.pump.instants", l.instants as f64, "count");
    rep.metric(
        "core.pump.events_per_instant",
        ratio(t.window.events as f64, l.instants as f64),
        "events",
    );
    rep.metric("core.pump.self_s", s(l.pump_self_ns()), "s");
    rep.metric("core.pump.share", share(l.pump_self_ns()), "ratio");
    rep.metric("host.tx.calls", l.tx_calls as f64, "count");
    rep.metric("host.tx.self_s", s(l.tx_self_ns()), "s");
    rep.metric(
        "host.tx.ns_per_call",
        ratio(l.tx_self_ns() as f64, l.tx_calls as f64),
        "ns",
    );
    rep.metric("host.tx.share", share(l.tx_self_ns()), "ratio");
    rep.metric("host.rx.responses", l.rx_responses as f64, "count");
    rep.metric("host.rx.self_s", s(l.rx_ns), "s");
    rep.metric(
        "host.rx.ns_per_response",
        ratio(l.rx_ns as f64, l.rx_responses as f64),
        "ns",
    );
    rep.metric("host.credit.calls", l.credit_calls as f64, "count");
    rep.metric("host.credit.self_s", s(l.credit_ns), "s");

    let offered = counts.open_sum(|o| o.offered);
    let shed = counts.open_sum(|o| o.shed_total());
    let mut wait = Histogram::new();
    for (_, o) in &counts.open {
        wait.merge(&o.queue_wait);
    }
    rep.metric("host.admission.offered", offered as f64, "count");
    rep.metric(
        "host.admission.admitted",
        counts.open_sum(|o| o.admitted) as f64,
        "count",
    );
    rep.metric(
        "host.admission.shed_rate",
        counts.open_sum(|o| o.shed_rate) as f64,
        "count",
    );
    rep.metric(
        "host.admission.shed_queue",
        counts.open_sum(|o| o.shed_queue) as f64,
        "count",
    );
    rep.metric(
        "host.admission.shed_deadline",
        counts.open_sum(|o| o.shed_deadline) as f64,
        "count",
    );
    // Useful outcomes over attempts: arrivals the admission layer did
    // not shed. (Window completions can exceed window arrivals by the
    // requests in flight when the window opened.)
    rep.metric(
        "host.admission.goodput_ratio",
        ratio((offered - shed) as f64, offered as f64),
        "ratio",
    );
    rep.metric(
        "host.admission.queue_wait_p99_sim_ns",
        wait.quantile(0.99).map_or(0.0, |d| d.as_ns_f64()),
        "sim-ns",
    );

    rep.metric("mem.submit.calls", l.submit_calls as f64, "count");
    rep.metric("mem.submit.self_s", s(l.submit_ns), "s");
    rep.metric("mem.device.events", l.device_events as f64, "count");
    rep.metric("mem.device.self_s", s(l.device_ns), "s");
    rep.metric(
        "mem.device.ns_per_event",
        ratio(l.device_ns as f64, l.device_events as f64),
        "ns",
    );
    rep.metric("mem.device.share", share(l.device_ns), "ratio");
    let w = &t.window;
    let routes = w.device_sum(|d| d.local_hops + d.remote_hops);
    let explained = l.device_events as f64 * c.queue_ns_per_op
        + 2.0 * w.completed() as f64 * c.link_ns_per_packet
        + w.device_sum(|d| d.reads_completed + d.writes_completed) as f64 * c.vault_ns_per_access
        + routes as f64 * c.xbar_ns_per_route;
    rep.metric(
        "mem.device.residual_pct",
        (1.0 - ratio(explained, l.device_ns as f64)) * 100.0,
        "%",
    );

    rep.metric(
        "mem.link.bytes",
        counts.device_sum(|d| d.link_bytes()) as f64,
        "bytes",
    );
    rep.metric(
        "mem.link.retries",
        counts.device_sum(|d| d.link_retries) as f64,
        "count",
    );
    rep.metric(
        "mem.xbar.remote_ratio",
        ratio(
            counts.device_sum(|d| d.remote_hops) as f64,
            counts.device_sum(|d| d.local_hops + d.remote_hops) as f64,
        ),
        "ratio",
    );
    rep.metric(
        "mem.dram.activations",
        counts.device_sum(|d| d.bank_activations) as f64,
        "count",
    );
    rep.metric(
        "mem.dram.refreshes",
        counts.device_sum(|d| d.refreshes) as f64,
        "count",
    );
    rep.metric("engine.events", counts.events as f64, "count");
    rep.metric("engine.events_per_s", events_per_s, "events/s");
    rep.metric("engine.queue.ns_per_op", c.queue_ns_per_op, "ns");
    rep.metric("mem.link.ns_per_packet", c.link_ns_per_packet, "ns");
    rep.metric("mem.vault.ns_per_access", c.vault_ns_per_access, "ns");
    rep.metric("mem.xbar.ns_per_route", c.xbar_ns_per_route, "ns");

    // Observability cost: the armed copy against an unarmed one; zero
    // where the workload arms nothing.
    let (over, tx_over, dev_over) = match &t.unarmed {
        Some(u) => (
            pct_over(total, u.total_ns as f64),
            pct_over(l.tx_self_ns() as f64, u.tx_self_ns() as f64),
            pct_over(l.device_ns as f64, u.device_ns as f64),
        ),
        None => (0.0, 0.0, 0.0),
    };
    rep.metric("observe.overhead_pct", over, "%");
    rep.metric("observe.host_tx_overhead_pct", tx_over, "%");
    rep.metric("observe.device_overhead_pct", dev_over, "%");
    rep.metric("observe.sample.calls", l.sample_calls as f64, "count");
    rep.metric("observe.sample.self_s", s(l.sample_ns), "s");
    rep.metric("trace.overhead_pct", pct_over(total, t.untraced_ns), "%");
}

/// The epoch-loop metrics of a chain (all zero on one cube, which has no
/// epochs): the profile, the untraced chain window's host time, and its
/// host time per event relative to the one-cube reference.
fn pdes_metrics(rep: &mut Report, chain: Option<(&EpochProfiler, f64, f64)>) {
    let none = EpochProfiler::new(0);
    let (p, chain_ns, vs_1cube) = chain.unwrap_or((&none, 0.0, 0.0));
    let shards = p.shards();
    let sum = |f: fn(&ShardEpochProfile) -> f64| shards.iter().map(f).sum::<f64>();
    let epochs = p.epochs() as f64;
    let windows_ps = p.window_total().as_ps() as f64 * shards.len() as f64;
    rep.metric("pdes.epochs", epochs, "count");
    rep.metric(
        "pdes.events_per_epoch",
        ratio(sum(|s| s.events as f64), epochs),
        "events",
    );
    rep.metric(
        "pdes.busy_epoch_ratio",
        ratio(sum(|s| s.busy_epochs as f64), sum(|s| s.epochs as f64)),
        "ratio",
    );
    rep.metric("pdes.msgs_sent", sum(|s| s.sent as f64), "count");
    rep.metric(
        "pdes.window_util",
        ratio(sum(|s| s.occupied.as_ps() as f64), windows_ps),
        "ratio",
    );
    rep.metric(
        "pdes.parked_sim_ns",
        sum(|s| s.parked.as_ns_f64()),
        "sim-ns",
    );
    rep.metric("pdes.wall_ns_per_epoch", ratio(chain_ns, epochs), "ns");
    rep.metric("pdes.ns_per_event_vs_1cube", vs_1cube, "ratio");
}
