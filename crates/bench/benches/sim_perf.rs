//! Criterion benchmarks of the simulator itself (not the paper's
//! experiments): how fast the event core, device, and full system run.

use criterion::{criterion_group, criterion_main, Criterion};
use hmc_core::experiments::bandwidth;
use hmc_core::hmc_host::Workload;
use hmc_core::system::{System, SystemConfig};
use hmc_core::MeasureConfig;
use hmc_types::{RequestKind, RequestSize, Time, TimeDelta};
use sim_engine::{exec, EventQueue, SplitMix64};
use std::hint::black_box;

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::with_capacity(1024);
            let mut rng = SplitMix64::new(7);
            for i in 0..10_000u64 {
                q.push(Time::from_ps(rng.next_below(1_000_000)), i);
            }
            let mut sum = 0u64;
            while let Some((_, v)) = q.pop() {
                sum = sum.wrapping_add(v);
            }
            black_box(sum)
        })
    });
    // The hold model: 512 events pending, each pop schedules one event up
    // to 2 µs ahead, as device events mostly are. The 72-byte payload is
    // the size of a host or device event, which carries a whole request.
    c.bench_function("event_queue_hold_u64", |b| {
        b.iter(|| black_box(hold(100_000, |i| i, |v| *v)))
    });
    c.bench_function("event_queue_hold_72B", |b| {
        b.iter(|| black_box(hold(100_000, |i| [i; 9], |v| v[0] ^ v[8])))
    });
}

/// Runs `n` pop-then-push steps of the hold model with payloads built by
/// `make`, folding every popped payload through `fold`.
fn hold<P>(n: u64, make: impl Fn(u64) -> P, fold: impl Fn(&P) -> u64) -> u64 {
    let mut q = EventQueue::with_capacity(1024);
    let mut rng = SplitMix64::new(7);
    for i in 0..512 {
        q.push(Time::from_ps(rng.next_below(2_000_000)), make(i));
    }
    let mut sum = 0u64;
    for _ in 0..n {
        let (t, v) = q.pop().expect("the hold model never empties");
        sum = sum.wrapping_add(fold(&v));
        q.push(t + TimeDelta::from_ps(rng.next_below(2_000_000)), v);
    }
    sum
}

fn bench_full_system(c: &mut Criterion) {
    let mut g = c.benchmark_group("full_system");
    g.sample_size(10);
    g.bench_function("full_scale_ro_128B_50us", |b| {
        b.iter(|| {
            let mut sys = System::new(SystemConfig::default());
            sys.host_mut().apply_workload(&Workload::full_scale(
                RequestKind::ReadOnly,
                RequestSize::MAX,
            ));
            sys.host_mut().start(Time::ZERO);
            sys.run_for(TimeDelta::from_us(50));
            black_box(sys.host().total_issued())
        })
    });
    g.bench_function("full_scale_rw_64B_50us", |b| {
        b.iter(|| {
            let mut sys = System::new(SystemConfig::default());
            sys.host_mut().apply_workload(&Workload::full_scale(
                RequestKind::ReadModifyWrite,
                RequestSize::new(64).expect("valid"),
            ));
            sys.host_mut().start(Time::ZERO);
            sys.run_for(TimeDelta::from_us(50));
            black_box(sys.host().total_issued())
        })
    });
    g.bench_function("single_bank_flood_50us", |b| {
        b.iter(|| {
            let cfg = SystemConfig::default();
            let mask = hmc_core::AccessPattern::Banks(1)
                .mask(cfg.mem.mapping, &cfg.mem.spec)
                .expect("valid");
            let mut sys = System::new(cfg);
            sys.host_mut().apply_workload(&Workload::masked(
                RequestKind::ReadOnly,
                RequestSize::MAX,
                mask,
            ));
            sys.host_mut().start(Time::ZERO);
            sys.run_for(TimeDelta::from_us(50));
            black_box(sys.host().total_issued())
        })
    });
    g.finish();
}

/// Sweep throughput: the Figure 7 grid (27 independent measurement
/// points) through the parallel executor, serial vs. all cores. The
/// ratio of the two is the perf-regression headline for the executor;
/// on a single-core host both report the same time.
fn bench_sweep(c: &mut Criterion) {
    let mc = MeasureConfig {
        warmup: TimeDelta::from_us(20),
        window: TimeDelta::from_us(60),
    };
    let cfg = SystemConfig::default();
    let mut g = c.benchmark_group("sweep_fig7");
    g.sample_size(3);
    g.bench_function("serial", |b| {
        exec::set_threads(1);
        b.iter(|| black_box(bandwidth::figure7(&cfg, &mc).len()));
    });
    g.bench_function("all_cores", |b| {
        exec::set_threads(0);
        b.iter(|| black_box(bandwidth::figure7(&cfg, &mc).len()));
    });
    exec::set_threads(0);
    g.finish();
}

criterion_group!(benches, bench_event_queue, bench_full_system, bench_sweep);
criterion_main!(benches);
