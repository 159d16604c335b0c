//! The DDR baseline comparison and the design-choice ablations DESIGN.md
//! calls out: bank-queue depth (moves the Figure 17 knee), write-drain
//! rate (moves the wo ceiling), and the packet-processing overhead (moves
//! the read ceiling).

use hmc_bench::{bench_mc, print_comparisons, sweep_mc, Comparison};
use hmc_core::experiments::baseline::{baseline_table, compare, random_access_throughput};
use hmc_core::experiments::latency::latency_bandwidth_curve;
use hmc_core::hmc_host::Workload;
use hmc_core::measure::run_measurement;
use hmc_core::{AccessPattern, SystemConfig};
use hmc_types::{RequestKind, RequestSize, TimeDelta};

fn main() {
    let cfg = SystemConfig::default();
    let mc = bench_mc();

    // --- DDR baseline -------------------------------------------------
    let rows: Vec<_> = [16u64, 64, 128]
        .into_iter()
        .map(|b| compare(&cfg, RequestSize::new(b).expect("valid"), &mc))
        .collect();
    println!("{}", baseline_table(&rows));
    let (hmc_rand, ddr_rand) = random_access_throughput(&cfg, &mc);
    println!(
        "Random 128 B read data throughput: HMC {hmc_rand:.1} GB/s vs DDR {ddr_rand:.1} GB/s\n"
    );

    // --- Ablation: bank queue depth ------------------------------------
    println!("## Ablation: per-bank queue depth (4-bank pattern, 128 B)");
    let mut knee_outstanding = Vec::new();
    for depth in [30usize, 60, 120, 240] {
        let mut c = cfg.clone();
        c.mem.vault.bank_queue_depth = depth;
        let curve =
            latency_bandwidth_curve(&c, AccessPattern::Banks(4), RequestSize::MAX, &sweep_mc());
        let o = curve
            .analysis
            .points
            .last()
            .map_or(0.0, |p| p.outstanding());
        println!("  depth {depth:>3}: deepest-sweep outstanding {o:>6.0}");
        knee_outstanding.push(o);
    }

    // --- Ablation: write drain rate ------------------------------------
    println!("\n## Ablation: posted-write drain rate (wo, 128 B, 16 vaults)");
    let mut wo_bw = Vec::new();
    for gbs in [5u64, 10, 20, 40] {
        let mut c = cfg.clone();
        c.mem.link_layer.write_drain_bytes_per_sec = gbs * 1_000_000_000;
        let m = run_measurement(
            &c,
            &Workload::full_scale(RequestKind::WriteOnly, RequestSize::MAX),
            &mc,
        );
        println!(
            "  drain {gbs:>2} GB/s: wo counted bandwidth {:>5.1} GB/s",
            m.bandwidth_gbs
        );
        wo_bw.push(m.bandwidth_gbs);
    }

    // --- Ablation: packet-processing overhead --------------------------
    println!("\n## Ablation: link packet-processing overhead (ro, 128 B)");
    let mut ro_bw = Vec::new();
    for ns in [0u64, 4, 7, 12] {
        let mut c = cfg.clone();
        c.mem.link_layer.packet_overhead = TimeDelta::from_ns(ns);
        let m = run_measurement(
            &c,
            &Workload::full_scale(RequestKind::ReadOnly, RequestSize::MAX),
            &mc,
        );
        println!(
            "  overhead {ns:>2} ns: ro counted bandwidth {:>5.1} GB/s",
            m.bandwidth_gbs
        );
        ro_bw.push(m.bandwidth_gbs);
    }

    let c128 = &rows[2];
    print_comparisons(
        "Baseline & ablations",
        &[
            Comparison::range(
                "HMC unloaded latency over DDR, same host",
                "packet interface costs latency",
                c128.hmc_unloaded_ns / c128.ddr_unloaded_ns,
                "x",
                1.05,
                3.0,
            ),
            Comparison::range(
                "HMC in-cube share over DDR in-device share",
                "≈2x a typical DRAM access",
                c128.hmc_in_cube_ns / c128.ddr_in_device_ns,
                "x",
                1.0,
                6.0,
            ),
            Comparison::range(
                "HMC / DDR loaded bandwidth (128 B reads)",
                "HMC wins on concurrency",
                c128.hmc_bandwidth_gbs / c128.ddr_bandwidth_gbs,
                "x",
                1.05,
                4.0,
            ),
            Comparison::range(
                "bank-queue depth doubles -> outstanding grows",
                "knee position tracks queue capacity",
                knee_outstanding[3] / knee_outstanding[1],
                "x",
                1.5,
                6.0,
            ),
            Comparison::range(
                "write drain halved -> wo bandwidth drops",
                "wo ceiling tracks the drain knob",
                wo_bw[0] / wo_bw[1],
                "x",
                0.3,
                0.8,
            ),
            Comparison::range(
                "zero packet overhead -> ro ceiling rises",
                "read ceiling tracks the overhead knob",
                ro_bw[0] / ro_bw[2],
                "x",
                1.1,
                2.5,
            ),
        ],
    );
}
