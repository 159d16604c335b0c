//! Property-based tests over the core data structures and model
//! invariants.
//!
//! The build environment has no crates.io access, so instead of proptest
//! these properties are driven by the workspace's own deterministic
//! [`SplitMix64`] stream: every test runs a fixed number of random cases
//! from a fixed seed, so failures are exactly reproducible. The assertion
//! messages include the drawn inputs, which replaces proptest's shrinking
//! with direct diagnosability.

use hmc_core::AccessPattern;
use hmc_types::address::{Address, AddressMapping, AddressMask, MaxBlockSize};
use hmc_types::packet::{wire_bytes_per_access, OpKind, RequestSize, TransactionSizes};
use hmc_types::{HmcSpec, RequestKind, Time, TimeDelta};
use sim_engine::{
    BoundedQueue, EventQueue, Histogram, IdTable, LinearFit, SplitMix64, StageTotals,
};

/// Runs `f` for `n` independently seeded random cases.
fn cases(n: u64, seed: u64, mut f: impl FnMut(&mut SplitMix64)) {
    for case in 0..n {
        // Distinct, widely spaced seeds per case; `case` itself is mixed
        // through SplitMix64 so streams are uncorrelated.
        let mut rng = SplitMix64::new(seed ^ SplitMix64::new(case).next_u64());
        f(&mut rng);
    }
}

fn any_block(rng: &mut SplitMix64) -> MaxBlockSize {
    [
        MaxBlockSize::B16,
        MaxBlockSize::B32,
        MaxBlockSize::B64,
        MaxBlockSize::B128,
    ][rng.next_below(4) as usize]
}

fn any_size(rng: &mut SplitMix64) -> RequestSize {
    RequestSize::new((rng.next_below(8) + 1) * 16).unwrap()
}

/// Decoding any address yields coordinates within the geometry, and
/// re-encoding the (vault, bank, row) triple round-trips.
#[test]
fn address_decode_in_range_and_roundtrips() {
    cases(256, 0xA11, |rng| {
        let raw = rng.next_below(1 << 34);
        let block = any_block(rng);
        let spec = HmcSpec::default();
        let map = AddressMapping::new(block);
        let loc = map.decode(Address::new(raw), &spec);
        assert!(
            (loc.vault.index() as u32) < spec.num_vaults(),
            "raw {raw:#x}"
        );
        assert!(
            (loc.bank.index() as u32) < spec.banks_per_vault(),
            "raw {raw:#x}"
        );
        assert!(
            (loc.quadrant.index() as u32) < spec.num_quadrants(),
            "raw {raw:#x}"
        );
        assert_eq!(
            loc.quadrant.index(),
            loc.vault.index() / spec.vaults_per_quadrant() as u16,
            "raw {raw:#x}"
        );
        let re = map.encode(loc.vault, loc.bank, loc.row, &spec);
        let loc2 = map.decode(re, &spec);
        assert_eq!(loc.vault, loc2.vault, "raw {raw:#x} block {block}");
        assert_eq!(loc.bank, loc2.bank, "raw {raw:#x} block {block}");
        assert_eq!(loc.row, loc2.row, "raw {raw:#x} block {block}");
    });
}

/// Masking is idempotent and forced bits really are forced.
#[test]
fn mask_idempotent_and_forcing() {
    cases(256, 0xA12, |rng| {
        let raw = rng.next_u64();
        let lo = rng.next_below(30) as u32;
        let width = rng.next_below(7) as u32 + 1;
        let hi = lo + width - 1;
        let mask = AddressMask::zero_bits(lo, hi);
        let once = mask.apply(Address::new(raw));
        let twice = mask.apply(once);
        assert_eq!(once, twice, "raw {raw:#x} bits {lo}-{hi}");
        assert_eq!(
            once.as_u64() & mask.zero_mask(),
            0,
            "raw {raw:#x} bits {lo}-{hi}"
        );
    });
}

/// Consecutive blocks always land in different vaults until the vault
/// field wraps (low-order interleave).
#[test]
fn interleave_spreads_consecutive_blocks() {
    cases(256, 0xA13, |rng| {
        let start_block = rng.next_below(1_000_000);
        let spec = HmcSpec::default();
        let map = AddressMapping::default();
        let a = map.decode(Address::new(start_block * 128), &spec);
        let b = map.decode(Address::new((start_block + 1) * 128), &spec);
        let expected = (a.vault.index() + 1) % 16;
        assert_eq!(b.vault.index(), expected, "start block {start_block}");
    });
}

/// Table II arithmetic: total wire bytes are payload plus exactly one
/// overhead flit per packet, for every op and size.
#[test]
fn packet_overhead_is_one_flit_each_way() {
    cases(32, 0xA14, |rng| {
        let size = any_size(rng);
        let read = TransactionSizes::of(OpKind::Read, size);
        let write = TransactionSizes::of(OpKind::Write, size);
        assert_eq!(read.total_wire_bytes(), size.bytes() + 32, "{size}");
        assert_eq!(write.total_wire_bytes(), size.bytes() + 32, "{size}");
        assert_eq!(
            wire_bytes_per_access(RequestKind::ReadModifyWrite, size),
            2 * (size.bytes() + 32),
            "{size}"
        );
    });
}

/// Every valid access pattern's mask confines traffic to exactly the
/// advertised number of banks.
#[test]
fn pattern_masks_reach_exactly_their_banks() {
    cases(64, 0xA15, |rng| {
        let n = 1u32 << rng.next_below(5);
        let vaults_not_banks = rng.next_below(2) == 0;
        let spec = HmcSpec::default();
        let map = AddressMapping::default();
        let pattern = if vaults_not_banks {
            AccessPattern::Vaults(n)
        } else {
            AccessPattern::Banks(n)
        };
        let mask = pattern.mask(map, &spec).unwrap();
        let mut banks = std::collections::BTreeSet::new();
        for _ in 0..64 {
            let raw = rng.next_below(1 << 32);
            let loc = map.decode(mask.apply(Address::new(raw & !0xF)), &spec);
            banks.insert((loc.vault.index(), loc.bank.index()));
            assert!(
                (loc.vault.index() as u32) < pattern.vault_count().max(1),
                "{pattern}: vault {} out of scope",
                loc.vault.index()
            );
        }
        assert!(banks.len() as u32 <= pattern.bank_count(&spec), "{pattern}");
    });
}

/// The event queue is a stable priority queue: pops are sorted by time,
/// ties by insertion order.
#[test]
fn event_queue_is_stable_sorted() {
    cases(64, 0xA16, |rng| {
        let len = rng.next_below(199) + 1;
        let mut q = EventQueue::new();
        for i in 0..len {
            q.push(Time::from_ps(rng.next_below(1000)), i as usize);
        }
        let mut last: Option<(Time, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                assert!(t >= lt, "time order violated at {i}");
                if t == lt {
                    assert!(i > li, "FIFO order for equal times ({li} then {i})");
                }
            }
            last = Some((t, i));
        }
    });
}

/// Random interleaved push/pop/`pop_before`/clear sequences on the
/// timing-wheel queue produce exactly the `(time, seq)` pop order of a
/// reference `BinaryHeap` model — including pathological cases that cross the
/// wheel horizon (refresh-scale far-future events) and same-instant
/// FIFO runs.
#[test]
fn event_queue_matches_heap_reference_model() {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    cases(48, 0xA17, |rng| {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut model: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut t_base = 0u64;
        let ops = 400 + rng.next_below(400);
        for _ in 0..ops {
            match rng.next_below(10) {
                // Push near-future (common case: within a few buckets).
                0..=4 => {
                    let t = t_base + rng.next_below(50_000);
                    q.push(Time::from_ps(t), seq);
                    model.push(Reverse((t, seq)));
                    seq += 1;
                }
                // Push far-future (overflow horizon: refresh, thermal).
                5 => {
                    let t = t_base + 1_000_000 + rng.next_below(20_000_000);
                    q.push(Time::from_ps(t), seq);
                    model.push(Reverse((t, seq)));
                    seq += 1;
                }
                // Same-instant FIFO burst.
                6 => {
                    let t = t_base + rng.next_below(10_000);
                    for _ in 0..rng.next_below(6) + 2 {
                        q.push(Time::from_ps(t), seq);
                        model.push(Reverse((t, seq)));
                        seq += 1;
                    }
                }
                // Pop and advance the base time, like a simulation loop.
                7 | 8 => {
                    let got = q.pop();
                    let want = model.pop().map(|Reverse((t, s))| (Time::from_ps(t), s));
                    assert_eq!(got, want, "pop diverged after {seq} pushes");
                    if let Some((t, _)) = got {
                        t_base = t.as_ps();
                    }
                }
                // Now and then drop everything pending.
                _ if rng.next_below(8) == 0 => {
                    q.clear();
                    model.clear();
                }
                // Drain a window with a `pop_before(limit)` loop, the way
                // the host and device drain an instant.
                _ => {
                    let limit = t_base + rng.next_below(100_000);
                    loop {
                        let got = q.pop_before(Time::from_ps(limit));
                        let want = match model.peek() {
                            Some(&Reverse((t, s))) if t <= limit => {
                                model.pop();
                                Some((Time::from_ps(t), s))
                            }
                            _ => None,
                        };
                        assert_eq!(got, want, "pop_before diverged after {seq} pushes");
                        match got {
                            Some((t, _)) => t_base = t.as_ps(),
                            None => break,
                        }
                    }
                }
            }
            assert_eq!(q.len(), model.len());
            assert_eq!(
                q.peek_time().map(Time::as_ps),
                model.peek().map(|Reverse((t, _))| *t),
                "peek diverged after {seq} pushes"
            );
        }
        // Drain both completely.
        while let Some(want) = model.pop() {
            let Reverse((t, s)) = want;
            assert_eq!(q.pop(), Some((Time::from_ps(t), s)), "drain diverged");
        }
        assert!(q.pop().is_none());
    });
}

/// `IdTable` agrees with a `BTreeMap` reference model on every operation:
/// insert and replace, remove, `get_mut`, `len`, `clear` and
/// `sorted_ids`. Ids come from dense runs under several origin prefixes,
/// as chained cubes stamp them, and the population crosses many growths.
#[test]
fn id_table_matches_btreemap_reference_model() {
    use std::collections::BTreeMap;
    /// Chained cubes put the origin cube index above this bit of an id.
    const ORIGIN_SHIFT: u32 = 48;
    let (mut peak, mut clears) = (0, 0);
    cases(24, 0x1D7, |rng| {
        let mut t: IdTable<u64> = IdTable::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let origins = rng.next_below(4) + 1;
        let base = rng.next_below(1 << 32);
        let span = rng.next_below(3_000) + 16;
        let ops = rng.next_below(4_000) + 2_000;
        for step in 0..ops {
            let id = (rng.next_below(origins) << ORIGIN_SHIFT) | (base + rng.next_below(span));
            match rng.next_below(20) {
                0..=9 => assert_eq!(t.insert(id, step), model.insert(id, step), "insert {id}"),
                10..=15 => assert_eq!(t.remove(id), model.remove(&id), "remove {id}"),
                16..=18 => {
                    let got = t.get_mut(id).map(|v| {
                        *v += 1;
                        *v
                    });
                    let want = model.get_mut(&id).map(|v| {
                        *v += 1;
                        *v
                    });
                    assert_eq!(got, want, "get_mut {id}");
                }
                _ if rng.next_below(200) == 0 => {
                    t.clear();
                    model.clear();
                    clears += 1;
                }
                _ => {}
            }
            assert_eq!(t.len(), model.len(), "len after {step} ops");
            assert_eq!(t.is_empty(), model.is_empty());
            peak = peak.max(t.len());
        }
        assert_eq!(t.sorted_ids(), model.keys().copied().collect::<Vec<_>>());
        // Drain in random order: every removal backward-shifts its run.
        let mut ids: Vec<u64> = model.keys().copied().collect();
        while !ids.is_empty() {
            let id = ids.swap_remove(rng.next_below(ids.len() as u64) as usize);
            assert_eq!(t.remove(id), model.remove(&id), "drain {id}");
            assert_eq!(t.get_mut(id), None);
        }
        assert!(t.is_empty() && t.sorted_ids().is_empty());
    });
    assert!(peak > 2_048, "population peaked at {peak}: too few growths");
    assert!(clears > 0, "no case cleared the table");
}

/// Deleting entries whose probe runs wrap past the end of the slot array
/// keeps every survivor reachable. The ids are chosen by mirroring the
/// table's Fibonacci hash for its first allocation of 16 slots, so they
/// crowd the last slot and spill over into slots 0, 1, ...
#[test]
fn id_table_deletes_across_the_probe_wrap_around() {
    use std::collections::BTreeMap;
    let home16 = |id: u64| id.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60;
    let last: Vec<u64> = (0..).filter(|&id| home16(id) == 15).take(6).collect();
    let first: Vec<u64> = (0..).filter(|&id| home16(id) <= 1).take(4).collect();
    cases(32, 0x1D8, |rng| {
        let mut t: IdTable<u64> = IdTable::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        // Ten entries stay under the 12 a 16-slot table holds.
        let mut ids: Vec<u64> = last.iter().chain(&first).copied().collect();
        for i in (1..ids.len()).rev() {
            ids.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        for &id in &ids {
            assert_eq!(t.insert(id, id), model.insert(id, id));
        }
        while !ids.is_empty() {
            let id = ids.swap_remove(rng.next_below(ids.len() as u64) as usize);
            assert_eq!(t.remove(id), model.remove(&id), "remove {id}");
            for (&k, &v) in &model {
                assert_eq!(
                    t.get_mut(k).copied(),
                    Some(v),
                    "{k} lost after removing {id}"
                );
            }
            assert_eq!(t.sorted_ids(), model.keys().copied().collect::<Vec<_>>());
        }
    });
}

/// A bounded queue never exceeds capacity and preserves FIFO order.
#[test]
fn bounded_queue_capacity_and_order() {
    cases(64, 0xA18, |rng| {
        let cap = rng.next_below(31) as usize + 1;
        let ops = rng.next_below(199) + 1;
        let mut q = BoundedQueue::new(cap);
        let mut model: std::collections::VecDeque<u32> = Default::default();
        let mut next = 0u32;
        for i in 0..ops {
            let now = Time::from_ps(i);
            if rng.next_below(2) == 0 {
                let fits = model.len() < cap;
                let r = q.try_push(next, now);
                assert_eq!(r.is_ok(), fits, "cap {cap} at op {i}");
                if fits {
                    model.push_back(next);
                }
                next += 1;
            } else {
                assert_eq!(q.pop(now), model.pop_front(), "cap {cap} at op {i}");
            }
            assert_eq!(q.len(), model.len());
            assert!(q.len() <= cap);
        }
    });
}

/// Histogram moments match a reference computation.
#[test]
fn histogram_matches_reference() {
    cases(64, 0xA19, |rng| {
        let len = rng.next_below(499) + 1;
        let samples: Vec<u64> = (0..len).map(|_| rng.next_below(9_999_999) + 1).collect();
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(TimeDelta::from_ps(s));
        }
        let min = *samples.iter().min().unwrap();
        let max = *samples.iter().max().unwrap();
        let mean = samples.iter().sum::<u64>() / samples.len() as u64;
        assert_eq!(h.count(), samples.len() as u64);
        assert_eq!(h.min().unwrap().as_ps(), min);
        assert_eq!(h.max().unwrap().as_ps(), max);
        assert_eq!(h.mean().as_ps(), mean);
        assert_eq!(h.quantile(0.0).unwrap().as_ps(), min);
        assert_eq!(h.quantile(1.0).unwrap().as_ps(), max);
    });
}

/// A span for the stage-totals property: mostly nanosecond-scale, some
/// beyond 2^32 ps, and rarely large enough that a few of them saturate a
/// `u64` picosecond total.
fn any_span(rng: &mut SplitMix64) -> TimeDelta {
    let ps = match rng.next_below(16) {
        0..=9 => rng.next_below(10_000_000),
        10..=14 => (1 << 32) + rng.next_below(1 << 40),
        _ => rng.next_below(u64::MAX >> 2),
    };
    TimeDelta::from_ps(ps)
}

fn assert_same_totals(s: &StageTotals, h: &Histogram, ctx: &str) {
    assert_eq!(s.count(), h.count(), "{ctx}: count");
    assert_eq!(s.is_empty(), h.is_empty(), "{ctx}: is_empty");
    assert_eq!(s.total(), h.total(), "{ctx}: total");
    assert_eq!(s.mean(), h.mean(), "{ctx}: mean");
}

/// `StageTotals` keeps exactly `Histogram`'s count, total and mean —
/// after every record and across merges — so trace attribution reads the
/// same numbers without a sample reservoir.
#[test]
fn stage_totals_match_histogram_count_total_and_mean() {
    let mut saturated = 0;
    cases(64, 0xA1F, |rng| {
        let parts = rng.next_below(4) + 1;
        let mut whole = (StageTotals::default(), Histogram::new());
        let mut merged = (StageTotals::default(), Histogram::new());
        assert_same_totals(&whole.0, &whole.1, "empty");
        for part in 0..parts {
            let mut piece = (StageTotals::default(), Histogram::new());
            for i in 0..rng.next_below(200) {
                let span = any_span(rng);
                piece.0.record(span);
                piece.1.record(span);
                whole.0.record(span);
                whole.1.record(span);
                let ctx = format!("part {part} record {i} span {span:?}");
                assert_same_totals(&piece.0, &piece.1, &ctx);
                assert_same_totals(&whole.0, &whole.1, &ctx);
            }
            merged.0.merge(&piece.0);
            merged.1.merge(&piece.1);
            assert_same_totals(&merged.0, &merged.1, &format!("merge {part}"));
        }
        assert_eq!(merged.0, whole.0, "merging parts equals one pass");
        if whole.1.total() == TimeDelta::from_ps(u64::MAX) {
            saturated += 1;
        }
    });
    assert!(saturated > 0, "some case saturates the u64 total");
}

/// Linear regression recovers exact lines from noiseless samples.
#[test]
fn regression_recovers_lines() {
    cases(64, 0xA1A, |rng| {
        let slope = rng.next_f64() * 200.0 - 100.0;
        let intercept = rng.next_f64() * 200.0 - 100.0;
        let mut xs = std::collections::BTreeSet::new();
        for _ in 0..rng.next_below(48) + 2 {
            xs.insert(rng.next_below(2000) as i64 - 1000);
        }
        if xs.len() < 2 {
            xs.insert(-1001);
        }
        let pts: Vec<(f64, f64)> = xs
            .into_iter()
            .map(|x| (x as f64, slope * x as f64 + intercept))
            .collect();
        let fit = LinearFit::fit(&pts).unwrap();
        assert!(
            (fit.slope - slope).abs() < 1e-6 * (1.0 + slope.abs()),
            "slope {slope} fit {}",
            fit.slope
        );
        assert!(
            (fit.intercept - intercept).abs() < 1e-6 * (1.0 + intercept.abs()) + 1e-4,
            "intercept {intercept} fit {}",
            fit.intercept
        );
    });
}

/// SplitMix64 bounded draws respect their bound for arbitrary seeds.
#[test]
fn rng_bounded() {
    cases(64, 0xA1B, |rng| {
        let seed = rng.next_u64();
        let bound = rng.next_below(999_999) + 1;
        let mut r = SplitMix64::new(seed);
        for _ in 0..100 {
            assert!(r.next_below(bound) < bound, "seed {seed} bound {bound}");
        }
    });
}

/// DRAM-beat law: every size costs ceil(bytes/32) beats, at least 1.
#[test]
fn dram_beats_law() {
    cases(32, 0xA1C, |rng| {
        let size = any_size(rng);
        let beats = size.dram_beats();
        assert_eq!(beats, size.bytes().div_ceil(32), "{size}");
        assert!((1..=4).contains(&beats), "{size}");
    });
}

/// A token bucket never over-grants: across any request pattern the total
/// granted is bounded by capacity + rate x elapsed.
#[test]
fn token_bucket_never_overgrants() {
    cases(64, 0xA1D, |rng| {
        let rate = (rng.next_below(999) + 1) as f64 * 1e3;
        let cap = rng.next_below(63) + 1;
        let asks = rng.next_below(99) + 1;
        let mut b = sim_engine::TokenBucket::new(rate, cap);
        let mut now = Time::ZERO;
        let mut granted = 0u64;
        for _ in 0..asks {
            let n = rng.next_below(7) + 1;
            let dt_ns = rng.next_below(9_999) + 1;
            now += TimeDelta::from_ns(dt_ns);
            if n <= cap && b.try_take(n, now) {
                granted += n;
            }
        }
        let bound = cap as f64 + rate * now.as_secs_f64() + 1.0;
        assert!(
            (granted as f64) <= bound,
            "granted {granted} > bound {bound}"
        );
    });
}

/// Combined mask and anti-mask never disagree: forced-one bits are one,
/// forced-zero bits are zero, untouched bits pass through.
#[test]
fn anti_mask_respects_all_fields() {
    cases(256, 0xA1E, |rng| {
        let raw = rng.next_u64();
        let zero_lo = rng.next_below(12) as u32;
        let one_lo = rng.next_below(12) as u32 + 16;
        let mask = AddressMask::zero_bits(zero_lo, zero_lo + 3).with_one_bits(one_lo, one_lo + 3);
        let a = mask.apply(Address::new(raw)).as_u64();
        assert_eq!(a & mask.zero_mask(), 0, "raw {raw:#x}");
        assert_eq!(a & mask.one_mask(), mask.one_mask(), "raw {raw:#x}");
        let untouched = !(mask.zero_mask() | mask.one_mask()) & ((1 << 34) - 1);
        assert_eq!(
            a & untouched,
            raw & ((1 << 34) - 1) & untouched,
            "raw {raw:#x}"
        );
    });
}

/// Parallel sweeps are scheduling-independent: the rendered Figure 7
/// report is byte-identical at 2 and 8 threads (each point simulates in
/// its own deterministic `System`; the executor only re-orders which core
/// runs it, never its result or its output position).
#[test]
fn fig7_report_identical_across_thread_counts() {
    use hmc_core::experiments::bandwidth;
    use hmc_core::{MeasureConfig, SystemConfig};
    let cfg = SystemConfig::default();
    let mc = MeasureConfig {
        warmup: TimeDelta::from_us(10),
        window: TimeDelta::from_us(40),
    };
    let report_at = |threads: usize| {
        sim_engine::exec::set_threads(threads);
        let table = bandwidth::figure7_table(&bandwidth::figure7(&cfg, &mc)).to_string();
        sim_engine::exec::set_threads(0);
        table
    };
    let two = report_at(2);
    let eight = report_at(8);
    assert_eq!(two, eight, "fig7 report depends on thread count");
}

mod slow_properties {
    use super::*;
    use hmc_core::system::{System, SystemConfig};
    use hmc_host::workload::{Addressing, PortWorkload};
    use hmc_host::Workload;

    /// Conservation at the full system, for arbitrary workload shapes:
    /// after generation stops and the system drains, every issued request
    /// has exactly one response and host/device agree.
    #[test]
    fn system_conserves_requests() {
        cases(12, 0xB01, |rng| {
            let kind = RequestKind::ALL[rng.next_below(3) as usize];
            let size = any_size(rng);
            let ports = rng.next_below(9) as usize + 1;
            let n = 1u32 << rng.next_below(5);
            let linear = rng.next_below(2) == 0;
            let cfg = SystemConfig::default();
            let mask = AccessPattern::Vaults(n)
                .mask(cfg.mem.mapping, &cfg.mem.spec)
                .expect("valid");
            let mut sys = System::new(cfg);
            sys.host_mut().apply_workload(&Workload::Continuous {
                port: PortWorkload {
                    kind,
                    size,
                    addressing: if linear {
                        Addressing::Linear
                    } else {
                        Addressing::Random
                    },
                    mask,
                    read_fraction: None,
                },
                active_ports: ports,
            });
            sys.host_mut().start(Time::ZERO);
            sys.run_for(TimeDelta::from_us(30));
            sys.host_mut().stop_generation();
            assert!(sys.run_until_idle(TimeDelta::from_ms(20)), "drain stalled");
            let h = sys.host().stats();
            let d = sys.device().stats();
            assert_eq!(
                h.reads_completed, d.reads_completed,
                "{kind} {size} x{ports}"
            );
            assert_eq!(
                h.writes_completed, d.writes_completed,
                "{kind} {size} x{ports}"
            );
            assert_eq!(
                h.reads_issued + h.writes_issued,
                h.reads_completed + h.writes_completed,
                "{kind} {size} x{ports}"
            );
            assert_eq!(sys.host().outstanding(), 0);
            assert!(h.reads_completed + h.writes_completed > 0);
        });
    }

    /// The same conservation holds with lane errors injected: retries
    /// delay packets but never lose them.
    #[test]
    fn faulty_links_lose_nothing() {
        cases(4, 0xB02, |rng| {
            let seedish = rng.next_below(8);
            let mut cfg = SystemConfig::default();
            cfg.mem.link_layer.bit_error_rate = 1e-5 * (seedish + 1) as f64;
            let mut sys = System::new(cfg);
            sys.host_mut().apply_workload(&Workload::full_scale(
                RequestKind::ReadModifyWrite,
                RequestSize::MAX,
            ));
            sys.host_mut().start(Time::ZERO);
            sys.run_for(TimeDelta::from_us(30));
            sys.host_mut().stop_generation();
            assert!(sys.run_until_idle(TimeDelta::from_ms(20)));
            let h = sys.host().stats();
            assert_eq!(
                h.reads_issued + h.writes_issued,
                h.reads_completed + h.writes_completed
            );
            assert!(
                sys.device().stats().link_retries > 0,
                "errors were injected"
            );
        });
    }
}
