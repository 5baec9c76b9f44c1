//! The compiled LPM fast path versus the Patricia trie, and the cost
//! of classifying through an epoch-swap cell.
//!
//! Two contracts are *asserted* (not just reported), so a regression
//! that makes the compiled path pointless fails CI:
//!
//! * `FrozenLpm` answers random lookups at least 2× faster than the
//!   trie it was frozen from, at every bogon mix (0%, 1%, 5%);
//! * the fused single-walk `classify_with` beats the reference
//!   two-trie-walk `classify_with_tries`.
//!
//! The measured numbers are written to `target/BENCH_lpm.json`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use spoofwatch_core::{Classifier, EpochSwap};
use spoofwatch_internet::{bogon, Internet, InternetConfig};
use spoofwatch_ixp::{Trace, TrafficConfig};
use spoofwatch_net::{
    parse_addr, Asn, FlowRecord, InferenceMethod, Ipv4Prefix, OrgMode, Proto, TrafficClass,
};
use spoofwatch_trie::{FrozenLpm, PrefixSet, PrefixTrie};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A realistic routed table: every announced prefix of the default
/// synthetic Internet (~12K prefixes, /8../24 mix).
fn routed_prefixes() -> Vec<Ipv4Prefix> {
    let net = Internet::generate(InternetConfig {
        seed: 3,
        ..InternetConfig::default()
    });
    net.topology
        .ases()
        .flat_map(|a| a.prefixes.iter().copied())
        .collect()
}

/// `n` probe addresses with `bogon_pct`% drawn from bogon ranges and
/// the rest rejection-sampled to be bogon-free (routed or not).
fn mixed_probes(seed: u64, bogons: &PrefixSet, n: usize, bogon_pct: u32) -> Vec<u32> {
    let ranges: Vec<Ipv4Prefix> = bogons.iter().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            if rng.random_ratio(bogon_pct, 100) {
                let r = ranges[rng.random_range(0..ranges.len())];
                let host_bits = 32 - r.len();
                let mask = if host_bits == 32 {
                    u32::MAX
                } else {
                    (1u32 << host_bits) - 1
                };
                r.bits() | (rng.random::<u32>() & mask)
            } else {
                loop {
                    let a: u32 = rng.random();
                    if !bogons.contains_addr(a) {
                        break a;
                    }
                }
            }
        })
        .collect()
}

/// Mean ns per probe over the whole probe set, best of three passes.
fn lookup_ns(probes: &[u32], mut f: impl FnMut(u32) -> bool) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        let mut hits = 0usize;
        for &addr in probes {
            if f(black_box(addr)) {
                hits += 1;
            }
        }
        black_box(hits);
        best = best.min(t0.elapsed().as_nanos() as f64 / probes.len() as f64);
    }
    best
}

#[derive(serde::Serialize)]
struct MixResult {
    bogon_pct: u32,
    trie_ns: f64,
    frozen_ns: f64,
    speedup: f64,
}

#[derive(serde::Serialize)]
struct LpmBaseline {
    bench: &'static str,
    table_prefixes: usize,
    probes_per_mix: usize,
    mixes: Vec<MixResult>,
    frozen_memory_bytes: usize,
    frozen_spill_chunks: usize,
    classify_flows: usize,
    classify_tries_ns: f64,
    classify_compiled_ns: f64,
    classify_speedup: f64,
    compiled_table_entries: usize,
    compiled_memory_bytes: usize,
    swap_load_ns: f64,
    swap_publishes: u64,
}

fn bench_lpm(c: &mut Criterion) {
    let prefixes = routed_prefixes();
    let trie: PrefixTrie<u32> = prefixes
        .iter()
        .enumerate()
        .map(|(i, p)| (*p, i as u32))
        .collect();
    let frozen: FrozenLpm<u32> = trie.freeze();
    let bogons = bogon::bogon_set();

    let mut mixes = Vec::new();
    let mut group = c.benchmark_group("lpm");
    for bogon_pct in [0u32, 1, 5] {
        let probes = mixed_probes(0xF0 + bogon_pct as u64, &bogons, 10_000, bogon_pct);
        group.throughput(Throughput::Elements(probes.len() as u64));
        group.bench_function(format!("trie_bogon{bogon_pct}pct"), |b| {
            b.iter(|| {
                let mut hits = 0usize;
                for &addr in &probes {
                    if trie.lookup(black_box(addr)).is_some() {
                        hits += 1;
                    }
                }
                black_box(hits)
            })
        });
        group.bench_function(format!("frozen_bogon{bogon_pct}pct"), |b| {
            b.iter(|| {
                let mut hits = 0usize;
                for &addr in &probes {
                    if frozen.lookup(black_box(addr)).is_some() {
                        hits += 1;
                    }
                }
                black_box(hits)
            })
        });

        // Differential sanity on the bench fixture itself.
        for &addr in &probes {
            assert_eq!(
                trie.lookup(addr).map(|(p, v)| (p, *v)),
                frozen.lookup(addr).map(|(p, v)| (p, *v)),
                "frozen diverges from trie at {addr:#010x}"
            );
        }

        let trie_ns = lookup_ns(&probes, |a| trie.lookup(a).is_some());
        let frozen_ns = lookup_ns(&probes, |a| frozen.lookup(a).is_some());
        let speedup = trie_ns / frozen_ns;
        println!(
            "lpm[{bogon_pct}% bogon]: trie {trie_ns:.1} ns, frozen {frozen_ns:.1} ns, {speedup:.1}x"
        );
        assert!(
            speedup >= 2.0,
            "frozen LPM must be at least 2x the trie (got {speedup:.2}x at {bogon_pct}% bogon)"
        );
        mixes.push(MixResult {
            bogon_pct,
            trie_ns,
            frozen_ns,
            speedup,
        });
    }
    group.finish();

    let (classify, swap) = bench_fused_classify(c);
    write_baseline(LpmBaseline {
        bench: "lpm",
        table_prefixes: prefixes.len(),
        probes_per_mix: 10_000,
        mixes,
        frozen_memory_bytes: frozen.memory_bytes(),
        frozen_spill_chunks: frozen.spill_chunks(),
        classify_flows: classify.0,
        classify_tries_ns: classify.1,
        classify_compiled_ns: classify.2,
        classify_speedup: classify.1 / classify.2,
        compiled_table_entries: classify.3,
        compiled_memory_bytes: classify.4,
        swap_load_ns: swap.0,
        swap_publishes: swap.1,
    });
}

/// The fused classify microbench plus swap-under-load; returns
/// ((flows, tries_ns, compiled_ns, entries, bytes), (load_ns, publishes)).
fn bench_fused_classify(c: &mut Criterion) -> ((usize, f64, f64, usize, usize), (f64, u64)) {
    let net = Internet::generate(InternetConfig::tiny(5));
    let mut tc = TrafficConfig::tiny(6);
    tc.regular_flows = 20_000;
    let trace = Trace::generate(&net, &tc);
    let classifier = Classifier::build(&net.announcements, &net.orgs_dataset);
    let flows = trace.flows;
    let method = InferenceMethod::FullCone;
    let org = OrgMode::OrgAdjusted;

    let mut group = c.benchmark_group("classify");
    group.throughput(Throughput::Elements(flows.len() as u64));
    group.bench_function("two_trie_walks", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for f in &flows {
                acc += classifier.classify_with_tries(black_box(f), method, org).index();
            }
            black_box(acc)
        })
    });
    group.bench_function("compiled_single_walk", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for f in &flows {
                acc += classifier.classify_with(black_box(f), method, org).index();
            }
            black_box(acc)
        })
    });
    group.finish();

    let tries_ns = classify_ns(&flows, |f| classifier.classify_with_tries(f, method, org));
    let compiled_ns = classify_ns(&flows, |f| classifier.classify_with(f, method, org));
    let speedup = tries_ns / compiled_ns;
    println!(
        "classify: tries {tries_ns:.1} ns/flow, compiled {compiled_ns:.1} ns/flow, {speedup:.2}x"
    );
    assert!(
        speedup > 1.0,
        "the compiled single-walk path must beat the two-trie-walk reference (got {speedup:.2}x)"
    );

    let swap = swap_under_load();
    ((
        flows.len(),
        tries_ns,
        compiled_ns,
        classifier.compiled().len(),
        classifier.compiled().memory_bytes(),
    ), swap)
}

fn classify_ns(flows: &[FlowRecord], mut f: impl FnMut(&FlowRecord) -> TrafficClass) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        let mut acc = 0usize;
        for flow in flows {
            acc += f(black_box(flow)).index();
        }
        black_box(acc);
        best = best.min(t0.elapsed().as_nanos() as f64 / flows.len() as f64);
    }
    best
}

/// Classify continuously through an [`EpochSwap`] while a background
/// thread publishes rebuilt classifiers, and measure the per-chunk
/// guard cost. Asserts the reader only ever observes whole-epoch
/// verdicts (Valid from epoch A, Unrouted from epoch B — never a
/// mix within one chunk, never anything else).
fn swap_under_load() -> (f64, u64) {
    use spoofwatch_bgp::{Announcement, AsPath};
    let build = |prefix: &str| {
        Classifier::build(
            &[Announcement::new(
                prefix.parse().expect("prefix"),
                AsPath::from(vec![3u32]),
            )],
            &spoofwatch_asgraph::As2Org::new(),
        )
    };
    let probe = FlowRecord {
        ts: 0,
        src: parse_addr("20.0.0.1").expect("addr"),
        dst: 1,
        proto: Proto::Udp,
        sport: 53,
        dport: 53,
        packets: 1,
        bytes: 64,
        pkt_size: 64,
        member: Asn(3),
        ttl: 0,
    };
    let chunk: Vec<FlowRecord> = vec![probe; 512];
    let swap = Arc::new(EpochSwap::new(build("20.0.0.0/8")));
    let stop = Arc::new(AtomicBool::new(false));

    let publisher = {
        let swap = Arc::clone(&swap);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut published = 0u64;
            while !stop.load(Ordering::Relaxed) {
                // Alternate epochs: probe Valid under A, Unrouted under B.
                let next = if published % 2 == 0 {
                    build("40.0.0.0/8")
                } else {
                    build("20.0.0.0/8")
                };
                swap.publish(next);
                published += 1;
            }
            published
        })
    };

    let mut chunks = 0u64;
    let mut guard_ns_total = 0u128;
    let t_run = Instant::now();
    while t_run.elapsed().as_millis() < 200 {
        let t0 = Instant::now();
        let guard = swap.load();
        guard_ns_total += t0.elapsed().as_nanos();
        let classes: Vec<TrafficClass> = chunk.iter().map(|f| guard.classify(f)).collect();
        // Whole-epoch visibility: one chunk, one classifier, one class.
        let first = classes[0];
        assert!(
            first == TrafficClass::Valid || first == TrafficClass::Unrouted,
            "unexpected class {first} under swap"
        );
        assert!(
            classes.iter().all(|c| *c == first),
            "verdicts tore within a chunk despite the per-chunk guard"
        );
        chunks += 1;
    }
    stop.store(true, Ordering::Relaxed);
    let publishes = publisher.join().expect("publisher");
    let load_ns = guard_ns_total as f64 / chunks.max(1) as f64;
    println!(
        "swap-under-load: {chunks} chunks classified across {publishes} publications, \
         guard load {load_ns:.0} ns/chunk"
    );
    assert!(publishes > 0, "publisher never published");
    (load_ns, publishes)
}

/// Written under `target/` (untracked): the numbers describe this host
/// and this run's time budget, so a tracked copy would only churn.
fn write_baseline(baseline: LpmBaseline) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target");
    std::fs::create_dir_all(dir).expect("create target/");
    let path = format!("{dir}/BENCH_lpm.json");
    let json = serde_json::to_string_pretty(&baseline).expect("serialize baseline");
    std::fs::write(&path, json + "\n").expect("write BENCH_lpm.json");
    println!("baseline written to {path}");
}

criterion_group!(benches, bench_lpm);
criterion_main!(benches);
