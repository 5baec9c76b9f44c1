//! The batch-vectorized classify path versus the scalar one, and the
//! zero-copy columnar decode versus the record-at-a-time decoder.
//!
//! Three contracts are *asserted* (not just reported), so a regression
//! that makes the batch path pointless fails CI:
//!
//! * `classify_batch_into` beats per-flow `classify_with` by **≥3×**
//!   on the full trace (`target/BENCH_batch.json` records the measured
//!   ratio);
//! * steady-state batch classification performs **zero heap
//!   allocations** (counted by this binary's global allocator);
//! * the batch results are byte-identical to the scalar ones on the
//!   bench fixture itself.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use spoofwatch_core::{BatchScratch, Classifier};
use spoofwatch_internet::{Internet, InternetConfig};
use spoofwatch_ixp::{ipfix, Trace, TrafficConfig};
use spoofwatch_net::{FlowBatch, InferenceMethod, OrgMode, TrafficClass};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Heap operations since process start — the probe behind the
/// zero-allocation assertion. Counts allocs and grows (frees are
/// irrelevant: a path that never allocates never frees).
static HEAP_OPS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates every operation verbatim to `System`; the counter
// update has no effect on allocation behavior.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        HEAP_OPS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        HEAP_OPS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[derive(serde::Serialize)]
struct SizeResult {
    batch_records: usize,
    batch_ns: f64,
}

#[derive(serde::Serialize)]
struct BatchBaseline {
    bench: &'static str,
    classify_flows: usize,
    classify_scalar_ns: f64,
    classify_batch_ns: f64,
    classify_speedup: f64,
    sizes: Vec<SizeResult>,
    decode_records: usize,
    decode_resilient_ns: f64,
    decode_columnar_ns: f64,
    decode_speedup: f64,
    steady_state_heap_ops: u64,
    compiled_infos: usize,
    compiled_entries: usize,
}

/// Mean ns per record: one warm-up pass, then best of seven timed
/// passes of `run` over `n` records (best-of absorbs scheduler noise
/// on shared cores far better than a mean does).
fn per_record_ns(n: usize, mut run: impl FnMut() -> usize) -> f64 {
    black_box(run());
    let mut best = f64::INFINITY;
    for _ in 0..7 {
        let t0 = Instant::now();
        black_box(run());
        best = best.min(t0.elapsed().as_nanos() as f64 / n as f64);
    }
    best
}

fn bench_batch(c: &mut Criterion) {
    // The same world as `benches/lpm.rs`, so classify_scalar_ns here is
    // directly comparable with the lpm bench's classify_compiled_ns.
    let net = Internet::generate(InternetConfig::tiny(5));
    let mut tc = TrafficConfig::tiny(6);
    tc.regular_flows = 20_000;
    let trace = Trace::generate(&net, &tc);
    let classifier = Classifier::build(&net.announcements, &net.orgs_dataset);
    let flows = trace.flows;
    let method = InferenceMethod::FullCone;
    let org = OrgMode::OrgAdjusted;

    // ---- decode: record-at-a-time vs columnar into a reused arena ----
    let bytes = ipfix::encode(&flows);
    let mut arena = FlowBatch::new();
    let decode_resilient_ns = per_record_ns(flows.len(), || {
        let (records, health) = ipfix::decode_resilient(black_box(&bytes));
        black_box(health.ok_records as usize + records.len())
    });
    let decode_columnar_ns = per_record_ns(flows.len(), || {
        let health = ipfix::decode_columnar(black_box(&bytes), &mut arena);
        black_box(health.ok_records as usize + arena.len())
    });
    // Resilience accounting must be preserved: every input record is
    // credited, and the decoders agree with each other.
    assert_eq!(arena.len(), flows.len());
    assert_eq!(arena.to_records(), flows);
    println!(
        "decode: resilient {decode_resilient_ns:.1} ns/rec, columnar {decode_columnar_ns:.1} ns/rec, {:.2}x",
        decode_resilient_ns / decode_columnar_ns
    );

    // ---- classify: scalar vs batch, with criterion-visible groups ----
    let batch = FlowBatch::from_records(&flows);
    let mut scratch = BatchScratch::new();
    let mut classes: Vec<TrafficClass> = Vec::with_capacity(flows.len());

    let mut group = c.benchmark_group("batch_classify");
    group.throughput(Throughput::Elements(flows.len() as u64));
    group.bench_function("scalar_classify_with", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for f in &flows {
                acc += classifier.classify_with(black_box(f), method, org).index();
            }
            black_box(acc)
        })
    });
    group.bench_function("classify_batch_into", |b| {
        b.iter(|| {
            classifier.classify_batch_into(black_box(&batch), method, org, &mut scratch, &mut classes);
            black_box(classes.len())
        })
    });
    group.finish();

    // Byte-identity on the bench fixture itself, for every variant.
    for v in spoofwatch_core::METHOD_VARIANTS {
        classifier.classify_batch_into(&batch, v.method, v.org, &mut scratch, &mut classes);
        for (f, &got) in flows.iter().zip(&classes) {
            assert_eq!(
                got,
                classifier.classify_with(f, v.method, v.org),
                "batch diverges from scalar at src {:#010x} under {v}",
                f.src
            );
        }
    }

    let scalar_ns = per_record_ns(flows.len(), || {
        let mut acc = 0usize;
        for f in &flows {
            acc += classifier.classify_with(black_box(f), method, org).index();
        }
        acc
    });
    let batch_ns = per_record_ns(flows.len(), || {
        classifier.classify_batch_into(black_box(&batch), method, org, &mut scratch, &mut classes);
        classes.len()
    });
    let speedup = scalar_ns / batch_ns;
    println!("classify: scalar {scalar_ns:.1} ns/rec, batch {batch_ns:.1} ns/rec, {speedup:.2}x");
    assert!(
        speedup >= 3.0,
        "the batch path must be at least 3x the scalar one (got {speedup:.2}x)"
    );

    // ---- batch-size sweep: 64 / 1k / 64k records ----
    let mut sizes = Vec::new();
    for target in [64usize, 1024, 65_536] {
        let mut tile = FlowBatch::with_capacity(target);
        while tile.len() < target {
            let take = (target - tile.len()).min(flows.len());
            tile.extend_from_records(&flows[..take]);
        }
        // Warm the scratch for this tile, then measure.
        classifier.classify_batch_into(&tile, method, org, &mut scratch, &mut classes);
        let ns = per_record_ns(tile.len(), || {
            classifier.classify_batch_into(black_box(&tile), method, org, &mut scratch, &mut classes);
            classes.len()
        });
        println!("batch[{target}]: {ns:.1} ns/rec");
        sizes.push(SizeResult {
            batch_records: target,
            batch_ns: ns,
        });
    }

    // ---- zero allocations in steady state ----
    // Scratch and output are warm from the runs above; from here on the
    // classify path must not touch the heap at all.
    classifier.classify_batch_into(&batch, method, org, &mut scratch, &mut classes);
    let before = HEAP_OPS.load(Ordering::Relaxed);
    for _ in 0..5 {
        classifier.classify_batch_into(black_box(&batch), method, org, &mut scratch, &mut classes);
        black_box(classes.len());
    }
    let steady_state_heap_ops = HEAP_OPS.load(Ordering::Relaxed) - before;
    assert_eq!(
        steady_state_heap_ops, 0,
        "steady-state batch classification must perform zero heap allocations"
    );
    println!("steady-state heap ops across 5 batches: {steady_state_heap_ops}");

    write_baseline(BatchBaseline {
        bench: "batch",
        classify_flows: flows.len(),
        classify_scalar_ns: scalar_ns,
        classify_batch_ns: batch_ns,
        classify_speedup: speedup,
        sizes,
        decode_records: flows.len(),
        decode_resilient_ns,
        decode_columnar_ns,
        decode_speedup: decode_resilient_ns / decode_columnar_ns,
        steady_state_heap_ops,
        compiled_infos: classifier.compiled().num_infos(),
        compiled_entries: classifier.compiled().len(),
    });
}

/// Written under `target/` (untracked): the numbers describe this host
/// and this run's time budget, so a tracked copy would only churn.
fn write_baseline(baseline: BatchBaseline) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target");
    std::fs::create_dir_all(dir).expect("create target/");
    let path = format!("{dir}/BENCH_batch.json");
    let json = serde_json::to_string_pretty(&baseline).expect("serialize baseline");
    std::fs::write(&path, json + "\n").expect("write BENCH_batch.json");
    println!("baseline written to {path}");
}

criterion_group!(benches, bench_batch);
criterion_main!(benches);
