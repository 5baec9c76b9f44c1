//! Steady-state batch classification touches no heap: once a
//! `BatchScratch` and the output vector are warm, `classify_batch_into`
//! neither allocates nor grows. The probe is this binary's counting
//! global allocator, which is why the check is a test binary of its own
//! with a single test.

use spoofwatch_core::{BatchScratch, Classifier};
use spoofwatch_internet::{Internet, InternetConfig};
use spoofwatch_ixp::{Trace, TrafficConfig};
use spoofwatch_net::{FlowBatch, InferenceMethod, OrgMode};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

/// Heap operations since process start: allocs and grows (frees are
/// irrelevant: a path that never allocates never frees).
static HEAP_OPS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates every operation verbatim to `System`; the counter
// update has no effect on allocation behaviour.
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

#[test]
fn warm_batch_classification_performs_no_heap_operation() {
    let net = Internet::generate(InternetConfig::tiny(5));
    let flows = Trace::generate(&net, &TrafficConfig::tiny(6)).flows;
    let classifier = Classifier::build(&net.announcements, &net.orgs_dataset);
    let (method, org) = (InferenceMethod::FullCone, OrgMode::OrgAdjusted);
    let batch = FlowBatch::from_records(&flows);
    let mut scratch = BatchScratch::new();
    let mut classes = Vec::new();
    classifier.classify_batch_into(&batch, method, org, &mut scratch, &mut classes);

    let before = HEAP_OPS.load(Ordering::Relaxed);
    for _ in 0..5 {
        classifier.classify_batch_into(black_box(&batch), method, org, &mut scratch, &mut classes);
        black_box(classes.len());
    }
    let heap_ops = HEAP_OPS.load(Ordering::Relaxed) - before;
    assert_eq!(classes.len(), flows.len());
    assert_eq!(
        heap_ops, 0,
        "steady-state batch classification performed {heap_ops} heap operations"
    );
}
