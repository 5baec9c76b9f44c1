//! What a built classifier keeps on the heap. The routed table holds
//! one interned `RouteInfo` arena and a trie of indices into it, and the
//! compiled lookup shares that arena, so no prefix carries a private
//! copy of its origin and on-path sets. The probe is this binary's
//! global allocator, which counts live bytes; that is why the check is
//! a test binary of its own.

use spoofwatch_bgp::{RouteInfo, RoutedTable};
use spoofwatch_core::Classifier;
use spoofwatch_internet::{Internet, InternetConfig};
use spoofwatch_net::Asn;
use spoofwatch_trie::PrefixTrie;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Bytes currently allocated through this binary's allocator.
static LIVE: AtomicUsize = AtomicUsize::new(0);

/// The two tests each read `LIVE` around a build; they never overlap.
static SERIAL: Mutex<()> = Mutex::new(());

struct CountingAlloc;

// SAFETY: delegates every operation verbatim to `System`; the counter
// updates have no effect on allocation behaviour.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `make()`'s result and the heap bytes it still holds once built (the
/// build's transient allocations are freed by then).
fn heap_of<T>(make: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    let value = make();
    (value, LIVE.load(Ordering::Relaxed) - before)
}

/// The heap an `Arc<[RouteInfo]>` arena holds: the shared allocation
/// (two reference counts and the headers) and every entry's vectors.
fn arena_bytes(arena: &[RouteInfo]) -> usize {
    let vectors: usize = arena
        .iter()
        .map(|info| (info.origins.capacity() + info.on_path.capacity()) * size_of::<Asn>())
        .sum();
    2 * size_of::<usize>() + size_of_val(arena) + vectors
}

/// The table's heap is its arena, its trie of `u32` indices (rebuilt
/// here over the same prefixes: a Patricia trie's nodes depend only on
/// its key set), and the edge and AS sets; nothing per prefix beyond
/// the trie.
#[test]
fn routed_table_heap_is_its_arena_trie_and_sets() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let net = Internet::generate(InternetConfig::tiny(5));
    let (table, table_heap) = heap_of(|| RoutedTable::build(&net.announcements));
    let arena = arena_bytes(table.arena());
    let (trie, trie_heap) = heap_of(|| table.iter_indexed().collect::<PrefixTrie<u32>>());
    let (sets, sets_heap) = heap_of(|| {
        let ases: BTreeSet<Asn> = table.ases().collect();
        (table.edges().clone(), ases)
    });
    assert_eq!(trie.len(), table.num_prefixes());
    assert_eq!(sets.1.len(), table.num_ases());
    assert!(
        table.arena().len() < table.num_prefixes(),
        "{} arena entries for {} prefixes: the tiny world shares no row",
        table.arena().len(),
        table.num_prefixes()
    );
    assert!(
        table_heap <= arena + trie_heap + sets_heap,
        "table {table_heap} B > arena {arena} B + trie {trie_heap} B + edge and AS sets {sets_heap} B"
    );
}

/// Release-mode floor, which `ci.sh` runs with `--ignored`: the
/// classifier of the default synthetic Internet (≈11 K prefixes) holds
/// at most 16 MB of live heap: table, compiled lookup, the four cones
/// and the relationships. With a private `RouteInfo` per prefix beside
/// the compiled lookup's own arena it held 29.7 MB.
#[test]
#[ignore = "release-mode floor; ci.sh runs it with --ignored"]
fn classifier_heap_floor_under_16mb() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    let net = Internet::generate(InternetConfig {
        seed: 3,
        ..InternetConfig::default()
    });
    let (classifier, heap) = heap_of(|| Classifier::build(&net.announcements, &net.orgs_dataset));
    assert!(classifier.table().num_prefixes() > 10_000);
    assert!(heap <= 16_000_000, "classifier live heap {heap} B > 16 MB");
}
