//! The compiled classify fast path and its epoch-swap publication.
//!
//! The paper's sequential pipeline (Figure 3: bogon → unrouted →
//! invalid/valid) costs two Patricia-trie walks per flow — one against
//! the bogon list, one against the routed table. [`CompiledClassifier`]
//! fuses both into a **single** [`FrozenLpm`] lookup: the bogon set and
//! the routed table are merged into one prefix map whose entries carry
//! either the matched bogon range or an index into the routed table's
//! interned `RouteInfo` arena (shared, not copied), so one memory walk
//! answers "which rule fires and with what evidence".
//!
//! ## Why the merge is exact
//!
//! Entries are the union of routed prefixes and bogon ranges, with one
//! twist: a routed prefix covered by some bogon range is stored as a
//! `Bogon` entry carrying the most specific covering range. For any
//! address the merged longest-prefix match then reproduces the
//! sequential pipeline:
//!
//! * **Bogon entry wins** ⇒ the address lies inside a bogon range
//!   (either the entry *is* a range, or it is a routed prefix entirely
//!   inside one), and the carried range is exactly
//!   `bogons.lookup(addr)`: any bogon containing the address either is
//!   more specific than the winner (impossible — it is itself an entry
//!   and would have won) or covers the winner, so the most specific
//!   such range is the winner's recorded covering range.
//! * **Routed entry wins** ⇒ no bogon contains the address (a more
//!   specific one would have won; a less specific one would cover the
//!   entry, which would then be stored as `Bogon`), and the entry is
//!   the longest routed match (a longer routed match would have won
//!   unless it was bogon-covered — but then its covering bogon contains
//!   the address, contradicting the first point).
//! * **No match** ⇒ neither list contains the address: Unrouted.
//!
//! The differential property tests in `tests/compiled_diff.rs` pin this
//! argument to the reference two-walk implementation on ≥10⁵ flows.
//!
//! ## Epoch swap
//!
//! RIB refreshes must not stop the world: [`EpochSwap`] is an
//! `ArcSwap`-style publication cell (std only — a mutex-guarded `Arc`
//! plus an epoch counter; the mutex is held only for the pointer clone,
//! never during classification). The streaming runner loads a guard
//! **per chunk**, so a rebuilt classifier published mid-run takes
//! effect at the next chunk boundary and the old epoch is retired when
//! the last in-flight chunk drops its `Arc`. [`EpochClassifier`] adds
//! the [`RibFreshness`]-driven trigger: `refresh_due` compares the
//! newest collector snapshot against the epoch's build input, and
//! `refresh` rebuilds off-thread and publishes atomically.

use crate::freshness::RibFreshness;
use crate::pipeline::Classifier;
use spoofwatch_bgp::{RouteInfo, RoutedTable};
use spoofwatch_net::Ipv4Prefix;
use spoofwatch_obs::MetricsRegistry;
use spoofwatch_trie::{FrozenLpm, PrefixSet, PrefixTrie};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Batch code for "no routed or bogon match" — see
/// [`CompiledClassifier::batch_code`].
pub(crate) const BATCH_UNROUTED: u32 = u32::MAX;
/// Batch code for "bogon range matched". Info-arena indices are always
/// below this (asserted at compile time of the table), so the three
/// cases share one `u32` without ambiguity.
pub(crate) const BATCH_BOGON: u32 = u32::MAX - 1;

/// One slot of the merged prefix map. `Copy` and 8 bytes, so the frozen
/// leaf array stays dense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CompiledEntry {
    /// The prefix resolves to the bogon rule; `range` is the most
    /// specific bogon range covering it (for a bogon member prefix,
    /// itself).
    Bogon {
        /// The reserved range to report as evidence.
        range: Ipv4Prefix,
    },
    /// The prefix is routed (and not bogon-covered); the payload
    /// indexes the `RouteInfo` arena.
    Routed {
        /// Index into [`CompiledClassifier`]'s info arena.
        info: u32,
    },
}

/// The outcome of one fused lookup: which sequential rule fires for
/// this source address, with the evidence the provenance path needs.
#[derive(Debug, Clone, Copy)]
pub enum CompiledLookup<'a> {
    /// The address lies in a reserved range — the pipeline's first rule.
    Bogon {
        /// The most specific bogon range containing the address.
        range: Ipv4Prefix,
    },
    /// The address is neither bogon nor covered by any routed prefix.
    Unrouted,
    /// The address has a longest routed match outside bogon space.
    Routed {
        /// The matched (most specific) routed prefix.
        prefix: Ipv4Prefix,
        /// Its origin/on-path data.
        info: &'a RouteInfo,
    },
}

/// The bogon set, routed table, and per-prefix route info fused into a
/// single frozen longest-prefix-match table — the classify hot path's
/// one memory walk. Immutable; rebuild via [`CompiledClassifier::compile`]
/// and publish through an [`EpochSwap`].
#[derive(Debug)]
pub struct CompiledClassifier {
    lpm: FrozenLpm<CompiledEntry>,
    /// The routed table's interned info arena, shared rather than
    /// copied: `Routed` entries carry the table's own arena indices.
    infos: Arc<[RouteInfo]>,
    /// `leaf code → batch code`: index 0 is the LPM miss
    /// ([`BATCH_UNROUTED`]), index `c ≥ 1` resolves leaf `c` to either
    /// [`BATCH_BOGON`] or its info-arena index.
    code_map: Vec<u32>,
}

impl CompiledClassifier {
    /// Merge `bogons` and `table` into one compiled lookup structure.
    ///
    /// Route infos come from the table's interned arena: prefixes with
    /// identical origin/on-path sets (the common case — one AS
    /// originating many prefixes) share one entry, the compiled table
    /// holds a reference to the arena and no copy of any info, and the
    /// batch path's verdict memo keys on a small dense index space.
    pub fn compile(bogons: &PrefixSet, table: &RoutedTable) -> CompiledClassifier {
        let infos = Arc::clone(table.arena());
        let mut merged: PrefixTrie<CompiledEntry> = PrefixTrie::new();
        for (prefix, info) in table.iter_indexed() {
            // A routed prefix entirely inside a bogon range can never
            // produce a routed verdict (the bogon rule fires first), so
            // it is stored pre-resolved — see the module docs for why
            // the covering range is exactly what a two-walk lookup
            // would report.
            let entry = match bogons.covering(&prefix) {
                Some(range) => CompiledEntry::Bogon { range },
                None => CompiledEntry::Routed { info },
            };
            merged.insert(prefix, entry);
        }
        for range in bogons.iter() {
            merged.insert(range, CompiledEntry::Bogon { range });
        }
        assert!(
            (infos.len() as u64) < BATCH_BOGON as u64,
            "info arena overflows the batch code space"
        );
        let lpm = merged.freeze();
        // Leaf code c ≥ 1 is leaf index c - 1 in iteration order.
        let mut code_map = Vec::with_capacity(lpm.len() + 1);
        code_map.push(BATCH_UNROUTED);
        for (_, entry) in lpm.iter() {
            code_map.push(match entry {
                CompiledEntry::Bogon { .. } => BATCH_BOGON,
                CompiledEntry::Routed { info } => *info,
            });
        }
        CompiledClassifier {
            lpm,
            infos,
            code_map,
        }
    }

    /// The fused lookup: one frozen-table walk decides which sequential
    /// rule fires for `addr` and returns its evidence.
    #[inline]
    pub fn lookup(&self, addr: u32) -> CompiledLookup<'_> {
        match self.lpm.lookup(addr) {
            None => CompiledLookup::Unrouted,
            Some((_, CompiledEntry::Bogon { range })) => CompiledLookup::Bogon { range: *range },
            Some((prefix, CompiledEntry::Routed { info })) => CompiledLookup::Routed {
                prefix,
                info: &self.infos[*info as usize],
            },
        }
    }

    /// Raw frozen-table leaf codes for a probe column (replacing
    /// `out`), exactly what per-address [`CompiledClassifier::lookup`]
    /// calls would hit. `crate::batch` resolves them through
    /// [`CompiledClassifier::batch_code`] inside its class-assembly
    /// pass instead of paying a separate sweep.
    pub(crate) fn leaf_codes_into(&self, srcs: &[u32], out: &mut Vec<u32>) {
        out.clear();
        self.lpm.lookup_codes_into(srcs, out);
    }

    /// The batch code a raw leaf code resolves to: [`BATCH_UNROUTED`],
    /// [`BATCH_BOGON`], or an info-arena index for
    /// [`CompiledClassifier::info_at`]. The map is dense, one `u32` per
    /// entry — about 1 % of the lookup table's chunks — so it stays
    /// cache-hot.
    #[inline]
    pub(crate) fn batch_code(&self, leaf_code: u32) -> u32 {
        self.code_map[leaf_code as usize]
    }

    /// The interned [`RouteInfo`] behind an info-arena batch code.
    /// Panics on [`BATCH_UNROUTED`] / [`BATCH_BOGON`] or a foreign index.
    #[inline]
    pub(crate) fn info_at(&self, idx: u32) -> &RouteInfo {
        &self.infos[idx as usize]
    }

    /// Entries in the merged table (routed prefixes + bogon ranges).
    pub fn len(&self) -> usize {
        self.lpm.len()
    }

    /// Whether the merged table is empty.
    pub fn is_empty(&self) -> bool {
        self.lpm.is_empty()
    }

    /// Nominal size of the compiled structures in bytes: the frozen
    /// table's arrays ([`FrozenLpm::memory_bytes`]) plus one
    /// `RouteInfo` header (two `Vec`s) per info-arena entry. Not
    /// counted: the `origins` / `on_path` vectors those headers point
    /// to, and the leaf-code map (4 B per entry). The arena, vectors
    /// included, is the routed table's, shared by reference. So this is
    /// a lower bound on the heap a classifier holds for its compiled
    /// lookup, not the resident size.
    pub fn memory_bytes(&self) -> usize {
        self.lpm.memory_bytes() + self.infos.len() * std::mem::size_of::<RouteInfo>()
    }
}

/// An `ArcSwap`-style publication cell in plain std: readers clone the
/// current `Arc` under a briefly-held mutex (per *chunk*, not per
/// flow), writers replace it atomically and bump the epoch. Old values
/// live exactly until the last outstanding guard drops — no
/// stop-the-world, no torn reads.
#[derive(Debug)]
pub struct EpochSwap<T> {
    current: Mutex<Arc<T>>,
    epoch: AtomicU64,
}

impl<T> EpochSwap<T> {
    /// A cell holding `initial` at epoch 0.
    pub fn new(initial: T) -> EpochSwap<T> {
        EpochSwap {
            current: Mutex::new(Arc::new(initial)),
            epoch: AtomicU64::new(0),
        }
    }

    /// A guard on the current value. Holders keep their epoch alive
    /// until the guard drops; publications never invalidate it.
    pub fn load(&self) -> Arc<T> {
        Arc::clone(
            &self
                .current
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner()),
        )
    }

    /// Publish `next` as the new current value, returning the new epoch
    /// number. In-flight guards on the old value are unaffected; the
    /// old value is dropped when the last of them is.
    pub fn publish(&self, next: T) -> u64 {
        let next = Arc::new(next);
        {
            let mut cur = self
                .current
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            *cur = next;
        }
        self.epoch.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// How many publications have happened (0 for the initial value).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }
}

/// A classifier published through an [`EpochSwap`], with the
/// freshness-driven rebuild protocol: when [`RibFreshness`] reports a
/// collector snapshot newer than the inputs of the current epoch,
/// [`EpochClassifier::refresh`] rebuilds **off-thread** and publishes
/// atomically while readers keep classifying against the old epoch.
pub struct EpochClassifier {
    swap: Arc<EpochSwap<Classifier>>,
    /// Timestamp (study time, the `RibFreshness` clock) of the newest
    /// RIB snapshot incorporated into the current-or-building epoch.
    /// Shared with the rebuild thread, which restores the previous value
    /// if its build panics.
    built_at: Arc<AtomicU64>,
    rebuild: Mutex<Option<JoinHandle<u64>>>,
    /// Where rebuilds are counted and timed: the process-global registry
    /// unless [`with_metrics`](Self::with_metrics) names another.
    metrics: Arc<MetricsRegistry>,
}

impl EpochClassifier {
    /// Wrap `initial`, recording `built_at` as the snapshot time of the
    /// data it was built from.
    pub fn new(initial: Classifier, built_at: u64) -> EpochClassifier {
        EpochClassifier {
            swap: Arc::new(EpochSwap::new(initial)),
            built_at: Arc::new(AtomicU64::new(built_at)),
            rebuild: Mutex::new(None),
            metrics: Arc::clone(spoofwatch_obs::global()),
        }
    }

    /// Count and time rebuilds on `registry` instead of the global one.
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> EpochClassifier {
        self.metrics = registry;
        self
    }

    /// The underlying swap cell — hand this to
    /// [`StudyRunner::new_epoch`](crate::runner::StudyRunner::new_epoch)
    /// so the runner picks up publications at chunk boundaries.
    pub fn swap(&self) -> &EpochSwap<Classifier> {
        &self.swap
    }

    /// A guard on the current classifier epoch.
    pub fn current(&self) -> Arc<Classifier> {
        self.swap.load()
    }

    /// The current epoch number (publications so far).
    pub fn epoch(&self) -> u64 {
        self.swap.epoch()
    }

    /// Snapshot time of the newest RIB data incorporated into the
    /// current (or currently building) epoch.
    pub fn built_at(&self) -> u64 {
        self.built_at.load(Ordering::SeqCst)
    }

    /// Whether `freshness` has seen a collector snapshot newer than the
    /// data this epoch was built from — i.e. a rebuild would actually
    /// incorporate new routing data.
    pub fn refresh_due(&self, freshness: &RibFreshness, now: u64) -> bool {
        freshness
            .best_age(now)
            .is_some_and(|age| now.saturating_sub(age) > self.built_at())
    }

    /// Kick off an off-thread rebuild: `build` runs on a fresh thread
    /// and its result is published into the swap cell when done.
    /// Returns `false` (and does nothing) if a rebuild is already in
    /// flight — refresh triggers are level-based, so a slow build
    /// coalesces later triggers instead of stacking threads.
    /// `snapshot_ts` is recorded as the new `built_at` immediately, so
    /// `refresh_due` stops firing for data the in-flight build already
    /// covers. If `build` panics, nothing is published, `built_at` goes
    /// back to its previous value so the snapshot stays due, and
    /// `spoofwatch_classifier_rebuild_failures_total` counts the failure.
    pub fn refresh<F>(&self, snapshot_ts: u64, build: F) -> bool
    where
        F: FnOnce() -> Classifier + Send + 'static,
    {
        let mut guard = self
            .rebuild
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if guard.as_ref().is_some_and(|h| !h.is_finished()) {
            return false;
        }
        if let Some(done) = guard.take() {
            let _ = done.join(); // reap the finished predecessor
        }
        let previous = self.built_at.swap(snapshot_ts, Ordering::SeqCst);
        let built_at = Arc::clone(&self.built_at);
        let swap = Arc::clone(&self.swap);
        let reg = Arc::clone(&self.metrics);
        *guard = Some(std::thread::spawn(move || {
            let started = Instant::now();
            let next = match panic::catch_unwind(AssertUnwindSafe(build)) {
                Ok(next) => next,
                Err(payload) => {
                    let _ = built_at.compare_exchange(
                        snapshot_ts,
                        previous,
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    );
                    reg.counter(
                        "spoofwatch_classifier_rebuild_failures_total",
                        "Classifier rebuilds whose build panicked; nothing was published",
                        &[],
                    )
                    .inc();
                    panic::resume_unwind(payload);
                }
            };
            reg.histogram(
                "spoofwatch_classifier_build_duration_ns",
                "Wall time of each refresh-protocol classifier build, in nanoseconds",
                &[],
            )
            .record(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
            let epoch = swap.publish(next);
            reg.counter(
                "spoofwatch_classifier_rebuilds_total",
                "Classifier epochs rebuilt and published by the refresh protocol",
                &[],
            )
            .inc();
            reg.gauge(
                "spoofwatch_classifier_epoch",
                "Current classifier epoch (publications since process start)",
                &[],
            )
            .set(i64::try_from(epoch).unwrap_or(i64::MAX));
            epoch
        }));
        true
    }

    /// Block until the in-flight rebuild (if any) has published,
    /// returning the epoch it produced, or `None` if its build panicked.
    /// Test and shutdown hook; the streaming path never needs to wait.
    pub fn wait_for_rebuild(&self) -> Option<u64> {
        let handle = self
            .rebuild
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .take()?;
        handle.join().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl CompiledClassifier {
        /// Test hook: empty the info arena, so the next routed verdict
        /// panics on its arena index (nothing else in the classify
        /// path can be made to panic from outside).
        pub(crate) fn clear_infos(&mut self) {
            self.infos = Arc::new([]);
        }
    }

    fn one_prefix_classifier() -> Classifier {
        use spoofwatch_asgraph::As2Org;
        use spoofwatch_bgp::{Announcement, AsPath};
        let route = Announcement::new(
            "20.0.0.0/8".parse().expect("prefix"),
            AsPath::from(vec![1, 2]),
        );
        Classifier::build(&[route], &As2Org::new())
    }

    #[test]
    fn panicking_rebuild_leaves_its_snapshot_due_and_counts_the_failure() {
        let reg = MetricsRegistry::new();
        let epoch =
            EpochClassifier::new(one_prefix_classifier(), 1_000).with_metrics(Arc::clone(&reg));
        let mut freshness = RibFreshness::new();
        freshness.register("rrc00");
        freshness.record_snapshot("rrc00", 2_000);
        assert!(epoch.refresh_due(&freshness, 5_000));

        assert!(epoch.refresh(2_000, || panic!("injected build failure")));
        assert_eq!(epoch.wait_for_rebuild(), None, "nothing published");
        assert_eq!(epoch.epoch(), 0);
        assert_eq!(epoch.built_at(), 1_000, "the snapshot is not incorporated");
        assert!(epoch.refresh_due(&freshness, 5_000), "so it is still due");
        let snap = reg.snapshot();
        let counter = |name: &str| snap.counter(name, &[]);
        let failures = counter("spoofwatch_classifier_rebuild_failures_total");
        assert_eq!(failures, Some(1), "and the failure is counted");
        assert_eq!(counter("spoofwatch_classifier_rebuilds_total"), None);

        // The retry incorporates it.
        assert!(epoch.refresh(2_000, one_prefix_classifier));
        assert_eq!(epoch.wait_for_rebuild(), Some(1));
        assert_eq!(epoch.built_at(), 2_000);
        assert!(!epoch.refresh_due(&freshness, 5_000));
    }

    #[test]
    fn refresh_times_each_published_build() {
        let reg = MetricsRegistry::new();
        let epoch = EpochClassifier::new(one_prefix_classifier(), 0).with_metrics(Arc::clone(&reg));
        assert!(epoch.refresh(1, move || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            one_prefix_classifier()
        }));
        assert_eq!(epoch.wait_for_rebuild(), Some(1));
        let snap = reg.snapshot();
        let builds = snap
            .histogram("spoofwatch_classifier_build_duration_ns", &[])
            .expect("registered by the rebuild");
        assert_eq!(builds.count, 1);
        assert!(builds.sum >= 2_000_000, "the build slept 2 ms");
        let rebuilds = snap.counter("spoofwatch_classifier_rebuilds_total", &[]);
        assert_eq!(rebuilds, Some(1));
    }

    #[test]
    fn epoch_swap_publish_and_load() {
        let swap = EpochSwap::new(1u32);
        assert_eq!(swap.epoch(), 0);
        let old = swap.load();
        assert_eq!(swap.publish(2), 1);
        assert_eq!(swap.publish(3), 2);
        assert_eq!(*old, 1, "in-flight guard keeps its epoch");
        assert_eq!(*swap.load(), 3);
        assert_eq!(swap.epoch(), 2);
    }

    #[test]
    fn epoch_swap_concurrent_readers_never_tear() {
        let swap = Arc::new(EpochSwap::new(0u64));
        let stop = Arc::new(AtomicU64::new(0));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let swap = Arc::clone(&swap);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    while stop.load(Ordering::Relaxed) == 0 {
                        let v = *swap.load();
                        assert!(v >= last, "value regressed: {v} < {last}");
                        last = v;
                    }
                })
            })
            .collect();
        for v in 1..=100 {
            swap.publish(v);
        }
        stop.store(1, Ordering::Relaxed);
        for r in readers {
            r.join().expect("reader");
        }
        assert_eq!(*swap.load(), 100);
    }

    /// Release-mode floor, which `ci.sh` runs with `--ignored`: a
    /// `FrozenLpm` answers lookups at least 2× faster than the
    /// `PrefixTrie` it was frozen from, with 0, 1 and 5 % of the probes
    /// inside a bogon range. The table is every announced prefix of the
    /// default synthetic Internet (≈12 K prefixes, /8 to /24); best of 5
    /// passes over 10 000 probes per mix, the two timed alternately.
    #[test]
    #[ignore = "release-mode timing floor; ci.sh runs it with --ignored"]
    fn frozen_lpm_floor_2x_trie_at_each_bogon_mix() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        use spoofwatch_internet::{bogon, Internet, InternetConfig};
        use std::hint::black_box;
        fn hits(probes: &[u32], hit: impl Fn(u32) -> bool) -> usize {
            probes.iter().filter(|&&addr| hit(black_box(addr))).count()
        }
        let net = Internet::generate(InternetConfig {
            seed: 3,
            ..InternetConfig::default()
        });
        let trie: PrefixTrie<u32> = net
            .topology
            .ases()
            .flat_map(|a| a.prefixes.iter().copied())
            .zip(0..)
            .collect();
        let frozen: FrozenLpm<u32> = trie.freeze();
        let bogons = bogon::bogon_set();
        let ranges: Vec<Ipv4Prefix> = bogons.iter().collect();
        for bogon_pct in [0u32, 1, 5] {
            let mut rng = StdRng::seed_from_u64(0xF0 + u64::from(bogon_pct));
            let probes: Vec<u32> = (0..10_000)
                .map(|_| {
                    if rng.random_ratio(bogon_pct, 100) {
                        let r = ranges[rng.random_range(0..ranges.len())];
                        let host = u32::MAX.checked_shr(u32::from(r.len())).unwrap_or(0);
                        r.bits() | (rng.random::<u32>() & host)
                    } else {
                        // Outside every bogon range, routed or not.
                        loop {
                            let addr: u32 = rng.random();
                            if !bogons.contains_addr(addr) {
                                break addr;
                            }
                        }
                    }
                })
                .collect();
            let (frozen_t, trie_t) = crate::pipeline::floors::best_alternating(
                5,
                || {
                    black_box(hits(&probes, |a| frozen.lookup(a).is_some()));
                },
                || {
                    black_box(hits(&probes, |a| trie.lookup(a).is_some()));
                },
            );
            let ratio = trie_t.as_secs_f64() / frozen_t.as_secs_f64();
            assert!(
                ratio >= 2.0,
                "{bogon_pct}% bogon: frozen {frozen_t:?} vs trie {trie_t:?}: {ratio:.1}x < 2x"
            );
        }
    }

    /// Release-mode floor, which `ci.sh` runs with `--ignored`: the
    /// compiled table of the default synthetic Internet (≈11 K entries)
    /// takes at most 8 MB, as [`CompiledClassifier::memory_bytes`]
    /// counts it: the frozen table's arrays, which its build writes in
    /// full, and the arena's `RouteInfo` headers. The vectors behind
    /// those headers and the leaf-code map are not counted, so the live
    /// heap is larger; `tests/classifier_footprint.rs` bounds the
    /// classifier's whole live heap.
    #[test]
    #[ignore = "release-mode floor; ci.sh runs it with --ignored"]
    fn compiled_memory_floor_under_8mb() {
        use spoofwatch_internet::{Internet, InternetConfig};
        let net = Internet::generate(InternetConfig {
            seed: 3,
            ..InternetConfig::default()
        });
        let c = Classifier::build(&net.announcements, &net.orgs_dataset);
        let bytes = c.compiled().memory_bytes();
        assert!(bytes <= 8_000_000, "compiled table {bytes} B > 8 MB");
    }

    /// Release-mode floor, which `ci.sh` runs with `--ignored`: the
    /// fused single-walk ladder (`floors::classify_fused`: one compiled
    /// lookup and one cone check per flow) beats the two-trie-walk
    /// oracle `classify_with_tries` over 20 000 synthetic flows, best
    /// of 5, the two timed alternately.
    #[test]
    #[ignore = "release-mode timing floor; ci.sh runs it with --ignored"]
    fn fused_classify_floor_beats_two_trie_walks() {
        use spoofwatch_net::{FlowRecord, InferenceMethod, OrgMode, TrafficClass};
        use crate::pipeline::floors::classify_fused;
        use std::hint::black_box;
        fn tally(flows: &[FlowRecord], classify: impl Fn(&FlowRecord) -> TrafficClass) -> usize {
            flows.iter().map(|f| classify(black_box(f)).index()).sum()
        }
        let (c, flows) = crate::pipeline::floors::trace();
        let (method, org) = (InferenceMethod::FullCone, OrgMode::OrgAdjusted);
        let (fused, tries) = crate::pipeline::floors::best_alternating(
            5,
            || {
                black_box(tally(&flows, |f| classify_fused(&c, f, method, org)));
            },
            || {
                black_box(tally(&flows, |f| c.classify_with_tries(f, method, org)));
            },
        );
        let ratio = tries.as_secs_f64() / fused.as_secs_f64();
        assert!(
            ratio > 1.0,
            "fused classify {fused:?} vs classify_with_tries {tries:?}: {ratio:.2}x"
        );
    }
}
