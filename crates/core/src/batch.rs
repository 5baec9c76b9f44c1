//! The classify path: one batch kernel over structure-of-arrays input.
//!
//! Every production classification goes through one kernel
//! (`Classifier::kernel`); [`Classifier::classify_with_tries`] is its
//! reference oracle, and [`Classifier::classify_explain`] says why one
//! picked flow got its class. A record-at-a-time ladder would spend its
//! time in three places: the fused LPM probe (two or three dependent
//! loads into the ≈5 MB stride table, which random sources miss in
//! cache), the cone validity check (hash lookups + bitset probe per
//! origin), and per-record overhead. The kernel attacks all three:
//!
//! * **Columnar probes** — the [`FlowBatch`]'s `src` column goes through
//!   `CompiledClassifier::leaf_codes_into`: a dense loop of independent
//!   probes whose branch-free chunk loads the core overlaps instead of
//!   serializing them behind per-record work.
//! * **Memoized verdicts** — routed codes are interned info-arena
//!   indices, so the cone verdict is a pure function of
//!   `(member, info index, variant)`. [`VerdictMemo`] is a direct-mapped
//!   cache over that key, filled by one routine that computes only the
//!   variants of the caller's mask the slot does not know yet; flow
//!   locality makes most verdicts a single compare + bit test.
//! * **No per-record structures** — all working state lives in a
//!   [`BatchScratch`] that callers (or the thread-local behind the
//!   record-slice entry points) reuse across batches, so steady-state
//!   classification performs **zero heap allocations** (asserted by
//!   `tests/batch_alloc.rs` with a counting allocator).
//!
//! The kernel yields one [`Verdict`] per record; the public entry
//! points project it — one variant's bit to a [`TrafficClass`], or all
//! five bits to a class row.
//!
//! ## Exactness
//!
//! The kernel equals the oracle by construction: the code column is
//! what per-address `lookup` calls decide (`tests/compiled_diff.rs`
//! pins the compiled table to the two trie walks); the memo key plus
//! the classifier's build `uid` captures every input of the pure
//! `valid_under_parts`; and class assembly is the same Bogon → Unrouted
//! → Invalid/Valid ladder. `tests/batch_diff.rs` pins the kernel to
//! `classify_with_tries` per flow across all five variants, and with
//! whole-run byte-identity (rollup rings, incident logs, disagreement
//! matrices).

use crate::compiled::{BATCH_BOGON, BATCH_UNROUTED};
use crate::pipeline::Classifier;
use crate::provenance::{MethodVariant, METHOD_VARIANTS};
use spoofwatch_net::{Asn, FlowBatch, FlowRecord, InferenceMethod, OrgMode, TrafficClass};
use std::cell::RefCell;

/// Slots in the direct-mapped verdict memo. 4096 × 10 bytes ≈ 40 KiB —
/// sized to sit in L2 next to the code map while still covering far
/// more `(member, prefix-info)` pairs than a study window touches.
const MEMO_SLOTS: usize = 4096;

/// All five variant bits set — the mask of the all-variants projection.
const ALL_VARIANTS: u8 = 0x1F;

/// A direct-mapped cache of cone verdicts, keyed by
/// `(member, info index)` with one valid bit and one known bit per
/// method variant. Soundness: `Classifier::valid_under_parts` is a pure
/// function of exactly that key (plus the variant), and the classifier
/// build `uid` guards against an info index meaning something else
/// after an epoch swap.
#[derive(Debug)]
struct VerdictMemo {
    /// `(member << 32) | info_index`; `u64::MAX` = empty (unreachable
    /// as a real key: info indices never reach `u32::MAX`).
    keys: Vec<u64>,
    /// Verdict bit per variant (only meaningful where `known` is set).
    valid: Vec<u8>,
    /// Which variant bits of `valid` have been computed.
    known: Vec<u8>,
    /// The classifier build this memo's contents belong to.
    uid: u64,
}

impl Default for VerdictMemo {
    fn default() -> VerdictMemo {
        VerdictMemo {
            keys: vec![u64::MAX; MEMO_SLOTS],
            valid: vec![0; MEMO_SLOTS],
            known: vec![0; MEMO_SLOTS],
            uid: 0,
        }
    }
}

impl VerdictMemo {
    /// Invalidate everything if the scratch last served a different
    /// classifier build (epoch swap, tests juggling classifiers).
    fn ensure(&mut self, uid: u64) {
        if self.uid != uid {
            self.keys.fill(u64::MAX);
            self.known.fill(0);
            self.uid = uid;
        }
    }

    /// Fibonacci-hash the key into a slot index (top 12 bits of the
    /// multiplied key — the golden-ratio constant spreads both the
    /// member and the info-index halves).
    #[inline]
    fn slot(key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 52) as usize
    }

    /// The verdicts of the variants in `want` (bit `i` =
    /// `METHOD_VARIANTS[i]`) as a bit vector, filling in whichever of
    /// them the slot does not know yet. Bits outside `want` read 0.
    #[inline]
    fn valid_bits(
        &mut self,
        member: u32,
        info_idx: u32,
        want: u8,
        compute: impl Fn(MethodVariant) -> bool,
    ) -> u8 {
        let key = (u64::from(member) << 32) | u64::from(info_idx);
        let s = Self::slot(key);
        if self.keys[s] != key {
            self.keys[s] = key;
            self.known[s] = 0;
            self.valid[s] = 0;
        }
        let missing = want & !self.known[s];
        if missing != 0 {
            self.fill(s, missing, compute);
        }
        self.valid[s] & want
    }

    /// Compute and cache the `missing` variants of slot `s`. Out of
    /// line so the per-record loop carries only the hit path.
    #[cold]
    #[inline(never)]
    fn fill(&mut self, s: usize, missing: u8, compute: impl Fn(MethodVariant) -> bool) {
        for (i, v) in METHOD_VARIANTS.iter().enumerate() {
            let bit = 1u8 << i;
            if missing & bit != 0 {
                if compute(*v) {
                    self.valid[s] |= bit;
                }
                self.known[s] |= bit;
            }
        }
    }
}

/// Reusable working state for the batch classify path: the transpose
/// arena, the code column, and the verdict memo. Create once, pass to
/// every `classify_batch_into` call; all growth happens on the first
/// few batches, after which classification is allocation-free.
#[derive(Debug, Default)]
pub struct BatchScratch {
    /// Transpose arena for the record-slice entry points.
    batch: FlowBatch,
    /// Leaf codes, one per record (filled by the compiled classifier).
    codes: Vec<u32>,
    memo: VerdictMemo,
}

impl BatchScratch {
    /// Fresh scratch with no reserved capacity (columns grow on first
    /// use and then stay).
    pub fn new() -> BatchScratch {
        BatchScratch::default()
    }
}

thread_local! {
    /// Per-thread scratch behind the record-slice entry points. Runner
    /// worker threads are long-lived, so this amortizes to zero
    /// allocations per chunk in steady state.
    static TLS_SCRATCH: RefCell<BatchScratch> = RefCell::new(BatchScratch::new());
}

/// Transpose `flows` into the per-thread arena and run `f` over the
/// columns with the rest of the per-thread scratch.
fn with_transposed<R>(
    flows: &[FlowRecord],
    f: impl FnOnce(&FlowBatch, &mut BatchScratch) -> R,
) -> R {
    TLS_SCRATCH.with(|cell| {
        let mut scratch = cell.borrow_mut();
        // Detach the arena so the batch and the rest of the scratch
        // can be borrowed simultaneously; restored below.
        let mut batch = std::mem::take(&mut scratch.batch);
        batch.clear();
        batch.extend_from_records(flows);
        let result = f(&batch, &mut scratch);
        scratch.batch = batch;
        result
    })
}

/// What the kernel decides for one record: the sequential rule that
/// fired and, for a routed source, the verdict bits of the wanted
/// variants (bit `i` set ⇔ `METHOD_VARIANTS[i]` says valid).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Bogon,
    Unrouted,
    Routed(u8),
}

impl Verdict {
    /// The class under the variant whose bit is `bit`.
    fn class(self, bit: u8) -> TrafficClass {
        match self {
            Verdict::Bogon => TrafficClass::Bogon,
            Verdict::Unrouted => TrafficClass::Unrouted,
            Verdict::Routed(bits) if bits & bit != 0 => TrafficClass::Valid,
            Verdict::Routed(_) => TrafficClass::Invalid,
        }
    }
}

impl Classifier {
    /// The one columnar classify loop: replace `out` with
    /// `project(verdict)` per record of `batch`, where the verdict
    /// carries the variants named by the `want` mask. A single fused
    /// pass — leaf code → batch code → memoized verdict bits — zipped
    /// over the code and member columns (no per-record indexing).
    fn kernel<T>(
        &self,
        batch: &FlowBatch,
        want: u8,
        scratch: &mut BatchScratch,
        out: &mut Vec<T>,
        project: impl Fn(Verdict) -> T,
    ) {
        debug_assert!(batch.columns_aligned());
        let compiled = self.compiled();
        compiled.leaf_codes_into(&batch.src, &mut scratch.codes);
        scratch.memo.ensure(self.uid());
        let memo = &mut scratch.memo;
        out.clear();
        out.extend(scratch.codes.iter().zip(&batch.member).map(|(&leaf, &member)| {
            project(match compiled.batch_code(leaf) {
                BATCH_UNROUTED => Verdict::Unrouted,
                BATCH_BOGON => Verdict::Bogon,
                idx => Verdict::Routed(memo.valid_bits(member, idx, want, |variant| {
                    self.valid_under_parts(Asn(member), compiled.info_at(idx), variant)
                })),
            })
        }));
    }

    /// Classify a whole [`FlowBatch`] under one method variant,
    /// replacing `out` with one class per record (index-aligned with
    /// the batch). Equal to `classify_with_tries` on every gathered
    /// record; see the module docs for the exactness argument.
    pub fn classify_batch_into(
        &self,
        batch: &FlowBatch,
        method: InferenceMethod,
        org: OrgMode,
        scratch: &mut BatchScratch,
        out: &mut Vec<TrafficClass>,
    ) {
        let bit = 1u8 << MethodVariant::index_of(method, org);
        self.kernel(batch, bit, scratch, out, |v| v.class(bit));
    }

    /// Batch-classify a record slice through the per-thread scratch:
    /// transpose into the thread-local arena, run the columnar path,
    /// return the classes: zero steady-state allocations beyond the
    /// returned vector.
    pub fn classify_records_batched(
        &self,
        flows: &[FlowRecord],
        method: InferenceMethod,
        org: OrgMode,
    ) -> Vec<TrafficClass> {
        let mut out = Vec::new();
        with_transposed(flows, |batch, scratch| {
            self.classify_batch_into(batch, method, org, scratch, &mut out)
        });
        out
    }

    /// Batch-classify a record slice under all five variants at once
    /// through the per-thread scratch: slot `j` of row `i` is the class
    /// of `flows[i]` under `METHOD_VARIANTS[j]`. One code probe and at
    /// most one memo fill serve all five.
    pub fn classify_variants_records_batched(
        &self,
        flows: &[FlowRecord],
    ) -> Vec<[TrafficClass; 5]> {
        let mut out = Vec::new();
        with_transposed(flows, |batch, scratch| {
            self.kernel(batch, ALL_VARIANTS, scratch, &mut out, |v| {
                std::array::from_fn(|j| v.class(1 << j))
            })
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn memo_slot_is_in_range() {
        for key in [0u64, 1, u64::MAX - 1, 0xDEAD_BEEF_CAFE_F00D] {
            assert!(VerdictMemo::slot(key) < MEMO_SLOTS);
        }
    }

    #[test]
    fn memo_caches_and_invalidates() {
        let mut memo = VerdictMemo::default();
        memo.ensure(7);
        let calls = Cell::new(0);
        let bits = memo.valid_bits(42, 13, 1 << 3, |_| {
            calls.set(calls.get() + 1);
            true
        });
        assert_eq!(bits, 1 << 3);
        assert_eq!(calls.get(), 1);
        // Hit: the closure must not run again.
        let bits = memo.valid_bits(42, 13, 1 << 3, |_| {
            calls.set(calls.get() + 1);
            false // would flip the verdict if consulted
        });
        assert_eq!(bits, 1 << 3);
        assert_eq!(calls.get(), 1);
        // Different variant on the same key: computed, same slot.
        assert_eq!(memo.valid_bits(42, 13, 1 << 4, |_| false), 0);
        // New classifier uid: everything recomputes.
        memo.ensure(8);
        assert_eq!(memo.valid_bits(42, 13, 1 << 3, |_| false), 0);
    }

    #[test]
    fn memo_valid_all_completes_partial_slots() {
        let mut memo = VerdictMemo::default();
        memo.ensure(1);
        memo.valid_bits(5, 9, 1 << 2, |_| true);
        // A wider mask over a partly known slot computes exactly the
        // missing variants, each once.
        let asked = Cell::new(0u8);
        let bits = memo.valid_bits(5, 9, ALL_VARIANTS, |v| {
            let bit = 1 << MethodVariant::index_of(v.method, v.org);
            assert_eq!(asked.get() & bit, 0, "{v} computed twice");
            asked.set(asked.get() | bit);
            v.method == InferenceMethod::Naive
        });
        assert_eq!(asked.get(), ALL_VARIANTS & !(1 << 2), "bit 2 was cached");
        // Bit 2 keeps its cached verdict; the rest follow the closure
        // (variant 0 is Naive).
        assert_eq!(bits, 0b00101);
        // Fully known now: closure unused, under any mask, and a
        // narrower mask reads only its own bits.
        assert_eq!(memo.valid_bits(5, 9, ALL_VARIANTS, |_| panic!("must be cached")), bits);
        assert_eq!(memo.valid_bits(5, 9, 0b00110, |_| panic!("must be cached")), 0b00100);
    }

    /// The kernel under *every* non-empty variant mask: Bogon and
    /// Unrouted are mask-independent, and a routed record's bits are
    /// exactly the mask's variants that the oracle calls Valid —
    /// also when the memo was left partly filled by a narrower or
    /// disjoint mask (the masks run in one scratch, 1 through 31).
    #[test]
    fn kernel_bits_equal_classify_with_under_every_mask() {
        use spoofwatch_internet::{Internet, InternetConfig};
        use spoofwatch_ixp::{Trace, TrafficConfig};
        let net = Internet::generate(InternetConfig::tiny(11));
        let classifier = Classifier::build(&net.announcements, &net.orgs_dataset);
        let flows = Trace::generate(&net, &TrafficConfig::tiny(12)).flows;
        let expect: Vec<Verdict> = flows
            .iter()
            .map(|f| {
                let classes =
                    METHOD_VARIANTS.map(|v| classifier.classify_with_tries(f, v.method, v.org));
                match classes[0] {
                    TrafficClass::Bogon => Verdict::Bogon,
                    TrafficClass::Unrouted => Verdict::Unrouted,
                    _ => Verdict::Routed(
                        (0..5).filter(|&i| classes[i] == TrafficClass::Valid).map(|i| 1 << i).sum(),
                    ),
                }
            })
            .collect();
        let split = expect.iter().filter(|v| matches!(v, Verdict::Routed(b) if *b != 0 && *b != ALL_VARIANTS));
        assert!(split.count() > 100, "the probes must include variant disagreement");
        let batch = FlowBatch::from_records(&flows);
        let mut scratch = BatchScratch::new();
        let mut out = Vec::new();
        for want in 1..=ALL_VARIANTS {
            classifier.kernel(&batch, want, &mut scratch, &mut out, |v| v);
            let masked = expect.iter().map(|v| match v {
                Verdict::Routed(bits) => Verdict::Routed(bits & want),
                fixed => *fixed,
            });
            assert!(out.iter().copied().eq(masked), "mask {want:#07b}");
        }
    }

    /// Release-mode floor, which `ci.sh` runs with `--ignored`:
    /// `classify_batch_into` is at least 3× a per-flow loop of the fused
    /// ladder (`floors::classify_fused`: one compiled lookup and one
    /// cone check) over the same 20 000 synthetic flows, best of 7, the
    /// two timed alternately. The loop makes one out-of-line call per
    /// flow: inlined into the timed loop, the ladder reads about 10 %
    /// faster than the out-of-line call the floor has always been
    /// measured against.
    #[test]
    #[ignore = "release-mode timing floor; ci.sh runs it with --ignored"]
    fn batch_floor_3x_classify_with() {
        use std::hint::black_box;
        #[inline(never)]
        fn per_flow(
            c: &Classifier,
            f: &FlowRecord,
            method: InferenceMethod,
            org: OrgMode,
        ) -> TrafficClass {
            crate::pipeline::floors::classify_fused(c, f, method, org)
        }
        let (c, flows) = crate::pipeline::floors::trace();
        let (method, org) = (InferenceMethod::FullCone, OrgMode::OrgAdjusted);
        let batch = FlowBatch::from_records(&flows);
        let mut scratch = BatchScratch::new();
        let mut out = Vec::new();
        let (batched, scalar) = crate::pipeline::floors::best_alternating(
            7,
            || c.classify_batch_into(black_box(&batch), method, org, &mut scratch, &mut out),
            || {
                let tally: usize =
                    flows.iter().map(|f| per_flow(&c, black_box(f), method, org).index()).sum();
                black_box(tally);
            },
        );
        let ratio = scalar.as_secs_f64() / batched.as_secs_f64();
        assert!(
            ratio >= 3.0,
            "classify_batch_into {batched:?} vs per-flow fused ladder {scalar:?}: \
             {ratio:.2}x < 3x"
        );
    }
}
