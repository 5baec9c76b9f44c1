//! The batch-vectorized classify path over structure-of-arrays input.
//!
//! Record-at-a-time classification ([`Classifier::classify_with`])
//! spends its time in three places: the fused LPM probe (an LLC miss on
//! the 64 MiB level-1 array), the cone validity check (hash lookups +
//! bitset probe per origin), and per-record overhead. The batch path
//! attacks all three:
//!
//! * **Columnar probes** — [`Classifier::classify_batch_into`] walks
//!   the [`FlowBatch`]'s `src` column through
//!   `CompiledClassifier::leaf_codes_into`: a dense loop of
//!   independent probes whose level-1 misses the core overlaps instead
//!   of serializing them behind per-record work.
//! * **Memoized verdicts** — routed codes are interned info-arena
//!   indices, so the cone verdict is a pure function of
//!   `(member, info index, variant)`. [`VerdictMemo`] is a direct-mapped
//!   cache over that key; flow locality (few members, few hot prefixes)
//!   makes most verdicts a single compare + bit test.
//! * **No per-record structures** — all working state lives in a
//!   [`BatchScratch`] arena that callers (or the thread-local used by
//!   [`Classifier::classify_records_batched`]) reuse across batches, so
//!   steady-state classification performs **zero heap allocations**
//!   (asserted by `benches/batch.rs` with a counting allocator).
//!
//! ## Exactness
//!
//! The batch path is byte-for-byte equal to the scalar one, by
//! construction at each step: the code column is exactly what
//! per-address `lookup` calls decide;
//! the memo key `(member, info index)` plus the classifier's build
//! `uid` captures every input of `valid_under_parts`, which is pure; and
//! class assembly is the same Bogon → Unrouted → Invalid/Valid ladder.
//! `tests/batch_diff.rs` pins this with differential property tests
//! across all five method variants and with whole-run byte-identity
//! (rollup rings, incident logs, disagreement matrices).

use crate::compiled::{BATCH_BOGON, BATCH_UNROUTED};
use crate::pipeline::Classifier;
use crate::provenance::{MethodVariant, METHOD_VARIANTS};
use spoofwatch_net::{Asn, FlowBatch, FlowRecord, InferenceMethod, OrgMode, TrafficClass};
use std::cell::RefCell;

/// Slots in the direct-mapped verdict memo. 4096 × 10 bytes ≈ 40 KiB —
/// sized to sit in L2 next to the code map while still covering far
/// more `(member, prefix-info)` pairs than a study window touches.
const MEMO_SLOTS: usize = 4096;

/// All five variant bits set — a fully computed memo slot.
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

impl VerdictMemo {
    fn new() -> VerdictMemo {
        VerdictMemo {
            keys: vec![u64::MAX; MEMO_SLOTS],
            valid: vec![0; MEMO_SLOTS],
            known: vec![0; MEMO_SLOTS],
            uid: 0,
        }
    }

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

    /// The verdict for one variant, computing (and caching) it on miss.
    #[inline]
    fn valid_one(&mut self, member: u32, info_idx: u32, v: usize, compute: impl FnOnce() -> bool) -> bool {
        let key = (u64::from(member) << 32) | u64::from(info_idx);
        let s = Self::slot(key);
        let bit = 1u8 << v;
        if self.keys[s] == key {
            if self.known[s] & bit != 0 {
                return self.valid[s] & bit != 0;
            }
        } else {
            self.keys[s] = key;
            self.known[s] = 0;
            self.valid[s] = 0;
        }
        let verdict = compute();
        self.known[s] |= bit;
        if verdict {
            self.valid[s] |= bit;
        }
        verdict
    }

    /// All five variant verdicts as a bit vector (bit `i` =
    /// `METHOD_VARIANTS[i]`), computing any missing ones.
    #[inline]
    fn valid_all(&mut self, member: u32, info_idx: u32, compute: impl Fn(MethodVariant) -> bool) -> u8 {
        let key = (u64::from(member) << 32) | u64::from(info_idx);
        let s = Self::slot(key);
        if self.keys[s] != key {
            self.keys[s] = key;
            self.known[s] = 0;
            self.valid[s] = 0;
        } else if self.known[s] == ALL_VARIANTS {
            return self.valid[s];
        }
        for (i, v) in METHOD_VARIANTS.iter().enumerate() {
            let bit = 1u8 << i;
            if self.known[s] & bit == 0 {
                if compute(*v) {
                    self.valid[s] |= bit;
                }
                self.known[s] |= bit;
            }
        }
        self.valid[s]
    }
}

/// Reusable working state for the batch classify path: the transpose
/// arena, the code column, and the verdict memo. Create once, pass to
/// every `classify_batch_into` call; all growth happens on the first
/// few batches, after which classification is allocation-free.
#[derive(Debug)]
pub struct BatchScratch {
    /// Transpose arena for the record-slice entry points.
    batch: FlowBatch,
    /// Batch codes, one per record (filled by the compiled classifier).
    codes: Vec<u32>,
    memo: VerdictMemo,
}

impl BatchScratch {
    /// Fresh scratch with no reserved capacity (columns grow on first
    /// use and then stay).
    pub fn new() -> BatchScratch {
        BatchScratch {
            batch: FlowBatch::new(),
            codes: Vec::new(),
            memo: VerdictMemo::new(),
        }
    }
}

impl Default for BatchScratch {
    fn default() -> Self {
        BatchScratch::new()
    }
}

thread_local! {
    /// Per-thread scratch behind the record-slice entry points. Runner
    /// worker threads are long-lived, so this amortizes to zero
    /// allocations per chunk in steady state.
    static TLS_SCRATCH: RefCell<BatchScratch> = RefCell::new(BatchScratch::new());
}

impl Classifier {
    /// Classify a whole [`FlowBatch`] under one method variant,
    /// replacing `out` with one class per record (index-aligned with
    /// the batch). Equal to `classify_with` on every gathered record;
    /// see the module docs for the exactness argument.
    pub fn classify_batch_into(
        &self,
        batch: &FlowBatch,
        method: InferenceMethod,
        org: OrgMode,
        scratch: &mut BatchScratch,
        out: &mut Vec<TrafficClass>,
    ) {
        debug_assert!(batch.columns_aligned());
        let v = MethodVariant::index_of(method, org);
        let variant = METHOD_VARIANTS[v];
        let compiled = self.compiled();
        compiled.leaf_codes_into(&batch.src, &mut scratch.codes);
        scratch.memo.ensure(self.uid());
        let memo = &mut scratch.memo;
        out.clear();
        // Single fused pass: leaf code → batch code → class, zipped
        // over the code and member columns (no per-record indexing).
        out.extend(
            scratch
                .codes
                .iter()
                .zip(&batch.member)
                .map(|(&leaf, &member)| match compiled.batch_code(leaf) {
                    BATCH_UNROUTED => TrafficClass::Unrouted,
                    BATCH_BOGON => TrafficClass::Bogon,
                    idx => {
                        let valid = memo.valid_one(member, idx, v, || {
                            self.valid_under_parts(Asn(member), compiled.info_at(idx), variant)
                        });
                        if valid {
                            TrafficClass::Valid
                        } else {
                            TrafficClass::Invalid
                        }
                    }
                }),
        );
    }

    /// Classify a whole [`FlowBatch`] under **all five** method
    /// variants at once, replacing `out`. Slot `j` of record `i` equals
    /// `classify_variants(record_i)[j]` — one code probe and at most
    /// one memo fill serve all five.
    pub fn classify_variants_batch_into(
        &self,
        batch: &FlowBatch,
        scratch: &mut BatchScratch,
        out: &mut Vec<[TrafficClass; 5]>,
    ) {
        debug_assert!(batch.columns_aligned());
        let compiled = self.compiled();
        compiled.leaf_codes_into(&batch.src, &mut scratch.codes);
        scratch.memo.ensure(self.uid());
        let memo = &mut scratch.memo;
        out.clear();
        out.extend(
            scratch
                .codes
                .iter()
                .zip(&batch.member)
                .map(|(&leaf, &member)| match compiled.batch_code(leaf) {
                    BATCH_UNROUTED => [TrafficClass::Unrouted; 5],
                    BATCH_BOGON => [TrafficClass::Bogon; 5],
                    idx => {
                        let bits = memo.valid_all(member, idx, |variant| {
                            self.valid_under_parts(Asn(member), compiled.info_at(idx), variant)
                        });
                        let mut classes = [TrafficClass::Invalid; 5];
                        for (j, c) in classes.iter_mut().enumerate() {
                            if bits & (1 << j) != 0 {
                                *c = TrafficClass::Valid;
                            }
                        }
                        classes
                    }
                }),
        );
    }

    /// Batch-classify a record slice through the per-thread scratch:
    /// transpose into the thread-local arena, run the columnar path,
    /// return the classes. The drop-in vectorized replacement for a
    /// `classify_with` loop — same output, ~3× the throughput, zero
    /// steady-state allocations beyond the returned vector.
    pub fn classify_records_batched(
        &self,
        flows: &[FlowRecord],
        method: InferenceMethod,
        org: OrgMode,
    ) -> Vec<TrafficClass> {
        let mut out = Vec::new();
        self.classify_records_batched_into(flows, method, org, &mut out);
        out
    }

    /// [`Classifier::classify_records_batched`] into a caller-owned
    /// vector (replaced, not appended), for callers that reuse the
    /// output allocation too.
    pub fn classify_records_batched_into(
        &self,
        flows: &[FlowRecord],
        method: InferenceMethod,
        org: OrgMode,
        out: &mut Vec<TrafficClass>,
    ) {
        TLS_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            // Detach the arena so the batch and the rest of the scratch
            // can be borrowed simultaneously; restored below.
            let mut batch = std::mem::take(&mut scratch.batch);
            batch.clear();
            batch.extend_from_records(flows);
            self.classify_batch_into(&batch, method, org, &mut scratch, out);
            scratch.batch = batch;
        });
    }

    /// Batch-classify a record slice under all five variants through
    /// the per-thread scratch. Row `i` equals `classify_variants(&flows[i])`.
    pub fn classify_variants_records_batched(
        &self,
        flows: &[FlowRecord],
    ) -> Vec<[TrafficClass; 5]> {
        let mut out = Vec::new();
        TLS_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            let mut batch = std::mem::take(&mut scratch.batch);
            batch.clear();
            batch.extend_from_records(flows);
            self.classify_variants_batch_into(&batch, &mut scratch, &mut out);
            scratch.batch = batch;
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memo_slot_is_in_range() {
        for key in [0u64, 1, u64::MAX - 1, 0xDEAD_BEEF_CAFE_F00D] {
            assert!(VerdictMemo::slot(key) < MEMO_SLOTS);
        }
    }

    #[test]
    fn memo_caches_and_invalidates() {
        let mut memo = VerdictMemo::new();
        memo.ensure(7);
        let mut calls = 0;
        let verdict = memo.valid_one(42, 13, 3, || {
            calls += 1;
            true
        });
        assert!(verdict);
        assert_eq!(calls, 1);
        // Hit: the closure must not run again.
        let verdict = memo.valid_one(42, 13, 3, || {
            calls += 1;
            false // would flip the verdict if consulted
        });
        assert!(verdict);
        assert_eq!(calls, 1);
        // Different variant on the same key: computed, same slot.
        assert!(!memo.valid_one(42, 13, 4, || false));
        // New classifier uid: everything recomputes.
        memo.ensure(8);
        assert!(!memo.valid_one(42, 13, 3, || false));
    }

    #[test]
    fn memo_valid_all_completes_partial_slots() {
        let mut memo = VerdictMemo::new();
        memo.ensure(1);
        memo.valid_one(5, 9, 2, || true);
        let bits = memo.valid_all(5, 9, |v| v.method == InferenceMethod::Naive);
        // Bit 2 keeps its cached verdict; the rest follow the closure
        // (variant 0 is Naive).
        assert_eq!(bits & 0b00100, 0b00100);
        assert_eq!(bits & 0b00001, 0b00001);
        assert_eq!(bits & 0b11010, 0);
        // Fully known now: closure unused.
        assert_eq!(memo.valid_all(5, 9, |_| panic!("must be cached")), bits);
    }
}
