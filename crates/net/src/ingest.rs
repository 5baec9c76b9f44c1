//! Ingest health: the shared error taxonomy for resilient stream
//! decoders.
//!
//! Real collector dumps and IPFIX exports arrive with flipped bits,
//! torn tails, and gaps. Instead of failing the whole file on the first
//! malformed record (fail-stop), the recovering decoders in
//! `spoofwatch-bgp`, `spoofwatch-ixp`, and `spoofwatch-packet`
//! quarantine the bad bytes, resynchronize on the next plausible record
//! boundary, and keep going — returning the decoded records *plus* an
//! [`IngestHealth`] that accounts for every input byte.
//!
//! The accounting invariant every resilient decoder upholds:
//!
//! ```text
//! ok_bytes + quarantined_bytes == input_len
//! ```
//!
//! where `ok_bytes` covers the valid file header and every cleanly
//! decoded record (framing included), and `quarantined_bytes` covers
//! everything skipped during resynchronization, the torn tail, or — when
//! the header itself is unusable — the whole input.
//!
//! [`resilient_walk`] is the one loop that upholds it: a format supplies
//! the three [`RecordFormat`] hooks and checks its own file header; the
//! walk does the crediting, the quarantining and the resynchronising,
//! and nothing else calls [`IngestHealth::quarantine`] or
//! [`IngestHealth::note_resync`].

use spoofwatch_obs::MetricsRegistry;
use std::fmt;

/// Why a span of input bytes was quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The file magic was missing or wrong; the input is not (or no
    /// longer recognizably) this format.
    BadMagic,
    /// The header declared an unsupported version.
    BadVersion,
    /// The input ended inside a record (torn tail).
    Truncated,
    /// A record's framing or fields were malformed (impossible length,
    /// unknown type, non-canonical prefix, bad path, …).
    BadRecord,
    /// A structurally well-formed record failed the plausibility check
    /// (fields outside any realistic range — the fixed-stride codec's
    /// only corruption signal).
    Implausible,
}

impl FaultKind {
    /// Every fault kind, in [`FaultKind::index`] order.
    pub const ALL: [FaultKind; 5] = [
        FaultKind::BadMagic,
        FaultKind::BadVersion,
        FaultKind::Truncated,
        FaultKind::BadRecord,
        FaultKind::Implausible,
    ];

    /// Dense index into per-kind tally arrays.
    pub fn index(self) -> usize {
        match self {
            FaultKind::BadMagic => 0,
            FaultKind::BadVersion => 1,
            FaultKind::Truncated => 2,
            FaultKind::BadRecord => 3,
            FaultKind::Implausible => 4,
        }
    }

    /// Stable snake_case name, used as a metric label value.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::BadMagic => "bad_magic",
            FaultKind::BadVersion => "bad_version",
            FaultKind::Truncated => "truncated",
            FaultKind::BadRecord => "bad_record",
            FaultKind::Implausible => "implausible",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultKind::BadMagic => "bad magic",
            FaultKind::BadVersion => "bad version",
            FaultKind::Truncated => "truncated",
            FaultKind::BadRecord => "malformed record",
            FaultKind::Implausible => "implausible record",
        };
        f.write_str(s)
    }
}

/// One quarantined span, with its byte extent in the original input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestEvent {
    /// Byte offset where the quarantined span starts.
    pub offset: u64,
    /// Length of the quarantined span in bytes.
    pub len: u64,
    /// Why the span was quarantined.
    pub kind: FaultKind,
}

/// Overall verdict on one ingested source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IngestStatus {
    /// Every byte decoded cleanly.
    Ok,
    /// Some bytes were quarantined, but records were recovered around
    /// them.
    Recovered,
    /// Nothing usable was decoded (e.g. the header itself was bad).
    Unrecoverable,
}

impl fmt::Display for IngestStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IngestStatus::Ok => "ok",
            IngestStatus::Recovered => "recovered",
            IngestStatus::Unrecoverable => "unrecoverable",
        };
        f.write_str(s)
    }
}

/// Cap on retained [`IngestEvent`]s; further quarantines are counted but
/// not itemized, bounding memory on pathological inputs.
pub const MAX_EVENTS: usize = 64;

/// Byte-exact health accounting for one decoded source.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IngestHealth {
    /// Total input bytes presented to the decoder.
    pub input_len: u64,
    /// Records decoded cleanly.
    pub ok_records: u64,
    /// Bytes decoded cleanly (valid header + every clean record's
    /// framing and body).
    pub ok_bytes: u64,
    /// Resynchronization events: times the decoder skipped forward to a
    /// new plausible record boundary after a fault.
    pub resyncs: u64,
    /// Bytes quarantined across all events.
    pub quarantined_bytes: u64,
    /// Itemized quarantined spans (first [`MAX_EVENTS`]).
    pub events: Vec<IngestEvent>,
    /// Quarantine events beyond the [`MAX_EVENTS`] cap.
    pub events_dropped: u64,
    /// Per-kind quarantine tallies, indexed by [`FaultKind::index`].
    /// Unlike `events` these are never capped.
    pub fault_counts: [u64; 5],
    /// Set when the decoder could not establish the format at all.
    pub unrecoverable: bool,
}

impl IngestHealth {
    /// Fresh accounting for an input of `input_len` bytes.
    pub fn new(input_len: u64) -> Self {
        IngestHealth {
            input_len,
            ..Default::default()
        }
    }

    /// The scalar counters without the itemized events — the part of a
    /// chunk's health that travels on a link (see [`crate::codec`]).
    pub fn scalars(&self) -> IngestHealth {
        IngestHealth {
            events: Vec::new(),
            events_dropped: 0,
            ..*self
        }
    }

    /// Credit a cleanly decoded span (header or record).
    pub fn credit_ok(&mut self, nbytes: u64) {
        self.ok_bytes += nbytes;
    }

    /// Credit one cleanly decoded record of `nbytes`.
    #[inline]
    pub fn credit_record(&mut self, nbytes: u64) {
        self.ok_records += 1;
        self.ok_bytes += nbytes;
    }

    /// Quarantine `len` bytes at `offset`. Zero-length quarantines are
    /// ignored.
    pub fn quarantine(&mut self, offset: u64, len: u64, kind: FaultKind) {
        if len == 0 {
            return;
        }
        self.quarantined_bytes += len;
        self.fault_counts[kind.index()] += 1;
        if self.events.len() < MAX_EVENTS {
            self.events.push(IngestEvent { offset, len, kind });
        } else {
            self.events_dropped += 1;
        }
    }

    /// Note a successful resynchronization (the decoder found a new
    /// plausible record boundary after a fault).
    pub fn note_resync(&mut self) {
        self.resyncs += 1;
    }

    /// Mark the whole input unusable (bad header): quarantines any
    /// still-unaccounted bytes and sets the unrecoverable flag.
    pub fn abandon(&mut self, kind: FaultKind) {
        let accounted = self.ok_bytes + self.quarantined_bytes;
        self.quarantine(accounted, self.input_len - accounted, kind);
        self.unrecoverable = true;
    }

    /// The per-source verdict.
    pub fn status(&self) -> IngestStatus {
        if self.unrecoverable {
            IngestStatus::Unrecoverable
        } else if self.quarantined_bytes == 0 {
            IngestStatus::Ok
        } else {
            IngestStatus::Recovered
        }
    }

    /// Whether the byte accounting is exact:
    /// `ok_bytes + quarantined_bytes == input_len`.
    pub fn reconciles(&self) -> bool {
        self.ok_bytes + self.quarantined_bytes == self.input_len
    }

    /// Fraction of input bytes that decoded cleanly (1.0 for empty
    /// input).
    pub fn ok_fraction(&self) -> f64 {
        if self.input_len == 0 {
            1.0
        } else {
            self.ok_bytes as f64 / self.input_len as f64
        }
    }

    /// Merge another source's accounting into this one (for
    /// whole-vantage summaries). Event offsets keep their per-source
    /// meaning.
    pub fn absorb(&mut self, other: &IngestHealth) {
        self.input_len += other.input_len;
        self.ok_records += other.ok_records;
        self.ok_bytes += other.ok_bytes;
        self.resyncs += other.resyncs;
        self.quarantined_bytes += other.quarantined_bytes;
        for e in &other.events {
            if self.events.len() < MAX_EVENTS {
                self.events.push(*e);
            } else {
                self.events_dropped += 1;
            }
        }
        self.events_dropped += other.events_dropped;
        for (mine, theirs) in self.fault_counts.iter_mut().zip(other.fault_counts) {
            *mine += theirs;
        }
        self.unrecoverable |= other.unrecoverable;
    }

    /// [`Self::record_metrics_to`] the process-global registry (see
    /// `spoofwatch_obs::global`) — what the one-shot decoders call.
    pub fn record_metrics(&self, format: &'static str) {
        self.record_metrics_to(spoofwatch_obs::global(), format);
    }

    /// Report this source's accounting to `reg` under the given
    /// `format` label (`ipfix`, `mrt`, `pcap`, …). A no-op on a
    /// disabled registry. Call exactly once per decoded source, where
    /// its bytes are consumed: the counters are cumulative across calls.
    pub fn record_metrics_to(&self, reg: &MetricsRegistry, format: &'static str) {
        if !reg.is_enabled() {
            return;
        }
        let fmt_label = [("format", format)];
        reg.counter(
            "spoofwatch_decode_records_total",
            "Records decoded cleanly by the resilient decoders",
            &fmt_label,
        )
        .add(self.ok_records);
        reg.counter(
            "spoofwatch_decode_resyncs_total",
            "Times a decoder skipped forward to a new plausible record boundary",
            &fmt_label,
        )
        .add(self.resyncs);
        reg.counter(
            "spoofwatch_decode_fault_events_dropped_total",
            "Quarantine events beyond the per-source itemization cap",
            &fmt_label,
        )
        .add(self.events_dropped);
        for (disposition, bytes) in [("ok", self.ok_bytes), ("quarantined", self.quarantined_bytes)]
        {
            reg.counter(
                "spoofwatch_decode_bytes_total",
                "Input bytes by decode disposition; ok + quarantined covers every input byte",
                &[("format", format), ("disposition", disposition)],
            )
            .add(bytes);
        }
        for kind in FaultKind::ALL {
            let n = self.fault_counts[kind.index()];
            if n > 0 {
                reg.counter(
                    "spoofwatch_decode_faults_total",
                    "Quarantined spans by fault kind",
                    &[("format", format), ("kind", kind.label())],
                )
                .add(n);
            }
        }
        if self.unrecoverable {
            reg.counter(
                "spoofwatch_decode_unrecoverable_total",
                "Sources whose format could not be established at all",
                &fmt_label,
            )
            .inc();
        }
    }
}

impl fmt::Display for IngestHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} records ok ({} B), {} resyncs, {} B quarantined in {} spans",
            self.status(),
            self.ok_records,
            self.ok_bytes,
            self.resyncs,
            self.quarantined_bytes,
            self.events.len() as u64 + self.events_dropped,
        )
    }
}

/// What a record format tells [`resilient_walk`] about the bytes at an
/// offset. The format keeps record parsing, plausibility and fault
/// labelling; the walk keeps the accounting.
pub trait RecordFormat {
    /// One decoded record.
    type Record;

    /// The record that decodes at `pos`, with its encoded length
    /// (framing included, at least 1).
    fn record_at(&self, data: &[u8], pos: usize) -> Option<(Self::Record, usize)>;

    /// Whether `pos` is a credible place to resume decoding after a
    /// fault. Asked once per byte of every damaged span, which is why
    /// it is a hook of its own: a format whose evidence can be read in
    /// place answers without building the record (IPFIX-lite reads
    /// three counters), and one whose single record is weak evidence
    /// demands more than [`Self::record_at`] does (pcap chains into
    /// the following headers).
    fn boundary_at(&self, data: &[u8], pos: usize) -> bool;

    /// Why nothing decodes at `pos`: the label of the quarantined span
    /// that starts there.
    fn fault_at(&self, data: &[u8], pos: usize) -> FaultKind;
}

/// The resynchronising walk every resilient decoder runs.
///
/// From `*pos` (past a file header the caller has checked and
/// credited), hand each record that decodes to `sink` and credit its
/// bytes; where none does, quarantine forward to the next
/// [`RecordFormat::boundary_at`] — or to the end of `data` when there
/// is none — and count a resync only if decoding can resume there: a
/// quarantined tail is a fault, not a resynchronisation. Stops at the
/// end of `data` or after `max_records` records, leaving `*pos` on the
/// resume cursor. A pause falls directly after a record, so a
/// quarantined span is never split across two calls: it belongs whole
/// to the call that reaches it, and walking in pieces — into one
/// `health` or into per-piece healths absorbed together — equals the
/// uncapped walk (`max_records == usize::MAX`). Every byte in
/// `[pos before, pos after)` ends up in exactly one of
/// `health.ok_bytes` and `health.quarantined_bytes`; event offsets are
/// offsets into `data`.
pub fn resilient_walk<F: RecordFormat>(
    format: &F,
    data: &[u8],
    pos: &mut usize,
    max_records: usize,
    health: &mut IngestHealth,
    mut sink: impl FnMut(F::Record),
) {
    let mut recovered = 0usize;
    while *pos < data.len() && recovered < max_records {
        if let Some((record, len)) = format.record_at(data, *pos) {
            sink(record);
            recovered += 1;
            health.credit_record(len as u64);
            *pos += len;
            continue;
        }
        let kind = format.fault_at(data, *pos);
        let mut next = *pos + 1;
        while next < data.len() && !format.boundary_at(data, next) {
            next += 1;
        }
        health.quarantine(*pos as u64, (next - *pos) as u64, kind);
        if next < data.len() {
            health.note_resync();
        }
        *pos = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_input_is_ok() {
        let mut h = IngestHealth::new(100);
        h.credit_ok(6);
        h.credit_record(94);
        assert_eq!(h.status(), IngestStatus::Ok);
        assert!(h.reconciles());
        assert_eq!(h.ok_records, 1);
        assert!((h.ok_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quarantine_accounting() {
        let mut h = IngestHealth::new(100);
        h.credit_ok(6);
        h.credit_record(50);
        h.quarantine(56, 44, FaultKind::BadRecord);
        h.note_resync();
        assert_eq!(h.status(), IngestStatus::Recovered);
        assert!(h.reconciles());
        assert_eq!(h.events.len(), 1);
        assert_eq!(h.events[0].offset, 56);
        assert_eq!(h.resyncs, 1);
    }

    #[test]
    fn abandon_quarantines_remainder() {
        let mut h = IngestHealth::new(40);
        h.abandon(FaultKind::BadMagic);
        assert_eq!(h.status(), IngestStatus::Unrecoverable);
        assert!(h.reconciles());
        assert_eq!(h.quarantined_bytes, 40);
    }

    #[test]
    fn event_cap_counts_overflow() {
        let mut h = IngestHealth::new(10_000);
        for i in 0..(MAX_EVENTS as u64 + 10) {
            h.quarantine(i, 1, FaultKind::BadRecord);
        }
        assert_eq!(h.events.len(), MAX_EVENTS);
        assert_eq!(h.events_dropped, 10);
    }

    #[test]
    fn absorb_merges() {
        let mut a = IngestHealth::new(10);
        a.credit_ok(10);
        let mut b = IngestHealth::new(20);
        b.credit_ok(5);
        b.quarantine(5, 15, FaultKind::Truncated);
        a.absorb(&b);
        assert_eq!(a.input_len, 30);
        assert_eq!(a.ok_bytes, 15);
        assert_eq!(a.quarantined_bytes, 15);
        assert!(a.reconciles());
        assert_eq!(a.status(), IngestStatus::Recovered);
    }

    #[test]
    fn fault_counts_tally_by_kind_uncapped() {
        let mut h = IngestHealth::new(10_000);
        for i in 0..(MAX_EVENTS as u64 + 10) {
            h.quarantine(i, 1, FaultKind::BadRecord);
        }
        h.quarantine(9_000, 1, FaultKind::Truncated);
        assert_eq!(h.fault_counts[FaultKind::BadRecord.index()], MAX_EVENTS as u64 + 10);
        assert_eq!(h.fault_counts[FaultKind::Truncated.index()], 1);

        let mut other = IngestHealth::new(10);
        other.quarantine(0, 10, FaultKind::BadRecord);
        h.absorb(&other);
        assert_eq!(h.fault_counts[FaultKind::BadRecord.index()], MAX_EVENTS as u64 + 11);
    }

    #[test]
    fn record_metrics_exports_taxonomy() {
        // Install a live global registry for this test binary; nothing
        // else in spoofwatch-net's tests touches the global.
        let reg = spoofwatch_obs::MetricsRegistry::new();
        spoofwatch_obs::install_global(std::sync::Arc::clone(&reg));
        let reg = std::sync::Arc::clone(spoofwatch_obs::global());
        assert!(reg.is_enabled(), "install must precede first global() use");

        let mut h = IngestHealth::new(100);
        h.credit_ok(6);
        h.credit_record(50);
        h.quarantine(56, 40, FaultKind::BadRecord);
        h.note_resync();
        h.quarantine(96, 4, FaultKind::Truncated);
        h.record_metrics("testfmt");

        let snap = reg.snapshot();
        let fmt = &[("format", "testfmt")][..];
        assert_eq!(
            snap.counter("spoofwatch_decode_records_total", fmt),
            Some(1)
        );
        assert_eq!(snap.counter("spoofwatch_decode_resyncs_total", fmt), Some(1));
        assert_eq!(
            snap.counter(
                "spoofwatch_decode_bytes_total",
                &[("format", "testfmt"), ("disposition", "ok")],
            ),
            Some(56)
        );
        assert_eq!(
            snap.counter(
                "spoofwatch_decode_bytes_total",
                &[("format", "testfmt"), ("disposition", "quarantined")],
            ),
            Some(44)
        );
        assert_eq!(
            snap.counter(
                "spoofwatch_decode_faults_total",
                &[("format", "testfmt"), ("kind", "bad_record")],
            ),
            Some(1)
        );
        assert_eq!(
            snap.counter(
                "spoofwatch_decode_faults_total",
                &[("format", "testfmt"), ("kind", "truncated")],
            ),
            Some(1)
        );
        // ok + quarantined bytes cover the whole input, mirrored in the
        // exported counters.
        assert_eq!(
            snap.counter_sum("spoofwatch_decode_bytes_total"),
            h.input_len
        );
    }

    /// A toy format for the walk: 4-byte records `TAG a b (a ^ b)`. Its
    /// boundary test is stricter than its record test — a boundary must
    /// be followed by another record or by the end of input — as
    /// pcap's is.
    struct Toy;
    const TAG: u8 = 0xA5;

    impl Toy {
        fn valid(data: &[u8], pos: usize) -> bool {
            matches!(data.get(pos..pos + 4), Some(r) if r[0] == TAG && r[3] == r[1] ^ r[2])
        }
    }

    impl RecordFormat for Toy {
        type Record = (u8, u8);

        fn record_at(&self, data: &[u8], pos: usize) -> Option<((u8, u8), usize)> {
            Toy::valid(data, pos).then(|| ((data[pos + 1], data[pos + 2]), 4))
        }

        fn boundary_at(&self, data: &[u8], pos: usize) -> bool {
            Toy::valid(data, pos) && (pos + 4 == data.len() || Toy::valid(data, pos + 4))
        }

        fn fault_at(&self, data: &[u8], pos: usize) -> FaultKind {
            if data.len() - pos < 4 {
                FaultKind::Truncated
            } else {
                FaultKind::BadRecord
            }
        }
    }

    fn toy_encode(n: u8) -> Vec<u8> {
        (0..n)
            .flat_map(|i| {
                let (a, b) = (i, i.wrapping_mul(7) | 1);
                [TAG, a, b, a ^ b]
            })
            .collect()
    }

    /// Walk `data` from 0 in pieces of at most `cap` records, each into
    /// a fresh health, as a chunked reader does.
    fn toy_walk(data: &[u8], cap: usize) -> (Vec<(u8, u8)>, Vec<IngestHealth>) {
        let (mut records, mut pieces, mut pos) = (Vec::new(), Vec::new(), 0usize);
        loop {
            let start = pos;
            let mut health = IngestHealth::new(0);
            resilient_walk(&Toy, data, &mut pos, cap, &mut health, |r| records.push(r));
            health.input_len = (pos - start) as u64;
            assert!(health.reconciles(), "piece at {start} does not reconcile");
            assert!(health.ok_records as usize <= cap);
            pieces.push(health);
            if pos >= data.len() {
                assert_eq!(pos, data.len());
                return (records, pieces);
            }
        }
    }

    fn toy_corpus(seed: u64) -> Vec<u8> {
        let mut data = toy_encode(60);
        let mut inj = crate::FaultInjector::new(seed);
        for _ in 0..4 {
            inj.any_single(&mut data, 4);
        }
        data
    }

    #[test]
    fn walk_accounts_for_every_byte_and_events_tile_the_quarantine() {
        let mut resynced = 0;
        for seed in 0..200u64 {
            let data = toy_corpus(seed);
            let (records, pieces) = toy_walk(&data, usize::MAX);
            let h = &pieces[0];
            assert_eq!(pieces.len(), 1, "seed {seed}: uncapped is one piece");
            assert_eq!(h.input_len, data.len() as u64);
            assert_eq!(h.ok_records as usize, records.len());
            assert_eq!(h.ok_bytes, 4 * h.ok_records);
            assert_eq!(h.events_dropped, 0);
            // Events are disjoint, ordered, never adjacent (one fault,
            // one span), sum to the quarantined bytes, and every gap
            // between them is whole records.
            let mut cursor = 0u64;
            let mut resumable = 0u64;
            for (i, e) in h.events.iter().enumerate() {
                assert!(e.len > 0 && e.offset >= cursor, "seed {seed} event {i}");
                assert!(i == 0 || e.offset > cursor, "seed {seed}: adjacent events");
                assert_eq!((e.offset - cursor) % 4, 0, "seed {seed} event {i}");
                cursor = e.offset + e.len;
                // A span that ends the input is a quarantined tail:
                // nothing resumed there, so it is no resync.
                resumable += (cursor < data.len() as u64) as u64;
            }
            assert_eq!((data.len() as u64 - cursor) % 4, 0, "seed {seed}");
            assert_eq!(h.events.iter().map(|e| e.len).sum::<u64>(), h.quarantined_bytes);
            assert_eq!(h.resyncs, resumable, "seed {seed}");
            assert_eq!(h.fault_counts.iter().sum::<u64>(), h.events.len() as u64);
            resynced += h.resyncs;
        }
        assert!(resynced > 100, "the corpus exercises resynchronisation");
    }

    #[test]
    fn paused_walk_concatenates_to_the_uncapped_walk() {
        for seed in 0..60u64 {
            let data = toy_corpus(seed);
            let (want_records, want) = toy_walk(&data, usize::MAX);
            for cap in 1..=want_records.len().max(1) + 1 {
                let (records, pieces) = toy_walk(&data, cap);
                assert_eq!(records, want_records, "seed {seed} cap {cap}");
                let mut got = IngestHealth::new(0);
                for piece in &pieces {
                    got.absorb(piece);
                }
                // Scalars, per-kind tallies and the event list: a span
                // is never split by a pause, so the lists concatenate.
                assert_eq!(got, want[0], "seed {seed} cap {cap}");
                // A piece holds its full quota unless it is the last.
                for piece in &pieces[..pieces.len() - 1] {
                    assert_eq!(piece.ok_records as usize, cap, "seed {seed} cap {cap}");
                }
            }
        }
    }

    #[test]
    fn walk_edges_garbage_tail_empty_input_and_cap_of_one() {
        // Empty input: nothing to do, nothing booked.
        let (records, pieces) = toy_walk(&[], 3);
        assert!(records.is_empty());
        assert_eq!(pieces, vec![IngestHealth::new(0)]);

        // Garbage-only tail: one quarantined span to the end of input,
        // and no resync — decoding never resumed.
        let mut data = toy_encode(3);
        data.extend_from_slice(&[TAG, 1, 2, 9, 0xFF, 0xFF, TAG]);
        let (records, pieces) = toy_walk(&data, usize::MAX);
        assert_eq!(records.len(), 3);
        assert_eq!(pieces[0].resyncs, 0);
        assert_eq!(
            pieces[0].events,
            vec![IngestEvent {
                offset: 12,
                len: 7,
                kind: FaultKind::BadRecord
            }]
        );
        // Nothing but garbage, shorter than a record: a truncated tail.
        let (records, pieces) = toy_walk(&[TAG, 0], 1);
        assert!(records.is_empty());
        assert_eq!(pieces[0].events[0].kind, FaultKind::Truncated);
        assert_eq!((pieces[0].quarantined_bytes, pieces[0].resyncs), (2, 0));

        // Cap of 1 around a mid-stream fault: the span rides in the
        // piece that reaches it, whole, and counts one resync there.
        let mut data = toy_encode(4);
        data.splice(8..8, [0xEE; 5]);
        let (records, pieces) = toy_walk(&data, 1);
        assert_eq!(records.len(), 4);
        let resyncs: Vec<u64> = pieces.iter().map(|p| p.resyncs).collect();
        let spans: Vec<u64> = pieces.iter().map(|p| p.input_len).collect();
        assert_eq!(resyncs, [0, 0, 1, 0]);
        assert_eq!(spans, [4, 4, 9, 4]);

        // The stricter boundary test is the one the scan uses: a lone
        // valid-looking record inside garbage is not resumed at.
        let mut data = vec![0xEE; 3];
        data.extend_from_slice(&[TAG, 5, 6, 5 ^ 6]); // record test passes, chain fails
        data.extend_from_slice(&[0xEE; 3]);
        data.extend_from_slice(&toy_encode(2));
        let (records, pieces) = toy_walk(&data, usize::MAX);
        assert_eq!(records, toy_walk(&toy_encode(2), usize::MAX).0);
        assert_eq!((pieces[0].quarantined_bytes, pieces[0].resyncs), (10, 1));
    }

    #[test]
    fn zero_len_quarantine_ignored() {
        let mut h = IngestHealth::new(5);
        h.quarantine(0, 0, FaultKind::BadRecord);
        assert_eq!(h.quarantined_bytes, 0);
        assert!(h.events.is_empty());
        h.credit_ok(5);
        assert_eq!(h.status(), IngestStatus::Ok);
    }
}
