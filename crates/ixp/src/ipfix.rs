//! "IPFIX-lite": a fixed-layout binary codec for flow records.
//!
//! Layout (big-endian), version 2:
//!
//! ```text
//! file   := magic "IPFX" | version u16 (=2) | record_len u16 | record*
//! record := flow (36 bytes, `spoofwatch_net::codec`)
//!         | unknown-extension bytes (record_len - 36, skipped on decode)
//! ```
//!
//! The record is the `flow` of [`spoofwatch_net::codec`], which defines
//! the field layout once for files and links alike; `ttl` is its last
//! byte. Version 1 files (6-byte header, 35-byte records without the
//! TTL column) still decode — the missing TTL reads as 0. The explicit
//! `record_len` in the v2 header makes the layout forward-compatible in
//! the other direction too: a decoder that knows only the 36-byte prefix
//! decodes it and skips the trailing unknown bytes of each record, so a
//! future column appended after `ttl` does not quarantine today's
//! traffic.
//!
//! One decoder reads the format: [`decode_resilient`] (and its columnar
//! sink [`decode_columnar`], and `ChunkedIpfixReader` chunk by chunk)
//! walks the declared stride with the shared `resilient_walk`. A damaged
//! span is quarantined and the walk resynchronizes on the next plausible
//! record, so a torn or corrupt file yields its intact records and an
//! [`IngestHealth`] that accounts for every byte — never a panic or a
//! phantom record. Plausibility ([`plausible_record`]) is the format's
//! only corruption signal, so only plausible records round-trip; every
//! exporter in the tree writes plausible records.

use spoofwatch_net::codec::{self, FLOW_WIRE_LEN};
use spoofwatch_net::ingest::{resilient_walk, RecordFormat};
use spoofwatch_net::{FaultKind, FlowRecord, IngestHealth};

pub(crate) const MAGIC: &[u8; 4] = b"IPFX";
/// Version this codec writes.
pub(crate) const VERSION: u16 = 2;
/// The pre-TTL version this codec still reads.
pub(crate) const VERSION_V1: u16 = 1;
/// Size of the current (v2) file header (magic + version + record_len).
pub const HEADER_LEN: usize = 8;
/// Size of one encoded record as this codec writes it (v2).
pub const RECORD_LEN: usize = FLOW_WIRE_LEN;
/// Size of the legacy v1 header (magic + version).
pub const V1_HEADER_LEN: usize = 6;
/// Size of one legacy v1 record (no TTL column).
pub const V1_RECORD_LEN: usize = 35;

/// The wire geometry of one IPFIX-lite file, parsed from its header.
///
/// `record_len` is what the file declares (v1 implies 35); `known_len`
/// is how much of each record this codec understands. Trailing
/// `record_len - known_len` bytes per record are unknown extensions and
/// are skipped, not quarantined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Bytes in the file header.
    pub header_len: usize,
    /// Declared bytes per record (the decode stride).
    pub record_len: usize,
    /// Bytes of each record this codec decodes (36 for v2, 35 for v1).
    pub known_len: usize,
}

impl Layout {
    /// The layout this codec writes.
    pub const CURRENT: Layout = Layout {
        header_len: HEADER_LEN,
        record_len: RECORD_LEN,
        known_len: RECORD_LEN,
    };
    /// The legacy pre-TTL layout.
    pub const V1: Layout = Layout {
        header_len: V1_HEADER_LEN,
        record_len: V1_RECORD_LEN,
        known_len: V1_RECORD_LEN,
    };

    /// Parse a file header. Returns the layout, or the fault that makes
    /// the file undecodable. A v2 header declaring `record_len` shorter
    /// than the known 36 bytes is a version fault: the file claims the
    /// current version but cannot hold its columns.
    pub fn parse(data: &[u8]) -> Result<Layout, FaultKind> {
        if data.len() < 4 || &data[..4] != MAGIC {
            return Err(FaultKind::BadMagic);
        }
        if data.len() < V1_HEADER_LEN {
            return Err(FaultKind::Truncated);
        }
        match u16::from_be_bytes([data[4], data[5]]) {
            VERSION_V1 => Ok(Layout::V1),
            VERSION => {
                if data.len() < HEADER_LEN {
                    return Err(FaultKind::Truncated);
                }
                let record_len = u16::from_be_bytes([data[6], data[7]]) as usize;
                if record_len < RECORD_LEN {
                    return Err(FaultKind::BadVersion);
                }
                Ok(Layout {
                    header_len: HEADER_LEN,
                    record_len,
                    known_len: RECORD_LEN,
                })
            }
            _ => Err(FaultKind::BadVersion),
        }
    }
}

/// Encode one record into a 36-byte array (current layout).
pub fn encode_record(f: &FlowRecord) -> [u8; RECORD_LEN] {
    codec::encode_flow(f)
}

/// Encode one record in the legacy v1 layout (drops the TTL column).
pub fn encode_record_v1(f: &FlowRecord) -> [u8; V1_RECORD_LEN] {
    let full = encode_record(f);
    let mut out = [0u8; V1_RECORD_LEN];
    out.copy_from_slice(&full[..V1_RECORD_LEN]);
    out
}

/// The record whose `layout.record_len` bytes start `data`.
#[inline]
fn known_prefix(data: &[u8], layout: &Layout) -> FlowRecord {
    match data.first_chunk::<RECORD_LEN>() {
        Some(known) if layout.known_len >= RECORD_LEN => codec::decode_flow(known),
        _ => {
            let mut padded = [0u8; RECORD_LEN];
            padded[..V1_RECORD_LEN].copy_from_slice(&data[..V1_RECORD_LEN]);
            codec::decode_flow(&padded)
        }
    }
}

/// Encode a batch to memory (current layout).
pub fn encode(flows: &[FlowRecord]) -> Vec<u8> {
    encode_padded(flows, RECORD_LEN)
}

/// Encode a batch in the legacy v1 layout (6-byte header, 35-byte
/// records, no TTL) — for old-format fixtures and cross-version tests.
pub fn encode_v1(flows: &[FlowRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(V1_HEADER_LEN + flows.len() * V1_RECORD_LEN);
    out.extend_from_slice(MAGIC);
    codec::put_u16(&mut out, VERSION_V1);
    for f in flows {
        out.extend_from_slice(&encode_record_v1(f));
    }
    out
}

/// Encode a batch with `record_len >= 36`, zero-padding each record's
/// tail — what a future exporter with extra columns would produce. The
/// decoder of this codec decodes the known 36-byte prefix and
/// skips the rest.
pub fn encode_padded(flows: &[FlowRecord], record_len: usize) -> Vec<u8> {
    let record_len = record_len.max(RECORD_LEN);
    let mut out = Vec::with_capacity(HEADER_LEN + flows.len() * record_len);
    out.extend_from_slice(MAGIC);
    codec::put_u16(&mut out, VERSION);
    codec::put_u16(&mut out, record_len as u16);
    for f in flows {
        out.extend_from_slice(&encode_record(f));
        out.resize(out.len() + (record_len - RECORD_LEN), 0);
    }
    out
}

/// Smallest credible IP packet size (a bare IPv4 header).
const MIN_PKT_SIZE: u16 = 20;
/// Largest credible IP packet size (jumbo frame).
const MAX_PKT_SIZE: u16 = 9216;

/// Whether a decoded record looks like real sampled flow data.
///
/// IPFIX-lite records carry no per-record framing or checksum, so this
/// internal-consistency test is the codec's only corruption signal: the
/// exporter always writes `bytes == packets * pkt_size` (the explicit
/// mean size is derived from the same sampled counters), `packets >= 1`,
/// and a packet size inside physical IP bounds. A random byte window
/// passes the product identity with probability ~2^-64, which is what
/// makes byte-wise resynchronization after a misalignment safe. The TTL
/// byte carries no constraint — every value is physically possible — so
/// plausibility rests entirely on the v1 prefix.
pub fn plausible_record(f: &FlowRecord) -> bool {
    plausible_counters(f.packets, f.bytes, f.pkt_size)
}

#[inline]
fn plausible_counters(packets: u32, bytes: u64, pkt_size: u16) -> bool {
    packets >= 1
        && (MIN_PKT_SIZE..=MAX_PKT_SIZE).contains(&pkt_size)
        && bytes == packets as u64 * pkt_size as u64
}

/// The hooks of the shared walk: a record is `record_len` bytes whose
/// known prefix is plausible, and since that is all the evidence a
/// fixed-stride file offers, a boundary is the same test read off the
/// three counters in place.
impl RecordFormat for Layout {
    type Record = FlowRecord;

    #[inline]
    fn record_at(&self, data: &[u8], pos: usize) -> Option<(FlowRecord, usize)> {
        let rest = data.get(pos..pos + self.record_len)?;
        let f = known_prefix(rest, self);
        plausible_record(&f).then_some((f, self.record_len))
    }

    #[inline]
    fn boundary_at(&self, data: &[u8], pos: usize) -> bool {
        data.get(pos..pos + self.record_len).is_some_and(|rest| {
            let (packets, bytes, pkt_size) = codec::flow_counters(rest);
            plausible_counters(packets, bytes, pkt_size)
        })
    }

    fn fault_at(&self, data: &[u8], pos: usize) -> FaultKind {
        if data.len() - pos < self.record_len {
            FaultKind::Truncated
        } else {
            FaultKind::Implausible
        }
    }
}

/// The one-shot decode behind [`decode_resilient`] and
/// [`decode_columnar`]: header check, then the shared walk with no
/// record cap. One implementation, two sinks, so the columnar path is
/// equal to the record-at-a-time path *by construction* (and re-proven
/// by the differential tests below and in `tests/columnar_diff.rs`).
fn decode_into(data: &[u8], sink: impl FnMut(FlowRecord)) -> IngestHealth {
    let mut health = IngestHealth::new(data.len() as u64);
    match Layout::parse(data) {
        Err(kind) => health.abandon(kind),
        Ok(layout) => {
            health.credit_ok(layout.header_len as u64);
            let mut pos = layout.header_len;
            resilient_walk(&layout, data, &mut pos, usize::MAX, &mut health, sink);
        }
    }
    health.record_metrics("ipfix");
    health
}

/// Decode a complete buffer (v1 or v2), recovering from corruption.
///
/// This walks the file's declared record stride and checks every record
/// against [`plausible_record`]. On a failure it quarantines bytes and
/// resynchronizes byte-wise to the next offset where a plausible record
/// decodes — recovering alignment after inserted or deleted bytes, not
/// just in-place corruption. The returned [`IngestHealth`] accounts for
/// every input byte:
/// `ok_bytes + quarantined_bytes == data.len()`.
///
/// A bad file header is unrecoverable and quarantines the whole input.
pub fn decode_resilient(data: &[u8]) -> (Vec<FlowRecord>, IngestHealth) {
    let mut out = Vec::new();
    let health = decode_into(data, |f| out.push(f));
    (out, health)
}

/// [`decode_resilient`] straight into a structure-of-arrays
/// [`FlowBatch`] — the columnar ingest half of the batched classify
/// path.
///
/// `batch` is cleared and refilled; its column capacities survive, so
/// feeding the same batch buffer after buffer performs **zero
/// per-record allocations** (each parsed record lives on the stack for
/// exactly one `push`) and, once the columns have grown to the working
/// size, zero per-call allocations. The walk, plausibility checks,
/// resynchronization, and [`IngestHealth`] accounting
/// (`ok_bytes + quarantined_bytes == input`) are literally the same
/// code as [`decode_resilient`]: both are thin sinks over one shared
/// walk.
pub fn decode_columnar(data: &[u8], batch: &mut spoofwatch_net::FlowBatch) -> IngestHealth {
    batch.clear();
    decode_into(data, |f| batch.push(&f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use spoofwatch_net::{Asn, IngestStatus, Proto};

    /// [`decode_resilient`] on input it must read without a fault.
    fn decode_clean(bytes: &[u8]) -> Vec<FlowRecord> {
        let (flows, health) = decode_resilient(bytes);
        assert_eq!(health.status(), IngestStatus::Ok, "{health}");
        assert!(health.reconciles());
        assert_eq!(health.ok_records, flows.len() as u64);
        flows
    }

    /// Assert that `bytes` is abandoned whole under `kind`.
    fn assert_abandoned(bytes: &[u8], kind: FaultKind) {
        let (flows, health) = decode_resilient(bytes);
        assert!(flows.is_empty());
        assert_eq!(health.status(), IngestStatus::Unrecoverable);
        assert!(health.reconciles());
        assert_eq!(health.ok_bytes, 0);
        // An empty input leaves no span to quarantine, so no event.
        assert_eq!(health.fault_counts[kind.index()], u64::from(!bytes.is_empty()));
    }

    fn sample() -> Vec<FlowRecord> {
        vec![
            FlowRecord {
                ts: 100,
                src: 0x0A000001,
                dst: 0xC0000201,
                proto: Proto::Udp,
                sport: 53124,
                dport: 123,
                packets: 3,
                bytes: 180,
                pkt_size: 60,
                member: Asn(64496 - 1),
                ttl: 57,
            },
            FlowRecord {
                ts: u32::MAX,
                src: 0,
                dst: u32::MAX,
                proto: Proto::Other(255),
                sport: 0,
                dport: 65535,
                packets: u32::MAX,
                bytes: u64::MAX,
                pkt_size: u16::MAX,
                member: Asn(u32::MAX),
                ttl: 255,
            },
        ]
    }

    #[test]
    fn roundtrip() {
        let flows = plausible_sample(30);
        assert_eq!(decode_clean(&encode(&flows)), flows);
        assert!(decode_clean(&encode(&[])).is_empty());
    }

    /// The file record and the link record are the same bytes, so a
    /// link can carry what the file held without re-encoding.
    #[test]
    fn file_record_is_the_link_record() {
        const _: () = assert!(RECORD_LEN == FLOW_WIRE_LEN);
        let mut flows = sample(); // incl. Proto::Other and max-width fields
        flows.extend(plausible_sample(5));
        flows.push(FlowRecord { ttl: 0, ..flows[0] });
        for f in &flows {
            let mut link = Vec::new();
            codec::put_flows(&mut link, std::slice::from_ref(f));
            assert_eq!(encode(std::slice::from_ref(f))[HEADER_LEN..], link[4..]);
            assert_eq!(encode_record_v1(f)[..], link[4..4 + V1_RECORD_LEN]);
        }
    }

    #[test]
    fn record_size_is_fixed() {
        let bytes = encode(&sample());
        assert_eq!(bytes.len(), HEADER_LEN + 2 * RECORD_LEN);
    }

    #[test]
    fn v1_files_still_decode_with_zero_ttl() {
        let flows = plausible_sample(6);
        let v1 = encode_v1(&flows);
        assert_eq!(v1.len(), V1_HEADER_LEN + 6 * V1_RECORD_LEN);
        let want: Vec<FlowRecord> = flows.iter().map(|f| FlowRecord { ttl: 0, ..*f }).collect();
        assert_eq!(decode_clean(&v1), want);
    }

    #[test]
    fn longer_than_known_records_decode_with_tail_skipped() {
        let flows = plausible_sample(10);
        for record_len in [RECORD_LEN + 1, RECORD_LEN + 5, RECORD_LEN + 64] {
            let bytes = encode_padded(&flows, record_len);
            assert_eq!(bytes.len(), HEADER_LEN + flows.len() * record_len);
            assert_eq!(decode_clean(&bytes), flows, "record_len {record_len}");
        }
    }

    #[test]
    fn v2_header_with_undersized_record_len_is_a_version_fault() {
        let mut bytes = encode(&plausible_sample(2));
        bytes[6..8].copy_from_slice(&(RECORD_LEN as u16 - 1).to_be_bytes());
        assert_abandoned(&bytes, FaultKind::BadVersion);
    }

    /// Every way [`Layout::parse`] refuses a header abandons the whole
    /// input under the fault it names.
    #[test]
    fn bad_magic_and_version() {
        let good = encode(&plausible_sample(2));
        assert_abandoned(b"", FaultKind::BadMagic);
        assert_abandoned(b"IPF", FaultKind::BadMagic);
        assert_abandoned(b"XXXX\x00\x01", FaultKind::BadMagic);
        assert_abandoned(&good[..5], FaultKind::Truncated);
        assert_abandoned(&good[..7], FaultKind::Truncated);
        for version in [0u8, 3, 9] {
            let mut bytes = good.clone();
            bytes[5] = version;
            assert_abandoned(&bytes, FaultKind::BadVersion);
        }
    }

    /// A cut anywhere after the header yields the records before it and
    /// quarantines the torn record as one `Truncated` span.
    #[test]
    fn truncation_detected_at_every_cut() {
        let flows = plausible_sample(3);
        let bytes = encode(&flows);
        for cut in HEADER_LEN..bytes.len() {
            let (got, health) = decode_resilient(&bytes[..cut]);
            let whole = (cut - HEADER_LEN) / RECORD_LEN;
            let torn = (cut - HEADER_LEN) % RECORD_LEN;
            assert_eq!(got, flows[..whole], "cut {cut}");
            assert!(health.reconciles());
            assert_eq!(health.quarantined_bytes, torn as u64, "cut {cut}");
            if torn > 0 {
                assert_eq!(health.events.len(), 1);
                assert_eq!(health.events[0].kind, FaultKind::Truncated);
            }
        }
    }

    /// A corpus of records that satisfy [`plausible_record`] (as every
    /// exporter-produced record does).
    fn plausible_sample(n: u32) -> Vec<FlowRecord> {
        (0..n)
            .map(|i| {
                let packets = 1 + i % 40;
                let pkt_size = 40 + (i % 1400) as u16;
                FlowRecord {
                    ts: 100 + i,
                    src: 0x0A00_0000 + i,
                    dst: 0xC000_0200 + i,
                    proto: if i % 2 == 0 { Proto::Tcp } else { Proto::Udp },
                    sport: 1025 + (i % 60000) as u16,
                    dport: 80,
                    packets,
                    bytes: packets as u64 * pkt_size as u64,
                    pkt_size,
                    member: Asn(64496 + i % 7),
                    ttl: 30 + (i % 90) as u8,
                }
            })
            .collect()
    }

    /// On clean input the one decoder returns exactly what was written,
    /// the answer a fail-stop reader would give, with clean health.
    #[test]
    fn resilient_matches_strict_on_clean_input() {
        let flows = plausible_sample(20);
        let bytes = encode(&flows);
        let (got, health) = decode_resilient(&bytes);
        assert_eq!(got, flows);
        assert_eq!(health.status(), spoofwatch_net::IngestStatus::Ok);
        assert!(health.reconciles());
        assert_eq!(health.ok_records, 20);
    }

    #[test]
    fn resilient_quarantines_truncated_tail() {
        let flows = plausible_sample(5);
        let bytes = encode(&flows);
        let cut = bytes.len() - 10; // mid-way through the last record
        let (got, health) = decode_resilient(&bytes[..cut]);
        assert_eq!(got, flows[..4]);
        assert_eq!(health.status(), IngestStatus::Recovered);
        assert!(health.reconciles());
        assert_eq!(health.events[0].kind, FaultKind::Truncated);
    }

    #[test]
    fn resilient_skips_corrupted_counter() {
        let flows = plausible_sample(10);
        let mut bytes = encode(&flows);
        // Flip a bit in record 3's byte counter: the product identity
        // breaks, so only that record is lost.
        let off = HEADER_LEN + 3 * RECORD_LEN + 21; // bytes field starts at +21
        bytes[off] ^= 0x10;
        let (got, health) = decode_resilient(&bytes);
        assert_eq!(got.len(), 9);
        assert_eq!(got[..3], flows[..3]);
        assert_eq!(got[3..], flows[4..]);
        assert_eq!(health.status(), IngestStatus::Recovered);
        assert!(health.reconciles());
        assert_eq!(health.quarantined_bytes, RECORD_LEN as u64);
        assert_eq!(health.resyncs, 1);
    }

    #[test]
    fn resilient_regains_alignment_after_inserted_garbage() {
        let flows = plausible_sample(10);
        let mut bytes = encode(&flows);
        // Insert 7 garbage bytes between records 4 and 5, breaking the
        // fixed stride for everything after.
        let at = HEADER_LEN + 5 * RECORD_LEN;
        bytes.splice(at..at, [0xDEu8, 0xAD, 0xBE, 0xEF, 0x00, 0x01, 0x02]);
        let (got, health) = decode_resilient(&bytes);
        assert_eq!(got, flows, "all ten records recovered around the insertion");
        assert_eq!(health.status(), IngestStatus::Recovered);
        assert!(health.reconciles());
        assert_eq!(health.quarantined_bytes, 7);
        assert_eq!(health.resyncs, 1);
    }

    #[test]
    fn resilient_recovers_inside_extended_layouts() {
        // Corruption in one extended record's known prefix loses only
        // that record; the unknown tail bytes never confuse the walk.
        let flows = plausible_sample(8);
        let record_len = RECORD_LEN + 12;
        let mut bytes = encode_padded(&flows, record_len);
        let off = HEADER_LEN + 2 * record_len + 21; // record 2's bytes field
        bytes[off] ^= 0x04;
        let (got, health) = decode_resilient(&bytes);
        assert_eq!(got.len(), 7);
        assert_eq!(got[..2], flows[..2]);
        assert_eq!(got[2..], flows[3..]);
        assert!(health.reconciles());
        assert_eq!(health.status(), IngestStatus::Recovered);
    }

    #[test]
    fn resilient_decodes_duplicated_record() {
        let flows = plausible_sample(4);
        let mut bytes = encode(&flows);
        let start = HEADER_LEN + RECORD_LEN;
        let dup: Vec<u8> = bytes[start..start + RECORD_LEN].to_vec();
        bytes.splice(start..start, dup);
        let (got, health) = decode_resilient(&bytes);
        assert_eq!(got.len(), 5);
        assert_eq!(got[1], got[2]);
        assert_eq!(health.status(), IngestStatus::Ok);
        assert!(health.reconciles());
    }

    #[test]
    fn resilient_abandons_bad_header() {
        let (got, health) = decode_resilient(b"XXXX\x00\x01whatever");
        assert!(got.is_empty());
        assert_eq!(health.status(), IngestStatus::Unrecoverable);
        assert!(health.reconciles());

        let mut bytes = encode(&plausible_sample(2));
        bytes[5] = 9;
        let (got, health) = decode_resilient(&bytes);
        assert!(got.is_empty());
        assert_eq!(health.status(), IngestStatus::Unrecoverable);
        assert_eq!(health.events[0].kind, FaultKind::BadVersion);
    }

    #[test]
    fn implausible_records_are_not_real_flows() {
        // The all-max stress record used above fails the product
        // identity, as random garbage almost surely does.
        assert!(!plausible_record(&sample()[1]));
        for f in plausible_sample(50) {
            assert!(plausible_record(&f));
        }
    }
}
