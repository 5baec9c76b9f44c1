//! Classic libpcap capture file format (the pre-pcapng `.pcap` format).
//!
//! We write `LINKTYPE_RAW` (101) captures — each record body is a bare
//! IPv4 packet, which is exactly what an IXP-fabric tap of IP traffic
//! looks like after L2 stripping.
//!
//! One decoder reads the format: [`decode_resilient`] accepts both byte
//! orders and both microsecond (`0xa1b2c3d4`) and nanosecond
//! (`0xa1b23c4d`) magics, and walks the records with the shared
//! `resilient_walk`. A torn or corrupt capture yields its intact packets
//! and an [`IngestHealth`] that accounts for every byte — never a panic
//! or a phantom packet. [`PcapWriter`] refuses any packet the decoder
//! would not accept back.

use spoofwatch_net::ingest::{resilient_walk, RecordFormat};
use spoofwatch_net::{FaultKind, IngestHealth};
use std::io::{self, Write};

/// Microsecond-resolution magic number.
pub const MAGIC_USEC: u32 = 0xa1b2_c3d4;
/// Nanosecond-resolution magic number.
pub const MAGIC_NSEC: u32 = 0xa1b2_3c4d;
/// LINKTYPE_RAW: raw IP packets, no link-layer header.
pub const LINKTYPE_RAW: u32 = 101;
/// Snap length we write (full packets, standard tcpdump default).
pub const SNAPLEN: u32 = 262_144;
/// Size of the global file header.
const GLOBAL_HEADER_LEN: usize = 24;

/// One captured packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcapPacket {
    /// Capture timestamp, seconds part.
    pub ts_sec: u32,
    /// Capture timestamp, sub-second part in the file's resolution.
    pub ts_frac: u32,
    /// Original length on the wire (may exceed `data.len()` if the
    /// capture was snapped).
    pub orig_len: u32,
    /// Captured bytes (a raw IPv4 packet under `LINKTYPE_RAW`).
    pub data: Vec<u8>,
}

impl PcapPacket {
    /// A full (unsnapped) capture of `data` at `ts_sec.ts_usec`.
    pub fn full(ts_sec: u32, ts_usec: u32, data: Vec<u8>) -> Self {
        PcapPacket {
            ts_sec,
            ts_frac: ts_usec,
            orig_len: data.len() as u32,
            data,
        }
    }
}

/// Streaming pcap writer (microsecond resolution, native-order fields
/// written little-endian, LINKTYPE_RAW).
pub struct PcapWriter<W: Write> {
    inner: W,
}

impl<W: Write> PcapWriter<W> {
    /// Write the global header and return the writer.
    pub fn new(mut inner: W) -> io::Result<Self> {
        let mut hdr = [0u8; GLOBAL_HEADER_LEN];
        hdr[0..4].copy_from_slice(&MAGIC_USEC.to_le_bytes());
        hdr[4..6].copy_from_slice(&2u16.to_le_bytes()); // version major
        hdr[6..8].copy_from_slice(&4u16.to_le_bytes()); // version minor
        // thiszone (4) and sigfigs (4) stay zero
        hdr[16..20].copy_from_slice(&SNAPLEN.to_le_bytes());
        hdr[20..24].copy_from_slice(&LINKTYPE_RAW.to_le_bytes());
        inner.write_all(&hdr)?;
        Ok(PcapWriter { inner })
    }

    /// Append one packet record. A packet whose lengths break the rule
    /// the decoder enforces (`data.len() == orig_len <= SNAPLEN`, or
    /// `data.len() == SNAPLEN < orig_len`) is refused with
    /// `InvalidInput`, and nothing is written for it.
    pub fn write_packet(&mut self, pkt: &PcapPacket) -> io::Result<()> {
        let incl_len = u32::try_from(pkt.data.len()).unwrap_or(u32::MAX);
        if !lengths_plausible(incl_len, pkt.orig_len, SNAPLEN) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "pcap record of {} captured bytes, {} on the wire, snap length {SNAPLEN}",
                    pkt.data.len(),
                    pkt.orig_len
                ),
            ));
        }
        let mut rec = [0u8; 16];
        rec[0..4].copy_from_slice(&pkt.ts_sec.to_le_bytes());
        rec[4..8].copy_from_slice(&pkt.ts_frac.to_le_bytes());
        rec[8..12].copy_from_slice(&incl_len.to_le_bytes());
        rec[12..16].copy_from_slice(&pkt.orig_len.to_le_bytes());
        self.inner.write_all(&rec)?;
        self.inner.write_all(&pkt.data)
    }

    /// Flush and return the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// A record header's fields, decoded with the file's byte order.
struct RecHeader {
    ts_sec: u32,
    ts_frac: u32,
    incl_len: u32,
    orig_len: u32,
}

fn rec_header_at(data: &[u8], pos: usize, swapped: bool) -> Option<RecHeader> {
    let b = data.get(pos..pos + 16)?;
    let u32_at = |i: usize| {
        let v = u32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]);
        if swapped {
            v.swap_bytes()
        } else {
            v
        }
    };
    Some(RecHeader {
        ts_sec: u32_at(0),
        ts_frac: u32_at(4),
        incl_len: u32_at(8),
        orig_len: u32_at(12),
    })
}

/// Whether a record's lengths are internally consistent: an unsnapped
/// packet has `incl_len == orig_len <= snaplen`, a snapped one has
/// `incl_len == snaplen < orig_len`. The equality requirement matters:
/// `incl <= orig` alone admits a shifted parse where a real record's
/// `orig_len` lands in the `incl_len` slot and chains indefinitely.
fn lengths_plausible(incl_len: u32, orig_len: u32, snaplen: u32) -> bool {
    (incl_len == orig_len && incl_len <= snaplen) || (incl_len == snaplen && orig_len > snaplen)
}

/// The record header at `pos`, if its lengths are plausible.
fn header_plausible(data: &[u8], pos: usize, swapped: bool, snaplen: u32) -> Option<RecHeader> {
    let h = rec_header_at(data, pos, swapped)?;
    lengths_plausible(h.incl_len, h.orig_len, snaplen).then_some(h)
}

/// Whether the stream starting at `pos` looks like a valid continuation,
/// examining up to `depth` further record headers. End-of-input is a
/// valid continuation, and so is a final record whose header is sane but
/// whose body runs past the end (a torn tail).
fn chain_plausible(data: &[u8], pos: usize, swapped: bool, snaplen: u32, depth: u32) -> bool {
    if pos >= data.len() {
        return pos == data.len();
    }
    if depth == 0 {
        return true;
    }
    let Some(h) = header_plausible(data, pos, swapped, snaplen) else {
        return false;
    };
    match (pos + 16).checked_add(h.incl_len as usize) {
        Some(end) if end <= data.len() => chain_plausible(data, end, swapped, snaplen, depth - 1),
        _ => true, // torn tail: acceptable as a continuation
    }
}

/// The next-packet-header heuristic used for resynchronization: a
/// candidate boundary must carry a plausible header, a body that fully
/// fits, *and* chain into two further plausible records (or the end of
/// the input). pcap record headers alone are weak evidence — length
/// fields of one record overlapping the body of another can look sane —
/// so the two-deep chain is what keeps garbage from faking a boundary.
fn record_plausible_at(data: &[u8], pos: usize, swapped: bool, snaplen: u32) -> bool {
    let Some(h) = header_plausible(data, pos, swapped, snaplen) else {
        return false;
    };
    match (pos + 16).checked_add(h.incl_len as usize) {
        Some(end) if end <= data.len() => chain_plausible(data, end, swapped, snaplen, 2),
        _ => false,
    }
}

/// What the global header fixes for every record of a capture, and the
/// hooks of the shared walk over them: a record is a plausible header
/// whose body fits; a resync boundary must also chain (see
/// [`record_plausible_at`]).
struct Capture {
    swapped: bool,
    snaplen: u32,
}

impl Capture {
    /// Parse the global header, or name the fault that makes the
    /// capture undecodable: without the header neither byte order nor
    /// snap length is known.
    fn parse(data: &[u8]) -> Result<Capture, FaultKind> {
        let hdr = data.get(..GLOBAL_HEADER_LEN).ok_or(FaultKind::Truncated)?;
        let swapped = match u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]) {
            MAGIC_USEC | MAGIC_NSEC => false,
            m if m.swap_bytes() == MAGIC_USEC || m.swap_bytes() == MAGIC_NSEC => true,
            _ => return Err(FaultKind::BadMagic),
        };
        let snaplen = u32::from_le_bytes([hdr[16], hdr[17], hdr[18], hdr[19]]);
        Ok(Capture {
            swapped,
            snaplen: if swapped { snaplen.swap_bytes() } else { snaplen },
        })
    }
}

impl RecordFormat for Capture {
    type Record = PcapPacket;

    fn record_at(&self, data: &[u8], pos: usize) -> Option<(PcapPacket, usize)> {
        let h = header_plausible(data, pos, self.swapped, self.snaplen)?;
        let body = pos + 16;
        let packet = data.get(body..body.checked_add(h.incl_len as usize)?)?;
        Some((
            PcapPacket {
                ts_sec: h.ts_sec,
                ts_frac: h.ts_frac,
                orig_len: h.orig_len,
                data: packet.to_vec(),
            },
            16 + packet.len(),
        ))
    }

    fn boundary_at(&self, data: &[u8], pos: usize) -> bool {
        record_plausible_at(data, pos, self.swapped, self.snaplen)
    }

    fn fault_at(&self, data: &[u8], pos: usize) -> FaultKind {
        if data.len() - pos < 16
            || header_plausible(data, pos, self.swapped, self.snaplen).is_some()
        {
            FaultKind::Truncated // header short or body runs past the end
        } else {
            FaultKind::BadRecord
        }
    }
}

/// Decode an in-memory pcap capture, recovering from corruption.
///
/// Bad spans are quarantined and the walk resynchronizes by scanning for
/// the next offset that satisfies the chained next-packet-header
/// heuristic (see [`record_plausible_at`]). The returned
/// [`IngestHealth`] accounts for every input byte:
/// `ok_bytes + quarantined_bytes == data.len()`.
///
/// A bad global header is unrecoverable — without it neither byte order
/// nor snap length is known — and quarantines the whole input.
pub fn decode_resilient(data: &[u8]) -> (Vec<PcapPacket>, IngestHealth) {
    let mut health = IngestHealth::new(data.len() as u64);
    let mut out = Vec::new();
    match Capture::parse(data) {
        Err(kind) => health.abandon(kind),
        Ok(capture) => {
            health.credit_ok(GLOBAL_HEADER_LEN as u64);
            let mut pos = GLOBAL_HEADER_LEN;
            resilient_walk(&capture, data, &mut pos, usize::MAX, &mut health, |p| out.push(p));
        }
    }
    health.record_metrics("pcap");
    (out, health)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spoofwatch_net::{IngestEvent, IngestStatus};

    fn sample_packets() -> Vec<PcapPacket> {
        vec![
            PcapPacket::full(100, 5, vec![0x45, 0, 0, 1]),
            PcapPacket::full(101, 999_999, vec![1, 2, 3, 4, 5, 6, 7]),
            PcapPacket::full(102, 0, vec![]),
        ]
    }

    fn write_all(pkts: &[PcapPacket]) -> Vec<u8> {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for p in pkts {
            w.write_packet(p).unwrap();
        }
        w.finish().unwrap()
    }

    /// A run of packets with nonzero patterned bodies, like real IP
    /// traffic (all-zero bodies are themselves valid empty-record
    /// headers, which no recovery heuristic can tell from padding).
    fn patterned_packets(n: u32) -> Vec<PcapPacket> {
        (0..n)
            .map(|i| {
                let len = 20 + (i as usize * 13) % 60;
                PcapPacket::full(
                    1000 + i,
                    i * 7,
                    (0..len).map(|j| 0x40u8 | ((i as usize + j) % 64) as u8).collect(),
                )
            })
            .collect()
    }

    /// [`decode_resilient`] on input it must read without a fault.
    fn decode_clean(bytes: &[u8]) -> Vec<PcapPacket> {
        let (pkts, health) = decode_resilient(bytes);
        assert_eq!(health.status(), IngestStatus::Ok, "{health}");
        assert!(health.reconciles());
        assert_eq!(health.ok_records, pkts.len() as u64);
        pkts
    }

    /// Assert that `bytes` is abandoned whole under `kind`.
    fn assert_abandoned(bytes: &[u8], kind: FaultKind) {
        let (pkts, health) = decode_resilient(bytes);
        assert!(pkts.is_empty());
        assert_eq!(health.status(), IngestStatus::Unrecoverable);
        assert!(health.reconciles());
        assert_eq!(health.ok_bytes, 0);
        // An empty input leaves no span to quarantine, so no event.
        assert_eq!(health.fault_counts[kind.index()], u64::from(!bytes.is_empty()));
    }

    /// A little-endian capture as [`PcapWriter`] writes it, with every
    /// header field byte-swapped: the same capture from a big-endian
    /// writer.
    fn to_big_endian(capture: &[u8]) -> Vec<u8> {
        let mut out = capture.to_vec();
        for (at, width) in [(0, 4), (4, 2), (6, 2), (8, 4), (12, 4), (16, 4), (20, 4)] {
            out[at..at + width].reverse();
        }
        let mut pos = GLOBAL_HEADER_LEN;
        while pos < out.len() {
            let incl = u32::from_le_bytes(out[pos + 8..pos + 12].try_into().unwrap());
            for field in (pos..pos + 16).step_by(4) {
                out[field..field + 4].reverse();
            }
            pos += 16 + incl as usize;
        }
        out
    }

    #[test]
    fn roundtrip() {
        for pkts in [sample_packets(), patterned_packets(12), vec![]] {
            assert_eq!(decode_clean(&write_all(&pkts)), pkts);
        }
    }

    #[test]
    fn big_endian_files_read_correctly() {
        let pkts = patterned_packets(9);
        assert_eq!(decode_clean(&to_big_endian(&write_all(&pkts))), pkts);
    }

    #[test]
    fn nanosecond_magic_detected() {
        let pkts = patterned_packets(5);
        let mut little = write_all(&pkts);
        little[0..4].copy_from_slice(&MAGIC_NSEC.to_le_bytes());
        let big = to_big_endian(&little);
        assert_eq!(big[0..4], MAGIC_NSEC.to_be_bytes());
        assert_eq!(decode_clean(&little), pkts);
        assert_eq!(decode_clean(&big), pkts);
    }

    /// A writer-produced snapped record (`incl_len == snaplen <
    /// orig_len`) decodes with clean health between unsnapped ones.
    #[test]
    fn snapped_record_roundtrips() {
        let mut pkts = patterned_packets(3);
        pkts[1] = PcapPacket {
            ts_sec: 7,
            ts_frac: 8,
            orig_len: SNAPLEN + 1_000,
            data: vec![0x45; SNAPLEN as usize],
        };
        assert_eq!(decode_clean(&write_all(&pkts)), pkts);
    }

    /// The writer refuses, and writes nothing for, any packet the decoder
    /// would quarantine.
    #[test]
    fn writer_refuses_records_the_decoder_rejects() {
        let good = patterned_packets(2);
        let refused = [
            PcapPacket::full(0, 0, vec![0; SNAPLEN as usize + 1]),
            PcapPacket {
                orig_len: 3,
                ..PcapPacket::full(0, 0, vec![0x45; 4])
            },
            PcapPacket {
                orig_len: 5,
                ..PcapPacket::full(0, 0, vec![0x45; 4])
            },
            PcapPacket {
                orig_len: SNAPLEN,
                ..PcapPacket::full(0, 0, vec![0x45; SNAPLEN as usize - 1])
            },
        ];
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.write_packet(&good[0]).unwrap();
        for pkt in &refused {
            let err = w.write_packet(pkt).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        }
        w.write_packet(&good[1]).unwrap();
        let bytes = w.finish().unwrap();
        assert_eq!(bytes, write_all(&good));
        assert_eq!(decode_clean(&bytes), good);
    }

    #[test]
    fn bad_magic_rejected() {
        let bytes = write_all(&patterned_packets(3));
        for at in 0..4 {
            let mut bad = bytes.clone();
            bad[at] ^= 0xFF;
            assert_abandoned(&bad, FaultKind::BadMagic);
        }
    }

    #[test]
    fn truncated_header_rejected() {
        let bytes = write_all(&sample_packets());
        for cut in 0..GLOBAL_HEADER_LEN {
            assert_abandoned(&bytes[..cut], FaultKind::Truncated);
        }
    }

    /// A cut anywhere after the global header yields the packets before
    /// it and quarantines the torn record as one `Truncated` span.
    #[test]
    fn truncated_record_body_is_an_error() {
        let pkts = patterned_packets(4);
        let bytes = write_all(&pkts);
        let ends: Vec<usize> = (0..=pkts.len()).map(|k| write_all(&pkts[..k]).len()).collect();
        for cut in GLOBAL_HEADER_LEN..bytes.len() {
            let whole = ends.iter().rposition(|&end| end <= cut).unwrap_or(0);
            let (got, health) = decode_resilient(&bytes[..cut]);
            assert_eq!(got, pkts[..whole], "cut {cut}");
            assert!(health.reconciles());
            assert_eq!(health.quarantined_bytes, (cut - ends[whole]) as u64, "cut {cut}");
            if cut > ends[whole] {
                assert_eq!(health.events.len(), 1);
                assert_eq!(health.events[0].kind, FaultKind::Truncated);
            }
        }
    }

    /// A record whose `incl_len` exceeds the snap length, between two
    /// good ones, is quarantined whole as a bad record.
    #[test]
    fn oversized_incl_len_rejected() {
        let pkts = patterned_packets(3);
        let mut bytes = write_all(&pkts);
        let offset = GLOBAL_HEADER_LEN + 16 + pkts[0].data.len();
        bytes[offset + 8..offset + 12].copy_from_slice(&(SNAPLEN + 1).to_le_bytes());
        let (got, health) = decode_resilient(&bytes);
        assert_eq!(got, [pkts[0].clone(), pkts[2].clone()]);
        assert!(health.reconciles());
        let event = IngestEvent {
            offset: offset as u64,
            len: 16 + pkts[1].data.len() as u64,
            kind: FaultKind::BadRecord,
        };
        assert_eq!(health.events, [event]);
    }

    /// On clean input the one decoder returns exactly what was written,
    /// the answer a fail-stop reader would give, with clean health.
    #[test]
    fn resilient_matches_strict_on_clean_input() {
        let pkts = patterned_packets(12);
        let bytes = write_all(&pkts);
        let (got, health) = decode_resilient(&bytes);
        assert_eq!(got, pkts);
        assert_eq!(health.status(), spoofwatch_net::IngestStatus::Ok);
        assert!(health.reconciles());
        assert_eq!(health.ok_records, 12);
        assert_eq!(health.ok_bytes, bytes.len() as u64);
    }

    #[test]
    fn resilient_quarantines_truncated_tail() {
        let pkts = patterned_packets(6);
        let bytes = write_all(&pkts);
        let cut = bytes.len() - 5; // inside the last record's body
        let (got, health) = decode_resilient(&bytes[..cut]);
        assert_eq!(got, pkts[..5]);
        assert_eq!(health.status(), IngestStatus::Recovered);
        assert!(health.reconciles());
        assert_eq!(health.events[0].kind, FaultKind::Truncated);
    }

    #[test]
    fn resilient_resyncs_past_smashed_length() {
        let pkts = patterned_packets(8);
        let bytes = write_all(&pkts);
        let mut dirty = bytes.clone();
        // Make the first record's incl_len absurd (> snaplen).
        dirty[24 + 8..24 + 12].copy_from_slice(&0xFFFF_FFFFu32.to_le_bytes());
        let (got, health) = decode_resilient(&dirty);
        assert_eq!(got, pkts[1..], "exactly the smashed record is lost");
        assert_eq!(health.status(), IngestStatus::Recovered);
        assert!(health.reconciles());
        assert_eq!(health.resyncs, 1);
        assert_eq!(health.events[0].offset, 24);
        assert_eq!(health.events[0].len, 16 + pkts[0].data.len() as u64);
    }

    #[test]
    fn resilient_recovers_after_inserted_garbage() {
        let pkts = patterned_packets(8);
        let bytes = write_all(&pkts);
        let mut dirty = bytes.clone();
        // 11 nonzero garbage bytes between records 3 and 4.
        let at = 24 + (0..4).map(|i| 16 + pkts[i].data.len()).sum::<usize>();
        dirty.splice(at..at, std::iter::repeat_n(0xEEu8, 11));
        let (got, health) = decode_resilient(&dirty);
        assert_eq!(got, pkts, "all packets recovered around the insertion");
        assert_eq!(health.status(), IngestStatus::Recovered);
        assert!(health.reconciles());
        assert_eq!(health.quarantined_bytes, 11);
    }

    #[test]
    fn resilient_decodes_duplicated_record() {
        let pkts = patterned_packets(5);
        let bytes = write_all(&pkts);
        let start = 24 + 16 + pkts[0].data.len();
        let rec_len = 16 + pkts[1].data.len();
        let mut dirty = bytes.clone();
        let dup: Vec<u8> = dirty[start..start + rec_len].to_vec();
        dirty.splice(start..start, dup);
        let (got, health) = decode_resilient(&dirty);
        assert_eq!(got.len(), 6);
        assert_eq!(got[1], got[2]);
        assert_eq!(health.status(), IngestStatus::Ok);
        assert!(health.reconciles());
    }

    #[test]
    fn resilient_abandons_bad_global_header() {
        let (got, health) = decode_resilient(&[0xFFu8; 100]);
        assert!(got.is_empty());
        assert_eq!(health.status(), IngestStatus::Unrecoverable);
        assert!(health.reconciles());
        assert_eq!(health.events[0].kind, FaultKind::BadMagic);

        let (got, health) = decode_resilient(&[0u8; 10]); // shorter than a header
        assert!(got.is_empty());
        assert_eq!(health.status(), IngestStatus::Unrecoverable);
        assert!(health.reconciles());
    }

    #[test]
    fn resilient_handles_big_endian_files() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC_USEC.to_be_bytes());
        bytes.extend_from_slice(&2u16.to_be_bytes());
        bytes.extend_from_slice(&4u16.to_be_bytes());
        bytes.extend_from_slice(&[0u8; 8]);
        bytes.extend_from_slice(&65535u32.to_be_bytes());
        bytes.extend_from_slice(&LINKTYPE_RAW.to_be_bytes());
        bytes.extend_from_slice(&7u32.to_be_bytes());
        bytes.extend_from_slice(&8u32.to_be_bytes());
        bytes.extend_from_slice(&3u32.to_be_bytes());
        bytes.extend_from_slice(&3u32.to_be_bytes());
        bytes.extend_from_slice(&[9, 9, 9]);
        let (got, health) = decode_resilient(&bytes);
        assert_eq!(got.len(), 1);
        assert_eq!((got[0].ts_sec, got[0].ts_frac, got[0].data.len()), (7, 8, 3));
        assert_eq!(health.status(), IngestStatus::Ok);
    }
}
