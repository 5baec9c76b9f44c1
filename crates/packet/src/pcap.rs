//! Classic libpcap capture file format (the pre-pcapng `.pcap` format).
//!
//! We write `LINKTYPE_RAW` (101) captures — each record body is a bare
//! IPv4 packet, which is exactly what an IXP-fabric tap of IP traffic
//! looks like after L2 stripping. The reader accepts both byte orders and
//! both microsecond (`0xa1b2c3d4`) and nanosecond (`0xa1b23c4d`) magics,
//! and fails gracefully on truncated files.

use crate::PacketError;
use spoofwatch_net::ingest::{resilient_walk, RecordFormat};
use spoofwatch_net::{FaultKind, IngestHealth};
use std::io::{self, Read, Write};

/// Microsecond-resolution magic number.
pub const MAGIC_USEC: u32 = 0xa1b2_c3d4;
/// Nanosecond-resolution magic number.
pub const MAGIC_NSEC: u32 = 0xa1b2_3c4d;
/// LINKTYPE_RAW: raw IP packets, no link-layer header.
pub const LINKTYPE_RAW: u32 = 101;
/// Snap length we write (full packets, standard tcpdump default).
pub const SNAPLEN: u32 = 262_144;

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
        let mut hdr = [0u8; 24];
        hdr[0..4].copy_from_slice(&MAGIC_USEC.to_le_bytes());
        hdr[4..6].copy_from_slice(&2u16.to_le_bytes()); // version major
        hdr[6..8].copy_from_slice(&4u16.to_le_bytes()); // version minor
        // thiszone (4) and sigfigs (4) stay zero
        hdr[16..20].copy_from_slice(&SNAPLEN.to_le_bytes());
        hdr[20..24].copy_from_slice(&LINKTYPE_RAW.to_le_bytes());
        inner.write_all(&hdr)?;
        Ok(PcapWriter { inner })
    }

    /// Append one packet record.
    pub fn write_packet(&mut self, pkt: &PcapPacket) -> io::Result<()> {
        let mut rec = [0u8; 16];
        rec[0..4].copy_from_slice(&pkt.ts_sec.to_le_bytes());
        rec[4..8].copy_from_slice(&pkt.ts_frac.to_le_bytes());
        rec[8..12].copy_from_slice(&(pkt.data.len() as u32).to_le_bytes());
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

/// Errors from reading a pcap stream: either I/O or format violations.
#[derive(Debug)]
pub enum PcapReadError {
    /// Underlying reader failed.
    Io(io::Error),
    /// The stream violated the pcap format.
    Format(PacketError),
}

impl std::fmt::Display for PcapReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcapReadError::Io(e) => write!(f, "pcap I/O error: {e}"),
            PcapReadError::Format(e) => write!(f, "pcap format error: {e}"),
        }
    }
}

impl std::error::Error for PcapReadError {}

impl From<io::Error> for PcapReadError {
    fn from(e: io::Error) -> Self {
        PcapReadError::Io(e)
    }
}

/// Streaming pcap reader handling both endiannesses and both timestamp
/// resolutions.
pub struct PcapReader<R: Read> {
    inner: R,
    swapped: bool,
    /// Link type from the global header (101 for files we write).
    pub linktype: u32,
    /// Snap length from the global header; records claiming more captured
    /// bytes are rejected.
    pub snaplen: u32,
    /// Whether timestamps are nanosecond resolution.
    pub nanosecond: bool,
}

impl<R: Read> PcapReader<R> {
    /// Read and validate the global header.
    pub fn new(mut inner: R) -> Result<Self, PcapReadError> {
        let mut hdr = [0u8; 24];
        inner.read_exact(&mut hdr)?;
        let magic = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]);
        let (swapped, nanosecond) = match magic {
            MAGIC_USEC => (false, false),
            MAGIC_NSEC => (false, true),
            m if m.swap_bytes() == MAGIC_USEC => (true, false),
            m if m.swap_bytes() == MAGIC_NSEC => (true, true),
            m => return Err(PcapReadError::Format(PacketError::BadMagic(m))),
        };
        let u32_at = |b: &[u8; 24], i: usize| {
            let v = u32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]);
            if swapped {
                v.swap_bytes()
            } else {
                v
            }
        };
        let snaplen = u32_at(&hdr, 16);
        let linktype = u32_at(&hdr, 20);
        Ok(PcapReader {
            inner,
            swapped,
            linktype,
            snaplen,
            nanosecond,
        })
    }

    /// Read the next packet; `Ok(None)` at a clean end-of-file, an error
    /// if the file ends inside a record.
    pub fn next_packet(&mut self) -> Result<Option<PcapPacket>, PcapReadError> {
        // Read the record header in two steps so a clean end-of-file
        // (zero bytes before the next record) is distinguishable from a
        // file torn mid-record.
        let mut rec = [0u8; 16];
        let mut first = 0usize;
        while first < rec.len() {
            match self.inner.read(&mut rec[first..]) {
                Ok(0) if first == 0 => return Ok(None), // clean EOF
                Ok(0) => return Err(PcapReadError::Format(PacketError::Truncated)),
                Ok(n) => first += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
        let u32_at = |b: &[u8; 16], i: usize| {
            let v = u32::from_le_bytes([b[i], b[i + 1], b[i + 2], b[i + 3]]);
            if self.swapped {
                v.swap_bytes()
            } else {
                v
            }
        };
        let ts_sec = u32_at(&rec, 0);
        let ts_frac = u32_at(&rec, 4);
        let incl_len = u32_at(&rec, 8);
        let orig_len = u32_at(&rec, 12);
        if incl_len > self.snaplen || incl_len > orig_len {
            return Err(PcapReadError::Format(PacketError::BadRecord));
        }
        let mut data = vec![0u8; incl_len as usize];
        self.inner
            .read_exact(&mut data)
            .map_err(|_| PcapReadError::Format(PacketError::Truncated))?;
        Ok(Some(PcapPacket {
            ts_sec,
            ts_frac,
            orig_len,
            data,
        }))
    }

    /// Drain the remaining packets into a vector.
    pub fn collect_packets(&mut self) -> Result<Vec<PcapPacket>, PcapReadError> {
        let mut out = Vec::new();
        while let Some(p) = self.next_packet()? {
            out.push(p);
        }
        Ok(out)
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

/// Whether the 16 bytes at `pos` look like a record header: a sane
/// `incl_len` under the snap length, and internally consistent lengths —
/// an unsnapped packet has `incl_len == orig_len`, a snapped one has
/// `incl_len == snaplen < orig_len`. The equality requirement matters:
/// `incl <= orig` alone admits a shifted parse where a real record's
/// `orig_len` lands in the `incl_len` slot and chains indefinitely.
fn header_plausible(data: &[u8], pos: usize, swapped: bool, snaplen: u32) -> Option<RecHeader> {
    let h = rec_header_at(data, pos, swapped)?;
    let sane = (h.incl_len == h.orig_len && h.incl_len <= snaplen)
        || (h.incl_len == snaplen && h.orig_len > snaplen);
    sane.then_some(h)
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
/// Streaming [`PcapReader`] fail-stops on the first malformed record;
/// this variant quarantines bad spans and resynchronizes by scanning for
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
    if data.len() < 24 {
        health.abandon(FaultKind::Truncated);
        health.record_metrics("pcap");
        return (out, health);
    }
    let magic = u32::from_le_bytes([data[0], data[1], data[2], data[3]]);
    let swapped = match magic {
        MAGIC_USEC | MAGIC_NSEC => false,
        m if m.swap_bytes() == MAGIC_USEC || m.swap_bytes() == MAGIC_NSEC => true,
        _ => {
            health.abandon(FaultKind::BadMagic);
            health.record_metrics("pcap");
            return (out, health);
        }
    };
    let u32_at = |i: usize| {
        let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
        if swapped {
            v.swap_bytes()
        } else {
            v
        }
    };
    let capture = Capture {
        swapped,
        snaplen: u32_at(16),
    };
    health.credit_ok(24);
    let mut pos = 24usize;
    resilient_walk(&capture, data, &mut pos, usize::MAX, &mut health, |p| out.push(p));
    health.record_metrics("pcap");
    (out, health)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

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

    #[test]
    fn roundtrip() {
        let pkts = sample_packets();
        let bytes = write_all(&pkts);
        let mut r = PcapReader::new(Cursor::new(bytes)).unwrap();
        assert_eq!(r.linktype, LINKTYPE_RAW);
        assert_eq!(r.snaplen, SNAPLEN);
        assert!(!r.nanosecond);
        let got = r.collect_packets().unwrap();
        assert_eq!(got, pkts);
    }

    #[test]
    fn big_endian_files_read_correctly() {
        // Hand-build a big-endian file with one 3-byte packet.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC_USEC.to_be_bytes());
        bytes.extend_from_slice(&2u16.to_be_bytes());
        bytes.extend_from_slice(&4u16.to_be_bytes());
        bytes.extend_from_slice(&[0u8; 8]);
        bytes.extend_from_slice(&65535u32.to_be_bytes());
        bytes.extend_from_slice(&LINKTYPE_RAW.to_be_bytes());
        bytes.extend_from_slice(&7u32.to_be_bytes()); // ts_sec
        bytes.extend_from_slice(&8u32.to_be_bytes()); // ts_usec
        bytes.extend_from_slice(&3u32.to_be_bytes()); // incl
        bytes.extend_from_slice(&3u32.to_be_bytes()); // orig
        bytes.extend_from_slice(&[9, 9, 9]);
        let mut r = PcapReader::new(Cursor::new(bytes)).unwrap();
        assert_eq!(r.linktype, LINKTYPE_RAW);
        let p = r.next_packet().unwrap().unwrap();
        assert_eq!((p.ts_sec, p.ts_frac, p.data.len()), (7, 8, 3));
        assert!(r.next_packet().unwrap().is_none());
    }

    #[test]
    fn bad_magic_rejected() {
        let bytes = vec![0xFFu8; 24];
        assert!(matches!(
            PcapReader::new(Cursor::new(bytes)),
            Err(PcapReadError::Format(PacketError::BadMagic(_)))
        ));
    }

    #[test]
    fn truncated_header_rejected() {
        let bytes = write_all(&sample_packets());
        assert!(PcapReader::new(Cursor::new(&bytes[..10])).is_err());
    }

    #[test]
    fn truncated_record_body_is_an_error() {
        let bytes = write_all(&sample_packets());
        // Cut inside the second record's body.
        let cut = 24 + 16 + 4 + 16 + 3;
        let mut r = PcapReader::new(Cursor::new(&bytes[..cut])).unwrap();
        assert!(r.next_packet().unwrap().is_some());
        assert!(r.next_packet().is_err());
    }

    #[test]
    fn oversized_incl_len_rejected() {
        let mut bytes = write_all(&sample_packets()[..1]);
        // Patch incl_len beyond snaplen.
        let incl = (SNAPLEN + 1).to_le_bytes();
        bytes[24 + 8..24 + 12].copy_from_slice(&incl);
        let mut r = PcapReader::new(Cursor::new(bytes)).unwrap();
        assert!(matches!(
            r.next_packet(),
            Err(PcapReadError::Format(PacketError::BadRecord))
        ));
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
        assert_eq!(health.status(), spoofwatch_net::IngestStatus::Recovered);
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
        assert_eq!(health.status(), spoofwatch_net::IngestStatus::Recovered);
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
        dirty.splice(at..at, std::iter::repeat(0xEEu8).take(11));
        let (got, health) = decode_resilient(&dirty);
        assert_eq!(got, pkts, "all packets recovered around the insertion");
        assert_eq!(health.status(), spoofwatch_net::IngestStatus::Recovered);
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
        assert_eq!(health.status(), spoofwatch_net::IngestStatus::Ok);
        assert!(health.reconciles());
    }

    #[test]
    fn resilient_abandons_bad_global_header() {
        let (got, health) = decode_resilient(&[0xFFu8; 100]);
        assert!(got.is_empty());
        assert_eq!(health.status(), spoofwatch_net::IngestStatus::Unrecoverable);
        assert!(health.reconciles());
        assert_eq!(health.events[0].kind, FaultKind::BadMagic);

        let (got, health) = decode_resilient(&[0u8; 10]); // shorter than a header
        assert!(got.is_empty());
        assert_eq!(health.status(), spoofwatch_net::IngestStatus::Unrecoverable);
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
        assert_eq!(health.status(), spoofwatch_net::IngestStatus::Ok);
    }

    #[test]
    fn nanosecond_magic_detected() {
        let mut bytes = write_all(&[]);
        bytes[0..4].copy_from_slice(&MAGIC_NSEC.to_le_bytes());
        let r = PcapReader::new(Cursor::new(bytes)).unwrap();
        assert!(r.nanosecond);
    }
}
