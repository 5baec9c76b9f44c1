//! "MRT-lite": a compact binary format for persisting and replaying
//! collector data, in the spirit of the MRT dumps RIPE RIS and RouteViews
//! publish (RFC 6396), reduced to the fields this system consumes.
//!
//! Layout (all integers big-endian):
//!
//! ```text
//! file   := magic "MRTL" | version u16 | record*
//! record := body_len u32 | body
//! body   := type u8 | ts u64 | peer u32 | prefix(bits u32, len u8) | path?
//! path   := hop_count u16 | hop u32 *     (announce records only)
//! ```
//!
//! The reader validates framing, record types, prefix canonicality, and
//! declared-vs-actual body lengths; truncated or corrupt input yields an
//! error, never a panic or a phantom record.

use crate::{Announcement, AsPath, Update};
use bytes::{Buf, BufMut};
use spoofwatch_net::ingest::{resilient_walk, RecordFormat};
use spoofwatch_net::{Asn, FaultKind, IngestHealth, Ipv4Prefix};
use std::fmt;
use std::io::{self, Read};

const MAGIC: &[u8; 4] = b"MRTL";
const VERSION: u16 = 1;
const TYPE_ANNOUNCE: u8 = 1;
const TYPE_WITHDRAW: u8 = 2;
/// Upper bound on hops: real paths rarely exceed ~30; anything beyond
/// this is corrupt data.
const MAX_HOPS: usize = 1024;
/// Upper bound on a record body (type + ts + peer + prefix + max path).
const MAX_BODY: usize = 1 + 8 + 4 + 5 + 2 + MAX_HOPS * 4;

/// MRT-lite decode errors.
#[derive(Debug)]
pub enum MrtError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Missing or wrong magic.
    BadMagic,
    /// Unsupported version.
    BadVersion(u16),
    /// Unknown record type byte.
    BadRecordType(u8),
    /// A declared length is impossible or the stream ended mid-record.
    Truncated,
    /// Prefix had host bits set or an impossible length.
    BadPrefix,
    /// Hop count exceeded the sanity bound (1024) or disagreed with the
    /// body length.
    BadPath,
}

impl fmt::Display for MrtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MrtError::Io(e) => write!(f, "MRT-lite I/O error: {e}"),
            MrtError::BadMagic => f.write_str("MRT-lite: bad magic"),
            MrtError::BadVersion(v) => write!(f, "MRT-lite: unsupported version {v}"),
            MrtError::BadRecordType(t) => write!(f, "MRT-lite: unknown record type {t}"),
            MrtError::Truncated => f.write_str("MRT-lite: truncated record"),
            MrtError::BadPrefix => f.write_str("MRT-lite: malformed prefix"),
            MrtError::BadPath => f.write_str("MRT-lite: malformed AS path"),
        }
    }
}

impl std::error::Error for MrtError {}

impl From<io::Error> for MrtError {
    fn from(e: io::Error) -> Self {
        MrtError::Io(e)
    }
}

/// Streaming reader.
pub struct MrtReader<R: Read> {
    inner: R,
}

impl<R: Read> MrtReader<R> {
    /// Read and validate the file header.
    pub fn new(mut inner: R) -> Result<Self, MrtError> {
        let mut magic = [0u8; 4];
        inner.read_exact(&mut magic).map_err(|_| MrtError::BadMagic)?;
        if &magic != MAGIC {
            return Err(MrtError::BadMagic);
        }
        let mut ver = [0u8; 2];
        inner.read_exact(&mut ver).map_err(|_| MrtError::Truncated)?;
        let version = u16::from_be_bytes(ver);
        if version != VERSION {
            return Err(MrtError::BadVersion(version));
        }
        Ok(MrtReader { inner })
    }

    /// Read the next record; `Ok(None)` at clean end-of-file.
    pub fn next_update(&mut self) -> Result<Option<Update>, MrtError> {
        // Length prefix, distinguishing clean EOF from a torn record.
        let mut len_buf = [0u8; 4];
        let mut got = 0usize;
        while got < 4 {
            match self.inner.read(&mut len_buf[got..]) {
                Ok(0) if got == 0 => return Ok(None),
                Ok(0) => return Err(MrtError::Truncated),
                Ok(n) => got += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e.into()),
            }
        }
        let len = u32::from_be_bytes(len_buf) as usize;
        if len == 0 || len > MAX_BODY {
            return Err(MrtError::Truncated);
        }
        let mut body = vec![0u8; len];
        self.inner
            .read_exact(&mut body)
            .map_err(|_| MrtError::Truncated)?;
        decode_body(&body)
    }

    /// Drain remaining records into a vector.
    pub fn collect_updates(&mut self) -> Result<Vec<Update>, MrtError> {
        let mut out = Vec::new();
        while let Some(u) = self.next_update()? {
            out.push(u);
        }
        Ok(out)
    }
}

fn decode_body(mut body: &[u8]) -> Result<Option<Update>, MrtError> {
    if body.remaining() < 1 + 8 + 4 + 5 {
        return Err(MrtError::Truncated);
    }
    let rtype = body.get_u8();
    let ts = body.get_u64();
    let peer = Asn(body.get_u32());
    let bits = body.get_u32();
    let len = body.get_u8();
    let prefix = Ipv4Prefix::new(bits, len).map_err(|_| MrtError::BadPrefix)?;
    match rtype {
        TYPE_WITHDRAW => {
            if body.has_remaining() {
                return Err(MrtError::Truncated); // trailing junk
            }
            Ok(Some(Update::Withdraw { ts, peer, prefix }))
        }
        TYPE_ANNOUNCE => {
            if body.remaining() < 2 {
                return Err(MrtError::Truncated);
            }
            let hop_count = body.get_u16() as usize;
            if hop_count > MAX_HOPS || body.remaining() != hop_count * 4 {
                return Err(MrtError::BadPath);
            }
            let mut hops = Vec::with_capacity(hop_count);
            for _ in 0..hop_count {
                hops.push(Asn(body.get_u32()));
            }
            Ok(Some(Update::Announce {
                ts,
                peer,
                announcement: Announcement::new(prefix, AsPath::new(hops)),
            }))
        }
        t => Err(MrtError::BadRecordType(t)),
    }
}

/// Encode one record body (everything after the length prefix).
fn encode_body(update: &Update) -> Vec<u8> {
    let mut body = Vec::with_capacity(64);
    match update {
        Update::Announce {
            ts,
            peer,
            announcement,
        } => {
            body.put_u8(TYPE_ANNOUNCE);
            body.put_u64(*ts);
            body.put_u32(peer.0);
            body.put_u32(announcement.prefix.bits());
            body.put_u8(announcement.prefix.len());
            let hops = announcement.path.hops();
            debug_assert!(hops.len() <= MAX_HOPS);
            body.put_u16(hops.len() as u16);
            for h in hops {
                body.put_u32(h.0);
            }
        }
        Update::Withdraw { ts, peer, prefix } => {
            body.put_u8(TYPE_WITHDRAW);
            body.put_u64(*ts);
            body.put_u32(peer.0);
            body.put_u32(prefix.bits());
            body.put_u8(prefix.len());
        }
    }
    body
}

/// Encode a batch of updates to an in-memory buffer.
pub fn encode(updates: &[Update]) -> Vec<u8> {
    let mut out = Vec::with_capacity(6 + updates.len() * 32);
    out.put_slice(MAGIC);
    out.put_u16(VERSION);
    for u in updates {
        let body = encode_body(u);
        out.put_u32(body.len() as u32);
        out.put_slice(&body);
    }
    out
}

/// Decode a complete in-memory buffer.
pub fn decode(data: &[u8]) -> Result<Vec<Update>, MrtError> {
    MrtReader::new(data)?.collect_updates()
}

/// The hooks of the shared walk over length-framed records.
struct Framed;

impl RecordFormat for Framed {
    type Record = Update;

    /// A full, well-framed record: its length counts the prefix.
    fn record_at(&self, data: &[u8], pos: usize) -> Option<(Update, usize)> {
        let rest = &data[pos..];
        if rest.len() < 4 {
            return None;
        }
        let blen = u32::from_be_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        if blen == 0 || blen > MAX_BODY || rest.len() < 4 + blen {
            return None;
        }
        match decode_body(&rest[4..4 + blen]) {
            Ok(Some(u)) => Some((u, 4 + blen)),
            _ => None,
        }
    }

    /// Only a body that validates in full marks a boundary — a sane
    /// `body_len` alone is weak evidence — so the scan pays the decode
    /// a record costs.
    fn boundary_at(&self, data: &[u8], pos: usize) -> bool {
        self.record_at(data, pos).is_some()
    }

    fn fault_at(&self, data: &[u8], pos: usize) -> FaultKind {
        let rest = &data[pos..];
        if rest.len() < 4 {
            return FaultKind::Truncated;
        }
        let blen = u32::from_be_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
        if blen == 0 || blen > MAX_BODY {
            return FaultKind::BadRecord;
        }
        if rest.len() < 4 + blen {
            return FaultKind::Truncated;
        }
        FaultKind::BadRecord
    }
}

/// Decode an in-memory buffer, recovering from corruption.
///
/// Unlike [`decode`], which fail-stops on the first malformed byte, this
/// quarantines bad spans and resynchronizes on the next offset where a
/// complete record decodes (length-framed resync: a candidate boundary
/// must carry a plausible `body_len` *and* a body that fully validates —
/// stray magic bytes or look-alike lengths inside a corrupt span do not
/// fool it). The returned [`IngestHealth`] accounts for every input
/// byte: `ok_bytes + quarantined_bytes == data.len()`.
///
/// A bad file header is unrecoverable — record framing cannot be
/// trusted without it — and quarantines the whole input.
pub fn decode_resilient(data: &[u8]) -> (Vec<Update>, IngestHealth) {
    let mut health = IngestHealth::new(data.len() as u64);
    let mut out = Vec::new();
    if data.len() < 4 || &data[..4] != MAGIC {
        health.abandon(FaultKind::BadMagic);
        health.record_metrics("mrt");
        return (out, health);
    }
    if data.len() < 6 {
        health.abandon(FaultKind::Truncated);
        health.record_metrics("mrt");
        return (out, health);
    }
    if u16::from_be_bytes([data[4], data[5]]) != VERSION {
        health.abandon(FaultKind::BadVersion);
        health.record_metrics("mrt");
        return (out, health);
    }
    health.credit_ok(6);
    let mut pos = 6usize;
    resilient_walk(&Framed, data, &mut pos, usize::MAX, &mut health, |u| out.push(u));
    health.record_metrics("mrt");
    (out, health)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Update> {
        vec![
            Update::Announce {
                ts: 1000,
                peer: Asn(12),
                announcement: Announcement::new(
                    "10.0.0.0/8".parse().unwrap(),
                    AsPath::from(vec![12, 7, 7, 3]),
                ),
            },
            Update::Withdraw {
                ts: 1001,
                peer: Asn(12),
                prefix: "192.0.2.0/24".parse().unwrap(),
            },
            Update::Announce {
                ts: 1002,
                peer: Asn(9),
                announcement: Announcement::new(
                    "0.0.0.0/0".parse().unwrap(),
                    AsPath::from(vec![9]),
                ),
            },
        ]
    }

    #[test]
    fn roundtrip() {
        let updates = sample();
        let bytes = encode(&updates);
        assert_eq!(decode(&bytes).unwrap(), updates);
    }

    #[test]
    fn empty_file_roundtrip() {
        let bytes = encode(&[]);
        assert!(decode(&bytes).unwrap().is_empty());
    }

    #[test]
    fn bad_magic() {
        assert!(matches!(decode(b"NOPE\x00\x01"), Err(MrtError::BadMagic)));
        assert!(matches!(decode(b""), Err(MrtError::BadMagic)));
    }

    #[test]
    fn bad_version() {
        let mut bytes = encode(&[]);
        bytes[5] = 99;
        assert!(matches!(decode(&bytes), Err(MrtError::BadVersion(99))));
    }

    #[test]
    fn truncation_at_every_cut() {
        let bytes = encode(&sample());
        for cut in 6..bytes.len() {
            match decode(&bytes[..cut]) {
                Err(_) => {}
                Ok(updates) => {
                    // A cut exactly between records decodes a clean prefix
                    // of the stream.
                    assert!(updates.len() < 3, "cut {cut} produced all records");
                    assert_eq!(updates[..], sample()[..updates.len()]);
                }
            }
        }
    }

    #[test]
    fn unknown_record_type() {
        let u = sample().remove(1);
        let mut bytes = encode(&[u]);
        bytes[10] = 77; // first body byte (after magic 4 + ver 2 + len 4)
        assert!(matches!(decode(&bytes), Err(MrtError::BadRecordType(77))));
    }

    #[test]
    fn noncanonical_prefix_rejected() {
        let u = Update::Withdraw {
            ts: 0,
            peer: Asn(1),
            prefix: "10.0.0.0/8".parse().unwrap(),
        };
        let mut bytes = encode(&[u]);
        // Body layout: type(1) ts(8) peer(4) bits(4) len(1); set a host
        // bit in the prefix bits.
        let bits_off = 4 + 2 + 4 + 1 + 8 + 4;
        bytes[bits_off + 3] |= 0x01;
        assert!(matches!(decode(&bytes), Err(MrtError::BadPrefix)));
    }

    #[test]
    fn oversized_hop_count_rejected() {
        let u = sample().remove(0);
        let mut bytes = encode(&[u]);
        // hop_count field offset: 4+2 (header) + 4 (len) + 1+8+4+4+1.
        let off = 4 + 2 + 4 + 18;
        bytes[off] = 0xFF;
        bytes[off + 1] = 0xFF;
        assert!(matches!(decode(&bytes), Err(MrtError::BadPath)));
    }

    #[test]
    fn resilient_matches_strict_on_clean_input() {
        let updates = sample();
        let bytes = encode(&updates);
        let (got, health) = decode_resilient(&bytes);
        assert_eq!(got, updates);
        assert_eq!(health.status(), spoofwatch_net::IngestStatus::Ok);
        assert!(health.reconciles());
        assert_eq!(health.ok_records, 3);
        assert_eq!(health.ok_bytes, bytes.len() as u64);
    }

    #[test]
    fn resilient_recovers_after_truncated_tail() {
        let updates = sample();
        let bytes = encode(&updates);
        // Cut mid-way through the last record.
        let cut = bytes.len() - 3;
        let (got, health) = decode_resilient(&bytes[..cut]);
        assert_eq!(got, updates[..2]);
        assert_eq!(health.status(), spoofwatch_net::IngestStatus::Recovered);
        assert!(health.reconciles());
        assert_eq!(health.events.len(), 1);
        assert_eq!(health.events[0].kind, FaultKind::Truncated);
        assert_eq!(health.resyncs, 0, "nothing decodable after a torn tail");
    }

    #[test]
    fn resilient_ignores_magic_inside_record() {
        // An announce whose hop values spell out the file magic; the
        // resync heuristic must not treat it as a record boundary.
        let magic_as_u32 = u32::from_be_bytes(*MAGIC);
        let updates = vec![
            Update::Announce {
                ts: 5,
                peer: Asn(1),
                announcement: Announcement::new(
                    "10.0.0.0/8".parse().unwrap(),
                    AsPath::from(vec![magic_as_u32, magic_as_u32]),
                ),
            },
            sample().remove(1),
        ];
        let bytes = encode(&updates);
        assert!(
            bytes.windows(4).filter(|w| w == MAGIC).count() >= 3,
            "magic bytes really do appear mid-record"
        );
        let (got, health) = decode_resilient(&bytes);
        assert_eq!(got, updates);
        assert_eq!(health.status(), spoofwatch_net::IngestStatus::Ok);
    }

    #[test]
    fn resilient_decodes_duplicated_record() {
        let updates = sample();
        let bytes = encode(&updates);
        // Duplicate the middle (withdraw) record byte-for-byte.
        let start = 6 + (4 + 36); // header + first announce (body 20 + 4 hops)
        let wlen = 4 + 18; // withdraw: len prefix + body
        let mut dirty = bytes.clone();
        let dup: Vec<u8> = dirty[start..start + wlen].to_vec();
        dirty.splice(start..start, dup);
        let (got, health) = decode_resilient(&dirty);
        assert_eq!(got.len(), 4);
        assert_eq!(got[1], got[2], "both copies of the duplicate decode");
        assert_eq!(health.status(), spoofwatch_net::IngestStatus::Ok);
        assert!(health.reconciles());
    }

    #[test]
    fn resilient_resyncs_past_flipped_length() {
        let updates = sample();
        let bytes = encode(&updates);
        let mut dirty = bytes.clone();
        // Smash the first record's length prefix so its framing lies.
        dirty[6] = 0xFF;
        dirty[7] = 0xFF;
        let (got, health) = decode_resilient(&dirty);
        assert_eq!(got, updates[1..]);
        assert_eq!(health.status(), spoofwatch_net::IngestStatus::Recovered);
        assert!(health.reconciles());
        assert_eq!(health.resyncs, 1);
        assert_eq!(health.events[0].offset, 6);
    }

    #[test]
    fn resilient_abandons_bad_header() {
        let (got, health) = decode_resilient(b"NOPE\x00\x01rest of the file");
        assert!(got.is_empty());
        assert_eq!(health.status(), spoofwatch_net::IngestStatus::Unrecoverable);
        assert!(health.reconciles());

        let mut bytes = encode(&sample());
        bytes[5] = 99;
        let (got, health) = decode_resilient(&bytes);
        assert!(got.is_empty());
        assert_eq!(health.status(), spoofwatch_net::IngestStatus::Unrecoverable);
        assert!(health.reconciles());
        assert_eq!(health.events[0].kind, FaultKind::BadVersion);
    }

    #[test]
    fn trailing_junk_in_withdraw_rejected() {
        let u = Update::Withdraw {
            ts: 0,
            peer: Asn(1),
            prefix: "10.0.0.0/8".parse().unwrap(),
        };
        let mut bytes = encode(&[u]);
        // Grow the declared body length and append a junk byte.
        let len_off = 6;
        let old = u32::from_be_bytes(bytes[len_off..len_off + 4].try_into().unwrap());
        bytes[len_off..len_off + 4].copy_from_slice(&(old + 1).to_be_bytes());
        bytes.push(0xAB);
        assert!(matches!(decode(&bytes), Err(MrtError::Truncated)));
    }
}
