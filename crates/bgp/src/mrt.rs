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
//! One decoder reads the format: [`decode_resilient`] validates framing,
//! record types, prefix canonicality and declared-vs-actual body
//! lengths, record by record, through the shared `resilient_walk`. A
//! record that fails is quarantined and the walk resynchronizes on the
//! next record that validates in full, so a torn or corrupt dump yields
//! its intact records and an [`IngestHealth`] that accounts for every
//! byte — never a panic or a phantom record.

use crate::{Announcement, AsPath, Update};
use spoofwatch_net::codec::{put_u16, put_u32, put_u64, WireReader};
use spoofwatch_net::ingest::{resilient_walk, RecordFormat};
use spoofwatch_net::{Asn, FaultKind, IngestHealth, Ipv4Prefix};

const MAGIC: &[u8; 4] = b"MRTL";
const VERSION: u16 = 1;
/// Size of the file header (magic + version).
const HEADER_LEN: usize = 6;
const TYPE_ANNOUNCE: u8 = 1;
const TYPE_WITHDRAW: u8 = 2;
/// Upper bound on hops: real paths rarely exceed ~30; anything beyond
/// this is corrupt data.
const MAX_HOPS: usize = 1024;
/// Upper bound on a record body (type + ts + peer + prefix + max path).
const MAX_BODY: usize = 1 + 8 + 4 + 5 + 2 + MAX_HOPS * 4;

/// The update one record body holds, or `None` when the body is short,
/// has trailing bytes, an unknown type, a noncanonical prefix, or a hop
/// count over [`MAX_HOPS`] or disagreeing with its length.
fn decode_body(body: &[u8]) -> Option<Update> {
    let mut r = WireReader::new(body);
    let rtype = r.u8()?;
    let ts = r.u64()?;
    let peer = Asn(r.u32()?);
    let prefix = Ipv4Prefix::new(r.u32()?, r.u8()?).ok()?;
    let update = match rtype {
        TYPE_WITHDRAW => Update::Withdraw { ts, peer, prefix },
        TYPE_ANNOUNCE => {
            let hop_count = r.u16()? as usize;
            if hop_count > MAX_HOPS {
                return None;
            }
            let mut path = WireReader::new(r.take(hop_count * 4)?);
            let hops = (0..hop_count)
                .map(|_| path.u32().map(Asn))
                .collect::<Option<Vec<_>>>()?;
            Update::Announce {
                ts,
                peer,
                announcement: Announcement::new(prefix, AsPath::new(hops)),
            }
        }
        _ => return None,
    };
    r.done().then_some(update)
}

/// Append one record body (everything after the length prefix).
fn encode_body(update: &Update, out: &mut Vec<u8>) {
    let (rtype, ts, peer, prefix, hops) = match update {
        Update::Announce {
            ts,
            peer,
            announcement,
        } => (TYPE_ANNOUNCE, ts, peer, &announcement.prefix, Some(announcement.path.hops())),
        Update::Withdraw { ts, peer, prefix } => (TYPE_WITHDRAW, ts, peer, prefix, None),
    };
    out.push(rtype);
    put_u64(out, *ts);
    put_u32(out, peer.0);
    put_u32(out, prefix.bits());
    out.push(prefix.len());
    if let Some(hops) = hops {
        debug_assert!(hops.len() <= MAX_HOPS);
        put_u16(out, hops.len() as u16);
        for h in hops {
            put_u32(out, h.0);
        }
    }
}

/// Encode a batch of updates to an in-memory buffer.
pub fn encode(updates: &[Update]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + updates.len() * 32);
    out.extend_from_slice(MAGIC);
    put_u16(&mut out, VERSION);
    for u in updates {
        let at = out.len();
        put_u32(&mut out, 0); // body_len, patched below
        encode_body(u, &mut out);
        let body_len = (out.len() - at - 4) as u32;
        out[at..at + 4].copy_from_slice(&body_len.to_be_bytes());
    }
    out
}

/// The hooks of the shared walk over length-framed records.
struct Framed;

/// The `body_len` at `pos`, when four bytes remain to hold it.
fn body_len_at(data: &[u8], pos: usize) -> Option<usize> {
    WireReader::new(&data[pos..]).u32().map(|n| n as usize)
}

impl RecordFormat for Framed {
    type Record = Update;

    /// A full, well-framed record: its length counts the prefix.
    fn record_at(&self, data: &[u8], pos: usize) -> Option<(Update, usize)> {
        let blen = body_len_at(data, pos)?;
        if blen == 0 || blen > MAX_BODY {
            return None;
        }
        let body = data.get(pos + 4..)?.get(..blen)?;
        decode_body(body).map(|u| (u, 4 + blen))
    }

    /// Only a body that validates in full marks a boundary — a sane
    /// `body_len` alone is weak evidence — so the scan pays the decode
    /// a record costs.
    fn boundary_at(&self, data: &[u8], pos: usize) -> bool {
        self.record_at(data, pos).is_some()
    }

    fn fault_at(&self, data: &[u8], pos: usize) -> FaultKind {
        match body_len_at(data, pos) {
            None => FaultKind::Truncated,
            Some(blen) if blen == 0 || blen > MAX_BODY => FaultKind::BadRecord,
            Some(blen) if data.len() - pos < 4 + blen => FaultKind::Truncated,
            Some(_) => FaultKind::BadRecord,
        }
    }
}

/// Why the file header makes `data` undecodable, if it does.
fn header_fault(data: &[u8]) -> Option<FaultKind> {
    if data.get(..4) != Some(MAGIC) {
        Some(FaultKind::BadMagic)
    } else if data.len() < HEADER_LEN {
        Some(FaultKind::Truncated)
    } else if u16::from_be_bytes([data[4], data[5]]) != VERSION {
        Some(FaultKind::BadVersion)
    } else {
        None
    }
}

/// Decode an in-memory buffer, recovering from corruption.
///
/// Bad spans are quarantined and the walk resynchronizes on the next
/// offset where a complete record decodes (length-framed resync: a
/// candidate boundary must carry a plausible `body_len` *and* a body
/// that fully validates — stray magic bytes or look-alike lengths inside
/// a corrupt span do not fool it). The returned [`IngestHealth`]
/// accounts for every input byte: `ok_bytes + quarantined_bytes ==
/// data.len()`.
///
/// A bad file header is unrecoverable — record framing cannot be
/// trusted without it — and quarantines the whole input.
pub fn decode_resilient(data: &[u8]) -> (Vec<Update>, IngestHealth) {
    let mut health = IngestHealth::new(data.len() as u64);
    let mut out = Vec::new();
    match header_fault(data) {
        Some(kind) => health.abandon(kind),
        None => {
            health.credit_ok(HEADER_LEN as u64);
            let mut pos = HEADER_LEN;
            resilient_walk(&Framed, data, &mut pos, usize::MAX, &mut health, |u| out.push(u));
        }
    }
    health.record_metrics("mrt");
    (out, health)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spoofwatch_net::{IngestEvent, IngestStatus};

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

    /// [`decode_resilient`] on input it must read without a fault.
    fn decode_clean(bytes: &[u8]) -> Vec<Update> {
        let (updates, health) = decode_resilient(bytes);
        assert_eq!(health.status(), IngestStatus::Ok, "{health}");
        assert!(health.reconciles());
        assert_eq!(health.ok_records, updates.len() as u64);
        updates
    }

    /// Assert that `bytes` is abandoned whole under `kind`.
    fn assert_abandoned(bytes: &[u8], kind: FaultKind) {
        let (updates, health) = decode_resilient(bytes);
        assert!(updates.is_empty());
        assert_eq!(health.status(), IngestStatus::Unrecoverable);
        assert!(health.reconciles());
        assert_eq!(health.ok_bytes, 0);
        // An empty input leaves no span to quarantine, so no event.
        assert_eq!(health.fault_counts[kind.index()], u64::from(!bytes.is_empty()));
    }

    /// `bad`'s record (length prefix, then body at offset 4), edited by
    /// `damage`, between two good records: the walk returns exactly the
    /// good two and quarantines exactly the damaged record's bytes.
    fn assert_bad_record_skipped(bad: &Update, damage: impl FnOnce(&mut Vec<u8>)) {
        let good = sample();
        let first = encode(&good[..1]);
        let mut record = encode(std::slice::from_ref(bad))[HEADER_LEN..].to_vec();
        damage(&mut record);
        let last = &encode(&good[2..])[HEADER_LEN..];
        let (got, health) = decode_resilient(&[&first[..], &record, last].concat());
        assert_eq!(got, [good[0].clone(), good[2].clone()]);
        assert!(health.reconciles());
        let offset = first.len() as u64;
        let len = record.len() as u64;
        let kind = FaultKind::BadRecord;
        assert_eq!(health.events, [IngestEvent { offset, len, kind }]);
    }

    #[test]
    fn roundtrip() {
        let updates = sample();
        assert_eq!(decode_clean(&encode(&updates)), updates);
    }

    #[test]
    fn empty_file_roundtrip() {
        assert!(decode_clean(&encode(&[])).is_empty());
    }

    #[test]
    fn bad_magic() {
        assert_abandoned(b"", FaultKind::BadMagic);
        assert_abandoned(b"MRT", FaultKind::BadMagic);
        assert_abandoned(b"NOPE\x00\x01", FaultKind::BadMagic);
        assert_abandoned(b"MRTL\x00", FaultKind::Truncated);
    }

    #[test]
    fn bad_version() {
        for version in [0u8, 2, 99] {
            let mut bytes = encode(&sample());
            bytes[5] = version;
            assert_abandoned(&bytes, FaultKind::BadVersion);
        }
    }

    /// A cut anywhere after the header yields the records before it and
    /// quarantines the torn record as one `Truncated` span.
    #[test]
    fn truncation_at_every_cut() {
        let updates = sample();
        let bytes = encode(&updates);
        let ends: Vec<usize> = (0..=updates.len()).map(|k| encode(&updates[..k]).len()).collect();
        for cut in HEADER_LEN..bytes.len() {
            let whole = ends.iter().rposition(|&end| end <= cut).unwrap_or(0);
            let (got, health) = decode_resilient(&bytes[..cut]);
            assert_eq!(got, updates[..whole], "cut {cut}");
            assert!(health.reconciles());
            assert_eq!(health.quarantined_bytes, (cut - ends[whole]) as u64, "cut {cut}");
            if cut > ends[whole] {
                assert_eq!(health.events.len(), 1);
                assert_eq!(health.events[0].kind, FaultKind::Truncated);
            }
        }
    }

    #[test]
    fn unknown_record_type() {
        assert_bad_record_skipped(&sample()[1], |record| record[4] = 77);
    }

    #[test]
    fn noncanonical_prefix_rejected() {
        let u = Update::Withdraw {
            ts: 0,
            peer: Asn(1),
            prefix: "10.0.0.0/8".parse().unwrap(),
        };
        // Body layout: type(1) ts(8) peer(4) bits(4) len(1); set a host
        // bit in the prefix bits.
        assert_bad_record_skipped(&u, |record| record[4 + 16] |= 0x01);
    }

    #[test]
    fn oversized_hop_count_rejected() {
        // hop_count follows type(1) ts(8) peer(4) bits(4) len(1).
        assert_bad_record_skipped(&sample()[0], |record| {
            record[4 + 18..4 + 20].copy_from_slice(&0xFFFFu16.to_be_bytes())
        });
    }

    #[test]
    fn trailing_junk_in_withdraw_rejected() {
        // Grow the declared body length and append a junk byte.
        assert_bad_record_skipped(&sample()[1], |record| {
            let old = u32::from_be_bytes(record[..4].try_into().unwrap());
            record[..4].copy_from_slice(&(old + 1).to_be_bytes());
            record.push(0xAB);
        });
    }

    /// On clean input the one decoder returns exactly what was written,
    /// the answer a fail-stop reader would give, with clean health.
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
        assert_eq!(health.status(), IngestStatus::Recovered);
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
        assert_eq!(health.status(), IngestStatus::Ok);
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
        assert_eq!(health.status(), IngestStatus::Ok);
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
        assert_eq!(health.status(), IngestStatus::Recovered);
        assert!(health.reconciles());
        assert_eq!(health.resyncs, 1);
        assert_eq!(health.events[0].offset, 6);
    }

    #[test]
    fn resilient_abandons_bad_header() {
        let (got, health) = decode_resilient(b"NOPE\x00\x01rest of the file");
        assert!(got.is_empty());
        assert_eq!(health.status(), IngestStatus::Unrecoverable);
        assert!(health.reconciles());

        let mut bytes = encode(&sample());
        bytes[5] = 99;
        let (got, health) = decode_resilient(&bytes);
        assert!(got.is_empty());
        assert_eq!(health.status(), IngestStatus::Unrecoverable);
        assert!(health.reconciles());
        assert_eq!(health.events[0].kind, FaultKind::BadVersion);
    }
}
