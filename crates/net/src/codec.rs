//! The bulk flow/health codec every chunk link shares.
//!
//! The shard link (`spoofwatch-core`, `runner::shard::proto`) and the
//! live link (`spoofwatch-ixp`, `live`) carry the same chunk body
//! inside their own message envelopes:
//!
//! ```text
//! chunk  := tag u8 | seq u64 | byte_start u64 | byte_end u64 | health | n u32 | n × flow
//! health := input_len u64 | ok_records u64 | ok_bytes u64 | resyncs u64
//!         | quarantined_bytes u64 | fault_counts 5 × u64 | unrecoverable u8     (81 bytes)
//! flow   := ts u32 | src u32 | dst u32 | proto u8 | sport u16 | dport u16
//!         | packets u32 | bytes u64 | pkt_size u16 | member u32 | ttl u8         (36 bytes)
//! ```
//!
//! `flow` is the one record layout in the system: [`encode_flow`] and
//! [`decode_flow`] define it, and an IPFIX-lite file
//! (`spoofwatch-ixp`, `ipfix`) is a header followed by the same 36
//! bytes per record — what a link carries is what the file held.
//!
//! All integers are big-endian. Records have a fixed stride, so a block
//! of flows is encoded after one `reserve` and decoded after one length
//! check with `chunks_exact` — no per-field bounds checks. Only the
//! scalar part of [`IngestHealth`] travels; itemized quarantine events
//! stay with the decoder that saw them.
//!
//! [`WireReader`] and the `put_*` helpers are the cursor and integer
//! writers both protocols use for their control messages.

use crate::{Asn, FlowRecord, IngestHealth, Proto};

/// Encoded size of one [`FlowRecord`].
pub const FLOW_WIRE_LEN: usize = 36;
/// Encoded size of the scalar part of an [`IngestHealth`].
pub const HEALTH_WIRE_LEN: usize = 81;

/// A bounds-checked cursor over a message payload. Every read returns
/// `None` past the end, so decoding arbitrary bytes is total.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    /// The next byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    /// The next big-endian `u16`.
    pub fn u16(&mut self) -> Option<u16> {
        self.take(2).map(|s| u16::from_be_bytes([s[0], s[1]]))
    }

    /// The next big-endian `u32`.
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|s| be32(s, 0))
    }

    /// The next big-endian `u64`.
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|s| be64(s, 0))
    }

    /// Whether every byte has been consumed.
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Append a big-endian `u16`.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Append a big-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Append a big-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

#[inline]
fn be16(b: &[u8], at: usize) -> u16 {
    u16::from_be_bytes([b[at], b[at + 1]])
}

#[inline]
fn be32(b: &[u8], at: usize) -> u32 {
    u32::from_be_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

#[inline]
fn be64(b: &[u8], at: usize) -> u64 {
    u64::from_be_bytes([
        b[at],
        b[at + 1],
        b[at + 2],
        b[at + 3],
        b[at + 4],
        b[at + 5],
        b[at + 6],
        b[at + 7],
    ])
}

/// Encode one record: the definition of the `flow` layout above.
#[inline]
pub fn encode_flow(f: &FlowRecord) -> [u8; FLOW_WIRE_LEN] {
    let mut b = [0u8; FLOW_WIRE_LEN];
    b[0..4].copy_from_slice(&f.ts.to_be_bytes());
    b[4..8].copy_from_slice(&f.src.to_be_bytes());
    b[8..12].copy_from_slice(&f.dst.to_be_bytes());
    b[12] = f.proto.number();
    b[13..15].copy_from_slice(&f.sport.to_be_bytes());
    b[15..17].copy_from_slice(&f.dport.to_be_bytes());
    b[17..21].copy_from_slice(&f.packets.to_be_bytes());
    b[21..29].copy_from_slice(&f.bytes.to_be_bytes());
    b[29..31].copy_from_slice(&f.pkt_size.to_be_bytes());
    b[31..35].copy_from_slice(&f.member.0.to_be_bytes());
    b[35] = f.ttl;
    b
}

/// Decode one record; total, since every byte pattern is a record.
#[inline]
pub fn decode_flow(b: &[u8; FLOW_WIRE_LEN]) -> FlowRecord {
    FlowRecord {
        ts: be32(b, 0),
        src: be32(b, 4),
        dst: be32(b, 8),
        proto: Proto::from_number(b[12]),
        sport: be16(b, 13),
        dport: be16(b, 15),
        packets: be32(b, 17),
        bytes: be64(b, 21),
        pkt_size: be16(b, 29),
        member: Asn(be32(b, 31)),
        ttl: b[35],
    }
}

/// `(packets, bytes, pkt_size)` of the encoded record starting at
/// `b[0]`: the fields a plausibility test reads, so a resync scan can
/// reject an offset without building the record. `b` must hold at least
/// the first 31 bytes of a record.
#[inline]
pub fn flow_counters(b: &[u8]) -> (u32, u64, u16) {
    (be32(b, 17), be64(b, 21), be16(b, 29))
}

/// Append `n u32 | n × flow`.
pub fn put_flows(out: &mut Vec<u8>, flows: &[FlowRecord]) {
    out.reserve(4 + flows.len() * FLOW_WIRE_LEN);
    put_u32(out, flows.len() as u32);
    for f in flows {
        out.extend_from_slice(&encode_flow(f));
    }
}

/// Read `n u32 | n × flow`; `None` when the block is shorter than its
/// count declares.
pub fn get_flows(r: &mut WireReader<'_>) -> Option<Vec<FlowRecord>> {
    let n = r.u32()? as usize;
    let block = r.take(n.checked_mul(FLOW_WIRE_LEN)?)?;
    Some(
        block
            .chunks_exact(FLOW_WIRE_LEN)
            .map(|b| decode_flow(b.try_into().expect("chunks_exact yields the stride")))
            .collect(),
    )
}

/// Append the scalar part of `h` ([`HEALTH_WIRE_LEN`] bytes).
pub fn put_health(out: &mut Vec<u8>, h: &IngestHealth) {
    put_u64(out, h.input_len);
    put_u64(out, h.ok_records);
    put_u64(out, h.ok_bytes);
    put_u64(out, h.resyncs);
    put_u64(out, h.quarantined_bytes);
    for c in h.fault_counts {
        put_u64(out, c);
    }
    out.push(h.unrecoverable as u8);
}

/// Read a health block; the result carries no itemized events.
pub fn get_health(r: &mut WireReader<'_>) -> Option<IngestHealth> {
    let b = r.take(HEALTH_WIRE_LEN)?;
    let mut fault_counts = [0u64; 5];
    for (i, c) in fault_counts.iter_mut().enumerate() {
        *c = be64(b, 40 + 8 * i);
    }
    let unrecoverable = match b[80] {
        0 => false,
        1 => true,
        _ => return None,
    };
    Some(IngestHealth {
        input_len: be64(b, 0),
        ok_records: be64(b, 8),
        ok_bytes: be64(b, 16),
        resyncs: be64(b, 24),
        quarantined_bytes: be64(b, 32),
        events: Vec::new(),
        events_dropped: 0,
        fault_counts,
        unrecoverable,
    })
}

/// Append a whole chunk message — `tag`, position, health, flows —
/// after a single `reserve`. `tag` is the calling protocol's message
/// type byte for its chunk message.
pub fn put_chunk(
    out: &mut Vec<u8>,
    tag: u8,
    seq: u64,
    byte_start: u64,
    byte_end: u64,
    health: &IngestHealth,
    flows: &[FlowRecord],
) {
    out.reserve(1 + 24 + HEALTH_WIRE_LEN + 4 + flows.len() * FLOW_WIRE_LEN);
    out.push(tag);
    put_u64(out, seq);
    put_u64(out, byte_start);
    put_u64(out, byte_end);
    put_health(out, health);
    put_flows(out, flows);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow(i: u32) -> FlowRecord {
        FlowRecord {
            ts: 1000 + i,
            src: 0x0A00_0000 + i,
            dst: 0xC0A8_0100 + i,
            proto: Proto::from_number(if i == 1 { 6 } else { 17 }),
            sport: (40_000 + i) as u16,
            dport: (53 * i) as u16,
            packets: 3 * i,
            bytes: 180 * i as u64,
            pkt_size: 60,
            member: Asn(64_500 + i),
            ttl: (50 + i) as u8,
        }
    }

    fn health() -> IngestHealth {
        IngestHealth {
            input_len: 4096,
            ok_records: 2,
            ok_bytes: 4000,
            resyncs: 1,
            quarantined_bytes: 96,
            fault_counts: [1, 0, 2, 0, 3],
            ..IngestHealth::default()
        }
    }

    #[test]
    fn flows_roundtrip_and_reject_bad_lengths() {
        let flows: Vec<FlowRecord> = (0..50).map(flow).collect();
        let mut out = Vec::new();
        put_flows(&mut out, &flows);
        assert_eq!(out.len(), 4 + 50 * FLOW_WIRE_LEN);
        let mut r = WireReader::new(&out);
        assert_eq!(get_flows(&mut r), Some(flows));
        assert!(r.done());

        // Every truncation of the block decodes to `None`.
        for cut in 0..out.len() {
            assert_eq!(
                get_flows(&mut WireReader::new(&out[..cut])),
                None,
                "cut {cut}"
            );
        }
        // An over-long block leaves bytes behind for the caller's
        // `done()` check to reject.
        out.push(0);
        let mut r = WireReader::new(&out);
        assert!(get_flows(&mut r).is_some());
        assert!(!r.done());
        // A count that overflows the byte length is refused before any
        // allocation.
        assert_eq!(get_flows(&mut WireReader::new(&[0xFF; 8])), None);
    }

    #[test]
    fn health_roundtrips_scalars_only() {
        let mut h = health();
        let mut out = Vec::new();
        put_health(&mut out, &h);
        assert_eq!(out.len(), HEALTH_WIRE_LEN);
        assert_eq!(get_health(&mut WireReader::new(&out)), Some(h.clone()));
        // Itemized events do not travel.
        h.quarantine(10, 5, crate::FaultKind::Implausible);
        let mut with_events = Vec::new();
        put_health(&mut with_events, &h);
        let back = get_health(&mut WireReader::new(&with_events)).unwrap();
        assert!(back.events.is_empty());
        assert_eq!(back.quarantined_bytes, h.quarantined_bytes);
        // A flag byte other than 0/1 is structural damage.
        out[HEALTH_WIRE_LEN - 1] = 2;
        assert_eq!(get_health(&mut WireReader::new(&out)), None);
        assert_eq!(get_health(&mut WireReader::new(&out[..80])), None);
    }

    #[test]
    fn chunk_is_one_exact_allocation() {
        let flows: Vec<FlowRecord> = (0..2000).map(flow).collect();
        let mut out = Vec::new();
        put_chunk(&mut out, 4, 9, 36_864, 40_960, &health(), &flows);
        assert_eq!(
            out.len(),
            1 + 24 + HEALTH_WIRE_LEN + 4 + 2000 * FLOW_WIRE_LEN
        );
        assert_eq!(out.capacity(), out.len());
    }
}
