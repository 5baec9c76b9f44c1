//! Structure-of-arrays flow batches for the vectorized classify path.
//!
//! [`FlowBatch`] stores the same eleven fields as [`FlowRecord`], but as
//! one column `Vec` per field instead of one 40-byte struct per record.
//! The batched classifier walks only the columns it needs (`src` for
//! the LPM probes, `member` for the cone check), so a 64k-record batch
//! streams 256 KiB of source addresses instead of 2.5 MiB of records —
//! the cache-density half of the batch speedup.
//!
//! A batch is an **arena**: [`FlowBatch::clear`] keeps every column's
//! capacity, so a decoder that fills the same batch chunk after chunk
//! (`spoofwatch-ixp`'s `decode_columnar` / `next_batch`) performs zero
//! per-record and, in steady state, zero per-chunk allocations.
//!
//! Round-trip note: `proto` is stored as its IANA number and rebuilt
//! with [`Proto::from_number`], which canonicalizes the named protocols
//! — `Proto::Other(6)` comes back as `Proto::Tcp`. Wire decoding already
//! canonicalizes the same way, so batches built from decoded traffic
//! round-trip exactly.

use crate::{Asn, FlowRecord, Proto};

/// A structure-of-arrays batch of flow records: one `Vec` per
/// [`FlowRecord`] field, all the same length, index `i` across the
/// columns being record `i`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FlowBatch {
    /// Capture timestamps (seconds since trace start).
    pub ts: Vec<u32>,
    /// Source IPv4 addresses (host byte order) — the column under test.
    pub src: Vec<u32>,
    /// Destination IPv4 addresses (host byte order).
    pub dst: Vec<u32>,
    /// Transport protocol numbers (IANA).
    pub proto: Vec<u8>,
    /// Source transport ports.
    pub sport: Vec<u16>,
    /// Destination transport ports.
    pub dport: Vec<u16>,
    /// Sampled packet counts.
    pub packets: Vec<u32>,
    /// Sampled byte counts.
    pub bytes: Vec<u64>,
    /// Mean IP packet sizes.
    pub pkt_size: Vec<u16>,
    /// IXP member AS numbers (the port the flow entered on).
    pub member: Vec<u32>,
    /// Observed IP time-to-live values (0 = not captured).
    pub ttl: Vec<u8>,
}

impl FlowBatch {
    /// An empty batch with no reserved capacity.
    pub fn new() -> FlowBatch {
        FlowBatch::default()
    }

    /// An empty batch with every column reserved for `n` records.
    pub fn with_capacity(n: usize) -> FlowBatch {
        let mut b = FlowBatch::default();
        b.reserve(n);
        b
    }

    /// Records in the batch.
    pub fn len(&self) -> usize {
        self.src.len()
    }

    /// Whether the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.src.is_empty()
    }

    /// Drop all records but keep every column's capacity — the arena
    /// reset between chunks.
    pub fn clear(&mut self) {
        self.ts.clear();
        self.src.clear();
        self.dst.clear();
        self.proto.clear();
        self.sport.clear();
        self.dport.clear();
        self.packets.clear();
        self.bytes.clear();
        self.pkt_size.clear();
        self.member.clear();
        self.ttl.clear();
    }

    /// Reserve capacity for `n` more records in every column.
    pub fn reserve(&mut self, n: usize) {
        self.ts.reserve(n);
        self.src.reserve(n);
        self.dst.reserve(n);
        self.proto.reserve(n);
        self.sport.reserve(n);
        self.dport.reserve(n);
        self.packets.reserve(n);
        self.bytes.reserve(n);
        self.pkt_size.reserve(n);
        self.member.reserve(n);
        self.ttl.reserve(n);
    }

    /// Append one record, scattering its fields across the columns.
    #[inline]
    pub fn push(&mut self, f: &FlowRecord) {
        self.ts.push(f.ts);
        self.src.push(f.src);
        self.dst.push(f.dst);
        self.proto.push(f.proto.number());
        self.sport.push(f.sport);
        self.dport.push(f.dport);
        self.packets.push(f.packets);
        self.bytes.push(f.bytes);
        self.pkt_size.push(f.pkt_size);
        self.member.push(f.member.0);
        self.ttl.push(f.ttl);
    }

    /// Gather record `i` back out of the columns. Panics if `i` is out
    /// of bounds, like slice indexing.
    #[inline]
    pub fn get(&self, i: usize) -> FlowRecord {
        FlowRecord {
            ts: self.ts[i],
            src: self.src[i],
            dst: self.dst[i],
            proto: Proto::from_number(self.proto[i]),
            sport: self.sport[i],
            dport: self.dport[i],
            packets: self.packets[i],
            bytes: self.bytes[i],
            pkt_size: self.pkt_size[i],
            member: Asn(self.member[i]),
            ttl: self.ttl[i],
        }
    }

    /// Iterate the records in order, gathering each from the columns.
    pub fn iter(&self) -> impl Iterator<Item = FlowRecord> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Build a batch by transposing a record slice.
    pub fn from_records(flows: &[FlowRecord]) -> FlowBatch {
        let mut b = FlowBatch::with_capacity(flows.len());
        b.extend_from_records(flows);
        b
    }

    /// Append every record of `flows` (the transpose loop, reusing the
    /// batch's capacity).
    pub fn extend_from_records(&mut self, flows: &[FlowRecord]) {
        self.reserve(flows.len());
        for f in flows {
            self.push(f);
        }
    }

    /// Transpose back into a record vector (test/interop helper — the
    /// hot path never materializes records).
    pub fn to_records(&self) -> Vec<FlowRecord> {
        self.iter().collect()
    }

    /// Debug invariant: every column has the same length.
    pub fn columns_aligned(&self) -> bool {
        let n = self.src.len();
        self.ts.len() == n
            && self.dst.len() == n
            && self.proto.len() == n
            && self.sport.len() == n
            && self.dport.len() == n
            && self.packets.len() == n
            && self.bytes.len() == n
            && self.pkt_size.len() == n
            && self.member.len() == n
            && self.ttl.len() == n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: u32) -> Vec<FlowRecord> {
        (0..n)
            .map(|i| FlowRecord {
                ts: i,
                src: 0x0A00_0000 + i,
                dst: 0xC000_0200 + i,
                proto: Proto::from_number((i % 20) as u8),
                sport: 1025 + (i % 1000) as u16,
                dport: 80,
                packets: 1 + i,
                bytes: (1 + i) as u64 * 60,
                pkt_size: 60,
                member: Asn(64496 + i % 7),
                ttl: (i % 255) as u8,
            })
            .collect()
    }

    #[test]
    fn roundtrip_records() {
        let flows = sample(50);
        let b = FlowBatch::from_records(&flows);
        assert_eq!(b.len(), flows.len());
        assert!(b.columns_aligned());
        assert_eq!(b.to_records(), flows);
        for (i, f) in flows.iter().enumerate() {
            assert_eq!(b.get(i), *f);
        }
        assert_eq!(b.iter().collect::<Vec<_>>(), flows);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut b = FlowBatch::from_records(&sample(100));
        let cap = b.src.capacity();
        assert!(cap >= 100);
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.src.capacity(), cap, "clear must not release the arena");
        b.extend_from_records(&sample(100));
        assert_eq!(b.len(), 100);
    }

    #[test]
    fn proto_canonicalizes_like_the_wire() {
        // Other(6) is the one lossy case: it canonicalizes to Tcp, the
        // same normalization the IPFIX decoder applies.
        let mut f = sample(1)[0];
        f.proto = Proto::Other(6);
        let b = FlowBatch::from_records(std::slice::from_ref(&f));
        assert_eq!(b.get(0).proto, Proto::Tcp);
    }
}
