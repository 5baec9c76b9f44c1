//! Crash-safe checkpoint persistence for the streaming study runner.
//!
//! A checkpoint is the runner's entire deterministic state at a chunk
//! boundary: per-member/per-class accounting, the trace byte cursor,
//! shed/quarantine counters, ingest totals, and a hash of the
//! seed/config/trace identity. The on-disk format is length-framed with
//! a CRC so torn or corrupted files are *detected*, never trusted:
//!
//! ```text
//! file := magic "SWCP" | version u16 | payload_len u32 | payload | crc32(payload) u32
//! ```
//!
//! Writes are atomic (tmp + fsync + rename) and rotate the previous
//! checkpoint aside, so at every instant at least one valid checkpoint
//! exists on disk: a crash mid-write tears only the tmp file, and a
//! corrupted current file falls back to the previous one.

use super::durable::{write_durable, DurableWrite, WriteKind};
use super::rollup::WindowAccum;
use super::{FlowAccounting, IngestTotals};
use crate::provenance::DisagreementMatrix;
use crate::stats::ClassCounters;
use spoofwatch_net::codec::WireReader;
use spoofwatch_net::{wire, Asn, TrafficClass};
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"SWCP";

impl From<wire::FrameError> for CheckpointError {
    fn from(e: wire::FrameError) -> Self {
        match e {
            wire::FrameError::TooShort => CheckpointError::TooShort,
            wire::FrameError::BadMagic => CheckpointError::BadMagic,
            wire::FrameError::BadVersion(v) => CheckpointError::BadVersion(v),
            wire::FrameError::LengthMismatch {
                declared,
                available,
            } => CheckpointError::LengthMismatch {
                declared,
                available,
            },
            wire::FrameError::BadCrc => CheckpointError::BadCrc,
        }
    }
}

/// The runner's deterministic state at a committed chunk boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Hash of seed, method, org mode, and source fingerprint; a resume
    /// against a different config or trace is refused.
    pub config_hash: u64,
    /// Chunks committed so far (also the sequence number of the next
    /// chunk to process).
    pub committed_chunks: u64,
    /// Byte offset in the trace where processing resumes.
    pub byte_cursor: u64,
    /// Record-level offered/processed/shed/quarantined accounting.
    pub records: FlowAccounting,
    /// Chunk-level offered/processed/shed/quarantined accounting.
    pub chunks: FlowAccounting,
    /// Decode-health scalars absorbed from committed chunks.
    pub ingest: IngestTotals,
    /// Per-member, per-class counters (indexed by
    /// [`TrafficClass::index`]) over processed chunks.
    pub per_member: BTreeMap<Asn, [ClassCounters; 4]>,
    /// Cumulative method-disagreement matrix, when the run tracks it.
    /// Serialized as an optional trailing section so checkpoints written
    /// before this field existed still decode (both `None`).
    pub disagreement: Option<DisagreementMatrix>,
    /// The in-progress rollup window's accumulator, when the run writes
    /// rollups — carrying it in the checkpoint is what makes window
    /// contents bit-exact across interrupt and resume.
    pub rollup_accum: Option<WindowAccum>,
}

/// Why a checkpoint file was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// File shorter than the fixed header.
    TooShort,
    /// Magic mismatch — not a checkpoint file (or a torn header).
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// Declared payload length disagrees with the file size (torn tail
    /// or truncated write).
    LengthMismatch {
        /// Payload bytes the header declares.
        declared: u64,
        /// Payload bytes actually present.
        available: u64,
    },
    /// CRC over the payload failed — the payload bytes are corrupt.
    BadCrc,
    /// Framing was intact but the payload did not parse.
    Malformed,
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::TooShort => f.write_str("checkpoint: file too short"),
            CheckpointError::BadMagic => f.write_str("checkpoint: bad magic"),
            CheckpointError::BadVersion(v) => write!(f, "checkpoint: unsupported version {v}"),
            CheckpointError::LengthMismatch {
                declared,
                available,
            } => write!(
                f,
                "checkpoint: torn file ({available} of {declared} payload bytes)"
            ),
            CheckpointError::BadCrc => f.write_str("checkpoint: CRC mismatch"),
            CheckpointError::Malformed => f.write_str("checkpoint: malformed payload"),
        }
    }
}

impl std::error::Error for CheckpointError {}

pub(super) fn put_accounting(out: &mut Vec<u8>, a: &FlowAccounting) {
    for v in [a.offered, a.processed, a.shed, a.quarantined] {
        out.extend_from_slice(&v.to_be_bytes());
    }
}

pub(super) fn put_ingest(out: &mut Vec<u8>, i: &IngestTotals) {
    for v in [i.input_bytes, i.ok_records, i.ok_bytes, i.quarantined_bytes, i.resyncs] {
        out.extend_from_slice(&v.to_be_bytes());
    }
}

pub(super) fn get_accounting(r: &mut WireReader<'_>) -> Option<FlowAccounting> {
    Some(FlowAccounting {
        offered: r.u64()?,
        processed: r.u64()?,
        shed: r.u64()?,
        quarantined: r.u64()?,
    })
}

pub(super) fn get_ingest(r: &mut WireReader<'_>) -> Option<IngestTotals> {
    Some(IngestTotals {
        input_bytes: r.u64()?,
        ok_records: r.u64()?,
        ok_bytes: r.u64()?,
        quarantined_bytes: r.u64()?,
        resyncs: r.u64()?,
    })
}

/// A [`Checkpoint`]'s fields by reference, so the commit path encodes
/// the live run state in place; `Checkpoint` is the decoded, owned
/// form.
pub(super) struct CheckpointRef<'a> {
    pub config_hash: u64,
    pub committed_chunks: u64,
    pub byte_cursor: u64,
    pub records: FlowAccounting,
    pub chunks: FlowAccounting,
    pub ingest: IngestTotals,
    pub per_member: &'a BTreeMap<Asn, [ClassCounters; 4]>,
    pub disagreement: Option<&'a DisagreementMatrix>,
    pub rollup_accum: Option<&'a WindowAccum>,
}

impl CheckpointRef<'_> {
    /// Serialize to the length-framed, CRC-protected wire form.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(128 + self.per_member.len() * 100);
        payload.extend_from_slice(&self.config_hash.to_be_bytes());
        payload.extend_from_slice(&self.committed_chunks.to_be_bytes());
        payload.extend_from_slice(&self.byte_cursor.to_be_bytes());
        put_accounting(&mut payload, &self.records);
        put_accounting(&mut payload, &self.chunks);
        put_ingest(&mut payload, &self.ingest);
        payload.extend_from_slice(&(self.per_member.len() as u32).to_be_bytes());
        for (asn, rows) in self.per_member {
            payload.extend_from_slice(&asn.0.to_be_bytes());
            for cc in rows {
                payload.extend_from_slice(&cc.flows.to_be_bytes());
                payload.extend_from_slice(&cc.packets.to_be_bytes());
                payload.extend_from_slice(&cc.bytes.to_be_bytes());
            }
        }
        // Optional trailing extension: a flag byte announcing which
        // sections follow. Omitted entirely when both are absent, so a
        // checkpoint without them is byte-identical to the pre-extension
        // format and old files (no trailing bytes) still decode.
        let flags = (self.disagreement.is_some() as u8) | ((self.rollup_accum.is_some() as u8) << 1);
        if flags != 0 {
            payload.push(flags);
            if let Some(d) = self.disagreement {
                d.encode_into(&mut payload);
            }
            if let Some(w) = self.rollup_accum {
                w.encode_into(&mut payload);
            }
        }

        wire::frame_encode(MAGIC, &payload)
    }
}

impl Checkpoint {
    /// Serialize to the length-framed, CRC-protected wire form.
    pub fn encode(&self) -> Vec<u8> {
        CheckpointRef {
            config_hash: self.config_hash,
            committed_chunks: self.committed_chunks,
            byte_cursor: self.byte_cursor,
            records: self.records,
            chunks: self.chunks,
            ingest: self.ingest,
            per_member: &self.per_member,
            disagreement: self.disagreement.as_ref(),
            rollup_accum: self.rollup_accum.as_ref(),
        }
        .encode()
    }

    /// Parse and verify a wire-form checkpoint. Every failure mode a
    /// torn or bit-flipped file can produce maps to a
    /// [`CheckpointError`]; this function never panics on arbitrary
    /// bytes.
    pub fn decode(data: &[u8]) -> Result<Checkpoint, CheckpointError> {
        let mut r = WireReader::new(wire::frame_decode(MAGIC, data)?);
        Checkpoint::decode_payload(&mut r)
            .filter(|_| r.done())
            .ok_or(CheckpointError::Malformed)
    }

    fn decode_payload(r: &mut WireReader<'_>) -> Option<Checkpoint> {
        let config_hash = r.u64()?;
        let committed_chunks = r.u64()?;
        let byte_cursor = r.u64()?;
        let records = get_accounting(r)?;
        let chunks = get_accounting(r)?;
        let ingest = get_ingest(r)?;
        let n_members = r.u32()?;
        let mut per_member = BTreeMap::new();
        for _ in 0..n_members {
            let asn = Asn(r.u32()?);
            let mut rows: [ClassCounters; 4] = Default::default();
            for class in TrafficClass::ALL {
                let cc = &mut rows[class.index()];
                cc.flows = r.u64()?;
                cc.packets = r.u64()?;
                cc.bytes = r.u64()?;
            }
            per_member.insert(asn, rows);
        }
        // Trailing extension section (absent in pre-extension files).
        let (mut disagreement, mut rollup_accum) = (None, None);
        if !r.done() {
            let flags = r.u8()?;
            if flags == 0 || flags & !0b11 != 0 {
                return None;
            }
            if flags & 0b01 != 0 {
                disagreement = Some(DisagreementMatrix::decode_from(r)?);
            }
            if flags & 0b10 != 0 {
                rollup_accum = Some(WindowAccum::decode_from(r)?);
            }
        }
        Some(Checkpoint {
            config_hash,
            committed_chunks,
            byte_cursor,
            records,
            chunks,
            ingest,
            per_member,
            disagreement,
            rollup_accum,
        })
    }
}

/// A loaded checkpoint tagged with the slot it came from, plus one
/// entry per slot that existed but was rejected as torn or corrupt.
pub type LoadOutcome = (
    Option<(Checkpoint, CheckpointSlot)>,
    Vec<(CheckpointSlot, CheckpointError)>,
);

/// Which on-disk slot a checkpoint was loaded from (or rejected in).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointSlot {
    /// The most recently written checkpoint.
    Current,
    /// The rotated-aside predecessor.
    Previous,
}

impl fmt::Display for CheckpointSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointSlot::Current => f.write_str("current"),
            CheckpointSlot::Previous => f.write_str("previous"),
        }
    }
}

/// Atomic two-slot checkpoint storage in a directory.
///
/// `save` writes a tmp file, fsyncs it, rotates the current checkpoint
/// to the previous slot, and renames the tmp into place — so a crash at
/// any instruction leaves at least one valid checkpoint behind.
/// `load_latest` tries current then previous, collecting the faults of
/// every rejected slot so the runner can surface them.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Open (creating if needed) a checkpoint directory.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<CheckpointStore> {
        fs::create_dir_all(dir.as_ref())?;
        Ok(CheckpointStore {
            dir: dir.as_ref().to_path_buf(),
        })
    }

    /// Path of the current-slot file.
    pub fn current_path(&self) -> PathBuf {
        self.dir.join("checkpoint.bin")
    }

    /// Path of the previous-slot file.
    pub fn previous_path(&self) -> PathBuf {
        self.dir.join("checkpoint.prev.bin")
    }

    /// Atomically persist `cp`, rotating the old current slot aside.
    pub fn save(&self, cp: &Checkpoint) -> io::Result<()> {
        write_durable(&self.write_of(cp.encode()))
    }

    /// The durable write that makes `encoded` the current checkpoint.
    pub(super) fn write_of(&self, encoded: Vec<u8>) -> DurableWrite {
        DurableWrite {
            kind: WriteKind::Checkpoint,
            tmp: self.dir.join("checkpoint.tmp"),
            dest: self.current_path(),
            keep_old: Some(self.previous_path()),
            bytes: encoded,
        }
    }

    /// Load the newest valid checkpoint, falling back from current to
    /// previous. Returns the checkpoint (with the slot it came from)
    /// and one entry per slot that existed but was rejected.
    pub fn load_latest(&self) -> LoadOutcome {
        let mut faults = Vec::new();
        for (slot, path) in [
            (CheckpointSlot::Current, self.current_path()),
            (CheckpointSlot::Previous, self.previous_path()),
        ] {
            let Ok(bytes) = fs::read(&path) else {
                continue; // missing slot: not a fault
            };
            match Checkpoint::decode(&bytes) {
                Ok(cp) => return (Some((cp, slot)), faults),
                Err(e) => faults.push((slot, e)),
            }
        }
        (None, faults)
    }

    /// Remove both slots (start a study from scratch).
    pub fn clear(&self) -> io::Result<()> {
        for path in [self.current_path(), self.previous_path()] {
            match fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spoofwatch_net::FaultInjector;

    fn sample() -> Checkpoint {
        let mut per_member = BTreeMap::new();
        let mut rows: [ClassCounters; 4] = Default::default();
        rows[0] = ClassCounters {
            flows: 3,
            packets: 30,
            bytes: 1800,
            members: 0,
        };
        rows[3] = ClassCounters {
            flows: 97,
            packets: 970,
            bytes: 58200,
            members: 0,
        };
        per_member.insert(Asn(64496), rows);
        per_member.insert(Asn(64500), Default::default());
        Checkpoint {
            config_hash: 0xDEAD_BEEF_1234_5678,
            committed_chunks: 42,
            byte_cursor: 42 * 35 * 16 + 6,
            records: FlowAccounting {
                offered: 672,
                processed: 600,
                shed: 40,
                quarantined: 32,
            },
            chunks: FlowAccounting {
                offered: 42,
                processed: 38,
                shed: 2,
                quarantined: 2,
            },
            ingest: IngestTotals {
                input_bytes: 23526,
                ok_records: 672,
                ok_bytes: 23520,
                quarantined_bytes: 6,
                resyncs: 1,
            },
            per_member,
            disagreement: None,
            rollup_accum: None,
        }
    }

    /// A checkpoint exercising the optional trailing extension.
    fn sample_extended() -> Checkpoint {
        let mut d = DisagreementMatrix::new();
        d.record(&[
            TrafficClass::Valid,
            TrafficClass::Invalid,
            TrafficClass::Valid,
            TrafficClass::Valid,
            TrafficClass::Valid,
        ]);
        d.record(&[TrafficClass::Bogon; 5]);
        let mut w = WindowAccum::start(3, 42);
        w.class_flows = [1, 2, 3, 4];
        w.chunks = 5;
        w.records.offered = 10;
        w.records.processed = 10;
        w.fault_counts = [0, 1, 0, 2, 0];
        w.disagreement = Some(d.clone());
        Checkpoint {
            disagreement: Some(d),
            rollup_accum: Some(w),
            ..sample()
        }
    }

    fn store() -> (CheckpointStore, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "swck-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        (CheckpointStore::open(&dir).unwrap(), dir)
    }

    #[test]
    fn roundtrip() {
        let cp = sample();
        assert_eq!(Checkpoint::decode(&cp.encode()).unwrap(), cp);
    }

    #[test]
    fn extended_roundtrip() {
        let cp = sample_extended();
        assert_eq!(Checkpoint::decode(&cp.encode()).unwrap(), cp);
        // Each section also rides alone.
        let only_matrix = Checkpoint {
            rollup_accum: None,
            ..sample_extended()
        };
        assert_eq!(Checkpoint::decode(&only_matrix.encode()).unwrap(), only_matrix);
        let only_accum = Checkpoint {
            disagreement: None,
            ..sample_extended()
        };
        assert_eq!(Checkpoint::decode(&only_accum.encode()).unwrap(), only_accum);
    }

    #[test]
    fn extension_is_backward_and_forward_compatible() {
        // A checkpoint without the new sections encodes to exactly the
        // pre-extension byte layout: no flag byte, nothing trailing —
        // so files written by older builds (same bytes) still decode.
        let cp = sample();
        let bytes = cp.encode();
        let ext = sample_extended().encode();
        assert!(ext.len() > bytes.len());
        let decoded = Checkpoint::decode(&bytes).unwrap();
        assert_eq!(decoded.disagreement, None);
        assert_eq!(decoded.rollup_accum, None);
        // A flag byte with unknown bits is rejected, not ignored.
        let mut payload = Vec::new();
        payload.extend_from_slice(&bytes[wire::HEADER_LEN..bytes.len() - 4]);
        payload.push(0b100);
        let framed = wire::frame_encode(MAGIC, &payload);
        assert_eq!(
            Checkpoint::decode(&framed),
            Err(CheckpointError::Malformed)
        );
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = sample_extended().encode();
        for cut in 0..bytes.len() {
            assert!(
                Checkpoint::decode(&bytes[..cut]).is_err(),
                "cut at {cut} accepted"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let clean = sample_extended().encode();
        for i in 0..clean.len() {
            for bit in 0..8 {
                let mut torn = clean.clone();
                torn[i] ^= 1 << bit;
                assert!(
                    Checkpoint::decode(&torn).is_err(),
                    "flip at byte {i} bit {bit} accepted"
                );
            }
        }
    }

    #[test]
    fn injected_faults_never_panic_and_never_validate() {
        let clean = sample().encode();
        for seed in 0..200u64 {
            let mut data = clean.clone();
            let mut inj = FaultInjector::new(seed);
            inj.any_single(&mut data, 32);
            if data == clean {
                continue; // duplicate of a repeated span can be a no-op
            }
            // Length framing + CRC: any actual change must be rejected.
            assert!(Checkpoint::decode(&data).is_err(), "seed {seed} accepted");
        }
    }

    #[test]
    fn store_rotates_and_falls_back_from_torn_current() {
        let (store, dir) = store();
        let mut first = sample();
        first.committed_chunks = 10;
        let mut second = sample();
        second.committed_chunks = 20;
        store.save(&first).unwrap();
        store.save(&second).unwrap();

        // Both slots populated; current wins.
        let (got, faults) = store.load_latest();
        let (cp, slot) = got.unwrap();
        assert_eq!(cp.committed_chunks, 20);
        assert_eq!(slot, CheckpointSlot::Current);
        assert!(faults.is_empty());

        // Tear the current file (interrupted write): previous slot wins
        // and the fault is reported.
        let cur = store.current_path();
        let bytes = fs::read(&cur).unwrap();
        let mut torn = bytes.clone();
        FaultInjector::new(7).truncate(&mut torn).unwrap();
        fs::write(&cur, &torn).unwrap();
        let (got, faults) = store.load_latest();
        let (cp, slot) = got.unwrap();
        assert_eq!(cp.committed_chunks, 10);
        assert_eq!(slot, CheckpointSlot::Previous);
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].0, CheckpointSlot::Current);

        // Both torn: nothing to resume from, two faults.
        let prev = store.previous_path();
        let mut garbage = fs::read(&prev).unwrap();
        FaultInjector::new(8).corrupt_percent(&mut garbage, 20.0);
        fs::write(&prev, &garbage).unwrap();
        let (got, faults) = store.load_latest();
        assert!(got.is_none());
        assert_eq!(faults.len(), 2);

        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn clear_then_empty() {
        let (store, dir) = store();
        store.save(&sample()).unwrap();
        store.save(&sample()).unwrap();
        store.clear().unwrap();
        let (got, faults) = store.load_latest();
        assert!(got.is_none());
        assert!(faults.is_empty());
        store.clear().unwrap(); // idempotent
        let _ = fs::remove_dir_all(dir);
    }
}
