//! The shard-link message codec.
//!
//! Every message rides inside one `spoofwatch_net::wire` frame (magic
//! `SWSD`), so torn and corrupt messages are caught by the frame CRC
//! before they reach this layer; what arrives here is an intact payload
//! whose first byte is the message type. Decoding is still total — a
//! CRC-valid payload with nonsense structure yields `None`, which the
//! control plane counts as a protocol fault and recovers from via
//! retransmission, never a panic.
//!
//! All integers are big-endian, matching the checkpoint and rollup
//! codecs.

use super::super::checkpoint::Checkpoint;
use super::super::rollup::WindowAccum;
use spoofwatch_net::codec::{self, put_u16, put_u32, put_u64, WireReader};
use spoofwatch_net::{FlowRecord, IngestHealth};

/// Frame magic for shard-link messages.
pub(crate) const SHARD_MAGIC: [u8; 4] = *b"SWSD";
/// Shard protocol version, negotiated in `Hello`. Version 2 moved the
/// rollup windows out of `Report` into bounded `ReportWindows` batches.
pub(crate) const PROTO_VERSION: u16 = 2;

/// `Fatal` code: the worker refused the study identity (checkpoint
/// bound to a different config, trace, or shard plan).
pub(crate) const FATAL_IDENTITY: u16 = 1;
/// `Fatal` code: unrecoverable worker-side error.
pub(crate) const FATAL_INTERNAL: u16 = 2;

/// Soft cap on one `ReportWindows` payload. A shard's ring grows with
/// the trace; one frame holding all of it would pass
/// `net::wire::DEFAULT_MAX_FRAME` (4 MiB) after a few hundred windows.
pub(crate) const REPORT_BATCH_BYTES: usize = 1 << 20;

const MSG_HELLO: u8 = 1;
const MSG_WELCOME: u8 = 2;
const MSG_RESUME: u8 = 3;
const MSG_CHUNK: u8 = 4;
const MSG_FINISH: u8 = 5;
const MSG_HEARTBEAT: u8 = 6;
const MSG_REPORT: u8 = 7;
const MSG_FATAL: u8 = 8;
const MSG_REPORT_WINDOWS: u8 = 9;

/// One shard's view of one trace chunk: the original sequence number
/// and byte span (so worker checkpoints stay in trace coordinates) with
/// only the flows this shard owns. `health` carries scalars only —
/// itemized quarantine events stay on the coordinator — and is all
/// zero on the shards that do not own the chunk's decode accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WireChunk {
    pub seq: u64,
    pub byte_start: u64,
    pub byte_end: u64,
    pub health: IngestHealth,
    pub flows: Vec<FlowRecord>,
}

/// A completed shard's result as the coordinator assembles it: the
/// terminal checkpoint (which already carries the per-member breakdown,
/// both accounting levels, ingest totals, and the disagreement matrix)
/// plus the rollup window ring gathered from the `ReportWindows`
/// batches that preceded the `Report`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ReportMsg {
    pub shard_id: u32,
    pub checkpoint: Checkpoint,
    pub windows: Vec<WindowAccum>,
}

/// Every message either side of a shard link can send.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Msg {
    /// Worker → coordinator: identify after connecting.
    Hello { proto_version: u16, shard_id: u32 },
    /// Coordinator → worker: accept, carrying the plan-bound source
    /// fingerprint the worker's checkpoint identity must match.
    Welcome {
        fingerprint: u64,
        shards: u32,
        salt: u64,
    },
    /// Worker → coordinator: start (or restart) streaming from this
    /// trace position — sent at run start from the worker's checkpoint,
    /// and again whenever a gap or timeout demands retransmission.
    Resume { byte_cursor: u64, seq: u64 },
    /// Coordinator → worker: one partitioned chunk.
    Chunk(WireChunk),
    /// Coordinator → worker: the stream is exhausted; `next_seq` is one
    /// past the last chunk, so a worker that missed frames can detect
    /// the gap and ask to resume instead of finishing short.
    Finish { next_seq: u64 },
    /// Worker → coordinator: liveness beacon carrying the next chunk
    /// sequence the worker expects — the acknowledgment that paces the
    /// coordinator's sliding send window.
    Heartbeat { next_seq: u64 },
    /// Worker → coordinator: the next run of closed rollup windows, in
    /// ring order, ahead of the terminal `Report`.
    ReportWindows(Vec<WindowAccum>),
    /// Worker → coordinator: terminal result. `window_count` is the
    /// number of windows the preceding `ReportWindows` batches carried,
    /// so a batch lost to a corrupt frame cannot pass for a short ring.
    Report {
        shard_id: u32,
        checkpoint: Box<Checkpoint>,
        window_count: u32,
    },
    /// Worker → coordinator: unrecoverable failure (`FATAL_*` code).
    Fatal { code: u16, detail: String },
}

/// Encode a ring as `ReportWindows` payloads of at most about
/// [`REPORT_BATCH_BYTES`] each (a single larger window still travels
/// alone). An empty ring needs no batch.
pub(crate) fn report_window_batches(windows: &[WindowAccum]) -> Vec<Vec<u8>> {
    let mut batches: Vec<Vec<u8>> = Vec::new();
    let mut in_batch = 0u32;
    let mut one = Vec::new();
    for w in windows {
        one.clear();
        w.encode_into(&mut one);
        let fits = batches
            .last()
            .is_some_and(|b| b.len() + one.len() <= REPORT_BATCH_BYTES);
        if !fits {
            batches.push(vec![MSG_REPORT_WINDOWS, 0, 0, 0, 0]);
            in_batch = 0;
        }
        in_batch += 1;
        let batch = batches.last_mut().expect("a batch is open");
        batch[1..5].copy_from_slice(&in_batch.to_be_bytes());
        batch.extend_from_slice(&one);
    }
    batches
}

impl Msg {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Msg::Hello {
                proto_version,
                shard_id,
            } => {
                out.push(MSG_HELLO);
                put_u16(&mut out, *proto_version);
                put_u32(&mut out, *shard_id);
            }
            Msg::Welcome {
                fingerprint,
                shards,
                salt,
            } => {
                out.push(MSG_WELCOME);
                put_u64(&mut out, *fingerprint);
                put_u32(&mut out, *shards);
                put_u64(&mut out, *salt);
            }
            Msg::Resume { byte_cursor, seq } => {
                out.push(MSG_RESUME);
                put_u64(&mut out, *byte_cursor);
                put_u64(&mut out, *seq);
            }
            Msg::Chunk(wc) => codec::put_chunk(
                &mut out,
                MSG_CHUNK,
                wc.seq,
                wc.byte_start,
                wc.byte_end,
                &wc.health,
                &wc.flows,
            ),
            Msg::Finish { next_seq } => {
                out.push(MSG_FINISH);
                put_u64(&mut out, *next_seq);
            }
            Msg::Heartbeat { next_seq } => {
                out.push(MSG_HEARTBEAT);
                put_u64(&mut out, *next_seq);
            }
            Msg::ReportWindows(windows) => {
                out.push(MSG_REPORT_WINDOWS);
                put_u32(&mut out, windows.len() as u32);
                for w in windows {
                    w.encode_into(&mut out);
                }
            }
            Msg::Report {
                shard_id,
                checkpoint,
                window_count,
            } => {
                out.push(MSG_REPORT);
                put_u32(&mut out, *shard_id);
                let cp = checkpoint.encode();
                put_u32(&mut out, cp.len() as u32);
                out.extend_from_slice(&cp);
                put_u32(&mut out, *window_count);
            }
            Msg::Fatal { code, detail } => {
                out.push(MSG_FATAL);
                put_u16(&mut out, *code);
                let bytes = detail.as_bytes();
                put_u32(&mut out, bytes.len() as u32);
                out.extend_from_slice(bytes);
            }
        }
        out
    }

    /// Decode a frame payload; `None` on any structural damage.
    pub fn decode(payload: &[u8]) -> Option<Msg> {
        let mut r = WireReader::new(payload);
        let msg = match r.u8()? {
            MSG_HELLO => Msg::Hello {
                proto_version: r.u16()?,
                shard_id: r.u32()?,
            },
            MSG_WELCOME => Msg::Welcome {
                fingerprint: r.u64()?,
                shards: r.u32()?,
                salt: r.u64()?,
            },
            MSG_RESUME => Msg::Resume {
                byte_cursor: r.u64()?,
                seq: r.u64()?,
            },
            MSG_CHUNK => Msg::Chunk(WireChunk {
                seq: r.u64()?,
                byte_start: r.u64()?,
                byte_end: r.u64()?,
                health: codec::get_health(&mut r)?,
                flows: codec::get_flows(&mut r)?,
            }),
            MSG_FINISH => Msg::Finish { next_seq: r.u64()? },
            MSG_HEARTBEAT => Msg::Heartbeat {
                next_seq: r.u64()?,
            },
            MSG_REPORT_WINDOWS => {
                let n = r.u32()? as usize;
                // Cap pre-allocation against nonsense counts.
                let mut windows = Vec::with_capacity(n.min(1 << 12));
                for _ in 0..n {
                    windows.push(r.nested(WindowAccum::decode_from)?);
                }
                Msg::ReportWindows(windows)
            }
            MSG_REPORT => {
                let shard_id = r.u32()?;
                let cp_len = r.u32()? as usize;
                let checkpoint = Box::new(Checkpoint::decode(r.take(cp_len)?).ok()?);
                Msg::Report {
                    shard_id,
                    checkpoint,
                    window_count: r.u32()?,
                }
            }
            MSG_FATAL => {
                let code = r.u16()?;
                let len = r.u32()? as usize;
                let bytes = r.take(len)?;
                Msg::Fatal {
                    code,
                    detail: String::from_utf8_lossy(bytes).into_owned(),
                }
            }
            _ => return None,
        };
        if !r.done() {
            return None;
        }
        Some(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::super::super::rollup::decode_window;
    use super::super::super::{FlowAccounting, IngestTotals};
    use super::*;
    use spoofwatch_net::wire::{frame_encode, FrameReader};
    use spoofwatch_net::{Asn, Proto};
    use std::collections::BTreeMap;

    fn sample_flow(i: u32) -> FlowRecord {
        FlowRecord {
            ts: i,
            src: 0x0A00_0000 + i,
            dst: 0xC0A8_0000 + i,
            proto: Proto::from_number((i % 7) as u8),
            sport: (i * 13) as u16,
            dport: (i * 7) as u16,
            packets: i + 1,
            bytes: (i as u64 + 1) * 60,
            pkt_size: 60,
            member: Asn(64_500 + i),
            ttl: 0,
        }
    }

    fn sample_checkpoint() -> Checkpoint {
        let mut per_member = BTreeMap::new();
        per_member.insert(Asn(64_500), Default::default());
        Checkpoint {
            config_hash: 0x1234,
            committed_chunks: 7,
            byte_cursor: 7000,
            records: FlowAccounting {
                offered: 70,
                processed: 70,
                shed: 0,
                quarantined: 0,
            },
            chunks: FlowAccounting {
                offered: 7,
                processed: 7,
                shed: 0,
                quarantined: 0,
            },
            ingest: IngestTotals::default(),
            per_member,
            disagreement: None,
            rollup_accum: None,
        }
    }

    fn sample_window(index: u64) -> WindowAccum {
        let mut w = WindowAccum::start(index, index * 4);
        w.chunks = 4;
        w.class_flows = [10, 2, 3, 25];
        w
    }

    fn roundtrip(msg: Msg) {
        let encoded = msg.encode();
        assert_eq!(Msg::decode(&encoded), Some(msg));
    }

    #[test]
    fn control_messages_roundtrip() {
        roundtrip(Msg::Hello {
            proto_version: PROTO_VERSION,
            shard_id: 3,
        });
        roundtrip(Msg::Welcome {
            fingerprint: 0xDEAD_BEEF_0BAD_F00D,
            shards: 4,
            salt: 99,
        });
        roundtrip(Msg::Resume {
            byte_cursor: 1_000_000,
            seq: 42,
        });
        roundtrip(Msg::Finish { next_seq: 77 });
        roundtrip(Msg::Heartbeat {
            next_seq: 12,
        });
        roundtrip(Msg::Fatal {
            code: FATAL_IDENTITY,
            detail: "resharded study rejected".into(),
        });
    }

    #[test]
    fn chunk_roundtrips_with_flows_and_health() {
        let health = IngestHealth {
            input_len: 4096,
            ok_records: 40,
            ok_bytes: 4000,
            resyncs: 2,
            quarantined_bytes: 96,
            fault_counts: [1, 0, 2, 0, 1],
            ..IngestHealth::default()
        };
        roundtrip(Msg::Chunk(WireChunk {
            seq: 9,
            byte_start: 36_864,
            byte_end: 40_960,
            health,
            flows: (0..50).map(sample_flow).collect(),
        }));
        // Empty sub-chunks (a shard owning none of the chunk's flows)
        // must also survive.
        roundtrip(Msg::Chunk(WireChunk {
            seq: 10,
            byte_start: 40_960,
            byte_end: 45_056,
            health: IngestHealth::default(),
            flows: Vec::new(),
        }));
    }

    #[test]
    fn report_roundtrips() {
        roundtrip(Msg::ReportWindows(vec![sample_window(0), sample_window(1)]));
        roundtrip(Msg::ReportWindows(Vec::new()));
        roundtrip(Msg::Report {
            shard_id: 1,
            checkpoint: Box::new(sample_checkpoint()),
            window_count: 2,
        });
    }

    /// Batches stay under the cap, tile the ring in order, and decode
    /// as ordinary `ReportWindows` messages.
    #[test]
    fn report_window_batches_are_bounded_and_tile_the_ring() {
        assert!(report_window_batches(&[]).is_empty());
        // ~190 bytes a window: 20 000 of them need several batches.
        let ring: Vec<WindowAccum> = (0..20_000).map(sample_window).collect();
        let batches = report_window_batches(&ring);
        assert!(batches.len() >= 3, "{} batches", batches.len());
        let mut back = Vec::new();
        for payload in &batches {
            assert!(payload.len() <= REPORT_BATCH_BYTES, "{} bytes", payload.len());
            match Msg::decode(payload) {
                Some(Msg::ReportWindows(ws)) => {
                    assert!(!ws.is_empty());
                    back.extend(ws);
                }
                other => panic!("expected ReportWindows, got {other:?}"),
            }
        }
        assert_eq!(back, ring);
        // A short ring is one batch, identical to the message encoding.
        assert_eq!(
            report_window_batches(&ring[..2]),
            vec![Msg::ReportWindows(ring[..2].to_vec()).encode()]
        );
    }

    #[test]
    fn decode_is_total_on_garbage() {
        assert_eq!(Msg::decode(&[]), None);
        assert_eq!(Msg::decode(&[0xFF]), None);
        assert_eq!(Msg::decode(&[MSG_HELLO, 0x00]), None);
        // Trailing junk after a valid message is rejected.
        let mut ok = Msg::Finish { next_seq: 1 }.encode();
        ok.push(0);
        assert_eq!(Msg::decode(&ok), None);
        // Truncated and over-long chunk blocks decode to `None`.
        let full = Msg::Chunk(WireChunk {
            seq: 1,
            byte_start: 0,
            byte_end: 100,
            health: IngestHealth::default(),
            flows: vec![sample_flow(1), sample_flow(2)],
        })
        .encode();
        for cut in 0..full.len() {
            assert_eq!(Msg::decode(&full[..cut]), None, "cut {cut}");
        }
        let mut long = full;
        long.extend_from_slice(&[0; 36]);
        assert_eq!(Msg::decode(&long), None);
        // Truncations of the report messages never panic.
        for msg in [
            Msg::ReportWindows(vec![sample_window(3)]),
            Msg::Report {
                shard_id: 0,
                checkpoint: Box::new(sample_checkpoint()),
                window_count: 1,
            },
        ] {
            let full = msg.encode();
            for cut in 0..full.len() {
                assert_eq!(Msg::decode(&full[..cut]), None, "cut {cut}");
            }
        }
    }

    /// `Msg::Chunk` payload of a two-flow chunk as the parent commit's
    /// per-field `put_flow`/`put_health` codec wrote it (byte for byte
    /// what `ixp::live::Msg::Chunk` wrote for the same chunk).
    const PARENT_CHUNK_PAYLOAD: [u8; 182] = [
        0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x90, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xa0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x0f, 0xa0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x60, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03,
        0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x03, 0xe9, 0x0a, 0x00, 0x00, 0x01, 0xc0, 0xa8,
        0x01, 0x01, 0x06, 0x9c, 0x41, 0x00, 0x35, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0xb4, 0x00, 0x3c, 0x00, 0x00, 0xfb, 0xf5, 0x33, 0x00, 0x00, 0x03, 0xea,
        0x0a, 0x00, 0x00, 0x02, 0xc0, 0xa8, 0x01, 0x02, 0x11, 0x9c, 0x42, 0x00, 0x6a, 0x00, 0x00,
        0x00, 0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x68, 0x00, 0x3c, 0x00, 0x00, 0xfb,
        0xf6, 0x34,
    ];
    /// CRC-32 trailer the parent's byte-wise table walk put on that
    /// payload inside an `SWSD` frame.
    const PARENT_CHUNK_FRAME_CRC: [u8; 4] = [0xca, 0xfc, 0x48, 0x37];

    fn pinned_chunk() -> WireChunk {
        WireChunk {
            seq: 9,
            byte_start: 36_864,
            byte_end: 40_960,
            health: IngestHealth {
                input_len: 4096,
                ok_records: 2,
                ok_bytes: 4000,
                resyncs: 1,
                quarantined_bytes: 96,
                fault_counts: [1, 0, 2, 0, 3],
                ..IngestHealth::default()
            },
            flows: (1..=2u32)
                .map(|i| FlowRecord {
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
                })
                .collect(),
        }
    }

    #[test]
    fn chunk_encoding_is_byte_identical_to_the_parent_commit() {
        let encoded = Msg::Chunk(pinned_chunk()).encode();
        assert_eq!(encoded, PARENT_CHUNK_PAYLOAD);
        assert_eq!(Msg::decode(&PARENT_CHUNK_PAYLOAD), Some(Msg::Chunk(pinned_chunk())));
    }

    /// A shard frame, a checkpoint and a ring window written by the
    /// parent commit (byte-wise CRC) verify and decode under the sliced
    /// CRC, and re-encode to the same bytes.
    #[test]
    fn artefacts_written_by_the_parent_commit_still_verify() {
        let mut frame = Vec::new();
        frame.extend_from_slice(b"SWSD\x00\x01\x00\x00\x00\xb6");
        frame.extend_from_slice(&PARENT_CHUNK_PAYLOAD);
        frame.extend_from_slice(&PARENT_CHUNK_FRAME_CRC);
        assert_eq!(frame_encode(&SHARD_MAGIC, &PARENT_CHUNK_PAYLOAD), frame);
        let mut reader = FrameReader::new(SHARD_MAGIC);
        reader.push(&frame);
        assert_eq!(reader.next_frame().as_deref(), Some(&PARENT_CHUNK_PAYLOAD[..]));
        assert_eq!(reader.faults(), 0);

        const CHECKPOINT: [u8; 246] = [
            0x53, 0x57, 0x43, 0x50, 0x00, 0x01, 0x00, 0x00, 0x00, 0xe8, 0x12, 0x34, 0x56, 0x78,
            0x9a, 0xbc, 0xde, 0xf0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x1b, 0x58, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x46,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x46, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x1b, 0x58, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x46, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x1b, 0x58, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x01, 0x00, 0x00, 0xfb, 0xf4, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x46, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd2, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x31, 0x38, 0x1b, 0x4b, 0xa9, 0x1e,
        ];
        let cp = Checkpoint::decode(&CHECKPOINT).expect("parent checkpoint verifies");
        assert_eq!(cp.config_hash, 0x1234_5678_9ABC_DEF0);
        assert_eq!(cp.committed_chunks, 7);
        assert_eq!(cp.per_member[&Asn(64_500)][3].bytes, 12_600);
        assert_eq!(cp.encode(), CHECKPOINT);

        const RING_WINDOW: [u8; 215] = [
            0x53, 0x57, 0x52, 0x57, 0x00, 0x01, 0x00, 0x00, 0x00, 0xc9, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0c, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0a,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x19, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x28, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x28, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            0x00, 0xc9, 0x09, 0xe5, 0x68,
        ];
        let w = decode_window(&RING_WINDOW).expect("parent ring window verifies");
        assert_eq!((w.window_index, w.start_chunk, w.chunks), (3, 12, 4));
        assert_eq!(w.class_flows, [10, 2, 3, 25]);
    }
}
