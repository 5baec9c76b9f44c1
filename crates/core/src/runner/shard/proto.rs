//! The shard link's extension of the chunk-link protocol: the report
//! messages a worker ends its run with.
//!
//! The link itself speaks [`spoofwatch_ixp::live::Msg`] (under frame
//! magic `SWSD`); a finished worker then sends its rollup ring as
//! bounded `ReportWindows` batches followed by one terminal `Report`.
//! Decoding is total — a CRC-valid payload with nonsense structure
//! yields `None`, which the coordinator counts as a protocol fault.
//! All integers are big-endian, matching the checkpoint and rollup
//! codecs.

use super::super::checkpoint::Checkpoint;
use super::super::rollup::WindowAccum;
use spoofwatch_net::codec::{put_u32, WireReader};

/// Frame magic for shard-link messages.
pub(crate) const SHARD_MAGIC: [u8; 4] = *b"SWSD";

/// Soft cap on one `ReportWindows` payload. A shard's ring grows with
/// the trace; one frame holding all of it would pass
/// `net::wire::DEFAULT_MAX_FRAME` (4 MiB) after a few hundred windows.
pub(crate) const REPORT_BATCH_BYTES: usize = 1 << 20;

// The two tags the link protocol's own numbering leaves free.
const MSG_REPORT_WINDOWS: u8 = 9;
const MSG_REPORT: u8 = 11;

/// A completed shard's result as the coordinator assembles it: the
/// terminal checkpoint (which already carries the per-member breakdown,
/// both accounting levels, ingest totals, and the disagreement matrix)
/// plus the rollup window ring gathered from the `ReportWindows`
/// batches that preceded the `Report`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ShardReport {
    pub checkpoint: Checkpoint,
    pub windows: Vec<WindowAccum>,
}

/// The worker → coordinator report messages.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ReportMsg {
    /// The next run of closed rollup windows, in ring order, ahead of
    /// the terminal `Report`.
    Windows(Vec<WindowAccum>),
    /// Terminal result. `window_count` is the number of windows the
    /// preceding `Windows` batches carried, so a batch lost to a
    /// corrupt frame cannot pass for a short ring.
    Report {
        shard_id: u32,
        checkpoint: Box<Checkpoint>,
        window_count: u32,
    },
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

/// Encode the terminal `Report`.
pub(crate) fn encode_report(shard_id: u32, checkpoint: &Checkpoint, window_count: u32) -> Vec<u8> {
    let mut out = vec![MSG_REPORT];
    put_u32(&mut out, shard_id);
    let cp = checkpoint.encode();
    put_u32(&mut out, cp.len() as u32);
    out.extend_from_slice(&cp);
    put_u32(&mut out, window_count);
    out
}

impl ReportMsg {
    /// Decode a frame payload; `None` on any structural damage.
    pub fn decode(payload: &[u8]) -> Option<ReportMsg> {
        let mut r = WireReader::new(payload);
        let msg = match r.u8()? {
            MSG_REPORT_WINDOWS => {
                let n = r.u32()? as usize;
                // Cap pre-allocation against nonsense counts.
                let mut windows = Vec::with_capacity(n.min(1 << 12));
                for _ in 0..n {
                    windows.push(WindowAccum::decode_from(&mut r)?);
                }
                ReportMsg::Windows(windows)
            }
            MSG_REPORT => {
                let shard_id = r.u32()?;
                let cp_len = r.u32()? as usize;
                let checkpoint = Box::new(Checkpoint::decode(r.take(cp_len)?).ok()?);
                ReportMsg::Report {
                    shard_id,
                    checkpoint,
                    window_count: r.u32()?,
                }
            }
            _ => return None,
        };
        r.done().then_some(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::super::super::rollup::decode_window;
    use super::super::super::{FlowAccounting, IngestTotals};
    use super::*;
    use spoofwatch_net::Asn;
    use std::collections::BTreeMap;

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

    fn sample_report() -> Vec<u8> {
        encode_report(1, &sample_checkpoint(), 2)
    }

    #[test]
    fn report_roundtrips() {
        let ring = vec![sample_window(0), sample_window(1)];
        let batches = report_window_batches(&ring);
        assert_eq!(batches.len(), 1);
        assert_eq!(ReportMsg::decode(&batches[0]), Some(ReportMsg::Windows(ring)));
        assert_eq!(
            ReportMsg::decode(&[MSG_REPORT_WINDOWS, 0, 0, 0, 0]),
            Some(ReportMsg::Windows(Vec::new()))
        );
        assert_eq!(
            ReportMsg::decode(&sample_report()),
            Some(ReportMsg::Report {
                shard_id: 1,
                checkpoint: Box::new(sample_checkpoint()),
                window_count: 2,
            })
        );
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
            match ReportMsg::decode(payload) {
                Some(ReportMsg::Windows(ws)) => {
                    assert!(!ws.is_empty());
                    back.extend(ws);
                }
                other => panic!("expected ReportWindows, got {other:?}"),
            }
        }
        assert_eq!(back, ring);
    }

    #[test]
    fn decode_is_total_on_garbage() {
        assert_eq!(ReportMsg::decode(&[]), None);
        assert_eq!(ReportMsg::decode(&[0xFF]), None);
        assert_eq!(ReportMsg::decode(&[MSG_REPORT, 0x00]), None);
        // The link's own messages are not report messages, and the
        // report tags are not link messages.
        let finish = spoofwatch_ixp::live::Msg::Finish { next_seq: 1 }.encode();
        assert_eq!(ReportMsg::decode(&finish), None);
        let windows = report_window_batches(&[sample_window(3)]).remove(0);
        for full in [windows, sample_report()] {
            assert_eq!(spoofwatch_ixp::live::Msg::decode(&full), None);
            // Truncations never panic; trailing junk is rejected.
            for cut in 0..full.len() {
                assert_eq!(ReportMsg::decode(&full[..cut]), None, "cut {cut}");
            }
            let mut long = full;
            long.push(0);
            assert_eq!(ReportMsg::decode(&long), None);
        }
    }

    /// A checkpoint and a ring window written by the PR 11 commit
    /// (byte-wise CRC) verify and decode under the sliced CRC, and
    /// re-encode to the same bytes. (The shard frame written by that
    /// commit is pinned beside the chunk payload in `ixp::live`.)
    #[test]
    fn artefacts_written_by_the_parent_commit_still_verify() {
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
