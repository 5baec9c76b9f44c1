//! Live streaming producer: seeded scenario traffic paced over a wire.
//!
//! File replay exercises the study pipeline at whatever rate the disk
//! allows; a *live* study has to survive traffic arriving on its own
//! schedule. This module is the sending half of that mode — a producer
//! that walks a seeded scenario through [`ChunkedIpfixReader`] and
//! streams the chunks over a [`ShardTransport`] at a target record
//! rate with burst shaping, under **credit-based admission control**:
//! the consumer grants an absolute send window (`Credit { up_to_seq }`)
//! and the producer never sends a chunk it holds no credit for, so a
//! slow study applies backpressure at the wire instead of ballooning
//! the consumer's memory.
//!
//! Message flow (producer ⇄ consumer):
//!
//! ```text
//! → Hello   { version, fingerprint, chunk_records, target_rps }
//! ← Welcome { window }
//! ← Resume  { byte_cursor, seq }      (initial position; also go-back-N)
//! ← Credit  { up_to_seq }             (absolute, monotonic, loss-tolerant)
//! → Chunk*  (seq < up_to_seq only)
//! → Finish  { next_seq }              (EOF, or reply to Stop)
//! ← Stop                              (begin graceful drain)
//! ← Bye                               (session over)
//! ```
//!
//! Every message rides one `spoofwatch_net::wire` frame (magic `SWLV`),
//! so corruption is caught by the frame CRC and decoding here is total:
//! structural nonsense yields `None`, counted as a protocol fault,
//! never a panic.

use crate::chunked::{ChunkedIpfixReader, FlowChunk};
use spoofwatch_net::codec::{self, put_u16, put_u32, put_u64, WireReader};
use spoofwatch_net::{FlowRecord, IngestHealth, ShardTransport};
use std::io;
use std::time::{Duration, Instant};

/// Frame magic for live-session messages.
pub const LIVE_WIRE_MAGIC: [u8; 4] = *b"SWLV";
/// Live protocol version, negotiated in `Hello`.
pub const LIVE_PROTO_VERSION: u16 = 1;

/// `Fatal` code: the peer refused the session identity (protocol
/// version or stream fingerprint mismatch).
pub const LIVE_FATAL_IDENTITY: u16 = 1;
/// `Fatal` code: unrecoverable internal error.
pub const LIVE_FATAL_INTERNAL: u16 = 2;

const MSG_HELLO: u8 = 1;
const MSG_WELCOME: u8 = 2;
const MSG_CREDIT: u8 = 3;
const MSG_CHUNK: u8 = 4;
const MSG_FINISH: u8 = 5;
const MSG_RESUME: u8 = 6;
const MSG_STOP: u8 = 7;
const MSG_BYE: u8 = 8;
const MSG_FATAL: u8 = 9;

/// One stream chunk on the live wire: the reader's sequence number and
/// byte span plus the span's decode-health scalars (itemized quarantine
/// events do not travel; the consumer's runner only absorbs scalars).
#[derive(Debug, Clone, PartialEq)]
pub struct LiveChunk {
    /// Position of this chunk in the stream, starting at 0.
    pub seq: u64,
    /// First input byte the chunk covers.
    pub byte_start: u64,
    /// One past the last input byte; the resume cursor.
    pub byte_end: u64,
    /// Decode health of the span (scalars only on the wire).
    pub health: IngestHealth,
    /// Records recovered from the span, in stream order.
    pub flows: Vec<FlowRecord>,
}

impl LiveChunk {
    /// Wire view of a decoded chunk (drops itemized health events —
    /// only scalars travel).
    pub fn from_chunk(c: &FlowChunk) -> LiveChunk {
        LiveChunk {
            seq: c.seq,
            byte_start: c.byte_start,
            byte_end: c.byte_end,
            health: c.health.scalars(),
            flows: c.flows.clone(),
        }
    }

    /// Convert back into the reader's chunk type for the consumer's
    /// study runner.
    pub fn into_chunk(self) -> FlowChunk {
        FlowChunk {
            seq: self.seq,
            byte_start: self.byte_start,
            byte_end: self.byte_end,
            flows: self.flows,
            health: self.health,
        }
    }
}

/// Every message either side of a live link can send.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Producer → consumer: identify the stream after connecting.
    Hello {
        /// Must equal [`LIVE_PROTO_VERSION`].
        proto_version: u16,
        /// [`ChunkedIpfixReader::fingerprint`] of the scenario — binds
        /// the consumer's checkpoints to this exact stream.
        fingerprint: u64,
        /// Records per chunk the producer walks with.
        chunk_records: u32,
        /// Target offered rate in records/second (0 = line rate);
        /// informational, echoed into the consumer's session report.
        target_rps: u32,
    },
    /// Consumer → producer: accept, advertising the admission window
    /// (maximum chunks ever buffered consumer-side).
    Welcome {
        /// Admission-buffer bound in chunks.
        window: u32,
    },
    /// Consumer → producer: absolute send-window grant. The producer
    /// may send any chunk with `seq < up_to_seq`. Grants are monotonic
    /// and idempotent, so a lost or reordered grant is harmless.
    Credit {
        /// One past the highest chunk sequence the producer may send.
        up_to_seq: u64,
    },
    /// Producer → consumer: one paced stream chunk.
    Chunk(LiveChunk),
    /// Producer → consumer: the stream is exhausted (or a `Stop` was
    /// honored); `next_seq` is one past the last chunk sent, so the
    /// consumer can detect missing frames and ask to resume.
    Finish {
        /// One past the last chunk sequence.
        next_seq: u64,
    },
    /// Consumer → producer: stream (or re-stream) from this position —
    /// sent once after the handshake from the consumer's checkpoint,
    /// and again whenever a gap demands go-back-N retransmission.
    Resume {
        /// Byte cursor the next chunk must start at.
        byte_cursor: u64,
        /// Sequence number of the next chunk.
        seq: u64,
    },
    /// Consumer → producer: begin graceful drain. No further credit
    /// will be granted; the producer replies `Finish` and waits for
    /// `Bye`.
    Stop,
    /// Consumer → producer: the session is over; disconnect.
    Bye,
    /// Either side: unrecoverable failure (`LIVE_FATAL_*` code).
    Fatal {
        /// One of the `LIVE_FATAL_*` codes.
        code: u16,
        /// Human-readable detail.
        detail: String,
    },
}

/// The `Chunk` message for a decoded chunk, encoded straight from the
/// borrowed records: what `Msg::Chunk(LiveChunk::from_chunk(c)).encode()`
/// yields, without cloning the record vector first.
fn encode_chunk(c: &FlowChunk) -> Vec<u8> {
    let mut out = Vec::new();
    codec::put_chunk(
        &mut out,
        MSG_CHUNK,
        c.seq,
        c.byte_start,
        c.byte_end,
        &c.health,
        &c.flows,
    );
    out
}

impl Msg {
    /// Encode into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Msg::Hello {
                proto_version,
                fingerprint,
                chunk_records,
                target_rps,
            } => {
                out.push(MSG_HELLO);
                put_u16(&mut out, *proto_version);
                put_u64(&mut out, *fingerprint);
                put_u32(&mut out, *chunk_records);
                put_u32(&mut out, *target_rps);
            }
            Msg::Welcome { window } => {
                out.push(MSG_WELCOME);
                put_u32(&mut out, *window);
            }
            Msg::Credit { up_to_seq } => {
                out.push(MSG_CREDIT);
                put_u64(&mut out, *up_to_seq);
            }
            Msg::Chunk(c) => codec::put_chunk(
                &mut out,
                MSG_CHUNK,
                c.seq,
                c.byte_start,
                c.byte_end,
                &c.health,
                &c.flows,
            ),
            Msg::Finish { next_seq } => {
                out.push(MSG_FINISH);
                put_u64(&mut out, *next_seq);
            }
            Msg::Resume { byte_cursor, seq } => {
                out.push(MSG_RESUME);
                put_u64(&mut out, *byte_cursor);
                put_u64(&mut out, *seq);
            }
            Msg::Stop => out.push(MSG_STOP),
            Msg::Bye => out.push(MSG_BYE),
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
                fingerprint: r.u64()?,
                chunk_records: r.u32()?,
                target_rps: r.u32()?,
            },
            MSG_WELCOME => Msg::Welcome { window: r.u32()? },
            MSG_CREDIT => Msg::Credit { up_to_seq: r.u64()? },
            MSG_CHUNK => Msg::Chunk(LiveChunk {
                seq: r.u64()?,
                byte_start: r.u64()?,
                byte_end: r.u64()?,
                health: codec::get_health(&mut r)?,
                flows: codec::get_flows(&mut r)?,
            }),
            MSG_FINISH => Msg::Finish { next_seq: r.u64()? },
            MSG_RESUME => Msg::Resume {
                byte_cursor: r.u64()?,
                seq: r.u64()?,
            },
            MSG_STOP => Msg::Stop,
            MSG_BYE => Msg::Bye,
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

/// A replayable seeded scenario: the encoded IPFIX-lite buffer plus
/// its chunking. The producer walks it with [`ChunkedIpfixReader`], so
/// the stream fingerprint, chunk boundaries, and decode health are
/// identical to what a file-replay study of the same buffer sees —
/// which is what makes live-vs-replay bit-identity provable.
#[derive(Debug, Clone)]
pub struct LiveScenario {
    data: Vec<u8>,
    chunk_records: usize,
}

impl LiveScenario {
    /// A scenario over an encoded IPFIX-lite buffer, walked
    /// `chunk_records` records per chunk (minimum 1).
    pub fn from_ipfix(data: Vec<u8>, chunk_records: usize) -> LiveScenario {
        LiveScenario {
            data,
            chunk_records: chunk_records.max(1),
        }
    }

    /// The stream identity the producer announces in `Hello`.
    pub fn fingerprint(&self) -> u64 {
        ChunkedIpfixReader::new(&self.data, self.chunk_records).fingerprint()
    }

    /// Records per chunk.
    pub fn chunk_records(&self) -> usize {
        self.chunk_records
    }

    /// The encoded buffer (for running a replay study over the same
    /// bytes).
    pub fn data(&self) -> &[u8] {
        &self.data
    }
}

/// Producer-side pacing, chaos, and watchdog knobs.
#[derive(Debug, Clone)]
pub struct LiveProducerConfig {
    /// Target offered rate in records/second; 0 streams at line rate
    /// (credit-bound only).
    pub target_records_per_sec: u32,
    /// Burst shaping: chunks are released in bursts of this many, with
    /// the inter-burst gap stretched to preserve the average rate.
    /// 1 = smooth pacing.
    pub burst_chunks: u32,
    /// How long to wait for `Welcome` and the first `Resume`.
    pub handshake_timeout_ms: u64,
    /// Producer-side credit-stall watchdog: error out if the consumer
    /// grants no new credit for this long while chunks are ready to
    /// send. Bounds every wait against a wedged consumer.
    pub credit_stall_ms: u64,
    /// After sending `Finish`, how long to wait for `Bye` before
    /// giving up and disconnecting anyway.
    pub drain_timeout_ms: u64,
    /// Chaos schedule: `(after_seq, pause_ms)` — sleep `pause_ms`
    /// before sending the chunk with sequence `after_seq`, simulating
    /// a stalled upstream tap.
    pub pauses: Vec<(u64, u64)>,
}

impl Default for LiveProducerConfig {
    fn default() -> Self {
        LiveProducerConfig {
            target_records_per_sec: 0,
            burst_chunks: 1,
            handshake_timeout_ms: 5_000,
            credit_stall_ms: 10_000,
            drain_timeout_ms: 5_000,
            pauses: Vec::new(),
        }
    }
}

/// What a producer session accomplished.
#[derive(Debug, Clone, Default)]
pub struct LiveProducerStats {
    /// Chunks sent (counting go-back-N retransmissions).
    pub chunks_sent: u64,
    /// Records inside those chunks.
    pub records_sent: u64,
    /// `Resume` requests served after the initial position.
    pub resumes_served: u64,
    /// Chaos pauses taken from the configured schedule.
    pub pauses_taken: u64,
    /// CRC-valid frames whose payload failed to decode as a message.
    pub protocol_faults: u64,
    /// Whether `Finish` was sent (stream exhausted or `Stop` honored).
    pub finished: bool,
    /// Whether the consumer acknowledged the session end with `Bye`.
    pub acked: bool,
}

/// Poll granularity while pacing or credit-blocked.
const POLL: Duration = Duration::from_millis(5);

/// Stream `scenario` over `transport` until EOF, `Stop`, or a fatal
/// link error. Blocks the calling thread; run it on its own thread (or
/// process) like a real upstream tap.
///
/// Protocol: send `Hello`, await `Welcome` then the consumer's initial
/// `Resume`, then release chunks under credit and pacing. `Resume`
/// mid-stream seeks the reader back (go-back-N); `Stop` freezes
/// sending and answers `Finish`; `Bye` ends the session.
pub fn run_live_producer(
    transport: &mut ShardTransport,
    scenario: &LiveScenario,
    cfg: &LiveProducerConfig,
) -> io::Result<LiveProducerStats> {
    let mut reader = ChunkedIpfixReader::new(&scenario.data, scenario.chunk_records);
    let mut stats = LiveProducerStats::default();

    transport.send(
        &Msg::Hello {
            proto_version: LIVE_PROTO_VERSION,
            fingerprint: reader.fingerprint(),
            chunk_records: scenario.chunk_records as u32,
            target_rps: cfg.target_records_per_sec,
        }
        .encode(),
    )?;

    // Await Welcome.
    let handshake_deadline = Instant::now() + Duration::from_millis(cfg.handshake_timeout_ms);
    loop {
        let remaining = handshake_deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "no Welcome before handshake timeout",
            ));
        }
        if let Some(payload) = transport.recv(remaining)? {
            match Msg::decode(&payload) {
                Some(Msg::Welcome { .. }) => break,
                Some(Msg::Fatal { code, detail }) => {
                    return Err(io::Error::other(format!(
                        "consumer refused session (code {code}): {detail}"
                    )));
                }
                Some(_) => {} // stray pre-handshake frame: ignore
                None => stats.protocol_faults += 1,
            }
        }
    }

    let interval_ns: u64 = if cfg.target_records_per_sec == 0 {
        0
    } else {
        (scenario.chunk_records as u64)
            .saturating_mul(1_000_000_000)
            .saturating_div(cfg.target_records_per_sec.max(1) as u64)
    };
    let burst = cfg.burst_chunks.max(1) as u64;

    let mut started = false; // first Resume received
    let mut stopping = false;
    // On Stop we freeze forward progress at the then-current position;
    // a Resume during the drain rewinds below it, and we re-send up to
    // it (always within already-granted credit) before re-Finishing.
    let mut stop_at: u64 = u64::MAX;
    let mut finished_sent = false;
    let mut credit_up_to: u64 = 0;
    let mut send_seq: u64 = 0;
    let mut pace_start = Instant::now();
    let mut paced_chunks: u64 = 0; // chunks released since pace_start
    let mut last_progress = Instant::now();
    let mut finish_sent_at: Option<Instant> = None;
    let mut pauses = cfg.pauses.clone();

    loop {
        // Drain control traffic. Block only as long as we have nothing
        // better to do.
        let wait = if !started {
            handshake_deadline.saturating_duration_since(Instant::now())
        } else if stopping || finished_sent || send_seq >= credit_up_to {
            POLL * 4
        } else {
            Duration::ZERO
        };
        if !started && wait.is_zero() {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "no initial Resume before handshake timeout",
            ));
        }
        match transport.recv(wait.max(Duration::from_millis(1))) {
            Ok(Some(payload)) => match Msg::decode(&payload) {
                Some(Msg::Credit { up_to_seq }) => {
                    if up_to_seq > credit_up_to {
                        credit_up_to = up_to_seq;
                        last_progress = Instant::now();
                    }
                }
                Some(Msg::Resume { byte_cursor, seq }) => {
                    reader.seek(byte_cursor, seq);
                    send_seq = seq;
                    if started {
                        stats.resumes_served += 1;
                    }
                    started = true;
                    // A resume un-finishes the stream: the consumer is
                    // missing chunks we must re-send (during a Stop
                    // drain, only up to `stop_at`).
                    finished_sent = false;
                    finish_sent_at = None;
                    last_progress = Instant::now();
                    // Restart pacing from here: replayed chunks are
                    // paced like fresh ones.
                    pace_start = Instant::now();
                    paced_chunks = 0;
                }
                Some(Msg::Stop) => {
                    if !stopping {
                        stopping = true;
                        stop_at = send_seq;
                    }
                }
                Some(Msg::Bye) => {
                    stats.acked = true;
                    return Ok(stats);
                }
                Some(Msg::Fatal { code, detail }) => {
                    return Err(io::Error::other(format!(
                        "consumer fatal (code {code}): {detail}"
                    )));
                }
                Some(_) => {}
                None => stats.protocol_faults += 1,
            },
            Ok(None) => {}
            Err(e) => {
                // Link gone. If we already finished, treat a lost Bye
                // as a clean-enough end; otherwise surface it.
                if finished_sent {
                    return Ok(stats);
                }
                return Err(e);
            }
        }
        if !started {
            continue;
        }

        if stopping && !finished_sent && send_seq >= stop_at {
            transport.send(&Msg::Finish { next_seq: send_seq }.encode())?;
            stats.finished = true;
            finished_sent = true;
            finish_sent_at = Some(Instant::now());
        }

        if finished_sent {
            // Drain phase: only Bye (handled above) or a drain timeout
            // ends the session.
            if let Some(at) = finish_sent_at {
                if at.elapsed() >= Duration::from_millis(cfg.drain_timeout_ms) {
                    return Ok(stats);
                }
            }
            continue;
        }

        if send_seq >= credit_up_to {
            // Credit-blocked: the watchdog bounds this wait.
            if last_progress.elapsed() >= Duration::from_millis(cfg.credit_stall_ms) {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "credit stall: consumer granted no credit within the watchdog bound",
                ));
            }
            continue;
        }

        // Pacing: chunk k of this pacing epoch is due when its burst is.
        if interval_ns > 0 {
            let due_ns = (paced_chunks / burst) * burst * interval_ns;
            let elapsed_ns = pace_start.elapsed().as_nanos() as u64;
            if elapsed_ns < due_ns {
                std::thread::sleep(Duration::from_nanos((due_ns - elapsed_ns).min(5_000_000)));
                continue;
            }
        }

        match reader.next_chunk() {
            Some(chunk) => {
                if let Some(i) = pauses.iter().position(|&(at, _)| at == chunk.seq) {
                    let (_, pause_ms) = pauses.remove(i);
                    std::thread::sleep(Duration::from_millis(pause_ms));
                    stats.pauses_taken += 1;
                }
                send_seq = chunk.seq + 1;
                stats.chunks_sent += 1;
                stats.records_sent += chunk.flows.len() as u64;
                paced_chunks += 1;
                last_progress = Instant::now();
                transport.send(&encode_chunk(&chunk))?;
            }
            None => {
                transport.send(&Msg::Finish { next_seq: send_seq }.encode())?;
                stats.finished = true;
                finished_sent = true;
                finish_sent_at = Some(Instant::now());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spoofwatch_net::{Asn, Proto};

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

    fn roundtrip(msg: Msg) {
        let encoded = msg.encode();
        assert_eq!(Msg::decode(&encoded), Some(msg));
    }

    #[test]
    fn control_messages_roundtrip() {
        roundtrip(Msg::Hello {
            proto_version: LIVE_PROTO_VERSION,
            fingerprint: 0xDEAD_BEEF_0BAD_F00D,
            chunk_records: 64,
            target_rps: 10_000,
        });
        roundtrip(Msg::Welcome { window: 8 });
        roundtrip(Msg::Credit { up_to_seq: 17 });
        roundtrip(Msg::Finish { next_seq: 77 });
        roundtrip(Msg::Resume {
            byte_cursor: 1_000_000,
            seq: 42,
        });
        roundtrip(Msg::Stop);
        roundtrip(Msg::Bye);
        roundtrip(Msg::Fatal {
            code: LIVE_FATAL_IDENTITY,
            detail: "fingerprint mismatch".into(),
        });
    }

    #[test]
    fn chunk_roundtrips_with_flows_and_health() {
        let mut health = IngestHealth::default();
        health.input_len = 4096;
        health.ok_records = 40;
        health.ok_bytes = 4000;
        health.resyncs = 2;
        health.quarantined_bytes = 96;
        health.fault_counts = [1, 0, 2, 0, 1];
        roundtrip(Msg::Chunk(LiveChunk {
            seq: 9,
            byte_start: 36_864,
            byte_end: 40_960,
            health,
            flows: (0..50).map(sample_flow).collect(),
        }));
        roundtrip(Msg::Chunk(LiveChunk {
            seq: 10,
            byte_start: 40_960,
            byte_end: 45_056,
            health: IngestHealth::default(),
            flows: Vec::new(),
        }));
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
        let mut stop = Msg::Stop.encode();
        stop.push(7);
        assert_eq!(Msg::decode(&stop), None);
        // Truncated and over-long chunk blocks decode to `None`.
        let full = Msg::Chunk(LiveChunk {
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
    }

    /// `Msg::Chunk` payload of a two-flow chunk as the parent commit's
    /// per-field `put_flow`/`put_health` codec wrote it (byte for byte
    /// what the shard link's `Msg::Chunk` wrote for the same chunk; the
    /// same literal is pinned in `spoofwatch-core`'s shard protocol
    /// tests).
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

    #[test]
    fn chunk_encoding_is_byte_identical_to_the_parent_commit() {
        let mut health = IngestHealth {
            input_len: 4096,
            ok_records: 2,
            ok_bytes: 4000,
            resyncs: 1,
            fault_counts: [1, 0, 2, 0, 3],
            ..IngestHealth::default()
        };
        // Itemized events stay behind; only the scalars travel.
        health.quarantine(4000, 96, spoofwatch_net::FaultKind::Implausible);
        health.fault_counts = [1, 0, 2, 0, 3];
        let chunk = FlowChunk {
            seq: 9,
            byte_start: 36_864,
            byte_end: 40_960,
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
            health,
        };
        assert!(!chunk.health.events.is_empty());
        let wire = LiveChunk::from_chunk(&chunk);
        assert!(wire.health.events.is_empty());
        // The owned message and the producer's borrowed encoding agree
        // with each other and with the parent's bytes.
        assert_eq!(Msg::Chunk(wire.clone()).encode(), PARENT_CHUNK_PAYLOAD);
        assert_eq!(encode_chunk(&chunk), PARENT_CHUNK_PAYLOAD);
        assert_eq!(Msg::decode(&PARENT_CHUNK_PAYLOAD), Some(Msg::Chunk(wire)));
    }

    #[test]
    fn scenario_fingerprint_matches_reader() {
        let flows: Vec<FlowRecord> = (0..10).map(sample_flow).collect();
        let bytes = crate::ipfix::encode(&flows);
        let scenario = LiveScenario::from_ipfix(bytes.clone(), 4);
        assert_eq!(
            scenario.fingerprint(),
            ChunkedIpfixReader::new(&bytes, 4).fingerprint()
        );
        // Chunking is part of the identity.
        assert_ne!(
            scenario.fingerprint(),
            LiveScenario::from_ipfix(bytes, 5).fingerprint()
        );
    }

    /// Producer against an inline scripted consumer: handshake, paced
    /// credited streaming, one mid-stream go-back-N resume, Stop, and
    /// a drain that yields Finish + Bye.
    #[test]
    fn producer_streams_under_credit_and_serves_resume() {
        let flows: Vec<FlowRecord> = (0..40).map(sample_flow).collect();
        let bytes = crate::ipfix::encode(&flows);
        let scenario = LiveScenario::from_ipfix(bytes.clone(), 5);
        let expected: Vec<FlowChunk> =
            ChunkedIpfixReader::new(&bytes, 5).collect_chunks();
        let fingerprint = scenario.fingerprint();

        let (mut a, mut b) = ShardTransport::channel_pair(LIVE_WIRE_MAGIC, 64);
        let producer = std::thread::spawn(move || {
            run_live_producer(&mut a, &scenario, &LiveProducerConfig::default())
        });

        // Consumer side, scripted.
        let recv_msg = |t: &mut ShardTransport| -> Msg {
            loop {
                if let Some(p) = t.recv(Duration::from_secs(5)).unwrap() {
                    if let Some(m) = Msg::decode(&p) {
                        return m;
                    }
                }
            }
        };
        match recv_msg(&mut b) {
            Msg::Hello {
                proto_version,
                fingerprint: fp,
                chunk_records,
                ..
            } => {
                assert_eq!(proto_version, LIVE_PROTO_VERSION);
                assert_eq!(fp, fingerprint);
                assert_eq!(chunk_records, 5);
            }
            other => panic!("expected Hello, got {other:?}"),
        }
        b.send(&Msg::Welcome { window: 4 }.encode()).unwrap();
        b.send(&Msg::Resume { byte_cursor: 0, seq: 0 }.encode())
            .unwrap();
        // Grant credit for the first three chunks only.
        b.send(&Msg::Credit { up_to_seq: 3 }.encode()).unwrap();
        let mut got = Vec::new();
        for _ in 0..3 {
            match recv_msg(&mut b) {
                Msg::Chunk(c) => got.push(c),
                other => panic!("expected Chunk, got {other:?}"),
            }
        }
        // No credit: the producer must not send chunk 3.
        assert!(b.recv(Duration::from_millis(100)).unwrap().is_none());
        // Go back to chunk 1 and allow the rest of the stream.
        b.send(
            &Msg::Resume {
                byte_cursor: expected[1].byte_start,
                seq: 1,
            }
            .encode(),
        )
        .unwrap();
        b.send(&Msg::Credit { up_to_seq: u64::MAX }.encode())
            .unwrap();
        let mut replayed = Vec::new();
        loop {
            match recv_msg(&mut b) {
                Msg::Chunk(c) => replayed.push(c),
                Msg::Finish { next_seq } => {
                    assert_eq!(next_seq, expected.len() as u64);
                    break;
                }
                other => panic!("expected Chunk/Finish, got {other:?}"),
            }
        }
        b.send(&Msg::Bye.encode()).unwrap();
        let stats = producer.join().unwrap().unwrap();
        assert!(stats.finished && stats.acked);
        assert_eq!(stats.resumes_served, 1);
        // The replay reproduced chunks 1.. exactly.
        assert_eq!(replayed.len(), expected.len() - 1);
        for (c, e) in replayed.iter().zip(&expected[1..]) {
            assert_eq!(c.seq, e.seq);
            assert_eq!(c.byte_start, e.byte_start);
            assert_eq!(c.byte_end, e.byte_end);
            assert_eq!(c.flows, e.flows);
        }
        // And the pre-resume chunks were the prefix.
        for (c, e) in got.iter().zip(&expected[..3]) {
            assert_eq!(c.seq, e.seq);
            assert_eq!(c.flows, e.flows);
        }
    }

    /// A consumer that never grants credit trips the producer's
    /// credit-stall watchdog instead of hanging forever.
    #[test]
    fn credit_stall_watchdog_bounds_the_wait() {
        let flows: Vec<FlowRecord> = (0..10).map(sample_flow).collect();
        let scenario = LiveScenario::from_ipfix(crate::ipfix::encode(&flows), 5);
        let (mut a, mut b) = ShardTransport::channel_pair(LIVE_WIRE_MAGIC, 64);
        let cfg = LiveProducerConfig {
            credit_stall_ms: 100,
            ..LiveProducerConfig::default()
        };
        let producer =
            std::thread::spawn(move || run_live_producer(&mut a, &scenario, &cfg));
        // Handshake + initial position, then silence.
        loop {
            if let Some(p) = b.recv(Duration::from_secs(5)).unwrap() {
                if matches!(Msg::decode(&p), Some(Msg::Hello { .. })) {
                    break;
                }
            }
        }
        b.send(&Msg::Welcome { window: 4 }.encode()).unwrap();
        b.send(&Msg::Resume { byte_cursor: 0, seq: 0 }.encode())
            .unwrap();
        let err = producer.join().unwrap().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }
}
