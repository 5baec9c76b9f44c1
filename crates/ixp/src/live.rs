//! The chunk-link message codec and the live streaming producer.
//!
//! One protocol carries chunks on both links — live (an `ixp` producer
//! feeding `serve_live`, frame magic `SWLV`) and shard (a coordinator
//! feeding `serve_shard`, magic `SWSD`, plus its report messages).
//! [`Msg`] is the only codec; the rules of each half live in
//! [`crate::link`]. The consumer speaks first (`Hello` → `Welcome` →
//! `Resume`), and the sender never sends a chunk it holds no `Credit`
//! for, so a slow study pushes back at the wire instead of ballooning
//! memory; DESIGN.md §15 has the message flow.
//!
//! Every message rides one `spoofwatch_net::wire` frame, so corruption
//! is caught by the frame CRC and decoding here is total: structural
//! nonsense yields `None`, counted as a protocol fault, never a panic.
//!
//! [`send_loop`] is the one sending loop, run by the shard coordinator
//! and by [`run_live_producer`], the live link's sending shell: a seeded
//! scenario at a target record rate with chaos pauses.

use crate::chunked::{ChunkedIpfixReader, FlowChunk};
use crate::link::{ChunkSender, Progress};
use spoofwatch_net::codec::{self, put_u16, put_u32, put_u64, WireReader};
use spoofwatch_net::ShardTransport;
use std::convert::Infallible;
use std::io;
use std::ops::ControlFlow;
use std::time::{Duration, Instant};

/// Frame magic for live-session messages.
pub const LIVE_WIRE_MAGIC: [u8; 4] = *b"SWLV";
/// The chunk-link protocol version, announced in `Hello` on both links.
/// Version 3 merged the shard (v2) and live (v1) protocols.
pub const LINK_PROTO_VERSION: u16 = 3;

/// `Fatal` code: the peer refused the session identity (protocol
/// version, stream fingerprint, or a checkpoint bound to another study).
pub const FATAL_IDENTITY: u16 = 1;
/// `Fatal` code: unrecoverable internal error.
pub const FATAL_INTERNAL: u16 = 2;

// Tags 9 and 11 belong to the shard link's report messages.
const MSG_HELLO: u8 = 1;
const MSG_WELCOME: u8 = 2;
const MSG_CREDIT: u8 = 3;
const MSG_CHUNK: u8 = 4;
const MSG_FINISH: u8 = 5;
const MSG_RESUME: u8 = 6;
const MSG_STOP: u8 = 7;
const MSG_BYE: u8 = 8;
const MSG_FATAL: u8 = 10;

/// A chunk as a link carries it: the reader's [`FlowChunk`], of which
/// only the health scalars are encoded (itemized quarantine events stay
/// with the decoder that saw them; the consumer's runner absorbs only
/// scalars). On the shard link it holds only the flows the shard owns.
pub type LiveChunk = FlowChunk;

impl FlowChunk {
    /// What a consumer decodes from this chunk's `Msg::Chunk`: a copy
    /// without the itemized health events.
    pub fn from_chunk(c: &FlowChunk) -> LiveChunk {
        FlowChunk {
            seq: c.seq,
            byte_start: c.byte_start,
            byte_end: c.byte_end,
            flows: c.flows.clone(),
            health: c.health.scalars(),
        }
    }
}

/// Every message either side of a chunk link can send.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Consumer → sender: identify after connecting.
    Hello {
        /// Must equal [`LINK_PROTO_VERSION`].
        proto_version: u16,
        /// Which of the sender's streams this consumer takes: the shard
        /// id on the shard link, 0 on the live link.
        stream: u32,
    },
    /// Sender → consumer: accept, describing the stream.
    Welcome {
        /// The stream identity the consumer binds its checkpoints to:
        /// [`ChunkedIpfixReader::fingerprint`], on the shard link mixed
        /// with the shard plan.
        fingerprint: u64,
        /// Records per chunk the sender walks with.
        chunk_records: u32,
        /// Target offered rate in records/second (0 = line rate);
        /// informational, echoed into the consumer's session report.
        target_rps: u32,
    },
    /// Consumer → sender: absolute send-window grant. The sender may
    /// send any chunk with `seq < up_to_seq`. Grants are monotonic and
    /// idempotent, so a lost or reordered grant is harmless; re-sent
    /// periodically they double as the consumer's liveness beacon.
    Credit {
        /// One past the highest chunk sequence the sender may send.
        up_to_seq: u64,
    },
    /// Sender → consumer: one stream chunk.
    Chunk(LiveChunk),
    /// Sender → consumer: the stream is exhausted (or a `Stop` was
    /// honored); `next_seq` is one past the last chunk sent, so the
    /// consumer can detect missing frames and ask to resume.
    Finish {
        /// One past the last chunk sequence.
        next_seq: u64,
    },
    /// Consumer → sender: stream (or re-stream) from this position —
    /// sent once after the handshake from the consumer's checkpoint,
    /// and again whenever a gap demands go-back-N retransmission.
    Resume {
        /// Byte cursor the next chunk must start at.
        byte_cursor: u64,
        /// Sequence number of the next chunk.
        seq: u64,
    },
    /// Consumer → sender: begin graceful drain. No further credit will
    /// be granted; the sender replies `Finish` and waits for `Bye`.
    Stop,
    /// Consumer → sender: the session is over; disconnect.
    Bye,
    /// Either side: unrecoverable failure (`FATAL_*` code).
    Fatal {
        /// One of the `FATAL_*` codes.
        code: u16,
        /// Human-readable detail.
        detail: String,
    },
}

impl Msg {
    /// Encode into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Msg::Hello {
                proto_version,
                stream,
            } => {
                out.push(MSG_HELLO);
                put_u16(&mut out, *proto_version);
                put_u32(&mut out, *stream);
            }
            Msg::Welcome {
                fingerprint,
                chunk_records,
                target_rps,
            } => {
                out.push(MSG_WELCOME);
                put_u64(&mut out, *fingerprint);
                put_u32(&mut out, *chunk_records);
                put_u32(&mut out, *target_rps);
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
                stream: r.u32()?,
            },
            MSG_WELCOME => Msg::Welcome {
                fingerprint: r.u64()?,
                chunk_records: r.u32()?,
                target_rps: r.u32()?,
            },
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

/// The consumer's half of the handshake: ask for `stream`, then wait up
/// to `timeout` for the sender's `Welcome` and return its
/// `(fingerprint, chunk_records, target_rps)`.
pub fn open_stream(
    conn: &mut ShardTransport,
    stream: u32,
    timeout: Duration,
) -> io::Result<(u64, u32, u32)> {
    let hello = Msg::Hello {
        proto_version: LINK_PROTO_VERSION,
        stream,
    };
    conn.send(&hello.encode())?;
    let deadline = Instant::now() + timeout;
    loop {
        match await_msg(conn, deadline, "no Welcome before the handshake timeout")? {
            Msg::Welcome {
                fingerprint,
                chunk_records,
                target_rps,
            } => return Ok((fingerprint, chunk_records, target_rps)),
            Msg::Fatal { code, detail } => {
                return Err(io::Error::other(format!(
                    "sender refused the session (code {code}): {detail}"
                )));
            }
            _ => {} // stray pre-handshake frame: ignore
        }
    }
}

/// The sender's half of the handshake: wait up to `timeout` for a
/// consumer's `Hello` and return the stream it asks for (the caller
/// answers `Welcome`). Another protocol version is refused with `Fatal`.
pub fn accept_stream(conn: &mut ShardTransport, timeout: Duration) -> io::Result<u32> {
    let deadline = Instant::now() + timeout;
    loop {
        match await_msg(conn, deadline, "no Hello before the handshake timeout")? {
            Msg::Hello {
                proto_version: LINK_PROTO_VERSION,
                stream,
            } => return Ok(stream),
            Msg::Hello { proto_version, .. } => {
                let detail = format!("unsupported link protocol version {proto_version}");
                let fatal = Msg::Fatal {
                    code: FATAL_IDENTITY,
                    detail: detail.clone(),
                };
                let _ = conn.send(&fatal.encode());
                return Err(io::Error::other(detail));
            }
            _ => {} // noise ahead of the Hello: ignore
        }
    }
}

/// The next decodable message before `deadline`, or `TimedOut(what)`.
fn await_msg(conn: &mut ShardTransport, deadline: Instant, what: &'static str) -> io::Result<Msg> {
    loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(io::Error::new(io::ErrorKind::TimedOut, what));
        }
        if let Some(msg) = conn.recv(remaining)?.as_deref().and_then(Msg::decode) {
            return Ok(msg);
        }
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

    /// The stream identity the producer announces in `Welcome`.
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

/// The live producer's pacing, chaos, and silence knobs.
#[derive(Debug, Clone)]
pub struct LiveProducerConfig {
    /// Target offered rate in records/second; 0 streams at line rate
    /// (credit-bound only).
    pub target_records_per_sec: u32,
    /// The silence bound ([`SendPlan::silence_ms`]): how long a consumer
    /// the producer waits on may stay silent. Bounds every wait.
    pub credit_stall_ms: u64,
    /// Chaos schedule: `(seq, pause_ms)` — hold the release of chunk
    /// `seq` for `pause_ms`, simulating a stalled upstream tap.
    pub pauses: Vec<(u64, u64)>,
}

impl Default for LiveProducerConfig {
    fn default() -> Self {
        LiveProducerConfig {
            target_records_per_sec: 0,
            credit_stall_ms: 10_000,
            pauses: Vec::new(),
        }
    }
}

/// What a [`send_loop`] session accomplished.
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
    /// Whether `Finish` (stream exhausted or `Stop` honored) was the
    /// last thing sent.
    pub finished: bool,
    /// Whether the consumer acknowledged the session end with `Bye`.
    pub acked: bool,
}

/// Why [`send_loop`] returned.
#[derive(Debug)]
pub enum SendEnd<T> {
    /// The consumer said `Bye`.
    Bye,
    /// The consumer sent `Fatal { code, detail }`.
    Fatal(u16, String),
    /// A send or a receive failed.
    Link(io::Error),
    /// The sender's silence rule gave the consumer up.
    Silent,
    /// The shell's handler of other payloads ended the session.
    Shell(T),
}

/// What a [`send_loop`] streams, and the timing its [`ChunkSender`]
/// keeps. The shard coordinator sets only the silence bound.
#[derive(Debug, Clone, Copy, Default)]
pub struct SendPlan<'a> {
    /// The encoded IPFIX-lite trace.
    pub data: &'a [u8],
    /// Records per chunk.
    pub chunk_records: usize,
    /// Paced rate in records/second; 0 is line rate.
    pub records_per_sec: u32,
    /// Chaos schedule: `(seq, pause_ms)` holds chunk `seq` for `pause_ms`.
    pub pauses: &'a [(u64, u64)],
    /// The silence bound ([`ChunkSender::gave_up`]), in milliseconds.
    pub silence_ms: u64,
}

/// The longest one pass of [`send_loop`] waits on its inbound (a frame
/// ends the wait at once): how late it may notice the clock.
const SLICE: Duration = Duration::from_millis(20);

/// How long [`run_live_producer`] waits for the consumer's `Hello`.
const HANDSHAKE: Duration = Duration::from_secs(5);

/// The one send loop, run once the handshake is done: it streams `plan`
/// through the one [`ChunkSender`], whose rules read `now_ns`. Each pass
/// reads the inbound (without waiting while the sender is ready, else
/// for at most one slice), feeds control messages to the sender and then
/// to `seen`, and sends what the sender releases, each chunk through
/// `cut`; after `Finish` it reads on for the consumer's tail. A payload
/// that is no [`Msg`] goes to `other`: `None` (meaningless to the shell
/// too) counts a protocol fault, `Break` ends the session. The loop ends
/// there, on `Bye`, `Fatal`, a link error, or the silence rule.
pub fn send_loop<T>(
    link: &mut ShardTransport,
    plan: SendPlan<'_>,
    now_ns: impl Fn() -> u64,
    mut cut: impl FnMut(FlowChunk) -> FlowChunk,
    mut seen: impl FnMut(&Msg, &ChunkSender<'_>),
    mut other: impl FnMut(&[u8]) -> Option<ControlFlow<T>>,
) -> (SendEnd<T>, LiveProducerStats) {
    let ns = |ms: u64| ms.saturating_mul(1_000_000);
    let mut sender = ChunkSender::new(plan.data, plan.chunk_records, ns(plan.silence_ms))
        .paced(plan.records_per_sec)
        .with_pauses(plan.pauses.iter().map(|&(seq, ms)| (seq, ns(ms))));
    let mut stats = LiveProducerStats::default();
    // The shell's handshake is the last thing heard.
    sender.heard(now_ns());
    let end = loop {
        let now = now_ns();
        if sender.gave_up(now) {
            break SendEnd::Silent;
        }
        let wait = sender
            .wait_ns(now)
            .map_or(SLICE, |ns| SLICE.min(Duration::from_nanos(ns)));
        match link.recv(wait) {
            Ok(Some(payload)) => {
                let now = now_ns();
                match Msg::decode(&payload) {
                    Some(Msg::Bye) => {
                        stats.acked = true;
                        break SendEnd::Bye;
                    }
                    Some(Msg::Fatal { code, detail }) => break SendEnd::Fatal(code, detail),
                    Some(msg) => {
                        let progress = sender.on_msg(&msg, now);
                        stats.resumes_served +=
                            u64::from(progress == Progress::Resumed { first: false });
                        seen(&msg, &sender);
                    }
                    None => {
                        sender.heard(now);
                        match other(&payload) {
                            Some(ControlFlow::Break(end)) => break SendEnd::Shell(end),
                            Some(ControlFlow::Continue(())) => {}
                            None => stats.protocol_faults += 1,
                        }
                    }
                }
            }
            Ok(None) => {}
            Err(e) => break SendEnd::Link(e),
        }
        let sent = match sender.poll_send(now_ns()) {
            Some(Msg::Chunk(chunk)) => {
                stats.chunks_sent += 1;
                stats.records_sent += chunk.flows.len() as u64;
                link.send(&Msg::Chunk(cut(chunk)).encode())
            }
            Some(finish) => link.send(&finish.encode()),
            None => Ok(()),
        };
        if let Err(e) = sent {
            break SendEnd::Link(e);
        }
    };
    stats.finished = sender.finish_sent();
    stats.pauses_taken = sender.pauses_taken();
    (end, stats)
}

/// Stream `scenario` over `transport` until EOF, `Stop`, or a fatal
/// link error. Blocks the calling thread; run it on its own thread (or
/// process) like a real upstream tap.
///
/// Await the consumer's `Hello`, answer `Welcome`, then run the
/// [`send_loop`] with the configured pacing, pauses and silence bound.
/// `Bye` ends the session; so does a lost link or a silent consumer
/// once `Finish` went out (a finished session without the `Bye`).
pub fn run_live_producer(
    transport: &mut ShardTransport,
    scenario: &LiveScenario,
    cfg: &LiveProducerConfig,
) -> io::Result<LiveProducerStats> {
    // The fingerprint pass overlaps the consumer's own start-up.
    let welcome = Msg::Welcome {
        fingerprint: scenario.fingerprint(),
        chunk_records: scenario.chunk_records as u32,
        target_rps: cfg.target_records_per_sec,
    };
    accept_stream(transport, HANDSHAKE)?;
    transport.send(&welcome.encode())?;

    let plan = SendPlan {
        data: &scenario.data,
        chunk_records: scenario.chunk_records,
        records_per_sec: cfg.target_records_per_sec,
        pauses: &cfg.pauses,
        silence_ms: cfg.credit_stall_ms,
    };
    let start = Instant::now();
    let now_ns = || start.elapsed().as_nanos() as u64;
    let no_other = |_: &[u8]| None::<ControlFlow<Infallible>>;
    let (end, stats) = send_loop(transport, plan, now_ns, |c| c, |_, _| {}, no_other);
    match end {
        SendEnd::Bye => Ok(stats),
        SendEnd::Link(_) | SendEnd::Silent if stats.finished => Ok(stats),
        SendEnd::Link(e) => Err(e),
        SendEnd::Silent => Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "the consumer stayed silent past credit_stall_ms",
        )),
        SendEnd::Fatal(code, detail) => Err(io::Error::other(format!(
            "consumer fatal (code {code}): {detail}"
        ))),
        SendEnd::Shell(never) => match never {},
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spoofwatch_net::wire::{frame_encode, FrameReader};
    use spoofwatch_net::{Asn, FlowRecord, IngestHealth, Proto};

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

    const HELLO: Msg = Msg::Hello {
        proto_version: LINK_PROTO_VERSION,
        stream: 0,
    };

    fn roundtrip(msg: Msg) {
        let encoded = msg.encode();
        assert_eq!(Msg::decode(&encoded), Some(msg));
    }

    #[test]
    fn control_messages_roundtrip() {
        roundtrip(Msg::Hello {
            proto_version: LINK_PROTO_VERSION,
            stream: 3,
        });
        roundtrip(Msg::Welcome {
            fingerprint: 0xDEAD_BEEF_0BAD_F00D,
            chunk_records: 64,
            target_rps: 10_000,
        });
        roundtrip(Msg::Credit { up_to_seq: 17 });
        roundtrip(Msg::Finish { next_seq: 77 });
        roundtrip(Msg::Resume {
            byte_cursor: 1_000_000,
            seq: 42,
        });
        roundtrip(Msg::Stop);
        roundtrip(Msg::Bye);
        roundtrip(Msg::Fatal {
            code: FATAL_IDENTITY,
            detail: "fingerprint mismatch".into(),
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

    /// `Msg::Chunk` payload of a two-flow chunk as the per-field
    /// `put_flow`/`put_health` codecs of PR 11 wrote it on both links.
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
        assert_eq!(Msg::Chunk(chunk).encode(), PARENT_CHUNK_PAYLOAD);
        assert_eq!(Msg::Chunk(wire.clone()).encode(), PARENT_CHUNK_PAYLOAD);
        assert_eq!(Msg::decode(&PARENT_CHUNK_PAYLOAD), Some(Msg::Chunk(wire)));

        // The shard frame PR 11 (byte-wise CRC) put around that payload
        // still verifies under the sliced CRC.
        let mut frame = b"SWSD\x00\x01\x00\x00\x00\xb6".to_vec();
        frame.extend_from_slice(&PARENT_CHUNK_PAYLOAD);
        frame.extend_from_slice(&[0xca, 0xfc, 0x48, 0x37]);
        assert_eq!(frame_encode(b"SWSD", &PARENT_CHUNK_PAYLOAD), frame);
        let mut reader = FrameReader::new(*b"SWSD");
        reader.push(&frame);
        assert_eq!(
            reader.next_frame().as_deref(),
            Some(&PARENT_CHUNK_PAYLOAD[..])
        );
        assert_eq!(reader.faults(), 0);
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
        b.send(&HELLO.encode()).unwrap();
        assert_eq!(
            recv_msg(&mut b),
            Msg::Welcome {
                fingerprint,
                chunk_records: 5,
                target_rps: 0,
            }
        );
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
        b.send(&HELLO.encode()).unwrap();
        b.send(&Msg::Resume { byte_cursor: 0, seq: 0 }.encode())
            .unwrap();
        let err = producer.join().unwrap().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }
}
