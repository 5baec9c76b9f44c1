//! Outside-in instrumentation for the traced round: a `ChunkSource`
//! wrapper that times `next_chunk` in situ, a classify closure timer,
//! and link taps built from `ShardTransport::split`/`from_halves`.
//! Nothing here runs in an untraced round.

use spoofwatch_core::ChunkSource;
use spoofwatch_ixp::chunked::{ChunkedIpfixReader, FlowChunk};
use spoofwatch_net::wire::{ShardEndpoint, ShardTransport, ShardTx, HEADER_LEN, TRAILER_LEN};
use spoofwatch_net::InProcHub;
use std::cell::Cell;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A nanosecond accumulator shared across threads. `Relaxed`: it is a
/// statistic read after every writer has been joined.
#[derive(Debug, Default)]
pub struct BusyNs(AtomicU64);

impl BusyNs {
    pub fn add_since(&self, t0: Instant) {
        self.0
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Times the feeder's calls into the reader where they happen.
pub struct TimedSource<'a> {
    inner: ChunkedIpfixReader<'a>,
    fingerprint_ns: Cell<u64>,
    next_chunk_ns: u64,
}

impl<'a> TimedSource<'a> {
    pub fn new(inner: ChunkedIpfixReader<'a>) -> Self {
        TimedSource {
            inner,
            fingerprint_ns: Cell::new(0),
            next_chunk_ns: 0,
        }
    }

    pub fn fingerprint_ns(&self) -> u64 {
        self.fingerprint_ns.get()
    }

    pub fn next_chunk_ns(&self) -> u64 {
        self.next_chunk_ns
    }
}

impl ChunkSource for TimedSource<'_> {
    fn fingerprint(&self) -> u64 {
        let t0 = Instant::now();
        let fp = self.inner.fingerprint();
        self.fingerprint_ns
            .set(self.fingerprint_ns.get() + t0.elapsed().as_nanos() as u64);
        fp
    }

    fn seek(&mut self, byte_cursor: u64, seq: u64) {
        self.inner.seek(byte_cursor, seq);
    }

    fn next_chunk(&mut self) -> Option<FlowChunk> {
        let t0 = Instant::now();
        let chunk = self.inner.next_chunk();
        self.next_chunk_ns += t0.elapsed().as_nanos() as u64;
        chunk
    }
}

/// Traffic seen by the taps of one run, both directions of every link.
#[derive(Debug, Default)]
pub struct LinkStats {
    /// Framed bytes sent (payload + header + CRC trailer).
    pub bytes: AtomicU64,
    pub frames: AtomicU64,
    /// Time spent inside `send` on the data direction (coordinator →
    /// shard, producer → consumer): frame encoding plus any wait for a
    /// slot in the bounded link.
    pub data_send_ns: BusyNs,
}

struct TapTx {
    inner: Box<dyn ShardTx>,
    stats: Arc<LinkStats>,
    data_direction: bool,
}

impl ShardTx for TapTx {
    fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        let t0 = Instant::now();
        let sent = self.inner.send(payload);
        if self.data_direction {
            self.stats.data_send_ns.add_since(t0);
        }
        self.stats.frames.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes.fetch_add(
            (payload.len() + HEADER_LEN + TRAILER_LEN) as u64,
            Ordering::Relaxed,
        );
        sent
    }
}

/// Interpose a tap on the sending half of `transport` (every frame is
/// sent by exactly one end, so tapping both ends' senders sees both
/// directions once). `sends_data` marks the end whose sends carry
/// chunks.
pub fn tap(transport: ShardTransport, stats: &Arc<LinkStats>, sends_data: bool) -> ShardTransport {
    let (tx, rx) = transport.split();
    ShardTransport::from_halves(
        Box::new(TapTx {
            inner: tx,
            stats: Arc::clone(stats),
            data_direction: sends_data,
        }),
        rx,
    )
}

/// An `InProcHub` whose accepted (coordinator-side) transports are
/// tapped.
pub struct TappedHub<'h> {
    pub hub: &'h InProcHub,
    pub stats: Arc<LinkStats>,
}

impl ShardEndpoint for TappedHub<'_> {
    fn accept(&self, timeout: Duration) -> io::Result<Option<ShardTransport>> {
        Ok(self.hub.accept(timeout)?.map(|t| tap(t, &self.stats, true)))
    }
}
