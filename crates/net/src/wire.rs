//! Length-framed, CRC-protected wire codec and shard-link transports.
//!
//! This module promotes the checkpoint file envelope (PR 2) to a wire
//! format: every message travelling between a study coordinator and its
//! shard workers is wrapped in the same frame the checkpoint store
//! already trusts on disk:
//!
//! ```text
//! frame := magic [u8; 4] | version u16 | payload_len u32 | payload | crc32(payload) u32
//! ```
//!
//! All integers are big-endian. On top of the envelope sit three layers:
//!
//! * [`frame_encode`] / [`frame_decode`] — the whole-buffer codec the
//!   checkpoint store delegates to (one frame per file);
//! * [`FrameReader`] — an incremental decoder for byte *streams*, which
//!   resynchronizes after torn, truncated, or bit-flipped frames by
//!   scanning forward to the next magic, mirroring the PR 1 record
//!   decoder guarantee: every undamaged frame after a corrupt one is
//!   recovered;
//! * [`ShardTx`] / [`ShardRx`] / [`ShardTransport`] — the pluggable
//!   transport seam (in-process channel, Unix domain socket, TCP) plus
//!   [`ShardEndpoint`] listeners for accepting shard connections.
//!
//! The transports carry opaque payloads; message semantics live with the
//! caller (`spoofwatch-core`'s shard protocol). Faults never panic and
//! never desynchronize the reader permanently: each resync episode is
//! counted via [`FrameReader::faults`] so the control plane can export
//! frame-fault telemetry.

use crate::crc32;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Wire format version carried in every frame header.
pub const WIRE_VERSION: u16 = 1;
/// Fixed header length: magic (4) + version (2) + payload_len (4).
pub const HEADER_LEN: usize = 10;
/// Trailing CRC length.
pub const TRAILER_LEN: usize = 4;
/// Default cap on a single frame's declared payload length. A corrupt
/// length field must not make the reader buffer unbounded garbage
/// waiting for a frame that will never complete.
pub const DEFAULT_MAX_FRAME: usize = 1 << 22; // 4 MiB

/// Default kernel write timeout on socket transports. [`TimedRead`]
/// bounds the receive side, but a `send` to a wedged peer whose socket
/// buffer is full would otherwise block forever inside `write_all`;
/// with this timeout the blocked write surfaces as an error and the
/// caller treats the link as down, exactly like a severed read.
pub const DEFAULT_WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Why a frame failed to decode. Mirrors the checkpoint store's error
/// taxonomy so the two layers stay in sync.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Buffer shorter than the fixed header plus trailer.
    TooShort,
    /// Magic mismatch — not a frame (or a torn header).
    BadMagic,
    /// Unsupported wire version.
    BadVersion(u16),
    /// Declared payload length disagrees with the buffer size.
    LengthMismatch {
        /// Length the header declared.
        declared: u64,
        /// Bytes actually available for the payload.
        available: u64,
    },
    /// Payload checksum mismatch (bit flips or a torn tail).
    BadCrc,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooShort => f.write_str("frame shorter than header"),
            FrameError::BadMagic => f.write_str("bad frame magic"),
            FrameError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            FrameError::LengthMismatch {
                declared,
                available,
            } => write!(f, "length mismatch: declared {declared}, available {available}"),
            FrameError::BadCrc => f.write_str("frame CRC mismatch"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Wrap `payload` in the shared length-framed, CRC-protected envelope.
pub fn frame_encode(magic: &[u8; 4], payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    out.extend_from_slice(magic);
    out.extend_from_slice(&WIRE_VERSION.to_be_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_be_bytes());
    out
}

/// Unwrap and verify a framed envelope occupying the *entire* buffer,
/// returning the payload slice. Every failure mode a torn or
/// bit-flipped buffer can produce maps to a [`FrameError`]; never
/// panics on arbitrary bytes.
pub fn frame_decode<'a>(magic: &[u8; 4], data: &'a [u8]) -> Result<&'a [u8], FrameError> {
    if data.len() < HEADER_LEN + TRAILER_LEN {
        return Err(FrameError::TooShort);
    }
    if &data[..4] != magic {
        return Err(FrameError::BadMagic);
    }
    let version = u16::from_be_bytes([data[4], data[5]]);
    if version != WIRE_VERSION {
        return Err(FrameError::BadVersion(version));
    }
    let declared = u32::from_be_bytes([data[6], data[7], data[8], data[9]]) as u64;
    let available = (data.len() - HEADER_LEN - TRAILER_LEN) as u64;
    if declared != available {
        return Err(FrameError::LengthMismatch {
            declared,
            available,
        });
    }
    let payload = &data[HEADER_LEN..HEADER_LEN + declared as usize];
    let crc_bytes = &data[HEADER_LEN + declared as usize..];
    let want = u32::from_be_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
    if crc32(payload) != want {
        return Err(FrameError::BadCrc);
    }
    Ok(payload)
}

/// Incremental frame decoder with resynchronization.
///
/// Bytes arrive in arbitrary slices via [`FrameReader::push`]; complete,
/// CRC-verified payloads pop out of [`FrameReader::next_frame`]. On any
/// damage — garbage between frames, a corrupt header, a bad CRC, an
/// implausible length — the reader advances one byte past the failed
/// candidate and rescans for the magic, so a single corrupt frame can
/// never swallow the frames after it. Damage is counted per resync
/// *episode* (a burst of adjacent garbage counts once), exposed via
/// [`FrameReader::faults`].
///
/// Consumed bytes are stepped over with a read cursor and dropped at
/// most once per `push`, so a read that coalesces many small frames
/// costs one compaction, not one per frame. A frame that ends the
/// buffer is returned *in* that buffer (header and trailer trimmed off)
/// instead of being copied out of it.
///
/// Call [`FrameReader::finish`] at end of stream: a pending partial
/// frame can then never complete, so it is drained as a fault instead of
/// waiting forever (and any complete frames embedded past the damage are
/// still recovered).
#[derive(Debug)]
pub struct FrameReader {
    magic: [u8; 4],
    buf: Vec<u8>,
    /// Read cursor: `buf[..pos]` is consumed, `buf[pos..]` pending.
    pos: usize,
    faults: u64,
    skipped_bytes: u64,
    finished: bool,
    resyncing: bool,
}

impl FrameReader {
    /// A reader expecting frames with `magic`, capped at
    /// [`DEFAULT_MAX_FRAME`].
    pub fn new(magic: [u8; 4]) -> Self {
        FrameReader {
            magic,
            buf: Vec::new(),
            pos: 0,
            faults: 0,
            skipped_bytes: 0,
            finished: false,
            resyncing: false,
        }
    }

    /// Append raw stream bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.pos);
        self.pos = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Append raw stream bytes the caller already owns. With nothing
    /// pending the reader adopts `bytes` as its buffer instead of
    /// copying it in.
    pub fn push_vec(&mut self, bytes: Vec<u8>) {
        if self.pos == self.buf.len() {
            self.buf = bytes;
            self.pos = 0;
        } else {
            self.push(&bytes);
        }
    }

    /// Mark end of stream: incomplete candidates become faults instead
    /// of pending state.
    pub fn finish(&mut self) {
        self.finished = true;
    }

    /// Resync episodes observed so far.
    pub fn faults(&self) -> u64 {
        self.faults
    }

    /// Total bytes discarded while resynchronizing.
    pub fn skipped_bytes(&self) -> u64 {
        self.skipped_bytes
    }

    /// Bytes buffered but not yet decoded.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Step over `n` pending bytes of damage, counting the episode once.
    fn skip_damage(&mut self, n: usize) {
        if !self.resyncing {
            self.resyncing = true;
            self.faults += 1;
        }
        self.pos += n;
        self.skipped_bytes += n as u64;
    }

    /// Decode the next complete frame, or `None` if more bytes are
    /// needed (or the stream is exhausted).
    pub fn next_frame(&mut self) -> Option<Vec<u8>> {
        loop {
            let pending = &self.buf[self.pos..];
            // Align the cursor to the next magic.
            match pending.windows(4).position(|w| w == self.magic) {
                Some(0) => {}
                Some(i) => {
                    self.skip_damage(i);
                    continue;
                }
                None => {
                    // No magic anywhere. Keep up to 3 tail bytes that
                    // could be a magic prefix split across pushes.
                    let keep = if self.finished { 0 } else { pending.len().min(3) };
                    if pending.len() > keep {
                        let n = pending.len() - keep;
                        self.skip_damage(n);
                    }
                    return None;
                }
            }
            // The cursor sits on a magic: examine the candidate.
            let mut total = None;
            if pending.len() >= HEADER_LEN {
                let version = u16::from_be_bytes([pending[4], pending[5]]);
                let declared =
                    u32::from_be_bytes([pending[6], pending[7], pending[8], pending[9]]) as usize;
                if version != WIRE_VERSION || declared > DEFAULT_MAX_FRAME {
                    self.skip_damage(1);
                    continue;
                }
                total = Some(HEADER_LEN + declared + TRAILER_LEN);
            }
            let total = match total {
                Some(total) if pending.len() >= total => total,
                incomplete => {
                    if self.finished {
                        // A candidate that can never complete.
                        self.skip_damage(1);
                        continue;
                    }
                    if let Some(total) = incomplete {
                        // The header says how much is coming: grow once,
                        // not by doubling as the reads arrive.
                        let missing = total - pending.len();
                        self.buf.reserve(missing);
                    }
                    return None;
                }
            };
            let crc_at = total - TRAILER_LEN;
            let want = u32::from_be_bytes([
                pending[crc_at],
                pending[crc_at + 1],
                pending[crc_at + 2],
                pending[crc_at + 3],
            ]);
            if crc32(&pending[HEADER_LEN..crc_at]) != want {
                // Could be a bit flip inside this frame, or garbage that
                // happens to start with the magic. Either way: advance
                // one byte and rescan; any intact frame behind the
                // damage is found by the scan.
                self.skip_damage(1);
                continue;
            }
            self.resyncing = false;
            let start = self.pos + HEADER_LEN;
            let end = self.pos + crc_at;
            self.pos += total;
            if self.pos < self.buf.len() {
                return Some(self.buf[start..end].to_vec());
            }
            // The frame ends the buffer: hand the buffer itself over.
            let mut frame = std::mem::take(&mut self.buf);
            self.pos = 0;
            frame.truncate(end);
            frame.drain(..start);
            return Some(frame);
        }
    }
}

/// Sending half of a shard link: wraps each payload in a frame and
/// writes it to the peer. Implementations must be safe to move to the
/// thread that owns the link.
pub trait ShardTx: Send {
    /// Frame and transmit one payload. An error means the link is down.
    fn send(&mut self, payload: &[u8]) -> io::Result<()>;
}

/// Receiving half of a shard link: reassembles the byte stream through a
/// [`FrameReader`], surfacing one verified payload at a time.
pub trait ShardRx: Send {
    /// Wait up to `timeout` for the next intact frame. `Ok(None)` means
    /// the timeout elapsed with the link still healthy; `Err` means the
    /// peer is gone (after any already-buffered frames have drained).
    fn recv(&mut self, timeout: Duration) -> io::Result<Option<Vec<u8>>>;

    /// Frame-level faults (resync episodes) observed on this link.
    fn wire_faults(&self) -> u64;
}

/// One bidirectional shard link behind the pluggable transport seam:
/// a matched [`ShardTx`]/[`ShardRx`] pair over an in-process channel, a
/// Unix domain socket, or TCP. Split it to wrap or replace one half
/// (link taps and fault-injecting tests do).
pub struct ShardTransport {
    tx: Box<dyn ShardTx>,
    rx: Box<dyn ShardRx>,
}

impl std::fmt::Debug for ShardTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardTransport").finish_non_exhaustive()
    }
}

impl ShardTransport {
    /// Assemble a transport from custom halves (used by chaos tests to
    /// interpose corrupting links).
    pub fn from_halves(tx: Box<dyn ShardTx>, rx: Box<dyn ShardRx>) -> Self {
        ShardTransport { tx, rx }
    }

    /// Frame and transmit one payload.
    pub fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        self.tx.send(payload)
    }

    /// Wait up to `timeout` for the next intact frame.
    pub fn recv(&mut self, timeout: Duration) -> io::Result<Option<Vec<u8>>> {
        self.rx.recv(timeout)
    }

    /// Frame-level faults observed on the receive half.
    pub fn wire_faults(&self) -> u64 {
        self.rx.wire_faults()
    }

    /// Split into independently owned halves.
    pub fn split(self) -> (Box<dyn ShardTx>, Box<dyn ShardRx>) {
        (self.tx, self.rx)
    }

    /// A connected pair of in-process transports (coordinator side,
    /// worker side) carrying frames over bounded channels of `depth`
    /// buffers. The bytes still round-trip through the full frame codec
    /// so in-process runs exercise the same decode path as sockets.
    pub fn channel_pair(magic: [u8; 4], depth: usize) -> (Self, Self) {
        let (a_tx, b_rx) = mpsc::sync_channel::<Vec<u8>>(depth);
        let (b_tx, a_rx) = mpsc::sync_channel::<Vec<u8>>(depth);
        (
            Self::from_channel(magic, a_tx, a_rx),
            Self::from_channel(magic, b_tx, b_rx),
        )
    }

    /// A transport over explicit byte-buffer channels. Chaos tests use
    /// this to route the stream through a corrupting forwarder thread.
    pub fn from_channel(
        magic: [u8; 4],
        tx: SyncSender<Vec<u8>>,
        rx: Receiver<Vec<u8>>,
    ) -> Self {
        ShardTransport {
            tx: Box::new(ChannelTx { magic, tx }),
            rx: Box::new(ChannelRx {
                rx,
                reader: FrameReader::new(magic),
                disconnected: false,
            }),
        }
    }

    /// A transport over a connected Unix domain socket. Writes are
    /// bounded by [`DEFAULT_WRITE_TIMEOUT`] so a wedged peer with a
    /// full socket buffer cannot block `send` forever.
    #[cfg(unix)]
    pub fn from_unix(stream: UnixStream, magic: [u8; 4]) -> io::Result<Self> {
        Self::from_unix_with_write_timeout(stream, magic, Some(DEFAULT_WRITE_TIMEOUT))
    }

    /// [`Self::from_unix`] with an explicit write timeout (`None`
    /// restores the unbounded pre-timeout behaviour).
    #[cfg(unix)]
    pub fn from_unix_with_write_timeout(
        stream: UnixStream,
        magic: [u8; 4],
        write_timeout: Option<Duration>,
    ) -> io::Result<Self> {
        let write_half = stream.try_clone()?;
        write_half.set_write_timeout(write_timeout)?;
        Ok(ShardTransport {
            tx: Box::new(SocketTx {
                magic,
                w: write_half,
            }),
            rx: Box::new(SocketRx {
                r: stream,
                reader: FrameReader::new(magic),
                disconnected: false,
            }),
        })
    }

    /// A transport over a connected TCP socket (`TCP_NODELAY` is set:
    /// the control plane sends many small frames). Writes are bounded
    /// by [`DEFAULT_WRITE_TIMEOUT`] so a wedged peer with a full socket
    /// buffer cannot block `send` forever.
    pub fn from_tcp(stream: TcpStream, magic: [u8; 4]) -> io::Result<Self> {
        Self::from_tcp_with_write_timeout(stream, magic, Some(DEFAULT_WRITE_TIMEOUT))
    }

    /// [`Self::from_tcp`] with an explicit write timeout (`None`
    /// restores the unbounded pre-timeout behaviour).
    pub fn from_tcp_with_write_timeout(
        stream: TcpStream,
        magic: [u8; 4],
        write_timeout: Option<Duration>,
    ) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        let write_half = stream.try_clone()?;
        write_half.set_write_timeout(write_timeout)?;
        Ok(ShardTransport {
            tx: Box::new(SocketTx {
                magic,
                w: write_half,
            }),
            rx: Box::new(SocketRx {
                r: stream,
                reader: FrameReader::new(magic),
                disconnected: false,
            }),
        })
    }
}

struct ChannelTx {
    magic: [u8; 4],
    tx: SyncSender<Vec<u8>>,
}

impl ShardTx for ChannelTx {
    fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        self.tx
            .send(frame_encode(&self.magic, payload))
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "peer disconnected"))
    }
}

struct ChannelRx {
    rx: Receiver<Vec<u8>>,
    reader: FrameReader,
    disconnected: bool,
}

impl ShardRx for ChannelRx {
    fn recv(&mut self, timeout: Duration) -> io::Result<Option<Vec<u8>>> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(frame) = self.reader.next_frame() {
                return Ok(Some(frame));
            }
            if self.disconnected {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer disconnected",
                ));
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            match self.rx.recv_timeout(remaining) {
                Ok(bytes) => self.reader.push_vec(bytes),
                Err(RecvTimeoutError::Timeout) => return Ok(None),
                Err(RecvTimeoutError::Disconnected) => {
                    // Drain any frames already buffered before erroring.
                    self.disconnected = true;
                    self.reader.finish();
                }
            }
        }
    }

    fn wire_faults(&self) -> u64 {
        self.reader.faults()
    }
}

/// A readable stream with a kernel-level read timeout — the socket seam
/// shared by Unix domain and TCP transports.
pub trait TimedRead: Read + Send {
    /// Set the blocking-read timeout (see `TcpStream::set_read_timeout`).
    fn set_timeout(&self, dur: Option<Duration>) -> io::Result<()>;

    /// Switch non-blocking mode (see `TcpStream::set_nonblocking`).
    fn set_nonblocking(&self, on: bool) -> io::Result<()>;
}

#[cfg(unix)]
impl TimedRead for UnixStream {
    fn set_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(dur)
    }

    fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        UnixStream::set_nonblocking(self, on)
    }
}

impl TimedRead for TcpStream {
    fn set_timeout(&self, dur: Option<Duration>) -> io::Result<()> {
        self.set_read_timeout(dur)
    }

    fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        TcpStream::set_nonblocking(self, on)
    }
}

struct SocketTx<W: Write + Send> {
    magic: [u8; 4],
    w: W,
}

impl<W: Write + Send> ShardTx for SocketTx<W> {
    fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        self.w.write_all(&frame_encode(&self.magic, payload))?;
        self.w.flush()
    }
}

struct SocketRx<R: TimedRead> {
    r: R,
    reader: FrameReader,
    disconnected: bool,
}

impl<R: TimedRead> ShardRx for SocketRx<R> {
    fn recv(&mut self, timeout: Duration) -> io::Result<Option<Vec<u8>>> {
        let deadline = Instant::now() + timeout;
        let mut buf = [0u8; 8192];
        loop {
            if let Some(frame) = self.reader.next_frame() {
                return Ok(Some(frame));
            }
            if self.disconnected {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "peer disconnected",
                ));
            }
            let read = if timeout.is_zero() {
                // A zero timeout takes what the kernel already holds and
                // stops at `WouldBlock`. The write half shares this
                // socket's blocking mode, so it is restored at once.
                self.r.set_nonblocking(true)?;
                let read = self.r.read(&mut buf);
                self.r.set_nonblocking(false)?;
                read
            } else {
                let now = Instant::now();
                if now >= deadline {
                    return Ok(None);
                }
                // A zero read timeout means "block forever" to the
                // kernel; clamp to 1 ms.
                let wait = deadline.duration_since(now).max(Duration::from_millis(1));
                self.r.set_timeout(Some(wait))?;
                self.r.read(&mut buf)
            };
            match read {
                Ok(0) => {
                    self.disconnected = true;
                    self.reader.finish();
                }
                Ok(n) => self.reader.push(&buf[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(None);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.disconnected = true;
                    self.reader.finish();
                }
            }
        }
    }

    fn wire_faults(&self) -> u64 {
        self.reader.faults()
    }
}

/// A listener the coordinator polls for inbound shard connections.
pub trait ShardEndpoint: Send + Sync {
    /// Wait up to `timeout` for one inbound connection.
    fn accept(&self, timeout: Duration) -> io::Result<Option<ShardTransport>>;
}

/// In-process "listener": workers running as threads connect through a
/// shared hub, getting a channel-backed [`ShardTransport`] pair.
pub struct InProcHub {
    magic: [u8; 4],
    depth: usize,
    pending_tx: Mutex<mpsc::Sender<ShardTransport>>,
    pending_rx: Mutex<Receiver<ShardTransport>>,
}

impl InProcHub {
    /// A hub issuing channel transports with `depth` buffered frames per
    /// direction.
    pub fn new(magic: [u8; 4], depth: usize) -> Self {
        let (tx, rx) = mpsc::channel();
        InProcHub {
            magic,
            depth,
            pending_tx: Mutex::new(tx),
            pending_rx: Mutex::new(rx),
        }
    }

    /// Connect as a worker, handing the server half to whoever is
    /// accepting.
    pub fn connect(&self) -> io::Result<ShardTransport> {
        let (server, client) = ShardTransport::channel_pair(self.magic, self.depth);
        let tx = self
            .pending_tx
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        tx.send(server)
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "hub closed"))?;
        Ok(client)
    }
}

impl ShardEndpoint for InProcHub {
    fn accept(&self, timeout: Duration) -> io::Result<Option<ShardTransport>> {
        let rx = self
            .pending_rx
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        match rx.recv_timeout(timeout) {
            Ok(conn) => Ok(Some(conn)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "hub closed",
            )),
        }
    }
}

/// How long socket endpoints sleep between accept polls.
const ACCEPT_POLL: Duration = Duration::from_millis(2);

/// Unix-domain-socket listener for same-host multi-process studies.
#[cfg(unix)]
pub struct UdsEndpoint {
    listener: UnixListener,
    magic: [u8; 4],
}

#[cfg(unix)]
impl UdsEndpoint {
    /// Bind a listener at `path` (the file must not already exist).
    pub fn bind<P: AsRef<Path>>(path: P, magic: [u8; 4]) -> io::Result<Self> {
        let listener = UnixListener::bind(path)?;
        listener.set_nonblocking(true)?;
        Ok(UdsEndpoint { listener, magic })
    }

    /// Connect to a coordinator listening at `path` (worker side).
    pub fn connect<P: AsRef<Path>>(path: P, magic: [u8; 4]) -> io::Result<ShardTransport> {
        ShardTransport::from_unix(UnixStream::connect(path)?, magic)
    }
}

#[cfg(unix)]
impl ShardEndpoint for UdsEndpoint {
    fn accept(&self, timeout: Duration) -> io::Result<Option<ShardTransport>> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    return ShardTransport::from_unix(stream, self.magic).map(Some);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Ok(None);
                    }
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// TCP listener for multi-host studies.
pub struct TcpEndpoint {
    listener: TcpListener,
    magic: [u8; 4],
}

impl TcpEndpoint {
    /// Bind a listener at `addr` (e.g. `"127.0.0.1:0"`).
    pub fn bind(addr: &str, magic: [u8; 4]) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        Ok(TcpEndpoint { listener, magic })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Connect to a coordinator listening at `addr` (worker side).
    pub fn connect(addr: &str, magic: [u8; 4]) -> io::Result<ShardTransport> {
        ShardTransport::from_tcp(TcpStream::connect(addr)?, magic)
    }
}

impl ShardEndpoint for TcpEndpoint {
    fn accept(&self, timeout: Duration) -> io::Result<Option<ShardTransport>> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    return ShardTransport::from_tcp(stream, self.magic).map(Some);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Ok(None);
                    }
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WireFaultInjector;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    const MAGIC: [u8; 4] = *b"TSTW";

    /// The reader this module shipped before the read cursor: it
    /// `drain`s the buffer on every skip and every frame and copies
    /// each payload out. Kept as the behavioural oracle for
    /// [`FrameReader`].
    struct DrainingReader {
        buf: Vec<u8>,
        faults: u64,
        skipped_bytes: u64,
        finished: bool,
        resyncing: bool,
    }

    impl DrainingReader {
        fn new() -> Self {
            DrainingReader {
                buf: Vec::new(),
                faults: 0,
                skipped_bytes: 0,
                finished: false,
                resyncing: false,
            }
        }

        fn push(&mut self, bytes: &[u8]) {
            self.buf.extend_from_slice(bytes);
        }

        fn note_fault(&mut self) {
            if !self.resyncing {
                self.resyncing = true;
                self.faults += 1;
            }
        }

        fn skip(&mut self, n: usize) {
            let n = n.min(self.buf.len());
            self.buf.drain(..n);
            self.skipped_bytes += n as u64;
        }

        fn find_magic(&self, from: usize) -> Option<usize> {
            if self.buf.len() < 4 {
                return None;
            }
            (from..=self.buf.len() - 4).find(|&i| self.buf[i..i + 4] == MAGIC)
        }

        fn next_frame(&mut self) -> Option<Vec<u8>> {
            loop {
                match self.find_magic(0) {
                    Some(0) => {}
                    Some(i) => {
                        self.note_fault();
                        self.skip(i);
                    }
                    None => {
                        let keep = if self.finished { 0 } else { self.buf.len().min(3) };
                        if self.buf.len() > keep {
                            self.note_fault();
                            let n = self.buf.len() - keep;
                            self.skip(n);
                        }
                        return None;
                    }
                }
                if self.buf.len() < HEADER_LEN {
                    if !self.finished {
                        return None;
                    }
                    self.note_fault();
                    self.skip(1);
                    continue;
                }
                let version = u16::from_be_bytes([self.buf[4], self.buf[5]]);
                let declared =
                    u32::from_be_bytes([self.buf[6], self.buf[7], self.buf[8], self.buf[9]])
                        as usize;
                if version != WIRE_VERSION || declared > DEFAULT_MAX_FRAME {
                    self.note_fault();
                    self.skip(1);
                    continue;
                }
                let total = HEADER_LEN + declared + TRAILER_LEN;
                if self.buf.len() < total {
                    if !self.finished {
                        return None;
                    }
                    self.note_fault();
                    self.skip(1);
                    continue;
                }
                let payload = &self.buf[HEADER_LEN..HEADER_LEN + declared];
                let crc_at = HEADER_LEN + declared;
                let want = u32::from_be_bytes([
                    self.buf[crc_at],
                    self.buf[crc_at + 1],
                    self.buf[crc_at + 2],
                    self.buf[crc_at + 3],
                ]);
                if crc32(payload) != want {
                    self.note_fault();
                    self.skip(1);
                    continue;
                }
                let frame = payload.to_vec();
                self.buf.drain(..total);
                self.resyncing = false;
                return Some(frame);
            }
        }
    }

    /// Frames, `faults()` and `skipped_bytes()` after feeding `pieces`
    /// (polling after every push) and finishing the stream.
    type Outcome = (Vec<Vec<u8>>, u64, u64);

    fn drive_oracle(pieces: &[Vec<u8>]) -> Outcome {
        let mut reader = DrainingReader::new();
        let mut got = Vec::new();
        for piece in pieces {
            reader.push(piece);
            while let Some(f) = reader.next_frame() {
                got.push(f);
            }
        }
        reader.finished = true;
        while let Some(f) = reader.next_frame() {
            got.push(f);
        }
        (got, reader.faults, reader.skipped_bytes)
    }

    fn drive_reader(pieces: &[Vec<u8>], owned: bool) -> Outcome {
        let mut reader = FrameReader::new(MAGIC);
        let mut got = Vec::new();
        for piece in pieces {
            if owned {
                reader.push_vec(piece.clone());
            } else {
                reader.push(piece);
            }
            while let Some(f) = reader.next_frame() {
                got.push(f);
            }
        }
        reader.finish();
        while let Some(f) = reader.next_frame() {
            got.push(f);
        }
        assert_eq!(reader.pending_bytes(), 0);
        (got, reader.faults(), reader.skipped_bytes())
    }

    /// Seeded sequences of 1..=50 frames, 0 B to 200 KiB each, damaged
    /// by flips, torn tails and inter-frame garbage: under every
    /// re-segmentation the cursor reader yields exactly what the
    /// draining reader yields — frames, fault episodes, skipped bytes.
    #[test]
    fn cursor_reader_matches_draining_reader_under_faults_and_resegmentation() {
        const BIG: usize = 200 * 1024;
        for seed in 0..25u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 1 + (seed as usize * 7) % 50;
            let mut sizes: Vec<usize> = (0..n)
                .map(|_| match rng.random_range(0..16u32) {
                    0 => 0,
                    // 1-byte pushes of a large frame are slow in a debug
                    // build: one seed in eight carries them.
                    1 if seed % 8 == 1 => rng.random_range(100_000..=BIG),
                    _ => rng.random_range(0..600),
                })
                .collect();
            match seed {
                0 => sizes[0] = 0,
                1 => sizes[0] = BIG,
                _ => {}
            }
            let mut frames: Vec<Vec<u8>> = sizes
                .iter()
                .map(|&len| {
                    let payload: Vec<u8> = (0..len).map(|_| rng.random()).collect();
                    frame_encode(&MAGIC, &payload)
                })
                .collect();
            let mut inj = WireFaultInjector::new(seed);
            // Seeds divisible by 4 stay clean.
            for _ in 0..seed % 4 {
                inj.flip_in_frame(&mut frames);
                inj.tear_frame(&mut frames);
                inj.insert_wire_garbage(&mut frames, 64);
            }
            let stream = frames.concat();
            let drip: Vec<Vec<u8>> = stream.iter().map(|&b| vec![b]).collect();
            let cut = inj.segment(&stream, 8192);
            let coalesced = vec![stream];

            let want = drive_oracle(&coalesced);
            if seed % 4 == 0 {
                assert_eq!((want.0.len(), want.1, want.2), (n, 0, 0), "seed {seed}");
            }
            for (name, pieces) in [
                ("1-byte pushes", &drip),
                ("one push per frame", &frames),
                ("random cuts", &cut),
                ("coalesced", &coalesced),
            ] {
                assert!(drive_oracle(pieces) == want, "seed {seed}: oracle, {name}");
                for owned in [false, true] {
                    assert!(
                        drive_reader(pieces, owned) == want,
                        "seed {seed}: {name}, owned {owned}"
                    );
                }
            }
        }
    }

    /// A frame that ends the buffer comes back in the buffer it arrived
    /// in: no second allocation on the in-process path.
    #[test]
    fn tail_frame_reuses_the_pushed_allocation() {
        let framed = frame_encode(&MAGIC, &[7u8; 4096]);
        let arrived = framed.as_ptr();
        let mut reader = FrameReader::new(MAGIC);
        reader.push_vec(framed);
        let payload = reader.next_frame().expect("one frame");
        assert_eq!(payload, vec![7u8; 4096]);
        assert_eq!(payload.as_ptr(), arrived);
        assert_eq!(reader.pending_bytes(), 0);
    }

    /// Many small frames in one push cost one compaction, not one
    /// `drain` of the whole buffer per frame.
    #[test]
    fn coalesced_small_frames_decode_in_linear_time() {
        let frames = 200_000;
        let one = frame_encode(&MAGIC, b"beat");
        let stream: Vec<u8> = one.iter().copied().cycle().take(one.len() * frames).collect();
        let mut reader = FrameReader::new(MAGIC);
        let t0 = Instant::now();
        reader.push(&stream);
        let mut got = 0;
        while reader.next_frame().is_some() {
            got += 1;
        }
        assert_eq!(got, frames);
        // The draining reader moved ~360 GB here; the cursor moves none.
        assert!(t0.elapsed() < Duration::from_secs(5), "took {:?}", t0.elapsed());
    }

    fn payloads(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                let len = 5 + (i * 7) % 40;
                (0..len).map(|j| ((i * 31 + j * 3) % 251) as u8).collect()
            })
            .collect()
    }

    fn stream_of(frames: &[Vec<u8>]) -> Vec<u8> {
        let mut out = Vec::new();
        for p in frames {
            out.extend_from_slice(&frame_encode(&MAGIC, p));
        }
        out
    }

    #[test]
    fn frame_roundtrip() {
        let payload = b"hello shard".to_vec();
        let framed = frame_encode(&MAGIC, &payload);
        assert_eq!(frame_decode(&MAGIC, &framed).unwrap(), &payload[..]);
    }

    #[test]
    fn frame_decode_error_taxonomy() {
        let framed = frame_encode(&MAGIC, b"payload");
        assert_eq!(frame_decode(&MAGIC, &framed[..5]), Err(FrameError::TooShort));
        let mut bad_magic = framed.clone();
        bad_magic[0] ^= 0xFF;
        assert_eq!(frame_decode(&MAGIC, &bad_magic), Err(FrameError::BadMagic));
        let mut bad_version = framed.clone();
        bad_version[4] = 0x7F;
        assert!(matches!(
            frame_decode(&MAGIC, &bad_version),
            Err(FrameError::BadVersion(_))
        ));
        let mut torn = framed.clone();
        torn.pop();
        assert!(matches!(
            frame_decode(&MAGIC, &torn),
            Err(FrameError::LengthMismatch { .. })
        ));
        let mut flipped = framed.clone();
        let mid = HEADER_LEN + 2;
        flipped[mid] ^= 0x01;
        assert_eq!(frame_decode(&MAGIC, &flipped), Err(FrameError::BadCrc));
    }

    #[test]
    fn reader_recovers_all_frames_under_any_segmentation() {
        let frames = payloads(8);
        let stream = stream_of(&frames);
        // Several segmentation patterns, including 1-byte drip.
        for chunk in [1usize, 2, 3, 7, 16, 64, stream.len()] {
            let mut reader = FrameReader::new(MAGIC);
            let mut got = Vec::new();
            for piece in stream.chunks(chunk) {
                reader.push(piece);
                while let Some(f) = reader.next_frame() {
                    got.push(f);
                }
            }
            reader.finish();
            while let Some(f) = reader.next_frame() {
                got.push(f);
            }
            assert_eq!(got, frames, "chunk size {chunk}");
            assert_eq!(reader.faults(), 0);
        }
    }

    #[test]
    fn reader_skips_leading_and_interstitial_garbage() {
        let frames = payloads(3);
        let mut stream = vec![0xAAu8; 17];
        stream.extend_from_slice(&frame_encode(&MAGIC, &frames[0]));
        stream.extend_from_slice(&[0x55u8; 9]);
        stream.extend_from_slice(&frame_encode(&MAGIC, &frames[1]));
        stream.extend_from_slice(&frame_encode(&MAGIC, &frames[2]));
        let mut reader = FrameReader::new(MAGIC);
        reader.push(&stream);
        reader.finish();
        let mut got = Vec::new();
        while let Some(f) = reader.next_frame() {
            got.push(f);
        }
        assert_eq!(got, frames);
        assert_eq!(reader.faults(), 2);
        assert!(reader.skipped_bytes() >= 26);
    }

    /// Satellite 3: exhaustive truncation sweep. Cutting the stream at
    /// every possible byte position must still recover every frame that
    /// lies fully before the cut.
    #[test]
    fn truncation_sweep_recovers_every_intact_frame() {
        let frames = payloads(6);
        let encoded: Vec<Vec<u8>> = frames.iter().map(|p| frame_encode(&MAGIC, p)).collect();
        let stream = stream_of(&frames);
        // Frame end offsets within the stream.
        let mut ends = Vec::new();
        let mut acc = 0;
        for e in &encoded {
            acc += e.len();
            ends.push(acc);
        }
        for cut in 0..=stream.len() {
            let mut reader = FrameReader::new(MAGIC);
            reader.push(&stream[..cut]);
            reader.finish();
            let mut got = Vec::new();
            while let Some(f) = reader.next_frame() {
                got.push(f);
            }
            let intact = ends.iter().filter(|&&e| e <= cut).count();
            assert_eq!(
                got,
                frames[..intact].to_vec(),
                "cut at byte {cut} of {}",
                stream.len()
            );
        }
    }

    /// Satellite 3: exhaustive bit-flip sweep. Flipping any single bit
    /// damages at most one frame; every other frame must be recovered,
    /// in order — the PR 1 decoder guarantee at the wire layer.
    #[test]
    fn bit_flip_sweep_recovers_every_undamaged_frame() {
        let frames = payloads(6);
        let encoded: Vec<Vec<u8>> = frames.iter().map(|p| frame_encode(&MAGIC, p)).collect();
        let stream = stream_of(&frames);
        // Frame start offsets.
        let mut spans = Vec::new();
        let mut acc = 0;
        for e in &encoded {
            spans.push((acc, acc + e.len()));
            acc += e.len();
        }
        for byte in 0..stream.len() {
            for bit in 0..8u8 {
                let mut damaged = stream.clone();
                damaged[byte] ^= 1 << bit;
                let mut reader = FrameReader::new(MAGIC);
                reader.push(&damaged);
                reader.finish();
                let mut got = Vec::new();
                while let Some(f) = reader.next_frame() {
                    got.push(f);
                }
                let hit = spans
                    .iter()
                    .position(|&(s, e)| byte >= s && byte < e)
                    .expect("offset inside some frame");
                let undamaged: Vec<Vec<u8>> = frames
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != hit)
                    .map(|(_, p)| p.clone())
                    .collect();
                // The damaged frame may or may not decode (a flip in the
                // payload is always caught by the CRC; a flip in the
                // length field may reframe). Every undamaged frame must
                // appear, in order.
                let survivors: Vec<&Vec<u8>> =
                    got.iter().filter(|f| undamaged.contains(f)).collect();
                assert_eq!(
                    survivors.len(),
                    undamaged.len(),
                    "byte {byte} bit {bit}: undamaged frame lost"
                );
                assert!(
                    got.len() <= frames.len(),
                    "byte {byte} bit {bit}: phantom frames appeared"
                );
            }
        }
    }

    #[test]
    fn oversize_length_does_not_wedge_reader() {
        let frames = payloads(2);
        let mut bad = frame_encode(&MAGIC, &frames[0]);
        // Declare an absurd length so the frame can "never complete".
        bad[6] = 0xFF;
        bad[7] = 0xFF;
        bad[8] = 0xFF;
        bad[9] = 0xFF;
        let mut stream = bad;
        stream.extend_from_slice(&frame_encode(&MAGIC, &frames[1]));
        let mut reader = FrameReader::new(MAGIC);
        reader.push(&stream);
        reader.finish();
        let mut got = Vec::new();
        while let Some(f) = reader.next_frame() {
            got.push(f);
        }
        assert_eq!(got, vec![frames[1].clone()]);
        assert!(reader.faults() >= 1);
    }

    #[test]
    fn channel_transport_roundtrip_and_drain_on_disconnect() {
        let (mut coord, mut worker) = ShardTransport::channel_pair(MAGIC, 8);
        coord.send(b"one").unwrap();
        coord.send(b"two").unwrap();
        assert_eq!(
            worker.recv(Duration::from_millis(100)).unwrap(),
            Some(b"one".to_vec())
        );
        worker.send(b"ack").unwrap();
        assert_eq!(
            coord.recv(Duration::from_millis(100)).unwrap(),
            Some(b"ack".to_vec())
        );
        drop(coord);
        // Buffered frame drains first, then the disconnect surfaces.
        assert_eq!(
            worker.recv(Duration::from_millis(100)).unwrap(),
            Some(b"two".to_vec())
        );
        assert!(worker.recv(Duration::from_millis(100)).is_err());
    }

    #[test]
    fn channel_recv_times_out_quietly() {
        let (_coord, mut worker) = ShardTransport::channel_pair(MAGIC, 8);
        assert_eq!(worker.recv(Duration::from_millis(10)).unwrap(), None);
    }

    #[test]
    fn inproc_hub_accepts_connections() {
        let hub = InProcHub::new(MAGIC, 8);
        let mut client = hub.connect().unwrap();
        let mut server = hub
            .accept(Duration::from_millis(100))
            .unwrap()
            .expect("pending connection");
        client.send(b"hello").unwrap();
        assert_eq!(
            server.recv(Duration::from_millis(100)).unwrap(),
            Some(b"hello".to_vec())
        );
        assert!(hub.accept(Duration::from_millis(5)).unwrap().is_none());
    }

    #[cfg(unix)]
    #[test]
    fn uds_transport_roundtrip() {
        let dir = std::env::temp_dir().join(format!("spoofwatch-wire-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.sock");
        let _ = std::fs::remove_file(&path);
        let endpoint = UdsEndpoint::bind(&path, MAGIC).unwrap();
        let mut client = UdsEndpoint::connect(&path, MAGIC).unwrap();
        let mut server = endpoint
            .accept(Duration::from_millis(500))
            .unwrap()
            .expect("connection");
        client.send(b"over the socket").unwrap();
        assert_eq!(
            server.recv(Duration::from_millis(500)).unwrap(),
            Some(b"over the socket".to_vec())
        );
        server.send(b"and back").unwrap();
        assert_eq!(
            client.recv(Duration::from_millis(500)).unwrap(),
            Some(b"and back".to_vec())
        );
        drop(server);
        assert!(client.recv(Duration::from_millis(500)).is_err());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    /// A zero timeout reads without waiting: it returns a frame the peer
    /// has already sent (one larger than a read buffer, too), `None` from
    /// an empty socket at once, and leaves the write half blocking.
    #[cfg(unix)]
    #[test]
    fn zero_timeout_recv_reads_the_socket_without_waiting() {
        let (a, b) = UnixStream::pair().unwrap();
        let mut near = ShardTransport::from_unix(a, MAGIC).unwrap();
        let mut far = ShardTransport::from_unix(b, MAGIC).unwrap();
        let big = vec![7u8; 20_000];
        far.send(b"already here").unwrap();
        far.send(&big).unwrap();
        assert_eq!(
            near.recv(Duration::ZERO).unwrap(),
            Some(b"already here".to_vec())
        );
        assert_eq!(near.recv(Duration::ZERO).unwrap(), Some(big));

        let start = Instant::now();
        for _ in 0..100 {
            assert_eq!(near.recv(Duration::ZERO).unwrap(), None);
        }
        assert!(
            start.elapsed() < Duration::from_millis(5),
            "100 zero-timeout recvs on an empty socket took {:?}",
            start.elapsed()
        );

        // Far more than the socket buffer holds: a non-blocking write
        // half would fail with `WouldBlock` instead of waiting.
        let flood = vec![9u8; 1 << 21];
        let reader = std::thread::spawn(move || far.recv(Duration::from_secs(10)).unwrap());
        near.send(&flood).unwrap();
        assert_eq!(reader.join().unwrap(), Some(flood));
    }

    #[test]
    fn tcp_transport_roundtrip() {
        let endpoint = TcpEndpoint::bind("127.0.0.1:0", MAGIC).unwrap();
        let addr = endpoint.local_addr().unwrap().to_string();
        let mut client = TcpEndpoint::connect(&addr, MAGIC).unwrap();
        let mut server = endpoint
            .accept(Duration::from_millis(500))
            .unwrap()
            .expect("connection");
        client.send(b"tcp frame").unwrap();
        assert_eq!(
            server.recv(Duration::from_millis(500)).unwrap(),
            Some(b"tcp frame".to_vec())
        );
    }

    /// A wedged peer must not block `send` forever: with a write
    /// timeout set, flooding a socket whose reader never drains it
    /// eventually fills both kernel buffers and the blocked write
    /// surfaces as an error in bounded wall time.
    #[test]
    fn write_timeout_bounds_send_to_unread_socket() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stream = TcpStream::connect(addr).unwrap();
        // Accept so the connection is established, then never read.
        let (_wedged, _) = listener.accept().unwrap();
        let mut client = ShardTransport::from_tcp_with_write_timeout(
            stream,
            MAGIC,
            Some(Duration::from_millis(50)),
        )
        .unwrap();
        let payload = vec![0xABu8; 1 << 18]; // 256 KiB per frame
        let start = Instant::now();
        let mut err = None;
        for _ in 0..64 {
            if let Err(e) = client.send(&payload) {
                err = Some(e);
                break;
            }
        }
        let e = err.expect("send to an unread socket should time out");
        assert!(
            matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::BrokenPipe
            ),
            "unexpected error kind: {e:?}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "blocked send took {:?}, timeout did not bound it",
            start.elapsed()
        );
    }

    /// Release-mode floor, which `ci.sh` runs with `--ignored`: a
    /// `frame_encode` + `FrameReader` round trip over a 72 KiB payload
    /// is at least 4× the path the link used to take — the byte-wise
    /// CRC on both sides, the frame copied into the reader's buffer and
    /// the payload copied out — best of 5 batches of 64, the two timed
    /// alternately.
    #[test]
    #[ignore = "release-mode timing floor; ci.sh runs it with --ignored"]
    fn frame_roundtrip_floor_4x_bytewise() {
        use crate::crc32::crc32_bytewise;
        use std::hint::black_box;
        fn bytewise_roundtrip(payload: &[u8]) -> Vec<u8> {
            let mut framed = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
            framed.extend_from_slice(&MAGIC);
            framed.extend_from_slice(&WIRE_VERSION.to_be_bytes());
            framed.extend_from_slice(&(payload.len() as u32).to_be_bytes());
            framed.extend_from_slice(payload);
            framed.extend_from_slice(&crc32_bytewise(payload).to_be_bytes());
            let buf = framed.clone();
            let (body, crc) = buf[HEADER_LEN..].split_at(payload.len());
            assert_eq!(crc32_bytewise(body).to_be_bytes(), crc);
            body.to_vec()
        }
        fn time_64(mut roundtrip: impl FnMut() -> Vec<u8>) -> Duration {
            let t0 = Instant::now();
            for _ in 0..64 {
                black_box(roundtrip());
            }
            t0.elapsed()
        }
        let mut rng = StdRng::seed_from_u64(13);
        let payload: Vec<u8> = (0..72 * 1024).map(|_| rng.random()).collect();
        let mut reader = FrameReader::new(MAGIC);
        let mut sliced_roundtrip = || {
            reader.push_vec(frame_encode(&MAGIC, black_box(&payload)));
            reader.next_frame().expect("one frame")
        };
        assert_eq!(sliced_roundtrip(), bytewise_roundtrip(&payload));
        let (mut sliced, mut byte) = (Duration::MAX, Duration::MAX);
        for _ in 0..5 {
            sliced = sliced.min(time_64(&mut sliced_roundtrip));
            byte = byte.min(time_64(|| bytewise_roundtrip(black_box(&payload))));
        }
        let ratio = byte.as_secs_f64() / sliced.as_secs_f64();
        assert!(
            ratio >= 4.0,
            "frame round trip {sliced:?} vs byte-wise {byte:?} per 64: {ratio:.1}x < 4x"
        );
    }
}
