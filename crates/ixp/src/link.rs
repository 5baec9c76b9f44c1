//! The two halves of the chunk-link protocol ([`crate::live`]) as pure
//! state machines: they speak [`Msg`] values and do no I/O — time is an
//! argument, what to transmit a return value, and every clock rule of
//! either end of the link lives here. Two loops own the transports and
//! call them instead of re-deriving the rules: the one send loop
//! ([`crate::live::send_loop`], run by the shard coordinator and
//! `run_live_producer`) and, in `spoofwatch-core`, the one consumer loop
//! behind `serve_live` and `serve_shard`. The seeded schedule test below
//! drives both machines, rules included, across thousands of lossy links
//! in virtual time.

use crate::chunked::{ChunkedIpfixReader, FlowChunk};
use crate::live::Msg;

/// The consumer's grant slice: an advancing `Credit` goes out at most
/// once per slice, so a runner popping chunk after chunk costs one grant
/// frame per slice, not one per chunk.
pub const GRANT_SLICE_NS: u64 = 2_000_000;

/// What one received frame meant to the consumer.
#[derive(Debug)]
pub enum Received {
    /// The next in-order chunk: hand it to the study.
    Chunk(FlowChunk),
    /// `Finish` matched the expected sequence: clean end of stream.
    Finished,
    /// A message the data plane has no rule for (`Fatal`, say).
    Other(Msg),
    /// A duplicate, a frame past a gap, a `Finish` that does not match,
    /// or data before the stream is positioned.
    Dropped,
    /// A CRC-valid payload that is no message — a protocol fault.
    Undecodable,
}

/// The values a [`ChunkReceiver`] is built with: everything in which one
/// consumer of the link times its control messages differently from
/// another.
#[derive(Debug, Clone, Copy)]
pub struct ReceiverRules {
    /// Credit window: chunks the sender may run ahead of what the
    /// consumer has taken (minimum 1).
    pub window: u64,
    /// Minimum spacing of unforced `Resume`s, in ms; silence past twice
    /// this while data is owed nudges one.
    pub resume_throttle_ms: u64,
    /// Silence while data is owed, in ms, past which the sender is given
    /// up.
    pub stall_ms: u64,
    /// Send a `Credit` once this many ms have passed without one — the
    /// standing grant if it may not advance — as a liveness beacon the
    /// sender can time out on.
    pub beacon_ms: Option<u64>,
    /// Ask for a graceful drain (`Stop`) once this many chunks have been
    /// admitted.
    pub stop_after_chunks: Option<u64>,
}

/// The consuming half: admits chunks strictly in sequence from the
/// position given by [`seek`](Self::seek) and drops duplicates, and
/// decides, with the time as an argument, which control message is due
/// ([`poll`](Self::poll)) and when the sender is lost
/// ([`gave_up`](Self::gave_up)). Every sign of loss — a sequence gap, an
/// undecodable payload, a `Finish` past the expected sequence, silence
/// past twice the throttle while data is owed — queues one go-back-N
/// `Resume` from the current position, at most one per throttle
/// interval, so a burst of out-of-order frames costs one retransmission,
/// not a storm.
#[derive(Debug)]
pub struct ChunkReceiver {
    window: u64,
    throttle_ns: u64,
    stall_ns: u64,
    beacon_ns: Option<u64>,
    stop_after: Option<u64>,
    /// Next sequence to admit and the byte cursor it starts at; `None`
    /// until the first `seek`.
    position: Option<(u64, u64)>,
    /// Highest credit granted so far.
    granted: u64,
    finished: bool,
    last_resume_ns: Option<u64>,
    resume_due: bool,
    /// Where the sender's silence counts from: the last frame heard, or
    /// when data last became owed (the seek, a grant or `Stop` after a
    /// spell with nothing owed).
    quiet_since_ns: u64,
    /// When the last `Credit` went out; `None` before the first.
    credit_ns: Option<u64>,
    /// Chunks admitted in sequence.
    admitted: u64,
    stop_sent: bool,
}

/// `ms` (minimum 1) in nanoseconds.
fn ms_to_ns(ms: u64) -> u64 {
    ms.max(1).saturating_mul(1_000_000)
}

impl ChunkReceiver {
    /// A receiver timed by `rules`.
    pub fn new(rules: ReceiverRules) -> ChunkReceiver {
        ChunkReceiver {
            window: rules.window.max(1),
            throttle_ns: ms_to_ns(rules.resume_throttle_ms),
            stall_ns: ms_to_ns(rules.stall_ms),
            beacon_ns: rules.beacon_ms.map(ms_to_ns),
            stop_after: rules.stop_after_chunks,
            position: None,
            granted: 0,
            finished: false,
            last_resume_ns: None,
            resume_due: false,
            quiet_since_ns: 0,
            credit_ns: None,
            admitted: 0,
            stop_sent: false,
        }
    }

    /// Position the stream: the next chunk admitted has sequence `seq`
    /// and starts at `byte_cursor`. Queues an unthrottled `Resume`; data
    /// is owed, and silence counts, from `now_ns`.
    pub fn seek(&mut self, byte_cursor: u64, seq: u64, now_ns: u64) {
        self.position = Some((seq, byte_cursor));
        self.granted = self.granted.max(seq);
        self.finished = false;
        self.last_resume_ns = Some(now_ns);
        self.resume_due = true;
        self.quiet_since_ns = now_ns;
    }

    /// Feed one frame payload from the sender.
    pub fn on_frame(&mut self, payload: &[u8], now_ns: u64) -> Received {
        self.quiet_since_ns = now_ns;
        let Some(msg) = Msg::decode(payload) else {
            self.request_resume(now_ns);
            return Received::Undecodable;
        };
        let next_seq = match (&msg, self.position) {
            (Msg::Chunk(c), Some(_)) => c.seq,
            (Msg::Finish { next_seq }, Some(_)) => *next_seq,
            (Msg::Chunk(_) | Msg::Finish { .. }, None) => return Received::Dropped,
            _ => return Received::Other(msg),
        };
        let expected = self.next_seq();
        if next_seq > expected {
            // Frames were lost on the way (or the stream ended upstream
            // past them): go back to our cursor.
            self.request_resume(now_ns);
        }
        match msg {
            Msg::Chunk(c) if c.seq == expected => {
                self.position = Some((expected + 1, c.byte_end));
                self.admitted += 1;
                Received::Chunk(c)
            }
            Msg::Finish { .. } if next_seq == expected => {
                self.finished = true;
                Received::Finished
            }
            _ => Received::Dropped,
        }
    }

    /// Queue a retransmission request unless one was requested within
    /// the throttle interval.
    fn request_resume(&mut self, now_ns: u64) {
        let due = self
            .last_resume_ns
            .is_none_or(|t| now_ns.saturating_sub(t) >= self.throttle_ns);
        if due && self.position.is_some() {
            self.last_resume_ns = Some(now_ns);
            self.resume_due = true;
        }
    }

    /// Whether the sender owes data: granted chunks, or the `Finish`
    /// that answers a `Stop`.
    fn owed(&self) -> bool {
        self.position.is_some()
            && !self.finished
            && (self.stop_sent || self.granted > self.next_seq())
    }

    /// About to ask for data: silence counts from `now_ns` if nothing
    /// was owed until now.
    fn owe(&mut self, now_ns: u64) {
        if !self.owed() {
            self.quiet_since_ns = now_ns;
        }
    }

    /// The next control message due at `now_ns` for a consumer that has
    /// taken every chunk below `consumed`; call it until it returns
    /// `None`. In order: a queued `Resume` (the seek, a gap, a damaged
    /// frame, or silence past twice the throttle while data is owed,
    /// which may have missed the last one); the drain's `Stop`, once, when
    /// the chunk budget is reached; an advancing `Credit { consumed +
    /// window }`, at most once per [`GRANT_SLICE_NS`], never after `Stop`
    /// or `Finish`, and only while `may_grant` (the shell's overload
    /// control is not refusing); and, with a beacon, a `Credit` once a
    /// beacon period has passed without one — the advancing grant if one
    /// may go out, else the standing grant. Nothing before the stream is
    /// positioned.
    pub fn poll(&mut self, now_ns: u64, consumed: u64, may_grant: bool) -> Option<Msg> {
        let (seq, byte_cursor) = self.position?;
        if self.owed() && self.silent_ns(now_ns) > self.throttle_ns.saturating_mul(2) {
            self.request_resume(now_ns);
        }
        if std::mem::take(&mut self.resume_due) {
            return Some(Msg::Resume { byte_cursor, seq });
        }
        if !self.stop_sent && self.stop_after.is_some_and(|n| self.admitted >= n) {
            self.owe(now_ns);
            self.stop_sent = true;
            return Some(Msg::Stop);
        }
        let since_credit_ns = self.credit_ns.map_or(u64::MAX, |t| now_ns.saturating_sub(t));
        let up_to_seq = consumed.saturating_add(self.window);
        let beacon = self.beacon_ns.is_some_and(|period| since_credit_ns >= period);
        let advance = may_grant
            && !self.stop_sent
            && !self.finished
            && up_to_seq > self.granted
            && (beacon || since_credit_ns >= GRANT_SLICE_NS);
        if !advance && !beacon {
            return None;
        }
        if advance {
            self.owe(now_ns);
            self.granted = up_to_seq;
        }
        self.credit_ns = Some(now_ns);
        Some(Msg::Credit {
            up_to_seq: self.granted,
        })
    }

    /// The silence rule: the sender owes data — granted chunks, or the
    /// `Finish` that answers a `Stop` — and has not been heard from for
    /// longer than the stall bound.
    pub fn gave_up(&self, now_ns: u64) -> bool {
        self.owed() && self.silent_ns(now_ns) > self.stall_ns
    }

    /// How long the sender has been silent at `now_ns`: since the last
    /// frame, or since data became owed if that was later.
    pub fn silent_ns(&self, now_ns: u64) -> u64 {
        now_ns.saturating_sub(self.quiet_since_ns)
    }

    /// Chunks admitted in sequence.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// The next sequence to admit (0 before the first `seek`).
    pub fn next_seq(&self) -> u64 {
        self.position.map_or(0, |(seq, _)| seq)
    }

    /// Whether a matching `Finish` ended the stream.
    pub fn finished(&self) -> bool {
        self.finished
    }
}

/// What a control message changed at the sender.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Progress {
    /// `Resume` repositioned the stream.
    Resumed {
        /// Whether this was the session's initial position.
        first: bool,
    },
    /// `Credit` advanced the send window.
    Credit,
    /// Nothing the sender acts on.
    None,
}

/// The sending half: a [`ChunkedIpfixReader`] walked under the
/// consumer's control. `Resume` seeks it (initially, and again for
/// go-back-N, which un-finishes the stream); chunks go out only while
/// `seq < credit`; `Stop` freezes forward progress and is answered with
/// `Finish`; end of input is `Finish { next_seq }`, so a consumer that
/// missed frames can tell. Chunks cover the whole trace: a shell that
/// ships a partition (the shard coordinator) filters them before
/// encoding. Three rules read the clock, an argument as for
/// [`ChunkReceiver`]: pacing ([`paced`](Self::paced)), pauses
/// ([`with_pauses`](Self::with_pauses)) and the silence rule
/// ([`gave_up`](Self::gave_up)), the sender's one timer.
#[derive(Debug)]
pub struct ChunkSender<'a> {
    reader: ChunkedIpfixReader<'a>,
    /// Next sequence to send; `None` until the first `Resume`.
    next_seq: Option<u64>,
    credit: u64,
    /// Where `Stop` froze forward progress. A `Resume` during the drain
    /// rewinds below it; chunks up to it are re-sent (always within
    /// already-granted credit) before the next `Finish`.
    stop_at: Option<u64>,
    finish_sent: bool,
    silence_ns: u64,
    /// When the consumer was last heard from or sent to.
    quiet_since_ns: u64,
    /// Paced time per chunk (0 = line rate); the start of the pacing
    /// epoch (the last `Resume`) and the releases made in it.
    interval_ns: u64,
    epoch_ns: u64,
    released: u64,
    /// Pauses not yet taken, `(seq, pause_ns)`, and the end of the one
    /// under way.
    pauses: Vec<(u64, u64)>,
    held_until_ns: u64,
    pauses_taken: u64,
}

impl<'a> ChunkSender<'a> {
    /// A line-rate sender over the encoded IPFIX-lite buffer `data`,
    /// walked `chunk_records` records per chunk, that gives a silent
    /// consumer up after `silence_ns`. Its clock starts at 0.
    pub fn new(data: &'a [u8], chunk_records: usize, silence_ns: u64) -> ChunkSender<'a> {
        ChunkSender {
            reader: ChunkedIpfixReader::new(data, chunk_records),
            next_seq: None,
            credit: 0,
            stop_at: None,
            finish_sent: false,
            silence_ns,
            quiet_since_ns: 0,
            interval_ns: 0,
            epoch_ns: 0,
            released: 0,
            pauses: Vec::new(),
            held_until_ns: 0,
            pauses_taken: 0,
        }
    }

    /// Pace releases at `records_per_sec` (0 = line rate): at R records/s
    /// and C records a chunk, release k after a positioning `Resume` is
    /// due no sooner than k·C/R after it, so a replay is paced like
    /// fresh data.
    pub fn paced(mut self, records_per_sec: u32) -> Self {
        let ns_per_chunk = self.reader.chunk_records() as u64 * 1_000_000_000;
        self.interval_ns = match records_per_sec {
            0 => 0,
            rate => ns_per_chunk.div_ceil(u64::from(rate)),
        };
        self
    }

    /// Hold the first release of each `(seq, pause_ns)` for `pause_ns`
    /// (a chaos schedule: a stalled upstream tap).
    pub fn with_pauses(mut self, pauses: impl IntoIterator<Item = (u64, u64)>) -> Self {
        self.pauses.extend(pauses);
        self
    }

    /// Something from the consumer (a message, a report frame, a damaged
    /// payload) arrived at `now_ns`: it is alive.
    pub fn heard(&mut self, now_ns: u64) {
        self.quiet_since_ns = self.quiet_since_ns.max(now_ns);
    }

    /// Feed one control message from the consumer.
    pub fn on_msg(&mut self, msg: &Msg, now_ns: u64) -> Progress {
        self.heard(now_ns);
        match *msg {
            Msg::Resume { byte_cursor, seq } => {
                self.reader.seek(byte_cursor, seq);
                self.finish_sent = false;
                (self.epoch_ns, self.released) = (now_ns, 0);
                let first = self.next_seq.replace(seq).is_none();
                Progress::Resumed { first }
            }
            Msg::Credit { up_to_seq } if up_to_seq > self.credit => {
                self.credit = up_to_seq;
                Progress::Credit
            }
            Msg::Stop => {
                self.stop_at.get_or_insert(self.next_seq());
                Progress::None
            }
            _ => Progress::None,
        }
    }

    fn stopped_at(&self, seq: u64) -> bool {
        self.stop_at.is_some_and(|at| seq >= at)
    }

    /// How long before [`poll_send`](Self::poll_send) can release
    /// anything: `Some(0)` now, `Some(ns)` while only pacing or a pause
    /// holds it, `None` while only the consumer can unblock it
    /// (unpositioned, out of credit, or finished).
    pub fn wait_ns(&self, now_ns: u64) -> Option<u64> {
        let seq = self.next_seq.filter(|_| !self.finish_sent)?;
        let slot = self.epoch_ns.saturating_add(self.released.saturating_mul(self.interval_ns));
        (self.stopped_at(seq) || seq < self.credit)
            .then(|| slot.max(self.held_until_ns).saturating_sub(now_ns))
    }

    /// The next message for the consumer — a `Chunk`, or the `Finish`
    /// that ends the stream — or `None` while [`wait_ns`](Self::wait_ns)
    /// is not `Some(0)`. A release whose sequence has a pause scheduled
    /// starts that pause instead.
    pub fn poll_send(&mut self, now_ns: u64) -> Option<Msg> {
        if self.wait_ns(now_ns) != Some(0) {
            return None;
        }
        let next_seq = self.next_seq();
        if let Some(i) = self.pauses.iter().position(|&(seq, _)| seq == next_seq) {
            let (_, pause_ns) = self.pauses.swap_remove(i);
            self.held_until_ns = now_ns.saturating_add(pause_ns);
            self.pauses_taken += 1;
            return None;
        }
        self.released += 1;
        // A release is contact with the consumer, as hearing from it is.
        self.quiet_since_ns = self.quiet_since_ns.max(now_ns);
        let chunk = match self.stopped_at(next_seq) {
            true => None,
            false => self.reader.next_chunk(),
        };
        Some(match chunk {
            Some(chunk) => {
                self.next_seq = Some(chunk.seq + 1);
                Msg::Chunk(chunk)
            }
            None => {
                self.finish_sent = true;
                Msg::Finish { next_seq }
            }
        })
    }

    /// The silence rule: waiting on the consumer — for the first
    /// `Resume`, for credit, or for its tail after `Finish` — the sender
    /// has neither heard from it nor sent to it for longer than its bound.
    pub fn gave_up(&self, now_ns: u64) -> bool {
        let quiet_ns = now_ns.saturating_sub(self.quiet_since_ns);
        self.wait_ns(now_ns).is_none() && quiet_ns > self.silence_ns
    }

    /// The next sequence to send (0 before the first `Resume`).
    pub fn next_seq(&self) -> u64 {
        self.next_seq.unwrap_or(0)
    }

    /// One past the highest sequence the consumer has allowed.
    pub fn credit(&self) -> u64 {
        self.credit
    }

    /// Whether `Finish` is the last thing sent.
    pub fn finish_sent(&self) -> bool {
        self.finish_sent
    }

    /// Pauses taken from the schedule.
    pub fn pauses_taken(&self) -> u64 {
        self.pauses_taken
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use spoofwatch_net::{Asn, FlowRecord, Proto};
    use std::collections::VecDeque;
    use std::sync::OnceLock;

    const CHUNKS: usize = 9;
    const CHUNK_RECORDS: usize = 2;
    /// One step of virtual time: a millisecond, the unit of the
    /// receiver's rules.
    const STEP_NS: u64 = 1_000_000;
    /// Steps a clean link gets to finish once the chaos ends.
    const SETTLE_STEPS: u64 = 120;
    /// The sender's silence bound in the schedules, in steps.
    const SILENCE_STEPS: u64 = 64;
    /// Steps a sender may still spend releasing what it was granted
    /// (at most a window of 4 chunks and a `Finish`, paced at up to 3
    /// steps each) once its consumer has fallen silent.
    const LAST_RELEASES_STEPS: u64 = 16;

    /// The encoded trace and the chunks a reader cuts it into.
    fn fixture() -> &'static (Vec<u8>, Vec<FlowChunk>) {
        static FIXTURE: OnceLock<(Vec<u8>, Vec<FlowChunk>)> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let flows: Vec<FlowRecord> = (0..(CHUNKS * CHUNK_RECORDS) as u32)
                .map(|i| FlowRecord {
                    ts: i,
                    src: 0x0A00_0000 + i,
                    dst: 0xC0A8_0000 + i,
                    proto: Proto::Udp,
                    sport: i as u16,
                    dport: 53,
                    packets: 1,
                    bytes: 60,
                    pkt_size: 60,
                    member: Asn(64_500 + i % 3),
                    ttl: 57,
                })
                .collect();
            let data = crate::ipfix::encode(&flows);
            let chunks = ChunkedIpfixReader::new(&data, CHUNK_RECORDS).collect_chunks();
            assert_eq!(chunks.len(), CHUNKS);
            (data, chunks)
        })
    }

    /// The consumer as the harness sees it from outside — what its
    /// receiver was fed and what it sent — against which every decision
    /// of the receiver's own rules is checked.
    struct Consumer {
        receiver: ChunkReceiver,
        rules: ReceiverRules,
        /// When a frame was last fed, or data last became owed.
        heard: u64,
        /// A damaged frame, or one past a gap, was fed since the last turn.
        loss_fed: bool,
        /// The seek's `Resume` is still to go.
        seek_due: bool,
        /// When the last `Resume` was queued.
        resume_at: u64,
        /// The highest grant sent, and when the last `Credit` went out.
        granted: u64,
        credit_at: Option<u64>,
        stop_sent: bool,
        delivered: u64,
        finished: bool,
    }

    /// `ms` of the rules in virtual time.
    fn ns(ms: u64) -> u64 {
        ms.max(1) * STEP_NS
    }

    impl Consumer {
        fn new(rules: ReceiverRules) -> Consumer {
            let mut receiver = ChunkReceiver::new(rules);
            receiver.seek(0, 0, 0);
            Consumer {
                receiver,
                rules,
                heard: 0,
                loss_fed: false,
                seek_due: true,
                resume_at: 0,
                granted: 0,
                credit_at: None,
                stop_sent: false,
                delivered: 0,
                finished: false,
            }
        }

        /// Granted chunks, or the `Finish` that answers `Stop`, are owed.
        fn owed(&self) -> bool {
            !self.finished && (self.stop_sent || self.granted > self.delivered)
        }

        /// Data is about to be asked for: silence counts from `now` if
        /// none was owed.
        fn owe(&mut self, now: u64) {
            if !self.owed() {
                self.heard = now;
            }
        }

        /// Feed one frame that names sequence `names` (`None`: damaged).
        fn feed(&mut self, payload: &[u8], names: Option<u64>, now: u64) -> Received {
            self.heard = now;
            self.loss_fed |= names.is_none_or(|seq| seq > self.delivered);
            let got = self.receiver.on_frame(payload, now);
            match got {
                Received::Chunk(_) => self.delivered += 1,
                Received::Finished => self.finished = true,
                _ => {}
            }
            got
        }

        /// The consumer's turn at `now`, as the consumer loop takes it:
        /// the silence rule, then every control message `poll` has due.
        /// Each message is checked against what the rules allow, and the
        /// drain against what they require. `None` when the receiver gave
        /// its sender up.
        fn turn(
            &mut self,
            now: u64,
            consumed: u64,
            may_grant: bool,
        ) -> Result<Option<Vec<Msg>>, String> {
            let quiet = now - self.heard;
            let stall = ns(self.rules.stall_ms);
            let give_up = self.owed() && quiet > stall;
            if self.receiver.gave_up(now) != give_up {
                return Err(format!(
                    "gave_up is {} after {quiet} ns of silence, bound {stall}, owed {}",
                    !give_up,
                    self.owed()
                ));
            }
            if give_up {
                return Ok(None);
            }
            let throttle = ns(self.rules.resume_throttle_ms);
            let loss_fed = std::mem::take(&mut self.loss_fed);
            let nudge_due =
                |c: &Consumer| c.owed() && quiet > 2 * throttle && now - c.resume_at >= throttle;
            let up_to = consumed + self.rules.window;
            let since_grant = |c: &Consumer| c.credit_at.map_or(u64::MAX, |t| now - t);
            let beacon_due =
                |c: &Consumer| c.rules.beacon_ms.is_some_and(|ms| since_grant(c) >= ns(ms));
            let advance_due = |c: &Consumer| {
                may_grant
                    && !c.stop_sent
                    && !c.finished
                    && up_to > c.granted
                    && (beacon_due(c) || since_grant(c) >= GRANT_SLICE_NS)
            };
            let stop_due = |c: &Consumer| {
                !c.stop_sent && c.rules.stop_after_chunks.is_some_and(|n| c.delivered >= n)
            };
            let (nudge_was_due, mut resumed) = (nudge_due(self), false);
            let mut out = Vec::new();
            while let Some(msg) = self.receiver.poll(now, consumed, may_grant) {
                match msg {
                    Msg::Resume { seq, .. } => {
                        let queued = match (std::mem::take(&mut self.seek_due), loss_fed) {
                            (true, _) => 0,
                            (false, true) => self.heard,
                            (false, false) if nudge_was_due => now,
                            (false, false) => {
                                return Err(format!("a Resume after {quiet} ns of silence"))
                            }
                        };
                        if queued > 0 && queued - self.resume_at < throttle {
                            return Err(format!("Resumes {} ns apart", queued - self.resume_at));
                        }
                        if resumed || seq != self.delivered {
                            return Err(format!("a second Resume, or from {seq}"));
                        }
                        (self.resume_at, resumed) = (queued, true);
                    }
                    Msg::Stop if stop_due(self) => {
                        self.owe(now);
                        self.stop_sent = true;
                    }
                    Msg::Credit { up_to_seq } => {
                        let advanced = up_to_seq > self.granted;
                        if advanced && (!advance_due(self) || up_to_seq != up_to) {
                            return Err(format!("a grant to {up_to_seq} that was not due"));
                        }
                        let standing_due = beacon_due(self) && !advance_due(self);
                        if !advanced && (up_to_seq < self.granted || !standing_due) {
                            return Err(format!("a standing grant to {up_to_seq} that was not due"));
                        }
                        if advanced {
                            self.owe(now);
                        }
                        (self.granted, self.credit_at) = (up_to_seq, Some(now));
                    }
                    other => return Err(format!("{other:?} was not due")),
                }
                out.push(msg);
            }
            if nudge_was_due && !resumed {
                return Err(format!("no Resume after {quiet} ns of silence"));
            }
            if stop_due(self) || advance_due(self) || beacon_due(self) {
                return Err("a Stop, grant or beacon due was not sent".to_string());
            }
            Ok(Some(out))
        }
    }

    /// One seeded session in virtual time: a `ChunkSender` wired to a
    /// `ChunkReceiver` through in-memory queues that, while the chaos
    /// lasts, drop, duplicate, reorder and garble data frames, lose
    /// `Resume`/`Credit` (only where a beacon re-sends the grant: the
    /// live link has none and a reliable transport), and go silent; a
    /// slow consumer whose overload control, in one seed of four, refuses
    /// grants while its buffer is deep; a sender paced at 0–3 steps a
    /// chunk; receiver rules drawn per seed — throttle, stall bound, a
    /// beacon in one seed of two, a drain budget in one of four; and in
    /// one seed of eight each a consumer or a sender that dies for good.
    /// Checks in-order exactly-once delivery, the credit bound and the
    /// pacing slot at every send, every control message the receiver
    /// sends or owes ([`Consumer::turn`]), a clean `Finish` within
    /// `SETTLE_STEPS` of the link turning clean, and both silence rules:
    /// never applied to a live peer nor before its bound, and applied to
    /// a dead one as soon as it is silent past its bound.
    fn run_schedule(seed: u64) -> Result<(), String> {
        let (data, expected) = fixture();
        let mut rng = StdRng::seed_from_u64(seed);
        let window = 1 + rng.random_range(0..4);
        let chaos_steps = rng.random_range(0..150);
        let throttle_ms = 1 + rng.random_range(0..8);
        let beacon_ms = rng.random_bool(0.5).then(|| 1 + rng.random_range(0..10));
        let rules = ReceiverRules {
            window,
            resume_throttle_ms: throttle_ms,
            // Past the longest silence a live sender can fall into: the
            // chaos, then one nudge on a clean link.
            stall_ms: chaos_steps + 2 * throttle_ms + rng.random_range(0..40),
            beacon_ms,
            stop_after_chunks: rng.random_ratio(1, 4).then(|| rng.random_range(0..CHUNKS as u64)),
        };
        let refuse_at = match rng.random_ratio(1, 4) {
            true => 1 + rng.random_range(0..window),
            false => u64::MAX,
        };
        let (p_drop, p_dup, p_swap, p_garble) = (
            rng.random_range(0..30),
            rng.random_range(0..20),
            rng.random_range(0..20),
            rng.random_range(0..15),
        );
        let (p_ctl_loss, p_silent, p_consume) = (
            beacon_ms.map_or(0, |_| rng.random_range(0..40)),
            rng.random_range(0..30),
            40 + rng.random_range(0..61),
        );
        // With 2-record chunks, 1, 2 or 3 steps a chunk.
        let rate: u32 = [0, 2_000, 1_000, 667][rng.random_range(0..4)];
        let death = rng.random_range(0..8);
        let dies_at = (death < 2).then(|| rng.random_range(0..chaos_steps + 30));
        let (consumer_dies_at, sender_dies_at) = match death {
            0 => (dies_at, None),
            _ => (None, dies_at.filter(|_| death == 1)),
        };
        let mut sender = ChunkSender::new(data, CHUNK_RECORDS, SILENCE_STEPS * STEP_NS).paced(rate);
        let mut consumer = Consumer::new(rules);

        let mut to_sender: VecDeque<Vec<u8>> = VecDeque::new();
        // Data frames and the sequence each names (`None`: garbled).
        let mut to_receiver: VecDeque<(Vec<u8>, Option<u64>)> = VecDeque::new();
        let mut buffered: VecDeque<u64> = VecDeque::new();
        let mut consumed = 0u64;
        // The consumer gave its dead-ended link up and stopped.
        let mut gone = false;
        // The sender's pacing epoch as seen from outside (when it took
        // its last `Resume`, releases since), and its last contact with
        // the consumer (a message taken or a release made).
        let (mut epoch, mut last_contact) = ((0u64, 0u64), 0u64);

        let steps = chaos_steps + SETTLE_STEPS + sender_dies_at.map_or(0, |_| rules.stall_ms);
        for step in 1..=steps {
            let now = step * STEP_NS;
            let chaos = step <= chaos_steps;
            let silent = chaos && rng.random_ratio(p_silent, 100);
            let consumer_dead = consumer_dies_at.is_some_and(|at| step >= at);
            let sender_dead = sender_dies_at.is_some_and(|at| step >= at);

            // Consumer → sender: whatever the receiver's rules have due
            // (`Stop` goes out reliably, like the consumer loop's one send).
            if !gone {
                let may_grant = (buffered.len() as u64) < refuse_at;
                let turn = consumer.turn(now, consumed, may_grant);
                match turn.map_err(|why| format!("step {step}: {why}"))? {
                    Some(msgs) => {
                        for msg in msgs {
                            if msg == Msg::Stop || !(chaos && rng.random_ratio(p_ctl_loss, 100)) {
                                to_sender.push_back(msg.encode());
                            }
                        }
                    }
                    None if sender_dead => return Ok(()),
                    None if consumer_dead => gone = true,
                    None => return Err(format!("step {step}: gave up on a live sender")),
                }
            }
            if consumer_dead {
                to_sender.clear();
            }

            // Sender → consumer, through the faulty data link.
            if !sender_dead {
                while let Some(payload) = to_sender.pop_front_if(|_| !silent) {
                    let msg = Msg::decode(&payload).ok_or("control message did not decode")?;
                    if let Progress::Resumed { .. } = sender.on_msg(&msg, now) {
                        epoch = (now, 0);
                    }
                    last_contact = now;
                }
                for _ in 0..1 + rng.random_range(0..3) {
                    let Some(msg) = sender.poll_send(now) else { break };
                    let (since, k) = epoch;
                    if rate > 0
                        && u128::from(now - since) * u128::from(rate)
                            < u128::from(k) * CHUNK_RECORDS as u128 * 1_000_000_000
                    {
                        return Err(format!(
                            "step {step}: release {k} after the Resume at {since} is early ({rate}/s)"
                        ));
                    }
                    epoch.1 += 1;
                    last_contact = now;
                    let names = match &msg {
                        Msg::Chunk(c) if c.seq >= consumed + window => {
                            return Err(format!(
                                "step {step}: sent chunk {} with consumed {consumed}, window {window}",
                                c.seq
                            ));
                        }
                        Msg::Chunk(c) => c.seq,
                        Msg::Finish { next_seq } => *next_seq,
                        other => return Err(format!("step {step}: the sender sent {other:?}")),
                    };
                    let payload = msg.encode();
                    if chaos && rng.random_ratio(p_drop, 100) {
                        continue;
                    }
                    if chaos && rng.random_ratio(p_dup, 100) {
                        to_receiver.push_back((payload.clone(), Some(names)));
                    }
                    to_receiver.push_back(match chaos && rng.random_ratio(p_garble, 100) {
                        true => (vec![0xEE; 3], None),
                        false => (payload, Some(names)),
                    });
                    let n = to_receiver.len();
                    if chaos && n >= 2 && rng.random_ratio(p_swap, 100) {
                        to_receiver.swap(n - 1, n - 2);
                    }
                }
            }

            for _ in 0..1 + rng.random_range(0..3) {
                if gone {
                    break;
                }
                let Some((payload, names)) = to_receiver.pop_front_if(|_| !silent) else {
                    break;
                };
                let index = consumer.delivered as usize;
                match consumer.feed(&payload, names, now) {
                    Received::Chunk(c) => {
                        let want = expected.get(index).ok_or("chunk past the end")?;
                        if (c.seq, c.byte_start, c.byte_end)
                            != (want.seq, want.byte_start, want.byte_end)
                            || c.flows != want.flows
                        {
                            return Err(format!("step {step}: chunk {index} arrived as {}", c.seq));
                        }
                        buffered.push_back(c.seq);
                        if buffered.len() as u64 > window {
                            return Err(format!("step {step}: {} chunks buffered", buffered.len()));
                        }
                    }
                    Received::Finished => {}
                    Received::Other(m) => return Err(format!("step {step}: stray {m:?}")),
                    Received::Dropped | Received::Undecodable => {}
                }
            }
            if !chaos || rng.random_ratio(p_consume, 100) {
                if let Some(seq) = buffered.pop_front() {
                    consumed = seq + 1;
                }
            }

            if !sender_dead && sender.gave_up(now) {
                let quiet = now - last_contact;
                return match (consumer_dead, quiet > SILENCE_STEPS * STEP_NS) {
                    (true, true) => Ok(()),
                    (false, _) => Err(format!("step {step}: gave up on a live consumer")),
                    (true, false) => Err(format!("step {step}: gave up after {quiet} quiet ns")),
                };
            }
            if consumer_dies_at.is_some_and(|at| step > at + LAST_RELEASES_STEPS + SILENCE_STEPS) {
                return Err(format!(
                    "step {step}: still waiting on a consumer dead at {consumer_dies_at:?}"
                ));
            }
            if !gone && consumer.finished && buffered.is_empty() {
                // (The sender may already be un-finished again by a
                // `Resume` that was still in flight.)
                let delivered = consumer.delivered;
                return match delivered == CHUNKS as u64 || consumer.stop_sent {
                    true => Ok(()),
                    false => Err(format!("step {step}: finished after {delivered} chunks")),
                };
            }
        }
        Err(match sender_dies_at {
            Some(at) => format!("still waiting on a sender dead at step {at}"),
            None => format!(
                "no clean Finish within {SETTLE_STEPS} steps of a clean link ({} delivered)",
                consumer.delivered
            ),
        })
    }

    #[test]
    fn seeded_schedules_deliver_in_order_exactly_once_within_the_window() {
        for seed in 0..10_000 {
            if let Err(why) = run_schedule(seed) {
                panic!("{why} — replay with: run_schedule({seed}).unwrap()");
            }
        }
    }

    /// `Stop` freezes the sender where it stands: the answer is
    /// `Finish` at that position whatever credit remains, and a `Resume`
    /// during the drain re-sends up to it and finishes again.
    #[test]
    fn stop_freezes_the_sender_and_resume_replays_up_to_it() {
        let (data, expected) = fixture();
        let mut sender = ChunkSender::new(data, CHUNK_RECORDS, u64::MAX);
        let sent = |sender: &mut ChunkSender<'_>| -> Vec<Msg> {
            std::iter::from_fn(|| sender.poll_send(0)).collect()
        };
        sender.on_msg(&Msg::Credit { up_to_seq: 2 }, 0);
        assert!(
            sent(&mut sender).is_empty(),
            "credit alone does not start the stream"
        );
        let start = Msg::Resume {
            byte_cursor: 0,
            seq: 0,
        };
        assert_eq!(sender.on_msg(&start, 0), Progress::Resumed { first: true });
        assert_eq!(
            sender.on_msg(&Msg::Credit { up_to_seq: 1 }, 0),
            Progress::None,
            "stale"
        );
        assert_eq!(sent(&mut sender).len(), 2, "the two credited chunks");
        sender.on_msg(&Msg::Credit { up_to_seq: 5 }, 0);
        sender.on_msg(&Msg::Stop, 0);
        assert_eq!(sent(&mut sender), [Msg::Finish { next_seq: 2 }]);
        let back = Msg::Resume {
            byte_cursor: expected[1].byte_start,
            seq: 1,
        };
        assert_eq!(sender.on_msg(&back, 0), Progress::Resumed { first: false });
        let replay = sent(&mut sender);
        assert_eq!(replay[0], Msg::Chunk(FlowChunk::from_chunk(&expected[1])));
        assert_eq!(replay[1..], [Msg::Finish { next_seq: 2 }]);
    }

    fn seq_of(msg: Option<Msg>) -> Option<u64> {
        match msg {
            Some(Msg::Chunk(c)) => Some(c.seq),
            _ => None,
        }
    }

    /// At R records/s and C records a chunk, release k after a
    /// positioning `Resume` goes out no sooner than k·C/R after it, and
    /// less than k + 1 ns later than that; a go-back-N `Resume` starts a
    /// new epoch.
    #[test]
    fn pacing_releases_chunk_k_no_sooner_than_k_c_over_r_after_the_resume() {
        const RATE: u64 = 3; // records/s: two thirds of a second a chunk
        let on_time = |k: u64, after_ns: u64| {
            let least = k * CHUNK_RECORDS as u64 * 1_000_000_000;
            assert!(after_ns * RATE >= least, "release {k} after {after_ns} ns is early");
            assert!(after_ns * RATE < least + RATE * (k + 1), "release {k} is late");
        };
        let (data, expected) = fixture();
        let mut sender = ChunkSender::new(data, CHUNK_RECORDS, u64::MAX).paced(RATE as u32);
        sender.on_msg(&Msg::Credit { up_to_seq: u64::MAX }, 0);
        let t0 = 5_000;
        sender.on_msg(&Msg::Resume { byte_cursor: 0, seq: 0 }, t0);
        let (mut k, mut now) = (0, t0);
        while k < 4 {
            match sender.poll_send(now) {
                Some(_) => {
                    on_time(k, now - t0);
                    k += 1;
                }
                None => now += sender.wait_ns(now).expect("only the clock holds it"),
            }
        }
        let next_slot = now + sender.wait_ns(now).expect("paced");
        assert_eq!(sender.poll_send(next_slot - 1), None);

        let t1 = next_slot + 17;
        let back = Msg::Resume {
            byte_cursor: expected[1].byte_start,
            seq: 1,
        };
        sender.on_msg(&back, t1);
        assert_eq!(seq_of(sender.poll_send(t1)), Some(1), "a new epoch opens at once");
        let wait = sender.wait_ns(t1).expect("paced");
        on_time(1, wait);
        assert_eq!(sender.poll_send(t1 + wait - 1), None);
        assert_eq!(seq_of(sender.poll_send(t1 + wait)), Some(2));
    }

    /// A scheduled pause holds exactly the release of its sequence, for
    /// exactly its length, once: a replay of that chunk goes out unheld.
    #[test]
    fn a_pause_delays_exactly_its_chunk_once() {
        let (data, expected) = fixture();
        let mut sender = ChunkSender::new(data, CHUNK_RECORDS, u64::MAX).with_pauses([(2, 500)]);
        sender.on_msg(&Msg::Credit { up_to_seq: u64::MAX }, 0);
        sender.on_msg(&Msg::Resume { byte_cursor: 0, seq: 0 }, 0);
        assert_eq!(seq_of(sender.poll_send(10)), Some(0));
        assert_eq!(seq_of(sender.poll_send(10)), Some(1));
        assert_eq!(sender.poll_send(10), None, "the pause starts");
        assert_eq!(sender.wait_ns(10), Some(500));
        assert_eq!(sender.poll_send(509), None);
        assert_eq!(seq_of(sender.poll_send(510)), Some(2));
        assert_eq!(seq_of(sender.poll_send(510)), Some(3), "only its chunk is held");
        let back = Msg::Resume {
            byte_cursor: expected[2].byte_start,
            seq: 2,
        };
        sender.on_msg(&back, 600);
        assert_eq!(seq_of(sender.poll_send(600)), Some(2), "taken once");
        assert_eq!(sender.pauses_taken(), 1);
    }

    /// A consumer that falls silent for good is given up on one
    /// nanosecond past the bound, counted from the last thing heard or
    /// sent, whether the sender waits for its first `Resume`, for
    /// credit, or for the tail after its `Finish` — and never while it
    /// can still send.
    #[test]
    fn a_consumer_silent_for_good_is_given_up_within_the_bound() {
        const BOUND: u64 = 1_000;
        let (data, _) = fixture();
        let mut sender = ChunkSender::new(data, CHUNK_RECORDS, BOUND);
        sender.heard(50);
        assert!(!sender.gave_up(50 + BOUND));
        assert!(sender.gave_up(51 + BOUND), "no first Resume");

        sender.on_msg(&Msg::Resume { byte_cursor: 0, seq: 0 }, 2 * BOUND);
        sender.on_msg(&Msg::Credit { up_to_seq: 2 }, 4 * BOUND);
        assert!(sender.poll_send(4 * BOUND + 10).is_some());
        assert!(sender.poll_send(4 * BOUND + 20).is_some());
        assert!(sender.poll_send(4 * BOUND + 30).is_none(), "out of credit");
        assert!(!sender.gave_up(5 * BOUND + 20));
        assert!(sender.gave_up(5 * BOUND + 21), "no credit");

        sender.on_msg(&Msg::Stop, 6 * BOUND);
        assert!(!sender.gave_up(100 * BOUND), "its Finish is still to go");
        assert_eq!(sender.poll_send(100 * BOUND), Some(Msg::Finish { next_seq: 2 }));
        assert!(!sender.gave_up(101 * BOUND));
        assert!(sender.gave_up(101 * BOUND + 1), "no tail after the Finish");
    }

    /// The consumer's rules at their bounds: the seek's `Resume` and the
    /// first grant go out at once, an advancing grant waits out the slice,
    /// silence while chunks are owed nudges a `Resume` just past twice
    /// the throttle and gives the sender up just past the stall bound,
    /// the budget's `Stop` goes once and freezes the grant, the beacon
    /// re-sends the grant as it stands, and the `Finish` is owed as
    /// chunks are.
    #[test]
    fn the_receiver_applies_its_rules_at_their_bounds() {
        const MS: u64 = 1_000_000;
        let mut receiver = ChunkReceiver::new(ReceiverRules {
            window: 2,
            resume_throttle_ms: 10,
            stall_ms: 100,
            beacon_ms: Some(50),
            stop_after_chunks: Some(1),
        });
        assert_eq!(receiver.poll(0, 0, true), None, "not positioned");
        receiver.seek(0, 0, 0);
        let resume = Some(Msg::Resume { byte_cursor: 0, seq: 0 });
        assert_eq!(receiver.poll(0, 0, true), resume);
        assert_eq!(receiver.poll(0, 0, true), Some(Msg::Credit { up_to_seq: 2 }));
        assert_eq!(receiver.poll(2 * MS - 1, 1, true), None, "within the slice");
        assert_eq!(receiver.poll(2 * MS, 1, false), None, "refused");
        assert_eq!(receiver.poll(2 * MS, 1, true), Some(Msg::Credit { up_to_seq: 3 }));

        assert_eq!(receiver.poll(20 * MS, 1, true), None, "silent twice the throttle");
        assert_eq!(receiver.poll(20 * MS + 1, 1, true), resume, "the nudge");
        assert!(!receiver.gave_up(100 * MS));
        assert!(receiver.gave_up(100 * MS + 1), "silent past the stall bound");

        let (_, chunks) = fixture();
        let chunk = Msg::Chunk(FlowChunk::from_chunk(&chunks[0])).encode();
        assert!(matches!(receiver.on_frame(&chunk, 110 * MS), Received::Chunk(_)));
        assert_eq!(receiver.poll(110 * MS, 1, true), Some(Msg::Stop), "the budget");
        let standing = Some(Msg::Credit { up_to_seq: 3 });
        assert_eq!(receiver.poll(110 * MS, 1, true), standing, "the beacon, frozen");
        assert_eq!(receiver.poll(130 * MS, 1, true), None);
        let resume = Some(Msg::Resume { byte_cursor: chunks[0].byte_end, seq: 1 });
        assert_eq!(receiver.poll(130 * MS + 1, 1, true), resume, "the Finish is owed");
        assert!(!receiver.gave_up(210 * MS));
        assert!(receiver.gave_up(210 * MS + 1));
        let finish = Msg::Finish { next_seq: 1 }.encode();
        assert!(matches!(receiver.on_frame(&finish, 300 * MS), Received::Finished));
        assert!(!receiver.gave_up(1_000 * MS), "nothing is owed");
    }
}
