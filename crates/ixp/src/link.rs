//! The two halves of the chunk-link protocol ([`crate::live`]) as pure
//! state machines: they speak [`Msg`] values and do no I/O — time is an
//! argument, what to transmit a return value. Two loops own the
//! transports and call them instead of re-deriving the rules: the one
//! send loop ([`crate::live::send_loop`], run by the shard coordinator
//! and `run_live_producer`) and, in `spoofwatch-core`, the one consumer
//! loop behind `serve_live` and `serve_shard`. The seeded schedule test
//! below drives both across thousands of lossy links in virtual time.

use crate::chunked::{ChunkedIpfixReader, FlowChunk};
use crate::live::Msg;

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

/// The consuming half: admits chunks strictly in sequence from the
/// position given by [`seek`](Self::seek) and drops duplicates. Every
/// sign of loss — a sequence gap, an undecodable payload, a `Finish`
/// past the expected sequence, silence the shell reports — queues one
/// go-back-N `Resume` from the current position, at most one per
/// throttle interval, so a burst of out-of-order frames costs one
/// retransmission, not a storm.
#[derive(Debug)]
pub struct ChunkReceiver {
    window: u64,
    throttle_ns: u64,
    /// Next sequence to admit and the byte cursor it starts at; `None`
    /// until the first `seek`.
    position: Option<(u64, u64)>,
    /// Highest credit granted so far.
    granted: u64,
    finished: bool,
    last_resume_ns: Option<u64>,
    resume_due: bool,
}

impl ChunkReceiver {
    /// A receiver granting `window` chunks (minimum 1) past the
    /// consumer's position and spacing unforced `Resume` requests at
    /// least `throttle_ns` apart.
    pub fn new(window: u64, throttle_ns: u64) -> ChunkReceiver {
        ChunkReceiver {
            window: window.max(1),
            throttle_ns,
            position: None,
            granted: 0,
            finished: false,
            last_resume_ns: None,
            resume_due: false,
        }
    }

    /// Position the stream: the next chunk admitted has sequence `seq`
    /// and starts at `byte_cursor`. Queues an unthrottled `Resume`.
    pub fn seek(&mut self, byte_cursor: u64, seq: u64, now_ns: u64) {
        self.position = Some((seq, byte_cursor));
        self.granted = self.granted.max(seq);
        self.finished = false;
        self.last_resume_ns = Some(now_ns);
        self.resume_due = true;
    }

    /// Feed one frame payload from the sender.
    pub fn on_frame(&mut self, payload: &[u8], now_ns: u64) -> Received {
        let Some(msg) = Msg::decode(payload) else {
            self.on_silence(now_ns);
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
            self.on_silence(now_ns);
        }
        match msg {
            Msg::Chunk(c) if c.seq == expected => {
                self.position = Some((expected + 1, c.byte_end));
                Received::Chunk(c)
            }
            Msg::Finish { .. } if next_seq == expected => {
                self.finished = true;
                Received::Finished
            }
            _ => Received::Dropped,
        }
    }

    /// Request retransmission unless one was requested within the
    /// throttle interval. Shells call this when they judge the link
    /// silent while data is owed: the sender may have missed a `Resume`,
    /// or its `Finish` was lost.
    pub fn on_silence(&mut self, now_ns: u64) {
        let due = self
            .last_resume_ns
            .is_none_or(|t| now_ns.saturating_sub(t) >= self.throttle_ns);
        if due && self.position.is_some() {
            self.last_resume_ns = Some(now_ns);
            self.resume_due = true;
        }
    }

    /// The queued `Resume`, from the position as it is now.
    pub fn take_resume(&mut self) -> Option<Msg> {
        let (seq, byte_cursor) = self.position?;
        std::mem::take(&mut self.resume_due).then_some(Msg::Resume { byte_cursor, seq })
    }

    /// The grant for a consumer that has taken every chunk below
    /// `consumed`: `Credit { consumed + window }`, so the sender never
    /// runs more than `window` chunks ahead of it. `Some` when that
    /// advances the grant, or when `resend` asks for the standing grant
    /// again as a liveness beacon; `None` until the stream is positioned.
    pub fn credit(&mut self, consumed: u64, resend: bool) -> Option<Msg> {
        self.position?;
        let up_to_seq = consumed.saturating_add(self.window).max(self.granted);
        if up_to_seq == self.granted && !resend {
            return None;
        }
        self.granted = up_to_seq;
        Some(Msg::Credit { up_to_seq })
    }

    /// The next sequence to admit (0 before the first `seek`).
    pub fn next_seq(&self) -> u64 {
        self.position.map_or(0, |(seq, _)| seq)
    }

    /// Whether the stream has been positioned by a `seek`.
    pub fn positioned(&self) -> bool {
        self.position.is_some()
    }

    /// Whether granted chunks are still outstanding.
    pub fn owed(&self) -> bool {
        !self.finished && self.granted > self.next_seq()
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

    /// One seeded session in virtual time (one step is one nanosecond):
    /// a `ChunkSender` wired to a `ChunkReceiver` through in-memory
    /// queues that, while the chaos lasts, drop, duplicate, reorder and
    /// garble data frames, lose `Resume`/`Credit`, and go silent; a slow
    /// consumer; in one seed of four a `Stop` mid-stream; a sender paced
    /// at 0–3 steps a chunk; and in one seed of eight a consumer that
    /// falls silent for good. Checks in-order exactly-once delivery, the
    /// credit bound and the pacing slot at every send, a clean `Finish`
    /// within `SETTLE_STEPS` of the link turning clean, and the silence
    /// rule: never applied to a live consumer nor before its bound, and
    /// applied to a dead one within the bound once its grant is spent.
    fn run_schedule(seed: u64) -> Result<(), String> {
        let (data, expected) = fixture();
        let mut rng = StdRng::seed_from_u64(seed);
        let window = 1 + rng.random_range(0..4);
        let mut receiver = ChunkReceiver::new(window, 1 + rng.random_range(0..8));
        let chaos_steps = rng.random_range(0..150);
        let (p_drop, p_dup, p_swap, p_garble) = (
            rng.random_range(0..30),
            rng.random_range(0..20),
            rng.random_range(0..20),
            rng.random_range(0..15),
        );
        let (p_ctl_loss, p_silent, p_consume) = (
            rng.random_range(0..40),
            rng.random_range(0..30),
            40 + rng.random_range(0..61),
        );
        let stop_at_step = rng.random_ratio(25, 100).then(|| rng.random_range(0..60));
        // With 2-record chunks, 1, 2 or 3 steps a chunk.
        let rate: u32 = [0, 2_000_000_000, 1_000_000_000, 666_666_667][rng.random_range(0..4)];
        let dies_at = rng
            .random_ratio(1, 8)
            .then(|| rng.random_range(0..chaos_steps + 30));
        let mut sender = ChunkSender::new(data, CHUNK_RECORDS, SILENCE_STEPS).paced(rate);

        let mut to_sender: VecDeque<Vec<u8>> = VecDeque::new();
        let mut to_receiver: VecDeque<Vec<u8>> = VecDeque::new();
        let mut buffered: VecDeque<u64> = VecDeque::new();
        let (mut delivered, mut consumed) = (0usize, 0u64);
        let mut stopped = false;
        // The sender's pacing epoch as seen from outside (when it took
        // its last `Resume`, releases since), and its last contact with
        // the consumer (a message taken or a release made).
        let (mut epoch, mut last_contact) = ((0u64, 0u64), 0u64);
        receiver.seek(0, 0, 0);

        for now in 1..=chaos_steps + SETTLE_STEPS {
            let chaos = now <= chaos_steps;
            let silent = chaos && rng.random_ratio(p_silent, 100);
            let dead = dies_at.is_some_and(|at| now >= at);

            // Consumer → sender: Stop (reliable, like the shells' single
            // send), queued Resume, fresh credit or the periodic beacon.
            if stop_at_step == Some(now) {
                stopped = true;
                to_sender.push_back(Msg::Stop.encode());
            }
            let credit = match stopped {
                true => None,
                false => receiver.credit(consumed, now % 4 == 0),
            };
            for msg in [receiver.take_resume(), credit].into_iter().flatten() {
                if !(chaos && rng.random_ratio(p_ctl_loss, 100)) {
                    to_sender.push_back(msg.encode());
                }
            }
            if dead {
                to_sender.clear();
            }
            while let Some(payload) = to_sender.pop_front_if(|_| !silent) {
                let msg = Msg::decode(&payload).ok_or("control message did not decode")?;
                if let Progress::Resumed { .. } = sender.on_msg(&msg, now) {
                    epoch = (now, 0);
                }
                last_contact = now;
            }

            // Sender → consumer, through the faulty data link.
            for _ in 0..1 + rng.random_range(0..3) {
                let Some(msg) = sender.poll_send(now) else { break };
                let (since, k) = epoch;
                if rate > 0
                    && u128::from(now - since) * u128::from(rate)
                        < u128::from(k) * CHUNK_RECORDS as u128 * 1_000_000_000
                {
                    return Err(format!(
                        "step {now}: release {k} after the Resume at {since} is early ({rate}/s)"
                    ));
                }
                epoch.1 += 1;
                last_contact = now;
                if let Msg::Chunk(c) = &msg {
                    if c.seq >= consumed + window {
                        return Err(format!(
                            "step {now}: sent chunk {} with consumed {consumed}, window {window}",
                            c.seq
                        ));
                    }
                }
                let payload = msg.encode();
                if chaos && rng.random_ratio(p_drop, 100) {
                    continue;
                }
                if chaos && rng.random_ratio(p_dup, 100) {
                    to_receiver.push_back(payload.clone());
                }
                to_receiver.push_back(match chaos && rng.random_ratio(p_garble, 100) {
                    true => vec![0xEE; 3],
                    false => payload,
                });
                let n = to_receiver.len();
                if chaos && n >= 2 && rng.random_ratio(p_swap, 100) {
                    to_receiver.swap(n - 1, n - 2);
                }
            }

            let mut heard = false;
            for _ in 0..1 + rng.random_range(0..3) {
                let Some(payload) = to_receiver.pop_front_if(|_| !silent) else {
                    break;
                };
                heard = true;
                match receiver.on_frame(&payload, now) {
                    Received::Chunk(c) => {
                        let want = expected.get(delivered).ok_or("chunk past the end")?;
                        if (c.seq, c.byte_start, c.byte_end)
                            != (want.seq, want.byte_start, want.byte_end)
                            || c.flows != want.flows
                        {
                            return Err(format!(
                                "step {now}: chunk {delivered} arrived as {}",
                                c.seq
                            ));
                        }
                        delivered += 1;
                        buffered.push_back(c.seq);
                        if buffered.len() as u64 > window {
                            return Err(format!("step {now}: {} chunks buffered", buffered.len()));
                        }
                    }
                    Received::Finished => {}
                    Received::Other(m) => return Err(format!("step {now}: stray {m:?}")),
                    Received::Dropped | Received::Undecodable => {}
                }
            }
            if !heard {
                receiver.on_silence(now);
            }
            if !chaos || rng.random_ratio(p_consume, 100) {
                if let Some(seq) = buffered.pop_front() {
                    consumed = seq + 1;
                }
            }

            if sender.gave_up(now) {
                let quiet = now - last_contact;
                return match (dead, quiet > SILENCE_STEPS) {
                    (true, true) => Ok(()),
                    (false, _) => Err(format!("step {now}: gave up on a live consumer")),
                    (true, false) => Err(format!("step {now}: gave up after {quiet} quiet steps")),
                };
            }
            if dies_at.is_some_and(|at| now > at + LAST_RELEASES_STEPS + SILENCE_STEPS) {
                return Err(format!("step {now}: still waiting on a consumer dead at {dies_at:?}"));
            }
            if receiver.finished() && buffered.is_empty() {
                // (The sender may already be un-finished again by a
                // `Resume` that was still in flight.)
                return match delivered == CHUNKS || stopped {
                    true => Ok(()),
                    false => Err(format!("step {now}: finished after {delivered} chunks")),
                };
            }
        }
        Err(format!(
            "no clean Finish within {SETTLE_STEPS} steps of a clean link ({delivered} delivered)"
        ))
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
}
