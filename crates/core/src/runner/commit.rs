//! The feeder's commit rules as one pure state machine.
//!
//! A run's state advances in chunk-sequence order only, so a checkpoint
//! at committed chunk K is exactly the state after chunks `[0, K)` and a
//! resumed run writes the same report, ring and incident log.
//! [`Committer`] owns the [`RunState`], the chunks in flight (one
//! `VecDeque` indexed by `seq − committed_chunks`: seqs run contiguously
//! from the resume cursor), the [`RollupWriter`], the checkpoint cadence
//! and the crash-simulation bound. It ticks the run's metrics and tracer
//! and touches no channel, file, clock or thread; the feeder in [`super`]
//! is its shell. `tests` runs 10 000 seeded arrival schedules against it.

use super::checkpoint::{Checkpoint, CheckpointRef, CheckpointStore};
use super::durable::DurableWrite;
use super::obs::{MemberLabels, RunMetrics, RunnerObs};
use super::rollup::{RollupConfig, RollupWriter, WindowAccum, WindowCommit};
use super::{FlowAccounting, IngestTotals, RunnerConfig};
use crate::detect::WindowDetect;
use crate::provenance::DisagreementMatrix;
use crate::stats::MemberBreakdown;
use spoofwatch_ixp::chunked::FlowChunk;
use std::collections::VecDeque;

/// What a worker reports back for one chunk.
pub(super) enum OutcomeKind {
    /// Classified; the partial per-member breakdown and (when tracked)
    /// the chunk's disagreement matrix and detection payload ride along.
    Processed(
        MemberBreakdown,
        Option<DisagreementMatrix>,
        // Boxed: the payload is ~2 KiB of inline sketches, and the
        // outcome moves through a channel on every chunk.
        Option<Box<WindowDetect>>,
    ),
    /// The classification panicked; the chunk is poisoned.
    Quarantined,
}

pub(super) struct Outcome {
    pub seq: u64,
    pub kind: OutcomeKind,
}

/// What the feeder keeps of a dispatched chunk, so a commit needs
/// nothing from the worker beyond the outcome.
#[derive(Clone, Copy)]
pub(super) struct ChunkMeta {
    pub records: u64,
    pub byte_end: u64,
    pub ingest: IngestTotals,
    pub fault_counts: [u64; 5],
}

impl ChunkMeta {
    pub fn of(chunk: &FlowChunk) -> ChunkMeta {
        let mut ingest = IngestTotals::default();
        ingest.absorb(&chunk.health);
        ChunkMeta {
            records: chunk.flows.len() as u64,
            byte_end: chunk.byte_end,
            ingest,
            fault_counts: chunk.health.fault_counts,
        }
    }
}

/// The deterministic state the checkpoint persists.
#[derive(Debug, Default, PartialEq)]
pub(super) struct RunState {
    pub committed_chunks: u64,
    pub byte_cursor: u64,
    pub records: FlowAccounting,
    pub chunks: FlowAccounting,
    pub ingest: IngestTotals,
    pub breakdown: MemberBreakdown,
    pub disagreement: Option<DisagreementMatrix>,
}

/// The commit rule set of one run (see the module docs).
pub(super) struct Committer<'r> {
    /// What the run has committed, read by the shell for its report.
    pub state: RunState,
    /// Slot `i` is chunk `state.committed_chunks + i`: what the feeder
    /// kept of it, and the worker's outcome once it has come back.
    in_flight: VecDeque<(ChunkMeta, Option<OutcomeKind>)>,
    rollup: Option<RollupWriter>,
    cfg: &'r RunnerConfig,
    config_hash: u64,
    store: &'r CheckpointStore,
    rm: &'r RunMetrics,
    obs: &'r RunnerObs,
    members: MemberLabels,
}

impl<'r> Committer<'r> {
    /// A committer at the start of the trace, or at `resume`'s cursor.
    /// `rollup` is the ring's policy and the windows already in it.
    pub fn new(
        cfg: &'r RunnerConfig,
        config_hash: u64,
        resume: Option<Checkpoint>,
        rollup: Option<(RollupConfig, &[WindowAccum])>,
        store: &'r CheckpointStore,
        rm: &'r RunMetrics,
        obs: &'r RunnerObs,
    ) -> Committer<'r> {
        let (state, saved) = match resume {
            Some(cp) => {
                let state = RunState {
                    committed_chunks: cp.committed_chunks,
                    byte_cursor: cp.byte_cursor,
                    records: cp.records,
                    chunks: cp.chunks,
                    ingest: cp.ingest,
                    breakdown: MemberBreakdown {
                        per_member: cp.per_member,
                    },
                    disagreement: cp.disagreement,
                };
                (state, cp.rollup_accum)
            }
            None => (RunState::default(), None),
        };
        let rollup = rollup
            .map(|(rcfg, ring)| RollupWriter::new(rcfg, obs, state.committed_chunks, saved, ring));
        rm.committed_chunks.set(state.committed_chunks as i64);
        Committer {
            state,
            in_flight: VecDeque::new(),
            rollup,
            cfg,
            config_hash,
            store,
            rm,
            obs,
            members: MemberLabels::new(),
        }
    }

    /// Chunks dispatched and not yet committed.
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Whether the crash-simulation bound is reached: nothing more
    /// commits, and the run stops without finishing.
    pub fn interrupted(&self) -> bool {
        self.cfg.interrupt_after_chunks.is_some_and(|n| self.state.committed_chunks >= n)
    }

    /// Open the slot of chunk `seq`, the next one after those in flight.
    pub fn dispatch(&mut self, seq: u64, meta: ChunkMeta) {
        let next = self.state.committed_chunks + self.in_flight.len() as u64;
        assert_eq!(seq, next, "seqs run contiguously from the resume cursor");
        self.in_flight.push_back((meta, None));
    }

    /// File a worker's outcome in its chunk's slot.
    pub fn arrive(&mut self, outcome: Outcome) {
        let slot = outcome.seq - self.state.committed_chunks;
        self.in_flight[slot as usize].1 = Some(outcome.kind);
    }

    /// Commit every outcome that is next in sequence order, up to the
    /// crash-simulation bound, and append what each commit persists in
    /// disk order: the window it closed, that window's incidents, then
    /// the checkpoint every `checkpoint_every` commits.
    pub fn commit_ready(&mut self, writes: &mut Vec<DurableWrite>) {
        while !self.interrupted() && self.in_flight.front().is_some_and(|s| s.1.is_some()) {
            if let Some((meta, Some(kind))) = self.in_flight.pop_front() {
                self.commit(meta, kind, writes);
            }
        }
    }

    /// End of stream: close the final partial window, then append the
    /// terminal checkpoint, so a rerun resumes at end of stream instead
    /// of recomputing. Never called on an interrupted run.
    pub fn finish(&mut self, writes: &mut Vec<DurableWrite>) {
        debug_assert!(self.in_flight.is_empty() && !self.interrupted());
        if let Some(w) = self.rollup.as_mut() {
            w.flush(writes);
        }
        writes.push(self.checkpoint_write());
    }

    fn commit(&mut self, meta: ChunkMeta, kind: OutcomeKind, writes: &mut Vec<DurableWrite>) {
        let (state, rm) = (&mut self.state, self.rm);
        state.chunks.offered += 1;
        state.records.offered += meta.records;
        rm.chunks.offered.inc();
        rm.records.offered.add(meta.records);
        state.ingest += meta.ingest;
        let commit = match &kind {
            OutcomeKind::Processed(partial, matrix, detect) => {
                state.chunks.processed += 1;
                state.records.processed += meta.records;
                rm.chunks.processed.inc();
                rm.records.processed.add(meta.records);
                // One walk of the member rows feeds the per-class and
                // per-member counters and the window's class flows.
                let mut class_flows = [0u64; 4];
                for (asn, rows) in &partial.per_member {
                    let mut member_flows = 0u64;
                    for (into, cc) in class_flows.iter_mut().zip(rows) {
                        *into += cc.flows;
                        member_flows += cc.flows;
                    }
                    self.members.record(&self.obs.metrics, *asn, member_flows);
                }
                for (counter, flows) in rm.classified_flows.iter().zip(class_flows) {
                    counter.add(flows);
                }
                if let Some(m) = matrix {
                    m.export(&self.obs.metrics);
                    state
                        .disagreement
                        .get_or_insert_with(DisagreementMatrix::new)
                        .merge(m);
                }
                state.breakdown.merge(&partial.per_member);
                WindowCommit::Processed {
                    class_flows,
                    matrix: matrix.as_ref(),
                    detect: detect.as_deref(),
                }
            }
            OutcomeKind::Quarantined => {
                state.chunks.quarantined += 1;
                state.records.quarantined += meta.records;
                rm.chunks.quarantined.inc();
                rm.records.quarantined.add(meta.records);
                WindowCommit::Quarantined
            }
        };
        if let Some(w) = self.rollup.as_mut() {
            let m = &meta;
            w.absorb(m.records, &m.ingest, &m.fault_counts, commit, writes);
        }
        if let OutcomeKind::Quarantined = kind {
            // The worker already dumped the flight ring at panic time;
            // the commit event records the final disposition.
            self.obs.tracer.event(
                "chunk_quarantined",
                &[("seq", self.state.committed_chunks.into()), ("records", meta.records.into())],
            );
        }
        self.state.committed_chunks += 1;
        self.state.byte_cursor = meta.byte_end;
        rm.committed_chunks.set(self.state.committed_chunks as i64);
        if self.state.committed_chunks.is_multiple_of(self.cfg.checkpoint_every.max(1)) {
            writes.push(self.checkpoint_write());
        }
    }

    /// The current state as a checkpoint write, with the rollup writer's
    /// in-progress window; encoded in place, nothing cloned.
    fn checkpoint_write(&self) -> DurableWrite {
        let s = &self.state;
        let encoded = CheckpointRef {
            config_hash: self.config_hash,
            committed_chunks: s.committed_chunks,
            byte_cursor: s.byte_cursor,
            records: s.records,
            chunks: s.chunks,
            ingest: s.ingest,
            per_member: &s.breakdown.per_member,
            disagreement: s.disagreement.as_ref(),
            rollup_accum: self.rollup.as_ref().map(RollupWriter::accum),
        }
        .encode();
        self.store.write_of(encoded)
    }
}

#[cfg(test)]
mod tests {
    use super::super::durable::WriteKind;
    use super::super::rollup::decode_window;
    use super::*;
    use crate::detect::DetectConfig;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use spoofwatch_net::{Asn, FlowRecord, Proto, TrafficClass};
    use std::collections::BTreeMap;
    use std::path::Path;

    /// What a worker reports for a classified chunk.
    type Classified = (
        MemberBreakdown,
        Option<DisagreementMatrix>,
        Option<WindowDetect>,
    );

    /// Records, chunks and ingest after some number of commits.
    type Totals = (FlowAccounting, FlowAccounting, IngestTotals);

    /// One seed's study: per chunk, what the feeder keeps of it and what
    /// a worker reports (`None`: quarantined); the run's policy; and the
    /// expected totals after each number of commits.
    struct Study {
        chunks: Vec<(ChunkMeta, Option<Classified>)>,
        class_flows: Vec<[u64; 4]>,
        prefix: Vec<Totals>,
        cfg: RunnerConfig,
        rollup: RollupConfig,
    }

    impl Study {
        fn draw(seed: u64, rng: &mut StdRng) -> Study {
            // Uniform below a cap of 1, 2, 4, … or 64 chunks: small and
            // large studies are both common, and resuming from every
            // checkpoint of a long one stays affordable.
            let cap = 1u64 << rng.random_range(0..=6u32);
            let n = rng.random_range(1..=cap);
            let (detect, track) = (rng.random_bool(0.5), rng.random_bool(0.5));
            let p_quarantine = rng.random_range(0..30u32);
            let (mut chunks, mut class_flows) = (Vec::new(), Vec::new());
            let mut prefix = vec![Totals::default()];
            for seq in 0..n {
                let records = rng.random_range(0..=40u64);
                let junk = match rng.random_ratio(1, 4) {
                    true => rng.random_range(1..200u64),
                    false => 0,
                };
                let mut fault_counts = [0; 5];
                if junk > 0 {
                    fault_counts[rng.random_range(0..5usize)] = 1;
                }
                let ingest = IngestTotals {
                    input_bytes: 36 * records + junk,
                    ok_records: records,
                    ok_bytes: 36 * records,
                    quarantined_bytes: junk,
                    resyncs: u64::from(junk > 0),
                };
                let byte_end = prefix[seq as usize].2.input_bytes + ingest.input_bytes;
                let meta = ChunkMeta {
                    records,
                    byte_end,
                    ingest,
                    fault_counts,
                };
                let (mut recs, mut chs, mut ing) = prefix[seq as usize];
                (recs.offered, chs.offered) = (recs.offered + records, chs.offered + 1);
                ing += ingest;
                let mut flows_by_class = [0u64; 4];
                let classified = if rng.random_ratio(p_quarantine, 100) {
                    (recs.quarantined, chs.quarantined) =
                        (recs.quarantined + records, chs.quarantined + 1);
                    None
                } else {
                    (recs.processed, chs.processed) = (recs.processed + records, chs.processed + 1);
                    let mut flows = Vec::new();
                    let mut classes = Vec::new();
                    let mut matrix = track.then(DisagreementMatrix::new);
                    for _ in 0..records {
                        flows.push(FlowRecord {
                            ts: seq as u32,
                            src: rng.random(),
                            dst: 0x0808_0808,
                            proto: Proto::Udp,
                            sport: 1000,
                            dport: 53,
                            packets: 1,
                            bytes: 60,
                            pkt_size: 60,
                            member: Asn(64_500 + rng.random_range(0..3u32)),
                            ttl: rng.random(),
                        });
                        let class = TrafficClass::ALL[rng.random_range(0..4usize)];
                        classes.push(class);
                        flows_by_class[class.index()] += 1;
                        if let Some(m) = &mut matrix {
                            let mut variants = [class; 5];
                            variants[rng.random_range(0..5usize)] =
                                TrafficClass::ALL[rng.random_range(0..4usize)];
                            m.record(&variants);
                        }
                    }
                    let payload =
                        detect.then(|| WindowDetect::from_chunk(&flows, &classes, seed, seq));
                    Some((
                        MemberBreakdown::from_classes(&flows, &classes),
                        matrix,
                        payload,
                    ))
                };
                chunks.push((meta, classified));
                class_flows.push(flows_by_class);
                prefix.push((recs, chs, ing));
            }
            let cfg = RunnerConfig {
                checkpoint_every: rng.random_range(1..=10u64),
                interrupt_after_chunks: rng.random_ratio(1, 4).then(|| rng.random_range(0..=n)),
                ..RunnerConfig::default()
            };
            let mut rollup = RollupConfig::new("ring", rng.random_range(1..=8u64));
            rollup.detect = detect.then(DetectConfig::default);
            Study {
                chunks,
                class_flows,
                prefix,
                cfg,
                rollup,
            }
        }

        fn n(&self) -> u64 {
            self.chunks.len() as u64
        }

        fn outcome(&self, seq: u64) -> Outcome {
            let kind = match &self.chunks[seq as usize].1 {
                Some((partial, matrix, detect)) => OutcomeKind::Processed(
                    partial.clone(),
                    matrix.clone(),
                    detect.clone().map(Box::new),
                ),
                None => OutcomeKind::Quarantined,
            };
            Outcome { seq, kind }
        }

        /// The report's state after every chunk, folded without the
        /// committer.
        fn final_state(&self) -> RunState {
            let mut s = RunState {
                committed_chunks: self.n(),
                byte_cursor: self.chunks.last().map_or(0, |c| c.0.byte_end),
                ..RunState::default()
            };
            (s.records, s.chunks, s.ingest) = self.prefix[self.chunks.len()];
            for (partial, matrix, _) in self.chunks.iter().filter_map(|c| c.1.as_ref()) {
                s.breakdown.merge(&partial.per_member);
                if let Some(m) = matrix {
                    s.disagreement
                        .get_or_insert_with(DisagreementMatrix::new)
                        .merge(m);
                }
            }
            s
        }

        /// A window's content against the chunks it covers.
        fn check_window(&self, w: &WindowAccum, index: u64, committed: u64) -> Result<(), String> {
            let wc = self.rollup.window_chunks;
            let start = index * wc;
            let end = (start + wc).min(committed);
            let ((r0, c0, i0), (r1, c1, i1)) =
                (self.prefix[start as usize], self.prefix[end as usize]);
            let delta = |a: FlowAccounting, b: FlowAccounting| FlowAccounting {
                offered: a.offered - b.offered,
                processed: a.processed - b.processed,
                shed: 0,
                quarantined: a.quarantined - b.quarantined,
            };
            let mut class_flows = [0u64; 4];
            let mut fault_counts = [0u64; 5];
            for seq in start..end {
                for (into, n) in class_flows.iter_mut().zip(self.class_flows[seq as usize]) {
                    *into += n;
                }
                for (into, n) in fault_counts
                    .iter_mut()
                    .zip(self.chunks[seq as usize].0.fault_counts)
                {
                    *into += n;
                }
            }
            let ingest = IngestTotals {
                input_bytes: i1.input_bytes - i0.input_bytes,
                ok_records: i1.ok_records - i0.ok_records,
                ok_bytes: i1.ok_bytes - i0.ok_bytes,
                quarantined_bytes: i1.quarantined_bytes - i0.quarantined_bytes,
                resyncs: i1.resyncs - i0.resyncs,
            };
            let expected = (
                index,
                start,
                end - start,
                class_flows,
                delta(r1, r0),
                delta(c1, c0),
                ingest,
                fault_counts,
            );
            let got = (
                w.window_index,
                w.start_chunk,
                w.chunks,
                w.class_flows,
                w.records,
                w.chunk_outcomes,
                w.ingest,
                w.fault_counts,
            );
            match got == expected {
                true => Ok(()),
                false => Err(format!(
                    "window {index} holds {got:?}, its chunks sum to {expected:?}"
                )),
            }
        }

        /// One step's writes, in order: closed windows in index order,
        /// each with its content and its incidents right behind it; a
        /// checkpoint at every multiple of `checkpoint_every` the step
        /// committed, each after every window it records as closed.
        /// `windows` counts the windows written so far. At `finish`, the
        /// partial window and the terminal checkpoint are due instead.
        fn check_writes(
            &self,
            writes: &[DurableWrite],
            before: u64,
            after: u64,
            windows: &mut u64,
            finishing: bool,
        ) -> Result<(), String> {
            let (every, wc) = (self.cfg.checkpoint_every, self.rollup.window_chunks);
            let mut next_checkpoint = (before / every + 1) * every;
            let mut terminal = false;
            let mut prev = None;
            for w in writes {
                if terminal {
                    return Err("a write after the terminal checkpoint".to_string());
                }
                match w.kind {
                    WriteKind::Window => {
                        let acc = decode_window(&w.bytes).map_err(|e| format!("window: {e}"))?;
                        let closes = (*windows + 1) * wc;
                        if !(closes <= after || finishing && *windows * wc < after) {
                            return Err(format!(
                                "window {} written at {after} commits",
                                acc.window_index
                            ));
                        }
                        self.check_window(&acc, *windows, after)?;
                        *windows += 1;
                    }
                    WriteKind::Incidents if prev == Some(WriteKind::Window) => {}
                    WriteKind::Incidents => {
                        return Err("incidents not right behind their window".to_string())
                    }
                    WriteKind::Checkpoint => {
                        let cp =
                            Checkpoint::decode(&w.bytes).map_err(|e| format!("checkpoint: {e}"))?;
                        let k = cp.committed_chunks;
                        if finishing {
                            terminal = true;
                            if k != self.n() || *windows != self.n().div_ceil(wc) {
                                return Err(format!(
                                    "terminal checkpoint at {k} after {windows} windows"
                                ));
                            }
                        } else if k != next_checkpoint || k > after {
                            return Err(format!(
                                "checkpoint at {k}, due at {next_checkpoint} \
                                 ({before}..{after} committed)"
                            ));
                        } else if *windows != k / wc {
                            return Err(format!(
                                "checkpoint at {k} handed off after {windows} windows"
                            ));
                        } else {
                            next_checkpoint += every;
                        }
                        let accum = cp.rollup_accum.as_ref().map(|a| (a.window_index, a.chunks));
                        let totals = (cp.records, cp.chunks, cp.ingest);
                        if totals != self.prefix[k as usize]
                            || accum != Some((k / wc, k % wc)) && !finishing
                        {
                            return Err(format!(
                                "checkpoint at {k} holds {totals:?}, window {accum:?}"
                            ));
                        }
                    }
                }
                prev = Some(w.kind);
            }
            if finishing && !terminal {
                return Err("finish handed off no terminal checkpoint".to_string());
            }
            if !finishing && (next_checkpoint <= after || *windows != after / wc) {
                return Err(format!(
                    "after {after} commits: checkpoint due at {next_checkpoint}, \
                     {windows} windows written"
                ));
            }
            Ok(())
        }
    }

    /// Drive `c` from its cursor to the end of `study`'s chunks, as the
    /// feeder does: at most `bound` chunks in flight, their outcomes
    /// arriving in a random order within that bound, and `commit_ready`
    /// after every dispatch and every arrival. Checks every step's
    /// commits and totals, and with `check_writes` its writes, then
    /// finishes unless the committer reports the interrupt bound.
    fn drive(
        study: &Study,
        c: &mut Committer<'_>,
        rng: &mut StdRng,
        bound: u64,
        writes: &mut Vec<DurableWrite>,
        check_writes: bool,
    ) -> Result<(), String> {
        let n = study.n();
        let mut dispatched = c.state.committed_chunks;
        // Windows before the in-progress one are on disk already.
        let mut windows = c.rollup.as_ref().map_or(0, |w| w.accum().window_index);
        let mut waiting: Vec<u64> = Vec::new();
        let mut delivered = vec![false; n as usize];
        while !c.interrupted() {
            let (before, mark) = (c.state.committed_chunks, writes.len());
            let room = (c.in_flight() as u64) < bound;
            if dispatched < n && room && (waiting.is_empty() || rng.random_bool(0.5)) {
                c.dispatch(dispatched, study.chunks[dispatched as usize].0);
                waiting.push(dispatched);
                dispatched += 1;
            } else if !waiting.is_empty() {
                let seq = waiting.swap_remove(rng.random_range(0..waiting.len()));
                delivered[seq as usize] = true;
                c.arrive(study.outcome(seq));
            } else {
                break;
            }
            c.commit_ready(writes);
            let after = c.state.committed_chunks;
            let mut ready = before;
            while ready < dispatched && delivered[ready as usize] {
                ready += 1;
            }
            let expected = ready.min(c.cfg.interrupt_after_chunks.unwrap_or(u64::MAX));
            if after != expected {
                return Err(format!(
                    "{after} chunks committed, {expected} were next in order"
                ));
            }
            let (recs, chs, ing) = (c.state.records, c.state.chunks, c.state.ingest);
            if !recs.reconciles()
                || !chs.reconciles()
                || (recs, chs, ing) != study.prefix[after as usize]
            {
                return Err(format!(
                    "after {after} commits the run holds {:?}",
                    (recs, chs, ing)
                ));
            }
            if check_writes {
                study.check_writes(&writes[mark..], before, after, &mut windows, false)?;
            }
        }
        let (after, mark) = (c.state.committed_chunks, writes.len());
        if c.interrupted() {
            // Outcomes still coming in commit nothing past the bound.
            for seq in waiting {
                c.arrive(study.outcome(seq));
            }
            c.commit_ready(writes);
            return match c.state.committed_chunks == after && writes.len() == mark {
                true => Ok(()),
                false => Err(format!("a commit or write past the interrupt at {after}")),
            };
        }
        if after != n || c.in_flight() > 0 {
            return Err(format!(
                "stuck at {after} of {n} with {} in flight",
                c.in_flight()
            ));
        }
        c.finish(writes);
        match check_writes {
            true => study.check_writes(&writes[mark..], after, after, &mut windows, true),
            false => Ok(()),
        }
    }

    /// The last bytes written to each destination.
    fn files(writes: &[DurableWrite]) -> BTreeMap<&Path, &[u8]> {
        writes
            .iter()
            .map(|w| (w.dest.as_path(), w.bytes.as_slice()))
            .collect()
    }

    fn same_writes(a: &[DurableWrite], b: &[DurableWrite]) -> bool {
        a.len() == b.len()
            && a.iter()
                .zip(b)
                .all(|(x, y)| x.dest == y.dest && x.bytes == y.bytes)
    }

    /// One seeded study (see [`Study::draw`]) committed three ways: in
    /// order, in a random order within a random in-flight bound, and
    /// resumed from each checkpoint the second run handed off, with the
    /// windows written before it, its rest in a fresh random order. The
    /// random run must write the in-order run's bytes and end in its
    /// state; each resume must end with the uninterrupted run's files and
    /// a state equal to the fold of the chunks. Resumed runs check their
    /// writes through those files only.
    fn run_schedule(seed: u64) -> Result<(), String> {
        let mut rng = StdRng::seed_from_u64(seed);
        let study = Study::draw(seed, &mut rng);
        let store = CheckpointStore::open(std::env::temp_dir()).map_err(|e| e.to_string())?;
        let obs = RunnerObs::disabled();
        let rm = RunMetrics::new(&obs.metrics);
        let uninterrupted = RunnerConfig {
            interrupt_after_chunks: None,
            ..study.cfg.clone()
        };
        let run = |cfg: &RunnerConfig,
                   resume: Option<(Checkpoint, &[WindowAccum])>,
                   bound,
                   rng: &mut StdRng| {
            let check_writes = resume.is_none();
            let (cp, ring) = resume.map_or((None, &[][..]), |(cp, ring)| (Some(cp), ring));
            let mut c = Committer::new(
                cfg,
                seed,
                cp,
                Some((study.rollup.clone(), ring)),
                &store,
                &rm,
                &obs,
            );
            let mut writes = Vec::new();
            drive(&study, &mut c, rng, bound, &mut writes, check_writes)
                .map(|()| (writes, c.state))
                .map_err(|e| format!("in-flight bound {bound}: {e}"))
        };

        let (reference, reference_state) = run(&uninterrupted, None, 1, &mut rng)?;
        if reference_state != study.final_state() {
            return Err(
                "the in-order run's report differs from the fold of its chunks".to_string(),
            );
        }
        let expected = match study.cfg.interrupt_after_chunks {
            Some(_) => run(&study.cfg, None, 1, &mut rng)?,
            None => (reference.clone(), study.final_state()),
        };
        let bound = rng.random_range(1..=8u64);
        let (writes, state) = run(&study.cfg, None, bound, &mut rng)?;
        if !same_writes(&writes, &expected.0) || state != expected.1 {
            return Err(format!(
                "in-flight bound {bound}: the writes or the report differ from the in-order run's"
            ));
        }

        let reference_files = files(&reference);
        let mut ring = Vec::new();
        for (i, w) in writes.iter().enumerate() {
            match w.kind {
                WriteKind::Window => ring.push(decode_window(&w.bytes).map_err(|e| e.to_string())?),
                WriteKind::Incidents => {}
                WriteKind::Checkpoint => {
                    let cp = Checkpoint::decode(&w.bytes).map_err(|e| e.to_string())?;
                    let at = cp.committed_chunks;
                    let bound = rng.random_range(1..=8u64);
                    let (resumed, state) = run(&uninterrupted, Some((cp, &ring)), bound, &mut rng)
                        .map_err(|e| format!("resumed at {at}: {e}"))?;
                    let mut disk = files(&writes[..=i]);
                    disk.extend(files(&resumed));
                    if disk != reference_files || state != reference_state {
                        return Err(format!(
                            "resumed at {at}: the files or the report differ from the \
                             uninterrupted run's"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// 10 000 seeds, interleaved over a few threads.
    #[test]
    fn seeded_schedules_commit_in_order_and_resume_exactly() {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4)) as u64;
        std::thread::scope(|s| {
            for first in 0..threads {
                s.spawn(move || {
                    for seed in (first..10_000).step_by(threads as usize) {
                        if let Err(why) = run_schedule(seed) {
                            panic!("{why} — replay with: run_schedule({seed}).unwrap()");
                        }
                    }
                });
            }
        });
    }
}
