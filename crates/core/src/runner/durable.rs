//! The ordered durable writer: every fsync of a run, off the commit
//! thread.
//!
//! The feeder is the one serial thread of a run — it decodes,
//! dispatches and commits — so a `sync_all` on it idles every worker
//! behind the chunk queue. The commit path therefore only *encodes*: a
//! checkpoint, a closed window or an incident file becomes a finished
//! [`DurableWrite`] and is handed to one writer thread over a bounded
//! FIFO channel. That thread is the only code of a run that calls
//! [`write_durable`].
//!
//! * **Order.** One queue, one consumer: writes reach the disk in the
//!   order the commit path produced them (window W → incidents W →
//!   checkpoint), so the disk always holds a *prefix* of that order — a
//!   state the inline code could also have been killed in. Against a
//!   killed process that holds as written. Against a power loss it rests
//!   on the filesystem persisting its metadata operations in order:
//!   [`write_durable`] fsyncs each file but never its directory, so a
//!   rename may be lost while a later one survives. ROADMAP item 7's
//!   segment log fsyncs each segment's directory once; a directory fsync
//!   per write here would add one fsync to every write.
//! * **Commit point.** A write counts once the writer has acknowledged
//!   it, not once it is queued: [`DurableQueue::finish`] drains and
//!   joins, and the runner calls it on every return path.
//! * **Errors.** The writer stops at its first I/O error and drops the
//!   queue with everything behind the failed write unwritten; the
//!   feeder's next hand-off fails, and `finish` yields the error.
//! * **Backpressure.** A full queue blocks the feeder — lossless, like
//!   the chunk queue — and the blocked time is exported.

use super::obs::{RunMetrics, RunnerObs};
use std::fs;
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::thread::{Scope, ScopedJoinHandle};

/// Writes the commit path may run ahead of the disk by. One window close
/// hands off at most three (window, incidents, checkpoint), each a
/// buffer of tens of kilobytes.
const QUEUE_DEPTH: usize = 8;

/// What a [`DurableWrite`] persists; selects the writer's duration
/// histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WriteKind {
    Checkpoint,
    Window,
    Incidents,
}

/// One finished buffer and where it goes.
#[derive(Debug, Clone)]
pub(crate) struct DurableWrite {
    pub kind: WriteKind,
    /// Scratch sibling of `dest`, the only file a crash can tear.
    pub tmp: PathBuf,
    pub dest: PathBuf,
    /// Where the old `dest` is moved aside to, when it is kept.
    pub keep_old: Option<PathBuf>,
    pub bytes: Vec<u8>,
}

/// Durably replace `dest` with `bytes`: write and fsync `tmp`, move the
/// old `dest` aside to `keep_old` when one is named, then rename `tmp`
/// into place — so a crash at any instruction tears only `tmp`.
/// Everything `core` persists (checkpoints, ring windows, incident
/// files) goes through here.
pub(crate) fn write_durable(w: &DurableWrite) -> io::Result<()> {
    {
        let mut f = fs::File::create(&w.tmp)?;
        f.write_all(&w.bytes)?;
        f.sync_all()?;
    }
    if let Some(previous) = w.keep_old.as_ref().filter(|_| w.dest.exists()) {
        fs::rename(&w.dest, previous)?;
    }
    fs::rename(&w.tmp, &w.dest)
}

/// What the writer thread hands back when joined.
pub(super) struct WriterReport {
    /// Checkpoints renamed into place by this run.
    pub checkpoints_written: u64,
    /// The first I/O error, after which nothing more was written.
    pub result: io::Result<()>,
}

/// The feeder's end of the queue.
pub(super) struct DurableQueue<'scope, 'env> {
    tx: SyncSender<DurableWrite>,
    writer: ScopedJoinHandle<'scope, WriterReport>,
    rm: &'env RunMetrics,
    obs: &'env RunnerObs,
}

impl<'scope, 'env> DurableQueue<'scope, 'env> {
    /// Spawn the writer thread in `scope`. `apply` executes one write
    /// ([`write_durable`], except where a test records the write list).
    pub fn spawn<A>(
        scope: &'scope Scope<'scope, 'env>,
        apply: &'env A,
        rm: &'env RunMetrics,
        obs: &'env RunnerObs,
    ) -> Self
    where
        A: Fn(&DurableWrite) -> io::Result<()> + Sync,
    {
        let (tx, rx) = mpsc::sync_channel(QUEUE_DEPTH);
        let writer = scope.spawn(move || writer_loop(rx, apply, rm, obs));
        DurableQueue {
            tx,
            writer,
            rm,
            obs,
        }
    }

    /// Hand one write to the writer, blocking while the queue is full.
    /// Fails once the writer has stopped; [`Self::finish`] has its
    /// error.
    pub fn submit(&self, write: DurableWrite) -> io::Result<()> {
        let sent = match self.tx.try_send(write) {
            Ok(()) => true,
            Err(TrySendError::Disconnected(_)) => false,
            Err(TrySendError::Full(write)) => {
                let t0 = self.obs.clock.now_ns();
                let sent = self.tx.send(write);
                self.rm.commit_blocked_ns.add(self.obs.clock.since_ns(t0));
                sent.is_ok()
            }
        };
        if sent {
            Ok(())
        } else {
            Err(io::Error::other("durable writer stopped"))
        }
    }

    /// Close the queue, wait until the writer has acknowledged every
    /// write handed off so far, and collect its verdict.
    pub fn finish(self) -> WriterReport {
        drop(self.tx);
        let t0 = self.obs.clock.now_ns();
        let report = self
            .writer
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        self.rm.commit_blocked_ns.add(self.obs.clock.since_ns(t0));
        report
    }
}

fn writer_loop<A>(
    rx: Receiver<DurableWrite>,
    apply: &A,
    rm: &RunMetrics,
    obs: &RunnerObs,
) -> WriterReport
where
    A: Fn(&DurableWrite) -> io::Result<()>,
{
    let mut checkpoints_written = 0;
    // Returning drops `rx`: the writes still queued are never made and
    // the feeder's next send fails.
    for w in rx {
        let t0 = obs.clock.now_ns();
        if let Err(e) = apply(&w) {
            return WriterReport {
                checkpoints_written,
                result: Err(e),
            };
        }
        let write_ns = match w.kind {
            WriteKind::Checkpoint => {
                checkpoints_written += 1;
                rm.checkpoints_written.inc();
                &rm.checkpoint_write_ns
            }
            WriteKind::Window => &rm.window_write_ns,
            WriteKind::Incidents => &rm.incident_write_ns,
        };
        write_ns.record(obs.clock.since_ns(t0));
    }
    WriterReport {
        checkpoints_written,
        result: Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::super::{
        read_ring, CheckpointStore, RollupConfig, RunReport, RunnerConfig, StudyRunner,
    };
    use super::*;
    use crate::detect::{read_incident_log, DetectConfig};
    use crate::pipeline::Classifier;
    use spoofwatch_asgraph::As2Org;
    use spoofwatch_bgp::{Announcement, AsPath};
    use spoofwatch_ixp::chunked::ChunkedIpfixReader;
    use spoofwatch_net::{Asn, FlowRecord, Proto};
    use std::collections::BTreeMap;
    use std::path::Path;
    use std::sync::Mutex;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("swdw-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn window_write(dir: &Path, name: &str) -> DurableWrite {
        DurableWrite {
            kind: WriteKind::Window,
            tmp: dir.join("w.tmp"),
            dest: dir.join(name),
            keep_old: None,
            bytes: vec![1, 2, 3],
        }
    }

    #[test]
    fn writer_stops_at_the_first_error_and_writes_nothing_behind_it() {
        let dir = scratch("error");
        // A destination that is a directory: the rename cannot succeed.
        fs::create_dir(dir.join("blocked")).unwrap();
        let expected = write_durable(&window_write(&dir, "blocked"))
            .unwrap_err()
            .kind();

        let obs = RunnerObs::disabled();
        let rm = RunMetrics::new(&obs.metrics);
        let (accepted, report) = std::thread::scope(|s| {
            let queue = DurableQueue::spawn(s, &write_durable, &rm, &obs);
            queue.submit(window_write(&dir, "first")).unwrap();
            queue.submit(window_write(&dir, "blocked")).unwrap();
            // Behind the failing job the feeder is told at a hand-off,
            // after at most a queue's worth of jobs that are then
            // dropped unwritten.
            let mut accepted = 0;
            while queue
                .submit(window_write(&dir, &format!("after-{accepted}")))
                .is_ok()
            {
                accepted += 1;
                assert!(accepted <= QUEUE_DEPTH, "hand-offs kept succeeding");
            }
            (accepted, queue.finish())
        });
        assert_eq!(report.result.unwrap_err().kind(), expected);
        assert_eq!(report.checkpoints_written, 0);
        assert!(dir.join("first").is_file());
        for n in 0..=accepted {
            assert!(
                !dir.join(format!("after-{n}")).exists(),
                "after-{n} reached the disk"
            );
        }
        let _ = fs::remove_dir_all(dir);
    }

    /// 12 windows of 4 chunks of 25 flows from one member; in windows 4
    /// and 9 most sources are random bogons, which fires the burst
    /// detector.
    fn pulse_trace() -> Vec<u8> {
        let mut flows = Vec::new();
        let mut x = 0x9E37_79B9u32;
        for i in 0..1200u32 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let pulse = matches!(i / 100, 4 | 9) && i % 5 != 0;
            flows.push(FlowRecord {
                ts: i,
                src: if pulse {
                    0x0A00_0000 | (x >> 8)
                } else {
                    0x1400_0000 | (x >> 8)
                },
                dst: 0x0808_0808,
                proto: Proto::Udp,
                sport: 1000 + (x & 0xFF) as u16,
                dport: 53,
                packets: 1 + (x & 3),
                bytes: 60 * u64::from(1 + (x & 3)),
                pkt_size: 60,
                member: Asn(3),
                ttl: 60,
            });
        }
        spoofwatch_ixp::ipfix::encode(&flows)
    }

    /// Every file under `dir` except torn-able `*.tmp`, by name.
    fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
        fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_none_or(|x| x != "tmp"))
            .map(|p| {
                (
                    p.file_name().unwrap().to_string_lossy().into_owned(),
                    fs::read(&p).unwrap(),
                )
            })
            .collect()
    }

    /// What `interrupt_after_chunks` cannot show, because it drains the
    /// writer: a process kill leaves the disk at an arbitrary *prefix*
    /// of the writer's job order, possibly with the next job torn in its
    /// tmp file. From every such state a resumed run must end with the
    /// uninterrupted run's report, ring and incident log, byte for byte.
    #[test]
    fn resume_from_every_prefix_of_the_job_order_matches_the_uninterrupted_run() {
        let ann = Announcement::new("20.0.0.0/8".parse().unwrap(), AsPath::from(vec![3]));
        let classifier = Classifier::build(&[ann], &As2Org::new());
        let bytes = pulse_trace();
        let dir = scratch("prefix");
        let (ckpt, ring) = (dir.join("ckpt"), dir.join("ring"));
        let mut rollup = RollupConfig::new(&ring, 4);
        rollup.detect = Some(DetectConfig::default());
        let runner = StudyRunner::new(
            &classifier,
            RunnerConfig {
                workers: 2,
                queue_depth: 4,
                checkpoint_every: 2,
                stall_timeout_ms: 0,
                track_disagreement: true,
                ..RunnerConfig::default()
            },
        )
        .with_rollups(rollup);
        let fresh_dirs = || {
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&ring).unwrap();
            CheckpointStore::open(&ckpt).unwrap()
        };
        let outputs = |report: &RunReport| {
            let (windows, torn) = read_ring(&ring).unwrap();
            assert!(torn.is_empty());
            let (incidents, torn) = read_incident_log(&ring).unwrap();
            assert!(torn.is_empty());
            assert!(report.health.reconciles());
            (
                windows.len(),
                incidents.len(),
                files(&ring),
                fs::read(ckpt.join("checkpoint.bin")).unwrap(),
            )
        };

        // The uninterrupted run, its writer recording each job it ran.
        let log = Mutex::new(Vec::new());
        let store = fresh_dirs();
        let reference = runner
            .run_applying(
                &mut ChunkedIpfixReader::new(&bytes, 25),
                &store,
                &|w: &DurableWrite| {
                    write_durable(w)?;
                    log.lock().unwrap().push(w.clone());
                    Ok(())
                },
            )
            .unwrap();
        let jobs = log.into_inner().unwrap();
        let expected = outputs(&reference);
        assert_eq!(expected.0, 12, "windows");
        assert!(expected.1 >= 2, "the pulses must fire incidents");
        let kinds = |k| jobs.iter().filter(|w| w.kind == k).count();
        assert_eq!(
            kinds(WriteKind::Checkpoint),
            25,
            "one per 2 of 48 chunks, and the terminal one"
        );
        assert_eq!(kinds(WriteKind::Window), 12);
        assert!(kinds(WriteKind::Incidents) >= 2);

        for k in 0..=jobs.len() {
            for torn_next in [false, true] {
                let next = match jobs.get(k) {
                    Some(w) if torn_next => Some(w),
                    _ if torn_next => continue,
                    _ => None,
                };
                let store = fresh_dirs();
                for w in &jobs[..k] {
                    write_durable(w).unwrap();
                }
                if let Some(w) = next {
                    fs::write(&w.tmp, &w.bytes[..w.bytes.len() / 2]).unwrap();
                }
                let resumed = runner
                    .run(&mut ChunkedIpfixReader::new(&bytes, 25), &store)
                    .unwrap_or_else(|e| panic!("resume after {k} jobs (torn {torn_next}): {e}"));
                assert!(
                    resumed.same_result(&reference),
                    "report after {k} jobs (torn {torn_next})"
                );
                assert!(
                    outputs(&resumed) == expected,
                    "ring, incident log or checkpoint after {k} jobs (torn {torn_next})"
                );
            }
        }
        let _ = fs::remove_dir_all(dir);
    }
}
