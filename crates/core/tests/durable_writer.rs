//! The runner's ordered durable writer, seen from outside: a disk that
//! fails mid-run ends the run with the writer's own error and nothing
//! written behind it, and `/metrics` tells checkpoint, window and
//! incident fsyncs apart.

use spoofwatch_asgraph::As2Org;
use spoofwatch_bgp::{Announcement, AsPath};
use spoofwatch_core::runner::rollup::window_file_name;
use spoofwatch_core::{
    read_incident_log, read_ring, CheckpointStore, ChunkSource, Classifier, DetectConfig,
    RollupConfig, RunnerConfig, RunnerError, RunnerObs, StudyRunner,
};
use spoofwatch_ixp::chunked::{ChunkedIpfixReader, FlowChunk};
use spoofwatch_ixp::ipfix;
use spoofwatch_net::{Asn, FlowRecord, Proto};
use spoofwatch_obs::{MetricsRegistry, Tracer};
use std::path::PathBuf;
use std::sync::mpsc;
use std::time::Duration;

const CHUNK: usize = 20;
const WINDOW_CHUNKS: u64 = 4;
const CHUNKS: u64 = 120;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spoofwatch-durable-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch");
    dir
}

fn classifier() -> Classifier {
    let ann = Announcement::new("20.0.0.0/8".parse().expect("prefix"), AsPath::from(vec![3]));
    Classifier::build(&[ann], &As2Org::new())
}

/// 30 windows of valid traffic from one member; every tenth window is
/// mostly random bogon sources, so the burst detector fires.
fn trace() -> Vec<u8> {
    let per_window = CHUNK as u32 * WINDOW_CHUNKS as u32;
    let mut x = 0x2545_F491u32;
    let flows: Vec<FlowRecord> = (0..CHUNKS as u32 * CHUNK as u32)
        .map(|i| {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let pulse = (i / per_window) % 10 == 5 && i % 5 != 0;
            FlowRecord {
                ts: i,
                src: if pulse { 0x0A00_0000 } else { 0x1400_0000 } | (x >> 8),
                dst: 0x0808_0808,
                proto: Proto::Udp,
                sport: 1000,
                dport: 53,
                packets: 1,
                bytes: 60,
                pkt_size: 60,
                member: Asn(3),
                ttl: 60,
            }
        })
        .collect();
    ipfix::encode(&flows)
}

fn config() -> RunnerConfig {
    RunnerConfig {
        workers: 2,
        queue_depth: 4,
        checkpoint_every: 2,
        ..RunnerConfig::default()
    }
}

fn rollup(ring: &PathBuf) -> RollupConfig {
    let mut r = RollupConfig::new(ring, WINDOW_CHUNKS);
    r.detect = Some(DetectConfig::default());
    r
}

/// Yields `inner`'s chunks, running `sabotage` just before chunk
/// `at_seq` is handed out, and counts what was pulled.
struct Sabotaged<'a, F: FnMut()> {
    inner: ChunkedIpfixReader<'a>,
    at_seq: u64,
    sabotage: F,
    pulled: u64,
}

impl<F: FnMut()> ChunkSource for Sabotaged<'_, F> {
    fn fingerprint(&self) -> u64 {
        self.inner.fingerprint()
    }

    fn seek(&mut self, byte_cursor: u64, seq: u64) {
        self.inner.seek(byte_cursor, seq);
    }

    fn next_chunk(&mut self) -> Option<FlowChunk> {
        let chunk = self.inner.next_chunk()?;
        if chunk.seq == self.at_seq {
            (self.sabotage)();
        }
        self.pulled += 1;
        Some(chunk)
    }
}

#[test]
fn unwritable_window_ends_the_run_with_the_writers_error_and_nothing_behind_it() {
    let dir = scratch("io-error");
    let (ckpt, ring) = (dir.join("ckpt"), dir.join("ring"));
    let (done_tx, done_rx) = mpsc::channel();
    let (ckpt_in, ring_in) = (ckpt.clone(), ring.clone());
    // A free-standing thread, so that a run that hangs fails the test
    // at the timeout below instead of hanging it.
    std::thread::spawn(move || {
        let classifier = classifier();
        let bytes = trace();
        let store = CheckpointStore::open(&ckpt_in).expect("open store");
        // While window 1 is filling, its file name becomes a directory:
        // the writer's rename of the closed window onto it must fail.
        let blocked = ring_in.join(window_file_name(1));
        let mut source = Sabotaged {
            inner: ChunkedIpfixReader::new(&bytes, CHUNK),
            at_seq: WINDOW_CHUNKS + 1,
            sabotage: || std::fs::create_dir(&blocked).expect("create blocker"),
            pulled: 0,
        };
        // Watchdog on, as deployed: the run must join it on this path too.
        let result = StudyRunner::new(&classifier, config())
            .with_rollups(rollup(&ring_in))
            .run(&mut source, &store);
        let _ = done_tx.send((result.map(|_| ()), source.pulled));
    });
    let (result, pulled) = done_rx
        .recv_timeout(Duration::from_secs(60))
        .expect("the run returns: no hung worker, watchdog or writer");

    // The kind the same rename yields when done by hand.
    let probe = dir.join("probe");
    std::fs::write(&probe, b"x").expect("write probe");
    let expected = std::fs::rename(&probe, ring.join(window_file_name(1)))
        .expect_err("a file cannot replace a directory")
        .kind();
    match result {
        Err(RunnerError::Io(e)) => assert_eq!(e.kind(), expected, "{e}"),
        other => panic!("expected the writer's I/O error, got {other:?}"),
    }
    // Reported at a hand-off, not at end of trace: the queue behind the
    // failed job holds a few jobs, the trace behind it 110 chunks.
    assert!(
        pulled < CHUNKS,
        "the feeder read the whole trace ({pulled} chunks)"
    );

    // The disk holds exactly the jobs ahead of the failed one: window 0
    // and the checkpoints at chunks 2, 4 and 6 — the checkpoint at
    // chunk 8 was queued behind window 1.
    let mut names: Vec<String> = std::fs::read_dir(&ring)
        .expect("list ring")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .filter(|n| !n.ends_with(".tmp"))
        .collect();
    names.sort();
    assert_eq!(names, [window_file_name(0), window_file_name(1)]);
    assert!(ring.join(window_file_name(1)).is_dir());
    let store = CheckpointStore::open(&ckpt).expect("reopen store");
    let (loaded, faults) = store.load_latest();
    assert!(faults.is_empty());
    assert_eq!(loaded.expect("a checkpoint").0.committed_chunks, 6);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn metrics_tell_the_three_kinds_of_durable_write_apart() {
    let dir = scratch("metrics");
    let (ckpt, ring) = (dir.join("ckpt"), dir.join("ring"));
    let classifier = classifier();
    let bytes = trace();
    let store = CheckpointStore::open(&ckpt).expect("open store");
    let metrics = MetricsRegistry::new();
    let report = StudyRunner::new(&classifier, config())
        .with_rollups(rollup(&ring))
        .with_obs(RunnerObs::new(metrics.clone(), Tracer::disabled()))
        .run(&mut ChunkedIpfixReader::new(&bytes, CHUNK), &store)
        .expect("run completes");

    let windows = read_ring(&ring).expect("read ring").0.len() as u64;
    let incident_files = std::fs::read_dir(&ring)
        .expect("list ring")
        .filter(|e| {
            let name = e.as_ref().expect("entry").file_name();
            name.to_string_lossy().starts_with("incidents-")
        })
        .count() as u64;
    assert_eq!(windows, CHUNKS / WINDOW_CHUNKS);
    assert!(incident_files >= 1 && !read_incident_log(&ring).expect("read log").0.is_empty());
    assert_eq!(report.health.checkpoints_written, CHUNKS / 2 + 1);

    let snap = metrics.snapshot();
    for (kind, writes) in [
        ("checkpoint", report.health.checkpoints_written),
        ("window", windows),
        ("incident", incident_files),
    ] {
        let name = format!("spoofwatch_runner_{kind}_write_duration_ns");
        let hist = snap
            .histogram(&name, &[])
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(hist.count, writes, "{name}");
    }
    assert!(
        snap.counter("spoofwatch_runner_commit_blocked_on_writer_ns_total", &[])
            .is_some(),
        "the feeder's wait on the writer is exported"
    );
    let _ = std::fs::remove_dir_all(dir);
}
