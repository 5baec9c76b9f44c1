//! Windowed telemetry rollups: fixed-interval snapshots of the runner's
//! accounting into a CRC-framed ring of files.
//!
//! Every `window_chunks` committed chunks, the runner closes a
//! [`WindowAccum`] — per-class flow counts, record/chunk accounting
//! deltas, ingest deltas, the fault taxonomy, and (when tracked) the
//! window's method-disagreement matrix — and writes it as one file in
//! the rollup directory, framed exactly like a checkpoint (`"SWRW"` |
//! version | payload length | payload | crc32, written tmp + fsync +
//! rename). The ring is therefore torn-file-safe: a crash mid-write
//! tears only a tmp file, and [`read_ring`] reports any corrupt window
//! alongside the valid ones instead of trusting it. The writer touches
//! no file: the runner's commit rules (`runner::commit`) encode a closed
//! window, its ordered durable writer (`runner::durable`) writes it
//! ahead of the checkpoint that records it closed.
//!
//! Resume exactness: the in-progress accumulator rides inside the
//! runner's [`super::Checkpoint`], and commits are strictly sequential,
//! so a window's file content is a pure function of the trace and the
//! config — an interrupted-and-resumed run rewrites byte-identical
//! windows.
//!
//! A window-over-window drift watch compares per-class traffic shares
//! between consecutive closed windows; a change beyond
//! `DRIFT_THRESHOLD` (10 share points) emits a `class_share_drift`
//! flight recorder event and bumps
//! `spoofwatch_rollup_drift_breaches_total`.

use super::checkpoint::{get_accounting, get_ingest, put_accounting, put_ingest, CheckpointError};
use super::durable::{write_durable, DurableWrite, WriteKind};
use super::obs::{class_label, RunnerObs};
use super::{FlowAccounting, IngestTotals};
use crate::detect::{incident_write, DetectConfig, DetectEngine, IncidentKind, WindowDetect};
use crate::provenance::DisagreementMatrix;
use serde::Serialize;
use spoofwatch_net::codec::WireReader;
use spoofwatch_net::{wire, TrafficClass};
use spoofwatch_obs::{Counter, Gauge, Tracer};
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const ROLLUP_MAGIC: &[u8; 4] = b"SWRW";

/// Absolute per-class traffic-share change (0.0–1.0) between
/// consecutive windows that counts as drift.
pub const DRIFT_THRESHOLD: f64 = 0.10;

/// Policy for the rollup writer.
#[derive(Debug, Clone)]
pub struct RollupConfig {
    /// Directory holding the window ring.
    pub dir: PathBuf,
    /// Committed chunks per window (minimum 1). Windows are the fixed
    /// chunk ranges `[w·N, (w+1)·N)`, independent of checkpoint cadence.
    pub window_chunks: u64,
    /// Online detection over closed windows ([`crate::detect`]). When
    /// set, every processed chunk also accumulates a [`WindowDetect`]
    /// payload, the detector bank observes each closed window, and
    /// incidents are persisted in the incident log alongside the ring.
    /// The ring keeps every window, so a resumed run rebuilds the
    /// engine exactly by re-folding it.
    pub detect: Option<DetectConfig>,
}

impl RollupConfig {
    /// A config without online detection.
    pub fn new(dir: impl Into<PathBuf>, window_chunks: u64) -> RollupConfig {
        RollupConfig {
            dir: dir.into(),
            window_chunks: window_chunks.max(1),
            detect: None,
        }
    }
}

/// One rollup window: the registry-visible deltas accumulated over a
/// fixed range of committed chunks. This is both the checkpointable
/// in-progress accumulator and the payload of a closed window file.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct WindowAccum {
    /// Window ordinal; the window covers chunks
    /// `[start_chunk, start_chunk + chunks)`.
    pub window_index: u64,
    /// First chunk sequence in the window.
    pub start_chunk: u64,
    /// Chunks committed into the window so far.
    pub chunks: u64,
    /// Flows in processed chunks by [`TrafficClass::index`].
    pub class_flows: [u64; 4],
    /// Record-level accounting delta for the window.
    pub records: FlowAccounting,
    /// Chunk-level accounting delta for the window.
    pub chunk_outcomes: FlowAccounting,
    /// Ingest decode-health delta for the window.
    pub ingest: IngestTotals,
    /// Decoder fault taxonomy delta, indexed by
    /// [`spoofwatch_net::FaultKind::index`].
    pub fault_counts: [u64; 5],
    /// The window's method-disagreement matrix, when the run tracks it.
    pub disagreement: Option<DisagreementMatrix>,
    /// The window's detection payload, when the run detects online.
    pub detect: Option<WindowDetect>,
}

impl WindowAccum {
    /// A fresh, empty accumulator for the window starting at
    /// `start_chunk`.
    pub fn start(window_index: u64, start_chunk: u64) -> WindowAccum {
        WindowAccum {
            window_index,
            start_chunk,
            chunks: 0,
            class_flows: [0; 4],
            records: FlowAccounting::default(),
            chunk_outcomes: FlowAccounting::default(),
            ingest: IngestTotals::default(),
            fault_counts: [0; 5],
            disagreement: None,
            detect: None,
        }
    }

    /// Total flows in the window's processed chunks.
    pub fn total_flows(&self) -> u64 {
        self.class_flows.iter().sum()
    }

    /// Per-class traffic shares (each 0.0–1.0; all zero for a window
    /// with no processed flows).
    pub fn class_shares(&self) -> [f64; 4] {
        let total = self.total_flows();
        if total == 0 {
            return [0.0; 4];
        }
        self.class_flows.map(|n| n as f64 / total as f64)
    }

    /// Serialize into `out` (all integers big-endian; the optional
    /// matrix and detect payload behind one flags byte — bit 0 =
    /// disagreement, bit 1 = detect. A window without a detect payload
    /// encodes byte-identically to the pre-detect format, so old rings
    /// and checkpointed accumulators still decode).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        for v in [self.window_index, self.start_chunk, self.chunks] {
            out.extend_from_slice(&v.to_be_bytes());
        }
        for v in self.class_flows {
            out.extend_from_slice(&v.to_be_bytes());
        }
        put_accounting(out, &self.records);
        put_accounting(out, &self.chunk_outcomes);
        put_ingest(out, &self.ingest);
        for v in self.fault_counts {
            out.extend_from_slice(&v.to_be_bytes());
        }
        let flags =
            u8::from(self.disagreement.is_some()) | (u8::from(self.detect.is_some()) << 1);
        out.push(flags);
        if let Some(d) = &self.disagreement {
            d.encode_into(out);
        }
        if let Some(d) = &self.detect {
            d.encode_into(out);
        }
    }

    /// Decode at the cursor, advancing it. `None` on truncated or
    /// structurally invalid input.
    pub fn decode_from(r: &mut WireReader<'_>) -> Option<WindowAccum> {
        let window_index = r.u64()?;
        let start_chunk = r.u64()?;
        let chunks = r.u64()?;
        let mut class_flows = [0u64; 4];
        for v in &mut class_flows {
            *v = r.u64()?;
        }
        let records = get_accounting(r)?;
        let chunk_outcomes = get_accounting(r)?;
        let ingest = get_ingest(r)?;
        let mut fault_counts = [0u64; 5];
        for v in &mut fault_counts {
            *v = r.u64()?;
        }
        let flags = r.u8()?;
        if flags & !0b11 != 0 {
            return None;
        }
        let disagreement = if flags & 0b01 != 0 {
            Some(DisagreementMatrix::decode_from(r)?)
        } else {
            None
        };
        let detect = if flags & 0b10 != 0 {
            Some(WindowDetect::decode_from(r)?)
        } else {
            None
        };
        Some(WindowAccum {
            window_index,
            start_chunk,
            chunks,
            class_flows,
            records,
            chunk_outcomes,
            ingest,
            fault_counts,
            disagreement,
            detect,
        })
    }
}

/// File name of window `index` inside a rollup directory.
pub fn window_file_name(index: u64) -> String {
    format!("window-{index:010}.bin")
}

/// Atomically write one closed window into `dir` (tmp + fsync +
/// rename), returning the file path.
pub fn write_window(dir: &Path, w: &WindowAccum) -> io::Result<PathBuf> {
    let write = window_write(dir, w);
    write_durable(&write)?;
    Ok(write.dest)
}

/// The durable write that puts closed window `w` into the ring at
/// `dir`.
fn window_write(dir: &Path, w: &WindowAccum) -> DurableWrite {
    let mut payload = Vec::with_capacity(256);
    w.encode_into(&mut payload);
    DurableWrite {
        kind: WriteKind::Window,
        tmp: dir.join("window.tmp"),
        dest: dir.join(window_file_name(w.window_index)),
        keep_old: None,
        bytes: wire::frame_encode(ROLLUP_MAGIC, &payload),
    }
}

/// Parse and verify one window file's bytes.
pub fn decode_window(data: &[u8]) -> Result<WindowAccum, CheckpointError> {
    let payload = wire::frame_decode(ROLLUP_MAGIC, data)?;
    let mut r = WireReader::new(payload);
    WindowAccum::decode_from(&mut r)
        .filter(|_| r.done())
        .ok_or(CheckpointError::Malformed)
}

/// Read every window in a rollup directory, sorted by window index.
/// Corrupt or torn files are reported as faults, never trusted; a
/// missing directory reads as an empty ring.
#[allow(clippy::type_complexity)]
pub fn read_ring(dir: &Path) -> io::Result<(Vec<WindowAccum>, Vec<(PathBuf, CheckpointError)>)> {
    let (mut windows, faults) = scan_indexed(dir, "window-", decode_window)?;
    windows.sort_by_key(|w| w.window_index);
    Ok((windows, faults))
}

/// Decode every `{prefix}{index}.bin` file in `dir`, in index order,
/// splitting what decodes from the files that do not. The ring and the
/// incident log share a directory and this scan; a missing directory
/// reads as empty (a run's first start has none yet).
#[allow(clippy::type_complexity)]
pub(crate) fn scan_indexed<T, E>(
    dir: &Path,
    prefix: &str,
    decode: impl Fn(&[u8]) -> Result<T, E>,
) -> io::Result<(Vec<T>, Vec<(PathBuf, E)>)> {
    let index_of = |path: &Path| -> Option<u64> {
        let name = path.file_name()?.to_str()?;
        name.strip_prefix(prefix)?.strip_suffix(".bin")?.parse().ok()
    };
    let mut files = Vec::new();
    match fs::read_dir(dir) {
        Ok(entries) => {
            for entry in entries {
                let path = entry?.path();
                if let Some(i) = index_of(&path) {
                    files.push((i, path));
                }
            }
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    files.sort();
    let mut items = Vec::new();
    let mut faults = Vec::new();
    for (_, path) in files {
        match decode(&fs::read(&path)?) {
            Ok(item) => items.push(item),
            Err(e) => faults.push((path, e)),
        }
    }
    Ok((items, faults))
}

/// Commit-side view of one chunk's disposition, fed to
/// [`RollupWriter::absorb`].
pub(super) enum WindowCommit<'a> {
    /// Classified; per-class flow counts and (when tracked) the chunk's
    /// disagreement matrix and detection payload ride along.
    Processed {
        class_flows: [u64; 4],
        matrix: Option<&'a DisagreementMatrix>,
        detect: Option<&'a WindowDetect>,
    },
    /// Quarantined after a worker panic.
    Quarantined,
}

/// The runner-side rollup writer: accumulates per-commit deltas into the
/// current window, closes windows on their fixed chunk boundary, and
/// runs the drift watch and the detector bank. It touches no file: what
/// a closed window persists (the window, then its incidents) is pushed,
/// in disk order, onto the write list the commit path hands to the
/// durable writer.
pub(super) struct RollupWriter {
    cfg: RollupConfig,
    accum: WindowAccum,
    /// Shares of the previous *non-empty* closed window, for the drift
    /// watch. Rebuilt from the ring on resume.
    prev_shares: Option<[f64; 4]>,
    tracer: Arc<Tracer>,
    windows_written: Counter,
    drift_breaches: [Counter; 4],
    /// The streaming detector bank, when [`RollupConfig::detect`] is
    /// set. Rebuilt on resume by re-folding the on-disk ring.
    engine: Option<DetectEngine>,
    incident_counts: [Counter; 4],
    incident_last_window: [Gauge; 4],
}

impl RollupWriter {
    /// Position a writer at `committed_chunks`, restoring a checkpointed
    /// accumulator that ends there. `ring` is the windows on disk, which
    /// the caller reads ([`read_ring`]) after creating the directory.
    pub fn new(
        cfg: RollupConfig,
        obs: &RunnerObs,
        committed_chunks: u64,
        saved: Option<WindowAccum>,
        ring: &[WindowAccum],
    ) -> RollupWriter {
        let window = committed_chunks / cfg.window_chunks;
        // A saved accumulator ends at the cursor; a terminal one is the
        // empty window after the last, possibly partial, one.
        let accum = saved
            .filter(|a| a.start_chunk + a.chunks == committed_chunks)
            .unwrap_or_else(|| WindowAccum::start(window, window * cfg.window_chunks));
        let window = accum.window_index;
        // Drift continuity across resume: the most recent non-empty
        // window already on disk before the cursor seeds prev_shares.
        let prev_shares = ring
            .iter()
            .rev()
            .find(|w| w.window_index < window && w.total_flows() > 0)
            .map(WindowAccum::class_shares);
        // Detection continuity across resume: re-fold the already-closed
        // windows (strictly before the cursor's window) through a fresh
        // engine, discarding their incidents — they are already on disk.
        let engine = cfg.detect.clone().map(|dc| {
            let mut e = DetectEngine::new(dc);
            for w in ring.iter().filter(|w| w.window_index < window) {
                let _ = e.observe(w);
            }
            e
        });
        let reg = &obs.metrics;
        RollupWriter {
            accum,
            prev_shares,
            tracer: Arc::clone(&obs.tracer),
            windows_written: reg.counter(
                "spoofwatch_rollup_windows_total",
                "Rollup windows closed and written to the ring",
                &[],
            ),
            drift_breaches: TrafficClass::ALL.map(|c| {
                reg.counter(
                    "spoofwatch_rollup_drift_breaches_total",
                    "Window-over-window class-share changes beyond the drift threshold",
                    &[("class", class_label(c))],
                )
            }),
            engine,
            incident_counts: IncidentKind::LABELS.map(|kind| {
                reg.counter(
                    "spoofwatch_incident_total",
                    "Incidents fired by the online detectors",
                    &[("kind", kind)],
                )
            }),
            incident_last_window: IncidentKind::LABELS.map(|kind| {
                reg.gauge(
                    "spoofwatch_incident_last_window",
                    "Window index of the most recent incident of each kind",
                    &[("kind", kind)],
                )
            }),
            cfg,
        }
    }

    /// The in-progress accumulator (checkpointed alongside the runner
    /// state).
    pub fn accum(&self) -> &WindowAccum {
        &self.accum
    }

    /// Fold one committed chunk into the current window, then close the
    /// window if the chunk was its last.
    pub fn absorb(
        &mut self,
        records: u64,
        ingest: &IngestTotals,
        fault_counts: &[u64; 5],
        commit: WindowCommit<'_>,
        writes: &mut Vec<DurableWrite>,
    ) {
        let a = &mut self.accum;
        a.chunks += 1;
        a.chunk_outcomes.offered += 1;
        a.records.offered += records;
        a.ingest += *ingest;
        for (into, n) in a.fault_counts.iter_mut().zip(fault_counts) {
            *into += n;
        }
        match commit {
            WindowCommit::Processed {
                class_flows,
                matrix,
                detect,
            } => {
                a.chunk_outcomes.processed += 1;
                a.records.processed += records;
                for (into, n) in a.class_flows.iter_mut().zip(class_flows) {
                    *into += n;
                }
                if let Some(m) = matrix {
                    a.disagreement
                        .get_or_insert_with(DisagreementMatrix::new)
                        .merge(m);
                }
                if let Some(d) = detect {
                    a.detect.get_or_insert_with(WindowDetect::new).merge(d);
                }
            }
            WindowCommit::Quarantined => {
                a.chunk_outcomes.quarantined += 1;
                a.records.quarantined += records;
            }
        }
        if a.chunks >= self.cfg.window_chunks {
            self.close(writes);
        }
    }

    /// Close the final partial window at end of stream, if non-empty.
    pub fn flush(&mut self, writes: &mut Vec<DurableWrite>) {
        if self.accum.chunks > 0 {
            self.close(writes);
        }
    }

    fn close(&mut self, writes: &mut Vec<DurableWrite>) {
        writes.push(window_write(&self.cfg.dir, &self.accum));
        self.windows_written.inc();
        self.observe_incidents(writes);
        self.watch_drift();
        let next = self.accum.window_index + 1;
        let next_start = self.accum.start_chunk + self.accum.chunks;
        self.accum = WindowAccum::start(next, next_start);
    }

    /// Feed the just-closed window to the detector bank; persist any
    /// incidents in the incident log and surface them via metrics and
    /// the flight recorder. Incident files are only written for windows
    /// that fired.
    fn observe_incidents(&mut self, writes: &mut Vec<DurableWrite>) {
        let Some(engine) = &mut self.engine else {
            return;
        };
        let records = engine.observe(&self.accum);
        if records.is_empty() {
            return;
        }
        writes.push(incident_write(
            &self.cfg.dir,
            self.accum.window_index,
            &records,
        ));
        for r in &records {
            let i = r.incident.kind.index();
            self.incident_counts[i].inc();
            self.incident_last_window[i].set(r.incident.window_index as i64);
            self.tracer.event(
                "incident",
                &[
                    ("window", r.incident.window_index.into()),
                    ("kind", r.incident.kind.label().into()),
                    ("summary", r.incident.summary().into()),
                ],
            );
        }
    }

    /// Compare the just-closed window's class shares against the
    /// previous non-empty window's; breaches raise flight-recorder
    /// events and counters. Empty windows neither fire nor reset the
    /// baseline (a share of nothing is undefined, not zero).
    fn watch_drift(&mut self) {
        if self.accum.total_flows() == 0 {
            return;
        }
        let shares = self.accum.class_shares();
        if let Some(prev) = self.prev_shares {
            for (i, class) in TrafficClass::ALL.iter().enumerate() {
                let delta = (shares[i] - prev[i]).abs();
                if delta > DRIFT_THRESHOLD {
                    self.drift_breaches[i].inc();
                    self.tracer.event(
                        "class_share_drift",
                        &[
                            ("window", self.accum.window_index.into()),
                            ("class", class_label(*class).into()),
                            ("previous_share", prev[i].into()),
                            ("share", shares[i].into()),
                            ("delta", delta.into()),
                        ],
                    );
                }
            }
        }
        self.prev_shares = Some(shares);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spoofwatch_obs::{MetricsRegistry, Tracer};

    fn accum(index: u64, class_flows: [u64; 4]) -> WindowAccum {
        let mut w = WindowAccum::start(index, index * 4);
        w.chunks = 4;
        w.class_flows = class_flows;
        w.records = FlowAccounting {
            offered: class_flows.iter().sum(),
            processed: class_flows.iter().sum(),
            shed: 0,
            quarantined: 0,
        };
        w.chunk_outcomes = FlowAccounting {
            offered: 4,
            processed: 4,
            shed: 0,
            quarantined: 0,
        };
        w.fault_counts = [0, 0, 1, 0, 2];
        w
    }

    fn ring_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "swrw-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn accum_codec_roundtrip() {
        let mut w = accum(7, [1, 2, 3, 94]);
        let mut m = DisagreementMatrix::new();
        m.record(&[TrafficClass::Valid; 5]);
        w.disagreement = Some(m);
        let mut buf = Vec::new();
        w.encode_into(&mut buf);
        let mut r = WireReader::new(&buf);
        assert_eq!(WindowAccum::decode_from(&mut r), Some(w.clone()));
        assert!(r.done());
        // Without the matrix too.
        w.disagreement = None;
        let mut buf = Vec::new();
        w.encode_into(&mut buf);
        assert_eq!(WindowAccum::decode_from(&mut WireReader::new(&buf)), Some(w));
        // Every truncation fails clean.
        for cut in 0..buf.len() {
            assert!(WindowAccum::decode_from(&mut WireReader::new(&buf[..cut])).is_none());
        }
    }

    #[test]
    fn window_file_roundtrip_and_torn_detection() {
        let dir = ring_dir("file");
        let w = accum(3, [5, 0, 5, 90]);
        let path = write_window(&dir, &w).unwrap();
        assert_eq!(path.file_name().unwrap(), "window-0000000003.bin");
        let bytes = fs::read(&path).unwrap();
        assert_eq!(decode_window(&bytes).unwrap(), w);
        // Truncations and bit flips are all detected.
        for cut in 0..bytes.len() {
            assert!(decode_window(&bytes[..cut]).is_err(), "cut {cut}");
        }
        for i in 0..bytes.len() {
            let mut torn = bytes.clone();
            torn[i] ^= 0x40;
            assert!(decode_window(&torn).is_err(), "flip at {i}");
        }
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn ring_reads_sorted_and_reports_faults() {
        let dir = ring_dir("ring");
        for (i, flows) in [(2u64, 10u64), (0, 30), (1, 20)] {
            write_window(&dir, &accum(i, [0, 0, 0, flows])).unwrap();
        }
        // A torn window and an unrelated file sit alongside.
        let torn_path = dir.join(window_file_name(9));
        let mut torn = fs::read(dir.join(window_file_name(2))).unwrap();
        torn.truncate(torn.len() - 3);
        fs::write(&torn_path, &torn).unwrap();
        fs::write(dir.join("notes.txt"), b"ignored").unwrap();

        let (windows, faults) = read_ring(&dir).unwrap();
        assert_eq!(
            windows.iter().map(|w| w.window_index).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(windows[0].total_flows(), 30);
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].0, torn_path);
        assert!(matches!(
            faults[0].1,
            CheckpointError::LengthMismatch { .. }
        ));
        // A missing directory is an empty ring, not an error.
        let (w, f) = read_ring(&dir.join("missing")).unwrap();
        assert!(w.is_empty() && f.is_empty());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn shares_of_empty_window_are_zero() {
        let w = WindowAccum::start(0, 0);
        assert_eq!(w.class_shares(), [0.0; 4]);
        let w = accum(0, [25, 25, 0, 50]);
        assert_eq!(w.class_shares(), [0.25, 0.25, 0.0, 0.5]);
    }

    #[test]
    fn writer_closes_on_boundary_and_watches_drift() {
        let dir = ring_dir("writer");
        let reg = MetricsRegistry::new();
        let tracer = Tracer::with_capacity(64);
        let obs = RunnerObs::new(Arc::clone(&reg), Arc::clone(&tracer));
        let cfg = RollupConfig::new(&dir, 2);
        let mut writer = RollupWriter::new(cfg, &obs, 0, None, &[]);

        // 10 chunks of 100 valid flows, then 2 chunks all-bogon: the
        // last window's shares jump by 1.0 in two classes.
        let mut writes = Vec::new();
        for i in 0..12u64 {
            let class_flows = if i < 10 { [0, 0, 0, 100] } else { [100, 0, 0, 0] };
            writer.absorb(
                100,
                &IngestTotals::default(),
                &[0; 5],
                WindowCommit::Processed {
                    class_flows,
                    matrix: None,
                    detect: None,
                },
                &mut writes,
            );
        }
        // 6 closes, each a window write.
        assert_eq!(writes.len(), 6);
        for w in &writes {
            write_durable(w).unwrap();
        }
        let (windows, faults) = read_ring(&dir).unwrap();
        assert!(faults.is_empty());
        assert_eq!(
            windows.iter().map(|w| w.window_index).collect::<Vec<_>>(),
            (0..=5).collect::<Vec<_>>()
        );
        assert_eq!(windows[5].class_flows, [200, 0, 0, 0]);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter("spoofwatch_rollup_windows_total", &[]),
            Some(6)
        );
        // Drift fired exactly once per affected class (bogon up, valid
        // down), on the final window.
        assert_eq!(
            snap.counter(
                "spoofwatch_rollup_drift_breaches_total",
                &[("class", "bogon")]
            ),
            Some(1)
        );
        assert_eq!(
            snap.counter(
                "spoofwatch_rollup_drift_breaches_total",
                &[("class", "valid")]
            ),
            Some(1)
        );
        // Unaffected classes keep their pre-registered zero series.
        assert_eq!(
            snap.counter(
                "spoofwatch_rollup_drift_breaches_total",
                &[("class", "unrouted")]
            ),
            Some(0)
        );
        assert!(tracer
            .events()
            .0
            .iter()
            .any(|e| e.name == "class_share_drift"));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn writer_restores_checkpointed_accum_and_discards_mismatched() {
        let dir = ring_dir("restore");
        let obs = RunnerObs::disabled();
        let cfg = RollupConfig::new(&dir, 4);
        // Matching accum (window 2 of width 4, cursor at chunk 9).
        let mut saved = WindowAccum::start(2, 8);
        saved.chunks = 1;
        saved.class_flows = [0, 0, 0, 7];
        let writer = RollupWriter::new(cfg.clone(), &obs, 9, Some(saved.clone()), &[]);
        assert_eq!(writer.accum(), &saved);
        // Mismatched accum (stale window index) starts fresh.
        let stale = WindowAccum::start(1, 4);
        let writer = RollupWriter::new(cfg, &obs, 9, Some(stale), &[]);
        assert_eq!(writer.accum(), &WindowAccum::start(2, 8));
        let _ = fs::remove_dir_all(dir);
    }
}
