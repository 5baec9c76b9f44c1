//! The single-threaded kernel pass: each layer called chunk by chunk
//! through its public functions with the workload's chunking, buffers
//! handled the way the runner handles them (a fresh record vector per
//! chunk, thread-local classify scratch, one reused column arena).
//! Whole-trace calls such as `decode_resilient` read several times
//! high from allocation alone, which is why nothing here uses them.
//!
//! The first pass doubles as the reference computation the output
//! checks compare every run against.

use crate::modes::SHARDS;
use crate::spec::WorkloadSpec;
use crate::stats::{median, median_by};
use spoofwatch_core::runner::rollup::write_window;
use spoofwatch_core::{
    BatchScratch, Checkpoint, CheckpointStore, Classifier, DetectConfig, DetectEngine,
    DisagreementMatrix, MethodVariant, RunnerConfig, ShardPlan, WindowAccum, WindowDetect,
    LIVE_WIRE_MAGIC,
};
use spoofwatch_ixp::chunked::ChunkedIpfixReader;
use spoofwatch_ixp::live::{LiveChunk, Msg};
use spoofwatch_net::wire::{frame_encode, FrameReader};
use spoofwatch_net::{FlowBatch, TrafficClass};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Records the link-codec kernels run over: enough chunks for a steady
/// figure without re-encoding the whole trace.
const CODEC_SAMPLE_RECORDS: u64 = 200_000;
/// Fsync-bound kernels (checkpoint save, window write) repeat this
/// often; each costs one to a few milliseconds on a virtual disk, and
/// varies enough that a dozen samples do not settle the median.
const FSYNC_REPS: usize = 32;

/// What every run of the workload must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    pub decoded_records: u64,
    pub chunks: u64,
    pub class_flows: [u64; 4],
    pub input_bytes: u64,
    pub quarantined_bytes: u64,
    pub resyncs: u64,
}

/// Per-record nanoseconds of the per-record kernels, from one pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecordKernels {
    pub fingerprint_ns: f64,
    pub next_chunk_ns: f64,
    pub next_batch_ns: f64,
    pub classify_ns: f64,
    pub classify_columns_ns: f64,
    pub from_chunk_ns: f64,
    pub merge_us_per_chunk: f64,
}

fn ns(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64
}

/// One pass over the trace, chunk by chunk: decode, classify, payload,
/// payload merge; then the same trace once more through the columnar
/// entry points.
pub fn record_pass(
    classifier: &Classifier,
    spec: &WorkloadSpec,
    bytes: &[u8],
    seed: u64,
) -> (Reference, RecordKernels) {
    let cfg = RunnerConfig::default();
    let primary = MethodVariant::index_of(cfg.method, cfg.org);
    let mut reader = ChunkedIpfixReader::new(bytes, spec.chunk_records);

    let t0 = Instant::now();
    black_box(reader.fingerprint());
    let fingerprint = ns(t0);

    let mut reference = Reference {
        decoded_records: 0,
        chunks: 0,
        class_flows: [0; 4],
        input_bytes: 0,
        quarantined_bytes: 0,
        resyncs: 0,
    };
    let (mut decode, mut classify, mut payload, mut merge) = (0.0, 0.0, 0.0, 0.0);
    let mut window = WindowDetect::new();
    loop {
        let t0 = Instant::now();
        let Some(chunk) = reader.next_chunk() else {
            break;
        };
        decode += ns(t0);

        // The closure body `StudyRunner::run` hands its workers.
        let t0 = Instant::now();
        let classes: Vec<TrafficClass> = if spec.track_disagreement {
            let mut matrix = DisagreementMatrix::new();
            let mut classes = Vec::with_capacity(chunk.flows.len());
            for variants in classifier.classify_variants_records_batched(&chunk.flows) {
                matrix.record(&variants);
                classes.push(variants[primary]);
            }
            black_box(matrix);
            classes
        } else {
            classifier.classify_records_batched(&chunk.flows, cfg.method, cfg.org)
        };
        classify += ns(t0);

        let t0 = Instant::now();
        let detect = WindowDetect::from_chunk(&chunk.flows, &classes, seed, chunk.seq);
        payload += ns(t0);

        let t0 = Instant::now();
        window.merge(&detect);
        merge += ns(t0);
        if (chunk.seq + 1).is_multiple_of(spec.window_chunks) {
            window = WindowDetect::new();
        }

        reference.decoded_records += chunk.flows.len() as u64;
        reference.chunks += 1;
        for c in &classes {
            reference.class_flows[c.index()] += 1;
        }
        reference.input_bytes += chunk.health.input_len;
        reference.quarantined_bytes += chunk.health.quarantined_bytes;
        reference.resyncs += chunk.health.resyncs;
    }

    let mut reader = ChunkedIpfixReader::new(bytes, spec.chunk_records);
    let mut batch = FlowBatch::new();
    let mut scratch = BatchScratch::new();
    let mut classes = Vec::new();
    let (mut decode_columns, mut classify_columns) = (0.0, 0.0);
    loop {
        let t0 = Instant::now();
        if reader.next_batch(&mut batch).is_none() {
            break;
        }
        decode_columns += ns(t0);
        let t0 = Instant::now();
        classifier.classify_batch_into(&batch, cfg.method, cfg.org, &mut scratch, &mut classes);
        classify_columns += ns(t0);
        black_box(classes.len());
    }

    let records = reference.decoded_records.max(1) as f64;
    let kernels = RecordKernels {
        fingerprint_ns: fingerprint / records,
        next_chunk_ns: decode / records,
        next_batch_ns: decode_columns / records,
        classify_ns: classify / records,
        classify_columns_ns: classify_columns / records,
        from_chunk_ns: payload / records,
        merge_us_per_chunk: merge / 1e3 / reference.chunks.max(1) as f64,
    };
    (reference, kernels)
}

/// [`record_pass`] `reps` times; the median of every kernel.
pub fn record_kernels(
    classifier: &Classifier,
    spec: &WorkloadSpec,
    bytes: &[u8],
    seed: u64,
    reps: usize,
) -> (Reference, RecordKernels) {
    let passes: Vec<(Reference, RecordKernels)> = (0..reps.max(1))
        .map(|_| record_pass(classifier, spec, bytes, seed))
        .collect();
    let med = |f: fn(&RecordKernels) -> f64| median_by(&passes, |(_, k)| f(k));
    let kernels = RecordKernels {
        fingerprint_ns: med(|k| k.fingerprint_ns),
        next_chunk_ns: med(|k| k.next_chunk_ns),
        next_batch_ns: med(|k| k.next_batch_ns),
        classify_ns: med(|k| k.classify_ns),
        classify_columns_ns: med(|k| k.classify_columns_ns),
        from_chunk_ns: med(|k| k.from_chunk_ns),
        merge_us_per_chunk: med(|k| k.merge_us_per_chunk),
    };
    (passes[0].0, kernels)
}

/// Link-layer kernels over the head of the trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct CodecKernels {
    /// `ixp::live::Msg::Chunk` encode + decode, ns per record.
    pub live_msg_ns: f64,
    /// `frame_encode` + `FrameReader` reassembly of that payload.
    pub frame_ns: f64,
    /// `ShardPlan::shard_of`, ns per record.
    pub partition_ns: f64,
    /// Largest shard's record share over the mean share, minus one.
    pub partition_skew: f64,
}

pub fn codec_kernels(spec: &WorkloadSpec, bytes: &[u8], seed: u64, reps: usize) -> CodecKernels {
    let passes: Vec<CodecKernels> = (0..reps.max(1))
        .map(|_| codec_pass(spec, bytes, seed))
        .collect();
    let med = |f: fn(&CodecKernels) -> f64| median_by(&passes, f);
    CodecKernels {
        live_msg_ns: med(|k| k.live_msg_ns),
        frame_ns: med(|k| k.frame_ns),
        partition_ns: med(|k| k.partition_ns),
        partition_skew: passes[0].partition_skew,
    }
}

fn codec_pass(spec: &WorkloadSpec, bytes: &[u8], seed: u64) -> CodecKernels {
    let plan = ShardPlan::new(SHARDS, seed);
    let mut reader = ChunkedIpfixReader::new(bytes, spec.chunk_records);
    let mut frames = FrameReader::new(LIVE_WIRE_MAGIC);
    let (mut msg, mut frame, mut partition) = (0.0, 0.0, 0.0);
    let mut per_shard = vec![0u64; SHARDS as usize];
    let mut records = 0u64;
    while records < CODEC_SAMPLE_RECORDS {
        let Some(chunk) = reader.next_chunk() else {
            break;
        };
        records += chunk.flows.len() as u64;

        let t0 = Instant::now();
        let payload = Msg::Chunk(LiveChunk::from_chunk(&chunk)).encode();
        black_box(Msg::decode(&payload));
        msg += ns(t0);

        let t0 = Instant::now();
        frames.push(&frame_encode(&LIVE_WIRE_MAGIC, &payload));
        black_box(frames.next_frame());
        frame += ns(t0);

        let t0 = Instant::now();
        for f in &chunk.flows {
            per_shard[plan.shard_of(f) as usize] += 1;
        }
        partition += ns(t0);
    }
    let n = records.max(1) as f64;
    let largest = per_shard.iter().copied().max().unwrap_or(0) as f64;
    CodecKernels {
        live_msg_ns: msg / n,
        frame_ns: frame / n,
        partition_ns: partition / n,
        partition_skew: largest / (n / f64::from(SHARDS)) - 1.0,
    }
}

/// Durable-state kernels, from the artefacts a finished run left.
#[derive(Debug, Clone, Copy, Default)]
pub struct StateKernels {
    pub checkpoint_encode_us: f64,
    pub checkpoint_save_us: f64,
    pub checkpoint_bytes: f64,
    pub write_window_us: f64,
    pub window_bytes: f64,
    pub observe_us_per_window: f64,
}

/// Time checkpoint encode/save, window write and the detector bank on
/// a run's terminal checkpoint and closed windows. `scratch` is a fresh
/// directory on the same filesystem the runs used.
pub fn state_kernels(
    checkpoint: &Checkpoint,
    windows: &[WindowAccum],
    scratch: &Path,
) -> Result<StateKernels, String> {
    let io = |e: std::io::Error| format!("state kernels: {e}");
    let us = |t0: Instant| ns(t0) / 1e3;

    let encode: Vec<f64> = (0..FSYNC_REPS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(checkpoint.encode());
            us(t0)
        })
        .collect();
    let store = CheckpointStore::open(scratch.join("ckpt")).map_err(io)?;
    let mut save = Vec::with_capacity(FSYNC_REPS);
    for _ in 0..FSYNC_REPS {
        let t0 = Instant::now();
        store.save(checkpoint).map_err(io)?;
        save.push(us(t0));
    }

    let ring = scratch.join("ring");
    std::fs::create_dir_all(&ring).map_err(io)?;
    let mut write = Vec::new();
    let mut encoded = Vec::new();
    let mut window_bytes = 0usize;
    for w in windows.iter().cycle().take(FSYNC_REPS) {
        let t0 = Instant::now();
        write_window(&ring, w).map_err(io)?;
        write.push(us(t0));
    }
    for w in windows {
        encoded.clear();
        w.encode_into(&mut encoded);
        window_bytes += encoded.len();
    }

    let mut engine = DetectEngine::new(DetectConfig::default());
    let t0 = Instant::now();
    for w in windows {
        black_box(engine.observe(w).len());
    }
    let observe = us(t0);

    let per_window = windows.len().max(1) as f64;
    Ok(StateKernels {
        checkpoint_encode_us: median(&encode),
        checkpoint_save_us: median(&save),
        checkpoint_bytes: checkpoint.encode().len() as f64,
        write_window_us: if write.is_empty() {
            0.0
        } else {
            median(&write)
        },
        window_bytes: window_bytes as f64 / per_window,
        observe_us_per_window: observe / per_window,
    })
}
