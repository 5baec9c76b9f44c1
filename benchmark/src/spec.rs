//! The benchmark's fixed vocabulary: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at
//! the repository root lists exactly these names (`tests/quick.rs`
//! compares the two), so a metric cannot be added here and forgotten
//! there.

use spoofwatch_ixp::TrafficConfig;

/// Which public entry point a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `StudyRunner::run` over a `ChunkedIpfixReader`.
    File,
    /// `ShardCoordinator::run` with two `serve_shard` threads over an
    /// `InProcHub`.
    Shard2,
    /// `run_live_producer` at line rate into `serve_live`.
    Live,
}

/// The traffic mix a workload's trace is generated from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recipe {
    /// `TrafficConfig::default()` at this many regular flows: ≈98 %
    /// Valid, sources concentrated in announced space.
    Clean { regular_flows: usize },
    /// Flood-, Steam- and NTP-heavy mix: ≈60 % Bogon/Unrouted/Invalid
    /// with uniformly random sources.
    Attack,
}

impl Recipe {
    /// The generator config for `seed`, with every volume knob divided
    /// by `shrink` (1 for a real run, 20 for `--quick`).
    pub fn traffic_config(self, seed: u64, shrink: usize) -> TrafficConfig {
        let base = TrafficConfig {
            seed,
            ..TrafficConfig::default()
        };
        match self {
            Recipe::Clean { regular_flows } => TrafficConfig {
                regular_flows: regular_flows / shrink,
                ..base
            },
            Recipe::Attack => TrafficConfig {
                regular_flows: 1_125_000 / shrink,
                flood_events: 32,
                flood_max_packets: (450_000 / shrink) as u32,
                steam_events: 8,
                ntp_total_triggers: (300_000 / shrink) as u32,
                nat_leak_mean_flows: 300.0 / shrink as f64,
                ..base
            },
        }
    }
}

/// One named set of inputs and the run shape they go through.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub mode: Mode,
    pub recipe: Recipe,
    /// Percent of trace bytes bit-flipped after encoding (0 = clean).
    pub corrupt_percent: f64,
    pub chunk_records: usize,
    pub checkpoint_every: u64,
    pub window_chunks: u64,
    pub track_disagreement: bool,
}

/// The recipe `tax_vs_file` is measured against, and whose bytes
/// `shard2_clean` and `live_clean` replay.
const CLEAN: Recipe = Recipe::Clean {
    regular_flows: 2_000_000,
};

const FILE_CLEAN: WorkloadSpec = WorkloadSpec {
    name: "file_clean",
    mode: Mode::File,
    recipe: CLEAN,
    corrupt_percent: 0.0,
    chunk_records: 2000,
    checkpoint_every: 16,
    window_chunks: 64,
    track_disagreement: false,
};

/// Every workload, reference first.
pub const WORKLOADS: [WorkloadSpec; 6] = [
    FILE_CLEAN,
    WorkloadSpec {
        // Random sources walk all of the DIR-24-8 level 1 and miss the
        // verdict memo, all five variants are classified, entropy
        // sketches run per record and incidents fire.
        name: "file_attack",
        recipe: Recipe::Attack,
        track_disagreement: true,
        ..FILE_CLEAN
    },
    WorkloadSpec {
        // 1 % of bytes bit-flipped: the byte-wise resync walk.
        name: "file_dirty",
        recipe: Recipe::Clean {
            regular_flows: 1_000_000,
        },
        corrupt_percent: 1.0,
        ..FILE_CLEAN
    },
    WorkloadSpec {
        // 100-record chunks, checkpointed and windowed eight times as
        // often per record as file_clean: per-chunk fixed costs (queue
        // hand-off, reorder, commit) and the durable ones (checkpoint
        // and window fsync) are three quarters of the wall, per-record
        // kernels the rest.
        name: "file_small_chunks",
        recipe: Recipe::Clean {
            regular_flows: 600_000,
        },
        chunk_records: 100,
        checkpoint_every: 40,
        window_chunks: 160,
        ..FILE_CLEAN
    },
    WorkloadSpec {
        // file_clean's bytes plus partitioning, the shard codec,
        // framing/CRC and the window merge.
        name: "shard2_clean",
        mode: Mode::Shard2,
        ..FILE_CLEAN
    },
    WorkloadSpec {
        // file_clean's bytes plus the live codec, credit grants and the
        // admission buffer.
        name: "live_clean",
        mode: Mode::Live,
        ..FILE_CLEAN
    },
];

/// The workload every other one is taxed against.
pub fn reference() -> &'static WorkloadSpec {
    &WORKLOADS[0]
}

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// A window ring with more closed windows than this makes a shard's
/// final `Report` frame exceed `net::wire::DEFAULT_MAX_FRAME` (4 MiB);
/// the coordinator then counts a wire fault per attempt and declares
/// every shard lost (≈250 windows in sizing). The benchmark refuses a
/// sharded workload above half that, see README "Known limits".
pub const MAX_SHARD_WINDOWS: u64 = 128;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// What a user of the pipeline sees, per workload.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "records_per_sec",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ns_per_record",
        unit: "ns",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "tax_vs_file",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "processed_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.01,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.08,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Single-layer figures from the traced round and the kernel pass:
/// `(name, unit)`. They carry no bound; `BENCHMARK.json` records which
/// direction is better.
pub const PER_LAYER: [(&str, &str); 44] = [
    ("chunked.fingerprint_ns_per_record", "ns"),
    ("chunked.next_chunk_ns_per_record", "ns"),
    ("chunked.next_batch_ns_per_record", "ns"),
    ("chunked.quarantined_byte_share", "ratio"),
    ("chunked.resyncs", "count"),
    ("batch.classify_ns_per_record", "ns"),
    ("batch.classify_columns_ns_per_record", "ns"),
    ("batch.illegitimate_share", "ratio"),
    ("detect.from_chunk_ns_per_record", "ns"),
    ("detect.merge_us_per_chunk", "us"),
    ("detect.observe_us_per_window", "us"),
    ("detect.incidents", "count"),
    ("checkpoint.encode_us", "us"),
    ("checkpoint.save_us", "us"),
    ("checkpoint.bytes", "B"),
    ("checkpoint.saves", "count"),
    ("rollup.write_window_us", "us"),
    ("rollup.window_bytes", "B"),
    ("rollup.windows", "count"),
    ("runner.traced_wall_ns_per_record", "ns"),
    ("runner.trace_overhead_share", "ratio"),
    ("runner.source_busy_ns_per_record", "ns"),
    ("runner.classify_busy_ns_per_record", "ns"),
    ("runner.worker_utilisation", "ratio"),
    ("runner.chunks", "count"),
    ("runner.worker_restarts", "count"),
    ("runner.residual_share", "ratio"),
    ("wire.frame_roundtrip_ns_per_record", "ns"),
    ("link.bytes_per_record", "B"),
    ("link.frames_per_chunk", "ratio"),
    ("link.send_blocked_share", "ratio"),
    ("link.wire_faults", "count"),
    ("shard.partition_ns_per_record", "ns"),
    ("shard.partition_skew", "ratio"),
    ("shard.deaths", "count"),
    ("shard.heartbeat_misses", "count"),
    ("live.msg_roundtrip_ns_per_record", "ns"),
    ("live.chunks_sent_per_chunk", "ratio"),
    ("live.credits_granted", "count"),
    ("live.max_buffered_chunks", "count"),
    ("live.shed_records", "count"),
    ("live.normal_state_share", "ratio"),
    ("compiled.build_s", "s"),
    ("compiled.memory_mb", "MB"),
];
