//! Multi-node walkthrough for the sharded study: a coordinator
//! partitions one IPFIX trace across shard workers over a framed,
//! CRC-protected Unix-socket transport, each worker runs the supervised
//! streaming runner over its partition, and the coordinator merges the
//! results.
//!
//! 1. runs the study single-node (the reference),
//! 2. runs it again split across 3 shard workers over UDS and compares
//!    the merged breakdown, ingest totals, disagreement matrix, and
//!    rollup windows with the reference,
//! 3. runs it once more with one shard dying mid-stream past its retry
//!    budget, and shows the graceful degradation: the study still
//!    completes, the extended accounting invariant
//!    `offered == processed + shed + quarantined + lost` holds, and the
//!    rendered report carries loud caveats.
//!
//! `crates/core/tests/shard_study.rs` proves the bit-identity and the
//! degraded accounting.
//!
//! ```sh
//! cargo run --example sharded_study
//! ```

mod common;

use common::{runner_config, section, window_bytes, Scratch, World};
use spoofwatch::core::{
    read_ring, serve_shard, CheckpointStore, DeathPoint, RollupConfig, ShardConfig,
    ShardCoordinator, ShardPlan, ShardStudyReport, ShardWorkerConfig, StudyRunner,
    SHARD_WIRE_MAGIC,
};
use spoofwatch::ixp::chunked::ChunkedIpfixReader;
use spoofwatch::net::UdsEndpoint;
use std::path::Path;
use std::sync::Arc;

const CHUNK_RECORDS: usize = 100;
const WINDOW_CHUNKS: u64 = 4;
const SHARDS: u32 = 3;

/// Run the sharded study over UDS. `die_at` plants a death point in one
/// shard's workers to demonstrate loss past the retry budget.
fn sharded_run(
    w: &World,
    scratch: &Path,
    tag: &str,
    die_at: Option<(u32, DeathPoint)>,
) -> ShardStudyReport {
    let sock = scratch.join(format!("{tag}.sock"));
    let endpoint = UdsEndpoint::bind(&sock, SHARD_WIRE_MAGIC).expect("bind socket");
    let mut cfg = ShardConfig::new(ShardPlan::new(SHARDS, 0x1417), CHUNK_RECORDS);
    cfg.backoff_base_ms = 10;
    cfg.backoff_max_ms = 100;
    cfg.retry_budget = if die_at.is_some() { 1 } else { 3 };

    let scratch = scratch.to_path_buf();
    let classifier = Arc::clone(&w.classifier);
    let tag = tag.to_string();
    let spawn = move |shard_id: u32| {
        let sock = sock.clone();
        let classifier = Arc::clone(&classifier);
        let ckpt = scratch.join(format!("{tag}-shard{shard_id}-ckpt"));
        let ring = scratch.join(format!("{tag}-shard{shard_id}-ring"));
        let die = die_at.and_then(|(victim, point)| (victim == shard_id).then_some(point));
        std::thread::spawn(move || {
            let Ok(transport) = UdsEndpoint::connect(&sock, SHARD_WIRE_MAGIC) else {
                return; // coordinator already gone
            };
            let mut cfg = ShardWorkerConfig::new(shard_id, runner_config());
            cfg.rollup = Some(RollupConfig::new(&ring, WINDOW_CHUNKS));
            cfg.die_at = die;
            let store = CheckpointStore::open(&ckpt).expect("open shard store");
            let _ = serve_shard(&classifier, &cfg, &store, transport);
        });
    };
    ShardCoordinator::new(&w.bytes, cfg)
        .run(&endpoint, &spawn)
        .expect("sharded run completes")
}

fn main() {
    // ---- 0. A synthetic world and its flow export ---------------------
    let w = World::tiny(51, 52);
    println!(
        "trace: {} flows, {} bytes, {} shard workers over UDS\n",
        w.trace.flows.len(),
        w.bytes.len(),
        SHARDS,
    );
    let scratch = Scratch::new("sharded-study");

    // ---- 1. The single-node reference ---------------------------------
    let store = CheckpointStore::open(scratch.join("single-ckpt")).expect("open store");
    let ring = scratch.join("single-ring");
    let mut source = ChunkedIpfixReader::new(&w.bytes, CHUNK_RECORDS);
    let reference = StudyRunner::new(&w.classifier, runner_config())
        .with_rollups(RollupConfig::new(&ring, WINDOW_CHUNKS))
        .run(&mut source, &store)
        .expect("single-node run");
    let (ref_windows, _) = read_ring(&ring).expect("read reference ring");
    println!("single-node reference: {}", reference.health);

    // ---- 2. The same study, split across shards -----------------------
    let merged = sharded_run(&w, &scratch, "clean", None);
    let identical = merged.breakdown == reference.breakdown
        && merged.ingest == reference.ingest
        && merged.disagreement == reference.disagreement
        && window_bytes(&merged.windows) == window_bytes(&ref_windows);
    println!(
        "sharded run ({} shards): merged breakdown, ingest, disagreement, and {} rollup \
         windows identical to the reference: {identical}",
        SHARDS,
        merged.windows.len(),
    );

    // ---- 3. Degradation: one shard dies past its retry budget ---------
    let degraded = sharded_run(&w, &scratch, "lossy", Some((1, DeathPoint::AfterChunks(2))));
    println!(
        "\nshard loss: {} of {} records lost, invariant offered == processed + shed + \
         quarantined + lost holds at record and sub-chunk level: {}",
        degraded.records.lost,
        degraded.records.offered,
        degraded.reconciles(),
    );

    // The rendered study report carries the caveats.
    let text = w.report().with_shards(degraded).render();
    println!("\n{}", section(&text, "Distribution & shard health"));
}
