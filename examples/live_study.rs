//! Live streaming walkthrough: an `ixp` producer streams a seeded
//! scenario as paced IPFIX chunks over the framed, CRC-protected
//! transport into `serve_live`, which wraps the supervised study
//! runner behind credit-based admission control and the overload
//! ladder.
//!
//! 1. runs the study once from the file (the reference),
//! 2. streams the same trace live at line rate and compares the study
//!    with file replay — breakdown, ingest totals, disagreement matrix,
//!    and rollup windows,
//! 3. streams it again into a deliberately slow consumer with a tight
//!    window, forcing the ladder through Pressure into Shed and back:
//!    records are shed deterministically at the admission buffer and
//!    booked, so `offered == processed + shed + quarantined` still holds,
//! 4. demonstrates graceful drain: a chunk budget triggers a Stop
//!    request mid-stream, in-flight work finishes, and the session
//!    still reconciles,
//! 5. renders the study report and shows its "## Live session" block
//!    with the overload caveats.
//!
//! `crates/core/tests/live_study.rs` proves the bit-identity, the shed
//! and recovery, and the drain.
//!
//! ```sh
//! cargo run --example live_study
//! ```

mod common;

use common::{runner_config, section, window_bytes, Scratch, World};
use spoofwatch::core::{
    read_ring, serve_live, serve_live_with, CheckpointStore, LiveLadder, LiveServerConfig,
    LiveStudy, RollupConfig, StudyRunner, LIVE_WIRE_MAGIC,
};
use spoofwatch::internet::InternetConfig;
use spoofwatch::ixp::chunked::ChunkedIpfixReader;
use spoofwatch::ixp::{run_live_producer, LiveProducerConfig, LiveScenario, TrafficConfig};
use spoofwatch::net::wire::ShardTransport;
use spoofwatch::net::{InferenceMethod, OrgMode};
use std::path::Path;
use std::time::Duration;

const CHUNK_RECORDS: usize = 50;
const WINDOW_CHUNKS: u64 = 4;

/// One live session over an in-process pair: a producer thread streaming
/// the world's export at line rate on one end, `serve_live` (optionally
/// with a classify slowed by `slow_ms` per chunk) on the other.
fn live_session(
    w: &World,
    cfg: &LiveServerConfig,
    scratch: &Path,
    tag: &str,
    slow_ms: Option<u64>,
) -> LiveStudy {
    let (consumer, mut producer) = ShardTransport::channel_pair(LIVE_WIRE_MAGIC, 64);
    let scenario = LiveScenario::from_ipfix(w.bytes.to_vec(), CHUNK_RECORDS);
    let producer_thread = std::thread::spawn(move || {
        run_live_producer(&mut producer, &scenario, &LiveProducerConfig::default())
    });
    let store = CheckpointStore::open(scratch.join(format!("{tag}-ckpt"))).expect("open store");
    let classifier = &w.classifier;
    let study = match slow_ms {
        None => serve_live(classifier, cfg, &store, consumer),
        Some(ms) => serve_live_with(classifier, cfg, &store, consumer, |flows| {
            std::thread::sleep(Duration::from_millis(ms));
            classifier.classify_trace(flows, InferenceMethod::FullCone, OrgMode::OrgAdjusted)
        }),
    }
    .expect("live session");
    producer_thread
        .join()
        .expect("producer thread")
        .expect("producer");
    study
}

fn main() {
    // ---- 0. A synthetic world and its flow export ---------------------
    let w = World::generate(
        InternetConfig::tiny(61),
        TrafficConfig {
            regular_flows: 1_500,
            ..TrafficConfig::tiny(62)
        },
    );
    println!(
        "trace: {} flows, {} bytes, streamed as {}-record chunks\n",
        w.trace.flows.len(),
        w.bytes.len(),
        CHUNK_RECORDS,
    );
    let scratch = Scratch::new("live-study");

    // ---- 1. The file-replay reference ---------------------------------
    let store = CheckpointStore::open(scratch.join("ref-ckpt")).expect("open store");
    let ring = scratch.join("ref-ring");
    let mut source = ChunkedIpfixReader::new(&w.bytes, CHUNK_RECORDS);
    let reference = StudyRunner::new(&w.classifier, runner_config())
        .with_rollups(RollupConfig::new(&ring, WINDOW_CHUNKS))
        .run(&mut source, &store)
        .expect("reference run");
    let (ref_windows, _) = read_ring(&ring).expect("read reference ring");
    println!("file-replay reference: {}", reference.health);

    // ---- 2. The same study streamed live at line rate -----------------
    let mut cfg = LiveServerConfig::new(runner_config());
    cfg.rollup = Some(RollupConfig::new(scratch.join("clean-ring"), WINDOW_CHUNKS));
    // The ladder is policy on top of the credit window; for the
    // bit-identity demo park its thresholds above any real occupancy
    // so a scheduling hiccup can never shed (the window still bounds
    // the buffer).
    cfg.ladder = Some(LiveLadder::for_window(1 << 20));
    let clean = live_session(&w, &cfg, &scratch, "clean", None);
    let identical = clean.report.breakdown == reference.breakdown
        && clean.report.ingest == reference.ingest
        && clean.report.disagreement == reference.disagreement
        && window_bytes(&clean.windows) == window_bytes(&ref_windows);
    println!(
        "live session (line rate, window {}): identical to file replay: {identical}, \
         {:.0} records/s, peak buffer {} chunk(s), {} credit grants",
        clean.session.window,
        clean.session.achieved_records_per_sec,
        clean.session.max_buffered_chunks,
        clean.session.credits_granted,
    );

    // ---- 3. Overload: tight window, slow consumer ---------------------
    let mut cfg = LiveServerConfig::new(runner_config());
    cfg.window = 4;
    cfg.ladder = Some(LiveLadder::for_window(4));
    let loaded = live_session(&w, &cfg, &scratch, "overload", Some(15));
    let s = &loaded.session;
    println!(
        "overload session (window 4, slow consumer): {} of {} records shed at the \
         admission buffer, {} ladder transitions, {} recoveries, peak buffer {} chunk(s), \
         invariant offered == processed + shed + quarantined holds: {}",
        s.live_shed_records,
        s.records.offered,
        s.transitions,
        s.shed_recoveries,
        s.max_buffered_chunks,
        s.reconciles(),
    );

    // ---- 4. Graceful drain on a chunk budget --------------------------
    let mut cfg = LiveServerConfig::new(runner_config());
    cfg.ladder = Some(LiveLadder::for_window(1 << 20));
    cfg.stop_after_chunks = Some(8);
    let stopped = live_session(&w, &cfg, &scratch, "drain", None).session;
    println!(
        "graceful drain: Stop requested: {}, after {} admitted chunk(s), in-flight work \
         finished, session reconciles: {}\n",
        stopped.stop_requested,
        stopped.chunks.offered,
        stopped.reconciles(),
    );

    // ---- 5. The study report's live-session block ---------------------
    let text = w
        .report()
        .with_runner(loaded.report.health)
        .with_live(loaded.session)
        .render();
    println!("{}", section(&text, "Live session"));
}
