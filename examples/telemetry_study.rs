//! Observability walkthrough: run the streaming study with metrics and
//! the flight recorder armed, inject a panicking chunk, and show what
//! the telemetry captured:
//!
//! 1. one registry receives decode, classify, and runner metrics;
//! 2. a worker panic quarantines its chunk and triggers a flight-recorder
//!    dump — the last N trace events as JSONL, recovered from disk here;
//! 3. the Prometheus snapshot's record counters sit beside the runner's
//!    own accounting, and the study report renders a Telemetry section.
//!
//! `crates/core/tests/telemetry.rs` proves that the dump carries the
//! active span and that the snapshot reconciles exactly.
//!
//! ```sh
//! cargo run --example telemetry_study
//! ```

mod common;

use common::{section, Scratch, World};
use spoofwatch::core::{CheckpointStore, RunnerConfig, RunnerObs, StudyRunner};
use spoofwatch::ixp::chunked::ChunkedIpfixReader;
use spoofwatch::net::{InferenceMethod, OrgMode};
use spoofwatch::obs;
use std::sync::Arc;

fn main() {
    // ---- 0. A synthetic world and a lightly dirty flow export --------
    let w = World::tiny(71, 72).corrupted(73, 0.1);
    let scratch = Scratch::new("telemetry-study");
    let dump_path = scratch.join("flight.jsonl");

    // ---- 1. One registry for everything, flight recorder armed -------
    // Installing the registry as the process-global one routes the deep
    // decode and classify instrumentation into it; handing it to
    // RunnerObs adds the runner's own counters and spans.
    let registry = obs::MetricsRegistry::new();
    obs::install_global(Arc::clone(&registry));
    let tracer = obs::Tracer::with_capacity(256);
    tracer.arm(&dump_path);
    println!(
        "flight recorder armed: last {} events -> {}\n",
        256,
        dump_path.display()
    );

    // ---- 2. Run the study; one chunk's classification panics ---------
    let store = CheckpointStore::open(scratch.join("ckpt")).expect("open store");
    let runner = StudyRunner::new(
        &w.classifier,
        RunnerConfig {
            workers: 4,
            checkpoint_every: 4,
            ..RunnerConfig::default()
        },
    )
    .with_obs(RunnerObs::new(Arc::clone(&registry), Arc::clone(&tracer)));

    // The fault is keyed to chunk 1's first record, not to whichever
    // chunk a worker happens to take first, so every run quarantines
    // the same chunk and prints the same tallies.
    let mut source = ChunkedIpfixReader::new(&w.bytes, 200);
    let doomed = {
        let mut peek = ChunkedIpfixReader::new(&w.bytes, 200);
        peek.next_chunk();
        peek.next_chunk().and_then(|c| c.flows.first().copied())
    };
    let report = runner
        .run_with(&mut source, &store, |flows| {
            if flows.first().copied() == doomed {
                panic!("injected fault: classifier died mid-chunk");
            }
            w.classifier
                .classify_records_batched(flows, InferenceMethod::FullCone, OrgMode::OrgAdjusted)
        })
        .expect("run survives the injected panic");
    println!("run: {}", report.health);

    // ---- 3. The flight recorder caught the panic ----------------------
    let dump = std::fs::read_to_string(&dump_path).expect("flight-recorder dump");
    println!(
        "flight-recorder dump recovered from disk ({} JSONL lines):",
        dump.lines().count()
    );
    for line in dump.lines().take(4) {
        println!("  {line}");
    }
    println!("  ...");
    for line in dump
        .lines()
        .filter(|l| l.contains("\"panicked\":true") || l.contains("worker_panic"))
    {
        println!("  {line}");
    }

    // ---- 4. Metrics beside the runner's accounting --------------------
    let snap = registry.snapshot();
    let outcome = |o: &str| {
        snap.counter("spoofwatch_runner_records_total", &[("outcome", o)])
            .unwrap_or(0)
    };
    println!(
        "\nsnapshot records: {} offered = {} processed + {} shed + {} quarantined \
         (runner: {} offered, {} quarantined)",
        outcome("offered"),
        outcome("processed"),
        outcome("shed"),
        outcome("quarantined"),
        report.health.records.offered,
        report.health.records.quarantined,
    );

    // ---- 5. The study report's Telemetry section ----------------------
    let doc = w
        .report()
        .with_runner(report.health)
        .with_telemetry(registry.snapshot())
        .render();
    println!("\n{}", section(&doc, "Telemetry"));
}
