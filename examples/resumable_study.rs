//! Crash-and-resume walkthrough for the streaming study runner.
//!
//! Generates a synthetic world and a lightly corrupted IPFIX trace, then:
//!
//! 1. runs the study to completion once (the reference),
//! 2. runs it again in a second checkpoint directory but "crashes" it
//!    partway through (no final checkpoint is written — progress past
//!    the last periodic checkpoint is lost, as in a real crash),
//! 3. tears the surviving checkpoint file the way an interrupted write
//!    would, to show the CRC detecting it and the previous slot taking
//!    over,
//! 4. resumes, and compares the resumed report with the reference.
//!
//! `crates/core/tests/crash_recovery.rs` proves the same at every chunk
//! boundary and for every torn byte.
//!
//! ```sh
//! cargo run --example resumable_study
//! ```

mod common;

use common::{section, Scratch, World};
use spoofwatch::core::{CheckpointStore, RunnerConfig, RunnerError, StudyRunner};
use spoofwatch::ixp::chunked::ChunkedIpfixReader;

fn main() {
    // ---- 0. A synthetic world and a slightly dirty flow export --------
    let w = World::tiny(41, 42).corrupted(43, 0.1);
    let cfg = RunnerConfig {
        workers: 4,
        checkpoint_every: 4,
        ..RunnerConfig::default()
    };
    let chunk_records = 200;
    println!(
        "trace: {} flows, {} bytes (lightly corrupted), chunks of {} records\n",
        w.trace.flows.len(),
        w.bytes.len(),
        chunk_records,
    );
    let scratch = Scratch::new("resumable-study");

    // ---- 1. The reference: one uninterrupted run ----------------------
    let ref_store = CheckpointStore::open(scratch.join("reference")).expect("open store");
    let runner = StudyRunner::new(&w.classifier, cfg.clone());
    let mut source = ChunkedIpfixReader::new(&w.bytes, chunk_records);
    let reference = runner.run(&mut source, &ref_store).expect("reference run");
    println!("uninterrupted run: {}", reference.health);

    // ---- 2. The same study, crashed partway through -------------------
    let store = CheckpointStore::open(scratch.join("crashed")).expect("open store");
    let mut crash_cfg = cfg;
    crash_cfg.interrupt_after_chunks = Some(reference.health.chunks.offered * 2 / 3);
    let mut source = ChunkedIpfixReader::new(&w.bytes, chunk_records);
    let crashed = StudyRunner::new(&w.classifier, crash_cfg).run(&mut source, &store);
    let Err(RunnerError::Interrupted { committed_chunks }) = crashed else {
        panic!("expected a simulated crash, got {crashed:?}");
    };
    println!("simulated crash after {committed_chunks} committed chunks");

    // ---- 3. And the checkpoint it was writing got torn ----------------
    let cur = store.current_path();
    let mut cp_bytes = std::fs::read(&cur).expect("read checkpoint");
    let torn_at = cp_bytes.len() / 2;
    cp_bytes.truncate(torn_at);
    std::fs::write(&cur, &cp_bytes).expect("write torn checkpoint");
    println!("tore the current checkpoint at byte {torn_at} (crash mid-write)");

    // ---- 4. Resume and compare ----------------------------------------
    let mut source = ChunkedIpfixReader::new(&w.bytes, chunk_records);
    let resumed = runner.run(&mut source, &store).expect("resume");
    println!(
        "resumed run: {} (rejected {} torn checkpoint slot(s), resumed at chunk {:?})\n",
        resumed.health,
        resumed.health.checkpoints_rejected,
        resumed.health.resumed_at_chunk,
    );
    println!(
        "resumed report identical to the uninterrupted reference: {}",
        resumed.same_result(&reference)
    );

    // ---- 5. The runner's health section in the study report -----------
    // The report's figures run over the full labelled trace; the
    // runner's supervision counters ride along as a data-quality section.
    let text = w.report().with_runner(resumed.health).render();
    println!("\n{}", section(&text, "Supervision & backpressure"));
}
