//! Query tool for windowed telemetry rollup rings.
//!
//! Reads the window ring a [`spoofwatch::core::StudyRunner`] writes when
//! configured `with_rollups`, and renders per-window class shares, the
//! decoder fault taxonomy, window-over-window drift, and the merged
//! method-disagreement matrix — as an aligned table or as CSV.
//!
//! ```sh
//! # Inspect a ring directory written by a previous run:
//! cargo run --example telemetry_query -- /path/to/ring
//! cargo run --example telemetry_query -- /path/to/ring --csv
//!
//! # Incident timeline + per-incident forensic drill-down, from the
//! # incident log the online detectors write alongside the ring:
//! cargo run --example telemetry_query -- /path/to/ring --incidents
//!
//! # Self-contained demo: generate a world, run a study with rollups
//! # and online detection, and render its ring and incident log:
//! cargo run --example telemetry_query -- --demo
//! ```
//!
//! Exits nonzero when the directory does not exist or holds torn files.
//! `crates/core/tests/rollups.rs` proves the ring reconciles with the run
//! report and survives interrupt and resume bit for bit.

mod common;

use common::{Scratch, World};
use spoofwatch::analysis::incidents::IncidentTimeline;
use spoofwatch::analysis::timeseries::WindowSeries;
use spoofwatch::core::runner::rollup::DRIFT_THRESHOLD;
use spoofwatch::core::{
    read_incident_log, read_ring, CheckpointStore, DetectConfig, DisagreementMatrix,
    IncidentRecord, RollupConfig, RunnerConfig, StudyRunner, WindowAccum,
};
use spoofwatch::ixp::chunked::ChunkedIpfixReader;
use spoofwatch::net::FaultKind;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let csv = args.iter().any(|a| a == "--csv");
    let demo = args.iter().any(|a| a == "--demo");
    let incidents = args.iter().any(|a| a == "--incidents");
    let dir = args.iter().find(|a| !a.starts_with("--"));

    match (demo, dir.map(Path::new)) {
        (true, _) => run_demo(),
        // The readers take a missing directory for an empty one (a run's
        // first start); here it is a mistyped path.
        (false, Some(dir)) if !dir.is_dir() => {
            eprintln!("no such ring directory: {}", dir.display());
            ExitCode::FAILURE
        }
        (false, Some(dir)) if incidents => show(dir, read_incident_log, render_incidents),
        (false, Some(dir)) if csv => show(dir, read_ring, |windows| {
            WindowSeries::from_windows(windows).render_csv()
        }),
        (false, Some(dir)) => show(dir, read_ring, render_ring),
        (false, None) => {
            eprintln!("usage: telemetry_query <ring-dir> [--csv | --incidents] | --demo");
            ExitCode::FAILURE
        }
    }
}

/// Read one kind of file from a ring directory (its windows or its
/// incident log), name each torn file on stderr, and print the rest
/// rendered. Fails when the directory cannot be read or a file is torn.
#[allow(clippy::type_complexity)]
fn show<T, E: std::fmt::Display>(
    dir: &Path,
    read: fn(&Path) -> io::Result<(Vec<T>, Vec<(PathBuf, E)>)>,
    render: impl Fn(&[T]) -> String,
) -> ExitCode {
    let (items, faults) = match read(dir) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot read {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    for (path, err) in &faults {
        eprintln!("torn file rejected: {}: {err}", path.display());
    }
    print!("{}", render(&items));
    if faults.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Timeline table followed by each incident's drill-down.
fn render_incidents(records: &[IncidentRecord]) -> String {
    let timeline = IncidentTimeline::new(records.to_vec());
    let mut out = format!(
        "# Incident log: {} incidents\n\n{}",
        timeline.records.len(),
        timeline.render_table()
    );
    for (kind, n) in timeline.counts_by_kind() {
        out.push_str(&format!("- {kind}: {n}\n"));
    }
    for i in 0..timeline.records.len() {
        if let Some(detail) = timeline.render_detail(i) {
            out.push('\n');
            out.push_str(&detail);
        }
    }
    out
}

/// The human-readable view: share table, fault taxonomy, drift, and the
/// merged disagreement matrix.
fn render_ring(windows: &[WindowAccum]) -> String {
    let series = WindowSeries::from_windows(windows);
    let mut out = format!(
        "# Rollup ring: {} windows, {} flows\n\n## Per-window class shares\n\n{}",
        windows.len(),
        series.total_flows(),
        series.render_table(),
    );

    out.push_str("\n## Decoder fault taxonomy (all windows)\n\n");
    let mut fault_sum = [0u64; 5];
    for w in windows {
        for (into, v) in fault_sum.iter_mut().zip(w.fault_counts) {
            *into += v;
        }
    }
    for kind in FaultKind::ALL {
        out.push_str(&format!(
            "- {}: {}\n",
            kind.label(),
            fault_sum[kind.index()]
        ));
    }

    let drift = series.drift(DRIFT_THRESHOLD);
    out.push_str(&format!(
        "\n## Window-over-window drift (threshold {DRIFT_THRESHOLD:.2})\n\n"
    ));
    if drift.is_empty() {
        out.push_str("- none\n");
    }
    for (window, class, delta) in &drift {
        out.push_str(&format!(
            "- window {window}: {class} share moved {delta:+.4}\n"
        ));
    }

    let mut merged = DisagreementMatrix::new();
    let mut tracked = false;
    for w in windows {
        if let Some(m) = &w.disagreement {
            merged.merge(m);
            tracked = true;
        }
    }
    if tracked {
        out.push_str("\n## Method disagreement (all windows)\n\n");
        out.push_str(&merged.render());
    }
    out
}

/// The self-contained demo: one run with rollups and online detection
/// over a lightly corrupted trace, then the ring and incident views of
/// the directory it wrote.
fn run_demo() -> ExitCode {
    let w = World::tiny(61, 62).corrupted(63, 0.1);
    let cfg = RunnerConfig {
        workers: 4,
        checkpoint_every: 4,
        track_disagreement: true,
        ..RunnerConfig::default()
    };
    let scratch = Scratch::new("telemetry-query");
    let ring = scratch.join("ring");
    let mut rollups = RollupConfig::new(&ring, 3);
    rollups.detect = Some(DetectConfig::default());
    let store = CheckpointStore::open(scratch.join("ckpt")).expect("open store");
    let mut source = ChunkedIpfixReader::new(&w.bytes, 200);
    let report = StudyRunner::new(&w.classifier, cfg)
        .with_rollups(rollups)
        .run(&mut source, &store)
        .expect("study run");
    println!("run: {}\n", report.health);

    let ring_status = show(&ring, read_ring, render_ring);
    println!();
    let incident_status = show(&ring, read_incident_log, render_incidents);
    if ring_status == ExitCode::SUCCESS {
        incident_status
    } else {
        ring_status
    }
}
