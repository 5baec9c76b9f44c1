//! The full IMC'17 study pipeline, condensed: generate an IXP-scale
//! world, classify four weeks of traffic, and print the paper's Table 1
//! together with the member-level filtering picture (Figure 5).
//!
//! ```sh
//! cargo run --release --example ixp_study
//! ```
//!
//! With telemetry: set `SPOOFWATCH_METRICS_ADDR` to serve Prometheus
//! text exposition over HTTP while the study runs, self-scrape the
//! endpoint at the end, and validate the document. Optionally write the
//! scraped snapshot to `SPOOFWATCH_METRICS_SNAPSHOT`:
//!
//! ```sh
//! SPOOFWATCH_METRICS_ADDR=127.0.0.1:0 \
//! SPOOFWATCH_METRICS_SNAPSHOT=/tmp/spoofwatch.prom \
//! cargo run --release --example ixp_study
//! ```

mod common;

use common::World;
use spoofwatch::analysis;
use spoofwatch::core::{MemberBreakdown, Table1};
use spoofwatch::net::{InferenceMethod, OrgMode};
use spoofwatch::obs;
use std::collections::HashSet;
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    // Telemetry mode: install a live global registry (so the classify
    // and decode paths report into it) and expose it over HTTP.
    let server = match std::env::var("SPOOFWATCH_METRICS_ADDR") {
        Ok(addr) => {
            let registry = obs::MetricsRegistry::new();
            obs::install_global(Arc::clone(&registry));
            match obs::serve(registry, addr.as_str()) {
                Ok(s) => {
                    eprintln!("metrics: serving http://{}/metrics", s.addr());
                    Some(s)
                }
                Err(e) => {
                    eprintln!("metrics: cannot bind {addr}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        Err(_) => None,
    };

    // A mid-size world so the example finishes in seconds.
    let World {
        net,
        trace,
        classifier,
        ..
    } = World::mid(17, 150_000);
    println!(
        "world: {} ASes, {} members, {} announcements, {} flow records\n",
        net.topology.len(),
        net.ixp_members.len(),
        net.announcements.len(),
        trace.len()
    );

    // Classify with every method (Table 1).
    let table = Table1::compute(&classifier, &trace.flows);
    let rows: Vec<Vec<String>> = table
        .rows
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                format!("{} ({:.1}%)", r.members, r.members_pct),
                format!("{:.2}%", r.bytes_pct),
                format!("{:.2}%", r.packets_pct),
            ]
        })
        .collect();
    println!(
        "{}",
        analysis::render::table(&["class", "members", "bytes", "packets"], &rows)
    );

    // Member filtering consistency (Figure 5).
    let classes = classifier.classify_trace(
        &trace.flows,
        InferenceMethod::FullCone,
        OrgMode::OrgAdjusted,
    );
    let breakdown = MemberBreakdown::from_classes(&trace.flows, &classes);
    let venn = analysis::venn::Fig5::compute(&breakdown, &HashSet::new());
    println!("{}", venn.render());

    // Ground-truth scoring — the part the paper could not do.
    let eval = analysis::evaluate::Evaluation::compute(&trace.flows, &trace.labels, &classes);
    println!("{}", eval.render());

    // Telemetry epilogue: scrape our own endpoint the way Prometheus
    // would, check the document parses and validates, and persist it.
    if let Some(server) = server {
        let text = match obs::fetch_metrics(server.addr()) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("metrics: self-scrape failed: {e}");
                return ExitCode::from(2);
            }
        };
        let expo = match obs::parse_exposition(&text) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("metrics: scraped document does not parse: {e}");
                return ExitCode::from(2);
            }
        };
        if let Err(e) = expo.validate() {
            eprintln!("metrics: scraped document is invalid: {e}");
            return ExitCode::from(2);
        }
        println!(
            "\ntelemetry: scraped {} samples across {} families; exposition validates",
            expo.samples.len(),
            expo.types.len(),
        );
        if let Ok(path) = std::env::var("SPOOFWATCH_METRICS_SNAPSHOT") {
            if let Err(e) = std::fs::write(&path, &text) {
                eprintln!("metrics: cannot write snapshot {path}: {e}");
                return ExitCode::from(2);
            }
            println!("telemetry: snapshot written to {path}");
        }
        server.shutdown();
    }
    ExitCode::SUCCESS
}
