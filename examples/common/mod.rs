//! The setup the walkthroughs share: a synthetic world with its
//! IPFIX export and classifier, a scratch directory that cleans up after
//! itself, rollup windows as bytes, and one section cut out of a
//! rendered study report. Pulled in with `mod common;`; each walkthrough
//! uses part of it.
#![allow(dead_code)]

use spoofwatch::analysis::report::StudyReport;
use spoofwatch::core::{Classifier, RunnerConfig, WindowAccum};
use spoofwatch::internet::{Internet, InternetConfig};
use spoofwatch::ixp::{ipfix, Trace, TrafficConfig};
use spoofwatch::net::{FaultInjector, InferenceMethod, OrgMode};
use std::collections::BTreeMap;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A synthetic Internet, a labelled trace over it, the trace's IPFIX
/// export and the classifier built from the world's BGP data. The export
/// and the classifier are shared so shard and live threads can hold them.
pub struct World {
    pub net: Internet,
    pub trace: Trace,
    pub bytes: Arc<Vec<u8>>,
    pub classifier: Arc<Classifier>,
}

impl World {
    /// The tiny world of seed `net_seed` carrying the tiny trace of seed
    /// `traffic_seed`.
    pub fn tiny(net_seed: u64, traffic_seed: u64) -> World {
        World::generate(
            InternetConfig::tiny(net_seed),
            TrafficConfig::tiny(traffic_seed),
        )
    }

    /// The mid-size world the analysis walkthroughs share: 800 ASes, 300
    /// IXP members, and a default-shaped trace with `regular_flows`
    /// regular flows, both of seed `seed`. Big enough for the paper's
    /// figures, small enough to finish in seconds.
    pub fn mid(seed: u64, regular_flows: usize) -> World {
        World::generate(
            InternetConfig {
                seed,
                num_ases: 800,
                num_ixp_members: 300,
                ..InternetConfig::default()
            },
            TrafficConfig {
                seed,
                regular_flows,
                ..TrafficConfig::default()
            },
        )
    }

    /// Generate the world, its trace, the export and the classifier.
    pub fn generate(net: InternetConfig, traffic: TrafficConfig) -> World {
        let net = Internet::generate(net);
        let trace = Trace::generate(&net, &traffic);
        let bytes = Arc::new(ipfix::encode(&trace.flows));
        let classifier = Arc::new(Classifier::build(&net.announcements, &net.orgs_dataset));
        World {
            net,
            trace,
            bytes,
            classifier,
        }
    }

    /// Flip bits in `percent` % of the export's bytes, header spared, as
    /// a lossy export link would.
    pub fn corrupted(mut self, seed: u64, percent: f64) -> World {
        FaultInjector::new(seed)
            .protect_prefix(ipfix::HEADER_LEN)
            .corrupt_percent(Arc::make_mut(&mut self.bytes).as_mut_slice(), percent);
        self
    }

    /// The study report over the whole labelled trace, classified the
    /// way the runner classifies by default (Full Cone, org-adjusted).
    pub fn report(&self) -> StudyReport {
        let classes = self.classifier.classify_trace(
            &self.trace.flows,
            InferenceMethod::FullCone,
            OrgMode::OrgAdjusted,
        );
        StudyReport::compute(&self.net, &self.trace, &self.classifier, &classes, None)
    }
}

/// The runner settings of the sharded and live walkthroughs: two workers,
/// a checkpoint every three chunks, and the method-disagreement matrix
/// tracked, so the comparison with file replay covers it too.
pub fn runner_config() -> RunnerConfig {
    RunnerConfig {
        workers: 2,
        checkpoint_every: 3,
        track_disagreement: true,
        ..RunnerConfig::default()
    }
}

/// A directory under the system temp dir, created empty and removed on
/// drop, so a run that fails halfway leaves nothing behind either.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }
}

impl Deref for Scratch {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Rollup windows as their encoded bytes, keyed by window index: the
/// form in which two runs' windows compare.
pub fn window_bytes(windows: &[WindowAccum]) -> BTreeMap<u64, Vec<u8>> {
    windows
        .iter()
        .map(|w| {
            let mut buf = Vec::new();
            w.encode_into(&mut buf);
            (w.window_index, buf)
        })
        .collect()
}

/// The `## {heading}` section of a rendered report, up to the next
/// section; empty when the report has none.
pub fn section<'a>(report: &'a str, heading: &str) -> &'a str {
    let Some(start) = report.find(&format!("## {heading}")) else {
        return "";
    };
    let body = start + 3;
    let end = report[body..]
        .find("\n## ")
        .map_or(report.len(), |i| body + i);
    report[start..end].trim_end()
}
