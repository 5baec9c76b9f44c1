//! # spoofwatch-bench
//!
//! The experiment harness: one function per table/figure of the paper
//! ([`experiments::ALL`]), all run by the `repro_all` binary.
//!
//! Every experiment runs over the same deterministic [`Scenario`]: the
//! default synthetic Internet (~2000 ASes, 727 IXP members, 34
//! collectors and an IXP route server) and a 4-week sampled trace. Set
//! `SPOOFWATCH_QUICK=1` to run a reduced scenario, and `SPOOFWATCH_SEED=<n>`
//! to vary the seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

use spoofwatch_core::Classifier;
use spoofwatch_internet::{Internet, InternetConfig};
use spoofwatch_ixp::{Trace, TrafficConfig};
use spoofwatch_net::{InferenceMethod, OrgMode, TrafficClass};

/// A fully prepared experiment world.
pub struct Scenario {
    /// The synthetic Internet (topology, BGP observations, ground truth).
    pub net: Internet,
    /// The 4-week sampled trace with ground-truth labels.
    pub trace: Trace,
    /// The classifier built from the scenario's BGP data.
    pub classifier: Classifier,
    /// Production classification (Full Cone, org-adjusted) of the trace.
    pub classes: Vec<TrafficClass>,
}

impl Scenario {
    /// Build the scenario honoring `SPOOFWATCH_QUICK` / `SPOOFWATCH_SEED`.
    pub fn from_env() -> Scenario {
        let seed = std::env::var("SPOOFWATCH_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(7u64);
        if std::env::var("SPOOFWATCH_QUICK").is_ok_and(|v| v != "0") {
            Scenario::quick(seed)
        } else {
            Scenario::full(seed)
        }
    }

    /// The full default scenario (run with `--release`).
    pub fn full(seed: u64) -> Scenario {
        Self::build(
            InternetConfig {
                seed,
                ..InternetConfig::default()
            },
            TrafficConfig {
                seed: seed.wrapping_mul(31),
                ..TrafficConfig::default()
            },
        )
    }

    /// A small scenario for smoke tests and debug builds.
    pub fn quick(seed: u64) -> Scenario {
        Self::build(
            InternetConfig::tiny(seed),
            TrafficConfig::tiny(seed.wrapping_mul(31)),
        )
    }

    /// Build from explicit configs.
    pub fn build(net_cfg: InternetConfig, traffic_cfg: TrafficConfig) -> Scenario {
        let t0 = std::time::Instant::now();
        let net = Internet::generate(net_cfg);
        eprintln!(
            "[scenario] internet: {} ASes, {} members, {} announcements ({:.1?})",
            net.topology.len(),
            net.ixp_members.len(),
            net.announcements.len(),
            t0.elapsed()
        );
        let t1 = std::time::Instant::now();
        let trace = Trace::generate(&net, &traffic_cfg);
        eprintln!(
            "[scenario] trace: {} flow records over {} days ({:.1?})",
            trace.len(),
            trace.duration / 86_400,
            t1.elapsed()
        );
        let t2 = std::time::Instant::now();
        let classifier = Classifier::build(&net.announcements, &net.orgs_dataset);
        eprintln!(
            "[scenario] classifier: {} routed prefixes, {} ASes ({:.1?})",
            classifier.table().num_prefixes(),
            classifier.table().num_ases(),
            t2.elapsed()
        );
        let t3 = std::time::Instant::now();
        let classes = classifier.classify_trace(
            &trace.flows,
            InferenceMethod::FullCone,
            OrgMode::OrgAdjusted,
        );
        eprintln!("[scenario] classified ({:.1?})", t3.elapsed());
        Scenario {
            net,
            trace,
            classifier,
            classes,
        }
    }
}

/// One paper-vs-measured record for `EXPERIMENTS.md`.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Comparison {
    /// Experiment id ("T1", "F2", …).
    pub experiment: String,
    /// The quantity compared.
    pub quantity: String,
    /// The paper's reported value (textual, as published).
    pub paper: String,
    /// Our measured value.
    pub measured: String,
    /// Whether the *shape* holds (who wins / order of magnitude / trend).
    pub shape_holds: bool,
}

impl Comparison {
    /// Convenience constructor.
    pub fn new(
        experiment: &str,
        quantity: &str,
        paper: &str,
        measured: String,
        shape_holds: bool,
    ) -> Comparison {
        Comparison {
            experiment: experiment.to_owned(),
            quantity: quantity.to_owned(),
            paper: paper.to_owned(),
            measured,
            shape_holds,
        }
    }
}

/// Print comparisons as a table. When `$SPOOFWATCH_RESULTS` names a
/// directory, also write them as JSON to `<dir>/<exp>.json` (creating
/// the directory, replacing any earlier file); when it is unset, write
/// nothing. Write failures are ignored.
pub fn report(exp: &str, comparisons: &[Comparison]) {
    let rows: Vec<Vec<String>> = comparisons
        .iter()
        .map(|c| {
            vec![
                c.experiment.clone(),
                c.quantity.clone(),
                c.paper.clone(),
                c.measured.clone(),
                if c.shape_holds { "yes" } else { "NO" }.to_owned(),
            ]
        })
        .collect();
    println!(
        "\n{}",
        spoofwatch_analysis::render::table(
            &["exp", "quantity", "paper", "measured", "shape"],
            &rows
        )
    );
    if let Ok(dir) = std::env::var("SPOOFWATCH_RESULTS") {
        let _ = std::fs::create_dir_all(&dir);
        let path = format!("{dir}/{exp}.json");
        if let Ok(json) = serde_json::to_string_pretty(comparisons) {
            let _ = std::fs::write(path, json);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scenario_builds() {
        let s = Scenario::quick(1);
        assert!(!s.trace.is_empty());
        assert_eq!(s.trace.flows.len(), s.classes.len());
        assert!(s.classifier.table().num_prefixes() > 0);
    }

    #[test]
    fn comparison_roundtrip() {
        let c = Comparison::new("T1", "bogon members", "72.0%", "70.1%".into(), true);
        let json = serde_json::to_string(&c).unwrap();
        assert!(json.contains("bogon members"));
    }
}
