//! Seeded input generation. Everything the program under test sees is
//! bytes made here from the seeds; the world and the labelled trace are
//! dropped before anything is measured.

use crate::spec::WorkloadSpec;
use spoofwatch_core::Classifier;
use spoofwatch_internet::{Internet, InternetConfig};
use spoofwatch_ixp::{ipfix, Trace};
use spoofwatch_net::FaultInjector;
use std::time::Instant;

/// The world every run is generated in. `--seed` deliberately does not
/// reach it: the number of announcements the generator's collectors see
/// varies more than twofold between world seeds (classifier build
/// 1.1–4.2 s, resident set 160–270 MB), which made `setup_s` and
/// `peak_rss_mb` bimodal across seeds instead of comparable.
pub const WORLD_SEED: u64 = 7;

/// One workload's encoded trace.
pub struct Input {
    /// IPFIX-lite bytes, after fault injection when the workload is
    /// dirty.
    pub bytes: Vec<u8>,
    /// Records the generator wrote, before any corruption.
    pub written_records: u64,
}

/// How long each part of one set-up took.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub world_s: f64,
    pub classifier_build_s: f64,
    pub trace_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.world_s + self.classifier_build_s + self.trace_s
    }
}

/// Generate, encode and (for a dirty workload) corrupt one trace.
/// `shrink` divides every volume knob (20 under `--quick`).
pub fn build_input(net: &Internet, spec: &WorkloadSpec, seed: u64, shrink: usize) -> Input {
    let trace = Trace::generate(net, &spec.recipe.traffic_config(seed, shrink));
    let mut bytes = ipfix::encode(&trace.flows);
    if spec.corrupt_percent > 0.0 {
        FaultInjector::new(seed)
            .protect_prefix(ipfix::HEADER_LEN)
            .corrupt_percent(&mut bytes, spec.corrupt_percent);
    }
    Input {
        bytes,
        written_records: trace.flows.len() as u64,
    }
}

/// One full set-up for `spec`: world, classifier, the workload's trace.
/// When `with_reference` names another workload, its input is generated
/// too, outside the timed parts.
pub fn set_up(
    spec: &WorkloadSpec,
    with_reference: Option<&WorkloadSpec>,
    seed: u64,
    shrink: usize,
) -> (Classifier, Input, Option<Input>, SetupTimes) {
    let t = Instant::now();
    let net = Internet::generate(InternetConfig {
        seed: WORLD_SEED,
        ..InternetConfig::default()
    });
    let world_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let classifier = Classifier::build(&net.announcements, &net.orgs_dataset);
    let classifier_build_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let input = build_input(&net, spec, seed, shrink);
    let trace_s = t.elapsed().as_secs_f64();

    let reference = with_reference.map(|r| build_input(&net, r, seed, shrink));
    let times = SetupTimes {
        world_s,
        classifier_build_s,
        trace_s,
    };
    (classifier, input, reference, times)
}
