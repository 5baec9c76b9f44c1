//! Decode metrics count each trace byte once per study, not once per
//! shard that walked it: a chunk's health is exported where the chunk
//! is consumed (the runner's feeder), and a shard worker receives
//! health for the chunks it owns only. Its own test binary because it
//! installs the process-global registry — where the chunked reader used
//! to export from every supervisor's walk of the whole trace.

use spoofwatch_core::{
    CheckpointStore, Classifier, RunnerConfig, RunnerObs, ShardConfig, ShardCoordinator, ShardPlan,
    ShardWorkerConfig, SHARD_WIRE_MAGIC,
};
use spoofwatch_internet::{Internet, InternetConfig};
use spoofwatch_ixp::{ipfix, Trace, TrafficConfig};
use spoofwatch_net::{FaultInjector, InProcHub};
use spoofwatch_obs::{MetricsRegistry, Tracer};
use std::sync::Arc;

#[test]
fn two_shards_count_every_trace_byte_once() {
    let reg = MetricsRegistry::new();
    assert!(spoofwatch_obs::install_global(Arc::clone(&reg)));
    let obs = RunnerObs::new(Arc::clone(&reg), Tracer::disabled());

    let net = Internet::generate(InternetConfig::tiny(71));
    let mut tc = TrafficConfig::tiny(72);
    tc.regular_flows = 1_500;
    let trace = Trace::generate(&net, &tc);
    let mut bytes = ipfix::encode(&trace.flows);
    let mut inj = FaultInjector::new(73).protect_prefix(ipfix::HEADER_LEN);
    for _ in 0..4 {
        inj.insert_garbage(&mut bytes, 11);
    }
    let bytes = Arc::new(bytes);
    let classifier = Arc::new(Classifier::build(&net.announcements, &net.orgs_dataset));

    let dir = std::env::temp_dir().join(format!("spoofwatch-decode-metrics-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let shards = 2u32;
    let hub = Arc::new(InProcHub::new(SHARD_WIRE_MAGIC, 8));
    let spawn_hub = Arc::clone(&hub);
    let (worker_obs, worker_dir) = (obs.clone(), dir.clone());
    let merged = ShardCoordinator::new(&bytes, ShardConfig::new(ShardPlan::new(shards, 0x5eed), 50))
        .with_obs(obs)
        .run(hub.as_ref(), &move |k| {
            let transport = spawn_hub.connect().expect("hub connect");
            let classifier = Arc::clone(&classifier);
            let store = CheckpointStore::open(worker_dir.join(format!("shard{k}"))).expect("store");
            let mut cfg = ShardWorkerConfig::new(
                k,
                RunnerConfig {
                    workers: 1,
                    stall_timeout_ms: 0,
                    ..RunnerConfig::default()
                },
            );
            cfg.obs = worker_obs.clone();
            std::thread::spawn(move || {
                let _ = spoofwatch_core::serve_shard(&classifier, &cfg, &store, transport);
            });
        })
        .expect("sharded run");
    let _ = std::fs::remove_dir_all(&dir);

    assert!(merged.shards.iter().all(|s| s.completed && s.deaths == 0));
    assert!(merged.ingest.quarantined_bytes > 0, "the trace is dirty");
    let snap = reg.snapshot();
    assert_eq!(merged.ingest.input_bytes, bytes.len() as u64);
    assert_eq!(
        snap.counter_sum("spoofwatch_decode_bytes_total"),
        bytes.len() as u64
    );
    assert_eq!(
        snap.counter("spoofwatch_decode_records_total", &[("format", "ipfix_chunked")]),
        Some(merged.ingest.ok_records)
    );
    assert_eq!(
        snap.counter("spoofwatch_decode_resyncs_total", &[("format", "ipfix_chunked")]),
        Some(merged.ingest.resyncs)
    );
}
