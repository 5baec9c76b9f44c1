#!/usr/bin/env bash
# CI gate: build, full test suite, lint policy for decode hot paths,
# and a fault-injection smoke test.
#
# Note: the root manifest is both the workspace and a package, so a bare
# `cargo test` only runs the root package's tests — always pass
# --workspace here.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> build (release)"
cargo build --release --workspace

echo "==> tests (workspace)"
cargo test -q --workspace

echo "==> clippy (workspace)"
cargo clippy -q --workspace

echo "==> clippy: no unwrap in decode + runner + analysis + obs paths (lib targets only)"
cargo clippy -q -p spoofwatch-net -p spoofwatch-bgp -p spoofwatch-ixp \
    -p spoofwatch-packet -p spoofwatch-core -p spoofwatch-analysis \
    -p spoofwatch-obs -- -D clippy::unwrap_used

echo "==> fault-injection smoke test (1% corruption acceptance)"
cargo test -q -p spoofwatch-ixp    ipfix_one_percent_corruption_recovers_unaffected_records
cargo test -q -p spoofwatch-bgp    mrt_one_percent_corruption_recovers_unaffected_records
cargo test -q -p spoofwatch-packet pcap_one_percent_corruption_recovers_unaffected_records
cargo run -q --release --example dirty_ingest > /dev/null

echo "==> crash-recovery smoke test (run, interrupt, tear, resume, compare)"
cargo test -q -p spoofwatch-core --test crash_recovery torn_checkpoint
cargo run -q --release --example resumable_study > /dev/null

echo "==> observability smoke test (metrics endpoint, reconciliation, flight recorder)"
cargo test -q -p spoofwatch-core --test telemetry
snapshot="$(mktemp)"
SPOOFWATCH_METRICS_ADDR=127.0.0.1:0 SPOOFWATCH_METRICS_SNAPSHOT="$snapshot" \
    cargo run -q --release --example ixp_study > /dev/null
test -s "$snapshot" || { echo "metrics snapshot is empty"; exit 1; }
grep -q '^spoofwatch_classified_flows_total' "$snapshot" \
    || { echo "metrics snapshot lacks classify counters"; exit 1; }
rm -f "$snapshot"
cargo run -q --release --example telemetry_study > /dev/null 2>&1

echo "==> rollup smoke test (windowed ring: generate, crash, resume, query, reconcile)"
cargo test -q -p spoofwatch-core --test rollups
# --demo asserts the window count tiles the committed chunks, that the
# ring's sums reconcile with the run report, and that the resumed ring
# is bit-identical to an uninterrupted run's.
cargo run -q --release --example telemetry_query -- --demo > /dev/null

echo "==> observability overhead contract (disabled hot-path updates < 20 ns, sampler-off classify within 5%)"
CRITERION_STUB_BUDGET_MS=50 cargo bench -q -p spoofwatch-bench --bench obs > /dev/null

echo "==> compiled LPM contract (frozen >= 2x trie at 0/1/5% bogon mix, fused classify beats two walks, swap under load)"
# The bench asserts the speedup floors itself and refreshes the tracked
# BENCH_lpm.json baseline at the repo root.
CRITERION_STUB_BUDGET_MS=50 cargo bench -q -p spoofwatch-bench --bench lpm > /dev/null
test -s BENCH_lpm.json || { echo "BENCH_lpm.json baseline missing"; exit 1; }
grep -q '"bench":"lpm"' BENCH_lpm.json \
    || { echo "BENCH_lpm.json baseline malformed"; exit 1; }

echo "==> sharded study smoke test (bit-identity, chaos recovery, shard-loss accounting)"
cargo test -q -p spoofwatch-core --test shard_study
# The example proves a 3-shard UDS run bit-identical to single-node,
# then kills a shard past its retry budget and checks the degraded
# accounting invariant and report caveats. It exits nonzero on any
# mismatch.
cargo run -q --release --example sharded_study > /dev/null
# The shard bench asserts clean runs at 1/2/4 shards, shard-count-
# independent merges, and a bounded shard-layer tax, and refreshes the
# tracked BENCH_shard.json baseline.
CRITERION_STUB_BUDGET_MS=50 cargo bench -q -p spoofwatch-bench --bench shard > /dev/null
test -s BENCH_shard.json || { echo "BENCH_shard.json baseline missing"; exit 1; }
grep -q '"bench":"shard"' BENCH_shard.json \
    || { echo "BENCH_shard.json baseline malformed"; exit 1; }

echo "==> live-soak smoke test (chaos soak above capacity, graceful drain, overload recovery)"
# The seeded chaos soak streams through a corrupting link into an
# underprovisioned consumer with kill+resume mid-stream; it asserts the
# exact accounting invariant at record and chunk level, a bounded
# buffer, at least one Shed->Normal recovery, and a clean drain.
cargo test -q -p spoofwatch-core --test live_study live_chaos_soak
# The example proves a line-rate live session bit-identical to file
# replay, forces the ladder through Shed and back, demonstrates a
# graceful Stop drain, and renders the report's live-session block. It
# exits nonzero on any mismatch.
cargo run -q --release --example live_study > /dev/null
# The live bench asserts a bounded live-layer tax over file replay and
# exact reconciliation under overload, and refreshes the tracked
# BENCH_live.json baseline.
CRITERION_STUB_BUDGET_MS=50 cargo bench -q -p spoofwatch-bench --bench live > /dev/null
test -s BENCH_live.json || { echo "BENCH_live.json baseline missing"; exit 1; }
grep -q '"bench":"live"' BENCH_live.json \
    || { echo "BENCH_live.json baseline malformed"; exit 1; }

echo "==> online detection smoke test (cross-mode incident identity, upgrade path, forensics)"
# The detect_study suite proves the incident log byte-identical across a
# file run, kill+resume at and inside window boundaries, a 3-shard run,
# and a live session, and that pre-detection rings and checkpoints
# resume cleanly with detection switched on mid-study.
cargo test -q -p spoofwatch-core --test detect_study
# The forensics example replays a scripted pulse-wave attack (a seeded
# random->selective spoofing flip) through the streaming runner's online
# detectors and exits nonzero unless both spoof modes are discriminated
# and every incident carries a full provenance bundle.
cargo run -q --release --example attack_forensics > /dev/null
# The detect bench prices worker-side payload accumulation (including
# the streaming entropy sketches) and the per-window detector bank, and
# enforces the documented contracts: a per-record accumulation ceiling
# and a <=5% tax on the serial rollup commit path. It refreshes the
# tracked BENCH_detect.json baseline.
CRITERION_STUB_BUDGET_MS=50 cargo bench -q -p spoofwatch-bench --bench detect > /dev/null
test -s BENCH_detect.json || { echo "BENCH_detect.json baseline missing"; exit 1; }
grep -q '"bench":"detect"' BENCH_detect.json \
    || { echo "BENCH_detect.json baseline malformed"; exit 1; }

echo "==> batch classify contract (>=3x over scalar, zero steady-state allocations, byte-identity)"
# The differential suite pins the batch path to the scalar one: per
# flow across all five method variants (including proptest probes),
# columnar decode against the resilient decoder under fault injection,
# and the whole runner artifact chain (report, rollup ring, incident
# log) against a scalar run_with closure.
cargo test -q -p spoofwatch-ixp  --test columnar_diff
cargo test -q -p spoofwatch-core --test batch_diff
# Batch-mode smoke: the runner now classifies through the batch path in
# every mode, so re-run the sharded bit-identity and live chaos-soak
# gates explicitly against it.
cargo test -q -p spoofwatch-core --test shard_study in_proc_sharding_is_bit_identical_for_1_2_4_shards
cargo test -q -p spoofwatch-core --test live_study live_chaos_soak
# The bench asserts the >=3x floor and the zero-allocation contract
# itself, and refreshes the tracked BENCH_batch.json baseline.
CRITERION_STUB_BUDGET_MS=50 cargo bench -q -p spoofwatch-bench --bench batch > /dev/null
test -s BENCH_batch.json || { echo "BENCH_batch.json baseline missing"; exit 1; }
grep -q '"bench":"batch"' BENCH_batch.json \
    || { echo "BENCH_batch.json baseline malformed"; exit 1; }

echo "==> link-layer floor (sliced CRC-32 and frame round trip >= 4x the byte-wise path)"
CRITERION_STUB_BUDGET_MS=50 cargo bench -q -p spoofwatch-bench --bench codecs > /dev/null

echo "==> end-to-end benchmark package (builds against the workspace's public API, --quick smoke)"
# benchmark/ is a package of its own outside the workspace, so nothing
# above notices when a public signature it uses changes. Its test runs
# every workload at 1/20 size with all output checks and compares the
# emitted metric names, units and bounds with BENCHMARK.json (~1 min).
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml

echo "==> CI green"
