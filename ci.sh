#!/usr/bin/env bash
# CI gate: build, full test suite, lint policy for decode hot paths,
# every example, the contract floors, and the end-to-end benchmark
# package's smoke test.
#
# Note: the root manifest is both the workspace and a package;
# `default-members` names the full workspace, so `--workspace` below is
# only the explicit form of the bare command. Every test suite runs once,
# in the workspace step — the sections after it add only what that step
# does not run.
set -euo pipefail
cd "$(dirname "$0")"

# The gate leaves the tree as it found it (compared, not required to
# be clean, so it also runs on uncommitted work or outside a checkout).
tree_state() { git status --porcelain 2>/dev/null || true; }
tree_before="$(tree_state)"

echo "==> build (release)"
cargo build --release --workspace

echo "==> tests (workspace)"
cargo test -q --workspace

echo "==> clippy (workspace, every target: libs, bins, tests, examples; warnings fail)"
cargo clippy -q --workspace --all-targets -- -D warnings

echo "==> rustdoc (workspace docs build; broken or private intra-doc links fail)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --offline --workspace

echo "==> clippy: no unwrap in decode + runner + analysis + obs paths (lib targets only)"
cargo clippy -q -p spoofwatch-net -p spoofwatch-bgp -p spoofwatch-ixp \
    -p spoofwatch-packet -p spoofwatch-core -p spoofwatch-analysis \
    -p spoofwatch-obs -- -D clippy::unwrap_used

echo "==> one entry point per job (every example in the table; repro_all the one experiment binary)"
# Each example is a walkthrough: it prints what it does, and the suites
# under crates/*/tests and tests/ prove it. Every example runs here, from
# one table of `name [args]`; an example left out of the table, or a
# second experiment binary beside repro_all (which runs all of them),
# fails this step.
examples=(
    "quickstart"
    "ixp_study"
    "filter_audit"
    "spoofer_crosscheck"
    "pcap_pipeline"
    "dirty_ingest"
    "resumable_study"
    "telemetry_study"
    "telemetry_query --demo"
    "sharded_study"
    "live_study"
    "attack_forensics"
)
for file in examples/*.rs; do
    name="$(basename "$file" .rs)"
    if ! printf '%s\n' "${examples[@]}" | awk '{ print $1 }' | grep -qxF "$name"; then
        echo "$file is not in ci.sh's example table"; exit 1
    fi
done
if find crates/bench/src/bin -mindepth 1 ! -name repro_all.rs | grep .; then
    echo "crates/bench/src/bin holds more than repro_all.rs; repro_all runs every experiment"; exit 1
fi

echo "==> examples (each runs to completion)"
# ixp_study serves /metrics while it runs and writes the scraped
# snapshot when these two variables are set; no other example reads
# them. An example's stderr is shown only when it fails (telemetry_study
# prints the backtrace of the panic it injects).
snapshot="$(mktemp)"
log="$(mktemp)"
for row in "${examples[@]}"; do
    read -r -a argv <<< "$row"
    echo "  $row"
    SPOOFWATCH_METRICS_ADDR=127.0.0.1:0 SPOOFWATCH_METRICS_SNAPSHOT="$snapshot" \
        cargo run -q --release --example "${argv[0]}" -- "${argv[@]:1}" > /dev/null 2> "$log" \
        || { cat "$log"; echo "example failed: $row"; exit 1; }
done
test -s "$snapshot" || { echo "metrics snapshot is empty"; exit 1; }
grep -q '^spoofwatch_classified_flows_total' "$snapshot" \
    || { echo "metrics snapshot lacks classify counters"; exit 1; }
# A mistyped ring directory is an error, not an empty study.
for mode in "" "--incidents"; do
    # shellcheck disable=SC2086
    if cargo run -q --release --example telemetry_query -- /nonexistent $mode > /dev/null 2>&1; then
        echo "telemetry_query read a missing directory as an empty ring ($mode)"; exit 1
    fi
done
rm -f "$snapshot" "$log"

echo "==> end-to-end benchmark package (builds against the workspace's public API, --quick smoke)"
# benchmark/ is a package of its own outside the workspace, so nothing
# above notices when a public signature it uses changes. Its test runs
# every workload at 1/20 size with all output checks and compares the
# emitted metric names, units and bounds with BENCHMARK.json (~1 min).
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml

echo "==> one walk, one record layout, one decoder per format (the decoders carry no copy of any)"
# net::ingest::resilient_walk is the only caller of quarantine() and
# note_resync(), and each format's decode_resilient is its only decoder:
# no streaming `impl<R: Read>` reader or per-record `next_*` loop beside
# it. net::codec lays out the 36-byte record and is the one big-endian
# cursor, so no file imports the vendored `bytes` stub. A decoder that
# grows its own loop, reader or field list again fails here.
decoders="crates/ixp/src/ipfix.rs crates/ixp/src/chunked.rs crates/packet/src/pcap.rs crates/bgp/src/mrt.rs"
# shellcheck disable=SC2086
if grep -nE '\.(note_resync|quarantine)\(' $decoders; then
    echo "a decoder books quarantine/resync itself; that is resilient_walk's job"; exit 1
fi
formats="crates/ixp/src/ipfix.rs crates/bgp/src/mrt.rs crates/packet/src/pcap.rs"
# shellcheck disable=SC2086
if grep -nE 'impl<R: (std::io::)?Read>|fn next_(record|update|packet)\b' $formats; then
    echo "a format has a second, fail-stop reader; decode_resilient is its one decoder"; exit 1
fi
if grep -rnE '^\s*use bytes\b|\bbytes::' crates/*/src tests examples; then
    echo "a file imports the bytes stub; net::codec is the one cursor and record layout"; exit 1
fi

echo "==> one link consumer (serve_shard and serve_live share one control loop)"
# core::runner::link is the only consuming end of the chunk link in
# spoofwatch-core: one file builds a ChunkReceiver, and the shard
# worker's second thread layout (its heartbeat thread and the chunk
# source that read the wire itself) does not grow back.
receivers="$(grep -rlF 'ChunkReceiver::new(' crates/core/src | wc -l)"
if [ "$receivers" -gt 1 ]; then
    grep -rnF 'ChunkReceiver::new(' crates/core/src
    echo "a second link consumer builds its own ChunkReceiver; use core::runner::link"; exit 1
fi
if grep -rnE 'fn heartbeat_loop|TransportChunkSource' crates/; then
    echo "the shard worker's own link thread layout is back; use core::runner::link"; exit 1
fi

echo "==> one link sender (the coordinator and the live producer share one send loop)"
# ixp::live::send_loop is the only sending loop: it is the one non-test
# site that builds a ChunkSender, and the producer's pacing and pauses
# are due times in ixp::link, never sleeps in ixp::live. Lines from a
# file's first #[cfg(test)] on are test code and do not count.
non_test() {
    local pattern="$1"; shift
    awk -v pat="$pattern" '/^#\[cfg\(test\)\]/ { nextfile } index($0, pat) { print FILENAME ":" FNR ": " $0 }' "$@"
}
# shellcheck disable=SC2046
senders="$(non_test 'ChunkSender::new(' $(find crates/*/src -name '*.rs'))"
if [ "$(echo "$senders" | grep -c .)" -gt 1 ]; then
    echo "$senders"
    echo "a second sender loop builds its own ChunkSender; use ixp::live::send_loop"; exit 1
fi
if non_test 'thread::sleep' crates/ixp/src/live.rs | grep .; then
    echo "ixp::live sleeps; pacing and pauses are ChunkSender due times"; exit 1
fi

echo "==> one consumer rule set (the link consumer's clock rules are ChunkReceiver's)"
# core::runner::link keeps I/O, the admission buffer, the overload ladder
# and telemetry: it asks the receiver what is due (poll) and whether the
# sender is lost (gave_up), and keeps no link timer or threshold of its
# own.
for pattern in 'on_silence(' '.credit(' 'last_frame_ns' 'stall_ns' 'beacon_ns'; do
    if non_test "$pattern" crates/core/src/runner/link.rs | grep .; then
        echo "runner::link applies a link clock rule itself; it is ChunkReceiver's"; exit 1
    fi
done

echo "==> one commit rule set (the feeder's reorder, accounting and cadence are Committer's)"
# core::runner::commit::Committer is the one place that orders worker
# outcomes, books them, and decides when a window or a checkpoint is
# handed off; runner/mod.rs's feeder is its shell. The committer itself
# touches no channel, thread, file or clock, so the seeded schedules in
# its tests run the rules a run runs.
for pattern in 'fn commit_ready' 'CommitCtx' 'arrived'; do
    if non_test "$pattern" crates/core/src/runner/mod.rs | grep .; then
        echo "runner/mod.rs commits outcomes itself; that is runner::commit::Committer's"; exit 1
    fi
done
for pattern in 'mpsc' 'thread::' 'fs::' 'now_ns'; do
    if non_test "$pattern" crates/core/src/runner/commit.rs | grep .; then
        echo "runner::commit does I/O, threading or timing; it is a pure rule set"; exit 1
    fi
done

echo "==> one classify surface (the batch kernel, its oracle, and provenance)"
# Every production classification goes through the batch kernel
# (core::batch): classify_batch_into, classify_records_batched and
# classify_variants_records_batched are its entry points, and
# classify_trace the one that records spoofwatch_classified_flows_total.
# classify_with_tries is the kernel's reference oracle and
# classify_explain says why one flow got its class. A second ladder
# beside them fails here.
classify_surface="classify_batch_into classify_records_batched classify_variants_records_batched classify_trace classify_with_tries classify_explain"
# shellcheck disable=SC2046
classify_fns="$(non_test 'pub fn classify' $(find crates/*/src -name '*.rs'))"
for name in $(echo "$classify_fns" | sed -nE 's/.*pub fn (classify[A-Za-z0-9_]*).*/\1/p' | sort -u); do
    if ! printf '%s\n' $classify_surface | grep -qxF "$name"; then
        echo "$classify_fns" | grep -E "pub fn ${name}[^A-Za-z0-9_]"
        echo "pub fn $name is a classify entry point beside the kept six; call the batch kernel"; exit 1
    fi
done

echo "==> option budget (at most 36 runtime options)"
# Public fields of every `pub struct *Config` and of `LiveLadder` in
# spoofwatch-core and the live producer, test code (from a file's first
# #[cfg(test)] on) excluded. An option that no run, example or benchmark
# sets to a second value is a constant instead. A change that needs a
# new option raises the budget here and says why.
# Nine of the 36 are still set to a second value by tests alone, which
# shorten wall-clock bounds or pin a pipelining schedule:
# RunnerConfig::{queue_depth, stall_timeout_ms},
# ShardWorkerConfig::{heartbeat_ms, chunk_timeout_ms},
# LiveServerConfig::{producer_stall_ms, resume_throttle_ms} and
# LiveProducerConfig::{credit_stall_ms, target_records_per_sec, pauses}.
# They become constants once the tests have a clock seam to run the
# production values without the wait.
option_budget=36
# shellcheck disable=SC2046
options="$(awk '
    FNR == 1 { inside = 0 }
    /^#\[cfg\(test\)\]/ { nextfile }
    /^pub struct ([A-Za-z]*Config|LiveLadder) \{$/ { inside = 1; name = $3; next }
    inside && /^\}/ { inside = 0 }
    inside && /^    pub [a-z_0-9]+:/ { n[name]++; total++ }
    END { for (s in n) printf "%s %d\n", s, n[s]; printf "total %d\n", total }
' $(find crates/core/src -name '*.rs') crates/ixp/src/live.rs)"
if [ "$(echo "$options" | awk '$1 == "total" { print $2 }')" -gt "$option_budget" ]; then
    echo "$options" | sort
    echo "more than $option_budget runtime options; make a single-valued one a constant"; exit 1
fi

echo "==> contract floors (release-mode timing floors, each against an in-test reference or ceiling)"
# The #[ignore]d *_floor_* tests in the crates that own each kernel:
# the trace fingerprint >= 5x and the shard key >= 2x byte-wise FNV-1a,
# sliced CRC-32 and a frame round trip >= 4x the byte-wise path,
# disabled metric updates < 20 ns, frozen LPM >= 2x the trie and the
# fused classify faster than two walks, the compiled table <= 8 MB on
# the default world (nominal: the frozen table's arrays and the info
# arena's RouteInfo headers, not the vectors behind them), batch
# classify >= 3x per-flow, detect payload accumulation < 250 ns/record
# and < 5% on the serial commit path, the interned classifier build
# >= 2x the per-announcement reference build, and the classifier's live
# heap <= 16 MB on the default world (13 floors; the last is a test
# binary of its own, as its counting allocator sees the whole process).
# One test thread: two at once on a 2-core host distort the absolute
# ceilings.
cargo test -q --release -p spoofwatch-net -p spoofwatch-obs -p spoofwatch-ixp \
    -p spoofwatch-core --lib -- --ignored floor_ --test-threads=1
cargo test -q --release -p spoofwatch-core --test classifier_footprint -- --ignored

echo "==> one ruler (benchmark/ measures, *_floor_* tests gate; no criterion benches)"
if grep -n 'criterion' Cargo.lock; then
    echo "Cargo.lock resolves criterion; timing floors are *_floor_* tests"; exit 1
fi
if grep -rn --include=Cargo.toml --exclude-dir=target '^\[\[bench\]\]' .; then
    echo "a bench target is back; timing floors are *_floor_* tests"; exit 1
fi
if find crates -type d -name benches | grep .; then
    echo "a benches/ directory is back; timing floors are *_floor_* tests"; exit 1
fi

echo "==> tree unchanged (no step wrote outside an ignored directory)"
diff <(echo "$tree_before") <(echo "$(tree_state)") \
    || { echo "ci.sh changed the working tree (see the diff above)"; exit 1; }

echo "==> CI green"
