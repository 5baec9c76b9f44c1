#!/usr/bin/env bash
# CI gate: build, full test suite, lint policy for decode hot paths,
# the self-verifying examples, the contract floors, and the end-to-end
# benchmark package's smoke test.
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

echo "==> clippy (workspace)"
cargo clippy -q --workspace

echo "==> clippy: no unwrap in decode + runner + analysis + obs paths (lib targets only)"
cargo clippy -q -p spoofwatch-net -p spoofwatch-bgp -p spoofwatch-ixp \
    -p spoofwatch-packet -p spoofwatch-core -p spoofwatch-analysis \
    -p spoofwatch-obs -- -D clippy::unwrap_used

echo "==> fault-injection smoke (dirty ingest walkthrough)"
cargo run -q --release --example dirty_ingest > /dev/null

echo "==> crash-recovery smoke (run, interrupt, tear, resume, compare)"
cargo run -q --release --example resumable_study > /dev/null

echo "==> observability smoke (metrics endpoint, reconciliation, flight recorder)"
snapshot="$(mktemp)"
SPOOFWATCH_METRICS_ADDR=127.0.0.1:0 SPOOFWATCH_METRICS_SNAPSHOT="$snapshot" \
    cargo run -q --release --example ixp_study > /dev/null
test -s "$snapshot" || { echo "metrics snapshot is empty"; exit 1; }
grep -q '^spoofwatch_classified_flows_total' "$snapshot" \
    || { echo "metrics snapshot lacks classify counters"; exit 1; }
rm -f "$snapshot"
cargo run -q --release --example telemetry_study > /dev/null 2>&1

echo "==> rollup smoke (windowed ring: generate, crash, resume, query, reconcile)"
# --demo asserts the window count tiles the committed chunks, that the
# ring's sums reconcile with the run report, and that the resumed ring
# is bit-identical to an uninterrupted run's.
cargo run -q --release --example telemetry_query -- --demo > /dev/null

echo "==> sharded study smoke (bit-identity, shard-loss accounting)"
# The example proves a 3-shard UDS run bit-identical to single-node,
# then kills a shard past its retry budget and checks the degraded
# accounting invariant and report caveats. It exits nonzero on any
# mismatch.
cargo run -q --release --example sharded_study > /dev/null

echo "==> live study smoke (line rate, overload recovery, graceful drain)"
# The example proves a line-rate live session bit-identical to file
# replay, forces the ladder through Shed and back, demonstrates a
# graceful Stop drain, and renders the report's live-session block. It
# exits nonzero on any mismatch.
cargo run -q --release --example live_study > /dev/null

echo "==> online detection smoke (forensics walkthrough)"
# The forensics example replays a scripted pulse-wave attack (a seeded
# random->selective spoofing flip) through the streaming runner's online
# detectors and exits nonzero unless both spoof modes are discriminated
# and every incident carries a full provenance bundle.
cargo run -q --release --example attack_forensics > /dev/null
echo "==> end-to-end benchmark package (builds against the workspace's public API, --quick smoke)"
# benchmark/ is a package of its own outside the workspace, so nothing
# above notices when a public signature it uses changes. Its test runs
# every workload at 1/20 size with all output checks and compares the
# emitted metric names, units and bounds with BENCHMARK.json (~1 min).
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml

echo "==> one walk, one record layout (the decoders carry no copy of either)"
# net::ingest::resilient_walk is the only caller of quarantine() and
# note_resync(); net::codec is the only place the 36-byte record's
# fields are laid out. A decoder that grows its own loop or its own
# field list again fails here.
decoders="crates/ixp/src/ipfix.rs crates/ixp/src/chunked.rs crates/packet/src/pcap.rs crates/bgp/src/mrt.rs"
# shellcheck disable=SC2086
if grep -nE '\.(note_resync|quarantine)\(' $decoders; then
    echo "a decoder books quarantine/resync itself; that is resilient_walk's job"; exit 1
fi
if grep -nE '^\s*use bytes\b|\bbytes::' crates/ixp/src/ipfix.rs; then
    echo "ipfix.rs lays out record fields itself; net::codec defines the record"; exit 1
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

echo "==> option budget (at most 54 runtime options)"
# Public fields of every `pub struct *Config` and of `LiveLadder` in
# spoofwatch-core and the live producer, test code (from a file's first
# #[cfg(test)] on) excluded. An option that no run, example or benchmark
# sets to a second value is a constant instead. A change that needs a
# new option raises the budget here and says why.
option_budget=54
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
# fused classify faster than two walks, batch classify >= 3x per-flow,
# detect payload accumulation < 250 ns/record and < 5% on the serial
# commit path, and the interned classifier build >= 2x the
# per-announcement reference build (11 floors). One test thread: two at
# once on a 2-core host distort the absolute ceilings.
cargo test -q --release -p spoofwatch-net -p spoofwatch-obs -p spoofwatch-ixp \
    -p spoofwatch-core --lib -- --ignored floor_ --test-threads=1

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
