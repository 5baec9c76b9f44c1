//! Measuring one workload: set-up, warm-up, timed repetitions, output
//! checks, and the metrics derived from them.
//!
//! Untraced (`traced = false`) gives the end-to-end metrics: every
//! round runs the reference workload (`file_clean`) and then the
//! workload itself, so `tax_vs_file` compares two runs taken moments
//! apart. Traced gives the per-layer ledger: untraced and traced
//! repetitions alternate (their ratio is the tracing overhead) and the
//! single-threaded kernel pass prices each layer on its own.

use crate::inputs::{set_up, Input};
use crate::kernels::{
    codec_kernels, record_kernels, record_pass, state_kernels, Reference, StateKernels,
};
use crate::modes::{run_once, Ctx, RunOutput, SHARDS};
use crate::spec::{self, Mode, Recipe, WorkloadSpec, MAX_SHARD_WINDOWS};
use crate::stats::{median, median_by, quartiles, release_freed_heap};
use spoofwatch_core::{read_ring, CheckpointStore};
use spoofwatch_ixp::LiveScenario;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Timed repetitions below which a median is not reported.
const MIN_TIMED_REPS: usize = 5;
/// Untraced/traced pairs the traced round takes at least.
const MIN_TRACED_PAIRS: usize = 3;
/// Kernel passes over the trace; every kernel figure is their median.
const KERNEL_REPS: usize = 3;
/// `--quick` divides every input volume by this.
const QUICK_SHRINK: usize = 20;

pub struct Options {
    /// Drives every trace, the fault injector, the runner's sampling
    /// seed and the shard salt.
    pub seed: u64,
    /// How long the timed repetitions go on (at least the minimum
    /// repetition count, whatever this says).
    pub seconds: f64,
    pub traced: bool,
    /// Inputs ÷ 20, one repetition, no warm-up.
    pub quick: bool,
}

/// One reported number with the repetitions behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Per-repetition values (empty for figures that are not sampled
    /// per repetition, such as counts).
    pub samples: Vec<f64>,
}

impl Metric {
    pub fn quartiles(&self) -> Option<(f64, f64)> {
        (self.samples.len() > 1).then(|| quartiles(&self.samples))
    }
}

/// The outcome of measuring one workload once.
pub struct Measurement {
    pub workload: &'static str,
    pub traced: bool,
    pub written_records: u64,
    /// Timed repetitions of the workload.
    pub attempted: u64,
    /// Repetitions that errored or failed an output check.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Measurement {
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Classify workers: the feeder plus the workers fill the machine.
pub fn workers() -> usize {
    cores().saturating_sub(1).max(1)
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Where repetitions keep their checkpoints and rings: inside the
/// package directory, so the benchmark never writes outside its
/// checkout. Real disk, not tmpfs — the fsync figures depend on it.
pub fn scratch_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(".scratch")
}

/// Fresh per-repetition directories under one per-invocation root,
/// removed as soon as a repetition's outputs have been read.
struct Scratch {
    root: PathBuf,
    next: u64,
}

impl Scratch {
    fn new(tag: &str) -> Result<Scratch, String> {
        let root = scratch_root().join(format!("{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
        Ok(Scratch { root, next: 0 })
    }

    fn fresh(&mut self) -> PathBuf {
        self.next += 1;
        self.root.join(format!("rep{}", self.next))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Collects output-check failures, attributing each to a repetition.
#[derive(Default)]
struct Checks {
    /// A `--quick` trace is a single window: no detector has a baseline
    /// to fire against, so the incident check is skipped.
    quick: bool,
    failures: Vec<String>,
    failed_reps: u64,
}

impl Checks {
    /// Check one repetition of `spec` against what it must reproduce.
    /// `first` is the first repetition's digest (every later one must
    /// match), `same_as` a digest from another mode over the same bytes.
    fn repetition(
        &mut self,
        spec: &WorkloadSpec,
        out: &RunOutput,
        input: &Input,
        reference: Option<&Reference>,
        first: &mut Option<u64>,
        same_as: Option<u64>,
    ) {
        let before = self.failures.len();
        let mut check = |ok: bool, what: String| {
            if !ok {
                self.failures.push(format!("{}: {what}", spec.name));
            }
        };
        check(
            out.reconciles,
            "accounting does not reconcile at record, chunk or byte level".into(),
        );
        let first = *first.get_or_insert(out.digest);
        check(
            out.digest == first,
            format!(
                "digest {:#x} differs from the first repetition's {first:#x}",
                out.digest
            ),
        );
        if let Some(want) = same_as {
            check(
                out.digest == want,
                format!(
                    "digest {:#x} differs from file_clean's {want:#x}",
                    out.digest
                ),
            );
        }
        check(
            out.ingest.input_bytes == input.bytes.len() as u64,
            format!(
                "{} of {} input bytes accounted",
                out.ingest.input_bytes,
                input.bytes.len()
            ),
        );
        if let Some(r) = reference {
            let chunks = match spec.mode {
                // One sub-chunk per (chunk, shard) pair.
                Mode::Shard2 => r.chunks * u64::from(SHARDS),
                Mode::File | Mode::Live => r.chunks,
            };
            check(
                out.class_flows == r.class_flows,
                format!(
                    "class counts {:?} differ from the kernel pass's {:?}",
                    out.class_flows, r.class_flows
                ),
            );
            check(
                out.processed_records == r.decoded_records
                    && out.offered_records == r.decoded_records,
                format!(
                    "{} offered / {} processed records, kernel pass decoded {}",
                    out.offered_records, out.processed_records, r.decoded_records
                ),
            );
            check(
                out.chunks == chunks,
                format!("{} chunks committed, expected {chunks}", out.chunks),
            );
            check(
                out.ingest.quarantined_bytes == r.quarantined_bytes
                    && out.ingest.resyncs == r.resyncs,
                "decode health differs from the kernel pass's".into(),
            );
        }
        if spec.corrupt_percent == 0.0 {
            check(
                out.processed_records == input.written_records,
                format!(
                    "{} of {} generated records processed on a clean trace",
                    out.processed_records, input.written_records
                ),
            );
        }
        if spec.recipe == Recipe::Attack && !self.quick {
            check(
                out.incidents > 0,
                "no incident fired on the attack trace".into(),
            );
        }
        if spec.mode == Mode::Shard2 {
            check(
                out.windows <= MAX_SHARD_WINDOWS,
                format!(
                    "{} windows per shard exceed {MAX_SHARD_WINDOWS}",
                    out.windows
                ),
            );
            check(
                out.shard.deaths == 0,
                format!("{} shard deaths", out.shard.deaths),
            );
        }
        if spec.mode == Mode::Live {
            check(
                out.live.shed_records == 0,
                format!("{} records shed at line rate", out.live.shed_records),
            );
        }
        check(
            out.wire_faults == 0,
            format!("{} wire faults", out.wire_faults),
        );
        if self.failures.len() > before {
            self.failed_reps += 1;
        }
    }
}

/// The size guard for the sharded mode, applied before anything runs.
fn guard_shard_windows(spec: &WorkloadSpec, reference: &Reference) -> Result<(), String> {
    let windows = reference.chunks.div_ceil(spec.window_chunks);
    if spec.mode == Mode::Shard2 && windows > MAX_SHARD_WINDOWS {
        return Err(format!(
            "{}: {windows} windows per shard would overflow the shard Report frame \
             (limit {MAX_SHARD_WINDOWS}); raise window_chunks or shrink the trace",
            spec.name
        ));
    }
    Ok(())
}

pub fn measure(spec: &WorkloadSpec, opts: &Options) -> Result<Measurement, String> {
    if opts.traced {
        measure_traced(spec, opts)
    } else {
        measure_end_to_end(spec, opts)
    }
}

fn shrink(opts: &Options) -> usize {
    if opts.quick {
        QUICK_SHRINK
    } else {
        1
    }
}

fn live_scenario(spec: &WorkloadSpec, input: &Input) -> Option<LiveScenario> {
    (spec.mode == Mode::Live)
        .then(|| LiveScenario::from_ipfix(input.bytes.clone(), spec.chunk_records))
}

fn measure_end_to_end(spec: &WorkloadSpec, opts: &Options) -> Result<Measurement, String> {
    let reference_spec = spec::reference();
    let is_reference = spec.name == reference_spec.name;
    // shard2_clean and live_clean replay file_clean's exact bytes with
    // its chunking, so they must land on its digest.
    let shares_reference_bytes =
        spec.recipe == reference_spec.recipe && spec.corrupt_percent == 0.0;
    let expects_reference_digest = shares_reference_bytes
        && !is_reference
        && spec.chunk_records == reference_spec.chunk_records
        && spec.window_chunks == reference_spec.window_chunks;

    // One set-up per invocation: a second one, for a median, costs as
    // much as half the rounds, and the rounds are what the wall-clock
    // metrics' steadiness rests on.
    let with_reference = (!shares_reference_bytes).then_some(reference_spec);
    let (classifier, input, reference_input, setup) =
        set_up(spec, with_reference, opts.seed, shrink(opts));
    let reference_input = reference_input.as_ref().unwrap_or(&input);

    let ctx = Ctx {
        classifier: &classifier,
        seed: opts.seed,
        workers: workers(),
    };
    let scenario = live_scenario(spec, &input);
    let (kernel_reference, _) = record_pass(&classifier, spec, &input.bytes, opts.seed);
    guard_shard_windows(spec, &kernel_reference)?;
    // What the repetitions find resident is the classifier and the
    // input bytes, not what generating them left on the heap.
    release_freed_heap();

    let mut scratch = Scratch::new(spec.name)?;
    let mut run = |spec: &WorkloadSpec, input: &Input| -> Result<RunOutput, String> {
        let dir = scratch.fresh();
        let out = run_once(&ctx, spec, input, scenario.as_ref(), &dir, false);
        let _ = std::fs::remove_dir_all(&dir);
        out
    };

    let mut checks = Checks {
        quick: opts.quick,
        ..Checks::default()
    };
    let (mut first, mut first_reference) = (None, None);
    let (mut rate, mut cpu_ns, mut tax, mut share, mut rss) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut cpu_total_s, mut attempted) = (0.0, 0u64);
    let written = input.written_records as f64;

    let (min_reps, seconds) = if opts.quick {
        (1, 0.0)
    } else {
        (MIN_TIMED_REPS, opts.seconds)
    };
    let mut warm_up = !opts.quick;
    let mut started = Instant::now();
    while warm_up || rate.len() < min_reps || started.elapsed().as_secs_f64() < seconds {
        let reference_out = if is_reference {
            None
        } else {
            let out = run(reference_spec, reference_input)?;
            checks.repetition(
                reference_spec,
                &out,
                reference_input,
                None,
                &mut first_reference,
                None,
            );
            Some(out)
        };
        let out = run(spec, &input)?;
        let same_as = expects_reference_digest
            .then_some(first_reference)
            .flatten();
        checks.repetition(
            spec,
            &out,
            &input,
            Some(&kernel_reference),
            &mut first,
            same_as,
        );
        if warm_up {
            // Caches, page tables and the allocator have settled; the
            // clock starts now.
            warm_up = false;
            checks.failed_reps = 0;
            started = Instant::now();
            continue;
        }
        attempted += 1;
        let per_record = out.sample.wall_s / written;
        rate.push(written / out.sample.wall_s);
        cpu_ns.push(out.sample.cpu_s * 1e9 / written);
        cpu_total_s += out.sample.cpu_s;
        tax.push(match &reference_out {
            Some(r) => per_record / (r.sample.wall_s / reference_input.written_records as f64),
            None => 1.0,
        });
        share.push(out.processed_records as f64 / written);
        rss.push(out.sample.peak_rss_mb);
    }

    let metric = |name: &'static str, value: f64, samples: Vec<f64>| Metric {
        name,
        unit: end_to_end_unit(name),
        value,
        samples,
    };
    let metrics = vec![
        metric("records_per_sec", median(&rate), rate),
        // /proc/self/stat counts CPU in 10 ms ticks, a few percent of
        // one repetition: the total over all timed repetitions has the
        // resolution a per-repetition median lacks.
        metric(
            "cpu_ns_per_record",
            cpu_total_s * 1e9 / (written * attempted as f64),
            cpu_ns,
        ),
        metric("tax_vs_file", median(&tax), tax),
        metric("processed_share", median(&share), share),
        metric("peak_rss_mb", median(&rss), rss),
        metric("setup_s", setup.total_s(), vec![setup.total_s()]),
    ];
    Ok(Measurement {
        workload: spec.name,
        traced: false,
        written_records: input.written_records,
        attempted,
        failed: checks.failed_reps,
        failures: checks.failures,
        metrics,
    })
}

fn end_to_end_unit(name: &str) -> &'static str {
    spec::END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .expect("metric listed in spec::END_TO_END")
}

/// Median of an optional per-repetition figure, if any repetition has it.
fn median_of(outs: &[RunOutput], f: impl Fn(&RunOutput) -> Option<u64>) -> Option<f64> {
    let v: Vec<f64> = outs.iter().filter_map(|o| f(o).map(|n| n as f64)).collect();
    (!v.is_empty()).then(|| median(&v))
}

fn measure_traced(spec: &WorkloadSpec, opts: &Options) -> Result<Measurement, String> {
    let (classifier, input, _, setup) = set_up(spec, None, opts.seed, shrink(opts));
    let ctx = Ctx {
        classifier: &classifier,
        seed: opts.seed,
        workers: workers(),
    };
    let scenario = live_scenario(spec, &input);
    let kernel_reps = if opts.quick { 1 } else { KERNEL_REPS };
    let (reference, kernels) =
        record_kernels(&classifier, spec, &input.bytes, opts.seed, kernel_reps);
    guard_shard_windows(spec, &reference)?;
    let codecs = codec_kernels(spec, &input.bytes, opts.seed, kernel_reps);

    let mut scratch = Scratch::new(&format!("{}-traced", spec.name))?;
    let mut checks = Checks {
        quick: opts.quick,
        ..Checks::default()
    };
    let mut first = None;
    let mut run = |traced: bool, keep: &mut Option<PathBuf>| -> Result<RunOutput, String> {
        let dir = scratch.fresh();
        let out = run_once(&ctx, spec, &input, scenario.as_ref(), &dir, traced)?;
        // Tracing must not change what the run computes.
        checks.repetition(spec, &out, &input, Some(&reference), &mut first, None);
        if let Some(old) = keep.replace(dir) {
            let _ = std::fs::remove_dir_all(old);
        }
        Ok(out)
    };

    let mut last_dir = None;
    if !opts.quick {
        run(false, &mut last_dir)?;
    }
    let (min_pairs, seconds) = if opts.quick {
        (1, 0.0)
    } else {
        (MIN_TRACED_PAIRS, opts.seconds)
    };
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while traced.len() < min_pairs || started.elapsed().as_secs_f64() < seconds {
        plain.push(run(false, &mut last_dir)?);
        traced.push(run(true, &mut last_dir)?);
    }
    let attempted = traced.len() as u64;
    let failed = checks.failed_reps;
    let failures = std::mem::take(&mut checks.failures);

    // Durable-state kernels run on what the last traced run left behind.
    let last_dir = last_dir.expect("at least one traced run");
    let state = state_kernels_of(spec, &last_dir, &scratch.fresh())?;

    let traced_wall_ns = median_by(&traced, |o| o.sample.wall_s) * 1e9;
    // Each traced repetition against the untraced one taken just before
    // it: host noise common to the pair cancels.
    let pairs: Vec<_> = plain.iter().zip(&traced).collect();
    let overhead = median_by(&pairs, |(p, t)| t.sample.wall_s / p.sample.wall_s - 1.0);
    let written = input.written_records as f64;
    let decoded = reference.decoded_records as f64;
    let last = traced.last().expect("at least one traced run");

    // Where a mode has no seam to time from outside, the kernel figure
    // stands in: every decoder walks the whole trace (one per shard
    // supervisor, one in the live producer), the fingerprint is taken
    // once.
    // One runner (and one link, where the mode has links) per shard.
    let runners = match spec.mode {
        Mode::Shard2 => f64::from(SHARDS),
        Mode::File | Mode::Live => 1.0,
    };
    let fingerprint_ns =
        median_of(&traced, |o| o.trace.fingerprint_ns).unwrap_or(kernels.fingerprint_ns * decoded);
    let source_one_ns =
        median_of(&traced, |o| o.trace.source_busy_ns).unwrap_or(kernels.next_chunk_ns * decoded);
    let classify_busy_ns =
        median_of(&traced, |o| o.trace.classify_busy_ns).unwrap_or(kernels.classify_ns * decoded);
    let worker_threads = match spec.mode {
        Mode::Shard2 => runners,
        Mode::File | Mode::Live => ctx.workers as f64,
    };
    // A shard's runner checkpoints every `checkpoint_every` chunks and
    // once at the end; file and live runs report their own count.
    let saves_per_runner = match spec.mode {
        Mode::Shard2 => (reference.chunks / spec.checkpoint_every + 1) as f64,
        Mode::File | Mode::Live => last.checkpoints_written as f64,
    };
    let windows = last.windows as f64;
    let explained_ns = fingerprint_ns
        + source_one_ns
        + saves_per_runner * state.checkpoint_save_us * 1e3
        + windows * state.write_window_us * 1e3
        + reference.chunks as f64 * kernels.merge_us_per_chunk * 1e3;

    let chunks = reference.chunks.max(1) as f64;
    let values: Vec<(&str, f64)> = vec![
        ("chunked.fingerprint_ns_per_record", kernels.fingerprint_ns),
        ("chunked.next_chunk_ns_per_record", kernels.next_chunk_ns),
        ("chunked.next_batch_ns_per_record", kernels.next_batch_ns),
        (
            "chunked.quarantined_byte_share",
            reference.quarantined_bytes as f64 / reference.input_bytes.max(1) as f64,
        ),
        ("chunked.resyncs", reference.resyncs as f64),
        ("batch.classify_ns_per_record", kernels.classify_ns),
        (
            "batch.classify_columns_ns_per_record",
            kernels.classify_columns_ns,
        ),
        (
            "batch.illegitimate_share",
            1.0 - reference.class_flows[spoofwatch_net::TrafficClass::Valid.index()] as f64
                / decoded.max(1.0),
        ),
        ("detect.from_chunk_ns_per_record", kernels.from_chunk_ns),
        ("detect.merge_us_per_chunk", kernels.merge_us_per_chunk),
        ("detect.observe_us_per_window", state.observe_us_per_window),
        ("detect.incidents", last.incidents as f64),
        ("checkpoint.encode_us", state.checkpoint_encode_us),
        ("checkpoint.save_us", state.checkpoint_save_us),
        ("checkpoint.bytes", state.checkpoint_bytes),
        ("checkpoint.saves", saves_per_runner * runners),
        ("rollup.write_window_us", state.write_window_us),
        ("rollup.window_bytes", state.window_bytes),
        ("rollup.windows", windows),
        ("runner.traced_wall_ns_per_record", traced_wall_ns / written),
        ("runner.trace_overhead_share", overhead),
        (
            "runner.source_busy_ns_per_record",
            source_one_ns * runners / written,
        ),
        (
            "runner.classify_busy_ns_per_record",
            classify_busy_ns / written,
        ),
        (
            "runner.worker_utilisation",
            (classify_busy_ns + kernels.from_chunk_ns * decoded)
                / (worker_threads * traced_wall_ns),
        ),
        ("runner.chunks", last.chunks as f64),
        ("runner.worker_restarts", last.worker_restarts as f64),
        ("runner.residual_share", 1.0 - explained_ns / traced_wall_ns),
        ("wire.frame_roundtrip_ns_per_record", codecs.frame_ns),
        (
            "link.bytes_per_record",
            last.trace.link_bytes as f64 / written,
        ),
        (
            "link.frames_per_chunk",
            last.trace.link_frames as f64 / chunks,
        ),
        (
            "link.send_blocked_share",
            last.trace.data_send_ns as f64 / (runners * traced_wall_ns),
        ),
        ("link.wire_faults", last.wire_faults as f64),
        ("shard.partition_ns_per_record", codecs.partition_ns),
        ("shard.partition_skew", codecs.partition_skew),
        ("shard.deaths", last.shard.deaths as f64),
        ("shard.heartbeat_misses", last.shard.heartbeat_misses as f64),
        ("live.msg_roundtrip_ns_per_record", codecs.live_msg_ns),
        (
            "live.chunks_sent_per_chunk",
            last.live.chunks_sent as f64 / chunks,
        ),
        ("live.credits_granted", last.live.credits_granted as f64),
        (
            "live.max_buffered_chunks",
            last.live.max_buffered_chunks as f64,
        ),
        ("live.shed_records", last.live.shed_records as f64),
        ("live.normal_state_share", last.live.normal_state_share),
        ("compiled.build_s", setup.classifier_build_s),
        (
            "compiled.memory_mb",
            classifier.compiled().memory_bytes() as f64 / 1e6,
        ),
    ];
    let metrics = spec::PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| *v)
                .expect("every per-layer metric is computed");
            Metric {
                name,
                unit,
                value,
                samples: Vec::new(),
            }
        })
        .collect();
    Ok(Measurement {
        workload: spec.name,
        traced: true,
        written_records: input.written_records,
        attempted,
        failed,
        failures,
        metrics,
    })
}

/// Load the terminal checkpoint and the ring a run left in `dir` (shard
/// 0's, for the sharded mode) and time the durable-state kernels on
/// them in `scratch`.
fn state_kernels_of(
    spec: &WorkloadSpec,
    dir: &Path,
    scratch: &Path,
) -> Result<StateKernels, String> {
    let (ckpt, ring) = match spec.mode {
        Mode::Shard2 => ("shard0-ckpt", "shard0-ring"),
        Mode::File | Mode::Live => ("ckpt", "ring"),
    };
    let store = CheckpointStore::open(dir.join(ckpt)).map_err(|e| format!("open store: {e}"))?;
    let (checkpoint, _slot) = store
        .load_latest()
        .0
        .ok_or("the run left no terminal checkpoint")?;
    let (windows, _) = read_ring(&dir.join(ring)).map_err(|e| format!("read ring: {e}"))?;
    state_kernels(&checkpoint, &windows, scratch)
}
