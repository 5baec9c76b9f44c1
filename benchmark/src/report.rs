//! Printing: the per-metric lines, the one-object contract line, the
//! repeat check, and the result file of a full run.

use crate::inputs::WORLD_SEED;
use crate::measure::{cores, scratch_root, workers, Measurement};
use crate::spec::{self, Better};
use crate::stats::{filesystem_of, spread};
use crate::ChildRun;
use std::fmt::{self, Write as _};
use std::path::PathBuf;

/// A JSON number. Non-finite values have no JSON form and always mean a
/// division by a zero that should not be there.
fn number(name: &str, v: f64) -> Result<String, String> {
    if v.is_finite() {
        Ok(format!("{v}"))
    } else {
        Err(format!("metric {name} is not a finite number"))
    }
}

/// A JSON string of plain text (names, units, version lines).
fn string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub fn print_measurement(m: &Measurement) {
    println!(
        "workload {} ({}; {} records, {} timed repetitions, {} failed)",
        m.workload,
        if m.traced {
            "per-layer, traced"
        } else {
            "end-to-end, untraced"
        },
        m.written_records,
        m.attempted,
        m.failed,
    );
    for metric in &m.metrics {
        let detail = match metric.quartiles() {
            Some((q1, q3)) => format!(
                "  quartiles {q1:.6}..{q3:.6} spread {:.4} n={}",
                spread(&metric.samples),
                metric.samples.len()
            ),
            None => String::new(),
        };
        println!(
            "  {:<40} {:>16.6} {}{detail}",
            metric.name, metric.value, metric.unit
        );
    }
    for failure in &m.failures {
        println!("  CHECK FAILED {failure}");
    }
}

/// The line `BENCHMARK.json`'s contract asks for: exactly `correct`,
/// `attempted`, `failed`, `metrics`.
pub fn contract_json(m: &Measurement) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(m.metrics.len());
    for metric in &m.metrics {
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            string(metric.name),
            number(metric.name, metric.value)?,
            string(metric.unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.correct(),
        m.attempted.max(1),
        m.failed,
        metrics.join(", ")
    ))
}

/// Where and on what the numbers were taken.
pub struct Environment {
    pub seed: u64,
    pub cores: usize,
    pub workers: usize,
    pub rustc: String,
    pub scratch_filesystem: String,
    pub peak_rss_resets: bool,
}

impl Environment {
    pub fn probe(seed: u64) -> Environment {
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        let scratch = scratch_root();
        let _ = std::fs::create_dir_all(&scratch);
        Environment {
            seed,
            cores: cores(),
            workers: workers(),
            rustc,
            scratch_filesystem: filesystem_of(&scratch),
            peak_rss_resets: crate::stats::reset_peak_rss(),
        }
    }
}

impl fmt::Display for Environment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "seed {}, world seed {}, {} cores, {} classify workers + 1 feeder, {}",
            self.seed, WORLD_SEED, self.cores, self.workers, self.rustc
        )?;
        writeln!(f, "scratch on {}", self.scratch_filesystem)?;
        writeln!(
            f,
            "peak_rss_mb is {}",
            if self.peak_rss_resets {
                "per repetition (high-water mark reset through /proc/self/clear_refs)"
            } else {
                "process-wide (/proc/self/clear_refs is not writable here)"
            }
        )?;
        write!(
            f,
            "closed loop, one producer; links are in-process channels through the full \
             frame codec, no socket"
        )
    }
}

/// The value of metric `name` in a contract line
/// (`... "name": {"value": 1.5, "unit": ...`).
fn contract_value(contract: &str, name: &str) -> Result<f64, String> {
    let key = format!("{}: {{\"value\": ", string(name));
    contract
        .split_once(&key)
        .and_then(|(_, rest)| rest.split_once(','))
        .and_then(|(value, _)| value.trim().parse().ok())
        .ok_or_else(|| format!("no metric {name} in {contract}"))
}

/// Compare each untraced measurement with its repeat, metric by metric:
/// the second median may not be worse than the first by more than the
/// metric's own bound, nor better by more (the two are the same code).
/// Each measurement printed its own within-run spreads above, so a
/// bound tighter than the noise is visible next to a disagreement.
pub fn print_repeat_check(first: &[ChildRun], second: &[ChildRun]) -> Result<bool, String> {
    println!("repeat check: every end-to-end measurement against its repeat");
    let mut ok = true;
    for (a, b) in first.iter().filter(|r| !r.traced).zip(second) {
        for e in &spec::END_TO_END {
            let va = contract_value(&a.contract, e.name)?;
            let vb = contract_value(&b.contract, e.name)?;
            let moved = match e.better {
                Better::Higher => (vb - va) / va,
                Better::Lower => (va - vb) / va,
            };
            let agrees = moved.abs() <= e.bound;
            ok &= agrees;
            println!(
                "  {:<18} {:<18} {va:>16.6} vs {vb:>16.6}  {:+.4} (bound {:.2})  {}",
                a.workload,
                e.name,
                moved,
                e.bound,
                if agrees { "ok" } else { "DISAGREES" },
            );
        }
    }
    Ok(ok)
}

/// One measurement with everything the result file keeps: quartiles,
/// spread, repetitions, records, failures.
pub fn detail_json(m: &Measurement) -> Result<String, String> {
    let mut metrics = Vec::new();
    for metric in &m.metrics {
        let mut fields = format!(
            "\"value\": {}, \"unit\": {}",
            number(metric.name, metric.value)?,
            string(metric.unit)
        );
        if let Some(e) = spec::END_TO_END.iter().find(|e| e.name == metric.name) {
            write!(fields, ", \"bound\": {}", e.bound).expect("write to a String");
        }
        if let Some((q1, q3)) = metric.quartiles() {
            write!(
                fields,
                ", \"q1\": {}, \"q3\": {}, \"spread\": {}, \"reps\": {}",
                number(metric.name, q1)?,
                number(metric.name, q3)?,
                number(metric.name, spread(&metric.samples))?,
                metric.samples.len()
            )
            .expect("write to a String");
        }
        metrics.push(format!("{}: {{{fields}}}", string(metric.name)));
    }
    let failures: Vec<String> = m.failures.iter().map(|f| string(f)).collect();
    Ok(format!(
        "{{\"workload\": {}, \"traced\": {}, \"records\": {}, \"reps\": {}, \"failed\": {}, \
         \"correct\": {}, \"failures\": [{}], \"metrics\": {{{}}}}}",
        string(m.workload),
        m.traced,
        m.written_records,
        m.attempted,
        m.failed,
        m.correct(),
        failures.join(", "),
        metrics.join(", ")
    ))
}

/// Write the full run's result beside the package and return its path.
pub fn write_result(env: &Environment, quick: bool, runs: &[ChildRun]) -> Result<PathBuf, String> {
    let runs: Vec<&str> = runs.iter().map(|r| r.detail.as_str()).collect();
    let json = format!(
        "{{\"seed\": {}, \"world_seed\": {}, \"quick\": {quick}, \"cores\": {}, \
         \"workers\": {}, \"rustc\": {}, \"scratch_filesystem\": {}, \
         \"peak_rss_resets\": {}, \
         \"links\": \"in-process channels, full frame codec, no socket\",\n \
         \"runs\": [\n  {}\n ]}}\n",
        env.seed,
        WORLD_SEED,
        env.cores,
        env.workers,
        string(&env.rustc),
        string(&env.scratch_filesystem),
        env.peak_rss_resets,
        runs.join(",\n  ")
    );
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let name = if quick { "quick" } else { "full" };
    let path = dir.join(format!("{name}-seed{}.json", env.seed));
    std::fs::write(&path, json).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}
