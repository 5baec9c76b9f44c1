//! Order statistics and the process-level probes (`/proc`) the
//! end-to-end metrics read.

use std::fs;
use std::path::Path;
use std::time::Instant;

/// Median of `values` (mean of the middle pair for an even count).
/// Panics on an empty slice: every caller has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of one figure across `items`.
pub fn median_by<T>(items: &[T], figure: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(figure).collect::<Vec<_>>())
}

/// First and third quartile by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is what the
/// acceptance driver uses for its spreads. A single sample is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let m = len + 1;
        let j = (i * m / 4).clamp(1, len - 1);
        // Taken after the clamp, so the outer cuts of a short sample
        // extrapolate exactly as Python's do.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Clock ticks per second of `/proc/self/stat`'s utime/stime: fixed at
/// 100 on every Linux ABI Rust's std supports (`USER_HZ`).
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds of the whole process so far, threads that
/// already exited included.
pub fn process_cpu_s() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; fields resume after
    // the closing parenthesis, utime and stime being fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("comm field") + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut tick = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("utime/stime field")
    };
    (tick() + tick()) / USER_HZ
}

/// Reset the resident-set high-water mark so the next [`peak_rss_mb`]
/// covers only what ran in between. Returns whether the kernel allowed
/// it; when not, the peak is process-wide.
pub fn reset_peak_rss() -> bool {
    fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Hand the heap pages that set-up freed back to the kernel. glibc keeps
/// them resident otherwise (≈150 MB after generating a 2 M-record trace,
/// 40 MB more or less depending on the seed), and `peak_rss_mb` would
/// price the benchmark's own leftovers instead of the pipeline. A no-op
/// where the allocator is not glibc's.
pub fn release_freed_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: `malloc_trim` takes no pointer and may be called at
        // any time; it only returns free heap pages to the kernel.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// `VmHWM` in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|l| l.split_ascii_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("VmHWM line");
    kb * 1024.0 / 1e6
}

/// Filesystem type and device of the mount holding `path`, from
/// `/proc/mounts` (longest mount-point prefix wins).
pub fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_ascii_whitespace();
            let (dev, point, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), format!("{fstype} on {dev}")))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, desc)| desc)
}

/// What one timed call cost the process.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
}

/// Run `f` once, timing it from call to return with the resident-set
/// high-water mark reset just before.
pub fn sampled<T>(f: impl FnOnce() -> T) -> (T, Sample) {
    reset_peak_rss();
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - cpu0;
    (
        out,
        Sample {
            wall_s,
            cpu_s,
            peak_rss_mb: peak_rss_mb(),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }

    #[test]
    fn probes_read_this_process() {
        assert!(process_cpu_s() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
