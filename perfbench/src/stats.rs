//! Order statistics and process readings.

use std::time::Instant;

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        0.5 * (v[m - 1] + v[m])
    }
}

/// Number of samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail of a sample: the highest percentile with at least
/// [`TAIL_BEYOND`] samples beyond it. Returns `(value, percentile)`, or
/// `None` when the sample is too small to have such a percentile.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.len() <= TAIL_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = v.len() - TAIL_BEYOND - 1;
    let pct = 100.0 * (v.len() - TAIL_BEYOND) as f64 / v.len() as f64;
    Some((v[idx], pct))
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0 / 1e6)
        .unwrap_or(f64::NAN)
}

/// 1-minute load average, or NaN where it cannot be read.
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(f64::NAN)
}

/// Cumulative `(steal, total)` CPU time over all CPUs from `/proc/stat`, in
/// clock ticks; zeros where it cannot be read.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|x| x.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    (
        fields.get(7).copied().unwrap_or(0),
        fields.iter().take(8).sum(),
    )
}

/// Runs `f` repeatedly for at least `min_secs` (and at least `min_reps`
/// times) and returns the median seconds per call.
pub fn time_per_call(min_secs: f64, min_reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < min_reps || start.elapsed().as_secs_f64() < min_secs {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}
