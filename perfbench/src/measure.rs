//! Timing, statistics and process-resource helpers shared by the
//! workloads.

use std::time::Instant;

/// Seconds elapsed since `start`.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Milliseconds elapsed since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// The `p`-th percentile (0–100) of `values` by linear interpolation
/// between the closest ranks; `NaN` for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Arithmetic mean; 0 for an empty slice (a layer that did no work).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// User + system CPU seconds this process has used so far, all threads
/// included (`/proc/self/stat`, in USER_HZ = 100 ticks per second).
pub fn cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // Fields after the parenthesised command name start at field 3
    // (state); utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<f64>().expect("numeric tick count");
    (ticks(11) + ticks(12)) / 100.0
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
        .expect("VmHWM is reported");
    kb / 1024.0
}

/// Accumulates CPU seconds over the measured phases of a run, excluding
/// the set-up and checking work between them.
#[derive(Debug, Default)]
pub struct CpuMeter {
    total: f64,
    started: Option<f64>,
}

impl CpuMeter {
    /// Starts a measured interval.
    pub fn start(&mut self) {
        self.started = Some(cpu_secs());
    }

    /// Ends the interval opened by [`Self::start`].
    pub fn stop(&mut self) {
        let start = self.started.take().expect("CpuMeter::stop without start");
        self.total += cpu_secs() - start;
    }

    /// CPU milliseconds per epoch over every closed interval.
    pub fn ms_per(&self, epochs: usize) -> f64 {
        self.total * 1e3 / epochs.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((percentile(&v, 90.0) - 3.7).abs() < 1e-12);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn process_counters_read() {
        assert!(cpu_secs() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
