//! What the host looked like during a run: recorded beside the metrics so
//! a run on a stolen CPU or another SIMD lane can be told apart from a
//! slow change. No metric is computed from these.

/// Aggregate CPU time counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    steal: u64,
    total: u64,
}

/// Reads `/proc/stat`; zeros where it is unavailable.
pub fn cpu_times() -> CpuTimes {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return CpuTimes::default();
    };
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user and nice.
    CpuTimes {
        steal: fields.get(7).copied().unwrap_or(0),
        total: fields.iter().take(8).sum(),
    }
}

/// Share of all CPU time between two readings that the hypervisor stole.
pub fn steal_share(before: CpuTimes, after: CpuTimes) -> f64 {
    let total = after.total.saturating_sub(before.total);
    if total == 0 {
        return 0.0;
    }
    after.steal.saturating_sub(before.steal) as f64 / total as f64
}

/// The process's peak resident set (`VmHWM`) in MiB.
///
/// # Errors
///
/// `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The SIMD lane the hashing and counting kernels dispatch to.
pub fn lane() -> &'static str {
    pet_hash::simd::active_lane().as_str()
}
