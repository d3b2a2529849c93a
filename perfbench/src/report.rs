//! The timed phase and the end-to-end metrics every workload reports.

use crate::check::Sample;
use crate::stats::{median, nearest_rank, rel_rmse, windowed_median_rate};
use crate::sys;
use crate::workload::Workload;
use std::time::{Duration, Instant};

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a run found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured stream.
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// Check failures, the run's own and the operations'.
    pub errors: Vec<String>,
    /// The metrics to print.
    pub metrics: Vec<Metric>,
    /// Facts recorded beside the metrics, as `(key, JSON value)`.
    pub context: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Records a failed check, keeping the first few messages.
    pub fn fail(&mut self, error: String) {
        if self.errors.len() < 8 {
            self.errors.push(error);
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// Records one fact beside the metrics.
    pub fn note(&mut self, key: &'static str, value: impl std::fmt::Display) {
        self.context.push((key, value.to_string()));
    }
}

/// A timed phase: per-operation latencies and completion times, plus the
/// CPU steal over the phase.
pub struct Phase {
    start: Instant,
    deadline: Instant,
    steal_before: sys::CpuTimes,
    /// Share of CPU time the hypervisor stole, set by [`Self::finish`].
    pub steal: f64,
    /// The process's peak resident set when the phase ended, before any
    /// of the benchmark's own checking, set by [`Self::finish`].
    pub peak_rss_mb: Result<f64, String>,
    /// Per-operation latency in nanoseconds.
    pub latency_ns: Vec<u64>,
    /// Per-operation completion time since the phase began.
    pub done_ns: Vec<u64>,
}

impl Phase {
    /// Starts a phase lasting `seconds`.
    pub fn begin(seconds: f64) -> Self {
        let steal_before = sys::cpu_times();
        let start = Instant::now();
        Self {
            start,
            deadline: start + Duration::from_secs_f64(seconds),
            steal_before,
            steal: 0.0,
            peak_rss_mb: Err("the timed phase has not finished".into()),
            latency_ns: Vec::new(),
            done_ns: Vec::new(),
        }
    }

    /// Whether the phase has time left.
    pub fn running(&self) -> bool {
        Instant::now() < self.deadline
    }

    /// Records one operation that ran from `began` to `ended`.
    pub fn record(&mut self, began: Instant, ended: Instant) {
        self.latency_ns.push((ended - began).as_nanos() as u64);
        self.done_ns.push((ended - self.start).as_nanos() as u64);
    }

    /// Ends the phase, recording the steal over it and the peak memory.
    pub fn finish(&mut self) {
        self.steal = sys::steal_share(self.steal_before, sys::cpu_times());
        self.peak_rss_mb = sys::peak_rss_mb();
    }
}

/// Nanoseconds to the given scale, for metric values.
pub fn ns(value: u64, per_unit: f64) -> f64 {
    value as f64 / per_unit
}

/// Fills in the seven end-to-end metrics and the context recorded beside
/// them. `prefix` holds the estimates of the workload's
/// checked prefix; `slots` is the mean slot count per estimate.
pub fn end_to_end(
    out: &mut Outcome,
    workload: Workload,
    phase: &Phase,
    setups_s: &[f64],
    prefix: &[Sample],
    slots: f64,
) -> Result<(), String> {
    if phase.latency_ns.is_empty() {
        return Err("no operation completed in the timed phase".into());
    }
    let mut sorted = phase.latency_ns.clone();
    sorted.sort_unstable();
    let attempted = out.attempted.max(1) as f64;
    let elapsed_s = ns(*phase.done_ns.last().expect("non-empty"), 1e9);
    let mean_ns = sorted.iter().sum::<u64>() as f64 / sorted.len() as f64;
    let values = [
        // Whole-phase means, not medians: on a host whose co-tenants slow
        // memory-bound work by up to 1.8x for seconds at a time, a median
        // flips between the two speeds while a mean moves only with the
        // share of slow time (perfbench/README.md gives the spreads).
        (
            "throughput_per_s",
            phase.done_ns.len() as f64 / elapsed_s,
            "1/s",
        ),
        ("latency_mean_ms", mean_ns / 1e6, "ms"),
        (
            "success_rate",
            (attempted - out.failed as f64) / attempted,
            "ratio",
        ),
        (
            "setup_s",
            median(setups_s).expect("at least one set-up"),
            "s",
        ),
        ("peak_rss_mb", phase.peak_rss_mb.clone()?, "MB"),
        (
            "rel_rmse",
            rel_rmse(prefix.iter().map(|s| (s.estimate, s.truth))),
            "ratio",
        ),
        ("slots_per_estimate", slots, "slots"),
    ];
    for (name, value, unit) in values {
        out.metrics.push(Metric { name, value, unit });
    }
    // Not gated: recorded beside the metrics, to read the tail and the host.
    out.note("p50_ms", ns(nearest_rank(&sorted, 0.5), 1e6));
    out.note("p99_ms", ns(nearest_rank(&sorted, 0.99), 1e6));
    out.note("latency_samples", sorted.len());
    out.note(
        "windowed_median_throughput_per_s",
        windowed_median_rate(&phase.done_ns, workload.window()),
    );
    out.note("steal_share", phase.steal);
    out.note("checked_estimates", prefix.len());
    out.note(
        "setups_s",
        format!(
            "[{}]",
            setups_s
                .iter()
                .map(f64::to_string)
                .collect::<Vec<_>>()
                .join(",")
        ),
    );
    Ok(())
}
