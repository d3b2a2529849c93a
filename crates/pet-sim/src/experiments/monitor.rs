//! Detection latency of the streaming monitor vs churn rate (extension;
//! `pet-core::monitor`).
//!
//! A population under balanced join/leave churn loses a large burst of
//! tags at a fixed update; the streaming monitor re-estimates every
//! update through a sliding window and fires a missing-tag alarm when the
//! windowed estimate drops below `alarm_fraction` of the reference. The
//! sweep measures, per churn rate: how often the alarm fires at all, how
//! many updates after the burst it takes (the detection latency the
//! window trades against noise), and how often it fires *before* the
//! burst (false alarms). PET's per-update estimates are stateless and
//! anonymous, so benign membership turnover should barely move the curve
//! — the measured latency is the window's smoothing delay, not a churn
//! penalty.

use crate::cache::RosterCache;
use crate::runner::run_trials;
use pet_core::config::PetConfig;
use pet_core::monitor::{Monitor, MonitorConfig};
use pet_stats::accuracy::Accuracy;
use pet_tags::dynamics::ChurnSchedule;

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct MonitorSweepParams {
    /// Initial (and reference) population size.
    pub tags: usize,
    /// Estimation updates per trial.
    pub updates: usize,
    /// Sliding-window width in updates.
    pub window: usize,
    /// Rounds per update.
    pub rounds: u32,
    /// Alarm threshold as a fraction of the reference population.
    pub alarm_fraction: f64,
    /// Update index at which the missing-tag burst strikes.
    pub burst_at: usize,
    /// Fraction of the population lost in the burst.
    pub burst_fraction: f64,
    /// Per-update balanced churn rates to sweep (tags joining and leaving
    /// per update).
    pub churn_rates: Vec<usize>,
    /// (ε, δ) of the protocol configuration.
    pub epsilon: f64,
    /// Error probability of the protocol configuration.
    pub delta: f64,
    /// Trials per churn rate.
    pub runs: usize,
    /// Experiment seed.
    pub seed: u64,
}

impl Default for MonitorSweepParams {
    fn default() -> Self {
        Self {
            tags: 2_000,
            updates: 16,
            window: 4,
            rounds: 24,
            alarm_fraction: 0.7,
            burst_at: 8,
            burst_fraction: 0.5,
            churn_rates: vec![0, 20, 50, 100, 200, 400],
            epsilon: 0.2,
            delta: 0.2,
            runs: 200,
            seed: 0x0D15_EA5E,
        }
    }
}

/// One sweep point.
#[derive(Debug, Clone, Copy)]
pub struct MonitorSweepRow {
    /// Balanced churn rate (tags joining and leaving per update).
    pub churn_rate: usize,
    /// Fraction of trials whose alarm fired at or after the burst.
    pub detection_rate: f64,
    /// Mean updates from the burst to the first alarm, censored at
    /// `updates - burst_at` for trials that never alarmed.
    pub mean_latency: f64,
    /// Fraction of trials whose alarm fired *before* the burst.
    pub false_alarm_rate: f64,
}

/// Per-trial outcome encoding for [`run_trials`]'s scalar channel:
/// negative = false alarm (fired before the burst), otherwise the latency
/// in updates (the censoring value when the alarm never fired).
fn trial_outcome(params: &MonitorSweepParams, rate: usize, trial_seed: u64) -> f64 {
    let accuracy = Accuracy::new(params.epsilon, params.delta).expect("valid accuracy");
    let config = PetConfig::builder()
        .accuracy(accuracy)
        .build()
        .expect("valid config");
    let burst_size = (params.burst_fraction * params.tags as f64).round() as usize;
    let monitor = Monitor::new(MonitorConfig {
        config,
        rounds: params.rounds,
        window: params.window,
        alarm_fraction: params.alarm_fraction,
        reference: Some(params.tags as f64),
        base_seed: trial_seed,
    })
    .expect("valid monitor");
    let schedule = ChurnSchedule {
        rate,
        burst_at: Some(params.burst_at),
        burst_size,
    };
    let mut stream = RosterCache::global().sequential_stream(params.tags, monitor, schedule);
    let mut first_alarm: Option<usize> = None;
    for update in 0..params.updates {
        let u = stream.next_update().expect("estimation succeeds");
        if u.alarm && first_alarm.is_none() {
            first_alarm = Some(update);
        }
    }
    let censor = (params.updates - params.burst_at) as f64;
    match first_alarm {
        Some(a) if a < params.burst_at => -1.0,
        Some(a) => (a - params.burst_at) as f64,
        None => censor,
    }
}

/// Runs the sweep.
pub fn run(params: &MonitorSweepParams) -> Vec<MonitorSweepRow> {
    assert!(
        params.burst_at < params.updates,
        "the burst must strike inside the run"
    );
    let censor = (params.updates - params.burst_at) as f64;
    params
        .churn_rates
        .iter()
        .map(|&rate| {
            let outcomes = run_trials(params.runs, params.seed ^ (rate as u64), |trial_seed| {
                trial_outcome(params, rate, trial_seed)
            });
            let n = outcomes.values.len() as f64;
            let false_alarms = outcomes.values.iter().filter(|&&v| v < 0.0).count() as f64;
            let detected = outcomes
                .values
                .iter()
                .filter(|&&v| (0.0..censor).contains(&v))
                .count() as f64;
            // Censored mean over the trials that reached the burst cleanly.
            let latencies: Vec<f64> = outcomes
                .values
                .iter()
                .copied()
                .filter(|&v| v >= 0.0)
                .collect();
            let mean_latency = if latencies.is_empty() {
                censor
            } else {
                latencies.iter().sum::<f64>() / latencies.len() as f64
            };
            MonitorSweepRow {
                churn_rate: rate,
                detection_rate: detected / n,
                mean_latency,
                false_alarm_rate: false_alarms / n,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> MonitorSweepParams {
        MonitorSweepParams {
            tags: 500,
            updates: 10,
            window: 3,
            rounds: 40,
            churn_rates: vec![0, 25, 100],
            burst_at: 5,
            runs: 40,
            ..MonitorSweepParams::default()
        }
    }

    #[test]
    fn burst_is_detected_quickly_at_every_churn_rate() {
        let rows = run(&small_params());
        assert_eq!(rows.len(), 3);
        for r in &rows {
            // Losing half the population past a 0.7 threshold is a loud
            // event: detection must be near-certain and fast, and benign
            // balanced churn must not degrade it.
            assert!(
                r.detection_rate > 0.9,
                "rate {}: detection {}",
                r.churn_rate,
                r.detection_rate
            );
            assert!(
                r.mean_latency <= 4.0,
                "rate {}: latency {}",
                r.churn_rate,
                r.mean_latency
            );
            assert!(
                r.false_alarm_rate < 0.1,
                "rate {}: false alarms {}",
                r.churn_rate,
                r.false_alarm_rate
            );
        }
    }

    #[test]
    fn sweep_replays_bit_for_bit() {
        let params = MonitorSweepParams {
            churn_rates: vec![0, 50],
            runs: 10,
            ..small_params()
        };
        let a = run(&params);
        let b = run(&params);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.detection_rate.to_bits(), y.detection_rate.to_bits());
            assert_eq!(x.mean_latency.to_bits(), y.mean_latency.to_bits());
            assert_eq!(x.false_alarm_rate.to_bits(), y.false_alarm_rate.to_bits());
        }
    }
}
