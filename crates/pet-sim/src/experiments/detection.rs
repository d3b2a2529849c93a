//! Missing-tag detection power curve (extension; the one-shot audit).
//!
//! Sweeps the true missing fraction and measures the alarm rate of the
//! calibrated audit — one estimate per trial, alarming when its
//! [`ReferenceTest`] p-value against the book inventory falls below α —
//! against its closed-form normal-theory prediction. The θ = 0 column
//! doubles as the false-alarm calibration check.

use crate::runner::run_trials;
use pet_core::config::PetConfig;
use pet_core::front::Estimator;
use pet_core::monitor::ReferenceTest;
use pet_stats::accuracy::Accuracy;
use pet_stats::erf::normal_cdf;
use pet_stats::gray::SIGMA_H;
use pet_tags::population::TagPopulation;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Sweep parameters.
#[derive(Debug, Clone)]
pub struct DetectionParams {
    /// Book inventory size.
    pub expected: u64,
    /// Missing fractions to sweep (0 = calibration point).
    pub missing_fractions: Vec<f64>,
    /// Audit false-alarm rate α.
    pub alpha: f64,
    /// (ε, δ) of the underlying PET estimates (sets the round budget).
    pub epsilon: f64,
    /// Error probability of the underlying estimates.
    pub delta: f64,
    /// Runs per sweep point.
    pub runs: usize,
    /// Experiment seed.
    pub seed: u64,
}

impl Default for DetectionParams {
    fn default() -> Self {
        Self {
            expected: 50_000,
            missing_fractions: vec![0.0, 0.02, 0.04, 0.06, 0.08, 0.10, 0.15],
            alpha: 0.01,
            epsilon: 0.05,
            delta: 0.05,
            runs: 300,
            seed: 0xDE7EC7,
        }
    }
}

/// One sweep point.
#[derive(Debug, Clone, Copy)]
pub struct DetectionRow {
    /// True missing fraction θ.
    pub missing_fraction: f64,
    /// Measured alarm rate.
    pub alarm_rate: f64,
    /// Closed-form predicted alarm rate (normal theory).
    pub predicted_rate: f64,
}

/// Runs the sweep.
pub fn run(params: &DetectionParams) -> Vec<DetectionRow> {
    let accuracy = Accuracy::new(params.epsilon, params.delta).expect("valid accuracy");
    let rounds = accuracy.pet_rounds();
    let se = SIGMA_H / f64::from(rounds).sqrt();
    // z_α (lower tail critical value).
    let z_alpha = -pet_stats::erf::two_sided_quantile(2.0 * params.alpha);
    params
        .missing_fractions
        .iter()
        .map(|&theta| {
            let present = ((1.0 - theta) * params.expected as f64).round() as usize;
            let alarms = run_trials(params.runs, params.seed ^ theta.to_bits(), |trial_seed| {
                let config = PetConfig::builder()
                    .accuracy(accuracy)
                    .manufacture_seed(trial_seed)
                    .build()
                    .expect("valid config");
                let test = ReferenceTest::new(params.expected as f64, config.height())
                    .expect("positive book inventory");
                let mut rng = StdRng::seed_from_u64(trial_seed);
                let report = Estimator::new(config)
                    .estimate_population(&TagPopulation::sequential(present), &mut rng);
                let alarm = test.p_value(report.mean_prefix_len, report.rounds) < params.alpha;
                f64::from(u8::from(alarm))
            });
            // Predicted: the statistic shifts by log₂(1−θ); alarm when
            // Z < z_α + |shift|/se.
            let shift = if theta > 0.0 {
                -(1.0 - theta).log2()
            } else {
                0.0
            };
            let predicted = normal_cdf(z_alpha + shift / se);
            DetectionRow {
                missing_fraction: theta,
                alarm_rate: alarms.mean,
                predicted_rate: predicted,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_curve_matches_theory() {
        let rows = run(&DetectionParams {
            expected: 20_000,
            missing_fractions: vec![0.0, 0.05, 0.12],
            alpha: 0.05,
            epsilon: 0.10,
            delta: 0.10,
            runs: 120,
            seed: 9,
        });
        // θ = 0: alarm rate ≈ α.
        assert!(
            rows[0].alarm_rate < 0.15,
            "false alarms {}",
            rows[0].alarm_rate
        );
        // Monotone power.
        assert!(rows[1].alarm_rate >= rows[0].alarm_rate);
        assert!(rows[2].alarm_rate >= rows[1].alarm_rate);
        // Large deficit: strong detection (normal theory predicts ≈ 0.71
        // at this reduced budget), and theory agrees below.
        assert!(rows[2].alarm_rate > 0.6, "power {}", rows[2].alarm_rate);
        for r in &rows {
            assert!(
                (r.alarm_rate - r.predicted_rate).abs() < 0.15,
                "θ = {}: measured {} vs predicted {}",
                r.missing_fraction,
                r.alarm_rate,
                r.predicted_rate
            );
        }
    }
}
