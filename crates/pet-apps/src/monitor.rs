//! Missing-tag (loss/theft) detection by estimation.
//!
//! The classic "how to monitor for missing RFID tags" problem (paper
//! refs \[30\], \[37\]) solved the estimation way: with book inventory `n₀` and
//! a PET run of `m` rounds, the mean responsive-prefix statistic `L̄` is
//! asymptotically `N(E[L | n], σ(h)/√m)`, so "are tags missing?" is a
//! one-sided z-test of `H₀: n = n₀` against `H₁: n < n₀`. Both error rates
//! are controlled: the false-alarm probability is the chosen significance
//! level, and the per-check power against a given missing fraction is
//! computable in closed form (and verified empirically in the tests).

use pet_core::config::PetConfig;
use pet_core::front::Estimator;
use pet_stats::erf::normal_cdf;
use pet_stats::gray::{z_statistic, GrayDistribution, SIGMA_H};
use pet_tags::population::TagPopulation;
use rand::Rng;
use std::fmt;

/// Error constructing a [`MissingTagMonitor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MonitorError {
    /// The expected inventory must be positive.
    EmptyInventory,
    /// The false-alarm rate must lie in (0, 0.5].
    BadFalseAlarmRate,
}

impl fmt::Display for MonitorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyInventory => write!(f, "expected inventory must be positive"),
            Self::BadFalseAlarmRate => {
                write!(f, "false-alarm rate must lie in (0, 0.5]")
            }
        }
    }
}

impl std::error::Error for MonitorError {}

/// The outcome of one inventory check.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorVerdict {
    /// The raw cardinality estimate.
    pub estimate: f64,
    /// Estimated missing fraction `1 − n̂/n₀` (can be negative by noise).
    pub missing_fraction: f64,
    /// One-sided p-value of the observation under "nothing is missing".
    pub p_value: f64,
    /// Whether the deficit is statistically significant.
    pub alarm: bool,
}

/// A calibrated missing-tag detector.
#[derive(Debug, Clone)]
pub struct MissingTagMonitor {
    expected: u64,
    false_alarm_rate: f64,
    config: PetConfig,
    /// Exact `E[L]` under the null hypothesis (full inventory).
    null_mean_prefix: f64,
}

impl MissingTagMonitor {
    /// Creates a monitor for a book inventory of `expected` tags that
    /// alarms with at most `false_alarm_rate` probability when nothing is
    /// missing.
    ///
    /// # Errors
    ///
    /// Returns an error for an empty inventory or a rate outside (0, 0.5].
    pub fn new(
        expected: u64,
        false_alarm_rate: f64,
        config: PetConfig,
    ) -> Result<Self, MonitorError> {
        if expected == 0 {
            return Err(MonitorError::EmptyInventory);
        }
        if !(false_alarm_rate > 0.0 && false_alarm_rate <= 0.5) {
            return Err(MonitorError::BadFalseAlarmRate);
        }
        let null_mean_prefix = GrayDistribution::new(expected, config.height()).mean_prefix();
        Ok(Self {
            expected,
            false_alarm_rate,
            config,
            null_mean_prefix,
        })
    }

    /// The book inventory.
    #[must_use]
    pub fn expected(&self) -> u64 {
        self.expected
    }

    /// Evaluates an observed mean prefix length from `rounds` rounds
    /// without running any radio — the decision core, also used by tests.
    #[must_use]
    pub fn judge(&self, mean_prefix: f64, rounds: u32) -> MonitorVerdict {
        // Fewer tags ⇒ shorter responsive prefixes ⇒ small L̄ is evidence of
        // missing tags: one-sided lower-tail test.
        let p_value = normal_cdf(z_statistic(mean_prefix, self.null_mean_prefix, rounds));
        let estimate = pet_stats::gray::estimate_from_mean_prefix(mean_prefix);
        MonitorVerdict {
            estimate,
            missing_fraction: 1.0 - estimate / self.expected as f64,
            p_value,
            alarm: p_value < self.false_alarm_rate,
        }
    }

    /// Runs a full PET estimation over the population and judges it.
    pub fn check<R: Rng + ?Sized>(
        &self,
        population: &TagPopulation,
        rng: &mut R,
    ) -> MonitorVerdict {
        let report = Estimator::new(self.config).estimate_population(population, rng);
        self.judge(report.mean_prefix_len, report.rounds)
    }

    /// Smallest missing fraction detectable with probability ≥ `power` at
    /// this monitor's round budget — the closed-form power analysis.
    ///
    /// # Panics
    ///
    /// Panics if `power` is not in (0, 1).
    #[must_use]
    pub fn detectable_fraction(&self, power: f64) -> f64 {
        assert!(power > 0.0 && power < 1.0, "power must be in (0, 1)");
        let m = f64::from(self.config.rounds());
        let se = SIGMA_H / m.sqrt();
        // Alarm when z < z_α; detection of fraction θ needs the mean shift
        // |log₂(1−θ)| to exceed (|z_α| + z_power)·se, with the one-sided
        // quantiles Φ⁻¹(α) and Φ⁻¹(power).
        let z_alpha =
            std::f64::consts::SQRT_2 * pet_stats::erf::erf_inv(2.0 * self.false_alarm_rate - 1.0);
        let z_power = std::f64::consts::SQRT_2 * pet_stats::erf::erf_inv(2.0 * power - 1.0);
        let shift = (z_alpha.abs() + z_power) * se;
        1.0 - 2f64.powf(-shift)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pet_stats::accuracy::Accuracy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn monitor(expected: u64, alpha: f64) -> MissingTagMonitor {
        let config = PetConfig::builder()
            .accuracy(Accuracy::new(0.05, 0.05).unwrap())
            .build()
            .unwrap();
        MissingTagMonitor::new(expected, alpha, config).unwrap()
    }

    #[test]
    fn construction_validation() {
        let config = PetConfig::paper_default();
        assert_eq!(
            MissingTagMonitor::new(0, 0.01, config).unwrap_err(),
            MonitorError::EmptyInventory
        );
        assert_eq!(
            MissingTagMonitor::new(10, 0.0, config).unwrap_err(),
            MonitorError::BadFalseAlarmRate
        );
        assert_eq!(
            MissingTagMonitor::new(10, 0.9, config).unwrap_err(),
            MonitorError::BadFalseAlarmRate
        );
    }

    /// False-alarm calibration: with the full inventory present, the alarm
    /// rate must match the configured significance level.
    #[test]
    fn false_alarm_rate_is_calibrated() {
        let trials = 200;
        let mut alarms = 0;
        for t in 0..trials {
            let config = PetConfig::builder()
                .accuracy(Accuracy::new(0.05, 0.05).unwrap())
                .manufacture_seed(t)
                .build()
                .unwrap();
            let m = MissingTagMonitor::new(20_000, 0.05, config).unwrap();
            let mut rng = StdRng::seed_from_u64(t);
            if m.check(&TagPopulation::sequential(20_000), &mut rng).alarm {
                alarms += 1;
            }
        }
        let rate = alarms as f64 / trials as f64;
        // 5% nominal; binomial 3σ slack at 200 trials is ±4.6%.
        assert!(rate < 0.12, "false alarm rate {rate}");
    }

    /// Power: a 15% deficit must be caught essentially always at the
    /// (5%, 5%) budget (m ≈ 2,600 rounds ⇒ se ≈ 0.037 bits; the shift
    /// log₂(0.85) ≈ −0.234 is >6 standard errors).
    #[test]
    fn large_deficit_always_alarms() {
        let trials = 50;
        let mut caught = 0;
        for t in 0..trials {
            let config = PetConfig::builder()
                .accuracy(Accuracy::new(0.05, 0.05).unwrap())
                .manufacture_seed(1_000 + t)
                .build()
                .unwrap();
            let m = MissingTagMonitor::new(20_000, 0.05, config).unwrap();
            let mut rng = StdRng::seed_from_u64(1_000 + t);
            let verdict = m.check(&TagPopulation::sequential(17_000), &mut rng);
            if verdict.alarm {
                caught += 1;
            }
        }
        assert!(
            caught >= trials - 2,
            "missed deficits: caught {caught}/{trials}"
        );
    }

    /// The closed-form power analysis brackets reality: the detectable
    /// fraction at 95% power is smaller than 15% (which the empirical test
    /// above catches ~always) and larger than 0.1% (undetectable).
    #[test]
    fn detectable_fraction_is_sane() {
        let m = monitor(20_000, 0.05);
        let theta = m.detectable_fraction(0.95);
        assert!(theta > 0.001 && theta < 0.15, "detectable fraction {theta}");
        // More power demanded → larger detectable fraction.
        assert!(m.detectable_fraction(0.99) > m.detectable_fraction(0.50));
    }

    #[test]
    fn judge_is_monotone_in_observed_prefix() {
        let m = monitor(10_000, 0.05);
        let rounds = 1_000;
        let null_mean = GrayDistribution::new(10_000, 32).mean_prefix();
        let healthy = m.judge(null_mean, rounds);
        let short = m.judge(null_mean - 0.5, rounds);
        assert!(healthy.p_value > short.p_value);
        assert!(!healthy.alarm);
        assert!(short.alarm);
        assert!(short.missing_fraction > healthy.missing_fraction);
    }

    #[test]
    #[should_panic(expected = "power must be in (0, 1)")]
    fn bad_power_rejected() {
        let _ = monitor(100, 0.05).detectable_fraction(1.0);
    }
}
