//! Capacity guarding: "is the room over its limit?" with controlled error.
//!
//! Two one-sided tests around an occupancy limit, both read from one
//! [`ReferenceTest`] against the limit. When neither side is significant
//! the guard says so (`Uncertain`) instead of guessing — the honest
//! behaviour for populations near the limit, where no estimator of finite
//! budget can decide reliably.

use pet_core::config::PetConfig;
use pet_core::front::Estimator;
use pet_core::monitor::ReferenceTest;
use pet_tags::population::TagPopulation;
use rand::Rng;

/// The guard's decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CapacityVerdict {
    /// Confidently under the limit.
    Under,
    /// Confidently over the limit.
    Over,
    /// Too close to the limit for the configured confidence.
    Uncertain,
}

/// A calibrated occupancy-limit guard.
#[derive(Debug, Clone)]
pub struct CapacityGuard {
    limit: u64,
    significance: f64,
    config: PetConfig,
    test: ReferenceTest,
}

impl CapacityGuard {
    /// Creates a guard for `limit` tags deciding at significance level
    /// `significance` per side.
    ///
    /// # Panics
    ///
    /// Panics if `limit` is zero or `significance` is outside (0, 0.5].
    #[must_use]
    pub fn new(limit: u64, significance: f64, config: PetConfig) -> Self {
        assert!(limit > 0, "limit must be positive");
        assert!(
            significance > 0.0 && significance <= 0.5,
            "significance must lie in (0, 0.5]"
        );
        let test = ReferenceTest::new(limit as f64, config.height())
            .expect("a positive limit is a valid reference");
        Self {
            limit,
            significance,
            config,
            test,
        }
    }

    /// The occupancy limit.
    #[must_use]
    pub fn limit(&self) -> u64 {
        self.limit
    }

    /// Decision core on an observed mean prefix (exposed for tests). A run
    /// whose zero probe heard an empty region (no round) is `Under`.
    #[must_use]
    pub fn judge(&self, mean_prefix: f64, rounds: u32) -> CapacityVerdict {
        let p = self.test.p_value(mean_prefix, rounds);
        // Upper tail: significantly above the limit's statistic.
        if 1.0 - p < self.significance {
            CapacityVerdict::Over
        } else if p < self.significance {
            CapacityVerdict::Under
        } else {
            CapacityVerdict::Uncertain
        }
    }

    /// Runs an estimation over the population and decides.
    pub fn check<R: Rng + ?Sized>(
        &self,
        population: &TagPopulation,
        rng: &mut R,
    ) -> CapacityVerdict {
        let report = Estimator::new(self.config).estimate_population(population, rng);
        self.judge(report.mean_prefix_len, report.rounds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pet_stats::accuracy::Accuracy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn config(seed: u64) -> PetConfig {
        PetConfig::builder()
            .accuracy(Accuracy::new(0.05, 0.05).unwrap())
            .manufacture_seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn clear_cases_decide_correctly() {
        let mut under = 0;
        let mut over = 0;
        let trials = 30;
        for t in 0..trials {
            let guard = CapacityGuard::new(10_000, 0.05, config(t));
            let mut rng = StdRng::seed_from_u64(t);
            // 20% under the limit.
            if guard.check(&TagPopulation::sequential(8_000), &mut rng) == CapacityVerdict::Under {
                under += 1;
            }
            // 20% over the limit.
            let mut rng = StdRng::seed_from_u64(t ^ 0xFF);
            if guard.check(&TagPopulation::sequential(12_000), &mut rng) == CapacityVerdict::Over {
                over += 1;
            }
        }
        assert!(under >= trials - 1, "under detected {under}/{trials}");
        assert!(over >= trials - 1, "over detected {over}/{trials}");
    }

    /// At the limit itself the guard must mostly abstain (each side fires
    /// with probability ≈ its significance level).
    #[test]
    fn at_the_limit_mostly_uncertain() {
        let trials = 60;
        let mut uncertain = 0;
        for t in 0..trials {
            let guard = CapacityGuard::new(10_000, 0.05, config(100 + t));
            let mut rng = StdRng::seed_from_u64(100 + t);
            if guard.check(&TagPopulation::sequential(10_000), &mut rng)
                == CapacityVerdict::Uncertain
            {
                uncertain += 1;
            }
        }
        let rate = uncertain as f64 / trials as f64;
        assert!(rate > 0.75, "uncertain rate {rate} (expected ≈ 0.90)");
    }

    #[test]
    fn judge_ordering() {
        let guard = CapacityGuard::new(10_000, 0.05, config(0));
        let at_limit = pet_stats::gray::GrayDistribution::new(10_000, 32).mean_prefix();
        assert_eq!(guard.judge(at_limit, 1_000), CapacityVerdict::Uncertain);
        assert_eq!(guard.judge(at_limit + 1.0, 1_000), CapacityVerdict::Over);
        assert_eq!(guard.judge(at_limit - 1.0, 1_000), CapacityVerdict::Under);
    }

    #[test]
    #[should_panic(expected = "limit must be positive")]
    fn zero_limit_rejected() {
        let _ = CapacityGuard::new(0, 0.05, config(0));
    }

    #[test]
    #[should_panic(expected = "significance must lie in (0, 0.5]")]
    fn bad_significance_rejected() {
        let _ = CapacityGuard::new(10, 0.7, config(0));
    }
}
