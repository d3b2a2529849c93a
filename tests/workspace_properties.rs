//! Cross-crate property tests: invariants that must hold for arbitrary
//! populations, configurations, and seeds.

use pet::prelude::*;
use pet_core::config::{CommandEncoding, SearchStrategy};
use proptest::prelude::*;

fn arb_accuracy() -> impl Strategy<Value = Accuracy> {
    (0.01f64..0.5, 0.01f64..0.5).prop_map(|(e, d)| Accuracy::new(e, d).expect("in range"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Slot accounting: a binary-search estimation of m rounds uses between
    /// 5m and 6m slots (H = 32), and the metrics stay internally consistent.
    #[test]
    fn slot_accounting_bounds(
        n in 0usize..3_000,
        rounds in 1u32..64,
        seed in any::<u64>(),
    ) {
        let config = PetConfig::builder()
            .accuracy(Accuracy::new(0.2, 0.2).unwrap())
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let report = Estimator::new(config)
            .estimate_population_rounds(&TagPopulation::sequential(n), rounds, &mut rng);
        let m = u64::from(rounds);
        prop_assert!(report.metrics.slots >= 5 * m);
        prop_assert!(report.metrics.slots <= 6 * m);
        prop_assert!(report.metrics.is_consistent());
        prop_assert_eq!(
            report.metrics.command_bits,
            // 32-bit path per round + 5-bit mid per query slot.
            32 * m + 5 * report.metrics.slots
        );
    }

    /// The estimate is scale-free: it only depends on the gray-node
    /// statistics, never on the raw population size in a way that could
    /// overflow or go negative.
    #[test]
    fn estimates_are_finite_and_nonnegative(
        n in 0usize..5_000,
        rounds in 1u32..32,
        seed in any::<u64>(),
    ) {
        let config = PetConfig::builder()
            .accuracy(Accuracy::new(0.2, 0.2).unwrap())
            .manufacture_seed(seed)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let report = Estimator::new(config)
            .estimate_population_rounds(&TagPopulation::sequential(n), rounds, &mut rng);
        prop_assert!(report.estimate.is_finite());
        prop_assert!(report.estimate >= 0.0);
        // H = 32 bounds the estimate by φ⁻¹·2³².
        prop_assert!(report.estimate <= 2f64.powi(32));
    }

    /// Rounds from Eq. (20) are monotone: tightening either ε or δ never
    /// reduces the budget, for PET and for every baseline.
    #[test]
    fn round_budgets_are_monotone(acc in arb_accuracy()) {
        use pet::baselines::{CardinalityEstimator, Fneb, Lof, PetAdapter};
        let tighter_eps = Accuracy::new(acc.epsilon() / 2.0, acc.delta()).unwrap();
        let tighter_delta = Accuracy::new(acc.epsilon(), acc.delta() / 2.0).unwrap();
        let protocols: Vec<Box<dyn CardinalityEstimator>> = vec![
            Box::new(PetAdapter::paper_default()),
            Box::new(Fneb::paper_default()),
            Box::new(Lof::paper_default()),
        ];
        for p in protocols {
            prop_assert!(p.rounds(&tighter_eps) >= p.rounds(&acc), "{} vs eps", p.name());
            prop_assert!(p.rounds(&tighter_delta) >= p.rounds(&acc), "{} vs delta", p.name());
        }
    }

    /// Command encodings never change the measured statistic, only the bits:
    /// the same seed yields the same estimate under all three encodings.
    #[test]
    fn encodings_preserve_estimates(
        n in 1usize..2_000,
        seed in any::<u64>(),
    ) {
        let mut estimates = Vec::new();
        let mut bits = Vec::new();
        for encoding in [
            CommandEncoding::FullMask,
            CommandEncoding::PrefixLength,
            CommandEncoding::FeedbackBit,
        ] {
            let config = PetConfig::builder()
                .accuracy(Accuracy::new(0.2, 0.2).unwrap())
                .encoding(encoding)
                .build()
                .unwrap();
            let keys: Vec<u64> = (0..n as u64).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            let report = Estimator::new(config).estimate_keys_rounds(&keys, 16, &mut rng);
            estimates.push(report.estimate);
            bits.push(report.metrics.command_bits);
        }
        prop_assert_eq!(estimates[0], estimates[1]);
        prop_assert_eq!(estimates[1], estimates[2]);
        prop_assert!(bits[0] > bits[1] && bits[1] > bits[2]);
    }

    /// Linear and binary strategies measure the same statistic for the same
    /// seeds (they differ only in slots).
    #[test]
    fn strategies_measure_the_same_statistic(
        n in 1usize..2_000,
        seed in any::<u64>(),
    ) {
        let mut prefixes = Vec::new();
        for strategy in [SearchStrategy::Linear, SearchStrategy::Binary] {
            let config = PetConfig::builder()
                .accuracy(Accuracy::new(0.2, 0.2).unwrap())
                .search(strategy)
                .build()
                .unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let report = Estimator::new(config)
                .estimate_population_rounds(&TagPopulation::sequential(n), 8, &mut rng);
            prefixes.push(report.mean_prefix_len);
        }
        prop_assert_eq!(prefixes[0], prefixes[1]);
    }
}
