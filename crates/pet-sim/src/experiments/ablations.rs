//! Ablations over PET's design choices (DESIGN.md's extension list).
//!
//! None of these regenerate a paper artifact directly; they quantify the
//! trade-offs §4.4–§4.6 argue qualitatively: binary vs linear search,
//! command-encoding bit budgets, channel-loss sensitivity, LoF's
//! early-termination option, and hash-family interchangeability.

use crate::cache::RosterCache;
use crate::runner::run_trials;
use pet_baselines::{CardinalityEstimator, Fidelity, Lof};
use pet_core::config::{CommandEncoding, PetConfig, SearchStrategy};
use pet_core::front::Estimator;
use pet_core::kernel::CodeBank;
use pet_core::oracle::CodeRoster;
use pet_hash::bulk::{hash_codes_into, radix_sort_codes, RadixScratch};
use pet_hash::family::{AnyFamily, HashKind};
use pet_phy::channel::{ChannelModel, LossyChannel};
use pet_phy::Air;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Linear vs binary search cost (Fig. 3's comparison, measured).
#[derive(Debug, Clone, Copy)]
pub struct SearchCostRow {
    /// Population size.
    pub n: usize,
    /// Mean slots per round, linear search (≈ log₂ n + 1).
    pub linear_slots_per_round: f64,
    /// Mean slots per round, binary search (5 at H = 32).
    pub binary_slots_per_round: f64,
}

/// Measures per-round slot costs of the two strategies across populations.
pub fn search_strategy(tag_counts: &[usize], rounds: u32, seed: u64) -> Vec<SearchCostRow> {
    tag_counts
        .iter()
        .map(|&n| {
            let mut per_round = [0.0f64; 2];
            for (i, strategy) in [SearchStrategy::Linear, SearchStrategy::Binary]
                .into_iter()
                .enumerate()
            {
                let config = PetConfig::builder().search(strategy).build().unwrap();
                // Both strategies read the same preloaded codes, so the
                // cached bank is hashed and sorted once per `n`.
                let estimator = Estimator::new(config);
                let mut bank =
                    RosterCache::global().sequential_bank(n, &config, AnyFamily::default());
                let mut rng = StdRng::seed_from_u64(seed ^ n as u64);
                let report = estimator.run_bank(&mut bank, rounds, &mut rng);
                per_round[i] = report.metrics.slots as f64 / f64::from(rounds);
            }
            SearchCostRow {
                n,
                linear_slots_per_round: per_round[0],
                binary_slots_per_round: per_round[1],
            }
        })
        .collect()
}

/// Command-encoding bit budget (§4.6.2's three options, measured).
#[derive(Debug, Clone)]
pub struct EncodingRow {
    /// Encoding label.
    pub encoding: String,
    /// Slots for the whole estimation (identical across encodings).
    pub slots: u64,
    /// Command bits broadcast across the whole estimation.
    pub command_bits: u64,
}

/// Measures total command bits per estimation under each encoding.
pub fn command_encoding(n: usize, rounds: u32, seed: u64) -> Vec<EncodingRow> {
    [
        ("32-bit mask", CommandEncoding::FullMask),
        ("5-bit mid", CommandEncoding::PrefixLength),
        ("1-bit feedback", CommandEncoding::FeedbackBit),
    ]
    .into_iter()
    .map(|(label, encoding)| {
        let config = PetConfig::builder().encoding(encoding).build().unwrap();
        let keys: Vec<u64> = (0..n as u64).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let report = Estimator::new(config).estimate_keys_rounds(&keys, rounds, &mut rng);
        EncodingRow {
            encoding: label.to_string(),
            slots: report.metrics.slots,
            command_bits: report.metrics.command_bits,
        }
    })
    .collect()
}

/// Accuracy degradation under channel loss.
#[derive(Debug, Clone, Copy)]
pub struct LossRow {
    /// Per-responder miss probability.
    pub miss_prob: f64,
    /// Mean accuracy `n̂/n`.
    pub accuracy: f64,
    /// Normalized RMSE.
    pub normalized_rmse: f64,
}

/// Sweeps the lossy channel's miss probability. Loss turns busy slots idle,
/// which shortens the measured prefix and biases the estimate low — this
/// sweep quantifies how fast.
pub fn lossy_channel(
    n: usize,
    rounds: u32,
    miss_probs: &[f64],
    runs: usize,
    seed: u64,
) -> Vec<LossRow> {
    miss_probs
        .iter()
        .map(|&miss| {
            let summary = run_trials(runs, seed ^ miss.to_bits(), |trial_seed| {
                let config = PetConfig::builder()
                    .manufacture_seed(trial_seed)
                    .build()
                    .unwrap();
                let estimator = Estimator::new(config);
                let keys: Vec<u64> = (0..n as u64).collect();
                let mut oracle = CodeRoster::new(&keys, &config, estimator.family());
                let channel = if miss == 0.0 {
                    ChannelModel::Perfect
                } else {
                    ChannelModel::Lossy(LossyChannel::new(miss, 0.0).unwrap())
                };
                let mut air = Air::new(channel);
                let mut rng = StdRng::seed_from_u64(trial_seed);
                estimator
                    .try_run_oracle(rounds, &mut oracle, &mut air, &mut rng)
                    .unwrap_or_else(|e| panic!("{e}"))
                    .estimate
            });
            let truth = n as f64;
            LossRow {
                miss_prob: miss,
                accuracy: summary.mean / truth,
                normalized_rmse: pet_stats::describe::rmse(&summary.values, truth) / truth,
            }
        })
        .collect()
}

/// LoF with and without early termination.
#[derive(Debug, Clone, Copy)]
pub struct EarlyTerminationRow {
    /// Whether the reader stops at the first empty slot.
    pub early_termination: bool,
    /// Mean slots per round.
    pub slots_per_round: f64,
    /// Mean accuracy `n̂/n`.
    pub accuracy: f64,
}

/// Measures LoF's early-termination trade-off (same estimate, fewer slots).
pub fn lof_early_termination(
    n: usize,
    rounds: u32,
    runs: usize,
    seed: u64,
) -> Vec<EarlyTerminationRow> {
    [false, true]
        .into_iter()
        .map(|early| {
            let keys: Vec<u64> = (0..n as u64).collect();
            let summary = run_trials(runs, seed ^ u64::from(early), |trial_seed| {
                let lof = Lof::paper_default()
                    .with_fidelity(Fidelity::Sampled)
                    .with_early_termination(early);
                let mut rng = StdRng::seed_from_u64(trial_seed);
                let mut air = Air::new(ChannelModel::Perfect);
                lof.estimate_rounds(&keys, rounds, &mut air, &mut rng)
                    .estimate
            });
            // Re-measure slots once (deterministic enough in expectation).
            let slot_sum = {
                let lof = Lof::paper_default()
                    .with_fidelity(Fidelity::Sampled)
                    .with_early_termination(early);
                let mut rng = StdRng::seed_from_u64(seed);
                let mut air = Air::new(ChannelModel::Perfect);
                lof.estimate_rounds(&keys, rounds, &mut air, &mut rng)
                    .metrics
                    .slots
            };
            EarlyTerminationRow {
                early_termination: early,
                slots_per_round: slot_sum as f64 / f64::from(rounds),
                accuracy: summary.mean / n as f64,
            }
        })
        .collect()
}

/// PET accuracy under each hash family (§4.5's MD5/SHA-1 vs the simulation
/// mixer).
#[derive(Debug, Clone)]
pub struct HashFamilyRow {
    /// Family label.
    pub family: String,
    /// Mean accuracy `n̂/n`.
    pub accuracy: f64,
}

/// Verifies the estimator is family-agnostic.
pub fn hash_families(n: usize, rounds: u32, runs: usize, seed: u64) -> Vec<HashFamilyRow> {
    [
        ("mixer", HashKind::Mix),
        ("MD5", HashKind::Md5),
        ("SHA-1", HashKind::Sha1),
    ]
    .into_iter()
    .map(|(label, kind)| {
        let keys: Vec<u64> = (0..n as u64).collect();
        let summary = run_trials(runs, seed ^ label.len() as u64, |trial_seed| {
            let config = PetConfig::builder()
                .manufacture_seed(trial_seed)
                .build()
                .unwrap();
            let family = AnyFamily::new(kind);
            let estimator = Estimator::with_family(config, family);
            // Per-trial manufacture seeds defeat caching, and the trial
            // workers already hold every core, so hash sequentially here.
            let mut codes = Vec::new();
            let mut scratch = RadixScratch::new();
            hash_codes_into(
                &family,
                config.manufacture_seed(),
                &keys,
                config.height(),
                &mut codes,
            );
            radix_sort_codes(&mut codes, config.height(), &mut scratch);
            let mut bank = CodeBank::passive_shared(Arc::new(codes));
            let mut rng = StdRng::seed_from_u64(trial_seed);
            estimator.run_bank(&mut bank, rounds, &mut rng).estimate
        });
        HashFamilyRow {
            family: label.to_string(),
            accuracy: summary.mean / n as f64,
        }
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_search_cost_is_flat_while_linear_grows() {
        let rows = search_strategy(&[1_000, 100_000], 64, 1);
        for r in &rows {
            assert!(
                (r.binary_slots_per_round - 5.0).abs() < 0.2,
                "binary {} at n = {}",
                r.binary_slots_per_round,
                r.n
            );
        }
        // Linear ≈ log₂ n + 1.33 grows ~6.6 slots per 100× n.
        assert!(rows[1].linear_slots_per_round > rows[0].linear_slots_per_round + 4.0);
    }

    #[test]
    fn encodings_same_slots_decreasing_bits() {
        let rows = command_encoding(2_000, 64, 2);
        assert_eq!(rows.len(), 3);
        assert!(rows.windows(2).all(|w| w[0].slots == w[1].slots));
        assert!(rows[0].command_bits > rows[1].command_bits);
        assert!(rows[1].command_bits > rows[2].command_bits);
        // Full mask: 32 bits × 5 queries + 32-bit path per round.
        assert_eq!(rows[0].command_bits, 64 * (32 * 5 + 32));
        // Feedback: 1 bit × 5 queries + 32-bit path per round.
        assert_eq!(rows[2].command_bits, 64 * (5 + 32));
    }

    #[test]
    fn loss_biases_low_and_grows_with_miss_rate() {
        let rows = lossy_channel(5_000, 64, &[0.0, 0.3], 40, 3);
        assert!((rows[0].accuracy - 1.0).abs() < 0.1);
        assert!(
            rows[1].accuracy < rows[0].accuracy,
            "loss must bias the estimate low: {} vs {}",
            rows[1].accuracy,
            rows[0].accuracy
        );
    }

    #[test]
    fn lof_early_termination_cheaper_same_accuracy() {
        let rows = lof_early_termination(5_000, 128, 30, 4);
        let (full, early) = (&rows[0], &rows[1]);
        assert!(!full.early_termination && early.early_termination);
        assert!((full.slots_per_round - 32.0).abs() < 1e-9);
        assert!(early.slots_per_round < 20.0);
        assert!((full.accuracy - early.accuracy).abs() < 0.08);
    }

    #[test]
    fn all_hash_families_are_unbiased() {
        let rows = hash_families(2_000, 64, 30, 5);
        for r in rows {
            assert!(
                (r.accuracy - 1.0).abs() < 0.1,
                "{}: accuracy {}",
                r.family,
                r.accuracy
            );
        }
    }
}

/// Fixed-budget vs adaptive early-stopping sessions.
#[derive(Debug, Clone)]
pub struct AdaptiveRow {
    /// "fixed (Eq. 20)" or "adaptive".
    pub mode: String,
    /// Mean rounds actually run.
    pub mean_rounds: f64,
    /// Measured `P(|n̂ − n| ≤ εn)`.
    pub coverage: f64,
}

/// Measures how many rounds sequential stopping saves and what it costs in
/// realized coverage.
pub fn adaptive_stopping(
    n: usize,
    epsilon: f64,
    delta: f64,
    runs: usize,
    seed: u64,
) -> Vec<AdaptiveRow> {
    let accuracy = pet_stats::accuracy::Accuracy::new(epsilon, delta).expect("valid accuracy");
    let keys: Vec<u64> = (0..n as u64).collect();
    let (lo, hi) = accuracy.interval(n as f64);
    let mut rows = Vec::new();
    for adaptive in [false, true] {
        let rounds_sum = std::sync::atomic::AtomicU64::new(0);
        let summary = run_trials(runs, seed ^ u64::from(adaptive), |trial_seed| {
            let config = PetConfig::builder()
                .accuracy(accuracy)
                .manufacture_seed(trial_seed)
                .build()
                .unwrap();
            let estimator = Estimator::new(config);
            let mut rng = StdRng::seed_from_u64(trial_seed);
            let report = if adaptive {
                let mut oracle = CodeRoster::new(&keys, &config, estimator.family());
                let mut air = Air::new(ChannelModel::Perfect);
                estimator.run_adaptive(&mut oracle, &mut air, &mut rng)
            } else {
                estimator.estimate_keys_rounds(&keys, config.rounds(), &mut rng)
            };
            rounds_sum.fetch_add(
                u64::from(report.rounds),
                std::sync::atomic::Ordering::Relaxed,
            );
            report.estimate
        });
        let coverage = pet_stats::histogram::fraction_within(&summary.values, lo, hi);
        rows.push(AdaptiveRow {
            mode: if adaptive {
                "adaptive"
            } else {
                "fixed (Eq. 20)"
            }
            .to_string(),
            mean_rounds: rounds_sum.load(std::sync::atomic::Ordering::Relaxed) as f64 / runs as f64,
            coverage,
        });
    }
    rows
}

#[cfg(test)]
mod adaptive_tests {
    use super::*;

    #[test]
    fn adaptive_saves_rounds_without_collapsing_coverage() {
        let rows = adaptive_stopping(10_000, 0.10, 0.05, 60, 6);
        let fixed = &rows[0];
        let adaptive = &rows[1];
        assert!(adaptive.mean_rounds <= fixed.mean_rounds);
        assert!(fixed.coverage >= 0.90, "fixed coverage {}", fixed.coverage);
        assert!(
            adaptive.coverage >= 0.85,
            "adaptive coverage {}",
            adaptive.coverage
        );
    }
}
