//! Adversarial and pathological workloads: the cases a protocol survives in
//! a paper appendix but must *demonstrate* in a library.

use pet::prelude::*;
use pet_core::bits::BitString;
use pet_core::config::SearchStrategy;
use pet_core::oracle::{CodeRoster, ResponderOracle, RoundStart};
use pet_core::reader::binary_round;
use pet_hash::family::AnyFamily;
use pet_phy::channel::{LossyChannel, PerfectChannel};
use pet_sim::run_trials;

fn quick_config() -> PetConfig {
    PetConfig::builder()
        .accuracy(Accuracy::new(0.2, 0.2).unwrap())
        .build()
        .unwrap()
}

/// Cloned tags (duplicate keys → identical codes) are counted once: PET
/// estimates *distinct* codes, so cloning cannot inflate a count — the
/// flip side of §4.6.3's duplicate insensitivity.
#[test]
fn cloned_tags_count_once() {
    let distinct = 4_000u64;
    let mut keys: Vec<u64> = (0..distinct).collect();
    // Every tag cloned three times.
    keys.extend(0..distinct);
    keys.extend(0..distinct);
    let config = quick_config();
    let summary = run_trials(40, 0x0AD1, |trial_seed| {
        let config = PetConfig::builder()
            .accuracy(Accuracy::new(0.2, 0.2).unwrap())
            .manufacture_seed(trial_seed)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(trial_seed);
        Estimator::new(config)
            .estimate_keys_rounds(&keys, 256, &mut rng)
            .estimate
    });
    let _ = config;
    let acc = summary.mean / distinct as f64;
    assert!(
        (acc - 1.0).abs() < 0.1,
        "cloned population estimated {} vs distinct {distinct}",
        summary.mean
    );
}

/// Estimates are invariant to the key space's *structure*: sequential keys,
/// random keys, and keys differing only in high bits give the same law.
#[test]
fn key_structure_invariance() {
    let n = 3_000usize;
    let spaces: Vec<Vec<u64>> = vec![
        (0..n as u64).collect(),
        (0..n as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect(),
        (0..n as u64).map(|i| i << 40).collect(),
    ];
    let mut means = Vec::new();
    for (si, keys) in spaces.iter().enumerate() {
        let summary = run_trials(40, 0x0AD2 ^ si as u64, |trial_seed| {
            let config = PetConfig::builder()
                .accuracy(Accuracy::new(0.2, 0.2).unwrap())
                .manufacture_seed(trial_seed)
                .build()
                .unwrap();
            let mut rng = StdRng::seed_from_u64(trial_seed);
            Estimator::new(config)
                .estimate_keys_rounds(keys, 128, &mut rng)
                .estimate
        });
        means.push(summary.mean / n as f64);
    }
    for (si, m) in means.iter().enumerate() {
        assert!((m - 1.0).abs() < 0.08, "space {si}: accuracy {m}");
    }
}

/// Near tree saturation (n approaching 2^H) the estimator loses its
/// unbiasedness — the coupon-collector regime the paper's §4.2 excludes by
/// choosing H large. Quantify it instead of pretending it away: at 80%
/// occupancy of an H = 10 tree the estimate must still be within 2×, while
/// at 1% occupancy it is within the normal band.
#[test]
fn saturation_bias_is_bounded_not_hidden() {
    for (n, tolerance) in [(10usize, 0.35), (800, 1.0)] {
        let summary = run_trials(60, 0x0AD3, |trial_seed| {
            let config = PetConfig::builder()
                .height(10)
                .accuracy(Accuracy::new(0.2, 0.2).unwrap())
                .manufacture_seed(trial_seed)
                .build()
                .unwrap();
            let keys: Vec<u64> = (0..n as u64).collect();
            let mut rng = StdRng::seed_from_u64(trial_seed);
            Estimator::new(config)
                .estimate_keys_rounds(&keys, 512, &mut rng)
                .estimate
        });
        let acc = summary.mean / n as f64;
        assert!(
            (acc - 1.0).abs() < tolerance,
            "n = {n} at H = 10: accuracy {acc} (tolerance {tolerance})"
        );
    }
}

/// The feedback-encoded tag state machines stay synchronized with the
/// reader even when the channel is lossy: both sides key off the broadcast
/// busy/idle bit, so an erased response desynchronizes *nothing* (it only
/// perturbs the statistic).
#[test]
fn feedback_tags_survive_lossy_channels() {
    use pet_core::oracle::TagFleet;
    let config = PetConfig::builder()
        .height(16)
        .encoding(CommandEncoding::FeedbackBit)
        .build()
        .unwrap();
    let keys: Vec<u64> = (0..500).collect();
    let mut fleet = TagFleet::new(&keys, &config, AnyFamily::default());
    let mut air = Air::new(LossyChannel::new(0.3, 0.05).unwrap());
    let mut rng = StdRng::seed_from_u64(0x0AD4);
    // 200 full rounds; the fleet debug-asserts reader/tag mid agreement on
    // every query, so survival of this loop *is* the test.
    for round in 0..200u64 {
        let path = BitString::random(16, &mut StdRng::seed_from_u64(round));
        fleet.begin_round(&RoundStart { path, seed: None });
        let rec = binary_round(&config, &mut fleet, &mut air, &mut rng);
        assert!(rec.prefix_len <= 16);
    }
}

/// A population of exactly one tag: every strategy, every encoding, the
/// estimate lands in [φ⁻¹, a few] — never zero, never wild.
#[test]
fn single_tag_is_estimated_sanely() {
    for strategy in [SearchStrategy::Linear, SearchStrategy::Binary] {
        let summary = run_trials(100, 0x0AD5, |trial_seed| {
            let config = PetConfig::builder()
                .search(strategy)
                .accuracy(Accuracy::new(0.2, 0.2).unwrap())
                .manufacture_seed(trial_seed)
                .build()
                .unwrap();
            let keys = [42u64];
            let mut rng = StdRng::seed_from_u64(trial_seed);
            Estimator::new(config)
                .estimate_keys_rounds(&keys, 64, &mut rng)
                .estimate
        });
        assert!(
            summary.mean > 0.5 && summary.mean < 2.5,
            "{strategy:?}: single-tag mean estimate {}",
            summary.mean
        );
        assert!(summary.min > 0.0);
    }
}

/// Phantom energy (false-busy slots) biases the estimate *up* — the dual of
/// the miss-loss ablation — and stays bounded at realistic noise floors.
#[test]
fn false_busy_biases_up_boundedly() {
    let n = 5_000usize;
    let run = |false_busy: f64| {
        let summary = run_trials(40, 0x0AD6, |trial_seed| {
            let config = PetConfig::builder()
                .accuracy(Accuracy::new(0.2, 0.2).unwrap())
                .manufacture_seed(trial_seed)
                .build()
                .unwrap();
            let keys: Vec<u64> = (0..n as u64).collect();
            let mut oracle = CodeRoster::new(&keys, &config, AnyFamily::default());
            let channel = if false_busy == 0.0 {
                ChannelModel::Perfect
            } else {
                ChannelModel::Lossy(LossyChannel::new(0.0, false_busy).unwrap())
            };
            let mut air = Air::new(channel);
            let mut rng = StdRng::seed_from_u64(trial_seed);
            Estimator::new(config)
                .try_run_oracle(256, &mut oracle, &mut air, &mut rng)
                .unwrap()
                .estimate
        });
        summary.mean / n as f64
    };
    let clean = run(0.0);
    let noisy = run(0.05);
    assert!(
        noisy > clean,
        "phantom busy must bias up: {noisy} vs {clean}"
    );
    assert!(
        noisy < 2.0,
        "5% phantom-busy inflation out of control: {noisy}"
    );
}

/// Back-to-back sessions on the same roster are independent trials: the
/// second estimate is not contaminated by the first (no leftover state).
#[test]
fn sessions_do_not_leak_state() {
    let config = quick_config();
    let keys: Vec<u64> = (0..2_000).collect();
    let mut oracle = CodeRoster::new(&keys, &config, AnyFamily::default());
    let estimator = Estimator::new(config);
    let mut air = Air::new(PerfectChannel);
    let mut rng = StdRng::seed_from_u64(0x0AD7);
    let first = estimator
        .try_run_oracle(128, &mut oracle, &mut air, &mut rng)
        .unwrap();
    let slots_after_first = air.metrics().slots;
    let second = estimator
        .try_run_oracle(128, &mut oracle, &mut air, &mut rng)
        .unwrap();
    assert_eq!(air.metrics().slots, slots_after_first * 2);
    for report in [&first, &second] {
        let rel = (report.estimate - 2_000.0).abs() / 2_000.0;
        assert!(rel < 0.3, "estimate {}", report.estimate);
    }
}
