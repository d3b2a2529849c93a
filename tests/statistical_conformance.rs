//! Statistical conformance suite: pins the paper's (ε, δ) guarantee and the
//! gray-node law with fixed seeds, on the perfect channel the paper assumes
//! and under the lossy-channel extension.
//!
//! Four gates:
//!
//! 1. **Coverage** — over repeated independent trials at Accuracy(0.1, 0.1),
//!    the fraction of estimates within ±10% of the truth meets 90% minus a
//!    3σ binomial sampling tolerance (Eq. 20's round budget really buys the
//!    advertised confidence).
//! 2. **Law** — per-round longest-responsive-prefix lengths pass a KS test
//!    against `P(L ≥ l) = 1 − (1 − 2^{−l})ⁿ` (Eq. 5), and the same sample
//!    rejects a 4× wrong population.
//! 3. **Equivalence** — the kernel stays bit-for-bit identical to the
//!    oracle reader (reports *and* slot transcripts) under fault injection.
//! 4. **Bias** — relative bias stays within calibrated bounds at 0%, 1%,
//!    and 5% slot-miss rates, and re-probe mitigation measurably shrinks it
//!    at 5%.
//!
//! Everything is seeded; the suite is deterministic run-to-run.

use pet_core::config::{Mitigation, PetConfig, TagMode};
use pet_core::front::Estimator;
use pet_core::oracle::CodeRoster;
use pet_phy::channel::{ChannelModel, LossyChannel};
use pet_phy::Air;
use pet_stats::accuracy::Accuracy;
use pet_stats::conformance::{epsilon_delta_coverage, ks_prefix_law, relative_bias};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn lossy(miss: f64, false_busy: f64) -> ChannelModel {
    if miss == 0.0 && false_busy == 0.0 {
        ChannelModel::Perfect
    } else {
        ChannelModel::Lossy(LossyChannel::new(miss, false_busy).expect("valid probabilities"))
    }
}

/// Mean estimates over `trials` seeded runs of an estimator.
fn trial_estimates(
    trials: usize,
    base_seed: u64,
    rounds: u32,
    keys: &[u64],
    channel: ChannelModel,
    mitigation: Mitigation,
) -> Vec<f64> {
    (0..trials as u64)
        .map(|t| {
            let config = PetConfig::builder()
                .manufacture_seed(base_seed ^ (t.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
                .channel(channel)
                .mitigation(mitigation)
                .build()
                .expect("valid config");
            let mut rng = StdRng::seed_from_u64(base_seed.wrapping_add(t));
            Estimator::new(config)
                .estimate_keys_rounds(keys, rounds, &mut rng)
                .estimate
        })
        .collect()
}

/// Gate 1: the Eq. (20) round budget delivers the advertised (ε, δ).
#[test]
fn coverage_meets_the_paper_guarantee() {
    let accuracy = Accuracy::new(0.1, 0.1).expect("valid accuracy");
    let rounds = accuracy.pet_rounds();
    let n: usize = 2_000;
    let keys: Vec<u64> = (0..n as u64).collect();
    let estimates = trial_estimates(
        300,
        0xC0FE_E51A,
        rounds,
        &keys,
        ChannelModel::Perfect,
        Mitigation::None,
    );
    let check = epsilon_delta_coverage(&estimates, n as f64, accuracy.epsilon(), accuracy.delta());
    assert!(
        check.holds(),
        "coverage {:.3} over {} trials misses {:.3} − {:.3}",
        check.observed,
        check.trials,
        check.required,
        check.tolerance
    );
    // The tolerance is slack for sampling noise, not a loophole: nominal
    // coverage itself must clear the requirement.
    assert!(check.observed >= check.required - check.tolerance);
}

/// Gate 2: per-round prefix lengths follow the gray-node law (Eq. 5).
///
/// Active-per-round tags re-hash fresh codes each round, so rounds are iid
/// samples from the law — exactly what the KS test assumes.
#[test]
fn prefix_lengths_follow_the_gray_law() {
    let n: usize = 2_000;
    let keys: Vec<u64> = (0..n as u64).collect();
    let mut lens: Vec<u32> = Vec::new();
    let mut height = 0;
    for trial in 0..3u64 {
        let config = PetConfig::builder()
            .tag_mode(TagMode::ActivePerRound)
            .manufacture_seed(0x6A11 + trial)
            .build()
            .expect("valid config");
        height = config.height();
        let mut rng = StdRng::seed_from_u64(0x1AB5 + trial);
        let report = Estimator::new(config).estimate_keys_rounds(&keys, 600, &mut rng);
        lens.extend(report.records.iter().map(|r| r.prefix_len));
    }
    assert_eq!(lens.len(), 1_800);
    let ks = ks_prefix_law(&lens, n as u64, height);
    assert!(
        ks.p_value > 0.05,
        "KS rejected the gray law: D = {:.4}, p = {:.4}",
        ks.statistic,
        ks.p_value
    );
    // The same sample must *reject* a population off by 4× — the test has
    // power, it is not vacuously accepting everything.
    let wrong = ks_prefix_law(&lens, 4 * n as u64, height);
    assert!(
        wrong.p_value < 1e-6,
        "KS failed to reject 4× wrong population: p = {}",
        wrong.p_value
    );
}

/// Gate 3: fault injection preserves the kernel's equivalence with the
/// oracle reader — reports and slot transcripts are bit-for-bit identical,
/// for both tag modes and both mitigations.
#[test]
fn backends_agree_bit_for_bit_under_fault_injection() {
    let keys: Arc<Vec<u64>> = Arc::new((0..700).map(|k: u64| k.wrapping_mul(0x9E37)).collect());
    for tag_mode in [TagMode::PassivePreloaded, TagMode::ActivePerRound] {
        for mitigation in [Mitigation::None, Mitigation::ReProbe { probes: 2 }] {
            let config = PetConfig::builder()
                .tag_mode(tag_mode)
                .manufacture_seed(0xD1FF)
                .channel(lossy(0.1, 0.02))
                .mitigation(mitigation)
                .build()
                .expect("valid config");
            let estimator = Estimator::new(config);
            let mut roster = CodeRoster::new(&keys, &config, estimator.family());
            let mut air = Air::new(config.channel()).with_transcript(8192);
            let oracle_report = estimator
                .try_run_oracle(
                    40,
                    &mut roster,
                    &mut air,
                    &mut StdRng::seed_from_u64(0xBEEF),
                )
                .expect("run succeeds");
            let oracle_transcript = air.transcript().expect("transcript requested");
            let mut bank = estimator.bank_for_keys(Arc::clone(&keys));
            let (kernel_report, kernel_transcript) = estimator
                .try_run_bank_transcribed(&mut bank, 40, 8192, &mut StdRng::seed_from_u64(0xBEEF))
                .expect("run succeeds");
            let label = format!("{tag_mode:?}/{mitigation:?}");
            assert_eq!(
                oracle_report.estimate.to_bits(),
                kernel_report.estimate.to_bits(),
                "{label}: estimate"
            );
            assert_eq!(
                oracle_report.records, kernel_report.records,
                "{label}: records"
            );
            assert_eq!(
                oracle_report.metrics, kernel_report.metrics,
                "{label}: metrics"
            );
            assert_eq!(
                oracle_transcript.records(),
                kernel_transcript.records(),
                "{label}: transcript"
            );
            assert!(
                oracle_transcript.records().len() >= 40,
                "{label}: transcript captured the run"
            );
        }
    }
}

/// Gate 4: bias bounds under loss, and the mitigation's measurable effect.
///
/// Bounds are calibrated against the seeded runs (64 trials × 384 rounds,
/// mean-of-n̂ standard error ≈ 0.8%): measured biases are ≈ +0.6% clean,
/// ≈ +0.2% at 1% miss, ≈ −3.4% at 5% miss, and back to ≈ +0.4% at 5% miss
/// with two re-probes.
#[test]
fn bias_stays_bounded_under_loss_and_mitigation_recovers_it() {
    let n: usize = 2_000;
    let keys: Vec<u64> = (0..n as u64).collect();
    let truth = n as f64;
    let trials = 64;
    let rounds = 384;
    let bias_at = |miss: f64, mitigation: Mitigation| {
        let estimates =
            trial_estimates(trials, 0xB1A5, rounds, &keys, lossy(miss, 0.0), mitigation);
        relative_bias(&estimates, truth)
    };

    let clean = bias_at(0.0, Mitigation::None);
    eprintln!("bias: clean {clean:+.4}");
    assert!(clean.abs() < 0.03, "clean-channel bias {clean:+.4}");

    let light = bias_at(0.01, Mitigation::None);
    eprintln!("bias: 1% miss {light:+.4}");
    assert!(light.abs() < 0.04, "1% miss bias {light:+.4}");

    let heavy = bias_at(0.05, Mitigation::None);
    eprintln!("bias: 5% miss {heavy:+.4}");
    assert!(
        heavy < -0.005 && heavy > -0.15,
        "5% miss bias {heavy:+.4} out of the expected underestimation band"
    );

    let probed = bias_at(0.05, Mitigation::ReProbe { probes: 2 });
    eprintln!("bias: 5% miss re-probed {probed:+.4}");
    assert!(probed.abs() < 0.03, "5% miss re-probed bias {probed:+.4}");
    assert!(
        probed.abs() < heavy.abs(),
        "re-probe must shrink |bias|: {probed:+.4} vs {heavy:+.4}"
    );
}
