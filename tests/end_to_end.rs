//! End-to-end statistical guarantees of the full PET stack.
//!
//! These tests run the whole pipeline — population → hashing → radio →
//! reader → estimator — and check the paper's *quantitative* claims at
//! reduced (but still meaningful) scales.

use pet::prelude::*;
use pet_hash::family::{AnyFamily, HashKind};
use pet_sim::run_trials;

/// The (ε, δ) guarantee: at the scheduled round budget, the fraction of
/// estimates inside [(1−ε)n, (1+ε)n] must be at least 1−δ (with sampling
/// slack for the reduced trial count).
#[test]
fn accuracy_guarantee_holds() {
    let n = 20_000usize;
    let accuracy = Accuracy::new(0.10, 0.05).unwrap();
    let config = PetConfig::builder().accuracy(accuracy).build().unwrap();
    let rounds = config.rounds();
    let trials = 200;
    let summary = run_trials(trials, 0x0E2E_0001, |trial_seed| {
        let config = PetConfig::builder()
            .accuracy(accuracy)
            .manufacture_seed(trial_seed)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(trial_seed);
        Estimator::new(config)
            .estimate_population_rounds(&TagPopulation::sequential(n), rounds, &mut rng)
            .estimate
    });
    let (lo, hi) = accuracy.interval(n as f64);
    let within = pet_stats::histogram::fraction_within(&summary.values, lo, hi);
    // Promise: ≥ 95%. With 200 trials the binomial 3σ slack is ~4.6%.
    assert!(within >= 0.90, "coverage {within} below promise");
    // Unbiasedness of the mean.
    assert!(
        (summary.mean / n as f64 - 1.0).abs() < 0.02,
        "mean accuracy {}",
        summary.mean / n as f64
    );
}

/// The O(log log n) claim, measured: slots per round must not grow with n
/// (and equal ⌈log₂ H⌉ = 5 at H = 32).
#[test]
fn slots_per_round_independent_of_population() {
    for &n in &[100usize, 10_000, 1_000_000] {
        let config = PetConfig::builder()
            .accuracy(Accuracy::new(0.2, 0.2).unwrap())
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let report = Estimator::new(config).estimate_population_rounds(
            &TagPopulation::sequential(n),
            32,
            &mut rng,
        );
        assert_eq!(
            report.metrics.slots, 160,
            "n = {n}: slots {}",
            report.metrics.slots
        );
    }
}

/// Estimates are hash-family agnostic: MD5, SHA-1, and the fast mixer give
/// statistically indistinguishable results (§4.5's "a group of off-the-shelf
/// uniformly distributed hash functions can be used").
#[test]
fn hash_families_are_interchangeable() {
    let n = 5_000usize;
    let mut means = Vec::new();
    for (salt, kind) in [HashKind::Mix, HashKind::Md5, HashKind::Sha1]
        .into_iter()
        .enumerate()
    {
        let summary = run_trials(40, 0x0E2E_0002 ^ salt as u64, |trial_seed| {
            let config = PetConfig::builder()
                .accuracy(Accuracy::new(0.2, 0.2).unwrap())
                .manufacture_seed(trial_seed)
                .build()
                .unwrap();
            let keys: Vec<u64> = (0..n as u64).collect();
            let mut rng = StdRng::seed_from_u64(trial_seed);
            Estimator::with_family(config, AnyFamily::new(kind))
                .estimate_keys_rounds(&keys, 128, &mut rng)
                .estimate
        });
        means.push(summary.mean / n as f64);
    }
    for m in &means {
        assert!((m - 1.0).abs() < 0.06, "family mean accuracy {m}");
    }
}

/// Active per-round rehash and passive preloaded codes deliver the same
/// accuracy — §4.5's equivalence claim, across the whole stack.
#[test]
fn active_and_passive_modes_equivalent() {
    let n = 5_000usize;
    let mut results = Vec::new();
    for mode in [TagMode::PassivePreloaded, TagMode::ActivePerRound] {
        let summary = run_trials(40, 0x0E2E_0003, |trial_seed| {
            let config = PetConfig::builder()
                .accuracy(Accuracy::new(0.2, 0.2).unwrap())
                .tag_mode(mode)
                .manufacture_seed(trial_seed)
                .build()
                .unwrap();
            let mut rng = StdRng::seed_from_u64(trial_seed);
            Estimator::new(config)
                .estimate_population_rounds(&TagPopulation::sequential(n), 128, &mut rng)
                .estimate
        });
        results.push(summary.mean / n as f64);
    }
    assert!((results[0] - 1.0).abs() < 0.05, "passive {}", results[0]);
    assert!((results[1] - 1.0).abs() < 0.05, "active {}", results[1]);
    assert!((results[0] - results[1]).abs() < 0.05);
}

/// Anonymity invariant: the entire protocol transcript (commands + slot
/// outcomes) never carries a tag ID — estimation works on populations whose
/// EPCs the reader has never seen.
#[test]
fn estimation_never_touches_tag_identity() {
    // Two disjoint EPC spaces of the same size must estimate identically in
    // distribution; and the per-round transcript is just (bits, outcome)
    // pairs — verified by type: AirMetrics has no identity channel.
    let mut rng = StdRng::seed_from_u64(5);
    let a = TagPopulation::sequential(2_000);
    let b = TagPopulation::random(2_000, &mut rng);
    let config = PetConfig::builder()
        .accuracy(Accuracy::new(0.2, 0.2).unwrap())
        .build()
        .unwrap();
    let estimator = Estimator::new(config);
    let ra = estimator.estimate_population_rounds(&a, 256, &mut StdRng::seed_from_u64(9));
    let rb = estimator.estimate_population_rounds(&b, 256, &mut StdRng::seed_from_u64(9));
    assert!((ra.estimate - 2_000.0).abs() / 2_000.0 < 0.2);
    assert!((rb.estimate - 2_000.0).abs() / 2_000.0 < 0.2);
}

/// Scale smoke test: a million tags estimate within ±5% with the paper's
/// full round budget, in seconds of wall time thanks to the exact roster
/// fast path.
#[test]
fn million_tag_estimate() {
    let n = 1_000_000usize;
    let config = PetConfig::paper_default();
    let mut rng = StdRng::seed_from_u64(0x0E2E_0004);
    let report =
        Estimator::new(config).estimate_population(&TagPopulation::sequential(n), &mut rng);
    let rel = (report.estimate - n as f64).abs() / n as f64;
    assert!(
        rel < 0.05,
        "estimate {} ({rel:.4} rel err)",
        report.estimate
    );
    assert_eq!(report.metrics.slots, u64::from(config.rounds()) * 5);
}
