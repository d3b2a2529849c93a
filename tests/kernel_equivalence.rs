//! Bit-for-bit equivalence of the batched estimation kernel
//! (`pet_core::kernel`, the [`Estimator`]'s default backend) against the
//! slot-by-slot reference reader ([`Estimator::try_run_oracle`]), over
//! BOTH oracle implementations — the sorted-array [`CodeRoster`] and the
//! per-tag [`TagFleet`] — for the same `(path, seed)` RNG stream.
//!
//! This is the acceptance gate for the kernel: estimates, per-round
//! records, and air metrics must be *identical*, not statistically close,
//! across all tree heights 1..=64 and populations from empty to 10⁵.

use pet_core::config::{PetConfig, SearchStrategy, TagMode};
use pet_core::front::Estimator;
use pet_core::oracle::{CodeRoster, ResponderOracle, TagFleet};
use pet_core::session::EstimateReport;
use pet_phy::channel::PerfectChannel;
use pet_phy::Air;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn report_over<O: ResponderOracle>(
    estimator: &Estimator,
    oracle: &mut O,
    rounds: u32,
    seed: u64,
) -> EstimateReport {
    let mut air = Air::new(PerfectChannel);
    let mut rng = StdRng::seed_from_u64(seed);
    estimator
        .try_run_oracle(rounds, oracle, &mut air, &mut rng)
        .unwrap()
}

fn assert_identical(slow: &EstimateReport, fast: &EstimateReport, label: &str) {
    assert_eq!(
        slow.estimate.to_bits(),
        fast.estimate.to_bits(),
        "{label}: estimate"
    );
    assert_eq!(
        slow.mean_prefix_len.to_bits(),
        fast.mean_prefix_len.to_bits(),
        "{label}: mean prefix len"
    );
    assert_eq!(slow.records, fast.records, "{label}: records");
    assert_eq!(slow.metrics, fast.metrics, "{label}: metrics");
    assert_eq!(slow.rounds, fast.rounds, "{label}: rounds");
    assert_eq!(slow.zero_detected, fast.zero_detected, "{label}: zero flag");
}

/// Runs the three paths (kernel, roster reader, fleet reader) on the same
/// stream and demands byte-identical reports.
fn check(config: PetConfig, keys: &[u64], rounds: u32, seed: u64, label: &str) {
    let estimator = Estimator::new(config);
    let mut roster = CodeRoster::new(keys, &config, estimator.family());
    let mut fleet = TagFleet::new(keys, &config, estimator.family());
    let via_roster = report_over(&estimator, &mut roster, rounds, seed);
    let via_fleet = report_over(&estimator, &mut fleet, rounds, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    let fast = estimator.estimate_keys_rounds(keys, rounds, &mut rng);
    assert_identical(&via_roster, &fast, &format!("{label} (roster)"));
    assert_identical(&via_fleet, &fast, &format!("{label} (fleet)"));
}

/// Every tree height, both search strategies, mixed-key roster.
#[test]
fn kernel_matches_both_oracles_at_every_height() {
    let keys: Vec<u64> = (0..37u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    for height in 1..=64u32 {
        for search in [SearchStrategy::Binary, SearchStrategy::Linear] {
            let config = PetConfig::builder()
                .height(height)
                .search(search)
                .build()
                .unwrap();
            check(
                config,
                &keys,
                3,
                u64::from(height),
                &format!("H = {height}, {search:?}"),
            );
        }
    }
}

/// Population scales from empty to 10⁵ at the paper's height.
#[test]
fn kernel_matches_both_oracles_across_population_scales() {
    for (n, rounds) in [(0usize, 8u32), (1, 8), (1_000, 8), (100_000, 3)] {
        let keys: Vec<u64> = (0..n as u64).collect();
        let config = PetConfig::paper_default();
        check(
            config,
            &keys,
            rounds,
            0xE0_0000 + n as u64,
            &format!("n = {n}"),
        );
    }
}

/// Active per-round mode draws one extra seed per round; the kernel must
/// consume the stream identically and rebuild the same codes.
#[test]
fn kernel_matches_both_oracles_in_active_mode() {
    for height in [8u32, 32] {
        let keys: Vec<u64> = (0..800).collect();
        let config = PetConfig::builder()
            .height(height)
            .tag_mode(TagMode::ActivePerRound)
            .build()
            .unwrap();
        check(
            config,
            &keys,
            6,
            0xAC71_0000 + u64::from(height),
            &format!("active H = {height}"),
        );
    }
}

/// Zero-probe short-circuit is identical, both on empty and non-empty
/// populations.
#[test]
fn kernel_matches_zero_probe_paths() {
    for n in [0usize, 500] {
        let keys: Vec<u64> = (0..n as u64).collect();
        let config = PetConfig::builder().zero_probe(true).build().unwrap();
        check(
            config,
            &keys,
            5,
            0x2E80 + n as u64,
            &format!("probe n = {n}"),
        );
    }
}
