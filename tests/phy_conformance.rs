//! PHY-conformance suite: the Gen2 pricing layer must be a *pure
//! observer* of the protocol — attaching a [`PhyProfile`] to a config can
//! never change what the protocol does, only price what it did.
//!
//! Three pins:
//!
//! 1. **Pricing-purity differential** (property): for any population,
//!    round budget, and seed, running with and without the profile yields
//!    bit-identical estimates, round records, and air metrics, the
//!    attached ledger is exactly the profile folded over those metrics,
//!    and the oracle reader prices the same run identically.
//! 2. **Golden PHY trace**: a fixed-seed run pins the slot breakdown and
//!    every ledger component byte for byte in
//!    `tests/golden/phy_trace.csv`. Re-bless after an intentional timing
//!    or energy model change with `PET_BLESS=1 cargo test -p pet --test
//!    phy_conformance`.
//! 3. **Trimmed-mean skew caveat** (gate): the trimmed-mean mitigation
//!    cannot repair Tash-style hash skew. Trimming removes symmetric
//!    outlier rounds; a biased `P(1)` shifts *every* round's statistic
//!    the same way, so the bias survives the trim. The test fails if
//!    someone "fixes" this accidentally, so the documented caveat in
//!    DESIGN.md stays true to the code.

use pet::prelude::*;
use pet_core::config::Mitigation;
use pet_core::oracle::CodeRoster;
use pet_hash::family::AnyFamily;
use proptest::prelude::*;
use std::fmt::Write as _;
use std::path::Path;

fn config(phy: Option<PhyProfile>) -> PetConfig {
    PetConfig::builder()
        .accuracy(Accuracy::new(0.2, 0.2).unwrap())
        .phy(phy)
        .build()
        .unwrap()
}

/// The estimator's run and the reference run over the same keys and seed:
/// the oracle reader over a [`CodeRoster`].
fn kernel_and_oracle(
    config: PetConfig,
    keys: &[u64],
    rounds: u32,
    seed: u64,
) -> [EstimateReport; 2] {
    let estimator = Estimator::new(config);
    let kernel = estimator
        .try_estimate_keys_rounds(keys, rounds, &mut StdRng::seed_from_u64(seed))
        .unwrap();
    let mut roster = CodeRoster::new(keys, &config, estimator.family());
    let (mut air, mut rng) = (Air::new(config.channel()), StdRng::seed_from_u64(seed));
    let oracle = estimator
        .try_run_oracle(rounds, &mut roster, &mut air, &mut rng)
        .unwrap();
    [kernel, oracle]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Pin 1: PHY accounting never changes estimate bits, round records,
    /// or slot counts, and the ledger is the pure fold over the metrics.
    #[test]
    fn phy_pricing_never_changes_protocol_bits(
        n in 1usize..2_000,
        rounds in 1u32..48,
        seed in any::<u64>(),
    ) {
        let keys: Vec<u64> = TagPopulation::sequential(n).keys().collect();
        let profile = PhyProfile::gen2();
        let unpriced = kernel_and_oracle(config(None), &keys, rounds, seed);
        let priced = kernel_and_oracle(config(Some(profile)), &keys, rounds, seed);
        for (off, on) in unpriced.iter().zip(&priced) {
            prop_assert_eq!(
                on.estimate.to_bits(),
                off.estimate.to_bits(),
                "estimate drifted under pricing"
            );
            prop_assert_eq!(on.rounds, off.rounds);
            prop_assert_eq!(on.mean_prefix_len.to_bits(), off.mean_prefix_len.to_bits());
            prop_assert_eq!(&on.records, &off.records);
            prop_assert_eq!(on.metrics, off.metrics);
            prop_assert_eq!(off.phy, None, "no profile, no ledger");
            prop_assert_eq!(
                on.phy,
                Some(profile.report(&on.metrics)),
                "ledger must be the pure fold over the final metrics"
            );
        }
        // The equivalence with the oracle reader extends to the priced
        // ledger.
        prop_assert_eq!(priced[0].phy, priced[1].phy);
    }
}

/// The fixed scenario behind the golden trace: 800 tags, 48 rounds, run by
/// the oracle reader and by the kernel (which must agree bit for bit, so
/// the trace pins one line per run with identical numbers past the label).
fn phy_trace() -> String {
    let keys: Vec<u64> = TagPopulation::sequential(800).keys().collect();
    let profile = PhyProfile::gen2();
    let mut out = String::from(
        "backend,estimate,slots,idle,singleton,collision,command_bits,tag_responses,\
         wall_ms,reader_tx_uj,reader_rx_uj,tag_uj,energy_uj\n",
    );
    let [kernel, oracle] = kernel_and_oracle(config(Some(profile)), &keys, 48, 0x6E2_2026);
    for (label, report) in [("Oracle", oracle), ("Kernel", kernel)] {
        let m = report.metrics;
        let p = report.phy.expect("profile configured");
        // `{:?}` prints the shortest f64 representation that round-trips,
        // so equal bytes ⇔ equal bits.
        writeln!(
            out,
            "{label},{:?},{},{},{},{},{},{},{:?},{:?},{:?},{:?},{:?}",
            report.estimate,
            m.slots,
            m.idle,
            m.singleton,
            m.collision,
            m.command_bits,
            m.tag_responses,
            p.wall_ms,
            p.reader_tx_uj,
            p.reader_rx_uj,
            p.tag_uj,
            p.energy_uj
        )
        .unwrap();
    }
    out
}

/// Pin 2: the golden PHY trace. Every slot count and ledger component is
/// pinned byte for byte; `PET_BLESS=1` re-blesses.
#[test]
fn golden_phy_trace_matches() {
    let produced = phy_trace();

    // Structural check first, independent of the golden bytes: both runs
    // must print identical numbers after the label.
    let lines: Vec<&str> = produced.lines().skip(1).collect();
    assert_eq!(lines.len(), 2);
    let strip = |l: &str| l.split_once(',').unwrap().1.to_string();
    assert_eq!(
        strip(lines[0]),
        strip(lines[1]),
        "oracle and kernel priced transcripts diverged"
    );

    let golden_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/phy_trace.csv");
    if std::env::var("PET_BLESS").is_ok_and(|v| !v.is_empty()) {
        std::fs::create_dir_all(golden_path.parent().unwrap()).unwrap();
        std::fs::write(&golden_path, &produced).unwrap();
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden missing — run once with PET_BLESS=1 to create it, then commit the file");
    assert_eq!(
        produced, golden,
        "PHY trace drifted from tests/golden/phy_trace.csv; if the timing or \
         energy model change is intentional, re-bless with PET_BLESS=1 and commit"
    );
}

/// Pin 2b: producing the trace twice from scratch gives identical bytes —
/// the property the server's priced replies and the sweep's ledger rows
/// stand on.
#[test]
fn phy_trace_replays_bit_for_bit() {
    assert_eq!(phy_trace(), phy_trace());
}

/// Pin 3: the trimmed-mean mitigation does not repair Tash hash skew.
/// Skew shifts every round's prefix statistic systematically; the trim
/// only discards extreme rounds, so the biased mean survives. DESIGN.md
/// documents this caveat — this test keeps it true.
#[test]
fn trimmed_mean_does_not_repair_tash_skew() {
    let n = 5_000usize;
    let keys: Vec<u64> = TagPopulation::sequential(n).keys().collect();
    let rounds = 400u32;
    let rel_err = |mitigation: Mitigation, family: AnyFamily| {
        let config = PetConfig::builder()
            .accuracy(Accuracy::new(0.2, 0.2).unwrap())
            .mitigation(mitigation)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(0x7A51);
        let report = Estimator::with_family(config, family)
            .try_estimate_keys_rounds(&keys, rounds, &mut rng)
            .unwrap();
        (report.estimate - n as f64) / n as f64
    };
    let skewed = AnyFamily::tash(0.10);
    let biased = rel_err(Mitigation::None, skewed);
    let trimmed = rel_err(Mitigation::TrimmedMean { trim: 40 }, skewed);
    // The skew produces a real, systematic bias...
    assert!(
        biased.abs() > 0.10,
        "a 0.10 per-bit skew must visibly bias the estimate, got {biased:+.3}"
    );
    // ...and trimming 20% of rounds per tail removes at most a sliver of
    // it: the trimmed estimate must retain most of the bias (same sign,
    // comparable magnitude), because the error is in every round.
    assert!(
        trimmed.signum() == biased.signum() && trimmed.abs() > biased.abs() * 0.5,
        "trimmed mean must NOT repair systematic hash skew: \
         biased {biased:+.3} vs trimmed {trimmed:+.3}"
    );
    // Control: with uniform hashing the same trim stays accurate.
    let control = rel_err(Mitigation::TrimmedMean { trim: 40 }, AnyFamily::default());
    assert!(
        control.abs() < 0.10,
        "trimmed mean under uniform hashing must stay accurate, got {control:+.3}"
    );
}
