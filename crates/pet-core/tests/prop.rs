//! Property-based tests for the PET core protocol.

use pet_core::bits::BitString;
use pet_core::config::{CommandEncoding, Mitigation, PetConfig, SearchStrategy, TagMode};
use pet_core::front::Estimator;
use pet_core::kernel::{
    build_passive_codes, fused_round, round_record, CodeBank, PrefixIndex, RoundPlans,
};
use pet_core::oracle::{CodeRoster, ResponderOracle, RoundStart, TagFleet};
use pet_core::reader::{binary_round, linear_round, run_round};
use pet_core::tree::Tree;
use pet_hash::bulk::{hash_codes_into, radix_sort_codes, RadixScratch};
use pet_hash::family::AnyFamily;
use pet_phy::channel::{ChannelModel, LossyChannel, PerfectChannel};
use pet_phy::{Air, AirMetrics};
use pet_tags::dynamics::{ChurnSchedule, KeyTimeline};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn cfg(height: u32) -> PetConfig {
    PetConfig::builder().height(height).build().unwrap()
}

/// A roster over explicit `height`-bit codes.
fn roster_of(codes: impl Iterator<Item = u64>, height: u32) -> CodeRoster {
    let codes: Vec<BitString> = codes
        .map(|c| BitString::from_bits(c, height).unwrap())
        .collect();
    CodeRoster::from_codes(&codes, height)
}

/// Height of [`large_population`]'s codes.
const LARGE_HEIGHT: u32 = 32;

/// 2^21 + 5 sequential tags' codes at [`LARGE_HEIGHT`] and a bank over
/// them, built once per test binary: `⌊log₂ n⌋ = 21`, above the index's
/// 20-level clamp. The first case to run builds the bank's index and round
/// memo, so the memo serves that case's strategy alone, and the cases of
/// the other strategy run over the index without it.
fn large_population() -> &'static (CodeRoster, CodeBank) {
    static LARGE: std::sync::OnceLock<(CodeRoster, CodeBank)> = std::sync::OnceLock::new();
    LARGE.get_or_init(|| {
        let keys: Vec<u64> = (0..(1u64 << 21) + 5).collect();
        let mut codes = Vec::new();
        hash_codes_into(&AnyFamily::default(), 0, &keys, LARGE_HEIGHT, &mut codes);
        radix_sort_codes(&mut codes, LARGE_HEIGHT, &mut RadixScratch::new());
        let bank = CodeBank::passive_shared(Arc::new(codes.clone()));
        (roster_of(codes.into_iter(), LARGE_HEIGHT), bank)
    })
}

/// Runs three rounds of `config` through the reference reader over
/// `roster` (and over `fleet`, for a population with keys) and through the
/// fused kernel over the roster's sorted codes, without an index and
/// through an indexed bank over them (`bank`, or one built here), and
/// asserts identical round records and metrics. The bank runs the rounds
/// twice, so the second pass reads what the first stored in its round
/// memo. All paths consume the same stream: one path draw per round.
fn check_kernel_rounds(
    config: &PetConfig,
    mut roster: CodeRoster,
    mut fleet: Option<TagFleet>,
    bank: Option<&CodeBank>,
    seed: u64,
) -> Result<(), TestCaseError> {
    let codes = roster.codes().to_vec();
    let built;
    let bank = match bank {
        Some(bank) => bank,
        None => {
            built = CodeBank::passive_shared(Arc::new(codes.clone()));
            &built
        }
    };
    let mut air_a = Air::new(PerfectChannel);
    let mut air_b = Air::new(PerfectChannel);
    let mut rng_a = StdRng::seed_from_u64(seed);
    let mut rng_b = StdRng::seed_from_u64(seed);
    let mut rng_k = StdRng::seed_from_u64(seed);
    let plans = RoundPlans::new(config);
    bank.prepare_run(u32::MAX, &plans);
    prop_assert!(bank.prefix_index().is_some());
    let mut metrics = AirMetrics::default();
    let mut indexed = AirMetrics::default();
    let mut rounds = Vec::new();
    for _ in 0..3 {
        let a = run_round(config, &mut roster, &mut air_a, &mut rng_a);
        let path = BitString::random(config.height(), &mut rng_k);
        let k = fused_round(&codes, None, &path, &plans, &mut metrics);
        prop_assert_eq!(
            (a.prefix_len, a.gray_height, a.slots, a.disambiguated),
            (k.prefix_len, k.gray_height, k.slots, k.disambiguated)
        );
        prop_assert_eq!(a, k);
        prop_assert_eq!(bank.lossless_round(&path, &plans, &mut indexed), k);
        rounds.push((path, k));
        if let Some(fleet) = fleet.as_mut() {
            prop_assert_eq!(run_round(config, fleet, &mut air_b, &mut rng_b), k);
        }
        if !matches!(config.mitigation(), Mitigation::ReProbe { .. }) {
            prop_assert_eq!(
                k,
                round_record(config.height(), config.search(), k.prefix_len)
            );
        }
    }
    let mut memoized = AirMetrics::default();
    for (path, k) in &rounds {
        prop_assert_eq!(bank.lossless_round(path, &plans, &mut memoized), *k);
    }
    prop_assert_eq!(air_a.metrics(), &metrics);
    prop_assert_eq!(&indexed, &metrics);
    prop_assert_eq!(&memoized, &metrics);
    if fleet.is_some() {
        prop_assert_eq!(air_b.metrics(), &metrics);
    }
    Ok(())
}

/// Heights the key-delta property draws from: 1–8, where distinct keys
/// share codes, and the full-width 32 and 64.
const DELTA_HEIGHTS: [u32; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 32, 64];

/// A key and its code, as `(code, key)` so that pairs sort by code.
type Coded = (u64, u64);

/// Applies `(left, joined)` to a passive bank over `keys` and asserts that
/// it leaves exactly the codes [`build_passive_codes`] builds over `kept`
/// plus `joined`, while a clone taken before the edit keeps its codes.
fn check_key_delta(
    config: &PetConfig,
    keys: &[u64],
    left: &[u64],
    kept: &[u64],
    joined: &[u64],
) -> Result<(), TestCaseError> {
    let family = AnyFamily::default();
    let codes = build_passive_codes(keys, config, family);
    let mut bank = CodeBank::passive_shared(Arc::new(codes.clone()));
    let shared = bank.clone();
    bank.apply_key_delta(left, joined, config, family);
    let after: Vec<u64> = kept.iter().chain(joined).copied().collect();
    prop_assert_eq!(
        bank.codes(),
        &build_passive_codes(&after, config, family)[..]
    );
    prop_assert_eq!(shared.codes(), &codes[..], "a clone keeps its codes");
    Ok(())
}

/// The benchmark's monitor subscription: 10⁴ sequential tags churned 20
/// an update with 2,500 lost at update 5. Every edited bank equals a
/// fresh one over the timeline's keys, and a clone taken before an update
/// keeps its codes.
#[test]
fn key_delta_matches_a_fresh_bank_through_a_burst() {
    let config = cfg(32);
    let family = AnyFamily::default();
    let schedule = ChurnSchedule {
        rate: 20,
        burst_at: Some(5),
        burst_size: 2_500,
    };
    let mut timeline = KeyTimeline::sequential(10_000);
    let first = build_passive_codes(timeline.keys(), &config, family);
    let mut bank = CodeBank::passive_shared(Arc::new(first));
    for update in 0..8 {
        let shared = bank.clone();
        let before = shared.codes().to_vec();
        let delta = timeline.update(&schedule.events_at(update));
        bank.apply_key_delta(delta.left, delta.joined, &config, family);
        let fresh = build_passive_codes(timeline.keys(), &config, family);
        assert_eq!(bank.codes(), fresh, "update {update}");
        assert_eq!(
            shared.codes(),
            before,
            "update {update}: a clone keeps its codes"
        );
    }
    assert_eq!(bank.population(), 7_500);
}

proptest! {
    /// A key delta leaves the codes a fresh bank over the new key set
    /// holds, whatever leaves and wherever the joining codes land:
    /// `left_shape` 0 takes nothing, 1 every key, 2 a random subset and 3
    /// every key with a code in one range of the sorted codes (whole runs
    /// of equal codes at heights up to 8); `placement` 0 joins keys with
    /// random codes, 1 the pool's lowest codes (below every bank code), 2
    /// its highest (above every bank code) and 3 copies of keys the bank
    /// holds (equal to codes already present).
    #[test]
    fn key_delta_equals_a_fresh_bank(
        height in 0usize..DELTA_HEIGHTS.len(),
        pool in proptest::collection::vec(any::<u64>(), 0..400),
        joining in 0usize..60,
        placement in 0u8..4,
        left_shape in 0u8..4,
        left_share in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let config = PetConfig::builder()
            .height(DELTA_HEIGHTS[height])
            .manufacture_seed(seed)
            .build()
            .unwrap();
        let mut codes = Vec::new();
        hash_codes_into(&AnyFamily::default(), seed, &pool, config.height(), &mut codes);
        let mut pairs: Vec<Coded> = codes.into_iter().zip(pool).collect();
        let joining = joining.min(pairs.len());
        if placement == 1 || placement == 2 {
            pairs.sort_unstable();
        }
        let split = if placement == 2 { pairs.len() - joining } else { joining };
        let (keys, joined) = match placement {
            0 | 1 => (pairs[split..].to_vec(), pairs[..split].to_vec()),
            2 => (pairs[..split].to_vec(), pairs[split..].to_vec()),
            _ => (pairs.clone(), pairs[..split].to_vec()),
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sorted: Vec<u64> = keys.iter().map(|p| p.0).collect();
        sorted.sort_unstable();
        let code_at = |share: f64| {
            let at = (share * sorted.len() as f64) as usize;
            sorted.get(at).copied().unwrap_or(u64::MAX)
        };
        let range = code_at(left_share * rng.random::<f64>())..=code_at(left_share);
        let (left, kept): (Vec<Coded>, Vec<Coded>) =
            keys.iter().partition(|&&(code, _)| match left_shape {
                0 => false,
                1 => true,
                2 => rng.random::<f64>() < left_share,
                _ => range.contains(&code),
            });
        let key = |pairs: &[Coded]| pairs.iter().map(|p| p.1).collect::<Vec<u64>>();
        check_key_delta(&config, &key(&keys), &key(&left), &key(&kept), &key(&joined))?;
    }

    /// For any code set and path: linear search, binary search, and the
    /// definitional reference tree all report the same gray node.
    #[test]
    fn strategies_match_reference_tree(
        keys in proptest::collection::vec(any::<u64>(), 1..80),
        path_bits in any::<u64>(),
        height in 2u32..=20,
        seed in any::<u64>(),
    ) {
        let config = cfg(height);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut oracle = CodeRoster::new(&keys, &config, AnyFamily::default());
        let path = BitString::from_bits(path_bits & ((1u64 << height) - 1), height).unwrap();
        let codes: Vec<BitString> = oracle
            .codes()
            .iter()
            .map(|&c| BitString::from_bits(c, height).unwrap())
            .collect();
        let tree = Tree::build(&codes, height);
        let gray = tree.gray_node(&path).expect("non-empty");

        let mut air = Air::new(PerfectChannel);
        oracle.begin_round(&RoundStart { path, seed: None });
        let lin = linear_round(&config, &mut oracle, &mut air, &mut rng);
        oracle.begin_round(&RoundStart { path, seed: None });
        let bin = binary_round(&config, &mut oracle, &mut air, &mut rng);

        prop_assert_eq!(lin.prefix_len, gray.prefix_len);
        prop_assert_eq!(bin.prefix_len, gray.prefix_len);
        prop_assert_eq!(bin.gray_height, gray.height);
    }

    /// Binary search slot count is bounded by ⌈log₂ H⌉ + 1 (the +1 is the
    /// disambiguation slot) for any population and path.
    #[test]
    fn binary_slot_bound(
        keys in proptest::collection::vec(any::<u64>(), 0..60),
        height in 2u32..=32,
        seed in any::<u64>(),
    ) {
        let config = cfg(height);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut oracle = CodeRoster::new(&keys, &config, AnyFamily::default());
        let mut air = Air::new(PerfectChannel);
        let path = BitString::random(height, &mut rng);
        oracle.begin_round(&RoundStart { path, seed: None });
        let rec = binary_round(&config, &mut oracle, &mut air, &mut rng);
        let bound = 32 - (height - 1).leading_zeros() + 1;
        prop_assert!(rec.slots <= bound, "slots {} > bound {bound}", rec.slots);
        prop_assert!(rec.prefix_len <= height);
        prop_assert_eq!(rec.gray_height, height - rec.prefix_len);
    }

    /// The roster fast path and the per-tag fleet agree on every query of a
    /// full protocol round, for explicit and feedback encodings alike.
    #[test]
    fn roster_equals_fleet_through_rounds(
        keys in proptest::collection::vec(any::<u64>(), 1..50),
        height in 2u32..=16,
        seed in any::<u64>(),
        feedback in any::<bool>(),
    ) {
        let encoding = if feedback {
            CommandEncoding::FeedbackBit
        } else {
            CommandEncoding::PrefixLength
        };
        let config = PetConfig::builder()
            .height(height)
            .encoding(encoding)
            .build()
            .unwrap();
        let mut rng_a = StdRng::seed_from_u64(seed);
        let mut rng_b = StdRng::seed_from_u64(seed);
        let mut roster = CodeRoster::new(&keys, &config, AnyFamily::default());
        let mut fleet = TagFleet::new(&keys, &config, AnyFamily::default());
        let mut air_a = Air::new(PerfectChannel);
        let mut air_b = Air::new(PerfectChannel);
        for round in 0..4u64 {
            let path = BitString::random(height, &mut StdRng::seed_from_u64(seed ^ round));
            roster.begin_round(&RoundStart { path, seed: None });
            fleet.begin_round(&RoundStart { path, seed: None });
            let a = binary_round(&config, &mut roster, &mut air_a, &mut rng_a);
            let b = binary_round(&config, &mut fleet, &mut air_b, &mut rng_b);
            prop_assert_eq!(a, b);
        }
    }

    /// Linear search costs exactly L + 1 slots (or H when every prefix is
    /// responsive).
    #[test]
    fn linear_slot_cost_formula(
        keys in proptest::collection::vec(any::<u64>(), 1..60),
        height in 2u32..=24,
        seed in any::<u64>(),
    ) {
        let config = PetConfig::builder()
            .height(height)
            .search(SearchStrategy::Linear)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut oracle = CodeRoster::new(&keys, &config, AnyFamily::default());
        let mut air = Air::new(PerfectChannel);
        let path = BitString::random(height, &mut rng);
        oracle.begin_round(&RoundStart { path, seed: None });
        let rec = linear_round(&config, &mut oracle, &mut air, &mut rng);
        if rec.prefix_len == height {
            prop_assert_eq!(rec.slots, height);
        } else {
            prop_assert_eq!(rec.slots, rec.prefix_len + 1);
        }
    }

    /// The fused kernel round, over the bare sorted codes, over their
    /// prefix index and replayed from their round memo, agrees with the
    /// slot-by-slot reader over BOTH oracles
    /// on every round-record field, and its synthetic metrics equal the
    /// Air's, for arbitrary populations, heights (small ones produce the
    /// duplicate codes the responder count must include, and `n < 16`
    /// sits at the bottom of the index's `k` clamp), streams, and
    /// perfect-channel re-probe counts. Each case also checks one keyless
    /// population against the roster oracle, picked by `extra`:
    ///
    /// - 0: the hashed codes shifted right by `narrow`, so every code is
    ///   below `2^(H−1)`: the index takes its shift from the codes, and a
    ///   path above them all must land at `n`.
    /// - 1: height-64 codes at the top of the tree, where a prefix of ones
    ///   has the exclusive upper bound `2^64`.
    /// - 2: a shared population above `2^21`, whose table is clamped to
    ///   `k = 20` levels.
    /// - 3: the hashed codes with their middle bits cleared, so that only
    ///   the top two and the bottom `narrow` bits vary: the codes crowd a
    ///   few of the index's buckets, duplicates included, and a busy query
    ///   below the table's depth counts inside a wide bucket.
    #[test]
    fn kernel_matches_reader_over_both_oracles(
        keys in proptest::collection::vec(any::<u64>(), 0..60),
        height in 1u32..=64,
        seed in any::<u64>(),
        linear in any::<bool>(),
        probes in 0u32..3,
        extra in 0u8..4,
        narrow in 1u32..=8,
    ) {
        let search = if linear { SearchStrategy::Linear } else { SearchStrategy::Binary };
        let mitigation = if probes > 0 { Mitigation::ReProbe { probes } } else { Mitigation::None };
        let config_at = |height| {
            PetConfig::builder()
                .height(height)
                .search(search)
                .mitigation(mitigation)
                .build()
                .unwrap()
        };
        let config = config_at(height);
        let roster = CodeRoster::new(&keys, &config, AnyFamily::default());
        let fleet = TagFleet::new(&keys, &config, AnyFamily::default());
        let narrowed = roster_of(roster.codes().iter().map(|&c| c >> narrow.min(height)), height);
        let ones = |bits: u32| u64::MAX >> (64 - bits.min(64));
        let top = 2.min(height);
        let kept = ones(top) << (height - top) | ones(narrow.min(height));
        let crowded = roster_of(roster.codes().iter().map(|&c| c & kept), height);
        check_kernel_rounds(&config, roster, Some(fleet), None, seed)?;
        match extra {
            0 => check_kernel_rounds(&config, narrowed, None, None, seed)?,
            1 => {
                let top = roster_of(keys.iter().map(|&k| u64::MAX - (k >> 58)), 64);
                check_kernel_rounds(&config_at(64), top, None, None, seed)?;
            }
            2 => {
                let (large, bank) = large_population();
                let config = config_at(LARGE_HEIGHT);
                check_kernel_rounds(&config, large.clone(), None, Some(bank), seed)?;
            }
            _ => check_kernel_rounds(&config, crowded, None, None, seed)?,
        }
    }

    /// Disambiguation edge: when at most the first path bit is shared
    /// (L ∈ {0, 1}), binary search converges to `low = 1` with no busy
    /// answer and must spend the extra disambiguation slot. The fused
    /// kernel round replays the same record and the same metrics.
    #[test]
    fn kernel_disambiguation_edge(height in 2u32..=64, share_one in any::<bool>()) {
        let config = cfg(height);
        let mask = if height == 64 { u64::MAX } else { (1u64 << height) - 1 };
        let path = BitString::from_bits(mask, height).unwrap();
        // All-ones path vs a code sharing exactly 0 or 1 leading bits.
        let code = if share_one { 1u64 << (height - 1) } else { 0 };
        let mut roster =
            CodeRoster::from_codes(&[BitString::from_bits(code, height).unwrap()], height);
        let codes = roster.codes().to_vec();
        let mut air = Air::new(PerfectChannel);
        let mut rng = StdRng::seed_from_u64(0);
        roster.begin_round(&RoundStart { path, seed: None });
        air.broadcast(config.round_start_bits());
        let rec = binary_round(&config, &mut roster, &mut air, &mut rng);
        let mut metrics = AirMetrics::default();
        let k = fused_round(&codes, None, &path, &RoundPlans::new(&config), &mut metrics);
        prop_assert_eq!(k.prefix_len, u32::from(share_one));
        prop_assert_eq!(rec, k);
        prop_assert!(k.disambiguated);
        prop_assert_eq!(&metrics, air.metrics());
    }

    /// Height-64 top-of-tree codes (near `u64::MAX`) exercise the fused
    /// round's responder counts at the top of the code space under both
    /// search strategies.
    #[test]
    fn kernel_height64_overflow_edge(
        offsets in proptest::collection::btree_set(0u64..16, 1..8),
        path_off in 0u64..16,
        linear in any::<bool>(),
    ) {
        let search = if linear { SearchStrategy::Linear } else { SearchStrategy::Binary };
        let config = PetConfig::builder().height(64).search(search).build().unwrap();
        let code_bits: Vec<BitString> = offsets
            .iter()
            .map(|&o| BitString::from_bits(u64::MAX - o, 64).unwrap())
            .collect();
        let mut roster = CodeRoster::from_codes(&code_bits, 64);
        let codes = roster.codes().to_vec();
        let path = BitString::from_bits(u64::MAX - path_off, 64).unwrap();
        let mut air = Air::new(PerfectChannel);
        let mut rng = StdRng::seed_from_u64(1);
        roster.begin_round(&RoundStart { path, seed: None });
        air.broadcast(config.round_start_bits());
        let rec = match search {
            SearchStrategy::Linear => linear_round(&config, &mut roster, &mut air, &mut rng),
            SearchStrategy::Binary => binary_round(&config, &mut roster, &mut air, &mut rng),
        };
        let plans = RoundPlans::new(&config);
        let mut metrics = AirMetrics::default();
        prop_assert_eq!(rec, fused_round(&codes, None, &path, &plans, &mut metrics));
        prop_assert_eq!(rec, round_record(64, search, rec.prefix_len));
        prop_assert_eq!(&metrics, air.metrics());
        let index = PrefixIndex::build(&codes);
        let mut indexed = AirMetrics::default();
        prop_assert_eq!(rec, fused_round(&codes, Some(&index), &path, &plans, &mut indexed));
        prop_assert_eq!(&indexed, air.metrics());
    }

    /// Differential fuzz of the bank against the oracle reader across the
    /// full configuration space — channel faults included: for any
    /// population, seed, channel, tag mode, and mitigation, a roster run and
    /// a bank run produce bit-identical reports AND slot-by-slot transcripts.
    #[test]
    fn backends_are_transcript_identical_for_any_channel(
        keys in proptest::collection::vec(any::<u64>(), 0..250),
        seed in any::<u64>(),
        miss in 0.0f64..0.5,
        false_busy in 0.0f64..0.2,
        lossy in any::<bool>(),
        active in any::<bool>(),
        mitigation_pick in 0u8..3,
        rounds in 1u32..6,
    ) {
        let channel = if lossy {
            ChannelModel::Lossy(LossyChannel::new(miss, false_busy).unwrap())
        } else {
            ChannelModel::Perfect
        };
        let mitigation = match mitigation_pick {
            0 => Mitigation::None,
            1 => Mitigation::TrimmedMean { trim: 1 },
            _ => Mitigation::ReProbe { probes: 2 },
        };
        let tag_mode = if active {
            TagMode::ActivePerRound
        } else {
            TagMode::PassivePreloaded
        };
        let config = PetConfig::builder()
            .tag_mode(tag_mode)
            .manufacture_seed(seed)
            .channel(channel)
            .mitigation(mitigation)
            .build()
            .unwrap();
        let estimator = Estimator::new(config);
        let mut roster = CodeRoster::new(&keys, &config, estimator.family());
        let mut air = Air::new(channel).with_transcript(16_384);
        let oracle_report = estimator
            .try_run_oracle(rounds, &mut roster, &mut air, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        let oracle_transcript = air.transcript().cloned().unwrap();
        let mut bank = estimator.bank_for_keys(Arc::new(keys));
        let (kernel_report, kernel_transcript) = estimator
            .try_run_bank_transcribed(&mut bank, rounds, 16_384, &mut StdRng::seed_from_u64(seed))
            .unwrap();
        prop_assert_eq!(
            oracle_report.estimate.to_bits(),
            kernel_report.estimate.to_bits()
        );
        prop_assert_eq!(&oracle_report.records, &kernel_report.records);
        prop_assert_eq!(&oracle_report.metrics, &kernel_report.metrics);
        prop_assert_eq!(oracle_transcript.records(), kernel_transcript.records());
    }

    /// BitString::common_prefix_len is symmetric, bounded, and consistent
    /// with matches_prefix.
    #[test]
    fn common_prefix_properties(a in any::<u64>(), b in any::<u64>(), height in 1u32..=64) {
        let mask = if height == 64 { u64::MAX } else { (1u64 << height) - 1 };
        let x = BitString::from_bits(a & mask, height).unwrap();
        let y = BitString::from_bits(b & mask, height).unwrap();
        let l = x.common_prefix_len(&y);
        prop_assert_eq!(l, y.common_prefix_len(&x));
        prop_assert!(l <= height);
        prop_assert!(x.matches_prefix(&y, l));
        if l < height {
            prop_assert!(!x.matches_prefix(&y, l + 1));
        }
    }
}
