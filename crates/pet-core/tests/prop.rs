//! Property-based tests for the PET core protocol.

use pet_core::bits::BitString;
use pet_core::config::{Backend, CommandEncoding, Mitigation, PetConfig, SearchStrategy, TagMode};
use pet_core::front::Estimator;
use pet_core::kernel::{fused_round, round_record};
use pet_core::oracle::{CodeRoster, ResponderOracle, RoundStart, TagFleet};
use pet_core::reader::{binary_round, linear_round, run_round};
use pet_core::tree::Tree;
use pet_hash::family::AnyFamily;
use pet_phy::channel::{ChannelModel, LossyChannel, PerfectChannel};
use pet_phy::{Air, AirMetrics};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn cfg(height: u32) -> PetConfig {
    PetConfig::builder().height(height).build().unwrap()
}

proptest! {
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

    /// The fused kernel round agrees with the slot-by-slot reader over
    /// BOTH oracles on every round-record field, and its synthetic metrics
    /// equal the Air's, for arbitrary populations, heights (small ones
    /// produce the duplicate codes the responder count must include),
    /// streams, and perfect-channel re-probe counts.
    #[test]
    fn kernel_matches_reader_over_both_oracles(
        keys in proptest::collection::vec(any::<u64>(), 0..60),
        height in 1u32..=64,
        seed in any::<u64>(),
        linear in any::<bool>(),
        probes in 0u32..3,
    ) {
        let search = if linear { SearchStrategy::Linear } else { SearchStrategy::Binary };
        let mitigation = if probes > 0 { Mitigation::ReProbe { probes } } else { Mitigation::None };
        let config = PetConfig::builder()
            .height(height)
            .search(search)
            .mitigation(mitigation)
            .build()
            .unwrap();
        let mut roster = CodeRoster::new(&keys, &config, AnyFamily::default());
        let mut fleet = TagFleet::new(&keys, &config, AnyFamily::default());
        let codes = roster.codes().to_vec();
        let mut air_a = Air::new(PerfectChannel);
        let mut air_b = Air::new(PerfectChannel);
        let mut rng_a = StdRng::seed_from_u64(seed);
        let mut rng_b = StdRng::seed_from_u64(seed);
        let mut rng_k = StdRng::seed_from_u64(seed);
        let mut metrics = AirMetrics::default();
        for _ in 0..3 {
            let a = run_round(&config, &mut roster, &mut air_a, &mut rng_a);
            let b = run_round(&config, &mut fleet, &mut air_b, &mut rng_b);
            // The kernel consumes the identical stream: one path draw.
            let path = BitString::random(height, &mut rng_k);
            let k = fused_round(&codes, &path, &config, &mut metrics);
            prop_assert_eq!(
                (a.prefix_len, a.gray_height, a.slots, a.disambiguated),
                (k.prefix_len, k.gray_height, k.slots, k.disambiguated)
            );
            prop_assert_eq!(a, k);
            prop_assert_eq!(b, k);
            if probes == 0 {
                prop_assert_eq!(k, round_record(height, search, k.prefix_len));
            }
        }
        prop_assert_eq!(air_a.metrics(), &metrics);
        prop_assert_eq!(air_b.metrics(), &metrics);
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
        let k = fused_round(&codes, &path, &config, &mut metrics);
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
        let mut metrics = AirMetrics::default();
        prop_assert_eq!(rec, fused_round(&codes, &path, &config, &mut metrics));
        prop_assert_eq!(rec, round_record(64, search, rec.prefix_len));
        prop_assert_eq!(&metrics, air.metrics());
    }

    /// Differential fuzz of the two backends across the full configuration
    /// space — channel faults included: for any population, seed, channel,
    /// tag mode, and mitigation, the oracle reader and the batched kernel
    /// produce bit-identical reports AND slot-by-slot transcripts.
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
        let keys = std::sync::Arc::new(keys);
        let mut outputs = Vec::new();
        for backend in [Backend::Oracle, Backend::Kernel] {
            let config = PetConfig::builder()
                .backend(backend)
                .tag_mode(tag_mode)
                .manufacture_seed(seed)
                .channel(channel)
                .mitigation(mitigation)
                .build()
                .unwrap();
            let estimator = Estimator::new(config);
            let mut bank = estimator.bank_for_keys(std::sync::Arc::clone(&keys));
            let mut rng = StdRng::seed_from_u64(seed);
            outputs.push(
                estimator
                    .try_run_bank_transcribed(&mut bank, rounds, 16_384, &mut rng)
                    .unwrap(),
            );
        }
        let (oracle_report, oracle_transcript) = &outputs[0];
        let (kernel_report, kernel_transcript) = &outputs[1];
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
