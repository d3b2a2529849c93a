//! Differential equivalence of the SIMD lanes against the scalar
//! reference, plus a fixed-seed golden trace of the full estimator.
//!
//! The scalar lane is the specification; AVX2 is obligated to reproduce
//! it bit for bit on every input, not statistically. The fuzz tests here
//! drive the wide lane, where the host supports it, against scalar directly
//! (lane-explicit entry points, no environment juggling), while the golden
//! trace pins the estimator's output bits so that `scripts/ci.sh` — which
//! runs this suite twice, once under `PET_FORCE_LANE=scalar` and once with
//! runtime dispatch — proves the env-selected lane changes nothing either.

use pet_core::config::PetConfig;
use pet_core::front::Estimator;
use pet_hash::family::{AnyFamily, HashFamily, HashKind};
use pet_hash::simd::{self, Lane};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The wide lanes this host can actually execute (possibly none under an
/// emulator; every test degrades to a scalar self-check then).
fn wide_lanes() -> Vec<Lane> {
    [Lane::Avx2]
        .into_iter()
        .filter(|l| l.is_supported())
        .collect()
}

proptest! {
    /// Multi-lane mixer hashing: same seed, keys, and truncation width
    /// must produce identical code arrays on every lane.
    #[test]
    fn mix2_bulk_lanes_match_scalar(
        seed in any::<u64>(),
        keys in proptest::collection::vec(any::<u64>(), 0..300),
        bits in 1u32..=64,
    ) {
        let mut want = vec![0u64; keys.len()];
        simd::mix2_bulk_into(Lane::Scalar, seed, &keys, bits, &mut want);
        for lane in wide_lanes() {
            let mut got = vec![0u64; keys.len()];
            simd::mix2_bulk_into(lane, seed, &keys, bits, &mut got);
            prop_assert_eq!(&got, &want, "mix2 diverged on {}", lane.as_str());
        }
    }

    /// Multi-message MD5: 8-wide single-block compressions must
    /// reproduce the scalar digest-derived codes exactly.
    #[test]
    fn md5_bulk_lanes_match_scalar(
        seed in any::<u64>(),
        keys in proptest::collection::vec(any::<u64>(), 0..150),
        bits in 1u32..=64,
    ) {
        let mut want = vec![0u64; keys.len()];
        simd::md5_bulk_into(Lane::Scalar, seed, &keys, bits, &mut want);
        for lane in wide_lanes() {
            let mut got = vec![0u64; keys.len()];
            simd::md5_bulk_into(lane, seed, &keys, bits, &mut got);
            prop_assert_eq!(&got, &want, "md5 diverged on {}", lane.as_str());
        }
    }

    /// The trait-level bulk kernel every family exposes must match the
    /// definitional per-key scalar loop (this is the path `hash_codes_into`
    /// and `hash_codes_par` actually take).
    #[test]
    fn family_bulk_matches_per_key(
        seed in any::<u64>(),
        keys in proptest::collection::vec(any::<u64>(), 0..200),
    ) {
        for kind in [HashKind::Mix, HashKind::Md5, HashKind::Sha1] {
            let family = AnyFamily::new(kind);
            let mut got = vec![0u64; keys.len()];
            family.hash_bits_bulk(seed, &keys, 32, &mut got);
            for (&k, &g) in keys.iter().zip(&got) {
                prop_assert_eq!(g, family.hash_bits(seed, k, 32), "{:?}", kind);
            }
        }
    }
}

/// `PET_FORCE_LANE` contract: when set, the active lane *is* that lane;
/// when unset, the active lane is whatever the CPU supports. Either way
/// the active lane must be executable — the dispatcher never silently
/// degrades (a forced name that is unknown or unsupported panics instead;
/// the lane is cached once per process, so `crates/pet-cli/tests/lane.rs`
/// covers that through `pet lane` child processes).
#[test]
fn active_lane_honors_environment() {
    let active = simd::active_lane();
    assert!(active.is_supported());
    match std::env::var("PET_FORCE_LANE") {
        Ok(forced) => assert_eq!(active.as_str(), forced, "forced lane must win"),
        Err(_) => assert_eq!(active, simd::detected_lane(), "auto = detected"),
    }
}

/// Fixed-seed golden estimate: the full front-door estimator (bulk hash →
/// radix sort → kernel search → aggregation) must produce these exact bits
/// regardless of which lane runs underneath. ci.sh runs this twice —
/// `PET_FORCE_LANE=scalar` and runtime dispatch — so a lane that drifts by
/// even one bit anywhere in the pipeline fails one of the two runs.
#[test]
fn golden_estimate_is_lane_invariant() {
    let config = PetConfig::paper_default();
    let keys: Vec<u64> = (0..1_500).collect();
    let mut rng = StdRng::seed_from_u64(0x51AD);
    let report = Estimator::with_family(config, AnyFamily::default())
        .try_estimate_keys_rounds(&keys, 48, &mut rng)
        .expect("estimation succeeds");
    // Golden values recorded under PET_FORCE_LANE=scalar at lane freeze.
    assert_eq!(
        report.estimate.to_bits(),
        0x409D_C877_2B72_5F32, // 1906.116376673756
        "estimate drifted: {} (0x{:016X})",
        report.estimate,
        report.estimate.to_bits()
    );
    assert_eq!(
        report.mean_prefix_len.to_bits(),
        0x4026_7555_5555_5555, // 11.229166666666666
        "mean prefix len drifted: {} (0x{:016X})",
        report.mean_prefix_len,
        report.mean_prefix_len.to_bits()
    );
}
