//! Batched estimation kernel: one search per round.
//!
//! The reference reader ([`crate::reader`]) locates the gray node by
//! querying the oracle slot by slot; with the [`crate::oracle::CodeRoster`]
//! oracle each of the ~5 queries costs two `partition_point` searches over
//! the sorted code array — ten searches per round. [`fused_round`] computes
//! the same round, and its full [`AirMetrics`] accounting, from the sorted
//! codes with a **single** full-array search:
//!
//! 1. Find the estimating path's insertion point `at` in the sorted array.
//! 2. The longest responsive prefix is `L = max(lcp(path, pred),
//!    lcp(path, succ))`, computed with one `XOR` + `leading_zeros` per
//!    neighbor of `at`.
//! 3. Replay the configured search strategy once. Given `L`, a query of
//!    length `j` is busy iff `j <= L`, which fixes the slot count, the
//!    disambiguation flag and the final prefix length (the
//!    [`RoundRecord`]). The same replay records every slot into the
//!    [`AirMetrics`]: an idle query has zero responders by definition of
//!    `L`, and a busy query's responder count is the run of codes sharing
//!    its prefix on either side of `at`, found by galloping outward from
//!    `at` — O(log range) probes next to `at` instead of two O(log n)
//!    searches over the whole array.
//!
//! **Why steps 2 and 3 are exact.** Codes sharing a `j`-bit prefix with the
//! path form one contiguous range of the sorted array, and that range
//! contains the path's insertion point (every member is `>=` the smallest
//! and `<=` the largest value with that prefix, and the path itself sorts
//! inside the prefix's span). Hence if *any* code shares a `j`-bit prefix
//! with the path, so does one of the two codes adjacent to the insertion
//! point, and the maximum lcp over the whole array equals the maximum over
//! `{pred, succ}`: a query at length `j` is busy iff `j <= L`, exactly the
//! responder-count criterion `count_prefix(path, j) > 0` the reference
//! reader applies over a lossless channel. And because the range contains
//! `at`, its members are precisely the matching codes met walking down from
//! `at - 1` and up from `at` before the first non-match, which is what the
//! gallop counts — duplicate codes included.
//!
//! The equivalence suite in `tests/kernel_equivalence.rs` and
//! `crates/pet-core/tests/prop.rs` pins all of this against
//! [`crate::reader::run_round`] over both oracles. The perf ledger's
//! `rounds_per_sec_kernel*` arms time [`locate_prefix_len`] plus
//! [`round_record`], i.e. steps 1–2 and the record replay without the
//! metric accounting, so they do not see the cost of step 3's counts.

use crate::bits::BitString;
use crate::config::{Mitigation, PetConfig, SearchStrategy, TagMode};
use crate::reader::RoundRecord;
use pet_hash::bulk::{hash_codes_par, radix_sort_codes, RadixScratch};
use pet_hash::family::AnyFamily;
use pet_hash::simd::{self, Lane};
use pet_phy::{AirMetrics, SlotOutcome};
use std::sync::Arc;

/// Runs one round over a lossless channel against the sorted `codes`:
/// returns the [`RoundRecord`] the reference reader produces for `path`
/// and adds the round to `metrics` bit-for-bit as
/// [`crate::reader::run_round`] records it through [`pet_phy::Air`] over a
/// [`pet_phy::channel::PerfectChannel`] — the round-start broadcast,
/// per-query command bits, outcome tallies, per-slot responder counts, and
/// the idle readings [`Mitigation::ReProbe`] repeats.
///
/// `codes` must be sorted ascending and hold `config.height()`-bit values.
pub fn fused_round(
    codes: &[u64],
    path: &BitString,
    config: &PetConfig,
    metrics: &mut AirMetrics,
) -> RoundRecord {
    let height = config.height();
    let bits = config.encoding().bits_per_query(height);
    let probes = match config.mitigation() {
        Mitigation::ReProbe { probes } => probes,
        _ => 0,
    };
    let (at, l) = locate(simd::active_lane(), codes, path);
    metrics.command_bits += u64::from(config.round_start_bits());
    replay(height, config.search(), l, probes, |j| {
        if j <= l {
            let responders = count_around(codes, at, path, j);
            metrics.record_slot(bits, responders, SlotOutcome::from_detected(responders));
        } else {
            // Perfect-channel re-probes repeat the idle reading verbatim.
            for _ in 0..=probes {
                metrics.record_slot(bits, 0, SlotOutcome::Idle);
            }
        }
    })
}

/// Longest prefix of `path` shared by any code, via one search.
///
/// Returns 0 for an empty roster (every query idles). `codes` must be
/// sorted ascending and hold `path.height()`-bit values. The search runs
/// through [`pet_hash::simd::partition_point_less`] — binary narrowing
/// plus a SIMD compare+popcount sweep over the final window — on the
/// process-wide active lane.
#[must_use]
pub fn locate_prefix_len(codes: &[u64], path: &BitString) -> u32 {
    locate_prefix_len_with(simd::active_lane(), codes, path)
}

/// [`locate_prefix_len`] with an explicit SIMD lane, for the scalar-vs-SIMD
/// benchmark arms and differential tests. Bit-for-bit lane-independent.
#[must_use]
pub fn locate_prefix_len_with(lane: Lane, codes: &[u64], path: &BitString) -> u32 {
    locate(lane, codes, path).1
}

/// Steps 1–2 of the module docs: the path's insertion point in `codes`
/// and the longest prefix any code shares with the path.
#[inline]
fn locate(lane: Lane, codes: &[u64], path: &BitString) -> (usize, u32) {
    let height = path.height();
    let bits = path.bits();
    let at = simd::partition_point_less_with(lane, codes, bits);
    let mut l = 0;
    if at < codes.len() {
        l = common_bits(codes[at], bits, height);
    }
    if at > 0 {
        l = l.max(common_bits(codes[at - 1], bits, height));
    }
    (at, l)
}

/// Number of codes sharing the first `len >= 1` bits of `path`, where `at`
/// is the path's insertion point: the matching run below `at` plus the one
/// from `at` up (exact by the module docs' range argument).
fn count_around(codes: &[u64], at: usize, path: &BitString, len: u32) -> u64 {
    debug_assert!(len >= 1);
    let shift = path.height() - len; // <= 63 since len >= 1
    let prefix = path.bits() >> shift;
    let below = gallop(at, |k| codes[at - 1 - k] >> shift == prefix);
    let above = gallop(codes.len() - at, |k| codes[at + k] >> shift == prefix);
    (below + above) as u64
}

/// Length of the run of `0..n` on which `hit` holds, given that `hit`
/// holds on a prefix of `0..n` and nowhere after it: doubling probes
/// bracket the run's end, then a binary search inside the bracket finds
/// it, so `hit` is called O(log run) times.
#[inline]
fn gallop(n: usize, hit: impl Fn(usize) -> bool) -> usize {
    let mut bound = 1;
    while bound <= n && hit(bound - 1) {
        bound *= 2;
    }
    // `hit` holds below `bound / 2` and fails at `bound - 1`, if that is
    // below `n`.
    let (mut lo, mut hi) = (bound / 2, (bound - 1).min(n));
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if hit(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Exact number of sorted codes matching the first `len` bits of `path`,
/// by range counting — the slice-level twin of
/// [`crate::oracle::CodeRoster::count_prefix`], used by the slot-accurate
/// engine path, whose oracle answers one query at a time without the
/// round's insertion point.
#[must_use]
pub fn count_prefix_sorted(codes: &[u64], path: &BitString, len: u32) -> u64 {
    if len == 0 {
        return codes.len() as u64;
    }
    let height = path.height();
    let shift = height - len; // ≤ 63 since len ≥ 1
    let lo = (path.bits() >> shift) << shift;
    let start = simd::partition_point_less(codes, lo);
    // The exclusive upper bound lo + 2^shift can overflow u64 at the top
    // of a height-64 tree; that range extends past every code.
    let end = match lo.checked_add(1u64 << shift) {
        Some(hi_excl) => simd::partition_point_less(codes, hi_excl),
        None => codes.len(),
    };
    (end - start) as u64
}

/// Length of the common prefix of two right-aligned `height`-bit values.
#[inline]
#[must_use]
fn common_bits(a: u64, b: u64, height: u32) -> u32 {
    let diff = a ^ b;
    if diff == 0 {
        height
    } else {
        // Both values fit in `height` bits, so `leading_zeros >= 64 - height`
        // and the result lands in `0..height`.
        diff.leading_zeros() - (64 - height)
    }
}

/// Synthesizes the round outcome for a known longest responsive prefix
/// `prefix_len` by the strategy replay [`fused_round`] uses. Bit-for-bit
/// identical to [`crate::reader::linear_round`] / `binary_round` over a
/// lossless channel.
#[must_use]
pub fn round_record(height: u32, search: SearchStrategy, prefix_len: u32) -> RoundRecord {
    replay(height, search, prefix_len, 0, |_| {})
}

/// Replays `search` for a round whose longest responsive prefix is `l`,
/// calling `query(j)` for each queried length `j` in the order the reader
/// sends them; a query is busy iff `j <= l`. Each idle query costs
/// `1 + probes` slots: on a perfect channel every idle reading repeats
/// `probes` times, all idle again, so the statistic is unchanged.
#[inline]
fn replay(
    height: u32,
    search: SearchStrategy,
    l: u32,
    probes: u32,
    mut query: impl FnMut(u32),
) -> RoundRecord {
    debug_assert!(l <= height);
    let mut slots = 0;
    let mut ask = |j: u32| {
        query(j);
        let busy = j <= l;
        slots += if busy { 1 } else { 1 + probes };
        busy
    };
    let mut disambiguated = false;
    match search {
        // Algorithm 1 stops at the first idle query, j = L + 1, or after
        // all H queries are busy (hearing no idle slot to re-probe).
        SearchStrategy::Linear => {
            for j in 1..=height {
                if !ask(j) {
                    break;
                }
            }
        }
        SearchStrategy::Binary => {
            let mut low = 1u32;
            let mut high = height;
            let mut any_busy = false;
            while low < high {
                let mid = (low + high).div_ceil(2);
                if ask(mid) {
                    low = mid;
                    any_busy = true;
                } else {
                    high = mid - 1;
                }
            }
            if low == 1 && !any_busy {
                // The L ∈ {0, 1} disambiguation slot of `crate::reader`.
                disambiguated = true;
                ask(1);
            } else {
                debug_assert_eq!(low, l, "binary replay must converge on L");
            }
        }
    }
    RoundRecord {
        prefix_len: l,
        gray_height: height - l,
        slots,
        disambiguated,
    }
}

// ---------------------------------------------------------------------------
// Code banks: the kernel-side replacement for per-trial oracles.
// ---------------------------------------------------------------------------

/// Sorted code storage for fast sessions.
///
/// Passive banks hold one immutable sorted array (shareable across trials
/// via [`Arc`] — see `pet-sim`'s roster cache); active banks re-hash and
/// re-sort their key set every round with the bulk primitives from
/// `pet_hash::bulk`, reusing both buffers.
#[derive(Debug, Clone)]
pub enum CodeBank {
    /// Preloaded codes (`TagMode::PassivePreloaded`): fixed for the session.
    Passive {
        /// Sorted manufacture-time codes.
        codes: Arc<Vec<u64>>,
    },
    /// Per-round codes (`TagMode::ActivePerRound`): rebuilt from keys.
    Active {
        /// Tag hashing keys.
        keys: Arc<Vec<u64>>,
        /// Current round's sorted codes (empty until the first round).
        codes: Vec<u64>,
        /// Radix-sort scratch (ping-pong buffer + per-pass digit
        /// histograms), reused across rounds so steady-state sorting
        /// performs no allocation.
        scratch: RadixScratch,
    },
}

impl CodeBank {
    /// Builds the bank matching `config.tag_mode()` for `keys`, hashing
    /// passive codes with the manufacture seed.
    #[must_use]
    pub fn for_config(keys: Arc<Vec<u64>>, config: &PetConfig, family: AnyFamily) -> Self {
        match config.tag_mode() {
            TagMode::PassivePreloaded => {
                let codes = build_passive_codes(&keys, config, family);
                Self::Passive {
                    codes: Arc::new(codes),
                }
            }
            TagMode::ActivePerRound => Self::Active {
                keys,
                codes: Vec::new(),
                scratch: RadixScratch::new(),
            },
        }
    }

    /// Wraps already-hashed, already-sorted passive codes (e.g. from a
    /// cross-trial cache).
    #[must_use]
    pub fn passive_shared(codes: Arc<Vec<u64>>) -> Self {
        debug_assert!(
            codes.windows(2).all(|w| w[0] <= w[1]),
            "codes must be sorted"
        );
        Self::Passive { codes }
    }

    /// Tags energized in the region (the zero probe's responder count).
    #[must_use]
    pub fn population(&self) -> u64 {
        match self {
            Self::Passive { codes } => codes.len() as u64,
            Self::Active { keys, .. } => keys.len() as u64,
        }
    }

    /// The sorted codes of the current round.
    ///
    /// # Panics
    ///
    /// Panics if an active bank has not begun a round yet.
    #[must_use]
    pub fn codes(&self) -> &[u64] {
        match self {
            Self::Passive { codes } => codes,
            Self::Active { keys, codes, .. } => {
                assert!(
                    keys.is_empty() || !codes.is_empty(),
                    "active bank queried before begin_round"
                );
                codes
            }
        }
    }

    /// Starts a round: active banks re-hash and re-sort under `seed`.
    pub fn begin_round(&mut self, seed: Option<u64>, family: AnyFamily, height: u32) {
        if let Self::Active {
            keys,
            codes,
            scratch,
        } = self
        {
            let seed = seed.expect("active mode requires a per-round seed");
            hash_codes_par(&family, seed, keys, height, codes);
            radix_sort_codes(codes, height, scratch);
        }
    }
}

/// Hash + sort the manufacture-time codes for a passive population.
#[must_use]
pub fn build_passive_codes(keys: &[u64], config: &PetConfig, family: AnyFamily) -> Vec<u64> {
    let mut codes = Vec::new();
    let mut scratch = RadixScratch::new();
    hash_codes_par(
        &family,
        config.manufacture_seed(),
        keys,
        config.height(),
        &mut codes,
    );
    radix_sort_codes(&mut codes, config.height(), &mut scratch);
    codes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{CodeRoster, ResponderOracle, RoundStart};
    use crate::reader::{binary_round, linear_round};
    use pet_phy::channel::PerfectChannel;
    use pet_phy::Air;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn roster_codes(keys: &[u64], config: &PetConfig) -> Vec<u64> {
        CodeRoster::new(keys, config, AnyFamily::default())
            .codes()
            .to_vec()
    }

    #[test]
    fn locate_matches_count_prefix_definition() {
        let config = PetConfig::builder().height(16).build().unwrap();
        let keys: Vec<u64> = (0..300).collect();
        let roster = CodeRoster::new(&keys, &config, AnyFamily::default());
        let codes = roster.codes().to_vec();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..500 {
            let path = BitString::random(16, &mut rng);
            let l = locate_prefix_len(&codes, &path);
            // Definitional check: busy up to L, idle beyond.
            if l > 0 {
                assert!(roster.count_prefix(&path, l) > 0, "L = {l} must be busy");
            }
            if l < 16 {
                assert_eq!(roster.count_prefix(&path, l + 1), 0, "L + 1 must idle");
            }
        }
    }

    #[test]
    fn count_prefix_sorted_matches_roster() {
        let config = PetConfig::builder().height(16).build().unwrap();
        let keys: Vec<u64> = (0..250).collect();
        let roster = CodeRoster::new(&keys, &config, AnyFamily::default());
        let codes = roster.codes().to_vec();
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..200 {
            let path = BitString::random(16, &mut rng);
            for len in 0..=16 {
                assert_eq!(
                    count_prefix_sorted(&codes, &path, len),
                    roster.count_prefix(&path, len),
                    "len {len}"
                );
            }
        }
    }

    #[test]
    fn locate_empty_roster_is_zero() {
        let path = BitString::from_bits(0b1010, 4).unwrap();
        assert_eq!(locate_prefix_len(&[], &path), 0);
    }

    #[test]
    fn locate_exact_match_is_full_height() {
        for height in [1u32, 7, 32, 64] {
            let bits = if height == 64 {
                u64::MAX
            } else {
                (1 << height) - 1
            };
            let path = BitString::from_bits(bits, height).unwrap();
            assert_eq!(locate_prefix_len(&[bits], &path), height);
        }
    }

    /// Height-64 top-of-tree edge: codes near u64::MAX must not overflow
    /// the round's responder counts (same edge count_prefix guards).
    #[test]
    fn height_64_overflow_edge() {
        let config = PetConfig::builder().height(64).build().unwrap();
        let codes = vec![u64::MAX - 3, u64::MAX - 1, u64::MAX];
        let path = BitString::from_bits(u64::MAX - 2, 64).unwrap();
        let mut metrics = AirMetrics::default();
        let rec = fused_round(&codes, &path, &config, &mut metrics);
        assert!(rec.prefix_len >= 62, "L = {}", rec.prefix_len);
        assert_eq!(
            rec,
            round_record(64, SearchStrategy::Binary, rec.prefix_len)
        );
        assert_eq!(metrics.slots, u64::from(rec.slots));
        assert!(metrics.is_consistent());
    }

    /// Small heights force duplicate codes; the gallop around the
    /// insertion point must count every copy, on both sides.
    #[test]
    fn count_around_matches_range_count_with_duplicates() {
        let mut rng = StdRng::seed_from_u64(17);
        for height in 1..=10u32 {
            let config = PetConfig::builder().height(height).build().unwrap();
            let keys: Vec<u64> = (0..300).collect();
            let codes = roster_codes(&keys, &config);
            for _ in 0..100 {
                let path = BitString::random(height, &mut rng);
                let (at, l) = locate(Lane::Scalar, &codes, &path);
                for len in 1..=l {
                    assert_eq!(
                        count_around(&codes, at, &path, len),
                        count_prefix_sorted(&codes, &path, len),
                        "H = {height}, len {len}"
                    );
                }
            }
        }
    }

    /// Every (height, L) pair replays to the same record and metrics the
    /// reference reader produces when driven by an oracle with that L.
    #[test]
    fn record_replay_matches_reader_for_all_lengths() {
        for height in 1..=64u32 {
            let config = PetConfig::builder().height(height).build().unwrap();
            let lin_config = PetConfig::builder()
                .height(height)
                .search(SearchStrategy::Linear)
                .build()
                .unwrap();
            for l in 0..=height {
                // A roster holding exactly one code equal to the first l
                // bits of the all-ones path, then a zero bit, yields L = l.
                let path_bits = if height == 64 {
                    u64::MAX
                } else {
                    (1u64 << height) - 1
                };
                let path = BitString::from_bits(path_bits, height).unwrap();
                let code = if l == height {
                    path_bits
                } else {
                    // Shares exactly l leading bits with the path.
                    path_bits & !(1u64 << (height - l - 1))
                };
                let mut roster =
                    CodeRoster::from_codes(&[BitString::from_bits(code, height).unwrap()], height);
                assert_eq!(locate_prefix_len(roster.codes(), &path), l);

                let mut rng = StdRng::seed_from_u64(0);
                roster.begin_round(&RoundStart { path, seed: None });
                for (cfg, search) in [
                    (&config, SearchStrategy::Binary),
                    (&lin_config, SearchStrategy::Linear),
                ] {
                    let mut air = Air::new(PerfectChannel);
                    air.broadcast(cfg.round_start_bits());
                    let rec = match search {
                        SearchStrategy::Binary => {
                            binary_round(cfg, &mut roster, &mut air, &mut rng)
                        }
                        SearchStrategy::Linear => {
                            linear_round(cfg, &mut roster, &mut air, &mut rng)
                        }
                    };
                    assert_eq!(rec, round_record(height, search, l));
                    let mut metrics = AirMetrics::default();
                    assert_eq!(rec, fused_round(roster.codes(), &path, cfg, &mut metrics));
                    assert_eq!(&metrics, air.metrics(), "H = {height}, L = {l}");
                }
            }
        }
    }

    #[test]
    fn metrics_match_air_for_random_rounds() {
        for (height, n) in [(8u32, 40u64), (32, 1_000), (32, 3), (4, 100)] {
            for (search, mitigation) in [
                (SearchStrategy::Binary, Mitigation::None),
                (SearchStrategy::Linear, Mitigation::ReProbe { probes: 2 }),
            ] {
                let config = PetConfig::builder()
                    .height(height)
                    .search(search)
                    .mitigation(mitigation)
                    .build()
                    .unwrap();
                let keys: Vec<u64> = (0..n).collect();
                let codes = roster_codes(&keys, &config);
                let mut roster = CodeRoster::new(&keys, &config, AnyFamily::default());
                let mut rng = StdRng::seed_from_u64(42);
                let mut air = Air::new(PerfectChannel);
                let mut fast = AirMetrics::default();
                for _ in 0..200 {
                    let path = BitString::random(height, &mut rng);
                    roster.begin_round(&RoundStart { path, seed: None });
                    air.broadcast(config.round_start_bits());
                    let rec = match search {
                        SearchStrategy::Binary => {
                            binary_round(&config, &mut roster, &mut air, &mut rng)
                        }
                        SearchStrategy::Linear => {
                            linear_round(&config, &mut roster, &mut air, &mut rng)
                        }
                    };
                    assert_eq!(rec, fused_round(&codes, &path, &config, &mut fast));
                }
                assert_eq!(&fast, air.metrics(), "H = {height}, n = {n}, {search:?}");
            }
        }
    }

    #[test]
    fn active_bank_matches_roster_rebuild() {
        let config = PetConfig::builder()
            .height(32)
            .tag_mode(TagMode::ActivePerRound)
            .build()
            .unwrap();
        let keys: Vec<u64> = (0..2_000).collect();
        let mut roster = CodeRoster::new(&keys, &config, AnyFamily::default());
        let mut bank = CodeBank::for_config(Arc::new(keys), &config, AnyFamily::default());
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..5 {
            let path = BitString::random(32, &mut rng);
            let seed = Some(rng.random::<u64>());
            roster.begin_round(&RoundStart { path, seed });
            bank.begin_round(seed, AnyFamily::default(), 32);
            assert_eq!(bank.codes(), roster.codes());
        }
    }

    #[test]
    fn passive_bank_matches_roster_codes() {
        let config = PetConfig::builder().height(32).build().unwrap();
        let keys: Vec<u64> = (0..5_000).collect();
        let bank = CodeBank::for_config(Arc::new(keys.clone()), &config, AnyFamily::default());
        assert_eq!(bank.codes(), roster_codes(&keys, &config));
        assert_eq!(bank.population(), 5_000);
    }
}
