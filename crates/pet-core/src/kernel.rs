//! Batched estimation kernel: one search per round.
//!
//! The reference reader ([`crate::reader`]) locates the gray node by
//! querying the oracle slot by slot; with the [`crate::oracle::CodeRoster`]
//! oracle each of the ~5 queries costs two `partition_point` searches over
//! the sorted code array — ten searches per round. [`fused_round`] computes
//! the same round, and its full [`AirMetrics`] accounting, from the sorted
//! codes with a **single** search:
//!
//! 1. Find the estimating path's insertion point `at` in the sorted array.
//! 2. The longest responsive prefix is `L = max(lcp(path, pred),
//!    lcp(path, succ))`, computed with one `XOR` + `leading_zeros` per
//!    neighbor of `at`.
//! 3. Look up the round's plan for `L`. Given `L`, a query of length `j`
//!    is busy iff `j <= L`, so the slot count, the disambiguation flag,
//!    the final prefix length (the [`RoundRecord`]), which lengths are
//!    busy and how many idle slots the reader hears are all fixed by `L`.
//!    [`RoundPlans`] replays the configured search once per `L = 0..=H` at
//!    the start of a run and keeps three things per `L`: the record, the
//!    busy lengths and the idle-slot count. A round adds its plan's sums to
//!    the [`AirMetrics`] plus one responder count per busy query (an idle
//!    query has zero responders by definition of `L`). Without an index, a
//!    busy query's responders are the run of codes sharing its prefix on
//!    either side of `at`, found by galloping outward from `at` — O(log
//!    range) probes next to `at` instead of two O(log n) searches over the
//!    whole array.
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
//! gallop counts — duplicate codes included. The plan is a pure function of
//! `(H, strategy, re-probes, L)`: the search asks each length at most once,
//! so the busy lengths fit a 64-bit mask.
//!
//! # The prefix index: the tree's top levels as an offset table
//!
//! Every round of a passive bank walks the same tree (§4.1), so its top
//! `k` levels can be stored once. A [`PrefixIndex`] is the offset table
//! `offsets[p]` = the number of codes whose top `k` bits are below `p`,
//! with `k = ⌊log₂ n⌋` clamped to 4..=20 (and to the codes' bit width), so
//! `offsets[p + 1] − offsets[p]` is the number of tags under tree node `p`
//! at depth `k`. With it, step 1 is one table load plus a search inside the
//! path's bucket `b` of about one code, and step 3 counts a busy query's
//! responders from that bucket:
//!
//! - at the table's depth, `j = k`, the count is `offsets[b + 1] −
//!   offsets[b]`;
//! - above it, `j < k`, two loads, `offsets[(p_j + 1) << (k − j)] −
//!   offsets[p_j << (k − j)]` for the path's `j`-bit prefix `p_j`;
//! - below it, `j > k`, every matching code lies in the bucket, so two
//!   searches inside the bucket count them, at a cost bounded by the
//!   bucket's size rather than by the run's.
//!
//! All three are exact: a `j`-bit prefix with `j <= k` spans whole buckets,
//! one with `j > k` lies inside one, and the codes below the path's bucket
//! all sort before the path and those above it all after. A [`CodeBank`]
//! builds its index lazily, in the first run long enough to repay the
//! build, and shares it with every clone, so a cached bank pays for it
//! once.
//!
//! # The round memo: a white node fixes its whole round
//!
//! By §4.1's colouring, a node at depth `D` with no code under it is
//! white, and the gray node then lies above it: `L < D`. Such a round is
//! fixed by the path's first `D` bits. Any path through the same node
//! shares with each code exactly the prefix this one does, since every
//! common prefix is shorter than `D`. So it has the same `L`, the same
//! queries and the same responders at every busy length. A passive bank
//! keeps a [`RoundMemo`] beside its index: one `AtomicU32` per node at
//! depth `D = k + 2`, counted below the largest code's top bit as the
//! index counts its levels and clamped to the codes' width, with zero
//! meaning unknown.
//!
//! - *Fill.* A round whose `L` is below `D`, run through [`fused_round`]
//!   as any other, stores one word with one relaxed store: `L + 1` in its
//!   low 7 bits, its singleton count in the next 7 and its responder total
//!   in the top 18. A round that reaches `D`, one whose counts do not fit,
//!   and a path past the table store nothing. Every fill of a node stores
//!   the same word, so concurrent runs need no lock.
//! - *Hit.* A later round through the node adds its plan's sums for `L`,
//!   the stored singletons and responders, and `busy(L) − singletons`
//!   collisions, then returns the plan's record: bit for bit what the miss
//!   computed.
//! - *Key.* Which lengths are busy, and so the responder counts, depend on
//!   the tree height and the search strategy. A memo therefore serves only
//!   the height and strategy of the run that built it, and a run with
//!   another neither reads nor fills it. Re-probes and the command
//!   encoding change only plan sums, and trimming only the aggregation, so
//!   runs that differ in those share it.
//! - *Depth.* Over the server's cached 10⁴-tag bank (`k = 13`), the share
//!   of white nodes is 0.29, 0.54, 0.74 and 0.86 at `k`, `k + 1`, `k + 2`
//!   and `k + 3`. `k + 2` is the deepest level whose table, `4·2^(k+2)`
//!   bytes, stays within `16·n` bytes from `n = 16` on: twice the codes.
//! - *Lifetime.* A bank's second indexed run allocates the memo, zeroed,
//!   and the rounds that run anyway fill it; the first builds the index
//!   alone, so a bank that runs once pays for no memo it would never read.
//!   Clones and cache hits share it, and a key delta drops it with the
//!   index.
//!
//! # Editing a bank by its churn
//!
//! A monitored population changes by a few tags between estimates, and
//! [`CodeBank::apply_key_delta`] edits a passive bank by that delta alone.
//! It hashes and radix-sorts only the changed keys, then gallops through
//! the sorted codes from one changed code to the next, the search a busy
//! query uses to count its responders. The untouched runs between changed
//! codes move as whole blocks: down in one compaction pass for the leaving
//! codes, up in one expansion pass for the joining ones. Codes below the
//! first change never move.
//!
//! The equivalence suite in `tests/kernel_equivalence.rs` and
//! `crates/pet-core/tests/prop.rs` pins all of this, with and without the
//! index, against [`crate::reader::run_round`] over both oracles. The perf
//! ledger's `rounds_per_sec_kernel*` arms and the `round_location/kernel`
//! bench group time whole runs through
//! [`crate::front::Estimator::try_run_bank`].

use crate::bits::BitString;
use crate::config::{Mitigation, PetConfig, SearchStrategy, TagMode};
use crate::reader::RoundRecord;
use pet_hash::bulk::{hash_codes_par, radix_sort_codes, RadixScratch};
use pet_hash::family::AnyFamily;
use pet_phy::AirMetrics;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{self, AtomicU32};
use std::sync::{Arc, OnceLock};

/// Runs one round over a lossless channel against the sorted `codes`:
/// returns the [`RoundRecord`] the reference reader produces for `path`
/// and adds the round to `metrics` bit-for-bit as
/// [`crate::reader::run_round`] records it through [`pet_phy::Air`] over a
/// [`pet_phy::channel::PerfectChannel`] — the round-start broadcast,
/// per-query command bits, outcome tallies, per-slot responder counts, and
/// the idle readings [`Mitigation::ReProbe`] repeats.
///
/// `codes` must be sorted ascending and hold `path.height()`-bit values;
/// `index`, when given, must have been built over `codes`, and `plans`
/// from the run's config. The result does not depend on whether an index
/// is given, only the cost does.
pub fn fused_round(
    codes: &[u64],
    index: Option<&PrefixIndex>,
    path: &BitString,
    plans: &RoundPlans,
    metrics: &mut AirMetrics,
) -> RoundRecord {
    debug_assert!(index.map_or(true, |index| index.population() == codes.len()));
    debug_assert_eq!(path.height(), plans.height());
    match index {
        None => {
            let (at, l) = locate(codes, path);
            plans.apply(l, metrics, |j| count_around(codes, at, path, j))
        }
        Some(index) => {
            let bucket = index.bucket(path.bits());
            let lo = bucket.start;
            let bucket = &codes[bucket];
            let at = lo + bucket.partition_point(|&c| c < path.bits());
            let l = longest_prefix(codes, at, path);
            plans.apply(l, metrics, |j| index.count_prefix(bucket, path, j))
        }
    }
}

/// Steps 1–2 of the module docs without an index: the path's insertion
/// point in `codes` and the longest prefix any code shares with the path
/// (0 for an empty roster, where every query idles).
#[inline]
fn locate(codes: &[u64], path: &BitString) -> (usize, u32) {
    let at = codes.partition_point(|&c| c < path.bits());
    (at, longest_prefix(codes, at, path))
}

/// Step 2 of the module docs: the longest prefix of `path` shared by the
/// codes on either side of its insertion point `at`.
#[inline]
fn longest_prefix(codes: &[u64], at: usize, path: &BitString) -> u32 {
    let (height, bits) = (path.height(), path.bits());
    let mut l = 0;
    if at < codes.len() {
        l = common_bits(codes[at], bits, height);
    }
    if at > 0 {
        l = l.max(common_bits(codes[at - 1], bits, height));
    }
    l
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

/// The part of a lossless round that its gray-node depth `L` fixes.
#[derive(Debug, Clone, Copy)]
struct RoundPlan {
    record: RoundRecord,
    /// Bit `j − 1` is set iff the search queries length `j` and `j <= L`.
    busy: u64,
    /// Idle slots heard, re-probes included.
    idle: u32,
}

/// A run's round plans: for each gray-node depth `L = 0..=H`, the
/// [`RoundRecord`], the busy query lengths and the idle-slot count, from
/// one replay of the configured search (step 3 of the module docs).
/// Built once per run, so a round replays no search of its own.
#[derive(Debug, Clone)]
pub struct RoundPlans {
    /// One plan per `L`, indexed by `L`.
    plans: Box<[RoundPlan]>,
    /// The strategy replayed, part of a [`RoundMemo`]'s key.
    search: SearchStrategy,
    bits_per_query: u32,
    round_start_bits: u32,
}

impl RoundPlans {
    /// Replays `config`'s search strategy once for each `L = 0..=H`, with
    /// the idle re-probes its mitigation adds over a lossless channel.
    #[must_use]
    pub fn new(config: &PetConfig) -> Self {
        let height = config.height();
        let probes = match config.mitigation() {
            Mitigation::ReProbe { probes } => probes,
            _ => 0,
        };
        let plans = (0..=height)
            .map(|l| {
                let (mut busy, mut idle) = (0u64, 0);
                let record = replay(height, config.search(), l, probes, |j| {
                    if j <= l {
                        busy |= 1 << (j - 1);
                    } else {
                        // Perfect-channel re-probes repeat the idle reading.
                        idle += 1 + probes;
                    }
                });
                RoundPlan { record, busy, idle }
            })
            .collect();
        Self {
            plans,
            search: config.search(),
            bits_per_query: config.encoding().bits_per_query(height),
            round_start_bits: config.round_start_bits(),
        }
    }

    /// The record of a round whose longest responsive prefix is
    /// `prefix_len`.
    ///
    /// # Panics
    ///
    /// Panics if `prefix_len` exceeds the tree height.
    #[must_use]
    pub fn record(&self, prefix_len: u32) -> RoundRecord {
        self.plans[prefix_len as usize].record
    }

    /// Tree height the plans were built for.
    fn height(&self) -> u32 {
        (self.plans.len() - 1) as u32
    }

    /// Adds the round of depth `l` to `metrics` — its plan's sums plus
    /// `responders(j)` for each busy query length `j` — and returns its
    /// record.
    #[inline]
    fn apply(
        &self,
        l: u32,
        metrics: &mut AirMetrics,
        mut responders: impl FnMut(u32) -> u64,
    ) -> RoundRecord {
        let plan = self.add_sums(l, metrics);
        let mut busy = plan.busy;
        while busy != 0 {
            let count = responders(busy.trailing_zeros() + 1);
            debug_assert!(count > 0, "a busy query has a responder");
            busy &= busy - 1;
            metrics.tag_responses += count;
            if count == 1 {
                metrics.singleton += 1;
            } else {
                metrics.collision += 1;
            }
        }
        plan.record
    }

    /// Adds a memoized round of depth `l` (see [`RoundMemo`]) to `metrics`
    /// — its plan's sums, `singletons` and `responders`, and the rest of
    /// its busy queries as collisions — and returns its record.
    #[inline]
    fn apply_known(
        &self,
        l: u32,
        singletons: u64,
        responders: u64,
        metrics: &mut AirMetrics,
    ) -> RoundRecord {
        let plan = self.add_sums(l, metrics);
        metrics.tag_responses += responders;
        metrics.singleton += singletons;
        metrics.collision += u64::from(plan.busy.count_ones()) - singletons;
        plan.record
    }

    /// Adds the sums the plan of depth `l` fixes to `metrics` — slots,
    /// command bits and idle slots — and returns the plan.
    #[inline]
    fn add_sums(&self, l: u32, metrics: &mut AirMetrics) -> &RoundPlan {
        let plan = &self.plans[l as usize];
        let slots = u64::from(plan.record.slots);
        metrics.slots += slots;
        metrics.command_bits +=
            u64::from(self.round_start_bits) + slots * u64::from(self.bits_per_query);
        metrics.idle += u64::from(plan.idle);
        plan
    }
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
    let start = codes.partition_point(|&c| c < lo);
    // The exclusive upper bound lo + 2^shift can overflow u64 at the top
    // of a height-64 tree; that range extends past every code.
    let end = match lo.checked_add(1u64 << shift) {
        Some(hi_excl) => codes.partition_point(|&c| c < hi_excl),
        None => codes.len(),
    };
    (end - start) as u64
}

/// Fewest tree levels a [`PrefixIndex`] stores.
const MIN_INDEX_LEVELS: u32 = 4;
/// Most tree levels a [`PrefixIndex`] stores: 2²⁰ + 1 offsets, 4 MiB.
const MAX_INDEX_LEVELS: u32 = 20;

/// A run of `rounds` builds a bank's index when `rounds ·
/// INDEX_CODES_PER_ROUND >= n`. Measured on a 2-vCPU AVX2 host at n =
/// 10⁴–10⁶, the build costs 1.1–2.4 ns per code and an indexed round
/// saves 90–135 ns at 10⁴, 150–190 ns at 10⁵ and 730–810 ns at 10⁶, so
/// one round repays the build of 62–400 codes. 32 is about half the
/// smallest of those, so even the shortest run the rule admits earns its
/// build back about twice over (EXPERIMENTS.md § Where an estimate-paper
/// request's time goes).
const INDEX_CODES_PER_ROUND: u64 = 32;

/// The top `k` levels of the PET tree over a sorted code array, stored as
/// an offset table: `offsets[p]` is the number of codes whose top `k`
/// bits are below `p`, so `offsets[p + 1] − offsets[p]` tags sit under
/// tree node `p` at depth `k` (see the module docs).
///
/// The codes' top bits are taken below their largest value's highest set
/// bit, since a bank's codes do not carry their tree height: for codes
/// that all fall below `2^(H−1)` the table starts deeper than the root,
/// and a path above every code lands past the table, at `n`. The table
/// holds `2^k + 1` `u32`s, at most `4·(n + 1)` bytes once `n >= 16`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixIndex {
    /// Right shift from a code to its bucket: the codes' bit width minus
    /// `k`.
    shift: u32,
    /// `2^k + 1` cumulative bucket counts, from 0 up to `n`.
    offsets: Box<[u32]>,
}

impl PrefixIndex {
    /// Builds the table over sorted `codes` as a histogram of their top
    /// `k` bits followed by a prefix sum, without data-dependent branches.
    ///
    /// # Panics
    ///
    /// Panics if there are more than `u32::MAX` codes.
    #[must_use]
    pub fn build(codes: &[u64]) -> Self {
        assert!(
            u32::try_from(codes.len()).is_ok(),
            "a prefix index counts at most u32::MAX codes"
        );
        let width = codes
            .last()
            .map_or(0, |&max| u64::BITS - max.leading_zeros());
        let levels = codes
            .len()
            .max(1)
            .ilog2()
            .clamp(MIN_INDEX_LEVELS, MAX_INDEX_LEVELS)
            .min(width);
        let shift = width - levels; // < 64: levels >= 4 whenever width = 64
        let mut offsets = vec![0u32; (1 << levels) + 1];
        for &code in codes {
            offsets[(code >> shift) as usize + 1] += 1;
        }
        let mut below = 0;
        for offset in &mut offsets {
            below += *offset;
            *offset = below;
        }
        Self {
            shift,
            offsets: offsets.into_boxed_slice(),
        }
    }

    /// The offset table: `2^k + 1` cumulative counts.
    #[must_use]
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Number of codes the table was built over.
    #[must_use]
    pub(crate) fn population(&self) -> usize {
        self.offsets[self.offsets.len() - 1] as usize
    }

    /// The range of the sorted codes in `value`'s bucket, from one table
    /// load: every code in an earlier bucket is below `value` and every
    /// code in a later one above it. A value past the table sorts after
    /// every code, so its bucket is the empty range at `n`.
    #[inline]
    fn bucket(&self, value: u64) -> Range<usize> {
        let bucket = value >> self.shift;
        if bucket >= (self.offsets.len() - 1) as u64 {
            let n = self.population();
            return n..n;
        }
        let bucket = bucket as usize;
        self.offsets[bucket] as usize..self.offsets[bucket + 1] as usize
    }

    /// Number of codes sharing the first `len >= 1` bits of `path`, given
    /// the codes of the path's bucket (see [`Self::bucket`]).
    ///
    /// The table resolves the first `depth = height − shift` bits of a
    /// path (exactly `k` when the codes reach the tree's top level):
    ///
    /// - for `len < depth` the prefix's value range `[p·2^(H−len),
    ///   (p+1)·2^(H−len))` spans whole buckets `[p << t, (p + 1) << t)`
    ///   with `t = depth − len`, and the count is the difference of their
    ///   offsets;
    /// - for `len = depth` the prefix is the bucket;
    /// - for `len > depth` every code with the prefix lies in the bucket,
    ///   so two searches inside it find them, O(log) in the bucket's size.
    #[inline]
    fn count_prefix(&self, bucket: &[u64], path: &BitString, len: u32) -> u64 {
        debug_assert!(len >= 1 && self.shift <= path.height());
        let depth = path.height() - self.shift;
        match len.cmp(&depth) {
            Ordering::Less => {
                let t = depth - len;
                // The path's `len`-bit prefix, then its first bucket: below
                // 2^depth, so the shift loses no bits.
                let lo = (path.bits() >> (path.height() - len)) << t;
                // `(prefix + 1) << t` is 2^64 for a prefix of ones when the
                // table resolves all 64 bits of a height-64 path;
                // saturating sends it, like any bucket past the table, to
                // the count of every code.
                let hi = lo.saturating_add(1 << t);
                u64::from(self.below(hi) - self.below(lo))
            }
            Ordering::Equal => bucket.len() as u64,
            Ordering::Greater => {
                let shift = path.height() - len; // <= 63 since len >= 1
                let prefix = path.bits() >> shift;
                let start = bucket.partition_point(|&c| c >> shift < prefix);
                bucket[start..].partition_point(|&c| c >> shift == prefix) as u64
            }
        }
    }

    /// Number of codes in buckets below `bucket`.
    #[inline]
    fn below(&self, bucket: u64) -> u32 {
        let last = self.offsets.len() - 1;
        self.offsets[usize::try_from(bucket).map_or(last, |bucket| bucket.min(last))]
    }
}

/// Tree levels a [`RoundMemo`] keys on below its bank's [`PrefixIndex`].
const MEMO_EXTRA_LEVELS: u32 = 2;
/// Width of a memo word's `L + 1` field and of its singleton field; the
/// responder total takes the remaining 18 bits.
const MEMO_FIELD_BITS: u32 = 7;
/// Largest responder total a memo word holds.
const MEMO_MAX_RESPONDERS: u64 = (1 << (u32::BITS - 2 * MEMO_FIELD_BITS)) - 1;

/// A passive bank's round memo: one packed round per tree node at depth
/// `k + 2`, counted as its bank's [`PrefixIndex`] counts levels, filled by
/// the rounds whose gray node lies above their node and read by the later
/// rounds through it (see the module docs).
#[derive(Debug)]
pub struct RoundMemo {
    /// Tree height of the runs the memo serves.
    height: u32,
    /// Search strategy of the runs the memo serves.
    search: SearchStrategy,
    /// Right shift from a path to its node: the index's, two levels
    /// deeper, and 0 where that passes the codes' width.
    shift: u32,
    /// Each node's round as `L + 1 | singletons << 7 | responders << 14`,
    /// or 0 while unknown.
    words: Box<[AtomicU32]>,
}

impl RoundMemo {
    /// An empty memo two levels below `index` (fewer where the codes'
    /// width ends first), serving the height and strategy of `plans`.
    fn new(index: &PrefixIndex, plans: &RoundPlans) -> Self {
        let shift = index.shift.saturating_sub(MEMO_EXTRA_LEVELS);
        let nodes = (index.offsets.len() - 1) << (index.shift - shift);
        Self {
            height: plans.height(),
            search: plans.search,
            shift,
            words: std::iter::repeat_with(AtomicU32::default)
                .take(nodes)
                .collect(),
        }
    }

    /// Number of tree nodes the memo has a word for.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.words.len()
    }

    /// Number of nodes whose round is known.
    #[must_use]
    pub fn known(&self) -> usize {
        self.words
            .iter()
            .filter(|word| word.load(atomic::Ordering::Relaxed) != 0)
            .count()
    }

    /// Whether runs of `plans`' height and strategy may read and fill the
    /// memo.
    #[inline]
    fn serves(&self, plans: &RoundPlans) -> bool {
        self.height == plans.height() && self.search == plans.search
    }

    /// One lossless round over `codes` and their `index`: the stored round
    /// when the path's node is known, else [`fused_round`], whose outcome
    /// is stored when its gray node lies above the path's node and its
    /// counts fit a word.
    #[inline]
    fn round(
        &self,
        codes: &[u64],
        index: &PrefixIndex,
        path: &BitString,
        plans: &RoundPlans,
        metrics: &mut AirMetrics,
    ) -> RoundRecord {
        debug_assert!(self.serves(plans));
        let node = usize::try_from(path.bits() >> self.shift).ok();
        let Some(word) = node.and_then(|node| self.words.get(node)) else {
            return fused_round(codes, Some(index), path, plans, metrics);
        };
        let known = word.load(atomic::Ordering::Relaxed);
        let field = (1 << MEMO_FIELD_BITS) - 1;
        if known != 0 {
            let singletons = (known >> MEMO_FIELD_BITS) & field;
            let responders = known >> (2 * MEMO_FIELD_BITS);
            return plans.apply_known(
                (known & field) - 1,
                singletons.into(),
                responders.into(),
                metrics,
            );
        }
        let (singletons, responders) = (metrics.singleton, metrics.tag_responses);
        let record = fused_round(codes, Some(index), path, plans, metrics);
        let (singletons, responders) = (
            metrics.singleton - singletons,
            metrics.tag_responses - responders,
        );
        // The node's depth is the height less the shift; `L + 1` and the
        // singletons, one per busy query at most, are then both <= 64.
        if record.prefix_len < self.height - self.shift && responders <= MEMO_MAX_RESPONDERS {
            debug_assert!(singletons <= field.into());
            let packed = (record.prefix_len + 1)
                | (singletons as u32) << MEMO_FIELD_BITS
                | (responders as u32) << (2 * MEMO_FIELD_BITS);
            word.store(packed, atomic::Ordering::Relaxed);
        }
        record
    }
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
/// `prefix_len` by the strategy replay [`RoundPlans`] uses. Bit-for-bit
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
/// Passive banks hold one sorted array and its lazily built
/// [`PrefixIndex`] and [`RoundMemo`], all shareable across trials via
/// [`Arc`] — see `pet-sim`'s roster cache — and editable in place by a
/// churn delta ([`CodeBank::apply_key_delta`]); active banks re-hash and
/// re-sort their key set every round with the bulk primitives from
/// `pet_hash::bulk`, reusing both buffers.
#[derive(Debug, Clone)]
pub enum CodeBank {
    /// Preloaded codes (`TagMode::PassivePreloaded`): fixed for the session.
    Passive(PassiveCodes),
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

/// A passive bank's sorted manufacture-time codes and the prefix index and
/// round memo built over them, each shared by every clone of the bank. The
/// fields are private so that the index and the memo can only ever
/// describe these codes.
#[derive(Debug, Clone)]
pub struct PassiveCodes {
    codes: Arc<Vec<u64>>,
    /// Built by the first run that repays it (`CodeBank::prepare_run`).
    index: Arc<OnceLock<Indexed>>,
}

/// A passive bank's prefix index and the round memo beside it.
#[derive(Debug)]
struct Indexed {
    index: PrefixIndex,
    /// Built by the second run that repays the index.
    memo: OnceLock<RoundMemo>,
}

impl CodeBank {
    /// Builds the bank matching `config.tag_mode()` for `keys`, hashing
    /// passive codes with the manufacture seed.
    #[must_use]
    pub fn for_config(keys: Arc<Vec<u64>>, config: &PetConfig, family: AnyFamily) -> Self {
        match config.tag_mode() {
            TagMode::PassivePreloaded => {
                Self::passive_shared(Arc::new(build_passive_codes(&keys, config, family)))
            }
            TagMode::ActivePerRound => Self::Active {
                keys,
                codes: Vec::new(),
                scratch: RadixScratch::new(),
            },
        }
    }

    /// Wraps already-hashed, already-sorted passive codes (e.g. from a
    /// cross-trial cache) in a bank with no prefix index yet.
    #[must_use]
    pub fn passive_shared(codes: Arc<Vec<u64>>) -> Self {
        debug_assert!(
            codes.windows(2).all(|w| w[0] <= w[1]),
            "codes must be sorted"
        );
        Self::Passive(PassiveCodes {
            codes,
            index: Arc::default(),
        })
    }

    /// Tags energized in the region (the zero probe's responder count).
    #[must_use]
    pub fn population(&self) -> u64 {
        match self {
            Self::Passive(passive) => passive.codes.len() as u64,
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
            Self::Passive(passive) => &passive.codes,
            Self::Active { keys, codes, .. } => {
                assert!(
                    keys.is_empty() || !codes.is_empty(),
                    "active bank queried before begin_round"
                );
                codes
            }
        }
    }

    /// The passive codes' prefix index, if a run has built it.
    #[must_use]
    pub fn prefix_index(&self) -> Option<&PrefixIndex> {
        self.indexed().map(|indexed| &indexed.index)
    }

    /// The passive codes' round memo, if a second indexed run has built
    /// it.
    #[must_use]
    pub fn round_memo(&self) -> Option<&RoundMemo> {
        self.indexed().and_then(|indexed| indexed.memo.get())
    }

    fn indexed(&self) -> Option<&Indexed> {
        match self {
            Self::Passive(passive) => passive.index.get(),
            Self::Active { .. } => None,
        }
    }

    /// Readies a passive bank for a run of `rounds` lossless rounds under
    /// `plans`, when the run repays an index, `rounds · 32 >= n` (see
    /// `INDEX_CODES_PER_ROUND`): the first such run builds the prefix
    /// index, and the second an empty round memo beside it serving
    /// `plans`' height and strategy, so a bank that runs once pays for no
    /// memo. Short runs, such as a monitor update's 32 rounds over more
    /// than 1,024 tags, build neither; active banks, whose codes change
    /// every round, have none.
    pub fn prepare_run(&self, rounds: u32, plans: &RoundPlans) {
        if let Self::Passive(PassiveCodes { codes, index }) = self {
            let repaid = u64::from(rounds) * INDEX_CODES_PER_ROUND >= codes.len() as u64;
            if repaid && u32::try_from(codes.len()).is_ok() {
                let mut first = false;
                let indexed = index.get_or_init(|| {
                    first = true;
                    Indexed {
                        index: PrefixIndex::build(codes),
                        memo: OnceLock::new(),
                    }
                });
                if !first {
                    indexed
                        .memo
                        .get_or_init(|| RoundMemo::new(&indexed.index, plans));
                }
            }
        }
    }

    /// Runs one lossless round over the current codes, as [`fused_round`]
    /// with the bank's prefix index, if built: through the bank's round
    /// memo when it serves `plans`' height and strategy.
    pub fn lossless_round(
        &self,
        path: &BitString,
        plans: &RoundPlans,
        metrics: &mut AirMetrics,
    ) -> RoundRecord {
        let codes = self.codes();
        match self.indexed() {
            Some(Indexed { index, memo }) => match memo.get() {
                Some(memo) if memo.serves(plans) => memo.round(codes, index, path, plans, metrics),
                _ => fused_round(codes, Some(index), path, plans, metrics),
            },
            None => fused_round(codes, None, path, plans, metrics),
        }
    }

    /// Applies one update's net key change in place: the `left` keys leave
    /// the bank and the `joined` keys enter it.
    ///
    /// A passive bank hashes only the changed keys under `config`'s
    /// manufacture seed and radix-sorts them. It then takes `left`'s codes
    /// out of its sorted codes in one compaction pass and puts `joined`'s
    /// in with one expansion pass. Each pass gallops from one changed code
    /// to the next, as a round counts its responders, and moves the
    /// untouched run between them as one block, so an update costs its
    /// delta plus one block move per side rather than a walk over every
    /// code. A passive code is a pure function of (key, manufacture seed,
    /// family, height), so the result is bit for bit the bank
    /// [`Self::for_config`] builds from the new key set. The codes are
    /// edited through [`Arc::make_mut`], so clones sharing them keep
    /// theirs, and a change drops the prefix index and the round memo,
    /// which only ever describe the codes beside them; the next run that
    /// repays a table builds fresh ones. An active bank edits its key
    /// multiset: it re-hashes every round anyway.
    ///
    /// # Panics
    ///
    /// Panics if `left` holds a key the bank does not (a passive bank,
    /// which keeps no keys, notices when no code of its matches the key's).
    pub fn apply_key_delta(
        &mut self,
        left: &[u64],
        joined: &[u64],
        config: &PetConfig,
        family: AnyFamily,
    ) {
        if left.is_empty() && joined.is_empty() {
            return;
        }
        match self {
            Self::Passive(passive) => {
                let (seed, height) = (config.manufacture_seed(), config.height());
                let (mut changed, mut scratch) = (Vec::new(), RadixScratch::new());
                let codes = Arc::make_mut(&mut passive.codes);
                let edit_out = compact_out as fn(&mut Vec<u64>, &[u64]);
                for (keys, edit) in [(left, edit_out), (joined, expand_in)] {
                    hash_codes_par(&family, seed, keys, height, &mut changed);
                    radix_sort_codes(&mut changed, height, &mut scratch);
                    edit(codes, &changed);
                }
                passive.index = Arc::default();
            }
            Self::Active { keys, .. } => {
                let keys = Arc::make_mut(keys);
                remove_keys(keys, left);
                keys.extend_from_slice(joined);
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

/// Removes the sorted multiset `gone` from the sorted `codes` in one
/// front-to-back compaction: each gone code is found by galloping from
/// the one before it, and the untouched run between two gone codes moves
/// down as one block. Codes before the first gone code never move.
fn compact_out(codes: &mut Vec<u64>, gone: &[u64]) {
    // `codes[..kept]` is final; `codes[read..]` is not yet visited.
    let (mut kept, mut read) = (0, 0);
    for &code in gone {
        let at = read + gallop(codes.len() - read, |k| codes[read + k] < code);
        assert!(
            codes.get(at) == Some(&code),
            "left holds a key the bank does not"
        );
        // Until a code is gone, the run is already in place.
        if kept < read {
            codes.copy_within(read..at, kept);
        }
        kept += at - read;
        read = at + 1;
    }
    if kept < read {
        codes.copy_within(read.., kept);
    }
    codes.truncate(codes.len() - gone.len());
}

/// Inserts the sorted `added` into the sorted `codes` in one back-to-front
/// expansion: each added code's place is found by galloping down from the
/// one after it, and the untouched run above it moves up as one block.
/// Codes below the smallest added code never move.
fn expand_in(codes: &mut Vec<u64>, added: &[u64]) {
    // `codes[..rest]` is not yet visited; `codes[end..]` is final.
    let mut rest = codes.len();
    codes.resize(rest + added.len(), 0);
    let mut end = codes.len();
    for &code in added.iter().rev() {
        let above = gallop(rest, |k| codes[rest - 1 - k] > code);
        codes.copy_within(rest - above..rest, end - above);
        rest -= above;
        end -= above + 1;
        codes[end] = code;
    }
}

/// Removes the multiset `left` from the unordered `keys`, keeping the
/// order of the rest.
fn remove_keys(keys: &mut Vec<u64>, left: &[u64]) {
    let mut pending: HashMap<u64, usize> = HashMap::with_capacity(left.len());
    for &key in left {
        *pending.entry(key).or_default() += 1;
    }
    let before = keys.len();
    keys.retain(|key| match pending.get_mut(key) {
        Some(count) if *count > 0 => {
            *count -= 1;
            false
        }
        _ => true,
    });
    assert_eq!(
        before - keys.len(),
        left.len(),
        "left holds a key the bank does not"
    );
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
            let l = locate(&codes, &path).1;
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
        assert_eq!(locate(&[], &path), (0, 0));
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
            assert_eq!(locate(&[bits], &path), (0, height));
        }
    }

    /// Height-64 top-of-tree edge: codes near u64::MAX must not overflow
    /// the round's responder counts (same edge count_prefix guards).
    #[test]
    fn height_64_overflow_edge() {
        let config = PetConfig::builder().height(64).build().unwrap();
        let codes = vec![u64::MAX - 3, u64::MAX - 1, u64::MAX];
        let path = BitString::from_bits(u64::MAX - 2, 64).unwrap();
        let plans = RoundPlans::new(&config);
        let mut metrics = AirMetrics::default();
        let rec = fused_round(&codes, None, &path, &plans, &mut metrics);
        assert!(rec.prefix_len >= 62, "L = {}", rec.prefix_len);
        assert_eq!(
            rec,
            round_record(64, SearchStrategy::Binary, rec.prefix_len)
        );
        assert_eq!(metrics.slots, u64::from(rec.slots));
        assert!(metrics.is_consistent());
        let index = PrefixIndex::build(&codes);
        let mut indexed = AirMetrics::default();
        assert_eq!(
            rec,
            fused_round(&codes, Some(&index), &path, &plans, &mut indexed)
        );
        assert_eq!(indexed, metrics);
    }

    /// `offsets[p]` counts the codes whose top `k` bits are below `p`,
    /// with the top bits taken below the largest code's highest set bit.
    #[test]
    fn prefix_index_matches_its_definition() {
        let mut rng = StdRng::seed_from_u64(19);
        for (n, bits) in [
            (0usize, 8u32),
            (1, 8),
            (5, 3),
            (15, 40),
            (16, 40),
            (3_000, 32),
        ] {
            let mut codes: Vec<u64> = (0..n).map(|_| rng.random::<u64>() >> (64 - bits)).collect();
            codes.sort_unstable();
            let index = PrefixIndex::build(&codes);
            let width = codes.last().map_or(0, |&max| 64 - max.leading_zeros());
            let levels = n.max(1).ilog2().clamp(4, 20).min(width);
            assert_eq!(index.offsets().len(), (1 << levels) + 1, "n = {n}");
            assert_eq!(index.population(), n);
            for (p, &offset) in index.offsets().iter().enumerate() {
                let below = codes.iter().filter(|&&c| c >> (width - levels) < p as u64);
                assert_eq!(offset as usize, below.count(), "n = {n}, p = {p}");
            }
        }
    }

    /// A bank builds its index for the first run that repays it and its
    /// memo for the second, keeps both for later runs of any length, and
    /// shares them with its clones. The memo has a word per node two
    /// levels below the index.
    #[test]
    fn prepare_run_builds_the_index_once_and_shares_it() {
        let plans = RoundPlans::new(&PetConfig::builder().height(16).build().unwrap());
        let bank = CodeBank::passive_shared(Arc::new((0..1_000).collect()));
        bank.prepare_run(31, &plans); // 31 · 32 < 1,000
        assert!(bank.prefix_index().is_none() && bank.round_memo().is_none());
        let clone = bank.clone();
        bank.prepare_run(32, &plans);
        let built = bank.prefix_index().expect("32 · 32 >= 1,000");
        assert!(
            bank.round_memo().is_none(),
            "one indexed run builds no memo"
        );
        bank.prepare_run(31, &plans);
        assert!(bank.round_memo().is_none(), "nor does a short run");
        bank.prepare_run(32, &plans);
        assert!(std::ptr::eq(built, bank.prefix_index().unwrap()));
        let memo = bank.round_memo().expect("the second indexed run builds it");
        // Codes below 2^10 with k = 9 levels: the memo takes the full
        // width, one level short of k + 2.
        assert_eq!(
            (built.offsets().len(), memo.nodes()),
            ((1 << 9) + 1, 1 << 10)
        );
        clone.prepare_run(1, &plans);
        assert!(std::ptr::eq(built, clone.prefix_index().unwrap()));
        assert!(std::ptr::eq(memo, clone.round_memo().unwrap()));
        let fresh = CodeBank::passive_shared(Arc::new((0..1_000).collect()));
        fresh.prepare_run(1, &plans);
        assert!(
            fresh.prefix_index().is_none(),
            "one-shot banks stay unindexed"
        );
        // Height-64 codes 50 bits wide leave room for both extra levels.
        let wide = CodeBank::passive_shared(Arc::new((0..1_000).map(|c| c << 40).collect()));
        let wide_plans = RoundPlans::new(&PetConfig::builder().height(64).build().unwrap());
        wide.prepare_run(32, &wide_plans);
        wide.prepare_run(32, &wide_plans);
        assert_eq!(wide.round_memo().unwrap().nodes(), 1 << (9 + 2));
    }

    /// Every path of small trees, run twice through one bank's memo in
    /// different orders: each round equals the unindexed round, rounds
    /// through a gray or black node at the memo's depth included, and the
    /// memo answers the second pass wherever the first filled it. Only
    /// nodes with no code below them are ever filled.
    #[test]
    fn memo_rounds_equal_unindexed_rounds_for_every_path() {
        for (height, n, search, probes) in [
            (12u32, 300u64, SearchStrategy::Binary, 0u32),
            (12, 300, SearchStrategy::Linear, 2),
            (10, 40, SearchStrategy::Binary, 1),
            (6, 200, SearchStrategy::Linear, 0), // duplicate codes
        ] {
            let mitigation = match probes {
                0 => Mitigation::None,
                probes => Mitigation::ReProbe { probes },
            };
            let config = PetConfig::builder()
                .height(height)
                .search(search)
                .mitigation(mitigation)
                .build()
                .unwrap();
            let codes = roster_codes(&(0..n).collect::<Vec<_>>(), &config);
            let plans = RoundPlans::new(&config);
            let bank = CodeBank::passive_shared(Arc::new(codes.clone()));
            // The first indexed run builds the index, the second the memo.
            bank.prepare_run(u32::MAX, &plans);
            bank.prepare_run(u32::MAX, &plans);
            let memo = bank.round_memo().unwrap();
            let depth = height - memo.shift;
            let low_first: Vec<u64> = (0..1u64 << height).collect();
            let high_first: Vec<u64> = low_first.iter().rev().copied().collect();
            let case = format!("H = {height}, n = {n}, {search:?}, {probes} re-probes");
            for (pass, order) in [high_first, low_first].into_iter().enumerate() {
                for bits in order {
                    let path = BitString::from_bits(bits, height).unwrap();
                    let (mut want, mut got) = (AirMetrics::default(), AirMetrics::default());
                    let rec = fused_round(&codes, None, &path, &plans, &mut want);
                    assert_eq!(bank.lossless_round(&path, &plans, &mut got), rec, "{case}");
                    assert_eq!(got, want, "{case}, path {bits:#b}, pass {pass}");
                }
            }
            assert!(memo.known() > 0, "{case}: the memo fills");
            for (node, word) in memo.words.iter().enumerate() {
                let below = count_prefix_sorted(
                    &codes,
                    &BitString::from_bits((node as u64) << memo.shift, height).unwrap(),
                    depth,
                );
                let known = word.load(atomic::Ordering::Relaxed) != 0;
                assert_eq!(known, below == 0, "{case}: node {node} holds {below} codes");
            }
        }
    }

    /// Two threads running clones of one cached bank, each filling and
    /// reading the shared memo, report what the same runs do serially
    /// over a fresh bank.
    #[test]
    fn concurrent_runs_over_one_memo_match_serial_runs() {
        use crate::front::Estimator;
        let config = PetConfig::paper_default();
        let estimator = Estimator::new(config);
        let codes = Arc::new(roster_codes(&(0..5_000).collect::<Vec<_>>(), &config));
        let run = |bank: &mut CodeBank, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..4)
                .map(|_| estimator.run_bank(bank, 400, &mut rng))
                .collect::<Vec<_>>()
        };
        let serial: Vec<_> = (0..2u64)
            .map(|seed| run(&mut CodeBank::passive_shared(Arc::clone(&codes)), seed))
            .collect();
        let shared = CodeBank::passive_shared(Arc::clone(&codes));
        let concurrent: Vec<_> = std::thread::scope(|scope| {
            let runs: Vec<_> = (0..2u64)
                .map(|seed| {
                    let mut bank = shared.clone();
                    scope.spawn(move || run(&mut bank, seed))
                })
                .collect();
            runs.into_iter().map(|run| run.join().unwrap()).collect()
        });
        for (serial, concurrent) in serial.iter().zip(&concurrent) {
            for (a, b) in serial.iter().zip(concurrent) {
                assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
                assert_eq!((&a.records, &a.metrics), (&b.records, &b.metrics));
            }
        }
        assert!(shared.round_memo().unwrap().known() > 0);
    }

    /// Small heights force duplicate codes; the gallop around the
    /// insertion point and the index's bucket counts must count every
    /// copy, on both sides, above, at and below the table's depth.
    #[test]
    fn count_around_matches_range_count_with_duplicates() {
        let mut rng = StdRng::seed_from_u64(17);
        for height in 1..=10u32 {
            let config = PetConfig::builder().height(height).build().unwrap();
            let keys: Vec<u64> = (0..300).collect();
            let codes = roster_codes(&keys, &config);
            let index = PrefixIndex::build(&codes);
            for _ in 0..100 {
                let path = BitString::random(height, &mut rng);
                let at = locate(&codes, &path).0;
                let bucket = index.bucket(path.bits());
                let lo = bucket.start;
                let bucket = &codes[bucket];
                assert_eq!(lo + bucket.partition_point(|&c| c < path.bits()), at);
                for len in 1..=height {
                    let want = count_prefix_sorted(&codes, &path, len);
                    assert_eq!(
                        count_around(&codes, at, &path, len),
                        want,
                        "H = {height}, len {len}"
                    );
                    assert_eq!(
                        index.count_prefix(bucket, &path, len),
                        want,
                        "indexed, H = {height}, len {len}"
                    );
                }
            }
        }
    }

    /// Every plan a run builds matches [`round_record`] for every `L`, at
    /// every height, under both strategies and with 0–2 re-probes (each
    /// repeats an idle query's slot, which `round_record` does not
    /// spend). Applied by `fused_round` to a one-code population at depth
    /// `L`, with and without its prefix index, a plan adds exactly the
    /// record and the metrics the reference reader produces.
    #[test]
    fn record_replay_matches_reader_for_all_lengths() {
        for height in 1..=64u32 {
            let ones = u64::MAX >> (64 - height);
            let path = BitString::from_bits(ones, height).unwrap();
            for search in [SearchStrategy::Binary, SearchStrategy::Linear] {
                for probes in 0..3 {
                    let mitigation = if probes > 0 {
                        Mitigation::ReProbe { probes }
                    } else {
                        Mitigation::None
                    };
                    let config = PetConfig::builder()
                        .height(height)
                        .search(search)
                        .mitigation(mitigation)
                        .build()
                        .unwrap();
                    let plans = RoundPlans::new(&config);
                    for l in 0..=height {
                        let case = format!("H = {height}, {search:?}, {probes} re-probes, L = {l}");
                        // One code sharing exactly `l` leading bits with the
                        // all-ones path.
                        let code = if l == height {
                            ones
                        } else {
                            ones & !(1u64 << (height - l - 1))
                        };
                        assert_eq!(locate(&[code], &path).1, l, "{case}");
                        let mut roster = CodeRoster::from_codes(
                            &[BitString::from_bits(code, height).unwrap()],
                            height,
                        );
                        roster.begin_round(&RoundStart { path, seed: None });
                        let mut air = Air::new(PerfectChannel);
                        air.broadcast(config.round_start_bits());
                        let mut rng = StdRng::seed_from_u64(0);
                        let rec = match search {
                            SearchStrategy::Binary => {
                                binary_round(&config, &mut roster, &mut air, &mut rng)
                            }
                            SearchStrategy::Linear => {
                                linear_round(&config, &mut roster, &mut air, &mut rng)
                            }
                        };
                        assert_eq!(plans.record(l), rec, "{case}");
                        let bare = round_record(height, search, l);
                        let idle_queries = air.metrics().idle / u64::from(1 + probes);
                        assert_eq!(
                            RoundRecord {
                                slots: bare.slots + probes * idle_queries as u32,
                                ..bare
                            },
                            rec,
                            "{case}"
                        );
                        let index = PrefixIndex::build(&[code]);
                        for index in [None, Some(&index)] {
                            let mut metrics = AirMetrics::default();
                            let round = fused_round(&[code], index, &path, &plans, &mut metrics);
                            assert_eq!(round, rec, "{case}");
                            assert_eq!(&metrics, air.metrics(), "{case}");
                        }
                    }
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
                let index = PrefixIndex::build(&codes);
                let plans = RoundPlans::new(&config);
                let mut air = Air::new(PerfectChannel);
                let mut fast = AirMetrics::default();
                let mut indexed = AirMetrics::default();
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
                    assert_eq!(rec, fused_round(&codes, None, &path, &plans, &mut fast));
                    let with_index = Some(&index);
                    assert_eq!(
                        rec,
                        fused_round(&codes, with_index, &path, &plans, &mut indexed)
                    );
                }
                assert_eq!(&fast, air.metrics(), "H = {height}, n = {n}, {search:?}");
                assert_eq!(&indexed, air.metrics(), "indexed, H = {height}, n = {n}");
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

    /// A passive delta leaves exactly the codes a fresh bank over the new
    /// key set holds, drops the index, and copies codes a clone shares;
    /// an active delta leaves the same per-round codes as a fresh bank.
    #[test]
    fn key_deltas_equal_fresh_banks() {
        let mut rng = StdRng::seed_from_u64(23);
        for (tag_mode, height) in [
            (TagMode::PassivePreloaded, 32),
            (TagMode::PassivePreloaded, 6), // duplicate codes
            (TagMode::ActivePerRound, 32),
        ] {
            let config = PetConfig::builder()
                .height(height)
                .tag_mode(tag_mode)
                .build()
                .unwrap();
            let family = AnyFamily::default();
            let mut keys: Vec<u64> = (0..3_000).map(|_| rng.random()).collect();
            let mut bank = CodeBank::for_config(Arc::new(keys.clone()), &config, family);
            for step in 0..6 {
                if tag_mode == TagMode::PassivePreloaded {
                    let plans = RoundPlans::new(&config);
                    // Two indexed runs: the index, then the memo.
                    bank.prepare_run(100, &plans);
                    bank.prepare_run(100, &plans);
                    assert!(bank.prefix_index().is_some());
                    let (mut metrics, mut paths) =
                        (AirMetrics::default(), StdRng::seed_from_u64(step));
                    for _ in 0..200 {
                        let path = BitString::random(height, &mut paths);
                        bank.lossless_round(&path, &plans, &mut metrics);
                    }
                    // At height 6 every node below the index holds a code.
                    assert_eq!(bank.round_memo().unwrap().known() > 0, height == 32);
                }
                let shared = bank.clone();
                let before = shared.population();
                let leaving = rng.random_range(0..keys.len() / 2);
                let mut left: Vec<u64> = Vec::new();
                for _ in 0..leaving {
                    let at = rng.random_range(0..keys.len());
                    left.push(keys.swap_remove(at));
                }
                let joined: Vec<u64> = (0..rng.random_range(0..800))
                    .map(|_| rng.random())
                    .collect();
                keys.extend(&joined);
                bank.apply_key_delta(&left, &joined, &config, family);
                let mut fresh = CodeBank::for_config(Arc::new(keys.clone()), &config, family);
                assert_eq!(bank.population(), keys.len() as u64, "step {step}");
                assert_eq!(shared.population(), before, "a clone keeps its codes");
                match tag_mode {
                    TagMode::PassivePreloaded => {
                        assert_eq!(bank.codes(), fresh.codes(), "H = {height}, step {step}");
                        assert!(bank.prefix_index().is_none(), "a delta drops the index");
                        assert!(bank.round_memo().is_none(), "and the memo");
                        assert!(shared.round_memo().is_some(), "a clone keeps its");
                    }
                    TagMode::ActivePerRound => {
                        let seed = Some(rng.random::<u64>());
                        bank.begin_round(seed, family, height);
                        fresh.begin_round(seed, family, height);
                        assert_eq!(bank.codes(), fresh.codes(), "step {step}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "left holds a key the bank does not")]
    fn key_delta_rejects_a_key_the_bank_lacks() {
        let config = PetConfig::builder().height(32).build().unwrap();
        let family = AnyFamily::default();
        let mut bank = CodeBank::for_config(Arc::new((0..100).collect()), &config, family);
        bank.apply_key_delta(&[1_000], &[], &config, family);
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
