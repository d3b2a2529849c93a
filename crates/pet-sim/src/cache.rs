//! Cross-trial roster cache.
//!
//! Every experiment cell runs hundreds of independent trials over the *same*
//! sequential population, and (for fixed-manufacture-seed configurations)
//! the same preloaded code array; every `estimate` request the server
//! answers for one `tags` count does too, and so does the first update of
//! every `monitor` subscription over those tags. The cache shares two
//! immutable artifacts across them, behind `Arc`s so concurrent workers
//! clone pointers, not arrays:
//!
//! - **Sequential key vectors** keyed by `n` — the EPC-derived `u64` keys of
//!   `TagPopulation::sequential(n)`, which every sweep reuses for each of
//!   its round counts and runs, and from which every monitor subscription
//!   starts its key stack ([`RosterCache::sequential_stream`]).
//! - **Passive code banks** keyed by `(n, manufacture_seed, family, mode,
//!   height)` — hashed and radix-sorted once, then shared by every trial of
//!   every cell with the same configuration, together with the bank's
//!   prefix index (`pet_core::kernel::PrefixIndex`), built by the first run
//!   long enough to repay it, and round memo
//!   (`pet_core::kernel::RoundMemo`), built by the second, so later hits
//!   pay nothing and read the rounds earlier hits stored. A monitor
//!   subscription starts from the same bank: its first non-empty churn
//!   copies the codes (`CodeBank::apply_key_delta` edits through
//!   `Arc::make_mut`) and drops the index of its own clone only, so the
//!   cached codes, index and memo never change.
//!
//! Reuse rules: cached codes are immutable and only valid for
//! `TagMode::PassivePreloaded` banks (active mode re-hashes per round and
//! never caches codes — each trial gets its own rebuild buffers). Trials
//! with per-trial manufacture seeds (e.g. fig4's fresh-deployment model)
//! miss by construction — the key includes the seed — and fall through to a
//! bounded insert, so the cache never changes any experiment's output, only
//! its cost. Both maps are FIFO-bounded, so paper-scale sweeps with unique
//! seeds cannot grow memory without bound.
//!
//! Locking: each entry is a once-cell. A miss inserts the empty cell under
//! its map's lock and builds the value after releasing it, so a large
//! build (a 10⁷-tag bank) stalls only the lookups of its own key, which
//! wait for that one build instead of building again; lookups of every
//! other key go on.
//!
//! Memory: a code entry holds its codes' `8·n` bytes and, once indexed,
//! up to `4·(2^k + 1)` bytes of offset table (`k = ⌊log₂ n⌋` clamped to
//! 4..=20) and, from its second indexed run, up to `4·2^(k+2)` bytes of
//! round memo. From `n = 16` on that is at most `4·(n + 1)` bytes of index
//! and `16·n` bytes of memo: a cached bank is its codes (`8·n`) plus its
//! index (`≤ 4·(n + 1)`) plus its memo (`≤ 16·n`), up to three and a half
//! times its codes. A byte bound on the cache must count all three.

use pet_core::config::{PetConfig, TagMode};
use pet_core::kernel::CodeBank;
use pet_core::monitor::{ChurnStream, Monitor};
use pet_hash::bulk::{hash_codes_into, radix_sort_codes, RadixScratch};
use pet_hash::family::{AnyFamily, HashKind};
use pet_tags::dynamics::{ChurnSchedule, KeyTimeline};
use pet_tags::population;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};

/// Cache key for a passive preloaded code array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CodesKey {
    n: usize,
    seed: u64,
    family: HashKind,
    mode: TagMode,
    height: u32,
}

/// Hit/miss/eviction counters (for tests and tuning).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to build the artifact.
    pub misses: u64,
    /// Entries pushed out by the FIFO bound.
    pub evictions: u64,
}

/// Result of one shelf lookup.
struct Lookup<V> {
    value: V,
    hit: bool,
    evicted: bool,
}

/// One FIFO-bounded map of the cache. Each entry is a once-cell: a miss
/// inserts the empty cell under the lock and fills it after the lock is
/// released, so a long build never holds up lookups of other keys, and
/// concurrent misses of one key wait on one build.
struct Shelf<K, V> {
    cap: usize,
    entries: Mutex<Entries<K, V>>,
}

struct Entries<K, V> {
    map: HashMap<K, Arc<OnceLock<V>>>,
    order: VecDeque<K>,
}

impl<K: Clone + Eq + std::hash::Hash, V: Clone> Shelf<K, V> {
    fn new(cap: usize) -> Self {
        Self {
            cap,
            entries: Mutex::new(Entries {
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
        }
    }

    fn get_or_insert_with(&self, key: K, build: impl FnOnce() -> V) -> Lookup<V> {
        // Capacity 0 disables storage entirely: without this guard the
        // FIFO logic would insert then immediately evict on every lookup,
        // silently thrashing (build + churn) while caching nothing.
        if self.cap == 0 {
            return Lookup {
                value: build(),
                hit: false,
                evicted: false,
            };
        }
        let (cell, evicted) = {
            let mut entries = self.entries.lock().expect("cache poisoned");
            match entries.map.get(&key) {
                Some(cell) => (Arc::clone(cell), false),
                None => {
                    let evicted = entries.order.len() >= self.cap;
                    if evicted {
                        let old = entries.order.pop_front().expect("cap > 0");
                        entries.map.remove(&old);
                    }
                    let cell = Arc::<OnceLock<V>>::default();
                    entries.order.push_back(key.clone());
                    entries.map.insert(key, Arc::clone(&cell));
                    (cell, evicted)
                }
            }
        };
        // A hit is a lookup that did not build, including one that waited
        // for another thread's build of the same key.
        let mut hit = true;
        let value = cell
            .get_or_init(|| {
                hit = false;
                build()
            })
            .clone();
        Lookup {
            value,
            hit,
            evicted,
        }
    }
}

/// The process-wide roster cache. Obtain it with [`RosterCache::global`],
/// or build a locally scoped one with [`RosterCache::with_capacities`].
pub struct RosterCache {
    keys: Shelf<usize, Arc<Vec<u64>>>,
    codes: Shelf<CodesKey, CodeBank>,
    stats: Mutex<CacheStats>,
}

/// Distinct key vectors kept (keys are ~8 B × n each).
const KEYS_CAP: usize = 8;
/// Distinct code banks kept. Unique-seed workloads churn through this
/// FIFO without benefit, but also without unbounded growth.
const CODES_CAP: usize = 32;

impl Default for RosterCache {
    fn default() -> Self {
        Self::with_capacities(KEYS_CAP, CODES_CAP)
    }
}

impl RosterCache {
    /// The process-wide instance.
    pub fn global() -> &'static RosterCache {
        static CACHE: OnceLock<RosterCache> = OnceLock::new();
        CACHE.get_or_init(RosterCache::default)
    }

    /// A cache bounded to `keys_cap` key vectors and `codes_cap` code
    /// banks. A capacity of 0 disables that shelf: every lookup builds
    /// fresh and nothing is stored (no FIFO churn).
    #[must_use]
    pub fn with_capacities(keys_cap: usize, codes_cap: usize) -> Self {
        Self {
            keys: Shelf::new(keys_cap),
            codes: Shelf::new(codes_cap),
            stats: Mutex::default(),
        }
    }

    /// The `u64` hashing keys of `TagPopulation::sequential(n)`, shared,
    /// derived from the serials without building the tags.
    pub fn sequential_keys(&self, n: usize) -> Arc<Vec<u64>> {
        let lookup = self
            .keys
            .get_or_insert_with(n, || Arc::new(population::sequential_keys(n).collect()));
        if pet_obs::enabled() {
            pet_obs::counter(
                if lookup.hit {
                    "cache.keys.hit"
                } else {
                    "cache.keys.miss"
                },
                1,
            );
            if lookup.evicted {
                pet_obs::counter("cache.keys.evict", 1);
            }
        }
        lookup.value
    }

    /// A [`CodeBank`] for `n` sequential tags under `config`: passive banks
    /// share one cached hash+sort and its prefix index; active banks share
    /// only the key vector.
    pub fn sequential_bank(&self, n: usize, config: &PetConfig, family: AnyFamily) -> CodeBank {
        let keys = self.sequential_keys(n);
        match config.tag_mode() {
            TagMode::PassivePreloaded => {
                let cache_key = CodesKey {
                    n,
                    seed: config.manufacture_seed(),
                    family: family.kind(),
                    mode: config.tag_mode(),
                    height: config.height(),
                };
                let lookup = self.codes.get_or_insert_with(cache_key, || {
                    // Sequential hashing: trial workers already saturate
                    // the cores, so nested fan-out would oversubscribe
                    // (the SIMD lane dispatch still applies).
                    let mut codes = Vec::new();
                    let mut scratch = RadixScratch::new();
                    hash_codes_into(
                        &family,
                        config.manufacture_seed(),
                        &keys,
                        config.height(),
                        &mut codes,
                    );
                    radix_sort_codes(&mut codes, config.height(), &mut scratch);
                    CodeBank::passive_shared(Arc::new(codes))
                });
                {
                    let mut stats = self.stats.lock().expect("cache poisoned");
                    if lookup.hit {
                        stats.hits += 1;
                    } else {
                        stats.misses += 1;
                    }
                    if lookup.evicted {
                        stats.evictions += 1;
                    }
                }
                if pet_obs::enabled() {
                    pet_obs::counter(
                        if lookup.hit {
                            "cache.codes.hit"
                        } else {
                            "cache.codes.miss"
                        },
                        1,
                    );
                    if lookup.evicted {
                        pet_obs::counter("cache.codes.evict", 1);
                    }
                }
                lookup.value
            }
            TagMode::ActivePerRound => CodeBank::Active {
                keys,
                codes: Vec::new(),
                scratch: RadixScratch::new(),
            },
        }
    }

    /// A [`ChurnStream`] over `n` sequential tags that starts from this
    /// cache's keys and its bank for them under the monitor's
    /// configuration and hash family, the entry an `estimate` of those
    /// tags hits. A passive code is a pure function of (key, manufacture
    /// seed, family, height); `n` fixes the keys and the entry's key holds
    /// the other three, so the stream runs bit for bit as one that built
    /// its own bank. The stream copies the codes on its first non-empty
    /// churn, and the cached bank never changes.
    pub fn sequential_stream(
        &self,
        n: usize,
        monitor: Monitor,
        schedule: ChurnSchedule,
    ) -> ChurnStream {
        let estimator = monitor.estimator();
        let bank = self.sequential_bank(n, estimator.config(), estimator.family());
        let timeline = KeyTimeline::from_sequential_keys(&self.sequential_keys(n));
        ChurnStream::new(monitor, schedule, timeline, bank)
    }

    /// Snapshot of the hit/miss/eviction counters (passive code lookups
    /// only).
    pub fn stats(&self) -> CacheStats {
        *self.stats.lock().expect("cache poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pet_core::front::Estimator;
    use pet_core::oracle::CodeRoster;
    use pet_phy::Air;
    use pet_tags::population::TagPopulation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn cached_bank_estimates_match_oracle_path() {
        let config = PetConfig::builder()
            .manufacture_seed(0xCAFE)
            .build()
            .unwrap();
        let estimator = Estimator::new(config);
        let cache = RosterCache::default();
        let keys: Vec<u64> = TagPopulation::sequential(1_500).keys().collect();
        for round in 0..3 {
            let mut bank = cache.sequential_bank(1_500, &config, estimator.family());
            let mut roster = CodeRoster::new(&keys, &config, estimator.family());
            let mut air = Air::new(config.channel());
            let mut rng_a = StdRng::seed_from_u64(round);
            let mut rng_b = StdRng::seed_from_u64(round);
            let slow = estimator
                .try_run_oracle(16, &mut roster, &mut air, &mut rng_a)
                .unwrap();
            let fast = estimator.run_bank(&mut bank, 16, &mut rng_b);
            assert_eq!(slow.estimate.to_bits(), fast.estimate.to_bits());
            assert_eq!(slow.metrics, fast.metrics);
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
    }

    /// One cached bank serves Binary, then Linear, then Binary with two
    /// re-probes, each run twice on one path stream. The first Binary run
    /// builds the prefix index alone and the second the round memo, which
    /// serves the strategy of the run that built it: the Linear runs
    /// neither read nor fill it, and the re-probing runs read what the
    /// second run stored. Every run equals the same run over a fresh bank.
    #[test]
    fn one_cached_bank_serves_every_strategy() {
        use pet_core::config::{Mitigation, SearchStrategy};
        let cache = RosterCache::default();
        let config = |search, mitigation| {
            PetConfig::builder()
                .manufacture_seed(0x5EA7)
                .search(search)
                .mitigation(mitigation)
                .build()
                .unwrap()
        };
        for config in [
            config(SearchStrategy::Binary, Mitigation::None),
            config(SearchStrategy::Linear, Mitigation::None),
            config(SearchStrategy::Binary, Mitigation::ReProbe { probes: 2 }),
        ] {
            let estimator = Estimator::new(config);
            for pass in 0..2 {
                let mut bank = cache.sequential_bank(3_000, &config, estimator.family());
                let known = bank.round_memo().map(|memo| memo.known());
                let got = estimator.run_bank(&mut bank, 200, &mut StdRng::seed_from_u64(1));
                let mut fresh = CodeBank::passive_shared(Arc::new(bank.codes().to_vec()));
                let want = estimator.run_bank(&mut fresh, 200, &mut StdRng::seed_from_u64(1));
                let case = format!("{:?}, pass {pass}", config.search());
                assert_eq!(got.estimate.to_bits(), want.estimate.to_bits(), "{case}");
                assert_eq!((&got.records, &got.metrics), (&want.records, &want.metrics));
                assert!(bank.prefix_index().is_some(), "200 · 32 >= 3,000");
                let after = bank.round_memo().map(|memo| memo.known());
                match (config.search(), known) {
                    (SearchStrategy::Binary, None) if pass == 0 => {
                        assert_eq!(after, None, "{case}")
                    }
                    (SearchStrategy::Binary, None) => {
                        assert!(after.is_some_and(|known| known > 0), "{case}");
                    }
                    // The stream repeats the Binary runs' paths.
                    (_, known) => {
                        assert!(known.is_some(), "{case}");
                        assert_eq!(after, known, "{case}");
                    }
                }
            }
        }
        assert_eq!(cache.stats().misses, 1, "one bank served all six runs");
    }

    /// A hit after one long run reuses the prefix index that run built —
    /// the same allocation — and a second long run builds the round memo
    /// beside it, shared the same way. A short run on a one-shot bank
    /// builds neither.
    #[test]
    fn hits_reuse_the_index_a_long_run_built() {
        let config = PetConfig::builder()
            .manufacture_seed(0x1DE7)
            .build()
            .unwrap();
        let estimator = Estimator::new(config);
        let cache = RosterCache::default();
        let table = |bank: &CodeBank| bank.prefix_index().map(|index| index.offsets().as_ptr());
        let mut rng = StdRng::seed_from_u64(3);
        let mut first = cache.sequential_bank(2_000, &config, estimator.family());
        assert_eq!(table(&first), None, "banks start unindexed");
        estimator.run_bank(&mut first, 64, &mut rng); // 64 · 32 >= 2,000
        let built = table(&first).expect("the long run builds the index");
        assert!(first.round_memo().is_none(), "and no memo");
        let mut hit = cache.sequential_bank(2_000, &config, estimator.family());
        estimator.run_bank(&mut hit, 4, &mut rng);
        assert_eq!(table(&hit), Some(built), "the hit reuses the table");
        assert!(hit.round_memo().is_none(), "a short run builds no memo");
        estimator.run_bank(&mut hit, 64, &mut rng);
        assert_eq!(table(&hit), Some(built));
        let memo = first.round_memo().expect("the second long run builds it");
        assert!(
            std::ptr::eq(hit.round_memo().unwrap(), memo),
            "and every clone shares it"
        );
        assert_eq!(cache.stats().hits, 1);

        let mut one_shot = CodeBank::passive_shared(Arc::new(first.codes().to_vec()));
        estimator.run_bank(&mut one_shot, 32, &mut rng); // 32 · 32 < 2,000
        assert_eq!(table(&one_shot), None, "a short run builds no index");
    }

    #[test]
    fn distinct_seeds_do_not_share_codes() {
        let cache = RosterCache::default();
        let fam = AnyFamily::default();
        let a = PetConfig::builder().manufacture_seed(1).build().unwrap();
        let b = PetConfig::builder().manufacture_seed(2).build().unwrap();
        let bank_a = cache.sequential_bank(500, &a, fam);
        let bank_b = cache.sequential_bank(500, &b, fam);
        assert_ne!(bank_a.codes(), bank_b.codes());
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 0,
                misses: 2,
                evictions: 0
            }
        );
    }

    #[test]
    fn eviction_bounds_the_cache() {
        let cache = RosterCache::default();
        let fam = AnyFamily::default();
        for seed in 0..(CODES_CAP as u64 + 10) {
            let config = PetConfig::builder().manufacture_seed(seed).build().unwrap();
            let _ = cache.sequential_bank(64, &config, fam);
        }
        {
            let entries = cache.codes.entries.lock().unwrap();
            assert!(entries.map.len() <= CODES_CAP);
            assert_eq!(entries.map.len(), entries.order.len());
        }
        assert_eq!(
            cache.stats().evictions,
            10,
            "one eviction per overflow insert"
        );
    }

    /// FIFO order: filling a capacity-2 cache with a third key must evict
    /// the *oldest* entry, not the most recent one.
    #[test]
    fn eviction_is_fifo_ordered() {
        let cache = RosterCache::with_capacities(KEYS_CAP, 2);
        let fam = AnyFamily::default();
        let config_for = |seed: u64| PetConfig::builder().manufacture_seed(seed).build().unwrap();
        let _ = cache.sequential_bank(64, &config_for(1), fam); // miss, stored
        let _ = cache.sequential_bank(64, &config_for(2), fam); // miss, stored
        let _ = cache.sequential_bank(64, &config_for(3), fam); // miss, evicts seed 1
        let _ = cache.sequential_bank(64, &config_for(2), fam); // hit (still resident)
        let _ = cache.sequential_bank(64, &config_for(3), fam); // hit (newest)
        let _ = cache.sequential_bank(64, &config_for(1), fam); // miss again (was evicted)
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.evictions),
            (2, 4, 2),
            "seed 1 must be the FIFO victim"
        );
    }

    /// Capacity 0 disables the shelf instead of thrashing insert/evict on
    /// every trial: lookups all miss, nothing is stored, nothing is
    /// evicted, and the results stay correct.
    #[test]
    fn zero_capacity_disables_storage_without_thrash() {
        let cache = RosterCache::with_capacities(0, 0);
        let fam = AnyFamily::default();
        let config = PetConfig::builder().manufacture_seed(9).build().unwrap();
        let expect = RosterCache::default()
            .sequential_bank(200, &config, fam)
            .codes()
            .to_vec();
        for _ in 0..3 {
            let bank = cache.sequential_bank(200, &config, fam);
            assert_eq!(bank.codes(), expect, "disabled cache must stay correct");
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (0, 3, 0));
        let entries = cache.codes.entries.lock().unwrap();
        assert!(entries.map.is_empty(), "nothing stored");
        assert!(entries.order.is_empty(), "no FIFO churn");
        assert!(cache.keys.entries.lock().unwrap().map.is_empty());
    }

    /// Concurrent trial workers share one cached artifact: every thread
    /// gets the same codes, and the build happens once: the first lookup
    /// inserts the entry's cell, and the others wait for its build.
    #[test]
    fn cross_thread_sharing_returns_one_allocation() {
        let cache = std::sync::Arc::new(RosterCache::default());
        let config = PetConfig::builder()
            .manufacture_seed(0xBEEF)
            .build()
            .unwrap();
        let fam = AnyFamily::default();
        let reference = cache.sequential_keys(512);
        let banks: Vec<CodeBank> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let cache = std::sync::Arc::clone(&cache);
                    scope.spawn(move || cache.sequential_bank(512, &config, fam))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for bank in &banks {
            assert_eq!(bank.codes(), banks[0].codes());
        }
        // The keys shelf is shared: same Arc for every later request.
        assert!(Arc::ptr_eq(&reference, &cache.sequential_keys(512)));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (7, 1), "one thread built it");
    }

    /// A miss builds after releasing its shelf's lock: while one thread's
    /// build of a key blocks, another thread's lookup of a cached key
    /// finishes. Every wait is bounded, so a build under the lock fails
    /// the test instead of hanging it.
    #[test]
    fn a_miss_builds_outside_the_lock() {
        use std::sync::mpsc;
        use std::time::Duration;

        let limit = Duration::from_secs(10);
        let shelf: &Shelf<u32, u32> = &Shelf::new(4);
        assert!(!shelf.get_or_insert_with(1, || 10).hit);
        let (started, building) = mpsc::channel();
        let (release, released) = mpsc::channel::<()>();
        let (found, hit) = mpsc::channel();
        std::thread::scope(|scope| {
            let builder = scope.spawn(move || {
                shelf.get_or_insert_with(2, || {
                    started.send(()).unwrap();
                    // Outwaits the hit, so that a hit blocked behind
                    // this build times out first and then completes.
                    released.recv_timeout(2 * limit).expect("released");
                    20
                })
            });
            building.recv_timeout(limit).expect("the build started");
            scope.spawn(move || {
                let lookup = shelf.get_or_insert_with(1, || unreachable!("1 is cached"));
                found.send((lookup.value, lookup.hit)).unwrap();
            });
            let during = hit.recv_timeout(limit);
            release.send(()).unwrap();
            assert_eq!(during, Ok((10, true)), "the hit waited for the build");
            let built = builder.join().unwrap();
            assert_eq!((built.value, built.hit), (20, false));
        });
        assert!(
            shelf
                .get_or_insert_with(2, || unreachable!("2 is cached"))
                .hit
        );
    }

    #[test]
    fn sequential_keys_match_population() {
        let cache = RosterCache::default();
        for n in [0, 1, 123, 200, 10_000] {
            let keys = cache.sequential_keys(n);
            let expect: Vec<u64> = TagPopulation::sequential(n).keys().collect();
            assert_eq!(*keys, expect, "n = {n}");
            // Second lookup shares the same allocation.
            let again = cache.sequential_keys(n);
            assert!(Arc::ptr_eq(&keys, &again), "n = {n}");
        }
    }
}
