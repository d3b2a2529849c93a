//! The kernel measurement suite behind `repro bench-kernel` and
//! `pet bench record --suite kernel`.
//!
//! One implementation, two producers: the repro binary writes the
//! `BENCH_kernel.json` snapshot *and* appends a ledger row; the CLI's
//! `record` command appends a fresh ledger row on demand (the fast pinned
//! subset the CI gate runs). Keeping the measurement here means the
//! snapshot, the ledger, and the gate always describe the same workload.

use crate::ledger::{noise_floor_of, LedgerRow};
use pet_core::bits::BitString;
use pet_core::config::{PetConfig, SearchStrategy};
use pet_core::front::Estimator;
use pet_core::kernel::CodeBank;
use pet_core::oracle::{CodeRoster, ResponderOracle, RoundStart};
use pet_core::reader::{binary_round, linear_round};
use pet_hash::family::AnyFamily;
use pet_phy::channel::PerfectChannel;
use pet_phy::Air;
use pet_sim::cache::RosterCache;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// Rounds per session of the one-shot arm: a monitor update's default
/// budget. A monitor's bank carries no prefix index at this scale (churn
/// drops it, and 32 rounds repay no table over more than 1,024 tags), so
/// the arm times banks without one.
const ONE_SHOT_ROUNDS: u32 = 32;

/// Measured kernel throughput at paper scale, best-of-N per arm.
#[derive(Debug, Clone)]
pub struct KernelBench {
    /// Population size measured.
    pub n: u64,
    /// Active SIMD lane the dispatched arms ran on.
    pub lane: String,
    /// Slot-by-slot oracle reader rounds/s.
    pub rounds_per_sec_oracle: f64,
    /// Whole kernel rounds/s through `Estimator::try_run_bank`, in
    /// 32-round sessions over unindexed `CodeBank::passive_shared` banks
    /// (a monitor update's path).
    pub rounds_per_sec_kernel: f64,
    /// Whole kernel rounds/s through `Estimator::try_run_bank`, in
    /// paper-length sessions over the bank `RosterCache::sequential_bank`
    /// returns (the server's `estimate` path). The `_simd` suffix is a
    /// historical name: the arm once timed the SIMD search alone.
    pub rounds_per_sec_kernel_simd: f64,
    /// Bulk mixer hashing, scalar lane, elements/s.
    pub hash_elems_per_sec_scalar: f64,
    /// Bulk mixer hashing, active lane, elements/s.
    pub hash_elems_per_sec_simd: f64,
    /// Repeats each number is the best of.
    pub best_of: u64,
    /// Worst relative spread observed across repeats of any arm — the
    /// jitter slack the gate grants rows from this run.
    pub noise_floor: f64,
}

/// Runs every arm `best_of` times and keeps the fastest rate per arm.
/// `quick` trims iteration counts roughly 5× for CI-speed runs.
///
/// # Panics
///
/// Panics when `best_of` is 0.
#[must_use]
pub fn run_kernel(quick: bool, best_of: usize) -> KernelBench {
    assert!(best_of >= 1, "best_of must be >= 1");
    let n = 100_000u64;
    let config = PetConfig::paper_default();
    let keys: Vec<u64> = (0..n).collect();
    let mut roster = CodeRoster::new(&keys, &config, AnyFamily::default());
    let codes = roster.codes().to_vec();
    let lane = pet_hash::simd::active_lane();

    // The oracle arm consumes a pre-drawn path stream and times only the
    // slot-by-slot round.
    let mut rng = StdRng::seed_from_u64(0xBE7C);
    let paths: Vec<BitString> = (0..4096)
        .map(|_| BitString::random(config.height(), &mut rng))
        .collect();

    let mut spreads: Vec<f64> = Vec::new();
    let mut best_of_arm = |arm: &mut dyn FnMut() -> f64| -> f64 {
        let samples: Vec<f64> = (0..best_of).map(|_| arm()).collect();
        spreads.push(noise_floor_of(&samples));
        samples.iter().copied().fold(f64::MIN, f64::max)
    };

    let oracle_rounds: usize = if quick { 20_000 } else { 100_000 };
    let rounds_per_sec_oracle = best_of_arm(&mut || {
        let mut air = Air::new(PerfectChannel);
        let clock = Instant::now();
        for i in 0..oracle_rounds {
            let path = paths[i % paths.len()];
            roster.begin_round(&RoundStart { path, seed: None });
            let rec = match config.search() {
                SearchStrategy::Linear => linear_round(&config, &mut roster, &mut air, &mut rng),
                SearchStrategy::Binary => binary_round(&config, &mut roster, &mut air, &mut rng),
            };
            std::hint::black_box(rec);
        }
        oracle_rounds as f64 / clock.elapsed().as_secs_f64()
    });

    // Whole lossless rounds, each drawing its own path: the search, the
    // round plan's metric accounting with its responder counts, and the
    // session's plan table and aggregation.
    let kernel_rounds: u32 = if quick { 200_000 } else { 1_000_000 };
    let estimator = Estimator::new(config);
    let kernel_arm = |session: u32, bank: &mut dyn FnMut() -> CodeBank| {
        let mut rng = StdRng::seed_from_u64(0x5E55);
        let clock = Instant::now();
        let mut done = 0;
        while done < kernel_rounds {
            let report = estimator
                .try_run_bank(&mut bank(), session, &mut rng)
                .expect("non-zero rounds");
            std::hint::black_box(report.estimate);
            done += session;
        }
        f64::from(done) / clock.elapsed().as_secs_f64()
    };
    let shared_codes = Arc::new(codes);
    let rounds_per_sec_kernel = best_of_arm(&mut || {
        kernel_arm(ONE_SHOT_ROUNDS, &mut || {
            CodeBank::passive_shared(Arc::clone(&shared_codes))
        })
    });
    let cache = RosterCache::default();
    let rounds_per_sec_kernel_simd = best_of_arm(&mut || {
        kernel_arm(config.rounds(), &mut || {
            cache.sequential_bank(n as usize, &config, estimator.family())
        })
    });

    // Bulk code derivation is where the SIMD lanes actually earn their
    // keep: active-mode PET re-hashes the whole population every round.
    let hash_reps: usize = if quick { 20 } else { 100 };
    let mut out = vec![0u64; keys.len()];
    let mut hash_arm = |l: pet_hash::Lane| {
        let clock = Instant::now();
        for rep in 0..hash_reps {
            pet_hash::simd::mix2_bulk_into(l, rep as u64, &keys, config.height(), &mut out);
            std::hint::black_box(out[0]);
        }
        (hash_reps * keys.len()) as f64 / clock.elapsed().as_secs_f64()
    };
    let hash_elems_per_sec_scalar = best_of_arm(&mut || hash_arm(pet_hash::Lane::Scalar));
    let hash_elems_per_sec_simd = best_of_arm(&mut || hash_arm(lane));

    KernelBench {
        n,
        lane: lane.as_str().to_string(),
        rounds_per_sec_oracle,
        rounds_per_sec_kernel,
        rounds_per_sec_kernel_simd,
        hash_elems_per_sec_scalar,
        hash_elems_per_sec_simd,
        best_of: best_of as u64,
        noise_floor: spreads.iter().copied().fold(0.0, f64::max),
    }
}

impl KernelBench {
    /// The normalized ledger row for this run.
    ///
    /// # Panics
    ///
    /// Never — every metric is finite wall-clock arithmetic.
    #[must_use]
    pub fn ledger_row(&self, commit: &str, source: &str) -> LedgerRow {
        let mut row = LedgerRow::new(
            "kernel",
            &format!("n={}/lane={}", self.n, self.lane),
            commit,
        );
        row.source = source.to_string();
        row.best_of = self.best_of;
        row.noise_floor = self.noise_floor;
        for (name, value) in [
            ("rounds_per_sec_oracle", self.rounds_per_sec_oracle),
            ("rounds_per_sec_kernel", self.rounds_per_sec_kernel),
            (
                "rounds_per_sec_kernel_simd",
                self.rounds_per_sec_kernel_simd,
            ),
            ("hash_elems_per_sec_scalar", self.hash_elems_per_sec_scalar),
            ("hash_elems_per_sec_simd", self.hash_elems_per_sec_simd),
        ] {
            row.metric(name, value).expect("finite kernel rates");
        }
        row.stamped_now()
    }

    /// The flat `BENCH_kernel.json` body (v1 snapshot format, unchanged
    /// since the SIMD PR so downstream tooling keeps parsing it).
    #[must_use]
    pub fn bench_json(&self, commit: &str) -> String {
        format!(
            "{{\"n\": {n}, \"lane\": \"{lane}\", \"commit\": \"{commit}\", \
             \"rounds_per_sec_oracle\": {oracle:.1}, \
             \"rounds_per_sec_kernel\": {kernel:.1}, \
             \"rounds_per_sec_kernel_simd\": {simd:.1}, \
             \"hash_elems_per_sec_scalar\": {hs:.1}, \
             \"hash_elems_per_sec_simd\": {hv:.1}}}\n",
            n = self.n,
            lane = self.lane,
            oracle = self.rounds_per_sec_oracle,
            kernel = self.rounds_per_sec_kernel,
            simd = self.rounds_per_sec_kernel_simd,
            hs = self.hash_elems_per_sec_scalar,
            hv = self.hash_elems_per_sec_simd,
        )
    }

    /// The one-line human summary both producers print.
    #[must_use]
    pub fn render(&self, commit: &str) -> String {
        format!(
            "bench-kernel: n = {n} (lane {lane}, commit {commit}, best of {bo}): oracle \
             {oracle:.0} rounds/s, kernel {kernel:.0} rounds/s one-shot / {simd:.0} rounds/s \
             cached ({x:.1}x over oracle), bulk hash {hs:.1}M elem/s scalar / {hv:.1}M \
             elem/s {lane}, noise floor {nf:.1}%",
            n = self.n,
            lane = self.lane,
            bo = self.best_of,
            oracle = self.rounds_per_sec_oracle,
            kernel = self.rounds_per_sec_kernel,
            simd = self.rounds_per_sec_kernel_simd,
            x = self.rounds_per_sec_kernel_simd / self.rounds_per_sec_oracle,
            hs = self.hash_elems_per_sec_scalar / 1e6,
            hv = self.hash_elems_per_sec_simd / 1e6,
            nf = self.noise_floor * 100.0,
        )
    }
}
