//! The estimation driver.
//!
//! [`Estimator`] runs PET end to end: the `m` rounds of Algorithm 3 that
//! Eq. (20) sizes from the accuracy target, averaged by Eq. (14) into an
//! [`EstimateReport`], with air costs tracked throughout. The configured
//! [`Backend`] picks how a round executes — the slot-by-slot oracle reader,
//! or the batched gray-node kernel over a sorted [`CodeBank`] — and both
//! produce bit-for-bit identical reports for the same RNG stream, so the
//! choice is purely an execution detail.
//!
//! One private slot-by-slot loop (zero probe, then [`run_round`] per round,
//! then [`aggregate_records`](crate::estimator::aggregate_records)) serves
//! every path but the lossless kernel: the oracle backend, caller-supplied
//! oracles ([`Estimator::try_run_oracle`]), the kernel backend over a lossy
//! channel or with a transcript, and sequential early stopping
//! ([`Estimator::run_adaptive`]).

use crate::bits::BitString;
use crate::config::{Backend, Mitigation, PetConfig, TagMode};
use crate::error::PetError;
use crate::kernel::{self, CodeBank};
use crate::oracle::{CodeRoster, ResponderOracle, RoundStart};
use crate::reader::{self, run_round, RoundRecord};
use crate::session::EstimateReport;
use pet_hash::family::AnyFamily;
use pet_phy::channel::{Channel, ChannelModel};
use pet_phy::{Air, AirMetrics, SlotOutcome, Transcript};
use pet_stats::describe::Describe;
use pet_tags::population::TagPopulation;
use rand::Rng;
use std::sync::Arc;

/// Floor on rounds before [`Estimator::run_adaptive`] trusts the empirical
/// deviation at all.
pub const ADAPTIVE_MIN_ROUNDS: u32 = 32;

/// The PET estimation driver, dispatching on [`PetConfig::backend`].
///
/// # Example
///
/// ```
/// use pet_core::{Estimator, PetConfig};
/// use pet_tags::population::TagPopulation;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(42);
/// let warehouse = TagPopulation::sequential(25_000);
/// let estimator = Estimator::new(PetConfig::paper_default());
/// let report = estimator.estimate_population(&warehouse, &mut rng);
/// assert!((report.estimate - 25_000.0).abs() < 0.05 * 25_000.0);
/// ```
#[derive(Debug, Clone)]
pub struct Estimator {
    config: PetConfig,
    family: AnyFamily,
}

impl Estimator {
    /// Creates an estimator with the default fast hash family.
    #[must_use]
    pub fn new(config: PetConfig) -> Self {
        Self::with_family(config, AnyFamily::default())
    }

    /// Creates an estimator with an explicit hash family (e.g. MD5/SHA-1 as
    /// §4.5 suggests for manufactured codes).
    #[must_use]
    pub fn with_family(config: PetConfig, family: AnyFamily) -> Self {
        Self { config, family }
    }

    /// The estimator's configuration.
    #[must_use]
    pub fn config(&self) -> &PetConfig {
        &self.config
    }

    /// The estimator's hash family.
    #[must_use]
    pub fn family(&self) -> AnyFamily {
        self.family
    }

    /// Builds the [`CodeBank`] matching this estimator's configuration
    /// (reusable across [`Self::run_bank`] calls and shareable across
    /// trials).
    #[must_use]
    pub fn bank_for_keys(&self, keys: Arc<Vec<u64>>) -> CodeBank {
        CodeBank::for_config(keys, &self.config, self.family)
    }

    /// Estimates a population with the configured number of rounds
    /// (Eq. (20)).
    pub fn estimate_population<R: Rng + ?Sized>(
        &self,
        population: &TagPopulation,
        rng: &mut R,
    ) -> EstimateReport {
        self.estimate_population_rounds(population, self.config.rounds(), rng)
    }

    /// Like [`Self::estimate_population`] with an explicit round count —
    /// the knob the Fig. 4 sweeps turn.
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is zero.
    pub fn estimate_population_rounds<R: Rng + ?Sized>(
        &self,
        population: &TagPopulation,
        rounds: u32,
        rng: &mut R,
    ) -> EstimateReport {
        let keys: Vec<u64> = population.keys().collect();
        self.estimate_keys_rounds(&keys, rounds, rng)
    }

    /// Estimates over a key slice with an explicit round count.
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is zero.
    pub fn estimate_keys_rounds<R: Rng + ?Sized>(
        &self,
        keys: &[u64],
        rounds: u32,
        rng: &mut R,
    ) -> EstimateReport {
        self.try_estimate_keys_rounds(keys, rounds, rng)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`Self::estimate_keys_rounds`].
    ///
    /// # Errors
    ///
    /// [`PetError::ZeroRounds`] when `rounds` is zero.
    pub fn try_estimate_keys_rounds<R: Rng + ?Sized>(
        &self,
        keys: &[u64],
        rounds: u32,
        rng: &mut R,
    ) -> Result<EstimateReport, PetError> {
        match self.config.backend() {
            Backend::Kernel => {
                let mut bank = self.bank_for_keys(Arc::new(keys.to_vec()));
                self.try_run_bank(&mut bank, rounds, rng)
            }
            Backend::Oracle => {
                let mut oracle = CodeRoster::new(keys, &self.config, self.family);
                let mut air = Air::new(self.config.channel());
                self.try_run_oracle(rounds, &mut oracle, &mut air, rng)
            }
        }
    }

    /// Runs `rounds` against a prebuilt bank (the experiments' hot path:
    /// banks come from `pet-sim`'s roster cache and amortize hashing and
    /// sorting across trials).
    ///
    /// On the oracle backend the bank is lowered to a [`CodeRoster`] first,
    /// so both backends consume `rng` identically and return identical
    /// reports.
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is zero.
    pub fn run_bank<R: Rng + ?Sized>(
        &self,
        bank: &mut CodeBank,
        rounds: u32,
        rng: &mut R,
    ) -> EstimateReport {
        self.try_run_bank(bank, rounds, rng)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`Self::run_bank`].
    ///
    /// # Errors
    ///
    /// [`PetError::ZeroRounds`] when `rounds` is zero.
    pub fn try_run_bank<R: Rng + ?Sized>(
        &self,
        bank: &mut CodeBank,
        rounds: u32,
        rng: &mut R,
    ) -> Result<EstimateReport, PetError> {
        if self.config.backend() == Backend::Kernel
            && self.config.channel() == ChannelModel::Perfect
        {
            return self.run_fast_lossless(bank, rounds, rng);
        }
        self.run_bank_slots(bank, rounds, &mut Air::new(self.config.channel()), rng)
    }

    /// Like [`Self::try_run_bank`], but also returns the slot-by-slot
    /// [`Transcript`] (up to `capacity` slots). Both backends run
    /// slot-accurately here — even over the perfect channel — so transcripts
    /// reflect real protocol slots and are bit-for-bit comparable across
    /// [`Backend`]s under a shared seed; the differential fuzz and
    /// golden-trace suites lean on this.
    ///
    /// # Errors
    ///
    /// [`PetError::ZeroRounds`] when `rounds` is zero.
    pub fn try_run_bank_transcribed<R: Rng + ?Sized>(
        &self,
        bank: &mut CodeBank,
        rounds: u32,
        capacity: usize,
        rng: &mut R,
    ) -> Result<(EstimateReport, Transcript), PetError> {
        let mut air = Air::new(self.config.channel()).with_transcript(capacity);
        let report = self.run_bank_slots(bank, rounds, &mut air, rng)?;
        let transcript = air.transcript().cloned().expect("transcript was requested");
        Ok((report, transcript))
    }

    /// Runs `rounds` against a caller-supplied [`ResponderOracle`] and
    /// [`Air`] — the entry point for shard-scoped and distributed rounds,
    /// where responder counts come from somewhere the estimator cannot
    /// build itself (a multi-reader controller, a networked fleet
    /// coordinator, a zone shard on another machine), and for callers that
    /// broadcast on the air first (a Gen2 Select).
    ///
    /// Always executes slot by slot regardless of the configured
    /// [`Backend`]: the batched kernel requires a local [`CodeBank`], which
    /// an external oracle by definition does not have. The RNG stream (one
    /// path per round, plus a per-round seed in active mode) is identical
    /// to the other entry points, so results stay bit-for-bit comparable
    /// under a shared seed.
    ///
    /// # Errors
    ///
    /// [`PetError::ZeroRounds`] when `rounds` is zero.
    pub fn try_run_oracle<O, C, R>(
        &self,
        rounds: u32,
        oracle: &mut O,
        air: &mut Air<C>,
        rng: &mut R,
    ) -> Result<EstimateReport, PetError>
    where
        O: ResponderOracle,
        C: Channel,
        R: Rng + ?Sized,
    {
        let _session_span = session_span("core.session.oracle", rounds)?;
        Ok(self.run_slots(rounds, oracle, air, rng, |_, _| false))
    }

    /// Sequential (early-stopping) estimation — an optimization extension
    /// of [`Self::try_run_oracle`].
    ///
    /// Eq. (20) sizes the round budget from the *asymptotic* per-round
    /// deviation `σ(h) ≈ 1.87271`, which is an upper envelope: near tree
    /// boundaries and at small populations the realized spread is smaller,
    /// and a fixed budget then overshoots. This run instead monitors the
    /// *empirical* deviation of the collected gray-node observations and
    /// stops as soon as the implied confidence interval is inside `±ε` at
    /// confidence `1 − δ` — never before [`ADAPTIVE_MIN_ROUNDS`], never
    /// after the Eq. (20) budget, so the worst case is exactly the paper's
    /// protocol. The zero probe and the configured mitigation apply as on
    /// every other path.
    ///
    /// Sequential stopping peeks at the data, which inflates the realized
    /// error probability relative to a fixed-m analysis; the `adaptive`
    /// ablation measures the realized coverage so the trade-off is
    /// quantified rather than hand-waved.
    pub fn run_adaptive<O, C, R>(
        &self,
        oracle: &mut O,
        air: &mut Air<C>,
        rng: &mut R,
    ) -> EstimateReport
    where
        O: ResponderOracle,
        C: Channel,
        R: Rng + ?Sized,
    {
        let accuracy = self.config.accuracy();
        let c = accuracy.quantile();
        // The binding side of Eq. (19): log₂(1+ε) is the smaller margin.
        let margin = (1.0 + accuracy.epsilon()).log2();
        let mut spread = Describe::new();
        let _session_span = pet_obs::span("core.session.oracle");
        let budget = self.config.rounds().max(ADAPTIVE_MIN_ROUNDS);
        self.run_slots(budget, oracle, air, rng, |round, record| {
            spread.push(f64::from(record.prefix_len));
            // Stop when c·s/√m fits inside the log-domain margin.
            round >= ADAPTIVE_MIN_ROUNDS
                && c * spread.sample_std_dev() / f64::from(round).sqrt() <= margin
        })
    }

    /// The slot-by-slot protocol loop: the zero probe, then [`run_round`]
    /// until `rounds` (non-zero) are done or `stop(round, record)` says so,
    /// then the mitigation-aware aggregation.
    fn run_slots<O, C, R>(
        &self,
        rounds: u32,
        oracle: &mut O,
        air: &mut Air<C>,
        rng: &mut R,
        mut stop: impl FnMut(u32, RoundRecord) -> bool,
    ) -> EstimateReport
    where
        O: ResponderOracle,
        C: Channel,
        R: Rng + ?Sized,
    {
        if self.config.zero_probe() {
            // One match-all slot (re-probed under `Mitigation::ReProbe` —
            // a missed answer here would wrongly declare the region
            // empty): if nobody answers, the region is empty.
            let responders = oracle.responders(0);
            let outcome =
                reader::probed_slot(self.config.mitigation(), air, responders, 1, &mut 0, rng);
            if outcome.is_idle() {
                return EstimateReport::from_records(&self.config, Vec::new(), air.metrics());
            }
        }
        let mut records = Vec::with_capacity(rounds as usize);
        for round in 1..=rounds {
            let record = run_round(&self.config, oracle, air, rng);
            records.push(record);
            if stop(round, record) {
                break;
            }
        }
        EstimateReport::from_records(&self.config, records, air.metrics())
    }

    /// Runs a bank slot by slot on either backend: the kernel backend reads
    /// responder counts from the bank through a [`BankOracle`], still
    /// reusing its hash/sort work, while the oracle backend lowers it to a
    /// [`CodeRoster`].
    fn run_bank_slots<R: Rng + ?Sized>(
        &self,
        bank: &mut CodeBank,
        rounds: u32,
        air: &mut Air<ChannelModel>,
        rng: &mut R,
    ) -> Result<EstimateReport, PetError> {
        match self.config.backend() {
            Backend::Kernel => {
                let _session_span = session_span("core.session.kernel", rounds)?;
                let mut oracle = BankOracle {
                    bank,
                    family: self.family,
                    height: self.config.height(),
                    path: None,
                };
                Ok(self.run_slots(rounds, &mut oracle, air, rng, |_, _| false))
            }
            Backend::Oracle => {
                self.try_run_oracle(rounds, &mut self.roster_from_bank(bank), air, rng)
            }
        }
    }

    /// The lossless arithmetic fast path: one [`kernel::fused_round`] per
    /// round, which finds the gray node with one search and synthesizes the
    /// round's metrics from the run's [`kernel::RoundPlans`], over the
    /// bank's prefix index once a run long enough to repay it has built one
    /// ([`CodeBank::prepare_run`]), and replayed from the bank's round memo
    /// when the path's node is known ([`CodeBank::lossless_round`]).
    /// Bit-for-bit identical to the slot-by-slot loop over
    /// [`ChannelModel::Perfect`] (which draws no slot-level randomness),
    /// consuming `rng` the same way: one path draw per round, plus one seed
    /// draw in active mode.
    ///
    /// Whether a telemetry sink is installed is read once per run: with
    /// none, the loop opens no span and makes no counter call; with one,
    /// each round emits the `core.round` span and counters the slot loop
    /// emits. A sink installed mid-run counts from the next run.
    fn run_fast_lossless<R: Rng + ?Sized>(
        &self,
        bank: &mut CodeBank,
        rounds: u32,
        rng: &mut R,
    ) -> Result<EstimateReport, PetError> {
        let _session_span = session_span("core.session.kernel", rounds)?;
        let config = &self.config;
        let height = config.height();
        let probes = match config.mitigation() {
            Mitigation::ReProbe { probes } => probes,
            _ => 0,
        };
        let mut metrics = AirMetrics::default();
        if config.zero_probe() {
            let responders = bank.population();
            let outcome = SlotOutcome::from_detected(responders);
            metrics.record_slot(1, responders, outcome);
            if outcome.is_idle() {
                // Perfect-channel re-probes hear the same silence.
                for _ in 0..probes {
                    metrics.record_slot(1, responders, outcome);
                }
                return Ok(EstimateReport::from_records(config, Vec::new(), &metrics));
            }
        }
        let plans = kernel::RoundPlans::new(config);
        bank.prepare_run(rounds, &plans);
        let traced = pet_obs::enabled();
        let mut records = Vec::with_capacity(rounds as usize);
        for _ in 0..rounds {
            let round_span = traced.then(|| pet_obs::span("core.round"));
            let path = BitString::random(height, rng);
            let seed = match config.tag_mode() {
                TagMode::ActivePerRound => Some(rng.random::<u64>()),
                TagMode::PassivePreloaded => None,
            };
            bank.begin_round(seed, self.family, height);
            let before = traced.then_some(metrics);
            let record = bank.lossless_round(&path, &plans, &mut metrics);
            if let Some(before) = before {
                drop(round_span);
                reader::record_round_telemetry(config, &record);
                reader::record_outcome_telemetry(&before, &metrics);
            }
            records.push(record);
        }
        Ok(EstimateReport::from_records(config, records, &metrics))
    }

    /// Lowers a bank to the equivalent slot-by-slot oracle: passive banks
    /// already hold the manufacture-time codes, active banks re-hash from
    /// their keys exactly as the roster does.
    fn roster_from_bank(&self, bank: &CodeBank) -> CodeRoster {
        let height = self.config.height();
        match bank {
            CodeBank::Passive(_) => {
                let codes: Vec<BitString> = bank
                    .codes()
                    .iter()
                    .map(|&c| BitString::from_bits(c, height).expect("bank codes fit the height"))
                    .collect();
                CodeRoster::from_codes(&codes, height)
            }
            CodeBank::Active { keys, .. } => CodeRoster::new(keys, &self.config, self.family),
        }
    }
}

/// Opens a session's telemetry span, refusing a zero-round run first.
fn session_span(name: &'static str, rounds: u32) -> Result<pet_obs::Span, PetError> {
    if rounds == 0 {
        return Err(PetError::ZeroRounds);
    }
    Ok(pet_obs::span(name))
}

/// [`ResponderOracle`] view over a [`CodeBank`], so the kernel backend's
/// lossy and transcribed rounds replay the exact protocol loop the roster
/// oracle drives — equivalence with the oracle backend holds by
/// construction. Prefix counts come from [`kernel::count_prefix_sorted`]
/// because under a lossy channel the busy query lengths are not monotone,
/// so the roster's narrowing optimisation does not apply.
struct BankOracle<'a> {
    bank: &'a mut CodeBank,
    family: AnyFamily,
    height: u32,
    path: Option<BitString>,
}

impl ResponderOracle for BankOracle<'_> {
    fn begin_round(&mut self, start: &RoundStart) {
        self.bank.begin_round(start.seed, self.family, self.height);
        self.path = Some(start.path);
    }

    fn responders(&mut self, prefix_len: u32) -> u64 {
        if prefix_len == 0 {
            // Matches `CodeRoster`: the root query (and zero probe) counts
            // everyone, valid even before the first round starts.
            return self.bank.population();
        }
        let path = self
            .path
            .as_ref()
            .expect("responders() before begin_round()");
        kernel::count_prefix_sorted(self.bank.codes(), path, prefix_len)
    }

    fn population(&self) -> u64 {
        self.bank.population()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PetConfigBuilder;
    use crate::estimator::aggregate_records;
    use pet_phy::channel::LossyChannel;
    use pet_stats::accuracy::Accuracy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn builder(backend: Backend, mode: TagMode) -> PetConfigBuilder {
        PetConfig::builder()
            .accuracy(Accuracy::new(0.2, 0.2).unwrap())
            .backend(backend)
            .tag_mode(mode)
    }

    fn config_for(backend: Backend, mode: TagMode) -> PetConfig {
        builder(backend, mode).build().unwrap()
    }

    /// `pet-server` shares one `Estimator` value across its worker pool
    /// and moves configs between threads; these bounds are load-bearing
    /// API, so losing them (e.g. by adding an `Rc`/`RefCell` field) must
    /// fail to compile here rather than break the server.
    #[test]
    fn estimator_and_config_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Estimator>();
        assert_send_sync::<PetConfig>();
        assert_send_sync::<super::Backend>();
    }

    /// The headline guarantee: flipping `Backend` changes nothing about the
    /// result — estimate bits, per-round records, and air metrics all match.
    #[test]
    fn backends_are_bit_for_bit_identical() {
        for mode in [TagMode::PassivePreloaded, TagMode::ActivePerRound] {
            let keys: Vec<u64> = (0..900).collect();
            let oracle = Estimator::new(config_for(Backend::Oracle, mode));
            let kernel = Estimator::new(config_for(Backend::Kernel, mode));
            let mut rng_a = StdRng::seed_from_u64(31);
            let mut rng_b = StdRng::seed_from_u64(31);
            let a = oracle.estimate_keys_rounds(&keys, 48, &mut rng_a);
            let b = kernel.estimate_keys_rounds(&keys, 48, &mut rng_b);
            assert_eq!(a.estimate.to_bits(), b.estimate.to_bits(), "mode {mode:?}");
            assert_eq!(a.mean_prefix_len.to_bits(), b.mean_prefix_len.to_bits());
            assert_eq!(a.records, b.records, "mode {mode:?}");
            assert_eq!(a.metrics, b.metrics, "mode {mode:?}");
            assert_eq!(a.rounds, b.rounds);
        }
    }

    /// Same guarantee through the prebuilt-bank path the experiments use.
    #[test]
    fn run_bank_is_backend_invariant() {
        for mode in [TagMode::PassivePreloaded, TagMode::ActivePerRound] {
            let keys = Arc::new((0..700u64).collect::<Vec<_>>());
            let oracle = Estimator::new(config_for(Backend::Oracle, mode));
            let kernel = Estimator::new(config_for(Backend::Kernel, mode));
            let mut bank_a = oracle.bank_for_keys(Arc::clone(&keys));
            let mut bank_b = kernel.bank_for_keys(Arc::clone(&keys));
            let mut rng_a = StdRng::seed_from_u64(77);
            let mut rng_b = StdRng::seed_from_u64(77);
            let a = oracle.run_bank(&mut bank_a, 32, &mut rng_a);
            let b = kernel.run_bank(&mut bank_b, 32, &mut rng_b);
            assert_eq!(a.estimate.to_bits(), b.estimate.to_bits(), "mode {mode:?}");
            assert_eq!(a.records, b.records, "mode {mode:?}");
            assert_eq!(a.metrics, b.metrics, "mode {mode:?}");
        }
    }

    #[test]
    fn zero_rounds_surface_as_error() {
        for backend in [Backend::Oracle, Backend::Kernel] {
            let estimator = Estimator::new(config_for(backend, TagMode::PassivePreloaded));
            let mut rng = StdRng::seed_from_u64(1);
            let err = estimator
                .try_estimate_keys_rounds(&[1, 2, 3], 0, &mut rng)
                .unwrap_err();
            assert_eq!(err, PetError::ZeroRounds, "backend {backend:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_rounds_panic_via_wrapper() {
        let estimator = Estimator::new(config_for(Backend::Kernel, TagMode::PassivePreloaded));
        let mut rng = StdRng::seed_from_u64(1);
        let _ = estimator.estimate_keys_rounds(&[1, 2, 3], 0, &mut rng);
    }

    /// The external-oracle entry point consumes the RNG stream exactly like
    /// the key-slice entry point, so a local roster routed through it
    /// reproduces `estimate_keys_rounds` bit for bit.
    #[test]
    fn run_oracle_front_door_matches_estimate_keys() {
        let estimator = Estimator::new(config_for(Backend::Oracle, TagMode::PassivePreloaded));
        let keys: Vec<u64> = (0..600).collect();
        let mut rng_a = StdRng::seed_from_u64(99);
        let a = estimator.estimate_keys_rounds(&keys, 32, &mut rng_a);
        let mut oracle = CodeRoster::new(&keys, estimator.config(), estimator.family());
        let mut air = Air::new(estimator.config().channel());
        let mut rng_b = StdRng::seed_from_u64(99);
        let b = estimator
            .try_run_oracle(32, &mut oracle, &mut air, &mut rng_b)
            .unwrap();
        assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
        assert_eq!(a.records, b.records);
        assert_eq!(a.metrics, b.metrics);
    }

    /// Backend invariance extends to lossy channels, every mitigation, and
    /// transcripts: both backends must emit the identical slot-by-slot tape
    /// under a shared seed, fault injection included, and the untranscribed
    /// key-slice runs must report the same.
    #[test]
    fn lossy_transcripts_are_backend_invariant() {
        let lossy = ChannelModel::Lossy(LossyChannel::new(0.15, 0.03).unwrap());
        for mode in [TagMode::PassivePreloaded, TagMode::ActivePerRound] {
            for mitigation in [
                Mitigation::None,
                Mitigation::TrimmedMean { trim: 3 },
                Mitigation::ReProbe { probes: 2 },
            ] {
                let build = |backend| {
                    let config = builder(backend, mode).channel(lossy).mitigation(mitigation);
                    Estimator::new(config.build().unwrap())
                };
                let oracle = build(Backend::Oracle);
                let kernel = build(Backend::Kernel);
                let label = format!("mode {mode:?}, {mitigation:?}");
                let keys = Arc::new((0..800u64).map(|k| k * 31 + 7).collect::<Vec<_>>());
                let mut bank_a = oracle.bank_for_keys(Arc::clone(&keys));
                let mut bank_b = kernel.bank_for_keys(Arc::clone(&keys));
                let mut rng_a = StdRng::seed_from_u64(404);
                let mut rng_b = StdRng::seed_from_u64(404);
                let (a, tape_a) = oracle
                    .try_run_bank_transcribed(&mut bank_a, 24, 8192, &mut rng_a)
                    .unwrap();
                let (b, tape_b) = kernel
                    .try_run_bank_transcribed(&mut bank_b, 24, 8192, &mut rng_b)
                    .unwrap();
                assert_eq!(a.estimate.to_bits(), b.estimate.to_bits(), "{label}");
                assert_eq!(a.records, b.records, "{label}");
                assert_eq!(a.metrics, b.metrics, "{label}");
                assert_eq!(tape_a.records(), tape_b.records(), "{label}");
                assert!(!tape_a.records().is_empty());
                for estimator in [&oracle, &kernel] {
                    let mut rng = StdRng::seed_from_u64(404);
                    let c = estimator.estimate_keys_rounds(&keys, 24, &mut rng);
                    assert_eq!(a.estimate.to_bits(), c.estimate.to_bits(), "{label}");
                    assert_eq!(a.records, c.records, "{label}");
                    assert_eq!(a.metrics, c.metrics, "{label}");
                }
            }
        }
    }

    fn adaptive_run(config: PetConfig, keys: &[u64], seed: u64) -> EstimateReport {
        let estimator = Estimator::new(config);
        let mut oracle = CodeRoster::new(keys, &config, estimator.family());
        let mut air = Air::new(config.channel());
        estimator.run_adaptive(&mut oracle, &mut air, &mut StdRng::seed_from_u64(seed))
    }

    fn adaptive_config(eps: f64, delta: f64, seed: u64) -> PetConfig {
        PetConfig::builder()
            .accuracy(Accuracy::new(eps, delta).unwrap())
            .manufacture_seed(seed)
            .build()
            .unwrap()
    }

    /// Adaptive stops at or under the Eq. (20) budget and still lands near n.
    #[test]
    fn adaptive_stops_early_and_stays_accurate() {
        let budget = adaptive_config(0.10, 0.05, 0).rounds();
        let keys: Vec<u64> = (0..10_000).collect();
        let mut savings = 0u32;
        let mut worst_rel: f64 = 0.0;
        for t in 0..25 {
            let report = adaptive_run(adaptive_config(0.10, 0.05, 1_000 + t), &keys, 1_000 + t);
            assert!(report.rounds <= budget);
            savings += budget - report.rounds;
            worst_rel = worst_rel.max((report.estimate - 10_000.0).abs() / 10_000.0);
        }
        // The empirical σ is a touch under the asymptotic envelope, so at
        // least *some* trials must stop early in aggregate.
        assert!(savings > 0, "adaptive never saved a round");
        // 2ε tolerance: sequential peeking can cost a little coverage.
        assert!(worst_rel < 0.20, "worst relative error {worst_rel}");
    }

    /// Never stops before the floor, even when Eq. (20) asks for fewer
    /// rounds.
    #[test]
    fn adaptive_respects_min_rounds() {
        let config = adaptive_config(0.45, 0.45, 0);
        assert!(config.rounds() < ADAPTIVE_MIN_ROUNDS);
        let keys: Vec<u64> = (0..100).collect();
        let report = adaptive_run(config, &keys, 9);
        assert_eq!(report.rounds, ADAPTIVE_MIN_ROUNDS);
    }

    /// With a requirement so tight the empirical interval never closes
    /// early, adaptive degenerates to exactly the fixed budget.
    #[test]
    fn adaptive_worst_case_equals_fixed_budget() {
        let config = adaptive_config(0.02, 0.01, 77);
        let keys: Vec<u64> = (0..10_000).collect();
        let report = adaptive_run(config, &keys, 77);
        assert!(report.rounds <= config.rounds());
        // Tight ε: the stop rule needs most of the budget; far more rounds
        // than the floor get used.
        assert!(report.rounds > 10 * ADAPTIVE_MIN_ROUNDS);
    }

    /// An adaptive run aggregates its own records under the configured
    /// mitigation, exactly as a fixed-budget run does.
    #[test]
    fn adaptive_trimmed_mean_aggregates_its_own_records() {
        let mitigation = Mitigation::TrimmedMean { trim: 8 };
        let config = PetConfig::builder()
            .accuracy(Accuracy::new(0.10, 0.05).unwrap())
            .mitigation(mitigation)
            .build()
            .unwrap();
        let keys: Vec<u64> = (0..5_000).collect();
        let report = adaptive_run(config, &keys, 5);
        let (trimmed, mean) = aggregate_records(config.height(), &report.records, mitigation);
        assert_eq!(report.estimate.to_bits(), trimmed.to_bits());
        assert_eq!(report.mean_prefix_len.to_bits(), mean.to_bits());
        let (plain, _) = aggregate_records(config.height(), &report.records, Mitigation::None);
        assert_ne!(trimmed.to_bits(), plain.to_bits(), "the trim must matter");
    }

    /// An adaptive run over an empty region stops at the zero probe.
    #[test]
    fn adaptive_zero_probe_detects_empty_region() {
        let config = PetConfig::builder().zero_probe(true).build().unwrap();
        let report = adaptive_run(config, &[], 4);
        assert!(report.zero_detected);
        assert_eq!(report.estimate, 0.0);
        assert_eq!(report.rounds, 0);
        assert_eq!(report.metrics.slots, 1, "only the probe slot");
    }
}
