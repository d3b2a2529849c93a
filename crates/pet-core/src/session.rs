//! End-to-end PET estimation sessions.
//!
//! A session executes the `m` rounds required by the configured accuracy
//! target (Eq. (20)) and aggregates them into an estimate, tracking air
//! costs throughout. The generic [`PetSession::run`] accepts any oracle and
//! channel; [`PetSession::estimate_population`] is the one-call convenience
//! path over a lossless channel.

use crate::bits::BitString;
use crate::config::{PetConfig, TagMode};
use crate::error::PetError;
use crate::estimator::aggregate_records;
use crate::kernel::{self, CodeBank};
use crate::oracle::{CodeRoster, ResponderOracle, RoundStart};
use crate::reader::{run_round, RoundRecord};
use pet_hash::family::AnyFamily;
use pet_phy::channel::{Channel, ChannelModel};
use pet_phy::{Air, AirMetrics, PhyReport, SlotOutcome, Transcript};
use pet_tags::population::TagPopulation;
use rand::Rng;
use std::sync::Arc;

/// Result of one complete estimation.
#[derive(Debug, Clone)]
pub struct EstimateReport {
    /// The cardinality estimate `n̂`.
    pub estimate: f64,
    /// Rounds executed.
    pub rounds: u32,
    /// Mean responsive prefix length `L̄` across rounds.
    pub mean_prefix_len: f64,
    /// Air costs (slots, command bits) for the whole estimation.
    pub metrics: AirMetrics,
    /// Set when the zero probe fired and found an empty region (in which
    /// case `estimate` is exactly 0 and no rounds were run).
    pub zero_detected: bool,
    /// Per-round records, in order.
    pub records: Vec<RoundRecord>,
    /// Wall-clock/energy ledger when the config carries a
    /// [`pet_phy::PhyProfile`] (`None` otherwise). Computed as a pure fold
    /// over `metrics` after the run, so its presence never changes
    /// `estimate`, `records`, or `metrics` (pinned by the
    /// `phy_conformance` differential).
    pub phy: Option<PhyReport>,
}

/// Folds finished [`AirMetrics`] into the configured PHY report (if any)
/// and emits the `phy.wall_ms` / `phy.energy_uj` telemetry counters. Pure
/// with respect to the protocol: reads the config and metrics only.
pub(crate) fn phy_fold(config: &PetConfig, metrics: &AirMetrics) -> Option<PhyReport> {
    let report = config.phy().map(|profile| profile.report(metrics));
    if let Some(r) = &report {
        if pet_obs::enabled() {
            pet_obs::counter("phy.wall_ms", r.wall_ms.round() as u64);
            pet_obs::counter("phy.energy_uj", r.energy_uj.round() as u64);
        }
    }
    report
}

impl EstimateReport {
    /// Two-sided confidence interval of the estimate at error probability
    /// `delta`, from the asymptotic law of the mean gray-node statistic
    /// (`L̄ ~ N(E L, σ(h)/√m)` ⇒ multiplicative `2^±(c·σ/√m)` bounds).
    ///
    /// Returns `(0.0, 0.0)` when the zero probe detected an empty region.
    ///
    /// # Panics
    ///
    /// Panics if `delta` lies outside `(0, 1)` or no rounds were run on a
    /// non-empty region. [`Self::try_confidence_interval`] reports the same
    /// conditions as values.
    #[must_use]
    pub fn confidence_interval(&self, delta: f64) -> (f64, f64) {
        match self.try_confidence_interval(delta) {
            Ok(interval) => interval,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`Self::confidence_interval`].
    ///
    /// # Errors
    ///
    /// [`PetError::InvalidDelta`] when `delta` lies outside `(0, 1)`, and
    /// [`PetError::NoRoundsRun`] when the report holds no rounds on a
    /// non-empty region.
    pub fn try_confidence_interval(&self, delta: f64) -> Result<(f64, f64), PetError> {
        if self.zero_detected {
            return Ok((0.0, 0.0));
        }
        if !(delta > 0.0 && delta < 1.0) {
            return Err(PetError::InvalidDelta(delta));
        }
        if self.rounds == 0 {
            return Err(PetError::NoRoundsRun);
        }
        let c = pet_stats::erf::two_sided_quantile(delta);
        let half = c * pet_stats::gray::SIGMA_H / f64::from(self.rounds).sqrt();
        Ok((
            self.estimate * 2f64.powf(-half),
            self.estimate * 2f64.powf(half),
        ))
    }
}

/// A configured PET estimation session.
///
/// # Example
///
/// ```
/// use pet_core::session::PetSession;
/// use pet_core::config::PetConfig;
/// use pet_tags::population::TagPopulation;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(7);
/// let population = TagPopulation::sequential(10_000);
/// let session = PetSession::new(PetConfig::paper_default());
/// let report = session.estimate_population(&population, &mut rng);
/// let err = (report.estimate - 10_000.0).abs() / 10_000.0;
/// assert!(err < 0.10, "estimate {} too far off", report.estimate);
/// ```
#[derive(Debug, Clone)]
pub struct PetSession {
    config: PetConfig,
    family: AnyFamily,
}

impl PetSession {
    /// Creates a session with the default fast hash family.
    #[must_use]
    pub fn new(config: PetConfig) -> Self {
        Self {
            config,
            family: AnyFamily::default(),
        }
    }

    /// Creates a session with an explicit hash family (e.g. MD5/SHA-1 as
    /// §4.5 suggests for manufactured codes).
    #[must_use]
    pub fn with_family(config: PetConfig, family: AnyFamily) -> Self {
        Self { config, family }
    }

    /// The session's configuration.
    #[must_use]
    pub fn config(&self) -> &PetConfig {
        &self.config
    }

    /// The session's hash family.
    #[must_use]
    pub fn family(&self) -> AnyFamily {
        self.family
    }

    /// Runs the configured number of rounds (`m` from Eq. (20)) against an
    /// arbitrary oracle and channel.
    pub fn run<O, C, R>(&self, oracle: &mut O, air: &mut Air<C>, rng: &mut R) -> EstimateReport
    where
        O: ResponderOracle,
        C: Channel,
        R: Rng + ?Sized,
    {
        self.run_rounds(self.config.rounds(), oracle, air, rng)
    }

    /// Runs an explicit number of rounds — the knob the Fig. 4 sweeps turn.
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is zero. [`Self::try_run_rounds`] reports that
    /// condition as a value instead.
    pub fn run_rounds<O, C, R>(
        &self,
        rounds: u32,
        oracle: &mut O,
        air: &mut Air<C>,
        rng: &mut R,
    ) -> EstimateReport
    where
        O: ResponderOracle,
        C: Channel,
        R: Rng + ?Sized,
    {
        match self.try_run_rounds(rounds, oracle, air, rng) {
            Ok(report) => report,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`Self::run_rounds`].
    ///
    /// # Errors
    ///
    /// [`PetError::ZeroRounds`] when `rounds` is zero.
    pub fn try_run_rounds<O, C, R>(
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
        if rounds == 0 {
            return Err(PetError::ZeroRounds);
        }
        let _session_span = pet_obs::span("core.session.oracle");
        if self.config.zero_probe() {
            // One match-all slot (re-probed under `Mitigation::ReProbe` —
            // a missed answer here would wrongly declare the region
            // empty): if nobody answers, the region is empty.
            let responders = oracle.responders(0);
            let outcome = crate::reader::probed_slot(
                self.config.mitigation(),
                air,
                responders,
                1,
                &mut 0,
                rng,
            );
            if outcome.is_idle() {
                return Ok(EstimateReport {
                    estimate: 0.0,
                    rounds: 0,
                    mean_prefix_len: 0.0,
                    metrics: *air.metrics(),
                    zero_detected: true,
                    records: Vec::new(),
                    phy: phy_fold(&self.config, air.metrics()),
                });
            }
        }
        let mut records = Vec::with_capacity(rounds as usize);
        for _ in 0..rounds {
            records.push(run_round(&self.config, oracle, air, rng));
        }
        let (estimate, mean_prefix_len) =
            aggregate_records(self.config.height(), &records, self.config.mitigation());
        Ok(EstimateReport {
            estimate,
            rounds,
            mean_prefix_len,
            metrics: *air.metrics(),
            zero_detected: false,
            records,
            phy: phy_fold(&self.config, air.metrics()),
        })
    }

    /// One-call convenience: estimates a population over the configured
    /// channel model using the exact roster oracle.
    pub fn estimate_population<R: Rng + ?Sized>(
        &self,
        population: &TagPopulation,
        rng: &mut R,
    ) -> EstimateReport {
        let keys: Vec<u64> = population.keys().collect();
        let mut oracle = CodeRoster::new(&keys, &self.config, self.family);
        let mut air = Air::new(self.config.channel());
        self.run(&mut oracle, &mut air, rng)
    }

    /// Like [`Self::estimate_population`] with an explicit round count.
    pub fn estimate_population_rounds<R: Rng + ?Sized>(
        &self,
        population: &TagPopulation,
        rounds: u32,
        rng: &mut R,
    ) -> EstimateReport {
        let keys: Vec<u64> = population.keys().collect();
        let mut oracle = CodeRoster::new(&keys, &self.config, self.family);
        let mut air = Air::new(self.config.channel());
        self.run_rounds(rounds, &mut oracle, &mut air, rng)
    }
}

/// [`ResponderOracle`] view over a [`CodeBank`], used by the engine's
/// slot-accurate path so lossy-channel rounds replay the exact protocol
/// loop ([`run_round`]) that the roster oracle drives — equivalence with
/// [`PetSession`] holds by construction. Prefix counts come from
/// [`kernel::count_prefix_sorted`] because under a lossy channel the busy
/// query lengths are not monotone, so the roster's narrowing optimisation
/// does not apply.
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

/// The batched-kernel session driver.
///
/// Produces [`EstimateReport`]s **bit-for-bit identical** to
/// [`PetSession::run_rounds`] over the [`CodeRoster`] oracle for the same
/// RNG stream and channel model — estimate, per-round records, and
/// [`AirMetrics`]. Over the perfect channel each round is one search plus
/// local counts around its result (see [`crate::kernel`]);
/// over a lossy channel the engine replays the slot-accurate protocol
/// loop through a [`BankOracle`], still reusing hash/sort work through
/// [`CodeBank`]s. [`Self::try_run_transcribed`] additionally captures the
/// slot-by-slot [`Transcript`] for differential and golden-trace tests.
#[derive(Debug, Clone)]
pub struct SessionEngine {
    session: PetSession,
}

impl SessionEngine {
    /// Engine with the default fast hash family.
    #[must_use]
    pub fn new(config: PetConfig) -> Self {
        Self {
            session: PetSession::new(config),
        }
    }

    /// Engine with an explicit hash family.
    #[must_use]
    pub fn with_family(config: PetConfig, family: AnyFamily) -> Self {
        Self {
            session: PetSession::with_family(config, family),
        }
    }

    /// Wraps an existing session configuration.
    #[must_use]
    pub fn from_session(session: PetSession) -> Self {
        Self { session }
    }

    /// The wrapped session (configuration + family).
    #[must_use]
    pub fn session(&self) -> &PetSession {
        &self.session
    }

    /// Builds the [`CodeBank`] matching this engine's configuration.
    #[must_use]
    pub fn bank_for_keys(&self, keys: Arc<Vec<u64>>) -> CodeBank {
        CodeBank::for_config(keys, self.session.config(), self.session.family())
    }

    /// Runs `rounds` kernel rounds against `bank`, consuming `rng` exactly
    /// as [`PetSession::run_rounds`] does (one path draw, plus one seed
    /// draw per round in active mode; the lossless channel draws nothing).
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is zero. [`Self::try_run_fast`] reports that
    /// condition as a value instead.
    pub fn run_fast<R: Rng + ?Sized>(
        &self,
        bank: &mut CodeBank,
        rounds: u32,
        rng: &mut R,
    ) -> EstimateReport {
        match self.try_run_fast(bank, rounds, rng) {
            Ok(report) => report,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`Self::run_fast`].
    ///
    /// # Errors
    ///
    /// [`PetError::ZeroRounds`] when `rounds` is zero.
    pub fn try_run_fast<R: Rng + ?Sized>(
        &self,
        bank: &mut CodeBank,
        rounds: u32,
        rng: &mut R,
    ) -> Result<EstimateReport, PetError> {
        if rounds == 0 {
            return Err(PetError::ZeroRounds);
        }
        let _session_span = pet_obs::span("core.session.kernel");
        match self.session.config().channel() {
            ChannelModel::Perfect => self.run_fast_lossless(bank, rounds, rng),
            channel => self
                .run_slot_accurate(bank, rounds, Air::new(channel), rng)
                .map(|(report, _)| report),
        }
    }

    /// Like [`Self::try_run_fast`], but also captures the slot-by-slot
    /// [`Transcript`] (up to `capacity` slots). Always takes the
    /// slot-accurate path — even over the perfect channel — so the
    /// transcript reflects real protocol slots, not synthesized metrics.
    ///
    /// # Errors
    ///
    /// [`PetError::ZeroRounds`] when `rounds` is zero.
    pub fn try_run_transcribed<R: Rng + ?Sized>(
        &self,
        bank: &mut CodeBank,
        rounds: u32,
        capacity: usize,
        rng: &mut R,
    ) -> Result<(EstimateReport, Transcript), PetError> {
        if rounds == 0 {
            return Err(PetError::ZeroRounds);
        }
        let _session_span = pet_obs::span("core.session.kernel");
        let air = Air::new(self.session.config().channel()).with_transcript(capacity);
        let (report, transcript) = self.run_slot_accurate(bank, rounds, air, rng)?;
        Ok((report, transcript.expect("transcript was requested")))
    }

    /// The lossless arithmetic fast path: one [`kernel::fused_round`] per
    /// round, which finds the gray node with one search and synthesizes the
    /// round's metrics. Bit-for-bit identical to the oracle path over
    /// [`ChannelModel::Perfect`] (which draws no slot-level randomness).
    fn run_fast_lossless<R: Rng + ?Sized>(
        &self,
        bank: &mut CodeBank,
        rounds: u32,
        rng: &mut R,
    ) -> Result<EstimateReport, PetError> {
        let config = self.session.config();
        let family = self.session.family();
        let height = config.height();
        let probes = match config.mitigation() {
            crate::config::Mitigation::ReProbe { probes } => probes,
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
                return Ok(EstimateReport {
                    estimate: 0.0,
                    rounds: 0,
                    mean_prefix_len: 0.0,
                    metrics,
                    zero_detected: true,
                    records: Vec::new(),
                    phy: phy_fold(config, &metrics),
                });
            }
        }
        let mut records = Vec::with_capacity(rounds as usize);
        for _ in 0..rounds {
            let round_span = pet_obs::span("core.round");
            let path = BitString::random(height, rng);
            let seed = match config.tag_mode() {
                TagMode::ActivePerRound => Some(rng.random::<u64>()),
                TagMode::PassivePreloaded => None,
            };
            bank.begin_round(seed, family, height);
            let before = metrics;
            let record = kernel::fused_round(bank.codes(), &path, config, &mut metrics);
            drop(round_span);
            crate::reader::record_round_telemetry(config, &record);
            crate::reader::record_outcome_telemetry(&before, &metrics);
            records.push(record);
        }
        let (estimate, mean_prefix_len) = aggregate_records(height, &records, config.mitigation());
        Ok(EstimateReport {
            estimate,
            rounds,
            mean_prefix_len,
            metrics,
            zero_detected: false,
            records,
            phy: phy_fold(config, &metrics),
        })
    }

    /// The slot-accurate path: drives the real protocol loop
    /// ([`run_round`]) over a [`BankOracle`] and the given air, so lossy
    /// channels and transcript capture behave exactly as on the oracle
    /// path. Returns the report plus the captured transcript, if any.
    fn run_slot_accurate<R: Rng + ?Sized>(
        &self,
        bank: &mut CodeBank,
        rounds: u32,
        mut air: Air<ChannelModel>,
        rng: &mut R,
    ) -> Result<(EstimateReport, Option<Transcript>), PetError> {
        let config = self.session.config();
        let mut oracle = BankOracle {
            bank,
            family: self.session.family(),
            height: config.height(),
            path: None,
        };
        if config.zero_probe() {
            let responders = oracle.responders(0);
            let outcome = crate::reader::probed_slot(
                config.mitigation(),
                &mut air,
                responders,
                1,
                &mut 0,
                rng,
            );
            if outcome.is_idle() {
                let transcript = air.transcript().cloned();
                return Ok((
                    EstimateReport {
                        estimate: 0.0,
                        rounds: 0,
                        mean_prefix_len: 0.0,
                        metrics: *air.metrics(),
                        zero_detected: true,
                        records: Vec::new(),
                        phy: phy_fold(config, air.metrics()),
                    },
                    transcript,
                ));
            }
        }
        let mut records = Vec::with_capacity(rounds as usize);
        for _ in 0..rounds {
            records.push(run_round(config, &mut oracle, &mut air, rng));
        }
        let (estimate, mean_prefix_len) =
            aggregate_records(config.height(), &records, config.mitigation());
        let transcript = air.transcript().cloned();
        Ok((
            EstimateReport {
                estimate,
                rounds,
                mean_prefix_len,
                metrics: *air.metrics(),
                zero_detected: false,
                records,
                phy: phy_fold(config, air.metrics()),
            },
            transcript,
        ))
    }

    /// One-call convenience over a key slice (bank built ad hoc).
    pub fn estimate_keys_rounds<R: Rng + ?Sized>(
        &self,
        keys: &[u64],
        rounds: u32,
        rng: &mut R,
    ) -> EstimateReport {
        let mut bank = self.bank_for_keys(Arc::new(keys.to_vec()));
        self.run_fast(&mut bank, rounds, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Mitigation, SearchStrategy, TagMode};
    use pet_phy::channel::{LossyChannel, PerfectChannel};
    use pet_stats::accuracy::Accuracy;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn quick_config() -> PetConfig {
        // Loose accuracy to keep unit tests fast; statistical quality is
        // covered by the integration suite and benches.
        PetConfig::builder()
            .accuracy(Accuracy::new(0.2, 0.2).unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn estimates_are_in_the_right_ballpark() {
        let mut rng = StdRng::seed_from_u64(1);
        let session = PetSession::new(quick_config());
        for &n in &[100usize, 1_000, 10_000] {
            let pop = TagPopulation::sequential(n);
            let report = session.estimate_population_rounds(&pop, 256, &mut rng);
            let rel = (report.estimate - n as f64).abs() / n as f64;
            assert!(
                rel < 0.3,
                "n = {n}: estimate {} off by {rel}",
                report.estimate
            );
        }
    }

    /// Table 3's accounting: total slots = 5m at H = 32 (for n large enough
    /// that disambiguation never fires).
    #[test]
    fn slot_budget_is_five_per_round() {
        let mut rng = StdRng::seed_from_u64(2);
        let session = PetSession::new(quick_config());
        let pop = TagPopulation::sequential(5_000);
        let report = session.estimate_population_rounds(&pop, 64, &mut rng);
        assert_eq!(report.metrics.slots, 64 * 5);
        assert_eq!(report.rounds, 64);
        assert_eq!(report.records.len(), 64);
    }

    #[test]
    fn configured_rounds_follow_accuracy() {
        let mut rng = StdRng::seed_from_u64(3);
        let config = PetConfig::builder()
            .accuracy(Accuracy::new(0.3, 0.3).unwrap())
            .build()
            .unwrap();
        let session = PetSession::new(config);
        let pop = TagPopulation::sequential(1_000);
        let report = session.estimate_population(&pop, &mut rng);
        assert_eq!(report.rounds, config.rounds());
        assert_eq!(
            report.metrics.slots,
            u64::from(report.rounds) * 5,
            "5 slots/round"
        );
    }

    #[test]
    fn zero_probe_detects_empty_region() {
        let mut rng = StdRng::seed_from_u64(4);
        let config = PetConfig::builder()
            .zero_probe(true)
            .accuracy(Accuracy::new(0.2, 0.2).unwrap())
            .build()
            .unwrap();
        let session = PetSession::new(config);
        let report = session.estimate_population(&TagPopulation::new(), &mut rng);
        assert!(report.zero_detected);
        assert_eq!(report.estimate, 0.0);
        assert_eq!(report.metrics.slots, 1, "only the probe slot");
    }

    #[test]
    fn zero_probe_passes_through_when_tags_exist() {
        let mut rng = StdRng::seed_from_u64(5);
        let config = PetConfig::builder()
            .zero_probe(true)
            .accuracy(Accuracy::new(0.2, 0.2).unwrap())
            .build()
            .unwrap();
        let session = PetSession::new(config);
        let pop = TagPopulation::sequential(500);
        let report = session.estimate_population_rounds(&pop, 32, &mut rng);
        assert!(!report.zero_detected);
        assert_eq!(report.metrics.slots, 1 + 32 * 5);
    }

    #[test]
    fn without_zero_probe_empty_region_estimates_below_one() {
        let mut rng = StdRng::seed_from_u64(6);
        let session = PetSession::new(quick_config());
        let report = session.estimate_population_rounds(&TagPopulation::new(), 16, &mut rng);
        assert!(!report.zero_detected);
        assert!(report.estimate < 1.0);
    }

    /// §4.5's claim: the passive preloaded-code variant estimates as well as
    /// the active per-round variant.
    #[test]
    fn passive_and_active_modes_agree_statistically() {
        let n = 2_000usize;
        let pop = TagPopulation::sequential(n);
        let mut estimates = Vec::new();
        for mode in [TagMode::PassivePreloaded, TagMode::ActivePerRound] {
            let config = PetConfig::builder()
                .tag_mode(mode)
                .accuracy(Accuracy::new(0.2, 0.2).unwrap())
                .build()
                .unwrap();
            let session = PetSession::new(config);
            let mut rng = StdRng::seed_from_u64(7);
            let report = session.estimate_population_rounds(&pop, 512, &mut rng);
            estimates.push(report.estimate);
        }
        let rel = (estimates[0] - estimates[1]).abs() / n as f64;
        assert!(
            rel < 0.15,
            "passive {} vs active {}",
            estimates[0],
            estimates[1]
        );
    }

    #[test]
    fn linear_strategy_sessions_work_end_to_end() {
        let mut rng = StdRng::seed_from_u64(8);
        let config = PetConfig::builder()
            .search(SearchStrategy::Linear)
            .accuracy(Accuracy::new(0.2, 0.2).unwrap())
            .build()
            .unwrap();
        let session = PetSession::new(config);
        let pop = TagPopulation::sequential(1_000);
        let report = session.estimate_population_rounds(&pop, 128, &mut rng);
        let rel = (report.estimate - 1_000.0).abs() / 1_000.0;
        assert!(rel < 0.3, "estimate {}", report.estimate);
        // Linear rounds cost ≈ log₂ n + 1 slots, well above binary's 5.
        let per_round = report.metrics.slots as f64 / 128.0;
        assert!(per_round > 8.0, "slots/round {per_round}");
    }

    #[test]
    fn confidence_interval_brackets_truth_usually() {
        let mut rng = StdRng::seed_from_u64(10);
        let session = PetSession::new(quick_config());
        let pop = TagPopulation::sequential(5_000);
        let report = session.estimate_population_rounds(&pop, 256, &mut rng);
        let (lo, hi) = report.confidence_interval(0.05);
        assert!(lo < report.estimate && report.estimate < hi);
        assert!(lo < 5_000.0 && 5_000.0 < hi, "CI ({lo}, {hi}) misses truth");
        // Tighter delta → wider interval.
        let (lo2, hi2) = report.confidence_interval(0.001);
        assert!(lo2 < lo && hi2 > hi);
    }

    #[test]
    fn confidence_interval_zero_region() {
        let mut rng = StdRng::seed_from_u64(11);
        let config = PetConfig::builder()
            .zero_probe(true)
            .accuracy(Accuracy::new(0.2, 0.2).unwrap())
            .build()
            .unwrap();
        let report = PetSession::new(config).estimate_population(&TagPopulation::new(), &mut rng);
        assert_eq!(report.confidence_interval(0.05), (0.0, 0.0));
    }

    /// The engine's report must equal the oracle-path report field by
    /// field (estimate bits, records, metrics) for the same RNG stream.
    #[test]
    fn engine_matches_session_bit_for_bit() {
        for mode in [TagMode::PassivePreloaded, TagMode::ActivePerRound] {
            for zero_probe in [false, true] {
                let config = PetConfig::builder()
                    .tag_mode(mode)
                    .zero_probe(zero_probe)
                    .accuracy(Accuracy::new(0.2, 0.2).unwrap())
                    .build()
                    .unwrap();
                let pop = TagPopulation::sequential(700);
                let session = PetSession::new(config);
                let engine = SessionEngine::from_session(session.clone());
                let mut rng_a = StdRng::seed_from_u64(77);
                let mut rng_b = StdRng::seed_from_u64(77);
                let slow = session.estimate_population_rounds(&pop, 48, &mut rng_a);
                let keys: Vec<u64> = pop.keys().collect();
                let fast = engine.estimate_keys_rounds(&keys, 48, &mut rng_b);
                assert_eq!(slow.estimate.to_bits(), fast.estimate.to_bits());
                assert_eq!(
                    slow.mean_prefix_len.to_bits(),
                    fast.mean_prefix_len.to_bits()
                );
                assert_eq!(slow.records, fast.records, "mode {mode:?}");
                assert_eq!(slow.metrics, fast.metrics, "mode {mode:?}");
                assert_eq!(slow.rounds, fast.rounds);
                assert_eq!(slow.zero_detected, fast.zero_detected);
            }
        }
    }

    /// Zero probe over an empty bank short-circuits identically.
    #[test]
    fn engine_zero_probe_detects_empty_region() {
        let config = PetConfig::builder()
            .zero_probe(true)
            .accuracy(Accuracy::new(0.2, 0.2).unwrap())
            .build()
            .unwrap();
        let session = PetSession::new(config);
        let engine = SessionEngine::from_session(session.clone());
        let mut rng_a = StdRng::seed_from_u64(4);
        let mut rng_b = StdRng::seed_from_u64(4);
        let slow = session.estimate_population(&TagPopulation::new(), &mut rng_a);
        let fast = engine.estimate_keys_rounds(&[], config.rounds(), &mut rng_b);
        assert!(fast.zero_detected);
        assert_eq!(slow.metrics, fast.metrics);
        assert_eq!(slow.estimate.to_bits(), fast.estimate.to_bits());
    }

    #[test]
    fn try_confidence_interval_reports_errors() {
        let mut rng = StdRng::seed_from_u64(10);
        let session = PetSession::new(quick_config());
        let pop = TagPopulation::sequential(100);
        let report = session.estimate_population_rounds(&pop, 16, &mut rng);
        let (lo, hi) = report.try_confidence_interval(0.05).unwrap();
        assert_eq!((lo, hi), report.confidence_interval(0.05));
        assert_eq!(
            report.try_confidence_interval(0.0).unwrap_err(),
            crate::PetError::InvalidDelta(0.0)
        );
        let mut unrun = report.clone();
        unrun.rounds = 0;
        assert_eq!(
            unrun.try_confidence_interval(0.05).unwrap_err(),
            crate::PetError::NoRoundsRun
        );
    }

    #[test]
    fn try_run_rounds_rejects_zero_as_value() {
        let mut rng = StdRng::seed_from_u64(9);
        let session = PetSession::new(quick_config());
        let keys: Vec<u64> = (0..10).collect();
        let mut oracle = CodeRoster::new(&keys, session.config(), session.family());
        let mut air = Air::new(PerfectChannel);
        let err = session
            .try_run_rounds(0, &mut oracle, &mut air, &mut rng)
            .unwrap_err();
        assert_eq!(err, crate::PetError::ZeroRounds);
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_rounds_rejected() {
        let mut rng = StdRng::seed_from_u64(9);
        let session = PetSession::new(quick_config());
        let _ = session.estimate_population_rounds(&TagPopulation::sequential(10), 0, &mut rng);
    }

    fn lossy_config(mode: TagMode, mitigation: Mitigation) -> PetConfig {
        PetConfig::builder()
            .tag_mode(mode)
            .channel(ChannelModel::Lossy(LossyChannel::new(0.1, 0.02).unwrap()))
            .mitigation(mitigation)
            .accuracy(Accuracy::new(0.2, 0.2).unwrap())
            .build()
            .unwrap()
    }

    /// The tentpole invariant: backend equivalence must survive fault
    /// injection — lossy channel, both tag modes, with and without
    /// mitigation.
    #[test]
    fn engine_matches_session_bit_for_bit_under_loss() {
        for mode in [TagMode::PassivePreloaded, TagMode::ActivePerRound] {
            for mitigation in [
                Mitigation::None,
                Mitigation::TrimmedMean { trim: 3 },
                Mitigation::ReProbe { probes: 2 },
            ] {
                let config = lossy_config(mode, mitigation);
                let pop = TagPopulation::sequential(600);
                let session = PetSession::new(config);
                let engine = SessionEngine::from_session(session.clone());
                let mut rng_a = StdRng::seed_from_u64(123);
                let mut rng_b = StdRng::seed_from_u64(123);
                let slow = session.estimate_population_rounds(&pop, 48, &mut rng_a);
                let keys: Vec<u64> = pop.keys().collect();
                let fast = engine.estimate_keys_rounds(&keys, 48, &mut rng_b);
                assert_eq!(slow.estimate.to_bits(), fast.estimate.to_bits());
                assert_eq!(slow.records, fast.records, "mode {mode:?} {mitigation:?}");
                assert_eq!(slow.metrics, fast.metrics, "mode {mode:?} {mitigation:?}");
            }
        }
    }

    /// A lossy channel actually perturbs the transcript relative to the
    /// perfect channel under the same seed (the fault injection is live).
    #[test]
    fn lossy_channel_changes_outcomes() {
        let perfect = PetConfig::builder()
            .accuracy(Accuracy::new(0.2, 0.2).unwrap())
            .build()
            .unwrap();
        let heavy = PetConfig::builder()
            .channel(ChannelModel::Lossy(LossyChannel::new(0.4, 0.0).unwrap()))
            .accuracy(Accuracy::new(0.2, 0.2).unwrap())
            .build()
            .unwrap();
        let pop = TagPopulation::sequential(500);
        let mut rng_a = StdRng::seed_from_u64(5);
        let mut rng_b = StdRng::seed_from_u64(5);
        let clean = PetSession::new(perfect).estimate_population_rounds(&pop, 64, &mut rng_a);
        let noisy = PetSession::new(heavy).estimate_population_rounds(&pop, 64, &mut rng_b);
        assert_ne!(clean.records, noisy.records, "40% miss must perturb rounds");
        // Missed responses bias the prefix statistic low.
        assert!(noisy.mean_prefix_len < clean.mean_prefix_len);
    }

    /// The transcribed engine path equals the oracle path's transcript
    /// slot for slot, and its report equals `try_run_fast`'s.
    #[test]
    fn transcribed_run_matches_oracle_transcript() {
        for mitigation in [Mitigation::None, Mitigation::TrimmedMean { trim: 2 }] {
            let config = lossy_config(TagMode::PassivePreloaded, mitigation);
            let session = PetSession::new(config);
            let engine = SessionEngine::from_session(session.clone());
            let keys: Vec<u64> = (0..400u64).map(|k| k.wrapping_mul(0x9e37_79b9)).collect();

            let mut rng_a = StdRng::seed_from_u64(42);
            let mut oracle = CodeRoster::new(&keys, session.config(), session.family());
            let mut air = Air::new(config.channel()).with_transcript(4096);
            let slow = session.run_rounds(32, &mut oracle, &mut air, &mut rng_a);
            let slow_tape = air.transcript().cloned().unwrap();

            let mut rng_b = StdRng::seed_from_u64(42);
            let mut bank = engine.bank_for_keys(Arc::new(keys.clone()));
            let (fast, fast_tape) = engine
                .try_run_transcribed(&mut bank, 32, 4096, &mut rng_b)
                .unwrap();
            assert_eq!(slow.estimate.to_bits(), fast.estimate.to_bits());
            assert_eq!(slow.records, fast.records);
            assert_eq!(slow.metrics, fast.metrics);
            assert_eq!(slow_tape.records(), fast_tape.records());
            assert!(!fast_tape.records().is_empty());
        }
    }

    /// `Perfect + ReProbe` exercises the arithmetic fast path's synthetic
    /// re-probe accounting against the slot-accurate oracle loop: idle
    /// readings repeat, busy ones don't, and the statistic is untouched.
    #[test]
    fn reprobe_on_perfect_channel_only_adds_idle_slots() {
        for mode in [TagMode::PassivePreloaded, TagMode::ActivePerRound] {
            let build = |mitigation| {
                PetConfig::builder()
                    .tag_mode(mode)
                    .mitigation(mitigation)
                    .accuracy(Accuracy::new(0.2, 0.2).unwrap())
                    .build()
                    .unwrap()
            };
            let probed = build(Mitigation::ReProbe { probes: 2 });
            let pop = TagPopulation::sequential(300);
            let keys: Vec<u64> = pop.keys().collect();
            let session = PetSession::new(probed);
            let engine = SessionEngine::from_session(session.clone());
            let mut rng_a = StdRng::seed_from_u64(21);
            let mut rng_b = StdRng::seed_from_u64(21);
            let slow = session.estimate_population_rounds(&pop, 40, &mut rng_a);
            let fast = engine.estimate_keys_rounds(&keys, 40, &mut rng_b);
            assert_eq!(slow.estimate.to_bits(), fast.estimate.to_bits());
            assert_eq!(slow.records, fast.records, "mode {mode:?}");
            assert_eq!(slow.metrics, fast.metrics, "mode {mode:?}");

            // Same seed without re-probe: identical statistic, fewer slots
            // (each binary round re-reads its idle decisions twice).
            let mut rng_c = StdRng::seed_from_u64(21);
            let plain = PetSession::new(build(Mitigation::None))
                .estimate_population_rounds(&pop, 40, &mut rng_c);
            assert_eq!(plain.estimate.to_bits(), slow.estimate.to_bits());
            assert!(slow.metrics.slots > plain.metrics.slots);
            assert_eq!(slow.metrics.collision, plain.metrics.collision);
            assert_eq!(slow.metrics.singleton, plain.metrics.singleton);
        }
    }

    /// Re-probing measurably recovers loss-truncated prefixes: under a
    /// miss-heavy channel the probed session's statistic moves back toward
    /// the clean one.
    #[test]
    fn reprobe_recovers_missed_responses() {
        let channel = ChannelModel::Lossy(LossyChannel::new(0.3, 0.0).unwrap());
        let build = |mitigation| {
            PetConfig::builder()
                .channel(channel)
                .mitigation(mitigation)
                .accuracy(Accuracy::new(0.2, 0.2).unwrap())
                .build()
                .unwrap()
        };
        let pop = TagPopulation::sequential(2_000);
        let clean_cfg = PetConfig::builder()
            .accuracy(Accuracy::new(0.2, 0.2).unwrap())
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(33);
        let clean = PetSession::new(clean_cfg).estimate_population_rounds(&pop, 128, &mut rng);
        let mut rng = StdRng::seed_from_u64(33);
        let lossy = PetSession::new(build(Mitigation::None))
            .estimate_population_rounds(&pop, 128, &mut rng);
        let mut rng = StdRng::seed_from_u64(33);
        let probed = PetSession::new(build(Mitigation::ReProbe { probes: 2 }))
            .estimate_population_rounds(&pop, 128, &mut rng);
        assert!(lossy.mean_prefix_len < clean.mean_prefix_len);
        assert!(
            probed.mean_prefix_len > lossy.mean_prefix_len,
            "probed {} vs lossy {}",
            probed.mean_prefix_len,
            lossy.mean_prefix_len
        );
        let gap = |r: &EstimateReport| (r.mean_prefix_len - clean.mean_prefix_len).abs();
        assert!(gap(&probed) < gap(&lossy));
    }

    /// Mitigation changes only the aggregation, not the protocol: same
    /// records and metrics, different estimate arithmetic.
    #[test]
    fn mitigation_is_aggregation_only() {
        let pop = TagPopulation::sequential(900);
        let mut reports = Vec::new();
        for mitigation in [Mitigation::None, Mitigation::TrimmedMean { trim: 4 }] {
            let config = lossy_config(TagMode::PassivePreloaded, mitigation);
            let mut rng = StdRng::seed_from_u64(9);
            reports.push(PetSession::new(config).estimate_population_rounds(&pop, 40, &mut rng));
        }
        assert_eq!(reports[0].records, reports[1].records);
        assert_eq!(reports[0].metrics, reports[1].metrics);
    }
}
