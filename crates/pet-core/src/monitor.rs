//! Continuous-monitoring estimation: sliding windows, differentials, and
//! a missing-tag alarm over a stream of population snapshots.
//!
//! One-shot PET answers "how many tags are there right now?". The paper's
//! motivating warehouse scenario is *monitoring*: tags join and leave
//! continuously, and the interesting questions are trends (Δn between
//! re-estimates), smoothed levels (a sliding window over the last `W`
//! re-estimates), and anomalies (did a pallet go missing?). This module
//! layers those on the [`Estimator`] front door without touching the
//! protocol itself — each *update* is an ordinary PET run over the current
//! key set, so every conformance guarantee of the one-shot path (bit
//! equality with the oracle reader, channel models, mitigations) carries
//! over verbatim.
//!
//! Determinism is the load-bearing property. Update `i` draws its RNG from
//! [`update_seed`]`(base_seed, i)` — a [`pet_hash::mix::mix2`] split of the
//! monitor's base seed — so any single update can be reproduced exactly by
//! a one-shot [`Estimator::try_estimate_keys_rounds`] call with the same
//! keys, rounds, and derived seed. The zero-churn streaming-conformance
//! suite pins this bit for bit against the oracle reader.
//!
//! [`ChurnStream`] is the loop every churned monitor runs (the server's
//! `monitor` verb, `pet monitor --tags`, the monitor sweep): it keeps one
//! live [`CodeBank`] per stream, starting from the bank its caller hands
//! it (the roster cache's, in all three), and applies each update's net
//! key change to it ([`CodeBank::apply_key_delta`]) instead of rebuilding
//! the bank from every key, and [`Monitor::observe_bank`] re-estimates
//! over it. The churn differential in the streaming-conformance suite pins
//! every update equal to [`Monitor::observe_keys`] over the full key set,
//! bit for bit.
//!
//! The alarm reproduces the detection-probability framing of the
//! missing-tag identification literature (arxiv 2510.18285) at the
//! estimation layer: a *reference* population (configured, or latched from
//! the first update) and a configurable fraction — when the windowed
//! estimate drops below `alarm_fraction × reference`, the update raises
//! `alarm`. Each update also carries the one-sided p-value of its observed
//! statistic under "nothing is missing" ([`ReferenceTest`]), so callers can
//! trade the crisp threshold for a significance test.
//!
//! [`ReferenceTest`] is the one missing-tag test of the workspace: the
//! stream's per-update p-value, the one-shot audit (an
//! [`Estimator::estimate_population`] run judged by `p < α`: `repro
//! detection`, `pet monitor --expected`) and `pet-apps`'s capacity guard
//! all run it, and [`detectable_fraction`] is its closed-form power.

use crate::front::Estimator;
use crate::kernel::CodeBank;
use crate::session::EstimateReport;
use crate::PetError;
use pet_stats::erf::{erf_inv, normal_cdf};
use pet_stats::gray::{GrayDistribution, SIGMA_H};
use pet_tags::dynamics::{ChurnSchedule, KeyTimeline};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::fmt;

/// Domain-separation salt for [`update_seed`] ("MONITOR" in ASCII), so a
/// monitor's per-update seeds never collide with the sim runner's
/// `trial_seed` stream even under an equal base seed.
const UPDATE_SALT: u64 = 0x004D_4F4E_4954_4F52;

/// The RNG seed of monitor update `index` under `base_seed`.
///
/// Exposed so tests, the serving layer, and the CLI can reproduce any
/// single update with a one-shot estimator run.
#[must_use]
pub fn update_seed(base_seed: u64, index: u64) -> u64 {
    pet_hash::mix::mix2(base_seed, index ^ UPDATE_SALT)
}

/// Error constructing a [`Monitor`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MonitorError {
    /// The sliding window must hold at least one update.
    ZeroWindow,
    /// Each update must run at least one round.
    ZeroRounds,
    /// The alarm fraction must lie in (0, 1).
    BadAlarmFraction(f64),
    /// A reference population must be finite and at least one tag.
    BadReference(f64),
}

impl fmt::Display for MonitorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ZeroWindow => write!(f, "window must hold at least one update"),
            Self::ZeroRounds => write!(f, "at least one round per update is required"),
            Self::BadAlarmFraction(v) => {
                write!(f, "alarm fraction must lie in (0, 1), got {v}")
            }
            Self::BadReference(v) => {
                write!(
                    f,
                    "reference population must be finite and at least one tag, got {v}"
                )
            }
        }
    }
}

impl std::error::Error for MonitorError {}

/// The one-sided test of a run's mean prefix length `L̄` against a
/// reference population `n₀`: fewer tags give shorter responsive prefixes,
/// so a small `p = Φ(z)`, `z = (L̄ − E[L | n₀]) / (σ(h)/√m)`, is evidence
/// that tags are missing. It rests on the asymptotic normal law of the
/// round mean (§4.2).
///
/// The null `E[L | n₀]` is exact ([`GrayDistribution::mean_prefix`] of the
/// reference rounded to a whole tag count) and computed once, at
/// construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReferenceTest {
    reference: f64,
    null_mean_prefix: f64,
}

impl ReferenceTest {
    /// The test against `reference` tags under a tree of `height` bits.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::BadReference`] unless `reference` is finite
    /// and at least one tag.
    pub fn new(reference: f64, height: u32) -> Result<Self, MonitorError> {
        if reference.is_finite() && reference >= 1.0 {
            Ok(Self::exact(reference, height))
        } else {
            Err(MonitorError::BadReference(reference))
        }
    }

    /// The test against `reference ≥ 1` tags (`as` saturates the cast
    /// above `u64::MAX`, where f64 has no integer resolution anyway).
    fn exact(reference: f64, height: u32) -> Self {
        let n = reference.round().max(1.0) as u64;
        Self {
            reference,
            null_mean_prefix: GrayDistribution::new(n, height).mean_prefix(),
        }
    }

    /// The reference population.
    #[must_use]
    pub fn reference(&self) -> f64 {
        self.reference
    }

    /// One-sided p-value of a run's mean prefix length over `rounds`
    /// rounds under "the population equals the reference". 0 when no
    /// round ran because the zero probe heard an empty region: the
    /// reference is at least one tag, so silence rules it out.
    #[must_use]
    pub fn p_value(&self, mean_prefix_len: f64, rounds: u32) -> f64 {
        if rounds == 0 {
            return 0.0;
        }
        let se = SIGMA_H / f64::from(rounds).sqrt();
        normal_cdf((mean_prefix_len - self.null_mean_prefix) / se)
    }
}

/// Smallest missing fraction that a [`ReferenceTest`] over `rounds` rounds,
/// alarming at `p < false_alarm_rate`, detects with probability ≥ `power`:
/// the closed-form power analysis. Detecting a fraction θ needs the mean
/// shift `|log₂(1−θ)|` to exceed `(|z_α| + z_power)·σ(h)/√m`, with the
/// one-sided quantiles `z_α = Φ⁻¹(α)` and `z_power = Φ⁻¹(power)`.
///
/// # Panics
///
/// Panics if `power` is not in (0, 1).
#[must_use]
pub fn detectable_fraction(rounds: u32, false_alarm_rate: f64, power: f64) -> f64 {
    assert!(power > 0.0 && power < 1.0, "power must be in (0, 1)");
    let se = SIGMA_H / f64::from(rounds).sqrt();
    let z_alpha = std::f64::consts::SQRT_2 * erf_inv(2.0 * false_alarm_rate - 1.0);
    let z_power = std::f64::consts::SQRT_2 * erf_inv(2.0 * power - 1.0);
    let shift = (z_alpha.abs() + z_power) * se;
    1.0 - 2f64.powf(-shift)
}

/// Configuration of a streaming [`Monitor`].
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// The protocol configuration every update runs with (accuracy,
    /// channel model, mitigation — all one-shot knobs apply).
    pub config: crate::PetConfig,
    /// Rounds per update (each update is one `m`-round PET estimate).
    pub rounds: u32,
    /// Sliding-window width `W`: the windowed estimate is the mean of the
    /// last `W` per-update estimates (fewer while warming up).
    pub window: usize,
    /// Alarm when the windowed estimate drops below this fraction of the
    /// reference population. Must lie in (0, 1).
    pub alarm_fraction: f64,
    /// Reference population for the alarm; `None` latches the first
    /// update's estimate.
    pub reference: Option<f64>,
    /// Base seed; update `i` runs under [`update_seed`]`(base_seed, i)`.
    pub base_seed: u64,
}

/// One streamed re-estimate: the raw update, its window/differential
/// context, and the alarm verdict.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorUpdate {
    /// Zero-based update index.
    pub index: u64,
    /// The RNG seed this update ran under ([`update_seed`]).
    pub seed: u64,
    /// This update's one-shot estimate `n̂ᵢ`.
    pub estimate: f64,
    /// Mean of the last `W` estimates (oldest-to-newest fold order, so the
    /// value is bit-reproducible from the raw estimates).
    pub windowed: f64,
    /// Differential `Δn = n̂ᵢ − n̂ᵢ₋₁` (zero on the first update).
    pub delta: f64,
    /// The alarm's reference population (configured or latched).
    pub reference: f64,
    /// One-sided p-value of this update's statistic under "population
    /// equals the reference" — small values are evidence of missing tags.
    /// 0 when the zero probe found the region empty: the reference is at
    /// least one tag, so silence rules it out.
    pub p_value: f64,
    /// Whether the windowed estimate fell below
    /// `alarm_fraction × reference`.
    pub alarm: bool,
    /// Rounds this update ran.
    pub rounds: u32,
    /// Mean responsive-prefix statistic `L̄` of this update.
    pub mean_prefix_len: f64,
    /// PHY pricing of this update's air transcript, when the protocol
    /// configuration carries a [`pet_phy::PhyProfile`].
    pub phy: Option<pet_phy::PhyReport>,
}

/// A streaming estimation session over a churning population.
///
/// Feed it the current key set each sampling tick via
/// [`Monitor::observe_keys`]; it runs one PET estimate under a derived
/// per-update seed and folds the result into the sliding window, the
/// differential, and the missing-tag alarm.
///
/// # Example
///
/// ```
/// use pet_core::monitor::{Monitor, MonitorConfig};
/// use pet_core::PetConfig;
/// use pet_stats::accuracy::Accuracy;
///
/// let mut monitor = Monitor::new(MonitorConfig {
///     config: PetConfig::builder()
///         .accuracy(Accuracy::new(0.1, 0.1).unwrap())
///         .build()
///         .unwrap(),
///     rounds: 64,
///     window: 4,
///     alarm_fraction: 0.5,
///     reference: None,
///     base_seed: 7,
/// })
/// .unwrap();
/// let keys: Vec<u64> = (0..1000).collect();
/// let update = monitor.observe_keys(&keys).unwrap();
/// assert_eq!(update.index, 0);
/// assert!(!update.alarm);
/// ```
#[derive(Debug, Clone)]
pub struct Monitor {
    estimator: Estimator,
    rounds: u32,
    window: usize,
    alarm_fraction: f64,
    /// The test against the reference population, latched on the first
    /// update when not configured.
    reference: Option<ReferenceTest>,
    base_seed: u64,
    /// The last `W` raw estimates, oldest first.
    history: VecDeque<f64>,
    previous: Option<f64>,
    next_index: u64,
}

impl Monitor {
    /// Builds a monitor after validating the streaming knobs (the protocol
    /// configuration validates itself in `PetConfig::builder`).
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError`] for a zero window, zero rounds, an alarm
    /// fraction outside (0, 1), or a non-positive explicit reference.
    pub fn new(config: MonitorConfig) -> Result<Self, MonitorError> {
        if config.window == 0 {
            return Err(MonitorError::ZeroWindow);
        }
        if config.rounds == 0 {
            return Err(MonitorError::ZeroRounds);
        }
        if !(config.alarm_fraction > 0.0 && config.alarm_fraction < 1.0) {
            return Err(MonitorError::BadAlarmFraction(config.alarm_fraction));
        }
        let reference = config
            .reference
            .map(|r| ReferenceTest::new(r, config.config.height()))
            .transpose()?;
        Ok(Self {
            estimator: Estimator::new(config.config),
            rounds: config.rounds,
            window: config.window,
            alarm_fraction: config.alarm_fraction,
            reference,
            base_seed: config.base_seed,
            history: VecDeque::with_capacity(config.window),
            previous: None,
            next_index: 0,
        })
    }

    /// The underlying estimator (configuration, hash family).
    #[must_use]
    pub fn estimator(&self) -> &Estimator {
        &self.estimator
    }

    /// Rounds each update runs.
    #[must_use]
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// The alarm's reference population, once known (configured, or after
    /// the first update latched it).
    #[must_use]
    pub fn reference(&self) -> Option<f64> {
        self.reference.as_ref().map(ReferenceTest::reference)
    }

    /// Number of updates observed so far.
    #[must_use]
    pub fn updates(&self) -> u64 {
        self.next_index
    }

    /// Runs one re-estimate over the current key set and folds it into the
    /// stream state.
    ///
    /// The estimate is exactly `Estimator::try_estimate_keys_rounds(keys,
    /// rounds, StdRng::seed_from_u64(update_seed(base_seed, index)))` — the
    /// property the streaming-conformance suite pins.
    ///
    /// # Errors
    ///
    /// Returns [`PetError`] from the underlying estimation run.
    pub fn observe_keys(&mut self, keys: &[u64]) -> Result<MonitorUpdate, PetError> {
        self.observe(|estimator, rounds, rng| estimator.try_estimate_keys_rounds(keys, rounds, rng))
    }

    /// Like [`Self::observe_keys`], over a prebuilt bank instead of a key
    /// set: the update is exactly `Estimator::try_run_bank(bank, rounds,
    /// StdRng::seed_from_u64(update_seed(base_seed, index)))`, which equals
    /// `observe_keys` over the bank's keys bit for bit. A stream keeps one
    /// bank and applies each update's churn to it
    /// ([`CodeBank::apply_key_delta`]), as [`ChurnStream`] does.
    ///
    /// # Errors
    ///
    /// Returns [`PetError`] from the underlying estimation run.
    pub fn observe_bank(&mut self, bank: &mut CodeBank) -> Result<MonitorUpdate, PetError> {
        self.observe(|estimator, rounds, rng| estimator.try_run_bank(bank, rounds, rng))
    }

    /// Runs one update's estimate under its derived seed and folds it into
    /// the stream state.
    fn observe(
        &mut self,
        run: impl FnOnce(&Estimator, u32, &mut StdRng) -> Result<EstimateReport, PetError>,
    ) -> Result<MonitorUpdate, PetError> {
        let index = self.next_index;
        let seed = update_seed(self.base_seed, index);
        let mut rng = StdRng::seed_from_u64(seed);
        let report = run(&self.estimator, self.rounds, &mut rng)?;
        self.next_index += 1;
        let estimate = report.estimate;
        if self.history.len() == self.window {
            self.history.pop_front();
        }
        self.history.push_back(estimate);
        let windowed = windowed_mean(self.history.iter().copied());
        let delta = self.previous.map_or(0.0, |prev| estimate - prev);
        self.previous = Some(estimate);
        let height = self.estimator.config().height();
        let test = *self
            .reference
            .get_or_insert_with(|| ReferenceTest::exact(estimate.max(1.0), height));
        let reference = test.reference();
        Ok(MonitorUpdate {
            index,
            seed,
            estimate,
            windowed,
            delta,
            reference,
            p_value: test.p_value(report.mean_prefix_len, report.rounds),
            alarm: windowed < self.alarm_fraction * reference,
            rounds: report.rounds,
            mean_prefix_len: report.mean_prefix_len,
            phy: report.phy,
        })
    }
}

/// A [`Monitor`] over a churning population: update `i` applies
/// [`ChurnSchedule::events_at`]`(i)` to a [`KeyTimeline`], hands the
/// update's net [`pet_tags::dynamics::KeyDelta`] to one live [`CodeBank`]
/// ([`CodeBank::apply_key_delta`]) and observes the bank
/// ([`Monitor::observe_bank`]).
///
/// Every update equals [`Monitor::observe_keys`] over the timeline's keys,
/// bit for bit, in both tag modes, without the O(n) work a
/// rebuild does per update (collecting and copying every key, hashing and
/// sorting them all). It holds the keys (8 B a tag), the bank's codes (8 B
/// a tag) and the last update's leaving keys.
///
/// The stream builds no bank: the caller hands it the bank of the
/// timeline's starting keys, such as the roster cache's shared one or
/// [`Estimator::bank_for_keys`]. Its codes are edited through
/// [`std::sync::Arc::make_mut`], so the first non-empty delta copies codes
/// it shares, drops the prefix index and round memo of its own clone only,
/// and leaves every other holder's bank as it was; an update with no churn
/// runs over the shared bank, index and memo included.
///
/// # Example
///
/// ```
/// use pet_core::monitor::{ChurnStream, Monitor, MonitorConfig};
/// use pet_core::PetConfig;
/// use pet_stats::accuracy::Accuracy;
/// use pet_tags::dynamics::{ChurnSchedule, KeyTimeline};
/// use std::sync::Arc;
///
/// let monitor = Monitor::new(MonitorConfig {
///     config: PetConfig::builder()
///         .accuracy(Accuracy::new(0.1, 0.1).unwrap())
///         .build()
///         .unwrap(),
///     rounds: 64,
///     window: 4,
///     alarm_fraction: 0.5,
///     reference: None,
///     base_seed: 7,
/// })
/// .unwrap();
/// let schedule = ChurnSchedule {
///     rate: 10,
///     burst_at: Some(2),
///     burst_size: 600,
/// };
/// let timeline = KeyTimeline::sequential(1_000);
/// let bank = monitor
///     .estimator()
///     .bank_for_keys(Arc::new(timeline.keys().to_vec()));
/// let mut stream = ChurnStream::new(monitor, schedule, timeline, bank);
/// for _ in 0..4 {
///     stream.next_update().unwrap();
/// }
/// assert_eq!(stream.population(), 400);
/// ```
#[derive(Debug, Clone)]
pub struct ChurnStream {
    monitor: Monitor,
    schedule: ChurnSchedule,
    timeline: KeyTimeline,
    bank: CodeBank,
}

impl ChurnStream {
    /// Starts a stream over the timeline's current keys from `bank`, the
    /// bank of exactly those keys under the monitor's configuration and
    /// hash family (its tag mode, manufacture seed and height).
    #[must_use]
    pub fn new(
        monitor: Monitor,
        schedule: ChurnSchedule,
        timeline: KeyTimeline,
        bank: CodeBank,
    ) -> Self {
        debug_assert_eq!(
            bank.population(),
            timeline.keys().len() as u64,
            "the bank must hold the timeline's keys"
        );
        Self {
            monitor,
            schedule,
            timeline,
            bank,
        }
    }

    /// Applies the next update's churn and re-estimates.
    ///
    /// # Errors
    ///
    /// Returns [`PetError`] from the underlying estimation run.
    pub fn next_update(&mut self) -> Result<MonitorUpdate, PetError> {
        let update = usize::try_from(self.monitor.updates()).expect("update index fits usize");
        let delta = self.timeline.update(&self.schedule.events_at(update));
        let estimator = self.monitor.estimator();
        let (config, family) = (estimator.config(), estimator.family());
        self.bank
            .apply_key_delta(delta.left, delta.joined, config, family);
        self.monitor.observe_bank(&mut self.bank)
    }

    /// The population the last update saw (the initial one before any).
    #[must_use]
    pub fn population(&self) -> usize {
        self.timeline.keys().len()
    }

    /// The monitor: its configuration, reference and update count.
    #[must_use]
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }
}

/// The sliding-window fold: a left-to-right (oldest-to-newest) sum divided
/// by the count. Exposed so conformance tests can reproduce the windowed
/// value bit for bit from independently produced raw estimates.
#[must_use]
pub fn windowed_mean(estimates: impl IntoIterator<Item = f64>) -> f64 {
    let (mut sum, mut count) = (0.0_f64, 0u32);
    for e in estimates {
        sum += e;
        count += 1;
    }
    sum / f64::from(count.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PetConfig;
    use pet_stats::accuracy::Accuracy;

    fn test_config() -> crate::PetConfig {
        PetConfig::builder()
            .accuracy(Accuracy::new(0.2, 0.2).unwrap())
            .build()
            .unwrap()
    }

    fn monitor(window: usize, reference: Option<f64>) -> Monitor {
        Monitor::new(MonitorConfig {
            config: test_config(),
            rounds: 32,
            window,
            alarm_fraction: 0.5,
            reference,
            base_seed: 0xF00D,
        })
        .unwrap()
    }

    #[test]
    fn construction_validates_knobs() {
        let cfg = |window, rounds, fraction, reference| MonitorConfig {
            config: test_config(),
            rounds,
            window,
            alarm_fraction: fraction,
            reference,
            base_seed: 0,
        };
        assert_eq!(
            Monitor::new(cfg(0, 32, 0.5, None)).unwrap_err(),
            MonitorError::ZeroWindow
        );
        assert_eq!(
            Monitor::new(cfg(4, 0, 0.5, None)).unwrap_err(),
            MonitorError::ZeroRounds
        );
        assert_eq!(
            Monitor::new(cfg(4, 32, 1.0, None)).unwrap_err(),
            MonitorError::BadAlarmFraction(1.0)
        );
        assert_eq!(
            Monitor::new(cfg(4, 32, 0.5, Some(0.0))).unwrap_err(),
            MonitorError::BadReference(0.0)
        );
        assert!(Monitor::new(cfg(4, 32, 0.5, Some(100.0))).is_ok());
    }

    #[test]
    fn update_seeds_are_distinct_and_stable() {
        let seeds: Vec<u64> = (0..64).map(|i| update_seed(7, i)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
        // Stable across calls (and, by construction, across processes).
        assert_eq!(update_seed(7, 3), seeds[3]);
        assert_ne!(update_seed(8, 0), update_seed(7, 0));
    }

    #[test]
    fn updates_match_one_shot_estimates() {
        let keys: Vec<u64> = (0..500).map(|i| i * 2 + 1).collect();
        let mut m = monitor(1, None);
        let estimator = Estimator::new(test_config());
        for i in 0..4u64 {
            let update = m.observe_keys(&keys).unwrap();
            let mut rng = StdRng::seed_from_u64(update_seed(0xF00D, i));
            let solo = estimator
                .try_estimate_keys_rounds(&keys, 32, &mut rng)
                .unwrap();
            assert_eq!(update.estimate.to_bits(), solo.estimate.to_bits());
            // Window of 1: the windowed value IS the raw estimate.
            assert_eq!(update.windowed.to_bits(), solo.estimate.to_bits());
            assert_eq!(update.seed, update_seed(0xF00D, i));
        }
    }

    #[test]
    fn window_and_delta_fold_deterministically() {
        let keys: Vec<u64> = (0..800).collect();
        let mut m = monitor(3, None);
        let mut raw = Vec::new();
        for i in 0..5u64 {
            let u = m.observe_keys(&keys).unwrap();
            raw.push(u.estimate);
            let start = raw.len().saturating_sub(3);
            let expect = windowed_mean(raw[start..].iter().copied());
            assert_eq!(u.windowed.to_bits(), expect.to_bits(), "update {i}");
            let expect_delta = if raw.len() > 1 {
                raw[raw.len() - 1] - raw[raw.len() - 2]
            } else {
                0.0
            };
            assert_eq!(u.delta.to_bits(), expect_delta.to_bits());
        }
    }

    #[test]
    fn alarm_fires_on_a_population_collapse() {
        let full: Vec<u64> = (0..2000).collect();
        let mut m = Monitor::new(MonitorConfig {
            config: test_config(),
            rounds: 64,
            window: 2,
            alarm_fraction: 0.6,
            reference: Some(2000.0),
            base_seed: 3,
        })
        .unwrap();
        for _ in 0..3 {
            let u = m.observe_keys(&full).unwrap();
            assert!(!u.alarm, "healthy population must not alarm");
        }
        // Lose 80% of the population; within the window the estimate
        // collapses below 60% of the reference.
        let depleted = &full[..400];
        let mut alarmed = false;
        for _ in 0..4 {
            let u = m.observe_keys(depleted).unwrap();
            alarmed |= u.alarm;
            assert!(u.reference == 2000.0);
        }
        assert!(alarmed, "an 80% loss must trip a 0.6 alarm fraction");
    }

    #[test]
    fn reference_latches_from_first_update() {
        let keys: Vec<u64> = (0..1000).collect();
        let mut m = monitor(2, None);
        assert_eq!(m.reference(), None);
        let first = m.observe_keys(&keys).unwrap();
        assert_eq!(first.reference.to_bits(), first.estimate.to_bits());
        assert_eq!(m.reference(), Some(first.estimate));
        let second = m.observe_keys(&keys).unwrap();
        assert_eq!(second.reference.to_bits(), first.estimate.to_bits());
    }

    /// An update whose zero probe hears an empty region runs no rounds;
    /// its p-value is 0, not the Φ(−0) = 0.5 of an infinite standard
    /// error.
    #[test]
    fn p_value_is_zero_when_the_zero_probe_finds_the_region_empty() {
        let full: Vec<u64> = (0..1_000).collect();
        let mut m = Monitor::new(MonitorConfig {
            config: PetConfig::builder()
                .accuracy(Accuracy::new(0.2, 0.2).unwrap())
                .zero_probe(true)
                .build()
                .unwrap(),
            rounds: 32,
            window: 4,
            alarm_fraction: 0.5,
            reference: Some(1_000.0),
            base_seed: 5,
        })
        .unwrap();
        for _ in 0..3 {
            assert!(m.observe_keys(&full).unwrap().p_value > 1e-6);
        }
        let empty = m.observe_keys(&[]).unwrap();
        assert_eq!(empty.rounds, 0);
        assert_eq!(empty.estimate, 0.0);
        assert_eq!(empty.p_value, 0.0);
    }

    #[test]
    fn p_value_drops_when_tags_go_missing() {
        let full: Vec<u64> = (0..4000).collect();
        let mut m = Monitor::new(MonitorConfig {
            config: test_config(),
            rounds: 128,
            window: 1,
            alarm_fraction: 0.5,
            reference: Some(4000.0),
            base_seed: 11,
        })
        .unwrap();
        let healthy = m.observe_keys(&full).unwrap();
        let depleted = m.observe_keys(&full[..1000]).unwrap();
        assert!(
            depleted.p_value < healthy.p_value,
            "missing tags must shrink the p-value: {} vs {}",
            depleted.p_value,
            healthy.p_value
        );
        assert!(depleted.p_value < 0.01);
    }

    /// The test counts standard errors `σ(h)/√m` from the exact null mean.
    #[test]
    fn p_value_counts_standard_errors() {
        let test = ReferenceTest::new(10_000.0, 32).unwrap();
        let null = GrayDistribution::new(10_000, 32).mean_prefix();
        assert_eq!(test.null_mean_prefix.to_bits(), null.to_bits());
        let at = |z: f64, rounds| test.p_value(null + z * SIGMA_H / 8.0, rounds);
        assert!((at(0.0, 64) - 0.5).abs() < 1e-15);
        assert!((at(1.0, 64) - normal_cdf(1.0)).abs() < 1e-12);
        assert!((at(-2.0, 64) - normal_cdf(-2.0)).abs() < 1e-12);
        // Four times the rounds halves the standard error.
        assert!((at(1.0, 256) - normal_cdf(2.0)).abs() < 1e-12);
    }

    /// A reference must be finite and at least one tag; a whole tag count
    /// is its own null.
    #[test]
    fn construction_validation() {
        for bad in [0.0, 0.5, -3.0, f64::INFINITY, f64::NAN] {
            let err = ReferenceTest::new(bad, 32).unwrap_err();
            assert!(
                matches!(err, MonitorError::BadReference(v) if v.to_bits() == bad.to_bits()),
                "{bad}: {err:?}"
            );
        }
        let test = ReferenceTest::new(10.0, 32).unwrap();
        assert_eq!(test.reference(), 10.0);
        assert_eq!(
            test.null_mean_prefix.to_bits(),
            GrayDistribution::new(10, 32).mean_prefix().to_bits()
        );
    }

    fn audit_config(seed: u64) -> PetConfig {
        PetConfig::builder()
            .accuracy(Accuracy::new(0.05, 0.05).unwrap())
            .manufacture_seed(seed)
            .build()
            .unwrap()
    }

    /// The one-shot audit as `repro detection` runs it: one estimate over
    /// `present` tags under the trial's own seed, alarming at `p < alpha`.
    fn audit_alarms(expected: u64, present: usize, alpha: f64, seed: u64) -> bool {
        let config = audit_config(seed);
        let test = ReferenceTest::new(expected as f64, config.height()).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let report = Estimator::new(config).estimate_population(
            &pet_tags::population::TagPopulation::sequential(present),
            &mut rng,
        );
        test.p_value(report.mean_prefix_len, report.rounds) < alpha
    }

    /// False-alarm calibration: with the full inventory present, the alarm
    /// rate must match the significance level.
    #[test]
    fn false_alarm_rate_is_calibrated() {
        let trials = 200;
        let alarms = (0..trials)
            .filter(|&t| audit_alarms(20_000, 20_000, 0.05, t))
            .count();
        let rate = alarms as f64 / trials as f64;
        // 5% nominal; binomial 3σ slack at 200 trials is ±4.6%.
        assert!(rate < 0.12, "false alarm rate {rate}");
    }

    /// Power: a 15% deficit must be caught essentially always at the
    /// (5%, 5%) budget (m ≈ 2,600 rounds ⇒ se ≈ 0.037 bits; the shift
    /// log₂(0.85) ≈ −0.234 is >6 standard errors).
    #[test]
    fn large_deficit_always_alarms() {
        let trials = 50;
        let caught = (0..trials)
            .filter(|&t| audit_alarms(20_000, 17_000, 0.05, 1_000 + t))
            .count() as u64;
        assert!(
            caught >= trials - 2,
            "missed deficits: caught {caught}/{trials}"
        );
    }

    /// The closed-form power analysis brackets reality: the detectable
    /// fraction at 95% power is smaller than 15% (which the audit above
    /// catches ~always) and larger than 0.1% (undetectable).
    #[test]
    fn detectable_fraction_is_sane() {
        let rounds = audit_config(0).rounds();
        let theta = detectable_fraction(rounds, 0.05, 0.95);
        assert!(theta > 0.001 && theta < 0.15, "detectable fraction {theta}");
        // More power demanded → larger detectable fraction.
        assert!(detectable_fraction(rounds, 0.05, 0.99) > detectable_fraction(rounds, 0.05, 0.50));
    }

    /// A shorter observed prefix is stronger evidence of missing tags: the
    /// audit's verdict flips from healthy to alarm at α = 5%.
    #[test]
    fn judge_is_monotone_in_observed_prefix() {
        let test = ReferenceTest::new(10_000.0, 32).unwrap();
        let null = GrayDistribution::new(10_000, 32).mean_prefix();
        let healthy = test.p_value(null, 1_000);
        let short = test.p_value(null - 0.5, 1_000);
        assert!(healthy > short);
        assert!(healthy >= 0.05, "healthy inventory alarmed: {healthy}");
        assert!(short < 0.05, "short prefix missed: {short}");
    }

    #[test]
    #[should_panic(expected = "power must be in (0, 1)")]
    fn bad_power_rejected() {
        let _ = detectable_fraction(100, 0.05, 1.0);
    }
}
