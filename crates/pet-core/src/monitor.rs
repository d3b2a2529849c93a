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
//! live [`CodeBank`] per stream and applies each update's net key change to
//! it ([`CodeBank::apply_key_delta`]) instead of rebuilding the bank from
//! every key, and [`Monitor::observe_bank`] re-estimates over it. The
//! churn differential in the streaming-conformance suite pins every update
//! equal to [`Monitor::observe_keys`] over the full key set, bit for bit.
//!
//! The alarm reproduces the detection-probability framing of the
//! missing-tag identification literature (arxiv 2510.18285) at the
//! estimation layer: a *reference* population (configured, or latched from
//! the first update) and a configurable fraction — when the windowed
//! estimate drops below `alarm_fraction × reference`, the update raises
//! `alarm`. Each update also carries the one-sided p-value of its observed
//! statistic under "nothing is missing" ([`pet_stats::gray::z_statistic`],
//! the z-test `pet-apps::monitor` runs too), so callers can trade the crisp
//! threshold for a significance test.

use crate::config::TagMode;
use crate::front::Estimator;
use crate::kernel::{self, CodeBank};
use crate::session::EstimateReport;
use crate::PetError;
use pet_stats::erf::normal_cdf;
use pet_stats::gray::{z_statistic, GrayDistribution};
use pet_tags::dynamics::{ChurnSchedule, KeyTimeline};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

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
    /// An explicit reference population must be positive and finite.
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
                    "reference population must be positive and finite, got {v}"
                )
            }
        }
    }
}

impl std::error::Error for MonitorError {}

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
    /// `(reference, E[L] at the reference)`, latched on the first update
    /// when not configured.
    reference: Option<(f64, f64)>,
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
        let height = config.config.height();
        let reference = match config.reference {
            None => None,
            Some(r) if r.is_finite() && r >= 1.0 => Some((r, null_mean_prefix(r, height))),
            Some(r) => return Err(MonitorError::BadReference(r)),
        };
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
        self.reference.map(|(r, _)| r)
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
        let (reference, null_prefix) = *self.reference.get_or_insert_with(|| {
            let latched = estimate.max(1.0);
            (latched, null_mean_prefix(latched, height))
        });
        // Zero rounds means the zero probe heard an empty region.
        let p_value = if report.rounds == 0 {
            0.0
        } else {
            let z = z_statistic(report.mean_prefix_len, null_prefix, report.rounds);
            normal_cdf(z)
        };
        Ok(MonitorUpdate {
            index,
            seed,
            estimate,
            windowed,
            delta,
            reference,
            p_value,
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
/// # Example
///
/// ```
/// use pet_core::monitor::{ChurnStream, Monitor, MonitorConfig};
/// use pet_core::PetConfig;
/// use pet_stats::accuracy::Accuracy;
/// use pet_tags::dynamics::{ChurnSchedule, KeyTimeline};
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
/// let mut stream = ChurnStream::new(monitor, schedule, KeyTimeline::sequential(1_000));
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
    /// Starts a stream over the timeline's current keys, building the
    /// stream's bank from them once.
    #[must_use]
    pub fn new(monitor: Monitor, schedule: ChurnSchedule, timeline: KeyTimeline) -> Self {
        let estimator = monitor.estimator();
        let (config, family) = (estimator.config(), estimator.family());
        let bank = match config.tag_mode() {
            // Hash straight from the timeline's keys: a passive bank keeps
            // no copy of them.
            TagMode::PassivePreloaded => CodeBank::passive_shared(Arc::new(
                kernel::build_passive_codes(timeline.keys(), config, family),
            )),
            TagMode::ActivePerRound => estimator.bank_for_keys(Arc::new(timeline.keys().to_vec())),
        };
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

/// Exact `E[L]` for a reference population (rounded to a whole tag count),
/// the null center of the per-update z-test.
fn null_mean_prefix(reference: f64, height: u32) -> f64 {
    let n = reference.round().max(1.0);
    // f64 above 2^53 loses integer resolution anyway; clamp for the cast.
    let n = if n >= u64::MAX as f64 {
        u64::MAX
    } else {
        n as u64
    };
    GrayDistribution::new(n, height).mean_prefix()
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
}
