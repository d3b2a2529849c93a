//! Multi-reader deployments with a duplicate-insensitive controller
//! (paper §4.6.3).
//!
//! Readers cover (possibly overlapping) sets of zones; a back-end controller
//! broadcasts each round's estimating path through every reader, collects
//! their per-slot busy/idle reports, and "takes a slot as idle only when no
//! tag response is reported from any readers". A tag heard by three readers
//! contributes exactly the same as a tag heard by one — the
//! duplicate-insensitivity that makes overlapping coverage and mobile tags
//! correct by construction.

use pet_core::config::PetConfig;
use pet_core::front::Estimator;
use pet_core::oracle::{CodeRoster, ResponderOracle, RoundStart};
use pet_hash::family::AnyFamily;
use pet_phy::channel::{ChannelModel, PerfectChannel};
use pet_phy::Air;
use pet_tags::mobility::ZoneField;
use pet_tags::population::TagPopulation;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::fmt;

/// The deterministic shard derivation shared by every party of a
/// distributed deployment: `tags` sequential keys scattered uniformly over
/// `zones` zones by `StdRng(deploy_seed)`, restricted to the zones in
/// `coverage`. A networked reader agent and the coordinator's local
/// reference (see [`Deployment::synthetic`]) both call this, so they agree
/// on every shard without shipping key lists over the wire.
#[must_use]
pub fn shard_keys(tags: usize, zones: u32, deploy_seed: u64, coverage: &[u32]) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(deploy_seed);
    let keys: Vec<u64> = TagPopulation::sequential(tags).keys().collect();
    let field = ZoneField::uniform(tags, zones, &mut rng);
    field
        .visible_to(coverage)
        .into_iter()
        .map(|idx| keys[idx])
        .collect()
}

/// The coverage ratio both the sim and the fleet coordinator report for a
/// round: covered tags of the answering reader set over covered tags of
/// the full fleet. Shared so the two stay bit-for-bit comparable.
#[must_use]
pub fn coverage_fraction(covered: u64, covered_all: u64) -> f64 {
    if covered_all == 0 {
        1.0
    } else {
        covered as f64 / covered_all as f64
    }
}

/// A fixed deployment: a population scattered over zones, and readers
/// covering zone subsets.
#[derive(Debug, Clone)]
pub struct Deployment {
    keys: Vec<u64>,
    field: ZoneField,
    coverages: Vec<Vec<u32>>,
}

/// One scheduled reader outage: from the start of round `round` (0-based)
/// onward, reader `reader` reports nothing and draws no channel noise —
/// exactly what a fleet coordinator observes when an agent dies mid-session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kill {
    /// First round (0-based) the reader is gone for.
    pub round: u32,
    /// Index of the reader to kill.
    pub reader: usize,
}

/// A kill schedule plus the quorum rule for merging partial rounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutagePlan {
    /// Scheduled outages (may be empty).
    pub kills: Vec<Kill>,
    /// Minimum number of answering readers for a round to proceed; a round
    /// with fewer fails the whole estimation with [`QuorumLost`].
    pub quorum: usize,
}

impl Default for OutagePlan {
    fn default() -> Self {
        Self {
            kills: Vec::new(),
            quorum: 1,
        }
    }
}

/// The explicit failure when a round cannot gather its quorum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuorumLost {
    /// The 0-based round that failed.
    pub round: u32,
    /// How many readers answered it.
    pub answered: usize,
    /// The quorum that was required.
    pub quorum: usize,
}

impl fmt::Display for QuorumLost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "quorum lost at round {}: {} of {} required readers answered",
            self.round, self.answered, self.quorum
        )
    }
}

impl std::error::Error for QuorumLost {}

/// Outcome of a multi-reader estimation under an [`OutagePlan`].
#[derive(Debug, Clone)]
pub struct FleetSimReport {
    /// The controller's cardinality estimate.
    pub estimate: f64,
    /// Mean gray-node prefix length across rounds (Eq. (5) statistic).
    pub mean_prefix_len: f64,
    /// Protocol slots elapsed at the controller.
    pub controller_slots: u64,
    /// Tags visible to at least one reader of the *full* fleet.
    pub covered_tags: u64,
    /// Mean per-round coverage ratio: covered tags of the answering set
    /// over covered tags of the full fleet (1.0 when nobody died).
    pub effective_coverage: f64,
    /// Rounds every reader answered.
    pub full_rounds: u32,
    /// Rounds merged from a partial (but ≥ quorum) reader set.
    pub partial_rounds: u32,
}

/// Outcome of a multi-reader estimation.
#[derive(Debug, Clone)]
pub struct MultiReaderReport {
    /// The controller's cardinality estimate.
    pub estimate: f64,
    /// Protocol slots elapsed (wall-clock slots; all readers operate in the
    /// same slot concurrently).
    pub controller_slots: u64,
    /// Total reader-slot activations (`controller_slots × readers`).
    pub reader_slot_total: u64,
    /// Tags visible to at least one reader — what the controller can
    /// possibly count.
    pub covered_tags: u64,
}

impl Deployment {
    /// Builds a deployment.
    ///
    /// # Panics
    ///
    /// Panics if the field does not track exactly the population, no readers
    /// are given, or a coverage references a zone outside the field.
    #[must_use]
    pub fn new(population: &TagPopulation, field: ZoneField, coverages: Vec<Vec<u32>>) -> Self {
        assert_eq!(
            field.len(),
            population.len(),
            "zone field must track every tag"
        );
        assert!(!coverages.is_empty(), "need at least one reader");
        for (i, cov) in coverages.iter().enumerate() {
            for &z in cov {
                assert!(
                    z < field.zone_count(),
                    "reader {i} covers nonexistent zone {z}"
                );
            }
        }
        Self {
            keys: population.keys().collect(),
            field,
            coverages,
        }
    }

    /// Builds a deployment from the deterministic derivation of
    /// [`shard_keys`]: `tags` sequential keys over `zones` zones seeded by
    /// `deploy_seed`. The fleet coordinator and its reader agents each
    /// reconstruct the same deployment from these four wire-size scalars.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Self::new`].
    #[must_use]
    pub fn synthetic(tags: usize, zones: u32, deploy_seed: u64, coverages: Vec<Vec<u32>>) -> Self {
        let mut rng = StdRng::seed_from_u64(deploy_seed);
        let pop = TagPopulation::sequential(tags);
        let field = ZoneField::uniform(tags, zones, &mut rng);
        Self::new(&pop, field, coverages)
    }

    /// Number of readers deployed.
    #[must_use]
    pub fn reader_count(&self) -> usize {
        self.coverages.len()
    }

    /// The zone coverage of each reader.
    #[must_use]
    pub fn coverages(&self) -> &[Vec<u32>] {
        &self.coverages
    }

    /// Keys of tags visible to reader `i`.
    #[must_use]
    pub fn visible_keys(&self, reader: usize) -> Vec<u64> {
        self.field
            .visible_to(&self.coverages[reader])
            .into_iter()
            .map(|idx| self.keys[idx])
            .collect()
    }

    /// Keys visible to at least one of the given readers (the union a
    /// degraded controller can still count).
    #[must_use]
    pub fn covered_keys_of(&self, readers: &[usize]) -> Vec<u64> {
        let mut zones: Vec<u32> = readers
            .iter()
            .flat_map(|&r| self.coverages[r].iter().copied())
            .collect();
        zones.sort_unstable();
        zones.dedup();
        self.field
            .visible_to(&zones)
            .into_iter()
            .map(|idx| self.keys[idx])
            .collect()
    }

    /// Keys visible to at least one reader (the union the controller
    /// effectively estimates).
    #[must_use]
    pub fn covered_keys(&self) -> Vec<u64> {
        let all: Vec<usize> = (0..self.reader_count()).collect();
        self.covered_keys_of(&all)
    }

    /// Runs a controller-coordinated PET estimation over this deployment.
    ///
    /// Each reader may have its own (lossy) channel; the controller's
    /// aggregation happens *after* per-reader detection, exactly as §4.6.3
    /// describes.
    pub fn estimate<R: Rng + ?Sized>(
        &self,
        config: &PetConfig,
        rounds: u32,
        per_reader_channel: ChannelModel,
        rng: &mut R,
    ) -> MultiReaderReport {
        let report = self
            .try_estimate_with_outages(
                config,
                rounds,
                per_reader_channel,
                &OutagePlan::default(),
                rng,
            )
            .expect("an empty outage plan cannot lose its one-reader quorum");
        MultiReaderReport {
            estimate: report.estimate,
            controller_slots: report.controller_slots,
            reader_slot_total: report.controller_slots * self.coverages.len() as u64,
            covered_tags: report.covered_tags,
        }
    }

    /// Runs a controller-coordinated estimation while readers die on a
    /// schedule — the in-process reference for the networked `pet-fleet`
    /// coordinator. A killed reader contributes no reports *and draws no
    /// channel noise* from its death round onward, exactly as a coordinator
    /// that stops hearing from an agent; rounds with at least
    /// [`OutagePlan::quorum`] answering readers merge the partial reports,
    /// rounds with fewer fail the whole run explicitly.
    ///
    /// # Errors
    ///
    /// [`QuorumLost`] when any round gathers fewer than `plan.quorum`
    /// answering readers.
    ///
    /// # Panics
    ///
    /// Panics if `rounds` is zero or a kill references a reader outside the
    /// deployment.
    pub fn try_estimate_with_outages<R: Rng + ?Sized>(
        &self,
        config: &PetConfig,
        rounds: u32,
        per_reader_channel: ChannelModel,
        plan: &OutagePlan,
        rng: &mut R,
    ) -> Result<FleetSimReport, QuorumLost> {
        for k in &plan.kills {
            assert!(
                k.reader < self.reader_count(),
                "kill references reader {} of a {}-reader deployment",
                k.reader,
                self.reader_count()
            );
        }
        let estimator = Estimator::new(*config);
        let mut controller = ControllerOracle::new(self, config, per_reader_channel, plan);
        // The controller-side Air must not re-apply loss: per-reader
        // channels already did.
        let mut air = Air::new(PerfectChannel);
        let report = estimator
            .try_run_oracle(rounds, &mut controller, &mut air, rng)
            .unwrap_or_else(|e| panic!("{e}"));
        if let Some(lost) = controller.failure {
            return Err(lost);
        }
        let executed = controller.full_rounds + controller.partial_rounds;
        Ok(FleetSimReport {
            estimate: report.estimate,
            mean_prefix_len: report.mean_prefix_len,
            controller_slots: report.metrics.slots,
            covered_tags: self.covered_keys().len() as u64,
            effective_coverage: if executed == 0 {
                1.0
            } else {
                controller.coverage_sum / f64::from(executed)
            },
            full_rounds: controller.full_rounds,
            partial_rounds: controller.partial_rounds,
        })
    }
}

/// The back-end controller as a [`ResponderOracle`]: fans a query out to
/// every live reader, applies each reader's channel to its own visible
/// responders, and reports how many readers heard energy (0 ⇒ idle slot).
/// Readers die according to the [`OutagePlan`]; dead readers are skipped
/// entirely — no report, no channel-noise draw — which is exactly what a
/// networked coordinator observes, and what keeps this oracle bit-for-bit
/// comparable with `pet-fleet`.
struct ControllerOracle<'d> {
    deployment: &'d Deployment,
    readers: Vec<CodeRoster>,
    channels: Vec<ChannelModel>,
    alive: Vec<bool>,
    kills: Vec<Kill>,
    quorum: usize,
    round: u32,
    rng: StdRng,
    covered_all: u64,
    coverage_cache: HashMap<Vec<bool>, f64>,
    coverage_sum: f64,
    full_rounds: u32,
    partial_rounds: u32,
    failure: Option<QuorumLost>,
}

impl<'d> ControllerOracle<'d> {
    fn new(
        deployment: &'d Deployment,
        config: &PetConfig,
        channel: ChannelModel,
        plan: &OutagePlan,
    ) -> Self {
        let readers = (0..deployment.reader_count())
            .map(|i| CodeRoster::new(&deployment.visible_keys(i), config, AnyFamily::default()))
            .collect();
        let channels = vec![channel; deployment.reader_count()];
        Self {
            deployment,
            readers,
            channels,
            alive: vec![true; deployment.reader_count()],
            kills: plan.kills.clone(),
            quorum: plan.quorum,
            round: 0,
            // Channel noise stream; deterministic per deployment run.
            rng: StdRng::seed_from_u64(0x5EED_C0DE),
            covered_all: deployment.covered_keys().len() as u64,
            coverage_cache: HashMap::new(),
            coverage_sum: 0.0,
            full_rounds: 0,
            partial_rounds: 0,
            failure: None,
        }
    }

    fn round_coverage(&mut self) -> f64 {
        if let Some(&f) = self.coverage_cache.get(&self.alive) {
            return f;
        }
        let answering: Vec<usize> = (0..self.alive.len()).filter(|&i| self.alive[i]).collect();
        let covered = self.deployment.covered_keys_of(&answering).len() as u64;
        let f = coverage_fraction(covered, self.covered_all);
        self.coverage_cache.insert(self.alive.clone(), f);
        f
    }
}

impl ResponderOracle for ControllerOracle<'_> {
    fn begin_round(&mut self, start: &RoundStart) {
        let round = self.round;
        self.round += 1;
        if self.failure.is_some() {
            return;
        }
        for k in &self.kills {
            if k.round == round {
                self.alive[k.reader] = false;
            }
        }
        let answered = self.alive.iter().filter(|&&a| a).count();
        if answered < self.quorum {
            self.failure = Some(QuorumLost {
                round,
                answered,
                quorum: self.quorum,
            });
            return;
        }
        if answered == self.alive.len() {
            self.full_rounds += 1;
        } else {
            self.partial_rounds += 1;
        }
        self.coverage_sum += self.round_coverage();
        for (r, &alive) in self.readers.iter_mut().zip(&self.alive) {
            if alive {
                r.begin_round(start);
            }
        }
    }

    fn responders(&mut self, prefix_len: u32) -> u64 {
        use pet_phy::channel::Channel;
        if self.failure.is_some() {
            return 0;
        }
        let mut busy_readers = 0u64;
        for ((reader, channel), &alive) in self
            .readers
            .iter_mut()
            .zip(&mut self.channels)
            .zip(&self.alive)
        {
            if !alive {
                continue;
            }
            let heard = channel.transmit(reader.responders(prefix_len), &mut self.rng);
            if heard.is_busy() {
                busy_readers += 1;
            }
        }
        busy_readers
    }

    fn population(&self) -> u64 {
        // Not duplicate-free; only used for presence probing where any
        // positive count is equivalent.
        self.readers
            .iter()
            .zip(&self.alive)
            .filter(|(_, &alive)| alive)
            .map(|(r, _)| r.population())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pet_core::front::Estimator;
    use pet_phy::channel::LossyChannel;
    use pet_stats::accuracy::Accuracy;

    fn config() -> PetConfig {
        PetConfig::builder()
            .accuracy(Accuracy::new(0.2, 0.2).unwrap())
            .build()
            .unwrap()
    }

    fn grid_deployment(
        n: usize,
        zones: u32,
        coverages: Vec<Vec<u32>>,
        seed: u64,
    ) -> (TagPopulation, Deployment) {
        let mut rng = StdRng::seed_from_u64(seed);
        let pop = TagPopulation::sequential(n);
        let field = ZoneField::uniform(n, zones, &mut rng);
        let deployment = Deployment::new(&pop, field, coverages);
        (pop, deployment)
    }

    /// Overlapping coverage must not inflate the estimate — §4.6.3's
    /// duplicate-insensitivity claim.
    #[test]
    fn overlapping_readers_do_not_double_count() {
        let n = 5_000;
        // Four readers, each covering *all* four zones: every tag heard by
        // four readers at once.
        let coverages = vec![vec![0, 1, 2, 3]; 4];
        let (_, deployment) = grid_deployment(n, 4, coverages, 1);
        let mut rng = StdRng::seed_from_u64(2);
        let report = deployment.estimate(&config(), 512, ChannelModel::Perfect, &mut rng);
        let rel = (report.estimate - n as f64).abs() / n as f64;
        assert!(rel < 0.2, "estimate {} vs true {n}", report.estimate);
        assert_eq!(report.covered_tags, n as u64);
    }

    /// Disjoint coverage stitches the region together at the controller.
    #[test]
    fn disjoint_readers_cover_the_union() {
        let n = 4_000;
        let coverages = vec![vec![0], vec![1], vec![2], vec![3]];
        let (_, deployment) = grid_deployment(n, 4, coverages, 3);
        let mut rng = StdRng::seed_from_u64(4);
        let report = deployment.estimate(&config(), 512, ChannelModel::Perfect, &mut rng);
        let rel = (report.estimate - n as f64).abs() / n as f64;
        assert!(rel < 0.2, "estimate {}", report.estimate);
    }

    /// Partial coverage estimates the covered subpopulation, not the world.
    #[test]
    fn partial_coverage_estimates_visible_tags() {
        let n = 8_000;
        let coverages = vec![vec![0, 1]]; // half the zones
        let (_, deployment) = grid_deployment(n, 4, coverages, 5);
        let covered = deployment.covered_keys().len() as f64;
        assert!(covered < n as f64 * 0.7, "sanity: partial coverage");
        let mut rng = StdRng::seed_from_u64(6);
        let report = deployment.estimate(&config(), 512, ChannelModel::Perfect, &mut rng);
        let rel = (report.estimate - covered).abs() / covered;
        assert!(
            rel < 0.2,
            "estimate {} should track covered {covered}",
            report.estimate
        );
    }

    /// One reader with a single fully-covering zone equals the single-reader
    /// protocol.
    #[test]
    fn single_reader_reduces_to_plain_pet() {
        let n = 3_000;
        let (pop, deployment) = grid_deployment(n, 1, vec![vec![0]], 7);
        let mut rng = StdRng::seed_from_u64(8);
        let multi = deployment.estimate(&config(), 256, ChannelModel::Perfect, &mut rng);
        let mut rng = StdRng::seed_from_u64(8);
        let single = Estimator::new(config()).estimate_population_rounds(&pop, 256, &mut rng);
        // Same seed, same rounds — identical statistic path.
        assert!((multi.estimate - single.estimate).abs() < 1e-9);
        assert_eq!(multi.controller_slots, single.metrics.slots);
        assert_eq!(multi.reader_slot_total, multi.controller_slots);
    }

    /// Mildly lossy per-reader channels still yield usable estimates (loss
    /// only ever turns busy → idle, biasing the gray node slightly down).
    #[test]
    fn lossy_readers_degrade_gracefully() {
        let n = 5_000;
        let coverages = vec![vec![0, 1], vec![2, 3]];
        let (_, deployment) = grid_deployment(n, 4, coverages, 9);
        let lossy = ChannelModel::Lossy(LossyChannel::new(0.05, 0.0).unwrap());
        let mut rng = StdRng::seed_from_u64(10);
        let report = deployment.estimate(&config(), 512, lossy, &mut rng);
        let rel = (report.estimate - n as f64).abs() / n as f64;
        assert!(rel < 0.3, "estimate {} under loss", report.estimate);
    }

    /// §4.6.3 under `ChannelModel::Lossy`: "idle only when no tag response
    /// is reported from any readers" makes overlapping coverage
    /// *redundant*, never double-counting. Duplicate hearings collapse in
    /// the controller's OR — bit-for-bit on a perfect channel — while
    /// under loss a slot stays busy if any one reader hears it, so R
    /// fully-overlapping readers drive the effective miss rate to miss^R.
    #[test]
    fn lossy_overlap_is_duplicate_insensitive_and_redundant() {
        let n = 5_000;
        let full = vec![0, 1, 2, 3];
        let (_, single) = grid_deployment(n, 4, vec![full.clone()], 11);
        let (_, quad) = grid_deployment(n, 4, vec![full; 4], 11);

        // Perfect channel: 4 overlapping readers ≡ 1 reader, bit for bit.
        let mut rng = StdRng::seed_from_u64(12);
        let single_perfect = single.estimate(&config(), 256, ChannelModel::Perfect, &mut rng);
        let mut rng = StdRng::seed_from_u64(12);
        let quad_perfect = quad.estimate(&config(), 256, ChannelModel::Perfect, &mut rng);
        assert!(
            (single_perfect.estimate - quad_perfect.estimate).abs() < 1e-9,
            "duplicates must not move the estimate: {} vs {}",
            single_perfect.estimate,
            quad_perfect.estimate
        );

        // Lossy channel: the lone reader eats the full 15% miss rate; the
        // overlapping four only lose a slot when all four miss it at once.
        let lossy = ChannelModel::Lossy(LossyChannel::new(0.15, 0.0).unwrap());
        let bias = |estimate: f64| (estimate - n as f64).abs() / n as f64;
        let mut rng = StdRng::seed_from_u64(12);
        let single_lossy = single.estimate(&config(), 512, lossy, &mut rng);
        let mut rng = StdRng::seed_from_u64(12);
        let quad_lossy = quad.estimate(&config(), 512, lossy, &mut rng);
        assert!(
            bias(quad_lossy.estimate) < 0.10,
            "redundant overlap nearly cancels loss: estimate {} vs true {n}",
            quad_lossy.estimate
        );
        assert!(
            bias(quad_lossy.estimate) < bias(single_lossy.estimate),
            "overlap must help under loss: quad {} vs single {} (true {n})",
            quad_lossy.estimate,
            single_lossy.estimate
        );
    }

    #[test]
    #[should_panic(expected = "nonexistent zone")]
    fn coverage_validation() {
        let pop = TagPopulation::sequential(10);
        let field = ZoneField::clustered(10, 2);
        let _ = Deployment::new(&pop, field, vec![vec![5]]);
    }

    /// The wire-size derivation must agree with the in-process deployment:
    /// an agent rebuilding its shard from `(tags, zones, deploy_seed,
    /// coverage)` sees exactly the keys the coordinator's reference
    /// deployment attributes to it.
    #[test]
    fn shard_keys_matches_synthetic_deployment() {
        let coverages = vec![vec![0, 1], vec![1, 2], vec![3]];
        let deployment = Deployment::synthetic(2_000, 4, 42, coverages.clone());
        for (i, cov) in coverages.iter().enumerate() {
            assert_eq!(
                shard_keys(2_000, 4, 42, cov),
                deployment.visible_keys(i),
                "reader {i}"
            );
        }
        let all: Vec<usize> = (0..coverages.len()).collect();
        assert_eq!(deployment.covered_keys_of(&all), deployment.covered_keys());
    }

    /// An empty outage plan is the plain controller, bit for bit.
    #[test]
    fn empty_outage_plan_matches_plain_estimate() {
        let deployment = Deployment::synthetic(3_000, 4, 13, vec![vec![0, 1], vec![2, 3]]);
        let mut rng = StdRng::seed_from_u64(14);
        let plain = deployment.estimate(&config(), 128, ChannelModel::Perfect, &mut rng);
        let mut rng = StdRng::seed_from_u64(14);
        let outage = deployment
            .try_estimate_with_outages(
                &config(),
                128,
                ChannelModel::Perfect,
                &OutagePlan::default(),
                &mut rng,
            )
            .unwrap();
        assert_eq!(plain.estimate.to_bits(), outage.estimate.to_bits());
        assert_eq!(plain.controller_slots, outage.controller_slots);
        assert_eq!(outage.full_rounds, 128);
        assert_eq!(outage.partial_rounds, 0);
        assert!((outage.effective_coverage - 1.0).abs() < f64::EPSILON);
    }

    /// Killing a reader mid-session degrades coverage (reported explicitly)
    /// without destroying the estimate: the remaining quorum keeps merging.
    #[test]
    fn killed_reader_degrades_coverage_not_the_session() {
        let deployment = Deployment::synthetic(4_000, 3, 21, vec![vec![0], vec![1], vec![2]]);
        let plan = OutagePlan {
            kills: vec![Kill {
                round: 64,
                reader: 2,
            }],
            quorum: 2,
        };
        let mut rng = StdRng::seed_from_u64(22);
        let report = deployment
            .try_estimate_with_outages(&config(), 128, ChannelModel::Perfect, &plan, &mut rng)
            .unwrap();
        assert_eq!(report.full_rounds, 64);
        assert_eq!(report.partial_rounds, 64);
        assert!(
            report.effective_coverage < 1.0 && report.effective_coverage > 0.5,
            "coverage {}",
            report.effective_coverage
        );
        // The estimate lands between the surviving pair's coverage and the
        // full fleet's: early full rounds pull it up, late partial rounds
        // pull it toward the survivors.
        let survivors = deployment.covered_keys_of(&[0, 1]).len() as f64;
        let full = report.covered_tags as f64;
        assert!(
            report.estimate > survivors * 0.7 && report.estimate < full * 1.3,
            "estimate {} vs survivors {survivors} / full {full}",
            report.estimate
        );
    }

    /// Losing the quorum fails the run explicitly, naming the round.
    #[test]
    fn quorum_loss_is_an_explicit_error() {
        let deployment = Deployment::synthetic(1_000, 2, 31, vec![vec![0], vec![1]]);
        let plan = OutagePlan {
            kills: vec![
                Kill {
                    round: 10,
                    reader: 0,
                },
                Kill {
                    round: 20,
                    reader: 1,
                },
            ],
            quorum: 1,
        };
        let mut rng = StdRng::seed_from_u64(32);
        let err = deployment
            .try_estimate_with_outages(&config(), 64, ChannelModel::Perfect, &plan, &mut rng)
            .unwrap_err();
        assert_eq!(
            err,
            QuorumLost {
                round: 20,
                answered: 0,
                quorum: 1
            }
        );
        assert!(err.to_string().contains("round 20"));
    }
}
