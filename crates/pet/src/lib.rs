//! # PET: Probabilistic Estimating Tree for large-scale RFID estimation
//!
//! Facade crate for the full reproduction of Zheng & Li, *"PET:
//! Probabilistic Estimating Tree for Large-Scale RFID Estimation"*
//! (ICDCS 2011 / IEEE TMC 2012): the PET protocol, every substrate it runs
//! on, the baselines it is evaluated against, and the experiment engine
//! that regenerates the paper's tables and figures.
//!
//! Most applications only need the [`prelude`]:
//!
//! ```
//! use pet::prelude::*;
//!
//! let mut rng = StdRng::seed_from_u64(2024);
//! // 30,000 pallets with passive tags.
//! let pallets = TagPopulation::sequential(30_000);
//! // ±5% at 99% confidence — the paper's default requirement.
//! let estimator = Estimator::new(PetConfig::paper_default());
//! let report = estimator.estimate_population(&pallets, &mut rng);
//! assert!((report.estimate - 30_000.0).abs() <= 0.05 * 30_000.0);
//! println!(
//!     "≈{:.0} tags in {} slots ({} rounds × 5)",
//!     report.estimate, report.metrics.slots, report.rounds
//! );
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |---|---|
//! | [`pet_core`] (as `pet::core`) | The PET protocol: tree, paths, readers, tag logic, sessions; the streaming monitor and the missing-tag reference test |
//! | [`pet_tags`] (as `pet::tags`) | EPC-96 identities, populations, churn, zone mobility |
//! | [`pet_phy`] (as `pet::phy`) | Slotted MAC, channel models, air-cost accounting |
//! | [`pet_hash`] (as `pet::hash`) | MD5/SHA-1 (from scratch), mixers, geometric hashing |
//! | [`pet_stats`] (as `pet::stats`) | erf/quantiles, accuracy→rounds, gray-node distribution |
//! | [`pet_baselines`] (as `pet::baselines`) | FNEB, LoF, USE, UPE, EZB behind one trait |
//! | [`pet_ident`] (as `pet::ident`) | Aloha + tree-walk identification (the Θ(n) alternative) |
//! | [`pet_apps`] (as `pet::apps`) | Capacity guard, trend tracker, per-category estimates |
//! | [`pet_firmware`] (as `pet::firmware`) | no_std tag chip (bitwise-only state machine) |
//! | [`pet_sim`] (as `pet::sim`) | Multi-reader controller, trial runner, §5 experiments |
//! | [`pet_server`] (as `pet::server`) | Estimation service: line-JSON protocol over sharded non-blocking event loops, backpressure, deadlines |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use pet_apps as apps;
pub use pet_baselines as baselines;
pub use pet_core as core;
pub use pet_firmware as firmware;
pub use pet_hash as hash;
pub use pet_ident as ident;
pub use pet_phy as phy;
pub use pet_server as server;
pub use pet_sim as sim;
pub use pet_stats as stats;
pub use pet_tags as tags;

/// The working set most applications need.
pub mod prelude {
    pub use pet_baselines::{CardinalityEstimator, Estimate, Fidelity};
    pub use pet_core::config::{CommandEncoding, PetConfig, SearchStrategy, TagMode};
    pub use pet_core::error::PetError;
    pub use pet_core::front::Estimator;
    pub use pet_core::session::EstimateReport;
    pub use pet_phy::channel::ChannelModel;
    pub use pet_phy::{Air, AirMetrics, PhyProfile, PhyReport, TimeModel};
    pub use pet_stats::accuracy::Accuracy;
    pub use pet_tags::population::TagPopulation;
    pub use rand::rngs::StdRng;
    pub use rand::SeedableRng;
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_covers_the_happy_path() {
        let mut rng = StdRng::seed_from_u64(1);
        let pop = TagPopulation::sequential(1_000);
        let config = PetConfig::builder()
            .accuracy(Accuracy::new(0.2, 0.2).unwrap())
            .build()
            .unwrap();
        let report = Estimator::new(config).estimate_population(&pop, &mut rng);
        assert!(report.estimate > 0.0);
        assert!(report.try_confidence_interval(0.05).is_ok());
    }

    /// The estimate equals the oracle reader's over a roster of the same
    /// keys, so which one runs is invisible in the results.
    #[test]
    fn prelude_backend_switch_is_invisible_to_results() {
        let keys: Vec<u64> = (0..400).collect();
        let config = PetConfig::builder()
            .accuracy(Accuracy::new(0.2, 0.2).unwrap())
            .build()
            .unwrap();
        let estimator = Estimator::new(config);
        let kernel = estimator.estimate_keys_rounds(&keys, 24, &mut StdRng::seed_from_u64(3));
        let mut roster = crate::core::CodeRoster::new(&keys, &config, estimator.family());
        let (mut air, mut rng) = (Air::new(config.channel()), StdRng::seed_from_u64(3));
        let oracle = estimator
            .try_run_oracle(24, &mut roster, &mut air, &mut rng)
            .unwrap();
        assert_eq!(oracle.estimate.to_bits(), kernel.estimate.to_bits());
        assert_eq!(oracle.records, kernel.records);
    }
}
