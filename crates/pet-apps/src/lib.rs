//! Application layer over PET estimation.
//!
//! The paper's introduction motivates estimation with inventory control,
//! cargo verification, and attendance counting (§1: "counting the number of
//! conference or exposition attendees with RFID badges, verifying the
//! amount of products with RFID labels in cargo shipping"). This crate
//! turns those scenarios into *calibrated decision procedures* built on the
//! estimator's known sampling law (the mean gray-node statistic is
//! asymptotically normal with deviation `σ(h)/√m`, §4.2):
//!
//! - [`guard`]: capacity guarding — two one-sided tests around an occupancy
//!   limit, with an explicit *uncertain* verdict in between.
//! - [`trend`]: population trend tracking across repeated estimates, with
//!   per-point confidence intervals and a least-squares drift test.
//! - [`category`]: per-category (e.g. per-supplier) estimates via Gen2
//!   Select scoping.
//!
//! Missing-tag detection needs no type of its own here: an audit is one
//! estimate judged by `pet_core::monitor::ReferenceTest`, the test the
//! guard and the streaming monitor run too.
//!
//! # Example
//!
//! ```
//! use pet_apps::guard::{CapacityGuard, CapacityVerdict};
//! use pet_core::config::PetConfig;
//! use pet_stats::accuracy::Accuracy;
//! use pet_tags::population::TagPopulation;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let config = PetConfig::builder()
//!     .accuracy(Accuracy::new(0.10, 0.05).unwrap())
//!     .build()
//!     .unwrap();
//! // The dock holds 10,000 pallets; 7,000 are clearly under the limit.
//! let guard = CapacityGuard::new(10_000, 0.01, config);
//! let mut rng = StdRng::seed_from_u64(7);
//! let verdict = guard.check(&TagPopulation::sequential(7_000), &mut rng);
//! assert_eq!(verdict, CapacityVerdict::Under);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod category;
pub mod guard;
pub mod trend;

pub use category::{estimate_by, estimate_by_manager, CategoryReport};
pub use guard::{CapacityGuard, CapacityVerdict};
pub use trend::{TrendPoint, TrendTracker};
