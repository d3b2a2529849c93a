//! PET — Probabilistic Estimating Tree — for large-scale RFID cardinality
//! estimation.
//!
//! Reproduction of Zheng & Li, *"PET: Probabilistic Estimating Tree for
//! Large-Scale RFID Estimation"* (ICDCS 2011 / IEEE TMC 2012). PET estimates
//! the number of RFID tags sharing a slotted channel to within a chosen
//! `(ε, δ)` accuracy in `O(log log n)` slots per round: tags are mapped to
//! leaves of a conceptual binary tree by uniform hash codes, the reader
//! walks a random *estimating path* and binary-searches for the *gray node*
//! — the frontier between responsive and silent prefixes — whose height is a
//! Gumbel-like statistic of `n`.
//!
//! Module map (paper section in parentheses):
//!
//! - [`bits`]: codes and estimating paths (§4.1).
//! - [`tree`]: the materialized reference tree for cross-validation (§4.1).
//! - [`config`]: protocol configuration — height, accuracy, search strategy
//!   (§4.3–4.4), tag mode (§4.5), command encoding (§4.6.2).
//! - [`oracle`]: who responds to a prefix query — per-tag state machines and
//!   the exact sorted-roster fast path.
//! - [`reader`]: Algorithm 1 (linear) and Algorithm 3 (binary search).
//! - [`estimator`]: Eq. (12)–(14) aggregation.
//! - [`front`]: [`Estimator`], the one estimation driver — `m` rounds with
//!   air-cost accounting on the batched kernel, the slot-by-slot oracle
//!   reader for caller-supplied oracles, plus sequential early stopping
//!   (extension).
//! - [`session`]: [`EstimateReport`], the result of one estimation.
//! - [`monitor`]: continuous-monitoring estimation over a churning
//!   population — sliding windows, Δn differentials, missing-tag alarm
//!   (extension).
//! - [`error`]: [`PetError`] for the fallible (`try_*`) API surface.
//!
//! # Quick start
//!
//! ```
//! use pet_core::{Estimator, PetConfig};
//! use pet_tags::population::TagPopulation;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(42);
//! let warehouse = TagPopulation::sequential(25_000);
//! let estimator = Estimator::new(PetConfig::paper_default());
//! let report = estimator.estimate_population(&warehouse, &mut rng);
//! // ±5% with 99% confidence (the paper's default requirement).
//! assert!((report.estimate - 25_000.0).abs() < 0.05 * 25_000.0);
//! // O(log log n): exactly 5 slots per round at H = 32.
//! assert_eq!(report.metrics.slots, u64::from(report.rounds) * 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod config;
pub mod error;
pub mod estimator;
pub mod front;
pub mod kernel;
pub mod monitor;
pub mod oracle;
pub mod reader;
pub mod session;
pub mod tree;

pub use bits::BitString;
pub use config::{CommandEncoding, PetConfig, SearchStrategy, TagMode};
pub use error::PetError;
pub use estimator::PetEstimator;
pub use front::Estimator;
pub use kernel::CodeBank;
pub use monitor::{Monitor, MonitorConfig, MonitorUpdate};
pub use oracle::{CodeRoster, ResponderOracle, TagFleet};
pub use reader::RoundRecord;
pub use session::EstimateReport;
