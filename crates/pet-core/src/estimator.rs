//! Aggregating round statistics into a cardinality estimate (Eq. (12)–(14)),
//! plus the lossy-channel mitigation variants (see [`Mitigation`]).

use crate::config::Mitigation;
use crate::reader::RoundRecord;
use pet_stats::gray;

/// Accumulates per-round gray-node observations and produces `n̂`.
///
/// # Example
///
/// ```
/// use pet_core::estimator::PetEstimator;
/// use pet_core::reader::RoundRecord;
///
/// let mut est = PetEstimator::new(32);
/// est.push(RoundRecord { prefix_len: 16, gray_height: 16, slots: 5, disambiguated: false });
/// est.push(RoundRecord { prefix_len: 17, gray_height: 15, slots: 5, disambiguated: false });
/// // n̂ = 2^16.5 / φ ≈ 73,5xx
/// assert!((est.estimate() - 2f64.powf(16.5) / pet_stats::gray::PHI).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct PetEstimator {
    height: u32,
    sum_prefix: u64,
    rounds: u32,
}

impl PetEstimator {
    /// Creates an estimator for a PET of the given height.
    ///
    /// # Panics
    ///
    /// Panics if `height` is outside `1..=64`.
    #[must_use]
    pub fn new(height: u32) -> Self {
        assert!((1..=64).contains(&height), "height must be in 1..=64");
        Self {
            height,
            sum_prefix: 0,
            rounds: 0,
        }
    }

    /// Adds one round's observation.
    ///
    /// # Panics
    ///
    /// Panics if the record's prefix length exceeds the height.
    pub fn push(&mut self, record: RoundRecord) {
        assert!(
            record.prefix_len <= self.height,
            "prefix length {} exceeds height {}",
            record.prefix_len,
            self.height
        );
        self.sum_prefix += u64::from(record.prefix_len);
        self.rounds += 1;
    }

    /// Rounds accumulated so far.
    #[must_use]
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// Mean responsive prefix length `L̄` (0 when no rounds yet).
    #[must_use]
    pub fn mean_prefix_len(&self) -> f64 {
        if self.rounds == 0 {
            0.0
        } else {
            self.sum_prefix as f64 / f64::from(self.rounds)
        }
    }

    /// Mean gray-node height `h̄ = H − L̄`.
    #[must_use]
    pub fn mean_gray_height(&self) -> f64 {
        f64::from(self.height) - self.mean_prefix_len()
    }

    /// The cardinality estimate `n̂ = φ⁻¹·2^(L̄)` (Eq. (14)).
    ///
    /// # Panics
    ///
    /// Panics if no rounds have been accumulated.
    #[must_use]
    pub fn estimate(&self) -> f64 {
        assert!(self.rounds > 0, "estimate requires at least one round");
        gray::estimate_from_mean_prefix(self.mean_prefix_len())
    }
}

/// Aggregates per-round records into `(n̂, L̄)` under the configured
/// mitigation. The slot loop and the kernel's lossless loop both call this
/// on identical record vectors, so the aggregation stays bit-for-bit equal
/// across them.
///
/// [`Mitigation::None`] reproduces [`PetEstimator`]'s arithmetic exactly
/// (integer prefix sum, one division). [`Mitigation::TrimmedMean`] sorts
/// the prefix lengths and drops `trim` from each end, clamped so at least
/// one round survives.
///
/// # Panics
///
/// Panics if `records` is empty or any prefix length exceeds `height`.
#[must_use]
pub fn aggregate_records(
    height: u32,
    records: &[RoundRecord],
    mitigation: Mitigation,
) -> (f64, f64) {
    assert!(!records.is_empty(), "estimate requires at least one round");
    match mitigation {
        // Re-probing acts at the slot level (see `reader::probed_slot`);
        // aggregation stays the paper's plain mean.
        Mitigation::None | Mitigation::ReProbe { .. } => {
            let mut estimator = PetEstimator::new(height);
            for record in records {
                estimator.push(*record);
            }
            (estimator.estimate(), estimator.mean_prefix_len())
        }
        Mitigation::TrimmedMean { trim } => {
            let mut lens: Vec<u32> = records.iter().map(|r| r.prefix_len).collect();
            assert!(
                lens.iter().all(|&l| l <= height),
                "prefix length exceeds height {height}"
            );
            lens.sort_unstable();
            let k = (trim as usize).min((lens.len() - 1) / 2);
            let kept = &lens[k..lens.len() - k];
            let sum: u64 = kept.iter().map(|&l| u64::from(l)).sum();
            let mean = sum as f64 / kept.len() as f64;
            (gray::estimate_from_mean_prefix(mean), mean)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(prefix_len: u32) -> RoundRecord {
        RoundRecord {
            prefix_len,
            gray_height: 32 - prefix_len,
            slots: 5,
            disambiguated: false,
        }
    }

    #[test]
    fn averages_prefix_lengths() {
        let mut e = PetEstimator::new(32);
        e.push(rec(10));
        e.push(rec(12));
        e.push(rec(14));
        assert_eq!(e.rounds(), 3);
        assert!((e.mean_prefix_len() - 12.0).abs() < 1e-12);
        assert!((e.mean_gray_height() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn estimate_formula() {
        let mut e = PetEstimator::new(32);
        e.push(rec(16));
        let expected = 2f64.powi(16) / gray::PHI;
        assert!((e.estimate() - expected).abs() < 1e-9);
    }

    #[test]
    fn height_and_prefix_views_consistent() {
        let mut e = PetEstimator::new(32);
        e.push(rec(7));
        e.push(rec(9));
        let via_height = gray::estimate_from_mean_height(e.mean_gray_height(), 32);
        assert!((e.estimate() - via_height).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn empty_estimator_panics() {
        let _ = PetEstimator::new(32).estimate();
    }

    #[test]
    #[should_panic(expected = "exceeds height")]
    fn oversized_prefix_rejected() {
        let mut e = PetEstimator::new(8);
        e.push(rec(9));
    }

    #[test]
    fn aggregate_none_matches_plain_estimator() {
        let records: Vec<RoundRecord> = [10, 12, 14, 9, 31].iter().map(|&l| rec(l)).collect();
        let mut e = PetEstimator::new(32);
        for r in &records {
            e.push(*r);
        }
        let (est, mean) = aggregate_records(32, &records, Mitigation::None);
        assert_eq!(est.to_bits(), e.estimate().to_bits());
        assert_eq!(mean.to_bits(), e.mean_prefix_len().to_bits());
    }

    #[test]
    fn trimmed_mean_drops_extremes() {
        // Sorted lens: [0, 10, 11, 12, 31]; trim 1 each side → mean of
        // [10, 11, 12] = 11.
        let records: Vec<RoundRecord> = [31, 10, 0, 12, 11].iter().map(|&l| rec(l)).collect();
        let (est, mean) = aggregate_records(32, &records, Mitigation::TrimmedMean { trim: 1 });
        assert!((mean - 11.0).abs() < 1e-12);
        assert!((est - gray::estimate_from_mean_prefix(11.0)).abs() < 1e-9);
    }

    #[test]
    fn trimmed_mean_clamps_to_keep_one_round() {
        // Five rounds, trim 40: clamp to (5 − 1)/2 = 2 → the median stays.
        let records: Vec<RoundRecord> = [3, 30, 7, 1, 15].iter().map(|&l| rec(l)).collect();
        let (_, mean) = aggregate_records(32, &records, Mitigation::TrimmedMean { trim: 40 });
        assert!((mean - 7.0).abs() < 1e-12, "median survives, got {mean}");
        // A single round never vanishes either.
        let (_, solo) = aggregate_records(32, &records[..1], Mitigation::TrimmedMean { trim: 9 });
        assert!((solo - 3.0).abs() < 1e-12);
    }

    #[test]
    fn trim_zero_equals_plain_mean() {
        let records: Vec<RoundRecord> = [4, 9, 2].iter().map(|&l| rec(l)).collect();
        let (a, am) = aggregate_records(32, &records, Mitigation::None);
        let (b, bm) = aggregate_records(32, &records, Mitigation::TrimmedMean { trim: 0 });
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(am.to_bits(), bm.to_bits());
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn aggregate_rejects_empty() {
        let _ = aggregate_records(32, &[], Mitigation::None);
    }

    #[test]
    fn zero_prefix_rounds_estimate_below_one() {
        // All-idle rounds (L = 0) estimate ~0.79 tags — why the zero probe
        // exists.
        let mut e = PetEstimator::new(32);
        e.push(rec(0));
        assert!(e.estimate() < 1.0);
    }
}
