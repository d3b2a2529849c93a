//! Tash-style analog on-tag hashing (arXiv 1707.08883).
//!
//! Commodity Gen2 tags have no hash engine; Tash realizes one with
//! *selective reading*: the reader issues Select commands whose masks cover
//! pseudo-random slices of tag memory, so membership in the selected set
//! acts as one hash bit. Bits realized this way are not perfectly uniform —
//! mask placement interacts with the EPC bit distribution, so the measured
//! per-bit probability of a 1 sits near, not at, 1/2.
//!
//! [`TashFamily`] models that realization: a deterministic bit generator
//! whose per-bit `P(1)` is a fixed-point knob (`ones_q8 / 256`). At
//! `ones_q8 = 128` the family is an unbiased (but differently seeded)
//! uniform family; sweeping the knob reproduces how measured mask
//! non-uniformity degrades PET's estimate (all tags share the same skew
//! direction, so survivor counts at each tree depth become path-dependent).
//!
//! The family is pure `(seed, id)` → bits like every other
//! [`HashFamily`], so the roster oracle and the batched kernel consume it
//! through the same trait and stay bit-for-bit equivalent.

use crate::family::HashFamily;
use crate::mix;

/// Domain-separation salt so a Tash code never collides with the plain
/// mixer stream under the same `(seed, id)`.
const TASH_SALT: u64 = 0x7a5e_1e5d_5e1e_c7ed;

/// Analog on-tag hash family with a per-bit bias knob.
///
/// # Example
///
/// ```
/// use pet_hash::tash::TashFamily;
/// use pet_hash::family::HashFamily;
///
/// let ideal = TashFamily::from_skew(0.0);
/// let skewed = TashFamily::from_skew(0.1); // P(1) = 0.6 per code bit
/// assert_ne!(ideal.hash(1, 2), skewed.hash(1, 2) | 0); // independent knobs
/// assert!((skewed.p_one() - 0.6).abs() < 1.0 / 256.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TashFamily {
    /// `P(bit = 1)` in fixed-point 1/256 units, clamped to `1..=255` so no
    /// bit is ever deterministic.
    ones_q8: u16,
}

impl TashFamily {
    /// Builds the family from a measured skew: per-bit `P(1) = 0.5 + skew`,
    /// quantized to 1/256 and clamped so probabilities stay in
    /// `[1/256, 255/256]`.
    #[must_use]
    pub fn from_skew(skew: f64) -> Self {
        let p = (0.5 + skew).clamp(0.0, 1.0);
        Self::from_ones_q8((p * 256.0).round() as i64)
    }

    /// Builds the family from the raw fixed-point knob (clamped to
    /// `1..=255`).
    #[must_use]
    pub fn from_ones_q8(ones_q8: i64) -> Self {
        Self {
            ones_q8: ones_q8.clamp(1, 255) as u16,
        }
    }

    /// The fixed-point knob: `P(1) = ones_q8 / 256`.
    #[must_use]
    pub fn ones_q8(&self) -> u16 {
        self.ones_q8
    }

    /// The realized per-bit probability of a 1.
    #[must_use]
    pub fn p_one(&self) -> f64 {
        f64::from(self.ones_q8) / 256.0
    }

    /// The skew relative to the ideal uniform 1/2.
    #[must_use]
    pub fn skew(&self) -> f64 {
        self.p_one() - 0.5
    }
}

impl HashFamily for TashFamily {
    /// Each output bit thresholds one byte of a seeded entropy stream:
    /// 8 mixer words of 8 bytes each yield 64 independent biased bits.
    fn hash(&self, seed: u64, id: u64) -> u64 {
        let mut code = 0u64;
        for word in 0..8u64 {
            let entropy = mix::mix2(mix::mix2(seed ^ TASH_SALT, word), id);
            for (j, b) in entropy.to_le_bytes().into_iter().enumerate() {
                if u16::from(b) < self.ones_q8 {
                    code |= 1 << (word * 8 + j as u64);
                }
            }
        }
        code
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ones_fraction(fam: &TashFamily, samples: u64) -> f64 {
        let mut ones = 0u64;
        for id in 0..samples {
            ones += u64::from(fam.hash(7, id).count_ones());
        }
        ones as f64 / (samples * 64) as f64
    }

    #[test]
    fn zero_skew_is_unbiased() {
        let frac = ones_fraction(&TashFamily::from_skew(0.0), 4_096);
        assert!((frac - 0.5).abs() < 0.005, "ones fraction {frac}");
    }

    #[test]
    fn skew_moves_the_bit_distribution() {
        for skew in [-0.2, -0.05, 0.05, 0.2] {
            let fam = TashFamily::from_skew(skew);
            let frac = ones_fraction(&fam, 4_096);
            assert!(
                (frac - fam.p_one()).abs() < 0.01,
                "skew {skew}: ones fraction {frac} vs target {}",
                fam.p_one()
            );
        }
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let fam = TashFamily::from_skew(0.1);
        assert_eq!(fam.hash(3, 42), fam.hash(3, 42));
        assert_ne!(fam.hash(3, 42), fam.hash(4, 42));
        assert_ne!(fam.hash(3, 42), fam.hash(3, 43));
    }

    #[test]
    fn knob_round_trips_and_clamps() {
        assert_eq!(TashFamily::from_skew(0.0).ones_q8(), 128);
        assert_eq!(TashFamily::from_skew(10.0).ones_q8(), 255);
        assert_eq!(TashFamily::from_skew(-10.0).ones_q8(), 1);
        let fam = TashFamily::from_ones_q8(160);
        assert!((fam.p_one() - 0.625).abs() < 1e-12);
        assert!((fam.skew() - 0.125).abs() < 1e-12);
    }

    /// The default bulk path must equal scalar hashing bit for bit (the
    /// batched kernel consumes the family through `hash_bits_bulk`).
    #[test]
    fn bulk_matches_scalar() {
        let fam = TashFamily::from_skew(0.07);
        let keys: Vec<u64> = (0..257).map(|k: u64| k.wrapping_mul(0x9e37)).collect();
        let mut out = vec![0u64; keys.len()];
        fam.hash_bits_bulk(99, &keys, 32, &mut out);
        for (&k, &o) in keys.iter().zip(&out) {
            assert_eq!(o, fam.hash_bits(99, k, 32));
        }
    }
}
