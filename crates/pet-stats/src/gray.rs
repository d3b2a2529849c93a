//! Distribution of the PET gray-node height (paper §4.2).
//!
//! For a random estimating path through a PET of height `H` over `n` tags
//! with i.i.d. uniform codes, let `L` be the longest prefix of the path
//! matched by at least one tag and `h = H − L` the gray-node height. Each tag
//! matches a given `l`-bit prefix independently with probability `2^-l`, so
//!
//! ```text
//! P(L ≥ l) = 1 − (1 − 2^-l)^n ≈ 1 − e^(−n·2^-l)      (discretized Gumbel)
//! ```
//!
//! which is Eq. (2)–(5) of the paper re-expressed in prefix lengths. The
//! Mellin-transform asymptotics (Eq. (8)–(11), after Kirschenhofer &
//! Prodinger) give
//!
//! ```text
//! E(h) ≈ H − log₂(φ·n),   φ = e^γ/√2 ≈ 1.25941
//! σ(h) ≈ √(π²/(6 ln²2) + 1/12) ≈ 1.87271
//! ```
//!
//! and the estimator `n̂ = φ⁻¹·2^(H−h̄) = φ⁻¹·2^(L̄)` (Eq. (14)), which this
//! module's tests validate as unbiased against the exact distribution.
//! Note one bookkeeping subtlety we resolve (see DESIGN.md): the `h` of
//! Eq. (14) is the gray-node *height* `H − L`, while the paper's
//! Algorithms 1/3 store the responsive prefix *length* `L`; the two
//! coincide only in the paper's H = 4 worked example.

/// Euler–Mascheroni constant γ.
pub const EULER_GAMMA: f64 = 0.577_215_664_901_532_9;

/// PET's bias-correction constant `φ = e^γ/√2 ≈ 1.25941` (paper §4.2).
pub const PHI: f64 = 1.259_408_384_545_19;

/// Asymptotic standard deviation of the gray-node height,
/// `σ(h) = √(π²/(6 ln²2) + 1/12) ≈ 1.87271` (paper Eq. (11)).
pub const SIGMA_H: f64 = 1.872_711_423_543_584;

/// The z-statistic of a mean prefix length `L̄` observed over `rounds`
/// rounds against the mean `E[L | n]` of a hypothesised population:
/// `(L̄ − E[L | n]) / (σ(h)/√m)`, from the asymptotic normal law of the
/// round mean. The missing-tag detectors and the capacity guard test it
/// against a one-sided normal tail.
#[must_use]
pub fn z_statistic(mean_prefix: f64, null_mean_prefix: f64, rounds: u32) -> f64 {
    let se = SIGMA_H / f64::from(rounds).sqrt();
    (mean_prefix - null_mean_prefix) / se
}

/// Flajolet–Martin bias constant for the LoF baseline's first-empty-slot
/// statistic: `E(R) ≈ log₂(φ_FM·n)` with `φ_FM ≈ 0.77351`.
pub const FM_PHI: f64 = 0.77351;

/// Asymptotic standard deviation of the Flajolet–Martin `R` statistic,
/// `σ(R) ≈ 1.12127`, used to size LoF's round count.
pub const FM_SIGMA_R: f64 = 1.12127;

/// `P(L ≥ l)`: probability at least one of `n` uniform codes matches a fixed
/// `l`-bit prefix. Exact (no Poissonization).
#[must_use]
pub fn prefix_survival(n: u64, l: u32) -> f64 {
    if n == 0 {
        return if l == 0 { 1.0 } else { 0.0 };
    }
    if l == 0 {
        return 1.0;
    }
    // 1 − (1 − 2^-l)^n = −expm1(n·ln1p(−2^-l)), computed in log space for
    // numerical stability at large n and l.
    let q = 2.0f64.powi(-(l as i32));
    -((n as f64) * (-q).ln_1p()).exp_m1()
}

/// Exact distribution of the longest matched prefix length `L ∈ [0, H]`
/// (equivalently the gray-node height `h = H − L`) for `n ≥ 1` tags.
///
/// # Example
///
/// ```
/// use pet_stats::gray::GrayDistribution;
///
/// let d = GrayDistribution::new(50_000, 32);
/// // E(h) within half a bit of the Mellin asymptotic.
/// let asym = 32.0 - (pet_stats::gray::PHI * 50_000f64).log2();
/// assert!((d.mean_height() - asym).abs() < 0.05);
/// ```
#[derive(Debug, Clone)]
pub struct GrayDistribution {
    n: u64,
    height: u32,
    /// `pmf[l] = P(L = l)` for `l = 0..=height`.
    pmf: Vec<f64>,
}

impl GrayDistribution {
    /// Builds the exact distribution for `n` tags in a PET of the given
    /// height.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` (the gray node is undefined on an all-white tree)
    /// or `height` is 0 or greater than 64.
    #[must_use]
    pub fn new(n: u64, height: u32) -> Self {
        assert!(n > 0, "gray node undefined for an empty tag set");
        assert!(
            (1..=64).contains(&height),
            "height must be in 1..=64, got {height}"
        );
        let mut pmf = Vec::with_capacity(height as usize + 1);
        for l in 0..=height {
            let here = prefix_survival(n, l);
            let next = if l == height {
                0.0
            } else {
                prefix_survival(n, l + 1)
            };
            pmf.push((here - next).max(0.0));
        }
        Self { n, height, pmf }
    }

    /// The tag count this distribution was built for.
    #[must_use]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The PET height `H`.
    #[must_use]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// `P(L = l)`.
    ///
    /// # Panics
    ///
    /// Panics if `l > H`.
    #[must_use]
    pub fn pmf_prefix(&self, l: u32) -> f64 {
        self.pmf[l as usize]
    }

    /// `P(h = height)` for the gray-node height `h = H − L`.
    #[must_use]
    pub fn pmf_height(&self, h: u32) -> f64 {
        self.pmf[(self.height - h) as usize]
    }

    /// `E(L)`.
    #[must_use]
    pub fn mean_prefix(&self) -> f64 {
        self.pmf.iter().enumerate().map(|(l, p)| l as f64 * p).sum()
    }

    /// `E(h) = H − E(L)` (paper Eq. (6)–(9)).
    #[must_use]
    pub fn mean_height(&self) -> f64 {
        f64::from(self.height) - self.mean_prefix()
    }

    /// `Var(h) = Var(L)` (paper Eq. (10)).
    #[must_use]
    pub fn variance(&self) -> f64 {
        let mean = self.mean_prefix();
        self.pmf
            .iter()
            .enumerate()
            .map(|(l, p)| {
                let d = l as f64 - mean;
                d * d * p
            })
            .sum()
    }

    /// `σ(h)` (paper Eq. (11); ≈ 1.87271 away from boundaries).
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// Mellin-asymptotic `E(h) = H − log₂(φ·n)` (paper Eq. (8)–(9)), ignoring
/// the `P(log₂ n)` oscillation (amplitude < 1e-5) and the `O(1/√n)` term.
#[must_use]
pub fn expected_height_asymptotic(n: f64, height: u32) -> f64 {
    f64::from(height) - (PHI * n).log2()
}

/// PET's cardinality estimator from the mean gray-node height over `m`
/// rounds: `n̂ = φ⁻¹·2^(H − h̄)` (paper Eq. (14)).
#[must_use]
pub fn estimate_from_mean_height(mean_height: f64, height: u32) -> f64 {
    2f64.powf(f64::from(height) - mean_height) / PHI
}

/// Equivalent estimator in prefix-length form: `n̂ = φ⁻¹·2^(L̄)`, since the
/// reader measures the longest responsive prefix `L = H − h` directly.
#[must_use]
pub fn estimate_from_mean_prefix(mean_prefix: f64) -> f64 {
    2f64.powf(mean_prefix) / PHI
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phi_matches_both_closed_forms() {
        // φ = e^γ/√2 = 2^(γ/ln2 − 1/2); the paper prints 1.25941.
        let a = EULER_GAMMA.exp() / std::f64::consts::SQRT_2;
        let b = 2f64.powf(EULER_GAMMA / std::f64::consts::LN_2 - 0.5);
        assert!((a - b).abs() < 1e-12);
        assert!((PHI - a).abs() < 1e-12);
        assert!((PHI - 1.25941).abs() < 1e-4);
    }

    #[test]
    fn sigma_matches_closed_form() {
        let s = (std::f64::consts::PI.powi(2) / (6.0 * std::f64::consts::LN_2.powi(2))
            + 1.0 / 12.0)
            .sqrt();
        assert!((SIGMA_H - s).abs() < 1e-12);
        assert!((SIGMA_H - 1.87271).abs() < 1e-4);
    }

    /// The statistic counts standard errors `σ(h)/√m` from the null mean.
    #[test]
    fn z_statistic_counts_standard_errors() {
        assert_eq!(z_statistic(12.5, 12.5, 64), 0.0);
        let se = SIGMA_H / 8.0;
        assert!((z_statistic(12.5 + se, 12.5, 64) - 1.0).abs() < 1e-12);
        assert!((z_statistic(12.5 - 2.0 * se, 12.5, 64) + 2.0).abs() < 1e-12);
        // Four times the rounds halves the standard error.
        assert!((z_statistic(12.5 + se, 12.5, 256) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn survival_basic_properties() {
        assert_eq!(prefix_survival(10, 0), 1.0);
        // One tag, one-bit prefix: matches with probability 1/2.
        assert!((prefix_survival(1, 1) - 0.5).abs() < 1e-12);
        // Monotone decreasing in l.
        for l in 0..30 {
            assert!(prefix_survival(1000, l) >= prefix_survival(1000, l + 1));
        }
        // Zero tags never match a nonempty prefix.
        assert_eq!(prefix_survival(0, 5), 0.0);
    }

    #[test]
    fn pmf_sums_to_one() {
        for n in [1u64, 10, 1000, 50_000, 1_000_000] {
            let d = GrayDistribution::new(n, 32);
            let total: f64 = (0..=32).map(|l| d.pmf_prefix(l)).sum();
            assert!((total - 1.0).abs() < 1e-9, "n = {n}: sum {total}");
        }
    }

    /// The exact mean height must match the Mellin asymptotic (Eq. (8))
    /// for n large enough and far from the tree boundaries.
    #[test]
    fn mean_matches_mellin_asymptotic() {
        for n in [1_000u64, 10_000, 50_000, 100_000, 1_000_000] {
            let d = GrayDistribution::new(n, 32);
            let asym = expected_height_asymptotic(n as f64, 32);
            assert!(
                (d.mean_height() - asym).abs() < 0.01,
                "n = {n}: exact {} vs asymptotic {asym}",
                d.mean_height()
            );
        }
    }

    /// The exact σ(h) must be ≈ 1.87271 (Eq. (11)) away from boundaries.
    #[test]
    fn std_dev_matches_asymptotic() {
        for n in [1_000u64, 50_000, 1_000_000] {
            let d = GrayDistribution::new(n, 32);
            assert!(
                (d.std_dev() - SIGMA_H).abs() < 0.01,
                "n = {n}: σ = {}",
                d.std_dev()
            );
        }
    }

    /// Plugging the exact E(L) into the estimator must recover n — this is
    /// the test that pins down the φ-placement correction of DESIGN.md.
    #[test]
    fn estimator_is_unbiased_at_the_mean() {
        for n in [1_000u64, 10_000, 50_000, 100_000, 1_000_000] {
            let d = GrayDistribution::new(n, 32);
            let n_hat = estimate_from_mean_prefix(d.mean_prefix());
            let rel = (n_hat - n as f64).abs() / n as f64;
            assert!(rel < 0.005, "n = {n}: n̂ = {n_hat} ({rel:.4} rel err)");
            // The opposite φ placement would be off by φ² ≈ 1.586; make
            // sure we are not accidentally matching that reading.
            let flipped = PHI * 2f64.powf(d.mean_prefix());
            assert!((flipped - n as f64).abs() / n as f64 > 0.3);
        }
    }

    #[test]
    fn height_and_prefix_forms_agree() {
        let d = GrayDistribution::new(4242, 32);
        let a = estimate_from_mean_height(d.mean_height(), 32);
        let b = estimate_from_mean_prefix(d.mean_prefix());
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn pmf_height_mirrors_prefix() {
        let d = GrayDistribution::new(100, 16);
        for h in 0..=16 {
            assert_eq!(d.pmf_height(h), d.pmf_prefix(16 - h));
        }
    }

    #[test]
    #[should_panic(expected = "gray node undefined")]
    fn rejects_empty_set() {
        let _ = GrayDistribution::new(0, 32);
    }

    /// Paper §4.2: with H = 32 and n = 40M, the white-leaf fraction is still
    /// ≈ 0.99, so hash collisions are rare — the regime the analysis assumes.
    #[test]
    fn paper_collision_regime_example() {
        let n = 40_000_000f64;
        let p_white = (1.0 - 2f64.powi(-32)).powf(n);
        assert!(p_white > 0.99);
    }
}
