//! Robustness sweep: estimation accuracy vs channel-fault rates, with and
//! without round-level mitigation.
//!
//! The paper assumes a perfect channel; this extension quantifies how the
//! (ε, δ) behaviour degrades when slots can miss tag responses (busy read
//! as idle) or detect phantom energy (idle read as busy), and how much of
//! the induced bias idle-slot re-probing recovers — and what it costs in
//! extra slots. Runs `Estimator` over a lossy channel, so it exercises the
//! bank's slot-accurate lossy path.

use crate::runner::run_trials;
use pet_core::config::{Mitigation, PetConfig};
use pet_core::Estimator;
use pet_phy::channel::{ChannelModel, LossyChannel};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Parameters for [`sweep`].
#[derive(Debug, Clone)]
pub struct RobustnessParams {
    /// True population size.
    pub n: usize,
    /// Rounds per trial.
    pub rounds: u32,
    /// Trials per (miss, mitigation) cell.
    pub runs: usize,
    /// Base seed; every cell derives its own stream from it.
    pub seed: u64,
    /// Per-responder miss probabilities to sweep (0 = perfect channel).
    pub miss_rates: Vec<f64>,
    /// False-busy probability applied to every lossy cell.
    pub false_busy: f64,
    /// Extra idle-slot readings taken by the mitigated variant
    /// ([`Mitigation::ReProbe`]).
    pub probes: u32,
}

impl Default for RobustnessParams {
    fn default() -> Self {
        Self {
            n: 5_000,
            rounds: 128,
            runs: 40,
            seed: 0x0B57,
            miss_rates: vec![0.0, 0.01, 0.02, 0.05, 0.10],
            false_busy: 0.0,
            probes: 2,
        }
    }
}

/// One cell of the robustness sweep.
#[derive(Debug, Clone, Copy)]
pub struct RobustnessRow {
    /// Per-responder miss probability.
    pub miss: f64,
    /// False-busy probability.
    pub false_busy: f64,
    /// Whether the re-probe mitigation was active.
    pub mitigated: bool,
    /// Mean accuracy `n̂/n`.
    pub mean_ratio: f64,
    /// Signed relative bias `mean(n̂)/n − 1`.
    pub rel_bias: f64,
    /// Normalized RMSE.
    pub normalized_rmse: f64,
    /// Mean physical slots per round (re-probing pays here).
    pub mean_slots_per_round: f64,
}

/// Sweeps miss rates × {unmitigated, mitigated} and reports accuracy,
/// bias, and RMSE per cell.
pub fn sweep(params: &RobustnessParams) -> Vec<RobustnessRow> {
    let truth = params.n as f64;
    let keys: Vec<u64> = (0..params.n as u64).collect();
    let mut rows = Vec::new();
    for &miss in &params.miss_rates {
        for mitigated in [false, true] {
            let channel = if miss == 0.0 && params.false_busy == 0.0 {
                ChannelModel::Perfect
            } else {
                ChannelModel::Lossy(
                    LossyChannel::new(miss, params.false_busy).expect("valid probabilities"),
                )
            };
            let mitigation = if mitigated {
                Mitigation::ReProbe {
                    probes: params.probes,
                }
            } else {
                Mitigation::None
            };
            let cell_seed = params.seed ^ miss.to_bits() ^ (u64::from(mitigated) << 1);
            let slot_sum = std::sync::atomic::AtomicU64::new(0);
            let summary = run_trials(params.runs, cell_seed, |trial_seed| {
                let config = PetConfig::builder()
                    .manufacture_seed(trial_seed)
                    .channel(channel)
                    .mitigation(mitigation)
                    .build()
                    .unwrap();
                let estimator = Estimator::new(config);
                let mut rng = StdRng::seed_from_u64(trial_seed);
                let report = estimator.estimate_keys_rounds(&keys, params.rounds, &mut rng);
                slot_sum.fetch_add(report.metrics.slots, std::sync::atomic::Ordering::Relaxed);
                report.estimate
            });
            let total_rounds = params.runs as f64 * f64::from(params.rounds);
            rows.push(RobustnessRow {
                miss,
                false_busy: params.false_busy,
                mitigated,
                mean_ratio: summary.mean / truth,
                rel_bias: pet_stats::conformance::relative_bias(&summary.values, truth),
                normalized_rmse: pet_stats::describe::rmse(&summary.values, truth) / truth,
                mean_slots_per_round: slot_sum.load(std::sync::atomic::Ordering::Relaxed) as f64
                    / total_rounds,
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mitigation_reduces_bias_under_heavy_loss() {
        let params = RobustnessParams {
            n: 2_000,
            rounds: 96,
            runs: 24,
            miss_rates: vec![0.0, 0.05],
            probes: 2,
            ..RobustnessParams::default()
        };
        let rows = sweep(&params);
        assert_eq!(rows.len(), 4);
        // Perfect channel: both variants essentially unbiased.
        assert!(
            rows[0].rel_bias.abs() < 0.1,
            "clean bias {}",
            rows[0].rel_bias
        );
        assert!(rows[1].rel_bias.abs() < 0.1);
        // 5% loss: unmitigated underestimates, mitigation shrinks |bias|.
        let (plain, mitigated) = (&rows[2], &rows[3]);
        assert!(
            plain.rel_bias < 0.0,
            "loss must bias low: {}",
            plain.rel_bias
        );
        assert!(
            mitigated.rel_bias.abs() < plain.rel_bias.abs(),
            "mitigated {} vs plain {}",
            mitigated.rel_bias,
            plain.rel_bias
        );
        // Re-probing pays in slots, on the clean channel too.
        assert!(rows[1].mean_slots_per_round > rows[0].mean_slots_per_round);
    }
}
