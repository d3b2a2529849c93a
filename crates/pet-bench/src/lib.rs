//! Shared pretty-printing for the `repro` binary and the Criterion benches.
//!
//! The experiments themselves live in `pet-sim::experiments`; this crate
//! renders their rows the way the paper prints them and writes the CSV
//! files under `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ledger;
pub mod suite;
pub mod svg;

use pet_sim::csv::CsvWriter;
use pet_sim::experiments::{ablations, fig4, fig6, fig7, fleet, robustness, table3, table45};
use std::io;
use std::path::Path;

/// Renders Fig. 4 rows as a table and writes `fig4.csv`.
///
/// # Errors
///
/// Returns any I/O error from the CSV writer.
pub fn report_fig4(result: &fig4::Fig4Result, out_dir: &Path) -> io::Result<()> {
    println!("\n== Fig. 4a/b/c: PET accuracy and deviation vs estimating rounds ==");
    println!(
        "{:>8} {:>8} {:>12} {:>14} {:>16}",
        "tags", "rounds", "accuracy", "std dev", "normalized std"
    );
    for r in &result.rows {
        println!(
            "{:>8} {:>8} {:>12.4} {:>14.1} {:>16.4}",
            r.n, r.rounds, r.accuracy, r.std_dev, r.normalized_std_dev
        );
    }
    let mut csv = CsvWriter::create(
        out_dir.join("fig4.csv"),
        &["n", "rounds", "accuracy", "std_dev", "normalized_std_dev"],
    )?;
    for r in &result.rows {
        csv.row(&[
            r.n as f64,
            f64::from(r.rounds),
            r.accuracy,
            r.std_dev,
            r.normalized_std_dev,
        ])?;
    }
    csv.finish()
}

/// Renders Table 3 and writes `table3.csv`.
///
/// # Errors
///
/// Returns any I/O error from the CSV writer.
pub fn report_table3(rows: &[table3::Table3Row], out_dir: &Path) -> io::Result<()> {
    println!("\n== Table 3: total time slots needed for PET (H = 32) ==");
    println!(
        "{:>8} {:>16} {:>16}",
        "rounds", "measured slots", "nominal 5m"
    );
    for r in rows {
        println!(
            "{:>8} {:>16} {:>16}",
            r.rounds, r.measured_slots, r.nominal_slots
        );
    }
    let mut csv = CsvWriter::create(
        out_dir.join("table3.csv"),
        &["rounds", "measured_slots", "nominal_slots"],
    )?;
    for r in rows {
        csv.row(&[
            f64::from(r.rounds),
            r.measured_slots as f64,
            r.nominal_slots as f64,
        ])?;
    }
    csv.finish()
}

/// Renders a slot-budget grid (Tables 4/5, Fig. 5a/b) and writes `{name}.csv`.
///
/// # Errors
///
/// Returns any I/O error from the CSV writer.
pub fn report_budgets(
    title: &str,
    name: &str,
    rows: &[table45::SlotBudgetRow],
    out_dir: &Path,
) -> io::Result<()> {
    println!("\n== {title} ==");
    println!(
        "{:<16} {:>8} {:>8} {:>8} {:>14}",
        "protocol", "eps", "delta", "rounds", "total slots"
    );
    for r in rows {
        println!(
            "{:<16} {:>8.2} {:>8.2} {:>8} {:>14}",
            r.protocol, r.epsilon, r.delta, r.rounds, r.total_slots
        );
    }
    // PET-vs-baseline ratios, the paper's headline claim.
    let pet: Vec<&table45::SlotBudgetRow> = rows.iter().filter(|r| r.protocol == "PET").collect();
    for p in &pet {
        for other in rows.iter().filter(|r| {
            r.protocol != "PET"
                && (r.epsilon - p.epsilon).abs() < 1e-12
                && (r.delta - p.delta).abs() < 1e-12
        }) {
            println!(
                "   PET/{}: {:.0}% of the time at ε={:.2} δ={:.2}",
                other.protocol,
                p.total_slots as f64 / other.total_slots as f64 * 100.0,
                p.epsilon,
                p.delta
            );
        }
    }
    let mut csv = CsvWriter::create(
        out_dir.join(format!("{name}.csv")),
        &["protocol", "epsilon", "delta", "rounds", "total_slots"],
    )?;
    for r in rows {
        csv.row_strings(&[
            r.protocol.clone(),
            format!("{:.4}", r.epsilon),
            format!("{:.4}", r.delta),
            r.rounds.to_string(),
            r.total_slots.to_string(),
        ])?;
    }
    csv.finish()
}

/// Renders coverage-validation rows and writes `validate.csv`.
///
/// # Errors
///
/// Returns any I/O error from the CSV writer.
pub fn report_validation(rows: &[table45::CoverageRow], out_dir: &Path) -> io::Result<()> {
    println!("\n== Validation: measured coverage at each protocol's own budget ==");
    println!(
        "{:<16} {:>8} {:>16} {:>14}",
        "protocol", "rounds", "within interval", "mean accuracy"
    );
    for r in rows {
        println!(
            "{:<16} {:>8} {:>15.1}% {:>14.4}",
            r.protocol,
            r.rounds,
            r.within_interval * 100.0,
            r.mean_accuracy
        );
    }
    let mut csv = CsvWriter::create(
        out_dir.join("validate.csv"),
        &["protocol", "rounds", "within_interval", "mean_accuracy"],
    )?;
    for r in rows {
        csv.row_strings(&[
            r.protocol.clone(),
            r.rounds.to_string(),
            format!("{:.4}", r.within_interval),
            format!("{:.4}", r.mean_accuracy),
        ])?;
    }
    csv.finish()
}

/// Renders the Fig. 6 distributions and writes `fig6.csv`.
///
/// # Errors
///
/// Returns any I/O error from the CSV writer.
pub fn report_fig6(result: &fig6::Fig6Result, out_dir: &Path) -> io::Result<()> {
    println!(
        "\n== Fig. 6: estimate distributions at equal slot budget ({} slots) ==",
        result.slot_budget
    );
    println!(
        "confidence interval: [{:.0}, {:.0}]",
        result.interval.0, result.interval.1
    );
    for series in [&result.pet, &result.fneb, &result.lof] {
        println!(
            "  {:<16} rounds={:<6} within interval: {:.1}%",
            series.label,
            series.rounds,
            series.within_interval * 100.0
        );
    }
    let mut csv = CsvWriter::create(
        out_dir.join("fig6.csv"),
        &["series", "bin_center", "fraction"],
    )?;
    let theory: Vec<(f64, f64)> = result.pet_theory.clone();
    for (center, frac) in &theory {
        csv.row_strings(&[
            "PET-theory".to_string(),
            format!("{center:.1}"),
            format!("{frac:.6}"),
        ])?;
    }
    for series in [&result.pet, &result.fneb, &result.lof] {
        for (center, frac) in &series.series {
            csv.row_strings(&[
                series.label.clone(),
                format!("{center:.1}"),
                format!("{frac:.6}"),
            ])?;
        }
    }
    csv.finish()
}

/// Renders Fig. 7 memory rows and writes `{name}.csv`.
///
/// # Errors
///
/// Returns any I/O error from the CSV writer.
pub fn report_fig7(
    title: &str,
    name: &str,
    rows: &[fig7::Fig7Row],
    out_dir: &Path,
) -> io::Result<()> {
    println!("\n== {title} ==");
    println!(
        "{:<16} {:>8} {:>8} {:>14}",
        "protocol", "eps", "delta", "memory (bits)"
    );
    for r in rows {
        println!(
            "{:<16} {:>8.2} {:>8.2} {:>14}",
            r.protocol, r.epsilon, r.delta, r.memory_bits
        );
    }
    let mut csv = CsvWriter::create(
        out_dir.join(format!("{name}.csv")),
        &["protocol", "epsilon", "delta", "memory_bits"],
    )?;
    for r in rows {
        csv.row_strings(&[
            r.protocol.clone(),
            format!("{:.4}", r.epsilon),
            format!("{:.4}", r.delta),
            r.memory_bits.to_string(),
        ])?;
    }
    csv.finish()
}

/// Renders every ablation and writes `ablations.csv`.
///
/// # Errors
///
/// Returns any I/O error from the CSV writer.
pub fn report_ablations(
    search: &[ablations::SearchCostRow],
    encodings: &[ablations::EncodingRow],
    loss: &[ablations::LossRow],
    early: &[ablations::EarlyTerminationRow],
    families: &[ablations::HashFamilyRow],
    out_dir: &Path,
) -> io::Result<()> {
    println!("\n== Ablation: linear vs binary search (slots per round) ==");
    println!("{:>10} {:>10} {:>10}", "tags", "linear", "binary");
    for r in search {
        println!(
            "{:>10} {:>10.2} {:>10.2}",
            r.n, r.linear_slots_per_round, r.binary_slots_per_round
        );
    }
    println!("\n== Ablation: command encodings (§4.6.2) ==");
    println!("{:<16} {:>10} {:>14}", "encoding", "slots", "command bits");
    for r in encodings {
        println!("{:<16} {:>10} {:>14}", r.encoding, r.slots, r.command_bits);
    }
    println!("\n== Ablation: lossy channel ==");
    println!(
        "{:>10} {:>12} {:>16}",
        "miss prob", "accuracy", "normalized rmse"
    );
    for r in loss {
        println!(
            "{:>10.2} {:>12.4} {:>16.4}",
            r.miss_prob, r.accuracy, r.normalized_rmse
        );
    }
    println!("\n== Ablation: LoF early termination ==");
    println!("{:>8} {:>14} {:>12}", "early", "slots/round", "accuracy");
    for r in early {
        println!(
            "{:>8} {:>14.2} {:>12.4}",
            r.early_termination, r.slots_per_round, r.accuracy
        );
    }
    println!("\n== Ablation: hash families (§4.5) ==");
    println!("{:<10} {:>12}", "family", "accuracy");
    for r in families {
        println!("{:<10} {:>12.4}", r.family, r.accuracy);
    }

    let mut csv = CsvWriter::create(
        out_dir.join("ablations.csv"),
        &["ablation", "key", "value_a", "value_b"],
    )?;
    for r in search {
        csv.row_strings(&[
            "search".into(),
            r.n.to_string(),
            format!("{:.3}", r.linear_slots_per_round),
            format!("{:.3}", r.binary_slots_per_round),
        ])?;
    }
    for r in encodings {
        csv.row_strings(&[
            "encoding".into(),
            r.encoding.replace(',', ";"),
            r.slots.to_string(),
            r.command_bits.to_string(),
        ])?;
    }
    for r in loss {
        csv.row_strings(&[
            "loss".into(),
            format!("{:.3}", r.miss_prob),
            format!("{:.4}", r.accuracy),
            format!("{:.4}", r.normalized_rmse),
        ])?;
    }
    for r in early {
        csv.row_strings(&[
            "lof_early".into(),
            r.early_termination.to_string(),
            format!("{:.3}", r.slots_per_round),
            format!("{:.4}", r.accuracy),
        ])?;
    }
    for r in families {
        csv.row_strings(&[
            "hash_family".into(),
            r.family.clone(),
            format!("{:.4}", r.accuracy),
            String::new(),
        ])?;
    }
    csv.finish()
}

/// Renders the robustness sweep (accuracy vs channel-fault rates, with
/// and without re-probe mitigation) and writes `robustness.csv`.
///
/// # Errors
///
/// Returns any I/O error from the CSV writer.
pub fn report_robustness(rows: &[robustness::RobustnessRow], out_dir: &Path) -> io::Result<()> {
    println!("\n== Robustness: accuracy under channel faults ==");
    println!(
        "{:>10} {:>12} {:>10} {:>12} {:>10} {:>12} {:>12}",
        "miss", "false busy", "mitigated", "mean n̂/n", "bias", "norm. rmse", "slots/round"
    );
    for r in rows {
        println!(
            "{:>10.3} {:>12.3} {:>10} {:>12.4} {:>+10.4} {:>12.4} {:>12.2}",
            r.miss,
            r.false_busy,
            r.mitigated,
            r.mean_ratio,
            r.rel_bias,
            r.normalized_rmse,
            r.mean_slots_per_round
        );
    }
    let mut csv = CsvWriter::create(
        out_dir.join("robustness.csv"),
        &[
            "miss",
            "false_busy",
            "mitigated",
            "mean_ratio",
            "rel_bias",
            "normalized_rmse",
            "mean_slots_per_round",
        ],
    )?;
    for r in rows {
        csv.row_strings(&[
            format!("{:.4}", r.miss),
            format!("{:.4}", r.false_busy),
            r.mitigated.to_string(),
            format!("{:.5}", r.mean_ratio),
            format!("{:.5}", r.rel_bias),
            format!("{:.5}", r.normalized_rmse),
            format!("{:.3}", r.mean_slots_per_round),
        ])?;
    }
    csv.finish()
}

/// Renders the fleet sweep (single reader vs overlap-2 fleet under loss
/// and kill schedules) and writes `fleet.csv`.
///
/// # Errors
///
/// Returns any I/O error from the CSV writer.
pub fn report_fleet(rows: &[fleet::FleetRow], out_dir: &Path) -> io::Result<()> {
    println!("\n== Fleet: multi-reader merges under loss and outages ==");
    println!(
        "{:>8} {:>8} {:>6} {:>12} {:>10} {:>12} {:>10} {:>14}",
        "readers", "miss", "kills", "mean n̂/n", "bias", "norm. rmse", "coverage", "partial rounds"
    );
    for r in rows {
        println!(
            "{:>8} {:>8.3} {:>6} {:>12.4} {:>+10.4} {:>12.4} {:>10.4} {:>14.1}",
            r.readers,
            r.miss,
            r.kills,
            r.mean_ratio,
            r.rel_bias,
            r.normalized_rmse,
            r.effective_coverage,
            r.mean_partial_rounds
        );
    }
    let mut csv = CsvWriter::create(
        out_dir.join("fleet.csv"),
        &[
            "readers",
            "miss",
            "kills",
            "mean_ratio",
            "rel_bias",
            "normalized_rmse",
            "effective_coverage",
            "mean_partial_rounds",
        ],
    )?;
    for r in rows {
        csv.row_strings(&[
            r.readers.to_string(),
            format!("{:.4}", r.miss),
            r.kills.to_string(),
            format!("{:.5}", r.mean_ratio),
            format!("{:.5}", r.rel_bias),
            format!("{:.5}", r.normalized_rmse),
            format!("{:.5}", r.effective_coverage),
            format!("{:.2}", r.mean_partial_rounds),
        ])?;
    }
    csv.finish()
}

/// Renders the motivation sweep (identification vs estimation) and writes
/// `motivation.csv`.
///
/// # Errors
///
/// Returns any I/O error from the CSV writer.
pub fn report_motivation(
    rows: &[pet_sim::experiments::motivation::MotivationRow],
    out_dir: &Path,
) -> io::Result<()> {
    println!("\n== Motivation (§1): identification vs estimation, slots ==");
    println!(
        "{:>10} {:>14} {:>14} {:>12} {:>10}",
        "tags", "Aloha-ID", "TreeWalk-ID", "PET (ε,δ)", "speedup"
    );
    for r in rows {
        println!(
            "{:>10} {:>14} {:>14} {:>12} {:>9.0}×",
            r.n,
            r.aloha_slots,
            r.treewalk_slots,
            r.pet_slots,
            r.speedup()
        );
    }
    let mut csv = CsvWriter::create(
        out_dir.join("motivation.csv"),
        &["n", "aloha_slots", "treewalk_slots", "pet_slots"],
    )?;
    for r in rows {
        csv.row(&[
            r.n as f64,
            r.aloha_slots as f64,
            r.treewalk_slots as f64,
            r.pet_slots as f64,
        ])?;
    }
    csv.finish()
}

/// Renders the energy comparison and writes `energy.csv`.
///
/// # Errors
///
/// Returns any I/O error from the CSV writer.
pub fn report_energy(
    rows: &[pet_sim::experiments::energy::EnergyRow],
    out_dir: &Path,
) -> io::Result<()> {
    println!("\n== Energy per estimate (semi-passive model) ==");
    println!(
        "{:<8} {:>10} {:>16} {:>14} {:>12} {:>12}",
        "protocol", "slots", "tag responses", "resp/tag", "reader mJ", "tags mJ"
    );
    for r in rows {
        println!(
            "{:<8} {:>10} {:>16} {:>14.2} {:>12.1} {:>12.1}",
            r.protocol, r.slots, r.tag_responses, r.responses_per_tag, r.reader_mj, r.tags_mj
        );
    }
    let mut csv = CsvWriter::create(
        out_dir.join("energy.csv"),
        &[
            "protocol",
            "slots",
            "tag_responses",
            "responses_per_tag",
            "reader_mj",
            "tags_mj",
        ],
    )?;
    for r in rows {
        csv.row_strings(&[
            r.protocol.clone(),
            r.slots.to_string(),
            r.tag_responses.to_string(),
            format!("{:.3}", r.responses_per_tag),
            format!("{:.3}", r.reader_mj),
            format!("{:.3}", r.tags_mj),
        ])?;
    }
    csv.finish()
}

/// Renders the Gen2 PHY pricing sweep and writes `phy.csv`.
///
/// # Errors
///
/// Returns any I/O error from the CSV writer.
pub fn report_phy(rows: &[pet_sim::experiments::phy::PhyRow], out_dir: &Path) -> io::Result<()> {
    println!("\n== Gen2 PHY pricing: wall-clock and energy per estimate ==");
    println!(
        "{:<16} {:>9} {:>10} {:>10} {:>12} {:>12} {:>12}",
        "scenario", "rel err", "slots", "responses", "wall ms", "energy µJ", "tag µJ"
    );
    for r in rows {
        println!(
            "{:<16} {:>8.2}% {:>10} {:>10} {:>12.1} {:>12.0} {:>12.0}",
            r.scenario,
            r.rel_error * 100.0,
            r.slots,
            r.tag_responses,
            r.wall_ms,
            r.energy_uj,
            r.tag_uj
        );
    }
    let mut csv = CsvWriter::create(
        out_dir.join("phy.csv"),
        &[
            "scenario",
            "n",
            "estimate",
            "rel_error",
            "slots",
            "tag_responses",
            "wall_ms",
            "energy_uj",
            "tag_uj",
        ],
    )?;
    for r in rows {
        csv.row_strings(&[
            r.scenario.clone(),
            r.n.to_string(),
            format!("{:.1}", r.estimate),
            format!("{:.4}", r.rel_error),
            r.slots.to_string(),
            r.tag_responses.to_string(),
            format!("{:.3}", r.wall_ms),
            format!("{:.1}", r.energy_uj),
            format!("{:.1}", r.tag_uj),
        ])?;
    }
    csv.finish()
}

/// Renders the adaptive-stopping comparison rows.
pub fn print_adaptive(rows: &[pet_sim::experiments::ablations::AdaptiveRow]) {
    println!("\n== Ablation: fixed Eq. (20) budget vs adaptive early stopping ==");
    println!("{:<16} {:>12} {:>12}", "mode", "mean rounds", "coverage");
    for r in rows {
        println!(
            "{:<16} {:>12.1} {:>11.1}%",
            r.mode,
            r.mean_rounds,
            r.coverage * 100.0
        );
    }
}

/// Renders the detection power curve and writes `detection.csv`.
///
/// # Errors
///
/// Returns any I/O error from the CSV writer.
pub fn report_detection(
    rows: &[pet_sim::experiments::detection::DetectionRow],
    out_dir: &Path,
) -> io::Result<()> {
    println!("\n== Missing-tag detection power curve (one-shot audit) ==");
    println!(
        "{:>14} {:>14} {:>16}",
        "missing θ", "alarm rate", "predicted"
    );
    for r in rows {
        println!(
            "{:>13.1}% {:>13.1}% {:>15.1}%",
            r.missing_fraction * 100.0,
            r.alarm_rate * 100.0,
            r.predicted_rate * 100.0
        );
    }
    let mut csv = CsvWriter::create(
        out_dir.join("detection.csv"),
        &["missing_fraction", "alarm_rate", "predicted_rate"],
    )?;
    for r in rows {
        csv.row(&[r.missing_fraction, r.alarm_rate, r.predicted_rate])?;
    }
    csv.finish()
}

/// Renders the streaming-monitor detection sweep and writes `monitor.csv`.
///
/// # Errors
///
/// Returns any I/O error from the CSV writer.
pub fn report_monitor(
    rows: &[pet_sim::experiments::monitor::MonitorSweepRow],
    out_dir: &Path,
) -> io::Result<()> {
    println!("\n== Streaming monitor: detection latency vs churn rate (pet-core monitor) ==");
    println!(
        "{:>12} {:>12} {:>18} {:>14}",
        "churn rate", "detection", "latency (updates)", "false alarms"
    );
    for r in rows {
        println!(
            "{:>12} {:>11.1}% {:>18.2} {:>13.1}%",
            r.churn_rate,
            r.detection_rate * 100.0,
            r.mean_latency,
            r.false_alarm_rate * 100.0
        );
    }
    let mut csv = CsvWriter::create(
        out_dir.join("monitor.csv"),
        &[
            "churn_rate",
            "detection_rate",
            "mean_latency_updates",
            "false_alarm_rate",
        ],
    )?;
    for r in rows {
        csv.row(&[
            r.churn_rate as f64,
            r.detection_rate,
            r.mean_latency,
            r.false_alarm_rate,
        ])?;
    }
    csv.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_render_without_errors() {
        let dir = std::env::temp_dir().join(format!("pet-bench-{}", std::process::id()));
        let rows = table45::table4();
        report_budgets("Table 4 (test)", "table4_test", &rows, &dir).unwrap();
        let t3 = table3::run(&table3::Table3Params {
            n: 1_000,
            round_counts: vec![16],
            seed: 1,
        });
        report_table3(&t3, &dir).unwrap();
        let mem = fig7::memory_grid(&[0.05], &[0.01]);
        report_fig7("Fig 7 (test)", "fig7_test", &mem, &dir).unwrap();
        assert!(dir.join("table4_test.csv").exists());
        assert!(dir.join("table3.csv").exists());
        assert!(dir.join("fig7_test.csv").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Emits ready-to-view SVG figures from experiment rows into
/// `<out_dir>/svg/`.
///
/// # Errors
///
/// Returns any I/O error from writing the files.
pub mod figures {
    use crate::svg::{Scale, SvgChart};
    use pet_sim::experiments::{
        ablations, detection, energy, fig4, fig6, fig7, fleet, monitor, motivation, phy,
        robustness, table45,
    };
    use std::io;
    use std::path::Path;

    fn svg_dir(out_dir: &Path) -> std::path::PathBuf {
        out_dir.join("svg")
    }

    /// Column extractor for one Fig. 4 panel.
    type Fig4Value = fn(&fig4::Fig4Row) -> f64;

    /// Fig. 4a/b/c as three SVGs.
    pub fn fig4(result: &fig4::Fig4Result, out_dir: &Path) -> io::Result<()> {
        let dir = svg_dir(out_dir);
        let charts: [(&str, &str, Fig4Value, Scale); 3] = [
            (
                "fig4a",
                "Estimation accuracy (n̂/n)",
                |r| r.accuracy,
                Scale::Linear,
            ),
            (
                "fig4b",
                "Standard deviation",
                |r| r.std_dev.max(1e-9),
                Scale::Log,
            ),
            (
                "fig4c",
                "Normalized standard deviation",
                |r| r.normalized_std_dev.max(1e-9),
                Scale::Log,
            ),
        ];
        for (stem, ylabel, value, yscale) in charts {
            let mut chart = SvgChart::new(
                &format!("{ylabel} vs estimating rounds"),
                "estimating rounds m",
                ylabel,
            )
            .scales(Scale::Log, yscale);
            let mut ns: Vec<usize> = result.rows.iter().map(|r| r.n).collect();
            ns.sort_unstable();
            ns.dedup();
            for n in ns {
                let pts: Vec<(f64, f64)> = result
                    .rows
                    .iter()
                    .filter(|r| r.n == n)
                    .map(|r| (f64::from(r.rounds), value(r)))
                    .collect();
                chart = chart.series(&format!("n = {n}"), pts);
            }
            chart.save(&dir.join(format!("{stem}.svg")))?;
        }
        Ok(())
    }

    /// One slot-budget grid (Table 4/5, Fig. 5a/b) as an SVG.
    pub fn budgets(
        rows: &[table45::SlotBudgetRow],
        stem: &str,
        x_is_epsilon: bool,
        out_dir: &Path,
    ) -> io::Result<()> {
        let mut chart = SvgChart::new(
            "Slots to meet the accuracy requirement",
            if x_is_epsilon {
                "confidence interval ε"
            } else {
                "error probability δ"
            },
            "total time slots",
        )
        .scales(Scale::Linear, Scale::Log);
        for proto in ["PET", "FNEB", "LoF"] {
            let pts: Vec<(f64, f64)> = rows
                .iter()
                .filter(|r| r.protocol == proto)
                .map(|r| {
                    (
                        if x_is_epsilon { r.epsilon } else { r.delta },
                        r.total_slots as f64,
                    )
                })
                .collect();
            chart = chart.series(proto, pts);
        }
        chart.save(&svg_dir(out_dir).join(format!("{stem}.svg")))
    }

    /// Fig. 6 distributions as an SVG.
    pub fn fig6(result: &fig6::Fig6Result, out_dir: &Path) -> io::Result<()> {
        let mut chart = SvgChart::new(
            &format!("Estimate distributions at {} slots", result.slot_budget),
            "estimated number of tags",
            "fraction of runs",
        );
        chart = chart.series("PET theory", result.pet_theory.clone());
        for s in [&result.pet, &result.fneb, &result.lof] {
            chart = chart.series(&s.label, s.series.clone());
        }
        chart.save(&svg_dir(out_dir).join("fig6.svg"))
    }

    /// One memory grid (Fig. 7a/b) as an SVG.
    pub fn fig7(
        rows: &[fig7::Fig7Row],
        stem: &str,
        x_is_epsilon: bool,
        out_dir: &Path,
    ) -> io::Result<()> {
        let mut chart = SvgChart::new(
            "Per-tag memory for preloaded randomness",
            if x_is_epsilon {
                "confidence interval ε"
            } else {
                "error probability δ"
            },
            "tag memory (bits)",
        )
        .scales(Scale::Linear, Scale::Log);
        for proto in ["PET", "FNEB", "LoF"] {
            let pts: Vec<(f64, f64)> = rows
                .iter()
                .filter(|r| r.protocol == proto)
                .map(|r| {
                    (
                        if x_is_epsilon { r.epsilon } else { r.delta },
                        r.memory_bits as f64,
                    )
                })
                .collect();
            chart = chart.series(proto, pts);
        }
        chart.save(&svg_dir(out_dir).join(format!("{stem}.svg")))
    }

    /// Motivation sweep as a log-log SVG.
    pub fn motivation(rows: &[motivation::MotivationRow], out_dir: &Path) -> io::Result<()> {
        let chart = SvgChart::new(
            "Identification vs estimation cost",
            "number of tags",
            "total time slots",
        )
        .scales(Scale::Log, Scale::Log)
        .series(
            "Aloha-ID",
            rows.iter()
                .map(|r| (r.n as f64, r.aloha_slots as f64))
                .collect(),
        )
        .series(
            "TreeWalk-ID",
            rows.iter()
                .map(|r| (r.n as f64, r.treewalk_slots as f64))
                .collect(),
        )
        .series(
            "PET (ε=5%, δ=1%)",
            rows.iter()
                .map(|r| (r.n as f64, r.pet_slots as f64))
                .collect(),
        );
        chart.save(&svg_dir(out_dir).join("motivation.svg"))
    }

    /// Detection power curve as an SVG.
    pub fn detection(rows: &[detection::DetectionRow], out_dir: &Path) -> io::Result<()> {
        let chart = SvgChart::new(
            "Missing-tag detection power",
            "true missing fraction",
            "alarm probability",
        )
        .series(
            "measured",
            rows.iter()
                .map(|r| (r.missing_fraction, r.alarm_rate))
                .collect(),
        )
        .series(
            "normal theory",
            rows.iter()
                .map(|r| (r.missing_fraction, r.predicted_rate))
                .collect(),
        );
        chart.save(&svg_dir(out_dir).join("detection.svg"))
    }

    /// Streaming-monitor detection sweep as an SVG: mean detection
    /// latency (in updates after the burst) and detection rate vs the
    /// balanced churn rate.
    pub fn monitor(rows: &[monitor::MonitorSweepRow], out_dir: &Path) -> io::Result<()> {
        let chart = SvgChart::new(
            "Missing-tag detection vs churn",
            "balanced churn rate (tags per update)",
            "updates / probability",
        )
        .series(
            "mean detection latency (updates)",
            rows.iter()
                .map(|r| (r.churn_rate as f64, r.mean_latency))
                .collect(),
        )
        .series(
            "detection rate",
            rows.iter()
                .map(|r| (r.churn_rate as f64, r.detection_rate))
                .collect(),
        );
        chart.save(&svg_dir(out_dir).join("monitor.svg"))
    }

    /// Energy comparison as a log-scale bar-like SVG (one point per
    /// protocol).
    pub fn energy(rows: &[energy::EnergyRow], out_dir: &Path) -> io::Result<()> {
        let mut chart = SvgChart::new(
            "Tag transmissions per estimate",
            "protocol index (PET, FNEB, LoF)",
            "responses per tag",
        )
        .scales(Scale::Linear, Scale::Log);
        for (i, r) in rows.iter().enumerate() {
            chart = chart.series(&r.protocol, vec![(i as f64, r.responses_per_tag.max(1e-3))]);
        }
        chart.save(&svg_dir(out_dir).join("energy.svg"))
    }

    /// Gen2 PHY pricing as a log-scale scatter SVG: each scenario is one
    /// point per axis (wall-clock ms and total µJ), indexed by its
    /// position in the sweep so the crossover between accuracy-bound PET
    /// and population-bound FSA is visible at a glance.
    pub fn phy(rows: &[phy::PhyRow], out_dir: &Path) -> io::Result<()> {
        let mut chart = SvgChart::new(
            "Gen2 PHY cost per estimate",
            "scenario index (PET, PET+tash…, FSA, FNEB, LoF, EZB, UPE)",
            "wall ms / energy µJ",
        )
        .scales(Scale::Linear, Scale::Log);
        chart = chart.series(
            "wall ms",
            rows.iter()
                .enumerate()
                .map(|(i, r)| (i as f64, r.wall_ms.max(1e-3)))
                .collect(),
        );
        chart = chart.series(
            "energy µJ",
            rows.iter()
                .enumerate()
                .map(|(i, r)| (i as f64, r.energy_uj.max(1e-3)))
                .collect(),
        );
        chart.save(&svg_dir(out_dir).join("phy.svg"))
    }

    /// Robustness sweep as an SVG: accuracy degradation vs miss rate,
    /// unmitigated vs re-probed.
    pub fn robustness(rows: &[robustness::RobustnessRow], out_dir: &Path) -> io::Result<()> {
        let mut chart = SvgChart::new(
            "PET accuracy vs channel faults",
            "slot miss probability",
            "mean accuracy (n̂/n)",
        );
        for (label, mitigated) in [("unmitigated", false), ("re-probed", true)] {
            chart = chart.series(
                label,
                rows.iter()
                    .filter(|r| r.mitigated == mitigated)
                    .map(|r| (r.miss, r.mean_ratio))
                    .collect(),
            );
        }
        chart.save(&svg_dir(out_dir).join("robustness.svg"))
    }

    /// Fleet sweep as an SVG: accuracy vs kill count for the overlap-2
    /// fleet (one series per miss rate), with the single-reader baseline
    /// drawn as its own flat series.
    pub fn fleet(rows: &[fleet::FleetRow], out_dir: &Path) -> io::Result<()> {
        let mut chart = SvgChart::new(
            "Fleet accuracy vs kill schedule",
            "readers killed mid-run",
            "mean accuracy (n̂/n)",
        );
        let max_kills = rows.iter().map(|r| r.kills).max().unwrap_or(0) as f64;
        let mut misses: Vec<f64> = rows.iter().map(|r| r.miss).collect();
        misses.dedup();
        for miss in misses {
            chart = chart.series(
                &format!("fleet, miss {miss:.2}"),
                rows.iter()
                    .filter(|r| r.readers > 1 && r.miss == miss)
                    .map(|r| (r.kills as f64, r.mean_ratio))
                    .collect(),
            );
            chart = chart.series(
                &format!("single, miss {miss:.2}"),
                rows.iter()
                    .filter(|r| r.readers == 1 && r.miss == miss)
                    .flat_map(|r| [(0.0, r.mean_ratio), (max_kills, r.mean_ratio)])
                    .collect(),
            );
        }
        chart.save(&svg_dir(out_dir).join("fleet.svg"))
    }

    /// Lossy-channel ablation as an SVG.
    pub fn loss(rows: &[ablations::LossRow], out_dir: &Path) -> io::Result<()> {
        let chart = SvgChart::new(
            "PET accuracy under channel loss",
            "slot miss probability",
            "mean accuracy (n̂/n)",
        )
        .series(
            "accuracy",
            rows.iter().map(|r| (r.miss_prob, r.accuracy)).collect(),
        )
        .series(
            "normalized RMSE",
            rows.iter()
                .map(|r| (r.miss_prob, r.normalized_rmse))
                .collect(),
        );
        chart.save(&svg_dir(out_dir).join("loss.svg"))
    }
}
