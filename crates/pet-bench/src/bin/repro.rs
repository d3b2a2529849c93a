//! Regenerates every table and figure of the paper's evaluation (§5).
//!
//! ```sh
//! cargo run -p pet-bench --release --bin repro -- all
//! cargo run -p pet-bench --release --bin repro -- fig4 table3 table4 table5 \
//!     fig5a fig5b fig6 fig7a fig7b validate ablations
//! cargo run -p pet-bench --release --bin repro -- --quick all   # reduced runs
//! cargo run -p pet-bench --release --bin repro -- \
//!     --telemetry results/repro.jsonl fig4          # stream pet-obs events
//! ```
//!
//! Printed tables mirror the paper's rows; CSV files land in `results/`.

use pet_bench::ledger;
use pet_sim::experiments::{
    ablations, detection, energy, fig4, fig6, fig7, fleet, monitor, motivation, phy, table3,
    table45,
};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::Instant;

const EXPERIMENTS: &[&str] = &[
    "fig4",
    "table3",
    "table4",
    "table5",
    "fig5a",
    "fig5b",
    "fig6",
    "fig7a",
    "fig7b",
    "validate",
    "ablations",
    "motivation",
    "energy",
    "phy",
    "detection",
    "monitor",
    "fleet",
    "bench-server",
];

/// Closed-loop serving throughput with deep pipelining across a wide
/// connection fan-in (16 connections, 64 requests in flight each, one
/// shard). The run is best-of-3 against one server instance — the digest
/// is identical across repeats (deterministic server, same id stream), so
/// only the clock varies and the minimum is the least
/// noise-contaminated sample. It appends one `server-loadgen` row to
/// `results/ledger.jsonl`, keyed `evented/c16/p64`.
fn bench_server(out_dir: &Path, quick: bool) {
    use pet_server::loadgen::{run_batch, BatchReport, Plan};
    use pet_server::{serve, Backend, ServerConfig};

    let requests: usize = if quick { 20_000 } else { 200_000 };
    let repeats = 3;
    let handle = serve(&ServerConfig {
        workers: 1,
        queue_capacity: 16_384,
        deterministic: true,
        ..ServerConfig::default()
    })
    .expect("bind bench server");
    let plan = Plan {
        requests,
        connections: 16,
        threads: 8,
        pipeline: 64,
        tags: 200,
        rounds: 4,
    };
    let mut report: Option<BatchReport> = None;
    let mut rates: Vec<f64> = Vec::with_capacity(repeats);
    for _ in 0..repeats {
        let r = run_batch(handle.addr(), &plan);
        assert_eq!(
            r.ok, requests,
            "bench-server lost replies: {} ok, {} overloaded, {} errors, {} lost",
            r.ok, r.overloaded, r.errors, r.lost
        );
        rates.push(requests as f64 / r.elapsed.as_secs_f64().max(1e-9));
        match &report {
            Some(best) if r.elapsed >= best.elapsed => {}
            _ => report = Some(r),
        }
    }
    let report = report.expect("at least one repeat");
    handle.shutdown();
    handle.join();
    println!(
        "bench-server: {} conns, pipeline {}: {requests} requests in {:.2} s ({:.0} req/s), \
         p99 {:.3} ms, digest {:#018x}",
        plan.connections,
        plan.pipeline,
        report.elapsed.as_secs_f64(),
        requests as f64 / report.elapsed.as_secs_f64().max(1e-9),
        report.percentile(0.99) as f64 / 1e6,
        report.digest,
    );
    let mut row = ledger::loadgen_row(Backend::Evented.name(), &plan, &report);
    mark_quick(&mut row, quick);
    row.source = "repro:bench-server".to_string();
    row.best_of = repeats as u64;
    row.noise_floor = ledger::noise_floor_of(&rates);
    ledger::append(&out_dir.join("ledger.jsonl"), &[row]).expect("append ledger.jsonl");
    println!("bench-server: row appended to results/ledger.jsonl");
}

/// Ends a `--quick` run's config key in `/quick`, so the gate never
/// compares a reduced run with a full one; a full run's keys stay as they
/// are.
fn mark_quick(row: &mut ledger::LedgerRow, quick: bool) {
    if quick {
        row.config.push_str("/quick");
    }
}

/// A `repro <bench>` ledger row, stamped now.
fn repro_row(bench: &str, config: &str, quick: bool, commit: &str) -> ledger::LedgerRow {
    let mut row = ledger::LedgerRow::new(bench, config, commit).stamped_now();
    mark_quick(&mut row, quick);
    row.source = format!("repro:{bench}");
    row
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    // `--telemetry <path.jsonl>`: stream pet-obs events (per-round spans,
    // slot counters, cache hit rates, trial-runner wall time) for the whole
    // reproduction run; summarize with `pet telemetry --file <path>`.
    let telemetry_path = args.iter().position(|a| a == "--telemetry").map(|i| {
        args.get(i + 1)
            .filter(|v| !v.starts_with("--"))
            .unwrap_or_else(|| {
                eprintln!("--telemetry requires a file path");
                std::process::exit(2);
            })
            .clone()
    });
    if let Some(path) = &telemetry_path {
        match pet_obs::JsonlSink::create(path) {
            Ok(sink) => pet_obs::install(std::sync::Arc::new(sink)),
            Err(e) => {
                eprintln!("--telemetry {path}: {e}");
                std::process::exit(2);
            }
        }
    }
    let mut skip_next = false;
    let requested: BTreeSet<String> = args
        .iter()
        .filter(|a| {
            if skip_next {
                skip_next = false;
                return false;
            }
            if *a == "--telemetry" {
                skip_next = true;
            }
            !a.starts_with("--")
        })
        .map(|a| a.to_lowercase())
        .collect();
    if requested.is_empty() {
        eprintln!(
            "usage: repro [--quick] [--telemetry out.jsonl] [all | {}]",
            EXPERIMENTS.join(" | ")
        );
        std::process::exit(2);
    }
    let want = |name: &str| requested.contains("all") || requested.contains(name);
    for name in &requested {
        if name != "all" && !EXPERIMENTS.contains(&name.as_str()) {
            eprintln!(
                "unknown experiment {name:?}; known: all {}",
                EXPERIMENTS.join(" ")
            );
            std::process::exit(2);
        }
    }

    let out_dir = PathBuf::from("results");
    let runs = if quick { 60 } else { 300 };
    println!(
        "PET reproduction harness — {} runs per data point, output in {}/",
        runs,
        out_dir.display()
    );

    let clock = Instant::now();

    if want("fig4") {
        let params = fig4::Fig4Params {
            runs,
            ..fig4::Fig4Params::default()
        };
        let result = fig4::run(&params);
        pet_bench::report_fig4(&result, &out_dir).expect("write fig4");
        pet_bench::figures::fig4(&result, &out_dir).expect("fig4 svg");
    }

    if want("table3") {
        let rows = table3::run(&table3::Table3Params::default());
        pet_bench::report_table3(&rows, &out_dir).expect("write table3");
    }

    if want("table4") {
        let rows = table45::table4();
        pet_bench::report_budgets(
            "Table 4: slots to meet accuracy, ε ∈ {5..20}%, δ = 1% (n = 50,000)",
            "table4",
            &rows,
            &out_dir,
        )
        .expect("write table4");
    }

    if want("table5") {
        let rows = table45::table5();
        pet_bench::report_budgets(
            "Table 5: slots to meet accuracy, δ ∈ {1..20}%, ε = 5% (n = 50,000)",
            "table5",
            &rows,
            &out_dir,
        )
        .expect("write table5");
    }

    if want("fig5a") {
        let rows = table45::fig5a();
        pet_bench::report_budgets(
            "Fig. 5a: slots vs confidence interval ε (δ = 1%)",
            "fig5a",
            &rows,
            &out_dir,
        )
        .expect("write fig5a");
        pet_bench::figures::budgets(&rows, "fig5a", true, &out_dir).expect("fig5a svg");
    }

    if want("fig5b") {
        let rows = table45::fig5b();
        pet_bench::report_budgets(
            "Fig. 5b: slots vs error probability δ (ε = 5%)",
            "fig5b",
            &rows,
            &out_dir,
        )
        .expect("write fig5b");
        pet_bench::figures::budgets(&rows, "fig5b", false, &out_dir).expect("fig5b svg");
    }

    if want("fig6") {
        let params = fig6::Fig6Params {
            runs,
            ..fig6::Fig6Params::default()
        };
        let result = fig6::run(&params);
        pet_bench::report_fig6(&result, &out_dir).expect("write fig6");
        pet_bench::figures::fig6(&result, &out_dir).expect("fig6 svg");
    }

    if want("fig7a") {
        let rows = fig7::fig7a();
        pet_bench::report_fig7(
            "Fig. 7a: tag memory vs ε (δ = 1%, log scale in the paper)",
            "fig7a",
            &rows,
            &out_dir,
        )
        .expect("write fig7a");
        pet_bench::figures::fig7(&rows, "fig7a", true, &out_dir).expect("fig7a svg");
    }

    if want("fig7b") {
        let rows = fig7::fig7b();
        pet_bench::report_fig7(
            "Fig. 7b: tag memory vs δ (ε = 5%)",
            "fig7b",
            &rows,
            &out_dir,
        )
        .expect("write fig7b");
        pet_bench::figures::fig7(&rows, "fig7b", false, &out_dir).expect("fig7b svg");
    }

    if want("validate") {
        let rows = table45::validate(&table45::ValidateParams {
            runs,
            ..table45::ValidateParams::default()
        });
        pet_bench::report_validation(&rows, &out_dir).expect("write validate");
    }

    if want("motivation") {
        let rows = motivation::run(&motivation::MotivationParams::default());
        pet_bench::report_motivation(&rows, &out_dir).expect("write motivation");
        pet_bench::figures::motivation(&rows, &out_dir).expect("motivation svg");
    }

    if want("energy") {
        let rows = energy::run(&energy::EnergyParams::default());
        pet_bench::report_energy(&rows, &out_dir).expect("write energy");
        pet_bench::figures::energy(&rows, &out_dir).expect("energy svg");
    }

    if want("phy") {
        let params = if quick {
            phy::PhyParams {
                n: 2_000,
                epsilon: 0.10,
                delta: 0.05,
                ..phy::PhyParams::default()
            }
        } else {
            phy::PhyParams::default()
        };
        let rows = phy::run(&params);
        pet_bench::report_phy(&rows, &out_dir).expect("write phy");
        pet_bench::figures::phy(&rows, &out_dir).expect("phy svg");
        // One ledger row per scenario so the gate's phy pin tracks the
        // modeled on-air time (and the energy bill rides along) at the
        // paper operating point.
        let commit = ledger::current_commit();
        let ledger_rows: Vec<ledger::LedgerRow> = rows
            .iter()
            .map(|r| {
                let config = format!(
                    "scenario={}/n={}/eps={}/delta={}",
                    r.scenario, r.n, params.epsilon, params.delta
                );
                let mut row = repro_row("phy", &config, quick, &commit);
                row.metric("wall_ms_per_estimate", r.wall_ms)
                    .expect("finite wall clock");
                row.metric("energy_uj_per_estimate", r.energy_uj)
                    .expect("finite energy");
                row
            })
            .collect();
        ledger::append(&out_dir.join("ledger.jsonl"), &ledger_rows).expect("append ledger.jsonl");
        println!(
            "phy: {} ledger rows appended to results/ledger.jsonl",
            ledger_rows.len()
        );
    }

    if want("detection") {
        let rows = detection::run(&detection::DetectionParams {
            runs,
            ..detection::DetectionParams::default()
        });
        pet_bench::report_detection(&rows, &out_dir).expect("write detection");
        pet_bench::figures::detection(&rows, &out_dir).expect("detection svg");
    }

    if want("monitor") {
        let rows = monitor::run(&monitor::MonitorSweepParams {
            runs: runs.min(200),
            ..monitor::MonitorSweepParams::default()
        });
        pet_bench::report_monitor(&rows, &out_dir).expect("write monitor");
        pet_bench::figures::monitor(&rows, &out_dir).expect("monitor svg");
        // One ledger row per churn rate, so the gate's monitor pin tracks
        // the detection latency at every swept operating point.
        let commit = ledger::current_commit();
        let ledger_rows: Vec<ledger::LedgerRow> = rows
            .iter()
            .map(|r| {
                let config = format!("burst=0.5/window=4/rate={}", r.churn_rate);
                let mut row = repro_row("monitor", &config, quick, &commit);
                row.metric("detection_latency_updates", r.mean_latency)
                    .expect("finite latency");
                row.metric("detection_rate", r.detection_rate)
                    .expect("finite rate");
                row
            })
            .collect();
        ledger::append(&out_dir.join("ledger.jsonl"), &ledger_rows).expect("append ledger.jsonl");
        println!(
            "monitor: {} ledger rows appended to results/ledger.jsonl",
            ledger_rows.len()
        );
    }

    if want("fleet") {
        let rows = fleet::sweep(&fleet::FleetParams {
            runs: if quick { 40 } else { 160 },
            ..fleet::FleetParams::default()
        });
        pet_bench::report_fleet(&rows, &out_dir).expect("write fleet");
        pet_bench::figures::fleet(&rows, &out_dir).expect("fleet svg");
    }

    if want("ablations") {
        let search = ablations::search_strategy(&[1_000, 10_000, 100_000, 1_000_000], 128, 0xAB1);
        let encodings = ablations::command_encoding(50_000, 256, 0xAB2);
        let loss = ablations::lossy_channel(
            50_000,
            256,
            &[0.0, 0.01, 0.05, 0.10, 0.20, 0.40],
            runs.min(100),
            0xAB3,
        );
        let early = ablations::lof_early_termination(50_000, 512, runs.min(100), 0xAB4);
        let families = ablations::hash_families(10_000, 256, runs.min(60), 0xAB5);
        pet_bench::report_ablations(&search, &encodings, &loss, &early, &families, &out_dir)
            .expect("write ablations");
        pet_bench::figures::loss(&loss, &out_dir).expect("loss svg");
        let adaptive = ablations::adaptive_stopping(50_000, 0.05, 0.01, runs.min(100), 0xAB6);
        pet_bench::print_adaptive(&adaptive);
    }

    if want("bench-server") {
        bench_server(&out_dir, quick);
    }

    pet_bench::plots::write_all(&out_dir).expect("write plot scripts");
    if let Some(path) = &telemetry_path {
        pet_obs::shutdown();
        println!("telemetry events written to {path}");
    }
    println!(
        "\ndone in {secs:.1}s — CSVs under {dir}/, SVGs under {dir}/svg/, \
         gnuplot scripts under {dir}/plots/",
        secs = clock.elapsed().as_secs_f64(),
        dir = out_dir.display()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A row is stamped, and a quick run's config differs from a full
    /// run's, which keeps the form the committed ledger rows have.
    #[test]
    fn rows_are_stamped_and_quick_configs_differ() {
        let config = "burst=0.5/window=4/rate=20";
        let full = repro_row("monitor", config, false, "abc1234");
        let quick = repro_row("monitor", config, true, "abc1234");
        assert_eq!(full.config, config);
        assert_eq!(quick.config, "burst=0.5/window=4/rate=20/quick");
        assert_eq!(full.source, "repro:monitor");
        assert!(full.timestamp_s > 0 && quick.timestamp_s > 0);
    }
}
