//! End-to-end exercise of the perf ledger in subprocesses: gate two
//! identical runs (must pass), then a synthetic −15% regression (must
//! fail with exit 1 and a machine-readable verdict); record a criterion
//! tree twice and report it; and append the rows `pet loadgen --ledger`
//! and `pet fleet --ledger` produce. Everything happens under a temp dir —
//! `results/ledger.jsonl` in the repo is never touched.

use pet_bench::ledger::{self, LedgerRow};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh scratch directory for `test`. The tests in this binary run as
/// threads of one process, so the pid alone would let them delete each
/// other's directory.
fn tmp_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pet-bench-e2e-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn pet(args: &[&str], cwd: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pet"))
        .args(args)
        .current_dir(cwd)
        .output()
        .expect("spawn pet")
}

fn assert_ok(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// A kernel ledger row at `commit` with fixed numbers, standing in for a
/// live measurement.
fn kernel_row(commit: &str) -> String {
    let mut row = LedgerRow::new("kernel", "n=100000/lane=avx2", commit);
    row.source = "test".to_string();
    for (name, value) in [
        ("rounds_per_sec_oracle", 2_900_000.0),
        ("rounds_per_sec_kernel", 9_600_000.0),
        ("rounds_per_sec_kernel_simd", 10_000_000.0),
    ] {
        row.metric(name, value).unwrap();
    }
    row.to_jsonl()
}

/// Gates two recorded runs that measured the same numbers (their rows are
/// written into the ledger directly), then a doctored −15% row.
#[test]
fn record_twice_then_gate_passes_and_synthetic_regression_fails() {
    let dir = tmp_dir("record_twice_then_gate_passes_and_synthetic_regression_fails");
    let ledger = dir.join("ledger.jsonl");
    let ledger = ledger.to_str().unwrap();

    // Two honest runs under different commits that measured identical
    // numbers.
    let rows = format!("{}\n{}\n", kernel_row("base001"), kernel_row("cand001"));
    std::fs::write(ledger, &rows).unwrap();

    // Baseline = only the first row, in its own file.
    let baseline = dir.join("baseline.jsonl");
    std::fs::write(&baseline, rows.lines().next().unwrap().to_string() + "\n").unwrap();

    // Identical runs: the gate passes and says so in the verdict JSON.
    let verdict = dir.join("verdict.json");
    let out = pet(
        &[
            "bench",
            "gate",
            "--baseline",
            baseline.to_str().unwrap(),
            "--ledger",
            ledger,
            "--threshold",
            "10%",
            "--pin",
            "kernel:rounds_per_sec_kernel_simd",
            "--verdict",
            verdict.to_str().unwrap(),
        ],
        &dir,
    );
    assert_ok(&out, "gate on identical runs");
    let v = std::fs::read_to_string(&verdict).unwrap();
    assert!(v.contains("\"pass\":true"), "verdict: {v}");
    assert!(v.contains("\"status\":\"pass\""), "verdict: {v}");

    // Synthetic −15% on the pinned metric: append a doctored row.
    let regressed = rows
        .lines()
        .next()
        .unwrap()
        .replace(
            "\"rounds_per_sec_kernel_simd\":10000000",
            "\"rounds_per_sec_kernel_simd\":8500000",
        )
        .replace("\"commit\":\"base001\"", "\"commit\":\"bad0001\"");
    assert!(regressed.contains("8500000"), "doctored row: {regressed}");
    let mut with_regression = rows.clone();
    with_regression.push_str(&regressed);
    with_regression.push('\n');
    std::fs::write(dir.join("regressed.jsonl"), with_regression).unwrap();

    let out = pet(
        &[
            "bench",
            "gate",
            "--baseline",
            baseline.to_str().unwrap(),
            "--ledger",
            dir.join("regressed.jsonl").to_str().unwrap(),
            "--threshold",
            "10%",
            "--pin",
            "kernel:rounds_per_sec_kernel_simd",
            "--verdict",
            verdict.to_str().unwrap(),
        ],
        &dir,
    );
    assert_eq!(out.status.code(), Some(1), "regression must exit 1");
    let v = std::fs::read_to_string(&verdict).unwrap();
    assert!(v.contains("\"pass\":false"), "verdict: {v}");
    assert!(v.contains("\"status\":\"regressed\""), "verdict: {v}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("REGRESSED"),
        "human rendering names the regression"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

/// Records a criterion tree into a fresh ledger twice (the second run
/// appends nothing) and reports it.
#[test]
fn migrate_report_round_trip_in_temp_results() {
    let dir = tmp_dir("migrate_report_round_trip_in_temp_results");
    let tree = dir.join("criterion");
    for (label, median) in [("round_location/kernel", 410.5), ("code_sort/10000", 98.0)] {
        let new = tree.join(label).join("new");
        std::fs::create_dir_all(&new).unwrap();
        std::fs::write(
            new.join("estimates.json"),
            format!("{{\"median\":{{\"point_estimate\":{median}}}}}"),
        )
        .unwrap();
    }
    let ledger = dir.join("ledger.jsonl");
    let ledger_s = ledger.to_str().unwrap();
    let record = [
        "bench",
        "record",
        "--criterion-dir",
        tree.to_str().unwrap(),
        "--ledger",
        ledger_s,
        "--commit",
        "aaaaaaa",
    ];

    let out = pet(&record, &dir);
    assert_ok(&out, "record");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("2 row(s) appended"),
        "first record appends both benchmarks"
    );
    // Idempotent: a second record appends nothing.
    let before = std::fs::read_to_string(&ledger).unwrap();
    let out = pet(&record, &dir);
    assert_ok(&out, "second record");
    assert_eq!(std::fs::read_to_string(&ledger).unwrap(), before);
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("0 row(s) appended"),
        "second record reports dedupe"
    );

    let out_dir = dir.join("report");
    let out = pet(
        &[
            "bench",
            "report",
            "--ledger",
            ledger_s,
            "--out",
            out_dir.to_str().unwrap(),
        ],
        &dir,
    );
    assert_ok(&out, "report");
    let csv = std::fs::read_to_string(out_dir.join("trends.csv")).unwrap();
    assert!(csv.starts_with("bench,config,metric,seq,commit,timestamp_s,value"));
    assert!(csv.contains("criterion,round_location/kernel,ns_per_iter,0,aaaaaaa"));
    assert!(csv.contains("criterion,code_sort/10000,ns_per_iter,0,aaaaaaa"));
    assert!(out_dir.join("svg/trend_criterion.svg").is_file());

    std::fs::remove_dir_all(&dir).unwrap();
}

/// The one row at `path`, which must hold exactly one.
fn only_row(path: &Path) -> LedgerRow {
    let rows = ledger::load(path).unwrap();
    assert_eq!(rows.len(), 1, "{rows:?}");
    rows.into_iter().next().unwrap()
}

#[test]
fn loadgen_appends_one_server_loadgen_row() {
    let dir = tmp_dir("loadgen_appends_one_server_loadgen_row");
    let ledger = dir.join("ledger.jsonl");
    let out = pet(
        &[
            "loadgen",
            "--local",
            "--requests",
            "200",
            "--ledger",
            ledger.to_str().unwrap(),
        ],
        &dir,
    );
    assert_ok(&out, "loadgen --ledger");
    let row = only_row(&ledger);
    assert_eq!(row.bench, "server-loadgen");
    assert_eq!(row.source, "pet:loadgen");
    assert!(row.config.ends_with("/c8/p1"), "{}", row.config);
    let metrics: Vec<&str> = row.metrics.keys().map(String::as_str).collect();
    assert_eq!(
        metrics,
        [
            "elapsed_s",
            "latency_max_ns",
            "latency_p50_ns",
            "latency_p95_ns",
            "latency_p99_ns",
            "throughput_rps",
        ]
    );

    // A run that cannot connect fails and records nothing: it would
    // otherwise read as a huge throughput.
    let closed = std::net::TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .to_string();
    let out = pet(
        &[
            "loadgen",
            "--addr",
            &closed,
            "--requests",
            "4",
            "--connections",
            "1",
            "--threads",
            "1",
            "--ledger",
            ledger.to_str().unwrap(),
        ],
        &dir,
    );
    assert_eq!(out.status.code(), Some(2), "a failed run is an error");
    assert_eq!(ledger::load(&ledger).unwrap().len(), 1, "and adds no row");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fleet_appends_one_fleet_row() {
    let dir = tmp_dir("fleet_appends_one_fleet_row");
    let ledger = dir.join("ledger.jsonl");
    let out = pet(
        &[
            "fleet",
            "--spawn",
            "2",
            "--tags",
            "500",
            "--rounds",
            "8",
            "--ledger",
            ledger.to_str().unwrap(),
        ],
        &dir,
    );
    assert_ok(&out, "fleet --ledger");
    let row = only_row(&ledger);
    assert_eq!(
        (row.bench.as_str(), row.config.as_str()),
        ("fleet", "r2/z2/t500")
    );
    assert_eq!(row.source, "pet:fleet");
    assert_eq!(row.metrics["rounds"], 8.0);
    for metric in [
        "round_latency_mean_ns",
        "round_latency_p95_bound_ns",
        "round_latency_max_ns",
        "effective_coverage",
        "estimate",
    ] {
        assert!(row.metrics.contains_key(metric), "{metric} in {row:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn gate_with_unknown_flags_or_actions_reports_usage_errors() {
    let dir = tmp_dir("gate_with_unknown_flags_or_actions_reports_usage_errors");
    let out = pet(&["bench", "frobnicate"], &dir);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown bench action"));
    let out = pet(&["bench", "gate"], &dir);
    assert_eq!(
        out.status.code(),
        Some(2),
        "missing --baseline is a usage error"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A value flag given bare is a usage error naming the flag, not a
/// directory called `true`.
#[test]
fn bare_report_out_is_a_usage_error() {
    let dir = tmp_dir("bare_report_out_is_a_usage_error");
    let ledger = dir.join("ledger.jsonl");
    std::fs::write(&ledger, format!("{}\n", kernel_row("base001"))).unwrap();
    let out = pet(
        &[
            "bench",
            "report",
            "--ledger",
            ledger.to_str().unwrap(),
            "--out",
        ],
        &dir,
    );
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--out needs a value"));
    assert!(!dir.join("true").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}
