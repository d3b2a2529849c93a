//! Test net over the perf-ledger core: serde round-trips, migration of
//! every snapshot generation in `results/`, the statistics helpers, and
//! the regression-gate edge cases the CI stage depends on.

use pet_bench::ledger::{
    self, gate, geomean, migrate, noise_floor_of, percentile, rel_change, LedgerRow,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;

fn row(bench: &str, config: &str, commit: &str, metrics: &[(&str, f64)]) -> LedgerRow {
    let mut r = LedgerRow::new(bench, config, commit);
    for (name, value) in metrics {
        r.metric(name, *value).unwrap();
    }
    r
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pet-ledger-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

// ---------------------------------------------------------------- serde

#[test]
fn row_round_trips_through_jsonl() {
    let mut r = row(
        "server-loadgen",
        "evented/c16/p64",
        "a2eda42",
        &[
            ("throughput_rps", 368525.4),
            ("latency_p99_ns", 5_174_272.0),
        ],
    );
    r.source = "repro:bench-server".to_string();
    r.best_of = 3;
    r.noise_floor = 0.021;
    r.timestamp_s = 1_754_600_000;
    let line = r.to_jsonl();
    let back = LedgerRow::parse_jsonl(&line).unwrap();
    assert_eq!(back, r);
    // Byte stability: re-serializing the parsed row is identical.
    assert_eq!(back.to_jsonl(), line);
}

#[test]
fn parse_rejects_bad_rows() {
    // Unknown schema version.
    let bumped = row("k", "c", "x", &[("m", 1.0)])
        .to_jsonl()
        .replace("\"schema\":1", "\"schema\":99");
    assert!(LedgerRow::parse_jsonl(&bumped)
        .unwrap_err()
        .contains("schema 99"));
    // Structurally valid JSON, invalid row (no metrics).
    let empty = "{\"schema\":1,\"commit\":\"x\",\"timestamp_s\":0,\"bench\":\"k\",\
                 \"config\":\"c\",\"source\":\"s\",\"best_of\":1,\"noise_floor\":0,\
                 \"metrics\":{}}";
    assert!(LedgerRow::parse_jsonl(empty)
        .unwrap_err()
        .contains("at least one metric"));
    // Not JSON at all.
    assert!(LedgerRow::parse_jsonl("not json").is_err());
    // Parse errors carry the 1-based line number.
    let err = ledger::parse_ledger(&format!(
        "{}\nnot json\n",
        row("k", "c", "x", &[("m", 1.0)]).to_jsonl()
    ))
    .unwrap_err();
    assert!(err.contains("line 2"), "{err}");
}

#[test]
fn metric_and_validate_guard_non_finite_values() {
    let mut r = LedgerRow::new("k", "c", "x");
    assert!(r.metric("bad", f64::NAN).is_err());
    assert!(r.metric("bad", f64::INFINITY).is_err());
    r.metric("good", 1.5).unwrap();
    r.noise_floor = 1.0; // must be < 1
    assert!(r.validate().is_err());
    r.noise_floor = 0.0;
    r.best_of = 0;
    assert!(r.validate().is_err());
}

proptest! {
    /// Any valid row survives serialize → parse → serialize unchanged.
    /// (The vendored proptest has no string strategies, so names are built
    /// from numeric seeds — including JSON-hostile characters via escape.)
    #[test]
    fn prop_jsonl_round_trip(
        bench_seed in 0u64..1_000_000,
        config_seed in 0u64..1_000_000,
        commit_seed in any::<u32>(),
        timestamp in 0u64..=2_000_000_000,
        best_of in 1u64..=16,
        noise in 0.0f64..0.99,
        values in proptest::collection::vec(-1.0e12f64..1.0e12, 1..6),
    ) {
        let metrics: BTreeMap<String, f64> = values
            .iter()
            .enumerate()
            .map(|(i, v)| (format!("metric_{i}_{}", bench_seed % 13), *v))
            .collect();
        let r = LedgerRow {
            commit: format!("{commit_seed:07x}"),
            timestamp_s: timestamp,
            bench: format!("bench-{}", bench_seed % 7),
            // Exercise escaping: quotes and backslashes in the config key.
            config: format!("cfg=\"{}\"/\\{}", config_seed % 97, config_seed % 13),
            source: "prop".to_string(),
            best_of,
            noise_floor: noise,
            metrics,
        };
        prop_assert!(r.validate().is_ok());
        let line = r.to_jsonl();
        let back = LedgerRow::parse_jsonl(&line).unwrap();
        prop_assert_eq!(&back, &r);
        prop_assert_eq!(back.to_jsonl(), line);
    }
}

// ------------------------------------------------------------ migration

/// The committed seed-era kernel snapshot (v1 flat with lane + commit).
const KERNEL_V1: &str = r#"{"n": 100000, "lane": "avx2", "commit": "8d4ee64",
 "rounds_per_sec_oracle": 2917574.5, "rounds_per_sec_kernel": 9643304.5,
 "rounds_per_sec_kernel_simd": 10002171.0,
 "hash_elems_per_sec_scalar": 310808224.9, "hash_elems_per_sec_simd": 1198892423.2}"#;

#[test]
fn kernel_v1_snapshot_migrates() {
    let rows = migrate::sniff_snapshot(KERNEL_V1, "migrate:BENCH_kernel.json", None).unwrap();
    assert_eq!(rows.len(), 1);
    let r = &rows[0];
    assert_eq!(r.bench, "kernel");
    assert_eq!(r.config, "n=100000/lane=avx2");
    assert_eq!(r.commit, "8d4ee64", "kernel snapshot keeps its own commit");
    assert_eq!(r.source, "migrate:BENCH_kernel.json");
    assert_eq!(r.metrics["rounds_per_sec_kernel_simd"], 10_002_171.0);
    assert_eq!(r.metrics.len(), 5);
    // Pre-SIMD kernel files lack the simd arm: still migrates.
    let older = r#"{"n": 100000, "rounds_per_sec_oracle": 2.9e6, "rounds_per_sec_kernel": 9.6e6}"#;
    let rows = migrate::sniff_snapshot(older, "m", None).unwrap();
    assert_eq!(rows[0].config, "n=100000/lane=scalar");
    assert_eq!(rows[0].metrics.len(), 2);
}

#[test]
fn server_v2_snapshot_migrates_per_run() {
    let v2 = r#"{"benchmark":"pet-server-loadgen","schema_version":2,"runs":[
      {"backend":"evented","requests":200000,"connections":16,"threads":8,"pipeline":64,
       "tags":200,"rounds":4,"elapsed_s":0.542705,"throughput_rps":368524.9,
       "ok":200000,"overloaded":0,"errors":0,"malformed":0,"lost":0,
       "latency_ns":{"p50":2244608,"p95":4538368,"p99":5174272,"max":11140096},
       "digest":"0x00002713e0071742"},
      {"backend":"threaded","requests":200000,"connections":8,"threads":8,"pipeline":1,
       "tags":200,"rounds":4,"elapsed_s":4.05,"throughput_rps":49382.7,
       "ok":200000,"overloaded":0,"errors":0,"malformed":0,"lost":0,
       "latency_ns":{"p50":150000,"p95":290000,"p99":400000,"max":900000},
       "digest":"0x00002713e0071742"}]}"#;
    let rows = migrate::sniff_snapshot(v2, "migrate:BENCH_server.json", Some("a2eda42")).unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0].bench, "server-loadgen");
    assert_eq!(rows[0].config, "evented/c16/p64");
    assert_eq!(rows[0].commit, "a2eda42");
    assert_eq!(rows[0].metrics["throughput_rps"], 368_524.9);
    assert_eq!(rows[0].metrics["latency_p99_ns"], 5_174_272.0);
    assert_eq!(rows[1].config, "threaded/c8/p1");
}

#[test]
fn server_pre_v2_flat_snapshot_migrates_with_defaults() {
    let flat = r#"{"benchmark":"pet-server-loadgen","requests":10000,"threads":4,
      "elapsed_s":0.25,"latency_ns":{"p50":90000,"p95":200000,"p99":300000,"max":800000}}"#;
    let rows = migrate::sniff_snapshot(flat, "m", None).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].config, "threaded/c4/p1");
    // throughput derived from requests / elapsed_s.
    assert_eq!(rows[0].metrics["throughput_rps"], 40_000.0);
}

#[test]
fn fleet_snapshot_migrates() {
    let fleet = r#"{"benchmark":"pet-fleet","readers":3,"tags":5000,"zones":3,"rounds":32,
      "estimate":5039.014,"effective_coverage":0.835100,"full_rounds":16,"partial_rounds":16,
      "degraded":true,"round_latency_ns":{"mean":2355944,"p95_bound":33554431,"max":31391405},
      "digest":"0x270f92fcbbb71e42"}"#;
    let rows = migrate::sniff_snapshot(fleet, "migrate:BENCH_fleet.json", None).unwrap();
    assert_eq!(rows.len(), 1);
    let r = &rows[0];
    assert_eq!(r.bench, "fleet");
    assert_eq!(r.config, "r3/z3/t5000");
    assert_eq!(r.metrics["round_latency_mean_ns"], 2_355_944.0);
    assert_eq!(r.metrics["effective_coverage"], 0.8351);
}

#[test]
fn unknown_snapshot_shapes_are_rejected() {
    assert!(migrate::sniff_snapshot(r#"{"benchmark":"mystery"}"#, "m", None).is_err());
    assert!(migrate::sniff_snapshot(r#"{"hello":1}"#, "m", None).is_err());
    assert!(migrate::sniff_snapshot("not json", "m", None).is_err());
}

#[test]
fn criterion_estimates_tree_migrates() {
    let root = tmp_dir("criterion");
    for (label, median) in [("group/alpha", 125.5), ("group/beta/4096", 998.0)] {
        let dir = root.join(label).join("new");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("estimates.json"),
            format!(
                "{{\"mean\":{{\"point_estimate\":{m}}},\"median\":{{\"point_estimate\":{m}}}}}",
                m = median
            ),
        )
        .unwrap();
    }
    let rows = migrate::criterion_dir(&root, "criterion:bench", "abc1234").unwrap();
    assert_eq!(rows.len(), 2);
    assert_eq!(rows[0].bench, "criterion");
    assert_eq!(rows[0].config, "group/alpha");
    assert_eq!(rows[0].metrics["ns_per_iter"], 125.5);
    assert_eq!(rows[1].config, "group/beta/4096");
    std::fs::remove_dir_all(&root).unwrap();
}

#[test]
fn re_ingesting_the_same_snapshot_is_idempotent() {
    let first = migrate::sniff_snapshot(KERNEL_V1, "migrate:BENCH_kernel.json", None).unwrap();
    let again = migrate::sniff_snapshot(KERNEL_V1, "migrate:BENCH_kernel.json", None).unwrap();
    assert!(migrate::without_duplicates(&first, again).is_empty());
    // A changed number is not a duplicate.
    let moved = migrate::sniff_snapshot(
        &KERNEL_V1.replace("10002171.0", "10002172.0"),
        "migrate:BENCH_kernel.json",
        None,
    )
    .unwrap();
    assert_eq!(migrate::without_duplicates(&first, moved).len(), 1);
}

#[test]
fn append_and_load_round_trip_on_disk() {
    let dir = tmp_dir("appendload");
    let path = dir.join("ledger.jsonl");
    let a = row(
        "kernel",
        "n=1/lane=scalar",
        "c1",
        &[("rounds_per_sec_kernel_simd", 1.0e7)],
    );
    let b = row(
        "fleet",
        "r3/z3/t5000",
        "c1",
        &[("round_latency_mean_ns", 2.0e6)],
    );
    ledger::append(&path, std::slice::from_ref(&a)).unwrap();
    ledger::append(&path, std::slice::from_ref(&b)).unwrap();
    let rows = ledger::load(&path).unwrap();
    assert_eq!(rows, vec![a, b], "append preserves order, load replays it");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A crash in the middle of an append leaves a final line without its
/// newline that does not parse: readers skip it and name it.
#[test]
fn torn_final_line_is_tolerated_and_reported() {
    let a = row("k", "c", "x", &[("m", 1.0)]);
    let b = row("k", "c", "y", &[("m", 2.0)]);
    let whole = format!("{}\n{}\n", a.to_jsonl(), b.to_jsonl());
    let full_c = row("k", "c", "z", &[("m", 3.0)]).to_jsonl();
    let text = format!("{whole}{}", &full_c[..full_c.len() / 2]);
    let torn = ledger::torn_tail(&text).expect("a torn tail");
    assert_eq!((torn.line, torn.offset), (3, whole.len()));
    assert!(torn.to_string().contains("torn final line 3"), "{torn}");
    assert_eq!(ledger::parse_ledger(&text).unwrap(), vec![a, b]);
    // A final row that parses is complete, newline or not.
    let unterminated = format!("{whole}{full_c}");
    assert_eq!(ledger::torn_tail(&unterminated), None);
    assert_eq!(ledger::parse_ledger(&unterminated).unwrap().len(), 3);
}

/// Only the unterminated final line is forgiven: a bad line anywhere else,
/// or a bad final line that was fully written, fails with its number.
#[test]
fn bad_lines_other_than_a_torn_tail_still_fail() {
    let good = row("k", "c", "x", &[("m", 1.0)]).to_jsonl();
    for (text, line) in [
        (format!("{good}\n{{\"schema\":1\n{good}"), "line 2"),
        (format!("{good}\n{good}\nnot json\n"), "line 3"),
        (format!("not json\n{good}\n"), "line 1"),
    ] {
        let err = ledger::parse_ledger(&text).unwrap_err();
        assert!(err.contains(line), "{err}");
        assert_eq!(ledger::torn_tail(&text), None);
    }
}

/// `append` cuts off a torn tail before writing, so the new rows start on
/// a line of their own, and a complete unterminated row keeps its place.
#[test]
fn append_truncates_a_torn_tail() {
    let dir = tmp_dir("torn");
    let path = dir.join("ledger.jsonl");
    let a = row("k", "c", "x", &[("m", 1.0)]);
    let b = row("k", "c", "y", &[("m", 2.0)]);
    let c = row("k", "c", "z", &[("m", 3.0)]);
    let full_b = b.to_jsonl();
    std::fs::write(&path, format!("{}\n{}", a.to_jsonl(), &full_b[..10])).unwrap();
    ledger::append(&path, std::slice::from_ref(&b)).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    assert_eq!(text, format!("{}\n{full_b}\n", a.to_jsonl()));
    std::fs::write(&path, format!("{}\n{full_b}", a.to_jsonl())).unwrap();
    ledger::append(&path, std::slice::from_ref(&c)).unwrap();
    assert_eq!(ledger::load(&path).unwrap(), vec![a, b, c]);
    std::fs::remove_dir_all(&dir).unwrap();
}

// ------------------------------------------------------------ statistics

#[test]
fn percentile_is_nearest_rank_and_guards_inputs() {
    let samples: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&samples, 0.50), Some(50.0));
    assert_eq!(percentile(&samples, 0.99), Some(99.0));
    assert_eq!(percentile(&samples, 1.0), Some(100.0));
    assert_eq!(percentile(&samples, 0.0), Some(1.0));
    assert_eq!(percentile(&[], 0.5), None);
    assert_eq!(percentile(&[1.0, f64::NAN], 0.5), None);
}

#[test]
fn geomean_and_noise_floor_edge_cases() {
    let g = geomean(&[4.0, 9.0]).unwrap();
    assert!((g - 6.0).abs() < 1e-12, "geomean(4,9) = {g}");
    assert_eq!(geomean(&[]), None);
    assert_eq!(geomean(&[1.0, 0.0]), None, "zero has no log");
    assert_eq!(geomean(&[1.0, -2.0]), None);
    assert_eq!(noise_floor_of(&[]), 0.0);
    assert_eq!(noise_floor_of(&[5.0]), 0.0, "single shot: unknown, not inf");
    assert_eq!(noise_floor_of(&[100.0, 90.0]), 0.1);
    assert_eq!(noise_floor_of(&[0.0, -1.0]), 0.0, "non-positive best");
    assert_eq!(noise_floor_of(&[1.0, f64::NAN]), 0.0);
}

proptest! {
    /// Percentile always returns an element of the input.
    #[test]
    fn prop_percentile_is_an_input_element(
        samples in proptest::collection::vec(0.0f64..1.0e9, 1..50),
        q in 0.0f64..=1.0,
    ) {
        let p = percentile(&samples, q).unwrap();
        prop_assert!(samples.contains(&p));
    }

    /// Geomean sits between min and max of positive samples.
    #[test]
    fn prop_geomean_is_bounded(
        samples in proptest::collection::vec(1.0e-3f64..1.0e9, 1..50),
    ) {
        let g = geomean(&samples).unwrap();
        let min = samples.iter().copied().fold(f64::MAX, f64::min);
        let max = samples.iter().copied().fold(f64::MIN, f64::max);
        // Tiny epsilon: ln/exp round-trips are not exact at the bounds.
        prop_assert!(g >= min * (1.0 - 1e-12) && g <= max * (1.0 + 1e-12));
    }

    /// rel_change(b, b*(1+x)) recovers x for positive baselines.
    #[test]
    fn prop_rel_change_recovers_factor(
        baseline in 1.0e-3f64..1.0e9,
        x in -0.9f64..10.0,
    ) {
        let c = rel_change(baseline, baseline * (1.0 + x)).unwrap();
        prop_assert!((c - x).abs() < 1e-9);
    }
}

// ------------------------------------------------------------------ gate

fn pins(metric: &str) -> Vec<gate::PinnedMetric> {
    vec![gate::PinnedMetric::new("kernel", "", metric)]
}

fn kernel_rows(value: f64, noise: f64) -> Vec<LedgerRow> {
    let mut r = row(
        "kernel",
        "n=100000/lane=avx2",
        "c",
        &[("rounds_per_sec_kernel_simd", value)],
    );
    r.noise_floor = noise;
    vec![r]
}

#[test]
fn gate_passes_exactly_at_threshold_and_fails_just_over() {
    let base = kernel_rows(1000.0, 0.0);
    // Exactly −10% on a 10% threshold: passes (strict inequality).
    let at = gate::evaluate(
        &base,
        &kernel_rows(900.0, 0.0),
        &pins("rounds_per_sec_kernel_simd"),
        0.10,
    );
    assert!(at.pass(), "{}", at.render());
    // Just beyond: fails.
    let over = gate::evaluate(
        &base,
        &kernel_rows(899.0, 0.0),
        &pins("rounds_per_sec_kernel_simd"),
        0.10,
    );
    assert!(!over.pass());
    assert_eq!(over.checks[0].status, gate::CheckStatus::Regressed);
    // Synthetic −15% regression: demonstrably fails at 10%.
    let minus15 = gate::evaluate(
        &base,
        &kernel_rows(850.0, 0.0),
        &pins("rounds_per_sec_kernel_simd"),
        0.10,
    );
    assert!(!minus15.pass());
    // Improvement always passes.
    let up = gate::evaluate(
        &base,
        &kernel_rows(1500.0, 0.0),
        &pins("rounds_per_sec_kernel_simd"),
        0.10,
    );
    assert!(up.pass());
}

#[test]
fn gate_noise_floor_widens_slack_per_row() {
    let base = kernel_rows(1000.0, 0.08);
    // −15% would fail at bare 10%, but the baseline row recorded 8% jitter:
    // allowed slack is 18%.
    let o = gate::evaluate(
        &base,
        &kernel_rows(850.0, 0.0),
        &pins("rounds_per_sec_kernel_simd"),
        0.10,
    );
    assert!(o.pass(), "{}", o.render());
    assert_eq!(o.checks[0].allowed, 0.18);
    // The larger of the two noise floors wins: slack 10% + 12% = 22%.
    let o = gate::evaluate(
        &base,
        &kernel_rows(790.0, 0.12),
        &pins("rounds_per_sec_kernel_simd"),
        0.10,
    );
    assert_eq!(o.checks[0].allowed, 0.22);
    assert!(o.pass(), "−21% is inside the 22% slack");
    let o = gate::evaluate(
        &base,
        &kernel_rows(770.0, 0.12),
        &pins("rounds_per_sec_kernel_simd"),
        0.10,
    );
    assert!(!o.pass(), "−23% is beyond the 22% slack");
}

#[test]
fn gate_lower_is_better_inverts_direction() {
    let mut base = row(
        "fleet",
        "r3/z3/t5000",
        "c",
        &[("round_latency_mean_ns", 1000.0)],
    );
    base.noise_floor = 0.0;
    let pin = vec![gate::PinnedMetric::new(
        "fleet",
        "",
        "round_latency_mean_ns",
    )];
    // Latency +20%: regression.
    let worse = vec![row(
        "fleet",
        "r3/z3/t5000",
        "c",
        &[("round_latency_mean_ns", 1200.0)],
    )];
    assert!(!gate::evaluate(&[base.clone()], &worse, &pin, 0.10).pass());
    // Latency −20%: improvement.
    let better = vec![row(
        "fleet",
        "r3/z3/t5000",
        "c",
        &[("round_latency_mean_ns", 800.0)],
    )];
    assert!(gate::evaluate(&[base], &better, &pin, 0.10).pass());
    assert!(gate::lower_is_better("round_latency_mean_ns"));
    assert!(gate::lower_is_better("elapsed_s"));
    assert!(gate::lower_is_better("ns_per_iter"));
    assert!(gate::lower_is_better("wall_ms_per_estimate"));
    assert!(gate::lower_is_better("energy_uj_per_estimate"));
    assert!(!gate::lower_is_better("throughput_rps"));
    assert!(!gate::lower_is_better("effective_coverage"));
}

#[test]
fn gate_missing_baseline_skips_but_reports() {
    let base = kernel_rows(1000.0, 0.0);
    // Candidate measured a config the baseline never saw.
    let cand = vec![row(
        "kernel",
        "n=100000/lane=sse2",
        "c",
        &[("rounds_per_sec_kernel_simd", 5.0)],
    )];
    let o = gate::evaluate(&base, &cand, &pins("rounds_per_sec_kernel_simd"), 0.10);
    assert!(o.pass(), "new config must not brick the gate");
    assert_eq!(o.checks[0].status, gate::CheckStatus::MissingBaseline);
    // Pin whose metric exists nowhere in the candidate: skip, not failure.
    let o = gate::evaluate(&base, &base, &pins("no_such_metric"), 0.10);
    assert!(o.pass());
    assert_eq!(o.checks[0].status, gate::CheckStatus::MissingBaseline);
    assert_eq!(o.checks[0].config, "*");
}

#[test]
fn gate_zero_baseline_is_invalid_and_fails() {
    let base = kernel_rows(0.0, 0.0);
    let o = gate::evaluate(
        &base,
        &kernel_rows(100.0, 0.0),
        &pins("rounds_per_sec_kernel_simd"),
        0.10,
    );
    assert!(!o.pass(), "zero baseline must fail loudly, not divide");
    assert_eq!(o.checks[0].status, gate::CheckStatus::Invalid);
}

#[test]
fn gate_uses_latest_row_per_config() {
    let mut base = kernel_rows(1000.0, 0.0);
    base.extend(kernel_rows(2000.0, 0.0)); // later row supersedes
    let o = gate::evaluate(
        &base,
        &kernel_rows(1900.0, 0.0),
        &pins("rounds_per_sec_kernel_simd"),
        0.10,
    );
    assert!(o.pass());
    assert_eq!(o.checks[0].baseline, Some(2000.0));
}

#[test]
fn gate_verdict_json_is_machine_readable() {
    let base = kernel_rows(1000.0, 0.0);
    let o = gate::evaluate(
        &base,
        &kernel_rows(850.0, 0.0),
        &pins("rounds_per_sec_kernel_simd"),
        0.10,
    );
    let v = pet_server::json::Json::parse(o.to_json().trim()).unwrap();
    assert_eq!(
        v.get("pass").and_then(pet_server::json::Json::as_bool),
        Some(false)
    );
    let checks = v
        .get("checks")
        .and_then(pet_server::json::Json::as_arr)
        .unwrap();
    assert_eq!(checks.len(), 1);
    assert_eq!(
        checks[0]
            .get("status")
            .and_then(pet_server::json::Json::as_str),
        Some("regressed")
    );
    assert_eq!(
        checks[0]
            .get("change")
            .and_then(pet_server::json::Json::as_f64),
        Some(-0.15)
    );
}

#[test]
fn threshold_parsing_accepts_percent_and_fraction() {
    assert_eq!(gate::parse_threshold("10%").unwrap(), 0.10);
    assert_eq!(gate::parse_threshold("0.1").unwrap(), 0.1);
    assert_eq!(gate::parse_threshold("10").unwrap(), 0.10);
    assert_eq!(gate::parse_threshold("0").unwrap(), 0.0);
    assert!(gate::parse_threshold("-5%").is_err());
    assert!(gate::parse_threshold("abc").is_err());
}

#[test]
fn pin_specs_parse() {
    let p = gate::PinnedMetric::parse("server-loadgen:evented/:throughput_rps").unwrap();
    assert_eq!(
        (
            p.bench.as_str(),
            p.config_prefix.as_str(),
            p.metric.as_str()
        ),
        ("server-loadgen", "evented/", "throughput_rps")
    );
    let p = gate::PinnedMetric::parse("kernel:rounds_per_sec_kernel_simd").unwrap();
    assert_eq!(p.config_prefix, "");
    assert!(gate::PinnedMetric::parse("justonefield").is_err());
    let pins = gate::default_pins();
    assert_eq!(pins.len(), 5);
    // The monitor and phy pins are latency/duration-shaped: lower must
    // count as better.
    let monitor = pins.iter().find(|p| p.bench == "monitor").unwrap();
    assert!(gate::lower_is_better(&monitor.metric));
    let phy = pins.iter().find(|p| p.bench == "phy").unwrap();
    assert!(gate::lower_is_better(&phy.metric));
}

proptest! {
    /// For any baseline/candidate pair of positive values, the gate's
    /// verdict agrees with recomputing the comparison by hand.
    #[test]
    fn prop_gate_verdict_matches_arithmetic(
        baseline in 1.0f64..1.0e9,
        candidate in 1.0f64..1.0e9,
        threshold in 0.0f64..0.5,
        noise in 0.0f64..0.3,
    ) {
        let mut b = kernel_rows(baseline, 0.0);
        b[0].noise_floor = noise;
        let o = gate::evaluate(&b, &kernel_rows(candidate, 0.0), &pins("rounds_per_sec_kernel_simd"), threshold);
        let change = (candidate - baseline) / baseline;
        let expect_fail = change < -(threshold + noise);
        prop_assert_eq!(o.pass(), !expect_fail, "change {} allowed {}", change, threshold + noise);
    }
}
