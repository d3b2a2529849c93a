//! Adapters from every benchmark artifact this repo produces into
//! [`LedgerRow`]s.
//!
//! Three generations of snapshot exist in `results/`:
//!
//! - `BENCH_kernel.json` — flat v1 object written by `repro bench-kernel`
//!   (per-arm rounds/s and bulk-hash rates, lane + commit).
//! - `BENCH_server.json` — v2 `runs` array keyed (backend, connections,
//!   pipeline); the pre-v2 flat single-run form is still accepted so
//!   seed-era files migrate too.
//! - `BENCH_fleet.json` — flat object from `pet fleet --bench-json`.
//!
//! Plus Criterion `estimates.json` trees (the upstream layout
//! `<root>/<group>/<bench>/new/estimates.json`; the vendored offline
//! criterion writes the same shape when `PET_CRITERION_JSON_DIR` is set).
//! [`sniff_snapshot`] dispatches on the artifact's own fields, so `pet
//! bench record --from <file>` needs no format flag.

use super::LedgerRow;
use pet_server::json::Json;
use std::path::Path;

/// Migrates one benchmark snapshot, auto-detecting its format.
///
/// `source` labels the rows (e.g. `"migrate:BENCH_kernel.json"`);
/// `commit` overrides the commit recorded in the rows — pass `None` to
/// keep what the artifact itself carries (only the kernel snapshot does).
///
/// # Errors
///
/// Returns a message for unparseable JSON or an unrecognized shape.
pub fn sniff_snapshot(
    text: &str,
    source: &str,
    commit: Option<&str>,
) -> Result<Vec<LedgerRow>, String> {
    let v = Json::parse(text.trim()).map_err(|e| e.to_string())?;
    let rows = match v.get("benchmark").and_then(Json::as_str) {
        Some("pet-server-loadgen") => server_rows(&v)?,
        Some("pet-fleet") => vec![fleet_row(&v)?],
        Some(other) => return Err(format!("unknown benchmark field {other:?}")),
        None if v.get("rounds_per_sec_oracle").is_some() => vec![kernel_row(&v)?],
        None if v.get("mean").is_some() || v.get("median").is_some() => {
            vec![criterion_row(&v, "estimates")?]
        }
        None => return Err("unrecognized snapshot shape".into()),
    };
    Ok(rows
        .into_iter()
        .map(|mut row| {
            row.source = source.to_string();
            if let Some(c) = commit {
                row.commit = c.to_string();
            }
            row
        })
        .collect())
}

fn num(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or(format!("missing numeric field {key:?}"))
}

/// Flat v1 `BENCH_kernel.json` → one row. The kernel snapshot is the only
/// artifact that records its own commit and lane; both survive migration
/// (lane lands in the config key, so scalar and SIMD machines never gate
/// against each other's numbers).
fn kernel_row(v: &Json) -> Result<LedgerRow, String> {
    let n = v.get("n").and_then(Json::as_u64).ok_or("missing n")?;
    let lane = v.get("lane").and_then(Json::as_str).unwrap_or("scalar");
    let commit = v.get("commit").and_then(Json::as_str).unwrap_or("unknown");
    let mut row = LedgerRow::new("kernel", &format!("n={n}/lane={lane}"), commit);
    for metric in [
        "rounds_per_sec_oracle",
        "rounds_per_sec_kernel",
        "rounds_per_sec_kernel_simd",
        "hash_elems_per_sec_scalar",
        "hash_elems_per_sec_simd",
    ] {
        // `rounds_per_sec_kernel_simd` arrived with the SIMD PR; older
        // files carry a subset and migrate with the metrics they have.
        if let Some(value) = v.get(metric).and_then(Json::as_f64) {
            row.metric(metric, value)?;
        }
    }
    if row.metrics.is_empty() {
        return Err("kernel snapshot has no rate fields".into());
    }
    Ok(row)
}

/// The config key a server run gates and trends under.
#[must_use]
pub fn server_config_key(backend: &str, connections: u64, pipeline: u64) -> String {
    format!("{backend}/c{connections}/p{pipeline}")
}

/// `BENCH_server.json` → one row per run. Handles both the v2 merged
/// `runs` array and the pre-v2 flat single-run object (which predates the
/// `backend`/`connections`/`pipeline` keys — those default to the
/// threaded single-request shape the seed benchmark used).
fn server_rows(v: &Json) -> Result<Vec<LedgerRow>, String> {
    match v.get("runs").and_then(Json::as_arr) {
        Some(runs) => runs.iter().map(server_row).collect(),
        None => Ok(vec![server_row(v)?]),
    }
}

fn server_row(run: &Json) -> Result<LedgerRow, String> {
    let backend = run
        .get("backend")
        .and_then(Json::as_str)
        .unwrap_or("threaded");
    let threads = run.get("threads").and_then(Json::as_u64).unwrap_or(8);
    let connections = run
        .get("connections")
        .and_then(Json::as_u64)
        .unwrap_or(threads);
    let pipeline = run.get("pipeline").and_then(Json::as_u64).unwrap_or(1);
    let mut row = LedgerRow::new(
        "server-loadgen",
        &server_config_key(backend, connections, pipeline),
        "unknown",
    );
    let throughput = match run.get("throughput_rps").and_then(Json::as_f64) {
        Some(t) => t,
        // Oldest flat files: derive from requests / elapsed_s.
        None => {
            let requests = num(run, "requests")?;
            let elapsed = num(run, "elapsed_s")?;
            if elapsed <= 0.0 {
                return Err("server run has zero elapsed_s".into());
            }
            requests / elapsed
        }
    };
    row.metric("throughput_rps", throughput)?;
    if let Some(elapsed) = run.get("elapsed_s").and_then(Json::as_f64) {
        row.metric("elapsed_s", elapsed)?;
    }
    if let Some(lat) = run.get("latency_ns") {
        for (name, metric) in [
            ("p50", "latency_p50_ns"),
            ("p95", "latency_p95_ns"),
            ("p99", "latency_p99_ns"),
            ("max", "latency_max_ns"),
        ] {
            if let Some(value) = lat.get(name).and_then(Json::as_f64) {
                row.metric(metric, value)?;
            }
        }
    }
    Ok(row)
}

/// The normalized ledger row for one live
/// [`BenchRun`](pet_server::loadgen::BenchRun) — the same shape
/// `server_rows` produces when migrating `BENCH_server.json`, so live
/// recordings and migrated history land in the same trend series.
///
/// # Panics
///
/// Panics when `throughput_rps` is non-finite (a run that divided by a
/// zero clock), which `run_batch` cannot produce.
#[must_use]
pub fn row_from_bench_run(
    run: &pet_server::loadgen::BenchRun,
    commit: &str,
    source: &str,
    best_of: u64,
    noise_floor: f64,
) -> LedgerRow {
    let mut row = LedgerRow::new(
        "server-loadgen",
        &server_config_key(&run.backend, run.connections, run.pipeline),
        commit,
    );
    row.source = source.to_string();
    row.best_of = best_of;
    row.noise_floor = noise_floor;
    for (name, value) in [
        ("throughput_rps", run.throughput_rps),
        ("elapsed_s", run.elapsed_s),
        ("latency_p50_ns", run.p50_ns as f64),
        ("latency_p95_ns", run.p95_ns as f64),
        ("latency_p99_ns", run.p99_ns as f64),
        ("latency_max_ns", run.max_ns as f64),
    ] {
        row.metric(name, value).expect("finite loadgen metrics");
    }
    row.stamped_now()
}

/// Flat `BENCH_fleet.json` → one row.
fn fleet_row(v: &Json) -> Result<LedgerRow, String> {
    let readers = v
        .get("readers")
        .and_then(Json::as_u64)
        .ok_or("missing readers")?;
    let zones = v.get("zones").and_then(Json::as_u64).unwrap_or(readers);
    let tags = v.get("tags").and_then(Json::as_u64).ok_or("missing tags")?;
    let mut row = LedgerRow::new("fleet", &format!("r{readers}/z{zones}/t{tags}"), "unknown");
    let lat = v
        .get("round_latency_ns")
        .ok_or("missing round_latency_ns")?;
    row.metric("round_latency_mean_ns", num(lat, "mean")?)?;
    if let Some(p95) = lat.get("p95_bound").and_then(Json::as_f64) {
        row.metric("round_latency_p95_bound_ns", p95)?;
    }
    if let Some(max) = lat.get("max").and_then(Json::as_f64) {
        row.metric("round_latency_max_ns", max)?;
    }
    row.metric("effective_coverage", num(v, "effective_coverage")?)?;
    if let Some(est) = v.get("estimate").and_then(Json::as_f64) {
        row.metric("estimate", est)?;
    }
    if let Some(rounds) = v.get("rounds").and_then(Json::as_f64) {
        row.metric("rounds", rounds)?;
    }
    Ok(row)
}

/// One Criterion `estimates.json` (upstream shape: point estimates nested
/// under `mean` / `median`) → a `criterion` row whose config is the
/// benchmark label. Prefers the median — it is what the vendored harness
/// reports and the more jitter-robust of the two.
fn criterion_row(v: &Json, label: &str) -> Result<LedgerRow, String> {
    let point = |stat: &str| {
        v.get(stat)
            .and_then(|s| s.get("point_estimate"))
            .and_then(Json::as_f64)
    };
    let ns = point("median")
        .or_else(|| point("mean"))
        .ok_or("estimates.json has no median/mean point_estimate")?;
    let mut row = LedgerRow::new("criterion", label, "unknown");
    row.metric("ns_per_iter", ns)?;
    Ok(row)
}

/// Walks a Criterion output tree (`<root>/<...label...>/new/estimates.json`)
/// and migrates every benchmark found, labels sorted for deterministic row
/// order.
///
/// # Errors
///
/// Returns an I/O message for an unreadable tree or a parse message naming
/// the offending file.
pub fn criterion_dir(root: &Path, source: &str, commit: &str) -> Result<Vec<LedgerRow>, String> {
    let mut found: Vec<(String, std::path::PathBuf)> = Vec::new();
    walk_estimates(root, root, &mut found).map_err(|e| format!("{}: {e}", root.display()))?;
    found.sort();
    let mut rows = Vec::new();
    for (label, path) in found {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let v = Json::parse(text.trim()).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut row = criterion_row(&v, &label).map_err(|e| format!("{}: {e}", path.display()))?;
        row.source = source.to_string();
        row.commit = commit.to_string();
        rows.push(row);
    }
    Ok(rows)
}

fn walk_estimates(
    root: &Path,
    dir: &Path,
    found: &mut Vec<(String, std::path::PathBuf)>,
) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if !path.is_dir() {
            continue;
        }
        let estimates = path.join("new").join("estimates.json");
        if path.file_name().is_some_and(|n| n == "new") {
            continue; // don't recurse into sample dirs
        }
        if estimates.is_file() {
            let label = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            found.push((label, estimates));
        } else {
            walk_estimates(root, &path, found)?;
        }
    }
    Ok(())
}

/// Filters `new` down to rows not already present in `existing`, where
/// "present" means same (bench, config, source, commit) and identical
/// metrics. Makes `pet bench record --from` idempotent: re-ingesting the
/// same snapshot appends nothing, while a changed snapshot (new numbers,
/// new commit) still lands.
#[must_use]
pub fn without_duplicates(existing: &[LedgerRow], new: Vec<LedgerRow>) -> Vec<LedgerRow> {
    new.into_iter()
        .filter(|row| {
            !existing.iter().any(|have| {
                have.bench == row.bench
                    && have.config == row.config
                    && have.source == row.source
                    && have.commit == row.commit
                    && have.metrics == row.metrics
            })
        })
        .collect()
}
