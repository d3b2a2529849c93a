//! The performance ledger: an append-only trajectory of benchmark results.
//!
//! Every benchmark run gets a durable row in `results/ledger.jsonl`, the
//! repo's one perf record, so the repo knows where performance *was* as
//! well as where it *is*, and a pinned metric that rots fails CI:
//!
//! - [`LedgerRow`] is the normalized schema (commit, timestamp, benchmark
//!   id, config key, metrics map) every producer appends: `pet bench
//!   record` (the kernel suite, or a Criterion tree via [`criterion`]),
//!   `pet loadgen --ledger` and `repro bench-server` (both through
//!   [`loadgen_row`]), `pet fleet --ledger`, and `repro phy` / `repro
//!   monitor`.
//! - The ledger file is JSON Lines, append-only: [`append`] never rewrites
//!   history, [`load`] replays it in order. A crash in the middle of an
//!   append leaves at most a [`TornTail`], which readers skip and the next
//!   append cuts off, both reporting it.
//! - [`gate`] compares the latest rows against a baseline and fails CI on
//!   regression of the pinned metrics; [`trend`] renders the trajectory as
//!   CSV + SVG next to the experiment charts.
//!
//! Rows carry `best_of` (how many repeats the numbers are the best of) and
//! `noise_floor` (observed relative jitter across those repeats) so the
//! gate can tolerate machine noise without widening the threshold for
//! genuinely stable metrics.

pub mod criterion;
pub mod gate;
pub mod trend;

use pet_server::json::{escape, Json};
use pet_server::loadgen::{BatchReport, Plan};
use std::collections::BTreeMap;
use std::io::{self, Read as _, Write as _};
use std::path::Path;

/// Version tag written into every ledger row.
pub const LEDGER_SCHEMA_VERSION: u64 = 1;

/// One normalized benchmark result: a (benchmark, config) point at a
/// commit, with every measured metric in one map.
#[derive(Debug, Clone, PartialEq)]
pub struct LedgerRow {
    /// Short commit hash the numbers belong to (`"unknown"` outside git).
    pub commit: String,
    /// Unix seconds when the row was recorded (0 when unknown).
    pub timestamp_s: u64,
    /// Benchmark id: `"kernel"`, `"server-loadgen"`, `"fleet"`,
    /// `"criterion"`, ...
    pub bench: String,
    /// Configuration key within the benchmark, e.g. `"evented/c16/p64"` or
    /// `"n=100000/lane=avx2"`. Gate and trend series are keyed by
    /// (bench, config, metric).
    pub config: String,
    /// Where the row came from: `"pet:bench-record"`, `"pet:loadgen"`,
    /// `"repro:bench-server"`, ...
    pub source: String,
    /// How many repeats these numbers are the best of (≥ 1).
    pub best_of: u64,
    /// Observed relative spread across the repeats (0 when unknown or
    /// single-shot). The gate adds this to its threshold, so jittery rows
    /// get honest slack instead of a global fudge factor.
    pub noise_floor: f64,
    /// Metric name → value. All values finite; names are free-form but the
    /// direction convention in [`gate::lower_is_better`] applies.
    pub metrics: BTreeMap<String, f64>,
}

impl LedgerRow {
    /// Starts an empty row for a benchmark/config pair at a commit.
    #[must_use]
    pub fn new(bench: &str, config: &str, commit: &str) -> Self {
        Self {
            commit: commit.to_string(),
            timestamp_s: 0,
            bench: bench.to_string(),
            config: config.to_string(),
            source: "unknown".to_string(),
            best_of: 1,
            noise_floor: 0.0,
            metrics: BTreeMap::new(),
        }
    }

    /// Adds a metric, rejecting non-finite values instead of letting a NaN
    /// poison the gate arithmetic downstream.
    ///
    /// # Errors
    ///
    /// Returns a message when `value` is NaN or infinite.
    pub fn metric(&mut self, name: &str, value: f64) -> Result<(), String> {
        if !value.is_finite() {
            return Err(format!("metric {name:?}: non-finite value {value}"));
        }
        self.metrics.insert(name.to_string(), value);
        Ok(())
    }

    /// Structural validation: every field a reader relies on.
    ///
    /// # Errors
    ///
    /// Returns the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.bench.is_empty() || self.config.is_empty() {
            return Err("bench and config must be non-empty".into());
        }
        if self.commit.is_empty() {
            return Err("commit must be non-empty (use \"unknown\")".into());
        }
        if self.best_of == 0 {
            return Err("best_of must be >= 1".into());
        }
        if !self.noise_floor.is_finite() || !(0.0..1.0).contains(&self.noise_floor) {
            return Err(format!("noise_floor {} not in [0, 1)", self.noise_floor));
        }
        if self.metrics.is_empty() {
            return Err("a row needs at least one metric".into());
        }
        for (name, value) in &self.metrics {
            if name.is_empty() {
                return Err("empty metric name".into());
            }
            if !value.is_finite() {
                return Err(format!("metric {name:?}: non-finite value {value}"));
            }
        }
        Ok(())
    }

    /// Renders the row as one JSON line (no trailing newline). Metric keys
    /// are in `BTreeMap` order, so equal rows render byte-identically —
    /// the property the golden report test leans on.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(k, v)| format!("\"{}\":{}", escape(k), fmt_f64(*v)))
            .collect();
        format!(
            concat!(
                "{{\"schema\":{},\"commit\":\"{}\",\"timestamp_s\":{},",
                "\"bench\":\"{}\",\"config\":\"{}\",\"source\":\"{}\",",
                "\"best_of\":{},\"noise_floor\":{},\"metrics\":{{{}}}}}"
            ),
            LEDGER_SCHEMA_VERSION,
            escape(&self.commit),
            self.timestamp_s,
            escape(&self.bench),
            escape(&self.config),
            escape(&self.source),
            self.best_of,
            fmt_f64(self.noise_floor),
            metrics.join(",")
        )
    }

    /// Parses a row from one ledger line.
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON, an unknown schema version, or
    /// a row that fails [`Self::validate`].
    pub fn parse_jsonl(line: &str) -> Result<Self, String> {
        let v = Json::parse(line.trim()).map_err(|e| e.to_string())?;
        let schema = v
            .get("schema")
            .and_then(Json::as_u64)
            .ok_or("missing schema field")?;
        if schema != LEDGER_SCHEMA_VERSION {
            return Err(format!(
                "ledger schema {schema} (this build reads {LEDGER_SCHEMA_VERSION})"
            ));
        }
        let text = |k: &str| {
            v.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("missing string field {k:?}"))
        };
        let mut metrics = BTreeMap::new();
        let Some(Json::Obj(entries)) = v.get("metrics") else {
            return Err("missing metrics object".into());
        };
        for (name, value) in entries {
            let value = value
                .as_f64()
                .ok_or(format!("metric {name:?}: not a number"))?;
            metrics.insert(name.clone(), value);
        }
        let row = Self {
            commit: text("commit")?,
            timestamp_s: v
                .get("timestamp_s")
                .and_then(Json::as_u64)
                .ok_or("missing timestamp_s")?,
            bench: text("bench")?,
            config: text("config")?,
            source: text("source")?,
            best_of: v
                .get("best_of")
                .and_then(Json::as_u64)
                .ok_or("missing best_of")?,
            noise_floor: v
                .get("noise_floor")
                .and_then(Json::as_f64)
                .ok_or("missing noise_floor")?,
            metrics,
        };
        row.validate()?;
        Ok(row)
    }

    /// Stamps the row with the current wall clock.
    #[must_use]
    pub fn stamped_now(mut self) -> Self {
        self.timestamp_s = now_unix_s();
        self
    }
}

/// The `server-loadgen` row of one loadgen batch against `backend`, at the
/// working directory's commit and stamped now. The config is
/// `{backend}/c{connections}/p{pipeline}`; the metrics are the batch's
/// throughput over its request phase, that phase's length, and the
/// nearest-rank latency percentiles. `pet loadgen --ledger` and `repro
/// bench-server` both record this row; callers set `source` (and
/// `best_of` / `noise_floor` for a best-of-N run).
///
/// # Panics
///
/// Never: the throughput divides by a clock floored at 1 ns, so every
/// metric is finite.
#[must_use]
pub fn loadgen_row(backend: &str, plan: &Plan, report: &BatchReport) -> LedgerRow {
    let config = format!("{backend}/c{}/p{}", plan.connections, plan.pipeline);
    let mut row = LedgerRow::new("server-loadgen", &config, &current_commit());
    let elapsed_s = report.elapsed.as_secs_f64();
    for (name, value) in [
        ("throughput_rps", plan.requests as f64 / elapsed_s.max(1e-9)),
        ("elapsed_s", elapsed_s),
        ("latency_p50_ns", report.percentile(0.50) as f64),
        ("latency_p95_ns", report.percentile(0.95) as f64),
        ("latency_p99_ns", report.percentile(0.99) as f64),
        ("latency_max_ns", report.percentile(1.0) as f64),
    ] {
        row.metric(name, value).expect("finite loadgen metrics");
    }
    row.stamped_now()
}

/// Shortest round-trip decimal rendering of an f64. Rust's `Display`
/// prints the minimal digits that parse back to the same bits and never
/// uses exponent notation, which keeps the JSONL both stable and readable.
fn fmt_f64(v: f64) -> String {
    debug_assert!(v.is_finite(), "ledger never serializes non-finite values");
    format!("{v}")
}

/// Appends rows to a JSONL ledger, creating the file (and parents) if
/// needed. Never rewrites a complete line — the ledger is history — but
/// first cuts off a [`TornTail`] an earlier crash left (reporting it on
/// stderr), and syncs the file (and, when it creates the file, its
/// directory) to disk before returning.
///
/// # Errors
///
/// Returns a validation message for a bad row, or the underlying I/O
/// error.
pub fn append(path: &Path, rows: &[LedgerRow]) -> Result<(), String> {
    for row in rows {
        row.validate()
            .map_err(|e| format!("{}/{}: {e}", row.bench, row.config))?;
    }
    let dir = path
        .parent()
        .filter(|dir| !dir.as_os_str().is_empty())
        .unwrap_or(Path::new("."));
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let created = !path.exists();
    let io_err = |e: io::Error| format!("{}: {e}", path.display());
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .read(true)
        .append(true)
        .open(path)
        .map_err(io_err)?;
    let mut existing = String::new();
    file.read_to_string(&mut existing).map_err(io_err)?;
    let mut body = String::new();
    if let Some(torn) = torn_tail(&existing) {
        eprintln!("ledger {}: truncating {torn}", path.display());
        file.set_len(torn.offset as u64).map_err(io_err)?;
    } else if !existing.is_empty() && !existing.ends_with('\n') {
        // A complete last row missing its newline: start a fresh line.
        body.push('\n');
    }
    for row in rows {
        body.push_str(&row.to_jsonl());
        body.push('\n');
    }
    file.write_all(body.as_bytes()).map_err(io_err)?;
    file.sync_all().map_err(io_err)?;
    if created {
        // A new file's directory entry must reach the disk as well.
        std::fs::File::open(dir)
            .and_then(|dir| dir.sync_all())
            .map_err(io_err)?;
    }
    Ok(())
}

/// Loads every row of a ledger file, in file (= append) order.
///
/// # Errors
///
/// Returns an I/O error for an unreadable file, or a parse message with
/// the 1-based line number of the first malformed row.
pub fn load(path: &Path) -> io::Result<Vec<LedgerRow>> {
    let text = std::fs::read_to_string(path)?;
    parse_ledger(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// A final ledger line cut short by a crash in the middle of [`append`]:
/// it has no trailing newline and does not parse as a row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// 1-based line number of the torn line.
    pub line: usize,
    /// Byte offset where the torn line starts: the length to truncate to.
    pub offset: usize,
    /// Why the line does not parse.
    pub error: String,
}

impl std::fmt::Display for TornTail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "torn final line {} (no trailing newline; {})",
            self.line, self.error
        )
    }
}

/// The torn final line of ledger text, if it has one.
#[must_use]
pub fn torn_tail(text: &str) -> Option<TornTail> {
    if text.ends_with('\n') {
        return None;
    }
    let offset = text.rfind('\n').map_or(0, |i| i + 1);
    let last = &text[offset..];
    if last.trim().is_empty() {
        return None;
    }
    let error = LedgerRow::parse_jsonl(last).err()?;
    Some(TornTail {
        line: text[..offset].matches('\n').count() + 1,
        offset,
        error,
    })
}

/// Parses ledger text (blank lines skipped). A [`TornTail`] is skipped
/// and reported on stderr, so one interrupted append does not break
/// every later `gate` and `report`.
///
/// # Errors
///
/// Returns a message with the 1-based line number of the first bad row
/// other than a torn final line.
pub fn parse_ledger(text: &str) -> Result<Vec<LedgerRow>, String> {
    let torn = torn_tail(text);
    let complete = torn.as_ref().map_or(text, |torn| &text[..torn.offset]);
    let mut rows = Vec::new();
    for (i, line) in complete.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        rows.push(LedgerRow::parse_jsonl(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    if let Some(torn) = torn {
        eprintln!("ledger: ignoring {torn}");
    }
    Ok(rows)
}

/// Relative change `(candidate - baseline) / baseline`, defined only for a
/// strictly positive finite baseline and finite candidate. This is the one
/// place gate arithmetic touches division — a zero or NaN baseline becomes
/// an explicit `None` (surfaced as an invalid check), never a NaN verdict.
#[must_use]
pub fn rel_change(baseline: f64, candidate: f64) -> Option<f64> {
    if !baseline.is_finite() || baseline <= 0.0 || !candidate.is_finite() {
        return None;
    }
    Some((candidate - baseline) / baseline)
}

/// Relative spread `(max - min) / max` of repeat measurements: the
/// observed noise floor stored on best-of-N rows. 0 for fewer than two
/// samples or a non-positive best value.
#[must_use]
pub fn noise_floor_of(samples: &[f64]) -> f64 {
    if samples.len() < 2 || samples.iter().any(|v| !v.is_finite()) {
        return 0.0;
    }
    let max = samples.iter().copied().fold(f64::MIN, f64::max);
    let min = samples.iter().copied().fold(f64::MAX, f64::min);
    if max <= 0.0 {
        return 0.0;
    }
    ((max - min) / max).clamp(0.0, 0.999_999)
}

/// Short hash of the working directory's HEAD, `"unknown"` outside a
/// checkout or when git is absent (see [`commit_at`]).
#[must_use]
pub fn current_commit() -> String {
    commit_at(Path::new("."))
}

/// Short hash of the HEAD of the checkout at `dir`, with `-dirty` appended
/// when a tracked file differs from it, so that a row timed on
/// uncommitted code is not attributed to its parent; untracked files do
/// not count. `"unknown"` outside a checkout or when git is absent.
#[must_use]
pub fn commit_at(dir: &Path) -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .arg("-C")
            .arg(dir)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    };
    let Some(head) = git(&["rev-parse", "--short", "HEAD"]) else {
        return "unknown".to_string();
    };
    let dirty = git(&["status", "--porcelain", "--untracked-files=no"])
        .is_some_and(|status| !status.trim().is_empty());
    format!("{}{}", head.trim(), if dirty { "-dirty" } else { "" })
}

/// Seconds since the Unix epoch (0 if the clock is before it).
#[must_use]
pub fn now_unix_s() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs())
}
