//! `pet bench` — the perf-ledger surface of the CLI.
//!
//! Three actions over the append-only `results/ledger.jsonl`:
//!
//! - `record` appends fresh rows: a live kernel-suite run (`--suite
//!   kernel`) or a criterion output tree (`--criterion-dir`).
//! - `report` renders per-metric trend CSV + per-bench SVG charts.
//! - `gate` compares pinned metrics between a baseline ledger (a file or a
//!   git ref holding one) and the current ledger, writes a machine-readable
//!   verdict, and exits nonzero on regression.

use crate::args::{ArgError, Args};
use pet_bench::ledger::{self, criterion, gate, trend, LedgerRow};
use std::path::{Path, PathBuf};

/// Dispatches `pet bench <record|report|gate> [--flags]`; `argv` is
/// everything after the `bench` word.
pub fn cmd_bench(args: &Args) -> Result<(), ArgError> {
    match args.command.as_str() {
        "record" => cmd_record(args),
        "report" => cmd_report(args),
        "gate" => cmd_gate(args),
        other => Err(ArgError(format!(
            "unknown bench action {other:?} (expected record, report or gate)"
        ))),
    }
}

fn ledger_path(args: &Args) -> Result<PathBuf, ArgError> {
    Ok(PathBuf::from(
        args.get("ledger")?.unwrap_or("results/ledger.jsonl"),
    ))
}

fn append_deduped(path: &Path, rows: Vec<LedgerRow>) -> Result<usize, ArgError> {
    // A ledger that does not exist yet is simply empty history.
    let existing = if path.is_file() {
        ledger::load(path).map_err(|e| ArgError(format!("{}: {e}", path.display())))?
    } else {
        Vec::new()
    };
    let fresh = criterion::without_duplicates(&existing, rows);
    let appended = fresh.len();
    ledger::append(path, &fresh).map_err(|e| ArgError(format!("{}: {e}", path.display())))?;
    Ok(appended)
}

/// `pet bench record (--suite kernel [--quick] [--best-of 3] |
/// --criterion-dir DIR) [--ledger results/ledger.jsonl] [--commit C]
/// [--source LABEL]`
fn cmd_record(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&[
        "suite",
        "quick",
        "best-of",
        "criterion-dir",
        "ledger",
        "commit",
        "source",
        "telemetry",
    ])?;
    let path = ledger_path(args)?;
    let commit = args
        .get("commit")?
        .map_or_else(ledger::current_commit, str::to_string);
    let rows = match (args.get("suite")?, args.get("criterion-dir")?) {
        (Some("kernel"), None) => {
            let best_of: usize = args.get_or("best-of", 3)?;
            if best_of == 0 {
                return Err(ArgError("--best-of must be >= 1".into()));
            }
            let bench = pet_bench::suite::run_kernel(args.switch("quick"), best_of);
            println!("{}", bench.render(&commit));
            let source = args.get("source")?.unwrap_or("pet:bench-record");
            vec![bench.ledger_row(&commit, source)]
        }
        (Some(other), None) => {
            return Err(ArgError(format!(
                "unknown suite {other:?} (available: kernel)"
            )))
        }
        (None, Some(dir)) => {
            let source = args
                .get("source")?
                .map_or_else(|| format!("criterion:{dir}"), str::to_string);
            criterion::criterion_dir(Path::new(dir), &source, &commit).map_err(ArgError)?
        }
        _ => {
            return Err(ArgError(
                "record needs exactly one of --suite kernel, --criterion-dir DIR".into(),
            ))
        }
    };
    let total = rows.len();
    let appended = append_deduped(&path, rows)?;
    println!(
        "bench record: {appended} row(s) appended to {} ({} duplicate(s) skipped)",
        path.display(),
        total - appended
    );
    Ok(())
}

/// `pet bench report [--ledger results/ledger.jsonl] [--out results]`
fn cmd_report(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&["ledger", "out", "telemetry"])?;
    let path = ledger_path(args)?;
    let rows = load_required(&path)?;
    let out = PathBuf::from(args.get("out")?.map_or_else(
        || {
            path.parent()
                .filter(|p| !p.as_os_str().is_empty())
                .unwrap_or_else(|| Path::new("."))
                .to_string_lossy()
                .into_owned()
        },
        str::to_string,
    ));
    let series = trend::series_of(&rows);
    print!("{}", trend::render_summary(&series));
    std::fs::create_dir_all(&out).map_err(|e| ArgError(format!("{}: {e}", out.display())))?;
    let csv = out.join("trends.csv");
    trend::write_csv(&series, &csv).map_err(|e| ArgError(format!("{}: {e}", csv.display())))?;
    println!("trend csv : {}", csv.display());
    let svgs = trend::write_svgs(&series, &out)
        .map_err(|e| ArgError(format!("{}: {e}", out.display())))?;
    for svg in svgs {
        println!("trend svg : {}", svg.display());
    }
    Ok(())
}

/// `pet bench gate --baseline <file|git-ref> [--ledger results/ledger.jsonl]
/// [--threshold 10%] [--pin bench[:prefix]:metric,...] [--verdict path]`
///
/// Exits with status 1 (after printing every check and writing the
/// verdict) when any pinned metric regressed beyond threshold + noise
/// floor, or compared against invalid data.
fn cmd_gate(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&[
        "baseline",
        "ledger",
        "threshold",
        "pin",
        "verdict",
        "telemetry",
    ])?;
    let baseline_spec: String = args.require("baseline")?;
    let threshold = gate::parse_threshold(args.get("threshold")?.unwrap_or("10%"))
        .map_err(|e| ArgError(format!("--threshold: {e}")))?;
    let pins = match args.get("pin")? {
        None => gate::default_pins(),
        Some(raw) => raw
            .split(',')
            .map(|spec| gate::PinnedMetric::parse(spec.trim()))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| ArgError(format!("--pin: {e}")))?,
    };
    let path = ledger_path(args)?;
    let candidate = load_required(&path)?;
    let baseline = load_baseline(&baseline_spec, &path)?;
    let outcome = gate::evaluate(&baseline, &candidate, &pins, threshold);
    print!("{}", outcome.render());
    if let Some(verdict) = args.get("verdict")? {
        if let Some(parent) = Path::new(verdict).parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| ArgError(format!("--verdict {verdict}: {e}")))?;
            }
        }
        std::fs::write(verdict, outcome.to_json())
            .map_err(|e| ArgError(format!("--verdict {verdict}: {e}")))?;
        println!("verdict   : {verdict}");
    }
    if outcome.pass() {
        println!("bench gate: PASS (threshold {:.1}%)", threshold * 100.0);
        Ok(())
    } else {
        eprintln!("bench gate: FAIL (threshold {:.1}%)", threshold * 100.0);
        std::process::exit(1);
    }
}

fn load_required(path: &Path) -> Result<Vec<LedgerRow>, ArgError> {
    let rows = ledger::load(path).map_err(|e| ArgError(format!("{}: {e}", path.display())))?;
    if rows.is_empty() {
        return Err(ArgError(format!(
            "{} has no rows (run `pet bench record` first)",
            path.display()
        )));
    }
    Ok(rows)
}

/// A baseline is a ledger file path or a git ref; a ref resolves to the
/// ledger's repo-relative path at that commit (`git show REF:results/...`).
fn load_baseline(spec: &str, ledger: &Path) -> Result<Vec<LedgerRow>, ArgError> {
    if Path::new(spec).is_file() {
        let text = std::fs::read_to_string(spec).map_err(|e| ArgError(format!("{spec}: {e}")))?;
        return ledger::parse_ledger(&text).map_err(|e| ArgError(format!("{spec}: {e}")));
    }
    let rel = ledger.to_string_lossy();
    let output = std::process::Command::new("git")
        .args(["show", &format!("{spec}:{rel}")])
        .output()
        .map_err(|e| ArgError(format!("--baseline {spec}: git: {e}")))?;
    if !output.status.success() {
        return Err(ArgError(format!(
            "--baseline {spec} is neither a file nor a git ref holding {rel}: {}",
            String::from_utf8_lossy(&output.stderr).trim()
        )));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    ledger::parse_ledger(&text).map_err(|e| ArgError(format!("--baseline {spec}: {e}")))
}
