//! Criterion output trees as [`LedgerRow`]s: `pet bench record
//! --criterion-dir`.
//!
//! Upstream criterion writes `<root>/<group>/<bench>/new/estimates.json`;
//! the vendored offline criterion writes the same shape when
//! `PET_CRITERION_JSON_DIR` is set. [`criterion_dir`] walks such a tree
//! into one `criterion` row per benchmark, and [`without_duplicates`]
//! keeps a re-ingested tree from appending its rows twice.

use super::LedgerRow;
use pet_server::json::Json;
use std::path::Path;

/// One Criterion `estimates.json` (upstream shape: point estimates nested
/// under `mean` / `median`) → a `criterion` row whose config is the
/// benchmark label, stamped now. Prefers the median — it is what the
/// vendored harness reports and the more jitter-robust of the two.
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
    Ok(row.stamped_now())
}

/// Walks a Criterion output tree (`<root>/<...label...>/new/estimates.json`)
/// into one row per benchmark found, labels sorted for deterministic row
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
/// metrics; the timestamp is not compared. Makes `pet bench record`
/// idempotent: re-ingesting the same criterion tree, stamped anew,
/// appends nothing, while a changed one (new numbers, new commit) still
/// lands.
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
