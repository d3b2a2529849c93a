//! `pet monitor --tags` runs in process by default; it refuses, as usage
//! errors (exit 2, nothing printed on stdout), the churn shapes the
//! server's `monitor` verb refuses.

use std::process::{Command, Output};

fn pet_monitor(flags: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pet"))
        .arg("monitor")
        .args(["--tags", "10", "--updates", "4", "--rounds", "4"])
        .args(flags)
        .output()
        .expect("pet runs")
}

fn assert_usage_error(flags: &[&str], complaint: &str) {
    let out = pet_monitor(flags);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{flags:?}: {stderr}");
    assert!(stderr.contains(complaint), "{flags:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{flags:?} printed updates");
}

/// A rate above the population would saturate the leaves while the joins
/// add the full rate, growing the "balanced" population.
#[test]
fn churn_rate_above_tags_is_a_usage_error() {
    assert_usage_error(&["--churn-rate", "11"], "--churn-rate must be <= --tags");
}

/// A burst at or after the last update would never fire.
#[test]
fn burst_after_the_last_update_is_a_usage_error() {
    for at in ["4", "9"] {
        assert_usage_error(
            &["--burst-at", at, "--burst-size", "5"],
            "--burst-at must be < --updates",
        );
    }
}

/// A burst of the whole population would empty the region; an empty one
/// would do nothing.
#[test]
fn burst_size_outside_one_to_tags_is_a_usage_error() {
    for size in ["10", "11", "0"] {
        assert_usage_error(
            &["--burst-at", "2", "--burst-size", size],
            "--burst-size must be 1..--tags",
        );
    }
}

/// A rate above the tags a burst leaves would saturate the next update's
/// leaves while its joins add the full rate, bringing the lost tags back.
#[test]
fn churn_rate_above_the_burst_survivors_is_a_usage_error() {
    assert_usage_error(
        &["--churn-rate", "10", "--burst-at", "1", "--burst-size", "9"],
        "--churn-rate must be <= --tags - --burst-size when an update follows --burst-at",
    );
}

/// The largest valid shapes still run.
#[test]
fn valid_churn_shapes_run() {
    let out = pet_monitor(&["--churn-rate", "10", "--burst-at", "3", "--burst-size", "9"]);
    assert_eq!(out.status.code(), Some(0));
    // A header, four updates and the reference line.
    assert_eq!(String::from_utf8_lossy(&out.stdout).lines().count(), 6);
}
