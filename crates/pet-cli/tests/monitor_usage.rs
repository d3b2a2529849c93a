//! `pet monitor --tags` runs in process by default; it refuses, as usage
//! errors (exit 2, nothing printed on stdout), the churn shapes the
//! server's `monitor` verb refuses. `pet monitor --expected/--present`, the
//! one-shot audit, prints a fixed report for a fixed seed and refuses an
//! empty inventory and a false-alarm rate outside (0, 0.5].

use std::process::{Command, Output};

/// `pet monitor` with exactly `flags`.
fn pet_audit(flags: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pet"))
        .arg("monitor")
        .args(flags)
        .output()
        .expect("pet runs")
}

/// `pet monitor`'s streaming mode over ten tags, plus `flags`.
fn pet_monitor(flags: &[&str]) -> Output {
    pet_audit(&[&["--tags", "10", "--updates", "4", "--rounds", "4"], flags].concat())
}

fn assert_usage_error(flags: &[&str], complaint: &str) {
    assert_refused(pet_monitor(flags), flags, complaint);
}

fn assert_refused(out: Output, flags: &[&str], complaint: &str) {
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

/// The README's audit command, report pinned line by line: the estimate,
/// the p-value, the verdict and the closed-form power at the default seed.
#[test]
fn audit_of_a_short_inventory_alarms() {
    let out = pet_audit(&["--expected", "10000", "--present", "8800"]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "book inventory : 10000\n\
         estimate       : 8675\n\
         missing (est.) : 13.3%\n\
         p-value        : 0.0000\n\
         verdict        : ALARM — tags are missing\n\
         (smallest deficit detectable with 95% power at this budget: 7.2%)\n"
    );
}

#[test]
fn audit_of_a_full_inventory_is_consistent() {
    let out = pet_audit(&["--expected", "10000", "--present", "10000"]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "book inventory : 10000\n\
         estimate       : 9935\n\
         missing (est.) : 0.7%\n\
         p-value        : 0.3640\n\
         verdict        : consistent with full inventory\n\
         (smallest deficit detectable with 95% power at this budget: 7.2%)\n"
    );
}

#[test]
fn empty_inventory_is_a_usage_error() {
    let flags = ["--expected", "0", "--present", "10"];
    assert_refused(
        pet_audit(&flags),
        &flags,
        "expected inventory must be positive",
    );
}

#[test]
fn false_alarm_rate_outside_zero_to_half_is_a_usage_error() {
    for alpha in ["0.9", "0"] {
        let flags = ["--expected", "10000", "--present", "8800", "--alpha", alpha];
        assert_refused(
            pet_audit(&flags),
            &flags,
            "false-alarm rate must lie in (0, 0.5]",
        );
    }
}
