//! `PET_FORCE_LANE` through `pet lane`: a lane it names is the active one,
//! and a name that is no lane is refused instead of degrading. The lane is
//! chosen once per process and cached, so each case runs its own `pet`.

use std::process::{Command, Output};

fn pet_lane(forced: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pet"))
        .arg("lane")
        .env("PET_FORCE_LANE", forced)
        .output()
        .expect("pet runs")
}

/// Every host can run the scalar lane, so forcing it always takes.
#[test]
fn forced_scalar_is_the_active_lane() {
    let out = pet_lane("scalar");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.lines().any(|l| l == "active  : scalar"), "{stdout}");
}

/// The name of the deleted 128-bit lane fails like any other unknown
/// name, and the message lists the lanes that exist.
#[test]
fn unknown_lane_names_are_refused() {
    for name in ["sse2", "avx512"] {
        let out = pet_lane(name);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "PET_FORCE_LANE={name} ran");
        assert!(stderr.contains("scalar or avx2"), "{name}: {stderr}");
    }
}
