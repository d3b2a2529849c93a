//! Seed-replay regression: a lossy `pet estimate --telemetry` run streams a
//! JSONL event log that (a) parses back through the `pet telemetry` command,
//! (b) carries slot-outcome counters consistent with each other, and (c)
//! matches the air metrics of an in-process library run of the same seed.
//!
//! Runs the real binary in subprocesses (`CARGO_BIN_EXE_pet`) because the
//! pet-obs sink handle is process-global: installing a sink inside this test
//! process would race with the CLI's own unit tests.

use pet_core::config::{Mitigation, PetConfig};
use pet_core::front::Estimator;
use pet_phy::channel::{ChannelModel, LossyChannel};
use pet_stats::accuracy::Accuracy;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::Command;

const TAGS: usize = 600;
const ROUNDS: u32 = 48;
const SEED: u64 = 0xFA11;
const MISS: f64 = 0.08;
const FALSE_BUSY: f64 = 0.01;
const PROBES: u32 = 1;

fn pet(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_pet"))
        .args(args)
        .output()
        .expect("spawn pet binary")
}

fn lossy_estimate_args(telemetry: &str) -> Vec<String> {
    [
        "estimate",
        "--tags",
        &TAGS.to_string(),
        "--rounds",
        &ROUNDS.to_string(),
        "--seed",
        &SEED.to_string(),
        "--miss",
        &MISS.to_string(),
        "--false-busy",
        &FALSE_BUSY.to_string(),
        "--probes",
        &PROBES.to_string(),
        "--telemetry",
        telemetry,
    ]
    .iter()
    .map(ToString::to_string)
    .collect()
}

#[test]
fn lossy_telemetry_replays_against_library_run() {
    let path = std::env::temp_dir().join(format!("pet-replay-{}.jsonl", std::process::id()));
    let path_str = path.to_str().expect("utf-8 temp path");
    let args = lossy_estimate_args(path_str);
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();

    let out = pet(&argv);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");

    // Same seed, same channel, fresh process: bit-identical report.
    let replay = pet(&argv);
    assert!(replay.status.success());
    assert_eq!(
        stdout,
        String::from_utf8(replay.stdout).expect("utf-8 stdout"),
        "seeded lossy runs must replay bit-for-bit"
    );

    // The event stream parses and its slot-outcome counters are internally
    // consistent: idle + singleton + collision = total slots.
    let text = std::fs::read_to_string(&path).expect("telemetry file written");
    let mut summary = pet_obs::Summary::default();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event =
            pet_obs::Event::parse_jsonl(line).unwrap_or_else(|e| panic!("line {}: {e}", i + 1));
        summary.accumulate(&event);
    }
    assert_eq!(summary.counter("core.rounds"), u64::from(ROUNDS));
    let slots = summary.counter("core.round.slots");
    let idle = summary.counter("core.round.slots.idle");
    let singleton = summary.counter("core.round.slots.singleton");
    let collision = summary.counter("core.round.slots.collision");
    assert!(slots > 0, "lossy run recorded no slots");
    assert_eq!(idle + singleton + collision, slots);

    // An in-process run of the identical configuration reproduces the
    // streamed totals exactly — the telemetry is a faithful transcript.
    let config = PetConfig::builder()
        .accuracy(Accuracy::new(0.05, 0.01).expect("valid accuracy"))
        .channel(ChannelModel::Lossy(
            LossyChannel::new(MISS, FALSE_BUSY).expect("valid probabilities"),
        ))
        .mitigation(Mitigation::ReProbe { probes: PROBES })
        .build()
        .expect("valid config");
    let keys: Vec<u64> = (0..TAGS as u64).collect();
    let mut rng = StdRng::seed_from_u64(SEED);
    let report = Estimator::new(config)
        .try_estimate_keys_rounds(&keys, ROUNDS, &mut rng)
        .expect("library run succeeds");
    assert_eq!(report.metrics.slots, slots);
    assert_eq!(report.metrics.idle, idle);
    assert_eq!(report.metrics.singleton, singleton);
    assert_eq!(report.metrics.collision, collision);
    assert!(
        stdout.contains(&format!("{:.0}", report.estimate)),
        "CLI printed a different estimate than the library replay:\n{stdout}"
    );

    // The summarize command accepts the stream it wrote.
    let tel = pet(&["telemetry", "--file", path_str]);
    assert!(tel.status.success());
    let tel_out = String::from_utf8_lossy(&tel.stdout).into_owned();
    assert!(
        tel_out.contains("core.round.slots"),
        "summary should mention slot counters:\n{tel_out}"
    );
    std::fs::remove_file(&path).ok();
}
