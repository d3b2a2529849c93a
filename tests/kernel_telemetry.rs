//! The kernel backend's per-round telemetry equals the oracle backend's:
//! one seeded estimate on each, under a [`MemorySink`], with re-probes on
//! so that idle slots repeat, reports equal round, slot, command-bit and
//! slot-outcome totals and one `core.round` span per round.
//!
//! One test function in a binary of its own: the pet-obs sink is
//! process-global, so no other test may share its install/shutdown window.

use pet_core::config::{Backend, Mitigation, PetConfig};
use pet_core::front::Estimator;
use pet_obs::{MemorySink, Summary};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Every per-round counter the two backends share.
const ROUND_COUNTERS: [&str; 6] = [
    "core.rounds",
    "core.round.slots",
    "core.round.command_bits",
    "core.round.slots.idle",
    "core.round.slots.singleton",
    "core.round.slots.collision",
];

#[test]
fn kernel_round_telemetry_equals_the_oracle_backends() {
    let keys: Vec<u64> = (0..3_000).collect();
    let rounds = 300;
    let sink = Arc::new(MemorySink::default());
    pet_obs::install(sink.clone());
    let mut runs: Vec<(Summary, Vec<_>)> = Vec::new();
    for backend in [Backend::Kernel, Backend::Oracle] {
        let config = PetConfig::builder()
            .backend(backend)
            .mitigation(Mitigation::ReProbe { probes: 2 })
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let report = Estimator::new(config).estimate_keys_rounds(&keys, rounds, &mut rng);
        runs.push((sink.summary(), report.records));
        sink.clear();
    }
    pet_obs::shutdown();

    let [(kernel, kernel_records), (oracle, oracle_records)] = &runs[..] else {
        unreachable!("one run per backend");
    };
    assert_eq!(kernel_records, oracle_records);
    for name in ROUND_COUNTERS {
        assert!(kernel.counter(name) > 0, "{name} is recorded");
        assert_eq!(kernel.counter(name), oracle.counter(name), "{name}");
    }
    assert_eq!(kernel.counter("core.rounds"), u64::from(rounds));
    // Each idle query is heard three times, so idle slots outnumber the
    // rounds that end on one.
    assert!(kernel.counter("core.round.slots.idle") > u64::from(rounds));
    for summary in [kernel, oracle] {
        let spans = summary.span_stats("core.round").expect("round spans");
        assert_eq!(spans.count, u64::from(rounds));
    }
}
