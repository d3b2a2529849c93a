//! The kernel's per-round telemetry equals the oracle reader's: one seeded
//! estimate and one reference run over a [`CodeRoster`] of the same keys,
//! under a [`MemorySink`], with re-probes on so that idle slots repeat,
//! report equal round, slot, command-bit and slot-outcome totals and one
//! `core.round` span per round.
//!
//! One test function in a binary of its own: the pet-obs sink is
//! process-global, so no other test may share its install/shutdown window.

use pet_core::config::{Mitigation, PetConfig};
use pet_core::front::Estimator;
use pet_core::oracle::CodeRoster;
use pet_obs::MemorySink;
use pet_phy::Air;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Every per-round counter the kernel and the oracle reader share.
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
    let config = PetConfig::builder()
        .mitigation(Mitigation::ReProbe { probes: 2 })
        .build()
        .unwrap();
    let estimator = Estimator::new(config);
    let kernel_records = estimator
        .estimate_keys_rounds(&keys, rounds, &mut StdRng::seed_from_u64(7))
        .records;
    let kernel = sink.summary();
    sink.clear();
    let mut roster = CodeRoster::new(&keys, &config, estimator.family());
    let mut air = Air::new(config.channel());
    let oracle_records = estimator
        .try_run_oracle(rounds, &mut roster, &mut air, &mut StdRng::seed_from_u64(7))
        .unwrap()
        .records;
    let oracle = sink.summary();
    pet_obs::shutdown();

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
