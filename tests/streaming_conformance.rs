//! Streaming-conformance suite: the `pet-core::monitor` layer must be a
//! *pure composition* of one-shot estimates — no hidden state, no extra
//! randomness, no divergence from the oracle reader.
//!
//! Four pins:
//!
//! 1. **Zero-churn differential** (property): with a fixed key set, every
//!    monitor update is bit-for-bit the one-shot oracle reader run
//!    ([`Estimator::try_run_oracle`] over a [`CodeRoster`]) under the
//!    derived [`update_seed`], and the windowed value is bit-for-bit the
//!    [`windowed_mean`] fold of those raw estimates.
//! 2. **Churn differential** (property): every update of `ChurnStream`,
//!    which starts from the roster cache's bank and applies each update's
//!    churn to its own copy as a key delta, is bit-for-bit the rebuild —
//!    [`Timeline`] plus [`Monitor::observe_keys`] over every key — for
//!    both tag modes, including runs long enough to build the bank's
//!    prefix index, which churn must then drop; and the cached keys and
//!    codes stay those of the starting population.
//! 3. **Golden churn trace**: a fixed-seed `ChurnStream` run, started from
//!    the process-wide roster cache as `pet monitor` and the sweep start,
//!    with steady join/leave churn plus one missing-tag burst, pins every
//!    per-update estimate, windowed value, differential, and the
//!    alarm-fire update in `tests/golden/monitor_trace.csv`. Re-bless after
//!    an intentional protocol change with `PET_BLESS=1 cargo test -p pet
//!    --test streaming_conformance`.
//! 4. **Replay determinism**: producing the trace twice from scratch gives
//!    identical bytes — the property the server's byte-identical monitor
//!    streams and the sim sweep's ledger rows stand on.

use pet::prelude::*;
use pet_core::config::TagMode;
use pet_core::kernel::build_passive_codes;
use pet_core::monitor::{update_seed, windowed_mean, Monitor, MonitorConfig};
use pet_core::oracle::CodeRoster;
use pet_hash::family::AnyFamily;
use pet_sim::cache::RosterCache;
use pet_tags::dynamics::{ChurnSchedule, Timeline};
use proptest::prelude::*;
use std::fmt::Write as _;
use std::path::Path;

fn config() -> PetConfig {
    PetConfig::builder()
        .accuracy(Accuracy::new(0.2, 0.2).unwrap())
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Satellite 1: zero churn ⇒ the monitor is exactly the one-shot
    /// oracle reader run once per update under `update_seed(base, i)`,
    /// with the window a pure fold over the raw estimates.
    #[test]
    fn zero_churn_monitor_equals_one_shot(
        n in 1usize..1_500,
        rounds in 1u32..40,
        window in 1usize..6,
        base_seed in any::<u64>(),
    ) {
        let keys: Vec<u64> = TagPopulation::sequential(n).keys().collect();
        let mut monitor = Monitor::new(MonitorConfig {
            config: config(),
            rounds,
            window,
            alarm_fraction: 0.5,
            reference: None,
            base_seed,
        })
        .unwrap();
        let estimator = Estimator::new(config());
        let mut raw = Vec::new();
        for i in 0..4u64 {
            let update = monitor.observe_keys(&keys).unwrap();
            let mut roster = CodeRoster::new(&keys, estimator.config(), estimator.family());
            let mut air = Air::new(estimator.config().channel());
            let mut rng = StdRng::seed_from_u64(update_seed(base_seed, i));
            let solo = estimator
                .try_run_oracle(rounds, &mut roster, &mut air, &mut rng)
                .unwrap();
            prop_assert_eq!(
                update.estimate.to_bits(),
                solo.estimate.to_bits(),
                "update {} must equal the one-shot run",
                i
            );
            prop_assert_eq!(update.seed, update_seed(base_seed, i));
            raw.push(solo.estimate);
            let start = raw.len().saturating_sub(window);
            prop_assert_eq!(
                update.windowed.to_bits(),
                windowed_mean(raw[start..].iter().copied()).to_bits(),
                "windowed value must be the pure fold of raw estimates"
            );
            let expect_delta = if raw.len() > 1 {
                raw[raw.len() - 1] - raw[raw.len() - 2]
            } else {
                0.0
            };
            prop_assert_eq!(update.delta.to_bits(), expect_delta.to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Churn differential: the delta loop equals the rebuild, update by
    /// update, in every field the server's delta line carries.
    #[test]
    fn churn_stream_equals_rebuild(
        n in 1usize..1_500,
        rate_share in 0.0f64..=1.0,
        burst in (any::<bool>(), 0usize..6, 0.0f64..1.0),
        rounds in 1u32..64,
        window in 1usize..6,
        zero_probe in any::<bool>(),
        base_seed in any::<u64>(),
    ) {
        const UPDATES: usize = 6;
        // A burst of 1..n tags at an update below 6, and a rate in 0..=n,
        // or in 0..=n − burst_size with a burst.
        let rate = |tags: usize| (rate_share * tags as f64) as usize;
        let schedule = match burst {
            (true, at, share) if n > 1 => {
                let burst_size = 1 + (share * (n - 1) as f64) as usize;
                ChurnSchedule {
                    rate: rate(n - burst_size),
                    burst_at: Some(at),
                    burst_size,
                }
            }
            _ => ChurnSchedule::steady(rate(n)),
        };
        prop_assert_eq!(schedule.validate(n, UPDATES), Ok(()));
        let cache = RosterCache::default();
        let start: Vec<u64> = TagPopulation::sequential(n).keys().collect();
        for tag_mode in [TagMode::PassivePreloaded, TagMode::ActivePerRound] {
            let config = PetConfig::builder()
                .accuracy(Accuracy::new(0.2, 0.2).unwrap())
                .tag_mode(tag_mode)
                .zero_probe(zero_probe)
                .build()
                .unwrap();
            let monitor = || {
                Monitor::new(MonitorConfig {
                    config,
                    rounds,
                    window,
                    alarm_fraction: 0.5,
                    reference: None,
                    base_seed,
                })
                .unwrap()
            };
            let mut rebuild = monitor();
            let mut timeline = Timeline::new(TagPopulation::sequential(n));
            let mut stream = cache.sequential_stream(n, monitor(), schedule);
            for update in 0..UPDATES {
                for event in schedule.events_at(update) {
                    timeline.apply(event);
                }
                let keys: Vec<u64> = timeline.population().keys().collect();
                let want = rebuild.observe_keys(&keys).unwrap();
                let got = stream.next_update().unwrap();
                let bits = |u: &pet_core::monitor::MonitorUpdate| {
                    [u.estimate, u.windowed, u.delta, u.p_value].map(f64::to_bits)
                };
                prop_assert!(
                    bits(&got) == bits(&want) && got == want,
                    "update {update}, {tag_mode:?}:\n{got:?}\n{want:?}"
                );
                prop_assert_eq!(stream.population(), keys.len());
            }
            prop_assert_eq!(&*cache.sequential_keys(n), &start);
            if tag_mode == TagMode::PassivePreloaded {
                let cached = cache.sequential_bank(n, &config, AnyFamily::default());
                let fresh = build_passive_codes(&start, &config, AnyFamily::default());
                prop_assert_eq!(cached.codes(), &fresh[..]);
            }
        }
    }
}

/// The fixed churn scenario behind the golden trace: steady churn of 5
/// tags/update on 600 tags, then a burst of 400 leaving at update 6.
fn churn_trace() -> String {
    let monitor = Monitor::new(MonitorConfig {
        config: config(),
        rounds: 32,
        window: 3,
        alarm_fraction: 0.6,
        reference: Some(600.0),
        base_seed: 0x00C0_FFEE,
    })
    .unwrap();
    let schedule = ChurnSchedule {
        rate: 5,
        burst_at: Some(6),
        burst_size: 400,
    };
    let mut stream = RosterCache::global().sequential_stream(600, monitor, schedule);
    let mut out = String::from("update,population,estimate,windowed,delta,alarm\n");
    for _ in 0..10usize {
        let u = stream.next_update().unwrap();
        // `{:?}` prints the shortest f64 representation that round-trips,
        // so equal bytes ⇔ equal bits.
        writeln!(
            out,
            "{},{},{:?},{:?},{:?},{}",
            u.index,
            stream.population(),
            u.estimate,
            u.windowed,
            u.delta,
            u.alarm
        )
        .unwrap();
    }
    out
}

/// Satellite 2: the golden churn trace. Pins per-update estimates and the
/// alarm-fire update byte for byte; `PET_BLESS=1` re-blesses.
#[test]
fn golden_churn_trace_matches() {
    let produced = churn_trace();

    // Structural checks first, independent of the golden bytes: the alarm
    // must fire only after the burst at update 6, and stay quiet before.
    let alarm_updates: Vec<usize> = produced
        .lines()
        .skip(1)
        .enumerate()
        .filter(|(_, line)| line.ends_with("true"))
        .map(|(i, _)| i)
        .collect();
    assert!(
        !alarm_updates.is_empty(),
        "losing 400 of 600 tags must trip a 0.6 alarm fraction"
    );
    assert!(
        alarm_updates[0] >= 6,
        "alarm before the burst (update {}) is a false positive",
        alarm_updates[0]
    );

    let golden_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/monitor_trace.csv");
    if std::env::var("PET_BLESS").is_ok_and(|v| !v.is_empty()) {
        std::fs::create_dir_all(golden_path.parent().unwrap()).unwrap();
        std::fs::write(&golden_path, &produced).unwrap();
    }
    let golden = std::fs::read_to_string(&golden_path)
        .expect("golden missing — run once with PET_BLESS=1 to create it, then commit the file");
    assert_eq!(
        produced, golden,
        "monitor trace drifted from tests/golden/monitor_trace.csv; if the \
         change is intentional, re-bless with PET_BLESS=1 and commit"
    );
}

/// Satellite/acceptance: the trace (and hence every monitor consumer —
/// server streams, sim sweep, ledger rows) replays bit for bit.
#[test]
fn churn_trace_replays_bit_for_bit() {
    assert_eq!(churn_trace(), churn_trace());
}
