//! In-process replays of one operation through the layers' public calls,
//! in the order the program makes them, each call inside a span.
//!
//! A replay must reproduce the program's outputs bit for bit — checked by
//! the callers against `ServiceCore::execute_work` or `pet_trial` on the
//! same input — which is what shows the spans time the same work.
//!
//! Some layers run inside a single public call of another layer: bulk
//! hashing and sorting inside `RosterCache::sequential_bank` on a miss and
//! inside `Monitor::observe_keys`, and the kernel inside `observe_keys`.
//! [`bank_probe`] and [`kernel_probes`] time those layers by calling them
//! again on the same input after the operation's root span has closed.

use crate::check::Sample;
use crate::trace::Tracer;
use pet_core::config::PetConfig;
use pet_core::front::Estimator;
use pet_core::kernel::CodeBank;
use pet_core::monitor::{update_seed, Monitor, MonitorConfig};
use pet_hash::bulk::{hash_codes_into, radix_sort_codes, RadixScratch};
use pet_hash::family::AnyFamily;
use pet_server::proto::{Request, Verb};
use pet_server::service::Dispatch;
use pet_server::{parse_request, seed_for_id, ServiceCore};
use pet_sim::cache::RosterCache;
use pet_tags::dynamics::{ChurnSchedule, Timeline};
use pet_tags::population::TagPopulation;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// What one kernel run reported.
#[derive(Debug, Clone, Copy)]
pub struct KernelOut {
    /// The estimate.
    pub estimate: f64,
    /// Slots spent.
    pub slots: u64,
    /// Rounds run.
    pub rounds: u32,
}

/// What [`kernel_probes`] needs to re-run one monitor subscription's
/// updates: the estimator configuration, the seeds, and the population
/// and churn to rebuild each update's key set from.
pub struct MonitorRun {
    /// The per-update estimator configuration.
    pub config: PetConfig,
    /// The hash family.
    pub family: AnyFamily,
    /// Rounds per update.
    pub rounds: u32,
    /// Base seed of [`update_seed`].
    pub base_seed: u64,
    /// Initial population.
    pub tags: usize,
    /// The churn applied before each update.
    pub schedule: ChurnSchedule,
    /// Updates run.
    pub updates: usize,
}

fn work(tr: &mut Tracer, op: u64, core: &ServiceCore, line: &str) -> Result<Request, String> {
    let request = tr
        .span("proto.parse", op, || parse_request(line))
        .map_err(|e| format!("request rejected: {e}"))?;
    match tr.span("service.dispatch", op, || core.dispatch(request)) {
        Dispatch::Work(request) => Ok(*request),
        _ => Err(format!("request {line:?} was not a work item")),
    }
}

/// The `estimate` verb: parse, dispatch, bank lookup, kernel — the calls
/// `ServiceCore::handle_line` and `execute_work` make, minus the reply
/// formatting.
///
/// # Errors
///
/// The line is not an estimate request or the kernel failed.
pub fn estimate(
    tr: &mut Tracer,
    op: u64,
    core: &ServiceCore,
    cache: &RosterCache,
    line: &str,
) -> Result<(Sample, u32), String> {
    let request = work(tr, op, core, line)?;
    let Verb::Estimate(p) = &request.verb else {
        return Err(format!("not an estimate request: {line}"));
    };
    let estimator = Estimator::new(p.config);
    let rounds = p.rounds.unwrap_or_else(|| p.config.rounds());
    let mut bank = tr.span("cache.bank", op, || {
        cache.sequential_bank(p.tags, &p.config, estimator.family())
    });
    let mut rng = StdRng::seed_from_u64(p.seed.unwrap_or_else(|| seed_for_id(&request.id)));
    let report = tr
        .span("kernel.run", op, || {
            estimator.try_run_bank(&mut bank, rounds, &mut rng)
        })
        .map_err(|e| e.to_string())?;
    let sample = Sample {
        estimate: report.estimate,
        truth: p.tags as f64,
        windowed: None,
        slots: Some(report.metrics.slots),
    };
    Ok((sample, report.rounds))
}

/// The `monitor` verb: parse, dispatch, then per update the churn events,
/// the key collection and `Monitor::observe_keys` — the calls
/// `execute_work` makes, minus the reply formatting.
///
/// # Errors
///
/// The line is not a monitor request or an update failed.
pub fn monitor(
    tr: &mut Tracer,
    op: u64,
    core: &ServiceCore,
    line: &str,
) -> Result<(Vec<Sample>, MonitorRun), String> {
    let request = work(tr, op, core, line)?;
    let Verb::Monitor(p) = &request.verb else {
        return Err(format!("not a monitor request: {line}"));
    };
    let base_seed = p.seed.unwrap_or_else(|| seed_for_id(&request.id));
    let mut monitor = Monitor::new(MonitorConfig {
        config: p.config,
        rounds: p.rounds,
        window: p.window,
        alarm_fraction: p.alarm_fraction,
        reference: None,
        base_seed,
    })
    .map_err(|e| e.to_string())?;
    let schedule = ChurnSchedule {
        rate: p.churn_rate,
        burst_at: p.burst_at.map(|u| u as usize),
        burst_size: p.burst_size,
    };
    let mut timeline = tr.span("population.sequential", op, || {
        Timeline::new(TagPopulation::sequential(p.tags))
    });
    let mut samples = Vec::with_capacity(p.updates as usize);
    for update in 0..p.updates as usize {
        tr.span("dynamics.churn", op, || {
            for event in schedule.events_at(update) {
                timeline.apply(event);
            }
        });
        let keys: Vec<u64> = tr.span("population.keys", op, || {
            timeline.population().keys().collect()
        });
        let u = tr
            .span("monitor.observe", op, || monitor.observe_keys(&keys))
            .map_err(|e| e.to_string())?;
        samples.push(Sample {
            estimate: u.estimate,
            truth: keys.len() as f64,
            windowed: Some(u.windowed),
            slots: None,
        });
    }
    let run = MonitorRun {
        config: *monitor.estimator().config(),
        family: monitor.estimator().family(),
        rounds: p.rounds,
        base_seed,
        tags: p.tags,
        schedule,
        updates: p.updates as usize,
    };
    Ok((samples, run))
}

/// The manufacture-time configuration `pet_trial` gives trial `seed`; the
/// bit-for-bit check against `pet_trial` fails if the two drift apart.
///
/// # Errors
///
/// The builder rejected the configuration.
pub fn trial_config(seed: u64) -> Result<PetConfig, String> {
    PetConfig::builder()
        .manufacture_seed(seed ^ 0x4D41_4E55)
        .build()
        .map_err(|e| e.to_string())
}

/// One Fig. 4 trial: bank lookup, then the kernel — the calls `pet_trial`
/// makes.
///
/// # Errors
///
/// The configuration or the kernel failed.
pub fn trial(
    tr: &mut Tracer,
    op: u64,
    cache: &RosterCache,
    n: usize,
    rounds: u32,
    seed: u64,
) -> Result<KernelOut, String> {
    let config = trial_config(seed)?;
    let estimator = Estimator::new(config);
    let mut bank = tr.span("cache.bank", op, || {
        cache.sequential_bank(n, &config, AnyFamily::default())
    });
    let mut rng = StdRng::seed_from_u64(seed);
    let report = tr
        .span("kernel.run", op, || {
            estimator.try_run_bank(&mut bank, rounds, &mut rng)
        })
        .map_err(|e| e.to_string())?;
    Ok(KernelOut {
        estimate: report.estimate,
        slots: report.metrics.slots,
        rounds: report.rounds,
    })
}

/// Hashes and radix-sorts `keys` under `config`'s manufacture seed — the
/// bulk work a passive bank miss does — and returns the bank.
pub fn bank_probe(
    tr: &mut Tracer,
    op: u64,
    config: &PetConfig,
    family: AnyFamily,
    keys: &[u64],
    scratch: &mut RadixScratch,
) -> CodeBank {
    let mut codes = Vec::new();
    tr.span("bulk.hash", op, || {
        hash_codes_into(
            &family,
            config.manufacture_seed(),
            keys,
            config.height(),
            &mut codes,
        )
    });
    tr.span("bulk.sort", op, || {
        radix_sort_codes(&mut codes, config.height(), scratch)
    });
    CodeBank::passive_shared(Arc::new(codes))
}

/// Re-runs a monitor subscription's updates as the bank builds and kernel
/// runs inside `Monitor::observe_keys`, rebuilding each update's key set
/// (untimed) rather than keeping it, so the operation itself allocates as
/// the program does. Returns each update's kernel report (its estimate
/// must equal the update's bit for bit) and key count.
///
/// # Errors
///
/// The kernel failed.
pub fn kernel_probes(
    tr: &mut Tracer,
    op: u64,
    run: &MonitorRun,
    scratch: &mut RadixScratch,
) -> Result<Vec<(KernelOut, usize)>, String> {
    let estimator = Estimator::with_family(run.config, run.family);
    let mut timeline = Timeline::new(TagPopulation::sequential(run.tags));
    let mut outs = Vec::with_capacity(run.updates);
    for update in 0..run.updates {
        for event in run.schedule.events_at(update) {
            timeline.apply(event);
        }
        let keys: Vec<u64> = timeline.population().keys().collect();
        let mut bank = bank_probe(tr, op, &run.config, run.family, &keys, scratch);
        let mut rng = StdRng::seed_from_u64(update_seed(run.base_seed, update as u64));
        let report = tr
            .span("kernel.run", op, || {
                estimator.try_run_bank(&mut bank, run.rounds, &mut rng)
            })
            .map_err(|e| e.to_string())?;
        let k = KernelOut {
            estimate: report.estimate,
            slots: report.metrics.slots,
            rounds: report.rounds,
        };
        outs.push((k, keys.len()));
    }
    Ok(outs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{deterministic_core, execute, validate, Expect};

    const EST: &str = r#"{"id":"r1","verb":"estimate","tags":500,"rounds":16}"#;
    const MON: &str = r#"{"id":"m1","verb":"monitor","tags":400,"updates":4,"window":2,"rounds":8,"churn_rate":5,"burst_at":2,"burst_size":100}"#;

    fn reply_samples(line: &str, id: &str, expect: Expect) -> Vec<Sample> {
        let reply = execute(&deterministic_core(), line).unwrap();
        let lines: Vec<String> = reply.lines().map(str::to_string).collect();
        validate(id, expect, &lines).unwrap()
    }

    #[test]
    fn estimate_replay_matches_execute_work_and_fails_on_another_seed() {
        let want = reply_samples(EST, "r1", Expect::Estimate { tags: 500 });
        let core = deterministic_core();
        let cache = RosterCache::default();
        let mut tr = Tracer::new(true);
        let (got, rounds) = estimate(&mut tr, 0, &core, &cache, EST).unwrap();
        assert!(got.same(&want[0]), "{got:?} vs {want:?}");
        assert_eq!(rounds, 16);
        let names: Vec<&str> = tr.spans().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "proto.parse",
                "service.dispatch",
                "cache.bank",
                "kernel.run"
            ]
        );
        // The same request under another id runs under another seed.
        let perturbed = EST.replace("r1", "r2");
        let (other, _) = estimate(&mut tr, 1, &core, &cache, &perturbed).unwrap();
        assert!(!other.same(&want[0]));
    }

    #[test]
    fn monitor_replay_matches_execute_work_and_the_probes_match_it() {
        let want = reply_samples(MON, "m1", Expect::Monitor { updates: 4 });
        let core = deterministic_core();
        let mut tr = Tracer::new(true);
        let (got, run) = monitor(&mut tr, 0, &core, MON).unwrap();
        assert_eq!(got.len(), 4);
        for (g, w) in got.iter().zip(&want) {
            assert!(g.same(w), "{g:?} vs {w:?}");
        }
        let mut scratch = RadixScratch::new();
        let probes = kernel_probes(&mut tr, 0, &run, &mut scratch).unwrap();
        assert_eq!(probes.len(), 4);
        for ((k, keys), g) in probes.iter().zip(&got) {
            assert_eq!(k.estimate.to_bits(), g.estimate.to_bits());
            assert_eq!(k.rounds, 8);
            assert_eq!(*keys as f64, g.truth);
        }
        // A perturbed base seed moves the estimates.
        let shifted = MonitorRun {
            base_seed: run.base_seed ^ 1,
            ..run
        };
        let (k, _) = kernel_probes(&mut tr, 0, &shifted, &mut scratch).unwrap()[0];
        assert_ne!(k.estimate.to_bits(), got[0].estimate.to_bits());
    }

    #[test]
    fn trial_replay_matches_pet_trial_and_fails_on_a_perturbed_seed() {
        use pet_sim::experiments::fig4::pet_trial;
        let cache = RosterCache::default();
        let mut tr = Tracer::new(false);
        let want = pet_trial(2_000, 16, 42);
        let got = trial(&mut tr, 0, &cache, 2_000, 16, 42).unwrap();
        assert_eq!(got.estimate.to_bits(), want.to_bits());
        let perturbed = trial(&mut tr, 0, &cache, 2_000, 16, 43).unwrap();
        assert_ne!(perturbed.estimate.to_bits(), want.to_bits());
        // The cache misses on every fresh manufacture seed.
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().misses, 2);
    }
}
