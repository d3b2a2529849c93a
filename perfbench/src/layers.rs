//! The traced run's layer replay and the per-layer metrics.
//!
//! The replay runs the workload's operation stream in process on one
//! thread, in two passes: one with the tracer off (the untraced operation
//! time) and one with it on. The caller alternates them block by block
//! with the program's own call on the same inputs — the reference — and
//! both passes check every output bit for bit against the reference.

use crate::check::Sample;
use crate::replay::{self, MonitorRun};
use crate::report::{ns, Metric, Outcome};
use crate::stats::median;
use crate::trace::{Tracer, ROOT};
use crate::workload::{
    op_id, request_line, trial_seed, warmup_id, warmup_trial_seed, Workload, TRIAL_ROUNDS,
    TRIAL_TAGS,
};
use pet_hash::bulk::RadixScratch;
use pet_hash::family::AnyFamily;
use pet_server::ServiceCore;
use pet_sim::cache::RosterCache;
use std::time::Instant;

/// Operations replayed per pass, at most (a multiple of [`BLOCK`]).
pub const MAX_REPLAY: usize = 2000;

/// Operations a traced run takes through each pass in turn: long enough
/// that a pass keeps the CPU caches to itself, short enough that the
/// passes see the same machine state.
pub const BLOCK: usize = 16;

/// `trace.coverage_ratio` must fall within this range: the layer spans'
/// self times account for at least this share of each traced operation,
/// the rest being the benchmark's glue between calls.
pub const COVERAGE: (f64, f64) = (0.80, 1.0);

struct Replayed {
    samples: Vec<Sample>,
    rounds: u32,
    monitor: Option<MonitorRun>,
}

enum Input {
    Line(String),
    Trial(u64),
}

fn timed_input(workload: Workload, seed: u64, i: u64) -> Input {
    if workload.served() {
        Input::Line(request_line(workload, &op_id(seed, i)))
    } else {
        Input::Trial(trial_seed(seed, i))
    }
}

fn warmup_input(workload: Workload, seed: u64, j: usize) -> Input {
    if workload.served() {
        Input::Line(request_line(workload, &warmup_id(seed, 0, j)))
    } else {
        Input::Trial(warmup_trial_seed(seed, 0, j))
    }
}

fn replay_op(
    tr: &mut Tracer,
    op: u64,
    workload: Workload,
    core: &ServiceCore,
    cache: &RosterCache,
    input: &Input,
) -> Result<Replayed, String> {
    match (workload, input) {
        (Workload::MonitorChurn, Input::Line(line)) => {
            let (samples, run) = replay::monitor(tr, op, core, line)?;
            Ok(Replayed {
                samples,
                rounds: 0,
                monitor: Some(run),
            })
        }
        (_, Input::Line(line)) => {
            let (sample, rounds) = replay::estimate(tr, op, core, cache, line)?;
            Ok(Replayed {
                samples: vec![sample],
                rounds,
                monitor: None,
            })
        }
        (_, Input::Trial(seed)) => {
            let k = replay::trial(tr, op, cache, TRIAL_TAGS, TRIAL_ROUNDS, *seed)?;
            Ok(Replayed {
                samples: vec![trial_sample(k.estimate)],
                rounds: k.rounds,
                monitor: None,
            })
        }
    }
}

/// What `pet_trial` output looks like as a sample.
pub fn trial_sample(estimate: f64) -> Sample {
    Sample {
        estimate,
        truth: TRIAL_TAGS as f64,
        windowed: None,
        slots: None,
    }
}

/// One replay pass: its own service core and roster cache, warmed as the
/// program's were, and what it measured.
pub struct Pass {
    workload: Workload,
    seed: u64,
    core: ServiceCore,
    cache: RosterCache,
    scratch: RadixScratch,
    /// Passive code lookups before the timed operations.
    warm: pet_sim::cache::CacheStats,
    /// Spans recorded (none when untraced).
    pub tracer: Tracer,
    /// Per-operation time, root span to root span.
    pub op_ns: Vec<u64>,
    /// Kernel rounds run, in the operations and their probes.
    pub kernel_rounds: u64,
    /// Keys hashed and sorted by the probes.
    pub bulk_keys: u64,
}

impl Pass {
    /// A pass over `workload`'s stream for `seed`; `traced` records spans
    /// and runs the probes after each operation.
    pub fn new(workload: Workload, seed: u64, traced: bool) -> Result<Self, String> {
        let core = crate::check::deterministic_core();
        let cache = RosterCache::default();
        // The same warm-up the server or trial loop saw, so the timed
        // lookups hit or miss as theirs did.
        let mut off = Tracer::new(false);
        for j in 0..workload.warmup() {
            replay_op(
                &mut off,
                0,
                workload,
                &core,
                &cache,
                &warmup_input(workload, seed, j),
            )?;
        }
        let warm = cache.stats();
        Ok(Self {
            workload,
            seed,
            core,
            cache,
            scratch: RadixScratch::new(),
            warm,
            tracer: Tracer::new(traced),
            op_ns: Vec::new(),
            kernel_rounds: 0,
            bulk_keys: 0,
        })
    }

    /// Replays operation `i` and checks it against the program's output.
    pub fn op(&mut self, i: usize, want: &[Sample], out: &mut Outcome) -> Result<(), String> {
        let op = i as u64;
        let input = timed_input(self.workload, self.seed, op);
        let tr = &mut self.tracer;
        let began = Instant::now();
        tr.enter(ROOT, op);
        let got = replay_op(tr, op, self.workload, &self.core, &self.cache, &input);
        tr.exit();
        self.op_ns.push(began.elapsed().as_nanos() as u64);
        let got = got?;
        if got.samples.len() != want.len() || got.samples.iter().zip(want).any(|(g, w)| !g.same(w))
        {
            out.failed += 1;
            out.fail(format!(
                "replay of operation {i} differs from the program: {:?} vs {want:?}",
                got.samples
            ));
        }
        self.kernel_rounds += u64::from(got.rounds);
        if !tr.on() {
            return Ok(());
        }
        match (&got.monitor, &input) {
            (Some(run), _) => {
                let probes = replay::kernel_probes(tr, op, run, &mut self.scratch)?;
                for (u, ((k, keys), sample)) in probes.iter().zip(&got.samples).enumerate() {
                    if k.estimate.to_bits() != sample.estimate.to_bits() {
                        out.failed += 1;
                        out.fail(format!(
                            "kernel probe of update {u} of operation {i} differs"
                        ));
                    }
                    self.kernel_rounds += u64::from(k.rounds);
                    self.bulk_keys += *keys as u64;
                }
            }
            (None, Input::Trial(seed)) => {
                let keys = self.cache.sequential_keys(TRIAL_TAGS);
                let config = replay::trial_config(*seed)?;
                replay::bank_probe(
                    tr,
                    op,
                    &config,
                    AnyFamily::default(),
                    &keys,
                    &mut self.scratch,
                );
                self.bulk_keys += keys.len() as u64;
            }
            (None, Input::Line(_)) => {}
        }
        Ok(())
    }

    /// Timed passive code lookups that hit and missed.
    pub fn lookups(&self) -> (u64, u64) {
        let now = self.cache.stats();
        (now.hits - self.warm.hits, now.misses - self.warm.misses)
    }
}

/// A served workload's timings outside the replay passes: the wire's, and
/// the reference's in process.
#[derive(Default)]
pub struct Wire<'a> {
    /// Client-side latency of each operation over loopback TCP.
    pub client_ns: &'a [u64],
    /// Request plus reply bytes over the wire.
    pub bytes: u64,
    /// `ServiceCore::handle_line` time of each replayed operation.
    pub handle_ns: &'a [u64],
    /// `ServiceCore::execute_work` time of each replayed operation.
    pub execute_ns: &'a [u64],
}

fn p50_us(values: &[u64]) -> f64 {
    median(values).map_or(0.0, |v| ns(v, 1e3))
}

/// The per-layer metrics of a traced run, and the coverage check.
pub fn metrics(out: &mut Outcome, wire: &Wire, untraced: &Pass, traced: &Pass) {
    let tr = &traced.tracer;
    let ops = traced.op_ns.len().max(1) as f64;
    let own = tr.self_times();
    // Per operation: self time of the layer spans below ServiceCore's
    // execute step, for format = execute − those layers.
    let mut below_execute = vec![0u64; traced.op_ns.len()];
    for (span, &t) in tr.spans().iter().zip(&own) {
        if span.parent.is_some() && !matches!(span.name, "proto.parse" | "service.dispatch") {
            below_execute[span.op as usize] += t;
        }
    }
    let format_ns: Vec<i64> = wire
        .execute_ns
        .iter()
        .zip(&below_execute)
        .map(|(&e, &b)| e as i64 - b as i64)
        .collect();
    let in_process: Vec<u64> = wire
        .handle_ns
        .iter()
        .zip(wire.execute_ns)
        .map(|(h, e)| h + e)
        .collect();
    let event_loop_us = match (median(wire.client_ns), median(&in_process)) {
        (Some(client), Some(inproc)) => ns(client, 1e3) - ns(inproc, 1e3),
        _ => 0.0,
    };
    let total = |name: &str| tr.durations(name).iter().sum::<u64>() as f64;
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    let coverage = tr.coverage();
    let (hits, misses) = traced.lookups();
    let overhead = match (median(&traced.op_ns), median(&untraced.op_ns)) {
        (Some(t), Some(u)) => t as f64 / u.max(1) as f64,
        _ => 0.0,
    };
    let values = [
        ("event_loop.overhead_us_p50", event_loop_us, "us"),
        (
            "event_loop.bytes_per_op",
            per(wire.bytes as f64, wire.client_ns.len() as u64),
            "bytes",
        ),
        (
            "proto.parse_us_p50",
            p50_us(&tr.durations("proto.parse")),
            "us",
        ),
        ("service.handle_line_us_p50", p50_us(wire.handle_ns), "us"),
        ("service.execute_us_p50", p50_us(wire.execute_ns), "us"),
        (
            "service.format_us_p50",
            median(&format_ns).map_or(0.0, |v| v as f64 / 1e3),
            "us",
        ),
        (
            "cache.bank_us_p50",
            p50_us(&tr.durations("cache.bank")),
            "us",
        ),
        (
            "cache.codes_hit_ratio",
            per(hits as f64, hits + misses),
            "ratio",
        ),
        (
            "bulk.hash_ns_per_key",
            per(total("bulk.hash"), traced.bulk_keys),
            "ns",
        ),
        (
            "bulk.sort_ns_per_key",
            per(total("bulk.sort"), traced.bulk_keys),
            "ns",
        ),
        ("bulk.keys_per_op", traced.bulk_keys as f64 / ops, "count"),
        (
            "kernel.run_us_p50",
            p50_us(&tr.durations("kernel.run")),
            "us",
        ),
        (
            "kernel.ns_per_round",
            per(total("kernel.run"), traced.kernel_rounds),
            "ns",
        ),
        (
            "kernel.rounds_per_op",
            traced.kernel_rounds as f64 / ops,
            "count",
        ),
        (
            "population.keys_us_p50",
            p50_us(&tr.durations("population.keys")),
            "us",
        ),
        (
            "dynamics.churn_us_p50",
            p50_us(&tr.durations("dynamics.churn")),
            "us",
        ),
        (
            "monitor.observe_us_p50",
            p50_us(&tr.durations("monitor.observe")),
            "us",
        ),
        ("trace.coverage_ratio", coverage, "ratio"),
        ("trace.overhead_ratio", overhead, "ratio"),
    ];
    for (name, value, unit) in values {
        out.metrics.push(Metric { name, value, unit });
    }
    if !(COVERAGE.0..=COVERAGE.1).contains(&coverage) {
        out.fail(format!(
            "trace.coverage_ratio {coverage} is outside its tolerance {:?}",
            COVERAGE
        ));
    }
    out.note(
        "coverage_tolerance",
        format!("[{},{}]", COVERAGE.0, COVERAGE.1),
    );
    out.note("replayed_ops", traced.op_ns.len());
    out.note("spans", tr.spans().len());
}

/// Writes the traced pass's spans under `.bench_out/` and notes the path.
pub fn write_spans(out: &mut Outcome, workload: Workload, seed: u64, traced: &Pass) {
    let path = std::path::PathBuf::from(format!(".bench_out/trace-{}-{seed}.csv", workload.name()));
    match traced.tracer.write_csv(&path) {
        Ok(()) => out.note("spans_csv", format!("{:?}", path.display().to_string())),
        Err(e) => out.fail(format!("writing {}: {e}", path.display())),
    }
}
