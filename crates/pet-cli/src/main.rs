//! `pet` — command-line interface to the PET reproduction.
//!
//! ```text
//! pet estimate --tags 50000 [--epsilon 0.05] [--delta 0.01]
//!              [--protocol pet|fneb|lof|ezb] [--linear]
//!              [--adaptive | --rounds M] [--seed S]
//! pet identify --tags 50000 [--protocol aloha|treewalk] [--seed S]
//! pet compare  --tags 50000 [--epsilon 0.05] [--delta 0.01] [--seed S]
//! pet monitor  --expected 10000 --present 9000 [--alpha 0.01] [--seed S]
//! pet monitor  --tags 2000 [--updates 8] [--window 4] [--churn-rate 20]
//!              [--burst-at K --burst-size B] [--addr HOST:PORT] [--seed S]
//! pet tree     --tags 4 [--height 4] [--path 0011] [--seed S]
//! pet info     [--epsilon 0.05] [--delta 0.01]
//! pet telemetry --file events.jsonl
//! pet serve    [--addr 127.0.0.1:7878] [--workers 4] [--queue 64]
//! pet loadgen  (--addr HOST:PORT | --local) [--requests 10000] [--connections 8]
//! pet fleet    (--spawn N | --agents host:port,...) [--rounds 64] [--quorum q]
//! ```
//!
//! Every command accepts `--telemetry <path.jsonl>`: protocol-level
//! counters, gauges, and span timings (see `pet-obs`) stream to the file as
//! JSON Lines, which `pet telemetry --file <path.jsonl>` summarizes.

mod args;
mod bench;
mod fleet;
mod serve;

use args::{ArgError, Args};
use pet_baselines::{CardinalityEstimator, Ezb, Fneb, Fsa, Lof, PetAdapter};
use pet_core::bits::BitString;
use pet_core::config::{Mitigation, PetConfig, SearchStrategy};
use pet_core::front::Estimator;
use pet_core::monitor::{detectable_fraction, ReferenceTest};
use pet_core::oracle::CodeRoster;
use pet_core::tree::Tree;
use pet_ident::{FramedAloha, IdentificationProtocol, TreeWalk};
use pet_phy::channel::{ChannelModel, LossyChannel};
use pet_phy::{Air, PhyProfile, TimeModel};
use pet_sim::cache::RosterCache;
use pet_sim::experiments::robustness;
use pet_stats::accuracy::Accuracy;
use pet_stats::gray::{PHI, SIGMA_H};
use pet_tags::dynamics::{ChurnError, ChurnSchedule};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;

const USAGE: &str = "usage: pet <estimate|identify|compare|monitor|tree|info> [--flags]
  pet estimate --tags 50000 [--epsilon 0.05] [--delta 0.01] [--protocol pet|fneb|lof|ezb|fsa]
               [--linear] [--adaptive | --rounds M] [--seed S] [--phy gen2]
               [--miss P] [--false-busy P] [--probes R | --trim K]
  pet robustness [--tags 5000] [--rounds 128] [--runs 40] [--miss 0,0.01,0.02,0.05,0.1]
               [--false-busy 0] [--probes 2] [--seed S] [--out target/robustness]
  pet identify --tags 50000 [--protocol aloha|treewalk] [--seed S]
  pet compare  --tags 50000 [--epsilon 0.05] [--delta 0.01] [--seed S]
  pet monitor  --expected 10000 --present 9000 [--alpha 0.01] [--seed S]
  pet monitor  --tags 2000 [--updates 8] [--window 4] [--rounds 32]
               [--alarm-fraction 0.5] [--churn-rate 20] [--burst-at K --burst-size B]
               [--addr HOST:PORT] [--seed S]   (streaming estimation loop)
  pet tree     --tags 4 [--height 4] [--path 0011] [--seed S]
  pet trace    --tags 16 [--height 6] [--rounds 2] [--linear] [--seed S]
  pet info     [--epsilon 0.05] [--delta 0.01]
  pet lane     (report detected/active SIMD lane; PET_FORCE_LANE=scalar|avx2 overrides)
  pet telemetry --file events.jsonl
  pet serve    [--addr 127.0.0.1:7878] [--workers 4] [--queue 64]
               [--deterministic] [--deadline-ms D] [--addr-file path]
               (--workers sharded event loops; an idle shard uses no CPU)
  pet loadgen  (--addr HOST:PORT | --local)
               [--requests 10000] [--connections 8] [--threads 8] [--pipeline 1]
               [--tags 200] [--rounds 4] [--verify-deterministic] [--ledger path]
  pet fleet    (--spawn N | --agents H:P,...)
               [--tags 10000] [--zones Z] [--phy gen2]
               [--coverage 0,1;1,2;...] [--deploy-seed 7] [--rounds 64] [--seed 42]
               [--quorum 1] [--deadline-ms 2000] [--dead-after 2] [--miss P]
               [--kill R@ROUND,...] [--stall R@ROUND:MS,...] [--drop R@ROUND,...]
               [--restore R@ROUND,...] [--shutdown-agents] [--ledger path]
  pet bench record  (--suite kernel [--quick] [--best-of 3] | --criterion-dir DIR)
               [--ledger results/ledger.jsonl] [--commit C] [--source LABEL]
  pet bench report  [--ledger results/ledger.jsonl] [--out results]
  pet bench gate    --baseline <file|git-ref> [--threshold 10%]
               [--pin bench[:prefix]:metric,...] [--verdict path]
               [--ledger results/ledger.jsonl]   (exit 1 on regression)
(every command also accepts --telemetry <path.jsonl> to stream pet-obs events)";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn accuracy_from(args: &Args) -> Result<Accuracy, ArgError> {
    let epsilon: f64 = args.get_or("epsilon", 0.05)?;
    let delta: f64 = args.get_or("delta", 0.01)?;
    Accuracy::new(epsilon, delta).map_err(|e| ArgError(e.to_string()))
}

fn run(argv: &[String]) -> Result<(), ArgError> {
    // `pet bench <action> [--flags]` carries an action word the flat
    // grammar would reject as a positional; re-parse everything after
    // `bench` so the action becomes the command.
    if argv.first().map(String::as_str) == Some("bench") {
        let args = Args::parse(argv[1..].iter().cloned())?;
        let _telemetry = TelemetryGuard::from_args(&args)?;
        return bench::cmd_bench(&args);
    }
    let args = Args::parse(argv.iter().cloned())?;
    let _telemetry = TelemetryGuard::from_args(&args)?;
    match args.command.as_str() {
        "estimate" => cmd_estimate(&args),
        "robustness" => cmd_robustness(&args),
        "identify" => cmd_identify(&args),
        "compare" => cmd_compare(&args),
        "monitor" => cmd_monitor(&args),
        "tree" => cmd_tree(&args),
        "trace" => cmd_trace(&args),
        "info" => cmd_info(&args),
        "lane" => cmd_lane(&args),
        "telemetry" => cmd_telemetry(&args),
        "serve" => serve::cmd_serve(&args),
        "loadgen" => serve::cmd_loadgen(&args),
        "fleet" => fleet::cmd_fleet(&args),
        other => Err(ArgError(format!("unknown command {other:?}"))),
    }
}

/// Installs the JSONL telemetry sink for the lifetime of one command when
/// `--telemetry <path.jsonl>` is given, and flushes it on the way out (both
/// success and error paths).
struct TelemetryGuard {
    installed: bool,
}

impl TelemetryGuard {
    fn from_args(args: &Args) -> Result<Self, ArgError> {
        let Some(path) = args.get("telemetry")? else {
            return Ok(Self { installed: false });
        };
        let sink = pet_obs::JsonlSink::create(path)
            .map_err(|e| ArgError(format!("--telemetry {path}: {e}")))?;
        pet_obs::install(std::sync::Arc::new(sink));
        Ok(Self { installed: true })
    }
}

impl Drop for TelemetryGuard {
    fn drop(&mut self) {
        if self.installed {
            pet_obs::shutdown();
        }
    }
}

/// `pet telemetry --file events.jsonl`: parse a JSONL event stream written
/// by `--telemetry` back into an aggregate report.
fn cmd_telemetry(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&["file"])?;
    let path: String = args.require("file")?;
    let text =
        std::fs::read_to_string(&path).map_err(|e| ArgError(format!("--file {path}: {e}")))?;
    let mut summary = pet_obs::Summary::default();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event = pet_obs::Event::parse_jsonl(line)
            .map_err(|e| ArgError(format!("{path}:{}: {e}", i + 1)))?;
        summary.accumulate(&event);
    }
    print!("{}", summary.render());
    Ok(())
}

/// Builds the channel model from `--miss` / `--false-busy` (both default 0,
/// which selects the perfect channel the paper assumes).
fn channel_from(args: &Args) -> Result<ChannelModel, ArgError> {
    let miss: f64 = args.get_or("miss", 0.0)?;
    let false_busy: f64 = args.get_or("false-busy", 0.0)?;
    if miss == 0.0 && false_busy == 0.0 {
        return Ok(ChannelModel::Perfect);
    }
    LossyChannel::new(miss, false_busy)
        .map(ChannelModel::Lossy)
        .map_err(|e| ArgError(e.to_string()))
}

/// Builds the mitigation from `--probes R` (slot-level re-probe) or
/// `--trim K` (aggregation-level trimmed mean); the two are exclusive.
fn mitigation_from(args: &Args) -> Result<Mitigation, ArgError> {
    match (args.get("probes")?, args.get("trim")?) {
        (Some(_), Some(_)) => Err(ArgError(
            "--probes and --trim are mutually exclusive mitigations".into(),
        )),
        (Some(raw), None) => raw
            .parse()
            .map(|probes| Mitigation::ReProbe { probes })
            .map_err(|_| ArgError(format!("--probes: cannot parse {raw:?}"))),
        (None, Some(raw)) => raw
            .parse()
            .map(|trim| Mitigation::TrimmedMean { trim })
            .map_err(|_| ArgError(format!("--trim: cannot parse {raw:?}"))),
        (None, None) => Ok(Mitigation::None),
    }
}

fn cmd_estimate(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&[
        "tags",
        "epsilon",
        "delta",
        "protocol",
        "linear",
        "adaptive",
        "rounds",
        "seed",
        "miss",
        "false-busy",
        "probes",
        "trim",
        "phy",
        "telemetry",
    ])?;
    let n: usize = args.require("tags")?;
    let accuracy = accuracy_from(args)?;
    let seed: u64 = args.get_or("seed", 0xD0C5)?;
    let protocol = args.get("protocol")?.unwrap_or("pet");
    let channel = channel_from(args)?;
    let mitigation = mitigation_from(args)?;
    let phy = phy_from(args)?;
    let mut rng = StdRng::seed_from_u64(seed);
    let keys: Vec<u64> = (0..n as u64).collect();

    if protocol == "pet" {
        let config = PetConfig::builder()
            .accuracy(accuracy)
            .search(if args.switch("linear") {
                SearchStrategy::Linear
            } else {
                SearchStrategy::Binary
            })
            .channel(channel)
            .mitigation(mitigation)
            .phy(phy)
            .build()
            .map_err(|e| ArgError(e.to_string()))?;
        if args.switch("adaptive") && args.get("rounds")?.is_some() {
            return Err(ArgError(
                "--adaptive and --rounds are mutually exclusive (adaptive runs pick their own \
                 round count)"
                    .into(),
            ));
        }
        let estimator = Estimator::with_family(config, pet_hash_family());
        let report = if args.switch("adaptive") {
            let mut oracle = CodeRoster::new(&keys, &config, estimator.family());
            let mut air = Air::new(channel);
            estimator.run_adaptive(&mut oracle, &mut air, &mut rng)
        } else {
            // The one front door: the kernel produces reports bit-for-bit
            // equal to the oracle reader's.
            let rounds = match args.get("rounds")? {
                Some(raw) => raw
                    .parse()
                    .map_err(|_| ArgError("--rounds: not an integer".into()))?,
                None => config.rounds(),
            };
            estimator
                .try_estimate_keys_rounds(&keys, rounds, &mut rng)
                .map_err(|e| ArgError(e.to_string()))?
        };
        println!("protocol      : PET (H = {})", config.height());
        println!("estimate      : {:.0}   (true: {n})", report.estimate);
        println!(
            "relative error: {:+.2}%",
            (report.estimate / n as f64 - 1.0) * 100.0
        );
        println!("rounds        : {}", report.rounds);
        print_costs(&report.metrics);
        if let Some(phy) = report.phy {
            print_phy(&phy);
        }
        return Ok(());
    }

    let estimator: Box<dyn CardinalityEstimator> = match protocol {
        "fneb" => Box::new(Fneb::paper_default()),
        "lof" => Box::new(Lof::paper_default()),
        "ezb" => Box::new(Ezb::paper_default()),
        "fsa" => Box::new(Fsa::gen2_default()),
        other => {
            return Err(ArgError(format!(
                "unknown protocol {other:?} (pet|fneb|lof|ezb|fsa)"
            )))
        }
    };
    if mitigation != Mitigation::None {
        return Err(ArgError(
            "--probes/--trim mitigations apply to --protocol pet only".into(),
        ));
    }
    let mut air = Air::new(channel);
    let est = if let Some(rounds) = args.get("rounds")? {
        let rounds: u32 = rounds
            .parse()
            .map_err(|_| ArgError("--rounds: not an integer".into()))?;
        estimator.estimate_rounds(&keys, rounds, &mut air, &mut rng)
    } else {
        estimator.estimate(&keys, &accuracy, &mut air, &mut rng)
    };
    println!("protocol      : {}", estimator.name());
    println!("estimate      : {:.0}   (true: {n})", est.estimate);
    println!(
        "relative error: {:+.2}%",
        (est.estimate / n as f64 - 1.0) * 100.0
    );
    println!("rounds        : {}", est.rounds);
    print_costs(&est.metrics);
    if let Some(profile) = phy {
        print_phy(&profile.report(&est.metrics));
    }
    Ok(())
}

/// `pet robustness`: sweep accuracy vs channel-fault rates (unmitigated vs
/// re-probed), print the table, and write
/// `robustness.csv` plus `svg/robustness.svg` under `--out`.
fn cmd_robustness(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&[
        "tags",
        "rounds",
        "runs",
        "seed",
        "miss",
        "false-busy",
        "probes",
        "out",
        "telemetry",
    ])?;
    let defaults = robustness::RobustnessParams::default();
    let miss_rates = match args.get("miss")? {
        None => defaults.miss_rates.clone(),
        Some(raw) => raw
            .split(',')
            .map(|tok| {
                tok.trim()
                    .parse::<f64>()
                    .map_err(|_| ArgError(format!("--miss: cannot parse {tok:?}")))
            })
            .collect::<Result<Vec<f64>, ArgError>>()?,
    };
    let params = robustness::RobustnessParams {
        n: args.get_or("tags", defaults.n)?,
        rounds: args.get_or("rounds", defaults.rounds)?,
        runs: args.get_or("runs", defaults.runs)?,
        seed: args.get_or("seed", defaults.seed)?,
        miss_rates,
        false_busy: args.get_or("false-busy", defaults.false_busy)?,
        probes: args.get_or("probes", defaults.probes)?,
    };
    let out: String = args.get("out")?.unwrap_or("target/robustness").to_string();
    let out_dir = std::path::Path::new(&out);
    std::fs::create_dir_all(out_dir).map_err(|e| ArgError(format!("--out {out}: {e}")))?;
    let rows = robustness::sweep(&params);
    pet_bench::report_robustness(&rows, out_dir).map_err(|e| ArgError(e.to_string()))?;
    pet_bench::figures::robustness(&rows, out_dir).map_err(|e| ArgError(e.to_string()))?;
    println!(
        "\nwrote {} and {}",
        out_dir.join("robustness.csv").display(),
        out_dir.join("svg").join("robustness.svg").display()
    );
    Ok(())
}

fn cmd_identify(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&["tags", "protocol", "seed", "telemetry"])?;
    let n: usize = args.require("tags")?;
    let seed: u64 = args.get_or("seed", 0x1DE)?;
    let keys: Vec<u64> = (0..n as u64).collect();
    let protocol: Box<dyn IdentificationProtocol> =
        match args.get("protocol")?.unwrap_or("treewalk") {
            "aloha" => Box::new(FramedAloha::unbounded()),
            "treewalk" => Box::new(TreeWalk::new()),
            other => {
                return Err(ArgError(format!(
                    "unknown protocol {other:?} (aloha|treewalk)"
                )))
            }
        };
    let mut air = Air::new(ChannelModel::Perfect);
    let mut rng = StdRng::seed_from_u64(seed);
    let report = protocol.identify(&keys, &mut air, &mut rng);
    println!("protocol   : {}", protocol.name());
    println!("identified : {} of {n}", report.identified);
    print_costs(&report.metrics);
    println!(
        "slots/tag  : {:.2}  (identification is Θ(n); try `pet compare`)",
        report.metrics.slots as f64 / n.max(1) as f64
    );
    Ok(())
}

fn cmd_compare(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&["tags", "epsilon", "delta", "seed", "telemetry"])?;
    let n: usize = args.require("tags")?;
    let accuracy = accuracy_from(args)?;
    let seed: u64 = args.get_or("seed", 0xC0)?;
    let keys: Vec<u64> = (0..n as u64).collect();
    let protocols: Vec<Box<dyn CardinalityEstimator>> = vec![
        Box::new(PetAdapter::paper_default()),
        Box::new(Fneb::paper_default()),
        Box::new(Lof::paper_default()),
    ];
    println!(
        "{:<8} {:>8} {:>12} {:>12} {:>9} {:>14}",
        "protocol", "rounds", "slots", "estimate", "err %", "air time"
    );
    for p in &protocols {
        let mut air = Air::new(ChannelModel::Perfect);
        let mut rng = StdRng::seed_from_u64(seed);
        let est = p.estimate(&keys, &accuracy, &mut air, &mut rng);
        println!(
            "{:<8} {:>8} {:>12} {:>12.0} {:>8.2}% {:>12.2} s",
            p.name(),
            est.rounds,
            est.metrics.slots,
            est.estimate,
            (est.estimate / n as f64 - 1.0) * 100.0,
            TimeModel::gen2().elapsed(&est.metrics).as_secs_f64()
        );
    }
    Ok(())
}

fn cmd_monitor(args: &Args) -> Result<(), ArgError> {
    // Two modes share the verb: the one-shot audit (--expected/--present:
    // one estimate judged by the reference test) and the streaming
    // estimation loop (--tags ..., `pet-core::monitor`), local or against
    // a running server (--addr).
    if args.get("tags")?.is_some() || args.get("addr")?.is_some() {
        return cmd_monitor_stream(args);
    }
    args.expect_only(&["expected", "present", "alpha", "seed", "telemetry"])?;
    let expected: u64 = args.require("expected")?;
    let present: usize = args.require("present")?;
    let alpha: f64 = args.get_or("alpha", 0.01)?;
    let seed: u64 = args.get_or("seed", 0x40)?;
    if expected == 0 {
        return Err(ArgError("expected inventory must be positive".into()));
    }
    if !(alpha > 0.0 && alpha <= 0.5) {
        return Err(ArgError("false-alarm rate must lie in (0, 0.5]".into()));
    }
    let config = PetConfig::paper_default();
    let test = ReferenceTest::new(expected as f64, config.height())
        .expect("a positive inventory is a valid reference");
    let mut rng = StdRng::seed_from_u64(seed);
    let report = Estimator::new(config).estimate_population(
        &pet_tags::population::TagPopulation::sequential(present),
        &mut rng,
    );
    let p_value = test.p_value(report.mean_prefix_len, report.rounds);
    println!("book inventory : {expected}");
    println!("estimate       : {:.0}", report.estimate);
    println!(
        "missing (est.) : {:.1}%",
        (1.0 - report.estimate / expected as f64).max(0.0) * 100.0
    );
    println!("p-value        : {p_value:.4}");
    println!(
        "verdict        : {}",
        if p_value < alpha {
            "ALARM — tags are missing"
        } else {
            "consistent with full inventory"
        }
    );
    println!(
        "(smallest deficit detectable with 95% power at this budget: {:.1}%)",
        detectable_fraction(config.rounds(), alpha, 0.95) * 100.0
    );
    Ok(())
}

/// The streaming monitor mode: `updates` periodic re-estimates of a
/// churning population, one line per update, with sliding-window
/// smoothing and the missing-tag alarm. Runs in-process by default;
/// `--addr` subscribes to a running server's `monitor` verb instead and
/// prints the raw delta stream.
fn cmd_monitor_stream(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&[
        "tags",
        "updates",
        "window",
        "rounds",
        "alarm-fraction",
        "churn-rate",
        "burst-at",
        "burst-size",
        "seed",
        "addr",
        "telemetry",
    ])?;
    let tags: usize = args.require("tags")?;
    let updates: usize = args.get_or("updates", 8)?;
    let window: usize = args.get_or("window", 4)?;
    let rounds: u32 = args.get_or("rounds", 32)?;
    let alarm_fraction: f64 = args.get_or("alarm-fraction", 0.5)?;
    let churn_rate: usize = args.get_or("churn-rate", 0)?;
    let burst_at: Option<usize> = match args.get("burst-at")? {
        Some(_) => Some(args.require("burst-at")?),
        None => None,
    };
    let burst_size: usize = args.get_or("burst-size", 0)?;
    let seed: u64 = args.get_or("seed", 0x40)?;

    if let Some(addr) = args.get("addr")? {
        let mut client =
            pet_server::Client::connect(addr).map_err(|e| ArgError(format!("{addr}: {e}")))?;
        client
            .set_read_timeout(Some(std::time::Duration::from_secs(120)))
            .map_err(|e| ArgError(e.to_string()))?;
        let burst = burst_at.map_or(String::new(), |b| {
            format!(",\"burst_at\":{b},\"burst_size\":{burst_size}")
        });
        let line = format!(
            "{{\"id\":\"cli\",\"verb\":\"monitor\",\"tags\":{tags},\"updates\":{updates},\
             \"window\":{window},\"rounds\":{rounds},\"alarm_fraction\":{alarm_fraction},\
             \"churn_rate\":{churn_rate},\"seed\":\"{seed:x}\"{burst}}}"
        );
        client.send(&line).map_err(|e| ArgError(e.to_string()))?;
        for _ in 0..=updates {
            let reply = client.recv().map_err(|e| ArgError(e.to_string()))?;
            if reply.contains("\"ok\":false") {
                return Err(ArgError(format!("server refused: {reply}")));
            }
            println!("{reply}");
        }
        return Ok(());
    }

    let monitor_config = pet_core::monitor::MonitorConfig {
        config: PetConfig::paper_default(),
        rounds,
        window,
        alarm_fraction,
        reference: None,
        base_seed: seed,
    };
    let monitor =
        pet_core::monitor::Monitor::new(monitor_config).map_err(|e| ArgError(e.to_string()))?;
    let schedule = ChurnSchedule {
        rate: churn_rate,
        burst_at,
        burst_size,
    };
    // The server's `monitor` verb applies the same rules.
    schedule.validate(tags, updates).map_err(|e| {
        ArgError(
            match e {
                ChurnError::RateAboveTags => "--churn-rate must be <= --tags",
                ChurnError::BurstAfterRun => "--burst-at must be < --updates",
                ChurnError::BadBurstSize => "--burst-size must be 1..--tags with --burst-at",
                ChurnError::RateAboveBurstSurvivors => {
                    "--churn-rate must be <= --tags - --burst-size when an update follows --burst-at"
                }
            }
            .into(),
        )
    })?;
    let mut stream = RosterCache::global().sequential_stream(tags, monitor, schedule);
    println!(
        "{:>7} {:>10} {:>12} {:>12} {:>10} {:>8}",
        "update", "truth", "estimate", "windowed", "delta", "alarm"
    );
    for _ in 0..updates {
        let u = stream.next_update().map_err(|e| ArgError(e.to_string()))?;
        println!(
            "{:>7} {:>10} {:>12.0} {:>12.0} {:>+10.0} {:>8}",
            u.index,
            stream.population(),
            u.estimate,
            u.windowed,
            u.delta,
            if u.alarm { "ALARM" } else { "-" }
        );
    }
    if let Some(reference) = stream.monitor().reference() {
        println!(
            "(reference {reference:.0}, alarm below {:.0}; window {window}, {rounds} rounds/update)",
            alarm_fraction * reference
        );
    }
    Ok(())
}

fn cmd_tree(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&["tags", "height", "path", "seed", "telemetry"])?;
    let n: usize = args.require("tags")?;
    let height: u32 = args.get_or("height", 4)?;
    if !(1..=6).contains(&height) {
        return Err(ArgError("--height must be 1..=6 for rendering".into()));
    }
    let seed: u64 = args.get_or("seed", 0x7EE)?;
    let config = PetConfig::builder()
        .height(height)
        .manufacture_seed(seed)
        .build()
        .map_err(|e| ArgError(e.to_string()))?;
    let keys: Vec<u64> = (0..n as u64).collect();
    let roster = CodeRoster::new(&keys, &config, pet_hash_family());
    let codes: Vec<BitString> = roster
        .codes()
        .iter()
        .map(|&c| BitString::from_bits(c, height).expect("in range"))
        .collect();
    let tree = Tree::build(&codes, height);
    let path = match args.get("path")? {
        Some(bits) => {
            let v = u64::from_str_radix(bits, 2)
                .map_err(|_| ArgError("--path must be a binary string".into()))?;
            if bits.len() != height as usize {
                return Err(ArgError(format!("--path must have exactly {height} bits")));
            }
            Some(BitString::from_bits(v, height).map_err(|e| ArgError(e.to_string()))?)
        }
        None => None,
    };
    println!(
        "PET over {n} tags, H = {height} (● black, · white{})",
        if path.is_some() {
            ", ◐ gray node, [x] estimating path"
        } else {
            ""
        }
    );
    print!("{}", tree.render(path.as_ref()));
    if let Some(p) = &path {
        if let Some(gray) = tree.gray_node(p) {
            println!(
                "gray node at depth {} (height {}): single-round estimate {:.1}",
                gray.prefix_len,
                gray.height,
                pet_stats::gray::estimate_from_mean_prefix(f64::from(gray.prefix_len))
            );
        }
    }
    Ok(())
}

fn cmd_trace(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&["tags", "height", "rounds", "linear", "seed", "telemetry"])?;
    let n: usize = args.require("tags")?;
    let height: u32 = args.get_or("height", 6)?;
    let rounds: u32 = args.get_or("rounds", 2)?;
    let seed: u64 = args.get_or("seed", 0x7ACE)?;
    let config = PetConfig::builder()
        .height(height)
        .search(if args.switch("linear") {
            SearchStrategy::Linear
        } else {
            SearchStrategy::Binary
        })
        .manufacture_seed(seed)
        .build()
        .map_err(|e| ArgError(e.to_string()))?;
    let keys: Vec<u64> = (0..n as u64).collect();
    let mut oracle = CodeRoster::new(&keys, &config, pet_hash_family());
    let mut air = Air::new(ChannelModel::Perfect).with_transcript(4096);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut estimator = pet_core::estimator::PetEstimator::new(height);
    println!(
        "PET protocol trace — {n} tags, H = {height}, {} search\n",
        if args.switch("linear") {
            "linear"
        } else {
            "binary"
        }
    );
    let mut slot_base = 0usize;
    for round in 0..rounds {
        let record = pet_core::reader::run_round(&config, &mut oracle, &mut air, &mut rng);
        estimator.push(record);
        let transcript = air.transcript().expect("transcript enabled");
        println!("round {round}:");
        for (i, rec) in transcript.records().iter().enumerate().skip(slot_base) {
            println!(
                "  slot {:>2}: {:>3} responder(s) → {}",
                i - slot_base,
                rec.responders,
                rec.outcome
            );
        }
        slot_base = transcript.len();
        println!(
            "  → L = {} (gray node height {}), {} slots{}",
            record.prefix_len,
            record.gray_height,
            record.slots,
            if record.disambiguated {
                ", disambiguation slot used"
            } else {
                ""
            }
        );
    }
    println!(
        "\nrunning estimate after {} round(s): {:.1}",
        estimator.rounds(),
        estimator.estimate()
    );
    Ok(())
}

fn cmd_info(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&["epsilon", "delta", "telemetry"])?;
    let accuracy = accuracy_from(args)?;
    println!("PET constants (paper §4.2):");
    println!("  φ    = e^γ/√2          = {PHI:.5}");
    println!("  σ(h) = √(π²/6ln²2+1/12) = {SIGMA_H:.5}");
    println!(
        "requirement ±{:.0}% at {:.0}% confidence:",
        accuracy.epsilon() * 100.0,
        (1.0 - accuracy.delta()) * 100.0
    );
    println!("  quantile c    = {:.4}", accuracy.quantile());
    println!("  PET rounds m  = {} (Eq. 20)", accuracy.pet_rounds());
    println!(
        "  PET slots     = {} (5 per round at H = 32)",
        accuracy.pet_rounds() * 5
    );
    Ok(())
}

/// `pet lane`: report which SIMD lane the bulk hashing kernels run on.
/// `detected` is the raw CPU capability; `active` additionally honors a
/// `PET_FORCE_LANE` override. CI greps this output to catch a build that
/// silently falls back to scalar on an AVX2-capable host.
fn cmd_lane(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&["telemetry"])?;
    println!("detected: {}", pet_hash::simd::detected_lane().as_str());
    println!("active  : {}", pet_hash::simd::active_lane().as_str());
    match std::env::var("PET_FORCE_LANE") {
        Ok(v) => println!("forced  : {v} (via PET_FORCE_LANE)"),
        Err(_) => println!("forced  : none"),
    }
    Ok(())
}

/// Parses `--phy NAME` into a profile, `None` when the flag is absent.
fn phy_from(args: &Args) -> Result<Option<PhyProfile>, ArgError> {
    match args.get("phy")? {
        None => Ok(None),
        Some(name) => PhyProfile::named(name)
            .map(Some)
            .ok_or_else(|| ArgError(format!("unknown PHY profile {name:?} (gen2)"))),
    }
}

fn print_phy(r: &pet_phy::PhyReport) {
    println!(
        "phy wall time : {:.1} ms   energy: {:.0} µJ (reader TX {:.0} / RX {:.0} / tags {:.0})",
        r.wall_ms, r.energy_uj, r.reader_tx_uj, r.reader_rx_uj, r.tag_uj
    );
}

fn print_costs(m: &pet_phy::AirMetrics) {
    println!(
        "air cost      : {} slots ({} idle / {} singleton / {} collision)",
        m.slots, m.idle, m.singleton, m.collision
    );
    println!(
        "command bits  : {}   tag responses: {}",
        m.command_bits, m.tag_responses
    );
    println!(
        "est. air time : {:.2} s (Gen2 model)",
        TimeModel::gen2().elapsed(m).as_secs_f64()
    );
}

fn pet_hash_family() -> pet_hash::family::AnyFamily {
    pet_hash::family::AnyFamily::default()
}

#[cfg(test)]
mod cli_tests {
    use super::run;

    fn exec(tokens: &[&str]) -> Result<(), super::ArgError> {
        let argv: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
        run(&argv)
    }

    #[test]
    fn estimate_all_protocols() {
        for proto in ["pet", "fneb", "lof", "ezb", "fsa"] {
            exec(&[
                "estimate",
                "--tags",
                "500",
                "--protocol",
                proto,
                "--rounds",
                "16",
                "--seed",
                "1",
            ])
            .unwrap_or_else(|e| panic!("{proto}: {e}"));
        }
    }

    #[test]
    fn estimate_phy_profile() {
        // Every protocol accepts the profile; PET threads it through the
        // config, baselines fold it over their metrics.
        for proto in ["pet", "fsa"] {
            exec(&[
                "estimate",
                "--tags",
                "300",
                "--protocol",
                proto,
                "--rounds",
                "8",
                "--phy",
                "gen2",
            ])
            .unwrap_or_else(|e| panic!("{proto}: {e}"));
        }
        assert!(exec(&["estimate", "--tags", "300", "--phy", "lte"]).is_err());
    }

    #[test]
    fn estimate_variants() {
        exec(&["estimate", "--tags", "300", "--linear", "--rounds", "8"]).unwrap();
        exec(&[
            "estimate",
            "--tags",
            "300",
            "--adaptive",
            "--epsilon",
            "0.3",
            "--delta",
            "0.3",
        ])
        .unwrap();
    }

    #[test]
    fn identify_both_protocols() {
        exec(&["identify", "--tags", "200", "--protocol", "aloha"]).unwrap();
        exec(&["identify", "--tags", "200", "--protocol", "treewalk"]).unwrap();
        exec(&["identify", "--tags", "0"]).unwrap();
    }

    #[test]
    fn compare_monitor_tree_trace_info() {
        exec(&[
            "compare",
            "--tags",
            "1000",
            "--epsilon",
            "0.3",
            "--delta",
            "0.3",
        ])
        .unwrap();
        exec(&[
            "monitor",
            "--expected",
            "500",
            "--present",
            "400",
            "--alpha",
            "0.05",
        ])
        .unwrap();
        exec(&["tree", "--tags", "4", "--path", "0011"]).unwrap();
        exec(&["tree", "--tags", "8", "--height", "5"]).unwrap();
        exec(&["trace", "--tags", "16", "--height", "6", "--rounds", "2"]).unwrap();
        exec(&[
            "trace", "--tags", "16", "--height", "6", "--linear", "--rounds", "1",
        ])
        .unwrap();
        exec(&["info"]).unwrap();
        exec(&["info", "--epsilon", "0.1", "--delta", "0.1"]).unwrap();
        exec(&["lane"]).unwrap();
        assert!(
            exec(&["lane", "--tags", "4"]).is_err(),
            "lane takes no flags"
        );
    }

    /// The streaming monitor mode: `--tags` routes to the windowed
    /// estimation loop while the legacy `--expected/--present` z-test path
    /// keeps working (pinned in `compare_monitor_tree_trace_info`).
    #[test]
    fn monitor_streaming_mode() {
        exec(&[
            "monitor",
            "--tags",
            "400",
            "--updates",
            "5",
            "--window",
            "2",
            "--rounds",
            "8",
            "--churn-rate",
            "3",
            "--burst-at",
            "3",
            "--burst-size",
            "250",
            "--seed",
            "7",
        ])
        .unwrap();
        // Mixing the two modes is a flag error, not a silent fallback.
        assert!(exec(&["monitor", "--tags", "400", "--expected", "500"]).is_err());
        // Stream-mode validation comes from pet-core: window > updates
        // still builds (window caps the fold), but zero rounds must fail.
        assert!(exec(&["monitor", "--tags", "400", "--rounds", "0"]).is_err());
    }

    /// One end-to-end telemetry loop: stream a run to JSONL, read it back
    /// with the `telemetry` command, and check the events parse into the
    /// expected aggregates. Single test — the pet-obs sink handle is
    /// process-global.
    #[test]
    fn telemetry_round_trips_through_jsonl() {
        let path = std::env::temp_dir().join(format!("pet-cli-tel-{}.jsonl", std::process::id()));
        let path_str = path.to_str().expect("utf-8 temp path");
        exec(&[
            "estimate",
            "--tags",
            "400",
            "--rounds",
            "16",
            "--seed",
            "3",
            "--telemetry",
            path_str,
        ])
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut summary = pet_obs::Summary::default();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            summary.accumulate(&pet_obs::Event::parse_jsonl(line).unwrap());
        }
        // `>=`: the sink is process-global, so concurrently running CLI
        // tests may stream extra rounds into the same file.
        assert!(summary.counter("core.rounds") >= 16);
        assert!(summary.counter("core.round.slots") >= 16 * 5);
        assert!(
            summary.span_stats("core.round").is_some(),
            "round spans present"
        );
        // The summarize command accepts the same file.
        exec(&["telemetry", "--file", path_str]).unwrap();
        assert!(exec(&["telemetry", "--file", "/nonexistent/x.jsonl"]).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn estimate_lossy_channel_and_mitigations() {
        exec(&[
            "estimate", "--tags", "300", "--rounds", "16", "--miss", "0.05", "--probes", "2",
        ])
        .unwrap();
        exec(&[
            "estimate",
            "--tags",
            "300",
            "--rounds",
            "16",
            "--miss",
            "0.03",
            "--false-busy",
            "0.01",
            "--trim",
            "2",
        ])
        .unwrap();
        // Baselines run over the lossy channel too, but mitigations are
        // PET-specific.
        exec(&[
            "estimate",
            "--tags",
            "300",
            "--rounds",
            "8",
            "--protocol",
            "lof",
            "--miss",
            "0.05",
        ])
        .unwrap();
        assert!(exec(&[
            "estimate",
            "--tags",
            "300",
            "--protocol",
            "lof",
            "--probes",
            "1",
        ])
        .is_err());
        assert!(
            exec(&["estimate", "--tags", "300", "--probes", "1", "--trim", "2"]).is_err(),
            "exclusive mitigations"
        );
        assert!(
            exec(&["estimate", "--tags", "300", "--miss", "1.5"]).is_err(),
            "probability range"
        );
    }

    #[test]
    fn robustness_sweep_writes_csv_and_svg() {
        let out = std::env::temp_dir().join(format!("pet-cli-rob-{}", std::process::id()));
        let out_str = out.to_str().expect("utf-8 temp path");
        exec(&[
            "robustness",
            "--tags",
            "400",
            "--rounds",
            "12",
            "--runs",
            "4",
            "--miss",
            "0,0.1",
            "--out",
            out_str,
        ])
        .unwrap();
        let csv = std::fs::read_to_string(out.join("robustness.csv")).unwrap();
        assert!(csv.starts_with("miss,false_busy,mitigated"));
        assert_eq!(csv.lines().count(), 1 + 4, "2 miss rates × 2 variants");
        let svg = std::fs::read_to_string(out.join("svg").join("robustness.svg")).unwrap();
        assert!(svg.contains("re-probed"));
        assert!(exec(&["robustness", "--miss", "nope", "--out", out_str]).is_err());
        std::fs::remove_dir_all(&out).ok();
    }

    /// Closed-loop load against an in-process server: every reply
    /// validated, digests compared across two runs, non-zero exit when
    /// anything is lost or malformed.
    #[test]
    fn loadgen_local_verifies_determinism() {
        exec(&[
            "loadgen",
            "--local",
            "--requests",
            "300",
            "--connections",
            "4",
            "--threads",
            "4",
            "--pipeline",
            "4",
            "--tags",
            "150",
            "--rounds",
            "4",
            "--verify-deterministic",
        ])
        .unwrap();
        assert!(exec(&["loadgen"]).is_err(), "needs --addr or --local");
        assert!(exec(&["loadgen", "--local", "--requests", "0"]).is_err());
        assert!(exec(&["loadgen", "--local", "--pipeline", "0"]).is_err());
        assert!(
            exec(&["loadgen", "--local", "--backend", "evented"]).is_err(),
            "there is one transport and no --backend flag"
        );
        assert!(exec(&["loadgen", "--local", "--addr", "127.0.0.1:1"]).is_err());
        assert!(exec(&["loadgen", "--addr", "not-an-addr"]).is_err());
    }

    /// `pet serve` blocks until the shutdown verb, publishing its
    /// ephemeral port through --addr-file.
    #[test]
    fn serve_evented_runs_until_shutdown_verb() {
        let path = std::env::temp_dir().join(format!("pet-cli-addr-{}.txt", std::process::id()));
        let path_str = path.to_str().expect("utf-8 temp path").to_string();
        let argv: Vec<String> = [
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--deterministic",
            "--workers",
            "2",
            "--addr-file",
            &path_str,
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        let server = std::thread::spawn(move || super::run(&argv));

        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&path) {
                if let Ok(addr) = text.trim().parse::<std::net::SocketAddr>() {
                    break addr;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "addr file never appeared"
            );
            std::thread::sleep(std::time::Duration::from_millis(10));
        };

        let mut client = pet_server::Client::connect(addr).unwrap();
        client
            .set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .unwrap();
        let reply = client
            .roundtrip(r#"{"id":"r1","verb":"estimate","tags":300,"rounds":4}"#)
            .unwrap();
        assert!(reply.contains("\"ok\":true"), "{reply}");
        let ack = client
            .roundtrip(r#"{"id":"bye","verb":"shutdown"}"#)
            .unwrap();
        assert!(ack.contains("\"drained\":true"), "{ack}");
        server
            .join()
            .expect("serve thread")
            .expect("serve exits ok");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn errors_surface_cleanly() {
        assert!(exec(&["bogus"]).is_err());
        assert!(exec(&["estimate"]).is_err(), "missing --tags");
        assert!(
            exec(&["estimate", "--tags", "10", "--telemetry"]).is_err(),
            "bare --telemetry must not write a file named `true`"
        );
        assert!(exec(&["estimate", "--tags", "10", "--frobnicate"]).is_err());
        assert!(exec(&["estimate", "--tags", "10", "--protocol", "upx"]).is_err());
        assert!(
            exec(&["estimate", "--tags", "10", "--adaptive", "--rounds", "100"]).is_err(),
            "--rounds cannot bound an adaptive run"
        );
        assert!(exec(&["tree", "--tags", "4", "--height", "9"]).is_err());
        assert!(
            exec(&["tree", "--tags", "4", "--path", "01"]).is_err(),
            "path width"
        );
        assert!(exec(&["monitor", "--expected", "0", "--present", "1"]).is_err());
    }
}
