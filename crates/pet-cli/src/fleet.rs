//! `pet fleet` — drive a distributed multi-reader estimation from the
//! shell.
//!
//! Agents are either spawned in-process on ephemeral ports (`--spawn N`,
//! the one-machine drill) or addressed remotely (`--agents host:port,…`).
//! Any reader targeted by a fault flag is automatically wrapped in a
//! wire-level fault proxy, so kill/stall/drop drills work against both
//! kinds of agent. The final line prints a deterministic digest of the
//! merged estimate — two runs with the same seeds must print the same
//! digest, which the CI fleet smoke asserts.

use crate::args::{ArgError, Args};
use pet_bench::ledger::{self, LedgerRow};
use pet_core::config::PetConfig;
use pet_fleet::{
    Coordinator, FaultAction, FaultEvent, FaultProxy, FleetConfig, FleetReport, FleetSpec,
    RetryPolicy,
};
use pet_phy::channel::{ChannelModel, LossyChannel};
use pet_server::{serve, ServerConfig, ServerHandle};
use pet_stats::accuracy::Accuracy;
use std::time::Duration;

/// `pet fleet (--spawn N | --agents H:P,…) [--tags 10000] [--zones Z]
/// [--deploy-seed 7] [--coverage 0,1;1,2;…] [--rounds 64] [--seed 42]
/// [--quorum 1] [--deadline-ms 2000] [--dead-after 2] [--miss P]
/// [--kill R@ROUND,…] [--stall R@ROUND:MS,…] [--drop R@ROUND,…]
/// [--restore R@ROUND,…] [--shutdown-agents] [--ledger path]`
///
/// `--ledger` appends the session's `fleet` row (round latency, coverage,
/// estimate) to the ledger at that path.
pub fn cmd_fleet(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&[
        "spawn",
        "agents",
        "tags",
        "zones",
        "deploy-seed",
        "coverage",
        "rounds",
        "seed",
        "epsilon",
        "delta",
        "quorum",
        "deadline-ms",
        "dead-after",
        "miss",
        "kill",
        "stall",
        "drop",
        "restore",
        "shutdown-agents",
        "ledger",
        "phy",
        "telemetry",
    ])?;
    let ledger_path = args.get("ledger")?;

    // --- Fleet shape -------------------------------------------------------
    let spawned: Option<Vec<ServerHandle>> = match (args.get("spawn")?, args.get("agents")?) {
        (Some(_), Some(_)) => return Err(ArgError("--spawn and --agents are exclusive".into())),
        (None, None) => return Err(ArgError("fleet needs --spawn N or --agents H:P,…".into())),
        (Some(_), None) => {
            let n: usize = args.require("spawn")?;
            if n == 0 {
                return Err(ArgError("--spawn must be positive".into()));
            }
            Some(
                (0..n)
                    .map(|_| {
                        serve(&ServerConfig::default())
                            .map_err(|e| ArgError(format!("spawn agent: {e}")))
                    })
                    .collect::<Result<_, _>>()?,
            )
        }
        (None, Some(_)) => None,
    };
    let mut agents: Vec<String> = match (&spawned, args.get("agents")?) {
        (Some(handles), _) => handles.iter().map(|h| h.addr().to_string()).collect(),
        (None, Some(list)) => list
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(String::from)
            .collect(),
        (None, None) => unreachable!("checked above"),
    };
    if agents.is_empty() {
        return Err(ArgError("--agents lists no addresses".into()));
    }
    let readers = agents.len();

    let coverages: Vec<Vec<u32>> = match args.get("coverage")? {
        Some(raw) => parse_coverages(raw)?,
        // Default: one private zone per reader.
        None => (0..readers).map(|i| vec![i as u32]).collect(),
    };
    if coverages.len() != readers {
        return Err(ArgError(format!(
            "--coverage lists {} readers but the fleet has {readers}",
            coverages.len()
        )));
    }
    let max_zone = coverages.iter().flatten().copied().max().unwrap_or(0);
    let zones: u32 = args.get_or("zones", max_zone + 1)?;

    let spec = FleetSpec {
        tags: args.get_or("tags", 10_000)?,
        zones,
        deploy_seed: args.get_or("deploy-seed", 7)?,
        coverages,
    };

    // --- Session config ----------------------------------------------------
    let epsilon: f64 = args.get_or("epsilon", 0.05)?;
    let delta: f64 = args.get_or("delta", 0.01)?;
    let accuracy = Accuracy::new(epsilon, delta).map_err(|e| ArgError(e.to_string()))?;
    let pet = PetConfig::builder()
        .accuracy(accuracy)
        .phy(crate::phy_from(args)?)
        .build()
        .map_err(|e| ArgError(e.to_string()))?;
    let mut config = FleetConfig::new(pet, args.get_or("rounds", 64)?, args.get_or("seed", 42)?);
    config.quorum = args.get_or("quorum", 1)?;
    config.round_deadline = Duration::from_millis(args.get_or("deadline-ms", 2_000)?);
    config.retry = RetryPolicy {
        dead_after: args.get_or("dead-after", RetryPolicy::default().dead_after)?,
        ..RetryPolicy::default()
    };
    let miss: f64 = args.get_or("miss", 0.0)?;
    if miss > 0.0 {
        let lossy = LossyChannel::new(miss, 0.0).map_err(|e| ArgError(e.to_string()))?;
        config.channel = ChannelModel::Lossy(lossy);
    }
    config.faults = parse_faults(args)?;

    // --- Fault proxies for targeted readers --------------------------------
    let mut proxies: Vec<(usize, FaultProxy)> = Vec::new();
    for f in &config.faults {
        if f.reader >= readers {
            return Err(ArgError(format!(
                "fault targets reader {} of a {readers}-reader fleet",
                f.reader
            )));
        }
        if proxies.iter().all(|(i, _)| *i != f.reader) {
            let upstream = agents[f.reader]
                .parse()
                .map_err(|_| ArgError(format!("cannot parse address {:?}", agents[f.reader])))?;
            let proxy =
                FaultProxy::spawn(upstream).map_err(|e| ArgError(format!("fault proxy: {e}")))?;
            agents[f.reader] = proxy.addr().to_string();
            proxies.push((f.reader, proxy));
        }
    }

    // --- Run ---------------------------------------------------------------
    let mut coord =
        Coordinator::new(spec.clone(), config, &agents).map_err(|e| ArgError(e.to_string()))?;
    for (reader, proxy) in &proxies {
        coord.set_control(*reader, proxy.control());
    }
    let outcome = coord.run();

    if args.switch("shutdown-agents") {
        coord.shutdown_agents();
    }
    if let Some(handles) = spawned {
        for h in &handles {
            h.shutdown();
        }
        for h in handles {
            h.join();
        }
    }

    let report = outcome.map_err(|e| ArgError(e.to_string()))?;
    print_fleet_report(&spec, &report);
    if let Some(path) = ledger_path {
        ledger::append(std::path::Path::new(path), &[fleet_row(&spec, &report)?])
            .map_err(|e| ArgError(format!("--ledger {path}: {e}")))?;
        println!("ledger         : {path}");
    }
    Ok(())
}

/// The session's `fleet` ledger row, config `r{readers}/z{zones}/t{tags}`:
/// round latency from the coordinator's `fleet.round` span, effective
/// coverage, the merged estimate and the rounds run.
fn fleet_row(spec: &FleetSpec, r: &FleetReport) -> Result<LedgerRow, ArgError> {
    // A finished session merged at least one round, so it has the span.
    let span = r
        .telemetry
        .span_stats("fleet.round")
        .ok_or_else(|| ArgError("fleet report has no round latency".into()))?;
    let config = format!("r{}/z{}/t{}", spec.reader_count(), spec.zones, spec.tags);
    let mut row = LedgerRow::new("fleet", &config, &ledger::current_commit());
    row.source = "pet:fleet".to_string();
    for (name, value) in [
        ("round_latency_mean_ns", span.mean_nanos()),
        (
            "round_latency_p95_bound_ns",
            span.histogram.quantile_bound(0.95).unwrap_or(0) as f64,
        ),
        (
            "round_latency_max_ns",
            span.histogram.max().unwrap_or(0) as f64,
        ),
        ("effective_coverage", r.effective_coverage),
        ("estimate", r.estimate),
        ("rounds", f64::from(r.rounds)),
    ] {
        row.metric(name, value).map_err(ArgError)?;
    }
    Ok(row.stamped_now())
}

fn print_fleet_report(spec: &FleetSpec, r: &FleetReport) {
    println!(
        "fleet estimate : {:.1} tags ({} readers over {} zones, {} true)",
        r.estimate,
        spec.reader_count(),
        spec.zones,
        spec.tags
    );
    println!(
        "rounds         : {} (full {}, partial {})",
        r.rounds, r.full_rounds, r.partial_rounds
    );
    println!(
        "controller     : {} slots, mean prefix {:.3}",
        r.controller_slots, r.mean_prefix_len
    );
    println!(
        "coverage       : {:.3} effective over {} covered tags{}",
        r.effective_coverage,
        r.covered_tags,
        if r.degraded { "  [DEGRADED]" } else { "" }
    );
    for (i, s) in r.readers.iter().enumerate() {
        println!(
            "reader {i:<2}      : ok {}, missed {}, retries {}{}",
            s.ok_rounds,
            s.missed_rounds,
            s.retries,
            if s.dead { ", DEAD" } else { "" }
        );
    }
    if let Some(span) = r.telemetry.span_stats("fleet.round") {
        println!(
            "round latency  : mean {:.3} ms, p95 ≤ {:.3} ms",
            span.mean_nanos() / 1e6,
            span.histogram.quantile_bound(0.95).unwrap_or(0) as f64 / 1e6
        );
    }
    if let Some(p) = r.phy {
        println!(
            "phy (gen2)     : {:.1} ms on air, {:.0} µJ total ({:.0} µJ on tags)",
            p.wall_ms, p.energy_uj, p.tag_uj
        );
    }
    println!("fleet digest   : {:#018x}", r.digest());
}

/// `0,1;1,2;3` → one zone list per reader.
fn parse_coverages(raw: &str) -> Result<Vec<Vec<u32>>, ArgError> {
    raw.split(';')
        .map(|group| {
            let zones: Result<Vec<u32>, _> = group
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(|z| {
                    z.parse::<u32>()
                        .map_err(|_| ArgError(format!("--coverage: bad zone {z:?}")))
                })
                .collect();
            let zones = zones?;
            if zones.is_empty() {
                return Err(ArgError("--coverage: empty reader group".into()));
            }
            Ok(zones)
        })
        .collect()
}

/// `--kill 2@8,0@12` / `--stall 1@4:5000` / `--drop 1@2` / `--restore 1@6`.
fn parse_faults(args: &Args) -> Result<Vec<FaultEvent>, ArgError> {
    let mut faults = Vec::new();
    for (flag, make) in [
        ("kill", None),
        ("drop", Some(FaultAction::DropReplies)),
        ("restore", Some(FaultAction::Restore)),
    ] {
        let Some(raw) = args.get(flag)? else { continue };
        for entry in raw.split(',').filter(|s| !s.is_empty()) {
            let (reader, round) = parse_reader_at_round(flag, entry)?;
            faults.push(FaultEvent {
                round,
                reader,
                action: make.unwrap_or(FaultAction::Kill),
            });
        }
    }
    if let Some(raw) = args.get("stall")? {
        for entry in raw.split(',').filter(|s| !s.is_empty()) {
            let (spec, ms) = entry
                .split_once(':')
                .ok_or_else(|| ArgError(format!("--stall: {entry:?} needs R@ROUND:MS")))?;
            let (reader, round) = parse_reader_at_round("stall", spec)?;
            let ms: u64 = ms
                .parse()
                .map_err(|_| ArgError(format!("--stall: bad milliseconds {ms:?}")))?;
            faults.push(FaultEvent {
                round,
                reader,
                action: FaultAction::Stall(Duration::from_millis(ms)),
            });
        }
    }
    Ok(faults)
}

fn parse_reader_at_round(flag: &str, entry: &str) -> Result<(usize, u32), ArgError> {
    let (reader, round) = entry
        .split_once('@')
        .ok_or_else(|| ArgError(format!("--{flag}: {entry:?} needs READER@ROUND")))?;
    let reader = reader
        .trim()
        .parse()
        .map_err(|_| ArgError(format!("--{flag}: bad reader {reader:?}")))?;
    let round = round
        .trim()
        .parse()
        .map_err(|_| ArgError(format!("--{flag}: bad round {round:?}")))?;
    Ok((reader, round))
}
