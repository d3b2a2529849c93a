//! `pet serve` and `pet loadgen` — the service surface of the CLI.
//!
//! `serve` runs the pet-server daemon in the foreground — `--workers`
//! sharded event loops — until a client sends the `shutdown` verb, then
//! prints the final RED metrics. `loadgen` drives the closed-loop
//! generator in [`pet_server::loadgen`]: N concurrent connections split
//! across driver threads, up to `--pipeline` requests in flight per
//! connection, every reply validated and folded into an
//! order-independent digest so two runs against a deterministic server
//! can be compared bit-for-bit (`--verify-deterministic`).

use crate::args::{ArgError, Args};
use pet_bench::ledger;
use pet_server::loadgen::{run_batch, BatchReport, Plan};
use pet_server::{serve, Backend, ServerConfig, ServerHandle};
use std::net::SocketAddr;
use std::time::Duration;

/// `pet serve [--addr 127.0.0.1:7878] [--workers 4] [--queue 64]
/// [--deterministic] [--deadline-ms D] [--addr-file path]`
pub fn cmd_serve(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&[
        "addr",
        "workers",
        "queue",
        "deterministic",
        "deadline-ms",
        "addr-file",
        "telemetry",
    ])?;
    let config = server_config(args, "127.0.0.1:7878")?;
    let handle = serve(&config).map_err(|e| ArgError(format!("bind {}: {e}", config.addr)))?;
    let addr = handle.addr();
    if let Some(path) = args.get("addr-file")? {
        // Lets scripts (and the CI smoke gate) discover an ephemeral port.
        std::fs::write(path, format!("{addr}\n"))
            .map_err(|e| ArgError(format!("--addr-file {path}: {e}")))?;
    }
    println!("pet-server listening on {addr}");
    println!(
        "  shards {}, queue capacity {}, deterministic {}",
        config.workers, config.queue_capacity, config.deterministic
    );
    println!("  send {{\"id\":\"bye\",\"verb\":\"shutdown\"}} to stop");
    let summary = handle.join();
    println!("\nfinal metrics:\n{}", summary.render());
    Ok(())
}

/// `pet loadgen (--addr HOST:PORT | --local) [--requests 10000]
/// [--connections 8] [--threads 8] [--pipeline 1] [--tags 200]
/// [--rounds 4] [--workers 4] [--queue 64] [--verify-deterministic]
/// [--ledger path]`
///
/// `--workers` and `--queue` size the in-process server of `--local`.
/// `--ledger` appends the first run's `server-loadgen` row to the ledger
/// at that path once every check has passed.
pub fn cmd_loadgen(args: &Args) -> Result<(), ArgError> {
    args.expect_only(&[
        "addr",
        "local",
        "requests",
        "connections",
        "threads",
        "pipeline",
        "tags",
        "rounds",
        "workers",
        "queue",
        "verify-deterministic",
        "ledger",
        "telemetry",
    ])?;
    let requests: usize = args.get_or("requests", 10_000)?;
    let threads: usize = args.get_or("threads", 8)?;
    let connections: usize = args.get_or("connections", threads)?;
    let pipeline: usize = args.get_or("pipeline", 1)?;
    let tags: usize = args.get_or("tags", 200)?;
    let rounds: u32 = args.get_or("rounds", 4)?;
    let verify = args.switch("verify-deterministic");
    let ledger_path = args.get("ledger")?;
    if requests == 0 || threads == 0 || connections == 0 || pipeline == 0 {
        return Err(ArgError(
            "--requests, --connections, --threads and --pipeline must be positive".into(),
        ));
    }
    let plan = Plan {
        requests,
        connections,
        threads,
        pipeline,
        tags,
        rounds,
    };

    // --local spins up an in-process server (deterministic whenever we are
    // going to compare runs); --addr targets one started elsewhere, which
    // must itself run --deterministic for --verify-deterministic to hold.
    let local = if args.switch("local") {
        let mut config = server_config(args, "127.0.0.1:0")?;
        config.deterministic = verify || config.deterministic;
        Some(serve(&config).map_err(|e| ArgError(format!("bind {}: {e}", config.addr)))?)
    } else {
        None
    };
    let addr: SocketAddr = match (&local, args.get("addr")?) {
        (Some(handle), None) => handle.addr(),
        (None, Some(raw)) => raw
            .parse()
            .map_err(|_| ArgError(format!("--addr: cannot parse {raw:?}")))?,
        (None, None) => return Err(ArgError("loadgen needs --addr HOST:PORT or --local".into())),
        (Some(_), Some(_)) => return Err(ArgError("--addr and --local are exclusive".into())),
    };

    let first = run_batch(addr, &plan);
    print_report("run 1", &plan, &first);
    if verify {
        let second = run_batch(addr, &plan);
        print_report("run 2", &plan, &second);
        if second.digest == first.digest {
            println!("deterministic : digests identical across runs");
        } else {
            shutdown_local(local);
            return Err(ArgError(format!(
                "determinism violated: digest {:#018x} != {:#018x}",
                first.digest, second.digest
            )));
        }
    }
    shutdown_local(local);

    let failures = first.lost + first.malformed;
    if failures > 0 || first.connect_failures > 0 {
        return Err(ArgError(format!(
            "{} lost and {} malformed replies out of {} ({} connections failed)",
            first.lost, first.malformed, plan.requests, first.connect_failures
        )));
    }
    // Only a run that passed is recorded: a run whose connections failed
    // finishes at once and would read as a huge throughput.
    if let Some(path) = ledger_path {
        let mut row = ledger::loadgen_row(Backend::Evented.name(), &plan, &first);
        row.source = "pet:loadgen".to_string();
        ledger::append(std::path::Path::new(path), &[row])
            .map_err(|e| ArgError(format!("--ledger {path}: {e}")))?;
        println!("ledger        : {path}");
    }
    Ok(())
}

fn server_config(args: &Args, default_addr: &str) -> Result<ServerConfig, ArgError> {
    let workers: usize = args.get_or("workers", 4)?;
    let queue_capacity: usize = args.get_or("queue", 64)?;
    if workers == 0 || queue_capacity == 0 {
        return Err(ArgError("--workers and --queue must be positive".into()));
    }
    let deadline_ms: u64 = args.get_or("deadline-ms", 0)?;
    Ok(ServerConfig {
        addr: args.get("addr")?.unwrap_or(default_addr).to_string(),
        workers,
        queue_capacity,
        deterministic: args.switch("deterministic"),
        default_deadline: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)),
        ..ServerConfig::default()
    })
}

fn shutdown_local(local: Option<ServerHandle>) {
    if let Some(handle) = local {
        handle.shutdown();
        handle.join();
    }
}

fn print_report(label: &str, plan: &Plan, r: &BatchReport) {
    let sent = r.ok + r.overloaded + r.errors + r.lost + r.malformed;
    println!(
        "{label}: {sent} requests in {:.2} s ({:.0} req/s) — {} connections, pipeline {}",
        r.elapsed.as_secs_f64(),
        sent as f64 / r.elapsed.as_secs_f64().max(1e-9),
        plan.connections,
        plan.pipeline,
    );
    println!(
        "  ok {}, overloaded {}, other errors {}, malformed {}, lost {}, connect failures {}",
        r.ok, r.overloaded, r.errors, r.malformed, r.lost, r.connect_failures
    );
    println!(
        "  latency p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms",
        r.percentile(0.50) as f64 / 1e6,
        r.percentile(0.95) as f64 / 1e6,
        r.percentile(0.99) as f64 / 1e6
    );
    println!("  reply digest {:#018x}", r.digest);
}
