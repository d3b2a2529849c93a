//! End-to-end and per-layer benchmark of the PET estimation service and
//! the Fig. 4 simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the workload end to end and prints
//! the seven end-to-end metrics; with `--trace 1` it replays the same
//! operation stream through the layers' public calls and prints the
//! per-layer metrics. The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! records the run's context (seed, host, SIMD lane, CPU steal, p99).
//! A failed output check sets `correct` to false and the exit code to 1.
//! See `perfbench/README.md` for the workloads and metrics.

mod check;
mod layers;
mod replay;
mod report;
mod serve;
mod sim;
mod stats;
mod sys;
mod trace;
mod workload;

use report::Outcome;
use workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!("unknown workload {name:?} (one of {})", names.join(", "))
    })?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = match (args.workload.served(), args.trace) {
        (true, false) => serve::run(args.workload, args.seed, args.seconds)?,
        (true, true) => serve::traced(args.workload, args.seed, args.seconds)?,
        (false, false) => sim::run(args.seed, args.seconds)?,
        (false, true) => sim::traced(args.seed, args.seconds)?,
    };
    out.note("workload", format!("{:?}", args.workload.name()));
    out.note("seed", args.seed);
    out.note("trace", u8::from(args.trace));
    out.note("nproc", sys::nproc());
    out.note("lane", format!("{:?}", sys::lane()));
    Ok(out)
}

fn print(out: &Outcome) -> Result<(), String> {
    let context: Vec<String> = out
        .context
        .iter()
        .map(|(k, v)| format!("{k:?}:{v}"))
        .collect();
    println!("{{\"context\":{{{}}}}}", context.join(","));
    let mut metrics = Vec::with_capacity(out.metrics.len());
    for m in &out.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        metrics.push(format!(
            "{:?}:{{\"value\":{},\"unit\":{:?}}}",
            m.name, m.value, m.unit
        ));
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics.join(",")
    );
    Ok(())
}

fn main() {
    let code = match parse_args().and_then(|args| run(&args)) {
        Ok(out) => {
            for e in &out.errors {
                eprintln!("perfbench: check failed: {e}");
            }
            match print(&out) {
                Ok(()) if out.correct() => 0,
                Ok(()) => 1,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    1
                }
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}
