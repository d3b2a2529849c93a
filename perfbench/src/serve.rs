//! The served workloads: a closed loop over one loopback TCP connection,
//! pipeline depth 1, against `pet_server::serve` with the evented backend,
//! one shard, in deterministic mode, inside this process.

use crate::check::{self, validate, Digest, Sample};
use crate::layers::{self, Pass, Wire, BLOCK, MAX_REPLAY};
use crate::replay;
use crate::report::{end_to_end, Outcome, Phase};
use crate::trace::Tracer;
use crate::workload::{op_id, request_line, warmup_id, Workload};
use pet_hash::bulk::RadixScratch;
use pet_server::service::Dispatch;
use pet_server::{serve, Backend, Client, ServerConfig, ServerHandle};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 9;

/// A reply slower than this counts as lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

struct Conn {
    handle: ServerHandle,
    client: Client,
}

impl Conn {
    /// Starts a server, connects, and runs set-up `setup`'s warm-up.
    fn start(workload: Workload, seed: u64, setup: usize) -> Result<Self, String> {
        let handle = serve(&ServerConfig {
            backend: Backend::Evented,
            workers: 1,
            deterministic: true,
            ..ServerConfig::default()
        })
        .map_err(|e| format!("bind: {e}"))?;
        let mut client = Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
        client
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| format!("read timeout: {e}"))?;
        let mut conn = Self { handle, client };
        let mut lines = Vec::new();
        for j in 0..workload.warmup() {
            let id = warmup_id(seed, setup, j);
            conn.call(
                &request_line(workload, &id),
                workload.expect().lines(),
                &mut lines,
            )?;
            validate(&id, workload.expect(), &lines)?;
        }
        Ok(conn)
    }

    /// Sends one request and reads its `n` reply lines; returns the bytes
    /// moved both ways.
    fn call(&mut self, line: &str, n: usize, lines: &mut Vec<String>) -> Result<u64, String> {
        lines.clear();
        self.client.send(line).map_err(|e| format!("send: {e}"))?;
        let mut bytes = line.len() + 1;
        for _ in 0..n {
            let reply = self.client.recv().map_err(|e| format!("reply lost: {e}"))?;
            bytes += reply.len() + 1;
            lines.push(reply);
        }
        Ok(bytes as u64)
    }

    /// Sends `shutdown` and waits for the server's threads to end; when the
    /// connection no longer answers, shuts the server down from this side.
    fn stop(mut self) -> Result<(), String> {
        let ack = self
            .client
            .roundtrip(r#"{"id":"perfbench-stop","verb":"shutdown"}"#);
        drop(self.client);
        if ack.is_err() {
            self.handle.shutdown();
        }
        self.handle.join();
        match ack {
            Ok(ack) if ack.contains("\"drained\":true") => Ok(()),
            Ok(ack) => Err(format!("shutdown not acknowledged: {ack}")),
            Err(e) => Err(format!("shutdown: {e}")),
        }
    }
}

/// What the closed loop saw.
struct Loop {
    phase: Phase,
    digest: Digest,
    bytes: u64,
    slot_sum: u64,
    slot_count: u64,
    lines: Vec<String>,
}

impl Loop {
    fn new(seconds: f64) -> Self {
        Self {
            phase: Phase::begin(seconds),
            digest: Digest::default(),
            bytes: 0,
            slot_sum: 0,
            slot_count: 0,
            lines: Vec::new(),
        }
    }

    /// Sends operation `i` and validates its reply. Returns false when the
    /// connection's state is unknown and the loop must stop.
    fn op(&mut self, conn: &mut Conn, workload: Workload, seed: u64, out: &mut Outcome) -> bool {
        let expect = workload.expect();
        let id = op_id(seed, out.attempted);
        let line = request_line(workload, &id);
        out.attempted += 1;
        let began = Instant::now();
        let sent = conn.call(&line, expect.lines(), &mut self.lines);
        let ended = Instant::now();
        match sent {
            Ok(bytes) => self.bytes += bytes,
            Err(e) => {
                out.failed += 1;
                out.fail(e);
                return false;
            }
        }
        self.phase.record(began, ended);
        self.digest.add(&self.lines.join("\n"));
        match validate(&id, expect, &self.lines) {
            Ok(samples) => {
                for slots in samples.iter().filter_map(|s| s.slots) {
                    self.slot_sum += slots;
                    self.slot_count += 1;
                }
            }
            Err(e) => {
                out.failed += 1;
                out.fail(e);
            }
        }
        true
    }
}

/// An end-to-end run.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut conn = None;
    for setup in 0..SETUPS {
        let began = Instant::now();
        let c = Conn::start(workload, seed, setup)?;
        setups.push(began.elapsed().as_secs_f64());
        if setup + 1 < SETUPS {
            c.stop()?;
        } else {
            conn = Some(c);
        }
    }
    let mut conn = conn.expect("at least one set-up");
    let mut l = Loop::new(seconds);
    while l.phase.running() && l.op(&mut conn, workload, seed, &mut out) {}
    l.phase.finish();
    if let Err(e) = conn.stop() {
        out.fail(e);
    }
    let (digest, prefix) = in_process(workload, seed, out.attempted, workload.checked_prefix())?;
    if let Err(e) = check::digests_agree(l.digest, digest) {
        out.fail(e);
    }
    let mut slots = l.slot_sum as f64 / l.slot_count.max(1) as f64;
    if workload == Workload::MonitorChurn && out.correct() {
        // Monitor replies carry no slot counts: replay the checked prefix
        // through the layers, bit for bit, and read them from the kernel.
        slots = monitor_slots(workload, seed, &prefix, &mut out)?;
    }
    end_to_end(&mut out, workload, &l.phase, &setups, &prefix, slots)?;
    Ok(out)
}

/// Runs the stream's first `max(digested, prefix)` requests through fresh
/// deterministic in-process cores, as the server runs them, split across
/// two threads once the timed phase is over. Returns the digest of the
/// first `digested` replies, to compare with the wire's, and the estimates
/// of the first `prefix`: the checked prefix is taken from here so it is
/// exact for a seed even when the timed loop stopped short of it.
fn in_process(
    workload: Workload,
    seed: u64,
    digested: u64,
    prefix: usize,
) -> Result<(Digest, Vec<Sample>), String> {
    let total = digested.max(prefix as u64);
    let half = total / 2;
    let run = |range: std::ops::Range<u64>| -> Result<(Digest, Vec<Sample>), String> {
        let core = check::deterministic_core();
        let mut digest = Digest::default();
        let mut samples = Vec::new();
        for i in range {
            let id = op_id(seed, i);
            let reply = check::execute(&core, &request_line(workload, &id))?;
            if i < digested {
                digest.add(&reply);
            }
            if i < prefix as u64 {
                // A reply that fails here failed on the wire too and is
                // already counted there.
                let lines: Vec<String> = reply.lines().map(str::to_string).collect();
                samples.extend(validate(&id, workload.expect(), &lines).unwrap_or_default());
            }
        }
        Ok((digest, samples))
    };
    let (low, high) = std::thread::scope(|s| {
        let high = s.spawn(|| run(half..total));
        let low = run(0..half);
        (low, high.join().expect("in-process replay thread panicked"))
    });
    let (mut digest, mut samples) = low?;
    let (high_digest, high_samples) = high?;
    digest.0 ^= high_digest.0;
    samples.extend(high_samples);
    Ok((digest, samples))
}

fn monitor_slots(
    workload: Workload,
    seed: u64,
    prefix: &[Sample],
    out: &mut Outcome,
) -> Result<f64, String> {
    let core = check::deterministic_core();
    let mut off = Tracer::new(false);
    let mut scratch = RadixScratch::new();
    let (mut sum, mut count) = (0u64, 0u64);
    let per_op = workload.expect().lines() - 1;
    for (i, want) in prefix.chunks(per_op).enumerate() {
        let op = i as u64;
        let line = request_line(workload, &op_id(seed, op));
        let (got, run) = replay::monitor(&mut off, op, &core, &line)?;
        let probes = replay::kernel_probes(&mut off, op, &run, &mut scratch)?;
        for (u, ((g, w), (k, _))) in got.iter().zip(want).zip(&probes).enumerate() {
            if !g.same(w) || k.estimate.to_bits() != w.estimate.to_bits() {
                out.fail(format!(
                    "replay of update {u} of operation {i} differs from the reply"
                ));
            }
            sum += k.slots;
            count += 1;
        }
    }
    Ok(sum as f64 / count.max(1) as f64)
}

/// A traced run. Operations go in blocks of [`BLOCK`]: each block is sent
/// over the wire for the client-side latency, then run in process three
/// times over — the program's own `ServiceCore::handle_line` +
/// `execute_work` as the reference, the untraced replay, the traced replay
/// — so all four see the same machine state, and each pass has the cache
/// to itself for a whole block.
pub fn traced(workload: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut conn = Conn::start(workload, seed, 0)?;
    // The reference core is warmed as the server's was.
    let core = check::deterministic_core();
    for j in 0..workload.warmup() {
        check::execute(&core, &request_line(workload, &warmup_id(seed, 0, j)))?;
    }
    let mut untraced = Pass::new(workload, seed, false)?;
    let mut traced = Pass::new(workload, seed, true)?;
    let (mut handle_ns, mut execute_ns) = (Vec::new(), Vec::new());
    let mut digest = Digest::default();
    let mut l = Loop::new(seconds);
    'blocks: while l.phase.running() && (out.attempted as usize) < MAX_REPLAY {
        let first = out.attempted;
        for _ in 0..BLOCK {
            if !l.op(&mut conn, workload, seed, &mut out) {
                break 'blocks;
            }
        }
        let mut wants = Vec::with_capacity(BLOCK);
        for i in first..out.attempted {
            let id = op_id(seed, i);
            let line = request_line(workload, &id);
            let began = Instant::now();
            let dispatched = core.handle_line(line.as_bytes());
            let parsed = Instant::now();
            let Some(Dispatch::Work(request)) = dispatched else {
                return Err(format!("request {line:?} was not a work item"));
            };
            let reply = core.execute_work(&request, parsed);
            let executed = Instant::now();
            handle_ns.push((parsed - began).as_nanos() as u64);
            execute_ns.push((executed - parsed).as_nanos() as u64);
            digest.add(&reply);
            let lines: Vec<String> = reply.lines().map(str::to_string).collect();
            match validate(&id, workload.expect(), &lines) {
                Ok(want) => wants.push(want),
                Err(e) => {
                    out.fail(e);
                    break 'blocks;
                }
            }
        }
        for pass in [&mut untraced, &mut traced] {
            for (k, want) in wants.iter().enumerate() {
                pass.op(first as usize + k, want, &mut out)?;
            }
        }
    }
    l.phase.finish();
    if let Err(e) = conn.stop() {
        out.fail(e);
    }
    if !out.correct() {
        return Ok(out);
    }
    if let Err(e) = check::digests_agree(l.digest, digest) {
        out.fail(e);
    }
    let wire = Wire {
        client_ns: &l.phase.latency_ns,
        bytes: l.bytes,
        handle_ns: &handle_ns,
        execute_ns: &execute_ns,
    };
    layers::metrics(&mut out, &wire, &untraced, &traced);
    out.note("steal_share", l.phase.steal);
    layers::write_spans(&mut out, workload, seed, &traced);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_mismatch_fails_the_check() {
        let w = Workload::EstimateSmall;
        let (digest, prefix) = in_process(w, 9, 6, 4).unwrap();
        assert_eq!(prefix.len(), 4);
        // The wire digest of the same six replies, received in another
        // order, agrees; one altered reply or one missing reply does not.
        let core = check::deterministic_core();
        let replies: Vec<String> = (0..6)
            .rev()
            .map(|i| check::execute(&core, &request_line(w, &op_id(9, i))).unwrap())
            .collect();
        let mut wire = Digest::default();
        replies.iter().for_each(|r| wire.add(r));
        assert!(check::digests_agree(wire, digest).is_ok());
        let mut altered = Digest::default();
        replies[1..].iter().for_each(|r| altered.add(r));
        altered.add(&replies[0].replace("\"slots\":20", "\"slots\":21"));
        assert!(check::digests_agree(altered, digest).is_err());
        let mut missing = Digest::default();
        replies[1..].iter().for_each(|r| missing.add(r));
        assert!(check::digests_agree(missing, digest).is_err());
    }
}
