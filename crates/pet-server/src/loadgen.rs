//! The closed-loop load generator behind `pet loadgen`.
//!
//! This used to live in the CLI; it moved into the server crate so the
//! benchmark harness (`repro bench-server`) and the CLI drive the exact
//! same traffic shape and record the same perf-ledger row
//! (`pet_bench::ledger::loadgen_row`). The generator is *closed-loop with
//! a window*: [`Plan::connections`] sockets are all opened up front (that
//! is what makes an N-connection claim real), split across
//! [`Plan::threads`] driver threads, and each connection keeps at most
//! [`Plan::pipeline`] requests in flight — a burst is written as one
//! syscall via [`Client::send_raw`], then its replies are collected in
//! order before the next burst goes out.
//!
//! Request ids are `t<connection>-<i>`, so the id *set* — and therefore
//! the reply set of a deterministic server — is a pure function of
//! (`requests`, `connections`, `tags`, `rounds`), independent of thread
//! count and pipeline depth. The digest is an XOR of per-reply FNV-1a
//! hashes: order-independent, so concurrent threads need no coordination,
//! and equal reply sets compare equal — ci.sh holds one plan's digest to a
//! committed value.
//!
//! Sizing note: keep `connections × pipeline ≤ queue_capacity` when you
//! care about the digest. Overload refusals are honest replies and fold
//! into the digest too, but *which* request bounces depends on timing, so
//! an overloaded run is not reproducible.

use crate::client::Client;
use crate::json::Json;
use std::net::SocketAddr;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// What traffic to generate.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// Total requests across all connections.
    pub requests: usize,
    /// Concurrent connections, all opened before the first request.
    pub connections: usize,
    /// Driver threads; connections are dealt round-robin across them.
    pub threads: usize,
    /// Max requests in flight per connection (1 = classic closed loop).
    pub pipeline: usize,
    /// `tags` parameter of each estimate request.
    pub tags: usize,
    /// `rounds` parameter of each estimate request.
    pub rounds: u32,
}

impl Default for Plan {
    fn default() -> Self {
        Self {
            requests: 10_000,
            connections: 8,
            threads: 8,
            pipeline: 1,
            tags: 200,
            rounds: 4,
        }
    }
}

/// What came back.
#[derive(Default)]
pub struct BatchReport {
    /// Structurally valid `"ok":true` replies.
    pub ok: usize,
    /// Honest `overloaded` refusals.
    pub overloaded: usize,
    /// Other structured error replies.
    pub errors: usize,
    /// Requests that never got a reply (connection died or never opened).
    pub lost: usize,
    /// Replies that failed validation (wrong id, unparseable).
    pub malformed: usize,
    /// Connections that could not be established even with retries.
    pub connect_failures: usize,
    /// XOR of per-reply FNV-1a hashes — order-independent, so concurrent
    /// threads need no coordination and equal reply *sets* compare equal.
    pub digest: u64,
    /// Per-request latencies in nanoseconds (replied requests only),
    /// measured from the burst write to that reply's read.
    pub latency_ns: Vec<u64>,
    /// Wall time of the request phase (connect phase excluded).
    pub elapsed: Duration,
}

impl BatchReport {
    fn absorb(&mut self, other: &BatchReport) {
        self.ok += other.ok;
        self.overloaded += other.overloaded;
        self.errors += other.errors;
        self.lost += other.lost;
        self.malformed += other.malformed;
        self.connect_failures += other.connect_failures;
        self.digest ^= other.digest;
        self.latency_ns.extend_from_slice(&other.latency_ns);
    }

    /// Exact latency percentile (nearest-rank) over the replied requests.
    #[must_use]
    pub fn percentile(&self, q: f64) -> u64 {
        let mut sorted = self.latency_ns.clone();
        sorted.sort_unstable();
        percentile_of(&sorted, q)
    }
}

/// Nearest-rank percentile of an already-sorted sample (0 when empty).
#[must_use]
pub fn percentile_of(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

/// FNV-1a over little-endian u64 lanes with a length close: the same
/// mix-per-chunk structure as byte FNV but 8× fewer multiplies. The
/// generator hashes every reply on the measurement host, so this runs in
/// the throughput denominator.
fn fnv1a(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h ^= u64::from_le_bytes(c.try_into().expect("exact chunk"));
        h = h.wrapping_mul(PRIME);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h ^= u64::from_le_bytes(tail);
        h = h.wrapping_mul(PRIME);
    }
    h ^= bytes.len() as u64;
    h.wrapping_mul(PRIME)
}

/// Appends `v` in decimal — `write!` with a formatting template costs more
/// than the whole burst line assembly at loadgen rates.
fn push_decimal(out: &mut String, v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    let mut v = v;
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ascii digits"));
}

/// Fires the whole batch: opens every connection, synchronizes all driver
/// threads on a barrier, then runs the windowed closed loop and merges the
/// per-thread reports. The clock starts when the barrier releases, so
/// `elapsed` (and any throughput derived from it) excludes connect time.
///
/// # Panics
///
/// Panics if the plan has zero `requests`, `connections`, `threads`, or
/// `pipeline` (the CLI validates first), or if a driver thread panics.
#[must_use]
pub fn run_batch(addr: SocketAddr, plan: &Plan) -> BatchReport {
    assert!(
        plan.requests > 0 && plan.connections > 0 && plan.threads > 0 && plan.pipeline > 0,
        "loadgen plan fields must be positive"
    );
    let threads = plan.threads.min(plan.connections);
    let barrier = Barrier::new(threads + 1);
    let mut started = Instant::now();
    let reports: Vec<BatchReport> = std::thread::scope(|scope| {
        let barrier = &barrier;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let conns: Vec<usize> = (t..plan.connections).step_by(threads).collect();
                scope.spawn(move || thread_batch(addr, plan, &conns, barrier))
            })
            .collect();
        barrier.wait();
        started = Instant::now();
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen thread"))
            .collect()
    });
    let mut total = BatchReport::default();
    for r in &reports {
        total.absorb(r);
    }
    total.elapsed = started.elapsed();
    total
}

/// One connection's cursor within a driver thread.
struct ConnState {
    client: Client,
    /// Global connection index (names the `t<c>-<i>` id namespace).
    index: usize,
    /// Next request number on this connection.
    next: usize,
    /// Requests still to send on this connection.
    remaining: usize,
}

fn conn_quota(plan: &Plan, c: usize) -> usize {
    plan.requests / plan.connections + usize::from(c < plan.requests % plan.connections)
}

/// Opens a connection with a little patience: under a 10k-connection ramp
/// the accept backlog overflows transiently and a raw connect can bounce.
fn connect_with_retry(addr: SocketAddr) -> Option<Client> {
    for attempt in 0..40u32 {
        match Client::connect(addr) {
            Ok(client) => return Some(client),
            Err(_) => std::thread::sleep(Duration::from_millis(2 + u64::from(attempt))),
        }
    }
    None
}

fn thread_batch(
    addr: SocketAddr,
    plan: &Plan,
    conn_indices: &[usize],
    barrier: &Barrier,
) -> BatchReport {
    let mut report = BatchReport::default();
    let mut conns: Vec<ConnState> = Vec::with_capacity(conn_indices.len());
    for &c in conn_indices {
        let quota = conn_quota(plan, c);
        match connect_with_retry(addr) {
            Some(mut client) => {
                let _ = client.set_read_timeout(Some(Duration::from_secs(120)));
                conns.push(ConnState {
                    client,
                    index: c,
                    next: 0,
                    remaining: quota,
                });
            }
            None => {
                report.connect_failures += 1;
                report.lost += quota;
            }
        }
    }
    barrier.wait();

    // All three staging buffers are reused across bursts so the steady
    // state allocates nothing but the latency samples. Everything after
    // the id is the same on every line, so the tail is rendered once.
    let mut burst = String::new();
    let mut ids: Vec<String> = (0..plan.pipeline).map(|_| String::new()).collect();
    let mut reply = String::new();
    let line_tail = format!(
        "\",\"verb\":\"estimate\",\"tags\":{},\"rounds\":{}}}\n",
        plan.tags, plan.rounds
    );
    while conns.iter().any(|c| c.remaining > 0) {
        let mut dead: Vec<usize> = Vec::new();
        for (slot, conn) in conns.iter_mut().enumerate() {
            let depth = plan.pipeline.min(conn.remaining);
            if depth == 0 {
                continue;
            }
            burst.clear();
            for id in ids.iter_mut().take(depth) {
                id.clear();
                id.push('t');
                push_decimal(id, conn.index as u64);
                id.push('-');
                push_decimal(id, conn.next as u64);
                burst.push_str("{\"id\":\"");
                burst.push_str(id);
                burst.push_str(&line_tail);
                conn.next += 1;
            }
            conn.remaining -= depth;
            let sent = Instant::now();
            if conn.client.send_raw(burst.as_bytes()).is_err() {
                report.lost += depth + conn.remaining;
                dead.push(slot);
                continue;
            }
            for (k, id) in ids.iter().take(depth).enumerate() {
                if conn.client.recv_into(&mut reply).is_err() {
                    // Connection gone: the rest of the burst and everything
                    // still unsent on this connection is lost too.
                    report.lost += (depth - k) + conn.remaining;
                    dead.push(slot);
                    break;
                }
                report
                    .latency_ns
                    .push(u64::try_from(sent.elapsed().as_nanos()).unwrap_or(u64::MAX));
                match classify(&reply, id) {
                    Reply::Ok => report.ok += 1,
                    Reply::Overloaded => report.overloaded += 1,
                    Reply::OtherError => report.errors += 1,
                    Reply::Malformed => {
                        report.malformed += 1;
                        continue; // don't fold garbage into the digest
                    }
                }
                report.digest ^= fnv1a(reply.as_bytes());
            }
        }
        for slot in dead.into_iter().rev() {
            conns.remove(slot);
        }
    }
    report
}

enum Reply {
    Ok,
    Overloaded,
    OtherError,
    Malformed,
}

fn classify(reply: &str, expect_id: &str) -> Reply {
    // Fast path: `ok_reply` always renders `{"id":"<id>","ok":true,...`,
    // so a healthy reply is recognizable from its prefix alone — an order
    // of magnitude cheaper than a full parse, and the generator shares
    // its cores with the server under test. Anything that misses falls
    // through to the strict parser for honest classification.
    if let Some(rest) = reply
        .strip_prefix("{\"id\":\"")
        .and_then(|r| r.strip_prefix(expect_id))
    {
        if rest.starts_with("\",\"ok\":true") {
            return Reply::Ok;
        }
    }
    let Ok(v) = Json::parse(reply) else {
        return Reply::Malformed;
    };
    if v.get("id").and_then(Json::as_str) != Some(expect_id) {
        return Reply::Malformed;
    }
    match v.get("ok").and_then(Json::as_bool) {
        Some(true) => Reply::Ok,
        Some(false) => match v.get("error").and_then(Json::as_str) {
            Some("overloaded") => Reply::Overloaded,
            Some(_) => Reply::OtherError,
            None => Reply::Malformed,
        },
        None => Reply::Malformed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quotas_cover_every_request_exactly_once() {
        let plan = Plan {
            requests: 103,
            connections: 10,
            ..Plan::default()
        };
        let total: usize = (0..plan.connections).map(|c| conn_quota(&plan, c)).sum();
        assert_eq!(total, plan.requests);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_of(&sorted, 0.50), 50);
        assert_eq!(percentile_of(&sorted, 0.99), 99);
        assert_eq!(percentile_of(&sorted, 1.0), 100);
        assert_eq!(percentile_of(&[], 0.5), 0);
    }

    #[test]
    fn classify_checks_id_echo_and_error_shape() {
        assert!(matches!(
            classify(r#"{"id":"a","ok":true}"#, "a"),
            Reply::Ok
        ));
        assert!(matches!(
            classify(r#"{"id":"a","ok":true}"#, "b"),
            Reply::Malformed
        ));
        assert!(matches!(
            classify(r#"{"id":"a","ok":false,"error":"overloaded"}"#, "a"),
            Reply::Overloaded
        ));
        assert!(matches!(
            classify(r#"{"id":"a","ok":false,"error":"internal"}"#, "a"),
            Reply::OtherError
        ));
        assert!(matches!(classify("not json", "a"), Reply::Malformed));
    }
}
