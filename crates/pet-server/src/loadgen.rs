//! The closed-loop load generator behind `pet loadgen`.
//!
//! This used to live in the CLI; it moved into the server crate so the
//! benchmark harness (`repro bench-server`) and the CLI drive the exact
//! same traffic shape and write the exact same artifact. The generator is
//! *closed-loop with a window*: [`Plan::connections`] sockets are all
//! opened up front (that is what makes an N-connection claim real), split
//! across [`Plan::threads`] driver threads, and each connection keeps at
//! most [`Plan::pipeline`] requests in flight — a burst is written as one
//! syscall via [`Client::send_raw`], then its replies are collected in
//! order before the next burst goes out.
//!
//! Request ids are `t<connection>-<i>`, so the id *set* — and therefore
//! the reply set of a deterministic server — is a pure function of
//! (`requests`, `connections`, `tags`, `rounds`), independent of thread
//! count and pipeline depth. The digest is an XOR of per-reply FNV-1a
//! hashes: order-independent, so concurrent threads need no coordination,
//! equal reply sets compare equal, and the same digest must fall out of
//! the threaded and evented backends on the same plan — that equality is
//! the cross-backend equivalence gate in ci.sh.
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

/// One row of the benchmark artifact: a (backend, connections, pipeline)
/// configuration and what it measured.
#[derive(Clone, Debug)]
pub struct BenchRun {
    /// Serving backend name (`"threaded"` / `"evented"`).
    pub backend: String,
    /// Total requests sent.
    pub requests: u64,
    /// Concurrent connections held open.
    pub connections: u64,
    /// Driver threads.
    pub threads: u64,
    /// Pipeline depth per connection.
    pub pipeline: u64,
    /// `tags` parameter of each request.
    pub tags: u64,
    /// `rounds` parameter of each request.
    pub rounds: u64,
    /// Wall time of the request phase, seconds.
    pub elapsed_s: f64,
    /// requests / elapsed_s.
    pub throughput_rps: f64,
    /// Reply counts, as in [`BatchReport`].
    pub ok: u64,
    /// Honest overload refusals.
    pub overloaded: u64,
    /// Other structured errors.
    pub errors: u64,
    /// Replies failing validation.
    pub malformed: u64,
    /// Requests with no reply.
    pub lost: u64,
    /// Latency percentiles in nanoseconds.
    pub p50_ns: u64,
    /// 95th percentile.
    pub p95_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// Worst observed.
    pub max_ns: u64,
    /// `{:#018x}` rendering of the reply-set digest.
    pub digest: String,
}

impl BenchRun {
    /// Builds the artifact row for a finished batch.
    #[must_use]
    pub fn new(backend: &str, plan: &Plan, report: &BatchReport) -> Self {
        let mut sorted = report.latency_ns.clone();
        sorted.sort_unstable();
        Self {
            backend: backend.to_string(),
            requests: plan.requests as u64,
            connections: plan.connections as u64,
            threads: plan.threads as u64,
            pipeline: plan.pipeline as u64,
            tags: plan.tags as u64,
            rounds: u64::from(plan.rounds),
            elapsed_s: report.elapsed.as_secs_f64(),
            throughput_rps: plan.requests as f64 / report.elapsed.as_secs_f64().max(1e-9),
            ok: report.ok as u64,
            overloaded: report.overloaded as u64,
            errors: report.errors as u64,
            malformed: report.malformed as u64,
            lost: report.lost as u64,
            p50_ns: percentile_of(&sorted, 0.50),
            p95_ns: percentile_of(&sorted, 0.95),
            p99_ns: percentile_of(&sorted, 0.99),
            max_ns: sorted.last().copied().unwrap_or(0),
            digest: format!("{:#018x}", report.digest),
        }
    }

    /// Merge key: one row per measured configuration.
    fn key(&self) -> (String, u64, u64) {
        (self.backend.clone(), self.connections, self.pipeline)
    }

    fn render(&self) -> String {
        format!(
            concat!(
                "{{\"backend\":\"{}\",",
                "\"requests\":{},\"connections\":{},\"threads\":{},\"pipeline\":{},",
                "\"tags\":{},\"rounds\":{},",
                "\"elapsed_s\":{:.6},\"throughput_rps\":{:.1},",
                "\"ok\":{},\"overloaded\":{},\"errors\":{},\"malformed\":{},\"lost\":{},",
                "\"latency_ns\":{{\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}},",
                "\"digest\":\"{}\"}}"
            ),
            crate::json::escape(&self.backend),
            self.requests,
            self.connections,
            self.threads,
            self.pipeline,
            self.tags,
            self.rounds,
            self.elapsed_s,
            self.throughput_rps,
            self.ok,
            self.overloaded,
            self.errors,
            self.malformed,
            self.lost,
            self.p50_ns,
            self.p95_ns,
            self.p99_ns,
            self.max_ns,
            self.digest,
        )
    }

    /// Parses a pre-v2 flat artifact (one run, no `backend` /
    /// `connections` / `pipeline` keys) with the defaults that benchmark
    /// actually ran: the threaded backend, one connection per thread, no
    /// pipelining. `requests` and `elapsed_s` are the only hard
    /// requirements.
    fn from_flat_json(v: &Json) -> Option<Self> {
        let field = |k: &str| v.get(k).and_then(Json::as_u64);
        let requests = field("requests")?;
        let elapsed_s = v.get("elapsed_s").and_then(Json::as_f64)?;
        let threads = field("threads").unwrap_or(8);
        let lat = |k: &str| {
            v.get("latency_ns")
                .and_then(|l| l.get(k))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        Some(Self {
            backend: v
                .get("backend")
                .and_then(Json::as_str)
                .unwrap_or("threaded")
                .to_string(),
            requests,
            connections: field("connections").unwrap_or(threads),
            threads,
            pipeline: field("pipeline").unwrap_or(1),
            tags: field("tags").unwrap_or(0),
            rounds: field("rounds").unwrap_or(0),
            elapsed_s,
            throughput_rps: v
                .get("throughput_rps")
                .and_then(Json::as_f64)
                .unwrap_or(requests as f64 / elapsed_s.max(1e-9)),
            ok: field("ok").unwrap_or(requests),
            overloaded: field("overloaded").unwrap_or(0),
            errors: field("errors").unwrap_or(0),
            malformed: field("malformed").unwrap_or(0),
            lost: field("lost").unwrap_or(0),
            p50_ns: lat("p50"),
            p95_ns: lat("p95"),
            p99_ns: lat("p99"),
            max_ns: lat("max"),
            digest: v
                .get("digest")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
        })
    }

    fn from_json(v: &Json) -> Option<Self> {
        let field = |k: &str| v.get(k).and_then(Json::as_u64);
        let lat = v.get("latency_ns")?;
        Some(Self {
            backend: v.get("backend").and_then(Json::as_str)?.to_string(),
            requests: field("requests")?,
            connections: field("connections")?,
            threads: field("threads")?,
            pipeline: field("pipeline")?,
            tags: field("tags")?,
            rounds: field("rounds")?,
            elapsed_s: v.get("elapsed_s").and_then(Json::as_f64)?,
            throughput_rps: v.get("throughput_rps").and_then(Json::as_f64)?,
            ok: field("ok")?,
            overloaded: field("overloaded")?,
            errors: field("errors")?,
            malformed: field("malformed")?,
            lost: field("lost")?,
            p50_ns: lat.get("p50").and_then(Json::as_u64)?,
            p95_ns: lat.get("p95").and_then(Json::as_u64)?,
            p99_ns: lat.get("p99").and_then(Json::as_u64)?,
            max_ns: lat.get("max").and_then(Json::as_u64)?,
            digest: v.get("digest").and_then(Json::as_str)?.to_string(),
        })
    }
}

/// Version tag of the BENCH_server.json layout written by
/// [`write_bench_json`] (v2 added `backend`/`connections`/`pipeline` and
/// turned the file into a merged `runs` array).
pub const BENCH_SCHEMA_VERSION: u64 = 2;

/// The (backend, connections, pipeline) merge key of a bench row.
type RowKey = (String, u64, u64);

/// Merge key of a raw JSON row, when extractable.
fn raw_key(item: &Json) -> Option<RowKey> {
    Some((
        item.get("backend").and_then(Json::as_str)?.to_string(),
        item.get("connections").and_then(Json::as_u64)?,
        item.get("pipeline").and_then(Json::as_u64)?,
    ))
}

/// Writes (or merges into) the machine-readable benchmark artifact.
///
/// The file holds one row per (backend, connections, pipeline)
/// configuration; rewriting a configuration replaces its row and leaves
/// the others intact, so threaded and evented measurements accumulate in
/// one artifact — a partial rerun never loses rows it didn't measure.
/// Rows a future (or past) schema dialect that `BenchRun::from_json`
/// cannot parse are preserved verbatim, keyed when their (backend,
/// connections, pipeline) fields are extractable. A pre-v2 flat file is
/// migrated into a keyed v2 row instead of being discarded, so seed-era
/// history survives the first rerun.
///
/// # Errors
///
/// Returns the underlying I/O error from reading or writing the file.
pub fn write_bench_json(path: &str, run: &BenchRun) -> std::io::Result<()> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    // (sort key, keyed?, rendered row). Unkeyed passthrough rows sort
    // after every keyed row, in file order.
    let mut rows: Vec<(Option<RowKey>, String)> = Vec::new();
    if let Ok(existing) = std::fs::read_to_string(path) {
        if let Ok(v) = Json::parse(existing.trim()) {
            let is_v2 =
                v.get("schema_version").and_then(Json::as_u64) == Some(BENCH_SCHEMA_VERSION);
            if is_v2 {
                for item in v.get("runs").and_then(Json::as_arr).unwrap_or(&[]) {
                    match BenchRun::from_json(item) {
                        Some(parsed) => {
                            if parsed.key() != run.key() {
                                rows.push((Some(parsed.key()), parsed.render()));
                            }
                        }
                        // Not our dialect: keep the row byte-equivalent
                        // rather than silently dropping someone's data.
                        None => {
                            let key = raw_key(item);
                            if key.as_ref() != Some(&run.key()) {
                                rows.push((key, item.render()));
                            }
                        }
                    }
                }
            } else if let Some(flat) = BenchRun::from_flat_json(&v) {
                if flat.key() != run.key() {
                    rows.push((Some(flat.key()), flat.render()));
                }
            }
        }
    }
    rows.push((Some(run.key()), run.render()));
    rows.sort_by(|a, b| match (&a.0, &b.0) {
        (Some(x), Some(y)) => x.cmp(y),
        (Some(_), None) => std::cmp::Ordering::Less,
        (None, Some(_)) => std::cmp::Ordering::Greater,
        (None, None) => std::cmp::Ordering::Equal,
    });
    let body: Vec<String> = rows.into_iter().map(|(_, text)| text).collect();
    let json = format!(
        "{{\"benchmark\":\"pet-server-loadgen\",\"schema_version\":{},\"runs\":[{}]}}\n",
        BENCH_SCHEMA_VERSION,
        body.join(",")
    );
    std::fs::write(path, json)
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
    fn bench_json_merges_by_configuration() {
        let dir = std::env::temp_dir().join(format!("pet-bench-json-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_server.json");
        let path = path.to_str().unwrap();
        let plan = Plan::default();
        let mut report = BatchReport {
            ok: plan.requests,
            elapsed: Duration::from_millis(250),
            ..BatchReport::default()
        };
        report.latency_ns = vec![1_000; 16];

        write_bench_json(path, &BenchRun::new("threaded", &plan, &report)).unwrap();
        write_bench_json(path, &BenchRun::new("evented", &plan, &report)).unwrap();
        // Same key again: replaces, not appends.
        report.elapsed = Duration::from_millis(125);
        write_bench_json(path, &BenchRun::new("evented", &plan, &report)).unwrap();

        let text = std::fs::read_to_string(path).unwrap();
        let v = Json::parse(text.trim()).unwrap();
        assert_eq!(v.get("schema_version").and_then(Json::as_u64), Some(2));
        let runs = v.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(runs.len(), 2);
        let evented = runs
            .iter()
            .find(|r| r.get("backend").and_then(Json::as_str) == Some("evented"))
            .unwrap();
        assert_eq!(evented.get("elapsed_s").and_then(Json::as_f64), Some(0.125));
        assert_eq!(
            evented.get("connections").and_then(Json::as_u64),
            Some(plan.connections as u64)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Regression: a partial rerun must never lose rows it didn't measure
    /// — neither rows this dialect can't parse (preserved verbatim) nor a
    /// pre-v2 flat file (migrated into a keyed v2 row, not discarded).
    #[test]
    fn bench_json_partial_rerun_preserves_foreign_and_flat_rows() {
        let dir =
            std::env::temp_dir().join(format!("pet-bench-json-preserve-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let plan = Plan::default();
        let mut report = BatchReport {
            ok: plan.requests,
            elapsed: Duration::from_millis(250),
            ..BatchReport::default()
        };
        report.latency_ns = vec![1_000; 16];

        // A v2 file holding one parseable row and one row from a richer
        // future dialect (extra field, missing `latency_ns` so
        // `from_json` rejects it).
        let path = dir.join("BENCH_server.json");
        let path = path.to_str().unwrap();
        write_bench_json(path, &BenchRun::new("threaded", &plan, &report)).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        let foreign =
            "{\"backend\":\"evented\",\"connections\":512,\"pipeline\":8,\"cpu_pct\":93.5}";
        let text = text.replace("\"runs\":[", &format!("\"runs\":[{foreign},"));
        std::fs::write(path, text).unwrap();

        // Partial rerun of the threaded arm only.
        report.elapsed = Duration::from_millis(125);
        write_bench_json(path, &BenchRun::new("threaded", &plan, &report)).unwrap();
        let v = Json::parse(std::fs::read_to_string(path).unwrap().trim()).unwrap();
        let runs = v.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(runs.len(), 2, "foreign evented row must survive");
        let evented = runs
            .iter()
            .find(|r| r.get("backend").and_then(Json::as_str) == Some("evented"))
            .expect("foreign row preserved");
        assert_eq!(evented.get("cpu_pct").and_then(Json::as_f64), Some(93.5));
        assert_eq!(evented.get("connections").and_then(Json::as_u64), Some(512));

        // A pre-v2 flat file: the rerun migrates it instead of clobbering.
        let flat_path = dir.join("BENCH_server_flat.json");
        let flat_path = flat_path.to_str().unwrap();
        std::fs::write(
            flat_path,
            "{\"benchmark\":\"pet-server-loadgen\",\"requests\":20000,\"threads\":4,\
             \"elapsed_s\":0.5,\"latency_ns\":{\"p50\":900,\"p95\":2000,\"p99\":3000,\
             \"max\":9000},\"digest\":\"0xdead\"}\n",
        )
        .unwrap();
        write_bench_json(flat_path, &BenchRun::new("evented", &plan, &report)).unwrap();
        let v = Json::parse(std::fs::read_to_string(flat_path).unwrap().trim()).unwrap();
        let runs = v.get("runs").and_then(Json::as_arr).unwrap();
        assert_eq!(runs.len(), 2, "flat row must migrate, not vanish");
        let migrated = runs
            .iter()
            .find(|r| r.get("backend").and_then(Json::as_str) == Some("threaded"))
            .expect("flat row migrated with threaded defaults");
        assert_eq!(migrated.get("requests").and_then(Json::as_u64), Some(20000));
        assert_eq!(migrated.get("connections").and_then(Json::as_u64), Some(4));
        assert_eq!(migrated.get("pipeline").and_then(Json::as_u64), Some(1));
        assert_eq!(
            migrated.get("throughput_rps").and_then(Json::as_f64),
            Some(40000.0)
        );
        std::fs::remove_dir_all(&dir).unwrap();
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
