//! The transport-agnostic service core.
//!
//! Everything the protocol *means* lives here — verb dispatch, deadline
//! enforcement, deterministic seeding, RED metrics, the roster caches —
//! and nothing about how bytes arrive. The transport (the sharded event
//! loop behind [`crate::server::serve`]) feeds raw request lines in and
//! writes the returned reply lines out. Because every reply string is
//! produced by this module from the request alone (plus the core's
//! deterministic seed derivation), a deterministic server answers a line
//! with the same bytes as an in-process core does — the property `pet
//! loadgen --verify-deterministic` and the wire-protocol fuzzer pin.
//!
//! The split of responsibilities:
//!
//! - [`ServiceCore::handle_line`] turns one raw line into a [`Dispatch`]:
//!   an immediate reply (control verbs, parse errors, refusals), a
//!   shutdown handoff, or a work item the transport must queue.
//! - The *transport* owns queueing/backpressure (how many parsed-but-
//!   unexecuted work items may exist) and calls
//!   [`ServiceCore::refuse_overloaded`] when its bound is hit, and
//!   [`ServiceCore::execute_work`] — which re-checks the deadline against
//!   the enqueue time — for each item it accepted.
//! - Shutdown is cooperative: `dispatch` flips the shared flag (so every
//!   other connection and shard starts refusing work immediately), and
//!   hands the transport the ack line to emit once it has drained.

use crate::metrics::ServerMetrics;
use crate::proto::{
    error_reply, ok_reply, parse_request, ErrorCode, EstimateParams, MonitorParams,
    ReaderRoundParams, Request, RobustnessRequest, Verb,
};
use crate::shard::{reader_round_config, ShardCache};
use pet_core::bits::BitString;
use pet_core::config::TagMode;
use pet_core::front::Estimator;
use pet_core::monitor::{ChurnStream, Monitor, MonitorConfig};
use pet_core::oracle::{CodeRoster, ResponderOracle, RoundStart};
use pet_hash::family::AnyFamily;
use pet_obs::Summary;
use pet_sim::cache::RosterCache;
use pet_sim::experiments::robustness;
use pet_tags::dynamics::{ChurnSchedule, KeyTimeline};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Longest request line the server will read before answering
/// `bad_request` and dropping the connection (matches the JSON parser's
/// input bound).
pub const MAX_LINE_BYTES: usize = crate::json::MAX_INPUT_BYTES;

/// The serving transport that drives the [`ServiceCore`].
///
/// The sharded event loop is the only one. The type and
/// [`ServerConfig::backend`] are kept because the benchmark in
/// `perfbench/` names them, and [`Backend::name`] keys the
/// `server-loadgen` ledger rows (`evented/…`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Sharded non-blocking event loop: N shards each own a slice of the
    /// connections, sweep them with non-blocking reads/writes, and execute
    /// work inline — no per-request thread handoffs, requests pipelined
    /// per connection. Scales to tens of thousands of connections.
    #[default]
    Evented,
}

impl Backend {
    /// The stable lower-case name, which keys ledger rows.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Backend::Evented => "evented",
        }
    }
}

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`crate::server::ServerHandle::addr`]).
    pub addr: String,
    /// Serving transport; [`Backend::Evented`] is the only one.
    pub backend: Backend,
    /// Shard count: one event-loop thread per shard, each owning a slice
    /// of the connections and executing their work inline.
    pub workers: usize,
    /// Bound on parsed-but-unexecuted work items across all shards;
    /// requests beyond it get `overloaded`.
    pub queue_capacity: usize,
    /// Deterministic mode: requests without an explicit `seed` derive one
    /// from the request id alone, so equal requests produce byte-identical
    /// replies across server restarts.
    pub deterministic: bool,
    /// Deadline applied to requests that do not carry `deadline_ms`.
    pub default_deadline: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            backend: Backend::default(),
            workers: 4,
            queue_capacity: 64,
            deterministic: false,
            default_deadline: None,
        }
    }
}

/// What a transport must do with one request line, as decided by
/// [`ServiceCore::handle_line`].
pub enum Dispatch {
    /// Write this reply now; nothing to schedule.
    Reply(String),
    /// The `shutdown` verb: the shared shutting-down flag is already set.
    /// The transport must drain its in-flight work, then write `ack` (and
    /// record the latency via [`ServiceCore::record_ok`]), then close the
    /// listener.
    Shutdown {
        /// The `"drained":true` ack line to emit after the drain.
        ack: String,
    },
    /// A work item the transport should queue (subject to its capacity
    /// bound) and later run through [`ServiceCore::execute_work`].
    Work(Box<Request>),
}

/// The shared, transport-agnostic service state: one per server, shared by
/// every shard of the transport that drives it.
pub struct ServiceCore {
    metrics: ServerMetrics,
    cache: RosterCache,
    shards: ShardCache,
    deterministic: bool,
    /// XOR'd into id-derived seeds outside deterministic mode, so repeated
    /// runs do not accidentally correlate.
    seed_entropy: u64,
    default_deadline: Option<Duration>,
    shutting_down: AtomicBool,
}

impl ServiceCore {
    /// Builds the core from the shared configuration fields.
    #[must_use]
    pub fn new(config: &ServerConfig) -> Self {
        let seed_entropy = if config.deterministic {
            0
        } else {
            // Per-process entropy without any new dependency: the std
            // hasher is randomly keyed per process.
            use std::hash::{BuildHasher, Hasher};
            std::collections::hash_map::RandomState::new()
                .build_hasher()
                .finish()
        };
        Self {
            metrics: ServerMetrics::default(),
            cache: RosterCache::default(),
            shards: ShardCache::default(),
            deterministic: config.deterministic,
            seed_entropy,
            default_deadline: config.default_deadline,
            shutting_down: AtomicBool::new(false),
        }
    }

    /// The server's RED metric store.
    #[must_use]
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// A snapshot of the RED metrics.
    #[must_use]
    pub fn snapshot(&self) -> Summary {
        self.metrics.snapshot()
    }

    /// Whether the core runs in deterministic mode.
    #[must_use]
    pub fn deterministic(&self) -> bool {
        self.deterministic
    }

    /// Flips the shared shutting-down flag: every subsequent work verb is
    /// refused with `shutting_down` on all connections.
    pub fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has begun.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::SeqCst)
    }

    /// Handles one raw request line (trailing newline bytes optional).
    /// Returns `None` for blank lines (tolerated keepalives), otherwise the
    /// action the transport must take.
    pub fn handle_line(&self, raw: &[u8]) -> Option<Dispatch> {
        let Ok(text) = std::str::from_utf8(raw) else {
            self.metrics.error(ErrorCode::BadRequest);
            return Some(Dispatch::Reply(error_reply(
                None,
                ErrorCode::BadRequest,
                Some("request is not UTF-8"),
            )));
        };
        let line = text.trim();
        if line.is_empty() {
            return None;
        }
        match parse_request(line) {
            Err(e) => {
                self.metrics.error(ErrorCode::BadRequest);
                Some(Dispatch::Reply(error_reply(
                    e.id.as_deref(),
                    ErrorCode::BadRequest,
                    Some(&e.detail),
                )))
            }
            Ok(request) => Some(self.dispatch(request)),
        }
    }

    /// Routes one parsed request: control verbs answered here, work verbs
    /// handed back for the transport to queue.
    pub fn dispatch(&self, request: Request) -> Dispatch {
        self.metrics.request(request.verb.name());
        match &request.verb {
            Verb::TelemetrySnapshot => {
                let started = Instant::now();
                let snapshot = self.metrics.snapshot().to_json();
                let reply = ok_reply(
                    &request.id,
                    "telemetry-snapshot",
                    &format!("\"snapshot\":{snapshot}"),
                );
                self.metrics.ok(started.elapsed());
                Dispatch::Reply(reply)
            }
            Verb::Shutdown => {
                // Flag first: by the time the transport starts draining, no
                // connection anywhere can enqueue more work.
                self.begin_shutdown();
                Dispatch::Shutdown {
                    ack: ok_reply(&request.id, "shutdown", "\"drained\":true"),
                }
            }
            Verb::Estimate(_) | Verb::Robustness(_) | Verb::ReaderRound(_) | Verb::Monitor(_) => {
                if self.is_shutting_down() {
                    return Dispatch::Reply(self.refuse_shutting_down(&request.id));
                }
                Dispatch::Work(Box::new(request))
            }
        }
    }

    /// The structured refusal for a work item that hit the transport's
    /// capacity bound (records the overload metrics).
    #[must_use]
    pub fn refuse_overloaded(&self, id: &str) -> String {
        self.metrics.error(ErrorCode::Overloaded);
        error_reply(Some(id), ErrorCode::Overloaded, None)
    }

    /// The structured refusal for work arriving after shutdown began
    /// (records the metric).
    #[must_use]
    pub fn refuse_shutting_down(&self, id: &str) -> String {
        self.metrics.error(ErrorCode::ShuttingDown);
        error_reply(Some(id), ErrorCode::ShuttingDown, None)
    }

    /// The structured refusal (plus metric) for a line that exceeded
    /// [`MAX_LINE_BYTES`]; the transport must drop the connection after
    /// writing it — resynchronizing mid-stream is guesswork.
    #[must_use]
    pub fn refuse_oversized(&self) -> String {
        self.metrics.error(ErrorCode::BadRequest);
        error_reply(
            None,
            ErrorCode::BadRequest,
            Some(&format!("request line exceeds {MAX_LINE_BYTES} bytes")),
        )
    }

    /// Records a successful control-plane reply (the shutdown ack) with
    /// its handling latency.
    pub fn record_ok(&self, latency: Duration) {
        self.metrics.ok(latency);
    }

    /// Runs one queued work item: enforces its deadline against the time
    /// it was enqueued, executes it, and records the outcome. Always
    /// returns the reply line.
    #[must_use]
    pub fn execute_work(&self, request: &Request, enqueued: Instant) -> String {
        let deadline = request.deadline.or(self.default_deadline);
        if deadline.is_some_and(|d| enqueued.elapsed() > d) {
            self.metrics.error(ErrorCode::DeadlineExceeded);
            return error_reply(Some(&request.id), ErrorCode::DeadlineExceeded, None);
        }
        let reply = self.execute(request);
        self.metrics.ok(enqueued.elapsed());
        reply
    }

    fn execute(&self, request: &Request) -> String {
        match &request.verb {
            Verb::Estimate(params) => self.execute_estimate(&request.id, params),
            Verb::Robustness(params) => execute_robustness(&request.id, params),
            Verb::ReaderRound(params) => self.execute_reader_round(&request.id, params),
            Verb::Monitor(params) => self.execute_monitor(&request.id, params),
            // Control verbs never reach a work queue.
            Verb::TelemetrySnapshot | Verb::Shutdown => error_reply(
                Some(&request.id),
                ErrorCode::Internal,
                Some("misrouted verb"),
            ),
        }
    }

    fn execute_estimate(&self, id: &str, params: &EstimateParams) -> String {
        let seed = params
            .seed
            .unwrap_or_else(|| seed_for_id(id) ^ self.seed_entropy);
        let estimator = Estimator::new(params.config);
        let rounds = params.rounds.unwrap_or_else(|| params.config.rounds());
        let mut bank = self
            .cache
            .sequential_bank(params.tags, &params.config, estimator.family());
        let mut rng = StdRng::seed_from_u64(seed);
        match estimator.try_run_bank(&mut bank, rounds, &mut rng) {
            Ok(report) => {
                // This is the serving hot path: render the whole reply in
                // one buffer instead of composing through ok_reply, which
                // would cost two more intermediate strings per request.
                use std::fmt::Write as _;
                let mut out = String::with_capacity(192);
                let _ = write!(
                    out,
                    "{{\"id\":\"{}\",\"ok\":true,\"verb\":\"estimate\",\"estimate\":{:?},\"rounds\":{},\"mean_prefix_len\":{:?},\"slots\":{},\"seed\":{},\"deterministic\":{}",
                    crate::json::escape(id),
                    report.estimate,
                    report.rounds,
                    report.mean_prefix_len,
                    report.metrics.slots,
                    seed,
                    self.deterministic || params.seed.is_some(),
                );
                if let Some(phy) = report.phy {
                    self.metrics.phy(&phy);
                    let _ = write!(
                        out,
                        ",\"wall_ms\":{:?},\"energy_uj\":{:?}",
                        phy.wall_ms, phy.energy_uj
                    );
                }
                out.push('}');
                out
            }
            Err(e) => error_reply(Some(id), ErrorCode::Internal, Some(&e.to_string())),
        }
    }

    /// Executes one hash-synchronized estimating round against this
    /// agent's zone shard: reconstructs the shard deterministically
    /// (cached), counts raw responders for *every* prefix length
    /// `1..=height` of the announced path, and reports the counts plus the
    /// shard population. The controller applies per-reader channel models
    /// and runs the adaptive binary search itself — raw counts are what
    /// keep the fleet merge bit-for-bit equal to the in-process `pet-sim`
    /// controller, mitigation re-probes included.
    fn execute_reader_round(&self, id: &str, params: &ReaderRoundParams) -> String {
        let path = BitString::from_bits(params.path_bits, params.height)
            .expect("path validated against height at parse");
        let start = RoundStart {
            path,
            seed: params.round_seed,
        };
        let (population, counts) = if params.round_seed.is_some() {
            // Active-tag mode: codes depend on the per-round seed, so the
            // roster is rebuilt from the cached shard keys each round.
            let keys = self.shards.shard_keys(params);
            let config = reader_round_config(params, TagMode::ActivePerRound);
            let mut roster = CodeRoster::new(&keys, &config, AnyFamily::default());
            roster.begin_round(&start);
            let counts: Vec<u64> = (1..=params.height)
                .map(|len| roster.count_prefix(&start.path, len))
                .collect();
            (roster.population(), counts)
        } else {
            let roster = self.shards.passive_roster(params);
            let counts: Vec<u64> = (1..=params.height)
                .map(|len| roster.count_prefix(&start.path, len))
                .collect();
            (roster.population(), counts)
        };
        let mut body = format!(
            "\"population\":{population},\"height\":{},\"counts\":[",
            params.height
        );
        for (i, c) in counts.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&c.to_string());
        }
        body.push(']');
        ok_reply(id, "reader-round", &body)
    }

    /// Runs one bounded monitoring subscription: a synthetic population is
    /// churned by a [`ChurnSchedule`] and re-estimated `updates` times
    /// through a [`ChurnStream`], which applies each update's churn to the
    /// subscription's own code bank as a key delta. The reply is a single
    /// string carrying one `"verb":"monitor-delta"` line per update plus a
    /// final `"verb":"monitor"` summary line, joined by interior newlines —
    /// both transports write reply strings verbatim (appending one final
    /// newline), so the client sees `updates + 1` lines for the one
    /// request. Determinism is inherited from [`seed_for_id`]: the whole
    /// stream is a pure function of the request in deterministic mode.
    fn execute_monitor(&self, id: &str, params: &MonitorParams) -> String {
        let seed = params
            .seed
            .unwrap_or_else(|| seed_for_id(id) ^ self.seed_entropy);
        let monitor = match Monitor::new(MonitorConfig {
            config: params.config,
            rounds: params.rounds,
            window: params.window,
            alarm_fraction: params.alarm_fraction,
            reference: None,
            base_seed: seed,
        }) {
            Ok(m) => m,
            // Parse-time validation mirrors the monitor's own; reaching
            // this arm means the two drifted apart.
            Err(e) => return error_reply(Some(id), ErrorCode::Internal, Some(&e.to_string())),
        };
        let schedule = ChurnSchedule {
            rate: params.churn_rate,
            burst_at: params.burst_at.map(|u| u as usize),
            burst_size: params.burst_size,
        };
        let mut stream = ChurnStream::new(monitor, schedule, KeyTimeline::sequential(params.tags));

        use std::fmt::Write as _;
        let escaped = crate::json::escape(id);
        let mut out = String::with_capacity(params.updates as usize * 192 + 192);
        let mut alarms = 0u32;
        let mut first_alarm: Option<u64> = None;
        let mut final_estimate = 0.0f64;
        let mut phy_total: Option<pet_phy::PhyReport> = None;
        for _ in 0..params.updates {
            let u = match stream.next_update() {
                Ok(u) => u,
                Err(e) => return error_reply(Some(id), ErrorCode::Internal, Some(&e.to_string())),
            };
            if u.alarm {
                alarms += 1;
                first_alarm.get_or_insert(u.index);
            }
            final_estimate = u.windowed;
            if let Some(p) = u.phy {
                let t = phy_total.get_or_insert_with(Default::default);
                t.wall_ms += p.wall_ms;
                t.reader_tx_uj += p.reader_tx_uj;
                t.reader_rx_uj += p.reader_rx_uj;
                t.tag_uj += p.tag_uj;
                t.energy_uj += p.energy_uj;
            }
            let _ = writeln!(
                out,
                "{{\"id\":\"{escaped}\",\"ok\":true,\"verb\":\"monitor-delta\",\"update\":{},\"estimate\":{:?},\"windowed\":{:?},\"delta\":{:?},\"p_value\":{:?},\"population\":{},\"alarm\":{}}}",
                u.index,
                u.estimate,
                u.windowed,
                u.delta,
                u.p_value,
                stream.population(),
                u.alarm,
            );
        }
        let reference = stream.monitor().reference().unwrap_or(0.0);
        let _ = write!(
            out,
            "{{\"id\":\"{escaped}\",\"ok\":true,\"verb\":\"monitor\",\"updates\":{},\"window\":{},\"reference\":{:?},\"alarms\":{alarms},\"first_alarm\":{},\"final_estimate\":{:?},\"seed\":{seed},\"deterministic\":{}",
            params.updates,
            params.window,
            reference,
            first_alarm.map_or("null".to_string(), |a| a.to_string()),
            final_estimate,
            self.deterministic || params.seed.is_some(),
        );
        if let Some(p) = phy_total {
            self.metrics.phy(&p);
            let _ = write!(
                out,
                ",\"wall_ms\":{:?},\"energy_uj\":{:?}",
                p.wall_ms, p.energy_uj
            );
        }
        out.push('}');
        out
    }
}

/// FNV-1a over the request id — the deterministic-mode seed derivation.
#[must_use]
pub fn seed_for_id(id: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in id.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn execute_robustness(id: &str, params: &RobustnessRequest) -> String {
    let rows = robustness::sweep(&robustness::RobustnessParams {
        n: params.tags,
        rounds: params.rounds,
        runs: params.runs,
        seed: params.seed,
        miss_rates: params.miss_rates.clone(),
        false_busy: params.false_busy,
        probes: params.probes,
    });
    let mut body = String::from("\"rows\":[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&format!(
            "{{\"miss\":{:?},\"false_busy\":{:?},\"mitigated\":{},\"mean_ratio\":{:?},\"rel_bias\":{:?},\"normalized_rmse\":{:?},\"mean_slots_per_round\":{:?}}}",
            row.miss,
            row.false_busy,
            row.mitigated,
            row.mean_ratio,
            row.rel_bias,
            row.normalized_rmse,
            row.mean_slots_per_round,
        ));
    }
    body.push(']');
    ok_reply(id, "robustness", &body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_derivation_is_stable_and_spread() {
        // Pinned: deterministic mode promises the same id → the same seed
        // across builds and sessions.
        assert_eq!(seed_for_id(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(seed_for_id("r1"), {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in b"r1" {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            h
        });
        assert_ne!(seed_for_id("a"), seed_for_id("b"));
        assert_ne!(seed_for_id("t0-1"), seed_for_id("t1-0"));
    }

    #[test]
    fn config_defaults_are_sane() {
        let c = ServerConfig::default();
        assert!(c.workers > 0);
        assert!(c.queue_capacity > 0);
        assert!(!c.deterministic);
        assert_eq!(c.backend, Backend::Evented);
        assert!(c.addr.ends_with(":0"), "ephemeral port by default");
    }

    /// The `telemetry-snapshot` reply after a `monitor` request is pinned
    /// byte for byte: the verb's counter name and value must not depend on
    /// which of the metrics' tables counts it.
    #[test]
    fn monitor_requests_count_on_the_fast_path() {
        let core = ServiceCore::new(&ServerConfig {
            deterministic: true,
            ..ServerConfig::default()
        });
        assert!(matches!(
            core.handle_line(br#"{"id":"m","verb":"monitor","tags":100}"#),
            Some(Dispatch::Work(_))
        ));
        match core.handle_line(br#"{"id":"t","verb":"telemetry-snapshot"}"#) {
            Some(Dispatch::Reply(r)) => assert_eq!(
                r,
                r#"{"id":"t","ok":true,"verb":"telemetry-snapshot","snapshot":{"events":2,"counters":{"server.req.monitor":1,"server.req.telemetry-snapshot":1},"gauges":{},"spans":{}}}"#
            ),
            _ => panic!("telemetry-snapshot must reply inline"),
        }
    }

    #[test]
    fn blank_and_garbage_lines_classify() {
        let core = ServiceCore::new(&ServerConfig {
            deterministic: true,
            ..ServerConfig::default()
        });
        assert!(core.handle_line(b"  \r\n").is_none());
        match core.handle_line(b"not json\n") {
            Some(Dispatch::Reply(r)) => assert!(r.contains("bad_request"), "{r}"),
            _ => panic!("garbage must reply inline"),
        }
        match core.handle_line(&[0xff, 0xfe, b'\n']) {
            Some(Dispatch::Reply(r)) => assert!(r.contains("bad_request"), "{r}"),
            _ => panic!("non-UTF-8 must reply inline"),
        }
        match core.handle_line(br#"{"id":"w","verb":"estimate","tags":10}"#) {
            Some(Dispatch::Work(req)) => assert_eq!(req.id, "w"),
            _ => panic!("work verbs must be queued"),
        }
        core.begin_shutdown();
        match core.handle_line(br#"{"id":"w2","verb":"estimate","tags":10}"#) {
            Some(Dispatch::Reply(r)) => assert!(r.contains("shutting_down"), "{r}"),
            _ => panic!("work after shutdown must be refused"),
        }
    }

    #[test]
    fn monitor_streams_deltas_then_summary_deterministically() {
        let core = ServiceCore::new(&ServerConfig {
            deterministic: true,
            ..ServerConfig::default()
        });
        let line = br#"{"id":"m1","verb":"monitor","tags":300,"updates":5,"window":2,"rounds":8,"churn_rate":3,"burst_at":3,"burst_size":200,"epsilon":0.2,"delta":0.2}"#;
        let Some(Dispatch::Work(req)) = core.handle_line(line) else {
            panic!("monitor must be queued as work");
        };
        let reply = core.execute_work(&req, Instant::now());
        let lines: Vec<&str> = reply.lines().collect();
        assert_eq!(lines.len(), 6, "5 deltas + 1 summary:\n{reply}");
        for (i, l) in lines.iter().take(5).enumerate() {
            assert!(
                l.contains("\"verb\":\"monitor-delta\"") && l.contains(&format!("\"update\":{i}")),
                "{l}"
            );
            assert!(l.contains("\"id\":\"m1\""), "{l}");
        }
        assert!(lines[5].contains("\"verb\":\"monitor\""), "{}", lines[5]);
        assert!(lines[5].contains("\"deterministic\":true"), "{}", lines[5]);
        // The burst drops 200 of 300 tags; with alarm_fraction 0.5 and a
        // window of 2 the alarm must have fired by the last update.
        assert!(lines[4].contains("\"population\":100"), "{}", lines[4]);
        assert!(lines[5].contains("\"alarms\":"), "{}", lines[5]);
        // Deterministic mode: a second core answers byte-identically.
        let core2 = ServiceCore::new(&ServerConfig {
            deterministic: true,
            ..ServerConfig::default()
        });
        let Some(Dispatch::Work(req2)) = core2.handle_line(line) else {
            panic!("monitor must be queued as work");
        };
        assert_eq!(reply, core2.execute_work(&req2, Instant::now()));
    }

    /// The reference reply: every update rebuilds from a `Timeline` of
    /// tags through `Monitor::observe_keys`.
    fn rebuilt_monitor_reply(id: &str, params: &MonitorParams, seed: u64) -> String {
        use pet_tags::dynamics::Timeline;
        use pet_tags::population::TagPopulation;
        use std::fmt::Write as _;

        let mut monitor = Monitor::new(MonitorConfig {
            config: params.config,
            rounds: params.rounds,
            window: params.window,
            alarm_fraction: params.alarm_fraction,
            reference: None,
            base_seed: seed,
        })
        .unwrap();
        let schedule = ChurnSchedule {
            rate: params.churn_rate,
            burst_at: params.burst_at.map(|u| u as usize),
            burst_size: params.burst_size,
        };
        let mut timeline = Timeline::new(TagPopulation::sequential(params.tags));
        let mut out = String::new();
        let (mut alarms, mut first_alarm, mut final_estimate) = (0u32, None::<u64>, 0.0f64);
        let mut priced: Option<(f64, f64)> = None;
        for update in 0..params.updates as usize {
            for event in schedule.events_at(update) {
                timeline.apply(event);
            }
            let keys: Vec<u64> = timeline.population().keys().collect();
            let u = monitor.observe_keys(&keys).unwrap();
            if u.alarm {
                alarms += 1;
                first_alarm.get_or_insert(u.index);
            }
            final_estimate = u.windowed;
            if let Some(p) = u.phy {
                let (wall_ms, energy_uj) = priced.get_or_insert((0.0, 0.0));
                *wall_ms += p.wall_ms;
                *energy_uj += p.energy_uj;
            }
            writeln!(
                out,
                "{{\"id\":\"{id}\",\"ok\":true,\"verb\":\"monitor-delta\",\"update\":{},\"estimate\":{:?},\"windowed\":{:?},\"delta\":{:?},\"p_value\":{:?},\"population\":{},\"alarm\":{}}}",
                u.index, u.estimate, u.windowed, u.delta, u.p_value, keys.len(), u.alarm,
            )
            .unwrap();
        }
        write!(
            out,
            "{{\"id\":\"{id}\",\"ok\":true,\"verb\":\"monitor\",\"updates\":{},\"window\":{},\"reference\":{:?},\"alarms\":{alarms},\"first_alarm\":{},\"final_estimate\":{final_estimate:?},\"seed\":{seed},\"deterministic\":true",
            params.updates,
            params.window,
            monitor.reference().unwrap_or(0.0),
            first_alarm.map_or("null".to_string(), |a| a.to_string()),
        )
        .unwrap();
        if let Some((wall_ms, energy_uj)) = priced {
            write!(out, ",\"wall_ms\":{wall_ms:?},\"energy_uj\":{energy_uj:?}").unwrap();
        }
        out.push('}');
        out
    }

    /// `execute_monitor` applies each update's churn to one live bank as
    /// a key delta; its reply is byte for byte the rebuild's, in both tag
    /// modes. 40 rounds over 700 tags build the passive bank's prefix
    /// index, which the churn after it must drop.
    #[test]
    fn monitor_replies_equal_the_rebuild_byte_for_byte() {
        use pet_core::config::PetConfig;
        use pet_stats::accuracy::Accuracy;

        let core = ServiceCore::new(&ServerConfig {
            deterministic: true,
            ..ServerConfig::default()
        });
        let line = r#"{"id":"m","verb":"monitor","tags":700,"updates":6,"window":3,"rounds":40,"churn_rate":25,"burst_at":3,"burst_size":450,"alarm_fraction":0.6,"seed":"5eed"}"#;
        let Verb::Monitor(parsed) = crate::proto::parse_request(line).unwrap().verb else {
            panic!("a monitor request");
        };
        for (tag_mode, phy) in [
            (TagMode::PassivePreloaded, None),
            (TagMode::ActivePerRound, None),
            (
                TagMode::PassivePreloaded,
                pet_phy::PhyProfile::named("gen2"),
            ),
        ] {
            let params = MonitorParams {
                config: PetConfig::builder()
                    .accuracy(Accuracy::new(0.2, 0.2).unwrap())
                    .tag_mode(tag_mode)
                    .phy(phy)
                    .build()
                    .unwrap(),
                ..parsed.clone()
            };
            let reply = core.execute_monitor("m", &params);
            assert_eq!(reply.lines().count(), 7, "{reply}");
            assert_eq!(
                reply,
                rebuilt_monitor_reply("m", &params, 0x5eed),
                "{tag_mode:?}"
            );
        }
    }

    /// The wire ignores a `"backend"` key: an estimate and a monitor
    /// request are answered byte for byte alike whichever backend they
    /// name, and without one.
    #[test]
    fn backend_key_leaves_replies_unchanged() {
        let core = ServiceCore::new(&ServerConfig {
            deterministic: true,
            ..ServerConfig::default()
        });
        let run = |line: String| {
            let Some(Dispatch::Work(req)) = core.handle_line(line.as_bytes()) else {
                panic!("work verbs must be queued: {line}");
            };
            core.execute_work(&req, Instant::now())
        };
        for fields in [
            r#""verb":"estimate","tags":300,"rounds":24"#,
            r#""verb":"monitor","tags":300,"updates":3,"window":2,"rounds":8,"churn_rate":5"#,
        ] {
            let plain = run(format!(r#"{{"id":"b",{fields}}}"#));
            assert!(plain.contains("\"ok\":true"), "{plain}");
            for backend in ["oracle", "kernel", "gpu"] {
                let named = run(format!(r#"{{"id":"b",{fields},"backend":"{backend}"}}"#));
                assert_eq!(named, plain, "{backend}");
            }
        }
    }

    #[test]
    fn phy_profile_prices_estimate_and_monitor_replies() {
        let core = ServiceCore::new(&ServerConfig {
            deterministic: true,
            ..ServerConfig::default()
        });
        let run = |line: &[u8]| {
            let Some(Dispatch::Work(req)) = core.handle_line(line) else {
                panic!("work verbs must be queued");
            };
            core.execute_work(&req, Instant::now())
        };
        // Without the knob the reply shape is unchanged.
        let plain = run(br#"{"id":"e0","verb":"estimate","tags":200,"rounds":16}"#);
        assert!(!plain.contains("wall_ms"), "{plain}");
        // With it, estimate replies price the run...
        let priced = run(br#"{"id":"e1","verb":"estimate","tags":200,"rounds":16,"phy":"gen2"}"#);
        assert!(
            priced.contains("\"wall_ms\":") && priced.contains("\"energy_uj\":"),
            "{priced}"
        );
        // ...identically in everything else (same id → same derived seed).
        let plain1 = run(br#"{"id":"e1","verb":"estimate","tags":200,"rounds":16}"#);
        let strip = |r: &str| r.split(",\"wall_ms\"").next().unwrap().to_string();
        assert_eq!(format!("{}}}", strip(&priced)), plain1);
        // The monitor summary accumulates the whole stream's bill.
        let summary = run(
            br#"{"id":"m9","verb":"monitor","tags":200,"updates":3,"window":2,"rounds":8,"epsilon":0.2,"delta":0.2,"phy":"gen2"}"#,
        );
        let last = summary.lines().last().unwrap();
        assert!(
            last.contains("\"verb\":\"monitor\"") && last.contains("\"wall_ms\":"),
            "{last}"
        );
        // An unknown profile is a parse-time error.
        match core.handle_line(br#"{"id":"e2","verb":"estimate","tags":10,"phy":"lte"}"#) {
            Some(Dispatch::Reply(r)) => assert!(r.contains("unknown \\\"phy\\\""), "{r}"),
            _ => panic!("bad profile must reply inline"),
        }
        // The priced runs above accumulated into the snapshot counters.
        let snapshot = core.metrics.snapshot();
        assert!(snapshot.counter("phy.wall_us") > 0);
        assert!(snapshot.counter("phy.energy_nj") > 0);
    }

    /// The snapshot's PHY totals are the sums of the priced replies, to
    /// within one µs and one nJ, however short each run: a one-round
    /// estimate over 200 tags is priced at about 4 ms, and rounding each
    /// run to whole ms counted these 40 requests' 149.3 ms as 148.
    #[test]
    fn phy_snapshot_totals_equal_the_sum_of_priced_replies() {
        let core = ServiceCore::new(&ServerConfig {
            deterministic: true,
            ..ServerConfig::default()
        });
        let field = |reply: &str, name: &str| -> f64 {
            let (_, rest) = reply.split_once(&format!("\"{name}\":")).expect(name);
            rest[..rest.find([',', '}']).unwrap()].parse().unwrap()
        };
        let (mut wall_ms, mut energy_uj) = (0.0, 0.0);
        for i in 0..40 {
            let line =
                format!(r#"{{"id":"p{i}","verb":"estimate","tags":200,"rounds":1,"phy":"gen2"}}"#);
            let Some(Dispatch::Work(req)) = core.handle_line(line.as_bytes()) else {
                panic!("work verbs must be queued");
            };
            let reply = core.execute_work(&req, Instant::now());
            wall_ms += field(&reply, "wall_ms");
            energy_uj += field(&reply, "energy_uj");
        }
        let snapshot = core.metrics.snapshot();
        let wall_us = snapshot.counter("phy.wall_us") as f64;
        let energy_nj = snapshot.counter("phy.energy_nj") as f64;
        assert!(
            (wall_us - wall_ms * 1e3).abs() <= 1.0,
            "{wall_us} µs vs {wall_ms} ms"
        );
        assert!(
            (energy_nj - energy_uj * 1e3).abs() <= 1.0,
            "{energy_nj} nJ vs {energy_uj} µJ"
        );
    }
}
