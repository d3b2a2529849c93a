//! The wire protocol: one JSON object per line, request in, reply out.
//!
//! Requests:
//!
//! ```text
//! {"id":"r1","verb":"estimate","tags":5000}
//! {"id":"r2","verb":"estimate","tags":5000,"rounds":32,"seed":7,
//!  "epsilon":0.05,"delta":0.01,"miss":0.02,"false_busy":0.001,
//!  "probes":2,"deadline_ms":250}
//! {"id":"r3","verb":"robustness","tags":500,"rounds":16,"runs":4,
//!  "miss_rates":[0,0.05],"probes":2}
//! {"id":"r4","verb":"telemetry-snapshot"}
//! {"id":"r5","verb":"shutdown"}
//! {"id":"r6","verb":"reader-round","tags":4000,"zones":4,"deploy_seed":"b",
//!  "coverage":[0,1],"height":32,"manufacture_seed":"2a","path":"9f3c11e2"}
//! {"id":"r7","verb":"monitor","tags":2000,"updates":8,"window":4,
//!  "rounds":32,"churn_rate":20,"burst_at":5,"burst_size":600,
//!  "alarm_fraction":0.7,"seed":"2a"}
//! ```
//!
//! `reader-round` is the fleet agent verb: the server reconstructs its zone
//! shard deterministically from `(tags, zones, deploy_seed, coverage)` —
//! the derivation shared with `pet_sim::multireader::shard_keys` — and
//! answers with the raw responder count for **every** prefix length
//! `1..=height` of the announced estimating path, plus its shard
//! population. `u64`-valued wire fields (`path`, `deploy_seed`,
//! `manufacture_seed`, `round_seed`) travel as hex *strings* because JSON
//! numbers here are doubles and cannot carry more than 53 bits.
//!
//! Replies always echo the request `id` and carry `"ok"`:
//!
//! ```text
//! {"id":"r1","ok":true,"verb":"estimate","estimate":4993.2,...}
//! {"id":"r9","ok":false,"error":"overloaded"}
//! ```
//!
//! Error codes are closed-vocabulary (`bad_request`, `overloaded`,
//! `deadline_exceeded`, `shutting_down`, `internal`), so clients can branch
//! on them without string matching on prose; the human-readable cause rides
//! in `"detail"`. A request that cannot even be parsed far enough to
//! recover an `id` is answered with `"id":null` — the connection always
//! produces at least one reply line per request line, and exactly one for
//! every verb except `monitor`, whose single reply is a bounded *stream*:
//! one `"verb":"monitor-delta"` line per update followed by a final
//! `"verb":"monitor"` summary line, every line echoing the request `id`.

use crate::json::{escape, Json};
use pet_core::config::{Mitigation, PetConfig};
use pet_phy::channel::{ChannelModel, LossyChannel};
use pet_phy::PhyProfile;
use pet_stats::accuracy::Accuracy;
use pet_tags::dynamics::{ChurnError, ChurnSchedule};
use std::fmt;
use std::time::Duration;

/// Upper bound on `tags` a single request may ask for (10⁷ keeps one
/// request's memory in the tens of MB and a shard busy for well under a
/// second).
pub const MAX_TAGS: usize = 10_000_000;

/// Upper bound on `rounds` per request.
pub const MAX_ROUNDS: u32 = 1_000_000;

/// Upper bound on robustness `runs` per request (each run is a full
/// estimation; the sweep multiplies by `miss_rates × 2`).
pub const MAX_RUNS: usize = 256;

/// Upper bound on `zones` in a `reader-round` deployment.
pub const MAX_ZONES: u32 = 4_096;

/// Upper bound on `updates` in one `monitor` subscription (each update is
/// a full estimation; the stream carries one delta line per update).
pub const MAX_UPDATES: u32 = 1_000;

/// Upper bound on the total round budget (`updates × rounds`) of one
/// `monitor` subscription — the same ceiling a single `estimate` request
/// may spend.
pub const MAX_MONITOR_ROUNDS: u64 = MAX_ROUNDS as u64;

/// Upper bound on the number of zones one reader's `coverage` may list.
pub const MAX_COVERAGE_ZONES: usize = 256;

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen request id, echoed on the reply.
    pub id: String,
    /// What to do.
    pub verb: Verb,
    /// Server-side deadline measured from enqueue; `None` means no
    /// deadline.
    pub deadline: Option<Duration>,
}

/// The request verbs.
#[derive(Debug, Clone, PartialEq)]
pub enum Verb {
    /// Run one estimation.
    Estimate(EstimateParams),
    /// Run a small robustness sweep (accuracy vs channel fault rates).
    Robustness(RobustnessRequest),
    /// Execute one hash-synchronized estimating round against this agent's
    /// zone shard and report raw responder counts per prefix length.
    ReaderRound(ReaderRoundParams),
    /// Stream a bounded monitoring subscription: periodic re-estimates over
    /// a churning population, one delta line per update plus a summary.
    Monitor(MonitorParams),
    /// Return the server's RED metrics as JSON.
    TelemetrySnapshot,
    /// Drain in-flight work, then stop the server.
    Shutdown,
}

/// Wire names of the verbs, indexed by `Verb::index`. [`Verb::name`]
/// reads from this list and [`crate::ServerMetrics`] sizes its per-verb
/// counters by it, so the two cannot drift.
pub(crate) const VERB_NAMES: [&str; 6] = [
    "estimate",
    "robustness",
    "reader-round",
    "monitor",
    "telemetry-snapshot",
    "shutdown",
];

impl Verb {
    /// Position of the verb's wire name in `VERB_NAMES`.
    pub(crate) fn index(&self) -> usize {
        match self {
            Self::Estimate(_) => 0,
            Self::Robustness(_) => 1,
            Self::ReaderRound(_) => 2,
            Self::Monitor(_) => 3,
            Self::TelemetrySnapshot => 4,
            Self::Shutdown => 5,
        }
    }

    /// Wire name of the verb (metrics labels, reply envelopes).
    #[must_use]
    pub fn name(&self) -> &'static str {
        VERB_NAMES[self.index()]
    }
}

/// Parameters of an `estimate` request.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateParams {
    /// Population size to estimate (the service owns a synthetic
    /// sequential population per §5's methodology).
    pub tags: usize,
    /// Explicit round count; `None` derives Eq. (20) from the accuracy.
    pub rounds: Option<u32>,
    /// Explicit RNG seed; `None` lets the server derive one (from the
    /// request id in deterministic mode).
    pub seed: Option<u64>,
    /// The assembled protocol configuration.
    pub config: PetConfig,
}

/// Parameters of a `monitor` subscription: a bounded stream of periodic
/// re-estimates over a synthetic population churned by a
/// `pet_tags::dynamics::ChurnSchedule`. The `seed` field travels as a hex
/// string like the other full-width `u64` wire fields.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorParams {
    /// Initial population size.
    pub tags: usize,
    /// Number of estimation updates to stream (one delta line each).
    pub updates: u32,
    /// Sliding-window width in updates.
    pub window: usize,
    /// Rounds per update.
    pub rounds: u32,
    /// Alarm when the windowed estimate drops below this fraction of the
    /// reference population.
    pub alarm_fraction: f64,
    /// Tags joining *and* leaving per update (balanced steady churn).
    pub churn_rate: usize,
    /// Update index at which a missing-tag burst strikes.
    pub burst_at: Option<u32>,
    /// Tags lost in the burst.
    pub burst_size: usize,
    /// Explicit base RNG seed; `None` lets the server derive one (from the
    /// request id in deterministic mode).
    pub seed: Option<u64>,
    /// The assembled protocol configuration.
    pub config: PetConfig,
}

/// Parameters of a `robustness` request.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessRequest {
    /// Population size per cell.
    pub tags: usize,
    /// Rounds per trial.
    pub rounds: u32,
    /// Trials per cell.
    pub runs: usize,
    /// Base seed for the sweep.
    pub seed: u64,
    /// Miss probabilities to sweep.
    pub miss_rates: Vec<f64>,
    /// False-busy probability for lossy cells.
    pub false_busy: f64,
    /// Re-probe count for the mitigated variant.
    pub probes: u32,
}

/// Parameters of a `reader-round` request — everything an agent needs to
/// rebuild its zone shard deterministically and answer one estimating
/// round. All `u64`-valued fields travel as hex strings on the wire (JSON
/// numbers are doubles); see [`parse_request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReaderRoundParams {
    /// Total tags in the deployment (the agent sees only its shard).
    pub tags: usize,
    /// Zone count of the deployment field.
    pub zones: u32,
    /// Seed of the deterministic tag→zone scatter.
    pub deploy_seed: u64,
    /// Zones this agent's reader covers.
    pub coverage: Vec<u32>,
    /// PET tree height `H`.
    pub height: u32,
    /// Manufacture-time hashing seed; `None` uses the protocol default.
    pub manufacture_seed: Option<u64>,
    /// The round's estimating path, as raw bits (top `height` bits used).
    pub path_bits: u64,
    /// Per-round hashing seed; `Some` switches the shard to active-tag
    /// mode (codes rebuilt from this seed each round).
    pub round_seed: Option<u64>,
}

/// Closed vocabulary of reply error codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line was malformed or out of range.
    BadRequest,
    /// The server's bound on queued work was reached; retry later.
    Overloaded,
    /// The request's deadline passed before a shard started it.
    DeadlineExceeded,
    /// The server is draining and accepts no new work.
    ShuttingDown,
    /// The estimation itself failed (should not happen for validated
    /// requests).
    Internal,
}

impl ErrorCode {
    /// Wire form of the code.
    #[must_use]
    pub fn wire(self) -> &'static str {
        match self {
            Self::BadRequest => "bad_request",
            Self::Overloaded => "overloaded",
            Self::DeadlineExceeded => "deadline_exceeded",
            Self::ShuttingDown => "shutting_down",
            Self::Internal => "internal",
        }
    }
}

/// A request parse/validation failure, with the id when one was recovered.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestError {
    /// The request id, when the line parsed far enough to extract it.
    pub id: Option<String>,
    /// Human-readable cause, carried in the reply's `"detail"`.
    pub detail: String,
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.detail)
    }
}

impl std::error::Error for RequestError {}

fn bad(id: Option<&str>, detail: impl Into<String>) -> RequestError {
    RequestError {
        id: id.map(str::to_string),
        detail: detail.into(),
    }
}

fn f64_field(obj: &Json, id: &str, key: &str, default: f64) -> Result<f64, RequestError> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| bad(Some(id), format!("\"{key}\" must be a number"))),
    }
}

fn u64_field(obj: &Json, id: &str, key: &str) -> Result<Option<u64>, RequestError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => v.as_u64().map(Some).ok_or_else(|| {
            bad(
                Some(id),
                format!("\"{key}\" must be a non-negative integer"),
            )
        }),
    }
}

/// A full-width `u64` wire field: a hex string of 1..=16 digits, or (for
/// convenience with small values) a plain non-negative integer. JSON
/// numbers parse as `f64` here, so values above 2⁵³ *must* take the hex
/// form — path bits and seeds use the full 64-bit range.
fn u64_hex_field(obj: &Json, id: &str, key: &str) -> Result<Option<u64>, RequestError> {
    let complaint =
        || format!("\"{key}\" must be a hex string of 1..=16 digits or a non-negative integer");
    match obj.get(key) {
        None => Ok(None),
        Some(Json::Str(s)) => {
            if s.is_empty() || s.len() > 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
                return Err(bad(Some(id), complaint()));
            }
            u64::from_str_radix(s, 16)
                .map(Some)
                .map_err(|_| bad(Some(id), complaint()))
        }
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| bad(Some(id), complaint())),
    }
}

/// Parses and validates one request line.
///
/// # Errors
///
/// Returns [`RequestError`] (carrying the request id when recoverable) for
/// malformed JSON, unknown verbs, out-of-range parameters, or inconsistent
/// knob combinations. Never panics on any input — the fuzz suite pins this.
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    let root = Json::parse(line).map_err(|e| bad(None, format!("malformed JSON: {e}")))?;
    let Json::Obj(_) = root else {
        return Err(bad(None, "request must be a JSON object"));
    };
    let id = match root.get("id") {
        Some(Json::Str(s)) if !s.is_empty() && s.len() <= 128 => s.clone(),
        Some(Json::Str(_)) => return Err(bad(None, "\"id\" must be 1..=128 characters")),
        Some(_) => return Err(bad(None, "\"id\" must be a string")),
        None => return Err(bad(None, "missing \"id\"")),
    };
    let verb_name = root
        .get("verb")
        .and_then(Json::as_str)
        .ok_or_else(|| bad(Some(&id), "missing or non-string \"verb\""))?;

    let deadline = match u64_field(&root, &id, "deadline_ms")? {
        Some(0) => return Err(bad(Some(&id), "\"deadline_ms\" must be positive")),
        Some(ms) => Some(Duration::from_millis(ms)),
        None => None,
    };

    let verb = match verb_name {
        "estimate" => Verb::Estimate(parse_estimate(&root, &id)?),
        "robustness" => Verb::Robustness(parse_robustness(&root, &id)?),
        "reader-round" => Verb::ReaderRound(parse_reader_round(&root, &id)?),
        "monitor" => Verb::Monitor(parse_monitor(&root, &id)?),
        "telemetry-snapshot" => Verb::TelemetrySnapshot,
        "shutdown" => Verb::Shutdown,
        other => {
            return Err(bad(
                Some(&id),
                format!(
                    "unknown verb {other:?} \
                     (estimate|robustness|reader-round|monitor|telemetry-snapshot|shutdown)"
                ),
            ))
        }
    };
    Ok(Request { id, verb, deadline })
}

fn parse_channel(root: &Json, id: &str) -> Result<ChannelModel, RequestError> {
    let miss = f64_field(root, id, "miss", 0.0)?;
    let false_busy = f64_field(root, id, "false_busy", 0.0)?;
    if miss == 0.0 && false_busy == 0.0 {
        return Ok(ChannelModel::Perfect);
    }
    LossyChannel::new(miss, false_busy)
        .map(ChannelModel::Lossy)
        .map_err(|e| bad(Some(id), e.to_string()))
}

/// Assembles the protocol-configuration knobs shared by the `estimate` and
/// `monitor` verbs: `epsilon`/`delta`, the channel model
/// (`miss`/`false_busy`), the mitigation (`probes` xor `trim`), and the
/// `phy` profile.
fn parse_config(root: &Json, id: &str) -> Result<PetConfig, RequestError> {
    let epsilon = f64_field(root, id, "epsilon", 0.05)?;
    let delta = f64_field(root, id, "delta", 0.01)?;
    let accuracy = Accuracy::new(epsilon, delta).map_err(|e| bad(Some(id), e.to_string()))?;
    let channel = parse_channel(root, id)?;
    let probes = u64_field(root, id, "probes")?;
    let trim = u64_field(root, id, "trim")?;
    let mitigation = match (probes, trim) {
        (Some(_), Some(_)) => {
            return Err(bad(
                Some(id),
                "\"probes\" and \"trim\" are mutually exclusive",
            ))
        }
        (Some(p), None) => Mitigation::ReProbe {
            probes: u32::try_from(p).map_err(|_| bad(Some(id), "\"probes\" out of range"))?,
        },
        (None, Some(t)) => Mitigation::TrimmedMean {
            trim: u32::try_from(t).map_err(|_| bad(Some(id), "\"trim\" out of range"))?,
        },
        (None, None) => Mitigation::None,
    };
    let phy = match root.get("phy").map(|v| v.as_str()) {
        None => None,
        Some(Some(name)) => Some(
            PhyProfile::named(name)
                .ok_or_else(|| bad(Some(id), format!("unknown \"phy\" profile {name:?}")))?,
        ),
        Some(None) => return Err(bad(Some(id), "\"phy\" must be a profile name string")),
    };
    PetConfig::builder()
        .accuracy(accuracy)
        .channel(channel)
        .mitigation(mitigation)
        .phy(phy)
        .build()
        .map_err(|e| bad(Some(id), e.to_string()))
}

fn parse_estimate(root: &Json, id: &str) -> Result<EstimateParams, RequestError> {
    let tags = u64_field(root, id, "tags")?
        .ok_or_else(|| bad(Some(id), "estimate requires \"tags\""))? as usize;
    if tags == 0 || tags > MAX_TAGS {
        return Err(bad(Some(id), format!("\"tags\" must be 1..={MAX_TAGS}")));
    }
    let rounds = match u64_field(root, id, "rounds")? {
        Some(r) if (1..=u64::from(MAX_ROUNDS)).contains(&r) => Some(r as u32),
        Some(_) => {
            return Err(bad(
                Some(id),
                format!("\"rounds\" must be 1..={MAX_ROUNDS}"),
            ))
        }
        None => None,
    };
    let seed = u64_field(root, id, "seed")?;
    let config = parse_config(root, id)?;
    Ok(EstimateParams {
        tags,
        rounds,
        seed,
        config,
    })
}

fn parse_monitor(root: &Json, id: &str) -> Result<MonitorParams, RequestError> {
    let tags = u64_field(root, id, "tags")?
        .ok_or_else(|| bad(Some(id), "monitor requires \"tags\""))? as usize;
    if tags == 0 || tags > MAX_TAGS {
        return Err(bad(Some(id), format!("\"tags\" must be 1..={MAX_TAGS}")));
    }
    let updates = match u64_field(root, id, "updates")?.unwrap_or(8) {
        u if (1..=u64::from(MAX_UPDATES)).contains(&u) => u as u32,
        _ => {
            return Err(bad(
                Some(id),
                format!("\"updates\" must be 1..={MAX_UPDATES}"),
            ))
        }
    };
    let window = match u64_field(root, id, "window")?.unwrap_or(4) {
        w if (1..=u64::from(updates)).contains(&w) => w as usize,
        _ => return Err(bad(Some(id), "\"window\" must be 1..=updates")),
    };
    let rounds = match u64_field(root, id, "rounds")?.unwrap_or(32) {
        r if (1..=u64::from(MAX_ROUNDS)).contains(&r) => r as u32,
        _ => {
            return Err(bad(
                Some(id),
                format!("\"rounds\" must be 1..={MAX_ROUNDS}"),
            ))
        }
    };
    if u64::from(updates) * u64::from(rounds) > MAX_MONITOR_ROUNDS {
        return Err(bad(
            Some(id),
            format!("\"updates\" x \"rounds\" must be <= {MAX_MONITOR_ROUNDS}"),
        ));
    }
    let alarm_fraction = f64_field(root, id, "alarm_fraction", 0.5)?;
    if !(alarm_fraction > 0.0 && alarm_fraction < 1.0) {
        return Err(bad(Some(id), "\"alarm_fraction\" must be in (0, 1)"));
    }
    let churn_rate = u64_field(root, id, "churn_rate")?.unwrap_or(0) as usize;
    let burst_at = u64_field(root, id, "burst_at");
    let burst_size = u64_field(root, id, "burst_size");
    // Faults are reported in field order: a malformed burst field only
    // after the churn rules on the fields before it.
    let fault = ChurnSchedule {
        rate: churn_rate,
        burst_at: burst_at.as_ref().ok().and_then(|&b| b).map(|b| b as usize),
        burst_size: burst_size.as_ref().ok().and_then(|&s| s).unwrap_or(0) as usize,
    }
    .validate(tags, updates as usize)
    .err();
    let reject = |fault| {
        let detail = match fault {
            ChurnError::RateAboveTags => "\"churn_rate\" must be <= tags",
            ChurnError::BurstAfterRun => "\"burst_at\" must be < updates",
            ChurnError::BadBurstSize => "\"burst_size\" must be 1..tags when \"burst_at\" is set",
            ChurnError::RateAboveBurstSurvivors => {
                "\"churn_rate\" must be <= tags - burst_size when an update follows \"burst_at\""
            }
        };
        Err(bad(Some(id), detail))
    };
    if let Some(fault @ ChurnError::RateAboveTags) = fault {
        return reject(fault);
    }
    let burst_at = burst_at?.map(|b| b as u32);
    if let Some(fault @ ChurnError::BurstAfterRun) = fault {
        return reject(fault);
    }
    let burst_size = burst_size?.unwrap_or(0) as usize;
    if let Some(fault) = fault {
        return reject(fault);
    }
    let seed = u64_hex_field(root, id, "seed")?;
    let config = parse_config(root, id)?;
    Ok(MonitorParams {
        tags,
        updates,
        window,
        rounds,
        alarm_fraction,
        churn_rate,
        burst_at,
        burst_size,
        seed,
        config,
    })
}

fn parse_robustness(root: &Json, id: &str) -> Result<RobustnessRequest, RequestError> {
    let tags = u64_field(root, id, "tags")?.unwrap_or(500) as usize;
    if tags == 0 || tags > MAX_TAGS {
        return Err(bad(Some(id), format!("\"tags\" must be 1..={MAX_TAGS}")));
    }
    let rounds = match u64_field(root, id, "rounds")?.unwrap_or(16) {
        r if (1..=u64::from(MAX_ROUNDS)).contains(&r) => r as u32,
        _ => {
            return Err(bad(
                Some(id),
                format!("\"rounds\" must be 1..={MAX_ROUNDS}"),
            ))
        }
    };
    let runs = match u64_field(root, id, "runs")?.unwrap_or(4) {
        r if (1..=MAX_RUNS as u64).contains(&r) => r as usize,
        _ => return Err(bad(Some(id), format!("\"runs\" must be 1..={MAX_RUNS}"))),
    };
    let seed = u64_field(root, id, "seed")?.unwrap_or(0xB0B5);
    let miss_rates = match root.get("miss_rates") {
        None => vec![0.0, 0.05],
        Some(v) => {
            let items = v
                .as_arr()
                .ok_or_else(|| bad(Some(id), "\"miss_rates\" must be an array"))?;
            if items.is_empty() || items.len() > 16 {
                return Err(bad(Some(id), "\"miss_rates\" must hold 1..=16 rates"));
            }
            let mut rates = Vec::with_capacity(items.len());
            for item in items {
                let rate = item
                    .as_f64()
                    .filter(|r| (0.0..1.0).contains(r))
                    .ok_or_else(|| bad(Some(id), "\"miss_rates\" entries must be in [0, 1)"))?;
                rates.push(rate);
            }
            rates
        }
    };
    let false_busy = f64_field(root, id, "false_busy", 0.0)?;
    if !(0.0..1.0).contains(&false_busy) {
        return Err(bad(Some(id), "\"false_busy\" must be in [0, 1)"));
    }
    let probes = u32::try_from(u64_field(root, id, "probes")?.unwrap_or(2))
        .map_err(|_| bad(Some(id), "\"probes\" out of range"))?;
    Ok(RobustnessRequest {
        tags,
        rounds,
        runs,
        seed,
        miss_rates,
        false_busy,
        probes,
    })
}

fn parse_reader_round(root: &Json, id: &str) -> Result<ReaderRoundParams, RequestError> {
    let tags = u64_field(root, id, "tags")?
        .ok_or_else(|| bad(Some(id), "reader-round requires \"tags\""))? as usize;
    if tags == 0 || tags > MAX_TAGS {
        return Err(bad(Some(id), format!("\"tags\" must be 1..={MAX_TAGS}")));
    }
    let zones = match u64_field(root, id, "zones")? {
        Some(z) if (1..=u64::from(MAX_ZONES)).contains(&z) => z as u32,
        Some(_) | None => {
            return Err(bad(
                Some(id),
                format!("reader-round requires \"zones\" in 1..={MAX_ZONES}"),
            ))
        }
    };
    let deploy_seed = u64_hex_field(root, id, "deploy_seed")?
        .ok_or_else(|| bad(Some(id), "reader-round requires \"deploy_seed\""))?;
    let coverage = {
        let items = root
            .get("coverage")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad(Some(id), "reader-round requires a \"coverage\" array"))?;
        if items.is_empty() || items.len() > MAX_COVERAGE_ZONES {
            return Err(bad(
                Some(id),
                format!("\"coverage\" must list 1..={MAX_COVERAGE_ZONES} zones"),
            ));
        }
        let mut zones_covered = Vec::with_capacity(items.len());
        for item in items {
            let z = item
                .as_u64()
                .filter(|&z| z < u64::from(zones))
                .ok_or_else(|| {
                    bad(
                        Some(id),
                        "\"coverage\" entries must be zone indices < zones",
                    )
                })?;
            zones_covered.push(z as u32);
        }
        zones_covered
    };
    let height = match u64_field(root, id, "height")?.unwrap_or(32) {
        h if (1..=64).contains(&h) => h as u32,
        _ => return Err(bad(Some(id), "\"height\" must be 1..=64")),
    };
    let manufacture_seed = u64_hex_field(root, id, "manufacture_seed")?;
    let path_bits = u64_hex_field(root, id, "path")?
        .ok_or_else(|| bad(Some(id), "reader-round requires \"path\""))?;
    if height < 64 && path_bits >= 1u64 << height {
        return Err(bad(Some(id), format!("\"path\" must fit {height} bits")));
    }
    let round_seed = u64_hex_field(root, id, "round_seed")?;
    Ok(ReaderRoundParams {
        tags,
        zones,
        deploy_seed,
        coverage,
        height,
        manufacture_seed,
        path_bits,
        round_seed,
    })
}

/// Serializes an error reply. A `None` id renders as JSON `null`.
#[must_use]
pub fn error_reply(id: Option<&str>, code: ErrorCode, detail: Option<&str>) -> String {
    let id_field = match id {
        Some(id) => format!("\"{}\"", escape(id)),
        None => "null".to_string(),
    };
    match detail {
        Some(d) => format!(
            "{{\"id\":{id_field},\"ok\":false,\"error\":\"{}\",\"detail\":\"{}\"}}",
            code.wire(),
            escape(d)
        ),
        None => format!(
            "{{\"id\":{id_field},\"ok\":false,\"error\":\"{}\"}}",
            code.wire()
        ),
    }
}

/// Serializes a success reply: the envelope (`id`, `ok`, `verb`) followed
/// by `body` fields (a pre-rendered `"k":v,...` fragment; may be empty).
#[must_use]
pub fn ok_reply(id: &str, verb: &str, body: &str) -> String {
    if body.is_empty() {
        format!(
            "{{\"id\":\"{}\",\"ok\":true,\"verb\":\"{verb}\"}}",
            escape(id)
        )
    } else {
        format!(
            "{{\"id\":\"{}\",\"ok\":true,\"verb\":\"{verb}\",{body}}}",
            escape(id)
        )
    }
}

/// One valid request line per verb, in `VERB_NAMES` order.
#[cfg(test)]
pub(crate) const ONE_REQUEST_PER_VERB: [&str; VERB_NAMES.len()] = [
    r#"{"id":"v","verb":"estimate","tags":10}"#,
    r#"{"id":"v","verb":"robustness"}"#,
    r#"{"id":"v","verb":"reader-round","tags":10,"zones":2,"deploy_seed":7,"coverage":[1],"path":3}"#,
    r#"{"id":"v","verb":"monitor","tags":10}"#,
    r#"{"id":"v","verb":"telemetry-snapshot"}"#,
    r#"{"id":"v","verb":"shutdown"}"#,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_estimate() {
        let r = parse_request(r#"{"id":"a","verb":"estimate","tags":100}"#).unwrap();
        assert_eq!(r.id, "a");
        assert_eq!(r.deadline, None);
        match r.verb {
            Verb::Estimate(p) => {
                assert_eq!(p.tags, 100);
                assert_eq!(p.rounds, None);
                assert_eq!(p.seed, None);
                assert_eq!(p.config.channel(), ChannelModel::Perfect);
            }
            other => panic!("wrong verb {other:?}"),
        }
    }

    #[test]
    fn parses_full_estimate_knobs() {
        let r = parse_request(
            r#"{"id":"b","verb":"estimate","tags":500,"rounds":32,"seed":7,
                "epsilon":0.2,"delta":0.2,"miss":0.05,
                "false_busy":0.01,"probes":2,"deadline_ms":250}"#,
        )
        .unwrap();
        assert_eq!(r.deadline, Some(Duration::from_millis(250)));
        match r.verb {
            Verb::Estimate(p) => {
                assert_eq!(p.rounds, Some(32));
                assert_eq!(p.seed, Some(7));
                assert!(matches!(p.config.channel(), ChannelModel::Lossy(_)));
                assert_eq!(p.config.mitigation(), Mitigation::ReProbe { probes: 2 });
            }
            other => panic!("wrong verb {other:?}"),
        }
    }

    #[test]
    fn parses_control_verbs() {
        let r = parse_request(r#"{"id":"t","verb":"telemetry-snapshot"}"#).unwrap();
        assert_eq!(r.verb, Verb::TelemetrySnapshot);
        let r = parse_request(r#"{"id":"s","verb":"shutdown"}"#).unwrap();
        assert_eq!(r.verb, Verb::Shutdown);
        assert_eq!(r.verb.name(), "shutdown");
    }

    #[test]
    fn robustness_defaults_and_bounds() {
        let r = parse_request(r#"{"id":"r","verb":"robustness"}"#).unwrap();
        match r.verb {
            Verb::Robustness(p) => {
                assert_eq!((p.tags, p.rounds, p.runs, p.probes), (500, 16, 4, 2));
                assert_eq!(p.miss_rates, vec![0.0, 0.05]);
            }
            other => panic!("wrong verb {other:?}"),
        }
        for bad in [
            r#"{"id":"r","verb":"robustness","miss_rates":[]}"#,
            r#"{"id":"r","verb":"robustness","miss_rates":[1.5]}"#,
            r#"{"id":"r","verb":"robustness","runs":100000}"#,
            r#"{"id":"r","verb":"robustness","false_busy":2}"#,
        ] {
            let e = parse_request(bad).unwrap_err();
            assert_eq!(e.id.as_deref(), Some("r"), "id recovered for {bad}");
        }
    }

    #[test]
    fn parses_reader_round_with_hex_fields() {
        let r = parse_request(
            r#"{"id":"rr","verb":"reader-round","tags":4000,"zones":4,
                "deploy_seed":"b","coverage":[0,1],"height":32,
                "manufacture_seed":"ffffffffffffffff","path":"9f3c11e2",
                "round_seed":"deadbeefcafef00d","deadline_ms":500}"#,
        )
        .unwrap();
        match r.verb {
            Verb::ReaderRound(p) => {
                assert_eq!(p.tags, 4000);
                assert_eq!(p.zones, 4);
                assert_eq!(p.deploy_seed, 0xb);
                assert_eq!(p.coverage, vec![0, 1]);
                assert_eq!(p.height, 32);
                assert_eq!(p.manufacture_seed, Some(u64::MAX));
                assert_eq!(p.path_bits, 0x9f3c_11e2);
                assert_eq!(p.round_seed, Some(0xdead_beef_cafe_f00d));
            }
            other => panic!("wrong verb {other:?}"),
        }
        // Small values may ride as plain numbers; height defaults to 32.
        let r = parse_request(
            r#"{"id":"rr","verb":"reader-round","tags":10,"zones":2,
                "deploy_seed":7,"coverage":[1],"path":3}"#,
        )
        .unwrap();
        match r.verb {
            Verb::ReaderRound(p) => {
                assert_eq!((p.deploy_seed, p.path_bits, p.height), (7, 3, 32));
                assert_eq!(p.manufacture_seed, None);
                assert_eq!(p.round_seed, None);
            }
            other => panic!("wrong verb {other:?}"),
        }
    }

    #[test]
    fn reader_round_validation_rejects_bad_shapes() {
        for bad in [
            // missing required fields
            r#"{"id":"x","verb":"reader-round"}"#,
            r#"{"id":"x","verb":"reader-round","tags":10,"zones":2,"coverage":[0],"path":"1"}"#,
            r#"{"id":"x","verb":"reader-round","tags":10,"zones":2,"deploy_seed":"1","path":"1"}"#,
            r#"{"id":"x","verb":"reader-round","tags":10,"zones":2,"deploy_seed":"1","coverage":[0]}"#,
            // out-of-range shapes
            r#"{"id":"x","verb":"reader-round","tags":0,"zones":2,"deploy_seed":"1","coverage":[0],"path":"1"}"#,
            r#"{"id":"x","verb":"reader-round","tags":10,"zones":0,"deploy_seed":"1","coverage":[0],"path":"1"}"#,
            r#"{"id":"x","verb":"reader-round","tags":10,"zones":2,"deploy_seed":"1","coverage":[],"path":"1"}"#,
            r#"{"id":"x","verb":"reader-round","tags":10,"zones":2,"deploy_seed":"1","coverage":[5],"path":"1"}"#,
            r#"{"id":"x","verb":"reader-round","tags":10,"zones":2,"deploy_seed":"1","coverage":[0],"path":"1","height":65}"#,
            // path wider than the tree
            r#"{"id":"x","verb":"reader-round","tags":10,"zones":2,"deploy_seed":"1","coverage":[0],"path":"100","height":8}"#,
            // malformed hex
            r#"{"id":"x","verb":"reader-round","tags":10,"zones":2,"deploy_seed":"xyz","coverage":[0],"path":"1"}"#,
            r#"{"id":"x","verb":"reader-round","tags":10,"zones":2,"deploy_seed":"11223344556677889","coverage":[0],"path":"1"}"#,
        ] {
            let e = parse_request(bad).unwrap_err();
            assert_eq!(e.id.as_deref(), Some("x"), "{bad}");
        }
        // A height-64 path uses the full u64 range.
        let r = parse_request(
            r#"{"id":"y","verb":"reader-round","tags":10,"zones":2,"deploy_seed":"1",
                "coverage":[0],"path":"ffffffffffffffff","height":64}"#,
        )
        .unwrap();
        assert!(matches!(r.verb, Verb::ReaderRound(p) if p.path_bits == u64::MAX));
    }

    /// Every wire name in `VERB_NAMES` parses to the verb whose `index`
    /// points back at it.
    #[test]
    fn verb_names_round_trip_through_index() {
        for (i, line) in ONE_REQUEST_PER_VERB.iter().enumerate() {
            let verb = parse_request(line).unwrap().verb;
            assert_eq!(verb.index(), i, "{line}");
            assert_eq!(verb.name(), VERB_NAMES[i]);
        }
    }

    #[test]
    fn parses_monitor_defaults_and_full_knobs() {
        let r = parse_request(r#"{"id":"m","verb":"monitor","tags":2000}"#).unwrap();
        match r.verb {
            Verb::Monitor(p) => {
                assert_eq!((p.tags, p.updates, p.window, p.rounds), (2000, 8, 4, 32));
                assert_eq!(p.alarm_fraction, 0.5);
                assert_eq!((p.churn_rate, p.burst_at, p.burst_size), (0, None, 0));
                assert_eq!(p.seed, None);
            }
            other => panic!("wrong verb {other:?}"),
        }
        let r = parse_request(
            r#"{"id":"m","verb":"monitor","tags":2000,"updates":8,"window":4,
                "rounds":16,"churn_rate":20,"burst_at":5,"burst_size":600,
                "alarm_fraction":0.7,"seed":"deadbeefcafef00d"}"#,
        )
        .unwrap();
        assert_eq!(r.verb.name(), "monitor");
        match r.verb {
            Verb::Monitor(p) => {
                assert_eq!(p.rounds, 16);
                assert_eq!(p.churn_rate, 20);
                assert_eq!((p.burst_at, p.burst_size), (Some(5), 600));
                assert_eq!(p.alarm_fraction, 0.7);
                assert_eq!(p.seed, Some(0xdead_beef_cafe_f00d));
            }
            other => panic!("wrong verb {other:?}"),
        }
    }

    #[test]
    fn monitor_validation_rejects_bad_shapes() {
        for bad in [
            // missing/zero tags
            r#"{"id":"m","verb":"monitor"}"#,
            r#"{"id":"m","verb":"monitor","tags":0}"#,
            // update/window/round bounds
            r#"{"id":"m","verb":"monitor","tags":10,"updates":0}"#,
            r#"{"id":"m","verb":"monitor","tags":10,"updates":100000}"#,
            r#"{"id":"m","verb":"monitor","tags":10,"updates":4,"window":5}"#,
            r#"{"id":"m","verb":"monitor","tags":10,"window":0}"#,
            r#"{"id":"m","verb":"monitor","tags":10,"rounds":0}"#,
            // total round budget
            r#"{"id":"m","verb":"monitor","tags":10,"updates":1000,"rounds":10000}"#,
            // alarm fraction open interval
            r#"{"id":"m","verb":"monitor","tags":10,"alarm_fraction":0}"#,
            r#"{"id":"m","verb":"monitor","tags":10,"alarm_fraction":1}"#,
            // churn/burst shapes
            r#"{"id":"m","verb":"monitor","tags":10,"churn_rate":11}"#,
            r#"{"id":"m","verb":"monitor","tags":10,"burst_at":8}"#,
            r#"{"id":"m","verb":"monitor","tags":10,"burst_at":2}"#,
            r#"{"id":"m","verb":"monitor","tags":10,"burst_at":2,"burst_size":10}"#,
            // config knobs flow through the shared parser
            r#"{"id":"m","verb":"monitor","tags":10,"epsilon":2}"#,
        ] {
            let e = parse_request(bad).unwrap_err();
            assert_eq!(e.id.as_deref(), Some("m"), "{bad}");
        }
    }

    /// Each churn fault has its own reply detail, and of two faults the
    /// one in the earlier field is reported.
    #[test]
    fn churn_faults_keep_their_details() {
        let integer = |key: &str| format!("\"{key}\" must be a non-negative integer");
        let rate = "\"churn_rate\" must be <= tags".to_string();
        let at = "\"burst_at\" must be < updates".to_string();
        let size = "\"burst_size\" must be 1..tags when \"burst_at\" is set".to_string();
        let survivors =
            "\"churn_rate\" must be <= tags - burst_size when an update follows \"burst_at\""
                .to_string();
        for (fields, want) in [
            (r#""churn_rate":11"#, &rate),
            (r#""burst_at":8"#, &at),
            (r#""burst_at":2"#, &size),
            (r#""burst_at":2,"burst_size":10"#, &size),
            (r#""churn_rate":11,"burst_at":"x""#, &rate),
            (r#""churn_rate":11,"burst_at":9,"burst_size":0"#, &rate),
            (r#""burst_at":"x","burst_size":0"#, &integer("burst_at")),
            (r#""burst_at":8,"burst_size":"x""#, &at),
            (r#""burst_at":2,"burst_size":"x""#, &integer("burst_size")),
            (r#""burst_size":"x""#, &integer("burst_size")),
            (r#""churn_rate":2,"burst_at":6,"burst_size":9"#, &survivors),
            (r#""churn_rate":11,"burst_at":6,"burst_size":9"#, &rate),
            (r#""churn_rate":2,"burst_at":8,"burst_size":9"#, &at),
            (r#""churn_rate":2,"burst_at":6,"burst_size":10"#, &size),
            (
                r#""churn_rate":2,"burst_at":6,"burst_size":"x""#,
                &integer("burst_size"),
            ),
        ] {
            let line = format!(r#"{{"id":"m","verb":"monitor","tags":10,{fields}}}"#);
            let e = parse_request(&line).unwrap_err();
            assert_eq!(&e.detail, want, "{fields}");
        }
    }

    #[test]
    fn rejects_bad_requests_with_recovered_id() {
        // Parses far enough to echo the id back.
        for bad in [
            r#"{"id":"x","verb":"warp"}"#,
            r#"{"id":"x","verb":"estimate"}"#,
            r#"{"id":"x","verb":"estimate","tags":0}"#,
            r#"{"id":"x","verb":"estimate","tags":100,"rounds":0}"#,
            r#"{"id":"x","verb":"estimate","tags":100,"epsilon":2}"#,
            r#"{"id":"x","verb":"estimate","tags":100,"miss":1.5}"#,
            r#"{"id":"x","verb":"estimate","tags":100,"probes":1,"trim":1}"#,
            r#"{"id":"x","verb":"estimate","tags":100,"deadline_ms":0}"#,
        ] {
            let e = parse_request(bad).unwrap_err();
            assert_eq!(e.id.as_deref(), Some("x"), "{bad}");
        }
        // Cannot even recover an id.
        for bad in [
            "",
            "nonsense",
            "[1]",
            r#"{"verb":"estimate"}"#,
            r#"{"id":7}"#,
        ] {
            assert_eq!(parse_request(bad).unwrap_err().id, None, "{bad:?}");
        }
    }

    #[test]
    fn replies_render_stable_json() {
        assert_eq!(
            error_reply(None, ErrorCode::BadRequest, Some("oops \"x\"")),
            r#"{"id":null,"ok":false,"error":"bad_request","detail":"oops \"x\""}"#
        );
        assert_eq!(
            error_reply(Some("a"), ErrorCode::Overloaded, None),
            r#"{"id":"a","ok":false,"error":"overloaded"}"#
        );
        assert_eq!(
            ok_reply("a", "shutdown", ""),
            r#"{"id":"a","ok":true,"verb":"shutdown"}"#
        );
        assert_eq!(
            ok_reply("a", "estimate", "\"estimate\":12.5"),
            r#"{"id":"a","ok":true,"verb":"estimate","estimate":12.5}"#
        );
        // Round-trip: replies are themselves valid protocol JSON.
        for line in [
            error_reply(Some("z"), ErrorCode::DeadlineExceeded, Some("late")),
            ok_reply("z", "estimate", "\"estimate\":1.0,\"rounds\":2"),
        ] {
            let v = Json::parse(&line).unwrap();
            assert_eq!(v.get("id").and_then(Json::as_str), Some("z"));
        }
    }
}
