//! RED metrics (rate, errors, duration) for the serving layer.
//!
//! The server keeps its own tallies rather than installing a
//! process-global sink: tests and embedding binaries may already own the
//! global handle (`--telemetry`), and the `telemetry-snapshot` verb must
//! read *this server's* numbers regardless. Every recording also forwards
//! through the `pet_obs` free functions, so when a global JSONL sink *is*
//! installed the server's events stream there too.
//!
//! This sits on the per-request hot path of both serving backends, so the
//! known names — every verb in `proto::VERB_NAMES`, the list
//! [`Verb::name`] reads, and the five error codes — are kept as plain
//! atomic counters and the latency histogram behind one short mutex; a
//! [`pet_obs::Summary`] is materialized only when
//! [`ServerMetrics::snapshot`] is asked for one. A name outside that list
//! falls back to a locked map so nothing is ever dropped.
//!
//! [`Verb::name`]: crate::proto::Verb::name
//!
//! Metric names:
//!
//! - `server.req.<verb>` — requests accepted per verb (rate)
//! - `server.ok` / `server.err.<code>` — reply outcomes (errors)
//! - `server.overload` — requests refused by the full queue
//! - span `server.request` — queue-to-reply latency (duration; log₂
//!   histogram via [`pet_obs::Histogram`])

use crate::proto::{ErrorCode, VERB_NAMES};
use pet_obs::{Event, Histogram, SpanStats, Summary};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Latency span accumulator (count/total live in the histogram's own
/// fields would drift on saturation; keep them explicit like
/// [`SpanStats`]).
#[derive(Debug, Default)]
struct LatencyAccum {
    count: u64,
    total_nanos: u64,
    histogram: Option<Histogram>,
}

/// The server's metric store. All methods are `&self`; share via `Arc`.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    req: [AtomicU64; VERB_NAMES.len()],
    req_other: Mutex<BTreeMap<&'static str, u64>>,
    ok: AtomicU64,
    overload: AtomicU64,
    err: [AtomicU64; 5],
    events: AtomicU64,
    latency: Mutex<LatencyAccum>,
    phy_wall_ms: AtomicU64,
    phy_energy_uj: AtomicU64,
}

impl ServerMetrics {
    /// Records an accepted request of `verb`.
    pub fn request(&self, verb: &'static str) {
        self.events.fetch_add(1, Ordering::Relaxed);
        if let Some(i) = VERB_NAMES.iter().position(|v| *v == verb) {
            self.req[i].fetch_add(1, Ordering::Relaxed);
        } else {
            *self
                .req_other
                .lock()
                .expect("metrics poisoned")
                .entry(verb)
                .or_default() += 1;
        }
        if pet_obs::enabled() {
            forward(&Event::Counter {
                name: format!("server.req.{verb}").into(),
                delta: 1,
            });
        }
    }

    /// Records a successful reply and its queue-to-reply latency.
    pub fn ok(&self, latency: Duration) {
        self.events.fetch_add(1, Ordering::Relaxed);
        self.ok.fetch_add(1, Ordering::Relaxed);
        forward(&Event::Counter {
            name: "server.ok".into(),
            delta: 1,
        });
        self.latency(latency);
    }

    /// Records an error reply of the given code (and latency when the
    /// request reached a worker).
    pub fn error(&self, code: ErrorCode) {
        if code == ErrorCode::Overloaded {
            self.events.fetch_add(1, Ordering::Relaxed);
            self.overload.fetch_add(1, Ordering::Relaxed);
            forward(&Event::Counter {
                name: "server.overload".into(),
                delta: 1,
            });
        }
        self.events.fetch_add(1, Ordering::Relaxed);
        self.err[code_index(code)].fetch_add(1, Ordering::Relaxed);
        let name: std::borrow::Cow<'static, str> = match code {
            ErrorCode::BadRequest => "server.err.bad_request".into(),
            ErrorCode::Overloaded => "server.err.overloaded".into(),
            ErrorCode::DeadlineExceeded => "server.err.deadline_exceeded".into(),
            ErrorCode::ShuttingDown => "server.err.shutting_down".into(),
            ErrorCode::Internal => "server.err.internal".into(),
        };
        forward(&Event::Counter { name, delta: 1 });
    }

    /// Accumulates one run's PHY pricing into the snapshot counters
    /// (rounded to whole ms/µJ). No global-sink forward here: the
    /// per-run `phy.wall_ms`/`phy.energy_uj` events are already emitted
    /// by `pet-core`'s fold, and doubling them would skew JSONL sums.
    pub fn phy(&self, report: &pet_phy::PhyReport) {
        self.events.fetch_add(1, Ordering::Relaxed);
        self.phy_wall_ms
            .fetch_add(report.wall_ms.round() as u64, Ordering::Relaxed);
        self.phy_energy_uj
            .fetch_add(report.energy_uj.round() as u64, Ordering::Relaxed);
    }

    /// Records a request latency sample into the log₂ histogram.
    pub fn latency(&self, latency: Duration) {
        let nanos = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        self.events.fetch_add(1, Ordering::Relaxed);
        {
            let mut lat = self.latency.lock().expect("metrics poisoned");
            lat.count += 1;
            lat.total_nanos = lat.total_nanos.saturating_add(nanos);
            lat.histogram
                .get_or_insert_with(Histogram::new)
                .record(nanos);
        }
        forward(&Event::Span {
            name: "server.request".into(),
            nanos,
        });
    }

    /// A point-in-time snapshot of every counter and the latency
    /// histogram, materialized as a [`Summary`]. Names that were never
    /// recorded are absent, exactly as if the summary had been
    /// event-accumulated.
    #[must_use]
    pub fn snapshot(&self) -> Summary {
        let mut summary = Summary::default();
        summary.set_events(self.events.load(Ordering::Relaxed));
        for (verb, total) in VERB_NAMES.iter().zip(&self.req) {
            let total = total.load(Ordering::Relaxed);
            if total > 0 {
                summary.set_counter(&format!("server.req.{verb}"), total);
            }
        }
        for (verb, total) in self.req_other.lock().expect("metrics poisoned").iter() {
            summary.set_counter(&format!("server.req.{verb}"), *total);
        }
        let ok = self.ok.load(Ordering::Relaxed);
        if ok > 0 {
            summary.set_counter("server.ok", ok);
        }
        let overload = self.overload.load(Ordering::Relaxed);
        if overload > 0 {
            summary.set_counter("server.overload", overload);
        }
        for code in [
            ErrorCode::BadRequest,
            ErrorCode::Overloaded,
            ErrorCode::DeadlineExceeded,
            ErrorCode::ShuttingDown,
            ErrorCode::Internal,
        ] {
            let total = self.err[code_index(code)].load(Ordering::Relaxed);
            if total > 0 {
                summary.set_counter(&format!("server.err.{}", code.wire()), total);
            }
        }
        let wall_ms = self.phy_wall_ms.load(Ordering::Relaxed);
        if wall_ms > 0 {
            summary.set_counter("phy.wall_ms", wall_ms);
        }
        let energy_uj = self.phy_energy_uj.load(Ordering::Relaxed);
        if energy_uj > 0 {
            summary.set_counter("phy.energy_uj", energy_uj);
        }
        let lat = self.latency.lock().expect("metrics poisoned");
        if let Some(histogram) = &lat.histogram {
            summary.set_span(
                "server.request",
                SpanStats {
                    count: lat.count,
                    total_nanos: lat.total_nanos,
                    histogram: histogram.clone(),
                },
            );
        }
        summary
    }
}

fn code_index(code: ErrorCode) -> usize {
    match code {
        ErrorCode::BadRequest => 0,
        ErrorCode::Overloaded => 1,
        ErrorCode::DeadlineExceeded => 2,
        ErrorCode::ShuttingDown => 3,
        ErrorCode::Internal => 4,
    }
}

/// Forwards to the process-global sink; the event structs here are all
/// borrowed-name literals, so this is free when telemetry is disabled.
fn forward(event: &Event) {
    pet_obs::record(event);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn red_counters_accumulate() {
        let m = ServerMetrics::default();
        m.request("estimate");
        m.request("estimate");
        m.request("shutdown");
        m.ok(Duration::from_micros(120));
        m.ok(Duration::from_micros(250));
        m.error(ErrorCode::Overloaded);
        m.error(ErrorCode::BadRequest);
        let s = m.snapshot();
        assert_eq!(s.counter("server.req.estimate"), 2);
        assert_eq!(s.counter("server.req.shutdown"), 1);
        assert_eq!(s.counter("server.ok"), 2);
        assert_eq!(s.counter("server.overload"), 1);
        assert_eq!(s.counter("server.err.overloaded"), 1);
        assert_eq!(s.counter("server.err.bad_request"), 1);
        let spans = s.span_stats("server.request").unwrap();
        assert_eq!(spans.count, 2);
        assert!(spans.histogram.max().unwrap() >= 250_000);
    }

    #[test]
    fn snapshot_is_point_in_time() {
        let m = ServerMetrics::default();
        m.request("estimate");
        let before = m.snapshot();
        m.request("estimate");
        assert_eq!(before.counter("server.req.estimate"), 1);
        assert_eq!(m.snapshot().counter("server.req.estimate"), 2);
    }

    #[test]
    fn event_totals_match_recorded_events() {
        let m = ServerMetrics::default();
        m.request("estimate"); // 1 event
        m.ok(Duration::from_micros(10)); // counter + span = 2 events
        m.error(ErrorCode::Overloaded); // overload + err counter = 2 events
        m.error(ErrorCode::Internal); // 1 event
        assert_eq!(m.snapshot().events(), 6);
    }

    #[test]
    fn every_verb_counts_on_the_fast_path() {
        let m = ServerMetrics::default();
        for verb in VERB_NAMES {
            m.request(verb);
        }
        assert!(m.req_other.lock().unwrap().is_empty());
        assert!(m.req.iter().all(|n| n.load(Ordering::Relaxed) == 1));
        let s = m.snapshot();
        for verb in VERB_NAMES {
            assert_eq!(s.counter(&format!("server.req.{verb}")), 1, "{verb}");
        }
    }

    #[test]
    fn unknown_verbs_are_still_counted() {
        let m = ServerMetrics::default();
        m.request("future-verb");
        assert_eq!(m.snapshot().counter("server.req.future-verb"), 1);
    }
}
