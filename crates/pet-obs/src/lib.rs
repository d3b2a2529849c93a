//! Observability for the PET reproduction — zero dependencies, near-zero
//! disabled cost.
//!
//! Paper-scale sweeps (fig4/fig6/table3: thousands of rounds × 10⁵ tags ×
//! 300 runs) leave no visibility into where rounds/s goes: hashing,
//! sorting, cache misses, trial scheduling. This crate provides the three
//! primitives the hot paths need and a pluggable backend to ship them to:
//!
//! - [`Event`]: counters, gauges, and span (duration) samples, each with a
//!   JSONL wire form ([`Event::to_jsonl`] / [`Event::parse_jsonl`]).
//! - [`Histogram`]: fixed log-2 buckets for duration/size distributions —
//!   65 buckets cover the full `u64` range with no allocation.
//! - [`Sink`]: where events go. [`NoopSink`] drops them, [`MemorySink`]
//!   accumulates them for tests and in-process summaries, [`JsonlSink`]
//!   streams them to a file for offline analysis
//!   (`pet telemetry summarize`).
//! - [`Summary`]: aggregates an event stream back into named counters,
//!   gauges, and span histograms — the read side of the JSONL schema.
//!
//! # The global handle
//!
//! Instrumented code calls the free functions [`counter`], [`gauge`], and
//! [`span`], which consult a process-wide handle. **When no sink is
//! installed the entire cost is one relaxed atomic load and a branch** —
//! no allocation, no locking, no `Instant::now()`. That is not free on the
//! hottest loop: the kernel's three per-round call sites (the `core.round`
//! span and its counters) measured ≈ 9–20 ns of a 98–102 ns round at
//! n = 10⁴ with no sink installed (2 vCPUs, AVX2), so
//! `pet-core`'s lossless kernel loop reads [`enabled`] once per run
//! instead, and a sink installed mid-run counts from its next run.
//! Enabling is explicit and process-wide:
//!
//! ```
//! use pet_obs::{self as obs, MemorySink};
//! use std::sync::Arc;
//!
//! let sink = Arc::new(MemorySink::default());
//! obs::install(sink.clone());
//! obs::counter("demo.widgets", 3);
//! {
//!     let _span = obs::span("demo.work"); // records its duration on drop
//! }
//! obs::shutdown(); // flush + disable
//! let summary = sink.summary();
//! assert_eq!(summary.counter("demo.widgets"), 3);
//! assert_eq!(summary.span_stats("demo.work").unwrap().count, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod global;
mod hist;
mod sink;
mod summary;

pub use event::{Event, ParseError};
pub use global::{counter, enabled, flush, gauge, install, record, shutdown, span, Span};
pub use hist::Histogram;
pub use sink::{JsonlSink, MemorySink, NoopSink, Sink};
pub use summary::{SpanStats, Summary};
