//! # pet-server — the PET estimation *service*
//!
//! Everything before this crate was one-shot: a CLI call or a simulation
//! sweep that estimates once and exits. Real deployments run estimation as
//! a continuously queried back-end (the paper's §4.6.3 multi-reader
//! controller already *is* a back-end collecting reader reports), so this
//! crate turns the reproduction into a long-running daemon:
//!
//! - **Protocol** ([`proto`]): line-delimited JSON over TCP. Verbs:
//!   `estimate`, `robustness`, `reader-round`, `monitor`,
//!   `telemetry-snapshot`, `shutdown`. One request line in, one reply out —
//!   always, including for garbage input ([`json`] is a strict bounded
//!   parser, fuzz-pinned). Every reply is a single line except `monitor`'s,
//!   a bounded stream of delta lines capped by a summary line.
//! - **Monitoring** (`monitor`): a subscription-style verb streaming
//!   periodic re-estimates of a churning population —
//!   [`pet_core::monitor`] driven by `pet_tags::dynamics::ChurnSchedule`
//!   server-side — with sliding-window smoothing and a missing-tag alarm.
//! - **Fleet agent** (`reader-round`): the server doubles as one reader of
//!   a distributed fleet. It reconstructs its zone shard deterministically
//!   from four wire-size scalars (the derivation shared with
//!   `pet_sim::multireader::shard_keys`) and answers each
//!   hash-synchronized round with raw responder counts per prefix length,
//!   which the `pet-fleet` coordinator OR-merges across readers.
//! - **Service core** ([`service`]): the transport-agnostic
//!   parse→dispatch→respond brain — verbs, deadlines, deterministic
//!   seeding, metrics. Every reply byte comes from here, so a reply is a
//!   function of its request line alone, whatever the transport.
//! - **Transport** ([`server`]): one acceptor thread deals connections
//!   onto N sharded non-blocking event loops, which execute pipelined
//!   requests inline. A shard that owns no connection parks, so the
//!   server's threads are fixed by its shard count and an idle server
//!   costs no CPU. Overflow is answered `overloaded` immediately —
//!   backpressure instead of buffering — and every request may carry a
//!   `deadline_ms` the server enforces before starting work.
//! - **Lifecycle**: the `shutdown` verb (or [`ServerHandle::shutdown`])
//!   closes intake, completes and replies to every queued job, and only
//!   then closes the listener socket.
//! - **Observability** ([`metrics`]): RED metrics — request rate per verb,
//!   error/overload counts, log₂ latency histograms — kept in
//!   [`pet_obs::Summary`] form and served by the `telemetry-snapshot`
//!   verb; forwarded to the process-global `pet-obs` sink when one is
//!   installed.
//! - **Determinism**: in deterministic mode, a request without an explicit
//!   seed derives one from its id ([`seed_for_id`]), so identical request
//!   streams produce byte-identical reply streams across runs — the
//!   property the concurrency test battery and `pet loadgen
//!   --verify-deterministic` assert.
//!
//! Estimation routes through the one [`pet_core::front::Estimator`]
//! (all channel/mitigation knobs), with code banks shared
//! across concurrent requests via a server-owned
//! [`pet_sim::cache::RosterCache`].
//!
//! ```no_run
//! use pet_server::{serve, Client, ServerConfig};
//!
//! let handle = serve(&ServerConfig {
//!     deterministic: true,
//!     ..ServerConfig::default()
//! })
//! .expect("bind");
//! let mut client = Client::connect(handle.addr()).expect("connect");
//! let reply = client
//!     .roundtrip(r#"{"id":"r1","verb":"estimate","tags":5000,"rounds":16}"#)
//!     .expect("roundtrip");
//! assert!(reply.contains("\"ok\":true"));
//! client.roundtrip(r#"{"id":"bye","verb":"shutdown"}"#).expect("shutdown");
//! handle.join();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod event_loop;
pub mod json;
pub mod loadgen;
pub mod metrics;
pub mod proto;
pub mod server;
pub mod service;
mod shard;

pub use client::Client;
pub use metrics::ServerMetrics;
pub use proto::{parse_request, ErrorCode, ReaderRoundParams, Request, Verb};
pub use server::{serve, ServerHandle};
pub use service::{seed_for_id, Backend, ServerConfig, ServiceCore, MAX_LINE_BYTES};
