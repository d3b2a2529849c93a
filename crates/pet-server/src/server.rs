//! Server front door: [`serve`] and its [`ServerHandle`].
//!
//! ```text
//!   serve(&ServerConfig) ──▶ event_loop: acceptor + N shards
//!                                   │
//!                          one shared ServiceCore
//!                  (verbs, deadlines, seeding, metrics)
//! ```
//!
//! Design rules, in order of priority:
//!
//! 1. **Every request line gets exactly one reply.** Malformed input,
//!    overload, deadlines, shutdown — all answer structurally; nothing is
//!    silently dropped and no connection is left hanging. Every verb's
//!    reply is a single line except `monitor`, whose one reply is a
//!    bounded multi-line stream (delta lines + summary) written atomically
//!    as a unit — replies never interleave, and each connection is
//!    answered in request order.
//! 2. **Backpressure, never buffering.** At most
//!    [`ServerConfig::queue_capacity`] parsed work items wait to run across
//!    all shards; a request beyond that bound is answered `overloaded`
//!    immediately. Memory use is bounded by `queue + connections`, not by
//!    offered load.
//! 3. **Deadlines are enforced server-side.** A request carrying
//!    `deadline_ms` whose deadline has passed by the time a shard starts
//!    it is answered `deadline_exceeded` without doing the work.
//! 4. **Shutdown drains.** The `shutdown` verb stops intake (new work is
//!    refused) but every already-queued job is completed and replied to
//!    before the ack goes out and the listener closes.
//!
//! Control-plane verbs (`telemetry-snapshot`, `shutdown`) never enter the
//! work queue — observability and the off switch keep working under full
//! overload.

use crate::event_loop::EventedHandle;
use crate::service::ServiceCore;
use pet_obs::Summary;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;

pub use crate::service::{seed_for_id, ServerConfig, MAX_LINE_BYTES};

/// A running server. Dropping the handle does **not** stop the server;
/// call [`ServerHandle::shutdown`] (or send the `shutdown` verb) and then
/// [`ServerHandle::join`].
pub struct ServerHandle {
    inner: EventedHandle,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr()
    }

    /// A snapshot of the server's RED metrics.
    #[must_use]
    pub fn metrics(&self) -> Summary {
        self.inner.metrics()
    }

    /// Initiates the same graceful shutdown as the `shutdown` verb:
    /// refuses new work, blocks until in-flight work has drained, then
    /// closes the listener.
    pub fn shutdown(&self) {
        self.inner.shutdown();
    }

    /// Waits for the acceptor and the shards to finish (call after
    /// [`Self::shutdown`] or once a client has sent the `shutdown` verb),
    /// then returns the final metrics. Connections still open are closed;
    /// their clients have already received a reply for every request they
    /// sent.
    pub fn join(self) -> Summary {
        self.inner.join()
    }
}

/// Binds and starts the service: an acceptor thread plus
/// [`ServerConfig::workers`] shard threads.
///
/// # Errors
///
/// Returns the I/O error when the address cannot be bound.
///
/// # Panics
///
/// Panics if `workers` or `queue_capacity` is zero.
pub fn serve(config: &ServerConfig) -> std::io::Result<ServerHandle> {
    assert!(config.workers > 0, "at least one shard is required");
    assert!(config.queue_capacity > 0, "queue capacity must be positive");
    let listener = TcpListener::bind(&config.addr)?;
    let core = Arc::new(ServiceCore::new(config));
    Ok(ServerHandle {
        inner: crate::event_loop::serve_evented(config, listener, core)?,
    })
}
