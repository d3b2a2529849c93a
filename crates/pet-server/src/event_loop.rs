//! The sharded non-blocking event loop: the server's one transport.
//!
//! ```text
//!              accept()             round-robin intake
//! clients ──▶ acceptor thread ──▶ [shard 0] [shard 1] … [shard N-1]
//!                                     │ each shard, single-threaded:
//!                                     │  sweep: flush wbufs → nonblocking
//!                                     │         reads → parse lines
//!                                     │  exec:  run queued work inline
//!                                     │  idle:  exponential micro-backoff
//!                                     └  empty: park until handed a conn
//! ```
//!
//! One thread per *shard*, not per connection: each shard owns a slice of
//! the connections outright (no locks on the hot path) and drives them
//! with non-blocking I/O, so a server's threads are fixed by its shard
//! count (plus the acceptor) however many clients connect. std has no
//! readiness syscall surface (and this crate forbids `unsafe`, so `epoll`
//! via FFI is out), so readiness is *polled*: every loop iteration sweeps
//! the shard's connections with non-blocking reads and writes, treating
//! `WouldBlock` as "not ready", and sleeps a few tens of microseconds only
//! when a full sweep made no progress. An O(connections) sweep sounds
//! expensive, but one `read(2)` per idle connection is ~1 µs — 10k
//! connections cost ~10 ms per sweep. Shards are placed by the OS
//! scheduler (std offers no affinity API); with one shard per core the
//! steady state is the same as pinning.
//!
//! **Parking.** A shard that owns no connection, no queued job and no
//! owed shutdown ack has nothing to poll, so it blocks on a condvar beside
//! its intake instead of backing off. The acceptor's hand-off and the
//! start of shutdown wake it; both notify under the intake's lock, which
//! the parked shard checks its wake conditions under, so no wake-up is
//! lost. An idle server therefore costs no CPU.
//!
//! What makes this transport fast is not the polling, it is what the
//! polling *removes* from the per-request path: no thread handoffs (work
//! executes inline on the shard that parsed it), no per-request reply
//! channels, and **pipelining** — a client may write many request lines
//! back-to-back; the shard parses them all out of one read, executes
//! them, and batches the replies into one write. Per-connection buffers
//! are reused sweep to sweep.
//!
//! **Reply ordering.** Each connection is answered strictly in request
//! order. Every parsed request gets a per-connection sequence number;
//! control replies and refusals that finish before an earlier work reply
//! are held until every earlier reply has been appended
//! ([`Conn::complete`]).
//!
//! **Backpressure.** [`crate::service::ServerConfig::queue_capacity`]
//! bounds the parsed-but-unexecuted work items across all shards (one
//! atomic counter); beyond it requests bounce with `overloaded`
//! immediately instead of being buffered.
//!
//! **Deadlines.** A shard cannot observe bytes that arrive while it is
//! executing, so a request's enqueue time is taken as the moment the
//! connection was last known drained (accept time for the first sweep).
//! That *over*-charges queueing delay by at most one sweep period: a
//! request that waited past its deadline is always refused, and one may be
//! refused up to one sweep period early.
//!
//! **Shutdown drains.** On the `shutdown` verb every shard finishes its
//! queued work, answers whatever bytes already arrived (work verbs now
//! refuse `shutting_down`), flushes, and signals drained; the last shard
//! to drain wakes the listener closed, and only then is the
//! `"drained":true` ack written.

use crate::proto::Request;
use crate::service::{Dispatch, ServerConfig, ServiceCore, MAX_LINE_BYTES};
use pet_obs::Summary;
use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Read-chunk size per syscall; also the reusable per-shard scratch size.
const READ_CHUNK: usize = 64 * 1024;

/// Idle backoff of a shard that owns a connection: first sleep 20 µs,
/// doubling to ≤ 160 µs. The cap bounds the deadline over-charge described
/// in the module docs.
const IDLE_BACKOFF_BASE_US: u64 = 20;
const IDLE_BACKOFF_MAX_DOUBLINGS: u32 = 3;

/// Flush patience during the shutdown drain: a client that stopped
/// reading cannot hold the whole server hostage.
const DRAIN_FLUSH_BUDGET: Duration = Duration::from_secs(1);

/// State shared between the acceptor, the shards, and the handle.
struct EvShared {
    core: Arc<ServiceCore>,
    addr: SocketAddr,
    /// Global bound on parsed-but-unexecuted work items.
    queue_capacity: usize,
    pending: AtomicUsize,
    /// Count of shards that completed their shutdown drain.
    drained: (Mutex<usize>, Condvar),
    nshards: usize,
    intakes: Vec<Intake>,
}

/// One shard's handoff of freshly accepted connections, stamped with their
/// accept time (the first conservative "last drained" bound), and the
/// condvar the shard parks on while it owns nothing.
#[derive(Default)]
struct Intake {
    fresh: Mutex<VecDeque<(TcpStream, Instant)>>,
    wake: Condvar,
}

impl EvShared {
    /// Wakes every parked shard; called once shutdown has begun.
    fn wake_shards(&self) {
        for intake in &self.intakes {
            let _fresh = intake.fresh.lock().expect("intake poisoned");
            intake.wake.notify_one();
        }
    }

    /// Unblocks the accept loop; the connect itself is the signal.
    fn wake_listener(&self) {
        let _ = TcpStream::connect(self.addr);
    }

    fn mark_drained(&self) {
        let (lock, cvar) = &self.drained;
        let mut n = lock.lock().expect("drain count poisoned");
        *n += 1;
        if *n == self.nshards {
            // Last shard out wakes the listener — after every shard has
            // drained, before any ack is written.
            self.wake_listener();
        }
        cvar.notify_all();
    }

    fn wait_all_drained(&self) {
        let (lock, cvar) = &self.drained;
        let mut n = lock.lock().expect("drain count poisoned");
        while *n < self.nshards {
            n = cvar.wait(n).expect("drain count poisoned");
        }
    }
}

/// The evented server's handle (wrapped by [`crate::server::ServerHandle`]).
pub(crate) struct EventedHandle {
    shared: Arc<EvShared>,
    acceptor: Option<JoinHandle<()>>,
    shard_threads: Vec<JoinHandle<()>>,
}

impl EventedHandle {
    pub(crate) fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    pub(crate) fn metrics(&self) -> Summary {
        self.shared.core.snapshot()
    }

    pub(crate) fn shutdown(&self) {
        self.shared.core.begin_shutdown();
        self.shared.wake_shards();
        self.shared.wait_all_drained();
        // Benign double-wake when a shard already did it.
        self.shared.wake_listener();
    }

    pub(crate) fn join(mut self) -> Summary {
        if let Some(t) = self.acceptor.take() {
            let _ = t.join();
        }
        for t in self.shard_threads.drain(..) {
            let _ = t.join();
        }
        self.shared.core.snapshot()
    }
}

/// Starts the evented backend on an already-bound listener.
pub(crate) fn serve_evented(
    config: &ServerConfig,
    listener: TcpListener,
    core: Arc<ServiceCore>,
) -> std::io::Result<EventedHandle> {
    let addr = listener.local_addr()?;
    let nshards = config.workers;
    let shared = Arc::new(EvShared {
        core,
        addr,
        queue_capacity: config.queue_capacity,
        pending: AtomicUsize::new(0),
        drained: (Mutex::new(0), Condvar::new()),
        nshards,
        intakes: (0..nshards).map(|_| Intake::default()).collect(),
    });

    let shard_threads: Vec<JoinHandle<()>> = (0..nshards)
        .map(|i| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("pet-shard-{i}"))
                .spawn(move || Shard::new(i, shared).run())
                .expect("spawn shard")
        })
        .collect();

    let acceptor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("pet-acceptor".to_string())
            .spawn(move || accept_loop(&listener, &shared))
            .expect("spawn acceptor")
    };

    Ok(EventedHandle {
        shared,
        acceptor: Some(acceptor),
        shard_threads,
    })
}

fn accept_loop(listener: &TcpListener, shared: &Arc<EvShared>) {
    let mut next = 0usize;
    for stream in listener.incoming() {
        if shared.core.is_shutting_down() {
            break; // the wake-up connection (or a raced client) ends us
        }
        let Ok(stream) = stream else { continue };
        let intake = &shared.intakes[next];
        let mut fresh = intake.fresh.lock().expect("intake poisoned");
        fresh.push_back((stream, Instant::now()));
        intake.wake.notify_one();
        drop(fresh);
        next = (next + 1) % shared.nshards;
    }
    // Dropping the listener closes the socket — every shard has drained by
    // the time the wake-up arrives.
}

/// One connection owned by a shard.
struct Conn {
    stream: TcpStream,
    gen: u64,
    /// Unparsed input bytes (at most one partial line after parsing).
    rbuf: Vec<u8>,
    /// Prefix of `rbuf` already scanned for a newline.
    scan: usize,
    /// Pending output bytes; `[wpos..]` is still unwritten.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Sequence number the next parsed request will get.
    next_seq: u64,
    /// Next sequence number allowed to append to `wbuf`.
    write_seq: u64,
    /// Replies that finished before an earlier one was appended.
    held: BTreeMap<u64, String>,
    /// When the connection's socket was last known read-drained — the
    /// conservative enqueue stamp for deadline accounting.
    last_drained: Instant,
    /// No more reads; close once every assigned reply is flushed.
    closing: bool,
}

impl Conn {
    fn new(stream: TcpStream, gen: u64, accepted: Instant) -> Self {
        Self {
            stream,
            gen,
            rbuf: Vec::new(),
            scan: 0,
            wbuf: Vec::new(),
            wpos: 0,
            next_seq: 0,
            write_seq: 0,
            held: BTreeMap::new(),
            last_drained: accepted,
            closing: false,
        }
    }

    /// Whether every assigned reply has been appended and flushed.
    fn done(&self) -> bool {
        self.write_seq == self.next_seq && self.wpos == self.wbuf.len()
    }

    fn append(&mut self, reply: &str) {
        self.wbuf.reserve(reply.len() + 1);
        self.wbuf.extend_from_slice(reply.as_bytes());
        self.wbuf.push(b'\n');
    }

    /// Records the reply for sequence `seq`, appending it (and any
    /// now-unblocked held replies) in strict request order.
    fn complete(&mut self, seq: u64, reply: String) {
        if seq == self.write_seq {
            self.append(&reply);
            self.write_seq += 1;
            while let Some(next) = self.held.remove(&self.write_seq) {
                self.append(&next);
                self.write_seq += 1;
            }
        } else {
            self.held.insert(seq, reply);
        }
    }

    /// Writes as much of `wbuf` as the socket accepts. `Err(())` is a dead
    /// connection; `Ok(true)` means bytes moved.
    fn flush(&mut self) -> Result<bool, ()> {
        let mut wrote = false;
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(()),
                Ok(n) => {
                    self.wpos += n;
                    wrote = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Err(()),
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos > READ_CHUNK {
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
        Ok(wrote)
    }
}

/// A work item parsed by this shard, executed inline after the sweep.
struct ShardJob {
    request: Box<Request>,
    enqueued: Instant,
    slot: usize,
    gen: u64,
    seq: u64,
}

/// A `shutdown` ack owed to a connection once the whole server drains.
struct PendingAck {
    slot: usize,
    gen: u64,
    seq: u64,
    ack: String,
    started: Instant,
}

struct Shard {
    idx: usize,
    shared: Arc<EvShared>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    jobs: VecDeque<ShardJob>,
    acks: Vec<PendingAck>,
    gen_counter: u64,
}

impl Shard {
    fn new(idx: usize, shared: Arc<EvShared>) -> Self {
        Self {
            idx,
            shared,
            conns: Vec::new(),
            free: Vec::new(),
            jobs: VecDeque::new(),
            acks: Vec::new(),
            gen_counter: 0,
        }
    }

    fn run(mut self) {
        let mut scratch = vec![0u8; READ_CHUNK];
        let mut idle: u32 = 0;
        loop {
            let mut progress = self.adopt();
            progress |= self.sweep(&mut scratch);
            progress |= self.run_jobs();
            if self.shared.core.is_shutting_down() {
                self.drain_and_exit(&mut scratch);
                return;
            }
            if progress {
                idle = 0;
            } else if self.free.len() == self.conns.len()
                && self.jobs.is_empty()
                && self.acks.is_empty()
            {
                self.park();
            } else {
                let sleep_us = IDLE_BACKOFF_BASE_US << idle.min(IDLE_BACKOFF_MAX_DOUBLINGS);
                idle = idle.saturating_add(1);
                std::thread::sleep(Duration::from_micros(sleep_us));
            }
        }
    }

    /// Blocks until the acceptor hands this shard a connection or shutdown
    /// begins. Both wakers notify under the intake's lock, and the wait
    /// re-checks both conditions under it, so no wake-up is lost.
    fn park(&self) {
        let intake = &self.shared.intakes[self.idx];
        let mut fresh = intake.fresh.lock().expect("intake poisoned");
        while fresh.is_empty() && !self.shared.core.is_shutting_down() {
            fresh = intake.wake.wait(fresh).expect("intake poisoned");
        }
    }

    /// Takes ownership of freshly accepted connections.
    fn adopt(&mut self) -> bool {
        let mut fresh = {
            let mut intake = self.shared.intakes[self.idx]
                .fresh
                .lock()
                .expect("intake poisoned");
            if intake.is_empty() {
                return false;
            }
            std::mem::take(&mut *intake)
        };
        let mut any = false;
        for (stream, accepted) in fresh.drain(..) {
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            self.gen_counter += 1;
            let conn = Conn::new(stream, self.gen_counter, accepted);
            let slot = self.free.pop().unwrap_or_else(|| {
                self.conns.push(None);
                self.conns.len() - 1
            });
            self.conns[slot] = Some(conn);
            any = true;
        }
        any
    }

    /// One pass over every connection: flush pending output, then read and
    /// parse whatever arrived.
    fn sweep(&mut self, scratch: &mut [u8]) -> bool {
        let mut progress = false;
        for slot in 0..self.conns.len() {
            let Some(mut conn) = self.conns[slot].take() else {
                continue;
            };
            let alive = match conn.flush() {
                Err(()) => false,
                Ok(wrote) => {
                    progress |= wrote;
                    if conn.closing {
                        !conn.done()
                    } else {
                        match self.read_into(&mut conn, slot, scratch) {
                            Err(()) => false,
                            Ok(read_any) => {
                                progress |= read_any;
                                // Flush what the parse produced right away;
                                // replies completed by `run_jobs` ride the
                                // next sweep's flush.
                                match conn.flush() {
                                    Err(()) => false,
                                    Ok(wrote) => {
                                        progress |= wrote;
                                        !(conn.closing && conn.done())
                                    }
                                }
                            }
                        }
                    }
                }
            };
            if alive {
                self.conns[slot] = Some(conn);
            } else {
                self.release(slot, conn);
            }
        }
        progress
    }

    fn release(&mut self, slot: usize, conn: Conn) {
        drop(conn); // closes the socket
        self.free.push(slot);
    }

    /// Non-blocking reads into the connection's buffer, parsing complete
    /// lines as they land. `Err(())` is a dead connection to drop now.
    fn read_into(&mut self, conn: &mut Conn, slot: usize, scratch: &mut [u8]) -> Result<bool, ()> {
        let mut read_any = false;
        loop {
            if conn.closing {
                break;
            }
            match conn.stream.read(scratch) {
                Ok(0) => {
                    // EOF. The unterminated tail still gets a reply, as
                    // the final line of the stream.
                    read_any = true;
                    if !conn.rbuf.is_empty() {
                        let tail = std::mem::take(&mut conn.rbuf);
                        conn.scan = 0;
                        if let Some(d) = self.shared.core.handle_line(&tail) {
                            self.act(conn, slot, d);
                        }
                    }
                    conn.closing = true;
                    break;
                }
                Ok(n) => {
                    read_any = true;
                    conn.rbuf.extend_from_slice(&scratch[..n]);
                    self.parse_lines(conn, slot);
                    if n < scratch.len() {
                        break; // very likely drained; next sweep confirms
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Err(()),
            }
        }
        conn.last_drained = Instant::now();
        Ok(read_any)
    }

    /// Splits complete lines out of the connection's buffer and dispatches
    /// each through the core, enforcing the line-length bound.
    fn parse_lines(&mut self, conn: &mut Conn, slot: usize) {
        let mut start = 0usize;
        while !conn.closing {
            let Some(rel) = conn.rbuf[conn.scan..].iter().position(|&b| b == b'\n') else {
                conn.scan = conn.rbuf.len();
                break;
            };
            let nl = conn.scan + rel;
            // A line whose bytes (newline included) exceed
            // MAX_LINE_BYTES is refused and the connection is dropped.
            if nl + 1 - start > MAX_LINE_BYTES {
                self.oversize(conn);
                return;
            }
            let action = self.shared.core.handle_line(&conn.rbuf[start..nl]);
            start = nl + 1;
            conn.scan = start;
            if let Some(d) = action {
                self.act(conn, slot, d);
            }
        }
        if start > 0 {
            conn.rbuf.drain(..start);
            conn.scan -= start;
        }
        if conn.rbuf.len() > MAX_LINE_BYTES && !conn.closing {
            self.oversize(conn);
        }
    }

    fn oversize(&mut self, conn: &mut Conn) {
        let reply = self.shared.core.refuse_oversized();
        let seq = conn.next_seq;
        conn.next_seq += 1;
        conn.complete(seq, reply);
        conn.rbuf.clear();
        conn.scan = 0;
        conn.closing = true;
    }

    /// Applies one dispatch decision to the connection.
    fn act(&mut self, conn: &mut Conn, slot: usize, dispatch: Dispatch) {
        let seq = conn.next_seq;
        conn.next_seq += 1;
        match dispatch {
            Dispatch::Reply(reply) => conn.complete(seq, reply),
            Dispatch::Work(request) => {
                if self.try_acquire_pending() {
                    self.jobs.push_back(ShardJob {
                        request,
                        enqueued: conn.last_drained,
                        slot,
                        gen: conn.gen,
                        seq,
                    });
                } else {
                    let reply = self.shared.core.refuse_overloaded(&request.id);
                    conn.complete(seq, reply);
                }
            }
            Dispatch::Shutdown { ack } => {
                // The shared flag is already set; parked shards must wake
                // to drain. The ack is owed once the whole server has
                // drained (see drain_and_exit).
                self.shared.wake_shards();
                self.acks.push(PendingAck {
                    slot,
                    gen: conn.gen,
                    seq,
                    ack,
                    started: Instant::now(),
                });
            }
        }
    }

    /// Claims one slot of the global pending budget, or reports overload.
    fn try_acquire_pending(&self) -> bool {
        let cap = self.shared.queue_capacity;
        let mut cur = self.shared.pending.load(Ordering::Relaxed);
        loop {
            if cur >= cap {
                return false;
            }
            match self.shared.pending.compare_exchange_weak(
                cur,
                cur + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(now) => cur = now,
            }
        }
    }

    /// Executes every queued work item inline, oldest first.
    fn run_jobs(&mut self) -> bool {
        let mut progress = false;
        while let Some(job) = self.jobs.pop_front() {
            self.shared.pending.fetch_sub(1, Ordering::AcqRel);
            let reply = self.shared.core.execute_work(&job.request, job.enqueued);
            self.deliver(job.slot, job.gen, job.seq, reply);
            progress = true;
        }
        progress
    }

    /// Routes a finished reply back to its connection, if it still exists
    /// (the job counts as served either way).
    fn deliver(&mut self, slot: usize, gen: u64, seq: u64, reply: String) {
        if let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) {
            if conn.gen == gen {
                conn.complete(seq, reply);
            }
        }
    }

    /// The shutdown path: finish queued work, answer already-arrived
    /// bytes, flush everything, signal drained — and if this shard owes
    /// the ack, write it only after *every* shard has drained.
    fn drain_and_exit(&mut self, scratch: &mut [u8]) {
        // Adopt stragglers so their clients get structured refusals (or a
        // connection close) instead of silence.
        self.adopt();
        self.run_jobs();
        // One final read sweep: work verbs now refuse `shutting_down`
        // inside the core, so this can only produce inline replies.
        self.sweep(scratch);
        self.run_jobs();

        let deadline = Instant::now() + DRAIN_FLUSH_BUDGET;
        self.flush_all(deadline);
        self.shared.mark_drained();

        if !self.acks.is_empty() {
            self.shared.wait_all_drained();
            let acks = std::mem::take(&mut self.acks);
            for pending in acks {
                let latency = pending.started.elapsed();
                if let Some(conn) = self.conns.get_mut(pending.slot).and_then(Option::as_mut) {
                    if conn.gen == pending.gen {
                        self.shared.core.record_ok(latency);
                        conn.complete(pending.seq, pending.ack);
                    }
                }
            }
            self.flush_all(Instant::now() + DRAIN_FLUSH_BUDGET);
        }
        // Dropping the shard closes every remaining connection.
    }

    /// Flushes every connection's pending output, retrying briefly.
    fn flush_all(&mut self, deadline: Instant) {
        loop {
            let mut unflushed = false;
            for slot in 0..self.conns.len() {
                let Some(conn) = self.conns[slot].as_mut() else {
                    continue;
                };
                match conn.flush() {
                    Err(()) => {
                        let conn = self.conns[slot].take().expect("present");
                        self.release(slot, conn);
                    }
                    Ok(_) => unflushed |= conn_unflushed(&self.conns[slot]),
                }
            }
            if !unflushed || Instant::now() >= deadline {
                return;
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }
}

fn conn_unflushed(conn: &Option<Conn>) -> bool {
    conn.as_ref().is_some_and(|c| c.wpos < c.wbuf.len())
}
