//! The epoll reactor: one thread owning the listener and every
//! connection, serving cache hits inline and offloading blocking work
//! to the fixed pool.
//!
//! ## Structure
//!
//! Readiness tokens map to a connection slab (`Vec<Option<Conn>>` plus
//! a free list); slots carry generation counters so a completion for a
//! connection that died while its request was on a worker is dropped
//! instead of being written to an unrelated new connection. Workers
//! push finished responses into a mailbox and kick the reactor's
//! eventfd; the reactor drains the mailbox between readiness batches.
//!
//! ## HTTP/1.1 semantics
//!
//! Connections are keep-alive by default and honor pipelining: each
//! parsed request gets a per-connection sequence number, out-of-order
//! completions park in a `BTreeMap`, and bytes go on the wire strictly
//! in request order. `Connection: close` and error responses close
//! after the flush; nothing that arrives behind a `Connection: close`
//! request is parsed.
//!
//! ## Bytes in, bytes out
//!
//! Reads land directly in the connection's accumulation buffer. Every
//! response — fast-path hit, worker completion, shed, error — is put in
//! wire form by `finalize`: one owned buffer when the body is small,
//! else the head followed by the body where it already lies (the
//! service's own `Vec`, moved; ranges of a cache entry's row slab,
//! shared). It parks under its sequence number and goes out through the
//! connection's out queue (`outq.rs`) with gathered writes.
//!
//! ## Admission control
//!
//! Three gates, all answering `503` + `Retry-After` immediately instead
//! of queueing unboundedly: a connection cap at accept, the bounded
//! pending-request queue in front of the pool, and — once the queue is
//! at half pressure — the origin circuit breaker via
//! [`EdgeService::shed_hint`] (an open breaker alone does not shed:
//! degraded cache serving is still useful while capacity remains).
//! Slowloris connections that dribble a request past the read deadline
//! are answered `408` and closed.

use crate::conn::{try_parse, ParseOutcome};
use crate::outq::{OutQueue, Seg};
use crate::pool::{Job, WorkerPool};
use crate::service::EdgeService;
use crate::stats::{EdgeSnapshot, EdgeStats};
use crate::sys::{
    read_into_spare, Epoll, EpollEvent, WakeFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
    MAX_EVENTS,
};
use fp_httpd::{Request, Response, Status};
use funcproxy::observe::{Observer, PathClass, Phase};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKE: u64 = u64::MAX - 1;

/// Most bytes one `read` takes off a socket.
const READ_CHUNK: usize = 16 * 1024;

const RUNNING: u8 = 0;
const DRAINING: u8 = 1;
const STOPPING: u8 = 2;

/// Tuning for an [`EdgeServer`]; defaults are production-shaped, tests
/// shrink them.
#[derive(Clone)]
pub struct EdgeConfig {
    /// Worker threads for blocking request handling (0 = fast path
    /// only; every offload sheds once the queue fills).
    pub workers: usize,
    /// Cap on simultaneously open connections; connects beyond it are
    /// answered `503` and closed at accept.
    pub max_connections: usize,
    /// Bound on the pending-request queue in front of the pool.
    pub queue_depth: usize,
    /// Max requests in flight (offloaded or awaiting in-order flush)
    /// per connection before parsing pauses.
    pub max_pipeline: usize,
    /// A connection that has started a request head but not finished it
    /// within this window is answered `408` and closed (slowloris).
    pub read_deadline: Duration,
    /// Idle keep-alive connections are closed after this long.
    pub idle_timeout: Duration,
    /// How long a graceful shutdown waits for in-flight requests.
    pub drain_deadline: Duration,
    /// Observe hub for accept/parse/queue-wait/handoff phase latencies.
    pub observer: Option<Arc<Observer>>,
    /// Counter block to record into (lets `/metrics` endpoints share
    /// the instance); a private one is created when absent.
    pub stats: Option<Arc<EdgeStats>>,
}

impl Default for EdgeConfig {
    fn default() -> Self {
        EdgeConfig {
            workers: 4,
            max_connections: 1024,
            queue_depth: 256,
            max_pipeline: 32,
            read_deadline: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(60),
            drain_deadline: Duration::from_secs(5),
            observer: None,
            stats: None,
        }
    }
}

impl EdgeConfig {
    /// Sets the worker-thread count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the connection cap.
    pub fn with_max_connections(mut self, cap: usize) -> Self {
        self.max_connections = cap;
        self
    }

    /// Sets the pending-queue bound.
    pub fn with_queue_depth(mut self, depth: usize) -> Self {
        self.queue_depth = depth;
        self
    }

    /// Sets the per-connection pipelining bound.
    pub fn with_max_pipeline(mut self, depth: usize) -> Self {
        self.max_pipeline = depth.max(1);
        self
    }

    /// Sets the slowloris read deadline.
    pub fn with_read_deadline(mut self, deadline: Duration) -> Self {
        self.read_deadline = deadline;
        self
    }

    /// Sets the idle keep-alive timeout.
    pub fn with_idle_timeout(mut self, timeout: Duration) -> Self {
        self.idle_timeout = timeout;
        self
    }

    /// Sets the graceful-shutdown drain window.
    pub fn with_drain_deadline(mut self, deadline: Duration) -> Self {
        self.drain_deadline = deadline;
        self
    }

    /// Records edge phase latencies into `observer`.
    pub fn with_observer(mut self, observer: Arc<Observer>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Counts into `stats` instead of a private instance.
    pub fn with_stats(mut self, stats: Arc<EdgeStats>) -> Self {
        self.stats = Some(stats);
        self
    }
}

/// A response in wire form: at most a head, the body's shared ranges
/// and its closing slice, moved — never copied — from here to the
/// socket. Unused places hold an empty segment, which the out queue
/// skips.
type Reply = [Seg; 3];

/// A response whose whole body is at most this long goes out as one
/// buffer, body appended to head: every `hit_small` reply (140 B to
/// 15,960 B, a dozen slab ranges at most) and none of `hit_large`'s
/// (65 KB to 2 MB). Measured over loopback with the slab hot, the copy
/// beats the ranges by 0.3 to 0.7 µs a reply up to 12 KB, ties at 23 KB
/// and loses from 47 KB on (DESIGN.md §20); a cold slab moves the tie
/// down, so the bound sits below it.
pub const INLINE_BODY_MAX: usize = 16 * 1024;

/// Room for a reply head (a radial hit's is ≈ 175 B) and the XML header
/// that follows it in the same buffer (150–250 B), without regrowth.
const HEAD_CAPACITY: usize = 512;

/// A worker-finished response addressed back to its connection.
struct Completion {
    slot: usize,
    generation: u64,
    seq: u64,
    reply: Reply,
    close: bool,
    pushed_at: Instant,
}

/// State shared between the server handle, the reactor thread, and the
/// workers.
struct Shared {
    state: AtomicU8,
    drain_ms: AtomicU64,
    completions: Mutex<Vec<Completion>>,
    wake: WakeFd,
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    generation: u64,
    read_buf: Vec<u8>,
    /// How far into `read_buf` the search for the current request
    /// head's end has got (see [`try_parse`]).
    head_scanned: usize,
    /// Replies whose turn has come, awaiting the socket.
    out: OutQueue,
    /// Next sequence number to assign to a parsed request.
    next_seq: u64,
    /// Next sequence number eligible to go on the wire.
    next_write_seq: u64,
    /// Out-of-order finished responses waiting for their turn.
    ready: BTreeMap<u64, (Reply, bool)>,
    /// Requests currently on the worker side.
    inflight: usize,
    last_activity: Instant,
    /// When the current (incomplete) request head started arriving.
    head_started: Option<Instant>,
    /// No more parsing; close once everything queued has flushed.
    closing: bool,
    /// Currently registered for `EPOLLOUT`.
    want_write: bool,
}

impl Conn {
    fn new(stream: TcpStream, generation: u64) -> Conn {
        Conn {
            stream,
            generation,
            read_buf: Vec::new(),
            head_scanned: 0,
            out: OutQueue::default(),
            next_seq: 0,
            next_write_seq: 0,
            ready: BTreeMap::new(),
            inflight: 0,
            last_activity: Instant::now(),
            head_started: None,
            closing: false,
            want_write: false,
        }
    }

    /// Nothing left to serve or flush.
    fn is_idle(&self) -> bool {
        self.inflight == 0 && self.ready.is_empty() && self.out.is_empty()
    }

    /// Stops reading requests off this connection: whatever has been
    /// buffered (or arrives later) is dropped, and the connection
    /// closes once every response already owed has flushed.
    fn stop_parsing(&mut self) {
        self.closing = true;
        self.read_buf.clear();
        self.head_scanned = 0;
        self.head_started = None;
    }
}

/// A running nonblocking edge server: one reactor thread plus the
/// configured worker pool, `1 + workers` threads total regardless of
/// how many connections are open.
pub struct EdgeServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    stats: Arc<EdgeStats>,
    reactor: Option<JoinHandle<()>>,
    threads: usize,
}

impl EdgeServer {
    /// Binds to `addr` (port 0 for ephemeral) and starts the reactor
    /// and worker threads.
    ///
    /// # Errors
    /// Returns bind/epoll/eventfd setup errors.
    pub fn bind(
        addr: &str,
        service: Arc<dyn EdgeService>,
        config: EdgeConfig,
    ) -> io::Result<EdgeServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let epoll = Epoll::new()?;
        let shared = Arc::new(Shared {
            state: AtomicU8::new(RUNNING),
            drain_ms: AtomicU64::new(config.drain_deadline.as_millis() as u64),
            completions: Mutex::new(Vec::new()),
            wake: WakeFd::new()?,
        });
        epoll.add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
        epoll.add(shared.wake.raw_fd(), EPOLLIN, TOKEN_WAKE)?;

        let stats = config
            .stats
            .clone()
            .unwrap_or_else(|| Arc::new(EdgeStats::default()));
        let observer = config.observer.clone();

        let pool = {
            let service = Arc::clone(&service);
            let shared = Arc::clone(&shared);
            let stats = Arc::clone(&stats);
            let observer = observer.clone();
            WorkerPool::new(config.workers, config.queue_depth, move |job: Job| {
                record_phase(
                    &observer,
                    Phase::QueueWait,
                    PathClass::Miss,
                    ms_since(job.enqueued_at),
                );
                let response = service.handle(&job.request);
                let completion = Completion {
                    slot: job.slot,
                    generation: job.generation,
                    seq: job.seq,
                    reply: finalize(response, job.close),
                    close: job.close,
                    pushed_at: Instant::now(),
                };
                let _ = &stats;
                shared
                    .completions
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(completion);
                shared.wake.wake();
            })
        };

        let threads = 1 + config.workers;
        let reactor = Reactor {
            epoll,
            listener: Some(listener),
            conns: Vec::new(),
            generations: Vec::new(),
            free: Vec::new(),
            freed_batch: Vec::new(),
            open: 0,
            pool,
            service,
            shared: Arc::clone(&shared),
            observer,
            stats: Arc::clone(&stats),
            config,
            drain_started: None,
        };
        let thread = std::thread::Builder::new()
            .name("edge-reactor".into())
            .spawn(move || reactor.run())
            .expect("spawn edge reactor");

        Ok(EdgeServer {
            addr: local,
            shared,
            stats,
            reactor: Some(thread),
            threads,
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the edge counters.
    pub fn stats(&self) -> EdgeSnapshot {
        self.stats.snapshot()
    }

    /// Total server threads (reactor + workers) — fixed at bind time,
    /// independent of connection count.
    pub fn thread_count(&self) -> usize {
        self.threads
    }

    /// Hard stop: closes every connection, discards queued requests.
    pub fn shutdown(mut self) {
        self.stop(STOPPING);
    }

    /// Graceful stop: stops accepting, lets in-flight requests finish
    /// (bounded by `drain`), sheds new requests with `503`, then joins
    /// every thread.
    pub fn shutdown_graceful(mut self, drain: Duration) {
        self.shared
            .drain_ms
            .store(drain.as_millis() as u64, Ordering::SeqCst);
        self.stop(DRAINING);
    }

    fn stop(&mut self, state: u8) {
        // Never downgrade STOPPING to DRAINING (Drop after shutdown).
        let _ = self.shared.state.fetch_max(state, Ordering::SeqCst);
        self.shared.wake.wake();
        if let Some(thread) = self.reactor.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for EdgeServer {
    fn drop(&mut self) {
        self.stop(STOPPING);
    }
}

struct Reactor {
    epoll: Epoll,
    listener: Option<TcpListener>,
    conns: Vec<Option<Conn>>,
    generations: Vec<u64>,
    free: Vec<usize>,
    /// Slots freed during the current readiness batch; returned to the
    /// free list only after the batch, so a stale event cannot hit a
    /// just-reused slot.
    freed_batch: Vec<usize>,
    open: usize,
    pool: WorkerPool,
    service: Arc<dyn EdgeService>,
    shared: Arc<Shared>,
    observer: Option<Arc<Observer>>,
    stats: Arc<EdgeStats>,
    config: EdgeConfig,
    drain_started: Option<Instant>,
}

impl Reactor {
    fn run(mut self) {
        let mut events = [EpollEvent {
            events: 0,
            token: 0,
        }; MAX_EVENTS];
        loop {
            let state = self.shared.state.load(Ordering::SeqCst);
            if state == STOPPING {
                break;
            }
            if state == DRAINING {
                if self.drain_started.is_none() {
                    self.begin_drain();
                }
                let deadline = self.drain_started.expect("drain started")
                    + Duration::from_millis(self.shared.drain_ms.load(Ordering::SeqCst));
                if self.open == 0 || Instant::now() >= deadline {
                    break;
                }
            }
            let n = match self.epoll.wait(&mut events, 50) {
                Ok(n) => n,
                Err(_) => break,
            };
            for event in &events[..n] {
                let (token, bits) = (event.token, event.events);
                match token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => self.shared.wake.drain(),
                    slot => self.conn_ready(slot as usize, bits),
                }
            }
            self.drain_completions();
            self.enforce_deadlines();
            self.free.append(&mut self.freed_batch);
        }
        self.teardown();
    }

    fn begin_drain(&mut self) {
        self.drain_started = Some(Instant::now());
        if let Some(listener) = self.listener.take() {
            let _ = self.epoll.delete(listener.as_raw_fd());
        }
    }

    fn teardown(mut self) {
        let hard = self.shared.state.load(Ordering::SeqCst) == STOPPING;
        for slot in 0..self.conns.len() {
            if self.conns[slot].is_some() {
                self.close_conn(slot);
            }
        }
        self.pool.stop(hard);
    }

    fn record_phase(&self, phase: Phase, class: PathClass, ms: f64) {
        record_phase(&self.observer, phase, class, ms);
    }

    // ---- accept path ---------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let accept_start = Instant::now();
                    if self.open >= self.config.max_connections {
                        EdgeStats::bump(&self.stats.conns_rejected);
                        reject_over_cap(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let fd = stream.as_raw_fd();
                    let slot = self.alloc_slot();
                    let conn = Conn::new(stream, self.generations[slot]);
                    self.conns[slot] = Some(conn);
                    if self
                        .epoll
                        .add(fd, EPOLLIN | EPOLLRDHUP, slot as u64)
                        .is_err()
                    {
                        self.conns[slot] = None;
                        self.freed_batch.push(slot);
                        continue;
                    }
                    self.open += 1;
                    EdgeStats::bump(&self.stats.conns_accepted);
                    self.stats.conns_open.store(self.open, Ordering::Relaxed);
                    self.record_phase(Phase::Accept, PathClass::Background, ms_since(accept_start));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn alloc_slot(&mut self) -> usize {
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.generations.push(0);
            self.conns.len() - 1
        });
        self.generations[slot] += 1;
        slot
    }

    fn close_conn(&mut self, slot: usize) {
        if let Some(conn) = self.conns[slot].take() {
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
            drop(conn);
            self.open -= 1;
            self.stats.conns_open.store(self.open, Ordering::Relaxed);
            self.freed_batch.push(slot);
        }
    }

    // ---- readiness dispatch --------------------------------------------

    fn conn_ready(&mut self, slot: usize, bits: u32) {
        if slot >= self.conns.len() || self.conns[slot].is_none() {
            return; // stale event for a closed connection
        }
        if bits & (EPOLLERR | EPOLLHUP) != 0 {
            self.close_conn(slot);
            return;
        }
        if bits & EPOLLOUT != 0 && !self.flush_write(slot) {
            return;
        }
        if bits & (EPOLLIN | EPOLLRDHUP) != 0 {
            self.readable(slot);
        }
    }

    fn readable(&mut self, slot: usize) {
        loop {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            let fd = conn.stream.as_raw_fd();
            match read_into_spare(fd, &mut conn.read_buf, READ_CHUNK) {
                Ok(0) => {
                    self.close_conn(slot);
                    return;
                }
                Ok(n) => {
                    if conn.closing {
                        // Nothing more is served on this connection.
                        conn.read_buf.clear();
                    } else if conn.head_started.is_none() {
                        conn.head_started = Some(Instant::now());
                    }
                    conn.last_activity = Instant::now();
                    if n < READ_CHUNK {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(slot);
                    return;
                }
            }
        }
        self.parse_ready(slot);
    }

    fn parse_ready(&mut self, slot: usize) {
        loop {
            let Some(conn) = self.conns[slot].as_mut() else {
                return;
            };
            if conn.closing || conn.read_buf.is_empty() {
                return;
            }
            // Pipelining bound: pause parsing (bytes keep accumulating)
            // until earlier requests finish.
            if conn.inflight + conn.ready.len() >= self.config.max_pipeline {
                return;
            }
            match try_parse(&conn.read_buf, &mut conn.head_scanned) {
                ParseOutcome::NeedMore => return,
                ParseOutcome::Error(e) => {
                    EdgeStats::bump(&self.stats.bad_requests);
                    conn.stop_parsing();
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    let response = Response::error(Status::BAD_REQUEST, &e.to_string());
                    self.queue_response(slot, seq, finalize(response, true), true);
                    return;
                }
                ParseOutcome::Request { request, consumed } => {
                    conn.read_buf.drain(..consumed);
                    conn.head_scanned = 0;
                    conn.last_activity = Instant::now();
                    let head_started = conn.head_started.take();
                    conn.head_started = if conn.read_buf.is_empty() {
                        None
                    } else {
                        Some(Instant::now())
                    };
                    if let Some(t0) = head_started {
                        self.record_phase(Phase::Parse, PathClass::Background, ms_since(t0));
                    }
                    let conn = self.conns[slot].as_mut().expect("conn checked above");
                    EdgeStats::bump(&self.stats.requests);
                    if conn.inflight + conn.ready.len() > 0 {
                        EdgeStats::bump(&self.stats.pipelined);
                    }
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    let close = request
                        .headers
                        .get("connection")
                        .is_some_and(|v| v.eq_ignore_ascii_case("close"));
                    if close {
                        // Its response ends the connection, so nothing
                        // pipelined behind it may be parsed: an answer
                        // parked behind the closing one could never
                        // flush, and the connection would never look
                        // finished.
                        conn.stop_parsing();
                    }
                    self.dispatch(slot, seq, request, close);
                }
            }
        }
    }

    // ---- request dispatch ----------------------------------------------

    fn dispatch(&mut self, slot: usize, seq: u64, request: Box<Request>, close: bool) {
        // Draining: in-flight requests finish, new ones are shed.
        if self.shared.state.load(Ordering::SeqCst) == DRAINING {
            EdgeStats::bump(&self.stats.shed_draining);
            if let Some(conn) = self.conns[slot].as_mut() {
                conn.stop_parsing();
            }
            self.queue_response(
                slot,
                seq,
                finalize(shed_response(1, "server is draining"), true),
                true,
            );
            return;
        }

        // Fast path: fresh cache hits never leave the reactor.
        if let Some(response) = self.service.try_fast(&request) {
            EdgeStats::bump(&self.stats.fast_path);
            self.queue_response(slot, seq, finalize(response, close), close);
            return;
        }

        // Admission control in front of the pool.
        let queued = self.pool.queued();
        let capacity = self.pool.capacity();
        if queued >= capacity {
            EdgeStats::bump(&self.stats.shed_queue_full);
            self.queue_response(
                slot,
                seq,
                finalize(shed_response(1, "request queue full"), close),
                close,
            );
            return;
        }
        // An open breaker sheds only once the queue is at half
        // pressure: while capacity remains, misses still reach the
        // runtime, which can serve degraded/stale answers.
        if queued * 2 >= capacity {
            if let Some(secs) = self.service.shed_hint() {
                EdgeStats::bump(&self.stats.shed_breaker);
                self.queue_response(
                    slot,
                    seq,
                    finalize(shed_response(secs, "origin unavailable"), close),
                    close,
                );
                return;
            }
        }

        let job = Job {
            slot,
            generation: self.generations[slot],
            seq,
            close,
            request,
            enqueued_at: Instant::now(),
        };
        match self.pool.try_submit(job) {
            Ok(()) => {
                EdgeStats::bump(&self.stats.offloaded);
                if let Some(conn) = self.conns[slot].as_mut() {
                    conn.inflight += 1;
                }
            }
            Err(_) => {
                EdgeStats::bump(&self.stats.shed_queue_full);
                self.queue_response(
                    slot,
                    seq,
                    finalize(shed_response(1, "request queue full"), close),
                    close,
                );
            }
        }
    }

    // ---- response path -------------------------------------------------

    fn drain_completions(&mut self) {
        let completions = std::mem::take(
            &mut *self
                .shared
                .completions
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
        );
        for c in completions {
            let alive = c.slot < self.conns.len()
                && self.conns[c.slot]
                    .as_ref()
                    .is_some_and(|conn| conn.generation == c.generation);
            if !alive {
                continue; // the connection died while the worker ran
            }
            self.record_phase(Phase::Handoff, PathClass::Miss, ms_since(c.pushed_at));
            let conn = self.conns[c.slot].as_mut().expect("alive checked");
            conn.inflight -= 1;
            self.queue_response(c.slot, c.seq, c.reply, c.close);
            // A completed request may have unblocked the pipeline bound.
            self.parse_ready(c.slot);
        }
    }

    /// Parks `reply` until its turn in request order, moves every reply
    /// whose turn has come into the out queue, and attempts the write.
    fn queue_response(&mut self, slot: usize, seq: u64, reply: Reply, close: bool) {
        let Some(conn) = self.conns[slot].as_mut() else {
            return;
        };
        conn.ready.insert(seq, (reply, close));
        while let Some((reply, close)) = conn.ready.remove(&conn.next_write_seq) {
            for seg in reply {
                conn.out.push(seg);
            }
            conn.next_write_seq += 1;
            if close {
                conn.closing = true;
                break;
            }
        }
        self.flush_write(slot);
    }

    /// Writes as much queued output as the socket accepts; manages
    /// `EPOLLOUT` interest and deferred closes. Returns `false` when
    /// the connection was closed.
    fn flush_write(&mut self, slot: usize) -> bool {
        let Some(conn) = self.conns[slot].as_mut() else {
            return false;
        };
        match conn.out.flush(&mut &conn.stream) {
            Ok(0) => {}
            Ok(_) => conn.last_activity = Instant::now(),
            Err(_) => {
                self.close_conn(slot);
                return false;
            }
        }
        let fd = conn.stream.as_raw_fd();
        if conn.out.is_empty() {
            if conn.want_write {
                conn.want_write = false;
                let _ = self.epoll.modify(fd, EPOLLIN | EPOLLRDHUP, slot as u64);
            }
            if conn.closing && conn.inflight == 0 && conn.ready.is_empty() {
                self.close_conn(slot);
                return false;
            }
        } else if !conn.want_write {
            conn.want_write = true;
            let _ = self
                .epoll
                .modify(fd, EPOLLIN | EPOLLOUT | EPOLLRDHUP, slot as u64);
        }
        true
    }

    // ---- deadlines -----------------------------------------------------

    fn enforce_deadlines(&mut self) {
        let now = Instant::now();
        let draining = self.shared.state.load(Ordering::SeqCst) == DRAINING;
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_mut() else {
                continue;
            };
            // Slowloris: a request head begun but not completed within
            // the deadline gets 408 and the connection closes.
            let dribbling = conn
                .head_started
                .is_some_and(|t0| now.duration_since(t0) >= self.config.read_deadline);
            if dribbling && !conn.closing {
                EdgeStats::bump(&self.stats.read_timeouts);
                conn.stop_parsing();
                let seq = conn.next_seq;
                conn.next_seq += 1;
                let response =
                    Response::error(Status::REQUEST_TIMEOUT, "request header read timed out");
                self.queue_response(slot, seq, finalize(response, true), true);
                continue;
            }
            let idle_for = now.duration_since(conn.last_activity);
            if conn.is_idle()
                && conn.read_buf.is_empty()
                && (idle_for >= self.config.idle_timeout || draining)
            {
                self.close_conn(slot);
            }
        }
    }
}

fn record_phase(observer: &Option<Arc<Observer>>, phase: Phase, class: PathClass, ms: f64) {
    if let Some(obs) = observer {
        obs.record_phase(phase, class, ms);
    }
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1000.0
}

/// Puts a response in wire form, adding `Connection: close` when the
/// connection will close behind it. A small body is appended to the
/// head; a large one is moved (owned bytes) or lent (a shared tail),
/// not copied.
fn finalize(mut response: Response, close: bool) -> Reply {
    if close {
        response.headers.set("Connection", "close");
    }
    const NONE: Seg = Seg::Static(&[]);
    let inline = response.body_len() <= INLINE_BODY_MAX;
    let mut head = Vec::with_capacity(if inline {
        HEAD_CAPACITY + response.body_len()
    } else {
        HEAD_CAPACITY
    });
    response.write_head(&mut head);
    if inline {
        response.write_body(&mut head);
        return [Seg::Owned(head), NONE, NONE];
    }
    match response.tail {
        None => [Seg::Owned(head), Seg::Owned(response.body), NONE],
        Some(tail) => {
            // What precedes the tail is the document's header: short.
            head.extend_from_slice(&response.body);
            let (owner, ranges, suffix) = tail.into_parts();
            [
                Seg::Owned(head),
                Seg::Shared { owner, ranges },
                Seg::Static(suffix),
            ]
        }
    }
}

/// The admission-control refusal: `503` with an honest retry hint.
fn shed_response(retry_after_secs: u64, reason: &str) -> Response {
    let mut response = Response::error(Status::SERVICE_UNAVAILABLE, reason);
    response
        .headers
        .set("Retry-After", retry_after_secs.max(1).to_string());
    response
}

/// Refuses a connection over the cap: best-effort `503` on the still-
/// blocking fresh socket, then close.
fn reject_over_cap(stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let mut stream = stream;
    let mut response = shed_response(1, "connection limit reached");
    response.headers.set("Connection", "close");
    let _ = stream.write_all(&response.to_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_httpd::{SharedBytes, SharedTail};

    /// How many segments `reply` queues, and the bytes they put on the
    /// wire.
    fn queued(reply: Reply) -> (usize, Vec<u8>) {
        let segments = reply.iter().filter(|seg| !seg.is_empty()).count();
        let mut queue = OutQueue::default();
        reply.into_iter().for_each(|seg| queue.push(seg));
        let mut wire = Vec::new();
        queue.flush(&mut wire).expect("a Vec takes everything");
        assert!(queue.is_empty());
        (segments, wire)
    }

    /// `<h>` + `rows` bytes of a shared slab in three ranges + `</h>`.
    fn ranged(rows: usize) -> Response {
        let slab: SharedBytes = Arc::new(vec![b'r'; rows + 2]);
        let third = (rows / 3) as u32;
        let ranges = vec![
            (0, third),
            (third + 1, 2 * third + 1),
            (2 * third + 2, rows as u32 + 2),
        ];
        Response::ok("text/xml", "<h>").with_tail(SharedTail::new(slab, ranges, b"</h>"))
    }

    #[test]
    fn a_small_body_joins_its_head_and_a_large_one_is_not_copied() {
        // Small, owned or lent: one buffer.
        let small = Response::ok("text/plain", vec![b'x'; INLINE_BODY_MAX]);
        assert_eq!(
            queued(finalize(small.clone(), false)),
            (1, small.to_bytes())
        );
        let lent = ranged(INLINE_BODY_MAX - 7);
        assert_eq!(lent.body_len(), INLINE_BODY_MAX);
        assert_eq!(queued(finalize(lent.clone(), false)), (1, lent.to_bytes()));

        // One byte more: the owned body is moved behind the head …
        let large = Response::ok("text/plain", vec![b'x'; INLINE_BODY_MAX + 1]);
        assert_eq!(
            queued(finalize(large.clone(), false)),
            (2, large.to_bytes())
        );
        // … and a lent one is head + document header, the shared
        // ranges, and the closing tag.
        let lent = ranged(INLINE_BODY_MAX - 6);
        let reply = finalize(lent.clone(), false);
        assert!(
            matches!(&reply, [Seg::Owned(head), Seg::Shared { ranges, .. }, Seg::Static(b"</h>")]
                if head.ends_with(b"\r\n\r\n<h>") && ranges.len() == 3)
        );
        assert_eq!(queued(reply), (3, lent.to_bytes()));

        // A closing reply says so, whatever its shape.
        let mut closing = ranged(100_000);
        let (_, wire) = queued(finalize(closing.clone(), true));
        closing.headers.set("Connection", "close");
        assert_eq!(wire, closing.to_bytes());
    }
}
