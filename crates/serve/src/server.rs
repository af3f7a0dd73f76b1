//! The HTTP server: an event-driven epoll reactor over non-blocking
//! `std::net` sockets, routing to the prediction pipeline.
//!
//! N reactor threads each own a private epoll instance. The shared
//! listener is registered in every instance (`EPOLLEXCLUSIVE`, so an
//! incoming connection wakes one reactor, not all); each accepted
//! connection then lives on the reactor that accepted it, registered once
//! edge-triggered for read *and* write. A per-connection state machine
//! (*Reading → Dispatching → Writing → KeepAlive*) drives the reusable
//! request/response buffers: partial reads accumulate and re-run the
//! resumable [`parse_request_limited`];
//! complete requests dispatch synchronously on
//! the reactor thread; responses render into one output buffer that
//! resumes from any partial-write offset. The steady-state cost of a
//! keep-alive request is one `read`, one `write`, and zero heap
//! allocations (pinned by `tests/serve_alloc.rs`).
//!
//! Shutdown is a `UnixStream`-pair doorbell registered level-triggered in
//! every epoll set and never drained: one signal makes every `epoll_wait`
//! return immediately, so [`ServerHandle::shutdown`] completes in milliseconds
//! with no idle polling anywhere. All reactors share one application
//! state: a [`BatchPredictor`] whose [`EstimaSession`] holds the
//! measurement store (the `/v1/series` endpoints) and the sharded
//! [`FitCache`] (concurrent requests for different series take different
//! shard locks), plus the lock-free [`ServerStats`]. See DESIGN.md
//! § *Serving layer* for the architecture diagram and wire contract.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use estima_core::json::Json;
use estima_core::store::EstimaSession;
use estima_core::{
    BatchPredictor, BottleneckReport, DurabilityOptions, EstimaConfig, EstimaError, FitCache,
    MeasurementStore, SeriesId, StoreLimits,
};

use crate::http::{
    parse_request_limited, ParseError, ParseStatus, Request, ResponseBuf, REQUEST_READ_TIMEOUT,
};
use crate::route::{Route, RouteOutcome};
use crate::router::{Completion, ConnToken, Mailbox, Router};
use crate::stats::ServerStats;
use crate::sys;
use crate::wire;

/// Configuration of a prediction server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind, e.g. `127.0.0.1:7117`. Port 0 picks a free port
    /// (query it with [`Server::local_addr`]).
    pub addr: String,
    /// Number of reactor threads. Unlike the former accept-pool workers,
    /// this is **not** a connection limit — each reactor multiplexes any
    /// number of connections — so it should track CPUs, not expected
    /// clients. `0` (the default) means one reactor per available CPU.
    pub reactor_threads: usize,
    /// Listen backlog depth: connections the kernel queues before the
    /// reactors accept them. Matters under bursty load; the default (1024)
    /// is plenty for a service behind a load balancer.
    pub backlog: usize,
    /// [`EstimaConfig::parallelism`] used per prediction. The default (`1`)
    /// keeps each request on its reactor thread — request throughput comes
    /// from the reactors, not from fanning out a single request.
    pub parallelism: usize,
    /// Total [`FitCache`] capacity in cached series; the cache's solve memo
    /// holds at most as many memoised training prefixes.
    pub cache_capacity: usize,
    /// Directory for the durable measurement store (write-ahead log +
    /// snapshots). `None` (the default) keeps the store purely in-memory —
    /// the zero-cost hot path the loadgen gates run against.
    pub data_dir: Option<String>,
    /// With `data_dir`: fsync every log append before acknowledging the
    /// ingest (survives power loss, costs a flush per mutation). Off by
    /// default — appends still survive a process crash either way.
    pub wal_sync: bool,
    /// With `data_dir`: log size in bytes that triggers snapshot
    /// compaction.
    pub wal_compact_bytes: u64,
    /// Evict series idle longer than this many seconds (`0` = never).
    pub ttl_secs: u64,
    /// Most series one tenant may hold (`0` = unlimited). A tenant is the
    /// series-id prefix before the first `.`.
    pub max_series_per_tenant: u64,
    /// Most measurement points one tenant may hold across its series
    /// (`0` = unlimited).
    pub max_points_per_tenant: u64,
    /// Largest accepted request body in bytes (413 beyond it). Capped at
    /// the compiled-in [`crate::http::MAX_BODY_BYTES`].
    pub max_body_bytes: usize,
    /// Shard addresses for **router mode**. Empty (the default) serves
    /// locally as a single node; non-empty turns this server into a
    /// stateless routing tier that maps each series to its owning shard by
    /// consistent hashing and forwards every data-plane request. The router
    /// answers `/v1/healthz`, `/v1/stats` and every route-level error
    /// (404, 405, an invalid series id, a non-UTF-8 body) itself. See
    /// DESIGN.md § *Cluster serving*.
    pub shards: Vec<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7117".to_string(),
            reactor_threads: 0,
            backlog: 1024,
            parallelism: 1,
            cache_capacity: 4096,
            data_dir: None,
            wal_sync: false,
            wal_compact_bytes: 4 * 1024 * 1024,
            ttl_secs: 0,
            max_series_per_tenant: 0,
            max_points_per_tenant: 0,
            max_body_bytes: crate::http::MAX_BODY_BYTES,
            shards: Vec::new(),
        }
    }
}

/// Shared state of a running server.
#[derive(Debug)]
struct AppState {
    batch: BatchPredictor,
    stats: ServerStats,
    reactor_threads: usize,
    /// Per-connection request-body cap ([`ServerConfig::max_body_bytes`]).
    max_body_bytes: usize,
    shutting_down: AtomicBool,
    /// Precomputed `GET /v1/healthz` body: the contents never change after
    /// bind, so the hottest route copies from this instead of re-rendering —
    /// it is the route the zero-allocation request-loop test pins.
    healthz_body: String,
    /// Router mode: the consistent-hash forwarding tier. `None` serves
    /// locally (single-node mode).
    router: Option<Router>,
}

/// Everything a reactor thread needs: the shared listener, the shutdown
/// doorbell, and the application state.
#[derive(Debug)]
struct Shared {
    listener: TcpListener,
    wake: sys::Doorbell,
    state: Arc<AppState>,
    /// Per-reactor completion inboxes (router mode): forwarder threads
    /// deliver finished upstream exchanges here and the owning reactor's
    /// doorbell resumes the parked connection. Allocated in every mode —
    /// they are inert without a router.
    mailboxes: Arc<Vec<Mailbox>>,
}

/// A bound (but not yet running) prediction server.
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
}

/// Handle to a running server: query its address, then shut it down.
#[derive(Debug)]
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Bind the listener and build the shared state. The server does not
    /// accept connections until [`Server::run`] or [`Server::spawn`]. The
    /// address binds as [`TcpListener::bind`] binds it: each resolved
    /// address in turn, and an address that resolves to none fails with
    /// std's `InvalidInput` error ("could not resolve to any addresses").
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        // std sets `SO_REUSEADDR` before `bind(2)`, so a restarted server
        // (most importantly a cluster shard coming back on the exact
        // address the router's ring names) reclaims its port at once, not
        // after `TIME_WAIT` drains. A second `listen(2)` swaps std's
        // backlog for the configured one.
        let listener = TcpListener::bind(config.addr.as_str())?;
        let backlog = i32::try_from(config.backlog.max(1)).unwrap_or(i32::MAX);
        sys::set_backlog(&listener, backlog)?;
        listener.set_nonblocking(true)?;
        let reactor_threads = if config.reactor_threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            config.reactor_threads
        };
        let cache = Arc::new(FitCache::with_capacity(config.cache_capacity));
        let estima_config = EstimaConfig::default().with_parallelism(config.parallelism.max(1));
        let mut limits = StoreLimits::new();
        if config.ttl_secs > 0 {
            limits = limits.with_ttl(std::time::Duration::from_secs(config.ttl_secs));
        }
        if config.max_series_per_tenant > 0 {
            limits = limits.with_max_series_per_tenant(config.max_series_per_tenant);
        }
        if config.max_points_per_tenant > 0 {
            limits = limits.with_max_points_per_tenant(config.max_points_per_tenant);
        }
        let store = match &config.data_dir {
            Some(dir) => {
                let options = DurabilityOptions::new(dir)
                    .with_sync(config.wal_sync)
                    .with_compact_bytes(config.wal_compact_bytes);
                MeasurementStore::open(&options)
                    .map_err(|e| std::io::Error::other(format!("cannot open data_dir: {e}")))?
            }
            None => MeasurementStore::new(),
        }
        .with_limits(limits);
        let session = EstimaSession::with_store(estima_config, cache, store);
        // The wire key stays `workers` (monitoring compatibility); it now
        // reports the reactor-thread count.
        let healthz_body = Json::Object(vec![
            ("status".to_string(), Json::String("ok".to_string())),
            ("workers".to_string(), Json::Number(reactor_threads as f64)),
        ])
        .render();
        let mailboxes: Arc<Vec<Mailbox>> = Arc::new(
            (0..reactor_threads)
                .map(|_| Mailbox::new())
                .collect::<std::io::Result<Vec<_>>>()?,
        );
        let router = if config.shards.is_empty() {
            None
        } else {
            Some(Router::start(&config.shards, Arc::clone(&mailboxes))?)
        };
        let state = Arc::new(AppState {
            batch: BatchPredictor::with_session(session),
            stats: ServerStats::default(),
            reactor_threads,
            max_body_bytes: config.max_body_bytes.min(crate::http::MAX_BODY_BYTES),
            shutting_down: AtomicBool::new(false),
            healthz_body,
            router,
        });
        Ok(Server {
            shared: Arc::new(Shared {
                listener,
                wake: sys::Doorbell::new()?,
                state,
                mailboxes,
            }),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.shared.listener.local_addr()
    }

    /// Run the reactors on the calling thread plus `reactor_threads - 1`
    /// spawned threads. Blocks until the process exits (the binary's mode).
    pub fn run(self) -> std::io::Result<()> {
        let mut threads = Vec::new();
        for index in 1..self.shared.state.reactor_threads {
            let shared = Arc::clone(&self.shared);
            threads.push(std::thread::spawn(move || reactor(&shared, index)));
        }
        reactor(&self.shared, 0);
        for thread in threads {
            let _ = thread.join();
        }
        Ok(())
    }

    /// Start the reactors on background threads and return a handle for
    /// tests and the load generator.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr()?;
        let mut threads = Vec::new();
        for index in 0..self.shared.state.reactor_threads {
            let shared = Arc::clone(&self.shared);
            threads.push(std::thread::spawn(move || reactor(&shared, index)));
        }
        Ok(ServerHandle {
            addr,
            shared: self.shared,
            threads,
        })
    }
}

impl ServerHandle {
    /// Address the server is listening on.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stop the server and join its reactors. The shutdown doorbell (a
    /// level-triggered `UnixStream` in every reactor's epoll set) wakes every
    /// `epoll_wait` immediately — idle keep-alive connections do not delay
    /// this — so shutdown completes in milliseconds. Requests being
    /// processed finish (dispatch is synchronous on the reactor thread) and
    /// queued responses get a best-effort flush; connections then close.
    pub fn shutdown(self) {
        self.shared
            .state
            .shutting_down
            .store(true, Ordering::SeqCst);
        let _ = self.shared.wake.signal();
        for thread in self.threads {
            let _ = thread.join();
        }
        if let Some(router) = &self.shared.state.router {
            router.shutdown();
        }
    }
}

/// Epoll token of the shared listener.
const TOKEN_LISTENER: u64 = 0;
/// Epoll token of the shutdown doorbell.
const TOKEN_WAKE: u64 = 1;
/// Epoll token of this reactor's completion-mailbox doorbell (router mode).
const TOKEN_MAILBOX: u64 = 2;
/// First epoll token used for connections: token = slab index + base.
const TOKEN_BASE: u64 = 3;

/// Events decoded per `epoll_wait` call.
const EVENTS_PER_WAIT: usize = 128;

/// How often a reactor scans for connections stalled mid-request or
/// mid-response, *only while at least one such connection exists* — an
/// all-idle or all-healthy reactor sleeps in `epoll_wait` indefinitely.
const STALL_SWEEP: std::time::Duration = std::time::Duration::from_millis(500);

/// Most capacity an idle connection keeps in each of its four large
/// buffers, however large its past requests and responses were.
const IDLE_BUFFER_CAP: usize = 64 * 1024;

/// One connection owned by a reactor: sockets, reusable buffers, and the
/// state-machine flags.
///
/// The state machine is implicit in the buffer cursors: *Reading* while
/// `inbuf` holds an incomplete request, *Dispatching* synchronously inside
/// [`drive`], *Writing* while `outpos < outbuf.len()`, *KeepAlive* when
/// both buffers are drained and the connection waits for the next edge.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    /// Reusable parsed-request target; its buffers stay warm per connection.
    request: Request,
    /// Reusable response assembly buffer.
    response: ResponseBuf,
    /// Unconsumed wire bytes (partial request and/or pipelined follow-ups).
    inbuf: Vec<u8>,
    /// Rendered response bytes not yet fully written.
    outbuf: Vec<u8>,
    /// Bytes of `outbuf` already written.
    outpos: usize,
    /// Close the connection once `outbuf` drains (client asked, protocol
    /// error, or shutdown).
    close_after_flush: bool,
    /// The peer closed its writing half; finish flushing, then close.
    eof: bool,
    /// When the connection first stalled mid-request or mid-response;
    /// cleared on completion. Connections stalled longer than
    /// [`REQUEST_READ_TIMEOUT`] are dropped by the sweep.
    stalled_since: Option<Instant>,
    /// Router mode: `Some(close_after)` while the connection waits for a
    /// forwarded request's completion. A parked connection reads nothing
    /// and dispatches nothing — pipelined follow-ups wait in `inbuf` — and
    /// is exempt from the stall sweep (the upstream timeouts bound how long
    /// the park can last).
    parked: Option<bool>,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            request: Request::new(),
            response: ResponseBuf::new(),
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            outpos: 0,
            close_after_flush: false,
            eof: false,
            stalled_since: None,
            parked: None,
        }
    }

    /// Shrink every large buffer beyond [`IDLE_BUFFER_CAP`] back to it, once
    /// the connection is idle (nothing buffered either way, nothing parked,
    /// so the last request and response are done with). A buffer within
    /// the cap keeps its capacity, so the warm path still allocates nothing.
    fn trim_idle_buffers(&mut self) {
        debug_assert!(self.inbuf.is_empty() && self.outbuf.is_empty() && self.parked.is_none());
        self.request.body.clear();
        self.response.body.clear();
        self.inbuf.shrink_to(IDLE_BUFFER_CAP);
        self.outbuf.shrink_to(IDLE_BUFFER_CAP);
        self.request.body.shrink_to(IDLE_BUFFER_CAP);
        self.response.body.shrink_to(IDLE_BUFFER_CAP);
    }
}

/// One reactor thread: a private epoll instance multiplexing the shared
/// listener, the shutdown doorbell, this reactor's completion mailbox, and
/// every connection it has accepted. `index` names the reactor: it selects
/// which mailbox forwarder threads deliver this reactor's completions to.
fn reactor(shared: &Shared, index: usize) {
    let Ok(epoll) = sys::Epoll::new() else {
        return;
    };
    if epoll
        .add(
            shared.listener.as_raw_fd(),
            // Level-triggered, so a backlog never silently sticks around;
            // exclusive, so a new connection wakes one reactor, not all.
            sys::EPOLLIN | sys::EPOLLEXCLUSIVE,
            TOKEN_LISTENER,
        )
        .is_err()
    {
        return;
    }
    if epoll
        .add(shared.wake.raw_fd(), sys::EPOLLIN, TOKEN_WAKE)
        .is_err()
    {
        return;
    }
    if epoll
        .add(
            shared.mailboxes[index].wake_fd(),
            sys::EPOLLIN,
            TOKEN_MAILBOX,
        )
        .is_err()
    {
        return;
    }

    // Connection slab: slot index + TOKEN_BASE is the epoll token, closed
    // slots go on the free list for reuse. `generations[slot]` counts how
    // often the slot has been closed: a parked connection's completion
    // carries the generation it parked under, so a completion that outlives
    // its connection can never resume the slot's next tenant.
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut generations: Vec<u64> = Vec::new();
    let mut stalled_count = 0usize;
    let mut last_sweep = Instant::now();
    let mut events = [sys::EpollEvent::zeroed(); EVENTS_PER_WAIT];
    // Every read lands here, then moves to its connection's `inbuf`: one
    // buffer, zeroed once, serves all connections, and idle ones hold none.
    let mut chunk = [0u8; 16 * 1024];

    loop {
        // With no stalled connection there is nothing to poll for: sleep
        // until a socket edge or the shutdown doorbell. (Shutdown needs no
        // timeout — the doorbell is level-triggered and never drained, so
        // it wakes every wait from the moment it is signalled.)
        let timeout_ms = if stalled_count == 0 {
            -1
        } else {
            STALL_SWEEP.as_millis() as i32
        };
        let Ok(n) = epoll.wait(&mut events, timeout_ms) else {
            return;
        };
        shared
            .state
            .stats
            .epoll_wakeups
            .fetch_add(1, Ordering::Relaxed);
        if shared.state.shutting_down.load(Ordering::SeqCst) {
            // Nothing is mid-dispatch (dispatch is synchronous); flush
            // queued responses best-effort and drop every connection.
            for conn in conns.iter_mut().flatten() {
                let _ = flush_some(conn);
            }
            return;
        }
        let mut mailbox_ready = false;
        for event in &events[..n] {
            let (ready, token) = (event.events, event.data);
            match token {
                TOKEN_WAKE => {}
                TOKEN_MAILBOX => mailbox_ready = true,
                TOKEN_LISTENER => {
                    accept_ready(&epoll, shared, &mut conns, &mut free, &mut generations);
                }
                token => {
                    let slot = (token - TOKEN_BASE) as usize;
                    let Some(conn) = conns[slot].as_mut() else {
                        continue;
                    };
                    let keep = if ready & (sys::EPOLLERR | sys::EPOLLHUP) != 0 {
                        // Socket error or the peer is gone in both
                        // directions — no response could be delivered.
                        false
                    } else {
                        // EPOLLIN / EPOLLOUT / EPOLLRDHUP all funnel into
                        // the same drive: flush what is pending, read to
                        // EAGAIN or EOF, dispatch what completed.
                        let token = ConnToken {
                            reactor: index,
                            slot,
                            generation: generations[slot],
                        };
                        drive(conn, &shared.state, token, &mut chunk)
                    };
                    if keep {
                        note_stall(conn, &mut stalled_count);
                    } else {
                        close_slot(
                            &mut conns,
                            &mut free,
                            &mut generations,
                            slot,
                            &mut stalled_count,
                        );
                    }
                }
            }
        }
        if mailbox_ready {
            deliver_completions(
                shared,
                index,
                &mut conns,
                &mut free,
                &mut generations,
                &mut stalled_count,
                &mut chunk,
            );
        }
        if stalled_count > 0 && last_sweep.elapsed() >= STALL_SWEEP {
            last_sweep = Instant::now();
            sweep_stalled(&mut conns, &mut free, &mut generations, &mut stalled_count);
        }
    }
}

/// Drain this reactor's completion mailbox and resume every parked
/// connection whose completion arrived: render the forwarded response,
/// then drive the connection as if the handler had just returned —
/// flushing, and dispatching any pipelined requests that queued up behind
/// the park.
fn deliver_completions(
    shared: &Shared,
    index: usize,
    conns: &mut [Option<Conn>],
    free: &mut Vec<usize>,
    generations: &mut [u64],
    stalled_count: &mut usize,
    chunk: &mut [u8],
) {
    for completion in shared.mailboxes[index].drain() {
        let slot = completion.token.slot;
        if slot >= conns.len() || generations[slot] != completion.token.generation {
            continue; // the connection died while its job was in flight
        }
        let Some(conn) = conns[slot].as_mut() else {
            continue;
        };
        let Some(close) = conn.parked.take() else {
            continue;
        };
        let Completion { response, body, .. } = completion;
        conn.request.body = body;
        conn.response.reset();
        conn.response.status = response.status;
        conn.response.retry_after = response.retry_after;
        conn.response.body.push_str(&response.body);
        finish_response(conn, &shared.state, close);
        let token = ConnToken {
            reactor: index,
            slot,
            generation: generations[slot],
        };
        if drive(conn, &shared.state, token, chunk) {
            note_stall(conn, stalled_count);
        } else {
            close_slot(conns, free, generations, slot, stalled_count);
        }
    }
}

/// Drain the listener: accept until `EAGAIN`, registering each connection
/// edge-triggered on this reactor's epoll.
fn accept_ready(
    epoll: &sys::Epoll,
    shared: &Shared,
    conns: &mut Vec<Option<Conn>>,
    free: &mut Vec<usize>,
    generations: &mut Vec<u64>,
) {
    loop {
        match sys::accept_nonblocking(&shared.listener) {
            Ok(Some(stream)) => {
                // Responses can leave in two writes when a write blocks
                // mid-response; without TCP_NODELAY the tail write can sit
                // behind Nagle + delayed ACK for tens of milliseconds.
                let _ = stream.set_nodelay(true);
                shared.state.stats.accepts.fetch_add(1, Ordering::Relaxed);
                let slot = free.pop().unwrap_or_else(|| {
                    conns.push(None);
                    generations.push(0);
                    conns.len() - 1
                });
                let token = slot as u64 + TOKEN_BASE;
                // Registered once, for read and write edges together: the
                // reactor never re-arms interest, it just reads and writes
                // to EAGAIN on every event.
                if epoll
                    .add(
                        stream.as_raw_fd(),
                        sys::EPOLLIN | sys::EPOLLOUT | sys::EPOLLET | sys::EPOLLRDHUP,
                        token,
                    )
                    .is_err()
                {
                    free.push(slot);
                    continue; // drops (closes) the stream
                }
                conns[slot] = Some(Conn::new(stream));
            }
            Ok(None) => return,
            Err(_) => {
                // Persistent accept failure (fd exhaustion under overload):
                // back off briefly instead of busy-spinning on the
                // level-triggered listener at the worst moment.
                std::thread::sleep(std::time::Duration::from_millis(50));
                return;
            }
        }
    }
}

/// Outcome of pushing pending output.
enum Flush {
    /// `outbuf` fully written (and reset).
    Drained,
    /// The socket send buffer filled; resume on the next `EPOLLOUT` edge.
    Blocked,
    /// Transport failure; close the connection.
    Fatal,
}

/// Write pending response bytes until drained or `EAGAIN`.
fn flush_some(conn: &mut Conn) -> Flush {
    while conn.outpos < conn.outbuf.len() {
        match conn.stream.write(&conn.outbuf[conn.outpos..]) {
            Ok(0) => return Flush::Fatal,
            Ok(n) => conn.outpos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Flush::Blocked,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Flush::Fatal,
        }
    }
    conn.outbuf.clear();
    conn.outpos = 0;
    Flush::Drained
}

/// Outcome of pulling input and dispatching.
enum Fill {
    /// The socket is read to `EAGAIN` (or EOF) and every complete request
    /// has been dispatched into `outbuf`.
    Drained,
    /// Transport failure; close the connection.
    Fatal,
}

/// Account for and enqueue the rendered response, mirroring the error
/// counters and wire-byte accounting of the former blocking loop.
fn finish_response(conn: &mut Conn, state: &AppState, close: bool) {
    if conn.response.status >= 500 {
        state.stats.server_errors.fetch_add(1, Ordering::Relaxed);
    } else if conn.response.status >= 400 {
        state.stats.client_errors.fetch_add(1, Ordering::Relaxed);
    }
    let written = conn.response.render_into(&mut conn.outbuf, close);
    state
        .stats
        .bytes_out
        .fetch_add(written as u64, Ordering::Relaxed);
    if close {
        conn.close_after_flush = true;
    }
}

/// Read to `EAGAIN`/EOF, then parse and dispatch every complete pipelined
/// request that has accumulated (edge-triggered sockets require consuming
/// everything per event), each read through the reactor's `chunk`.
/// Responses render into `outbuf`; the caller flushes.
fn fill_and_dispatch(
    conn: &mut Conn,
    state: &AppState,
    token: ConnToken,
    chunk: &mut [u8],
) -> Fill {
    loop {
        match conn.stream.read(chunk) {
            Ok(0) => {
                conn.eof = true;
                break;
            }
            Ok(n) => {
                conn.inbuf.extend_from_slice(&chunk[..n]);
                // Parse after *every* chunk, not once the socket drains: a
                // peer that writes faster than one read loop can drain
                // would otherwise keep the socket readable while `inbuf`
                // grows without bound. Consuming complete requests as they
                // arrive keeps the buffer bounded by a single in-flight
                // request (whose header and body caps the parser enforces).
                dispatch_buffered(conn, state, token);
                if conn.close_after_flush {
                    break;
                }
                if conn.parked.is_some() {
                    // A request is in flight upstream: stop reading (and
                    // stop the size backstop — inbuf legitimately holds
                    // whatever pipelined requests arrived with this one)
                    // until the completion resumes the connection.
                    break;
                }
                // Backstop for the bound the parser already guarantees: a
                // partial request can never legitimately out-grow the
                // header cap plus the configured body cap.
                if conn.inbuf.len() > crate::http::MAX_HEADER_BYTES + state.max_body_bytes {
                    conn.response.reset();
                    respond_error(
                        &mut conn.response,
                        413,
                        "payload_too_large",
                        "request exceeds the configured size limit",
                    );
                    finish_response(conn, state, true);
                    conn.inbuf.clear();
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return Fill::Fatal,
        }
    }
    if conn.eof && !conn.inbuf.is_empty() && !conn.close_after_flush && conn.parked.is_none() {
        // The peer stopped mid-request: mirror the blocking reader's 400.
        // (While parked the undispatched inbuf bytes are not mid-request —
        // they are pipelined requests waiting for the resume.)
        conn.response.reset();
        respond_error(&mut conn.response, 400, "bad_request", "eof inside request");
        finish_response(conn, state, true);
        conn.inbuf.clear();
    }
    Fill::Drained
}

/// Parse and answer every complete request at the front of `inbuf`,
/// leaving any trailing partial request in place. Stops early when a
/// request parks the connection (router mode): pipelined follow-ups stay
/// buffered until the completion resumes dispatch, preserving response
/// order on the wire.
fn dispatch_buffered(conn: &mut Conn, state: &AppState, token: ConnToken) {
    while !conn.inbuf.is_empty() && !conn.close_after_flush && conn.parked.is_none() {
        match parse_request_limited(&conn.inbuf, &mut conn.request, state.max_body_bytes) {
            Ok(ParseStatus::Complete { consumed }) => {
                state
                    .stats
                    .bytes_in
                    .fetch_add(consumed as u64, Ordering::Relaxed);
                conn.inbuf.drain(..consumed);
                let close = conn.request.close || state.shutting_down.load(Ordering::SeqCst);
                conn.response.reset();
                match route(&mut conn.request, state, &mut conn.response, token) {
                    RouteOutcome::Respond => finish_response(conn, state, close),
                    RouteOutcome::Park => conn.parked = Some(close),
                }
            }
            Ok(ParseStatus::Partial) => break,
            Err(error) => {
                conn.response.reset();
                match error {
                    ParseError::BodyTooLarge(len) => respond_error(
                        &mut conn.response,
                        413,
                        "payload_too_large",
                        &format!("declared body of {len} bytes exceeds the limit"),
                    ),
                    ParseError::Malformed(detail) => {
                        respond_error(&mut conn.response, 400, "bad_request", &detail)
                    }
                }
                finish_response(conn, state, true);
                conn.inbuf.clear();
            }
        }
    }
}

/// Advance one connection's state machine as far as the socket allows:
/// alternate write and read phases until both sides report `EAGAIN` or the
/// connection is done, reading through the reactor's `chunk`. Returns
/// `false` when the connection must close.
fn drive(conn: &mut Conn, state: &AppState, token: ConnToken, chunk: &mut [u8]) -> bool {
    loop {
        match flush_some(conn) {
            Flush::Fatal => return false,
            Flush::Blocked => return true, // resume on the EPOLLOUT edge
            Flush::Drained => {}
        }
        if conn.parked.is_some() {
            // Waiting for an upstream completion: earlier pipelined
            // responses are flushed, nothing more may dispatch until the
            // mailbox resumes this connection.
            return true;
        }
        if conn.close_after_flush || conn.eof {
            return false;
        }
        match fill_and_dispatch(conn, state, token, chunk) {
            Fill::Fatal => return false,
            Fill::Drained => {
                if conn.parked.is_some() {
                    return true;
                }
                if conn.outbuf.is_empty() {
                    // No response produced: either idle keep-alive or a
                    // partial request waiting for more bytes.
                    if conn.inbuf.is_empty() {
                        conn.trim_idle_buffers();
                    }
                    return !conn.eof;
                }
                // Responses queued: loop back to the write phase.
            }
        }
    }
}

/// Track whether a kept connection is stalled mid-request or mid-response,
/// maintaining the reactor's count of stalled connections (which gates the
/// sweep timeout).
fn note_stall(conn: &mut Conn, stalled_count: &mut usize) {
    // A parked connection is waiting on an upstream shard, not on its
    // peer: the upstream connect/read timeouts bound that wait, so it is
    // exempt from the peer-stall sweep (its inbuf may legitimately hold
    // pipelined requests the whole time).
    let stalled =
        conn.parked.is_none() && (conn.outpos < conn.outbuf.len() || !conn.inbuf.is_empty());
    if stalled && conn.stalled_since.is_none() {
        conn.stalled_since = Some(Instant::now());
        *stalled_count += 1;
    } else if !stalled && conn.stalled_since.is_some() {
        conn.stalled_since = None;
        *stalled_count -= 1;
    }
}

/// Close and recycle a slab slot, bumping its generation so a completion
/// still in flight for the old tenant is dropped on arrival. Dropping the
/// `TcpStream` closes the fd, which also removes it from the epoll
/// interest list.
fn close_slot(
    conns: &mut [Option<Conn>],
    free: &mut Vec<usize>,
    generations: &mut [u64],
    slot: usize,
    stalled_count: &mut usize,
) {
    if let Some(conn) = conns[slot].take() {
        if conn.stalled_since.is_some() {
            *stalled_count -= 1;
        }
        generations[slot] += 1;
        free.push(slot);
    }
}

/// Drop connections stalled longer than [`REQUEST_READ_TIMEOUT`]: the
/// non-blocking analogue of the old per-read deadline, so a trickling or
/// never-reading client cannot pin buffers forever. A stalled client is by
/// definition not keeping up, so no error response is attempted.
fn sweep_stalled(
    conns: &mut [Option<Conn>],
    free: &mut Vec<usize>,
    generations: &mut [u64],
    stalled_count: &mut usize,
) {
    let now = Instant::now();
    for slot in 0..conns.len() {
        let expired = conns[slot].as_ref().is_some_and(|conn| {
            conn.stalled_since
                .is_some_and(|since| now.duration_since(since) >= REQUEST_READ_TIMEOUT)
        });
        if expired {
            close_slot(conns, free, generations, slot, stalled_count);
        }
    }
}

/// Set a success (or handler-specific) status and render a JSON tree into
/// the reusable response body.
fn respond_json(out: &mut ResponseBuf, status: u16, body: &Json) {
    out.status = status;
    body.render_into(&mut out.body);
}

/// Set an error status and serialize the wire error body directly into the
/// reusable response buffer (no intermediate `Json` tree).
fn respond_error(out: &mut ResponseBuf, status: u16, code: &str, message: &str) {
    out.status = status;
    wire::write_error(code, message, &mut out.body);
}

/// Dispatch one request to its endpoint handler through the shared route
/// table, counting it first. In router mode [`Router::dispatch`] forwards
/// every data-plane request; the routes every process answers for itself
/// (`/v1/healthz`, `/v1/stats`, 404 and 405) fall through to the same
/// handlers a single node runs.
fn route(
    request: &mut Request,
    state: &AppState,
    out: &mut ResponseBuf,
    token: ConnToken,
) -> RouteOutcome {
    let route = Route::parse(&request.method, &request.path);
    state.stats.count(route);
    if let Some(router) = &state.router {
        let (method, path) = (&request.method, &request.path);
        if let Some(outcome) = router.dispatch(route, method, path, &mut request.body, token, out) {
            return outcome;
        }
    }
    match route {
        Route::Healthz => healthz(state, out),
        Route::Stats => server_stats(state, out),
        Route::Predict => predict(request, state, out),
        Route::Batch => batch(request, state, out),
        Route::Measurements => ingest_measurements(request, state, out),
        Route::SeriesList => series_list(state, out),
        Route::SeriesGet(id) => series_get(id, state, out),
        Route::SeriesDelete(id) => series_delete(id, state, out),
        Route::SeriesPredict(id) => series_predict(id, request, state, out),
        Route::SeriesPlan(id) => series_plan(id, request, state, out),
        Route::MethodNotAllowed(allow) => method_not_allowed(request, allow, out),
        Route::NotFound(path) => not_found(path, out),
    }
    RouteOutcome::Respond
}

/// `405 Method Not Allowed` with the mandatory `Allow` header.
fn method_not_allowed(request: &Request, allow: &'static str, out: &mut ResponseBuf) {
    out.allow = Some(allow);
    respond_error(
        out,
        405,
        "method_not_allowed",
        &format!(
            "{} is not supported on {} (allowed: {allow})",
            request.method, request.path
        ),
    );
}

/// `404 Not Found` for an unknown path.
fn not_found(path: &str, out: &mut ResponseBuf) {
    respond_error(out, 404, "not_found", &format!("no route for {path}"));
}

/// Map a store/pipeline error to its wire response (see
/// [`wire::estima_error_status`]).
fn store_error(error: &EstimaError, out: &mut ResponseBuf) {
    if let EstimaError::QuotaExceeded { retry_after_ms, .. } = error {
        // Structured degradation: 429 with both a `Retry-After` header
        // (whole seconds, rounded up) and a millisecond hint in the body.
        out.status = 429;
        out.retry_after = Some(retry_after_ms.div_ceil(1000).max(1));
        wire::write_quota_error(&error.to_string(), *retry_after_ms, &mut out.body);
        return;
    }
    let (status, code) = wire::estima_error_status(error);
    respond_error(out, status, code, &error.to_string());
}

/// Parse and validate a `{id}` path segment, filling `out` on failure.
pub(crate) fn parse_series_id(raw: &str, out: &mut ResponseBuf) -> Option<SeriesId> {
    match SeriesId::new(raw) {
        Ok(id) => Some(id),
        Err(e) => {
            store_error(&e, out);
            None
        }
    }
}

/// View a request body as UTF-8 text, answering `400 bad_request` on
/// failure. The hot routes hand the text to their `wire::decode_*`
/// function; `/v1/batch` parses it with `parse_body`.
pub(crate) fn body_text<'a>(request: &'a Request, out: &mut ResponseBuf) -> Option<&'a str> {
    match std::str::from_utf8(&request.body) {
        Ok(text) => Some(text),
        Err(_) => {
            respond_error(out, 400, "bad_request", NOT_UTF8);
            None
        }
    }
}

/// [`body_text`] for the router, which forwards the body: the text is
/// moved out of `body`, and a body that is not UTF-8 stays in place.
pub(crate) fn take_body_text(body: &mut Vec<u8>, out: &mut ResponseBuf) -> Option<String> {
    match String::from_utf8(std::mem::take(body)) {
        Ok(text) => Some(text),
        Err(error) => {
            *body = error.into_bytes();
            respond_error(out, 400, "bad_request", NOT_UTF8);
            None
        }
    }
}

/// The message of the `400` answering a body that is not UTF-8.
const NOT_UTF8: &str = "body is not valid UTF-8";

/// Parse a request body as JSON, answering `400 bad_request` on failure.
fn parse_body(request: &Request, out: &mut ResponseBuf) -> Option<Json> {
    let text = body_text(request, out)?;
    match Json::parse(text) {
        Ok(body) => Some(body),
        Err(e) => {
            respond_error(out, 400, "bad_request", &e);
            None
        }
    }
}

/// `GET /v1/healthz`: copies the body precomputed at bind — together with
/// the reusable buffers this route answers without a single allocation.
fn healthz(state: &AppState, out: &mut ResponseBuf) {
    out.status = 200;
    out.body.push_str(&state.healthz_body);
}

/// `GET /v1/stats`.
fn server_stats(state: &AppState, out: &mut ResponseBuf) {
    // Sweep first, like every read: no counter counts a series the TTL has
    // expired, and the sweep's invalidations and WAL records show here.
    state.batch.session().sweep_expired();
    let cache = state.batch.cache();
    let store = state.batch.session().store();
    let (hits, misses) = cache.stats();
    let (solve_hits, solve_misses) = cache.solve_stats();
    let stats = &state.stats;
    let load = |counter: &std::sync::atomic::AtomicU64| counter.load(Ordering::Relaxed) as f64;
    let quantile = |q: f64| match stats.latency_quantile_ns(q) {
        Some(ns) => Json::Number(ns as f64 / 1_000.0),
        None => Json::Null,
    };
    let body = Json::Object(vec![
        (
            "requests".to_string(),
            Json::Object(
                stats
                    .requests()
                    .map(|(name, count)| (name.to_string(), Json::Number(count as f64)))
                    .chain([
                        (
                            "client_errors".to_string(),
                            Json::Number(load(&stats.client_errors)),
                        ),
                        (
                            "server_errors".to_string(),
                            Json::Number(load(&stats.server_errors)),
                        ),
                    ])
                    .collect(),
            ),
        ),
        (
            "predictions".to_string(),
            Json::Number(load(&stats.predictions)),
        ),
        (
            "bytes".to_string(),
            Json::Object(vec![
                ("in".to_string(), Json::Number(load(&stats.bytes_in))),
                ("out".to_string(), Json::Number(load(&stats.bytes_out))),
            ]),
        ),
        (
            "reactor".to_string(),
            Json::Object(vec![
                (
                    "threads".to_string(),
                    Json::Number(state.reactor_threads as f64),
                ),
                ("accepts".to_string(), Json::Number(load(&stats.accepts))),
                (
                    "epoll_wakeups".to_string(),
                    Json::Number(load(&stats.epoll_wakeups)),
                ),
            ]),
        ),
        (
            "router".to_string(),
            match &state.router {
                // Router mode: per-shard health plus forwarding counters.
                Some(router) => router.stats_json(),
                // Single-node mode: `null`, like `wal` with durability off,
                // so monitors can tell "not a router" from "idle router".
                None => Json::Null,
            },
        ),
        (
            "cache".to_string(),
            Json::Object(vec![
                ("hits".to_string(), Json::Number(hits as f64)),
                ("misses".to_string(), Json::Number(misses as f64)),
                ("hit_rate".to_string(), Json::Number(cache.hit_rate())),
                ("entries".to_string(), Json::Number(cache.len() as f64)),
                (
                    "capacity".to_string(),
                    Json::Number(cache.capacity() as f64),
                ),
                ("shards".to_string(), Json::Number(cache.shards() as f64)),
                (
                    "evictions".to_string(),
                    Json::Number(cache.evictions() as f64),
                ),
                (
                    "invalidations".to_string(),
                    Json::Number(cache.invalidations() as f64),
                ),
                ("solve_hits".to_string(), Json::Number(solve_hits as f64)),
                (
                    "solve_misses".to_string(),
                    Json::Number(solve_misses as f64),
                ),
                (
                    "solve_entries".to_string(),
                    Json::Number(cache.solve_entries() as f64),
                ),
            ]),
        ),
        (
            "store".to_string(),
            Json::Object(vec![
                ("series".to_string(), Json::Number(store.len() as f64)),
                (
                    "points".to_string(),
                    Json::Number(store.total_points() as f64),
                ),
                ("ingests".to_string(), Json::Number(store.ingests() as f64)),
            ]),
        ),
        (
            "wal".to_string(),
            match store.wal_stats() {
                Some(wal) => Json::Object(vec![
                    ("records".to_string(), Json::Number(wal.records as f64)),
                    ("bytes".to_string(), Json::Number(wal.bytes as f64)),
                    ("snapshots".to_string(), Json::Number(wal.snapshots as f64)),
                    ("replays".to_string(), Json::Number(wal.replays as f64)),
                    (
                        "last_compaction_ms".to_string(),
                        Json::Number(wal.last_compaction_ms),
                    ),
                ]),
                // Durability off: `null`, not a zeroed object, so monitors
                // can tell "no WAL" from "WAL with no records yet".
                None => Json::Null,
            },
        ),
        (
            "latency_us".to_string(),
            Json::Object(vec![
                (
                    "count".to_string(),
                    Json::Number(stats.latency_count() as f64),
                ),
                ("p50".to_string(), quantile(0.50)),
                ("p90".to_string(), quantile(0.90)),
                ("p99".to_string(), quantile(0.99)),
            ]),
        ),
    ]);
    respond_json(out, 200, &body);
}

/// `POST /v1/predict`.
fn predict(request: &Request, state: &AppState, out: &mut ResponseBuf) {
    let Some(text) = body_text(request, out) else {
        return;
    };
    let (set, target) = match wire::decode_predict_request(text) {
        Ok(decoded) => decoded,
        Err(e) => return respond_error(out, 400, "bad_request", &e.0),
    };
    let started = Instant::now();
    let result = state.batch.predict(&set, &target);
    state.stats.record_latency(started.elapsed());
    match result {
        Ok(prediction) => {
            state.stats.predictions.fetch_add(1, Ordering::Relaxed);
            out.status = 200;
            wire::write_prediction(&prediction, &mut out.body);
        }
        Err(e) => respond_error(out, 422, "prediction_failed", &e.to_string()),
    }
}

/// `POST /v1/batch`.
fn batch(request: &Request, state: &AppState, out: &mut ResponseBuf) {
    let Some(body) = parse_body(request, out) else {
        return;
    };
    let jobs = match wire::batch_request_from_json(&body) {
        Ok(jobs) => jobs,
        Err(e) => return respond_error(out, 400, "bad_request", &e.0),
    };
    let started = Instant::now();
    let results = state.batch.predict_all(jobs);
    state.stats.record_latency(started.elapsed());
    let served = results.iter().filter(|result| result.is_ok()).count();
    state
        .stats
        .predictions
        .fetch_add(served as u64, Ordering::Relaxed);
    out.status = 200;
    wire::write_batch_results(&results, &mut out.body);
}

/// The session behind every stateful endpoint.
fn session(state: &AppState) -> &EstimaSession {
    state.batch.session()
}

/// `POST /v1/measurements`: merge points into a named series, creating it
/// on first contact (which requires `frequency_ghz`). One request is one
/// store write: the version bumps once however many points arrive.
fn ingest_measurements(request: &Request, state: &AppState, out: &mut ResponseBuf) {
    let Some(text) = body_text(request, out) else {
        return;
    };
    let ingest = match wire::decode_ingest_request(text) {
        Ok(decoded) => decoded,
        Err(e) => return respond_error(out, 400, "bad_request", &e.0),
    };
    let points = ingest.points.into();
    match session(state).merge(&ingest.series, ingest.frequency_ghz, points) {
        // The snapshot was taken under the store's write lock, so version
        // and points are consistent however the series moves on afterwards.
        Ok((snapshot, _)) => {
            let body = Json::Object(vec![
                (
                    "series".to_string(),
                    Json::String(ingest.series.as_str().to_string()),
                ),
                ("version".to_string(), Json::Number(snapshot.version as f64)),
                (
                    "points".to_string(),
                    Json::Number(snapshot.set.len() as f64),
                ),
            ]);
            respond_json(out, 200, &body);
        }
        // Only a write without a clock can miss its series.
        Err(EstimaError::SeriesNotFound { .. }) => respond_error(
            out,
            404,
            "series_not_found",
            &format!(
                "series `{}` does not exist; supply `frequency_ghz` to create it",
                ingest.series.as_str()
            ),
        ),
        Err(e) => store_error(&e, out),
    }
}

/// `GET /v1/series`.
fn series_list(state: &AppState, out: &mut ResponseBuf) {
    respond_json(out, 200, &wire::series_list_to_json(&session(state).list()));
}

/// `GET /v1/series/{id}`.
fn series_get(raw_id: &str, state: &AppState, out: &mut ResponseBuf) {
    let Some(id) = parse_series_id(raw_id, out) else {
        return;
    };
    match session(state).snapshot(&id) {
        Some(snapshot) => respond_json(out, 200, &wire::series_detail_to_json(&snapshot)),
        None => store_error(
            &EstimaError::SeriesNotFound {
                series: id.to_string(),
            },
            out,
        ),
    }
}

/// `DELETE /v1/series/{id}`: evict the series and its cached fits.
fn series_delete(raw_id: &str, state: &AppState, out: &mut ResponseBuf) {
    let Some(id) = parse_series_id(raw_id, out) else {
        return;
    };
    match session(state).evict(&id) {
        Err(error) => store_error(&error, out),
        Ok(Some(snapshot)) => {
            let body = Json::Object(vec![
                (
                    "deleted".to_string(),
                    Json::String(snapshot.id.as_str().to_string()),
                ),
                ("version".to_string(), Json::Number(snapshot.version as f64)),
                (
                    "points".to_string(),
                    Json::Number(snapshot.set.len() as f64),
                ),
            ]);
            respond_json(out, 200, &body);
        }
        Ok(None) => store_error(
            &EstimaError::SeriesNotFound {
                series: id.to_string(),
            },
            out,
        ),
    }
}

/// `POST /v1/series/{id}/predict`: the body is a bare `TargetSpec` object —
/// the measurements live server-side, so nothing is reshipped per request.
/// The response body is identical to `POST /v1/predict` with the series'
/// full set.
fn series_predict(raw_id: &str, request: &Request, state: &AppState, out: &mut ResponseBuf) {
    let Some(id) = parse_series_id(raw_id, out) else {
        return;
    };
    let Some(text) = body_text(request, out) else {
        return;
    };
    let (target, extras) = match wire::decode_series_predict_request(text) {
        Ok(decoded) => decoded,
        Err(e) => return respond_error(out, 400, "bad_request", &e.0),
    };
    let started = Instant::now();
    let result = if extras.confidence {
        session(state).predict_with_confidence(&id, &target)
    } else {
        session(state).predict(&id, &target)
    };
    state.stats.record_latency(started.elapsed());
    match result {
        Ok(prediction) => {
            state.stats.predictions.fetch_add(1, Ordering::Relaxed);
            let diagnosis = extras
                .diagnosis
                .then(|| BottleneckReport::from_prediction(&prediction, target.cores));
            out.status = 200;
            wire::write_prediction_response(&prediction, diagnosis.as_ref(), &mut out.body);
        }
        Err(e) => store_error(&e, out),
    }
}

/// `POST /v1/series/{id}/plan`: rank which measurement to take next. The
/// body is a bare `TargetSpec` plus an optional `suggestions` count; the
/// response carries the current jackknife interval, the bottleneck
/// diagnosis, and the ranked suggestions (see
/// [`estima_core::plan::Planner`]).
fn series_plan(raw_id: &str, request: &Request, state: &AppState, out: &mut ResponseBuf) {
    let Some(id) = parse_series_id(raw_id, out) else {
        return;
    };
    let Some(text) = body_text(request, out) else {
        return;
    };
    let (target, suggestions) = match wire::decode_plan_request(text) {
        Ok(decoded) => decoded,
        Err(e) => return respond_error(out, 400, "bad_request", &e.0),
    };
    let started = Instant::now();
    let result = session(state).plan(&id, &target, suggestions);
    state.stats.record_latency(started.elapsed());
    match result {
        Ok(plan) => {
            out.status = 200;
            wire::write_plan(&plan, &mut out.body);
        }
        Err(e) => store_error(&e, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use estima_core::{Measurement, MeasurementSet, StallCategory, TargetSpec};
    use std::io::BufRead;

    /// [`super::drive`] through a read buffer of its own.
    fn drive(conn: &mut Conn, state: &AppState, token: ConnToken) -> bool {
        super::drive(conn, state, token, &mut [0u8; 16 * 1024])
    }

    /// A valid `/v1/predict` request at `target` cores whose body is padded
    /// with `padding` bytes of whitespace.
    fn padded_predict_request(target: u32, padding: usize) -> Vec<u8> {
        let mut set = MeasurementSet::new("idle-trim", 2.1);
        for cores in 1..=8u32 {
            let n = f64::from(cores);
            set.push(Measurement::new(cores, 20.0 / n + 0.5).with_stall(
                StallCategory::backend("rob_full"),
                1.0e9 * (1.0 + 0.1 * n * n),
            ));
        }
        let mut body = wire::predict_request_to_json(&set, &TargetSpec::cores(target)).render();
        body.push_str(&" ".repeat(padding));
        let mut request = format!(
            "POST /v1/predict HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        request.extend_from_slice(body.as_bytes());
        request
    }

    /// Read one response off `reader`: its status line and body length.
    fn read_response(reader: &mut impl BufRead) -> (String, usize) {
        let mut status = String::new();
        reader.read_line(&mut status).unwrap();
        let mut length = 0;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            if line == "\r\n" {
                break;
            }
            if let Some(value) = line.strip_prefix("content-length: ") {
                length = value.trim().parse().unwrap();
            }
        }
        let mut body = vec![0; length];
        reader.read_exact(&mut body).unwrap();
        (status.trim_end().to_string(), length)
    }

    /// A 1 MiB request and a reply of over 64 KiB grow all four large
    /// buffers past the idle cap while the exchange runs; once it has
    /// drained and the connection waits for its next request, each holds
    /// at most `IDLE_BUFFER_CAP`, and the connection still serves.
    #[test]
    fn an_idle_connection_trims_its_buffers() {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            reactor_threads: 1,
            ..ServerConfig::default()
        })
        .unwrap();
        let client = TcpStream::connect(server.local_addr().unwrap()).unwrap();
        let stream = loop {
            match server.shared.listener.accept() {
                Ok((stream, _)) => break stream,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                Err(e) => panic!("accept: {e}"),
            }
        };
        stream.set_nonblocking(true).unwrap();
        let mut conn = Conn::new(stream);
        let state = &server.shared.state;
        let token = ConnToken {
            reactor: 0,
            slot: 0,
            generation: 0,
        };

        let exchange = |conn: &mut Conn, request: Vec<u8>| {
            let mut client = client.try_clone().unwrap();
            let peer = std::thread::spawn(move || {
                client.write_all(&request).unwrap();
                read_response(&mut std::io::BufReader::new(client))
            });
            // Drive until the reply is out and the connection is idle.
            let served = state.stats.bytes_out.load(Ordering::Relaxed);
            let deadline = Instant::now() + std::time::Duration::from_secs(60);
            while state.stats.bytes_out.load(Ordering::Relaxed) == served
                || !conn.outbuf.is_empty()
                || !conn.inbuf.is_empty()
            {
                assert!(drive(conn, state, token), "the connection closed");
                assert!(Instant::now() < deadline, "the exchange did not finish");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            peer.join().unwrap()
        };

        let (status, reply) = exchange(&mut conn, padded_predict_request(4096, 1 << 20));
        assert_eq!(status, "HTTP/1.1 200 OK");
        assert!(reply > IDLE_BUFFER_CAP, "a {reply}-byte reply");
        assert!(state.stats.bytes_in.load(Ordering::Relaxed) > 1 << 20);
        let capacities = [
            conn.inbuf.capacity(),
            conn.outbuf.capacity(),
            conn.request.body.capacity(),
            conn.response.body.capacity(),
        ];
        assert!(
            capacities.iter().all(|&c| c <= IDLE_BUFFER_CAP),
            "idle buffer capacities {capacities:?} exceed {IDLE_BUFFER_CAP}"
        );

        let (status, _) = exchange(&mut conn, padded_predict_request(48, 0));
        assert_eq!(status, "HTTP/1.1 200 OK");
    }
}
