//! Consistent-hash request routing: one stateless router in front of N
//! stateful shard nodes, answering byte-identically to a single node.
//!
//! The [`ShardRing`] maps a series id to its owning shard by rendezvous
//! (highest-random-weight) hashing over FNV-1a: every key scores every
//! shard and the highest score owns it. Rendezvous hashing
//! gives the three properties the ring proptests pin — the assignment is a
//! pure function of `(shard set, key)`, total over all keys, and removing
//! one shard remaps *only* the keys that shard owned (every other key's
//! argmax is untouched).
//!
//! Forwarding never blocks a reactor thread. The reactor routes a request
//! through the same route table a single node uses and answers every
//! route-level outcome (404, 405, an invalid series id, a non-UTF-8 body)
//! itself, with the node's own helpers. Otherwise it parks the connection
//! and hands a `ForwardJob` to a small forwarder pool that drives blocking
//! pooled keep-alive [`Client`]s (with explicit connect/read timeouts, so a
//! dead shard bounds the stall) and posts the response into the owning
//! reactor's `Mailbox` — a `UnixStream`-pair doorbell plus a mutexed
//! completion list — which resumes the parked connection on the reactor
//! thread. Single-shard requests forward the raw body and return the upstream
//! status/body verbatim; `/v1/batch` fans out per-shard sub-batches and
//! re-merges the per-job results in original index order; `GET /v1/series`
//! fans out to every shard and merge-sorts by series id (shard stores are
//! disjoint, so the merged listing reproduces the single node's `BTreeMap`
//! order byte-for-byte). An unreachable shard degrades to a structured
//! `503 shard_unavailable` with a `retry_after_ms` hint — never a hang. See
//! DESIGN.md § *Cluster serving*.

use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::os::unix::io::RawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use estima_core::json::Json;

use crate::client::Client;
use crate::http::ResponseBuf;
use crate::route::{Route, RouteOutcome};
use crate::server::{parse_series_id, take_body_text};
use crate::sys;
use crate::wire;

/// Connect deadline for an upstream shard connection.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);
/// Read deadline for an upstream shard response.
const READ_TIMEOUT: Duration = Duration::from_secs(5);
/// `retry_after_ms` hint carried by a `503 shard_unavailable` response.
const RETRY_AFTER_MS: u64 = 1000;
/// Keep at most this many pooled keep-alive connections per shard.
const POOL_CAP: usize = 8;

/// The consistent-hash ring: shard addresses scored per key by rendezvous
/// hashing. Construction is cheap (no virtual nodes to place); lookup is
/// `O(shards)`, which at router scale (a handful of shards) beats
/// maintaining a sorted vnode ring.
#[derive(Debug, Clone)]
pub struct ShardRing {
    shards: Vec<String>,
}

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Rendezvous score of `(shard, key)`: one FNV-1a stream over the shard
/// address, a `0xFF` separator (cannot appear in either UTF-8 string's
/// bytes at a boundary ambiguity), then the key, finished through a 64-bit
/// avalanche mixer. The mixer is load-bearing: raw FNV-1a barely diffuses
/// a short key suffix, so without it the shard whose address-prefix hash
/// is largest out-scores the others for almost every key and the "ring"
/// degenerates to one hot shard.
fn rendezvous_score(shard: &str, key: &str) -> u64 {
    let mut hash = FNV_OFFSET;
    for &byte in shard.as_bytes() {
        hash = (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    hash = (hash ^ 0xFF).wrapping_mul(FNV_PRIME);
    for &byte in key.as_bytes() {
        hash = (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    // MurmurHash3 fmix64: full avalanche, bijective (no score collisions
    // introduced), and fixed constants — assignment stays a pure function
    // of (shard, key) across restarts.
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xff51_afd7_ed55_8ccd);
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    hash ^ (hash >> 33)
}

impl ShardRing {
    /// Build a ring over the given shard addresses.
    ///
    /// # Panics
    /// Panics when `shards` is empty — a router without shards cannot route.
    pub fn new(shards: Vec<String>) -> ShardRing {
        assert!(!shards.is_empty(), "a shard ring needs at least one shard");
        ShardRing { shards }
    }

    /// Number of shards on the ring.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// `false` always (the constructor rejects empty rings); provided to
    /// satisfy the `len`/`is_empty` API convention.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Address of shard `index`.
    pub fn addr(&self, index: usize) -> &str {
        &self.shards[index]
    }

    /// The shard owning `key`: the index with the highest rendezvous score
    /// (ties — vanishingly rare at 64 bits — break to the lower index, kept
    /// deterministic so restarts agree). A pure function of the shard set
    /// and the key: no state, no history, stable across restarts.
    pub fn shard_for(&self, key: &str) -> usize {
        let mut best = 0usize;
        let mut best_score = rendezvous_score(&self.shards[0], key);
        for (index, shard) in self.shards.iter().enumerate().skip(1) {
            let score = rendezvous_score(shard, key);
            if score > best_score {
                best = index;
                best_score = score;
            }
        }
        best
    }
}

/// Identity of a parked connection: which reactor owns it, its slab slot,
/// and the slot's generation at park time. The generation guards slot
/// reuse — a completion for a connection that died while its job was in
/// flight must not resume whatever new connection recycled the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ConnToken {
    /// Index of the owning reactor (selects the mailbox).
    pub(crate) reactor: usize,
    /// Slab slot of the connection on that reactor.
    pub(crate) slot: usize,
    /// Generation of that slot when the connection parked.
    pub(crate) generation: u64,
}

/// A response produced by a forwarder, ready to render downstream.
#[derive(Debug)]
pub(crate) struct ForwardResponse {
    pub(crate) status: u16,
    pub(crate) body: String,
    /// `Retry-After` seconds to re-emit (shard 429s and router 503s).
    pub(crate) retry_after: Option<u64>,
}

/// A completed forward waiting for its reactor to resume the connection.
#[derive(Debug)]
pub(crate) struct Completion {
    pub(crate) token: ConnToken,
    pub(crate) response: ForwardResponse,
    /// The connection's request buffer, back for the reactor to free or
    /// trim as a node does: the body a verbatim forward sent, or empty.
    pub(crate) body: Vec<u8>,
}

/// One reactor's completion inbox: a drainable doorbell plus the pending
/// completions. Forwarder threads deliver; the reactor drains.
#[derive(Debug)]
pub(crate) struct Mailbox {
    wake: sys::Doorbell,
    completions: Mutex<Vec<Completion>>,
}

impl Mailbox {
    pub(crate) fn new() -> io::Result<Mailbox> {
        Ok(Mailbox {
            wake: sys::Doorbell::new()?,
            completions: Mutex::new(Vec::new()),
        })
    }

    /// The doorbell fd, for the reactor to register level-triggered.
    pub(crate) fn wake_fd(&self) -> RawFd {
        self.wake.raw_fd()
    }

    /// Deliver one completion and ring the doorbell.
    fn deliver(&self, completion: Completion) {
        if let Ok(mut pending) = self.completions.lock() {
            pending.push(completion);
        }
        let _ = self.wake.signal();
    }

    /// Drain the doorbell and take every pending completion (reactor side).
    pub(crate) fn drain(&self) -> Vec<Completion> {
        self.wake.drain();
        match self.completions.lock() {
            Ok(mut pending) => std::mem::take(&mut *pending),
            Err(_) => Vec::new(),
        }
    }
}

/// One upstream request of a forward.
#[derive(Debug)]
struct Upstream {
    shard: usize,
    method: String,
    path: String,
    body: String,
}

/// How a forward turns its upstream replies into the downstream response.
#[derive(Debug)]
enum Merge {
    /// One request, answered with its status/body verbatim.
    Verbatim,
    /// `/v1/batch` sub-batches: `results[j]` of request `i`'s reply belongs
    /// at `indices[i][j]` of the `total` merged results.
    Batch {
        indices: Vec<Vec<usize>>,
        total: usize,
    },
    /// `GET /v1/series` on every shard, merge-sorted by series id.
    List,
}

/// A queued forward: its upstream requests, how to merge their replies,
/// and the connection to resume.
#[derive(Debug)]
struct ForwardJob {
    token: ConnToken,
    upstreams: Vec<Upstream>,
    merge: Merge,
}

/// Per-shard connection pool plus health counters.
#[derive(Debug)]
struct ShardPool {
    addr_text: String,
    addr: SocketAddr,
    idle: Mutex<Vec<Client>>,
    forwarded: AtomicU64,
    errors: AtomicU64,
    consecutive_failures: AtomicU64,
}

impl ShardPool {
    fn new(addr_text: &str) -> io::Result<ShardPool> {
        let addr = addr_text
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::other(format!("shard `{addr_text}` resolves to nothing")))?;
        Ok(ShardPool {
            addr_text: addr_text.to_string(),
            addr,
            idle: Mutex::new(Vec::new()),
            forwarded: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            consecutive_failures: AtomicU64::new(0),
        })
    }

    fn checkout(&self) -> Option<Client> {
        self.idle.lock().ok().and_then(|mut pool| pool.pop())
    }

    fn park(&self, client: Client) {
        if let Ok(mut pool) = self.idle.lock() {
            if pool.len() < POOL_CAP {
                pool.push(client);
            }
        }
    }

    /// One upstream round trip with bounded retry: a stale pooled
    /// connection (the shard restarted, the keep-alive died) gets exactly
    /// one fresh-connect retry; a fresh connection that fails is the
    /// shard's problem, reported immediately.
    fn request(&self, method: &str, path: &str, body: &str) -> io::Result<ForwardResponse> {
        let exchange = |mut client: Client| {
            client
                .request(method, path, body)
                .map(|reply| (client, reply))
        };
        let pooled = self.checkout().and_then(|client| exchange(client).ok());
        let result = match pooled {
            Some(done) => Ok(done),
            None => {
                Client::with_timeouts(self.addr, CONNECT_TIMEOUT, READ_TIMEOUT).and_then(exchange)
            }
        };
        match result {
            Ok((client, reply)) => {
                let upstream = ForwardResponse {
                    status: reply.status,
                    body: reply.body,
                    retry_after: client.last_retry_after(),
                };
                self.park(client);
                self.forwarded.fetch_add(1, Ordering::Relaxed);
                self.consecutive_failures.store(0, Ordering::Relaxed);
                Ok(upstream)
            }
            Err(e) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                self.consecutive_failures.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }
}

/// Router-wide forwarding counters (the `router` object of `/v1/stats`).
#[derive(Debug, Default)]
struct RouterStats {
    forwarded: AtomicU64,
    fanouts: AtomicU64,
    upstream_errors: AtomicU64,
}

/// The routing tier: ring, per-shard pools, forwarder threads, counters.
#[derive(Debug)]
pub(crate) struct Router {
    ring: ShardRing,
    pools: Arc<Vec<ShardPool>>,
    stats: Arc<RouterStats>,
    sender: Mutex<Option<mpsc::Sender<ForwardJob>>>,
    forwarders: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Router {
    /// Resolve the shard addresses, spawn the forwarder pool, and return
    /// the running router. `mailboxes` are the reactors' completion
    /// inboxes, indexed by reactor.
    pub(crate) fn start(shards: &[String], mailboxes: Arc<Vec<Mailbox>>) -> io::Result<Router> {
        let pools: Arc<Vec<ShardPool>> = Arc::new(
            shards
                .iter()
                .map(|addr| ShardPool::new(addr))
                .collect::<io::Result<Vec<_>>>()?,
        );
        let stats = Arc::new(RouterStats::default());
        let (sender, receiver) = mpsc::channel::<ForwardJob>();
        let receiver = Arc::new(Mutex::new(receiver));
        // Enough forwarders that one slow shard cannot serialize the rest:
        // at least one per shard (a fan-out visits them all sequentially)
        // and never fewer than two.
        let forwarder_count = shards.len().max(2);
        let mut forwarders = Vec::with_capacity(forwarder_count);
        for _ in 0..forwarder_count {
            let receiver = Arc::clone(&receiver);
            let pools = Arc::clone(&pools);
            let stats = Arc::clone(&stats);
            let mailboxes = Arc::clone(&mailboxes);
            forwarders.push(std::thread::spawn(move || loop {
                let job = {
                    let Ok(guard) = receiver.lock() else { return };
                    guard.recv()
                };
                let Ok(mut job) = job else { return };
                let response = execute(&pools, &stats, &job.upstreams, &job.merge);
                let body = match job.merge {
                    Merge::Verbatim => job.upstreams.pop().map(|upstream| upstream.body),
                    Merge::Batch { .. } | Merge::List => None,
                };
                if let Some(mailbox) = mailboxes.get(job.token.reactor) {
                    mailbox.deliver(Completion {
                        token: job.token,
                        response,
                        body: body.unwrap_or_default().into_bytes(),
                    });
                }
            }));
        }
        Ok(Router {
            ring: ShardRing::new(shards.to_vec()),
            pools,
            stats,
            sender: Mutex::new(Some(sender)),
            forwarders: Mutex::new(forwarders),
        })
    }

    /// Stop the forwarder pool: drop the job sender (forwarders exit when
    /// the channel drains) and join the threads. In-flight jobs complete;
    /// their completions land in mailboxes nobody will drain, which is
    /// fine — the reactors are already gone.
    pub(crate) fn shutdown(&self) {
        if let Ok(mut sender) = self.sender.lock() {
            sender.take();
        }
        if let Ok(mut forwarders) = self.forwarders.lock() {
            for handle in forwarders.drain(..) {
                let _ = handle.join();
            }
        }
    }

    /// The `router` object of `/v1/stats`: per-shard health plus the
    /// forwarding counters.
    pub(crate) fn stats_json(&self) -> Json {
        let shards = self
            .pools
            .iter()
            .map(|pool| {
                Json::Object(vec![
                    ("addr".to_string(), Json::String(pool.addr_text.clone())),
                    (
                        "forwarded".to_string(),
                        Json::Number(pool.forwarded.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "errors".to_string(),
                        Json::Number(pool.errors.load(Ordering::Relaxed) as f64),
                    ),
                    (
                        "healthy".to_string(),
                        Json::Bool(pool.consecutive_failures.load(Ordering::Relaxed) == 0),
                    ),
                ])
            })
            .collect();
        Json::Object(vec![
            ("shards".to_string(), Json::Array(shards)),
            (
                "forwarded".to_string(),
                Json::Number(self.stats.forwarded.load(Ordering::Relaxed) as f64),
            ),
            (
                "fanouts".to_string(),
                Json::Number(self.stats.fanouts.load(Ordering::Relaxed) as f64),
            ),
            (
                "upstream_errors".to_string(),
                Json::Number(self.stats.upstream_errors.load(Ordering::Relaxed) as f64),
            ),
        ])
    }

    /// Forward one data-plane request: enqueue a job for the shard(s)
    /// owning its data and ask the caller to park the connection. A request
    /// a node would reject before touching any data — an invalid series id
    /// (checked before the body), a non-UTF-8 body — is answered into `out`
    /// with the node's own helpers instead. Returns `None` for the routes
    /// every process answers for itself: `/v1/healthz`, `/v1/stats`, 404
    /// and 405.
    ///
    /// A forwarded body is moved out of `body`, not copied, and comes back
    /// in the [`Completion`].
    pub(crate) fn dispatch(
        &self,
        route: Route<'_>,
        method: &str,
        path: &str,
        body: &mut Vec<u8>,
        token: ConnToken,
        out: &mut ResponseBuf,
    ) -> Option<RouteOutcome> {
        let forward = match route {
            Route::Healthz | Route::Stats | Route::MethodNotAllowed(_) | Route::NotFound(_) => {
                return None
            }
            Route::SeriesList => Some(self.list()),
            Route::SeriesGet(id) | Route::SeriesDelete(id) => {
                parse_series_id(id, out).map(|_| self.single(id, method, path, String::new()))
            }
            Route::SeriesPredict(id) | Route::SeriesPlan(id) => parse_series_id(id, out)
                .and_then(|_| take_body_text(body, out))
                .map(|text| self.single(id, method, path, text)),
            // Stateless predicts route by app name for fit-cache affinity,
            // ingests by series id. An undecodable body goes to the shard
            // owning the empty key, whose decoder produces the identical 400.
            Route::Predict => take_body_text(body, out).map(|text| {
                let key = body_key(&text, &["measurements", "app_name"]);
                self.single(&key, method, path, text)
            }),
            Route::Measurements => take_body_text(body, out).map(|text| {
                let key = body_key(&text, &["series"]);
                self.single(&key, method, path, text)
            }),
            Route::Batch => {
                take_body_text(body, out).map(|text| self.plan_batch(text, method, path))
            }
        };
        let Some((upstreams, merge)) = forward else {
            return Some(RouteOutcome::Respond); // answered locally (400-class)
        };
        let counter = match merge {
            Merge::Verbatim => &self.stats.forwarded,
            Merge::Batch { .. } | Merge::List => &self.stats.fanouts,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        let job = ForwardJob {
            token,
            upstreams,
            merge,
        };
        let submitted = self
            .sender
            .lock()
            .ok()
            .and_then(|sender| sender.as_ref().map(|s| s.send(job)))
            .is_some_and(|sent| sent.is_ok());
        if !submitted {
            // Shutting down: the forwarder pool is gone.
            let response = unavailable("router");
            out.status = response.status;
            out.retry_after = response.retry_after;
            out.body.push_str(&response.body);
            return Some(RouteOutcome::Respond);
        }
        Some(RouteOutcome::Park)
    }

    /// A single-shard forward of `method` and `path` with `body`, keyed by
    /// `key`. GET and DELETE forward an empty body (nodes ignore theirs).
    fn single(&self, key: &str, method: &str, path: &str, body: String) -> (Vec<Upstream>, Merge) {
        let upstream = Upstream {
            shard: self.ring.shard_for(key),
            method: method.to_string(),
            path: path.to_string(),
            body,
        };
        (vec![upstream], Merge::Verbatim)
    }

    /// `GET /v1/series` on every shard, in shard order.
    fn list(&self) -> (Vec<Upstream>, Merge) {
        let upstreams = (0..self.ring.len())
            .map(|shard| Upstream {
                shard,
                method: "GET".to_string(),
                path: "/v1/series".to_string(),
                body: String::new(),
            })
            .collect();
        (upstreams, Merge::List)
    }

    /// Partition a `/v1/batch` body into per-shard sub-batches. A body the
    /// single node would reject goes verbatim to the shard owning the empty
    /// key, so the 400 bytes come from the same decoder.
    fn plan_batch(&self, text: String, method: &str, path: &str) -> (Vec<Upstream>, Merge) {
        let Ok(body) = Json::parse(&text) else {
            return self.single("", method, path, text);
        };
        if wire::batch_request_from_json(&body).is_err() {
            return self.single("", method, path, text);
        }
        let Some(jobs) = body.get("jobs").and_then(Json::as_array) else {
            return self.single("", method, path, text);
        };
        let total = jobs.len();
        let mut per_shard: Vec<Vec<(usize, &Json)>> = vec![Vec::new(); self.ring.len()];
        for (index, job) in jobs.iter().enumerate() {
            let key = key_at(job, &["measurements", "app_name"]);
            per_shard[self.ring.shard_for(key)].push((index, job));
        }
        let (upstreams, indices) = per_shard
            .into_iter()
            .enumerate()
            .filter(|(_, jobs)| !jobs.is_empty())
            .map(|(shard, jobs)| {
                let indices = jobs.iter().map(|(index, _)| *index).collect();
                let body = Json::Object(vec![(
                    "jobs".to_string(),
                    Json::Array(jobs.into_iter().map(|(_, job)| job.clone()).collect()),
                )])
                .render();
                let upstream = Upstream {
                    shard,
                    method: "POST".to_string(),
                    path: "/v1/batch".to_string(),
                    body,
                };
                (upstream, indices)
            })
            .unzip();
        (upstreams, Merge::Batch { indices, total })
    }
}

/// The string at `path` inside `value`, or `""` where there is none: the
/// ring key of a request body.
fn key_at<'j>(value: &'j Json, path: &[&str]) -> &'j str {
    path.iter()
        .try_fold(value, |value, key| value.get(key))
        .and_then(Json::as_str)
        .unwrap_or_default()
}

/// [`key_at`] over a body's text; `""` when the body does not decode.
fn body_key(text: &str, path: &[&str]) -> String {
    Json::parse(text)
        .map(|body| key_at(&body, path).to_string())
        .unwrap_or_default()
}

/// The structured `503 shard_unavailable` degradation response for `what`
/// (body hint in milliseconds, `Retry-After` header in seconds).
fn unavailable(what: &str) -> ForwardResponse {
    let mut body = String::new();
    wire::write_retry_error(
        "shard_unavailable",
        &format!("{what} is unavailable; retry shortly"),
        RETRY_AFTER_MS,
        &mut body,
    );
    ForwardResponse {
        status: 503,
        body,
        retry_after: Some(RETRY_AFTER_MS.div_ceil(1000).max(1)),
    }
}

/// A shard answered with bytes the router cannot interpret (a fan-out
/// merge needs to parse them). This is a router-side contract violation,
/// reported as a 500, not a retriable 503.
fn bad_upstream(addr: &str) -> ForwardResponse {
    let mut body = String::new();
    wire::write_error(
        "upstream_protocol_error",
        &format!("shard {addr} answered an unparseable response"),
        &mut body,
    );
    ForwardResponse {
        status: 500,
        body,
        retry_after: None,
    }
}

/// The array under `field` of a JSON object body, taken by value.
fn array_field(body: &str, field: &str) -> Option<Vec<Json>> {
    let Ok(Json::Object(fields)) = Json::parse(body) else {
        return None;
    };
    match fields.into_iter().find(|(key, _)| key == field) {
        Some((_, Json::Array(items))) => Some(items),
        _ => None,
    }
}

/// Run one forward on a forwarder thread: send its upstream requests in
/// order against the pooled shard clients, then merge the replies. An
/// unreachable shard fails the whole forward with a 503, and the first
/// non-200 reply in shard order is the answer: a partial fan-out would not
/// be byte-identical to anything a single node can say. Batch results are
/// put back in original index order, the router-side mirror of the
/// engine's index-ordered reduction contract; listed series are
/// merge-sorted by id, and because shard stores are disjoint (each id owns
/// exactly one shard) that reproduces the single node's `BTreeMap` order,
/// and therefore its exact bytes.
fn execute(
    pools: &[ShardPool],
    stats: &RouterStats,
    upstreams: &[Upstream],
    merge: &Merge,
) -> ForwardResponse {
    let mut merged = match merge {
        Merge::Batch { total, .. } => vec![Json::Null; *total],
        Merge::Verbatim | Merge::List => Vec::new(),
    };
    for (sent, upstream) in upstreams.iter().enumerate() {
        let pool = &pools[upstream.shard];
        let Ok(reply) = pool.request(&upstream.method, &upstream.path, &upstream.body) else {
            stats.upstream_errors.fetch_add(1, Ordering::Relaxed);
            return unavailable(&format!("shard {}", pool.addr_text));
        };
        let field = match merge {
            Merge::Verbatim => return reply,
            _ if reply.status != 200 => return reply,
            Merge::Batch { .. } => "results",
            Merge::List => "series",
        };
        match (array_field(&reply.body, field), merge) {
            (Some(results), Merge::Batch { indices, .. })
                if results.len() == indices[sent].len() =>
            {
                for (index, result) in indices[sent].iter().zip(results) {
                    merged[*index] = result;
                }
            }
            (Some(series), Merge::List) => merged.extend(series),
            _ => return bad_upstream(&pool.addr_text),
        }
    }
    let fields = match merge {
        Merge::Batch { .. } => vec![("results".to_string(), Json::Array(merged))],
        // A verbatim forward has answered with its one reply above.
        Merge::List | Merge::Verbatim => {
            merged.sort_by(|a, b| key_at(a, &["series"]).cmp(key_at(b, &["series"])));
            let count = Json::Number(merged.len() as f64);
            vec![
                ("series".to_string(), Json::Array(merged)),
                ("count".to_string(), count),
            ]
        }
    };
    ForwardResponse {
        status: 200,
        body: Json::Object(fields).render(),
        retry_after: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendezvous_assignment_is_stable_and_total() {
        let ring = ShardRing::new(vec![
            "127.0.0.1:7121".to_string(),
            "127.0.0.1:7122".to_string(),
            "127.0.0.1:7123".to_string(),
        ]);
        for key in ["alpha.app", "beta.app", "", "load-17", "☃.app"] {
            let shard = ring.shard_for(key);
            assert!(shard < ring.len());
            assert_eq!(shard, ring.shard_for(key), "assignment must be stable");
        }
    }

    #[test]
    fn removing_a_shard_remaps_only_its_keys() {
        let shards = vec![
            "10.0.0.1:7117".to_string(),
            "10.0.0.2:7117".to_string(),
            "10.0.0.3:7117".to_string(),
            "10.0.0.4:7117".to_string(),
        ];
        let full = ShardRing::new(shards.clone());
        let removed = 2usize;
        let survivors: Vec<String> = shards
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != removed)
            .map(|(_, s)| s.clone())
            .collect();
        let reduced = ShardRing::new(survivors.clone());
        for i in 0..512 {
            let key = format!("tenant{}.app{}", i % 17, i);
            let before = full.shard_for(&key);
            let after = reduced.shard_for(&key);
            if before != removed {
                assert_eq!(
                    full.addr(before),
                    reduced.addr(after),
                    "key `{key}` moved although its shard survived"
                );
            }
        }
    }

    /// The property the byte-identity cluster test first caught missing:
    /// without the avalanche finisher, FNV-1a's weak diffusion let one
    /// shard's address-prefix hash dominate the argmax for nearly every
    /// key. Similar loopback addresses differing only in the port are the
    /// adversarial case, so pin the balance on exactly that shape.
    #[test]
    fn assignment_spreads_keys_across_similar_addresses() {
        let ring = ShardRing::new(vec![
            "127.0.0.1:7121".to_string(),
            "127.0.0.1:7122".to_string(),
            "127.0.0.1:7123".to_string(),
        ]);
        let mut counts = [0usize; 3];
        for i in 0..512 {
            counts[ring.shard_for(&format!("tenant.app-{i}"))] += 1;
        }
        for (shard, count) in counts.iter().enumerate() {
            // Fair share is ~171; demand at least a third of it so the
            // test fails on degeneracy, not on honest hash variance.
            assert!(
                *count >= 57,
                "shard {shard} owns only {count}/512 keys: {counts:?}"
            );
        }
    }
}
