//! Load generator for `estima-serve`: drive the prediction service over
//! loopback and report throughput, latency percentiles and cache hit-rate.
//!
//! ```text
//! loadgen [--quick] [--scenario quickstart|ingest|plan|churn|cluster]
//!         [--duration N] [--duration-ms N] [--warmup-ms N]
//!         [--connections N[,N...]] [--min-rps N] [--addr HOST:PORT]
//! ```
//!
//! Each load connection runs an untimed **warmup phase** first (default
//! 200 ms, `--warmup-ms`): the keep-alive buffers on both ends reach steady
//! state and the fit cache fills before the first latency sample is taken.
//! `--duration` takes the timed-phase length in whole seconds,
//! `--duration-ms` in milliseconds (last flag wins).
//!
//! `--connections` takes a single count or a comma-separated sweep
//! (`--connections 1,2,4`): each count gets its own warmup + timed run
//! against the same server, a latency-vs-connections table is printed, and
//! every sweep point is merged into the summary. The **last** count is the
//! primary run: it fills the headline summary records and faces the
//! `--min-rps` gate.
//!
//! By default an in-process server is spawned on a free loopback port and
//! torn down afterwards; `--addr` points the clients at an externally
//! started server instead. When the server is in-process (its counters
//! start at zero), the run ends with a **coverage cross-check** against
//! `GET /v1/stats`: the server's per-route request counters and
//! `bytes_in`/`bytes_out` totals must equal what the clients themselves
//! counted, exactly. Request generation is pluggable through the
//! [`Scenario`] trait, so every workload shares the connection pool, the
//! timing loop and the summary plumbing:
//!
//! * **`quickstart`** (default) — every connection repeatedly POSTs the
//!   same quickstart-sized `/v1/predict` request (12 measurements, three
//!   stall categories, 48-core target) over keep-alive.
//! * **`ingest`** — the stateful mix: each connection owns a named series
//!   (seeded point-by-point through `POST /v1/measurements` before the
//!   timed run) and issues 80% `POST /v1/series/{id}/predict` / 20%
//!   `POST /v1/measurements` traffic. The re-pushed points are
//!   bit-identical, so ingestion is content-idempotent (no version bump,
//!   no fit invalidation): the mix measures the ingest wire + store path
//!   at full cache warmth, and every predict response is checked
//!   byte-for-byte against the in-process reference for that series.
//! * **`plan`** — the `ingest` seeding and 80/20 mix, but the read side is
//!   `POST /v1/series/{id}/plan`: each plan runs a jackknife per ranked
//!   candidate, so one response costs on the order of a hundred refits —
//!   all keyed by measurement bits under the series' cache scope. The
//!   re-pushed ingest points are bit-identical (no version bump, no
//!   invalidation), so steady-state planning serves entirely from the warm
//!   fit cache, and every plan response is checked byte-for-byte against
//!   the in-process [`Planner`] for the same series.
//! * **`churn`** — the quickstart request, but over a **fresh connection
//!   per request** (connect → request → close): measures the reactor's
//!   accept/register/teardown path instead of steady keep-alive. Latency
//!   samples include the connect.
//! * **`cluster`** — the `ingest` mix, but served by a loopback cluster:
//!   three in-process shard nodes behind an in-process `--mode router`
//!   tier (spawned automatically when `--addr` is absent; `--addr` points
//!   at an externally started router instead). Each connection's series
//!   hashes to its owning shard, so the run measures the full
//!   forward/park/resume path, and the stats cross-check runs against the
//!   *router's* counters — which mirror a single node's exactly.
//!
//! Before the timed run, each scenario verifies one response
//! **byte-for-byte** against the in-process [`BatchPredictor`] prediction
//! for the same job — the served bytes must decode to the exact `f64` bit
//! patterns the library produces. The run fails (exit 1) on a mismatch, or
//! when the primary run's throughput falls below `--min-rps` (default
//! 1000; `0` disables the gate).
//!
//! Results are merged into `target/criterion/summary.json` through the
//! criterion shim (`serve/loadgen[-ingest|-churn]/latency` carries
//! min/p50/stddev ns; `p99`, `p999`, `throughput_rps`, `cache_hit_rate_pct`
//! and `retries` carry their value in the `median_ns` column — the summary
//! schema has one value slot per record — and every record's `unit` names
//! what the slot holds: `ns`, `req/s`, `%` or `count`). A multi-point sweep
//! additionally records `serve/{name}/c{N}/p50|p99|throughput_rps` per
//! connection count.

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::BenchRecord;
use estima_core::json::Json;
use estima_core::prelude::*;
use estima_serve::{wire, Client, ClientResponse, Server, ServerConfig};

struct Options {
    duration: Duration,
    warmup: Duration,
    /// Connection-count sweep; the last entry is the primary run.
    connections: Vec<usize>,
    min_rps: f64,
    addr: Option<String>,
    scenario: String,
}

fn usage() -> ! {
    eprintln!(
        "usage: loadgen [--quick] [--scenario quickstart|ingest|plan|churn|cluster] \
         [--duration N] [--duration-ms N] [--warmup-ms N] [--connections N[,N...]] \
         [--min-rps N] [--addr HOST:PORT]"
    );
    std::process::exit(2);
}

fn parse_connections(raw: &str) -> Option<Vec<usize>> {
    let counts: Vec<usize> = raw
        .split(',')
        .map(|part| part.trim().parse::<usize>())
        .collect::<std::result::Result<_, _>>()
        .ok()?;
    (!counts.is_empty() && counts.iter().all(|&n| n > 0)).then_some(counts)
}

fn parse_options() -> Options {
    let mut options = Options {
        duration: Duration::from_millis(2000),
        warmup: Duration::from_millis(200),
        connections: vec![2],
        min_rps: 1000.0,
        addr: None,
        scenario: "quickstart".to_string(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--quick" => {
                options.duration = Duration::from_millis(400);
                options.warmup = Duration::from_millis(100);
            }
            "--duration" => match value().parse::<u64>() {
                Ok(secs) => options.duration = Duration::from_secs(secs),
                Err(_) => usage(),
            },
            "--duration-ms" => match value().parse::<u64>() {
                Ok(ms) => options.duration = Duration::from_millis(ms),
                Err(_) => usage(),
            },
            "--warmup-ms" => match value().parse::<u64>() {
                Ok(ms) => options.warmup = Duration::from_millis(ms),
                Err(_) => usage(),
            },
            "--connections" => match parse_connections(&value()) {
                Some(counts) => options.connections = counts,
                None => usage(),
            },
            "--min-rps" => match value().parse() {
                Ok(rps) => options.min_rps = rps,
                Err(_) => usage(),
            },
            "--addr" => options.addr = Some(value()),
            "--scenario" => options.scenario = value(),
            _ => usage(),
        }
    }
    options
}

/// One request a load connection is about to send, borrowed from the
/// scenario's precomputed storage (the hot loop allocates nothing).
struct RequestSpec<'a> {
    method: &'a str,
    path: &'a str,
    body: &'a str,
}

/// Client-side tally of issued requests by route, mirrored against the
/// server's `/v1/stats` counters at the end of an in-process run.
#[derive(Debug, Default, Clone, Copy)]
struct RouteCounts {
    predict: u64,
    series_predict: u64,
    series_plan: u64,
    measurements: u64,
    stats: u64,
}

impl RouteCounts {
    /// Classify one request the way the server's router counts it.
    fn note(&mut self, path: &str) {
        if path == "/v1/predict" {
            self.predict += 1;
        } else if path == "/v1/measurements" {
            self.measurements += 1;
        } else if path == "/v1/stats" {
            self.stats += 1;
        } else if path.starts_with("/v1/series/") && path.ends_with("/predict") {
            self.series_predict += 1;
        } else if path.starts_with("/v1/series/") && path.ends_with("/plan") {
            self.series_plan += 1;
        } else {
            panic!("loadgen issued a request to unclassified path {path}");
        }
    }

    fn merge(&mut self, other: &RouteCounts) {
        self.predict += other.predict;
        self.series_predict += other.series_predict;
        self.series_plan += other.series_plan;
        self.measurements += other.measurements;
        self.stats += other.stats;
    }
}

/// Verify the server's own `/v1/stats` accounting against what the clients
/// counted: per-route request totals, zero error counters, and exact
/// `bytes_in`/`bytes_out` wire totals. Only meaningful against the
/// in-process server, whose counters started at zero.
fn cross_check_stats(
    stats: Option<&Json>,
    counts: &RouteCounts,
    bytes_in: u64,
    bytes_out: u64,
) -> std::result::Result<(), String> {
    let stats = stats.ok_or("no parseable /v1/stats response")?;
    let field = |path: [&str; 2]| -> std::result::Result<u64, String> {
        stats
            .get(path[0])
            .and_then(|node| node.get(path[1]))
            .and_then(Json::as_f64)
            .map(|v| v as u64)
            .ok_or_else(|| format!("missing or non-numeric {}.{}", path[0], path[1]))
    };
    let checks = [
        (
            "requests.predict",
            field(["requests", "predict"])?,
            counts.predict,
        ),
        (
            "requests.series_predict",
            field(["requests", "series_predict"])?,
            counts.series_predict,
        ),
        (
            "requests.series_plan",
            field(["requests", "series_plan"])?,
            counts.series_plan,
        ),
        (
            "requests.measurements",
            field(["requests", "measurements"])?,
            counts.measurements,
        ),
        (
            "requests.stats",
            field(["requests", "stats"])?,
            counts.stats,
        ),
        (
            "requests.client_errors",
            field(["requests", "client_errors"])?,
            0,
        ),
        (
            "requests.server_errors",
            field(["requests", "server_errors"])?,
            0,
        ),
        ("bytes.in", field(["bytes", "in"])?, bytes_in),
        ("bytes.out", field(["bytes", "out"])?, bytes_out),
    ];
    for (name, server, client) in checks {
        if server != client {
            return Err(format!(
                "{name}: server counted {server}, clients counted {client}"
            ));
        }
    }
    Ok(())
}

/// A load-generation workload: what each connection sends, and what a
/// correct response looks like. Implementations precompute their request
/// bodies so the timed loop is pure I/O; they share the connection pool,
/// timing and summary code in [`main`].
trait Scenario: Sync {
    /// Short name, used for the summary record prefix (`serve/{name}/...`).
    fn name(&self) -> &'static str;

    /// When true, the timed loop opens a fresh connection per request and
    /// closes it after the response (the churn workload).
    fn churn(&self) -> bool {
        false
    }

    /// One-time setup over the probe connection before the timed run:
    /// seed server-side state and verify byte-identity against the
    /// in-process reference. Every request issued must be tallied in
    /// `counts` for the end-of-run coverage cross-check. Errors abort the
    /// run.
    fn prepare(
        &self,
        probe: &mut Client,
        counts: &mut RouteCounts,
    ) -> std::result::Result<(), String>;

    /// The request connection `connection` sends as its `iteration`-th
    /// call.
    fn request(&self, connection: usize, iteration: u64) -> RequestSpec<'_>;

    /// Validate one response from the timed loop (called on every
    /// response; must be cheap).
    fn check(
        &self,
        connection: usize,
        iteration: u64,
        response: &ClientResponse,
    ) -> std::result::Result<(), String>;
}

/// The canonical load-generation job: the quickstart shape shared with the
/// `serve` bench through the harness, so both measure the same series.
fn quickstart_job(app: &str) -> (MeasurementSet, TargetSpec) {
    estima_bench::harness::quickstart_sized_job(app)
}

/// The in-process reference prediction for a job, rendered exactly as the
/// server renders it.
fn reference_response(
    set: &MeasurementSet,
    target: &TargetSpec,
) -> std::result::Result<String, String> {
    let prediction = BatchPredictor::new(EstimaConfig::default().with_parallelism(1))
        .predict(set, target)
        .map_err(|e| format!("in-process reference prediction failed: {e}"))?;
    let mut body = String::new();
    wire::write_prediction(&prediction, &mut body);
    Ok(body)
}

/// The stateless scenario: every connection re-POSTs the same complete
/// measurement set to `/v1/predict` — over keep-alive connections
/// (`quickstart`) or a fresh connection per request (`churn`).
struct QuickstartScenario {
    name: &'static str,
    churn: bool,
    body: String,
    expected: String,
}

impl QuickstartScenario {
    fn new(name: &'static str, churn: bool) -> std::result::Result<Self, String> {
        let (set, target) = quickstart_job("loadgen");
        Ok(QuickstartScenario {
            name,
            churn,
            body: wire::predict_request_to_json(&set, &target).render(),
            expected: reference_response(&set, &target)?,
        })
    }
}

impl Scenario for QuickstartScenario {
    fn name(&self) -> &'static str {
        self.name
    }

    fn churn(&self) -> bool {
        self.churn
    }

    fn prepare(
        &self,
        probe: &mut Client,
        counts: &mut RouteCounts,
    ) -> std::result::Result<(), String> {
        counts.note("/v1/predict");
        let first = probe
            .request("POST", "/v1/predict", &self.body)
            .map_err(|e| format!("probe request failed: {e}"))?;
        if first.status != 200 {
            return Err(format!("probe got status {}: {}", first.status, first.body));
        }
        if first.body != self.expected {
            return Err("HTTP prediction is not byte-identical to in-process".into());
        }
        Ok(())
    }

    fn request(&self, _connection: usize, _iteration: u64) -> RequestSpec<'_> {
        RequestSpec {
            method: "POST",
            path: "/v1/predict",
            body: &self.body,
        }
    }

    fn check(
        &self,
        _connection: usize,
        _iteration: u64,
        response: &ClientResponse,
    ) -> std::result::Result<(), String> {
        if response.status != 200 {
            return Err(format!("status {}: {}", response.status, response.body));
        }
        if response.body != self.expected {
            return Err("served prediction drifted from the in-process bits".into());
        }
        Ok(())
    }
}

/// How many requests of every [`IngestScenario`] connection's cycle are
/// ingests (1 in 5 = the 80/20 predict/ingest mix).
const INGEST_EVERY: u64 = 5;

/// The stateful scenario: per-connection named series, mixed
/// predict/ingest traffic. Every ingest re-pushes one of the series' own
/// points (cycling through the core counts) — bit-identical to what is
/// stored, so the store treats it as content-idempotent: no version bump,
/// no fit invalidation. The mix therefore measures the full ingest wire +
/// store path while predictions keep serving from a warm cache, and every
/// predict response stays byte-identical to the reference.
struct IngestScenario {
    /// Summary record prefix: `loadgen-ingest` against a single node,
    /// `loadgen-cluster` when the same mix drives a router + 3 shards.
    name: &'static str,
    /// Per-connection series predict path (`/v1/series/{id}/predict`).
    predict_paths: Vec<String>,
    /// The bare-`TargetSpec` predict body (shared by every connection).
    target_body: String,
    /// Per-connection expected predict response (app_name = series id).
    expected: Vec<String>,
    /// Per-connection, per-point single-point ingest bodies — used both to
    /// seed the series in [`IngestScenario::prepare`] and, cycled, as the
    /// timed loop's ingest traffic.
    ingest_bodies: Vec<Vec<String>>,
}

impl IngestScenario {
    fn new(name: &'static str, connections: usize) -> std::result::Result<Self, String> {
        // The target is connection-independent; render it once.
        let (_, target) = quickstart_job("load-0");
        let mut scenario = IngestScenario {
            name,
            predict_paths: Vec::new(),
            target_body: wire::target_spec_to_json(&target).render(),
            expected: Vec::new(),
            ingest_bodies: Vec::new(),
        };
        for connection in 0..connections {
            let name = format!("load-{connection}");
            let series = SeriesId::new(&name).map_err(|e| e.to_string())?;
            let (set, target) = quickstart_job(&name);
            scenario
                .predict_paths
                .push(format!("/v1/series/{name}/predict"));
            scenario.expected.push(reference_response(&set, &target)?);
            let point_bodies: Vec<String> = set
                .measurements()
                .iter()
                .map(|point| {
                    wire::ingest_request_to_json(
                        &series,
                        Some(set.frequency_ghz),
                        std::slice::from_ref(point),
                    )
                    .render()
                })
                .collect();
            scenario.ingest_bodies.push(point_bodies);
        }
        Ok(scenario)
    }
}

impl Scenario for IngestScenario {
    fn name(&self) -> &'static str {
        self.name
    }

    fn prepare(
        &self,
        probe: &mut Client,
        counts: &mut RouteCounts,
    ) -> std::result::Result<(), String> {
        // Seed every connection's series point-by-point — the incremental
        // collection flow — then pin the served prediction to the
        // in-process bits for the equivalent full set.
        for (connection, seeds) in self.ingest_bodies.iter().enumerate() {
            for body in seeds {
                counts.note("/v1/measurements");
                let response = probe
                    .request("POST", "/v1/measurements", body)
                    .map_err(|e| format!("seeding ingest failed: {e}"))?;
                if response.status != 200 {
                    return Err(format!(
                        "seeding ingest got status {}: {}",
                        response.status, response.body
                    ));
                }
            }
            counts.note(&self.predict_paths[connection]);
            let first = probe
                .request("POST", &self.predict_paths[connection], &self.target_body)
                .map_err(|e| format!("probe series predict failed: {e}"))?;
            if first.status != 200 {
                return Err(format!(
                    "probe series predict got status {}: {}",
                    first.status, first.body
                ));
            }
            if first.body != self.expected[connection] {
                return Err(format!(
                    "series predict after incremental ingestion is not byte-identical \
                     to in-process for connection {connection}"
                ));
            }
        }
        Ok(())
    }

    fn request(&self, connection: usize, iteration: u64) -> RequestSpec<'_> {
        if iteration % INGEST_EVERY == INGEST_EVERY - 1 {
            let bodies = &self.ingest_bodies[connection];
            let body = &bodies[(iteration / INGEST_EVERY) as usize % bodies.len()];
            RequestSpec {
                method: "POST",
                path: "/v1/measurements",
                body,
            }
        } else {
            RequestSpec {
                method: "POST",
                path: &self.predict_paths[connection],
                body: &self.target_body,
            }
        }
    }

    fn check(
        &self,
        connection: usize,
        iteration: u64,
        response: &ClientResponse,
    ) -> std::result::Result<(), String> {
        if response.status != 200 {
            return Err(format!("status {}: {}", response.status, response.body));
        }
        let is_ingest = iteration % INGEST_EVERY == INGEST_EVERY - 1;
        if !is_ingest && response.body != self.expected[connection] {
            return Err(format!(
                "served series prediction drifted from the in-process bits \
                 (connection {connection}, iteration {iteration})"
            ));
        }
        Ok(())
    }
}

/// The in-process reference plan for a series, rendered exactly as the
/// server renders it. Parallelism 1 is safe because jackknife intervals
/// are parallelism-invariant (fixed summation order in the reduction), so
/// the bits match whatever reactor parallelism the server fits with.
fn reference_plan(
    set: &MeasurementSet,
    target: &TargetSpec,
) -> std::result::Result<String, String> {
    let estima = Estima::new(EstimaConfig::default().with_parallelism(1));
    let plan = Planner::new(&estima)
        .plan(set, target, estima_core::plan::DEFAULT_SUGGESTIONS)
        .map_err(|e| format!("in-process reference plan failed: {e}"))?;
    let mut body = String::new();
    wire::write_plan(&plan, &mut body);
    Ok(body)
}

/// The planning scenario: the ingest mix's per-connection series and
/// seeding, with `POST /v1/series/{id}/plan` as the read side. Plans are
/// the most fit-hungry request the service answers (a jackknife per ranked
/// candidate); the idempotent re-ingests never bump the series version, so
/// every refit a steady-state plan needs is already in the fit cache and
/// the `--min-rps` gate measures the planning math + wire path, not
/// repeated refitting.
struct PlanScenario {
    /// Summary record prefix (`serve/loadgen-plan/...`).
    name: &'static str,
    /// Per-connection plan path (`/v1/series/{id}/plan`).
    plan_paths: Vec<String>,
    /// The bare-`TargetSpec` plan body (shared by every connection; the
    /// server defaults the suggestion count).
    target_body: String,
    /// Per-connection expected plan response (app_name = series id).
    expected: Vec<String>,
    /// Per-connection, per-point single-point ingest bodies — seeds and,
    /// cycled, the timed loop's idempotent ingest traffic.
    ingest_bodies: Vec<Vec<String>>,
}

impl PlanScenario {
    fn new(name: &'static str, connections: usize) -> std::result::Result<Self, String> {
        let (_, target) = quickstart_job("plan-0");
        let mut scenario = PlanScenario {
            name,
            plan_paths: Vec::new(),
            target_body: wire::target_spec_to_json(&target).render(),
            expected: Vec::new(),
            ingest_bodies: Vec::new(),
        };
        for connection in 0..connections {
            let name = format!("plan-{connection}");
            let series = SeriesId::new(&name).map_err(|e| e.to_string())?;
            let (set, target) = quickstart_job(&name);
            scenario.plan_paths.push(format!("/v1/series/{name}/plan"));
            scenario.expected.push(reference_plan(&set, &target)?);
            let point_bodies: Vec<String> = set
                .measurements()
                .iter()
                .map(|point| {
                    wire::ingest_request_to_json(
                        &series,
                        Some(set.frequency_ghz),
                        std::slice::from_ref(point),
                    )
                    .render()
                })
                .collect();
            scenario.ingest_bodies.push(point_bodies);
        }
        Ok(scenario)
    }
}

impl Scenario for PlanScenario {
    fn name(&self) -> &'static str {
        self.name
    }

    fn prepare(
        &self,
        probe: &mut Client,
        counts: &mut RouteCounts,
    ) -> std::result::Result<(), String> {
        // Seed every connection's series, then pin the served plan to the
        // in-process bits — this also pre-warms each series' fit-cache
        // scope with every leave-out and hypothetical refit the plan
        // needs, so the timed loop starts cache-hot.
        for (connection, seeds) in self.ingest_bodies.iter().enumerate() {
            for body in seeds {
                counts.note("/v1/measurements");
                let response = probe
                    .request("POST", "/v1/measurements", body)
                    .map_err(|e| format!("seeding ingest failed: {e}"))?;
                if response.status != 200 {
                    return Err(format!(
                        "seeding ingest got status {}: {}",
                        response.status, response.body
                    ));
                }
            }
            counts.note(&self.plan_paths[connection]);
            let first = probe
                .request("POST", &self.plan_paths[connection], &self.target_body)
                .map_err(|e| format!("probe plan failed: {e}"))?;
            if first.status != 200 {
                return Err(format!(
                    "probe plan got status {}: {}",
                    first.status, first.body
                ));
            }
            if first.body != self.expected[connection] {
                return Err(format!(
                    "served plan is not byte-identical to in-process for \
                     connection {connection}"
                ));
            }
        }
        Ok(())
    }

    fn request(&self, connection: usize, iteration: u64) -> RequestSpec<'_> {
        if iteration % INGEST_EVERY == INGEST_EVERY - 1 {
            let bodies = &self.ingest_bodies[connection];
            let body = &bodies[(iteration / INGEST_EVERY) as usize % bodies.len()];
            RequestSpec {
                method: "POST",
                path: "/v1/measurements",
                body,
            }
        } else {
            RequestSpec {
                method: "POST",
                path: &self.plan_paths[connection],
                body: &self.target_body,
            }
        }
    }

    fn check(
        &self,
        connection: usize,
        iteration: u64,
        response: &ClientResponse,
    ) -> std::result::Result<(), String> {
        if response.status != 200 {
            return Err(format!("status {}: {}", response.status, response.body));
        }
        let is_ingest = iteration % INGEST_EVERY == INGEST_EVERY - 1;
        if !is_ingest && response.body != self.expected[connection] {
            return Err(format!(
                "served plan drifted from the in-process bits \
                 (connection {connection}, iteration {iteration})"
            ));
        }
        Ok(())
    }
}

fn percentile(sorted_ns: &[u64], q: f64) -> u64 {
    if sorted_ns.is_empty() {
        return 0;
    }
    let rank = ((q * sorted_ns.len() as f64).ceil() as usize).max(1);
    sorted_ns[rank.min(sorted_ns.len()) - 1]
}

/// The outcome of one timed run at a fixed connection count.
struct RunStats {
    connections: usize,
    total: u64,
    elapsed: Duration,
    rps: f64,
    min: u64,
    p50: u64,
    p99: u64,
    p999: u64,
    max: u64,
    stddev: f64,
    /// Requests that needed at least one retry-with-backoff (connect or
    /// request failures). 0 on a healthy run.
    retries: u64,
}

/// Most retries one request may take before the harness gives up (after
/// which a failure is a real finding, not a restart blip).
const MAX_REQUEST_RETRIES: u64 = 8;

/// xorshift64*: a tiny deterministic generator for backoff jitter — no new
/// deps, stable across runs (seeded per connection).
fn xorshift64(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x.max(1);
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Sleep the bounded exponential backoff for retry number `attempt`
/// (1-based): 5 ms doubling to a 320 ms ceiling, plus up to 50% jitter so
/// the load threads do not reconnect in lockstep after a server restart.
fn backoff(attempt: u64, rng: &mut u64) {
    let base_ms = 5u64 << (attempt - 1).min(6);
    let jitter_ms = xorshift64(rng) % (base_ms / 2 + 1);
    std::thread::sleep(Duration::from_millis(base_ms + jitter_ms));
}

/// Issue one request with bounded retry: a connect or transport failure
/// sleeps a jittered exponential backoff and tries again (reconnecting the
/// keep-alive connection as needed), so a server restart mid-run degrades
/// into a latency blip and a nonzero `retries` column instead of aborting
/// the harness. Returns the response and how many retries it took; panics
/// once a single request has failed [`MAX_REQUEST_RETRIES`] times.
#[allow(clippy::too_many_arguments)]
fn request_with_retry(
    keepalive: &mut Option<Client>,
    addr: std::net::SocketAddr,
    churn: bool,
    spec: &RequestSpec<'_>,
    rng: &mut u64,
    sent_bytes: &mut u64,
    received_bytes: &mut u64,
) -> (ClientResponse, u64) {
    let mut retries = 0u64;
    loop {
        let result = if churn {
            // Churn opens one connection per request; its bytes are
            // tallied per attempt, successful or not.
            Client::connect(addr).and_then(|mut client| {
                let outcome = client.request(spec.method, spec.path, spec.body);
                *sent_bytes += client.bytes_sent();
                *received_bytes += client.bytes_received();
                outcome
            })
        } else {
            match keepalive {
                Some(client) => client.request(spec.method, spec.path, spec.body),
                None => Client::connect(addr).and_then(|client| {
                    let client = keepalive.insert(client);
                    client.request(spec.method, spec.path, spec.body)
                }),
            }
        };
        match result {
            Ok(response) => return (response, retries),
            Err(e) => {
                if let Some(dead) = keepalive.take() {
                    // The dead connection's wire traffic still happened;
                    // absorb it before reconnecting.
                    *sent_bytes += dead.bytes_sent();
                    *received_bytes += dead.bytes_received();
                }
                retries += 1;
                assert!(
                    retries <= MAX_REQUEST_RETRIES,
                    "request {} {} still failing after {MAX_REQUEST_RETRIES} retries: {e}",
                    spec.method,
                    spec.path,
                );
                backoff(retries, rng);
            }
        }
    }
}

/// Client-side accumulators carried across every sweep run: route tallies
/// and wire-byte totals, matched against the server's cumulative counters
/// in the end-of-run cross-check.
#[derive(Default)]
struct ClientTallies {
    counts: RouteCounts,
    sent: u64,
    received: u64,
    /// Total retried requests across the sweep. When nonzero the exact
    /// byte/route cross-check is skipped: a failed attempt may or may not
    /// have reached the server, so the totals no longer balance.
    retries: u64,
}

/// Run one warmup + timed phase at `connections` concurrent connections,
/// merging route tallies and client wire-byte totals into the caller's
/// accumulators.
fn run_phase(
    scenario: &Arc<dyn Scenario + Send + Sync>,
    addr: std::net::SocketAddr,
    connections: usize,
    warmup: Duration,
    duration: Duration,
    tallies: &mut ClientTallies,
) -> RunStats {
    let started = Instant::now();
    let warmup_deadline = started + warmup;
    let deadline = warmup_deadline + duration;
    let churn = scenario.churn();
    let mut threads = Vec::new();
    for connection in 0..connections {
        let scenario = Arc::clone(scenario);
        threads.push(std::thread::spawn(move || {
            // Keep-alive scenarios reuse one connection for the whole run,
            // reconnecting lazily inside the retry helper; churn opens and
            // closes one per request. The jitter rng is seeded from the
            // connection index so runs stay deterministic.
            let mut keepalive: Option<Client> = None;
            let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ (connection as u64 + 1);
            let mut latencies_ns: Vec<u64> = Vec::new();
            let mut counts = RouteCounts::default();
            let mut sent_bytes = 0u64;
            let mut received_bytes = 0u64;
            let mut retries_total = 0u64;
            let mut iteration = 0u64;
            loop {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let in_warmup = now < warmup_deadline;
                let spec = scenario.request(connection, iteration);
                counts.note(spec.path);
                let sent = Instant::now();
                // Churn samples include the connect, which is the cost
                // under measurement; retries inflate the sample, which is
                // the honest latency of the request that succeeded.
                let (response, retries) = request_with_retry(
                    &mut keepalive,
                    addr,
                    churn,
                    &spec,
                    &mut rng,
                    &mut sent_bytes,
                    &mut received_bytes,
                );
                retries_total += retries;
                if !in_warmup {
                    latencies_ns.push(u64::try_from(sent.elapsed().as_nanos()).unwrap_or(u64::MAX));
                }
                if let Err(e) = scenario.check(connection, iteration, &response) {
                    panic!("response check failed: {e}");
                }
                iteration += 1;
            }
            if let Some(client) = keepalive {
                sent_bytes += client.bytes_sent();
                received_bytes += client.bytes_received();
            }
            (
                latencies_ns,
                counts,
                sent_bytes,
                received_bytes,
                retries_total,
            )
        }));
    }
    let mut latencies: Vec<u64> = Vec::new();
    let mut retries = 0u64;
    for thread in threads {
        let (thread_latencies, thread_counts, sent, received, thread_retries) =
            thread.join().expect("load thread panicked");
        latencies.extend(thread_latencies);
        tallies.counts.merge(&thread_counts);
        tallies.sent += sent;
        tallies.received += received;
        tallies.retries += thread_retries;
        retries += thread_retries;
    }
    let elapsed = warmup_deadline.elapsed();
    latencies.sort_unstable();

    let total = latencies.len() as u64;
    let mean = latencies.iter().sum::<u64>() as f64 / total.max(1) as f64;
    let stddev = (latencies
        .iter()
        .map(|&ns| (ns as f64 - mean).powi(2))
        .sum::<f64>()
        / total.max(1) as f64)
        .sqrt();
    RunStats {
        connections,
        total,
        elapsed,
        rps: total as f64 / elapsed.as_secs_f64(),
        min: latencies.first().copied().unwrap_or(0),
        p50: percentile(&latencies, 0.50),
        p99: percentile(&latencies, 0.99),
        p999: percentile(&latencies, 0.999),
        max: latencies.last().copied().unwrap_or(0),
        stddev,
        retries,
    }
}

fn main() {
    let options = parse_options();
    let max_connections = *options
        .connections
        .iter()
        .max()
        .expect("--connections is never empty");
    let scenario: Arc<dyn Scenario + Send + Sync> = match options.scenario.as_str() {
        "quickstart" => Arc::new(
            QuickstartScenario::new("loadgen", false).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(1);
            }),
        ),
        "churn" => Arc::new(
            QuickstartScenario::new("loadgen-churn", true).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(1);
            }),
        ),
        "ingest" => Arc::new(
            IngestScenario::new("loadgen-ingest", max_connections).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(1);
            }),
        ),
        "plan" => Arc::new(
            PlanScenario::new("loadgen-plan", max_connections).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(1);
            }),
        ),
        "cluster" => Arc::new(
            IngestScenario::new("loadgen-cluster", max_connections).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(1);
            }),
        ),
        other => {
            eprintln!(
                "error: unknown scenario `{other}` (quickstart, ingest, plan, churn, cluster)"
            );
            usage();
        }
    };

    // Spawn the in-process topology unless an external server was named.
    // The reactor multiplexes connections, so nothing is sized to the
    // client count — the default (one reactor per CPU) serves any sweep
    // point. The `cluster` scenario spawns three shard nodes plus a router
    // fronting them and points the load at the router; every other
    // scenario spawns a single node. `handles` holds every in-process
    // server for teardown; the *first* is the one the clients talk to.
    let spawn_server = |config: ServerConfig| {
        let server = Server::bind(config).unwrap_or_else(|e| {
            eprintln!("error: cannot bind loopback server: {e}");
            std::process::exit(1);
        });
        server.spawn().unwrap_or_else(|e| {
            eprintln!("error: cannot start server reactors: {e}");
            std::process::exit(1);
        })
    };
    let (addr, handles) = match &options.addr {
        Some(addr) => {
            let addr = addr.parse().unwrap_or_else(|_| {
                eprintln!("error: bad --addr {addr}");
                std::process::exit(2);
            });
            (addr, Vec::new())
        }
        None if options.scenario == "cluster" => {
            let shards: Vec<_> = (0..3)
                .map(|_| {
                    spawn_server(ServerConfig {
                        addr: "127.0.0.1:0".to_string(),
                        ..ServerConfig::default()
                    })
                })
                .collect();
            let router = spawn_server(ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                shards: shards.iter().map(|s| s.addr().to_string()).collect(),
                ..ServerConfig::default()
            });
            let addr = router.addr();
            let mut handles = vec![router];
            handles.extend(shards);
            (addr, handles)
        }
        None => {
            let handle = spawn_server(ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                ..ServerConfig::default()
            });
            (handle.addr(), vec![handle])
        }
    };

    // Correctness gate, scenario-defined (always includes one byte-for-byte
    // check against the in-process prediction).
    let mut probe = Client::connect(addr).unwrap_or_else(|e| {
        eprintln!("error: cannot connect to {addr}: {e}");
        std::process::exit(1);
    });
    let mut tallies = ClientTallies::default();
    if let Err(e) = scenario.prepare(&mut probe, &mut tallies.counts) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }

    // The sweep: one warmup + timed run per connection count, accumulating
    // the client-side tallies across runs (the server's counters are
    // cumulative too, so the final cross-check still balances exactly).
    let mut runs: Vec<RunStats> = Vec::new();
    for &connections in &options.connections {
        runs.push(run_phase(
            &scenario,
            addr,
            connections,
            options.warmup,
            options.duration,
            &mut tallies,
        ));
    }

    // Coverage cross-check + cache statistics straight from the server.
    // Per stats fetch, `bytes_out` is snapshotted before the request (the
    // server renders the stats body before its own response bytes are
    // counted) and `bytes_in` after (the stats request itself is counted on
    // read). The server accounts a response when it is rendered, which can
    // momentarily lead the clients' received tallies — the counters are
    // monotonic, so retry until they converge on the client totals.
    //
    // Only the in-process server has counters that started at zero; an
    // external `--addr` server may carry traffic from before this run, so
    // the cross-check is skipped and the first fetch is final.
    // Retried requests may or may not have reached the server, so once any
    // request retried the byte/route totals cannot balance exactly and the
    // strict cross-check is skipped (noted in the summary).
    let fresh_server = !handles.is_empty();
    let exact_counters = fresh_server && tallies.retries == 0;
    let mut stats = None;
    let mut expected_bytes_in = 0u64;
    let mut expected_bytes_out = 0u64;
    let mut cross_check = Ok(());
    for attempt in 0..50 {
        if attempt > 0 {
            std::thread::sleep(Duration::from_millis(10));
        }
        expected_bytes_out = tallies.received + probe.bytes_received();
        tallies.counts.note("/v1/stats");
        stats = probe
            .request("GET", "/v1/stats", "")
            .ok()
            .and_then(|r| Json::parse(&r.body).ok());
        expected_bytes_in = tallies.sent + probe.bytes_sent();
        if !exact_counters {
            break;
        }
        cross_check = cross_check_stats(
            stats.as_ref(),
            &tallies.counts,
            expected_bytes_in,
            expected_bytes_out,
        );
        if cross_check.is_ok() {
            break;
        }
    }
    let hit_rate = stats
        .as_ref()
        .and_then(|s| s.get("cache"))
        .and_then(|c| c.get("hit_rate"))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN);
    for handle in handles {
        handle.shutdown();
    }
    if exact_counters {
        if let Err(e) = cross_check {
            eprintln!("error: stats coverage cross-check failed: {e}");
            std::process::exit(1);
        }
        println!(
            "{}: stats cross-check passed ({} bytes in, {} bytes out)",
            scenario.name(),
            expected_bytes_in,
            expected_bytes_out,
        );
    } else if fresh_server {
        println!(
            "{}: stats cross-check skipped ({} retried request(s) leave byte totals inexact)",
            scenario.name(),
            tallies.retries,
        );
    }

    let name = scenario.name();
    let primary = runs.last().expect("at least one run");
    println!(
        "{name}: {} requests over {} connection(s) in {:.2}s = {:.0} req/s",
        primary.total,
        primary.connections,
        primary.elapsed.as_secs_f64(),
        primary.rps,
    );
    println!(
        "{name}: latency min {:.1}µs p50 {:.1}µs p99 {:.1}µs p999 {:.1}µs max {:.1}µs",
        primary.min as f64 / 1e3,
        primary.p50 as f64 / 1e3,
        primary.p99 as f64 / 1e3,
        primary.p999 as f64 / 1e3,
        primary.max as f64 / 1e3,
    );
    println!("{name}: fit-cache hit rate {hit_rate:.4}; predictions byte-identical to in-process");
    if tallies.retries > 0 {
        println!(
            "{name}: {} request retries across the sweep",
            tallies.retries
        );
    }
    if runs.len() > 1 {
        println!("{name}: latency vs connections");
        println!("  connections     req/s   p50(µs)   p99(µs)  p999(µs)   retries");
        for run in &runs {
            println!(
                "  {:>11} {:>9.0} {:>9.1} {:>9.1} {:>9.1} {:>9}",
                run.connections,
                run.rps,
                run.p50 as f64 / 1e3,
                run.p99 as f64 / 1e3,
                run.p999 as f64 / 1e3,
                run.retries,
            );
        }
    }

    // Merge into target/criterion/summary.json alongside the benches: the
    // headline records carry the primary run; a multi-point sweep adds one
    // record set per connection count.
    criterion::record(BenchRecord {
        name: format!("serve/{name}/latency"),
        unit: "ns".into(),
        min_ns: primary.min as f64,
        median_ns: primary.p50 as f64,
        stddev_ns: primary.stddev,
        iters: primary.total,
        batches: primary.connections as u64,
    });
    criterion::record(BenchRecord {
        name: format!("serve/{name}/p99"),
        unit: "ns".into(),
        min_ns: primary.p99 as f64,
        median_ns: primary.p99 as f64,
        stddev_ns: 0.0,
        iters: primary.total,
        batches: primary.connections as u64,
    });
    criterion::record(BenchRecord {
        name: format!("serve/{name}/p999"),
        unit: "ns".into(),
        min_ns: primary.p999 as f64,
        median_ns: primary.p999 as f64,
        stddev_ns: 0.0,
        iters: primary.total,
        batches: primary.connections as u64,
    });
    criterion::record(BenchRecord {
        name: format!("serve/{name}/throughput_rps"),
        unit: "req/s".into(),
        min_ns: primary.rps,
        median_ns: primary.rps,
        stddev_ns: 0.0,
        iters: primary.total,
        batches: primary.connections as u64,
    });
    // As a percentage: the summary renders values with one decimal, and
    // 0.1% resolution is meaningful where 0.1-of-a-fraction is not.
    criterion::record(BenchRecord {
        name: format!("serve/{name}/cache_hit_rate_pct"),
        unit: "%".into(),
        min_ns: hit_rate * 100.0,
        median_ns: hit_rate * 100.0,
        stddev_ns: 0.0,
        iters: primary.total,
        batches: primary.connections as u64,
    });
    criterion::record(BenchRecord {
        name: format!("serve/{name}/retries"),
        unit: "count".into(),
        min_ns: tallies.retries as f64,
        median_ns: tallies.retries as f64,
        stddev_ns: 0.0,
        iters: primary.total,
        batches: primary.connections as u64,
    });
    if runs.len() > 1 {
        for run in &runs {
            let c = run.connections;
            criterion::record(BenchRecord {
                name: format!("serve/{name}/c{c}/p50"),
                unit: "ns".into(),
                min_ns: run.p50 as f64,
                median_ns: run.p50 as f64,
                stddev_ns: 0.0,
                iters: run.total,
                batches: c as u64,
            });
            criterion::record(BenchRecord {
                name: format!("serve/{name}/c{c}/p99"),
                unit: "ns".into(),
                min_ns: run.p99 as f64,
                median_ns: run.p99 as f64,
                stddev_ns: 0.0,
                iters: run.total,
                batches: c as u64,
            });
            criterion::record(BenchRecord {
                name: format!("serve/{name}/c{c}/throughput_rps"),
                unit: "req/s".into(),
                min_ns: run.rps,
                median_ns: run.rps,
                stddev_ns: 0.0,
                iters: run.total,
                batches: c as u64,
            });
        }
    }
    criterion::write_summary();

    if options.min_rps > 0.0 && primary.rps < options.min_rps {
        eprintln!(
            "error: throughput {:.0} req/s is below the --min-rps gate ({:.0})",
            primary.rps, options.min_rps
        );
        std::process::exit(1);
    }
}
