//! The cluster byte-identity gate: a loopback 3-shard cluster behind a
//! router answers **every** request with exactly the bytes a single node
//! holding all the data would produce — same status, same body, same
//! `Allow`/`Retry-After` headers — across every route, including merged
//! fan-outs (`/v1/batch`, `GET /v1/series`), error shapes, wrong methods
//! and unknown paths. Both sides run `reactor_threads: 1` so even the
//! `workers` field of `/v1/healthz` agrees.
//!
//! Also pins the degraded-mode contract (ISSUE satellite): `DELETE` on a
//! missing series is a `404 series_not_found`, `DELETE` on a series whose
//! shard is down is a `503 shard_unavailable` with `retry_after_ms` — two
//! distinguishable structured errors, and the router keeps serving the
//! surviving shards throughout.

use estima_core::json::Json;
use estima_core::prelude::*;
use estima_serve::{wire, Server, ServerConfig, ServerHandle, ShardRing};

/// Spawn one in-process data node on an ephemeral loopback port.
fn spawn_node() -> ServerHandle {
    Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        reactor_threads: 1,
        ..ServerConfig::default()
    })
    .expect("bind shard")
    .spawn()
    .expect("spawn shard")
}

/// Spawn `n` shards plus a router fronting them; returns the shard handles,
/// their address strings (ring order) and the router handle.
fn spawn_cluster(n: usize) -> (Vec<ServerHandle>, Vec<String>, ServerHandle) {
    let shards: Vec<ServerHandle> = (0..n).map(|_| spawn_node()).collect();
    let addrs: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();
    let router = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        reactor_threads: 1,
        shards: addrs.clone(),
        ..ServerConfig::default()
    })
    .expect("bind router")
    .spawn()
    .expect("spawn router");
    (shards, addrs, router)
}

/// One observed exchange: everything the wire said that a client can see.
#[derive(Debug, PartialEq, Eq)]
struct Exchange {
    status: u16,
    body: String,
    allow: Option<String>,
    retry_after: Option<u64>,
}

fn exchange(client: &mut estima_serve::Client, method: &str, path: &str, body: &str) -> Exchange {
    let response = client.request(method, path, body).expect("request failed");
    Exchange {
        status: response.status,
        body: response.body,
        allow: client.last_allow().map(str::to_string),
        retry_after: client.last_retry_after(),
    }
}

/// Issue the same request to the router and the single reference node and
/// assert the responses are identical; returns the (shared) exchange.
fn check(
    router: &mut estima_serve::Client,
    single: &mut estima_serve::Client,
    method: &str,
    path: &str,
    body: &str,
) -> Exchange {
    let through_router = exchange(router, method, path, body);
    let direct = exchange(single, method, path, body);
    assert_eq!(
        through_router, direct,
        "router and single node disagree on {method} {path}"
    );
    through_router
}

/// A quickstart-shaped measurement set, parameterised so different apps get
/// different (but deterministic) curves.
fn measured_set(app: &str, scale: f64) -> MeasurementSet {
    let mut set = MeasurementSet::new(app, 2.1);
    for cores in 1..=12u32 {
        let n = f64::from(cores);
        let time = scale * 50.0 / n + 1.0;
        set.push(
            Measurement::new(cores, time)
                .with_stall(StallCategory::backend("rob_full"), 4.0e8 * n * time * 0.7)
                .with_stall(StallCategory::backend("ls_full"), 4.0e8 * n * time * 0.3)
                .with_stall(StallCategory::software("lock_spin"), 1.0e7 * n * n * scale),
        );
    }
    set
}

fn ingest_body(set: &MeasurementSet) -> String {
    let id = SeriesId::new(&set.app_name).expect("valid id");
    wire::ingest_request_to_json(&id, Some(set.frequency_ghz), set.measurements()).render()
}

/// Send raw request bytes (connection: close) and read the full raw
/// response — the only way to ship a non-UTF-8 body, and the strictest
/// possible comparison (status line + headers + body, byte for byte).
fn raw_exchange(addr: std::net::SocketAddr, request: &[u8]) -> Vec<u8> {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .expect("read timeout");
    stream.write_all(request).expect("write request");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read response");
    response
}

#[test]
fn every_route_through_the_router_is_byte_identical_to_a_single_node() {
    let (shards, addrs, router_handle) = spawn_cluster(3);
    let single_handle = spawn_node();
    let ring = ShardRing::new(addrs);

    let mut router = estima_serve::Client::connect(router_handle.addr()).expect("connect router");
    let mut single = estima_serve::Client::connect(single_handle.addr()).expect("connect single");

    // --- ingest: create 8 series, spread across the ring ---------------
    let apps: Vec<String> = (0..8).map(|i| format!("tenant.app-{i}")).collect();
    let mut owners = std::collections::BTreeSet::new();
    for (i, app) in apps.iter().enumerate() {
        owners.insert(ring.shard_for(app));
        let set = measured_set(app, 1.0 + i as f64 * 0.25);
        let got = check(
            &mut router,
            &mut single,
            "POST",
            "/v1/measurements",
            &ingest_body(&set),
        );
        assert_eq!(got.status, 200, "{}", got.body);
    }
    assert!(
        owners.len() >= 2,
        "test must exercise a real fan-out; all 8 apps hashed to one shard"
    );

    // --- incremental ingest: append to an existing series --------------
    let id = SeriesId::new("tenant.app-0").unwrap();
    let extra = [Measurement::new(16, 4.0), Measurement::new(24, 3.1)];
    let body = wire::ingest_request_to_json(&id, None, &extra).render();
    let got = check(&mut router, &mut single, "POST", "/v1/measurements", &body);
    assert_eq!(got.status, 200, "{}", got.body);

    // --- per-series prediction ------------------------------------------
    let target = wire::target_spec_to_json(&TargetSpec::cores(48)).render();
    for app in &apps {
        let got = check(
            &mut router,
            &mut single,
            "POST",
            &format!("/v1/series/{app}/predict"),
            &target,
        );
        assert_eq!(got.status, 200, "{}", got.body);
    }

    // --- planning and confidence: routed by series id --------------------
    // Two apps (hashing to different owners with high likelihood) keep the
    // fit-heavy plan fan-in bounded while still crossing shards.
    for app in &apps[..2] {
        let planned = check(
            &mut router,
            &mut single,
            "POST",
            &format!("/v1/series/{app}/plan"),
            &target,
        );
        assert_eq!(planned.status, 200, "{}", planned.body);
        let decoded = Json::parse(&planned.body).unwrap();
        assert_eq!(
            decoded.get("app_name").and_then(Json::as_str),
            Some(app.as_str())
        );
        assert!(!decoded
            .get("suggestions")
            .and_then(Json::as_array)
            .unwrap()
            .is_empty());
    }
    let with_extras = check(
        &mut router,
        &mut single,
        "POST",
        "/v1/series/tenant.app-1/predict",
        r#"{"cores":48,"confidence":true,"diagnosis":true}"#,
    );
    assert_eq!(with_extras.status, 200, "{}", with_extras.body);
    assert!(with_extras.body.contains("\"confidence\""));
    assert!(with_extras.body.contains("\"bottleneck\""));

    // --- series detail and the merged list ------------------------------
    check(
        &mut router,
        &mut single,
        "GET",
        "/v1/series/tenant.app-3",
        "",
    );
    let list = check(&mut router, &mut single, "GET", "/v1/series", "");
    assert_eq!(list.status, 200);
    let decoded = Json::parse(&list.body).unwrap();
    assert_eq!(decoded.get("count").and_then(Json::as_u64), Some(8));

    // --- stateless prediction and batch fan-out --------------------------
    let set = measured_set("stateless", 0.8);
    let body = wire::predict_request_to_json(&set, &TargetSpec::cores(64)).render();
    check(&mut router, &mut single, "POST", "/v1/predict", &body);

    // Mixed batch: three apps (distinct ring owners likely), plus a job
    // that fails inside the engine — per-job errors ride inside the 200
    // and must merge back into their original slots.
    let mut jobs: Vec<Json> = ["batch.alpha", "batch.beta", "batch.gamma"]
        .iter()
        .enumerate()
        .map(|(i, app)| {
            wire::predict_request_to_json(
                &measured_set(app, 1.0 + i as f64),
                &TargetSpec::cores(32),
            )
        })
        .collect();
    let mut starved = MeasurementSet::new("batch.starved", 2.1);
    starved.push(Measurement::new(1, 10.0));
    jobs.insert(
        1,
        wire::predict_request_to_json(&starved, &TargetSpec::cores(32)),
    );
    let body = Json::Object(vec![("jobs".to_string(), Json::Array(jobs))]).render();
    let got = check(&mut router, &mut single, "POST", "/v1/batch", &body);
    assert_eq!(got.status, 200, "{}", got.body);
    let results = Json::parse(&got.body).unwrap();
    let results = results.get("results").and_then(Json::as_array).unwrap();
    assert_eq!(results.len(), 4, "every job slot answered in order");

    // --- deletion, and every error shape ---------------------------------
    check(
        &mut router,
        &mut single,
        "DELETE",
        "/v1/series/tenant.app-5",
        "",
    );
    let gone = check(
        &mut router,
        &mut single,
        "GET",
        "/v1/series/tenant.app-5",
        "",
    );
    assert_eq!(gone.status, 404);
    let missing = check(
        &mut router,
        &mut single,
        "DELETE",
        "/v1/series/tenant.ghost",
        "",
    );
    assert_eq!(missing.status, 404);
    assert!(
        missing.body.contains("series_not_found"),
        "{}",
        missing.body
    );
    let predict_missing = check(
        &mut router,
        &mut single,
        "POST",
        "/v1/series/tenant.ghost/predict",
        &target,
    );
    assert_eq!(predict_missing.status, 404);
    let plan_missing = check(
        &mut router,
        &mut single,
        "POST",
        "/v1/series/tenant.ghost/plan",
        &target,
    );
    assert_eq!(plan_missing.status, 404);
    assert!(
        plan_missing.body.contains("series_not_found"),
        "{}",
        plan_missing.body
    );
    let wrong_plan_method = check(
        &mut router,
        &mut single,
        "GET",
        "/v1/series/tenant.app-0/plan",
        "",
    );
    assert_eq!(wrong_plan_method.status, 405);
    assert_eq!(wrong_plan_method.allow.as_deref(), Some("POST"));

    let bad_id = check(&mut router, &mut single, "GET", "/v1/series/bad%20id!", "");
    assert_eq!(bad_id.status, 400);
    let bad_json = check(
        &mut router,
        &mut single,
        "POST",
        "/v1/measurements",
        "{not json",
    );
    assert_eq!(bad_json.status, 400);
    let bad_batch = check(
        &mut router,
        &mut single,
        "POST",
        "/v1/batch",
        "{\"jobs\":[{\"bogus\":1}]}",
    );
    assert_eq!(bad_batch.status, 400);
    assert!(bad_batch.body.contains("jobs[0]"), "{}", bad_batch.body);

    let wrong_method = check(&mut router, &mut single, "PUT", "/v1/predict", "{}");
    assert_eq!(wrong_method.status, 405);
    assert_eq!(wrong_method.allow.as_deref(), Some("POST"));
    let wrong_series_method = check(
        &mut router,
        &mut single,
        "PUT",
        "/v1/series/tenant.app-0",
        "",
    );
    assert_eq!(wrong_series_method.status, 405);
    assert_eq!(wrong_series_method.allow.as_deref(), Some("GET, DELETE"));
    let unknown = check(&mut router, &mut single, "GET", "/v1/nope", "");
    assert_eq!(unknown.status, 404);

    // --- locally answered routes agree too -------------------------------
    let health = check(&mut router, &mut single, "GET", "/v1/healthz", "");
    assert_eq!(health.status, 200);

    // --- non-UTF-8 body: raw-socket comparison, full response bytes ------
    let mut raw = Vec::new();
    raw.extend_from_slice(
        b"POST /v1/measurements HTTP/1.1\r\nhost: loopback\r\n\
          content-type: application/json\r\ncontent-length: 4\r\n\
          connection: close\r\n\r\n",
    );
    raw.extend_from_slice(&[0xff, 0xfe, 0x20, 0x7b]);
    let via_router = raw_exchange(router_handle.addr(), &raw);
    let direct = raw_exchange(single_handle.addr(), &raw);
    assert_eq!(
        via_router,
        direct,
        "non-UTF-8 body: raw responses differ\nrouter: {:?}\nsingle: {:?}",
        String::from_utf8_lossy(&via_router),
        String::from_utf8_lossy(&direct)
    );
    assert!(String::from_utf8_lossy(&via_router).starts_with("HTTP/1.1 400"));

    // --- router stats surface --------------------------------------------
    let response = router.request("GET", "/v1/stats", "").expect("stats");
    let stats = Json::parse(&response.body).unwrap();
    let router_stats = stats.get("router").expect("router section");
    assert!(
        router_stats
            .get("forwarded")
            .and_then(Json::as_u64)
            .unwrap()
            > 0
    );
    assert!(router_stats.get("fanouts").and_then(Json::as_u64).unwrap() > 0);
    assert_eq!(
        router_stats
            .get("shards")
            .and_then(Json::as_array)
            .map(|rows| rows.len()),
        Some(3)
    );

    single_handle.shutdown();
    router_handle.shutdown();
    for shard in shards {
        shard.shutdown();
    }
}

#[test]
fn delete_distinguishes_missing_series_from_unreachable_shard() {
    let (mut shards, addrs, router_handle) = spawn_cluster(3);
    let ring = ShardRing::new(addrs);
    let mut router = estima_serve::Client::connect(router_handle.addr()).expect("connect router");

    // Find one app per shard so we can aim requests at a chosen owner.
    let mut app_on_shard = vec![None; 3];
    for i in 0..64 {
        let app = format!("kill.app-{i}");
        let owner = ring.shard_for(&app);
        if app_on_shard[owner].is_none() {
            app_on_shard[owner] = Some(app);
        }
    }
    let app_on_shard: Vec<String> = app_on_shard.into_iter().map(Option::unwrap).collect();
    for app in &app_on_shard {
        let body = ingest_body(&measured_set(app, 1.0));
        let response = router.request("POST", "/v1/measurements", &body).unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
    }

    // Missing series on a *live* shard: structured 404, no Retry-After.
    let response = router
        .request("DELETE", "/v1/series/kill.ghost", "")
        .unwrap();
    assert_eq!(response.status, 404, "{}", response.body);
    let error = Json::parse(&response.body).unwrap();
    assert_eq!(
        error
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("series_not_found")
    );
    assert_eq!(router.last_retry_after(), None);

    // Take shard 2 down. Existing pooled connections go stale and fresh
    // connects are refused: the router must degrade to a structured 503,
    // never hang.
    let victim = 2usize;
    shards.remove(victim).shutdown();

    let response = router
        .request(
            "DELETE",
            &format!("/v1/series/{}", app_on_shard[victim]),
            "",
        )
        .unwrap_or_else(|e| panic!("router must answer, not hang: {e}"));
    assert_eq!(response.status, 503, "{}", response.body);
    let error = Json::parse(&response.body).unwrap();
    let error = error.get("error").expect("structured error");
    assert_eq!(
        error.get("code").and_then(Json::as_str),
        Some("shard_unavailable")
    );
    assert!(
        error.get("retry_after_ms").and_then(Json::as_u64).is_some(),
        "{}",
        response.body
    );
    assert_eq!(router.last_retry_after(), Some(1), "Retry-After header");

    // Survivors keep serving: reads, writes and deletes on the two live
    // shards work exactly as before.
    for survivor in [0usize, 1] {
        let app = &app_on_shard[survivor];
        let response = router
            .request(
                "POST",
                &format!("/v1/series/{app}/predict"),
                &wire::target_spec_to_json(&TargetSpec::cores(24)).render(),
            )
            .unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
    }
    let survivor_app = &app_on_shard[0];
    let response = router
        .request("DELETE", &format!("/v1/series/{survivor_app}"), "")
        .unwrap();
    assert_eq!(response.status, 200, "{}", response.body);

    // The stats surface reflects the outage.
    let response = router.request("GET", "/v1/stats", "").unwrap();
    let stats = Json::parse(&response.body).unwrap();
    let router_stats = stats.get("router").expect("router section");
    assert!(
        router_stats
            .get("upstream_errors")
            .and_then(Json::as_u64)
            .unwrap()
            > 0
    );
    let shard_rows = router_stats.get("shards").and_then(Json::as_array).unwrap();
    let dead_row = &shard_rows[victim];
    assert_eq!(dead_row.get("healthy").and_then(Json::as_bool), Some(false));

    router_handle.shutdown();
    for shard in shards {
        shard.shutdown();
    }
}

/// Route-level outcomes — unknown paths, wrong methods, invalid series ids —
/// depend on no shard's data: with its only shard down, the router still
/// answers them exactly as a single node does, and counts them the same.
#[test]
fn route_level_errors_need_no_live_shard() {
    let (shards, _, router_handle) = spawn_cluster(1);
    for shard in shards {
        shard.shutdown();
    }
    let single_handle = spawn_node();
    let mut router = estima_serve::Client::connect(router_handle.addr()).expect("connect router");
    let mut single = estima_serve::Client::connect(single_handle.addr()).expect("connect single");

    let cases = [
        ("GET", "/v1/nope", 404),
        ("PUT", "/v1/predict", 405),
        ("POST", "/v1/healthz", 405),
        ("PATCH", "/v1/series/abc", 405),
        ("GET", "/v1/series/abc/predict", 405),
        ("POST", "/v1/series/bad%20id/predict", 400),
        ("GET", "/v1/series/a/b/c", 404),
    ];
    for (method, path, status) in cases {
        let got = check(&mut router, &mut single, method, path, r#"{"cores":48}"#);
        assert_eq!(got.status, status, "{method} {path}: {}", got.body);
    }

    // Nothing was forwarded, and both sides counted the same requests.
    let stats = |client: &mut estima_serve::Client| {
        let response = client.request("GET", "/v1/stats", "").expect("stats");
        Json::parse(&response.body).unwrap()
    };
    let (via_router, direct) = (stats(&mut router), stats(&mut single));
    assert_eq!(via_router.get("requests"), direct.get("requests"));
    let forwarded = via_router.get("router").and_then(|r| r.get("forwarded"));
    assert_eq!(forwarded.and_then(Json::as_u64), Some(0));

    // The shard really is down: a request that needs its data degrades.
    let down = exchange(&mut router, "GET", "/v1/series/abc", "");
    assert_eq!(down.status, 503, "{}", down.body);

    single_handle.shutdown();
    router_handle.shutdown();
}
