//! End-to-end tests: a real server on a loopback socket, driven by a real
//! TCP client, including the headline guarantee — predictions served over
//! HTTP are byte-identical to in-process [`BatchPredictor`] output.

use estima_core::json::Json;
use estima_core::prelude::*;
use estima_serve::wire;
use estima_serve::{Server, ServerConfig};

/// The shared blocking client (`estima_serve::Client` — the one `loadgen`
/// and the serve bench use), wrapped to panic on transport errors and
/// return `(status, body)` tuples. Independent-client coverage of the HTTP
/// framing comes from the CI curl smoke step.
struct Client(estima_serve::Client);

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        Client(estima_serve::Client::connect(addr).expect("connect to test server"))
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> (u16, String) {
        let response = self.0.request(method, path, body).expect("request failed");
        (response.status, response.body)
    }
}

fn spawn_server() -> estima_serve::ServerHandle {
    Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        reactor_threads: 2,
        ..ServerConfig::default()
    })
    .expect("bind loopback server")
    .spawn()
    .expect("spawn server reactors")
}

/// A quickstart-sized measurement set: 12 core counts, two backend stall
/// categories and a software one, like the repository quickstart example.
fn quickstart_sized_set(app: &str) -> MeasurementSet {
    let mut set = MeasurementSet::new(app, 2.1);
    for cores in 1..=12u32 {
        let n = f64::from(cores);
        let time = 50.0 / n + 1.0;
        set.push(
            Measurement::new(cores, time)
                .with_stall(StallCategory::backend("rob_full"), 4.0e8 * n * time * 0.7)
                .with_stall(StallCategory::backend("ls_full"), 4.0e8 * n * time * 0.3)
                .with_stall(StallCategory::software("lock_spin"), 1.0e7 * n * n),
        );
    }
    set
}

#[test]
fn predict_over_http_is_byte_identical_to_in_process() {
    let handle = spawn_server();
    let mut client = Client::connect(handle.addr());

    let set = quickstart_sized_set("quickstart");
    let target = TargetSpec::cores(48);
    let body = wire::predict_request_to_json(&set, &target).render();
    let (status, response) = client.request("POST", "/v1/predict", &body);
    assert_eq!(status, 200, "{response}");

    // The reference: the same prediction computed in-process, through the
    // same API the server uses.
    let reference = BatchPredictor::new(EstimaConfig::default().with_parallelism(1))
        .predict(&set, &target)
        .unwrap();

    let decoded = Json::parse(&response).unwrap();
    assert_eq!(
        decoded.get("app_name").and_then(Json::as_str),
        Some("quickstart")
    );
    assert_eq!(decoded.get("target_cores").and_then(Json::as_u64), Some(48));
    let served = wire::series_from_json(decoded.get("predicted_time").unwrap()).unwrap();
    assert_eq!(served.len(), reference.predicted_time.len());
    for ((c1, t1), (c2, t2)) in reference.predicted_time.iter().zip(&served) {
        assert_eq!(c1, c2);
        assert_eq!(
            t1.to_bits(),
            t2.to_bits(),
            "served prediction differs at {c1} cores: {t1} vs {t2}"
        );
    }
    let spc = wire::series_from_json(decoded.get("stalls_per_core").unwrap()).unwrap();
    for ((c1, s1), (c2, s2)) in reference.stalls_per_core.iter().zip(&spc) {
        assert_eq!(c1, c2);
        assert_eq!(s1.to_bits(), s2.to_bits());
    }

    handle.shutdown();
}

#[test]
fn keep_alive_repeat_requests_hit_the_fit_cache() {
    let handle = spawn_server();
    let mut client = Client::connect(handle.addr());

    let body =
        wire::predict_request_to_json(&quickstart_sized_set("repeat"), &TargetSpec::cores(24))
            .render();
    let (_, first) = client.request("POST", "/v1/predict", &body);
    let (_, second) = client.request("POST", "/v1/predict", &body);
    assert_eq!(
        first, second,
        "identical requests must serve identical bytes"
    );

    let (status, stats) = client.request("GET", "/v1/stats", "");
    assert_eq!(status, 200);
    let stats = Json::parse(&stats).unwrap();
    let cache = stats.get("cache").unwrap();
    let hits = cache.get("hits").and_then(Json::as_u64).unwrap();
    assert!(hits > 0, "second request should hit the cache: {cache:?}");
    assert_eq!(
        stats
            .get("requests")
            .unwrap()
            .get("predict")
            .and_then(Json::as_u64),
        Some(2)
    );
    assert_eq!(
        stats
            .get("latency_us")
            .unwrap()
            .get("count")
            .and_then(Json::as_u64),
        Some(2)
    );

    handle.shutdown();
}

#[test]
fn batch_endpoint_preserves_job_order_and_reports_per_job_errors() {
    let handle = spawn_server();
    let mut client = Client::connect(handle.addr());

    // Job 2 is invalid: too few measurements for a prediction.
    let good_a =
        wire::predict_request_to_json(&quickstart_sized_set("alpha"), &TargetSpec::cores(32));
    let mut tiny = MeasurementSet::new("tiny", 2.0);
    tiny.push(Measurement::new(1, 1.0).with_stall(StallCategory::backend("x"), 1.0));
    let bad = wire::predict_request_to_json(&tiny, &TargetSpec::cores(32));
    let good_b =
        wire::predict_request_to_json(&quickstart_sized_set("beta"), &TargetSpec::cores(32));
    let body = Json::Object(vec![(
        "jobs".to_string(),
        Json::Array(vec![good_a, bad, good_b]),
    )])
    .render();

    let (status, response) = client.request("POST", "/v1/batch", &body);
    assert_eq!(status, 200, "{response}");
    let results = Json::parse(&response)
        .unwrap()
        .get("results")
        .unwrap()
        .as_array()
        .unwrap()
        .to_vec();
    assert_eq!(results.len(), 3);
    assert_eq!(
        results[0]
            .get("prediction")
            .unwrap()
            .get("app_name")
            .and_then(Json::as_str),
        Some("alpha")
    );
    assert_eq!(
        results[1]
            .get("error")
            .unwrap()
            .get("code")
            .and_then(Json::as_str),
        Some("prediction_failed")
    );
    assert_eq!(
        results[2]
            .get("prediction")
            .unwrap()
            .get("app_name")
            .and_then(Json::as_str),
        Some("beta")
    );

    handle.shutdown();
}

#[test]
fn error_codes_match_the_documented_semantics() {
    let handle = spawn_server();
    let mut client = Client::connect(handle.addr());

    let (status, body) = client.request("GET", "/v1/healthz", "");
    assert_eq!(status, 200);
    assert_eq!(
        Json::parse(&body)
            .unwrap()
            .get("status")
            .and_then(Json::as_str),
        Some("ok")
    );

    // A query string must not break routing (health checkers append them).
    let (status, _) = client.request("GET", "/v1/healthz?probe=1", "");
    assert_eq!(status, 200);

    let (status, body) = client.request("GET", "/nope", "");
    assert_eq!(status, 404);
    let code = |body: &str| {
        Json::parse(body)
            .unwrap()
            .get("error")
            .unwrap()
            .get("code")
            .and_then(Json::as_str)
            .map(str::to_string)
    };
    assert_eq!(code(&body).as_deref(), Some("not_found"));

    let (status, body) = client.request("GET", "/v1/predict", "");
    assert_eq!(status, 405);
    assert_eq!(code(&body).as_deref(), Some("method_not_allowed"));

    let (status, body) = client.request("POST", "/v1/predict", "{not json");
    assert_eq!(status, 400);
    assert_eq!(code(&body).as_deref(), Some("bad_request"));

    let (status, body) = client.request("POST", "/v1/predict", r#"{"target":{"cores":8}}"#);
    assert_eq!(status, 400);
    assert_eq!(code(&body).as_deref(), Some("bad_request"));

    // Valid wire format, but the pipeline rejects it: 422.
    let mut tiny = MeasurementSet::new("tiny", 2.0);
    tiny.push(Measurement::new(1, 1.0).with_stall(StallCategory::backend("x"), 1.0));
    let body_text = wire::predict_request_to_json(&tiny, &TargetSpec::cores(8)).render();
    let (status, body) = client.request("POST", "/v1/predict", &body_text);
    assert_eq!(status, 422);
    assert_eq!(code(&body).as_deref(), Some("prediction_failed"));

    handle.shutdown();
}

#[test]
fn series_predict_after_incremental_ingest_is_byte_identical_to_one_shot() {
    let handle = spawn_server();
    let mut client = Client::connect(handle.addr());

    // Collection: the quickstart set arrives one point per request, the way
    // a collector streaming runs would deliver it. The series id doubles as
    // the app name, so the stateless request below is the equivalent job.
    let set = quickstart_sized_set("stream");
    for (index, point) in set.measurements().iter().enumerate() {
        let body = wire::ingest_request_to_json(
            &SeriesId::new("stream").unwrap(),
            Some(set.frequency_ghz),
            std::slice::from_ref(point),
        )
        .render();
        let (status, response) = client.request("POST", "/v1/measurements", &body);
        assert_eq!(status, 200, "{response}");
        let decoded = Json::parse(&response).unwrap();
        // Version semantics: create bumps to 1, every ingest call bumps 1.
        assert_eq!(
            decoded.get("version").and_then(Json::as_u64),
            Some(index as u64 + 2)
        );
        assert_eq!(
            decoded.get("points").and_then(Json::as_u64),
            Some(index as u64 + 1)
        );
    }

    // Query the named series: body is the bare TargetSpec, nothing else.
    let target = TargetSpec::cores(48);
    let (status, incremental) = client.request(
        "POST",
        "/v1/series/stream/predict",
        &wire::target_spec_to_json(&target).render(),
    );
    assert_eq!(status, 200, "{incremental}");

    // The acceptance pin: byte-for-byte the same JSON as the stateless
    // endpoint fed the equivalent full set...
    let body = wire::predict_request_to_json(&set, &target).render();
    let (status, one_shot) = client.request("POST", "/v1/predict", &body);
    assert_eq!(status, 200, "{one_shot}");
    assert_eq!(
        incremental, one_shot,
        "series predict differs from the stateless predict of the same set"
    );

    // ...and identical bits to the in-process convenience API.
    let reference = Estima::new(EstimaConfig::default().with_parallelism(1))
        .predict(&set, &target)
        .unwrap();
    let decoded = Json::parse(&incremental).unwrap();
    let served = wire::series_from_json(decoded.get("predicted_time").unwrap()).unwrap();
    for ((c1, t1), (c2, t2)) in reference.predicted_time.iter().zip(&served) {
        assert_eq!(c1, c2);
        assert_eq!(t1.to_bits(), t2.to_bits());
    }

    handle.shutdown();
}

#[test]
fn series_lifecycle_list_get_delete() {
    let handle = spawn_server();
    let mut client = Client::connect(handle.addr());

    let set = quickstart_sized_set("lifecycle");
    let ingest = wire::ingest_request_to_json(
        &SeriesId::new("lifecycle").unwrap(),
        Some(set.frequency_ghz),
        set.measurements(),
    )
    .render();
    let (status, response) = client.request("POST", "/v1/measurements", &ingest);
    assert_eq!(status, 200, "{response}");

    // List: one series, version 2 (create + one batched ingest).
    let (status, listed) = client.request("GET", "/v1/series", "");
    assert_eq!(status, 200);
    let listed = Json::parse(&listed).unwrap();
    assert_eq!(listed.get("count").and_then(Json::as_u64), Some(1));
    let entry = &listed.get("series").unwrap().as_array().unwrap()[0];
    assert_eq!(
        entry.get("series").and_then(Json::as_str),
        Some("lifecycle")
    );
    assert_eq!(entry.get("version").and_then(Json::as_u64), Some(2));
    assert_eq!(entry.get("points").and_then(Json::as_u64), Some(12));
    assert_eq!(entry.get("max_cores").and_then(Json::as_u64), Some(12));

    // Get: the stored measurements round-trip to exactly what was sent
    // (modulo the app name, which is the series id).
    let (status, detail) = client.request("GET", "/v1/series/lifecycle", "");
    assert_eq!(status, 200);
    let detail = Json::parse(&detail).unwrap();
    let stored = wire::measurement_set_from_json(detail.get("measurements").unwrap()).unwrap();
    assert_eq!(stored.measurements(), set.measurements());

    // Delete: reports what was dropped; the series is gone afterwards.
    let (status, deleted) = client.request("DELETE", "/v1/series/lifecycle", "");
    assert_eq!(status, 200);
    let deleted = Json::parse(&deleted).unwrap();
    assert_eq!(
        deleted.get("deleted").and_then(Json::as_str),
        Some("lifecycle")
    );
    assert_eq!(deleted.get("points").and_then(Json::as_u64), Some(12));
    let (status, _) = client.request("GET", "/v1/series/lifecycle", "");
    assert_eq!(status, 404);
    let (status, _) = client.request("DELETE", "/v1/series/lifecycle", "");
    assert_eq!(status, 404);

    handle.shutdown();
}

#[test]
fn fit_cache_versioning_over_http() {
    let handle = spawn_server();
    let mut client = Client::connect(handle.addr());

    let cache_counters = |client: &mut Client| -> (u64, u64) {
        let (status, stats) = client.request("GET", "/v1/stats", "");
        assert_eq!(status, 200);
        let stats = Json::parse(&stats).unwrap();
        let cache = stats.get("cache").unwrap();
        (
            cache.get("hits").and_then(Json::as_u64).unwrap(),
            cache.get("misses").and_then(Json::as_u64).unwrap(),
        )
    };

    // Two independent series.
    for name in ["va", "vb"] {
        let set = quickstart_sized_set(name);
        let body = wire::ingest_request_to_json(
            &SeriesId::new(name).unwrap(),
            Some(set.frequency_ghz),
            set.measurements(),
        )
        .render();
        let (status, _) = client.request("POST", "/v1/measurements", &body);
        assert_eq!(status, 200);
    }
    let target = wire::target_spec_to_json(&TargetSpec::cores(48)).render();
    for name in ["va", "vb"] {
        let (status, _) = client.request("POST", &format!("/v1/series/{name}/predict"), &target);
        assert_eq!(status, 200);
    }
    let (_, misses_cold) = cache_counters(&mut client);

    // Re-predicting unchanged series: hits only, not one new miss.
    for name in ["va", "vb"] {
        let (status, _) = client.request("POST", &format!("/v1/series/{name}/predict"), &target);
        assert_eq!(status, 200);
    }
    let (hits_warm, misses_warm) = cache_counters(&mut client);
    assert_eq!(misses_warm, misses_cold, "unchanged series refitted");
    assert!(hits_warm > 0);

    // One appended measurement into `va` only, following the same analytic
    // laws as the rest of the series (a 13th run arriving later).
    let n = 13.0f64;
    let time = 50.0 / n + 1.0;
    let extra = Measurement::new(13, time)
        .with_stall(StallCategory::backend("rob_full"), 4.0e8 * n * time * 0.7)
        .with_stall(StallCategory::backend("ls_full"), 4.0e8 * n * time * 0.3)
        .with_stall(StallCategory::software("lock_spin"), 1.0e7 * n * n);
    let body = wire::ingest_request_to_json(
        &SeriesId::new("va").unwrap(),
        None, // frequency comes from the stored series
        std::slice::from_ref(&extra),
    )
    .render();
    let (status, response) = client.request("POST", "/v1/measurements", &body);
    assert_eq!(status, 200, "{response}");

    // `vb` is untouched: still pure hits.
    let (status, _) = client.request("POST", "/v1/series/vb/predict", &target);
    assert_eq!(status, 200);
    let (_, misses_after_vb) = cache_counters(&mut client);
    assert_eq!(
        misses_after_vb, misses_warm,
        "an ingest into va invalidated vb's fits"
    );

    // `va` must refit: misses move for that series only.
    let (status, _) = client.request("POST", "/v1/series/va/predict", &target);
    assert_eq!(status, 200);
    let (_, misses_after_va) = cache_counters(&mut client);
    assert!(
        misses_after_va > misses_warm,
        "va served fits from a stale version"
    );

    // The stats store section tracks the two series.
    let (_, stats) = client.request("GET", "/v1/stats", "");
    let stats = Json::parse(&stats).unwrap();
    let store = stats.get("store").unwrap();
    assert_eq!(store.get("series").and_then(Json::as_u64), Some(2));
    assert_eq!(store.get("points").and_then(Json::as_u64), Some(25));
    assert!(
        stats
            .get("cache")
            .unwrap()
            .get("invalidations")
            .and_then(Json::as_u64)
            .unwrap()
            > 0
    );

    handle.shutdown();
}

#[test]
fn flipping_the_newest_point_refits_from_memoised_solves() {
    let handle = spawn_server();
    let mut client = Client::connect(handle.addr());
    let solve_counters = |client: &mut Client| -> (u64, u64, u64) {
        let (status, stats) = client.request("GET", "/v1/stats", "");
        assert_eq!(status, 200);
        let stats = Json::parse(&stats).unwrap();
        let cache = stats.get("cache").unwrap();
        let counter = |key: &str| cache.get(key).and_then(Json::as_u64).unwrap();
        (
            counter("solve_hits"),
            counter("solve_misses"),
            counter("solve_entries"),
        )
    };

    let set = seed_series(&mut client, "flip");
    let target = TargetSpec::cores(48);
    let target_body = wire::target_spec_to_json(&target).render();
    let (status, _) = client.request("POST", "/v1/series/flip/predict", &target_body);
    assert_eq!(status, 200);
    let (hits_cold, misses_cold, entries_cold) = solve_counters(&mut client);
    assert!(misses_cold > 0 && entries_cold > 0);

    // Replace the newest (12-core) checkpoint: no training prefix changes,
    // so the refit re-solves nothing.
    let n = 12.0f64;
    let time = 50.0 / n + 1.5;
    let flipped = Measurement::new(12, time)
        .with_stall(StallCategory::backend("rob_full"), 4.0e8 * n * time * 0.7)
        .with_stall(StallCategory::backend("ls_full"), 4.0e8 * n * time * 0.3)
        .with_stall(StallCategory::software("lock_spin"), 1.1e7 * n * n);
    let body = wire::ingest_request_to_json(
        &SeriesId::new("flip").unwrap(),
        None,
        std::slice::from_ref(&flipped),
    )
    .render();
    let (status, response) = client.request("POST", "/v1/measurements", &body);
    assert_eq!(status, 200, "{response}");
    let (status, served) = client.request("POST", "/v1/series/flip/predict", &target_body);
    assert_eq!(status, 200);
    let (hits, misses, entries) = solve_counters(&mut client);
    assert!(hits > hits_cold, "the refit reused no memoised solve");
    assert_eq!(misses, misses_cold, "the flip re-ran LM solves");
    assert_eq!(entries, entries_cold);

    // And the memoised refit serves exactly the bytes of a fresh fit.
    let mut expected_set = MeasurementSet::new("flip", set.frequency_ghz);
    for point in set.measurements() {
        expected_set.push(if point.cores == 12 {
            flipped.clone()
        } else {
            point.clone()
        });
    }
    let expected = Estima::new(EstimaConfig::default())
        .predict(&expected_set, &target)
        .unwrap();
    let mut expected_body = String::new();
    wire::write_prediction(&expected, &mut expected_body);
    assert_eq!(served, expected_body);

    handle.shutdown();
}

#[test]
fn an_absurd_target_core_count_is_refused_promptly() {
    let handle = spawn_server();
    let mut client = Client::connect(handle.addr());
    seed_series(&mut client, "huge");
    let start = std::time::Instant::now();
    let (status, body) = client.request(
        "POST",
        "/v1/series/huge/predict",
        r#"{"cores": 4000000000}"#,
    );
    assert_eq!(status, 422, "{body}");
    assert_eq!(
        Json::parse(&body)
            .unwrap()
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("prediction_failed")
    );
    assert!(
        start.elapsed() < std::time::Duration::from_secs(5),
        "refusing the target took {:?}",
        start.elapsed()
    );
    // The node survived the request.
    let (status, _) = client.request("GET", "/v1/healthz", "");
    assert_eq!(status, 200);

    handle.shutdown();
}

#[test]
fn a_non_positive_target_clock_is_refused() {
    let handle = spawn_server();
    let mut client = Client::connect(handle.addr());
    let set = seed_series(&mut client, "clock");
    let mut expected = String::new();
    wire::write_error(
        "prediction_failed",
        "invalid configuration: frequency_ghz must be positive",
        &mut expected,
    );
    // Every route that predicts refuses the clock instead of predicting at
    // the measurement machine's.
    for ghz in ["-2", "0", "-0"] {
        let target = format!(r#"{{"cores":48,"frequency_ghz":{ghz}}}"#);
        let oneshot = format!(
            r#"{{"measurements":{},"target":{target}}}"#,
            wire::measurement_set_to_json(&set).render()
        );
        for (path, body) in [
            ("/v1/series/clock/predict", &target),
            ("/v1/series/clock/plan", &target),
            ("/v1/predict", &oneshot),
        ] {
            assert_eq!(
                client.request("POST", path, body),
                (422, expected.clone()),
                "{path} {body}"
            );
        }
    }
    let (status, _) = client.request(
        "POST",
        "/v1/series/clock/predict",
        r#"{"cores":48,"frequency_ghz":2.8}"#,
    );
    assert_eq!(status, 200);

    handle.shutdown();
}

#[test]
fn series_error_codes_match_the_documented_semantics() {
    let handle = spawn_server();
    let mut client = Client::connect(handle.addr());
    let code = |body: &str| {
        Json::parse(body)
            .unwrap()
            .get("error")
            .unwrap()
            .get("code")
            .and_then(Json::as_str)
            .map(str::to_string)
    };

    // Unknown series: 404 series_not_found (predict and get).
    let target = wire::target_spec_to_json(&TargetSpec::cores(8)).render();
    let (status, body) = client.request("POST", "/v1/series/ghost/predict", &target);
    assert_eq!(status, 404);
    assert_eq!(code(&body).as_deref(), Some("series_not_found"));

    // Ingest without frequency into a missing series: cannot create.
    let (status, body) = client.request(
        "POST",
        "/v1/measurements",
        r#"{"series":"ghost","points":[]}"#,
    );
    assert_eq!(status, 404);
    assert_eq!(code(&body).as_deref(), Some("series_not_found"));

    // Frequency conflict on an existing series: 409 series_conflict.
    let (status, _) = client.request(
        "POST",
        "/v1/measurements",
        r#"{"series":"clash","frequency_ghz":2.1,"points":[]}"#,
    );
    assert_eq!(status, 200);
    let (status, body) = client.request(
        "POST",
        "/v1/measurements",
        r#"{"series":"clash","frequency_ghz":3.0,"points":[]}"#,
    );
    assert_eq!(status, 409);
    assert_eq!(code(&body).as_deref(), Some("series_conflict"));

    // Invalid series id in the path: 400 bad_request.
    let (status, body) = client.request("GET", "/v1/series/bad%20id", "");
    assert_eq!(status, 400);
    assert_eq!(code(&body).as_deref(), Some("bad_request"));

    // Wrong method on a series resource: 405 with the route's method set.
    let (status, body) = client.request("PUT", "/v1/series/clash", "");
    assert_eq!(status, 405);
    assert_eq!(code(&body).as_deref(), Some("method_not_allowed"));
    let (status, _) = client.request("GET", "/v1/series/clash/predict", "");
    assert_eq!(status, 405);
    let (status, _) = client.request("DELETE", "/v1/predict", "");
    assert_eq!(status, 405);

    // A series whose data cannot be predicted: 422 prediction_failed.
    let (status, _) = client.request(
        "POST",
        "/v1/measurements",
        r#"{"series":"thin","frequency_ghz":2.1,"points":[
            {"cores":1,"exec_time":1.0,"stalls":[{"source":"hw_backend","name":"x","cycles":1.0}]}]}"#,
    );
    assert_eq!(status, 200);
    let (status, body) = client.request("POST", "/v1/series/thin/predict", &target);
    assert_eq!(status, 422);
    assert_eq!(code(&body).as_deref(), Some("prediction_failed"));

    handle.shutdown();
}

#[test]
fn an_append_without_a_clock_cannot_recreate_an_expired_series() {
    let handle = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        reactor_threads: 1,
        ttl_secs: 1,
        ..ServerConfig::default()
    })
    .expect("bind loopback server")
    .spawn()
    .expect("spawn server reactors");
    let mut client = Client::connect(handle.addr());
    // The same situation in process: a session whose store expires series
    // after the same TTL.
    let session = EstimaSession::with_store(
        EstimaConfig::default().with_parallelism(1),
        std::sync::Arc::new(FitCache::new()),
        MeasurementStore::new()
            .with_limits(StoreLimits::new().with_ttl(std::time::Duration::from_secs(1))),
    );
    let id = SeriesId::new("ttl-demo").unwrap();
    let set = quickstart_sized_set("ttl-demo");
    let (early, late) = set.measurements().split_at(3);
    let body = wire::ingest_request_to_json(&id, Some(2.1), early).render();
    let (status, response) = client.request("POST", "/v1/measurements", &body);
    assert_eq!(
        (status, response.as_str()),
        (200, r#"{"series":"ttl-demo","version":2,"points":3}"#)
    );
    session.ingest_set(&id, &set).unwrap();

    std::thread::sleep(std::time::Duration::from_millis(1200));

    // A points-only append into the expired series: the series is gone,
    // and the append cannot create it.
    let append = wire::ingest_request_to_json(&id, None, &late[..1]).render();
    let (status, response) = client.request("POST", "/v1/measurements", &append);
    assert_eq!(status, 404, "{response}");
    let error = Json::parse(&response).unwrap();
    let error = error.get("error").unwrap();
    assert_eq!(
        error.get("code").and_then(Json::as_str),
        Some("series_not_found")
    );
    assert_eq!(
        error.get("message").and_then(Json::as_str),
        Some("series `ttl-demo` does not exist; supply `frequency_ghz` to create it")
    );
    let (status, _) = client.request("GET", "/v1/series/ttl-demo", "");
    assert_eq!(status, 404);
    assert!(matches!(
        session.ingest(&id, late[0].clone()),
        Err(EstimaError::SeriesNotFound { .. })
    ));

    // With the clock, the append re-creates the series afresh: version 2
    // (created, then changed), holding only the new points.
    let recreate = wire::ingest_request_to_json(&id, Some(2.1), &late[..2]).render();
    let (status, response) = client.request("POST", "/v1/measurements", &recreate);
    assert_eq!(
        (status, response.as_str()),
        (200, r#"{"series":"ttl-demo","version":2,"points":2}"#)
    );
    let (status, detail) = client.request("GET", "/v1/series/ttl-demo", "");
    assert_eq!(status, 200);
    let detail = Json::parse(&detail).unwrap();
    let stored = wire::measurement_set_from_json(detail.get("measurements").unwrap()).unwrap();
    assert_eq!(stored.core_counts(), [4, 5]);

    handle.shutdown();
}

#[test]
fn reads_do_not_serve_a_series_the_ttl_has_expired() {
    let handle = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        reactor_threads: 1,
        ttl_secs: 1,
        ..ServerConfig::default()
    })
    .expect("bind loopback server")
    .spawn()
    .expect("spawn server reactors");
    let mut client = Client::connect(handle.addr());
    let session = EstimaSession::with_store(
        EstimaConfig::default().with_parallelism(1),
        std::sync::Arc::new(FitCache::new()),
        MeasurementStore::new()
            .with_limits(StoreLimits::new().with_ttl(std::time::Duration::from_secs(1))),
    );
    let id = SeriesId::new("ttl-read").unwrap();
    let set = quickstart_sized_set("ttl-read");
    let body = wire::ingest_request_to_json(&id, Some(2.1), &set.measurements()[..3]).render();
    let (status, response) = client.request("POST", "/v1/measurements", &body);
    assert_eq!(
        (status, response.as_str()),
        (200, r#"{"series":"ttl-read","version":2,"points":3}"#)
    );
    session.ingest_set(&id, &set).unwrap();

    std::thread::sleep(std::time::Duration::from_millis(1200));

    // No write runs in between: each read sweeps the expired series itself.
    let code = |body: &str| {
        Json::parse(body)
            .unwrap()
            .get("error")
            .and_then(|error| error.get("code"))
            .and_then(Json::as_str)
            .map(str::to_string)
    };
    let (status, body) = client.request("GET", "/v1/series/ttl-read", "");
    assert_eq!(status, 404, "{body}");
    assert_eq!(code(&body).as_deref(), Some("series_not_found"));
    let (status, body) = client.request("POST", "/v1/series/ttl-read/predict", r#"{"cores":48}"#);
    assert_eq!(status, 404, "{body}");
    assert_eq!(code(&body).as_deref(), Some("series_not_found"));
    let (status, body) = client.request("GET", "/v1/series", "");
    assert_eq!((status, body.as_str()), (200, r#"{"series":[],"count":0}"#));
    let (status, body) = client.request("DELETE", "/v1/series/ttl-read", "");
    assert_eq!(status, 404, "{body}");
    assert_eq!(code(&body).as_deref(), Some("series_not_found"));
    assert!(matches!(
        session.predict(&id, &TargetSpec::cores(48)),
        Err(EstimaError::SeriesNotFound { .. })
    ));
    assert!(session.snapshot(&id).is_none());

    handle.shutdown();
}

/// Seed a quickstart-sized series over HTTP and return the equivalent set.
fn seed_series(client: &mut Client, name: &str) -> MeasurementSet {
    let set = quickstart_sized_set(name);
    let body = wire::ingest_request_to_json(
        &SeriesId::new(name).unwrap(),
        Some(set.frequency_ghz),
        set.measurements(),
    )
    .render();
    let (status, response) = client.request("POST", "/v1/measurements", &body);
    assert_eq!(status, 200, "{response}");
    set
}

#[test]
fn default_predict_bytes_are_unchanged_by_the_plan_subsystem() {
    let handle = spawn_server();
    let mut client = Client::connect(handle.addr());

    let set = seed_series(&mut client, "pinned");
    let target = TargetSpec::cores(48);

    // The pre-flags wire pin: a bare-TargetSpec body serves exactly
    // `write_prediction` of the in-process prediction — no `confidence`
    // or `bottleneck` key anywhere.
    let reference = BatchPredictor::new(EstimaConfig::default().with_parallelism(1))
        .predict(&set, &target)
        .unwrap();
    let mut expected = String::new();
    wire::write_prediction(&reference, &mut expected);
    let bare = wire::target_spec_to_json(&target).render();
    let (status, plain) = client.request("POST", "/v1/series/pinned/predict", &bare);
    assert_eq!(status, 200, "{plain}");
    assert_eq!(
        plain, expected,
        "default series predict drifted from the pre-flags bytes"
    );
    assert!(!plain.contains("\"confidence\""));
    assert!(!plain.contains("\"bottleneck\""));

    // Explicit `false` flags cost a slower parse but the same bytes.
    let (status, explicit) = client.request(
        "POST",
        "/v1/series/pinned/predict",
        r#"{"cores":48,"confidence":false,"diagnosis":false}"#,
    );
    assert_eq!(status, 200, "{explicit}");
    assert_eq!(explicit, plain);

    handle.shutdown();
}

#[test]
fn predict_confidence_and_diagnosis_opt_in_over_http() {
    let handle = spawn_server();
    let mut client = Client::connect(handle.addr());

    let set = seed_series(&mut client, "uncertain");
    let target = TargetSpec::cores(48);

    let (status, served) = client.request(
        "POST",
        "/v1/series/uncertain/predict",
        r#"{"cores":48,"confidence":true,"diagnosis":true}"#,
    );
    assert_eq!(status, 200, "{served}");

    // Byte-identical to the in-process planner + diagnosis path (jackknife
    // intervals are parallelism-invariant, so parallelism 1 is a valid
    // reference for any server parallelism).
    let estima = Estima::new(EstimaConfig::default().with_parallelism(1));
    let (prediction, _) = Planner::new(&estima).confidence(&set, &target).unwrap();
    let diagnosis = BottleneckReport::from_prediction(&prediction, target.cores);
    let mut expected = String::new();
    wire::write_prediction_response(&prediction, Some(&diagnosis), &mut expected);
    assert_eq!(
        served, expected,
        "served confidence+diagnosis differs from the in-process bits"
    );

    // The interval brackets the point prediction and is well-formed.
    let decoded = Json::parse(&served).unwrap();
    let confidence = decoded.get("confidence").unwrap();
    let lo = confidence.get("lo").and_then(Json::as_f64).unwrap();
    let hi = confidence.get("hi").and_then(Json::as_f64).unwrap();
    let spread = confidence.get("spread").and_then(Json::as_f64).unwrap();
    let point = prediction.predicted_time_at(48).unwrap();
    assert!(lo <= point && point <= hi, "{lo} <= {point} <= {hi}");
    assert_eq!(spread.to_bits(), (hi - lo).to_bits());
    let bottleneck = decoded.get("bottleneck").unwrap();
    assert_eq!(bottleneck.get("at_cores").and_then(Json::as_u64), Some(48));
    assert!(bottleneck.get("dominant").and_then(Json::as_str).is_some());

    handle.shutdown();
}

#[test]
fn plan_roundtrip_is_byte_identical_to_in_process() {
    let handle = spawn_server();
    let mut client = Client::connect(handle.addr());

    let set = seed_series(&mut client, "planned");
    let target = TargetSpec::cores(48);
    let bare = wire::target_spec_to_json(&target).render();

    let (status, served) = client.request("POST", "/v1/series/planned/plan", &bare);
    assert_eq!(status, 200, "{served}");

    let estima = Estima::new(EstimaConfig::default().with_parallelism(1));
    let plan = Planner::new(&estima)
        .plan(&set, &target, estima_core::plan::DEFAULT_SUGGESTIONS)
        .unwrap();
    let mut expected = String::new();
    wire::write_plan(&plan, &mut expected);
    assert_eq!(served, expected, "served plan differs from in-process bits");

    // Shape checks on the served body.
    let decoded = Json::parse(&served).unwrap();
    assert_eq!(
        decoded.get("app_name").and_then(Json::as_str),
        Some("planned")
    );
    let suggestions = decoded.get("suggestions").unwrap().as_array().unwrap();
    assert!(!suggestions.is_empty());
    for suggestion in suggestions {
        assert!(suggestion.get("cores").and_then(Json::as_u64).is_some());
        assert!(!suggestion
            .get("rationale")
            .and_then(Json::as_str)
            .unwrap()
            .is_empty());
    }

    // A bounded `suggestions` count truncates the ranked list.
    let (status, one) = client.request(
        "POST",
        "/v1/series/planned/plan",
        r#"{"cores":48,"suggestions":1}"#,
    );
    assert_eq!(status, 200, "{one}");
    let one = Json::parse(&one).unwrap();
    assert_eq!(one.get("suggestions").unwrap().as_array().unwrap().len(), 1);

    handle.shutdown();
}

#[test]
fn plan_error_codes_match_the_documented_semantics() {
    let handle = spawn_server();
    let mut client = Client::connect(handle.addr());
    let code = |body: &str| {
        Json::parse(body)
            .unwrap()
            .get("error")
            .unwrap()
            .get("code")
            .and_then(Json::as_str)
            .map(str::to_string)
    };
    let bare = wire::target_spec_to_json(&TargetSpec::cores(48)).render();

    // Unknown series: 404, same code as predict.
    let (status, body) = client.request("POST", "/v1/series/ghost/plan", &bare);
    assert_eq!(status, 404);
    assert_eq!(code(&body).as_deref(), Some("series_not_found"));

    // Wrong method: 405 with the POST allow set.
    let (status, body) = client.request("GET", "/v1/series/ghost/plan", "");
    assert_eq!(status, 405);
    assert_eq!(code(&body).as_deref(), Some("method_not_allowed"));

    // A series with exactly `min_measurements` points predicts fine but is
    // too short to jackknife: plan and confidence-predict both 422, while
    // the default predict still answers 200.
    let full = quickstart_sized_set("edge");
    let thin: Vec<Measurement> = full.measurements()[..4].to_vec();
    let ingest = wire::ingest_request_to_json(
        &SeriesId::new("edge").unwrap(),
        Some(full.frequency_ghz),
        &thin,
    )
    .render();
    let (status, _) = client.request("POST", "/v1/measurements", &ingest);
    assert_eq!(status, 200);
    let (status, response) = client.request("POST", "/v1/series/edge/predict", &bare);
    assert_eq!(status, 200, "{response}");
    let (status, body) = client.request("POST", "/v1/series/edge/plan", &bare);
    assert_eq!(status, 422, "{body}");
    assert_eq!(code(&body).as_deref(), Some("prediction_failed"));
    let (status, body) = client.request(
        "POST",
        "/v1/series/edge/predict",
        r#"{"cores":48,"confidence":true}"#,
    );
    assert_eq!(status, 422, "{body}");
    assert_eq!(code(&body).as_deref(), Some("prediction_failed"));

    // Malformed opt-ins: 400 bad_request.
    let (status, body) = client.request(
        "POST",
        "/v1/series/edge/predict",
        r#"{"cores":48,"confidence":"yes"}"#,
    );
    assert_eq!(status, 400);
    assert_eq!(code(&body).as_deref(), Some("bad_request"));
    let (status, body) = client.request(
        "POST",
        "/v1/series/edge/plan",
        r#"{"cores":48,"suggestions":0}"#,
    );
    assert_eq!(status, 400);
    assert_eq!(code(&body).as_deref(), Some("bad_request"));
    let (status, body) = client.request(
        "POST",
        "/v1/series/edge/plan",
        r#"{"cores":48,"suggestions":9}"#,
    );
    assert_eq!(status, 400);
    assert_eq!(code(&body).as_deref(), Some("bad_request"));

    handle.shutdown();
}

#[test]
fn ingesting_the_top_plan_suggestion_shrinks_the_served_interval() {
    let handle = spawn_server();
    let mut client = Client::connect(handle.addr());

    // Seed a 10-point series with a deterministic wobble (a perfectly
    // analytic law fits exactly and the interval collapses to zero).
    let series = SeriesId::new("adaptive").unwrap();
    let law = |cores: u32| -> Measurement {
        let n = f64::from(cores);
        let wobble = 1.0 + 0.02 * (((cores * 7) % 5) as f64 - 2.0);
        let time = (50.0 / n + 1.0) * wobble;
        Measurement::new(cores, time)
            .with_stall(StallCategory::backend("rob_full"), 4.0e8 * n * time * 0.7)
            .with_stall(StallCategory::backend("ls_full"), 4.0e8 * n * time * 0.3)
    };
    let points: Vec<Measurement> = (1..=10).map(law).collect();
    let ingest = wire::ingest_request_to_json(&series, Some(2.1), &points).render();
    let (status, response) = client.request("POST", "/v1/measurements", &ingest);
    assert_eq!(status, 200, "{response}");

    let bare = wire::target_spec_to_json(&TargetSpec::cores(32)).render();
    let (status, planned) = client.request("POST", "/v1/series/adaptive/plan", &bare);
    assert_eq!(status, 200, "{planned}");
    let planned = Json::parse(&planned).unwrap();
    let before = planned
        .get("confidence")
        .unwrap()
        .get("spread")
        .and_then(Json::as_f64)
        .unwrap();
    let top = planned.get("suggestions").unwrap().as_array().unwrap()[0]
        .get("cores")
        .and_then(Json::as_u64)
        .unwrap() as u32;
    assert!(top > 10, "top suggestion {top} should extend the frontier");

    // Take the suggested measurement (following the true law) and re-plan:
    // the served interval must tighten.
    let ingest = wire::ingest_request_to_json(&series, None, &[law(top)]).render();
    let (status, response) = client.request("POST", "/v1/measurements", &ingest);
    assert_eq!(status, 200, "{response}");
    let (status, replanned) = client.request("POST", "/v1/series/adaptive/plan", &bare);
    assert_eq!(status, 200, "{replanned}");
    let after = Json::parse(&replanned)
        .unwrap()
        .get("confidence")
        .unwrap()
        .get("spread")
        .and_then(Json::as_f64)
        .unwrap();
    assert!(
        after < before,
        "ingesting the top suggestion did not shrink the interval ({before} -> {after})"
    );

    handle.shutdown();
}

#[test]
fn concurrent_clients_are_served_in_parallel_workers() {
    let handle = spawn_server();
    let addr = handle.addr();
    let body = std::sync::Arc::new(
        wire::predict_request_to_json(&quickstart_sized_set("par"), &TargetSpec::cores(24))
            .render(),
    );
    let mut threads = Vec::new();
    for _ in 0..2 {
        let body = std::sync::Arc::clone(&body);
        threads.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr);
            let mut bodies = Vec::new();
            for _ in 0..3 {
                let (status, response) = client.request("POST", "/v1/predict", &body);
                assert_eq!(status, 200);
                bodies.push(response);
            }
            bodies
        }));
    }
    let all: Vec<Vec<String>> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    // Every response across both connections is the same bytes.
    let reference = &all[0][0];
    for bodies in &all {
        for body in bodies {
            assert_eq!(body, reference);
        }
    }
    handle.shutdown();
}

#[test]
fn shutdown_returns_promptly_with_idle_keepalive_connections_open() {
    let handle = spawn_server();
    let addr = handle.addr();

    // Park several live keep-alive connections: each completes one request
    // and then sits idle. Under the old blocking design these connections
    // pinned their worker threads inside `read()` and shutdown waited out a
    // poll interval; the reactor is woken by an eventfd signal instead and
    // must return as soon as the threads observe it.
    let mut idle_clients = Vec::new();
    for _ in 0..3 {
        let mut client = Client::connect(addr);
        let (status, _) = client.request("GET", "/v1/healthz", "");
        assert_eq!(status, 200);
        idle_clients.push(client);
    }

    let started = std::time::Instant::now();
    handle.shutdown();
    let elapsed = started.elapsed();
    assert!(
        elapsed < std::time::Duration::from_millis(50),
        "shutdown with idle keep-alive connections took {elapsed:?} (>= 50ms)"
    );
    drop(idle_clients);
}
