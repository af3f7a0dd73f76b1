//! Criterion bench: HTTP prediction round-trip latency over loopback.
//!
//! What does the serving layer add on top of the in-process pipeline? One
//! persistent keep-alive connection against an in-process `estima-serve`
//! instance, one `POST /v1/predict` per iteration. The warm case is
//! dominated by HTTP framing + JSON encode/decode (the fit comes from the
//! sharded cache); the in-process baseline from `benches/pipeline.rs`
//! (`predict_12_to_48`) is the number to compare against. The sustained
//! multi-connection view (throughput, p99) comes from the `loadgen` binary.
//!
//! The `wire_encode` group times the response encoder alone, swept over the
//! target core count (a prediction carries about four numbers per target
//! core): `wire_encode/fast/<cores>` is `wire::write_prediction`, and
//! `wire_encode/display/<cores>` the same writer with every number going
//! through `write!("{n}")`, as it did before the JSON number writer. CI
//! gates their ratio at 4096 cores with `check_speedup`.
//!
//! The `warm` group times the two warm reads in process, without HTTP: an
//! `EstimaSession` holds one quickstart-shaped series, and set-up predicts
//! and plans it at 48 cores once, so every iteration is a pure fit-cache
//! hit. `warm/predict` is one series predict; `warm/plan` is one plan,
//! whose jackknives evaluate steps B and C 69 times. Warm, an evaluation
//! re-derives nothing: its four lookups hash and compare their keys in
//! place, its scaling-factor list remembers step C's choice, and a
//! leave-out is the plan's one read of the set minus a row, evaluated in
//! reused scratch.
//!
//! The `cold` group times the fit path in process: `cold/flip_predict`
//! flips the same series' newest (12-core) checkpoint between two values
//! and predicts it, so every iteration refits all four series (three
//! categories and the scaling factor) with every training prefix
//! unchanged, the case the solve memo serves whole.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use estima_core::plan::DEFAULT_SUGGESTIONS;
use estima_core::{
    Estima, EstimaConfig, EstimaSession, Measurement, MeasurementSet, SeriesId, StallCategory,
    TargetSpec,
};
use estima_serve::{wire, Client, Server, ServerConfig};

/// The same quickstart-sized job `loadgen` uses, from the shared harness.
fn job() -> (MeasurementSet, TargetSpec) {
    estima_bench::harness::quickstart_sized_job("bench")
}

fn bench_http_roundtrip(c: &mut Criterion) {
    let handle = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        reactor_threads: 1,
        ..ServerConfig::default()
    })
    .expect("bind bench server")
    .spawn()
    .expect("spawn bench server");

    let (set, target) = job();
    let body = wire::predict_request_to_json(&set, &target).render();
    let mut client = Client::connect(handle.addr()).expect("connect bench client");

    let mut group = c.benchmark_group("serve");
    group.bench_function("predict_roundtrip_warm", |b| {
        b.iter(|| {
            let response = client
                .request("POST", "/v1/predict", &body)
                .expect("bench request");
            assert_eq!(response.status, 200);
            response.body.len()
        })
    });
    group.bench_function("healthz_roundtrip", |b| {
        b.iter(|| {
            let response = client
                .request("GET", "/v1/healthz", "")
                .expect("bench request");
            assert_eq!(response.status, 200);
            response.body.len()
        })
    });
    group.finish();

    drop(client);
    handle.shutdown();

    // A cold fit for contrast: request a fresh series every iteration by
    // perturbing one measurement, so the cache never hits.
    let handle = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        reactor_threads: 1,
        ..ServerConfig::default()
    })
    .expect("bind bench server")
    .spawn()
    .expect("spawn bench server");
    let mut client = Client::connect(handle.addr()).expect("connect bench client");
    let mut group = c.benchmark_group("serve");
    let mut salt = 0u32;
    group.bench_function("predict_roundtrip_cold", |b| {
        b.iter(|| {
            salt += 1;
            let (mut set, target) = job();
            // A parts-per-billion nudge of the 12-core point: the series
            // stays consistent (stalls follow the same law) but its bit
            // pattern is new, so the fit cache can never hit.
            let n = 12.0;
            let time = (50.0 / n + 1.0) * (1.0 + f64::from(salt) * 1e-9);
            set.push(
                Measurement::new(12, time)
                    .with_stall(StallCategory::backend("rob_full"), 4.0e8 * n * time * 0.7)
                    .with_stall(StallCategory::backend("ls_full"), 4.0e8 * n * time * 0.3)
                    .with_stall(StallCategory::software("lock_spin"), 1.0e7 * n * n),
            );
            let body = wire::predict_request_to_json(&set, &target).render();
            let response = client
                .request("POST", "/v1/predict", &body)
                .expect("bench request");
            assert_eq!(response.status, 200);
            response.body.len()
        })
    });
    group.finish();
    drop(client);
    handle.shutdown();
}

/// The response encoder with every number written by `write!("{n}")`, as
/// it was before the JSON number writer: the `wire::write_prediction` path
/// otherwise, appending bytes and checking them as UTF-8 once, so the two
/// differ in their numbers alone. (Predictions here carry no confidence
/// interval or diagnosis, so those branches are left out.)
mod display {
    use std::io::Write as _;

    use estima_core::json::{append_utf8, write_json_string};
    use estima_core::Prediction;

    fn write_json_number(n: f64, out: &mut Vec<u8>) {
        if n.is_finite() {
            let _ = write!(out, "{n}");
        } else {
            out.extend_from_slice(b"null");
        }
    }

    pub fn write_prediction(prediction: &Prediction, out: &mut String) {
        append_utf8(out, |out| prediction_bytes(prediction, out));
    }

    fn prediction_bytes(prediction: &Prediction, out: &mut Vec<u8>) {
        out.extend_from_slice(b"{\"app_name\":");
        write_json_string(&prediction.app_name, out);
        out.extend_from_slice(b",\"measured_cores\":");
        write_json_number(f64::from(prediction.measured_cores), out);
        out.extend_from_slice(b",\"target_cores\":");
        write_json_number(f64::from(prediction.target_cores), out);
        out.extend_from_slice(b",\"predicted_scaling_limit\":");
        write_json_number(f64::from(prediction.predicted_scaling_limit()), out);
        out.extend_from_slice(b",\"factor_correlation\":");
        write_json_number(prediction.factor_correlation, out);
        out.extend_from_slice(b",\"scaling_factor_kernel\":");
        write_json_string(prediction.scaling_factor.kernel.name(), out);
        out.extend_from_slice(b",\"predicted_time\":");
        write_series(&prediction.predicted_time, out);
        out.extend_from_slice(b",\"stalls_per_core\":");
        write_series(&prediction.stalls_per_core, out);
        out.extend_from_slice(b",\"measured_time\":");
        write_series(&prediction.measured_time, out);
        out.extend_from_slice(b",\"categories\":[");
        for (index, extrapolation) in prediction.categories.iter().enumerate() {
            if index > 0 {
                out.push(b',');
            }
            out.extend_from_slice(b"{\"source\":");
            write_json_string(extrapolation.category.source.name(), out);
            out.extend_from_slice(b",\"name\":");
            write_json_string(&extrapolation.category.name, out);
            out.extend_from_slice(b",\"kernel\":");
            write_json_string(extrapolation.curve.kernel.name(), out);
            out.extend_from_slice(b",\"params\":[");
            for (pindex, param) in extrapolation.curve.params.iter().enumerate() {
                if pindex > 0 {
                    out.push(b',');
                }
                write_json_number(*param, out);
            }
            out.extend_from_slice(b"],\"extrapolated_at_target\":");
            write_json_number(
                extrapolation
                    .at(prediction.target_cores)
                    .unwrap_or(f64::NAN),
                out,
            );
            out.push(b'}');
        }
        out.push(b']');
        out.push(b'}');
    }

    fn write_series(series: &[(u32, f64)], out: &mut Vec<u8>) {
        out.push(b'[');
        for (index, (cores, value)) in series.iter().enumerate() {
            if index > 0 {
                out.push(b',');
            }
            out.push(b'[');
            write_json_number(f64::from(*cores), out);
            out.push(b',');
            write_json_number(*value, out);
            out.push(b']');
        }
        out.push(b']');
    }
}

fn bench_wire_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_encode");
    for cores in [48, 512, 4096] {
        let (set, _) = job();
        let prediction = Estima::new(EstimaConfig::default())
            .predict(&set, &TargetSpec::cores(cores))
            .expect("bench prediction");
        let (mut fast, mut baseline) = (String::new(), String::new());
        wire::write_prediction(&prediction, &mut fast);
        display::write_prediction(&prediction, &mut baseline);
        assert_eq!(fast, baseline, "the baseline must write the same bytes");
        group.bench_with_input(BenchmarkId::new("fast", cores), &prediction, |b, p| {
            let mut out = String::with_capacity(fast.len());
            b.iter(|| {
                out.clear();
                wire::write_prediction(p, &mut out);
                out.len()
            })
        });
        group.bench_with_input(BenchmarkId::new("display", cores), &prediction, |b, p| {
            let mut out = String::with_capacity(fast.len());
            b.iter(|| {
                out.clear();
                display::write_prediction(p, &mut out);
                out.len()
            })
        });
    }
    group.finish();
}

fn bench_warm(c: &mut Criterion) {
    let (set, target) = job();
    let session = EstimaSession::new(EstimaConfig::default().with_parallelism(1));
    let id = SeriesId::new("bench.warm").expect("series id");
    session.ingest_set(&id, &set).expect("bench ingest");
    session.predict(&id, &target).expect("warm-up predict");
    session
        .plan(&id, &target, DEFAULT_SUGGESTIONS)
        .expect("warm-up plan");
    let mut group = c.benchmark_group("warm");
    group.bench_function("predict", |b| {
        b.iter(|| {
            let prediction = session.predict(&id, &target).expect("warm predict");
            prediction.predicted_time.len()
        })
    });
    group.bench_function("plan", |b| {
        b.iter(|| {
            let plan = session
                .plan(&id, &target, DEFAULT_SUGGESTIONS)
                .expect("warm plan");
            plan.suggestions.len()
        })
    });
    group.finish();
}

fn bench_cold(c: &mut Criterion) {
    let (set, target) = job();
    let session = EstimaSession::new(EstimaConfig::default().with_parallelism(1));
    let id = SeriesId::new("bench.cold").expect("series id");
    session.ingest_set(&id, &set).expect("bench ingest");
    session.predict(&id, &target).expect("cold-up predict");
    let newest = set.measurements().last().expect("bench point").clone();
    let mut flipped = newest.clone();
    flipped.exec_time *= 1.1;
    flipped
        .stalls
        .values_mut()
        .for_each(|cycles| *cycles *= 1.1);
    let points = [newest, flipped];
    let mut flip = 0;
    let mut group = c.benchmark_group("cold");
    group.bench_function("flip_predict", |b| {
        b.iter(|| {
            flip ^= 1;
            session
                .ingest(&id, points[flip].clone())
                .expect("flip ingest");
            let prediction = session.predict(&id, &target).expect("cold predict");
            prediction.predicted_time.len()
        })
    });
    group.finish();
}

criterion_group!(
    serve_benches,
    bench_http_roundtrip,
    bench_wire_encode,
    bench_warm,
    bench_cold
);
criterion_main!(serve_benches);
