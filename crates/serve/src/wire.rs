//! The JSON wire format of the prediction service.
//!
//! This module is the single authority for encoding and decoding the
//! request/response bodies of every endpoint, built on
//! [`estima_core::json`]. The full field-by-field specification — with
//! tables, examples and error-code semantics — lives in DESIGN.md
//! § *Serving layer*; the code here is the normative implementation.
//!
//! Every object has one encoder and one decoder. Responses are written
//! straight into the connection's body buffer by the `write_*` functions,
//! which are their only encoders. Request objects have a `*_to_json`
//! encoder (for clients) and a `*_from_json` decoder over the parsed
//! [`Json`] tree, the source of every `400` message; a `decode_*` function
//! is just [`Json::parse`] followed by that decoder, for callers holding
//! the body text. A measurement point is encoded and decoded by
//! [`Measurement::to_json`] and [`Measurement::from_json`], which the
//! write-ahead log shares.
//!
//! # Fidelity
//!
//! Every `f64` is written by [`write_json_number`] (shortest round trip),
//! so it parses back to the exact bit pattern the predictor produced:
//! predictions served over HTTP are byte-identical to in-process
//! [`estima_core::BatchPredictor`] results (pinned by
//! `tests/server_roundtrip.rs` and the `loadgen` harness). Every count
//! (core counts, `retry_after_ms`) is written by [`write_json_uint`], the
//! same digits without the float path. Each public `write_*` function is
//! one [`append_utf8`] call around a private byte writer, and nested
//! objects call the byte writers, so a body is checked as UTF-8 once.

use estima_core::json::{
    append_utf8, require, require_f64, require_str, require_u32, write_json_number,
    write_json_string, write_json_uint, Json,
};
use estima_core::store::{SeriesInfo, SeriesSnapshot};
use estima_core::{
    BottleneckReport, ConfidenceInterval, EstimaError, Measurement, MeasurementPlan,
    MeasurementSet, Prediction, SeriesId, TargetSpec,
};

/// A wire-level decoding failure: the body was valid-ish JSON but not a
/// valid request. Maps to `400 bad_request`.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for WireError {}

impl From<String> for WireError {
    fn from(message: String) -> WireError {
        WireError(message)
    }
}

fn err(message: impl Into<String>) -> WireError {
    WireError(message.into())
}

/// Decode a `MeasurementSet` from its wire object (see DESIGN.md for the
/// field table).
pub fn measurement_set_from_json(value: &Json) -> Result<MeasurementSet, WireError> {
    let context = &"measurements";
    let app_name = require_str(value, "app_name", context)?;
    let frequency_ghz = require_f64(value, "frequency_ghz", context)?;
    let mut set = MeasurementSet::new(app_name, frequency_ghz);
    let points = require(value, "points", context)?
        .as_array()
        .ok_or_else(|| err("measurements: field `points` must be an array"))?;
    for (index, point) in points.iter().enumerate() {
        set.push(Measurement::from_json(
            point,
            &format_args!("measurements.points[{index}]"),
        )?);
    }
    Ok(set)
}

/// Encode a `MeasurementSet` as its wire object. Inverse of
/// [`measurement_set_from_json`]; used by clients (`loadgen`, tests) to
/// build request bodies.
pub fn measurement_set_to_json(set: &MeasurementSet) -> Json {
    Json::Object(vec![
        ("app_name".to_string(), Json::String(set.app_name.clone())),
        ("frequency_ghz".to_string(), Json::Number(set.frequency_ghz)),
        (
            "points".to_string(),
            Json::Array(
                set.measurements()
                    .iter()
                    .map(Measurement::to_json)
                    .collect(),
            ),
        ),
    ])
}

/// Decode a `TargetSpec` from its wire object.
pub fn target_spec_from_json(value: &Json) -> Result<TargetSpec, WireError> {
    let mut spec = TargetSpec::cores(require_u32(value, "cores", &"target")?);
    if let Some(freq) = value.get("frequency_ghz") {
        let ghz = freq
            .as_f64()
            .ok_or_else(|| err("target: field `frequency_ghz` must be a number"))?;
        spec = spec.with_frequency_ghz(ghz);
    }
    if let Some(scale) = value.get("dataset_scale") {
        let scale = scale
            .as_f64()
            .ok_or_else(|| err("target: field `dataset_scale` must be a number"))?;
        spec = spec.with_dataset_scale(scale);
    }
    Ok(spec)
}

/// Encode a `TargetSpec` as its wire object.
pub fn target_spec_to_json(spec: &TargetSpec) -> Json {
    let mut fields = vec![("cores".to_string(), Json::Number(f64::from(spec.cores)))];
    if let Some(ghz) = spec.frequency_ghz {
        fields.push(("frequency_ghz".to_string(), Json::Number(ghz)));
    }
    fields.push((
        "dataset_scale".to_string(),
        Json::Number(spec.dataset_scale),
    ));
    Json::Object(fields)
}

/// Decode one `/v1/predict` request body: a `measurements` object and a
/// `target` object.
pub fn predict_request_from_json(value: &Json) -> Result<(MeasurementSet, TargetSpec), WireError> {
    let set = measurement_set_from_json(require(value, "measurements", &"request")?)?;
    let target = target_spec_from_json(require(value, "target", &"request")?)?;
    Ok((set, target))
}

/// Encode a `/v1/predict` request body. Inverse of
/// [`predict_request_from_json`].
pub fn predict_request_to_json(set: &MeasurementSet, target: &TargetSpec) -> Json {
    Json::Object(vec![
        ("measurements".to_string(), measurement_set_to_json(set)),
        ("target".to_string(), target_spec_to_json(target)),
    ])
}

/// Decode a `/v1/batch` request body: a `jobs` array of predict requests.
pub fn batch_request_from_json(
    value: &Json,
) -> Result<Vec<(MeasurementSet, TargetSpec)>, WireError> {
    let jobs = require(value, "jobs", &"request")?
        .as_array()
        .ok_or_else(|| err("request: field `jobs` must be an array"))?;
    jobs.iter()
        .enumerate()
        .map(|(index, job)| {
            predict_request_from_json(job).map_err(|e| err(format!("jobs[{index}]: {e}")))
        })
        .collect()
}

/// Decode a series of `[cores, value]` pairs (the encoding of
/// `predicted_time`, `stalls_per_core` and `measured_time`).
pub fn series_from_json(value: &Json) -> Result<Vec<(u32, f64)>, WireError> {
    value
        .as_array()
        .ok_or_else(|| err("series must be an array"))?
        .iter()
        .map(|pair| {
            let pair = pair
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| err("series entries must be [cores, value] pairs"))?;
            let cores = pair[0]
                .as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| err("series cores must be an integer"))?;
            let value = pair[1]
                .as_f64()
                .ok_or_else(|| err("series value must be a number"))?;
            Ok((cores, value))
        })
        .collect()
}

/// Write a `Prediction` as its wire object (the `/v1/predict` response
/// body, and each successful job of a `/v1/batch` response) into `out`.
/// Like every response writer here, it appends straight into the
/// connection's reusable body buffer, with no intermediate [`Json`] tree.
pub fn write_prediction(prediction: &Prediction, out: &mut String) {
    write_prediction_response(prediction, None, out);
}

/// [`write_prediction`] with the opt-in extras of `POST
/// /v1/series/{id}/predict`: a `confidence` object when the prediction
/// carries one, then a `bottleneck` object when `diagnosis` is given.
/// Without either this writes exactly [`write_prediction`]'s bytes.
pub fn write_prediction_response(
    prediction: &Prediction,
    diagnosis: Option<&BottleneckReport>,
    out: &mut String,
) {
    append_utf8(out, |out| prediction_bytes(prediction, diagnosis, out));
}

/// The byte writer behind [`write_prediction_response`].
fn prediction_bytes(
    prediction: &Prediction,
    diagnosis: Option<&BottleneckReport>,
    out: &mut Vec<u8>,
) {
    out.extend_from_slice(b"{\"app_name\":");
    write_json_string(&prediction.app_name, out);
    out.extend_from_slice(b",\"measured_cores\":");
    write_json_uint(u64::from(prediction.measured_cores), out);
    out.extend_from_slice(b",\"target_cores\":");
    write_json_uint(u64::from(prediction.target_cores), out);
    out.extend_from_slice(b",\"predicted_scaling_limit\":");
    write_json_uint(u64::from(prediction.predicted_scaling_limit()), out);
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
    if let Some(interval) = &prediction.confidence {
        out.extend_from_slice(b",\"confidence\":");
        write_confidence(interval, out);
    }
    if let Some(report) = diagnosis {
        out.extend_from_slice(b",\"bottleneck\":");
        write_bottleneck_report(report, out);
    }
    out.push(b'}');
}

/// Write a jackknife confidence interval as `{"lo","hi","spread"}`.
fn write_confidence(interval: &ConfidenceInterval, out: &mut Vec<u8>) {
    out.extend_from_slice(b"{\"lo\":");
    write_json_number(interval.lo, out);
    out.extend_from_slice(b",\"hi\":");
    write_json_number(interval.hi, out);
    out.extend_from_slice(b",\"spread\":");
    write_json_number(interval.spread, out);
    out.push(b'}');
}

/// Write a bottleneck report: the core count it was analysed at, the
/// dominant category (`null` when the report is empty), and every entry in
/// the report's order (descending share). A category is written as its
/// `tag:name` label.
fn write_bottleneck_report(report: &BottleneckReport, out: &mut Vec<u8>) {
    out.extend_from_slice(b"{\"at_cores\":");
    write_json_uint(u64::from(report.at_cores), out);
    out.extend_from_slice(b",\"dominant\":");
    match report.dominant() {
        Some(entry) => entry.category.write_json_label(out),
        None => out.extend_from_slice(b"null"),
    }
    out.extend_from_slice(b",\"entries\":[");
    for (index, entry) in report.entries.iter().enumerate() {
        if index > 0 {
            out.push(b',');
        }
        out.extend_from_slice(b"{\"category\":");
        entry.category.write_json_label(out);
        out.extend_from_slice(b",\"predicted_cycles\":");
        write_json_number(entry.predicted_cycles, out);
        out.extend_from_slice(b",\"share\":");
        write_json_number(entry.share, out);
        out.extend_from_slice(b",\"growth_factor\":");
        write_json_number(entry.growth_factor, out);
        out.push(b'}');
    }
    out.extend_from_slice(b"]}");
}

/// Write a measurement plan as the `POST /v1/series/{id}/plan` response
/// body.
pub fn write_plan(plan: &MeasurementPlan, out: &mut String) {
    append_utf8(out, |out| plan_bytes(plan, out));
}

/// The byte writer behind [`write_plan`].
fn plan_bytes(plan: &MeasurementPlan, out: &mut Vec<u8>) {
    out.extend_from_slice(b"{\"app_name\":");
    write_json_string(&plan.app_name, out);
    out.extend_from_slice(b",\"measured_cores\":");
    write_json_uint(u64::from(plan.measured_cores), out);
    out.extend_from_slice(b",\"target_cores\":");
    write_json_uint(u64::from(plan.target_cores), out);
    out.extend_from_slice(b",\"confidence\":");
    write_confidence(&plan.confidence, out);
    out.extend_from_slice(b",\"bottleneck\":");
    write_bottleneck_report(&plan.bottleneck, out);
    out.extend_from_slice(b",\"suggestions\":[");
    for (index, suggestion) in plan.suggestions.iter().enumerate() {
        if index > 0 {
            out.push(b',');
        }
        out.extend_from_slice(b"{\"cores\":");
        write_json_uint(u64::from(suggestion.cores), out);
        out.extend_from_slice(b",\"expected_spread\":");
        write_json_number(suggestion.expected_spread, out);
        out.extend_from_slice(b",\"expected_reduction\":");
        write_json_number(suggestion.expected_reduction, out);
        out.extend_from_slice(b",\"rationale\":");
        write_json_string(&suggestion.rationale, out);
        out.push(b'}');
    }
    out.extend_from_slice(b"]}");
}

/// Write a `(cores, value)` series as `[[cores, value], ...]` (the encoding
/// of `predicted_time`, `stalls_per_core` and `measured_time`).
fn write_series(series: &[(u32, f64)], out: &mut Vec<u8>) {
    out.push(b'[');
    for (index, (cores, value)) in series.iter().enumerate() {
        if index > 0 {
            out.push(b',');
        }
        out.push(b'[');
        write_json_uint(u64::from(*cores), out);
        out.push(b',');
        write_json_number(*value, out);
        out.push(b']');
    }
    out.push(b']');
}

/// Write a wire error body: `{"error": {"code": ..., "message": ...}}`.
pub fn write_error(code: &str, message: &str, out: &mut String) {
    append_utf8(out, |out| error_bytes(code, message, None, out));
}

/// The byte writer behind [`write_error`] and, with a `retry_after_ms`,
/// [`write_retry_error`].
fn error_bytes(code: &str, message: &str, retry_after_ms: Option<u64>, out: &mut Vec<u8>) {
    out.extend_from_slice(b"{\"error\":{\"code\":");
    write_json_string(code, out);
    out.extend_from_slice(b",\"message\":");
    write_json_string(message, out);
    if let Some(retry_after_ms) = retry_after_ms {
        out.extend_from_slice(b",\"retry_after_ms\":");
        write_json_uint(retry_after_ms, out);
    }
    out.extend_from_slice(b"}}");
}

/// Write the `/v1/batch` response body: `{"results": [...]}` with one entry
/// per job, in job order. A successful job is `{"prediction": ...}`; a
/// failed one is the error body with code `prediction_failed` and the
/// pipeline error's text.
pub fn write_batch_results(results: &[Result<Prediction, EstimaError>], out: &mut String) {
    append_utf8(out, |out| batch_bytes(results, out));
}

/// The byte writer behind [`write_batch_results`].
fn batch_bytes(results: &[Result<Prediction, EstimaError>], out: &mut Vec<u8>) {
    out.extend_from_slice(b"{\"results\":[");
    for (index, result) in results.iter().enumerate() {
        if index > 0 {
            out.push(b',');
        }
        match result {
            Ok(prediction) => {
                out.extend_from_slice(b"{\"prediction\":");
                prediction_bytes(prediction, None, out);
                out.push(b'}');
            }
            Err(e) => error_bytes("prediction_failed", &e.to_string(), None, out),
        }
    }
    out.extend_from_slice(b"]}");
}

/// A decoded `POST /v1/measurements` request: which series to append to,
/// the measurement-machine frequency (required to create a series, verified
/// against the stored one otherwise), and the points to append.
#[derive(Debug, Clone, PartialEq)]
pub struct IngestRequest {
    /// Target series id.
    pub series: SeriesId,
    /// Clock frequency of the measurements machine in GHz, when supplied.
    pub frequency_ghz: Option<f64>,
    /// Measurements to append, in arrival order.
    pub points: Vec<Measurement>,
}

/// Decode a `POST /v1/measurements` body.
pub fn ingest_request_from_json(value: &Json) -> Result<IngestRequest, WireError> {
    let context = &"request";
    let series = SeriesId::new(require_str(value, "series", context)?)
        .map_err(|e| err(format!("{context}: {e}")))?;
    let frequency_ghz = match value.get("frequency_ghz") {
        Some(freq) => {
            let ghz = freq
                .as_f64()
                .ok_or_else(|| err("request: field `frequency_ghz` must be a number"))?;
            // Rejected here (400 bad_request) rather than by the store
            // (which would read as a pipeline failure): a non-positive
            // clock is malformed input, not an unpredictable series.
            if !ghz.is_finite() || ghz <= 0.0 {
                return Err(err(
                    "request: field `frequency_ghz` must be positive and finite",
                ));
            }
            Some(ghz)
        }
        None => None,
    };
    let points = require(value, "points", context)?
        .as_array()
        .ok_or_else(|| err("request: field `points` must be an array"))?
        .iter()
        .enumerate()
        .map(|(index, point)| Measurement::from_json(point, &format_args!("points[{index}]")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(IngestRequest {
        series,
        frequency_ghz,
        points,
    })
}

/// Opt-in extras on a `POST /v1/series/{id}/predict` body.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictExtras {
    /// Attach a jackknife confidence interval (`"confidence": true`).
    pub confidence: bool,
    /// Attach a bottleneck diagnosis (`"diagnosis": true`).
    pub diagnosis: bool,
}

/// Decode a `POST /v1/series/{id}/predict` body: a `TargetSpec` plus the
/// opt-in [`PredictExtras`] boolean flags (absent means `false`).
pub fn series_predict_request_from_json(
    value: &Json,
) -> Result<(TargetSpec, PredictExtras), WireError> {
    let spec = target_spec_from_json(value)?;
    let extras = PredictExtras {
        confidence: flag(value, "confidence")?,
        diagnosis: flag(value, "diagnosis")?,
    };
    Ok((spec, extras))
}

/// Read an optional boolean flag off a request object.
fn flag(value: &Json, key: &str) -> Result<bool, WireError> {
    match value.get(key) {
        None => Ok(false),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| err(format!("request: field `{key}` must be a boolean"))),
    }
}

/// Most suggestions a plan request may ask for.
pub const MAX_PLAN_SUGGESTIONS: usize = 8;

/// Decode a `POST /v1/series/{id}/plan` body: a `TargetSpec` plus an
/// optional `suggestions` count (`1..=8`, default
/// [`estima_core::plan::DEFAULT_SUGGESTIONS`]).
pub fn plan_request_from_json(value: &Json) -> Result<(TargetSpec, usize), WireError> {
    let spec = target_spec_from_json(value)?;
    let suggestions = match value.get("suggestions") {
        None => estima_core::plan::DEFAULT_SUGGESTIONS,
        Some(v) => v
            .as_u64()
            .and_then(|n| usize::try_from(n).ok())
            .filter(|n| (1..=MAX_PLAN_SUGGESTIONS).contains(n))
            .ok_or_else(|| {
                err(format!(
                    "request: field `suggestions` must be an integer between 1 and {MAX_PLAN_SUGGESTIONS}"
                ))
            })?,
    };
    Ok((spec, suggestions))
}

/// Decode one `/v1/predict` request body from its text: [`Json::parse`],
/// then [`predict_request_from_json`].
pub fn decode_predict_request(text: &str) -> Result<(MeasurementSet, TargetSpec), WireError> {
    predict_request_from_json(&Json::parse(text)?)
}

/// Decode one `POST /v1/measurements` request body from its text:
/// [`Json::parse`], then [`ingest_request_from_json`].
pub fn decode_ingest_request(text: &str) -> Result<IngestRequest, WireError> {
    ingest_request_from_json(&Json::parse(text)?)
}

/// Decode one `POST /v1/series/{id}/predict` request body from its text:
/// [`Json::parse`], then [`series_predict_request_from_json`].
pub fn decode_series_predict_request(text: &str) -> Result<(TargetSpec, PredictExtras), WireError> {
    series_predict_request_from_json(&Json::parse(text)?)
}

/// Decode one `POST /v1/series/{id}/plan` request body from its text:
/// [`Json::parse`], then [`plan_request_from_json`].
pub fn decode_plan_request(text: &str) -> Result<(TargetSpec, usize), WireError> {
    plan_request_from_json(&Json::parse(text)?)
}

/// Encode a `POST /v1/measurements` body. Inverse of
/// [`ingest_request_from_json`]; used by clients (`loadgen`, tests).
pub fn ingest_request_to_json(
    series: &SeriesId,
    frequency_ghz: Option<f64>,
    points: &[Measurement],
) -> Json {
    let mut fields = vec![(
        "series".to_string(),
        Json::String(series.as_str().to_string()),
    )];
    if let Some(ghz) = frequency_ghz {
        fields.push(("frequency_ghz".to_string(), Json::Number(ghz)));
    }
    fields.push((
        "points".to_string(),
        Json::Array(points.iter().map(Measurement::to_json).collect()),
    ));
    Json::Object(fields)
}

/// Encode one series summary (an entry of the `GET /v1/series` response and
/// the header fields of `GET /v1/series/{id}`).
pub fn series_info_to_json(info: &SeriesInfo) -> Json {
    Json::Object(vec![
        (
            "series".to_string(),
            Json::String(info.id.as_str().to_string()),
        ),
        ("version".to_string(), Json::Number(info.version as f64)),
        ("points".to_string(), Json::Number(info.points as f64)),
        (
            "max_cores".to_string(),
            Json::Number(f64::from(info.max_cores)),
        ),
        (
            "frequency_ghz".to_string(),
            Json::Number(info.frequency_ghz),
        ),
    ])
}

/// Encode the `GET /v1/series` response body.
pub fn series_list_to_json(infos: &[SeriesInfo]) -> Json {
    Json::Object(vec![
        (
            "series".to_string(),
            Json::Array(infos.iter().map(series_info_to_json).collect()),
        ),
        ("count".to_string(), Json::Number(infos.len() as f64)),
    ])
}

/// Encode the `GET /v1/series/{id}` response body: the summary fields plus
/// the full measurement set at the snapshot's version.
pub fn series_detail_to_json(snapshot: &SeriesSnapshot) -> Json {
    Json::Object(vec![
        (
            "series".to_string(),
            Json::String(snapshot.id.as_str().to_string()),
        ),
        ("version".to_string(), Json::Number(snapshot.version as f64)),
        (
            "measurements".to_string(),
            measurement_set_to_json(&snapshot.set),
        ),
    ])
}

/// HTTP status and wire error code for a store/pipeline error on the series
/// endpoints: missing series are `404 series_not_found`, contradictory
/// ingests are `409 series_conflict`, invalid ids are `400 bad_request`, and
/// everything else keeps the prediction-pipeline semantics
/// (`422 prediction_failed`).
pub fn estima_error_status(error: &EstimaError) -> (u16, &'static str) {
    match error {
        EstimaError::SeriesNotFound { .. } => (404, "series_not_found"),
        EstimaError::SeriesConflict { .. } => (409, "series_conflict"),
        EstimaError::InvalidSeriesId { .. } => (400, "bad_request"),
        EstimaError::QuotaExceeded { .. } => (429, "quota_exceeded"),
        EstimaError::StorageFailure { .. } => (500, "storage_failure"),
        _ => (422, "prediction_failed"),
    }
}

/// Encode a retryable error body: the standard error object plus a
/// machine-readable `retry_after_ms` hint, mirroring the response's
/// `Retry-After` header at millisecond precision. Shared by the
/// `429 quota_exceeded` degradation path and the router's
/// `503 shard_unavailable` response.
pub fn write_retry_error(code: &str, message: &str, retry_after_ms: u64, out: &mut String) {
    append_utf8(out, |out| {
        error_bytes(code, message, Some(retry_after_ms), out);
    });
}

/// Encode the `429 quota_exceeded` error body (see [`write_retry_error`]).
pub fn write_quota_error(message: &str, retry_after_ms: u64, out: &mut String) {
    write_retry_error("quota_exceeded", message, retry_after_ms, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use estima_core::{Estima, EstimaConfig, StallCategory, StallSource};

    fn demo_set() -> MeasurementSet {
        let mut set = MeasurementSet::new("wire-demo", 2.1);
        for cores in 1..=8u32 {
            let n = f64::from(cores);
            set.push(
                Measurement::new(cores, 20.0 / n + 0.5)
                    .with_stall(
                        StallCategory::backend("rob_full"),
                        1.0e9 * (1.0 + 0.1 * n * n),
                    )
                    .with_stall(StallCategory::software("lock_spin"), 1.0e7 * n)
                    .with_memory_footprint(1 << 20),
            );
        }
        set
    }

    #[test]
    fn quota_error_body_carries_the_retry_hint() {
        let mut out = String::new();
        write_quota_error("tenant `acme` quota exceeded", 1500, &mut out);
        let parsed = Json::parse(&out).unwrap();
        let error = parsed.get("error").unwrap();
        assert_eq!(
            error.get("code").and_then(Json::as_str),
            Some("quota_exceeded")
        );
        assert_eq!(
            error.get("retry_after_ms").and_then(Json::as_u64),
            Some(1500)
        );
        assert_eq!(
            estima_error_status(&EstimaError::QuotaExceeded {
                tenant: "acme".into(),
                detail: "series quota".into(),
                retry_after_ms: 1500,
            }),
            (429, "quota_exceeded")
        );
        assert_eq!(
            estima_error_status(&EstimaError::StorageFailure {
                detail: "disk".into(),
            }),
            (500, "storage_failure")
        );
    }

    #[test]
    fn measurement_set_round_trips_exactly() {
        let set = demo_set();
        let encoded = measurement_set_to_json(&set).render();
        let decoded = measurement_set_from_json(&Json::parse(&encoded).unwrap()).unwrap();
        assert_eq!(decoded, set);
    }

    #[test]
    fn target_spec_round_trips_with_and_without_options() {
        for spec in [
            TargetSpec::cores(48),
            TargetSpec::cores(32)
                .with_frequency_ghz(2.8)
                .with_dataset_scale(2.0),
        ] {
            let encoded = target_spec_to_json(&spec).render();
            let decoded = target_spec_from_json(&Json::parse(&encoded).unwrap()).unwrap();
            assert_eq!(decoded, spec);
        }
    }

    #[test]
    fn predict_request_round_trips() {
        let set = demo_set();
        let target = TargetSpec::cores(48);
        let body = predict_request_to_json(&set, &target).render();
        let (set2, target2) = decode_predict_request(&body).unwrap();
        assert_eq!(set2, set);
        assert_eq!(target2, target);
    }

    #[test]
    fn prediction_series_survive_encoding_bit_for_bit() {
        let prediction = Estima::new(EstimaConfig::default().with_parallelism(1))
            .predict(&demo_set(), &TargetSpec::cores(48))
            .unwrap();
        let mut encoded = String::new();
        write_prediction(&prediction, &mut encoded);
        let decoded = Json::parse(&encoded).unwrap();
        let times = series_from_json(decoded.get("predicted_time").unwrap()).unwrap();
        assert_eq!(times.len(), prediction.predicted_time.len());
        for ((c1, t1), (c2, t2)) in prediction.predicted_time.iter().zip(&times) {
            assert_eq!(c1, c2);
            assert_eq!(t1.to_bits(), t2.to_bits(), "exact f64 round trip");
        }
    }

    #[test]
    fn series_predict_body_decodes_optional_flags() {
        let (spec, extras) = decode_series_predict_request("{\"cores\":32}").unwrap();
        assert_eq!(spec.cores, 32);
        assert_eq!(extras, PredictExtras::default());
        let (spec, extras) =
            decode_series_predict_request("{\"cores\":32,\"confidence\":true,\"diagnosis\":true}")
                .unwrap();
        assert_eq!(spec.cores, 32);
        assert!(extras.confidence && extras.diagnosis);
        let (_, extras) =
            decode_series_predict_request("{\"cores\":32,\"confidence\":false}").unwrap();
        assert!(!extras.confidence && !extras.diagnosis);
        assert!(decode_series_predict_request("{\"cores\":32,\"confidence\":1}").is_err());
    }

    #[test]
    fn plan_request_decodes_and_bounds_suggestions() {
        let (spec, suggestions) = decode_plan_request("{\"cores\":32}").unwrap();
        assert_eq!(spec.cores, 32);
        assert_eq!(suggestions, estima_core::plan::DEFAULT_SUGGESTIONS);
        let (_, suggestions) = decode_plan_request("{\"cores\":32,\"suggestions\":5}").unwrap();
        assert_eq!(suggestions, 5);
        for bad in [
            "{\"cores\":32,\"suggestions\":0}",
            "{\"cores\":32,\"suggestions\":9}",
            "{\"cores\":32,\"suggestions\":\"many\"}",
        ] {
            assert!(decode_plan_request(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn ingest_request_round_trips() {
        let series = SeriesId::new("demo-1").unwrap();
        let points: Vec<Measurement> = demo_set().measurements().to_vec();
        for frequency in [Some(2.1), None] {
            let encoded = ingest_request_to_json(&series, frequency, &points).render();
            let decoded = decode_ingest_request(&encoded).unwrap();
            assert_eq!(decoded.series, series);
            assert_eq!(decoded.frequency_ghz, frequency);
            assert_eq!(decoded.points, points);
        }
    }

    #[test]
    fn ingest_request_rejects_bad_series_ids() {
        let bad = Json::parse(r#"{"series":"a b","points":[]}"#).unwrap();
        let error = ingest_request_from_json(&bad).unwrap_err();
        assert!(error.0.contains("invalid series id"), "{error}");
        let missing = Json::parse(r#"{"series":"ok"}"#).unwrap();
        assert!(ingest_request_from_json(&missing).is_err());
        let bad_freq = Json::parse(r#"{"series":"ok","frequency_ghz":-1,"points":[]}"#).unwrap();
        let error = ingest_request_from_json(&bad_freq).unwrap_err();
        assert!(error.0.contains("positive and finite"), "{error}");
    }

    #[test]
    fn decoders_tolerate_field_order_unknowns_and_duplicates() {
        // Fields out of canonical order (points before app_name, target
        // first), unknown fields at every level, and duplicate keys at every
        // nesting level, where the first occurrence wins.
        let body = r#"{
            "target": {"ignored": [1, {"x": "y"}], "cores": 48, "cores": 7},
            "measurements": {
                "points": [
                    {"exec_time": 2.5, "cores": 1, "cores": 9, "extra": null,
                     "stalls": [{"cycles": 1e9, "name": "rob_full", "source": "hw_backend",
                                 "source": "software"}]},
                    {"cores": 2, "exec_time": 1.5, "memory_footprint": 1048576, "stalls": []}
                ],
                "frequency_ghz": 2.1, "frequency_ghz": 9.9,
                "app_name": "ooo-demo"
            },
            "measurements": 5,
            "trailing_unknown": {"a": [true, false]}
        }"#;
        let (set, target) = decode_predict_request(body).unwrap();
        assert_eq!(set.app_name, "ooo-demo");
        assert_eq!(set.frequency_ghz, 2.1, "first duplicate must win");
        assert_eq!(target.cores, 48, "first duplicate must win");
        assert_eq!(set.core_counts(), vec![1, 2], "first duplicate must win");
        assert_eq!(
            set.measurements()[0].stalls.keys().next().unwrap().source,
            StallSource::HardwareBackend,
            "first duplicate must win inside stall objects"
        );
        assert_eq!(set.measurements()[1].memory_footprint, Some(1 << 20));
    }

    #[test]
    fn decode_errors_are_the_400_texts() {
        for (body, message) in [
            ("", "JSON parse error at byte 0: unexpected end of input"),
            ("not json", "JSON parse error at byte 0: expected `null`"),
            (
                r#"{"measurements": 5}"#,
                "measurements: missing field `app_name`",
            ),
            (
                r#"{"target": {"cores": 48}}"#,
                "request: missing field `measurements`",
            ),
            (
                r#"{"measurements": {"app_name": "x", "frequency_ghz": 2.0}}"#,
                "measurements: missing field `points`",
            ),
            (
                r#"{"measurements": {"app_name": "x", "frequency_ghz": 2.0, "points": [
                {"cores": 1.5, "exec_time": 1.0}]}, "target": {"cores": 48}}"#,
                "measurements.points[0]: field `cores` must be a non-negative integer",
            ),
            (
                r#"{"measurements": {"app_name": "x", "frequency_ghz": 2.0, "points": [
                {"cores": 1, "exec_time": 1.0,
                 "stalls": [{"source": "gpu", "name": "x", "cycles": 1}]}]},
                "target": {"cores": 48}}"#,
                "unknown stall source `gpu` (expected hw_backend, hw_frontend or software)",
            ),
            (
                r#"{"measurements": {"app_name": "x", "frequency_ghz": 2.0, "points": [
                {"cores": 1, "exec_time": 1.0, "stalls": [{"source": "software", "cycles": 1}]}]},
                "target": {"cores": 48}}"#,
                "measurements.points[0].stalls[0]: missing field `name`",
            ),
            (
                r#"{"measurements": {"app_name": "x", "frequency_ghz": 2.0, "points": []},
                "target": {"cores": 48}} trailing"#,
                "JSON parse error at byte 113: trailing characters after document",
            ),
            (
                r#"{"measurements": {"app_name": "x", "frequency_ghz": 2.0, "points": [}"#,
                "JSON parse error at byte 68: invalid number",
            ),
        ] {
            assert_eq!(
                decode_predict_request(body),
                Err(WireError(message.to_string())),
                "{body}"
            );
        }
        for (body, message) in [
            (
                r#"{"series": "a b", "points": []}"#,
                "request: invalid series id: character ' ' is outside [A-Za-z0-9_.-]",
            ),
            (r#"{"series": "ok"}"#, "request: missing field `points`"),
            (
                r#"{"series": "ok", "frequency_ghz": -1, "points": []}"#,
                "request: field `frequency_ghz` must be positive and finite",
            ),
            (
                r#"{"series": "ok", "frequency_ghz": "fast", "points": []}"#,
                "request: field `frequency_ghz` must be a number",
            ),
            (
                r#"{"series": "ok", "points": [{"cores": 1}, {"exec_time": 1}]}"#,
                "points[0]: missing field `exec_time`",
            ),
        ] {
            assert_eq!(
                decode_ingest_request(body).map(|_| ()),
                Err(WireError(message.to_string())),
                "{body}"
            );
        }
        assert_eq!(
            decode_series_predict_request(r#"{"cores": -1}"#),
            Err(WireError(
                "target: field `cores` must be a non-negative integer".to_string()
            ))
        );
        assert_eq!(
            decode_plan_request(r#"{"cores": 48"#),
            Err(WireError(
                "JSON parse error at byte 12: expected `,` or `}`".to_string()
            ))
        );
    }

    #[test]
    fn series_wire_objects_carry_version_and_points() {
        use estima_core::store::MeasurementStore;
        let store = MeasurementStore::new();
        let id = SeriesId::new("app").unwrap();
        store.ingest_set(&id, &demo_set()).unwrap();
        let listed = series_list_to_json(&store.list());
        assert_eq!(listed.get("count").and_then(Json::as_u64), Some(1));
        let entry = &listed.get("series").unwrap().as_array().unwrap()[0];
        assert_eq!(entry.get("series").and_then(Json::as_str), Some("app"));
        assert_eq!(entry.get("version").and_then(Json::as_u64), Some(2));
        assert_eq!(entry.get("points").and_then(Json::as_u64), Some(8));

        let detail = series_detail_to_json(&store.snapshot(&id).unwrap());
        let decoded = measurement_set_from_json(detail.get("measurements").unwrap()).unwrap();
        assert_eq!(decoded.len(), 8);
        assert_eq!(decoded.app_name, "app");
    }

    #[test]
    fn error_statuses_follow_the_documented_mapping() {
        let not_found = EstimaError::SeriesNotFound { series: "x".into() };
        assert_eq!(estima_error_status(&not_found), (404, "series_not_found"));
        let conflict = EstimaError::SeriesConflict {
            series: "x".into(),
            detail: "freq".into(),
        };
        assert_eq!(estima_error_status(&conflict), (409, "series_conflict"));
        let invalid = EstimaError::InvalidSeriesId { detail: "x".into() };
        assert_eq!(estima_error_status(&invalid), (400, "bad_request"));
        assert_eq!(
            estima_error_status(&EstimaError::NoStallCategories),
            (422, "prediction_failed")
        );
    }

    #[test]
    fn decode_errors_name_the_offending_field() {
        let missing = Json::parse(r#"{"app_name":"x","frequency_ghz":2.0}"#).unwrap();
        let error = measurement_set_from_json(&missing).unwrap_err();
        assert!(error.0.contains("points"), "{error}");

        let bad_source = Json::parse(
            r#"{"app_name":"x","frequency_ghz":2.0,"points":[
                {"cores":1,"exec_time":1.0,"stalls":[{"source":"gpu","name":"x","cycles":1}]}]}"#,
        )
        .unwrap();
        let error = measurement_set_from_json(&bad_source).unwrap_err();
        assert!(error.0.contains("unknown stall source"), "{error}");

        let bad_jobs = Json::parse(r#"{"jobs":{}}"#).unwrap();
        assert!(batch_request_from_json(&bad_jobs).is_err());
    }

    #[test]
    fn error_bodies_have_code_and_message() {
        let mut body = String::new();
        write_batch_results(&[Err(EstimaError::NoStallCategories)], &mut body);
        let decoded = Json::parse(&body).unwrap();
        let results = decoded.get("results").and_then(Json::as_array).unwrap();
        let error = results[0].get("error").unwrap();
        assert_eq!(
            error.get("code").and_then(Json::as_str),
            Some("prediction_failed")
        );
        assert!(error
            .get("message")
            .and_then(Json::as_str)
            .unwrap()
            .contains("stall categories"));
    }
}
