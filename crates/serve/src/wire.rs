//! The JSON wire format of the prediction service.
//!
//! This module is the single authority for encoding and decoding the
//! request/response bodies of every endpoint, built on
//! [`estima_core::json`]. The full field-by-field specification — with
//! tables, examples and error-code semantics — lives in DESIGN.md
//! § *Serving layer*; the encoders here are the normative implementation.
//!
//! # Fidelity
//!
//! Numbers are rendered with shortest-round-trip formatting
//! ([`Json::render`]), so every `f64` in a response parses back to the exact
//! bit pattern the predictor produced: predictions served over HTTP are
//! byte-identical to in-process [`estima_core::BatchPredictor`] results
//! (pinned by `tests/server_roundtrip.rs` and the `loadgen` harness).

use estima_core::json::{write_json_number, write_json_string, Json, JsonReader};
use estima_core::store::{SeriesInfo, SeriesSnapshot};
use estima_core::{
    BottleneckReport, ConfidenceInterval, EstimaError, Measurement, MeasurementPlan,
    MeasurementSet, Prediction, SeriesId, StallCategory, StallSource, TargetSpec,
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

fn err(message: impl Into<String>) -> WireError {
    WireError(message.into())
}

/// Parse a wire stall-source name.
fn parse_source(name: &str) -> Result<StallSource, WireError> {
    StallSource::from_name(name).ok_or_else(|| {
        err(format!(
            "unknown stall source `{name}` (expected hw_backend, hw_frontend or software)"
        ))
    })
}

fn require<'a>(value: &'a Json, key: &str, context: &str) -> Result<&'a Json, WireError> {
    value
        .get(key)
        .ok_or_else(|| err(format!("{context}: missing field `{key}`")))
}

fn require_f64(value: &Json, key: &str, context: &str) -> Result<f64, WireError> {
    require(value, key, context)?
        .as_f64()
        .ok_or_else(|| err(format!("{context}: field `{key}` must be a number")))
}

fn require_u32(value: &Json, key: &str, context: &str) -> Result<u32, WireError> {
    require(value, key, context)?
        .as_u64()
        .and_then(|n| u32::try_from(n).ok())
        .ok_or_else(|| {
            err(format!(
                "{context}: field `{key}` must be a non-negative integer"
            ))
        })
}

fn require_str<'a>(value: &'a Json, key: &str, context: &str) -> Result<&'a str, WireError> {
    require(value, key, context)?
        .as_str()
        .ok_or_else(|| err(format!("{context}: field `{key}` must be a string")))
}

/// Decode a `MeasurementSet` from its wire object (see DESIGN.md for the
/// field table).
pub fn measurement_set_from_json(value: &Json) -> Result<MeasurementSet, WireError> {
    let context = "measurements";
    let app_name = require_str(value, "app_name", context)?;
    let frequency_ghz = require_f64(value, "frequency_ghz", context)?;
    let mut set = MeasurementSet::new(app_name, frequency_ghz);
    let points = require(value, "points", context)?
        .as_array()
        .ok_or_else(|| err("measurements: field `points` must be an array"))?;
    for (index, point) in points.iter().enumerate() {
        let context = format!("measurements.points[{index}]");
        set.push(measurement_from_json(point, &context)?);
    }
    Ok(set)
}

/// Decode one measurement object (an entry of a `points` array).
pub fn measurement_from_json(point: &Json, context: &str) -> Result<Measurement, WireError> {
    let cores = require_u32(point, "cores", context)?;
    let exec_time = require_f64(point, "exec_time", context)?;
    let mut measurement = Measurement::new(cores, exec_time);
    if let Some(footprint) = point.get("memory_footprint") {
        let bytes = footprint.as_u64().ok_or_else(|| {
            err(format!(
                "{context}: field `memory_footprint` must be a non-negative integer"
            ))
        })?;
        measurement = measurement.with_memory_footprint(bytes);
    }
    if let Some(stalls) = point.get("stalls") {
        let stalls = stalls
            .as_array()
            .ok_or_else(|| err(format!("{context}: field `stalls` must be an array")))?;
        for (sindex, stall) in stalls.iter().enumerate() {
            let context = format!("{context}.stalls[{sindex}]");
            let source = parse_source(require_str(stall, "source", &context)?)?;
            let name = require_str(stall, "name", &context)?;
            let cycles = require_f64(stall, "cycles", &context)?;
            let category = StallCategory {
                name: name.to_string(),
                source,
            };
            measurement = measurement.with_stall(category, cycles);
        }
    }
    Ok(measurement)
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
            Json::Array(set.measurements().iter().map(measurement_to_json).collect()),
        ),
    ])
}

/// Encode one measurement as its wire object (an entry of a `points`
/// array). Inverse of [`measurement_from_json`].
pub fn measurement_to_json(m: &Measurement) -> Json {
    let mut fields = vec![
        ("cores".to_string(), Json::Number(f64::from(m.cores))),
        ("exec_time".to_string(), Json::Number(m.exec_time)),
    ];
    if let Some(bytes) = m.memory_footprint {
        fields.push(("memory_footprint".to_string(), Json::Number(bytes as f64)));
    }
    let stalls = m
        .stalls
        .iter()
        .map(|(category, cycles)| {
            Json::Object(vec![
                (
                    "source".to_string(),
                    Json::String(category.source.name().to_string()),
                ),
                ("name".to_string(), Json::String(category.name.clone())),
                ("cycles".to_string(), Json::Number(*cycles)),
            ])
        })
        .collect();
    fields.push(("stalls".to_string(), Json::Array(stalls)));
    Json::Object(fields)
}

/// Decode a `TargetSpec` from its wire object.
pub fn target_spec_from_json(value: &Json) -> Result<TargetSpec, WireError> {
    let context = "target";
    let mut spec = TargetSpec::cores(require_u32(value, "cores", context)?);
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
    let set = measurement_set_from_json(require(value, "measurements", "request")?)?;
    let target = target_spec_from_json(require(value, "target", "request")?)?;
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
    let jobs = require(value, "jobs", "request")?
        .as_array()
        .ok_or_else(|| err("request: field `jobs` must be an array"))?;
    jobs.iter()
        .enumerate()
        .map(|(index, job)| {
            predict_request_from_json(job).map_err(|e| err(format!("jobs[{index}]: {e}")))
        })
        .collect()
}

/// Encode a `(cores, value)` series as an array of `[cores, value]` pairs.
fn series_to_json(series: &[(u32, f64)]) -> Json {
    Json::Array(
        series
            .iter()
            .map(|(cores, value)| {
                Json::Array(vec![Json::Number(f64::from(*cores)), Json::Number(*value)])
            })
            .collect(),
    )
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

/// Encode a `Prediction` as its wire object (the `/v1/predict` response
/// body; also the per-job payload of `/v1/batch` responses).
pub fn prediction_to_json(prediction: &Prediction) -> Json {
    let categories = prediction
        .categories
        .iter()
        .map(|extrapolation| {
            Json::Object(vec![
                (
                    "source".to_string(),
                    Json::String(extrapolation.category.source.name().to_string()),
                ),
                (
                    "name".to_string(),
                    Json::String(extrapolation.category.name.clone()),
                ),
                (
                    "kernel".to_string(),
                    Json::String(extrapolation.curve.kernel.name().to_string()),
                ),
                (
                    "params".to_string(),
                    Json::Array(
                        extrapolation
                            .curve
                            .params
                            .iter()
                            .map(|p| Json::Number(*p))
                            .collect(),
                    ),
                ),
                (
                    "extrapolated_at_target".to_string(),
                    Json::Number(
                        extrapolation
                            .at(prediction.target_cores)
                            .unwrap_or(f64::NAN),
                    ),
                ),
            ])
        })
        .collect();
    let mut body = Json::Object(vec![
        (
            "app_name".to_string(),
            Json::String(prediction.app_name.clone()),
        ),
        (
            "measured_cores".to_string(),
            Json::Number(f64::from(prediction.measured_cores)),
        ),
        (
            "target_cores".to_string(),
            Json::Number(f64::from(prediction.target_cores)),
        ),
        (
            "predicted_scaling_limit".to_string(),
            Json::Number(f64::from(prediction.predicted_scaling_limit())),
        ),
        (
            "factor_correlation".to_string(),
            Json::Number(prediction.factor_correlation),
        ),
        (
            "scaling_factor_kernel".to_string(),
            Json::String(prediction.scaling_factor.kernel.name().to_string()),
        ),
        (
            "predicted_time".to_string(),
            series_to_json(&prediction.predicted_time),
        ),
        (
            "stalls_per_core".to_string(),
            series_to_json(&prediction.stalls_per_core),
        ),
        (
            "measured_time".to_string(),
            series_to_json(&prediction.measured_time),
        ),
        ("categories".to_string(), Json::Array(categories)),
    ]);
    if let Some(interval) = &prediction.confidence {
        if let Json::Object(fields) = &mut body {
            fields.push(("confidence".to_string(), confidence_to_json(interval)));
        }
    }
    body
}

/// Encode a `Prediction` plus an optional bottleneck diagnosis — the
/// response body of `POST /v1/series/{id}/predict` when the `diagnosis`
/// flag is set. With `None` this is exactly [`prediction_to_json`].
pub fn prediction_response_to_json(
    prediction: &Prediction,
    diagnosis: Option<&BottleneckReport>,
) -> Json {
    let mut body = prediction_to_json(prediction);
    if let (Some(report), Json::Object(fields)) = (diagnosis, &mut body) {
        fields.push(("bottleneck".to_string(), bottleneck_report_to_json(report)));
    }
    body
}

/// Encode a jackknife confidence interval as its wire object.
pub fn confidence_to_json(interval: &ConfidenceInterval) -> Json {
    Json::Object(vec![
        ("lo".to_string(), Json::Number(interval.lo)),
        ("hi".to_string(), Json::Number(interval.hi)),
        ("spread".to_string(), Json::Number(interval.spread)),
    ])
}

/// Encode a bottleneck report as its wire object: the core count it was
/// analysed at, the dominant category (or `null` when the report is empty),
/// and every entry sorted by descending share.
pub fn bottleneck_report_to_json(report: &BottleneckReport) -> Json {
    let dominant = report
        .dominant()
        .map(|entry| Json::String(entry.category.to_string()))
        .unwrap_or(Json::Null);
    let entries = report
        .entries
        .iter()
        .map(|entry| {
            Json::Object(vec![
                (
                    "category".to_string(),
                    Json::String(entry.category.to_string()),
                ),
                (
                    "predicted_cycles".to_string(),
                    Json::Number(entry.predicted_cycles),
                ),
                ("share".to_string(), Json::Number(entry.share)),
                (
                    "growth_factor".to_string(),
                    Json::Number(entry.growth_factor),
                ),
            ])
        })
        .collect();
    Json::Object(vec![
        (
            "at_cores".to_string(),
            Json::Number(f64::from(report.at_cores)),
        ),
        ("dominant".to_string(), dominant),
        ("entries".to_string(), Json::Array(entries)),
    ])
}

/// Encode a measurement plan as the `POST /v1/series/{id}/plan` response
/// body.
pub fn plan_to_json(plan: &MeasurementPlan) -> Json {
    let suggestions = plan
        .suggestions
        .iter()
        .map(|suggestion| {
            Json::Object(vec![
                (
                    "cores".to_string(),
                    Json::Number(f64::from(suggestion.cores)),
                ),
                (
                    "expected_spread".to_string(),
                    Json::Number(suggestion.expected_spread),
                ),
                (
                    "expected_reduction".to_string(),
                    Json::Number(suggestion.expected_reduction),
                ),
                (
                    "rationale".to_string(),
                    Json::String(suggestion.rationale.clone()),
                ),
            ])
        })
        .collect();
    Json::Object(vec![
        ("app_name".to_string(), Json::String(plan.app_name.clone())),
        (
            "measured_cores".to_string(),
            Json::Number(f64::from(plan.measured_cores)),
        ),
        (
            "target_cores".to_string(),
            Json::Number(f64::from(plan.target_cores)),
        ),
        (
            "confidence".to_string(),
            confidence_to_json(&plan.confidence),
        ),
        (
            "bottleneck".to_string(),
            bottleneck_report_to_json(&plan.bottleneck),
        ),
        ("suggestions".to_string(), Json::Array(suggestions)),
    ])
}

/// Serialize a `Prediction` directly into a caller-provided buffer,
/// byte-identical to `prediction_to_json(prediction).render()` (pinned by a
/// test below). This is the serve hot path: no intermediate [`Json`] tree —
/// a response carrying hundreds of numbers appends straight into the
/// connection's reusable body buffer.
pub fn write_prediction(prediction: &Prediction, out: &mut String) {
    write_prediction_response(prediction, None, out);
}

/// [`write_prediction`] with an optional bottleneck diagnosis appended;
/// byte-identical to `prediction_response_to_json(..).render()`.
pub fn write_prediction_response(
    prediction: &Prediction,
    diagnosis: Option<&BottleneckReport>,
    out: &mut String,
) {
    out.push_str("{\"app_name\":");
    write_json_string(&prediction.app_name, out);
    out.push_str(",\"measured_cores\":");
    write_json_number(f64::from(prediction.measured_cores), out);
    out.push_str(",\"target_cores\":");
    write_json_number(f64::from(prediction.target_cores), out);
    out.push_str(",\"predicted_scaling_limit\":");
    write_json_number(f64::from(prediction.predicted_scaling_limit()), out);
    out.push_str(",\"factor_correlation\":");
    write_json_number(prediction.factor_correlation, out);
    out.push_str(",\"scaling_factor_kernel\":");
    write_json_string(prediction.scaling_factor.kernel.name(), out);
    out.push_str(",\"predicted_time\":");
    write_series(&prediction.predicted_time, out);
    out.push_str(",\"stalls_per_core\":");
    write_series(&prediction.stalls_per_core, out);
    out.push_str(",\"measured_time\":");
    write_series(&prediction.measured_time, out);
    out.push_str(",\"categories\":[");
    for (index, extrapolation) in prediction.categories.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        out.push_str("{\"source\":");
        write_json_string(extrapolation.category.source.name(), out);
        out.push_str(",\"name\":");
        write_json_string(&extrapolation.category.name, out);
        out.push_str(",\"kernel\":");
        write_json_string(extrapolation.curve.kernel.name(), out);
        out.push_str(",\"params\":[");
        for (pindex, param) in extrapolation.curve.params.iter().enumerate() {
            if pindex > 0 {
                out.push(',');
            }
            write_json_number(*param, out);
        }
        out.push_str("],\"extrapolated_at_target\":");
        write_json_number(
            extrapolation
                .at(prediction.target_cores)
                .unwrap_or(f64::NAN),
            out,
        );
        out.push('}');
    }
    out.push(']');
    if let Some(interval) = &prediction.confidence {
        out.push_str(",\"confidence\":");
        write_confidence(interval, out);
    }
    if let Some(report) = diagnosis {
        out.push_str(",\"bottleneck\":");
        write_bottleneck_report(report, out);
    }
    out.push('}');
}

/// Serialize a confidence interval directly into `out`; byte-identical to
/// `confidence_to_json(interval).render()`.
fn write_confidence(interval: &ConfidenceInterval, out: &mut String) {
    out.push_str("{\"lo\":");
    write_json_number(interval.lo, out);
    out.push_str(",\"hi\":");
    write_json_number(interval.hi, out);
    out.push_str(",\"spread\":");
    write_json_number(interval.spread, out);
    out.push('}');
}

/// Serialize a bottleneck report directly into `out`; byte-identical to
/// `bottleneck_report_to_json(report).render()`.
fn write_bottleneck_report(report: &BottleneckReport, out: &mut String) {
    out.push_str("{\"at_cores\":");
    write_json_number(f64::from(report.at_cores), out);
    out.push_str(",\"dominant\":");
    match report.dominant() {
        Some(entry) => write_json_string(&entry.category.to_string(), out),
        None => out.push_str("null"),
    }
    out.push_str(",\"entries\":[");
    for (index, entry) in report.entries.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        out.push_str("{\"category\":");
        write_json_string(&entry.category.to_string(), out);
        out.push_str(",\"predicted_cycles\":");
        write_json_number(entry.predicted_cycles, out);
        out.push_str(",\"share\":");
        write_json_number(entry.share, out);
        out.push_str(",\"growth_factor\":");
        write_json_number(entry.growth_factor, out);
        out.push('}');
    }
    out.push_str("]}");
}

/// Serialize a measurement plan directly into `out`; byte-identical to
/// `plan_to_json(plan).render()` (pinned by a test below). The plan
/// endpoint shares the serve hot path's zero-tree discipline.
pub fn write_plan(plan: &MeasurementPlan, out: &mut String) {
    out.push_str("{\"app_name\":");
    write_json_string(&plan.app_name, out);
    out.push_str(",\"measured_cores\":");
    write_json_number(f64::from(plan.measured_cores), out);
    out.push_str(",\"target_cores\":");
    write_json_number(f64::from(plan.target_cores), out);
    out.push_str(",\"confidence\":");
    write_confidence(&plan.confidence, out);
    out.push_str(",\"bottleneck\":");
    write_bottleneck_report(&plan.bottleneck, out);
    out.push_str(",\"suggestions\":[");
    for (index, suggestion) in plan.suggestions.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        out.push_str("{\"cores\":");
        write_json_number(f64::from(suggestion.cores), out);
        out.push_str(",\"expected_spread\":");
        write_json_number(suggestion.expected_spread, out);
        out.push_str(",\"expected_reduction\":");
        write_json_number(suggestion.expected_reduction, out);
        out.push_str(",\"rationale\":");
        write_json_string(&suggestion.rationale, out);
        out.push('}');
    }
    out.push_str("]}");
}

/// Serialize a `(cores, value)` series as `[[cores, value], ...]` directly
/// into `out`; byte-identical to `series_to_json(series).render()`.
fn write_series(series: &[(u32, f64)], out: &mut String) {
    out.push('[');
    for (index, (cores, value)) in series.iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        out.push('[');
        write_json_number(f64::from(*cores), out);
        out.push(',');
        write_json_number(*value, out);
        out.push(']');
    }
    out.push(']');
}

/// Serialize a wire error body directly into `out`; byte-identical to
/// `error_to_json(code, message).render()`.
pub fn write_error(code: &str, message: &str, out: &mut String) {
    out.push_str("{\"error\":{\"code\":");
    write_json_string(code, out);
    out.push_str(",\"message\":");
    write_json_string(message, out);
    out.push_str("}}");
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
    let context = "request";
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
        .map(|(index, point)| measurement_from_json(point, &format!("points[{index}]")))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(IngestRequest {
        series,
        frequency_ghz,
        points,
    })
}

// ---------------------------------------------------------------------------
// Streaming request decoders: the serve hot path.
//
// `decode_predict_request`, `decode_ingest_request` and `decode_target_spec`
// decode straight from the body text with a [`JsonReader`] — one pass, no
// intermediate [`Json`] tree, no per-key `String`. The fast path only
// *commits* on a fully valid document; on any anomaly (syntax error, missing
// or mistyped field, exotic-but-valid shapes it declines) it falls back to
// `Json::parse` + the tree decoders above, so every observable outcome —
// including error messages, duplicate-key first-match-wins and
// unknown-field tolerance — is identical to the tree path by construction
// (pinned by the differential tests below).
// ---------------------------------------------------------------------------

/// Reusable buffers of one streaming decode: one key buffer per object
/// nesting level (`k0` outermost), a string-value sink, and the accumulators
/// for array-valued fields. All start empty and unallocated; a decode only
/// allocates what ends up owned by the decoded request.
#[derive(Default)]
struct DecodeScratch {
    k0: String,
    k1: String,
    k2: String,
    k3: String,
    text: String,
    stalls: Vec<(StallCategory, f64)>,
    points: Vec<Measurement>,
}

/// Fast-path failure: the document needs the tree decoder's verdict. The
/// message is never user-visible (the fallback recomputes the real one).
fn bail(why: &'static str) -> String {
    why.to_string()
}

/// Decode one `/v1/predict` request body from its text. Equivalent to
/// `Json::parse` + [`predict_request_from_json`] — including every error
/// message — but one streaming pass on well-formed canonical bodies.
pub fn decode_predict_request(text: &str) -> Result<(MeasurementSet, TargetSpec), WireError> {
    if let Ok(decoded) = fast_predict_request(text) {
        return Ok(decoded);
    }
    let value = Json::parse(text).map_err(WireError)?;
    predict_request_from_json(&value)
}

/// Decode one `POST /v1/measurements` request body from its text.
/// Equivalent to `Json::parse` + [`ingest_request_from_json`].
pub fn decode_ingest_request(text: &str) -> Result<IngestRequest, WireError> {
    if let Ok(decoded) = fast_ingest_request(text) {
        return Ok(decoded);
    }
    let value = Json::parse(text).map_err(WireError)?;
    ingest_request_from_json(&value)
}

/// Decode one `POST /v1/series/{id}/predict` request body (a bare
/// `TargetSpec` object) from its text. Equivalent to `Json::parse` +
/// [`target_spec_from_json`].
pub fn decode_target_spec(text: &str) -> Result<TargetSpec, WireError> {
    if let Ok(spec) = fast_target_spec(text) {
        return Ok(spec);
    }
    let value = Json::parse(text).map_err(WireError)?;
    target_spec_from_json(&value)
}

/// Opt-in extras on a `POST /v1/series/{id}/predict` body.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PredictExtras {
    /// Attach a jackknife confidence interval (`"confidence": true`).
    pub confidence: bool,
    /// Attach a bottleneck diagnosis (`"diagnosis": true`).
    pub diagnosis: bool,
}

/// Decode a series-predict body: a `TargetSpec` plus the opt-in
/// [`PredictExtras`] boolean flags. Bodies that mention neither flag take
/// exactly the [`decode_target_spec`] fast path, so default requests cost
/// nothing extra — and produce byte-identical responses to releases that
/// predate the flags.
pub fn decode_series_predict_request(text: &str) -> Result<(TargetSpec, PredictExtras), WireError> {
    if !text.contains("\"confidence\"") && !text.contains("\"diagnosis\"") {
        return Ok((decode_target_spec(text)?, PredictExtras::default()));
    }
    let value = Json::parse(text).map_err(WireError)?;
    let spec = target_spec_from_json(&value)?;
    let extras = PredictExtras {
        confidence: flag(&value, "confidence")?,
        diagnosis: flag(&value, "diagnosis")?,
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
pub fn decode_plan_request(text: &str) -> Result<(TargetSpec, usize), WireError> {
    if !text.contains("\"suggestions\"") {
        return Ok((
            decode_target_spec(text)?,
            estima_core::plan::DEFAULT_SUGGESTIONS,
        ));
    }
    let value = Json::parse(text).map_err(WireError)?;
    let spec = target_spec_from_json(&value)?;
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

fn fast_predict_request(text: &str) -> Result<(MeasurementSet, TargetSpec), String> {
    let mut reader = JsonReader::new(text);
    let mut scratch = DecodeScratch::default();
    let mut set = None;
    let mut target = None;
    reader.begin_object()?;
    let mut first = true;
    while reader.next_key(&mut first, &mut scratch.k0)? {
        if scratch.k0 == "measurements" && set.is_none() {
            set = Some(read_measurement_set(&mut reader, &mut scratch)?);
        } else if scratch.k0 == "target" && target.is_none() {
            target = Some(read_target_fields(&mut reader, &mut scratch.k1)?);
        } else {
            reader.skip_value()?;
        }
    }
    reader.finish()?;
    match (set, target) {
        (Some(set), Some(target)) => Ok((set, target)),
        _ => Err(bail("missing measurements or target")),
    }
}

fn fast_ingest_request(text: &str) -> Result<IngestRequest, String> {
    let mut reader = JsonReader::new(text);
    let mut scratch = DecodeScratch::default();
    let mut series = None;
    let mut frequency_ghz = None;
    let mut have_points = false;
    reader.begin_object()?;
    let mut first = true;
    while reader.next_key(&mut first, &mut scratch.k0)? {
        if scratch.k0 == "series" && series.is_none() {
            reader.string_value(&mut scratch.text)?;
            series = Some(SeriesId::new(&scratch.text).map_err(|_| bail("bad series id"))?);
        } else if scratch.k0 == "frequency_ghz" && frequency_ghz.is_none() {
            let ghz = reader.f64_value()?;
            if !ghz.is_finite() || ghz <= 0.0 {
                return Err(bail("non-positive frequency"));
            }
            frequency_ghz = Some(ghz);
        } else if scratch.k0 == "points" && !have_points {
            have_points = true;
            read_points(&mut reader, &mut scratch)?;
        } else {
            reader.skip_value()?;
        }
    }
    reader.finish()?;
    let (Some(series), true) = (series, have_points) else {
        return Err(bail("missing series or points"));
    };
    Ok(IngestRequest {
        series,
        frequency_ghz,
        points: std::mem::take(&mut scratch.points),
    })
}

fn fast_target_spec(text: &str) -> Result<TargetSpec, String> {
    let mut reader = JsonReader::new(text);
    let mut key = String::new();
    let spec = read_target_fields(&mut reader, &mut key)?;
    reader.finish()?;
    Ok(spec)
}

/// Read a `TargetSpec` object (already positioned at its `{`).
fn read_target_fields(reader: &mut JsonReader<'_>, key: &mut String) -> Result<TargetSpec, String> {
    let mut cores = None;
    let mut frequency_ghz = None;
    let mut dataset_scale = None;
    reader.begin_object()?;
    let mut first = true;
    while reader.next_key(&mut first, key)? {
        if key == "cores" && cores.is_none() {
            cores = Some(read_u32(reader)?);
        } else if key == "frequency_ghz" && frequency_ghz.is_none() {
            frequency_ghz = Some(reader.f64_value()?);
        } else if key == "dataset_scale" && dataset_scale.is_none() {
            dataset_scale = Some(reader.f64_value()?);
        } else {
            reader.skip_value()?;
        }
    }
    let mut spec = TargetSpec::cores(cores.ok_or_else(|| bail("missing cores"))?);
    if let Some(ghz) = frequency_ghz {
        spec = spec.with_frequency_ghz(ghz);
    }
    if let Some(scale) = dataset_scale {
        spec = spec.with_dataset_scale(scale);
    }
    Ok(spec)
}

/// Read a `measurements` wire object (already positioned at its `{`). The
/// builders tolerate any field order: `points` may precede `app_name`, so
/// points accumulate in the scratch buffer until the object completes.
fn read_measurement_set(
    reader: &mut JsonReader<'_>,
    scratch: &mut DecodeScratch,
) -> Result<MeasurementSet, String> {
    let mut app_name = None;
    let mut frequency_ghz = None;
    let mut have_points = false;
    reader.begin_object()?;
    let mut first = true;
    while reader.next_key(&mut first, &mut scratch.k1)? {
        if scratch.k1 == "app_name" && app_name.is_none() {
            reader.string_value(&mut scratch.text)?;
            app_name = Some(scratch.text.clone());
        } else if scratch.k1 == "frequency_ghz" && frequency_ghz.is_none() {
            frequency_ghz = Some(reader.f64_value()?);
        } else if scratch.k1 == "points" && !have_points {
            have_points = true;
            read_points(reader, scratch)?;
        } else {
            reader.skip_value()?;
        }
    }
    let (Some(app_name), Some(frequency_ghz), true) = (app_name, frequency_ghz, have_points) else {
        return Err(bail("missing measurement-set field"));
    };
    let mut set = MeasurementSet::new(app_name, frequency_ghz);
    for point in scratch.points.drain(..) {
        set.push(point);
    }
    Ok(set)
}

/// Read a `points` array into `scratch.points` (already positioned at `[`).
fn read_points(reader: &mut JsonReader<'_>, scratch: &mut DecodeScratch) -> Result<(), String> {
    scratch.points.clear();
    reader.begin_array()?;
    let mut first = true;
    while reader.next_element(&mut first)? {
        let point = read_measurement(reader, scratch)?;
        scratch.points.push(point);
    }
    Ok(())
}

/// Read one measurement object (an entry of a `points` array).
fn read_measurement(
    reader: &mut JsonReader<'_>,
    scratch: &mut DecodeScratch,
) -> Result<Measurement, String> {
    let mut cores = None;
    let mut exec_time = None;
    let mut footprint = None;
    let mut have_stalls = false;
    scratch.stalls.clear();
    reader.begin_object()?;
    let mut first = true;
    while reader.next_key(&mut first, &mut scratch.k2)? {
        if scratch.k2 == "cores" && cores.is_none() {
            cores = Some(read_u32(reader)?);
        } else if scratch.k2 == "exec_time" && exec_time.is_none() {
            exec_time = Some(reader.f64_value()?);
        } else if scratch.k2 == "memory_footprint" && footprint.is_none() {
            footprint = Some(reader.u64_value()?);
        } else if scratch.k2 == "stalls" && !have_stalls {
            have_stalls = true;
            read_stalls(reader, scratch)?;
        } else {
            reader.skip_value()?;
        }
    }
    let (Some(cores), Some(exec_time)) = (cores, exec_time) else {
        return Err(bail("missing point field"));
    };
    let mut measurement = Measurement::new(cores, exec_time);
    if let Some(bytes) = footprint {
        measurement = measurement.with_memory_footprint(bytes);
    }
    for (category, cycles) in scratch.stalls.drain(..) {
        measurement = measurement.with_stall(category, cycles);
    }
    Ok(measurement)
}

/// Read a `stalls` array into `scratch.stalls` (already positioned at `[`).
fn read_stalls(reader: &mut JsonReader<'_>, scratch: &mut DecodeScratch) -> Result<(), String> {
    reader.begin_array()?;
    let mut first = true;
    while reader.next_element(&mut first)? {
        let mut source = None;
        let mut name = None;
        let mut cycles = None;
        reader.begin_object()?;
        let mut sfirst = true;
        while reader.next_key(&mut sfirst, &mut scratch.k3)? {
            if scratch.k3 == "source" && source.is_none() {
                reader.string_value(&mut scratch.text)?;
                source = Some(parse_source(&scratch.text).map_err(|e| e.0)?);
            } else if scratch.k3 == "name" && name.is_none() {
                reader.string_value(&mut scratch.text)?;
                name = Some(scratch.text.clone());
            } else if scratch.k3 == "cycles" && cycles.is_none() {
                cycles = Some(reader.f64_value()?);
            } else {
                reader.skip_value()?;
            }
        }
        let (Some(source), Some(name), Some(cycles)) = (source, name, cycles) else {
            return Err(bail("missing stall field"));
        };
        scratch
            .stalls
            .push((StallCategory { name, source }, cycles));
    }
    Ok(())
}

/// Read a number under the tree decoders' `u32` interpretation
/// ([`Json::as_u64`] + `u32::try_from`).
fn read_u32(reader: &mut JsonReader<'_>) -> Result<u32, String> {
    u32::try_from(reader.u64_value()?).map_err(|_| bail("out of u32 range"))
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
        Json::Array(points.iter().map(measurement_to_json).collect()),
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
    out.push_str("{\"error\":{\"code\":");
    write_json_string(code, out);
    out.push_str(",\"message\":");
    write_json_string(message, out);
    out.push_str(",\"retry_after_ms\":");
    let _ = std::fmt::Write::write_fmt(out, format_args!("{retry_after_ms}"));
    out.push_str("}}");
}

/// Encode the `429 quota_exceeded` error body (see [`write_retry_error`]).
pub fn write_quota_error(message: &str, retry_after_ms: u64, out: &mut String) {
    write_retry_error("quota_exceeded", message, retry_after_ms, out);
}

/// Encode a wire error body: `{"error": {"code": ..., "message": ...}}`.
pub fn error_to_json(code: &str, message: &str) -> Json {
    Json::Object(vec![(
        "error".to_string(),
        Json::Object(vec![
            ("code".to_string(), Json::String(code.to_string())),
            ("message".to_string(), Json::String(message.to_string())),
        ]),
    )])
}

/// Wire error code for a prediction-pipeline failure (`422
/// prediction_failed`); the variant name is carried in the message.
pub fn estima_error_to_json(error: &EstimaError) -> Json {
    error_to_json("prediction_failed", &error.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use estima_core::{Estima, EstimaConfig};

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
        let (set2, target2) = predict_request_from_json(&Json::parse(&body).unwrap()).unwrap();
        assert_eq!(set2, set);
        assert_eq!(target2, target);
    }

    #[test]
    fn prediction_series_survive_encoding_bit_for_bit() {
        let prediction = Estima::new(EstimaConfig::default().with_parallelism(1))
            .predict(&demo_set(), &TargetSpec::cores(48))
            .unwrap();
        let encoded = prediction_to_json(&prediction).render();
        let decoded = Json::parse(&encoded).unwrap();
        let times = series_from_json(decoded.get("predicted_time").unwrap()).unwrap();
        assert_eq!(times.len(), prediction.predicted_time.len());
        for ((c1, t1), (c2, t2)) in prediction.predicted_time.iter().zip(&times) {
            assert_eq!(c1, c2);
            assert_eq!(t1.to_bits(), t2.to_bits(), "exact f64 round trip");
        }
    }

    #[test]
    fn direct_prediction_writer_matches_tree_render_byte_for_byte() {
        let prediction = Estima::new(EstimaConfig::default().with_parallelism(1))
            .predict(&demo_set(), &TargetSpec::cores(48))
            .unwrap();
        let via_tree = prediction_to_json(&prediction).render();
        let mut via_writer = String::new();
        write_prediction(&prediction, &mut via_writer);
        assert_eq!(via_writer, via_tree);
        assert!(
            !via_writer.contains("\"confidence\""),
            "default predictions must not emit the opt-in confidence field"
        );
    }

    #[test]
    fn extended_prediction_writer_matches_tree_render_byte_for_byte() {
        let estima = Estima::new(EstimaConfig::default().with_parallelism(1));
        let (prediction, interval) = estima_core::Planner::new(&estima)
            .confidence(&demo_set(), &TargetSpec::cores(48))
            .unwrap();
        assert_eq!(prediction.confidence, Some(interval));
        let report = BottleneckReport::from_prediction(&prediction, 48);
        let via_tree = prediction_response_to_json(&prediction, Some(&report)).render();
        let mut via_writer = String::new();
        write_prediction_response(&prediction, Some(&report), &mut via_writer);
        assert_eq!(via_writer, via_tree);
        assert!(via_writer.contains("\"confidence\":{\"lo\":"));
        assert!(via_writer.contains("\"bottleneck\":{\"at_cores\":48"));
    }

    #[test]
    fn plan_writer_matches_tree_render_byte_for_byte() {
        let estima = Estima::new(EstimaConfig::default().with_parallelism(1));
        let plan = estima_core::Planner::new(&estima)
            .plan(&demo_set(), &TargetSpec::cores(48), 3)
            .unwrap();
        let via_tree = plan_to_json(&plan).render();
        let mut via_writer = String::new();
        write_plan(&plan, &mut via_writer);
        assert_eq!(via_writer, via_tree);
        assert!(via_writer.starts_with("{\"app_name\":\"wire-demo\""));
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
    fn direct_error_writer_matches_tree_render_byte_for_byte() {
        for (code, message) in [
            ("bad_request", "plain message"),
            (
                "not_found",
                "needs \"escaping\"\n\tand \\ control \u{1} bytes",
            ),
        ] {
            let via_tree = error_to_json(code, message).render();
            let mut via_writer = String::new();
            write_error(code, message, &mut via_writer);
            assert_eq!(via_writer, via_tree);
        }
    }

    #[test]
    fn ingest_request_round_trips() {
        let series = SeriesId::new("demo-1").unwrap();
        let points: Vec<Measurement> = demo_set().measurements().to_vec();
        for frequency in [Some(2.1), None] {
            let encoded = ingest_request_to_json(&series, frequency, &points).render();
            let decoded = ingest_request_from_json(&Json::parse(&encoded).unwrap()).unwrap();
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

    /// The tree-path outcome `decode_predict_request` must replicate.
    fn tree_predict(text: &str) -> Result<(MeasurementSet, TargetSpec), WireError> {
        let value = Json::parse(text).map_err(WireError)?;
        predict_request_from_json(&value)
    }

    fn tree_ingest(text: &str) -> Result<IngestRequest, WireError> {
        let value = Json::parse(text).map_err(WireError)?;
        ingest_request_from_json(&value)
    }

    #[test]
    fn streaming_decoders_match_tree_decoding_on_canonical_bodies() {
        let set = demo_set();
        let target = TargetSpec::cores(48)
            .with_frequency_ghz(2.8)
            .with_dataset_scale(1.5);
        let body = predict_request_to_json(&set, &target).render();
        let (set2, target2) = decode_predict_request(&body).unwrap();
        assert_eq!(set2, set);
        assert_eq!(target2, target);

        let series = SeriesId::new("demo-1").unwrap();
        let points: Vec<Measurement> = set.measurements().to_vec();
        for frequency in [Some(2.1), None] {
            let body = ingest_request_to_json(&series, frequency, &points).render();
            let decoded = decode_ingest_request(&body).unwrap();
            assert_eq!(decoded, tree_ingest(&body).unwrap());
            assert_eq!(decoded.points, points);
        }

        let body = target_spec_to_json(&target).render();
        assert_eq!(decode_target_spec(&body).unwrap(), target);
    }

    #[test]
    fn streaming_decoders_tolerate_field_order_unknowns_and_duplicates() {
        // Fields out of canonical order (points before app_name, target
        // first), unknown fields at every level, and duplicate keys where
        // the first occurrence must win — all tree-path semantics.
        let body = r#"{
            "target": {"ignored": [1, {"x": "y"}], "cores": 48, "cores": 7},
            "measurements": {
                "points": [
                    {"exec_time": 2.5, "cores": 1, "extra": null,
                     "stalls": [{"cycles": 1e9, "name": "rob_full", "source": "hw_backend",
                                 "source": "software"}]},
                    {"cores": 2, "exec_time": 1.5, "memory_footprint": 1048576, "stalls": []}
                ],
                "frequency_ghz": 2.1, "frequency_ghz": 9.9,
                "app_name": "ooo-demo"
            },
            "trailing_unknown": {"a": [true, false]}
        }"#;
        let (set, target) = decode_predict_request(body).unwrap();
        let (tree_set, tree_target) = tree_predict(body).unwrap();
        assert_eq!(set, tree_set);
        assert_eq!(target, tree_target);
        assert_eq!(set.app_name, "ooo-demo");
        assert_eq!(set.frequency_ghz, 2.1, "first duplicate must win");
        assert_eq!(target.cores, 48, "first duplicate must win");
        assert_eq!(set.len(), 2);
        assert_eq!(
            set.measurements()[0].stalls.keys().next().unwrap().source,
            StallSource::HardwareBackend,
            "first duplicate must win inside stall objects"
        );
    }

    #[test]
    fn streaming_decoders_report_tree_identical_errors() {
        // Responses are pinned byte-identical to the tree path, so the
        // error *messages* must match exactly, not just the error-ness.
        for body in [
            "",
            "not json",
            r#"{"measurements": 5}"#,
            r#"{"target": {"cores": 48}}"#,
            r#"{"measurements": {"app_name": "x", "frequency_ghz": 2.0}}"#,
            r#"{"measurements": {"app_name": "x", "frequency_ghz": 2.0, "points": [
                {"cores": 1.5, "exec_time": 1.0}]}, "target": {"cores": 48}}"#,
            r#"{"measurements": {"app_name": "x", "frequency_ghz": 2.0, "points": [
                {"cores": 1, "exec_time": 1.0,
                 "stalls": [{"source": "gpu", "name": "x", "cycles": 1}]}]},
                "target": {"cores": 48}}"#,
            r#"{"measurements": {"app_name": "x", "frequency_ghz": 2.0, "points": []},
                "target": {"cores": 48}} trailing"#,
            r#"{"measurements": {"app_name": "x", "frequency_ghz": 2.0, "points": [}"#,
        ] {
            assert_eq!(
                decode_predict_request(body).map(|_| ()),
                tree_predict(body).map(|_| ()),
                "error diverged on {body:?}"
            );
        }
        for body in [
            r#"{"series": "a b", "points": []}"#,
            r#"{"series": "ok"}"#,
            r#"{"series": "ok", "frequency_ghz": -1, "points": []}"#,
            r#"{"series": "ok", "frequency_ghz": "fast", "points": []}"#,
        ] {
            assert_eq!(
                decode_ingest_request(body).map(|_| ()),
                tree_ingest(body).map(|_| ()),
                "error diverged on {body:?}"
            );
        }
        let bad_target = r#"{"cores": -1}"#;
        assert_eq!(
            decode_target_spec(bad_target).map(|_| ()),
            Json::parse(bad_target)
                .map_err(WireError)
                .and_then(|v| target_spec_from_json(&v))
                .map(|_| ()),
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
        let body = estima_error_to_json(&EstimaError::NoStallCategories).render();
        let decoded = Json::parse(&body).unwrap();
        let error = decoded.get("error").unwrap();
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
