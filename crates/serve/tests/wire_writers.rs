//! The response writers of `estima_serve::wire` are the only encoders of
//! their objects, so nothing else can vouch for their bytes. Two checks pin
//! them:
//!
//! - *Literal fixtures.* Values built by hand, without the predictor, must
//!   be written as expected strings spelled out here: signed zero, the
//!   smallest subnormal, `1e21`, `u32::MAX` cores, NaN as `null`, escaped
//!   and non-ASCII strings, empty and non-empty lists, and every opt-in
//!   field present and absent.
//! - *The canonical check*, on the fixtures and on real predictions and
//!   plans: the body parses and renders back to itself, and every number
//!   read back from the parsed tree carries the struct's exact bits.

use estima_core::json::Json;
use estima_core::prelude::*;
use estima_core::CategoryExtrapolation;
use estima_serve::wire;

/// The canonical check: `body` parses and renders back to itself.
fn canonical(body: &str) -> Json {
    let parsed = Json::parse(body).unwrap_or_else(|e| panic!("{e}: {body}"));
    assert_eq!(parsed.render(), body, "writer output is not canonical JSON");
    parsed
}

/// The value under `key` of `object`.
fn field<'a>(object: &'a Json, key: &str) -> &'a Json {
    object.get(key).unwrap_or_else(|| panic!("missing `{key}`"))
}

/// A number as the wire carries it: its bits, or `None` for the non-finite
/// values written as `null`.
fn wire_bits(n: f64) -> Option<u64> {
    n.is_finite().then(|| n.to_bits())
}

fn read_bits(value: &Json) -> Option<u64> {
    match value {
        Json::Null => None,
        number => Some(number.as_f64().expect("a number or null").to_bits()),
    }
}

/// The numbers under `keys` of `object` carry `expected`'s bits.
fn check_numbers(object: &Json, keys: &[&str], expected: &[f64]) {
    let read: Vec<_> = keys
        .iter()
        .map(|key| read_bits(field(object, key)))
        .collect();
    let expected: Vec<_> = expected.iter().map(|n| wire_bits(*n)).collect();
    assert_eq!(read, expected, "{keys:?}");
}

/// The array under `key`, which must hold `len` items.
fn items<'a>(object: &'a Json, key: &str, len: usize) -> &'a [Json] {
    let items = object.get(key).and_then(Json::as_array).unwrap();
    assert_eq!(items.len(), len, "{key}");
    items
}

fn check_interval(read: &Json, interval: &ConfidenceInterval) {
    let bounds = [interval.lo, interval.hi, interval.spread];
    check_numbers(read, &["lo", "hi", "spread"], &bounds);
}

fn check_report(read: &Json, report: &BottleneckReport) {
    let entries = items(read, "entries", report.entries.len());
    for (read, entry) in entries.iter().zip(&report.entries) {
        let numbers = [entry.predicted_cycles, entry.share, entry.growth_factor];
        check_numbers(
            read,
            &["predicted_cycles", "share", "growth_factor"],
            &numbers,
        );
    }
}

/// Canonical check of a body written by `write_prediction_response`.
fn check_prediction(body: &str, prediction: &Prediction, diagnosis: Option<&BottleneckReport>) {
    let parsed = canonical(body);
    let bits = |series: &[(u32, f64)]| -> Vec<(u32, u64)> {
        series.iter().map(|(c, v)| (*c, v.to_bits())).collect()
    };
    for (key, series) in [
        ("predicted_time", &prediction.predicted_time),
        ("stalls_per_core", &prediction.stalls_per_core),
        ("measured_time", &prediction.measured_time),
    ] {
        let read = wire::series_from_json(field(&parsed, key)).unwrap();
        assert_eq!(bits(&read), bits(series), "{key}");
    }
    check_numbers(
        &parsed,
        &["factor_correlation"],
        &[prediction.factor_correlation],
    );
    let categories = items(&parsed, "categories", prediction.categories.len());
    for (read, category) in categories.iter().zip(&prediction.categories) {
        let params = items(read, "params", category.curve.params.len());
        for (read, param) in params.iter().zip(&category.curve.params) {
            assert_eq!(read_bits(read), wire_bits(*param), "param");
        }
        let at_target = category.at(prediction.target_cores).unwrap_or(f64::NAN);
        check_numbers(read, &["extrapolated_at_target"], &[at_target]);
    }
    match (parsed.get("confidence"), &prediction.confidence) {
        (Some(read), Some(interval)) => check_interval(read, interval),
        (read, interval) => assert!(read.is_none() && interval.is_none()),
    }
    match (parsed.get("bottleneck"), diagnosis) {
        (Some(read), Some(report)) => check_report(read, report),
        (read, report) => assert!(read.is_none() && report.is_none()),
    }
}

/// Canonical check of a body written by `write_plan`.
fn check_plan(body: &str, plan: &MeasurementPlan) {
    let parsed = canonical(body);
    check_interval(field(&parsed, "confidence"), &plan.confidence);
    check_report(field(&parsed, "bottleneck"), &plan.bottleneck);
    let suggestions = items(&parsed, "suggestions", plan.suggestions.len());
    for (read, suggestion) in suggestions.iter().zip(&plan.suggestions) {
        let keys = ["cores", "expected_spread", "expected_reduction"];
        let numbers = [
            f64::from(suggestion.cores),
            suggestion.expected_spread,
            suggestion.expected_reduction,
        ];
        check_numbers(read, &keys, &numbers);
    }
}

fn curve(kernel: KernelKind, params: Vec<f64>) -> FittedCurve {
    FittedCurve {
        kernel,
        params,
        checkpoint_rmse: 0.0,
        training_rmse: 0.0,
        training_points: 3,
    }
}

/// `5e-324`, the smallest subnormal, as `Display` writes it.
fn tiny() -> String {
    format!("0.{}5", "0".repeat(323))
}

/// A prediction over the edge cases: `-0`, `5e-324`, `1e21`, `u32::MAX`
/// cores, a NaN correlation, a category whose series stops short of the
/// target (its value there is `null`), empty params, and a name needing a
/// quote, a backslash and a control-char escape beside non-ASCII.
fn edge_prediction() -> Prediction {
    let category = |category, curve, extrapolated| CategoryExtrapolation {
        category,
        curve,
        measured: vec![(1, 4.0)],
        extrapolated,
    };
    Prediction {
        app_name: "q\"b\\s\u{1f}é".to_string(),
        measured_cores: 2,
        target_cores: 3,
        categories: vec![
            category(
                StallCategory::backend("rob_full"),
                curve(KernelKind::Rat22, vec![1.5, -0.0, 5e-324, 1e21, -2.5e-7]),
                vec![(1, 10.0), (2, 20.0), (3, 30.5)],
            ),
            category(
                StallCategory::software("lock\tspin"),
                curve(KernelKind::CubicLn, vec![]),
                vec![(1, 4.0)],
            ),
        ],
        stalls_per_core: vec![(1, 0.5), (2, -0.0), (3, 5e-324)],
        scaling_factor: curve(KernelKind::ExpRat, vec![2.0]),
        factor_correlation: f64::NAN,
        predicted_time: vec![(1, 2.0), (2, 1e21), (u32::MAX, 0.25)],
        measured_time: vec![(1, 2.0), (2, 1.0)],
        confidence: None,
    }
}

/// A prediction with no categories, to carry the opt-in extras.
fn small_prediction(confidence: Option<ConfidenceInterval>) -> Prediction {
    Prediction {
        app_name: "small".to_string(),
        measured_cores: 1,
        target_cores: 2,
        categories: vec![],
        stalls_per_core: vec![(1, 1.0), (2, 1.5)],
        scaling_factor: curve(KernelKind::Poly25, vec![]),
        factor_correlation: 1.0,
        predicted_time: vec![(1, 4.0), (2, 2.5)],
        measured_time: vec![(1, 4.0)],
        confidence,
    }
}

/// `small_prediction`'s bytes up to its extras and closing brace.
const SMALL: &str = r#"{"app_name":"small","measured_cores":1,"target_cores":2,"predicted_scaling_limit":2,"factor_correlation":1,"scaling_factor_kernel":"Poly25","predicted_time":[[1,4],[2,2.5]],"stalls_per_core":[[1,1],[2,1.5]],"measured_time":[[1,4]],"categories":[]"#;

fn report(with_entries: bool) -> BottleneckReport {
    let entry = |category, predicted_cycles, share, growth_factor| BottleneckEntry {
        category,
        predicted_cycles,
        share,
        growth_factor,
    };
    BottleneckReport {
        app_name: "not on the wire".to_string(),
        at_cores: 48,
        entries: match with_entries {
            true => vec![
                entry(StallCategory::software("stm.aborts"), 1e21, 0.75, -0.0),
                entry(StallCategory::frontend("icache"), 5e-324, 0.25, 3.0),
            ],
            false => vec![],
        },
    }
}

const REPORT: &str = r#"{"at_cores":48,"dominant":"sw:stm.aborts","entries":[{"category":"sw:stm.aborts","predicted_cycles":1000000000000000000000,"share":0.75,"growth_factor":-0},{"category":"fe:icache","predicted_cycles":TINY,"share":0.25,"growth_factor":3}]}"#;
const EMPTY_REPORT: &str = r#"{"at_cores":48,"dominant":null,"entries":[]}"#;

#[test]
fn prediction_writer_matches_literal_fixtures() {
    let prediction = edge_prediction();
    let mut body = String::new();
    wire::write_prediction(&prediction, &mut body);
    let expected = r#"{"app_name":"q\"b\\s\u001fé","measured_cores":2,"target_cores":3,"predicted_scaling_limit":4294967295,"factor_correlation":null,"scaling_factor_kernel":"ExpRat","predicted_time":[[1,2],[2,1000000000000000000000],[4294967295,0.25]],"stalls_per_core":[[1,0.5],[2,-0],[3,TINY]],"measured_time":[[1,2],[2,1]],"categories":[{"source":"hw_backend","name":"rob_full","kernel":"Rat22","params":[1.5,-0,TINY,1000000000000000000000,-0.00000025],"extrapolated_at_target":30.5},{"source":"software","name":"lock\tspin","kernel":"CubicLn","params":[],"extrapolated_at_target":null}]}"#;
    assert_eq!(body, expected.replace("TINY", &tiny()));
    check_prediction(&body, &prediction, None);
}

#[test]
fn extended_prediction_writer_matches_literal_fixtures() {
    let interval = ConfidenceInterval {
        lo: 0.0,
        hi: 2.5,
        spread: 2.5,
    };
    let confidence = r#","confidence":{"lo":0,"hi":2.5,"spread":2.5}"#;
    let (full, empty) = (report(true), report(false));
    let full_bytes = REPORT.replace("TINY", &tiny());
    for (interval, diagnosis, extras) in [
        (None, None, String::new()),
        (Some(interval), None, confidence.to_string()),
        (
            None,
            Some(&empty),
            format!(",\"bottleneck\":{EMPTY_REPORT}"),
        ),
        (
            Some(interval),
            Some(&full),
            format!("{confidence},\"bottleneck\":{full_bytes}"),
        ),
    ] {
        let prediction = small_prediction(interval);
        let mut body = String::new();
        wire::write_prediction_response(&prediction, diagnosis, &mut body);
        assert_eq!(body, format!("{SMALL}{extras}}}"));
        check_prediction(&body, &prediction, diagnosis);
    }
}

#[test]
fn plan_writer_matches_literal_fixtures() {
    let mut plan = MeasurementPlan {
        app_name: "plan \"ü\"".to_string(),
        measured_cores: 12,
        target_cores: 4096,
        confidence: ConfidenceInterval {
            lo: 0.0,
            hi: 1e21,
            spread: 1e21,
        },
        bottleneck: report(false),
        suggestions: vec![],
    };
    let head = r#"{"app_name":"plan \"ü\"","measured_cores":12,"target_cores":4096,"confidence":{"lo":0,"hi":1000000000000000000000,"spread":1000000000000000000000},"bottleneck":"#;
    let mut body = String::new();
    wire::write_plan(&plan, &mut body);
    assert_eq!(body, format!("{head}{EMPTY_REPORT},\"suggestions\":[]}}"));
    check_plan(&body, &plan);

    let suggestion = |cores, expected_spread, expected_reduction, rationale: &str| PlanSuggestion {
        cores,
        expected_spread,
        expected_reduction,
        rationale: rationale.to_string(),
    };
    plan.bottleneck = report(true);
    plan.suggestions = vec![
        suggestion(16, 0.5, -0.0, "measure\n\"16\""),
        suggestion(u32::MAX, 5e-324, 0.125, "ß"),
    ];
    let suggestions = r#"[{"cores":16,"expected_spread":0.5,"expected_reduction":-0,"rationale":"measure\n\"16\""},{"cores":4294967295,"expected_spread":TINY,"expected_reduction":0.125,"rationale":"ß"}]"#;
    let expected = format!("{head}{REPORT},\"suggestions\":{suggestions}}}");
    body.clear();
    wire::write_plan(&plan, &mut body);
    assert_eq!(body, expected.replace("TINY", &tiny()));
    check_plan(&body, &plan);
}

#[test]
fn error_and_batch_writers_match_literal_fixtures() {
    let mut body = String::new();
    let message = "needs \"escaping\"\n\tand \\ control \u{1} bytes, ü";
    wire::write_error("not_found", message, &mut body);
    let expected = r#"{"error":{"code":"not_found","message":"needs \"escaping\"\n\tand \\ control \u0001 bytes, ü"}}"#;
    assert_eq!(body, expected);
    let parsed = canonical(&body);
    assert_eq!(
        field(field(&parsed, "error"), "message").as_str(),
        Some(message)
    );

    // A batch answers each job in order: a prediction, or the error body
    // with code `prediction_failed` and the pipeline error's text.
    let failure = EstimaError::InvalidMeasurement {
        cores: 4,
        detail: "exec_time \"NaN\"".to_string(),
    };
    body.clear();
    wire::write_batch_results(&[Ok(small_prediction(None)), Err(failure)], &mut body);
    let error = r#"{"error":{"code":"prediction_failed","message":"invalid measurement at 4 cores: exec_time \"NaN\""}}"#;
    let expected = format!("{{\"results\":[{{\"prediction\":{SMALL}}}}},{error}]}}");
    assert_eq!(body, expected);
    canonical(&body);

    body.clear();
    wire::write_batch_results(&[], &mut body);
    assert_eq!(body, r#"{"results":[]}"#);
}

/// A demo-shaped set whose values vary with `seed` (an LCG).
fn seeded_set(seed: u64) -> MeasurementSet {
    let mut state = seed;
    let mut noise = move || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        1.0 + ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 0.05
    };
    let mut set = MeasurementSet::new(format!("seeded-{seed}"), 2.1);
    for cores in 1..=8u32 {
        let n = f64::from(cores);
        set.push(
            Measurement::new(cores, (20.0 / n + 0.5) * noise())
                .with_stall(
                    StallCategory::backend("rob_full"),
                    1.0e9 * (1.0 + 0.1 * n * n) * noise(),
                )
                .with_stall(StallCategory::backend("ls_full"), 4.0e8 * n * noise())
                .with_stall(StallCategory::software("lock_spin"), 1.0e7 * n * noise()),
        );
    }
    set
}

#[test]
fn real_predictions_and_plans_pass_the_canonical_check() {
    let estima = Estima::new(EstimaConfig::default().with_parallelism(1));
    let planner = Planner::new(&estima);
    for seed in 1..=3 {
        let set = seeded_set(seed);
        for cores in [12, 48, 4096] {
            let target = TargetSpec::cores(cores);
            let prediction = estima.predict(&set, &target).unwrap();
            let mut body = String::new();
            wire::write_prediction(&prediction, &mut body);
            check_prediction(&body, &prediction, None);
            if seed > 1 {
                continue;
            }
            // The jackknife is the costly part: one seed carries the extras.
            let (prediction, _) = planner.confidence(&set, &target).unwrap();
            let report = BottleneckReport::from_prediction(&prediction, cores);
            body.clear();
            wire::write_prediction_response(&prediction, Some(&report), &mut body);
            check_prediction(&body, &prediction, Some(&report));
            let plan = planner.plan(&set, &target, 3).unwrap();
            body.clear();
            wire::write_plan(&plan, &mut body);
            check_plan(&body, &plan);
        }
    }
}
