//! Differential tests of the streaming request decoders: for every body,
//! `wire::decode_*(text)` must give exactly what `Json::parse` plus that
//! request's tree decoder gives — the same decoded value down to the sign
//! of a zero, or the same error message.
//!
//! Canonical predict, ingest, series-predict and plan bodies (with and
//! without their optional fields and flags) are mutated: truncated at every
//! byte, bytes replaced from a JSON-punctuation alphabet, fields duplicated
//! and reordered, key characters written as `\u00XX` escapes, and number
//! tokens swapped for edge values. Outcomes are compared through their
//! `Debug` text, which tells `-0.0` from `0.0`. A panic anywhere fails the
//! test.
//!
//! The randomness is a hand-rolled xorshift generator with fixed seeds, so
//! failures replay exactly.

use estima_core::json::Json;
use estima_core::prelude::*;
use estima_serve::wire::{self, WireError};

/// Deterministic xorshift64* generator (no RNG crates in this workspace).
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> XorShift {
        XorShift(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform-ish draw in `0..bound` (bound > 0).
    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

/// The request bodies with a streaming decoder.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Predict,
    Ingest,
    SeriesPredict,
    Plan,
}

/// `Json::parse` + a tree decoder: the reference outcome.
fn tree<T>(
    text: &str,
    decode: fn(&Json) -> std::result::Result<T, WireError>,
) -> std::result::Result<T, WireError> {
    decode(&Json::parse(text)?)
}

/// Decode `text` both ways and require identical outcomes.
fn assert_agree(kind: Kind, text: &str) {
    let (fast, reference) = match kind {
        Kind::Predict => (
            format!("{:?}", wire::decode_predict_request(text)),
            format!("{:?}", tree(text, wire::predict_request_from_json)),
        ),
        Kind::Ingest => (
            format!("{:?}", wire::decode_ingest_request(text)),
            format!("{:?}", tree(text, wire::ingest_request_from_json)),
        ),
        Kind::SeriesPredict => (
            format!("{:?}", wire::decode_series_predict_request(text)),
            format!("{:?}", tree(text, wire::series_predict_request_from_json)),
        ),
        Kind::Plan => (
            format!("{:?}", wire::decode_plan_request(text)),
            format!("{:?}", tree(text, wire::plan_request_from_json)),
        ),
    };
    assert_eq!(fast, reference, "{kind:?} decoders diverged on {text:?}");
}

fn points() -> Vec<Measurement> {
    (1..=3u32)
        .map(|cores| {
            let n = f64::from(cores);
            let point = Measurement::new(cores, 12.0 / n + 0.5)
                .with_stall(StallCategory::backend("rob_full"), 2.0e8 * n * n)
                .with_stall(StallCategory::software("lock_spin"), 1.5e6 * n);
            if cores == 2 {
                point.with_memory_footprint(1 << 20)
            } else {
                point
            }
        })
        .collect()
}

/// Canonical bodies of every kind, with and without optional fields.
fn canonical_bodies() -> Vec<(Kind, String)> {
    let mut set = MeasurementSet::new("diff-é", 2.1);
    for point in points() {
        set.push(point);
    }
    let plain = TargetSpec::cores(48);
    let full = TargetSpec::cores(32)
        .with_frequency_ghz(2.8)
        .with_dataset_scale(2.0);
    let series = SeriesId::new("diff-1").unwrap();
    let mut bodies = vec![
        (
            Kind::Predict,
            wire::predict_request_to_json(&set, &plain).render(),
        ),
        (
            Kind::Predict,
            wire::predict_request_to_json(&set, &full).render(),
        ),
        (
            Kind::Ingest,
            wire::ingest_request_to_json(&series, Some(2.1), &points()).render(),
        ),
        (
            Kind::Ingest,
            wire::ingest_request_to_json(&series, None, &points()[..1]).render(),
        ),
    ];
    let targets = [
        wire::target_spec_to_json(&plain).render(),
        wire::target_spec_to_json(&full).render(),
    ];
    for target in &targets {
        bodies.push((Kind::SeriesPredict, target.clone()));
        bodies.push((Kind::Plan, target.clone()));
    }
    for flags in [
        r#"{"cores":48,"confidence":true}"#,
        r#"{"cores":48,"diagnosis":true}"#,
        r#"{"cores":48,"dataset_scale":1,"confidence":false,"diagnosis":true}"#,
    ] {
        bodies.push((Kind::SeriesPredict, flags.to_string()));
    }
    for suggestions in [
        r#"{"cores":48,"suggestions":5}"#,
        r#"{"suggestions":8,"cores":12}"#,
    ] {
        bodies.push((Kind::Plan, suggestions.to_string()));
    }
    bodies
}

#[derive(Clone, Copy)]
enum Token {
    Key,
    Scalar,
}

/// The keys and the scalar number/literal tokens of a compact body, as
/// byte ranges (a key range covers the key's contents, without quotes).
fn tokens(text: &str) -> Vec<(Token, usize, usize)> {
    let bytes = text.as_bytes();
    let mut found = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => {
                let start = i + 1;
                i = start;
                while i < bytes.len() && bytes[i] != b'"' {
                    i += if bytes[i] == b'\\' { 2 } else { 1 };
                }
                if bytes.get(i + 1) == Some(&b':') {
                    found.push((Token::Key, start, i));
                }
                i += 1;
            }
            b'-' | b'0'..=b'9' | b't' | b'f' | b'n' => {
                let start = i;
                while i < bytes.len() && !matches!(bytes[i], b',' | b']' | b'}') {
                    i += 1;
                }
                found.push((Token::Scalar, start, i));
            }
            _ => i += 1,
        }
    }
    found
}

fn splice(text: &str, start: usize, end: usize, with: &str) -> String {
    format!("{}{with}{}", &text[..start], &text[end..])
}

/// Write every char of `key` (or only the `only`-th) as a `\u00XX` escape.
fn escape_key(key: &str, only: Option<usize>, upper: bool) -> String {
    key.chars()
        .enumerate()
        .map(|(index, c)| match only {
            Some(chosen) if chosen != index => c.to_string(),
            _ if upper => format!("\\u{:04X}", c as u32),
            _ => format!("\\u{:04x}", c as u32),
        })
        .collect()
}

/// Number tokens swapped in for every scalar: signed zero, overflow, just
/// past `u32`, just past 2^53, a fraction, and the wrong types.
const SWAPS: [&str; 7] = [
    "-0",
    "1e400",
    "4294967296",
    "9007199254740993",
    "1.5",
    "null",
    "\"1\"",
];

/// Bytes substituted at random positions.
const PUNCTUATION: &[u8] = b"{}[]:,\"\\ -+.eE0179tfn";

/// Reorder every object's fields, and sometimes duplicate one of them
/// (with its own value or a wrong-typed one) at a random position.
fn shake(value: &Json, rng: &mut XorShift) -> Json {
    match value {
        Json::Array(items) => Json::Array(items.iter().map(|item| shake(item, rng)).collect()),
        Json::Object(fields) => {
            let mut fields: Vec<(String, Json)> = fields
                .iter()
                .map(|(key, value)| (key.clone(), shake(value, rng)))
                .collect();
            for i in (1..fields.len()).rev() {
                fields.swap(i, rng.below(i + 1));
            }
            if !fields.is_empty() && rng.below(2) == 0 {
                let (key, original) = fields[rng.below(fields.len())].clone();
                let duplicate = match rng.below(4) {
                    0 => original,
                    1 => Json::Null,
                    2 => Json::Number(-0.0),
                    _ => Json::String("1".to_string()),
                };
                fields.insert(rng.below(fields.len() + 1), (key, duplicate));
            }
            Json::Object(fields)
        }
        scalar => scalar.clone(),
    }
}

/// Apply one random token-level mutation (an escaped key or a swapped
/// scalar) to `text`.
fn mutate_token(text: &str, rng: &mut XorShift) -> String {
    let found = tokens(text);
    let (token, start, end) = found[rng.below(found.len())];
    match token {
        Token::Key => {
            let key = &text[start..end];
            let only = (rng.below(2) == 0).then(|| rng.below(key.chars().count().max(1)));
            splice(text, start, end, &escape_key(key, only, rng.below(2) == 0))
        }
        Token::Scalar => splice(text, start, end, SWAPS[rng.below(SWAPS.len())]),
    }
}

/// Every mutant of `body` the test decodes.
fn mutants(body: &str, rng: &mut XorShift) -> Vec<String> {
    let mut out = vec![body.to_string()];
    out.extend(
        (0..body.len())
            .filter(|&end| body.is_char_boundary(end))
            .map(|end| body[..end].to_string()),
    );
    for _ in 0..400 {
        let at = rng.below(body.len());
        if body.is_char_boundary(at) && body.is_char_boundary(at + 1) {
            let with = PUNCTUATION[rng.below(PUNCTUATION.len())] as char;
            out.push(splice(body, at, at + 1, &with.to_string()));
        }
    }
    for (token, start, end) in tokens(body) {
        match token {
            Token::Key => {
                let key = &body[start..end];
                out.push(splice(body, start, end, &escape_key(key, None, false)));
                for only in 0..key.chars().count() {
                    out.push(splice(body, start, end, &escape_key(key, Some(only), true)));
                }
            }
            Token::Scalar => {
                out.extend(SWAPS.iter().map(|swap| splice(body, start, end, swap)));
            }
        }
    }
    let parsed = Json::parse(body).unwrap();
    for _ in 0..200 {
        let mut mutant = shake(&parsed, rng).render();
        for _ in 0..rng.below(3) {
            mutant = mutate_token(&mutant, rng);
        }
        out.push(mutant);
    }
    out
}

#[test]
fn streaming_decoders_agree_with_the_tree_decoders_on_mutated_bodies() {
    let mut rng = XorShift::new(0x5eed_d1ff);
    let mut decoded = 0;
    for (kind, body) in canonical_bodies() {
        for mutant in mutants(&body, &mut rng) {
            assert_agree(kind, &mutant);
            decoded += 1;
        }
    }
    assert!(decoded > 10_000, "only {decoded} bodies decoded");
}

#[test]
fn escaped_flag_keys_decode_as_the_flags() {
    // Keys compare after unescaping, on the fast path as on the tree.
    let cases = [
        (
            Kind::SeriesPredict,
            r#"{"cores":32,"confid\u0065nce":true}"#,
        ),
        (Kind::SeriesPredict, r#"{"cores":32,"di\u0061gnosis":true}"#),
        (Kind::Plan, r#"{"cores":32,"sugg\u0065stions":0}"#),
        (Kind::Plan, r#"{"cores":32,"\u0073uggestions":5}"#),
        (
            Kind::Predict,
            r#"{"measurements":{"app_name":"x","frequency_ghz":2,"points":[]},"target":{"c\u006fres":4}}"#,
        ),
    ];
    for (kind, body) in cases {
        assert_agree(kind, body);
    }
    let (_, extras) = wire::decode_series_predict_request(cases[0].1).unwrap();
    assert!(extras.confidence);
    assert!(wire::decode_plan_request(cases[2].1).is_err());
    assert_eq!(wire::decode_plan_request(cases[3].1).unwrap().1, 5);
}
