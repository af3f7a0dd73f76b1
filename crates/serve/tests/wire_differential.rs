//! The request decoders on a mutated corpus, in process and over HTTP.
//!
//! Canonical predict, ingest, series-predict and plan bodies (with and
//! without their optional fields and flags) are mutated: truncated at every
//! byte, bytes replaced from a JSON-punctuation alphabet, fields duplicated
//! and reordered, key characters written as `\u00XX` escapes, and number
//! tokens swapped for edge values.
//!
//! In process, every `wire::decode_*` outcome is pinned: its `Debug` text
//! (which tells `-0.0` from `0.0`, and carries every error message) is
//! hashed in corpus order, so any change to what a body decodes to, or to
//! a 400 text, changes the digest. Over HTTP, the same corpus goes through
//! a loopback server on one keep-alive connection: every body the decoder
//! rejects must get a `400 bad_request` carrying exactly the decoder's
//! message, and every body it accepts a 2xx or a structured 4xx, never a
//! 5xx, a hang or a dropped connection. A panic anywhere fails the test.
//!
//! The randomness is a hand-rolled xorshift generator with fixed seeds, so
//! failures replay exactly.

use estima_core::json::Json;
use estima_core::prelude::*;
use estima_serve::wire::{self, WireError};
use estima_serve::{Client, Server, ServerConfig};

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

/// The request bodies with a `decode_*` function.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Predict,
    Ingest,
    SeriesPredict,
    Plan,
}

/// The `decode_*` outcome of `text`: its `Debug` text, and whether the
/// body was accepted or the error it was rejected with.
fn outcome(kind: Kind, text: &str) -> (String, std::result::Result<(), WireError>) {
    fn show<T: std::fmt::Debug>(
        decoded: std::result::Result<T, WireError>,
    ) -> (String, std::result::Result<(), WireError>) {
        (format!("{decoded:?}"), decoded.map(drop))
    }
    match kind {
        Kind::Predict => show(wire::decode_predict_request(text)),
        Kind::Ingest => show(wire::decode_ingest_request(text)),
        Kind::SeriesPredict => show(wire::decode_series_predict_request(text)),
        Kind::Plan => show(wire::decode_plan_request(text)),
    }
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

/// FNV-1a-64 of `bytes`, continuing from `hash`.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[test]
fn mutated_corpus_outcomes_match_the_pinned_digest() {
    let mut rng = XorShift::new(0x5eed_d1ff);
    let mut hash = 0xcbf2_9ce4_8422_2325;
    let (mut ok, mut err) = (0, 0);
    for (kind, body) in canonical_bodies() {
        for mutant in mutants(&body, &mut rng) {
            let (text, verdict) = outcome(kind, &mutant);
            hash = fnv1a(hash, text.as_bytes());
            hash = fnv1a(hash, b"\n");
            if verdict.is_ok() {
                ok += 1;
            } else {
                err += 1;
            }
        }
    }
    assert_eq!(
        (format!("{hash:016x}"), ok, err),
        ("f2d54cdd1171c045".to_string(), 4369, 7354)
    );
}

#[test]
fn escaped_flag_keys_decode_as_the_flags() {
    // Keys compare after unescaping.
    let (_, extras) =
        wire::decode_series_predict_request(r#"{"cores":32,"confid\u0065nce":true}"#).unwrap();
    assert!(extras.confidence && !extras.diagnosis);
    let (_, extras) =
        wire::decode_series_predict_request(r#"{"cores":32,"di\u0061gnosis":true}"#).unwrap();
    assert!(extras.diagnosis && !extras.confidence);
    assert_eq!(
        wire::decode_plan_request(r#"{"cores":32,"sugg\u0065stions":0}"#),
        Err(WireError(
            "request: field `suggestions` must be an integer between 1 and 8".to_string()
        ))
    );
    assert_eq!(
        wire::decode_plan_request(r#"{"cores":32,"\u0073uggestions":5}"#)
            .unwrap()
            .1,
        5
    );
    let (_, target) = wire::decode_predict_request(
        r#"{"measurements":{"app_name":"x","frequency_ghz":2,"points":[]},"target":{"c\u006fres":4}}"#,
    )
    .unwrap();
    assert_eq!(target, TargetSpec::cores(4));
}

/// The route a corpus body of `kind` is posted to; the series routes name
/// the series [`mutated_corpus_over_http_answers_like_the_decoders`] seeds.
fn route(kind: Kind) -> &'static str {
    match kind {
        Kind::Predict => "/v1/predict",
        Kind::Ingest => "/v1/measurements",
        Kind::SeriesPredict => "/v1/series/http-seed/predict",
        Kind::Plan => "/v1/series/http-seed/plan",
    }
}

/// Most accepted bodies of one kind sent over HTTP. Every rejected body is
/// sent; an accepted one can cost a cold fit (series predict) or a cold
/// plan, so each kind sends an evenly spaced sample of its accepted bodies.
const ACCEPTED_PER_KIND: [usize; 4] = [usize::MAX, usize::MAX, 400, 300];

#[test]
fn mutated_corpus_over_http_answers_like_the_decoders() {
    let mut rng = XorShift::new(0x5eed_d1ff);
    let mut corpus = Vec::new();
    let mut accepted = [0usize; 4];
    for (kind, body) in canonical_bodies() {
        for mutant in mutants(&body, &mut rng) {
            let (_, verdict) = outcome(kind, &mutant);
            if verdict.is_ok() {
                accepted[kind as usize] += 1;
            }
            corpus.push((kind, mutant, verdict));
        }
    }
    let stride: Vec<usize> = (0..4)
        .map(|kind| accepted[kind].div_ceil(ACCEPTED_PER_KIND[kind]).max(1))
        .collect();

    let handle = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        reactor_threads: 1,
        ..ServerConfig::default()
    })
    .expect("bind loopback server")
    .spawn()
    .expect("spawn server reactors");
    let mut client = Client::connect(handle.addr()).expect("connect to test server");
    let seed: Vec<Measurement> = (1..=6u32)
        .map(|cores| {
            let n = f64::from(cores);
            Measurement::new(cores, 30.0 / n + 1.0)
                .with_stall(StallCategory::backend("rob_full"), 4.0e8 * (30.0 + n))
                .with_stall(StallCategory::software("lock_spin"), 1.0e7 * n * n)
        })
        .collect();
    let seed = wire::ingest_request_to_json(&SeriesId::new("http-seed").unwrap(), Some(2.1), &seed);
    let seeded = client
        .request("POST", "/v1/measurements", &seed.render())
        .unwrap();
    assert_eq!(seeded.status, 200, "{}", seeded.body);

    let mut sent = [[0usize; 2]; 4];
    let mut statuses = std::collections::BTreeMap::new();
    let mut seen = [0usize; 4];
    for (kind, body, decoded) in &corpus {
        let index = *kind as usize;
        if decoded.is_ok() {
            seen[index] += 1;
            if (seen[index] - 1) % stride[index] != 0 {
                continue;
            }
        }
        let response = client
            .request("POST", route(*kind), body)
            .unwrap_or_else(|e| panic!("{kind:?} body {body:?}: {e}"));
        let (status, reply) = (response.status, response.body);
        let parsed = Json::parse(&reply)
            .unwrap_or_else(|e| panic!("{kind:?} body {body:?}: unparsable reply {reply:?}: {e}"));
        let error = parsed.get("error");
        let field = |key| error.and_then(|e| e.get(key)).and_then(Json::as_str);
        match decoded {
            Err(WireError(message)) => {
                sent[index][1] += 1;
                assert_eq!(
                    (status, field("code"), field("message")),
                    (400, Some("bad_request"), Some(message.as_str())),
                    "{kind:?} body {body:?}"
                );
            }
            Ok(()) => {
                sent[index][0] += 1;
                *statuses.entry(status).or_insert(0usize) += 1;
                assert!(
                    (200..300).contains(&status)
                        || ((400..500).contains(&status)
                            && field("code").is_some()
                            && field("message").is_some()),
                    "{kind:?} body {body:?}: {status} {reply}"
                );
            }
        }
    }
    handle.shutdown();
    println!("accepted / rejected bodies sent per kind: {sent:?}; accepted replies by status: {statuses:?}");
    for (index, [ok, rejected]) in sent.iter().enumerate() {
        assert!(
            *ok > 0 && *rejected > 0,
            "kind {index} sent {ok} / {rejected}"
        );
    }
}
