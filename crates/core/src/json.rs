//! A minimal JSON value tree, parser and serializer.
//!
//! The build container has no `serde_json`, but two subsystems need a real
//! JSON implementation: the experiment-metrics gate in `estima-bench`
//! (parsing `reproduce --json` summaries) and the `estima-serve` HTTP wire
//! format (both directions). This module is the single shared machinery —
//! a recursive-descent parser and a compact serializer over one [`Json`]
//! value enum. Every decoder in the workspace reads the parsed tree: the
//! wire's request decoders and the write-ahead log both call
//! [`Json::parse`] and then walk the [`Json`] value, so one grammar, one
//! set of error offsets and one duplicate-key rule (the first key wins)
//! serve every reader. See DESIGN.md § *Serving layer* for the wire format
//! built on top of it.
//!
//! # Writers
//!
//! Every JSON writer of the workspace appends bytes to a `Vec<u8>`: the
//! three scalar writers below, [`Json::render_bytes`], and the serve wire
//! format's direct writers. A document is checked as UTF-8 once, where it
//! becomes a `String` ([`append_utf8`]), not once per number or string;
//! the check cannot fail, because writers append only the bytes of `&str`s
//! and ASCII.
//!
//! # Number fidelity
//!
//! Finite `f64` values are written by [`write_json_number`], the one number
//! writer of the workspace: it emits exactly the bytes of Rust's
//! shortest-round-trip `Display` formatting, so `Json::Number(x).render()`
//! parses back to exactly `x` — bit-for-bit. This is what lets
//! `estima-serve` guarantee that predictions served over HTTP are
//! byte-identical to in-process results. Non-finite numbers (`NaN`, ±∞) have
//! no JSON representation and are rendered as `null`, mirroring how
//! `reproduce --json` encodes NaN metrics. A count is written by
//! [`write_json_uint`], which writes its digits directly: below 2^53 these
//! are exactly the bytes `write_json_number` writes for it as an `f64`.
//!
//! ```
//! use estima_core::json::Json;
//!
//! let value = Json::parse(r#"{"cores": 48, "name": "demo"}"#).unwrap();
//! assert_eq!(value.get("cores").and_then(Json::as_f64), Some(48.0));
//! assert_eq!(value.get("name").and_then(Json::as_str), Some("demo"));
//! let round_tripped = Json::parse(&value.render()).unwrap();
//! assert_eq!(round_tripped, value);
//! ```

use std::fmt::Display;

mod number;

/// A JSON value: the full JSON data model, with objects kept in insertion
/// order (rendering is therefore deterministic).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also the encoding of non-finite numbers).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number. Always finite after parsing; a non-finite value renders as
    /// `null`.
    Number(f64),
    /// A string.
    String(String),
    /// An ordered array.
    Array(Vec<Json>),
    /// An object: key/value pairs in insertion order. Duplicate keys are kept
    /// as parsed; [`Json::get`] returns the first match.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Parse a JSON document. Returns a message with the byte offset of the
    /// first error. Trailing non-whitespace input is rejected.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser::new(text);
        let value = parser.parse_value()?;
        parser.skip_ws();
        if parser.pos < parser.bytes.len() {
            return Err(parser.error("trailing characters after document"));
        }
        Ok(value)
    }

    /// Render the value as compact JSON (no whitespace). Finite numbers use
    /// shortest-round-trip formatting; non-finite numbers render as `null`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// [`Json::render`] into a caller-provided buffer — the allocation-free
    /// serve hot path appends into a reusable per-connection `String`
    /// instead of materialising a fresh one per response.
    pub fn render_into(&self, out: &mut String) {
        append_utf8(out, |out| self.render_bytes(out));
    }

    /// [`Json::render`] as bytes appended to `out`: the renderer itself,
    /// which the write-ahead log calls to render a record straight into its
    /// frame.
    pub fn render_bytes(&self, out: &mut Vec<u8>) {
        match self {
            Json::Null => out.extend_from_slice(b"null"),
            Json::Bool(b) => out.extend_from_slice(if *b { &b"true"[..] } else { b"false" }),
            Json::Number(n) => write_json_number(*n, out),
            Json::String(s) => write_json_string(s, out),
            Json::Array(items) => {
                out.push(b'[');
                for (index, item) in items.iter().enumerate() {
                    if index > 0 {
                        out.push(b',');
                    }
                    item.render_bytes(out);
                }
                out.push(b']');
            }
            Json::Object(fields) => {
                out.push(b'{');
                for (index, (key, value)) in fields.iter().enumerate() {
                    if index > 0 {
                        out.push(b',');
                    }
                    write_json_string(key, out);
                    out.push(b':');
                    value.render_bytes(out);
                }
                out.push(b'}');
            }
        }
    }

    /// First value under `key` when this is an object, else `None`.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a `u64`, if this is a non-negative integral number that
    /// fits (JSON has no integer type; 2^53 is the exact-integer limit).
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::Number(n) if n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53) => Some(n as u64),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// True for `Json::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

/// Let `write` append a JSON document's bytes to `out`, then check them as
/// UTF-8 once: the one place a writer's bytes become text. Taking the
/// `String`'s buffer and giving it back allocates nothing, so a body
/// written into a buffer already at capacity allocates nothing at all.
pub fn append_utf8(out: &mut String, write: impl FnOnce(&mut Vec<u8>)) {
    let mut bytes = std::mem::take(out).into_bytes();
    write(&mut bytes);
    // Cannot fail: `out` was a `String`, and every writer appends only the
    // bytes of `&str`s and ASCII.
    *out = String::from_utf8(bytes).expect("JSON writers append UTF-8");
}

/// Append `s` as a JSON string literal (quoted, escaped) to `out`: the one
/// string writer, which [`Json::render_bytes`] and the serve wire format's
/// allocation-free writers share.
pub fn write_json_string(s: &str, out: &mut Vec<u8>) {
    out.push(b'"');
    write_escaped(s, out);
    out.push(b'"');
}

/// Append `n` as a JSON number to `out`: for a finite value, exactly the
/// bytes of `format!("{n}")` (shortest round trip, no exponent, `-0` for
/// `-0.0`), and `null` otherwise. [`Json::render`] writes every
/// `Json::Number` through it (which covers WAL frames, snapshots and the
/// `reproduce --json` summaries), and so do the serve wire format's direct
/// writers. The digits come from a Ryū generator rather than `core::fmt`;
/// `crates/core/tests/json_number.rs` pins it against `format!("{n}")`.
pub fn write_json_number(n: f64, out: &mut Vec<u8>) {
    if n.is_finite() {
        number::write_finite(n, out);
    } else {
        out.extend_from_slice(b"null");
    }
}

/// Append the count `n` as a JSON number: its decimal digits, exactly
/// `format!("{n}")`. Below 2^53 that is what [`write_json_number`] writes
/// for `n as f64`, without the float path (pinned by
/// `crates/core/tests/json_number.rs`); the serve wire format writes every
/// core count and `retry_after_ms` through it.
pub fn write_json_uint(n: u64, out: &mut Vec<u8>) {
    number::write_uint(n, out);
}

// Field readers of the tree decoders (the serve wire format and
// `Measurement::from_json`). Each error names the field and its `context`
// (the path of the enclosing object), e.g. "points[2]: missing field
// `cores`". A context is any `Display`, so a caller can pass
// `&format_args!("points[{index}]")` and the path is only formatted when
// an error message is.

/// The value under `key`, or a `missing field` error.
pub fn require<'a>(value: &'a Json, key: &str, context: &dyn Display) -> Result<&'a Json, String> {
    value
        .get(key)
        .ok_or_else(|| format!("{context}: missing field `{key}`"))
}

/// The number under `key`.
pub fn require_f64(value: &Json, key: &str, context: &dyn Display) -> Result<f64, String> {
    require(value, key, context)?
        .as_f64()
        .ok_or_else(|| format!("{context}: field `{key}` must be a number"))
}

/// The number under `key` as a `u32` ([`Json::as_u64`], then in range).
pub fn require_u32(value: &Json, key: &str, context: &dyn Display) -> Result<u32, String> {
    require(value, key, context)?
        .as_u64()
        .and_then(|n| u32::try_from(n).ok())
        .ok_or_else(|| format!("{context}: field `{key}` must be a non-negative integer"))
}

/// The string under `key`.
pub fn require_str<'a>(
    value: &'a Json,
    key: &str,
    context: &dyn Display,
) -> Result<&'a str, String> {
    require(value, key, context)?
        .as_str()
        .ok_or_else(|| format!("{context}: field `{key}` must be a string"))
}

/// Append the body of `s`'s string literal, without its quotes: `s` with
/// the escapes RFC 8259 requires (quote, backslash, and control
/// characters; multi-byte UTF-8 passes through unescaped).
///
/// Each run of bytes that needs no escape is copied in one piece. A byte
/// needs an escape when it is below 0x20, `"` or `\`; every byte of a
/// multi-byte UTF-8 char is at least 0x80, so a run always ends on a char
/// boundary and the output stays UTF-8.
pub(crate) fn write_escaped(s: &str, out: &mut Vec<u8>) {
    let bytes = s.as_bytes();
    let mut run = 0;
    for (i, &byte) in bytes.iter().enumerate() {
        if byte >= 0x20 && byte != b'"' && byte != b'\\' {
            continue;
        }
        out.extend_from_slice(&bytes[run..i]);
        match byte {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            _ => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.extend_from_slice(b"\\u00");
                out.push(HEX[usize::from(byte >> 4)]);
                out.push(HEX[usize::from(byte & 0xf)]);
            }
        }
        run = i + 1;
    }
    out.extend_from_slice(&bytes[run..]);
}

/// Maximum container nesting the parser accepts. The parser recurses once
/// per `[`/`{`, so untrusted input (the `estima-serve` wire) must be
/// depth-bounded or a body of brackets overflows the thread stack and
/// aborts the process. 128 is far beyond any legitimate document of the
/// formats this workspace speaks (the wire format nests 5 deep).
const MAX_DEPTH: usize = 128;

#[derive(Debug)]
struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    /// Bump the nesting depth on container entry, failing past [`MAX_DEPTH`].
    fn descend(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error("nesting deeper than 128 levels"));
        }
        Ok(())
    }

    fn error(&self, message: &str) -> String {
        format!("JSON parse error at byte {}: {message}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Json::String(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", Json::Bool(true)),
            Some(b'f') => self.parse_literal("false", Json::Bool(false)),
            Some(b'n') => self.parse_literal("null", Json::Null),
            Some(_) => self.parse_number(),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_literal(&mut self, literal: &str, value: Json) -> Result<Json, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{literal}`")))
        }
    }

    /// Parse a number: the longest run of number bytes, which must match
    /// RFC 8259's grammar and be finite. A bad run fails at its end.
    fn parse_number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let token = &self.text[start..self.pos];
        Some(token)
            .filter(|token| is_rfc_number(token.as_bytes()))
            .and_then(|token| token.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .map(Json::Number)
            .ok_or_else(|| self.error("invalid number"))
    }

    /// The code unit of the four ASCII hex digits at `at`, if they are.
    fn hex4(&self, at: usize) -> Option<u32> {
        let digits = self.bytes.get(at..at + 4)?;
        digits
            .iter()
            .try_fold(0, |code, b| Some(code << 4 | char::from(*b).to_digit(16)?))
    }

    /// Parse a string literal. Each run of bytes up to the next `"` or `\`
    /// is copied with one `push_str`: both stop bytes are ASCII, so every run
    /// of the (already valid UTF-8) input ends on a char boundary.
    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(run) = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                self.pos = self.bytes.len();
                return Err(self.error("unterminated string"));
            };
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(out);
            }
            match self.bytes.get(self.pos) {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'b') => out.push('\u{8}'),
                Some(b'f') => out.push('\u{c}'),
                Some(b'u') => {
                    let hex = self
                        .hex4(self.pos + 1)
                        .ok_or_else(|| self.error("invalid \\u escape"))?;
                    self.pos += 4;
                    if (0xDC00..=0xDFFF).contains(&hex) {
                        return Err(self.error("unpaired low surrogate in \\u escape"));
                    }
                    let code = if (0xD800..=0xDBFF).contains(&hex) {
                        // UTF-16 surrogate pair: a high surrogate must be
                        // immediately followed by an escaped low surrogate
                        // (RFC 8259 §8.2).
                        if self.bytes.get(self.pos + 1) != Some(&b'\\')
                            || self.bytes.get(self.pos + 2) != Some(&b'u')
                        {
                            return Err(
                                self.error("high surrogate not followed by \\u low surrogate")
                            );
                        }
                        let low = self
                            .hex4(self.pos + 3)
                            .filter(|low| (0xDC00..=0xDFFF).contains(low))
                            .ok_or_else(|| {
                                self.error("high surrogate not followed by \\u low surrogate")
                            })?;
                        self.pos += 6;
                        0x10000 + ((hex - 0xD800) << 10) + (low - 0xDC00)
                    } else {
                        hex
                    };
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                _ => return Err(self.error("invalid escape")),
            }
            self.pos += 1;
        }
    }

    fn parse_array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        self.descend()?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        self.descend()?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Object(fields));
        }
        loop {
            let key = self.parse_string()?;
            self.expect(b':')?;
            fields.push((key, self.parse_value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }
}

/// Whether `token` is a number by RFC 8259's grammar:
/// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`.
fn is_rfc_number(token: &[u8]) -> bool {
    let digits = |at: usize| {
        token[at..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count()
    };
    let mut at = usize::from(token.first() == Some(&b'-'));
    match token.get(at) {
        Some(b'0') => at += 1,
        Some(b'1'..=b'9') => at += digits(at),
        _ => return false,
    }
    if token.get(at) == Some(&b'.') {
        let fraction = digits(at + 1);
        if fraction == 0 {
            return false;
        }
        at += 1 + fraction;
    }
    if matches!(token.get(at), Some(b'e' | b'E')) {
        at += 1;
        if matches!(token.get(at), Some(b'+' | b'-')) {
            at += 1;
        }
        let exponent = digits(at);
        if exponent == 0 {
            return false;
        }
        at += exponent;
    }
    at == token.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_value_kinds() {
        let value = Json::parse(
            r#"{"null": null, "flag": true, "off": false, "n": -2.5e3,
                "text": "a\n\"b\" é", "items": [1, 2, []], "nested": {}}"#,
        )
        .unwrap();
        assert!(value.get("null").unwrap().is_null());
        assert_eq!(value.get("flag").and_then(Json::as_bool), Some(true));
        assert_eq!(value.get("off").and_then(Json::as_bool), Some(false));
        assert_eq!(value.get("n").and_then(Json::as_f64), Some(-2500.0));
        assert_eq!(value.get("text").and_then(Json::as_str), Some("a\n\"b\" é"));
        assert_eq!(
            value.get("items").and_then(Json::as_array).unwrap().len(),
            3
        );
        assert!(value
            .get("nested")
            .and_then(Json::as_object)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn depth_cap_rejects_bracket_bombs_without_overflowing() {
        // Network input: a body of brackets must produce an error, not a
        // stack overflow that aborts the process.
        let bomb = "[".repeat(100_000);
        let error = Json::parse(&bomb).unwrap_err();
        assert!(error.contains("nesting"), "{error}");
        let object_bomb = "{\"k\":".repeat(100_000);
        assert!(Json::parse(&object_bomb).unwrap_err().contains("nesting"));
        // Depth is per-branch, not cumulative: many shallow siblings and a
        // 127-deep chain both stay well within the cap.
        let wide = format!("[{}]", vec!["[[]]"; 1000].join(","));
        assert!(Json::parse(&wide).is_ok());
        let deep = format!("{}{}", "[".repeat(127), "]".repeat(127));
        assert!(Json::parse(&deep).is_ok());
        assert!(Json::parse(&format!("{}{}", "[".repeat(129), "]".repeat(129))).is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{\"a\":").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("\"open").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("1 2").is_err(), "trailing input must fail");
    }

    #[test]
    fn render_parse_round_trips_structure() {
        let text = r#"{"id":"t","metrics":{"a":0.25,"b":null},"list":[1,true,"x\\y"]}"#;
        let value = Json::parse(text).unwrap();
        assert_eq!(Json::parse(&value.render()).unwrap(), value);
        // Compact rendering of an already-compact document is identity.
        assert_eq!(value.render(), text);
    }

    #[test]
    fn numbers_round_trip_bit_exactly() {
        for &x in &[
            0.0,
            -0.0,
            1.0 / 3.0,
            6.02214076e23,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            123_456_789.123_456_78,
            -2.0 * f64::from_bits(1), // subnormal
        ] {
            let rendered = Json::Number(x).render();
            let Json::Number(back) = Json::parse(&rendered).unwrap() else {
                panic!("{rendered} did not parse as a number");
            };
            assert_eq!(back.to_bits(), x.to_bits(), "{x:?} -> {rendered}");
        }
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        assert_eq!(Json::Number(f64::NAN).render(), "null");
        assert_eq!(Json::Number(f64::INFINITY).render(), "null");
        assert_eq!(
            Json::Array(vec![Json::Number(f64::NAN), Json::Number(1.0)]).render(),
            "[null,1]"
        );
    }

    #[test]
    fn surrogate_pairs_decode_and_lone_surrogates_fail() {
        // A standard encoder with ASCII-only output (e.g. Python's default
        // json.dumps) escapes non-BMP characters as surrogate pairs.
        assert_eq!(
            Json::parse(r#""rocket \ud83d\ude80""#).unwrap(),
            Json::String("rocket 🚀".into())
        );
        assert!(Json::parse(r#""\ud83d""#).is_err(), "lone high surrogate");
        assert!(Json::parse(r#""\ude80""#).is_err(), "lone low surrogate");
        assert!(
            Json::parse(r#""\ud83dA""#).is_err(),
            "high surrogate followed by non-surrogate"
        );
    }

    #[test]
    fn strings_escape_controls_and_round_trip() {
        let original = "tab\there \"quoted\" back\\slash\nnewline \u{1} é 🚀";
        let rendered = Json::String(original.into()).render();
        assert_eq!(
            Json::parse(&rendered).unwrap(),
            Json::String(original.into())
        );
    }

    #[test]
    fn strings_copy_runs_between_escapes() {
        assert_eq!(
            Json::parse(r#""plain é 🚀""#).unwrap(),
            Json::String("plain é 🚀".into())
        );
        assert_eq!(
            Json::parse(r#""\"a\\b\/c\u00e9\nd""#).unwrap(),
            Json::String("\"a\\b/cé\nd".into())
        );
        assert_eq!(Json::parse(r#""""#).unwrap(), Json::String(String::new()));
        // Error offsets: the end of input for an unterminated string, the
        // byte after the backslash for a bad escape.
        assert_eq!(
            Json::parse(r#""abé"#).unwrap_err(),
            "JSON parse error at byte 5: unterminated string"
        );
        assert_eq!(
            Json::parse(r#""ab\"#).unwrap_err(),
            "JSON parse error at byte 4: invalid escape"
        );
        assert_eq!(
            Json::parse(r#""a\qb""#).unwrap_err(),
            "JSON parse error at byte 3: invalid escape"
        );
    }

    #[test]
    fn malformed_containers_fail_at_the_first_bad_byte() {
        for (text, error) in [
            (
                r#"{"a":[1 2]}"#,
                "JSON parse error at byte 8: expected `,` or `]`",
            ),
            ("[1,]", "JSON parse error at byte 3: invalid number"),
            (
                r#"{"k": 1}}"#,
                "JSON parse error at byte 8: trailing characters after document",
            ),
        ] {
            assert_eq!(Json::parse(text).unwrap_err(), error, "{text}");
        }
        // The depth cap holds inside a field too: a bracket bomb under a key
        // fails on nesting instead of overflowing the stack.
        let bomb = format!(r#"{{"skip": {}}}"#, "[".repeat(100_000));
        assert!(Json::parse(&bomb).unwrap_err().contains("nesting"));
    }

    #[test]
    fn numbers_follow_the_rfc_8259_grammar() {
        // Accepted forms parse from the same slice as before, so their bits
        // are `str::parse`'s.
        for text in [
            "0", "-0", "0.5", "1e5", "1E+5", "-1.5e-3", "48", "2.1", "10", "0e0", "-0.0E-0",
        ] {
            let Json::Number(n) = Json::parse(text).unwrap() else {
                panic!("{text} did not parse as a number");
            };
            assert_eq!(
                n.to_bits(),
                text.parse::<f64>().unwrap().to_bits(),
                "{text}"
            );
        }
        // Rejected forms fail at the end of the number run, with the same
        // text as any other bad number.
        for text in [
            "+48", "048", "-048", "00", "-", "--1", "48.", ".5", "-.5", "1.e5", "1e", "1e+", "1E-",
            "1.5.2", "1e5e5", "1e5.0", "1-2", "0+", "-+1",
        ] {
            assert_eq!(
                Json::parse(text).unwrap_err(),
                format!("JSON parse error at byte {}: invalid number", text.len()),
                "{text}"
            );
        }
        assert_eq!(
            Json::parse(r#"{"cores":+48}"#).unwrap_err(),
            "JSON parse error at byte 12: invalid number"
        );
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(
            Json::parse(r#""\u004F\u004f""#).unwrap(),
            Json::String("OO".into())
        );
        for text in [
            r#""\u+04f""#,
            r#""\u-04f""#,
            r#""\u 04f""#,
            r#""\u04g0""#,
            r#""\u04f""#,
        ] {
            assert_eq!(
                Json::parse(text).unwrap_err(),
                "JSON parse error at byte 2: invalid \\u escape",
                "{text}"
            );
        }
    }

    /// Every integer field the tree decoders read (core counts, footprints,
    /// suggestion counts) goes through [`Json::as_u64`].
    #[test]
    fn u64_values_share_the_tree_interpretation() {
        for (text, expected) in [
            ("42", Some(42)),
            ("42.0", Some(42)),
            ("1.5", None),
            ("-1", None),
            ("1e300", None),
        ] {
            assert_eq!(Json::parse(text).unwrap().as_u64(), expected, "{text}");
        }
    }

    #[test]
    fn get_and_accessors_are_type_safe() {
        let value = Json::parse(r#"{"a": 1, "b": "s"}"#).unwrap();
        assert_eq!(value.get("a").and_then(Json::as_u64), Some(1));
        assert!(value.get("b").and_then(Json::as_f64).is_none());
        assert!(value.get("missing").is_none());
        assert!(Json::Number(1.5).as_u64().is_none());
        assert!(Json::Number(-1.0).as_u64().is_none());
        assert_eq!(Json::Number(42.0).as_u64(), Some(42));
    }
}
