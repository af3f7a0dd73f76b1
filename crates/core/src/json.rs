//! A minimal JSON value tree, parser and serializer.
//!
//! The build container has no `serde_json`, but two subsystems need a real
//! JSON implementation: the experiment-metrics gate in `estima-bench`
//! (parsing `reproduce --json` summaries) and the `estima-serve` HTTP wire
//! format (both directions). This module is the single shared machinery —
//! a recursive-descent parser and a compact serializer over one [`Json`]
//! value enum. See DESIGN.md § *Serving layer* for the wire format built on
//! top of it.
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
//! `reproduce --json` encodes NaN metrics.
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
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Number(n) => write_json_number(*n, out),
            Json::String(s) => render_string(s, out),
            Json::Array(items) => {
                out.push('[');
                for (index, item) in items.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Object(fields) => {
                out.push('{');
                for (index, (key, value)) in fields.iter().enumerate() {
                    if index > 0 {
                        out.push(',');
                    }
                    render_string(key, out);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
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
        match self {
            Json::Number(n) => f64_as_u64(*n),
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

/// Append `s` as a JSON string literal (quoted, escaped) to `out`. Public
/// so hand-rolled serializers (the serve wire format's allocation-free
/// writers) emit strings byte-identical to [`Json::render`].
pub fn write_json_string(s: &str, out: &mut String) {
    render_string(s, out);
}

/// Append `n` as a JSON number to `out`: for a finite value, exactly the
/// bytes of `format!("{n}")` (shortest round trip, no exponent, `-0` for
/// `-0.0`), and `null` otherwise. [`Json::render`] writes every
/// `Json::Number` through it (which covers WAL frames, snapshots and the
/// `reproduce --json` summaries), and so do the serve wire format's direct
/// writers. The digits come from a Ryū generator rather than `core::fmt`;
/// `crates/core/tests/json_number.rs` pins it against `format!("{n}")`.
pub fn write_json_number(n: f64, out: &mut String) {
    if n.is_finite() {
        number::write_finite(n, out);
    } else {
        out.push_str("null");
    }
}

/// The `u64` interpretation of a JSON number, shared by [`Json::as_u64`]
/// and [`JsonReader`] consumers: non-negative integral values up to 2^53
/// (the exact-integer limit of an `f64`).
pub fn f64_as_u64(n: f64) -> Option<u64> {
    (n >= 0.0 && n.fract() == 0.0 && n <= 2f64.powi(53)).then_some(n as u64)
}

/// Render a string with the escapes required by RFC 8259 (quote, backslash,
/// and control characters; multi-byte UTF-8 passes through unescaped).
///
/// Each run of bytes that needs no escape is copied with one `push_str`. A
/// byte needs an escape when it is below 0x20, `"` or `\`; every byte of a
/// multi-byte UTF-8 char is at least 0x80, so a run always ends on a char
/// boundary.
fn render_string(s: &str, out: &mut String) {
    use std::fmt::Write as _;
    out.push('"');
    let mut run = 0;
    for (i, &byte) in s.as_bytes().iter().enumerate() {
        if byte >= 0x20 && byte != b'"' && byte != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        match byte {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{byte:04x}");
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Maximum container nesting the parser accepts. The parser recurses once
/// per `[`/`{`, so untrusted input (the `estima-serve` wire) must be
/// depth-bounded or a body of brackets overflows the thread stack and
/// aborts the process. 128 is far beyond any legitimate document of the
/// formats this workspace speaks (the wire format nests 5 deep).
const MAX_DEPTH: usize = 128;

#[derive(Debug)]
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
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

    fn parse_number(&mut self) -> Result<Json, String> {
        self.parse_number_f64().map(Json::Number)
    }

    fn parse_number_f64(&mut self) -> Result<f64, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|n| n.is_finite())
            .ok_or_else(|| self.error("invalid number"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        let mut out = String::new();
        self.parse_string_into(&mut out)?;
        Ok(out)
    }

    /// Parse a string literal, appending its decoded contents to `out` —
    /// the streaming [`JsonReader`] path reuses one buffer across keys
    /// instead of allocating a `String` per string.
    fn parse_string_into(&mut self, out: &mut String) -> Result<(), String> {
        self.expect(b'"')?;
        loop {
            match self.bytes.get(self.pos) {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
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
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("invalid \\u escape"))?;
                            self.pos += 4;
                            if (0xDC00..=0xDFFF).contains(&hex) {
                                return Err(self.error("unpaired low surrogate in \\u escape"));
                            }
                            let code = if (0xD800..=0xDBFF).contains(&hex) {
                                // UTF-16 surrogate pair: a high surrogate
                                // must be immediately followed by an
                                // escaped low surrogate (RFC 8259 §8.2).
                                if self.bytes.get(self.pos + 1) != Some(&b'\\')
                                    || self.bytes.get(self.pos + 2) != Some(&b'u')
                                {
                                    return Err(self.error(
                                        "high surrogate not followed by \\u low surrogate",
                                    ));
                                }
                                let low = self
                                    .bytes
                                    .get(self.pos + 3..self.pos + 7)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                                    .filter(|low| (0xDC00..=0xDFFF).contains(low))
                                    .ok_or_else(|| {
                                        self.error(
                                            "high surrogate not followed by \\u low surrogate",
                                        )
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
                Some(&byte) => {
                    // Multi-byte UTF-8 sequences pass through unmodified.
                    let len = utf8_len(byte);
                    let chunk = self
                        .bytes
                        .get(self.pos..self.pos + len)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or_else(|| self.error("invalid UTF-8"))?;
                    out.push_str(chunk);
                    self.pos += len;
                }
            }
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

    /// Syntactically validate and discard one value — same grammar, depth
    /// cap and error positions as [`Parser::parse_value`], but nothing is
    /// built. String contents land in `scratch` (reused so skipping stays
    /// allocation-free once the buffer is warm).
    fn skip_value(&mut self, scratch: &mut String) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => {
                self.expect(b'{')?;
                self.descend()?;
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                loop {
                    scratch.clear();
                    self.parse_string_into(scratch)?;
                    self.expect(b':')?;
                    self.skip_value(scratch)?;
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            self.depth -= 1;
                            return Ok(());
                        }
                        _ => return Err(self.error("expected `,` or `}`")),
                    }
                }
            }
            Some(b'[') => {
                self.expect(b'[')?;
                self.descend()?;
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(());
                }
                loop {
                    self.skip_value(scratch)?;
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            self.depth -= 1;
                            return Ok(());
                        }
                        _ => return Err(self.error("expected `,` or `]`")),
                    }
                }
            }
            Some(b'"') => {
                scratch.clear();
                self.parse_string_into(scratch)
            }
            Some(b't') => self.parse_literal("true", Json::Bool(true)).map(|_| ()),
            Some(b'f') => self.parse_literal("false", Json::Bool(false)).map(|_| ()),
            Some(b'n') => self.parse_literal("null", Json::Null).map(|_| ()),
            Some(_) => self.parse_number_f64().map(|_| ()),
            None => Err(self.error("unexpected end of input")),
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
            self.skip_ws();
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

/// A pull-style streaming reader over the same grammar (and with the same
/// strictness: number/string syntax, depth cap, trailing-input rejection) as
/// [`Json::parse`], for decoders that know the shape they expect and want to
/// skip the intermediate [`Json`] tree — the serve wire format's request
/// hot path.
///
/// The caller drives the traversal: enter a container with
/// [`JsonReader::begin_object`] / [`JsonReader::begin_array`], then iterate
/// with [`JsonReader::next_key`] / [`JsonReader::next_element`] (passing a
/// caller-owned `first` flag per container, so containers nest without the
/// reader keeping a stack), reading each value with one of the `*_value`
/// methods or discarding it with [`JsonReader::skip_value`]. Finish the
/// document with [`JsonReader::finish`].
///
/// ```
/// use estima_core::json::JsonReader;
///
/// let mut reader = JsonReader::new(r#"{"cores": 48, "extra": [1, 2]}"#);
/// let mut key = String::new();
/// let mut cores = None;
/// reader.begin_object().unwrap();
/// let mut first = true;
/// while reader.next_key(&mut first, &mut key).unwrap() {
///     match key.as_str() {
///         "cores" => cores = Some(reader.u64_value().unwrap()),
///         _ => reader.skip_value().unwrap(),
///     }
/// }
/// reader.finish().unwrap();
/// assert_eq!(cores, Some(48));
/// ```
#[derive(Debug)]
pub struct JsonReader<'a> {
    parser: Parser<'a>,
    /// Reusable sink for the contents of skipped strings.
    scratch: String,
}

impl<'a> JsonReader<'a> {
    /// Start reading `text` from the beginning.
    pub fn new(text: &'a str) -> Self {
        JsonReader {
            parser: Parser::new(text),
            scratch: String::new(),
        }
    }

    /// Consume the `{` opening an object (counting nesting depth).
    pub fn begin_object(&mut self) -> Result<(), String> {
        self.parser.expect(b'{')?;
        self.parser.descend()
    }

    /// Advance to the next key of the current object, filling `key` with its
    /// decoded contents and consuming the `:`. Returns `false` once the
    /// closing `}` is consumed. `*first` must start `true` for each object
    /// (the reader flips it); the flag is what distinguishes "before the
    /// first key" from "after a value, expecting `,` or `}`".
    pub fn next_key(&mut self, first: &mut bool, key: &mut String) -> Result<bool, String> {
        if std::mem::take(first) {
            if self.parser.peek() == Some(b'}') {
                self.parser.pos += 1;
                self.parser.depth -= 1;
                return Ok(false);
            }
        } else {
            match self.parser.peek() {
                Some(b',') => self.parser.pos += 1,
                Some(b'}') => {
                    self.parser.pos += 1;
                    self.parser.depth -= 1;
                    return Ok(false);
                }
                _ => return Err(self.parser.error("expected `,` or `}`")),
            }
        }
        key.clear();
        self.parser.parse_string_into(key)?;
        self.parser.expect(b':')?;
        Ok(true)
    }

    /// Consume the `[` opening an array (counting nesting depth).
    pub fn begin_array(&mut self) -> Result<(), String> {
        self.parser.expect(b'[')?;
        self.parser.descend()
    }

    /// Advance to the next element of the current array: `true` means a
    /// value follows (read or skip it before calling again), `false` that
    /// the closing `]` was consumed. `*first` works as in
    /// [`JsonReader::next_key`].
    pub fn next_element(&mut self, first: &mut bool) -> Result<bool, String> {
        if std::mem::take(first) {
            if self.parser.peek() == Some(b']') {
                self.parser.pos += 1;
                self.parser.depth -= 1;
                return Ok(false);
            }
            return Ok(true);
        }
        match self.parser.peek() {
            Some(b',') => {
                self.parser.pos += 1;
                Ok(true)
            }
            Some(b']') => {
                self.parser.pos += 1;
                self.parser.depth -= 1;
                Ok(false)
            }
            _ => Err(self.parser.error("expected `,` or `]`")),
        }
    }

    /// Read a number value.
    pub fn f64_value(&mut self) -> Result<f64, String> {
        self.parser.parse_number_f64()
    }

    /// Read a number value under the [`f64_as_u64`] interpretation
    /// (non-negative, integral, ≤ 2^53).
    pub fn u64_value(&mut self) -> Result<u64, String> {
        let n = self.f64_value()?;
        f64_as_u64(n).ok_or_else(|| self.parser.error("expected a non-negative integer"))
    }

    /// Read a string value, replacing the contents of `out`.
    pub fn string_value(&mut self, out: &mut String) -> Result<(), String> {
        out.clear();
        self.parser.parse_string_into(out)
    }

    /// Syntactically validate and discard one value of any kind (unknown or
    /// duplicate fields must still be well-formed JSON, exactly as under
    /// [`Json::parse`]).
    pub fn skip_value(&mut self) -> Result<(), String> {
        self.parser.skip_value(&mut self.scratch)
    }

    /// Assert the document is complete: nothing but whitespace may remain,
    /// mirroring [`Json::parse`]'s trailing-input rejection.
    pub fn finish(mut self) -> Result<(), String> {
        self.parser.skip_ws();
        if self.parser.pos < self.parser.bytes.len() {
            return Err(self.parser.error("trailing characters after document"));
        }
        Ok(())
    }
}

fn utf8_len(first_byte: u8) -> usize {
    match first_byte {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
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

    /// Drive a [`JsonReader`] over `text` decoding the `{"a": [numbers...],
    /// "s": string}` shape, skipping everything else.
    fn read_shape(text: &str) -> Result<(Vec<f64>, String), String> {
        let mut reader = JsonReader::new(text);
        let mut key = String::new();
        let mut numbers = Vec::new();
        let mut s = String::new();
        reader.begin_object()?;
        let mut first = true;
        while reader.next_key(&mut first, &mut key)? {
            match key.as_str() {
                "a" => {
                    reader.begin_array()?;
                    let mut afirst = true;
                    while reader.next_element(&mut afirst)? {
                        numbers.push(reader.f64_value()?);
                    }
                }
                "s" => reader.string_value(&mut s)?,
                _ => reader.skip_value()?,
            }
        }
        reader.finish()?;
        Ok((numbers, s))
    }

    #[test]
    fn streaming_reader_decodes_without_a_tree() {
        let (numbers, s) = read_shape(
            r#" { "skip\"me" : {"nested": [1, {"x": null}], "b": true},
                 "a" : [ 1 , -2.5e1 , 3 ] , "s" : "héAllo" , "t": [] } "#,
        )
        .unwrap();
        assert_eq!(numbers, vec![1.0, -25.0, 3.0]);
        assert_eq!(s, "héAllo");
        // Empty containers.
        assert_eq!(
            read_shape(r#"{"a":[],"s":""}"#).unwrap(),
            (vec![], String::new())
        );
        assert_eq!(read_shape("{}").unwrap(), (vec![], String::new()));
    }

    #[test]
    fn streaming_reader_is_as_strict_as_the_tree_parser() {
        // Every document the reader accepts or rejects must agree with
        // Json::parse: the serve fast path relies on "reader success implies
        // tree success" to keep responses byte-identical.
        for text in [
            r#"{"a": [1, 2]}"#,
            r#"{"a": [1 2]}"#,
            r#"{"a": [1,]}"#,
            r#"{"s": "open}"#,
            r#"{"a": []} trailing"#,
            r#"{"k": 1"#,
            r#"{"k": nul}"#,
            "{\"k\": 1}}",
        ] {
            assert_eq!(
                read_shape(text).is_ok(),
                Json::parse(text).is_ok(),
                "strictness diverged on {text:?}"
            );
        }
        // Shape mismatches are the one place the reader is *stricter* than
        // the tree (it errors where a tree decoder would just see the wrong
        // variant) — callers fall back to the tree path there, so stricter
        // is safe; laxer would not be.
        assert!(read_shape("[1]").is_err() && Json::parse("[1]").is_ok());
        // The depth cap guards skip_value too: a bracket bomb inside a
        // skipped field must error, not overflow the stack.
        let bomb = format!(r#"{{"skip": {}}}"#, "[".repeat(100_000));
        assert!(read_shape(&bomb).unwrap_err().contains("nesting"));
    }

    #[test]
    fn u64_values_share_the_tree_interpretation() {
        for (text, expected) in [
            ("42", Some(42)),
            ("42.0", Some(42)),
            ("1.5", None),
            ("-1", None),
            ("1e300", None),
        ] {
            let mut reader = JsonReader::new(text);
            let via_reader = reader.u64_value().ok();
            let via_tree = Json::parse(text).ok().and_then(|v| v.as_u64());
            assert_eq!(via_reader, via_tree, "diverged on {text}");
            assert_eq!(via_reader, expected);
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
