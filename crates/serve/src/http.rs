//! A deliberately small HTTP/1.1 implementation over byte buffers: a
//! resumable request parser and a reusable response renderer, with no
//! transport of their own (the server's reactor owns the sockets).
//!
//! Only what the prediction service needs: request-line + header parsing,
//! `Content-Length` bodies, keep-alive connections, and fixed-status
//! responses. No chunked transfer encoding, no TLS, no HTTP/2 — clients that
//! need those sit behind a reverse proxy, which is how this service is meant
//! to be deployed anyway (see DESIGN.md § *Serving layer*).

use std::io::Write;

/// Largest accepted header block (request line + headers), in bytes.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Largest accepted request body, in bytes. Requests beyond this are
/// answered with `413 Payload Too Large`.
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// One parsed HTTP request, designed for reuse: [`parse_request_limited`]
/// refills an existing `Request` in place, so a keep-alive connection
/// parses every request after the first without allocating (method, path,
/// header and body buffers — including the per-header `String`s — keep
/// their capacity across requests; the server shrinks a body buffer beyond
/// 64 KiB back to that once its connection goes idle).
#[derive(Debug, Default)]
pub struct Request {
    /// Request method, upper-case as received (`GET`, `POST`, ...).
    pub method: String,
    /// Request target path, e.g. `/v1/predict` (any query string is kept).
    pub path: String,
    /// Header slots; only the first `header_count` are live for the current
    /// request. Dead slots keep their `String` capacity for reuse — they
    /// are never truncated away.
    headers: Vec<(String, String)>,
    /// Number of live header slots.
    header_count: usize,
    /// Request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// True when the client asked to close the connection after this
    /// exchange (`Connection: close`).
    pub close: bool,
}

impl Request {
    /// An empty request, ready for [`parse_request_limited`].
    pub fn new() -> Request {
        Request::default()
    }

    /// Headers of the current request as `(lower-cased name, value)` pairs
    /// in arrival order.
    pub fn headers(&self) -> &[(String, String)] {
        &self.headers[..self.header_count]
    }

    /// First header value under `name` (lower-case), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers()
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Reset to an empty request, keeping every buffer's capacity.
    fn clear(&mut self) {
        self.method.clear();
        self.path.clear();
        self.header_count = 0;
        self.body.clear();
        self.close = false;
    }
}

/// How long a connection may stay stalled mid-request or mid-response
/// before the server's stall sweep drops it.
pub const REQUEST_READ_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(10);

/// Outcome of a [`parse_request_limited`] attempt over a byte buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseStatus {
    /// A complete request was decoded into the `Request`. The first
    /// `consumed` bytes of the buffer belong to it; any remainder is the
    /// start of the next pipelined request.
    Complete {
        /// Wire bytes of this request (request line + headers + body).
        consumed: usize,
    },
    /// The buffer ends mid-request. Read more bytes, append, and call
    /// [`parse_request_limited`] again with the grown buffer.
    Partial,
}

/// Why [`parse_request_limited`] rejected a buffer.
#[derive(Debug)]
pub enum ParseError {
    /// The bytes cannot be a valid request (bad request line, bad header,
    /// header block over [`MAX_HEADER_BYTES`], bad `Content-Length`,
    /// unsupported transfer encoding). Answer 400 and close.
    Malformed(String),
    /// The declared body exceeds [`MAX_BODY_BYTES`]. Answer 413 and close.
    BodyTooLarge(usize),
}

/// Byte offset just past the next `\n` at or after `pos`, if any.
fn next_line(buf: &[u8], pos: usize) -> Option<usize> {
    buf[pos..]
        .iter()
        .position(|&b| b == b'\n')
        .map(|i| pos + i + 1)
}

/// Decode one header/request line as UTF-8, or fail `Malformed`.
fn line_as_str(buf: &[u8]) -> Result<&str, ParseError> {
    std::str::from_utf8(buf).map_err(|_| ParseError::Malformed("line is not valid UTF-8".into()))
}

/// Parse one request from the front of `buf` into a reusable [`Request`],
/// refusing a declared body over `max_body_bytes`.
///
/// The parser is resumable: it never blocks and holds no transport state,
/// so a connection that delivers a request over many partial reads just
/// re-runs it on the accumulated buffer until it reports
/// [`ParseStatus::Complete`]. Re-parsing from the start keeps
/// the parser stateless; header blocks are tiny, and the body — the bulk of
/// a large request — is only copied once, on completion.
///
/// The server passes its `--max-body-bytes` flag, at most the compiled-in
/// [`MAX_BODY_BYTES`], as the cap. It applies to the declared
/// `Content-Length`; a request over it is rejected with
/// [`ParseError::BodyTooLarge`] *before* any body byte is buffered.
///
/// On `Partial` or an error the contents of `request` are unspecified;
/// on `Complete` the request is fully populated and, once its buffers are
/// warm, was refilled without allocating (pinned by
/// `tests/serve_alloc.rs`).
pub fn parse_request_limited(
    buf: &[u8],
    request: &mut Request,
    max_body_bytes: usize,
) -> Result<ParseStatus, ParseError> {
    request.clear();

    // Request line.
    let Some(mut pos) = next_line(buf, 0) else {
        return if buf.len() >= MAX_HEADER_BYTES {
            Err(ParseError::Malformed("header block too large".into()))
        } else {
            Ok(ParseStatus::Partial)
        };
    };
    {
        let line = line_as_str(&buf[..pos])?;
        let mut parts = line.split_whitespace();
        let (method, path, version) = match (parts.next(), parts.next(), parts.next()) {
            (Some(m), Some(p), Some(v)) => (m, p, v),
            _ => return Err(ParseError::Malformed(format!("bad request line: {line:?}"))),
        };
        if !version.starts_with("HTTP/1.") {
            return Err(ParseError::Malformed(format!("unsupported {version}")));
        }
        request.method.push_str(method);
        request.path.push_str(path);
    }

    // Headers until the blank line, refilling the reusable slots in place.
    loop {
        if pos >= MAX_HEADER_BYTES {
            return Err(ParseError::Malformed("header block too large".into()));
        }
        let Some(end) = next_line(buf, pos) else {
            return if buf.len() >= MAX_HEADER_BYTES {
                Err(ParseError::Malformed("header block too large".into()))
            } else {
                Ok(ParseStatus::Partial)
            };
        };
        let line = line_as_str(&buf[pos..end])?;
        pos = end;
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        let Some((name, value)) = trimmed.split_once(':') else {
            return Err(ParseError::Malformed(format!("bad header: {trimmed:?}")));
        };
        if request.header_count == request.headers.len() {
            request.headers.push((String::new(), String::new()));
        }
        let (slot_name, slot_value) = &mut request.headers[request.header_count];
        slot_name.clear();
        for c in name.trim().chars() {
            slot_name.push(c.to_ascii_lowercase());
        }
        slot_value.clear();
        slot_value.push_str(value.trim());
        request.header_count += 1;
    }

    request.close = request
        .header("connection")
        .is_some_and(|v| v.eq_ignore_ascii_case("close"));

    // Only `Content-Length` bodies are implemented. A chunked body must be
    // rejected outright (the caller answers 400 and closes): ignoring it
    // would leave the chunk frames unread on the connection, to be parsed
    // as the next request line — a silent keep-alive desync.
    if request.header("transfer-encoding").is_some() {
        return Err(ParseError::Malformed(
            "transfer-encoding is not supported; send a content-length body".into(),
        ));
    }

    // Body, when a Content-Length was declared. A value that is not plain
    // digits, or two values that disagree, leave the framing ambiguous
    // (RFC 9112 §6.3); repeats of one value are accepted.
    let mut body_len = None;
    for (_, raw) in request.headers().iter().filter(|h| h.0 == "content-length") {
        let digits = raw.bytes().all(|b| b.is_ascii_digit());
        let len = raw.parse::<usize>().ok().filter(|_| digits);
        if len.is_none() || (body_len.is_some() && body_len != len) {
            let error = format!("bad or conflicting content-length: {raw:?}");
            return Err(ParseError::Malformed(error));
        }
        body_len = len;
    }
    let body_len = body_len.unwrap_or(0);
    if body_len > max_body_bytes {
        return Err(ParseError::BodyTooLarge(body_len));
    }
    let Some(body) = buf.get(pos..pos + body_len) else {
        return Ok(ParseStatus::Partial);
    };
    request.body.extend_from_slice(body);
    Ok(ParseStatus::Complete {
        consumed: pos + body_len,
    })
}

/// One HTTP response being assembled, designed for reuse: a handler sets
/// the status and appends the body, [`ResponseBuf::render_into`] builds the
/// head into an internal scratch buffer and appends head and body to the
/// connection's output. After the first response warms the buffers, a
/// keep-alive connection sends every further response without allocating
/// (pinned by `tests/serve_alloc.rs`).
#[derive(Debug)]
pub struct ResponseBuf {
    /// HTTP status code.
    pub status: u16,
    /// Value of the `Allow` header, emitted on `405 Method Not Allowed`
    /// responses (RFC 9110 §10.2.1 requires it), e.g. `"GET, DELETE"`.
    pub allow: Option<&'static str>,
    /// Value of the `Retry-After` header in seconds, emitted on `429 Too
    /// Many Requests` responses so throttled clients know when quota may
    /// free up.
    pub retry_after: Option<u64>,
    /// Response body. Every endpoint of this service speaks JSON text, so
    /// the body is a `String` that serializers append into directly.
    pub body: String,
    /// Head scratch, rebuilt by [`ResponseBuf::render_into`].
    head: Vec<u8>,
}

impl Default for ResponseBuf {
    fn default() -> Self {
        ResponseBuf::new()
    }
}

impl ResponseBuf {
    /// An empty 200 JSON response.
    pub fn new() -> ResponseBuf {
        ResponseBuf {
            status: 200,
            allow: None,
            retry_after: None,
            body: String::new(),
            head: Vec::new(),
        }
    }

    /// Reset to an empty 200 JSON response, keeping buffer capacity.
    pub fn reset(&mut self) {
        self.status = 200;
        self.allow = None;
        self.retry_after = None;
        self.body.clear();
    }

    /// Rebuild the head scratch for a response of the current status/body.
    /// Writing into a `Vec` is infallible, so this cannot fail.
    fn build_head(&mut self, close: bool) {
        self.head.clear();
        let _ = write!(
            self.head,
            "HTTP/1.1 {} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\n",
            self.status,
            reason(self.status),
            self.body.len(),
        );
        if let Some(methods) = self.allow {
            let _ = write!(self.head, "allow: {methods}\r\n");
        }
        if let Some(seconds) = self.retry_after {
            let _ = write!(self.head, "retry-after: {seconds}\r\n");
        }
        let _ = write!(
            self.head,
            "connection: {}\r\n\r\n",
            if close { "close" } else { "keep-alive" }
        );
    }

    /// Append the full wire image of the response (head then body) to
    /// `out`, with keep-alive unless `close` is set, returning the bytes
    /// appended. One buffer lets the caller hand the whole response to a
    /// single non-blocking write and resume from any partial-write offset
    /// without copying.
    pub fn render_into(&mut self, out: &mut Vec<u8>, close: bool) -> usize {
        self.build_head(close);
        out.extend_from_slice(&self.head);
        out.extend_from_slice(self.body.as_bytes());
        self.head.len() + self.body.len()
    }
}

/// Reason phrase for the status codes the service emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parse `raw` as exactly one complete request.
    fn parse(raw: &[u8]) -> Result<Request, ParseError> {
        let mut request = Request::new();
        let status = parse_request_limited(raw, &mut request, MAX_BODY_BYTES)?;
        assert_eq!(
            status,
            ParseStatus::Complete {
                consumed: raw.len()
            }
        );
        Ok(request)
    }

    #[test]
    fn parses_post_with_body_and_headers() {
        let request = parse(
            b"POST /v1/predict HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\
              Content-Type: application/json\r\n\r\nabcd",
        )
        .unwrap();
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/v1/predict");
        assert_eq!(request.body, b"abcd");
        assert_eq!(request.header("content-type"), Some("application/json"));
        assert!(!request.close);
    }

    #[test]
    fn parses_get_and_connection_close() {
        let request = parse(b"GET /v1/healthz HTTP/1.1\r\nConnection: Close\r\n\r\n").unwrap();
        assert_eq!(request.method, "GET");
        assert!(request.body.is_empty());
        assert!(request.close);
    }

    #[test]
    fn caps_newline_less_request_lines() {
        // A byte stream with no newline must be rejected once it exceeds
        // the header cap instead of growing memory without bound.
        let raw = vec![b'A'; MAX_HEADER_BYTES + 10];
        assert!(matches!(parse(&raw), Err(ParseError::Malformed(_))));
    }

    #[test]
    fn method_not_allowed_carries_the_allow_header() {
        let mut response = ResponseBuf::new();
        response.status = 405;
        response.allow = Some("GET, DELETE");
        response.body.push_str("{}");
        let mut wire = Vec::new();
        let written = response.render_into(&mut wire, true);
        assert_eq!(written, wire.len(), "render_into reports the wire bytes");
        let raw = String::from_utf8(wire).unwrap();
        assert!(
            raw.starts_with("HTTP/1.1 405 Method Not Allowed\r\n"),
            "{raw}"
        );
        assert!(raw.contains("\r\nallow: GET, DELETE\r\n"), "{raw}");
        // Plain responses must not grow an allow header.
        assert_eq!(ResponseBuf::new().allow, None);
    }

    #[test]
    fn reused_request_drops_stale_headers_and_body() {
        let raw = b"POST /v1/predict HTTP/1.1\r\nHost: x\r\nX-Extra: kept\r\n\
                    Content-Length: 4\r\n\r\nabcd\
                    GET /v1/healthz HTTP/1.1\r\n\r\n";
        let mut request = Request::new();
        let Ok(ParseStatus::Complete { consumed }) =
            parse_request_limited(raw, &mut request, MAX_BODY_BYTES)
        else {
            panic!("first pipelined request must complete");
        };
        assert_eq!(request.method, "POST");
        assert_eq!(request.headers().len(), 3);
        assert_eq!(request.body, b"abcd");
        // The second request reuses the same buffers; nothing from the
        // first may leak through.
        assert!(matches!(
            parse_request_limited(&raw[consumed..], &mut request, MAX_BODY_BYTES),
            Ok(ParseStatus::Complete { consumed: rest }) if consumed + rest == raw.len()
        ));
        assert_eq!(request.method, "GET");
        assert_eq!(request.path, "/v1/healthz");
        assert!(request.headers().is_empty());
        assert_eq!(request.header("x-extra"), None);
        assert!(request.body.is_empty());
    }

    #[test]
    fn limited_parser_enforces_the_configured_body_cap() {
        let raw = b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\n0123456789";
        let mut request = Request::new();
        assert!(matches!(
            parse_request_limited(raw, &mut request, 9),
            Err(ParseError::BodyTooLarge(10))
        ));
        assert!(matches!(
            parse_request_limited(raw, &mut request, 10),
            Ok(ParseStatus::Complete { consumed }) if consumed == raw.len()
        ));
        assert_eq!(request.body, b"0123456789");
    }

    #[test]
    fn too_many_requests_carries_the_retry_after_header() {
        let mut response = ResponseBuf::new();
        response.status = 429;
        response.retry_after = Some(7);
        response.body.push_str("{}");
        let mut wire = Vec::new();
        response.render_into(&mut wire, true);
        let raw = String::from_utf8(wire).unwrap();
        assert!(
            raw.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{raw}"
        );
        assert!(raw.contains("\r\nretry-after: 7\r\n"), "{raw}");
        // Plain responses must not grow a retry-after header, and reset
        // clears it.
        response.reset();
        assert_eq!(response.retry_after, None);
    }

    #[test]
    fn content_length_must_be_plain_digits_and_agree() {
        // Two values that disagree: taking either one leaves the other's
        // bytes to be read as the next request.
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\ncontent-length: 4\r\ncontent-length: 10\r\n\r\n0123456789"),
            Err(ParseError::Malformed(_))
        ));
        // A sign is not part of the grammar, though `usize::from_str`
        // takes one.
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\ncontent-length: +4\r\n\r\nabcd"),
            Err(ParseError::Malformed(_))
        ));
        // Repeats of one value frame the body as one value does.
        let request =
            parse(b"POST / HTTP/1.1\r\nContent-Length: 4\r\ncontent-length: 4\r\n\r\nabcd")
                .unwrap();
        assert_eq!(request.body, b"abcd");
    }

    #[test]
    fn rejects_garbage_and_oversized_bodies() {
        assert!(matches!(
            parse(b"NOT A REQUEST\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse_request_limited(b"", &mut Request::new(), MAX_BODY_BYTES),
            Ok(ParseStatus::Partial)
        ));
        let huge = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(
            parse(huge.as_bytes()),
            Err(ParseError::BodyTooLarge(_))
        ));
        // Chunked bodies are not implemented and must be rejected, not
        // silently skipped (that would desync the keep-alive stream).
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
    }
}
