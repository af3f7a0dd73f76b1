//! A minimal blocking HTTP/1.1 client: one keep-alive connection, one
//! request/response at a time.
//!
//! The router's pooled upstream connections use it, as do the in-repo
//! tooling (the `loadgen` binary and the `serve` criterion bench in
//! `estima-bench`) and embedded smoke checks. A request's head and the
//! caller's body leave in one vectored write, so a client keeps no copy of
//! a body. It is intentionally not a general HTTP client (no redirects, no
//! chunked bodies, no TLS).

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One keep-alive client connection.
///
/// The connection owns reusable request/response buffers: after the first
/// exchange warms them, [`Client::request_into`] issues requests without
/// allocating — the client half of the zero-allocation keep-alive loop
/// pinned by `tests/serve_alloc.rs`.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// Reused request-head scratch; the body goes out from the caller's slice.
    head: String,
    /// Reused response status/header line scratch.
    line: String,
    /// Reused response body buffer.
    body: Vec<u8>,
    /// Total request wire bytes written (heads + bodies).
    sent: u64,
    /// Total response wire bytes read (status lines + headers + bodies).
    received: u64,
    /// `Retry-After` header (whole seconds) of the last response, if any.
    retry_after: Option<u64>,
    /// `Allow` header of the last response, if any. Only allocated when the
    /// header actually appears (405s), so the steady-state request loop
    /// stays allocation-free.
    allow: Option<String>,
}

/// A decoded response: status code and body bytes (as text — every endpoint
/// of this service speaks JSON).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: String,
}

impl Client {
    /// Open a connection to the server with the default timeouts: OS connect
    /// timeout, 30-second reads.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        Client::from_stream(stream, std::time::Duration::from_secs(30))
    }

    /// Open a connection with explicit connect and read deadlines. This is
    /// the router's upstream constructor: a dead or wedged shard must fail a
    /// forwarded request within these bounds instead of stalling it behind
    /// the OS connect timeout or the default 30-second read timeout.
    pub fn with_timeouts(
        addr: SocketAddr,
        connect_timeout: std::time::Duration,
        read_timeout: std::time::Duration,
    ) -> std::io::Result<Client> {
        let stream = TcpStream::connect_timeout(&addr, connect_timeout)?;
        Client::from_stream(stream, read_timeout)
    }

    fn from_stream(
        stream: TcpStream,
        read_timeout: std::time::Duration,
    ) -> std::io::Result<Client> {
        // Each request goes out as one write, but disable Nagle anyway so a
        // kernel-split segment's tail is never delayed behind the peer's ACK.
        stream.set_nodelay(true)?;
        // A wedged server must fail a request cleanly instead of blocking
        // the client forever.
        stream.set_read_timeout(Some(read_timeout))?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            head: String::new(),
            line: String::new(),
            body: Vec::new(),
            sent: 0,
            received: 0,
            retry_after: None,
            allow: None,
        })
    }

    /// Total request wire bytes this connection has written (request lines +
    /// headers + bodies) — the mirror of the server's `bytes_in` counter.
    pub fn bytes_sent(&self) -> u64 {
        self.sent
    }

    /// Total response wire bytes this connection has read (status lines +
    /// headers + bodies) — the mirror of the server's `bytes_out` counter.
    pub fn bytes_received(&self) -> u64 {
        self.received
    }

    /// `Retry-After` header (whole seconds) of the last response, if the
    /// server sent one (429 quota and 503 shard-unavailable responses do).
    pub fn last_retry_after(&self) -> Option<u64> {
        self.retry_after
    }

    /// `Allow` header of the last response, if the server sent one (405
    /// responses must, per RFC 9110).
    pub fn last_allow(&self) -> Option<&str> {
        self.allow.as_deref()
    }

    /// Send one request and read the response. `body` may be empty (GET).
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<ClientResponse> {
        let (status, body) = self.request_into(method, path, body)?;
        let body = body.to_string();
        Ok(ClientResponse { status, body })
    }

    /// Send one request and read the response into the connection's reused
    /// buffers; the returned body borrows from the client. Once the buffers
    /// have grown to steady state, this path performs no heap allocation
    /// (errors do allocate their messages).
    pub fn request_into(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, &str)> {
        // The head is staged in a reused buffer, and head and body leave in
        // one vectored write: one syscall per request, and the server's
        // reactor sees the whole request in one readiness cycle.
        self.head.clear();
        write!(
            self.head,
            "{method} {path} HTTP/1.1\r\nhost: loopback\r\ncontent-type: application/json\r\n\
             content-length: {}\r\n\r\n",
            body.len()
        )
        .expect("writing to a String cannot fail");
        let mut slices = &mut [
            IoSlice::new(self.head.as_bytes()),
            IoSlice::new(body.as_bytes()),
        ][..];
        while !slices.is_empty() {
            match self.writer.write_vectored(slices) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => IoSlice::advance_slices(&mut slices, n),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.sent += (self.head.len() + body.len()) as u64;

        let bad = |detail: String| std::io::Error::new(std::io::ErrorKind::InvalidData, detail);
        self.line.clear();
        let mut received = self.reader.read_line(&mut self.line)? as u64;
        let status: u16 = self
            .line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad(format!("bad status line {:?}", self.line)))?;
        let mut content_length = 0usize;
        self.retry_after = None;
        self.allow = None;
        loop {
            self.line.clear();
            let n = self.reader.read_line(&mut self.line)?;
            if n == 0 {
                return Err(bad("eof inside response headers".into()));
            }
            received += n as u64;
            let trimmed = self.line.trim();
            if trimmed.is_empty() {
                break;
            }
            if let Some((name, value)) = trimmed.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .trim()
                        .parse()
                        .map_err(|_| bad(format!("bad content-length {value:?}")))?;
                } else if name.eq_ignore_ascii_case("retry-after") {
                    self.retry_after = value.trim().parse().ok();
                } else if name.eq_ignore_ascii_case("allow") {
                    self.allow = Some(value.trim().to_string());
                }
            }
        }
        self.body.clear();
        self.body.resize(content_length, 0);
        self.reader.read_exact(&mut self.body)?;
        self.received += received + content_length as u64;
        let body = std::str::from_utf8(&self.body).map_err(|_| bad("non-UTF-8 body".into()))?;
        Ok((status, body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::{Duration, Instant};

    /// A dead shard must fail a request within the explicit read timeout,
    /// not stall the caller behind the default 30-second deadline. The
    /// listener here is bound but never accepts; with a backlog the kernel
    /// still completes the TCP handshake, so the connect and the request
    /// write succeed — only the response read can notice nobody is home.
    #[test]
    fn read_timeout_bounds_a_request_to_a_never_accepting_listener() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client =
            Client::with_timeouts(addr, Duration::from_secs(5), Duration::from_millis(200))
                .expect("handshake completes against the kernel backlog");
        let started = Instant::now();
        let error = client
            .request("GET", "/v1/healthz", "")
            .expect_err("no response can ever arrive");
        assert!(
            matches!(
                error.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "expected a timeout, got {error:?}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "the read timeout must bound the stall ({:?})",
            started.elapsed()
        );
        drop(listener);
    }

    /// A large body is written from the caller's slice, never copied into
    /// the reused head buffer, so a pooled client does not keep the largest
    /// body it has sent.
    #[test]
    fn a_large_body_leaves_the_head_buffer_small() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let body = "x".repeat(1 << 20);
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let (mut wire_bytes, mut content_length) = (0, 0);
            let mut line = String::new();
            while line != "\r\n" {
                line.clear();
                wire_bytes += reader.read_line(&mut line).unwrap();
                if let Some(value) = line.strip_prefix("content-length: ") {
                    content_length = value.trim().parse().unwrap();
                }
            }
            let mut received = vec![0u8; content_length];
            reader.read_exact(&mut received).unwrap();
            stream
                .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\n{}")
                .unwrap();
            (wire_bytes + content_length, received)
        });
        let mut client = Client::connect(addr).unwrap();
        let reply = client.request_into("POST", "/v1/predict", &body).unwrap();
        assert_eq!(reply, (200, "{}"));
        let (wire_bytes, received) = server.join().unwrap();
        assert!(received == body.as_bytes(), "the body arrives intact");
        assert_eq!(client.bytes_sent(), wire_bytes as u64);
        assert!(
            client.head.capacity() < 4096,
            "head kept {} bytes",
            client.head.capacity()
        );
    }

    /// `connect_timeout` is honoured (a plain refused port fails fast, and
    /// the constructor surfaces it as an error rather than a panic).
    #[test]
    fn connect_to_a_closed_port_fails() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener); // free the port: connections are now refused
        let result =
            Client::with_timeouts(addr, Duration::from_millis(500), Duration::from_secs(1));
        assert!(result.is_err(), "connecting to a freed port must fail");
    }
}
