//! Request-size hardening: the configurable body cap answers oversized
//! uploads with `413 payload_too_large` without disturbing in-limit
//! traffic, the connection buffer cannot be grown without bound by a
//! request that never finishes, and a request whose `Content-Length`
//! values disagree is refused rather than split in two.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use estima_core::json::Json;
use estima_serve::{Client, Server, ServerConfig};

fn spawn_with_cap(max_body_bytes: usize) -> estima_serve::ServerHandle {
    Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        reactor_threads: 1,
        max_body_bytes,
        ..ServerConfig::default()
    })
    .expect("bind loopback server")
    .spawn()
    .expect("spawn server reactors")
}

#[test]
fn oversized_bodies_are_rejected_with_413() {
    let handle = spawn_with_cap(256);
    let mut client = Client::connect(handle.addr()).expect("connect");

    let oversized = format!("{{\"padding\":\"{}\"}}", "x".repeat(512));
    let response = client
        .request("POST", "/v1/predict", &oversized)
        .expect("the 413 is a well-formed response");
    assert_eq!(response.status, 413, "{}", response.body);
    let code = Json::parse(&response.body)
        .expect("error body parses")
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(Json::as_str)
        .map(str::to_owned);
    assert_eq!(code.as_deref(), Some("payload_too_large"));

    // The 413 closes the connection (the unread body would desync the
    // framing); a fresh connection with an in-limit request still works.
    let mut client = Client::connect(handle.addr()).expect("reconnect");
    let response = client
        .request("GET", "/v1/healthz", "")
        .expect("healthz after rejection");
    assert_eq!(response.status, 200);

    handle.shutdown();
}

#[test]
fn conflicting_content_lengths_are_refused_not_split() {
    // The first request's body, by its second length, is a complete second
    // request: taking the first length answers it as a pipelined request,
    // taking the second reads it as a body. The framing is ambiguous, so
    // the request is refused and the connection closed.
    let handle = spawn_with_cap(1024);
    let smuggled = "GET /v1/healthz HTTP/1.1\r\nconnection: close\r\n\r\n";
    let request = format!(
        "GET /v1/healthz HTTP/1.1\r\ncontent-length: 0\r\ncontent-length: {}\r\n\r\n{smuggled}",
        smuggled.len()
    );
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set a read timeout");
    stream.write_all(request.as_bytes()).expect("send");
    let mut reply = String::new();
    stream
        .read_to_string(&mut reply)
        .expect("the server answers and closes");
    // Each response's status; a body without a trailing newline runs into
    // the next status line.
    let statuses: Vec<&str> = reply
        .match_indices("HTTP/1.1 ")
        .map(|(at, _)| &reply[at..at + 12])
        .collect();
    assert_eq!(statuses, ["HTTP/1.1 400"], "{reply}");
    handle.shutdown();
}

#[test]
fn in_limit_bodies_still_flow_at_a_small_cap() {
    let handle = spawn_with_cap(1024);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let body = r#"{"series":"cap.app","frequency_ghz":2.0,"points":[{"cores":2,"exec_time":1.5}]}"#;
    let response = client
        .request("POST", "/v1/measurements", body)
        .expect("in-limit ingest");
    assert_eq!(response.status, 200, "{}", response.body);
    handle.shutdown();
}
