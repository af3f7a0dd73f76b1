//! The load side: one closed-loop keep-alive connection driving one node.
//! Every reply is byte-compared against the reference; a mismatch, a
//! non-2xx status or a transport error fails the op, never the process.

use std::path::Path;
use std::time::Instant;

use estima_serve::Client;

use crate::inputs::{ingest_reply, ingest_reply_rendered, Step, Workload};
use crate::node::{Counters, Node, ROUTES};
use crate::trace::{Layer, Tracer, ROOT};

/// A node plus the one connection that loads it.
pub struct Conn<'w> {
    pub workload: &'w Workload,
    pub node: Node,
    client: Client,
    /// Number of the next op of the workload's cycle.
    next: u64,
    /// Requests sent, per [`ROUTES`] entry.
    sent: [u64; 9],
    /// Replies with a 4xx/5xx status.
    error_replies: u64,
    scratch: String,
}

/// Per-op `/v1/stats` deltas over whole cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountWindow {
    pub ops: u64,
    pub counts: Counters,
}

impl<'w> Conn<'w> {
    /// Bring up a node for `workload` and time it: start the node on a fresh
    /// store in `dir`, connect, seed every series, send each read series its
    /// first (cold) request, and run one whole cycle of ops. Every reply is
    /// checked. Returns the connection and the set-up time in seconds.
    pub fn setup(workload: &'w Workload, dir: &Path) -> Result<(Conn<'w>, f64), String> {
        let started = Instant::now();
        let node = Node::start(dir)?;
        let client = Client::connect(node.addr()).map_err(|e| format!("connect: {e}"))?;
        let mut conn = Conn {
            workload,
            node,
            client,
            next: 0,
            sent: [0; 9],
            error_replies: 0,
            scratch: String::new(),
        };
        for series in &workload.series {
            ingest_reply(&series.id, 2, &mut conn.scratch);
            if conn.scratch != ingest_reply_rendered(&series.id, 2) {
                return Err("the expected ingest reply does not match the service's JSON".into());
            }
            conn.count("measurements");
            let expected = std::mem::take(&mut conn.scratch);
            let reply = conn
                .client
                .request_into("POST", "/v1/measurements", &series.seed_body)
                .map_err(|e| format!("seed `{}`: {e}", series.id))?;
            if reply != (200, expected.as_str()) {
                return Err(format!("seed `{}` got {} {}", series.id, reply.0, reply.1));
            }
        }
        for step in workload.first_reads() {
            if !conn.step(&step) {
                return Err(format!(
                    "the first read of `{}` does not match the reference",
                    workload.series[step.series].id
                ));
            }
        }
        for _ in 0..workload.cycle() {
            if !conn.op(None) {
                return Err("a warm-up op failed".into());
            }
        }
        Ok((conn, started.elapsed().as_secs_f64()))
    }

    /// Close the connection, stop the node and delete its store.
    pub fn stop(self) {
        drop(self.client);
        self.node.stop();
    }

    fn count(&mut self, route: &str) {
        let index = ROUTES
            .iter()
            .position(|r| *r == route)
            .expect("every route the benchmark sends is a /v1/stats route");
        self.sent[index] += 1;
    }

    /// Send one step and byte-compare the reply.
    fn step(&mut self, step: &Step) -> bool {
        self.count(step.kind.route());
        let (path, body) = self.workload.request(step);
        let expected = self.workload.expected(step, &mut self.scratch);
        match self.client.request_into("POST", path, body) {
            Ok((status, reply)) => {
                if status >= 400 {
                    self.error_replies += 1;
                }
                status == 200 && reply == expected
            }
            Err(_) => false,
        }
    }

    /// Run the next op of the cycle; `false` if any of its requests failed.
    /// With a tracer, the op and each of its requests get a span.
    pub fn op(&mut self, tracer: Option<&mut Tracer>) -> bool {
        let number = self.next;
        self.next += 1;
        let op = self.workload.op(number);
        let mut ok = true;
        match tracer {
            None => {
                for step in op.steps() {
                    ok &= self.step(step);
                }
            }
            Some(tracer) => {
                let root = tracer.open(Layer::Op, ROOT, number);
                for step in op.steps() {
                    let span = tracer.open(Layer::ClientRequest, root, number);
                    ok &= self.step(step);
                    tracer.close(span);
                }
                tracer.close(root);
            }
        }
        ok
    }

    /// `GET /v1/stats`: the counters, plus the wire bytes of this request
    /// and of its reply.
    pub fn stats(&mut self) -> Result<(Counters, u64, u64), String> {
        self.count("stats");
        let (sent, received) = (self.client.bytes_sent(), self.client.bytes_received());
        let (status, body) = self
            .client
            .request_into("GET", "/v1/stats", "")
            .map_err(|e| format!("/v1/stats: {e}"))?;
        if status != 200 {
            return Err(format!("/v1/stats answered {status}"));
        }
        let counters = Counters::parse(body)?;
        Ok((
            counters,
            self.client.bytes_sent() - sent,
            self.client.bytes_received() - received,
        ))
    }

    /// Run `cycles` whole cycles between two `/v1/stats` reads and return
    /// the deltas, less what the two stats exchanges add themselves: the
    /// closing request (counted as it arrives, with its wake-up) and the
    /// opening reply (counted as it leaves). Also returns the failed ops.
    pub fn count_window(&mut self, cycles: u64) -> Result<(CountWindow, u64), String> {
        let (before, _, opening_reply) = self.stats()?;
        let ops = cycles * self.workload.cycle();
        let failed = (0..ops).filter(|_| !self.op(None)).count() as u64;
        let (after, closing_request, _) = self.stats()?;
        let mut counts = Counters::default();
        for (slot, (a, b)) in counts
            .routes
            .iter_mut()
            .zip(after.routes.iter().zip(&before.routes))
        {
            *slot = a - b;
        }
        counts.routes[3] -= 1; // the closing stats request
        counts.error_replies = after.error_replies - before.error_replies;
        counts.bytes_in = after.bytes_in - before.bytes_in - closing_request;
        counts.bytes_out = after.bytes_out - before.bytes_out - opening_reply;
        counts.cache_hits = after.cache_hits - before.cache_hits;
        counts.cache_misses = after.cache_misses - before.cache_misses;
        counts.cache_invalidations = after.cache_invalidations - before.cache_invalidations;
        if after.wal_snapshots != before.wal_snapshots {
            return Err("the WAL compacted inside a count window".into());
        }
        counts.wal_records = after.wal_records - before.wal_records;
        counts.wal_bytes = after.wal_bytes - before.wal_bytes;
        counts.wakeups = (after.wakeups - before.wakeups).saturating_sub(1);
        Ok((CountWindow { ops, counts }, failed))
    }

    /// End-of-run cross-check: the node's route counters, error replies and
    /// byte totals must equal this connection's own tallies. The final stats
    /// request is counted by both; its reply leaves after the node counted.
    pub fn cross_check(&mut self) -> Result<(), String> {
        let (server, _, final_reply) = self.stats()?;
        let mut mismatches = Vec::new();
        for (route, (served, sent)) in ROUTES.iter().zip(server.routes.iter().zip(&self.sent)) {
            if served != sent {
                mismatches.push(format!("{route}: node {served}, client {sent}"));
            }
        }
        if server.error_replies != self.error_replies {
            mismatches.push(format!(
                "error replies: node {}, client {}",
                server.error_replies, self.error_replies
            ));
        }
        if server.bytes_in != self.client.bytes_sent() {
            mismatches.push(format!(
                "bytes in: node {}, client sent {}",
                server.bytes_in,
                self.client.bytes_sent()
            ));
        }
        let received = self.client.bytes_received() - final_reply;
        if server.bytes_out != received {
            mismatches.push(format!(
                "bytes out: node {}, client received {received}",
                server.bytes_out
            ));
        }
        if mismatches.is_empty() {
            Ok(())
        } else {
            Err(mismatches.join("; "))
        }
    }
}
