//! Lock-free request statistics for the `/v1/stats` endpoint.
//!
//! Counters are plain relaxed atomics; latencies go into a fixed log₂
//! histogram (one bucket per power of two of nanoseconds), so recording a
//! request is a handful of atomic increments — no lock is ever taken on the
//! request path. Percentiles read from the histogram are therefore
//! factor-of-two estimates (the bucket's upper bound is reported); exact
//! percentiles are the load generator's job, which times each request
//! client-side. See DESIGN.md § *Serving layer*.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::route::{Route, COUNTER_NAMES};

/// Number of log₂ latency buckets: bucket *i* holds requests with
/// `2^i <= nanos < 2^(i+1)`; 64 buckets cover every representable u64.
const BUCKETS: usize = 64;

/// Request counters and a latency histogram, shared across reactor threads.
#[derive(Debug)]
pub struct ServerStats {
    /// Requests per route, indexed by the route's counter: every request to
    /// a known endpoint counts, whatever its status.
    requests: [AtomicU64; COUNTER_NAMES.len()],
    /// Requests answered with a 4xx status.
    pub client_errors: AtomicU64,
    /// Requests answered with a 5xx status.
    pub server_errors: AtomicU64,
    /// Individual predictions computed (batch jobs count one each).
    pub predictions: AtomicU64,
    /// Total request wire bytes read (request lines + headers + bodies) on
    /// successfully parsed requests.
    pub bytes_in: AtomicU64,
    /// Total response wire bytes written (heads + bodies).
    pub bytes_out: AtomicU64,
    /// Connections accepted across all reactor threads.
    pub accepts: AtomicU64,
    /// `epoll_wait` returns across all reactor threads — the syscall
    /// heartbeat of the reactor. Requests-per-wakeup (request counters over
    /// this) shows how well events batch under load.
    pub epoll_wakeups: AtomicU64,
    /// Latency histogram over prediction requests (predict + batch).
    latency_buckets: [AtomicU64; BUCKETS],
}

impl Default for ServerStats {
    fn default() -> Self {
        ServerStats {
            requests: std::array::from_fn(|_| AtomicU64::new(0)),
            client_errors: AtomicU64::new(0),
            server_errors: AtomicU64::new(0),
            predictions: AtomicU64::new(0),
            bytes_in: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            accepts: AtomicU64::new(0),
            epoll_wakeups: AtomicU64::new(0),
            latency_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl ServerStats {
    /// Count one request toward its route's counter (404s and 405s count
    /// toward none).
    pub(crate) fn count(&self, route: Route<'_>) {
        if let Some(counter) = route.counter() {
            self.requests[counter as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Per-route request counts, keyed and ordered as the `requests` object
    /// of `/v1/stats` lists them.
    pub(crate) fn requests(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        COUNTER_NAMES
            .into_iter()
            .zip(&self.requests)
            .map(|(name, count)| (name, count.load(Ordering::Relaxed)))
    }

    /// Record the wall-clock latency of one prediction request.
    pub fn record_latency(&self, elapsed: Duration) {
        let nanos = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX).max(1);
        let bucket = (63 - nanos.leading_zeros()) as usize;
        self.latency_buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Upper-bound latency (in nanoseconds) of the bucket containing the
    /// `q`-quantile (`0.0..=1.0`) of recorded requests, or `None` before the
    /// first request.
    pub fn latency_quantile_ns(&self, q: f64) -> Option<u64> {
        let counts: Vec<u64> = self
            .latency_buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (bucket, count) in counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Some(1u64 << (bucket + 1).min(63));
            }
        }
        Some(u64::MAX)
    }

    /// Total latency samples recorded.
    pub fn latency_count(&self) -> u64 {
        self.latency_buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_track_the_histogram() {
        let stats = ServerStats::default();
        assert_eq!(stats.latency_quantile_ns(0.5), None);
        // 9 fast requests (~1µs) and one slow (~1ms).
        for _ in 0..9 {
            stats.record_latency(Duration::from_micros(1));
        }
        stats.record_latency(Duration::from_millis(1));
        assert_eq!(stats.latency_count(), 10);
        let p50 = stats.latency_quantile_ns(0.5).unwrap();
        let p99 = stats.latency_quantile_ns(0.99).unwrap();
        assert!(p50 <= 4_096, "p50 bucket {p50} should be ~1µs");
        assert!(
            p99 >= 1_000_000,
            "p99 bucket {p99} should cover the 1ms tail"
        );
        assert!(stats.latency_quantile_ns(0.0).unwrap() <= p50);
    }

    #[test]
    fn zero_duration_lands_in_the_first_bucket() {
        let stats = ServerStats::default();
        stats.record_latency(Duration::ZERO);
        assert_eq!(stats.latency_count(), 1);
        assert_eq!(stats.latency_quantile_ns(1.0), Some(2));
    }
}
