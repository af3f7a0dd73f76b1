//! # estima-serve
//!
//! A zero-dependency HTTP/1.1 prediction service over the ESTIMA pipeline:
//! `POST` a [`MeasurementSet`](estima_core::MeasurementSet) and a
//! [`TargetSpec`](estima_core::TargetSpec) as JSON, get the
//! [`Prediction`](estima_core::Prediction) back — byte-identical to calling
//! [`BatchPredictor`](estima_core::BatchPredictor) in-process.
//!
//! Built entirely on `std::net` (no async runtime, no HTTP crate): an
//! event-driven epoll reactor ([`server`], over a `std` listener and the
//! raw syscall bindings in the private `sys` module) multiplexes
//! non-blocking connections across a small set of reactor threads sharing
//! a sharded [`FitCache`](estima_core::FitCache), so repeated or
//! concurrent requests for the same series are fitted once and served from
//! cache. The wire format ([`wire`]) rides on the shared
//! [`estima_core::json`] machinery with exact `f64` round-tripping.
//!
//! The service is stateful: every reactor routes through one shared
//! [`EstimaSession`](estima_core::EstimaSession), so measurements can be
//! ingested incrementally into named, versioned series
//! (`POST /v1/measurements`) and predictions queried against them
//! (`POST /v1/series/{id}/predict`, body = just the target) without
//! reshipping the measurement set per request. Fit-cache entries are keyed
//! by `(series, version)`, so an ingest invalidates exactly that series'
//! fits.
//!
//! Predictions can carry their own uncertainty: a series predict body with
//! `"confidence": true` attaches a 95% jackknife interval, `"diagnosis":
//! true` a bottleneck report naming the dominant scaling-loss category,
//! and `POST /v1/series/{id}/plan` ranks which measurement to take next by
//! expected interval shrinkage (see
//! [`Planner`](estima_core::plan::Planner) and DESIGN.md § *Planning &
//! uncertainty*). All three are opt-in: default predict responses stay
//! byte-identical to releases predating them.
//!
//! Endpoints: `POST /v1/predict`, `POST /v1/batch`,
//! `POST /v1/measurements`, `GET /v1/series`, `GET /v1/series/{id}`,
//! `DELETE /v1/series/{id}`, `POST /v1/series/{id}/predict`,
//! `POST /v1/series/{id}/plan`, `GET /v1/healthz`, `GET /v1/stats`. The
//! full wire-format specification,
//! architecture diagram and error-code semantics are in DESIGN.md
//! § *Serving layer*; README § *Run as a service* has `curl`-able examples.
//!
//! The same binary also scales out: started with `--mode router --shard
//! <addr>...` it becomes a stateless routing tier ([`router`]) that maps
//! each series to its owning shard by consistent hashing and answers every
//! request byte-identically to a single node holding all the data — an
//! unreachable shard degrades to a structured `503 shard_unavailable`
//! instead of a hang. See DESIGN.md § *Cluster serving*.
//!
//! ```no_run
//! use estima_serve::{Server, ServerConfig};
//!
//! let server = Server::bind(ServerConfig::default()).unwrap();
//! println!("listening on {}", server.local_addr().unwrap());
//! server.run().unwrap(); // blocks; drive it with curl or `loadgen`
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod client;
pub mod http;
mod route;
pub mod router;
pub mod server;
pub mod stats;
pub(crate) mod sys;
pub mod wire;

pub use client::{Client, ClientResponse};
pub use router::ShardRing;
pub use server::{Server, ServerConfig, ServerHandle};
pub use stats::ServerStats;

/// Convenience re-exports for embedding the server.
pub mod prelude {
    pub use crate::server::{Server, ServerConfig, ServerHandle};
}
