//! The stateful measurement-store API: named series, incremental ingestion,
//! and the [`EstimaSession`] handle that unifies in-process and served
//! prediction.
//!
//! ESTIMA's pipeline (Figure 3 of the paper) is *collection →
//! extrapolation → time translation*, but the one-shot
//! [`Estima::predict`] API only models the last two steps: the caller must
//! hand over a complete [`MeasurementSet`] every time. This module makes
//! collection a first-class, long-lived concern — measurements arrive
//! incrementally over time, and predictions are queries against named,
//! versioned state:
//!
//! * [`MeasurementStore`] — a concurrent map of [`SeriesId`] → measurement
//!   set, where every mutation monotonically bumps the series *version*.
//!   Every content write is one [`MeasurementStore::merge`]: points join a
//!   series at its clock, under one write lock; `ensure`, `ingest` and
//!   `ingest_set` are merges of no points, one point and a whole set. A
//!   durable store's recovery replays its snapshot and log through the
//!   same merge, and every store refuses a point with a NaN or ±∞ value.
//! * [`EstimaSession`] — owns a store, an [`Estima`] predictor and a sharded
//!   [`FitCache`]; [`EstimaSession::merge`] (and its `ensure` / `ingest` /
//!   `ingest_set` forms) writes points and [`EstimaSession::predict`]
//!   answers from the current snapshot, with fit reuse keyed by
//!   `(series, version)` so incremental ingestion invalidates exactly the
//!   stale fits and nothing else. Every session call that touches a series,
//!   reads included, first runs the TTL sweep.
//!
//! `estima-serve` routes its `/v1/series` endpoints through the same session
//! type, so a prediction served over HTTP after incremental ingestion is
//! byte-identical to the one-shot in-process prediction of the equivalent
//! full set (pinned by `crates/serve/tests/server_roundtrip.rs`).
//!
//! # Version semantics
//!
//! A series is created at version 1. Every content *change* — a merge with
//! at least one point that differs from what is stored at its core count —
//! bumps the version by exactly 1, however many points it carries. A
//! series that was evicted, by a delete or by the TTL, is gone: a write
//! without a clock fails, and one with a clock creates it afresh.
//! Reads never bump, and neither does re-ingesting bit-identical content
//! ([`Measurement::content_eq`]): an ingest is **content-idempotent**, so a
//! collector that re-pushes the run it already reported costs nothing — no
//! version bump, no fit invalidation, and the next prediction is a pure
//! cache hit. The version therefore uniquely identifies series content
//! *within one store*, which is what makes it safe as a fit-cache key
//! component: a stale fit can never be served because its key names a
//! version that no longer matches the snapshot being predicted.
//!
//! # Quick example
//!
//! ```
//! use estima_core::prelude::*;
//!
//! let session = EstimaSession::new(EstimaConfig::default());
//! let series = SeriesId::new("my-app")?;
//!
//! // Collection: points arrive one at a time (e.g. one run per core count).
//! session.ensure(&series, 3.4)?;
//! for cores in 1..=8u32 {
//!     let n = cores as f64;
//!     session.ingest(
//!         &series,
//!         Measurement::new(cores, 12.0 / n + 0.4)
//!             .with_stall(StallCategory::backend("rob_full"), 5.0e8 * (1.0 + 0.1 * n * n)),
//!     )?;
//! }
//!
//! // Query: predict the named series on a 32-core machine.
//! let prediction = session.predict(&series, &TargetSpec::cores(32))?;
//! assert!(prediction.predicted_time_at(32).is_some());
//!
//! // Re-predicting the unchanged series is answered from the fit cache.
//! session.predict(&series, &TargetSpec::cores(32))?;
//! assert!(session.cache().stats().0 > 0);
//! # estima_core::Result::Ok(())
//! ```

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use crate::config::{EstimaConfig, TargetSpec};
use crate::engine::{CacheScope, FitCache};
use crate::error::{EstimaError, Result};
use crate::fit::FitContext;
use crate::measurement::{Measurement, MeasurementSet};
use crate::plan::{MeasurementPlan, Planner};
use crate::predictor::{Estima, Prediction};
use crate::wal::{DurabilityOptions, Wal, WalRecord, WalStats};

/// A validated series name: the identity of one measurement series in a
/// [`MeasurementStore`], and the `{id}` path segment of the
/// `/v1/series/{id}` HTTP endpoints.
///
/// Valid names are non-empty, at most [`SeriesId::MAX_LEN`] bytes, and use
/// only `[A-Za-z0-9_.-]` — the URL-safe subset, so ids never need
/// percent-encoding on the wire.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SeriesId(String);

impl SeriesId {
    /// Longest accepted series name, in bytes.
    pub const MAX_LEN: usize = 128;

    /// Validate and wrap a series name.
    pub fn new(name: impl Into<String>) -> Result<SeriesId> {
        let name = name.into();
        if name.is_empty() {
            return Err(EstimaError::InvalidSeriesId {
                detail: "name is empty".into(),
            });
        }
        if name.len() > SeriesId::MAX_LEN {
            return Err(EstimaError::InvalidSeriesId {
                detail: format!(
                    "name is {} bytes, longer than the {}-byte limit",
                    name.len(),
                    SeriesId::MAX_LEN
                ),
            });
        }
        if let Some(bad) = name
            .chars()
            .find(|c| !(c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')))
        {
            return Err(EstimaError::InvalidSeriesId {
                detail: format!("character {bad:?} is outside [A-Za-z0-9_.-]"),
            });
        }
        Ok(SeriesId(name))
    }

    /// The series name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for SeriesId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::str::FromStr for SeriesId {
    type Err = EstimaError;
    fn from_str(s: &str) -> Result<SeriesId> {
        SeriesId::new(s)
    }
}

/// What the store holds for one series.
#[derive(Debug)]
struct SeriesRecord {
    /// The accumulated measurements. Copy-on-write: mutations go through
    /// [`Arc::make_mut`], so snapshots handed out earlier stay valid and
    /// immutable while the store moves on.
    set: Arc<MeasurementSet>,
    /// Monotonically increasing content version (1 = freshly created).
    version: u64,
    /// When this series last changed content — the clock
    /// [`StoreLimits::ttl`] eviction runs against.
    last_write: Instant,
}

/// Resource bounds for graceful degradation under unbounded traffic; all
/// default to "unlimited". A *tenant* is the series-id prefix before the
/// first `.` (the whole id when there is none): `acme.checkout` and
/// `acme.search` share tenant `acme`'s quotas.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StoreLimits {
    /// Evict a series once this long has passed since its last content
    /// mutation. Enforced lazily by [`MeasurementStore::sweep_expired`]
    /// (which [`EstimaSession`] runs before every call that touches a
    /// series, reads included).
    pub ttl: Option<Duration>,
    /// Most series one tenant may hold; a create beyond it is
    /// [`EstimaError::QuotaExceeded`].
    pub max_series_per_tenant: Option<u64>,
    /// Most measurement points one tenant may hold across all its series;
    /// an ingest growing past it is [`EstimaError::QuotaExceeded`].
    pub max_points_per_tenant: Option<u64>,
}

impl StoreLimits {
    /// No limits (the default).
    pub fn new() -> StoreLimits {
        StoreLimits::default()
    }

    /// Set the idle TTL after which a series is evicted.
    pub fn with_ttl(mut self, ttl: Duration) -> StoreLimits {
        self.ttl = Some(ttl);
        self
    }

    /// Cap how many series one tenant may hold.
    pub fn with_max_series_per_tenant(mut self, max: u64) -> StoreLimits {
        self.max_series_per_tenant = Some(max);
        self
    }

    /// Cap how many measurement points one tenant may hold.
    pub fn with_max_points_per_tenant(mut self, max: u64) -> StoreLimits {
        self.max_points_per_tenant = Some(max);
        self
    }
}

/// The tenant a series belongs to: the id prefix before the first `.`.
fn tenant_of(id: &SeriesId) -> &str {
    id.as_str().split('.').next().unwrap_or(id.as_str())
}

/// A consistent point-in-time view of one series: the measurement set as it
/// was at `version`. Cheap to take (an [`Arc`] clone under a read lock) and
/// immune to later mutations.
#[derive(Debug, Clone)]
pub struct SeriesSnapshot {
    /// The series this snapshot was taken from.
    pub id: SeriesId,
    /// Version of the content in `set`.
    pub version: u64,
    /// The measurements at that version.
    pub set: Arc<MeasurementSet>,
}

/// Summary of one stored series, as reported by [`MeasurementStore::list`]
/// and the `GET /v1/series` endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesInfo {
    /// The series id.
    pub id: SeriesId,
    /// Current content version.
    pub version: u64,
    /// Number of measurement points (distinct core counts).
    pub points: usize,
    /// Largest measured core count (0 while empty).
    pub max_cores: u32,
    /// Clock frequency of the measurements machine, in GHz.
    pub frequency_ghz: f64,
}

/// A concurrent store of named, versioned measurement series.
///
/// The store is the collection half of the pipeline: `estima-counters`-style
/// producers [`merge`](MeasurementStore::merge) points in as runs complete,
/// and predictions are taken from [`snapshot`](MeasurementStore::snapshot)s.
/// All methods take `&self` and are safe to call from any number of threads;
/// a single `RwLock` over a `BTreeMap` keeps reads concurrent and listing
/// order deterministic. (Mutations clone-on-write the series' [`Arc`], so
/// the lock is never held across anything slower than a `Vec` insert.)
///
/// The store never touches the fit cache — pairing the two is
/// [`EstimaSession`]'s job.
///
/// # Durability
///
/// A store created by [`MeasurementStore::open`] is backed by the
/// [`crate::wal`] persistence layer: every content mutation is appended to
/// a checksummed write-ahead log *before* it is applied in memory, and
/// startup replays snapshot + log through [`MeasurementStore::merge`] so
/// every series returns at its exact pre-crash version. Limits are set
/// after the replay, with [`MeasurementStore::with_limits`]. A store
/// created by [`MeasurementStore::new`] is purely in-memory (durability off
/// costs nothing on the hot path — no lock, no branch beyond one `Option`
/// check).
#[derive(Debug, Default)]
pub struct MeasurementStore {
    series: RwLock<BTreeMap<SeriesId, SeriesRecord>>,
    /// Total successful content mutations across all series, ever (ingest
    /// calls that changed nothing do not count). Reported by `/v1/stats`.
    ingests: AtomicU64,
    /// The write-ahead log, when durable. Lock order: `series` write lock
    /// first, then this mutex — never the other way around.
    wal: Option<Mutex<Wal>>,
    /// TTL / per-tenant quota bounds (unlimited by default).
    limits: StoreLimits,
}

impl MeasurementStore {
    /// Create an empty, in-memory store.
    pub fn new() -> Self {
        MeasurementStore::default()
    }

    /// Set the store's resource limits. A durable store takes them after
    /// [`MeasurementStore::open`]: replay re-applies writes the limits
    /// already admitted, so it runs without them.
    pub fn with_limits(mut self, limits: StoreLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Open a durable store: replay the contents persisted under
    /// `options.dir` (empty when the directory is new) and write-ahead-log
    /// every future mutation there. Each snapshot series and logged write
    /// replays through [`MeasurementStore::merge`], then takes its logged
    /// version; a record the merge refuses fails the open.
    pub fn open(options: &DurabilityOptions) -> Result<Self> {
        let mut store = MeasurementStore::new();
        let mut mutations = 0;
        let (wal, ingests) = Wal::open(options, |record| match record {
            WalRecord::Merge {
                series,
                frequency_ghz,
                points,
                version,
                mutations: counted,
            } => {
                store.merge(&series, frequency_ghz, points.into())?;
                let records = store.series.get_mut().unwrap();
                records.get_mut(&series).expect("merged above").version = version;
                mutations += counted;
                Ok(())
            }
            WalRecord::Evict { series } => store.evict(&series).map(drop),
        })?;
        *store.ingests.get_mut() = ingests + mutations;
        store.wal = Some(Mutex::new(wal));
        Ok(store)
    }

    /// The store's resource limits.
    pub fn limits(&self) -> StoreLimits {
        self.limits
    }

    /// Persistence counters, or `None` for an in-memory store.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.wal.as_ref().map(|wal| wal.lock().unwrap().stats())
    }

    /// Force a compaction now (snapshot + log truncation). A no-op for an
    /// in-memory store. Normally compaction runs automatically once the log
    /// passes [`DurabilityOptions::compact_bytes`]; this is for tests and
    /// operational tooling.
    pub fn compact(&self) -> Result<()> {
        // A read lock suffices: it still excludes mutations, and the wal
        // mutex (taken second, preserving the lock order) serializes
        // concurrent compactions.
        let series = self.series.read().unwrap();
        let Some(wal) = &self.wal else {
            return Ok(());
        };
        wal.lock().unwrap().compact(
            series
                .iter()
                .map(|(id, record)| (id, record.version, record.set.as_ref())),
            self.ingests.load(Ordering::Relaxed),
        )
    }

    /// Run compaction if the log has outgrown its threshold. Called with
    /// the write lock held, right after a mutation was applied; errors are
    /// deliberately swallowed — the mutation is already durable in the log,
    /// and the next append retriggers compaction.
    fn maybe_compact(&self, series: &BTreeMap<SeriesId, SeriesRecord>) {
        let Some(wal) = &self.wal else {
            return;
        };
        let mut wal = wal.lock().unwrap();
        if wal.should_compact() {
            let _ = wal.compact(
                series
                    .iter()
                    .map(|(id, record)| (id, record.version, record.set.as_ref())),
                self.ingests.load(Ordering::Relaxed),
            );
        }
    }

    /// How long a quota-limited client should wait before retrying: one TTL
    /// period when TTL eviction is on (capacity will free up by itself), a
    /// second otherwise (capacity frees only via explicit deletes).
    fn retry_after_ms(&self) -> u64 {
        self.limits
            .ttl
            .map(|ttl| u64::try_from(ttl.as_millis()).unwrap_or(u64::MAX).max(1))
            .unwrap_or(1000)
    }

    /// Enforce [`StoreLimits::max_series_per_tenant`] before creating `id`.
    fn check_series_quota(
        &self,
        series: &BTreeMap<SeriesId, SeriesRecord>,
        id: &SeriesId,
    ) -> Result<()> {
        let Some(max) = self.limits.max_series_per_tenant else {
            return Ok(());
        };
        let tenant = tenant_of(id);
        let held = series.keys().filter(|k| tenant_of(k) == tenant).count() as u64;
        if held >= max {
            return Err(EstimaError::QuotaExceeded {
                tenant: tenant.to_string(),
                detail: format!(
                    "creating series `{id}` would exceed the {max}-series quota ({held} held)"
                ),
                retry_after_ms: self.retry_after_ms(),
            });
        }
        Ok(())
    }

    /// Enforce [`StoreLimits::max_points_per_tenant`] before adding
    /// `new_points` points to one of `id`'s tenant's series.
    fn check_points_quota(
        &self,
        series: &BTreeMap<SeriesId, SeriesRecord>,
        id: &SeriesId,
        new_points: usize,
    ) -> Result<()> {
        let Some(max) = self.limits.max_points_per_tenant else {
            return Ok(());
        };
        let tenant = tenant_of(id);
        let held: u64 = series
            .iter()
            .filter(|(k, _)| tenant_of(k) == tenant)
            .map(|(_, record)| record.set.len() as u64)
            .sum();
        if held + new_points as u64 > max {
            return Err(EstimaError::QuotaExceeded {
                tenant: tenant.to_string(),
                detail: format!(
                    "ingesting {new_points} point(s) into `{id}` would exceed the \
                     {max}-point quota ({held} held)"
                ),
                retry_after_ms: self.retry_after_ms(),
            });
        }
        Ok(())
    }

    /// Evict every series idle longer than [`StoreLimits::ttl`], returning
    /// the evicted ids (callers holding a fit cache must invalidate them).
    /// Free when TTL is off: returns immediately without taking a lock.
    /// Otherwise the scan runs under the read lock, and the write lock is
    /// taken only when some series has expired.
    pub fn sweep_expired(&self) -> Vec<SeriesId> {
        let Some(ttl) = self.limits.ttl else {
            return Vec::new();
        };
        let idle = |record: &SeriesRecord| record.last_write.elapsed() >= ttl;
        if !self.series.read().unwrap().values().any(idle) {
            return Vec::new();
        }
        let wal = self.wal.as_ref();
        let mut evicted = Vec::new();
        self.series.write().unwrap().retain(|id, record| {
            // Log the eviction first; on a log failure keep the series (it
            // will be retried next sweep) rather than diverging from disk.
            let evict =
                idle(record) && wal.is_none_or(|wal| wal.lock().unwrap().append_evict(id).is_ok());
            if evict {
                evicted.push(id.clone());
            }
            !evict
        });
        evicted
    }

    /// Create `id` as an empty series measured at `frequency_ghz`, or verify
    /// an existing series against it: a [`MeasurementStore::merge`] of no
    /// points. Returns the series' current version.
    pub fn ensure(&self, id: &SeriesId, frequency_ghz: f64) -> Result<u64> {
        self.merge(id, Some(frequency_ghz), Cow::Borrowed(&[]))
            .map(|(snapshot, _)| snapshot.version)
    }

    /// Append one measurement to an existing series at its stored clock: a
    /// [`MeasurementStore::merge`] of one point without a frequency.
    /// Returns the current version.
    pub fn ingest(&self, id: &SeriesId, measurement: Measurement) -> Result<u64> {
        self.merge(id, None, vec![measurement].into())
            .map(|(snapshot, _)| snapshot.version)
    }

    /// Merge a whole measurement set into `id` at the set's clock, creating
    /// the series when absent: a [`MeasurementStore::merge`] of the set's
    /// points (its `app_name` is not kept). Returns the post-merge snapshot.
    pub fn ingest_set(&self, id: &SeriesId, set: &MeasurementSet) -> Result<SeriesSnapshot> {
        self.merge(id, Some(set.frequency_ghz), set.measurements().into())
            .map(|(snapshot, _)| snapshot)
    }

    /// The one content write: merge `points` into `id`, returning the
    /// post-merge [`SeriesSnapshot`] and whether the content changed.
    ///
    /// * With `Some(frequency_ghz)`, an absent series is created at that
    ///   clock, and an existing series must have exactly that clock (exact
    ///   `f64` comparison): anything else is a
    ///   [`EstimaError::SeriesConflict`], because mixing clock frequencies
    ///   in one series would silently corrupt the time-translation step.
    /// * With `None`, the points join the series at its stored clock, and
    ///   an absent series is [`EstimaError::SeriesNotFound`].
    /// * A point whose `exec_time` or any stall count is NaN or ±∞ is
    ///   [`EstimaError::InvalidMeasurement`], on every store: the log could
    ///   not persist it, and no prediction could use it.
    ///
    /// The points merge as [`MeasurementSet::push`] merges them one at a
    /// time: ordered by core count, and a point at a core count already
    /// present (stored, or earlier in `points`) replaces it. The series id
    /// is the identity: the stored set's `app_name` is always the id.
    /// Creating is one content mutation and changing content another, so a
    /// series created with points lands at version 2 (`ingests` += 2). A
    /// merge whose every point is [`Measurement::content_eq`] to the stored
    /// one at its core count, a merge of no points included, is a read: no
    /// version bump, no copy-on-write clone, no log record. A borrowed
    /// point is cloned only when the content changes.
    ///
    /// Resolving the clock, the conflict check, the quota checks, the
    /// write-ahead append and the merge all happen under one write lock,
    /// and the snapshot is taken under it too, so a concurrent evict or
    /// re-create can never slip between them and the reported
    /// `(version, points)` pair is always consistent.
    pub fn merge(
        &self,
        id: &SeriesId,
        frequency_ghz: Option<f64>,
        mut points: Cow<'_, [Measurement]>,
    ) -> Result<(SeriesSnapshot, bool)> {
        if let Some(ghz) = frequency_ghz.filter(|ghz| !ghz.is_finite() || *ghz <= 0.0) {
            return Err(EstimaError::InvalidConfig(format!(
                "frequency_ghz {ghz} must be positive and finite"
            )));
        }
        for m in points.iter() {
            let stalls = m.stalls.values().map(|cycles| ("stall cycles", *cycles));
            let mut values = std::iter::once(("exec_time", m.exec_time)).chain(stalls);
            if let Some((what, value)) = values.find(|(_, value)| !value.is_finite()) {
                return Err(EstimaError::InvalidMeasurement {
                    cores: m.cores,
                    detail: format!("{what} {value} is not finite"),
                });
            }
        }
        if !points.windows(2).all(|pair| pair[0].cores < pair[1].cores) {
            // `push` order: ascending cores, the latest point winning a
            // repeated count (the stable sort keeps it first of its run).
            let points = points.to_mut();
            points.reverse();
            points.sort_by_key(|m| m.cores);
            points.dedup_by_key(|m| m.cores);
        }
        let mut series = self.series.write().unwrap();
        // Decide what the merge will do — create? change content? add how
        // many new points? — before mutating anything, so quota checks and
        // the write-ahead append can run first and reject atomically.
        let (frequency_ghz, created, changed, new_points, version_before) = match series.get(id) {
            Some(record) => {
                let stored = record.set.frequency_ghz;
                if let Some(ghz) = frequency_ghz.filter(|ghz| *ghz != stored) {
                    return Err(EstimaError::SeriesConflict {
                        series: id.to_string(),
                        detail: format!("stored frequency_ghz {stored} != ingested {ghz}"),
                    });
                }
                let mut changed = false;
                let mut new_points = 0usize;
                for measurement in points.iter() {
                    match record.set.at_cores(measurement.cores) {
                        Some(existing) => changed |= !existing.content_eq(measurement),
                        None => {
                            changed = true;
                            new_points += 1;
                        }
                    }
                }
                (stored, false, changed, new_points, record.version)
            }
            None => {
                let Some(ghz) = frequency_ghz else {
                    return Err(EstimaError::SeriesNotFound {
                        series: id.to_string(),
                    });
                };
                self.check_series_quota(&series, id)?;
                (ghz, true, !points.is_empty(), points.len(), 0)
            }
        };
        let mutations = u64::from(created) + u64::from(changed);
        let version = version_before + mutations;
        if new_points > 0 {
            self.check_points_quota(&series, id, new_points)?;
        }
        // Append-before-apply: if the log rejects the record (torn write,
        // fsync failure), the store is left untouched.
        if mutations > 0 {
            if let Some(wal) = &self.wal {
                wal.lock().unwrap().append_ingest_set(
                    id,
                    frequency_ghz,
                    &points,
                    version,
                    mutations,
                )?;
            }
        }
        let record = series.entry(id.clone()).or_insert_with(|| SeriesRecord {
            set: Arc::new(MeasurementSet::new(id.as_str(), frequency_ghz)),
            version: 1,
            last_write: Instant::now(),
        });
        if changed {
            let stored = Arc::make_mut(&mut record.set);
            for measurement in points.into_owned() {
                stored.push(measurement);
            }
        }
        record.version = version;
        if mutations > 0 {
            record.last_write = Instant::now();
            self.ingests.fetch_add(mutations, Ordering::Relaxed);
        }
        let snapshot = SeriesSnapshot {
            id: id.clone(),
            version: record.version,
            set: Arc::clone(&record.set),
        };
        if mutations > 0 {
            self.maybe_compact(&series);
        }
        Ok((snapshot, changed))
    }

    /// A consistent snapshot of one series, or `None` when it does not
    /// exist.
    pub fn snapshot(&self, id: &SeriesId) -> Option<SeriesSnapshot> {
        let series = self.series.read().unwrap();
        series.get(id).map(|record| SeriesSnapshot {
            id: id.clone(),
            version: record.version,
            set: Arc::clone(&record.set),
        })
    }

    /// Summaries of every stored series, ordered by id.
    pub fn list(&self) -> Vec<SeriesInfo> {
        let series = self.series.read().unwrap();
        series
            .iter()
            .map(|(id, record)| SeriesInfo {
                id: id.clone(),
                version: record.version,
                points: record.set.len(),
                max_cores: record.set.max_cores(),
                frequency_ghz: record.set.frequency_ghz,
            })
            .collect()
    }

    /// Remove a series, returning its final snapshot (or `Ok(None)` when it
    /// did not exist). On a durable store the eviction is write-ahead
    /// logged first; a log failure leaves the series in place.
    pub fn evict(&self, id: &SeriesId) -> Result<Option<SeriesSnapshot>> {
        let mut series = self.series.write().unwrap();
        if !series.contains_key(id) {
            return Ok(None);
        }
        if let Some(wal) = &self.wal {
            wal.lock().unwrap().append_evict(id)?;
        }
        let record = series.remove(id).expect("checked above under this lock");
        Ok(Some(SeriesSnapshot {
            id: id.clone(),
            version: record.version,
            set: record.set,
        }))
    }

    /// Number of stored series.
    pub fn len(&self) -> usize {
        self.series.read().unwrap().len()
    }

    /// True when no series are stored.
    pub fn is_empty(&self) -> bool {
        self.series.read().unwrap().is_empty()
    }

    /// Total measurement points across all series.
    pub fn total_points(&self) -> usize {
        let series = self.series.read().unwrap();
        series.values().map(|record| record.set.len()).sum()
    }

    /// Total content mutations (series created + ingests that changed
    /// content) since construction.
    pub fn ingests(&self) -> u64 {
        self.ingests.load(Ordering::Relaxed)
    }
}

/// One prediction surface over collection *and* extrapolation: a
/// [`MeasurementStore`], an [`Estima`] predictor and a sharded [`FitCache`]
/// bound together.
///
/// The session is the primary API of the crate; [`Estima::predict`] and
/// [`BatchPredictor`](crate::engine::BatchPredictor) are the convenience
/// layer over the same pipeline for callers who hold a complete
/// [`MeasurementSet`] (an anonymous single-series session, in effect).
/// `estima-serve` exposes a session's operations 1:1 as its `/v1/series`
/// endpoints, so in-process and HTTP callers see identical semantics — and
/// identical bytes.
///
/// # Cache discipline
///
/// [`EstimaSession::predict`] tags every fit-cache key with the snapshot's
/// `(series, version)` [`CacheScope`]: re-predicting an unchanged series is
/// a pure cache hit, while any ingest bumps the version (a guaranteed miss
/// for that series — and only that series) and immediately sweeps the
/// now-stale entries out of the cache
/// ([`FitCache::invalidate_series`]). See the module docs for the version
/// semantics; see the [module example](crate::store) for usage.
#[derive(Debug, Default)]
pub struct EstimaSession {
    estima: Estima,
    store: MeasurementStore,
    cache: Arc<FitCache>,
}

impl EstimaSession {
    /// Create a session with an empty store and its own fit cache.
    pub fn new(config: EstimaConfig) -> Self {
        EstimaSession::with_cache(config, Arc::new(FitCache::new()))
    }

    /// Create a session sharing an externally owned [`FitCache`] (e.g. the
    /// server's capacity-bounded cache).
    pub fn with_cache(config: EstimaConfig, cache: Arc<FitCache>) -> Self {
        EstimaSession::with_store(config, cache, MeasurementStore::new())
    }

    /// Create a session around an externally constructed store — a durable
    /// one from [`MeasurementStore::open`], or one with
    /// [`StoreLimits`] — sharing an externally owned [`FitCache`].
    pub fn with_store(config: EstimaConfig, cache: Arc<FitCache>, store: MeasurementStore) -> Self {
        EstimaSession {
            estima: Estima::new(config),
            store,
            cache,
        }
    }

    /// Borrow the underlying predictor.
    pub fn estima(&self) -> &Estima {
        &self.estima
    }

    /// Borrow the predictor configuration.
    pub fn config(&self) -> &EstimaConfig {
        self.estima.config()
    }

    /// Borrow the measurement store.
    pub fn store(&self) -> &MeasurementStore {
        &self.store
    }

    /// Borrow the shared fit cache (for statistics).
    pub fn cache(&self) -> &FitCache {
        &self.cache
    }

    /// Evict every TTL-expired series and drop its cached fits; see
    /// [`MeasurementStore::sweep_expired`]. Runs automatically before every
    /// session call that touches a series, reads included, so no call
    /// serves or writes a series the TTL has expired; free (no lock) when
    /// no TTL is configured.
    pub fn sweep_expired(&self) -> Vec<SeriesId> {
        let evicted = self.store.sweep_expired();
        for id in &evicted {
            self.cache.invalidate_series(id.as_str());
        }
        evicted
    }

    /// The one content write of a session: sweep the TTL-expired series,
    /// [`MeasurementStore::merge`] `points` into `id`, and invalidate the
    /// series' cached fits when its content changed. A merge that changes
    /// nothing (every point [`Measurement::content_eq`] to the stored one)
    /// leaves the version and the cache alone, so the next predict is
    /// still a pure hit; on a change, the next [`EstimaSession::predict`]
    /// of this series refits and every other series' fits are untouched.
    /// Because the sweep runs first, a write without a clock into a series
    /// the TTL has expired is [`EstimaError::SeriesNotFound`].
    pub fn merge(
        &self,
        id: &SeriesId,
        frequency_ghz: Option<f64>,
        points: Cow<'_, [Measurement]>,
    ) -> Result<(SeriesSnapshot, bool)> {
        self.sweep_expired();
        let (snapshot, changed) = self.store.merge(id, frequency_ghz, points)?;
        if changed {
            self.cache.invalidate_series(id.as_str());
        }
        Ok((snapshot, changed))
    }

    /// Create or verify a series: [`EstimaSession::merge`] of no points;
    /// see [`MeasurementStore::ensure`].
    pub fn ensure(&self, id: &SeriesId, frequency_ghz: f64) -> Result<u64> {
        self.merge(id, Some(frequency_ghz), Cow::Borrowed(&[]))
            .map(|(snapshot, _)| snapshot.version)
    }

    /// Append one measurement to a series at its stored clock:
    /// [`EstimaSession::merge`] of one point without a frequency. Returns
    /// the current version.
    pub fn ingest(&self, id: &SeriesId, measurement: Measurement) -> Result<u64> {
        self.merge(id, None, vec![measurement].into())
            .map(|(snapshot, _)| snapshot.version)
    }

    /// Merge a whole measurement set into a series at the set's clock,
    /// creating it when absent: [`EstimaSession::merge`] of the set's
    /// points. Returns the post-merge snapshot.
    pub fn ingest_set(&self, id: &SeriesId, set: &MeasurementSet) -> Result<SeriesSnapshot> {
        self.merge(id, Some(set.frequency_ghz), set.measurements().into())
            .map(|(snapshot, _)| snapshot)
    }

    /// Run `read` on the current snapshot of `id` after the TTL sweep (or
    /// fail with [`EstimaError::SeriesNotFound`]), in the fit context every
    /// series read shares: the session's cache, with keys tagged by the
    /// snapshot's `(series, version)` [`CacheScope`].
    fn read_series<R>(
        &self,
        id: &SeriesId,
        read: impl FnOnce(&MeasurementSet, FitContext<'_>) -> Result<R>,
    ) -> Result<R> {
        let snapshot = self
            .snapshot(id)
            .ok_or_else(|| EstimaError::SeriesNotFound {
                series: id.to_string(),
            })?;
        let ctx = FitContext {
            cache: Some(&self.cache),
            scope: Some(CacheScope {
                series: snapshot.id.as_str(),
                version: snapshot.version,
            }),
            ..self.estima.fit_context()
        };
        read(&snapshot.set, ctx)
    }

    /// Predict a named series at its current version.
    ///
    /// The snapshot is taken atomically (concurrent ingests never produce a
    /// torn read), and the result is bit-identical to
    /// [`Estima::predict`] on the snapshot's full set — incremental
    /// collection changes *when* measurements arrive, never what a
    /// prediction says.
    pub fn predict(&self, id: &SeriesId, target: &TargetSpec) -> Result<Prediction> {
        self.read_series(id, |set, ctx| self.estima.predict_in(set, target, &ctx))
    }

    /// Predict an anonymous, caller-held measurement set through the
    /// session's cache (structural keys, no series scope). This is the
    /// convenience path [`BatchPredictor`](crate::engine::BatchPredictor)
    /// and the server's stateless `/v1/predict` endpoint run on.
    pub fn predict_set(&self, set: &MeasurementSet, target: &TargetSpec) -> Result<Prediction> {
        let ctx = FitContext {
            cache: Some(&self.cache),
            ..self.estima.fit_context()
        };
        self.estima.predict_in(set, target, &ctx)
    }

    /// [`EstimaSession::predict`] with a jackknife confidence interval
    /// attached ([`Prediction::confidence`] is `Some`). Same snapshot and
    /// cache discipline as a plain predict; the leave-one-out refits share
    /// the series' [`CacheScope`], so re-estimating an unchanged series is a
    /// pure cache hit. Requires one measurement beyond the pipeline minimum
    /// (see [`Planner::confidence`]).
    pub fn predict_with_confidence(
        &self,
        id: &SeriesId,
        target: &TargetSpec,
    ) -> Result<Prediction> {
        self.read_series(id, |set, ctx| {
            let (prediction, _) = Planner::in_context(&self.estima, ctx).confidence(set, target)?;
            Ok(prediction)
        })
    }

    /// Rank which measurement to take next for a named series; see
    /// [`Planner::plan`]. The hypothetical refits are cached under the
    /// series' scope, so repeated plans of an unchanged series are pure
    /// cache hits and any ingest invalidates them along with everything
    /// else the series cached.
    pub fn plan(
        &self,
        id: &SeriesId,
        target: &TargetSpec,
        max_suggestions: usize,
    ) -> Result<MeasurementPlan> {
        self.read_series(id, |set, ctx| {
            Planner::in_context(&self.estima, ctx).plan(set, target, max_suggestions)
        })
    }

    /// Summaries of every stored series, ordered by id, after the TTL
    /// sweep.
    pub fn list(&self) -> Vec<SeriesInfo> {
        self.sweep_expired();
        self.store.list()
    }

    /// A consistent snapshot of one series, or `None` when it does not
    /// exist (or the TTL sweep has just expired it).
    pub fn snapshot(&self, id: &SeriesId) -> Option<SeriesSnapshot> {
        self.sweep_expired();
        self.store.snapshot(id)
    }

    /// Remove a series and drop its cached fits. Returns the final snapshot,
    /// or `Ok(None)` when the series did not exist; on a durable store a
    /// persistence failure leaves the series (and its fits) in place.
    pub fn evict(&self, id: &SeriesId) -> Result<Option<SeriesSnapshot>> {
        self.sweep_expired();
        let snapshot = self.store.evict(id)?;
        if snapshot.is_some() {
            self.cache.invalidate_series(id.as_str());
        }
        Ok(snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measurement::StallCategory;

    fn point(cores: u32) -> Measurement {
        let n = cores as f64;
        Measurement::new(cores, 50.0 / n + 1.0).with_stall(
            StallCategory::backend("rob_full"),
            2.0e9 * (1.0 + 0.08 * n * n),
        )
    }

    fn id(name: &str) -> SeriesId {
        SeriesId::new(name).unwrap()
    }

    #[test]
    fn series_id_validation() {
        assert!(SeriesId::new("my-app_1.2").is_ok());
        assert!(matches!(
            SeriesId::new(""),
            Err(EstimaError::InvalidSeriesId { .. })
        ));
        assert!(matches!(
            SeriesId::new("has space"),
            Err(EstimaError::InvalidSeriesId { .. })
        ));
        assert!(matches!(
            SeriesId::new("a/b"),
            Err(EstimaError::InvalidSeriesId { .. })
        ));
        assert!(matches!(
            SeriesId::new("x".repeat(SeriesId::MAX_LEN + 1)),
            Err(EstimaError::InvalidSeriesId { .. })
        ));
        assert_eq!("ok-1".parse::<SeriesId>().unwrap().as_str(), "ok-1");
    }

    #[test]
    fn ensure_creates_once_and_detects_frequency_conflicts() {
        let store = MeasurementStore::new();
        let app = id("app");
        assert_eq!(store.ensure(&app, 2.1).unwrap(), 1);
        assert_eq!(store.ensure(&app, 2.1).unwrap(), 1);
        assert!(matches!(
            store.ensure(&app, 3.0),
            Err(EstimaError::SeriesConflict { .. })
        ));
        assert!(matches!(
            store.ensure(&id("bad"), 0.0),
            Err(EstimaError::InvalidConfig(_))
        ));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn ingest_requires_existing_series_and_bumps_versions() {
        let store = MeasurementStore::new();
        let app = id("app");
        assert!(matches!(
            store.ingest(&app, point(1)),
            Err(EstimaError::SeriesNotFound { .. })
        ));
        store.ensure(&app, 2.1).unwrap();
        assert_eq!(store.ingest(&app, point(1)).unwrap(), 2);
        assert_eq!(store.ingest(&app, point(2)).unwrap(), 3);
        // Re-pushing a bit-identical point is content-idempotent: no bump.
        assert_eq!(store.ingest(&app, point(2)).unwrap(), 3);
        // Replacing with *different* content at the same core count bumps.
        let mut hotter = point(2);
        hotter.exec_time *= 1.5;
        assert_eq!(store.ingest(&app, hotter).unwrap(), 4);
        let snapshot = store.snapshot(&app).unwrap();
        assert_eq!(snapshot.version, 4);
        assert_eq!(snapshot.set.core_counts(), vec![1, 2]);
        assert_eq!(store.total_points(), 2);
        assert_eq!(store.ingests(), 4);
    }

    #[test]
    fn redundant_ingests_do_not_invalidate_cached_fits() {
        let session = EstimaSession::new(EstimaConfig::default().with_parallelism(1));
        let app = id("app");
        session.ensure(&app, 2.1).unwrap();
        for cores in 1..=10 {
            session.ingest(&app, point(cores)).unwrap();
        }
        let target = TargetSpec::cores(40);
        session.predict(&app, &target).unwrap();
        let misses_cold = session.cache().stats().1;
        let version = session.snapshot(&app).unwrap().version;

        // Re-push every point bit-identically: same version, cache intact,
        // and the follow-up predict is answered entirely from the cache.
        for cores in 1..=10 {
            assert_eq!(session.ingest(&app, point(cores)).unwrap(), version);
        }
        assert_eq!(session.cache().invalidations(), 0);
        session.predict(&app, &target).unwrap();
        assert_eq!(
            session.cache().stats().1,
            misses_cold,
            "a redundant re-ingest forced a refit"
        );

        // A redundant whole-set merge is just as idempotent.
        let snapshot = session.snapshot(&app).unwrap();
        let merged = session.ingest_set(&app, &snapshot.set).unwrap();
        assert_eq!(merged.version, version);
        assert_eq!(session.cache().invalidations(), 0);
    }

    #[test]
    fn snapshots_are_immune_to_later_ingests() {
        let store = MeasurementStore::new();
        let app = id("app");
        store.ensure(&app, 2.1).unwrap();
        store.ingest(&app, point(1)).unwrap();
        let before = store.snapshot(&app).unwrap();
        store.ingest(&app, point(2)).unwrap();
        assert_eq!(before.set.len(), 1, "snapshot changed under a later ingest");
        assert_eq!(store.snapshot(&app).unwrap().set.len(), 2);
    }

    #[test]
    fn ingest_set_merges_and_renames_to_the_series_id() {
        let store = MeasurementStore::new();
        let app = id("app");
        let mut set = MeasurementSet::new("other-name", 2.1);
        for cores in 1..=4 {
            set.push(point(cores));
        }
        let merged = store.ingest_set(&app, &set).unwrap();
        // The returned snapshot is the post-merge state, taken atomically.
        assert_eq!(merged.version, 2);
        assert_eq!(merged.set.app_name, "app");
        assert_eq!(merged.set.len(), 4);
        // Merging an empty set is a no-op: same version, no invalidation.
        let empty = MeasurementSet::new("x", 2.1);
        assert_eq!(store.ingest_set(&app, &empty).unwrap().version, 2);
        // Frequency mismatch on merge is a conflict; a bad frequency is
        // rejected before it can create anything.
        let wrong = MeasurementSet::new("x", 9.9).with(point(5));
        assert!(matches!(
            store.ingest_set(&app, &wrong),
            Err(EstimaError::SeriesConflict { .. })
        ));
        assert!(matches!(
            store.ingest_set(&id("fresh"), &MeasurementSet::new("x", f64::NAN)),
            Err(EstimaError::InvalidConfig(_))
        ));
        assert!(store.snapshot(&id("fresh")).is_none());
    }

    #[test]
    fn list_is_ordered_and_evict_removes() {
        let store = MeasurementStore::new();
        for name in ["zeta", "alpha", "mid"] {
            store.ensure(&id(name), 2.1).unwrap();
        }
        let listed: Vec<String> = store.list().iter().map(|i| i.id.to_string()).collect();
        assert_eq!(listed, vec!["alpha", "mid", "zeta"]);
        assert!(store.evict(&id("mid")).unwrap().is_some());
        assert!(store.evict(&id("mid")).unwrap().is_none());
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn session_incremental_ingestion_matches_one_shot_predict() {
        let config = EstimaConfig::default().with_parallelism(1);
        let session = EstimaSession::new(config.clone());
        let app = id("demo");
        let mut full = MeasurementSet::new("demo", 2.1);
        session.ensure(&app, 2.1).unwrap();
        for cores in 1..=10 {
            full.push(point(cores));
            session.ingest(&app, point(cores)).unwrap();
        }
        let target = TargetSpec::cores(40);
        let incremental = session.predict(&app, &target).unwrap();
        let one_shot = Estima::new(config).predict(&full, &target).unwrap();
        assert_eq!(incremental.app_name, one_shot.app_name);
        for ((c1, t1), (c2, t2)) in one_shot
            .predicted_time
            .iter()
            .zip(&incremental.predicted_time)
        {
            assert_eq!(c1, c2);
            assert_eq!(t1.to_bits(), t2.to_bits());
        }
    }

    #[test]
    fn cache_versioning_hits_unchanged_and_misses_exactly_the_mutated_series() {
        let session = EstimaSession::new(EstimaConfig::default().with_parallelism(1));
        let (a, b) = (id("a"), id("b"));
        for series in [&a, &b] {
            session.ensure(series, 2.1).unwrap();
            for cores in 1..=10 {
                session.ingest(series, point(cores)).unwrap();
            }
        }
        let target = TargetSpec::cores(40);
        // Every read of a named series: plain predict, confidence, plan.
        let reads: [&dyn Fn(&SeriesId); 3] = [
            &|series| drop(session.predict(series, &target).unwrap()),
            &|series| drop(session.predict_with_confidence(series, &target).unwrap()),
            &|series| drop(session.plan(series, &target, 3).unwrap()),
        ];
        for read in reads {
            read(&a);
        }
        let entries_of_a = session.cache().len();
        for read in reads {
            read(&b);
        }

        // Unchanged series: every read again is pure hits, no new misses.
        for read in reads {
            for series in [&a, &b] {
                let (hits, misses) = session.cache().stats();
                read(series);
                let (hits_warm, misses_warm) = session.cache().stats();
                assert_eq!(misses_warm, misses, "unchanged {series} refit");
                assert!(hits_warm > hits, "unchanged {series} bypassed the cache");
            }
        }

        // Ingest into `a` only: exactly everything `a`'s reads cached is
        // invalidated; `b`'s next plan still hits, `a`'s misses.
        assert_eq!(session.cache().evictions(), 0);
        session.ingest(&a, point(11)).unwrap();
        assert_eq!(
            session.cache().invalidations(),
            entries_of_a,
            "an ingest into a must drop every fit a's reads cached"
        );
        let misses = session.cache().stats().1;
        session.plan(&b, &target, 3).unwrap();
        assert_eq!(
            session.cache().stats().1,
            misses,
            "series b was invalidated by an ingest into series a"
        );
        session.plan(&a, &target, 3).unwrap();
        assert!(
            session.cache().stats().1 > misses,
            "series a served stale fits after an ingest"
        );
    }

    #[test]
    fn predict_missing_series_is_series_not_found() {
        let session = EstimaSession::new(EstimaConfig::default());
        assert!(matches!(
            session.predict(&id("ghost"), &TargetSpec::cores(8)),
            Err(EstimaError::SeriesNotFound { .. })
        ));
    }

    #[test]
    fn evict_drops_cached_fits() {
        let session = EstimaSession::new(EstimaConfig::default().with_parallelism(1));
        let app = id("app");
        session.ensure(&app, 2.1).unwrap();
        for cores in 1..=10 {
            session.ingest(&app, point(cores)).unwrap();
        }
        session.predict(&app, &TargetSpec::cores(40)).unwrap();
        assert!(!session.cache().is_empty());
        let snapshot = session.evict(&app).unwrap().unwrap();
        assert_eq!(snapshot.set.len(), 10);
        assert!(
            session.cache().is_empty(),
            "evicting the only series must drop its cached fits"
        );
    }

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "estima-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_store_restores_exact_versions_and_counters() {
        let dir = tmp_dir("reopen");
        let options = DurabilityOptions::new(&dir);
        {
            let store = MeasurementStore::open(&options).unwrap();
            let app = id("app");
            store.ensure(&app, 2.1).unwrap();
            for cores in 1..=6 {
                store.ingest(&app, point(cores)).unwrap();
            }
            // A redundant ingest is logged nowhere: no version bump on
            // disk either.
            store.ingest(&app, point(3)).unwrap();
            store.ensure(&id("other"), 3.0).unwrap();
            store.evict(&id("other")).unwrap().unwrap();
            assert_eq!(store.ingests(), 8);
        }
        let store = MeasurementStore::open(&options).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.ingests(), 8);
        let snapshot = store.snapshot(&id("app")).unwrap();
        assert_eq!(snapshot.version, 7);
        assert_eq!(snapshot.set.len(), 6);
        for cores in 1..=6 {
            assert!(snapshot
                .set
                .at_cores(cores)
                .unwrap()
                .content_eq(&point(cores)));
        }
        // create app + 6 ingests + create other + evict other = 9 records.
        assert_eq!(store.wal_stats().unwrap().replays, 9);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_ingest_set_survives_compaction_and_reopen() {
        let dir = tmp_dir("compact");
        // A tiny threshold so the second mutation triggers compaction.
        let options = DurabilityOptions::new(&dir).with_compact_bytes(64);
        {
            let store = MeasurementStore::open(&options).unwrap();
            let mut set = MeasurementSet::new("ignored", 2.1);
            for cores in 1..=5 {
                set.push(point(cores));
            }
            let merged = store.ingest_set(&id("app"), &set).unwrap();
            assert_eq!(merged.version, 2);
            store.ingest(&id("app"), point(6)).unwrap();
            let stats = store.wal_stats().unwrap();
            assert!(stats.snapshots >= 1, "compaction never ran: {stats:?}");
        }
        let store = MeasurementStore::open(&options).unwrap();
        let snapshot = store.snapshot(&id("app")).unwrap();
        assert_eq!(snapshot.version, 3);
        assert_eq!(snapshot.set.len(), 6);
        assert_eq!(snapshot.set.app_name, "app");
        assert_eq!(store.ingests(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_session_predictions_are_bit_identical_after_reopen() {
        let dir = tmp_dir("predict");
        let options = DurabilityOptions::new(&dir);
        let config = EstimaConfig::default().with_parallelism(1);
        let app = id("app");
        let target = TargetSpec::cores(40);
        let before = {
            let session = EstimaSession::with_store(
                config.clone(),
                Arc::new(FitCache::new()),
                MeasurementStore::open(&options).unwrap(),
            );
            session.ensure(&app, 2.1).unwrap();
            for cores in 1..=10 {
                session.ingest(&app, point(cores)).unwrap();
            }
            session.predict(&app, &target).unwrap()
        };
        let session = EstimaSession::with_store(
            config,
            Arc::new(FitCache::new()),
            MeasurementStore::open(&options).unwrap(),
        );
        let after = session.predict(&app, &target).unwrap();
        assert_eq!(before.predicted_time.len(), after.predicted_time.len());
        for ((c1, t1), (c2, t2)) in before.predicted_time.iter().zip(&after.predicted_time) {
            assert_eq!(c1, c2);
            assert_eq!(
                t1.to_bits(),
                t2.to_bits(),
                "prediction drifted at {c1} cores"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_store_refuses_non_finite_values_and_keeps_its_state() {
        let dir = tmp_dir("finite");
        let durable = MeasurementStore::open(&DurabilityOptions::new(&dir)).unwrap();
        let wal_len = || {
            std::fs::metadata(dir.join(crate::wal::WAL_FILE))
                .unwrap()
                .len()
        };
        let app = id("app");
        for store in [&MeasurementStore::new(), &durable] {
            store.ensure(&app, 2.1).unwrap();
            store.ingest(&app, point(1)).unwrap();
            let before = store.snapshot(&app).unwrap();
            let (ingests, logged) = (store.ingests(), wal_len());
            let refused = [
                (Measurement::new(2, f64::NAN), "exec_time NaN is not finite"),
                (
                    Measurement::new(2, f64::INFINITY),
                    "exec_time inf is not finite",
                ),
                (
                    point(2).with_stall(StallCategory::backend("bad"), f64::NAN),
                    "stall cycles NaN is not finite",
                ),
            ];
            for (bad, expected) in refused {
                match store.merge(&app, None, vec![bad].into()) {
                    Err(EstimaError::InvalidMeasurement { cores: 2, detail }) => {
                        assert_eq!(detail, expected)
                    }
                    other => panic!("expected InvalidMeasurement, got {other:?}"),
                }
                let after = store.snapshot(&app).unwrap();
                assert_eq!(after.version, before.version);
                assert_eq!(after.set.len(), before.set.len());
                assert!(after.set.at_cores(1).unwrap().content_eq(&point(1)));
                assert_eq!(store.ingests(), ingests);
                assert_eq!(wal_len(), logged);
            }
        }
        drop(durable);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ttl_sweep_evicts_idle_series_and_their_fits() {
        let limits = StoreLimits::new().with_ttl(Duration::from_millis(30));
        let session = EstimaSession::with_store(
            EstimaConfig::default().with_parallelism(1),
            Arc::new(FitCache::new()),
            MeasurementStore::new().with_limits(limits),
        );
        let app = id("app");
        session.ensure(&app, 2.1).unwrap();
        for cores in 1..=10 {
            session.ingest(&app, point(cores)).unwrap();
        }
        session.predict(&app, &TargetSpec::cores(40)).unwrap();
        assert!(!session.cache().is_empty());
        std::thread::sleep(Duration::from_millis(40));
        let evicted = session.sweep_expired();
        assert_eq!(evicted, vec![app.clone()]);
        assert!(session.store().is_empty());
        assert!(session.cache().is_empty(), "expired series kept its fits");
        // A sweeping store still accepts the series back afterwards.
        assert_eq!(session.ensure(&app, 2.1).unwrap(), 1);
    }

    #[test]
    fn tenant_quotas_reject_with_retry_hints() {
        let limits = StoreLimits::new()
            .with_max_series_per_tenant(2)
            .with_max_points_per_tenant(3);
        let store = MeasurementStore::new().with_limits(limits);
        // Series quota: two `acme.*` series fit, the third is rejected;
        // another tenant is unaffected.
        store.ensure(&id("acme.checkout"), 2.1).unwrap();
        store.ensure(&id("acme.search"), 2.1).unwrap();
        let err = store.ensure(&id("acme.feed"), 2.1).unwrap_err();
        match err {
            EstimaError::QuotaExceeded {
                tenant,
                retry_after_ms,
                ..
            } => {
                assert_eq!(tenant, "acme");
                assert_eq!(retry_after_ms, 1000, "no TTL → fixed retry hint");
            }
            other => panic!("expected QuotaExceeded, got {other:?}"),
        }
        store.ensure(&id("globex.api"), 2.1).unwrap();
        // Point quota is shared across the tenant's series.
        store.ingest(&id("acme.checkout"), point(1)).unwrap();
        store.ingest(&id("acme.checkout"), point(2)).unwrap();
        store.ingest(&id("acme.search"), point(1)).unwrap();
        assert!(matches!(
            store.ingest(&id("acme.search"), point(2)),
            Err(EstimaError::QuotaExceeded { .. })
        ));
        // Replacing an existing core count adds no point: allowed.
        let mut hotter = point(2);
        hotter.exec_time *= 1.5;
        store.ingest(&id("acme.checkout"), hotter).unwrap();
        // Evicting frees quota again.
        store.evict(&id("acme.checkout")).unwrap().unwrap();
        store.ingest(&id("acme.search"), point(2)).unwrap();
        // ingest_set counts its genuinely-new points in one check.
        let mut set = MeasurementSet::new("x", 2.1);
        for cores in 1..=4 {
            set.push(point(cores));
        }
        assert!(matches!(
            store.ingest_set(&id("acme.bulk"), &set),
            Err(EstimaError::QuotaExceeded { .. })
        ));
        assert!(
            store.snapshot(&id("acme.bulk")).is_none(),
            "a rejected merge must not half-create the series"
        );
    }
}
