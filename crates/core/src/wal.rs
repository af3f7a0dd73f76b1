//! Crash-safe persistence for the measurement store: a write-ahead log plus
//! full-store snapshots.
//!
//! A [`MeasurementStore`](crate::store::MeasurementStore) opened with
//! [`DurabilityOptions`] appends one checksummed record to the log for every
//! content mutation — *before* the mutation is applied in memory — so a
//! crash at any instant loses at most the mutation whose append had not
//! completed (and that mutation was never acknowledged to the caller).
//! Startup hands the store the last snapshot plus the log tail, which it
//! applies through its one write, `MeasurementStore::merge`; every series
//! comes back at its exact pre-crash version, and because [`crate::json`]
//! renders finite `f64`s with the shortest-round-trip encoding, every
//! replayed measurement is *bit-identical* to what was ingested —
//! predictions after a crash are byte-for-byte the predictions of an
//! uninterrupted run.
//!
//! # Record format
//!
//! The log is a sequence of length-prefixed, checksummed frames:
//!
//! ```text
//! [payload_len: u32 LE] [fnv1a64(payload): u64 LE] [payload: JSON bytes]
//! ```
//!
//! The payload is one JSON object that [`crate::json`] renders straight
//! into the frame, behind the header it then fills in. Writes
//! produce two kinds: `{"op": "ingest_set", "series", "frequency_ghz",
//! "points", "version", "mutations"}` for every content write (one
//! `MeasurementStore::merge`), and `{"op": "evict", "series"}`. Replay also
//! reads the `create` and `ingest` records earlier builds wrote, as the
//! merges of no points at the record's clock and of one point at the
//! stored clock that the store now logs for the same writes. FNV-1a is
//! computed over the payload bytes only; the length prefix is implicitly
//! validated by the checksum (a corrupted length either overruns the buffer
//! — treated as a torn tail — or frames the wrong bytes, which fail the
//! checksum).
//!
//! # Recovery state machine
//!
//! Replay walks the log front to back and stops at the **first** frame that
//! is incomplete (fewer bytes than the header + declared length), fails its
//! checksum, or does not decode into a record. Everything before that point
//! is the committed prefix and is applied; everything from that point on is
//! the torn tail of an interrupted append and is physically truncated away.
//! A committed record is never discarded: appends are sequential, so
//! corruption past a frame boundary cannot precede intact frames. A
//! committed record the store's merge refuses (e.g. a points-only write
//! into a series that was never created) indicates external tampering and
//! fails the open loudly rather than guessing.
//!
//! # Snapshot / compaction protocol
//!
//! When the log grows past [`DurabilityOptions::compact_bytes`], the store
//! writes its entire contents to `snapshot.json.tmp`, fsyncs, renames over
//! `snapshot.json` (atomic on POSIX), fsyncs the directory, and only then
//! truncates the log to zero. A crash at any point leaves either the old
//! snapshot + full log or the new snapshot (+ a log tail of later appends)
//! — both replay to the same state.
//!
//! # Fault injection
//!
//! The append path consults a `failpoint` hook (compiled under
//! `cfg(test)` only) that can tear a write mid-frame or fail the durability
//! sync, so the recovery path is testable without a real crash. The
//! kill -9 integration test in `estima-serve` covers the real thing.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::error::{EstimaError, Result};
use crate::json::Json;
use crate::measurement::{Measurement, MeasurementSet};
use crate::store::SeriesId;

/// File name of the write-ahead log inside the data directory.
pub const WAL_FILE: &str = "wal.log";

/// File name of the full-store snapshot inside the data directory.
pub const SNAPSHOT_FILE: &str = "snapshot.json";

/// Scratch name the snapshot is staged under before the atomic rename.
const SNAPSHOT_TMP: &str = "snapshot.json.tmp";

/// Bytes of frame header: `u32` payload length + `u64` FNV-1a checksum.
const FRAME_HEADER_BYTES: usize = 12;

/// Upper bound on one record's payload. A declared length beyond this is
/// treated as corruption rather than an allocation request.
const MAX_RECORD_BYTES: usize = 64 * 1024 * 1024;

/// 64-bit FNV-1a over a byte slice: the frame checksum (no new deps).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in bytes {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// How a [`MeasurementStore`](crate::store::MeasurementStore) persists its
/// contents; passed to
/// [`MeasurementStore::open`](crate::store::MeasurementStore::open).
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// Directory holding [`WAL_FILE`] and [`SNAPSHOT_FILE`]; created when
    /// absent.
    pub dir: PathBuf,
    /// When true, every append is followed by `fdatasync` before the
    /// mutation is acknowledged — survives power loss, costs one disk flush
    /// per mutation. When false (the default), appends reach the OS page
    /// cache immediately: they survive a process crash (`kill -9`) but not
    /// a machine crash.
    pub sync: bool,
    /// Log size that triggers compaction (snapshot + log truncation).
    pub compact_bytes: u64,
}

impl DurabilityOptions {
    /// Durability in `dir` with the defaults: no per-append fsync, 4 MiB
    /// compaction threshold.
    pub fn new(dir: impl Into<PathBuf>) -> DurabilityOptions {
        DurabilityOptions {
            dir: dir.into(),
            sync: false,
            compact_bytes: 4 * 1024 * 1024,
        }
    }

    /// Set whether every append is fsynced before it is acknowledged.
    pub fn with_sync(mut self, sync: bool) -> DurabilityOptions {
        self.sync = sync;
        self
    }

    /// Set the log size that triggers compaction.
    pub fn with_compact_bytes(mut self, bytes: u64) -> DurabilityOptions {
        self.compact_bytes = bytes.max(1);
        self
    }
}

/// Counters of the persistence layer, reported by `/v1/stats` as the `wal`
/// object.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct WalStats {
    /// Records in the live log (replayed at startup + appended since the
    /// last compaction).
    pub records: u64,
    /// Size of the live log in bytes.
    pub bytes: u64,
    /// Compactions (snapshot writes) performed by this process.
    pub snapshots: u64,
    /// Records replayed from the log at startup.
    pub replays: u64,
    /// Wall-clock duration of the most recent compaction, in milliseconds
    /// (0 until one has run).
    pub last_compaction_ms: f64,
}

/// A record as replay hands it to the store (the append path encodes
/// straight from borrowed data).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum WalRecord {
    /// A merge (`MeasurementStore::merge`): `points` join the series at
    /// `version`, creating it at `frequency_ghz` when absent. `mutations` is
    /// how many content mutations the write counted (create and content
    /// change are separate bumps of the store's counter; a snapshot series
    /// counts none). Only a retired `ingest` record has no clock: its point
    /// joins at the stored one.
    Merge {
        series: SeriesId,
        frequency_ghz: Option<f64>,
        points: Vec<Measurement>,
        version: u64,
        mutations: u64,
    },
    /// `evict` (or a TTL sweep) removed a series.
    Evict { series: SeriesId },
}

fn storage(detail: impl Into<String>) -> EstimaError {
    EstimaError::StorageFailure {
        detail: detail.into(),
    }
}

fn corrupt(detail: impl Into<String>) -> EstimaError {
    EstimaError::StorageFailure {
        detail: format!("corrupt persistence state: {}", detail.into()),
    }
}

/// Encode measurements for a log record or a snapshot with the shared
/// measurement codec ([`Measurement::to_json`]).
fn points_to_json(points: &[Measurement]) -> Json {
    Json::Array(points.iter().map(Measurement::to_json).collect())
}

/// Decode the points of a record or a snapshot series.
fn points_from_json(points: &[Json]) -> Result<Vec<Measurement>> {
    points
        .iter()
        .map(|point| Measurement::from_json(point, &"point").map_err(corrupt))
        .collect()
}

impl WalRecord {
    /// Decode a record from a frame payload.
    fn from_json(value: &Json) -> Result<WalRecord> {
        let op = value
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| corrupt("record without an `op`"))?;
        let series = || -> Result<SeriesId> {
            SeriesId::new(
                value
                    .get("series")
                    .and_then(Json::as_str)
                    .ok_or_else(|| corrupt("record without a `series`"))?,
            )
        };
        let u64_field = |name: &str| -> Result<u64> {
            value
                .get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| corrupt(format!("record without an integer `{name}`")))
        };
        let f64_field = |name: &str| -> Result<f64> {
            value
                .get(name)
                .and_then(Json::as_f64)
                .ok_or_else(|| corrupt(format!("record without a numeric `{name}`")))
        };
        // `create` and `ingest` are written only by earlier builds; each
        // replays as the merge the store now logs for the same write.
        let (frequency_ghz, points, mutations) = match op {
            "create" => (Some(f64_field("frequency_ghz")?), Vec::new(), 1),
            "ingest" => {
                let point = value
                    .get("point")
                    .ok_or_else(|| corrupt("ingest record without a `point`"))?;
                let point = Measurement::from_json(point, &"point").map_err(corrupt)?;
                (None, vec![point], 1)
            }
            "ingest_set" => {
                let points = value
                    .get("points")
                    .and_then(Json::as_array)
                    .ok_or_else(|| corrupt("ingest_set record without `points`"))?;
                (
                    Some(f64_field("frequency_ghz")?),
                    points_from_json(points)?,
                    u64_field("mutations")?,
                )
            }
            "evict" => return Ok(WalRecord::Evict { series: series()? }),
            other => return Err(corrupt(format!("unknown record op `{other}`"))),
        };
        Ok(WalRecord::Merge {
            series: series()?,
            frequency_ghz,
            points,
            version: u64_field("version")?,
            mutations,
        })
    }
}

/// Fault-injection hook for the append path, compiled under `cfg(test)`
/// only: unit tests arm a fault on their thread, and the next append on
/// that thread trips it. Production builds carry none of this.
#[cfg(test)]
pub(crate) mod failpoint {
    use std::cell::Cell;

    /// What the next append on this thread should do.
    #[derive(Debug, Clone, Copy)]
    pub enum Fault {
        /// Write only the first `keep` bytes of the frame, then die: the
        /// torn bytes stay in the file, as after a crash mid-`write`.
        TornWrite {
            /// Frame bytes that reach the file before the "crash".
            keep: usize,
        },
        /// Write the frame, then fail the durability sync.
        SyncError,
    }

    thread_local! {
        static NEXT: Cell<Option<Fault>> = const { Cell::new(None) };
    }

    /// Arm `fault` for the next append on this thread.
    pub fn arm(fault: Fault) {
        NEXT.with(|cell| cell.set(Some(fault)));
    }

    /// Take the armed fault, if any (auto-disarms).
    pub fn take() -> Option<Fault> {
        NEXT.with(Cell::take)
    }
}

/// The open write-ahead log: the append/compact half of the persistence
/// layer. Owned by the store behind a mutex; every method takes `&mut`.
#[derive(Debug)]
pub(crate) struct Wal {
    dir: PathBuf,
    file: File,
    sync: bool,
    compact_bytes: u64,
    /// Bytes of the log known to hold only complete frames. Failed appends
    /// truncate back to this offset so a partial frame can never be
    /// followed by a good one.
    committed: u64,
    records: u64,
    snapshots: u64,
    replays: u64,
    last_compaction_ms: f64,
    /// Set when a failed append could not be rolled back: the log tail is
    /// suspect, so further mutations are refused until restart.
    poisoned: bool,
}

impl Wal {
    /// Open (creating when absent) the persistence state under
    /// `options.dir`. Replay hands `apply` every snapshot series, as a
    /// [`WalRecord::Merge`] of its points at its clock and version with no
    /// `mutations`, then every committed log record in order. Returns the
    /// log handle and the snapshot's `ingests` counter (0 without one).
    pub(crate) fn open(
        options: &DurabilityOptions,
        mut apply: impl FnMut(WalRecord) -> Result<()>,
    ) -> Result<(Wal, u64)> {
        std::fs::create_dir_all(&options.dir)
            .map_err(|e| storage(format!("cannot create {}: {e}", options.dir.display())))?;
        // Checksummed records the store refuses mean the files were edited
        // behind our back; that fails the open rather than guessing at
        // contents.
        let mut apply = |record| apply(record).map_err(|e| corrupt(e.to_string()));
        let ingests = load_snapshot(&options.dir.join(SNAPSHOT_FILE), &mut apply)?;

        let wal_path = options.dir.join(WAL_FILE);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&wal_path)
            .map_err(|e| storage(format!("cannot open {}: {e}", wal_path.display())))?;
        let mut log = Vec::new();
        file.read_to_end(&mut log)
            .map_err(|e| storage(format!("cannot read {}: {e}", wal_path.display())))?;

        // Replay the committed prefix: apply frames until the first torn,
        // checksum-failing, or undecodable one.
        let mut committed = 0usize;
        let mut records = 0u64;
        while let Some((payload, next)) = next_frame(&log, committed) {
            let Ok(record) = decode_payload(payload) else {
                break;
            };
            apply(record)?;
            committed = next;
            records += 1;
        }
        if committed < log.len() {
            // Torn tail: discard it physically so appends resume cleanly.
            file.set_len(committed as u64)
                .map_err(|e| storage(format!("cannot truncate torn tail: {e}")))?;
        }
        file.seek(SeekFrom::Start(committed as u64))
            .map_err(|e| storage(format!("cannot seek log: {e}")))?;

        Ok((
            Wal {
                dir: options.dir.clone(),
                file,
                sync: options.sync,
                compact_bytes: options.compact_bytes,
                committed: committed as u64,
                records,
                snapshots: 0,
                replays: records,
                last_compaction_ms: 0.0,
                poisoned: false,
            },
            ingests,
        ))
    }

    /// Current persistence counters.
    pub(crate) fn stats(&self) -> WalStats {
        WalStats {
            records: self.records,
            bytes: self.committed,
            snapshots: self.snapshots,
            replays: self.replays,
            last_compaction_ms: self.last_compaction_ms,
        }
    }

    /// Log one `MeasurementStore::merge`: the only record a content write
    /// appends. `points` are the merged points in `MeasurementSet::push`
    /// order; `mutations` is 1 or 2 (create, content change or both).
    pub(crate) fn append_ingest_set(
        &mut self,
        series: &SeriesId,
        frequency_ghz: f64,
        points: &[Measurement],
        version: u64,
        mutations: u64,
    ) -> Result<()> {
        let points = points_to_json(points);
        self.append(&Json::Object(vec![
            ("op".to_string(), Json::String("ingest_set".to_string())),
            (
                "series".to_string(),
                Json::String(series.as_str().to_string()),
            ),
            ("frequency_ghz".to_string(), Json::Number(frequency_ghz)),
            ("points".to_string(), points),
            ("version".to_string(), Json::Number(version as f64)),
            ("mutations".to_string(), Json::Number(mutations as f64)),
        ]))
    }

    pub(crate) fn append_evict(&mut self, series: &SeriesId) -> Result<()> {
        self.append(&Json::Object(vec![
            ("op".to_string(), Json::String("evict".to_string())),
            (
                "series".to_string(),
                Json::String(series.as_str().to_string()),
            ),
        ]))
    }

    /// Append one framed record. On success the record is on disk (and, in
    /// sync mode, durable); on failure the log is rolled back to the last
    /// committed frame and the caller must not apply the mutation.
    fn append(&mut self, payload: &Json) -> Result<()> {
        if self.poisoned {
            return Err(storage(
                "write-ahead log is poisoned by an earlier failed append; restart to recover",
            ));
        }
        // Render the payload straight into the frame behind a reserved
        // header, then fill the header in.
        let mut frame = vec![0; FRAME_HEADER_BYTES];
        payload.render_bytes(&mut frame);
        let (header, bytes) = frame.split_at_mut(FRAME_HEADER_BYTES);
        header[..4].copy_from_slice(&(bytes.len() as u32).to_le_bytes());
        header[4..].copy_from_slice(&fnv1a64(bytes).to_le_bytes());

        #[cfg(test)]
        if let Some(fault) = failpoint::take() {
            match fault {
                failpoint::Fault::TornWrite { keep } => {
                    // Simulate dying mid-write: part of the frame reaches
                    // the file, the process never returns to truncate it.
                    let keep = keep.min(frame.len());
                    let _ = self.file.write_all(&frame[..keep]);
                    let _ = self.file.sync_data();
                    self.poisoned = true;
                    return Err(storage("failpoint: process killed mid-append"));
                }
                failpoint::Fault::SyncError => {
                    let _ = self.file.write_all(&frame);
                    return self.rollback_append("failpoint: fsync failed");
                }
            }
        }

        if let Err(e) = self.file.write_all(&frame) {
            return self.rollback_append(&format!("log append failed: {e}"));
        }
        if self.sync {
            if let Err(e) = self.file.sync_data() {
                return self.rollback_append(&format!("log fsync failed: {e}"));
            }
        }
        self.committed += frame.len() as u64;
        self.records += 1;
        Ok(())
    }

    /// Undo a failed append: truncate back to the last committed frame so
    /// the partial frame cannot corrupt later appends. If even that fails,
    /// poison the log.
    fn rollback_append(&mut self, detail: &str) -> Result<()> {
        let rolled_back = self
            .file
            .set_len(self.committed)
            .and_then(|()| self.file.seek(SeekFrom::Start(self.committed)));
        if rolled_back.is_err() {
            self.poisoned = true;
        }
        Err(storage(detail))
    }

    /// True when the log has grown past the compaction threshold.
    pub(crate) fn should_compact(&self) -> bool {
        !self.poisoned && self.committed >= self.compact_bytes
    }

    /// Write a full-store snapshot and truncate the log: stage to a temp
    /// file, fsync, atomically rename, fsync the directory, then reset the
    /// log. `series` iterates the store's post-mutation state; `ingests` is
    /// its cumulative mutation counter.
    pub(crate) fn compact<'a>(
        &mut self,
        series: impl Iterator<Item = (&'a SeriesId, u64, &'a MeasurementSet)>,
        ingests: u64,
    ) -> Result<()> {
        let started = Instant::now();
        let mut encoded = Vec::new();
        for (id, version, set) in series {
            encoded.push(Json::Object(vec![
                ("id".to_string(), Json::String(id.as_str().to_string())),
                ("version".to_string(), Json::Number(version as f64)),
                ("frequency_ghz".to_string(), Json::Number(set.frequency_ghz)),
                ("points".to_string(), points_to_json(set.measurements())),
            ]));
        }
        let mut snapshot = Vec::new();
        Json::Object(vec![
            ("format".to_string(), Json::Number(1.0)),
            ("ingests".to_string(), Json::Number(ingests as f64)),
            ("series".to_string(), Json::Array(encoded)),
        ])
        .render_bytes(&mut snapshot);

        let tmp = self.dir.join(SNAPSHOT_TMP);
        let target = self.dir.join(SNAPSHOT_FILE);
        let write = || -> std::io::Result<()> {
            let mut file = File::create(&tmp)?;
            file.write_all(&snapshot)?;
            file.sync_all()?;
            drop(file);
            std::fs::rename(&tmp, &target)?;
            // Make the rename itself durable. Directory fsync can be
            // refused by some filesystems; the rename is already atomic,
            // so a refusal only narrows the power-loss window.
            if let Ok(dir) = File::open(&self.dir) {
                let _ = dir.sync_all();
            }
            Ok(())
        };
        write().map_err(|e| storage(format!("snapshot write failed: {e}")))?;

        self.file
            .set_len(0)
            .and_then(|()| self.file.seek(SeekFrom::Start(0)))
            .map_err(|e| {
                // The snapshot is in place, so nothing is lost — but the
                // log now double-counts it. Poison to force a clean reopen.
                self.poisoned = true;
                storage(format!("log truncation after snapshot failed: {e}"))
            })?;
        self.committed = 0;
        self.records = 0;
        self.snapshots += 1;
        self.last_compaction_ms = started.elapsed().as_secs_f64() * 1e3;
        Ok(())
    }
}

/// Extract the frame starting at `offset`: `Some((payload, next_offset))`
/// when a complete, checksum-valid frame is present; `None` on a torn or
/// corrupt one (replay stops there).
fn next_frame(log: &[u8], offset: usize) -> Option<(&[u8], usize)> {
    let header = log.get(offset..offset + FRAME_HEADER_BYTES)?;
    let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
    if len > MAX_RECORD_BYTES {
        return None;
    }
    let checksum = u64::from_le_bytes(header[4..12].try_into().unwrap());
    let start = offset + FRAME_HEADER_BYTES;
    let payload = log.get(start..start + len)?;
    (fnv1a64(payload) == checksum).then_some((payload, start + len))
}

/// Decode one frame payload into a record (UTF-8 + JSON + shape checks).
fn decode_payload(payload: &[u8]) -> Result<WalRecord> {
    let text = std::str::from_utf8(payload).map_err(|_| corrupt("payload is not UTF-8"))?;
    let value = Json::parse(text).map_err(corrupt)?;
    WalRecord::from_json(&value)
}

/// Hand every series of the snapshot file to `apply` (none when there is
/// no snapshot) and return the snapshot's `ingests` counter.
fn load_snapshot(path: &Path, apply: &mut impl FnMut(WalRecord) -> Result<()>) -> Result<u64> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(storage(format!("cannot read {}: {e}", path.display()))),
    };
    // The snapshot was fsynced before its atomic rename, so a torn one
    // never becomes visible — a parse failure means tampering, and silently
    // starting empty would discard data. Fail loudly.
    let value = Json::parse(&text).map_err(corrupt)?;
    let ingests = value
        .get("ingests")
        .and_then(Json::as_u64)
        .ok_or_else(|| corrupt("snapshot without an `ingests` counter"))?;
    let entries = value
        .get("series")
        .and_then(Json::as_array)
        .ok_or_else(|| corrupt("snapshot without a `series` array"))?;
    for entry in entries {
        let series = SeriesId::new(
            entry
                .get("id")
                .and_then(Json::as_str)
                .ok_or_else(|| corrupt("snapshot series without an `id`"))?,
        )?;
        let version = entry
            .get("version")
            .and_then(Json::as_u64)
            .ok_or_else(|| corrupt("snapshot series without a `version`"))?;
        let frequency_ghz = entry
            .get("frequency_ghz")
            .and_then(Json::as_f64)
            .ok_or_else(|| corrupt("snapshot series without a `frequency_ghz`"))?;
        let points = entry
            .get("points")
            .and_then(Json::as_array)
            .ok_or_else(|| corrupt("snapshot series without `points`"))?;
        apply(WalRecord::Merge {
            series,
            frequency_ghz: Some(frequency_ghz),
            points: points_from_json(points)?,
            version,
            mutations: 0,
        })?;
    }
    Ok(ingests)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measurement::StallCategory;
    use crate::store::MeasurementStore;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "estima-wal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn point(cores: u32) -> Measurement {
        let n = f64::from(cores);
        Measurement::new(cores, 50.0 / n + 1.0).with_stall(
            StallCategory::backend("rob_full"),
            2.0e9 * (1.0 + 0.08 * n * n),
        )
    }

    fn id(name: &str) -> SeriesId {
        SeriesId::new(name).unwrap()
    }

    /// Open the log alone, replaying into nothing.
    fn open_log(dir: &PathBuf) -> Wal {
        Wal::open(&DurabilityOptions::new(dir), |_| Ok(()))
            .unwrap()
            .0
    }

    /// Log the creation of `app`, then `n` one-point merges into it.
    fn seed_log(dir: &PathBuf, n: u32) {
        let mut wal = open_log(dir);
        wal.append_ingest_set(&id("app"), 2.1, &[], 1, 1).unwrap();
        for cores in 1..=n {
            wal.append_ingest_set(&id("app"), 2.1, &[point(cores)], u64::from(cores) + 1, 1)
                .unwrap();
        }
    }

    /// What the store recovers from `dir`.
    fn reopen(dir: &PathBuf) -> MeasurementStore {
        MeasurementStore::open(&DurabilityOptions::new(dir)).unwrap()
    }

    #[test]
    fn round_trips_measurements_bit_exactly() {
        let m = point(7)
            .with_memory_footprint(123_456_789)
            .with_stall(StallCategory::software("stm.aborts"), 0.1 + 0.2);
        let Json::Array(encoded) = points_to_json(std::slice::from_ref(&m)) else {
            panic!("points encode as an array");
        };
        let decoded = points_from_json(&encoded).unwrap();
        assert!(decoded[0].content_eq(&m), "{decoded:?} != {m:?}");
    }

    #[test]
    fn replay_restores_records_and_counters() {
        let dir = tmp_dir("replay");
        seed_log(&dir, 5);
        let store = reopen(&dir);
        assert_eq!(store.wal_stats().unwrap().replays, 6);
        assert_eq!(store.ingests(), 6);
        let snapshot = store.snapshot(&id("app")).unwrap();
        assert_eq!(snapshot.version, 6);
        assert_eq!(snapshot.set.len(), 5);
        for cores in 1..=5 {
            assert!(snapshot
                .set
                .at_cores(cores)
                .unwrap()
                .content_eq(&point(cores)));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_write_failpoint_loses_only_the_uncommitted_record() {
        for keep in [0, 1, 4, FRAME_HEADER_BYTES - 1, FRAME_HEADER_BYTES, 40] {
            let dir = tmp_dir(&format!("torn-{keep}"));
            seed_log(&dir, 3);
            {
                let mut wal = open_log(&dir);
                failpoint::arm(failpoint::Fault::TornWrite { keep });
                let err = wal
                    .append_ingest_set(&id("app"), 2.1, &[point(9)], 9, 1)
                    .unwrap_err();
                assert!(matches!(err, EstimaError::StorageFailure { .. }));
                // The log is poisoned: further appends are refused.
                assert!(wal.append_evict(&id("app")).is_err());
            }
            let store = reopen(&dir);
            let snapshot = store.snapshot(&id("app")).unwrap();
            assert_eq!(snapshot.version, 4, "keep={keep}");
            assert_eq!(snapshot.set.len(), 3, "keep={keep}");
            assert!(snapshot.set.at_cores(9).is_none(), "torn record replayed");
            // The torn tail was truncated: appending now works again.
            assert_eq!(store.ingest(&id("app"), point(9)).unwrap(), 5);
            drop(store);
            assert_eq!(reopen(&dir).snapshot(&id("app")).unwrap().set.len(), 4);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn fsync_failpoint_rolls_the_append_back() {
        let dir = tmp_dir("fsync");
        seed_log(&dir, 2);
        let mut wal = open_log(&dir);
        let committed = wal.stats().bytes;
        failpoint::arm(failpoint::Fault::SyncError);
        let err = wal
            .append_ingest_set(&id("app"), 2.1, &[point(8)], 8, 1)
            .unwrap_err();
        assert!(matches!(err, EstimaError::StorageFailure { .. }));
        // Rolled back, not poisoned: the next append succeeds and the file
        // holds no trace of the failed frame.
        assert_eq!(wal.stats().bytes, committed);
        wal.append_ingest_set(&id("app"), 2.1, &[point(4)], 4, 1)
            .unwrap();
        drop(wal);
        let snapshot = reopen(&dir).snapshot(&id("app")).unwrap();
        assert_eq!(snapshot.version, 4);
        assert_eq!(snapshot.set.len(), 3);
        assert!(snapshot.set.at_cores(8).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flips_stop_replay_at_the_corrupted_frame() {
        let dir = tmp_dir("flip");
        seed_log(&dir, 4);
        let wal_path = dir.join(WAL_FILE);
        let clean = std::fs::read(&wal_path).unwrap();
        // Find the frame boundaries to know what each flip should spare.
        let mut boundaries = vec![0usize];
        let mut offset = 0usize;
        while let Some((_, next)) = next_frame(&clean, offset) {
            boundaries.push(next);
            offset = next;
        }
        assert_eq!(boundaries.len(), 6); // create + 4 merges (+ start)
        for (flip_at, expected_frames) in [(0usize, 0usize), (boundaries[2] + 3, 2)] {
            let mut bad = clean.clone();
            bad[flip_at] ^= 0x10;
            std::fs::write(&wal_path, &bad).unwrap();
            let store = reopen(&dir);
            assert_eq!(store.wal_stats().unwrap().replays as usize, expected_frames);
            if expected_frames == 0 {
                assert!(store.is_empty());
            } else {
                assert_eq!(
                    store.snapshot(&id("app")).unwrap().set.len(),
                    expected_frames - 1
                );
            }
            drop(store);
            // Reopen truncated the log to the committed prefix.
            assert_eq!(
                std::fs::metadata(&wal_path).unwrap().len(),
                boundaries[expected_frames] as u64
            );
            std::fs::write(&wal_path, &clean).unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_snapshots_and_truncates() {
        let dir = tmp_dir("compact");
        let mut wal = open_log(&dir);
        wal.append_ingest_set(&id("app"), 2.1, &[], 1, 1).unwrap();
        let mut set = MeasurementSet::new("app", 2.1);
        for cores in 1..=6 {
            wal.append_ingest_set(&id("app"), 2.1, &[point(cores)], u64::from(cores) + 1, 1)
                .unwrap();
            set.push(point(cores));
        }
        let sid = id("app");
        wal.compact([(&sid, 7u64, &set)].into_iter(), 7).unwrap();
        let stats = wal.stats();
        assert_eq!(stats.snapshots, 1);
        assert_eq!(stats.records, 0);
        assert_eq!(stats.bytes, 0);
        assert!(stats.last_compaction_ms >= 0.0);
        // Appends after compaction land in the fresh log.
        wal.append_ingest_set(&sid, 2.1, &[point(9)], 8, 1).unwrap();
        drop(wal);
        let store = reopen(&dir);
        assert_eq!(store.wal_stats().unwrap().replays, 1);
        assert_eq!(store.ingests(), 8);
        let snapshot = store.snapshot(&sid).unwrap();
        assert_eq!(snapshot.version, 8);
        assert_eq!(snapshot.set.len(), 7);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_record_the_store_refuses_fails_the_open_loudly() {
        // A points-only `ingest` (as earlier builds logged it) into a series
        // the log never created, a clock conflict, and a clock <= 0.
        let ghost = r#"{"op":"ingest","series":"ghost","point":{"cores":1,"exec_time":1,"stalls":[]},"version":2}"#;
        let cases = [
            (None, "series `ghost` does not exist"),
            (
                Some(3.0),
                "series `app` conflict: stored frequency_ghz 2.1 != ingested 3",
            ),
            (
                Some(-1.0),
                "invalid configuration: frequency_ghz -1 must be positive and finite",
            ),
        ];
        for (at, (clock, refusal)) in cases.into_iter().enumerate() {
            let dir = tmp_dir(&format!("refused-{at}"));
            let mut wal = open_log(&dir);
            wal.append_ingest_set(&id("app"), 2.1, &[], 1, 1).unwrap();
            match clock {
                Some(ghz) => wal.append_ingest_set(&id("app"), ghz, &[point(1)], 2, 1),
                None => wal.append(&Json::parse(ghost).unwrap()),
            }
            .unwrap();
            drop(wal);
            match MeasurementStore::open(&DurabilityOptions::new(&dir)) {
                Err(EstimaError::StorageFailure { detail }) => {
                    assert_eq!(detail, format!("corrupt persistence state: {refusal}"))
                }
                other => panic!("expected StorageFailure, got {other:?}"),
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn corrupt_snapshot_fails_open_loudly() {
        let dir = tmp_dir("badsnap");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(SNAPSHOT_FILE), b"{ not json").unwrap();
        assert!(matches!(
            Wal::open(&DurabilityOptions::new(&dir), |_| Ok(())),
            Err(EstimaError::StorageFailure { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
