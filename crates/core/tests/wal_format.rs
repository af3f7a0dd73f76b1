//! The write-ahead log's record format across the one-write-path change.
//!
//! Every content write is one `MeasurementStore::merge` and logs one
//! `ingest_set` record; earlier builds also wrote `create` (from `ensure`)
//! and `ingest` (from a one-point `ingest`) records. Replay must still read
//! all four kinds to the exact state those builds restored, and today's
//! writes must produce the bytes the HTTP path has always logged.
//!
//! The payload literals below are what the earlier writers rendered for
//! these writes, byte for byte.

use std::path::{Path, PathBuf};

use estima_core::json::Json;
use estima_core::prelude::*;
use estima_core::wal::{fnv1a64, WAL_FILE};
use estima_core::{DurabilityOptions, MeasurementStore};

/// `create`, `ingest`, `ingest_set` and `evict` records as the earlier
/// writers logged this history: `ensure(fmt.app, 2.1)`, two one-point
/// ingests, a merge that replaces the 2-core point and adds a 3-core one, a
/// merge that creates `fmt.other` with one point, its eviction, then its
/// re-creation (`ensure`) and a one-point ingest.
const EARLIER_LOG: [&str; 8] = [
    r#"{"op":"create","series":"fmt.app","frequency_ghz":2.1,"version":1}"#,
    r#"{"op":"ingest","series":"fmt.app","point":{"cores":1,"exec_time":10,"stalls":[{"source":"hw_backend","name":"rob_full","cycles":100}]},"version":2}"#,
    r#"{"op":"ingest","series":"fmt.app","point":{"cores":2,"exec_time":5.5,"stalls":[{"source":"hw_backend","name":"rob_full","cycles":200}]},"version":3}"#,
    r#"{"op":"ingest_set","series":"fmt.app","frequency_ghz":2.1,"points":[{"cores":2,"exec_time":6,"stalls":[{"source":"hw_backend","name":"rob_full","cycles":200}]},{"cores":3,"exec_time":4,"stalls":[{"source":"hw_backend","name":"rob_full","cycles":300}]}],"version":4,"mutations":1}"#,
    r#"{"op":"ingest_set","series":"fmt.other","frequency_ghz":3,"points":[{"cores":1,"exec_time":8,"stalls":[{"source":"hw_backend","name":"rob_full","cycles":100}]}],"version":2,"mutations":2}"#,
    r#"{"op":"evict","series":"fmt.other"}"#,
    r#"{"op":"create","series":"fmt.other","frequency_ghz":3,"version":1}"#,
    r#"{"op":"ingest","series":"fmt.other","point":{"cores":4,"exec_time":2.25,"stalls":[{"source":"hw_backend","name":"rob_full","cycles":400}]},"version":2}"#,
];

/// The record `POST /v1/measurements` has always logged for
/// `{"series":"fmt.http","frequency_ghz":2.1,"points":[4, 1, 4, 2 cores]}`:
/// the points in core order, the later 4-core point winning.
const HTTP_RECORD: &str = r#"{"op":"ingest_set","series":"fmt.http","frequency_ghz":2.1,"points":[{"cores":1,"exec_time":12,"stalls":[{"source":"hw_backend","name":"rob_full","cycles":100}]},{"cores":2,"exec_time":6.5,"stalls":[{"source":"hw_backend","name":"rob_full","cycles":200}]},{"cores":4,"exec_time":3.5,"stalls":[{"source":"hw_backend","name":"rob_full","cycles":400}]}],"version":2,"mutations":2}"#;

fn point(cores: u32, exec_time: f64) -> Measurement {
    Measurement::new(cores, exec_time)
        .with_stall(StallCategory::backend("rob_full"), 100.0 * f64::from(cores))
}

fn id(name: &str) -> SeriesId {
    SeriesId::new(name).unwrap()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("estima-wal-format-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Frame one payload as the log does: length, FNV-1a checksum, bytes.
fn frame(payload: &str, log: &mut Vec<u8>) {
    log.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    log.extend_from_slice(&fnv1a64(payload.as_bytes()).to_le_bytes());
    log.extend_from_slice(payload.as_bytes());
}

/// The payloads of every frame in `dir`'s log, in order.
fn payloads(dir: &Path) -> Vec<String> {
    let log = std::fs::read(dir.join(WAL_FILE)).unwrap();
    let mut payloads = Vec::new();
    let mut at = 0;
    while at < log.len() {
        let len = u32::from_le_bytes(log[at..at + 4].try_into().unwrap()) as usize;
        let payload = &log[at + 12..at + 12 + len];
        let checksum = u64::from_le_bytes(log[at + 4..at + 12].try_into().unwrap());
        assert_eq!(fnv1a64(payload), checksum);
        payloads.push(String::from_utf8(payload.to_vec()).unwrap());
        at += 12 + len;
    }
    payloads
}

fn assert_points(store: &MeasurementStore, series: &str, expected: &[Measurement]) {
    let snapshot = store.snapshot(&id(series)).unwrap();
    assert_eq!(snapshot.set.len(), expected.len(), "{series}");
    for (stored, expected) in snapshot.set.measurements().iter().zip(expected) {
        assert!(stored.content_eq(expected), "{series}: {stored:?}");
    }
}

#[test]
fn logs_written_by_earlier_builds_replay_to_the_same_state() {
    let dir = tmp_dir("earlier");
    std::fs::create_dir_all(&dir).unwrap();
    let mut log = Vec::new();
    for payload in EARLIER_LOG {
        frame(payload, &mut log);
    }
    std::fs::write(dir.join(WAL_FILE), &log).unwrap();

    let store = MeasurementStore::open(&DurabilityOptions::new(&dir)).unwrap();
    assert_eq!(store.wal_stats().unwrap().replays, 8);
    // One per create, ingest and content-changing merge, two for the merge
    // that also created its series; an evict counts nothing.
    assert_eq!(store.ingests(), 8);
    let versions: Vec<(String, u64, f64)> = store
        .list()
        .into_iter()
        .map(|info| (info.id.to_string(), info.version, info.frequency_ghz))
        .collect();
    assert_eq!(
        versions,
        [("fmt.app".into(), 4, 2.1), ("fmt.other".into(), 2, 3.0)]
    );
    assert_points(
        &store,
        "fmt.app",
        &[point(1, 10.0), point(2, 6.0), point(3, 4.0)],
    );
    // The re-created series holds only what came after the evict.
    assert_points(&store, "fmt.other", &[point(4, 2.25)]);

    // The replayed log takes further writes, and they survive a reopen.
    assert_eq!(store.ingest(&id("fmt.app"), point(5, 3.0)).unwrap(), 5);
    drop(store);
    let store = MeasurementStore::open(&DurabilityOptions::new(&dir)).unwrap();
    assert_eq!(store.ingests(), 9);
    assert_eq!(store.snapshot(&id("fmt.app")).unwrap().version, 5);
    assert_points(
        &store,
        "fmt.app",
        &[point(1, 10.0), point(2, 6.0), point(3, 4.0), point(5, 3.0)],
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn every_content_write_appends_one_ingest_set_record() {
    let dir = tmp_dir("writes");
    let store = MeasurementStore::open(&DurabilityOptions::new(&dir)).unwrap();
    let app = id("fmt.app");
    let merged = MeasurementSet::new("ignored", 2.1)
        .with(point(2, 6.0))
        .with(point(3, 4.0));
    // The payloads appended since the previous call.
    let mut seen = 0;
    let mut appended = || {
        let all = payloads(&dir);
        let new = all[seen..].to_vec();
        seen = all.len();
        new
    };

    // Create, append, merge: one `ingest_set` record each.
    assert_eq!(store.ensure(&app, 2.1).unwrap(), 1);
    assert_eq!(
        appended(),
        [
            r#"{"op":"ingest_set","series":"fmt.app","frequency_ghz":2.1,"points":[],"version":1,"mutations":1}"#
        ]
    );
    assert_eq!(store.ingest(&app, point(1, 10.0)).unwrap(), 2);
    assert_eq!(
        appended(),
        [
            r#"{"op":"ingest_set","series":"fmt.app","frequency_ghz":2.1,"points":[{"cores":1,"exec_time":10,"stalls":[{"source":"hw_backend","name":"rob_full","cycles":100}]}],"version":2,"mutations":1}"#
        ]
    );
    assert_eq!(store.ingest_set(&app, &merged).unwrap().version, 3);
    let merge = appended();
    assert_eq!(merge.len(), 1);
    let record = Json::parse(&merge[0]).unwrap();
    assert_eq!(record.get("op").and_then(Json::as_str), Some("ingest_set"));
    assert_eq!(record.get("version").and_then(Json::as_u64), Some(3));

    // A redundant re-push, of one point or of the whole set, logs nothing.
    assert_eq!(store.ingest(&app, point(3, 4.0)).unwrap(), 3);
    assert_eq!(store.ingest_set(&app, &merged).unwrap().version, 3);
    assert_eq!(store.ensure(&app, 2.1).unwrap(), 3);
    assert!(appended().is_empty());
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn an_http_shaped_write_logs_the_bytes_the_http_path_always_logged() {
    let dir = tmp_dir("http");
    let store = MeasurementStore::open(&DurabilityOptions::new(&dir)).unwrap();
    // The points as a request body carries them: out of order, with a
    // repeated core count.
    let points = vec![point(4, 3.0), point(1, 12.0), point(4, 3.5), point(2, 6.5)];
    let (snapshot, changed) = store
        .merge(&id("fmt.http"), Some(2.1), points.into())
        .unwrap();
    assert!(changed);
    assert_eq!((snapshot.version, snapshot.set.len()), (2, 3));
    assert_eq!(payloads(&dir), [HTTP_RECORD]);
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}
