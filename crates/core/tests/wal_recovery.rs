//! Fault-injected WAL recovery properties.
//!
//! Each case builds a durable store under a random mutation sequence while
//! recording, after every mutation, the store's full logical state and the
//! WAL's byte length. Because `ensure`/`ingest`/`evict` each append at most
//! one record, those lengths are exactly the log's frame boundaries. The
//! log is then damaged — truncated at an arbitrary byte, a random byte
//! bit-flipped, or a torn partial frame appended — and reopening must
//! recover **exactly** the state at the largest frame boundary at or below
//! the damage point: never a torn suffix, never less than the committed
//! prefix. A follow-up mutation after recovery must itself survive another
//! reopen, proving the truncated log is still appendable.
//!
//! A second property replays snapshots: random mutations, multi-point
//! merges among them, with a forced compaction after one of them (and, in
//! half the cases, a log small enough that merges compact too) must reopen
//! to exactly the live store's state.

use std::fs::{self, OpenOptions};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use estima_core::prelude::*;
use estima_core::wal::{SNAPSHOT_FILE, WAL_FILE};
use proptest::prelude::*;

/// Fresh scratch directory per call; unique across tests and cases.
fn tmp_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "estima-wal-prop-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed),
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Durability options that never compact, so the log keeps every frame and
/// the recorded lengths stay valid boundaries for the whole case.
fn options(dir: &PathBuf) -> DurabilityOptions {
    DurabilityOptions::new(dir).with_compact_bytes(u64::MAX)
}

/// One measurement, bit-exactly: cores, exec_time bits, memory footprint,
/// stalls as (debug rendering, cycle bits).
type PointState = (u32, u64, Option<u64>, Vec<(String, u64)>);

/// One series, bit-exactly: id, version, frequency bits, points.
type SeriesState = (String, u64, u64, Vec<PointState>);

/// The store's full logical content, compared bit-for-bit across recovery.
#[derive(Debug, Clone, PartialEq)]
struct LogicalState {
    ingests: u64,
    series: Vec<SeriesState>,
}

fn capture(store: &MeasurementStore) -> LogicalState {
    let mut series = Vec::new();
    for info in store.list() {
        let snapshot = store.snapshot(&info.id).expect("listed series snapshots");
        let points = snapshot
            .set
            .measurements()
            .iter()
            .map(|m| {
                let stalls = m
                    .stalls
                    .iter()
                    .map(|(category, cycles)| (format!("{category:?}"), cycles.to_bits()))
                    .collect();
                (m.cores, m.exec_time.to_bits(), m.memory_footprint, stalls)
            })
            .collect();
        series.push((
            info.id.as_str().to_string(),
            snapshot.version,
            info.frequency_ghz.to_bits(),
            points,
        ));
    }
    LogicalState {
        ingests: store.ingests(),
        series,
    }
}

/// Decode one opaque op word into a mutation and apply it. At most one WAL
/// record per call, so post-call log lengths are frame boundaries.
fn apply_op(store: &MeasurementStore, op: u64) {
    let series = op % 3;
    let cores = 1 + ((op >> 8) % 16) as u32;
    let seed = ((op >> 16) & 0xffff) as f64;
    let id = SeriesId::new(format!("app{series}.prop")).expect("valid id");
    if op.is_multiple_of(11) {
        store.evict(&id).expect("evict never fails durably");
        return;
    }
    if store.snapshot(&id).is_none() {
        store.ensure(&id, 2.0).expect("create series");
        return;
    }
    let measurement = Measurement::new(cores, 1.0 + seed * 1.0e-3 + f64::from(cores) * 0.01)
        .with_stall(StallCategory::backend("rob_full"), 1.0e9 + seed * 1.0e5)
        .with_stall(StallCategory::software("lock_spin"), 3.0e7 + seed);
    store.ingest(&id, measurement).expect("ingest point");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn damaged_tail_recovers_exactly_the_committed_prefix(
        ops in collection::vec(0u64..u64::MAX, 4..28),
        damage in 0.0f64..1.0,
        mode in 0u32..3,
    ) {
        let dir = tmp_dir();
        let wal_path = dir.join(WAL_FILE);

        // Build the log, recording (state, log length) after every op.
        let store = MeasurementStore::open(&options(&dir)).expect("open fresh store");
        let mut states = vec![(capture(&store), 0u64)];
        for &op in &ops {
            apply_op(&store, op);
            let len = fs::metadata(&wal_path).expect("wal exists").len();
            states.push((capture(&store), len));
        }
        drop(store);
        let final_len = states.last().expect("at least the empty state").1;

        // Damage the log and work out which prefix must survive.
        let expected = match mode {
            0 => {
                // Truncate at an arbitrary byte offset.
                let cut = (damage * final_len as f64) as u64;
                OpenOptions::new()
                    .write(true)
                    .open(&wal_path)
                    .expect("open wal for truncation")
                    .set_len(cut)
                    .expect("truncate wal");
                largest_state_at_or_below(&states, cut)
            }
            1 => {
                // Flip one byte; replay must stop at that frame's start.
                if final_len == 0 {
                    states[0].0.clone()
                } else {
                    let at = ((damage * final_len as f64) as u64).min(final_len - 1);
                    let mut bytes = fs::read(&wal_path).expect("read wal");
                    bytes[at as usize] ^= 0x40;
                    fs::write(&wal_path, &bytes).expect("write corrupted wal");
                    largest_state_at_or_below(&states, at)
                }
            }
            _ => {
                // Torn append: a partial frame after the last commit.
                // Recovery must keep everything and shed only the tear.
                let mut file = OpenOptions::new()
                    .append(true)
                    .open(&wal_path)
                    .expect("open wal for torn append");
                let junk_len = 1 + (damage * 20.0) as usize;
                file.write_all(&vec![0xA5u8; junk_len]).expect("tear the tail");
                states.last().expect("final state").0.clone()
            }
        };

        let recovered = MeasurementStore::open(&options(&dir)).expect("reopen damaged store");
        prop_assert_eq!(&capture(&recovered), &expected);

        // The truncated log must still take appends that survive a clean
        // reopen bit-for-bit.
        let id = SeriesId::new("post.recovery").expect("valid id");
        recovered.ensure(&id, 3.0).expect("create after recovery");
        recovered
            .ingest(&id, Measurement::new(4, 1.25))
            .expect("ingest after recovery");
        let after_repair = capture(&recovered);
        drop(recovered);
        let reopened = MeasurementStore::open(&options(&dir)).expect("reopen repaired store");
        prop_assert_eq!(&capture(&reopened), &after_repair);

        drop(reopened);
        let _ = fs::remove_dir_all(&dir);
    }
}

/// Decode one op word into a multi-point merge at the clock `apply_op`
/// creates series with: two to five points on core counts 1..=6, so they
/// repeat within the merge (the later point wins) and replace stored ones,
/// and an absent (or evicted) series is created with them.
fn merge_op(store: &MeasurementStore, op: u64) {
    let id = SeriesId::new(format!("app{}.prop", op % 3)).expect("valid id");
    let points: Vec<Measurement> = (0..2 + (op >> 8) % 4)
        .map(|i| {
            let cores = 1 + ((op >> (12 + 4 * i)) % 6) as u32;
            let seed = ((op >> 40) + i) as f64;
            Measurement::new(cores, 2.0 + seed * 1.0e-3)
                .with_stall(StallCategory::backend("rob_full"), 1.0e9 + seed * 1.0e5)
        })
        .collect();
    store
        .merge(&id, Some(2.0), points.into())
        .expect("merge points");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn snapshots_and_their_log_tail_replay_to_the_live_state(
        ops in collection::vec(0u64..u64::MAX, 4..40),
        compact_at in 0usize..usize::MAX,
        small_log in 0u32..2,
    ) {
        let dir = tmp_dir();
        let options = if small_log == 1 {
            DurabilityOptions::new(&dir).with_compact_bytes(512)
        } else {
            options(&dir)
        };
        let live = MeasurementStore::open(&options).expect("open fresh store");
        for (at, &op) in ops.iter().enumerate() {
            if (op >> 56) % 3 == 0 {
                merge_op(&live, op);
            } else {
                apply_op(&live, op);
            }
            if at == compact_at % ops.len() {
                live.compact().expect("compact");
            }
        }
        let expected = capture(&live);
        drop(live);
        // Every case replays a snapshot, not only a log.
        prop_assert!(dir.join(SNAPSHOT_FILE).exists());
        let reopened = MeasurementStore::open(&options).expect("reopen compacted store");
        prop_assert_eq!(&capture(&reopened), &expected);

        // The replayed store takes one more merge that survives a reopen.
        let points = vec![Measurement::new(2, 1.5), Measurement::new(1, 2.5)];
        reopened
            .merge(&SeriesId::new("post.replay").expect("valid id"), Some(3.0), points.into())
            .expect("merge after replay");
        let after_merge = capture(&reopened);
        drop(reopened);
        let reopened = MeasurementStore::open(&options).expect("reopen after merge");
        prop_assert_eq!(&capture(&reopened), &after_merge);

        drop(reopened);
        let _ = fs::remove_dir_all(&dir);
    }
}

/// The recorded state at the largest frame boundary `<= at`.
fn largest_state_at_or_below(states: &[(LogicalState, u64)], at: u64) -> LogicalState {
    states
        .iter()
        .rev()
        .find(|(_, len)| *len <= at)
        .expect("boundary 0 always qualifies")
        .0
        .clone()
}
