//! Pins that the reply writers of `estima_serve::wire` allocate nothing:
//! with the output `String` already at capacity, writing a prediction
//! (bare, with a confidence interval, with a bottleneck diagnosis), a plan,
//! an error body (with and without `retry_after_ms`) or a batch of
//! successful predictions makes no heap allocation. Each writer appends bytes into the `String`'s own buffer
//! and checks them as UTF-8 once; a bottleneck category is written as its
//! `tag:name` label without building it as a `String`.
//!
//! A failed batch job is left out: it formats its pipeline error's text
//! once, as a `String`, before writing it.
//!
//! A counting global allocator wraps the system allocator, as in core's
//! `warm_alloc.rs`; each check reads the calling thread's counter around
//! one write.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use estima_core::plan::DEFAULT_SUGGESTIONS;
use estima_core::prelude::*;
use estima_serve::wire;

struct CountingAllocator;

thread_local! {
    // `const`-initialised and without a destructor, so touching it from
    // inside the allocator never allocates itself.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count_allocation() {
    ALLOCATIONS.with(|count| count.set(count.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Write once to size `out`, then count the allocations of writing the same
/// reply again into the cleared buffer.
fn allocations_at_capacity(write: impl Fn(&mut String)) -> usize {
    let mut out = String::new();
    write(&mut out);
    let (len, capacity) = (out.len(), out.capacity());
    out.clear();
    let before = ALLOCATIONS.with(Cell::get);
    write(&mut out);
    let allocated = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!((out.len(), out.capacity()), (len, capacity));
    allocated
}

/// A quickstart-shaped set over `1..=12` cores: two backend categories and
/// one software category.
fn quickstart() -> MeasurementSet {
    let mut set = MeasurementSet::new("reply-alloc", 2.1);
    for cores in 1..=12u32 {
        let n = f64::from(cores);
        let time = 50.0 / n + 1.0;
        set.push(
            Measurement::new(cores, time)
                .with_stall(StallCategory::backend("rob_full"), 4.0e8 * n * time * 0.7)
                .with_stall(StallCategory::backend("ls_full"), 4.0e8 * n * time * 0.3)
                .with_stall(StallCategory::software("lock_spin"), 1.0e7 * n * n),
        );
    }
    set
}

#[test]
fn reply_writers_allocate_nothing_at_capacity() {
    let session = EstimaSession::new(EstimaConfig::default().with_parallelism(1));
    let id = SeriesId::new("reply.alloc").expect("series id");
    let target = TargetSpec::cores(48);
    session.ingest_set(&id, &quickstart()).expect("ingest");
    let prediction = session.predict(&id, &target).expect("predict");
    let confident = session
        .predict_with_confidence(&id, &target)
        .expect("predict with confidence");
    assert!(confident.confidence.is_some());
    let diagnosis = BottleneckReport::from_prediction(&prediction, target.cores);
    assert!(!diagnosis.entries.is_empty());
    let plan = session
        .plan(&id, &target, DEFAULT_SUGGESTIONS)
        .expect("plan");
    let batch = [Ok(prediction.clone()), Ok(confident.clone())];

    let check = |name: &str, write: &dyn Fn(&mut String)| {
        assert_eq!(
            allocations_at_capacity(write),
            0,
            "writing a {name} allocated"
        );
    };
    check("prediction", &|out| {
        wire::write_prediction_response(&prediction, None, out)
    });
    check("prediction with confidence", &|out| {
        wire::write_prediction_response(&confident, None, out)
    });
    check("diagnosed prediction", &|out| {
        wire::write_prediction_response(&prediction, Some(&diagnosis), out)
    });
    check("diagnosed prediction with confidence", &|out| {
        wire::write_prediction_response(&confident, Some(&diagnosis), out)
    });
    check("plan", &|out| wire::write_plan(&plan, out));
    check("error", &|out| {
        wire::write_error("not_found", "no route for /v1/x \"é\"", out)
    });
    check("retry error", &|out| {
        wire::write_retry_error("quota_exceeded", "tenant quota", 1500, out)
    });
    check("batch of successful jobs", &|out| {
        wire::write_batch_results(&batch, out)
    });
}
