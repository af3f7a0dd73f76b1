//! Pins what a warm read allocates: a fit-cache key borrows its inputs and a
//! hit hashes and compares it in place, so building the key and hitting
//! with it allocate nothing, and a jackknife leave-out of a
//! warm confidence interval reuses its worker's scratch, so a leave-out
//! allocates (almost) nothing — what a warm `Planner::confidence` allocates
//! does not grow with the set. The allocations of one warm plan and one warm
//! predict are printed (`--nocapture`) and bounded.
//!
//! A counting global allocator wraps the system allocator, as in
//! `lm_alloc.rs`; each test snapshots the calling thread's counter around
//! the counted work, at parallelism 1 so the work stays on that thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use estima_core::engine::FitKey;
use estima_core::plan::DEFAULT_SUGGESTIONS;
use estima_core::prelude::*;
use estima_core::{candidate_fits, CacheScope, FitContext, FitOptions};

struct CountingAllocator;

thread_local! {
    // `const`-initialised and without a destructor, so touching it from
    // inside the allocator never allocates itself.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Allocations made so far by the calling thread.
fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
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

/// Allocations `work` makes on this thread.
fn counted<R>(work: impl FnOnce() -> R) -> (R, usize) {
    let before = allocations();
    let result = work();
    (result, allocations() - before)
}

/// A quickstart-shaped set over `1..=points` cores: two backend categories
/// and one software category, with a per-core wobble on the time.
fn quickstart(points: u32) -> MeasurementSet {
    let mut set = MeasurementSet::new("quickstart", 2.1);
    for cores in 1..=points {
        let n = f64::from(cores);
        let time = (50.0 / n + 1.0) * (1.0 + 0.02 * (f64::from((cores * 7) % 5) - 2.0));
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
fn a_warm_fit_cache_hit_allocates_nothing() {
    let xs: Vec<f64> = (1..=12).map(f64::from).collect();
    let ys: Vec<f64> = xs.iter().map(|x| 1.0e9 * (1.0 + 0.05 * x * x)).collect();
    let options = FitOptions {
        realism_horizon: 48,
        ..FitOptions::default()
    };
    let cache = FitCache::new();
    let scope = CacheScope {
        series: "warm",
        version: 3,
    };
    for scope in [None, Some(scope)] {
        let ctx = FitContext {
            cache: Some(&cache),
            scope,
            ..FitContext::default()
        };
        let cold = candidate_fits(&xs, &ys, &options, &ctx).expect("cold fit");
        let (warm, allocated) = counted(|| candidate_fits(&xs, &ys, &options, &ctx));
        let warm = warm.expect("warm fit");
        assert!(std::sync::Arc::ptr_eq(&cold, &warm), "{scope:?}: not a hit");
        assert_eq!(allocated, 0, "{scope:?}: a warm candidate_fits allocated");

        // Neither building a key nor hitting with it allocates.
        let (found, allocated) = counted(|| {
            let key = match scope {
                Some(scope) => FitKey::scoped(&xs, &ys, &options, scope.series, scope.version),
                None => FitKey::new(&xs, &ys, &options),
            };
            cache.get_or_compute(key, || Err(EstimaError::Numerical("missed".into())))
        });
        assert!(std::sync::Arc::ptr_eq(&cold, &found.expect("a hit")));
        assert_eq!(allocated, 0, "{scope:?}: a warm get_or_compute allocated");
    }
}

#[test]
fn a_warm_leave_out_allocates_at_most_twice() {
    let estima = Estima::new(EstimaConfig::default().with_parallelism(1));
    let cache = FitCache::new();
    let target = TargetSpec::cores(48);
    // Per set size: the allocations of a warm confidence interval.
    let warm: Vec<usize> = [12u32, 16]
        .into_iter()
        .map(|points| {
            let set = quickstart(points);
            let series = format!("leave-outs-{points}");
            let planner = Planner::in_context(
                &estima,
                FitContext {
                    cache: Some(&cache),
                    scope: Some(CacheScope {
                        series: &series,
                        version: 1,
                    }),
                    ..estima.fit_context()
                },
            );
            let cold = planner.confidence(&set, &target).expect("cold interval");
            let misses = cache.stats().1;
            let (interval, allocated) = counted(|| planner.confidence(&set, &target));
            let (_, interval) = interval.expect("warm interval");
            assert_eq!(cache.stats().1, misses, "a warm interval missed");
            assert_eq!(interval.spread.to_bits(), cold.1.spread.to_bits());
            allocated
        })
        .collect();
    let [twelve, sixteen] = warm[..] else {
        unreachable!("two set sizes");
    };
    let per_leave_out = sixteen.saturating_sub(twelve) as f64 / 4.0;
    println!(
        "warm confidence: {twelve} allocations at 12 points, {sixteen} at 16 \
         ({per_leave_out} per extra leave-out)"
    );
    assert!(
        per_leave_out <= 2.0,
        "a warm leave-out allocates {per_leave_out} times ({twelve} at 12 points, \
         {sixteen} at 16)"
    );
}

#[test]
fn warm_plans_and_predicts_allocate_a_bounded_amount() {
    let session = EstimaSession::new(EstimaConfig::default().with_parallelism(1));
    let id = SeriesId::new("warm.alloc").expect("series id");
    let target = TargetSpec::cores(48);
    session.ingest_set(&id, &quickstart(12)).expect("ingest");
    session.predict(&id, &target).expect("cold predict");
    session
        .plan(&id, &target, DEFAULT_SUGGESTIONS)
        .expect("cold plan");
    let (hits, misses) = session.cache().stats();
    let (plan, plan_allocations) = counted(|| session.plan(&id, &target, DEFAULT_SUGGESTIONS));
    plan.expect("warm plan");
    let (prediction, predict_allocations) = counted(|| session.predict(&id, &target));
    prediction.expect("warm predict");
    let (warm_hits, warm_misses) = session.cache().stats();
    assert_eq!(warm_misses, misses, "a warm read missed");
    assert_eq!(
        warm_hits - hits,
        276 + 4,
        "a plan's 69 evaluations and a predict"
    );
    println!(
        "allocations: {plan_allocations} per warm plan (69 evaluations), \
         {predict_allocations} per warm predict"
    );
    // Everything a plan or a predict builds for its answer, and nothing per
    // fit-cache hit or per leave-out.
    assert!(
        plan_allocations < 400,
        "a warm plan allocated {plan_allocations} times"
    );
    assert!(
        predict_allocations < 40,
        "a warm predict allocated {predict_allocations} times"
    );
}
