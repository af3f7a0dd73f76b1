//! Pins the allocation-free contract of the Levenberg–Marquardt core: with a
//! prebuilt [`LmWorkspace`], a full `levenberg_marquardt_into` run — every
//! iteration, Jacobian fill, normal-equation solve and trial step — performs
//! zero heap allocation. One grid cell is allocation-free as well: once the
//! thread's fit workspace is warm, `fit_kernel` allocates nothing, the
//! linearised guess's QR solve and the inline parameters it returns
//! included. And a memoised refit re-scores its candidates without
//! allocating per candidate: the refit after a newest-point flip allocates
//! as often for a 24-point series as for a 12-point one, and no more than
//! a fixed handful of times.
//!
//! A counting global allocator wraps the system allocator; each test
//! snapshots the calling thread's allocation counter around the counted
//! work. The counter is per thread, so tests running in parallel in this
//! binary never count each other's allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use estima_core::levenberg::{levenberg_marquardt_into, LmWorkspace};
use estima_core::{
    candidate_fits, fit_kernel, CacheScope, FitCache, FitContext, FitOptions, KernelKind,
};

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

fn series(kernel: KernelKind, params: &[f64], n: u32) -> (Vec<f64>, Vec<f64>) {
    let xs: Vec<f64> = (1..=n).map(f64::from).collect();
    let ys: Vec<f64> = xs.iter().map(|x| kernel.eval(params, *x)).collect();
    (xs, ys)
}

#[test]
fn lm_with_prebuilt_workspace_never_allocates() {
    // A Rat33 fit exercises the largest parameter count (7) the pipeline has.
    let kernel = KernelKind::Rat33;
    let truth = [30.0, 8.0, 1.0, 0.05, 0.1, 0.01, 0.001];
    let (xs, ys) = series(kernel, &truth, 12);
    // Deliberately offset initial guess so the optimiser has real work to do.
    let initial = [20.0, 6.0, 0.8, 0.04, 0.08, 0.008, 0.0008];
    let mut workspace = LmWorkspace::with_capacity(xs.len(), initial.len());

    // Warm-up run: faults in any lazily initialised state and proves the fit
    // succeeds before the counted run.
    let mut params = initial;
    levenberg_marquardt_into(kernel, &xs, &ys, &mut params, &mut workspace).expect("warm-up fit");

    let mut params = initial;
    let before = allocations();
    let stats = levenberg_marquardt_into(kernel, &xs, &ys, &mut params, &mut workspace)
        .expect("counted fit");
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "levenberg_marquardt_into allocated {} time(s) despite a prebuilt workspace",
        after - before
    );
    assert!(stats.iterations >= 1);
    assert!(stats.residual_norm.is_finite(), "fit diverged: {stats:?}");
}

#[test]
fn warm_fit_kernel_allocates_only_its_result() {
    // A 12-point series every kernel fits: positive (ExpRat's guess goes
    // through ln y) and smooth.
    let xs: Vec<f64> = (1..=12).map(f64::from).collect();
    let ys: Vec<f64> = xs.iter().map(|x| 50.0 / x + 1.0 + 0.02 * x * x).collect();
    // Warm-up on this thread: grows the per-thread fit workspace to the
    // largest kernel's needs.
    for kernel in KernelKind::ALL {
        fit_kernel(kernel, &xs, &ys).expect("warm-up fit");
    }
    for kernel in KernelKind::ALL {
        let before = allocations();
        let params = fit_kernel(kernel, &xs, &ys).expect("counted fit");
        let after = allocations();
        assert_eq!(
            after - before,
            0,
            "a warm fit_kernel({kernel:?}) allocated {} time(s)",
            after - before
        );
        assert_eq!(params.len(), kernel.param_count());
    }
}

#[test]
fn a_refit_after_a_flip_allocates_nothing_per_candidate() {
    // Per series length: the refit's candidate count and its allocations.
    let refits: Vec<(usize, usize)> = [12u32, 24]
        .into_iter()
        .map(|n| {
            let xs: Vec<f64> = (1..=n).map(f64::from).collect();
            let mut ys: Vec<f64> = xs.iter().map(|x| 1000.0 + 50.0 * x + 8.0 * x * x).collect();
            let options = FitOptions::default();
            // One shard, so the refit's insert lands in maps the cold fit
            // already sized.
            let cache = FitCache::with_shards_and_capacity(1, 4096);
            let scoped = |version| FitContext {
                cache: Some(&cache),
                scope: Some(CacheScope {
                    series: "flip",
                    version,
                }),
                ..FitContext::default()
            };
            candidate_fits(&xs, &ys, &options, &scoped(1)).expect("cold fit");
            cache.invalidate_series("flip");
            let (_, cells) = cache.solve_stats();

            // Flip the newest point: it lies outside every training prefix.
            ys[n as usize - 1] *= 1.1;
            let before = allocations();
            let refit = candidate_fits(&xs, &ys, &options, &scoped(2)).expect("refit");
            let allocated = allocations() - before;
            assert_eq!(
                cache.solve_stats(),
                (cells, cells),
                "the refit computed a cell"
            );
            (refit.len(), allocated)
        })
        .collect();
    let [(short, short_allocs), (long, long_allocs)] = refits[..] else {
        unreachable!("two series lengths");
    };
    assert!(long > 2 * short, "{short} and {long} candidates");
    assert_eq!(
        short_allocs, long_allocs,
        "a refit of {short} candidates allocated {short_allocs} times, one of {long} \
         candidates {long_allocs} times"
    );
    // The grid's checkpoint spans, the series' memo key and its prefix
    // lookups, the list and its `Arc`, then the cache entry's key, scope id
    // and series index (its name and its hash list). A memoised grid runs
    // no solve phase, so it allocates no per-kernel buffer.
    const REFIT_ALLOCATIONS: usize = 9;
    assert!(
        long_allocs <= REFIT_ALLOCATIONS,
        "a memoised refit allocated {long_allocs} times, more than {REFIT_ALLOCATIONS}"
    );
}
