//! The fit cache's solve memo: refits of an edited series reuse the cells
//! (solve, realism walk, training RMSE and eval table) of every training
//! prefix the edit left unchanged, and the memoised path stays
//! bit-identical to the uncached grid.
//!
//! 1. Random edit sequences (replace the newest point, append, insert
//!    mid-series, drop a point, lower the newest point so the magnitude cap
//!    falls) applied to a series, predicted at two targets in turn so the
//!    memoised walks change horizon while the solves stay: after every edit
//!    the cached candidates (their tables' tail folds and the list's winner
//!    included) and predictions equal the uncached [`candidate_fits`] /
//!    [`Estima::predict`] bit for bit — with a roomy cache and with one
//!    small enough to evict constantly.
//! 2. Exact cell counts through an [`EstimaSession`]: refitting after a
//!    newest-point flip computes no cell, and an append computes one new
//!    prefix per kernel per fitted series.
//! 3. A seeded checkpoint edit that drops the cap below the walk maximum
//!    of memoised accepted cells: the cached grid loses exactly those
//!    candidates without walking again, and equals the uncached grid.
//! 4. Dropping the newest point at an unchanged horizon: every cell is
//!    served from walks of a grid with another largest core count, and each
//!    candidate's table still folds its tail from the shorter series' own.

use std::sync::Arc;

use estima_core::engine::CacheScope;
use estima_core::fit::{FitCandidate, Fits, MAX_MAGNITUDE};
use estima_core::prelude::*;
use estima_core::{candidate_fits, FitContext, FitOptions};
use proptest::prelude::*;

/// One synthetic measurement whose stalls and time follow simple laws, with
/// a deterministic wobble so prefixes of different series differ.
fn point(cores: u32, serial: f64, quad: f64, salt: u64) -> Measurement {
    scaled_point(cores, serial, quad, salt, 1.0)
}

/// [`point`] with its time and every stall multiplied by `scale` (so its
/// stalls per second stay put).
fn scaled_point(cores: u32, serial: f64, quad: f64, salt: u64, scale: f64) -> Measurement {
    let n = cores as f64;
    let wobble = 1.0 + 0.01 * (((u64::from(cores) * 7 + salt) % 5) as f64 - 2.0);
    let time = (serial / n + 1.0) * wobble * scale;
    Measurement::new(cores, time)
        .with_stall(
            StallCategory::backend("rob_full"),
            1.0e9 * n * time * (0.5 + quad),
        )
        .with_stall(
            StallCategory::backend("ls_full"),
            1.0e9 * n * time * (0.5 - quad) * wobble,
        )
        .with_stall(
            StallCategory::software("lock_spin"),
            1.0e7 * n * n * wobble * scale,
        )
}

fn set_of(points: &[Measurement]) -> MeasurementSet {
    let mut set = MeasurementSet::new("memo", 2.1);
    for point in points {
        set.push(point.clone());
    }
    set
}

/// Two lists hold the same candidates bit for bit, tables and their tail
/// folds included, and pick the same winner.
fn assert_candidates_identical(a: &Fits, b: &Fits) {
    assert_eq!(a.len(), b.len(), "candidate counts differ");
    let winner = |fits: &Fits| {
        fits.best()
            .map(|best| fits.iter().position(|c| std::ptr::eq(c, best)))
    };
    assert_eq!(winner(a), winner(b), "winners differ");
    for (a, b) in a.iter().zip(b.iter()) {
        assert_eq!(a.curve.kernel, b.curve.kernel);
        assert_eq!(a.checkpoints, b.checkpoints);
        assert_eq!(a.curve.training_points, b.curve.training_points);
        let bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.curve.params), bits(&b.curve.params));
        assert_eq!(
            a.curve.checkpoint_rmse.to_bits(),
            b.curve.checkpoint_rmse.to_bits()
        );
        assert_eq!(
            a.curve.training_rmse.to_bits(),
            b.curve.training_rmse.to_bits()
        );
        assert_eq!(bits(a.evals.values()), bits(b.evals.values()));
        assert_eq!(a.evals.tail_start(), b.evals.tail_start());
        assert_eq!(
            [a.evals.tail_max().to_bits(), a.evals.tail_min().to_bits()],
            [b.evals.tail_max().to_bits(), b.evals.tail_min().to_bits()]
        );
    }
}

fn assert_predictions_identical(a: &Prediction, b: &Prediction) {
    assert_eq!(a.predicted_time.len(), b.predicted_time.len());
    for ((c1, t1), (c2, t2)) in a.predicted_time.iter().zip(&b.predicted_time) {
        assert_eq!(c1, c2);
        assert_eq!(t1.to_bits(), t2.to_bits(), "predicted_time at {c1} cores");
    }
    for ((c1, s1), (c2, s2)) in a.stalls_per_core.iter().zip(&b.stalls_per_core) {
        assert_eq!(c1, c2);
        assert_eq!(s1.to_bits(), s2.to_bits(), "stalls_per_core at {c1} cores");
    }
    for (x, y) in a.categories.iter().zip(&b.categories) {
        assert_eq!(x.curve.kernel, y.curve.kernel);
        assert_eq!(x.curve.training_points, y.curve.training_points);
    }
    assert_eq!(
        a.factor_correlation.to_bits(),
        b.factor_correlation.to_bits()
    );
}

/// Apply edit `kind` (0: replace the newest point, 1: append, 2: insert
/// mid-series, 3: drop one point, 4: replace the newest point with one a
/// third as high, so the series maximum and the magnitude cap fall) to a
/// series sorted by core count. Core counts start even, so an insert
/// usually finds a free count between two neighbours; where none is free it
/// appends instead.
fn edit(points: &mut Vec<Measurement>, kind: u64, pick: u64, serial: f64, quad: f64, salt: u64) {
    let newest = points.last().map_or(0, |p| p.cores);
    match kind {
        0 => {
            let replaced = point(newest, serial * 1.1, quad, salt);
            *points.last_mut().unwrap() = replaced;
        }
        4 => {
            let lowered = scaled_point(newest, serial, quad, salt, 1.0 / 3.0);
            *points.last_mut().unwrap() = lowered;
        }
        1 => points.push(point(newest + 2, serial, quad, salt)),
        2 => {
            let at = 1 + (pick as usize) % (points.len() - 1);
            let cores = points[at - 1].cores + 1;
            if cores < points[at].cores {
                points.insert(at, point(cores, serial, quad, salt));
            } else {
                points.push(point(newest + 2, serial, quad, salt));
            }
        }
        _ => {
            let at = (pick as usize) % points.len();
            points.remove(at);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn memoised_refits_match_the_uncached_grid(
        start in 8usize..12,
        serial in 20.0f64..80.0,
        quad in 0.05f64..0.45,
        salt in 0u64..1000,
        edits in proptest::collection::vec(0u64..5, 4..7),
    ) {
        let config = EstimaConfig::default().with_parallelism(1);
        let estima = Estima::new(config.clone());
        let uncached = estima.fit_context();
        let caches = [
            Arc::new(FitCache::new()),
            Arc::new(FitCache::with_shards_and_capacity(1, 2)),
        ];

        let mut points: Vec<Measurement> = (1..=start as u32)
            .map(|i| point(2 * i, serial, quad, salt))
            .collect();
        for (version, kind) in (0..).zip(std::iter::once(u64::MAX).chain(edits)) {
            if kind != u64::MAX {
                let pick = salt.wrapping_mul(version + 1);
                edit(&mut points, kind, pick, serial, quad, salt + version);
            }
            if points.len() < 6 {
                points.push(point(points.last().unwrap().cores + 2, serial, quad, salt));
            }
            // Alternate the target, so the memoised walks change horizon
            // while the solves stay.
            let target = TargetSpec::cores([64, 96][version as usize % 2]);
            let options = FitOptions {
                realism_horizon: target.cores,
                ..config.fit.clone()
            };
            let set = set_of(&points);
            let reference = estima.predict(&set, &target).unwrap();
            let series: Vec<(Vec<f64>, Vec<f64>)> = reference
                .categories
                .iter()
                .map(|c| c.measured.iter().map(|(x, y)| (f64::from(*x), *y)).unzip())
                .collect();
            for cache in &caches {
                // Candidates, scoped like a session's, after the invalidation
                // an ingest performs.
                cache.invalidate_series("memo");
                let cached_ctx = FitContext { cache: Some(cache), ..uncached };
                let scoped = FitContext {
                    scope: Some(CacheScope { series: "memo", version }),
                    ..cached_ctx
                };
                for (xs, ys) in &series {
                    let reference = candidate_fits(xs, ys, &options, &uncached).unwrap();
                    let cached = candidate_fits(xs, ys, &options, &scoped).unwrap();
                    assert_candidates_identical(&reference, &cached);
                }
                let cached = estima.predict_in(&set, &target, &cached_ctx).unwrap();
                assert_predictions_identical(&reference, &cached);
            }
        }
        // The memo did its job on the roomy cache and stayed bounded on the
        // small one.
        prop_assert!(caches[0].solve_stats().0 > 0);
        prop_assert!(caches[1].solve_entries() <= caches[1].capacity());
    }
}

#[test]
fn a_flip_resolves_nothing_and_an_append_one_prefix_per_kernel() {
    let config = EstimaConfig::default().with_parallelism(1);
    let session = EstimaSession::new(config.clone());
    let series = SeriesId::new("counts").unwrap();
    let target = TargetSpec::cores(48);
    let points: Vec<Measurement> = (1..=12).map(|c| point(c, 50.0, 0.2, 3)).collect();
    session.ingest_set(&series, &set_of(&points)).unwrap();

    // Twelve points hold out 2 or 4 checkpoints, so the grid's training
    // prefixes are 3..=10: eight cells per kernel per fitted series.
    let kernels = KernelKind::ALL.len();
    let cold = session.predict(&series, &target).unwrap();
    let fitted_series = cold.categories.len() + 1; // + the scaling factor
    let cells = 8 * kernels * fitted_series;
    assert_eq!(
        session.cache().solve_stats(),
        (0, cells),
        "a cold fit computes every cell"
    );
    let entries = session.cache().solve_entries();
    assert_eq!(entries, 8 * fitted_series);

    // Flip the newest (12-core) checkpoint: it lies outside every training
    // prefix, so the refit is served every cell and solves and walks none.
    let mut flipped = points.clone();
    flipped[11] = point(12, 55.0, 0.2, 3);
    session.ingest(&series, flipped[11].clone()).unwrap();
    let misses_before = session.cache().stats().1;
    let refit = session.predict(&series, &target).unwrap();
    assert_eq!(
        session.cache().stats().1,
        misses_before + fitted_series,
        "the flip did not refit every series"
    );
    assert_eq!(
        session.cache().solve_stats(),
        (cells, cells),
        "a newest-point flip computed a cell"
    );
    assert_eq!(session.cache().solve_entries(), entries);
    assert_predictions_identical(
        &Estima::new(config.clone())
            .predict(&set_of(&flipped), &target)
            .unwrap(),
        &refit,
    );

    // Append a 13-core point: the training prefixes grow by exactly one
    // (points 1..=11), solved and walked once per kernel per fitted series;
    // the other eight prefixes are served.
    flipped.push(point(13, 50.0, 0.2, 3));
    session.ingest(&series, flipped[12].clone()).unwrap();
    let appended = session.predict(&series, &target).unwrap();
    assert_eq!(
        session.cache().solve_stats(),
        (2 * cells, cells + kernels * fitted_series),
        "an append must compute one new prefix per kernel per series"
    );
    assert_eq!(session.cache().solve_entries(), entries + fitted_series);
    assert_predictions_identical(
        &Estima::new(config)
            .predict(&set_of(&flipped), &target)
            .unwrap(),
        &appended,
    );
}

/// Deterministic xorshift64* generator (no RNG crates in this workspace).
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[test]
fn a_checkpoint_edit_that_drops_the_cap_loses_memoised_candidates() {
    // Seed 6 of the generator below, found by searching seeds 1..4000 for
    // a series whose lowered newest point drops the cap below the walk
    // maximum of some memoised accepted cell (1461 of them qualify): a
    // noisy quadratic with a spike at its newest point, then the spike
    // lowered to below its neighbour.
    let seed = 6u64;
    let mut rng = XorShift(seed * 0x9E37_79B9 + 1);
    let len = 8 + (rng.next() % 5) as usize;
    let (a, b, q) = (
        1.0 + rng.unit() * 1000.0,
        -40.0 + rng.unit() * 100.0,
        -3.0 + rng.unit() * 7.0,
    );
    let xs: Vec<f64> = (1..=len).map(|c| c as f64).collect();
    let mut ys: Vec<f64> = xs
        .iter()
        .map(|x| (a + b * x + q * x * x) * (1.0 + 0.1 * (rng.unit() - 0.5)))
        .collect();
    ys[len - 1] *= 1.0 + 3.0 * rng.unit();
    let mut lowered = ys.clone();
    lowered[len - 1] = ys[len - 2] * (0.3 + 0.7 * rng.unit());

    let options = FitOptions {
        realism_horizon: 64,
        ..FitOptions::default()
    };
    let cap = |ys: &[f64]| {
        let max = ys.iter().fold(0.0f64, |m, y| m.max(*y));
        (max * options.max_growth_factor).min(MAX_MAGNITUDE)
    };
    let table_max = |c: &FitCandidate| c.evals.values().iter().fold(0.0f64, |m, v| m.max(*v));
    let cache = FitCache::new();
    let cached = FitContext {
        cache: Some(&cache),
        ..FitContext::default()
    };

    let before = candidate_fits(&xs, &ys, &options, &cached).unwrap();
    let computed = cache.solve_stats().1;
    let after = candidate_fits(&xs, &lowered, &options, &cached).unwrap();
    assert_eq!(
        cache.solve_stats().1,
        computed,
        "the checkpoint edit solved or walked a cell"
    );
    assert_candidates_identical(
        &candidate_fits(&xs, &lowered, &options, &FitContext::default()).unwrap(),
        &after,
    );

    // The cells the lower cap cuts were accepted before, and are gone now.
    let new_cap = cap(&lowered);
    assert!(new_cap < cap(&ys));
    let cut: Vec<(KernelKind, usize)> = before
        .iter()
        .filter(|c| table_max(c) > new_cap)
        .map(|c| (c.curve.kernel, c.curve.training_points))
        .collect();
    assert!(!cut.is_empty(), "the edit cut no memoised cell");
    assert!(
        after.len() < before.len(),
        "the candidate count did not fall"
    );
    for candidate in after.iter() {
        let cell = (candidate.curve.kernel, candidate.curve.training_points);
        assert!(!cut.contains(&cell), "{cell:?} survived the lower cap");
        assert!(table_max(candidate) <= new_cap);
    }
}

#[test]
fn a_dropped_newest_point_folds_every_served_tail_afresh() {
    // Twelve points fitted through a cache, then the first eleven at the
    // same horizon: their training prefixes are all memoised, walked by a
    // grid whose tails started at 13 cores, and now start at 12.
    let xs: Vec<f64> = (1..=12u32).map(f64::from).collect();
    let ys: Vec<f64> = xs.iter().map(|x| 1.0e9 * (1.0 + 0.05 * x * x)).collect();
    let options = FitOptions {
        realism_horizon: 48,
        ..FitOptions::default()
    };
    let cache = FitCache::new();
    let cached = FitContext {
        cache: Some(&cache),
        ..FitContext::default()
    };
    let full = candidate_fits(&xs, &ys, &options, &cached).unwrap();
    assert!(full.iter().all(|c| c.evals.tail_start() == 13));
    let computed = cache.solve_stats().1;
    let dropped = candidate_fits(&xs[..11], &ys[..11], &options, &cached).unwrap();
    assert_eq!(
        cache.solve_stats().1,
        computed,
        "dropping the newest point solved or walked a cell"
    );
    assert!(!dropped.is_empty());
    assert_candidates_identical(
        &candidate_fits(&xs[..11], &ys[..11], &options, &FitContext::default()).unwrap(),
        &dropped,
    );
}
