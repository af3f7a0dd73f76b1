//! The fit cache's solve memo: refits of an edited series reuse the
//! nonlinear solves of every training prefix the edit left unchanged, and
//! the memoised path stays bit-identical to the uncached grid.
//!
//! 1. Random edit sequences (replace the newest point, append, insert
//!    mid-series, drop a point) applied to a series: after every edit the
//!    cached candidates and predictions equal the uncached
//!    [`candidate_fits`] / [`Estima::predict`] bit for bit — with a
//!    roomy cache and with one small enough to evict constantly.
//! 2. Exact solve counts through an [`EstimaSession`]: refitting after a
//!    newest-point flip runs no LM solve, and an append runs one per new
//!    prefix per nonlinear kernel per fitted series.

use std::sync::Arc;

use estima_core::engine::CacheScope;
use estima_core::fit::FitCandidate;
use estima_core::prelude::*;
use estima_core::{candidate_fits, FitContext, FitOptions, LmOptions};
use proptest::prelude::*;

/// One synthetic measurement whose stalls and time follow simple laws, with
/// a deterministic wobble so prefixes of different series differ.
fn point(cores: u32, serial: f64, quad: f64, salt: u64) -> Measurement {
    let n = cores as f64;
    let wobble = 1.0 + 0.01 * (((u64::from(cores) * 7 + salt) % 5) as f64 - 2.0);
    let time = (serial / n + 1.0) * wobble;
    Measurement::new(cores, time)
        .with_stall(
            StallCategory::backend("rob_full"),
            1.0e9 * n * time * (0.5 + quad),
        )
        .with_stall(
            StallCategory::backend("ls_full"),
            1.0e9 * n * time * (0.5 - quad) * wobble,
        )
        .with_stall(StallCategory::software("lock_spin"), 1.0e7 * n * n * wobble)
}

fn set_of(points: &[Measurement]) -> MeasurementSet {
    let mut set = MeasurementSet::new("memo", 2.1);
    for point in points {
        set.push(point.clone());
    }
    set
}

fn assert_candidates_identical(a: &[FitCandidate], b: &[FitCandidate]) {
    assert_eq!(a.len(), b.len(), "candidate counts differ");
    for (a, b) in a.iter().zip(b) {
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
/// mid-series, 3: drop one point) to a series sorted by core count. Core
/// counts start even, so an insert usually finds a free count between two
/// neighbours; where none is free it appends instead.
fn edit(points: &mut Vec<Measurement>, kind: u64, pick: u64, serial: f64, quad: f64, salt: u64) {
    let newest = points.last().map_or(0, |p| p.cores);
    match kind {
        0 => {
            let replaced = point(newest, serial * 1.1, quad, salt);
            *points.last_mut().unwrap() = replaced;
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
        edits in proptest::collection::vec(0u64..4, 4..7),
    ) {
        let config = EstimaConfig::default().with_parallelism(1);
        let estima = Estima::new(config.clone());
        let target = TargetSpec::cores(64);
        let options = FitOptions {
            realism_horizon: target.cores,
            ..config.fit.clone()
        };
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

    let cold = session.predict(&series, &target).unwrap();
    let fitted_series = cold.categories.len() + 1; // + the scaling factor
    let (hits, cold_solves) = session.cache().solve_stats();
    assert_eq!(hits, 0, "a fresh cache served a solve");
    assert!(cold_solves > 0);
    let entries = session.cache().solve_entries();

    // Flip the newest (12-core) checkpoint: it lies outside every training
    // prefix, so the refit reuses every solve.
    let mut flipped = points.clone();
    flipped[11] = point(12, 55.0, 0.2, 3);
    session.ingest(&series, flipped[11].clone()).unwrap();
    let (misses_before, hits_before) = (session.cache().stats().1, hits);
    let refit = session.predict(&series, &target).unwrap();
    assert_eq!(
        session.cache().stats().1,
        misses_before + fitted_series,
        "the flip did not refit every series"
    );
    let (hits, solves) = session.cache().solve_stats();
    assert_eq!(solves, cold_solves, "a newest-point flip re-ran LM solves");
    assert!(hits > hits_before);
    assert_eq!(session.cache().solve_entries(), entries);
    assert_predictions_identical(
        &Estima::new(config.clone())
            .predict(&set_of(&flipped), &target)
            .unwrap(),
        &refit,
    );

    // Append a 13-core point: the training prefixes grow by exactly one
    // (points 1..=11), solved once per nonlinear kernel per fitted series.
    flipped.push(point(13, 50.0, 0.2, 3));
    session.ingest(&series, flipped[12].clone()).unwrap();
    let appended = session.predict(&series, &target).unwrap();
    let (_, after_append) = session.cache().solve_stats();
    let nonlinear_kernels = KernelKind::ALL.iter().filter(|k| !k.is_linear()).count();
    assert_eq!(
        after_append - solves,
        nonlinear_kernels * fitted_series,
        "an append must solve one new prefix per nonlinear kernel per series"
    );
    assert_predictions_identical(
        &Estima::new(config)
            .predict(&set_of(&flipped), &target)
            .unwrap(),
        &appended,
    );
}

#[test]
fn different_lm_options_never_share_solves() {
    let points: Vec<Measurement> = (1..=10).map(|c| point(c, 40.0, 0.3, 7)).collect();
    let set = set_of(&points);
    let (xs, ys): (Vec<f64>, Vec<f64>) = set
        .category_series(&StallCategory::backend("rob_full"))
        .iter()
        .map(|(c, v)| (f64::from(*c), *v))
        .unzip();
    let cache = FitCache::new();
    let cached_ctx = FitContext {
        cache: Some(&cache),
        ..FitContext::default()
    };
    let default = FitOptions::default();
    let truncated = FitOptions {
        lm: LmOptions {
            max_iterations: 2,
            ..LmOptions::default()
        },
        ..FitOptions::default()
    };
    for options in [&default, &truncated] {
        let cached = candidate_fits(&xs, &ys, options, &cached_ctx).unwrap();
        let uncached = candidate_fits(&xs, &ys, options, &FitContext::default()).unwrap();
        assert_candidates_identical(&uncached, &cached);
    }
    assert_eq!(cache.solve_stats().0, 0, "the second options reused solves");
}
