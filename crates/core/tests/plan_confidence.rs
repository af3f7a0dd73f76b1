//! Determinism pinning for the planning subsystem:
//!
//! 1. Jackknife confidence intervals are **parallelism-invariant**: the
//!    leave-one-out refits fan across the engine pool, but the reduction is
//!    index-ordered with a fixed summation order, so parallelism 1 and N
//!    produce bit-identical intervals over randomized workload shapes.
//! 2. Confidence and plans are **arrival-order-invariant** through a
//!    session: ingesting the same points in a shuffled order yields the
//!    byte-identical interval and suggestion list (the store's ordering
//!    policy makes arrival order irrelevant, and the planner only ever sees
//!    the sorted set).
//! 3. Confidence and plans match a **reference jackknife**, bit for bit:
//!    [`reference`] is the planner as it was when every leave-out built a
//!    fresh copy of the set without one measurement, kept verbatim on
//!    public API. The planner now takes the measurement out of one copy
//!    per engine worker and puts it back; the intervals, predictions and
//!    every suggestion must not change, at parallelism 1, 2 and 4, on a
//!    contiguous set, a set with gaps, and a set with a category present at
//!    only one core count.

use estima_core::prelude::*;
use proptest::prelude::*;

/// The planner before leave-outs stopped cloning sets, verbatim apart from
/// reaching the predictor through public API.
mod reference {
    use estima_core::prelude::*;
    use estima_core::{FitContext, Prediction};

    /// Two-sided normal critical value for a 95% interval.
    const Z_95: f64 = 1.96;

    /// Cap on frontier candidates (core counts beyond the measured maximum).
    const MAX_FRONTIER_CANDIDATES: usize = 4;

    /// Cap on total candidates evaluated per plan.
    const MAX_CANDIDATES: usize = 6;

    pub struct Planner<'a> {
        pub estima: &'a Estima,
        pub ctx: FitContext<'a>,
    }

    impl Planner<'_> {
        fn predict(&self, set: &MeasurementSet, target: &TargetSpec) -> Result<Prediction> {
            self.estima.predict_in(set, target, &self.ctx)
        }

        pub fn confidence(
            &self,
            set: &MeasurementSet,
            target: &TargetSpec,
        ) -> Result<(Prediction, ConfidenceInterval)> {
            let required = estima_core::MIN_MEASUREMENTS + 1;
            if set.len() < required {
                return Err(EstimaError::InsufficientMeasurements {
                    required,
                    available: set.len(),
                });
            }
            let mut full = self.predict(set, target)?;
            let interval = self.jackknife(set, target, &full)?;
            full.confidence = Some(interval);
            Ok((full, interval))
        }

        fn jackknife(
            &self,
            set: &MeasurementSet,
            target: &TargetSpec,
            full: &Prediction,
        ) -> Result<ConfidenceInterval> {
            let point = full.predicted_time_at(target.cores).ok_or_else(|| {
                EstimaError::Numerical("prediction does not cover the target core count".into())
            })?;
            let n = set.len();
            let thetas: Vec<Option<f64>> = self.ctx.engine.run((0..n).collect(), |leave_out| {
                let subset = leave_one_out(set, leave_out);
                self.predict(&subset, target)
                    .ok()
                    .and_then(|p| p.predicted_time_at(target.cores))
                    .filter(|t| t.is_finite())
            });
            let successes: Vec<f64> = thetas.into_iter().flatten().collect();
            let k = successes.len();
            if k < 2 {
                return Err(EstimaError::Numerical(
                    "jackknife needs at least two successful leave-one-out refits".into(),
                ));
            }
            let kf = k as f64;
            let mean = successes.iter().sum::<f64>() / kf;
            let sum_sq: f64 = successes.iter().map(|t| (t - mean) * (t - mean)).sum();
            let se = (sum_sq * (kf - 1.0) / kf).sqrt();
            if !se.is_finite() {
                return Err(EstimaError::Numerical(
                    "jackknife standard error is not finite".into(),
                ));
            }
            let lo = (point - Z_95 * se).max(0.0);
            let hi = point + Z_95 * se;
            Ok(ConfidenceInterval {
                lo,
                hi,
                spread: hi - lo,
            })
        }

        pub fn plan(
            &self,
            set: &MeasurementSet,
            target: &TargetSpec,
            max_suggestions: usize,
        ) -> Result<MeasurementPlan> {
            let (full, baseline) = self.confidence(set, target)?;
            let bottleneck = BottleneckReport::from_prediction(&full, target.cores);
            let candidates = candidate_cores(set, target);
            let scored: Vec<Option<PlanSuggestion>> = self.ctx.engine.run(candidates, |cores| {
                let suggestion = self.score_candidate(set, target, &full, &baseline, cores)?;
                let rationale = rationale_for(set, cores, &bottleneck);
                Some(PlanSuggestion {
                    rationale,
                    ..suggestion
                })
            });
            let mut suggestions: Vec<PlanSuggestion> = scored.into_iter().flatten().collect();
            suggestions.sort_by(|a, b| {
                b.expected_reduction
                    .partial_cmp(&a.expected_reduction)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cores.cmp(&b.cores))
            });
            suggestions.truncate(max_suggestions.max(1));
            Ok(MeasurementPlan {
                app_name: set.app_name.clone(),
                measured_cores: set.max_cores(),
                target_cores: target.cores,
                confidence: baseline,
                bottleneck,
                suggestions,
            })
        }

        fn score_candidate(
            &self,
            set: &MeasurementSet,
            target: &TargetSpec,
            full: &Prediction,
            baseline: &ConfidenceInterval,
            cores: u32,
        ) -> Option<PlanSuggestion> {
            let exec_time = full.predicted_time_at(cores)?;
            if !exec_time.is_finite() || exec_time <= 0.0 {
                return None;
            }
            let mut hypothetical = Measurement::new(cores, exec_time);
            for extrapolation in &full.categories {
                let cycles = extrapolation.at(cores)?;
                if !cycles.is_finite() || cycles < 0.0 {
                    return None;
                }
                hypothetical = hypothetical.with_stall(extrapolation.category.clone(), cycles);
            }
            let mut augmented = set.clone();
            augmented.push(hypothetical);
            let refit = self.predict(&augmented, target).ok()?;
            let interval = self.jackknife(&augmented, target, &refit).ok()?;
            if !interval.spread.is_finite() {
                return None;
            }
            Some(PlanSuggestion {
                cores,
                expected_spread: interval.spread,
                expected_reduction: baseline.spread - interval.spread,
                rationale: String::new(),
            })
        }
    }

    /// The measurement set with the measurement at `leave_out` removed.
    fn leave_one_out(set: &MeasurementSet, leave_out: usize) -> MeasurementSet {
        let mut subset = MeasurementSet::new(set.app_name.clone(), set.frequency_ghz);
        for (index, measurement) in set.measurements().iter().enumerate() {
            if index != leave_out {
                subset.push(measurement.clone());
            }
        }
        subset
    }

    fn candidate_cores(set: &MeasurementSet, target: &TargetSpec) -> Vec<u32> {
        let measured = set.core_counts();
        let max = set.max_cores();
        let mut candidates: Vec<u32> = Vec::new();
        let push = |cores: u32, candidates: &mut Vec<u32>| {
            if candidates.len() < MAX_CANDIDATES && !candidates.contains(&cores) {
                candidates.push(cores);
            }
        };
        let mut step = 1u32;
        for _ in 0..MAX_FRONTIER_CANDIDATES {
            let Some(cores) = max.checked_add(step) else {
                break;
            };
            if cores > target.cores {
                break;
            }
            push(cores, &mut candidates);
            step = step.saturating_mul(2);
        }
        for pair in measured.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            if b > a + 1 {
                push(a + (b - a) / 2, &mut candidates);
            }
        }
        candidates
    }

    fn rationale_for(set: &MeasurementSet, cores: u32, bottleneck: &BottleneckReport) -> String {
        let dominant = bottleneck.dominant().map(|e| e.category.to_string());
        if cores > set.max_cores() {
            match dominant {
                Some(category) => format!(
                    "extends the measured frontier from {} to {} cores, tightening the \
                     extrapolation of the dominant stall category `{}`",
                    set.max_cores(),
                    cores,
                    category
                ),
                None => format!(
                    "extends the measured frontier from {} to {} cores",
                    set.max_cores(),
                    cores
                ),
            }
        } else {
            format!(
                "fills a gap in the measured range at {} cores, anchoring the fitted \
                 kernels between existing points",
                cores
            )
        }
    }
}

/// One synthetic measurement following simple analytic laws, parametrized
/// so different draws produce genuinely different series. A deterministic
/// per-core wobble keeps the jackknife interval nondegenerate (a perfect
/// analytic law can be fit exactly, collapsing the leave-out spread).
fn synthetic_point(cores: u32, serial: f64, quad: f64, spin: f64) -> Measurement {
    let n = cores as f64;
    let wobble = 1.0 + 0.02 * (((cores * 7) % 5) as f64 - 2.0);
    let time = (serial / n + 1.0) * wobble;
    Measurement::new(cores, time)
        .with_stall(
            StallCategory::backend("rob_full"),
            1.0e9 * n * time * (0.5 + quad),
        )
        .with_stall(
            StallCategory::backend("ls_full"),
            1.0e9 * n * time * (0.5 - quad),
        )
        .with_stall(StallCategory::software("lock_spin"), spin * 1.0e7 * n * n)
}

fn assert_interval_bits(a: &ConfidenceInterval, b: &ConfidenceInterval) {
    assert_eq!(a.lo.to_bits(), b.lo.to_bits(), "interval lo");
    assert_eq!(a.hi.to_bits(), b.hi.to_bits(), "interval hi");
    assert_eq!(a.spread.to_bits(), b.spread.to_bits(), "interval spread");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn confidence_is_parallelism_invariant(
        measured in 8u32..13,
        serial in 20.0f64..80.0,
        quad in 0.05f64..0.45,
        spin in 0.1f64..4.0,
    ) {
        let mut set = MeasurementSet::new("prop-ci", 2.1);
        for cores in 1..=measured {
            set.push(synthetic_point(cores, serial, quad, spin));
        }
        let target = TargetSpec::cores(measured * 4);

        let sequential = Estima::new(EstimaConfig::default().with_parallelism(1));
        let threaded = Estima::new(EstimaConfig::default().with_parallelism(4));
        let seq = Planner::new(&sequential).confidence(&set, &target);
        let par = Planner::new(&threaded).confidence(&set, &target);
        match (seq, par) {
            (Ok((p1, i1)), Ok((p2, i2))) => {
                assert_interval_bits(&i1, &i2);
                for ((c1, t1), (c2, t2)) in p1.predicted_time.iter().zip(&p2.predicted_time) {
                    prop_assert_eq!(c1, c2);
                    prop_assert_eq!(t1.to_bits(), t2.to_bits());
                }
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => panic!("parallelism 1 {a:?} disagrees with parallelism 4 {b:?}"),
        }
    }

    #[test]
    fn confidence_and_plan_are_arrival_order_invariant(
        measured in 8u32..13,
        serial in 20.0f64..80.0,
        quad in 0.05f64..0.45,
        spin in 0.1f64..4.0,
        order_salt in 0u64..1000,
    ) {
        let config = EstimaConfig::default().with_parallelism(1);
        let series = SeriesId::new("prop-plan").unwrap();
        let target = TargetSpec::cores(measured * 4);

        // A shuffled arrival order for the session's ingests.
        let mut arrival: Vec<u32> = (1..=measured).collect();
        for i in (1..arrival.len()).rev() {
            arrival.swap(i, (order_salt as usize).wrapping_mul(i) % (i + 1));
        }

        // Reference: the sorted one-shot set, planned directly.
        let mut full = MeasurementSet::new("prop-plan", 2.1);
        for cores in 1..=measured {
            full.push(synthetic_point(cores, serial, quad, spin));
        }
        let estima = Estima::new(config.clone());
        let planner = Planner::new(&estima);
        let reference_conf = planner.confidence(&full, &target);
        let reference_plan = planner.plan(&full, &target, 3);

        // Session: same points, shuffled arrival.
        let session = EstimaSession::new(config);
        session.ensure(&series, 2.1).unwrap();
        for cores in arrival {
            session
                .ingest(&series, synthetic_point(cores, serial, quad, spin))
                .unwrap();
        }
        let session_conf = session.predict_with_confidence(&series, &target);
        let session_plan = session.plan(&series, &target, 3);

        match (reference_conf, session_conf) {
            (Ok((_, i1)), Ok(p2)) => {
                let i2 = p2.confidence.expect("session prediction carries an interval");
                assert_interval_bits(&i1, &i2);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => panic!("one-shot confidence {a:?} disagrees with session {b:?}"),
        }
        match (reference_plan, session_plan) {
            (Ok(a), Ok(b)) => {
                assert_interval_bits(&a.confidence, &b.confidence);
                prop_assert_eq!(a.suggestions.len(), b.suggestions.len());
                for (s1, s2) in a.suggestions.iter().zip(&b.suggestions) {
                    prop_assert_eq!(s1.cores, s2.cores);
                    prop_assert_eq!(
                        s1.expected_spread.to_bits(),
                        s2.expected_spread.to_bits()
                    );
                    prop_assert_eq!(
                        s1.expected_reduction.to_bits(),
                        s2.expected_reduction.to_bits()
                    );
                    prop_assert_eq!(&s1.rationale, &s2.rationale);
                }
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => panic!("one-shot plan {a:?} disagrees with session {b:?}"),
        }
    }
}

/// The sets the reference jackknife is checked on: contiguous, with gaps,
/// and with a category present at only the newest core count.
fn reference_sets() -> Vec<MeasurementSet> {
    let mut contiguous = MeasurementSet::new("contiguous", 2.1);
    for cores in 1..=10u32 {
        contiguous.push(synthetic_point(cores, 40.0, 0.2, 1.0));
    }
    let mut gaps = MeasurementSet::new("gaps", 2.1);
    for cores in [1u32, 2, 3, 4, 6, 8, 11, 12] {
        gaps.push(synthetic_point(cores, 60.0, 0.3, 0.5));
    }
    let mut lone = MeasurementSet::new("lone-category", 2.1);
    for cores in 1..=9u32 {
        let mut point = synthetic_point(cores, 30.0, 0.1, 2.0);
        if cores == 9 {
            point = point.with_stall(StallCategory::software("late_barrier"), 3.0e9);
        }
        lone.push(point);
    }
    vec![contiguous, gaps, lone]
}

fn assert_prediction_bits(a: &Prediction, b: &Prediction) {
    let bits = |series: &[(u32, f64)]| -> Vec<(u32, u64)> {
        series.iter().map(|(c, v)| (*c, v.to_bits())).collect()
    };
    assert_eq!(
        bits(&a.predicted_time),
        bits(&b.predicted_time),
        "predicted time"
    );
    assert_eq!(
        bits(&a.stalls_per_core),
        bits(&b.stalls_per_core),
        "stalls per core"
    );
    assert_eq!(
        a.factor_correlation.to_bits(),
        b.factor_correlation.to_bits(),
        "factor correlation"
    );
    assert_eq!(a.confidence.is_some(), b.confidence.is_some());
    if let (Some(i1), Some(i2)) = (&a.confidence, &b.confidence) {
        assert_interval_bits(i1, i2);
    }
}

fn assert_plan_bits(a: &MeasurementPlan, b: &MeasurementPlan) {
    assert_interval_bits(&a.confidence, &b.confidence);
    assert_eq!(a.measured_cores, b.measured_cores);
    assert_eq!(a.target_cores, b.target_cores);
    assert_eq!(a.suggestions.len(), b.suggestions.len(), "suggestion count");
    for (s1, s2) in a.suggestions.iter().zip(&b.suggestions) {
        assert_eq!(s1.cores, s2.cores, "suggested cores");
        assert_eq!(
            s1.expected_spread.to_bits(),
            s2.expected_spread.to_bits(),
            "expected spread at {} cores",
            s1.cores
        );
        assert_eq!(
            s1.expected_reduction.to_bits(),
            s2.expected_reduction.to_bits(),
            "expected reduction at {} cores",
            s1.cores
        );
        assert_eq!(s1.rationale, s2.rationale);
    }
}

/// The targets the reference jackknife is checked at: beyond the
/// measurements, with another clock and a dataset scale (a leave-out that
/// dropped either would still match at the plain target), and just past
/// the widest set.
fn reference_targets() -> [TargetSpec; 3] {
    [
        TargetSpec::cores(48),
        TargetSpec::cores(48)
            .with_frequency_ghz(3.0)
            .with_dataset_scale(1.5),
        TargetSpec::cores(16),
    ]
}

#[test]
fn confidence_and_plan_match_the_reference_jackknife() {
    for target in reference_targets() {
        for set in reference_sets() {
            for parallelism in [1, 2, 4] {
                let estima = Estima::new(EstimaConfig::default().with_parallelism(parallelism));
                let planner = Planner::new(&estima);
                let reference = reference::Planner {
                    estima: &estima,
                    ctx: estima.fit_context(),
                };
                let context = format!("{} at parallelism {parallelism}, {target:?}", set.app_name);

                let (p1, i1) = planner.confidence(&set, &target).expect(&context);
                let (p2, i2) = reference.confidence(&set, &target).expect(&context);
                assert_interval_bits(&i1, &i2);
                assert_prediction_bits(&p1, &p2);

                let plan = planner.plan(&set, &target, 6).expect(&context);
                let expected = reference.plan(&set, &target, 6).expect(&context);
                assert!(!expected.suggestions.is_empty(), "{context}: no suggestion");
                assert_plan_bits(&plan, &expected);
            }
        }
    }
}

#[test]
fn cached_plans_match_the_reference_jackknife() {
    // Through a shared fit cache, as a session plans: the leave-outs must
    // draw the same fits whether they come from the cache or not.
    let estima = Estima::new(EstimaConfig::default().with_parallelism(2));
    for target in reference_targets() {
        for set in reference_sets() {
            let cache = FitCache::new();
            let ctx = estima_core::FitContext {
                cache: Some(&cache),
                ..estima.fit_context()
            };
            let planner = Planner::in_context(&estima, ctx);
            let reference = reference::Planner {
                estima: &estima,
                ctx: estima.fit_context(),
            };
            for _ in 0..2 {
                let plan = planner.plan(&set, &target, 3).unwrap();
                let expected = reference.plan(&set, &target, 3).unwrap();
                assert_plan_bits(&plan, &expected);
            }
        }
    }
}
