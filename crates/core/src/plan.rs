//! Uncertainty and adaptive measurement planning: jackknife confidence
//! intervals over the training prefix, and a planner that ranks which
//! measurement to take next.
//!
//! ESTIMA extrapolates from whatever measurement prefix it is given, but the
//! paper's pipeline never says how much to *trust* a prediction or which
//! additional run would sharpen it the most. This module closes that loop:
//!
//! * **Uncertainty** — [`Planner::confidence`] computes a jackknife
//!   confidence interval for the predicted execution time at the target core
//!   count: the full pipeline is re-run once per leave-one-out subset of the
//!   measurements, and the dispersion of the leave-out predictions yields a
//!   standard error (`se² = (k−1)/k · Σ(θᵢ − θ̄)²`). Leave-outs fan out on
//!   the planner's [`FitContext`] engine with the usual index-ordered
//!   reduction, so the interval is bit-identical at any parallelism, and
//!   with a cache in the context every leave-out's fits land in the shared
//!   [`FitCache`](crate::engine::FitCache) — a repeated call is a pure cache
//!   hit.
//! * **Planning** — [`Planner::plan`] ranks candidate next measurements
//!   (frontier core counts beyond the measured prefix, plus midpoints of
//!   gaps inside it) by how much each would shrink the interval: a
//!   hypothetical measurement is drawn from the *current* model (predicted
//!   time, extrapolated per-category stalls), appended to the set, and the
//!   jackknife is re-run; the score is the spread reduction.
//! * **Diagnosis** — the plan carries a [`BottleneckReport`] naming the
//!   stall category predicted to dominate at the target, so the rationale
//!   can say *why* a frontier point matters.
//!
//! `estima-serve` exposes the planner as `POST /v1/series/{id}/plan` and the
//! interval as the opt-in `"confidence"` flag on series predicts; see
//! DESIGN.md § *Planning & uncertainty*.

use serde::{Deserialize, Serialize};

use crate::bottleneck::BottleneckReport;
use crate::config::TargetSpec;
use crate::error::{EstimaError, Result};
use crate::fit::FitContext;
use crate::measurement::{Measurement, MeasurementSet};
use crate::predictor::{Estima, Prediction};

/// Two-sided normal critical value for a 95% interval.
const Z_95: f64 = 1.96;

/// Cap on frontier candidates (core counts beyond the measured maximum).
const MAX_FRONTIER_CANDIDATES: usize = 4;

/// Cap on total candidates evaluated per plan (each candidate costs one
/// jackknife pass over the hypothetical set).
const MAX_CANDIDATES: usize = 6;

/// Default number of ranked suggestions a plan returns.
pub const DEFAULT_SUGGESTIONS: usize = 3;

/// A 95% jackknife confidence interval around a predicted execution time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfidenceInterval {
    /// Lower bound in seconds (clamped to zero — a negative execution time
    /// is meaningless).
    pub lo: f64,
    /// Upper bound in seconds.
    pub hi: f64,
    /// Interval width `hi - lo` in seconds — the planner's optimisation
    /// target.
    pub spread: f64,
}

/// One ranked suggestion: a core count to measure next and the interval
/// shrinkage the current model expects from it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanSuggestion {
    /// Core count to run the application at next.
    pub cores: u32,
    /// Jackknife spread (seconds) the model expects *after* ingesting a
    /// measurement at [`PlanSuggestion::cores`].
    pub expected_spread: f64,
    /// Expected spread reduction versus the current interval (seconds;
    /// positive means the suggestion tightens the prediction).
    pub expected_reduction: f64,
    /// Human-readable justification, naming the dominant bottleneck where
    /// one exists. Deterministic — a pure function of the measurement set.
    pub rationale: String,
}

/// The full output of one planning pass: current uncertainty, dominant
/// bottleneck, and ranked next measurements.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MeasurementPlan {
    /// Application the plan is for.
    pub app_name: String,
    /// Largest measured core count the plan extrapolates from.
    pub measured_cores: u32,
    /// Target core count the uncertainty is evaluated at.
    pub target_cores: u32,
    /// Current jackknife interval around the predicted time at the target.
    pub confidence: ConfidenceInterval,
    /// Scaling-loss diagnosis at the target core count (entries sorted by
    /// descending share; see [`BottleneckReport`]).
    pub bottleneck: BottleneckReport,
    /// Ranked suggestions, best (largest expected reduction) first.
    pub suggestions: Vec<PlanSuggestion>,
}

/// Uncertainty estimator and measurement planner over one predictor.
///
/// A `Planner` borrows an [`Estima`] and runs every refit through
/// [`Estima::predict_in`] in one [`FitContext`]: with a cache (and a store
/// scope) in it, planning against an unchanged series re-uses every fit it
/// has ever computed.
///
/// ```
/// use estima_core::prelude::*;
///
/// let mut set = MeasurementSet::new("demo", 2.1);
/// for cores in 1..=10u32 {
///     let n = cores as f64;
///     let wobble = 1.0 + 0.02 * (((cores * 7) % 5) as f64 - 2.0);
///     let time = (40.0 / n + 1.0) * wobble;
///     set.push(
///         Measurement::new(cores, time)
///             .with_stall(StallCategory::backend("rob_full"), 4.0e8 * n * time),
///     );
/// }
/// let estima = Estima::new(EstimaConfig::default());
/// let planner = Planner::new(&estima);
/// let plan = planner.plan(&set, &TargetSpec::cores(32), 3).unwrap();
/// assert!(plan.confidence.hi >= plan.confidence.lo);
/// assert!(!plan.suggestions.is_empty());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Planner<'a> {
    estima: &'a Estima,
    ctx: FitContext<'a>,
}

impl<'a> Planner<'a> {
    /// Create a planner over a predictor, fitting in
    /// [`Estima::fit_context`] (no fit cache).
    pub fn new(estima: &'a Estima) -> Self {
        Planner::in_context(estima, estima.fit_context())
    }

    /// Create a planner whose leave-outs fan out on `ctx.engine` and whose
    /// refits all run in `ctx`.
    pub fn in_context(estima: &'a Estima, ctx: FitContext<'a>) -> Self {
        Planner { estima, ctx }
    }

    /// One full-pipeline prediction in the planner's context.
    fn predict(&self, set: &MeasurementSet, target: &TargetSpec) -> Result<Prediction> {
        self.estima.predict_in(set, target, &self.ctx)
    }

    /// Predict `set` at `target` and attach a jackknife confidence interval
    /// for the predicted time at the target core count.
    ///
    /// Requires one measurement more than the pipeline minimum (every
    /// leave-one-out subset must itself be predictable); a shorter set fails
    /// with [`EstimaError::InsufficientMeasurements`]. Leave-out refits that
    /// fail (e.g. no viable fit without that point) are skipped; at least
    /// two must succeed or the call fails with [`EstimaError::Numerical`].
    ///
    /// The returned prediction carries the interval in
    /// [`Prediction::confidence`]; the interval is also returned separately.
    pub fn confidence(
        &self,
        set: &MeasurementSet,
        target: &TargetSpec,
    ) -> Result<(Prediction, ConfidenceInterval)> {
        let required = self.estima.config().min_measurements + 1;
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

    /// The jackknife interval for an already-computed full prediction.
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
        // Leave-outs are enumerated (and reduced) in measurement order, so
        // the sums below always fold in the same order: bit-identical at any
        // parallelism. Failed refits are kept as None to preserve indexing.
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

    /// Rank candidate next measurements by expected interval shrinkage.
    ///
    /// Candidates are frontier core counts beyond the measured maximum
    /// (`max+1, max+2, max+4, …` up to the target) plus midpoints of gaps
    /// between measured core counts, capped at a small fixed budget. Each
    /// candidate is scored by appending a hypothetical measurement drawn
    /// from the current model and re-running the jackknife; candidates whose
    /// hypothetical refit fails are dropped. At most `max_suggestions`
    /// survivors are returned, best first (ties broken by ascending cores).
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

    /// Score one candidate core count: append the model-drawn hypothetical
    /// measurement and measure the jackknife spread of the augmented set.
    /// Returns `None` (candidate dropped) when the model cannot supply a
    /// usable hypothetical point or the augmented refit fails.
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

/// Candidate next core counts: frontier points beyond the measured maximum
/// (`max + 2^j`, most informative for extrapolation), then midpoints of gaps
/// inside the measured range (they anchor the fitted kernels), deduplicated
/// and capped. Pure and deterministic in the set's content.
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

/// Deterministic rationale for suggesting `cores`, naming the dominant
/// bottleneck category when one exists.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EstimaConfig;
    use crate::measurement::StallCategory;

    /// A synthetic workload with deterministic per-point wobble, so
    /// leave-out predictions genuinely disagree and the jackknife spread is
    /// positive.
    fn wobbly_set(points: u32) -> MeasurementSet {
        let mut set = MeasurementSet::new("plan-demo", 2.1);
        for cores in 1..=points {
            let n = cores as f64;
            let wobble = 1.0 + 0.02 * (((cores * 7) % 5) as f64 - 2.0);
            let time = (50.0 / n + 1.0) * wobble;
            set.push(
                Measurement::new(cores, time)
                    .with_stall(StallCategory::backend("rob_full"), 4.0e8 * n * time * 0.7)
                    .with_stall(StallCategory::backend("ls_full"), 4.0e8 * n * time * 0.3),
            );
        }
        set
    }

    #[test]
    fn confidence_brackets_the_point_prediction() {
        let set = wobbly_set(10);
        let estima = Estima::new(EstimaConfig::default());
        let target = TargetSpec::cores(32);
        let (prediction, interval) = Planner::new(&estima).confidence(&set, &target).unwrap();
        let point = prediction.predicted_time_at(32).unwrap();
        assert!(interval.lo <= point && point <= interval.hi);
        assert!(interval.spread > 0.0, "wobbly data must have spread");
        assert_eq!(prediction.confidence, Some(interval));
    }

    #[test]
    fn confidence_requires_one_extra_measurement() {
        let min = EstimaConfig::default().min_measurements;
        let set = wobbly_set(min as u32);
        let estima = Estima::new(EstimaConfig::default());
        let err = Planner::new(&estima)
            .confidence(&set, &TargetSpec::cores(32))
            .unwrap_err();
        assert_eq!(
            err,
            EstimaError::InsufficientMeasurements {
                required: min + 1,
                available: min,
            }
        );
    }

    #[test]
    fn confidence_is_parallelism_invariant() {
        let set = wobbly_set(10);
        let target = TargetSpec::cores(32);
        let sequential = Estima::new(EstimaConfig::default().with_parallelism(1));
        let parallel = Estima::new(EstimaConfig::default().with_parallelism(4));
        let (_, seq) = Planner::new(&sequential).confidence(&set, &target).unwrap();
        let (_, par) = Planner::new(&parallel).confidence(&set, &target).unwrap();
        assert_eq!(seq.lo.to_bits(), par.lo.to_bits());
        assert_eq!(seq.hi.to_bits(), par.hi.to_bits());
        assert_eq!(seq.spread.to_bits(), par.spread.to_bits());
    }

    #[test]
    fn plan_ranks_suggestions_by_reduction() {
        let set = wobbly_set(10);
        let estima = Estima::new(EstimaConfig::default());
        let plan = Planner::new(&estima)
            .plan(&set, &TargetSpec::cores(32), 3)
            .unwrap();
        assert!(!plan.suggestions.is_empty());
        assert!(plan.suggestions.len() <= 3);
        for pair in plan.suggestions.windows(2) {
            assert!(pair[0].expected_reduction >= pair[1].expected_reduction);
        }
        for suggestion in &plan.suggestions {
            assert!(suggestion.cores > 0 && suggestion.cores <= 32);
            assert!(
                set.at_cores(suggestion.cores).is_none(),
                "suggestion {} repeats a measured core count",
                suggestion.cores
            );
            assert!(!suggestion.rationale.is_empty());
        }
        assert_eq!(plan.measured_cores, 10);
        assert_eq!(plan.target_cores, 32);
        assert!(!plan.bottleneck.entries.is_empty());
    }

    #[test]
    fn candidates_prefer_frontier_then_gaps() {
        let mut set = MeasurementSet::new("gappy", 2.0);
        for cores in [1u32, 2, 3, 4, 8, 12] {
            set.push(Measurement::new(cores, 1.0));
        }
        let candidates = candidate_cores(&set, &TargetSpec::cores(48));
        assert_eq!(candidates, vec![13, 14, 16, 20, 6, 10]);
    }

    #[test]
    fn candidates_respect_target_bound() {
        let mut set = MeasurementSet::new("tight", 2.0);
        for cores in 1..=12u32 {
            set.push(Measurement::new(cores, 1.0));
        }
        let candidates = candidate_cores(&set, &TargetSpec::cores(14));
        assert_eq!(candidates, vec![13, 14]);
    }

    #[test]
    fn ingesting_the_top_suggestion_shrinks_the_interval() {
        // End-to-end: plan, run the suggested "experiment" (the synthetic
        // law stands in for a real run), ingest, re-estimate. The interval
        // must tighten — the acceptance criterion of the planning loop.
        let set = wobbly_set(10);
        let estima = Estima::new(EstimaConfig::default());
        let target = TargetSpec::cores(32);
        let planner = Planner::new(&estima);
        let plan = planner.plan(&set, &target, 1).unwrap();
        let best = &plan.suggestions[0];
        assert!(
            best.expected_reduction > 0.0,
            "top suggestion expects reduction {}",
            best.expected_reduction
        );
        let mut augmented = set.clone();
        let grown = wobbly_set(best.cores.max(10));
        let truth = grown.at_cores(best.cores).expect("law covers candidate");
        augmented.push(truth.clone());
        let (_, after) = planner.confidence(&augmented, &target).unwrap();
        assert!(
            after.spread < plan.confidence.spread,
            "spread {} did not shrink below {}",
            after.spread,
            plan.confidence.spread
        );
    }

    #[test]
    fn leave_one_out_drops_exactly_one_point() {
        let set = wobbly_set(6);
        let subset = leave_one_out(&set, 2);
        assert_eq!(subset.len(), 5);
        assert!(subset.at_cores(3).is_none());
        assert_eq!(subset.app_name, set.app_name);
    }
}
