//! The ESTIMA predictor: from stall measurements to execution-time predictions.
//!
//! This module implements the three-step pipeline of Figure 3:
//!
//! * **A — collection** is the caller's job (see `estima-counters` and
//!   `estima-workloads`); the input here is a [`MeasurementSet`].
//! * **B — extrapolation**: every stall category is extrapolated individually
//!   with [`crate::fit::approximate_series`], then combined into total stalled
//!   cycles per core.
//! * **C — time translation**: the scaling factor connecting stalled cycles
//!   per core to execution time is computed at the measured core counts,
//!   extrapolated with the same kernels, and the kernel whose resulting time
//!   predictions correlate best with stalled cycles per core is selected.

use serde::{Deserialize, Serialize};

use crate::config::{EstimaConfig, TargetSpec, MAX_TARGET_CORES};
use crate::engine::Engine;
use crate::error::{EstimaError, Result};
use crate::fit::{approximate_series, candidate_fits, FitContext, FitOptions};
use crate::kernels::FittedCurve;
use crate::measurement::{MeasurementSet, StallCategory};
use crate::stats::{max_relative_error, pearson_correlation, relative_error};

/// O(1) lookup in a `(cores, value)` series that is dense over
/// `1..=target` (the layout every extrapolated series uses), with a linear
/// fallback for series that arrived sparse (e.g. deserialized or hand-built).
fn dense_lookup(points: &[(u32, f64)], cores: u32) -> Option<f64> {
    let index = cores.checked_sub(1)? as usize;
    match points.get(index) {
        Some((c, v)) if *c == cores => Some(*v),
        _ => points.iter().find(|(c, _)| *c == cores).map(|(_, v)| *v),
    }
}

/// Extrapolation of a single stall-cycle category.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CategoryExtrapolation {
    /// The category being extrapolated.
    pub category: StallCategory,
    /// The winning fitted curve.
    pub curve: FittedCurve,
    /// The measured `(cores, total cycles)` series the fit was based on.
    pub measured: Vec<(u32, f64)>,
    /// Extrapolated total cycles for every core count `1..=target`.
    pub extrapolated: Vec<(u32, f64)>,
}

impl CategoryExtrapolation {
    /// Extrapolated total cycles at a given core count, if within range.
    /// The extrapolated series is dense over `1..=target`, so this is O(1).
    pub fn at(&self, cores: u32) -> Option<f64> {
        dense_lookup(&self.extrapolated, cores)
    }
}

/// The complete output of one ESTIMA prediction.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Prediction {
    /// Application the prediction is for.
    pub app_name: String,
    /// Largest core count used for the measurements.
    pub measured_cores: u32,
    /// Target core count of the prediction.
    pub target_cores: u32,
    /// Per-category extrapolations (step B).
    pub categories: Vec<CategoryExtrapolation>,
    /// Total stalled cycles per core for every core count `1..=target`
    /// (sum of extrapolated categories divided by the core count).
    pub stalls_per_core: Vec<(u32, f64)>,
    /// The fitted scaling-factor curve connecting stalls per core to time.
    pub scaling_factor: FittedCurve,
    /// Pearson correlation between the predicted time series and the stalled
    /// cycles per core series (the selection criterion for the factor curve).
    pub factor_correlation: f64,
    /// Predicted execution time (seconds) for every core count `1..=target`.
    pub predicted_time: Vec<(u32, f64)>,
    /// Measured execution time at the measured core counts, after frequency
    /// scaling to the target machine.
    pub measured_time: Vec<(u32, f64)>,
    /// Jackknife confidence interval around the predicted time at the target
    /// core count. `None` on the plain predict paths; populated by
    /// [`Planner::confidence`](crate::plan::Planner::confidence) (the wire
    /// format only emits it when present, keeping default responses
    /// byte-identical).
    pub confidence: Option<crate::plan::ConfidenceInterval>,
}

impl Prediction {
    /// Predicted execution time at a given core count, if within range.
    /// The predicted series is dense over `1..=target`, so this is O(1).
    pub fn predicted_time_at(&self, cores: u32) -> Option<f64> {
        dense_lookup(&self.predicted_time, cores)
    }

    /// Total stalled cycles per core at a given core count, in O(1).
    pub fn stalls_per_core_at(&self, cores: u32) -> Option<f64> {
        dense_lookup(&self.stalls_per_core, cores)
    }

    /// The core count at which predicted execution time is minimal — the
    /// point at which the application stops scaling. Beyond this core count
    /// ESTIMA predicts stagnation or slowdown.
    pub fn predicted_scaling_limit(&self) -> u32 {
        self.predicted_time
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(c, _)| *c)
            .unwrap_or(1)
    }

    /// Predicted speedup at `cores` relative to the single-core prediction.
    pub fn predicted_speedup(&self, cores: u32) -> Option<f64> {
        let t1 = self.predicted_time_at(1)?;
        let tn = self.predicted_time_at(cores)?;
        if tn <= 0.0 {
            return None;
        }
        Some(t1 / tn)
    }

    /// True when the prediction says the application still benefits from
    /// going from `from` to `to` cores (predicted time strictly decreases by
    /// more than `tolerance`, a fraction).
    pub fn predicts_scaling(&self, from: u32, to: u32, tolerance: f64) -> Option<bool> {
        let tf = self.predicted_time_at(from)?;
        let tt = self.predicted_time_at(to)?;
        Some(tt < tf * (1.0 - tolerance))
    }

    /// Relative prediction errors against actual measurements on the target
    /// machine, as `(cores, relative error)` pairs over the core counts
    /// present in `actual` (and above the measured range used for the
    /// prediction, to mirror the paper's evaluation).
    pub fn errors_against(&self, actual: &[(u32, f64)]) -> Vec<(u32, f64)> {
        actual
            .iter()
            .filter_map(|(cores, time)| {
                self.predicted_time_at(*cores)
                    .map(|p| (*cores, relative_error(p, *time)))
            })
            .collect()
    }

    /// Maximum relative prediction error against actual measurements,
    /// considering only core counts strictly above the measured range (the
    /// metric of Tables 4 and 7). Returns `None` when there is no overlap.
    pub fn max_error_against(&self, actual: &[(u32, f64)]) -> Option<f64> {
        let (pred, obs): (Vec<f64>, Vec<f64>) = actual
            .iter()
            .filter(|(c, _)| *c > self.measured_cores)
            .filter_map(|(c, t)| self.predicted_time_at(*c).map(|p| (p, *t)))
            .unzip();
        if pred.is_empty() {
            return None;
        }
        Some(max_relative_error(&pred, &obs))
    }
}

/// The ESTIMA predictor.
///
/// ```
/// use estima_core::prelude::*;
///
/// // Synthetic measurements: stalls grow quadratically, time follows.
/// let mut set = MeasurementSet::new("demo", 2.1);
/// for cores in 1..=12u32 {
///     let n = cores as f64;
///     let work = 100.0 / n + 0.02 * n;
///     set.push(
///         Measurement::new(cores, work)
///             .with_stall(StallCategory::backend("rob_full"), 1.0e9 * (1.0 + 0.05 * n * n)),
///     );
/// }
/// let estima = Estima::new(EstimaConfig::default());
/// let prediction = estima.predict(&set, &TargetSpec::cores(48)).unwrap();
/// assert_eq!(prediction.target_cores, 48);
/// assert!(prediction.predicted_time_at(48).unwrap() > 0.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Estima {
    config: EstimaConfig,
}

impl Estima {
    /// Create a predictor with the given configuration.
    pub fn new(config: EstimaConfig) -> Self {
        Estima { config }
    }

    /// Borrow the configuration.
    pub fn config(&self) -> &EstimaConfig {
        &self.config
    }

    /// Run the full prediction pipeline (steps B and C of Figure 3) in
    /// [`Estima::fit_context`]: uncached, at the configured parallelism.
    pub fn predict(
        &self,
        measurements: &MeasurementSet,
        target: &TargetSpec,
    ) -> Result<Prediction> {
        self.predict_in(measurements, target, &self.fit_context())
    }

    /// The context a plain [`Estima::predict`] fits in: an engine as wide as
    /// [`EstimaConfig::parallelism`], and no cache. Callers that share a
    /// [`FitCache`](crate::engine::FitCache) set its `cache` (and `scope`).
    pub fn fit_context(&self) -> FitContext<'static> {
        FitContext::new(Engine::new(self.config.parallelism))
    }

    /// [`Estima::predict`] in an explicit [`FitContext`]. Stall categories
    /// are fitted concurrently on `ctx.engine`, and each category's
    /// candidate grid fans out on it too; with `ctx.cache`, every candidate
    /// list is drawn from (and added to) the shared cache under
    /// `ctx.scope`. The result is bit-identical for every context (see
    /// [`crate::engine`] for the determinism argument).
    pub fn predict_in(
        &self,
        measurements: &MeasurementSet,
        target: &TargetSpec,
        ctx: &FitContext<'_>,
    ) -> Result<Prediction> {
        measurements.validate(self.config.min_measurements)?;
        let measured_cores = measurements.max_cores();
        if target.cores < measured_cores {
            return Err(EstimaError::TargetSmallerThanMeasurements {
                target: target.cores,
                measured: measured_cores,
            });
        }
        if target.dataset_scale <= 0.0 {
            return Err(EstimaError::InvalidConfig(
                "dataset_scale must be positive".into(),
            ));
        }
        if target.cores > MAX_TARGET_CORES {
            return Err(EstimaError::InvalidConfig(format!(
                "target cores must be at most {MAX_TARGET_CORES}"
            )));
        }

        let sources = self.config.sources();
        let categories = measurements.categories(&sources);
        if categories.is_empty() {
            return Err(EstimaError::NoStallCategories);
        }

        // Fit options with the realism horizon stretched to the target.
        let fit_options = FitOptions {
            realism_horizon: target.cores,
            ..self.config.fit.clone()
        };

        // Step B: extrapolate every category individually, all categories
        // concurrently. Categories that are identically zero carry no
        // information and a constant-zero extrapolation is exact, so they are
        // dropped before the fan-out.
        let jobs: Vec<(StallCategory, Vec<(u32, f64)>)> = categories
            .into_iter()
            .map(|category| {
                let series = measurements.category_series(&category);
                (category, series)
            })
            .filter(|(_, series)| series.iter().any(|(_, v)| *v != 0.0))
            .collect();
        let fitted: Vec<Result<_>> = ctx.engine.run(jobs, |(category, series)| {
            let xs: Vec<f64> = series.iter().map(|(c, _)| *c as f64).collect();
            let ys: Vec<f64> = series.iter().map(|(_, v)| *v).collect();
            let curve = approximate_series(&xs, &ys, &category.name, &fit_options, ctx)?;
            let extrapolated: Vec<(u32, f64)> = (1..=target.cores)
                .map(|c| {
                    let raw = curve.eval(c as f64).max(0.0);
                    (c, raw * target.dataset_scale)
                })
                .collect();
            Ok(CategoryExtrapolation {
                category,
                curve,
                measured: series,
                extrapolated,
            })
        });
        let extrapolations = fitted.into_iter().collect::<Result<Vec<_>>>()?;
        if extrapolations.is_empty() {
            return Err(EstimaError::NoStallCategories);
        }

        // Total stalled cycles per core over the full range.
        let stalls_per_core: Vec<(u32, f64)> = (1..=target.cores)
            .map(|c| {
                let total: f64 = extrapolations.iter().filter_map(|e| e.at(c)).sum();
                (c, total / c as f64)
            })
            .collect();

        // Step C: scaling factor from stalls per core to execution time.
        // Measured execution time, scaled by the frequency ratio when the
        // target machine runs at a different clock (§4.3).
        let freq_ratio = match target.frequency_ghz {
            Some(target_ghz) if target_ghz > 0.0 => measurements.frequency_ghz / target_ghz,
            _ => 1.0,
        };
        let measured_time: Vec<(u32, f64)> = measurements
            .exec_times()
            .into_iter()
            .map(|(c, t)| (c, t * freq_ratio))
            .collect();

        // Measured stalls per core (from raw measurements, not the fits), so
        // the factor reflects what was actually observed.
        let measured_spc = measurements.stalls_per_core(&sources);
        let factor_xs: Vec<f64> = measured_time.iter().map(|(c, _)| *c as f64).collect();
        let factor_ys: Vec<f64> = measured_time
            .iter()
            .zip(&measured_spc)
            .map(|((_, t), (_, spc))| if *spc > 0.0 { t / spc } else { 0.0 })
            .collect();

        // Candidate factor curves; selection by correlation of the produced
        // time predictions with stalls per core (§3.1.3), tie-broken by
        // checkpoint RMSE. Candidates whose extrapolation reverses the
        // measured trend of the factor (e.g. a factor that was converging
        // towards 1/frequency suddenly curling upwards) are discarded as
        // unrealistic, in the same spirit as the per-category realism check.
        let candidates = candidate_fits(&factor_xs, &factor_ys, &fit_options, ctx)?;
        let spc_values: Vec<f64> = stalls_per_core.iter().map(|(_, v)| *v).collect();
        let factor_at_max_measured = *factor_ys.last().unwrap_or(&0.0);
        let factor_trend_decreasing =
            factor_ys.first().copied().unwrap_or(0.0) >= factor_at_max_measured;
        // Two time buffers (trial and incumbent) are reused across the whole
        // candidate loop instead of collecting fresh vectors per candidate.
        let mut trial_times: Vec<f64> = Vec::with_capacity(stalls_per_core.len());
        let mut best_times: Vec<f64> = Vec::with_capacity(stalls_per_core.len());
        let mut best: Option<(&FittedCurve, f64)> = None;
        for candidate in candidates.iter() {
            let curve = &candidate.curve;
            // The candidate grid captured `curve.eval` over the integer grid
            // `1..=realism_horizon` while running the realism filter. When
            // that table covers exactly this request (it always does on the
            // predict path, where the horizon is stretched to the target and
            // the factor series spans the measured cores), the realism check
            // and the trial time series are table lookups instead of ~2x
            // `target.cores` kernel evaluations per candidate. The fallback
            // loops below are bit-identical by construction: the table holds
            // the same deterministic `eval` results in the same fold order.
            let evals = &candidate.evals;
            let table = evals.horizon() == target.cores
                && evals.tail_start() == measured_cores + 1
                && stalls_per_core.len() == target.cores as usize;
            if factor_at_max_measured > 0.0 && measured_cores < target.cores {
                let (max_extrapolated, min_extrapolated) = if table {
                    (evals.tail_max(), evals.tail_min())
                } else {
                    let mut max_extrapolated = 0.0f64;
                    let mut min_extrapolated = f64::INFINITY;
                    for c in (measured_cores + 1)..=target.cores {
                        let factor = curve.eval(c as f64);
                        max_extrapolated = max_extrapolated.max(factor);
                        min_extrapolated = min_extrapolated.min(factor);
                    }
                    (max_extrapolated, min_extrapolated)
                };
                if factor_trend_decreasing && max_extrapolated > factor_at_max_measured * 1.5 {
                    continue;
                }
                if !factor_trend_decreasing && min_extrapolated < factor_at_max_measured * 0.5 {
                    continue;
                }
            }
            trial_times.clear();
            if table {
                trial_times.extend(
                    stalls_per_core
                        .iter()
                        .zip(evals.values())
                        .map(|((_, spc), factor)| spc * factor),
                );
            } else {
                trial_times.extend(
                    stalls_per_core
                        .iter()
                        .map(|(c, spc)| spc * curve.eval(*c as f64)),
                );
            }
            if trial_times.iter().any(|t| !t.is_finite() || *t < 0.0) {
                continue;
            }
            let corr = pearson_correlation(&trial_times, &spc_values);
            let better = match &best {
                None => true,
                Some((best_curve, best_corr)) => {
                    corr > *best_corr + 1e-9
                        || ((corr - best_corr).abs() <= 1e-9
                            && curve.checkpoint_rmse < best_curve.checkpoint_rmse)
                }
            };
            if better {
                best = Some((curve, corr));
                std::mem::swap(&mut best_times, &mut trial_times);
            }
        }
        let (scaling_factor, factor_correlation) = best
            .map(|(curve, corr)| (curve.clone(), corr))
            .ok_or_else(|| EstimaError::NoViableFit {
                category: "scaling_factor".into(),
            })?;
        let predicted_times = best_times;

        let predicted_time: Vec<(u32, f64)> = stalls_per_core
            .iter()
            .map(|(c, _)| *c)
            .zip(predicted_times)
            .collect();

        Ok(Prediction {
            app_name: measurements.app_name.clone(),
            measured_cores,
            target_cores: target.cores,
            categories: extrapolations,
            stalls_per_core,
            scaling_factor,
            factor_correlation,
            predicted_time,
            measured_time,
            confidence: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measurement::Measurement;

    /// Build a synthetic workload whose per-category stalls and execution
    /// time follow simple analytic laws, so ground truth at any core count is
    /// known exactly. The stall totals are constructed the way real
    /// measurements behave: total stalled cycles are proportional to
    /// `cores × execution time` (each core spends some fraction of the run
    /// stalled), so stalled cycles per core track execution time — the
    /// premise ESTIMA's correlation step relies on (Figure 2 of the paper).
    fn synthetic_set(max_cores: u32) -> (MeasurementSet, Vec<(u32, f64)>) {
        let mut set = MeasurementSet::new("synthetic", 2.1);
        let mut truth = Vec::new();
        for cores in 1..=max_cores {
            let n = cores as f64;
            // Amdahl-style execution time with a small serial fraction.
            let time = 50.0 / n + 1.0;
            // Two backend categories with different shares of the stalls.
            let rob = 4.0e8 * n * time * 0.7;
            let ls = 4.0e8 * n * time * 0.3;
            truth.push((cores, time));
            if cores <= 12 {
                set.push(
                    Measurement::new(cores, time)
                        .with_stall(StallCategory::backend("rob_full"), rob)
                        .with_stall(StallCategory::backend("ls_full"), ls),
                );
            }
        }
        (set, truth)
    }

    #[test]
    fn predicts_synthetic_workload_within_tolerance() {
        let (set, truth) = synthetic_set(48);
        let estima = Estima::new(EstimaConfig::default());
        let prediction = estima.predict(&set, &TargetSpec::cores(48)).unwrap();
        let max_err = prediction.max_error_against(&truth).unwrap();
        assert!(
            max_err < 0.30,
            "maximum relative error {max_err} exceeds 30% on a clean synthetic workload"
        );
    }

    #[test]
    fn prediction_covers_full_range() {
        let (set, _) = synthetic_set(48);
        let estima = Estima::new(EstimaConfig::default());
        let p = estima.predict(&set, &TargetSpec::cores(48)).unwrap();
        assert_eq!(p.predicted_time.len(), 48);
        assert_eq!(p.stalls_per_core.len(), 48);
        assert_eq!(p.predicted_time[0].0, 1);
        assert_eq!(p.predicted_time[47].0, 48);
        assert!(p.factor_correlation > 0.0);
    }

    #[test]
    fn rejects_target_smaller_than_measurements() {
        let (set, _) = synthetic_set(48);
        let estima = Estima::new(EstimaConfig::default());
        assert!(matches!(
            estima.predict(&set, &TargetSpec::cores(8)),
            Err(EstimaError::TargetSmallerThanMeasurements { .. })
        ));
    }

    #[test]
    fn rejects_invalid_dataset_scale() {
        let (set, _) = synthetic_set(48);
        let estima = Estima::new(EstimaConfig::default());
        let target = TargetSpec::cores(48).with_dataset_scale(0.0);
        assert!(matches!(
            estima.predict(&set, &target),
            Err(EstimaError::InvalidConfig(_))
        ));
    }

    #[test]
    fn rejects_target_beyond_max_target_cores() {
        let (set, _) = synthetic_set(48);
        let estima = Estima::new(EstimaConfig::default());
        assert!(estima
            .predict(&set, &TargetSpec::cores(MAX_TARGET_CORES))
            .is_ok());
        for cores in [MAX_TARGET_CORES + 1, 4_000_000_000] {
            assert!(matches!(
                estima.predict(&set, &TargetSpec::cores(cores)),
                Err(EstimaError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn frequency_scaling_scales_prediction() {
        let (set, _) = synthetic_set(48);
        let estima = Estima::new(EstimaConfig::default());
        let base = estima.predict(&set, &TargetSpec::cores(48)).unwrap();
        // A target running at twice the frequency should predict roughly half
        // the execution time (the factor is derived from scaled times).
        let fast = estima
            .predict(&set, &TargetSpec::cores(48).with_frequency_ghz(4.2))
            .unwrap();
        let t_base = base.predicted_time_at(24).unwrap();
        let t_fast = fast.predicted_time_at(24).unwrap();
        assert!(
            (t_fast / t_base - 0.5).abs() < 0.1,
            "expected ~0.5 ratio, got {}",
            t_fast / t_base
        );
    }

    #[test]
    fn dataset_scale_increases_predicted_stalls() {
        let (set, _) = synthetic_set(48);
        let estima = Estima::new(EstimaConfig::default());
        let strong = estima.predict(&set, &TargetSpec::cores(48)).unwrap();
        let weak = estima
            .predict(&set, &TargetSpec::cores(48).with_dataset_scale(2.0))
            .unwrap();
        let s = strong.stalls_per_core_at(48).unwrap();
        let w = weak.stalls_per_core_at(48).unwrap();
        assert!((w / s - 2.0).abs() < 1e-6);
    }

    #[test]
    fn scaling_limit_detected_for_collapsing_workload() {
        // Stalls per core start increasing past ~18 cores: predicted time
        // should bottom out well before the target core count.
        let mut set = MeasurementSet::new("collapse", 2.1);
        let mut truth = Vec::new();
        for cores in 1..=48u32 {
            let n = cores as f64;
            // Parallel work plus a contention term that grows as n^1.5;
            // minimum execution time lands around 18 cores.
            let time = 4.0 / n + 0.002 * n.powf(1.5);
            truth.push((cores, time));
            // Compute stalls stay constant in total (fixed amount of work);
            // contention stalls grow superlinearly — together their per-core
            // sum tracks the execution-time curve.
            let rob = 0.5e9 * 4.0;
            let ls = 0.5e9 * 0.002 * n.powf(2.5);
            if cores <= 12 {
                set.push(
                    Measurement::new(cores, time)
                        .with_stall(StallCategory::backend("rob_full"), rob)
                        .with_stall(StallCategory::backend("ls_full"), ls),
                );
            }
        }
        let estima = Estima::new(EstimaConfig::default());
        let p = estima.predict(&set, &TargetSpec::cores(48)).unwrap();
        let limit = p.predicted_scaling_limit();
        assert!(
            (8..=32).contains(&limit),
            "expected scaling limit between 8 and 32 cores, got {limit}"
        );
        // And it must not predict continued scaling to the full machine.
        assert_eq!(p.predicts_scaling(24, 48, 0.02), Some(false));
    }

    #[test]
    fn speedup_and_helpers() {
        let (set, _) = synthetic_set(48);
        let estima = Estima::new(EstimaConfig::default());
        let p = estima.predict(&set, &TargetSpec::cores(48)).unwrap();
        let s8 = p.predicted_speedup(8).unwrap();
        assert!(s8 > 2.0 && s8 < 10.0, "unexpected speedup {s8}");
        assert!(p.predicted_time_at(100).is_none());
        assert!(p.stalls_per_core_at(48).is_some());
    }

    #[test]
    fn errors_against_reports_per_core_errors() {
        let (set, truth) = synthetic_set(48);
        let estima = Estima::new(EstimaConfig::default());
        let p = estima.predict(&set, &TargetSpec::cores(48)).unwrap();
        let errors = p.errors_against(&truth);
        assert_eq!(errors.len(), truth.len());
        assert!(errors.iter().all(|(_, e)| e.is_finite()));
    }

    #[test]
    fn zero_category_is_skipped() {
        let (mut set, _) = synthetic_set(48);
        // Add an all-zero category; it must not break the pipeline.
        let zeroed: Vec<Measurement> = set
            .measurements()
            .iter()
            .cloned()
            .map(|m| m.with_stall(StallCategory::backend("fpu_full"), 0.0))
            .collect();
        let mut set2 = MeasurementSet::new(set.app_name.clone(), set.frequency_ghz);
        for m in zeroed {
            set2.push(m);
        }
        set = set2;
        let estima = Estima::new(EstimaConfig::default());
        let p = estima.predict(&set, &TargetSpec::cores(48)).unwrap();
        assert!(p.categories.iter().all(|c| c.category.name != "fpu_full"));
    }
}
