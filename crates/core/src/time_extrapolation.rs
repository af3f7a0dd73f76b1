//! The baseline: direct extrapolation of execution time.
//!
//! §2.4 of the paper describes the straightforward alternative to ESTIMA:
//! fit the measured execution times directly with the Table 1 kernels and
//! extrapolate. This works when the scalability trend is already visible in
//! the measurements, but misses collapses that have not yet materialised
//! (Figure 1: kmeans). The evaluation compares ESTIMA against this baseline
//! throughout (Figures 7 and 8), so it is a first-class citizen here.

use serde::{Deserialize, Serialize};

use crate::config::TargetSpec;
use crate::error::Result;
use crate::fit::{approximate_series, FitContext, FitOptions};
use crate::kernels::FittedCurve;
use crate::measurement::MeasurementSet;
use crate::stats::{max_relative_error, relative_error};

/// Result of a direct time extrapolation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimePrediction {
    /// Application name.
    pub app_name: String,
    /// Largest measured core count.
    pub measured_cores: u32,
    /// Target core count.
    pub target_cores: u32,
    /// The fitted execution-time curve.
    pub curve: FittedCurve,
    /// Predicted execution time for every core count `1..=target`.
    pub predicted_time: Vec<(u32, f64)>,
    /// Measured execution time (after frequency scaling).
    pub measured_time: Vec<(u32, f64)>,
}

impl TimePrediction {
    /// Predicted execution time at a given core count.
    pub fn predicted_time_at(&self, cores: u32) -> Option<f64> {
        self.predicted_time
            .iter()
            .find(|(c, _)| *c == cores)
            .map(|(_, t)| *t)
    }

    /// Core count of minimal predicted execution time.
    pub fn predicted_scaling_limit(&self) -> u32 {
        self.predicted_time
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(c, _)| *c)
            .unwrap_or(1)
    }

    /// Relative errors against actual measurements.
    pub fn errors_against(&self, actual: &[(u32, f64)]) -> Vec<(u32, f64)> {
        actual
            .iter()
            .filter_map(|(c, t)| {
                self.predicted_time_at(*c)
                    .map(|p| (*c, relative_error(p, *t)))
            })
            .collect()
    }

    /// Maximum relative error against actual measurements beyond the measured
    /// range.
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

/// The time-extrapolation baseline predictor.
#[derive(Debug, Clone, Default)]
pub struct TimeExtrapolation {
    fit: FitOptions,
}

impl TimeExtrapolation {
    /// Baseline with default fitting options (same kernels as ESTIMA).
    pub fn new() -> Self {
        Self::default()
    }

    /// Baseline with custom fitting options.
    pub fn with_options(fit: FitOptions) -> Self {
        TimeExtrapolation { fit }
    }

    /// Extrapolate execution time directly to the target core count.
    pub fn predict(
        &self,
        measurements: &MeasurementSet,
        target: &TargetSpec,
    ) -> Result<TimePrediction> {
        // The baseline only needs execution times, so beyond the target's
        // own checks it just needs enough points to fit.
        target.validate()?;
        let freq_ratio = target
            .frequency_ghz
            .map_or(1.0, |ghz| measurements.frequency_ghz / ghz);
        let measured_time: Vec<(u32, f64)> = measurements
            .exec_times()
            .into_iter()
            .map(|(c, t)| (c, t * freq_ratio))
            .collect();
        let xs: Vec<f64> = measured_time.iter().map(|(c, _)| *c as f64).collect();
        let ys: Vec<f64> = measured_time.iter().map(|(_, t)| *t).collect();
        let fit_options = FitOptions {
            realism_horizon: target.cores,
            ..self.fit.clone()
        };
        let curve = approximate_series(
            &xs,
            &ys,
            "execution_time",
            &fit_options,
            &FitContext::default(),
        )?;
        let predicted_time: Vec<(u32, f64)> = (1..=target.cores)
            .map(|c| (c, curve.eval(c as f64).max(0.0) * target.dataset_scale))
            .collect();
        Ok(TimePrediction {
            app_name: measurements.app_name.clone(),
            measured_cores: measurements.max_cores(),
            target_cores: target.cores,
            curve,
            predicted_time,
            measured_time,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MAX_TARGET_CORES;
    use crate::error::EstimaError;
    use crate::measurement::{Measurement, StallCategory};

    /// A workload whose time keeps improving within the measured range but
    /// collapses afterwards — the kmeans scenario of Figure 1.
    fn hidden_collapse_set() -> (MeasurementSet, Vec<(u32, f64)>) {
        let mut set = MeasurementSet::new("kmeans-like", 2.1);
        let mut truth = Vec::new();
        for cores in 1..=48u32 {
            let n = cores as f64;
            // Collapse term only becomes significant past ~16 cores.
            let time = 20.0 / n + 0.4 + 0.00008 * n * n * n;
            truth.push((cores, time));
            if cores <= 12 {
                set.push(
                    Measurement::new(cores, time)
                        .with_stall(StallCategory::backend("rob_full"), 1.0e8 * n),
                );
            }
        }
        (set, truth)
    }

    #[test]
    fn baseline_predicts_well_when_trend_is_visible() {
        // Simple Amdahl curve: time extrapolation should do fine.
        let mut set = MeasurementSet::new("scalable", 2.1);
        let mut truth = Vec::new();
        for cores in 1..=48u32 {
            let n = cores as f64;
            let time = 30.0 / n + 1.0;
            truth.push((cores, time));
            if cores <= 12 {
                set.push(
                    Measurement::new(cores, time)
                        .with_stall(StallCategory::backend("rob_full"), 1.0e8),
                );
            }
        }
        let p = TimeExtrapolation::new()
            .predict(&set, &TargetSpec::cores(48))
            .unwrap();
        let err = p.max_error_against(&truth).unwrap();
        assert!(
            err < 0.15,
            "baseline error {err} too high on a visible trend"
        );
    }

    #[test]
    fn baseline_misses_hidden_collapse() {
        // The headline motivation of the paper: when the collapse is not in
        // the measurements, fitting time directly predicts continued scaling.
        let (set, truth) = hidden_collapse_set();
        let p = TimeExtrapolation::new()
            .predict(&set, &TargetSpec::cores(48))
            .unwrap();
        let actual_best: u32 = truth
            .iter()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap()
            .0;
        // The real optimum is well below 48 cores...
        assert!(actual_best < 30);
        // ...but the baseline keeps predicting improvement close to the top
        // of the range (or at least far beyond the real optimum).
        let predicted_best = p.predicted_scaling_limit();
        assert!(
            predicted_best > actual_best,
            "baseline unexpectedly detected the collapse: predicted limit {predicted_best}, actual {actual_best}"
        );
    }

    #[test]
    fn frequency_ratio_scales_measured_times() {
        let (set, _) = hidden_collapse_set();
        let p = TimeExtrapolation::new()
            .predict(&set, &TargetSpec::cores(48).with_frequency_ghz(4.2))
            .unwrap();
        let unscaled = set.exec_times()[0].1;
        assert!((p.measured_time[0].1 - unscaled * 2.1 / 4.2).abs() < 1e-12);
    }

    #[test]
    fn rejects_invalid_targets_like_the_full_pipeline() {
        // The baseline refuses what the full pipeline refuses, with the same
        // texts, instead of predicting at the measurement clock or in NaN.
        let (set, _) = hidden_collapse_set();
        let baseline = TimeExtrapolation::new();
        let refusal = |target: TargetSpec| match baseline.predict(&set, &target) {
            Err(EstimaError::InvalidConfig(message)) => message,
            other => panic!("{target:?} gave {other:?}"),
        };
        for bad in [-2.0, 0.0, f64::NAN] {
            let scaled = TargetSpec::cores(48).with_dataset_scale(bad);
            assert_eq!(refusal(scaled), "dataset_scale must be positive");
            let clocked = TargetSpec::cores(48).with_frequency_ghz(bad);
            assert_eq!(refusal(clocked), "frequency_ghz must be positive");
        }
        let scaled = TargetSpec::cores(48).with_dataset_scale(f64::INFINITY);
        assert_eq!(refusal(scaled), "dataset_scale must be finite");
        let clocked = TargetSpec::cores(48).with_frequency_ghz(f64::INFINITY);
        assert_eq!(refusal(clocked), "frequency_ghz must be finite");
        assert_eq!(
            refusal(TargetSpec::cores(MAX_TARGET_CORES + 1)),
            format!("target cores must be at most {MAX_TARGET_CORES}")
        );
    }

    #[test]
    fn helpers_behave() {
        let (set, truth) = hidden_collapse_set();
        let p = TimeExtrapolation::new()
            .predict(&set, &TargetSpec::cores(48))
            .unwrap();
        assert_eq!(p.predicted_time.len(), 48);
        assert!(p.predicted_time_at(48).is_some());
        assert!(p.predicted_time_at(100).is_none());
        assert_eq!(p.errors_against(&truth).len(), truth.len());
    }
}
