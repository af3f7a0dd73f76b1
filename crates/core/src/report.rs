//! Text rendering of predictions and evaluation tables.
//!
//! The evaluation harness (`estima-bench`) prints the same rows the paper's
//! tables report; these helpers keep the formatting consistent across the
//! `reproduce` binary, examples, and tests.

use crate::predictor::Prediction;
use crate::time_extrapolation::TimePrediction;

/// Render a prediction as a readable multi-line summary: predicted time per
/// core count (subsampled), the selected scaling-factor kernel and the
/// per-category kernels.
pub fn render_prediction(prediction: &Prediction) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "ESTIMA prediction for `{}` ({} measured cores -> {} target cores)\n",
        prediction.app_name, prediction.measured_cores, prediction.target_cores
    ));
    out.push_str(&format!(
        "scaling-factor kernel: {} (correlation {:.3})\n",
        prediction.scaling_factor.kernel, prediction.factor_correlation
    ));
    out.push_str("per-category kernels:\n");
    for cat in &prediction.categories {
        out.push_str(&format!(
            "  {:<40} {:<8} (checkpoint RMSE {:.3e})\n",
            cat.category.to_string(),
            cat.curve.kernel.to_string(),
            cat.curve.checkpoint_rmse
        ));
    }
    out.push_str("predicted execution time:\n");
    out.push_str(&format!(
        "{:>8} {:>14} {:>12}\n",
        "cores", "time (s)", "speedup"
    ));
    for (cores, time) in sample_points(&prediction.predicted_time) {
        let speedup = prediction.predicted_speedup(cores).unwrap_or(0.0);
        out.push_str(&format!("{cores:>8} {time:>14.4} {speedup:>11.2}x\n"));
    }
    out.push_str(&format!(
        "predicted scaling limit: {} cores\n",
        prediction.predicted_scaling_limit()
    ));
    out
}

/// Render a side-by-side comparison of ESTIMA and the time-extrapolation
/// baseline against actual measurements, as a markdown table.
pub fn render_comparison(
    estima: &Prediction,
    baseline: &TimePrediction,
    actual: &[(u32, f64)],
) -> String {
    let mut out = String::new();
    out.push_str(
        "| cores | actual (s) | estima (s) | estima err | time-extr (s) | time-extr err |\n",
    );
    out.push_str("|---|---|---|---|---|---|\n");
    for (cores, time) in actual {
        let e = estima.predicted_time_at(*cores);
        let b = baseline.predicted_time_at(*cores);
        let fmt = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:.4}"));
        let err = |v: Option<f64>| {
            v.map_or("-".to_string(), |x| {
                format!("{:.1}%", 100.0 * (x - time).abs() / time.max(1e-12))
            })
        };
        out.push_str(&format!(
            "| {} | {:.4} | {} | {} | {} | {} |\n",
            cores,
            time,
            fmt(e),
            err(e),
            fmt(b),
            err(b)
        ));
    }
    out
}

/// Subsample a long `(cores, value)` series for display: always includes the
/// first and last points and roughly a dozen in between.
fn sample_points(series: &[(u32, f64)]) -> Vec<(u32, f64)> {
    if series.len() <= 14 {
        return series.to_vec();
    }
    let step = (series.len() / 12).max(1);
    let mut out: Vec<(u32, f64)> = series.iter().copied().step_by(step).collect();
    if out.last().map(|(c, _)| *c) != series.last().map(|(c, _)| *c) {
        out.push(*series.last().unwrap());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{EstimaConfig, TargetSpec};
    use crate::measurement::{Measurement, MeasurementSet, StallCategory};
    use crate::predictor::Estima;
    use crate::time_extrapolation::TimeExtrapolation;

    fn demo_set() -> MeasurementSet {
        let mut set = MeasurementSet::new("demo", 2.1);
        for cores in 1..=12u32 {
            let n = cores as f64;
            set.push(
                Measurement::new(cores, 10.0 / n + 0.5)
                    .with_stall(StallCategory::backend("rob_full"), 1.0e8 * n)
                    .with_stall(StallCategory::backend("ls_full"), 2.0e7 * n * n),
            );
        }
        set
    }

    #[test]
    fn prediction_report_contains_key_sections() {
        let set = demo_set();
        let p = Estima::new(EstimaConfig::default())
            .predict(&set, &TargetSpec::cores(48))
            .unwrap();
        let text = render_prediction(&p);
        assert!(text.contains("demo"));
        assert!(text.contains("scaling-factor kernel"));
        assert!(text.contains("rob_full"));
        assert!(text.contains("predicted scaling limit"));
    }

    #[test]
    fn comparison_table_has_row_per_actual_point() {
        let set = demo_set();
        let target = TargetSpec::cores(48);
        let p = Estima::new(EstimaConfig::default())
            .predict(&set, &target)
            .unwrap();
        let b = TimeExtrapolation::new().predict(&set, &target).unwrap();
        let actual = vec![(12, 1.3), (24, 0.9), (48, 0.8)];
        let table = render_comparison(&p, &b, &actual);
        assert_eq!(table.lines().count(), 2 + actual.len());
        assert!(table.contains("| 48 |"));
    }

    #[test]
    fn sample_points_keeps_endpoints() {
        let series: Vec<(u32, f64)> = (1..=48).map(|c| (c, c as f64)).collect();
        let sampled = sample_points(&series);
        assert!(sampled.len() < series.len());
        assert_eq!(sampled.first().unwrap().0, 1);
        assert_eq!(sampled.last().unwrap().0, 48);
    }
}
