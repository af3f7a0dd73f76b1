//! The ESTIMA predictor: from stall measurements to execution-time predictions.
//!
//! This module implements the three-step pipeline of Figure 3:
//!
//! * **A — collection** is the caller's job (see `estima-counters` and
//!   `estima-workloads`); the input here is a [`MeasurementSet`].
//! * **B — extrapolation**: every stall category is extrapolated individually
//!   by the model-selection rule of [`crate::fit::approximate_series`]
//!   (lowest checkpoint RMSE, the [`Fits::best`] winner its candidate list
//!   found when it was built), then combined into total stalled cycles per
//!   core. The extrapolation reads the winning candidate's eval table, which
//!   the grid tabulated over `1..=target` while checking the curve's realism.
//! * **C — time translation**: the scaling factor connecting stalled cycles
//!   per core to execution time is computed at the measured core counts,
//!   extrapolated with the same kernels, and the kernel whose resulting time
//!   predictions correlate best with stalled cycles per core is selected.
//!   Candidates that share one eval table (the checkpoint spans of one
//!   kernel and prefix) share its number in the list, so their plausibility
//!   and correlation are decided once per table. A factor list remembers
//!   its first choice with the inputs it was made for ([`Fits`]), so a
//!   cached list asked again with the same inputs chooses nothing.
//!
//! A prediction validates the measurement set and reads it once, into rows:
//! one column per stall category and the scaling factor's series. It
//! evaluates both steps up to their winners before it builds anything.
//! [`Estima::predict_in`] then builds the full [`Prediction`]; a reader that
//! needs only the predicted time at the target core count, θ, reads it from
//! the evaluation with the same bits. A [`Planner`](crate::plan::Planner)
//! evaluates rows derived from one read — each jackknife leave-out is the
//! read minus a row, each hypothetical set the read plus one — in buffers
//! its workers reuse, so a warm leave-out allocates nothing.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::config::{EstimaConfig, TargetSpec, MIN_MEASUREMENTS};
use crate::engine::Engine;
use crate::error::{EstimaError, Result};
use crate::fit::{ColumnFits, FactorChoice, FitCandidate, FitContext, FitOptions, Fits};
use crate::kernels::FittedCurve;
use crate::measurement::{Measurement, MeasurementSet, StallCategory, StallSource};
use crate::stats::{max_relative_error, relative_error};

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
        self.read(measurements, target)?.predict(ctx)
    }

    /// Validate `measurements` for `target` and read them into [`Rows`]:
    /// every check a prediction makes before it fits anything, in the order
    /// the pipeline meets them.
    pub(crate) fn read<'s>(
        &self,
        measurements: &'s MeasurementSet,
        target: &'s TargetSpec,
    ) -> Result<SetRead<'s>> {
        measurements.validate(MIN_MEASUREMENTS)?;
        let measured_cores = measurements.max_cores();
        if target.cores < measured_cores {
            return Err(EstimaError::TargetSmallerThanMeasurements {
                target: target.cores,
                measured: measured_cores,
            });
        }
        target.validate()?;

        // Measured execution time, scaled by the frequency ratio when the
        // target machine runs at a different clock (§4.3).
        let freq_ratio = target
            .frequency_ghz
            .map_or(1.0, |target_ghz| measurements.frequency_ghz / target_ghz);
        let sources = self.config.sources();
        let rows = Rows::read(measurements, &sources, freq_ratio);
        Ok(SetRead {
            set: measurements,
            target,
            freq_ratio,
            sources,
            // The realism horizon stretched to the target.
            fit_options: FitOptions {
                realism_horizon: target.cores,
                ..self.config.fit.clone()
            },
            rows,
        })
    }
}

/// A measurement set validated for one target and read into [`Rows`], once.
/// A prediction evaluates these rows and builds the [`Prediction`]; a
/// [`Planner`](crate::plan::Planner) also evaluates rows derived from them —
/// each jackknife leave-out's and each hypothetical set's — for θ alone.
pub(crate) struct SetRead<'s> {
    set: &'s MeasurementSet,
    target: &'s TargetSpec,
    freq_ratio: f64,
    sources: Vec<StallSource>,
    fit_options: FitOptions,
    rows: Rows<'s>,
}

impl<'s> SetRead<'s> {
    /// The target the set was read for.
    pub(crate) fn target(&self) -> &TargetSpec {
        self.target
    }

    /// The set's rows.
    pub(crate) fn rows(&self) -> &Rows<'s> {
        &self.rows
    }

    /// The rows of the set with `point` pushed: these rows plus the point's,
    /// read by the same per-point routine. The point must be at a core count
    /// the set has not measured, and pass [`MeasurementSet::validate`]'s
    /// per-point checks.
    pub(crate) fn with_point<'a>(&'a self, point: &'a Measurement) -> Rows<'a> {
        let mut rows = self.rows.clone();
        rows.insert(point, &self.sources, self.freq_ratio);
        rows
    }

    /// The full prediction of the set.
    pub(crate) fn predict(&self, ctx: &FitContext<'_>) -> Result<Prediction> {
        let mut evaluation = Evaluation::default();
        self.evaluate(&self.rows, ctx, &mut evaluation)?;
        Ok(self.prediction(&evaluation))
    }

    /// The predicted time at the target core count, θ, of the set `rows`
    /// hold: stalls per core at the target times the scaling factor's table
    /// there, the bits [`Estima::predict_in`] of that set would hold at the
    /// target. It succeeds exactly when that prediction does, and builds no
    /// [`Prediction`]; `evaluation`'s buffers are reused.
    pub(crate) fn theta(
        &self,
        rows: &Rows<'_>,
        ctx: &FitContext<'_>,
        evaluation: &mut Evaluation,
    ) -> Result<f64> {
        self.evaluate(rows, ctx, evaluation)?;
        let at = self.target.cores as usize - 1;
        Ok(evaluation.stalls_per_core[at] * evaluation.factor().evals.values()[at])
    }

    /// Steps B and C up to their winners, on `rows`: each non-zero
    /// category's fits and winner, stalls per core over `1..=target`, and
    /// the scaling-factor fits with step C's choice. Every error is raised
    /// in the order the pipeline meets it.
    fn evaluate(&self, rows: &Rows<'_>, ctx: &FitContext<'_>, out: &mut Evaluation) -> Result<()> {
        let target = self.target;
        // The checks of the set and target that the rows of a subset of a
        // valid set can fail; the rows read from the set passed them all.
        if rows.len() < MIN_MEASUREMENTS {
            return Err(EstimaError::InsufficientMeasurements {
                required: MIN_MEASUREMENTS,
                available: rows.len(),
            });
        }
        if !rows.usable.contains(&true) {
            return Err(EstimaError::NoStallCategories);
        }
        let measured_cores = rows.measured_cores();
        if target.cores < measured_cores {
            return Err(EstimaError::TargetSmallerThanMeasurements {
                target: target.cores,
                measured: measured_cores,
            });
        }

        // Every series the rows fit shares their core counts: one key base
        // for all of them.
        let columns = ColumnFits::new(&rows.xs, &self.fit_options, ctx);

        // Step B: extrapolate every category individually, all categories
        // concurrently. Categories that are identically zero carry no
        // information and a constant-zero extrapolation is exact, so they are
        // not fitted; a category a set lacks is such a column of zeros.
        out.fitted.clear();
        out.categories.clear();
        let nonzero = (0..rows.categories.len())
            .filter(|&index| rows.categories[index].values.iter().any(|v| *v != 0.0));
        ctx.engine
            .extend_ordered(nonzero, &mut out.fitted, |index| {
                let column = &rows.categories[index];
                let fits = columns.fits(&column.values)?;
                let best = fits.best().ok_or_else(|| EstimaError::NoViableFit {
                    category: column.category.name.clone(),
                })?;
                // The winner's eval table holds `curve.eval(c)` for every
                // `c in 1..=target`: the horizon was stretched to the target.
                assert_eq!(
                    best.evals.values().len(),
                    target.cores as usize,
                    "a category's eval table must cover 1..=target"
                );
                Ok((index, fits))
            });
        for fitted in out.fitted.drain(..) {
            out.categories.push(fitted?);
        }
        if out.categories.is_empty() {
            return Err(EstimaError::NoStallCategories);
        }

        // Total stalled cycles per core over the full range: each category's
        // extrapolated total (clamped at zero, scaled to the dataset),
        // summed in category order from -0.0 as `Sum for f64` does, a
        // category's table at a time, then divided by the core count.
        let cores = target.cores as usize;
        let spc = &mut out.stalls_per_core;
        spc.clear();
        spc.resize(cores, -0.0);
        for (_, fits) in &out.categories {
            for (total, value) in spc.iter_mut().zip(&winner(fits).evals.values()[..cores]) {
                *total += value.max(0.0) * target.dataset_scale;
            }
        }
        for (c, total) in (1..=cores).zip(spc.iter_mut()) {
            *total /= c as f64;
        }

        // Step C: candidate factor curves, selected by the correlation of
        // the time predictions they produce with stalls per core (§3.1.3).
        // A cached list remembers its first choice, so a repeat compares its
        // inputs instead of choosing again.
        let factor = columns.fits(&rows.factor_ys)?;
        let stalls_per_core = &out.stalls_per_core;
        let choice = factor
            .factor_choice(stalls_per_core, measured_cores, &rows.factor_ys, || {
                select_scaling_factor(&factor, stalls_per_core, measured_cores, &rows.factor_ys)
            })
            .ok_or_else(|| EstimaError::NoViableFit {
                category: "scaling_factor".into(),
            })?;
        out.factor = Some((factor, choice));
        Ok(())
    }

    /// Build the full prediction from the evaluation of the set's own rows:
    /// each category's winning curve and extrapolated series, and the
    /// predicted time at every core count as stalls per core times the
    /// scaling factor's table.
    fn prediction(&self, evaluation: &Evaluation) -> Prediction {
        let target = self.target;
        let points = self.set.measurements();
        let categories = evaluation
            .categories
            .iter()
            .map(|(index, fits)| {
                let column = &self.rows.categories[*index];
                let winner = winner(fits);
                CategoryExtrapolation {
                    category: column.category.clone(),
                    curve: winner.curve.clone(),
                    measured: points
                        .iter()
                        .map(|point| point.cores)
                        .zip(column.values.iter().copied())
                        .collect(),
                    extrapolated: (1..=target.cores)
                        .zip(winner.evals.values())
                        .map(|(c, value)| (c, value.max(0.0) * target.dataset_scale))
                        .collect(),
                }
            })
            .collect();
        let factor = evaluation.factor();
        let stalls_per_core = &evaluation.stalls_per_core;
        Prediction {
            app_name: self.set.app_name.clone(),
            measured_cores: self.set.max_cores(),
            target_cores: target.cores,
            categories,
            stalls_per_core: (1..=target.cores)
                .zip(stalls_per_core.iter().copied())
                .collect(),
            scaling_factor: factor.curve.clone(),
            factor_correlation: evaluation.choice().correlation,
            predicted_time: (1..=target.cores)
                .zip(stalls_per_core.iter().zip(factor.evals.values()))
                .map(|(c, (spc, factor))| (c, spc * factor))
                .collect(),
            measured_time: points
                .iter()
                .map(|point| (point.cores, point.exec_time * self.freq_ratio))
                .collect(),
            confidence: None,
        }
    }
}

/// A measurement set's points as the pipeline reads them: one row per
/// point, in ascending core order, with one column per stall category of
/// the configured sources.
#[derive(Clone)]
pub(crate) struct Rows<'s> {
    /// The measured core counts: the `xs` of every series the pipeline
    /// fits.
    xs: Vec<f64>,
    /// One column per stall category, in category order.
    categories: Vec<Column<'s>>,
    /// The scaling factor's measured series (step C): each point's measured
    /// time, frequency-scaled, over its measured stalls per core (from the
    /// raw measurements, not the fits, so the factor reflects what was
    /// actually observed), or `0.0` where no stall was measured.
    factor_ys: Vec<f64>,
    /// Whether each point has a backend or software stall, of which
    /// [`MeasurementSet::validate`] requires one in the set.
    usable: Vec<bool>,
}

/// One stall category's measured totals, row by row: `0.0` where a point
/// lacks the category (a runtime that reported nothing for a run spent no
/// cycles in that category).
#[derive(Clone)]
struct Column<'s> {
    category: &'s StallCategory,
    values: Vec<f64>,
}

impl<'s> Rows<'s> {
    /// Read every point of `set` once, each by [`Rows::insert`]. The columns
    /// are [`MeasurementSet::category_series`]'s values and the factor series
    /// is the one [`MeasurementSet::exec_times`] and
    /// [`MeasurementSet::stalls_per_core`] give, bit for bit.
    fn read(set: &'s MeasurementSet, sources: &[StallSource], freq_ratio: f64) -> Self {
        let points = set.len();
        let mut rows = Rows {
            xs: Vec::with_capacity(points),
            categories: Vec::new(),
            factor_ys: Vec::with_capacity(points),
            usable: Vec::with_capacity(points),
        };
        for point in set.measurements() {
            rows.insert(point, sources, freq_ratio);
        }
        rows
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.xs.len()
    }

    /// The largest core count, or 0 without rows.
    fn measured_cores(&self) -> u32 {
        self.xs.last().map_or(0, |x| *x as u32)
    }

    /// Read `point` into a new row at its core count: its stalls of
    /// `sources` into their columns (a new category gets a column of
    /// zeros), and its frequency-scaled time over its stalls per core into
    /// the factor series.
    fn insert(&mut self, point: &'s Measurement, sources: &[StallSource], freq_ratio: f64) {
        let x = f64::from(point.cores);
        let at = self.xs.partition_point(|known| *known < x);
        debug_assert_ne!(
            self.xs.get(at),
            Some(&x),
            "{} cores measured twice",
            point.cores
        );
        self.xs.insert(at, x);
        for column in &mut self.categories {
            column.values.insert(at, 0.0);
        }
        // A point's stalls come in category order, like the columns, and
        // points almost always list the same categories: the next column is
        // the first place to look.
        let mut next = 0;
        // `Sum for f64` folds from -0.0, as `Measurement::total_stalls`
        // does.
        let mut total = -0.0;
        let mut usable = false;
        for (category, value) in &point.stalls {
            usable |= matches!(
                category.source,
                StallSource::HardwareBackend | StallSource::Software
            );
            if !sources.contains(&category.source) {
                continue;
            }
            let index = match self.categories.get(next) {
                Some(column) if column.category == category => next,
                _ => {
                    let rest = &self.categories[next..];
                    match rest.binary_search_by(|column| column.category.cmp(category)) {
                        Ok(offset) => next + offset,
                        Err(offset) => {
                            let mut values = Vec::with_capacity(self.xs.capacity());
                            values.resize(self.xs.len(), 0.0);
                            self.categories
                                .insert(next + offset, Column { category, values });
                            next + offset
                        }
                    }
                }
            };
            self.categories[index].values[at] = *value;
            next = index + 1;
            total += value;
        }
        let stalls_per_core = total / point.cores.max(1) as f64;
        let time = point.exec_time * freq_ratio;
        self.factor_ys.insert(
            at,
            if stalls_per_core > 0.0 {
                time / stalls_per_core
            } else {
                0.0
            },
        );
        self.usable.insert(at, usable);
    }

    /// Make these rows `from`'s without row `row`, in place: these rows must
    /// have `from`'s columns (a clone of `from` does), and then nothing
    /// allocates.
    pub(crate) fn copy_without(&mut self, from: &Rows<'s>, row: usize) {
        fn copy<T: Copy>(to: &mut Vec<T>, from: &[T], row: usize) {
            to.clear();
            to.extend_from_slice(&from[..row]);
            to.extend_from_slice(&from[row + 1..]);
        }
        debug_assert_eq!(self.categories.len(), from.categories.len());
        copy(&mut self.xs, &from.xs, row);
        for (to, from) in self.categories.iter_mut().zip(&from.categories) {
            copy(&mut to.values, &from.values, row);
        }
        copy(&mut self.factor_ys, &from.factor_ys, row);
        copy(&mut self.usable, &from.usable, row);
    }
}

/// A category's step-B winner; evaluation keeps only categories with one.
fn winner(fits: &Fits) -> &FitCandidate {
    fits.best()
        .expect("evaluation keeps only categories with a winner")
}

/// What evaluating rows computes: everything a prediction reads, with
/// nothing materialised beyond the series step C correlates. The buffers
/// are reused from one evaluation to the next, so a warm evaluation (every
/// list a cache hit, step C remembered) allocates nothing.
#[derive(Default)]
pub(crate) struct Evaluation {
    /// The category fan-out's results, in category order.
    fitted: Vec<Result<(usize, Arc<Fits>)>>,
    /// The non-zero categories: each one's column and fits, in category
    /// order.
    categories: Vec<(usize, Arc<Fits>)>,
    /// Total stalled cycles per core at every core count `1..=target`.
    stalls_per_core: Vec<f64>,
    /// The scaling-factor candidates and step C's pick among them.
    factor: Option<(Arc<Fits>, FactorChoice)>,
}

impl Evaluation {
    /// Step C's pick.
    fn choice(&self) -> FactorChoice {
        self.factor.as_ref().expect("an evaluated scaling factor").1
    }

    /// The chosen scaling-factor candidate.
    fn factor(&self) -> &FitCandidate {
        let (fits, choice) = self.factor.as_ref().expect("an evaluated scaling factor");
        &fits[choice.index]
    }
}

/// Distinct eval tables whose correlations one sweep over the series
/// computes together.
const SWEEP: usize = crate::kernels::LANES;

/// Select the scaling factor (§3.1.3): among the candidates whose
/// extrapolated tail keeps the measured trend of the factor (a factor that
/// was falling must not climb past 1.5× its last measured value, a rising
/// one must not drop below half of it), the one whose predicted times
/// `spc × factor` correlate best with stalls per core. A candidate with a
/// negative or non-finite predicted time drops out. Correlations within
/// `1e-9` of the best so far are a tie, won by the lower checkpoint RMSE;
/// otherwise the first candidate wins.
///
/// Every correlation is
/// [`pearson_correlation`](crate::stats::pearson_correlation)`(times,
/// stalls_per_core)` to the bit: the stalls-per-core mean, deviations and
/// variance are computed once, and each table's sums keep their order.
/// Plausibility and correlation depend only on the eval table and its tail
/// fold, which every candidate numbered with one table shares
/// ([`CandidateEvals::table`](crate::fit::CandidateEvals::table)): both are
/// decided once per table, through one entry per [`Fits::tables`] number,
/// and each plausible table is correlated once, [`SWEEP`] tables per pass
/// over the series (see [`StallSide`]). The selection then walks every
/// plausible candidate in order, reading its table's correlation, so a
/// later duplicate with a lower checkpoint RMSE still wins a tie.
///
/// Each candidate's trial times read its eval table. That is exact here:
/// predict stretches the realism horizon to the target, so the grid
/// tabulated every candidate over `1..=target`, and the factor series
/// spans the measured core counts, so every table's tail starts at
/// `measured_cores + 1`. Both are asserted for every candidate.
fn select_scaling_factor(
    candidates: &Fits,
    stalls_per_core: &[f64],
    measured_cores: u32,
    factor_ys: &[f64],
) -> Option<FactorChoice> {
    let target = stalls_per_core.len();
    let factor_at_max_measured = *factor_ys.last().unwrap_or(&0.0);
    let factor_trend_decreasing =
        factor_ys.first().copied().unwrap_or(0.0) >= factor_at_max_measured;
    let check_trend = factor_at_max_measured > 0.0 && (measured_cores as usize) < target;

    // Per table number: `None` until its first candidate, then `Some` of the
    // table's sweep column, or `Some(None)` when its tail breaks the trend.
    let mut columns: Vec<Option<Option<usize>>> = vec![None; candidates.tables()];
    // The plausible tables in order of first use, and every plausible
    // candidate with its table's column.
    let mut distinct: Vec<&[f64]> = Vec::new();
    let mut plausible: Vec<(usize, usize)> = Vec::with_capacity(candidates.len());
    for (index, candidate) in candidates.iter().enumerate() {
        let evals = &candidate.evals;
        assert!(
            evals.horizon() as usize == target && evals.tail_start() == measured_cores + 1,
            "scaling-factor candidate tabulated over 1..={} with its tail from {}, \
             expected 1..={target} from {}",
            evals.horizon(),
            evals.tail_start(),
            measured_cores + 1
        );
        let column = *columns[evals.table() as usize].get_or_insert_with(|| {
            let implausible = check_trend
                && ((factor_trend_decreasing && evals.tail_max() > factor_at_max_measured * 1.5)
                    || (!factor_trend_decreasing
                        && evals.tail_min() < factor_at_max_measured * 0.5));
            (!implausible).then(|| {
                distinct.push(evals.values());
                distinct.len() - 1
            })
        });
        if let Some(column) = column {
            plausible.push((index, column));
        }
    }

    let stalls = StallSide::new(stalls_per_core);
    let mut correlations: Vec<Option<f64>> = Vec::with_capacity(distinct.len());
    for batch in distinct.chunks(SWEEP) {
        // A short batch repeats its last table; those lanes are ignored.
        let tables = std::array::from_fn(|lane| batch[lane.min(batch.len() - 1)]);
        correlations.extend_from_slice(&stalls.correlations(tables)[..batch.len()]);
    }

    let mut best: Option<(usize, f64)> = None;
    for (index, column) in plausible {
        let Some(corr) = correlations[column] else {
            continue;
        };
        let better = match best {
            None => true,
            Some((best_index, best_corr)) => {
                corr > best_corr + 1e-9
                    || ((corr - best_corr).abs() <= 1e-9
                        && candidates[index].curve.checkpoint_rmse
                            < candidates[best_index].curve.checkpoint_rmse)
            }
        };
        if better {
            best = Some((index, corr));
        }
    }
    let (index, correlation) = best?;
    Some(FactorChoice { index, correlation })
}

/// The stalls-per-core side of
/// [`pearson_correlation`](crate::stats::pearson_correlation), shared by
/// every candidate, and the sweep that correlates [`SWEEP`] eval tables
/// against it per pass over the series.
///
/// The sweep slices every table to the series length before its loops, so
/// the inner loops index in bounds by construction and carry no bounds
/// checks, and it folds each trial time's validity as two comparisons and
/// no branch: `(0.0..=f64::MAX).contains(&t)` equals
/// `t.is_finite() && t >= 0.0` for every `f64`, −0.0 and NaN included.
struct StallSide<'a> {
    values: &'a [f64],
    deviations: Vec<f64>,
    /// Sum of squared deviations.
    variance: f64,
}

impl<'a> StallSide<'a> {
    fn new(values: &'a [f64]) -> Self {
        let mean = crate::stats::mean(values);
        let deviations: Vec<f64> = values.iter().map(|y| y - mean).collect();
        let mut variance = 0.0;
        for dy in &deviations {
            variance += dy * dy;
        }
        StallSide {
            values,
            deviations,
            variance,
        }
    }

    /// `pearson_correlation(times, stalls)` for each table's trial times
    /// `times[i] = stalls[i] × table[i]`, or `None` where a trial time is
    /// negative or not finite.
    fn correlations(&self, tables: [&[f64]; SWEEP]) -> [Option<f64>; SWEEP] {
        let n = self.values.len();
        let values = self.values;
        let deviations = &self.deviations[..n];
        let tables = tables.map(|table| &table[..n]);
        // `Sum for f64` folds from -0.0.
        let mut sums = [-0.0f64; SWEEP];
        let mut valid = [true; SWEEP];
        for i in 0..n {
            let spc = values[i];
            for lane in 0..SWEEP {
                let time = spc * tables[lane][i];
                sums[lane] += time;
                valid[lane] &= (0.0..=f64::MAX).contains(&time);
            }
        }
        let means = sums.map(|sum| sum / n as f64);
        let mut cov = [0.0f64; SWEEP];
        let mut var = [0.0f64; SWEEP];
        for i in 0..n {
            let (spc, dy) = (values[i], deviations[i]);
            for lane in 0..SWEEP {
                let dx = spc * tables[lane][i] - means[lane];
                cov[lane] += dx * dy;
                var[lane] += dx * dx;
            }
        }
        std::array::from_fn(|lane| {
            valid[lane].then(|| {
                if n < 2 || var[lane] <= 0.0 || self.variance <= 0.0 {
                    0.0
                } else {
                    (cov[lane] / (var[lane].sqrt() * self.variance.sqrt())).clamp(-1.0, 1.0)
                }
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MAX_TARGET_CORES;
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

    /// `set` without its point at `index`.
    pub(super) fn without(set: &MeasurementSet, index: usize) -> MeasurementSet {
        let mut subset = MeasurementSet::new(set.app_name.clone(), set.frequency_ghz);
        for (at, point) in set.measurements().iter().enumerate() {
            if at != index {
                subset.push(point.clone());
            }
        }
        subset
    }

    /// θ of `set` at `target` in `ctx`, read afresh.
    fn theta(
        estima: &Estima,
        set: &MeasurementSet,
        target: &TargetSpec,
        ctx: &FitContext<'_>,
    ) -> Result<f64> {
        let read = estima.read(set, target)?;
        read.theta(read.rows(), ctx, &mut Evaluation::default())
    }

    /// A quickstart-shaped set: 12 points, two backend categories and one
    /// software category, with a per-core `wobble` on the time.
    pub(super) fn quickstart_shaped(wobble: f64) -> MeasurementSet {
        let mut set = MeasurementSet::new("quickstart", 2.1);
        for cores in 1..=12u32 {
            let n = f64::from(cores);
            let time = (50.0 / n + 1.0) * (1.0 + wobble * (f64::from((cores * 7) % 5) - 2.0));
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

    /// The `InvalidConfig` message `estima` refuses `target` with.
    fn invalid_config(estima: &Estima, set: &MeasurementSet, target: TargetSpec) -> String {
        match estima.predict(set, &target) {
            Err(EstimaError::InvalidConfig(message)) => message,
            other => panic!("{target:?} gave {other:?}"),
        }
    }

    #[test]
    fn rejects_invalid_dataset_scale() {
        let (set, _) = synthetic_set(48);
        let estima = Estima::new(EstimaConfig::default());
        for scale in [0.0, -1.0, f64::NAN] {
            let target = TargetSpec::cores(48).with_dataset_scale(scale);
            assert_eq!(
                invalid_config(&estima, &set, target),
                "dataset_scale must be positive"
            );
        }
        let target = TargetSpec::cores(48).with_dataset_scale(f64::INFINITY);
        assert_eq!(
            invalid_config(&estima, &set, target),
            "dataset_scale must be finite"
        );
    }

    #[test]
    fn rejects_a_non_positive_or_non_finite_target_clock() {
        // A clock the pipeline used to ignore, predicting at the
        // measurement machine's clock instead.
        let (set, _) = synthetic_set(48);
        let estima = Estima::new(EstimaConfig::default());
        for ghz in [-2.0, 0.0, -0.0, f64::NAN, f64::NEG_INFINITY] {
            let target = TargetSpec::cores(48).with_frequency_ghz(ghz);
            assert_eq!(
                invalid_config(&estima, &set, target),
                "frequency_ghz must be positive"
            );
        }
        let target = TargetSpec::cores(48).with_frequency_ghz(f64::INFINITY);
        assert_eq!(
            invalid_config(&estima, &set, target),
            "frequency_ghz must be finite"
        );
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
    fn step_b_extrapolates_with_the_bits_of_curve_eval() {
        let (set, _) = synthetic_set(48);
        let estima = Estima::new(EstimaConfig::default());
        for scale in [1.0, 1.7] {
            for cores in [12, 48, 4096] {
                let target = TargetSpec::cores(cores).with_dataset_scale(scale);
                let p = estima.predict(&set, &target).unwrap();
                assert_eq!(p.categories.len(), 2);
                for e in &p.categories {
                    assert_eq!(e.extrapolated.len(), cores as usize);
                    for (expected_cores, &(c, value)) in (1..=cores).zip(&e.extrapolated) {
                        assert_eq!(c, expected_cores);
                        let expected = e.curve.eval(c as f64).max(0.0) * scale;
                        assert_eq!(
                            value.to_bits(),
                            expected.to_bits(),
                            "{} at {c} of {cores} cores, scale {scale}",
                            e.category
                        );
                    }
                }
            }
        }
    }

    /// θ against the full prediction, on quickstart-shaped sets and every
    /// leave-one-out subset of them, at a target beyond the measurements,
    /// one equal to the measured maximum, and one with another clock and a
    /// dataset scale, uncached and through one scoped cache.
    /// θ must fail exactly when `predict_in` does, and
    /// otherwise give the bits of `predicted_time_at(target)` and of the
    /// prediction's own parts there: the categories' extrapolated totals
    /// summed and divided by the cores, times the scaling-factor curve.
    #[test]
    fn theta_is_the_predicted_time_at_the_target() {
        use crate::engine::{CacheScope, FitCache};

        let estima = Estima::new(EstimaConfig::default().with_parallelism(1));
        let cache = FitCache::new();
        let contexts = [
            estima.fit_context(),
            FitContext {
                cache: Some(&cache),
                scope: Some(CacheScope {
                    series: "theta",
                    version: 1,
                }),
                ..estima.fit_context()
            },
        ];
        let targets = [
            TargetSpec::cores(48),
            TargetSpec::cores(12),
            TargetSpec::cores(48)
                .with_frequency_ghz(3.0)
                .with_dataset_scale(1.7),
        ];
        let mut compared = 0;
        for wobble in [0.0, 0.02, 0.05] {
            let full = quickstart_shaped(wobble);
            for leave_out in std::iter::once(None).chain((0..full.len()).map(Some)) {
                let set = leave_out.map_or_else(|| full.clone(), |index| without(&full, index));
                for target in &targets {
                    for ctx in &contexts {
                        let context = format!("wobble {wobble}, without {leave_out:?}, {target:?}");
                        let cores = target.cores;
                        match (
                            estima.predict_in(&set, target, ctx),
                            theta(&estima, &set, target, ctx),
                        ) {
                            (Ok(prediction), Ok(theta)) => {
                                let at = prediction.predicted_time_at(cores).unwrap();
                                assert_eq!(theta.to_bits(), at.to_bits(), "{context}");
                                let total: f64 = prediction
                                    .categories
                                    .iter()
                                    .filter_map(|e| e.at(cores))
                                    .sum();
                                let rebuilt = total / cores as f64
                                    * prediction.scaling_factor.eval(cores as f64);
                                assert_eq!(theta.to_bits(), rebuilt.to_bits(), "{context}");
                                compared += 1;
                            }
                            (Err(expected), Err(actual)) => {
                                assert_eq!(expected, actual, "{context}")
                            }
                            (expected, actual) => {
                                panic!("{context}: predict_in {expected:?}, θ {actual:?}")
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(compared, 3 * 13 * 3 * 2, "every case predicts");
    }

    /// A leave-out's rows are its subset's read, and a hypothetical point's
    /// rows the augmented set's read. On sets where a leave-out drops a
    /// category or the set's only usable category, where it falls below the
    /// minimum, and on hypothetical points beyond the measured core counts
    /// and in a gap, θ of the rows must succeed exactly when θ of the set
    /// they stand for does, with the same bits and the same error,
    /// uncached and through one cache.
    #[test]
    fn derived_rows_evaluate_like_the_sets_they_stand_for() {
        use crate::engine::FitCache;

        let quickstart = quickstart_shaped(0.02);
        // A software category measured at one core count only.
        let mut lone = quickstart.clone();
        let mut point = lone.at_cores(5).unwrap().clone();
        point
            .stalls
            .insert(StallCategory::software("barrier"), 3.0e9);
        lone.push(point);
        // Frontend stalls everywhere, and the only backend or software
        // stall at one core count: its leave-out is no valid set.
        let mut frontend = MeasurementSet::new("frontend", 2.1);
        for cores in 1..=8u32 {
            let n = f64::from(cores);
            let mut point = Measurement::new(cores, 10.0 / n + 1.0)
                .with_stall(StallCategory::frontend("icache"), 1.0e8 * n);
            if cores == 3 {
                point = point.with_stall(StallCategory::backend("rob_full"), 2.0e8);
            }
            frontend.push(point);
        }
        let frontend_config = EstimaConfig {
            use_frontend_stalls: true,
            ..EstimaConfig::default().with_parallelism(1)
        };
        // Leave-outs fall below the minimum.
        let minimal = quickstart.truncated(MIN_MEASUREMENTS as u32);
        let gappy = without(&quickstart, 5);
        let cases = [
            (EstimaConfig::default().with_parallelism(1), &quickstart),
            (EstimaConfig::default().with_parallelism(1), &gappy),
            (EstimaConfig::default().with_parallelism(1), &lone),
            (frontend_config, &frontend),
            (EstimaConfig::default().with_parallelism(1), &minimal),
        ];
        let targets = [
            TargetSpec::cores(48),
            TargetSpec::cores(12),
            TargetSpec::cores(48)
                .with_frequency_ghz(3.0)
                .with_dataset_scale(1.7),
        ];
        let hypothetical = |cores: u32, scale: f64| {
            Measurement::new(cores, 2.0 * scale)
                .with_stall(StallCategory::backend("rob_full"), 9.0e9 * scale)
                .with_stall(StallCategory::backend("ls_full"), 4.0e9 * scale)
                .with_stall(StallCategory::software("lock_spin"), 2.0e9 * scale)
        };
        let cache = FitCache::new();
        let (mut succeeded, mut failed) = (0, 0);
        for (config, set) in cases {
            let estima = Estima::new(config);
            let contexts = [
                estima.fit_context(),
                FitContext {
                    cache: Some(&cache),
                    ..estima.fit_context()
                },
            ];
            for target in &targets {
                let Ok(read) = estima.read(set, target) else {
                    continue;
                };
                let mut view = read.rows().clone();
                for ctx in &contexts {
                    let mut compare = |label: String, rows: &Rows<'_>, expected: Result<f64>| {
                        let actual = read.theta(rows, ctx, &mut Evaluation::default());
                        match (expected, actual) {
                            (Ok(expected), Ok(actual)) => {
                                assert_eq!(expected.to_bits(), actual.to_bits(), "{label}");
                                succeeded += 1;
                            }
                            (Err(expected), Err(actual)) => {
                                assert_eq!(expected, actual, "{label}");
                                failed += 1;
                            }
                            (expected, actual) => panic!("{label}: {expected:?}, rows {actual:?}"),
                        }
                    };
                    for row in 0..set.len() {
                        view.copy_without(read.rows(), row);
                        let subset = without(set, row);
                        let expected = theta(&estima, &subset, target, ctx);
                        compare(
                            format!("{} {target:?} without {row}", set.app_name),
                            &view,
                            expected,
                        );
                    }
                    // Beyond the measured core counts, and in a gap.
                    for cores in [13, 20, 6] {
                        if set.at_cores(cores).is_some() {
                            continue;
                        }
                        let point = hypothetical(cores, f64::from(cores));
                        let augmented = set.clone().with(point.clone());
                        let expected = theta(&estima, &augmented, target, ctx);
                        let rows = read.with_point(&point);
                        compare(
                            format!("{} {target:?} with {cores}", set.app_name),
                            &rows,
                            expected,
                        );
                    }
                }
            }
        }
        assert!(
            succeeded > 100 && failed > 10,
            "{succeeded} succeeded, {failed} failed"
        );
    }

    /// Step C's memo against a fresh choice, over real grids: the
    /// quickstart-shaped sets and every leave-out, uncached and through one
    /// shared cache. An evaluation remembers its choice in its factor list
    /// (or finds it remembered); asking the list again with the same inputs
    /// must not choose again and must return the bits of a fresh
    /// `select_scaling_factor`. The same list asked with stalls per core one
    /// ulp apart, at `dataset_scale` 1.7, or with another factor series must
    /// choose afresh, with a fresh choice's bits, and leave the memo as it
    /// was.
    #[test]
    fn a_remembered_factor_choice_is_a_fresh_one() {
        use crate::engine::{CacheScope, FitCache};

        let estima = Estima::new(EstimaConfig::default().with_parallelism(1));
        let cache = FitCache::new();
        let contexts = [
            estima.fit_context(),
            FitContext {
                cache: Some(&cache),
                scope: Some(CacheScope {
                    series: "memo",
                    version: 1,
                }),
                ..estima.fit_context()
            },
        ];
        let target = TargetSpec::cores(48);
        let scaled = TargetSpec::cores(48).with_dataset_scale(1.7);
        let bits = |choice: Option<FactorChoice>| {
            choice.map(|choice| (choice.index, choice.correlation.to_bits()))
        };
        let mut asked = 0;
        for ctx in &contexts {
            for wobble in [0.0, 0.02, 0.05] {
                let full = quickstart_shaped(wobble);
                let other = quickstart_shaped(wobble + 0.01);
                for leave_out in std::iter::once(None).chain((0..full.len()).map(Some)) {
                    let pick = |set: &MeasurementSet| {
                        leave_out.map_or_else(|| set.clone(), |index| without(set, index))
                    };
                    let (set, other) = (pick(&full), pick(&other));
                    let label = format!("wobble {wobble}, without {leave_out:?}");
                    let evaluated = |target: &TargetSpec| {
                        let read = estima.read(&set, target).unwrap();
                        let mut evaluation = Evaluation::default();
                        read.evaluate(read.rows(), ctx, &mut evaluation).unwrap();
                        let factor_ys = read.rows().factor_ys.clone();
                        (evaluation, factor_ys)
                    };
                    let (evaluation, factor_ys) = evaluated(&target);
                    let (factor, choice) = evaluation.factor.clone().unwrap();
                    let measured = set.max_cores();
                    let stalls = evaluation.stalls_per_core.clone();
                    // Ask the list; report its choice and whether it chose.
                    let mut ask = |stalls: &[f64], factor_ys: &[f64]| {
                        let mut chose = false;
                        let choice = factor.factor_choice(stalls, measured, factor_ys, || {
                            chose = true;
                            select_scaling_factor(&factor, stalls, measured, factor_ys)
                        });
                        let fresh = select_scaling_factor(&factor, stalls, measured, factor_ys);
                        assert_eq!(bits(choice), bits(fresh), "{label}: not a fresh choice");
                        asked += 1;
                        chose
                    };
                    let fresh = select_scaling_factor(&factor, &stalls, measured, &factor_ys);
                    assert_eq!(bits(Some(choice)), bits(fresh), "{label}: evaluated");
                    assert!(!ask(&stalls, &factor_ys), "{label}: the memo missed");

                    let mut nudged = stalls.clone();
                    nudged[measured as usize] =
                        f64::from_bits(nudged[measured as usize].to_bits() + 1);
                    assert!(ask(&nudged, &factor_ys), "{label}: one ulp apart");
                    let (scaled, scaled_ys) = evaluated(&scaled);
                    assert_eq!(scaled_ys, factor_ys);
                    assert!(
                        ask(&scaled.stalls_per_core, &factor_ys),
                        "{label}: scale 1.7"
                    );
                    let other_ys = estima
                        .read(&other, &target)
                        .unwrap()
                        .rows()
                        .factor_ys
                        .clone();
                    assert!(ask(&stalls, &other_ys), "{label}: another factor series");
                    assert!(
                        !ask(&stalls, &factor_ys),
                        "{label}: the memo was overwritten"
                    );
                }
            }
        }
        assert_eq!(asked, 2 * 3 * 13 * 5);
    }

    /// Step C's memo matches its inputs by their bits: a bit-equal repeat,
    /// NaNs included, is remembered, while stalls per core that differ only
    /// in a zero's sign, or a factor series that differs only in a NaN's
    /// payload, choose again. A float `==` would miss the repeat and take
    /// the zeros for one input.
    #[test]
    fn a_factor_memo_matches_its_inputs_by_their_bits() {
        let list = Fits::from(Vec::new());
        let chosen = std::cell::Cell::new(0);
        let ask = |stalls: &[f64], measured: u32, factor_ys: &[f64]| {
            list.factor_choice(stalls, measured, factor_ys, || {
                chosen.set(chosen.get() + 1);
                Some(FactorChoice {
                    index: 0,
                    correlation: 1.0,
                })
            });
            chosen.get()
        };
        let nan = f64::NAN;
        let other_nan = f64::from_bits(nan.to_bits() ^ 1);
        let stalls = [0.0, 1.5, nan, 3.0];
        let factor_ys = [2.0, nan, 0.0];
        assert_eq!(ask(&stalls, 3, &factor_ys), 1, "the first ask");
        assert_eq!(ask(&stalls, 3, &factor_ys), 1, "a bit-equal repeat");
        assert_eq!(
            ask(&[-0.0, 1.5, nan, 3.0], 3, &factor_ys),
            2,
            "-0.0 for 0.0"
        );
        assert_eq!(ask(&stalls, 3, &[2.0, other_nan, 0.0]), 3, "a NaN payload");
        assert_eq!(ask(&stalls, 4, &factor_ys), 4, "another core count");
        assert_eq!(ask(&stalls[..3], 3, &factor_ys), 5, "a shorter series");
        assert_eq!(ask(&stalls, 3, &factor_ys), 5, "the memo was overwritten");
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

/// [`select_scaling_factor`] pinned bit for bit against the selection loop
/// it replaced. [`oracle`] is that loop verbatim, its inputs arriving as
/// arguments: one candidate at a time, trial times collected into a
/// buffer, each correlation through [`pearson_correlation`]. Random
/// stalls-per-core series and candidate eval tables cover constant series,
/// zeros and `-0.0`, values near `f64::MAX`, NaN, ±∞ and negative trial
/// times, near-tied correlations settled by checkpoint RMSE, and 1 to 9
/// candidates, so batches end short of [`SWEEP`]. Up to three more
/// candidates clone an earlier candidate's `CandidateEvals` under another
/// checkpoint RMSE, sharing its table the way the checkpoint spans of one
/// grid cell do; each hand-made list becomes a [`Fits`], which numbers its
/// tables by allocation. Real scaling-factor grids of quickstart-shaped sets
/// and of their leave-one-out subsets run through both too. The winner, its
/// correlation and every predicted time must be the same bits.
#[cfg(test)]
mod selection_oracle {
    use super::tests::{quickstart_shaped, without};
    use super::*;
    use crate::fit::{candidate_fits_with, CandidateEvals};
    use crate::kernels::KernelKind;
    use crate::stats::pearson_correlation;

    /// The scaling-factor selection before the sweep, verbatim.
    fn oracle(
        candidates: &[FitCandidate],
        stalls_per_core: &[(u32, f64)],
        measured_cores: u32,
        target_cores: u32,
        factor_ys: &[f64],
    ) -> Option<(usize, f64, Vec<f64>)> {
        let spc_values: Vec<f64> = stalls_per_core.iter().map(|(_, v)| *v).collect();
        let factor_at_max_measured = *factor_ys.last().unwrap_or(&0.0);
        let factor_trend_decreasing =
            factor_ys.first().copied().unwrap_or(0.0) >= factor_at_max_measured;
        let mut trial_times: Vec<f64> = Vec::with_capacity(stalls_per_core.len());
        let mut best_times: Vec<f64> = Vec::with_capacity(stalls_per_core.len());
        let mut best: Option<(&FittedCurve, f64)> = None;
        for candidate in candidates.iter() {
            let curve = &candidate.curve;
            let evals = &candidate.evals;
            let table = evals.horizon() == target_cores
                && evals.tail_start() == measured_cores + 1
                && stalls_per_core.len() == target_cores as usize;
            if factor_at_max_measured > 0.0 && measured_cores < target_cores {
                let (max_extrapolated, min_extrapolated) = if table {
                    (evals.tail_max(), evals.tail_min())
                } else {
                    let mut max_extrapolated = 0.0f64;
                    let mut min_extrapolated = f64::INFINITY;
                    for c in (measured_cores + 1)..=target_cores {
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
        let (curve, corr) = best?;
        let index = candidates
            .iter()
            .position(|candidate| std::ptr::eq(&candidate.curve, curve))?;
        Some((index, corr, best_times))
    }

    /// A seeded SplitMix64 stream.
    struct Rng(u64);

    impl Rng {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next_u64() % n
        }

        /// Uniform in `[0, 1)`.
        fn unit(&mut self) -> f64 {
            (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
        }

        fn pick(&mut self, values: &[f64]) -> f64 {
            values[self.below(values.len() as u64) as usize]
        }
    }

    /// Values a series or table may be salted with.
    const SPECIAL: [f64; 9] = [
        0.0,
        -0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -1.0,
        f64::MAX,
        f64::MIN_POSITIVE,
        1e-300,
    ];

    /// A stalls-per-core series of `target` points.
    fn random_stalls(rng: &mut Rng, target: usize) -> Vec<f64> {
        let scale = rng.pick(&[1.0, 1e9, 1e-3, 1e300, f64::MAX / 4.0]);
        let mut stalls: Vec<f64> = match rng.below(4) {
            // Constant.
            0 => vec![scale * (1.0 + rng.unit()); target],
            // Falling then rising, like stalls per core over cores.
            1 => (0..target)
                .map(|c| {
                    let n = (c + 1) as f64;
                    scale * (1.0 / n + 0.01 * n * rng.unit())
                })
                .collect(),
            _ => (0..target).map(|_| scale * rng.unit()).collect(),
        };
        if rng.below(3) == 0 {
            for _ in 0..1 + rng.below(3) {
                let at = rng.below(target as u64) as usize;
                stalls[at] = rng.pick(&SPECIAL);
            }
        }
        stalls
    }

    /// One eval table per candidate. Some are positive multiples of an
    /// earlier table, or an earlier table nudged by an ulp, so their
    /// correlations tie within 1e-9 and the checkpoint RMSE decides.
    fn random_tables(rng: &mut Rng, count: usize, target: usize) -> Vec<Vec<f64>> {
        let mut tables: Vec<Vec<f64>> = Vec::with_capacity(count);
        for _ in 0..count {
            let mut table: Vec<f64> = match rng.below(6) {
                0 if !tables.is_empty() => {
                    let base = &tables[rng.below(tables.len() as u64) as usize];
                    let factor = rng.pick(&[2.0, 0.5, 3.0, 1.0 + 1e-12]);
                    base.iter().map(|v| v * factor).collect()
                }
                1 if !tables.is_empty() => {
                    let base = &tables[rng.below(tables.len() as u64) as usize];
                    let at = rng.below(target as u64) as usize;
                    let mut table = base.clone();
                    table[at] = f64::from_bits(table[at].to_bits() ^ 1);
                    table
                }
                2 => vec![rng.unit() + 0.5; target],
                _ => {
                    let (a, b) = (rng.unit() * 4.0, rng.unit() * 0.2 - 0.1);
                    (0..target)
                        .map(|c| a + b * (c + 1) as f64 + 0.01 * rng.unit())
                        .collect()
                }
            };
            if rng.below(4) == 0 {
                let at = rng.below(target as u64) as usize;
                table[at] = rng.pick(&SPECIAL);
            }
            tables.push(table);
        }
        tables
    }

    fn candidate(table: &[f64], tail_start: u32, checkpoint_rmse: f64) -> FitCandidate {
        FitCandidate {
            curve: FittedCurve {
                kernel: KernelKind::CubicLn,
                params: vec![0.0; 4].into(),
                checkpoint_rmse,
                training_rmse: 0.0,
                training_points: 3,
            },
            checkpoints: 2,
            evals: CandidateEvals::new(table.into(), tail_start),
        }
    }

    /// Insert up to three clones of earlier candidates under another
    /// checkpoint RMSE, each sharing its source's eval table and landing
    /// after it: a later duplicate with a lower RMSE must win the tie, and
    /// a duplicate of an implausible table must drop out with it.
    fn share_tables(rng: &mut Rng, candidates: &mut Vec<FitCandidate>) {
        for _ in 0..rng.below(4) {
            let source = &candidates[rng.below(candidates.len() as u64) as usize];
            let duplicate = FitCandidate {
                curve: FittedCurve {
                    checkpoint_rmse: rng.pick(&[0.05, 0.1, 0.2, f64::NAN]),
                    ..source.curve.clone()
                },
                checkpoints: source.checkpoints + 1,
                evals: source.evals.clone(),
            };
            let first = 1 + candidates
                .iter()
                .position(|c| std::ptr::eq(c.evals.values(), duplicate.evals.values()))
                .unwrap();
            let at = first + rng.below((candidates.len() + 1 - first) as u64) as usize;
            candidates.insert(at, duplicate);
        }
    }

    /// Whether the candidate at `index` shares its table with an earlier one.
    fn is_duplicate(candidates: &Fits, index: usize) -> bool {
        let table = candidates[index].evals.table();
        candidates[..index]
            .iter()
            .any(|earlier| earlier.evals.table() == table)
    }

    /// Run both selections and require the same winner, bit for bit, and
    /// the same predicted times: the oracle's, and the winner's table times
    /// stalls per core, as a prediction builds them.
    fn assert_same_choice(
        candidates: &Fits,
        stalls: &[f64],
        measured_cores: u32,
        factor_ys: &[f64],
    ) -> Option<f64> {
        let target = stalls.len() as u32;
        let series: Vec<(u32, f64)> = (1..=target).zip(stalls.iter().copied()).collect();
        let expected = oracle(candidates, &series, measured_cores, target, factor_ys);
        let actual = select_scaling_factor(candidates, stalls, measured_cores, factor_ys);
        match (expected, actual) {
            (None, None) => None,
            (Some((index, corr, times)), Some(choice)) => {
                assert_eq!(choice.index, index, "winner");
                assert_eq!(choice.correlation.to_bits(), corr.to_bits(), "correlation");
                let built: Vec<f64> = stalls
                    .iter()
                    .zip(candidates[choice.index].evals.values())
                    .map(|(spc, factor)| spc * factor)
                    .collect();
                let bits = |times: &[f64]| times.iter().map(|t| t.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&built), bits(&times), "predicted times");
                Some(corr)
            }
            (expected, actual) => panic!(
                "oracle chose {:?}, the sweep {:?}",
                expected.map(|(index, ..)| index),
                actual.map(|choice| choice.index)
            ),
        }
    }

    #[test]
    fn sweep_matches_the_per_candidate_loop() {
        let mut rng = Rng(2016);
        let (mut chosen, mut duplicates_won) = (0, 0);
        for _ in 0..4000 {
            let target = rng.pick(&[1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 12.0, 48.0, 129.0]) as usize;
            let measured_cores = 1 + rng.below(target as u64) as u32;
            let stalls = random_stalls(&mut rng, target);
            let count = 1 + rng.below(9) as usize;
            let tables = random_tables(&mut rng, count, target);
            let mut candidates: Vec<FitCandidate> = tables
                .iter()
                .map(|table| {
                    let rmse = rng.pick(&[0.1, 0.2, 0.3, 0.1, f64::NAN, f64::INFINITY]);
                    candidate(table, measured_cores + 1, rmse)
                })
                .collect();
            share_tables(&mut rng, &mut candidates);
            let candidates = Fits::from(candidates);
            let factor_ys: Vec<f64> = (0..1 + rng.below(4))
                .map(|_| rng.pick(&[0.0, 0.5, 1.0, 2.0, 1.5, -1.0]))
                .collect();
            if assert_same_choice(&candidates, &stalls, measured_cores, &factor_ys).is_some() {
                chosen += 1;
                let winner =
                    select_scaling_factor(&candidates, &stalls, measured_cores, &factor_ys)
                        .unwrap()
                        .index;
                if is_duplicate(&candidates, winner) {
                    duplicates_won += 1;
                }
            }
        }
        // The cases must exercise selection, not only rejection, and
        // duplicates must win some of them.
        assert!(chosen > 1000, "only {chosen} cases chose a factor");
        assert!(
            duplicates_won > 100,
            "a duplicate won only {duplicates_won} cases"
        );
    }

    #[test]
    fn real_grids_match_the_per_candidate_loop() {
        let estima = Estima::new(EstimaConfig::default().with_parallelism(1));
        let config = estima.config();
        let options = FitOptions {
            realism_horizon: 48,
            ..config.fit.clone()
        };
        let sources = config.sources();
        let mut duplicates = 0;
        for wobble in [0.0, 0.02, 0.05] {
            let full = quickstart_shaped(wobble);
            // The full set, then every leave-one-out subset.
            for leave_out in std::iter::once(None).chain((0..full.len()).map(Some)) {
                let set = leave_out.map_or_else(|| full.clone(), |index| without(&full, index));
                let prediction = estima.predict(&set, &TargetSpec::cores(48)).unwrap();
                let stalls: Vec<f64> = prediction.stalls_per_core.iter().map(|(_, v)| *v).collect();
                let xs: Vec<f64> = set.core_counts().iter().map(|c| f64::from(*c)).collect();
                let ys: Vec<f64> = set
                    .measurements()
                    .iter()
                    .map(|m| m.exec_time / m.stalls_per_core(&sources))
                    .collect();
                let candidates =
                    candidate_fits_with(&xs, &ys, &options, &Engine::sequential()).unwrap();
                duplicates += (0..candidates.len())
                    .filter(|&index| is_duplicate(&candidates, index))
                    .count();
                let corr = assert_same_choice(&candidates, &stalls, set.max_cores(), &ys)
                    .expect("a real grid chooses a factor");
                assert_eq!(corr.to_bits(), prediction.factor_correlation.to_bits());
            }
        }
        assert!(duplicates > 0, "no real grid shared a table");
    }

    #[test]
    fn a_later_duplicate_with_a_lower_rmse_wins_the_tie() {
        let stalls: Vec<f64> = (1..=48).map(|c| 1.0 / f64::from(c) + 0.01).collect();
        let flat = candidate(&[2.0; 48], 13, 0.2);
        let rising: Vec<f64> = (1..=48).map(|c| 1.0 + 0.01 * f64::from(c)).collect();
        let duplicate = FitCandidate {
            curve: FittedCurve {
                checkpoint_rmse: 0.1,
                ..flat.curve.clone()
            },
            checkpoints: 3,
            evals: flat.evals.clone(),
        };
        let candidates = Fits::from(vec![flat, candidate(&rising, 13, 0.1), duplicate]);
        let factor_ys = [4.0, 4.0];
        assert_same_choice(&candidates, &stalls, 12, &factor_ys);
        let choice = select_scaling_factor(&candidates, &stalls, 12, &factor_ys).unwrap();
        assert_eq!(choice.index, 2);
    }

    #[test]
    fn duplicates_of_an_implausible_table_drop_out() {
        // The first table tracks stalls per core best but climbs past
        // 1.5 × the last measured factor; neither it nor its lower-RMSE
        // duplicate may win.
        let stalls: Vec<f64> = (1..=48).map(|c| 1.0 / f64::from(c) + 0.01).collect();
        let mut climbing = vec![2.0; 48];
        climbing[47] = 7.0;
        let implausible = candidate(&climbing, 13, 0.2);
        let duplicate = FitCandidate {
            curve: FittedCurve {
                checkpoint_rmse: 0.1,
                ..implausible.curve.clone()
            },
            checkpoints: 3,
            evals: implausible.evals.clone(),
        };
        let rising: Vec<f64> = (1..=48).map(|c| 1.0 + 0.01 * f64::from(c)).collect();
        let candidates = Fits::from(vec![implausible, candidate(&rising, 13, 0.3), duplicate]);
        let factor_ys = [4.0, 4.0];
        assert_same_choice(&candidates, &stalls, 12, &factor_ys);
        let choice = select_scaling_factor(&candidates, &stalls, 12, &factor_ys).unwrap();
        assert_eq!(choice.index, 1);
    }

    #[test]
    fn a_constant_series_correlates_zero() {
        let stalls = vec![7.5; 48];
        let tables = [vec![1.0; 48], (1..=48).map(f64::from).collect::<Vec<_>>()];
        let candidates = Fits::from(
            tables
                .iter()
                .map(|table| candidate(table, 13, 0.1))
                .collect::<Vec<_>>(),
        );
        assert_eq!(
            assert_same_choice(&candidates, &stalls, 12, &[2.0, 1.0]).map(f64::to_bits),
            Some(0.0f64.to_bits())
        );
    }

    #[test]
    fn near_ties_go_to_the_lower_checkpoint_rmse() {
        // The second table is the first times two: the same correlation up
        // to rounding, so the lower checkpoint RMSE wins.
        let stalls: Vec<f64> = (1..=48).map(|c| 1.0 / f64::from(c) + 0.01).collect();
        let base: Vec<f64> = (1..=48).map(|c| 1.0 + 0.01 * f64::from(c)).collect();
        let doubled: Vec<f64> = base.iter().map(|v| v * 2.0).collect();
        let candidates = Fits::from(vec![
            candidate(&base, 13, 0.2),
            candidate(&doubled, 13, 0.1),
        ]);
        // A flat measured factor of 4: both tails stay below 1.5 × 4.
        let factor_ys = [4.0, 4.0];
        assert_same_choice(&candidates, &stalls, 12, &factor_ys);
        let choice = select_scaling_factor(&candidates, &stalls, 12, &factor_ys).unwrap();
        assert_eq!(choice.index, 1);
    }
}
