//! Function approximation: fitting Table 1 kernels to measured series.
//!
//! This module implements the regression step of §3.1.2:
//!
//! 1. the last `c` measurements (highest core counts) are designated
//!    *checkpoints* and held out of the fit,
//! 2. for every prefix `i in 3..=n` of the remaining training points, every
//!    enabled kernel is fitted to the prefix,
//! 3. fits that are "not realistic" (poles, negative or non-finite values in
//!    the extrapolation range) are discarded,
//! 4. the candidate with the lowest RMSE at the checkpoints wins.
//!
//! # The fitting hot path
//!
//! The candidate grid is the dominant cost of the whole pipeline, so it is
//! organised around the *training-prefix structure*: the fitted parameters of
//! a grid cell depend only on the training prefix `(kernel, prefix)` — never
//! on the checkpoint count, which only picks the held-out points the fit is
//! scored against. The grid therefore fans out **one work item per kernel**,
//! and each item
//!
//! * builds one **columnar design slab** (column-major, stride = the longest
//!   training range) over the union of all checkpoint counts' training
//!   ranges, so every prefix of every checkpoint span reads the same
//!   transformed columns instead of rebuilding rows per cell,
//! * solves each distinct prefix **once** and scores the resulting curve
//!   against every checkpoint span covering that prefix — and only the
//!   checkpoint RMSE depends on the span: the training RMSE, the realism walk
//!   and the integer-grid eval table are computed once per prefix, and every
//!   span's candidate shares the one table,
//! * for linear kernels (`CubicLn`, `Poly25`) maintains the normal equations
//!   **incrementally** — growing the prefix by one point is a rank-1 update
//!   of `AᵀA` / `Aᵀy` followed by an in-place Cholesky solve,
//! * for nonlinear kernels seeds each prefix from a linearised least-squares
//!   solve over prefix views of the shared slab columns and refines with
//!   Levenberg–Marquardt using the kernel's analytic Jacobian and a
//!   per-thread [`LmWorkspace`], so the LM iterations allocate nothing.
//!
//! Each worker thread owns one `FitWorkspace` (a thread local), so engine
//! fan-outs of any width reuse a fixed set of buffers — among them the
//! realism walk's [`HorizonTable`] (`ln(c)`, `c^2.5` and the sign sweep's
//! abscissae), rebuilt only when a grid's horizon differs from the last.
//! The columnar layout matches the LM Jacobian slab (see
//! [`crate::levenberg`]) and the summation order of every reduction is
//! fixed, so grid results are bit-identical regardless of engine
//! parallelism.
//!
//! # One entry point
//!
//! [`candidate_fits`] and [`approximate_series`] are the only ways into the
//! grid. Their [`FitContext`] says how a fit runs: the [`Engine`] the grid
//! fans out on, and optionally the shared [`FitCache`] its candidates come
//! from, with the store [`CacheScope`] that tags its cache keys.
//!
//! # The solve memo
//!
//! A nonlinear cell's solve (linearised guess plus LM run) is a pure function
//! of the prefix's points and the [`LmOptions`]; only its *scoring* reads the
//! rest of the series. A fit with a cache therefore looks every prefix up in
//! the [`FitCache`]'s solve memo before fanning out, skips the solves the
//! memo already holds (a failed LM run included), and stores the new ones
//! afterwards. Refitting a series whose newest point changed re-solves
//! nothing; an appended point re-solves one new prefix per nonlinear kernel.
//! A fit without a cache solves every cell and stays the reference the
//! memoised path is tested against.

use std::cell::RefCell;
use std::sync::Arc;

use crate::config::MAX_TARGET_CORES;
use crate::engine::{CacheScope, Engine, FitCache, FitKey};
use crate::error::{EstimaError, Result};
use crate::kernels::{FittedCurve, HorizonTable, KernelKind};
use crate::levenberg::{levenberg_marquardt_into, LmOptions, LmWorkspace, MAX_PARAMS};
use crate::linalg::{
    accumulate_normal_equations, cholesky_solve_in_place, solve_least_squares_qr,
    solve_least_squares_qr_columns, solve_least_squares_qr_flat, Matrix,
};

/// Ridge factor (relative to the largest gram diagonal) applied when a linear
/// system is under-determined or numerically not positive definite.
const RIDGE: f64 = 1e-8;

/// Options for fitting a single series.
#[derive(Debug, Clone)]
pub struct FitOptions {
    /// Kernels to consider (defaults to all six of Table 1).
    pub kernels: Vec<KernelKind>,
    /// Candidate checkpoint counts; the paper uses 2 and 4. Each viable value
    /// (i.e. leaving at least [`FitOptions::min_training_points`] training
    /// points) is tried and candidates compete across checkpoint counts.
    pub checkpoint_counts: Vec<usize>,
    /// Minimum number of training points required for any fit.
    pub min_training_points: usize,
    /// Largest core count the fitted curve must stay realistic up to.
    pub realism_horizon: u32,
    /// Upper bound on the magnitude a realistic curve may reach inside the
    /// horizon; guards against explosive extrapolations.
    pub max_magnitude: f64,
    /// Upper bound on how much a realistic curve may grow relative to the
    /// largest training value. Stall categories grow by at most a few tens of
    /// times when quadrupling the core count; a fit that extrapolates to
    /// hundreds of times the measured maximum is chasing noise or a pole.
    pub max_growth_factor: f64,
    /// Whether to refit on every prefix `i in 3..=n` (the paper's
    /// anti-over-fitting loop) or only on the full training set.
    pub prefix_refitting: bool,
    /// Levenberg–Marquardt options for the nonlinear kernels.
    pub lm: LmOptions,
}

impl Default for FitOptions {
    fn default() -> Self {
        FitOptions {
            kernels: KernelKind::ALL.to_vec(),
            checkpoint_counts: vec![2, 4],
            min_training_points: 3,
            realism_horizon: 64,
            max_magnitude: 1e18,
            max_growth_factor: 100.0,
            prefix_refitting: true,
            lm: LmOptions::default(),
        }
    }
}

impl FitOptions {
    /// A compact string encoding every field of the options (including the
    /// nested [`LmOptions`]), used as the options component of a
    /// [`crate::engine::FitKey`]. Two options values produce the same tag iff
    /// they are field-for-field equal: floats are rendered with `{:?}`
    /// (shortest round trip, so distinct bit patterns of finite values render
    /// distinctly), and every field is separated by a delimiter that cannot
    /// appear inside the rendered values. This replaces the old
    /// `format!("{options:?}")` key, whose derive-generated pretty-printer
    /// dominated key-construction cost on the serve hot path.
    pub fn cache_tag(&self) -> String {
        use std::fmt::Write as _;
        let mut tag = String::with_capacity(160);
        for kernel in &self.kernels {
            tag.push_str(kernel.name());
            tag.push(',');
        }
        tag.push('|');
        for count in &self.checkpoint_counts {
            let _ = write!(tag, "{count},");
        }
        let _ = write!(
            tag,
            "|{};{};{:?};{:?};{};",
            self.min_training_points,
            self.realism_horizon,
            self.max_magnitude,
            self.max_growth_factor,
            self.prefix_refitting
        );
        let lm = &self.lm;
        let _ = write!(
            tag,
            "{};{:?};{:?};{:?};{:?};{:?};{:?};{}",
            lm.max_iterations,
            lm.initial_lambda,
            lm.lambda_up,
            lm.lambda_down,
            lm.tolerance,
            lm.step_tolerance,
            lm.finite_difference_step,
            match lm.jacobian {
                crate::levenberg::Jacobian::Analytic => "a",
                crate::levenberg::Jacobian::FiniteDifference => "fd",
            }
        );
        tag
    }
}

thread_local! {
    /// Per-thread fitting scratch. Engine workers and the calling thread get
    /// exactly one each, so grid fan-outs of any width reuse a fixed set of
    /// buffers across every strip they process ("one workspace per worker").
    static FIT_WORKSPACE: RefCell<FitWorkspace> = RefCell::new(FitWorkspace::default());
}

/// Reusable scratch for one worker thread: the Levenberg–Marquardt workspace,
/// the design-matrix and normal-equation buffers of the grid fitter, and the
/// realism walk's table and capture buffer.
#[derive(Debug, Default)]
struct FitWorkspace {
    lm: LmWorkspace,
    /// Columnar design slab (linear kernels) or linearised-guess slab
    /// (nonlinear kernels): column `j` occupies
    /// `design[j * n_build..(j + 1) * n_build]` where `n_build` is the
    /// longest training range of the grid, so every prefix of every
    /// checkpoint span is a contiguous leading view of each column.
    design: Vec<f64>,
    /// Incrementally maintained `AᵀA` for the linear kernels.
    gram: Vec<f64>,
    /// Incrementally maintained `Aᵀy` for the linear kernels.
    rhs: Vec<f64>,
    /// Factorisation scratch (destroyed by the in-place solves).
    solve_mat: Vec<f64>,
    /// Solution buffer for the in-place solves.
    solve_rhs: Vec<f64>,
    /// `ln(y)` values for the ExpRat linearised guess.
    zs: Vec<f64>,
    /// The realism walk's abscissae at the last grid's horizon; rebuilt
    /// only when the horizon changes.
    horizon: HorizonTable,
    /// The values the walk of the current prefix captured.
    walked: Vec<f64>,
}

fn with_fit_workspace<R>(f: impl FnOnce(&mut FitWorkspace) -> R) -> R {
    FIT_WORKSPACE.with(|ws| f(&mut ws.borrow_mut()))
}

fn grow(buf: &mut Vec<f64>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

/// Fit a single kernel to the series `(xs, ys)` and return its parameters;
/// `lm` drives the nonlinear kernels' Levenberg–Marquardt refinement.
///
/// Returns an error if the fit diverges or the system is rank deficient.
pub fn fit_kernel(kernel: KernelKind, xs: &[f64], ys: &[f64], lm: &LmOptions) -> Result<Vec<f64>> {
    if xs.len() != ys.len() || xs.is_empty() {
        return Err(EstimaError::Numerical("fit_kernel: bad series".into()));
    }
    if kernel.is_linear() {
        return fit_linear(kernel, xs, ys);
    }
    let mut params = linearized_initial_guess(kernel, xs, ys)?;
    with_fit_workspace(|ws| {
        levenberg_marquardt_into(&kernel, xs, ys, &mut params, lm, &mut ws.lm)
    })?;
    Ok(params)
}

/// Least-squares fit for kernels linear in their parameters.
///
/// When the series has fewer points than the kernel has parameters (the
/// memcached scenario of §4.3 measures only a handful of desktop threads),
/// the system is under-determined; a lightly ridge-regularised normal-equation
/// solve picks the minimum-norm-ish solution instead of failing.
fn fit_linear(kernel: KernelKind, xs: &[f64], ys: &[f64]) -> Result<Vec<f64>> {
    let rows: Vec<Vec<f64>> = xs.iter().map(|x| kernel.design_row(*x)).collect();
    let design = Matrix::from_rows(&rows);
    if design.rows() >= design.cols() {
        if let Ok(solution) = solve_least_squares_qr(&design, ys) {
            return Ok(solution);
        }
    }
    // Ridge fallback: (A^T A + λ diag) x = A^T y.
    let mut gram = design.gram();
    let n = gram.rows();
    let scale = (0..n).map(|i| gram[(i, i)]).fold(0.0f64, f64::max).max(1.0);
    for i in 0..n {
        gram[(i, i)] += RIDGE * scale;
    }
    let rhs = design.mul_transpose_vec(ys);
    crate::linalg::solve_cholesky(&gram, &rhs)
}

/// Linearised initial guess for the nonlinear kernels.
///
/// Rational kernels `p(n)/q(n)` with `q(0)=1` satisfy
/// `y = p(n) - y·(q(n) - 1)`, which is linear in the joint coefficient vector
/// when the measured `y` is substituted on the right-hand side — the classic
/// rational-fit linearisation. `ExpRat` is linearised through `ln y`.
fn linearized_initial_guess(kernel: KernelKind, xs: &[f64], ys: &[f64]) -> Result<Vec<f64>> {
    let mean_y = ys.iter().sum::<f64>() / ys.len() as f64;
    match kernel {
        KernelKind::Rat22 | KernelKind::Rat23 | KernelKind::Rat33 => {
            let (num_degree, den_degree) = rational_degrees(kernel);
            let n_params = kernel.param_count();
            if xs.len() >= n_params {
                let mut rows = vec![0.0; xs.len() * n_params];
                for ((x, y), row) in xs.iter().zip(ys).zip(rows.chunks_exact_mut(n_params)) {
                    fill_rational_guess_row(row, *x, *y, num_degree, den_degree);
                }
                if let Ok(sol) = solve_least_squares_qr_flat(&rows, xs.len(), n_params, ys) {
                    if sol.iter().all(|v| v.is_finite()) {
                        return Ok(sol);
                    }
                }
            }
            let mut p = vec![0.0; n_params];
            fallback_guess(kernel, mean_y, &mut p);
            Ok(p)
        }
        KernelKind::ExpRat => {
            // ln y ≈ (a + b n) / (1 + d n), with c fixed to 1 for the guess.
            if ys.iter().all(|y| *y > 0.0) && xs.len() >= 3 {
                let zs: Vec<f64> = ys.iter().map(|y| y.ln()).collect();
                let mut rows = vec![0.0; xs.len() * 3];
                for ((x, z), row) in xs.iter().zip(&zs).zip(rows.chunks_exact_mut(3)) {
                    fill_exprat_guess_row(row, *x, *z);
                }
                if let Ok(sol) = solve_least_squares_qr_flat(&rows, xs.len(), 3, &zs) {
                    if sol.iter().all(|v| v.is_finite()) {
                        return Ok(vec![sol[0], sol[1], 1.0, sol[2]]);
                    }
                }
            }
            let mut p = vec![0.0; 4];
            fallback_guess(kernel, mean_y, &mut p);
            Ok(p)
        }
        _ => unreachable!("linear kernels use fit_linear"),
    }
}

/// Flat-function fallback guess when the linearised system cannot be solved:
/// the mean of the data for rational kernels, `exp(ln mean)` for `ExpRat`.
/// Shared by the one-shot path and the grid strips so the two can never
/// drift apart.
fn fallback_guess(kernel: KernelKind, mean_y: f64, params: &mut [f64]) {
    params.fill(0.0);
    if kernel == KernelKind::ExpRat {
        params[0] = mean_y.abs().max(1e-9).ln();
        params[2] = 1.0;
    } else {
        params[0] = mean_y;
    }
}

/// One row of the ExpRat linearisation design matrix: `[1, x, -z·x]` with
/// `z = ln y`.
fn fill_exprat_guess_row(row: &mut [f64], x: f64, z: f64) {
    row[0] = 1.0;
    row[1] = x;
    row[2] = -z * x;
}

/// Numerator/denominator degrees of the rational kernels.
fn rational_degrees(kernel: KernelKind) -> (usize, usize) {
    match kernel {
        KernelKind::Rat22 => (2, 2),
        KernelKind::Rat23 => (2, 3),
        KernelKind::Rat33 => (3, 3),
        _ => unreachable!("not a rational kernel"),
    }
}

/// One row of the rational linearisation design matrix:
/// `[x^0 .. x^num, -y·x .. -y·x^den]` (row length `num + den + 1`). Shared by
/// the one-shot path and the grid strips so the two can never drift apart.
fn fill_rational_guess_row(row: &mut [f64], x: f64, y: f64, num_degree: usize, den_degree: usize) {
    debug_assert_eq!(row.len(), num_degree + 1 + den_degree);
    for (d, slot) in row[..=num_degree].iter_mut().enumerate() {
        *slot = x.powi(d as i32);
    }
    for (d, slot) in row[num_degree + 1..].iter_mut().enumerate() {
        *slot = -y * x.powi((d + 1) as i32);
    }
}

/// One candidate produced by the prefix loop: a fitted curve plus the
/// checkpoint count it competed under (useful for diagnostics).
#[derive(Debug, Clone)]
pub struct FitCandidate {
    /// The fitted curve.
    pub curve: FittedCurve,
    /// Number of checkpoints this candidate was scored against.
    pub checkpoints: usize,
    /// Integer-grid evaluations of `curve` over `1..=realism_horizon`,
    /// captured while the realism filter walked the same grid. Consumers
    /// that evaluate candidates at integer core counts (the scaling-factor
    /// selection loop of [`crate::predictor::Estima::predict`]) read the
    /// table instead of re-evaluating the kernel per candidate per core.
    pub evals: CandidateEvals,
}

/// Precomputed integer-grid evaluations of a candidate curve: `values[c - 1]
/// == curve.eval(c as f64)` for `c in 1..=horizon` (the fit's
/// [`FitOptions::realism_horizon`]), plus the running max/min of the
/// *extrapolated tail* — the core counts strictly above the fitted series'
/// largest measured count. The tail fold replicates the historical
/// scaling-factor realism check exactly (ascending fold, `0.0` /
/// `f64::INFINITY` initial values), so reading `tail_max`/`tail_min` is
/// bit-identical to re-running that loop.
#[derive(Debug, Clone)]
pub struct CandidateEvals {
    /// Shared by the candidates of every checkpoint span covering the prefix.
    values: Arc<[f64]>,
    tail_start: u32,
    tail_max: f64,
    tail_min: f64,
}

impl CandidateEvals {
    /// Build the table from values captured by the realism walk
    /// ([`HorizonTable::walk`]). `tail_start` is the first extrapolated core
    /// count (largest measured `x` plus one).
    fn new(values: &[f64], tail_start: u32) -> Self {
        let horizon = values.len() as u32;
        let mut tail_max = 0.0f64;
        let mut tail_min = f64::INFINITY;
        if tail_start >= 1 {
            for c in tail_start..=horizon {
                let v = values[(c - 1) as usize];
                tail_max = tail_max.max(v);
                tail_min = tail_min.min(v);
            }
        }
        CandidateEvals {
            values: values.into(),
            tail_start,
            tail_max,
            tail_min,
        }
    }

    /// Largest core count the table covers (the fit's realism horizon).
    pub fn horizon(&self) -> u32 {
        self.values.len() as u32
    }

    /// First extrapolated core count: the fitted series' largest measured
    /// core count plus one.
    pub fn tail_start(&self) -> u32 {
        self.tail_start
    }

    /// Max of the curve over `tail_start..=horizon` (0.0 when the tail is
    /// empty), folded in ascending core order.
    pub fn tail_max(&self) -> f64 {
        self.tail_max
    }

    /// Min of the curve over `tail_start..=horizon` (+∞ when the tail is
    /// empty), folded in ascending core order.
    pub fn tail_min(&self) -> f64 {
        self.tail_min
    }

    /// `curve.eval(cores as f64)` read from the table, or `None` when
    /// `cores` is outside `1..=horizon`.
    pub fn at(&self, cores: u32) -> Option<f64> {
        self.values.get(cores.checked_sub(1)? as usize).copied()
    }

    /// The full table: `values()[c - 1] == curve.eval(c as f64)` for
    /// `c in 1..=horizon`.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// How a fit runs: the engine its candidate grid fans out on, and optionally
/// the shared cache its candidates are drawn from (and added to).
///
/// `scope` tags the cache keys with a store series and version, so a later
/// [`FitCache::invalidate_series`] can drop exactly that series' entries; it
/// only matters together with `cache`. None of the three changes a fitted
/// candidate: cached, scoped and uncached fits are bit-identical at any
/// engine width.
#[derive(Debug, Clone, Copy)]
pub struct FitContext<'a> {
    /// The engine the candidate grid fans out on.
    pub engine: Engine,
    /// The shared cache candidates come from, if any.
    pub cache: Option<&'a FitCache>,
    /// The store state the cache keys are tagged with, if any.
    pub scope: Option<CacheScope<'a>>,
}

impl FitContext<'_> {
    /// Fan the grid out on `engine`, without a cache.
    pub fn new(engine: Engine) -> Self {
        FitContext {
            engine,
            cache: None,
            scope: None,
        }
    }
}

impl Default for FitContext<'_> {
    /// Sequential and uncached.
    fn default() -> Self {
        FitContext::new(Engine::sequential())
    }
}

/// Approximate a measured series with the best kernel, per §3.1.2.
///
/// `xs` are core counts, `ys` the measured values, both sorted by core count.
/// Returns the winning [`FittedCurve`]; the error carries the offending
/// category name supplied in `label`. Candidates are compared in a fixed
/// enumeration order regardless of thread completion order, so the winner
/// does not depend on the context.
pub fn approximate_series(
    xs: &[f64],
    ys: &[f64],
    label: &str,
    options: &FitOptions,
    ctx: &FitContext<'_>,
) -> Result<FittedCurve> {
    let candidates = candidate_fits(xs, ys, options, ctx)?;
    select_best(candidates.iter().map(|c| &c.curve), label)
}

/// The model-selection rule of §3.1.2: lowest checkpoint RMSE wins, ties
/// resolved to the earliest candidate in enumeration order.
fn select_best<'a>(
    curves: impl Iterator<Item = &'a FittedCurve>,
    label: &str,
) -> Result<FittedCurve> {
    curves
        .min_by(|a, b| {
            a.checkpoint_rmse
                .partial_cmp(&b.checkpoint_rmse)
                .unwrap_or(std::cmp::Ordering::Equal)
        })
        .cloned()
        .ok_or_else(|| EstimaError::NoViableFit {
            category: label.to_string(),
        })
}

/// Produce every viable candidate fit for the series (all kernels × all
/// prefixes × all checkpoint counts), already filtered for realism. The
/// scaling-factor step needs the full candidate list because it selects by
/// correlation rather than checkpoint RMSE.
///
/// The grid fans out one work item per kernel on `ctx.engine`, each covering
/// every checkpoint count × prefix cell from a shared columnar design slab;
/// the results are reassembled in the historical cell-enumeration order
/// (checkpoint count → prefix → kernel), so the list is identical at any
/// engine width. With `ctx.cache` the list for a given (series, options,
/// scope) is computed once and shared by every later caller, and a miss
/// draws its nonlinear solves from the cache's solve memo.
pub fn candidate_fits(
    xs: &[f64],
    ys: &[f64],
    options: &FitOptions,
    ctx: &FitContext<'_>,
) -> Result<Arc<Vec<FitCandidate>>> {
    let Some(cache) = ctx.cache else {
        return candidate_grid(xs, ys, options, &ctx.engine, None).map(Arc::new);
    };
    let key = match ctx.scope {
        Some(scope) => FitKey::scoped(xs, ys, options, scope.series, scope.version),
        None => FitKey::new(xs, ys, options),
    };
    cache.get_or_compute(key, || {
        candidate_grid(xs, ys, options, &ctx.engine, Some(cache))
    })
}

/// [`candidate_fits`] on `engine` without a cache. Kept for the stand-alone
/// `servebench` crate, whose trace times the bare grid through it.
pub fn candidate_fits_with(
    xs: &[f64],
    ys: &[f64],
    options: &FitOptions,
    engine: &Engine,
) -> Result<Arc<Vec<FitCandidate>>> {
    candidate_fits(xs, ys, options, &FitContext::new(*engine))
}

/// Length of [`PrefixSolves::params`]: the parameter counts of the four
/// nonlinear kernels (5 + 6 + 7 + 4), packed back to back.
const SOLVE_PARAMS: usize = 22;

/// A nonlinear kernel's slot in a [`PrefixSolves`]: its flag bit and the
/// offset of its parameters.
fn solve_slot(kernel: KernelKind) -> (u8, usize) {
    match kernel {
        KernelKind::Rat22 => (1, 0),
        KernelKind::Rat23 => (1 << 1, 5),
        KernelKind::Rat33 => (1 << 2, 11),
        KernelKind::ExpRat => (1 << 3, 18),
        KernelKind::CubicLn | KernelKind::Poly25 => {
            unreachable!("linear kernels are not memoised")
        }
    }
}

/// The memoised solves of one training prefix: for each nonlinear kernel,
/// nothing yet, "LM failed", or the fitted parameters. A [`FitCache`] keeps
/// one per prefix (see the module docs); an entry fills up kernel by kernel
/// as fits with different kernel sets reach the prefix.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PrefixSolves {
    /// Every solved kernel's parameters, at its [`solve_slot`] offset.
    params: [f64; SOLVE_PARAMS],
    /// Slots whose outcome is known.
    known: u8,
    /// Known slots whose LM run converged (their parameters are valid).
    solved: u8,
}

impl PrefixSolves {
    /// Nothing known.
    pub(crate) const EMPTY: PrefixSolves = PrefixSolves {
        params: [0.0; SOLVE_PARAMS],
        known: 0,
        solved: 0,
    };

    /// `None` while `kernel`'s outcome is unknown; `Some(None)` when its LM
    /// run failed; otherwise its parameters.
    fn get(&self, kernel: KernelKind) -> Option<Option<&[f64]>> {
        let (bit, offset) = solve_slot(kernel);
        (self.known & bit != 0).then(|| {
            (self.solved & bit != 0).then(|| &self.params[offset..offset + kernel.param_count()])
        })
    }

    /// Record `kernel`'s outcome: its parameters, or `None` for a failed run.
    fn set(&mut self, kernel: KernelKind, outcome: Option<&[f64]>) {
        let (bit, offset) = solve_slot(kernel);
        self.known |= bit;
        if let Some(params) = outcome {
            self.params[offset..offset + params.len()].copy_from_slice(params);
            self.solved |= bit;
        }
    }

    /// Adopt every outcome `other` knows and `self` does not. Returns whether
    /// anything was new.
    pub(crate) fn merge(&mut self, other: &PrefixSolves) -> bool {
        let new = other.known & !self.known;
        for kernel in KernelKind::ALL.into_iter().filter(|k| !k.is_linear()) {
            if new & solve_slot(kernel).0 != 0 {
                self.set(kernel, other.get(kernel).flatten());
            }
        }
        new != 0
    }
}

/// The cached path's view of the solve memo for one series: every covered
/// prefix's key, and what the memo knew before the fit.
struct SeriesSolves<'c> {
    cache: &'c FitCache,
    /// `[options id, x₀, y₀, x₁, y₁, …]` as bit patterns: prefix `p`'s memo
    /// key is `key[..1 + 2p]`, so one buffer holds every prefix's key.
    key: Vec<u64>,
    /// Smallest grid prefix; `known[i]` belongs to prefix `lo + i`.
    lo: usize,
    known: Vec<PrefixSolves>,
    /// (kernel, prefix) cells the memo already held.
    hits: usize,
}

impl<'c> SeriesSolves<'c> {
    /// Look up every prefix the grid will fit. `None` when the fit has no
    /// nonlinear kernel or the cache cannot memoise these LM options.
    fn open(
        cache: &'c FitCache,
        xs: &[f64],
        ys: &[f64],
        options: &FitOptions,
        spans: &[CheckpointSpan],
    ) -> Option<SeriesSolves<'c>> {
        if options.kernels.iter().all(KernelKind::is_linear) {
            return None;
        }
        let id = cache.solve_options_id(&options.lm)?;
        let (lo, hi) = prefix_range(spans);
        let mut key = Vec::with_capacity(1 + 2 * hi);
        key.push(id);
        for (x, y) in xs[..hi].iter().zip(&ys[..hi]) {
            key.extend([x.to_bits(), y.to_bits()]);
        }
        let known: Vec<PrefixSolves> = (lo..=hi)
            .map(|prefix| {
                let found = covered(spans, prefix)
                    .then(|| cache.lookup_solves(&key[..1 + 2 * prefix]))
                    .flatten();
                found.unwrap_or(PrefixSolves::EMPTY)
            })
            .collect();
        let hits = known
            .iter()
            .map(|solves| {
                let nonlinear = options.kernels.iter().filter(|k| !k.is_linear());
                nonlinear.filter(|k| solves.get(**k).is_some()).count()
            })
            .sum();
        Some(SeriesSolves {
            cache,
            key,
            lo,
            known,
            hits,
        })
    }

    /// Merge each kernel's new solves (one list per kernel, empty for the
    /// linear ones) into what was known, and store every prefix that gained
    /// one.
    fn store(mut self, fresh: Vec<Vec<PrefixSolves>>) {
        let mut solved = 0;
        for (i, known) in self.known.iter_mut().enumerate() {
            let mut changed = false;
            for new in fresh.iter().filter_map(|kernel| kernel.get(i)) {
                solved += new.known.count_ones() as usize;
                changed |= known.merge(new);
            }
            if changed {
                let prefix = self.lo + i;
                self.cache.store_solves(&self.key[..1 + 2 * prefix], known);
            }
        }
        self.cache.record_solves(self.hits, solved);
    }
}

/// One checkpoint count's slice of the candidate grid: `checkpoints` points
/// are held out, leaving `n_train` training points whose prefixes span the
/// contiguous range `prefix_start..=prefix_end`. A fitted prefix is scored
/// once against every span that covers it — the parameters of a grid cell
/// depend only on the prefix, never on the checkpoint count.
#[derive(Debug, Clone, Copy)]
struct CheckpointSpan {
    checkpoints: usize,
    n_train: usize,
    prefix_start: usize,
    prefix_end: usize,
}

impl CheckpointSpan {
    /// Number of grid cells (prefix lengths) in this span.
    fn width(&self) -> usize {
        self.prefix_end - self.prefix_start + 1
    }

    /// Whether `prefix` is one of this span's cells.
    fn covers(&self, prefix: usize) -> bool {
        prefix >= self.prefix_start && prefix <= self.prefix_end
    }
}

/// Smallest and largest prefix any span covers.
fn prefix_range(spans: &[CheckpointSpan]) -> (usize, usize) {
    let lo = spans.iter().map(|s| s.prefix_start).min().unwrap_or(0);
    let hi = spans.iter().map(|s| s.prefix_end).max().unwrap_or(0);
    (lo, hi)
}

/// Whether `prefix` is a cell of any span. Without prefix refitting the
/// spans are single points, so the range between them has gaps.
fn covered(spans: &[CheckpointSpan], prefix: usize) -> bool {
    spans.iter().any(|s| s.covers(prefix))
}

/// Prefix range for a training set of `n_train` points.
fn prefix_bounds(options: &FitOptions, n_train: usize) -> (usize, usize) {
    if options.prefix_refitting {
        (options.min_training_points, n_train)
    } else {
        (n_train, n_train)
    }
}

/// The candidate grid, with the nonlinear solves drawn from (and added to)
/// `memo`'s solve memo when one is given. The candidates are bit-identical
/// either way: a memoised solve is the exact parameter vector the same prefix
/// and LM options produced before.
fn candidate_grid(
    xs: &[f64],
    ys: &[f64],
    options: &FitOptions,
    engine: &Engine,
    memo: Option<&FitCache>,
) -> Result<Vec<FitCandidate>> {
    if xs.len() != ys.len() {
        return Err(EstimaError::Numerical(
            "candidate_fits: xs/ys length mismatch".into(),
        ));
    }
    let m = xs.len();
    if options.kernels.is_empty() {
        return Err(EstimaError::InvalidConfig("empty kernel set".into()));
    }
    // The walk and every candidate's eval table cover `1..=horizon`.
    if options.realism_horizon > MAX_TARGET_CORES {
        return Err(EstimaError::InvalidConfig(format!(
            "realism horizon must be at most {MAX_TARGET_CORES} cores"
        )));
    }
    let mut viable_checkpoint_counts: Vec<usize> = options
        .checkpoint_counts
        .iter()
        .copied()
        .filter(|c| *c >= 1 && m >= c + options.min_training_points.max(2))
        .collect();
    if viable_checkpoint_counts.is_empty() {
        // Degrade gracefully to a single checkpoint when the series is short.
        if m > options.min_training_points {
            viable_checkpoint_counts.push(1);
        } else {
            return Err(EstimaError::InsufficientMeasurements {
                required: options.min_training_points + 1,
                available: m,
            });
        }
    }

    let spans: Vec<CheckpointSpan> = viable_checkpoint_counts
        .iter()
        .map(|&c| {
            let n_train = m - c;
            let (prefix_start, prefix_end) = prefix_bounds(options, n_train);
            CheckpointSpan {
                checkpoints: c,
                n_train,
                prefix_start,
                prefix_end,
            }
        })
        .collect();

    let data_max = ys.iter().copied().fold(0.0f64, f64::max);
    let magnitude_cap = if data_max > 0.0 {
        (data_max * options.max_growth_factor).min(options.max_magnitude)
    } else {
        options.max_magnitude
    };
    let grid = Grid {
        xs,
        ys,
        spans: &spans,
        options,
        magnitude_cap,
        // One past the series' largest measured x (the series covers *all*
        // measured points — checkpoints included). Saturates: an x at or
        // beyond `u32::MAX` leaves the tail empty.
        tail_start: (xs.iter().fold(0.0f64, |a, x| a.max(*x)) as u32).saturating_add(1),
    };

    let solves = memo.and_then(|cache| SeriesSolves::open(cache, xs, ys, options, &spans));
    let known = solves.as_ref().map(|solves| solves.known.as_slice());
    let (mut kernel_grids, fresh): (Vec<_>, Vec<_>) = engine
        .run(options.kernels.clone(), |kernel| {
            with_fit_workspace(|ws| fit_kernel_grid(&grid, kernel, known, ws))
        })
        .into_iter()
        .unzip();
    if let Some(solves) = solves {
        solves.store(fresh);
    }

    // Reassemble in the historical enumeration order: checkpoint count →
    // prefix length → kernel. Tie-breaking in `select_best` keeps the first
    // candidate of equal RMSE, so the order is part of the contract.
    let mut out = Vec::new();
    let mut base = 0;
    for span in &spans {
        for pi in 0..span.width() {
            for grid in kernel_grids.iter_mut() {
                if let Some(candidate) = grid[base + pi].take() {
                    out.push(candidate);
                }
            }
        }
        base += span.width();
    }
    Ok(out)
}

/// One candidate grid's fixed inputs: the series, its checkpoint spans, the
/// options, and what scoring a cell reads besides the cell's parameters.
struct Grid<'a> {
    xs: &'a [f64],
    ys: &'a [f64],
    spans: &'a [CheckpointSpan],
    options: &'a FitOptions,
    /// Largest magnitude a realistic curve may reach inside the horizon.
    magnitude_cap: f64,
    /// First extrapolated core count, for every candidate's eval table.
    tail_start: u32,
}

/// Fit every (checkpoint count × prefix) cell of one kernel from a shared
/// columnar design slab. Returns one slot per cell, flattened in (checkpoint
/// span → prefix) order — the same layout [`candidate_grid`] reassembles
/// from — and, when `known` solves are given, the solves this call added
/// (one per grid prefix; empty for linear kernels and the uncached path).
fn fit_kernel_grid(
    grid: &Grid<'_>,
    kernel: KernelKind,
    known: Option<&[PrefixSolves]>,
    ws: &mut FitWorkspace,
) -> (Vec<Option<FitCandidate>>, Vec<PrefixSolves>) {
    ws.horizon.cover(grid.options.realism_horizon);
    let total: usize = grid.spans.iter().map(CheckpointSpan::width).sum();
    let mut out = vec![None; total];
    let fresh = if kernel.is_linear() {
        fit_linear_grid(grid, kernel, ws, &mut out);
        Vec::new()
    } else {
        fit_nonlinear_grid(grid, kernel, known, ws, &mut out)
    };
    (out, fresh)
}

/// Score one solved prefix against every checkpoint span covering it, writing
/// the candidates into the flattened (span → prefix) output slots.
///
/// Only the checkpoint RMSE depends on the span. The training RMSE, the
/// realism walk and the eval table depend on (kernel, params, prefix,
/// horizon, magnitude cap) alone, so they are computed once, for the first
/// span whose checkpoint RMSE is finite, and every span's candidate shares
/// the eval table.
fn score_prefix_into(
    grid: &Grid<'_>,
    kernel: KernelKind,
    params: &[f64],
    prefix: usize,
    table: &HorizonTable,
    walked: &mut Vec<f64>,
    out: &mut [Option<FitCandidate>],
) {
    let (xs, ys) = (grid.xs, grid.ys);
    // `Some(None)` once the walk has rejected the curve.
    let mut shared: Option<Option<(f64, CandidateEvals)>> = None;
    let mut base = 0;
    for span in grid.spans {
        if span.covers(prefix) {
            let n_train = span.n_train;
            let checkpoint_rmse = model_rmse(kernel, params, &xs[n_train..], &ys[n_train..]);
            if checkpoint_rmse.is_finite() {
                let scored = shared.get_or_insert_with(|| {
                    let realistic = table.walk(kernel, params, grid.magnitude_cap, walked);
                    realistic.then(|| {
                        let training_rmse =
                            model_rmse(kernel, params, &xs[..prefix], &ys[..prefix]);
                        (training_rmse, CandidateEvals::new(walked, grid.tail_start))
                    })
                });
                if let Some((training_rmse, evals)) = scored {
                    out[base + prefix - span.prefix_start] = Some(FitCandidate {
                        curve: FittedCurve {
                            kernel,
                            params: params.to_vec(),
                            checkpoint_rmse,
                            training_rmse: *training_rmse,
                            training_points: prefix,
                        },
                        checkpoints: span.checkpoints,
                        evals: evals.clone(),
                    });
                }
            }
        }
        base += span.width();
    }
}

/// RMSE of the kernel at `params` over `(xs, ys)`, without materialising the
/// prediction vector. Mirrors [`crate::stats::rmse`]'s conventions.
fn model_rmse(kernel: KernelKind, params: &[f64], xs: &[f64], ys: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::INFINITY;
    }
    let mut sum = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        let d = kernel.eval(params, *x) - y;
        sum += d * d;
    }
    (sum / xs.len() as f64).sqrt()
}

/// Linear-kernel grid: the columnar design slab is built once over the
/// longest training range; each distinct prefix is a rank-1 update of the
/// running normal equations followed by an in-place Cholesky solve
/// (ridge-regularised when the system is under-determined or numerically not
/// positive definite), then scored against every covering checkpoint span.
fn fit_linear_grid(
    grid: &Grid<'_>,
    kernel: KernelKind,
    ws: &mut FitWorkspace,
    out: &mut [Option<FitCandidate>],
) {
    let (xs, ys, spans) = (grid.xs, grid.ys, grid.spans);
    let p = kernel.param_count();
    let n_build = spans.iter().map(|s| s.n_train).max().unwrap_or(0);
    let (lo, hi) = prefix_range(spans);
    // Columnar slab over the longest training range: column `j` holds design
    // component `j` at every training point. Design rows depend only on the
    // point, so one slab serves every checkpoint span.
    grow(&mut ws.design, p * n_build);
    let mut row = [0.0f64; MAX_PARAMS];
    for (i, x) in xs[..n_build].iter().enumerate() {
        kernel.design_row_into(*x, &mut row[..p]);
        for (j, v) in row[..p].iter().enumerate() {
            ws.design[j * n_build + i] = *v;
        }
    }
    grow(&mut ws.gram, p * p);
    grow(&mut ws.rhs, p);
    grow(&mut ws.solve_mat, p * p);
    grow(&mut ws.solve_rhs, p);
    ws.gram[..p * p].fill(0.0);
    ws.rhs[..p].fill(0.0);

    let mut rows_in = 0;
    for prefix in lo..=hi {
        // Skipped prefixes are caught up by the incremental accumulation
        // below.
        if !covered(spans, prefix) {
            continue;
        }
        while rows_in < prefix {
            for (j, slot) in row[..p].iter_mut().enumerate() {
                *slot = ws.design[j * n_build + rows_in];
            }
            accumulate_normal_equations(
                &row[..p],
                ys[rows_in],
                &mut ws.gram[..p * p],
                &mut ws.rhs[..p],
            );
            rows_in += 1;
        }
        let gram = &ws.gram[..p * p];
        let solve_mat = &mut ws.solve_mat[..p * p];
        let solve_rhs = &mut ws.solve_rhs[..p];
        solve_mat.copy_from_slice(gram);
        solve_rhs.copy_from_slice(&ws.rhs[..p]);
        // An under-determined prefix (fewer points than parameters) has a
        // singular gram; go straight to the ridge.
        let mut solved = prefix >= p && cholesky_solve_in_place(solve_mat, p, solve_rhs);
        if !solved {
            solve_mat.copy_from_slice(gram);
            solve_rhs.copy_from_slice(&ws.rhs[..p]);
            let scale = (0..p)
                .map(|i| gram[i * p + i])
                .fold(0.0f64, f64::max)
                .max(1.0);
            for i in 0..p {
                solve_mat[i * p + i] += RIDGE * scale;
            }
            solved = cholesky_solve_in_place(solve_mat, p, solve_rhs);
        }
        if solved {
            score_prefix_into(
                grid,
                kernel,
                &ws.solve_rhs[..p],
                prefix,
                &ws.horizon,
                &mut ws.walked,
                out,
            );
        }
    }
}

/// Nonlinear-kernel grid: the columnar linearised-guess slab is built once
/// over the longest training range; each distinct prefix solves the guess on
/// prefix views of the slab columns, refines it with an allocation-free
/// Levenberg–Marquardt run using the kernel's analytic Jacobian, and scores
/// the result against every covering checkpoint span.
///
/// With the solves `known` before the fit (indexed by `prefix - lo`), a
/// prefix whose outcome is known skips the guess and the LM run and goes
/// straight to scoring (or is skipped, if its LM run failed). Returns the
/// solves this call added, in the same layout (empty without `known`).
fn fit_nonlinear_grid(
    grid: &Grid<'_>,
    kernel: KernelKind,
    known: Option<&[PrefixSolves]>,
    ws: &mut FitWorkspace,
    out: &mut [Option<FitCandidate>],
) -> Vec<PrefixSolves> {
    let (xs, ys, spans) = (grid.xs, grid.ys, grid.spans);
    let p = kernel.param_count();
    let n_build = spans.iter().map(|s| s.n_train).max().unwrap_or(0);
    let (lo, hi) = prefix_range(spans);
    let memoised = |prefix: usize| known.and_then(|known| known[prefix - lo].get(kernel));
    let mut fresh = vec![PrefixSolves::EMPTY; known.map_or(0, <[_]>::len)];

    // Build the shared columnar guess slab once per (kernel, series) pair.
    let exprat = kernel == KernelKind::ExpRat;
    // For ExpRat the linearisation goes through ln(y): it is only usable on
    // prefixes whose values are all positive.
    let positive_limit = if exprat {
        ys[..n_build]
            .iter()
            .position(|y| *y <= 0.0)
            .unwrap_or(n_build)
    } else {
        n_build
    };
    let guess_cols = if exprat { 3 } else { p };
    grow(&mut ws.design, guess_cols * n_build);
    let mut row = [0.0f64; MAX_PARAMS];
    if exprat {
        grow(&mut ws.zs, n_build);
        for i in 0..positive_limit {
            let z = ys[i].ln();
            ws.zs[i] = z;
            fill_exprat_guess_row(&mut row[..3], xs[i], z);
            for (j, v) in row[..3].iter().enumerate() {
                ws.design[j * n_build + i] = *v;
            }
        }
    } else {
        let (num_degree, den_degree) = rational_degrees(kernel);
        for i in 0..n_build {
            fill_rational_guess_row(&mut row[..p], xs[i], ys[i], num_degree, den_degree);
            for (j, v) in row[..p].iter().enumerate() {
                ws.design[j * n_build + i] = *v;
            }
        }
    }

    let mut params_buf = [0.0f64; MAX_PARAMS];
    for prefix in lo..=hi {
        if !covered(spans, prefix) {
            continue;
        }
        let params = &mut params_buf[..p];
        let solved = match memoised(prefix) {
            Some(Some(memo)) => {
                params.copy_from_slice(memo);
                true
            }
            Some(None) => false,
            None => {
                let solved = solve_prefix(
                    xs,
                    ys,
                    kernel,
                    prefix,
                    positive_limit,
                    n_build,
                    grid.options,
                    ws,
                    params,
                );
                if let Some(slot) = fresh.get_mut(prefix - lo) {
                    slot.set(kernel, solved.then_some(&*params));
                }
                solved
            }
        };
        if solved {
            score_prefix_into(
                grid,
                kernel,
                params,
                prefix,
                &ws.horizon,
                &mut ws.walked,
                out,
            );
        }
    }
    fresh
}

/// Solve one nonlinear grid cell into `params`: the linearised initial guess
/// on the shared slab, refined by Levenberg–Marquardt. Returns whether the LM
/// run converged. Reads only the prefix's points (`positive_limit` only says
/// whether they are all positive), so the outcome is a function of the
/// prefix and the LM options — what lets the solve memo reuse it.
#[allow(clippy::too_many_arguments)]
fn solve_prefix(
    xs: &[f64],
    ys: &[f64],
    kernel: KernelKind,
    prefix: usize,
    positive_limit: usize,
    n_build: usize,
    options: &FitOptions,
    ws: &mut FitWorkspace,
    params: &mut [f64],
) -> bool {
    let p = kernel.param_count();
    let px = &xs[..prefix];
    let py = &ys[..prefix];
    // Linearised initial guess on the shared slab: column construction
    // and fallbacks go through the same `fill_*_guess_row` /
    // `fallback_guess` helpers as `linearized_initial_guess`, and the
    // columnar QR transposes into the exact row-major work buffer the
    // one-shot path factorises, so the two paths cannot drift apart.
    let mean_y = py.iter().sum::<f64>() / prefix as f64;
    let mut guessed = false;
    if kernel == KernelKind::ExpRat {
        if prefix <= positive_limit && prefix >= 3 {
            if let Ok(sol) =
                solve_least_squares_qr_columns(&ws.design, n_build, prefix, 3, &ws.zs[..prefix])
            {
                if sol.iter().all(|v| v.is_finite()) {
                    params.copy_from_slice(&[sol[0], sol[1], 1.0, sol[2]]);
                    guessed = true;
                }
            }
        }
    } else if prefix >= p {
        if let Ok(sol) = solve_least_squares_qr_columns(&ws.design, n_build, prefix, p, py) {
            if sol.iter().all(|v| v.is_finite()) {
                params.copy_from_slice(&sol);
                guessed = true;
            }
        }
    }
    if !guessed {
        fallback_guess(kernel, mean_y, params);
    }
    levenberg_marquardt_into(&kernel, px, py, params, &options.lm, &mut ws.lm).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::levenberg::Jacobian;

    fn series_from(kernel: KernelKind, params: &[f64], max: u32) -> (Vec<f64>, Vec<f64>) {
        let xs: Vec<f64> = (1..=max).map(|c| c as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| kernel.eval(params, *x)).collect();
        (xs, ys)
    }

    #[test]
    fn solve_slots_pack_every_nonlinear_kernel() {
        let mut end = 0;
        for kernel in KernelKind::ALL.into_iter().filter(|k| !k.is_linear()) {
            let (_, offset) = solve_slot(kernel);
            assert_eq!(offset, end, "{kernel:?} does not follow its predecessor");
            end += kernel.param_count();
        }
        assert_eq!(end, SOLVE_PARAMS);

        let mut solves = PrefixSolves::EMPTY;
        solves.set(
            KernelKind::Rat33,
            Some(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]),
        );
        solves.set(KernelKind::ExpRat, None);
        let mut merged = PrefixSolves::EMPTY;
        assert!(merged.merge(&solves));
        assert!(!merged.merge(&solves), "nothing new the second time");
        assert_eq!(merged.get(KernelKind::Rat22), None);
        assert_eq!(merged.get(KernelKind::ExpRat), Some(None));
        assert_eq!(
            merged.get(KernelKind::Rat33),
            Some(Some(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0][..]))
        );
    }

    #[test]
    fn linear_kernel_recovers_exact_parameters() {
        let true_params = [10.0, 5.0, 1.5, 0.2];
        let (xs, ys) = series_from(KernelKind::Poly25, &true_params, 12);
        let fitted = fit_kernel(KernelKind::Poly25, &xs, &ys, &LmOptions::default()).unwrap();
        for (f, t) in fitted.iter().zip(&true_params) {
            assert!((f - t).abs() < 1e-6, "fitted {fitted:?}");
        }
    }

    #[test]
    fn cubicln_recovers_exact_parameters() {
        let true_params = [100.0, 20.0, 3.0, 0.5];
        let (xs, ys) = series_from(KernelKind::CubicLn, &true_params, 12);
        let fitted = fit_kernel(KernelKind::CubicLn, &xs, &ys, &LmOptions::default()).unwrap();
        for (f, t) in fitted.iter().zip(&true_params) {
            assert!((f - t).abs() < 1e-6);
        }
    }

    #[test]
    fn rational_kernel_reproduces_series() {
        let true_params = [50.0, 10.0, 2.0, 0.05, 0.001];
        let (xs, ys) = series_from(KernelKind::Rat22, &true_params, 12);
        let fitted = fit_kernel(KernelKind::Rat22, &xs, &ys, &LmOptions::default()).unwrap();
        // Parameters of rational fits are not unique; check the values match.
        for (x, y) in xs.iter().zip(&ys) {
            let v = KernelKind::Rat22.eval(&fitted, *x);
            assert!((v - y).abs() / y < 1e-4, "at {x}: {v} vs {y}");
        }
    }

    #[test]
    fn exprat_reproduces_series() {
        let true_params = [2.0, 0.3, 1.0, 0.05];
        let (xs, ys) = series_from(KernelKind::ExpRat, &true_params, 12);
        let fitted = fit_kernel(KernelKind::ExpRat, &xs, &ys, &LmOptions::default()).unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            let v = KernelKind::ExpRat.eval(&fitted, *x);
            assert!((v - y).abs() / y < 1e-3, "at {x}: {v} vs {y}");
        }
    }

    #[test]
    fn approximate_series_extrapolates_growing_stalls() {
        // Quadratic-ish growth in total stall cycles: Poly25/rational kernels
        // should capture it and extrapolate sensibly to 4x the cores.
        let xs: Vec<f64> = (1..=12).map(|c| c as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 1000.0 + 50.0 * x + 8.0 * x * x).collect();
        let curve = approximate_series(
            &xs,
            &ys,
            "test",
            &FitOptions::default(),
            &FitContext::default(),
        )
        .unwrap();
        let at_48 = curve.eval(48.0);
        let truth = 1000.0 + 50.0 * 48.0 + 8.0 * 48.0 * 48.0;
        assert!(
            (at_48 - truth).abs() / truth < 0.25,
            "extrapolated {at_48}, truth {truth}"
        );
    }

    #[test]
    fn approximate_series_flat_series() {
        let xs: Vec<f64> = (1..=10).map(|c| c as f64).collect();
        let ys = vec![500.0; 10];
        let curve = approximate_series(
            &xs,
            &ys,
            "flat",
            &FitOptions::default(),
            &FitContext::default(),
        )
        .unwrap();
        let at_40 = curve.eval(40.0);
        assert!((at_40 - 500.0).abs() / 500.0 < 0.05, "{at_40}");
    }

    #[test]
    fn approximate_series_needs_enough_points() {
        let xs = vec![1.0, 2.0];
        let ys = vec![1.0, 2.0];
        let err = approximate_series(
            &xs,
            &ys,
            "short",
            &FitOptions::default(),
            &FitContext::default(),
        );
        assert!(err.is_err());
    }

    #[test]
    fn candidates_are_all_realistic() {
        let xs: Vec<f64> = (1..=12).map(|c| c as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 100.0 * x).collect();
        let opts = FitOptions::default();
        let candidates = candidate_fits(&xs, &ys, &opts, &FitContext::default()).unwrap();
        assert!(!candidates.is_empty());
        for c in candidates.iter() {
            assert!(c
                .curve
                .is_realistic(opts.realism_horizon, opts.max_magnitude));
            assert!(c.curve.checkpoint_rmse.is_finite());
        }
    }

    #[test]
    fn prefix_refitting_produces_more_candidates() {
        let xs: Vec<f64> = (1..=12).map(|c| c as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 10.0 + x * x).collect();
        let with = candidate_fits(&xs, &ys, &FitOptions::default(), &FitContext::default())
            .unwrap()
            .len();
        let without = candidate_fits(
            &xs,
            &ys,
            &FitOptions {
                prefix_refitting: false,
                ..FitOptions::default()
            },
            &FitContext::default(),
        )
        .unwrap()
        .len();
        assert!(with > without);
    }

    #[test]
    fn empty_kernel_set_is_invalid_config() {
        let xs: Vec<f64> = (1..=8).map(|c| c as f64).collect();
        let ys = xs.clone();
        let opts = FitOptions {
            kernels: vec![],
            ..FitOptions::default()
        };
        assert!(matches!(
            candidate_fits(&xs, &ys, &opts, &FitContext::default()),
            Err(EstimaError::InvalidConfig(_))
        ));
    }

    #[test]
    fn a_horizon_beyond_max_target_cores_is_invalid_config() {
        // Refused before anything is sized by the horizon.
        let xs: Vec<f64> = (1..=8).map(|c| c as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 100.0 + 10.0 * x).collect();
        let at = |realism_horizon| FitOptions {
            realism_horizon,
            ..FitOptions::default()
        };
        for horizon in [MAX_TARGET_CORES + 1, 1 << 30, u32::MAX] {
            assert!(matches!(
                candidate_fits(&xs, &ys, &at(horizon), &FitContext::default()),
                Err(EstimaError::InvalidConfig(_))
            ));
            assert!(matches!(
                approximate_series(&xs, &ys, "wide", &at(horizon), &FitContext::default()),
                Err(EstimaError::InvalidConfig(_))
            ));
        }
        let widest =
            candidate_fits(&xs, &ys, &at(MAX_TARGET_CORES), &FitContext::default()).unwrap();
        assert!(widest.iter().all(|c| c.evals.horizon() == MAX_TARGET_CORES));
    }

    #[test]
    fn a_core_count_at_u32_max_leaves_the_tail_empty() {
        // One past the largest measured core count saturates.
        let mut xs: Vec<f64> = (1..=7).map(|c| c as f64).collect();
        xs.push(u32::MAX as f64);
        let ys: Vec<f64> = xs.iter().map(|x| 100.0 + 2.0 * x).collect();
        let candidates =
            candidate_fits(&xs, &ys, &FitOptions::default(), &FitContext::default()).unwrap();
        assert!(!candidates.is_empty());
        for candidate in candidates.iter() {
            let evals = &candidate.evals;
            assert_eq!(evals.tail_start(), u32::MAX);
            assert_eq!((evals.tail_max(), evals.tail_min()), (0.0, f64::INFINITY));
        }
    }

    #[test]
    fn short_series_degrades_to_one_checkpoint() {
        // Four points: cannot hold out 2 or 4 checkpoints with 3 training
        // points, so the fitter falls back to a single checkpoint.
        let xs = vec![1.0, 2.0, 3.0, 4.0];
        let ys = vec![10.0, 12.0, 14.0, 16.0];
        let curve = approximate_series(
            &xs,
            &ys,
            "short",
            &FitOptions::default(),
            &FitContext::default(),
        )
        .unwrap();
        assert!(curve.eval(8.0).is_finite());
    }

    #[test]
    fn strip_grid_matches_per_cell_reference() {
        // The strip-structured grid must enumerate exactly the cells the
        // original per-cell loop did, in the same order: fit every cell
        // individually through the public one-shot API and compare kernels,
        // prefix lengths, and checkpoint counts (parameters may differ
        // slightly: the one-shot linear path uses QR, the grid incremental
        // normal equations).
        let xs: Vec<f64> = (1..=12).map(|c| c as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 200.0 + 30.0 * x + 2.0 * x * x).collect();
        let options = FitOptions::default();
        let candidates = candidate_fits(&xs, &ys, &options, &FitContext::default()).unwrap();
        assert!(!candidates.is_empty());
        // Grid cells appear in (checkpoint → prefix → kernel) order.
        let mut previous: Option<(usize, usize)> = None;
        for candidate in candidates.iter() {
            let key = (candidate.checkpoints, candidate.curve.training_points);
            if let Some(prev) = previous {
                if prev.0 == key.0 {
                    assert!(
                        key.1 >= prev.1,
                        "prefixes out of order: {prev:?} -> {key:?}"
                    );
                }
            }
            previous = Some(key);
        }
        // Every candidate must reproduce its own training prefix reasonably.
        for candidate in candidates.iter() {
            assert!(candidate.curve.training_rmse.is_finite());
        }
    }

    #[test]
    fn analytic_and_fd_grids_produce_equivalent_winners() {
        let xs: Vec<f64> = (1..=12).map(|c| c as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| 1.0e9 + 2.0e7 * x + 5.0e5 * x * x)
            .collect();
        let analytic = approximate_series(
            &xs,
            &ys,
            "a",
            &FitOptions::default(),
            &FitContext::default(),
        )
        .unwrap();
        let fd_options = FitOptions {
            lm: LmOptions {
                jacobian: Jacobian::FiniteDifference,
                ..LmOptions::default()
            },
            ..FitOptions::default()
        };
        let fd = approximate_series(&xs, &ys, "fd", &fd_options, &FitContext::default()).unwrap();
        // Both must extrapolate the quadratic trend closely.
        for cores in [24.0, 48.0] {
            let truth = 1.0e9 + 2.0e7 * cores + 5.0e5 * cores * cores;
            for curve in [&analytic, &fd] {
                let v = curve.eval(cores);
                assert!(
                    (v - truth).abs() / truth < 0.05,
                    "{:?} at {cores}: {v} vs {truth}",
                    curve.kernel
                );
            }
        }
    }
}
