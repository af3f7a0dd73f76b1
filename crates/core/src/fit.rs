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
//! The survivors come back as one [`Fits`] list, which finds step 4's
//! winner once, when the list is built, so every later reader of a cached
//! list (each category of a prediction, each jackknife leave-out of a plan)
//! reads it in O(1) instead of re-scanning. The list also numbers each
//! candidate's eval table by its (kernel, prefix) cell, so the
//! scaling-factor step can decide once per table what every candidate
//! sharing that table shares, and a scaling-factor list remembers that
//! step's choice for the inputs it first saw.
//!
//! # The fitting hot path
//!
//! The candidate grid is the dominant cost of the whole pipeline, so it is
//! organised around the *training-prefix structure*: the fitted parameters of
//! a grid cell depend only on the training prefix `(kernel, prefix)` — never
//! on the checkpoint count, which only picks the held-out points the fit is
//! scored against. The grid therefore runs in two phases.
//!
//! The **solve phase** fans out **one work item per kernel** with a cell to
//! compute, and each item
//!
//! * builds one **columnar design slab** (column-major, stride = the longest
//!   training range) over the union of all checkpoint counts' training
//!   ranges, so every prefix of every checkpoint span reads the same
//!   transformed columns instead of rebuilding rows per cell (and builds
//!   none when the solve memo below holds every solve),
//! * solves each distinct prefix **once** and runs the realism walk on the
//!   solved curve, once per prefix; the walk's integer-grid eval table is
//!   the curve's value at every integer core count inside the horizon (bit
//!   for bit [`KernelKind::eval`] there), and the training RMSE reads it,
//! * for linear kernels (`CubicLn`, `Poly25`) maintains the normal equations
//!   **incrementally** — growing the prefix by one point is a rank-1 update
//!   of `AᵀA` / `Aᵀy` followed by an in-place Cholesky solve,
//! * for nonlinear kernels seeds each prefix from a linearised least-squares
//!   solve over prefix views of the shared slab columns and refines with
//!   Levenberg–Marquardt using the kernel's analytic Jacobian and a
//!   per-thread [`LmWorkspace`], so the LM iterations allocate nothing.
//!
//! The **scoring loop** then visits the cells in the historical enumeration
//! order (checkpoint span → prefix → kernel) and pushes each candidate once,
//! numbered by its (kernel, prefix) cell as it goes. A cell comes from the
//! solve phase or straight from the memo; the magnitude cap reads its
//! walk's maximum, and only the checkpoint RMSE depends on the span, read
//! from the cell's table. Every span's candidate shares that one table and
//! carries its parameters inline ([`Params`]), so a candidate allocates
//! nothing of its own. The candidates collect in a buffer of the thread's
//! workspace and move into a list allocated once, at its final length.
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
//! [`candidate_fits`] and [`approximate_series`] are the only public ways
//! into the grid. Their [`FitContext`] says how a fit runs: the [`Engine`]
//! the grid fans out on, and optionally the shared [`FitCache`] its
//! candidates come from, with the store [`CacheScope`] that tags its cache
//! keys. Both go through the crate's `ColumnFits`, which a prediction also
//! uses to fit every series over its rows' core counts under one cache key
//! base.
//!
//! There is one solver family: [`fit_kernel`], the one-shot fit of one
//! kernel to one series, runs the grid's cell solver on the series'
//! full-length prefix, so its parameters are bit for bit the grid cell's.
//!
//! # The solve memo
//!
//! A cell's solve (the linear kernels' Cholesky, the nonlinear kernels'
//! linearised guess plus LM run) is a pure function of the prefix's points,
//! since the LM settings are fixed (see [`crate::levenberg`]). So is most
//! of its scoring: the realism walk at a horizon, the training RMSE and the
//! eval table read nothing but the parameters, the prefix and the horizon.
//! Only the checkpoint RMSE reads the held-out points, and the magnitude
//! cap reads the series maximum — and the walk takes no cap: it returns the
//! largest value it captured, and a cap keeps the curve iff `!(max > cap)`.
//!
//! A fit with a cache therefore looks every prefix up in the [`FitCache`]'s
//! memo first, hashing the series' points in one pass that reads every
//! prefix's hashes on the way; a lookup hands out the entry's one shared
//! `Arc`. Each prefix's entry holds, per kernel, the solve (a failed one
//! included) and, once a grid walked the solved curve, the walk's verdict,
//! maximum, training RMSE and eval table at that grid's horizon, the table
//! with its tail fold from that grid's first extrapolated core count (a
//! walk at another horizon replaces them; the solve stays). Every solved
//! cell is walked, whatever its checkpoint RMSEs.
//!
//! Only a kernel with a covered cell the memo lacks — its solve, or a
//! solved cell's scored part at this horizon — joins the solve phase. A
//! cell known at this horizon skips the solve and the walk and pays only
//! the cap test and, when the cap keeps it, its checkpoint RMSEs, read from
//! its memoised table. Its candidates share that table and its tail fold; a
//! series whose largest core count differs from the walking grid's folds
//! its own tail. The computed cells are stored after the scoring loop.
//! Refitting a series whose newest point changed finds every cell
//! memoised, so it fans nothing out: no engine run, no copy of the kernel
//! list, no per-kernel buffer and no computed cell. An appended point
//! computes one new prefix per kernel. A fit without a cache computes
//! every cell and stays the reference the memoised path is tested against.

use std::cell::RefCell;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use crate::config::MAX_TARGET_CORES;
use crate::engine::{CacheScope, Engine, FitCache, KeyBase, KeyHash};
use crate::error::{EstimaError, Result};
use crate::kernels::{within_cap, FittedCurve, HorizonTable, KernelKind, Params};
use crate::levenberg::{levenberg_marquardt_into, LmWorkspace, MAX_PARAMS};
use crate::linalg::{
    accumulate_normal_equations, cholesky_solve_in_place, solve_least_squares_qr_columns,
};

/// Ridge factor (relative to the largest gram diagonal) applied when a linear
/// system is under-determined or numerically not positive definite.
const RIDGE: f64 = 1e-8;

/// Fewest training points any fit uses: the paper refits on every prefix
/// `i in 3..=n` of the training points (§3.1.2).
pub const MIN_TRAINING_POINTS: usize = 3;

/// Largest magnitude a realistic curve may reach inside the realism
/// horizon; guards against explosive extrapolations.
pub const MAX_MAGNITUDE: f64 = 1e18;

/// Options for fitting a single series.
#[derive(Debug, Clone)]
pub struct FitOptions {
    /// Kernels to consider (defaults to all six of Table 1).
    pub kernels: Vec<KernelKind>,
    /// Candidate checkpoint counts; the paper uses 2 and 4. Each viable value
    /// (i.e. leaving at least [`MIN_TRAINING_POINTS`] training points) is
    /// tried and candidates compete across checkpoint counts.
    pub checkpoint_counts: Vec<usize>,
    /// Largest core count the fitted curve must stay realistic up to.
    pub realism_horizon: u32,
    /// Upper bound on how much a realistic curve may grow relative to the
    /// largest training value. Stall categories grow by at most a few tens of
    /// times when quadrupling the core count; a fit that extrapolates to
    /// hundreds of times the measured maximum is chasing noise or a pole.
    pub max_growth_factor: f64,
    /// Whether to refit on every prefix `i in 3..=n` (the paper's
    /// anti-over-fitting loop) or only on the full training set.
    pub prefix_refitting: bool,
}

impl Default for FitOptions {
    fn default() -> Self {
        FitOptions {
            kernels: KernelKind::ALL.to_vec(),
            checkpoint_counts: vec![2, 4],
            realism_horizon: 64,
            max_growth_factor: 100.0,
            prefix_refitting: true,
        }
    }
}

thread_local! {
    /// Per-thread fitting scratch. Engine workers and the calling thread get
    /// exactly one each, so grid fan-outs of any width reuse a fixed set of
    /// buffers across every strip they process ("one workspace per worker").
    static FIT_WORKSPACE: RefCell<FitWorkspace> = RefCell::new(FitWorkspace::default());
}

/// Reusable scratch for one worker thread: the Levenberg–Marquardt workspace,
/// the design-matrix and normal-equation buffers of the grid fitter, the
/// realism walk's table and capture buffer, and the scoring loop's
/// candidate buffer.
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
    /// Householder QR scratch for the linearised guess: the row-major
    /// factor, the right-hand side and one reflection vector.
    qr: Vec<f64>,
    /// The realism walk's abscissae at the last grid's horizon; rebuilt
    /// only when the horizon changes.
    horizon: HorizonTable,
    /// The values the walk of the current prefix captured.
    walked: Vec<f64>,
    /// The scoring loop's candidates, before they move into their list.
    scored: Vec<FitCandidate>,
}

fn with_fit_workspace<R>(f: impl FnOnce(&mut FitWorkspace) -> R) -> R {
    FIT_WORKSPACE.with(|ws| f(&mut ws.borrow_mut()))
}

fn grow(buf: &mut Vec<f64>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

/// Fit a single kernel to the series `(xs, ys)` and return its parameters.
///
/// This is one cell of the candidate grid: the cell solver the grid runs, on
/// the series' full-length prefix, so the parameters are bit for bit the ones
/// [`candidate_fits`] fits for that training prefix. Linear kernels solve
/// their normal equations (through a light ridge when the series has fewer
/// points than the kernel has parameters, as the memcached scenario of §4.3
/// does); nonlinear kernels refine a linearised guess with
/// Levenberg–Marquardt.
///
/// Returns an error for an empty or mismatched series, or when the cell
/// finds no solution.
pub fn fit_kernel(kernel: KernelKind, xs: &[f64], ys: &[f64]) -> Result<Params> {
    if xs.len() != ys.len() || xs.is_empty() {
        return Err(EstimaError::Numerical("fit_kernel: bad series".into()));
    }
    let mut buf = [0.0f64; MAX_PARAMS];
    let params = &mut buf[..kernel.param_count()];
    let solved =
        with_fit_workspace(|ws| CellSolver::new(kernel, xs, ys).solve(xs.len(), ws, params));
    if !solved {
        return Err(EstimaError::Numerical(format!(
            "fit_kernel: no {kernel} solution"
        )));
    }
    Ok(Params::from(&*params))
}

/// Flat-function fallback guess when the linearised system cannot be solved:
/// the mean of the data for rational kernels, `exp(ln mean)` for `ExpRat`.
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
/// `z = ln y`. `ExpRat` is linearised through `ln y ≈ (a + b n) / (1 + d n)`,
/// with `c` fixed to 1 for the guess.
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
/// `[x^0 .. x^num, -y·x .. -y·x^den]` (row length `num + den + 1`).
///
/// A rational kernel `p(n)/q(n)` with `q(0) = 1` satisfies
/// `y = p(n) - y·(q(n) - 1)`, which is linear in the joint coefficient vector
/// once the measured `y` is substituted on the right-hand side — the classic
/// rational-fit linearisation.
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
    /// that evaluate candidates at integer core counts (both steps of
    /// [`crate::predictor::Estima::predict`]: the per-category
    /// extrapolation and the scaling-factor selection) read the table
    /// instead of re-evaluating the kernel per candidate per core.
    pub evals: CandidateEvals,
}

/// A series' candidate list: every viable candidate in enumeration order,
/// with the model-selection winner of §3.1.2 found once, when the list is
/// built.
///
/// `Fits` derefs to `[FitCandidate]`, so it indexes, iterates and has
/// `.len()` like the list it holds. [`Fits::best`] is the winner:
/// the first candidate of lowest checkpoint RMSE, a NaN RMSE comparing equal
/// to every other. The list also numbers the candidates' eval tables: two
/// candidates carry the same number exactly when they share one table. The
/// grid numbers each (kernel, prefix) cell, whose table every checkpoint
/// span covering the cell shares; a list built by hand (`Fits::from` a
/// `Vec`) numbers its tables by allocation.
///
/// A scaling-factor list also remembers step C's choice (§3.1.3), write
/// once: the first caller's pick together with the exact bits of every
/// other input the choice reads (stalls per core, the factor series, the
/// measured core count). A cached list is shared, so every later caller
/// with the same inputs — each repeat of a prediction, each jackknife
/// leave-out of a repeated plan — compares those words instead of sweeping
/// the tables again; any other inputs are chosen afresh and remembered by
/// no one.
#[derive(Debug, Clone)]
pub struct Fits {
    candidates: Vec<FitCandidate>,
    /// Index of the winner; `None` for an empty list.
    best: Option<usize>,
    tables: usize,
    factor: OnceLock<FactorMemo>,
}

/// Step C's pick among a scaling-factor list: the candidate whose predicted
/// times correlate best with stalls per core.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FactorChoice {
    /// The winner's index among the candidates.
    pub(crate) index: usize,
    /// Pearson correlation of the winner's predicted times with stalls per
    /// core.
    pub(crate) correlation: f64,
}

/// A remembered step C outcome (`None`: no candidate qualified) and the
/// inputs it was chosen for, as bit patterns.
#[derive(Debug, Clone)]
struct FactorMemo {
    stalls_per_core: Box<[u64]>,
    factor_ys: Box<[u64]>,
    measured_cores: u32,
    choice: Option<FactorChoice>,
}

/// `values` as bit patterns.
pub(crate) fn bits(values: &[f64]) -> impl Iterator<Item = u64> + '_ {
    values.iter().map(|value| value.to_bits())
}

/// Whether `values` are `known`'s bit patterns, in one fold over the pairs
/// with no branch per value: `-0.0` is not `0.0`, and a NaN matches only
/// its own payload.
pub(crate) fn same_bits(known: &[u64], values: &[f64]) -> bool {
    known.len() == values.len()
        && known.iter().zip(values).fold(0, |differ, (known, value)| {
            differ | (known ^ value.to_bits())
        }) == 0
}

impl Fits {
    /// Wrap candidates whose table numbers are below `tables`, and find the
    /// winner: [`Iterator::min_by`] keeps the first of equal minima.
    fn numbered(candidates: Vec<FitCandidate>, tables: usize) -> Self {
        let best = candidates
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                a.curve
                    .checkpoint_rmse
                    .partial_cmp(&b.curve.checkpoint_rmse)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(index, _)| index);
        Fits {
            candidates,
            best,
            tables,
            factor: OnceLock::new(),
        }
    }

    /// The winner of §3.1.2 (lowest checkpoint RMSE, ties to the earliest
    /// candidate), or `None` when no candidate survived.
    pub fn best(&self) -> Option<&FitCandidate> {
        self.best.map(|index| &self.candidates[index])
    }

    /// How many table numbers the candidates draw from: every
    /// [`CandidateEvals::table`] in the list is below it. Numbers may go
    /// unused (a cell whose every candidate was rejected).
    pub(crate) fn tables(&self) -> usize {
        self.tables
    }

    /// Step C's choice among these candidates for the given inputs: the
    /// remembered one when they match its inputs bit for bit, else
    /// `choose()`'s, which the list remembers if it remembers nothing yet.
    pub(crate) fn factor_choice(
        &self,
        stalls_per_core: &[f64],
        measured_cores: u32,
        factor_ys: &[f64],
        choose: impl FnOnce() -> Option<FactorChoice>,
    ) -> Option<FactorChoice> {
        if let Some(memo) = self.factor.get() {
            let same = memo.measured_cores == measured_cores
                && same_bits(&memo.stalls_per_core, stalls_per_core)
                && same_bits(&memo.factor_ys, factor_ys);
            return if same { memo.choice } else { choose() };
        }
        let choice = choose();
        // A concurrent first caller may have remembered its inputs already;
        // either memo is exact for its own inputs.
        let _ = self.factor.set(FactorMemo {
            stalls_per_core: bits(stalls_per_core).collect(),
            factor_ys: bits(factor_ys).collect(),
            measured_cores,
            choice,
        });
        choice
    }
}

impl Deref for Fits {
    type Target = [FitCandidate];

    fn deref(&self) -> &[FitCandidate] {
        &self.candidates
    }
}

impl From<Vec<FitCandidate>> for Fits {
    /// A hand-built list, its tables numbered by allocation: candidates
    /// share a number exactly when their eval tables are one `Arc`.
    fn from(mut candidates: Vec<FitCandidate>) -> Self {
        let mut seen: Vec<Arc<[f64]>> = Vec::new();
        for candidate in &mut candidates {
            let values = &candidate.evals.values;
            let table = match seen.iter().position(|known| Arc::ptr_eq(known, values)) {
                Some(table) => table,
                None => {
                    seen.push(Arc::clone(values));
                    seen.len() - 1
                }
            };
            candidate.evals.table = table as u32;
        }
        Fits::numbered(candidates, seen.len())
    }
}

/// Precomputed integer-grid evaluations of a candidate curve: `values[c - 1]
/// == curve.eval(c as f64)` for `c in 1..=horizon` (the fit's
/// [`FitOptions::realism_horizon`]), plus the running max/min of the
/// *extrapolated tail* — the core counts strictly above the fitted series'
/// largest measured count. The tail fold replicates the historical
/// scaling-factor realism check exactly (ascending fold, `0.0` /
/// `f64::INFINITY` initial values), so reading `tail_max`/`tail_min` is
/// bit-identical to re-running that loop.
///
/// In a [`Fits`] list, the candidates of every checkpoint span covering one
/// (kernel, prefix) cell share one table, its tail fold and its number.
#[derive(Debug, Clone)]
pub struct CandidateEvals {
    /// Shared by the candidates of every checkpoint span covering the prefix.
    values: Arc<[f64]>,
    tail_start: u32,
    /// The table's number in its [`Fits`] list (it fills the struct's
    /// padding, so a candidate stays the same size).
    table: u32,
    tail_max: f64,
    tail_min: f64,
}

impl CandidateEvals {
    /// Build the table around values captured by the realism walk
    /// ([`HorizonTable::walk`]). `tail_start` is the first extrapolated core
    /// count (largest measured `x` plus one).
    pub(crate) fn new(values: Arc<[f64]>, tail_start: u32) -> Self {
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
            values,
            tail_start,
            table: 0,
            tail_max,
            tail_min,
        }
    }

    /// This table with its tail folded from `tail_start`: a clone when it
    /// already is, else a fold over the same shared values.
    fn with_tail_start(&self, tail_start: u32) -> Self {
        if self.tail_start == tail_start {
            self.clone()
        } else {
            CandidateEvals::new(Arc::clone(&self.values), tail_start)
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

    /// The table's number in its [`Fits`] list, below [`Fits::tables`]:
    /// equal exactly for the candidates that share this table.
    pub(crate) fn table(&self) -> u32 {
        self.table
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
/// Returns the [`Fits::best`] curve; the error carries the offending
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
    let fits = candidate_fits(xs, ys, options, ctx)?;
    let best = fits.best().ok_or_else(|| EstimaError::NoViableFit {
        category: label.to_string(),
    })?;
    Ok(best.curve.clone())
}

/// Produce every viable candidate fit for the series (all kernels × all
/// prefixes × all checkpoint counts), already filtered for realism, with the
/// lowest-checkpoint-RMSE winner ([`Fits::best`]). The scaling-factor step
/// needs the full candidate list because it selects by correlation rather
/// than checkpoint RMSE.
///
/// The grid fans out one work item per kernel with a cell to compute on
/// `ctx.engine`, each solving and walking its prefixes from a shared
/// columnar design slab; one loop then scores every cell in the historical
/// enumeration order (checkpoint count → prefix → kernel), so the list is
/// identical at any engine width, and numbers each candidate's table by its
/// (kernel, prefix) cell. With `ctx.cache` the list for a given (series,
/// options, scope) is computed once and shared by every later caller,
/// winner and numbering included: the lookup is the cache's one probe,
/// under a key base of `xs`, `options` and `ctx.scope` built for this call
/// (as [`FitCache::get_or_compute`] builds one for a
/// [`FitKey`](crate::engine::FitKey)), and a miss draws its cells from the
/// cache's solve memo.
pub fn candidate_fits(
    xs: &[f64],
    ys: &[f64],
    options: &FitOptions,
    ctx: &FitContext<'_>,
) -> Result<Arc<Fits>> {
    ColumnFits::new(xs, options, ctx).fits(ys)
}

/// [`candidate_fits`] of several series over one `xs`, with one set of
/// options, in one context. With a cache, their keys continue one
/// [`KeyBase`], so the part of the key they share is interned and hashed
/// once; each series then costs one [`FitCache::probe`] over its `ys`. A
/// prediction fits every stall category and the scaling factor over its
/// rows' core counts through one.
pub(crate) struct ColumnFits<'a> {
    xs: &'a [f64],
    options: &'a FitOptions,
    engine: Engine,
    cached: Option<(&'a FitCache, KeyBase<'a>)>,
}

impl<'a> ColumnFits<'a> {
    pub(crate) fn new(xs: &'a [f64], options: &'a FitOptions, ctx: &FitContext<'a>) -> Self {
        ColumnFits {
            xs,
            options,
            engine: ctx.engine,
            cached: ctx
                .cache
                .map(|cache| (cache, cache.key_base(xs, options, ctx.scope))),
        }
    }

    /// The candidate list of `(xs, ys)`: [`candidate_fits`]'s, bit for bit.
    pub(crate) fn fits(&self, ys: &[f64]) -> Result<Arc<Fits>> {
        let (xs, options, engine) = (self.xs, self.options, &self.engine);
        match &self.cached {
            Some((cache, base)) => cache.probe(base, ys, || {
                candidate_grid(xs, ys, options, engine, Some(cache))
            }),
            None => candidate_grid(xs, ys, options, engine, None).map(Arc::new),
        }
    }
}

/// [`candidate_fits`] on `engine` without a cache. Kept for the stand-alone
/// `servebench` crate, whose trace times the bare grid through it.
pub fn candidate_fits_with(
    xs: &[f64],
    ys: &[f64],
    options: &FitOptions,
    engine: &Engine,
) -> Result<Arc<Fits>> {
    candidate_fits(xs, ys, options, &FitContext::new(*engine))
}

/// Length of [`PrefixSolves::params`]: the parameter counts of the six
/// kernels (5 + 6 + 7 + 4 + 4 + 4), packed back to back in Table 1 order.
const SOLVE_PARAMS: usize = 30;

/// A kernel's slot in a [`PrefixSolves`]: its index (the position of its
/// flag bits and of its scored part) and the offset of its parameters.
fn solve_slot(kernel: KernelKind) -> (usize, usize) {
    match kernel {
        KernelKind::Rat22 => (0, 0),
        KernelKind::Rat23 => (1, 5),
        KernelKind::Rat33 => (2, 11),
        KernelKind::CubicLn => (3, 18),
        KernelKind::ExpRat => (4, 22),
        KernelKind::Poly25 => (5, 26),
    }
}

/// The memoised cells of one training prefix. For each kernel: its solve
/// (nothing yet, "no solution", or the fitted parameters) and, once a grid
/// has walked the solved curve, the part of its score that reads no
/// checkpoint, tagged with that grid's horizon. A [`FitCache`] keeps one per
/// prefix (see the module docs); an entry fills up kernel by kernel as fits
/// with different kernel sets reach the prefix.
#[derive(Debug, Clone)]
pub(crate) struct PrefixSolves {
    /// Every solved kernel's parameters, at its [`solve_slot`] offset.
    params: [f64; SOLVE_PARAMS],
    /// Slots whose solve is known.
    known: u8,
    /// Known slots whose solve succeeded (their parameters are valid).
    solved: u8,
    /// Each solved slot's scored part, at its [`solve_slot`] index.
    scores: [Option<CellScore>; KernelKind::ALL.len()],
}

/// The part of a solved cell's score that reads no checkpoint: the realism
/// walk at `horizon` and, when it accepts the curve, what the cell's
/// candidates carry besides their checkpoint RMSEs.
#[derive(Debug, Clone)]
struct CellScore {
    horizon: u32,
    /// `None` when the walk rejected the curve.
    accepted: Option<Walked>,
}

/// An accepted walk's results.
#[derive(Debug, Clone)]
struct Walked {
    training_rmse: f64,
    /// The largest value the walk captured: a magnitude cap keeps the curve
    /// iff `!(max > cap)`.
    max: f64,
    /// The captured values, with their tail folded from the first
    /// extrapolated core count of the grid that walked the cell. The cell's
    /// candidates clone it, or fold their own tail over its values.
    evals: CandidateEvals,
}

/// A cell as the scoring loop reads it: `None` when its solve found no
/// solution, else its parameters and its walk (`None` when the walk
/// rejected the curve).
type Scored<'a> = Option<(&'a [f64], Option<&'a Walked>)>;

impl PrefixSolves {
    /// Nothing known.
    pub(crate) const EMPTY: PrefixSolves = PrefixSolves {
        params: [0.0; SOLVE_PARAMS],
        known: 0,
        solved: 0,
        scores: [const { None }; KernelKind::ALL.len()],
    };

    /// `None` while `kernel`'s solve is unknown; `Some(None)` when it found
    /// no solution; otherwise its parameters.
    fn get(&self, kernel: KernelKind) -> Option<Option<&[f64]>> {
        let (index, offset) = solve_slot(kernel);
        let bit = 1 << index;
        (self.known & bit != 0).then(|| {
            (self.solved & bit != 0).then(|| &self.params[offset..offset + kernel.param_count()])
        })
    }

    /// Record `kernel`'s solve: its parameters, or `None` for no solution.
    fn set(&mut self, kernel: KernelKind, outcome: Option<&[f64]>) {
        let (index, offset) = solve_slot(kernel);
        self.known |= 1 << index;
        if let Some(params) = outcome {
            self.params[offset..offset + params.len()].copy_from_slice(params);
            self.solved |= 1 << index;
        }
    }

    /// `kernel`'s scored part at `horizon`: `None` when none is memoised at
    /// that horizon, `Some(None)` when the walk rejected the curve.
    fn score(&self, kernel: KernelKind, horizon: u32) -> Option<Option<&Walked>> {
        let score = self.scores[solve_slot(kernel).0].as_ref()?;
        (score.horizon == horizon).then_some(score.accepted.as_ref())
    }

    /// `kernel`'s cell at `horizon`, or `None` when the memo lacks its
    /// solve or, for a solved cell, its scored part at that horizon.
    fn scored(&self, kernel: KernelKind, horizon: u32) -> Option<Scored<'_>> {
        Some(match self.get(kernel)? {
            Some(params) => Some((params, self.score(kernel, horizon)?)),
            None => None,
        })
    }

    /// Adopt every solve `other` knows and `self` does not, and every scored
    /// part `other` holds at a horizon `self` has not scored that kernel at
    /// (it replaces the scored part at the other horizon). Returns whether
    /// anything was new.
    pub(crate) fn merge(&mut self, other: &PrefixSolves) -> bool {
        let mut new = false;
        for kernel in KernelKind::ALL {
            let index = solve_slot(kernel).0;
            if self.known & (1 << index) == 0 {
                if let Some(outcome) = other.get(kernel) {
                    self.set(kernel, outcome);
                    new = true;
                }
            }
            if let Some(score) = &other.scores[index] {
                if self.score(kernel, score.horizon).is_none() {
                    self.scores[index] = Some(score.clone());
                    new = true;
                }
            }
        }
        new
    }
}

/// The cached path's view of the solve memo for one series: every covered
/// prefix's key and hashes, and what the memo knew before the fit.
struct SeriesSolves<'c> {
    cache: &'c FitCache,
    /// `[x₀, y₀, x₁, y₁, …]` as bit patterns: prefix `p`'s memo key is
    /// `key[..2p]`, so one buffer holds every prefix's key.
    key: Vec<u64>,
    /// Smallest grid prefix; `prefixes[i]` belongs to prefix `lo + i`: its
    /// key's hashes, and the memo's entry (`None` when the memo holds
    /// nothing for it or no span covers it).
    lo: usize,
    prefixes: Vec<(KeyHash, Option<Arc<PrefixSolves>>)>,
    /// (kernel, prefix) cells the grid visits.
    cells: usize,
}

impl<'c> SeriesSolves<'c> {
    /// Look up every prefix the grid will fit, hashing the series' points
    /// once for all of them.
    fn open(
        cache: &'c FitCache,
        xs: &[f64],
        ys: &[f64],
        options: &FitOptions,
        spans: &[CheckpointSpan],
    ) -> SeriesSolves<'c> {
        let (lo, hi) = prefix_range(spans);
        let mut key = Vec::with_capacity(2 * hi);
        for (x, y) in xs[..hi].iter().zip(&ys[..hi]) {
            key.extend([x.to_bits(), y.to_bits()]);
        }
        let prefixes = (1..)
            .zip(cache.solve_hashes(&key))
            .skip(lo - 1)
            .map(|(prefix, hash)| {
                let known = covered(spans, prefix)
                    .then(|| cache.lookup_solves_at(&key[..2 * prefix], hash))
                    .flatten();
                (hash, known)
            })
            .collect();
        let covered_prefixes = (lo..=hi).filter(|prefix| covered(spans, *prefix)).count();
        SeriesSolves {
            cache,
            key,
            lo,
            prefixes,
            cells: covered_prefixes * options.kernels.len(),
        }
    }

    /// What the memo held for `prefix` before the fit.
    fn known(&self, prefix: usize) -> Option<&PrefixSolves> {
        self.prefixes[prefix - self.lo].1.as_deref()
    }

    /// Store the cells the solve phase computed and count the grid's cells:
    /// the computed ones, and the rest as served.
    fn store(self, computed: Vec<KernelCells>) {
        let SeriesSolves {
            cache,
            key,
            lo,
            mut prefixes,
            cells: visited,
        } = self;
        // Release the entries this fit read first, so a merge into one of
        // them updates it in place instead of copying it.
        for (_, known) in &mut prefixes {
            *known = None;
        }
        let mut stored = 0;
        for KernelCells { kernel, cells, .. } in computed {
            for (index, cell) in cells.into_iter().enumerate() {
                let mut solves = PrefixSolves::EMPTY;
                match cell {
                    Cell::Known => continue,
                    Cell::Unsolved => solves.set(kernel, None),
                    Cell::Walked(params, score) => {
                        solves.set(kernel, Some(&params));
                        solves.scores[solve_slot(kernel).0] = Some(score);
                    }
                }
                let hash = prefixes[index].0;
                cache.store_solves_at(&key[..2 * (lo + index)], hash, solves);
                stored += 1;
            }
        }
        cache.record_solves(visited - stored, stored);
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
        (MIN_TRAINING_POINTS, n_train)
    } else {
        (n_train, n_train)
    }
}

/// The candidate grid, with its cells drawn from (and added to) `memo`'s
/// solve memo when one is given. The candidates are bit-identical either
/// way: a memoised cell holds the exact parameters, walk maximum, training
/// RMSE and eval table the same prefix and horizon produced before.
fn candidate_grid(
    xs: &[f64],
    ys: &[f64],
    options: &FitOptions,
    engine: &Engine,
    memo: Option<&FitCache>,
) -> Result<Fits> {
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
    let span = |checkpoints: usize| {
        let n_train = m - checkpoints;
        let (prefix_start, prefix_end) = prefix_bounds(options, n_train);
        CheckpointSpan {
            checkpoints,
            n_train,
            prefix_start,
            prefix_end,
        }
    };
    let mut spans: Vec<CheckpointSpan> = options
        .checkpoint_counts
        .iter()
        .filter(|c| **c >= 1 && m >= **c + MIN_TRAINING_POINTS)
        .map(|c| span(*c))
        .collect();
    if spans.is_empty() {
        // Degrade gracefully to a single checkpoint when the series is short.
        if m > MIN_TRAINING_POINTS {
            spans.push(span(1));
        } else {
            return Err(EstimaError::InsufficientMeasurements {
                required: MIN_TRAINING_POINTS + 1,
                available: m,
            });
        }
    }

    let data_max = ys.iter().copied().fold(0.0f64, f64::max);
    let magnitude_cap = if data_max > 0.0 {
        (data_max * options.max_growth_factor).min(MAX_MAGNITUDE)
    } else {
        MAX_MAGNITUDE
    };
    let solves = memo.map(|cache| SeriesSolves::open(cache, xs, ys, options, &spans));
    let (lo, hi) = prefix_range(&spans);
    let grid = Grid {
        xs,
        ys,
        spans: &spans,
        lo,
        hi,
        options,
        magnitude_cap,
        // One past the series' largest measured x (the series covers *all*
        // measured points — checkpoints included). Saturates: an x at or
        // beyond `u32::MAX` leaves the tail empty.
        tail_start: (xs.iter().fold(0.0f64, |a, x| a.max(*x)) as u32).saturating_add(1),
        memo: solves.as_ref(),
    };

    // The solve phase fans out only the kernels with a cell to compute.
    let runs: Vec<(usize, KernelKind)> = options
        .kernels
        .iter()
        .copied()
        .enumerate()
        .filter(|(_, kernel)| grid.computes(*kernel))
        .collect();
    let computed = engine.run(runs, |(index, kernel)| KernelCells {
        index,
        kernel,
        cells: with_fit_workspace(|ws| fit_kernel_grid(&grid, kernel, ws)),
    });
    let fits = with_fit_workspace(|ws| grid.score(&computed, &mut ws.scored));
    if let Some(solves) = solves {
        solves.store(computed);
    }
    Ok(fits)
}

/// One candidate grid's fixed inputs: the series, its checkpoint spans, the
/// options, what scoring a cell reads besides the cell, and the memo's view
/// of the series on the cached path.
struct Grid<'a> {
    xs: &'a [f64],
    ys: &'a [f64],
    spans: &'a [CheckpointSpan],
    /// Smallest and largest prefix any span covers.
    lo: usize,
    hi: usize,
    options: &'a FitOptions,
    /// Largest magnitude a realistic curve may reach inside the horizon.
    magnitude_cap: f64,
    /// First extrapolated core count, for every candidate's eval table.
    tail_start: u32,
    memo: Option<&'a SeriesSolves<'a>>,
}

/// What the solve phase did for one (kernel, prefix) cell.
enum Cell {
    /// Nothing: the memo holds the cell at the grid's horizon, or no span
    /// covers the prefix.
    Known,
    /// The solve found no solution.
    Unsolved,
    /// The cell's parameters, solved here or read from the memo, and the
    /// walk this phase ran on them.
    Walked(Params, CellScore),
}

/// One kernel's solve phase: the kernel, its index in the options' kernel
/// list, and one [`Cell`] per prefix `lo..=hi` of the grid, at `prefix -
/// lo`.
struct KernelCells {
    index: usize,
    kernel: KernelKind,
    cells: Vec<Cell>,
}

impl Grid<'_> {
    /// `kernel`'s cell at `prefix` as the memo held it at this grid's
    /// horizon, if it did.
    fn memoised(&self, kernel: KernelKind, prefix: usize) -> Option<Scored<'_>> {
        self.memo?
            .known(prefix)?
            .scored(kernel, self.options.realism_horizon)
    }

    /// Whether the solve phase has a cell of `kernel` to compute: a covered
    /// cell the memo lacks at this horizon.
    fn computes(&self, kernel: KernelKind) -> bool {
        (self.lo..=self.hi)
            .any(|prefix| covered(self.spans, prefix) && self.memoised(kernel, prefix).is_none())
    }

    /// The scoring loop: every cell against every checkpoint span covering
    /// it, in the historical enumeration order (checkpoint count → prefix
    /// length → kernel). The winner is the first candidate of equal RMSE,
    /// so the order is part of the contract. A cell comes from `computed`
    /// (the solve phase's runs, in kernel order) or else from the memo, and
    /// each candidate's table number names its (kernel, prefix) cell,
    /// whatever number a memoised walk carried.
    ///
    /// A curve the walk rejected, or whose maximum the magnitude cap cuts,
    /// yields no candidate and computes no checkpoint RMSE; so one walk
    /// serves every cap. Only the checkpoint RMSE depends on the span, and
    /// it reads the cell's eval table. The candidates collect in `scored`,
    /// which they leave empty, and move into a list of exactly their count.
    fn score(&self, computed: &[KernelCells], scored: &mut Vec<FitCandidate>) -> Fits {
        let width = self.hi - self.lo + 1;
        for span in self.spans {
            let (xs, ys) = (&self.xs[span.n_train..], &self.ys[span.n_train..]);
            for prefix in span.prefix_start..=span.prefix_end {
                let mut runs = computed.iter().peekable();
                for (index, &kernel) in self.options.kernels.iter().enumerate() {
                    let run = runs.next_if(|run| run.index == index);
                    let cell = match run.map(|run| &run.cells[prefix - self.lo]) {
                        Some(Cell::Walked(params, score)) => {
                            Some((&params[..], score.accepted.as_ref()))
                        }
                        Some(Cell::Unsolved) => None,
                        Some(Cell::Known) | None => self
                            .memoised(kernel, prefix)
                            .expect("the memo holds every cell the solve phase skipped"),
                    };
                    let Some((params, Some(walked))) = cell else {
                        continue;
                    };
                    if !within_cap(walked.max, self.magnitude_cap) {
                        continue;
                    }
                    let checkpoint_rmse = table_rmse(kernel, params, walked.evals.values(), xs, ys);
                    if !checkpoint_rmse.is_finite() {
                        continue;
                    }
                    let mut evals = walked.evals.with_tail_start(self.tail_start);
                    evals.table = (index * width + prefix - self.lo) as u32;
                    scored.push(FitCandidate {
                        curve: FittedCurve {
                            kernel,
                            params: Params::from(params),
                            checkpoint_rmse,
                            training_rmse: walked.training_rmse,
                            training_points: prefix,
                        },
                        checkpoints: span.checkpoints,
                        evals,
                    });
                }
            }
        }
        // `split_off(0)` moves the candidates into a vector of exactly their
        // count in one copy, and leaves the buffer empty at its capacity.
        Fits::numbered(scored.split_off(0), self.options.kernels.len() * width)
    }
}

/// The solve phase of one kernel: one [`Cell`] per prefix `lo..=hi` of the
/// grid. A cell the memo holds at the grid's horizon, or that no span
/// covers, computes nothing; a cell whose solve the memo holds is walked on
/// the memoised parameters; the rest are solved and, when solved, walked.
fn fit_kernel_grid(grid: &Grid<'_>, kernel: KernelKind, ws: &mut FitWorkspace) -> Vec<Cell> {
    ws.horizon.cover(grid.options.realism_horizon);
    // The slab covers the longest training range.
    let n_build = grid.spans.iter().map(|s| s.n_train).max().unwrap_or(0);
    let mut solver = CellSolver::new(kernel, &grid.xs[..n_build], &grid.ys[..n_build]);
    (grid.lo..=grid.hi)
        .map(|prefix| {
            if !covered(grid.spans, prefix) || grid.memoised(kernel, prefix).is_some() {
                return Cell::Known;
            }
            let mut buf = [0.0f64; MAX_PARAMS];
            let params = &mut buf[..kernel.param_count()];
            let memoised = grid
                .memo
                .and_then(|memo| memo.known(prefix)?.get(kernel))
                .flatten();
            match memoised {
                Some(memoised) => params.copy_from_slice(memoised),
                None if solver.solve(prefix, ws, params) => {}
                None => return Cell::Unsolved,
            }
            let score = walk_cell(grid, kernel, params, prefix, ws);
            Cell::Walked(Params::from(&*params), score)
        })
        .collect()
}

/// Walk a solved cell at the grid's horizon and, when the walk accepts the
/// curve, compute its training RMSE and keep the captured values with
/// their tail fold at the grid's tail start.
fn walk_cell(
    grid: &Grid<'_>,
    kernel: KernelKind,
    params: &[f64],
    prefix: usize,
    ws: &mut FitWorkspace,
) -> CellScore {
    let accepted = ws
        .horizon
        .walk(kernel, params, &mut ws.walked)
        .map(|max| Walked {
            training_rmse: table_rmse(
                kernel,
                params,
                &ws.walked,
                &grid.xs[..prefix],
                &grid.ys[..prefix],
            ),
            max,
            evals: CandidateEvals::new(ws.walked.as_slice().into(), grid.tail_start),
        });
    CellScore {
        horizon: ws.horizon.horizon(),
        accepted,
    }
}

/// RMSE of the kernel at `params` over `(xs, ys)`, without materialising the
/// prediction vector; mirrors [`crate::stats::rmse`]'s conventions. `values`
/// is an accepted walk's table (`values[c - 1]` is the curve at core count
/// `c`): an `x` that is an integer in `1..=values.len()` reads its value
/// there, which [`HorizonTable::walk`] guarantees is bit for bit
/// [`KernelKind::eval`]; any other `x` evaluates the kernel.
fn table_rmse(kernel: KernelKind, params: &[f64], values: &[f64], xs: &[f64], ys: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::INFINITY;
    }
    let mut sum = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        // `c` is `x` exactly when `x` is an integer below 2³² (NaN casts to
        // 0); the range checks keep the rest out.
        let c = *x as u32;
        let value = if f64::from(c) == *x && *x >= 1.0 && *x <= values.len() as f64 {
            values[c as usize - 1]
        } else {
            kernel.eval(params, *x)
        };
        let d = value - y;
        sum += d * d;
    }
    (sum / xs.len() as f64).sqrt()
}

/// Solves one kernel's cells of a series in ascending prefix order from a
/// columnar slab built once over the series — on the first solve, so a grid
/// whose every cell is memoised builds none. The grid gives it its longest
/// training range and solves every prefix it covers; [`fit_kernel`] gives it
/// a whole series and solves the full-length prefix.
///
/// * Linear kernels (`CubicLn`, `Poly25`): the slab holds the design
///   columns, and each prefix is a rank-1 update of the running normal
///   equations followed by an in-place Cholesky solve (ridge-regularised
///   when the system is under-determined or numerically not positive
///   definite). Skipped prefixes are caught up by the accumulation, so
///   every prefix sees the same gram whichever cells were memoised.
/// * Nonlinear kernels: the slab holds the linearised-guess columns; each
///   prefix solves the guess on prefix views of them and refines it with an
///   allocation-free Levenberg–Marquardt run using the kernel's analytic
///   Jacobian.
///
/// A prefix's outcome reads only the prefix's points, never the slab's
/// length: the QR solve copies the prefix rows out of the slab, and the
/// normal equations sum the rows in ascending order.
struct CellSolver<'a> {
    kernel: KernelKind,
    /// The points the slab is built over; their count is the slab's column
    /// stride.
    xs: &'a [f64],
    ys: &'a [f64],
    built: bool,
    /// `ExpRat`: the points before the first non-positive value (its
    /// linearisation goes through `ln y`).
    positive_limit: usize,
    /// Linear kernels: points accumulated into the normal equations.
    rows_in: usize,
}

impl<'a> CellSolver<'a> {
    fn new(kernel: KernelKind, xs: &'a [f64], ys: &'a [f64]) -> Self {
        CellSolver {
            kernel,
            xs,
            ys,
            built: false,
            positive_limit: xs.len(),
            rows_in: 0,
        }
    }

    /// Solve `prefix` into `params`; returns whether a solution was found.
    /// Reads only the prefix's points, so the outcome is a function of the
    /// prefix alone — what lets the memo reuse it.
    fn solve(&mut self, prefix: usize, ws: &mut FitWorkspace, params: &mut [f64]) -> bool {
        if !self.built {
            self.build(ws);
            self.built = true;
        }
        if self.kernel.is_linear() {
            self.solve_linear(prefix, ws, params)
        } else {
            self.solve_nonlinear(prefix, ws, params)
        }
    }

    /// Fill the slab (and, for linear kernels, zero the normal equations).
    fn build(&mut self, ws: &mut FitWorkspace) {
        let (xs, ys, n_build) = (self.xs, self.ys, self.xs.len());
        let kernel = self.kernel;
        let p = kernel.param_count();
        let mut row = [0.0f64; MAX_PARAMS];
        if kernel.is_linear() {
            // Design rows depend only on the point, so one slab serves every
            // checkpoint span.
            grow(&mut ws.design, p * n_build);
            for (i, x) in xs.iter().enumerate() {
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
        } else if kernel == KernelKind::ExpRat {
            self.positive_limit = ys.iter().position(|y| *y <= 0.0).unwrap_or(n_build);
            grow(&mut ws.design, 3 * n_build);
            grow(&mut ws.zs, n_build);
            grow(&mut ws.qr, 5 * n_build);
            for i in 0..self.positive_limit {
                let z = ys[i].ln();
                ws.zs[i] = z;
                fill_exprat_guess_row(&mut row[..3], xs[i], z);
                for (j, v) in row[..3].iter().enumerate() {
                    ws.design[j * n_build + i] = *v;
                }
            }
        } else {
            grow(&mut ws.design, p * n_build);
            grow(&mut ws.qr, (p + 2) * n_build);
            let (num_degree, den_degree) = rational_degrees(kernel);
            for i in 0..n_build {
                fill_rational_guess_row(&mut row[..p], xs[i], ys[i], num_degree, den_degree);
                for (j, v) in row[..p].iter().enumerate() {
                    ws.design[j * n_build + i] = *v;
                }
            }
        }
    }

    /// A linear cell: catch the normal equations up to `prefix`, then solve
    /// them in place, through the ridge when the plain Cholesky fails.
    fn solve_linear(&mut self, prefix: usize, ws: &mut FitWorkspace, params: &mut [f64]) -> bool {
        let (p, n_build) = (self.kernel.param_count(), self.xs.len());
        let mut row = [0.0f64; MAX_PARAMS];
        while self.rows_in < prefix {
            for (j, slot) in row[..p].iter_mut().enumerate() {
                *slot = ws.design[j * n_build + self.rows_in];
            }
            accumulate_normal_equations(
                &row[..p],
                self.ys[self.rows_in],
                &mut ws.gram[..p * p],
                &mut ws.rhs[..p],
            );
            self.rows_in += 1;
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
            params.copy_from_slice(solve_rhs);
        }
        solved
    }

    /// A nonlinear cell: the linearised initial guess on the shared slab,
    /// refined by Levenberg–Marquardt; returns whether the run ended with
    /// finite parameters.
    fn solve_nonlinear(&self, prefix: usize, ws: &mut FitWorkspace, params: &mut [f64]) -> bool {
        let kernel = self.kernel;
        let (p, n_build) = (kernel.param_count(), self.xs.len());
        let px = &self.xs[..prefix];
        let py = &self.ys[..prefix];
        let mean_y = py.iter().sum::<f64>() / prefix as f64;
        let mut guessed = false;
        if kernel == KernelKind::ExpRat {
            let mut sol = [0.0; 3];
            if prefix <= self.positive_limit
                && prefix >= 3
                && solve_least_squares_qr_columns(
                    &ws.design,
                    n_build,
                    prefix,
                    3,
                    &ws.zs[..prefix],
                    &mut ws.qr,
                    &mut sol,
                )
            {
                params.copy_from_slice(&[sol[0], sol[1], 1.0, sol[2]]);
                guessed = true;
            }
        } else if prefix >= p {
            guessed = solve_least_squares_qr_columns(
                &ws.design, n_build, prefix, p, py, &mut ws.qr, params,
            );
        }
        if !guessed {
            fallback_guess(kernel, mean_y, params);
        }
        levenberg_marquardt_into(kernel, px, py, params, &mut ws.lm).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series_from(kernel: KernelKind, params: &[f64], max: u32) -> (Vec<f64>, Vec<f64>) {
        let xs: Vec<f64> = (1..=max).map(|c| c as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| kernel.eval(params, *x)).collect();
        (xs, ys)
    }

    #[test]
    fn solve_slots_pack_every_kernel() {
        let mut end = 0;
        for (index, kernel) in KernelKind::ALL.into_iter().enumerate() {
            assert_eq!(solve_slot(kernel), (index, end), "{kernel:?}");
            end += kernel.param_count();
        }
        assert_eq!(end, SOLVE_PARAMS);

        let mut solves = PrefixSolves::EMPTY;
        solves.set(
            KernelKind::Rat33,
            Some(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]),
        );
        solves.set(KernelKind::ExpRat, None);
        solves.set(KernelKind::Poly25, Some(&[8.0, 9.0, 10.0, 11.0]));
        let mut merged = PrefixSolves::EMPTY;
        assert!(merged.merge(&solves));
        assert!(!merged.merge(&solves), "nothing new the second time");
        assert_eq!(merged.get(KernelKind::Rat22), None);
        assert_eq!(merged.get(KernelKind::ExpRat), Some(None));
        assert_eq!(
            merged.get(KernelKind::Rat33),
            Some(Some(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0][..]))
        );
        assert_eq!(
            merged.get(KernelKind::Poly25),
            Some(Some(&[8.0, 9.0, 10.0, 11.0][..]))
        );
    }

    #[test]
    fn a_score_at_another_horizon_replaces_the_scored_part_and_keeps_the_solve() {
        let slot = solve_slot(KernelKind::CubicLn).0;
        let scored = |horizon: u32, max: f64| {
            let mut cell = PrefixSolves::EMPTY;
            cell.set(KernelKind::CubicLn, Some(&[1.0, 0.0, 0.0, 0.0]));
            cell.scores[slot] = Some(CellScore {
                horizon,
                accepted: (max >= 0.0).then(|| Walked {
                    training_rmse: 0.5,
                    max,
                    evals: CandidateEvals::new(vec![max; horizon as usize].into(), 13),
                }),
            });
            cell
        };
        let mut entry = scored(48, 3.0);
        let table = |entry: &PrefixSolves, horizon| {
            let walked = entry.score(KernelKind::CubicLn, horizon)?;
            Some(walked.map(|walked| Arc::clone(&walked.evals.values)))
        };
        let at_48 = table(&entry, 48).unwrap().unwrap();

        // The same horizon again is nothing new: the first table stays.
        assert!(!entry.merge(&scored(48, 3.0)));
        assert!(Arc::ptr_eq(&table(&entry, 48).unwrap().unwrap(), &at_48));

        // Another horizon replaces the scored part; the solve stays.
        assert!(entry.merge(&scored(96, -1.0)));
        assert!(table(&entry, 48).is_none());
        assert_eq!(table(&entry, 96), Some(None), "a memoised rejection");
        assert_eq!(
            entry.get(KernelKind::CubicLn),
            Some(Some(&[1.0, 0.0, 0.0, 0.0][..]))
        );
        assert_eq!(entry.score(KernelKind::Poly25, 96).map(|_| ()), None);
    }

    #[test]
    fn linear_kernel_recovers_exact_parameters() {
        let true_params = [10.0, 5.0, 1.5, 0.2];
        let (xs, ys) = series_from(KernelKind::Poly25, &true_params, 12);
        let fitted = fit_kernel(KernelKind::Poly25, &xs, &ys).unwrap();
        for (f, t) in fitted.iter().zip(&true_params) {
            assert!((f - t).abs() < 1e-6, "fitted {fitted:?}");
        }
    }

    #[test]
    fn cubicln_recovers_exact_parameters() {
        let true_params = [100.0, 20.0, 3.0, 0.5];
        let (xs, ys) = series_from(KernelKind::CubicLn, &true_params, 12);
        let fitted = fit_kernel(KernelKind::CubicLn, &xs, &ys).unwrap();
        for (f, t) in fitted.iter().zip(&true_params) {
            assert!((f - t).abs() < 1e-6);
        }
    }

    #[test]
    fn rational_kernel_reproduces_series() {
        let true_params = [50.0, 10.0, 2.0, 0.05, 0.001];
        let (xs, ys) = series_from(KernelKind::Rat22, &true_params, 12);
        let fitted = fit_kernel(KernelKind::Rat22, &xs, &ys).unwrap();
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
        let fitted = fit_kernel(KernelKind::ExpRat, &xs, &ys).unwrap();
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
            assert!(c.curve.is_realistic(opts.realism_horizon, MAX_MAGNITUDE));
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
        // original per-cell loop did, in the same order, and every cell must
        // be the one-shot fit of its prefix: fit each candidate's cell
        // individually through the public one-shot API and require the same
        // parameters, bit for bit, for all six kernels. Prefix 3 takes the
        // linear kernels' ridge path (3 points, 4 parameters).
        let xs: Vec<f64> = (1..=12).map(|c| c as f64).collect();
        let smooth: Vec<f64> = xs.iter().map(|x| 200.0 + 30.0 * x + 2.0 * x * x).collect();
        // A value at or below zero cuts ExpRat's linearised guess (it goes
        // through ln y) short for every prefix that holds it.
        const CUT: usize = 7;
        let mut cut = smooth.clone();
        cut[CUT] = 0.0;
        let options = FitOptions::default();
        let bits = |params: &[f64]| params.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        for ys in [smooth, cut] {
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
            for candidate in candidates.iter() {
                let curve = &candidate.curve;
                // Every candidate must reproduce its own training prefix
                // reasonably.
                assert!(curve.training_rmse.is_finite());
                let p = curve.training_points;
                let one_shot = fit_kernel(curve.kernel, &xs[..p], &ys[..p]).unwrap();
                assert_eq!(
                    bits(&one_shot),
                    bits(&curve.params),
                    "{} at prefix {p}",
                    curve.kernel
                );
            }
            for kernel in KernelKind::ALL {
                assert!(
                    candidates.iter().any(|c| c.curve.kernel == kernel),
                    "no {kernel} candidate to compare"
                );
            }
            assert!(
                candidates
                    .iter()
                    .any(|c| c.curve.kernel.is_linear() && c.curve.training_points == 3),
                "no ridge-path cell to compare"
            );
            if ys[CUT] <= 0.0 {
                assert!(
                    candidates
                        .iter()
                        .any(|c| c.curve.kernel == KernelKind::ExpRat
                            && c.curve.training_points > CUT),
                    "no ExpRat cell past the cut"
                );
            }
        }
    }

    /// The selection scan before lists carried their winner, verbatim.
    fn select_best<'a>(candidates: &'a [FitCandidate], label: &str) -> Result<&'a FitCandidate> {
        candidates
            .iter()
            .min_by(|a, b| {
                a.curve
                    .checkpoint_rmse
                    .partial_cmp(&b.curve.checkpoint_rmse)
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .ok_or_else(|| EstimaError::NoViableFit {
                category: label.to_string(),
            })
    }

    /// A list's winner is the one the scan picks, and its table numbers are
    /// below `tables()` and equal exactly for candidates whose tables are
    /// one allocation.
    fn assert_selection(fits: &Fits, context: &str) {
        let scanned = select_best(fits, context).ok();
        assert_eq!(
            fits.best().map(|best| best as *const FitCandidate),
            scanned.map(|best| best as *const FitCandidate),
            "{context}: winner"
        );
        for (index, candidate) in fits.iter().enumerate() {
            let table = candidate.evals.table();
            assert!(
                (table as usize) < fits.tables(),
                "{context}: table {table} of {}",
                fits.tables()
            );
            for (earlier, other) in fits[..index].iter().enumerate() {
                assert_eq!(
                    table == other.evals.table(),
                    Arc::ptr_eq(&candidate.evals.values, &other.evals.values),
                    "{context}: candidates {earlier} and {index}"
                );
            }
        }
    }

    #[test]
    fn lists_carry_the_scans_winner_and_number_tables_by_cell() {
        // Real grids, uncached and through one shared cache after fitting
        // each series without its last point first. Each series extends the
        // previous length's, and a case's horizon moves with the length, so
        // memoised walks of other grids (other widths, other horizons)
        // arrive in the list.
        let cache = FitCache::new();
        let cached = FitContext {
            cache: Some(&cache),
            ..FitContext::default()
        };
        let horizons = [12, 48, 256, MAX_TARGET_CORES];
        let subset = vec![KernelKind::Rat23, KernelKind::CubicLn, KernelKind::ExpRat];
        let (mut case, mut won) = (0, 0);
        for len in 5..=24usize {
            let xs: Vec<f64> = (1..=len).map(|c| c as f64).collect();
            let growth: Vec<f64> = xs
                .iter()
                .map(|x| 1e9 * (1.0 + 0.05 * x * x) * (1.0 + 0.03 * ((*x as usize * 7) % 5) as f64))
                .collect();
            for ys in [growth, vec![500.0; len]] {
                for prefix_refitting in [true, false] {
                    for kernels in [KernelKind::ALL.to_vec(), subset.clone()] {
                        let options = FitOptions {
                            kernels,
                            prefix_refitting,
                            realism_horizon: horizons[(case + len) % horizons.len()],
                            ..FitOptions::default()
                        };
                        case += 1;
                        let context = format!(
                            "{len} points starting {}, refitting {prefix_refitting}, \
                             {} kernels, horizon {}",
                            ys[0],
                            options.kernels.len(),
                            options.realism_horizon
                        );
                        let _ = candidate_fits(&xs[..len - 1], &ys[..len - 1], &options, &cached);
                        let uncached = candidate_fits(&xs, &ys, &options, &FitContext::default());
                        let memoised = candidate_fits(&xs, &ys, &options, &cached);
                        match (uncached, memoised) {
                            (Ok(uncached), Ok(memoised)) => {
                                assert_selection(&uncached, &context);
                                assert_selection(&memoised, &context);
                                let numbers = |fits: &Fits| {
                                    fits.iter().map(|c| c.evals.table()).collect::<Vec<_>>()
                                };
                                assert_eq!(numbers(&uncached), numbers(&memoised), "{context}");
                                assert_eq!(uncached.tables(), memoised.tables(), "{context}");
                                won += usize::from(uncached.best().is_some());
                            }
                            (Err(a), Err(b)) => assert_eq!(a, b, "{context}"),
                            (a, b) => panic!("{context}: uncached {a:?}, memoised {b:?}"),
                        }
                    }
                }
            }
        }
        assert!(won > case / 2, "only {won} of {case} grids had a winner");
        assert!(cache.solve_stats().0 > 0, "no memoised cell was served");
    }

    #[test]
    fn grid_winner_extrapolates_a_quadratic_trend() {
        let xs: Vec<f64> = (1..=12).map(|c| c as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| 1.0e9 + 2.0e7 * x + 5.0e5 * x * x)
            .collect();
        let curve = approximate_series(
            &xs,
            &ys,
            "a",
            &FitOptions::default(),
            &FitContext::default(),
        )
        .unwrap();
        for cores in [24.0, 48.0] {
            let truth = 1.0e9 + 2.0e7 * cores + 5.0e5 * cores * cores;
            let v = curve.eval(cores);
            assert!(
                (v - truth).abs() / truth < 0.05,
                "{:?} at {cores}: {v} vs {truth}",
                curve.kernel
            );
        }
    }
}
