//! The extrapolation function kernels of Table 1.
//!
//! ESTIMA approximates every stall-cycle category (and the time/stall scaling
//! factor) with one of six analytic function families:
//!
//! | Name    | Function |
//! |---------|----------|
//! | Rat22   | (a0 + a1·n + a2·n²) / (1 + b1·n + b2·n²) |
//! | Rat23   | (a0 + a1·n + a2·n²) / (1 + b1·n + b2·n² + b3·n³) |
//! | Rat33   | (a0 + a1·n + a2·n² + a3·n³) / (1 + b1·n + b2·n² + b3·n³) |
//! | CubicLn | a + b·ln(n) + c·ln(n)² + d·ln(n)³ |
//! | ExpRat  | exp((a + b·n) / (c + d·n)) |
//! | Poly25  | a + b·n + c·n² + d·n^2.5 |
//!
//! `CubicLn` and `Poly25` are linear in their parameters and are fitted with
//! ordinary least squares. The rational kernels and `ExpRat` are nonlinear and
//! are fitted with Levenberg–Marquardt, seeded by a linearised least-squares
//! initial guess (see [`crate::fit`]).
//!
//! # The realism walk
//!
//! A fitted curve is kept only if it is realistic over `1..=horizon` (the
//! paper's "discard the function types that produce functions that are not
//! realistic"): [`HorizonTable::walk`] checks every integer core count for a
//! pole or a non-finite or negative value, then sweeps `4·horizon + 1`
//! points for a denominator sign change, and returns the largest value it
//! captured; the curve passes a magnitude cap iff that maximum is not above
//! it, so one walk serves every cap. The abscissae come from a
//! [`HorizonTable`] built once per horizon, one match on the kernel picks a
//! loop specialised to it, and each point computes its denominator once for
//! both the pole check and the value. Every value is the expression
//! [`KernelKind::eval`] computes, so the captured values double as the
//! candidate's integer-grid eval table, bit for bit.

use std::cmp::Ordering;

use serde::{Deserialize, Serialize};

/// Fixed lane width of the chunked evaluation paths
/// ([`KernelKind::residuals_into`] / [`KernelKind::partials_into`]).
///
/// Observations are processed in blocks of `LANES` values held in
/// `[f64; LANES]` stack arrays — a layout the compiler autovectorizes —
/// followed by a scalar tail in ascending index order. The width is a
/// compile-time constant (two 128-bit SSE2 vectors, one AVX2 vector) so the
/// block/tail split, and therefore the exact sequence of floating-point
/// operations, is identical on every machine and at every parallelism.
pub const LANES: usize = 4;

/// Residual value substituted when a model evaluates to a non-finite value
/// (e.g. a rational kernel at a pole). Chosen enormous so any such parameter
/// vector loses to every pole-free candidate, while staying finite so the
/// cost comparison itself never produces NaN.
pub const POLE_PENALTY: f64 = 1e150;

// Per-kernel evaluation primitives. `KernelKind::eval`/`partials`/
// `denominator`, the lane-chunked `residuals_into`/`partials_into` and the
// realism walk ([`HorizonTable::walk`]) all call these same functions, so
// every path is bit-identical by construction (one source of truth for every
// floating-point expression). Each value splits into the parts a caller may
// already hold: a rational kernel's numerator and denominator, `CubicLn`'s
// `ln(n)` abscissa and `Poly25`'s `n^2.5` term.

#[inline(always)]
fn rat22_num(p: &[f64], n: f64) -> f64 {
    p[0] + p[1] * n + p[2] * n * n
}

#[inline(always)]
fn rat22_den(p: &[f64], n: f64) -> f64 {
    1.0 + p[3] * n + p[4] * n * n
}

#[inline(always)]
fn rat22_value(p: &[f64], n: f64) -> f64 {
    rat22_num(p, n) / rat22_den(p, n)
}

#[inline(always)]
fn rat23_den(p: &[f64], n: f64) -> f64 {
    1.0 + p[3] * n + p[4] * n * n + p[5] * n * n * n
}

/// `Rat23` shares `Rat22`'s numerator.
#[inline(always)]
fn rat23_value(p: &[f64], n: f64) -> f64 {
    rat22_num(p, n) / rat23_den(p, n)
}

#[inline(always)]
fn rat33_num(p: &[f64], n: f64) -> f64 {
    p[0] + p[1] * n + p[2] * n * n + p[3] * n * n * n
}

#[inline(always)]
fn rat33_den(p: &[f64], n: f64) -> f64 {
    1.0 + p[4] * n + p[5] * n * n + p[6] * n * n * n
}

#[inline(always)]
fn rat33_value(p: &[f64], n: f64) -> f64 {
    rat33_num(p, n) / rat33_den(p, n)
}

/// The abscissa `CubicLn` is a cubic in: `ln(n)`, clamped away from zero.
#[inline(always)]
fn cubic_ln_abscissa(n: f64) -> f64 {
    n.max(f64::MIN_POSITIVE).ln()
}

/// `CubicLn` at a precomputed abscissa `l = cubic_ln_abscissa(n)`.
#[inline(always)]
fn cubic_ln_at(p: &[f64], l: f64) -> f64 {
    p[0] + p[1] * l + p[2] * l * l + p[3] * l * l * l
}

#[inline(always)]
fn cubic_ln_value(p: &[f64], n: f64) -> f64 {
    cubic_ln_at(p, cubic_ln_abscissa(n))
}

#[inline(always)]
fn exp_rat_num(p: &[f64], n: f64) -> f64 {
    p[0] + p[1] * n
}

#[inline(always)]
fn exp_rat_den(p: &[f64], n: f64) -> f64 {
    p[2] + p[3] * n
}

/// `ExpRat` at `n` given its denominator there, `den = exp_rat_den(p, n)`.
#[inline(always)]
fn exp_rat_at(p: &[f64], n: f64, den: f64) -> f64 {
    (exp_rat_num(p, n) / den).exp()
}

#[inline(always)]
fn exp_rat_value(p: &[f64], n: f64) -> f64 {
    let den = exp_rat_den(p, n);
    if den.abs() < 1e-12 {
        return f64::INFINITY;
    }
    exp_rat_at(p, n, den)
}

/// `Poly25`'s non-integer power term: `n^2.5`.
#[inline(always)]
fn poly25_abscissa(n: f64) -> f64 {
    n.powf(2.5)
}

/// `Poly25` at `n` given `r = poly25_abscissa(n)`.
#[inline(always)]
fn poly25_at(p: &[f64], n: f64, r: f64) -> f64 {
    p[0] + p[1] * n + p[2] * n * n + p[3] * r
}

#[inline(always)]
fn poly25_value(p: &[f64], n: f64) -> f64 {
    poly25_at(p, n, poly25_abscissa(n))
}

#[inline(always)]
fn rat22_partials(p: &[f64], x: f64, out: &mut [f64]) {
    let num = rat22_num(p, x);
    let inv = 1.0 / rat22_den(p, x);
    let scale = -num * inv * inv;
    out[0] = inv;
    out[1] = x * inv;
    out[2] = x * x * inv;
    out[3] = x * scale;
    out[4] = x * x * scale;
}

#[inline(always)]
fn rat23_partials(p: &[f64], x: f64, out: &mut [f64]) {
    let num = rat22_num(p, x);
    let inv = 1.0 / rat23_den(p, x);
    let scale = -num * inv * inv;
    out[0] = inv;
    out[1] = x * inv;
    out[2] = x * x * inv;
    out[3] = x * scale;
    out[4] = x * x * scale;
    out[5] = x * x * x * scale;
}

#[inline(always)]
fn rat33_partials(p: &[f64], x: f64, out: &mut [f64]) {
    let num = rat33_num(p, x);
    let inv = 1.0 / rat33_den(p, x);
    let scale = -num * inv * inv;
    out[0] = inv;
    out[1] = x * inv;
    out[2] = x * x * inv;
    out[3] = x * x * x * inv;
    out[4] = x * scale;
    out[5] = x * x * scale;
    out[6] = x * x * x * scale;
}

#[inline(always)]
fn cubic_ln_partials(_p: &[f64], x: f64, out: &mut [f64]) {
    let l = cubic_ln_abscissa(x);
    out[0] = 1.0;
    out[1] = l;
    out[2] = l * l;
    out[3] = l * l * l;
}

#[inline(always)]
fn exp_rat_partials(p: &[f64], x: f64, out: &mut [f64]) {
    let inv = 1.0 / exp_rat_den(p, x);
    let u = exp_rat_num(p, x) * inv;
    let f = u.exp();
    out[0] = f * inv;
    out[1] = f * x * inv;
    out[2] = -f * u * inv;
    out[3] = -f * u * x * inv;
}

#[inline(always)]
fn poly25_partials(_p: &[f64], x: f64, out: &mut [f64]) {
    out[0] = 1.0;
    out[1] = x;
    out[2] = x * x;
    out[3] = poly25_abscissa(x);
}

/// Map one model value and observation to a least-squares residual,
/// substituting [`POLE_PENALTY`] for non-finite model values.
#[inline(always)]
fn residual_of(value: f64, y: f64) -> f64 {
    if value.is_finite() {
        value - y
    } else {
        POLE_PENALTY
    }
}

/// Lane-chunked residual fill: full `[f64; LANES]` blocks first (in ascending
/// block order), then the scalar tail in ascending index order. The chunking
/// only batches *independent per-element* work — there is no cross-lane
/// reduction — so results are bit-identical to a plain scalar loop.
#[inline(always)]
fn residuals_chunked<F: Fn(f64) -> f64>(model: F, xs: &[f64], ys: &[f64], out: &mut [f64]) {
    let split = xs.len() - xs.len() % LANES;
    let (x_blocks, x_tail) = xs.split_at(split);
    let (y_blocks, y_tail) = ys.split_at(split);
    let (o_blocks, o_tail) = out.split_at_mut(split);
    for ((xb, yb), ob) in x_blocks
        .chunks_exact(LANES)
        .zip(y_blocks.chunks_exact(LANES))
        .zip(o_blocks.chunks_exact_mut(LANES))
    {
        let mut values = [0.0; LANES];
        for lane in 0..LANES {
            values[lane] = model(xb[lane]);
        }
        for lane in 0..LANES {
            ob[lane] = residual_of(values[lane], yb[lane]);
        }
    }
    for ((x, y), o) in x_tail.iter().zip(y_tail).zip(o_tail) {
        *o = residual_of(model(*x), *y);
    }
}

/// Lane-chunked columnar partials fill: `out` is a column-major slab of `P`
/// parameter columns × `xs.len()` rows (`out[j * n + i] = ∂f/∂p_j at x_i`).
/// Blocks of `LANES` observations are evaluated into stack rows, then
/// transposed into the columns; the tail runs scalar in ascending order.
#[inline(always)]
fn partials_chunked<const P: usize, F: Fn(f64, &mut [f64])>(model: F, xs: &[f64], out: &mut [f64]) {
    let n = xs.len();
    debug_assert_eq!(out.len(), P * n, "columnar partials slab length mismatch");
    let split = n - n % LANES;
    for (block, xb) in xs[..split].chunks_exact(LANES).enumerate() {
        let base = block * LANES;
        let mut rows = [[0.0; P]; LANES];
        for lane in 0..LANES {
            model(xb[lane], &mut rows[lane]);
        }
        for (j, column) in out.chunks_exact_mut(n).enumerate() {
            for lane in 0..LANES {
                column[base + lane] = rows[lane][j];
            }
        }
    }
    for (offset, x) in xs[split..].iter().enumerate() {
        let mut row = [0.0; P];
        model(*x, &mut row);
        for (j, column) in out.chunks_exact_mut(n).enumerate() {
            column[split + offset] = row[j];
        }
    }
}

/// Identifier for one of the six extrapolation kernels of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KernelKind {
    /// Degree-2 / degree-2 rational function (5 parameters).
    Rat22,
    /// Degree-2 / degree-3 rational function (6 parameters).
    Rat23,
    /// Degree-3 / degree-3 rational function (7 parameters).
    Rat33,
    /// Cubic polynomial in `ln(n)` (4 parameters, linear in parameters).
    CubicLn,
    /// Exponential of a degree-1 rational (4 parameters).
    ExpRat,
    /// Polynomial with a `n^2.5` term (4 parameters, linear in parameters).
    Poly25,
}

impl KernelKind {
    /// All kernels, in the order of Table 1.
    pub const ALL: [KernelKind; 6] = [
        KernelKind::Rat22,
        KernelKind::Rat23,
        KernelKind::Rat33,
        KernelKind::CubicLn,
        KernelKind::ExpRat,
        KernelKind::Poly25,
    ];

    /// Human-readable name as used in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            KernelKind::Rat22 => "Rat22",
            KernelKind::Rat23 => "Rat23",
            KernelKind::Rat33 => "Rat33",
            KernelKind::CubicLn => "CubicLn",
            KernelKind::ExpRat => "ExpRat",
            KernelKind::Poly25 => "Poly25",
        }
    }

    /// Number of free parameters.
    pub fn param_count(&self) -> usize {
        match self {
            KernelKind::Rat22 => 5,
            KernelKind::Rat23 => 6,
            KernelKind::Rat33 => 7,
            KernelKind::CubicLn => 4,
            KernelKind::ExpRat => 4,
            KernelKind::Poly25 => 4,
        }
    }

    /// True when the kernel is linear in its parameters and can be fitted with
    /// a single least-squares solve.
    pub fn is_linear(&self) -> bool {
        matches!(self, KernelKind::CubicLn | KernelKind::Poly25)
    }

    /// Evaluate the kernel at `n` (number of cores) with the given parameter
    /// vector. The parameter layout matches [`KernelKind::param_count`]:
    ///
    /// * `Rat22`:  `[a0, a1, a2, b1, b2]`
    /// * `Rat23`:  `[a0, a1, a2, b1, b2, b3]`
    /// * `Rat33`:  `[a0, a1, a2, a3, b1, b2, b3]`
    /// * `CubicLn`: `[a, b, c, d]`
    /// * `ExpRat`: `[a, b, c, d]`
    /// * `Poly25`: `[a, b, c, d]`
    pub fn eval(&self, params: &[f64], n: f64) -> f64 {
        debug_assert_eq!(params.len(), self.param_count(), "parameter count mismatch");
        match self {
            KernelKind::Rat22 => rat22_value(params, n),
            KernelKind::Rat23 => rat23_value(params, n),
            KernelKind::Rat33 => rat33_value(params, n),
            KernelKind::CubicLn => cubic_ln_value(params, n),
            KernelKind::ExpRat => exp_rat_value(params, n),
            KernelKind::Poly25 => poly25_value(params, n),
        }
    }

    /// Fill `out[i]` with the least-squares residual `eval(params, xs[i]) -
    /// ys[i]` for every observation, substituting [`POLE_PENALTY`] where the
    /// model value is non-finite.
    ///
    /// The fill is lane-chunked ([`LANES`]-wide blocks plus a fixed-order
    /// scalar tail) but every element goes through the same per-point
    /// expressions as [`KernelKind::eval`], so the output is **bit-identical**
    /// to a scalar loop — pinned by `crates/core/tests/lane_chunks.rs`.
    pub fn residuals_into(&self, params: &[f64], xs: &[f64], ys: &[f64], out: &mut [f64]) {
        debug_assert_eq!(params.len(), self.param_count(), "parameter count mismatch");
        debug_assert_eq!(xs.len(), ys.len(), "observation length mismatch");
        debug_assert_eq!(xs.len(), out.len(), "output length mismatch");
        match self {
            KernelKind::Rat22 => residuals_chunked(|x| rat22_value(params, x), xs, ys, out),
            KernelKind::Rat23 => residuals_chunked(|x| rat23_value(params, x), xs, ys, out),
            KernelKind::Rat33 => residuals_chunked(|x| rat33_value(params, x), xs, ys, out),
            KernelKind::CubicLn => residuals_chunked(|x| cubic_ln_value(params, x), xs, ys, out),
            KernelKind::ExpRat => residuals_chunked(|x| exp_rat_value(params, x), xs, ys, out),
            KernelKind::Poly25 => residuals_chunked(|x| poly25_value(params, x), xs, ys, out),
        }
    }

    /// Fill a column-major Jacobian slab: `out[j * xs.len() + i]` receives
    /// `∂ eval / ∂ params[j]` at `xs[i]`, for all [`KernelKind::param_count`]
    /// parameters (so `out` must be `param_count * xs.len()` long).
    ///
    /// Like [`KernelKind::residuals_into`], the fill is lane-chunked but
    /// routes through the same per-point expressions as
    /// [`KernelKind::partials`], so each entry is bit-identical to the scalar
    /// path.
    pub fn partials_into(&self, params: &[f64], xs: &[f64], out: &mut [f64]) {
        debug_assert_eq!(params.len(), self.param_count(), "parameter count mismatch");
        match self {
            KernelKind::Rat22 => {
                partials_chunked::<5, _>(|x, row| rat22_partials(params, x, row), xs, out)
            }
            KernelKind::Rat23 => {
                partials_chunked::<6, _>(|x, row| rat23_partials(params, x, row), xs, out)
            }
            KernelKind::Rat33 => {
                partials_chunked::<7, _>(|x, row| rat33_partials(params, x, row), xs, out)
            }
            KernelKind::CubicLn => {
                partials_chunked::<4, _>(|x, row| cubic_ln_partials(params, x, row), xs, out)
            }
            KernelKind::ExpRat => {
                partials_chunked::<4, _>(|x, row| exp_rat_partials(params, x, row), xs, out)
            }
            KernelKind::Poly25 => {
                partials_chunked::<4, _>(|x, row| poly25_partials(params, x, row), xs, out)
            }
        }
    }

    /// Analytic partial derivatives of the kernel value with respect to every
    /// parameter, written into `out` (length [`KernelKind::param_count`]).
    ///
    /// Because the least-squares residual is `eval(params, x) - y`, these are
    /// also the residual's partials, which is what the Levenberg–Marquardt
    /// Jacobian needs — one call here replaces the `P + 1` model evaluations
    /// per observation that finite differencing costs.
    pub fn partials(&self, params: &[f64], x: f64, out: &mut [f64]) {
        debug_assert_eq!(params.len(), self.param_count(), "parameter count mismatch");
        debug_assert_eq!(out.len(), self.param_count(), "output length mismatch");
        match self {
            KernelKind::Rat22 => rat22_partials(params, x, out),
            KernelKind::Rat23 => rat23_partials(params, x, out),
            KernelKind::Rat33 => rat33_partials(params, x, out),
            KernelKind::CubicLn => cubic_ln_partials(params, x, out),
            KernelKind::ExpRat => exp_rat_partials(params, x, out),
            KernelKind::Poly25 => poly25_partials(params, x, out),
        }
    }

    /// Value of the denominator at `n`, for kernels that have one. Used by the
    /// realism check to reject fits whose denominator crosses zero inside the
    /// extrapolation range (a pole would produce an absurd prediction).
    pub fn denominator(&self, params: &[f64], n: f64) -> Option<f64> {
        match self {
            KernelKind::Rat22 => Some(rat22_den(params, n)),
            KernelKind::Rat23 => Some(rat23_den(params, n)),
            KernelKind::Rat33 => Some(rat33_den(params, n)),
            KernelKind::ExpRat => Some(exp_rat_den(params, n)),
            KernelKind::CubicLn | KernelKind::Poly25 => None,
        }
    }

    /// Design-matrix row of a linear kernel at `n`, written into `out`
    /// (length [`KernelKind::param_count`]), so the grid fitter builds its
    /// design slabs without per-row allocation. Panics for nonlinear
    /// kernels.
    pub fn design_row_into(&self, n: f64, out: &mut [f64]) {
        // A linear kernel's design row is its Jacobian row, which does not
        // read the parameters.
        match self {
            KernelKind::CubicLn => cubic_ln_partials(&[], n, out),
            KernelKind::Poly25 => poly25_partials(&[], n, out),
            _ => panic!("design_row_into called on nonlinear kernel {self:?}"),
        }
    }
}

impl std::fmt::Display for KernelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A fitted parameter vector (layout per [`KernelKind::eval`]), held inline:
/// up to [`Params::CAPACITY`] values, the most any kernel has (Rat33's
/// seven), so a candidate curve allocates nothing for its parameters and
/// frees nothing when it is dropped. It dereferences to the slice of its
/// values (a reference iterates them, as one to a `Vec` would) and is built
/// from one; two are equal when their slices are, and it prints as its
/// slice does.
#[derive(Clone, Copy, Serialize, Deserialize)]
pub struct Params {
    len: usize,
    values: [f64; Params::CAPACITY],
}

impl Params {
    /// The most values a `Params` holds: [`KernelKind::Rat33`]'s parameter
    /// count.
    pub const CAPACITY: usize = 7;
}

impl std::ops::Deref for Params {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        &self.values[..self.len]
    }
}

impl<'a> IntoIterator for &'a Params {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl From<&[f64]> for Params {
    /// Copy `values` inline.
    ///
    /// # Panics
    ///
    /// When `values` holds more than [`Params::CAPACITY`] values.
    fn from(values: &[f64]) -> Self {
        assert!(
            values.len() <= Params::CAPACITY,
            "{} parameters exceed the {} a kernel has at most",
            values.len(),
            Params::CAPACITY
        );
        let mut params = Params {
            len: values.len(),
            values: [0.0; Params::CAPACITY],
        };
        params.values[..values.len()].copy_from_slice(values);
        params
    }
}

impl From<Vec<f64>> for Params {
    /// Copy `values` inline; panics like `From<&[f64]>`.
    fn from(values: Vec<f64>) -> Self {
        Params::from(values.as_slice())
    }
}

impl PartialEq for Params {
    fn eq(&self, other: &Params) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for Params {
    /// The values as a list, like the slice they dereference to.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// A fitted instance of a kernel: the kernel family plus its parameter vector
/// and fit metadata. This is the unit the model-selection step ranks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FittedCurve {
    /// Which kernel family this curve belongs to.
    pub kernel: KernelKind,
    /// Fitted parameter vector (layout per [`KernelKind::eval`]), inline.
    pub params: Params,
    /// Root-mean-square error at the held-out checkpoints (the selection
    /// criterion of §3.1.2).
    pub checkpoint_rmse: f64,
    /// Root-mean-square error on the training points.
    pub training_rmse: f64,
    /// Number of training points the curve was fitted on (the paper refits on
    /// every prefix `i in 3..n` to avoid over-fitting).
    pub training_points: usize,
}

impl FittedCurve {
    /// Evaluate the fitted curve at a (possibly fractional) core count.
    pub fn eval(&self, n: f64) -> f64 {
        self.kernel.eval(&self.params, n)
    }

    /// Evaluate the curve at every core count in `1..=max_cores`.
    pub fn eval_range(&self, max_cores: u32) -> Vec<(u32, f64)> {
        (1..=max_cores).map(|c| (c, self.eval(c as f64))).collect()
    }

    /// True when the curve produces finite, non-negative values and a
    /// non-vanishing denominator over `1..=max_cores`, and never exceeds
    /// `max_magnitude` there. This is the paper's "discard the function
    /// types that produce functions that are not realistic for this
    /// approximation" rule, made concrete.
    pub fn is_realistic(&self, max_cores: u32, max_magnitude: f64) -> bool {
        let mut discard = Vec::new();
        self.is_realistic_captured(max_cores, max_magnitude, &mut discard)
    }

    /// [`FittedCurve::is_realistic`] that additionally records `eval(c)` for
    /// every integer `c in 1..=max_cores` into `values` (`values[c - 1]`),
    /// so the realism walk doubles as the construction of an integer-grid
    /// evaluation table. When the curve is rejected, `values` must be
    /// discarded.
    ///
    /// Builds a [`HorizonTable`] for `max_cores` per call; callers walking
    /// many curves at one horizon build the table once and call
    /// [`HorizonTable::walk`].
    pub fn is_realistic_captured(
        &self,
        max_cores: u32,
        max_magnitude: f64,
        values: &mut Vec<f64>,
    ) -> bool {
        HorizonTable::new(max_cores)
            .walk(self.kernel, &self.params, values)
            .is_some_and(|max| within_cap(max, max_magnitude))
    }
}

/// The realism rule's magnitude test on a walk's largest value: `!(max >
/// cap)`. A walk captures finite, non-negative values only, so this is the
/// per-value `v.abs() > cap` rejection applied to every value, for every
/// cap, NaN included (nothing compares greater than NaN).
pub(crate) fn within_cap(max: f64, cap: f64) -> bool {
    max.partial_cmp(&cap) != Some(Ordering::Greater)
}

/// The core counts the realism walk visits at one horizon `h`, computed once
/// and read by every walk at that horizon: the abscissae `CubicLn` and
/// `Poly25` evaluate at each integer `c in 1..=h` (`ln(c)` and `c^2.5`), and
/// the `max(4·h, 4) + 1` evenly spaced points of the denominator sign sweep
/// over `[1, h]`.
#[derive(Debug)]
pub struct HorizonTable {
    horizon: u32,
    /// `cubic_ln_abscissa(c)` at `[c - 1]`.
    ln: Vec<f64>,
    /// `poly25_abscissa(c)` at `[c - 1]`.
    pow25: Vec<f64>,
    /// The sign sweep's abscissae, ascending from 1.
    sweep: Vec<f64>,
}

impl Default for HorizonTable {
    /// The table of horizon 0 (an empty integer grid).
    fn default() -> Self {
        HorizonTable::new(0)
    }
}

impl HorizonTable {
    /// Build the table for `horizon`.
    pub fn new(horizon: u32) -> Self {
        let cores = (1..=horizon).map(|c| c as f64);
        let steps = (horizon as usize * 4).max(4);
        let last = horizon as f64 - 1.0;
        HorizonTable {
            horizon,
            ln: cores.clone().map(cubic_ln_abscissa).collect(),
            pow25: cores.map(poly25_abscissa).collect(),
            sweep: (0..=steps)
                .map(|s| 1.0 + last * s as f64 / steps as f64)
                .collect(),
        }
    }

    /// The largest core count the walk visits.
    pub fn horizon(&self) -> u32 {
        self.horizon
    }

    /// Rebuild the table for `horizon` unless it already covers exactly it.
    pub(crate) fn cover(&mut self, horizon: u32) {
        if self.horizon != horizon {
            *self = HorizonTable::new(horizon);
        }
    }

    /// The realism walk of `kernel` at `params`: the largest value the
    /// curve takes at an integer core count `1..=horizon`, or `None` when
    /// it is negative or not finite at one of them, or has a denominator
    /// (for kernels that have one) less than `1e-9` away from zero at one of
    /// them or of changing sign across the sweep. Records the curve's value
    /// at core count `c` into `values[c - 1]`; on rejection `values` must be
    /// discarded. An empty grid (horizon 0) walks to `-∞`.
    ///
    /// The walk takes no magnitude cap: a caller accepts the curve under a
    /// cap iff `!(max > cap)` for the returned maximum, which is the
    /// per-value `v.abs() > cap` rejection for every cap, NaN included. So
    /// one walk serves every cap.
    ///
    /// One match on the kernel selects a loop specialised to it; each point
    /// computes the denominator once and both the pole check and the value
    /// use it. Every value is the expression [`KernelKind::eval`] computes,
    /// at the same arguments (`ExpRat`'s `1e-12` guard cannot fire once the
    /// `1e-9` pole check passed), so `values` is bit-identical to `eval`.
    pub fn walk(&self, kernel: KernelKind, params: &[f64], values: &mut Vec<f64>) -> Option<f64> {
        debug_assert_eq!(
            params.len(),
            kernel.param_count(),
            "parameter count mismatch"
        );
        let p = params;
        match kernel {
            KernelKind::Rat22 => {
                self.walk_poles(|n| rat22_den(p, n), |n, den| rat22_num(p, n) / den, values)
            }
            KernelKind::Rat23 => {
                self.walk_poles(|n| rat23_den(p, n), |n, den| rat22_num(p, n) / den, values)
            }
            KernelKind::Rat33 => {
                self.walk_poles(|n| rat33_den(p, n), |n, den| rat33_num(p, n) / den, values)
            }
            KernelKind::ExpRat => self.walk_poles(
                |n| exp_rat_den(p, n),
                |n, den| exp_rat_at(p, n, den),
                values,
            ),
            KernelKind::CubicLn => {
                self.capture(self.ln.iter().map(|l| Some(cubic_ln_at(p, *l))), values)
            }
            KernelKind::Poly25 => self.capture(
                (1..=self.horizon)
                    .zip(&self.pow25)
                    .map(|(c, r)| Some(poly25_at(p, c as f64, *r))),
                values,
            ),
        }
    }

    /// The walk of a kernel with a denominator `den`: a pole check at every
    /// integer core count, then the value `value(n, den(n))`, then the sign
    /// sweep against the denominator at one core. The sweep runs to the end
    /// rather than stopping at the first sign change, so it vectorises.
    #[inline(always)]
    fn walk_poles(
        &self,
        den: impl Fn(f64) -> f64,
        value: impl Fn(f64, f64) -> f64,
        values: &mut Vec<f64>,
    ) -> Option<f64> {
        let points = (1..=self.horizon).map(|c| {
            let n = c as f64;
            let d = den(n);
            if d.abs() < 1e-9 {
                None
            } else {
                Some(value(n, d))
            }
        });
        let max = self.capture(points, values)?;
        let first = den(1.0);
        let flipped = self
            .sweep
            .iter()
            .fold(false, |flipped, n| flipped | (den(*n) * first < 0.0));
        (!flipped).then_some(max)
    }

    /// The integer half of every walk: `points` yields the curve's value at
    /// each core count `1..=horizon` in ascending order, or `None` at a pole.
    /// The first pole or value that is not finite and non-negative rejects
    /// the curve; accepted values are pushed onto `values`, and their
    /// running maximum is returned.
    #[inline(always)]
    fn capture(
        &self,
        points: impl Iterator<Item = Option<f64>>,
        values: &mut Vec<f64>,
    ) -> Option<f64> {
        values.clear();
        values.reserve(self.horizon as usize);
        let mut max = f64::NEG_INFINITY;
        for point in points {
            let v = point?;
            if !v.is_finite() || v < 0.0 {
                return None;
            }
            max = max.max(v);
            values.push(v);
        }
        Some(max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn all_kernels_listed_once() {
        assert_eq!(KernelKind::ALL.len(), 6);
        let names: std::collections::HashSet<_> =
            KernelKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn param_counts_match_table1() {
        assert_eq!(KernelKind::Rat22.param_count(), 5);
        assert_eq!(KernelKind::Rat23.param_count(), 6);
        assert_eq!(KernelKind::Rat33.param_count(), 7);
        assert_eq!(KernelKind::CubicLn.param_count(), 4);
        assert_eq!(KernelKind::ExpRat.param_count(), 4);
        assert_eq!(KernelKind::Poly25.param_count(), 4);
    }

    #[test]
    fn linear_kernels_flagged() {
        assert!(KernelKind::CubicLn.is_linear());
        assert!(KernelKind::Poly25.is_linear());
        assert!(!KernelKind::Rat22.is_linear());
        assert!(!KernelKind::ExpRat.is_linear());
    }

    #[test]
    fn rat22_constant_function() {
        // a0 = 7, all else zero -> constant 7
        let p = [7.0, 0.0, 0.0, 0.0, 0.0];
        for n in [1.0, 4.0, 48.0] {
            assert!(approx(KernelKind::Rat22.eval(&p, n), 7.0, 1e-12));
        }
    }

    #[test]
    fn rat33_reduces_to_linear_when_denominator_trivial() {
        // (0 + 2n)/1 = 2n
        let p = [0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        assert!(approx(KernelKind::Rat33.eval(&p, 10.0), 20.0, 1e-12));
    }

    #[test]
    fn cubicln_at_one_core_is_intercept() {
        let p = [5.0, 3.0, -1.0, 0.5];
        assert!(approx(KernelKind::CubicLn.eval(&p, 1.0), 5.0, 1e-12));
    }

    #[test]
    fn exprat_matches_manual_formula() {
        let p = [1.0, 0.5, 2.0, 0.1];
        let n = 8.0_f64;
        let expected = ((1.0 + 0.5 * n) / (2.0 + 0.1 * n)).exp();
        assert!(approx(KernelKind::ExpRat.eval(&p, n), expected, 1e-12));
    }

    #[test]
    fn exprat_degenerate_denominator_is_infinite() {
        let p = [1.0, 0.5, 0.0, 0.0];
        assert!(KernelKind::ExpRat.eval(&p, 4.0).is_infinite());
    }

    #[test]
    fn poly25_matches_manual_formula() {
        let p = [1.0, 2.0, 3.0, 4.0];
        let n: f64 = 4.0;
        let expected = 1.0 + 2.0 * n + 3.0 * n * n + 4.0 * n.powf(2.5);
        assert!(approx(KernelKind::Poly25.eval(&p, n), expected, 1e-12));
    }

    #[test]
    fn design_rows_match_eval_for_linear_kernels() {
        for kernel in [KernelKind::CubicLn, KernelKind::Poly25] {
            let params = [0.3, -1.2, 0.7, 0.05];
            for n in [1.0, 3.0, 12.0, 48.0] {
                let mut row = [0.0; 4];
                kernel.design_row_into(n, &mut row);
                let via_row: f64 = row.iter().zip(&params).map(|(r, p)| r * p).sum();
                assert!(approx(via_row, kernel.eval(&params, n), 1e-9));
            }
        }
    }

    #[test]
    #[should_panic]
    fn design_row_panics_for_rational() {
        KernelKind::Rat22.design_row_into(2.0, &mut [0.0; 5]);
    }

    /// Pole-free parameter grid per kernel for derivative checks.
    fn jacobian_check_cases() -> Vec<(KernelKind, Vec<Vec<f64>>)> {
        vec![
            (
                KernelKind::Rat22,
                vec![
                    vec![50.0, 10.0, 2.0, 0.05, 0.001],
                    vec![7.0, -0.5, 0.3, 0.2, 0.01],
                    vec![1.0, 0.0, 0.0, 0.0, 0.0],
                ],
            ),
            (
                KernelKind::Rat23,
                vec![
                    vec![40.0, 5.0, 1.0, 0.1, 0.01, 0.001],
                    vec![3.0, 1.5, -0.2, 0.02, 0.004, 0.0002],
                ],
            ),
            (
                KernelKind::Rat33,
                vec![
                    vec![30.0, 8.0, 1.0, 0.05, 0.1, 0.01, 0.001],
                    vec![5.0, -1.0, 0.4, 0.01, 0.03, 0.002, 0.0001],
                ],
            ),
            (
                KernelKind::CubicLn,
                vec![vec![5.0, 3.0, -1.0, 0.5], vec![-2.0, 0.0, 4.0, 0.1]],
            ),
            (
                KernelKind::ExpRat,
                vec![vec![2.0, 0.3, 1.0, 0.05], vec![-1.0, 0.1, 2.0, 0.2]],
            ),
            (
                KernelKind::Poly25,
                vec![vec![1.0, 2.0, 3.0, 4.0], vec![100.0, -5.0, 0.2, 0.01]],
            ),
        ]
    }

    #[test]
    fn analytic_partials_match_central_differences() {
        for (kernel, param_sets) in jacobian_check_cases() {
            for params in param_sets {
                for x in [1.0, 2.0, 3.5, 6.0, 9.0, 12.0, 24.0, 48.0] {
                    let mut analytic = vec![0.0; kernel.param_count()];
                    kernel.partials(&params, x, &mut analytic);
                    for j in 0..kernel.param_count() {
                        let h = 1e-6 * params[j].abs().max(1.0);
                        let mut hi = params.clone();
                        hi[j] += h;
                        let mut lo = params.clone();
                        lo[j] -= h;
                        let numeric = (kernel.eval(&hi, x) - kernel.eval(&lo, x)) / (2.0 * h);
                        // Tolerance bounded by the central-difference
                        // truncation error, which grows with x on the
                        // rational kernels.
                        let scale = numeric.abs().max(analytic[j].abs()).max(1.0);
                        assert!(
                            (analytic[j] - numeric).abs() <= 1e-4 * scale,
                            "{kernel:?} d/dp[{j}] at x={x}: analytic {} vs central {numeric}",
                            analytic[j]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn linear_kernel_partials_equal_design_rows() {
        // For kernels linear in their parameters the Jacobian row is the
        // design row, independent of the parameter values.
        for kernel in [KernelKind::CubicLn, KernelKind::Poly25] {
            let params = [2.0, -0.3, 0.7, 0.01];
            for n in [1.0, 6.0, 48.0] {
                let mut row = [0.0; 4];
                kernel.partials(&params, n, &mut row);
                let mut design = [0.0; 4];
                kernel.design_row_into(n, &mut design);
                assert_eq!(row, design);
            }
        }
    }

    #[test]
    fn realistic_rejects_pole_in_range() {
        // Denominator 1 - 0.1 n crosses zero at n = 10.
        let curve = FittedCurve {
            kernel: KernelKind::Rat22,
            params: vec![1.0, 1.0, 0.0, -0.1, 0.0].into(),
            checkpoint_rmse: 0.0,
            training_rmse: 0.0,
            training_points: 5,
        };
        assert!(!curve.is_realistic(48, 1e30));
        assert!(curve.is_realistic(5, 1e30));
    }

    #[test]
    fn realistic_rejects_negative_values() {
        let curve = FittedCurve {
            kernel: KernelKind::Poly25,
            params: vec![1.0, -10.0, 0.0, 0.0].into(),
            checkpoint_rmse: 0.0,
            training_rmse: 0.0,
            training_points: 5,
        };
        assert!(!curve.is_realistic(48, 1e30));
    }

    #[test]
    fn realistic_accepts_growing_curve() {
        let curve = FittedCurve {
            kernel: KernelKind::Poly25,
            params: vec![100.0, 5.0, 0.2, 0.01].into(),
            checkpoint_rmse: 0.0,
            training_rmse: 0.0,
            training_points: 5,
        };
        assert!(curve.is_realistic(64, 1e30));
    }

    #[test]
    fn eval_range_covers_all_core_counts() {
        let curve = FittedCurve {
            kernel: KernelKind::CubicLn,
            params: vec![1.0, 1.0, 0.0, 0.0].into(),
            checkpoint_rmse: 0.0,
            training_rmse: 0.0,
            training_points: 4,
        };
        let range = curve.eval_range(16);
        assert_eq!(range.len(), 16);
        assert_eq!(range[0].0, 1);
        assert_eq!(range[15].0, 16);
    }

    #[test]
    fn params_hold_every_kernel_inline_and_compare_as_slices() {
        let widest = KernelKind::ALL.iter().map(KernelKind::param_count).max();
        assert_eq!(widest, Some(Params::CAPACITY));
        let params = Params::from(&[1.0, -0.0][..]);
        assert_eq!(&*params, &[1.0, -0.0]);
        assert_eq!(params, Params::from(vec![1.0, 0.0]));
        assert_ne!(params, Params::from(&[1.0][..]));
        assert_eq!(format!("{params:?}"), format!("{:?}", vec![1.0, -0.0]));
    }

    #[test]
    #[should_panic]
    fn params_refuse_more_values_than_any_kernel_has() {
        let _ = Params::from(&[0.0; Params::CAPACITY + 1][..]);
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(format!("{}", KernelKind::Rat23), "Rat23");
    }

    #[test]
    fn residuals_into_matches_scalar_loop_bitwise() {
        for (kernel, param_sets) in jacobian_check_cases() {
            for params in &param_sets {
                // Lengths straddling the lane boundary exercise block + tail.
                for len in [0, 1, LANES - 1, LANES, LANES + 1, 3 * LANES + 2] {
                    let xs: Vec<f64> = (0..len).map(|i| 1.0 + 0.7 * i as f64).collect();
                    let ys: Vec<f64> = xs.iter().map(|x| 10.0 + x * x).collect();
                    let mut chunked = vec![f64::NAN; len];
                    kernel.residuals_into(params, &xs, &ys, &mut chunked);
                    for i in 0..len {
                        let v = kernel.eval(params, xs[i]);
                        let scalar = if v.is_finite() {
                            v - ys[i]
                        } else {
                            POLE_PENALTY
                        };
                        assert_eq!(
                            chunked[i].to_bits(),
                            scalar.to_bits(),
                            "{kernel:?} residual[{i}] of {len} diverged"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn partials_into_matches_scalar_partials_bitwise() {
        for (kernel, param_sets) in jacobian_check_cases() {
            for params in &param_sets {
                let p = kernel.param_count();
                for len in [0, 1, LANES - 1, LANES, LANES + 1, 2 * LANES + 3] {
                    let xs: Vec<f64> = (0..len).map(|i| 1.0 + 0.9 * i as f64).collect();
                    let mut slab = vec![f64::NAN; p * len];
                    kernel.partials_into(params, &xs, &mut slab);
                    let mut row = vec![0.0; p];
                    for (i, x) in xs.iter().enumerate() {
                        kernel.partials(params, *x, &mut row);
                        for j in 0..p {
                            assert_eq!(
                                slab[j * len + i].to_bits(),
                                row[j].to_bits(),
                                "{kernel:?} ∂/∂p[{j}] at point {i} of {len} diverged"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn residuals_into_substitutes_pole_penalty() {
        // ExpRat with a degenerate denominator is non-finite everywhere.
        let params = [1.0, 0.5, 0.0, 0.0];
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [1.0; 5];
        let mut out = [0.0; 5];
        KernelKind::ExpRat.residuals_into(&params, &xs, &ys, &mut out);
        assert!(out.iter().all(|r| *r == POLE_PENALTY));
    }
}
