//! Criterion bench: kernel fitting throughput.
//!
//! Measures how fast each Table 1 kernel can be fitted to a 12-point series
//! (the size ESTIMA deals with when measuring one Opteron socket), the cost
//! of the full model-selection loop (`approximate_series`), the
//! allocation-free strip-structured candidate grid against a faithful emulation of the pre-PR per-cell path,
//! a `FitCache`-backed refit after the newest point changed (the solve
//! memo's case), and the realism walk over a prebuilt horizon table against
//! the per-point walk it replaced.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use estima_core::engine::CacheScope;
use estima_core::kernels::{FittedCurve, HorizonTable};
use estima_core::{
    approximate_series, candidate_fits, fit_kernel, Engine, FitCache, FitContext, FitOptions,
    KernelKind,
};

fn series() -> (Vec<f64>, Vec<f64>) {
    let xs: Vec<f64> = (1..=12).map(|c| c as f64).collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| 1.0e9 + 2.0e7 * x + 5.0e5 * x * x)
        .collect();
    (xs, ys)
}

fn bench_single_kernels(c: &mut Criterion) {
    let (xs, ys) = series();
    let mut group = c.benchmark_group("fit_kernel");
    group.sample_size(30);
    for kernel in KernelKind::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(kernel.name()),
            &kernel,
            |b, &k| {
                b.iter(|| {
                    fit_kernel(k, std::hint::black_box(&xs), std::hint::black_box(&ys)).unwrap()
                })
            },
        );
    }
    group.finish();
}

fn bench_model_selection(c: &mut Criterion) {
    let (xs, ys) = series();
    let options = FitOptions::default();
    let mut group = c.benchmark_group("approximate_series");
    group.sample_size(20);
    group.bench_function("12_points_all_kernels", |b| {
        b.iter(|| {
            approximate_series(
                std::hint::black_box(&xs),
                std::hint::black_box(&ys),
                "bench",
                &options,
                &FitContext::default(),
            )
            .unwrap()
        })
    });
    group.finish();
}

fn bench_parallel_candidate_grid(c: &mut Criterion) {
    let (xs, ys) = series();
    let options = FitOptions::default();
    let mut group = c.benchmark_group("candidate_fits");
    group.sample_size(20);
    for workers in [1usize, 2, 4] {
        let ctx = FitContext::new(Engine::new(workers));
        group.bench_with_input(
            BenchmarkId::new("grid_fanout_workers", workers),
            &ctx,
            |b, ctx| {
                b.iter(|| {
                    candidate_fits(
                        std::hint::black_box(&xs),
                        std::hint::black_box(&ys),
                        &options,
                        ctx,
                    )
                    .unwrap()
                })
            },
        );
    }
    group.finish();
}

/// Faithful emulation of the pre-PR fitting path, used as the baseline for
/// the `candidate_grid` speedup claim: per-cell grid enumeration with fresh
/// `Vec` collections per cell, linear kernels solved by a freshly built
/// QR system per cell, and nonlinear kernels refined by the closure-based
/// Levenberg–Marquardt (finite-difference Jacobian, allocating per
/// iteration), and every cell walked for realism point by point — exactly
/// the shape of the code the columnar grid replaced. The row-major matrix
/// and its allocating solvers are a private copy in [`row_major`].
mod pre_pr {
    use super::row_major::{
        design_row, solve_cholesky, solve_gaussian, solve_least_squares_qr, Matrix,
    };
    use estima_core::fit::{MAX_MAGNITUDE, MIN_TRAINING_POINTS};
    use estima_core::kernels::{FittedCurve, KernelKind};
    use estima_core::linalg::norm2;
    use estima_core::stats::rmse;
    use estima_core::FitOptions;

    /// The settings the old loop read, a private copy: the values the
    /// library's solver still uses, plus the finite-difference step it no
    /// longer has.
    const MAX_ITERATIONS: usize = 200;
    const INITIAL_LAMBDA: f64 = 1e-3;
    const LAMBDA_UP: f64 = 10.0;
    const LAMBDA_DOWN: f64 = 0.3;
    const TOLERANCE: f64 = 1e-12;
    const FINITE_DIFFERENCE_STEP: f64 = 1e-6;

    /// Verbatim copy of the pre-PR Levenberg–Marquardt loop: finite-difference
    /// Jacobian, a fresh `Matrix`/`Vec` per iteration and per damping attempt,
    /// Gaussian elimination on clones. This is the baseline the `fast` path
    /// is measured against.
    fn levenberg_marquardt_old<F>(
        model: F,
        xs: &[f64],
        ys: &[f64],
        initial: &[f64],
    ) -> Option<Vec<f64>>
    where
        F: Fn(&[f64], f64) -> f64,
    {
        let n_params = initial.len();
        let n_obs = xs.len();
        let residuals = |params: &[f64]| -> Vec<f64> {
            xs.iter()
                .zip(ys)
                .map(|(x, y)| {
                    let v = model(params, *x);
                    if v.is_finite() {
                        v - y
                    } else {
                        1e150
                    }
                })
                .collect()
        };
        let mut params = initial.to_vec();
        let mut res = residuals(&params);
        let mut cost = norm2(&res);
        let mut lambda = INITIAL_LAMBDA;
        let mut converged = false;
        for _iter in 0..MAX_ITERATIONS {
            let mut jac = Matrix::zeros(n_obs, n_params);
            for j in 0..n_params {
                let step = FINITE_DIFFERENCE_STEP * params[j].abs().max(1e-4);
                let mut bumped = params.clone();
                bumped[j] += step;
                let res_bumped = residuals(&bumped);
                for i in 0..n_obs {
                    jac[(i, j)] = (res_bumped[i] - res[i]) / step;
                }
            }
            let jtj = jac.gram();
            let jtr = jac.mul_transpose_vec(&res);
            let mut accepted = false;
            for _attempt in 0..12 {
                let mut damped = jtj.clone();
                for d in 0..n_params {
                    let diag = jtj[(d, d)];
                    damped[(d, d)] = diag + lambda * diag.max(1e-12);
                }
                let neg_jtr: Vec<f64> = jtr.iter().map(|v| -v).collect();
                let delta = match solve_gaussian(&damped, &neg_jtr) {
                    Ok(d) => d,
                    Err(_) => {
                        lambda *= LAMBDA_UP;
                        continue;
                    }
                };
                let candidate: Vec<f64> = params.iter().zip(&delta).map(|(p, d)| p + d).collect();
                let cand_res = residuals(&candidate);
                let cand_cost = norm2(&cand_res);
                if cand_cost.is_finite() && cand_cost < cost {
                    let improvement = (cost - cand_cost) / cost.max(1e-300);
                    params = candidate;
                    res = cand_res;
                    cost = cand_cost;
                    lambda = (lambda * LAMBDA_DOWN).max(1e-15);
                    accepted = true;
                    if improvement < TOLERANCE {
                        converged = true;
                    }
                    break;
                }
                lambda *= LAMBDA_UP;
            }
            if !accepted {
                converged = true;
            }
            if converged {
                break;
            }
        }
        params.iter().all(|p| p.is_finite()).then_some(params)
    }

    fn fit_linear(kernel: KernelKind, xs: &[f64], ys: &[f64]) -> Option<Vec<f64>> {
        let rows: Vec<Vec<f64>> = xs.iter().map(|x| design_row(kernel, *x)).collect();
        let design = Matrix::from_rows(&rows);
        if design.rows() >= design.cols() {
            if let Ok(solution) = solve_least_squares_qr(&design, ys) {
                return Some(solution);
            }
        }
        let mut gram = design.gram();
        let n = gram.rows();
        let scale = (0..n).map(|i| gram[(i, i)]).fold(0.0f64, f64::max).max(1.0);
        for i in 0..n {
            gram[(i, i)] += 1e-8 * scale;
        }
        let rhs = design.mul_transpose_vec(ys);
        solve_cholesky(&gram, &rhs).ok()
    }

    fn initial_guess(kernel: KernelKind, xs: &[f64], ys: &[f64]) -> Vec<f64> {
        let mean_y = ys.iter().sum::<f64>() / ys.len() as f64;
        match kernel {
            KernelKind::Rat22 | KernelKind::Rat23 | KernelKind::Rat33 => {
                let (num_degree, den_degree) = match kernel {
                    KernelKind::Rat22 => (2usize, 2usize),
                    KernelKind::Rat23 => (2, 3),
                    _ => (3, 3),
                };
                let n_params = kernel.param_count();
                if xs.len() >= n_params {
                    let rows: Vec<Vec<f64>> = xs
                        .iter()
                        .zip(ys)
                        .map(|(x, y)| {
                            let mut row = Vec::with_capacity(n_params);
                            for d in 0..=num_degree {
                                row.push(x.powi(d as i32));
                            }
                            for d in 1..=den_degree {
                                row.push(-y * x.powi(d as i32));
                            }
                            row
                        })
                        .collect();
                    if let Ok(sol) = solve_least_squares_qr(&Matrix::from_rows(&rows), ys) {
                        if sol.iter().all(|v| v.is_finite()) {
                            return sol;
                        }
                    }
                }
                let mut p = vec![0.0; n_params];
                p[0] = mean_y;
                p
            }
            KernelKind::ExpRat => {
                if ys.iter().all(|y| *y > 0.0) && xs.len() >= 3 {
                    let zs: Vec<f64> = ys.iter().map(|y| y.ln()).collect();
                    let rows: Vec<Vec<f64>> = xs
                        .iter()
                        .zip(&zs)
                        .map(|(x, z)| vec![1.0, *x, -z * x])
                        .collect();
                    if let Ok(sol) = solve_least_squares_qr(&Matrix::from_rows(&rows), &zs) {
                        if sol.iter().all(|v| v.is_finite()) {
                            return vec![sol[0], sol[1], 1.0, sol[2]];
                        }
                    }
                }
                vec![mean_y.abs().max(1e-9).ln(), 0.0, 1.0, 0.0]
            }
            _ => unreachable!(),
        }
    }

    /// Verbatim copy of the per-point realism walk: the kernel dispatched
    /// through `denominator` and `eval` at every point, `ln`/`powf` computed
    /// per point, and a sign sweep that stops at the first change.
    pub fn is_realistic_captured_old(
        curve: &FittedCurve,
        max_cores: u32,
        max_magnitude: f64,
        values: &mut Vec<f64>,
    ) -> bool {
        values.clear();
        values.reserve(max_cores as usize);
        for c in 1..=max_cores {
            let n = c as f64;
            if let Some(den) = curve.kernel.denominator(&curve.params, n) {
                if den.abs() < 1e-9 {
                    return false;
                }
            }
            let v = curve.eval(n);
            if !v.is_finite() || v < 0.0 || v.abs() > max_magnitude {
                return false;
            }
            values.push(v);
        }
        // Also require the denominator not to change sign anywhere in the
        // range (a sign change implies a pole between integer core counts).
        if let Some(first) = curve.kernel.denominator(&curve.params, 1.0) {
            let steps = (max_cores * 4).max(4);
            for s in 0..=steps {
                let n = 1.0 + (max_cores as f64 - 1.0) * s as f64 / steps as f64;
                if let Some(d) = curve.kernel.denominator(&curve.params, n) {
                    if d * first < 0.0 {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// `FittedCurve::is_realistic` as it was: a fresh capture buffer per
    /// call.
    fn is_realistic_old(curve: &FittedCurve, max_cores: u32, max_magnitude: f64) -> bool {
        let mut discard = Vec::new();
        is_realistic_captured_old(curve, max_cores, max_magnitude, &mut discard)
    }

    /// The pre-PR per-cell candidate grid (sequential).
    pub fn candidate_fits(xs: &[f64], ys: &[f64], options: &FitOptions) -> usize {
        let m = xs.len();
        let viable: Vec<usize> = options
            .checkpoint_counts
            .iter()
            .copied()
            .filter(|c| *c >= 1 && m >= c + MIN_TRAINING_POINTS)
            .collect();
        let data_max = ys.iter().copied().fold(0.0f64, f64::max);
        let magnitude_cap = (data_max * options.max_growth_factor).min(MAX_MAGNITUDE);
        let mut kept = 0;
        for &c in &viable {
            let n_train = m - c;
            let prefixes: Vec<usize> = (MIN_TRAINING_POINTS..=n_train).collect();
            for &prefix in &prefixes {
                for &kernel in &options.kernels {
                    let px = &xs[..prefix];
                    let py = &ys[..prefix];
                    let check_x = &xs[n_train..];
                    let check_y = &ys[n_train..];
                    let params = if kernel.is_linear() {
                        match fit_linear(kernel, px, py) {
                            Some(p) => p,
                            None => continue,
                        }
                    } else {
                        let initial = initial_guess(kernel, px, py);
                        let model = move |p: &[f64], x: f64| kernel.eval(p, x);
                        match levenberg_marquardt_old(model, px, py, &initial) {
                            Some(result) => result,
                            None => continue,
                        }
                    };
                    let train_pred: Vec<f64> =
                        px.iter().map(|x| kernel.eval(&params, *x)).collect();
                    let check_pred: Vec<f64> =
                        check_x.iter().map(|x| kernel.eval(&params, *x)).collect();
                    let curve = FittedCurve {
                        kernel,
                        params: params.into(),
                        checkpoint_rmse: rmse(&check_pred, check_y),
                        training_rmse: rmse(&train_pred, py),
                        training_points: prefix,
                    };
                    if curve.checkpoint_rmse.is_finite()
                        && is_realistic_old(&curve, options.realism_horizon, magnitude_cap)
                    {
                        kept += 1;
                    }
                }
            }
        }
        kept
    }
}

/// The row-major dense matrix and the allocating solvers the pre-PR path
/// called, copied verbatim from the library they have since left, so the
/// baseline keeps its cost: a fresh `Vec` per matrix, per product and per
/// solve, the Gram product summed over the upper triangle and mirrored, and
/// Householder QR on a row-major copy of the design.
mod row_major {
    use estima_core::kernels::KernelKind;
    use estima_core::linalg::{cholesky_solve_in_place, gaussian_solve_in_place};
    use estima_core::{EstimaError, Result};

    /// Dense row-major matrix of `f64`.
    #[derive(Clone)]
    pub struct Matrix {
        rows: usize,
        cols: usize,
        data: Vec<f64>,
    }

    impl Matrix {
        /// Create a matrix of zeros with the given shape.
        pub fn zeros(rows: usize, cols: usize) -> Self {
            Matrix {
                rows,
                cols,
                data: vec![0.0; rows * cols],
            }
        }

        /// Build a matrix from nested rows. All rows must have the same
        /// length.
        pub fn from_rows(rows: &[Vec<f64>]) -> Self {
            let r = rows.len();
            let c = rows.first().map_or(0, |row| row.len());
            let mut data = Vec::with_capacity(r * c);
            for row in rows {
                assert_eq!(row.len(), c, "all rows must have equal length");
                data.extend_from_slice(row);
            }
            Matrix {
                rows: r,
                cols: c,
                data,
            }
        }

        /// Number of rows.
        pub fn rows(&self) -> usize {
            self.rows
        }

        /// Number of columns.
        pub fn cols(&self) -> usize {
            self.cols
        }

        /// Transposed matrix-vector product `A^T * y`.
        pub fn mul_transpose_vec(&self, y: &[f64]) -> Vec<f64> {
            assert_eq!(
                self.rows,
                y.len(),
                "dimension mismatch in mul_transpose_vec"
            );
            let mut out = vec![0.0; self.cols];
            for (i, y_i) in y.iter().enumerate() {
                let row = &self.data[i * self.cols..(i + 1) * self.cols];
                for j in 0..self.cols {
                    out[j] += row[j] * y_i;
                }
            }
            out
        }

        /// Gram matrix `A^T * A`: the upper triangle, then mirrored.
        pub fn gram(&self) -> Matrix {
            let cols = self.cols;
            let mut g = Matrix::zeros(cols, cols);
            let out = &mut g.data;
            for i in 0..self.rows {
                let row = &self.data[i * cols..(i + 1) * cols];
                for j in 0..cols {
                    for k in j..cols {
                        out[j * cols + k] += row[j] * row[k];
                    }
                }
            }
            for j in 0..cols {
                for k in 0..j {
                    out[j * cols + k] = out[k * cols + j];
                }
            }
            g
        }
    }

    impl std::ops::Index<(usize, usize)> for Matrix {
        type Output = f64;
        fn index(&self, (i, j): (usize, usize)) -> &f64 {
            &self.data[i * self.cols + j]
        }
    }

    impl std::ops::IndexMut<(usize, usize)> for Matrix {
        fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
            &mut self.data[i * self.cols + j]
        }
    }

    /// Design-matrix row for the linear kernels, in a fresh `Vec`.
    pub fn design_row(kernel: KernelKind, n: f64) -> Vec<f64> {
        let mut row = vec![0.0; kernel.param_count()];
        kernel.design_row_into(n, &mut row);
        row
    }

    /// Solve the symmetric positive-definite system `A x = b` via Cholesky
    /// factorisation on copies of `A` and `b`.
    pub fn solve_cholesky(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
        let n = a.rows();
        if a.cols() != n || b.len() != n {
            return Err(EstimaError::Numerical("cholesky: shape mismatch".into()));
        }
        if a.data.iter().chain(b).any(|v| !v.is_finite()) {
            return Err(EstimaError::Numerical("cholesky: non-finite input".into()));
        }
        let mut factor = a.data.clone();
        let mut x = b.to_vec();
        if !cholesky_solve_in_place(&mut factor, n, &mut x) {
            return Err(EstimaError::Numerical(
                "cholesky: matrix not positive definite".into(),
            ));
        }
        Ok(x)
    }

    /// Solve a square system `A x = b` by partial-pivoting Gaussian
    /// elimination on copies of `A` and `b`.
    pub fn solve_gaussian(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
        let n = a.rows();
        if a.cols() != n || b.len() != n {
            return Err(EstimaError::Numerical("gaussian: shape mismatch".into()));
        }
        let mut aug = a.data.clone();
        let mut x = b.to_vec();
        if !gaussian_solve_in_place(&mut aug, n, &mut x) {
            return Err(EstimaError::Numerical("gaussian: singular matrix".into()));
        }
        Ok(x)
    }

    /// Solve `min ||A x - b||` by Householder QR on a row-major copy of `A`.
    pub fn solve_least_squares_qr(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
        let (m, n) = (a.rows, a.cols);
        let mut r = a.data[..m * n].to_vec();
        if m < n {
            return Err(EstimaError::Numerical(
                "least squares: fewer rows than columns".into(),
            ));
        }
        if b.len() != m {
            return Err(EstimaError::Numerical(
                "least squares: rhs length mismatch".into(),
            ));
        }
        if r.iter().any(|v| !v.is_finite()) || b.iter().any(|v| !v.is_finite()) {
            return Err(EstimaError::Numerical(
                "least squares: non-finite input".into(),
            ));
        }

        // Apply Householder reflections to both R and the right-hand side.
        let mut rhs = b.to_vec();

        for k in 0..n {
            // Compute the Householder vector for column k.
            let mut norm = 0.0;
            for i in k..m {
                norm += r[i * n + k] * r[i * n + k];
            }
            let norm = norm.sqrt();
            if norm < 1e-300 {
                return Err(EstimaError::Numerical(
                    "least squares: rank deficient design matrix".into(),
                ));
            }
            let alpha = if r[k * n + k] >= 0.0 { -norm } else { norm };
            let mut v = vec![0.0; m];
            for i in k..m {
                v[i] = r[i * n + k];
            }
            v[k] -= alpha;
            let vtv: f64 = v[k..].iter().map(|x| x * x).sum();
            if vtv < 1e-300 {
                continue;
            }
            // Apply the reflection H = I - 2 v v^T / (v^T v) to R and rhs.
            for j in k..n {
                let mut dot = 0.0;
                for i in k..m {
                    dot += v[i] * r[i * n + j];
                }
                let scale = 2.0 * dot / vtv;
                for i in k..m {
                    r[i * n + j] -= scale * v[i];
                }
            }
            let mut dot = 0.0;
            for i in k..m {
                dot += v[i] * rhs[i];
            }
            let scale = 2.0 * dot / vtv;
            for i in k..m {
                rhs[i] -= scale * v[i];
            }
        }

        // Back substitution on the upper-triangular part.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut sum = rhs[i];
            for j in (i + 1)..n {
                sum -= r[i * n + j] * x[j];
            }
            let diag = r[i * n + i];
            if diag.abs() < 1e-300 {
                return Err(EstimaError::Numerical(
                    "least squares: singular triangular factor".into(),
                ));
            }
            x[i] = sum / diag;
        }
        if x.iter().any(|v| !v.is_finite()) {
            return Err(EstimaError::Numerical(
                "least squares: non-finite solution".into(),
            ));
        }
        Ok(x)
    }
}

fn bench_grid_vs_pre_pr(c: &mut Criterion) {
    // The headline comparison: strip-structured allocation-free grid vs the
    // pre-PR per-cell path, both sequential (parallelism = 1).
    let (xs, ys) = series();
    let options = FitOptions::default();
    let uncached = FitContext::new(Engine::new(1));
    let mut group = c.benchmark_group("candidate_grid");
    group.sample_size(20);
    group.bench_function(BenchmarkId::from_parameter("fast"), |b| {
        b.iter(|| {
            candidate_fits(
                std::hint::black_box(&xs),
                std::hint::black_box(&ys),
                &options,
                &uncached,
            )
            .unwrap()
        })
    });
    // The emulation embeds the old LM loop verbatim (finite differences, no
    // step-size pruning, allocations per iteration), with the damping
    // settings both paths use.
    group.bench_function(BenchmarkId::from_parameter("pre_pr_per_cell"), |b| {
        b.iter(|| {
            pre_pr::candidate_fits(
                std::hint::black_box(&xs),
                std::hint::black_box(&ys),
                &options,
            )
        })
    });
    // A cached refit after the newest point (a checkpoint) flipped between
    // two values, as a store ingest does it: new version, invalidated
    // candidate lists, a full candidate-list miss — and every training
    // prefix unchanged, so the solve memo serves every cell whole (no
    // solve, no realism walk).
    // `fast` above stays uncached, so the speedup gate still measures the
    // grid itself.
    let cache = FitCache::new();
    let newest = ys.len() - 1;
    let flips = [ys[newest], ys[newest] * 1.01];
    let mut flipped = ys.clone();
    let mut version = 0u64;
    group.bench_function(BenchmarkId::from_parameter("refit_after_flip"), |b| {
        b.iter(|| {
            version += 1;
            flipped[newest] = flips[(version % 2) as usize];
            cache.invalidate_series("bench");
            let scoped = FitContext {
                cache: Some(&cache),
                scope: Some(CacheScope {
                    series: "bench",
                    version,
                }),
                ..uncached
            };
            candidate_fits(
                std::hint::black_box(&xs),
                std::hint::black_box(&flipped),
                &options,
                &scoped,
            )
            .unwrap()
        })
    });
    group.finish();
}

fn bench_realism_walk(c: &mut Criterion) {
    // One accepted curve per kernel shape — a rational, the exponential and
    // a kernel read from the table's `n^2.5` column — walked over the whole
    // horizon: every point, and for the two with a denominator, the whole
    // sign sweep.
    let horizon = 48;
    let curves = [
        (
            KernelKind::Rat33,
            vec![30.0, 8.0, 1.0, 0.05, 0.1, 0.01, 0.001],
        ),
        (KernelKind::ExpRat, vec![2.0, 0.3, 1.0, 0.05]),
        (KernelKind::Poly25, vec![100.0, 5.0, 0.2, 0.01]),
    ];
    let table = HorizonTable::new(horizon);
    let mut group = c.benchmark_group("realism_walk");
    group.sample_size(30);
    for (kernel, params) in curves {
        let curve = FittedCurve {
            kernel,
            params: params.into(),
            checkpoint_rmse: 0.0,
            training_rmse: 0.0,
            training_points: 12,
        };
        let mut values = Vec::with_capacity(horizon as usize);
        assert!(table.walk(kernel, &curve.params, &mut values).is_some());
        group.bench_function(BenchmarkId::new("table", kernel.name()), |b| {
            b.iter(|| table.walk(kernel, std::hint::black_box(&curve.params), &mut values))
        });
        group.bench_function(BenchmarkId::new("per_point", kernel.name()), |b| {
            b.iter(|| {
                pre_pr::is_realistic_captured_old(
                    std::hint::black_box(&curve),
                    horizon,
                    1e18,
                    &mut values,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_single_kernels,
    bench_model_selection,
    bench_parallel_candidate_grid,
    bench_grid_vs_pre_pr,
    bench_realism_walk
);
criterion_main!(benches);
