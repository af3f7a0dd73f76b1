//! Levenberg–Marquardt nonlinear least squares.
//!
//! The rational kernels (`Rat22`, `Rat23`, `Rat33`) and `ExpRat` of Table 1
//! are nonlinear in their parameters. ESTIMA's reference implementation used
//! the `pythonequation`/ZunZun fitting library; here we implement a compact
//! damped Gauss–Newton (Levenberg–Marquardt) optimiser over a
//! [`KernelKind`].
//!
//! This is the hottest loop of the whole pipeline (every candidate-grid cell
//! of [`crate::fit`] runs it), so the core is written to do **zero heap
//! allocation per iteration**:
//!
//! * the Jacobian is the kernel's **analytic** one, where finite
//!   differences would cost `P + 1` model evaluations per observation per
//!   iteration; residuals and partials are filled through the lane-chunked
//!   slab entry points ([`KernelKind::residuals_into`] /
//!   [`KernelKind::partials_into`]) into a **column-major** Jacobian slab
//!   that the normal-equation reductions consume column-wise;
//! * every buffer the iteration needs (residuals, Jacobian, normal
//!   equations, trial step) lives in a reusable [`LmWorkspace`] that callers
//!   create once per batch of fits and thread through;
//! * the damped normal equations are solved by in-place Cholesky with an
//!   in-place Gaussian-elimination fallback
//!   ([`crate::linalg::cholesky_solve_in_place`] /
//!   [`crate::linalg::gaussian_solve_in_place`]).
//!
//! The damping schedule and the stopping rules are fixed, so a solve is a
//! function of the kernel and the points alone.

use crate::error::{EstimaError, Result};
use crate::kernels::KernelKind;
use crate::linalg::{
    cholesky_solve_in_place, gaussian_solve_in_place, gram_columns_in_place,
    mul_transpose_vec_columns_in_place, norm2,
};

/// Residual value substituted when the model evaluates to a non-finite value
/// (a pole or overflow): huge but finite, so the algebra stays well defined
/// while the step is made unattractive. Defined next to the chunked
/// evaluation paths in [`crate::kernels`]; re-exported here because the LM
/// loop is where the substitution matters.
pub use crate::kernels::POLE_PENALTY;

/// Largest parameter count of any Table 1 kernel (rounded up), so callers can
/// keep parameter vectors in fixed-size stack buffers.
pub const MAX_PARAMS: usize = 8;

/// The damping schedule: at most `MAX_ITERATIONS` outer iterations; λ
/// starts at `INITIAL_LAMBDA` and is multiplied by `LAMBDA_UP` on a rejected
/// step and by `LAMBDA_DOWN` on an accepted one; a relative reduction of the
/// residual norm below `TOLERANCE` has converged.
const MAX_ITERATIONS: usize = 200;
const INITIAL_LAMBDA: f64 = 1e-3;
const LAMBDA_UP: f64 = 10.0;
const LAMBDA_DOWN: f64 = 0.3;
const TOLERANCE: f64 = 1e-12;

/// Step-size threshold: a **rejected** trial step with
/// `‖δ‖ ≤ STEP_TOLERANCE · (‖params‖ + STEP_TOLERANCE)` ends the damping
/// escalation — a larger λ only shrinks the step further, so no downhill
/// move is reachable. This prunes the final iteration's pointless
/// solve/evaluate ladder without affecting accepted steps.
const STEP_TOLERANCE: f64 = 1e-14;

/// Preallocated buffers for the Levenberg–Marquardt iteration. Create one per
/// batch of fits (one per worker thread in the prediction engine) and reuse
/// it: once the buffers have grown to the problem size, iterations perform no
/// heap allocation at all (pinned by the `lm_alloc` integration test).
#[derive(Debug, Clone, Default)]
pub struct LmWorkspace {
    residuals: Vec<f64>,
    trial_residuals: Vec<f64>,
    jacobian: Vec<f64>,
    jtj: Vec<f64>,
    damped: Vec<f64>,
    jtr: Vec<f64>,
    step: Vec<f64>,
    trial_params: Vec<f64>,
}

impl LmWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        LmWorkspace::default()
    }

    /// A workspace pre-sized for problems of up to `n_obs` observations and
    /// `n_params` parameters, so even the first fit allocates nothing.
    pub fn with_capacity(n_obs: usize, n_params: usize) -> Self {
        let mut ws = LmWorkspace::default();
        ws.reserve(n_obs, n_params);
        ws
    }

    /// Grow every buffer to the given problem size. `Vec::resize` within
    /// capacity does not allocate, so repeat calls at or below the high-water
    /// mark are free.
    fn reserve(&mut self, n_obs: usize, n_params: usize) {
        grow(&mut self.residuals, n_obs);
        grow(&mut self.trial_residuals, n_obs);
        grow(&mut self.jacobian, n_obs * n_params);
        grow(&mut self.jtj, n_params * n_params);
        grow(&mut self.damped, n_params * n_params);
        grow(&mut self.jtr, n_params);
        grow(&mut self.step, n_params);
        grow(&mut self.trial_params, n_params);
    }
}

fn grow(buf: &mut Vec<f64>, len: usize) {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
}

/// Statistics of an allocation-free Levenberg–Marquardt run (the fitted
/// parameters are written into the caller's buffer).
#[derive(Debug, Clone, Copy)]
pub struct LmStats {
    /// Final residual norm `sqrt(sum_i r_i^2)`.
    pub residual_norm: f64,
    /// Number of iterations performed.
    pub iterations: usize,
    /// Whether the convergence tolerance was reached (as opposed to running
    /// out of iterations).
    pub converged: bool,
}

/// Minimise `sum_i (kernel(params, x_i) - y_i)^2` over `params`, in place.
///
/// `params` carries the initial guess in and the fitted parameters out; it
/// must hold [`KernelKind::param_count`] values. All scratch lives in
/// `workspace`; once its buffers have grown to the problem size, the call
/// performs **zero heap allocation** (error paths excepted). Non-finite
/// kernel values are treated as enormous residuals
/// ([`POLE_PENALTY`]) so the optimiser steers away from poles rather than
/// aborting.
pub fn levenberg_marquardt_into(
    kernel: KernelKind,
    xs: &[f64],
    ys: &[f64],
    params: &mut [f64],
    workspace: &mut LmWorkspace,
) -> Result<LmStats> {
    if xs.len() != ys.len() {
        return Err(EstimaError::Numerical(
            "levenberg_marquardt_into: xs and ys length mismatch".into(),
        ));
    }
    if xs.is_empty() {
        return Err(EstimaError::Numerical(
            "levenberg_marquardt_into: no observations".into(),
        ));
    }
    if params.len() != kernel.param_count() {
        return Err(EstimaError::Numerical(
            "levenberg_marquardt_into: parameter count mismatch".into(),
        ));
    }

    let n_params = params.len();
    let n_obs = xs.len();
    workspace.reserve(n_obs, n_params);
    let LmWorkspace {
        residuals,
        trial_residuals,
        jacobian,
        jtj,
        damped,
        jtr,
        step,
        trial_params,
    } = workspace;
    let residuals = &mut residuals[..n_obs];
    let trial_residuals = &mut trial_residuals[..n_obs];
    let jacobian = &mut jacobian[..n_obs * n_params];
    let jtj = &mut jtj[..n_params * n_params];
    let damped = &mut damped[..n_params * n_params];
    let jtr = &mut jtr[..n_params];
    let step = &mut step[..n_params];
    let trial_params = &mut trial_params[..n_params];

    kernel.residuals_into(params, xs, ys, residuals);
    let mut cost = norm2(residuals);
    let mut lambda = INITIAL_LAMBDA;
    let mut converged = false;
    let mut iterations = 0;

    for iter in 0..MAX_ITERATIONS {
        iterations = iter + 1;

        // Jacobian of the residual vector, stored as a column-major slab:
        // jacobian[j * n_obs + i] = ∂ r_i / ∂ params[j]. Columns are what
        // the chunked analytic slab fills contiguously per parameter and
        // what the normal-equation reductions consume.
        kernel.partials_into(params, xs, jacobian);
        // A pole-penalty residual is constant, so it is locally flat in
        // every parameter direction.
        for (i, r) in residuals.iter().enumerate() {
            if *r == POLE_PENALTY {
                for j in 0..n_params {
                    jacobian[j * n_obs + i] = 0.0;
                }
            }
        }

        // Normal equations with damping: (J^T J + λ diag(J^T J)) δ = -J^T r.
        // The columnar reductions accumulate over observations in ascending
        // index order — the same summation order as the row-major code they
        // replaced — so every entry is bit-identical.
        gram_columns_in_place(jacobian, n_obs, n_params, jtj);
        mul_transpose_vec_columns_in_place(jacobian, n_obs, n_params, residuals, jtr);
        let mut accepted = false;

        for _attempt in 0..12 {
            let mut solved = false;
            // In-place Cholesky first (the damped matrix is SPD in the
            // well-behaved case), in-place Gaussian elimination as fallback.
            for use_gaussian in [false, true] {
                damped.copy_from_slice(jtj);
                for d in 0..n_params {
                    let diag = jtj[d * n_params + d];
                    damped[d * n_params + d] = diag + lambda * diag.max(1e-12);
                }
                for (s, g) in step.iter_mut().zip(jtr.iter()) {
                    *s = -g;
                }
                solved = if use_gaussian {
                    gaussian_solve_in_place(damped, n_params, step)
                } else {
                    cholesky_solve_in_place(damped, n_params, step)
                };
                if solved {
                    break;
                }
            }
            if !solved {
                lambda *= LAMBDA_UP;
                continue;
            }
            for ((t, p), d) in trial_params.iter_mut().zip(params.iter()).zip(step.iter()) {
                *t = p + d;
            }
            kernel.residuals_into(trial_params, xs, ys, trial_residuals);
            let trial_cost = norm2(trial_residuals);
            if trial_cost.is_finite() && trial_cost < cost {
                let improvement = (cost - trial_cost) / cost.max(1e-300);
                params.copy_from_slice(trial_params);
                residuals.copy_from_slice(trial_residuals);
                cost = trial_cost;
                lambda = (lambda * LAMBDA_DOWN).max(1e-15);
                accepted = true;
                if improvement < TOLERANCE {
                    converged = true;
                }
                break;
            }
            // The step was rejected. If it was already numerically nil
            // relative to the parameters, escalating λ can only produce even
            // smaller steps — stop the ladder and settle here.
            let step_norm = norm2(step);
            let param_norm = norm2(params);
            if step_norm <= STEP_TOLERANCE * (param_norm + STEP_TOLERANCE) {
                break;
            }
            lambda *= LAMBDA_UP;
        }

        if !accepted {
            // No downhill step found even with heavy damping: we are at (or
            // numerically indistinguishable from) a local minimum.
            converged = true;
        }
        if converged {
            break;
        }
    }

    if params.iter().any(|p| !p.is_finite()) {
        return Err(EstimaError::Numerical(
            "levenberg_marquardt_into: diverged to non-finite parameters".into(),
        ));
    }

    Ok(LmStats {
        residual_norm: cost,
        iterations,
        converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    /// Fit `kernel` from `initial` with a fresh workspace.
    fn fit(
        kernel: KernelKind,
        xs: &[f64],
        ys: &[f64],
        initial: &[f64],
    ) -> Result<(Vec<f64>, LmStats)> {
        let mut params = initial.to_vec();
        let mut workspace = LmWorkspace::new();
        let stats = levenberg_marquardt_into(kernel, xs, ys, &mut params, &mut workspace)?;
        Ok((params, stats))
    }

    #[test]
    fn fits_exponential_decay() {
        // y = 5 * exp(-0.5 x) is ExpRat with a = ln 5, b = -0.5, c = 1 and
        // d = 0. ExpRat's parameters are unique only up to a common scale,
        // so compare the ratios to c.
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 5.0 * (-0.5 * x).exp()).collect();
        let initial = [1.0, -0.1, 1.0, 0.0];
        let (p, stats) = fit(KernelKind::ExpRat, &xs, &ys, &initial).unwrap();
        assert!(approx(p[0] / p[2], 5f64.ln(), 1e-4), "{p:?}");
        assert!(approx(p[1] / p[2], -0.5, 1e-4), "{p:?}");
        assert!(approx(p[3] / p[2], 0.0, 1e-4), "{p:?}");
        assert!(stats.residual_norm < 1e-6, "{stats:?}");
    }

    #[test]
    fn fits_rational_function() {
        // y = (1 + 2x) / (1 + 0.1 x) is Rat22 with a2 = b2 = 0.
        let kernel = KernelKind::Rat22;
        let xs: Vec<f64> = (1..=12).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| (1.0 + 2.0 * x) / (1.0 + 0.1 * x))
            .collect();
        let initial = [0.5, 1.0, 0.0, 0.05, 0.0];
        let (p, _) = fit(kernel, &xs, &ys, &initial).unwrap();
        let check: f64 = xs
            .iter()
            .zip(&ys)
            .map(|(x, y)| (kernel.eval(&p, *x) - y).powi(2))
            .sum();
        assert!(check < 1e-8, "residual {check}");
    }

    #[test]
    fn survives_noisy_data() {
        // A line with deterministic noise, fitted by Poly25 (the line is
        // Poly25 with c = d = 0): the fit is no worse than the line and
        // stays on it.
        let kernel = KernelKind::Poly25;
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let noise = |x: f64| {
            if (x as u32).is_multiple_of(2) {
                0.05
            } else {
                -0.05
            }
        };
        let ys: Vec<f64> = xs.iter().map(|x| 3.0 + 2.0 * x + noise(*x)).collect();
        let (p, stats) = fit(kernel, &xs, &ys, &[0.0; 4]).unwrap();
        assert!(stats.residual_norm <= 0.05 * 20f64.sqrt(), "{stats:?}");
        for x in &xs {
            assert!(
                approx(kernel.eval(&p, *x), 3.0 + 2.0 * x, 0.1),
                "{p:?} at {x}"
            );
        }
    }

    #[test]
    fn rejects_mismatched_input() {
        let kernel = KernelKind::Poly25;
        assert!(fit(kernel, &[1.0], &[1.0, 2.0], &[1.0; 4]).is_err());
        assert!(fit(kernel, &[], &[], &[1.0; 4]).is_err());
        assert!(fit(kernel, &[1.0], &[1.0], &[1.0; 3]).is_err());
    }

    #[test]
    fn handles_model_poles_gracefully() {
        // 1 / (1 - 0.26 x) is Rat22 with a0 = 1 and b1 = -0.26: its pole at
        // x ≈ 3.85 lies inside the data range, but the optimiser should
        // still return something finite rather than erroring out.
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [1.1, 1.25, 1.4, 1.6];
        let initial = [1.0, 0.0, 0.0, -0.26, 0.0];
        let result = fit(KernelKind::Rat22, &xs, &ys, &initial);
        assert!(result.unwrap().0.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn pole_penalty_bounds_the_residual_norm() {
        // ExpRat with a zero denominator is infinite everywhere: every
        // residual becomes exactly POLE_PENALTY, no downhill step exists,
        // and the final cost is sqrt(n) * POLE_PENALTY.
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [1.0, 2.0, 3.0, 4.0];
        let initial = [1.0, 0.5, 0.0, 0.0];
        let (p, stats) = fit(KernelKind::ExpRat, &xs, &ys, &initial).unwrap();
        let expected = 2.0 * POLE_PENALTY;
        assert!(
            ((stats.residual_norm - expected) / expected).abs() < 1e-12,
            "residual_norm {}",
            stats.residual_norm
        );
        assert_eq!(p, initial);
    }

    #[test]
    fn iteration_count_bounded() {
        let kernel = KernelKind::ExpRat;
        let truth = [2.0, 0.3, 1.0, 0.05];
        let xs: Vec<f64> = (1..=12).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| kernel.eval(&truth, *x)).collect();
        let initial = [0.0, 0.0, 1.0, 0.0];
        let (_, stats) = fit(kernel, &xs, &ys, &initial).unwrap();
        assert!(stats.iterations > 3, "{stats:?}");
        assert!(stats.iterations <= MAX_ITERATIONS, "{stats:?}");
    }

    #[test]
    fn analytic_jacobian_fits_table1_kernels() {
        // Fit each nonlinear kernel to its own exact series with analytic
        // partials and confirm the fit reproduces the data.
        let cases: Vec<(KernelKind, Vec<f64>, Vec<f64>)> = vec![
            (
                KernelKind::Rat22,
                vec![50.0, 10.0, 2.0, 0.05, 0.001],
                vec![40.0, 8.0, 1.5, 0.04, 0.002],
            ),
            (
                KernelKind::ExpRat,
                vec![2.0, 0.3, 1.0, 0.05],
                vec![1.5, 0.25, 1.0, 0.04],
            ),
        ];
        for (kernel, truth, initial) in cases {
            let xs: Vec<f64> = (1..=12).map(|i| i as f64).collect();
            let ys: Vec<f64> = xs.iter().map(|x| kernel.eval(&truth, *x)).collect();
            let mut params = initial.clone();
            let mut ws = LmWorkspace::new();
            let stats = levenberg_marquardt_into(kernel, &xs, &ys, &mut params, &mut ws).unwrap();
            for (x, y) in xs.iter().zip(&ys) {
                let v = kernel.eval(&params, *x);
                assert!(
                    (v - y).abs() <= 1e-4 * y.abs().max(1.0),
                    "{kernel:?} at {x}: {v} vs {y} (stats {stats:?})"
                );
            }
        }
    }

    #[test]
    fn workspace_is_reusable_across_problem_sizes() {
        // 2x + 1 is Poly25 with c = d = 0.
        let kernel = KernelKind::Poly25;
        let mut ws = LmWorkspace::with_capacity(4, 4);
        // Small problem first, then a larger one that forces buffer growth.
        for n in [4usize, 30] {
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
            let mut params = [0.0; 4];
            let stats = levenberg_marquardt_into(kernel, &xs, &ys, &mut params, &mut ws).unwrap();
            assert!(stats.residual_norm < 1e-6, "n={n}: {stats:?}");
            assert!(approx(params[0], 1.0, 1e-6), "n={n}: {params:?}");
            assert!(approx(params[1], 2.0, 1e-6), "n={n}: {params:?}");
        }
    }
}
