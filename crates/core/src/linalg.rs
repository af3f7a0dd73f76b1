//! Dense linear algebra for the regression layer.
//!
//! ESTIMA's function approximation needs only small dense systems (the largest
//! kernel has seven parameters). The fitting hot path keeps its own flat
//! buffers and calls the allocation-free kernels here: column-major Gram and
//! `Aᵀy` reductions over the Levenberg–Marquardt Jacobian slab, rank-1
//! normal-equation updates for the linear kernels, in-place Cholesky and
//! Gaussian solves, and Householder QR least squares on row-major or
//! column-major storage. A compact row-major [`Matrix`] with allocating
//! wrappers serves the one-shot linear fit behind [`crate::fit::fit_kernel`].
//! Everything is written for numerical robustness on tiny, possibly
//! ill-conditioned systems rather than for large-scale performance.

use crate::error::{EstimaError, Result};

/// Dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
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

    /// Build a matrix from nested rows. All rows must have the same length.
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

    /// Borrow the underlying row-major storage.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Transposed matrix-vector product `A^T * y`.
    pub fn mul_transpose_vec(&self, y: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        self.mul_transpose_vec_into(y, &mut out);
        out
    }

    /// [`Matrix::mul_transpose_vec`] writing into a caller buffer of length
    /// [`Matrix::cols`].
    pub fn mul_transpose_vec_into(&self, y: &[f64], out: &mut [f64]) {
        assert_eq!(
            self.rows,
            y.len(),
            "dimension mismatch in mul_transpose_vec"
        );
        mul_transpose_vec_in_place(&self.data, self.rows, self.cols, y, out);
    }

    /// Gram matrix `A^T * A`.
    pub fn gram(&self) -> Matrix {
        let mut g = Matrix::zeros(self.cols, self.cols);
        self.gram_into(&mut g);
        g
    }

    /// [`Matrix::gram`] writing into a caller-provided square matrix of size
    /// [`Matrix::cols`].
    pub fn gram_into(&self, out: &mut Matrix) {
        assert_eq!(out.rows, self.cols, "gram output shape mismatch");
        assert_eq!(out.cols, self.cols, "gram output shape mismatch");
        gram_in_place(&self.data, self.rows, self.cols, &mut out.data);
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

/// Transposed matrix-vector product `A^T * y` on flat row-major storage,
/// writing into `out[..cols]`. The allocation-free primitive behind
/// [`Matrix::mul_transpose_vec`], and the reference the column-major
/// [`mul_transpose_vec_columns_in_place`] is pinned against bit for bit.
pub fn mul_transpose_vec_in_place(a: &[f64], rows: usize, cols: usize, y: &[f64], out: &mut [f64]) {
    debug_assert!(a.len() >= rows * cols);
    debug_assert!(y.len() >= rows);
    let out = &mut out[..cols];
    out.fill(0.0);
    for (i, y_i) in y.iter().take(rows).enumerate() {
        let row = &a[i * cols..(i + 1) * cols];
        for j in 0..cols {
            out[j] += row[j] * y_i;
        }
    }
}

/// Gram matrix `A^T * A` on flat row-major storage, writing into
/// `out[..cols * cols]`. The allocation-free primitive behind
/// [`Matrix::gram`], and the reference the column-major
/// [`gram_columns_in_place`] is pinned against bit for bit.
pub fn gram_in_place(a: &[f64], rows: usize, cols: usize, out: &mut [f64]) {
    debug_assert!(a.len() >= rows * cols);
    let out = &mut out[..cols * cols];
    out.fill(0.0);
    for i in 0..rows {
        let row = &a[i * cols..(i + 1) * cols];
        for j in 0..cols {
            for k in j..cols {
                out[j * cols + k] += row[j] * row[k];
            }
        }
    }
    // mirror the upper triangle
    for j in 0..cols {
        for k in 0..j {
            out[j * cols + k] = out[k * cols + j];
        }
    }
}

/// Transposed matrix-vector product `A^T * y` where `A` is stored as a flat
/// **column-major** slab (`a[j * rows + i]` is row `i` of column `j`) — the
/// layout of the lane-chunked Jacobian and design slabs. Each output entry is
/// one contiguous column dot, accumulated over ascending observation index:
/// exactly the per-entry summation order of [`mul_transpose_vec_in_place`] on
/// the row-major equivalent, so results are **bit-identical** to the code
/// this replaced.
pub fn mul_transpose_vec_columns_in_place(
    a: &[f64],
    rows: usize,
    cols: usize,
    y: &[f64],
    out: &mut [f64],
) {
    debug_assert!(a.len() >= rows * cols);
    debug_assert!(y.len() >= rows);
    let y = &y[..rows];
    for (j, out_j) in out.iter_mut().take(cols).enumerate() {
        let column = &a[j * rows..(j + 1) * rows];
        let mut sum = 0.0;
        for (c, y_i) in column.iter().zip(y) {
            sum += c * y_i;
        }
        *out_j = sum;
    }
}

/// Gram matrix `A^T * A` where `A` is stored as a flat **column-major** slab
/// (`a[j * rows + i]`), writing into `out[..cols * cols]`. Every entry is a
/// pairwise column dot accumulated over ascending observation index — the
/// same per-entry summation order as [`gram_in_place`] on the row-major
/// equivalent, so results are **bit-identical**.
pub fn gram_columns_in_place(a: &[f64], rows: usize, cols: usize, out: &mut [f64]) {
    debug_assert!(a.len() >= rows * cols);
    let out = &mut out[..cols * cols];
    for j in 0..cols {
        let col_j = &a[j * rows..(j + 1) * rows];
        for k in j..cols {
            let col_k = &a[k * rows..(k + 1) * rows];
            let mut sum = 0.0;
            for (x, y) in col_j.iter().zip(col_k) {
                sum += x * y;
            }
            out[j * cols + k] = sum;
        }
    }
    // mirror the upper triangle
    for j in 0..cols {
        for k in 0..j {
            out[j * cols + k] = out[k * cols + j];
        }
    }
}

/// Accumulate one design row into a gram matrix / right-hand side pair:
/// `gram += row rowᵀ`, `rhs += y · row`. This is the incremental
/// normal-equation update the prefix-refitting grid uses for the linear
/// kernels: growing the training prefix by one point is one rank-1 update
/// instead of a fresh factorisation input.
pub fn accumulate_normal_equations(row: &[f64], y: f64, gram: &mut [f64], rhs: &mut [f64]) {
    let p = row.len();
    debug_assert!(gram.len() >= p * p);
    debug_assert!(rhs.len() >= p);
    for j in 0..p {
        for k in j..p {
            gram[j * p + k] += row[j] * row[k];
        }
        rhs[j] += y * row[j];
    }
    for j in 0..p {
        for k in 0..j {
            gram[j * p + k] = gram[k * p + j];
        }
    }
}

/// In-place Cholesky solve of the symmetric positive-definite system
/// `A x = b` on flat row-major storage: the factor overwrites `a[..n * n]`
/// and the solution overwrites `rhs[..n]`. Returns `false` (leaving the
/// buffers in an unspecified state) when the matrix is not positive definite
/// within tolerance or the solve goes non-finite. Never allocates.
pub fn cholesky_solve_in_place(a: &mut [f64], n: usize, rhs: &mut [f64]) -> bool {
    debug_assert!(a.len() >= n * n);
    debug_assert!(rhs.len() >= n);
    // Lower-triangular factor L with A = L L^T, stored in the lower triangle.
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[i * n + j];
            for k in 0..j {
                sum -= a[i * n + k] * a[j * n + k];
            }
            if i == j {
                if sum.is_nan() || sum <= 1e-14 {
                    return false;
                }
                a[i * n + i] = sum.sqrt();
            } else {
                a[i * n + j] = sum / a[j * n + j];
            }
        }
    }
    // Forward solve L y = b.
    for i in 0..n {
        let mut sum = rhs[i];
        for k in 0..i {
            sum -= a[i * n + k] * rhs[k];
        }
        rhs[i] = sum / a[i * n + i];
    }
    // Backward solve L^T x = y.
    for i in (0..n).rev() {
        let mut sum = rhs[i];
        for k in (i + 1)..n {
            sum -= a[k * n + i] * rhs[k];
        }
        rhs[i] = sum / a[i * n + i];
    }
    rhs.iter().take(n).all(|v| v.is_finite())
}

/// In-place partial-pivoting Gaussian elimination on flat row-major storage:
/// `a[..n * n]` is destroyed and the solution overwrites `rhs[..n]`. Returns
/// `false` on a (numerically) singular matrix or non-finite solution. Never
/// allocates. This is the fallback when the damped normal matrix of a
/// Levenberg–Marquardt step is not positive definite.
pub fn gaussian_solve_in_place(a: &mut [f64], n: usize, rhs: &mut [f64]) -> bool {
    debug_assert!(a.len() >= n * n);
    debug_assert!(rhs.len() >= n);
    for col in 0..n {
        // Partial pivoting.
        let mut pivot = col;
        let mut best = a[col * n + col].abs();
        for row in (col + 1)..n {
            let v = a[row * n + col].abs();
            if v > best {
                best = v;
                pivot = row;
            }
        }
        if best.is_nan() || best < 1e-300 {
            return false;
        }
        if pivot != col {
            for j in 0..n {
                a.swap(col * n + j, pivot * n + j);
            }
            rhs.swap(col, pivot);
        }
        for row in (col + 1)..n {
            let factor = a[row * n + col] / a[col * n + col];
            if factor == 0.0 {
                continue;
            }
            for j in col..n {
                let v = a[col * n + j];
                a[row * n + j] -= factor * v;
            }
            rhs[row] -= factor * rhs[col];
        }
    }
    for i in (0..n).rev() {
        let mut sum = rhs[i];
        for j in (i + 1)..n {
            sum -= a[i * n + j] * rhs[j];
        }
        rhs[i] = sum / a[i * n + i];
    }
    rhs.iter().take(n).all(|v| v.is_finite())
}

/// Solve the symmetric positive-definite system `A x = b` via Cholesky
/// factorisation. Returns an error when the matrix is not SPD (within a small
/// tolerance) or contains non-finite values.
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

/// Solve an over-determined least-squares problem `min ||A x - b||` using
/// Householder QR with column-free pivoting. `A` must have at least as many
/// rows as columns.
pub fn solve_least_squares_qr(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    solve_least_squares_qr_flat(&a.data, a.rows, a.cols, b)
}

/// [`solve_least_squares_qr`] on flat row-major storage, so callers that keep
/// a prefix-growable design matrix (the grid fitter) can solve on a row view
/// `&rows[..prefix * cols]` without rebuilding a [`Matrix`].
pub fn solve_least_squares_qr_flat(a: &[f64], m: usize, n: usize, b: &[f64]) -> Result<Vec<f64>> {
    debug_assert!(a.len() >= m * n);
    householder_least_squares(a[..m * n].to_vec(), m, n, b)
}

/// [`solve_least_squares_qr_flat`] on flat **column-major** storage: column
/// `j` occupies `a[j * stride..j * stride + m]` (so `stride >= m`; a slab
/// built over a longer range than the `m`-row prefix being solved passes its
/// allocation stride). This is the layout of the grid fitter's shared design
/// slabs. The column prefixes are transposed into the row-major Householder
/// work buffer, after which the factorisation is the exact same code (and
/// therefore the exact same result bits) as the row-major entry point.
pub fn solve_least_squares_qr_columns(
    a: &[f64],
    stride: usize,
    m: usize,
    n: usize,
    b: &[f64],
) -> Result<Vec<f64>> {
    debug_assert!(stride >= m, "column stride shorter than row count");
    debug_assert!(a.len() >= n * stride);
    let mut r = vec![0.0; m * n];
    for j in 0..n {
        let column = &a[j * stride..j * stride + m];
        for (i, v) in column.iter().enumerate() {
            r[i * n + j] = *v;
        }
    }
    householder_least_squares(r, m, n, b)
}

/// Shared Householder-QR least-squares core on a row-major work buffer `r`
/// (consumed; starts as a copy of the design matrix).
fn householder_least_squares(mut r: Vec<f64>, m: usize, n: usize, b: &[f64]) -> Result<Vec<f64>> {
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

/// Solve a square linear system `A x = b` with partial-pivoting Gaussian
/// elimination. Used by the Levenberg–Marquardt inner step, where the damped
/// normal matrix is symmetric but may be indefinite after heavy damping.
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

/// Euclidean norm of a vector.
pub fn norm2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    #[test]
    fn gram_matches_explicit_product() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let g = a.gram();
        for i in 0..2 {
            for j in 0..2 {
                let explicit: f64 = (0..a.rows()).map(|r| a[(r, i)] * a[(r, j)]).sum();
                assert!(approx(g[(i, j)], explicit, 1e-12));
            }
        }
    }

    #[test]
    fn cholesky_solves_spd_system() {
        // A = [[4,2],[2,3]], b = [10, 9] -> x = [1.5, 2]
        let a = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]);
        let x = solve_cholesky(&a, &[10.0, 9.0]).unwrap();
        assert!(approx(x[0], 1.5, 1e-10));
        assert!(approx(x[1], 2.0, 1e-10));
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        assert!(solve_cholesky(&a, &[1.0, 1.0]).is_err());
    }

    #[test]
    fn qr_least_squares_exact_fit() {
        // Fit y = 2x + 1 exactly through three points.
        let a = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 2.0], vec![1.0, 3.0]]);
        let b = vec![3.0, 5.0, 7.0];
        let x = solve_least_squares_qr(&a, &b).unwrap();
        assert!(approx(x[0], 1.0, 1e-10));
        assert!(approx(x[1], 2.0, 1e-10));
    }

    #[test]
    fn qr_least_squares_overdetermined() {
        // Noisy line: the solution should be close to slope 1 intercept 0.
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [1.1, 1.9, 3.05, 3.95, 5.1];
        let rows: Vec<Vec<f64>> = xs.iter().map(|x| vec![1.0, *x]).collect();
        let a = Matrix::from_rows(&rows);
        let sol = solve_least_squares_qr(&a, &ys).unwrap();
        assert!(sol[0].abs() < 0.2);
        assert!(approx(sol[1], 1.0, 0.05));
    }

    #[test]
    fn qr_rejects_underdetermined() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]);
        assert!(solve_least_squares_qr(&a, &[1.0]).is_err());
    }

    #[test]
    fn gaussian_solves_general_system() {
        let a = Matrix::from_rows(&[vec![0.0, 2.0], vec![1.0, 1.0]]);
        let x = solve_gaussian(&a, &[4.0, 3.0]).unwrap();
        assert!(approx(x[0], 1.0, 1e-10));
        assert!(approx(x[1], 2.0, 1e-10));
    }

    #[test]
    fn gaussian_rejects_singular() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(solve_gaussian(&a, &[1.0, 2.0]).is_err());
    }

    #[test]
    fn norm2_is_euclidean() {
        assert!(approx(norm2(&[3.0, 4.0]), 5.0, 1e-12));
    }

    #[test]
    fn into_variants_match_allocating_versions() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let y = vec![1.0, 2.0, 3.0];
        let mut mtv = vec![0.0; 2];
        a.mul_transpose_vec_into(&y, &mut mtv);
        assert_eq!(mtv, a.mul_transpose_vec(&y));
        let mut g = Matrix::zeros(2, 2);
        a.gram_into(&mut g);
        assert_eq!(g, a.gram());
    }

    #[test]
    fn in_place_cholesky_matches_matrix_api() {
        let a = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]);
        let mut buf = a.as_slice().to_vec();
        let mut rhs = vec![10.0, 9.0];
        assert!(cholesky_solve_in_place(&mut buf, 2, &mut rhs));
        let reference = solve_cholesky(&a, &[10.0, 9.0]).unwrap();
        assert_eq!(rhs, reference);
        // Indefinite matrix is rejected without panicking.
        let mut bad = vec![0.0, 1.0, 1.0, 0.0];
        let mut b = vec![1.0, 1.0];
        assert!(!cholesky_solve_in_place(&mut bad, 2, &mut b));
    }

    #[test]
    fn in_place_gaussian_matches_matrix_api() {
        let a = Matrix::from_rows(&[vec![0.0, 2.0], vec![1.0, 1.0]]);
        let mut buf = a.as_slice().to_vec();
        let mut rhs = vec![4.0, 3.0];
        assert!(gaussian_solve_in_place(&mut buf, 2, &mut rhs));
        assert_eq!(rhs, solve_gaussian(&a, &[4.0, 3.0]).unwrap());
        let mut singular = vec![1.0, 2.0, 2.0, 4.0];
        let mut b = vec![1.0, 2.0];
        assert!(!gaussian_solve_in_place(&mut singular, 2, &mut b));
    }

    #[test]
    fn incremental_normal_equations_match_gram() {
        let rows = [
            vec![1.0, 1.0, 1.0],
            vec![1.0, 2.0, 4.0],
            vec![1.0, 3.0, 9.0],
            vec![1.0, 4.0, 16.0],
        ];
        let ys = [2.0, 5.0, 10.0, 17.0];
        let mut gram = vec![0.0; 9];
        let mut rhs = vec![0.0; 3];
        for (row, y) in rows.iter().zip(ys) {
            accumulate_normal_equations(row, y, &mut gram, &mut rhs);
        }
        let design = Matrix::from_rows(&rows);
        let full_gram = design.gram();
        let full_rhs = design.mul_transpose_vec(&ys);
        for i in 0..3 {
            assert!(approx(rhs[i], full_rhs[i], 1e-12));
            for j in 0..3 {
                assert!(approx(gram[i * 3 + j], full_gram[(i, j)], 1e-12));
            }
        }
    }

    /// Transpose a row-major flat matrix into column-major storage.
    fn to_columns(a: &[f64], rows: usize, cols: usize) -> Vec<f64> {
        let mut out = vec![0.0; rows * cols];
        for i in 0..rows {
            for j in 0..cols {
                out[j * rows + i] = a[i * cols + j];
            }
        }
        out
    }

    #[test]
    fn columnar_reductions_match_row_major_bitwise() {
        // Awkward magnitudes so any change in summation order would show up
        // in the low bits.
        let rows = 7;
        let cols = 3;
        let a: Vec<f64> = (0..rows * cols)
            .map(|i| (i as f64 + 0.1).sin() * 10f64.powi((i % 5) as i32 - 2))
            .collect();
        let y: Vec<f64> = (0..rows).map(|i| (i as f64 - 2.5) * 1.7).collect();
        let a_cols = to_columns(&a, rows, cols);

        let mut gram_rows = vec![0.0; cols * cols];
        let mut gram_cols = vec![0.0; cols * cols];
        gram_in_place(&a, rows, cols, &mut gram_rows);
        gram_columns_in_place(&a_cols, rows, cols, &mut gram_cols);
        for (r, c) in gram_rows.iter().zip(&gram_cols) {
            assert_eq!(r.to_bits(), c.to_bits());
        }

        let mut jtr_rows = vec![0.0; cols];
        let mut jtr_cols = vec![0.0; cols];
        mul_transpose_vec_in_place(&a, rows, cols, &y, &mut jtr_rows);
        mul_transpose_vec_columns_in_place(&a_cols, rows, cols, &y, &mut jtr_cols);
        for (r, c) in jtr_rows.iter().zip(&jtr_cols) {
            assert_eq!(r.to_bits(), c.to_bits());
        }
    }

    #[test]
    fn qr_columns_matches_qr_flat_bitwise() {
        let rows: Vec<Vec<f64>> = (1..=6)
            .map(|i| vec![1.0, i as f64, (i as f64).sqrt()])
            .collect();
        let b: Vec<f64> = (1..=6)
            .map(|i| 3.0 + 2.0 * i as f64 + 0.01 * i as f64)
            .collect();
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        // One slab built over all six rows (stride 6); every prefix view is
        // solved from the same storage, exactly like the grid's design slab.
        let slab = to_columns(&flat, 6, 3);
        for m in 3..=6usize {
            let cols = to_columns(&flat[..m * 3], m, 3);
            let via_flat = solve_least_squares_qr_flat(&flat[..m * 3], m, 3, &b[..m]).unwrap();
            let via_cols = solve_least_squares_qr_columns(&cols, m, m, 3, &b[..m]).unwrap();
            let via_slab = solve_least_squares_qr_columns(&slab, 6, m, 3, &b[..m]).unwrap();
            for ((f, c), s) in via_flat.iter().zip(&via_cols).zip(&via_slab) {
                assert_eq!(f.to_bits(), c.to_bits());
                assert_eq!(f.to_bits(), s.to_bits());
            }
        }
    }

    #[test]
    fn qr_flat_matches_matrix_qr_on_prefix_views() {
        let rows: Vec<Vec<f64>> = (1..=6)
            .map(|i| vec![1.0, i as f64, (i * i) as f64])
            .collect();
        let b: Vec<f64> = (1..=6).map(|i| 3.0 + 2.0 * i as f64).collect();
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        for prefix in 3..=6usize {
            let via_matrix =
                solve_least_squares_qr(&Matrix::from_rows(&rows[..prefix]), &b[..prefix]).unwrap();
            let via_flat =
                solve_least_squares_qr_flat(&flat[..prefix * 3], prefix, 3, &b[..prefix]).unwrap();
            assert_eq!(via_matrix, via_flat);
        }
    }
}
