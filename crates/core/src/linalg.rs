//! Dense linear algebra for the regression layer.
//!
//! ESTIMA's function approximation needs only small dense systems (the largest
//! kernel has seven parameters). Every solve runs on the fitting hot path's
//! own flat buffers through the allocation-free kernels here: column-major
//! Gram and `Aᵀy` reductions over the Levenberg–Marquardt Jacobian slab,
//! rank-1 normal-equation updates for the linear kernels, in-place Cholesky
//! and Gaussian solves, and Householder QR least squares on prefix views of
//! the grid's column-major slabs. Everything is written for numerical
//! robustness on tiny, possibly ill-conditioned systems rather than for
//! large-scale performance.

/// Transposed matrix-vector product `A^T * y` where `A` is stored as a flat
/// **column-major** slab (`a[j * rows + i]` is row `i` of column `j`) — the
/// layout of the lane-chunked Jacobian and design slabs. Each output entry is
/// one contiguous column dot, accumulated over ascending observation index,
/// so the per-entry summation order is the one a row-major loop over the
/// observations would use (pinned bit for bit by this module's tests).
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
/// (`a[j * rows + i]`), writing into `out[..cols * cols]`. Every entry of the
/// upper triangle is a pairwise column dot accumulated over ascending
/// observation index, then mirrored — the per-entry summation order of a
/// row-major loop over the observations (pinned bit for bit by this module's
/// tests).
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

/// Solve the least-squares problem `min ||A x - b||` by Householder QR with
/// column-free pivoting, where `A` is stored as flat **column-major** slab
/// columns: column `j` occupies `a[j * stride..j * stride + m]` (so
/// `stride >= m`; a slab built over a longer range than the `m`-row prefix
/// being solved passes its allocation stride). This is the layout of the
/// grid fitter's shared design slabs. The column prefixes are transposed
/// into a row-major work buffer before the factorisation, so the result
/// bits depend only on the `m × n` prefix, never on the stride.
///
/// `work` is scratch of at least `m * (n + 2)` entries (the row-major
/// factor, the right-hand side and one Householder vector), and the
/// solution is written to `x[..n]`. Returns `false`, leaving `x`
/// unspecified, when `A` has fewer rows than columns, `b` is not `m` long,
/// an input is not finite, the design is rank deficient or the solution is
/// not finite. Never allocates.
pub fn solve_least_squares_qr_columns(
    a: &[f64],
    stride: usize,
    m: usize,
    n: usize,
    b: &[f64],
    work: &mut [f64],
    x: &mut [f64],
) -> bool {
    debug_assert!(stride >= m, "column stride shorter than row count");
    debug_assert!(a.len() >= n * stride);
    if m < n || b.len() != m {
        return false;
    }
    let (r, rest) = work[..m * (n + 2)].split_at_mut(m * n);
    let (rhs, v) = rest.split_at_mut(m);
    for j in 0..n {
        let column = &a[j * stride..j * stride + m];
        for (i, value) in column.iter().enumerate() {
            r[i * n + j] = *value;
        }
    }
    if r.iter().any(|e| !e.is_finite()) || b.iter().any(|e| !e.is_finite()) {
        return false;
    }

    // Apply Householder reflections to both R and the right-hand side.
    rhs.copy_from_slice(b);

    for k in 0..n {
        // Compute the Householder vector for column k.
        let mut norm = 0.0;
        for i in k..m {
            norm += r[i * n + k] * r[i * n + k];
        }
        let norm = norm.sqrt();
        if norm < 1e-300 {
            return false;
        }
        let alpha = if r[k * n + k] >= 0.0 { -norm } else { norm };
        for i in k..m {
            v[i] = r[i * n + k];
        }
        v[k] -= alpha;
        let vtv: f64 = v[k..].iter().map(|e| e * e).sum();
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
    let x = &mut x[..n];
    for i in (0..n).rev() {
        let mut sum = rhs[i];
        for j in (i + 1)..n {
            sum -= r[i * n + j] * x[j];
        }
        let diag = r[i * n + i];
        if diag.abs() < 1e-300 {
            return false;
        }
        x[i] = sum / diag;
    }
    x.iter().all(|e| e.is_finite())
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

    /// Transposed matrix-vector product `A^T * y` on flat row-major storage:
    /// the reference [`mul_transpose_vec_columns_in_place`] is pinned
    /// against bit for bit.
    fn mul_transpose_vec_in_place(a: &[f64], rows: usize, cols: usize, y: &[f64], out: &mut [f64]) {
        let out = &mut out[..cols];
        out.fill(0.0);
        for (i, y_i) in y.iter().take(rows).enumerate() {
            let row = &a[i * cols..(i + 1) * cols];
            for j in 0..cols {
                out[j] += row[j] * y_i;
            }
        }
    }

    /// Gram matrix `A^T * A` on flat row-major storage, upper triangle then
    /// mirror: the reference [`gram_columns_in_place`] is pinned against bit
    /// for bit.
    fn gram_in_place(a: &[f64], rows: usize, cols: usize, out: &mut [f64]) {
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
        for j in 0..cols {
            for k in 0..j {
                out[j * cols + k] = out[k * cols + j];
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
    fn gram_matches_explicit_product() {
        let rows = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]];
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        let mut g = [0.0; 4];
        gram_columns_in_place(&to_columns(&flat, 3, 2), 3, 2, &mut g);
        for i in 0..2 {
            for j in 0..2 {
                let explicit: f64 = rows.iter().map(|row| row[i] * row[j]).sum();
                assert!(approx(g[i * 2 + j], explicit, 1e-12));
            }
        }
    }

    #[test]
    fn cholesky_solves_spd_system() {
        // A = [[4,2],[2,3]], b = [10, 9] -> x = [1.5, 2]
        let mut a = [4.0, 2.0, 2.0, 3.0];
        let mut x = [10.0, 9.0];
        assert!(cholesky_solve_in_place(&mut a, 2, &mut x));
        assert!(approx(x[0], 1.5, 1e-10));
        assert!(approx(x[1], 2.0, 1e-10));
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let mut indefinite = [0.0, 1.0, 1.0, 0.0];
        let mut b = [1.0, 1.0];
        assert!(!cholesky_solve_in_place(&mut indefinite, 2, &mut b));
        let mut not_a_number = [f64::NAN, 0.0, 0.0, 1.0];
        let mut b = [1.0, 1.0];
        assert!(!cholesky_solve_in_place(&mut not_a_number, 2, &mut b));
    }

    #[test]
    fn qr_least_squares_exact_fit() {
        // Fit y = 2x + 1 exactly through three points: columns [1, 1, 1]
        // and [1, 2, 3].
        let a = [1.0, 1.0, 1.0, 1.0, 2.0, 3.0];
        let mut x = [0.0; 2];
        assert!(solve_least_squares_qr_columns(
            &a,
            3,
            3,
            2,
            &[3.0, 5.0, 7.0],
            &mut [0.0; 12],
            &mut x
        ));
        assert!(approx(x[0], 1.0, 1e-10));
        assert!(approx(x[1], 2.0, 1e-10));
    }

    #[test]
    fn qr_least_squares_overdetermined() {
        // Noisy line: the solution should be close to slope 1 intercept 0.
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [1.1, 1.9, 3.05, 3.95, 5.1];
        let mut a = vec![1.0; 5];
        a.extend_from_slice(&xs);
        let mut sol = [0.0; 2];
        assert!(solve_least_squares_qr_columns(
            &a,
            5,
            5,
            2,
            &ys,
            &mut [0.0; 20],
            &mut sol
        ));
        assert!(sol[0].abs() < 0.2);
        assert!(approx(sol[1], 1.0, 0.05));
    }

    #[test]
    fn qr_rejects_underdetermined() {
        // One row, three columns.
        let a = [1.0, 2.0, 3.0];
        assert!(!solve_least_squares_qr_columns(
            &a,
            1,
            1,
            3,
            &[1.0],
            &mut [0.0; 15],
            &mut [0.0; 3]
        ));
    }

    #[test]
    fn gaussian_solves_general_system() {
        // A = [[0,2],[1,1]] needs a pivot swap; b = [4, 3] -> x = [1, 2].
        let mut a = [0.0, 2.0, 1.0, 1.0];
        let mut x = [4.0, 3.0];
        assert!(gaussian_solve_in_place(&mut a, 2, &mut x));
        assert!(approx(x[0], 1.0, 1e-10));
        assert!(approx(x[1], 2.0, 1e-10));
    }

    #[test]
    fn gaussian_rejects_singular() {
        let mut singular = [1.0, 2.0, 2.0, 4.0];
        let mut b = [1.0, 2.0];
        assert!(!gaussian_solve_in_place(&mut singular, 2, &mut b));
    }

    #[test]
    fn norm2_is_euclidean() {
        assert!(approx(norm2(&[3.0, 4.0]), 5.0, 1e-12));
    }

    #[test]
    fn incremental_normal_equations_match_gram() {
        // The rank-1 updates sum each entry over the rows in ascending
        // order, exactly like the columnar reductions: the same bits.
        let rows = [
            [1.0, 1.0, 1.0],
            [1.0, 2.0, 4.0],
            [1.0, 3.0, 9.0],
            [1.0, 4.0, 16.0],
        ];
        let ys = [2.0, 5.0, 10.0, 17.0];
        let mut gram = vec![0.0; 9];
        let mut rhs = vec![0.0; 3];
        for (row, y) in rows.iter().zip(ys) {
            accumulate_normal_equations(row, y, &mut gram, &mut rhs);
        }
        let flat: Vec<f64> = rows.iter().flatten().copied().collect();
        let columns = to_columns(&flat, 4, 3);
        let mut full_gram = vec![0.0; 9];
        let mut full_rhs = vec![0.0; 3];
        gram_columns_in_place(&columns, 4, 3, &mut full_gram);
        mul_transpose_vec_columns_in_place(&columns, 4, 3, &ys, &mut full_rhs);
        for (a, b) in gram.iter().zip(&full_gram).chain(rhs.iter().zip(&full_rhs)) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
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
    fn qr_columns_prefix_views_match_exact_columns_bitwise() {
        // One slab built over all six rows (stride 6), as the grid builds
        // its design slab; every prefix view solves to the same bits as the
        // prefix copied into columns of its own length.
        let designs: [fn(f64) -> f64; 2] = [f64::sqrt, |i| i * i];
        for column in designs {
            let flat: Vec<f64> = (1..=6)
                .flat_map(|i| [1.0, i as f64, column(i as f64)])
                .collect();
            let b: Vec<f64> = (1..=6).map(|i| 3.0 + 2.0 * i as f64).collect();
            let slab = to_columns(&flat, 6, 3);
            // Scratch left dirty by earlier solves must not leak into a
            // later one.
            let mut work = [f64::NAN; 30];
            for m in 3..=6usize {
                let exact = to_columns(&flat[..m * 3], m, 3);
                let (mut via_exact, mut via_slab) = ([0.0; 3], [0.0; 3]);
                assert!(solve_least_squares_qr_columns(
                    &exact,
                    m,
                    m,
                    3,
                    &b[..m],
                    &mut work,
                    &mut via_exact
                ));
                assert!(solve_least_squares_qr_columns(
                    &slab,
                    6,
                    m,
                    3,
                    &b[..m],
                    &mut work,
                    &mut via_slab
                ));
                for (e, s) in via_exact.iter().zip(&via_slab) {
                    assert_eq!(e.to_bits(), s.to_bits());
                }
                // b is exactly 3 + 2i, which both designs can represent.
                assert!(approx(via_exact[0], 3.0, 1e-8), "{via_exact:?}");
                assert!(approx(via_exact[1], 2.0, 1e-8), "{via_exact:?}");
                assert!(approx(via_exact[2], 0.0, 1e-8), "{via_exact:?}");
            }
        }
    }
}
