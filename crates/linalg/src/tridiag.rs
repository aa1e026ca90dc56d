//! Symmetric tridiagonal eigensolver (implicit QL with Wilkinson shifts).
//!
//! The back end of the Lanczos pipeline: Lanczos reduces a sparse
//! symmetric operator to a small tridiagonal `T`; this module
//! diagonalizes `T` and accumulates the rotations so Ritz vectors can be
//! assembled.
//!
//! The rotations are accumulated into the *transpose* of the eigenvector
//! matrix: a QL rotation mixes two adjacent columns of `Z`, which are two
//! contiguous rows of `Zᵀ`, so every rotation streams two unit-stride rows
//! instead of walking two columns with a stride of `n`. Each element sees
//! exactly the arithmetic of the classic column update, so the result is
//! bit-identical to `tql2`'s row-major accumulation.

use crate::dense::DenseMatrix;
use crate::{LinalgError, Result};

/// Eigendecomposition of a symmetric tridiagonal matrix.
#[derive(Debug, Clone)]
pub struct TridiagEig {
    /// Eigenvalues in ascending order.
    pub eigenvalues: Vec<f64>,
    /// Orthonormal eigenvectors of `T` (column `k` ↔ `eigenvalues[k]`).
    pub eigenvectors: DenseMatrix,
}

/// Diagonalize the symmetric tridiagonal matrix with diagonal `d`
/// (length `n`) and off-diagonal `e` (length `n-1`).
///
/// Implicit-shift QL, adapted from the classic `tql2` routine. Errors if
/// an eigenvalue fails to converge in 50 iterations (indicative of
/// NaN/Inf input).
pub fn tridiag_eig(d: &[f64], e: &[f64]) -> Result<TridiagEig> {
    let n = d.len();
    if n == 0 {
        return Ok(TridiagEig {
            eigenvalues: vec![],
            eigenvectors: DenseMatrix::zeros(0, 0),
        });
    }
    if e.len() + 1 != n {
        return Err(LinalgError::DimensionMismatch {
            expected: n - 1,
            found: e.len(),
        });
    }
    let mut d = d.to_vec();
    // Workspace off-diagonal padded with trailing zero, as in tql2.
    let mut e: Vec<f64> = e.iter().copied().chain(std::iter::once(0.0)).collect();
    // `zt` is `Zᵀ`, row-major: row `i` holds column `i` of `Z`.
    let mut zt = vec![0.0; n * n];
    for i in 0..n {
        zt[i * n + i] = 1.0;
    }

    for l in 0..n {
        let mut iter = 0usize;
        loop {
            // Find a small off-diagonal element to split at.
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            iter += 1;
            if iter > 50 {
                return Err(LinalgError::NotConverged {
                    iterations: iter,
                    residual: e[l].abs(),
                });
            }
            // Wilkinson shift.
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + r.copysign(g));
            let (mut s, mut c) = (1.0f64, 1.0f64);
            let mut p = 0.0f64;
            // Index at which an underflow break occurred, if any (tql2's
            // `r == 0 && i >= l+1` restart condition).
            let mut broke_at: Option<usize> = None;
            for i in (l..m).rev() {
                let mut f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    broke_at = Some(i);
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                // Accumulate the rotation into columns i, i+1 of `Z`:
                // rows i, i+1 of `zt`.
                let (head, tail) = zt.split_at_mut((i + 1) * n);
                let zi = &mut head[i * n..];
                for (zik, zi1k) in zi.iter_mut().zip(&mut tail[..n]) {
                    f = *zi1k;
                    *zi1k = s * *zik + c * f;
                    *zik = c * *zik - s * f;
                }
            }
            if broke_at.is_some() {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }

    // Sort ascending, permuting columns.
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&i, &j| d[i].partial_cmp(&d[j]).unwrap());
    let eigenvalues: Vec<f64> = idx.iter().map(|&i| d[i]).collect();
    let eigenvectors = DenseMatrix::from_fn(n, n, |r, c| zt[idx[c] * n + r]);
    Ok(TridiagEig {
        eigenvalues,
        eigenvectors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jacobi::SymEig;
    use proptest::prelude::*;

    fn tridiag_dense(d: &[f64], e: &[f64]) -> DenseMatrix {
        let n = d.len();
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = d[i];
        }
        for i in 0..n - 1 {
            m[(i, i + 1)] = e[i];
            m[(i + 1, i)] = e[i];
        }
        m
    }

    #[test]
    fn empty_and_singleton() {
        let eig = tridiag_eig(&[], &[]).unwrap();
        assert!(eig.eigenvalues.is_empty());
        let eig = tridiag_eig(&[7.0], &[]).unwrap();
        assert_eq!(eig.eigenvalues, vec![7.0]);
        assert_eq!(eig.eigenvectors[(0, 0)], 1.0);
    }

    #[test]
    fn dimension_mismatch() {
        assert!(tridiag_eig(&[1.0, 2.0], &[1.0, 1.0]).is_err());
    }

    #[test]
    fn two_by_two() {
        // [[2,1],[1,2]] → 1, 3.
        let eig = tridiag_eig(&[2.0, 2.0], &[1.0]).unwrap();
        assert!((eig.eigenvalues[0] - 1.0).abs() < 1e-12);
        assert!((eig.eigenvalues[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn path_laplacian_analytic() {
        // Tridiagonal Laplacian of the n-path.
        let n = 10;
        let mut d = vec![2.0; n];
        d[0] = 1.0;
        d[n - 1] = 1.0;
        let e = vec![-1.0; n - 1];
        let eig = tridiag_eig(&d, &e).unwrap();
        for (k, &lam) in eig.eigenvalues.iter().enumerate() {
            let expected = 2.0 - 2.0 * (std::f64::consts::PI * k as f64 / n as f64).cos();
            assert!((lam - expected).abs() < 1e-9, "k={k}");
        }
    }

    #[test]
    fn matches_jacobi_on_random_tridiagonal() {
        let d = [1.0, -2.0, 0.5, 3.0, 1.5];
        let e = [0.7, -1.1, 0.3, 2.0];
        let t = tridiag_dense(&d, &e);
        let ql = tridiag_eig(&d, &e).unwrap();
        let jac = SymEig::new(&t).unwrap();
        for (a, b) in ql.eigenvalues.iter().zip(&jac.eigenvalues) {
            assert!((a - b).abs() < 1e-9);
        }
        // Eigenvectors satisfy T v = λ v.
        for k in 0..d.len() {
            let v = ql.eigenvectors.col(k);
            let mut tv = vec![0.0; d.len()];
            t.gemv(1.0, &v, 0.0, &mut tv);
            for i in 0..d.len() {
                assert!((tv[i] - ql.eigenvalues[k] * v[i]).abs() < 1e-8);
            }
        }
    }

    /// The classic `tql2` with row-major accumulation — a verbatim copy
    /// of the kernel before the rotations moved into `Zᵀ` — kept as the
    /// bit-identity reference for [`tridiag_eig`].
    fn tql2_row_major(d: &[f64], e: &[f64]) -> (Vec<f64>, DenseMatrix) {
        let n = d.len();
        let mut d = d.to_vec();
        let mut e: Vec<f64> = e.iter().copied().chain(std::iter::once(0.0)).collect();
        let mut z = DenseMatrix::identity(n);
        for l in 0..n {
            let mut iter = 0usize;
            loop {
                let mut m = l;
                while m + 1 < n {
                    let dd = d[m].abs() + d[m + 1].abs();
                    if e[m].abs() <= f64::EPSILON * dd {
                        break;
                    }
                    m += 1;
                }
                if m == l {
                    break;
                }
                iter += 1;
                assert!(iter <= 50, "reference tql2 did not converge");
                let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
                let mut r = g.hypot(1.0);
                g = d[m] - d[l] + e[l] / (g + r.copysign(g));
                let (mut s, mut c) = (1.0f64, 1.0f64);
                let mut p = 0.0f64;
                let mut broke_at: Option<usize> = None;
                for i in (l..m).rev() {
                    let mut f = s * e[i];
                    let b = c * e[i];
                    r = f.hypot(g);
                    e[i + 1] = r;
                    if r == 0.0 {
                        d[i + 1] -= p;
                        e[m] = 0.0;
                        broke_at = Some(i);
                        break;
                    }
                    s = f / r;
                    c = g / r;
                    g = d[i + 1] - p;
                    r = (d[i] - g) * s + 2.0 * c * b;
                    p = s * r;
                    d[i + 1] = g + p;
                    g = c * r - b;
                    for k in 0..n {
                        f = z[(k, i + 1)];
                        z[(k, i + 1)] = s * z[(k, i)] + c * f;
                        z[(k, i)] = c * z[(k, i)] - s * f;
                    }
                }
                if broke_at.is_some() {
                    continue;
                }
                d[l] -= p;
                e[l] = g;
                e[m] = 0.0;
            }
        }
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by(|&i, &j| d[i].partial_cmp(&d[j]).unwrap());
        let eigenvalues = idx.iter().map(|&i| d[i]).collect();
        (
            eigenvalues,
            DenseMatrix::from_fn(n, n, |r, c| z[(r, idx[c])]),
        )
    }

    fn bits(x: &[f64]) -> Vec<u64> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn transposed_accumulation_matches_row_major_on_lanczos_shapes() {
        // A split (zero off-diagonal) and a long, clustered spectrum: the
        // shapes a Lanczos run hands over.
        let n = 97;
        let d: Vec<f64> = (0..n)
            .map(|i| 1.0 + ((i * 37) % 11) as f64 * 1e-3)
            .collect();
        let mut e: Vec<f64> = (0..n - 1).map(|i| 0.5 + (i as f64).sin() * 0.25).collect();
        e[40] = 0.0;
        let (vals, vecs) = tql2_row_major(&d, &e);
        let t = tridiag_eig(&d, &e).unwrap();
        assert_eq!(bits(&t.eigenvalues), bits(&vals));
        assert_eq!(bits(t.eigenvectors.as_slice()), bits(vecs.as_slice()));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn prop_transposed_accumulation_is_bit_identical(
            d in proptest::collection::vec(-5.0..5.0f64, 1..48),
            raw_e in proptest::collection::vec(-5.0..5.0f64, 47),
            zero_at in 0usize..64,
        ) {
            let mut e = raw_e[..d.len() - 1].to_vec();
            // Sometimes split the matrix into independent blocks.
            if let Some(x) = e.get_mut(zero_at) {
                *x = 0.0;
            }
            let (vals, vecs) = tql2_row_major(&d, &e);
            let t = tridiag_eig(&d, &e).unwrap();
            prop_assert_eq!(bits(&t.eigenvalues), bits(&vals));
            prop_assert_eq!(bits(t.eigenvectors.as_slice()), bits(vecs.as_slice()));
        }

        #[test]
        fn prop_ql_matches_jacobi(
            d in proptest::collection::vec(-5.0..5.0f64, 2..8),
            raw_e in proptest::collection::vec(-5.0..5.0f64, 7),
        ) {
            let e = &raw_e[..d.len() - 1];
            let ql = tridiag_eig(&d, e).unwrap();
            let jac = SymEig::new(&tridiag_dense(&d, e)).unwrap();
            for (a, b) in ql.eigenvalues.iter().zip(&jac.eigenvalues) {
                prop_assert!((a - b).abs() < 1e-7);
            }
            // Orthonormality of accumulated vectors.
            let q = &ql.eigenvectors;
            let g = q.transpose().matmul(q).unwrap();
            let mut defect = g;
            defect.axpy(-1.0, &DenseMatrix::identity(d.len())).unwrap();
            prop_assert!(defect.max_abs() < 1e-8);
        }
    }
}
