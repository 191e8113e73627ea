//! One-sided Jacobi SVD.
//!
//! Used for exact singular values in tests, for building synthetic low-rank
//! inputs, and for the rank diagnostics reported in Table II. One-sided
//! Jacobi is slow but simple and very accurate for the small/medium blocks we
//! apply it to.

use crate::gemm::{matmul, Op};
use crate::mat::Mat;

/// Thin SVD `A = U diag(s) V^T` with `U: m x r`, `s: r`, `V: n x r`,
/// `r = min(m, n)`. Singular values are in non-increasing order.
pub struct Svd {
    pub u: Mat,
    pub s: Vec<f64>,
    pub v: Mat,
}

/// Compute the thin SVD of `a` by one-sided Jacobi rotations.
pub fn svd(a: &Mat) -> Svd {
    let (m, n) = (a.rows(), a.cols());
    if m >= n {
        svd_tall(a.clone())
    } else {
        // SVD of A^T = V s U^T.
        let t = svd_tall(a.transpose());
        Svd {
            u: t.v,
            s: t.s,
            v: t.u,
        }
    }
}

fn svd_tall(mut u: Mat) -> Svd {
    let n = u.cols();
    let mut v = Mat::eye(n);
    let eps = 1e-15;
    let max_sweeps = 60;

    for _sweep in 0..max_sweeps {
        let mut off = 0.0_f64;
        for p in 0..n {
            for q in (p + 1)..n {
                // Gram entries of the column pair.
                let (mut app, mut aqq, mut apq) = (0.0, 0.0, 0.0);
                for i in 0..u.rows() {
                    let up = u[(i, p)];
                    let uq = u[(i, q)];
                    app += up * up;
                    aqq += uq * uq;
                    apq += up * uq;
                }
                let denom = (app * aqq).sqrt();
                if denom > 0.0 {
                    off = off.max(apq.abs() / denom);
                }
                if apq.abs() <= eps * denom || denom == 0.0 {
                    continue;
                }
                // Jacobi rotation zeroing the (p,q) Gram entry.
                let zeta = (aqq - app) / (2.0 * apq);
                let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                for i in 0..u.rows() {
                    let up = u[(i, p)];
                    let uq = u[(i, q)];
                    u[(i, p)] = c * up - s * uq;
                    u[(i, q)] = s * up + c * uq;
                }
                for i in 0..n {
                    let vp = v[(i, p)];
                    let vq = v[(i, q)];
                    v[(i, p)] = c * vp - s * vq;
                    v[(i, q)] = s * vp + c * vq;
                }
            }
        }
        if off < 1e-14 {
            break;
        }
    }

    // Column norms are the singular values; normalize U.
    let mut s: Vec<f64> = (0..n)
        .map(|j| u.col(j).iter().map(|x| x * x).sum::<f64>().sqrt())
        .collect();
    for j in 0..n {
        if s[j] > 0.0 {
            let inv = 1.0 / s[j];
            for x in u.col_mut(j) {
                *x *= inv;
            }
        }
    }

    // Sort by descending singular value, in `f64::total_cmp` order: a NaN
    // (from a NaN input) sorts as larger than every number.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| s[j].total_cmp(&s[i]));
    let u = u.select_cols(&order);
    let v = v.select_cols(&order);
    s = order.iter().map(|&i| s[i]).collect();
    Svd { u, s, v }
}

impl Svd {
    /// Reconstruct `U diag(s) V^T`.
    pub fn reconstruct(&self) -> Mat {
        let mut us = self.u.clone();
        for (j, &sv) in self.s.iter().enumerate() {
            for x in us.col_mut(j) {
                *x *= sv;
            }
        }
        matmul(Op::NoTrans, Op::Trans, us.rf(), self.v.rf())
    }

    /// Numerical rank at the given absolute tolerance.
    pub fn rank(&self, tol: f64) -> usize {
        self.s.iter().take_while(|&&x| x > tol).count()
    }
}

/// Exact spectral norm via SVD (tests only; O(mn·min(m,n)) per sweep).
pub fn spectral_norm(a: &Mat) -> f64 {
    if a.rows() == 0 || a.cols() == 0 {
        return 0.0;
    }
    svd(a).s[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rand::{gaussian_mat, random_low_rank};

    #[test]
    fn reconstructs() {
        for (m, n) in [(10, 6), (6, 10), (8, 8), (1, 5)] {
            let a = gaussian_mat(m, n, (m + 31 * n) as u64);
            let d = {
                let mut r = svd(&a).reconstruct();
                r.axpy(-1.0, &a);
                r
            };
            assert!(d.norm_max() < 1e-11, "{m}x{n}: {}", d.norm_max());
        }
    }

    #[test]
    fn orthonormal_factors() {
        let a = gaussian_mat(12, 7, 33);
        let f = svd(&a);
        let utu = matmul(Op::Trans, Op::NoTrans, f.u.rf(), f.u.rf());
        let vtv = matmul(Op::Trans, Op::NoTrans, f.v.rf(), f.v.rf());
        let mut du = utu;
        du.axpy(-1.0, &Mat::eye(7));
        let mut dv = vtv;
        dv.axpy(-1.0, &Mat::eye(7));
        assert!(du.norm_max() < 1e-12);
        assert!(dv.norm_max() < 1e-12);
    }

    #[test]
    fn detects_rank() {
        let a = random_low_rank(20, 16, 4, 0.25, 34);
        let f = svd(&a);
        assert_eq!(f.rank(1e-10), 4);
        for w in f.s.windows(2) {
            assert!(w[0] >= w[1] - 1e-12);
        }
    }

    #[test]
    fn nan_input_returns_instead_of_panicking() {
        let mut a = gaussian_mat(6, 4, 19);
        a[(2, 1)] = f64::NAN;
        let f = svd(&a);
        assert_eq!(f.s.len(), 4);
        assert!(f.s.iter().any(|x| x.is_nan()));
    }

    #[test]
    fn spectral_norm_of_diagonal() {
        let a = Mat::from_rows(&[&[2.0, 0.0], &[0.0, -7.0]]);
        assert!((spectral_norm(&a) - 7.0).abs() < 1e-12);
    }
}
