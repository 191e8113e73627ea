//! Triangular solves (BLAS `trsm`-style) for the handful of variants the
//! workspace needs: interpolation-matrix computation (`R1^{-1} R2`),
//! Cholesky-based frontal elimination, and LU back-substitution.
//!
//! The left solves ([`solve_triangular_left`],
//! [`solve_triangular_left_transposed`]) substitute four right-hand-side
//! columns per pass: each entry of `T` is loaded once for the group and the
//! four columns' dot products run as independent chains.
//! Every column keeps its own operation sequence (rows in substitution
//! order, each row's sum in ascending `l`), so column `j` of the result is
//! bit-identical at every width and equal to the column-at-a-time loop.

use crate::mat::{MatMut, MatRef};

/// Which triangle of the coefficient matrix holds the data.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Triangle {
    Lower,
    Upper,
}

/// Whether the triangular matrix has an implicit unit diagonal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Diag {
    NonUnit,
    Unit,
}

/// Solve `T X = B` in place (`B` overwritten by `X`), `T` `n x n`, `B` `n x k`.
pub fn solve_triangular_left(tri: Triangle, diag: Diag, t: MatRef<'_>, b: &mut MatMut<'_>) {
    let n = t.rows();
    assert_eq!(t.cols(), n, "triangular matrix must be square");
    assert_eq!(b.rows(), n, "rhs row mismatch");
    let forward = tri == Triangle::Lower;
    let coef = |i: usize, l: usize| t.at(i, l);
    b.for_column_groups(
        |g| substitute(n, forward, diag, coef, g),
        |g| substitute(n, forward, diag, coef, g),
    );
}

/// Substitution on the `G` right-hand-side columns `b`, `T` given by
/// `coef(i, l)`: row `i` (ascending when `forward`, else descending)
/// becomes `(bᵢ − Σₗ coef(i, l)·bₗ) / coef(i, i)` over the rows `l` solved
/// before it, in ascending `l` order (no division for a unit diagonal). Each
/// column's operation sequence is fixed, so its bits do not depend on `G`;
/// the group loads each `T` entry once and runs `G` independent chains.
#[inline(always)]
fn substitute<const G: usize>(
    n: usize,
    forward: bool,
    diag: Diag,
    coef: impl Fn(usize, usize) -> f64,
    b: [&mut [f64]; G],
) {
    let b = b.map(|col| &mut col[..n]);
    for step in 0..n {
        let i = if forward { step } else { n - 1 - step };
        let solved = if forward { 0..i } else { i + 1..n };
        let mut s: [f64; G] = std::array::from_fn(|g| b[g][i]);
        for l in solved {
            let tv = coef(i, l);
            for g in 0..G {
                s[g] -= tv * b[g][l];
            }
        }
        if diag == Diag::NonUnit {
            let d = coef(i, i);
            for v in &mut s {
                *v /= d;
            }
        }
        for g in 0..G {
            b[g][i] = s[g];
        }
    }
}

/// Solve `X T = B` in place (`B` overwritten by `X`), `T` `n x n`, `B` `k x n`.
pub fn solve_triangular_right(tri: Triangle, diag: Diag, t: MatRef<'_>, b: &mut MatMut<'_>) {
    let n = t.rows();
    assert_eq!(t.cols(), n, "triangular matrix must be square");
    assert_eq!(b.cols(), n, "rhs col mismatch");
    match tri {
        // X U = B  =>  column sweep left-to-right.
        Triangle::Upper => {
            for j in 0..n {
                for l in 0..j {
                    let s = t.at(l, j);
                    if s != 0.0 {
                        for i in 0..b.rows() {
                            let v = b.at(i, l);
                            *b.at_mut(i, j) -= s * v;
                        }
                    }
                }
                if diag == Diag::NonUnit {
                    let d = t.at(j, j);
                    for i in 0..b.rows() {
                        *b.at_mut(i, j) /= d;
                    }
                }
            }
        }
        // X L = B  =>  column sweep right-to-left.
        Triangle::Lower => {
            for j in (0..n).rev() {
                for l in (j + 1)..n {
                    let s = t.at(l, j);
                    if s != 0.0 {
                        for i in 0..b.rows() {
                            let v = b.at(i, l);
                            *b.at_mut(i, j) -= s * v;
                        }
                    }
                }
                if diag == Diag::NonUnit {
                    let d = t.at(j, j);
                    for i in 0..b.rows() {
                        *b.at_mut(i, j) /= d;
                    }
                }
            }
        }
    }
}

/// Solve `T^T X = B` in place.
pub fn solve_triangular_left_transposed(
    tri: Triangle,
    diag: Diag,
    t: MatRef<'_>,
    b: &mut MatMut<'_>,
) {
    let n = t.rows();
    assert_eq!(t.cols(), n);
    assert_eq!(b.rows(), n);
    // U^T is lower triangular, L^T upper.
    let forward = tri == Triangle::Upper;
    let coef = |i: usize, l: usize| t.at(l, i);
    b.for_column_groups(
        |g| substitute(n, forward, diag, coef, g),
        |g| substitute(n, forward, diag, coef, g),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{matmul, Op};
    use crate::mat::Mat;
    use crate::rand::gaussian_mat;

    fn well_conditioned_tri(n: usize, tri: Triangle, seed: u64) -> Mat {
        let g = gaussian_mat(n, n, seed);
        Mat::from_fn(n, n, |i, j| {
            let keep = match tri {
                Triangle::Lower => i >= j,
                Triangle::Upper => i <= j,
            };
            if !keep {
                0.0
            } else if i == j {
                3.0 + g[(i, j)].abs()
            } else {
                g[(i, j)] * 0.3
            }
        })
    }

    #[test]
    fn left_solves() {
        for tri in [Triangle::Lower, Triangle::Upper] {
            let t = well_conditioned_tri(6, tri, 1);
            let x0 = gaussian_mat(6, 3, 2);
            let mut b = matmul(Op::NoTrans, Op::NoTrans, t.rf(), x0.rf());
            solve_triangular_left(tri, Diag::NonUnit, t.rf(), &mut b.rm());
            let mut d = b;
            d.axpy(-1.0, &x0);
            assert!(d.norm_max() < 1e-12, "{tri:?}");
        }
    }

    #[test]
    fn right_solves() {
        for tri in [Triangle::Lower, Triangle::Upper] {
            let t = well_conditioned_tri(5, tri, 3);
            let x0 = gaussian_mat(4, 5, 4);
            let mut b = matmul(Op::NoTrans, Op::NoTrans, x0.rf(), t.rf());
            solve_triangular_right(tri, Diag::NonUnit, t.rf(), &mut b.rm());
            let mut d = b;
            d.axpy(-1.0, &x0);
            assert!(d.norm_max() < 1e-12, "{tri:?}");
        }
    }

    #[test]
    fn transposed_left_solves() {
        for tri in [Triangle::Lower, Triangle::Upper] {
            let t = well_conditioned_tri(7, tri, 5);
            let x0 = gaussian_mat(7, 2, 6);
            let mut b = matmul(Op::Trans, Op::NoTrans, t.rf(), x0.rf());
            solve_triangular_left_transposed(tri, Diag::NonUnit, t.rf(), &mut b.rm());
            let mut d = b;
            d.axpy(-1.0, &x0);
            assert!(d.norm_max() < 1e-12, "{tri:?}");
        }
    }

    #[test]
    fn unit_diagonal_ignores_diag_entries() {
        let mut t = well_conditioned_tri(4, Triangle::Lower, 7);
        // Unit solve must not read the stored diagonal.
        for i in 0..4 {
            t[(i, i)] = f64::NAN;
        }
        let tl = Mat::from_fn(4, 4, |i, j| {
            if i == j {
                1.0
            } else if i > j {
                t[(i, j)]
            } else {
                0.0
            }
        });
        let x0 = gaussian_mat(4, 2, 8);
        let mut b = matmul(Op::NoTrans, Op::NoTrans, tl.rf(), x0.rf());
        solve_triangular_left(Triangle::Lower, Diag::Unit, t.rf(), &mut b.rm());
        let mut d = b;
        d.axpy(-1.0, &x0);
        assert!(d.norm_max() < 1e-12);
    }
}
