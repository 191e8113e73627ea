//! Triangular solves (BLAS `trsm`-style) for the handful of variants the
//! workspace needs: interpolation-matrix computation (`R1^{-1} R2`),
//! Cholesky-based frontal elimination, and LU back-substitution.
//!
//! The left solves ([`solve_triangular_left`],
//! [`solve_triangular_left_transposed`]) run their right-hand sides in
//! strips (`crate::strip`): up to 32 columns at a time are interleaved so
//! that row `i` of the strip holds their entries `i`, and one substitution
//! (`substitute_strip`) sweeps all of them, one vector lane per column —
//! each entry of `T` is loaded once for the strip. Every
//! lane keeps its column's own operation sequence (rows in substitution
//! order, each row's sum in ascending `l`), so column `j` of the result is
//! bit-identical at every width, on every SIMD tier, and equal to the
//! column-at-a-time loop.

use crate::mat::{MatMut, MatRef};
use crate::strip::{for_strips, StripKernel};

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
    for_strips(b, &TriSolve::new(tri, diag, t, false));
}

/// One left triangular solve as a strip kernel: `T X = B`, or `Tᵀ X = B`
/// when `transposed`.
pub(crate) struct TriSolve<'a> {
    t: MatRef<'a>,
    forward: bool,
    diag: Diag,
    transposed: bool,
}

impl<'a> TriSolve<'a> {
    pub(crate) fn new(tri: Triangle, diag: Diag, t: MatRef<'a>, transposed: bool) -> Self {
        // L and Uᵀ substitute forward, U and Lᵀ backward.
        let forward = (tri == Triangle::Lower) != transposed;
        TriSolve {
            t,
            forward,
            diag,
            transposed,
        }
    }
}

impl StripKernel for TriSolve<'_> {
    #[inline(always)]
    fn run<const L: usize>(&self, x: &mut [[f64; L]]) {
        let (t, n) = (self.t, self.t.rows());
        if self.transposed {
            substitute_strip(n, self.forward, self.diag, |i, l| t.at(l, i), x);
        } else {
            substitute_strip(n, self.forward, self.diag, |i, l| t.at(i, l), x);
        }
    }
}

/// Substitution on an `L`-column strip `x` (row `i` holds the columns'
/// entries `i`), `T` given by `coef(i, l)`: row `i` (ascending when
/// `forward`, else descending) becomes `(xᵢ − Σₗ coef(i, l)·xₗ) / coef(i, i)`
/// over the rows `l` solved before it, in ascending `l` order (no division
/// for a unit diagonal). Each lane's operation sequence is the one its
/// column has alone, so its bits do not depend on `L`; the strip loads
/// each `T` entry once and runs `L` independent chains.
#[inline(always)]
pub(crate) fn substitute_strip<const L: usize>(
    n: usize,
    forward: bool,
    diag: Diag,
    coef: impl Fn(usize, usize) -> f64,
    x: &mut [[f64; L]],
) {
    let x = &mut x[..n];
    for step in 0..n {
        let i = if forward { step } else { n - 1 - step };
        let (head, rest) = x.split_at_mut(i);
        let (xi, tail) = rest.split_first_mut().expect("row i");
        let (solved, l0) = if forward {
            (&*head, 0)
        } else {
            (&*tail, i + 1)
        };
        let mut s = *xi;
        for (o, xl) in solved.iter().enumerate() {
            let tv = coef(i, l0 + o);
            for g in 0..L {
                s[g] -= tv * xl[g];
            }
        }
        if diag == Diag::NonUnit {
            let d = coef(i, i);
            for v in &mut s {
                *v /= d;
            }
        }
        *xi = s;
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
    for_strips(b, &TriSolve::new(tri, diag, t, true));
}

/// `op(T) X = B` one column and one row at a time (`op(T) = Tᵀ` when
/// `transposed`): rows in substitution order, each row's sum over the rows
/// solved before it in ascending order — the bitwise reference of the
/// strip kernels.
#[cfg(test)]
pub(crate) fn solve_columns_ref(
    tri: Triangle,
    diag: Diag,
    t: MatRef<'_>,
    transposed: bool,
    b: &mut crate::mat::Mat,
) {
    let n = t.rows();
    let forward = (tri == Triangle::Lower) != transposed;
    let coef = |i: usize, l: usize| if transposed { t.at(l, i) } else { t.at(i, l) };
    for j in 0..b.cols() {
        let rows: Vec<usize> = if forward {
            (0..n).collect()
        } else {
            (0..n).rev().collect()
        };
        for i in rows {
            let solved = if forward { 0..i } else { i + 1..n };
            let mut s = b[(i, j)];
            for l in solved {
                s -= coef(i, l) * b[(l, j)];
            }
            if diag == Diag::NonUnit {
                s /= coef(i, i);
            }
            b[(i, j)] = s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{matmul, Op};
    use crate::mat::Mat;
    use crate::rand::gaussian_mat;
    use crate::strip::{for_strips_on, host_tiers};

    fn bits(m: &Mat) -> Vec<u64> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn every_tier_solves_columnwise_as_the_reference_loop() {
        // Both triangles filled; each solve reads only the one it is told to.
        let n = 37;
        let g = gaussian_mat(n, n, 9);
        let t = Mat::from_fn(n, n, |i, j| {
            if i == j {
                2.5 + g[(i, j)].abs()
            } else {
                0.3 * g[(i, j)]
            }
        });
        let b0 = gaussian_mat(n, 67, 10);
        for tier in host_tiers() {
            for d in [1, 2, 31, 32, 33, 64, 67] {
                for tri in [Triangle::Lower, Triangle::Upper] {
                    for diag in [Diag::NonUnit, Diag::Unit] {
                        for transposed in [false, true] {
                            let mut want = b0.view(0, 0, n, d).to_mat();
                            solve_columns_ref(tri, diag, t.rf(), transposed, &mut want);
                            let mut got = b0.view(0, 0, n, d).to_mat();
                            let kernel = TriSolve::new(tri, diag, t.rf(), transposed);
                            for_strips_on(tier, &mut got.rm(), &kernel);
                            assert_eq!(
                                bits(&got),
                                bits(&want),
                                "{tier:?} width {d} {tri:?} {diag:?} transposed {transposed}"
                            );
                        }
                    }
                }
            }
        }
    }

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
