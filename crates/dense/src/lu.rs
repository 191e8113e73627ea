//! LU with partial pivoting and dense Cholesky.
//!
//! LU backs the ULV's pivot-block and root solves, the block-Jacobi
//! preconditioner, the dense linear solves in tests and the Gaussian-process
//! example; Cholesky is the pivot-block factorization inside the
//! multifrontal solver (`h2-frontal`). [`LuFactor::solve_in_place`] and
//! [`cholesky_solve`] run as one right-hand-side strip kernel each (see
//! [`crate::tri`]): a strip is marshaled once, then pivoted and swept by
//! both triangular substitutions, so column `j` of a solve is
//! bit-identical at every right-hand-side width.

use crate::mat::{Mat, MatMut, MatRef};
use crate::strip::{for_strips, StripKernel};
use crate::tri::{Diag, TriSolve, Triangle};

/// Packed LU factor with pivot row indices.
pub struct LuFactor {
    pub a: Mat,
    /// `piv[k]` = row swapped with row `k` at step `k`.
    pub piv: Vec<usize>,
}

/// Factor a square matrix with partial pivoting. Returns `None` if exactly
/// singular.
pub fn lu_factor(mut a: Mat) -> Option<LuFactor> {
    let n = a.rows();
    assert_eq!(a.cols(), n, "lu: matrix must be square");
    let mut piv = vec![0usize; n];
    for k in 0..n {
        // Pivot search in column k.
        let mut p = k;
        let mut pmax = a[(k, k)].abs();
        for i in (k + 1)..n {
            let v = a[(i, k)].abs();
            if v > pmax {
                pmax = v;
                p = i;
            }
        }
        piv[k] = p;
        if pmax == 0.0 {
            return None;
        }
        if p != k {
            for j in 0..n {
                let t = a[(k, j)];
                a[(k, j)] = a[(p, j)];
                a[(p, j)] = t;
            }
        }
        let inv = 1.0 / a[(k, k)];
        for i in (k + 1)..n {
            a[(i, k)] *= inv;
        }
        for j in (k + 1)..n {
            let s = a[(k, j)];
            if s != 0.0 {
                for i in (k + 1)..n {
                    let l = a[(i, k)];
                    a[(i, j)] -= l * s;
                }
            }
        }
    }
    Some(LuFactor { a, piv })
}

impl LuFactor {
    /// Solve `A X = B` in place.
    pub fn solve_in_place(&self, b: &mut MatMut<'_>) {
        assert_eq!(b.rows(), self.a.rows());
        for_strips(b, self);
    }

    /// Solve `A X = B`, returning `X`.
    pub fn solve(&self, b: &Mat) -> Mat {
        let mut x = b.clone();
        self.solve_in_place(&mut x.rm());
        x
    }
}

/// The LU solve on a strip: the row pivots, then `L` (unit diagonal)
/// forward and `U` backward.
impl StripKernel for LuFactor {
    #[inline(always)]
    fn run<const L: usize>(&self, x: &mut [[f64; L]]) {
        for (k, &p) in self.piv.iter().enumerate() {
            if p != k {
                x.swap(k, p);
            }
        }
        let a = self.a.rf();
        TriSolve::new(Triangle::Lower, Diag::Unit, a, false).run(x);
        TriSolve::new(Triangle::Upper, Diag::NonUnit, a, false).run(x);
    }
}

/// In-place lower Cholesky of a symmetric positive-definite view (`A = L L^T`,
/// lower triangle overwritten by `L`; strict upper triangle left untouched).
/// Returns `Err(k)` at the first non-positive pivot `k`.
pub fn cholesky_in_place(a: &mut MatMut<'_>) -> Result<(), usize> {
    let n = a.rows();
    assert_eq!(a.cols(), n, "cholesky: matrix must be square");
    for k in 0..n {
        let mut d = a.at(k, k);
        for l in 0..k {
            let v = a.at(k, l);
            d -= v * v;
        }
        if d <= 0.0 {
            return Err(k);
        }
        let d = d.sqrt();
        *a.at_mut(k, k) = d;
        let inv = 1.0 / d;
        for i in (k + 1)..n {
            let mut s = a.at(i, k);
            for l in 0..k {
                s -= a.at(i, l) * a.at(k, l);
            }
            *a.at_mut(i, k) = s * inv;
        }
    }
    Ok(())
}

/// Cholesky solve `A X = B` given the in-place factor `L` (lower triangle).
pub fn cholesky_solve(l: MatRef<'_>, b: &mut MatMut<'_>) {
    assert_eq!(l.cols(), l.rows(), "cholesky: factor must be square");
    assert_eq!(b.rows(), l.rows(), "rhs row mismatch");
    for_strips(b, &CholeskySolve(l));
}

/// The Cholesky solve on a strip: `L` forward, then `Lᵀ` backward.
struct CholeskySolve<'a>(MatRef<'a>);

impl StripKernel for CholeskySolve<'_> {
    #[inline(always)]
    fn run<const L: usize>(&self, x: &mut [[f64; L]]) {
        TriSolve::new(Triangle::Lower, Diag::NonUnit, self.0, false).run(x);
        TriSolve::new(Triangle::Lower, Diag::NonUnit, self.0, true).run(x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{matmul, Op};
    use crate::rand::gaussian_mat;
    use crate::strip::{for_strips_on, host_tiers};
    use crate::tri::solve_columns_ref;

    fn bits(m: &Mat) -> Vec<u64> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn every_tier_solves_columnwise_as_the_reference_loops() {
        let n = 41;
        // Off-diagonal entries large enough that partial pivoting swaps rows.
        let lu = lu_factor(gaussian_mat(n, n, 46)).unwrap();
        assert!(lu.piv.iter().enumerate().any(|(k, &p)| p != k));
        let mut l = spd(n, 47);
        cholesky_in_place(&mut l.rm()).unwrap();
        let b0 = gaussian_mat(n, 67, 48);
        for tier in host_tiers() {
            for d in [1, 2, 31, 32, 33, 64, 67] {
                let mut want = b0.view(0, 0, n, d).to_mat();
                for (k, &p) in lu.piv.iter().enumerate() {
                    for j in 0..d {
                        let t = want[(k, j)];
                        want[(k, j)] = want[(p, j)];
                        want[(p, j)] = t;
                    }
                }
                solve_columns_ref(Triangle::Lower, Diag::Unit, lu.a.rf(), false, &mut want);
                solve_columns_ref(Triangle::Upper, Diag::NonUnit, lu.a.rf(), false, &mut want);
                let mut got = b0.view(0, 0, n, d).to_mat();
                for_strips_on(tier, &mut got.rm(), &lu);
                assert_eq!(bits(&got), bits(&want), "LU {tier:?} width {d}");

                let mut want = b0.view(0, 0, n, d).to_mat();
                solve_columns_ref(Triangle::Lower, Diag::NonUnit, l.rf(), false, &mut want);
                solve_columns_ref(Triangle::Lower, Diag::NonUnit, l.rf(), true, &mut want);
                let mut got = b0.view(0, 0, n, d).to_mat();
                for_strips_on(tier, &mut got.rm(), &CholeskySolve(l.rf()));
                assert_eq!(bits(&got), bits(&want), "Cholesky {tier:?} width {d}");
            }
        }
    }

    fn spd(n: usize, seed: u64) -> Mat {
        let g = gaussian_mat(n, n, seed);
        let mut a = matmul(Op::NoTrans, Op::Trans, g.rf(), g.rf());
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    #[test]
    fn lu_solves() {
        let a = gaussian_mat(8, 8, 41);
        let x0 = gaussian_mat(8, 3, 42);
        let b = matmul(Op::NoTrans, Op::NoTrans, a.rf(), x0.rf());
        let f = lu_factor(a).unwrap();
        let x = f.solve(&b);
        let mut d = x;
        d.axpy(-1.0, &x0);
        assert!(d.norm_max() < 1e-10);
    }

    #[test]
    fn lu_detects_singular() {
        let mut a = Mat::zeros(3, 3);
        a[(0, 0)] = 1.0;
        a[(1, 1)] = 1.0;
        assert!(lu_factor(a).is_none());
    }

    #[test]
    fn cholesky_reconstructs() {
        let a = spd(10, 43);
        let mut f = a.clone();
        cholesky_in_place(&mut f.rm()).unwrap();
        let l = Mat::from_fn(10, 10, |i, j| if i >= j { f[(i, j)] } else { 0.0 });
        let llt = matmul(Op::NoTrans, Op::Trans, l.rf(), l.rf());
        let mut d = llt;
        d.axpy(-1.0, &a);
        assert!(d.norm_max() < 1e-10 * a.norm_max());
    }

    #[test]
    fn cholesky_solve_roundtrip() {
        let a = spd(7, 44);
        let x0 = gaussian_mat(7, 2, 45);
        let mut b = matmul(Op::NoTrans, Op::NoTrans, a.rf(), x0.rf());
        let mut f = a;
        cholesky_in_place(&mut f.rm()).unwrap();
        cholesky_solve(f.rf(), &mut b.rm());
        let mut d = b;
        d.axpy(-1.0, &x0);
        assert!(d.norm_max() < 1e-10);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let mut a = Mat::eye(3);
        a[(2, 2)] = -1.0;
        assert_eq!(cholesky_in_place(&mut a.rm()), Err(2));
    }
}
