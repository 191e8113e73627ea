//! Low-rank updated operators: `A' = A + P Qᵀ`.
//!
//! The paper's third application (§V.A) recompresses "an existing H2
//! representation of the covariance matrix \[updated\] with an additional
//! low-rank product", the situation arising in hierarchical LU and
//! multifrontal Schur-complement updates. [`LowRankUpdate`] supplies both
//! black-box inputs for that experiment: the sampler is the fast H2 matvec
//! plus a thin product, and entry evaluation combines H2 extraction with a
//! row-dot of the factors.

use h2_dense::{gemm, matmul, EntryAccess, LinOp, Mat, MatMut, MatRef, Op};

/// A base operator combined with a low-rank product `base + P Qᵀ`.
///
/// For a symmetric update (needed by the symmetric construction), use
/// `P = Q`. Factors are in tree-permuted coordinates, like everything else.
pub struct LowRankUpdate<'a> {
    pub base: &'a dyn LinOpEntry,
    pub p: Mat,
    pub q: Mat,
}

/// Helper trait alias: an operator providing both black-box inputs.
pub trait LinOpEntry: LinOp + EntryAccess {}
impl<T: LinOp + EntryAccess> LinOpEntry for T {}

impl<'a> LowRankUpdate<'a> {
    /// Symmetric rank-`k` update `base + P Pᵀ` (the paper's configuration is
    /// a rank-32 product).
    pub fn symmetric(base: &'a dyn LinOpEntry, p: Mat) -> Self {
        let q = p.clone();
        LowRankUpdate { base, p, q }
    }

    pub fn rank(&self) -> usize {
        self.p.cols()
    }
}

impl LinOp for LowRankUpdate<'_> {
    fn nrows(&self) -> usize {
        self.base.nrows()
    }

    fn ncols(&self) -> usize {
        self.base.ncols()
    }

    fn apply(&self, x: MatRef<'_>, mut y: MatMut<'_>) {
        self.base.apply(x, y.rb_mut());
        // y += P (Q^T x): two thin products, O(N k d).
        let qtx = matmul(Op::Trans, Op::NoTrans, self.q.rf(), x);
        gemm(Op::NoTrans, Op::NoTrans, 1.0, self.p.rf(), qtx.rf(), 1.0, y);
    }
}

impl EntryAccess for LowRankUpdate<'_> {
    fn entry(&self, i: usize, j: usize) -> f64 {
        let mut s = self.base.entry(i, j);
        for c in 0..self.p.cols() {
            s += self.p[(i, c)] * self.q[(j, c)];
        }
        s
    }

    fn block(&self, rows: &[usize], cols: &[usize], out: &mut MatMut<'_>) {
        self.base.block(rows, cols, out);
        let pr = self.p.select_rows(rows);
        let qc = self.q.select_rows(cols);
        gemm(
            Op::NoTrans,
            Op::Trans,
            1.0,
            pr.rf(),
            qc.rf(),
            1.0,
            out.rb_mut(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2_dense::{gaussian_mat, DenseOp};

    #[test]
    fn updated_apply_and_entries_match_dense_sum() {
        let n = 24;
        let a = {
            let g = gaussian_mat(n, n, 71);
            // symmetrize
            let mut s = g.clone();
            s.axpy(1.0, &g.transpose());
            s
        };
        let p = gaussian_mat(n, 3, 72);
        let op = DenseOp::new(a.clone());
        let upd = LowRankUpdate::symmetric(&op, p.clone());
        assert_eq!(upd.rank(), 3);

        let mut want = a.clone();
        let ppt = matmul(Op::NoTrans, Op::Trans, p.rf(), p.rf());
        want.axpy(1.0, &ppt);

        // apply
        let x = gaussian_mat(n, 2, 73);
        let y = upd.apply_mat(&x);
        let yw = matmul(Op::NoTrans, Op::NoTrans, want.rf(), x.rf());
        let mut d = y;
        d.axpy(-1.0, &yw);
        assert!(d.norm_max() < 1e-12);

        // entries + block
        assert!((upd.entry(3, 7) - want[(3, 7)]).abs() < 1e-13);
        let rows = [0usize, 5, 11];
        let cols = [2usize, 3];
        let b = upd.block_mat(&rows, &cols);
        for (ii, &i) in rows.iter().enumerate() {
            for (jj, &j) in cols.iter().enumerate() {
                assert!((b[(ii, jj)] - want[(i, j)]).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn asymmetric_update_supported() {
        let n = 10;
        let a = gaussian_mat(n, n, 74);
        let p = gaussian_mat(n, 2, 75);
        let q = gaussian_mat(n, 2, 76);
        let op = DenseOp::new(a.clone());
        let upd = LowRankUpdate {
            base: &op,
            p: p.clone(),
            q: q.clone(),
        };
        let pqt = matmul(Op::NoTrans, Op::Trans, p.rf(), q.rf());
        let mut want = a;
        want.axpy(1.0, &pqt);
        assert!((upd.entry(4, 9) - want[(4, 9)]).abs() < 1e-13);
    }
}
