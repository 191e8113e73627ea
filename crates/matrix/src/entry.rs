//! Entry and sub-block extraction from an H2 representation, side-generic.
//!
//! The low-rank-update experiment (paper §V.A, third application) needs an
//! entry evaluation function *for an existing H2 matrix*: `batchedGen` must
//! produce `D` and `B` blocks of the recompression from the compressed
//! representation itself. For an index pair `(i, j)` the owning block of the
//! matrix tree is either a dense leaf block (direct lookup) or an admissible
//! block `(s, t)` at some level, where the value is
//! `u_s(i, :) · B_{s,t} · v_t(j, :)ᵀ` with `u_s(i, :)` a row of the
//! *accumulated* row-side basis and `v_t(j, :)` a row of the accumulated
//! column-side basis — computed by climbing the transfer matrices. For
//! symmetric matrices both sides read the same basis tree.

use crate::format::H2Matrix;
use h2_dense::{gemm, matmul, EntryAccess, Mat, MatMut, Op};
use h2_tree::ClusterTree;

/// Rows of an accumulated nested basis for a subset `idx` of cluster `s`.
///
/// At a leaf these are rows of the explicit basis; at an inner node, the
/// children's accumulated rows multiplied by the transfer slices (the
/// nested-basis property, eq. (2)). Works on either basis side.
pub(crate) fn accumulated_basis_rows(
    tree: &ClusterTree,
    basis: &[Mat],
    s: usize,
    idx: &[usize],
) -> Mat {
    let k = basis[s].cols();
    if idx.is_empty() {
        return Mat::zeros(0, k);
    }
    if tree.level_of(s) == tree.leaf_level() {
        let (b, _) = tree.range(s);
        return Mat::from_fn(idx.len(), k, |r, c| basis[s][(idx[r] - b, c)]);
    }
    let (c1, c2) = tree.nodes[s].children.unwrap();
    let split = tree.nodes[c1].end;
    // Partition idx between the children, tracking original positions.
    let mut left = Vec::new();
    let mut right = Vec::new();
    let mut pos_left = Vec::new();
    let mut pos_right = Vec::new();
    for (p, &i) in idx.iter().enumerate() {
        if i < split {
            left.push(i);
            pos_left.push(p);
        } else {
            right.push(i);
            pos_right.push(p);
        }
    }
    let k1 = basis[c1].cols();
    let e1 = basis[s].view(0, 0, k1, k);
    let e2 = basis[s].view(k1, 0, basis[s].rows() - k1, k);
    let mut out = Mat::zeros(idx.len(), k);
    for (child, ids, pos, e) in [(c1, &left, &pos_left, e1), (c2, &right, &pos_right, e2)] {
        if ids.is_empty() {
            continue;
        }
        let rows_c = accumulated_basis_rows(tree, basis, child, ids);
        let mut prod = Mat::zeros(ids.len(), k);
        gemm(
            Op::NoTrans,
            Op::NoTrans,
            1.0,
            rows_c.rf(),
            e,
            0.0,
            prod.rm(),
        );
        for (r, &p) in pos.iter().enumerate() {
            for c in 0..k {
                out[(p, c)] = prod[(r, c)];
            }
        }
    }
    out
}

impl H2Matrix {
    /// Rows of the accumulated *row-side* basis `U_s` for a subset `idx` of
    /// the cluster `s` (global permuted indices, each in `range(s)`). Shape
    /// `|idx| x k_s`.
    pub fn basis_rows(&self, s: usize, idx: &[usize]) -> Mat {
        accumulated_basis_rows(&self.tree, &self.basis, s, idx)
    }

    /// Rows of the accumulated *column-side* basis `V_s` (the row side when
    /// symmetric).
    pub fn col_basis_rows(&self, s: usize, idx: &[usize]) -> Mat {
        accumulated_basis_rows(&self.tree, self.col_basis(), s, idx)
    }

    /// Extract the sub-block `K(rows, cols)` (global permuted indices) by
    /// recursive descent through the matrix tree.
    pub fn extract_block(&self, rows: &[usize], cols: &[usize]) -> Mat {
        let mut out = Mat::zeros(rows.len(), cols.len());
        self.extract_rec(
            0,
            0,
            rows,
            cols,
            &mut out,
            &mut identity_pos(rows.len()),
            &mut identity_pos(cols.len()),
        );
        out
    }

    fn extract_rec(
        &self,
        s: usize,
        t: usize,
        rows: &[usize],
        cols: &[usize],
        out: &mut Mat,
        row_pos: &mut [usize],
        col_pos: &mut [usize],
    ) {
        if rows.is_empty() || cols.is_empty() {
            return;
        }
        let tree = &self.tree;
        // Admissible pair: low-rank evaluation through the accumulated bases.
        if self.partition.far_of[s].binary_search(&t).is_ok() {
            let blk = self.coupling.get(s, t).expect("coupling block");
            let us = self.basis_rows(s, rows);
            let vt = self.col_basis_rows(t, cols);
            // value = U_s(rows) · op(B) · V_t(cols)ᵀ
            let op = if blk.transposed {
                Op::Trans
            } else {
                Op::NoTrans
            };
            let tmp = blk.mat.matmul(op, Op::Trans, vt.rf());
            let val = matmul(Op::NoTrans, Op::NoTrans, us.rf(), tmp.rf());
            for (r, &rp) in row_pos.iter().enumerate() {
                for (c, &cp) in col_pos.iter().enumerate() {
                    out[(rp, cp)] = val[(r, c)];
                }
            }
            return;
        }
        // Dense leaf pair.
        if tree.level_of(s) == tree.leaf_level() {
            debug_assert!(self.partition.near_of[s].binary_search(&t).is_ok());
            let op = self.dense.get(s, t).expect("dense block");
            let (blk, transposed) = (op.mat, op.transposed);
            let (sb, _) = tree.range(s);
            let (tb, _) = tree.range(t);
            for (r, &rp) in row_pos.iter().enumerate() {
                for (c, &cp) in col_pos.iter().enumerate() {
                    let (li, lj) = (rows[r] - sb, cols[c] - tb);
                    out[(rp, cp)] = if transposed {
                        blk.at(lj, li)
                    } else {
                        blk.at(li, lj)
                    };
                }
            }
            return;
        }
        // Inadmissible inner pair: recurse on the four child pairs.
        let (s1, s2) = tree.nodes[s].children.unwrap();
        let (t1, t2) = tree.nodes[t].children.unwrap();
        let rsplit = tree.nodes[s1].end;
        let csplit = tree.nodes[t1].end;
        let (rl, rl_pos, rr, rr_pos) = split_indexed(rows, row_pos, rsplit);
        let (cl, cl_pos, cr, cr_pos) = split_indexed(cols, col_pos, csplit);
        for (sc, rws, rps) in [(s1, &rl, &rl_pos), (s2, &rr, &rr_pos)] {
            for (tc, cls, cps) in [(t1, &cl, &cl_pos), (t2, &cr, &cr_pos)] {
                self.extract_rec(sc, tc, rws, cls, out, &mut rps.clone(), &mut cps.clone());
            }
        }
    }

    /// Materialize the full dense matrix (tests / tiny problems only).
    pub fn to_dense(&self) -> Mat {
        let n = self.n();
        let all: Vec<usize> = (0..n).collect();
        self.extract_block(&all, &all)
    }
}

fn identity_pos(n: usize) -> Vec<usize> {
    (0..n).collect()
}

/// Split `(idx, pos)` pairs by `idx < split`.
fn split_indexed(
    idx: &[usize],
    pos: &[usize],
    split: usize,
) -> (Vec<usize>, Vec<usize>, Vec<usize>, Vec<usize>) {
    let mut l = Vec::new();
    let mut lp = Vec::new();
    let mut r = Vec::new();
    let mut rp = Vec::new();
    for (i, &v) in idx.iter().enumerate() {
        if v < split {
            l.push(v);
            lp.push(pos[i]);
        } else {
            r.push(v);
            rp.push(pos[i]);
        }
    }
    (l, lp, r, rp)
}

impl EntryAccess for H2Matrix {
    fn entry(&self, i: usize, j: usize) -> f64 {
        self.extract_block(&[i], &[j])[(0, 0)]
    }

    fn block(&self, rows: &[usize], cols: &[usize], out: &mut MatMut<'_>) {
        let b = self.extract_block(rows, cols);
        out.copy_from(b.rf());
    }
}
