//! Basis orthogonalization for H2 matrices.
//!
//! The sketching construction produces interpolation bases `U = P[I; T]`
//! which are well-conditioned but not orthonormal. Downstream arithmetic
//! (matvec stability, recompression, the future inversion the paper's §VI
//! announces) prefers orthonormal cluster bases. This pass converts the
//! representation in place, bottom-up, without changing the represented
//! operator:
//!
//! * leaf: `U_τ = Q R` → store `Q`, push `R` into the parent transfer slice
//!   and into every coupling block of `τ`,
//! * inner: the (already-updated) stacked transfer `[R_1 E_1; R_2 E_2] = QR`
//!   → store `Q`, push `R` upward likewise.
//!
//! Both side layouts are supported. For the symmetric layout one QR sweep
//! rescales coupling blocks as `B ← R_s B R_sᵀ`-style with the shared `R`s;
//! for the unsymmetric layout each side gets its own QR sweep and the
//! coupled rescaling is `B_{s,t} ← R^row_s B_{s,t} (R^col_t)ᵀ` — an
//! admissible block acts as `U_s B_{s,t} V_tᵀ`, so the row `R` multiplies
//! from the left and the column `R` from the right.
//!
//! The skeleton index lists keep their values for bookkeeping but the
//! identity-rows property of the interpolative basis no longer holds
//! afterwards (documented trade-off).

use crate::format::H2Matrix;
use h2_dense::{gemm, matmul, qr_factor, Mat, Op};
use h2_tree::ClusterTree;

/// Fold the children's `R` factors into this level's stacked transfers and
/// QR every based node of `ids` on one side. Updates `basis` in place and
/// records the new `R` factors in `r_of`. Returns the number of nodes
/// processed.
fn orthogonalize_side_level(
    tree: &ClusterTree,
    basis: &mut [Mat],
    r_of: &mut [Option<Mat>],
    ids: &[usize],
    l: usize,
    leaf_level: usize,
) -> usize {
    // 1. Update this level's stacked bases with the children's R factors
    //    (no-op at the leaf level).
    if l < leaf_level {
        for &id in ids {
            let (c1, c2) = tree.nodes[id].children.unwrap();
            let b = &basis[id];
            // Rows of the stacked transfer split by the children's *old*
            // ranks (cols of their R factors).
            let k1 = r_of[c1]
                .as_ref()
                .map(|r| r.cols())
                .unwrap_or(basis[c1].cols());
            let k2 = r_of[c2]
                .as_ref()
                .map(|r| r.cols())
                .unwrap_or(basis[c2].cols());
            debug_assert_eq!(k1 + k2, b.rows());
            let top_rows = r_of[c1].as_ref().map(|r| r.rows()).unwrap_or(k1);
            let bot_rows = r_of[c2].as_ref().map(|r| r.rows()).unwrap_or(k2);
            let mut updated = Mat::zeros(top_rows + bot_rows, b.cols());
            {
                let e1 = b.view(0, 0, k1, b.cols());
                let mut dst = updated.view_mut(0, 0, top_rows, b.cols());
                match &r_of[c1] {
                    Some(r) => gemm(Op::NoTrans, Op::NoTrans, 1.0, r.rf(), e1, 0.0, dst),
                    None => dst.copy_from(e1),
                }
            }
            {
                let e2 = b.view(k1, 0, k2, b.cols());
                let mut dst = updated.view_mut(top_rows, 0, bot_rows, b.cols());
                match &r_of[c2] {
                    Some(r) => gemm(Op::NoTrans, Op::NoTrans, 1.0, r.rf(), e2, 0.0, dst),
                    None => dst.copy_from(e2),
                }
            }
            basis[id] = updated;
        }
    }

    // 2. QR each basis; keep Q, remember R.
    for &id in ids {
        let b = std::mem::replace(&mut basis[id], Mat::zeros(0, 0));
        let f = qr_factor(b);
        basis[id] = f.q_thin();
        r_of[id] = Some(f.r());
    }
    ids.len()
}

impl H2Matrix {
    /// Orthogonalize all cluster bases in place, on every stored side.
    /// Returns the number of (node, side) bases processed.
    pub fn orthogonalize(&mut self) -> usize {
        let tree = self.tree.clone();
        let leaf_level = tree.leaf_level();
        let nnodes = tree.nodes.len();
        let mut processed = 0;
        // R factors of the current level, indexed by node id, per side.
        let mut r_row: Vec<Option<Mat>> = vec![None; nnodes];
        let mut r_col: Vec<Option<Mat>> = if self.is_symmetric() {
            Vec::new()
        } else {
            vec![None; nnodes]
        };

        for l in (0..=leaf_level).rev() {
            let row_ids: Vec<usize> = tree
                .level(l)
                .filter(|&id| self.basis[id].cols() > 0)
                .collect();
            processed += orthogonalize_side_level(
                &tree,
                &mut self.basis,
                &mut r_row,
                &row_ids,
                l,
                leaf_level,
            );
            if let Some(c) = &mut self.col {
                let col_ids: Vec<usize> =
                    tree.level(l).filter(|&id| c.basis[id].cols() > 0).collect();
                processed += orthogonalize_side_level(
                    &tree,
                    &mut c.basis,
                    &mut r_col,
                    &col_ids,
                    l,
                    leaf_level,
                );
            }

            // 3. Rescale this level's coupling blocks:
            //    B ← R^row_s B (R^col_t)ᵀ (the column side aliases the row
            //    side when symmetric). Far-field pairs connect same-level
            //    nodes, so both factors were just computed. Rank-0 endpoints
            //    have zero-dimensional blocks and no R — nothing to scale.
            let symmetric = self.is_symmetric();
            for idx in 0..self.coupling.pairs.len() {
                let (s, t) = self.coupling.pairs[idx];
                if tree.level_of(s) != l {
                    continue;
                }
                let rs = r_row[s].as_ref();
                let rt = if symmetric {
                    r_row[t].as_ref()
                } else {
                    r_col[t].as_ref()
                };
                if let (Some(rs), Some(rt)) = (rs, rt) {
                    let b = self.coupling.block(idx).to_mat();
                    let rb = matmul(Op::NoTrans, Op::NoTrans, rs.rf(), b.rf());
                    let scaled = matmul(Op::NoTrans, Op::Trans, rb.rf(), rt.rf());
                    self.coupling.replace(idx, scaled);
                }
            }
        }
        processed
    }

    /// Max deviation of `UᵀU` from identity over all bases of every stored
    /// side — leaf bases and stacked transfers alike (0 for an
    /// orthogonalized matrix). Diagnostic used by tests.
    pub fn basis_orthogonality_error(&self) -> f64 {
        let mut sides: Vec<&[Mat]> = vec![&self.basis];
        if let Some(c) = &self.col {
            sides.push(&c.basis);
        }
        let mut worst = 0.0f64;
        for basis in sides {
            for b in basis.iter() {
                if b.cols() == 0 {
                    continue;
                }
                let g = matmul(Op::Trans, Op::NoTrans, b.rf(), b.rf());
                let mut d = g;
                d.axpy(-1.0, &Mat::eye(b.cols()));
                worst = worst.max(d.norm_max());
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use crate::direct::{direct_construct, DirectConfig};
    use h2_dense::{gaussian_mat, LinOp};
    use h2_kernels::{ExponentialKernel, KernelMatrix};
    use h2_tree::{Admissibility, ClusterTree, Partition};
    use std::sync::Arc;

    #[test]
    fn orthogonalize_preserves_operator_and_orthonormalizes() {
        let pts = h2_tree::uniform_cube(1200, 201);
        let tree = Arc::new(ClusterTree::build(&pts, 16));
        let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
        assert!(part.top_far_level(&tree).is_some());
        let km = KernelMatrix::new(ExponentialKernel::default(), tree.points.clone());
        let mut h2 = direct_construct(&km, tree.clone(), part, &DirectConfig::default());

        assert!(
            h2.basis_orthogonality_error() > 1e-8,
            "interpolative bases are not orthonormal"
        );
        let x = gaussian_mat(1200, 3, 202);
        let before = h2.apply_mat(&x);

        let processed = h2.orthogonalize();
        assert!(processed > 0);
        assert!(
            h2.basis_orthogonality_error() < 1e-12,
            "bases must be orthonormal, err {}",
            h2.basis_orthogonality_error()
        );

        let after = h2.apply_mat(&x);
        let mut d = after;
        d.axpy(-1.0, &before);
        assert!(
            d.norm_max() < 1e-10 * before.norm_max().max(1.0),
            "operator changed by {}",
            d.norm_max()
        );
    }

    #[test]
    fn orthogonalize_preserves_entry_extraction() {
        let pts = h2_tree::uniform_cube(900, 203);
        let tree = Arc::new(ClusterTree::build(&pts, 16));
        let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
        let km = KernelMatrix::new(ExponentialKernel::default(), tree.points.clone());
        let mut h2 = direct_construct(&km, tree.clone(), part, &DirectConfig::default());
        let rows: Vec<usize> = (0..900).step_by(97).collect();
        let cols: Vec<usize> = (3..900).step_by(113).collect();
        let before = h2.extract_block(&rows, &cols);
        h2.orthogonalize();
        let after = h2.extract_block(&rows, &cols);
        let mut d = after;
        d.axpy(-1.0, &before);
        assert!(
            d.norm_max() < 1e-10,
            "entry extraction changed by {}",
            d.norm_max()
        );
    }
}
