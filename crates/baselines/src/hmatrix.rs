//! A non-nested H-matrix (per-block low rank) — the output format of the
//! top-down peeling baselines.
//!
//! Unlike the H2 format, every admissible block `(s, t)` carries its own
//! factors `K(I_s, I_t) ≈ U_s B (U_t)^T` (independent per block, no transfer
//! matrices), giving the O(N log N) memory footprint characteristic of
//! H / HODLR codes like ButterflyPACK. Symmetric unordered-pair storage,
//! matching the rest of the workspace.

use h2_dense::{gemm, Mat, MatMut, MatRef, Op};
use h2_tree::{ClusterTree, Partition};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// One admissible low-rank block `U B V^T` (V = row interpolation of the
/// column cluster; for symmetric K it is the `U` of the mirrored block).
pub struct LowRankBlock {
    pub u: Mat,
    pub b: Mat,
    pub v: Mat,
}

impl LowRankBlock {
    pub fn rank(&self) -> usize {
        self.b.rows()
    }

    pub fn memory_bytes(&self) -> usize {
        self.u.memory_bytes() + self.b.memory_bytes() + self.v.memory_bytes()
    }
}

/// Non-nested hierarchical matrix: per-pair low-rank blocks + dense leaves.
pub struct HMatrix {
    pub tree: Arc<ClusterTree>,
    pub partition: Arc<Partition>,
    /// Low-rank blocks keyed by unordered admissible pair (s <= t).
    pub lowrank: HashMap<(usize, usize), LowRankBlock>,
    /// Dense blocks keyed by unordered inadmissible leaf pair (s <= t).
    pub dense: HashMap<(usize, usize), Mat>,
}

impl HMatrix {
    pub fn new(tree: Arc<ClusterTree>, partition: Arc<Partition>) -> Self {
        HMatrix {
            tree,
            partition,
            lowrank: HashMap::new(),
            dense: HashMap::new(),
        }
    }

    pub fn n(&self) -> usize {
        self.tree.npoints()
    }

    pub fn memory_bytes(&self) -> usize {
        let lr: usize = self.lowrank.values().map(|b| b.memory_bytes()).sum();
        let d: usize = self.dense.values().map(|b| b.memory_bytes()).sum();
        lr + d
    }

    /// Largest low-rank block rank.
    pub fn max_rank(&self) -> usize {
        self.lowrank.values().map(|b| b.rank()).max().unwrap_or(0)
    }

    /// Apply the blocks built so far: `y += K_partial x` (tree coordinates).
    /// Used both as the final matvec and for peeling subtraction.
    ///
    /// Work is grouped by output row cluster so the per-node contributions
    /// can be computed in parallel and written to disjoint row ranges.
    pub fn apply_partial(&self, x: MatRef<'_>, y: &mut MatMut<'_>) {
        use rayon::prelude::*;
        let tree = &self.tree;
        let d = x.cols();

        // Row-cluster adjacency over the stored unordered pairs: each
        // ordered side (row_node, col_node, transposed?) lands in the row
        // node's task list. Row nodes and each row's list are sorted, so
        // the sum order, and with it the bits of the product, does not
        // depend on the maps' iteration order.
        let mut tasks: BTreeMap<usize, Vec<(usize, bool, bool)>> = BTreeMap::new();
        // tuple: (col_node, is_dense, mirrored) — pair key is (min, max) =
        // (s, t); mirrored means we apply the transposed side.
        let lowrank = self.lowrank.keys().map(|&key| (key, false));
        for ((s, t), is_dense) in lowrank.chain(self.dense.keys().map(|&key| (key, true))) {
            tasks.entry(s).or_default().push((t, is_dense, false));
            if s != t {
                tasks.entry(t).or_default().push((s, is_dense, true));
            }
        }
        let tasks: Vec<(usize, Vec<(usize, bool, bool)>)> = tasks
            .into_iter()
            .map(|(row_node, mut list)| {
                list.sort_unstable();
                (row_node, list)
            })
            .collect();

        let contribs: Vec<(usize, Mat)> = tasks
            .par_iter()
            .map(|&(row_node, ref list)| {
                let (rb, re) = tree.range(row_node);
                let mut acc = Mat::zeros(re - rb, d);
                for &(col_node, is_dense, mirrored) in list {
                    let key = (row_node.min(col_node), row_node.max(col_node));
                    let (cb, ce) = tree.range(col_node);
                    let xt = x.view(cb, 0, ce - cb, d);
                    if is_dense {
                        let blk = &self.dense[&key];
                        let op = if mirrored { Op::Trans } else { Op::NoTrans };
                        gemm(op, Op::NoTrans, 1.0, blk.rf(), xt, 1.0, acc.rm());
                    } else {
                        let blk = &self.lowrank[&key];
                        if mirrored {
                            // y(I_t) += V B^T U^T x(I_s)
                            let utx = h2_dense::matmul(Op::Trans, Op::NoTrans, blk.u.rf(), xt);
                            let btutx =
                                h2_dense::matmul(Op::Trans, Op::NoTrans, blk.b.rf(), utx.rf());
                            gemm(
                                Op::NoTrans,
                                Op::NoTrans,
                                1.0,
                                blk.v.rf(),
                                btutx.rf(),
                                1.0,
                                acc.rm(),
                            );
                        } else {
                            // y(I_s) += U B V^T x(I_t)
                            let vtx = h2_dense::matmul(Op::Trans, Op::NoTrans, blk.v.rf(), xt);
                            let bvtx =
                                h2_dense::matmul(Op::NoTrans, Op::NoTrans, blk.b.rf(), vtx.rf());
                            gemm(
                                Op::NoTrans,
                                Op::NoTrans,
                                1.0,
                                blk.u.rf(),
                                bvtx.rf(),
                                1.0,
                                acc.rm(),
                            );
                        }
                    }
                }
                (rb, acc)
            })
            .collect();
        for (rb, acc) in contribs {
            let mut ys = y.rb_mut().into_view(rb, 0, acc.rows(), d);
            ys.axpy(1.0, acc.rf());
        }
    }
}

impl h2_dense::LinOp for HMatrix {
    fn nrows(&self) -> usize {
        self.n()
    }

    fn ncols(&self) -> usize {
        self.n()
    }

    fn apply(&self, x: MatRef<'_>, mut y: MatMut<'_>) {
        y.fill(0.0);
        self.apply_partial(x, &mut y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2_dense::{gaussian_mat, LinOp};
    use h2_tree::{Admissibility, ClusterTree};

    #[test]
    fn partial_apply_matches_dense_assembly() {
        let pts = h2_tree::uniform_cube(64, 7);
        let tree = Arc::new(ClusterTree::build(&pts, 16));
        let part = Arc::new(Partition::build(&tree, Admissibility::Weak));
        let mut h = HMatrix::new(tree.clone(), part);

        // One dense diagonal leaf block and one low-rank sibling block.
        let leaf0 = tree.level(tree.leaf_level()).next().unwrap();
        let (b0, e0) = tree.range(leaf0);
        let m0 = e0 - b0;
        h.dense.insert((leaf0, leaf0), gaussian_mat(m0, m0, 1));
        let (s, t) = (1usize, 2usize); // root's children
        let (sb, se) = tree.range(s);
        let (tb, te) = tree.range(t);
        let (ms, mt, k) = (se - sb, te - tb, 3);
        h.lowrank.insert(
            (s, t),
            LowRankBlock {
                u: gaussian_mat(ms, k, 2),
                b: gaussian_mat(k, k, 3),
                v: gaussian_mat(mt, k, 4),
            },
        );

        // Dense assembly of the same operator.
        let mut dense = Mat::zeros(64, 64);
        {
            let d = &h.dense[&(leaf0, leaf0)];
            for i in 0..m0 {
                for j in 0..m0 {
                    dense[(b0 + i, b0 + j)] = d[(i, j)];
                }
            }
            let blk = &h.lowrank[&(s, t)];
            let ub = h2_dense::matmul(Op::NoTrans, Op::NoTrans, blk.u.rf(), blk.b.rf());
            let full = h2_dense::matmul(Op::NoTrans, Op::Trans, ub.rf(), blk.v.rf());
            for i in 0..ms {
                for j in 0..mt {
                    dense[(sb + i, tb + j)] = full[(i, j)];
                    dense[(tb + j, sb + i)] = full[(i, j)];
                }
            }
        }

        let x = gaussian_mat(64, 2, 5);
        let y = h.apply_mat(&x);
        let want = h2_dense::matmul(Op::NoTrans, Op::NoTrans, dense.rf(), x.rf());
        let mut diff = y;
        diff.axpy(-1.0, &want);
        assert!(diff.norm_max() < 1e-12);
    }

    #[test]
    fn equal_matrices_give_bit_identical_products() {
        // Each HMatrix hashes its block keys with its own seed, so two
        // matrices holding the same blocks iterate them in different orders;
        // the product must not depend on that.
        let n = 512;
        let pts = h2_tree::uniform_cube(n, 9);
        let tree = Arc::new(ClusterTree::build(&pts, 16));
        let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 1.0 }));
        let build = || {
            let mut h = HMatrix::new(tree.clone(), part.clone());
            for s in 0..part.far_of.len() {
                let size = |v: usize| tree.range(v).1 - tree.range(v).0;
                let seed = |t: usize| (s * part.far_of.len() + t) as u64;
                for &t in part.far_of[s].iter().filter(|&&t| s <= t) {
                    let block = LowRankBlock {
                        u: gaussian_mat(size(s), 3, 3 * seed(t)),
                        b: gaussian_mat(3, 3, 3 * seed(t) + 1),
                        v: gaussian_mat(size(t), 3, 3 * seed(t) + 2),
                    };
                    h.lowrank.insert((s, t), block);
                }
                for &t in part.near_of[s].iter().filter(|&&t| s <= t) {
                    h.dense
                        .insert((s, t), gaussian_mat(size(s), size(t), seed(t)));
                }
            }
            h
        };
        let x = gaussian_mat(n, 3, 5);
        let first = build();
        assert!(first.lowrank.len() > 50 && first.dense.len() > 50);
        let want = first.apply_mat(&x);
        for _ in 0..3 {
            let got = build().apply_mat(&x);
            let pairs = got.as_slice().iter().zip(want.as_slice());
            let differ = pairs.filter(|(a, b)| a.to_bits() != b.to_bits()).count();
            assert_eq!(differ, 0, "{differ} of {} entries differ", want.len());
        }
    }

    #[test]
    fn memory_counts_blocks() {
        let pts = h2_tree::uniform_cube(32, 8);
        let tree = Arc::new(ClusterTree::build(&pts, 8));
        let part = Arc::new(Partition::build(&tree, Admissibility::Weak));
        let mut h = HMatrix::new(tree, part);
        h.dense.insert((3, 3), Mat::zeros(8, 8));
        assert_eq!(h.memory_bytes(), 64 * 8);
        assert_eq!(h.max_rank(), 0);
    }
}
