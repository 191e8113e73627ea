//! # h2-matrix
//!
//! The side-generic H2 matrix format and its operations:
//!
//! * [`H2Matrix`] — nested bases (leaf `U`, stacked transfers `E`) on a
//!   *row* side plus an optional independent *column* side `V` (absent for
//!   symmetric matrices, where `V_t = U_t` aliases the row side), one
//!   [`BlockStore`] type for coupling/dense blocks in both the
//!   unordered-symmetric and ordered-unsymmetric keying disciplines, and
//!   shared memory/rank statistics,
//! * O(N) matvec and transpose matvec as the [`h2_dense::LinOp`]
//!   implementation of [`H2Matrix`] (`apply`, `apply_transpose`,
//!   `apply_mat`), through one side-swapping implementation (the fast
//!   black-box samplers `K·Ω` and `Kᵀ·Ψ` of the two sketch streams),
//! * [entry/sub-block extraction](H2Matrix::extract_block) from the
//!   compressed representation (the `batchedGen` input of the low-rank
//!   update experiment),
//! * a [direct proxy-ID constructor](direct::direct_construct) standing in
//!   for H2Opus's entry-based construction (bootstraps reference operators),
//! * [`LowRankUpdate`] — `A + P Qᵀ` operators for the recompression
//!   experiment,
//! * a **storage precision tier**: every coupling/dense block carries a
//!   [`Precision`], and the norm-aware demotion rule
//!   ([`BlockStore::demote_pending`]) moves a block to f32 storage only
//!   when the f32 rounding error provably stays below the construction
//!   tolerance; a demoted block's f32 matrix is its
//!   only copy, read through the mixed GEMM (f32 storage, f64
//!   accumulation), and diagonal blocks always stay f64.
//!
//! [`H2MatrixUnsym`] survives as a type alias: the unsymmetric matrix *is*
//! an [`H2Matrix`] whose column side is stored.

pub mod direct;
pub mod entry;
pub mod format;
pub mod io;
pub mod lowrank;
pub mod matvec;
pub mod orthog;

pub use direct::{direct_construct, fill_blocks, DirectConfig};
pub use format::{BasisSide, BlockOp, BlockStore, H2Matrix, MemoryBreakdown, StoreLayout};
pub use h2_dense::Precision;
pub use lowrank::{LinOpEntry, LowRankUpdate};
pub use matvec::ApplyPhases;

/// An unsymmetric H2 matrix: the unified [`H2Matrix`] with its column side
/// stored (`col.is_some()`) and ordered block stores.
pub type H2MatrixUnsym = H2Matrix;

#[cfg(test)]
mod tests {
    use super::*;
    use h2_dense::{relative_error_2, EntryAccess, LinOp, Mat};
    use h2_kernels::{ExponentialKernel, HelmholtzKernel, KernelMatrix};
    use h2_tree::{Admissibility, ClusterTree, Partition};
    use std::sync::Arc;

    fn setup(
        n: usize,
        leaf: usize,
        eta: f64,
        seed: u64,
    ) -> (
        Arc<ClusterTree>,
        Arc<Partition>,
        KernelMatrix<ExponentialKernel>,
    ) {
        let pts = h2_tree::uniform_cube(n, seed);
        let tree = Arc::new(ClusterTree::build(&pts, leaf));
        let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta }));
        let km = KernelMatrix::new(ExponentialKernel::default(), tree.points.clone());
        (tree, part, km)
    }

    #[test]
    fn direct_construction_approximates_kernel() {
        let (tree, part, km) = setup(600, 32, 0.7, 80);
        let cfg = DirectConfig {
            tol: 1e-8,
            n_proxy: 120,
            ..Default::default()
        };
        let h2 = direct_construct(&km, tree.clone(), part, &cfg);
        h2.validate().unwrap();
        let dense = Mat::from_fn(600, 600, |i, j| km.entry(i, j));
        let rec = h2.to_dense();
        let mut d = rec;
        d.axpy(-1.0, &dense);
        let rel = d.norm_fro() / dense.norm_fro();
        assert!(rel < 1e-6, "direct construction rel error {rel}");
    }

    #[test]
    fn matvec_matches_extraction_and_dense() {
        let (tree, part, km) = setup(500, 16, 0.7, 81);
        let h2 = direct_construct(&km, tree.clone(), part, &DirectConfig::default());
        let x = h2_dense::gaussian_mat(500, 3, 82);
        let y_fast = h2.apply_mat(&x);
        let dense_h2 = h2.to_dense();
        let y_slow = h2_dense::matmul(
            h2_dense::Op::NoTrans,
            h2_dense::Op::NoTrans,
            dense_h2.rf(),
            x.rf(),
        );
        let mut d = y_fast;
        d.axpy(-1.0, &y_slow);
        // matvec and extraction must agree to machine precision: they read
        // the same representation.
        assert!(
            d.norm_max() < 1e-10 * dense_h2.norm_max().max(1.0),
            "{}",
            d.norm_max()
        );
        // and the representation approximates the kernel
        let e = relative_error_2(&km, &h2, 20, 83);
        assert!(e < 1e-6, "rel err {e}");
    }

    #[test]
    fn helmholtz_direct_construction() {
        let pts = h2_tree::uniform_cube(700, 84);
        let tree = Arc::new(ClusterTree::build(&pts, 32));
        let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
        let km = KernelMatrix::new(HelmholtzKernel::paper(700), tree.points.clone());
        let h2 = direct_construct(&km, tree.clone(), part, &DirectConfig::default());
        h2.validate().unwrap();
        let e = relative_error_2(&km, &h2, 20, 85);
        assert!(e < 1e-6, "rel err {e}");
    }

    #[test]
    fn entry_extraction_exact_on_dense_blocks() {
        let (tree, part, km) = setup(300, 16, 0.7, 86);
        let h2 = direct_construct(&km, tree.clone(), part.clone(), &DirectConfig::default());
        // Near-field entries are stored exactly.
        let leaf = tree.leaf_level();
        let first_leaf = tree.level(leaf).next().unwrap();
        let (b, e) = tree.range(first_leaf);
        for i in b..(b + 3).min(e) {
            for j in b..(b + 3).min(e) {
                assert_eq!(
                    h2.entry(i, j),
                    km.entry(i, j),
                    "diagonal block entries are exact"
                );
            }
        }
    }

    #[test]
    fn entry_extraction_accurate_on_far_blocks() {
        let (tree, part, km) = setup(400, 16, 0.7, 87);
        let h2 = direct_construct(&km, tree.clone(), part.clone(), &DirectConfig::default());
        // Pick an admissible leaf pair and compare extracted entries.
        let leaf = tree.leaf_level();
        let (s, t) = tree
            .level(leaf)
            .flat_map(|s| part.far_of[s].iter().map(move |&t| (s, t)))
            .next()
            .expect("some admissible leaf pair");
        let (sb, _) = tree.range(s);
        let (tb, _) = tree.range(t);
        for i in sb..sb + 3 {
            for j in tb..tb + 3 {
                let got = h2.entry(i, j);
                let want = km.entry(i, j);
                assert!(
                    (got - want).abs() < 1e-6,
                    "entry ({i},{j}): {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn weak_admissibility_hss_pattern_construction() {
        // The same machinery builds an HSS-style approximation with the weak
        // partition (used by the Fig. 6(b) baselines).
        let pts = h2_tree::uniform_cube(300, 88);
        let tree = Arc::new(ClusterTree::build(&pts, 32));
        let part = Arc::new(Partition::build(&tree, Admissibility::Weak));
        let km = KernelMatrix::new(ExponentialKernel { l: 2.0 }, tree.points.clone());
        let cfg = DirectConfig {
            tol: 1e-10,
            n_proxy: 250,
            max_rank: 128,
            seed: 7,
        };
        let h2 = direct_construct(&km, tree.clone(), part, &cfg);
        h2.validate().unwrap();
        let e = relative_error_2(&km, &h2, 20, 89);
        // Weak admissibility on 3D points has large ranks; with a smooth
        // kernel (l=2.0) it should still compress decently.
        assert!(e < 1e-4, "rel err {e}");
    }

    #[test]
    fn memory_grows_linearly() {
        // Compare sizes past the pre-asymptotic regime (at N=1000 the η=0.7
        // partition is still essentially all-dense). 4x the points must cost
        // clearly less than the 16x of a dense representation; the remaining
        // super-linearity is the still-growing sparsity constant.
        let mem_at = |n: usize| {
            let (tree, part, km) = setup(n, 32, 0.7, 90);
            let h2 = direct_construct(&km, tree, part, &DirectConfig::default());
            h2.memory_bytes()
        };
        // Measured: ~66 MB -> ~842 MB (12.8x for 4x points). The extra
        // factor over linear is the sparsity constant still growing toward
        // its η=0.7 geometric saturation (~343 near blocks/row in 3D) plus
        // new coupling levels; dense storage would be 16x. The asymptotic
        // O(N) slope is exercised at bench scale (fig6a harness).
        let m1 = mem_at(4000);
        let m2 = mem_at(16000);
        assert!(m2 < 14 * m1, "memory {m1} -> {m2} is quadratic-like");
    }

    #[test]
    fn lowrank_updated_operator_consistency() {
        let (tree, part, km) = setup(400, 32, 0.7, 91);
        let h2 = direct_construct(&km, tree.clone(), part, &DirectConfig::default());
        let p = h2_dense::gaussian_mat(400, 8, 92);
        let upd = LowRankUpdate::symmetric(&h2, p.clone());
        let x = h2_dense::gaussian_mat(400, 2, 93);
        let y = upd.apply_mat(&x);
        // reference: h2*x + p p^T x
        let mut want = h2.apply_mat(&x);
        let ptx = h2_dense::matmul(h2_dense::Op::Trans, h2_dense::Op::NoTrans, p.rf(), x.rf());
        h2_dense::gemm(
            h2_dense::Op::NoTrans,
            h2_dense::Op::NoTrans,
            1.0,
            p.rf(),
            ptx.rf(),
            1.0,
            want.rm(),
        );
        let mut d = y;
        d.axpy(-1.0, &want);
        assert!(d.norm_max() < 1e-11);
        // entry consistency
        let e_got = upd.entry(5, 300);
        let mut e_want = h2.entry(5, 300);
        for c in 0..8 {
            e_want += p[(5, c)] * p[(300, c)];
        }
        assert!((e_got - e_want).abs() < 1e-12);
    }

    #[test]
    fn rank_range_reported() {
        // Leaf size 16 keeps the tree deep enough that the eta = 0.7
        // partition has admissible pairs (leaf 32 at this N is all-dense).
        let (tree, part, km) = setup(800, 16, 0.7, 94);
        let h2 = direct_construct(&km, tree, part, &DirectConfig::default());
        assert!(
            h2.partition.top_far_level(&h2.tree).is_some(),
            "test geometry must have admissible pairs"
        );
        let (lo, hi) = h2.rank_range();
        assert!(lo > 0 && hi >= lo && hi <= 256, "rank range ({lo},{hi})");
        let per_level = h2.rank_stats_per_level();
        assert!(per_level.iter().any(|&(_, mx, _)| mx > 0));
    }
}

#[cfg(test)]
mod rank_zero_tests {
    use super::*;
    use h2_dense::{LinOp, Mat};
    use h2_tree::{Admissibility, ClusterTree, Partition};
    use std::sync::Arc;

    /// Regression: nodes can legitimately end up with rank 0 (their whole
    /// far field falls below the truncation threshold). The matvec and
    /// extraction paths must handle rank-0 children of based parents.
    #[test]
    fn rank_zero_children_are_harmless() {
        let pts = h2_tree::uniform_cube(600, 301);
        let tree = Arc::new(ClusterTree::build(&pts, 16));
        let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
        let km = h2_kernels::KernelMatrix::new(
            h2_kernels::ExponentialKernel { l: 0.01 }, // near-diagonal kernel
            tree.points.clone(),
        );
        // A very loose tolerance forces far-field blocks to vanish -> rank 0.
        let cfg = DirectConfig {
            tol: 0.5,
            n_proxy: 64,
            ..Default::default()
        };
        let mut h2 = direct_construct(&km, tree.clone(), part, &cfg);
        // Inject an explicit rank-0 leaf under a based parent to pin the
        // exact failure mode regardless of what the constructor produced.
        let leaf = tree.level(tree.leaf_level()).find(|&id| {
            tree.nodes[id]
                .parent
                .map(|p| h2.rank(p) > 0)
                .unwrap_or(false)
        });
        if let Some(leaf) = leaf {
            let parent = tree.nodes[leaf].parent.unwrap();
            let (c1, c2) = tree.nodes[parent].children.unwrap();
            let sibling = if leaf == c1 { c2 } else { c1 };
            // Zero out this leaf's basis; shrink the parent transfer to the
            // sibling's rows only.
            let k_sib = h2.rank(sibling);
            let k_par = h2.rank(parent);
            h2.basis[leaf] = Mat::zeros(tree.nodes[leaf].len(), 0);
            h2.skel[leaf] = Vec::new();
            let old = h2.basis[parent].clone();
            let off = if leaf == c1 { old.rows() - k_sib } else { 0 };
            h2.basis[parent] = old.view(off, 0, k_sib, k_par).to_mat();
            // Coupling blocks touching the rank-0 leaf become zero-dim,
            // exactly as the sketching constructor would produce them.
            let mut store = BlockStore::new();
            for i in 0..h2.coupling.pairs.len() {
                let (s, t) = h2.coupling.pairs[i];
                if s == leaf || t == leaf {
                    let r = if s == leaf {
                        0
                    } else {
                        h2.coupling.block(i).rows()
                    };
                    let c = if t == leaf {
                        0
                    } else {
                        h2.coupling.block(i).cols()
                    };
                    store.insert(s, t, Mat::zeros(r, c));
                } else {
                    store.insert(s, t, h2.coupling.block(i).to_mat());
                }
            }
            h2.coupling = store;
        }
        // These must not panic, whatever the rank pattern:
        let x = h2_dense::gaussian_mat(600, 2, 302);
        let y = h2.apply_mat(&x);
        assert!(y.norm_fro().is_finite());
        let rows: Vec<usize> = (0..600).step_by(37).collect();
        let b = h2.extract_block(&rows, &rows);
        assert!(b.norm_fro().is_finite());
    }
}
