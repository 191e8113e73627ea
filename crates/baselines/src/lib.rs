//! # h2-baselines
//!
//! The comparator algorithms of the paper's evaluation:
//!
//! * [`topdown_peel`] over a strong-admissibility partition — the
//!   ButterflyPACK-style sketched H construction of Levitt–Martinsson \[23\]
//!   with graph colouring (O(colors · d · log N) samples),
//! * [`hodlr_peel`] — the same peeling over a weak-admissibility partition:
//!   the HODLR route H2Opus's top-down algorithm takes, whose per-level
//!   ranks explode on 3-D geometry (the paper's 4386–18920 sample counts and
//!   OOM failures),
//! * [`hss_construct`] — Algorithm 1 run on a weak-admissibility partition,
//!   which *is* the Martinsson 2011 HSS construction the paper generalizes
//!   (Fig. 6(b) comparator),
//! * [`hodlr_compress`] — direct HODLR compression of a dense operator
//!   (Fig. 6(b) comparator).
//!
//! HODBF (butterfly-compressed HODLR) is **not** reproduced; a full
//! butterfly factorization is outside this reproduction's scope. This
//! module doc is the record of that omission.

pub mod aca;
pub mod hmatrix;
pub mod peel;

pub use aca::{aca_compress, AcaConfig, AcaStats};
pub use hmatrix::{HMatrix, LowRankBlock};
pub use peel::{topdown_peel, PeelConfig, PeelStats};

use h2_core::{sketch_construct, SketchConfig, SketchStats};
use h2_dense::{EntryAccess, LinOp};
use h2_matrix::H2Matrix;
use h2_runtime::Runtime;
use h2_tree::{Admissibility, ClusterTree, Partition};
use std::sync::Arc;

/// HSS construction: Algorithm 1 on the weak-admissibility (HODLR-pattern)
/// partition. This is exactly the bottom-up sketching construction of
/// Martinsson 2011 that the paper extends to strong admissibility.
pub fn hss_construct(
    sampler: &dyn LinOp,
    gen: &dyn EntryAccess,
    tree: Arc<ClusterTree>,
    rt: &Runtime,
    cfg: &SketchConfig,
) -> (H2Matrix, SketchStats) {
    let part = Arc::new(Partition::build(&tree, Admissibility::Weak));
    sketch_construct(sampler, gen, tree, part, rt, cfg)
}

/// HODLR-route top-down peeling: [`topdown_peel`] on the weak partition.
/// Reproduces the sample blow-up that the paper reports for H2Opus's
/// top-down construction on 3-D problems.
pub fn hodlr_peel(
    sampler: &dyn LinOp,
    gen: &dyn EntryAccess,
    tree: Arc<ClusterTree>,
    cfg: &PeelConfig,
) -> (HMatrix, PeelStats) {
    let part = Arc::new(Partition::build(&tree, Admissibility::Weak));
    topdown_peel(sampler, gen, tree, part, cfg)
}

/// Direct (non-sketched) HODLR compression of an operator with entry access:
/// every weak-admissible block is compressed independently by row/column IDs
/// of the explicitly evaluated block. Used for the frontal-matrix memory
/// comparison where the operator is a stored dense matrix.
pub fn hodlr_compress(gen: &dyn EntryAccess, tree: Arc<ClusterTree>, tol: f64) -> HMatrix {
    use h2_dense::cpqr::{row_id, Truncation};
    use rayon::prelude::*;
    let part = Arc::new(Partition::build(&tree, Admissibility::Weak));
    let mut h = HMatrix::new(tree.clone(), part.clone());
    let mut pairs = Vec::new();
    for s in 0..tree.nodes.len() {
        for &t in part.far_of[s].iter().filter(|&&t| s <= t) {
            pairs.push((s, t));
        }
    }
    let blocks: Vec<((usize, usize), LowRankBlock)> = pairs
        .par_iter()
        .map(|&(s, t)| {
            let (sb, se) = tree.range(s);
            let (tb, te) = tree.range(t);
            let rows: Vec<usize> = (sb..se).collect();
            let cols: Vec<usize> = (tb..te).collect();
            let full = gen.block_mat(&rows, &cols);
            let rule = Truncation::Relative(tol);
            let rid = row_id(&full, rule);
            let skel_rows: Vec<usize> = rid.skel.iter().map(|&r| sb + r).collect();
            let cid = row_id(&full.transpose(), rule);
            let skel_cols: Vec<usize> = cid.skel.iter().map(|&c| tb + c).collect();
            let b = gen.block_mat(&skel_rows, &skel_cols);
            (
                (s, t),
                LowRankBlock {
                    u: rid.u,
                    b,
                    v: cid.u,
                },
            )
        })
        .collect();
    for (k, v) in blocks {
        h.lowrank.insert(k, v);
    }
    // Dense diagonal leaves.
    for s in tree.level(tree.leaf_level()) {
        let (sb, se) = tree.range(s);
        let rows: Vec<usize> = (sb..se).collect();
        h.dense.insert((s, s), gen.block_mat(&rows, &rows));
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2_dense::{relative_error_2, DenseOp, EntryAccess, Mat};
    use h2_kernels::{ExponentialKernel, KernelMatrix};

    #[test]
    fn hss_baseline_accurate_on_smooth_kernel() {
        let pts = h2_tree::uniform_cube(600, 130);
        let tree = Arc::new(ClusterTree::build(&pts, 32));
        let km = KernelMatrix::new(ExponentialKernel { l: 3.0 }, tree.points.clone());
        let rt = Runtime::parallel();
        let cfg = SketchConfig {
            tol: 1e-8,
            initial_samples: 64,
            max_rank: 256,
            ..Default::default()
        };
        let (hss, stats) = hss_construct(&km, &km, tree.clone(), &rt, &cfg);
        assert!(stats.total_samples >= 64);
        let e = relative_error_2(&km, &hss, 20, 131);
        assert!(e < 1e-6, "HSS rel err {e}");
    }

    #[test]
    fn hodlr_compress_dense_reconstructs() {
        // 1-D geometry: the setting where weak admissibility genuinely
        // compresses (for 3-D points its ranks are large — that is the whole
        // point of Fig. 6(b)).
        let pts: Vec<[f64; 3]> = (0..512).map(|i| [i as f64 / 512.0, 0.0, 0.0]).collect();
        let tree = Arc::new(ClusterTree::build(&pts, 32));
        let km = KernelMatrix::new(ExponentialKernel { l: 0.5 }, tree.points.clone());
        let dense = Mat::from_fn(512, 512, |i, j| km.entry(i, j));
        let op = DenseOp::new(dense.clone());
        let h = hodlr_compress(&op, tree.clone(), 1e-9);
        let e = relative_error_2(&op, &h, 20, 133);
        assert!(e < 1e-6, "HODLR rel err {e}");
        assert!(
            h.memory_bytes() < dense.memory_bytes(),
            "no compression achieved"
        );
    }

    #[test]
    fn hodlr_ranks_blow_up_in_3d_but_not_1d() {
        // The mechanism behind Fig. 6(b) and the H2Opus sample explosion:
        // weak-admissible blocks of 3-D kernels have much larger ranks than
        // 1-D ones at the same size and tolerance.
        let n = 512;
        let pts1d: Vec<[f64; 3]> = (0..n).map(|i| [i as f64 / n as f64, 0.0, 0.0]).collect();
        let pts3d = h2_tree::uniform_cube(n, 135);
        let rank_of = |pts: &[[f64; 3]]| {
            let tree = Arc::new(ClusterTree::build(pts, 32));
            let km = KernelMatrix::new(ExponentialKernel { l: 0.5 }, tree.points.clone());
            let dense = Mat::from_fn(n, n, |i, j| km.entry(i, j));
            let op = DenseOp::new(dense);
            hodlr_compress(&op, tree, 1e-9).max_rank()
        };
        let r1 = rank_of(&pts1d);
        let r3 = rank_of(&pts3d);
        assert!(
            r3 > 3 * r1,
            "3-D HODLR rank {r3} should dwarf 1-D rank {r1}"
        );
    }

    /// The headline comparison of Fig. 5: bottom-up Algorithm 1 uses O(1)
    /// sample vectors while top-down peeling pays per level.
    #[test]
    fn bottom_up_uses_fewer_samples_than_peeling() {
        let pts = h2_tree::uniform_cube(1500, 134);
        let tree = Arc::new(ClusterTree::build(&pts, 16));
        let part = Arc::new(h2_tree::Partition::build(
            &tree,
            h2_tree::Admissibility::Strong { eta: 0.7 },
        ));
        let km = KernelMatrix::new(ExponentialKernel::default(), tree.points.clone());
        let reference = h2_matrix::direct_construct(
            &km,
            tree.clone(),
            part.clone(),
            &h2_matrix::DirectConfig {
                tol: 1e-8,
                ..Default::default()
            },
        );

        let rt = Runtime::parallel();
        let cfg = SketchConfig {
            tol: 1e-4,
            initial_samples: 32,
            ..Default::default()
        };
        let (_, bu_stats) =
            sketch_construct(&reference, &km, tree.clone(), part.clone(), &rt, &cfg);

        let pcfg = PeelConfig {
            tol: 1e-4,
            ..Default::default()
        };
        let (_, td_stats) = topdown_peel(&reference, &km, tree.clone(), part, &pcfg);

        assert!(
            td_stats.total_samples > 2 * bu_stats.total_samples,
            "peeling {} should need well over bottom-up {}",
            td_stats.total_samples,
            bu_stats.total_samples
        );
    }
}
