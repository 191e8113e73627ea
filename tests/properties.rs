//! Property-based tests (proptest) over the core data structures and the
//! construction invariants.

use h2sketch::dense::{
    col_id, matmul, qr_factor, relative_error_2, row_id, svd, EntryAccess, LinOp, Mat, Op,
    Truncation,
};
use h2sketch::kernels::{ExponentialKernel, KernelMatrix};
use h2sketch::runtime::Runtime;
use h2sketch::sketch::{sketch_construct, SketchConfig};
use h2sketch::tree::{uniform_cube, Admissibility, ClusterTree, Partition};
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// QR reconstructs arbitrary small matrices.
    #[test]
    fn prop_qr_reconstructs(m in 1usize..24, n in 1usize..24, seed in 0u64..1000) {
        let a = h2sketch::dense::gaussian_mat(m, n, seed);
        let f = qr_factor(a.clone());
        let rec = matmul(Op::NoTrans, Op::NoTrans, f.q_thin().rf(), f.r().rf());
        let mut d = rec;
        d.axpy(-1.0, &a);
        prop_assert!(d.norm_max() < 1e-11 * a.norm_max().max(1.0));
    }

    /// Row ID: skeleton rows reproduce the matrix within the rank budget.
    #[test]
    fn prop_row_id_identity_on_skeleton(m in 2usize..20, n in 2usize..20, seed in 0u64..1000) {
        let a = h2sketch::dense::gaussian_mat(m, n, seed);
        let id = row_id(&a, Truncation::Relative(1e-13));
        // U(skel, :) must be the identity.
        for (p, &r) in id.skel.iter().enumerate() {
            for c in 0..id.rank() {
                let want = if c == p { 1.0 } else { 0.0 };
                prop_assert!((id.u[(r, c)] - want).abs() < 1e-12);
            }
        }
        // Full-rank ID of a random matrix reconstructs it.
        if id.rank() == m.min(n) {
            let rec = matmul(Op::NoTrans, Op::NoTrans, id.u.rf(), a.select_rows(&id.skel).rf());
            let mut d = rec;
            d.axpy(-1.0, &a);
            prop_assert!(d.norm_max() < 1e-8 * a.norm_max().max(1.0));
        }
    }

    /// Column ID skeleton indices are unique and within bounds.
    #[test]
    fn prop_col_id_skeleton_valid(m in 1usize..16, n in 1usize..16, seed in 0u64..1000) {
        let a = h2sketch::dense::gaussian_mat(m, n, seed);
        let id = col_id(a, Truncation::Relative(1e-10));
        let mut seen = std::collections::HashSet::new();
        for &s in &id.skel {
            prop_assert!(s < n);
            prop_assert!(seen.insert(s), "duplicate skeleton column");
        }
    }

    /// SVD singular values are non-negative and sorted; reconstruction holds.
    #[test]
    fn prop_svd_invariants(m in 1usize..16, n in 1usize..16, seed in 0u64..1000) {
        let a = h2sketch::dense::gaussian_mat(m, n, seed);
        let f = svd(&a);
        for w in f.s.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
        prop_assert!(f.s.iter().all(|&s| s >= 0.0));
        let mut d = f.reconstruct();
        d.axpy(-1.0, &a);
        prop_assert!(d.norm_max() < 1e-10 * a.norm_max().max(1.0));
    }

    /// Cluster trees are valid for arbitrary sizes and leaf sizes.
    #[test]
    fn prop_cluster_tree_valid(n in 1usize..800, leaf in 1usize..64, seed in 0u64..1000) {
        let pts = uniform_cube(n, seed);
        let tree = ClusterTree::build(&pts, leaf);
        prop_assert!(tree.validate().is_ok());
        prop_assert!(tree.max_leaf_size() <= leaf);
    }

    /// Partitions tile the matrix exactly once and are symmetric, for any
    /// admissibility parameter.
    #[test]
    fn prop_partition_complete(n in 32usize..600, eta in 0.3f64..1.5, seed in 0u64..1000) {
        let pts = uniform_cube(n, seed);
        let tree = ClusterTree::build(&pts, 16);
        let part = Partition::build(&tree, Admissibility::Strong { eta });
        prop_assert!(part.is_complete(&tree));
        prop_assert!(part.is_symmetric());
    }

    /// The far-field interval decomposition is exact for every node.
    #[test]
    fn prop_far_field_ranges(n in 64usize..500, seed in 0u64..1000) {
        let pts = uniform_cube(n, seed);
        let tree = ClusterTree::build(&pts, 16);
        let part = Partition::build(&tree, Admissibility::Strong { eta: 0.7 });
        for id in 0..tree.nodes.len() {
            let far = part.far_field_ranges(&tree, id);
            let far_len: usize = far.iter().map(|&(b, e)| e - b).sum();
            let inadm_len: usize = part.inadm_of[id].iter().map(|&b| tree.nodes[b].len()).sum();
            prop_assert_eq!(far_len + inadm_len, n);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Construction invariant: for random geometry seeds, the constructed H2
    /// matrix validates structurally and meets tolerance (the headline
    /// correctness property of Algorithm 1).
    #[test]
    fn prop_construction_meets_tolerance(seed in 0u64..100) {
        let pts = uniform_cube(1200, seed);
        let tree = Arc::new(ClusterTree::build(&pts, 16));
        let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
        prop_assume!(part.top_far_level(&tree).is_some());
        let km = KernelMatrix::new(ExponentialKernel { l: 0.2 }, tree.points.clone());
        let rt = Runtime::parallel();
        let cfg = SketchConfig { tol: 1e-5, initial_samples: 48, seed, ..Default::default() };
        let (h2, _) = sketch_construct(&km, &km, tree.clone(), part, &rt, &cfg);
        prop_assert!(h2.validate().is_ok());
        let err = relative_error_2(&km, &h2, 15, seed ^ 1);
        prop_assert!(err < 1e-4, "err {} at seed {}", err, seed);
    }

    /// Entry extraction agrees with the matvec representation on random
    /// index pairs.
    #[test]
    fn prop_entry_extraction_consistent(seed in 0u64..100) {
        let pts = uniform_cube(800, seed);
        let tree = Arc::new(ClusterTree::build(&pts, 16));
        let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
        prop_assume!(part.top_far_level(&tree).is_some());
        let km = KernelMatrix::new(ExponentialKernel { l: 0.2 }, tree.points.clone());
        let rt = Runtime::parallel();
        let cfg = SketchConfig { tol: 1e-7, initial_samples: 64, seed, ..Default::default() };
        let (h2, _) = sketch_construct(&km, &km, tree.clone(), part, &rt, &cfg);
        // Unit vector probes: column j of the operator equals extraction.
        let j = (seed as usize * 37) % 800;
        let mut e = Mat::zeros(800, 1);
        e[(j, 0)] = 1.0;
        let col = h2.apply_mat(&e);
        let rows: Vec<usize> = (0..800).step_by(61).collect();
        let block = h2.extract_block(&rows, &[j]);
        for (ii, &i) in rows.iter().enumerate() {
            prop_assert!((block[(ii, 0)] - col[(i, 0)]).abs() < 1e-10);
        }
        // And both approximate the kernel entry.
        prop_assert!((h2.entry(rows[1], j) - km.entry(rows[1], j)).abs() < 1e-4);
    }
}
