//! Failure-injection and adversarial-input tests: degenerate geometries,
//! duplicate points, extreme parameters, and operators that stress the
//! construction's assumptions.

use h2sketch::dense::{relative_error_2, DenseOp, EntryAccess, LinOp, Mat};
use h2sketch::kernels::{ExponentialKernel, Kernel, KernelMatrix};
use h2sketch::runtime::Runtime;
use h2sketch::sketch::{sketch_construct, SketchConfig};
use h2sketch::tree::{uniform_cube, Admissibility, ClusterTree, Partition, Point};
use std::sync::Arc;

/// Duplicate points (zero pairwise distance) must not break clustering or
/// kernel evaluation (the diagonal convention handles r = 0).
#[test]
fn duplicate_points_survive() {
    let mut pts = uniform_cube(600, 70);
    for i in 0..100 {
        pts[i + 100] = pts[i]; // 100 exact duplicates
    }
    let tree = Arc::new(ClusterTree::build(&pts, 16));
    tree.validate().unwrap();
    let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
    assert!(part.is_complete(&tree));
    let km = KernelMatrix::new(ExponentialKernel { l: 0.2 }, tree.points.clone());
    let rt = Runtime::parallel();
    let cfg = SketchConfig {
        tol: 1e-5,
        initial_samples: 64,
        ..Default::default()
    };
    let (h2, _) = sketch_construct(&km, &km, tree.clone(), part, &rt, &cfg);
    let e = relative_error_2(&km, &h2, 15, 71);
    assert!(e < 1e-4, "duplicates err {e}");
}

/// Collinear (1-D degenerate) geometry: KD splits must still terminate and
/// the partition must be complete.
#[test]
fn collinear_points() {
    let pts: Vec<Point> = (0..500).map(|i| [i as f64 / 500.0, 0.0, 0.0]).collect();
    let tree = Arc::new(ClusterTree::build(&pts, 16));
    tree.validate().unwrap();
    let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
    assert!(part.is_complete(&tree));
    // 1-D geometry at strong admissibility has plenty of far field.
    assert!(part.top_far_level(&tree).is_some());
    let km = KernelMatrix::new(ExponentialKernel { l: 0.1 }, tree.points.clone());
    let rt = Runtime::sequential();
    let cfg = SketchConfig {
        tol: 1e-7,
        initial_samples: 48,
        ..Default::default()
    };
    let (h2, _) = sketch_construct(&km, &km, tree.clone(), part, &rt, &cfg);
    let e = relative_error_2(&km, &h2, 15, 72);
    assert!(e < 1e-6, "collinear err {e}");
}

/// All points identical: everything is one dense-ish cluster; construction
/// degenerates gracefully.
#[test]
fn coincident_cloud() {
    let pts: Vec<Point> = vec![[0.5, 0.5, 0.5]; 64];
    let tree = Arc::new(ClusterTree::build(&pts, 16));
    tree.validate().unwrap();
    let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
    assert!(part.is_complete(&tree));
    // All clusters coincide spatially: nothing is admissible.
    assert!(part.top_far_level(&tree).is_none());
    let km = KernelMatrix::new(ExponentialKernel { l: 0.2 }, tree.points.clone());
    let rt = Runtime::sequential();
    let (h2, stats) = sketch_construct(&km, &km, tree.clone(), part, &rt, &SketchConfig::default());
    assert_eq!(stats.total_samples, 0);
    // Dense-only representation is exact: all entries are diag or k(0)=diag.
    assert_eq!(h2.entry(3, 60), km.entry(3, 60));
}

/// A kernel with a heavy diagonal and negligible off-diagonal: ranks
/// collapse to ~zero everywhere and the result is still within tolerance.
#[test]
fn nearly_diagonal_operator() {
    #[derive(Clone, Copy)]
    struct Spike;
    impl Kernel for Spike {
        fn eval_r(&self, r: f64) -> f64 {
            1e-14 * (-r).exp()
        }
        fn diag(&self) -> f64 {
            1.0
        }
    }
    let pts = uniform_cube(900, 73);
    let tree = Arc::new(ClusterTree::build(&pts, 16));
    let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
    let km = KernelMatrix::new(Spike, tree.points.clone());
    let rt = Runtime::parallel();
    let cfg = SketchConfig {
        tol: 1e-6,
        initial_samples: 32,
        ..Default::default()
    };
    let (h2, _) = sketch_construct(&km, &km, tree.clone(), part, &rt, &cfg);
    // Far field is below tolerance: expect (near-)zero ranks.
    let (_, hi) = h2.rank_range();
    assert!(hi <= 4, "spike kernel rank {hi} should collapse");
    let e = relative_error_2(&km, &h2, 15, 74);
    assert!(e < 1e-5, "spike err {e}");
}

/// Indefinite (sign-flipping) symmetric operator: the construction makes no
/// SPD assumption and must still meet tolerance.
#[test]
fn indefinite_operator() {
    let n = 800;
    let pts = uniform_cube(n, 75);
    let tree = Arc::new(ClusterTree::build(&pts, 16));
    let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
    // Oscillatory kernel ⇒ indefinite matrix.
    #[derive(Clone, Copy)]
    struct Osc;
    impl Kernel for Osc {
        fn eval_r(&self, r: f64) -> f64 {
            (20.0 * r).cos() * (-r / 0.3).exp()
        }
        fn diag(&self) -> f64 {
            1.0
        }
    }
    let km = KernelMatrix::new(Osc, tree.points.clone());
    let rt = Runtime::parallel();
    let cfg = SketchConfig {
        tol: 1e-6,
        initial_samples: 96,
        ..Default::default()
    };
    let (h2, _) = sketch_construct(&km, &km, tree.clone(), part, &rt, &cfg);
    let e = relative_error_2(&km, &h2, 15, 76);
    assert!(e < 1e-5, "oscillatory err {e}");
}

/// Zero operator: everything must come out exactly zero, no NaNs.
#[test]
fn zero_operator() {
    let n = 400;
    let pts = uniform_cube(n, 77);
    let tree = Arc::new(ClusterTree::build(&pts, 16));
    let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
    let op = DenseOp::new(Mat::zeros(n, n));
    let rt = Runtime::sequential();
    let cfg = SketchConfig {
        tol: 1e-6,
        initial_samples: 16,
        ..Default::default()
    };
    let (h2, _) = sketch_construct(&op, &op, tree.clone(), part, &rt, &cfg);
    let x = h2sketch::dense::gaussian_mat(n, 2, 78);
    let y = h2.apply_mat(&x);
    assert_eq!(y.norm_max(), 0.0, "zero operator must stay exactly zero");
}

/// Single point: the smallest possible problem.
#[test]
fn single_point() {
    let pts = vec![[0.1, 0.2, 0.3]];
    let tree = Arc::new(ClusterTree::build(&pts, 16));
    let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
    let km = KernelMatrix::new(ExponentialKernel::default(), tree.points.clone());
    let rt = Runtime::sequential();
    let (h2, _) = sketch_construct(&km, &km, tree, part, &rt, &SketchConfig::default());
    assert_eq!(h2.entry(0, 0), 1.0);
}

/// Strongly clustered (blob) geometry: highly non-uniform densities stress
/// KD median splits and the admissibility condition.
#[test]
fn clustered_blob_geometry() {
    let pts = h2sketch::tree::clustered_blobs(1200, 5, 0.03, 72);
    let tree = Arc::new(ClusterTree::build(&pts, 16));
    tree.validate().unwrap();
    let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
    assert!(part.is_complete(&tree));
    let km = KernelMatrix::new(ExponentialKernel { l: 0.2 }, tree.points.clone());
    let rt = Runtime::parallel();
    let cfg = SketchConfig {
        tol: 1e-6,
        initial_samples: 64,
        ..Default::default()
    };
    let (h2, _) = sketch_construct(&km, &km, tree.clone(), part, &rt, &cfg);
    h2.validate().unwrap();
    let e = relative_error_2(&km, &h2, 15, 73);
    assert!(e < 1e-5, "blobs err {e}");
}

/// Extremely anisotropic box (1000:1 aspect): widest-axis splits must cope
/// and the construction stays accurate.
#[test]
fn anisotropic_geometry() {
    let pts = h2sketch::tree::anisotropic_box(1000, [100.0, 1.0, 0.1], 74);
    let tree = Arc::new(ClusterTree::build(&pts, 16));
    tree.validate().unwrap();
    let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
    assert!(part.is_complete(&tree));
    let km = KernelMatrix::new(ExponentialKernel { l: 20.0 }, tree.points.clone());
    let rt = Runtime::parallel();
    let cfg = SketchConfig {
        tol: 1e-6,
        initial_samples: 64,
        ..Default::default()
    };
    let (h2, _) = sketch_construct(&km, &km, tree.clone(), part, &rt, &cfg);
    let e = relative_error_2(&km, &h2, 15, 75);
    assert!(e < 1e-5, "anisotropic err {e}");
}

/// Helix (intrinsically 1-D curve in 3-D): strong admissibility should
/// yield small ranks despite the ambient dimension.
#[test]
fn helix_geometry_small_ranks() {
    let pts = h2sketch::tree::helix(1500, 5.0, 1.0, 4.0);
    let tree = Arc::new(ClusterTree::build(&pts, 16));
    let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
    let km = KernelMatrix::new(ExponentialKernel { l: 1.0 }, tree.points.clone());
    let rt = Runtime::parallel();
    let cfg = SketchConfig {
        tol: 1e-6,
        initial_samples: 64,
        ..Default::default()
    };
    let (h2, _) = sketch_construct(&km, &km, tree.clone(), part, &rt, &cfg);
    let e = relative_error_2(&km, &h2, 15, 76);
    assert!(e < 1e-5, "helix err {e}");
    let (_, hi) = h2.rank_range();
    assert!(hi <= 40, "curve geometry rank {hi} should stay small");
}

/// Sample block of 1: the adaptive loop in its smallest increments.
#[test]
fn sample_block_one() {
    let pts = uniform_cube(900, 77);
    let tree = Arc::new(ClusterTree::build(&pts, 16));
    let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
    let km = KernelMatrix::new(ExponentialKernel { l: 0.2 }, tree.points.clone());
    let rt = Runtime::parallel();
    let cfg = SketchConfig {
        tol: 1e-5,
        initial_samples: 4,
        sample_block: 1,
        max_samples: 256,
        ..Default::default()
    };
    let (h2, stats) = sketch_construct(&km, &km, tree.clone(), part, &rt, &cfg);
    assert!(stats.rounds > 0, "4 samples cannot suffice");
    let e = relative_error_2(&km, &h2, 15, 78);
    assert!(e < 1e-4, "block-1 err {e}");
}

/// Tiny leaves (size 4) produce deep trees; everything must still work.
#[test]
fn tiny_leaf_size() {
    let pts = uniform_cube(600, 79);
    let tree = Arc::new(ClusterTree::build(&pts, 4));
    tree.validate().unwrap();
    let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
    assert!(part.is_complete(&tree));
    let km = KernelMatrix::new(ExponentialKernel { l: 0.2 }, tree.points.clone());
    let rt = Runtime::parallel();
    let cfg = SketchConfig {
        tol: 1e-5,
        initial_samples: 48,
        ..Default::default()
    };
    let (h2, _) = sketch_construct(&km, &km, tree.clone(), part, &rt, &cfg);
    h2.validate().unwrap();
    let e = relative_error_2(&km, &h2, 15, 80);
    assert!(e < 1e-4, "leaf-4 err {e}");
}

/// Extreme admissibility parameters: eta = 0.3 (very strong, near-dense)
/// and eta = 1.4 (nearly weak) both produce valid, accurate compressions.
#[test]
fn admissibility_extremes() {
    let pts = uniform_cube(1200, 81);
    let tree = Arc::new(ClusterTree::build(&pts, 16));
    let km = KernelMatrix::new(ExponentialKernel { l: 0.2 }, tree.points.clone());
    for eta in [0.3, 1.4] {
        let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta }));
        assert!(part.is_complete(&tree), "eta={eta}");
        let rt = Runtime::parallel();
        let cfg = SketchConfig {
            tol: 1e-5,
            initial_samples: 96,
            max_rank: 256,
            ..Default::default()
        };
        let (h2, _) = sketch_construct(&km, &km, tree.clone(), part, &rt, &cfg);
        h2.validate().unwrap();
        let e = relative_error_2(&km, &h2, 15, 82);
        assert!(e < 1e-4, "eta={eta} err {e}");
    }
}

/// An operator whose sampler and entry evaluator disagree on purpose: the
/// construction trusts the entry evaluator for near/coupling blocks and the
/// sampler for bases, so a mismatch shows up as measured error. This guards
/// the *meaning* of the two black-box inputs (swapping them is a user bug
/// the library cannot repair, but it must not panic).
#[test]
fn inconsistent_inputs_do_not_panic() {
    let pts = uniform_cube(500, 83);
    let tree = Arc::new(ClusterTree::build(&pts, 16));
    let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
    let km_a = KernelMatrix::new(ExponentialKernel { l: 0.2 }, tree.points.clone());
    let km_b = KernelMatrix::new(ExponentialKernel { l: 0.4 }, tree.points.clone());
    let rt = Runtime::parallel();
    let cfg = SketchConfig {
        tol: 1e-6,
        initial_samples: 48,
        ..Default::default()
    };
    // Sampler from km_a, entries from km_b.
    let (h2, _) = sketch_construct(&km_a, &km_b, tree.clone(), part, &rt, &cfg);
    h2.validate().unwrap();
    let e_b = relative_error_2(&km_b, &h2, 10, 84);
    // The result is *some* valid H2 matrix; it should at least not be a
    // perfect match for the sampler (the inputs disagree).
    assert!(e_b.is_finite());
}
