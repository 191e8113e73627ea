//! Integration: construction → solve, across crates.
//!
//! The construction exists to feed fast arithmetic (paper §I); these tests
//! run complete compress-then-solve pipelines: Krylov iterations on H2
//! operators, ULV direct solves of HSS compressions of *frontal matrices*
//! (the multifrontal use case), and Woodbury solves of low-rank updates.

use h2sketch::dense::{gaussian_mat, lu_factor, DenseOp, LinOp, Mat};
use h2sketch::frontal::poisson_top_front;
use h2sketch::kernels::{ConvectionKernel, ExponentialKernel, KernelMatrix, UnsymKernelMatrix};
use h2sketch::matrix::LowRankUpdate;
use h2sketch::runtime::Runtime;
use h2sketch::sketch::{sketch_construct, SketchConfig};
use h2sketch::solve::{
    gmres_with, pcg_with, woodbury_solve, BlockJacobi, Identity, KrylovWorkspace, UlvFactor,
};
use h2sketch::tree::{uniform_cube, Admissibility, ClusterTree, Partition};
use std::sync::Arc;

/// `Kᵀ x`, allocated.
fn transpose_product(op: &dyn LinOp, x: &Mat) -> Mat {
    let mut y = Mat::zeros(op.ncols(), x.cols());
    op.apply_transpose(x.rf(), y.rm());
    y
}

/// CG on a compressed covariance operator converges and solves the kernel
/// system to the compression accuracy.
#[test]
fn pcg_on_h2_covariance() {
    let n = 2000;
    let pts = uniform_cube(n, 701);
    let tree = Arc::new(ClusterTree::build(&pts, 32));
    let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
    let km = KernelMatrix::new(ExponentialKernel::default(), tree.points.clone());
    let rt = Runtime::parallel();
    let cfg = SketchConfig {
        tol: 1e-8,
        initial_samples: 64,
        ..Default::default()
    };
    let (h2, _) = sketch_construct(&km, &km, tree.clone(), part, &rt, &cfg);

    let b: Vec<f64> = (0..n).map(|i| (0.02 * i as f64).sin()).collect();
    let bj = BlockJacobi::from_h2(&h2).unwrap();
    let res = pcg_with(&h2, &bj, &b, 800, 1e-9, &mut KrylovWorkspace::new(n));
    assert!(res.converged, "residual {}", res.relative_residual);

    // The H2 solution also solves the *exact* kernel system to roughly the
    // compression tolerance.
    let x = Mat::from_vec(n, 1, res.x.clone());
    let kx = km.apply_mat(&x);
    let mut r = 0.0f64;
    let mut bn = 0.0f64;
    for i in 0..n {
        r += (kx[(i, 0)] - b[i]).powi(2);
        bn += b[i] * b[i];
    }
    assert!(
        (r / bn).sqrt() < 1e-5,
        "exact-system residual {}",
        (r / bn).sqrt()
    );
}

/// GMRES solves an unsymmetric compressed system, and its solution solves
/// the exact kernel system.
#[test]
fn unsym_h2_gmres() {
    let n = 1200;
    let pts = uniform_cube(n, 702);
    let tree = Arc::new(ClusterTree::build(&pts, 16));
    let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
    let km = UnsymKernelMatrix::new(ConvectionKernel::default(), tree.points.clone());
    let rt = Runtime::parallel();
    let cfg = SketchConfig {
        tol: 1e-8,
        initial_samples: 80,
        symmetric: false,
        ..Default::default()
    };
    let (h2, _) = sketch_construct(&km, &km, tree.clone(), part, &rt, &cfg);

    let b: Vec<f64> = (0..n).map(|i| 1.0 + (0.05 * i as f64).cos()).collect();
    let mut ws = KrylovWorkspace::new(n);
    let g = gmres_with(&h2, &Identity { n }, &b, 40, 800, 1e-10, &mut ws);
    assert!(g.converged, "gmres residual {}", g.relative_residual);

    let x = Mat::from_vec(n, 1, g.x.clone());
    let kx = km.apply_mat(&x);
    let mut r = 0.0f64;
    let mut bn = 0.0f64;
    for i in 0..n {
        r += (kx[(i, 0)] - b[i]).powi(2);
        bn += b[i] * b[i];
    }
    assert!(
        (r / bn).sqrt() < 1e-5,
        "exact-system residual {}",
        (r / bn).sqrt()
    );
}

/// The multifrontal use case: compress a Poisson top-separator front with
/// the weak (HSS) pattern and ULV-solve it; validate against a dense solve.
#[test]
fn frontal_hss_ulv_solve() {
    let (front, points) = poisson_top_front(14, 7);
    let n = front.rows();
    let tree = Arc::new(ClusterTree::build(&points, 32));
    let part = Arc::new(Partition::build(&tree, Admissibility::Weak));
    // Operator in tree order.
    let perm = &tree.perm;
    let permuted = Mat::from_fn(n, n, |i, j| front[(perm[i], perm[j])]);
    let op = DenseOp::new(permuted.clone());

    let rt = Runtime::parallel();
    let cfg = SketchConfig {
        tol: 1e-10,
        initial_samples: 64,
        max_rank: 160,
        ..Default::default()
    };
    let (hss, _) = sketch_construct(&op, &op, tree, part, &rt, &cfg);
    let ulv = UlvFactor::new(&hss).expect("frontal matrices are SPD");

    let b = gaussian_mat(n, 2, 703);
    let x = ulv.solve(&b);
    let want = lu_factor(permuted).unwrap().solve(&b);
    let mut d = x;
    d.axpy(-1.0, &want);
    let rel = d.norm_fro() / want.norm_fro();
    assert!(rel < 1e-6, "frontal ULV vs dense solve rel {rel}");
}

/// Woodbury + ULV: solve a low-rank-updated HSS system without refactoring,
/// and cross-check against recompress-then-iterate.
#[test]
fn lowrank_update_woodbury_vs_recompression() {
    let n = 1024;
    let pts: Vec<[f64; 3]> = (0..n).map(|i| [i as f64 / n as f64, 0.0, 0.0]).collect();
    let tree = Arc::new(ClusterTree::build(&pts, 32));
    let wpart = Arc::new(Partition::build(&tree, Admissibility::Weak));
    let km = KernelMatrix::new(ExponentialKernel { l: 0.5 }, tree.points.clone());
    let rt = Runtime::parallel();
    let cfg = SketchConfig {
        tol: 1e-10,
        initial_samples: 64,
        max_rank: 128,
        ..Default::default()
    };
    let (mut hss, _) = sketch_construct(&km, &km, tree.clone(), wpart, &rt, &cfg);
    // Shift: K + 2I.
    for i in 0..hss.dense.pairs.len() {
        let (s, t) = hss.dense.pairs[i];
        if s == t {
            let blk = &mut hss.dense.blocks[i];
            for j in 0..blk.rows() {
                blk[(j, j)] += 2.0;
            }
        }
    }
    let ulv = UlvFactor::new(&hss).unwrap();

    let mut p = gaussian_mat(n, 6, 704);
    p.scale(0.1);
    let b = gaussian_mat(n, 1, 705);
    let solve_a = |rhs: h2sketch::dense::MatRef<'_>, mut out: h2sketch::dense::MatMut<'_>| {
        out.copy_from(ulv.solve(&rhs.to_mat()).rf())
    };
    let x = woodbury_solve(solve_a, &p, &p, &b).expect("nonsingular update");

    // Reference: iterate on the updated operator directly.
    let upd = LowRankUpdate::symmetric(&hss, p.clone());
    let mut ws = KrylovWorkspace::new(n);
    let res = pcg_with(&upd, &Identity { n }, b.as_slice(), 2000, 1e-12, &mut ws);
    assert!(res.converged);
    let mut dmax = 0.0f64;
    for i in 0..n {
        dmax = dmax.max((x[(i, 0)] - res.x[i]).abs());
    }
    assert!(dmax < 1e-7, "woodbury vs iterative disagreement {dmax}");
}

/// The ULV factor of the *unshifted* covariance HSS also works (the kernel
/// matrix is SPD), demonstrating direct inversion of a compressed kernel.
#[test]
fn unshifted_covariance_ulv() {
    let n = 768;
    let pts: Vec<[f64; 3]> = (0..n).map(|i| [i as f64 / n as f64, 0.0, 0.0]).collect();
    let tree = Arc::new(ClusterTree::build(&pts, 32));
    let part = Arc::new(Partition::build(&tree, Admissibility::Weak));
    // Short correlation length keeps the condition number moderate.
    let km = KernelMatrix::new(ExponentialKernel { l: 0.05 }, tree.points.clone());
    let rt = Runtime::parallel();
    let cfg = SketchConfig {
        tol: 1e-11,
        initial_samples: 64,
        max_rank: 128,
        ..Default::default()
    };
    let (hss, _) = sketch_construct(&km, &km, tree.clone(), part, &rt, &cfg);
    let ulv = UlvFactor::new(&hss).expect("SPD kernel HSS");
    let b = gaussian_mat(n, 1, 706);
    let x = ulv.solve(&b);
    let mut r = hss.apply_mat(&x);
    r.axpy(-1.0, &b);
    assert!(
        r.norm_fro() / b.norm_fro() < 1e-9,
        "residual {}",
        r.norm_fro() / b.norm_fro()
    );
}

/// Unsymmetric H2 persistence: bitwise roundtrip through the binary format.
#[test]
fn unsym_io_roundtrip() {
    let n = 600;
    let pts = uniform_cube(n, 707);
    let tree = Arc::new(ClusterTree::build(&pts, 16));
    let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
    let km = UnsymKernelMatrix::new(ConvectionKernel::default(), tree.points.clone());
    let rt = Runtime::parallel();
    let cfg = SketchConfig {
        tol: 1e-6,
        initial_samples: 48,
        symmetric: false,
        ..Default::default()
    };
    let (h2, _) = sketch_construct(&km, &km, tree, part, &rt, &cfg);

    let bytes = h2.to_bytes();
    let back = h2sketch::matrix::H2MatrixUnsym::from_bytes(&bytes).unwrap();
    back.validate().unwrap();
    let x = gaussian_mat(n, 2, 708);
    let y1 = h2.apply_mat(&x);
    let y2 = back.apply_mat(&x);
    let mut d = y1;
    d.axpy(-1.0, &y2);
    assert_eq!(
        d.norm_max(),
        0.0,
        "loaded unsym matvec must be bitwise identical"
    );
    let t1 = transpose_product(&h2, &x);
    let t2 = transpose_product(&back, &x);
    let mut dt = t1;
    dt.axpy(-1.0, &t2);
    assert_eq!(dt.norm_max(), 0.0);
    // Garbage rejection.
    assert!(h2sketch::matrix::H2MatrixUnsym::from_bytes(&bytes[..50]).is_err());
    assert!(h2sketch::matrix::H2MatrixUnsym::from_bytes(b"H2SKgarbage").is_err());
}
