//! Integration tests spanning the whole workspace: geometry → tree →
//! partition → sketching construction → verification, for every application
//! of the paper and both backends.

use h2sketch::dense::{relative_error_2, DenseOp, EntryAccess, LinOp, Mat};
use h2sketch::kernels::{
    ExponentialKernel, GaussianKernel, HelmholtzKernel, KernelMatrix, Matern32Kernel,
};
use h2sketch::matrix::{direct_construct, DirectConfig, LowRankUpdate};
use h2sketch::runtime::{Backend, Runtime};
use h2sketch::sketch::{sketch_construct, SketchConfig};
use h2sketch::tree::{uniform_cube, uniform_sphere, Admissibility, ClusterTree, Partition};
use std::sync::Arc;

fn strong_setup(n: usize, leaf: usize, seed: u64) -> (Arc<ClusterTree>, Arc<Partition>) {
    let pts = uniform_cube(n, seed);
    let tree = Arc::new(ClusterTree::build(&pts, leaf));
    let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
    assert!(
        part.top_far_level(&tree).is_some(),
        "partition must have admissible blocks"
    );
    (tree, part)
}

/// Covariance pipeline with the exact kernel as both sampler and generator.
#[test]
fn covariance_pipeline_end_to_end() {
    let (tree, part) = strong_setup(2000, 16, 1);
    let km = KernelMatrix::new(ExponentialKernel { l: 0.2 }, tree.points.clone());
    let rt = Runtime::parallel();
    let cfg = SketchConfig {
        tol: 1e-6,
        initial_samples: 64,
        ..Default::default()
    };
    let (h2, stats) = sketch_construct(&km, &km, tree.clone(), part, &rt, &cfg);
    h2.validate().unwrap();
    assert!(stats.total_samples >= 64);
    let err = relative_error_2(&km, &h2, 20, 2);
    assert!(err < 1e-5, "covariance pipeline err {err}");
}

/// IE pipeline sampled through the *reference H2* operator, exactly like the
/// paper's experiments (sampler = fast H2 matvec, generator = kernel).
#[test]
fn ie_pipeline_with_h2_sampler() {
    let (tree, part) = strong_setup(2000, 16, 3);
    let km = KernelMatrix::new(HelmholtzKernel::paper(2000), tree.points.clone());
    let reference = direct_construct(
        &km,
        tree.clone(),
        part.clone(),
        &DirectConfig {
            tol: 1e-10,
            ..Default::default()
        },
    );
    let rt = Runtime::parallel();
    let cfg = SketchConfig {
        tol: 1e-6,
        initial_samples: 96,
        ..Default::default()
    };
    let (h2, _) = sketch_construct(&reference, &km, tree.clone(), part, &rt, &cfg);
    // Compare against the *kernel*, not the reference: both approximation
    // layers must stay within tolerance.
    let err = relative_error_2(&km, &h2, 20, 4);
    assert!(err < 1e-5, "IE pipeline err {err}");
}

/// The low-rank-update application end to end, verified against a dense sum.
#[test]
fn lowrank_update_pipeline() {
    let (tree, part) = strong_setup(1500, 16, 5);
    let km = KernelMatrix::new(ExponentialKernel { l: 0.2 }, tree.points.clone());
    let base = direct_construct(
        &km,
        tree.clone(),
        part.clone(),
        &DirectConfig {
            tol: 1e-10,
            ..Default::default()
        },
    );
    let mut p = h2sketch::dense::gaussian_mat(1500, 32, 6);
    p.scale(0.02);
    let updated = LowRankUpdate::symmetric(&base, p.clone());

    let rt = Runtime::parallel();
    let cfg = SketchConfig {
        tol: 1e-6,
        initial_samples: 96,
        ..Default::default()
    };
    let (recompressed, _) = sketch_construct(&updated, &updated, tree.clone(), part, &rt, &cfg);

    let mut want = Mat::from_fn(1500, 1500, |i, j| km.entry(i, j));
    let ppt = h2sketch::dense::matmul(
        h2sketch::dense::Op::NoTrans,
        h2sketch::dense::Op::Trans,
        p.rf(),
        p.rf(),
    );
    want.axpy(1.0, &ppt);
    let got = recompressed.to_dense();
    let mut d = got;
    d.axpy(-1.0, &want);
    let rel = d.norm_fro() / want.norm_fro();
    assert!(rel < 1e-5, "update pipeline err {rel}");
}

/// Frontal pipeline: multifrontal extraction → compression (paper Fig 6b).
#[test]
fn frontal_pipeline() {
    let (front, pts) = h2sketch::frontal::poisson_top_front(10, 32);
    let tree = Arc::new(ClusterTree::build(&pts, 16));
    let n = front.rows();
    let permuted = Mat::from_fn(n, n, |i, j| front[(tree.perm[i], tree.perm[j])]);
    let op = DenseOp::new(permuted);
    let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 1.0 }));
    let rt = Runtime::parallel();
    let cfg = SketchConfig {
        tol: 1e-8,
        initial_samples: 64,
        ..Default::default()
    };
    let (h2, _) = sketch_construct(&op, &op, tree.clone(), part, &rt, &cfg);
    let err = relative_error_2(&op, &h2, 20, 7);
    assert!(err < 1e-6, "frontal pipeline err {err}");
}

/// All four kernels construct successfully through the same pipeline.
#[test]
fn all_kernels_compress() {
    let (tree, part) = strong_setup(1200, 16, 8);
    let pts = tree.points.clone();
    let run = |op: &dyn LinOp, gen: &dyn EntryAccess| {
        let rt = Runtime::parallel();
        let cfg = SketchConfig {
            tol: 1e-5,
            initial_samples: 64,
            ..Default::default()
        };
        let (h2, _) = sketch_construct(op, gen, tree.clone(), part.clone(), &rt, &cfg);
        h2
    };
    let e = KernelMatrix::new(ExponentialKernel { l: 0.2 }, pts.clone());
    let g = KernelMatrix::new(GaussianKernel { l: 0.3 }, pts.clone());
    let m = KernelMatrix::new(Matern32Kernel { l: 0.3 }, pts.clone());
    let h = KernelMatrix::new(HelmholtzKernel::paper(1200), pts.clone());
    assert!(relative_error_2(&e, &run(&e, &e), 15, 9) < 1e-4);
    assert!(relative_error_2(&g, &run(&g, &g), 15, 10) < 1e-4);
    assert!(relative_error_2(&m, &run(&m, &m), 15, 11) < 1e-4);
    assert!(relative_error_2(&h, &run(&h, &h), 15, 12) < 1e-4);
}

/// Sphere-surface geometry (lower intrinsic dimension) also works and
/// compresses harder.
#[test]
fn sphere_geometry_pipeline() {
    let pts = uniform_sphere(2000, 13);
    let tree = Arc::new(ClusterTree::build(&pts, 16));
    let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
    let km = KernelMatrix::new(ExponentialKernel { l: 0.5 }, tree.points.clone());
    let rt = Runtime::parallel();
    let cfg = SketchConfig {
        tol: 1e-6,
        initial_samples: 64,
        ..Default::default()
    };
    let (h2, _) = sketch_construct(&km, &km, tree.clone(), part, &rt, &cfg);
    let err = relative_error_2(&km, &h2, 20, 14);
    assert!(err < 1e-5, "sphere pipeline err {err}");
}

/// Original-order matvec round-trips the permutation correctly.
#[test]
fn original_order_matvec() {
    let (tree, part) = strong_setup(1200, 16, 17);
    let km = KernelMatrix::new(ExponentialKernel { l: 0.2 }, tree.points.clone());
    let rt = Runtime::new(Backend::Parallel);
    let cfg = SketchConfig {
        tol: 1e-7,
        initial_samples: 64,
        ..Default::default()
    };
    let (h2, _) = sketch_construct(&km, &km, tree.clone(), part, &rt, &cfg);

    // Dense kernel in ORIGINAL ordering.
    let pts_orig = uniform_cube(1200, 17);
    let x = h2sketch::dense::gaussian_mat(1200, 2, 18);
    let y = h2.apply_original(&x);
    for probe in [0usize, 37, 613, 1199] {
        let mut want = 0.0;
        for j in 0..1200 {
            let r = h2sketch::tree::dist(&pts_orig[probe], &pts_orig[j]);
            let k = if r == 0.0 { 1.0 } else { (-r / 0.2_f64).exp() };
            want += k * x[(j, 0)];
        }
        let got = y[(probe, 0)];
        assert!(
            (got - want).abs() < 1e-4 * want.abs().max(1.0),
            "row {probe}: {got} vs {want}"
        );
    }
}

/// The paper's headline sampling claim (Fig. 5 labels): the bottom-up
/// algorithm needs O(1) random vectors — the same sample count at every
/// problem size — while top-down methods grow with N.
#[test]
fn sample_count_is_constant_in_n() {
    let samples_at = |n: usize| {
        let pts = h2sketch::tree::uniform_cube(n, 1000 + n as u64);
        let tree = Arc::new(ClusterTree::build(&pts, 16));
        let part = Arc::new(Partition::build(
            &tree,
            h2sketch::tree::Admissibility::Strong { eta: 0.7 },
        ));
        let km = h2sketch::kernels::KernelMatrix::new(
            h2sketch::kernels::ExponentialKernel::default(),
            tree.points.clone(),
        );
        let rt = h2sketch::runtime::Runtime::parallel();
        let cfg = h2sketch::sketch::SketchConfig {
            tol: 1e-6,
            initial_samples: 64,
            sample_block: 16,
            ..Default::default()
        };
        let (h2, stats) =
            h2sketch::sketch::sketch_construct(&km, &km, tree.clone(), part, &rt, &cfg);
        h2.validate().unwrap();
        stats.total_samples
    };
    let s1 = samples_at(1000);
    let s2 = samples_at(2000);
    let s3 = samples_at(4000);
    // Ranks of this kernel are size-independent, so the adaptive loop must
    // settle at (nearly) the same sample count at every N — the O(1)
    // property. Allow one adaptation block of slack.
    let max = s1.max(s2).max(s3);
    let min = s1.min(s2).min(s3);
    assert!(
        max - min <= 16,
        "sample counts {s1}, {s2}, {s3} must be N-independent"
    );
}
