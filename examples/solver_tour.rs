//! Solving linear systems with compressed operators — a tour of h2-solve.
//!
//! The paper motivates H2 construction with fast downstream arithmetic
//! (multifrontal solvers, Schur-complement updates) and names H2 inversion
//! as its follow-up work. This example covers the solver layer built on the
//! construction:
//!
//! 1. block-Jacobi-preconditioned CG on a strongly-admissible H2 covariance
//!    operator,
//! 2. a ULV direct factorization of a weak-admissibility (HSS) compression,
//! 3. that same (loose) ULV used as a *preconditioner* for CG on the exact
//!    operator,
//! 4. a Woodbury solve for a low-rank-updated operator.
//!
//! ```sh
//! cargo run --release --example solver_tour
//! ```

use h2sketch::dense::{DenseOp, EntryAccess, LinOp, Mat};
use h2sketch::kernels::{ExponentialKernel, KernelMatrix};
use h2sketch::runtime::Runtime;
use h2sketch::sketch::{sketch_construct, SketchConfig};
use h2sketch::solve::{
    pcg_with, woodbury_solve, BlockJacobi, Identity, KrylovWorkspace, UlvFactor,
};
use h2sketch::tree::{uniform_cube, Admissibility, ClusterTree, Partition};
use std::sync::Arc;

fn main() {
    // ---------------------------------------------------------------
    // 1. PCG on a strong-admissibility H2 operator (3-D covariance).
    // ---------------------------------------------------------------
    let n = 4096;
    let points = uniform_cube(n, 99);
    let tree = Arc::new(ClusterTree::build(&points, 64));
    let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
    let km = KernelMatrix::new(ExponentialKernel { l: 0.2 }, tree.points.clone());
    let rt = Runtime::parallel();
    let cfg = SketchConfig {
        tol: 1e-8,
        initial_samples: 64,
        ..Default::default()
    };
    let (h2, _) = sketch_construct(&km, &km, tree.clone(), part, &rt, &cfg);

    let b: Vec<f64> = (0..n).map(|i| (0.01 * i as f64).sin()).collect();
    // One Krylov workspace serves every solve below; it resizes itself
    // when the problem size changes.
    let mut ws = KrylovWorkspace::new(n);
    let plain = pcg_with(&h2, &Identity { n }, &b, 500, 1e-8, &mut ws);
    let bj = BlockJacobi::from_h2(&h2).expect("diagonal blocks nonsingular");
    let prec = pcg_with(&h2, &bj, &b, 500, 1e-8, &mut ws);
    println!("== PCG on H2 covariance (N = {n}) ==");
    println!(
        "  identity precond : {:3} iterations, residual {:.2e}",
        plain.iterations, plain.relative_residual
    );
    println!(
        "  block-Jacobi     : {:3} iterations, residual {:.2e}",
        prec.iterations, prec.relative_residual
    );

    // ---------------------------------------------------------------
    // 2. ULV direct solve of an HSS (weak-admissibility) compression.
    //    1-D geometry: the setting where weak admissibility compresses.
    // ---------------------------------------------------------------
    let n1 = 4096;
    let pts1: Vec<[f64; 3]> = (0..n1).map(|i| [i as f64 / n1 as f64, 0.0, 0.0]).collect();
    let tree1 = Arc::new(ClusterTree::build(&pts1, 64));
    let part1 = Arc::new(Partition::build(&tree1, Admissibility::Weak));
    let km1 = KernelMatrix::new(ExponentialKernel { l: 0.5 }, tree1.points.clone());
    let cfg1 = SketchConfig {
        tol: 1e-10,
        initial_samples: 64,
        max_rank: 128,
        ..Default::default()
    };
    let (mut hss, _) = sketch_construct(&km1, &km1, tree1.clone(), part1.clone(), &rt, &cfg1);
    // Shift the diagonal (K + 2I): comfortably nonsingular SPD system.
    for i in 0..hss.dense.pairs.len() {
        let (s, t) = hss.dense.pairs[i];
        if s == t {
            let blk = &mut hss.dense.blocks[i];
            for j in 0..blk.rows() {
                blk[(j, j)] += 2.0;
            }
        }
    }
    let t0 = std::time::Instant::now();
    let ulv = UlvFactor::new(&hss).expect("ULV factorization");
    let t_factor = t0.elapsed();
    let bm = Mat::from_fn(n1, 1, |i, _| (0.02 * i as f64).cos());
    let t1 = std::time::Instant::now();
    let x = ulv.solve(&bm);
    let t_solve = t1.elapsed();
    let mut r = hss.apply_mat(&x);
    r.axpy(-1.0, &bm);
    println!("\n== ULV direct solve of HSS (N = {n1}) ==");
    println!(
        "  factor: {:.1} ms, solve: {:.2} ms, root system: {}",
        t_factor.as_secs_f64() * 1e3,
        t_solve.as_secs_f64() * 1e3,
        ulv.root_size()
    );
    println!(
        "  representation residual: {:.2e}",
        r.norm_fro() / bm.norm_fro()
    );

    // ---------------------------------------------------------------
    // 3. Loose ULV as a preconditioner for the exact operator.
    // ---------------------------------------------------------------
    let n2 = 1024;
    let pts2: Vec<[f64; 3]> = (0..n2).map(|i| [i as f64 / n2 as f64, 0.0, 0.0]).collect();
    let tree2 = Arc::new(ClusterTree::build(&pts2, 32));
    let part2 = Arc::new(Partition::build(&tree2, Admissibility::Weak));
    let km2 = KernelMatrix::new(ExponentialKernel { l: 0.5 }, tree2.points.clone());
    let mut dense = Mat::from_fn(n2, n2, |i, j| km2.entry(i, j));
    for i in 0..n2 {
        dense[(i, i)] += 0.1;
    }
    let exact = DenseOp::new(dense);
    let cfg2 = SketchConfig {
        tol: 1e-4,
        initial_samples: 48,
        ..Default::default()
    };
    let (hss2, _) = sketch_construct(&exact, &exact, tree2, part2, &rt, &cfg2);
    let ulv2 = UlvFactor::new(&hss2).expect("ULV");
    let b2: Vec<f64> = (0..n2).map(|i| 1.0 + (0.03 * i as f64).sin()).collect();
    let it_plain = pcg_with(&exact, &Identity { n: n2 }, &b2, 1000, 1e-10, &mut ws);
    let it_prec = pcg_with(&exact, &ulv2, &b2, 1000, 1e-10, &mut ws);
    println!("\n== Loose HSS+ULV as preconditioner (N = {n2}, mildly regularized) ==");
    println!("  plain CG  : {:4} iterations", it_plain.iterations);
    println!(
        "  ULV-CG    : {:4} iterations, residual {:.2e}",
        it_prec.iterations, it_prec.relative_residual
    );

    // ---------------------------------------------------------------
    // 4. Woodbury solve for a low-rank-updated operator.
    // ---------------------------------------------------------------
    let p = h2sketch::dense::gaussian_mat(n1, 8, 7);
    let mut pscaled = p;
    pscaled.scale(0.05);
    let solve_a = |rhs: h2sketch::dense::MatRef<'_>, mut out: h2sketch::dense::MatMut<'_>| {
        out.copy_from(ulv.solve(&rhs.to_mat()).rf())
    };
    let xw = woodbury_solve(solve_a, &pscaled, &pscaled, &bm).expect("capacitance nonsingular");
    // Residual against (K_H2 + P Pᵀ).
    let mut rw = hss.apply_mat(&xw);
    let ptx = h2sketch::dense::matmul(
        h2sketch::dense::Op::Trans,
        h2sketch::dense::Op::NoTrans,
        pscaled.rf(),
        xw.rf(),
    );
    h2sketch::dense::gemm(
        h2sketch::dense::Op::NoTrans,
        h2sketch::dense::Op::NoTrans,
        1.0,
        pscaled.rf(),
        ptx.rf(),
        1.0,
        rw.rm(),
    );
    rw.axpy(-1.0, &bm);
    println!("\n== Woodbury solve of (K + P Pᵀ) x = b, rank-8 update ==");
    println!("  residual: {:.2e}", rw.norm_fro() / bm.norm_fro());
    println!("\nOK");
}
