//! Property tests for the solver layer: Krylov methods against dense LU
//! ground truth on random well-conditioned systems, and ULV structural
//! invariants across random HSS instances.

use h2_dense::{gaussian_mat, lu_factor, matmul, DenseOp, Mat, Op};
use h2_solve::{gmres_with, pcg_with, DiagJacobi, Identity, KrylovWorkspace};
use proptest::prelude::*;

fn spd_system(n: usize, seed: u64) -> (Mat, Vec<f64>) {
    let g = gaussian_mat(n, n, seed);
    let mut a = matmul(Op::NoTrans, Op::Trans, g.rf(), g.rf());
    for i in 0..n {
        a[(i, i)] += n as f64;
    }
    let b: Vec<f64> = (0..n)
        .map(|i| ((seed + i as u64) as f64 * 0.17).sin())
        .collect();
    (a, b)
}

fn unsym_system(n: usize, seed: u64) -> (Mat, Vec<f64>) {
    let mut a = gaussian_mat(n, n, seed);
    for i in 0..n {
        a[(i, i)] += 4.0 * (n as f64).sqrt();
    }
    let b: Vec<f64> = (0..n)
        .map(|i| 1.0 + ((seed + i as u64) as f64 * 0.29).cos())
        .collect();
    (a, b)
}

fn lu_solution(a: &Mat, b: &[f64]) -> Vec<f64> {
    let bm = Mat::from_vec(b.len(), 1, b.to_vec());
    lu_factor(a.clone()).unwrap().solve(&bm).as_slice().to_vec()
}

fn max_diff(x: &[f64], y: &[f64]) -> f64 {
    x.iter()
        .zip(y)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// CG solution matches LU on random SPD systems.
    #[test]
    fn cg_matches_lu(n in 5usize..40, seed in 0u64..500) {
        let (a, b) = spd_system(n, seed);
        let want = lu_solution(&a, &b);
        let op = DenseOp::new(a);
        let mut ws = KrylovWorkspace::new(n);
        let res = pcg_with(&op, &Identity { n }, &b, 10 * n + 50, 1e-12, &mut ws);
        prop_assert!(res.converged, "residual {}", res.relative_residual);
        let scale = want.iter().fold(0.0f64, |m, &v| m.max(v.abs())).max(1e-10);
        prop_assert!(max_diff(&res.x, &want) < 1e-7 * scale);
    }

    /// GMRES matches LU on random diagonally-dominant unsymmetric systems,
    /// with and without Jacobi preconditioning.
    #[test]
    fn gmres_matches_lu(n in 5usize..40, seed in 0u64..500, restart in 5usize..40) {
        let (a, b) = unsym_system(n, seed);
        let want = lu_solution(&a, &b);
        let op = DenseOp::new(a);
        let mut ws = KrylovWorkspace::new(n);
        for m in [&Identity { n } as &dyn h2_solve::Preconditioner,
                  &DiagJacobi::new(&op, n)] {
            let res = gmres_with(&op, m, &b, restart, 40 * n + 100, 1e-12, &mut ws);
            prop_assert!(res.converged, "residual {}", res.relative_residual);
            let scale = want.iter().fold(0.0f64, |mm, &v| mm.max(v.abs())).max(1e-10);
            prop_assert!(max_diff(&res.x, &want) < 1e-6 * scale);
        }
    }

    /// The residual history reported by CG is consistent: its last recorded
    /// value is (close to) the converged relative residual.
    #[test]
    fn cg_history_consistent(n in 5usize..30, seed in 0u64..200) {
        let (a, b) = spd_system(n, seed);
        let op = DenseOp::new(a);
        let mut ws = KrylovWorkspace::new(n);
        let res = pcg_with(&op, &Identity { n }, &b, 10 * n + 50, 1e-10, &mut ws);
        prop_assert!(!res.history.is_empty());
        let last = *res.history.last().unwrap();
        prop_assert!(last <= 1e-9 || !res.converged,
            "history end {last} vs converged {}", res.converged);
    }
}

// ---------------------------------------------------------------- ULV

mod ulv_props {
    use h2_core::{sketch_construct, SketchConfig};
    use h2_dense::{gaussian_mat, lu_factor, LinOp};
    use h2_kernels::{ConvectionKernel, ExponentialKernel, KernelMatrix, UnsymKernelMatrix};
    use h2_runtime::Runtime;
    use h2_solve::{UlvFactor, UlvSchedule};
    use h2_tree::{Admissibility, ClusterTree, Partition};
    use proptest::prelude::*;
    use std::sync::Arc;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// ULV solves the represented (shifted) HSS system to near machine
        /// precision across random sizes, leaf sizes, and correlation
        /// lengths.
        #[test]
        fn ulv_residual_machine_precision(
            n in 64usize..400,
            leaf in 8usize..48,
            l in 0.05f64..2.0,
            seed in 0u64..100,
        ) {
            let pts: Vec<[f64; 3]> =
                (0..n).map(|i| [i as f64 / n as f64, 0.0, 0.0]).collect();
            let tree = Arc::new(ClusterTree::build(&pts, leaf));
            let part = Arc::new(Partition::build(&tree, Admissibility::Weak));
            let km = KernelMatrix::new(ExponentialKernel { l }, tree.points.clone());
            let rt = Runtime::sequential();
            let cfg = SketchConfig {
                tol: 1e-9,
                initial_samples: 48,
                max_rank: 96,
                seed,
                ..Default::default()
            };
            let (mut hss, _) = sketch_construct(&km, &km, tree, part, &rt, &cfg);
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
            let b = gaussian_mat(n, 2, seed ^ 0xF00D);
            let x = ulv.solve(&b);
            let mut r = hss.apply_mat(&x);
            r.axpy(-1.0, &b);
            let rel = r.norm_fro() / b.norm_fro();
            prop_assert!(rel < 1e-9, "ULV residual {rel} at n={n} leaf={leaf} l={l}");
        }

        /// The LU-flavored (unsymmetric) ULV solves random weak-admissibility
        /// two-stream instances to near machine precision against a dense LU
        /// of the *extracted* compressed operator, and the batched per-level
        /// elimination stays within 1e-13 of the per-node reference.
        #[test]
        fn unsym_ulv_matches_dense_lu(
            n in 96usize..320,
            leaf in 16usize..48,
            seed in 0u64..100,
        ) {
            let pts: Vec<[f64; 3]> =
                (0..n).map(|i| [i as f64 / n as f64, 0.0, 0.0]).collect();
            let tree = Arc::new(ClusterTree::build(&pts, leaf));
            let part = Arc::new(Partition::build(&tree, Admissibility::Weak));
            let km = UnsymKernelMatrix::new(ConvectionKernel::default(), tree.points.clone());
            let rt = Runtime::sequential();
            let cfg = SketchConfig {
                tol: 1e-10,
                initial_samples: 48,
                max_rank: 96,
                seed,
                symmetric: false,
                ..Default::default()
            };
            let (mut hss, _) = sketch_construct(&km, &km, tree, part, &rt, &cfg);
            prop_assert!(!hss.is_symmetric());
            for i in 0..hss.dense.pairs.len() {
                let (s, t) = hss.dense.pairs[i];
                if s == t {
                    let blk = &mut hss.dense.blocks[i];
                    for j in 0..blk.rows() {
                        blk[(j, j)] += 3.0;
                    }
                }
            }
            let ulv = UlvFactor::new(&hss).unwrap();
            let b = gaussian_mat(n, 2, seed ^ 0xBEEF);
            let x = ulv.solve(&b);
            // Exactness on the compressed operator: dense LU of extraction.
            let dense = hss.to_dense();
            let want = lu_factor(dense).unwrap().solve(&b);
            let mut d = x.clone();
            d.axpy(-1.0, &want);
            let rel = d.norm_fro() / want.norm_fro().max(1e-300);
            prop_assert!(rel < 1e-12, "unsym ULV vs dense LU rel {rel} at n={n} leaf={leaf}");
            // Batched and per-node schedules agree.
            let pn = UlvFactor::with_schedule(&hss, UlvSchedule::PerNode, &rt).unwrap();
            let xp = pn.solve(&b);
            let mut dd = x;
            dd.axpy(-1.0, &xp);
            prop_assert!(dd.norm_fro() <= 1e-13 * xp.norm_fro().max(1e-300));
        }

        /// ULV of an f32-storage matrix is the exact factorization of the
        /// stored (demoted) operator: solve residuals against the
        /// represented system stay at machine precision even though the
        /// loose tolerance makes the norm-aware rule demote the coupling
        /// blocks aggressively (an HSS near field is diagonal only, and
        /// diagonal blocks stay f64).
        #[test]
        fn ulv_exact_on_f32_storage(
            n in 96usize..320,
            leaf in 16usize..48,
            seed in 0u64..100,
        ) {
            let pts: Vec<[f64; 3]> =
                (0..n).map(|i| [i as f64 / n as f64, 0.0, 0.0]).collect();
            let tree = Arc::new(ClusterTree::build(&pts, leaf));
            let part = Arc::new(Partition::build(&tree, Admissibility::Weak));
            let km = KernelMatrix::new(ExponentialKernel { l: 0.5 }, tree.points.clone());
            let rt = Runtime::sequential();
            let cfg = SketchConfig {
                tol: 1e-4,
                initial_samples: 48,
                max_rank: 96,
                seed,
                storage: h2_runtime::Precision::F32,
                ..Default::default()
            };
            let (mut hss, _) = sketch_construct(&km, &km, tree, part, &rt, &cfg);
            prop_assert!(
                hss.coupling.demoted_count() > 0,
                "loose tolerance must demote coupling blocks"
            );
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
            let b = gaussian_mat(n, 2, seed ^ 0xCAFE);
            let x = ulv.solve(&b);
            let mut r = hss.apply_mat(&x);
            r.axpy(-1.0, &b);
            let rel = r.norm_fro() / b.norm_fro();
            prop_assert!(rel < 1e-9, "f32-storage ULV residual {rel} at n={n} leaf={leaf}");
        }
    }
}
