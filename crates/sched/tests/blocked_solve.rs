//! Blocked multi-RHS sweep acceptance grid: for k ∈ {1, 3, 5, 8, 32, 67} RHS
//! columns, D ∈ {1, 2, 4} devices, both pipeline modes and both symmetry
//! regimes, the fabric-sharded blocked solve must be **bit-identical**
//! per column to a single-RHS solve of that column alone, and its report
//! must be its `plan_ulv_solve` schedule at that k — the multi-RHS
//! extension of the solver-arm plan equivalence (`solver_sweep.rs`).

use h2_core::{sketch_construct, SketchConfig};
use h2_dense::{gaussian_mat, Mat};
use h2_kernels::{ConvectionKernel, ExponentialKernel, KernelMatrix, UnsymKernelMatrix};
use h2_matrix::H2Matrix;
use h2_runtime::{PipelineMode, Runtime};
use h2_sched::{plan_ulv_solve, shard_ulv_solve_with_report, DeviceFabric};
use h2_solve::UlvFactor;
use h2_tree::{Admissibility, ClusterTree, Partition};
use std::sync::Arc;

fn line_points(n: usize) -> Vec<[f64; 3]> {
    (0..n).map(|i| [i as f64 / n as f64, 0.0, 0.0]).collect()
}

fn shift_diag(h2: &mut H2Matrix, sigma: f64) {
    for i in 0..h2.dense.pairs.len() {
        let (s, t) = h2.dense.pairs[i];
        if s == t {
            let blk = &mut h2.dense.blocks[i];
            for j in 0..blk.rows() {
                blk[(j, j)] += sigma;
            }
        }
    }
}

fn sym_hss(n: usize, leaf: usize) -> H2Matrix {
    let pts = line_points(n);
    let tree = Arc::new(ClusterTree::build(&pts, leaf));
    let part = Arc::new(Partition::build(&tree, Admissibility::Weak));
    let km = KernelMatrix::new(ExponentialKernel { l: 0.5 }, tree.points.clone());
    let rt = Runtime::parallel();
    let cfg = SketchConfig {
        tol: 1e-9,
        initial_samples: 64,
        max_rank: 96,
        ..Default::default()
    };
    let (mut h2, _) = sketch_construct(&km, &km, tree, part, &rt, &cfg);
    shift_diag(&mut h2, 2.0);
    h2
}

fn unsym_hss(n: usize, leaf: usize) -> H2Matrix {
    let pts = line_points(n);
    let tree = Arc::new(ClusterTree::build(&pts, leaf));
    let part = Arc::new(Partition::build(&tree, Admissibility::Weak));
    let km = UnsymKernelMatrix::new(ConvectionKernel::default(), tree.points.clone());
    let rt = Runtime::parallel();
    let cfg = SketchConfig {
        tol: 1e-10,
        initial_samples: 64,
        max_rank: 96,
        symmetric: false,
        ..Default::default()
    };
    let (mut h2, _) = sketch_construct(&km, &km, tree, part, &rt, &cfg);
    shift_diag(&mut h2, 3.0);
    h2
}

/// The full grid. Per-column references are in-process single-RHS solves
/// (`UlvFactor::solve` on one column); `solver_sweep.rs` pins the sharded
/// single-RHS path bit-identical to the in-process one, so equality here
/// extends the chain to "blocked sharded == k separate single-RHS solves"
/// at every grid point.
#[test]
fn blocked_sweep_grid_bit_identical_and_bytes_equal() {
    let sym = sym_hss(640, 32);
    let unsym = unsym_hss(512, 32);
    for (h2, n, tag) in [(&sym, 640usize, "sym"), (&unsym, 512usize, "unsym")] {
        let ulv = UlvFactor::new(h2).unwrap();
        for k in [1usize, 3, 5, 8, 32, 67] {
            let b = gaussian_mat(n, k, 0xB0 + k as u64);
            let refs: Vec<Mat> = (0..k)
                .map(|j| ulv.solve(&b.col_block(j, 1).to_mat()))
                .collect();
            for devices in [1usize, 2, 4] {
                for mode in [PipelineMode::Synchronous, PipelineMode::Pipelined] {
                    let fabric = match mode {
                        PipelineMode::Pipelined => DeviceFabric::pipelined(devices),
                        _ => DeviceFabric::new(devices),
                    };
                    let (x, report) = shard_ulv_solve_with_report(&fabric, &ulv, &b);
                    for (j, want) in refs.iter().enumerate() {
                        assert_eq!(
                            x.col_block(j, 1).to_mat().as_slice(),
                            want.as_slice(),
                            "{tag} k={k} D={devices} {mode:?}: column {j} diverged \
                             from its single-RHS solve"
                        );
                    }
                    let plan = plan_ulv_solve(&ulv, k, devices, mode, report.wire);
                    if let Err(e) = report.check(&plan, None) {
                        panic!("{tag} k={k} D={devices} {mode:?}: {e}");
                    }
                }
            }
        }
    }
}

/// The acceptance criterion verbatim: one 32-wide blocked sharded solve
/// vs 32 sequential single-RHS sharded solves, same device count, all
/// through the fabric.
#[test]
fn blocked_k32_matches_32_sequential_sharded_solves() {
    let h2 = sym_hss(640, 32);
    let ulv = UlvFactor::new(&h2).unwrap();
    let b = gaussian_mat(640, 32, 0xC0FE);
    let fabric = DeviceFabric::new(4);
    let x = shard_ulv_solve_with_report(&fabric, &ulv, &b).0;
    for j in 0..32 {
        let col = b.col_block(j, 1).to_mat();
        let single = DeviceFabric::new(4);
        let xj = shard_ulv_solve_with_report(&single, &ulv, &col).0;
        assert_eq!(
            xj.as_slice(),
            x.col_block(j, 1).to_mat().as_slice(),
            "column {j} of the blocked solve differs from its sequential solve"
        );
    }
}
