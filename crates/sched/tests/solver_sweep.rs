//! Solver-sweep acceptance tests: the fabric-sharded ULV solve must
//! reproduce the in-process solve exactly for device counts 1, 2, 3, 4 and
//! 7 in both side layouts and both pipeline modes, and its execution report
//! must *be* its `plan_ulv_solve` schedule — every epoch's label, per-device
//! flops, launches, arena, bytes and transfer records — so bytes, flops and
//! the priced makespan equal the plan's exactly: the solver arm of the
//! plan-equivalence suite (asserted in CI like construction/matvec).

use h2_core::{sketch_construct, SketchConfig};
use h2_dense::gaussian_mat;
use h2_kernels::{ConvectionKernel, ExponentialKernel, KernelMatrix, UnsymKernelMatrix};
use h2_matrix::H2Matrix;
use h2_runtime::{DeviceModel, PipelineMode, Precision, Runtime, TransferKind};
use h2_sched::{
    plan_ulv_solve, shard_ulv_solve_with_report, DeviceFabric, ExecReport, FabricOp, LinkModel,
    UlvFabricPrecond,
};
use h2_solve::{gmres_with, pcg_with, Identity, KrylovWorkspace, UlvFactor};
use h2_tree::{Admissibility, ClusterTree, Partition};
use std::sync::Arc;

const DEVICE_COUNTS: [usize; 5] = [1, 2, 3, 4, 7];

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

/// Shifted symmetric HSS over a weak 1-D partition.
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

/// Shifted unsymmetric (two-stream) HSS with a convection kernel.
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

/// A 20-point problem under a 32-point leaf: the tree is one leaf
/// (`leaf_level == 0`), so the whole sweep is the root solve.
fn single_leaf() -> H2Matrix {
    let pts: Vec<[f64; 3]> = (0..20).map(|i| [i as f64, 0.0, 0.0]).collect();
    let tree = Arc::new(ClusterTree::build(&pts, 32));
    let part = Arc::new(Partition::build(&tree, Admissibility::Weak));
    let km = KernelMatrix::new(ExponentialKernel { l: 5.0 }, tree.points.clone());
    let rt = Runtime::sequential();
    let (mut h2, _) = sketch_construct(&km, &km, tree, part, &rt, &SketchConfig::default());
    shift_diag(&mut h2, 1.0);
    assert_eq!(h2.tree.leaf_level(), 0);
    h2
}

fn assert_bitwise_equal(got: &h2_dense::Mat, want: &h2_dense::Mat, what: &str) {
    assert_eq!(got.rows(), want.rows());
    assert_eq!(got.cols(), want.cols());
    let mut d = got.clone();
    d.axpy(-1.0, want);
    assert_eq!(d.norm_max(), 0.0, "{what}: sharded sweep diverged");
}

#[test]
fn sharded_sweep_matches_inprocess_sym_and_unsym() {
    let sym = sym_hss(640, 32);
    let unsym = unsym_hss(512, 32);
    for (h2, n, tag) in [(&sym, 640usize, "sym"), (&unsym, 512usize, "unsym")] {
        let ulv = UlvFactor::new(h2).unwrap();
        let b = gaussian_mat(n, 3, 71);
        let want = ulv.solve(&b);
        for devices in DEVICE_COUNTS {
            let fabric = DeviceFabric::new(devices);
            let got = shard_ulv_solve_with_report(&fabric, &ulv, &b).0;
            assert_bitwise_equal(&got, &want, &format!("{tag} D={devices}"));
        }
    }
}

/// Everything an executed sweep records is what its plan says
/// ([`ExecReport::check`]), every sweep transfer is read in the epoch that
/// issues it, and the priced makespans are equal, not merely close.
fn assert_report_is_plan(report: &ExecReport, ulv: &UlvFactor, nrhs: usize, what: &str) {
    let plan = plan_ulv_solve(ulv, nrhs, report.devices, report.mode, report.wire);
    if let Err(e) = report.check(&plan, None) {
        panic!("{what}: {e}");
    }
    for (i, e) in plan.epochs.iter().enumerate() {
        assert!(
            e.transfers.iter().all(|&(_, gates)| gates == i),
            "{what} '{}': every sweep transfer is read where issued",
            e.label
        );
    }
    let model = DeviceModel::default();
    assert_eq!(
        plan.makespan(&model),
        report.modeled_makespan(&model),
        "{what}: makespan"
    );
}

/// Run the sweep of `h2` over the grid D × both pipeline modes × both
/// wire widths × nrhs ∈ {1, 3}: every run is bit-identical to the
/// in-process solve and its report is its plan.
fn assert_sweeps_execute_their_plans(tag: &str, h2: &H2Matrix) {
    let ulv = UlvFactor::new(h2).unwrap();
    for nrhs in [1usize, 3] {
        let b = gaussian_mat(h2.n(), nrhs, 70 + nrhs as u64);
        let want = ulv.solve(&b);
        for devices in DEVICE_COUNTS {
            for mode in [PipelineMode::Synchronous, PipelineMode::Pipelined] {
                for wire in [Precision::F64, Precision::F32] {
                    let what = format!("{tag} nrhs={nrhs} D={devices} {mode:?} {wire}");
                    let fabric = DeviceFabric::with_config(devices, mode, LinkModel::default());
                    fabric.set_wire(wire);
                    let (got, report) = shard_ulv_solve_with_report(&fabric, &ulv, &b);
                    assert_bitwise_equal(&got, &want, &what);
                    assert_report_is_plan(&report, &ulv, nrhs, &what);
                }
            }
        }
    }
}

#[test]
fn sharded_sweep_executes_its_plan() {
    assert_sweeps_execute_their_plans("sym", &sym_hss(640, 32));
    assert_sweeps_execute_their_plans("unsym", &unsym_hss(512, 32));
}

/// A single-leaf tree (`leaf_level == 0`) is one root epoch on device 0,
/// and its sharded sweep still executes that plan exactly.
#[test]
fn single_leaf_sweep_is_one_root_epoch() {
    let h2 = single_leaf();
    let ulv = UlvFactor::new(&h2).unwrap();
    let p = plan_ulv_solve(&ulv, 2, 3, PipelineMode::Pipelined, Precision::F64);
    assert_eq!(p.epochs.len(), 1);
    assert_eq!(p.epochs[0].label, "ulv root");
    assert_eq!(p.epochs[0].launches, vec![1, 0, 0]);
    assert!(p.epochs[0].flops[0] > 0.0);
    assert_eq!(p.total_comm_bytes(), 0);
    assert_sweeps_execute_their_plans("single leaf", &h2);
}

#[test]
fn sharded_sweep_bytes_equal_simulator() {
    let sym = sym_hss(640, 32);
    let unsym = unsym_hss(512, 32);
    for (h2, n, tag) in [(&sym, 640usize, "sym"), (&unsym, 512usize, "unsym")] {
        let ulv = UlvFactor::new(h2).unwrap();
        let b = gaussian_mat(n, 4, 72);
        for devices in DEVICE_COUNTS {
            let fabric = DeviceFabric::new(devices);
            let (_, report) = shard_ulv_solve_with_report(&fabric, &ulv, &b);
            assert_report_is_plan(&report, &ulv, 4, &format!("{tag} D={devices}"));
            if devices == 1 {
                assert_eq!(
                    report.total_comm_bytes(),
                    0,
                    "one device never communicates"
                );
            } else {
                assert!(
                    report.bytes_of_kind(TransferKind::ChildGather) > 0,
                    "{tag} D={devices}: forward pass-up must move retained blocks"
                );
                assert!(
                    report.bytes_of_kind(TransferKind::PartialSum) > 0,
                    "{tag} D={devices}: backward distribution must move solutions"
                );
            }
        }
    }
}

/// The plan's shape and the properties any placement must keep: epochs
/// forward (leaf first), root, backward (root first); one device moves
/// nothing; work is conserved across device counts; every retained block
/// that crosses a boundary going up crosses it again coming down.
#[test]
fn ulv_plan_shapes_and_conservation() {
    let h2 = sym_hss(640, 32);
    let ulv = UlvFactor::new(&h2).unwrap();
    let leaf = h2.tree.leaf_level();
    let plan = |devices: usize| {
        plan_ulv_solve(&ulv, 3, devices, PipelineMode::Synchronous, Precision::F64)
    };
    let p1 = plan(1);
    let labels: Vec<String> = p1.epochs.iter().map(|e| e.label.clone()).collect();
    let want: Vec<String> = (1..=leaf)
        .rev()
        .map(|l| format!("ulv forward L{l}"))
        .chain(["ulv root".to_string()])
        .chain((1..=leaf).map(|l| format!("ulv backward L{l}")))
        .collect();
    assert_eq!(labels, want);
    for e in &p1.epochs {
        assert_eq!(e.levels.len(), 1, "{}: one level per epoch", e.label);
        assert_eq!(e.launches, vec![1], "{}: one launch", e.label);
    }
    assert_eq!(p1.total_comm_bytes(), 0, "one device moves nothing");
    for devices in [2usize, 3, 4, 7] {
        let p = plan(devices);
        assert_eq!(p.epochs.len(), p1.epochs.len());
        let rel = (p.total_flops() - p1.total_flops()).abs() / p1.total_flops();
        assert!(rel < 1e-12, "D={devices}: work is conserved ({rel:.2e})");
        let bytes = |backward: bool| -> u64 {
            p.epochs
                .iter()
                .filter(|e| e.label.starts_with("ulv backward") == backward)
                .map(|e| e.comm_bytes())
                .sum()
        };
        assert!(
            bytes(true) > 0,
            "D={devices}: split sibling pairs move blocks"
        );
        assert_eq!(bytes(false), bytes(true), "D={devices}: up == down");
        // The root solve runs on device 0 alone.
        let root = &p.epochs[leaf];
        assert_eq!(root.label, "ulv root");
        assert!(root.flops[0] > 0.0 && root.flops[1..].iter().all(|&f| f == 0.0));
    }
}

#[test]
fn pipelined_sweep_is_bit_identical_and_bytes_equal() {
    let h2 = sym_hss(640, 32);
    let ulv = UlvFactor::new(&h2).unwrap();
    let b = gaussian_mat(640, 2, 73);
    let want = ulv.solve(&b);
    for devices in [2usize, 7] {
        let fabric =
            DeviceFabric::with_config(devices, PipelineMode::Pipelined, LinkModel::default());
        let (got, report) = shard_ulv_solve_with_report(&fabric, &ulv, &b);
        let what = format!("pipelined D={devices}");
        assert_bitwise_equal(&got, &want, &what);
        assert_report_is_plan(&report, &ulv, 2, &what);
    }
}

#[test]
fn zero_node_devices_are_harmless_in_sweeps() {
    // Narrow upper levels on 7 devices: most chunks are empty there.
    let h2 = sym_hss(300, 16);
    let tree = &h2.tree;
    assert!(
        (0..=tree.leaf_level()).any(|l| tree.level_len(l) < 7),
        "test geometry must have a level narrower than the device count"
    );
    let ulv = UlvFactor::new(&h2).unwrap();
    let b = gaussian_mat(300, 2, 74);
    let want = ulv.solve(&b);
    let fabric = DeviceFabric::new(7);
    let got = shard_ulv_solve_with_report(&fabric, &ulv, &b).0;
    assert_bitwise_equal(&got, &want, "zero-node D=7");
}

#[test]
fn fabric_op_routes_krylov_matvecs_and_sweep_preconditions() {
    // GMRES on the fabric-sharded operator with the fabric-sharded ULV
    // sweep as preconditioner: the full solver stack on the fabric.
    let h2 = unsym_hss(512, 32);
    let ulv = UlvFactor::new(&h2).unwrap();
    let matvec_fabric = DeviceFabric::new(3);
    let sweep_fabric = DeviceFabric::new(2);
    let op = FabricOp::new(&matvec_fabric, &h2);
    let prec = UlvFabricPrecond::new(&sweep_fabric, &ulv);
    let b: Vec<f64> = (0..512).map(|i| (0.02 * i as f64).cos()).collect();
    let mut ws = KrylovWorkspace::new(512);
    let res = gmres_with(&op, &prec, &b, 30, 200, 1e-10, &mut ws);
    assert!(
        res.converged,
        "fabric GMRES residual {}",
        res.relative_residual
    );
    assert!(
        res.iterations <= 3,
        "exact-inverse preconditioning must converge almost immediately ({} its)",
        res.iterations
    );
    // The matvec fabric actually moved coupling traffic.
    let report = matvec_fabric.report("krylov tail");
    assert!(report.bytes_of_kind(TransferKind::OmegaFetch) > 0);

    // And a plain identity-preconditioned run agrees with the in-process
    // operator's solution.
    let res_plain = gmres_with(&h2, &Identity { n: 512 }, &b, 30, 400, 1e-10, &mut ws);
    let mut d = 0.0f64;
    for i in 0..512 {
        d = d.max((res.x[i] - res_plain.x[i]).abs());
    }
    assert!(d < 1e-6, "fabric and in-process solutions disagree by {d}");
}

#[test]
fn sweep_preconditioner_in_pcg_on_symmetric_operator() {
    let h2 = sym_hss(512, 32);
    let ulv = UlvFactor::new(&h2).unwrap();
    let fabric = DeviceFabric::new(2);
    let prec = UlvFabricPrecond::new(&fabric, &ulv);
    let b: Vec<f64> = (0..512).map(|i| (0.01 * i as f64).sin()).collect();
    let mut ws = KrylovWorkspace::new(512);
    let plain = pcg_with(&h2, &Identity { n: 512 }, &b, 400, 1e-10, &mut ws);
    let fast = pcg_with(&h2, &prec, &b, 400, 1e-10, &mut ws);
    assert!(fast.converged);
    assert!(
        fast.iterations < plain.iterations.max(2),
        "sweep precond {} its vs plain {}",
        fast.iterations,
        plain.iterations
    );
}
