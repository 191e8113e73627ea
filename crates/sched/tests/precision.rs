//! Wire-precision acceptance tests: with the fabric set to f32 wire
//! precision every cross-device byte total must (a) still exactly equal
//! the extended simulator's prediction at the reduced width, per epoch and
//! in total, and (b) be exactly half of the f64 baseline — the byte
//! formulas are linear in the element width and every count is even. The
//! arithmetic is untouched by the wire setting, so outputs stay bitwise
//! identical across widths.

use h2_core::{level_specs, SketchConfig};
use h2_dense::gaussian_mat;
use h2_kernels::{ConvectionKernel, ExponentialKernel, KernelMatrix, UnsymKernelMatrix};
use h2_matrix::H2Matrix;
use h2_runtime::{DeviceModel, PipelineMode, Precision, Runtime};
use h2_sched::{
    compare_matvec_with_simulator, compare_with_simulator, shard_construct,
    shard_matvec_with_report, shard_ulv_solve_with_report, DeviceFabric,
};
use h2_solve::UlvFactor;
use h2_tree::{Admissibility, ClusterTree, Partition};
use std::sync::Arc;

const DEVICE_COUNTS: [usize; 3] = [1, 2, 4];

fn sym_problem(
    n: usize,
    leaf: usize,
    seed: u64,
) -> (
    Arc<ClusterTree>,
    Arc<Partition>,
    KernelMatrix<ExponentialKernel>,
) {
    let pts = h2_tree::uniform_cube(n, seed);
    let tree = Arc::new(ClusterTree::build(&pts, leaf));
    let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
    assert!(part.top_far_level(&tree).is_some(), "problem too small");
    let km = KernelMatrix::new(ExponentialKernel::default(), tree.points.clone());
    (tree, part, km)
}

fn cfg() -> SketchConfig {
    SketchConfig {
        initial_samples: 64,
        adaptive: false,
        ..Default::default()
    }
}

/// HSS-flavored problem for the solver arm (weak admissibility, 1-D line).
fn hss_matrix(n: usize, leaf: usize) -> H2Matrix {
    let pts: Vec<[f64; 3]> = (0..n).map(|i| [i as f64 / n as f64, 0.0, 0.0]).collect();
    let tree = Arc::new(ClusterTree::build(&pts, leaf));
    let part = Arc::new(Partition::build(&tree, Admissibility::Weak));
    let km = KernelMatrix::new(ExponentialKernel { l: 0.5 }, tree.points.clone());
    let rt = Runtime::parallel();
    let scfg = SketchConfig {
        tol: 1e-9,
        initial_samples: 64,
        max_rank: 96,
        ..Default::default()
    };
    let (mut h2, _) = h2_core::sketch_construct(&km, &km, tree, part, &rt, &scfg);
    // Diagonal shift for an invertible, well-conditioned operator.
    for i in 0..h2.dense.pairs.len() {
        let (s, t) = h2.dense.pairs[i];
        if s == t {
            let blk = &mut h2.dense.blocks[i];
            for j in 0..blk.rows() {
                blk[(j, j)] += 2.0;
            }
        }
    }
    h2
}

#[test]
fn construct_bytes_equal_simulator_at_both_widths() {
    let (tree, part, km) = sym_problem(1200, 16, 91);
    let model = DeviceModel::default();
    for devices in DEVICE_COUNTS {
        let mut totals = Vec::new();
        for wire in [Precision::F64, Precision::F32] {
            let fabric = DeviceFabric::new(devices);
            fabric.set_wire(wire);
            let (h2, _, report) =
                shard_construct(&fabric, &km, &km, tree.clone(), part.clone(), &cfg());
            assert_eq!(report.wire, wire);
            let specs = level_specs(&h2);
            let cmp = compare_with_simulator(&report, &specs, 64, &model);
            assert!(
                cmp.bytes_match(),
                "D={devices} wire={wire}: executor {} vs simulator {} bytes",
                cmp.measured_bytes,
                cmp.predicted_bytes
            );
            totals.push(report.total_comm_bytes());
        }
        if devices > 1 {
            assert!(totals[0] > 0, "D={devices}: expected cross-device traffic");
        }
        assert_eq!(
            totals[1] * 2,
            totals[0],
            "D={devices}: f32 wire must move exactly half the bytes"
        );
    }
}

#[test]
fn matvec_bytes_and_makespan_equal_simulator_at_both_widths() {
    let (tree, part, km) = sym_problem(1200, 16, 92);
    let rt = Runtime::parallel();
    let (sym, _) = h2_core::sketch_construct(&km, &km, tree, part, &rt, &cfg());
    let pts = h2_tree::uniform_cube(900, 95);
    let tree = Arc::new(ClusterTree::build(&pts, 16));
    let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
    let kmu = UnsymKernelMatrix::new(ConvectionKernel::default(), tree.points.clone());
    let (unsym, _) = h2_core::sketch_construct_unsym(&kmu, &kmu, tree, part, &rt, &cfg());
    let model = DeviceModel::default();
    for (h2, transpose) in [(&sym, false), (&sym, true), (&unsym, false), (&unsym, true)] {
        let x = gaussian_mat(h2.n(), 4, 93);
        for devices in DEVICE_COUNTS {
            for mode in [PipelineMode::Synchronous, PipelineMode::Pipelined] {
                let mut totals = Vec::new();
                let mut outputs = Vec::new();
                for wire in [Precision::F64, Precision::F32] {
                    let at = format!(
                        "n={} transpose={transpose} D={devices} {mode:?} wire={wire}",
                        h2.n()
                    );
                    let fabric = DeviceFabric::with_config(devices, mode, Default::default());
                    fabric.set_wire(wire);
                    let (y, report) = shard_matvec_with_report(&fabric, h2, &x, transpose);
                    let cmp = compare_matvec_with_simulator(&report, h2, 4, transpose, &model);
                    assert!(
                        cmp.bytes_match(),
                        "{at}: executor {} vs simulator {} bytes",
                        cmp.measured_bytes,
                        cmp.predicted_bytes
                    );
                    assert!(cmp.flops_rel_err() < 1e-12, "{at}: flop totals diverged");
                    // The executor ran the plan: every epoch's counts are the
                    // plan's, so one pricing function gives equal seconds.
                    let plan = h2_sched::simulate_matvec(h2, 4, devices, mode, wire, transpose);
                    assert_eq!(
                        plan.makespan(&model),
                        report.modeled_makespan(&model),
                        "{at}: makespan"
                    );
                    assert_eq!(report.epochs.len(), plan.epochs.len(), "{at}");
                    for (got, want) in report.epochs.iter().zip(plan.epochs.iter()) {
                        let at = format!("{at} epoch {}", want.label);
                        assert_eq!(got.label, want.label, "{at}");
                        assert_eq!(got.comm_bytes, want.comm_bytes(), "{at}: bytes");
                        assert_eq!(got.comm_messages, want.comm_messages(), "{at}: messages");
                        for (dev, d) in got.per_device.iter().enumerate() {
                            assert_eq!(
                                d.flops.to_bits(),
                                want.flops[dev].to_bits(),
                                "{at} dev {dev}: flops"
                            );
                            assert_eq!(d.launches, want.launches[dev], "{at} dev {dev}: launches");
                            assert_eq!(d.arena_peak, want.arena[dev], "{at} dev {dev}: arena");
                        }
                    }
                    totals.push(report.total_comm_bytes());
                    outputs.push(y);
                }
                assert_eq!(
                    totals[1] * 2,
                    totals[0],
                    "D={devices} {mode:?}: f32 wire must move exactly half the bytes"
                );
                let mut diff = outputs[0].clone();
                diff.axpy(-1.0, &outputs[1]);
                assert_eq!(
                    diff.norm_max(),
                    0.0,
                    "wire precision is accounting only: outputs must be bitwise equal"
                );
            }
        }
    }
}

#[test]
fn solve_bytes_equal_simulator_at_both_widths() {
    let h2 = hss_matrix(640, 32);
    let ulv = UlvFactor::new(&h2).unwrap();
    let b = gaussian_mat(h2.n(), 2, 94);
    let model = DeviceModel::default();
    for devices in DEVICE_COUNTS {
        let mut totals = Vec::new();
        let mut outputs = Vec::new();
        for wire in [Precision::F64, Precision::F32] {
            let fabric = DeviceFabric::new(devices);
            fabric.set_wire(wire);
            let (x, report) = shard_ulv_solve_with_report(&fabric, &ulv, &b);
            let cmp = h2_sched::compare_solve_with_simulator(&report, &ulv, 2, &model);
            assert!(
                cmp.bytes_match(),
                "D={devices} wire={wire}: executor {} vs plan {} bytes",
                cmp.measured_bytes,
                cmp.predicted_bytes
            );
            totals.push(report.total_comm_bytes());
            outputs.push(x);
        }
        if devices > 1 {
            assert!(totals[0] > 0, "D={devices}: expected sweep traffic");
        }
        assert_eq!(
            totals[1] * 2,
            totals[0],
            "D={devices}: f32 wire must move exactly half the sweep bytes"
        );
        let mut diff = outputs[0].clone();
        diff.axpy(-1.0, &outputs[1]);
        assert_eq!(diff.norm_max(), 0.0, "solve outputs must be bitwise equal");
    }
}

/// Wire precision survives a fabric reset (it is configuration, not
/// accounting state).
#[test]
fn wire_setting_survives_reset() {
    let fabric = DeviceFabric::new(2);
    assert_eq!(fabric.wire(), Precision::F64);
    fabric.set_wire(Precision::F32);
    fabric.reset();
    assert_eq!(fabric.wire(), Precision::F32);
}
