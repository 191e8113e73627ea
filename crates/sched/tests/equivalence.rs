//! Satellite acceptance tests: the sharded executor must reproduce the
//! single-device results bit for bit for device counts 1, 2, 3 and 7 in
//! both symmetry regimes — the construction and the matvec — including
//! partitions small enough that some devices get zero nodes, and a sharded
//! construction must execute its `plan_construct` schedule, adaptive rounds
//! included: the same epochs, counts and transfer records, hence the same
//! modeled makespan.

use h2_core::{plan_construct, sketch_construct, SketchConfig, SketchStats};
use h2_dense::{gaussian_mat, DenseOp, EntryAccess, LinOp, Mat};
use h2_kernels::{ConvectionKernel, ExponentialKernel, KernelMatrix, UnsymKernelMatrix};
use h2_matrix::H2Matrix;
use h2_runtime::{DeviceModel, Kernel, PipelineMode, Precision, Runtime, TransferKind};
use h2_sched::{shard_construct, shard_matvec, shard_matvec_with_report, DeviceFabric, ExecReport};
use h2_tree::{Admissibility, ClusterTree, Partition};
use std::sync::Arc;

/// `Kᵀ x`, allocated.
fn transpose_product(op: &dyn LinOp, x: &Mat) -> Mat {
    let mut y = Mat::zeros(op.ncols(), x.cols());
    op.apply_transpose(x.rf(), y.rm());
    y
}

const DEVICE_COUNTS: [usize; 4] = [1, 2, 3, 7];

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

fn unsym_problem(
    n: usize,
    leaf: usize,
    seed: u64,
) -> (
    Arc<ClusterTree>,
    Arc<Partition>,
    UnsymKernelMatrix<ConvectionKernel>,
) {
    let pts = h2_tree::uniform_cube(n, seed);
    let tree = Arc::new(ClusterTree::build(&pts, leaf));
    let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
    assert!(part.top_far_level(&tree).is_some(), "problem too small");
    let km = UnsymKernelMatrix::new(ConvectionKernel::default(), tree.points.clone());
    (tree, part, km)
}

fn cfg() -> SketchConfig {
    SketchConfig {
        initial_samples: 64,
        ..Default::default()
    }
}

/// [`cfg`] for the two-stream (unsymmetric) construction.
fn unsym_cfg() -> SketchConfig {
    SketchConfig {
        symmetric: false,
        ..cfg()
    }
}

/// Whether two H2 matrices give bit-identical products on a few probes,
/// transposed products included.
fn same_products(a: &H2Matrix, b: &H2Matrix, seed: u64) -> bool {
    let x = gaussian_mat(b.n(), 3, seed);
    same_bits(&a.apply_mat(&x), &b.apply_mat(&x))
        && same_bits(&transpose_product(a, &x), &transpose_product(b, &x))
}

/// Whether two H2 matrices store the same blocks at the same widths, with
/// the same bits — the near field's f32 demotion included.
fn same_storage(a: &H2Matrix, b: &H2Matrix) -> bool {
    [(&a.dense, &b.dense), (&a.coupling, &b.coupling)]
        .into_iter()
        .all(|(x, y)| {
            x.pairs == y.pairs
                && (0..x.len()).all(|i| {
                    let (p, q) = (x.block(i), y.block(i));
                    p.precision() == q.precision() && same_bits(&p.to_mat(), &q.to_mat())
                })
        })
        && a.memory_bytes() == b.memory_bytes()
}

/// Bit-for-bit equality of two matrices of the same shape.
fn same_bits(a: &Mat, b: &Mat) -> bool {
    let bits = |m: &Mat| {
        m.as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<u64>>()
    };
    (a.rows(), a.cols()) == (b.rows(), b.cols()) && bits(a) == bits(b)
}

/// N = 600 at leaf 16 is the smallest size whose strong partitions have an
/// inner processed level with sibling pairs straddling a chunk boundary at
/// three and seven devices.
fn assert_straddles(report: &ExecReport, devices: usize) {
    if devices == 3 || devices == 7 {
        assert!(
            report.bytes_of_kind(TransferKind::ChildGather) > 0,
            "D={devices}: sibling pairs must straddle devices"
        );
    }
}

#[test]
fn sym_construction_matches_single_device() {
    let (tree, part, km) = sym_problem(600, 16, 71);
    let rt = Runtime::parallel();
    let (reference, ref_stats) =
        sketch_construct(&km, &km, tree.clone(), part.clone(), &rt, &cfg());
    for devices in DEVICE_COUNTS {
        let fabric = DeviceFabric::new(devices);
        let (h2, stats, report) =
            shard_construct(&fabric, &km, &km, tree.clone(), part.clone(), &cfg());
        h2.validate().unwrap();
        assert_eq!(stats.total_samples, ref_stats.total_samples);
        assert!(
            same_products(&h2, &reference, 72),
            "D={devices}: the sharded construction must equal the in-process one bit for bit"
        );
        assert!(
            same_storage(&h2, &reference),
            "D={devices}: the sharded construction must store the same blocks at the same widths"
        );
        // One epoch per processed level.
        let top = part.top_far_level(&tree).unwrap();
        let levels = tree.leaf_level() - top + 1;
        assert_eq!(report.epochs.len(), levels, "D={devices}");
        assert_straddles(&report, devices);
        if devices == 1 {
            assert_eq!(
                report.total_comm_bytes(),
                0,
                "one device never communicates"
            );
        }
    }
}

#[test]
fn unsym_construction_matches_single_device() {
    let (tree, part, km) = unsym_problem(600, 16, 73);
    let rt = Runtime::parallel();
    let (reference, _) = sketch_construct(&km, &km, tree.clone(), part.clone(), &rt, &unsym_cfg());
    for devices in DEVICE_COUNTS {
        let fabric = DeviceFabric::new(devices);
        let (h2, _, report) =
            shard_construct(&fabric, &km, &km, tree.clone(), part.clone(), &unsym_cfg());
        h2.validate().unwrap();
        assert!(!h2.is_symmetric());
        assert!(
            same_products(&h2, &reference, 74),
            "D={devices}: the sharded unsym construction must equal the in-process one \
             bit for bit, transpose included"
        );
        assert!(
            same_storage(&h2, &reference),
            "D={devices}: unsym storage differs"
        );
        assert_straddles(&report, devices);
        if devices > 1 {
            assert!(
                report.total_comm_bytes() > 0,
                "D={devices}: two sharded streams must communicate"
            );
        }
    }
}

#[test]
fn sharded_matvec_matches_inprocess_sym_and_unsym() {
    let (tree, part, km) = sym_problem(1000, 16, 76);
    let rt = Runtime::parallel();
    let (sym, _) = sketch_construct(&km, &km, tree.clone(), part, &rt, &cfg());
    let (treeu, partu, kmu) = unsym_problem(900, 16, 77);
    let (unsym, _) = sketch_construct(&kmu, &kmu, treeu, partu, &rt, &unsym_cfg());

    for (h2, n) in [(&sym, 1000usize), (&unsym, 900usize)] {
        let x = gaussian_mat(n, 3, 78);
        for transpose in [false, true] {
            let want = if transpose {
                transpose_product(h2, &x)
            } else {
                h2.apply_mat(&x)
            };
            for devices in DEVICE_COUNTS {
                for mode in [PipelineMode::Synchronous, PipelineMode::Pipelined] {
                    for wire in [Precision::F64, Precision::F32] {
                        let fabric = DeviceFabric::with_config(devices, mode, Default::default());
                        fabric.set_wire(wire);
                        assert!(
                            same_bits(&shard_matvec(&fabric, h2, &x, transpose), &want),
                            "D={devices} transpose={transpose} {mode:?} {wire}: \
                             the sharded matvec must equal the in-process one bit for bit"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn zero_node_devices_are_harmless() {
    // A weak (HSS-style) partition processes levels all the way up to the
    // 2-node level: on 7 devices most chunks are empty there.
    let pts = h2_tree::uniform_cube(450, 79);
    let tree = Arc::new(ClusterTree::build(&pts, 16));
    let part = Arc::new(Partition::build(&tree, Admissibility::Weak));
    let km = KernelMatrix::new(ExponentialKernel { l: 2.0 }, tree.points.clone());
    let top = part.top_far_level(&tree).unwrap();
    // Some processed level must be narrower than 7 nodes for the test to
    // exercise the empty-chunk path.
    assert!(
        (top..=tree.leaf_level()).any(|l| tree.level_len(l) < 7),
        "test geometry must have a level narrower than the device count"
    );
    let rt = Runtime::parallel();
    let (reference, _) = sketch_construct(&km, &km, tree.clone(), part.clone(), &rt, &cfg());
    let fabric = DeviceFabric::new(7);
    let (h2, _, _) = shard_construct(&fabric, &km, &km, tree.clone(), part, &cfg());
    h2.validate().unwrap();
    assert!(
        same_products(&h2, &reference, 80),
        "zero-node devices changed the result"
    );
    let x = gaussian_mat(450, 2, 81);
    let want = h2.apply_mat(&x);
    assert!(same_bits(&shard_matvec(&fabric, &h2, &x, false), &want));
}

/// Acceptance: the run is its plan — every count and transfer record —
/// and the makespan (executor counts projected through the same
/// `DeviceModel`) equals the planned one exactly.
fn assert_executes_plan(h2: &H2Matrix, cfg: &SketchConfig, stats: &SketchStats, r: &ExecReport) {
    let plan = plan_construct(h2, cfg, stats, r.devices, r.mode, r.wire);
    if let Err(e) = r.check(&plan, None) {
        panic!("D={} {:?} {}: {e}", r.devices, r.mode, r.wire);
    }
    let model = DeviceModel::default();
    assert_eq!(r.modeled_makespan(&model), plan.makespan(&model));
}

#[test]
fn executor_accounting_matches_simulator_sym() {
    let (tree, part, km) = sym_problem(600, 16, 82);
    for devices in [1usize, 3] {
        let fabric = DeviceFabric::new(devices);
        let (h2, stats, report) =
            shard_construct(&fabric, &km, &km, tree.clone(), part.clone(), &cfg());
        assert_executes_plan(&h2, &cfg(), &stats, &report);
    }
}

#[test]
fn executor_accounting_matches_simulator_unsym() {
    let (tree, part, km) = unsym_problem(600, 16, 83);
    for devices in [2usize, 7] {
        let fabric = DeviceFabric::new(devices);
        let (h2, stats, report) =
            shard_construct(&fabric, &km, &km, tree.clone(), part.clone(), &unsym_cfg());
        assert_executes_plan(&h2, &cfg(), &stats, &report);
    }
}

/// Acceptance: a sharded construction executes its plan. For every regime
/// — symmetric, unsymmetric, the fixed-sample variant (`adaptive: false`),
/// a weak partition whose adaptive loop takes two rounds on some level, and
/// an all-dense partition — × device count × discipline × wire width,
/// [`ExecReport::check`] finds the report equal to its `plan_construct`
/// schedule, the measured makespan equals the planned one, and a one-device
/// plan's launches equal the kernel launches the runtime profile recorded.
#[test]
fn sharded_construct_executes_its_plan() {
    // N ≤ 1000 at leaf 16: η = 1.5 gives the strong partitions an inner
    // processed level (stacking and fetches issued ahead); the weak one reaches
    // the two-node level, narrower than seven devices.
    // Each sampler is the assembled dense operator: one GEMM per product.
    let build = |n: usize, seed: u64, adm: Admissibility| {
        let tree = Arc::new(ClusterTree::build(&h2_tree::uniform_cube(n, seed), 16));
        let part = Arc::new(Partition::build(&tree, adm));
        (tree, part)
    };
    let dense = |gen: &dyn EntryAccess, n: usize| {
        let all: Vec<usize> = (0..n).collect();
        DenseOp::new(gen.block_mat(&all, &all))
    };
    let (tree_s, part_s) = build(500, 86, Admissibility::Strong { eta: 1.5 });
    let km_s = KernelMatrix::new(ExponentialKernel::default(), tree_s.points.clone());
    let (tree_u, part_u) = build(500, 87, Admissibility::Strong { eta: 1.5 });
    let km_u = UnsymKernelMatrix::new(ConvectionKernel::default(), tree_u.points.clone());
    let (tree_w, part_w) = build(320, 88, Admissibility::Weak);
    let km_w = KernelMatrix::new(ExponentialKernel { l: 2.0 }, tree_w.points.clone());
    let (tree_d, part_d) = build(40, 89, Admissibility::Strong { eta: 0.7 });
    let km_d = KernelMatrix::new(ExponentialKernel::default(), tree_d.points.clone());
    let (op_s, op_u, op_w) = (dense(&km_s, 500), dense(&km_u, 500), dense(&km_w, 320));
    let op_d = dense(&km_d, 40);
    let fixed = SketchConfig {
        adaptive: false,
        ..cfg()
    };
    // Few initial samples in small blocks: the weak partition's upper
    // levels fail the convergence test and draw rounds.
    let rounds = SketchConfig {
        initial_samples: 32,
        sample_block: 16,
        ..cfg()
    };
    let model = DeviceModel::default();
    for regime in ["sym", "unsym", "fixed", "weak", "dense"] {
        for devices in DEVICE_COUNTS {
            for mode in [PipelineMode::Synchronous, PipelineMode::Pipelined] {
                for wire in [Precision::F64, Precision::F32] {
                    let ctx = format!("{regime} D={devices} {mode:?} {wire}");
                    let fabric = DeviceFabric::with_config(devices, mode, Default::default());
                    fabric.set_wire(wire);
                    let (tree, part) = match regime {
                        "unsym" => (tree_u.clone(), part_u.clone()),
                        "weak" => (tree_w.clone(), part_w.clone()),
                        "dense" => (tree_d.clone(), part_d.clone()),
                        _ => (tree_s.clone(), part_s.clone()),
                    };
                    let (cfg, (h2, stats, report)) = match regime {
                        "unsym" => (
                            cfg(),
                            shard_construct(&fabric, &op_u, &km_u, tree, part, &unsym_cfg()),
                        ),
                        "weak" => (
                            rounds,
                            shard_construct(&fabric, &op_w, &km_w, tree, part, &rounds),
                        ),
                        "dense" => (
                            cfg(),
                            shard_construct(&fabric, &op_d, &km_d, tree, part, &cfg()),
                        ),
                        "fixed" => (
                            fixed,
                            shard_construct(&fabric, &op_s, &km_s, tree, part, &fixed),
                        ),
                        _ => (
                            cfg(),
                            shard_construct(&fabric, &op_s, &km_s, tree, part, &cfg()),
                        ),
                    };
                    match regime {
                        "dense" => assert!(stats.rounds_per_level.is_empty(), "{ctx}"),
                        "weak" => assert!(
                            stats.rounds_per_level.iter().any(|&r| r >= 2),
                            "{ctx}: some level must take two rounds"
                        ),
                        _ => assert!(stats.rounds_per_level.len() >= 2, "{ctx}: inner levels"),
                    }
                    let plan = plan_construct(&h2, &cfg, &stats, devices, mode, wire);
                    if let Err(e) = report.check(&plan, None) {
                        panic!("{ctx}: {e}");
                    }
                    if devices != 2 && regime != "dense" {
                        // Two devices split a weak partition's sibling pairs
                        // cleanly; every other grid point communicates iff
                        // it has more than one device.
                        assert_eq!(devices > 1, plan.total_comm_bytes() > 0, "{ctx}: traffic");
                    }
                    assert_eq!(
                        report.modeled_makespan(&model),
                        plan.makespan(&model),
                        "{ctx}: makespan"
                    );
                    // The kernel sequence, pinned by the runtime profile every
                    // backend records: a one-device plan launches each kernel
                    // the engine did, less the prefix sums and transposes.
                    let launched = |k: Kernel| {
                        let named = stats.launches.iter().find(|(name, _)| *name == k.name());
                        named.map_or(0, |&(_, n)| n)
                    };
                    assert_eq!(
                        plan_construct(&h2, &cfg, &stats, 1, mode, wire).total_launches(),
                        stats.total_launches()
                            - launched(Kernel::PrefixSum)
                            - launched(Kernel::Transpose),
                        "{ctx}: planned vs profiled launches"
                    );
                }
            }
        }
    }
}

#[test]
fn matvec_report_shows_expected_traffic_shape() {
    let (tree, part, km) = sym_problem(1000, 16, 84);
    let rt = Runtime::parallel();
    let (h2, _) = sketch_construct(&km, &km, tree.clone(), part, &rt, &cfg());
    let x = gaussian_mat(1000, 2, 85);
    // One device: no communication at all.
    let f1 = DeviceFabric::new(1);
    let (_, r1) = shard_matvec_with_report(&f1, &h2, &x, false);
    assert_eq!(r1.total_comm_bytes(), 0);
    // Several devices: coupling fetches appear, and per-device busy time is
    // spread over more than one device.
    let f4 = DeviceFabric::new(4);
    let (_, r4) = shard_matvec_with_report(&f4, &h2, &x, false);
    assert!(r4.bytes_of_kind(TransferKind::OmegaFetch) > 0);
    let busy = r4.busy_per_device();
    assert!(
        busy.iter().filter(|b| !b.is_zero()).count() >= 2,
        "work must land on multiple devices"
    );
    // Work totals are device-invariant.
    let (fl1, fl4) = (r1.total_flops(), r4.total_flops());
    assert!(
        (fl1 - fl4).abs() < 1e-9 * fl1.max(1.0),
        "matvec work must be conserved: {fl1} vs {fl4}"
    );
}
