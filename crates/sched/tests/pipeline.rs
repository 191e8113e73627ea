//! Pipelined == synchronous equivalence: the overlapped schedule must
//! reproduce the fork-join results **bit-identically** — construction and
//! matvec, device counts 1/2/3/7, both symmetry regimes, the
//! weak-admissibility partition where devices get zero nodes, and a stress
//! run that randomizes prefetch completion order through the injected
//! transfer-delay hook. Traffic totals must also be invariant across the
//! two schedules (the pipelined fabric issues the *same* descriptors,
//! earlier), and the pipelined makespan projection must equal the planned
//! one.

use h2_core::{plan_construct, SketchConfig};
use h2_dense::{gaussian_mat, LinOp, Mat};
use h2_kernels::{ConvectionKernel, ExponentialKernel, KernelMatrix, UnsymKernelMatrix};
use h2_runtime::{bsr_gemm, BsrBlock, BsrPattern, DeviceModel, FetchPlanner, Runtime, VarBatch};
use h2_sched::{
    shard_construct, shard_matvec, sharded_runtime, DeviceFabric, ExecReport, LinkModel,
    PipelineMode, Precision, TransferKind,
};
use h2_tree::{Admissibility, ClusterTree, Partition};
use std::sync::Arc;
use std::time::Duration;

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

fn assert_same_traffic(sync: &ExecReport, pipe: &ExecReport) {
    assert_eq!(
        sync.total_comm_bytes(),
        pipe.total_comm_bytes(),
        "pipelining must not change the byte total"
    );
    for kind in [
        TransferKind::OmegaFetch,
        TransferKind::ChildGather,
        TransferKind::PartialSum,
    ] {
        assert_eq!(
            sync.bytes_of_kind(kind),
            pipe.bytes_of_kind(kind),
            "pipelining must not change {} bytes",
            kind.name()
        );
    }
    assert_eq!(
        sync.total_comm_messages(),
        pipe.total_comm_messages(),
        "pipelining must not change the message count"
    );
    let (fs, fp) = (sync.total_flops(), pipe.total_flops());
    assert!(
        (fs - fp).abs() <= 1e-9 * fs.max(1.0),
        "pipelining must not change the modeled work: {fs} vs {fp}"
    );
}

/// Exact-equality probe: both constructions must be bitwise the same, so
/// their matvec outputs on a shared probe must be bitwise equal.
fn assert_h2_identical(a: &h2_matrix::H2Matrix, b: &h2_matrix::H2Matrix, n: usize, seed: u64) {
    let x = gaussian_mat(n, 3, seed);
    assert_eq!(
        a.apply_mat(&x),
        b.apply_mat(&x),
        "construction results must be bit-identical"
    );
}

#[test]
fn pipelined_construction_bit_identical_sym() {
    // Small, but still with an inner processed level that fetches, and with
    // sibling pairs split across chunks at D = 3 and 7.
    let (tree, part, km) = sym_problem(560, 16, 91);
    for devices in DEVICE_COUNTS {
        let sync = DeviceFabric::new(devices);
        let (h2s, st_s, rep_s) =
            shard_construct(&sync, &km, &km, tree.clone(), part.clone(), &cfg());
        let pipe = DeviceFabric::pipelined(devices);
        let (h2p, st_p, rep_p) =
            shard_construct(&pipe, &km, &km, tree.clone(), part.clone(), &cfg());
        assert_eq!(st_s.total_samples, st_p.total_samples);
        assert_eq!(st_s.rounds, st_p.rounds);
        assert_h2_identical(&h2s, &h2p, 560, 92);
        assert_same_traffic(&rep_s, &rep_p);
    }
}

#[test]
fn pipelined_construction_bit_identical_unsym() {
    // As for the symmetric test: small, with an inner fetching level and
    // chunk-straddling sibling pairs.
    let (tree, part, km) = unsym_problem(700, 16, 93);
    for devices in DEVICE_COUNTS {
        let sync = DeviceFabric::new(devices);
        let (h2s, _, rep_s) =
            shard_construct(&sync, &km, &km, tree.clone(), part.clone(), &unsym_cfg());
        let pipe = DeviceFabric::pipelined(devices);
        let (h2p, _, rep_p) =
            shard_construct(&pipe, &km, &km, tree.clone(), part.clone(), &unsym_cfg());
        assert_h2_identical(&h2s, &h2p, 700, 94);
        // The transpose product must also coincide exactly.
        let x = gaussian_mat(700, 2, 95);
        assert_eq!(transpose_product(&h2s, &x), transpose_product(&h2p, &x));
        assert_same_traffic(&rep_s, &rep_p);
    }
}

#[test]
fn pipelined_matvec_bit_identical() {
    let (tree, part, km) = sym_problem(1000, 16, 96);
    let sync1 = DeviceFabric::new(1);
    let (sym, _, _) = shard_construct(&sync1, &km, &km, tree, part, &cfg());
    let (treeu, partu, kmu) = unsym_problem(900, 16, 97);
    let (unsym, _, _) = shard_construct(&sync1, &kmu, &kmu, treeu, partu, &unsym_cfg());

    for (h2, n) in [(&sym, 1000usize), (&unsym, 900usize)] {
        let x = gaussian_mat(n, 3, 98);
        for transpose in [false, true] {
            for devices in DEVICE_COUNTS {
                let sync = DeviceFabric::new(devices);
                let want: Mat = shard_matvec(&sync, h2, &x, transpose);
                let rep_s = sync.report("matvec");
                let pipe = DeviceFabric::pipelined(devices);
                let got: Mat = shard_matvec(&pipe, h2, &x, transpose);
                let rep_p = pipe.report("matvec");
                assert_eq!(
                    got, want,
                    "D={devices} transpose={transpose}: pipelined matvec must be bit-identical"
                );
                assert_same_traffic(&rep_s, &rep_p);
            }
        }
    }
}

#[test]
fn pipelined_zero_node_devices_are_harmless() {
    // Weak (HSS-style) partition: levels narrow to 2 nodes, so most of the
    // 7 devices own nothing there — empty queues and zero-work chunks must
    // flow through the pipelined schedule unchanged.
    let pts = h2_tree::uniform_cube(450, 99);
    let tree = Arc::new(ClusterTree::build(&pts, 16));
    let part = Arc::new(Partition::build(&tree, Admissibility::Weak));
    let km = KernelMatrix::new(ExponentialKernel { l: 2.0 }, tree.points.clone());
    let top = part.top_far_level(&tree).unwrap();
    assert!(
        (top..=tree.leaf_level()).any(|l| tree.level_len(l) < 7),
        "test geometry must have a level narrower than the device count"
    );
    let sync = DeviceFabric::new(7);
    let (h2s, _, _) = shard_construct(&sync, &km, &km, tree.clone(), part.clone(), &cfg());
    let pipe = DeviceFabric::pipelined(7);
    let (h2p, stats, _) = shard_construct(&pipe, &km, &km, tree, part, &cfg());
    // Adaptive rounds issue their own fetches after the level's first
    // subtraction consumed the ones issued a level early.
    assert!(stats.rounds > 0, "weak geometry must take a sampling round");
    assert_h2_identical(&h2s, &h2p, 450, 100);
    let x = gaussian_mat(450, 2, 101);
    assert_eq!(
        shard_matvec(&sync, &h2s, &x, false),
        shard_matvec(&pipe, &h2p, &x, false)
    );
}

/// Deterministic pseudo-random per-transfer delay: scrambles completion
/// order across the concurrently-serviced virtual copies.
fn scrambling_delay() -> h2_sched::TransferDelay {
    Arc::new(|t: &h2_sched::Transfer| {
        let mut h = t.bytes ^ ((t.src as u64) << 32) ^ ((t.dst as u64) << 17) ^ 0x9E37_79B9;
        h ^= h >> 13;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        Duration::from_micros(h % 2500)
    })
}

#[test]
fn pipelined_stress_randomized_prefetch_completion_order() {
    let (tree, part, km) = sym_problem(1400, 16, 102);
    let sync = DeviceFabric::new(3);
    let (h2s, _, _) = shard_construct(&sync, &km, &km, tree.clone(), part.clone(), &cfg());
    let pipe = DeviceFabric::pipelined(3);
    pipe.set_transfer_delay(Some(scrambling_delay()));
    let (h2p, _, rep_p) = shard_construct(&pipe, &km, &km, tree, part, &cfg());
    assert_h2_identical(&h2s, &h2p, 1400, 103);
    // Jobs gated on slow copies must have recorded real stall time — the
    // hook is exercised, not bypassed.
    assert!(
        rep_p.total_comm_messages() > 0,
        "stress geometry must communicate"
    );
    let x = gaussian_mat(1400, 2, 104);
    let want = shard_matvec(&sync, &h2s, &x, false);
    let got = shard_matvec(&pipe, &h2p, &x, false);
    assert_eq!(got, want, "delayed prefetches must not change the matvec");
}

/// Acceptance: a pipelined construction is its plan — every count and
/// transfer record, adaptive rounds included — so the overlap-aware
/// makespan projection equals the planned one exactly.
#[test]
fn pipelined_construction_executes_its_plan() {
    let (tree, part, km) = sym_problem(1400, 16, 105);
    let model = DeviceModel::default();
    // Few initial samples: some level fails the convergence test.
    let adaptive = SketchConfig {
        initial_samples: 16,
        sample_block: 16,
        ..cfg()
    };
    for scfg in [cfg(), adaptive] {
        for devices in [2usize, 4] {
            let pipe = DeviceFabric::pipelined(devices);
            let (h2, stats, report) =
                shard_construct(&pipe, &km, &km, tree.clone(), part.clone(), &scfg);
            let ctx = format!("D={devices} rounds {:?}", stats.rounds_per_level);
            let drew = stats.rounds > 0;
            assert_eq!(drew, scfg.sample_block == 16, "{ctx}: rounds drawn");
            let plan = plan_construct(&h2, &scfg, &stats, devices, report.mode, report.wire);
            if let Err(e) = report.check(&plan, None) {
                panic!("{ctx}: {e}");
            }
            assert_eq!(
                report.modeled_makespan(&model),
                plan.makespan(&model),
                "{ctx}: the pipelined run executed its plan"
            );
        }
    }
}

#[test]
fn pipelined_projection_beats_synchronous_when_comm_matters() {
    // Same counters, different schedule: at D >= 2 with real traffic the
    // overlap-aware projection must not exceed the serialized one.
    let (tree, part, km) = sym_problem(1400, 16, 106);
    let model = DeviceModel::default();
    let sync = DeviceFabric::new(4);
    let (_, _, rep_s) = shard_construct(&sync, &km, &km, tree.clone(), part.clone(), &cfg());
    let pipe = DeviceFabric::pipelined(4);
    let (_, _, rep_p) = shard_construct(&pipe, &km, &km, tree, part, &cfg());
    let (ms, mp) = (
        rep_s.modeled_makespan(&model),
        rep_p.modeled_makespan(&model),
    );
    assert!(
        mp <= ms * (1.0 + 1e-9),
        "overlap can only shorten the projected makespan: sync {ms} vs pipelined {mp}"
    );
    assert!(
        rep_s.total_comm_bytes() > 0,
        "test geometry must communicate at D=4"
    );
}

/// The sharded `batchedBSRGemm` on both disciplines, D ∈ {1, 2, 3, 7} and
/// both wire widths: bit-identical to the sequential backend, and its
/// transfer records are exactly [`FetchPlanner`]'s list, in its order.
#[test]
fn sharded_bsr_gemm_is_bit_identical_and_fetches_what_the_planner_lists() {
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = move |m: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % m as u64) as usize
    };
    for case in 0..6u64 {
        let n = 3 + next(10);
        let d = 1 + next(4);
        let sizes: Vec<usize> = (0..n).map(|_| 1 + next(6)).collect();
        let adj: Vec<Vec<usize>> = (0..n)
            .map(|_| {
                let mut a: Vec<usize> = (0..next(n + 1)).map(|_| next(n)).collect();
                a.sort_unstable();
                a.dedup();
                a
            })
            .collect();
        let pattern = BsrPattern::from_rows(&adj);
        let mats: Vec<Mat> = adj
            .iter()
            .enumerate()
            .flat_map(|(r, a)| a.iter().map(move |&c| (r, c)))
            .enumerate()
            .map(|(k, (r, c))| gaussian_mat(sizes[r], sizes[c], case * 1000 + k as u64))
            .collect();
        let blocks: Vec<BsrBlock<'_>> = mats.iter().map(BsrBlock::plain).collect();
        let mut x = VarBatch::zeros_uniform_cols(sizes.clone(), d);
        for (i, &rows) in sizes.iter().enumerate() {
            x.set(i, gaussian_mat(rows, d, case * 77 + i as u64).rf());
        }
        let run = |rt: &Runtime| {
            let mut y = VarBatch::zeros_uniform_cols(sizes.clone(), d);
            bsr_gemm(rt, &pattern, &blocks, &x, &mut y, -1.0, None);
            (0..n).map(|i| y.to_mat(i)).collect::<Vec<Mat>>()
        };
        let want = run(&Runtime::sequential());
        for devices in DEVICE_COUNTS {
            for mode in [PipelineMode::Synchronous, PipelineMode::Pipelined] {
                for wire in [Precision::F64, Precision::F32] {
                    let fabric = DeviceFabric::with_config(devices, mode, LinkModel::default());
                    fabric.set_wire(wire);
                    let got = run(&sharded_runtime(&fabric));
                    assert_eq!(got, want, "case {case}: D={devices} {mode:?} {wire:?}");
                    let mut planner = FetchPlanner::new(n, devices, wire);
                    for (r, a) in adj.iter().enumerate() {
                        for &c in a {
                            planner.visit(r, c, sizes[c], d);
                        }
                    }
                    let listed: Vec<_> = planner
                        .into_plan()
                        .into_iter()
                        .map(|t| (0, t, false))
                        .collect();
                    assert_eq!(fabric.report("bsr").transfers, listed);
                }
            }
        }
    }
}
