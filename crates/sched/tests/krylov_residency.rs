//! Krylov vector-residency acceptance: a fabric-backed solve keeps its
//! vectors device-resident, so it must be bit-identical across pipeline
//! modes, and the only [`TransferKind::VectorStage`] traffic it records is
//! one scalar allreduce per global reduction — pinned to
//! [`resident_reduce_bytes`] exactly.

use h2_core::{sketch_construct, SketchConfig};
use h2_kernels::{ExponentialKernel, KernelMatrix};
use h2_matrix::H2Matrix;
use h2_runtime::{Runtime, TransferKind};
use h2_sched::{
    resident_reduce_bytes, resident_reduce_hook, DeviceFabric, ExecReport, FabricOp,
    UlvFabricPrecond,
};
use h2_solve::{pcg_with, IterResult, KrylovWorkspace, UlvFactor};
use h2_tree::{Admissibility, ClusterTree, Partition};
use std::sync::atomic::{AtomicU64, Ordering};
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

fn assert_bit_identical(a: &IterResult, b: &IterResult, what: &str) {
    assert_eq!(a.iterations, b.iterations, "{what}: iteration counts");
    assert_eq!(a.history, b.history, "{what}: residual histories");
    assert_eq!(a.x.len(), b.x.len());
    for (i, (xa, xb)) in a.x.iter().zip(&b.x).enumerate() {
        assert_eq!(
            xa.to_bits(),
            xb.to_bits(),
            "{what}: x[{i}] diverged bitwise"
        );
    }
}

/// PCG through the fabric op and sweep preconditioner, counting the global
/// reductions the allreduce hook charged.
fn resident_pcg(
    fabric: &Arc<DeviceFabric>,
    h2: &H2Matrix,
    ulv: &UlvFactor,
    b: &[f64],
) -> (IterResult, u64, ExecReport) {
    let op = FabricOp::new(fabric, h2);
    let prec = UlvFabricPrecond::new(fabric, ulv);
    let mut ws = KrylovWorkspace::new(b.len());
    let inner = resident_reduce_hook(fabric);
    let count = Arc::new(AtomicU64::new(0));
    let counter = count.clone();
    ws.set_reduce_hook(Some(Arc::new(move || {
        counter.fetch_add(1, Ordering::Relaxed);
        inner();
    })));
    let res = pcg_with(&op, &prec, b, 200, 1e-10, &mut ws);
    let reductions = count.load(Ordering::Relaxed);
    (res, reductions, fabric.report("krylov"))
}

#[test]
fn resident_solve_is_mode_invariant_and_stages_only_allreduces() {
    const N: usize = 640;
    const D: usize = 4;
    let h2 = sym_hss(N, 32);
    let ulv = UlvFactor::new(&h2).unwrap();
    let b: Vec<f64> = (0..N).map(|i| 1.0 + (0.013 * i as f64).sin()).collect();

    let (sync, sync_reductions, sync_report) = resident_pcg(&DeviceFabric::new(D), &h2, &ulv, &b);
    assert!(sync.converged, "resident PCG stalled");
    let (pipe, pipe_reductions, pipe_report) =
        resident_pcg(&DeviceFabric::pipelined(D), &h2, &ulv, &b);

    // Same arithmetic, bit for bit, across pipeline modes.
    assert_bit_identical(&sync, &pipe, "synchronous vs pipelined");

    // The only vector traffic is one scalar allreduce per global reduction.
    for (reductions, report) in [
        (sync_reductions, &sync_report),
        (pipe_reductions, &pipe_report),
    ] {
        assert!(reductions > 0);
        assert_eq!(
            report.bytes_of_kind(TransferKind::VectorStage),
            reductions * resident_reduce_bytes(D),
            "allreduce bytes must equal the closed form exactly"
        );
    }

    // One device reduces nothing across links.
    assert_eq!(resident_reduce_bytes(1), 0);
}
