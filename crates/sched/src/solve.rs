//! Fabric-sharded solver sweeps: the ULV forward/backward triangular
//! solves executed level by level over contiguous node chunks, plus the
//! [`FabricOp`] adapter that routes Krylov matvecs through
//! [`crate::shard_matvec`].
//!
//! Phase mapping (the solver analogue of the matvec's §IV dataflow):
//!
//! * **forward sweep** (upsweep-ordered eliminate, leaf level first) —
//!   each level's nodes shard by [`h2_runtime::owner`]; a parent whose
//!   child lives across a chunk boundary reads that child's retained
//!   `k × nrhs` block through a [`TransferKind::ChildGather`] (the sweep
//!   analogue of the line-24 sibling merge);
//! * **root solve** — one dense LU solve on device 0, gathering the root's
//!   children across the fabric;
//! * **backward sweep** (downsweep-ordered substitute, root level first) —
//!   a child on a different device than its parent reads its slice of the
//!   parent's partial solution ([`TransferKind::PartialSum`]); leaf row
//!   ranges are disjoint, so per-device partial outputs assemble into `x`
//!   without a reduction.
//!
//! Transfers go through [`DeviceFabric::issue`]: on a pipelined fabric
//! they are prefetch descriptors and the per-device jobs are gated on their
//! tickets (the same enqueue/flush surface the construction and matvec
//! use); per-device FIFO order keeps the arithmetic identical to the
//! synchronous schedule, so outputs are bit-identical in both modes — and
//! identical to the in-process [`UlvFactor::solve`], which drives the same
//! [`h2_solve::UlvSweep`] node kernels.
//!
//! Byte totals are validated against the closed-form
//! [`h2_runtime::simulate_solve`] model by [`compare_solve_with_simulator`]
//! — the solver extension of the construction/matvec equivalence suite:
//! both sides evaluate the same `k > 0 && owner(child) != owner(parent)`
//! predicate with the same [`h2_runtime::multidev::cost`] byte formula, so
//! the totals must be *equal*, not merely close.

use crate::exec::SimComparison;
use crate::fabric::{DeviceFabric, ExecReport};
use h2_dense::{LinOp, Mat, MatMut, MatRef};
use h2_matrix::H2Matrix;
use h2_runtime::multidev::cost;
use h2_runtime::{
    chunk_bounds, owner, simulate_solve_prec_mode, DeviceModel, ShardJob, SolveSpec, Transfer,
    TransferKind,
};
use h2_solve::{Preconditioner, UlvFactor};
use std::sync::Arc;

/// Where a Krylov solve's iteration vectors live between fabric applies.
///
/// The fabric is virtual, so both modes run identical arithmetic and
/// produce bit-identical iterates — what changes is the modeled traffic,
/// exactly as on real hardware:
///
/// * [`Residency::Staged`] — the vectors live in the host
///   [`h2_solve::KrylovWorkspace`]; every operator or preconditioner
///   application stages the input's per-device row chunks out and gathers
///   the output back, `2·(n − chunk₀)·d` elements of
///   [`TransferKind::VectorStage`] traffic per apply (device 0 doubles as
///   the host staging slot, so its own chunk never crosses a link).
/// * [`Residency::Resident`] — the `x`/`r`/basis shards stay pinned in the
///   device arenas across iterations; an apply exchanges only the boundary
///   gathers already internal to the sharded kernels, and each global
///   dot/norm costs one `8·(D−1)`-byte scalar allreduce (wire it with
///   [`resident_reduce_hook`]). The blocked reductions
///   ([`h2_solve::blocked_dot`]) make the per-device partial combine
///   bit-equal to the host arithmetic, which is what keeps the two modes'
///   iterates identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Residency {
    Staged,
    Resident,
}

/// Per-apply [`TransferKind::VectorStage`] bytes of a [`Residency::Staged`]
/// operator at shape `n × d` — the closed-form the residency tests assert
/// against the executor's accounting, exactly.
pub fn staged_apply_bytes(n: usize, d: usize, devices: usize, wire: h2_dense::Precision) -> u64 {
    let bounds = chunk_bounds(n, devices);
    (1..devices)
        .map(|dev| 2 * ((bounds[dev + 1] - bounds[dev]) * d * wire.bytes()) as u64)
        .sum()
}

/// Bytes of one scalar allreduce in [`Residency::Resident`] mode: every
/// non-root device ships its 8-byte partial to device 0.
pub fn resident_reduce_bytes(devices: usize) -> u64 {
    8 * (devices.saturating_sub(1)) as u64
}

/// A [`h2_solve::ReduceHook`] charging the fabric one scalar allreduce
/// ([`resident_reduce_bytes`]) per global reduction — attach it to the
/// [`h2_solve::KrylovWorkspace`] when driving a [`Residency::Resident`]
/// operator so the only per-iteration traffic that leaves the devices is
/// accounted. A one-device fabric charges nothing.
pub fn resident_reduce_hook(fabric: &Arc<DeviceFabric>) -> h2_solve::ReduceHook {
    let fabric = fabric.clone();
    Arc::new(move || {
        for dev in 1..fabric.devices() {
            fabric.record_transfer(Transfer {
                src: dev,
                dst: 0,
                bytes: 8,
                kind: TransferKind::VectorStage,
                prec: h2_dense::Precision::F64,
            });
        }
    })
}

/// Charge one staged round trip (scatter the input chunks, gather the
/// output chunks) for an apply of an `n × d` vector block.
fn charge_vector_stage(fabric: &DeviceFabric, n: usize, d: usize) {
    let devices = fabric.devices();
    let wire = fabric.wire();
    let bounds = chunk_bounds(n, devices);
    for dev in 1..devices {
        let rows = bounds[dev + 1] - bounds[dev];
        if rows == 0 {
            continue;
        }
        let bytes = (rows * d * wire.bytes()) as u64;
        for (src, dst) in [(0, dev), (dev, 0)] {
            fabric.record_transfer(Transfer {
                src,
                dst,
                bytes,
                kind: TransferKind::VectorStage,
                prec: wire,
            });
        }
        // Staged copies of the input chunk and the output chunk coexist.
        fabric.arena_charge(dev, 2 * rows * d * wire.bytes());
    }
}

/// Charge the arena residency of a pinned `n × d` shard set (f64 master
/// copies; nothing crosses a link).
fn charge_resident_arena(fabric: &DeviceFabric, n: usize, d: usize) {
    let devices = fabric.devices();
    let bounds = chunk_bounds(n, devices);
    for dev in 0..devices {
        let rows = bounds[dev + 1] - bounds[dev];
        if rows > 0 {
            fabric.arena_charge(dev, rows * d * 8);
        }
    }
}

/// An H2 operator whose products execute sharded on a device fabric —
/// hand this to the Krylov methods so every basis-vector product runs
/// through [`crate::shard_matvec`]'s three sharded passes.
///
/// [`FabricOp::new`] models the historical dataflow ([`Residency::Staged`]:
/// the Krylov vectors round-trip through the host workspace every apply);
/// [`FabricOp::resident`] pins the vector shards in the device arenas and
/// drops the staging traffic entirely.
pub struct FabricOp<'a> {
    fabric: &'a DeviceFabric,
    h2: &'a H2Matrix,
    residency: Residency,
}

impl<'a> FabricOp<'a> {
    pub fn new(fabric: &'a DeviceFabric, h2: &'a H2Matrix) -> Self {
        FabricOp {
            fabric,
            h2,
            residency: Residency::Staged,
        }
    }

    /// [`FabricOp::new`] with [`Residency::Resident`] vectors. Pair with
    /// [`resident_reduce_hook`] on the driving workspace so the scalar
    /// allreduces are charged too.
    pub fn resident(fabric: &'a DeviceFabric, h2: &'a H2Matrix) -> Self {
        FabricOp {
            fabric,
            h2,
            residency: Residency::Resident,
        }
    }

    pub fn residency(&self) -> Residency {
        self.residency
    }

    fn charge_apply(&self, d: usize) {
        match self.residency {
            Residency::Staged => charge_vector_stage(self.fabric, self.h2.n(), d),
            Residency::Resident => charge_resident_arena(self.fabric, self.h2.n(), 2 * d),
        }
    }
}

impl LinOp for FabricOp<'_> {
    fn nrows(&self) -> usize {
        self.h2.n()
    }

    fn ncols(&self) -> usize {
        self.h2.n()
    }

    fn apply(&self, x: MatRef<'_>, mut y: MatMut<'_>) {
        self.charge_apply(x.cols());
        let r = crate::shard_matvec(self.fabric, self.h2, &x.to_mat(), false);
        y.copy_from(r.rf());
    }

    fn apply_transpose(&self, x: MatRef<'_>, mut y: MatMut<'_>) {
        self.charge_apply(x.cols());
        let r = crate::shard_matvec(self.fabric, self.h2, &x.to_mat(), true);
        y.copy_from(r.rf());
    }
}

/// A ULV factorization applied as a preconditioner through the
/// fabric-sharded sweep: each Krylov iteration's `M⁻¹ r` runs
/// [`shard_ulv_solve`] instead of the in-process solve. Residency follows
/// the same contract as [`FabricOp`] (staged by default, resident via
/// [`UlvFabricPrecond::resident`]).
pub struct UlvFabricPrecond<'a> {
    fabric: &'a DeviceFabric,
    ulv: &'a UlvFactor,
    residency: Residency,
}

impl<'a> UlvFabricPrecond<'a> {
    pub fn new(fabric: &'a DeviceFabric, ulv: &'a UlvFactor) -> Self {
        UlvFabricPrecond {
            fabric,
            ulv,
            residency: Residency::Staged,
        }
    }

    /// [`UlvFabricPrecond::new`] with [`Residency::Resident`] vectors.
    pub fn resident(fabric: &'a DeviceFabric, ulv: &'a UlvFactor) -> Self {
        UlvFabricPrecond {
            fabric,
            ulv,
            residency: Residency::Resident,
        }
    }

    pub fn residency(&self) -> Residency {
        self.residency
    }
}

impl Preconditioner for UlvFabricPrecond<'_> {
    fn n(&self) -> usize {
        self.ulv.n()
    }

    fn apply_inv(&self, r: &Mat) -> Mat {
        match self.residency {
            Residency::Staged => charge_vector_stage(self.fabric, self.ulv.n(), r.cols()),
            Residency::Resident => charge_resident_arena(self.fabric, self.ulv.n(), 2 * r.cols()),
        }
        shard_ulv_solve(self.fabric, self.ulv, r)
    }
}

/// `x = K_H2⁻¹ b` through the ULV sweeps executed sharded on the fabric
/// (tree-permuted coordinates). Numerically identical to
/// [`UlvFactor::solve`] — the same per-node sweep kernels run, only the
/// scheduling differs.
pub fn shard_ulv_solve(fabric: &DeviceFabric, ulv: &UlvFactor, b: &Mat) -> Mat {
    let n = ulv.n();
    assert_eq!(b.rows(), n, "shard_ulv_solve: rhs rows");
    let d = b.cols();
    let tree = ulv.tree().clone();
    let leaf_level = tree.leaf_level();
    let devices = fabric.devices();
    // Cross-device reduced blocks ship (and land in the arena) at the
    // fabric's wire precision; the solve simulator mirrors the width.
    let wire = fabric.wire();
    let sweep = ulv.sweep();
    let nnodes = tree.nodes.len();

    if leaf_level == 0 {
        fabric.record_flops(0, cost::lu_solve_flops(ulv.root_size(), d));
        fabric.record_launches(0, 1);
        let mut slot: Vec<Mat> = Vec::with_capacity(1);
        {
            let sweep_ref = &sweep;
            let job: ShardJob<'_> = Box::new(|| slot.push(sweep_ref.root_solve(b)));
            // SAFETY: run_jobs flushes before the borrows end.
            fabric.run_jobs(vec![job]);
        }
        fabric.close_epoch("ulv root");
        return slot.pop().expect("root solution");
    }

    let mut b1s: Vec<Option<Mat>> = (0..nnodes).map(|_| None).collect();
    let mut b2s: Vec<Option<Mat>> = (0..nnodes).map(|_| None).collect();

    // ---- forward sweep: rotate, eliminate, pass up (leaf level first) ----
    for l in (1..=leaf_level).rev() {
        let ids: Vec<usize> = tree.level(l).collect();
        let nl = ids.len();
        let bounds = chunk_bounds(nl, devices);
        let mut tickets: Vec<Vec<u64>> = vec![Vec::new(); devices];
        for (local, &id) in ids.iter().enumerate() {
            let dev = owner(local, nl, devices);
            let fl = ulv.forward_flops(id, d);
            if fl > 0.0 {
                fabric.record_flops(dev, fl);
            }
            fabric.arena_charge(dev, (ulv.retained(id) + 1) * d * wire.bytes());
            if l < leaf_level {
                // The node stacks its children's retained blocks: a child
                // owned by another device moves k × d numbers over.
                let ncl = tree.level_len(l + 1);
                let (c1, c2) = tree.nodes[id].children.unwrap();
                for c in [c1, c2] {
                    let kc = ulv.retained(c);
                    let cdev = owner(tree.local_index(c), ncl, devices);
                    if kc > 0 && cdev != dev {
                        fabric.issue(
                            Transfer {
                                src: cdev,
                                dst: dev,
                                bytes: cost::fetch_bytes_p(kc, d, wire),
                                kind: TransferKind::ChildGather,
                                prec: wire,
                            },
                            &mut tickets,
                        );
                    }
                }
            }
        }
        let mut results: Vec<Vec<(usize, Mat, Mat)>> = (0..devices).map(|_| Vec::new()).collect();
        {
            let (b1s_ref, ids_ref, sweep_ref, tree_ref) = (&b1s, &ids, &sweep, &tree);
            for (dev, slot) in results.iter_mut().enumerate() {
                let (lo, hi) = (bounds[dev], bounds[dev + 1]);
                if hi > lo {
                    fabric.record_launches(dev, 1);
                }
                let job: ShardJob<'_> = Box::new(move || {
                    for local in lo..hi {
                        let id = ids_ref[local];
                        let bl = if l == tree_ref.leaf_level() {
                            let (a, e) = tree_ref.range(id);
                            b.view(a, 0, e - a, d).to_mat()
                        } else {
                            let (c1, c2) = tree_ref.nodes[id].children.unwrap();
                            let t1 = b1s_ref[c1].as_ref().expect("child reduced rhs");
                            let t2 = b1s_ref[c2].as_ref().expect("child reduced rhs");
                            t1.vcat(t2)
                        };
                        let (b1, b2) = sweep_ref.forward_node(id, bl);
                        slot.push((id, b1, b2));
                    }
                });
                // SAFETY: flushed below before the borrows end.
                unsafe { fabric.enqueue(dev, &tickets[dev], job) };
            }
            fabric.flush();
        }
        for (id, b1, b2) in results.into_iter().flatten() {
            b1s[id] = Some(b1);
            b2s[id] = Some(b2);
        }
        fabric.close_epoch(&format!("ulv forward L{l}"));
    }

    // ---- root solve on device 0, gathering the root's children ----
    let mut xts: Vec<Option<Mat>> = (0..nnodes).map(|_| None).collect();
    {
        let (c1, c2) = tree.nodes[0].children.unwrap();
        let n1 = tree.level_len(1);
        let mut tickets: Vec<Vec<u64>> = vec![Vec::new(); devices];
        for c in [c1, c2] {
            let kc = ulv.retained(c);
            let cdev = owner(tree.local_index(c), n1, devices);
            if kc > 0 && cdev != 0 {
                fabric.issue(
                    Transfer {
                        src: cdev,
                        dst: 0,
                        bytes: cost::fetch_bytes_p(kc, d, wire),
                        kind: TransferKind::ChildGather,
                        prec: wire,
                    },
                    &mut tickets,
                );
            }
        }
        fabric.record_flops(0, cost::lu_solve_flops(ulv.root_size(), d));
        fabric.record_launches(0, 1);
        let mut slot: Vec<Mat> = Vec::with_capacity(1);
        {
            let (b1s_ref, sweep_ref) = (&b1s, &sweep);
            let job: ShardJob<'_> = Box::new(|| {
                let r1 = b1s_ref[c1].as_ref().expect("root child rhs");
                let r2 = b1s_ref[c2].as_ref().expect("root child rhs");
                slot.push(sweep_ref.root_solve(&r1.vcat(r2)));
            });
            // SAFETY: flushed below before the borrows end.
            unsafe { fabric.enqueue(0, &tickets[0], job) };
            fabric.flush();
        }
        xts[0] = Some(slot.pop().expect("root solution"));
        fabric.close_epoch("ulv root");
    }

    // ---- backward sweep: distribute, substitute, un-rotate ----
    let mut x = Mat::zeros(n, d);
    for l in 1..=leaf_level {
        let ids: Vec<usize> = tree.level(l).collect();
        let nl = ids.len();
        let np = tree.level_len(l - 1);
        let bounds = chunk_bounds(nl, devices);
        let mut tickets: Vec<Vec<u64>> = vec![Vec::new(); devices];
        for (local, &id) in ids.iter().enumerate() {
            let dev = owner(local, nl, devices);
            let fl = ulv.backward_flops(id, d);
            if fl > 0.0 {
                fabric.record_flops(dev, fl);
            }
            let parent = tree.nodes[id].parent.expect("non-root node");
            let pdev = owner(tree.local_index(parent), np, devices);
            let kc = ulv.retained(id);
            if kc > 0 && pdev != dev {
                fabric.issue(
                    Transfer {
                        src: pdev,
                        dst: dev,
                        bytes: cost::fetch_bytes_p(kc, d, wire),
                        kind: TransferKind::PartialSum,
                        prec: wire,
                    },
                    &mut tickets,
                );
            }
        }
        // Each node's cached b2 is consumed exactly once: drain it into
        // per-device owned chunks so the jobs take ownership instead of
        // cloning every `e × nrhs` block.
        let b2_chunks: Vec<Vec<Mat>> = (0..devices)
            .map(|dev| {
                (bounds[dev]..bounds[dev + 1])
                    .map(|local| b2s[ids[local]].take().expect("cached b2"))
                    .collect()
            })
            .collect();
        let mut results: Vec<Vec<(usize, Mat)>> = (0..devices).map(|_| Vec::new()).collect();
        {
            let (xts_ref, ids_ref, sweep_ref, tree_ref, ulv_ref) = (&xts, &ids, &sweep, &tree, ulv);
            for ((dev, slot), chunk) in results.iter_mut().enumerate().zip(b2_chunks) {
                let lo = bounds[dev];
                if !chunk.is_empty() {
                    fabric.record_launches(dev, 1);
                }
                let job: ShardJob<'_> = Box::new(move || {
                    for (j, b2) in chunk.into_iter().enumerate() {
                        let id = ids_ref[lo + j];
                        let parent = tree_ref.nodes[id].parent.unwrap();
                        let (c1, _) = tree_ref.nodes[parent].children.unwrap();
                        let off = if id == c1 { 0 } else { ulv_ref.retained(c1) };
                        let k = ulv_ref.retained(id);
                        let px = xts_ref[parent].as_ref().expect("parent solution");
                        let x1 = px.view(off, 0, k, d).to_mat();
                        slot.push((id, sweep_ref.backward_node(id, &x1, b2)));
                    }
                });
                // SAFETY: flushed below before the borrows end.
                unsafe { fabric.enqueue(dev, &tickets[dev], job) };
            }
            fabric.flush();
        }
        for (id, xt) in results.into_iter().flatten() {
            if l == leaf_level {
                let (lo, hi) = tree.range(id);
                x.view_mut(lo, 0, hi - lo, d)
                    .copy_from(xt.view(0, 0, hi - lo, d));
            } else {
                xts[id] = Some(xt);
            }
        }
        fabric.close_epoch(&format!("ulv backward L{l}"));
    }
    x
}

/// [`shard_ulv_solve`] with a fresh accounting scope: resets the fabric,
/// runs, and returns the solution with the execution report.
pub fn shard_ulv_solve_with_report(
    fabric: &DeviceFabric,
    ulv: &UlvFactor,
    b: &Mat,
) -> (Mat, ExecReport) {
    fabric.reset();
    let x = shard_ulv_solve(fabric, ulv, b);
    (x, fabric.report("ulv solve tail"))
}

/// Measured-vs-simulated comparison of one sharded solve sweep against
/// [`simulate_solve_prec_mode`] on the factorization's own [`SolveSpec`],
/// evaluated under the report's own pipeline mode — the solver arm of the
/// simulator-equivalence suite. Byte totals must match exactly; work
/// totals to rounding; the makespan within the documented band (the two
/// sides place pass-up traffic in adjacent levels).
pub fn compare_solve_with_simulator(
    report: &ExecReport,
    spec: &SolveSpec,
    model: &DeviceModel,
) -> SimComparison {
    let sim = simulate_solve_prec_mode(spec, report.devices, model, report.wire, report.mode);
    SimComparison {
        measured_flop_equiv: report.flop_equiv(model.entry_cost),
        predicted_flop_equiv: sim.compute_total() * model.flops_per_sec,
        measured_bytes: report.total_comm_bytes(),
        predicted_bytes: sim.total_comm_bytes,
        measured_makespan: report.modeled_makespan(model),
        predicted_makespan: sim.makespan,
    }
}
