//! Fabric-sharded ULV solve sweeps: **plan → execute → price**, plus the
//! [`FabricOp`] / [`UlvFabricPrecond`] adapters that run Krylov methods on
//! the fabric.
//!
//! The sweep makes the same one decision per level as the matvec — which
//! device owns each node, and which retained blocks therefore cross a
//! device boundary — and this module writes it once:
//!
//! * [`plan_ulv_solve`] lays the sweep out as a [`Schedule`]: per epoch the
//!   flops, launches and workspace bytes of every device and the explicit
//!   [`Transfer`] list. It is the only solve code that evaluates
//!   [`h2_runtime::owner`], the `k > 0 && owner(child) != owner(parent)`
//!   guard, the per-node flop counts ([`UlvFactor::forward_flops`] /
//!   [`UlvFactor::backward_flops`]) and the workspace formula.
//! * [`shard_ulv_solve`] **executes** that value on the fabric: per epoch it
//!   charges the plan's counts, issues the plan's transfers
//!   ([`DeviceFabric::issue`]), enqueues one job per device over its chunk
//!   of the level, flushes and closes the epoch. The jobs run the
//!   [`h2_solve::UlvSweep`] node kernels of the in-process
//!   [`UlvFactor::solve`], so the solution is bit-identical to it.
//! * [`Schedule::makespan`] **prices** it with the epoch-pricing rule
//!   ([`h2_runtime::epoch_terms`]) that [`ExecReport::modeled_makespan`]
//!   applies to the measured counts.
//!
//! So executor bytes == plan bytes, flops == plan flops and makespan ratio
//! == 1 hold by construction; [`compare_solve_with_simulator`] and
//! [`crate::drift_solve`] report against the plan.
//!
//! ## The plan
//!
//! Nodes of a level shard over the devices in contiguous chunks (§IV.A).
//! The epochs, in order:
//!
//! * **`ulv forward L{l}`** (leaf level first) — rotate, eliminate, pass
//!   up. A parent whose child lives across a chunk boundary reads that
//!   child's retained `k × nrhs` block through a
//!   [`TransferKind::ChildGather`] (the sweep analogue of the line-24
//!   sibling merge). The gather is charged to the **parent level's**
//!   epoch, whose jobs read it, not to the child level's epoch that
//!   produced the block; the leaf epoch therefore moves nothing.
//! * **`ulv root`** — one dense LU solve on device 0, which gathers the
//!   root's children the same way. A single-leaf tree has only this epoch.
//! * **`ulv backward L{l}`** (root level first) — distribute, substitute,
//!   un-rotate: a child on a different device than its parent reads its
//!   slice of the parent's partial solution ([`TransferKind::PartialSum`]).
//!   Leaf row ranges are disjoint, so the per-device partial outputs
//!   assemble into `x` without a reduction.
//!
//! Every transfer is read by the epoch that issues it, in both pipeline
//! modes. On a pipelined fabric the transfers are prefetch descriptors and
//! each device's job waits on its tickets; per-device FIFO order keeps the
//! arithmetic identical to the synchronous schedule, so outputs are
//! bit-identical in both modes.
//!
//! ## Krylov vectors
//!
//! [`FabricOp`] and [`UlvFabricPrecond`] keep the Krylov iteration vectors
//! resident: the `x` / `r` / basis shards stay pinned in the device arenas
//! across iterations, so an apply charges the arena for its input and output
//! shards and moves only the boundary traffic internal to the sharded
//! kernels. Each global dot or norm costs one `8·(D−1)`-byte scalar
//! allreduce ([`resident_reduce_hook`]); the blocked reductions
//! ([`h2_solve::blocked_dot`]) make the per-device partial combine bit-equal
//! to the host arithmetic.

use crate::exec::SimComparison;
use crate::fabric::{DeviceFabric, ExecReport};
use h2_dense::{LinOp, Mat, MatMut, MatRef};
use h2_matrix::H2Matrix;
use h2_runtime::multidev::cost;
use h2_runtime::{
    chunk_bounds, owner, DeviceModel, PipelineMode, Precision, Schedule, ScheduleEpoch, ShardJob,
    Transfer, TransferKind,
};
use h2_solve::{Preconditioner, UlvFactor};
use std::sync::Arc;

/// [`ScheduleEpoch::kernel`] names of the three sweep phases.
const FORWARD: &str = "ulv forward";
const ROOT: &str = "ulv root";
const BACKWARD: &str = "ulv backward";

/// Bytes of one scalar allreduce: every non-root device ships its 8-byte
/// partial to device 0.
pub fn resident_reduce_bytes(devices: usize) -> u64 {
    8 * (devices.saturating_sub(1)) as u64
}

/// A [`h2_solve::ReduceHook`] charging the fabric one scalar allreduce
/// ([`resident_reduce_bytes`]) per global reduction, as
/// [`TransferKind::VectorStage`] traffic — attach it to the
/// [`h2_solve::KrylovWorkspace`] driving a [`FabricOp`] /
/// [`UlvFabricPrecond`] so the only per-iteration traffic that leaves the
/// devices is accounted. A one-device fabric charges nothing.
pub fn resident_reduce_hook(fabric: &Arc<DeviceFabric>) -> h2_solve::ReduceHook {
    let fabric = fabric.clone();
    Arc::new(move || {
        for dev in 1..fabric.devices() {
            fabric.record_transfer(Transfer {
                src: dev,
                dst: 0,
                bytes: 8,
                kind: TransferKind::VectorStage,
                prec: Precision::F64,
            });
        }
    })
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
/// through [`crate::shard_matvec`]'s three sharded passes, with the vector
/// shards resident in the device arenas (see the module docs).
pub struct FabricOp<'a> {
    fabric: &'a DeviceFabric,
    h2: &'a H2Matrix,
}

impl<'a> FabricOp<'a> {
    /// Pair with [`resident_reduce_hook`] on the driving workspace so the
    /// scalar allreduces are charged too.
    pub fn new(fabric: &'a DeviceFabric, h2: &'a H2Matrix) -> Self {
        FabricOp { fabric, h2 }
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
        charge_resident_arena(self.fabric, self.h2.n(), 2 * x.cols());
        let r = crate::shard_matvec(self.fabric, self.h2, &x.to_mat(), false);
        y.copy_from(r.rf());
    }

    fn apply_transpose(&self, x: MatRef<'_>, mut y: MatMut<'_>) {
        charge_resident_arena(self.fabric, self.h2.n(), 2 * x.cols());
        let r = crate::shard_matvec(self.fabric, self.h2, &x.to_mat(), true);
        y.copy_from(r.rf());
    }
}

/// A ULV factorization applied as a preconditioner through the
/// fabric-sharded sweep: each Krylov iteration's `M⁻¹ r` runs
/// [`shard_ulv_solve`] instead of the in-process solve, with the vector
/// shards resident like [`FabricOp`]'s.
pub struct UlvFabricPrecond<'a> {
    fabric: &'a DeviceFabric,
    ulv: &'a UlvFactor,
}

impl<'a> UlvFabricPrecond<'a> {
    pub fn new(fabric: &'a DeviceFabric, ulv: &'a UlvFactor) -> Self {
        UlvFabricPrecond { fabric, ulv }
    }
}

impl Preconditioner for UlvFabricPrecond<'_> {
    fn n(&self) -> usize {
        self.ulv.n()
    }

    fn apply_inv(&self, r: &Mat) -> Mat {
        charge_resident_arena(self.fabric, self.ulv.n(), 2 * r.cols());
        shard_ulv_solve(self.fabric, self.ulv, r)
    }
}

/// The sharded ULV sweep `x = K_H2⁻¹ b` for `nrhs` right-hand sides as a
/// [`Schedule`], from the factorization's shapes alone — see the module
/// docs for the layout. `wire` sizes every transfer and arena charge;
/// `mode` only decides how [`Schedule::makespan`] combines the terms (the
/// epoch structure is the same in both modes).
pub fn plan_ulv_solve(
    ulv: &UlvFactor,
    nrhs: usize,
    devices: usize,
    mode: PipelineMode,
    wire: Precision,
) -> Schedule {
    let tree = &**ulv.tree();
    let leaf_level = tree.leaf_level();
    let mut epochs: Vec<ScheduleEpoch> = Vec::new();

    // Device owning node `id`: its contiguous chunk of the node's level.
    let dev_of = |id: usize| {
        let nl = tree.level_len(tree.level_of(id));
        owner(tree.local_index(id), nl, devices)
    };
    // `child`'s retained `k × nrhs` block crosses a device boundary on its
    // way to the parent (and back): `(child device, parent device, k)`.
    let crossing = |child: usize| {
        let parent = tree.nodes[child].parent.expect("non-root node");
        let (cdev, pdev, k) = (dev_of(child), dev_of(parent), ulv.retained(child));
        (k > 0 && cdev != pdev).then_some((cdev, pdev, k))
    };
    let read = |src: usize, dst: usize, k: usize, kind: TransferKind| Transfer {
        src,
        dst,
        bytes: cost::fetch_bytes_p(k, nrhs, wire),
        kind,
        prec: wire,
    };
    // Node `id` stacks its children's retained blocks: each one held on
    // another device is gathered onto `id`'s, for the jobs of epoch `at`.
    let gather = |e: &mut ScheduleEpoch, id: usize, at: usize| {
        let (c1, c2) = tree.nodes[id].children.expect("inner node");
        for c in [c1, c2] {
            if let Some((cdev, pdev, k)) = crossing(c) {
                e.transfers
                    .push((read(cdev, pdev, k, TransferKind::ChildGather), at));
            }
        }
    };

    // ---- forward sweep: rotate, eliminate, pass up (leaf level first) ----
    for l in (1..=leaf_level).rev() {
        let at = epochs.len();
        let mut e = ScheduleEpoch::blank(FORWARD, format!("ulv forward L{l}"), devices);
        for id in tree.level(l) {
            let dev = dev_of(id);
            e.flops[dev] += ulv.forward_flops(id, nrhs);
            e.arena[dev] += (ulv.retained(id) + 1) * nrhs * wire.bytes();
            if l < leaf_level {
                gather(&mut e, id, at);
            }
        }
        e.run_level(l, tree.level_len(l));
        epochs.push(e);
    }

    // ---- root solve on device 0, gathering the root's children ----
    let at = epochs.len();
    let mut e = ScheduleEpoch::blank(ROOT, "ulv root", devices);
    e.flops[0] += cost::lu_solve_flops(ulv.root_size(), nrhs);
    if leaf_level > 0 {
        gather(&mut e, 0, at);
    }
    e.run_level(0, 1);
    epochs.push(e);

    // ---- backward sweep: distribute, substitute, un-rotate ----
    for l in 1..=leaf_level {
        let at = epochs.len();
        let mut e = ScheduleEpoch::blank(BACKWARD, format!("ulv backward L{l}"), devices);
        for id in tree.level(l) {
            e.flops[dev_of(id)] += ulv.backward_flops(id, nrhs);
            if let Some((cdev, pdev, k)) = crossing(id) {
                e.transfers
                    .push((read(pdev, cdev, k, TransferKind::PartialSum), at));
            }
        }
        e.run_level(l, tree.level_len(l));
        epochs.push(e);
    }

    Schedule {
        devices,
        mode,
        wire,
        epochs,
    }
}

/// Enqueue `jobs[dev]` on device `dev`, gated on that device's transfer
/// tickets, and wait for all of them.
fn run_per_device(fabric: &DeviceFabric, jobs: Vec<ShardJob<'_>>, tickets: &[Vec<u64>]) {
    for (dev, job) in jobs.into_iter().enumerate() {
        // SAFETY: the sweep opens no chain scope, so the flush below is a
        // barrier: every borrow a job holds outlives its execution.
        unsafe { fabric.enqueue(dev, &tickets[dev], job) };
    }
    fabric.flush();
}

/// `x = K_H2⁻¹ b` through the ULV sweeps executed sharded on the fabric
/// (tree-permuted coordinates): [`plan_ulv_solve`] for the fabric's device
/// count, mode and wire precision, executed epoch by epoch. Numerically
/// identical to [`UlvFactor::solve`] — the same per-node sweep kernels run,
/// only the scheduling differs.
pub fn shard_ulv_solve(fabric: &DeviceFabric, ulv: &UlvFactor, b: &Mat) -> Mat {
    let n = ulv.n();
    assert_eq!(b.rows(), n, "shard_ulv_solve: rhs rows");
    let d = b.cols();
    let devices = fabric.devices();
    let plan = plan_ulv_solve(ulv, d, devices, fabric.mode(), fabric.wire());
    let tree = &**ulv.tree();
    let leaf_level = tree.leaf_level();
    let sweep = &ulv.sweep();

    // Per node: the reduced rhs passed up (`b1`), the eliminated part kept
    // for the backward sweep (`b2`) and the partial solution passed down.
    let slots = || -> Vec<Option<Mat>> { (0..tree.nodes.len()).map(|_| None).collect() };
    let (mut b1s, mut b2s, mut xts) = (slots(), slots(), slots());
    let mut x = Mat::zeros(n, d);

    // Tickets of issued transfers, by gated epoch and destination device.
    let mut tickets: Vec<Vec<Vec<u64>>> = vec![vec![Vec::new(); devices]; plan.epochs.len()];
    for (i, epoch) in plan.epochs.iter().enumerate() {
        for dev in 0..devices {
            fabric.record_flops(dev, epoch.flops[dev]);
            fabric.record_launches(dev, epoch.launches[dev]);
            fabric.arena_charge(dev, epoch.arena[dev]);
        }
        for &(t, gates) in &epoch.transfers {
            fabric.issue(t, &mut tickets[gates]);
        }
        let l = epoch.levels[0];
        let first = tree.level(l).start;
        let bounds = chunk_bounds(tree.level_len(l), devices);
        let chunk = |dev: usize| first + bounds[dev]..first + bounds[dev + 1];
        match epoch.kernel {
            FORWARD => {
                let mut out: Vec<Vec<(usize, Mat, Mat)>> =
                    (0..devices).map(|_| Vec::new()).collect();
                let b1s_ref = &b1s;
                let jobs = out
                    .iter_mut()
                    .enumerate()
                    .map(|(dev, slot)| -> ShardJob<'_> {
                        let ids = chunk(dev);
                        Box::new(move || {
                            for id in ids {
                                let bl = if l == leaf_level {
                                    let (a, e) = tree.range(id);
                                    b.view(a, 0, e - a, d).to_mat()
                                } else {
                                    let (c1, c2) = tree.nodes[id].children.expect("inner node");
                                    let t1 = b1s_ref[c1].as_ref().expect("child reduced rhs");
                                    let t2 = b1s_ref[c2].as_ref().expect("child reduced rhs");
                                    t1.vcat(t2)
                                };
                                let (b1, b2) = sweep.forward_node(id, bl);
                                slot.push((id, b1, b2));
                            }
                        })
                    })
                    .collect();
                run_per_device(fabric, jobs, &tickets[i]);
                for (id, b1, b2) in out.into_iter().flatten() {
                    b1s[id] = Some(b1);
                    b2s[id] = Some(b2);
                }
            }
            ROOT => {
                let mut root = None;
                let job: ShardJob<'_> = Box::new(|| {
                    root = Some(match tree.nodes[0].children {
                        None => sweep.root_solve(b),
                        Some((c1, c2)) => {
                            let r1 = b1s[c1].as_ref().expect("root child rhs");
                            let r2 = b1s[c2].as_ref().expect("root child rhs");
                            sweep.root_solve(&r1.vcat(r2))
                        }
                    });
                });
                run_per_device(fabric, vec![job], &tickets[i]);
                let root = root.expect("root solution");
                if leaf_level == 0 {
                    x = root;
                } else {
                    xts[0] = Some(root);
                }
            }
            BACKWARD => {
                let mut out: Vec<Vec<(usize, Mat)>> = (0..devices).map(|_| Vec::new()).collect();
                let xts_ref = &xts;
                let jobs = out
                    .iter_mut()
                    .enumerate()
                    .map(|(dev, slot)| -> ShardJob<'_> {
                        let ids = chunk(dev);
                        // Each node's cached b2 is consumed exactly once:
                        // the job takes ownership instead of cloning every
                        // `e × nrhs` block.
                        let b2: Vec<Mat> = ids
                            .clone()
                            .map(|id| b2s[id].take().expect("cached b2"))
                            .collect();
                        Box::new(move || {
                            for (id, b2) in ids.zip(b2) {
                                let parent = tree.nodes[id].parent.expect("non-root node");
                                let (c1, _) = tree.nodes[parent].children.expect("inner node");
                                let off = if id == c1 { 0 } else { ulv.retained(c1) };
                                let k = ulv.retained(id);
                                let px = xts_ref[parent].as_ref().expect("parent solution");
                                let x1 = px.view(off, 0, k, d).to_mat();
                                slot.push((id, sweep.backward_node(id, &x1, b2)));
                            }
                        })
                    })
                    .collect();
                run_per_device(fabric, jobs, &tickets[i]);
                for (id, xt) in out.into_iter().flatten() {
                    if l == leaf_level {
                        let (lo, hi) = tree.range(id);
                        x.view_mut(lo, 0, hi - lo, d)
                            .copy_from(xt.view(0, 0, hi - lo, d));
                    } else {
                        xts[id] = Some(xt);
                    }
                }
            }
            other => unreachable!("ulv plan names kernel {other}"),
        }
        fabric.close_epoch(&epoch.label);
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

/// Measured-vs-planned comparison of one sharded solve sweep against
/// [`plan_ulv_solve`] for `nrhs` columns and the report's own device count,
/// mode and wire — the solver arm of the simulator-equivalence suite. The
/// executor ran that plan, so byte and flop totals are equal and the
/// makespan ratio is 1.
pub fn compare_solve_with_simulator(
    report: &ExecReport,
    ulv: &UlvFactor,
    nrhs: usize,
    model: &DeviceModel,
) -> SimComparison {
    let plan = plan_ulv_solve(ulv, nrhs, report.devices, report.mode, report.wire);
    SimComparison::of_plan(report, &plan, model)
}
