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
//! * [`shard_ulv_solve_into`] (into a caller's buffer) **executes** it
//!   through `DeviceFabric::execute`, whose jobs run the
//!   [`h2_solve::UlvSweep`] node kernels of the in-process
//!   [`UlvFactor::solve`] into per-node slots — so the solution is
//!   bit-identical to it.
//! * [`Schedule::makespan`] **prices** it with the rule
//!   [`ExecReport::modeled_makespan`] applies to the measured counts, so
//!   bytes, flops and makespan agree by construction;
//!   [`ExecReport::check`] and [`crate::drift`] report against the plan.
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

use crate::fabric::{DeviceFabric, ExecReport};
use h2_dense::{LinOp, Mat, MatMut, MatRef};
use h2_matrix::H2Matrix;
use h2_runtime::multidev::cost;
use h2_runtime::{
    chunk_bounds, owner, PipelineMode, Precision, Schedule, ScheduleEpoch, Transfer, TransferKind,
};
use h2_solve::{Preconditioner, UlvFactor};
use std::sync::{Arc, Mutex, OnceLock};

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
/// [`shard_ulv_solve_into`] instead of the in-process solve, with the vector
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

    fn apply_inv_into(&self, r: MatRef<'_>, z: MatMut<'_>) {
        charge_resident_arena(self.fabric, self.ulv.n(), 2 * r.cols());
        shard_ulv_solve_into(self.fabric, self.ulv, r, z);
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

/// `x = K_H2⁻¹ b` through the ULV sweeps executed sharded on the fabric
/// (tree-permuted coordinates), into a caller-owned `x` of `b`'s shape,
/// which it overwrites: [`plan_ulv_solve`] for the fabric's device count,
/// mode and wire precision, run by `DeviceFabric::execute`. Numerically
/// identical to [`UlvFactor::solve`] — the same per-node sweep kernels run,
/// only the scheduling differs.
pub fn shard_ulv_solve_into(
    fabric: &DeviceFabric,
    ulv: &UlvFactor,
    b: MatRef<'_>,
    mut x: MatMut<'_>,
) {
    let n = ulv.n();
    assert_eq!(b.rows(), n, "shard_ulv_solve: rhs rows");
    assert_eq!(
        (x.rows(), x.cols()),
        (b.rows(), b.cols()),
        "shard_ulv_solve: solution shape"
    );
    let d = b.cols();
    let plan = plan_ulv_solve(ulv, d, fabric.devices(), fabric.mode(), fabric.wire());
    let tree = &**ulv.tree();
    let sweep = &ulv.sweep();

    // Per node: the reduced rhs passed up (`b1`), the eliminated part the
    // backward sweep takes (`b2`) and the partial solution passed down
    // (at a leaf, its rows of `x`).
    let nnodes = tree.nodes.len();
    let b1s: Vec<OnceLock<Mat>> = (0..nnodes).map(|_| OnceLock::new()).collect();
    let b2s: Vec<Mutex<Option<Mat>>> = (0..nnodes).map(|_| Mutex::new(None)).collect();
    let xts: Vec<OnceLock<Mat>> = (0..nnodes).map(|_| OnceLock::new()).collect();
    let written = |slot: &OnceLock<Mat>, m: Mat| assert!(slot.set(m).is_ok(), "slot set twice");
    // Node `id`'s children's reduced right-hand sides, stacked.
    let stacked = |id: usize| {
        let (c1, c2) = tree.nodes[id].children.expect("inner node");
        let reduced = |c: usize| b1s[c].get().expect("child reduced rhs");
        reduced(c1).vcat(reduced(c2))
    };

    fabric.execute(
        &plan,
        tree,
        |_| false,
        |kernel, ids| match kernel {
            FORWARD => {
                for id in ids {
                    let bl = if tree.nodes[id].children.is_none() {
                        let (lo, hi) = tree.range(id);
                        b.view(lo, 0, hi - lo, d).to_mat()
                    } else {
                        stacked(id)
                    };
                    let (b1, b2) = sweep.forward_node(id, bl);
                    written(&b1s[id], b1);
                    *b2s[id].lock().expect("no sweep job panicked") = Some(b2);
                }
            }
            ROOT => {
                let root = if tree.nodes[0].children.is_none() {
                    sweep.root_solve(&b.to_mat())
                } else {
                    sweep.root_solve(&stacked(0))
                };
                written(&xts[0], root);
            }
            BACKWARD => {
                for id in ids {
                    let parent = tree.nodes[id].parent.expect("non-root node");
                    let (c1, _) = tree.nodes[parent].children.expect("inner node");
                    let off = if id == c1 { 0 } else { ulv.retained(c1) };
                    let px = xts[parent].get().expect("parent solution");
                    let x1 = px.view(off, 0, ulv.retained(id), d).to_mat();
                    // Each node's b2 is consumed exactly once: taken, not
                    // cloned.
                    let b2 = b2s[id].lock().expect("no sweep job panicked").take();
                    let b2 = b2.expect("cached b2");
                    written(&xts[id], sweep.backward_node(id, &x1, b2));
                }
            }
            other => unreachable!("ulv plan names kernel {other}"),
        },
    );

    // Leaf row ranges tile `0..n`.
    for id in tree.level(tree.leaf_level()) {
        let (lo, hi) = tree.range(id);
        let xt = xts[id].get().expect("leaf solution");
        x.rb_mut()
            .into_view(lo, 0, hi - lo, d)
            .copy_from(xt.view(0, 0, hi - lo, d));
    }
}

/// [`shard_ulv_solve_into`] with a fresh accounting scope and a fresh
/// solution: resets the fabric, runs, and returns the solution with the
/// execution report.
pub fn shard_ulv_solve_with_report(
    fabric: &DeviceFabric,
    ulv: &UlvFactor,
    b: &Mat,
) -> (Mat, ExecReport) {
    fabric.reset();
    let mut x = Mat::zeros(b.rows(), b.cols());
    shard_ulv_solve_into(fabric, ulv, b.rf(), x.rm());
    (x, fabric.report("ulv solve tail"))
}
