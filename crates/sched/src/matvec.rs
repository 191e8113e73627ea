//! Device-sharded H2 matvec: **plan → execute → price**.
//!
//! The paper's multi-GPU scheme (§IV.B) is one decision — which device owns
//! which node of a level, and which `x̂`/`ŷ` reads therefore cross a device
//! boundary — and this module writes it once:
//!
//! * [`plan_matvec`] lays the three-pass algorithm out as a [`Schedule`]:
//!   per epoch the flops, launches and workspace bytes of every device and
//!   the explicit [`Transfer`] list. It is the only function that evaluates
//!   [`h2_runtime::owner`], the activity guards and the
//!   [`h2_runtime::multidev::cost`] formulas.
//! * [`shard_matvec`] **executes** it through `DeviceFabric::execute`,
//!   whose jobs run the in-process product's [`h2_matrix::ApplyPhases`]
//!   kernels over each device's node chunk.
//! * [`Schedule::makespan`] **prices** it with the rule
//!   [`ExecReport::modeled_makespan`] applies to the measured counts, so
//!   bytes, flops and makespan agree by construction;
//!   [`ExecReport::check`] compares a run with its plan exactly, and
//!   `simulate_matvec` is this crate's name for the plan seen as a
//!   prediction.
//!
//! ## The plan
//!
//! Nodes of a level shard over the devices in contiguous chunks
//! (§IV.A). Per pass (§IV.B communication):
//!
//! * **upsweep** (leaf level first) — a based parent whose child lives
//!   across a chunk boundary reads that child's `x̂` through a
//!   [`TransferKind::ChildGather`] (the matvec analogue of the line-24
//!   sibling merge);
//! * **coupling** — reading the `x̂_t` of an off-device partner is a
//!   [`TransferKind::OmegaFetch`], deduplicated per `(device, partner)`
//!   per level by the [`FetchPlanner`] the construction's `Ω_b` fetches
//!   use;
//! * **downsweep** — a child on a different device than its parent reads
//!   the parent's `ŷ` partial sum ([`TransferKind::PartialSum`]). `ŷ`
//!   activity is structural: `ŷ_s` is live iff the node has far-field rank
//!   and either couples directly or inherits a live parent;
//! * **leaves** — basis expansion plus the dense near field; leaf row
//!   ranges are disjoint, so the output assembles without a reduction.
//!
//! The two execution disciplines differ only in the data:
//!
//! * synchronous — one epoch per level and pass, every transfer issued in
//!   the epoch whose jobs read it;
//! * pipelined — upsweep gathers are **issued one level ahead** (their
//!   predicate is basis shapes only), so level *l*'s copies run behind
//!   level *l+1*'s compute and are accounted to the epoch that issued
//!   them; and **all coupling levels share one epoch**, every fetch
//!   prefetched up front, so a device that finishes level *l* starts level
//!   *l+1* instead of idling at a per-level join and the projection sees
//!   `max_dev Σ_levels` instead of `Σ_levels max_dev`.
//!
//! ## The execution
//!
//! `x̂`, `ŷ` and the leaf output blocks live in slot tables the jobs write
//! directly. A device's coupling and leaf jobs run the in-process product's
//! chunk kernel ([`h2_matrix::ApplyPhases::traverse_chunk`]) over its
//! contiguous node chunk of the level, so each stored symmetric block is
//! read once per chunk, and the bits do not depend on where chunks start:
//! the sharded product equals the in-process one (`LinOp::apply` on
//! [`H2Matrix`]) bit for bit at every device count, in both disciplines. On a pipelined fabric the
//! upsweep and coupling epochs run in one chain scope of
//! `DeviceFabric::execute`: each level's flush records a dependency
//! boundary instead of blocking, the next level's jobs are gated on its
//! completion tickets across devices (per-device FIFO order covers the
//! same-device edges), and one real barrier closes the scope.
//!
//! The global input `x` (and the stored blocks) are treated as
//! device-resident, consistent with the construction plan treating the
//! generator and initial sample scatter as free — only `x̂`/`ŷ` movement
//! counts.

use crate::fabric::{DeviceFabric, ExecReport};
use h2_dense::Mat;
use h2_matrix::H2Matrix;
use h2_runtime::multidev::cost;
use h2_runtime::{
    owner, FetchPlanner, PipelineMode, Precision, Schedule, ScheduleEpoch, Transfer, TransferKind,
};

/// [`ScheduleEpoch::kernel`] names of the four passes.
const UPSWEEP: &str = "upsweep";
const COUPLING: &str = "coupling";
const DOWNSWEEP: &str = "downsweep";
const LEAVES: &str = "leaves";

/// The sharded matvec `y = K x` (or `Kᵀ x`) at width `d` as a [`Schedule`],
/// from the matrix structure alone (basis shapes and the partition) — see
/// the module docs for the layout. `wire` sizes every transfer and arena
/// charge; `mode` decides the epoch structure and the makespan projection.
pub fn plan_matvec(
    h2: &H2Matrix,
    d: usize,
    devices: usize,
    mode: PipelineMode,
    wire: Precision,
    transpose: bool,
) -> Schedule {
    let pipelined = mode == PipelineMode::Pipelined;
    let ph = h2.apply_phases(transpose);
    let (in_basis, out_basis) = (ph.in_basis(), ph.out_basis());
    let tree = &h2.tree;
    let far_of = &h2.partition.far_of;
    let leaf_level = tree.leaf_level();
    let elem = wire.bytes();
    let mut epochs: Vec<ScheduleEpoch> = Vec::new();

    // One `rows × d` block read across a device boundary.
    let read = |src: usize, dst: usize, rows: usize, kind: TransferKind| Transfer {
        src,
        dst,
        bytes: cost::fetch_bytes_p(rows, d, wire),
        kind,
        prec: wire,
    };

    // ---- upsweep: x̂_τ, leaf level first ----
    let gathers = |l: usize| -> Vec<Transfer> {
        let mut out = Vec::new();
        if l >= leaf_level {
            return out;
        }
        let (nl, ncl) = (tree.level_len(l), tree.level_len(l + 1));
        for (local, id) in tree.level(l).enumerate() {
            if in_basis[id].cols() == 0 {
                continue;
            }
            let dev = owner(local, nl, devices);
            let (c1, c2) = tree.nodes[id].children.unwrap();
            for c in [c1, c2] {
                let cdev = owner(tree.local_index(c), ncl, devices);
                if cdev != dev && in_basis[c].cols() > 0 {
                    out.push(read(
                        cdev,
                        dev,
                        in_basis[c].cols(),
                        TransferKind::ChildGather,
                    ));
                }
            }
        }
        out
    };
    // Level whose gathers the previous epoch already issued.
    let mut ahead: Option<usize> = None;
    for l in (0..tree.nlevels()).rev() {
        let nl = tree.level_len(l);
        let mut e = ScheduleEpoch::blank(UPSWEEP, format!("matvec upsweep L{l}"), devices);
        let mut any = false;
        for (local, id) in tree.level(l).enumerate() {
            let v = &in_basis[id];
            if v.cols() == 0 {
                continue;
            }
            any = true;
            let dev = owner(local, nl, devices);
            e.flops[dev] += cost::upsweep_flops(v.rows(), v.cols(), d);
            e.arena[dev] += v.cols() * d * elem;
        }
        if !any {
            // No based node, hence no gathers either: no epoch, and the
            // level above issues its own gathers.
            continue;
        }
        e.run_level(l, nl);
        let at = epochs.len();
        if ahead.take() != Some(l) {
            e.transfers.extend(gathers(l).into_iter().map(|t| (t, at)));
        }
        if pipelined && l > 0 {
            // Non-empty only if level l-1 has based nodes, i.e. only if
            // its epoch is the next one.
            e.transfers
                .extend(gathers(l - 1).into_iter().map(|t| (t, at + 1)));
            ahead = Some(l - 1);
        }
        epochs.push(e);
    }

    // ---- coupling: ŷ_s = Σ_t op(B) x̂_t, partner reads deduplicated per
    // (device, partner) per level. Synchronous: one epoch per level.
    // Pipelined: one epoch for all levels, closed unconditionally. ----
    let mut merged =
        pipelined.then(|| ScheduleEpoch::blank(COUPLING, "matvec coupling (overlapped)", devices));
    let mut prev_ws = vec![0usize; devices];
    for l in 0..tree.nlevels() {
        let nl = tree.level_len(l);
        let mut own = ScheduleEpoch::blank(COUPLING, format!("matvec coupling L{l}"), devices);
        let e = merged.as_mut().unwrap_or(&mut own);
        // Level workspace per device: outputs plus landed fetches.
        let mut ws = vec![0usize; devices];
        let mut fetches = FetchPlanner::new(nl, devices, wire);
        let mut any = false;
        for (local, s) in tree.level(l).enumerate() {
            if far_of[s].is_empty() {
                continue;
            }
            any = true;
            let dev = owner(local, nl, devices);
            let ks = out_basis[s].cols();
            ws[dev] += ks * d * elem;
            for &t in &far_of[s] {
                let kt = in_basis[t].cols();
                if ks == 0 || kt == 0 {
                    continue;
                }
                e.flops[dev] += cost::bsr_flops(ks, kt, d);
                fetches.visit(local, tree.local_index(t), kt, d);
            }
        }
        if !any {
            continue;
        }
        for fetch in fetches.into_plan() {
            ws[fetch.dst] += fetch.bytes as usize;
            e.transfers.push((fetch, epochs.len()));
        }
        e.run_level(l, nl);
        // Double-buffered workspace discipline inside a merged epoch: a
        // device's level-l workspace is dead once its level-l job drains,
        // while level l+1's is already marshaled — the live peak is the
        // largest *adjacent pair* of level workspaces, not their sum.
        for dev in 0..devices {
            e.arena[dev] = e.arena[dev].max(prev_ws[dev] + ws[dev]);
        }
        if pipelined {
            prev_ws = ws;
        } else {
            epochs.push(own);
        }
    }
    epochs.extend(merged);

    // ---- downsweep: a child goes live when its parent is live and it has
    // rank; partial-sum reads are per child, not deduplicated ----
    let mut live: Vec<bool> = (0..tree.nodes.len())
        .map(|s| !far_of[s].is_empty() && out_basis[s].cols() > 0)
        .collect();
    for l in 1..=leaf_level {
        let (nl, np) = (tree.level_len(l), tree.level_len(l - 1));
        let mut e = ScheduleEpoch::blank(DOWNSWEEP, format!("matvec downsweep L{l}"), devices);
        let mut any = false;
        for (local, child) in tree.level(l).enumerate() {
            let parent = tree.nodes[child].parent.expect("non-root node");
            let kc = out_basis[child].cols();
            if !live[parent] || kc == 0 {
                continue;
            }
            any = true;
            live[child] = true;
            let dev = owner(local, nl, devices);
            let kp = out_basis[parent].cols();
            e.flops[dev] += cost::upsweep_flops(kc, kp, d);
            let pdev = owner(tree.local_index(parent), np, devices);
            if pdev != dev {
                e.transfers
                    .push((read(pdev, dev, kp, TransferKind::PartialSum), epochs.len()));
            }
        }
        if any {
            e.run_level(l, nl);
            epochs.push(e);
        }
    }

    // ---- leaf expansion + dense near field (no transfers) ----
    let nl = tree.level_len(leaf_level);
    let mut e = ScheduleEpoch::blank(LEAVES, "matvec leaves", devices);
    for (local, s) in tree.level(leaf_level).enumerate() {
        let dev = owner(local, nl, devices);
        let rows = tree.nodes[s].len();
        e.arena[dev] += rows * d * elem;
        if live[s] {
            e.flops[dev] += cost::upsweep_flops(rows, out_basis[s].cols(), d);
        }
        for &t in &h2.partition.near_of[s] {
            e.flops[dev] += cost::bsr_flops(rows, tree.nodes[t].len(), d);
        }
    }
    e.run_level(leaf_level, nl);
    epochs.push(e);

    Schedule {
        devices,
        mode,
        wire,
        epochs,
    }
}

/// `y = K x` (or `Kᵀ x`) executed sharded on the fabric, in tree-permuted
/// coordinates: [`plan_matvec`] for the fabric's device count, mode and
/// wire precision, run by `DeviceFabric::execute`. Bit-identical to the
/// in-process `LinOp::apply` / `LinOp::apply_transpose` — each device
/// runs the same [`h2_matrix::ApplyPhases`] kernels over its node chunks,
/// only the scheduling differs.
pub fn shard_matvec(fabric: &DeviceFabric, h2: &H2Matrix, x: &Mat, transpose: bool) -> Mat {
    let n = h2.n();
    assert_eq!(x.rows(), n, "shard_matvec: x rows");
    let d = x.cols();
    let devices = fabric.devices();
    let plan = plan_matvec(h2, d, devices, fabric.mode(), fabric.wire(), transpose);
    let ph = h2.apply_phases(transpose);
    let tree = &h2.tree;
    let nnodes = tree.nodes.len();
    let rows_of = |t: usize| {
        let (b, e) = tree.range(t);
        x.view(b, 0, e - b, d)
    };

    // Slot tables the jobs write directly: x̂, ŷ, and the output rows of
    // each leaf.
    let mut xhat: Vec<Mat> = vec![Mat::zeros(0, 0); nnodes];
    let mut yhat = xhat.clone();
    let mut rows_out = xhat.clone();
    let (xhat_addr, yhat_addr, out_addr) = (
        xhat.as_mut_ptr() as usize,
        yhat.as_mut_ptr() as usize,
        rows_out.as_mut_ptr() as usize,
    );
    // Upsweep and coupling — the leading epochs — hand off inside one
    // chain scope (module docs).
    let chained = |e: &ScheduleEpoch| e.kernel == UPSWEEP || e.kernel == COUPLING;
    fabric.execute(&plan, tree, chained, |kernel, ids| {
        // SAFETY: a job writes only the slots of its own chunk — x̂ and ŷ of
        // the level's nodes it owns, the output of its leaves — and every
        // slot it reads was written by a job of an earlier level or pass,
        // ordered before it by a barrier, by the chain scope's completion
        // tickets (other devices) or by queue order (same device). The host
        // touches the tables only after `execute` returns.
        let table =
            |addr: usize| unsafe { std::slice::from_raw_parts_mut(addr as *mut Mat, nnodes) };
        let (xh, yh, out) = (table(xhat_addr), table(yhat_addr), table(out_addr));
        let lo = ids.start;
        match kernel {
            UPSWEEP => {
                for id in ids {
                    if let Some(m) = ph.upsweep_node(id, x.rf(), xh) {
                        xh[id] = m;
                    }
                }
            }
            COUPLING => {
                for s in ids.clone() {
                    yh[s] = ph.coupling_acc(s, d);
                }
                let far_of = &h2.partition.far_of;
                ph.traverse_chunk(&h2.coupling, far_of, &|t| xh[t].rf(), lo, &mut yh[ids]);
            }
            DOWNSWEEP => {
                for id in ids {
                    if let Some(m) = ph.downsweep_child(id, yh, d) {
                        if yh[id].rows() == 0 {
                            yh[id] = m;
                        } else {
                            yh[id].axpy(1.0, &m);
                        }
                    }
                }
            }
            LEAVES => {
                for s in ids.clone() {
                    out[s] = ph.expand_leaf(s, yh, d);
                }
                let near_of = &h2.partition.near_of;
                ph.traverse_chunk(&h2.dense, near_of, &rows_of, lo, &mut out[ids]);
            }
            other => unreachable!("matvec plan names kernel {other}"),
        }
    });

    let mut y = Mat::zeros(n, d);
    for s in tree.level(tree.leaf_level()) {
        y.view_mut(tree.range(s).0, 0, tree.nodes[s].len(), d)
            .copy_from(rows_out[s].rf());
    }
    y
}

/// [`shard_matvec`] with a fresh accounting scope: resets the fabric, runs,
/// and returns the result together with the execution report.
pub fn shard_matvec_with_report(
    fabric: &DeviceFabric,
    h2: &H2Matrix,
    x: &Mat,
    transpose: bool,
) -> (Mat, ExecReport) {
    fabric.reset();
    let y = shard_matvec(fabric, h2, x, transpose);
    (y, fabric.report("matvec tail"))
}
