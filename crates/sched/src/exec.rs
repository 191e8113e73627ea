//! Sharded construction driver. [`shard_construct`] runs Algorithm 1 on a
//! [`DeviceFabric`]-backed [`Runtime`]: every batched kernel of the level
//! loop (both sketch streams when [`SketchConfig::symmetric`] is `false`)
//! executes its contiguous per-device chunks on the fabric's workers, the
//! `Ω_b` fetches and boundary sibling merges of §IV.B go on the explicit
//! transfer queue, and each processed level closes one accounting epoch,
//! charged from the plan. Every run is its plan:
//! [`h2_core::plan_construct`] lays the run out — its configuration and the
//! adaptive rounds its statistics record — with the per-level step each
//! epoch is charged from, and [`ExecReport::check`] compares the two
//! exactly, the transfers the kernels issued live included. The
//! construction engine itself knows no device: the per-level fabric step
//! that charges the epochs, issues the pipelined next-level fetches and
//! keeps the recovery ledger lives in [`h2_core::multidev`], beside the
//! planner.

use crate::fabric::{DeviceFabric, ExecReport};
use h2_core::{sketch_construct, SketchConfig, SketchStats};
use h2_dense::{EntryAccess, LinOp};
use h2_matrix::H2Matrix;
use h2_runtime::{Runtime, ShardDispatch};
use h2_tree::{ClusterTree, Partition};
use std::sync::Arc;

/// A [`Runtime`] whose batched kernels execute sharded on `fabric`.
pub fn sharded_runtime(fabric: &Arc<DeviceFabric>) -> Runtime {
    let rt = Runtime::sharded(fabric.clone() as Arc<dyn ShardDispatch>);
    match fabric.tracer() {
        Some(t) => rt.with_tracer(t),
        None => rt,
    }
}

/// Sketching construction executed on the device fabric, symmetric or
/// unsymmetric as [`SketchConfig::symmetric`] says (both the `Y = K Ω` and
/// the `Z = Kᵀ Ψ` stream shard). Resets the fabric, runs, and returns the
/// result together with the fabric's execution report (one epoch per
/// processed level).
pub fn shard_construct(
    fabric: &Arc<DeviceFabric>,
    sampler: &dyn LinOp,
    gen: &dyn EntryAccess,
    tree: Arc<ClusterTree>,
    partition: Arc<Partition>,
    cfg: &SketchConfig,
) -> (H2Matrix, SketchStats, ExecReport) {
    fabric.reset();
    let rt = sharded_runtime(fabric);
    let (h2, stats) = sketch_construct(sampler, gen, tree, partition, &rt, cfg);
    (h2, stats, fabric.report("construct tail"))
}
