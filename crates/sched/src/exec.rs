//! Sharded construction drivers and the plan cross-check.
//!
//! [`shard_construct`] / [`shard_construct_unsym`] run Algorithm 1 on a
//! [`DeviceFabric`]-backed [`Runtime`]: every batched kernel of the level
//! loop (both sketch streams of the unsymmetric engine) executes its
//! contiguous per-device chunks on the fabric's worker threads, with the
//! `Ω_b` fetches and boundary sibling merges of §IV.B recorded on the
//! explicit transfer queue. The construction's level markers close one
//! accounting epoch per processed level. **Plan → execute → price**:
//! [`h2_core::plan_construct`] lays the same pass out as a [`Schedule`],
//! the fabric executes the construction and records, epoch by epoch, the
//! plan's counts and transfer records, and [`Schedule::makespan`] prices
//! the plan with the rule [`ExecReport::modeled_makespan`] prices the run
//! with — [`compare_with_simulator`] checks the two agree.

use crate::fabric::{DeviceFabric, ExecReport};
use h2_core::{
    plan_construct, sketch_construct, sketch_construct_unsym, SketchConfig, SketchStats,
};
use h2_dense::{EntryAccess, LinOp};
use h2_fault::{FaultPlan, OccurrenceMap};
use h2_matrix::H2Matrix;
use h2_runtime::{DeviceModel, Runtime, Schedule, ShardDispatch};
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

/// Symmetric sketching construction executed on the device fabric.
/// Resets the fabric, runs, and returns the result together with the
/// fabric's execution report (one epoch per processed level).
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

/// Unsymmetric (two-stream) sketching construction executed on the device
/// fabric. Both the `Y = K Ω` and `Z = Kᵀ Ψ` streams shard.
pub fn shard_construct_unsym(
    fabric: &Arc<DeviceFabric>,
    sampler: &dyn LinOp,
    gen: &dyn EntryAccess,
    tree: Arc<ClusterTree>,
    partition: Arc<Partition>,
    cfg: &SketchConfig,
) -> (H2Matrix, SketchStats, ExecReport) {
    fabric.reset();
    let rt = sharded_runtime(fabric);
    let (h2, stats) = sketch_construct_unsym(sampler, gen, tree, partition, &rt, cfg);
    (h2, stats, fabric.report("construct tail"))
}

/// A sharded run measured against the [`Schedule`] it executed: work,
/// traffic and makespan, each on both sides. For every planned operation —
/// the construction ([`compare_with_simulator`]), the matvec and the ULV
/// sweep — the executor records the plan's counts, so `bytes_match` holds,
/// the work totals agree and [`SimComparison::makespan_ratio`] is exactly 1.
#[derive(Clone, Debug)]
pub struct SimComparison {
    /// Executor work total, in flop-equivalents under the model.
    pub measured_flop_equiv: f64,
    /// Planned work total, in the same currency.
    pub predicted_flop_equiv: f64,
    /// Executor bytes on the transfer queue.
    pub measured_bytes: u64,
    /// Planned cross-device traffic.
    pub predicted_bytes: u64,
    /// Executor counts projected through the model (see
    /// [`ExecReport::modeled_makespan`]).
    pub measured_makespan: f64,
    /// [`Schedule::makespan`] of the plan.
    pub predicted_makespan: f64,
}

impl SimComparison {
    /// A run measured against the [`Schedule`] it executed: the plan's
    /// totals and [`Schedule::makespan`] are the prediction.
    pub fn of_plan(report: &ExecReport, plan: &Schedule, model: &DeviceModel) -> Self {
        SimComparison {
            measured_flop_equiv: report.flop_equiv(model.entry_cost),
            predicted_flop_equiv: plan.flop_equiv(model.entry_cost),
            measured_bytes: report.total_comm_bytes(),
            predicted_bytes: plan.total_comm_bytes(),
            measured_makespan: report.modeled_makespan(model),
            predicted_makespan: plan.makespan(model),
        }
    }

    /// Relative flop-equivalent discrepancy.
    pub fn flops_rel_err(&self) -> f64 {
        let scale = self.predicted_flop_equiv.max(1.0);
        (self.measured_flop_equiv - self.predicted_flop_equiv).abs() / scale
    }

    /// Whether byte totals agree exactly.
    pub fn bytes_match(&self) -> bool {
        self.measured_bytes == self.predicted_bytes
    }

    /// `measured / predicted` makespan ratio (1.0 = perfect agreement).
    pub fn makespan_ratio(&self) -> f64 {
        if self.predicted_makespan == 0.0 {
            return 1.0;
        }
        self.measured_makespan / self.predicted_makespan
    }
}

/// Compare a sharded construction's report against
/// [`h2_core::plan_construct`] for the constructed matrix at sample width
/// `d` and the report's own device count, mode and wire.
pub fn compare_with_simulator(
    report: &ExecReport,
    h2: &H2Matrix,
    d: usize,
    model: &DeviceModel,
) -> SimComparison {
    let plan = plan_construct(h2, d, report.devices, report.mode, report.wire);
    SimComparison::of_plan(report, &plan, model)
}

/// Predicted retry traffic of one faulted run of `plan`:
/// `(retry_bytes, retry_messages)` from replaying the fault plan over the
/// plan's transfers in issue order, drawing per-fingerprint occurrences
/// exactly as the fabric does. Fault decisions are pure functions of
/// `(seed, fingerprint, occurrence, attempt)` and the plan lists the
/// executor's transfer records, so the prediction equals the fabric's
/// charged re-transfers *exactly* — the faulted extension of the
/// byte-equality invariant.
pub fn predicted_fault_traffic(plan: &Schedule, faults: &FaultPlan) -> (u64, usize) {
    let mut occ = OccurrenceMap::new();
    let (mut bytes, mut msgs) = (0u64, 0usize);
    for (t, _) in plan.epochs.iter().flat_map(|e| &e.transfers) {
        let fp = t.fingerprint();
        let failures = faults.failed_attempts(fp, occ.next(fp));
        bytes += failures as u64 * t.bytes;
        msgs += failures as usize;
    }
    (bytes, msgs)
}

/// [`SimComparison`] extended with the fault plan's predicted retry
/// traffic: the executor's measured bytes (which include every charged
/// re-transfer) are checked against `plan + retries` instead of `plan`.
#[derive(Clone, Debug)]
pub struct FaultComparison {
    /// The fault-free comparison (its `predicted_bytes` excludes retries).
    pub base: SimComparison,
    /// Retry bytes [`predicted_fault_traffic`] predicts.
    pub predicted_retry_bytes: u64,
    /// Retry messages [`predicted_fault_traffic`] predicts.
    pub predicted_retry_messages: usize,
}

impl FaultComparison {
    /// Total predicted bytes including retry traffic.
    pub fn predicted_bytes(&self) -> u64 {
        self.base.predicted_bytes + self.predicted_retry_bytes
    }

    /// Whether the executor's byte total (retries included) exactly equals
    /// the plan's bytes plus the predicted retries.
    pub fn bytes_match(&self) -> bool {
        self.base.measured_bytes == self.predicted_bytes()
    }
}

/// [`compare_with_simulator`] for a run under the fault plan `faults`, with
/// the retry traffic [`predicted_fault_traffic`] replays over the same plan.
pub fn compare_with_simulator_faulted(
    report: &ExecReport,
    h2: &H2Matrix,
    d: usize,
    model: &DeviceModel,
    faults: &FaultPlan,
) -> FaultComparison {
    let plan = plan_construct(h2, d, report.devices, report.mode, report.wire);
    let (predicted_retry_bytes, predicted_retry_messages) = predicted_fault_traffic(&plan, faults);
    FaultComparison {
        base: SimComparison::of_plan(report, &plan, model),
        predicted_retry_bytes,
        predicted_retry_messages,
    }
}
