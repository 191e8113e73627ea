//! Sharded construction drivers and the simulator cross-validation.
//!
//! [`shard_construct`] / [`shard_construct_unsym`] run Algorithm 1 on a
//! [`DeviceFabric`]-backed [`Runtime`]: every batched kernel of the level
//! loop (both sketch streams of the unsymmetric engine) executes its
//! contiguous per-device chunks on the fabric's worker threads, with the
//! `Ω_b` fetches and boundary sibling merges of §IV.B recorded on the
//! explicit transfer queue. The construction's level markers close one
//! accounting epoch per processed level, so the returned [`ExecReport`]
//! lines up one-to-one with the `LevelSpec`s of
//! [`h2_core::level_specs`] — [`compare_with_simulator`] checks that the
//! executor moved exactly the work and bytes the closed-form
//! [`h2_runtime::simulate`] model predicts.

use crate::fabric::{DeviceFabric, ExecReport};
use h2_core::{sketch_construct, sketch_construct_unsym, SketchConfig, SketchStats};
use h2_dense::{EntryAccess, LinOp};
use h2_fault::{FaultPlan, OccurrenceMap};
use h2_matrix::H2Matrix;
use h2_runtime::{
    simulate_prec_mode, transfer_census, DeviceModel, LevelSpec, Runtime, Schedule, ShardDispatch,
};
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

/// Measured-vs-simulated comparison of one construction run on the same
/// [`LevelSpec`]s.
///
/// With a non-adaptive pass (no extra sampling rounds, which is the regime
/// `level_specs` describes) the executor performs *exactly* the kernel
/// populations of the specs, so the modeled work and traffic totals agree
/// to rounding — in **both** fabric modes: the pipelined executor issues
/// the same transfer descriptors (early, as prefetches) and attributes the
/// same owner-chunk flops, so `bytes_match` holds exactly regardless of
/// overlap. The makespans agree only up to scheduling detail — the
/// simulator round-robins generator blocks over one concatenated per-level
/// list and charges `active·(6 + Csp)` launches, while the executor issues
/// its real launch pattern — so [`SimComparison::makespan_ratio`] is
/// checked against a documented factor rather than equality: **3x** for
/// the synchronous fabric (exposed per-batch communication and join
/// pattern differences), tightened to **2x** for the pipelined fabric,
/// whose overlap-aware projection ([`ExecReport::modeled_makespan`])
/// hides transfer time behind compute exactly the way the simulator's
/// serialized formula cannot exceed.
#[derive(Clone, Debug)]
pub struct SimComparison {
    /// Executor work total, in flop-equivalents under the model.
    pub measured_flop_equiv: f64,
    /// Simulator work total (compute seconds × flop rate).
    pub predicted_flop_equiv: f64,
    /// Executor bytes on the transfer queue.
    pub measured_bytes: u64,
    /// Simulator cross-device traffic.
    pub predicted_bytes: u64,
    /// Executor counts projected through the model (see
    /// [`ExecReport::modeled_makespan`]).
    pub measured_makespan: f64,
    /// Simulator makespan.
    pub predicted_makespan: f64,
}

impl SimComparison {
    /// A run measured against the [`Schedule`] it executed: the plan's
    /// totals and [`Schedule::makespan`] are the prediction.
    pub fn of_plan(report: &ExecReport, plan: &Schedule, model: &DeviceModel) -> Self {
        SimComparison {
            measured_flop_equiv: report.flop_equiv(model.entry_cost),
            predicted_flop_equiv: plan.total_flops(),
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

/// Compare an execution report against the simulator's prediction for the
/// same level specs, sample width and device count. The simulator runs
/// under the report's own execution discipline
/// ([`h2_runtime::simulate_prec_mode`]), so both sides compose their
/// per-level compute/comm/launch terms the same way and the makespan band
/// measures population drift, not mode mismatch.
pub fn compare_with_simulator(
    report: &ExecReport,
    specs: &[LevelSpec],
    d_samples: usize,
    model: &DeviceModel,
) -> SimComparison {
    let sim = simulate_prec_mode(
        specs,
        d_samples,
        report.devices,
        model,
        report.wire,
        report.mode,
    );
    SimComparison {
        measured_flop_equiv: report.flop_equiv(model.entry_cost),
        predicted_flop_equiv: sim.compute_total() * model.flops_per_sec,
        measured_bytes: report.total_comm_bytes(),
        predicted_bytes: sim.total_comm_bytes,
        measured_makespan: report.modeled_makespan(model),
        predicted_makespan: sim.makespan,
    }
}

/// Predicted retry traffic of one faulted construction:
/// `(retry_bytes, retry_messages)` over the executor-granularity transfer
/// multiset of [`h2_runtime::transfer_census`], replaying the plan's
/// per-fingerprint occurrence draws exactly as the fabric does. Because
/// fault decisions are pure functions of `(seed, fingerprint, occurrence,
/// attempt)` and the census enumerates the same multiset of fingerprints
/// the executor issues, the predicted retry bytes equal the fabric's
/// charged re-transfer bytes *exactly* — the faulted extension of the
/// byte-equality trust invariant.
pub fn predicted_fault_traffic(
    specs: &[LevelSpec],
    d_samples: usize,
    devices: usize,
    wire: h2_runtime::Precision,
    plan: &FaultPlan,
) -> (u64, usize) {
    let mut occ = OccurrenceMap::new();
    let (mut bytes, mut msgs) = (0u64, 0usize);
    for t in transfer_census(specs, d_samples, devices, wire) {
        let fp = t.fingerprint();
        let failures = plan.failed_attempts(fp, occ.next(fp));
        bytes += failures as u64 * t.bytes;
        msgs += failures as usize;
    }
    (bytes, msgs)
}

/// [`SimComparison`] extended with the fault plan's predicted retry
/// traffic: the executor's measured bytes (which include every charged
/// re-transfer) are checked against `sim + retries` instead of `sim`.
#[derive(Clone, Debug)]
pub struct FaultComparison {
    /// The fault-free comparison (its `predicted_bytes` excludes retries).
    pub base: SimComparison,
    /// Retry bytes the plan predicts over the transfer census.
    pub predicted_retry_bytes: u64,
    /// Retry messages the plan predicts over the transfer census.
    pub predicted_retry_messages: usize,
}

impl FaultComparison {
    /// Total predicted bytes including retry traffic.
    pub fn predicted_bytes(&self) -> u64 {
        self.base.predicted_bytes + self.predicted_retry_bytes
    }

    /// Whether the executor's byte total (retries included) exactly equals
    /// the extended simulator's prediction.
    pub fn bytes_match(&self) -> bool {
        self.base.measured_bytes == self.predicted_bytes()
    }
}

/// Compare a faulted execution report against the simulator's prediction
/// extended with `plan`'s deterministic retry traffic. The base
/// comparison is [`compare_with_simulator`] unchanged; on top of it the
/// census replay predicts exactly which transfers fail how many attempts
/// and therefore how many re-transfer bytes the fabric charged.
pub fn compare_with_simulator_faulted(
    report: &ExecReport,
    specs: &[LevelSpec],
    d_samples: usize,
    model: &DeviceModel,
    plan: &FaultPlan,
) -> FaultComparison {
    let base = compare_with_simulator(report, specs, d_samples, model);
    let (predicted_retry_bytes, predicted_retry_messages) =
        predicted_fault_traffic(specs, d_samples, report.devices, report.wire, plan);
    FaultComparison {
        base,
        predicted_retry_bytes,
        predicted_retry_messages,
    }
}
