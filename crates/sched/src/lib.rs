//! # h2-sched
//!
//! A real device-sharded executor for the batched H2 construction, matvec
//! and ULV sweep — the multi-GPU decomposition of the paper's §IV.B,
//! *executed* rather than only modeled.
//!
//! A [`DeviceFabric`] of N virtual devices runs the construction level
//! loop, the three-pass matvec and the ULV sweeps sharded, measures
//! per-device timing, and records every cross-device byte on an explicit
//! transfer queue — so each run can be checked against the [`Schedule`] it
//! was planned as.
//!
//! ## Paper mapping
//!
//! | component | paper |
//! |---|---|
//! | [`DeviceFabric`] — N worker threads, one per virtual device, each with a memory arena and a work/traffic account | §IV.B "the batches of each level are divided among the GPUs" |
//! | contiguous node chunks per level ([`h2_runtime::chunk_bounds`] / [`h2_runtime::owner`]) | §IV.A level-contiguous storage: chunking keeps siblings on one device except at boundaries |
//! | [`TransferKind::OmegaFetch`] queue entries | §IV.B: `batchedBSRGemm` is the only batched op that must fetch off-device inputs `Ω_b` |
//! | [`TransferKind::ChildGather`] queue entries | §IV.B: line-24 child stacking when a sibling pair straddles devices |
//! | per-device arena, reset per epoch | §IV.A: one workspace allocation per level from a parallel prefix sum |
//! | epochs (one per level / matvec phase) | Algorithm 1's sequential level loop |
//!
//! ## Entry points
//!
//! Every sharded operation is written once, as a [`Schedule`] — epochs ×
//! per-device flops / generator entries / launches / workspace × the
//! explicit transfer list — that the fabric **executes** and one pricing
//! rule ([`h2_runtime::epoch_terms`], shared by [`Schedule::makespan`],
//! [`ExecReport::modeled_makespan`] and [`drift`]) **prices**. Every run is
//! its plan: [`ExecReport::check`] compares the two exactly, fault-plan
//! retries included, so a run's measured makespan equals its planned one.
//!
//! * [`plan_construct`] → [`shard_construct`] — Algorithm 1 on the fabric,
//!   in either symmetry regime ([`h2_core::SketchConfig::symmetric`]),
//!   through the `Runtime::sharded` backend,
//!   whose kernels issue their transfers by the plan's rules
//!   ([`h2_runtime::FetchPlanner`], [`h2_runtime::child_gathers`]) and
//!   count nothing: each level's epoch is charged from the plan's
//!   per-level step, which reads the run's configuration and statistics,
//!   adaptive rounds included.
//! * [`plan_matvec`] → [`shard_matvec`] and [`plan_ulv_solve`] →
//!   [`shard_ulv_solve_into`] (or [`shard_ulv_solve_with_report`]) —
//!   the three-pass matvec and the ULV sweeps (upsweep-ordered eliminate,
//!   root solve, downsweep-ordered substitute) planned, run by the one plan
//!   executor `DeviceFabric::execute` over the in-process node kernels
//!   (the matvec's device chunks run `h2_matrix`'s chunk kernel
//!   [`h2_matrix::ApplyPhases::traverse_chunk`], the sweep
//!   `h2_solve::UlvSweep`), so outputs are bit-identical to the in-process
//!   product and solve, and priced. [`simulate_matvec`] is the matvec plan
//!   under the name the end-to-end benchmark uses; [`drift`] reports
//!   per-epoch terms against the plans. [`FabricOp`] and
//!   [`UlvFabricPrecond`] plug the sharded matvec and sweep into the Krylov
//!   methods as a `LinOp`/`Preconditioner` pair.
//!
//! Results are bitwise-deterministic: every batched kernel computes
//! identical per-entry arithmetic regardless of the device count, so a
//! 7-device construction equals the single-device one exactly — the
//! property the equivalence tests in `tests/equivalence.rs` pin down.
//!
//! ## Pipelined execution
//!
//! [`DeviceFabric::pipelined`] switches the fabric from fork-join-per-batch
//! to an overlapped schedule, each piece described in the [`fabric`] module
//! docs: ordered per-device queues whose jobs carry completion tickets
//! ([`DeviceFabric::enqueue`]; [`DeviceFabric::flush`] is the only
//! barrier); chain scopes ([`DeviceFabric::chain_begin`], opened by
//! [`h2_runtime::Runtime::chained`]) that turn a sequence of kernels — the
//! construction level's `bsr_gemm → stack_children` and `shrink_rows →
//! gemm_at_x`, the matvec's upsweep→coupling handoff — into one flush scope
//! with one real barrier (everything a chained job borrows is bound outside
//! the scope, and host code inside a scope may plan from shapes but never
//! read job-written data); an asynchronous prefetch stage behind the one
//! transfer-issue call [`DeviceFabric::issue`], through which the
//! construction's per-level fabric step ([`h2_core::multidev`], the one
//! place the construction meets the fabric) issues the next level's
//! `Ω_b`/`Ψ_b` fetches ([`h2_runtime::issue_bsr_fetches`]) as soon as the
//! current level's IDs fix their sizes, their bytes held in the arena of
//! both the issuing and the consuming epoch. Per-device queue order
//! and per-row arithmetic are the same in both modes, so outputs are
//! bit-identical — `tests/pipeline.rs` asserts it, also under an injected
//! transfer-delay hook that randomizes prefetch completion order.
//!
//! Accounting is issue-epoch tagged, and [`ExecReport::modeled_makespan`]
//! projects the measured counters with communication and launch overhead
//! overlapped against compute for pipelined runs
//! ([`h2_runtime::combine_terms`]) — the combination [`Schedule::makespan`]
//! applies to a pipelined plan.
//!
//! ## Resident Krylov vectors
//!
//! [`FabricOp`] / [`UlvFabricPrecond`] keep the Krylov vector shards pinned
//! in the device arenas across iterations ([`solve`] module docs): only one
//! `8·(D−1)`-byte scalar allreduce per global reduction
//! ([`resident_reduce_hook`], recorded as [`TransferKind::VectorStage`])
//! leaves the devices, and `tests/krylov_residency.rs` pins the iterates
//! bit-identical to the host solve and the exact allreduce byte total
//! ([`resident_reduce_bytes`]).
//!
//! ## Resilience
//!
//! The fabric carries a deterministic fault-injection and bounded-recovery
//! layer (crate [`h2_fault`]), designed so that chaos runs stay inside the
//! trust invariant rather than suspending it:
//!
//! * **Deterministic injection** — [`DeviceFabric::set_fault_plan`]
//!   installs a [`FaultPlan`]: every fault decision (transfer drop,
//!   checksum-detectable payload corruption, copy-engine delay spike,
//!   device fail-stop at an epoch, NaN poison in kernel output) is a pure
//!   function of the plan's `u64` seed, the fault site's fingerprint and
//!   its occurrence index — the same plan replays the identical fault
//!   sequence, run after run.
//! * **Bounded, charged retries** — a dropped attempt surfaces at the
//!   plan's detection timeout, a corrupted one at the landing checksum;
//!   each is retried after exponential backoff and recorded right after
//!   its parent transfer, so [`ExecReport::check`] with the [`FaultPlan`]
//!   replays every retry in place, in both fabric modes.
//! * **Typed failures instead of hangs** —
//!   [`DeviceFabric::set_ticket_deadline`] turns a dependency that never
//!   completes into a [`FabricError::TransferTimeout`] raised at the next
//!   barrier; worker job panics are captured, propagate at the barrier,
//!   and leave the fabric reusable (all fabric locks are poison-tolerant).
//! * **Device-loss recovery** — a scheduled fail-stop moves the lost
//!   device's queue routing to the lowest surviving device at the epoch
//!   boundary and bumps [`DeviceFabric::reshard_version`]; ownership and
//!   accounting stay logical, so byte totals are unchanged while the
//!   physical workers shrink. The construction's per-level fabric step
//!   checkpoints per level and replays only the in-flight level on a
//!   version change.
//! * **Poison recovery** — the sketching kernels finite-check their
//!   outputs at the poison sites and deterministically recompute exactly
//!   the poisoned columns, reporting each repair through
//!   [`DeviceFabric::note_recovery`].
//!
//! Under every seeded plan of the chaos grid in `tests/faults.rs`, the
//! constructed `H2Matrix` is **bit-identical** to the fault-free run and
//! the run checks against its plan with the retries replayed — faults
//! change the schedule and the traffic, never the numerics.

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod exec;
pub mod fabric;
pub mod matvec;
pub mod solve;
pub mod trace;

pub use exec::{shard_construct, sharded_runtime};
pub use fabric::{
    DeviceEpochStats, DeviceFabric, Epoch, ExecReport, FaultCounters, LinkModel, TransferDelay,
};
pub use h2_core::plan_construct;
pub use h2_fault::{FabricError, FailStop, FaultKind, FaultPlan, OccurrenceMap};
pub use h2_obs::{ChromeTrace, DriftTable, Registry, Tracer};
pub use h2_runtime::{PipelineMode, Precision, Schedule, ScheduleEpoch, Transfer, TransferKind};
// `simulate_matvec` is the plan read as a prediction; the end-to-end
// benchmark's adapter calls it by that name.
pub use matvec::{
    plan_matvec, plan_matvec as simulate_matvec, shard_matvec, shard_matvec_with_report,
};
pub use solve::{
    plan_ulv_solve, resident_reduce_bytes, resident_reduce_hook, shard_ulv_solve_into,
    shard_ulv_solve_with_report, FabricOp, UlvFabricPrecond,
};
pub use trace::{drift, export_chrome_trace, export_chrome_trace_with_spans};
