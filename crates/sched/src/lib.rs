//! # h2-sched
//!
//! A real device-sharded executor for the batched H2 construction and
//! matvec — the multi-GPU decomposition of the paper's §IV.B, *executed*
//! rather than only simulated.
//!
//! The repo previously modeled multi-device execution with the closed-form
//! cost simulator in [`h2_runtime::multidev`]. This crate adds the other
//! half: a [`DeviceFabric`] of N virtual devices that actually runs the
//! construction level loop and the three-pass matvec sharded, measures
//! per-device timing, and records every cross-device byte on an explicit
//! transfer queue — so the simulator's predictions can be validated against
//! a real execution of the same schedule.
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
//! A sharded operation is meant to be written once, as a
//! [`Schedule`] — epochs × per-device flops / launches / workspace × the
//! explicit transfer list — that the fabric **executes** and one pricing
//! rule ([`h2_runtime::epoch_terms`], shared by [`Schedule::makespan`],
//! [`ExecReport::modeled_makespan`], the construction simulator and the
//! drift tables) **prices**. The matvec and the ULV sweep are on that
//! shape; only the construction level loop still pairs an executor with a
//! separately written simulator.
//!
//! * [`plan_matvec`] → [`shard_matvec`] → [`Schedule::makespan`] — plan,
//!   execute, price. The plan is the only walk over owners, guards and
//!   cost formulas; the executor charges the plan's counts, issues its
//!   transfers ([`DeviceFabric::issue`]) and runs `h2_matrix`'s
//!   [`h2_matrix::ApplyPhases`] node kernels (identical numerics to the
//!   in-process product, different scheduling), so bytes, flops and
//!   modeled makespan equal the plan's by construction.
//!   [`simulate_matvec`] is the same function under the name the
//!   cross-checks use; [`compare_matvec_with_simulator`] and
//!   [`drift_matvec`] report against it.
//! * [`shard_construct`] / [`shard_construct_unsym`] — Algorithm 1 on the
//!   fabric, via the stream-generic engine of `h2_core::construct`: the
//!   symmetric one-stream and unsymmetric two-stream instances shard
//!   through the same `Runtime::sharded` backend.
//!   [`compare_with_simulator`] cross-validates a non-adaptive pass: the
//!   executor performs exactly the kernel populations of
//!   [`h2_core::level_specs`], so its flop and byte totals must equal the
//!   [`h2_runtime::simulate`] prediction (the equivalence tests assert
//!   equality for work/traffic and a 3x band for the makespan, where the
//!   two sides' launch/round-robin details legitimately differ).
//! * [`plan_ulv_solve`] → [`shard_ulv_solve`] → [`Schedule::makespan`] —
//!   the ULV forward/backward triangular sweeps (upsweep-ordered eliminate,
//!   root solve, downsweep-ordered substitute) planned, executed over the
//!   same `h2_solve::UlvSweep` node kernels as the in-process solve, and
//!   priced, exactly like the matvec; [`compare_solve_with_simulator`] and
//!   [`drift_solve`] report against the plan. [`FabricOp`] and
//!   [`UlvFabricPrecond`] plug the sharded matvec and sweep into the
//!   Krylov methods as a `LinOp`/`Preconditioner` pair.
//!
//! Results are bitwise-deterministic: every batched kernel computes
//! identical per-entry arithmetic regardless of the device count, so a
//! 7-device construction equals the single-device one exactly — the
//! property the equivalence tests in `tests/equivalence.rs` pin down.
//!
//! ## Pipelined execution
//!
//! [`DeviceFabric::pipelined`] switches the fabric from fork-join-per-batch
//! to an overlapped schedule built from three pieces:
//!
//! 1. **Ordered per-device queues with job tickets** — [`DeviceFabric::enqueue`]
//!    submits a job without blocking and [`DeviceFabric::flush`] is the only
//!    barrier. Every queued job also gets a **completion ticket** on the
//!    same board the transfer stage uses, so later jobs can be gated on
//!    *jobs*, not only on copies. `batchedBSRGemm` chains all `Csp` slot
//!    launches per device in one queued job (per-row accumulation order
//!    unchanged ⇒ bit-identical results, `Csp − 1` global joins removed),
//!    and the matvec's coupling phase runs every level in one flush scope,
//!    so a device finishing a narrow level immediately starts the next
//!    instead of idling at a per-level join.
//! 2. **Chain scopes** — [`DeviceFabric::chain_begin`] /
//!    [`DeviceFabric::chain_end`] turn a *sequence of kernels* into one
//!    flush scope: inside the scope each kernel's closing `flush` records a
//!    per-device dependency boundary instead of blocking, and the next
//!    kernel's jobs wait on the previous kernel's completion tickets from
//!    *other* devices (same-device ordering is the FIFO queue). The
//!    construction level's `bsr_gemm → stack_children` and
//!    `shrink_rows → gemm_at_x` sequences and the matvec's whole
//!    upsweep→coupling handoff run as such chains — one real barrier per
//!    scope. Everything a chained job borrows must outlive `chain_end`, and
//!    host code inside a scope may plan from shapes but never read
//!    job-written data.
//! 3. **Asynchronous prefetch stage** — transfers are issued as
//!    descriptors on a virtual copy engine ([`DeviceFabric::prefetch_transfer`])
//!    and compute jobs are gated on completion tickets; the construction
//!    level loop *hints* the next level's `Ω_b`/`Ψ_b` fetches as soon as
//!    the current level's IDs fix the block sizes, so the copies run behind
//!    `batchedGen`/upsweep compute. Synchronous mode services the same
//!    descriptors inline (exposed).
//! 4. **Double-buffered arenas** — prefetch-stage charges land in a standby
//!    bank that rotates in at the epoch boundary, modeling level *l+1*'s
//!    workspace being marshaled while level *l*'s is still live.
//!
//! Accounting is **issue-epoch tagged** (transfers and flops are charged to
//! the epoch that issued them, under a single lock), per-device stats grow
//! busy/stall/overlapped/idle durations, and
//! [`ExecReport::modeled_makespan`] projects the measured counters with
//! communication *and launch overhead* overlapped against compute for
//! pipelined runs ([`h2_runtime::combine_terms`]: job-level dependency
//! chaining hides launch gaps behind whichever of compute or communication
//! dominates) — which is what tightens the simulator band from 3x to 2x.
//! The pipeline tests in `tests/pipeline.rs` assert bit-identical outputs
//! against the synchronous schedule in both symmetry regimes, including
//! under an injected transfer-delay hook that randomizes prefetch
//! completion order.
//!
//! ## Resident Krylov vectors
//!
//! [`FabricOp`] / [`UlvFabricPrecond`] keep the Krylov `x`/`r`/basis shards
//! pinned in the device arenas across iterations: an apply charges the
//! arena for its input and output shards and moves only the boundary
//! gathers already internal to the sharded kernels, plus one
//! `8·(D−1)`-byte scalar allreduce per global reduction
//! ([`resident_reduce_hook`], recorded as [`TransferKind::VectorStage`]).
//! The blocked reductions (`h2_solve::blocked_dot`) fix the summation tree
//! independently of the sharding, so the iterates are bit-identical to the
//! host solve and across pipeline modes — `tests/krylov_residency.rs` pins
//! that and the exact allreduce byte total ([`resident_reduce_bytes`]).
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
//!   each failed attempt is retried after exponential backoff, with its
//!   re-transfer bytes recorded on the same queue the accounts and
//!   simulator comparison read. [`compare_with_simulator_faulted`]
//!   extends the byte-equality invariant: measured bytes (retries
//!   included) must equal the census prediction of
//!   [`predicted_fault_traffic`] *exactly*, in both fabric modes.
//! * **Typed failures instead of hangs** —
//!   [`DeviceFabric::set_ticket_deadline`] turns a dependency that never
//!   completes into a [`FabricError::TransferTimeout`] raised at the next
//!   barrier; worker job panics are captured, propagate at the barrier,
//!   and leave the fabric reusable (all fabric locks are poison-tolerant).
//! * **Device-loss recovery** — a scheduled fail-stop moves the lost
//!   device's queue routing to the lowest surviving device at the epoch
//!   boundary and bumps [`DeviceFabric::reshard_version`]; ownership and
//!   accounting stay logical, so byte totals are unchanged while the
//!   physical workers shrink. The construction level loop checkpoints per
//!   level and replays only the in-flight level on a version change.
//! * **Poison recovery** — the sketching kernels finite-check their
//!   outputs at the poison sites and deterministically recompute exactly
//!   the poisoned columns, reporting each repair through
//!   [`DeviceFabric::note_recovery`].
//!
//! Under every seeded plan of the chaos grid in `tests/faults.rs`, the
//! constructed `H2Matrix` is **bit-identical** to the fault-free run and
//! the measured bytes equal the extended simulator — faults change the
//! schedule and the traffic, never the numerics.

pub mod exec;
pub mod fabric;
pub mod matvec;
pub mod solve;
pub mod trace;

pub use exec::{
    compare_with_simulator, compare_with_simulator_faulted, predicted_fault_traffic,
    shard_construct, shard_construct_unsym, sharded_runtime, FaultComparison, SimComparison,
};
pub use fabric::{
    DeviceEpochStats, DeviceFabric, Epoch, ExecReport, FaultCounters, LinkModel, TransferDelay,
};
pub use h2_fault::{FabricError, FailStop, FaultKind, FaultPlan, OccurrenceMap};
pub use h2_obs::{ChromeTrace, DriftTable, Registry, Tracer};
pub use h2_runtime::{PipelineMode, Precision, Schedule, ScheduleEpoch, Transfer, TransferKind};
// `simulate_matvec` is the plan read as a prediction; the end-to-end
// benchmark's adapter calls it by that name.
pub use matvec::{
    compare_matvec_with_simulator, plan_matvec, plan_matvec as simulate_matvec, shard_matvec,
    shard_matvec_with_report,
};
pub use solve::{
    compare_solve_with_simulator, plan_ulv_solve, resident_reduce_bytes, resident_reduce_hook,
    shard_ulv_solve, shard_ulv_solve_with_report, FabricOp, UlvFabricPrecond,
};
pub use trace::{
    drift_construct, drift_matvec, drift_solve, export_chrome_trace, export_chrome_trace_with_spans,
};
