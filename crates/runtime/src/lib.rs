//! # h2-runtime
//!
//! Batched device runtime reproducing the paper's GPU execution model on
//! CPU threads.
//!
//! The paper's central implementation idea (§IV) is that an H2 construction
//! consists of *many small variable-size dense operations*, which are only
//! fast on a GPU when organized as **batched kernels**: trees stored
//! level-contiguously, a marshaling phase gathering operands, a single
//! workspace allocation per level sized by a parallel prefix sum, and one
//! kernel launch per level per operation (at most `Csp` for the BSR
//! product). This crate reproduces that model:
//!
//! * [`Runtime`] — backend switch (sequential "CPU" vs parallel "GPU") plus
//!   kernel-launch accounting and Fig.-7 phase timers,
//! * [`VarBatch`] — one-allocation variable-size batched workspaces,
//! * [`ops`] — the batched kernels annotated in Algorithm 1
//!   (`batchedRand`, `batchedGen`, `batchedID`, `batchedShrink`,
//!   `batchedGemm`, marshaling gathers),
//! * [`bsr`] — the `batchedBSRGemm` with the paper's `Csp`-slot
//!   conflict-free decomposition,
//! * [`solve_ops`] — the batched *solver* primitives (variable-size QR/LU,
//!   triangular and LU solves, Q application) the per-level ULV elimination
//!   is built from, accounted with the same simulator formulas.

pub mod batch;
pub mod bsr;
pub mod multidev;
pub mod ops;
pub mod profile;
pub mod runtime;
pub mod shard;
pub mod solve_ops;

pub use batch::{cost_chunk_bounds, VarBatch};
pub use bsr::{bsr_gemm, bsr_gemm_stream, hint_bsr_fetches, BsrBlock, BsrPattern};
pub use h2_dense::Precision;
// Re-exported so downstream crates (core, solve, sched) reach the
// observability layer through the runtime they already depend on.
pub use h2_obs::{ArgValue, Registry, SpanGuard, Tracer};
pub use multidev::{
    combine_terms, epoch_terms, owner, simulate, simulate_prec, simulate_prec_mode,
    transfer_census, DeviceModel, LevelSpec, Schedule, ScheduleEpoch, SimReport, StreamSpec,
};
pub use ops::{
    batched_gen, batched_row_id, gather_rows, gemm_at_x, hcat_batches, qr_min_rdiag, rand_mat,
    shrink_rows, stack_children, GenBlock,
};
pub use profile::{Kernel, Phase, Profile, KERNEL_COUNT, PHASE_COUNT};
pub use runtime::{Backend, Runtime};
pub use shard::{
    chunk_bounds, FetchKey, FetchPlanner, PipelineMode, ShardDispatch, ShardJob, Transfer,
    TransferKind,
};
pub use solve_ops::{
    batched_apply_qt, batched_lu, batched_lu_solve, batched_qr, batched_transpose, batched_trsm,
};
