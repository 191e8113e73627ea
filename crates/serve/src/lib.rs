//! # h2-serve
//!
//! Operator service on top of the solver stack: cache the expensive part
//! (construction + ULV factorization), coalesce the cheap part (triangular
//! sweeps) into multi-RHS batches.
//!
//! `BENCH_solve.json` shows the factorization dominating end-to-end solve
//! cost, and the sweep itself is latency-dominated at small RHS counts:
//! under the A100-flavored [`h2_runtime::DeviceModel`] (5 µs launch
//! overhead and link latency), a single-RHS sharded sweep spends almost all
//! of its modeled makespan in per-level launches and transfer latencies
//! that do **not** scale with the RHS count. A `k`-column blocked sweep
//! pays those fixed costs once — the per-level transfer count is
//! independent of `k`; only bytes and flops scale — so with non-scaling
//! fraction `f` of the k = 1 makespan, the amortized per-RHS cost improves
//! by `k / (f + k·(1 − f))`. With `f ≈ 0.99` (typical for the HSS sweeps
//! in this repo at N ≈ 2–8k), k = 32 yields ≈ 24× — the amortization the
//! `serve` bench gates at ≥ 4×.
//!
//! Three pieces:
//!
//! * [`cache`] — [`OperatorCache`]: a memory-budgeted LRU keyed by
//!   [`OpKey`] `(kernel, geometry hash, tolerance bits)`, holding
//!   `H2Matrix` + `UlvFactor` pairs; eviction is by least-recent-use under
//!   a byte budget measured with the structures' own `memory_bytes`.
//! * [`queue`] — [`AdmissionQueue`]: arrival-ordered coalescing of client
//!   requests into per-operator batches under a max-batch / max-wait
//!   policy (release when the head operator's pending width reaches
//!   `max_batch` columns, or its oldest request has waited `max_wait`).
//! * [`server`] — [`ServeSim`]: a deterministic single-server event loop
//!   that admits a workload, serves each batch with the *real*
//!   fabric-sharded blocked sweep (`h2_sched::shard_ulv_solve_with_report`),
//!   checks the measured transfer bytes equal those of the
//!   `h2_sched::plan_ulv_solve` schedule it executed at that batch width
//!   (the bytes == plan trust invariant), and reports
//!   throughput and p50/p99 latency in **modeled makespan** under the
//!   device model — never wall clock, per the ROADMAP's single-core
//!   container rule.

pub mod cache;
pub mod queue;
pub mod server;

pub use cache::{geometry_hash, CachedOperator, OpKey, OperatorCache};
pub use queue::{AdmissionPolicy, AdmissionQueue, Batch, Request};
pub use server::{Response, ServeConfig, ServeReport, ServeSim};
