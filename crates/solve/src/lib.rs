//! # h2-solve
//!
//! Solving linear systems with compressed H2 operators — the workload the
//! paper's construction feeds ("accelerating H2 arithmetic in sparse
//! multifrontal solvers or Schur complement-based updates", §I; H2
//! inversion is the paper's stated follow-up work).
//!
//! Four layers:
//!
//! * [`krylov`] — preconditioned iterative methods on [`h2_dense::LinOp`],
//!   one entry point each: [`pcg_with`] and [`block_pcg_with`] for SPD
//!   systems, restarted [`gmres_with`] for unsymmetric ones.
//! * [`precond`] — preconditioners assembled from the H2 representation:
//!   block-Jacobi from the near-field diagonal blocks, and any direct
//!   factorization wrapped as a preconditioner.
//! * [`ulv`] — ULV direct factorizations for weak-admissibility
//!   (HSS-pattern) H2 matrices in both side layouts: the symmetric
//!   Chandrasekaran–Gu–Pals flavor and the LU-flavored elimination for
//!   independent row/column bases, with a per-level batched schedule over
//!   [`h2_runtime::VarBatch`] workspaces (O(N k²) factor + O(N k) solve).
//! * [`woodbury`] — Sherman–Morrison–Woodbury solves for low-rank-updated
//!   operators (`A + P Qᵀ`), pairing with [`h2_matrix::LowRankUpdate`].

pub mod krylov;
pub mod precond;
mod smallops;
pub mod ulv;
pub mod woodbury;

pub use krylov::{
    block_pcg_with, blocked_dot, blocked_norm, gmres_with, pcg_with, BlockIterResult,
    BlockKrylovWorkspace, IterResult, KrylovWorkspace, ReduceHook,
};
pub use precond::{BlockJacobi, DiagJacobi, Identity, Preconditioner};
pub use ulv::{UlvError, UlvFactor, UlvSchedule, UlvSweep};
pub use woodbury::woodbury_solve;
