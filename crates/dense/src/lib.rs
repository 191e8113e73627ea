//! # h2-dense
//!
//! Dense linear-algebra substrate for the H2 sketching workspace.
//!
//! The paper's GPU implementation leans on KBLAS/MAGMA/cuBLAS for batched
//! dense kernels; this crate provides the equivalent single-matrix
//! operations, written from scratch:
//!
//! * column-major [`Mat`] / [`MatRef`] / [`MatMut`] storage with
//!   leading-dimension views (so batched workspaces can be sliced in place),
//! * [`gemm`](gemm::gemm) with all transpose combinations and a
//!   column-parallel variant for large products,
//! * Householder QR ([`qr`]) — the adaptive convergence test and the ULV
//!   rotations: a blocked compact-WY factorization whose trailing updates
//!   and wide `Q` / `Qᵀ` applications run on [`gemm`](gemm::gemm), plus the
//!   level-2 [`QrFactor::apply_q`] / [`QrFactor::apply_qt`] whose result
//!   per column is bit-identical at every right-hand-side width (the
//!   solve-sweep kernel, as [`gemm_rhs`] is to [`gemm`](gemm::gemm)),
//! * right-hand-side strip kernels: the level-2 `Q` / `Qᵀ` application,
//!   the left triangular solves, [`LuFactor::solve_in_place`] and
//!   [`cholesky_solve`] interleave up to 32 columns row by row and run one
//!   vector lane per column (the factorizations' one-reflector trailing
//!   updates keep four-column groups), each column's floating-point
//!   operations and their order unchanged,
//! * column-pivoted QR and interpolative decompositions ([`cpqr`]) — the
//!   skeletonization step; the factorization stops at the rank the
//!   truncation rule keeps,
//! * triangular solves, LU, Cholesky, one-sided Jacobi SVD (NaN inputs give
//!   NaN results, never a panic: comparisons use [`f64::total_cmp`] or a
//!   documented NaN rule),
//! * every `unsafe` block and impl carries a `// SAFETY:` invariant
//!   (`clippy::undocumented_unsafe_blocks` is denied),
//! * the [`LinOp`] / [`EntryAccess`] traits — the
//!   paper's two black-box inputs — plus spectral-norm estimation by power
//!   iteration and by Golub–Kahan–Lanczos bidiagonalisation,
//! * the storage/wire precision tier ([`prec`]): [`Precision`], the f32
//!   storage type [`Mat32`] with demote/promote conversion kernels, a
//!   stored block at either width ([`StoredMat`]), and the mixed-precision
//!   [`gemm_mixed`] whose f32 operand is promoted at the packing stage or
//!   in registers while every accumulation stays f64.

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod aca;
pub mod cpqr;
pub mod gemm;
pub mod krylov;
pub mod lu;
pub mod mat;
pub mod op;
pub mod prec;
pub mod qr;
pub mod rand;
mod strip;
pub mod svd;
pub mod tri;

pub use aca::{aca, AcaResult};
pub use cpqr::{col_id, cpqr_factor, row_id, select_rank, ColId, RowId, Truncation};
pub use gemm::{
    dispatched_mr, gemm, gemm_mixed, gemm_naive, gemm_rhs, gemv, matmul, par_gemm, simd_tier, Op,
    SimdTier,
};
pub use krylov::hutchinson_trace;
pub use lu::{cholesky_in_place, cholesky_solve, lu_factor, LuFactor};
pub use mat::{Mat, MatMut, MatRef};
pub use op::{estimate_norm_2, norm_2_gkl, relative_error_2, DenseOp, DiffOp, EntryAccess, LinOp};
pub use prec::{demote_roundtrip, Mat32, Precision, StoredMat};
pub use qr::{orthonormalize, qr_factor, qr_in_place, QrFactor};
pub use rand::{fill_gaussian, gaussian_mat, random_low_rank, standard_normal};
pub use svd::{spectral_norm, svd, Svd};
pub use tri::{
    solve_triangular_left, solve_triangular_left_transposed, solve_triangular_right, Diag, Triangle,
};
