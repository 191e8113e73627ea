//! Shared block-orientation helper for the solver layer.
//!
//! The solver multiplies many tiny blocks whose operands arrive in either
//! orientation — a [`h2_matrix::BlockStore`] lookup returns a stored
//! matrix plus a transpose flag. [`stored_op`] turns that flag into the
//! `Op` argument of `gemm`/`matmul`, so the ULV elimination, the Woodbury
//! assembly and the preconditioners all read stored blocks through the
//! BLAS-style transpose flags instead of materializing transposed copies.

use h2_dense::Op;

/// The `Op` reading a stored block in its looked-up orientation
/// (`transposed` as returned by `BlockStore::get`/`lookup_op`).
pub(crate) fn stored_op(transposed: bool) -> Op {
    if transposed {
        Op::Trans
    } else {
        Op::NoTrans
    }
}
