//! Batched dense *solver* primitives over [`VarBatch`] workspaces — the
//! kernels the per-level ULV elimination sweeps are built from.
//!
//! The construction kernels in [`crate::ops`] cover Algorithm 1; a batched
//! direct solver needs four more per-level operations (the H2Opus/KBLAS
//! batched-solver repertoire): variable-size Householder QR of the reduced
//! bases, LU of the rotated pivot blocks, triangular solves against blocks
//! of right-hand sides, and the application of stored Q factors. Each
//! follows the same discipline as the construction kernels:
//!
//! * one launch recorded per call ([`crate::Kernel::Qr`] /
//!   [`crate::Kernel::Lu`] / [`crate::Kernel::Trsm`] /
//!   [`crate::Kernel::Gemm`]),
//! * per-entry work executed on the runtime's backend with **cost-aware
//!   chunking** ([`crate::batch::cost_chunk_bounds`] over the modeled
//!   flops, so one worker is not stuck behind the few huge top-level
//!   blocks),
//! * sharded-mode accounting with the **shared cost formulas**
//!   ([`crate::multidev::cost::lu_flops`] and friends, owner-attributed in
//!   the §IV.A contiguous chunks) — the same formulas
//!   `h2_sched::plan_ulv_solve` charges for the solve sweeps, so a factor
//!   and a sweep are priced in one currency.

use crate::batch::VarBatch;
use crate::multidev::cost;
use crate::ops::{batch_for_each_mut, batch_map};
use crate::profile::Kernel;
use crate::runtime::Runtime;
use h2_dense::{
    lu_factor, qr_factor, solve_triangular_left, Diag, LuFactor, Mat, QrFactor, Triangle,
};

/// Batched Householder QR: factor every entry of `batch`, returning the
/// per-entry compact factors (R upper, reflectors lower, `tau` aside).
pub fn batched_qr(rt: &Runtime, batch: &VarBatch) -> Vec<QrFactor> {
    rt.launch(Kernel::Qr);
    let flops = |i: usize| cost::qr_flops(batch.rows_of(i), batch.cols_of(i));
    batch_map(rt, batch, flops, |_, m| qr_factor(m.to_mat()))
}

/// Batched LU with partial pivoting of square entries. `None` marks an
/// exactly singular entry (the caller maps it to its node id).
pub fn batched_lu(rt: &Runtime, batch: &VarBatch) -> Vec<Option<LuFactor>> {
    rt.launch(Kernel::Lu);
    let flops = |i: usize| cost::lu_flops(batch.rows_of(i));
    batch_map(rt, batch, flops, |_, m| lu_factor(m.to_mat()))
}

/// Batched triangular solve: entry `i` of `b` is overwritten by
/// `tris[i]⁻¹ b_i` (left solve with the given triangle/diagonal).
pub fn batched_trsm(rt: &Runtime, tri: Triangle, diag: Diag, tris: &[Mat], b: &mut VarBatch) {
    assert_eq!(tris.len(), b.count(), "batched_trsm: batch count mismatch");
    rt.launch(Kernel::Trsm);
    let cols: Vec<usize> = (0..b.count()).map(|i| b.cols_of(i)).collect();
    let flops = |i: usize| cost::trsm_flops(tris[i].rows(), cols[i]);
    batch_for_each_mut(rt, b, flops, |i, mut m| {
        solve_triangular_left(tri, diag, tris[i].rf(), &mut m);
    });
}

/// Batched LU solve: entry `i` of `b` is overwritten by `lus[i]⁻¹ b_i`
/// (pivot application plus the two triangular solves, so two
/// [`Kernel::Trsm`] launches are recorded).
pub fn batched_lu_solve(rt: &Runtime, lus: &[LuFactor], b: &mut VarBatch) {
    assert_eq!(lus.len(), b.count(), "batched_lu_solve: count mismatch");
    rt.launch(Kernel::Trsm);
    rt.launch(Kernel::Trsm);
    let cols: Vec<usize> = (0..b.count()).map(|i| b.cols_of(i)).collect();
    let flops = |i: usize| cost::lu_solve_flops(lus[i].a.rows(), cols[i]);
    batch_for_each_mut(rt, b, flops, |i, mut m| {
        lus[i].solve_in_place(&mut m);
    });
}

/// Batched `b_i ← Qᵢᵀ b_i` for stored compact QR factors through their block
/// reflectors — the ULV rotation of the (wide) diagonal blocks. Right-hand
/// sides go through the width-invariant level-2 `QrFactor::apply_qt` instead.
pub fn batched_apply_qt(rt: &Runtime, qrs: &[QrFactor], b: &mut VarBatch) {
    assert_eq!(qrs.len(), b.count(), "batched_apply_qt: count mismatch");
    rt.launch(Kernel::Gemm);
    let cols: Vec<usize> = (0..b.count()).map(|i| b.cols_of(i)).collect();
    let flops = |i: usize| cost::qr_apply_flops(qrs[i].rows(), qrs[i].tau.len(), cols[i]);
    batch_for_each_mut(rt, b, flops, |i, mut m| {
        qrs[i].apply_qt_block(&mut m);
    });
}

/// Batched entry transpose into a fresh workspace (the marshaling step
/// between the two one-sided rotations of `D̃ = Qᵀ D P`).
pub fn batched_transpose(rt: &Runtime, batch: &VarBatch) -> VarBatch {
    rt.launch(Kernel::Transpose);
    let rows: Vec<usize> = (0..batch.count()).map(|i| batch.cols_of(i)).collect();
    let cols: Vec<usize> = (0..batch.count()).map(|i| batch.rows_of(i)).collect();
    let mut out = VarBatch::zeros(rows, cols);
    batch_for_each_mut(
        rt,
        &mut out,
        |_| 0.0,
        |i, mut m| {
            let src = batch.mat(i);
            for c in 0..m.cols() {
                for r in 0..m.rows() {
                    *m.at_mut(r, c) = src.at(c, r);
                }
            }
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Backend;
    use h2_dense::{gaussian_mat, matmul, Op};

    fn rts() -> [Runtime; 2] {
        [
            Runtime::new(Backend::Sequential),
            Runtime::new(Backend::Parallel),
        ]
    }

    fn fill_batch(shapes: &[(usize, usize)], seed: u64) -> (VarBatch, Vec<Mat>) {
        let rows: Vec<usize> = shapes.iter().map(|&(r, _)| r).collect();
        let cols: Vec<usize> = shapes.iter().map(|&(_, c)| c).collect();
        let mats: Vec<Mat> = shapes
            .iter()
            .enumerate()
            .map(|(i, &(r, c))| gaussian_mat(r, c, seed + i as u64))
            .collect();
        let mut b = VarBatch::zeros(rows, cols);
        for (i, m) in mats.iter().enumerate() {
            b.set(i, m.rf());
        }
        (b, mats)
    }

    #[test]
    fn batched_qr_factors_every_entry() {
        for rt in rts() {
            let (b, mats) = fill_batch(&[(8, 5), (6, 6), (0, 3), (7, 2)], 31);
            let qrs = batched_qr(&rt, &b);
            for (i, src) in mats.iter().enumerate() {
                let q = qrs[i].q_thin();
                let r = qrs[i].r();
                let rec = matmul(Op::NoTrans, Op::NoTrans, q.rf(), r.rf());
                let mut d = rec;
                d.axpy(-1.0, src);
                assert!(d.norm_max() < 1e-12, "entry {i}");
            }
        }
    }

    #[test]
    fn batched_lu_solves_and_flags_singular() {
        for rt in rts() {
            let (b, mats) = fill_batch(&[(6, 6), (4, 4), (0, 0)], 41);
            let lus = batched_lu(&rt, &b);
            for (i, src) in mats.iter().enumerate() {
                let lu = lus[i].as_ref().expect("nonsingular gaussian block");
                let x0 = gaussian_mat(src.rows(), 2, 90 + i as u64);
                let rhs = matmul(Op::NoTrans, Op::NoTrans, src.rf(), x0.rf());
                let mut d = lu.solve(&rhs);
                d.axpy(-1.0, &x0);
                assert!(d.norm_max() < 1e-9, "entry {i}");
            }
            let mut sing = VarBatch::zeros(vec![3], vec![3]);
            sing.mat_mut(0).fill(0.0);
            assert!(batched_lu(&rt, &sing)[0].is_none());
        }
    }

    #[test]
    fn batched_trsm_matches_dense_solve() {
        for rt in rts() {
            let tris: Vec<Mat> = (0..3)
                .map(|i| {
                    let mut t = gaussian_mat(4, 4, 50 + i);
                    for r in 0..4 {
                        t[(r, r)] += 4.0;
                        for c in (r + 1)..4 {
                            t[(r, c)] = 0.0;
                        }
                    }
                    t
                })
                .collect();
            let (mut b, rhs) = fill_batch(&[(4, 2), (4, 3), (4, 1)], 60);
            batched_trsm(&rt, Triangle::Lower, Diag::NonUnit, &tris, &mut b);
            for i in 0..3 {
                let got = b.to_mat(i);
                let back = matmul(Op::NoTrans, Op::NoTrans, tris[i].rf(), got.rf());
                let mut d = back;
                d.axpy(-1.0, &rhs[i]);
                assert!(d.norm_max() < 1e-11, "entry {i}");
            }
        }
    }

    #[test]
    fn batched_lu_solve_roundtrips() {
        for rt in rts() {
            let (a, mats) = fill_batch(&[(5, 5), (3, 3)], 70);
            let lus: Vec<LuFactor> = batched_lu(&rt, &a)
                .into_iter()
                .map(|o| o.unwrap())
                .collect();
            let (mut b, x0) = fill_batch(&[(5, 2), (3, 2)], 75);
            // b ← A x0, then solve in place: recover x0.
            for i in 0..2 {
                let ax = matmul(Op::NoTrans, Op::NoTrans, mats[i].rf(), x0[i].rf());
                b.set(i, ax.rf());
            }
            batched_lu_solve(&rt, &lus, &mut b);
            for i in 0..2 {
                let mut d = b.to_mat(i);
                d.axpy(-1.0, &x0[i]);
                assert!(d.norm_max() < 1e-9);
            }
        }
    }

    #[test]
    fn apply_qt_then_transpose_recovers_rotation() {
        for rt in rts() {
            let (w, _) = fill_batch(&[(6, 3)], 80);
            let qrs = batched_qr(&rt, &w);
            let (mut b, src) = fill_batch(&[(6, 4)], 85);
            batched_apply_qt(&rt, &qrs, &mut b);
            // Qᵀ is orthogonal: norms are preserved.
            assert!((b.to_mat(0).norm_fro() - src[0].norm_fro()).abs() < 1e-11);
            let t = batched_transpose(&rt, &b);
            assert_eq!(t.rows_of(0), 4);
            assert_eq!(t.mat(0).at(1, 2), b.mat(0).at(2, 1));
        }
    }

    #[test]
    fn launches_recorded() {
        let rt = Runtime::parallel();
        let (b, _) = fill_batch(&[(4, 4)], 95);
        let _ = batched_lu(&rt, &b);
        assert_eq!(rt.profile().launches(Kernel::Lu), 1);
        let lus: Vec<LuFactor> = batched_lu(&rt, &b)
            .into_iter()
            .map(|o| o.unwrap())
            .collect();
        let (mut rhs, _) = fill_batch(&[(4, 2)], 96);
        batched_lu_solve(&rt, &lus, &mut rhs);
        assert_eq!(rt.profile().launches(Kernel::Trsm), 2);
    }
}
