//! Batched kernels over [`VarBatch`] workspaces.
//!
//! Each function is the Rust analogue of one blue-green comment in
//! Algorithm 1 of the paper: it records exactly the kernel launches the GPU
//! implementation would issue, marshals its operands, and states its
//! per-entry work once, as a body the runtime's chunk runner
//! ([`Runtime::for_each_entry`] / [`Runtime::map`]) lays out on the backend.

use crate::batch::VarBatch;
use crate::multidev::{cost, owner};
use crate::profile::Kernel;
use crate::runtime::Runtime;
use crate::shard::{child_gathers, ShardDispatch};
use h2_dense::cpqr::{row_id, RowId, Truncation};
use h2_dense::qr::qr_in_place;
use h2_dense::{gemm, EntryAccess, Mat, Op};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Poison-site family of `batchedRand` columns (see [`h2_fault::poison_site`]).
const RAND_POISON_SALT: u64 = 0x7A9D_0001;
/// Poison-site family of `batchedGen` blocks.
const GEN_POISON_SALT: u64 = 0x7A9D_0002;

/// Debug-mode NaN tripwire at a batched-kernel phase boundary: a poisoned
/// value must be caught and healed at its injection site (the finite
/// checks in [`rand_mat`] / [`batched_gen`]), never propagate silently
/// into the next phase. Host-side scan, so it only runs where the host
/// may read the batch — the callers skip it on a sharded backend, whose
/// chain scopes forbid reading job-written data before the barrier.
#[cfg(debug_assertions)]
pub(crate) fn debug_assert_batch_finite(out: &VarBatch, ctx: &str) {
    for i in 0..out.count() {
        let m = out.mat(i);
        for c in 0..m.cols() {
            for r in 0..m.rows() {
                let v = m.at(r, c);
                assert!(
                    v.is_finite(),
                    "{ctx}: non-finite value {v} at ({r}, {c}) of batch entry {i}"
                );
            }
        }
    }
}

/// Seed of column `j`'s stream in [`rand_mat`]: `(seed, j)` hashed.
///
/// The SplitMix64 generator's state *is* its seed and advances by a fixed
/// stride, so seeds that differ by a multiple of that stride give streams
/// that are shifted copies of each other. Hashing keeps nearby column
/// seeds far apart on the generator's orbit.
fn column_seed(seed: u64, j: usize) -> u64 {
    h2_fault::mix(seed, j as u64)
}

/// `batchedRand`: generate a global `n x d` standard-normal block.
///
/// Columns are generated from independent streams, each seeded by a hash of
/// `(seed, column)`, so the result is identical on every backend (the
/// parallel-safe analogue of cuRAND's counter-based generators).
pub fn rand_mat(rt: &Runtime, n: usize, d: usize, seed: u64) -> Mat {
    rt.launch(Kernel::Rand);
    let mut y = Mat::zeros(n, d);
    let cols: Vec<&mut [f64]> = y.as_mut_slice().chunks_mut(n.max(1)).collect();
    rt.run_chunks(
        cols,
        owner,
        |_, _| 0.0,
        None,
        |chunk| {
            for (j, col) in chunk {
                let mut rng = SmallRng::seed_from_u64(column_seed(seed, j));
                h2_dense::rand::fill_gaussian_slice(col, &mut rng);
            }
        },
    );
    if let Some(disp) = rt.shard_dispatch() {
        poison_and_heal_rand(disp.as_ref(), &mut y, n, seed);
    }
    y
}

/// Kernel-poison injection + recovery for `batchedRand` under an active
/// [`h2_fault::FaultPlan`]: the plan deterministically NaN-poisons whole
/// columns of the freshly generated block; a finite check over every
/// column detects the damage and each poisoned column is re-sketched by
/// re-running its seed-derived stream — the per-column counter-based
/// seeding makes the recompute *exact*, so the healed block is bit-
/// identical to a fault-free run (the acceptance contract of the chaos
/// tests; a production system would instead draw replacement columns
/// through the adaptive incremental-sampling path). The accounts are
/// charged from the plan, which has no recompute in it — recovery compute
/// is off-schedule, like the detection scans (a documented modeling
/// simplification; the re-transfer traffic of the fabric layer *is*
/// charged, because bytes are the trust invariant).
fn poison_and_heal_rand(disp: &dyn ShardDispatch, y: &mut Mat, n: usize, seed: u64) {
    let Some(plan) = disp.fault_plan() else {
        return;
    };
    if plan.poison_rate <= 0.0 || n == 0 {
        return;
    }
    let d = y.cols();
    for j in 0..d {
        let site = h2_fault::poison_site(RAND_POISON_SALT, n as u64, j as u64);
        let occ = disp.fault_occurrence(site);
        if plan.poison_hit(site, occ) {
            y[(0, j)] = f64::NAN;
        }
    }
    for (j, col) in y.as_mut_slice().chunks_mut(n).enumerate() {
        if col.iter().all(|v| v.is_finite()) {
            continue;
        }
        let mut rng = SmallRng::seed_from_u64(column_seed(seed, j));
        h2_dense::rand::fill_gaussian_slice(col, &mut rng);
        debug_assert!(col.iter().all(|v| v.is_finite()));
        disp.note_recovery("rand_mat");
    }
}

/// Marshal: gather row ranges of a global `n x d` matrix into a batch
/// (`Ω¹_τ = Ω(I_τ, :)`, Algorithm 1 line 5). `ranges[i]` is the contiguous
/// row range of entry `i` (clusters own contiguous index ranges in tree
/// order).
pub fn gather_rows(rt: &Runtime, src: &Mat, ranges: &[(usize, usize)]) -> VarBatch {
    rt.launch(Kernel::PrefixSum);
    rt.launch(Kernel::Marshal);
    let rows: Vec<usize> = ranges.iter().map(|&(b, e)| e - b).collect();
    let d = src.cols();
    let mut out = VarBatch::zeros_uniform_cols(rows, d);
    rt.for_each_entry(
        &mut out,
        &[],
        |_| 0.0,
        move |i, mut m| {
            m.copy_from(src.view(ranges[i].0, 0, m.rows(), d));
        },
    );
    out
}

/// Marshal: stack pairs (or singletons) of child entries into parent entries
/// (`Y^l_τ = [Y^l_ν1; Y^l_ν2]`, Algorithm 1 line 24).
/// `children[p]` lists the child entry indices of parent `p`.
pub fn stack_children(rt: &Runtime, child: &VarBatch, children: &[Vec<usize>]) -> VarBatch {
    rt.launch(Kernel::PrefixSum);
    rt.launch(Kernel::Marshal);
    let d = if child.count() > 0 {
        child.cols_of(0)
    } else {
        0
    };
    let rows: Vec<usize> = children
        .iter()
        .map(|cs| cs.iter().map(|&c| child.rows_of(c)).sum())
        .collect();
    let mut out = VarBatch::zeros_uniform_cols(rows, d);
    let mut deps: Vec<Vec<u64>> = Vec::new();
    if let Some(disp) = rt.shard_dispatch() {
        // Line-24 boundary gathers ([`child_gathers`]), issued ahead of the
        // stacking jobs; each device's job waits for the copies it receives.
        deps.resize(disp.devices(), Vec::new());
        let child_rows: Vec<usize> = (0..child.count()).map(|c| child.rows_of(c)).collect();
        for t in child_gathers(children, &child_rows, d, disp.devices(), disp.wire()) {
            let ticket = disp.issue(t);
            if ticket != 0 {
                deps[t.dst].push(ticket);
            }
        }
    }
    rt.for_each_entry(
        &mut out,
        &deps,
        |_| 0.0,
        move |p, mut m| {
            let mut off = 0;
            for &c in &children[p] {
                let cm = child.mat(c);
                m.rb_mut()
                    .into_view(off, 0, cm.rows(), cm.cols())
                    .copy_from(cm);
                off += cm.rows();
            }
        },
    );
    out
}

/// Batched QR convergence statistic: per entry, `min_i |R_ii|` of the
/// Householder QR of the entry (Algorithm 1 lines 11/29). The statistic
/// asks whether `cols` samples have exhausted the entry's row space, so it
/// is only defined for `cols < rows`: an entry with at least as many
/// columns as rows (empty ones included) is not factored and reports `0.0`
/// (trivially converged — more samples cannot raise its rank).
pub fn qr_min_rdiag(rt: &Runtime, batch: &VarBatch) -> Vec<f64> {
    rt.launch(Kernel::Qr);
    // The shared convergence-QR cost formula.
    let flops = |i: usize| cost::qr_flops(batch.rows_of(i), batch.cols_of(i));
    rt.map_entries(batch, flops, |_, m| {
        if m.cols() == 0 || m.cols() >= m.rows() {
            return 0.0;
        }
        let mut work = m.to_mat();
        let tau = qr_in_place(&mut work.rm());
        (0..tau.len())
            .map(|i| work[(i, i)].abs())
            .fold(f64::INFINITY, f64::min)
    })
}

/// `batchedID`: batched row interpolative decomposition.
///
/// The GPU implementation first batch-transposes the samples for coalesced
/// access and then runs a batched column-pivoted QR; we record both launches
/// and return the per-entry [`RowId`]s.
pub fn batched_row_id(rt: &Runtime, batch: &VarBatch, rule: Truncation) -> Vec<RowId> {
    rt.launch(Kernel::Transpose);
    rt.launch(Kernel::Id);
    // The shared batched-ID cost formula.
    let flops = |i: usize| cost::id_flops(batch.rows_of(i), batch.cols_of(i));
    rt.map_entries(batch, flops, |_, m| row_id(&m.to_mat(), rule))
}

/// `batchedShrink`: gather skeleton rows, `Y^{l+1}_τ = Y^loc_τ(J_τ, :)`
/// (Algorithm 1 lines 17/35). On the GPU this is a column swap on the
/// transposed samples plus a transpose back; we record the same launches.
pub fn shrink_rows(rt: &Runtime, batch: &VarBatch, skels: &[&[usize]]) -> VarBatch {
    assert_eq!(batch.count(), skels.len());
    rt.launch(Kernel::Shrink);
    rt.launch(Kernel::Transpose);
    let d = if batch.count() > 0 {
        batch.cols_of(0)
    } else {
        0
    };
    let rows: Vec<usize> = skels.iter().map(|s| s.len()).collect();
    let mut out = VarBatch::zeros_uniform_cols(rows, d);
    rt.for_each_entry(
        &mut out,
        &[],
        |_| 0.0,
        move |i, mut m| {
            let src = batch.mat(i);
            for (r, &j) in skels[i].iter().enumerate() {
                for c in 0..d {
                    *m.at_mut(r, c) = src.at(j, c);
                }
            }
        },
    );
    out
}

/// `batchedGemm` (transposed-A form): per entry `out_i = A_i^T X_i`
/// (`Ω^{l+1}_τ = U_τ^T Ω^l_τ` / `E^T Ω`, Algorithm 1 lines 18/36).
pub fn gemm_at_x(rt: &Runtime, a: &[&Mat], x: &VarBatch) -> VarBatch {
    assert_eq!(a.len(), x.count());
    rt.launch(Kernel::Gemm);
    let d = if x.count() > 0 { x.cols_of(0) } else { 0 };
    let rows: Vec<usize> = a.iter().map(|m| m.cols()).collect();
    let mut out = VarBatch::zeros_uniform_cols(rows, d);
    // The shared upsweep-GEMM cost formula.
    let flops = |i: usize| cost::upsweep_flops(a[i].rows(), a[i].cols(), d);
    rt.for_each_entry(&mut out, &[], flops, move |i, m| {
        gemm(Op::Trans, Op::NoTrans, 1.0, a[i].rf(), x.mat(i), 0.0, m);
    });
    // Phase-boundary tripwire: upsweep outputs feed the next level's
    // sketches, so a NaN here means a poison escaped its injection-site
    // heal. Host-readable only off the sharded backend (chain scopes).
    #[cfg(debug_assertions)]
    if rt.shard_dispatch().is_none() {
        debug_assert_batch_finite(&out, "upsweep gemm");
    }
    out
}

/// Horizontal concatenation of two batches with matching entry row counts:
/// the sample-widening step of adaptive construction (`updateSamples`).
pub fn hcat_batches(rt: &Runtime, a: &VarBatch, b: &VarBatch) -> VarBatch {
    assert_eq!(a.count(), b.count(), "hcat: batch count mismatch");
    rt.launch(Kernel::PrefixSum);
    rt.launch(Kernel::Marshal);
    let rows: Vec<usize> = (0..a.count()).map(|i| a.rows_of(i)).collect();
    let cols: Vec<usize> = (0..a.count())
        .map(|i| a.cols_of(i) + b.cols_of(i))
        .collect();
    let mut out = VarBatch::zeros(rows, cols);
    rt.for_each_entry(
        &mut out,
        &[],
        |_| 0.0,
        move |i, mut m| {
            assert_eq!(a.rows_of(i), b.rows_of(i), "hcat: entry {i} row mismatch");
            let (ca, cb) = (a.cols_of(i), b.cols_of(i));
            m.rb_mut()
                .into_view(0, 0, a.rows_of(i), ca)
                .copy_from(a.mat(i));
            m.rb_mut()
                .into_view(0, ca, b.rows_of(i), cb)
                .copy_from(b.mat(i));
        },
    );
    // Phase-boundary tripwire: widened samples enter the adaptive
    // convergence QR next; see the note in [`gemm_at_x`].
    #[cfg(debug_assertions)]
    if rt.shard_dispatch().is_none() {
        debug_assert_batch_finite(&out, "sample widening hcat");
    }
    out
}

/// Specification of one block to evaluate with `batchedGen`.
pub struct GenBlock {
    /// Global (permuted) row indices.
    pub rows: Vec<usize>,
    /// Global (permuted) column indices.
    pub cols: Vec<usize>,
}

/// `batchedGen`: evaluate a batch of sub-blocks of the matrix with a single
/// launch (Algorithm 1 lines 8/41).
pub fn batched_gen(rt: &Runtime, gen: &dyn EntryAccess, blocks: &[GenBlock]) -> Vec<Mat> {
    rt.launch(Kernel::Gen);
    // Block `i` runs on device `i mod D` (the generator itself is
    // device-resident, §IV.A — no communication).
    let entries = |i: usize| cost::gen_entries(blocks[i].rows.len(), blocks[i].cols.len());
    let mut mats = rt.map_placed(
        blocks.len(),
        |i, _, devices| i % devices,
        entries,
        |i| gen.block_mat(&blocks[i].rows, &blocks[i].cols),
    );
    if let Some(disp) = rt.shard_dispatch() {
        poison_and_heal_gen(disp.as_ref(), gen, blocks, &mut mats);
    }
    mats
}

/// Kernel-poison injection + recovery for `batchedGen`, mirroring
/// [`poison_and_heal_rand`]: whole generated blocks are NaN-poisoned by
/// the plan, detected by a finite scan, and healed by re-evaluating the
/// block's entries — the generator is pure, so the recompute is exact and
/// the healed batch is bit-identical to a fault-free run. Recovery
/// compute is off-schedule (the plan charges each block's entries once).
fn poison_and_heal_gen(
    disp: &dyn ShardDispatch,
    gen: &dyn EntryAccess,
    blocks: &[GenBlock],
    out: &mut [Mat],
) {
    let Some(plan) = disp.fault_plan() else {
        return;
    };
    if plan.poison_rate <= 0.0 {
        return;
    }
    for (i, b) in blocks.iter().enumerate() {
        let site = h2_fault::poison_site(
            GEN_POISON_SALT,
            i as u64,
            ((b.rows.len() as u64) << 32) | b.cols.len() as u64,
        );
        let occ = disp.fault_occurrence(site);
        if plan.poison_hit(site, occ) && !b.rows.is_empty() && !b.cols.is_empty() {
            out[i][(0, 0)] = f64::NAN;
        }
    }
    for (i, b) in blocks.iter().enumerate() {
        if out[i].find_nonfinite().is_none() {
            continue;
        }
        out[i] = gen.block_mat(&b.rows, &b.cols);
        debug_assert!(out[i].find_nonfinite().is_none());
        disp.note_recovery("batched_gen");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2_dense::{gaussian_mat, DenseOp};

    fn rts() -> [Runtime; 2] {
        [Runtime::sequential(), Runtime::parallel()]
    }

    #[test]
    fn rand_mat_deterministic_across_backends() {
        let a = rand_mat(&Runtime::sequential(), 40, 8, 3);
        let b = rand_mat(&Runtime::parallel(), 40, 8, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn gather_rows_extracts_ranges() {
        for rt in rts() {
            let src = Mat::from_fn(10, 3, |i, j| (i * 10 + j) as f64);
            let b = gather_rows(&rt, &src, &[(0, 2), (5, 9)]);
            assert_eq!(b.count(), 2);
            assert_eq!(b.mat(0).at(1, 2), 12.0);
            assert_eq!(b.mat(1).at(0, 0), 50.0);
            assert_eq!(b.mat(1).rows(), 4);
        }
    }

    #[test]
    fn stack_children_concatenates() {
        for rt in rts() {
            let src = Mat::from_fn(6, 2, |i, j| (i * 2 + j) as f64);
            let child = gather_rows(&rt, &src, &[(0, 2), (2, 3), (3, 6)]);
            let parent = stack_children(&rt, &child, &[vec![0, 1], vec![2]]);
            assert_eq!(parent.rows_of(0), 3);
            assert_eq!(parent.mat(0).at(2, 1), 5.0); // row 2 of src
            assert_eq!(parent.mat(1).at(0, 0), 6.0); // row 3 of src
        }
    }

    #[test]
    fn qr_min_rdiag_detects_rank_deficiency() {
        for rt in rts() {
            let full = gaussian_mat(8, 4, 1);
            let lowrank = h2_dense::random_low_rank(8, 4, 2, 0.5, 2);
            let mut b = VarBatch::zeros_uniform_cols(vec![8, 8, 4], 4);
            b.set(0, full.rf());
            b.set(1, lowrank.rf());
            b.set(2, full.view(0, 0, 4, 4));
            let mins = qr_min_rdiag(&rt, &b);
            assert!(
                mins[0] > 1e-3,
                "full-rank sample should have large min rdiag"
            );
            assert!(mins[1] < 1e-10, "rank-2 sample must collapse by column 3");
            assert_eq!(mins[2], 0.0, "cols >= rows is not factored");
        }
    }

    #[test]
    fn batched_row_id_reconstructs() {
        for rt in rts() {
            let a0 = h2_dense::random_low_rank(10, 6, 3, 0.4, 5);
            let a1 = h2_dense::random_low_rank(7, 6, 2, 0.4, 6);
            let mut b = VarBatch::zeros(vec![10, 7], vec![6, 6]);
            b.set(0, a0.rf());
            b.set(1, a1.rf());
            let ids = batched_row_id(&rt, &b, Truncation::Relative(1e-12));
            for (i, src) in [a0, a1].iter().enumerate() {
                let sk = src.select_rows(&ids[i].skel);
                let rec = h2_dense::matmul(Op::NoTrans, Op::NoTrans, ids[i].u.rf(), sk.rf());
                let mut d = rec;
                d.axpy(-1.0, src);
                assert!(d.norm_max() < 1e-9);
            }
        }
    }

    #[test]
    fn shrink_selects_rows() {
        for rt in rts() {
            let src = Mat::from_fn(5, 2, |i, j| (i * 2 + j) as f64);
            let mut b = VarBatch::zeros_uniform_cols(vec![5], 2);
            b.set(0, src.rf());
            let skel: Vec<&[usize]> = vec![&[4, 0]];
            let out = shrink_rows(&rt, &b, &skel);
            assert_eq!(out.mat(0).at(0, 0), 8.0);
            assert_eq!(out.mat(0).at(1, 1), 1.0);
        }
    }

    #[test]
    fn gemm_at_x_computes_transposed_product() {
        for rt in rts() {
            let u = gaussian_mat(6, 2, 7);
            let x = gaussian_mat(6, 3, 8);
            let mut b = VarBatch::zeros_uniform_cols(vec![6], 3);
            b.set(0, x.rf());
            let out = gemm_at_x(&rt, &[&u], &b);
            let want = h2_dense::matmul(Op::Trans, Op::NoTrans, u.rf(), x.rf());
            let mut d = out.to_mat(0);
            d.axpy(-1.0, &want);
            assert!(d.norm_max() < 1e-13);
        }
    }

    #[test]
    fn hcat_widens_batch() {
        for rt in rts() {
            let mut a = VarBatch::zeros_uniform_cols(vec![3, 2], 2);
            let mut b = VarBatch::zeros_uniform_cols(vec![3, 2], 1);
            a.for_each_mut(|_, mut m| m.fill(1.0));
            b.for_each_mut(|_, mut m| m.fill(2.0));
            let c = hcat_batches(&rt, &a, &b);
            assert_eq!(c.cols_of(0), 3);
            assert_eq!(c.mat(0).at(0, 1), 1.0);
            assert_eq!(c.mat(1).at(1, 2), 2.0);
        }
    }

    #[test]
    fn batched_gen_evaluates_blocks() {
        for rt in rts() {
            let a = Mat::from_fn(8, 8, |i, j| (i * 8 + j) as f64);
            let op = DenseOp::new(a);
            let blocks = vec![
                GenBlock {
                    rows: vec![0, 1],
                    cols: vec![2, 3],
                },
                GenBlock {
                    rows: vec![7],
                    cols: vec![0],
                },
            ];
            let out = batched_gen(&rt, &op, &blocks);
            assert_eq!(out[0][(0, 0)], 2.0);
            assert_eq!(out[0][(1, 1)], 11.0);
            assert_eq!(out[1][(0, 0)], 56.0);
        }
    }

    #[test]
    fn launch_accounting() {
        let rt = Runtime::parallel();
        let src = gaussian_mat(8, 2, 9);
        let _ = gather_rows(&rt, &src, &[(0, 4), (4, 8)]);
        assert_eq!(rt.profile().launches(Kernel::Marshal), 1);
        assert_eq!(rt.profile().launches(Kernel::PrefixSum), 1);
        let b = gather_rows(&rt, &src, &[(0, 8)]);
        let _ = qr_min_rdiag(&rt, &b);
        assert_eq!(rt.profile().launches(Kernel::Qr), 1);
    }
}
