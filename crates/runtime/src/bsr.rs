//! Non-uniform batched block-sparse-row (BSR) matrix product.
//!
//! Algorithm 1 subtracts the inadmissible (leaf) or already-compressed
//! (coupling) contributions from the samples:
//! `Y^loc_τ -= Σ_{b∈N_τ} D_{τ,b} Ω_b`. The blocks form a block-sparse matrix
//! whose per-row block count is bounded by the sparsity constant `Csp`.
//!
//! No GPU library offers a variable-block-size BSR product, so the paper
//! splits the operation into at most `Csp` batched-GEMM launches such that
//! each launch touches **at most one block per row** — making all row updates
//! conflict-free without atomics. `BsrPattern::slots` reproduces exactly
//! that decomposition, and [`bsr_gemm`] issues one launch per slot.

use crate::batch::VarBatch;
use crate::multidev::{cost, owner};
use crate::profile::Kernel;
use crate::runtime::Runtime;
use crate::shard::{FetchPlanner, ShardDispatch};
use h2_dense::{Mat, MatMut, Op, StoredMat};

/// Sparsity pattern of a level's block-sparse matrix, pre-split into
/// conflict-free slots.
pub struct BsrPattern {
    nrows: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    /// `slot_of[p]` = slot (launch index) of block position `p`.
    slot_of: Vec<usize>,
    /// `slots[s][row]` = block position handled by launch `s` for `row`
    /// (or `usize::MAX` when the row is idle in that launch).
    slots: Vec<Vec<usize>>,
}

impl BsrPattern {
    /// Build from per-row adjacency lists: `rows[r]` holds the x-batch entry
    /// index of each block in row `r`. Block positions are numbered
    /// row-major: row 0's blocks first, then row 1's, …
    pub fn from_rows(rows: &[Vec<usize>]) -> Self {
        let nrows = rows.len();
        let mut row_ptr = Vec::with_capacity(nrows + 1);
        let mut col_idx = Vec::new();
        let mut slot_of = Vec::new();
        row_ptr.push(0);
        let csp = rows.iter().map(|r| r.len()).max().unwrap_or(0);
        let mut slots = vec![vec![usize::MAX; nrows]; csp];
        for (r, adj) in rows.iter().enumerate() {
            for (s, &c) in adj.iter().enumerate() {
                let pos = col_idx.len();
                col_idx.push(c);
                slot_of.push(s);
                slots[s][r] = pos;
            }
            row_ptr.push(col_idx.len());
        }
        BsrPattern {
            nrows,
            row_ptr,
            col_idx,
            slot_of,
            slots,
        }
    }

    /// Number of block rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Total number of blocks.
    pub fn nblocks(&self) -> usize {
        self.col_idx.len()
    }

    /// The sparsity constant: maximum blocks per row = number of launches.
    pub fn csp(&self) -> usize {
        self.slots.len()
    }

    /// Block positions of row `r`.
    pub fn row_blocks(&self, r: usize) -> &[usize] {
        // positions row_ptr[r]..row_ptr[r+1]
        // (exposed as a range for callers aligning their block arrays)
        &self.col_idx[self.row_ptr[r]..self.row_ptr[r + 1]]
    }

    /// x-batch entry of block position `p`.
    pub fn col_of(&self, p: usize) -> usize {
        self.col_idx[p]
    }

    /// Check the slot decomposition invariant: each launch touches each row
    /// at most once and every block is covered exactly once.
    pub fn validate(&self) -> bool {
        let mut seen = vec![false; self.nblocks()];
        for slot in &self.slots {
            for &p in slot.iter().filter(|&&p| p != usize::MAX) {
                if seen[p] {
                    return false;
                }
                seen[p] = true;
            }
        }
        seen.iter().all(|&s| s) && self.slot_of.len() == self.nblocks()
    }
}

/// A reference to one block of the BSR matrix, at its stored width (an
/// f32 block is multiplied by `gemm_mixed`). Symmetric H2 storage keeps
/// only the `s <= t` blocks, so the `(t, s)` side is applied transposed.
#[derive(Clone, Copy)]
pub struct BsrBlock<'a> {
    pub mat: StoredMat<'a>,
    pub transposed: bool,
}

impl<'a> BsrBlock<'a> {
    pub fn plain(mat: &'a Mat) -> Self {
        BsrBlock {
            mat: StoredMat::F64(mat),
            transposed: false,
        }
    }
}

/// `batchedBSRGemm`: `Y_r += alpha * Σ_p op(blocks[p]) * X_{col(p)}` over all
/// block positions `p` in row `r`, issued as `Csp` conflict-free batched
/// launches.
///
/// `op(blocks[p])` must have shape `(Y_r.rows, X_col.rows)`. The body is
/// slot-major over a chunk of block rows — every slot's launch over the
/// chunk before the next slot's — so each row accumulates its blocks in
/// slot order on every backend, and a sharded device runs all `Csp`
/// launches over its owner chunk as one queued job. On a sharded runtime,
/// `fetched` carries the per-device tickets of the `Ω_b` fetches
/// [`issue_bsr_fetches`] issued ahead for this call, and each device's job
/// waits for its own; `None` makes the call issue its own. Off the sharded
/// backend it is ignored.
pub fn bsr_gemm(
    rt: &Runtime,
    pattern: &BsrPattern,
    blocks: &[BsrBlock<'_>],
    x: &VarBatch,
    y: &mut VarBatch,
    alpha: f64,
    fetched: Option<Vec<Vec<u64>>>,
) {
    assert_eq!(
        blocks.len(),
        pattern.nblocks(),
        "bsr_gemm: block array mismatch"
    );
    assert_eq!(y.count(), pattern.nrows(), "bsr_gemm: y batch mismatch");
    let tickets = fetched
        .or_else(|| {
            let disp = rt.shard_dispatch()?;
            let x_rows: Vec<usize> = (0..x.count()).map(|c| x.rows_of(c)).collect();
            let d = if x.count() > 0 { x.cols_of(0) } else { 0 };
            Some(issue_bsr_fetches(disp.as_ref(), pattern, &x_rows, d))
        })
        .unwrap_or_default();
    // One batched-GEMM launch per slot (paper §IV.A: "at most Csp kernels
    // ... only one block from each row in each launch").
    rt.launches(Kernel::BsrGemm, pattern.csp());
    // A row's cost is its modeled flops: idle slots are free, and the few
    // huge coupling blocks stop pinning one parallel chunk.
    let row_flops = |r: usize, m: &MatMut<'_>| {
        pattern.row_blocks(r).iter().fold(0.0, |fl, &c| {
            fl + cost::bsr_flops(m.rows(), x.rows_of(c), x.cols_of(c))
        })
    };
    rt.run_chunks(
        y.split_mut(),
        owner,
        row_flops,
        Some(&tickets),
        move |mut rows| {
            for slot in &pattern.slots {
                for (r, m) in rows.iter_mut() {
                    let p = slot[*r];
                    if p == usize::MAX {
                        continue;
                    }
                    let xb = x.mat(pattern.col_of(p));
                    let b = blocks[p];
                    let op = if b.transposed { Op::Trans } else { Op::NoTrans };
                    b.mat.gemm(op, Op::NoTrans, alpha, xb, 1.0, m.rb_mut());
                }
            }
        },
    );
}

/// Issue the `Ω_b` fetches of one `batchedBSRGemm` over `pattern`, whose
/// partner `c` is an `x_rows[c] × d` block: [`FetchPlanner`]'s deduplicated
/// `(device, partner)` transfers in its first-need order. Returns the
/// tickets per destination device, the `fetched` argument of [`bsr_gemm`].
/// The landed bytes are charged from the plan with the rest of the epoch.
pub fn issue_bsr_fetches(
    disp: &dyn ShardDispatch,
    pattern: &BsrPattern,
    x_rows: &[usize],
    d: usize,
) -> Vec<Vec<u64>> {
    let n = pattern.nrows();
    debug_assert_eq!(x_rows.len(), n, "rows and partners are one population");
    let mut planner = FetchPlanner::new(n, disp.devices(), disp.wire());
    for r in 0..n {
        for &c in pattern.row_blocks(r) {
            planner.visit(r, c, x_rows[c], d);
        }
    }
    let mut tickets = vec![Vec::new(); disp.devices()];
    for t in planner.into_plan() {
        let ticket = disp.issue(t);
        if ticket != 0 {
            tickets[t.dst].push(ticket);
        }
    }
    tickets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::gather_rows;
    use h2_dense::{gaussian_mat, matmul};

    #[test]
    fn pattern_slots_are_valid() {
        let rows = vec![vec![0, 1, 2], vec![1], vec![], vec![0, 2]];
        let p = BsrPattern::from_rows(&rows);
        assert_eq!(p.nrows(), 4);
        assert_eq!(p.nblocks(), 6);
        assert_eq!(p.csp(), 3);
        assert!(p.validate());
        assert_eq!(p.row_blocks(3), &[0, 2]);
    }

    #[test]
    fn empty_pattern() {
        let p = BsrPattern::from_rows(&[vec![], vec![]]);
        assert_eq!(p.csp(), 0);
        assert!(p.validate());
    }

    /// Dense reference: build a block matrix, multiply, compare.
    #[test]
    fn bsr_gemm_matches_dense() {
        for rt in [Runtime::sequential(), Runtime::parallel()] {
            // 3 row-clusters of sizes 2,3,2 and x entries of sizes 2,3,2.
            let sizes = [2usize, 3, 2];
            let starts = [0usize, 2, 5];
            let n = 7;
            let d = 4;
            let adj = vec![vec![0, 1], vec![2], vec![0, 1, 2]];
            let pattern = BsrPattern::from_rows(&adj);
            // Random blocks sized (rows[r], cols[c]).
            let mut owned: Vec<Mat> = Vec::new();
            let mut dense = Mat::zeros(n, n);
            for (r, list) in adj.iter().enumerate() {
                for &c in list {
                    let b = gaussian_mat(sizes[r], sizes[c], (r * 10 + c) as u64);
                    for i in 0..sizes[r] {
                        for j in 0..sizes[c] {
                            dense[(starts[r] + i, starts[c] + j)] = b[(i, j)];
                        }
                    }
                    owned.push(b);
                }
            }
            let blocks: Vec<BsrBlock<'_>> = owned.iter().map(BsrBlock::plain).collect();
            let xg = gaussian_mat(n, d, 99);
            let ranges: Vec<(usize, usize)> = starts
                .iter()
                .zip(sizes.iter())
                .map(|(&s, &z)| (s, s + z))
                .collect();
            let x = gather_rows(&rt, &xg, &ranges);
            let mut y = VarBatch::zeros_uniform_cols(sizes.to_vec(), d);
            bsr_gemm(&rt, &pattern, &blocks, &x, &mut y, -1.0, None);

            let want = matmul(Op::NoTrans, Op::NoTrans, dense.rf(), xg.rf());
            for (r, &(s, _)) in ranges.iter().enumerate() {
                let got = y.to_mat(r);
                for i in 0..sizes[r] {
                    for j in 0..d {
                        assert!(
                            (got[(i, j)] + want[(s + i, j)]).abs() < 1e-12,
                            "row cluster {r} entry ({i},{j})"
                        );
                    }
                }
            }
            // Launch count == Csp.
            assert_eq!(rt.profile().launches(Kernel::BsrGemm), pattern.csp());
        }
    }

    #[test]
    fn accumulates_into_existing_y() {
        let rt = Runtime::sequential();
        let pattern = BsrPattern::from_rows(&[vec![0]]);
        let eye = Mat::eye(2);
        let blocks = vec![BsrBlock::plain(&eye)];
        let xg = gaussian_mat(2, 2, 1);
        let x = gather_rows(&rt, &xg, &[(0, 2)]);
        let mut y = VarBatch::zeros_uniform_cols(vec![2], 2);
        y.for_each_mut(|_, mut m| m.fill(1.0));
        bsr_gemm(&rt, &pattern, &blocks, &x, &mut y, 2.0, None);
        let got = y.to_mat(0);
        assert!((got[(0, 0)] - (1.0 + 2.0 * xg[(0, 0)])).abs() < 1e-14);
    }
}
