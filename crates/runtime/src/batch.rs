//! Variable-size batched matrix workspaces.
//!
//! The paper avoids per-node allocations by computing the total size of each
//! level's workspace with a parallel prefix sum and making a *single*
//! allocation per operation (§IV.A). [`VarBatch`] reproduces that layout: one
//! contiguous buffer holding `count` column-major matrices of per-entry
//! shapes `(rows[i], cols[i])`, with offsets from the prefix sum.

use h2_dense::{Mat, MatMut, MatRef};

/// Contiguous chunk bounds over `n` batch entries such that every chunk
/// carries roughly the same total `cost` — the cost-aware analogue of
/// [`crate::shard::chunk_bounds`], with which the parallel backend of the
/// chunk runner ([`crate::Runtime::for_each_entry`]) sizes its chunks by
/// estimated flops instead of entry count. A prefix sum over the per-entry costs is cut at the `parts`
/// equal-cost quantiles, so a handful of huge top-level blocks no longer
/// land in one chunk with a thousand leaves in another.
///
/// Degenerate inputs fall back to count-based chunking (all-zero costs) and
/// the result always satisfies `bounds[0] == 0`, `bounds[parts] == n`,
/// monotone — the same contract as `chunk_bounds`.
pub fn cost_chunk_bounds<C: Fn(usize) -> f64>(n: usize, parts: usize, cost: C) -> Vec<usize> {
    let parts = parts.max(1);
    let mut prefix = Vec::with_capacity(n + 1);
    prefix.push(0.0f64);
    let mut acc = 0.0f64;
    for i in 0..n {
        let c = cost(i);
        acc += if c.is_finite() && c > 0.0 { c } else { 0.0 };
        prefix.push(acc);
    }
    if acc <= 0.0 {
        return crate::shard::chunk_bounds(n, parts);
    }
    let mut bounds = Vec::with_capacity(parts + 1);
    bounds.push(0usize);
    let mut lo = 0usize;
    for d in 1..parts {
        let target = acc * d as f64 / parts as f64;
        // First i with prefix[i] >= target, kept monotone w.r.t. prior cuts.
        let i = lo + prefix[lo..].partition_point(|&v| v < target);
        let i = i.min(n);
        bounds.push(i);
        lo = i;
    }
    bounds.push(n);
    bounds
}

/// A batch of variable-size column-major matrices in one allocation.
pub struct VarBatch {
    rows: Vec<usize>,
    cols: Vec<usize>,
    offsets: Vec<usize>, // length count + 1 (exclusive prefix sum)
    buf: Vec<f64>,
}

impl VarBatch {
    /// Allocate a zero-filled batch with the given per-entry shapes.
    ///
    /// The offset table is an exclusive prefix sum over `rows[i] * cols[i]` —
    /// the direct analogue of the paper's Thrust `exclusive_scan` +
    /// single `cudaMalloc`.
    pub fn zeros(rows: Vec<usize>, cols: Vec<usize>) -> Self {
        assert_eq!(rows.len(), cols.len(), "VarBatch: shape arrays must align");
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for i in 0..rows.len() {
            acc += rows[i] * cols[i];
            offsets.push(acc);
        }
        VarBatch {
            rows,
            cols,
            offsets,
            buf: vec![0.0; acc],
        }
    }

    /// Batch with the same column count `d` for every entry (the per-level
    /// sample layout: row counts vary with cluster size/rank, `d` is shared).
    pub fn zeros_uniform_cols(rows: Vec<usize>, d: usize) -> Self {
        let cols = vec![d; rows.len()];
        VarBatch::zeros(rows, cols)
    }

    pub fn count(&self) -> usize {
        self.rows.len()
    }

    pub fn rows_of(&self, i: usize) -> usize {
        self.rows[i]
    }

    pub fn cols_of(&self, i: usize) -> usize {
        self.cols[i]
    }

    /// Total scalar footprint of the batch.
    pub fn total_len(&self) -> usize {
        *self.offsets.last().unwrap_or(&0)
    }

    pub fn memory_bytes(&self) -> usize {
        self.buf.len() * std::mem::size_of::<f64>()
    }

    /// Immutable view of entry `i`.
    pub fn mat(&self, i: usize) -> MatRef<'_> {
        let (r, c) = (self.rows[i], self.cols[i]);
        MatRef::from_parts(
            r,
            c,
            r.max(1),
            &self.buf[self.offsets[i]..self.offsets[i + 1]],
        )
    }

    /// Mutable view of entry `i`.
    pub fn mat_mut(&mut self, i: usize) -> MatMut<'_> {
        let (r, c) = (self.rows[i], self.cols[i]);
        let range = self.offsets[i]..self.offsets[i + 1];
        MatMut::from_parts(r, c, r.max(1), &mut self.buf[range])
    }

    /// Owned copy of entry `i`.
    pub fn to_mat(&self, i: usize) -> Mat {
        self.mat(i).to_mat()
    }

    /// Copy a same-shape matrix into entry `i`.
    pub fn set(&mut self, i: usize, src: MatRef<'_>) {
        self.mat_mut(i).copy_from(src);
    }

    /// Visit every entry mutably, in order, on the calling thread (host
    /// set-up and tests; batched kernels go through the chunk runner).
    pub fn for_each_mut<F>(&mut self, mut f: F)
    where
        F: FnMut(usize, MatMut<'_>),
    {
        for (i, m) in self.split_mut().into_iter().enumerate() {
            f(i, m);
        }
    }

    /// Split the batch into one mutable matrix view per entry. The views
    /// alias disjoint sub-slices of the shared buffer, so they can be moved
    /// to different worker threads — the handle the chunk runner uses to
    /// give each pool task or virtual device its chunk of entries.
    pub(crate) fn split_mut(&mut self) -> Vec<MatMut<'_>> {
        let mut rest: &mut [f64] = &mut self.buf;
        let mut views = Vec::with_capacity(self.rows.len());
        for (&r, &c) in self.rows.iter().zip(&self.cols) {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(r * c);
            rest = tail;
            views.push(MatMut::from_parts(r, c, r.max(1), head));
        }
        views
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Runtime;

    #[test]
    fn layout_matches_prefix_sum() {
        let b = VarBatch::zeros(vec![2, 3, 0, 1], vec![4, 2, 5, 1]);
        assert_eq!(b.count(), 4);
        assert_eq!(b.total_len(), 8 + 6 + 1);
        assert_eq!(b.mat(1).rows(), 3);
        assert_eq!(b.mat(2).cols(), 5);
    }

    #[test]
    fn entries_are_independent() {
        let mut b = VarBatch::zeros_uniform_cols(vec![2, 3], 2);
        b.mat_mut(0).fill(1.0);
        b.mat_mut(1).fill(2.0);
        assert_eq!(b.mat(0).at(1, 1), 1.0);
        assert_eq!(b.mat(1).at(2, 0), 2.0);
    }

    #[test]
    fn parallel_for_each_writes_all() {
        let mut b = VarBatch::zeros_uniform_cols(vec![3; 64], 2);
        Runtime::parallel().for_each_entry(&mut b, &[], |_| 0.0, |i, mut m| m.fill(i as f64));
        for i in 0..64 {
            assert_eq!(b.mat(i).at(2, 1), i as f64);
        }
    }

    #[test]
    fn map_collects_in_order() {
        let mut b = VarBatch::zeros_uniform_cols(vec![1, 2, 3], 1);
        b.for_each_mut(|i, mut m| m.fill((i + 1) as f64));
        let sums: Vec<f64> =
            Runtime::parallel().map_entries(&b, |_| 0.0, |_, m| m.col(0).iter().sum());
        assert_eq!(sums, vec![1.0, 4.0, 9.0]);
    }

    #[test]
    fn zero_sized_entries_ok() {
        let mut b = VarBatch::zeros(vec![0, 2, 0], vec![3, 2, 0]);
        Runtime::parallel().for_each_entry(&mut b, &[], |_| 0.0, |_, mut m| m.fill(7.0));
        assert_eq!(b.mat(0).rows(), 0);
        assert_eq!(b.mat(1).at(0, 0), 7.0);
    }
    #[test]
    fn cost_bounds_cover_and_balance() {
        // Uniform costs reduce to near-count chunking.
        let b = cost_chunk_bounds(12, 3, |_| 1.0);
        assert_eq!(b, vec![0, 4, 8, 12]);
        // One huge entry gets a chunk of its own.
        let costs = [1.0, 1.0, 100.0, 1.0, 1.0, 1.0];
        let b = cost_chunk_bounds(6, 3, |i| costs[i]);
        assert_eq!(b[0], 0);
        assert_eq!(b[3], 6);
        for d in 0..3 {
            assert!(b[d] <= b[d + 1]);
        }
        // The chunk holding entry 2 must be narrow: the huge entry is not
        // bundled with the whole tail.
        let owner = (0..3).find(|&d| b[d] <= 2 && 2 < b[d + 1]).unwrap();
        assert!(
            b[owner + 1] - b[owner] <= 3,
            "huge entry bundled into chunk {:?}",
            &b
        );
    }

    #[test]
    fn cost_bounds_zero_costs_fall_back_to_count() {
        let b = cost_chunk_bounds(10, 3, |_| 0.0);
        assert_eq!(b, crate::shard::chunk_bounds(10, 3));
        let b = cost_chunk_bounds(0, 4, |_| 1.0);
        assert_eq!(*b.last().unwrap(), 0);
    }

    #[test]
    fn costed_for_each_visits_every_entry() {
        let rows: Vec<usize> = (0..97).map(|i| 1 + (i * 13) % 40).collect();
        let mut b = VarBatch::zeros_uniform_cols(rows.clone(), 2);
        Runtime::parallel().for_each_entry(
            &mut b,
            &[],
            |i| (rows[i] * rows[i]) as f64,
            |i, mut m| m.fill(i as f64 + 1.0),
        );
        for i in 0..97 {
            assert_eq!(b.mat(i).at(rows[i] - 1, 1), i as f64 + 1.0);
        }
    }

    #[test]
    fn zip_reads_other_batch() {
        let mut a = VarBatch::zeros_uniform_cols(vec![2, 2], 2);
        let mut b = VarBatch::zeros_uniform_cols(vec![2, 2], 2);
        a.for_each_mut(|i, mut m| m.fill((i + 1) as f64));
        let a = &a;
        Runtime::parallel().for_each_entry(
            &mut b,
            &[],
            |_| 0.0,
            |i, mut dst| {
                dst.axpy(2.0, a.mat(i));
            },
        );
        assert_eq!(b.mat(1).at(0, 0), 4.0);
    }
}
