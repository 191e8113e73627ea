//! Column-major dense matrix storage and lightweight views.
//!
//! All linear algebra in the workspace is built on three types:
//! [`Mat`] (owning), [`MatRef`] (borrowed view) and [`MatMut`] (mutable
//! borrowed view). Views carry an explicit leading dimension `ld` so that
//! sub-blocks of a larger allocation (e.g. a batched workspace from
//! `h2-runtime`) can be addressed without copying, exactly like BLAS/LAPACK
//! routines address sub-matrices.

use std::fmt;

/// Columns per pass of the factorizations' one-reflector trailing updates
/// ([`MatMut::for_column_groups`], the QR panel kernel and CPQR): the group
/// loads each reflector entry once for `W` columns and runs `W` independent
/// add chains. Four measured fastest on an x86-64 baseline (SSE2) build,
/// ahead of two and eight. (Right-hand-side blocks run in strips
/// instead, `crate::strip`.)
pub(crate) const W: usize = 4;

/// An owning, column-major, `f64` matrix with `ld == rows`.
#[derive(Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// Immutable column-major view with explicit leading dimension.
#[derive(Clone, Copy)]
pub struct MatRef<'a> {
    rows: usize,
    cols: usize,
    ld: usize,
    data: &'a [f64],
}

/// Mutable column-major view with explicit leading dimension.
pub struct MatMut<'a> {
    rows: usize,
    cols: usize,
    ld: usize,
    data: &'a mut [f64],
}

impl Mat {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn eye(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a column-major data vector (`data.len() == rows*cols`).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "column-major data length mismatch");
        Mat { rows, cols, data }
    }

    /// Build from a closure evaluated at every `(row, col)` pair.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for j in 0..cols {
            for i in 0..rows {
                data.push(f(i, j));
            }
        }
        Mat { rows, cols, data }
    }

    /// Build from row-major slices (convenient for literals in tests).
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = if r == 0 { 0 } else { rows[0].len() };
        Mat::from_fn(r, c, |i, j| rows[i][j])
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of entries.
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Immutable view of the whole matrix.
    pub fn rf(&self) -> MatRef<'_> {
        MatRef {
            rows: self.rows,
            cols: self.cols,
            ld: self.rows.max(1),
            data: &self.data,
        }
    }

    /// Mutable view of the whole matrix.
    pub fn rm(&mut self) -> MatMut<'_> {
        MatMut {
            rows: self.rows,
            cols: self.cols,
            ld: self.rows.max(1),
            data: &mut self.data,
        }
    }

    /// Immutable view of the sub-block starting at `(r0, c0)` of shape `nr x nc`.
    pub fn view(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> MatRef<'_> {
        self.rf().view(r0, c0, nr, nc)
    }

    /// Mutable view of the sub-block starting at `(r0, c0)` of shape `nr x nc`.
    pub fn view_mut(&mut self, r0: usize, c0: usize, nr: usize, nc: usize) -> MatMut<'_> {
        self.rm().into_view(r0, c0, nr, nc)
    }

    /// Zero-copy view of the `nc` columns starting at `c0` (all rows).
    /// The multi-RHS gather primitive: slicing a coalesced batch back into
    /// per-request column groups without materializing copies.
    pub fn col_block(&self, c0: usize, nc: usize) -> MatRef<'_> {
        self.view(0, c0, self.rows, nc)
    }

    /// Mutable zero-copy view of the `nc` columns starting at `c0`.
    pub fn col_block_mut(&mut self, c0: usize, nc: usize) -> MatMut<'_> {
        let rows = self.rows;
        self.view_mut(0, c0, rows, nc)
    }

    /// Underlying column-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Column `j` as a contiguous slice.
    pub fn col(&self, j: usize) -> &[f64] {
        &self.data[j * self.rows..(j + 1) * self.rows]
    }

    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        &mut self.data[j * self.rows..(j + 1) * self.rows]
    }

    /// First non-finite entry (NaN/±Inf) in column-major order, if any:
    /// `(row, col, value)`. The detection primitive behind the kernel
    /// poison tripwires — a NaN produced by one batched kernel propagates
    /// through every downstream GEMM, so catching it at the producing
    /// phase boundary is the only place the diagnosis is cheap.
    pub fn find_nonfinite(&self) -> Option<(usize, usize, f64)> {
        self.data
            .iter()
            .position(|v| !v.is_finite())
            .map(|k| (k % self.rows.max(1), k / self.rows.max(1), self.data[k]))
    }

    /// Panic with a located diagnostic if any entry is non-finite. Used as
    /// a debug-mode tripwire at phase boundaries (`ctx` names the phase).
    pub fn assert_finite(&self, ctx: &str) {
        if let Some((i, j, v)) = self.find_nonfinite() {
            panic!(
                "{ctx}: non-finite value {v} at ({i}, {j}) of {}x{}",
                self.rows, self.cols
            );
        }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Mat {
        Mat::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }

    /// Copy of the rows selected by `idx` (in order).
    pub fn select_rows(&self, idx: &[usize]) -> Mat {
        Mat::from_fn(idx.len(), self.cols, |i, j| self[(idx[i], j)])
    }

    /// Copy of the columns selected by `idx` (in order).
    pub fn select_cols(&self, idx: &[usize]) -> Mat {
        Mat::from_fn(self.rows, idx.len(), |i, j| self[(i, idx[j])])
    }

    /// Horizontal concatenation `[self, other]`.
    pub fn hcat(&self, other: &Mat) -> Mat {
        assert_eq!(self.rows, other.rows, "hcat: row mismatch");
        let mut data = Vec::with_capacity((self.cols + other.cols) * self.rows);
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Mat::from_vec(self.rows, self.cols + other.cols, data)
    }

    /// Vertical concatenation `[self; other]`.
    pub fn vcat(&self, other: &Mat) -> Mat {
        assert_eq!(self.cols, other.cols, "vcat: col mismatch");
        Mat::from_fn(self.rows + other.rows, self.cols, |i, j| {
            if i < self.rows {
                self[(i, j)]
            } else {
                other[(i - self.rows, j)]
            }
        })
    }

    /// In-place scaling `self *= alpha`.
    pub fn scale(&mut self, alpha: f64) {
        for v in &mut self.data {
            *v *= alpha;
        }
    }

    /// `self += alpha * other` (same shape).
    pub fn axpy(&mut self, alpha: f64, other: &Mat) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "axpy: shape mismatch"
        );
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Largest absolute entry.
    pub fn norm_max(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, v| m.max(v.abs()))
    }

    /// Grow to `cols + extra` columns filled with zeros (rows unchanged).
    pub fn append_zero_cols(&mut self, extra: usize) {
        self.data.resize(self.rows * (self.cols + extra), 0.0);
        self.cols += extra;
    }

    /// Horizontally append the columns of `other` (row counts must match).
    pub fn append_cols(&mut self, other: MatRef<'_>) {
        assert_eq!(self.rows, other.rows(), "append_cols: row mismatch");
        let old = self.cols;
        self.append_zero_cols(other.cols());
        self.view_mut(0, old, self.rows, other.cols())
            .copy_from(other);
    }

    /// Bytes of heap storage (used for the paper's memory accounting).
    pub fn memory_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }
}

impl std::ops::Index<(usize, usize)> for Mat {
    type Output = f64;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i + j * self.rows]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Mat {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i + j * self.rows]
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(8) {
                write!(f, "{:>12.5e} ", self[(i, j)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "..." } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

impl<'a> MatRef<'a> {
    /// Construct a view from raw parts; `data` must cover the last entry.
    pub fn from_parts(rows: usize, cols: usize, ld: usize, data: &'a [f64]) -> Self {
        assert!(ld >= rows.max(1), "ld too small");
        if cols > 0 && rows > 0 {
            assert!(
                data.len() >= (cols - 1) * ld + rows,
                "data too short for view"
            );
        }
        MatRef {
            rows,
            cols,
            ld,
            data,
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn ld(&self) -> usize {
        self.ld
    }

    #[inline(always)]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i + j * self.ld]
    }

    /// Column `j` as a slice of length `rows`.
    #[inline]
    pub fn col(&self, j: usize) -> &'a [f64] {
        if self.rows == 0 {
            return &[];
        }
        &self.data[j * self.ld..j * self.ld + self.rows]
    }

    /// Sub-view. Zero-size views are legal anywhere within (or at the
    /// boundary of) the parent's index range, e.g. `view(rows, cols, 0, 0)`.
    pub fn view(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> MatRef<'a> {
        assert!(
            r0 + nr <= self.rows && c0 + nc <= self.cols,
            "view out of bounds"
        );
        if nr == 0 || nc == 0 {
            return MatRef {
                rows: nr,
                cols: nc,
                ld: 1,
                data: &[],
            };
        }
        let off = r0 + c0 * self.ld;
        let end = off + (nc - 1) * self.ld + nr;
        MatRef {
            rows: nr,
            cols: nc,
            ld: self.ld,
            data: &self.data[off..end],
        }
    }

    /// Zero-copy view of the `nc` columns starting at `c0` (all rows).
    pub fn col_block(&self, c0: usize, nc: usize) -> MatRef<'a> {
        self.view(0, c0, self.rows, nc)
    }

    /// Owned copy of this view.
    pub fn to_mat(&self) -> Mat {
        let mut m = Mat::zeros(self.rows, self.cols);
        m.rm().copy_from(*self);
        m
    }

    pub fn norm_fro(&self) -> f64 {
        let mut s = 0.0;
        for j in 0..self.cols {
            for &v in self.col(j) {
                s += v * v;
            }
        }
        s.sqrt()
    }

    pub fn norm_max(&self) -> f64 {
        let mut s = 0.0_f64;
        for j in 0..self.cols {
            for &v in self.col(j) {
                s = s.max(v.abs());
            }
        }
        s
    }
}

impl<'a> MatMut<'a> {
    /// Construct a mutable view from raw parts.
    pub fn from_parts(rows: usize, cols: usize, ld: usize, data: &'a mut [f64]) -> Self {
        assert!(ld >= rows.max(1), "ld too small");
        if cols > 0 && rows > 0 {
            assert!(
                data.len() >= (cols - 1) * ld + rows,
                "data too short for view"
            );
        }
        MatMut {
            rows,
            cols,
            ld,
            data,
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn ld(&self) -> usize {
        self.ld
    }

    #[inline(always)]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i + j * self.ld]
    }

    #[inline(always)]
    pub fn at_mut(&mut self, i: usize, j: usize) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i + j * self.ld]
    }

    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        if self.rows == 0 {
            return &[];
        }
        &self.data[j * self.ld..j * self.ld + self.rows]
    }

    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        if self.rows == 0 {
            return &mut [];
        }
        &mut self.data[j * self.ld..j * self.ld + self.rows]
    }

    /// Immutable re-borrow of this view.
    pub fn rb(&self) -> MatRef<'_> {
        MatRef {
            rows: self.rows,
            cols: self.cols,
            ld: self.ld,
            data: self.data,
        }
    }

    /// Base pointer and leading dimension of the backing storage, for
    /// kernel-internal writes to provably disjoint tiles (the parallel GEMM
    /// splits C into row bands that column-major slices cannot express as
    /// disjoint subslices). Entry `(i, j)` lives at `ptr + i + j * ld`.
    pub fn raw_parts_mut(&mut self) -> (*mut f64, usize) {
        (self.data.as_mut_ptr(), self.ld)
    }

    /// Mutable re-borrow (for passing to functions without consuming).
    pub fn rb_mut(&mut self) -> MatMut<'_> {
        MatMut {
            rows: self.rows,
            cols: self.cols,
            ld: self.ld,
            data: self.data,
        }
    }

    /// Consume into a sub-view. Zero-size views are legal anywhere within
    /// (or at the boundary of) the parent's index range.
    pub fn into_view(self, r0: usize, c0: usize, nr: usize, nc: usize) -> MatMut<'a> {
        assert!(
            r0 + nr <= self.rows && c0 + nc <= self.cols,
            "view out of bounds"
        );
        if nr == 0 || nc == 0 {
            return MatMut {
                rows: nr,
                cols: nc,
                ld: 1,
                data: &mut [],
            };
        }
        let off = r0 + c0 * self.ld;
        let end = off + (nc - 1) * self.ld + nr;
        MatMut {
            rows: nr,
            cols: nc,
            ld: self.ld,
            data: &mut self.data[off..end],
        }
    }

    /// Consume into a zero-copy view of the `nc` columns starting at `c0`
    /// (all rows). The mutable half of the multi-RHS scatter path: each
    /// coalesced request writes straight into its column group of the batch.
    pub fn col_block_mut(self, c0: usize, nc: usize) -> MatMut<'a> {
        let rows = self.rows;
        self.into_view(0, c0, rows, nc)
    }

    /// Split into two disjoint column-range views `[0, c)` and `[c, cols)`.
    pub fn split_cols(self, c: usize) -> (MatMut<'a>, MatMut<'a>) {
        assert!(c <= self.cols);
        // A sub-view's storage ends with its last column's `rows` entries,
        // short of a full `ld` stride: clamp so `c == cols` splits there.
        let at = (c * self.ld).min(self.data.len());
        let (l, r) = self.data.split_at_mut(at);
        (
            MatMut {
                rows: self.rows,
                cols: c,
                ld: self.ld,
                data: l,
            },
            MatMut {
                rows: self.rows,
                cols: self.cols - c,
                ld: self.ld,
                data: r,
            },
        )
    }

    /// Columns `j0..j0 + G` as `G` disjoint mutable slices of length `rows`
    /// (split off the storage with `split_at_mut`).
    pub(crate) fn cols_mut<const G: usize>(&mut self, j0: usize) -> [&mut [f64]; G] {
        assert!(j0 + G <= self.cols, "cols_mut out of bounds");
        let (rows, ld) = (self.rows, self.ld);
        let mut rest: &mut [f64] = if rows == 0 {
            &mut []
        } else {
            &mut self.data[j0 * ld..]
        };
        std::array::from_fn(|_| {
            // The last column of a sub-view ends short of a full stride.
            let cur = std::mem::take(&mut rest);
            let (col, tail) = cur.split_at_mut(ld.min(cur.len()));
            rest = tail;
            &mut col[..rows]
        })
    }

    /// Run a column-group kernel over every column: `group` on each run of
    /// [`W`] consecutive columns, then `single` on each of the last
    /// `cols % W` columns alone. Both are meant to be the same kernel at two
    /// widths, whose arithmetic per column does not depend on the width.
    pub(crate) fn for_column_groups(
        &mut self,
        mut group: impl FnMut([&mut [f64]; W]),
        mut single: impl FnMut([&mut [f64]; 1]),
    ) {
        let n = self.cols;
        let full = n - n % W;
        for j0 in (0..full).step_by(W) {
            group(self.cols_mut(j0));
        }
        for j in full..n {
            single(self.cols_mut(j));
        }
    }

    /// Copy entries from a same-shape source view.
    pub fn copy_from(&mut self, src: MatRef<'_>) {
        assert_eq!(
            (self.rows, self.cols),
            (src.rows(), src.cols()),
            "copy_from: shape mismatch"
        );
        for j in 0..self.cols {
            let s = src.col(j);
            self.col_mut(j).copy_from_slice(s);
        }
    }

    pub fn fill(&mut self, v: f64) {
        for j in 0..self.cols {
            self.col_mut(j).fill(v);
        }
    }

    pub fn scale(&mut self, alpha: f64) {
        for j in 0..self.cols {
            for v in self.col_mut(j) {
                *v *= alpha;
            }
        }
    }

    /// `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f64, other: MatRef<'_>) {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows(), other.cols()),
            "axpy: shape mismatch"
        );
        for j in 0..self.cols {
            let src = other.col(j);
            for (d, s) in self.col_mut(j).iter_mut().zip(src) {
                *d += alpha * s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn views_cross_threads_without_unsafe_impls() {
        // A view is a slice borrow plus integers, so the auto traits apply.
        fn send_sync<T: Send + Sync>() {}
        send_sync::<MatRef<'_>>();
        send_sync::<MatMut<'_>>();
    }

    #[test]
    fn column_groups_cover_every_column_once() {
        // A sub-view with ld > rows whose last column ends short of a stride.
        for n in [0, 1, 3, 4, 5, 9] {
            let mut m = Mat::zeros(5, n + 2);
            let mut v = m.view_mut(1, 1, 3, n);
            let (mut groups, mut singles) = (0, 0);
            v.for_column_groups(
                |cols| {
                    groups += 1;
                    cols.into_iter()
                        .for_each(|c| c.iter_mut().for_each(|x| *x += 1.0));
                },
                |[c]| {
                    singles += 1;
                    c.iter_mut().for_each(|x| *x += 1.0);
                },
            );
            assert_eq!((groups, singles), (n / W, n % W), "n = {n}");
            for j in 0..n + 2 {
                for i in 0..5 {
                    let inside = (1..4).contains(&i) && (1..=n).contains(&j);
                    assert_eq!(m[(i, j)], if inside { 1.0 } else { 0.0 }, "({i}, {j})");
                }
            }
        }
    }

    #[test]
    fn construct_and_index() {
        let m = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m[(1, 0)], 3.0);
        assert_eq!(m.col(1), &[2.0, 4.0]);
    }

    #[test]
    fn eye_is_identity() {
        let i = Mat::eye(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn views_address_subblocks() {
        let m = Mat::from_fn(4, 4, |i, j| (i * 10 + j) as f64);
        let v = m.view(1, 2, 2, 2);
        assert_eq!(v.at(0, 0), 12.0);
        assert_eq!(v.at(1, 1), 23.0);
        let vv = v.view(1, 0, 1, 2);
        assert_eq!(vv.at(0, 1), 23.0);
    }

    #[test]
    fn view_mut_writes_through() {
        let mut m = Mat::zeros(3, 3);
        {
            let mut v = m.view_mut(1, 1, 2, 2);
            v.fill(5.0);
        }
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m[(1, 1)], 5.0);
        assert_eq!(m[(2, 2)], 5.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Mat::from_fn(3, 5, |i, j| (i + 7 * j) as f64);
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn select_rows_and_cols() {
        let m = Mat::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let r = m.select_rows(&[3, 1]);
        assert_eq!(r[(0, 0)], 12.0);
        assert_eq!(r[(1, 2)], 6.0);
        let c = m.select_cols(&[2]);
        assert_eq!(c[(0, 0)], 2.0);
    }

    #[test]
    fn cat_shapes() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 2);
        assert_eq!(a.hcat(&b).cols(), 5);
        let c = Mat::zeros(4, 3);
        assert_eq!(a.vcat(&c).rows(), 6);
    }

    #[test]
    fn append_cols_grows() {
        let mut a = Mat::from_fn(2, 2, |i, j| (i + j) as f64);
        let b = Mat::from_fn(2, 3, |i, j| (10 + i + j) as f64);
        a.append_cols(b.rf());
        assert_eq!(a.cols(), 5);
        assert_eq!(a[(1, 4)], 13.0);
        assert_eq!(a[(1, 1)], 2.0);
    }

    #[test]
    fn split_cols_disjoint() {
        let mut m = Mat::zeros(2, 4);
        let (mut l, mut r) = m.rm().split_cols(1);
        l.fill(1.0);
        r.fill(2.0);
        assert_eq!(m[(0, 0)], 1.0);
        assert_eq!(m[(1, 3)], 2.0);
        // A sub-view stops short of a full stride after its last column:
        // splitting off all of its columns must still work.
        let (mut all, none) = m.view_mut(0, 1, 1, 3).split_cols(3);
        assert_eq!((all.cols(), none.cols()), (3, 0));
        all.fill(3.0);
        assert_eq!((m[(0, 3)], m[(1, 3)]), (3.0, 2.0));
    }

    #[test]
    fn norms() {
        let m = Mat::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert!((m.norm_fro() - 5.0).abs() < 1e-14);
        assert_eq!(m.norm_max(), 4.0);
    }

    #[test]
    fn find_nonfinite_locates_first_in_column_major_order() {
        let mut m = Mat::from_fn(3, 3, |i, j| (i + j) as f64);
        assert_eq!(m.find_nonfinite(), None);
        m.assert_finite("clean");
        m[(2, 0)] = f64::NEG_INFINITY;
        m[(0, 1)] = f64::NAN;
        let (i, j, v) = m.find_nonfinite().unwrap();
        assert_eq!((i, j), (2, 0));
        assert!(v.is_infinite());
    }

    #[test]
    #[should_panic(expected = "upsweep gemm")]
    fn assert_finite_panics_with_context() {
        let mut m = Mat::zeros(2, 2);
        m[(1, 1)] = f64::NAN;
        m.assert_finite("upsweep gemm");
    }

    #[test]
    fn gemm_propagates_nan_from_one_operand_entry() {
        // One poisoned entry in A contaminates a full output row of
        // C = A·B — the reason tripwires must sit at the *producing*
        // kernel's boundary, not three levels downstream.
        let mut a = Mat::from_fn(4, 4, |i, j| 1.0 + (i * 4 + j) as f64);
        let b = Mat::from_fn(4, 4, |i, j| 1.0 / (1.0 + (i + j) as f64));
        a[(2, 1)] = f64::NAN;
        let mut c = Mat::zeros(4, 4);
        crate::gemm(
            crate::Op::NoTrans,
            crate::Op::NoTrans,
            1.0,
            a.rf(),
            b.rf(),
            0.0,
            c.rm(),
        );
        let (i, _, _) = c.find_nonfinite().expect("NaN must propagate");
        assert_eq!(i, 2, "poisoned row of A contaminates row 2 of C");
        for jc in 0..4 {
            assert!(c[(2, jc)].is_nan(), "entire output row is NaN");
            assert!(c[(0, jc)].is_finite(), "other rows stay finite");
        }
    }
}
