//! O(N) H2 matrix-vector and matrix-block products, side-generic.
//!
//! # Three passes
//!
//! An upward pass compresses the input through the nested *input-side* bases
//! (`x̂_τ = V_τᵀ x_τ`), the coupling products add `ŷ_s += B_{s,t} x̂_t`, and
//! a downward pass expands through the *output-side* bases
//! (`y_τ = U_τ ŷ_τ`), to which the dense near field `y_s += D_{s,t} x_t` is
//! added. This is the fast black-box sampler `Kblk(·)` used by the
//! construction experiments (the paper uses H2Opus's matvec for the same
//! purpose). One implementation serves all four products: `K x` reads input
//! side `V`, output side `U`; `Kᵀ x` swaps the sides and reads every block
//! through [`BlockStore::lookup_op`] with the transpose flag — for a
//! symmetric matrix both sides alias the same basis tree and the two products
//! coincide bitwise.
//!
//! # One traversal of the stored blocks
//!
//! A single-vector product is bandwidth-bound: its cost is the bytes of
//! coupling and dense blocks it moves. A symmetric [`BlockStore`] keeps one
//! block per unordered pair, so the in-process product (the [`LinOp`]
//! implementation of [`H2Matrix`]) visits *stored blocks*, not block rows:
//! rows are taken in ascending order, and a stored block `(s, t)`, `s < t`,
//! is used while it is in cache for both `acc_s += B x_t` and
//! `acc_t += Bᵀ x_s`. Coupling and near field are the same traversal
//! (`ApplyPhases::traverse`) over a different store, adjacency list and
//! input. An ordered (unsymmetric) store has nothing to pair; the same loop
//! then visits each block once from its own row.
//!
//! # Why the bits do not change
//!
//! A row-by-row product accumulates row `t` over its adjacency list in list
//! order. That list is **strictly ascending** and the relation is symmetric
//! (`h2_tree::Partition::validate` checks both; the argument depends on
//! it), so row `t`'s order is: every partner `s < t` ascending, then every
//! `t' ≥ t` ascending. The traversal reaches rows in ascending order, so
//! row `t` receives its mirrored contributions from `s < t` in ascending
//! `s` — each the very GEMM call the row-by-row product makes, on an
//! accumulator holding the very same partial sum — before its own turn adds
//! `t' ≥ t` ascending. Same calls, same operands, same order: the result is
//! bit-identical to the row-by-row product, which `tests/apply_onepass.rs`
//! keeps as its oracle.
//!
//! # Chunks
//!
//! For several workers the rows are cut into contiguous chunks, one owner
//! each. A block with both rows in one chunk is read once. A block
//! straddling two chunks is read by both owners: the later chunk applies
//! its earlier-chunk partners in a prologue (ascending, before anything
//! else touches the row), the earlier chunk applies its later-chunk
//! partners at the row's turn. Every row keeps the order above whatever the
//! boundaries, so the bits do not depend on the chunk — or thread — count;
//! one chunk is the plain sequential traversal.
//!
//! The per-node work of each pass is factored into [`ApplyPhases`] so that
//! two executors drive the same numerics: the in-process path below and the
//! device-sharded executor of the `h2_sched` crate. A device there owns a
//! contiguous node chunk of each level and runs the same chunk kernel,
//! [`ApplyPhases::traverse_chunk`], over it — so its product is
//! bit-identical to this one whatever the device count.

use crate::format::{BlockOp, BlockStore, H2Matrix, StoreLayout};
use h2_dense::{gemm, LinOp, Mat, MatMut, MatRef, Op};
use rayon::prelude::*;

/// Side-resolved per-node kernels of the three-pass matvec.
///
/// Holds the input/output basis resolution for a forward (`K x`) or
/// transposed (`Kᵀ x`) product; each method is the body of one batched
/// kernel of one pass, operating on a single node or, for the coupling and
/// near-field passes, on a contiguous chunk of rows. The caller owns the
/// `x̂`/`ŷ` arrays and the scheduling (rayon, sequential, or sharded).
pub struct ApplyPhases<'a> {
    h2: &'a H2Matrix,
    transpose: bool,
    in_basis: &'a [Mat],
    out_basis: &'a [Mat],
}

impl H2Matrix {
    /// The phase kernels of `K x` (`transpose == false`) or `Kᵀ x`.
    pub fn apply_phases(&self, transpose: bool) -> ApplyPhases<'_> {
        // For K:  input side = V (column), output side = U (row).
        // For Kᵀ: input side = U, output side = V.
        let (in_basis, out_basis) = if transpose {
            (&self.basis[..], self.col_basis())
        } else {
            (self.col_basis(), &self.basis[..])
        };
        ApplyPhases {
            h2: self,
            transpose,
            in_basis,
            out_basis,
        }
    }
}

impl<'a> ApplyPhases<'a> {
    /// Bases compressing the input (`V` for `K x`).
    pub fn in_basis(&self) -> &'a [Mat] {
        self.in_basis
    }

    /// Bases expanding the output (`U` for `K x`).
    pub fn out_basis(&self) -> &'a [Mat] {
        self.out_basis
    }

    /// Upsweep kernel for one node: `x̂_id = V_idᵀ ·` (leaf rows of `x`, or
    /// the stacked child `x̂`s). `None` when the node carries no input
    /// basis. Children with rank 0 (empty far field) contribute zero rows.
    pub fn upsweep_node(&self, id: usize, x: MatRef<'_>, xhat: &[Mat]) -> Option<Mat> {
        let v = &self.in_basis[id];
        if v.cols() == 0 {
            return None;
        }
        let tree = &self.h2.tree;
        let d = x.cols();
        let mut out = Mat::zeros(v.cols(), d);
        if tree.level_of(id) == tree.leaf_level() {
            let (b, e) = tree.range(id);
            gemm(
                Op::Trans,
                Op::NoTrans,
                1.0,
                v.rf(),
                x.view(b, 0, e - b, d),
                0.0,
                out.rm(),
            );
        } else {
            let (c1, c2) = tree.nodes[id].children.unwrap();
            let (k1, k2) = (self.in_basis[c1].cols(), self.in_basis[c2].cols());
            let mut stacked = Mat::zeros(k1 + k2, d);
            if xhat[c1].rows() == k1 && xhat[c1].cols() == d && k1 > 0 {
                stacked.view_mut(0, 0, k1, d).copy_from(xhat[c1].rf());
            }
            if xhat[c2].rows() == k2 && xhat[c2].cols() == d && k2 > 0 {
                stacked.view_mut(k1, 0, k2, d).copy_from(xhat[c2].rf());
            }
            gemm(
                Op::Trans,
                Op::NoTrans,
                1.0,
                v.rf(),
                stacked.rf(),
                0.0,
                out.rm(),
            );
        }
        Some(out)
    }

    /// The zeroed `ŷ_s` accumulator of the coupling pass: `k_s × d` when `s`
    /// has admissible partners, empty otherwise.
    pub fn coupling_acc(&self, s: usize, d: usize) -> Mat {
        if self.h2.partition.far_of[s].is_empty() {
            Mat::zeros(0, 0)
        } else {
            Mat::zeros(self.out_basis[s].cols(), d)
        }
    }

    /// Downsweep kernel for one child: its transfer slice applied to the
    /// parent's `ŷ` (`E_child ŷ_parent`), to be accumulated into
    /// `ŷ_child`. `None` when the parent carries nothing.
    pub fn downsweep_child(&self, child: usize, yhat: &[Mat], d: usize) -> Option<Mat> {
        let tree = &self.h2.tree;
        let parent = tree.nodes[child].parent?;
        if yhat[parent].rows() == 0 || self.out_basis[parent].cols() == 0 {
            return None;
        }
        let (c1, _c2) = tree.nodes[parent].children.unwrap();
        let kc = self.out_basis[child].cols();
        let kp = self.out_basis[parent].cols();
        let off = if child == c1 {
            0
        } else {
            self.out_basis[c1].cols()
        };
        let e = self.out_basis[parent].view(off, 0, kc, kp);
        let mut out = Mat::zeros(kc, d);
        gemm(
            Op::NoTrans,
            Op::NoTrans,
            1.0,
            e,
            yhat[parent].rf(),
            0.0,
            out.rm(),
        );
        Some(out)
    }

    /// Leaf expansion kernel: `U_s ŷ_s`, the output rows of leaf `s` before
    /// any near-field block lands on them (zero where the leaf carries no
    /// basis).
    pub fn expand_leaf(&self, s: usize, yhat: &[Mat], d: usize) -> Mat {
        let mut out = Mat::zeros(self.h2.tree.nodes[s].len(), d);
        if yhat[s].rows() > 0 && self.out_basis[s].cols() > 0 {
            gemm(
                Op::NoTrans,
                Op::NoTrans,
                1.0,
                self.out_basis[s].rf(),
                yhat[s].rf(),
                1.0,
                out.rm(),
            );
        }
        out
    }

    /// One traversal of the stored blocks of `store` (see the module docs):
    /// `acc[s - first] += Σ_{t ∈ adj[s]} op(block(s, t)) · input(t)` for the
    /// rows `first .. first + acc.len()`, cut into `nchunks` contiguous
    /// chunks that run in parallel. Bit-identical to accumulating each row
    /// over `adj[s]` in list order, for every `nchunks`.
    fn traverse<'x>(
        &self,
        store: &BlockStore,
        adj: &[Vec<usize>],
        input: &(impl Fn(usize) -> MatRef<'x> + Sync),
        first: usize,
        acc: &mut [Mat],
        nchunks: usize,
    ) {
        let per = acc.len().div_ceil(nchunks.max(1)).max(1);
        let chunks: Vec<(usize, &mut [Mat])> = acc
            .chunks_mut(per)
            .enumerate()
            .map(|(c, rows)| (first + c * per, rows))
            .collect();
        chunks
            .into_par_iter()
            .for_each(|(lo, rows)| self.traverse_chunk(store, adj, input, lo, rows));
    }

    /// The chunk kernel of the coupling and near-field passes: the rows
    /// `lo .. lo + acc.len()` of one traversal of `store`'s stored blocks,
    /// `acc[s - lo] += Σ_{t ∈ adj[s]} op(block(s, t)) · input(t)`, reading
    /// each block with both rows in the chunk once (module docs). Every row
    /// ends bit-identical to accumulating it over `adj[s]` in list order,
    /// wherever the chunk starts and ends. Rows and inputs of rank 0 take
    /// part in nothing (zero-dimensional blocks, which a store need not
    /// hold).
    pub fn traverse_chunk<'x>(
        &self,
        store: &BlockStore,
        adj: &[Vec<usize>],
        input: &impl Fn(usize) -> MatRef<'x>,
        lo: usize,
        acc: &mut [Mat],
    ) {
        let hi = lo + acc.len();
        let live = |row: &Mat, t: usize| row.rows() > 0 && input(t).rows() > 0;
        let block = |s: usize, t: usize| {
            store
                .lookup_op(s, t, self.transpose)
                .expect("partition block present in the store")
        };
        // A symmetric store holds `(s, t)` for `s <= t` only: the row of the
        // larger index gets the block mirrored, when the smaller one is at
        // its turn.
        let paired = store.layout() == StoreLayout::Symmetric;
        // Prologue: partners owned by earlier chunks, which every row
        // accumulates before anything of this chunk reaches it.
        for s in lo..hi {
            for &t in adj[s].iter().take_while(|&&t| t < lo) {
                if live(&acc[s - lo], t) {
                    accumulate(block(s, t), input(t), acc[s - lo].rm());
                }
            }
        }
        for s in lo..hi {
            for &t in adj[s].iter().skip_while(|&&t| t < lo) {
                if paired && t < s {
                    continue; // arrived mirrored at row t's turn
                }
                let own = live(&acc[s - lo], t);
                let mirror = paired && s < t && t < hi && live(&acc[t - lo], s);
                if !own && !mirror {
                    continue;
                }
                let blk = block(s, t);
                if own {
                    accumulate(blk, input(t), acc[s - lo].rm());
                }
                if mirror {
                    accumulate(blk.mirrored(), input(s), acc[t - lo].rm());
                }
            }
        }
    }
}

/// `acc += op(block) · input` — the one accumulation the coupling and
/// near-field phases are made of, whoever schedules it. A demoted block is
/// read at its stored f32 width ([`h2_dense::StoredMat::gemm`]), bitwise
/// what the f64 product on its promoted values gives.
fn accumulate(blk: BlockOp<'_>, input: MatRef<'_>, acc: MatMut<'_>) {
    let op = if blk.transposed {
        Op::Trans
    } else {
        Op::NoTrans
    };
    blk.mat.gemm(op, Op::NoTrans, 1.0, input, 1.0, acc);
}

impl H2Matrix {
    /// The product behind `LinOp::apply` / `LinOp::apply_transpose` with
    /// the block traversal cut into `nchunks` row chunks instead of one per
    /// worker thread. The result does not depend on `nchunks` (module
    /// docs); this entry point exists so that tests can hold the product to
    /// that.
    #[doc(hidden)]
    pub fn apply_chunked(&self, x: MatRef<'_>, mut y: MatMut<'_>, transpose: bool, nchunks: usize) {
        let n = self.n();
        let d = x.cols();
        assert_eq!(x.rows(), n, "apply: x rows");
        assert_eq!(y.rows(), n, "apply: y rows");
        assert_eq!(y.cols(), d, "apply: y cols");

        let ph = self.apply_phases(transpose);
        let tree = &self.tree;
        let nnodes = tree.nodes.len();
        let leaf_level = tree.leaf_level();

        // ---- upward pass through the input basis: x̂_τ ----
        let mut xhat: Vec<Mat> = vec![Mat::zeros(0, 0); nnodes];
        for l in (0..tree.nlevels()).rev() {
            let ids: Vec<usize> = tree.level(l).collect();
            let level_res: Vec<(usize, Mat)> = ids
                .par_iter()
                .filter_map(|&id| ph.upsweep_node(id, x, &xhat).map(|m| (id, m)))
                .collect();
            for (id, m) in level_res {
                xhat[id] = m;
            }
        }

        // ---- coupling products: ŷ_s = Σ_t op(B) x̂_t, by stored block ----
        let far_of = &self.partition.far_of;
        let mut yhat: Vec<Mat> = (0..nnodes).map(|s| ph.coupling_acc(s, d)).collect();
        ph.traverse(
            &self.coupling,
            far_of,
            &|t| xhat[t].rf(),
            0,
            &mut yhat,
            nchunks,
        );

        // ---- downward pass through the output basis ----
        for l in 0..tree.nlevels() {
            if l == leaf_level {
                break;
            }
            let ids: Vec<usize> = tree.level(l + 1).collect();
            let contrib: Vec<(usize, Mat)> = ids
                .par_iter()
                .filter_map(|&child| ph.downsweep_child(child, &yhat, d).map(|m| (child, m)))
                .collect();
            for (child, m) in contrib {
                if yhat[child].rows() == 0 {
                    yhat[child] = m;
                } else {
                    yhat[child].axpy(1.0, &m);
                }
            }
        }

        // ---- expand at leaves, then the dense near field by stored block ----
        let leaves = tree.level(leaf_level);
        let mut out: Vec<Mat> = leaves
            .clone()
            .into_par_iter()
            .map(|s| ph.expand_leaf(s, &yhat, d))
            .collect();
        let rows_of = |t: usize| {
            let (b, e) = tree.range(t);
            x.view(b, 0, e - b, d)
        };
        ph.traverse(
            &self.dense,
            &self.partition.near_of,
            &rows_of,
            leaves.start,
            &mut out,
            nchunks,
        );
        // Leaf row ranges tile `0..n`: every row of y is written here.
        for (s, m) in leaves.zip(&out) {
            let b = tree.range(s).0;
            y.rb_mut().into_view(b, 0, m.rows(), d).copy_from(m.rf());
        }
    }

    /// `y = K x` in the *original* (pre-permutation) index ordering.
    pub fn apply_original(&self, x: &Mat) -> Mat {
        let n = self.n();
        assert_eq!(x.rows(), n);
        let xp = Mat::from_fn(n, x.cols(), |i, j| x[(self.tree.perm[i], j)]);
        let yp = self.apply_mat(&xp);
        Mat::from_fn(n, x.cols(), |i, j| yp[(self.tree.iperm[i], j)])
    }
}

impl LinOp for H2Matrix {
    fn nrows(&self) -> usize {
        self.n()
    }

    fn ncols(&self) -> usize {
        self.n()
    }

    /// `y = K x` for a block of vectors, in tree-permuted coordinates, like
    /// every operator in this workspace.
    fn apply(&self, x: MatRef<'_>, y: MatMut<'_>) {
        self.apply_chunked(x, y, false, rayon::current_num_threads());
    }

    /// `y = Kᵀ x`: the basis sides swap and blocks are read transposed
    /// (`Kᵀ`'s block `(s, t)` is `K(I_t, I_s)ᵀ`). Bitwise equal to `apply`
    /// for symmetric matrices.
    fn apply_transpose(&self, x: MatRef<'_>, y: MatMut<'_>) {
        self.apply_chunked(x, y, true, rayon::current_num_threads());
    }
}
