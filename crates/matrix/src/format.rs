//! The side-generic H2 matrix representation.
//!
//! An H2 matrix (paper §II.A) stores:
//! * explicit bases `U_τ` at leaf clusters,
//! * transfer matrices `E_{ν1}, E_{ν2}` at inner clusters (stored stacked as
//!   one `(k_{ν1}+k_{ν2}) x k_τ` matrix — the nested-basis property,
//!   eq. (2)),
//! * small coupling matrices `B_{s,t} = K(Ĩ^r_s, Ĩ^c_t)` for admissible
//!   pairs,
//! * dense blocks `D_{s,t} = K(I_s, I_t)` for inadmissible leaf pairs.
//!
//! One type covers both symmetry regimes. The *row* side (`basis`/`skel` —
//! the basis tree `U` and row skeletons `Ĩ^r`) always exists. The *column*
//! side is [`BasisSide`]-valued and optional:
//!
//! * **symmetric** (`col == None`, the paper's simplification `V_t = U_t`):
//!   the column side aliases the row side, and the block stores deduplicate
//!   by unordered pair (`s <= t`) with the transposed orientation applied on
//!   the fly;
//! * **unsymmetric** (`col == Some(..)`): an independent column basis tree
//!   `V` with its own skeletons `Ĩ^c`, and block stores keyed by *ordered*
//!   pairs — for an unsymmetric matrix `K(I_s, I_t)` and `K(I_t, I_s)` are
//!   disjoint entry sets, so near-field memory doubles inherently.
//!
//! The same [`BlockStore`] implements both keying disciplines (and therefore
//! one `memory_bytes` accounting); [`BlockStore::lookup_op`] answers "the
//! block of `K` or `Kᵀ` at ordered position `(s, t)`" uniformly, which is
//! what the matvec and the construction's BSR subtraction consume.
//!
//! ## Storage precision tier
//!
//! Every block is stored **once**, at one width. Blocks are inserted f64;
//! the norm-aware rule of [`BlockStore::demote_pending`] moves a block `B`
//! to f32 only when the rounding error it introduces — at most
//! `(ε₃₂/2)·‖B‖_F` with `ε₃₂ = f32::EPSILON` — stays below the
//! construction's absolute tolerance, so the H2 approximation error bound
//! survives demotion by construction rather than by hope. A demoted
//! block's f32 matrix is then its only copy: its `blocks` entry is emptied
//! (0×0), and [`BlockStore::memory_bytes`] counts exactly the bytes held.
//!
//! **Diagonal blocks (`s == t`) never demote.** Block-Jacobi and the ULV
//! factor them, and a diagonal shift mutates them in place through
//! `blocks[i]`; they are a small share of the near field. The construction
//! demotes every other dense block under the rule in every configuration,
//! and coupling blocks only when `SketchConfig::storage` asks for f32.
//! Bases are always stored f64.
//!
//! Who reads what: every reader takes a block as an [`h2_dense::StoredMat`]
//! — from [`BlockStore::lookup_op`], [`BlockStore::get`] or
//! [`BlockStore::block`] — and multiplies it through
//! [`StoredMat::gemm`](h2_dense::StoredMat::gemm), which runs
//! [`h2_dense::gemm_mixed`] on an f32 block: bitwise what the f64 product
//! on the promoted values computes. The matvec, the BSR subtraction, the
//! ULV's coupling reads and entry extraction all go this way; a reader
//! that needs an f64 matrix promotes one block at a time
//! ([`StoredMat::to_mat`](h2_dense::StoredMat::to_mat)).

use h2_dense::{Mat, Mat32, Precision, StoredMat};
use h2_tree::{ClusterTree, Partition};
use std::collections::HashMap;
use std::sync::Arc;

/// Keying discipline of a [`BlockStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreLayout {
    /// Blocks stored once per unordered pair (`s <= t`); the `(t, s)` block
    /// is the stored block transposed (valid for symmetric matrices).
    Symmetric,
    /// Blocks stored per ordered pair; `(s, t)` and `(t, s)` are
    /// independent.
    Ordered,
}

/// A stored block resolved as a product operand
/// ([`BlockStore::lookup_op`]).
#[derive(Clone, Copy, Debug)]
pub struct BlockOp<'a> {
    /// The block at its stored width.
    pub mat: StoredMat<'a>,
    /// Whether the stored block must be read transposed.
    pub transposed: bool,
}

impl BlockOp<'_> {
    /// The same stored block answering for the mirrored position `(t, s)`
    /// of a symmetric store.
    pub fn mirrored(self) -> Self {
        BlockOp {
            transposed: !self.transposed,
            ..self
        }
    }
}

/// Storage for per-pair blocks under either keying discipline.
pub struct BlockStore {
    /// Stored pair keys (unordered `s <= t` for [`StoreLayout::Symmetric`],
    /// ordered otherwise), in insertion order.
    pub pairs: Vec<(usize, usize)>,
    /// `blocks[i]` is the f64 block of `pairs[i]`, oriented as
    /// `K(rows(pairs[i].0), cols(pairs[i].1))`, or an empty 0×0 matrix
    /// when the block is stored in f32 (read it through
    /// [`BlockStore::block`]). Diagonal blocks are always here.
    pub blocks: Vec<Mat>,
    /// `blocks32[i]` is the only copy of a demoted block, `None` while the
    /// block is stored f64. Always the same length as `blocks`.
    blocks32: Vec<Option<Mat32>>,
    index: HashMap<(usize, usize), usize>,
    layout: StoreLayout,
    /// Demotion cursor: blocks below this index have been through
    /// [`BlockStore::demote_pending`].
    scanned: usize,
}

impl Default for BlockStore {
    fn default() -> Self {
        BlockStore::symmetric()
    }
}

impl BlockStore {
    /// A symmetric (unordered-pair) store — the historical default.
    pub fn new() -> Self {
        BlockStore::symmetric()
    }

    pub fn symmetric() -> Self {
        BlockStore::with_layout(StoreLayout::Symmetric)
    }

    pub fn ordered() -> Self {
        BlockStore::with_layout(StoreLayout::Ordered)
    }

    pub fn with_layout(layout: StoreLayout) -> Self {
        BlockStore {
            pairs: Vec::new(),
            blocks: Vec::new(),
            blocks32: Vec::new(),
            index: HashMap::new(),
            layout,
            scanned: 0,
        }
    }

    pub fn layout(&self) -> StoreLayout {
        self.layout
    }

    /// Insert the f64 block for pair `(s, t)`.
    ///
    /// Symmetric layout requires the canonical orientation `s <= t`; ordered
    /// layout accepts any pair. Duplicate keys panic in both layouts.
    pub fn insert(&mut self, s: usize, t: usize, block: Mat) {
        self.push(s, t, block, None);
    }

    /// Insert a block already stored in f32 (a loaded operator's demoted
    /// block); the key rules are those of [`BlockStore::insert`].
    pub fn insert_f32(&mut self, s: usize, t: usize, block: Mat32) {
        assert_ne!(s, t, "diagonal blocks are stored f64");
        self.push(s, t, Mat::zeros(0, 0), Some(block));
    }

    fn push(&mut self, s: usize, t: usize, block: Mat, block32: Option<Mat32>) {
        if self.layout == StoreLayout::Symmetric {
            assert!(
                s <= t,
                "symmetric BlockStore stores unordered pairs; pass s <= t"
            );
        }
        let idx = self.blocks.len();
        let prev = self.index.insert((s, t), idx);
        assert!(prev.is_none(), "duplicate block ({s},{t})");
        self.pairs.push((s, t));
        self.blocks.push(block);
        self.blocks32.push(block32);
    }

    /// Replace block `i` by the f64 matrix `block` (of any width before).
    pub fn replace(&mut self, i: usize, block: Mat) {
        self.blocks[i] = block;
        self.blocks32[i] = None;
    }

    /// Norm-aware demotion sweep over blocks inserted since the last sweep
    /// (the construction calls this as each level's blocks finalize): an
    /// off-diagonal block `B` moves to f32 iff the rounding error bound
    /// `(ε₃₂/2)·‖B‖_F ≤ eps_abs`, i.e. iff demotion provably cannot breach
    /// the construction tolerance. The f32 matrix becomes the block's only
    /// copy; its f64 entry is emptied. One pass over each block both
    /// measures and demotes it ([`Mat32::demote_measured`]). Diagonal
    /// blocks (`s == t`) stay f64 (module docs). Returns how many blocks
    /// demoted.
    pub fn demote_pending(&mut self, eps_abs: f64) -> usize {
        let eps32 = 0.5 * f32::EPSILON as f64;
        let mut demoted = 0;
        for i in self.scanned..self.blocks.len() {
            let ((s, t), b) = (self.pairs[i], &self.blocks[i]);
            if s == t || b.rows() * b.cols() == 0 {
                continue;
            }
            let (m32, norm) = Mat32::demote_measured(b);
            if eps32 * norm <= eps_abs {
                self.blocks[i] = Mat::zeros(0, 0);
                self.blocks32[i] = Some(m32);
                demoted += 1;
            }
        }
        self.scanned = self.blocks.len();
        demoted
    }

    /// Storage precision of block `i` (insertion order).
    pub fn precision_of(&self, i: usize) -> Precision {
        self.block(i).precision()
    }

    /// Number of blocks currently held in f32 storage.
    pub fn demoted_count(&self) -> usize {
        self.blocks32.iter().filter(|b| b.is_some()).count()
    }

    /// Block `i` (insertion order) at its stored width.
    pub fn block(&self, i: usize) -> StoredMat<'_> {
        match &self.blocks32[i] {
            Some(m32) => StoredMat::F32(m32),
            None => StoredMat::F64(&self.blocks[i]),
        }
    }

    /// The one lookup of the side-generic matvec and BSR subtraction: the
    /// block of `K` (`transpose == false`) or of `Kᵀ` at the *ordered*
    /// position `(s, t)` — `Kᵀ(I_s, I_t) = K(I_t, I_s)ᵀ` — as a product
    /// operand: the block at its stored width and its orientation, from a
    /// single probe of the index.
    ///
    /// A symmetric store represents a symmetric matrix, so `Kᵀ = K` and the
    /// flag is ignored — transpose products read *identical* blocks with
    /// identical orientations and are therefore bitwise equal to forward
    /// products, not merely equal up to roundoff.
    pub fn lookup_op(&self, s: usize, t: usize, transpose: bool) -> Option<BlockOp<'_>> {
        let (key, transposed) = match self.layout {
            StoreLayout::Symmetric => ((s.min(t), s.max(t)), s > t),
            StoreLayout::Ordered if transpose => ((t, s), true),
            StoreLayout::Ordered => ((s, t), false),
        };
        self.index.get(&key).map(|&i| BlockOp {
            mat: self.block(i),
            transposed,
        })
    }

    /// Look up the block of `K` at the *ordered* position `(s, t)`
    /// ([`BlockStore::lookup_op`] without the transpose).
    pub fn get(&self, s: usize, t: usize) -> Option<BlockOp<'_>> {
        self.lookup_op(s, t, false)
    }

    /// The diagonal block `(s, s)`, which is always stored f64.
    pub fn diagonal(&self, s: usize) -> Option<&Mat> {
        self.index.get(&(s, s)).map(|&i| &self.blocks[i])
    }

    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Bytes of all stored block entries (identical accounting in both
    /// layouts): each block counts once, at its stored width.
    pub fn memory_bytes(&self) -> usize {
        let (f64b, f32b) = self.bytes_by_precision();
        f64b + f32b
    }

    /// Stored bytes split by precision: `(f64_bytes, f32_bytes)`.
    pub fn bytes_by_precision(&self) -> (usize, usize) {
        let f64b = self.blocks.iter().map(Mat::memory_bytes).sum();
        let f32b = self
            .blocks32
            .iter()
            .flatten()
            .map(Mat32::memory_bytes)
            .sum();
        (f64b, f32b)
    }
}

/// One side of the nested-basis pair: per-node bases/transfers plus
/// skeleton index lists.
#[derive(Default)]
pub struct BasisSide {
    /// Per node id: leaf basis (`m x k`) or stacked transfer
    /// `[E_{ν1}; E_{ν2}]` (`(k1+k2) x k`). Empty (0x0) above the top
    /// admissible level.
    pub basis: Vec<Mat>,
    /// Per node id: skeleton (global permuted) indices, length = rank.
    pub skel: Vec<Vec<usize>>,
}

impl BasisSide {
    fn empty(nnodes: usize) -> Self {
        BasisSide {
            basis: (0..nnodes).map(|_| Mat::zeros(0, 0)).collect(),
            skel: vec![Vec::new(); nnodes],
        }
    }
}

/// An H2 matrix over a cluster tree and block partition, symmetric or
/// unsymmetric (see the module docs for the side layout).
pub struct H2Matrix {
    pub tree: Arc<ClusterTree>,
    pub partition: Arc<Partition>,
    /// Row-side basis `U_τ` (leaf) or stacked row transfers (inner).
    pub basis: Vec<Mat>,
    /// Row skeleton indices `Ĩ^r_τ` (global permuted), length = row rank.
    pub skel: Vec<Vec<usize>>,
    /// Column side `V` / `Ĩ^c`. `None` means symmetric: the column side
    /// aliases the row side.
    pub col: Option<BasisSide>,
    /// Coupling blocks `B_{s,t} = K(Ĩ^r_s, Ĩ^c_t)` for admissible pairs.
    pub coupling: BlockStore,
    /// Dense leaf blocks `D_{s,t} = K(I_s, I_t)` for inadmissible pairs.
    pub dense: BlockStore,
}

impl H2Matrix {
    /// An empty shell ready to be populated by a constructor: symmetric
    /// (aliased column side, unordered block stores) or unsymmetric
    /// (independent column side, ordered block stores).
    pub fn new_shell(tree: Arc<ClusterTree>, partition: Arc<Partition>, symmetric: bool) -> Self {
        let nnodes = tree.nodes.len();
        let layout = if symmetric {
            StoreLayout::Symmetric
        } else {
            StoreLayout::Ordered
        };
        H2Matrix {
            tree,
            partition,
            basis: (0..nnodes).map(|_| Mat::zeros(0, 0)).collect(),
            skel: vec![Vec::new(); nnodes],
            col: (!symmetric).then(|| BasisSide::empty(nnodes)),
            coupling: BlockStore::with_layout(layout),
            dense: BlockStore::with_layout(layout),
        }
    }

    pub fn n(&self) -> usize {
        self.tree.npoints()
    }

    /// Whether the column side aliases the row side.
    pub fn is_symmetric(&self) -> bool {
        self.col.is_none()
    }

    /// Column-side bases (the row side itself when symmetric).
    pub fn col_basis(&self) -> &[Mat] {
        match &self.col {
            Some(c) => &c.basis,
            None => &self.basis,
        }
    }

    /// Column-side skeletons (the row side itself when symmetric).
    pub fn col_skel(&self) -> &[Vec<usize>] {
        match &self.col {
            Some(c) => &c.skel,
            None => &self.skel,
        }
    }

    /// Row-side basis (leaf) or stacked transfer (inner) of one node.
    pub fn row_basis_of(&self, node: usize) -> &Mat {
        &self.basis[node]
    }

    /// Column-side basis/transfer of one node (the row side itself when
    /// symmetric) — the per-node accessor the two-sided solver paths use.
    pub fn col_basis_of(&self, node: usize) -> &Mat {
        match &self.col {
            Some(c) => &c.basis[node],
            None => &self.basis[node],
        }
    }

    /// Row rank of node `τ` (0 when it has no basis). For symmetric
    /// matrices this is *the* rank.
    pub fn rank(&self, node: usize) -> usize {
        self.basis[node].cols()
    }

    /// Row rank of node `τ` (alias of [`H2Matrix::rank`]).
    pub fn row_rank(&self, node: usize) -> usize {
        self.rank(node)
    }

    /// Column rank of node `τ`.
    pub fn col_rank(&self, node: usize) -> usize {
        self.col_basis()[node].cols()
    }

    /// Total stored bytes of the representation (the paper's Fig. 6
    /// metric). Bases, skeletons and block stores of every *stored* side are
    /// counted once — the aliased symmetric column side costs nothing,
    /// consistently with the shared [`BlockStore::memory_bytes`] accounting.
    /// Demoted blocks count at their f32 width.
    pub fn memory_bytes(&self) -> usize {
        let usize_bytes = std::mem::size_of::<usize>();
        let mut total = side_basis_bytes(&self.basis);
        total += self
            .skel
            .iter()
            .map(|s| s.len() * usize_bytes)
            .sum::<usize>();
        if let Some(c) = &self.col {
            total += side_basis_bytes(&c.basis);
            total += c.skel.iter().map(|s| s.len() * usize_bytes).sum::<usize>();
        }
        total + self.coupling.memory_bytes() + self.dense.memory_bytes()
    }

    /// Memory broken down by component, in bytes.
    pub fn memory_breakdown(&self) -> MemoryBreakdown {
        let mut basis = side_basis_bytes(&self.basis);
        if let Some(c) = &self.col {
            basis += side_basis_bytes(&c.basis);
        }
        MemoryBreakdown {
            basis,
            coupling: self.coupling.memory_bytes(),
            dense: self.dense.memory_bytes(),
        }
    }

    /// `(min, max)` rank over all nodes with a basis, across both sides
    /// (Table II "Rank range").
    pub fn rank_range(&self) -> (usize, usize) {
        let mut ranks: Vec<usize> = (0..self.basis.len())
            .map(|i| self.rank(i))
            .filter(|&r| r > 0)
            .collect();
        if let Some(c) = &self.col {
            ranks.extend(
                (0..c.basis.len())
                    .map(|i| c.basis[i].cols())
                    .filter(|&r| r > 0),
            );
        }
        match (ranks.iter().min(), ranks.iter().max()) {
            (Some(&a), Some(&b)) => (a, b),
            _ => (0, 0),
        }
    }

    /// Per-level `(min, max, mean)` row-rank statistics.
    pub fn rank_stats_per_level(&self) -> Vec<(usize, usize, f64)> {
        (0..self.tree.nlevels())
            .map(|l| {
                let ranks: Vec<usize> = self
                    .tree
                    .level(l)
                    .map(|id| self.rank(id))
                    .filter(|&r| r > 0)
                    .collect();
                if ranks.is_empty() {
                    (0, 0, 0.0)
                } else {
                    let mn = *ranks.iter().min().unwrap();
                    let mx = *ranks.iter().max().unwrap();
                    let mean = ranks.iter().sum::<usize>() as f64 / ranks.len() as f64;
                    (mn, mx, mean)
                }
            })
            .collect()
    }

    /// Structural sanity checks: the partition's block lists well formed
    /// ([`Partition::validate`]), basis shapes consistent with tree and
    /// children ranks on every stored side, skeleton indices inside cluster
    /// ranges, block shapes consistent with side ranks / cluster sizes, all
    /// partition blocks present under the store's keying discipline.
    pub fn validate(&self) -> Result<(), String> {
        let tree = &self.tree;
        self.partition.validate(tree)?;
        let leaf_level = tree.leaf_level();
        let mut sides: Vec<(&str, &[Mat], &[Vec<usize>])> = vec![("row", &self.basis, &self.skel)];
        if let Some(c) = &self.col {
            sides.push(("col", &c.basis, &c.skel));
        }
        for (name, basis, skel) in sides {
            for (id, c) in tree.nodes.iter().enumerate() {
                let k = basis[id].cols();
                if k == 0 {
                    continue;
                }
                let b = &basis[id];
                if tree.level_of(id) == leaf_level {
                    if b.rows() != c.len() {
                        return Err(format!(
                            "{name} leaf {id}: basis rows {} != cluster size {}",
                            b.rows(),
                            c.len()
                        ));
                    }
                } else {
                    let (c1, c2) = c.children.unwrap();
                    let want = basis[c1].cols() + basis[c2].cols();
                    if b.rows() != want {
                        return Err(format!(
                            "{name} inner {id}: transfer rows {} != child ranks {want}",
                            b.rows()
                        ));
                    }
                }
                if skel[id].len() != k {
                    return Err(format!("{name} node {id}: skeleton len != rank"));
                }
                for &i in &skel[id] {
                    if i < c.begin || i >= c.end {
                        return Err(format!(
                            "{name} node {id}: skeleton index {i} outside cluster"
                        ));
                    }
                }
            }
        }
        let symmetric = self.is_symmetric();
        // Every admissible pair has a coupling block of matching shape.
        for (s, list) in self.partition.far_of.iter().enumerate() {
            for &t in list.iter().filter(|&&t| !symmetric || s <= t) {
                match self.coupling.get(s, t) {
                    None => return Err(format!("missing coupling block ({s},{t})")),
                    Some(op) => {
                        let b = op.mat;
                        if b.rows() != self.row_rank(s) || b.cols() != self.col_rank(t) {
                            return Err(format!(
                                "coupling ({s},{t}) shape {}x{} != row/col ranks {}x{}",
                                b.rows(),
                                b.cols(),
                                self.row_rank(s),
                                self.col_rank(t)
                            ));
                        }
                    }
                }
            }
        }
        // Every near pair has a dense block of matching shape.
        for (s, list) in self.partition.near_of.iter().enumerate() {
            for &t in list.iter().filter(|&&t| !symmetric || s <= t) {
                match self.dense.get(s, t) {
                    None => return Err(format!("missing dense block ({s},{t})")),
                    Some(op) => {
                        let b = op.mat;
                        if b.rows() != tree.nodes[s].len() || b.cols() != tree.nodes[t].len() {
                            return Err(format!("dense ({s},{t}) shape mismatch"));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

/// Stored bytes of one basis side.
fn side_basis_bytes(basis: &[Mat]) -> usize {
    basis.iter().map(Mat::memory_bytes).sum()
}

/// Bytes per component of an [`H2Matrix`].
#[derive(Clone, Copy, Debug)]
pub struct MemoryBreakdown {
    pub basis: usize,
    pub coupling: usize,
    pub dense: usize,
}

impl MemoryBreakdown {
    pub fn total(&self) -> usize {
        self.basis + self.coupling + self.dense
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2_dense::{demote_roundtrip, gaussian_mat};

    /// `(value at (i, j), transposed)` of the block of `K` at `(s, t)`.
    fn entry(store: &BlockStore, s: usize, t: usize, i: usize, j: usize) -> (f64, bool) {
        let op = store.get(s, t).unwrap();
        (op.mat.at(i, j), op.transposed)
    }

    #[test]
    fn block_store_symmetric_lookup() {
        let mut s = BlockStore::new();
        s.insert(2, 5, Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        assert_eq!(entry(&s, 2, 5, 0, 1), (2.0, false));
        assert_eq!(entry(&s, 5, 2, 0, 1), (2.0, true));
        assert!(s.get(1, 1).is_none());
    }

    #[test]
    #[should_panic(expected = "s <= t")]
    fn block_store_rejects_unordered() {
        let mut s = BlockStore::new();
        s.insert(5, 2, Mat::zeros(1, 1));
    }

    #[test]
    fn ordered_store_roundtrip() {
        let mut s = BlockStore::ordered();
        s.insert(2, 5, Mat::from_rows(&[&[1.0, 2.0]]));
        s.insert(5, 2, Mat::from_rows(&[&[3.0], &[4.0]]));
        // Ordered lookups are never transposed.
        assert_eq!(entry(&s, 2, 5, 0, 1), (2.0, false));
        assert_eq!(entry(&s, 5, 2, 1, 0), (4.0, false));
        assert!(s.get(2, 2).is_none());
        assert_eq!(s.len(), 2);
        assert_eq!(s.memory_bytes(), 4 * 8);
    }

    #[test]
    #[should_panic(expected = "duplicate block")]
    fn ordered_store_rejects_duplicates() {
        let mut s = BlockStore::ordered();
        s.insert(1, 2, Mat::zeros(1, 1));
        s.insert(1, 2, Mat::zeros(1, 1));
    }

    #[test]
    fn lookup_op_is_transpose_consistent_across_layouts() {
        // Symmetric store: K(5,2) = K(2,5)^T read through the flag, and
        // Kᵀ at (2,5) = K(5,2)ᵀ = K(2,5) for the stored block.
        let mut sym = BlockStore::symmetric();
        sym.insert(2, 5, Mat::from_rows(&[&[1.0, 2.0]]));
        for transpose in [false, true] {
            let op = sym.lookup_op(2, 5, transpose).unwrap();
            assert!(!op.transposed);
            assert_eq!(op.mat.at(0, 1), 2.0);
        }
        // Ordered store: Kᵀ at (2,5) reads the (5,2) block transposed.
        let mut ord = BlockStore::ordered();
        ord.insert(2, 5, Mat::from_rows(&[&[1.0, 2.0]]));
        ord.insert(5, 2, Mat::from_rows(&[&[3.0], &[4.0]]));
        let op = ord.lookup_op(2, 5, true).unwrap();
        assert!(op.transposed);
        assert_eq!(op.mat.at(1, 0), 4.0);
        assert_eq!(op.mirrored().transposed, !op.transposed);
    }

    #[test]
    fn memory_accounting_consistent_across_layouts() {
        let mut sym = BlockStore::new();
        sym.insert(0, 1, Mat::zeros(10, 10));
        sym.insert(1, 2, Mat::zeros(5, 4));
        assert_eq!(sym.memory_bytes(), (100 + 20) * 8);
        let mut ord = BlockStore::ordered();
        ord.insert(0, 1, Mat::zeros(10, 10));
        ord.insert(1, 2, Mat::zeros(5, 4));
        assert_eq!(ord.memory_bytes(), sym.memory_bytes());
    }

    #[test]
    fn demotion_is_norm_aware() {
        let mut s = BlockStore::new();
        // A small-norm block (demotable at eps_abs), a large-norm one (kept
        // f64 because f32 rounding would breach the tolerance) and a
        // diagonal block, which never demotes.
        let small = gaussian_mat(8, 6, 1);
        let mut big = gaussian_mat(8, 6, 2);
        big.scale(1e6);
        let eps_abs = 0.5 * f32::EPSILON as f64 * (small.norm_fro() * 10.0);
        assert!(0.5 * f32::EPSILON as f64 * big.norm_fro() > eps_abs);
        s.insert(0, 1, small.clone());
        s.insert(1, 2, big.clone());
        s.insert(1, 1, gaussian_mat(6, 6, 4));
        assert_eq!(s.demote_pending(eps_abs), 1);
        assert_eq!(s.demoted_count(), 1);
        assert_eq!(s.precision_of(0), Precision::F32);
        assert_eq!(s.precision_of(1), Precision::F64);
        assert_eq!(s.precision_of(2), Precision::F64);
        assert_eq!(s.diagonal(1).unwrap().rows(), 6);
        // The f32 matrix is the only copy: the f64 entry is empty, and the
        // promoted values are the round-trip of the original, with an
        // error below the bound the rule guarantees.
        assert_eq!(s.blocks[0].memory_bytes(), 0);
        let got = s.get(0, 1).unwrap().mat;
        assert_eq!((got.rows(), got.cols()), (8, 6));
        let wc = got.to_mat();
        assert_eq!(wc, demote_roundtrip(&small));
        let mut d = wc;
        d.axpy(-1.0, &small);
        assert!(d.norm_fro() <= eps_abs, "{} > {eps_abs}", d.norm_fro());
        // Memory counts the bytes held: the demoted block at half width.
        assert_eq!(s.memory_bytes(), 48 * 4 + 48 * 8 + 36 * 8);
        assert_eq!(s.bytes_by_precision(), (48 * 8 + 36 * 8, 48 * 4));
        // The sweep is incremental: a block inserted later is picked up by
        // the next sweep only.
        s.insert(2, 3, gaussian_mat(4, 4, 3));
        assert_eq!(s.precision_of(3), Precision::F64);
        assert_eq!(s.demote_pending(f64::INFINITY), 1);
        assert_eq!(s.precision_of(3), Precision::F32);
        // Replacing a block stores it f64 again.
        s.replace(0, small.clone());
        assert_eq!(s.precision_of(0), Precision::F64);
        assert_eq!(s.demoted_count(), 1);
    }

    #[test]
    fn lookup_op_reads_the_stored_width() {
        // Symmetric store: (t, s) reads the stored block transposed, and
        // the transpose flag is ignored. Ordered store: Kᵀ at (2,5) reads
        // the (5,2) block transposed.
        let mut sym = BlockStore::symmetric();
        sym.insert(2, 5, gaussian_mat(3, 4, 11));
        let mut ord = BlockStore::ordered();
        ord.insert(2, 5, gaussian_mat(3, 4, 12));
        ord.insert(5, 2, gaussian_mat(4, 3, 13));
        // (s, t, transpose) → (stored index, transposed), per layout.
        let sym_want = [(0, false), (0, true), (0, false), (0, true)];
        let ord_want = [(0, false), (1, false), (1, true), (0, true)];
        for (store, want) in [(&mut sym, sym_want), (&mut ord, ord_want)] {
            let before: Vec<Mat> = store.blocks.clone();
            store.demote_pending(f64::INFINITY);
            let probes = [(2, 5, false), (5, 2, false), (2, 5, true), (5, 2, true)];
            for (&(s, t, transpose), &(i, transposed)) in probes.iter().zip(&want) {
                let op = store.lookup_op(s, t, transpose).unwrap();
                let StoredMat::F32(m32) = op.mat else {
                    panic!("a demoted block must be read at f32");
                };
                assert_eq!(m32, &Mat32::demote(before[i].rf()));
                assert_eq!(op.transposed, transposed);
                assert_eq!(op.mirrored().transposed, !transposed);
            }
        }
        // A block kept f64 is read at f64.
        let mut kept = BlockStore::symmetric();
        kept.insert(0, 1, gaussian_mat(2, 2, 14));
        assert!(matches!(
            kept.lookup_op(0, 1, false).unwrap().mat,
            StoredMat::F64(_)
        ));
        assert!(kept.lookup_op(0, 2, false).is_none());
    }
}
