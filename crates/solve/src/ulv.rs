//! ULV direct factorization of weak-admissibility (HSS-pattern) H2
//! matrices — both side layouts, per-level batched elimination.
//!
//! The paper's bottom-up construction is motivated by fast H2 *arithmetic* —
//! inversion is its stated follow-up. For the weak-admissibility case the
//! classical ULV elimination applies directly to our representation and
//! gives an exact O(N k²) direct solver for the *compressed* operator, in
//! two flavors selected by the matrix's side layout:
//!
//! * **symmetric** (`V = U`, the Chandrasekaran–Gu–Pals ULV): one QR per
//!   node rotates both sides at once;
//! * **unsymmetric** (independent row/column bases, the LU-flavored ULV):
//!   two one-sided rotations — QR of the reduced *row* basis from the
//!   left, QR of the reduced *column* basis from the right — followed by
//!   an LU elimination of the rotated trailing block.
//!
//! At each node `τ` with reduced diagonal block `D_τ` (size `m`), reduced
//! row basis `W^r_τ` (`m × k_r`) and reduced column basis `W^c_τ`
//! (`m × k_c`, aliasing `W^r_τ` when symmetric):
//!
//! 1. factor `W^r_τ = Q_τ [R_τ; 0]` and `W^c_τ = P_τ [S_τ; 0]` (full
//!    Householder QRs) and rotate `D̃ = Q_τᵀ D_τ P_τ` — in the rotated
//!    coordinates all off-diagonal *row* coupling of `τ` lives in the top
//!    `k_r` rows (`Qᵀ U_τ = [R_τ; 0]`) and all *column* coupling in the
//!    first `k_c` columns (`V_τᵀ P = [S_τᵀ, 0]`),
//! 2. eliminate the trailing `e × e` block (`e = m − k`,
//!    `k = max(k_r, k_c)`) with an LU of `D̃₂₂` — those rows and columns
//!    couple to nothing else — leaving the `k × k` Schur complement
//!    `S_τ = D̃₁₁ − D̃₁₂ D̃₂₂⁻¹ D̃₂₁`,
//! 3. pass up per side: the parent's reduced diagonal block stacks the
//!    children's Schur complements around the rotated sibling coupling
//!    `R_{c1} B_{c1,c2} S_{c2}ᵀ` (and `R_{c2} B_{c2,c1} S_{c1}ᵀ` read from
//!    the ordered store; `B₂₁ = B₁₂ᵀ` when symmetric), and the parent's
//!    reduced bases are `blkdiag(R_{c1}, R_{c2}) · E^r` /
//!    `blkdiag(S_{c1}, S_{c2}) · E^c`.
//!
//! The root system is dense and small; one LU finishes the factorization.
//!
//! ## Storage precision
//!
//! The factorization reads the matrix's f64 working copies, which for
//! blocks demoted to f32 storage hold exactly the round-tripped values
//! (see `h2_matrix::format`) — so a ULV of a mixed-precision matrix is
//! the *exact* factorization of the stored operator, bitwise identical to
//! promoting every f32 block on the fly. Solve residuals against the
//! represented operator stay at machine precision regardless of the
//! storage tier; only the represented operator itself differs from the
//! original kernel by the (tolerance-bounded) demotion error.
//!
//! ## Per-level batched phases
//!
//! The default schedule ([`UlvSchedule::Batched`]) runs the elimination as
//! three batched phases per level — **rotate** (marshal the reduced bases
//! and diagonal blocks into [`h2_runtime::VarBatch`] workspaces,
//! [`h2_runtime::batched_qr`], two one-sided
//! [`h2_runtime::batched_apply_qt`] rotations), **eliminate**
//! ([`h2_runtime::batched_lu`] of the pivot blocks,
//! [`h2_runtime::batched_lu_solve`], one batched Schur GEMM), and
//! **pass-up** (parent assembly) — mirroring the paper's
//! one-workspace-per-level execution model. Each node's arithmetic is
//! identical to the retained per-node reference schedule
//! ([`UlvSchedule::PerNode`]), so the two produce bit-identical factors.
//!
//! The rotations are level-3: the basis QRs are blocked compact-WY
//! factorizations and `D̃ = Qᵀ D P` applies each `Q` to the (wide)
//! diagonal block through its block reflectors
//! ([`QrFactor::apply_qt_block`]), both on the packed GEMM. The solve
//! sweeps rotate right-hand sides with the *same* stored reflectors
//! through the level-2 [`QrFactor::apply_qt`] / [`QrFactor::apply_q`],
//! which treat every column independently — that, with [`gemm_rhs`], is
//! what makes column `j` of a blocked solve bit-identical to its own
//! single-column solve.
//!
//! The factorization is exact for the represented matrix (up to roundoff),
//! so `‖K_H2 x − b‖ ≈ ε_machine`, while `‖K x − b‖` reflects the
//! construction tolerance. A loosely-compressed HSS + ULV therefore makes
//! an effective *preconditioner* for iterating on the exact operator; the
//! solve sweeps themselves can run sharded on the device fabric
//! (`h2_sched::shard_ulv_solve`) through the [`UlvSweep`] phase kernels.

use crate::precond::Preconditioner;
use crate::smallops::stored_op;
use h2_dense::{gemm, gemm_rhs, lu_factor, matmul, qr_factor, LuFactor, Mat, MatMut, Op, QrFactor};
use h2_matrix::H2Matrix;
use h2_runtime::multidev::cost;
use h2_runtime::{
    batched_apply_qt, batched_lu, batched_lu_solve, batched_qr, batched_transpose, Kernel, Runtime,
    VarBatch,
};
use h2_tree::{Admissibility, ClusterTree};
use std::sync::Arc;

/// Why a ULV factorization could not be computed.
#[derive(Debug)]
pub enum UlvError {
    /// The H2 matrix was not built over a weak-admissibility partition.
    NotWeakPartition,
    /// A rotated pivot block `D̃₂₂` was exactly singular at this node.
    SingularBlock(usize),
    /// The assembled root system was singular.
    SingularRoot,
}

impl std::fmt::Display for UlvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UlvError::NotWeakPartition => {
                write!(f, "ULV requires a weak-admissibility (HSS) partition")
            }
            UlvError::SingularBlock(id) => {
                write!(f, "singular rotated pivot block at node {id}")
            }
            UlvError::SingularRoot => write!(f, "singular root system"),
        }
    }
}

impl std::error::Error for UlvError {}

/// Which elimination schedule the factorization runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UlvSchedule {
    /// Node-at-a-time reference path (the classical recursion flattened to
    /// a level loop). Retained as the ground truth the batched schedule is
    /// validated against.
    PerNode,
    /// Per-level batched phases (rotate, eliminate, pass-up) over
    /// [`VarBatch`] workspaces — the default.
    Batched,
}

/// Per-node factorization data.
struct NodeFactor {
    /// Full-Q Householder factorization of the reduced row basis `W^r_τ`.
    row_qr: QrFactor,
    /// Full-Q factorization of the reduced column basis `W^c_τ`; `None`
    /// when the column side aliases the row side (symmetric layout).
    col_qr: Option<QrFactor>,
    /// Retained (skeleton) variable count `k = min(m, max(k_r, k_c))`.
    k: usize,
    /// Eliminated variable count (`m − k`).
    e: usize,
    /// LU of the rotated pivot block `D̃₂₂`.
    lu22: LuFactor,
    /// `D̃₁₂` (`k × e`).
    d12: Mat,
    /// `D̃₂₁` (`e × k`).
    d21: Mat,
    /// Row-side triangular factor `R_τ`, zero-padded to `k × k_r`.
    r: Mat,
    /// Column-side triangular factor `S_τ` (`k × k_c`); `None` aliases `r`.
    s: Option<Mat>,
}

impl NodeFactor {
    fn col_qr(&self) -> &QrFactor {
        self.col_qr.as_ref().unwrap_or(&self.row_qr)
    }

    fn s_pad(&self) -> &Mat {
        self.s.as_ref().unwrap_or(&self.r)
    }
}

/// The triangular factor of a compact QR, zero-padded to `k` rows (the
/// retained coordinate count, which may exceed this side's rank).
fn padded_r(qr: &QrFactor, k: usize) -> Mat {
    let r = qr.r();
    if r.rows() == k {
        return r;
    }
    let mut out = Mat::zeros(k, r.cols());
    out.view_mut(0, 0, r.rows(), r.cols()).copy_from(r.rf());
    out
}

/// A ULV factorization of a weak-admissibility H2 matrix (either side
/// layout).
pub struct UlvFactor {
    tree: Arc<ClusterTree>,
    /// Per node id; `None` for the root and any untouched nodes.
    nodes: Vec<Option<NodeFactor>>,
    /// LU of the assembled root system.
    root_lu: LuFactor,
    /// Size of the root system.
    root_size: usize,
    n: usize,
}

/// Fill `out` with the reduced basis of `id` on one side: the leaf basis
/// itself, or the stacked child transfer scaled by the children's
/// (padded) triangular factors.
fn fill_reduced_basis(
    h2: &H2Matrix,
    nodes: &[Option<NodeFactor>],
    l: usize,
    leaf_level: usize,
    id: usize,
    col_side: bool,
    mut out: MatMut<'_>,
) {
    let basis = if col_side {
        h2.col_basis_of(id)
    } else {
        h2.row_basis_of(id)
    };
    if l == leaf_level {
        out.copy_from(basis.rf());
        return;
    }
    let (c1, c2) = h2.tree.nodes[id].children.unwrap();
    let kp = basis.cols();
    let mut row_off = 0;
    let mut et_off = 0;
    for c in [c1, c2] {
        let nf = nodes[c].as_ref().expect("child factor");
        let f = if col_side { nf.s_pad() } else { &nf.r };
        let (kc, rc) = (f.rows(), f.cols());
        if kc > 0 && rc > 0 && kp > 0 {
            h2_dense::gemm(
                Op::NoTrans,
                Op::NoTrans,
                1.0,
                f.rf(),
                basis.view(et_off, 0, rc, kp),
                0.0,
                out.rb_mut().into_view(row_off, 0, kc, kp),
            );
        }
        row_off += kc;
        et_off += rc;
    }
    debug_assert_eq!(row_off, out.rows(), "reduced basis rows at node {id}");
    debug_assert_eq!(et_off, basis.rows(), "transfer split at node {id}");
}

/// Split the rotated block, LU the pivot, form the Schur complement and
/// pack the node factor — the arithmetic shared verbatim by both
/// schedules.
fn build_factor(
    id: usize,
    drot: &Mat,
    row_qr: QrFactor,
    col_qr: Option<QrFactor>,
    k: usize,
    e: usize,
) -> Result<(NodeFactor, Mat), UlvError> {
    let d11 = drot.view(0, 0, k, k).to_mat();
    let d12 = drot.view(0, k, k, e).to_mat();
    let d21 = drot.view(k, 0, e, k).to_mat();
    let d22 = drot.view(k, k, e, e).to_mat();
    let lu22 = lu_factor(d22).ok_or(UlvError::SingularBlock(id))?;
    let mut schur = d11;
    if e > 0 && k > 0 {
        let x = lu22.solve(&d21);
        gemm(
            Op::NoTrans,
            Op::NoTrans,
            -1.0,
            d12.rf(),
            x.rf(),
            1.0,
            schur.rm(),
        );
    }
    let r = padded_r(&row_qr, k);
    let s = col_qr.as_ref().map(|q| padded_r(q, k));
    Ok((
        NodeFactor {
            row_qr,
            col_qr,
            k,
            e,
            lu22,
            d12,
            d21,
            r,
            s,
        },
        schur,
    ))
}

/// Retained size of a node given its reduced block size and side ranks.
fn retained_size(m: usize, kr: usize, kc: usize) -> usize {
    kr.max(kc).min(m)
}

/// One node of the reference schedule: rotate `D̃ = Qᵀ D P` and eliminate.
fn eliminate_node(
    id: usize,
    d: Mat,
    w_row: Mat,
    w_col: Option<Mat>,
) -> Result<(NodeFactor, Mat), UlvError> {
    let m = d.rows();
    assert_eq!(w_row.rows(), m, "reduced basis row mismatch at node {id}");
    let kr = w_row.cols();
    let kc = w_col.as_ref().map(|w| w.cols()).unwrap_or(kr);
    let k = retained_size(m, kr, kc);
    let e = m - k;
    let row_qr = qr_factor(w_row);
    let col_qr = w_col.map(qr_factor);
    // Rotate: D̃ = Qᵀ D P (apply Pᵀ to the columns through a transpose).
    let mut dt = d;
    row_qr.apply_qt_block(&mut dt.rm());
    let mut dtt = dt.transpose();
    col_qr
        .as_ref()
        .unwrap_or(&row_qr)
        .apply_qt_block(&mut dtt.rm());
    let drot = dtt.transpose();
    build_factor(id, &drot, row_qr, col_qr, k, e)
}

/// Rotated sibling coupling in retained coordinates:
/// `R_s · op(B_{s,t}) · S_tᵀ` (`k_s × k_t`), through the store's
/// orientation flag rather than a materialized transpose.
fn rotated_coupling(
    h2: &H2Matrix,
    nf_s: &NodeFactor,
    nf_t: &NodeFactor,
    s: usize,
    t: usize,
) -> Mat {
    match h2.coupling.get_op(s, t, false) {
        Some((b, tr)) => {
            let bt = matmul(stored_op(tr), Op::Trans, b.rf(), nf_t.s_pad().rf());
            matmul(Op::NoTrans, Op::NoTrans, nf_s.r.rf(), bt.rf())
        }
        None => Mat::zeros(nf_s.k, nf_t.k),
    }
}

/// Pass-up: the parent's reduced diagonal block from its children's Schur
/// complements and rotated sibling coupling.
fn assemble_parent(
    h2: &H2Matrix,
    nodes: &[Option<NodeFactor>],
    schur: &[Option<Mat>],
    p: usize,
) -> Mat {
    let (c1, c2) = h2.tree.nodes[p].children.unwrap();
    let nf1 = nodes[c1].as_ref().expect("child factor");
    let nf2 = nodes[c2].as_ref().expect("child factor");
    let s1 = schur[c1].as_ref().expect("child Schur");
    let s2 = schur[c2].as_ref().expect("child Schur");
    let (k1, k2) = (nf1.k, nf2.k);
    let c12 = rotated_coupling(h2, nf1, nf2, c1, c2);
    let c21 = if h2.is_symmetric() {
        c12.transpose()
    } else {
        rotated_coupling(h2, nf2, nf1, c2, c1)
    };
    let mut d = Mat::zeros(k1 + k2, k1 + k2);
    d.view_mut(0, 0, k1, k1).copy_from(s1.rf());
    d.view_mut(k1, k1, k2, k2).copy_from(s2.rf());
    d.view_mut(0, k1, k1, k2).copy_from(c12.rf());
    d.view_mut(k1, 0, k2, k1).copy_from(c21.rf());
    d
}

impl UlvFactor {
    /// Factor a weak-admissibility H2 matrix — symmetric or unsymmetric
    /// side layout — with the batched per-level schedule on a parallel
    /// runtime. O(N k²).
    pub fn new(h2: &H2Matrix) -> Result<Self, UlvError> {
        Self::with_schedule(h2, UlvSchedule::Batched, &Runtime::parallel())
    }

    /// The retained per-node reference schedule (single-threaded).
    pub fn new_per_node(h2: &H2Matrix) -> Result<Self, UlvError> {
        Self::with_schedule(h2, UlvSchedule::PerNode, &Runtime::sequential())
    }

    /// Factor with an explicit schedule and runtime (the batched schedule
    /// runs its phase kernels — QR, LU, triangular solves — through the
    /// runtime's batched dispatch, including a sharded one).
    pub fn with_schedule(
        h2: &H2Matrix,
        schedule: UlvSchedule,
        rt: &Runtime,
    ) -> Result<Self, UlvError> {
        if !matches!(h2.partition.rule, Admissibility::Weak) {
            return Err(UlvError::NotWeakPartition);
        }
        let tree = h2.tree.clone();
        let leaf_level = tree.leaf_level();
        let nnodes = tree.nodes.len();
        let mut nodes: Vec<Option<NodeFactor>> = (0..nnodes).map(|_| None).collect();

        // Reduced diagonal blocks, initialized at the leaves from the
        // stored dense blocks.
        let mut dloc: Vec<Option<Mat>> = (0..nnodes).map(|_| None).collect();
        // Schur complements awaiting assembly into the parent.
        let mut schur: Vec<Option<Mat>> = (0..nnodes).map(|_| None).collect();

        if leaf_level == 0 {
            // Single dense block: plain LU.
            let (blk, tr) = h2.dense.get(0, 0).expect("root dense block");
            let root = if tr { blk.transpose() } else { blk.clone() };
            let root_size = root.rows();
            let root_lu = lu_factor(root).ok_or(UlvError::SingularRoot)?;
            return Ok(UlvFactor {
                tree,
                nodes,
                root_lu,
                root_size,
                n: h2.n(),
            });
        }

        for id in tree.level(leaf_level) {
            let (blk, tr) = h2.dense.get(id, id).expect("leaf diagonal block");
            dloc[id] = Some(if tr { blk.transpose() } else { blk.clone() });
        }

        for l in (1..=leaf_level).rev() {
            let _level_span = rt.trace_span("ulv", || format!("ulv eliminate L{l}"));
            let ids: Vec<usize> = tree.level(l).collect();
            match schedule {
                UlvSchedule::PerNode => {
                    for &id in &ids {
                        let d = dloc[id].take().expect("reduced diagonal block");
                        let m = d.rows();
                        let mut w_row = Mat::zeros(m, h2.row_basis_of(id).cols());
                        fill_reduced_basis(h2, &nodes, l, leaf_level, id, false, w_row.rm());
                        let w_col = (!h2.is_symmetric()).then(|| {
                            let mut w = Mat::zeros(m, h2.col_basis_of(id).cols());
                            fill_reduced_basis(h2, &nodes, l, leaf_level, id, true, w.rm());
                            w
                        });
                        let (nf, sc) = eliminate_node(id, d, w_row, w_col)?;
                        schur[id] = Some(sc);
                        nodes[id] = Some(nf);
                    }
                }
                UlvSchedule::Batched => {
                    eliminate_level_batched(
                        rt, h2, &ids, l, leaf_level, &mut dloc, &mut nodes, &mut schur,
                    )?;
                }
            }

            // ---- pass-up phase: assemble parents' reduced blocks ----
            let _passup_span = rt.trace_span("ulv", || format!("ulv pass-up L{l}"));
            let parents: Vec<usize> = tree.level(l - 1).collect();
            let assembled: Vec<Mat> = match schedule {
                UlvSchedule::PerNode => parents
                    .iter()
                    .map(|&p| assemble_parent(h2, &nodes, &schur, p))
                    .collect(),
                UlvSchedule::Batched => {
                    rt.launch(Kernel::Marshal);
                    rt.launch(Kernel::Gemm);
                    let nodes_ref = &nodes;
                    let schur_ref = &schur;
                    let parents_ref = &parents;
                    let cost_of = |j: usize| {
                        let (c1, c2) = tree.nodes[parents[j]].children.unwrap();
                        let k1 = nodes[c1].as_ref().map(|n| n.k).unwrap_or(0);
                        let k2 = nodes[c2].as_ref().map(|n| n.k).unwrap_or(0);
                        let k = k1 + k2;
                        (k * k) as f64
                    };
                    rt.map_index_costed(parents.len(), cost_of, |j| {
                        assemble_parent(h2, nodes_ref, schur_ref, parents_ref[j])
                    })
                }
            };
            for (j, d) in parents.iter().zip(assembled) {
                dloc[*j] = Some(d);
            }
        }

        let root_d = dloc[0].take().expect("root system");
        let root_size = root_d.rows();
        let root_lu = lu_factor(root_d).ok_or(UlvError::SingularRoot)?;
        Ok(UlvFactor {
            tree,
            nodes,
            root_lu,
            root_size,
            n: h2.n(),
        })
    }

    /// Number of unknowns.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Size of the final dense root system (a quality indicator: small root
    /// systems mean the compression carried most of the elimination).
    pub fn root_size(&self) -> usize {
        self.root_size
    }

    /// The cluster tree the factorization lives on.
    pub fn tree(&self) -> &Arc<ClusterTree> {
        &self.tree
    }

    /// Retained size `k` of a processed node (0 for the root and any
    /// untouched node) — the rows a sweep passes up/down for this node.
    pub fn retained(&self, id: usize) -> usize {
        self.nodes[id].as_ref().map(|nf| nf.k).unwrap_or(0)
    }

    /// The per-node sweep kernels (forward eliminate / backward
    /// substitute), for external executors like `h2_sched`.
    pub fn sweep(&self) -> UlvSweep<'_> {
        UlvSweep { f: self }
    }

    /// Modeled flops of the forward sweep at one node for `d` right-hand
    /// sides, from the shared [`cost`] formulas — `h2_sched::plan_ulv_solve`
    /// charges exactly this to the device owning the node.
    pub fn forward_flops(&self, id: usize, d: usize) -> f64 {
        let Some(nf) = self.nodes[id].as_ref() else {
            return 0.0;
        };
        let m = nf.k + nf.e;
        cost::qr_apply_flops(m, nf.row_qr.tau.len(), d)
            + cost::lu_solve_flops(nf.e, d)
            + cost::gemm_flops(nf.k, nf.e, d)
    }

    /// Modeled flops of the backward sweep at one node for `d` right-hand
    /// sides.
    pub fn backward_flops(&self, id: usize, d: usize) -> f64 {
        let Some(nf) = self.nodes[id].as_ref() else {
            return 0.0;
        };
        let m = nf.k + nf.e;
        cost::gemm_flops(nf.e, nf.k, d)
            + cost::lu_solve_flops(nf.e, d)
            + cost::qr_apply_flops(m, nf.col_qr().tau.len(), d)
    }

    /// Solve `K_H2 X = B` for a block of right-hand sides (tree-permuted
    /// coordinates). O(N k) per column.
    pub fn solve(&self, b: &Mat) -> Mat {
        assert_eq!(b.rows(), self.n, "ulv solve: rhs rows");
        let d = b.cols();
        let tree = &self.tree;
        let sweep = self.sweep();
        let leaf_level = tree.leaf_level();
        let nnodes = tree.nodes.len();

        if leaf_level == 0 {
            return self.root_lu.solve(b);
        }

        // ---- forward pass: rotate, eliminate, reduce ----
        let mut bred: Vec<Option<Mat>> = (0..nnodes).map(|_| None).collect();
        let mut b2s: Vec<Option<Mat>> = (0..nnodes).map(|_| None).collect();
        for id in tree.level(leaf_level) {
            let (lo, hi) = tree.range(id);
            bred[id] = Some(b.view(lo, 0, hi - lo, d).to_mat());
        }
        for l in (1..=leaf_level).rev() {
            for id in tree.level(l) {
                let bl = bred[id].take().expect("local rhs");
                let (b1, b2) = sweep.forward_node(id, bl);
                b2s[id] = Some(b2);
                bred[id] = Some(b1);
            }
            for p in tree.level(l - 1) {
                let (c1, c2) = tree.nodes[p].children.unwrap();
                let t1 = bred[c1].take().expect("child rhs");
                let t2 = bred[c2].take().expect("child rhs");
                bred[p] = Some(t1.vcat(&t2));
            }
        }

        // ---- root solve ----
        let xroot = sweep.root_solve(&bred[0].take().expect("root rhs"));

        // ---- backward pass: distribute, back-substitute, un-rotate ----
        let mut x = Mat::zeros(self.n, d);
        let mut xred: Vec<Option<Mat>> = (0..nnodes).map(|_| None).collect();
        {
            let (c1, c2) = tree.nodes[0].children.unwrap();
            let k1 = self.retained(c1);
            let k2 = self.retained(c2);
            xred[c1] = Some(xroot.view(0, 0, k1, d).to_mat());
            xred[c2] = Some(xroot.view(k1, 0, k2, d).to_mat());
        }
        for l in 1..=leaf_level {
            for id in tree.level(l) {
                let x1 = xred[id].take().expect("skeleton solution");
                let b2 = b2s[id].take().expect("cached b2");
                let xt = sweep.backward_node(id, &x1, b2);
                if l == leaf_level {
                    let (lo, hi) = tree.range(id);
                    x.view_mut(lo, 0, hi - lo, d)
                        .copy_from(xt.view(0, 0, hi - lo, d));
                } else {
                    let (c1, c2) = tree.nodes[id].children.unwrap();
                    let k1 = self.retained(c1);
                    let k2 = self.retained(c2);
                    xred[c1] = Some(xt.view(0, 0, k1, d).to_mat());
                    xred[c2] = Some(xt.view(k1, 0, k2, d).to_mat());
                }
            }
        }
        x
    }

    /// Solve for a single right-hand side.
    pub fn solve_vec(&self, b: &[f64]) -> Vec<f64> {
        let bm = Mat::from_vec(b.len(), 1, b.to_vec());
        self.solve(&bm).as_slice().to_vec()
    }

    /// Resident bytes of the factor: every per-node rotation / pivot /
    /// coupling block plus the assembled root LU. The eviction currency of
    /// the `h2_serve` operator cache, the solver-side counterpart of
    /// `H2Matrix::memory_bytes`.
    pub fn memory_bytes(&self) -> usize {
        let f64s = std::mem::size_of::<f64>();
        let mat = |m: &Mat| m.rows() * m.cols() * f64s;
        let qr = |q: &QrFactor| mat(&q.a) + q.tau.len() * f64s;
        let mut bytes = mat(&self.root_lu.a) + self.root_lu.piv.len() * 8;
        for nf in self.nodes.iter().flatten() {
            bytes += qr(&nf.row_qr);
            if let Some(cq) = &nf.col_qr {
                bytes += qr(cq);
            }
            bytes += mat(&nf.lu22.a) + nf.lu22.piv.len() * 8;
            bytes += mat(&nf.d12) + mat(&nf.d21) + mat(&nf.r);
            if let Some(s) = &nf.s {
                bytes += mat(s);
            }
        }
        bytes
    }

    /// Modeled flop count of (re)building this factor: per node, the
    /// one-or-two basis QRs, the two-sided rotation of the local block,
    /// the pivot LU and its Schur update, plus the root LU. What a serve
    /// cache miss costs under a [`h2_runtime::multidev::DeviceModel`] —
    /// the quantity the multi-RHS batching amortizes.
    pub fn factor_flops(&self) -> f64 {
        let mut fl = cost::lu_flops(self.root_size);
        for nf in self.nodes.iter().flatten() {
            let m = nf.k + nf.e;
            fl += cost::qr_flops(m, nf.row_qr.tau.len());
            fl += cost::qr_apply_flops(m, nf.row_qr.tau.len(), m);
            if let Some(cq) = &nf.col_qr {
                fl += cost::qr_flops(m, cq.tau.len());
            }
            fl += cost::qr_apply_flops(m, nf.col_qr().tau.len(), m);
            fl += cost::lu_flops(nf.e);
            fl += cost::lu_solve_flops(nf.e, nf.k);
            fl += cost::gemm_flops(nf.k, nf.e, nf.k);
        }
        fl
    }
}

/// The batched per-level elimination: rotate, eliminate, expressed as
/// [`VarBatch`] jobs (the pass-up phase lives in the caller's level loop).
#[allow(clippy::too_many_arguments)]
fn eliminate_level_batched(
    rt: &Runtime,
    h2: &H2Matrix,
    ids: &[usize],
    l: usize,
    leaf_level: usize,
    dloc: &mut [Option<Mat>],
    nodes: &mut [Option<NodeFactor>],
    schur: &mut [Option<Mat>],
) -> Result<(), UlvError> {
    let n = ids.len();
    let ms: Vec<usize> = ids
        .iter()
        .map(|&id| dloc[id].as_ref().expect("reduced block").rows())
        .collect();

    // ---- rotate phase: marshal reduced bases, batched QR, two one-sided
    // rotations ----
    rt.launch(Kernel::PrefixSum);
    rt.launch(Kernel::Marshal);
    let kr: Vec<usize> = ids.iter().map(|&id| h2.row_basis_of(id).cols()).collect();
    let mut wrow = VarBatch::zeros(ms.clone(), kr.clone());
    {
        let nodes_ref: &[Option<NodeFactor>] = nodes;
        wrow.for_each_mut(rt.is_parallel(), |i, m| {
            fill_reduced_basis(h2, nodes_ref, l, leaf_level, ids[i], false, m);
        });
    }
    let row_qrs = batched_qr(rt, &wrow);
    drop(wrow);
    let (kc, col_qrs): (Vec<usize>, Option<Vec<QrFactor>>) = if h2.is_symmetric() {
        (kr.clone(), None)
    } else {
        let kc: Vec<usize> = ids.iter().map(|&id| h2.col_basis_of(id).cols()).collect();
        rt.launch(Kernel::Marshal);
        let mut wcol = VarBatch::zeros(ms.clone(), kc.clone());
        {
            let nodes_ref: &[Option<NodeFactor>] = nodes;
            wcol.for_each_mut(rt.is_parallel(), |i, m| {
                fill_reduced_basis(h2, nodes_ref, l, leaf_level, ids[i], true, m);
            });
        }
        (kc, Some(batched_qr(rt, &wcol)))
    };

    rt.launch(Kernel::Marshal);
    let mut dbatch = VarBatch::zeros(ms.clone(), ms.clone());
    for (i, &id) in ids.iter().enumerate() {
        let d = dloc[id].take().expect("reduced diagonal block");
        dbatch.set(i, d.rf());
    }
    batched_apply_qt(rt, &row_qrs, &mut dbatch);
    let mut dt = batched_transpose(rt, &dbatch);
    batched_apply_qt(rt, col_qrs.as_ref().unwrap_or(&row_qrs), &mut dt);
    let drot = batched_transpose(rt, &dt);
    drop(dbatch);
    drop(dt);

    // ---- eliminate phase: batched LU of the pivot blocks, batched
    // triangular solves, one batched Schur GEMM ----
    let ks: Vec<usize> = (0..n).map(|i| retained_size(ms[i], kr[i], kc[i])).collect();
    let es: Vec<usize> = (0..n).map(|i| ms[i] - ks[i]).collect();
    rt.launch(Kernel::Marshal);
    let mut d22 = VarBatch::zeros(es.clone(), es.clone());
    {
        let drot_ref = &drot;
        let ks_ref = &ks;
        d22.for_each_mut(rt.is_parallel(), |i, mut m| {
            let k = ks_ref[i];
            m.copy_from(drot_ref.mat(i).view(k, k, m.rows(), m.cols()));
        });
    }
    let lus = batched_lu(rt, &d22);
    drop(d22);
    let mut lu22s: Vec<LuFactor> = Vec::with_capacity(n);
    for (i, lu) in lus.into_iter().enumerate() {
        lu22s.push(lu.ok_or(UlvError::SingularBlock(ids[i]))?);
    }

    rt.launch(Kernel::Marshal);
    let mut z = VarBatch::zeros(es.clone(), ks.clone());
    {
        let drot_ref = &drot;
        let ks_ref = &ks;
        z.for_each_mut(rt.is_parallel(), |i, mut m| {
            m.copy_from(drot_ref.mat(i).view(ks_ref[i], 0, m.rows(), m.cols()));
        });
    }
    batched_lu_solve(rt, &lu22s, &mut z);

    rt.launch(Kernel::Gemm);
    let mut sb = VarBatch::zeros(ks.clone(), ks.clone());
    {
        let drot_ref = &drot;
        let z_ref = &z;
        let (ks_ref, es_ref) = (&ks, &es);
        sb.for_each_mut_costed(
            rt.is_parallel(),
            |i| cost::gemm_flops(ks[i], es[i], ks[i]).max(1.0),
            |i, mut m| {
                let (k, e) = (ks_ref[i], es_ref[i]);
                m.copy_from(drot_ref.mat(i).view(0, 0, k, k));
                if e > 0 && k > 0 {
                    h2_dense::gemm(
                        Op::NoTrans,
                        Op::NoTrans,
                        -1.0,
                        drot_ref.mat(i).view(0, k, k, e),
                        z_ref.mat(i),
                        1.0,
                        m,
                    );
                }
            },
        );
    }

    // ---- pack the per-node factors ----
    let mut col_iter = col_qrs.map(|v| v.into_iter());
    for (i, (row_qr, lu22)) in row_qrs.into_iter().zip(lu22s).enumerate() {
        let id = ids[i];
        let (k, e) = (ks[i], es[i]);
        let col_qr = col_iter.as_mut().map(|it| it.next().expect("col factor"));
        let drot_i = drot.mat(i);
        let r = padded_r(&row_qr, k);
        let s = col_qr.as_ref().map(|q| padded_r(q, k));
        nodes[id] = Some(NodeFactor {
            row_qr,
            col_qr,
            k,
            e,
            lu22,
            d12: drot_i.view(0, k, k, e).to_mat(),
            d21: drot_i.view(k, 0, e, k).to_mat(),
            r,
            s,
        });
        schur[id] = Some(sb.to_mat(i));
    }
    Ok(())
}

/// Per-node kernels of the ULV triangular solve sweeps — the solver
/// analogue of [`h2_matrix::ApplyPhases`]: [`UlvFactor::solve`] drives them
/// in-process, `h2_sched::shard_ulv_solve` drives the same kernels level by
/// level over contiguous node chunks with explicit transfers.
pub struct UlvSweep<'a> {
    f: &'a UlvFactor,
}

impl UlvSweep<'_> {
    /// Forward (eliminate) kernel for one node: rotate the local rhs by
    /// `Qᵀ`, solve the pivot block, update the retained part. Returns
    /// `(b₁', b₂)` — the reduced rhs passed up, and the eliminated rows
    /// cached for the backward sweep.
    pub fn forward_node(&self, id: usize, mut bl: Mat) -> (Mat, Mat) {
        let nf = self.f.nodes[id].as_ref().expect("node factor");
        let d = bl.cols();
        nf.row_qr.apply_qt(&mut bl.rm());
        let mut b1 = bl.view(0, 0, nf.k, d).to_mat();
        let b2 = bl.view(nf.k, 0, nf.e, d).to_mat();
        // b₁' = b₁ − D̃₁₂ D̃₂₂⁻¹ b₂. `gemm_rhs` keeps the kernel choice a
        // function of (rows, depth) only, so every column of a blocked rhs
        // is updated bit-identically to a d = 1 sweep.
        if nf.e > 0 && nf.k > 0 {
            let z = nf.lu22.solve(&b2);
            gemm_rhs(
                Op::NoTrans,
                Op::NoTrans,
                -1.0,
                nf.d12.rf(),
                z.rf(),
                1.0,
                b1.rm(),
            );
        }
        (b1, b2)
    }

    /// Backward (substitute) kernel for one node: recover the eliminated
    /// rows from the retained solution and un-rotate by the column-side
    /// `P` (`x = P [x₁; x₂]`). Returns the full local solution block.
    pub fn backward_node(&self, id: usize, x1: &Mat, b2: Mat) -> Mat {
        let nf = self.f.nodes[id].as_ref().expect("node factor");
        // x₂ = D̃₂₂⁻¹ (b₂ − D̃₂₁ x₁)
        let mut rhs2 = b2;
        if nf.e > 0 && nf.k > 0 {
            gemm_rhs(
                Op::NoTrans,
                Op::NoTrans,
                -1.0,
                nf.d21.rf(),
                x1.rf(),
                1.0,
                rhs2.rm(),
            );
        }
        let x2 = nf.lu22.solve(&rhs2);
        let mut xt = x1.vcat(&x2);
        nf.col_qr().apply_q(&mut xt.rm());
        xt
    }

    /// Dense solve of the assembled root system.
    pub fn root_solve(&self, b: &Mat) -> Mat {
        self.f.root_lu.solve(b)
    }
}

impl Preconditioner for UlvFactor {
    fn n(&self) -> usize {
        self.n
    }

    fn apply_inv(&self, r: &Mat) -> Mat {
        self.solve(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2_core::{sketch_construct, sketch_construct_unsym, SketchConfig};
    use h2_dense::{gaussian_mat, DenseOp, EntryAccess};
    use h2_kernels::{ConvectionKernel, ExponentialKernel, KernelMatrix, UnsymKernelMatrix};
    use h2_tree::Partition;

    fn line_points(n: usize) -> Vec<[f64; 3]> {
        (0..n).map(|i| [i as f64 / n as f64, 0.0, 0.0]).collect()
    }

    /// Add `sigma` to the diagonal of the stored dense diagonal blocks.
    fn shift_diag(h2: &mut H2Matrix, sigma: f64) {
        for i in 0..h2.dense.pairs.len() {
            let (s, t) = h2.dense.pairs[i];
            if s == t {
                let blk = &mut h2.dense.blocks[i];
                for j in 0..blk.rows() {
                    blk[(j, j)] += sigma;
                }
            }
        }
    }

    /// HSS from Algorithm 1 on a weak partition over 1-D geometry (the
    /// setting where weak admissibility genuinely compresses).
    fn hss_1d(n: usize, tol: f64, _seed: u64) -> (H2Matrix, KernelMatrix<ExponentialKernel>) {
        let pts = line_points(n);
        let tree = Arc::new(ClusterTree::build(&pts, 32));
        let part = Arc::new(Partition::build(&tree, Admissibility::Weak));
        let km = KernelMatrix::new(ExponentialKernel { l: 0.5 }, tree.points.clone());
        let rt = Runtime::parallel();
        let cfg = SketchConfig {
            tol,
            initial_samples: 64,
            max_rank: 96,
            ..Default::default()
        };
        let (h2, _) = sketch_construct(&km, &km, tree, part, &rt, &cfg);
        (h2, km)
    }

    /// Unsymmetric HSS: the two-stream engine over a weak 1-D partition
    /// with a genuinely unsymmetric kernel, diagonal-shifted.
    fn unsym_hss_1d(n: usize, sigma: f64) -> (H2Matrix, UnsymKernelMatrix<ConvectionKernel>) {
        let pts = line_points(n);
        let tree = Arc::new(ClusterTree::build(&pts, 32));
        let part = Arc::new(Partition::build(&tree, Admissibility::Weak));
        let km = UnsymKernelMatrix::new(ConvectionKernel::default(), tree.points.clone());
        let rt = Runtime::parallel();
        let cfg = SketchConfig {
            tol: 1e-10,
            initial_samples: 64,
            max_rank: 96,
            ..Default::default()
        };
        let (mut h2, _) = sketch_construct_unsym(&km, &km, tree, part, &rt, &cfg);
        shift_diag(&mut h2, sigma);
        (h2, km)
    }

    /// The LU-flavored elimination accepts the independent-side layout:
    /// the factorization solves the *compressed* unsymmetric operator to
    /// machine precision.
    #[test]
    fn ulv_accepts_unsymmetric_layout() {
        let (h2, _) = unsym_hss_1d(512, 3.0);
        assert!(!h2.is_symmetric(), "test needs a stored column side");
        let ulv = UlvFactor::new(&h2).unwrap();
        let b = gaussian_mat(512, 3, 22);
        let x = ulv.solve(&b);
        let ax = h2.apply_permuted_mat(&x);
        let mut r = ax;
        r.axpy(-1.0, &b);
        let rel = r.norm_fro() / b.norm_fro();
        assert!(rel < 1e-10, "unsym ULV representation residual {rel}");
    }

    /// Unsymmetric solution against a dense LU of the extracted compressed
    /// operator — exact up to roundoff, independent of construction error.
    #[test]
    fn unsym_ulv_matches_dense_lu_of_compressed_operator() {
        let (h2, _) = unsym_hss_1d(320, 3.0);
        let ulv = UlvFactor::new(&h2).unwrap();
        let b = gaussian_mat(320, 2, 23);
        let x = ulv.solve(&b);
        let dense = h2.to_dense();
        let want = lu_factor(dense).unwrap().solve(&b);
        let mut dxy = x;
        dxy.axpy(-1.0, &want);
        let rel = dxy.norm_fro() / want.norm_fro();
        assert!(rel < 1e-12, "unsym ULV vs dense LU rel {rel}");
    }

    /// The transpose product through the same factorization's operator:
    /// `K x` with `x = K⁻¹ b` must reproduce `b` even though row and
    /// column bases differ (catches side mix-ups in the two rotations).
    #[test]
    fn unsym_batched_matches_per_node() {
        let (h2, _) = unsym_hss_1d(384, 3.0);
        let batched = UlvFactor::new(&h2).unwrap();
        let per_node = UlvFactor::new_per_node(&h2).unwrap();
        let b = gaussian_mat(384, 3, 24);
        let xb = batched.solve(&b);
        let xp = per_node.solve(&b);
        let mut d = xb;
        d.axpy(-1.0, &xp);
        let rel = d.norm_fro() / xp.norm_fro().max(1e-300);
        assert!(
            rel <= 1e-13,
            "batched vs per-node elimination diverged: rel {rel}"
        );
    }

    #[test]
    fn sym_batched_matches_per_node() {
        let (mut h2, _) = hss_1d(512, 1e-9, 21);
        shift_diag(&mut h2, 2.0);
        let batched = UlvFactor::new(&h2).unwrap();
        let per_node = UlvFactor::new_per_node(&h2).unwrap();
        let b = gaussian_mat(512, 2, 25);
        let xb = batched.solve(&b);
        let xp = per_node.solve(&b);
        let mut d = xb;
        d.axpy(-1.0, &xp);
        let rel = d.norm_fro() / xp.norm_fro().max(1e-300);
        assert!(rel <= 1e-13, "sym batched vs per-node rel {rel}");
    }

    #[test]
    fn ulv_solves_the_representation_exactly() {
        let (h2, _) = hss_1d(512, 1e-9, 21);
        // Regularize: K + 2I keeps the system comfortably nonsingular.
        let mut h2 = h2;
        shift_diag(&mut h2, 2.0);
        let ulv = UlvFactor::new(&h2).unwrap();
        let b = gaussian_mat(512, 3, 22);
        let x = ulv.solve(&b);
        let ax = h2.apply_permuted_mat(&x);
        let mut r = ax;
        r.axpy(-1.0, &b);
        let rel = r.norm_fro() / b.norm_fro();
        assert!(rel < 1e-10, "ULV representation residual {rel}");
    }

    #[test]
    fn ulv_solution_matches_dense_solve() {
        let (h2, km) = hss_1d(400, 1e-10, 23);
        let mut h2 = h2;
        shift_diag(&mut h2, 2.0);
        let ulv = UlvFactor::new(&h2).unwrap();
        let b = gaussian_mat(400, 2, 24);
        let x = ulv.solve(&b);

        let mut dense = Mat::from_fn(400, 400, |i, j| km.entry(i, j));
        for i in 0..400 {
            dense[(i, i)] += 2.0;
        }
        let lu = lu_factor(dense).unwrap();
        let want = lu.solve(&b);
        let mut d = x;
        d.axpy(-1.0, &want);
        let rel = d.norm_fro() / want.norm_fro();
        // Construction error (1e-10) propagates through the inverse.
        assert!(rel < 1e-6, "ULV vs dense solve rel {rel}");
    }

    #[test]
    fn ulv_rejects_strong_partition() {
        let pts = h2_tree::uniform_cube(600, 25);
        let tree = Arc::new(ClusterTree::build(&pts, 16));
        let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
        let km = KernelMatrix::new(ExponentialKernel::default(), tree.points.clone());
        let rt = Runtime::parallel();
        let (h2, _) = sketch_construct(&km, &km, tree, part, &rt, &SketchConfig::default());
        assert!(matches!(
            UlvFactor::new(&h2),
            Err(UlvError::NotWeakPartition)
        ));
    }

    #[test]
    fn ulv_reports_singular_pivot_block() {
        let (mut h2, _) = hss_1d(256, 1e-9, 26);
        // Zero a leaf diagonal block: its rotated pivot D̃₂₂ is singular
        // whenever the leaf eliminates anything (k < m there).
        let leaf = h2.tree.level(h2.tree.leaf_level()).next().unwrap();
        let idx = h2
            .dense
            .pairs
            .iter()
            .position(|&(s, t)| s == leaf && t == leaf)
            .unwrap();
        let rows = h2.dense.blocks[idx].rows();
        assert!(h2.rank(leaf) < rows, "leaf must eliminate something");
        h2.dense.blocks[idx] = Mat::zeros(rows, rows);
        for schedule in [UlvSchedule::Batched, UlvSchedule::PerNode] {
            let rt = Runtime::sequential();
            match UlvFactor::with_schedule(&h2, schedule, &rt) {
                Err(UlvError::SingularBlock(id)) => assert_eq!(id, leaf),
                other => panic!("expected SingularBlock, got {:?}", other.err()),
            }
        }
    }

    /// Rank-0 (zero-extent basis) nodes are harmless: inject a rank-0 leaf
    /// under a based parent — its whole reduced block eliminates locally
    /// (`k = 0`, `e = m`) and the sibling coupling shrinks to zero extent.
    #[test]
    fn ulv_handles_rank_zero_nodes() {
        use h2_matrix::BlockStore;
        let (mut h2, _) = hss_1d(300, 1e-9, 31);
        shift_diag(&mut h2, 2.0);
        let tree = h2.tree.clone();
        let leaf = tree
            .level(tree.leaf_level())
            .find(|&id| {
                tree.nodes[id]
                    .parent
                    .map(|p| h2.rank(p) > 0)
                    .unwrap_or(false)
            })
            .expect("a leaf under a based parent");
        let parent = tree.nodes[leaf].parent.unwrap();
        let (c1, c2) = tree.nodes[parent].children.unwrap();
        let sibling = if leaf == c1 { c2 } else { c1 };
        let k_sib = h2.rank(sibling);
        let k_par = h2.rank(parent);
        h2.basis[leaf] = Mat::zeros(tree.nodes[leaf].len(), 0);
        h2.skel[leaf] = Vec::new();
        let old = h2.basis[parent].clone();
        let off = if leaf == c1 { old.rows() - k_sib } else { 0 };
        h2.basis[parent] = old.view(off, 0, k_sib, k_par).to_mat();
        let mut store = BlockStore::new();
        for i in 0..h2.coupling.pairs.len() {
            let (s, t) = h2.coupling.pairs[i];
            if s == leaf || t == leaf {
                let r = if s == leaf {
                    0
                } else {
                    h2.coupling.blocks[i].rows()
                };
                let c = if t == leaf {
                    0
                } else {
                    h2.coupling.blocks[i].cols()
                };
                store.insert(s, t, Mat::zeros(r, c));
            } else {
                store.insert(s, t, h2.coupling.blocks[i].clone());
            }
        }
        h2.coupling = store;
        let ulv = UlvFactor::new(&h2).unwrap();
        assert_eq!(ulv.retained(leaf), 0, "rank-0 leaf retains nothing");
        let b = gaussian_mat(300, 2, 27);
        let x = ulv.solve(&b);
        let ax = h2.apply_permuted_mat(&x);
        let mut r = ax;
        r.axpy(-1.0, &b);
        assert!(r.norm_fro() / b.norm_fro() < 1e-10);
    }

    #[test]
    fn ulv_single_leaf_tree() {
        let pts: Vec<[f64; 3]> = (0..20).map(|i| [i as f64, 0.0, 0.0]).collect();
        let tree = Arc::new(ClusterTree::build(&pts, 32));
        let part = Arc::new(Partition::build(&tree, Admissibility::Weak));
        let km = KernelMatrix::new(ExponentialKernel { l: 5.0 }, tree.points.clone());
        let rt = Runtime::sequential();
        let (mut h2, _) = sketch_construct(&km, &km, tree, part, &rt, &SketchConfig::default());
        shift_diag(&mut h2, 1.0);
        let ulv = UlvFactor::new(&h2).unwrap();
        let b = gaussian_mat(20, 1, 26);
        let x = ulv.solve(&b);
        let ax = h2.apply_permuted_mat(&x);
        let mut r = ax;
        r.axpy(-1.0, &b);
        assert!(r.norm_fro() / b.norm_fro() < 1e-12);
    }

    #[test]
    fn loose_ulv_preconditions_exact_operator() {
        use crate::krylov::pcg;
        use crate::precond::Identity;
        // Exact operator: shifted covariance. Preconditioner: ULV of a
        // loosely compressed HSS of the same operator.
        let n = 512;
        let pts = line_points(n);
        let tree = Arc::new(ClusterTree::build(&pts, 32));
        let part = Arc::new(Partition::build(&tree, Admissibility::Weak));
        let km = KernelMatrix::new(ExponentialKernel { l: 0.5 }, tree.points.clone());
        let mut dense = Mat::from_fn(n, n, |i, j| km.entry(i, j));
        for i in 0..n {
            dense[(i, i)] += 0.1; // mildly regularized: ill-conditioned enough
        }
        let op = DenseOp::new(dense);

        let rt = Runtime::parallel();
        let cfg = SketchConfig {
            tol: 1e-4,
            initial_samples: 48,
            ..Default::default()
        };
        let (hss, _) = sketch_construct(&op, &op, tree, part, &rt, &cfg);
        let ulv = UlvFactor::new(&hss).unwrap();

        let b: Vec<f64> = (0..n).map(|i| (0.01 * i as f64).sin()).collect();
        let plain = pcg(&op, &Identity { n }, &b, 400, 1e-10);
        let prec = pcg(&op, &ulv, &b, 400, 1e-10);
        assert!(
            prec.converged,
            "preconditioned CG residual {}",
            prec.relative_residual
        );
        assert!(
            prec.iterations * 3 < plain.iterations.max(1),
            "ULV precond {} its vs plain {} its",
            prec.iterations,
            plain.iterations
        );
    }

    #[test]
    fn multiple_rhs_consistent_with_single() {
        let (mut h2, _) = hss_1d(256, 1e-9, 27);
        shift_diag(&mut h2, 2.0);
        let ulv = UlvFactor::new(&h2).unwrap();
        let b = gaussian_mat(256, 4, 28);
        let x_all = ulv.solve(&b);
        // Bit-identity, not tolerance: the blocked sweep dispatches its
        // kernels on (rows, depth) only, so every column must match its
        // own single-RHS solve exactly.
        for c in 0..4 {
            let bc: Vec<f64> = b.col(c).to_vec();
            let xc = ulv.solve_vec(&bc);
            for i in 0..256 {
                assert_eq!(
                    x_all[(i, c)].to_bits(),
                    xc[i].to_bits(),
                    "column {c} row {i} drifted from the single-RHS sweep"
                );
            }
        }
    }

    /// Ranks above the QR panel width, so the factorization runs the
    /// block-reflector rotations: both schedules still produce the same
    /// bits (same kernels on the same shapes), and the sweep — which stays
    /// on the level-2 `apply_q` / `apply_qt` — still solves 64 columns
    /// exactly as 64 single-column solves.
    #[test]
    fn blocked_rotations_keep_the_sweep_bit_identities() {
        let side = 32;
        let n = side * side;
        let pts: Vec<[f64; 3]> = (0..n)
            .map(|i| {
                let (x, y) = ((i % side) as f64, (i / side) as f64);
                [x / side as f64, y / side as f64, 0.0]
            })
            .collect();
        let tree = Arc::new(ClusterTree::build(&pts, 64));
        let part = Arc::new(Partition::build(&tree, Admissibility::Weak));
        let km = KernelMatrix::new(ExponentialKernel { l: 0.5 }, tree.points.clone());
        let cfg = SketchConfig {
            tol: 1e-6,
            initial_samples: 128,
            ..Default::default()
        };
        let (mut h2, _) = sketch_construct(&km, &km, tree, part, &Runtime::parallel(), &cfg);
        shift_diag(&mut h2, 2.0);
        let ulv = UlvFactor::new(&h2).unwrap();
        let widest = h2.basis.iter().map(|u| u.cols()).max();
        assert!(
            widest.unwrap() > h2_dense::qr::NB,
            "test needs a basis wider than one QR panel, got {widest:?}"
        );

        let b = gaussian_mat(n, 64, 31);
        let x = ulv.solve(&b);
        let mut r = h2.apply_permuted_mat(&x);
        r.axpy(-1.0, &b);
        let rel = r.norm_fro() / b.norm_fro();
        assert!(rel < 1e-10, "ULV representation residual {rel}");

        let bits = |m: &Mat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let per_node = UlvFactor::new_per_node(&h2).unwrap();
        assert_eq!(bits(&x), bits(&per_node.solve(&b)), "batched vs per-node");
        for c in 0..64 {
            let xc = ulv.solve(&b.col_block(c, 1).to_mat());
            assert_eq!(bits(&x.col_block(c, 1).to_mat()), bits(&xc), "column {c}");
        }
    }

    #[test]
    fn root_size_reflects_compression() {
        let (mut h2, _) = hss_1d(512, 1e-8, 29);
        shift_diag(&mut h2, 2.0);
        let ulv = UlvFactor::new(&h2).unwrap();
        assert!(
            ulv.root_size() < 512 / 2,
            "root system {} should be far smaller than N",
            ulv.root_size()
        );
    }

    /// The per-node shapes a sweep plan reads line up with the tree: a
    /// leaf's reduced block is its cluster, an inner node's (and the root
    /// system) stacks its children's retained blocks, and the forward
    /// kernel passes up exactly `retained × nrhs`.
    #[test]
    fn solve_spec_shapes_line_up() {
        let (mut h2, _) = hss_1d(512, 1e-9, 30);
        shift_diag(&mut h2, 2.0);
        let ulv = UlvFactor::new(&h2).unwrap();
        let tree = ulv.tree().clone();
        let leaf_level = tree.leaf_level();
        assert!(leaf_level > 0);
        let stacked = |id: usize| {
            let (c1, c2) = tree.nodes[id].children.unwrap();
            ulv.retained(c1) + ulv.retained(c2)
        };
        assert_eq!(ulv.retained(0), 0);
        assert_eq!(ulv.root_size(), stacked(0));
        let sweep = ulv.sweep();
        for l in (1..=leaf_level).rev() {
            for id in tree.level(l) {
                let nf = ulv.nodes[id].as_ref().expect("processed node");
                let m = nf.k + nf.e;
                let want = if l == leaf_level {
                    tree.nodes[id].len()
                } else {
                    stacked(id)
                };
                assert_eq!(m, want, "reduced block of node {id} at L{l}");
                assert_eq!(ulv.retained(id), nf.k);
                assert!(ulv.forward_flops(id, 3) > 0.0 && ulv.backward_flops(id, 3) > 0.0);
                let (b1, b2) = sweep.forward_node(id, Mat::zeros(m, 3));
                assert_eq!((b1.rows(), b1.cols()), (nf.k, 3));
                assert_eq!((b2.rows(), b2.cols()), (nf.e, 3));
                let x = sweep.backward_node(id, &b1, b2);
                assert_eq!((x.rows(), x.cols()), (m, 3));
            }
        }
    }
}
