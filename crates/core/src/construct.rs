//! Algorithm 1 as a stream-generic engine: bottom-up sketching-based H2
//! construction with adaptive sampling, for symmetric *and* unsymmetric
//! matrices from one level-by-level loop.
//!
//! Inputs (paper §III): a hierarchical block partition, a black-box sampler
//! `Y = Kblk(Ω)` (with `Z = Kᵀblk(Ψ)` for the unsymmetric extension), an
//! entry evaluator for sub-blocks, a relative tolerance ε, and the sample
//! block size `d`. The construction proceeds level by level from the
//! leaves, driving one sketch stream `(Y, Ω)` per basis side:
//!
//! * the **row** stream `Y = K Ω`: its per-node local samples span the
//!   block row of the remaining admissible matrix; a row ID yields the row
//!   basis `U_τ` and row skeleton `Ĩ^r_τ`;
//! * the **column** stream `Z = Kᵀ Ψ` (unsymmetric only): spans the block
//!   column; its row ID yields `V_τ` and `Ĩ^c_τ`.
//!
//! Per level, each stream is advanced identically:
//!
//! 1. subtract the known contributions (dense blocks at the leaves, the
//!    previous level's coupling blocks above) with `batchedBSRGemm` — the
//!    column stream reads every block through the transposed lookup
//!    (`Kᵀ(I_s, I_t) = K(I_t, I_s)ᵀ`), which the side-generic
//!    `BlockStore::lookup_op` resolves for both storage layouts,
//! 2. test convergence per node via the QR diagonal of the local samples
//!    (lines 11/29) and, if needed, draw `d` fresh global samples per
//!    stream and sweep them up through the already-skeletonized levels
//!    (`updateSamples`),
//! 3. skeletonize with a batched row ID (lines 16/34) giving the side's
//!    leaf basis or stacked transfers `[E_{ν1}; E_{ν2}]`,
//! 4. shrink the samples to skeleton rows and compress the random inputs by
//!    the *opposite* side's basis (`Ω ← Vᵀ Ω`, `Ψ ← Uᵀ Ψ` — because an
//!    admissible block acts as `U_s B_{s,t} V_tᵀ`); for the symmetric
//!    one-stream instance the opposite side is the stream's own,
//! 5. evaluate the coupling blocks `B_{s,t} = K(Ĩ^r_s, Ĩ^c_t)` with
//!    `batchedGen` — per unordered pair when symmetric, per ordered pair
//!    otherwise.
//!
//! One entry point, [`sketch_construct`], runs both regimes; the one
//! `bool` [`SketchConfig::symmetric`] chooses between them. The symmetric
//! construction is the degenerate one-stream instance (`V = U`, shared
//! skeletons): it executes exactly the seed symmetric kernel sequence, so
//! results are bitwise identical to the pre-unification path. Every step
//! runs as batched kernels on the [`Runtime`] and is attributed to the
//! Fig.-7 phase it belongs to.
//!
//! Algorithm 1's lines map onto the engine's statements (leaf level /
//! inner levels):
//!
//! | Lines | Step | Statement |
//! |---|---|---|
//! | 1, 5 | global samples, gathered to the leaves | `draw_global_samples` |
//! | 8 | near-field `batchedGen` | `gen_blocks(.., BlockSource::Dense)` |
//! | 9 / 24, 27 | subtract known blocks, stack children | `advance_level` |
//! | 11, 29 | convergence test | `qr_min_rdiag` in the sampling `loop` |
//! | 12–14 / 30–32 | `updateSamples` | `sweep_new_samples`, `hcat_batches` |
//! | 16, 19 / 34, 37 | row ID, store basis and skeleton | `batched_row_id`, `set_side_basis` |
//! | 17–18 / 35–36 | shrink samples, compress inputs | `shrink_rows`, `gemm_at_x` |
//! | 41 | coupling `batchedGen` | `gen_blocks(.., BlockSource::Coupling)` |
//!
//! Four departures from the paper:
//! * the safety factor: every threshold is `SAFETY·ε·‖K‖₂`
//!   ([`crate::threshold::SAFETY`], 1/30), not `ε·‖K‖₂`;
//! * the `√d` factor: at sample width `d` the convergence test and the ID
//!   read one threshold, scaled by `√d` ([`Threshold::at_width`]), as
//!   `‖AΩ‖_F ≈ √d·‖A‖_F` for `d` Gaussian columns;
//! * the convergence statistic is the smallest `|R_ii|` of an unpivoted QR
//!   of each node's local samples (`qr_min_rdiag`);
//! * the reference sampler: the engine sees only a [`LinOp`], and the
//!   kernel matrices of this workspace sample with their exact `O(N²d)`
//!   product where the paper assumes a fast black-box one.
//!
//! The device fabric (§IV.B) stays out of the loop: four calls of
//! `h2_core::multidev`'s per-level fabric step, no-ops off the fabric,
//! charge each level's epoch, issue a pipelined fabric's fetches ahead and
//! keep the recovery ledger.

use crate::config::{SketchConfig, SketchStats};
use crate::multidev::FabricStep;
use crate::threshold::{estimate_norm, Threshold};
use h2_dense::cpqr::Truncation;
use h2_dense::{EntryAccess, LinOp, Mat};
use h2_matrix::H2Matrix;
use h2_runtime::{
    batched_gen, batched_row_id, bsr_gemm, gather_rows, gemm_at_x, hcat_batches, qr_min_rdiag,
    rand_mat, shrink_rows, stack_children, BsrBlock, BsrPattern, GenBlock, Phase, Runtime,
    VarBatch,
};
use h2_tree::{ClusterTree, Partition};
use std::sync::Arc;
use std::time::Instant;

/// Which block store a BSR position reads from.
#[derive(Clone, Copy)]
enum BlockSource {
    Dense,
    Coupling,
}

impl BlockSource {
    /// The partition adjacency whose blocks the store holds.
    fn adjacency(self, partition: &Partition) -> &[Vec<usize>] {
        match self {
            BlockSource::Dense => &partition.near_of,
            BlockSource::Coupling => &partition.far_of,
        }
    }
}

/// Which sketch stream / basis side a computation serves. The row stream
/// multiplies blocks of `K` as stored; the column stream multiplies blocks
/// of `Kᵀ`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Side {
    Row,
    Col,
}

impl Side {
    /// Seed perturbation separating the two streams' randomness.
    fn seed_salt(self) -> u64 {
        match self {
            Side::Row => 0,
            Side::Col => 0xA5A5_5A5A,
        }
    }
}

/// The sketch streams of a construction, in the engine's order.
pub(crate) fn sides(symmetric: bool) -> &'static [Side] {
    if symmetric {
        &[Side::Row]
    } else {
        &[Side::Row, Side::Col]
    }
}

/// The shared per-level BSR subtraction/stacking structure (identical for
/// every stream of a level, and read by [`crate::plan_construct`]).
pub(crate) struct LevelStructure {
    /// BSR subtraction pattern. Rows = leaf nodes (leaf level) or child
    /// nodes (inner levels).
    pub(crate) pattern: BsrPattern,
    /// Ordered `(row_node, col_node)` per BSR position.
    pairs: Vec<(usize, usize)>,
    source: BlockSource,
    /// For inner levels: per-parent local child indices (stacking map).
    /// Empty at the leaf level.
    pub(crate) children_local: Vec<Vec<usize>>,
}

/// Frozen per-level data used to sweep later sample batches up the tree.
struct LevelRecord {
    structure: LevelStructure,
    /// Node ids at this level, in level order.
    node_ids: Vec<usize>,
    /// Per stream (same order as the engine's stream vector): skeleton row
    /// positions into the stacked local samples.
    skels_local: Vec<Vec<Vec<usize>>>,
}

/// Construct an H2 matrix by adaptive sketching (Algorithm 1).
///
/// [`SketchConfig::symmetric`] picks the instance: one sketch stream with
/// `V = U` and unordered block stores, or two streams (`Y = K Ω`,
/// `Z = Kᵀ Ψ`) with independent row/column bases and ordered block stores,
/// for which `sampler` must implement both `apply` and `apply_transpose`.
/// `sampler` and `gen` view the matrix in tree-permuted coordinates, as do
/// all operators in this workspace.
///
/// `SketchStats::total_samples` counts the columns of **each** stream; an
/// unsymmetric construction draws that many `Ω` and that many `Ψ` vectors.
pub fn sketch_construct(
    sampler: &dyn LinOp,
    gen: &dyn EntryAccess,
    tree: Arc<ClusterTree>,
    partition: Arc<Partition>,
    rt: &Runtime,
    cfg: &SketchConfig,
) -> (H2Matrix, SketchStats) {
    let t0 = Instant::now();
    let n = tree.npoints();
    assert_eq!(sampler.nrows(), n, "sampler size mismatch");
    assert_eq!(sampler.ncols(), n, "only square matrices are supported");
    let symmetric = cfg.symmetric;
    let mut h2 = H2Matrix::new_shell(tree.clone(), partition.clone(), symmetric);
    let mut stats = SketchStats::default();
    let leaf_level = tree.leaf_level();
    let leaves: Vec<usize> = tree.level(leaf_level).collect();
    let mut fabric = FabricStep::new(rt, &h2, cfg);

    // ---- dense near-field blocks (batchedGen, line 8) ----
    gen_blocks(rt, gen, &mut h2, &leaves, BlockSource::Dense);

    // Entirely dense partition (tiny N): done.
    let Some(top) = partition.top_far_level(&tree) else {
        fabric.tail(&h2);
        stats.elapsed = t0.elapsed();
        stats.capture_profile(rt.profile());
        return (h2, stats);
    };

    // ---- initial sampling (line 1), one batch per stream ----
    let d0 = cfg.initial_width();
    let leaf_ranges: Vec<(usize, usize)> = leaves.iter().map(|&id| tree.range(id)).collect();
    let sides = sides(symmetric);
    let mut norm_start = None;
    let mut streams: Vec<(VarBatch, VarBatch)> = sides
        .iter()
        .map(|&side| {
            let seed = cfg.seed ^ side.seed_salt();
            let first = side == Side::Row;
            let (y, omega, start) =
                draw_global_samples(rt, sampler, n, d0, seed, side, &leaf_ranges, first);
            norm_start = norm_start.take().or(start);
            (y, omega)
        })
        .collect();
    stats.total_samples = d0;

    // ---- norm estimate backing the relative threshold (§III.B):
    // Golub–Kahan–Lanczos from the row samples' dominant direction, which
    // alternates K and Kᵀ, so unsymmetry is handled ----
    let start = norm_start.expect("the row stream yields the estimate's start");
    let (norm_est, norm_products) =
        rt.phase(Phase::NormEst, || estimate_norm(sampler, &start, cfg.tol));
    stats.norm_estimate = norm_est;
    stats.norm_products = norm_products;
    let threshold = Threshold::new(cfg.tol, norm_est);

    // ---- storage demotion of the finished near field (norm-aware) ----
    // Every off-diagonal dense block whose f32 rounding error fits the
    // tolerance is stored f32, as its only copy, whatever `storage` says.
    // Done before the level loop so the leaf-level BSR subtraction reads
    // exactly the values the stored operator will have: demotion error is
    // then *part of* the operator being sketched, not an unmodeled drift.
    rt.phase(Phase::Demote, || h2.dense.demote_pending(threshold.abs()));
    if !symmetric {
        check_adjoint(rt, sampler, cfg.seed, norm_est);
    }

    let mut records: Vec<LevelRecord> = Vec::new();
    let mut round_seed = cfg.seed.wrapping_add(0x1234_5678);

    // ---- bottom-up level loop ----
    for l in (top..=leaf_level).rev() {
        fabric.open_level(&h2, &mut stats);
        let _level_span = rt.trace_span("construct", || format!("construct L{l}"));
        let node_ids: Vec<usize> = tree.level(l).collect();
        let is_leaf = l == leaf_level;
        let structure = level_structure(&tree, &partition, &node_ids, is_leaf);

        // Subtract known contributions and stack to this level's nodes
        // (lines 9 / 24+27), per stream.
        let mut locals: Vec<(VarBatch, VarBatch)> = streams
            .drain(..)
            .enumerate()
            .map(|(k, (y, omega))| {
                advance_level(rt, &h2, &structure, sides[k], y, omega, fabric.tickets(k))
            })
            .collect();

        // ---- adaptive sampling loop (lines 11-14 / 29-32): every stream
        // must pass the per-node convergence test at the current width. The
        // loop yields the threshold at the final width, which the row ID
        // reads too ----
        let mut width = if locals[0].0.count() > 0 {
            locals[0].0.cols_of(0)
        } else {
            0
        };
        let mut level_rounds = 0usize;
        let eps = loop {
            let eps = threshold.at_width(width);
            if !cfg.adaptive || width == 0 {
                break eps;
            }
            let mut unconverged = false;
            for (yloc, _) in &locals {
                let mins = rt.phase(Phase::ConvergenceTest, || qr_min_rdiag(rt, yloc));
                unconverged |= (0..yloc.count()).any(|i| width < yloc.rows_of(i) && mins[i] > eps);
            }
            if !unconverged {
                break eps;
            }
            if stats.total_samples + cfg.sample_block > cfg.max_samples {
                stats.sample_cap_hit = true;
                break eps;
            }
            // updateSamples: fresh global sketch per stream swept through the
            // frozen levels below, then advanced through this level.
            round_seed = round_seed.wrapping_add(0x9E37_79B9);
            for (idx, &side) in sides.iter().enumerate() {
                let (ny, nom) = sweep_new_samples(
                    rt,
                    sampler,
                    &h2,
                    &records,
                    &leaf_ranges,
                    &structure,
                    side,
                    idx,
                    cfg.sample_block,
                    round_seed ^ side.seed_salt(),
                );
                let (yloc, omega_l) = &mut locals[idx];
                *yloc = rt.phase(Phase::Misc, || hcat_batches(rt, yloc, &ny));
                *omega_l = rt.phase(Phase::Misc, || hcat_batches(rt, omega_l, &nom));
            }
            width += cfg.sample_block;
            stats.total_samples += cfg.sample_block;
            stats.rounds += 1;
            level_rounds += 1;
        };
        stats.rounds_per_level.push(level_rounds);

        // ---- batched row ID per stream (lines 16 / 34) ----
        let mut skels_local: Vec<Vec<Vec<usize>>> = Vec::with_capacity(sides.len());
        for (&side, (yloc, _)) in sides.iter().zip(&locals) {
            let mut id_res = rt.phase(Phase::Id, || {
                batched_row_id(rt, yloc, Truncation::Absolute(eps))
            });
            // Enforce the rank cap (rare; re-factor the offenders).
            for (i, r) in id_res.iter_mut().enumerate() {
                if r.rank() > cfg.max_rank {
                    *r = h2_dense::cpqr::row_id(&yloc.to_mat(i), Truncation::Rank(cfg.max_rank));
                    stats.rank_cap_hits += 1;
                }
            }

            // Store bases and global skeleton indices (lines 19 / 37).
            let mut side_skels: Vec<Vec<usize>> = Vec::with_capacity(node_ids.len());
            for (r, &id) in id_res.into_iter().zip(&node_ids) {
                let stacked_rows: Vec<usize> = if is_leaf {
                    let (b, e) = tree.range(id);
                    (b..e).collect()
                } else {
                    let (c1, c2) = tree.nodes[id].children.unwrap();
                    let skel = side_skel(&h2, side);
                    skel[c1].iter().chain(skel[c2].iter()).copied().collect()
                };
                let global: Vec<usize> = r.skel.iter().map(|&p| stacked_rows[p]).collect();
                set_side_basis(&mut h2, side, id, r.u, global);
                side_skels.push(r.skel);
            }
            skels_local.push(side_skels);
        }
        fabric.after_id(l, &h2, &node_ids, width);

        // ---- coupling blocks at this level (batchedGen, line 41):
        // B_{s,t} = K(Ĩ^r_s, Ĩ^c_t) ----
        gen_blocks(rt, gen, &mut h2, &node_ids, BlockSource::Coupling);

        // ---- storage demotion as the level completes (norm-aware) ----
        // Coupling blocks of this level narrow to f32, as their only copy,
        // *before* the next level's subtraction consumes them, so every
        // later kernel reads the stored representation.
        if cfg.storage == h2_runtime::Precision::F32 {
            rt.phase(Phase::Demote, || {
                h2.coupling.demote_pending(threshold.abs())
            });
        }

        // ---- upsweep to the next level (lines 17-18 / 35-36): shrink each
        // stream's samples to its skeleton rows, compress its inputs by the
        // opposite side's basis (Ω ← VᵀΩ, Ψ ← UᵀΨ; V = U when symmetric).
        // Both streams' kernels run as one chain; what they borrow is bound
        // outside it ----
        if l > top {
            let bases: Vec<Vec<&Mat>> = sides
                .iter()
                .map(|&side| input_bases(&h2, side, &node_ids))
                .collect();
            let skel_refs: Vec<Vec<&[usize]>> = skels_local
                .iter()
                .map(|sk| sk.iter().map(Vec::as_slice).collect())
                .collect();
            streams = rt.chained(|| {
                (locals.iter().zip(&skel_refs).zip(&bases))
                    .map(|(((yloc, omega_l), skels), b)| {
                        let y = rt.phase(Phase::Upsweep, || shrink_rows(rt, yloc, skels));
                        (y, rt.phase(Phase::Upsweep, || gemm_at_x(rt, b, omega_l)))
                    })
                    .collect()
            });
        }

        fabric.close_level(&h2, l, level_rounds, &node_ids, &mut stats);
        records.push(LevelRecord {
            structure,
            node_ids,
            skels_local,
        });
    }

    stats.elapsed = t0.elapsed();
    stats.capture_profile(rt.profile());
    (h2, stats)
}

/// `batchedGen` (lines 8 / 41) of the blocks of `source` in the block rows
/// `ids`: near-field `K(I_s, I_t)` or coupling `B_{s,t} = K(Ĩ^r_s, Ĩ^c_t)`,
/// once per unordered pair when symmetric, every ordered pair otherwise
/// (`K(I_s, I_t)` and `K(I_t, I_s)` are disjoint entry sets).
fn gen_blocks(
    rt: &Runtime,
    gen: &dyn EntryAccess,
    h2: &mut H2Matrix,
    ids: &[usize],
    source: BlockSource,
) {
    rt.phase(Phase::EntryGen, || {
        let (tree, adj) = (&h2.tree, source.adjacency(&h2.partition));
        let range = |id: usize| -> Vec<usize> {
            let (b, e) = tree.range(id);
            (b..e).collect()
        };
        let mut specs = Vec::new();
        let mut keys = Vec::new();
        for &s in ids {
            for &t in adj[s].iter().filter(|&&t| stored(h2, s, t)) {
                specs.push(match source {
                    BlockSource::Dense => GenBlock {
                        rows: range(s),
                        cols: range(t),
                    },
                    BlockSource::Coupling => GenBlock {
                        rows: h2.skel[s].clone(),
                        cols: h2.col_skel()[t].clone(),
                    },
                });
                keys.push((s, t));
            }
        }
        let blocks = batched_gen(rt, gen, &specs);
        let store = match source {
            BlockSource::Dense => &mut h2.dense,
            BlockSource::Coupling => &mut h2.coupling,
        };
        for ((s, t), b) in keys.into_iter().zip(blocks) {
            store.insert(s, t, b);
        }
    });
}

/// Whether `h2`'s block stores hold the pair `(s, t)`: symmetric stores
/// hold one block per unordered pair.
pub(crate) fn stored(h2: &H2Matrix, s: usize, t: usize) -> bool {
    !h2.is_symmetric() || s <= t
}

/// The column stream samples through `apply_transpose`, whose `LinOp`
/// default silently falls back to `apply` (correct only for symmetric
/// operators). The adjoint identity xᵀ(K y) = (Kᵀ x)ᵀ y holds for every
/// correct pair regardless of symmetry, so one cheap probe catches a
/// forgotten override before it corrupts the column bases.
fn check_adjoint(rt: &Runtime, sampler: &dyn LinOp, seed: u64, norm_est: f64) {
    let n = sampler.nrows();
    rt.phase(Phase::Misc, || {
        let x = h2_dense::gaussian_mat(n, 1, seed ^ 0x0DD5_EED5);
        let y = h2_dense::gaussian_mat(n, 1, seed ^ 0x5EED_0DD5);
        let ky = sampler.apply_mat(&y);
        let mut ktx = Mat::zeros(n, 1);
        sampler.apply_transpose(x.rf(), ktx.rm());
        let a: f64 = (0..n).map(|i| x[(i, 0)] * ky[(i, 0)]).sum();
        let b: f64 = (0..n).map(|i| ktx[(i, 0)] * y[(i, 0)]).sum();
        let scale = norm_est.max(f64::MIN_POSITIVE) * x.norm_fro() * y.norm_fro();
        assert!(
            (a - b).abs() <= 1e-8 * scale,
            "sampler violates the adjoint identity (|xᵀKy - (Kᵀx)ᵀy| = {:.3e} vs scale {:.3e}); \
             its LinOp::apply_transpose is likely the symmetric default",
            (a - b).abs(),
            scale
        );
    });
}

/// The basis side a stream's row IDs populate.
fn set_side_basis(h2: &mut H2Matrix, side: Side, id: usize, u: Mat, skel: Vec<usize>) {
    match side {
        Side::Row => {
            h2.basis[id] = u;
            h2.skel[id] = skel;
        }
        Side::Col => {
            let c = h2
                .col
                .as_mut()
                .expect("column side present for the column stream");
            c.basis[id] = u;
            c.skel[id] = skel;
        }
    }
}

/// The skeleton lists of a stream's own side.
pub(crate) fn side_skel(h2: &H2Matrix, side: Side) -> &[Vec<usize>] {
    match side {
        Side::Row => &h2.skel,
        Side::Col => h2.col_skel(),
    }
}

/// The basis compressing a stream's random inputs: the *opposite* side
/// (`Ω ← VᵀΩ`, `Ψ ← UᵀΨ`), which is the stream's own side when symmetric.
pub(crate) fn input_basis(h2: &H2Matrix, side: Side) -> &[Mat] {
    match side {
        Side::Row => h2.col_basis(),
        Side::Col => &h2.basis,
    }
}

/// [`input_basis`] at the nodes `ids`, borrowed in their order.
pub(crate) fn input_bases<'a>(h2: &'a H2Matrix, side: Side, ids: &[usize]) -> Vec<&'a Mat> {
    let b = input_basis(h2, side);
    ids.iter().map(|&id| &b[id]).collect()
}

/// Draw `d` fresh global samples for one stream: random inputs, the
/// side-matching sampler product (`K Ω` or `Kᵀ Ψ`), gathered to leaf rows.
///
/// With `norm_start`, also the start of the `‖K‖₂` estimate: `Y v₁`,
/// where `v₁` is the dominant eigenvector of the Gram `YᵀY` from a few
/// power steps, the block's best single direction in the range of the
/// product. It is formed before the `n x d` product is dropped.
#[allow(clippy::too_many_arguments)]
fn draw_global_samples(
    rt: &Runtime,
    sampler: &dyn LinOp,
    n: usize,
    d: usize,
    seed: u64,
    side: Side,
    leaf_ranges: &[(usize, usize)],
    norm_start: bool,
) -> (VarBatch, VarBatch, Option<Mat>) {
    let omega = rt.phase(Phase::Rand, || rand_mat(rt, n, d, seed));
    let y = rt.phase(Phase::Sampling, || match side {
        Side::Row => sampler.apply_mat(&omega),
        Side::Col => {
            let mut z = Mat::zeros(n, d);
            sampler.apply_transpose(omega.rf(), z.rm());
            z
        }
    });
    let start = norm_start.then(|| rt.phase(Phase::NormEst, || dominant_direction(&y)));
    let ob = rt.phase(Phase::Misc, || gather_rows(rt, &omega, leaf_ranges));
    let yb = rt.phase(Phase::Misc, || gather_rows(rt, &y, leaf_ranges));
    (yb, ob, start)
}

/// Power steps on the Gram `YᵀY` behind [`draw_global_samples`]' start
/// vector: enough to pick the dominant direction out of a sample block,
/// whose leading singular values separate like `K`'s.
const GRAM_POWER_STEPS: usize = 8;

/// `Y v₁` for the dominant eigenvector `v₁` of `YᵀY` (power iteration
/// from the all-ones vector); `norm_2_gkl` normalises it. A zero or
/// non-finite `Y` gives a non-finite vector, which `norm_2_gkl` replaces
/// by its Gaussian start.
fn dominant_direction(y: &Mat) -> Mat {
    use h2_dense::{gemm, gemv, Op};
    let d = y.cols();
    let mut gram = Mat::zeros(d, d);
    gemm(Op::Trans, Op::NoTrans, 1.0, y.rf(), y.rf(), 0.0, gram.rm());
    let mut v = vec![1.0; d];
    let mut w = vec![0.0; d];
    for _ in 0..GRAM_POWER_STEPS {
        gemv(Op::NoTrans, 1.0, gram.rf(), &v, 0.0, &mut w);
        let norm = w.iter().map(|x| x * x).sum::<f64>().sqrt();
        v.iter_mut().zip(&w).for_each(|(vi, wi)| *vi = wi / norm);
    }
    let mut u = Mat::zeros(y.rows(), 1);
    gemv(Op::NoTrans, 1.0, y.rf(), &v, 0.0, u.col_mut(0));
    u
}

/// Build the shared BSR subtraction/stacking structure of a level: the
/// near field of the leaves, or the coupling blocks of the level's children
/// stacked onto their parents.
pub(crate) fn level_structure(
    tree: &ClusterTree,
    partition: &Partition,
    node_ids: &[usize],
    is_leaf: bool,
) -> LevelStructure {
    let (rows, source, children_local) = if is_leaf {
        (node_ids.to_vec(), BlockSource::Dense, Vec::new())
    } else {
        let child_level = tree.level_of(node_ids[0]) + 1;
        let children_local = node_ids
            .iter()
            .map(|&p| {
                let (c1, c2) = tree.nodes[p].children.unwrap();
                vec![tree.local_index(c1), tree.local_index(c2)]
            })
            .collect();
        (
            tree.level(child_level).collect(),
            BlockSource::Coupling,
            children_local,
        )
    };
    let adj = source.adjacency(partition);
    LevelStructure {
        pattern: bsr_pattern(tree, adj, &rows),
        pairs: rows
            .iter()
            .flat_map(|&s| adj[s].iter().map(move |&t| (s, t)))
            .collect(),
        source,
        children_local,
    }
}

/// The BSR pattern of the block rows `ids` over `adj`, partners by their
/// index within their level.
pub(crate) fn bsr_pattern(tree: &ClusterTree, adj: &[Vec<usize>], ids: &[usize]) -> BsrPattern {
    let rows: Vec<Vec<usize>> = ids
        .iter()
        .map(|&s| adj[s].iter().map(|&t| tree.local_index(t)).collect())
        .collect();
    BsrPattern::from_rows(&rows)
}

/// Resolve the BSR block references of a level against the H2 block stores.
///
/// The row stream multiplies blocks of `K` (ordered `(s, t)` lookups); the
/// column stream multiplies blocks of `Kᵀ` (`K(I_t, I_s)ᵀ`). Both the
/// unordered-symmetric and ordered-unsymmetric stores answer through
/// `BlockStore::lookup_op`, each block at its stored width.
fn resolve_blocks<'a>(
    h2: &'a H2Matrix,
    pairs: &[(usize, usize)],
    source: BlockSource,
    side: Side,
) -> Vec<BsrBlock<'a>> {
    let store = match source {
        BlockSource::Dense => &h2.dense,
        BlockSource::Coupling => &h2.coupling,
    };
    let transpose = side == Side::Col;
    pairs
        .iter()
        .map(|&(s, t)| {
            let op = store.lookup_op(s, t, transpose).expect("level block");
            BsrBlock {
                mat: op.mat,
                transposed: op.transposed,
            }
        })
        .collect()
}

/// Subtract the level's known contributions from one stream's samples and
/// stack child entries onto this level's nodes. Consumes the child-level
/// batches and returns `(Y_loc, Ω_l)`. `fetched` holds the tickets of the
/// `Ω_b` fetches issued ahead for this subtraction (`None`: it issues its
/// own).
fn advance_level(
    rt: &Runtime,
    h2: &H2Matrix,
    structure: &LevelStructure,
    side: Side,
    mut y: VarBatch,
    omega: VarBatch,
    fetched: Option<Vec<Vec<u64>>>,
) -> (VarBatch, VarBatch) {
    // The subtraction and the child stacking run as one chain: the
    // stacking jobs queue behind the BSR jobs' completion tickets. What the
    // queued jobs borrow — `blocks`, `y`, `omega` — is bound out here.
    let blocks = resolve_blocks(h2, &structure.pairs, structure.source, side);
    let children = &structure.children_local;
    let stacked = rt.chained(|| {
        rt.phase(Phase::BsrGemm, || {
            bsr_gemm(
                rt,
                &structure.pattern,
                &blocks,
                &omega,
                &mut y,
                -1.0,
                fetched,
            );
        });
        (!children.is_empty()).then(|| {
            rt.phase(Phase::Misc, || {
                let yl = stack_children(rt, &y, children);
                (yl, stack_children(rt, &omega, children))
            })
        })
    });
    stacked.unwrap_or((y, omega))
}

/// `updateSamples` (lines 13/31) for one stream: draw a fresh global sketch
/// and sweep it through all completed levels (frozen bases and skeletons),
/// then advance it through the current level's subtraction/stacking.
#[allow(clippy::too_many_arguments)]
fn sweep_new_samples(
    rt: &Runtime,
    sampler: &dyn LinOp,
    h2: &H2Matrix,
    records: &[LevelRecord],
    leaf_ranges: &[(usize, usize)],
    cur_structure: &LevelStructure,
    side: Side,
    stream_idx: usize,
    d: usize,
    seed: u64,
) -> (VarBatch, VarBatch) {
    let n = h2.tree.npoints();
    let (mut yv, mut om, _) =
        draw_global_samples(rt, sampler, n, d, seed, side, leaf_ranges, false);

    for rec in records {
        // Subtract + stack with the recorded structure.
        let (yl, ol) = advance_level(rt, h2, &rec.structure, side, yv, om, None);
        // Apply the frozen skeletonization: shrink the samples by this
        // stream's skeletons, compress the inputs by the opposite side.
        let skel_refs: Vec<&[usize]> = rec.skels_local[stream_idx]
            .iter()
            .map(Vec::as_slice)
            .collect();
        let bases = input_bases(h2, side, &rec.node_ids);
        yv = rt.phase(Phase::Upsweep, || shrink_rows(rt, &yl, &skel_refs));
        om = rt.phase(Phase::Upsweep, || gemm_at_x(rt, &bases, &ol));
    }

    // Advance through the current (not yet skeletonized) level.
    advance_level(rt, h2, cur_structure, side, yv, om, None)
}
