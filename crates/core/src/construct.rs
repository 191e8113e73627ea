//! Algorithm 1 as a stream-generic engine: bottom-up sketching-based H2
//! construction with adaptive sampling, for symmetric *and* unsymmetric
//! matrices from one level-by-level loop.
//!
//! Inputs (paper §III): a hierarchical block partition, a black-box sampler
//! `Y = Kblk(Ω)` (with `Z = Kᵀblk(Ψ)` for the unsymmetric extension), an
//! entry evaluator for sub-blocks, a relative tolerance ε, and the sample
//! block size `d`. The construction proceeds level by level from the
//! leaves, driving one `SketchStream` per basis side:
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
//!    `BlockStore::get_op` resolves for both storage layouts,
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
//! The symmetric construction is the degenerate one-stream instance
//! (`V = U`, shared skeletons): it executes exactly the seed symmetric
//! kernel sequence, so results are bitwise identical to the pre-unification
//! path. Every step runs as batched kernels on the [`Runtime`] and is
//! attributed to the Fig.-7 phase it belongs to.

use crate::config::{SketchConfig, SketchStats};
use crate::multidev::ConstructPlanner;
use h2_dense::cpqr::Truncation;
use h2_dense::{norm_2_gkl, EntryAccess, LinOp, Mat};
use h2_matrix::H2Matrix;
use h2_runtime::{
    batched_gen, batched_row_id, bsr_gemm, gather_rows, gemm_at_x, hcat_batches, issue_bsr_fetches,
    qr_min_rdiag, rand_mat, shrink_rows, stack_children, BsrBlock, BsrPattern, GenBlock, Phase,
    PipelineMode, Runtime, VarBatch,
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

/// One sketch stream: a basis side plus its current per-node sample batches
/// (`y` — the sketched output samples, `omega` — the random inputs), and on
/// a pipelined fabric the per-device tickets of the `Ω_b` fetches issued
/// ahead for the next level's `batchedBSRGemm`.
struct SketchStream {
    side: Side,
    y: VarBatch,
    omega: VarBatch,
    fetched: Option<Vec<Vec<u64>>>,
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

/// One sealed per-level construction checkpoint: the finished level's
/// identity plus the skeleton widths its bases committed into the
/// `H2Matrix`. Sealed right after the level's fabric accounting epoch
/// closes — and a device fail-stop is applied exactly at an epoch
/// boundary — so a topology change can only ever interrupt the *next*,
/// not-yet-sealed level. Recovery therefore verifies the sealed ledger
/// intact and replays the single in-flight level by simply running it on
/// the re-routed fabric: per-entry arithmetic is device-count-invariant,
/// so the replayed level (and the whole construction) stays bit-identical
/// to a fault-free run.
struct LevelCheckpoint {
    level: usize,
    /// Node ids of the sealed level (level order).
    node_ids: Vec<usize>,
    /// Committed skeleton width per node: row side, then (unsymmetric
    /// only) column side.
    skel_widths: Vec<Vec<usize>>,
}

impl LevelCheckpoint {
    fn seal(l: usize, node_ids: &[usize], h2: &H2Matrix, symmetric: bool) -> Self {
        let mut skel_widths = vec![node_ids.iter().map(|&id| h2.skel[id].len()).collect()];
        if !symmetric {
            skel_widths.push(node_ids.iter().map(|&id| h2.col_skel()[id].len()).collect());
        }
        LevelCheckpoint {
            level: l,
            node_ids: node_ids.to_vec(),
            skel_widths,
        }
    }

    /// Assert the sealed level's committed state is still what it was at
    /// seal time (nothing a later topology change may have clobbered).
    fn verify(&self, h2: &H2Matrix, symmetric: bool) {
        let fresh = LevelCheckpoint::seal(self.level, &self.node_ids, h2, symmetric);
        assert_eq!(
            self.skel_widths, fresh.skel_widths,
            "construct checkpoint L{} violated after reshard",
            self.level
        );
    }
}

/// Construct a symmetric H2 matrix by adaptive sketching (Algorithm 1).
///
/// The degenerate one-stream instance of the engine: `V = U`, one sample
/// stream, unordered block stores. `sampler` and `gen` view the matrix in
/// tree-permuted coordinates, as do all operators in this workspace.
pub fn sketch_construct(
    sampler: &dyn LinOp,
    gen: &dyn EntryAccess,
    tree: Arc<ClusterTree>,
    partition: Arc<Partition>,
    rt: &Runtime,
    cfg: &SketchConfig,
) -> (H2Matrix, SketchStats) {
    sketch_construct_engine(sampler, gen, tree, partition, rt, cfg, true)
}

/// Construct an unsymmetric H2 matrix by adaptive sketching: the two-stream
/// instance with independent row/column bases and ordered block stores.
///
/// `sampler` must implement both `apply` and `apply_transpose`; `gen`
/// evaluates entries of the (possibly unsymmetric) matrix. Both view the
/// matrix in tree-permuted coordinates.
///
/// `SketchStats::total_samples` counts the columns of **each** stream; the
/// construction draws that many `Ω` and that many `Ψ` vectors.
pub fn sketch_construct_unsym(
    sampler: &dyn LinOp,
    gen: &dyn EntryAccess,
    tree: Arc<ClusterTree>,
    partition: Arc<Partition>,
    rt: &Runtime,
    cfg: &SketchConfig,
) -> (H2Matrix, SketchStats) {
    assert_eq!(
        sampler.ncols(),
        sampler.nrows(),
        "only square matrices are supported"
    );
    sketch_construct_engine(sampler, gen, tree, partition, rt, cfg, false)
}

/// The stream-generic construction engine behind both entry points.
fn sketch_construct_engine(
    sampler: &dyn LinOp,
    gen: &dyn EntryAccess,
    tree: Arc<ClusterTree>,
    partition: Arc<Partition>,
    rt: &Runtime,
    cfg: &SketchConfig,
    symmetric: bool,
) -> (H2Matrix, SketchStats) {
    let t0 = Instant::now();
    let n = tree.npoints();
    assert_eq!(sampler.nrows(), n, "sampler size mismatch");
    let mut h2 = if symmetric {
        H2Matrix::new_shell(tree.clone(), partition.clone())
    } else {
        H2Matrix::new_shell_unsym(tree.clone(), partition.clone())
    };
    let mut stats = SketchStats::default();
    let leaf_level = tree.leaf_level();
    // On a fabric, every closed epoch is charged from this planner's step.
    let mut planner = rt
        .shard_dispatch()
        .map(|d| ConstructPlanner::new(&h2, cfg, d.devices(), d.mode(), d.wire()));

    // ---- dense near-field blocks (batchedGen, line 8) ----
    // Symmetric: once per unordered pair. Unsymmetric: every ordered pair —
    // K(I_s, I_t) and K(I_t, I_s) are disjoint entry sets.
    rt.phase(Phase::EntryGen, || {
        let mut specs = Vec::new();
        let mut keys = Vec::new();
        for s in tree.level(leaf_level) {
            for &t in partition.near_of[s]
                .iter()
                .filter(|&&t| !symmetric || s <= t)
            {
                let (sb, se) = tree.range(s);
                let (tb, te) = tree.range(t);
                specs.push(GenBlock {
                    rows: (sb..se).collect(),
                    cols: (tb..te).collect(),
                });
                keys.push((s, t));
            }
        }
        let blocks = batched_gen(rt, gen, &specs);
        for ((s, t), b) in keys.into_iter().zip(blocks) {
            h2.dense.insert(s, t, b);
        }
    });

    // Entirely dense partition (tiny N): done.
    let Some(top) = partition.top_far_level(&tree) else {
        if let Some(planner) = &planner {
            rt.shard_epoch(&planner.tail(&h2));
        }
        stats.elapsed = t0.elapsed();
        stats.capture_profile(rt.profile());
        return (h2, stats);
    };

    // ---- initial sampling (line 1), one batch per stream ----
    let d0 = cfg.initial_width();
    let leaf_ranges: Vec<(usize, usize)> =
        tree.level(leaf_level).map(|id| tree.range(id)).collect();
    let sides: &[Side] = if symmetric {
        &[Side::Row]
    } else {
        &[Side::Row, Side::Col]
    };
    let mut norm_start = None;
    let mut streams: Vec<SketchStream> = sides
        .iter()
        .map(|&side| {
            let (y, omega, start) = draw_global_samples(
                rt,
                sampler,
                n,
                d0,
                cfg.seed ^ side.seed_salt(),
                side,
                &leaf_ranges,
                side == Side::Row,
            );
            norm_start = norm_start.take().or(start);
            SketchStream {
                side,
                y,
                omega,
                fetched: None,
            }
        })
        .collect();
    stats.total_samples = d0;

    // ---- norm estimate backing the relative threshold (§III.B):
    // Golub–Kahan–Lanczos from the row samples' dominant direction, which
    // alternates K and Kᵀ, so unsymmetry is handled ----
    let start = norm_start.expect("the row stream yields the estimate's start");
    let (norm_est, norm_products) = rt.phase(Phase::NormEst, || {
        norm_2_gkl(sampler, &start, 2 * cfg.norm_est_iters + 1, cfg.tol)
    });
    stats.norm_estimate = norm_est;
    stats.norm_products = norm_products;
    let eps_abs = cfg.safety * cfg.tol * norm_est.max(f64::MIN_POSITIVE);

    // ---- storage demotion of the finished near-field (norm-aware) ----
    // Done before the level loop so the leaf-level BSR subtraction reads
    // exactly the values the stored operator will have: demotion error is
    // then *part of* the operator being sketched, not an unmodeled drift.
    if cfg.storage == h2_runtime::Precision::F32 {
        h2.dense.demote_pending(eps_abs);
    }

    // The column stream samples through `apply_transpose`, whose `LinOp`
    // default silently falls back to `apply` (correct only for symmetric
    // operators). The adjoint identity xᵀ(K y) = (Kᵀ x)ᵀ y holds for every
    // correct pair regardless of symmetry, so one cheap probe catches a
    // forgotten override before it corrupts the column bases.
    if !symmetric {
        rt.phase(Phase::Misc, || {
            let x = h2_dense::gaussian_mat(n, 1, cfg.seed ^ 0x0DD5_EED5);
            let y = h2_dense::gaussian_mat(n, 1, cfg.seed ^ 0x5EED_0DD5);
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

    let mut records: Vec<LevelRecord> = Vec::new();
    let mut round_seed = cfg.seed.wrapping_add(0x1234_5678);
    let mut checkpoints: Vec<LevelCheckpoint> = Vec::new();
    let mut reshard_seen = rt
        .shard_dispatch()
        .map(|d| d.reshard_version())
        .unwrap_or(0);

    // ---- bottom-up level loop ----
    for l in (top..=leaf_level).rev() {
        // Device-loss recovery boundary: a fail-stop lands exactly at an
        // epoch close, so a reshard-version change observed here means the
        // loss interrupted *this* (in-flight) level at worst. Verify the
        // sealed ledger, count the recovery, and proceed — running the
        // level on the re-routed fabric IS the bounded replay.
        if let Some(disp) = rt.shard_dispatch() {
            let v = disp.reshard_version();
            if v != reshard_seen {
                reshard_seen = v;
                for cp in &checkpoints {
                    cp.verify(&h2, symmetric);
                }
                stats.recoveries += 1;
                disp.note_recovery("construct level replay");
            }
        }
        let _level_span = rt.trace_span("construct", || format!("construct L{l}"));
        let node_ids: Vec<usize> = tree.level(l).collect();
        let is_leaf = l == leaf_level;
        let structure = level_structure(&tree, &partition, &node_ids, is_leaf);

        // Subtract known contributions and stack to this level's nodes
        // (lines 9 / 24+27), per stream.
        let mut locals: Vec<(VarBatch, VarBatch)> = streams
            .drain(..)
            .map(|s| advance_level(rt, &h2, &structure, s.side, s.y, s.omega, s.fetched))
            .collect();

        // ---- adaptive sampling loop (lines 11-14 / 29-32): every stream
        // must pass the per-node convergence test ----
        let mut level_rounds = 0usize;
        loop {
            let d_cur = if locals[0].0.count() > 0 {
                locals[0].0.cols_of(0)
            } else {
                0
            };
            if !cfg.adaptive || d_cur == 0 {
                break;
            }
            let eps_conv = eps_abs * (d_cur as f64).sqrt();
            let mut unconverged = false;
            let mut mins_per_stream = Vec::with_capacity(locals.len());
            for (yloc, _) in &locals {
                let mins = rt.phase(Phase::ConvergenceTest, || qr_min_rdiag(rt, yloc));
                mins_per_stream.push(mins);
            }
            for ((yloc, _), mins) in locals.iter().zip(&mins_per_stream) {
                unconverged |=
                    (0..yloc.count()).any(|i| d_cur < yloc.rows_of(i) && mins[i] > eps_conv);
            }
            if !unconverged {
                break;
            }
            if stats.total_samples + cfg.sample_block > cfg.max_samples {
                stats.sample_cap_hit = true;
                break;
            }
            // updateSamples: fresh global sketch per stream swept through the
            // frozen levels below, then advanced through this level.
            round_seed = round_seed.wrapping_add(0x9E37_79B9);
            for (idx, &side) in sides.iter().enumerate() {
                let (ny, nom) = sweep_new_samples(
                    rt,
                    sampler,
                    &h2,
                    &tree,
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
            stats.total_samples += cfg.sample_block;
            stats.rounds += 1;
            level_rounds += 1;
        }
        stats.rounds_per_level.push(level_rounds);

        // ---- batched row ID per stream (lines 16 / 34) ----
        let height = leaf_level - l;
        let eps_id =
            eps_abs * cfg.schedule.scale(height) * (locals[0].0.cols_of(0).max(1) as f64).sqrt();
        let mut skels_local: Vec<Vec<Vec<usize>>> = Vec::with_capacity(locals.len());
        for (idx, &side) in sides.iter().enumerate() {
            let (yloc, _) = &locals[idx];
            let mut id_res = rt.phase(Phase::Id, || {
                batched_row_id(rt, yloc, Truncation::Absolute(eps_id))
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
            for (local, &id) in node_ids.iter().enumerate() {
                let r = &id_res[local];
                let stacked_rows: Vec<usize> = if is_leaf {
                    let (b, e) = tree.range(id);
                    (b..e).collect()
                } else {
                    let (c1, c2) = tree.nodes[id].children.unwrap();
                    let skel = side_skel(&h2, side);
                    skel[c1].iter().chain(skel[c2].iter()).copied().collect()
                };
                let global: Vec<usize> = r.skel.iter().map(|&p| stacked_rows[p]).collect();
                set_side_basis(&mut h2, side, id, r.u.clone(), global);
                side_skels.push(r.skel.clone());
            }
            skels_local.push(side_skels);
        }

        // ---- issue the next level's Ω/Ψ fetches (pipelined fabric) ----
        // Everything the next processed level's `batchedBSRGemm` will fetch
        // is determined right here: its BSR rows are this level's nodes
        // (far-field adjacency), and the partner block heights are the
        // opposite side's just-computed ranks (`Ω ← VᵀΩ`, `Ψ ← UᵀΨ`). Issue
        // the transfers now so the virtual copies run behind the coupling
        // generation and upsweep below; each stream carries its tickets to
        // the next level's first `advance_level`.
        let mut fetched: Vec<Option<Vec<Vec<u64>>>> = vec![None; sides.len()];
        let ahead = rt
            .shard_dispatch()
            .filter(|disp| l > top && disp.mode() == PipelineMode::Pipelined);
        if let Some(disp) = ahead {
            let d_cur = if locals[0].0.count() > 0 {
                locals[0].0.cols_of(0)
            } else {
                0
            };
            if d_cur > 0 {
                let adj: Vec<Vec<usize>> = node_ids
                    .iter()
                    .map(|&s| {
                        partition.far_of[s]
                            .iter()
                            .map(|&t| tree.local_index(t))
                            .collect()
                    })
                    .collect();
                let pattern = BsrPattern::from_rows(&adj);
                for (slot, &side) in fetched.iter_mut().zip(sides) {
                    let b = input_basis(&h2, side);
                    let x_rows: Vec<usize> = node_ids.iter().map(|&id| b[id].cols()).collect();
                    *slot = Some(issue_bsr_fetches(disp.as_ref(), &pattern, &x_rows, d_cur));
                }
            }
        }

        // ---- coupling blocks at this level (batchedGen, line 41):
        // B_{s,t} = K(Ĩ^r_s, Ĩ^c_t) ----
        rt.phase(Phase::EntryGen, || {
            let mut specs = Vec::new();
            let mut keys = Vec::new();
            for &s in &node_ids {
                for &t in partition.far_of[s]
                    .iter()
                    .filter(|&&t| !symmetric || s <= t)
                {
                    specs.push(GenBlock {
                        rows: h2.skel[s].clone(),
                        cols: h2.col_skel()[t].clone(),
                    });
                    keys.push((s, t));
                }
            }
            let blocks = batched_gen(rt, gen, &specs);
            for ((s, t), b) in keys.into_iter().zip(blocks) {
                h2.coupling.insert(s, t, b);
            }
        });

        // ---- storage demotion as the level completes (norm-aware) ----
        // Bases and coupling blocks of this level narrow to f32 *before*
        // the upsweep and the next level's subtraction consume them, so
        // every later kernel reads the stored representation.
        if cfg.storage == h2_runtime::Precision::F32 {
            h2.demote_level(l, eps_abs, norm_est);
        }

        // ---- upsweep to the next level (lines 17-18 / 35-36): shrink each
        // stream's samples to its skeleton rows, compress its inputs by the
        // opposite side's basis (Ω ← VᵀΩ, Ψ ← UᵀΨ; V = U when symmetric) ----
        streams = {
            // Inputs the chained upsweep jobs borrow — the drained local
            // batches, the skeleton-ref views and the cloned bases — are
            // hoisted so they outlive the chain scope's closing barrier.
            let taken: Vec<(VarBatch, VarBatch)> = std::mem::take(&mut locals);
            let skel_refs_per: Vec<Vec<&[usize]>> = if l > top {
                skels_local
                    .iter()
                    .map(|sk| sk.iter().map(|v| v.as_slice()).collect())
                    .collect()
            } else {
                Vec::new()
            };
            let bases_per: Vec<Vec<Mat>> = if l > top {
                sides
                    .iter()
                    .map(|&side| {
                        let b = input_basis(&h2, side);
                        node_ids.iter().map(|&id| b[id].clone()).collect()
                    })
                    .collect()
            } else {
                Vec::new()
            };
            // Both streams' shrink + compress kernels share one chain scope
            // on the pipelined fabric: one closing barrier instead of one
            // per kernel.
            rt.shard_chain_begin();
            let out: Vec<SketchStream> = sides
                .iter()
                .zip(taken.iter())
                .enumerate()
                .map(|(idx, (&side, (yloc, omega_l)))| {
                    if l > top {
                        let y = rt.phase(Phase::Upsweep, || {
                            shrink_rows(rt, yloc, &skel_refs_per[idx])
                        });
                        let omega =
                            rt.phase(Phase::Upsweep, || gemm_at_x(rt, &bases_per[idx], omega_l));
                        SketchStream {
                            side,
                            y,
                            omega,
                            fetched: fetched[idx].take(),
                        }
                    } else {
                        SketchStream {
                            side,
                            y: VarBatch::zeros_uniform_cols(Vec::new(), 0),
                            omega: VarBatch::zeros_uniform_cols(Vec::new(), 0),
                            fetched: None,
                        }
                    }
                })
                .collect();
            rt.shard_chain_end();
            out
        };

        records.push(LevelRecord {
            structure,
            node_ids,
            skels_local,
        });

        if let Some(planner) = &mut planner {
            // Charge the fabric this level's epoch of `plan_construct` and
            // close it.
            rt.shard_epoch(&planner.level(&h2, l, level_rounds));
            // Seal this level's checkpoint only after the epoch boundary —
            // the point where a scheduled device fail-stop takes effect — so
            // the ledger never contains a level the loss could have
            // interrupted.
            let rec = records.last().expect("level record just pushed");
            checkpoints.push(LevelCheckpoint::seal(l, &rec.node_ids, &h2, symmetric));
            stats.checkpoints += 1;
        }

        if l == top {
            break;
        }
    }

    stats.elapsed = t0.elapsed();
    stats.capture_profile(rt.profile());
    (h2, stats)
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

/// Build the shared BSR subtraction/stacking structure of a level.
pub(crate) fn level_structure(
    tree: &ClusterTree,
    partition: &Partition,
    node_ids: &[usize],
    is_leaf: bool,
) -> LevelStructure {
    if is_leaf {
        let adj: Vec<Vec<usize>> = node_ids
            .iter()
            .map(|&s| {
                partition.near_of[s]
                    .iter()
                    .map(|&t| tree.local_index(t))
                    .collect()
            })
            .collect();
        let mut pairs = Vec::new();
        for &s in node_ids {
            for &t in &partition.near_of[s] {
                pairs.push((s, t));
            }
        }
        LevelStructure {
            pattern: BsrPattern::from_rows(&adj),
            pairs,
            source: BlockSource::Dense,
            children_local: Vec::new(),
        }
    } else {
        let child_level = tree.level_of(node_ids[0]) + 1;
        let child_ids: Vec<usize> = tree.level(child_level).collect();
        let adj: Vec<Vec<usize>> = child_ids
            .iter()
            .map(|&s| {
                partition.far_of[s]
                    .iter()
                    .map(|&t| tree.local_index(t))
                    .collect()
            })
            .collect();
        let mut pairs = Vec::new();
        for &s in &child_ids {
            for &t in &partition.far_of[s] {
                pairs.push((s, t));
            }
        }
        let children_local: Vec<Vec<usize>> = node_ids
            .iter()
            .map(|&p| {
                let (c1, c2) = tree.nodes[p].children.unwrap();
                vec![tree.local_index(c1), tree.local_index(c2)]
            })
            .collect();
        LevelStructure {
            pattern: BsrPattern::from_rows(&adj),
            pairs,
            source: BlockSource::Coupling,
            children_local,
        }
    }
}

/// Resolve the BSR block references of a level against the H2 block stores.
///
/// The row stream multiplies blocks of `K` (ordered `(s, t)` lookups); the
/// column stream multiplies blocks of `Kᵀ` (`K(I_t, I_s)ᵀ`). Both the
/// unordered-symmetric and ordered-unsymmetric stores answer through
/// `BlockStore::get_op`.
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
            let (mat, transposed) = store.get_op(s, t, transpose).expect("level block");
            BsrBlock { mat, transposed }
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
    // On the pipelined fabric the subtraction and the child stacking run in
    // one chain scope: each kernel's closing flush records a dependency
    // boundary instead of blocking, so the stacking jobs queue behind the
    // BSR jobs' completion tickets and a single barrier closes the scope.
    // Everything the queued jobs borrow — `blocks`, `y`, `omega` — must
    // stay alive until `shard_chain_end`, which is why `blocks` is hoisted
    // out of the phase closure.
    let blocks = resolve_blocks(h2, &structure.pairs, structure.source, side);
    rt.shard_chain_begin();
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
    let stacked = if structure.children_local.is_empty() {
        None
    } else {
        Some(rt.phase(Phase::Misc, || {
            let yl = stack_children(rt, &y, &structure.children_local);
            let ol = stack_children(rt, &omega, &structure.children_local);
            (yl, ol)
        }))
    };
    rt.shard_chain_end();
    match stacked {
        None => (y, omega),
        Some(pair) => pair,
    }
}

/// `updateSamples` (lines 13/31) for one stream: draw a fresh global sketch
/// and sweep it through all completed levels (frozen bases and skeletons),
/// then advance it through the current level's subtraction/stacking.
#[allow(clippy::too_many_arguments)]
fn sweep_new_samples(
    rt: &Runtime,
    sampler: &dyn LinOp,
    h2: &H2Matrix,
    tree: &ClusterTree,
    records: &[LevelRecord],
    leaf_ranges: &[(usize, usize)],
    cur_structure: &LevelStructure,
    side: Side,
    stream_idx: usize,
    d: usize,
    seed: u64,
) -> (VarBatch, VarBatch) {
    let n = tree.npoints();
    let (mut yv, mut om, _) =
        draw_global_samples(rt, sampler, n, d, seed, side, leaf_ranges, false);

    for rec in records {
        // Subtract + stack with the recorded structure.
        let (yl, ol) = advance_level(rt, h2, &rec.structure, side, yv, om, None);
        // Apply the frozen skeletonization: shrink the samples by this
        // stream's skeletons, compress the inputs by the opposite side.
        let skel_refs: Vec<&[usize]> = rec.skels_local[stream_idx]
            .iter()
            .map(|v| v.as_slice())
            .collect();
        let bases: Vec<Mat> = {
            let b = input_basis(h2, side);
            rec.node_ids.iter().map(|&id| b[id].clone()).collect()
        };
        yv = rt.phase(Phase::Upsweep, || shrink_rows(rt, &yl, &skel_refs));
        om = rt.phase(Phase::Upsweep, || gemm_at_x(rt, &bases, &ol));
    }

    // Advance through the current (not yet skeletonized) level.
    advance_level(rt, h2, cur_structure, side, yv, om, None)
}
