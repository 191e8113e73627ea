//! Top-down peeling construction (the comparator algorithms of Fig. 5).
//!
//! This is the Lin–Lu–Ying / Levitt–Martinsson family the paper compares
//! against (H2Opus's top-down sketching and ButterflyPACK's sketched H
//! construction): process the matrix tree **from the coarsest level down**,
//! sketching each level's admissible blocks after *peeling off* (subtracting
//! the action of) everything already built. Structured random test blocks
//! restricted to one cluster colour at a time keep same-level and
//! finer-level contributions from contaminating each other — the graph
//! colouring of \[23\].
//!
//! The defining cost: every level needs its own sketches, so the total
//! sample count grows as `O(colors · d · log N)` — against the O(1) samples
//! of the bottom-up Algorithm 1. Run with a weak-admissibility partition
//! this reproduces the HODLR-route blow-up that makes H2Opus's top-down
//! construction run out of memory on 3-D problems (§V.B).

use crate::hmatrix::{HMatrix, LowRankBlock};
use h2_core::threshold::{estimate_norm, Threshold};
use h2_dense::cpqr::{row_id, Truncation};
use h2_dense::{EntryAccess, LinOp, Mat};
use h2_tree::{ClusterTree, Partition};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of the peeling constructions. Truncation follows
/// Algorithm 1's one rule, [`h2_core::threshold`]: the same safety factor,
/// norm-estimate cap and `√d` width scaling, so the comparator truncates
/// exactly as the engine it is compared against.
#[derive(Clone, Copy, Debug)]
pub struct PeelConfig {
    /// Relative tolerance ε, the one truncation input (see
    /// [`h2_core::threshold::Threshold`]).
    pub tol: f64,
    /// Samples per colour per adaptation round.
    pub d_block: usize,
    /// Total sample budget (the algorithm stops growing a level's sketch
    /// when exceeded — mirrors H2Opus's OOM failure mode gracefully).
    pub max_samples: usize,
    pub seed: u64,
}

impl Default for PeelConfig {
    fn default() -> Self {
        PeelConfig {
            tol: 1e-6,
            d_block: 32,
            max_samples: 100_000,
            seed: 0xBEEF,
        }
    }
}

/// Statistics of a peeling construction (Fig. 5 sample labels).
#[derive(Clone, Debug, Default)]
pub struct PeelStats {
    /// Total random vectors consumed.
    pub total_samples: usize,
    /// Colour count per processed level (coarse first).
    pub colors_per_level: Vec<usize>,
    /// Samples consumed per processed level.
    pub samples_per_level: Vec<usize>,
    pub elapsed: Duration,
    /// True when the sample budget was exhausted before convergence.
    pub budget_exhausted: bool,
}

/// Greedy colouring of the level-`l` conflict graph: clusters `t, t'`
/// conflict when some same-level cluster `s` has both in its active
/// (admissible ∪ inadmissible) lists — the condition under which their
/// sketch responses would overlap in the rows of `s`.
fn color_level(tree: &ClusterTree, partition: &Partition, level: usize) -> Vec<usize> {
    let ids: Vec<usize> = tree.level(level).collect();
    let base = ids[0];
    let n = ids.len();
    let mut adj: Vec<std::collections::BTreeSet<usize>> = vec![Default::default(); n];
    for &s in &ids {
        let mut active: Vec<usize> = partition.far_of[s]
            .iter()
            .chain(partition.inadm_of[s].iter())
            .map(|&t| t - base)
            .collect();
        active.sort_unstable();
        active.dedup();
        for (i, &a) in active.iter().enumerate() {
            for &b in &active[i + 1..] {
                adj[a].insert(b);
                adj[b].insert(a);
            }
        }
    }
    let mut color = vec![usize::MAX; n];
    for v in 0..n {
        let used: std::collections::BTreeSet<usize> = adj[v]
            .iter()
            .filter_map(|&u| (color[u] != usize::MAX).then_some(color[u]))
            .collect();
        let mut c = 0;
        while used.contains(&c) {
            c += 1;
        }
        color[v] = c;
    }
    color
}

/// Top-down peeling construction over an arbitrary partition.
///
/// `sampler`/`gen` are the same two black-box inputs as Algorithm 1; the
/// skeleton coupling blocks are evaluated with `gen` (partially black-box,
/// like the main algorithm).
pub fn topdown_peel(
    sampler: &dyn LinOp,
    gen: &dyn EntryAccess,
    tree: Arc<ClusterTree>,
    partition: Arc<Partition>,
    cfg: &PeelConfig,
) -> (HMatrix, PeelStats) {
    let t0 = Instant::now();
    let n = tree.npoints();
    let mut h = HMatrix::new(tree.clone(), partition.clone());
    let mut stats = PeelStats::default();

    let start = h2_dense::gaussian_mat(sampler.nrows(), 1, cfg.seed ^ 0xA5A5);
    let (norm_est, _) = estimate_norm(sampler, &start, cfg.tol);
    let threshold = Threshold::new(cfg.tol, norm_est);

    let top = partition.top_far_level(&tree);
    let leaf_level = tree.leaf_level();

    if let Some(top) = top {
        'levels: for l in top..=leaf_level {
            let ids: Vec<usize> = tree.level(l).collect();
            let base = ids[0];
            // Unordered admissible pairs of this level.
            let pairs: Vec<(usize, usize)> = ids
                .iter()
                .flat_map(|&s| {
                    partition.far_of[s]
                        .iter()
                        .filter(move |&&t| s <= t)
                        .map(move |&t| (s, t))
                })
                .collect();
            if pairs.is_empty() {
                stats.colors_per_level.push(0);
                stats.samples_per_level.push(0);
                continue;
            }
            let colors = color_level(&tree, &partition, l);
            let ncolors = colors.iter().max().unwrap() + 1;
            stats.colors_per_level.push(ncolors);

            // Per ordered admissible pair (s, t): the row sketch of
            // K(I_s, I_t) accumulated over rounds, and the matching Ω(I_t).
            let mut sketches: HashMap<(usize, usize), (Mat, Mat)> = HashMap::new();
            let mut level_samples = 0usize;

            for c in 0..ncolors {
                let members: Vec<usize> = ids
                    .iter()
                    .copied()
                    .filter(|&t| colors[t - base] == c)
                    .collect();
                // Ordered pairs whose column cluster has this colour.
                let targets: Vec<(usize, usize)> = ids
                    .iter()
                    .flat_map(|&s| {
                        partition.far_of[s]
                            .iter()
                            .filter(|&&t| colors[t - base] == c)
                            .map(move |&t| (s, t))
                    })
                    .collect();
                if targets.is_empty() {
                    continue;
                }
                let mut round = 0usize;
                loop {
                    // Structured test block: Gaussian on the colour's rows.
                    let mut omega = Mat::zeros(n, cfg.d_block);
                    let mut rng = SmallRng::seed_from_u64(
                        cfg.seed ^ ((l as u64) << 40) ^ ((c as u64) << 20) ^ round as u64,
                    );
                    for &t in &members {
                        let (b, e) = tree.range(t);
                        for j in 0..cfg.d_block {
                            for i in b..e {
                                *omega.rm().at_mut(i, j) = h2_dense::standard_normal(&mut rng);
                            }
                        }
                    }
                    // Sketch and peel off everything already built.
                    let mut y = sampler.apply_mat(&omega);
                    {
                        let mut ym = y.rm();
                        let mut tmp = Mat::zeros(n, cfg.d_block);
                        h.apply_partial(omega.rf(), &mut tmp.rm());
                        ym.axpy(-1.0, tmp.rf());
                    }
                    stats.total_samples += cfg.d_block;
                    level_samples += cfg.d_block;

                    // Accumulate per-pair sketches.
                    for &(s, t) in &targets {
                        let (sb, se) = tree.range(s);
                        let (tb, te) = tree.range(t);
                        let ys = y.view(sb, 0, se - sb, cfg.d_block).to_mat();
                        let ot = omega.view(tb, 0, te - tb, cfg.d_block).to_mat();
                        sketches
                            .entry((s, t))
                            .and_modify(|(a, b)| {
                                a.append_cols(ys.rf());
                                b.append_cols(ot.rf());
                            })
                            .or_insert((ys, ot));
                    }

                    // Convergence: smallest |R_ii| of each pair's sketch.
                    let d_cur = sketches[&targets[0]].0.cols();
                    let eps_conv = threshold.at_width(d_cur);
                    let unconverged = targets.par_iter().any(|&(s, t)| {
                        let (ys, _) = &sketches[&(s, t)];
                        if d_cur >= ys.rows() {
                            return false;
                        }
                        let f = h2_dense::qr_factor(ys.clone());
                        f.min_r_diag_abs().map(|m| m > eps_conv).unwrap_or(false)
                    });
                    if !unconverged {
                        break;
                    }
                    if stats.total_samples + cfg.d_block > cfg.max_samples {
                        stats.budget_exhausted = true;
                        break;
                    }
                    round += 1;
                }
                if stats.budget_exhausted {
                    // Finish this level with what we have, then stop
                    // (graceful version of the paper's observed OOM).
                    finalize_level(&pairs, &sketches, gen, &tree, threshold, &mut h);
                    stats.samples_per_level.push(level_samples);
                    break 'levels;
                }
            }

            finalize_level(&pairs, &sketches, gen, &tree, threshold, &mut h);
            stats.samples_per_level.push(level_samples);
        }
    }

    // Dense leaf blocks by entry evaluation.
    let mut near_pairs = Vec::new();
    for s in tree.level(leaf_level) {
        for &t in partition.near_of[s].iter().filter(|&&t| s <= t) {
            near_pairs.push((s, t));
        }
    }
    let dense_blocks: Vec<Mat> = near_pairs
        .par_iter()
        .map(|&(s, t)| {
            let (sb, se) = tree.range(s);
            let (tb, te) = tree.range(t);
            let rows: Vec<usize> = (sb..se).collect();
            let cols: Vec<usize> = (tb..te).collect();
            gen.block_mat(&rows, &cols)
        })
        .collect();
    for ((s, t), b) in near_pairs.into_iter().zip(dense_blocks) {
        h.dense.insert((s, t), b);
    }

    stats.elapsed = t0.elapsed();
    (h, stats)
}

/// Turn the per-pair sketches of one level into low-rank blocks:
/// row IDs on both sides pick skeletons, the coupling is evaluated at the
/// skeleton cross.
fn finalize_level(
    pairs: &[(usize, usize)],
    sketches: &HashMap<(usize, usize), (Mat, Mat)>,
    gen: &dyn EntryAccess,
    tree: &ClusterTree,
    threshold: Threshold,
    h: &mut HMatrix,
) {
    let built: Vec<((usize, usize), LowRankBlock)> = pairs
        .par_iter()
        .filter_map(|&(s, t)| {
            let (ys, _) = sketches.get(&(s, t))?;
            let (yt, _) = sketches.get(&(t, s)).or_else(|| sketches.get(&(s, t)))?;
            let rule = Truncation::Absolute(threshold.at_width(ys.cols()));
            let ids = row_id(ys, rule);
            let idt = if s == t {
                row_id(ys, rule)
            } else {
                row_id(yt, rule)
            };
            let (sb, _) = tree.range(s);
            let (tb, _) = tree.range(t);
            let skel_s: Vec<usize> = ids.skel.iter().map(|&r| sb + r).collect();
            let skel_t: Vec<usize> = idt.skel.iter().map(|&r| tb + r).collect();
            let b = gen.block_mat(&skel_s, &skel_t);
            Some((
                (s, t),
                LowRankBlock {
                    u: ids.u,
                    b,
                    v: idt.u,
                },
            ))
        })
        .collect();
    for (k, v) in built {
        h.lowrank.insert(k, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2_dense::relative_error_2;
    use h2_kernels::{ExponentialKernel, KernelMatrix};
    use h2_tree::Admissibility;

    #[test]
    fn coloring_respects_conflicts() {
        let pts = h2_tree::uniform_cube(2000, 120);
        let tree = ClusterTree::build(&pts, 32);
        let part = Partition::build(&tree, Admissibility::Strong { eta: 0.7 });
        let l = tree.leaf_level();
        let colors = color_level(&tree, &part, l);
        let base = tree.level(l).next().unwrap();
        for s in tree.level(l) {
            let active: Vec<usize> = part.far_of[s]
                .iter()
                .chain(part.inadm_of[s].iter())
                .copied()
                .collect();
            for (i, &a) in active.iter().enumerate() {
                for &b in &active[i + 1..] {
                    if a != b {
                        assert_ne!(
                            colors[a - base],
                            colors[b - base],
                            "conflicting clusters {a},{b} share a colour"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn peeling_constructs_accurate_h_matrix() {
        // Use the fast H2 reference matvec as the sampler (the exact kernel
        // matvec is O(N²d) per colour pass and would dominate test time).
        let pts = h2_tree::uniform_cube(1500, 121);
        let tree = Arc::new(ClusterTree::build(&pts, 16));
        let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
        let km = KernelMatrix::new(ExponentialKernel::default(), tree.points.clone());
        let reference = h2_matrix::direct_construct(
            &km,
            tree.clone(),
            part.clone(),
            &h2_matrix::DirectConfig {
                tol: 1e-10,
                ..Default::default()
            },
        );
        let cfg = PeelConfig {
            tol: 1e-6,
            ..Default::default()
        };
        let (h, stats) = topdown_peel(&reference, &km, tree.clone(), part, &cfg);
        assert!(stats.total_samples > 0);
        assert!(!stats.budget_exhausted);
        let e = relative_error_2(&km, &h, 20, 122);
        assert!(e < 1e-5, "peeling rel err {e}");
    }

    #[test]
    fn peeling_needs_more_samples_per_extra_level() {
        // The defining top-down cost: each level consumes fresh samples.
        let pts = h2_tree::uniform_cube(1500, 123);
        let tree = Arc::new(ClusterTree::build(&pts, 16));
        let part = Arc::new(Partition::build(&tree, Admissibility::Strong { eta: 0.7 }));
        let km = KernelMatrix::new(ExponentialKernel::default(), tree.points.clone());
        let reference = h2_matrix::direct_construct(
            &km,
            tree.clone(),
            part.clone(),
            &h2_matrix::DirectConfig {
                tol: 1e-8,
                ..Default::default()
            },
        );
        let cfg = PeelConfig {
            tol: 1e-4,
            ..Default::default()
        };
        let (_, stats) = topdown_peel(&reference, &km, tree.clone(), part, &cfg);
        let active_levels = stats.samples_per_level.iter().filter(|&&s| s > 0).count();
        assert!(active_levels >= 2);
        // every active level costs at least one block of samples
        assert!(stats.total_samples >= active_levels * cfg.d_block);
    }
}
